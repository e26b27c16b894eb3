"""Independent oracles the implementation is tested against.

These are deliberately naive and written before (and apart from) the engine
code: a recursive reference matcher for the restricted glob language,
language enumeration over a small alphabet for containment, per-value
membership tests for deciding whether a conjunction of limits admits
anything, a recursive walk that says which values canonical JSON refuses,
a branch-per-family reader and writer of the constraint wire form, a
reserve ledger that keeps its admitted rows in a list and sums them afresh,
the delegation narrowing check as it first read, one group at a time, and
the timestamp reader as it read before it built ``Z`` instants directly.
They are frozen; when engine and oracle disagree, the engine is
wrong until proven otherwise.
"""

from __future__ import annotations

import json
import operator
import re
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from functools import lru_cache
from itertools import product

from mandate.canonical import canonical_dumps
from mandate.constraints import (
    WEEKDAYS,
    CumulativeLimitConstraint,
    EnumeratedListConstraint,
    NumericLimitConstraint,
    Period,
    StringPatternConstraint,
    TemporalWindowConstraint,
    UnknownConstraint,
    normalize_pattern,
    pattern_subsumes,
)
from mandate.model import (
    SemanticType,
    ValueParseError,
    expect,
    expect_list,
    parse_offset,
    parse_timestamp,
    parse_typed_value,
    render_timestamp,
)

ALPHABET = ("a", "b", "/")


def reference_glob_match(pattern: str, text: str) -> bool:
    """Recursive definition of the restricted glob language, no cleverness."""
    if pattern == "":
        return text == ""
    if pattern[0] == "*":
        # '*' absorbs zero characters, or one and stays.
        return reference_glob_match(pattern[1:], text) or (
            text != "" and reference_glob_match(pattern, text[1:])
        )
    return text != "" and pattern[0] == text[0] and reference_glob_match(pattern[1:], text[1:])


@lru_cache(maxsize=None)
def all_strings(max_len: int) -> tuple[str, ...]:
    strings: list[str] = []
    for length in range(max_len + 1):
        for combo in product(ALPHABET, repeat=length):
            strings.append("".join(combo))
    return tuple(strings)


def language_bitmask(pattern: str, max_len: int = 6) -> int:
    """Membership of every alphabet string up to max_len, packed into one int."""
    mask = 0
    for i, text in enumerate(all_strings(max_len)):
        if reference_glob_match(pattern, text):
            mask |= 1 << i
    return mask


def enumeration_subsumes(parent: str, child: str, max_len: int = 6) -> bool:
    """Finite-language containment: child's matches (up to max_len) inside parent's."""
    child_mask = language_bitmask(child, max_len)
    parent_mask = language_bitmask(parent, max_len)
    return child_mask & ~parent_mask == 0


def all_patterns(max_len: int = 5, max_stars: int = 2) -> list[str]:
    symbols = ALPHABET + ("*",)
    patterns: list[str] = []
    for length in range(max_len + 1):
        for combo in product(symbols, repeat=length):
            if combo.count("*") <= max_stars:
                patterns.append("".join(combo))
    return patterns


_COMPARE = {
    "eq": operator.eq,
    "lt": operator.lt,
    "lte": operator.le,
    "gt": operator.gt,
    "gte": operator.ge,
}


def numeric_admits(limits, value) -> bool:
    """Whether ``value`` meets every ``(operator, bound)`` limit of a conjunction."""
    return all(_COMPARE[op](value, bound) for op, bound in limits)


def enumeration_admits(lists, value: str) -> bool:
    """Whether ``value`` passes every ``(allowed, denied)`` pair; None means unset."""
    return all(
        (allowed is None or value in allowed) and (denied is None or value not in denied)
        for allowed, denied in lists
    )


def reference_canonical_refusal(obj, path: str = "$") -> None:
    """Recursive definition of what canonical JSON refuses: a float, a
    non-string key or any other type, raised with the path of the first
    offence in insertion order, each key before its value."""
    if isinstance(obj, float):
        raise ValueError(f"float at {path} is not canonicalizable; use a string decimal")
    if isinstance(obj, dict):
        for key, value in obj.items():
            if not isinstance(key, str):
                raise ValueError(f"non-string key at {path}")
            reference_canonical_refusal(value, f"{path}.{key}")
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            reference_canonical_refusal(value, f"{path}[{i}]")
    elif obj is not None and not isinstance(obj, (str, int, bool)):
        raise ValueError(f"unsupported type {type(obj).__name__} at {path}")


def reference_constraint_from_dict(obj):
    """One hand-written branch per constraint family, each with its own key
    sets.  A recognized tag whose body does not fit exactly reads as unknown;
    the period is read by the library's ``Period.from_dict``."""
    if not isinstance(obj, dict) or not isinstance(obj.get("type"), str):
        raise ValueParseError("constraint must be an object with a string 'type'")
    tag = obj["type"]
    try:
        if tag == "NumericLimitConstraint":
            _reference_keys(obj, {"type", "field", "operator", "value"}, {"currency", "unit"})
            return NumericLimitConstraint(
                field=expect(obj, "field", str),
                operator=expect(obj, "operator", str),
                value=parse_typed_value(obj["value"], SemanticType.DECIMAL).value,
                currency=expect(obj, "currency", str, optional=True),
                unit=expect(obj, "unit", str, optional=True),
            )
        if tag == "TemporalWindowConstraint":
            _reference_keys(obj, {"type", "field", "valid_from", "valid_until", "timezone"}, {"allowed_days"})
            days = obj.get("allowed_days")
            return TemporalWindowConstraint(
                field=expect(obj, "field", str),
                valid_from=parse_timestamp(expect(obj, "valid_from", str)),
                valid_until=parse_timestamp(expect(obj, "valid_until", str)),
                timezone=expect(obj, "timezone", str),
                allowed_days=frozenset(expect_list(days, str)) if days is not None else None,
            )
        if tag == "EnumeratedListConstraint":
            _reference_keys(obj, {"type", "field"}, {"allowed", "denied"})
            allowed = obj.get("allowed")
            denied = obj.get("denied")
            return EnumeratedListConstraint(
                field=expect(obj, "field", str),
                allowed=frozenset(expect_list(allowed, str)) if allowed is not None else None,
                denied=frozenset(expect_list(denied, str)) if denied is not None else None,
            )
        if tag == "StringPatternConstraint":
            _reference_keys(obj, {"type", "field", "match", "pattern"}, set())
            return StringPatternConstraint(
                field=expect(obj, "field", str),
                match=expect(obj, "match", str),
                pattern=expect(obj, "pattern", str),
            )
        if tag == "CumulativeLimitConstraint":
            _reference_keys(obj, {"type", "field", "budget", "period", "state_authority_pointer"}, {"currency"})
            return CumulativeLimitConstraint(
                field=expect(obj, "field", str),
                budget=parse_typed_value(obj["budget"], SemanticType.DECIMAL).value,
                period=Period.from_dict(obj["period"]),
                state_authority_pointer=expect(obj, "state_authority_pointer", str),
                currency=expect(obj, "currency", str, optional=True),
            )
    except (ValueParseError, KeyError, TypeError):
        return UnknownConstraint(type_tag=tag, body=canonical_dumps(obj))
    return UnknownConstraint(type_tag=tag, body=canonical_dumps(obj))


def _reference_keys(obj: dict, required: set, optional: set) -> None:
    keys = set(obj.keys())
    if not required.issubset(keys) or not keys.issubset(required | optional):
        raise ValueParseError(f"constraint keys {sorted(keys)} do not fit the declared type")


def reference_constraint_to_dict(constraint) -> dict:
    """One hand-written writer per constraint family; optional members that
    are None are left out, and an unknown constraint is its preserved body."""
    c = constraint
    if isinstance(c, NumericLimitConstraint):
        body = {"type": "NumericLimitConstraint", "field": c.field, "operator": c.operator,
                "value": format(c.value, "f")}
        if c.currency is not None:
            body["currency"] = c.currency
        if c.unit is not None:
            body["unit"] = c.unit
        return body
    if isinstance(c, TemporalWindowConstraint):
        body = {"type": "TemporalWindowConstraint", "field": c.field,
                "valid_from": render_timestamp(c.valid_from),
                "valid_until": render_timestamp(c.valid_until), "timezone": c.timezone}
        if c.allowed_days is not None:
            body["allowed_days"] = sorted(c.allowed_days)
        return body
    if isinstance(c, EnumeratedListConstraint):
        body = {"type": "EnumeratedListConstraint", "field": c.field}
        if c.allowed is not None:
            body["allowed"] = sorted(c.allowed)
        if c.denied is not None:
            body["denied"] = sorted(c.denied)
        return body
    if isinstance(c, StringPatternConstraint):
        return {"type": "StringPatternConstraint", "field": c.field, "match": c.match,
                "pattern": c.pattern}
    if isinstance(c, CumulativeLimitConstraint):
        body = {"type": "CumulativeLimitConstraint", "field": c.field,
                "budget": format(c.budget, "f"), "period": c.period.to_dict(),
                "state_authority_pointer": c.state_authority_pointer}
        if c.currency is not None:
            body["currency"] = c.currency
        return body
    assert isinstance(c, UnknownConstraint)
    return json.loads(c.body)


def reference_has_duplicates(constraints) -> bool:
    """The duplicate-constraint verdict as ``validate_payload`` first judged
    it: two constraints are duplicates when the reprs of their sorted written
    members are equal."""
    rendered = [repr(sorted(c.to_dict().items())) for c in constraints]
    return len(set(rendered)) < len(rendered)


def _calendar_bucket(unit: str, at):
    day = at.astimezone(timezone.utc).date()
    if unit == "day":
        return day
    if unit == "week":
        return day.isocalendar()[:2]
    return day.year, day.month


class ReferenceLedger:
    """A reserve ledger as the list of its admitted rows.

    A request sees the sum of the rows on its key and period kind in its
    bucket: every per-credential row; the calendar rows in the same UTC day,
    ISO week or month as ``now``; the rolling rows timestamped at or after
    ``now - window``, whenever they arrived.  The budget is inclusive.
    """

    def __init__(self) -> None:
        self.rows: list = []  # (key, period, timestamp, amount)

    def _sees(self, row, key, period, now) -> bool:
        row_key, row_period, at, _ = row
        if row_key != key or row_period.kind != period.kind:
            return False
        if period.kind == "rolling":
            return at >= now - timedelta(seconds=period.duration_seconds)
        if period.kind == "calendar":
            unit = period.calendar_unit
            return row_period.calendar_unit == unit and _calendar_bucket(unit, at) == _calendar_bucket(unit, now)
        return True

    def spent(self, key, period, now) -> Decimal:
        return sum((row[3] for row in self.rows if self._sees(row, key, period, now)), Decimal(0))

    def reserve(self, key, amount, budget, period, now):
        """The new total, or None when the spend would pass the budget."""
        total = self.spent(key, period, now) + amount
        if total > budget:
            return None
        self.rows.append((key, period, now, amount))
        return total


# --- delegation narrowing, frozen --------------------------------------------------

_REFERENCE_FAMILIES = {
    NumericLimitConstraint: "numeric_limit",
    TemporalWindowConstraint: "temporal_window",
    EnumeratedListConstraint: "enumerated_list",
    StringPatternConstraint: "string_pattern",
    CumulativeLimitConstraint: "cumulative_limit",
}


def reference_check_attenuation(child_constraints, parent_constraints):
    """``constraints.check_attenuation`` and its five narrowing checks as
    they read before their rewrite: unknown constraints first (child, then
    parent), then each parent (field, family) group in sorted order, judged
    against the child's group of the same key.  Returns (ok, detail)."""
    for where, constraints in (("child", child_constraints), ("parent", parent_constraints)):
        for constraint in constraints:
            if isinstance(constraint, UnknownConstraint):
                return False, (
                    f"{where} carries unknown constraint type {constraint.type_tag!r}; "
                    "narrowing cannot be verified"
                )
    child_groups = _reference_group(child_constraints)
    parent_groups = _reference_group(parent_constraints)
    narrows = {
        "numeric_limit": _reference_narrows_numeric,
        "temporal_window": _reference_narrows_temporal,
        "enumerated_list": _reference_narrows_enumerated,
        "string_pattern": _reference_narrows_pattern,
        "cumulative_limit": _reference_narrows_cumulative,
    }
    for key in sorted(parent_groups):
        field_name, family = key
        label = f"{family} on {field_name}"
        if key not in child_groups:
            return False, f"child omits {label}; omission widens"
        ok, detail = narrows[family](child_groups[key], parent_groups[key])
        if not ok:
            return False, f"{label}: {detail}"
    return True, ""


def _reference_group(constraints) -> dict:
    groups: dict = {}
    for constraint in constraints:
        groups.setdefault((constraint.field, _REFERENCE_FAMILIES[type(constraint)]), []).append(constraint)
    return groups


def _reference_numeric_interval(group):
    lo = hi = None
    lo_closed = hi_closed = True
    for c in group:
        if c.operator in ("gt", "gte", "eq"):
            closed = c.operator != "gt"
            if lo is None or c.value > lo or (c.value == lo and lo_closed and not closed):
                lo, lo_closed = c.value, closed
        if c.operator in ("lt", "lte", "eq"):
            closed = c.operator != "lt"
            if hi is None or c.value < hi or (c.value == hi and hi_closed and not closed):
                hi, hi_closed = c.value, closed
    return lo, lo_closed, hi, hi_closed


def _reference_interval_empty(lo, lo_closed, hi, hi_closed) -> bool:
    if lo is None or hi is None:
        return False
    if lo > hi:
        return True
    return lo == hi and not (lo_closed and hi_closed)


def _reference_narrows_numeric(child_group, parent_group):
    parent_sigs = {(c.currency, c.unit) for c in parent_group}
    child_sigs = {(c.currency, c.unit) for c in child_group}
    if len(parent_sigs) > 1 or len(child_sigs) > 1:
        return False, "mixed currencies or units are incomparable"
    parent_sig = next(iter(parent_sigs))
    child_sig = next(iter(child_sigs))
    if parent_sig != (None, None) and child_sig != parent_sig:
        return False, f"currency/unit {child_sig} does not preserve parent {parent_sig}"
    p_lo, p_lc, p_hi, p_hc = _reference_numeric_interval(parent_group)
    c_lo, c_lc, c_hi, c_hc = _reference_numeric_interval(child_group)
    if _reference_interval_empty(c_lo, c_lc, c_hi, c_hc):
        return True, ""
    if _reference_interval_empty(p_lo, p_lc, p_hi, p_hc):
        return False, "parent interval is empty but child is satisfiable"
    if p_lo is not None:
        if c_lo is None or c_lo < p_lo or (c_lo == p_lo and c_lc and not p_lc):
            return False, "lower bound widened"
    if p_hi is not None:
        if c_hi is None or c_hi > p_hi or (c_hi == p_hi and c_hc and not p_hc):
            return False, "upper bound widened"
    return True, ""


def _reference_window(group):
    return max(c.valid_from for c in group), min(c.valid_until for c in group)


def _reference_combined_days(group):
    days = frozenset(WEEKDAYS)
    for c in group:
        if c.allowed_days is not None:
            days = days & c.allowed_days
    return days


def _reference_narrows_temporal(child_group, parent_group):
    day_gated = any(c.allowed_days is not None for c in list(child_group) + list(parent_group))
    if day_gated:
        zones = {c.timezone for c in list(child_group) + list(parent_group)}
        if len(zones) > 1:
            return False, "day-of-week narrowing requires identical timezones"
    p_from, p_until = _reference_window(parent_group)
    c_from, c_until = _reference_window(child_group)
    if c_from > c_until:
        return True, ""
    if p_from > p_until:
        return False, "parent window is empty but child is satisfiable"
    if c_from < p_from or c_until > p_until:
        return False, "window widened"
    if not _reference_combined_days(child_group).issubset(_reference_combined_days(parent_group)):
        return False, "allowed days widened"
    return True, ""


def _reference_combined_allowed(group):
    present = [c.allowed for c in group if c.allowed is not None]
    if not present:
        return None
    combined = present[0]
    for s in present[1:]:
        combined = combined & s
    return combined


def _reference_combined_denied(group):
    combined = frozenset()
    for c in group:
        if c.denied is not None:
            combined = combined | c.denied
    return combined


def _reference_narrows_enumerated(child_group, parent_group):
    p_allowed = _reference_combined_allowed(parent_group)
    c_allowed = _reference_combined_allowed(child_group)
    p_denied = _reference_combined_denied(parent_group)
    c_denied = _reference_combined_denied(child_group)
    if p_allowed is not None:
        if c_allowed is None:
            return False, "parent restricts to an allowed set, child allows anything"
        if not c_allowed.issubset(p_allowed):
            return False, f"allowed set gained {sorted(c_allowed - p_allowed)}"
    if p_denied:
        if not p_denied.issubset(c_denied):
            return False, f"denied set dropped {sorted(p_denied - c_denied)}"
    return True, ""


def _reference_narrows_pattern(child_group, parent_group):
    for c in list(child_group) + list(parent_group):
        if c.match != "restricted_glob" and "*" in c.pattern:
            return False, f"literal '*' in {c.match} pattern cannot be compared"
    parents = [normalize_pattern(c) for c in parent_group]
    children = [normalize_pattern(c) for c in child_group]
    for p in parents:
        if not any(pattern_subsumes(p, c) for c in children):
            return False, f"no child pattern stays within parent pattern {p!r}"
    for c in children:
        if not any(pattern_subsumes(p, c) for p in parents):
            return False, f"child pattern {c!r} escapes every parent pattern"
    return True, ""


def _reference_narrows_cumulative(child_group, parent_group):
    p_sigs = {(c.currency, c.period, c.state_authority_pointer) for c in parent_group}
    c_sigs = {(c.currency, c.period, c.state_authority_pointer) for c in child_group}
    if len(p_sigs) > 1 or len(c_sigs) > 1:
        return False, "mixed cumulative accounting terms are incomparable"
    if p_sigs != c_sigs:
        return False, "currency, period, and state authority must be preserved"
    if min(c.budget for c in child_group) > min(c.budget for c in parent_group):
        return False, "budget raised"
    return True, ""


# --- the timestamp reader, frozen ----------------------------------------------

_REFERENCE_DATE_TIME = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}[Tt][0-9]{2}:[0-9]{2}:[0-9]{2}(?:\.([0-9]+))?"
    r"(?:[Zz]|([+-](?:[01][0-9]|2[0-3]):[0-5][0-9]))"
)
_REFERENCE_TWO_DIGITS = {f"{n:02}": n for n in range(100)}


def reference_parse_timestamp(text: str) -> datetime:
    """``model.parse_timestamp`` as it read before it built a ``Z`` instant
    directly in UTC: every instant is built in its own zone, then converted."""
    match = _REFERENCE_DATE_TIME.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueParseError(f"timestamp {text!r} is not RFC 3339 date-time text")
    fraction, offset = match.groups()
    microsecond = int(fraction[:6].ljust(6, "0")) if fraction else 0
    zone = parse_offset(offset) if offset else timezone.utc
    digits = _REFERENCE_TWO_DIGITS
    try:
        return datetime(
            int(text[:4]), digits[text[5:7]], digits[text[8:10]], digits[text[11:13]],
            digits[text[14:16]], digits[text[17:19]], microsecond, zone,
        ).astimezone(timezone.utc)
    except (ValueError, OverflowError) as exc:
        raise ValueParseError(f"invalid timestamp {text!r}: {exc}") from exc
