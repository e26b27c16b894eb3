"""Independent oracles the implementation is tested against.

These are deliberately naive and written before (and apart from) the engine
code: a recursive reference matcher for the restricted glob language,
language enumeration over a small alphabet for containment, per-value
membership tests for deciding whether a conjunction of limits admits
anything, a recursive walk that says which values canonical JSON refuses,
a branch-per-family reader and writer of the constraint wire form, and a
reserve ledger that keeps its admitted rows in a list and sums them afresh.
They are frozen; when engine and oracle disagree, the engine is
wrong until proven otherwise.
"""

from __future__ import annotations

import json
import operator
from datetime import timedelta, timezone
from decimal import Decimal
from functools import lru_cache
from itertools import product

from mandate.canonical import canonical_dumps
from mandate.constraints import (
    CumulativeLimitConstraint,
    EnumeratedListConstraint,
    NumericLimitConstraint,
    Period,
    StringPatternConstraint,
    TemporalWindowConstraint,
    UnknownConstraint,
)
from mandate.model import (
    SemanticType,
    ValueParseError,
    expect,
    expect_list,
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
