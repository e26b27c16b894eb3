"""Typed constraint algebra: evaluation and delegation attenuation.

Constraints are data, not code.  A receiver evaluates them conjunctively
against its own typed context; there is no expression language, no regular
expressions, and no constraint that can widen what a credential grants.

Every operation here is total and fails toward denial: a type mismatch, an
unrecognized constraint, an unresolvable timezone, or any uncertainty in a
containment check counts as a failure, never as a pass.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from decimal import Decimal
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence, Union
from zoneinfo import ZoneInfo

from .canonical import canonical_dumps, load_json
from .model import (
    NUMERIC_KINDS,
    STRING_KINDS,
    SemanticType,
    TypedValue,
    ValueParseError,
    expect,
    expect_list,
    parse_decimal,
    parse_offset,
    parse_timestamp,
    render_timestamp,
)

NUMERIC_OPERATORS = ("eq", "lt", "lte", "gt", "gte")
PATTERN_MODES = ("exact", "prefix", "suffix", "restricted_glob")
WEEKDAYS = ("monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday")
PERIOD_KINDS = ("per_credential", "rolling", "calendar")
CALENDAR_UNITS = ("day", "week", "month")


class ConstraintError(ValueParseError):
    """Raised when a constraint value itself is malformed at construction."""


# --- constraint types -------------------------------------------------------

class _Written:
    """A typed family's wire form, written through its row in ``_FAMILIES``:
    required members always, optional members only when they are not None."""

    def duplicate_key(self) -> tuple:
        """Equal for two constraints exactly when their wire forms are: the
        family's tag and its typed members, a decimal keyed by the digits it
        is written with (``1000`` and ``1000.0`` differ, ``+5`` and ``5`` do not).
        ``constraint_from_dict`` builds it as it reads the members."""
        key = self.__dict__.get("_duplicate_key")
        if key is None:
            row = _BY_CLASS[type(self)]
            key = _duplicate_key(row, [getattr(self, name) for name in row.names])
        return key

    def to_dict(self) -> dict:
        row = _BY_CLASS[type(self)]
        body: dict = {"type": row.tag}
        for name, (_, write) in row.required.items():
            body[name] = write(getattr(self, name))
        for name, (_, write) in row.optional.items():
            value = getattr(self, name)
            if value is not None:
                body[name] = write(value)
        return body


@dataclass(frozen=True)
class NumericLimitConstraint(_Written):
    """Bound a numeric context field: eq/lt/lte/gt/gte against an exact decimal."""

    field: str
    operator: str
    value: Decimal
    currency: Optional[str] = None
    unit: Optional[str] = None

    def __post_init__(self) -> None:
        if self.operator not in NUMERIC_OPERATORS:
            raise ConstraintError(f"unknown numeric operator {self.operator!r}")
        if not isinstance(self.value, Decimal) or not self.value.is_finite():
            raise ConstraintError("numeric limit requires a finite decimal value")
        if self.currency is not None and self.unit is not None:
            raise ConstraintError("currency and unit are mutually exclusive")


@dataclass(frozen=True)
class TemporalWindowConstraint(_Written):
    """Restrict when an action may happen: an inclusive instant window, optionally day-gated.

    The window bounds are absolute instants, so containment does not depend on
    the zone; the timezone only decides which local calendar day an instant
    falls on for the allowed_days test.
    """

    field: str
    valid_from: datetime
    valid_until: datetime
    timezone: str = "UTC"
    allowed_days: Optional[frozenset[str]] = None

    def __post_init__(self) -> None:
        if self.valid_from.tzinfo is None or self.valid_until.tzinfo is None:
            raise ConstraintError("temporal window bounds must be absolute instants")
        if self.valid_from > self.valid_until:
            raise ConstraintError("temporal window is empty: valid_from after valid_until")
        if self.allowed_days is not None:
            if not self.allowed_days:
                raise ConstraintError("allowed_days must be non-empty when present")
            bad = self.allowed_days - set(WEEKDAYS)
            if bad:
                raise ConstraintError(f"unknown weekday names: {sorted(bad)}")


@dataclass(frozen=True)
class EnumeratedListConstraint(_Written):
    """Membership constraint over closed string sets.  A value on both lists is denied."""

    field: str
    allowed: Optional[frozenset[str]] = None
    denied: Optional[frozenset[str]] = None

    def __post_init__(self) -> None:
        if self.allowed is None and self.denied is None:
            raise ConstraintError("enumerated list requires allowed or denied")
        if self.allowed is not None and not self.allowed:
            raise ConstraintError("allowed set must be non-empty when present")
        if self.denied is not None and not self.denied:
            raise ConstraintError("denied set must be non-empty when present")


@dataclass(frozen=True)
class StringPatternConstraint(_Written):
    """Anchored string matching: exact, prefix, suffix, or a restricted glob.

    The glob language has a single metacharacter, ``*``, matching zero or more
    characters.  No character classes, alternation, grouping, backreferences,
    or lookaround; every other character is a literal.
    """

    field: str
    match: str
    pattern: str

    # The pattern as a restricted glob with its stars collapsed, for narrowing.
    glob: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.match not in PATTERN_MODES:
            raise ConstraintError(f"unknown pattern mode {self.match!r}")
        object.__setattr__(self, "glob", normalize_pattern(self))


@dataclass(frozen=True)
class Period:
    """Accounting window for a cumulative limit."""

    kind: str
    duration_seconds: Optional[int] = None
    calendar_unit: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in PERIOD_KINDS:
            raise ConstraintError(f"unknown period kind {self.kind!r}")
        if self.kind == "rolling":
            if type(self.duration_seconds) is not int or self.duration_seconds <= 0:
                raise ConstraintError("rolling period requires a positive duration in seconds")
        elif self.duration_seconds is not None:
            raise ConstraintError("duration_seconds only applies to rolling periods")
        if self.kind == "calendar":
            if self.calendar_unit not in CALENDAR_UNITS:
                raise ConstraintError(f"unknown calendar unit {self.calendar_unit!r}")
        elif self.calendar_unit is not None:
            raise ConstraintError("calendar_unit only applies to calendar periods")

    def to_dict(self) -> dict:
        body: dict = {"kind": self.kind}
        if self.duration_seconds is not None:
            body["seconds"] = self.duration_seconds
        if self.calendar_unit is not None:
            body["unit"] = self.calendar_unit
        return body

    @staticmethod
    def from_dict(obj: dict) -> "Period":
        if not isinstance(obj, dict) or not obj.keys() <= _PERIOD_MEMBERS:
            raise ConstraintError("period must be an object of kind, seconds and unit only")
        return _period(
            expect(obj, "kind", str),
            expect(obj, "seconds", int, optional=True),
            expect(obj, "unit", str, optional=True),
        )


# Periods are few and recur in every ledger row, so equal ones share one checked instance.
_period = lru_cache(maxsize=64)(Period)
_PERIOD_MEMBERS = frozenset({"kind", "seconds", "unit"})


@dataclass(frozen=True)
class CumulativeLimitConstraint(_Written):
    """Cap the running total of a numeric field across evaluations.

    Unlike the stateless families this cannot be decided from one request
    alone; the state_authority_pointer names the component that keeps the
    authoritative running total.  The pointer is part of the constraint so a
    delegate cannot redirect accounting to a friendlier ledger.
    """

    field: str
    budget: Decimal
    state_authority_pointer: str
    period: Period = Period(kind="per_credential")
    currency: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.budget, Decimal) or not self.budget.is_finite() or self.budget <= 0:
            raise ConstraintError("cumulative limit requires a positive decimal budget")
        if not self.state_authority_pointer:
            raise ConstraintError("cumulative limit requires a state authority pointer")


@dataclass(frozen=True)
class UnknownConstraint:
    """A constraint this engine does not understand, preserved byte-exactly.

    It always fails evaluation and always blocks attenuation: a grant that
    cannot be interpreted must not be enforced as wider than intended.
    """

    type_tag: str
    body: str  # canonical serialization of the original object

    def duplicate_key(self) -> tuple:
        """Its canonical body, which no typed family's key equals."""
        return (None, self.body)

    def to_dict(self) -> dict:
        return load_json(self.body)


Constraint = Union[
    NumericLimitConstraint,
    TemporalWindowConstraint,
    EnumeratedListConstraint,
    StringPatternConstraint,
    CumulativeLimitConstraint,
    UnknownConstraint,
]

# --- timezone resolution ----------------------------------------------------

def resolve_timezone(name: str):
    """IANA zone name or fixed ±HH:MM offset to a tzinfo; None when unresolvable."""
    if name == "UTC":
        return timezone.utc
    try:
        return parse_offset(name) or ZoneInfo(name)
    except Exception:
        return None


# --- evaluation -------------------------------------------------------------

def evaluate_constraint(
    constraint: Constraint,
    value: Optional[TypedValue],
    context_currency: Optional[str] = None,
) -> tuple[bool, str]:
    """Evaluate one constraint against one resolved context value.

    Returns (passed, detail).  Type mismatches fail rather than coerce; a
    currency-qualified limit fails when the context currency is absent or
    different.  Units on numeric limits are declarative: the context carries
    no unit channel, so they are not checked here, only carried.
    """
    if value is None:
        return False, "no value to evaluate"

    if isinstance(constraint, NumericLimitConstraint):
        if value.kind not in NUMERIC_KINDS:
            return False, f"field {constraint.field} is {value.kind.value}, not numeric"
        if constraint.currency is not None and context_currency != constraint.currency:
            return False, (
                f"constraint currency {constraint.currency} does not match "
                f"context currency {context_currency or '(absent)'}"
            )
        actual = value.as_decimal()
        limit = constraint.value
        passed = {
            "eq": actual == limit,
            "lt": actual < limit,
            "lte": actual <= limit,
            "gt": actual > limit,
            "gte": actual >= limit,
        }[constraint.operator]
        if passed:
            return True, ""
        return False, f"{format(actual, 'f')} violates {constraint.operator} {format(limit, 'f')}"

    if isinstance(constraint, TemporalWindowConstraint):
        if value.kind is not SemanticType.TIMESTAMP:
            return False, f"field {constraint.field} is {value.kind.value}, not a timestamp"
        zone = resolve_timezone(constraint.timezone)
        if zone is None:
            return False, f"unresolvable timezone {constraint.timezone!r}"
        instant: datetime = value.value  # type: ignore[assignment]
        if not (constraint.valid_from <= instant <= constraint.valid_until):
            return False, f"{render_timestamp(instant)} outside window"
        if constraint.allowed_days is not None:
            day = WEEKDAYS[instant.astimezone(zone).weekday()]
            if day not in constraint.allowed_days:
                return False, f"{day} not among allowed days"
        return True, ""

    if isinstance(constraint, EnumeratedListConstraint):
        if value.kind not in STRING_KINDS:
            return False, f"field {constraint.field} is {value.kind.value}, not a string"
        text = value.text
        if constraint.denied is not None and text in constraint.denied:
            return False, f"{text!r} is explicitly denied"
        if constraint.allowed is not None and text not in constraint.allowed:
            return False, f"{text!r} not in allowed set"
        return True, ""

    if isinstance(constraint, StringPatternConstraint):
        if value.kind not in STRING_KINDS:
            return False, f"field {constraint.field} is {value.kind.value}, not a string"
        text = value.text
        mode, pattern = constraint.match, constraint.pattern
        if mode == "exact":
            ok = text == pattern
        elif mode == "prefix":
            ok = text.startswith(pattern)
        elif mode == "suffix":
            ok = text.endswith(pattern)
        else:
            ok = glob_match(pattern, text)
        if ok:
            return True, ""
        return False, f"{text!r} does not match {mode} pattern {pattern!r}"

    if isinstance(constraint, CumulativeLimitConstraint):
        return False, "cumulative limits require stateful evaluation"

    return False, f"unrecognized constraint type {getattr(constraint, 'type_tag', '?')!r}"


# --- restricted glob matching and containment --------------------------------

def glob_match(pattern: str, text: str) -> bool:
    """Anchored match where ``*`` matches zero or more characters.

    The literal segments between stars are matched in order: the first as a
    prefix, the last as a suffix, and each one between at its leftmost place
    after the one before (the rule ``pattern_subsumes`` uses).  Leftmost is
    never wrong, since a star can absorb whatever lies before a later place,
    so nothing is retried: at most O(len(pattern) * len(text)).
    """
    if "*" not in pattern:
        return pattern == text
    head, *middles, tail = pattern.split("*")
    end = len(text) - len(tail)
    if end < len(head) or not text.startswith(head) or not text.endswith(tail):
        return False
    position = len(head)
    for middle in middles:
        found = text.find(middle, position, end)
        if found < 0:
            return False
        position = found + len(middle)
    return True


def normalize_pattern(constraint: StringPatternConstraint) -> str:
    """Express any pattern mode as a restricted glob, collapsing repeated stars.

    Only faithful when exact/prefix/suffix patterns carry no literal ``*``;
    callers comparing pattern languages must guard that case themselves.
    """
    mode, pattern = constraint.match, constraint.pattern
    if mode == "exact":
        glob = pattern
    elif mode == "prefix":
        glob = pattern + "*"
    elif mode == "suffix":
        glob = "*" + pattern
    else:
        glob = pattern
    return _collapse_stars(glob)


def _collapse_stars(glob: str) -> str:
    return re.sub(r"\*{2,}", "*", glob) if "**" in glob else glob


def pattern_subsumes(parent: str, child: str) -> bool:
    """True iff every string matched by ``child`` is matched by ``parent``.

    Both arguments are restricted globs.  A star-free child is a single
    string, so containment reduces to matching it against the parent.  With
    stars on both sides, containment holds iff the parent's leading literal is
    a prefix of the child's, its trailing literal is a suffix, and its middle
    literals embed in order, disjointly, into the child's literal segments
    (star gaps can always be filled with characters that defeat any literal
    forced to straddle them).  Greedy leftmost embedding decides that exactly.

    That is ``glob_match`` of the parent against the child read as text, its
    stars as characters: no parent literal holds a star, so none is placed
    across one of the child's, and a star-free parent matches only itself.
    """
    return glob_match(_collapse_stars(parent), _collapse_stars(child))


# --- attenuation ------------------------------------------------------------

def check_attenuation(
    child_constraints: Sequence[Constraint],
    parent_constraints: Sequence[Constraint],
) -> tuple[bool, str]:
    """Verify a delegated constraint list only tightens its parent.

    Narrowing is judged on satisfying sets per (field, family) group: the
    child may add constraints freely, but every group the parent constrains
    must exist in the child with a subset of the parent's satisfying set.
    Dropping a parent constraint widens by omission.  Anything that cannot be
    compared (unknown constraint types, mixed currencies, differing timezones
    under day gating, literal stars in non-glob patterns) is widened.

    Returns (ok, detail); detail names the first violation found, unknown
    constraints (child, then parent) before the groups in sorted order.
    """
    sides = []
    for where, constraints in (("child", child_constraints), ("parent", parent_constraints)):
        groups: dict = {}
        for constraint in constraints:
            if isinstance(constraint, UnknownConstraint):
                return False, (
                    f"{where} carries unknown constraint type {constraint.type_tag!r}; "
                    "narrowing cannot be verified"
                )
            groups.setdefault((constraint.field, _BY_CLASS[type(constraint)].name), []).append(constraint)
        sides.append(groups)
    child_groups, parent_groups = sides
    for key in sorted(parent_groups):
        parent_group = parent_groups[key]
        child_group = child_groups.get(key)
        if child_group is None:
            return False, f"child omits {key[1]} on {key[0]}; omission widens"
        defect = _BY_CLASS[type(parent_group[0])].narrows(child_group, parent_group)
        if defect is not None:
            return False, f"{key[1]} on {key[0]}: {defect}"
    return True, ""


def joint_conflict(group: Sequence[Constraint]) -> Optional[str]:
    """A reason the conjunction of same-field constraints can never hold, or None.

    Built from the reducers attenuation uses, and conservative: it decides
    numeric limits (with currency), instant windows, weekday gates under one
    timezone, and enumerations.  Anything it cannot prove empty (patterns,
    cumulative limits, day gates across timezones) stays in force as a
    conjunction at evaluation time.
    """
    numeric = [c for c in group if isinstance(c, NumericLimitConstraint)]
    windows = [c for c in group if isinstance(c, TemporalWindowConstraint)]
    enums = [c for c in group if isinstance(c, EnumeratedListConstraint)]
    currencies = {c.currency for c in numeric if c.currency is not None}
    if len(currencies) > 1:
        return f"limits pin different currencies {sorted(currencies)}"
    if _interval_empty(*_numeric_interval(numeric)):
        return "joint numeric bounds admit no value"
    if windows:
        start, end = _window(windows)
        if start > end:
            return "joint temporal windows do not overlap"
        gated_zones = {c.timezone for c in windows if c.allowed_days is not None}
        if len(gated_zones) <= 1 and not _combined_days(windows):
            return "joint day gates admit no weekday"
    allowed = _combined_allowed(enums)
    if allowed is not None and not allowed - _combined_denied(enums):
        return "joint enumerations admit no value"
    return None


def _numeric_interval(group: Sequence[NumericLimitConstraint]):
    """Intersect a group's bounds into one interval: (lo, lo_closed, hi, hi_closed)."""
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


def _interval_empty(lo, lo_closed, hi, hi_closed) -> bool:
    if lo is None or hi is None:
        return False
    if lo > hi:
        return True
    return lo == hi and not (lo_closed and hi_closed)


# Each narrowing check takes a (field, family) group of the child and of the
# parent, as lists: None when the child's narrows the parent's, else the defect.

def _narrows_numeric(child_group: list, parent_group: list) -> Optional[str]:
    parent_sigs = {(c.currency, c.unit) for c in parent_group}
    child_sigs = {(c.currency, c.unit) for c in child_group}
    if len(parent_sigs) > 1 or len(child_sigs) > 1:
        return "mixed currencies or units are incomparable"
    (parent_sig,), (child_sig,) = parent_sigs, child_sigs
    if parent_sig != (None, None) and child_sig != parent_sig:
        return f"currency/unit {child_sig} does not preserve parent {parent_sig}"
    p_lo, p_lc, p_hi, p_hc = _numeric_interval(parent_group)
    c_lo, c_lc, c_hi, c_hc = _numeric_interval(child_group)
    if _interval_empty(c_lo, c_lc, c_hi, c_hc):
        return None
    if _interval_empty(p_lo, p_lc, p_hi, p_hc):
        return "parent interval is empty but child is satisfiable"
    if p_lo is not None and (c_lo is None or c_lo < p_lo or (c_lo == p_lo and c_lc and not p_lc)):
        return "lower bound widened"
    if p_hi is not None and (c_hi is None or c_hi > p_hi or (c_hi == p_hi and c_hc and not p_hc)):
        return "upper bound widened"
    return None


def _narrows_temporal(child_group: list, parent_group: list) -> Optional[str]:
    both = child_group + parent_group
    if any(c.allowed_days is not None for c in both) and len({c.timezone for c in both}) > 1:
        return "day-of-week narrowing requires identical timezones"
    p_from, p_until = _window(parent_group)
    c_from, c_until = _window(child_group)
    if c_from > c_until:
        return None
    if p_from > p_until:
        return "parent window is empty but child is satisfiable"
    if c_from < p_from or c_until > p_until:
        return "window widened"
    if not _combined_days(child_group) <= _combined_days(parent_group):
        return "allowed days widened"
    return None


def _window(group) -> tuple[datetime, datetime]:
    """Intersect a group's instant windows: (latest start, earliest end)."""
    return max(c.valid_from for c in group), min(c.valid_until for c in group)


def _combined_days(group) -> frozenset[str]:
    return frozenset(WEEKDAYS).intersection(*[c.allowed_days for c in group if c.allowed_days is not None])


def _narrows_enumerated(child_group: list, parent_group: list) -> Optional[str]:
    p_allowed = _combined_allowed(parent_group)
    if p_allowed is not None:
        c_allowed = _combined_allowed(child_group)
        if c_allowed is None:
            return "parent restricts to an allowed set, child allows anything"
        if not c_allowed <= p_allowed:
            return f"allowed set gained {sorted(c_allowed - p_allowed)}"
    denied = _combined_denied(parent_group)
    dropped = denied and denied - _combined_denied(child_group)
    if dropped:
        return f"denied set dropped {sorted(dropped)}"
    return None


def _combined_allowed(group) -> Optional[frozenset[str]]:
    present = [c.allowed for c in group if c.allowed is not None]
    return present[0].intersection(*present[1:]) if present else None


def _combined_denied(group) -> frozenset[str]:
    return frozenset().union(*[c.denied for c in group if c.denied is not None])


def _narrows_pattern(child_group: list, parent_group: list) -> Optional[str]:
    for c in child_group + parent_group:
        if c.match != "restricted_glob" and "*" in c.pattern:
            return f"literal '*' in {c.match} pattern cannot be compared"
    # Conjunctive semantics: the child's intersection must sit inside every
    # parent pattern, so each parent needs a child pattern under it, and each
    # child pattern must be under some parent.  Each (parent, child) pair is
    # judged once.
    covered = [False] * len(child_group)
    for p in parent_group:
        found = False
        for i, c in enumerate(child_group):
            if glob_match(p.glob, c.glob):  # pattern_subsumes of collapsed globs
                found = covered[i] = True
        if not found:
            return f"no child pattern stays within parent pattern {p.glob!r}"
    if False in covered:
        return f"child pattern {child_group[covered.index(False)].glob!r} escapes every parent pattern"
    return None


def _narrows_cumulative(child_group: list, parent_group: list) -> Optional[str]:
    p_sigs = {(c.currency, c.period, c.state_authority_pointer) for c in parent_group}
    c_sigs = {(c.currency, c.period, c.state_authority_pointer) for c in child_group}
    if len(p_sigs) > 1 or len(c_sigs) > 1:
        return "mixed cumulative accounting terms are incomparable"
    if p_sigs != c_sigs:
        return "currency, period, and state authority must be preserved"
    if min(c.budget for c in child_group) > min(c.budget for c in parent_group):
        return "budget raised"
    return None


# --- the wire form: one row per family -----------------------------------------

# A member's (reader, writer).  The reader takes the JSON value and raises
# ValueParseError on anything the family does not accept; the writer gives
# the JSON value back.  A text member's reader is ``str``: its value must be
# exactly a str, and is taken as it is.
_TEXT = (str, lambda text: text)
_DECIMAL = (parse_decimal, lambda value: format(value, "f"))
_INSTANT = (parse_timestamp, render_timestamp)
_NAMES = (lambda names: frozenset(expect_list(names, str)), sorted)
_PERIOD = (Period.from_dict, Period.to_dict)


@dataclass(frozen=True)
class _Family:
    """One constraint family: its wire tag, class and family name, its narrowing
    check, and its required and optional members in written order.  A missing
    or null optional member reads as None, and None is not written."""

    tag: str
    cls: type
    name: str
    narrows: Callable[[list, list], Optional[str]]
    required: dict
    optional: dict
    # Derived: the names a wire object must hold and may hold; each text
    # member's (name, required), then each other member's (name, reader,
    # required), in written order; and ``names``, every member's in that order.
    needed: frozenset = field(init=False)
    allowed: frozenset = field(init=False)
    texts: tuple = field(init=False)
    typed: tuple = field(init=False)
    names: tuple = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "needed", frozenset((*self.required, "type")))
        object.__setattr__(self, "allowed", self.needed | self.optional.keys())
        members = [(name, read, name in self.required) for name, (read, _) in {**self.required, **self.optional}.items()]
        object.__setattr__(self, "texts", tuple((name, required) for name, read, required in members if read is str))
        object.__setattr__(self, "typed", tuple((name, read, required) for name, read, required in members if read is not str))
        object.__setattr__(self, "names", tuple(name for name, *_ in (*self.texts, *self.typed)))

    def read(self, obj: dict) -> Optional[Constraint]:
        """The constraint ``obj`` writes, in one step: each member read, and
        its duplicate key built, in one pass; the object built as its
        ``__init__`` would build it.  None when ``obj`` does not fit this row."""
        if not self.needed <= obj.keys() <= self.allowed:
            return None
        members = {}
        for name, required in self.texts:
            value = obj.get(name)
            if type(value) is not str and (required or value is not None):
                return None
            members[name] = value
        key = [self.tag, *members.values()]  # the duplicate key, as ``_duplicate_key`` builds it
        try:
            for name, read, required in self.typed:
                value = obj.get(name)
                if required or value is not None:
                    value = read(value)
                    key.append(format(value, "f") if read is parse_decimal else value)
                else:
                    key.append(None)
                members[name] = value
            members["_duplicate_key"] = tuple(key)
            constraint = object.__new__(self.cls)
            object.__setattr__(constraint, "__dict__", members)
            constraint.__post_init__()
        except (ValueParseError, TypeError):
            return None
        return constraint


_FAMILIES = (
    _Family("NumericLimitConstraint", NumericLimitConstraint, "numeric_limit", _narrows_numeric,
            {"field": _TEXT, "operator": _TEXT, "value": _DECIMAL}, {"currency": _TEXT, "unit": _TEXT}),
    _Family("TemporalWindowConstraint", TemporalWindowConstraint, "temporal_window", _narrows_temporal,
            {"field": _TEXT, "valid_from": _INSTANT, "valid_until": _INSTANT, "timezone": _TEXT},
            {"allowed_days": _NAMES}),
    _Family("EnumeratedListConstraint", EnumeratedListConstraint, "enumerated_list", _narrows_enumerated,
            {"field": _TEXT}, {"allowed": _NAMES, "denied": _NAMES}),
    _Family("StringPatternConstraint", StringPatternConstraint, "string_pattern", _narrows_pattern,
            {"field": _TEXT, "match": _TEXT, "pattern": _TEXT}, {}),
    _Family("CumulativeLimitConstraint", CumulativeLimitConstraint, "cumulative_limit", _narrows_cumulative,
            {"field": _TEXT, "budget": _DECIMAL, "period": _PERIOD, "state_authority_pointer": _TEXT},
            {"currency": _TEXT}),
)
_BY_TAG = {row.tag: row for row in _FAMILIES}
_BY_CLASS = {row.cls: row for row in _FAMILIES}


def _duplicate_key(row: _Family, values: Iterable) -> tuple:
    """The duplicate key of a constraint of ``row`` whose member values, in
    ``row.names`` order, are ``values``."""
    return (row.tag, *[format(value, "f") if isinstance(value, Decimal) else value for value in values])


def family_of(constraint: Constraint) -> str:
    """The family name of a known constraint; an unknown one has none."""
    return _BY_CLASS[type(constraint)].name


def constraint_from_dict(obj: dict) -> Constraint:
    """Parse one serialized constraint through its family's row.

    A recognized type tag whose body does not parse exactly (missing members,
    unexpected extras, bad values) degrades to UnknownConstraint rather than
    guessing: the evaluator then denies with constraint_unknown instead of
    enforcing a meaning the issuer may not have intended.
    """
    tag = obj.get("type") if isinstance(obj, dict) else None
    if not isinstance(tag, str):
        raise ValueParseError("constraint must be an object with a string 'type'")
    row = _BY_TAG.get(tag)
    constraint = row.read(obj) if row is not None else None
    return constraint if constraint is not None else UnknownConstraint(tag, canonical_dumps(obj))


def unknown_constraint_detail(type_tag: str) -> str:
    """Why an UnknownConstraint of ``type_tag`` is denied: a known family
    whose body does not read, or a tag that no family has."""
    if type_tag in _BY_TAG:
        return f"constraint of known type {type_tag!r} has a body that does not read"
    return f"constraint type {type_tag!r} is not recognized"
