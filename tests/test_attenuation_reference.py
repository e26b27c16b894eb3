"""Delegation narrowing against its frozen first reading.

``check_attenuation`` must give the verdict and the detail string that
``oracles.reference_check_attenuation`` gives, byte for byte, for any pair of
constraint lists: all five families, unknown constraints, mixed currencies
and units, day gates across timezones, literal stars in non-glob patterns and
groups whose joint interval or window is empty.  A child is drawn partly from
its parent's constraints, so both verdicts are common.
"""

from datetime import datetime, timedelta, timezone
from decimal import Decimal

from hypothesis import given, settings
from hypothesis import strategies as st

from mandate.constraints import (
    PATTERN_MODES,
    WEEKDAYS,
    CumulativeLimitConstraint,
    EnumeratedListConstraint,
    NumericLimitConstraint,
    Period,
    StringPatternConstraint,
    TemporalWindowConstraint,
    UnknownConstraint,
    check_attenuation,
)

from oracles import reference_check_attenuation

DECIMALS = st.sampled_from(["-3", "0", "5", "10", "10.0", "20"]).map(Decimal)
SIGNATURES = st.sampled_from([(None, None), ("USD", None), ("EUR", None), (None, "kg"), (None, "lb")])
_INSTANTS = [datetime(2026, month, 1, tzinfo=timezone.utc) for month in (1, 3, 6, 9)]
_DAYS = [None, frozenset(WEEKDAYS[:5]), frozenset(WEEKDAYS[:1]), frozenset(WEEKDAYS[5:]), frozenset(WEEKDAYS)]
_NAMES = [None, frozenset("x"), frozenset("xy"), frozenset("yz"), frozenset("xyz")]
_PERIODS = [
    Period(kind="per_credential"),
    Period(kind="rolling", duration_seconds=60),
    Period(kind="calendar", calendar_unit="day"),
]
_UNKNOWN = [
    UnknownConstraint(type_tag="Mystery", body='{"type":"Mystery"}'),
    UnknownConstraint(type_tag="NumericLimitConstraint", body='{"type":"NumericLimitConstraint"}'),
]


def numeric(field):
    return st.builds(
        lambda operator, value, signature: NumericLimitConstraint(field, operator, value, *signature),
        st.sampled_from(["eq", "lt", "lte", "gt", "gte"]), DECIMALS, SIGNATURES,
    )


def temporal(field):
    return st.builds(
        lambda bounds, extra, zone, days: TemporalWindowConstraint(
            field, min(bounds), max(bounds) + timedelta(seconds=extra), zone, days
        ),
        st.tuples(st.sampled_from(_INSTANTS), st.sampled_from(_INSTANTS)),
        st.sampled_from([0, 1]),
        st.sampled_from(["UTC", "+02:00", "Europe/Paris", "Nowhere/Zone"]),
        st.sampled_from(_DAYS),
    )


def enumerated(field):
    return (
        st.tuples(st.sampled_from(_NAMES), st.sampled_from(_NAMES))
        .filter(lambda lists: lists != (None, None))
        .map(lambda lists: EnumeratedListConstraint(field, *lists))
    )


def pattern(field):
    return st.builds(
        lambda mode, text: StringPatternConstraint(field, mode, text),
        st.sampled_from(PATTERN_MODES),
        st.sampled_from(["x", "xy", "x*", "*x", "x*y", "x**y", "*", "**", "a*b*c", "ab*c", "a*bc"]),
    )


def cumulative(field):
    return st.builds(
        lambda budget, pointer, period, currency: CumulativeLimitConstraint(field, budget, pointer, period, currency),
        st.sampled_from(["5", "10", "10.0"]).map(Decimal),
        st.sampled_from(["p1", "p2"]),
        st.sampled_from(_PERIODS),
        st.sampled_from([None, "USD"]),
    )


# One strategy per (field, family), built once: a child redraws a parent
# constraint from the strategy that drew it.
DRAWN = {
    (field, cls): family(field)
    for field in ("a", "b")
    for cls, family in (
        (NumericLimitConstraint, numeric),
        (TemporalWindowConstraint, temporal),
        (EnumeratedListConstraint, enumerated),
        (StringPatternConstraint, pattern),
        (CumulativeLimitConstraint, cumulative),
    )
}
constraint = st.one_of(*DRAWN.values())


@st.composite
def delegations(draw):
    """A parent list and a child that keeps, redraws (same field and family)
    or drops each parent constraint, plus a few of its own; one list in
    twenty of either carries an unknown constraint."""
    parent = draw(st.lists(constraint, max_size=4))
    child = []
    for c in parent:
        action = draw(st.sampled_from(["keep", "redraw", "both", "drop", "keep", "redraw"]))
        if action in ("keep", "both"):
            child.append(c)
        if action in ("redraw", "both"):
            child.append(draw(DRAWN[c.field, type(c)]))
    child = draw(st.permutations(child + draw(st.lists(constraint, max_size=2))))
    for side in (child, parent):
        if draw(st.integers(0, 19)) == 19:
            side.insert(draw(st.integers(0, len(side))), draw(st.sampled_from(_UNKNOWN)))
    return child, parent


@settings(max_examples=2000, deadline=None)
@given(delegations())
def test_narrowing_agrees_with_its_frozen_reading(pair):
    child, parent = pair
    assert check_attenuation(child, parent) == reference_check_attenuation(child, parent)
    assert check_attenuation(tuple(child), tuple(parent)) == reference_check_attenuation(child, parent)
