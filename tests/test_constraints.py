"""Constraint evaluation, serialization, glob containment, and attenuation."""

import time
from datetime import timedelta
from decimal import Decimal
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mandate.constraints import (
    NUMERIC_OPERATORS,
    ConstraintError,
    CumulativeLimitConstraint,
    EnumeratedListConstraint,
    NumericLimitConstraint,
    Period,
    StringPatternConstraint,
    TemporalWindowConstraint,
    UnknownConstraint,
    check_attenuation,
    constraint_from_dict,
    evaluate_constraint,
    glob_match,
    joint_conflict,
    normalize_pattern,
    pattern_subsumes,
    resolve_timezone,
)
from mandate.model import SemanticType, parse_timestamp, parse_typed_value

from oracles import (
    enumeration_admits,
    enumeration_subsumes,
    numeric_admits,
    reference_glob_match,
)


def dec(text):
    return parse_typed_value(text, SemanticType.DECIMAL)


def sid(text):
    return parse_typed_value(text, SemanticType.STRING_ID)


def ts(text):
    return parse_typed_value(text, SemanticType.TIMESTAMP)


# --- numeric limits ----------------------------------------------------------

def test_numeric_operators():
    cases = [
        ("eq", "100", "100", True),
        ("eq", "100", "100.00", True),  # decimal equality, not text equality
        ("lt", "100", "99.99", True),
        ("lt", "100", "100", False),
        ("lte", "100", "100", True),
        ("gt", "100", "100.01", True),
        ("gte", "100", "99", False),
    ]
    for operator, limit, actual, expected in cases:
        c = NumericLimitConstraint(field="core.amount", operator=operator, value=Decimal(limit))
        passed, detail = evaluate_constraint(c, dec(actual))
        assert passed is expected, (operator, limit, actual, detail)


def test_numeric_exact_decimal_comparison():
    # 0.1 + 0.2 style inputs must compare exactly, not as doubles.
    c = NumericLimitConstraint(field="core.amount", operator="lte", value=Decimal("0.3"))
    assert evaluate_constraint(c, dec("0.3"))[0]
    assert evaluate_constraint(c, dec("0.30000000000000004"))[0] is False


def test_numeric_currency_gate():
    c = NumericLimitConstraint(
        field="core.amount", operator="lte", value=Decimal("100"), currency="USD"
    )
    assert evaluate_constraint(c, dec("50"), context_currency="USD")[0]
    assert evaluate_constraint(c, dec("50"), context_currency="EUR")[0] is False
    assert evaluate_constraint(c, dec("50"), context_currency=None)[0] is False


def test_numeric_type_mismatch_fails():
    c = NumericLimitConstraint(field="core.amount", operator="lte", value=Decimal("100"))
    assert evaluate_constraint(c, sid("50"))[0] is False
    assert evaluate_constraint(c, None) == (False, "no value to evaluate")


def test_numeric_integer_context_value():
    c = NumericLimitConstraint(field="core.count", operator="lt", value=Decimal("10"))
    assert evaluate_constraint(c, parse_typed_value("9", SemanticType.INTEGER))[0]
    assert evaluate_constraint(c, parse_typed_value("10", SemanticType.INTEGER))[0] is False


def test_numeric_constructor_rejections():
    with pytest.raises(ConstraintError):
        NumericLimitConstraint(field="f", operator="ne", value=Decimal("1"))
    with pytest.raises(ConstraintError):
        NumericLimitConstraint(field="f", operator="lte", value=Decimal("NaN"))
    with pytest.raises(ConstraintError):
        NumericLimitConstraint(
            field="f", operator="lte", value=Decimal("1"), currency="USD", unit="kg"
        )


# --- temporal windows --------------------------------------------------------

def test_temporal_window_bounds_inclusive():
    c = TemporalWindowConstraint(
        field="core.request_time",
        valid_from=parse_timestamp("2026-03-01T00:00:00Z"),
        valid_until=parse_timestamp("2026-03-31T23:59:59Z"),
    )
    assert evaluate_constraint(c, ts("2026-03-01T00:00:00Z"))[0]
    assert evaluate_constraint(c, ts("2026-03-31T23:59:59Z"))[0]
    assert evaluate_constraint(c, ts("2026-02-28T23:59:59Z"))[0] is False
    assert evaluate_constraint(c, ts("2026-04-01T00:00:00Z"))[0] is False


def test_temporal_allowed_days_use_local_calendar():
    # 2026-03-06 is a Friday.  23:00 in UTC is already Saturday in +03:00.
    c = TemporalWindowConstraint(
        field="core.request_time",
        valid_from=parse_timestamp("2026-01-01T00:00:00Z"),
        valid_until=parse_timestamp("2026-12-31T23:59:59Z"),
        timezone="+03:00",
        allowed_days=frozenset({"friday"}),
    )
    assert evaluate_constraint(c, ts("2026-03-06T12:00:00Z"))[0]
    assert evaluate_constraint(c, ts("2026-03-06T23:00:00Z"))[0] is False


def test_temporal_unresolvable_timezone_fails_closed():
    c = TemporalWindowConstraint(
        field="core.request_time",
        valid_from=parse_timestamp("2026-01-01T00:00:00Z"),
        valid_until=parse_timestamp("2026-12-31T23:59:59Z"),
        timezone="Mars/Olympus_Mons",
    )
    passed, detail = evaluate_constraint(c, ts("2026-06-01T12:00:00Z"))
    assert passed is False
    assert "timezone" in detail


def test_temporal_type_mismatch_fails():
    c = TemporalWindowConstraint(
        field="core.request_time",
        valid_from=parse_timestamp("2026-01-01T00:00:00Z"),
        valid_until=parse_timestamp("2026-12-31T23:59:59Z"),
    )
    assert evaluate_constraint(c, sid("2026-06-01T12:00:00Z"))[0] is False


def test_resolve_timezone_forms():
    assert resolve_timezone("UTC") is not None
    assert resolve_timezone("+05:30") is not None
    assert resolve_timezone("-08:00") is not None
    assert resolve_timezone("America/New_York") is not None
    assert resolve_timezone("Not/A_Zone") is None
    assert resolve_timezone("+25:00") is None


# --- enumerated lists --------------------------------------------------------

def test_enumerated_allowed_and_denied():
    c = EnumeratedListConstraint(
        field="core.category",
        allowed=frozenset({"standard", "priority"}),
        denied=frozenset({"priority"}),
    )
    assert evaluate_constraint(c, sid("standard"))[0]
    # Denied wins over allowed when a value appears on both lists.
    assert evaluate_constraint(c, sid("priority"))[0] is False
    assert evaluate_constraint(c, sid("bulk"))[0] is False


def test_enumerated_denied_only():
    c = EnumeratedListConstraint(field="core.category", denied=frozenset({"bulk"}))
    assert evaluate_constraint(c, sid("anything"))[0]
    assert evaluate_constraint(c, sid("bulk"))[0] is False


def test_enumerated_requires_string_kind():
    c = EnumeratedListConstraint(field="core.amount", allowed=frozenset({"5"}))
    assert evaluate_constraint(c, dec("5"))[0] is False


# --- string patterns ---------------------------------------------------------

def test_pattern_modes():
    exact = StringPatternConstraint(field="f", match="exact", pattern="jobs/alpha")
    prefix = StringPatternConstraint(field="f", match="prefix", pattern="jobs/")
    suffix = StringPatternConstraint(field="f", match="suffix", pattern="/run")
    rglob = StringPatternConstraint(field="f", match="restricted_glob", pattern="jobs/*/run")
    assert evaluate_constraint(exact, sid("jobs/alpha"))[0]
    assert evaluate_constraint(exact, sid("jobs/alpha2"))[0] is False
    assert evaluate_constraint(prefix, sid("jobs/alpha"))[0]
    assert evaluate_constraint(prefix, sid("tasks/jobs/"))[0] is False
    assert evaluate_constraint(suffix, sid("jobs/alpha/run"))[0]
    assert evaluate_constraint(suffix, sid("run/other"))[0] is False
    assert evaluate_constraint(rglob, sid("jobs/alpha/run"))[0]
    assert evaluate_constraint(rglob, sid("jobs/alpha/walk"))[0] is False


def test_glob_star_is_not_a_path_separator_wildcard():
    # '*' matches any characters, including '/'.
    assert glob_match("jobs/*", "jobs/a/b/c")
    assert glob_match("*", "")
    assert glob_match("a*b*c", "axxbyyc")
    assert glob_match("a*b*c", "abc")
    assert not glob_match("a*b*c", "acb")


def test_glob_matches_reference_oracle_exhaustively():
    from oracles import all_patterns, all_strings

    for pattern in all_patterns(max_len=3, max_stars=2):
        for text in all_strings(4):
            assert glob_match(pattern, text) == reference_glob_match(pattern, text), (
                pattern,
                text,
            )


@settings(max_examples=200, deadline=None)
@given(
    pattern=st.text(alphabet="ab/*", max_size=8),
    text=st.text(alphabet="ab/", max_size=10),
)
def test_glob_matches_reference_oracle_random(pattern, text):
    assert glob_match(pattern, text) == reference_glob_match(pattern, text)


def test_glob_match_is_not_slowed_by_a_pattern_that_would_backtrack():
    # A matcher that steps through the text one character at a time takes
    # about 0.6 ms per call here; literal segments take a few microseconds
    # (CPython 3.11, one x86-64 core), so the bound leaves room for slow hosts.
    pattern = "*a" * 20 + "*b"
    started = time.perf_counter()
    for _ in range(100):
        assert not glob_match(pattern, "a" * 2000)
        assert glob_match(pattern, "a" * 2000 + "b")
    assert time.perf_counter() - started < 0.05


def test_pattern_subsumes_spot_checks():
    assert pattern_subsumes("jobs/*", "jobs/alpha/*")
    assert pattern_subsumes("*", "anything*here")
    assert pattern_subsumes("a*b", "a*x*b")
    assert not pattern_subsumes("jobs/alpha/*", "jobs/*")
    assert not pattern_subsumes("a*b", "a*c")
    # Star-free child reduces to a membership test.
    assert pattern_subsumes("jobs/*/run", "jobs/a/run")
    assert not pattern_subsumes("jobs/*/run", "jobs/run")
    # Star-free parent can never contain a starred child.
    assert not pattern_subsumes("jobs/a/run", "jobs/*/run")
    # Middle literals must embed disjointly.
    assert pattern_subsumes("*ab*", "*ab*")
    assert not pattern_subsumes("*ab*ab*", "*ab*")


def test_pattern_subsumes_matches_enumeration_sample():
    # The acceptance suite sweeps the full pattern space; keep a seeded sample
    # here so unit runs stay fast but still exercise the comparison.
    import random

    from oracles import all_patterns

    rng = random.Random(20260816)
    patterns = all_patterns(max_len=4, max_stars=2)
    for _ in range(400):
        parent = rng.choice(patterns)
        child = rng.choice(patterns)
        assert pattern_subsumes(parent, child) == enumeration_subsumes(parent, child, 5), (
            parent,
            child,
        )


def test_normalize_pattern_collapses_stars():
    c = StringPatternConstraint(field="f", match="restricted_glob", pattern="a**b***c")
    assert normalize_pattern(c) == "a*b*c"
    assert normalize_pattern(StringPatternConstraint(field="f", match="prefix", pattern="x")) == "x*"
    assert normalize_pattern(StringPatternConstraint(field="f", match="suffix", pattern="x")) == "*x"
    assert normalize_pattern(StringPatternConstraint(field="f", match="exact", pattern="x")) == "x"


# --- cumulative limits and unknown constraints --------------------------------

def test_cumulative_never_passes_stateless_evaluation():
    c = CumulativeLimitConstraint(
        field="core.amount",
        budget=Decimal("1000"),
        state_authority_pointer="https://state.example/ledger",
    )
    passed, detail = evaluate_constraint(c, dec("1"))
    assert passed is False
    assert "stateful" in detail


def test_unknown_constraint_always_fails():
    u = UnknownConstraint(type_tag="rate_limit", body='{"type":"rate_limit"}')
    assert evaluate_constraint(u, sid("x"))[0] is False


def test_period_validation():
    assert Period(kind="per_credential").to_dict() == {"kind": "per_credential"}
    assert Period(kind="rolling", duration_seconds=3600).to_dict() == {
        "kind": "rolling",
        "seconds": 3600,
    }
    assert Period(kind="calendar", calendar_unit="month").to_dict() == {
        "kind": "calendar",
        "unit": "month",
    }
    with pytest.raises(ConstraintError):
        Period(kind="rolling")
    with pytest.raises(ConstraintError):
        Period(kind="per_credential", duration_seconds=60)
    with pytest.raises(ConstraintError):
        Period(kind="calendar", calendar_unit="fortnight")


# --- serialization -----------------------------------------------------------

def test_round_trip_all_families():
    originals = [
        NumericLimitConstraint(
            field="core.amount", operator="lte", value=Decimal("5000.00"), currency="USD"
        ),
        TemporalWindowConstraint(
            field="core.request_time",
            valid_from=parse_timestamp("2026-01-01T00:00:00Z"),
            valid_until=parse_timestamp("2026-12-31T23:59:59Z"),
            timezone="America/New_York",
            allowed_days=frozenset({"monday", "friday"}),
        ),
        EnumeratedListConstraint(field="core.category", allowed=frozenset({"a", "b"})),
        StringPatternConstraint(field="core.resource_id", match="restricted_glob", pattern="jobs/*"),
        CumulativeLimitConstraint(
            field="core.amount",
            budget=Decimal("1000"),
            state_authority_pointer="https://state.example/ledger",
            period=Period(kind="rolling", duration_seconds=86400),
            currency="USD",
        ),
    ]
    for original in originals:
        restored = constraint_from_dict(original.to_dict())
        assert restored == original, original


def test_type_discriminator_is_the_class_name():
    tags = {
        NumericLimitConstraint(field="f", operator="lte", value=Decimal("1")): "NumericLimitConstraint",
        EnumeratedListConstraint(field="f", allowed=frozenset({"x"})): "EnumeratedListConstraint",
        StringPatternConstraint(field="f", match="exact", pattern="x"): "StringPatternConstraint",
    }
    for constraint, tag in tags.items():
        assert constraint.to_dict()["type"] == tag


def test_unrecognized_type_becomes_unknown_and_preserves_bytes():
    obj = {"type": "rate_limit", "field": "f", "ceiling": 5}
    parsed = constraint_from_dict(obj)
    assert isinstance(parsed, UnknownConstraint)
    assert parsed.type_tag == "rate_limit"
    assert parsed.to_dict() == obj


def test_recognized_type_with_bad_body_degrades_to_unknown():
    # Extra key.
    extra = {"type": "StringPatternConstraint", "field": "f", "match": "exact", "pattern": "x", "re": ".*"}
    assert isinstance(constraint_from_dict(extra), UnknownConstraint)
    # Missing key.
    missing = {"type": "NumericLimitConstraint", "field": "f", "operator": "lte"}
    assert isinstance(constraint_from_dict(missing), UnknownConstraint)
    # Bad value form.
    bad = {"type": "NumericLimitConstraint", "field": "f", "operator": "lte", "value": "1e3"}
    assert isinstance(constraint_from_dict(bad), UnknownConstraint)


def test_decimal_values_travel_as_strings():
    obj = {"type": "NumericLimitConstraint", "field": "f", "operator": "lte", "value": 100}
    assert isinstance(constraint_from_dict(obj), UnknownConstraint)


@pytest.mark.parametrize(
    "text, accepted",
    [("5", True), ("-5", True), ("+5.25", True), ("007", True), ("1e3", False),
     ("5.", False), (".5", False), ("NaN", False), ("Infinity", False), (" 5", False),
     ("1_000", False), ("", False), ("\u0663", False)],
)
def test_decimal_constraint_values_use_the_context_decimal_grammar(text, accepted):
    obj = {"type": "NumericLimitConstraint", "field": "f", "operator": "lte", "value": text}
    parsed = constraint_from_dict(obj)
    assert isinstance(parsed, NumericLimitConstraint) is accepted
    if accepted:
        assert parsed.value == Decimal(text)


# --- attenuation -------------------------------------------------------------

def num(op, value, field="core.amount", currency=None):
    return NumericLimitConstraint(
        field=field, operator=op, value=Decimal(value), currency=currency
    )


def test_attenuation_numeric_tighten_ok_widen_rejected():
    parent = [num("lte", "1000")]
    assert check_attenuation([num("lte", "500")], parent)[0]
    assert check_attenuation([num("lte", "1000")], parent)[0]
    ok, detail = check_attenuation([num("lte", "1001")], parent)
    assert not ok and "upper bound widened" in detail
    ok, detail = check_attenuation([], parent)
    assert not ok and "omission widens" in detail


def test_attenuation_numeric_strictness_at_equal_bound():
    # Parent lt 100 excludes 100; child lte 100 includes it, so it widens.
    assert check_attenuation([num("lte", "100")], [num("lt", "100")])[0] is False
    assert check_attenuation([num("lt", "100")], [num("lte", "100")])[0]


def test_attenuation_numeric_currency_preserved():
    parent = [num("lte", "1000", currency="USD")]
    assert check_attenuation([num("lte", "500", currency="USD")], parent)[0]
    assert check_attenuation([num("lte", "500", currency="EUR")], parent)[0] is False
    assert check_attenuation([num("lte", "500")], parent)[0] is False


def test_attenuation_unsatisfiable_child_is_a_valid_narrowing():
    parent = [num("lte", "1000")]
    child = [num("gt", "5"), num("lt", "5"), num("lte", "1000")]
    assert check_attenuation(child, parent)[0]


def test_attenuation_child_may_add_new_groups():
    parent = [num("lte", "1000")]
    child = [
        num("lte", "500"),
        EnumeratedListConstraint(field="core.category", allowed=frozenset({"standard"})),
    ]
    assert check_attenuation(child, parent)[0]


def test_attenuation_temporal():
    wide = TemporalWindowConstraint(
        field="t",
        valid_from=parse_timestamp("2026-01-01T00:00:00Z"),
        valid_until=parse_timestamp("2026-12-31T23:59:59Z"),
    )
    narrow = TemporalWindowConstraint(
        field="t",
        valid_from=parse_timestamp("2026-03-01T00:00:00Z"),
        valid_until=parse_timestamp("2026-03-31T23:59:59Z"),
    )
    assert check_attenuation([narrow], [wide])[0]
    ok, detail = check_attenuation([wide], [narrow])
    assert not ok and "window widened" in detail


def test_attenuation_temporal_days():
    base = dict(
        valid_from=parse_timestamp("2026-01-01T00:00:00Z"),
        valid_until=parse_timestamp("2026-12-31T23:59:59Z"),
    )
    weekdays = TemporalWindowConstraint(
        field="t", allowed_days=frozenset({"monday", "tuesday", "wednesday"}), **base
    )
    monday = TemporalWindowConstraint(field="t", allowed_days=frozenset({"monday"}), **base)
    anyday = TemporalWindowConstraint(field="t", **base)
    assert check_attenuation([monday], [weekdays])[0]
    assert check_attenuation([weekdays], [monday])[0] is False
    assert check_attenuation([anyday], [weekdays])[0] is False
    # Day gates in different zones name different instant sets.
    shifted = TemporalWindowConstraint(
        field="t", timezone="+03:00", allowed_days=frozenset({"monday"}), **base
    )
    assert check_attenuation([shifted], [monday])[0] is False


def test_attenuation_enumerated():
    parent = [EnumeratedListConstraint(field="c", allowed=frozenset({"a", "b", "c"}))]
    assert check_attenuation(
        [EnumeratedListConstraint(field="c", allowed=frozenset({"a"}))], parent
    )[0]
    ok, detail = check_attenuation(
        [EnumeratedListConstraint(field="c", allowed=frozenset({"a", "d"}))], parent
    )
    assert not ok and "gained" in detail
    # Parent denials must survive into the child.
    denying = [EnumeratedListConstraint(field="c", denied=frozenset({"x"}))]
    assert check_attenuation(
        [EnumeratedListConstraint(field="c", denied=frozenset({"x", "y"}))], denying
    )[0]
    assert check_attenuation(
        [EnumeratedListConstraint(field="c", allowed=frozenset({"a"}))], denying
    )[0] is False


def test_attenuation_pattern():
    parent = [StringPatternConstraint(field="r", match="restricted_glob", pattern="jobs/*")]
    child_ok = [StringPatternConstraint(field="r", match="restricted_glob", pattern="jobs/alpha/*")]
    child_bad = [StringPatternConstraint(field="r", match="prefix", pattern="tasks/")]
    assert check_attenuation(child_ok, parent)[0]
    assert check_attenuation(child_bad, parent)[0] is False
    # prefix narrows into glob through normalization.
    assert check_attenuation(
        [StringPatternConstraint(field="r", match="prefix", pattern="jobs/a")], parent
    )[0]
    # exact narrows to a single string.
    assert check_attenuation(
        [StringPatternConstraint(field="r", match="exact", pattern="jobs/a")], parent
    )[0]


def test_attenuation_pattern_literal_star_is_incomparable():
    parent = [StringPatternConstraint(field="r", match="restricted_glob", pattern="*")]
    child = [StringPatternConstraint(field="r", match="exact", pattern="a*b")]
    ok, detail = check_attenuation(child, parent)
    assert not ok and "literal" in detail


def test_attenuation_unknown_constraint_blocks_either_side():
    u = UnknownConstraint(type_tag="rate_limit", body='{"type":"rate_limit"}')
    known = [num("lte", "10")]
    ok, detail = check_attenuation([u], known)
    assert not ok and "unknown" in detail
    ok, detail = check_attenuation(known, [u])
    assert not ok and "unknown" in detail


def test_attenuation_cumulative():
    def cum(budget, pointer="https://state.example/ledger", currency="USD"):
        return CumulativeLimitConstraint(
            field="core.amount",
            budget=Decimal(budget),
            state_authority_pointer=pointer,
            currency=currency,
        )

    parent = [cum("1000")]
    assert check_attenuation([cum("400")], parent)[0]
    assert check_attenuation([cum("1000")], parent)[0]
    assert check_attenuation([cum("1500")], parent)[0] is False
    # Redirecting accounting or changing the currency is a widening.
    assert check_attenuation([cum("400", pointer="https://other.example")], parent)[0] is False
    assert check_attenuation([cum("400", currency="EUR")], parent)[0] is False


@settings(max_examples=150, deadline=None)
@given(
    parent=st.decimals(min_value=0, max_value=10**6, allow_nan=False, allow_infinity=False, places=2),
    child=st.decimals(min_value=0, max_value=10**6, allow_nan=False, allow_infinity=False, places=2),
)
def test_attenuation_numeric_matches_interval_order(parent, child):
    ok, _ = check_attenuation([num("lte", child)], [num("lte", parent)])
    assert ok == (child <= parent)


# --- joint satisfiability ------------------------------------------------------

LIMITS = [(op, Decimal(v)) for op in NUMERIC_OPERATORS for v in ("4", "5", "6")]
# Every bound is 4, 5 or 6, so a non-empty conjunction holds a bound or a
# point between, below or above them: one of 3.5, 4.0, ..., 6.5.
WITNESSES = [Decimal(n) / 2 for n in range(7, 14)]


def test_joint_conflict_matches_numeric_oracle_exhaustively():
    groups = [g for size in (1, 2, 3) for g in combinations_with_replacement(LIMITS, size)]
    assert len(groups) == 815
    for group in groups:
        admitted = any(numeric_admits(group, w) for w in WITNESSES)
        conflict = joint_conflict([num(op, value) for op, value in group])
        assert conflict == (None if admitted else "joint numeric bounds admit no value"), group


def test_joint_conflict_matches_enumeration_oracle_exhaustively():
    sets = (None, frozenset("a"), frozenset("b"), frozenset("ab"))
    lists = [(a, d) for a in sets for d in sets if (a, d) != (None, None)]
    for size in (1, 2):
        for group in combinations_with_replacement(lists, size):
            admitted = any(enumeration_admits(group, v) for v in "abc")
            conflict = joint_conflict(
                [EnumeratedListConstraint(field="f", allowed=a, denied=d) for a, d in group]
            )
            assert conflict == (None if admitted else "joint enumerations admit no value"), group


def window(start, end, days=None, zone="UTC"):
    return TemporalWindowConstraint(
        field="t",
        valid_from=parse_timestamp(start),
        valid_until=parse_timestamp(end),
        timezone=zone,
        allowed_days=frozenset(days) if days is not None else None,
    )


def test_joint_conflict_details_per_family():
    march = ("2026-03-01T00:00:00Z", "2026-03-31T00:00:00Z")
    april = ("2026-04-01T00:00:00Z", "2026-04-30T00:00:00Z")
    usd, eur = num("lte", "5", currency="USD"), num("gte", "1", currency="EUR")
    assert joint_conflict([usd, eur]) == "limits pin different currencies ['EUR', 'USD']"
    assert joint_conflict([usd, num("gte", "1")]) is None
    assert joint_conflict([window(*march), window(*april)]) == "joint temporal windows do not overlap"
    monday, tuesday = window(*march, days={"monday"}), window(*march, days={"tuesday"})
    assert joint_conflict([monday, tuesday]) == "joint day gates admit no weekday"
    # Across timezones the same weekday names cover different instants.
    assert joint_conflict([monday, window(*march, days={"tuesday"}, zone="+09:00")]) is None
    assert joint_conflict([monday, window(*march)]) is None
    # Patterns and cumulative limits are left to evaluation.
    exact = [StringPatternConstraint(field="f", match="exact", pattern=p) for p in "xy"]
    assert joint_conflict(exact) is None
    assert joint_conflict([]) is None
