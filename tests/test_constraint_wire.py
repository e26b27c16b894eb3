"""The constraint wire form: one row per family, checked against a frozen reader.

``constraints.constraint_from_dict`` reads every family through one table,
and one shared ``to_dict`` writes it back.  The branch-per-family reader and
writers in ``oracles`` are the reference: on any drawn member dict, on every
constraint in the shipped vectors and in both scenario bundles, the two
readers must raise the same error or give equal objects that write the same
members in the same order.
"""

import dataclasses
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mandate.canonical import from_transport, load_json
from mandate.constraints import (
    NUMERIC_OPERATORS,
    PATTERN_MODES,
    WEEKDAYS,
    ConstraintError,
    Period,
    UnknownConstraint,
    constraint_from_dict,
)
from mandate.container import parse_payload
from mandate.model import AuthorizationPayload, DenyCode, ValueParseError, validate_payload
from mandate.scenarios import SCENARIO_NAMES, load_scenario
from mandate.stateful import InMemoryStateAuthority

from oracles import reference_constraint_from_dict, reference_constraint_to_dict, reference_has_duplicates

VECTORS = Path(__file__).resolve().parent.parent / "vectors"
POINTER = "https://state.example/ledger"




def _member(good, odd=()):
    """A member's (good, any) strategies: values the family reads, and those
    mixed with values it must refuse."""
    return st.sampled_from(good), st.sampled_from(good + odd)


TEXT = _member(("core.amount", "core.request_time", "f", "USD"), ("", "core.amount\n"))
DECIMAL_TEXT = _member(
    ("1000", "1000.0", "+5", "5", "0.25", "007", "0.00000001"),
    ("1e3", "5.", ".5", " 5", "NaN", "", "-5", "0", "5\n"),
)
TIMESTAMP_TEXT = _member(
    ("2026-01-01T00:00:00Z", "2026-12-31T23:59:59Z", "2026-06-01T00:00:00+02:00", "2026-06-01T00:00:00.250Z"),
    (
        "2026-13-01T00:00:00Z",
        "2026-01-01 00:00:00Z",
        "2026-01-01T00:00:00",
        "2026-02-30T00:00:00Z",
        "2026-01-01T00:00:00Z\n",
    ),
)
NAMES = (
    st.lists(st.sampled_from(WEEKDAYS), min_size=1, max_size=3),
    st.lists(st.sampled_from(WEEKDAYS + ("funday", "standard", "")), max_size=3),
)
PERIODS = _member(
    (
        {"kind": "per_credential"},
        {"kind": "rolling", "seconds": 60},
        {"kind": "calendar", "unit": "day"},
        {"kind": "per_credential", "seconds": None},
    ),
    (
        {"kind": "rolling", "seconds": 0},
        {"kind": "rolling", "seconds": True},
        {"kind": "rolling", "seconds": "60"},
        {"kind": "calendar", "unit": "fortnight"},
        {"kind": "per_credential", "window": "day"},
        {"kind": "rolling", "seconds": 60, "extra": True},
        {"kind": "weekly"},
        {},
        "per_credential",
    ),
)
PATTERN_TEXT = (st.text(alphabet="ab*/", max_size=4),) * 2
MISTYPED = st.sampled_from((5, -1, True, False, "text", [], ["x"], {}, {"k": "v"}))

MEMBERS = {
    "NumericLimitConstraint": {
        "field": TEXT,
        "operator": _member(NUMERIC_OPERATORS, ("le", "EQ")),
        "value": DECIMAL_TEXT,
        "currency": TEXT,
        "unit": TEXT,
    },
    "TemporalWindowConstraint": {
        "field": TEXT,
        "valid_from": TIMESTAMP_TEXT,
        "valid_until": TIMESTAMP_TEXT,
        "timezone": _member(("UTC", "America/New_York", "+05:30"), ("Nowhere/Zone", "")),
        "allowed_days": NAMES,
    },
    "EnumeratedListConstraint": {"field": TEXT, "allowed": NAMES, "denied": NAMES},
    "StringPatternConstraint": {
        "field": TEXT,
        "match": _member(PATTERN_MODES, ("regex",)),
        "pattern": PATTERN_TEXT,
    },
    "CumulativeLimitConstraint": {
        "field": TEXT,
        "budget": DECIMAL_TEXT,
        "period": PERIODS,
        "state_authority_pointer": _member((POINTER,), ("",)),
        "currency": TEXT,
    },
}
UNKNOWN_TAGS = ("rate_limit", "numeric_limit", "numericLimitConstraint", "")


@st.composite
def constraint_dicts(draw):
    """A member dict for a drawn tag.  Half the draws are tidy: members absent
    or good, and a limit with a currency or a unit, not both.  The rest put
    each member absent, null, mistyped or any value, and sometimes add one
    member the family does not have."""
    tag = draw(st.sampled_from(tuple(MEMBERS) * 3 + UNKNOWN_TAGS))
    tidy = draw(st.booleans())
    choices = ("valid",) * 7 + (("absent",) if tidy else ("absent", "null", "mistyped"))
    obj = {"type": tag}
    for name, (good, anything) in MEMBERS.get(tag, MEMBERS["NumericLimitConstraint"]).items():
        choice = draw(st.sampled_from(choices))
        if choice == "valid":
            obj[name] = draw(good if tidy else anything)
        elif choice == "null":
            obj[name] = None
        elif choice == "mistyped":
            obj[name] = draw(MISTYPED)
    if tidy and "currency" in obj and "unit" in obj:  # a limit pins one or the other
        del obj[draw(st.sampled_from(("currency", "unit")))]
    if not tidy and draw(st.integers(0, 3)) == 0:
        obj[draw(st.sampled_from(("extra", "re", "window", "value", "period")))] = draw(
            st.one_of(MISTYPED, TEXT[1])
        )
    return obj


def _read(reader, obj):
    try:
        return reader(obj), None
    except Exception as exc:  # the two readers must fail alike
        return None, type(exc)


def assert_readers_agree(obj) -> None:
    ours, our_error = _read(constraint_from_dict, obj)
    reference, reference_error = _read(reference_constraint_from_dict, obj)
    assert our_error is reference_error, obj
    if our_error is not None:
        return
    assert type(ours) is type(reference) and ours == reference, obj
    written = ours.to_dict()
    assert list(written.items()) == list(reference_constraint_to_dict(reference).items()), obj
    if not isinstance(ours, UnknownConstraint):
        assert constraint_from_dict(written) == ours


@settings(max_examples=1000, deadline=None)
@given(constraint_dicts())
def test_the_table_reads_and_writes_as_the_reference(obj):
    assert_readers_agree(obj)


@pytest.mark.parametrize("obj", [None, "NumericLimitConstraint", [], {}, {"type": 5}, {"type": None}])
def test_what_is_no_constraint_object_raises_in_both_readers(obj):
    with pytest.raises(ValueParseError):
        constraint_from_dict(obj)
    assert_readers_agree(obj)


def _constraint_lists(node):
    """Every ``constraints`` list in a JSON tree, transport wrappings opened."""
    if isinstance(node, list):
        for item in node:
            yield from _constraint_lists(item)
    elif isinstance(node, dict):
        if node.get("encoding") == "base64url" and isinstance(node.get("value"), str):
            try:
                yield from _constraint_lists(load_json(from_transport(node["value"])))
            except ValueError:
                pass  # a refused wrapping carries no constraints
        for key, value in node.items():
            if key == "constraints" and isinstance(value, list):
                yield value
            yield from _constraint_lists(value)


def test_every_shipped_constraint_reads_and_writes_as_the_reference():
    seen = 0
    for path in sorted(VECTORS.rglob("*.json")):
        for constraints in _constraint_lists(load_json(path.read_bytes())):
            for obj in constraints:
                assert_readers_agree(obj)
                seen += 1
    assert seen > 200


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_every_scenario_constraint_reads_and_writes_as_the_reference(name):
    bundle = load_scenario(name)
    lists = list(_constraint_lists(bundle.credential.to_dict()))
    assert lists and all(lists)
    for constraints in lists:
        for obj in constraints:
            assert_readers_agree(obj)


# --- the period of a cumulative limit ------------------------------------------

CUMULATIVE = {
    "type": "CumulativeLimitConstraint",
    "field": "core.amount",
    "budget": "5000",
    "state_authority_pointer": POINTER,
}


@pytest.mark.parametrize(
    "period",
    [{"kind": "per_credential", "window": "day"}, {"kind": "rolling", "seconds": 60, "extra": True}],
)
def test_a_period_member_of_unknown_name_is_refused(period):
    with pytest.raises(ConstraintError):
        Period.from_dict(period)
    parsed = constraint_from_dict(dict(CUMULATIVE, period=period))
    assert isinstance(parsed, UnknownConstraint)
    assert parsed.type_tag == "CumulativeLimitConstraint"
    row = {"key": "k", "amount": "1", "period": period, "timestamp": "2026-05-01T11:00:00Z"}
    with pytest.raises(ValueParseError):
        InMemoryStateAuthority(POINTER).replay([row])


# --- duplicates are judged on the written form ---------------------------------

def _limits(*values):
    return [
        {"type": "NumericLimitConstraint", "field": "core.amount", "operator": "lte", "value": value}
        for value in values
    ]


@settings(max_examples=500, deadline=None)
@given(constraint_dicts())
def test_the_key_built_while_reading_is_the_key_of_a_constraint_built_in_code(obj):
    ours, error = _read(constraint_from_dict, obj)
    if error is not None or isinstance(ours, UnknownConstraint):
        return
    in_code = reference_constraint_from_dict(obj)  # the frozen reader calls the classes itself
    assert "_duplicate_key" in vars(ours) and "_duplicate_key" not in vars(in_code)
    assert ours.duplicate_key() == in_code.duplicate_key() == dataclasses.replace(ours).duplicate_key()


@pytest.mark.parametrize(
    "values, duplicate",
    [(("+5", "5"), True), (("5", "5"), True), (("1000", "1000.0"), False), (("5", "6"), False)],
)
def test_duplicate_constraints_are_those_written_alike(values, duplicate):
    payload = parse_payload(
        {
            "agent_id": "agent:test:worker",
            "issuer_id": "iss:test:authority",
            "permissions": ["task.run"],
            "constraints": _limits(*values),
        }
    )
    assert [c.value for c in payload.constraints] == [Decimal(v) for v in values]
    reason = validate_payload(payload)
    if duplicate:
        assert reason is not None and reason.code is DenyCode.CREDENTIAL_INCOMPLETE
        assert "duplicate" in reason.detail
    else:
        assert reason is None


def _has_duplicates(constraints) -> bool:
    payload = AuthorizationPayload("agent:test:worker", "iss:test:authority", frozenset({"task.run"}), tuple(constraints))
    reason = validate_payload(payload)
    return reason is not None and "duplicate" in reason.detail


@st.composite
def constraint_lists(draw):
    """Two to five constraints drawn from a pool of up to three, so exact
    repeats are common, and respelled decimals (``+5``/``5``,
    ``1000``/``1000.0``) and instants meet often."""
    pool = [constraint_from_dict(obj) for obj in draw(st.lists(constraint_dicts(), min_size=1, max_size=3))]
    return draw(st.lists(st.sampled_from(pool), min_size=2, max_size=5))


@settings(max_examples=1000, deadline=None)
@given(constraint_lists())
def test_the_typed_duplicate_key_agrees_with_the_written_form(constraints):
    assert _has_duplicates(constraints) is reference_has_duplicates(constraints)


@pytest.mark.parametrize(
    "values, duplicate",
    [(("+5", "5"), True), (("1000", "1000.0"), False), (("0.25", "+0.25"), True), (("007", "7"), True)],
)
def test_the_typed_duplicate_key_agrees_on_respelled_decimals(values, duplicate):
    constraints = [constraint_from_dict(obj) for obj in _limits(*values)]
    assert _has_duplicates(constraints) is reference_has_duplicates(constraints) is duplicate


def test_the_typed_duplicate_key_agrees_on_every_shipped_credential():
    lists = [
        constraints
        for path in sorted(VECTORS.rglob("*.json"))
        for constraints in _constraint_lists(load_json(path.read_bytes()))
    ]
    lists += [c for name in SCENARIO_NAMES for c in _constraint_lists(load_scenario(name).credential.to_dict())]
    for objs in lists:
        constraints = [constraint_from_dict(obj) for obj in objs if isinstance(obj, dict) and isinstance(obj.get("type"), str)]
        assert _has_duplicates(constraints) is reference_has_duplicates(constraints), objs
    assert len(lists) > 50
