"""Typed values, timestamps, payload completeness, and decision serialization."""

from datetime import datetime, timezone
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mandate.model import (
    AuthorizationPayload,
    Decision,
    DenialReason,
    DenyCode,
    RequestContext,
    SemanticType,
    TraceEntry,
    TypedValue,
    ValueParseError,
    parse_timestamp,
    parse_typed_value,
    render_timestamp,
    validate_payload,
)
from mandate.constraints import NumericLimitConstraint
from oracles import reference_parse_timestamp


def test_parse_timestamp_accepts_z_and_offsets():
    a = parse_timestamp("2026-04-18T14:32:00Z")
    b = parse_timestamp("2026-04-18T16:32:00+02:00")
    assert a == b
    assert a.tzinfo is timezone.utc


def test_parse_timestamp_rejects_naive_and_garbage():
    with pytest.raises(ValueParseError):
        parse_timestamp("2026-04-18T14:32:00")
    with pytest.raises(ValueParseError):
        parse_timestamp("yesterday")
    with pytest.raises(ValueParseError):
        parse_timestamp("")


def test_render_timestamp_round_trips():
    text = "2026-04-18T14:32:00Z"
    assert render_timestamp(parse_timestamp(text)) == text
    with_fraction = "2026-04-18T14:32:00.25Z"
    assert render_timestamp(parse_timestamp(with_fraction)) == with_fraction


def test_render_timestamp_rejects_naive():
    with pytest.raises(ValueParseError):
        render_timestamp(datetime(2026, 1, 1))


def test_decimal_values_keep_their_text_form():
    value = parse_typed_value("5000.00", SemanticType.DECIMAL)
    assert value.value == Decimal("5000.00")
    assert value.to_dict() == {"type": "decimal", "value": "5000.00"}


def test_decimal_rejects_non_numeric_text():
    for bad in ("", "five", "1e3", "NaN", "Infinity", "0x10"):
        with pytest.raises(ValueParseError):
            parse_typed_value(bad, SemanticType.DECIMAL)


def test_integer_bounds_are_signed_64_bit():
    assert parse_typed_value("9223372036854775807", SemanticType.INTEGER).value == 2**63 - 1
    with pytest.raises(ValueParseError):
        parse_typed_value("9223372036854775808", SemanticType.INTEGER)
    with pytest.raises(ValueParseError):
        parse_typed_value("1.5", SemanticType.INTEGER)


def test_string_values_reject_control_characters():
    with pytest.raises(ValueParseError):
        parse_typed_value("claim\x00type", SemanticType.STRING_ID)
    with pytest.raises(ValueParseError):
        parse_typed_value("", SemanticType.STRING_ID)


def test_ip_and_uri_values_validate():
    assert parse_typed_value("192.0.2.1", SemanticType.IP_ADDRESS).text == "192.0.2.1"
    with pytest.raises(ValueParseError):
        parse_typed_value("999.0.0.1", SemanticType.IP_ADDRESS)
    assert parse_typed_value("https://x.example/a", SemanticType.URI).text == "https://x.example/a"
    with pytest.raises(ValueParseError):
        parse_typed_value("not a uri", SemanticType.URI)


def test_typed_value_from_dict_requires_both_keys():
    with pytest.raises(ValueParseError):
        TypedValue.from_dict({"type": "decimal"})
    with pytest.raises(ValueError):
        TypedValue.from_dict({"type": "float", "value": "1"})


def test_request_context_round_trip():
    ctx = RequestContext.from_dict(
        {
            "kind": "request_context",
            "action": "claim.settle",
            "fields": {"core.amount": {"type": "decimal", "value": "3200"}},
        }
    )
    assert ctx.action == "claim.settle"
    assert ctx.get("core.amount").value == Decimal("3200")
    assert ctx.get("core.missing") is None
    assert RequestContext.from_dict(ctx.to_dict()).to_dict() == ctx.to_dict()


def test_request_context_requires_action():
    with pytest.raises(ValueParseError):
        RequestContext.from_dict({"kind": "request_context", "fields": {}})


def _payload(**overrides):
    base = dict(
        agent_id="agent:a",
        issuer_id="iss:b",
        permissions=frozenset({"task.run"}),
        constraints=(
            NumericLimitConstraint(field="core.amount", operator="lte", value=Decimal("10")),
        ),
    )
    base.update(overrides)
    return AuthorizationPayload(**base)


def test_complete_payload_validates():
    assert validate_payload(_payload()) is None


def test_payload_missing_any_element_is_incomplete():
    for missing in ("agent_id", "issuer_id", "permissions", "constraints"):
        problem = validate_payload(_payload(**{missing: None}))
        assert problem is not None
        assert problem.code is DenyCode.CREDENTIAL_INCOMPLETE


def test_empty_permission_set_is_incomplete():
    problem = validate_payload(_payload(permissions=frozenset()))
    assert problem is not None
    assert problem.code is DenyCode.CREDENTIAL_INCOMPLETE


def test_empty_constraint_tuple_is_complete():
    # No constraints is a valid grant; absent constraints is not.
    assert validate_payload(_payload(constraints=())) is None


def test_payload_serialization_sorts_permissions():
    payload = _payload(permissions=frozenset({"b.second", "a.first"}))
    assert payload.to_dict()["permissions"] == ["a.first", "b.second"]


def test_deny_code_catalog_is_closed():
    assert len(DenyCode) == 30
    assert {c.value for c in DenyCode} == {c.value.lower() for c in DenyCode}


def test_decision_serializes_its_reason_label_and_trace():
    trace = (TraceEntry("container", "parse", "PASS"),)
    decision = Decision("DENY", DenialReason(DenyCode.CONSTRAINT_FAILED, "too big"), trace, "C2")
    assert decision.to_dict() == {
        "kind": "decision",
        "outcome": "DENY",
        "reason": {"code": "constraint_failed", "detail": "too big"},
        "failed_constraint": "C2",
        "trace": [{"stage": "container", "check": "parse", "result": "PASS"}],
    }
    assert Decision("ALLOW", trace=trace).to_dict()["reason"] is None


def test_allow_carries_no_reason_and_deny_exactly_one():
    ok = Decision("ALLOW", trace=(TraceEntry("decision", "decision", "ALLOW"),))
    assert ok.outcome == "ALLOW" and ok.reason is None
    with pytest.raises(ValueError, match="ALLOW carries no denial reason"):
        Decision("ALLOW", DenialReason(DenyCode.PERMISSION_DENIED))
    with pytest.raises(ValueError, match="DENY requires a typed reason"):
        Decision("DENY")
    bad = Decision("DENY", DenialReason(DenyCode.PERMISSION_DENIED))
    assert bad.outcome == "DENY" and bad.reason.code is DenyCode.PERMISSION_DENIED


# RFC 3339 date-time spellings, valid and not: any year, month and day
# (Feb 29 and day 31 of short months among them), hours past 23, fractions of
# 0-9 digits, either case of T and Z, and offsets.
_TIMESTAMPS = st.builds(
    "{:04}-{:02}-{:02}{}{:02}:{:02}:{:02}{}{}".format,
    st.integers(0, 9999) | st.sampled_from([1900, 2000, 2024, 2026]),
    st.integers(0, 13),
    st.integers(0, 32) | st.just(29),
    st.sampled_from("Tt"),
    st.integers(0, 25),
    st.integers(0, 60),
    st.integers(0, 61),
    st.just("") | st.text("0123456789", min_size=1, max_size=9).map(".".__add__),
    st.sampled_from(["Z", "z"]) | st.builds("{}{:02}:{:02}".format, st.sampled_from("+-"), st.integers(0, 24), st.integers(0, 60)),
)


def _outcome(read, text):
    try:
        instant = read(text)
    except ValueParseError as exc:
        return type(exc), str(exc)
    return instant, instant.tzinfo


@settings(max_examples=1500, deadline=None)
@given(_TIMESTAMPS)
@example("2024-02-29T23:59:59.123456789Z")
@example("2026-02-29T00:00:00Z")
@example("2026-04-31T00:00:00Z")
@example("2026-01-01T24:00:00Z")
@example("0000-01-01T00:00:00Z")
@example("0001-01-01T00:00:00+00:01")
@example("9999-12-31T23:59:59-00:01")
@example("2026-05-01t12:00:00.5z")
@example("2026-05-01T12:00:00+14:00")
def test_parse_timestamp_agrees_with_its_frozen_reference(text):
    """The same UTC instant, or the same error type and message, for every spelling."""
    assert _outcome(parse_timestamp, text) == _outcome(reference_parse_timestamp, text)
