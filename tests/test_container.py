"""Container parsing, issuing, delegation guards, verification order, revocation."""

import json
from datetime import timedelta
from decimal import Decimal

import pytest

from mandate.constraints import EnumeratedListConstraint, NumericLimitConstraint
from mandate.container import (
    AttenuationViolation,
    InvalidPayloadError,
    MalformedContainerError,
    NonceCache,
    PossessionProof,
    RevocationError,
    RevocationStore,
    issue_credential,
    make_possession_proof,
    new_revocation_list,
    parse_container,
    revoke,
    verify_container,
)
from mandate.keys import attach_signature, generate_key
from mandate.model import AuthorizationPayload, DenyCode, parse_timestamp

NOW = parse_timestamp("2026-05-01T12:00:00Z")
FROM = parse_timestamp("2026-01-01T00:00:00Z")
UNTIL = parse_timestamp("2026-12-31T23:59:59Z")

ISSUER = generate_key("iss:test:authority", seed="container:issuer")
SUBJECT = generate_key("agent:test:worker", seed="container:subject")
DELEGATE = generate_key("agent:test:delegate", seed="container:delegate")
RECEIVER_ID = "svc:test:receiver"


def payload(
    agent_id="agent:test:worker",
    issuer_id="iss:test:authority",
    permissions=("task.run",),
    constraints=None,
):
    if constraints is None:
        constraints = (
            NumericLimitConstraint(field="core.amount", operator="lte", value=Decimal("1000")),
        )
    return AuthorizationPayload(
        agent_id=agent_id,
        issuer_id=issuer_id,
        permissions=frozenset(permissions),
        constraints=tuple(constraints),
    )


def credential(subject_key=SUBJECT, issuer_key=ISSUER, **kwargs):
    args = dict(
        payload=payload(),
        subject_public_key=subject_key.public_hex,
        audience=[RECEIVER_ID],
        valid_from=FROM,
        valid_until=UNTIL,
        issuer_key=issuer_key,
    )
    args.update(kwargs)
    return issue_credential(**args)


def verify(container, presenter=None, pop=None, **kwargs):
    if presenter is None:
        presenter = container.subject_id
    args = dict(
        evaluator_id=RECEIVER_ID,
        trusted_issuers={ISSUER.key_id: ISSUER.public_hex},
        now=NOW,
        nonce_cache=NonceCache(),
    )
    args.update(kwargs)
    if pop == "fresh":
        pop = make_possession_proof(container, RECEIVER_ID, "nonce-1", NOW, SUBJECT)
    return verify_container(container, presenter, pop, **args)


# --- parsing -------------------------------------------------------------------

def test_parse_round_trips_canonical_bytes():
    c = credential()
    again = parse_container(c.dumps())
    assert again.digest() == c.digest()
    assert again.raw == c.raw
    assert parse_container(c.dumps().encode()).digest() == c.digest()


def test_parse_rejects_garbage_and_wrong_kind():
    with pytest.raises(MalformedContainerError):
        parse_container(b"\x00\x01\x02")
    with pytest.raises(MalformedContainerError):
        parse_container("not json at all {{{")
    with pytest.raises(MalformedContainerError):
        parse_container({"kind": "certificate"})
    with pytest.raises(MalformedContainerError):
        parse_container([1, 2, 3])


def test_parse_rejects_internal_identity_contradictions():
    c = credential()
    raw = dict(c.raw)
    # Disagreeing envelope subject and payload agent.
    raw["subject_id"] = "agent:test:other"
    with pytest.raises(MalformedContainerError):
        parse_container(raw)
    raw = dict(c.raw)
    raw["audience"] = []
    with pytest.raises(MalformedContainerError):
        parse_container(raw)


def test_parse_keeps_incomplete_payload_for_the_decision_stage():
    # A missing payload element is a credential_incomplete denial, not a parse error.
    body = {
        "kind": "credential",
        "credential_id": "cred-x",
        "issuer_id": ISSUER.key_id,
        "subject_id": "agent:test:worker",
        "subject_public_key": {"suite": 1, "public_key": SUBJECT.public_hex},
        "audience": [RECEIVER_ID],
        "valid_from": "2026-01-01T00:00:00Z",
        "valid_until": "2026-12-31T23:59:59Z",
        "payload": {"agent_id": "agent:test:worker", "issuer_id": ISSUER.key_id},
    }
    c = parse_container(attach_signature(body, ISSUER))
    assert c.payload.permissions is None


def test_unknown_top_level_fields_survive_and_stay_signed():
    c = credential()
    raw = dict(c.raw)
    raw["extension"] = {"vendor": "x"}
    # Not signed over the extension: signature check must fail.
    parsed = parse_container(raw)
    assert parsed.raw["extension"] == {"vendor": "x"}
    reason = verify(parsed, pop="fresh")
    assert reason.code is DenyCode.SIGNATURE_INVALID


# --- issuing and delegation guards ----------------------------------------------

def test_issue_refuses_incomplete_payload():
    with pytest.raises(InvalidPayloadError):
        credential(payload=AuthorizationPayload("a", "i", None, None))


def test_issue_refuses_empty_window_or_audience():
    with pytest.raises(InvalidPayloadError):
        credential(valid_from=UNTIL, valid_until=FROM)
    with pytest.raises(InvalidPayloadError):
        credential(audience=[])


def test_delegation_narrowing_allowed():
    parent = credential()
    child = issue_credential(
        payload=payload(
            agent_id="agent:test:delegate",
            issuer_id="agent:test:worker",
            constraints=(
                NumericLimitConstraint(field="core.amount", operator="lte", value=Decimal("200")),
            ),
        ),
        subject_public_key=DELEGATE.public_hex,
        audience=[RECEIVER_ID],
        valid_from=FROM,
        valid_until=UNTIL,
        issuer_key=SUBJECT,
        parent=parent,
    )
    assert child.parent_digest == parent.digest()


def delegation(parent, **overrides):
    args = dict(
        payload=payload(
            agent_id="agent:test:delegate",
            issuer_id="agent:test:worker",
        ),
        subject_public_key=DELEGATE.public_hex,
        audience=[RECEIVER_ID],
        valid_from=FROM,
        valid_until=UNTIL,
        issuer_key=SUBJECT,
        parent=parent,
    )
    args.update(overrides)
    return issue_credential(**args)


def test_delegation_issuer_must_be_parent_subject():
    parent = credential()
    with pytest.raises(AttenuationViolation):
        delegation(parent, payload=payload(agent_id="agent:test:delegate", issuer_id="iss:test:authority"))


def test_delegation_window_must_nest():
    parent = credential()
    with pytest.raises(AttenuationViolation):
        delegation(parent, valid_until=UNTIL + timedelta(days=1))
    with pytest.raises(AttenuationViolation):
        delegation(parent, valid_from=FROM - timedelta(days=1))


def test_delegation_permissions_must_not_grow():
    parent = credential()
    with pytest.raises(AttenuationViolation) as exc:
        delegation(
            parent,
            payload=payload(
                agent_id="agent:test:delegate",
                issuer_id="agent:test:worker",
                permissions=("task.run", "task.admin"),
            ),
        )
    assert "task.admin" in str(exc.value)


def test_delegation_constraints_must_narrow():
    parent = credential()
    with pytest.raises(AttenuationViolation):
        delegation(
            parent,
            payload=payload(
                agent_id="agent:test:delegate",
                issuer_id="agent:test:worker",
                constraints=(
                    NumericLimitConstraint(
                        field="core.amount", operator="lte", value=Decimal("2000")
                    ),
                ),
            ),
        )


# --- verification order ----------------------------------------------------------

def test_verify_passes_on_a_good_presentation():
    c = credential()
    assert verify(c, pop="fresh") is None


def test_verify_signature_tamper():
    c = credential()
    raw = dict(c.raw)
    raw["valid_until"] = "2030-12-31T23:59:59Z"
    tampered = parse_container(raw)
    reason = verify(tampered, pop="fresh")
    assert reason.code is DenyCode.SIGNATURE_INVALID


def test_verify_unknown_issuer_has_no_signature_verdict():
    c = credential()
    reason = verify(c, pop="fresh", trusted_issuers={})
    assert reason.code is DenyCode.ISSUER_UNTRUSTED


def test_verify_audience_mismatch():
    c = credential(audience=["svc:test:someone-else"])
    pop = make_possession_proof(c, RECEIVER_ID, "n", NOW, SUBJECT)
    reason = verify(c, pop=pop)
    assert reason.code is DenyCode.AUDIENCE_MISMATCH


def test_verify_pop_missing_wrong_binding_and_replay():
    c = credential()
    assert verify(c).code is DenyCode.PROOF_OF_POSSESSION_FAILED

    other = credential(payload=payload(permissions=("task.other",)))
    wrong_binding = make_possession_proof(other, RECEIVER_ID, "n", NOW, SUBJECT)
    assert verify(c, pop=wrong_binding).code is DenyCode.PROOF_OF_POSSESSION_FAILED

    wrong_key = make_possession_proof(c, RECEIVER_ID, "n", NOW, DELEGATE)
    assert verify(c, pop=wrong_key).code is DenyCode.PROOF_OF_POSSESSION_FAILED

    wrong_receiver = make_possession_proof(c, "svc:test:other", "n", NOW, SUBJECT)
    assert verify(c, pop=wrong_receiver).code is DenyCode.PROOF_OF_POSSESSION_FAILED

    cache = NonceCache()
    replayed = make_possession_proof(c, RECEIVER_ID, "n", NOW, SUBJECT)
    assert verify(c, pop=replayed, nonce_cache=cache) is None
    assert verify(c, pop=replayed, nonce_cache=cache).code is DenyCode.PROOF_OF_POSSESSION_FAILED


def test_verify_pop_freshness_window_inclusive():
    c = credential()
    at_edge = make_possession_proof(c, RECEIVER_ID, "edge", NOW - timedelta(seconds=300), SUBJECT)
    assert verify(c, pop=at_edge) is None
    too_old = make_possession_proof(c, RECEIVER_ID, "old", NOW - timedelta(seconds=301), SUBJECT)
    assert verify(c, pop=too_old).code is DenyCode.PROOF_OF_POSSESSION_FAILED


def test_verify_pop_future_bound_inclusive():
    """A proof dated ahead of the receiver's clock is fresh up to ``pop_max_age``
    ahead and no further: a pre-minted proof stays usable no longer than that."""
    c = credential()
    at_edge = make_possession_proof(c, RECEIVER_ID, "ahead-edge", NOW + timedelta(seconds=300), SUBJECT)
    assert verify(c, pop=at_edge) is None
    too_early = make_possession_proof(c, RECEIVER_ID, "ahead-past", NOW + timedelta(seconds=301), SUBJECT)
    reason = verify(c, pop=too_early)
    assert reason.code is DenyCode.PROOF_OF_POSSESSION_FAILED
    assert reason.detail == "proof timestamp outside the freshness window"


@pytest.mark.parametrize("skew", [timedelta(0), timedelta(seconds=90)])
def test_verify_window_start_inclusive_with_and_without_skew(skew):
    c = credential()
    edge = FROM - skew
    cases = (("start-edge", edge, None), ("start-early", edge - timedelta(microseconds=1), DenyCode.CREDENTIAL_EXPIRED))
    for nonce, now, code in cases:
        pop = make_possession_proof(c, RECEIVER_ID, nonce, now, SUBJECT)
        reason = verify(c, pop=pop, now=now, clock_skew=skew)
        assert (reason and reason.code) is code


def test_verify_pop_not_required_skips_the_check():
    c = credential()
    assert verify(c, pop=None, pop_required=False) is None


def test_verify_subject_binding():
    c = credential()
    reason = verify(c, presenter="agent:test:impostor", pop="fresh")
    assert reason.code is DenyCode.SUBJECT_BINDING_MISMATCH


def test_verify_expiry_and_clock_skew():
    c = credential()
    late = UNTIL + timedelta(seconds=30)
    pop = make_possession_proof(c, RECEIVER_ID, "n", late, SUBJECT)
    reason = verify(c, pop=pop, now=late)
    assert reason.code is DenyCode.CREDENTIAL_EXPIRED
    assert verify(c, pop=pop, now=late, clock_skew=timedelta(minutes=1)) is None


def test_verify_order_signature_beats_audience():
    c = credential(audience=["svc:test:someone-else"])
    raw = dict(c.raw)
    raw["valid_until"] = "2030-12-31T23:59:59Z"
    tampered = parse_container(raw)
    reason = verify(tampered, pop="fresh")
    assert reason.code is DenyCode.SIGNATURE_INVALID


def test_verify_order_audience_beats_pop():
    c = credential(audience=["svc:test:someone-else"])
    reason = verify(c, pop=None)
    assert reason.code is DenyCode.AUDIENCE_MISMATCH


# --- revocation ------------------------------------------------------------------

def test_revocation_flow():
    c = credential()
    store = RevocationStore()
    initial = new_revocation_list(ISSUER.key_id, ISSUER, now=NOW)
    store.update(initial, ISSUER.public_hex)
    assert verify(c, pop="fresh", revocations=store) is None

    updated = revoke(initial, c.credential_id, ISSUER, now=NOW)
    store.update(updated, ISSUER.public_hex)
    pop = make_possession_proof(c, RECEIVER_ID, "n2", NOW, SUBJECT)
    reason = verify(c, pop=pop, revocations=store)
    assert reason.code is DenyCode.CREDENTIAL_REVOKED


def test_revocation_store_rejects_bad_signature_and_stale_version():
    initial = new_revocation_list(ISSUER.key_id, ISSUER, now=NOW)
    store = RevocationStore()
    with pytest.raises(RevocationError):
        store.update(initial, DELEGATE.public_hex)
    store.update(initial, ISSUER.public_hex)
    with pytest.raises(RevocationError):
        store.update(initial, ISSUER.public_hex)  # same version does not supersede


def test_revocation_is_monotone():
    lst = new_revocation_list(ISSUER.key_id, ISSUER, now=NOW, revoked=["cred-a"])
    lst = revoke(lst, "cred-b", ISSUER, now=NOW)
    assert lst.revoked == frozenset({"cred-a", "cred-b"})
    assert lst.version == 2


def test_stale_revocation_list_counts_against_the_credential():
    c = credential()
    store = RevocationStore(max_age=timedelta(hours=1))
    old = new_revocation_list(ISSUER.key_id, ISSUER, now=NOW - timedelta(days=2))
    store.update(old, ISSUER.public_hex)
    reason = verify(c, pop="fresh", revocations=store)
    assert reason.code is DenyCode.CREDENTIAL_REVOKED
    assert "stale" in reason.detail


def test_revocation_list_stale_only_past_max_age():
    """A list exactly ``max_age`` old still reads; one second older is stale."""
    c = credential()
    cases = (("age-edge", timedelta(hours=1), None), ("age-past", timedelta(hours=1, seconds=1), DenyCode.CREDENTIAL_REVOKED))
    for nonce, age, code in cases:
        store = RevocationStore(max_age=timedelta(hours=1))
        store.update(new_revocation_list(ISSUER.key_id, ISSUER, now=NOW - age), ISSUER.public_hex)
        reason = verify(c, pop=make_possession_proof(c, RECEIVER_ID, nonce, NOW, SUBJECT), revocations=store)
        assert (reason and reason.code) is code
        assert code is None or "stale" in reason.detail


def test_no_list_for_issuer_reads_as_ok():
    c = credential()
    store = RevocationStore(max_age=timedelta(hours=1))
    assert verify(c, pop="fresh", revocations=store) is None


# --- proof serialization ----------------------------------------------------------

def test_possession_proof_round_trip():
    c = credential()
    pop = make_possession_proof(c, RECEIVER_ID, "n", NOW, SUBJECT)
    again = PossessionProof.from_dict(pop.to_dict())
    assert again == pop
    with pytest.raises(MalformedContainerError):
        PossessionProof.from_dict({"kind": "something_else"})


# --- a possession proof's signing bytes ----------------------------------------------

def _resigned(pop, key, **extra):
    """``pop`` with ``extra`` members, signed over its signed view rendered as
    json.dumps renders it, floats included: a signature the walk never sees."""
    body = {k: v for k, v in pop.raw.items() if k != "signature"}
    body.update(extra, signature={"key_id": key.key_id, "suite": 1})
    signed = json.dumps(body, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode()
    return PossessionProof.from_dict(dict(body, signature=dict(body["signature"], value=key.sign(signed).hex())))


def test_a_proof_with_a_float_member_still_fails_its_signature():
    c = credential()
    pop = _resigned(make_possession_proof(c, RECEIVER_ID, "n", NOW, SUBJECT), SUBJECT, extra=1.5)
    reason = verify(c, pop=pop)
    assert reason.code is DenyCode.PROOF_OF_POSSESSION_FAILED
    assert reason.detail == "proof signature does not verify against the subject key"


@pytest.mark.parametrize("extra", ["text", 7, {"nested": [1, True, None, "ü"]}], ids=["str", "int", "nested"])
def test_a_proof_with_a_plain_unknown_member_verifies_over_that_member(extra):
    c = credential()
    pop = _resigned(make_possession_proof(c, RECEIVER_ID, "n", NOW, SUBJECT), SUBJECT, extra=extra)
    assert verify(c, pop=pop) is None
    changed = PossessionProof.from_dict(dict(pop.raw, extra=[extra]))
    reason = verify(c, pop=changed)
    assert reason.detail == "proof signature does not verify against the subject key"
