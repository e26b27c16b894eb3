"""Engine pipeline: ordering, traces, chains, policy, workflow, audit coupling."""

import dataclasses
import errno
import gc
import json
from datetime import timedelta
from decimal import Decimal
from pathlib import Path

import pytest

from mandate.audit import AuditLog, verify_audit_chain
from mandate.canonical import digest_object
from mandate.constraints import (
    CumulativeLimitConstraint,
    EnumeratedListConstraint,
    NumericLimitConstraint,
    Period,
    StringPatternConstraint,
)
from mandate.container import (
    AttenuationViolation,
    RevocationStore,
    issue_credential,
    make_possession_proof,
    new_revocation_list,
    parse_container,
    revoke,
)
from mandate.keys import attach_signature, check_signature, generate_key
from mandate.model import (
    AuthorizationPayload,
    DenyCode,
    RequestContext,
    SemanticType,
    TraceEntry,
    ValueParseError,
    parse_timestamp,
    parse_typed_value,
    render_timestamp,
    validate_payload,
)
from mandate import pipeline
from mandate.pipeline import Engine, EngineConfig, LocalPolicy, WorkflowPolicy, WorkflowRole
from mandate.semantics import AliasEntry, build_mapping_profile, identity_mapping_profile
from mandate.scenarios import load_scenario
from mandate.stateful import EpochLedger, EpochQuota, InMemoryStateAuthority
from test_plans import _body

NOW = parse_timestamp("2026-05-01T12:00:00Z")
FROM = parse_timestamp("2026-01-01T00:00:00Z")
UNTIL = parse_timestamp("2026-12-31T23:59:59Z")
RECEIVER = "svc:test:receiver"

ISSUER = generate_key("iss:test:authority", seed="pipeline:issuer")
SUBJECT = generate_key("agent:test:worker", seed="pipeline:subject")
STEWARD = generate_key("steward:test", seed="pipeline:steward")
AUDIT = generate_key("svc:test:receiver#audit", seed="pipeline:audit")
DELEGATES = [
    generate_key(f"agent:test:delegate-{i}", seed=f"pipeline:delegate:{i}") for i in range(1, 5)
]


def make_engine(**overrides):
    config = dict(
        evaluator_id=RECEIVER,
        audit_log=AuditLog(RECEIVER, AUDIT),
        trusted_issuers={ISSUER.key_id: ISSUER.public_hex},
        steward_keys={STEWARD.key_id: STEWARD.public_hex},
        mapping_profile=identity_mapping_profile([], UNTIL, STEWARD),
    )
    config.update(overrides)
    return Engine(EngineConfig(**config))


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


def credential(**kwargs):
    args = dict(
        payload=payload(),
        subject_public_key=SUBJECT.public_hex,
        audience=[RECEIVER],
        valid_from=FROM,
        valid_until=UNTIL,
        issuer_key=ISSUER,
    )
    args.update(kwargs)
    return issue_credential(**args)


def context(amount="250", action="task.run", **extra):
    fields = {}
    if amount is not None:
        fields["core.amount"] = parse_typed_value(amount, SemanticType.DECIMAL)
    for name, (kind, text) in extra.items():
        fields[name] = parse_typed_value(text, kind)
    return RequestContext(action=action, fields=fields)


_nonce_counter = [0]


def pop_for(cred, subject_key=SUBJECT, at=None):
    _nonce_counter[0] += 1
    return make_possession_proof(
        cred, RECEIVER, f"nonce-{_nonce_counter[0]}", at or NOW, subject_key
    )


def evaluate(engine, cred, ctx=None, presenter=None, subject_key=SUBJECT, **kwargs):
    leaf = cred[-1] if isinstance(cred, (list, tuple)) else cred
    if presenter is None:
        presenter = leaf.subject_id
    return engine.evaluate(
        cred,
        ctx or context(),
        presenter,
        pop_for(leaf, subject_key),
        now=NOW,
        **kwargs,
    )


# --- single credential path -----------------------------------------------------

def test_allow_trace_shape():
    engine = make_engine()
    decision = evaluate(engine, credential())
    assert decision.allowed
    assert [(e.stage, e.check) for e in decision.trace] == [
        ("container", "parse"),
        ("container", "signature"),
        ("container", "issuer trust"),
        ("container", "audience"),
        ("container", "proof of possession"),
        ("container", "expiry and revocation"),
        ("payload", "permission"),
        ("constraints", "C1"),
        ("decision", "decision"),
    ]
    assert decision.trace[-1].result == "ALLOW"


def test_untrusted_issuer_trace_has_no_signature_verdict():
    # No trusted key means the signature was never checked, so no PASS for it.
    decision = evaluate(make_engine(trusted_issuers={}), credential())
    assert decision.reason.code is DenyCode.ISSUER_UNTRUSTED
    assert [(e.stage, e.check, e.result.split(":")[0]) for e in decision.trace] == [
        ("container", "parse", "PASS"),
        ("container", "issuer trust", "FAIL"),
        ("decision", "decision", "DENY"),
    ]


def test_accepts_bytes_text_and_dict_forms():
    cred = credential()
    for form in (cred.dumps().encode(), cred.dumps(), cred.to_dict()):
        assert evaluate(make_engine(), parse_container(form)).allowed


def test_malformed_bytes_deny_as_signature_invalid():
    engine = make_engine()
    decision = engine.evaluate(b"\x00garbage", context(), "agent:test:worker", None, now=NOW)
    assert decision.reason.code is DenyCode.SIGNATURE_INVALID
    assert decision.trace[0].result.startswith("FAIL")
    assert decision.trace[-1].result == "DENY: signature_invalid"


def test_a_float_in_a_credential_denies_with_its_path_in_the_audit_record():
    engine = make_engine()
    cred = credential()
    raw = dict(cred.to_dict(), x_extra=1.5)
    decision = engine.evaluate(json.dumps(raw).encode(), context(), cred.subject_id, pop_for(cred), now=NOW)
    detail = "malformed container: float at $.x_extra is not canonicalizable; use a string decimal"
    assert (decision.reason.code, decision.reason.detail) == (DenyCode.SIGNATURE_INVALID, detail)
    [record] = engine.config.audit_log.records()
    assert record.raw["decision"]["detail"] == detail


def test_constraint_order_defines_labels():
    constraints = (
        NumericLimitConstraint(field="core.amount", operator="lte", value=Decimal("1000")),
        EnumeratedListConstraint(field="core.geo_region", allowed=frozenset({"eu"})),
        StringPatternConstraint(field="core.resource_id", match="prefix", pattern="jobs/"),
    )
    engine = make_engine()
    ctx = context(
        amount="100",
        **{
            "core.geo_region": (SemanticType.STRING_ID, "us"),
            "core.resource_id": (SemanticType.STRING_ID, "jobs/a"),
        },
    )
    decision = evaluate(engine, credential(payload=payload(constraints=constraints)), ctx)
    assert decision.reason.code is DenyCode.CONSTRAINT_FAILED
    assert decision.failed_constraint == "C2"
    labels = [e.check for e in decision.trace if e.stage == "constraints"]
    assert labels == ["C1", "C2"]  # C3 never ran


@pytest.mark.parametrize(
    "row, detail",
    [
        ({"type": "FancyConstraint", "field": "core.amount"}, "C1: constraint type 'FancyConstraint' is not recognized"),
        (
            {"type": "NumericLimitConstraint", "field": "core.amount", "operator": "lte", "value": "1000", "extra": "x"},
            "C1: constraint of known type 'NumericLimitConstraint' has a body that does not read",
        ),
    ],
    ids=["unknown tag", "known tag, extra member"],
)
def test_an_unreadable_constraint_is_denied_naming_its_defect(row, detail):
    body = credential().to_dict()
    del body["signature"]
    body["payload"]["constraints"] = [row]
    decision = evaluate(make_engine(), parse_container(attach_signature(body, ISSUER)))
    assert (decision.reason.code, decision.reason.detail) == (DenyCode.CONSTRAINT_UNKNOWN, detail)
    # The trace note names the same defect, in the same words.
    assert TraceEntry("constraints", "C1", f"FAIL: {detail.removeprefix('C1: ')}") in decision.trace


def test_permission_denied():
    engine = make_engine()
    decision = evaluate(engine, credential(), context(action="task.admin"))
    assert decision.reason.code is DenyCode.PERMISSION_DENIED


def test_context_field_missing():
    engine = make_engine()
    decision = evaluate(engine, credential(), context(amount=None))
    assert decision.reason.code is DenyCode.CONTEXT_FIELD_MISSING
    assert decision.failed_constraint == "C1"


def test_currency_gate_through_engine():
    constraints = (
        NumericLimitConstraint(
            field="core.amount", operator="lte", value=Decimal("1000"), currency="USD"
        ),
    )
    cred = credential(payload=payload(constraints=constraints))
    ok = evaluate(
        make_engine(), cred, context(**{"core.currency_code": (SemanticType.STRING_CODE, "USD")})
    )
    assert ok.allowed
    # Context with no currency field: the constraint fails on its own terms.
    missing = evaluate(make_engine(), cred, context())
    assert missing.reason.code is DenyCode.CONSTRAINT_FAILED
    wrong = evaluate(
        make_engine(), cred, context(**{"core.currency_code": (SemanticType.STRING_CODE, "EUR")})
    )
    assert wrong.reason.code is DenyCode.CONSTRAINT_FAILED


def test_mapping_profile_missing_denies_at_first_constraint():
    engine = make_engine(mapping_profile=None)
    decision = evaluate(engine, credential())
    assert decision.reason.code is DenyCode.MAPPING_PROFILE_MISSING
    assert decision.failed_constraint == "C1"


def test_aliased_profile_resolves_local_field_names():
    profile = build_mapping_profile(
        "claims",
        1,
        UNTIL,
        [AliasEntry("core.amount", "claim_total", SemanticType.DECIMAL)],
        STEWARD,
    )
    engine = make_engine(mapping_profile=profile)
    ctx = RequestContext(
        action="task.run",
        fields={"claim_total": parse_typed_value("250", SemanticType.DECIMAL)},
    )
    assert evaluate(engine, credential(), ctx).allowed


# --- memoized profile verdict -----------------------------------------------------

def evaluate_at(engine, cred, at):
    return engine.evaluate(cred, context(), cred.subject_id, pop_for(cred, at=at), now=at)


def test_cached_profile_still_goes_stale():
    profile = identity_mapping_profile([], NOW + timedelta(hours=1), STEWARD)
    engine = make_engine(mapping_profile=profile)
    cred = credential()
    assert evaluate_at(engine, cred, NOW).allowed
    stale = evaluate_at(engine, cred, NOW + timedelta(hours=2))
    assert stale.reason.code is DenyCode.MAPPING_PROFILE_INVALID
    assert stale.reason.detail == "C1: mapping profile is stale"


@pytest.mark.parametrize(
    "signer, rows, detail",
    [
        (
            generate_key("steward:test", seed="pipeline:impostor"),
            [AliasEntry("core.amount", "core.amount", SemanticType.DECIMAL)],
            "profile signature does not verify against any steward key",
        ),
        (
            STEWARD,
            [AliasEntry("core.amount", "core.amount", SemanticType.DECIMAL)] * 2,
            "duplicate alias row for core.amount",
        ),
    ],
    ids=["bad-signature", "duplicate-row"],
)
def test_cached_profile_verdict_denies_every_time(signer, rows, detail):
    engine = make_engine(mapping_profile=build_mapping_profile("claims", 1, UNTIL, rows, signer))
    cred = credential()
    for at in (NOW, NOW + timedelta(minutes=1)):
        decision = evaluate_at(engine, cred, at)
        assert decision.reason.code is DenyCode.MAPPING_PROFILE_INVALID
        assert decision.reason.detail == f"C1: {detail}"


# --- local policy ------------------------------------------------------------------

def test_local_policy_pass_appears_on_trace():
    policy = LocalPolicy(
        policy_id="check-amount",
        constraints=(
            NumericLimitConstraint(field="core.amount", operator="lte", value=Decimal("5000")),
        ),
    )
    engine = make_engine(local_policy=policy)
    decision = evaluate(engine, credential())
    assert decision.allowed
    assert ("policy", "local policy") in [(e.stage, e.check) for e in decision.trace]


def test_local_policy_denies_with_its_own_code():
    policy = LocalPolicy(
        policy_id="tight",
        constraints=(
            NumericLimitConstraint(field="core.amount", operator="lte", value=Decimal("100")),
        ),
    )
    engine = make_engine(local_policy=policy)
    decision = evaluate(engine, credential(), context(amount="250"))
    assert decision.reason.code is DenyCode.LOCAL_POLICY_DENIED
    assert decision.failed_constraint is None  # the credential's constraints all passed


def test_local_policy_required_field_missing():
    policy = LocalPolicy(policy_id="needs-workflow", required_context_fields=("core.workflow_id",))
    engine = make_engine(local_policy=policy)
    decision = evaluate(engine, credential())
    assert decision.reason.code is DenyCode.CONTEXT_FIELD_MISSING
    assert "local policy" in decision.reason.detail


def test_local_policy_never_rescues_a_denial():
    # Permissive local policy, failing credential constraint: still a denial.
    policy = LocalPolicy(
        policy_id="generous",
        constraints=(
            NumericLimitConstraint(field="core.amount", operator="lte", value=Decimal("999999")),
        ),
    )
    engine = make_engine(local_policy=policy)
    decision = evaluate(engine, credential(), context(amount="1500"))
    assert decision.reason.code is DenyCode.CONSTRAINT_FAILED
    assert decision.failed_constraint == "C1"


def currency_policy(value="5000"):
    limit = NumericLimitConstraint(
        field="core.amount", operator="lte", value=Decimal(value), currency="USD"
    )
    return LocalPolicy(policy_id="usd-ceiling", constraints=(limit,))


def test_a_currency_tagged_local_policy_limit_sees_the_request_currency():
    engine = make_engine(local_policy=currency_policy())
    usd = context(**{"core.currency_code": (SemanticType.STRING_CODE, "USD")})
    assert evaluate(engine, credential(), usd).allowed
    eur = context(**{"core.currency_code": (SemanticType.STRING_CODE, "EUR")})
    for ctx in (eur, context()):  # another currency, or none: the policy limit fails
        decision = evaluate(engine, credential(), ctx)
        assert decision.reason.code is DenyCode.LOCAL_POLICY_DENIED
        assert decision.trace[-2].stage == "policy"


def test_the_insurance_scenario_allows_under_a_usd_policy_ceiling():
    bundle = load_scenario("insurance_claims")
    policy = LocalPolicy(
        policy_id=bundle.local_policy.policy_id,
        required_context_fields=bundle.local_policy.required_context_fields,
        constraints=currency_policy("1000000").constraints,
    )
    config = bundle.engine_config(AuditLog(bundle.evaluator_id, AUDIT))
    engine = Engine(dataclasses.replace(config, local_policy=policy))
    decision = engine.evaluate(
        bundle.credential, bundle.contexts["allow"], bundle.credential.subject_id,
        bundle.possession_proof("usd-ceiling"), now=bundle.now,
    )
    assert decision.allowed, decision.reason


def test_a_policy_currency_that_does_not_resolve_denies_at_the_policy_stage():
    engine = make_engine(local_policy=currency_policy())
    mistyped = context(**{"core.currency_code": (SemanticType.DECIMAL, "840")})
    decision = evaluate(engine, credential(), mistyped)
    assert decision.reason.code is DenyCode.SEMANTIC_TYPE_MISMATCH
    assert (decision.trace[-2].stage, decision.trace[-2].check) == ("policy", "currency")


def test_a_cumulative_limit_in_a_local_policy_always_denies():
    limit = CumulativeLimitConstraint(
        field="core.amount",
        budget=Decimal("1000"),
        state_authority_pointer="https://state.test.example/ledger",
        period=Period(kind="per_credential"),
    )
    engine = make_engine(local_policy=LocalPolicy(policy_id="budget", constraints=(limit,)))
    decision = evaluate(engine, credential())
    assert decision.reason.code is DenyCode.LOCAL_POLICY_DENIED
    assert "stateful evaluation" in decision.reason.detail


# --- delegation chains ---------------------------------------------------------------

def delegate_credential(parent, subject_key, issuer_key, limit="500", **overrides):
    args = dict(
        payload=payload(
            agent_id=subject_key.key_id,
            issuer_id=issuer_key.key_id,
            constraints=(
                NumericLimitConstraint(
                    field="core.amount", operator="lte", value=Decimal(limit)
                ),
            ),
        ),
        subject_public_key=subject_key.public_hex,
        audience=[RECEIVER],
        valid_from=FROM,
        valid_until=UNTIL,
        issuer_key=issuer_key,
        parent=parent,
    )
    args.update(overrides)
    return issue_credential(**args)


def chain_of(length):
    links = [credential()]
    holder_keys = [SUBJECT]
    limit = 1000
    for depth in range(1, length):
        limit -= 100
        child = delegate_credential(
            links[-1], DELEGATES[depth - 1], holder_keys[-1], limit=str(limit)
        )
        links.append(child)
        holder_keys.append(DELEGATES[depth - 1])
    return links, holder_keys


def manual_link(issuer_key, issuer_id, subject_key, parent, permissions=("task.run",), limit="500"):
    body = {
        "kind": "credential",
        "credential_id": "cred-manual-link",
        "issuer_id": issuer_id,
        "subject_id": subject_key.key_id,
        "subject_public_key": {"suite": 1, "public_key": subject_key.public_hex},
        "audience": [RECEIVER],
        "valid_from": render_timestamp(FROM),
        "valid_until": render_timestamp(UNTIL),
        "parent_digest": parent.digest(),
        "payload": {
            "agent_id": subject_key.key_id,
            "issuer_id": issuer_id,
            "permissions": sorted(permissions),
            "constraints": [
                NumericLimitConstraint(
                    field="core.amount", operator="lte", value=Decimal(limit)
                ).to_dict()
            ],
        },
    }
    return parse_container(attach_signature(body, issuer_key))


MISSING = object()


def with_subject_suite(cred, issuer_key, suite):
    """``cred`` as a dict re-signed by ``issuer_key``, its subject key's suite
    replaced (dropped when ``suite`` is MISSING)."""
    body = {k: v for k, v in cred.raw.items() if k != "signature"}
    body["subject_public_key"] = {"public_key": cred.subject_public_key}
    if suite is not MISSING:
        body["subject_public_key"]["suite"] = suite
    return attach_signature(body, issuer_key)


SUITES = pytest.mark.parametrize(
    "suite, allowed", [(1, True), (7, False), (True, False), (MISSING, False)],
    ids=["1", "7", "true", "missing"],
)


@SUITES
def test_subject_key_suite_must_be_ed25519(suite, allowed):
    resigned = with_subject_suite(credential(), ISSUER, suite)
    pop = make_possession_proof(digest_object(resigned), RECEIVER, f"suite-{suite!r}", NOW, SUBJECT)
    decision = make_engine().evaluate(resigned, context(), SUBJECT.key_id, pop, now=NOW)
    assert decision.allowed is allowed
    if not allowed:
        assert decision.reason.code is DenyCode.SIGNATURE_INVALID
        assert "subject key suite" in decision.reason.detail


@SUITES
def test_chain_link_subject_key_suite_must_be_ed25519(suite, allowed):
    links, keys = chain_of(2)
    leaf = with_subject_suite(links[1], keys[0], suite)
    pop = make_possession_proof(digest_object(leaf), RECEIVER, f"suite-{suite!r}", NOW, keys[1])
    decision = make_engine().evaluate(
        [links[0], leaf], context(amount="100"), keys[1].key_id, pop, now=NOW
    )
    assert decision.allowed is allowed
    if not allowed:
        assert decision.reason.code is DenyCode.SIGNATURE_INVALID
        assert decision.reason.detail.startswith("malformed container in link 2")
        assert "subject key suite" in decision.reason.detail


def test_three_link_chain_allows_and_traces():
    links, keys = chain_of(3)
    engine = make_engine()
    decision = evaluate(engine, links, context(amount="100"), subject_key=keys[-1])
    assert decision.allowed
    checks = [e.check for e in decision.trace if e.stage == "chain"]
    assert "link 2 continuity" in checks and "link 3 attenuation" in checks


@pytest.mark.parametrize("length", [1, 3])
def test_each_presented_container_is_checked_for_completeness_once(monkeypatch, length):
    """Completeness is decided when a container is built: once per parsed
    link, and never again by the engine.  A link handed over as an object is
    parsed afresh from its signed ``raw``, so it is checked once too."""
    from mandate import container as container_module

    links, keys = chain_of(length)
    checked = []

    def counted(payload):
        checked.append(payload)
        return validate_payload(payload)

    monkeypatch.setattr(container_module, "validate_payload", counted)
    for presented in ([link.dumps().encode() for link in links], links):
        checked.clear()
        decision = make_engine().evaluate(
            presented if length > 1 else presented[0], context(amount="100"),
            links[-1].subject_id, pop_for(links[-1], keys[-1]), now=NOW,
        )
        assert decision.allowed
        assert len(checked) == length


def test_an_over_deep_chain_denies_before_any_link_is_parsed(monkeypatch):
    parsed = []
    real_parse = pipeline.parse_container

    def counted(data):
        parsed.append(data)
        return real_parse(data)

    monkeypatch.setattr(pipeline, "parse_container", counted)
    engine = make_engine()
    junk = [b"\x00 not a credential"] * (engine.config.max_chain_depth + 1)
    decision = engine.evaluate(junk, context(), SUBJECT.key_id, None, now=NOW)
    assert decision.reason.code is DenyCode.DELEGATION_DEPTH_EXCEEDED
    assert parsed == []
    assert [(e.stage, e.check) for e in decision.trace] == [("chain", "depth"), ("decision", "decision")]
    assert engine.config.audit_log.records()[0].raw["credential_digests"] == []


def test_chain_child_audience_beyond_its_parent_cannot_be_used():
    # Audiences are not compared at issue time; every link must name the
    # receiver instead, so the child's extra entry opens nothing.
    root = credential(audience=["svc:1"])
    child = delegate_credential(root, DELEGATES[0], SUBJECT, audience=["svc:1", "svc:evil"])
    for receiver, allowed in (("svc:evil", False), ("svc:1", True)):
        pop = make_possession_proof(child, receiver, f"aud-{receiver}", NOW, DELEGATES[0])
        decision = make_engine(evaluator_id=receiver).evaluate(
            [root, child], context(amount="100"), DELEGATES[0].key_id, pop, now=NOW
        )
        assert decision.allowed is allowed
        if not allowed:
            assert decision.reason.code is DenyCode.AUDIENCE_MISMATCH
            assert decision.reason.detail.startswith("link 1:")


def test_chain_depth_gate():
    links, keys = chain_of(5)
    engine = make_engine()
    decision = evaluate(engine, links, context(amount="100"), subject_key=keys[-1])
    assert decision.reason.code is DenyCode.DELEGATION_DEPTH_EXCEEDED


def test_chain_broken_wrong_parent_digest():
    root_a = credential()
    root_b = credential(payload=payload(permissions=("task.run", "task.extra")))
    child = delegate_credential(root_b, DELEGATES[0], SUBJECT)
    engine = make_engine()
    decision = evaluate(engine, [root_a, child], context(amount="100"), subject_key=DELEGATES[0])
    assert decision.reason.code is DenyCode.DELEGATION_CHAIN_BROKEN


def test_chain_broken_issuer_not_parent_subject():
    root = credential()
    outsider = generate_key("agent:test:outsider", seed="pipeline:outsider")
    child = manual_link(outsider, "agent:test:outsider", DELEGATES[0], root)
    engine = make_engine()
    decision = evaluate(engine, [root, child], context(amount="100"), subject_key=DELEGATES[0])
    assert decision.reason.code is DenyCode.DELEGATION_CHAIN_BROKEN
    assert "link 2" in decision.reason.detail


def test_chain_link_signed_by_wrong_key():
    # Continuity holds (issuer name matches) but the signature is not the
    # parent subject's key.
    root = credential()
    impostor = generate_key("agent:test:worker", seed="pipeline:impostor")
    child = manual_link(impostor, "agent:test:worker", DELEGATES[0], root)
    engine = make_engine()
    decision = evaluate(engine, [root, child], context(amount="100"), subject_key=DELEGATES[0])
    assert decision.reason.code is DenyCode.SIGNATURE_INVALID
    assert "link 2" in decision.reason.detail


def test_chain_widened_permissions():
    root = credential()
    child = manual_link(
        SUBJECT, "agent:test:worker", DELEGATES[0], root, permissions=("task.run", "task.admin")
    )
    engine = make_engine()
    decision = evaluate(engine, [root, child], context(amount="100"), subject_key=DELEGATES[0])
    assert decision.reason.code is DenyCode.DELEGATION_WIDENED
    assert "task.admin" in decision.reason.detail


def test_chain_widened_constraints():
    root = credential()
    child = manual_link(SUBJECT, "agent:test:worker", DELEGATES[0], root, limit="2000")
    engine = make_engine()
    decision = evaluate(engine, [root, child], context(amount="100"), subject_key=DELEGATES[0])
    assert decision.reason.code is DenyCode.DELEGATION_WIDENED


OUTSIDER = generate_key("agent:test:outsider", seed="pipeline:outsider")
EXTRA_PERMISSION = ("task.run", "task.admin")


@pytest.mark.parametrize(
    "issuer_key, window, permissions, code, check, note, phrase",
    [
        (
            OUTSIDER, (FROM, UNTIL), ("task.run",), DenyCode.DELEGATION_CHAIN_BROKEN, "continuity",
            "issuer 'agent:test:outsider' is not the parent subject",
            "issuer 'agent:test:outsider' is not the parent subject 'agent:test:worker'",
        ),
        (
            SUBJECT, (FROM - timedelta(days=1), UNTIL), ("task.run",), DenyCode.DELEGATION_WIDENED,
            "attenuation", "validity window widened", "validity window extends beyond its parent",
        ),
        (
            SUBJECT, (FROM, UNTIL + timedelta(days=1)), ("task.run",), DenyCode.DELEGATION_WIDENED,
            "attenuation", "validity window widened", "validity window extends beyond its parent",
        ),
        (
            SUBJECT, (FROM, UNTIL), EXTRA_PERMISSION, DenyCode.DELEGATION_WIDENED, "attenuation",
            "adds permissions ['task.admin']", "grants permissions its parent never held: ['task.admin']",
        ),
    ],
    ids=["issuer", "window-starts-earlier", "window-ends-later", "permission-added"],
)
def test_issuance_and_the_chain_check_agree_on_a_delegation_defect(
    issuer_key, window, permissions, code, check, note, phrase
):
    root = credential()
    child_payload = payload(DELEGATES[0].key_id, issuer_key.key_id, permissions)
    with pytest.raises(AttenuationViolation) as refused:
        issue_credential(
            payload=child_payload,
            subject_public_key=DELEGATES[0].public_hex,
            audience=[RECEIVER],
            valid_from=window[0],
            valid_until=window[1],
            issuer_key=issuer_key,
            parent=root,
        )
    assert str(refused.value) == f"delegation {phrase}"
    # The same child, signed directly, presented as the second link.
    body = {
        "kind": "credential",
        "credential_id": "cred-direct-child",
        "issuer_id": issuer_key.key_id,
        "subject_id": DELEGATES[0].key_id,
        "subject_public_key": {"suite": 1, "public_key": DELEGATES[0].public_hex},
        "audience": [RECEIVER],
        "valid_from": render_timestamp(window[0]),
        "valid_until": render_timestamp(window[1]),
        "parent_digest": root.digest(),
        "payload": child_payload.to_dict(),
    }
    child = parse_container(attach_signature(body, issuer_key))
    decision = evaluate(make_engine(), [root, child], context(amount="100"), subject_key=DELEGATES[0])
    assert (decision.reason.code, decision.reason.detail) == (code, f"link 2 {phrase}")
    assert decision.trace[-2] == TraceEntry("chain", f"link 2 {check}", f"FAIL: {note}")


def test_chain_leaf_constraint_governs_the_request():
    links, keys = chain_of(2)  # leaf limit 900
    engine = make_engine()
    decision = evaluate(engine, links, context(amount="950"), subject_key=keys[-1])
    assert decision.reason.code is DenyCode.CONSTRAINT_FAILED
    assert decision.failed_constraint == "C1"


def test_chain_revoking_root_kills_the_chain():
    links, keys = chain_of(3)
    store = RevocationStore()
    revocations = new_revocation_list(ISSUER.key_id, ISSUER, now=NOW)
    revocations = revoke(revocations, links[0].credential_id, ISSUER, now=NOW)
    store.update(revocations, ISSUER.public_hex)
    engine = make_engine(revocations=store)
    decision = evaluate(engine, links, context(amount="100"), subject_key=keys[-1])
    assert decision.reason.code is DenyCode.CREDENTIAL_REVOKED
    assert "link 1" in decision.reason.detail


def test_chain_pop_must_come_from_leaf_subject():
    links, keys = chain_of(2)
    engine = make_engine()
    # Proof signed by the root subject, not the leaf delegate.
    decision = engine.evaluate(
        links,
        context(amount="100"),
        links[-1].subject_id,
        pop_for(links[-1], SUBJECT),
        now=NOW,
    )
    assert decision.reason.code is DenyCode.PROOF_OF_POSSESSION_FAILED


def test_empty_chain_is_incomplete():
    engine = make_engine()
    decision = engine.evaluate([], context(), "agent:test:worker", None, now=NOW)
    assert decision.reason.code is DenyCode.CREDENTIAL_INCOMPLETE


def test_a_list_of_one_decides_and_records_as_the_credential_itself():
    bundle = load_scenario("insurance_claims")
    wire = bundle.credential.dumps().encode()
    for label in sorted(bundle.contexts):
        outcomes = []
        for presented in (wire, [wire], (bundle.credential,)):
            engine = Engine(bundle.engine_config(AuditLog(bundle.evaluator_id, bundle.keys["receiver"])))
            pop = bundle.possession_proof(f"one-{label}")
            decision = engine.evaluate(
                presented, bundle.contexts[label], bundle.credential.subject_id, pop, now=bundle.now
            )
            outcomes.append((decision.to_dict(), _body(engine.config.audit_log)))
        assert outcomes[1] == outcomes[0] == outcomes[2]
        assert outcomes[0][1]["operation"] == "evaluate"
        assert outcomes[0][0]["trace"][0]["stage"] == "container"
    nested = Engine(bundle.engine_config(AuditLog(bundle.evaluator_id, bundle.keys["receiver"])))
    decision = nested.evaluate([[wire]], context(), bundle.credential.subject_id, None, now=bundle.now)
    assert decision.reason.detail.startswith("malformed container in link 1")  # a list in a list is no credential


def test_a_delegated_decision_names_its_root_issuer_as_trust_anchor():
    links, keys = chain_of(3)
    engine = make_engine(max_chain_depth=3)
    for amount, allowed in (("100", True), ("900", False)):
        assert evaluate(engine, links, context(amount=amount), subject_key=keys[-1]).allowed is allowed
        record = _body(engine.config.audit_log)
        assert (record["operation"], record["governance"]["trust_anchor"]) == ("evaluate_chain", ISSUER.public_hex)
    broken = [links[0], links[2]]  # parsed, then refused on continuity: still anchored by its root
    assert evaluate(engine, broken, subject_key=keys[-1]).reason.code is DenyCode.DELEGATION_CHAIN_BROKEN
    assert _body(engine.config.audit_log)["governance"]["trust_anchor"] == ISSUER.public_hex
    too_deep, too_deep_keys = chain_of(4)  # refused before any link is parsed: no anchor
    decision = evaluate(engine, too_deep, subject_key=too_deep_keys[-1])
    assert decision.reason.code is DenyCode.DELEGATION_DEPTH_EXCEEDED
    assert _body(engine.config.audit_log)["governance"]["trust_anchor"] is None


# --- stateful constraint through the engine -----------------------------------------

def budget_engine(**overrides):
    """An engine whose credential spends a per-credential budget of 1000 on an
    in-memory state authority; returns the engine, the credential and the authority.
    ``overrides`` replace engine config fields, the tier among them."""
    from mandate.registry import IssuerEntry, StateAuthorityEntry, build_registry

    pointer = "https://state.test.example/ledger"
    registry = build_registry(
        registry_id="registry:test",
        version=1,
        valid_from=FROM,
        valid_until=UNTIL,
        issuers=[
            IssuerEntry(
                issuer_id=ISSUER.key_id,
                standing="active",
                credential_classes=frozenset({"*"}),
                profiles=frozenset({"*"}),
            )
        ],
        steward_key=STEWARD,
        state_authorities=[StateAuthorityEntry(pointer=pointer, profiles=frozenset({"*"}))],
    )
    constraints = (
        CumulativeLimitConstraint(
            field="core.amount",
            budget=Decimal("1000"),
            state_authority_pointer=pointer,
            period=Period(kind="per_credential"),
        ),
    )
    cred = credential(payload=payload(constraints=constraints))
    authority = InMemoryStateAuthority(pointer)
    engine = make_engine(**{"registries": (registry,), "state_clients": {pointer: authority}, **overrides})
    return engine, cred, authority


def test_cumulative_constraint_spends_through_state_client():
    engine, cred, _ = budget_engine()
    assert evaluate(engine, cred, context(amount="600")).allowed
    assert evaluate(engine, cred, context(amount="400")).allowed
    decision = evaluate(engine, cred, context(amount="1"))
    assert decision.reason.code is DenyCode.STATE_LIMIT_EXCEEDED
    assert decision.failed_constraint == "C1"


def test_a_spent_budget_denies_a_spend_the_default_decimal_context_would_round_away():
    """1000 + 1E-25 has 29 significant digits: rounded at 28, it reads 1000
    and fits the budget of 1000."""
    from mandate.constraints import Period

    engine, cred, authority = budget_engine()
    assert evaluate(engine, cred, context(amount="1000")).allowed
    for text in ("0.0000000000000000000000001", "0.0000000000000000000000004"):
        decision = evaluate(engine, cred, context(amount=text))
        assert decision.reason.code is DenyCode.STATE_LIMIT_EXCEEDED
    assert str(authority.spent(cred.digest(), Period(kind="per_credential"), NOW)) == "1000"


def test_an_epoch_bound_engine_keeps_one_slice_per_epoch_out_of_order():
    quota = EpochQuota("enforcer-1", Decimal("100"), epoch_length_seconds=3600)
    engine, cred, _ = budget_engine(tier="epoch_bound", epoch_ledger=EpochLedger(quota))
    day = parse_timestamp("2026-05-01T00:00:00Z")

    def spend(amount, at):
        at = day + at
        return engine.evaluate(cred, context(amount=amount), cred.subject_id, pop_for(cred, at=at), now=at)

    assert spend("100", timedelta(hours=2, seconds=10)).allowed
    assert spend("1", timedelta(hours=1, seconds=10)).allowed  # an earlier epoch's own slice
    decision = spend("100", timedelta(hours=2, seconds=20))  # the 02:00 epoch is already spent
    assert decision.reason.code is DenyCode.STATE_LIMIT_EXCEEDED
    assert decision.failed_constraint == "C1"


# --- workflow composition -------------------------------------------------------------

def workflow_policy(shared=("core.amount",)):
    return WorkflowPolicy(
        workflow_id="wf-1",
        roles=(
            WorkflowRole("runner", "iss:test:*", "task.run"),
            WorkflowRole("reviewer", "iss:test:*", "task.review"),
        ),
        shared_fields=tuple(shared),
    )


def reviewer_credential(limit="800", floor="0"):
    reviewer = generate_key("agent:test:reviewer", seed="pipeline:reviewer")
    return credential(
        payload=payload(
            agent_id="agent:test:reviewer",
            permissions=("task.review",),
            constraints=(
                NumericLimitConstraint(field="core.amount", operator="gte", value=Decimal(floor)),
                NumericLimitConstraint(
                    field="core.amount", operator="lte", value=Decimal(limit)
                ),
            ),
        ),
        subject_public_key=reviewer.public_hex,
    )


def test_workflow_composition_assigns_roles():
    engine = make_engine()
    runner = credential()
    reviewer = reviewer_credential()
    decision, composition = engine.compose_workflow(
        workflow_policy(), [runner, reviewer], now=NOW
    )
    assert decision.allowed
    assert composition.assignments == {
        "runner": runner.digest(),
        "reviewer": reviewer.digest(),
    }
    fields = {c.field for c in composition.effective_constraints}
    assert fields == {"core.amount"}


def test_workflow_unfilled_role():
    engine = make_engine()
    decision, composition = engine.compose_workflow(workflow_policy(), [credential()], now=NOW)
    assert decision.reason.code is DenyCode.WORKFLOW_POLICY_DENIED
    assert composition is None
    assert "reviewer" in decision.reason.detail


def test_workflow_joint_conflict_on_shared_field():
    engine = make_engine()
    runner = credential(
        payload=payload(
            constraints=(
                NumericLimitConstraint(field="core.amount", operator="gte", value=Decimal("900")),
            )
        )
    )
    reviewer = reviewer_credential(limit="100")
    decision, composition = engine.compose_workflow(
        workflow_policy(), [runner, reviewer], now=NOW
    )
    assert decision.reason.code is DenyCode.WORKFLOW_POLICY_DENIED
    assert composition is None
    assert "no value" in decision.reason.detail


def test_workflow_joint_conflict_keeps_the_stricter_bound_at_a_tie():
    # gt 5 and gte 5 meet at 5: the exclusive bound wins, so lte 5 leaves nothing.
    runner = credential(
        payload=payload(
            constraints=(
                NumericLimitConstraint(field="core.amount", operator="gt", value=Decimal("5")),
            )
        )
    )
    decision, composition = make_engine().compose_workflow(
        workflow_policy(), [runner, reviewer_credential(floor="5", limit="5")], now=NOW
    )
    assert decision.reason.code is DenyCode.WORKFLOW_POLICY_DENIED
    assert decision.reason.detail == "core.amount: joint numeric bounds admit no value"
    assert composition is None


def test_workflow_policy_refuses_a_string_for_its_shared_fields():
    # Read as characters, "core.amount" shares no real field, so the runner
    # gte 900 and reviewer lte 100 pair below would compose.
    body = workflow_policy().to_dict()
    body["shared_fields"] = "core.amount"
    with pytest.raises(ValueParseError):
        WorkflowPolicy.from_dict(body)
    runner = credential(
        payload=payload(
            constraints=(
                NumericLimitConstraint(field="core.amount", operator="gte", value=Decimal("900")),
            )
        )
    )
    decision, _ = make_engine().compose_workflow(
        WorkflowPolicy.from_dict(workflow_policy().to_dict()),
        [runner, reviewer_credential(limit="100")],
        now=NOW,
    )
    assert decision.reason.code is DenyCode.WORKFLOW_POLICY_DENIED


@pytest.mark.parametrize("fields", ["core.workflow_id", ["core.workflow_id", 7]])
def test_local_policy_refuses_anything_but_a_list_of_field_names(fields):
    with pytest.raises(ValueParseError):
        LocalPolicy.from_dict({"policy_id": "p", "required_context_fields": fields})


def test_workflow_untrusted_credential_fails_verification():
    engine = make_engine(trusted_issuers={})
    decision, composition = engine.compose_workflow(workflow_policy(), [credential()], now=NOW)
    assert decision.reason.code is DenyCode.ISSUER_UNTRUSTED


# --- audit coupling --------------------------------------------------------------------

def test_every_evaluation_writes_one_verifiable_record():
    engine = make_engine()
    evaluate(engine, credential())
    evaluate(engine, credential(), context(amount="5000"))
    records = engine.config.audit_log.records()
    assert len(records) == 2
    assert records[0].raw["decision"]["outcome"] == "ALLOW"
    assert records[1].raw["decision"]["outcome"] == "DENY"
    assert records[1].raw["decision"]["code"] == "constraint_failed"
    ok, bad, _ = verify_audit_chain(records, {AUDIT.key_id: AUDIT.public_hex})
    assert ok, bad


def test_audit_snapshot_keeps_only_resolved_fields():
    engine = make_engine()
    ctx = context(
        amount="250",
        **{
            "core.geo_region": (SemanticType.STRING_ID, "eu"),  # never resolved by any constraint
        },
    )
    evaluate(engine, credential(), ctx)
    record = engine.config.audit_log.records()[0]
    assert "core.amount" in record.raw["context"]
    assert "core.geo_region" not in record.raw["context"]


def test_audit_governance_pins_profile_and_anchor():
    engine = make_engine()
    evaluate(engine, credential())
    governance = engine.config.audit_log.records()[0].raw["governance"]
    assert governance["mapping_profile"] == engine.config.mapping_profile.digest()
    assert governance["trust_anchor"] == ISSUER.public_hex
    assert governance["tier"] == "synchronous"


def test_unwritable_audit_log_turns_allow_into_deny(tmp_path):
    log = AuditLog(RECEIVER, AUDIT, path=tmp_path / "missing" / "audit.log")
    engine = make_engine(audit_log=log)
    decision = evaluate(engine, credential())
    assert decision.outcome == "DENY"
    assert decision.reason.code is DenyCode.LOCAL_POLICY_DENIED
    assert "audit" in decision.reason.detail
    audit_entry, closing = decision.trace[-2:]
    assert (audit_entry.stage, audit_entry.check) == ("decision", "audit")
    assert audit_entry.result.startswith("FAIL: cannot append audit record")
    assert (closing.stage, closing.check, closing.result) == (
        "decision", "decision", "DENY: local_policy_denied",
    )
    assert not any(entry.result == "ALLOW" for entry in decision.trace)


def test_after_a_failed_audit_write_every_decision_denies(tmp_path, monkeypatch):
    path = tmp_path / "audit.log"
    engine = make_engine(audit_log=AuditLog(RECEIVER, AUDIT, path=path))
    assert evaluate(engine, credential()).allowed
    handle = engine.config.audit_log._file._handle

    def disk_full(data):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(handle, "write", disk_full)
    details = []
    for _ in range(3):
        decision = evaluate(engine, credential())
        assert decision.reason.code is DenyCode.LOCAL_POLICY_DENIED
        details.append(decision.reason.detail)
    assert "No space left on device" in details[0]
    assert all("refuses appends" in detail for detail in details[1:])
    assert len(path.read_bytes().splitlines()) == 1


def test_unwritable_audit_log_keeps_the_failed_check_of_a_denial(tmp_path):
    log = AuditLog(RECEIVER, AUDIT, path=tmp_path / "missing" / "audit.log")
    engine = make_engine(audit_log=log)
    decision = evaluate(engine, credential(), context(amount="5000"))
    assert decision.reason.code is DenyCode.LOCAL_POLICY_DENIED
    assert decision.failed_constraint is None
    assert [(e.stage, e.check, e.result.split(":")[0]) for e in decision.trace[-3:]] == [
        ("constraints", "C1", "FAIL"),
        ("decision", "audit", "FAIL"),
        ("decision", "decision", "DENY"),
    ]
    assert decision.trace[-1].result == "DENY: local_policy_denied"


def test_denials_leave_no_reference_cycles():
    # A caught denial must not stay reachable from the frame that caught it:
    # its traceback would pin every frame of the evaluation until a GC pass.
    engine = make_engine()
    # The second link names the root's issuer, not the root's subject, as issuer.
    broken_chain = [credential(), credential()]
    gc.collect()
    gc.disable()
    try:
        decisions = [
            evaluate(engine, credential(), context(amount="5000")),
            evaluate(engine, credential(), context(action="task.delete")),
            evaluate(engine, broken_chain),
            engine.evaluate([], context(), SUBJECT.key_id, now=NOW),
            engine.compose_workflow(workflow_policy(), [], now=NOW)[0],
        ]
        garbage = gc.collect()
    finally:
        gc.enable()
    assert [d.reason.code for d in decisions] == [
        DenyCode.CONSTRAINT_FAILED,
        DenyCode.PERMISSION_DENIED,
        DenyCode.DELEGATION_CHAIN_BROKEN,
        DenyCode.CREDENTIAL_INCOMPLETE,
        DenyCode.WORKFLOW_POLICY_DENIED,
    ]
    assert garbage == 0


def test_a_file_backed_engine_keeps_almost_nothing_per_evaluation(tmp_path):
    """Soak: audit records and ledger rows live on disk, not in memory.  What
    an evaluation may keep is its nonce in the replay cache."""
    import tracemalloc

    from mandate.stateful import FileStateAuthority

    engine, cred, authority = budget_engine()
    pointer = authority.authority_id
    engine.config.audit_log = AuditLog(RECEIVER, AUDIT, path=tmp_path / "audit.log")
    engine.config.state_clients = {pointer: FileStateAuthority(pointer, tmp_path / "ledger.log")}
    wire, ctx = cred.dumps().encode(), context(amount="0.01")

    def run(count):
        for _ in range(count):
            assert engine.evaluate(wire, ctx, cred.subject_id, pop_for(cred), now=NOW).allowed

    tracemalloc.start()
    try:
        run(500)  # warm-up: kept containers, key objects, profile verdicts
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        run(4500)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept / 4500 < 400, f"{kept / 4500:.0f} bytes kept per evaluation"
    assert len((tmp_path / "audit.log").read_bytes().splitlines()) == 5000


# --- determinism -----------------------------------------------------------------------

def test_identical_configurations_decide_identically():
    cred = credential().to_dict()
    ctx = context(amount="999.99")
    a = make_engine()
    b = make_engine()
    pop = make_possession_proof(parse_container(cred), RECEIVER, "shared-nonce", NOW, SUBJECT)
    da = a.evaluate(cred, ctx, "agent:test:worker", pop, now=NOW)
    db = b.evaluate(cred, ctx, "agent:test:worker", pop, now=NOW)
    assert da.to_dict() == db.to_dict()


# --- totality on deep nesting ------------------------------------------------------------

def nested_in_extra_field(depth):
    text = credential().dumps()
    return (text[:-1] + ',"zz_extra":' + "[" * depth + "]" * depth + "}").encode()


@pytest.mark.parametrize(
    "wire",
    [nested_in_extra_field(990), b"[" * 100000],
    ids=["depth-990-extra-field", "depth-100000-array"],
)
def test_deeply_nested_bytes_deny_and_are_audited(wire):
    engine = make_engine()
    decision = engine.evaluate(wire, context(), SUBJECT.key_id, None, now=NOW)
    assert decision.reason.code is DenyCode.SIGNATURE_INVALID
    assert decision.reason.detail == "malformed container: container nesting is too deep"
    assert len(engine.config.audit_log.records()) == 1


# --- verified-credential cache -------------------------------------------------------------

OTHER_ISSUER_KEY = generate_key("iss:test:authority", seed="pipeline:rotated-issuer")


def present(engine, cred, at=NOW, pop=None):
    """Evaluate ``cred`` presented as its wire bytes, as a receiver receives it."""
    return engine.evaluate(
        cred.dumps().encode(), context(), cred.subject_id, pop or pop_for(cred, at=at), now=at
    )


def warm(engine, cred):
    """Present ``cred`` until the engine keeps its parsed container."""
    for _ in range(2):
        assert present(engine, cred).allowed
    assert engine._parsed[cred.dumps().encode()] is not None


def present_chain(engine, links, holder_key, amount="100"):
    return engine.evaluate(
        [link.dumps().encode() for link in links],
        context(amount=amount),
        links[-1].subject_id,
        pop_for(links[-1], holder_key),
        now=NOW,
    )


def vetting_registry(version, issuer_ids):
    from mandate.registry import IssuerEntry, build_registry

    return build_registry(
        registry_id="registry:test",
        version=version,
        valid_from=FROM,
        valid_until=UNTIL,
        issuers=[
            IssuerEntry(
                issuer_id=issuer_id,
                standing="active",
                credential_classes=frozenset({"*"}),
                profiles=frozenset({"*"}),
            )
            for issuer_id in issuer_ids
        ],
        steward_key=STEWARD,
    )


def test_cached_credential_denies_once_its_revocation_list_names_it():
    cred = credential()
    store = RevocationStore()
    revocations = new_revocation_list(ISSUER.key_id, ISSUER, now=NOW)
    store.update(revocations, ISSUER.public_hex)
    engine = make_engine(revocations=store)
    warm(engine, cred)
    store.update(revoke(revocations, cred.credential_id, ISSUER, now=NOW), ISSUER.public_hex)
    assert present(engine, cred).reason.code is DenyCode.CREDENTIAL_REVOKED


def test_cached_credential_denies_after_valid_until():
    cred = credential(valid_until=NOW + timedelta(hours=1))
    engine = make_engine()
    warm(engine, cred)
    assert present(engine, cred, at=NOW + timedelta(hours=2)).reason.code is DenyCode.CREDENTIAL_EXPIRED


def test_cached_credential_is_verified_afresh_against_a_rekeyed_issuer():
    from dataclasses import replace

    cred = credential()
    engine = make_engine()
    warm(engine, cred)
    pinned = engine.config
    engine.config = replace(pinned, trusted_issuers={ISSUER.key_id: OTHER_ISSUER_KEY.public_hex})
    decision = present(engine, cred)
    assert decision.reason.code is DenyCode.SIGNATURE_INVALID
    assert decision.reason.detail == "issuer signature does not verify"
    engine.config = pinned
    assert present(engine, cred).allowed


def test_cached_credential_denies_once_the_registry_drops_its_issuer():
    from dataclasses import replace

    cred = credential()
    engine = make_engine(registries=(vetting_registry(1, [ISSUER.key_id]),))
    warm(engine, cred)
    engine.config = replace(engine.config, registries=(vetting_registry(2, []),))
    assert present(engine, cred).reason.code is DenyCode.ISSUER_NOT_VETTED


def test_cached_credential_denies_a_replayed_nonce():
    cred = credential()
    engine = make_engine()
    warm(engine, cred)
    pop = pop_for(cred)
    assert present(engine, cred, pop=pop).allowed
    decision = present(engine, cred, pop=pop)
    assert decision.reason.code is DenyCode.PROOF_OF_POSSESSION_FAILED
    assert decision.reason.detail == "nonce replayed"


def test_parsed_credentials_kept_never_exceed_the_bound(monkeypatch):
    import mandate.pipeline
    from mandate.pipeline import PARSED_CREDENTIALS_KEPT

    parsed = []

    def counting_parse(data):
        parsed.append(data)
        return parse_container(data)

    monkeypatch.setattr(mandate.pipeline, "parse_container", counting_parse)
    creds = [credential(credential_id=f"cred-bound-{i}") for i in range(PARSED_CREDENTIALS_KEPT + 2)]
    wires = [cred.dumps().encode() for cred in creds]
    engine = make_engine()
    for cred in creds[:PARSED_CREDENTIALS_KEPT]:
        assert present(engine, cred).allowed
    assert parsed == wires[:PARSED_CREDENTIALS_KEPT]
    # Bytes presented once keep no parsed container.
    assert set(engine._parsed.values()) == {None}
    # The second presentation is parsed and kept, the third is not parsed;
    # each makes its bytes the most recently presented, so the next new
    # credential evicts the oldest other one.
    for cred in (creds[0], creds[0], creds[PARSED_CREDENTIALS_KEPT], creds[1]):
        assert present(engine, cred).allowed
        assert len(engine._parsed) <= PARSED_CREDENTIALS_KEPT
    assert parsed[PARSED_CREDENTIALS_KEPT:] == [wires[0], wires[PARSED_CREDENTIALS_KEPT], wires[1]]
    for _ in range(2):
        for cred in creds:
            present(engine, cred)
            assert len(engine._parsed) <= PARSED_CREDENTIALS_KEPT
    assert len(engine._parsed) == PARSED_CREDENTIALS_KEPT


def test_malformed_presentations_are_never_kept():
    engine = make_engine()
    for _ in range(2):
        decision = engine.evaluate(b"\x00garbage", context(), SUBJECT.key_id, None, now=NOW)
        assert decision.reason.code is DenyCode.SIGNATURE_INVALID
    assert engine._parsed == {}


def test_issuer_signature_is_checked_once_per_container_and_key(monkeypatch):
    import mandate.container

    checked = []

    def counting_check(obj, public_hex, **kwargs):
        if obj.get("kind") == "credential":
            checked.append((obj["credential_id"], public_hex))
        return check_signature(obj, public_hex, **kwargs)

    monkeypatch.setattr(mandate.container, "check_signature", counting_check)
    cred = credential(credential_id="cred-single")
    links, keys = chain_of(3)
    engine = make_engine()
    # The first presentation's container is not kept; the second's is.
    for _ in range(2):
        assert present(engine, cred).allowed
        assert present_chain(engine, links, keys[-1]).allowed
    assert sorted(set(checked)) == sorted(
        [(cred.credential_id, ISSUER.public_hex), (links[0].credential_id, ISSUER.public_hex)]
        + [(link.credential_id, holder.public_hex) for link, holder in zip(links[1:], keys)]
    )
    assert len(checked) == 2 * 4
    checked.clear()
    for _ in range(3):
        assert present(engine, cred).allowed
        assert present_chain(engine, links, keys[-1]).allowed
    assert checked == []
    # A container presented as an object is parsed afresh from its signed
    # raw, so each presentation is checked against that engine's issuer key.
    rekeyed = make_engine(trusted_issuers={ISSUER.key_id: OTHER_ISSUER_KEY.public_hex})
    for _ in range(2):
        assert evaluate(engine, cred).allowed
        assert evaluate(rekeyed, cred).reason.code is DenyCode.SIGNATURE_INVALID
    assert checked == [
        (cred.credential_id, ISSUER.public_hex),
        (cred.credential_id, OTHER_ISSUER_KEY.public_hex),
    ] * 2


def test_long_lived_engine_decides_like_a_fresh_engine_per_request():
    cred = credential()
    links, keys = chain_of(3)
    revoked = credential(credential_id="cred-revoked")
    store = RevocationStore()
    store.update(
        new_revocation_list(ISSUER.key_id, ISSUER, now=NOW, revoked=[revoked.credential_id]),
        ISSUER.public_hex,
    )
    wire = cred.dumps().encode()
    chain_wire = [link.dumps().encode() for link in links]

    def requests():
        # Each request carries its own nonce, so a fresh engine sees no replay.
        for _ in range(3):
            yield wire, context(), cred.subject_id, pop_for(cred)
            yield wire, context(amount="5000"), cred.subject_id, pop_for(cred)
            yield cred.dumps(), context(action="task.delete"), cred.subject_id, pop_for(cred)
            yield cred.to_dict(), context(), cred.subject_id, pop_for(cred)
            yield chain_wire, context(amount="100"), links[-1].subject_id, pop_for(links[-1], keys[-1])
            yield chain_wire, context(amount="900"), links[-1].subject_id, pop_for(links[-1], keys[-1])
            yield revoked.dumps().encode(), context(), revoked.subject_id, pop_for(revoked)
            yield b"\x00garbage", context(), SUBJECT.key_id, None

    long_lived = make_engine(revocations=store)
    kept, fresh_records, fresh_decisions = [], [], []
    for presented, ctx, presenter, pop in requests():
        kept.append(long_lived.evaluate(presented, ctx, presenter, pop, now=NOW).to_dict())
        fresh = make_engine(revocations=store)
        fresh_decisions.append(fresh.evaluate(presented, ctx, presenter, pop, now=NOW).to_dict())
        fresh_records.extend(fresh.config.audit_log.records())
    assert kept == fresh_decisions
    assert {d["outcome"] for d in kept} == {"ALLOW", "DENY"}

    def unlinked(record):
        # prev_record, and the record id and signature that cover it, differ
        # between one chain and many one-record chains.
        return {k: v for k, v in record.raw.items() if k not in ("prev_record", "record_id", "signature")}

    assert [unlinked(r) for r in long_lived.config.audit_log.records()] == [
        unlinked(r) for r in fresh_records
    ]


# --- the request is typed at the door -------------------------------------------------

def _mistyped(request: str, ctx, presenter):
    from mandate.model import TypedValue

    fields = dict(ctx.fields)
    if request == "presenter":
        return ctx, 2.5
    if request == "action":
        return RequestContext(action=2.5, fields=fields), presenter
    if request == "context":
        return ctx.to_dict(), presenter
    if request == "field value":
        fields["core.amount"] = "250"
    elif request == "field text":
        fields["core.amount"] = TypedValue(SemanticType.DECIMAL, Decimal("250"), 250.0)
    elif request == "field name":
        fields[7] = fields["core.amount"]
    return RequestContext(action=ctx.action, fields=fields), presenter


@pytest.mark.parametrize("request_part", ["presenter", "action", "context", "field value", "field text", "field name"])
def test_a_mistyped_request_raises_before_any_state_changes(request_part):
    from mandate.constraints import Period

    engine, cred, authority = budget_engine()
    wire, pop = cred.dumps().encode(), pop_for(cred)
    ctx, presenter = _mistyped(request_part, context(), cred.subject_id)
    with pytest.raises(TypeError):
        engine.evaluate(wire, ctx, presenter, pop, now=NOW)
    # No record, no spend, and the proof's nonce is still unused.
    assert engine.config.audit_log.records() == []
    assert authority.spent(cred.digest(), Period(kind="per_credential"), NOW) == 0
    assert engine.evaluate(wire, context(), cred.subject_id, pop, now=NOW).allowed


@pytest.mark.parametrize("part", ["proof dict", "proof str", "proof int", "vouchers str", "voucher dict", "voucher set"])
def test_a_mistyped_proof_or_voucher_list_raises_before_any_state_changes(part):
    from mandate.constraints import Period

    engine, cred, authority = budget_engine()
    wire, pop = cred.dumps().encode(), pop_for(cred)
    mistyped = {
        "proof dict": (pop.to_dict(), None),
        "proof str": (pop.nonce, None),
        "proof int": (7, None),
        "vouchers str": (pop, "v"),
        "voucher dict": (pop, [{"kind": "state_voucher"}]),
        "voucher set": (pop, set()),
    }
    proof, vouchers = mistyped[part]
    with pytest.raises(TypeError, match="pop must be|vouchers must be"):
        engine.evaluate(wire, context(), cred.subject_id, proof, now=NOW, vouchers=vouchers)
    # No record, no spend, and the proof's nonce is still unused.
    assert engine.config.audit_log.records() == []
    assert authority.spent(cred.digest(), Period(kind="per_credential"), NOW) == 0
    assert engine.evaluate(wire, context(), cred.subject_id, pop, now=NOW).allowed


@pytest.mark.parametrize("clock", ["naive", "text", "date"])
def test_a_mistyped_clock_raises_before_any_state_changes(clock):
    from mandate.constraints import Period

    engine, cred, authority = budget_engine()
    wire, pop = cred.dumps().encode(), pop_for(cred)
    now = {"naive": NOW.replace(tzinfo=None), "text": "2026-04-18T14:32:00Z", "date": NOW.date()}[clock]
    with pytest.raises(TypeError, match="now must be"):
        engine.evaluate(wire, context(), cred.subject_id, pop, now=now)
    with pytest.raises(TypeError, match="now must be"):
        engine.compose_workflow(workflow_policy(), [credential(), reviewer_credential()], now=now)
    # No record, no spend, nothing parsed, and the proof's nonce is still unused.
    assert engine.config.audit_log.records() == []
    assert authority.spent(cred.digest(), Period(kind="per_credential"), NOW) == 0
    assert engine._parsed == {}
    assert engine.evaluate(wire, context(), cred.subject_id, pop, now=NOW).allowed


@pytest.mark.parametrize("request_part", ["presenter", "action", "field text", "field name"])
def test_request_text_that_is_not_utf8_raises_before_any_state_changes(request_part):
    from mandate.constraints import Period

    engine, cred, authority = budget_engine()
    wire, pop = cred.dumps().encode(), pop_for(cred)
    presenter, ctx = cred.subject_id, context()
    if request_part == "presenter":
        presenter = "agent:\ud800"
    elif request_part == "action":
        ctx = RequestContext(action="task.\ud800", fields=ctx.fields)
    elif request_part == "field text":
        ctx = context(**{"core.resource_id": (SemanticType.STRING_ID, "jobs/\ud800")})
    else:
        ctx = RequestContext(action=ctx.action, fields={**ctx.fields, "core.\ud800": ctx.fields["core.amount"]})
    with pytest.raises(ValueError, match="not UTF-8 text"):
        engine.evaluate(wire, ctx, presenter, pop, now=NOW)
    # No record, no spend, and the proof's nonce is still unused.
    assert engine.config.audit_log.records() == []
    assert authority.spent(cred.digest(), Period(kind="per_credential"), NOW) == 0
    assert engine.evaluate(wire, context(), cred.subject_id, pop, now=NOW).allowed


def test_a_container_with_a_mistyped_field_cannot_be_built():
    from dataclasses import replace

    cred = credential()
    for name, value in (("subject_id", 2.5), ("credential_id", None), ("digest_hex", None)):
        with pytest.raises(TypeError, match=name):
            replace(cred, **{name: value})
    bad_field = NumericLimitConstraint(field=7, operator="lte", value=Decimal("1"))
    with pytest.raises(TypeError, match="constraint"):
        replace(cred, payload=payload(constraints=(bad_field,)))


@pytest.mark.parametrize("part", ["workflow_id", "role_id", "shared field"])
def test_a_mistyped_workflow_policy_raises_before_any_check(part):
    policy = workflow_policy()
    if part == "workflow_id":
        policy = WorkflowPolicy(1.5, policy.roles, policy.shared_fields)
    elif part == "role_id":
        policy = WorkflowPolicy(policy.workflow_id, (WorkflowRole(1.5, "iss:test:*", "task.run"),))
    else:
        policy = WorkflowPolicy(policy.workflow_id, policy.roles, (1.5,))
    engine = make_engine()
    with pytest.raises(TypeError, match=part):
        engine.compose_workflow(policy, [credential(), reviewer_credential()], now=NOW)
    assert engine.config.audit_log.records() == []


@pytest.mark.parametrize(
    "override",
    [
        {"evaluator_id": 1.5},
        {"profile_id": None},
        {"credential_class": b"agent-authorization"},
        {"manifest_digest": 7},
        {"trusted_issuers": {ISSUER.key_id: 1.5}},
        {"trusted_issuers": {7: ISSUER.public_hex}},
    ],
    ids=lambda override: next(iter(override)) + "=" + repr(next(iter(override.values()))),
)
def test_a_mistyped_engine_config_field_raises(override):
    with pytest.raises(TypeError):
        make_engine(**override)


def test_each_artifact_types_the_ids_it_brings_to_the_audit_record():
    from dataclasses import replace
    from mandate.keys import SigningKey

    registry = vetting_registry(1, [ISSUER.key_id])
    for field, value in (("registry_id", 5), ("version", True), ("version", 1.0)):
        with pytest.raises(TypeError):
            replace(registry, **{field: value})
    with pytest.raises(TypeError):
        LocalPolicy(policy_id=1.5)
    with pytest.raises(TypeError):
        SigningKey(key_id=1.5, private_bytes=AUDIT.private_bytes)
    with pytest.raises(TypeError):
        AuditLog(1.5, AUDIT)
    with pytest.raises(TypeError):
        AuditLog(RECEIVER, AUDIT, environment=1.5)


# --- what a kept credential holds -----------------------------------------------------

def test_a_kept_container_holds_its_verdicts_and_signing_bytes():
    from dataclasses import replace
    from mandate.canonical import signing_bytes

    cred = credential()
    engine = make_engine()
    warm(engine, cred)
    kept = engine._parsed[cred.dumps().encode()].container
    assert kept.rendered == signing_bytes(cred.raw)
    assert kept.completeness is None
    assert kept._signature_verdicts == {ISSUER.public_hex: True}
    # A replaced payload carries its own verdict, but the engine decides as
    # the signed raw, whose payload is complete.
    incomplete = replace(kept, payload=payload(permissions=()))
    assert incomplete.completeness == validate_payload(incomplete.payload)
    assert incomplete.completeness.code is DenyCode.CREDENTIAL_INCOMPLETE
    assert evaluate(make_engine(), incomplete).allowed


# A possession proof object's fields are not what its presenter signed: the
# engine reads the proof's signed raw, so rewriting them gains nothing.

def _claims_engine():
    bundle = load_scenario("insurance_claims")
    engine = Engine(bundle.engine_config(AuditLog(bundle.evaluator_id, bundle.keys["receiver"])))
    return bundle, engine


def _present_claim(bundle, engine, pop):
    return engine.evaluate(
        bundle.credential.dumps().encode(), bundle.contexts["allow"], bundle.credential.subject_id, pop, now=bundle.now
    )


def _rewritten_proof(bundle, engine, member):
    """A proof whose ``member`` was rewritten to what would pass: a used
    nonce made fresh, an hour-old timestamp moved to now, a proof for another
    receiver or another credential readdressed to this one."""
    made = dict(audience=bundle.evaluator_id, nonce=f"n-{member}", now=bundle.now, digest=bundle.credential.digest())
    if member == "nonce":
        used = bundle.possession_proof("n-1")
        assert _present_claim(bundle, engine, used).allowed
        return dataclasses.replace(used, nonce="n-2")
    if member == "timestamp":
        made["now"] = bundle.now - timedelta(hours=1)
    elif member == "audience":
        made["audience"] = "svc:elsewhere"
    else:
        made["digest"] = "0" * 64
    pop = make_possession_proof(made["digest"], made["audience"], made["nonce"], made["now"], bundle.keys["subject"])
    return dataclasses.replace(pop, **{member: getattr(bundle.possession_proof(f"n-{member}-fresh"), member)})


@pytest.mark.parametrize("member", ["nonce", "timestamp", "audience", "credential_digest"])
def test_a_proof_decides_as_its_signed_bytes(member):
    bundle, engine = _claims_engine()
    decision = _present_claim(bundle, engine, _rewritten_proof(bundle, engine, member))
    assert decision.reason.code is DenyCode.PROOF_OF_POSSESSION_FAILED


@pytest.mark.parametrize("raw", [{}, {"kind": "possession_proof"}, None])
def test_a_proof_whose_signed_raw_does_not_read_fails(raw):
    bundle, engine = _claims_engine()
    pop = dataclasses.replace(bundle.possession_proof("n-1"), raw=raw)
    decision = _present_claim(bundle, engine, pop)
    assert decision.reason.code is DenyCode.PROOF_OF_POSSESSION_FAILED
    assert "proof does not read" in decision.reason.detail


def test_a_container_object_decides_as_its_signed_bytes():
    """The issuer signature covers only ``raw``: a container whose other
    fields were replaced grants nothing the issuer did not sign."""
    from dataclasses import replace

    cred = credential()
    widened = replace(cred, payload=payload(permissions=("task.run", "admin.delete")))
    for presented in (cred, widened):
        decision = evaluate(make_engine(), presented, context(action="admin.delete"))
        assert decision.reason.code is DenyCode.PERMISSION_DENIED
    assert evaluate(make_engine(), widened).allowed


# --- one spelling per signature ----------------------------------------------------------

def test_a_respelled_spent_credential_opens_no_fresh_budget():
    """The shipped budget is keyed by the credential's digest.  Upper-case
    signature hex would give the same grant a new digest, so it is refused;
    text that only re-spells the JSON keeps the digest, and the spent budget."""
    from mandate.canonical import load_json
    from mandate.conformance import build_engine

    vectors = Path(__file__).resolve().parent.parent / "vectors"
    vector = load_json((vectors / "stateful" / "state-limit-exceeded.json").read_bytes())
    entry, original = vector["input"], vector["input"]["credentials"][0]
    subject = generate_key("agent:vectors:worker", seed="vectors:subject")
    assert subject.public_hex == original["subject_public_key"]["public_key"]

    def present_spelling(raw: dict, presented):
        digest = parse_container(raw).digest()
        pop = make_possession_proof(digest, "svc:vectors:receiver", f"respelled-{digest}", NOW, subject)
        engine, now = build_engine(vector["fixtures"], label=vector["vector_id"])
        ctx = RequestContext.from_dict(entry["context"])
        return engine.evaluate(presented, ctx, entry["presenter"], pop, now=now)

    uppercase = json.loads(json.dumps(original))
    uppercase["signature"]["value"] = uppercase["signature"]["value"].upper()
    assert present_spelling(uppercase, uppercase).reason.code is DenyCode.SIGNATURE_INVALID
    spaced = json.dumps(original, indent=2, ensure_ascii=True).encode()
    decision = present_spelling(original, spaced)
    assert (decision.reason.code, decision.failed_constraint) == (DenyCode.STATE_LIMIT_EXCEEDED, "C1")


def test_an_amount_too_long_to_record_denies_before_any_reserve(tmp_path):
    """A context decimal written in 100,003 characters is tiny and within the
    budget, but a file ledger would write it as a 100 kB row: the request
    denies constraint_failed and the ledger file is left as it was."""
    from mandate.stateful import FileStateAuthority

    pointer = "https://state.test.example/ledger"
    path = tmp_path / "ledger.jsonl"
    ledger = FileStateAuthority(pointer, path)
    engine, cred, _ = budget_engine(state_clients={pointer: ledger})
    assert evaluate(engine, cred, context(amount="1")).allowed
    before = path.read_bytes()
    decision = evaluate(engine, cred, context(amount="0." + "0" * 100_000 + "1"))
    assert decision.reason.code is DenyCode.CONSTRAINT_FAILED
    assert decision.failed_constraint == "C1"
    assert path.read_bytes() == before
    assert evaluate(engine, cred, context(amount="2")).allowed
