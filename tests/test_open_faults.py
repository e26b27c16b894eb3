"""Probes for faults that are known and not yet mended.

Each test asserts the behaviour the engine should have and is marked
``xfail(strict=True)`` with the ROADMAP item or CHANGES.md FOUND line it
stands for.  While the fault stands the test fails on its assertion, as
expected (any other exception is a real failure); the change that mends it
makes the test pass, which strict mode reports as a failure until that
change takes the marker off.  A mended fault's test stays here, unmarked,
and guards the mend.
"""

from decimal import Decimal

import pytest

from mandate.constraints import CumulativeLimitConstraint, NumericLimitConstraint, Period
from mandate.container import issue_credential
from mandate.discovery import build_manifest
from mandate.model import AuthorizationPayload, DenyCode, SemanticType
from mandate.pipeline import LocalPolicy
from mandate.registry import IssuerEntry, StateAuthorityEntry, build_registry
from test_pipeline import (
    AUDIT,
    DELEGATES,
    FROM,
    ISSUER,
    RECEIVER,
    STEWARD,
    SUBJECT,
    UNTIL,
    budget_engine,
    context,
    credential,
    evaluate,
    payload,
)

POINTER = "https://state.test.example/ledger"


def cumulative(field, budget):
    return CumulativeLimitConstraint(
        field=field, budget=Decimal(budget), state_authority_pointer=POINTER, period=Period(kind="per_credential")
    )


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 11, CHANGES.md FOUND: two cumulative limits on one credential share one running total",
)
def test_two_cumulative_limits_on_one_credential_keep_their_own_totals():
    engine, _, _ = budget_engine()
    cred = credential(payload=payload(constraints=(cumulative("core.amount", "1000"), cumulative("core.quantity", "10"))))
    decision = evaluate(engine, cred, context(amount="20", **{"core.quantity": (SemanticType.DECIMAL, "1")}))
    # While the fault stands: DENY state_limit_exceeded "C2: 21 would exceed budget 10".
    assert decision.allowed, decision.reason


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 11, CHANGES.md FOUND: a request denied after a cumulative limit reserved keeps its spend",
)
def test_a_denied_request_spends_nothing():
    cap = LocalPolicy("cap", (), (NumericLimitConstraint(field="core.amount", operator="lte", value=Decimal("500")),))
    engine, cred, _ = budget_engine(local_policy=cap)
    assert evaluate(engine, cred, context(amount="600")).reason.code is DenyCode.LOCAL_POLICY_DENIED
    # The denied 600 must not count against the budget of 1000.
    decision = evaluate(engine, cred, context(amount="500"))
    assert decision.allowed, decision.reason


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 13: sibling delegations each spend the root's whole cumulative budget",
)
def test_sibling_delegations_share_their_root_budget():
    engine, root, _ = budget_engine()
    delegate = DELEGATES[0]
    spent = Decimal(0)
    for i in range(3):
        child = issue_credential(
            payload=AuthorizationPayload(
                agent_id=delegate.key_id,
                issuer_id=SUBJECT.key_id,
                permissions=frozenset({"task.run"}),
                constraints=(cumulative("core.amount", "1000"),),
            ),
            subject_public_key=delegate.public_hex,
            audience=[RECEIVER],
            valid_from=FROM,
            valid_until=UNTIL,
            issuer_key=SUBJECT,
            parent=root,
            credential_id=f"sibling-{i}",
        )
        for amount in ("600", "400"):
            decision = evaluate(engine, [root, child], context(amount=amount), subject_key=delegate)
            if decision.allowed:
                spent += Decimal(amount)
            else:
                assert decision.reason.code is DenyCode.STATE_LIMIT_EXCEEDED
    # While the fault stands all six requests ALLOW: 3,000 spent.
    assert spent <= 1000


def test_the_manifest_advertises_no_state_authority_the_engine_refuses():
    registry = build_registry(
        registry_id="registry:test",
        version=1,
        valid_from=FROM,
        valid_until=UNTIL,
        issuers=[IssuerEntry(ISSUER.key_id, "active", frozenset({"*"}), frozenset({"*"}))],
        steward_key=STEWARD,
        state_authorities=[StateAuthorityEntry(pointer=POINTER, profiles=frozenset({"profile:other"}))],
    )
    engine, cred, _ = budget_engine(registries=(registry,), profile_id="profile:mine")
    assert evaluate(engine, cred).reason.code is DenyCode.STATE_AUTHORITY_UNPERMITTED
    manifest = build_manifest(engine.config, AUDIT, version=1, valid_from=FROM, valid_until=UNTIL)
    assert POINTER not in manifest.accepted_state_authorities
