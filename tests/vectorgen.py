"""Deterministic generation of the shipped conformance vector suite.

Every vector is built from seeded keys and fixed instants, so regenerating
the tree produces byte-identical files.  The suite covers every denial code
at least once, ALLOW rows for every constraint family and enforcement
feature, transport-encoding equivalence, delegation chains, and the stateful
tiers, laid out one canonical JSON file per vector in the five level
directories.  Test tooling, not part of the package; from the repository
root, ``PYTHONPATH=src:tests python3 -c "from vectorgen import write_vectors;
write_vectors('vectors')"`` regenerates ``vectors/``.
"""

from __future__ import annotations

import json
from datetime import datetime, timedelta
from decimal import Decimal
from pathlib import Path
from typing import Optional, Sequence, Union

from mandate.canonical import canonical_bytes, canonical_dumps, load_json, sha256_hex, to_transport
from mandate.constraints import (
    Constraint,
    CumulativeLimitConstraint,
    EnumeratedListConstraint,
    NumericLimitConstraint,
    Period,
    StringPatternConstraint,
    TemporalWindowConstraint,
    constraint_from_dict,
)
from mandate.container import (
    CredentialContainer,
    issue_credential,
    make_possession_proof,
    new_revocation_list,
    revoke,
)
from mandate.keys import SigningKey, attach_signature, generate_key
from mandate.model import (
    AuthorizationPayload,
    SemanticType,
    parse_timestamp,
    render_timestamp,
)
from mandate.registry import IssuerEntry, StateAuthorityEntry, build_registry
from mandate.scenarios import load_scenario
from mandate.semantics import (
    STATUS_CONDITIONAL,
    AliasEntry,
    Vocabulary,
    VocabularyEntry,
    build_mapping_profile,
    identity_mapping_profile,
)
from mandate.stateful import VOUCHER_GENESIS, make_voucher, update_voucher

NOW = parse_timestamp("2026-05-01T12:00:00Z")
POINTER = "https://state.vectors.example/ledger"
PROFILE = "vectors"


def _copy(obj: dict) -> dict:
    return load_json(canonical_dumps(obj))


class _Kit:
    """Shared deterministic fixture material for the generated suite."""

    def __init__(self) -> None:
        self.issuer = generate_key("iss:vectors:authority", seed="vectors:issuer")
        self.subject = generate_key("agent:vectors:worker", seed="vectors:subject")
        self.delegate = generate_key("agent:vectors:delegate-1", seed="vectors:delegate-1")
        self.delegate2 = generate_key("agent:vectors:delegate-2", seed="vectors:delegate-2")
        self.delegate3 = generate_key("agent:vectors:delegate-3", seed="vectors:delegate-3")
        self.delegate4 = generate_key("agent:vectors:delegate-4", seed="vectors:delegate-4")
        self.impostor = generate_key("agent:vectors:impostor", seed="vectors:impostor")
        self.steward = generate_key("steward:vectors", seed="vectors:steward")
        self.receiver = generate_key("svc:vectors:receiver", seed="vectors:receiver")
        self.audit = generate_key("svc:vectors:receiver#audit", seed="vectors:audit")
        self.authority = generate_key(POINTER, seed="vectors:state-authority")

        self.vocabulary = Vocabulary(
            profile_id=PROFILE,
            version=1,
            entries={
                "vectors.category": VocabularyEntry(
                    "vectors.category", SemanticType.STRING_ID, STATUS_CONDITIONAL
                ),
            },
        )
        self.mapping = identity_mapping_profile(
            [self.vocabulary],
            valid_until=parse_timestamp("2027-01-01T00:00:00Z"),
            steward_key=self.steward,
            profile_id=PROFILE,
            version=1,
        )
        self.valid_from = parse_timestamp("2026-01-01T00:00:00Z")
        self.valid_until = parse_timestamp("2026-12-31T23:59:59Z")

    # -- artifacts ---------------------------------------------------------

    def constraints(self) -> tuple[Constraint, ...]:
        return (
            NumericLimitConstraint(
                field="core.amount", operator="lte", value=Decimal("1000"), currency="USD"
            ),
            EnumeratedListConstraint(
                field="vectors.category", allowed=frozenset({"standard", "priority"})
            ),
            StringPatternConstraint(
                field="core.resource_id", match="restricted_glob", pattern="jobs/*/run"
            ),
            TemporalWindowConstraint(
                field="core.request_time",
                valid_from=self.valid_from,
                valid_until=self.valid_until,
                timezone="UTC",
            ),
        )

    def credential(
        self,
        constraints: Optional[Sequence[Constraint]] = None,
        permissions: frozenset[str] = frozenset({"task.run"}),
        audience: Optional[Sequence[str]] = None,
        subject: Optional[SigningKey] = None,
        issuer: Optional[SigningKey] = None,
        parent: Optional[CredentialContainer] = None,
        valid_from: Optional[datetime] = None,
        valid_until: Optional[datetime] = None,
    ) -> CredentialContainer:
        subject = subject or self.subject
        issuer = issuer or self.issuer
        payload = AuthorizationPayload(
            agent_id=subject.key_id,
            issuer_id=issuer.key_id,
            permissions=permissions,
            constraints=tuple(self.constraints() if constraints is None else constraints),
        )
        return issue_credential(
            payload,
            subject_public_key=subject.public_hex,
            audience=list(audience) if audience is not None else [self.receiver.key_id],
            valid_from=valid_from or self.valid_from,
            valid_until=valid_until or self.valid_until,
            issuer_key=issuer,
            parent=parent,
        )

    def manual_container(
        self,
        signing_key: SigningKey,
        issuer_id: str,
        subject: SigningKey,
        payload: dict,
        parent_digest: Optional[str] = None,
        audience: Optional[Sequence[str]] = None,
        valid_from: Optional[datetime] = None,
        valid_until: Optional[datetime] = None,
    ) -> dict:
        """A container built without issuance guards, for invalid-artifact vectors."""
        body: dict = {
            "kind": "credential",
            "issuer_id": issuer_id,
            "subject_id": subject.key_id,
            "subject_public_key": {"suite": 1, "public_key": subject.public_hex},
            "audience": sorted(audience or [self.receiver.key_id]),
            "valid_from": render_timestamp(valid_from or self.valid_from),
            "valid_until": render_timestamp(valid_until or self.valid_until),
            "payload": payload,
        }
        if parent_digest is not None:
            body["parent_digest"] = parent_digest
        body["credential_id"] = "cred-manual-" + sha256_hex(canonical_bytes(body))[:12]
        return attach_signature(body, signing_key)

    def registry(self, with_pointer: bool = True, with_issuer: bool = True) -> dict:
        issuers = []
        if with_issuer:
            issuers.append(
                IssuerEntry(
                    issuer_id=self.issuer.key_id,
                    standing="active",
                    credential_classes=frozenset({"agent-authorization"}),
                    profiles=frozenset({PROFILE}),
                )
            )
        authorities = []
        if with_pointer:
            authorities.append(
                StateAuthorityEntry(pointer=POINTER, profiles=frozenset({PROFILE}))
            )
        built = build_registry(
            registry_id="registry:vectors",
            version=1,
            valid_from=self.valid_from,
            valid_until=parse_timestamp("2027-01-01T00:00:00Z"),
            issuers=issuers,
            steward_key=self.steward,
            state_authorities=authorities,
        )
        return built.to_dict()

    # -- fixture and input scaffolding ----------------------------------------

    def fixtures(self, **overrides) -> dict:
        base = {
            "now": render_timestamp(NOW),
            "evaluator_id": self.receiver.key_id,
            "audit_key": self.audit.to_dict(),
            "trusted_issuers": {self.issuer.key_id: self.issuer.public_hex},
            "steward_keys": {self.steward.key_id: self.steward.public_hex},
            "vocabularies": [self.vocabulary.to_dict()],
            "mapping_profile": self.mapping.to_dict(),
            "profile_id": PROFILE,
        }
        base.update(overrides)
        return base

    def context(self, **overrides) -> dict:
        fields = {
            "core.amount": {"type": "decimal", "value": "250"},
            "core.currency_code": {"type": "string_code", "value": "USD"},
            "vectors.category": {"type": "string_id", "value": "standard"},
            "core.resource_id": {"type": "string_id", "value": "jobs/alpha/run"},
            "core.request_time": {"type": "timestamp", "value": render_timestamp(NOW)},
        }
        action = overrides.pop("action", "task.run")
        for name, value in overrides.items():
            if value is None:
                fields.pop(name, None)
            else:
                fields[name] = value
        return {"kind": "request_context", "action": action, "fields": fields}

    def pop(
        self,
        credential: Union[CredentialContainer, dict],
        nonce: str,
        subject: Optional[SigningKey] = None,
        at: Optional[datetime] = None,
        audience: Optional[str] = None,
    ) -> dict:
        digest = (
            credential.digest()
            if isinstance(credential, CredentialContainer)
            else sha256_hex(canonical_bytes(credential))
        )
        return make_possession_proof(
            digest,
            audience or self.receiver.key_id,
            nonce,
            at or NOW,
            subject or self.subject,
        ).to_dict()


def _vector(vector_id: str, description: str, fixtures: dict, entry: dict, expected: dict) -> dict:
    return {
        "kind": "test_vector",
        "vector_id": vector_id,
        "description": description,
        "fixtures": fixtures,
        "input": entry,
        "expected": expected,
    }


def _allow(**extra) -> dict:
    row = {"outcome": "ALLOW", "code": None}
    row.update(extra)
    return row


def _deny(code: str, **extra) -> dict:
    row = {"outcome": "DENY", "code": code}
    row.update(extra)
    return row


def _worked_trace_vectors() -> list[tuple[str, dict]]:
    bundle = load_scenario("insurance_claims")
    audit_key = generate_key("svc:bodyshopco:claims-api#audit", seed="vectors:insurance:audit")
    fixtures = {
        "now": render_timestamp(bundle.now),
        "evaluator_id": bundle.evaluator_id,
        "audit_key": audit_key.to_dict(),
        "trusted_issuers": {
            bundle.credential.issuer_id: bundle.keys["issuer"].public_hex
        },
        "steward_keys": {
            bundle.keys["steward"].key_id: bundle.keys["steward"].public_hex
        },
        "vocabularies": [v.to_dict() for v in bundle.vocabularies],
        "mapping_profile": bundle.mapping_profile.to_dict(),
        "profile_id": bundle.profile_id,
        "local_policy": bundle.local_policy.to_dict() if bundle.local_policy else None,
    }
    rows = []
    for name, expected in (
        ("allow", _allow(failed_constraint=None)),
        ("deny_over_ceiling", _deny("constraint_failed", failed_constraint="C2")),
    ):
        entry = {
            "credentials": [bundle.credential.to_dict()],
            "presenter": bundle.credential.subject_id,
            "pop": bundle.possession_proof(f"nonce-worked-{name}").to_dict(),
            "context": bundle.contexts[name].to_dict(),
        }
        rows.append(
            (
                "level1_evaluation",
                _vector(
                    f"level1/worked-trace-{name}",
                    f"settlement negotiation reference case, context {name!r}",
                    _copy(fixtures),
                    entry,
                    expected,
                ),
            )
        )
    return rows


def _level1_vectors(kit: _Kit) -> list[tuple[str, dict]]:
    rows: list[tuple[str, dict]] = []
    cred = kit.credential()

    def standard_input(vector_id: str, **context_overrides) -> dict:
        return {
            "credentials": [cred.to_dict()],
            "presenter": kit.subject.key_id,
            "pop": kit.pop(cred, f"nonce-{vector_id}"),
            "context": kit.context(**context_overrides),
        }

    def add(name: str, description: str, entry: dict, expected: dict, fixtures: Optional[dict] = None):
        rows.append(
            (
                "level1_evaluation",
                _vector(
                    f"level1/{name}", description, fixtures or kit.fixtures(), entry, expected
                ),
            )
        )

    add(
        "allow-baseline",
        "all four constraint families pass",
        standard_input("allow-baseline"),
        _allow(),
    )

    tampered = _copy(cred.to_dict())
    tampered["valid_until"] = "2027-06-30T00:00:00Z"
    add(
        "signature-invalid-tampered",
        "validity window altered after signing",
        {
            "credentials": [tampered],
            "presenter": kit.subject.key_id,
            "pop": kit.pop(tampered, "nonce-signature-invalid-tampered"),
            "context": kit.context(),
        },
        _deny("signature_invalid"),
    )
    add(
        "signature-invalid-malformed",
        "presented bytes are not a credential",
        {
            "credentials": [
                {"encoding": "base64url", "value": to_transport(b'{"kind":"credential",')}
            ],
            "presenter": kit.subject.key_id,
            "pop": None,
            "context": kit.context(),
        },
        _deny("signature_invalid"),
    )
    duplicated = b'{"audience":["svc:attacker"],' + canonical_bytes(cred.to_dict())[1:]
    add(
        "signature-invalid-duplicate-member",
        "a member named twice, which first-wins and last-wins parsers read as different grants",
        {
            "credentials": [{"encoding": "base64url", "value": to_transport(duplicated)}],
            "presenter": kit.subject.key_id,
            "pop": kit.pop(cred, "nonce-signature-invalid-duplicate-member"),
            "context": kit.context(),
        },
        _deny("signature_invalid"),
    )
    uppercase = _copy(cred.to_dict())
    uppercase["signature"]["value"] = uppercase["signature"]["value"].upper()
    add(
        "signature-invalid-uppercase-hex",
        "the signature value re-spelled in upper-case hex, which would give the same grant a new digest",
        {
            "credentials": [uppercase],
            "presenter": kit.subject.key_id,
            "pop": kit.pop(uppercase, "nonce-signature-invalid-uppercase-hex"),
            "context": kit.context(),
        },
        _deny("signature_invalid"),
    )
    basic_format = attach_signature({**cred.to_dict(), "valid_until": "20261231T235959Z"}, kit.issuer)
    add(
        "signature-invalid-timestamp-not-rfc3339",
        "a signed validity bound in ISO 8601 basic format, which RFC 3339 does not allow",
        {
            "credentials": [basic_format],
            "presenter": kit.subject.key_id,
            "pop": kit.pop(basic_format, "nonce-signature-invalid-timestamp-not-rfc3339"),
            "context": kit.context(),
        },
        _deny("signature_invalid"),
    )
    # Ingress: text that some JSON parsers accept, and read as a value other
    # than any canonical credential's, is refused before anything is verified.
    signed = canonical_bytes(cred.to_dict())
    for name, description, data in (
        (
            "float",
            "a signed integer re-spelled as the float 1.0, which some parsers read as the integer 1",
            signed.replace(b'"suite":1}', b'"suite":1.0}', 1),
        ),
        (
            "nan",
            "a NaN where a signed integer stood, which JSON does not allow",
            signed.replace(b'"suite":1}', b'"suite":NaN}', 1),
        ),
        (
            "not-utf8",
            "a credential id carrying a byte that is not UTF-8, which lenient decoders replace or drop",
            signed.replace(b'"credential_id":"', b'"credential_id":"\xff', 1),
        ),
        (
            "lone-surrogate",
            "a credential id carrying a lone surrogate escape, which no UTF-8 text can hold",
            signed.replace(b'"credential_id":"', b'"credential_id":"\\ud800', 1),
        ),
        (
            "bom",
            "the credential's bytes after a UTF-8 byte order mark, which RFC 8259 forbids senders to add",
            b"\xef\xbb\xbf" + signed,
        ),
    ):
        assert data != signed
        add(
            f"signature-invalid-{name}",
            description,
            {
                "credentials": [{"encoding": "base64url", "value": to_transport(data)}],
                "presenter": kit.subject.key_id,
                "pop": kit.pop(cred, f"nonce-signature-invalid-{name}"),
                "context": kit.context(),
            },
            _deny("signature_invalid"),
        )
    add(
        "issuer-untrusted",
        "issuer absent from the receiver's trusted set",
        standard_input("issuer-untrusted"),
        _deny("issuer_untrusted"),
        fixtures=kit.fixtures(trusted_issuers={}),
    )
    add(
        "issuer-not-vetted",
        "registry configured but does not list the issuer",
        standard_input("issuer-not-vetted"),
        _deny("issuer_not_vetted"),
        fixtures=kit.fixtures(registries=[kit.registry(with_issuer=False)]),
    )
    other_aud = kit.credential(audience=["svc:vectors:other"])
    add(
        "audience-mismatch",
        "credential addressed to a different service",
        {
            "credentials": [other_aud.to_dict()],
            "presenter": kit.subject.key_id,
            "pop": kit.pop(other_aud, "nonce-audience-mismatch", audience="svc:vectors:other"),
            "context": kit.context(),
        },
        _deny("audience_mismatch"),
    )
    add(
        "pop-missing",
        "no proof of possession presented",
        {
            "credentials": [cred.to_dict()],
            "presenter": kit.subject.key_id,
            "pop": None,
            "context": kit.context(),
        },
        _deny("proof_of_possession_failed"),
    )
    replay_input = standard_input("pop-replay")
    add(
        "pop-replay",
        "same nonce presented twice to one receiver",
        {**replay_input, "prior": [replay_input]},
        _deny("proof_of_possession_failed"),
    )
    add(
        "subject-binding-mismatch",
        "valid possession proof, different presenter identity",
        {
            "credentials": [cred.to_dict()],
            "presenter": kit.impostor.key_id,
            "pop": kit.pop(cred, "nonce-subject-binding-mismatch"),
            "context": kit.context(),
        },
        _deny("subject_binding_mismatch"),
    )
    late = parse_timestamp("2027-02-01T00:00:00Z")
    add(
        "credential-expired",
        "evaluation after the validity window closes",
        {
            "credentials": [cred.to_dict()],
            "presenter": kit.subject.key_id,
            "pop": kit.pop(cred, "nonce-credential-expired", at=late),
            "context": kit.context(),
        },
        _deny("credential_expired"),
        fixtures=kit.fixtures(now=render_timestamp(late)),
    )
    revoked_list = new_revocation_list(kit.issuer.key_id, kit.issuer, now=NOW - timedelta(hours=1))
    revoked_list = revoke(revoked_list, cred.credential_id, kit.issuer, now=NOW - timedelta(minutes=30))
    add(
        "credential-revoked",
        "credential id present on the issuer's revocation list",
        standard_input("credential-revoked"),
        _deny("credential_revoked"),
        fixtures=kit.fixtures(
            revocation_lists=[
                {"list": revoked_list.to_dict(), "issuer_public": kit.issuer.public_hex}
            ]
        ),
    )
    stale_list = new_revocation_list(
        kit.issuer.key_id, kit.issuer, now=NOW - timedelta(days=2)
    )
    add(
        "credential-revoked-stale-list",
        "revocation list older than the configured bound counts against the credential",
        standard_input("credential-revoked-stale-list"),
        _deny("credential_revoked"),
        fixtures=kit.fixtures(
            revocation_lists=[
                {"list": stale_list.to_dict(), "issuer_public": kit.issuer.public_hex}
            ],
            revocation_max_age_seconds=3600,
        ),
    )
    incomplete = kit.manual_container(
        kit.issuer,
        kit.issuer.key_id,
        kit.subject,
        payload={
            "agent_id": kit.subject.key_id,
            "issuer_id": kit.issuer.key_id,
            "constraints": [c.to_dict() for c in kit.constraints()],
        },
    )
    add(
        "credential-incomplete",
        "payload carries no permission set",
        {
            "credentials": [incomplete],
            "presenter": kit.subject.key_id,
            "pop": kit.pop(incomplete, "nonce-credential-incomplete"),
            "context": kit.context(),
        },
        _deny("credential_incomplete"),
    )
    add(
        "permission-denied",
        "requested action is outside the granted set",
        standard_input("permission-denied", action="task.admin"),
        _deny("permission_denied"),
    )
    unknown_constraint = constraint_from_dict(
        {"type": "rate_limit", "field": "core.amount", "window": "PT1H", "max": "10"}
    )
    unknown_cred = kit.credential(constraints=(*kit.constraints(), unknown_constraint))
    add(
        "constraint-unknown",
        "unrecognized constraint type must deny, not be skipped",
        {
            "credentials": [unknown_cred.to_dict()],
            "presenter": kit.subject.key_id,
            "pop": kit.pop(unknown_cred, "nonce-constraint-unknown"),
            "context": kit.context(),
        },
        _deny("constraint_unknown", failed_constraint="C5"),
    )
    newline_body = _copy(cred.to_dict())
    newline_body["payload"]["constraints"][0]["value"] = "1000\n"
    newline_limit = attach_signature(newline_body, kit.issuer)
    add(
        "constraint-unknown-trailing-newline",
        "a signed limit of decimal text with a trailing newline is no decimal the engine reads",
        {
            "credentials": [newline_limit],
            "presenter": kit.subject.key_id,
            "pop": kit.pop(newline_limit, "nonce-constraint-unknown-trailing-newline"),
            "context": kit.context(),
        },
        _deny("constraint_unknown", failed_constraint="C1"),
    )
    odd_period = constraint_from_dict(
        {
            "type": "CumulativeLimitConstraint",
            "field": "core.amount",
            "budget": "5000",
            "period": {"kind": "per_credential", "window": "day"},
            "state_authority_pointer": POINTER,
        }
    )
    odd_period_cred = kit.credential(constraints=(*kit.constraints(), odd_period))
    add(
        "constraint-unknown-period-member",
        "a cumulative limit whose period carries a member no period has is unknown, not a per-credential limit",
        {
            "credentials": [odd_period_cred.to_dict()],
            "presenter": kit.subject.key_id,
            "pop": kit.pop(odd_period_cred, "nonce-constraint-unknown-period-member"),
            "context": kit.context(),
        },
        _deny("constraint_unknown", failed_constraint="C5"),
    )
    add(
        "context-field-missing",
        "constraint references a field the context does not carry",
        standard_input("context-field-missing", **{"core.amount": None}),
        _deny("context_field_missing", failed_constraint="C1"),
    )
    add(
        "constraint-failed-numeric",
        "amount exceeds the numeric ceiling",
        standard_input(
            "constraint-failed-numeric", **{"core.amount": {"type": "decimal", "value": "2500"}}
        ),
        _deny("constraint_failed", failed_constraint="C1"),
    )
    add(
        "constraint-failed-temporal",
        "request instant outside the authorized window",
        standard_input(
            "constraint-failed-temporal",
            **{"core.request_time": {"type": "timestamp", "value": "2025-12-31T00:00:00Z"}},
        ),
        _deny("constraint_failed", failed_constraint="C4"),
    )
    add(
        "constraint-failed-enumerated",
        "category outside the allowed enumeration",
        standard_input(
            "constraint-failed-enumerated",
            **{"vectors.category": {"type": "string_id", "value": "experimental"}},
        ),
        _deny("constraint_failed", failed_constraint="C2"),
    )
    add(
        "constraint-failed-pattern",
        "resource outside the governed namespace",
        standard_input(
            "constraint-failed-pattern",
            **{"core.resource_id": {"type": "string_id", "value": "jobs/alpha/stop"}},
        ),
        _deny("constraint_failed", failed_constraint="C3"),
    )
    tight_policy = {
        "kind": "local_policy",
        "policy_id": "vectors-receiver-policy",
        "required_context_fields": [],
        "constraints": [
            NumericLimitConstraint(
                field="core.amount", operator="lte", value=Decimal("100")
            ).to_dict()
        ],
    }
    add(
        "local-policy-denied",
        "receiver's own ceiling is below the credential's",
        standard_input("local-policy-denied"),
        _deny("local_policy_denied"),
        fixtures=kit.fixtures(local_policy=tight_policy),
    )
    currency_policy = {
        "kind": "local_policy",
        "policy_id": "vectors-receiver-policy",
        "required_context_fields": [],
        "constraints": [
            NumericLimitConstraint(
                field="core.amount", operator="lte", value=Decimal("1000000"), currency="USD"
            ).to_dict()
        ],
    }
    add(
        "allow-local-policy-currency",
        "receiver's currency-tagged ceiling sees the request currency",
        standard_input("allow-local-policy-currency"),
        _allow(),
        fixtures=kit.fixtures(local_policy=currency_policy),
    )
    requiring_policy = {
        "kind": "local_policy",
        "policy_id": "vectors-receiver-policy",
        "required_context_fields": ["core.workflow_id"],
        "constraints": [],
    }
    add(
        "local-policy-context-field-missing",
        "local policy requires a field the context lacks",
        standard_input("local-policy-context-field-missing"),
        _deny("context_field_missing"),
        fixtures=kit.fixtures(local_policy=requiring_policy),
    )
    workflow_policy = {
        "workflow_id": "wf-vectors-1",
        "roles": [
            {
                "role_id": "runner",
                "issuer_pattern": "iss:vectors:*",
                "required_permission": "task.run",
            }
        ],
        "shared_fields": ["core.amount"],
    }
    add(
        "workflow-allow",
        "single role filled by a verified credential",
        {"credentials": [cred.to_dict()], "workflow": workflow_policy},
        _allow(),
    )
    unfillable = {
        "workflow_id": "wf-vectors-2",
        "roles": [
            {
                "role_id": "auditor",
                "issuer_pattern": "iss:audit:*",
                "required_permission": "audit.view",
            }
        ],
        "shared_fields": [],
    }
    add(
        "workflow-policy-denied",
        "required role cannot be filled by any presented credential",
        {"credentials": [cred.to_dict()], "workflow": unfillable},
        _deny("workflow_policy_denied"),
    )
    return rows


def _level2_vectors(kit: _Kit) -> list[tuple[str, dict]]:
    rows: list[tuple[str, dict]] = []
    cred = kit.credential()

    def standard_input(vector_id: str, context: Optional[dict] = None) -> dict:
        return {
            "credentials": [cred.to_dict()],
            "presenter": kit.subject.key_id,
            "pop": kit.pop(cred, f"nonce-{vector_id}"),
            "context": context or kit.context(),
        }

    def add(name, description, entry, expected, fixtures=None):
        rows.append(
            (
                "level2_semantic",
                _vector(f"level2/{name}", description, fixtures or kit.fixtures(), entry, expected),
            )
        )

    add(
        "mapping-profile-missing",
        "no mapping profile configured",
        standard_input("mapping-profile-missing"),
        _deny("mapping_profile_missing"),
        fixtures=kit.fixtures(mapping_profile=None),
    )
    tampered = _copy(kit.mapping.to_dict())
    tampered["aliases"][0]["field"] = "tampered_name"
    add(
        "mapping-profile-invalid-signature",
        "alias row altered after the steward signed",
        standard_input("mapping-profile-invalid-signature"),
        _deny("mapping_profile_invalid"),
        fixtures=kit.fixtures(mapping_profile=tampered),
    )
    stale = identity_mapping_profile(
        [kit.vocabulary],
        valid_until=parse_timestamp("2026-01-15T00:00:00Z"),
        steward_key=kit.steward,
        profile_id=PROFILE,
        version=1,
    )
    add(
        "mapping-profile-invalid-stale",
        "profile validity window has closed",
        standard_input("mapping-profile-invalid-stale"),
        _deny("mapping_profile_invalid"),
        fixtures=kit.fixtures(mapping_profile=stale.to_dict()),
    )
    duplicated_rows = list(kit.mapping.aliases)
    duplicated_rows.append(duplicated_rows[-1])
    duplicated = build_mapping_profile(
        PROFILE, 1, parse_timestamp("2027-01-01T00:00:00Z"), duplicated_rows, kit.steward
    )
    add(
        "mapping-profile-invalid-duplicate",
        "byte-identical duplicate alias rows",
        standard_input("mapping-profile-invalid-duplicate"),
        _deny("mapping_profile_invalid"),
        fixtures=kit.fixtures(mapping_profile=duplicated.to_dict()),
    )
    undeclared_cred = kit.credential(
        constraints=(
            EnumeratedListConstraint(field="vectors.undeclared", allowed=frozenset({"x"})),
        )
    )
    add(
        "semantic-identifier-unknown",
        "constraint references an identifier no vocabulary defines",
        {
            "credentials": [undeclared_cred.to_dict()],
            "presenter": kit.subject.key_id,
            "pop": kit.pop(undeclared_cred, "nonce-semantic-identifier-unknown"),
            "context": kit.context(),
        },
        _deny("semantic_identifier_unknown", failed_constraint="C1"),
    )
    conflicted_rows = [
        row for row in kit.mapping.aliases if row.identifier != "vectors.category"
    ]
    conflicted_rows.append(AliasEntry("vectors.category", "cat_a", SemanticType.STRING_ID))
    conflicted_rows.append(AliasEntry("vectors.category", "cat_b", SemanticType.STRING_ID))
    conflicted = build_mapping_profile(
        PROFILE, 1, parse_timestamp("2027-01-01T00:00:00Z"), conflicted_rows, kit.steward
    )
    add(
        "semantic-alias-conflict",
        "one identifier maps to two different local fields",
        standard_input("semantic-alias-conflict"),
        _deny("semantic_alias_conflict", failed_constraint="C2"),
        fixtures=kit.fixtures(mapping_profile=conflicted.to_dict()),
    )
    missing_rows = [
        row for row in kit.mapping.aliases if row.identifier != "vectors.category"
    ]
    lacking = build_mapping_profile(
        PROFILE, 1, parse_timestamp("2027-01-01T00:00:00Z"), missing_rows, kit.steward
    )
    add(
        "semantic-alias-missing",
        "profile has no alias for a referenced identifier",
        standard_input("semantic-alias-missing"),
        _deny("semantic_alias_missing", failed_constraint="C2"),
        fixtures=kit.fixtures(mapping_profile=lacking.to_dict()),
    )
    retyped_rows = [
        row for row in kit.mapping.aliases if row.identifier != "vectors.category"
    ]
    retyped_rows.append(AliasEntry("vectors.category", "vectors.category", SemanticType.DECIMAL))
    retyped = build_mapping_profile(
        PROFILE, 1, parse_timestamp("2027-01-01T00:00:00Z"), retyped_rows, kit.steward
    )
    add(
        "semantic-type-mismatch-declared",
        "alias declares a type the vocabulary contradicts",
        standard_input("semantic-type-mismatch-declared"),
        _deny("semantic_type_mismatch", failed_constraint="C2"),
        fixtures=kit.fixtures(mapping_profile=retyped.to_dict()),
    )
    add(
        "semantic-type-mismatch-context",
        "context value carries the wrong semantic type",
        standard_input(
            "semantic-type-mismatch-context",
            context=kit.context(**{"core.amount": {"type": "string_id", "value": "250"}}),
        ),
        _deny("semantic_type_mismatch", failed_constraint="C1"),
    )
    aliased_rows = [
        AliasEntry("core.amount", "claim_total", SemanticType.DECIMAL),
        AliasEntry("core.currency_code", "currency", SemanticType.STRING_CODE),
        AliasEntry("core.resource_id", "resource", SemanticType.STRING_ID),
        AliasEntry("core.request_time", "requested_at", SemanticType.TIMESTAMP),
        AliasEntry("vectors.category", "category", SemanticType.STRING_ID),
    ]
    aliased = build_mapping_profile(
        PROFILE, 1, parse_timestamp("2027-01-01T00:00:00Z"), aliased_rows, kit.steward
    )
    aliased_context = {
        "kind": "request_context",
        "action": "task.run",
        "fields": {
            "claim_total": {"type": "decimal", "value": "250"},
            "currency": {"type": "string_code", "value": "USD"},
            "category": {"type": "string_id", "value": "standard"},
            "resource": {"type": "string_id", "value": "jobs/alpha/run"},
            "requested_at": {"type": "timestamp", "value": render_timestamp(NOW)},
        },
    }
    add(
        "allow-aliased-context",
        "context keyed by local names resolves through the profile",
        standard_input("allow-aliased-context", context=aliased_context),
        _allow(),
        fixtures=kit.fixtures(mapping_profile=aliased.to_dict()),
    )
    return rows


def _level3_vectors(kit: _Kit) -> list[tuple[str, dict]]:
    rows: list[tuple[str, dict]] = []
    cred = kit.credential()

    def add(name, description, entry, expected):
        rows.append(
            (
                "level3_profile",
                _vector(f"level3/{name}", description, kit.fixtures(), entry, expected),
            )
        )

    add(
        "allow-base64url-canonical",
        "credential presented as base64url-wrapped canonical bytes",
        {
            "credentials": [
                {"encoding": "base64url", "value": to_transport(canonical_bytes(cred.to_dict()))}
            ],
            "presenter": kit.subject.key_id,
            "pop": kit.pop(cred, "nonce-l3-canonical"),
            "context": kit.context(),
        },
        _allow(),
    )
    wrapped = to_transport(canonical_bytes(cred.to_dict()))
    add(
        "transport-noncanonical",
        "characters outside the base64url alphabet, which a lenient decoder drops",
        {
            "credentials": [{"encoding": "base64url", "value": wrapped[:8] + "!*" + wrapped[8:]}],
            "presenter": kit.subject.key_id,
            "pop": kit.pop(cred, "nonce-l3-noncanonical"),
            "context": kit.context(),
        },
        _deny("signature_invalid"),
    )
    relaxed_text = json.dumps(cred.to_dict(), indent=2, sort_keys=False, ensure_ascii=True)
    add(
        "allow-base64url-noncanonical-text",
        "same credential in a non-canonical rendering verifies identically",
        {
            "credentials": [
                {"encoding": "base64url", "value": to_transport(relaxed_text.encode("utf-8"))}
            ],
            "presenter": kit.subject.key_id,
            "pop": kit.pop(cred, "nonce-l3-relaxed"),
            "context": kit.context(),
        },
        _allow(),
    )
    add(
        "transport-garbage",
        "wrapped bytes that are not a credential",
        {
            "credentials": [{"encoding": "base64url", "value": to_transport(b"\x00\x01\x02")}],
            "presenter": kit.subject.key_id,
            "pop": None,
            "context": kit.context(),
        },
        _deny("signature_invalid"),
    )
    return rows


def _level4_vectors(kit: _Kit) -> list[tuple[str, dict]]:
    rows: list[tuple[str, dict]] = []
    root = kit.credential()
    mid_constraints = (
        NumericLimitConstraint(
            field="core.amount", operator="lte", value=Decimal("500"), currency="USD"
        ),
        *kit.constraints()[1:],
    )
    mid = kit.credential(
        constraints=mid_constraints,
        subject=kit.delegate,
        issuer=kit.subject,
        parent=root,
    )
    leaf_constraints = (
        NumericLimitConstraint(
            field="core.amount", operator="lte", value=Decimal("300"), currency="USD"
        ),
        *kit.constraints()[1:],
    )
    leaf = kit.credential(
        constraints=leaf_constraints,
        subject=kit.delegate2,
        issuer=kit.delegate,
        parent=mid,
    )

    def add(name, description, entry, expected, fixtures=None):
        rows.append(
            (
                "level4_delegation",
                _vector(f"level4/{name}", description, fixtures or kit.fixtures(), entry, expected),
            )
        )

    def chain_input(vector_id: str, chain: Sequence[dict], presenter: str, pop_key: SigningKey, leaf_dict: dict) -> dict:
        return {
            "credentials": list(chain),
            "presenter": presenter,
            "pop": kit.pop(leaf_dict, f"nonce-{vector_id}", subject=pop_key),
            "context": kit.context(),
        }

    add(
        "allow-three-link-chain",
        "root to delegate to sub-delegate, each link narrower",
        chain_input(
            "allow-three-link-chain",
            [root.to_dict(), mid.to_dict(), leaf.to_dict()],
            kit.delegate2.key_id,
            kit.delegate2,
            leaf.to_dict(),
        ),
        _allow(),
    )

    deep = [root, mid, leaf]
    extra_subjects = [(kit.delegate3, kit.delegate2), (kit.delegate4, kit.delegate3)]
    for child_key, parent_key in extra_subjects:
        deep.append(
            kit.credential(
                constraints=leaf_constraints,
                subject=child_key,
                issuer=parent_key,
                parent=deep[-1],
            )
        )
    add(
        "delegation-depth-exceeded",
        "five links against the default depth limit of four",
        chain_input(
            "delegation-depth-exceeded",
            [c.to_dict() for c in deep],
            kit.delegate4.key_id,
            kit.delegate4,
            deep[-1].to_dict(),
        ),
        _deny("delegation_depth_exceeded"),
    )

    foreign = kit.manual_container(
        kit.impostor,
        kit.impostor.key_id,
        kit.delegate,
        payload={
            "agent_id": kit.delegate.key_id,
            "issuer_id": kit.impostor.key_id,
            "permissions": ["task.run"],
            "constraints": [c.to_dict() for c in mid_constraints],
        },
        parent_digest=root.digest(),
    )
    add(
        "delegation-chain-broken-issuer",
        "second link issued by someone other than the first link's subject",
        chain_input(
            "delegation-chain-broken-issuer",
            [root.to_dict(), foreign],
            kit.delegate.key_id,
            kit.delegate,
            foreign,
        ),
        _deny("delegation_chain_broken"),
    )

    unanchored = kit.manual_container(
        kit.subject,
        kit.subject.key_id,
        kit.delegate,
        payload={
            "agent_id": kit.delegate.key_id,
            "issuer_id": kit.subject.key_id,
            "permissions": ["task.run"],
            "constraints": [c.to_dict() for c in mid_constraints],
        },
        parent_digest=sha256_hex(b"a different credential entirely"),
    )
    add(
        "delegation-chain-broken-digest",
        "second link does not reference its parent by digest",
        chain_input(
            "delegation-chain-broken-digest",
            [root.to_dict(), unanchored],
            kit.delegate.key_id,
            kit.delegate,
            unanchored,
        ),
        _deny("delegation_chain_broken"),
    )

    widened_permissions = kit.manual_container(
        kit.subject,
        kit.subject.key_id,
        kit.delegate,
        payload={
            "agent_id": kit.delegate.key_id,
            "issuer_id": kit.subject.key_id,
            "permissions": ["task.admin", "task.run"],
            "constraints": [c.to_dict() for c in kit.constraints()],
        },
        parent_digest=root.digest(),
    )
    add(
        "delegation-widened-permissions",
        "delegate grants itself a permission the parent never held",
        chain_input(
            "delegation-widened-permissions",
            [root.to_dict(), widened_permissions],
            kit.delegate.key_id,
            kit.delegate,
            widened_permissions,
        ),
        _deny("delegation_widened"),
    )

    loosened = (
        NumericLimitConstraint(
            field="core.amount", operator="lte", value=Decimal("2000"), currency="USD"
        ),
        *kit.constraints()[1:],
    )
    widened_constraints = kit.manual_container(
        kit.subject,
        kit.subject.key_id,
        kit.delegate,
        payload={
            "agent_id": kit.delegate.key_id,
            "issuer_id": kit.subject.key_id,
            "permissions": ["task.run"],
            "constraints": [c.to_dict() for c in loosened],
        },
        parent_digest=root.digest(),
    )
    add(
        "delegation-widened-constraints",
        "delegate raises the numeric ceiling above the parent's",
        chain_input(
            "delegation-widened-constraints",
            [root.to_dict(), widened_constraints],
            kit.delegate.key_id,
            kit.delegate,
            widened_constraints,
        ),
        _deny("delegation_widened"),
    )

    root_revocation = new_revocation_list(
        kit.issuer.key_id, kit.issuer, now=NOW - timedelta(hours=1)
    )
    root_revocation = revoke(
        root_revocation, root.credential_id, kit.issuer, now=NOW - timedelta(minutes=10)
    )
    add(
        "chain-root-revoked",
        "revoking the root invalidates every downstream delegation",
        chain_input(
            "chain-root-revoked",
            [root.to_dict(), mid.to_dict(), leaf.to_dict()],
            kit.delegate2.key_id,
            kit.delegate2,
            leaf.to_dict(),
        ),
        _deny("credential_revoked"),
        fixtures=kit.fixtures(
            revocation_lists=[
                {"list": root_revocation.to_dict(), "issuer_public": kit.issuer.public_hex}
            ]
        ),
    )
    return rows


def _stateful_vectors(kit: _Kit) -> list[tuple[str, dict]]:
    rows: list[tuple[str, dict]] = []
    cumulative = CumulativeLimitConstraint(
        field="core.amount",
        budget=Decimal("1000"),
        state_authority_pointer=POINTER,
        period=Period("per_credential"),
        currency="USD",
    )
    cred = kit.credential(constraints=(cumulative,))
    digest = cred.digest()

    def add(name, description, entry, expected, fixtures):
        rows.append(
            ("stateful", _vector(f"stateful/{name}", description, fixtures, entry, expected))
        )

    def standard_input(vector_id: str, vouchers: Optional[list] = None) -> dict:
        entry = {
            "credentials": [cred.to_dict()],
            "presenter": kit.subject.key_id,
            "pop": kit.pop(cred, f"nonce-{vector_id}"),
            "context": kit.context(),
        }
        if vouchers is not None:
            entry["vouchers"] = vouchers
        return entry

    def client_state(prefill: str) -> dict:
        return {
            "authority_keys": {POINTER: kit.authority.public_hex},
            "clients": [
                {
                    "pointer": POINTER,
                    "reservations": [
                        {
                            "key": digest,
                            "amount": prefill,
                            "period": {"kind": "per_credential"},
                            "timestamp": render_timestamp(NOW - timedelta(hours=1)),
                        }
                    ],
                }
            ],
        }

    registry_fixtures = dict(
        registries=[kit.registry()],
        tier="synchronous",
    )

    add(
        "allow-cumulative-reserve",
        "running total plus request stays inside the budget",
        standard_input("allow-cumulative-reserve"),
        _allow(),
        kit.fixtures(**registry_fixtures, state=client_state("400")),
    )
    add(
        "state-limit-exceeded",
        "request would push the running total past the budget",
        standard_input("state-limit-exceeded"),
        _deny("state_limit_exceeded", failed_constraint="C1"),
        kit.fixtures(**registry_fixtures, state=client_state("900")),
    )
    add(
        "allow-budget-boundary-inclusive",
        "spend that lands exactly on the budget is authorized",
        standard_input("allow-budget-boundary-inclusive"),
        _allow(),
        kit.fixtures(**registry_fixtures, state=client_state("750")),
    )
    add(
        "state-authority-unpermitted",
        "no accepted registry permits the constraint's state authority",
        standard_input("state-authority-unpermitted"),
        _deny("state_authority_unpermitted", failed_constraint="C1"),
        kit.fixtures(
            registries=[kit.registry(with_pointer=False)],
            tier="synchronous",
            state=client_state("0"),
        ),
    )
    add(
        "state-unreachable-stateless-tier",
        "stateless receivers cannot enforce cumulative limits",
        standard_input("state-unreachable-stateless-tier"),
        _deny("state_authority_unreachable", failed_constraint="C1"),
        kit.fixtures(registries=[kit.registry()], tier="stateless"),
    )
    add(
        "state-unreachable-no-channel",
        "synchronous tier with neither a reserve channel nor vouchers",
        standard_input("state-unreachable-no-channel"),
        _deny("state_authority_unreachable", failed_constraint="C1"),
        kit.fixtures(**registry_fixtures),
    )

    v1 = make_voucher(digest, Decimal("1000"), POINTER, kit.authority, NOW - timedelta(seconds=120))
    v2 = update_voucher(v1, Decimal("300"), kit.authority, NOW - timedelta(seconds=60))
    voucher_fixtures = kit.fixtures(
        **registry_fixtures,
        state={"authority_keys": {POINTER: kit.authority.public_hex}},
    )
    add(
        "allow-cumulative-vouchers",
        "attested remaining balance covers the request",
        standard_input("allow-cumulative-vouchers", vouchers=[v1.to_dict(), v2.to_dict()]),
        _allow(),
        voucher_fixtures,
    )
    stale_voucher = make_voucher(
        digest, Decimal("1000"), POINTER, kit.authority, NOW - timedelta(seconds=400)
    )
    add(
        "state-stale",
        "newest attestation is older than the freshness bound",
        standard_input("state-stale", vouchers=[stale_voucher.to_dict()]),
        _deny("state_stale", failed_constraint="C1"),
        voucher_fixtures,
    )
    replay_entry = standard_input(
        "state-sequence-replay", vouchers=[v1.to_dict(), v2.to_dict()]
    )
    first_entry = standard_input(
        "state-sequence-replay-prior", vouchers=[v1.to_dict(), v2.to_dict()]
    )
    add(
        "state-sequence-replay",
        "a consumed terminal sequence cannot be presented again",
        {**replay_entry, "prior": [first_entry]},
        _deny("state_sequence_invalid", failed_constraint="C1"),
        voucher_fixtures,
    )
    forged = make_voucher(digest, Decimal("1000"), POINTER, kit.impostor, NOW - timedelta(seconds=30))
    add(
        "state-signature-invalid",
        "voucher signed by a key that is not the authority's",
        standard_input("state-signature-invalid", vouchers=[forged.to_dict()]),
        _deny("state_signature_invalid", failed_constraint="C1"),
        voucher_fixtures,
    )
    inconsistent_body = {
        "kind": "state_voucher",
        "authority_id": POINTER,
        "credential_digest": digest,
        "sequence": 1,
        "spent": "300",
        "remaining": "800",
        "observed_at": render_timestamp(NOW - timedelta(seconds=30)),
        "prev_signature": VOUCHER_GENESIS,
    }
    inconsistent = attach_signature(inconsistent_body, kit.authority)
    add(
        "state-arithmetic-inconsistent",
        "correctly signed voucher whose totals do not reconcile",
        standard_input("state-arithmetic-inconsistent", vouchers=[inconsistent]),
        _deny("state_signature_invalid", failed_constraint="C1"),
        voucher_fixtures,
    )
    add(
        "allow-epoch-slice",
        "epoch-bound enforcer spends within its allocated slice",
        standard_input("allow-epoch-slice"),
        _allow(),
        kit.fixtures(
            registries=[kit.registry()],
            tier="epoch_bound",
            state={
                "authority_keys": {POINTER: kit.authority.public_hex},
                "epoch": {
                    "enforcer_id": kit.receiver.key_id,
                    "allocation": "400",
                    "epoch_length_seconds": 3600,
                },
            },
        ),
    )
    add(
        "state-epoch-slice-exhausted",
        "request larger than the enforcer's epoch slice",
        standard_input("state-epoch-slice-exhausted"),
        _deny("state_limit_exceeded", failed_constraint="C1"),
        kit.fixtures(
            registries=[kit.registry()],
            tier="epoch_bound",
            state={
                "authority_keys": {POINTER: kit.authority.public_hex},
                "epoch": {
                    "enforcer_id": kit.receiver.key_id,
                    "allocation": "200",
                    "epoch_length_seconds": 3600,
                },
            },
        ),
    )
    return rows


def generate_vectors() -> list[tuple[str, dict]]:
    """The full suite as (level_dir, vector) rows, deterministic across runs."""
    kit = _Kit()
    rows: list[tuple[str, dict]] = []
    rows.extend(_worked_trace_vectors())
    rows.extend(_level1_vectors(kit))
    rows.extend(_level2_vectors(kit))
    rows.extend(_level3_vectors(kit))
    rows.extend(_level4_vectors(kit))
    rows.extend(_stateful_vectors(kit))
    return rows


def write_vectors(root: Union[str, Path]) -> list[Path]:
    """Write the suite under ``root`` (one canonical file per vector)."""
    base = Path(root)
    written: list[Path] = []
    for level, vector in generate_vectors():
        directory = base / level
        directory.mkdir(parents=True, exist_ok=True)
        name = vector["vector_id"].split("/", 1)[1] + ".json"
        path = directory / name
        path.write_text(canonical_dumps(vector) + "\n", encoding="utf-8")
        written.append(path)
    return written
