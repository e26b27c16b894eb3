"""Governance manifests and sender preflight."""

import dataclasses
import json
from datetime import timedelta
from decimal import Decimal

import pytest

from mandate.audit import AuditLog
from mandate.constraints import (
    CumulativeLimitConstraint,
    NumericLimitConstraint,
    Period,
)
from mandate.container import issue_credential, parse_container
from mandate.discovery import (
    WELL_KNOWN_PATH,
    CredentialSummary,
    ManifestError,
    PreflightReport,
    SenderCapabilities,
    VocabularyRange,
    build_manifest,
    preflight,
    verify_manifest,
)
from mandate.keys import attach_signature, generate_key
from mandate.model import (
    AuthorizationPayload,
    DenyCode,
    SemanticType,
    parse_timestamp,
)
from mandate.pipeline import EngineConfig, LocalPolicy
from mandate.registry import IssuerEntry, StateAuthorityEntry, build_registry
from mandate.semantics import (
    STATUS_CONDITIONAL,
    Vocabulary,
    VocabularyEntry,
    identity_mapping_profile,
)

NOW = parse_timestamp("2026-05-01T12:00:00Z")
FROM = parse_timestamp("2026-01-01T00:00:00Z")
UNTIL = parse_timestamp("2026-12-31T23:59:59Z")
POINTER = "https://state.test.example/ledger"

RECEIVER = generate_key("svc:test:receiver", seed="discovery:receiver")
RECEIVER_KEYS = {RECEIVER.key_id: RECEIVER.public_hex}
ISSUER = generate_key("iss:test:authority", seed="discovery:issuer")
SUBJECT = generate_key("agent:test:worker", seed="discovery:subject")
STEWARD = generate_key("steward:test", seed="discovery:steward")
AUDIT = generate_key("svc:test:receiver#audit", seed="discovery:audit")


def claims_vocabulary():
    return Vocabulary(
        profile_id="claims",
        version=2,
        entries={
            "claims.payout": VocabularyEntry(
                "claims.payout", SemanticType.DECIMAL, STATUS_CONDITIONAL
            ),
        },
    )


def receiver_config():
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
        state_authorities=[StateAuthorityEntry(pointer=POINTER, profiles=frozenset({"*"}))],
    )
    return EngineConfig(
        evaluator_id=RECEIVER.key_id,
        audit_log=AuditLog(RECEIVER.key_id, AUDIT),
        trusted_issuers={ISSUER.key_id: ISSUER.public_hex},
        steward_keys={STEWARD.key_id: STEWARD.public_hex},
        mapping_profile=identity_mapping_profile([claims_vocabulary()], UNTIL, STEWARD),
        vocabularies=(claims_vocabulary(),),
        registries=(registry,),
        local_policy=LocalPolicy(
            policy_id="intake", required_context_fields=("core.request_time",)
        ),
    )


def manifest():
    return build_manifest(
        receiver_config(), RECEIVER, version=3, valid_from=FROM, valid_until=UNTIL
    )


def test_manifest_reads_off_the_live_configuration():
    m = manifest()
    assert m.receiver_id == RECEIVER.key_id
    assert m.version == 3
    assert m.supported_vocabularies == (VocabularyRange("claims", 2, 2),)
    assert m.accepted_registries == ("registry:test",)
    assert m.accepted_credential_classes == frozenset({"agent-authorization"})
    assert m.required_context_fields == frozenset({"core.request_time"})
    assert m.accepted_state_authorities == (POINTER,)
    assert m.raw["kind"] == "governance_manifest"


def test_verify_round_trips_text_bytes_and_dict():
    m = manifest()
    for form in (m.dumps(), m.dumps().encode(), m.to_dict()):
        verified = verify_manifest(form, RECEIVER_KEYS, NOW)
        assert verified.digest() == m.digest()


def test_verify_rejects_garbage_as_malformed():
    with pytest.raises(ManifestError) as err:
        verify_manifest(b"\x00not json", RECEIVER_KEYS, NOW)
    assert err.value.code == "malformed"


def test_verify_rejects_wrong_kind():
    with pytest.raises(ManifestError) as err:
        verify_manifest({"kind": "credential"}, RECEIVER_KEYS, NOW)
    assert err.value.code == "malformed"


def test_verify_rejects_missing_field():
    body = manifest().to_dict()
    del body["valid_until"]
    with pytest.raises(ManifestError) as err:
        verify_manifest(body, RECEIVER_KEYS, NOW)
    assert err.value.code == "malformed"


@pytest.mark.parametrize(
    "field",
    [
        "accepted_registries",
        "accepted_credential_classes",
        "required_context_fields",
        "accepted_state_authorities",
    ],
)
def test_verify_rejects_a_string_where_a_list_is_expected(field):
    body = manifest().to_dict()
    del body["signature"]
    body[field] = "registry:test"
    with pytest.raises(ManifestError) as err:
        verify_manifest(attach_signature(body, RECEIVER), RECEIVER_KEYS, NOW)
    assert err.value.code == "malformed"


def test_verify_rejects_unknown_receiver():
    with pytest.raises(ManifestError) as err:
        verify_manifest(manifest().to_dict(), {}, NOW)
    assert err.value.code == "bad_signature"


def test_verify_rejects_tampered_body():
    body = manifest().to_dict()
    body["version"] = 99
    with pytest.raises(ManifestError) as err:
        verify_manifest(body, RECEIVER_KEYS, NOW)
    assert err.value.code == "bad_signature"


def test_verify_window_is_inclusive_on_both_ends():
    m = manifest().to_dict()
    assert verify_manifest(m, RECEIVER_KEYS, FROM)
    assert verify_manifest(m, RECEIVER_KEYS, UNTIL)
    for outside in (FROM - timedelta(seconds=1), UNTIL + timedelta(seconds=1)):
        with pytest.raises(ManifestError) as err:
            verify_manifest(m, RECEIVER_KEYS, outside)
        assert err.value.code == "out_of_window"


def test_well_known_path_is_stable():
    assert WELL_KNOWN_PATH == "/.well-known/agent-governance"


# --- credential summaries ------------------------------------------------------

def summary_credential():
    payload = AuthorizationPayload(
        agent_id=SUBJECT.key_id,
        issuer_id=ISSUER.key_id,
        permissions=frozenset({"task.run"}),
        constraints=(
            NumericLimitConstraint(field="core.amount", operator="lte", value=Decimal("10")),
            CumulativeLimitConstraint(
                field="claims.payout",
                budget=Decimal("100"),
                state_authority_pointer=POINTER,
                period=Period(kind="per_credential"),
            ),
        ),
    )
    return issue_credential(
        payload=payload,
        subject_public_key=SUBJECT.public_hex,
        audience=[RECEIVER.key_id],
        valid_from=FROM,
        valid_until=UNTIL,
        issuer_key=ISSUER,
    )


def test_summary_collects_identifiers_and_authorities():
    cred = summary_credential()
    summary = CredentialSummary.of(cred)
    assert summary.digest == cred.digest()
    assert summary.issuer_id == ISSUER.key_id
    assert summary.identifiers == frozenset({"core.amount", "claims.payout"})
    assert summary.state_authorities == frozenset({POINTER})


def test_summary_skips_unrecognized_constraints():
    body = summary_credential().to_dict()
    del body["signature"]
    body["payload"]["constraints"].append({"type": "FancyConstraint", "field": "x.y"})
    cred = parse_container(attach_signature(body, ISSUER))
    summary = CredentialSummary.of(cred)
    assert summary.identifiers == frozenset({"core.amount", "claims.payout"})


# --- preflight -------------------------------------------------------------------

def compatible_sender():
    return SenderCapabilities(
        credentials=(CredentialSummary.of(summary_credential()),),
        profile_versions={"claims": 2},
        trust_anchors=frozenset({"registry:test"}),
        producible_fields=frozenset({"core.request_time"}),
    )


def test_preflight_compatible_when_nothing_is_missing():
    report = preflight(compatible_sender(), manifest())
    assert report.compatible
    assert report.findings == ()


def test_preflight_reports_an_unknown_constraint_the_engine_would_deny():
    body = summary_credential().to_dict()
    del body["signature"]
    body["payload"]["constraints"].append({"type": "FancyConstraint", "field": "x.y"})
    summary = CredentialSummary.of(parse_container(attach_signature(body, ISSUER)))
    assert summary.unknown_constraints == frozenset({"FancyConstraint"})
    report = preflight(dataclasses.replace(compatible_sender(), credentials=(summary,)), manifest())
    assert not report.compatible
    assert [f.code for f in report.findings] == [DenyCode.CONSTRAINT_UNKNOWN.value]
    assert "'FancyConstraint'" in report.findings[0].detail


def test_preflight_says_a_known_constraint_type_whose_body_does_not_read_is_known():
    body = summary_credential().to_dict()
    del body["signature"]
    body["payload"]["constraints"][0]["extra"] = "x"
    summary = CredentialSummary.of(parse_container(attach_signature(body, ISSUER)))
    assert summary.unknown_constraints == frozenset({"NumericLimitConstraint"})
    report = preflight(dataclasses.replace(compatible_sender(), credentials=(summary,)), manifest())
    assert [(f.code, f.detail) for f in report.findings] == [(
        DenyCode.CONSTRAINT_UNKNOWN.value,
        f"{summary.digest[:16]}: constraint of known type 'NumericLimitConstraint' has a body that does not read",
    )]


def test_preflight_profile_unsupported():
    sender = compatible_sender()
    sender = SenderCapabilities(
        credentials=sender.credentials,
        profile_versions={"claims": 2, "logistics": 1},
        trust_anchors=sender.trust_anchors,
        producible_fields=sender.producible_fields,
    )
    report = preflight(sender, manifest())
    assert not report.compatible
    assert [f.code for f in report.findings] == ["profile_unsupported"]
    assert "logistics" in report.findings[0].detail


def test_preflight_profile_version_outside_range():
    sender = compatible_sender()
    sender = SenderCapabilities(
        credentials=sender.credentials,
        profile_versions={"claims": 7},
        trust_anchors=sender.trust_anchors,
        producible_fields=sender.producible_fields,
    )
    report = preflight(sender, manifest())
    assert [f.code for f in report.findings] == ["profile_version_unsupported"]


def test_preflight_disjoint_trust_anchors():
    sender = compatible_sender()
    sender = SenderCapabilities(
        credentials=sender.credentials,
        profile_versions=sender.profile_versions,
        trust_anchors=frozenset({"registry:other"}),
        producible_fields=sender.producible_fields,
    )
    report = preflight(sender, manifest())
    assert [f.code for f in report.findings] == ["no_trust_anchor"]


def test_preflight_sender_without_anchors_is_not_penalized():
    sender = compatible_sender()
    sender = SenderCapabilities(
        credentials=sender.credentials,
        profile_versions=sender.profile_versions,
        trust_anchors=frozenset(),
        producible_fields=sender.producible_fields,
    )
    assert preflight(sender, manifest()).compatible


def test_preflight_manifest_without_registries():
    config = receiver_config()
    bare = EngineConfig(
        evaluator_id=config.evaluator_id,
        audit_log=config.audit_log,
        trusted_issuers=config.trusted_issuers,
        steward_keys=config.steward_keys,
        mapping_profile=config.mapping_profile,
        vocabularies=config.vocabularies,
    )
    m = build_manifest(bare, RECEIVER, version=1, valid_from=FROM, valid_until=UNTIL)
    sender = SenderCapabilities(credentials=(), profile_versions={"claims": 2})
    report = preflight(sender, m)
    assert [f.code for f in report.findings] == ["no_trust_anchor"]


@pytest.mark.parametrize(
    "window",
    [(FROM, UNTIL + timedelta(days=1)), (FROM - timedelta(seconds=1), UNTIL)],
    ids=["outlives the registry", "starts before the registry"],
)
def test_a_manifest_lists_no_registry_whose_window_does_not_cover_its_own(window):
    m = build_manifest(receiver_config(), RECEIVER, version=1, valid_from=window[0], valid_until=window[1])
    assert m.accepted_registries == () and m.accepted_state_authorities == ()
    report = preflight(compatible_sender(), m)
    assert "no_trust_anchor" in [f.code for f in report.findings]
    assert not report.compatible


def test_a_manifest_window_that_ends_before_it_begins_is_refused_unsigned():
    with pytest.raises(ManifestError) as err:
        build_manifest(receiver_config(), RECEIVER, version=1, valid_from=UNTIL, valid_until=FROM)
    assert err.value.code == "malformed"
    # A window of one instant still verifies at that instant.
    m = build_manifest(receiver_config(), RECEIVER, version=1, valid_from=NOW, valid_until=NOW)
    assert verify_manifest(m.to_dict(), RECEIVER_KEYS, NOW).digest() == m.digest()


def test_preflight_required_field_unproducible():
    sender = compatible_sender()
    sender = SenderCapabilities(
        credentials=sender.credentials,
        profile_versions=sender.profile_versions,
        trust_anchors=sender.trust_anchors,
        producible_fields=frozenset(),
    )
    report = preflight(sender, manifest())
    assert [f.code for f in report.findings] == ["required_field_unproducible"]
    assert "core.request_time" in report.findings[0].detail


def test_preflight_credential_class_unaccepted():
    summary = CredentialSummary.of(summary_credential(), credential_class="payment-mandate")
    sender = SenderCapabilities(
        credentials=(summary,),
        profile_versions={"claims": 2},
        trust_anchors=frozenset({"registry:test"}),
        producible_fields=frozenset({"core.request_time"}),
    )
    report = preflight(sender, manifest())
    assert [f.code for f in report.findings] == ["credential_class_unaccepted"]


def test_preflight_identifier_outside_vocabularies():
    summary = CredentialSummary.of(summary_credential())
    foreign = CredentialSummary(
        digest=summary.digest,
        issuer_id=summary.issuer_id,
        credential_class=summary.credential_class,
        identifiers=frozenset({"logistics.route", "core.amount"}),
        state_authorities=frozenset(),
    )
    sender = SenderCapabilities(
        credentials=(foreign,),
        profile_versions={"claims": 2},
        trust_anchors=frozenset({"registry:test"}),
        producible_fields=frozenset({"core.request_time"}),
    )
    report = preflight(sender, manifest())
    assert [f.code for f in report.findings] == ["identifier_outside_vocabularies"]
    assert "logistics.route" in report.findings[0].detail


def test_preflight_state_authority_unaccepted():
    summary = CredentialSummary.of(summary_credential())
    rogue = CredentialSummary(
        digest=summary.digest,
        issuer_id=summary.issuer_id,
        credential_class=summary.credential_class,
        identifiers=summary.identifiers,
        state_authorities=frozenset({"https://elsewhere.example/ledger"}),
    )
    sender = SenderCapabilities(
        credentials=(rogue,),
        profile_versions={"claims": 2},
        trust_anchors=frozenset({"registry:test"}),
        producible_fields=frozenset({"core.request_time"}),
    )
    report = preflight(sender, manifest())
    assert [f.code for f in report.findings] == ["state_authority_unaccepted"]


def test_preflight_findings_are_sorted_and_deduplicated():
    summary = CredentialSummary.of(summary_credential(), credential_class="payment-mandate")
    sender = SenderCapabilities(
        credentials=(summary, summary),  # duplicate holdings collapse
        profile_versions={"claims": 9, "logistics": 1},
        trust_anchors=frozenset({"registry:other"}),
        producible_fields=frozenset(),
    )
    report = preflight(sender, manifest())
    codes = [f.code for f in report.findings]
    assert codes == sorted(codes)
    assert len(report.findings) == len(set(report.findings))
    assert set(codes) == {
        "credential_class_unaccepted",
        "no_trust_anchor",
        "profile_unsupported",
        "profile_version_unsupported",
        "required_field_unproducible",
    }


def test_preflight_report_serializes():
    report = preflight(compatible_sender(), manifest())
    data = report.to_dict()
    assert data == {"kind": "preflight_report", "compatible": True, "findings": []}
    json.dumps(data)
