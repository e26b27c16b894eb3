"""Every reader of artifact and config objects takes exact JSON types.

One table: each reader gets a valid object with one field made wrong (a bool
where an int belongs, a number or a list where a string belongs, "1e3" or
"NaN" where a decimal belongs, or a required field left out) and must refuse
it with its own typed error, never a bare KeyError or TypeError and never by
coercing the value.
"""

import copy
import json
import tempfile
from decimal import Decimal
from pathlib import Path

import pytest

from mandate.audit import AuditLog
from mandate.cli import CliError, _capabilities, _parse_file
from mandate.conformance import FixtureError, build_engine
from mandate.constraints import NumericLimitConstraint, Period
from mandate.container import (
    MalformedContainerError,
    PossessionProof,
    RevocationError,
    RevocationList,
    issue_credential,
    make_possession_proof,
    new_revocation_list,
    parse_container,
    parse_payload,
)
from mandate.discovery import ManifestError, VocabularyRange, build_manifest, verify_manifest
from mandate.keys import KeyError_, generate_key, load_signing_key
from mandate.model import (
    AuthorizationPayload,
    RequestContext,
    SemanticType,
    TypedValue,
    ValueParseError,
    parse_timestamp,
)
from mandate.pipeline import EngineConfig, LocalPolicy, WorkflowPolicy, WorkflowRole
from mandate.registry import (
    IssuerEntry,
    RegistryError,
    StateAuthorityEntry,
    build_registry,
    load_registry,
)
from mandate.semantics import MappingProfile, Vocabulary, VocabularyEntry, identity_mapping_profile
from mandate.stateful import InMemoryStateAuthority, StateVoucher, make_voucher

NOW = parse_timestamp("2026-05-01T12:00:00Z")
UNTIL = parse_timestamp("2026-12-31T23:59:59Z")
KEY = generate_key("key:readers", seed="readers")
MISSING = object()

VOCABULARY = Vocabulary(
    "claims", 2, {"claims.total": VocabularyEntry("claims.total", SemanticType.DECIMAL, "required")}
).to_dict()
POLICY = LocalPolicy(
    "policy:a", ("core.workflow_id",), (NumericLimitConstraint("core.amount", "lte", Decimal("5")),)
).to_dict()
WORKFLOW = WorkflowPolicy("wf:a", (WorkflowRole("buyer", "iss:*", "task.run"),), ("core.amount",)).to_dict()
PROFILE = identity_mapping_profile([], UNTIL, KEY).to_dict()
CONTEXT = {
    "kind": "request_context",
    "action": "task.run",
    "fields": {"core.amount": {"type": "decimal", "value": "5"}},
}


def _registry() -> dict:
    issuer = IssuerEntry("iss:a", "active", frozenset({"agent-authorization"}), frozenset({"*"}))
    authority = StateAuthorityEntry("ledger:a", frozenset({"*"}))
    return build_registry(
        "registry:a", 1, NOW, UNTIL, [issuer], KEY, [authority], [{"profile_id": "claims"}]
    ).to_dict()


def _load_registry(obj: object):
    return load_registry(obj, {KEY.key_id: KEY.public_hex})


def _manifest() -> dict:
    vocabularies = (Vocabulary.from_dict(VOCABULARY),)
    config = EngineConfig(evaluator_id="svc:a", audit_log=AuditLog("svc:a", KEY), vocabularies=vocabularies)
    return build_manifest(config, KEY, version=1, valid_from=NOW, valid_until=UNTIL).to_dict()


def _verify_manifest(obj: object):
    return verify_manifest(obj, {"svc:a": KEY.public_hex}, NOW)


def _fixtures() -> dict:
    revocations = new_revocation_list("iss:a", KEY, NOW)
    return {
        "now": "2026-05-01T12:00:00Z",
        "evaluator_id": "svc:a",
        "audit_key": KEY.to_dict(),
        "revocation_lists": [{"list": revocations.to_dict(), "issuer_public": KEY.public_hex}],
        "revocation_max_age_seconds": 3600,
        "max_chain_depth": 3,
        "pop_required": True,
        "state": {
            "freshness_seconds": 60,
            "epoch": {"enforcer_id": "svc:a", "allocation": "100", "epoch_length_seconds": 60},
        },
    }


def _ledger_row() -> dict:
    return {
        "key": "digest",
        "amount": "10",
        "period": {"kind": "rolling", "seconds": 3600},
        "timestamp": "2026-05-01T12:00:00Z",
    }


def _replay(row: object) -> None:
    InMemoryStateAuthority("ledger:a").replay([row])


def _capabilities_file() -> dict:
    return {
        "credential_class": "agent-authorization",
        "profile_versions": {"claims": 2},
        "trust_anchors": ["registry:a"],
        "producible_fields": ["core.amount"],
    }


def _preflight_capabilities(obj: object):
    """The capabilities file, read as ``mandate preflight`` reads it."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory, "capabilities.json")
        path.write_text(json.dumps(obj), encoding="utf-8")
        return _parse_file(str(path), _capabilities)


PAYLOAD = AuthorizationPayload(
    "agent:a", "iss:a", frozenset({"task.run"}), (NumericLimitConstraint("core.amount", "lte", Decimal("5")),)
)
CREDENTIAL = issue_credential(PAYLOAD, KEY.public_hex, ["svc:a"], NOW, UNTIL, KEY).to_dict()


# reader, valid object, typed error
READERS = {
    "credential_container": (parse_container, lambda: copy.deepcopy(CREDENTIAL), MalformedContainerError),
    "payload": (parse_payload, PAYLOAD.to_dict, MalformedContainerError),
    "possession_proof": (
        PossessionProof.from_dict,
        lambda: make_possession_proof("digest", "svc:a", "n-1", NOW, KEY).to_dict(),
        MalformedContainerError,
    ),
    "revocation_list": (
        RevocationList.from_dict,
        lambda: new_revocation_list("iss:a", KEY, NOW, ["c-1"]).to_dict(),
        RevocationError,
    ),
    "state_voucher": (
        StateVoucher.from_dict,
        lambda: make_voucher("digest", Decimal("100"), "ledger:a", KEY, NOW).to_dict(),
        ValueParseError,
    ),
    "registry": (_load_registry, _registry, RegistryError),
    "manifest": (_verify_manifest, _manifest, ManifestError),
    "vocabulary_range": (
        VocabularyRange.from_dict,
        lambda: {"profile_id": "claims", "min_version": 1, "max_version": 2},
        ValueParseError,
    ),
    "vocabulary": (Vocabulary.from_dict, lambda: copy.deepcopy(VOCABULARY), ValueParseError),
    "mapping_profile": (MappingProfile.from_dict, lambda: copy.deepcopy(PROFILE), ValueParseError),
    "period": (Period.from_dict, lambda: {"kind": "rolling", "seconds": 3600}, ValueParseError),
    "local_policy": (LocalPolicy.from_dict, lambda: copy.deepcopy(POLICY), ValueParseError),
    "workflow_policy": (WorkflowPolicy.from_dict, lambda: copy.deepcopy(WORKFLOW), ValueParseError),
    "workflow_role": (
        WorkflowRole.from_dict,
        lambda: {"role_id": "buyer", "issuer_pattern": "iss:*", "required_permission": "task.run"},
        ValueParseError,
    ),
    "signing_key": (load_signing_key, KEY.to_dict, KeyError_),
    "engine_config": (build_engine, _fixtures, FixtureError),
    "ledger_row": (_replay, _ledger_row, ValueParseError),
    "capabilities": (_preflight_capabilities, _capabilities_file, CliError),
    "request_context": (RequestContext.from_dict, lambda: copy.deepcopy(CONTEXT), ValueParseError),
    "typed_value": (TypedValue.from_dict, lambda: {"type": "decimal", "value": "5"}, ValueParseError),
}

# reader, path to the field, wrong value (MISSING: left out)
CASES = [
    ("credential_container", ("subject_id",), 7),
    ("credential_container", ("credential_id",), ""),
    ("credential_container", ("audience",), "svc:a"),
    ("credential_container", ("audience",), []),
    ("credential_container", ("subject_public_key", "suite"), True),
    ("credential_container", ("subject_public_key", "public_key"), 5),
    ("credential_container", ("valid_from",), 1777636800),
    ("credential_container", ("parent_digest",), 5),
    ("credential_container", ("payload", "permissions"), "read"),
    ("credential_container", ("valid_until",), MISSING),
    ("payload", ("permissions",), "read"),
    ("payload", ("constraints",), {}),
    ("payload", ("agent_id",), 7),
    ("possession_proof", ("audience",), ["svc:a"]),
    ("possession_proof", ("nonce",), 7),
    ("possession_proof", ("credential_digest",), MISSING),
    ("possession_proof", ("timestamp",), 1777636800),
    ("revocation_list", ("version",), True),
    ("revocation_list", ("version",), "2"),
    ("revocation_list", ("issuer_id",), 5),
    ("revocation_list", ("revoked",), "c-1"),
    ("revocation_list", ("updated_at",), MISSING),
    ("state_voucher", ("sequence",), True),
    ("state_voucher", ("spent",), "1e3"),
    ("state_voucher", ("remaining",), "NaN"),
    ("state_voucher", ("spent",), 0),
    ("state_voucher", ("authority_id",), ["ledger:a"]),
    ("state_voucher", ("prev_signature",), MISSING),
    ("registry", ("version",), True),
    ("registry", ("registry_id",), 5),
    ("registry", ("issuers", "iss:a", "standing"), 1),
    ("registry", ("issuers", "iss:a", "profiles"), "*"),
    ("registry", ("state_authorities", 0, "pointer"), ["ledger:a"]),
    ("registry", ("vocabulary_refs", 0), ["claims"]),
    ("registry", ("valid_from",), MISSING),
    ("manifest", ("version",), True),
    ("manifest", ("receiver_id",), ["svc:a"]),
    ("manifest", ("supported_vocabularies", 0, "min_version"), True),
    ("manifest", ("supported_vocabularies", 0, "profile_id"), 2),
    ("manifest", ("accepted_registries",), "registry:a"),
    ("manifest", ("valid_until",), MISSING),
    ("vocabulary_range", ("max_version",), True),
    ("vocabulary_range", ("min_version",), "1"),
    ("vocabulary_range", ("profile_id",), MISSING),
    ("vocabulary", ("version",), True),
    ("vocabulary", ("profile_id",), 5),
    ("vocabulary", ("identifiers", "claims.total", "type"), ["decimal"]),
    ("vocabulary", ("identifiers", "claims.total", "status"), 1),
    ("vocabulary", ("identifiers",), MISSING),
    ("mapping_profile", ("version",), True),
    ("mapping_profile", ("profile_id",), 5),
    ("mapping_profile", ("aliases", 0, "field"), 5),
    ("mapping_profile", ("aliases", 0, "identifier"), ["core.amount"]),
    ("mapping_profile", ("aliases", 0, "type"), MISSING),
    ("mapping_profile", ("valid_until",), MISSING),
    ("period", ("seconds",), True),
    ("period", ("seconds",), "3600"),
    ("period", ("kind",), 5),
    ("period", ("kind",), MISSING),
    ("local_policy", ("policy_id",), 5),
    ("local_policy", ("required_context_fields",), "core.workflow_id"),
    ("local_policy", ("constraints", 0), "NumericLimitConstraint"),
    ("local_policy", ("policy_id",), MISSING),
    ("workflow_policy", ("workflow_id",), ["wf:a"]),
    ("workflow_policy", ("roles", 0, "role_id"), 5),
    ("workflow_policy", ("shared_fields",), "core.amount"),
    ("workflow_policy", ("roles", 0, "issuer_pattern"), MISSING),
    ("workflow_role", ("required_permission",), 5),
    ("workflow_role", ("role_id",), MISSING),
    ("signing_key", ("key_id",), 5),
    ("signing_key", ("private_key",), ["00"]),
    ("signing_key", ("private_key",), MISSING),
    ("signing_key", ("public_key",), 5),
    ("engine_config", ("evaluator_id",), 5),
    ("engine_config", ("revocation_max_age_seconds",), True),
    ("engine_config", ("revocation_max_age_seconds",), "3600"),
    ("engine_config", ("revocation_lists", 0, "issuer_public"), 5),
    ("engine_config", ("max_chain_depth",), True),
    ("engine_config", ("pop_required",), 1),
    ("engine_config", ("state", "freshness_seconds"), True),
    ("engine_config", ("state", "epoch", "allocation"), "1e3"),
    ("engine_config", ("state", "epoch", "allocation"), "NaN"),
    ("engine_config", ("state", "epoch", "epoch_length_seconds"), True),
    ("engine_config", ("evaluator_id",), MISSING),
    ("ledger_row", ("key",), 5),
    ("ledger_row", ("amount",), "1e3"),
    ("ledger_row", ("amount",), 10),
    ("ledger_row", ("period", "seconds"), True),
    ("ledger_row", ("timestamp",), MISSING),
    ("capabilities", ("credential_class",), 5),
    ("capabilities", ("profile_versions", "claims"), True),
    ("capabilities", ("trust_anchors",), "registry:a"),
    ("capabilities", ("producible_fields",), [5]),
    ("request_context", ("action",), 5),
    ("request_context", ("fields", "core.amount", "type"), ["decimal"]),
    ("request_context", ("fields", "core.amount", "value"), MISSING),
    ("typed_value", ("value",), "1e3"),
    ("typed_value", ("type",), 5),
]


def _with(obj: dict, path: tuple, value: object) -> dict:
    obj = copy.deepcopy(obj)
    *parents, last = path
    target = obj
    for step in parents:
        target = target[step]
    if value is MISSING:
        del target[last]
    else:
        target[last] = value
    return obj


@pytest.mark.parametrize("name", sorted(READERS))
def test_each_reader_accepts_its_valid_object(name):
    read, valid, _ = READERS[name]
    read(valid())


def _case_id(value: object) -> str:
    if isinstance(value, tuple):
        return ".".join(map(str, value))
    return "missing" if value is MISSING else repr(value)


@pytest.mark.parametrize("name, path, value", CASES, ids=_case_id)
def test_a_wrong_json_type_raises_the_readers_typed_error(name, path, value):
    read, valid, error = READERS[name]
    with pytest.raises(error) as raised:
        read(_with(valid(), path, value))
    assert not isinstance(raised.value, (KeyError, TypeError))


def test_every_reader_has_a_case():
    assert {name for name, _, _ in CASES} == set(READERS)


@pytest.mark.parametrize("name", sorted(READERS))
@pytest.mark.parametrize("obj", [[], "text", 7, None])
def test_a_non_object_raises_the_readers_typed_error(name, obj):
    read, _, error = READERS[name]
    with pytest.raises(error):
        read(obj)
