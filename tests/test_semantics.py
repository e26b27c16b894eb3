"""Vocabularies, mapping profiles, and the governed resolution path."""

from datetime import timedelta

import pytest

import mandate.semantics
from mandate.keys import check_signature, generate_key
from mandate.model import (
    DenyCode,
    RequestContext,
    SemanticType,
    ValueParseError,
    parse_timestamp,
    parse_typed_value,
)
from mandate.semantics import (
    CORE_VOCABULARY,
    STATUS_CONDITIONAL,
    AliasEntry,
    MappingProfile,
    Vocabulary,
    VocabularyEntry,
    build_mapping_profile,
    identity_mapping_profile,
    lookup_identifier,
    resolve_semantic_field,
    validate_mapping_profile,
)

NOW = parse_timestamp("2026-05-01T12:00:00Z")
LATER = parse_timestamp("2027-01-01T00:00:00Z")

STEWARD = generate_key("steward:test", seed="semantics:steward")
STEWARD_KEYS = {"steward:test": STEWARD.public_hex}


def claims_vocabulary():
    return Vocabulary(
        profile_id="claims",
        version=1,
        entries={
            "claims.category": VocabularyEntry(
                "claims.category", SemanticType.STRING_ID, STATUS_CONDITIONAL
            ),
            "claims.payout": VocabularyEntry(
                "claims.payout", SemanticType.DECIMAL, STATUS_CONDITIONAL
            ),
        },
    )


def profile(aliases, valid_until=LATER, key=STEWARD):
    return build_mapping_profile("claims", 1, valid_until, aliases, key)


def context(**fields):
    typed = {}
    for name, (kind, text) in fields.items():
        typed[name] = parse_typed_value(text, kind)
    return RequestContext(action="task.run", fields=typed)


# --- vocabularies -------------------------------------------------------------

def test_core_vocabulary_is_compiled_in():
    assert lookup_identifier("core.amount", []) is not None
    assert lookup_identifier("core.amount", []).semantic_type is SemanticType.DECIMAL
    assert lookup_identifier("core.nonexistent", []) is None


def test_domain_vocabulary_namespace_rules():
    with pytest.raises(ValueParseError):
        Vocabulary(
            profile_id="claims",
            version=1,
            entries={"flat": VocabularyEntry("flat", SemanticType.STRING_ID, STATUS_CONDITIONAL)},
        )
    with pytest.raises(ValueParseError):
        Vocabulary(
            profile_id="claims",
            version=1,
            entries={
                "core.amount": VocabularyEntry(
                    "core.amount", SemanticType.DECIMAL, STATUS_CONDITIONAL
                )
            },
        )
    with pytest.raises(ValueParseError):
        Vocabulary(
            profile_id="claims",
            version=1,
            entries={
                "other.field": VocabularyEntry(
                    "other.field", SemanticType.STRING_ID, STATUS_CONDITIONAL
                )
            },
        )


def test_vocabulary_round_trip():
    vocabulary = claims_vocabulary()
    assert Vocabulary.from_dict(vocabulary.to_dict()) == vocabulary


def test_lookup_prefers_core_then_domain():
    vocabulary = claims_vocabulary()
    assert lookup_identifier("claims.payout", [vocabulary]).semantic_type is SemanticType.DECIMAL
    assert lookup_identifier("claims.missing", [vocabulary]) is None


# --- mapping profile validation -----------------------------------------------

def test_valid_profile_passes():
    p = profile([AliasEntry("core.amount", "claim_total", SemanticType.DECIMAL)])
    assert validate_mapping_profile(p, NOW, STEWARD_KEYS) is None


def test_profile_missing():
    reason = validate_mapping_profile(None, NOW, STEWARD_KEYS)
    assert reason.code is DenyCode.MAPPING_PROFILE_MISSING


def test_profile_unknown_steward_key():
    p = profile([AliasEntry("core.amount", "claim_total", SemanticType.DECIMAL)])
    reason = validate_mapping_profile(p, NOW, {"someone:else": STEWARD.public_hex})
    assert reason.code is DenyCode.MAPPING_PROFILE_INVALID


def test_profile_tampered_signature():
    p = profile([AliasEntry("core.amount", "claim_total", SemanticType.DECIMAL)])
    raw = dict(p.raw)
    raw["aliases"] = [dict(row, field="attacker_field") for row in raw["aliases"]]
    tampered = MappingProfile.from_dict(raw)
    reason = validate_mapping_profile(tampered, NOW, STEWARD_KEYS)
    assert reason.code is DenyCode.MAPPING_PROFILE_INVALID


def test_profile_stale():
    p = profile(
        [AliasEntry("core.amount", "claim_total", SemanticType.DECIMAL)],
        valid_until=parse_timestamp("2026-01-15T00:00:00Z"),
    )
    reason = validate_mapping_profile(p, NOW, STEWARD_KEYS)
    assert reason.code is DenyCode.MAPPING_PROFILE_INVALID
    assert "stale" in reason.detail
    # The boundary instant itself is still valid.
    assert validate_mapping_profile(p, parse_timestamp("2026-01-15T00:00:00Z"), STEWARD_KEYS) is None


def test_profile_duplicate_rows_invalid():
    row = AliasEntry("core.amount", "claim_total", SemanticType.DECIMAL)
    p = profile([row, row])
    reason = validate_mapping_profile(p, NOW, STEWARD_KEYS)
    assert reason.code is DenyCode.MAPPING_PROFILE_INVALID
    assert "duplicate" in reason.detail


def test_profile_trust_verdict_is_kept_per_steward_key(monkeypatch):
    calls = []

    def counting_check(obj, keys):
        calls.append(dict(keys))
        return check_signature(obj, keys)

    monkeypatch.setattr(mandate.semantics, "check_signature", counting_check)
    impostor = generate_key("steward:test", seed="semantics:impostor")
    wrong_keys = {"steward:test": impostor.public_hex}
    p = profile([AliasEntry("core.amount", "claim_total", SemanticType.DECIMAL)])
    for _ in range(2):
        assert validate_mapping_profile(p, NOW, wrong_keys).code is DenyCode.MAPPING_PROFILE_INVALID
        assert validate_mapping_profile(p, NOW, STEWARD_KEYS) is None
        assert validate_mapping_profile(p, NOW, dict(STEWARD_KEYS)) is None  # an equal map, not the same one
    # One signature check per distinct steward key map, however often the profile is validated.
    assert calls == [wrong_keys, STEWARD_KEYS]


def test_profile_round_trip_preserves_signature():
    p = profile([AliasEntry("core.amount", "claim_total", SemanticType.DECIMAL)])
    restored = MappingProfile.from_dict(p.to_dict())
    assert validate_mapping_profile(restored, NOW, STEWARD_KEYS) is None
    assert restored.digest() == p.digest()


# --- resolution order and codes -------------------------------------------------

def resolve(field, ctx, mapping, vocabularies=()):
    status = validate_mapping_profile(mapping, NOW, STEWARD_KEYS)
    return resolve_semantic_field(field, ctx, mapping, list(vocabularies), status)


def test_resolution_happy_path():
    p = profile([AliasEntry("core.amount", "claim_total", SemanticType.DECIMAL)])
    ctx = context(claim_total=(SemanticType.DECIMAL, "125.50"))
    value, reason = resolve("core.amount", ctx, p)
    assert reason is None
    assert value.text == "125.50"


def test_resolution_missing_profile_beats_everything():
    ctx = context(claim_total=(SemanticType.DECIMAL, "125.50"))
    value, reason = resolve("core.amount", ctx, None)
    assert value is None
    assert reason.code is DenyCode.MAPPING_PROFILE_MISSING


def test_resolution_invalid_profile_beats_unknown_identifier():
    p = profile(
        [AliasEntry("core.amount", "claim_total", SemanticType.DECIMAL)],
        valid_until=parse_timestamp("2026-01-15T00:00:00Z"),
    )
    ctx = context(claim_total=(SemanticType.DECIMAL, "125.50"))
    value, reason = resolve("made_up.field", ctx, p)
    assert reason.code is DenyCode.MAPPING_PROFILE_INVALID


def test_resolution_unknown_identifier():
    p = profile([AliasEntry("core.amount", "claim_total", SemanticType.DECIMAL)])
    ctx = context(claim_total=(SemanticType.DECIMAL, "125.50"))
    value, reason = resolve("claims.category", ctx, p)  # no vocabulary configured
    assert reason.code is DenyCode.SEMANTIC_IDENTIFIER_UNKNOWN


def test_resolution_alias_conflict_beats_alias_missing_order():
    p = profile(
        [
            AliasEntry("core.amount", "claim_total", SemanticType.DECIMAL),
            AliasEntry("core.amount", "invoice_total", SemanticType.DECIMAL),
        ]
    )
    ctx = context(claim_total=(SemanticType.DECIMAL, "125.50"))
    value, reason = resolve("core.amount", ctx, p)
    assert reason.code is DenyCode.SEMANTIC_ALIAS_CONFLICT


def test_resolution_identical_duplicate_rows_conflict_free_but_profile_invalid():
    # Two byte-identical rows are an artifact defect, caught by validation
    # before any per-identifier conflict logic runs.
    row = AliasEntry("core.amount", "claim_total", SemanticType.DECIMAL)
    p = profile([row, row])
    ctx = context(claim_total=(SemanticType.DECIMAL, "125.50"))
    value, reason = resolve("core.amount", ctx, p)
    assert reason.code is DenyCode.MAPPING_PROFILE_INVALID


def test_resolution_alias_missing():
    p = profile([AliasEntry("core.currency_code", "currency", SemanticType.STRING_CODE)])
    ctx = context(claim_total=(SemanticType.DECIMAL, "125.50"))
    value, reason = resolve("core.amount", ctx, p)
    assert reason.code is DenyCode.SEMANTIC_ALIAS_MISSING


def test_resolution_declared_type_disagrees_with_vocabulary():
    p = profile([AliasEntry("core.amount", "claim_total", SemanticType.STRING_ID)])
    ctx = context(claim_total=(SemanticType.DECIMAL, "125.50"))
    value, reason = resolve("core.amount", ctx, p)
    assert reason.code is DenyCode.SEMANTIC_TYPE_MISMATCH


def test_resolution_context_field_missing():
    p = profile([AliasEntry("core.amount", "claim_total", SemanticType.DECIMAL)])
    ctx = context(other=(SemanticType.DECIMAL, "1"))
    value, reason = resolve("core.amount", ctx, p)
    assert reason.code is DenyCode.CONTEXT_FIELD_MISSING


def test_resolution_context_value_wrong_type():
    p = profile([AliasEntry("core.amount", "claim_total", SemanticType.DECIMAL)])
    ctx = context(claim_total=(SemanticType.STRING_ID, "125.50"))
    value, reason = resolve("core.amount", ctx, p)
    assert reason.code is DenyCode.SEMANTIC_TYPE_MISMATCH


def test_resolution_domain_identifier_through_vocabulary():
    p = profile([AliasEntry("claims.payout", "payout_amount", SemanticType.DECIMAL)])
    ctx = context(payout_amount=(SemanticType.DECIMAL, "90"))
    value, reason = resolve("claims.payout", ctx, p, [claims_vocabulary()])
    assert reason is None
    assert value.as_decimal() == 90


# --- identity profile ----------------------------------------------------------

def test_identity_profile_covers_core_and_domains():
    p = identity_mapping_profile([claims_vocabulary()], LATER, STEWARD)
    assert validate_mapping_profile(p, NOW, STEWARD_KEYS) is None
    covered = {a.identifier for a in p.aliases}
    assert set(CORE_VOCABULARY) <= covered
    assert "claims.payout" in covered
    ctx = context(**{"core.amount": (SemanticType.DECIMAL, "10")})
    value, reason = resolve_semantic_field("core.amount", ctx, p, [claims_vocabulary()], None)
    assert reason is None and value.text == "10"
