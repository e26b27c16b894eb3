"""The package's flat surface: what ``from mandate import *`` binds."""

from types import ModuleType

import mandate

SURFACE = """
ALLOW AliasEntry AttenuationViolation AuditError AuditLog AuditRecord AuthorizationPayload
CORE_VOCABULARY CanonicalizationError ConformanceReport Constraint ContainerError
CredentialContainer CredentialSummary CumulativeLimitConstraint DENY Decision DenialReason
DenyCode Engine EngineConfig EnumeratedListConstraint EpochAllocation EpochLedger EpochQuota
FileStateAuthority Finding FixtureError GENESIS_DIGEST GovernanceManifest InMemoryStateAuthority
InvalidPayloadError IssuerEntry LocalPolicy MalformedContainerError ManifestError MappingProfile
NonceCache NumericLimitConstraint OverBudgetError Period PossessionProof PreflightReport
RegistryError RequestContext RevocationList RevocationStore SCENARIO_NAMES ScenarioBundle
SemanticType SenderCapabilities SigningKey StateAuthorityEntry StateUnreachableError
StateVoucher StringPatternConstraint TemporalWindowConstraint TraceEntry TrustRegistry
TypedValue UnknownConstraint UnknownScenarioError Vocabulary VocabularyEntry VoucherMemory
WELL_KNOWN_PATH WorkflowComposition WorkflowPolicy WorkflowRole allocate_epoch_quotas
attach_signature build_engine build_manifest build_mapping_profile build_registry
canonical_bytes canonical_dumps check_attenuation check_signature constraint_from_dict
digest_object evaluate_constraint from_transport generate_key glob_match
identity_mapping_profile issue_credential load_registry load_scenario load_signing_key
lookup_identifier make_possession_proof make_voucher new_revocation_list parse_container
parse_timestamp parse_typed_value pattern_subsumes preflight render_timestamp
resolve_semantic_field revoke run_vector run_vectors sha256_hex to_transport update_voucher
validate_mapping_profile validate_payload verify_audit_chain verify_container verify_manifest
verify_voucher_chain
""".split()


def test_the_flat_surface_exports_no_submodule():
    assert not [name for name in mandate.__all__ if isinstance(getattr(mandate, name), ModuleType)]
    namespace: dict = {}
    exec("from mandate import *", namespace)
    assert "model" not in namespace and "pipeline" not in namespace
    assert not [name for name, value in namespace.items() if isinstance(value, ModuleType)]


def test_the_flat_surface_is_unchanged():
    assert len(SURFACE) == 113
    assert mandate.__all__ == SURFACE
