"""Portable, cryptographically verifiable authorization for autonomous agents.

Credentials carry typed constraints; enforcement is local, deterministic,
and fail-closed; every decision leaves a signed, hash-chained audit record.
The public surface below is everything an integrator needs: artifacts
(keys, credentials, registries, manifests, vouchers), the evaluation
engine, and the conformance tooling.
"""

from types import ModuleType as _ModuleType

from .canonical import (
    CanonicalizationError,
    canonical_bytes,
    canonical_dumps,
    digest_object,
    from_transport,
    sha256_hex,
    to_transport,
)
from .keys import SigningKey, attach_signature, check_signature, generate_key, load_signing_key
from .model import (
    ALLOW,
    DENY,
    AuthorizationPayload,
    Decision,
    DenialReason,
    DenyCode,
    RequestContext,
    SemanticType,
    TraceEntry,
    TypedValue,
    parse_timestamp,
    parse_typed_value,
    render_timestamp,
    validate_payload,
)
from .constraints import (
    Constraint,
    CumulativeLimitConstraint,
    EnumeratedListConstraint,
    NumericLimitConstraint,
    Period,
    StringPatternConstraint,
    TemporalWindowConstraint,
    UnknownConstraint,
    check_attenuation,
    constraint_from_dict,
    evaluate_constraint,
    glob_match,
    pattern_subsumes,
)
from .container import (
    AttenuationViolation,
    ContainerError,
    CredentialContainer,
    InvalidPayloadError,
    MalformedContainerError,
    NonceCache,
    PossessionProof,
    RevocationList,
    RevocationStore,
    issue_credential,
    make_possession_proof,
    new_revocation_list,
    parse_container,
    revoke,
    verify_container,
)
from .semantics import (
    CORE_VOCABULARY,
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
from .registry import (
    IssuerEntry,
    RegistryError,
    StateAuthorityEntry,
    TrustRegistry,
    build_registry,
    load_registry,
)
from .audit import AuditError, AuditLog, AuditRecord, GENESIS_DIGEST, verify_audit_chain
from .stateful import (
    EpochAllocation,
    EpochLedger,
    EpochQuota,
    FileStateAuthority,
    InMemoryStateAuthority,
    OverBudgetError,
    StateUnreachableError,
    StateVoucher,
    VoucherMemory,
    allocate_epoch_quotas,
    make_voucher,
    update_voucher,
    verify_voucher_chain,
)
from .pipeline import (
    Engine,
    EngineConfig,
    LocalPolicy,
    WorkflowComposition,
    WorkflowPolicy,
    WorkflowRole,
)
from .discovery import (
    CredentialSummary,
    Finding,
    GovernanceManifest,
    ManifestError,
    PreflightReport,
    SenderCapabilities,
    WELL_KNOWN_PATH,
    build_manifest,
    preflight,
    verify_manifest,
)
from .conformance import ConformanceReport, FixtureError, build_engine, run_vector, run_vectors
from .scenarios import SCENARIO_NAMES, ScenarioBundle, UnknownScenarioError, load_scenario

# The submodules bound by the imports above are not part of the flat surface.
__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
