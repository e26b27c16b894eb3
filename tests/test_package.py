"""The package's flat surface, its modules' imports, and the bindings the
benchmark tracer wraps."""

import ast
import importlib.util
from pathlib import Path
from types import ModuleType

import mandate

ROOT = Path(__file__).resolve().parents[1]

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


def _tracing() -> ModuleType:
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_binding_the_benchmark_tracer_wraps_exists_and_is_restored():
    tracing = _tracing()
    # A class owner's own __dict__ (an inherited method would be wrapped on
    # the subclass), a module's attributes otherwise: vars() reads either.
    missing = [(owner.__name__, attribute) for owner, attribute, _ in tracing.TARGETS if attribute not in vars(owner)]
    assert not missing, f"the tracer wraps bindings that are gone: {missing}"
    originals = [(owner, attribute, vars(owner)[attribute]) for owner, attribute, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(vars(owner)[attribute] is not original for owner, attribute, original in originals)
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attribute] is original for owner, attribute, original in originals)


def test_no_module_imports_a_name_it_never_uses():
    """Outside ``__init__``, a module uses every name it imports, unless the
    benchmark tracer wraps that binding, which must then stay in place."""
    wrapped = {(owner.__name__, attribute) for owner, attribute, _ in _tracing().TARGETS}
    unused = []
    for path in sorted((ROOT / "src" / "mandate").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text("utf-8"))
        imported = [
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
            for alias in node.names
        ]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = f"mandate.{path.stem}"
        unused += [f"{module}.{name}" for name in imported if name not in used and (module, name) not in wrapped]
    assert unused == []


def _is_stub(body: list) -> bool:
    """A protocol stub: ``...``, after a docstring if there is one."""
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
        body = body[1:]
    return len(body) == 1 and isinstance(body[0], ast.Expr) and getattr(body[0].value, "value", None) is Ellipsis


def test_no_function_takes_a_parameter_it_never_reads():
    """Every parameter of a function under ``src/mandate/`` is read in its
    body, so a value threaded through a call chain cannot outlive its use.
    Protocol stubs, dunder methods, ``self`` and ``cls`` are exempt."""
    unread = []
    for path in sorted((ROOT / "src" / "mandate").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or _is_stub(node.body):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, *filter(None, (args.vararg, args.kwarg))]
            read = {n.id for n in ast.walk(ast.Module(node.body, [])) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [
                f"{path.stem}.{node.name}({p.arg})"
                for p in params
                if p.arg not in read and p.arg not in ("self", "cls")
            ]
    assert unread == []
