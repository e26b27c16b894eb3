"""The package's flat surface, its modules' imports, the bindings the
benchmark tracer wraps, private state reached only through its owner, and
the one base of its signed artifacts."""

import ast
import importlib.util
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path
from types import ModuleType

import mandate
from mandate.canonical import Signed

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



def test_the_package_imports_only_the_standard_library_and_its_declared_dependency():
    """Every import under ``src/mandate/`` names the standard library,
    ``cryptography`` (the one dependency ``pyproject.toml`` declares) or the
    package itself.  A module that is merely installed, such as a faster JSON
    library, would break a clean install and the promise that the same bytes
    decide the same way in every parser."""
    foreign = []
    for path in sorted((ROOT / "src" / "mandate").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            foreign += [
                f"{path.stem}:{node.lineno} {root}"
                for root in roots
                if root not in sys.stdlib_module_names and root not in ("cryptography", "mandate")
            ]
    assert foreign == []

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


def test_no_module_reaches_into_another_objects_private_attributes():
    """Under ``src/mandate/``, a ``_private`` attribute (a dunder is not one)
    is read or set only on ``self``, ``cls`` or ``super()``: another object's
    private state is reached through a method of its own."""
    reached = []
    for path in sorted((ROOT / "src" / "mandate").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
                continue
            if node.attr.startswith("__") and node.attr.endswith("__"):
                continue
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id in ("self", "cls"):
                continue
            if isinstance(owner, ast.Call) and isinstance(owner.func, ast.Name) and owner.func.id == "super":
                continue
            reached.append(f"{path.stem}:{node.lineno} {ast.unparse(node)}")
    assert reached == []


def test_every_signed_artifact_is_written_rendered_and_digested_by_one_base():
    """A dataclass holding a ``raw`` signed object takes ``to_dict``,
    ``dumps`` and ``digest`` from ``canonical.Signed``; only a credential
    keeps its own ``digest``, the one taken from its parse-time rendering."""
    artifacts = {}
    for path in sorted((ROOT / "src" / "mandate").glob("*.py")):
        module = importlib.import_module(f"mandate.{path.stem}")
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__ and is_dataclass(cls):
                if "raw" in {f.name for f in fields(cls)}:
                    artifacts[cls.__name__] = cls
    assert sorted(artifacts) == [
        "CredentialContainer", "GovernanceManifest", "MappingProfile", "PossessionProof",
        "RevocationList", "StateVoucher", "TrustRegistry",
    ]
    assert [name for name, cls in artifacts.items() if not issubclass(cls, Signed)] == []
    assert [(name, m) for name, cls in artifacts.items() for m in ("to_dict", "dumps") if m in vars(cls)] == []
    assert [name for name, cls in artifacts.items() if "digest" in vars(cls)] == ["CredentialContainer"]
