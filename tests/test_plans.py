"""The cache-hit path: what is planned once gives the same decisions and the
same audit bytes as what is computed afresh.

The engine keeps a resolution plan per pinned profile, a constraint plan per
kept credential and a rendered audit template per log and governance
snapshot.  These tests pin the audit bytes those plans write, count the
lookups a repeat no longer makes, and compare a long-lived engine with a
freshly built one on every shipped vector, both scenario bundles, an evicting
credential stream and a config whose trust material is reassigned.
"""

import copy
import dataclasses
import hashlib
import importlib
import pkgutil
import sys
import threading
from decimal import Decimal
from pathlib import Path

import pytest

import mandate
from mandate import audit, canonical, container, pipeline, semantics
from mandate.audit import AuditLog, verify_audit_chain
from mandate.canonical import load_json, plain_dumps
from mandate.conformance import build_engine, decode_credential, iter_vector_files
from mandate.constraints import EnumeratedListConstraint, NumericLimitConstraint
from mandate.container import NonceCache, PossessionProof, issue_credential, make_possession_proof, parse_container
from mandate.keys import generate_key, load_signing_key
from mandate.model import AuthorizationPayload, DenyCode, RequestContext, SemanticType, parse_timestamp, parse_typed_value
from mandate.pipeline import PARSED_CREDENTIALS_KEPT, Engine, EngineConfig, LocalPolicy, WorkflowPolicy, WorkflowRole
from mandate.registry import IssuerEntry, build_registry
from mandate.scenarios import SCENARIO_NAMES, load_scenario
from mandate.semantics import (
    AliasEntry,
    MappingProfile,
    Vocabulary,
    VocabularyEntry,
    build_mapping_profile,
    identity_mapping_profile,
)
from mandate.stateful import StateVoucher, VoucherMemory

NOW = parse_timestamp("2026-05-01T12:00:00Z")
FROM = parse_timestamp("2026-01-01T00:00:00Z")
UNTIL = parse_timestamp("2026-12-31T23:59:59Z")
RECEIVER = "svc:plans:receiver"

ISSUER = generate_key("iss:plans:authority", seed="plans:issuer")
ROGUE = generate_key("iss:plans:rogue", seed="plans:rogue")
SUBJECT = generate_key("agent:plans:worker", seed="plans:subject")
DELEGATE = generate_key("agent:plans:delegate", seed="plans:delegate")
REVIEWER = generate_key("agent:plans:reviewer", seed="plans:reviewer")
STEWARD = generate_key("steward:plans", seed="plans:steward")
AUDIT = generate_key("svc:plans:receiver#audit", seed="plans:audit")

# Context text a renderer must escape, or must leave as it is.
AWKWARD = 'jobs/naïve "quoted" back\\slash 東京 \U0001f600'
# A domain vocabulary, for constraints on a field outside the core table.
REGION = Vocabulary("plans", 1, {"plans.region": VocabularyEntry("plans.region", SemanticType.STRING_ID, "conditional")})
LOCK = type(threading.Lock())


def _config(path=None, **overrides) -> EngineConfig:
    args = dict(
        evaluator_id=RECEIVER,
        audit_log=AuditLog(RECEIVER, AUDIT, path=path, environment='eu "west" \\ ü'),
        trusted_issuers={ISSUER.key_id: ISSUER.public_hex, ROGUE.key_id: ROGUE.public_hex},
        steward_keys={STEWARD.key_id: STEWARD.public_hex},
        mapping_profile=identity_mapping_profile([], UNTIL, STEWARD),
        local_policy=LocalPolicy(policy_id="plans-policy", required_context_fields=("core.amount",)),
        manifest_digest="manifest-ü",
    )
    args.update(overrides)
    return EngineConfig(**args)


def _issue(subject, issuer=ISSUER, permissions=("task.run",), limit="1000", parent=None, name="c", extra=()):
    return issue_credential(
        AuthorizationPayload(
            agent_id=subject.key_id,
            issuer_id=issuer.key_id,
            permissions=frozenset(permissions),
            constraints=(
                NumericLimitConstraint(field="core.amount", operator="lte", value=Decimal(limit), currency="USD"),
                EnumeratedListConstraint(field="core.resource_id", denied=frozenset({"jobs/forbidden"})),
                *extra,
            ),
        ),
        subject_public_key=subject.public_hex,
        audience=[RECEIVER],
        valid_from=FROM,
        valid_until=UNTIL,
        issuer_key=issuer,
        parent=parent,
        credential_id=f"cred-plans-{name}",
    )


def _context(amount="250", resource=AWKWARD, action="task.run", **extra):
    fields = {
        "core.amount": parse_typed_value(amount, SemanticType.DECIMAL),
        "core.currency_code": parse_typed_value("USD", SemanticType.STRING_CODE),
        "core.resource_id": parse_typed_value(resource, SemanticType.STRING_ID),
    }
    fields.update({name: parse_typed_value(text, SemanticType.STRING_ID) for name, text in extra.items()})
    return RequestContext(action=action, fields=fields)


def _wire(container) -> bytes:
    return container.dumps().encode("utf-8")


def _pinned_sequence(path) -> list[str]:
    """Every audit line of a fixed sequence: allow, early deny, constraint
    deny and a chain, each presented twice as bytes; an empty chain (None
    members); a workflow composition, all written to the file at ``path``;
    then both scenario bundles, kept in memory."""
    engine = Engine(_config(path))
    root = _issue(SUBJECT, name="root")
    chain = [root, _issue(DELEGATE, issuer=SUBJECT, limit="500", parent=root, name="link")]
    rogue = _issue(SUBJECT, issuer=ROGUE, name="rogue")
    nonce = iter(range(1000))

    def present(cred, ctx, key=SUBJECT, presenter=None):
        leaf = cred[-1] if isinstance(cred, list) else cred
        pop = make_possession_proof(leaf, RECEIVER, f"pin-{next(nonce)}", NOW, key)
        wire = [_wire(c) for c in cred] if isinstance(cred, list) else _wire(cred)
        return engine.evaluate(wire, ctx, presenter or leaf.subject_id, pop, now=NOW)

    for _ in range(2):
        present(root, _context())  # allow
        present(root, _context(action="task.delete"))  # early deny: permission
        present(root, _context(amount="5000"))  # constraint deny
        present(root, _context(resource="jobs/forbidden"))  # constraint deny on C2
        present(rogue, _context(), presenter="agent:plans:someone-else")  # early deny: subject binding
        present(chain, _context(amount="400"), key=DELEGATE)  # chain allow
    engine.evaluate([], _context(), SUBJECT.key_id, None, now=NOW)  # no credential: None members
    reviewer = _issue(REVIEWER, permissions=("task.review",), name="reviewer")
    policy = WorkflowPolicy(
        workflow_id="wf-plans",
        roles=(WorkflowRole("runner", "iss:plans:*", "task.run"), WorkflowRole("reviewer", "iss:plans:*", "task.review")),
        shared_fields=("core.amount",),
    )
    engine.compose_workflow(policy, [_wire(root), _wire(reviewer)], now=NOW)
    lines = path.read_text("utf-8").splitlines()
    assert lines == [record.dumps() for record in engine.config.audit_log.records()]

    for name in ("insurance_claims", "supply_chain"):
        bundle = load_scenario(name)
        scenario = Engine(bundle.engine_config(AuditLog(bundle.evaluator_id, bundle.keys["receiver"])))
        for round_index in range(2):
            for label in sorted(bundle.contexts):
                pop = bundle.possession_proof(f"pin-{name}-{round_index}-{label}")
                scenario.evaluate(
                    _wire(bundle.credential), bundle.contexts[label], bundle.credential.subject_id, pop, now=bundle.now
                )
        lines += [record.dumps() for record in scenario.config.audit_log.records()]
    return lines


# SHA-256 of the lines above, one per record, each followed by a newline.
# Any change to key order, escaping, record_id derivation, the signed bytes or
# what a planned repeat records changes it.
PINNED_AUDIT_SHA256 = "b465424ff696814f7a02b40c25b1e757dfe5e7c858d139e18bcc2722b75c5a38"


def test_the_engine_audit_bytes_are_pinned(tmp_path):
    lines = _pinned_sequence(tmp_path / "audit.log")
    assert len(lines) == 2 * 6 + 2 + 2 * 2 + 2 * 3
    assert hashlib.sha256("".join(line + "\n" for line in lines).encode("utf-8")).hexdigest() == PINNED_AUDIT_SHA256


# --- what a repeat no longer looks up -------------------------------------------


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _present_root(engine, root, nonce, ctx=None):
    pop = make_possession_proof(root, RECEIVER, nonce, NOW, SUBJECT)
    return engine.evaluate(_wire(root), ctx or _context(), SUBJECT.key_id, pop, now=NOW)


def test_a_request_after_the_first_with_a_profile_looks_nothing_up(monkeypatch):
    lookups = _counting(monkeypatch, semantics, "lookup_identifier")
    engine = Engine(_config())
    root = _issue(SUBJECT, name="root")
    assert _present_root(engine, root, "first").allowed
    assert lookups  # the plan is built on the first evaluation
    lookups.clear()
    for i in range(3):
        assert _present_root(engine, root, f"again-{i}").allowed
        assert not _present_root(engine, root, f"deny-{i}", _context(amount="5000")).allowed
    assert not lookups


def test_a_vocabularies_list_is_planned_once_and_again_when_changed_in_place(monkeypatch):
    lookups = _counting(monkeypatch, semantics, "lookup_identifier")
    vocabularies = [REGION]
    engine = Engine(_config(vocabularies=vocabularies, mapping_profile=identity_mapping_profile([REGION], UNTIL, STEWARD)))
    root = _issue(SUBJECT, name="root", extra=(EnumeratedListConstraint(field="plans.region", allowed=frozenset({"eu"})),))
    ctx = _context(**{"plans.region": "eu"})
    assert _present_root(engine, root, "first", ctx).allowed
    lookups.clear()
    assert _present_root(engine, root, "second", ctx).allowed
    assert not lookups
    vocabularies.clear()  # in place: plans.region is governed no more
    assert _present_root(engine, root, "third", ctx).reason.code is DenyCode.SEMANTIC_IDENTIFIER_UNKNOWN


def test_a_profile_keeps_the_plan_of_the_vocabularies_last_asked_about():
    profile = identity_mapping_profile([REGION], UNTIL, STEWARD)
    governed, ungoverned = (REGION,), ()
    for vocabularies, known in ((governed, True), (ungoverned, False), (governed, True)):
        plan = profile.resolution_plan(vocabularies)
        assert ("plans.region" in plan) is known
        assert profile.resolution_plan(vocabularies) is plan


def test_a_kept_credential_repeat_plans_nothing(monkeypatch):
    families = _counting(monkeypatch, pipeline, "family_of")
    engine = Engine(_config())
    root = _issue(SUBJECT, name="root")
    assert _present_root(engine, root, "first").allowed  # presented once: nothing kept
    assert len(families) == 2
    assert _present_root(engine, root, "second").allowed  # kept now, and planned once
    assert len(families) == 4
    for i in range(3):
        assert _present_root(engine, root, f"again-{i}").allowed
        assert not _present_root(engine, root, f"deny-{i}", _context(amount="5000")).allowed
    assert len(families) == 4


def test_a_warm_allow_walks_nothing(monkeypatch):
    """A repeat of a kept credential renders its record and its proof's
    signing bytes from values already typed: ``check_canonical`` is not
    called through any module that binds it."""
    for module in pkgutil.iter_modules(mandate.__path__):
        importlib.import_module(f"mandate.{module.name}")
    bound = [
        module for name, module in sys.modules.items()
        if name.startswith("mandate.") and vars(module).get("check_canonical") is canonical.check_canonical
    ]
    assert {canonical, audit, container} <= set(bound)
    engine = Engine(_config())
    root = _issue(SUBJECT, name="root")
    wire, ctx = _wire(root), _context()
    proofs = [make_possession_proof(root, RECEIVER, f"warm-{i}", NOW, SUBJECT) for i in range(5)]
    for pop in proofs[:2]:  # kept on the second presentation, and its ALLOW results rendered
        assert engine.evaluate(wire, ctx, SUBJECT.key_id, pop, now=NOW).allowed
    walks, walk = [], canonical.check_canonical

    def counted(obj):
        walks.append(obj)
        return walk(obj)

    for module in bound:
        monkeypatch.setattr(module, "check_canonical", counted)
    for pop in proofs[2:]:
        assert engine.evaluate(wire, ctx, SUBJECT.key_id, pop, now=NOW).allowed
    assert walks == []


def _plan_builds(monkeypatch) -> list[str]:
    """The credential id of each kept entry whose plan is built, in order."""
    builds = []
    original = pipeline._Entry.plan

    def plan(kept):
        if kept.steps is None:
            builds.append(kept.container.credential_id)
        return original(kept)

    monkeypatch.setattr(pipeline._Entry, "plan", plan)
    return builds


def test_a_credential_presented_once_is_planned_for_its_evaluation_only(monkeypatch):
    builds = _plan_builds(monkeypatch)
    results, append = [], AuditLog.append

    def spy(log, **members):
        results.append(members["constraint_results"])
        return append(log, **members)

    monkeypatch.setattr(AuditLog, "append", spy)
    engine = Engine(_config())
    early = _issue(SUBJECT, name="once-early")
    assert _present_root(engine, early, "early", _context(action="task.delete")).reason.code is DenyCode.PERMISSION_DENIED
    assert builds == [] and results == [[]]  # denied before its constraints: never planned
    for i in range(3):
        once = _issue(SUBJECT, name=f"once-{i}")
        decision = _present_root(engine, once, f"deny-{i}", _context(amount="5000"))
        assert decision.reason.code is DenyCode.CONSTRAINT_FAILED
        assert engine._parsed[_wire(once)] is None  # no entry: its plan ended with its evaluation
    rows = engine.config.audit_log.records()[1].raw["constraint_results"]
    assert rows == [{"label": "C1", "type": "numeric_limit", "field": "core.amount", "result": "FAIL"}]
    allowed = _issue(SUBJECT, name="once-allowed")
    assert _present_root(engine, allowed, "allow").allowed
    assert engine._parsed[_wire(allowed)] is None
    assert builds == ["cred-plans-once-0", "cred-plans-once-1", "cred-plans-once-2", "cred-plans-once-allowed"]
    builds.clear()
    for i in range(2):  # presented again: kept, and planned on its first evaluation as a leaf only
        assert _present_root(engine, allowed, f"again-{i}").allowed
    assert builds == ["cred-plans-once-allowed"]
    # Every plan renders its ALLOW run once; a kept plan's rendering serves the records that repeat it.
    fresh, first, again = results[-3:]
    assert again is first
    assert fresh.text == first.text == (
        '[{"field":"core.amount","label":"C1","result":"PASS","type":"numeric_limit"},'
        '{"field":"core.resource_id","label":"C2","result":"PASS","type":"enumerated_list"}]'
    )
    lines = [record.line for record in engine.config.audit_log.records()[-3:]]
    assert all(f'"constraint_results":{first.text},' in line for line in lines)


def test_an_evaluation_that_starts_while_a_kept_plan_is_built_reads_no_half_built_plan(monkeypatch):
    """Another evaluation of the same bytes starts while the first builds the
    kept entry's plan, as another thread may: both decide and are recorded."""
    engine = Engine(_config())
    root = _issue(SUBJECT, name="root")
    assert _present_root(engine, root, "first").allowed  # presented once: nothing kept
    names_currency, started, nested = pipeline._names_currency, [], []

    def interleaved(constraints):
        if not started:  # the kept entry's plan is half built: another evaluation starts
            started.append(True)
            nested.append(_present_root(engine, root, "nested"))
        return names_currency(constraints)

    monkeypatch.setattr(pipeline, "_names_currency", interleaved)
    assert _present_root(engine, root, "second").allowed
    assert nested[0].allowed
    assert len(engine.config.audit_log.records()) == 3


def test_a_chain_s_fixed_trace_entries_are_built_once_per_link_index():
    engine = Engine(_config())
    root = _issue(SUBJECT, name="root")
    chain = [root, _issue(DELEGATE, issuer=SUBJECT, limit="500", parent=root, name="link")]
    traces = []
    for i in range(2):
        pop = make_possession_proof(chain[-1], RECEIVER, f"chain-{i}", NOW, DELEGATE)
        decision = engine.evaluate([_wire(c) for c in chain], _context(amount="400"), DELEGATE.key_id, pop, now=NOW)
        assert decision.allowed
        traces.append([entry for entry in decision.trace if entry.stage == "chain"])
    assert [(e.check, e.result) for e in traces[0]] == [
        ("parse", "PASS: 2 links"), ("depth", "PASS"), ("link 2 continuity", "PASS"),
        ("link 1 verify", "PASS"), ("link 2 verify", "PASS"), ("link 2 attenuation", "PASS"),
    ]
    assert all(first is second for first, second in zip(*traces))


def test_every_evaluation_appends_through_the_public_append(monkeypatch):
    appends = _counting(monkeypatch, AuditLog, "append")
    engine = Engine(_config())
    root = _issue(SUBJECT, name="root")
    for i in range(3):
        _present_root(engine, root, f"n-{i}")
    assert len(appends) == 3


# --- a long-lived engine decides as a freshly built one ----------------------------


def _clone(obj):
    """A copy of a state object (nonce cache, voucher memory, ledger) with
    its own lock and its own copy of everything else."""
    if obj is None:
        return None
    twin = copy.copy(obj)
    for name, value in vars(obj).items():
        setattr(twin, name, threading.Lock() if isinstance(value, LOCK) else copy.deepcopy(value))
    return twin



def _cold(warm: Engine, audit_key) -> Engine:
    """An engine built afresh from ``warm``'s config: fresh copies of its
    pinned profile and vocabularies (so no plan or verdict kept on them
    carries over), a fresh audit log, and copies of its replay and budget
    state, which a cache does not hold."""
    cfg, log = warm.config, warm.config.audit_log
    profile = cfg.mapping_profile
    cold = Engine(dataclasses.replace(
        cfg,
        audit_log=AuditLog(log.evaluator_id, audit_key, key_protection=log.key_protection, environment=log.environment),
        mapping_profile=MappingProfile.from_dict(profile.raw) if profile is not None else None,
        vocabularies=tuple(Vocabulary.from_dict(v.to_dict()) for v in cfg.vocabularies),
        state_clients={pointer: _clone(client) for pointer, client in cfg.state_clients.items()},
        epoch_ledger=_clone(cfg.epoch_ledger),
    ))
    cold.nonce_cache = _clone(warm.nonce_cache)
    cold.voucher_memory = _clone(warm.voucher_memory)
    return cold


def _body(log):
    records = log.records()
    if not records:
        return None
    return {k: v for k, v in records[-1].raw.items() if k not in ("prev_record", "record_id", "signature")}


def _outcome(present, engine):
    try:
        return present(engine).to_dict()
    except Exception as exc:  # both engines must raise alike
        return repr(exc)


def _same_as_cold(warm: Engine, audit_key, present) -> tuple:
    """Run ``present`` on a cold twin of ``warm``, then on ``warm``: the
    decisions and the audit bodies (minus the chain and the signature) must
    be equal.  Returns both."""
    cold = _cold(warm, audit_key)
    expected = _outcome(present, cold)
    records = len(warm.config.audit_log.records())
    got = _outcome(present, warm)
    assert got == expected
    body = None
    if len(warm.config.audit_log.records()) > records:
        body = _body(warm.config.audit_log)
        assert body == _body(cold.config.audit_log)
    else:
        assert cold.config.audit_log.records() == []
    return got, body


def _as_bytes(credential) -> bytes:
    return credential if isinstance(credential, bytes) else plain_dumps(credential).encode("utf-8", "surrogatepass")


def _vector_step(entry, now):
    credentials = [_as_bytes(decode_credential(c)) for c in entry.get("credentials", ())]

    def present(engine):
        if entry.get("workflow") is not None:
            return engine.compose_workflow(WorkflowPolicy.from_dict(entry["workflow"]), credentials, now=now)[0]
        pop = PossessionProof.from_dict(entry["pop"]) if entry.get("pop") is not None else None
        vouchers = entry.get("vouchers")
        vouchers = [StateVoucher.from_dict(v) for v in vouchers] if vouchers is not None else None
        return engine.evaluate(
            credentials,
            RequestContext.from_dict(entry["context"]),
            entry["presenter"],
            pop,
            now=now,
            vouchers=vouchers,
        )

    return present


VECTOR_FILES = iter_vector_files(Path(__file__).resolve().parent.parent / "vectors")


@pytest.mark.parametrize("path", VECTOR_FILES, ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_every_vector_decides_alike_warm_and_cold(path):
    """Each vector's priors and request, in three passes over one engine, so
    the third meets a kept credential's plan; replay memory is cleared
    between passes so a repeat reaches the plan instead of the nonce check."""
    vector = load_json(path.read_bytes())
    fixtures = vector["fixtures"]
    warm, now = build_engine(fixtures)
    audit_key = load_signing_key(fixtures["audit_key"])
    steps = [_vector_step(entry, now) for entry in (*vector["input"].get("prior", ()), vector["input"])]
    for _ in range(3):
        for present in steps:
            _same_as_cold(warm, audit_key, present)
        warm.nonce_cache, warm.voucher_memory = NonceCache(), VoucherMemory()


def test_vectors_are_all_covered():
    assert len(VECTOR_FILES) == 71


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_each_scenario_decides_alike_warm_and_cold(name):
    bundle = load_scenario(name)
    warm = Engine(bundle.engine_config(AuditLog(bundle.evaluator_id, bundle.keys["receiver"])))
    wire = _wire(bundle.credential)
    outcomes = []
    for round_index in range(3):
        for label in sorted(bundle.contexts):
            pop = bundle.possession_proof(f"warm-{round_index}-{label}")
            present = lambda engine: engine.evaluate(  # noqa: E731
                wire, bundle.contexts[label], bundle.credential.subject_id, pop, now=bundle.now
            )
            outcomes.append(_same_as_cold(warm, bundle.keys["receiver"], present)[0]["outcome"])
    assert set(outcomes) == {"ALLOW", "DENY"}


def test_more_credentials_than_are_kept_decide_alike_warm_and_cold():
    engine = Engine(_config())
    creds = [_issue(SUBJECT, limit=str(100 + i), name=f"many-{i}") for i in range(PARSED_CREDENTIALS_KEPT + 6)]
    nonce = iter(range(10_000))

    def present(cred, amount):
        pop = make_possession_proof(cred, RECEIVER, f"many-{next(nonce)}", NOW, SUBJECT)
        return lambda e: e.evaluate(_wire(cred), _context(amount=amount), SUBJECT.key_id, pop, now=NOW)

    stream = [c for c in creds for _ in range(2)] + [c for c in creds[:10] for _ in range(3)]
    for i, cred in enumerate(stream):
        _same_as_cold(engine, AUDIT, present(cred, "150" if i % 3 else "5000"))
    assert len(engine._parsed) == PARSED_CREDENTIALS_KEPT


def test_one_engine_evaluated_from_four_threads_decides_as_cold_engines_do():
    """Four threads share one engine over repeated bytes (kept from their
    second presentation) and bytes presented once, allows and denies mixed.
    Each decision equals a cold engine's for the same request, and the log
    holds one verifiable record per evaluation."""
    engine = Engine(_config())
    shared = [_wire(_issue(SUBJECT, limit=str(500 + i), name=f"shared-{i}")) for i in range(3)]
    plans = []  # per thread: (bytes, amount, proof) for each request, each with its own nonce
    for t in range(4):
        plan = []
        for i in range(24):
            wire = _wire(_issue(SUBJECT, name=f"own-{t}-{i}")) if i % 4 == 0 else shared[i % 3]
            proof = make_possession_proof(parse_container(wire), RECEIVER, f"thread-{t}-{i}", NOW, SUBJECT)
            plan.append((wire, "5000" if i % 5 == 0 else "250", proof))
        plans.append(plan)
    got, errors = [[] for _ in plans], []

    def run(t):
        try:
            for wire, amount, proof in plans[t]:
                got[t].append(engine.evaluate(wire, _context(amount=amount), SUBJECT.key_id, proof, now=NOW).to_dict())
        except Exception as exc:  # reported below: a thread's exception does not fail the test by itself
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the engine's steps
    try:
        threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for plan, decisions in zip(plans, got):
        expected = [
            Engine(_config()).evaluate(wire, _context(amount=amount), SUBJECT.key_id, proof, now=NOW).to_dict()
            for wire, amount, proof in plan
        ]
        assert decisions == expected
    assert {d["outcome"] for decisions in got for d in decisions} == {"ALLOW", "DENY"}
    records = engine.config.audit_log.records()
    assert len(records) == 4 * 24
    assert verify_audit_chain(records, AUDIT.public_hex)[0]


def _reassignments():
    """Each assigns one config field after plans exist, as a name and a function of the config."""
    other_issuer = generate_key(ISSUER.key_id, seed="plans:issuer:rekeyed")
    other_steward = generate_key(STEWARD.key_id, seed="plans:steward:rekeyed")
    retyped = Vocabulary("plans", 2, {"plans.region": VocabularyEntry("plans.region", SemanticType.STRING_CODE, "conditional")})
    renamed = [a for a in identity_mapping_profile([REGION], UNTIL, STEWARD).aliases if a.identifier != "core.amount"]
    renamed.append(AliasEntry("core.amount", "amount_usd", SemanticType.DECIMAL))
    classes = frozenset({"agent-authorization"})
    unvetted = build_registry("registry:plans", 1, FROM, UNTIL, [IssuerEntry(ROGUE.key_id, "active", classes, frozenset())], STEWARD)
    vetted = build_registry("registry:plans", 2, FROM, UNTIL, [IssuerEntry(ISSUER.key_id, "active", classes, frozenset())], STEWARD)
    stricter = LocalPolicy(
        "stricter",
        ("core.currency_code",),
        (NumericLimitConstraint(field="core.amount", operator="lte", value=Decimal("100"), currency="USD"),),
    )

    def assign(**fields):
        return lambda config: [setattr(config, name, value) for name, value in fields.items()]

    return [
        ("profile renamed", assign(mapping_profile=build_mapping_profile("renamed", 1, UNTIL, renamed, STEWARD))),
        ("profile stale", assign(mapping_profile=identity_mapping_profile([REGION], FROM, STEWARD))),
        ("profile none", assign(mapping_profile=None)),
        ("vocabularies dropped", assign(vocabularies=())),
        ("vocabularies retyped", assign(vocabularies=(retyped,))),
        ("vocabularies copied", assign(vocabularies=(Vocabulary.from_dict(REGION.to_dict()),))),
        ("issuer rekeyed", assign(trusted_issuers={ISSUER.key_id: other_issuer.public_hex})),
        ("issuer dropped in place", lambda config: config.trusted_issuers.pop(ISSUER.key_id)),
        ("steward key dropped in place", lambda config: config.steward_keys.pop(STEWARD.key_id)),
        ("steward re-keyed", assign(steward_keys={STEWARD.key_id: other_steward.public_hex})),
        ("registries unvetted", assign(registries=(unvetted,))),
        ("registries vetted", assign(registries=(vetted,))),
        ("registries vetted in a list", assign(registries=[vetted])),
        ("local policy", assign(local_policy=stricter)),
        ("local policy none", assign(local_policy=None)),
        ("tier and profile id", assign(tier="epoch_bound", profile_id="plans-2")),
    ]


@pytest.mark.parametrize("name, reassign", _reassignments(), ids=[n for n, _ in _reassignments()])
def test_a_reassigned_config_decides_alike_warm_and_cold(name, reassign):
    engine = Engine(_config(
        trusted_issuers={ISSUER.key_id: ISSUER.public_hex},
        vocabularies=(REGION,),
        mapping_profile=identity_mapping_profile([REGION], UNTIL, STEWARD),
    ))
    region = EnumeratedListConstraint(field="plans.region", allowed=frozenset({"eu"}))
    root = _issue(SUBJECT, name="root", extra=(region,))
    nonce = iter(range(1000))

    def present(amount):
        pop = make_possession_proof(root, RECEIVER, f"re-{next(nonce)}", NOW, SUBJECT)
        ctx = _context(amount=amount, **{"plans.region": "eu"})
        return lambda e: e.evaluate(_wire(root), ctx, SUBJECT.key_id, pop, now=NOW)

    before = [_same_as_cold(engine, AUDIT, present(amount)) for amount in ("250", "250", "250", "5000")]
    assert [d["outcome"] for d, _ in before] == ["ALLOW"] * 3 + ["DENY"]
    reassign(engine.config)
    after = [_same_as_cold(engine, AUDIT, present(amount)) for amount in ("250", "50", "5000", "250")]
    if name != "vocabularies copied":
        assert after[0] != before[0]  # the reassignment shows in the decision or in the record


def test_a_reassigned_governance_value_that_is_not_plain_denies_without_a_record():
    engine = Engine(_config())
    root = _issue(SUBJECT, name="root")
    assert _present_root(engine, root, "first").allowed
    engine.config.profile_id = 1.5  # the config is mutable: its typing ran at construction
    decision = _present_root(engine, root, "second")
    assert decision.reason.code is DenyCode.LOCAL_POLICY_DENIED
    assert decision.trace[-2].to_dict() == {"stage": "decision", "check": "audit", "result": decision.trace[-2].result}
    assert len(engine.config.audit_log.records()) == 1
    engine.config.profile_id = ""
    assert _present_root(engine, root, "third").allowed
