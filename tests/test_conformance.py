"""Conformance vectors: the shipped suite, the runner, and generator determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mandate.conformance import (
    LEVEL_DIRS,
    FixtureError,
    _run_input,
    build_engine,
    decode_credential,
    iter_vector_files,
    run_vector,
    run_vectors,
)
from mandate.audit import AuditLog, verify_audit_chain
from mandate.canonical import (
    canonical_bytes,
    canonical_dumps,
    digest_object,
    load_json,
    read_canonical,
    signing_bytes,
    signing_text,
)
from mandate.container import parse_container
from mandate.keys import generate_key, load_signing_key
from mandate.model import DenyCode, validate_payload
from mandate.pipeline import EngineConfig
from vectorgen import generate_vectors, write_vectors

VECTOR_ROOT = Path(__file__).resolve().parent.parent / "vectors"


def test_shipped_suite_passes_completely():
    report = run_vectors(VECTOR_ROOT)
    assert report.ok, report.to_dict()["failures"]
    assert report.total == report.passed == 71


@pytest.mark.parametrize(
    "path", iter_vector_files(VECTOR_ROOT), ids=lambda p: f"{p.parent.name}/{p.stem}"
)
def test_trace_shape(path):
    """One closing decision entry; a DENY's single FAIL entry sits just before it."""
    vector = json.loads(path.read_text("utf-8"))
    engine, now = build_engine(vector["fixtures"])
    for prior in vector["input"].get("prior", ()):
        _run_input(engine, now, prior)
    decision = _run_input(engine, now, vector["input"])
    expected = vector["expected"]
    assert decision.outcome == expected["outcome"]

    *checks, closing = [(e.stage, e.check, e.result) for e in decision.trace]
    closing_result = "ALLOW" if decision.allowed else f"DENY: {expected['code']}"
    assert closing == ("decision", "decision", closing_result)
    assert all((stage, check) != ("decision", "decision") for stage, check, _ in checks)
    failures = [i for i, (_, _, result) in enumerate(checks) if result.startswith("FAIL:")]
    if decision.allowed:
        assert failures == []
    else:
        assert failures in ([], [len(checks) - 1])


def test_every_level_directory_contributes_vectors():
    files = iter_vector_files(VECTOR_ROOT)
    present = {path.parent.name for path in files}
    assert present == set(LEVEL_DIRS)


def test_suite_exercises_every_denial_code():
    codes = set()
    for path in iter_vector_files(VECTOR_ROOT):
        expected = json.loads(path.read_text())["expected"]
        if expected.get("code"):
            codes.add(expected["code"])
    assert codes == {code.value for code in DenyCode}


def test_vector_ids_are_unique():
    ids = [json.loads(p.read_text())["vector_id"] for p in iter_vector_files(VECTOR_ROOT)]
    assert len(ids) == len(set(ids))


def test_runner_reports_mismatch_instead_of_raising():
    path = iter_vector_files(VECTOR_ROOT)[0]
    vector = json.loads(path.read_text())
    vector["expected"] = {"outcome": "DENY", "code": "permission_denied"}
    expected, actual = run_vector(vector)
    assert expected != actual


def test_runner_rejects_non_vectors():
    with pytest.raises(FixtureError):
        run_vector({"kind": "credential"})
    with pytest.raises(FixtureError):
        run_vector({"kind": "test_vector", "vector_id": "v", "fixtures": {}})


def test_runner_includes_root_level_files(tmp_path):
    source = iter_vector_files(VECTOR_ROOT)[0]
    (tmp_path / "adhoc.json").write_text(source.read_text())
    report = run_vectors(tmp_path)
    assert report.total == 1 and report.ok


def test_generator_is_deterministic(tmp_path):
    write_vectors(tmp_path)
    regenerated = {p.relative_to(tmp_path): p.read_bytes() for p in tmp_path.rglob("*.json")}
    shipped = {
        p.relative_to(VECTOR_ROOT): p.read_bytes() for p in VECTOR_ROOT.rglob("*.json")
    }
    assert regenerated == shipped


def test_generated_ids_name_their_level():
    for level, vector in generate_vectors():
        prefix, _, name = vector["vector_id"].partition("/")
        assert name and level.startswith(prefix)


AUDIT_KEY = generate_key("svc:conformance:receiver#audit", seed="conformance:audit")
MINIMAL_FIXTURES = {
    "now": "2026-05-01T12:00:00Z",
    "evaluator_id": "svc:conformance:receiver",
    "audit_key": AUDIT_KEY.to_dict(),
}


def test_a_fixture_without_optional_keys_takes_every_engine_config_default():
    engine, _ = build_engine(dict(MINIMAL_FIXTURES))
    audit_log = engine.config.audit_log
    assert isinstance(audit_log, AuditLog)
    assert engine.config == EngineConfig(evaluator_id="svc:conformance:receiver", audit_log=audit_log)


def test_optional_keys_that_are_present_reach_the_engine_config():
    fixtures = dict(
        MINIMAL_FIXTURES,
        credential_class="payment-mandate",
        profile_id="claims",
        tier="stateless",
        max_chain_depth=2,
        pop_required=False,
        state={"freshness_seconds": 60},
    )
    config = build_engine(fixtures)[0].config
    assert config.credential_class == "payment-mandate"
    assert (config.profile_id, config.tier) == ("claims", "stateless")
    assert (config.max_chain_depth, config.pop_required) == (2, False)
    assert config.state_freshness.total_seconds() == 60


@pytest.mark.parametrize(
    "key, value",
    [
        ("pop_required", "false"),
        ("max_chain_depth", "4"),
        ("max_chain_depth", True),
        ("tier", 1),
        ("credential_class", ["agent-authorization"]),
        ("trusted_issuers", {"iss:a": 5}),
        ("steward_keys", ["steward:a"]),
        ("state", {"authority_keys": {"ptr": None}}),
        ("state", {"epoch": {"enforcer_id": "e", "allocation": 200, "epoch_length_seconds": 60}}),
        ("state", {"epoch": {"enforcer_id": 5, "allocation": "200", "epoch_length_seconds": 60}}),
        ("state", {"epoch": {"enforcer_id": "e", "allocation": "200", "epoch_length_seconds": "60"}}),
        ("state", {"epoch": {"enforcer_id": "e", "allocation": "200", "epoch_length_seconds": True}}),
        ("state", {"epoch": {"enforcer_id": "e", "allocation": "200", "epoch_length_seconds": 0}}),
        ("state", {"epoch": {"enforcer_id": "e", "allocation": "200", "epoch_length_seconds": -60}}),
        ("state", {"freshness_seconds": True}),
        ("state", {"freshness_seconds": 1.5}),
        ("state", {"freshness_seconds": None}),
        ("state", {"clients": [{"pointer": 5}]}),
        ("evaluator_id", 5),
    ],
)
def test_a_config_value_of_the_wrong_type_is_a_fixture_error(key, value):
    with pytest.raises(FixtureError):
        build_engine(dict(MINIMAL_FIXTURES, **{key: value}))


@pytest.mark.parametrize("entry", [7, "text", ["nested"], None])
def test_a_credential_entry_must_be_an_object(entry):
    with pytest.raises(FixtureError):
        decode_credential(entry)


# --- what the walk-free paths produce, over every shipped vector -------------------------

def _shipped_credentials():
    """Every credential and chain link the shipped vectors present as an object."""
    for path in iter_vector_files(VECTOR_ROOT):
        vector = load_json(path.read_bytes())
        for entry in vector["input"].get("credentials", ()):
            decoded = decode_credential(entry)
            if isinstance(decoded, dict) and decoded.get("kind") == "credential":
                yield vector["vector_id"], decoded


def test_a_credential_parses_to_the_same_facts_from_its_dict_and_its_bytes():
    cases = 0
    for vector_id, credential in _shipped_credentials():
        wire = canonical_bytes(credential)
        obj, whole = read_canonical(wire)
        assert (whole.encode(), signing_text(obj, whole).encode()) == (wire, signing_bytes(credential)), vector_id
        try:
            parsed = parse_container(wire), parse_container(credential)
        except ValueError:
            continue  # malformed on purpose; the vector denies it
        assert parsed[0].digest() == parsed[1].digest() == digest_object(credential), vector_id
        for container in parsed:
            assert container.rendered == signing_bytes(credential), vector_id
            assert container.completeness == validate_payload(container.payload), vector_id
        cases += 1
    assert cases > 60


def test_completeness_is_computed_once_per_construction(monkeypatch):
    from mandate import container as container_module

    checked = []

    def counted(payload):
        checked.append(payload)
        return validate_payload(payload)

    monkeypatch.setattr(container_module, "validate_payload", counted)
    for vector_id, credential in _shipped_credentials():
        checked.clear()
        try:
            container = parse_container(canonical_bytes(credential))
        except ValueError:
            continue
        verdicts = {container.completeness for _ in range(3)}
        assert verdicts == {validate_payload(container.payload)} and len(checked) == 1, vector_id


@pytest.mark.parametrize(
    "path", iter_vector_files(VECTOR_ROOT), ids=lambda p: f"{p.parent.name}/{p.stem}"
)
def test_every_audit_line_a_vector_writes_is_canonical(path, tmp_path):
    vector = load_json(path.read_bytes())
    log = tmp_path / "audit.log"
    engine, now = build_engine(vector["fixtures"], audit_path=log)
    for entry in (*vector["input"].get("prior", ()), vector["input"]):
        _run_input(engine, now, entry)
    lines = log.read_text("utf-8").splitlines()
    records = engine.config.audit_log.records()
    assert lines and [canonical_dumps(r.raw) for r in records] == lines
    assert verify_audit_chain(lines, load_signing_key(vector["fixtures"]["audit_key"]).public_hex)[0]


def test_decisions_and_audit_lines_do_not_depend_on_the_hash_seed():
    """``decision_digest.py`` hashes every decision and audit line of the
    shipped vectors; two hash seeds must give one digest."""
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    digests = {
        subprocess.run(
            [sys.executable, str(root / "tests" / "decision_digest.py"), str(root / "vectors")],
            env={**env, "PYTHONHASHSEED": seed}, capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        for seed in ("0", "1")
    }
    assert len(digests) == 1 and len(digests.pop().strip()) == 64
