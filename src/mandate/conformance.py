"""Machine-readable conformance vectors and their runner.

A vector is one self-contained file: fixtures (keys, trust material, clock),
an input (credentials, presenter, possession proof, context), and the exact
expected decision.  The runner builds a fresh engine from the fixtures for
every vector, so no state leaks between cases and any conforming
implementation can replay the same files.

Directory layout is one directory per conformance level: level1_evaluation/,
level2_semantic/, level3_profile/, level4_delegation/, stateful/.  Level 3
vectors carry their credentials base64url-wrapped to exercise transport
encoding on top of canonical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import timedelta
from pathlib import Path
from typing import Optional, Union

from .audit import AuditLog
from .canonical import CanonicalizationError, from_transport, load_json
from .container import PossessionProof, RevocationList, RevocationStore
from .keys import load_signing_key, parse_key_map
from .model import (
    Decision,
    RequestContext,
    expect,
    expect_list,
    parse_decimal,
    parse_timestamp,
    reading,
)
from .pipeline import Engine, EngineConfig, LocalPolicy, WorkflowPolicy
from .registry import load_registry
from .semantics import MappingProfile, Vocabulary
from .stateful import EpochLedger, EpochQuota, InMemoryStateAuthority, StateVoucher

LEVEL_DIRS = (
    "level1_evaluation",
    "level2_semantic",
    "level3_profile",
    "level4_delegation",
    "stateful",
)


class FixtureError(ValueError):
    """A vector file that cannot be turned into a runnable case."""


@dataclass(frozen=True)
class VectorFailure:
    vector_id: str
    expected: dict
    actual: dict

    def to_dict(self) -> dict:
        return {"vector_id": self.vector_id, "expected": self.expected, "actual": self.actual}


@dataclass(frozen=True)
class ConformanceReport:
    total: int
    passed: int
    failures: tuple[VectorFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "kind": "conformance_report",
            "total": self.total,
            "passed": self.passed,
            "failed": len(self.failures),
            "failures": [f.to_dict() for f in self.failures],
        }


def decode_credential(entry: object) -> Union[dict, bytes]:
    """The one reader of a presented credential entry, in vectors and CLI files alike: a plain
    object, or a base64url wrapping (a refused one reads as {}, which the engine denies)."""
    if not isinstance(entry, dict):
        raise FixtureError(f"unsupported credential entry of type {type(entry).__name__}")
    if entry.get("encoding") != "base64url":
        return entry
    try:
        return from_transport(expect(entry, "value", str))
    except CanonicalizationError:
        return {}


# Optional top-level keys named after the EngineConfig field they set, with
# the JSON type each must have.  A key left out takes the field's default.
_SCALAR_OPTIONS = {
    "credential_class": str,
    "profile_id": str,
    "tier": str,
    "max_chain_depth": int,
    "pop_required": bool,
}


def build_engine(
    fixtures: dict, *, label: str = "fixtures", audit_path: Optional[Path] = None
) -> tuple[Engine, object]:
    """Build a fresh engine and its clock from a fixtures/config object.

    The same schema serves conformance vectors and the CLI's config file:
    one documented shape, one loader.  An optional scalar key that is left
    out keeps its ``EngineConfig`` default.  ``audit_path`` additionally
    persists the audit chain to a file (vectors keep theirs in memory).
    """
    try:
        now = parse_timestamp(fixtures["now"])
        evaluator_id = expect(fixtures, "evaluator_id", str)
        audit_key = load_signing_key(fixtures["audit_key"])
        vocabulary_rows = expect_list(fixtures.get("vocabularies", []), dict)
        vocabularies = tuple(map(Vocabulary.from_dict, vocabulary_rows))
        mapping_raw = fixtures.get("mapping_profile")
        mapping = MappingProfile.from_dict(mapping_raw) if mapping_raw is not None else None
        steward_keys = parse_key_map(fixtures.get("steward_keys", {}))
        registry_rows = expect_list(fixtures.get("registries", []), dict)
        registries = tuple(load_registry(r, steward_keys) for r in registry_rows)
        revocations = None
        revocation_rows = expect_list(fixtures.get("revocation_lists", []), dict)
        seconds = expect(fixtures, "revocation_max_age_seconds", int, optional=True)
        max_age = timedelta(seconds=seconds) if seconds is not None else None
        if revocation_rows or max_age is not None:
            revocations = RevocationStore(max_age=max_age)
            for row in revocation_rows:
                issuer_public = expect(row, "issuer_public", str)
                revocations.update(RevocationList.from_dict(row["list"]), issuer_public)
        policy_raw = fixtures.get("local_policy")
        local_policy = LocalPolicy.from_dict(policy_raw) if policy_raw is not None else None

        state = expect(fixtures, "state", dict, optional=True) or {}
        clients = {}
        for row in expect_list(state.get("clients", []), dict):
            pointer = expect(row, "pointer", str)
            clients[pointer] = InMemoryStateAuthority(pointer)
            clients[pointer].replay(row.get("reservations", ()))
        epoch_raw = state.get("epoch")
        epoch_ledger = None
        if epoch_raw is not None:
            epoch_ledger = EpochLedger(
                EpochQuota(
                    enforcer_id=expect(epoch_raw, "enforcer_id", str),
                    allocation=parse_decimal(epoch_raw["allocation"]),
                    epoch_length_seconds=expect(epoch_raw, "epoch_length_seconds", int),
                )
            )
        options = {
            name: expect(fixtures, name, kind)
            for name, kind in _SCALAR_OPTIONS.items()
            if name in fixtures
        }
        if "freshness_seconds" in state:
            options["state_freshness"] = timedelta(seconds=expect(state, "freshness_seconds", int))

        config = EngineConfig(
            evaluator_id=evaluator_id,
            audit_log=AuditLog(evaluator_id, audit_key, path=audit_path),
            trusted_issuers=parse_key_map(fixtures.get("trusted_issuers", {})),
            steward_keys=steward_keys,
            mapping_profile=mapping,
            vocabularies=vocabularies,
            registries=registries,
            revocations=revocations,
            local_policy=local_policy,
            state_clients=clients,
            state_authority_keys=parse_key_map(state.get("authority_keys", {})),
            epoch_ledger=epoch_ledger,
            **options,
        )
        return Engine(config), now
    except FixtureError:
        raise
    except Exception as exc:
        raise FixtureError(f"{label}: fixture_error: {exc}") from exc


def _run_input(engine: Engine, now, entry: dict) -> Decision:
    credentials = [decode_credential(c) for c in entry.get("credentials", ())]
    workflow_raw = entry.get("workflow")
    if workflow_raw is not None:
        policy = WorkflowPolicy.from_dict(workflow_raw)
        decision, _ = engine.compose_workflow(policy, credentials, now=now)
        return decision
    context = RequestContext.from_dict(entry["context"])
    pop_raw = entry.get("pop")
    pop = PossessionProof.from_dict(pop_raw) if pop_raw is not None else None
    vouchers_raw = entry.get("vouchers")
    vouchers = [StateVoucher.from_dict(v) for v in vouchers_raw] if vouchers_raw is not None else None
    return engine.evaluate(
        credentials, context, expect(entry, "presenter", str), pop, now=now, vouchers=vouchers
    )


def run_vector(vector: dict) -> tuple[dict, dict]:
    """Execute one parsed vector; returns (expected, actual) comparison rows."""
    if not isinstance(vector, dict) or vector.get("kind") != "test_vector":
        raise FixtureError("not a test vector")
    with reading(FixtureError):
        vector_id = expect(vector, "vector_id", str)
        fixtures = expect(vector, "fixtures", dict)
        entry = expect(vector, "input", dict)
        expected = expect(vector, "expected", dict)
        expected_row = _expected_row(expected)
    engine, now = build_engine(fixtures, label=vector_id)
    try:
        for prior in entry.get("prior", ()):
            _run_input(engine, now, prior)
        decision = _run_input(engine, now, entry)
    except FixtureError:
        raise
    except Exception as exc:  # an escaping exception is itself a conformance failure
        actual = {"outcome": "EXCEPTION", "code": None, "detail": f"{type(exc).__name__}: {exc}"}
        return expected_row, actual
    actual = {
        "outcome": decision.outcome,
        "code": decision.reason.code.value if decision.reason else None,
    }
    if "failed_constraint" in expected:
        actual["failed_constraint"] = decision.failed_constraint
    return expected_row, actual


def _expected_row(expected: dict) -> dict:
    row = {
        "outcome": expect(expected, "outcome", str),
        "code": expect(expected, "code", str, optional=True),
    }
    if "failed_constraint" in expected:
        row["failed_constraint"] = expect(expected, "failed_constraint", str, optional=True)
    return row


def iter_vector_files(root: Union[str, Path]) -> list[Path]:
    base = Path(root)
    files: list[Path] = []
    for level in LEVEL_DIRS:
        directory = base / level
        if directory.is_dir():
            files.extend(sorted(directory.glob("*.json")))
    # Vectors directly under the root run too, for ad-hoc suites.
    files.extend(sorted(base.glob("*.json")))
    return files


def run_vectors(root: Union[str, Path]) -> ConformanceReport:
    """Run every vector under ``root``; fresh engine per vector, exact compare."""
    failures: list[VectorFailure] = []
    total = 0
    for path in iter_vector_files(root):
        try:
            vector = load_json(path.read_bytes())
        except Exception as exc:
            raise FixtureError(f"{path}: fixture_error: {exc}") from exc
        total += 1
        expected, actual = run_vector(vector)
        if expected != actual:
            failures.append(
                VectorFailure(vector_id=vector["vector_id"], expected=expected, actual=actual)
            )
    return ConformanceReport(total=total, passed=total - len(failures), failures=tuple(failures))
