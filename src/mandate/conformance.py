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

import json
from dataclasses import dataclass
from datetime import timedelta
from pathlib import Path
from typing import Optional, Union

from .audit import AuditLog
from .canonical import from_transport
from .container import PossessionProof, RevocationList, RevocationStore
from .keys import load_signing_key, parse_key_map
from .model import Decision, RequestContext, parse_decimal, parse_timestamp
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
    """The one reader of a presented credential entry, in vectors and CLI
    files alike: a plain object or a base64url transport wrapping."""
    if isinstance(entry, dict) and entry.get("encoding") == "base64url":
        return from_transport(str(entry.get("value", "")))
    if isinstance(entry, dict):
        return entry
    raise FixtureError(f"unsupported credential entry of type {type(entry).__name__}")


# Optional top-level keys named after the EngineConfig field they set, with
# the JSON type each must have.  A key left out takes the field's default.
_SCALAR_OPTIONS = {
    "credential_class": str,
    "profile_id": str,
    "tier": str,
    "max_chain_depth": int,
    "pop_required": bool,
}


def _typed(name: str, value: object, kind: type) -> object:
    """Return a config value that already has its JSON type; bool is not an int."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{name} must be {kind.__name__}, got {value!r}")
    return value


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
        evaluator_id = _typed("evaluator_id", fixtures["evaluator_id"], str)
        audit_key = load_signing_key(fixtures["audit_key"])
        vocabularies = tuple(
            Vocabulary.from_dict(v) for v in fixtures.get("vocabularies", ())
        )
        mapping_raw = fixtures.get("mapping_profile")
        mapping = MappingProfile.from_dict(mapping_raw) if mapping_raw is not None else None
        steward_keys = parse_key_map(fixtures.get("steward_keys", {}))
        registries = tuple(
            load_registry(r, steward_keys) for r in fixtures.get("registries", ())
        )
        revocations = None
        revocation_rows = fixtures.get("revocation_lists", ())
        max_age = fixtures.get("revocation_max_age_seconds")
        if revocation_rows or max_age is not None:
            revocations = RevocationStore(
                max_age=timedelta(seconds=max_age) if max_age is not None else None
            )
            for row in revocation_rows:
                revocations.update(
                    RevocationList.from_dict(row["list"]), str(row["issuer_public"])
                )
        policy_raw = fixtures.get("local_policy")
        local_policy = LocalPolicy.from_dict(policy_raw) if policy_raw is not None else None

        state = fixtures.get("state", {})
        clients = {}
        for row in state.get("clients", ()):
            pointer = _typed("state.clients[].pointer", row["pointer"], str)
            clients[pointer] = InMemoryStateAuthority(pointer)
            clients[pointer].replay(row.get("reservations", ()))
        epoch_raw = state.get("epoch")
        epoch_ledger = None
        if epoch_raw is not None:
            epoch_ledger = EpochLedger(
                EpochQuota(
                    enforcer_id=_typed("enforcer_id", epoch_raw["enforcer_id"], str),
                    allocation=parse_decimal(epoch_raw["allocation"]),
                    epoch_length_seconds=_typed(
                        "epoch_length_seconds", epoch_raw["epoch_length_seconds"], int
                    ),
                )
            )
        options = {
            name: _typed(name, fixtures[name], kind)
            for name, kind in _SCALAR_OPTIONS.items()
            if name in fixtures
        }
        if "freshness_seconds" in state:
            seconds = _typed("freshness_seconds", state["freshness_seconds"], int)
            options["state_freshness"] = timedelta(seconds=seconds)

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
    vouchers = (
        [StateVoucher.from_dict(v) for v in vouchers_raw] if vouchers_raw is not None else None
    )
    payload = credentials if len(credentials) != 1 else credentials[0]
    return engine.evaluate(
        payload,
        context,
        str(entry.get("presenter", "")),
        pop,
        now=now,
        vouchers=vouchers,
    )


def run_vector(vector: dict) -> tuple[dict, dict]:
    """Execute one parsed vector; returns (expected, actual) comparison rows."""
    if not isinstance(vector, dict) or vector.get("kind") != "test_vector":
        raise FixtureError("not a test vector")
    vector_id = str(vector.get("vector_id", "(missing id)"))
    fixtures = vector.get("fixtures")
    entry = vector.get("input")
    expected = vector.get("expected")
    if not isinstance(fixtures, dict) or not isinstance(entry, dict) or not isinstance(expected, dict):
        raise FixtureError(f"{vector_id}: vector must carry fixtures, input, and expected")
    engine, now = build_engine(fixtures, label=vector_id)
    try:
        for prior in entry.get("prior", ()):
            _run_input(engine, now, prior)
        decision = _run_input(engine, now, entry)
    except FixtureError:
        raise
    except Exception as exc:  # an escaping exception is itself a conformance failure
        actual = {"outcome": "EXCEPTION", "code": None, "detail": f"{type(exc).__name__}: {exc}"}
        return _expected_row(expected), actual
    actual = {
        "outcome": decision.outcome,
        "code": decision.reason.code.value if decision.reason else None,
    }
    if "failed_constraint" in expected:
        actual["failed_constraint"] = decision.failed_constraint
    return _expected_row(expected), actual


def _expected_row(expected: dict) -> dict:
    row = {
        "outcome": str(expected.get("outcome", "")),
        "code": expected.get("code"),
    }
    if "failed_constraint" in expected:
        row["failed_constraint"] = expected.get("failed_constraint")
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
            vector = json.loads(path.read_text("utf-8"))
        except Exception as exc:
            raise FixtureError(f"{path}: fixture_error: {exc}") from exc
        vector_id = str(vector.get("vector_id", path.stem)) if isinstance(vector, dict) else path.stem
        total += 1
        expected, actual = run_vector(vector)
        if expected != actual:
            failures.append(VectorFailure(vector_id=vector_id, expected=expected, actual=actual))
    return ConformanceReport(total=total, passed=total - len(failures), failures=tuple(failures))
