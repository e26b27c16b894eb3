"""Tests of the benchmark itself, at a tiny size.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text("utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]
TINY = 40


def tiny(name: str, seed: int = 7, trace: bool = False) -> dict:
    return run.run_workload(name, seed, seconds=0, trace=trace, count=TINY)


@pytest.mark.parametrize("name", NAMES)
def test_workload_is_correct_and_reports_every_end_to_end_metric(name):
    result = tiny(name)
    assert result["details"]["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == TINY
    assert result["details"]["error_ratio"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        # Forty evaluations may fit in pages the process already holds.
        assert metric["value"] >= 0 if spec["name"] == "mem_growth_mb" else metric["value"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_digests(name):
    first = tiny(name, seed=3)["details"]["digests"]
    again = tiny(name, seed=3)["details"]["digests"]
    other = tiny(name, seed=4)["details"]["digests"]
    assert first == again
    assert first["decisions_sha256"] != other["decisions_sha256"]
    assert first["audit_sha256"] != other["audit_sha256"]


# Calls per allowed request implied by the pipeline: a single credential
# verifies its issuer signature, the possession proof and the mapping
# profile; a depth-3 chain verifies three links instead of one and checks
# two parent/child narrowings.
ALLOW_PATH = {
    "single_repeat": {"keys.verify": [3], "keys.sign": [1], "container.parse": [1], "constraints.attenuation": [0]},
    "chain_fresh": {"keys.verify": [5], "keys.sign": [1], "container.parse": [3], "constraints.attenuation": [2]},
    "budget_file": {"keys.verify": [3], "keys.sign": [1], "stateful.reserve": [1], "constraints.attenuation": [0]},
}


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer_and_the_expected_call_counts(name):
    result = tiny(name, trace=True)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    calls = result["details"]["allow_path_calls"]
    for span, counts in ALLOW_PATH[name].items():
        assert calls.get(span, [0]) == counts, span
    if name == "chain_fresh":
        assert result["metrics"]["constraints.attenuation.calls"]["value"] == 2
        assert result["metrics"]["keys.verify.calls"]["value"] == 5


def test_a_decision_that_differs_from_the_expectation_fails_the_run(monkeypatch):
    original = workloads.SingleRepeat.requests

    def flipped(self, round_index, count=None):
        out = original(self, round_index, count)
        first = out[0]
        wrong = "constraint_failed" if first.code is None else None
        return [dataclasses.replace(first, code=wrong, outcome="DENY" if wrong else "ALLOW")] + out[1:]

    monkeypatch.setattr(workloads.SingleRepeat, "requests", flipped)
    result = tiny("single_repeat")
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["details"]["error_ratio"] == 1 / TINY


# Deny codes in one full round: the seed picks values, never the shares.
ROUND_SHARES = {
    "single_repeat": {None: 80, "constraint_failed": 10, "issuer_untrusted": 5, "audience_mismatch": 5},
    "chain_fresh": {None: 90, "constraint_failed": 10},
    "budget_file": {None: 88, "state_limit_exceeded": 12},
}


@pytest.mark.parametrize("name", NAMES)
def test_every_seed_gives_a_round_the_same_shares(name, tmp_path):
    for seed in (1, 2):
        workload = workloads.WORKLOADS[name](seed, tmp_path / str(seed))
        codes = Counter(request.code for request in workload.requests(0))
        assert codes == ROUND_SHARES[name]
