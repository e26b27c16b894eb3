"""Benchmark for ``Engine.evaluate``: one closed-loop client per workload.

Usage, from the repository root:

    python3 bench/run.py --workload single_repeat --seed 1 --seconds 10 --trace 0

``--workload all`` runs every workload in turn.  A run opens one set of
engines and feeds it rounds of requests for ``--seconds`` of wall time.
Before each round the run builds the round's requests and sets the program up
once more on fresh state (both outside the timed loop; the set-up is timed as
``setup_s``).  In the loop it calls
``evaluate`` back to back, timing each call, and afterwards checks every
decision against the generator's expectation.  When the run ends it verifies
the whole audit chain (untimed).  End-to-end timings are scaled by a raw
Ed25519 yardstick timed around each round (see ``REF_VERIFY_US``).

With ``--trace 1`` the run holds a second set of engines with the layer
wrappers installed.  Each round goes through both sets, in alternating order,
so the traced and untraced loops of a round share one window of the host's
speed; the tracing overhead and the Ed25519 floor are taken per round, and the
traced decisions must equal the untraced ones.

The last line of standard output is the JSON result; the line before it holds
the details (digests, error ratio, sample counts, environment).  The exit code
is non-zero on any mismatch, exception or broken chain.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "mandate").is_dir():
    sys.exit(f"{ROOT / 'src' / 'mandate'} not found: run from the root of a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import cryptography  # noqa: E402
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey  # noqa: E402

from mandate.audit import verify_audit_chain  # noqa: E402
from mandate.canonical import canonical_dumps  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import FLUSH_POLICY, WORKLOADS, Workload  # noqa: E402

OUT = ROOT / ".bench_out"
PAGE = os.sysconf("SC_PAGE_SIZE")
# End-to-end timings are scaled to a reference host on which one raw Ed25519
# verify of the yardstick message takes this long.  A shared host's speed
# swings by up to 1.8x for seconds to minutes at a time; timing the same
# fixed piece of the `cryptography` library around every round and scaling
# the round by it cancels most of that swing, and no change to the program
# can move the yardstick.
REF_VERIFY_US = 100.0
FLOOR_BATCH = 10  # raw Ed25519 verifies and signs timed before and after each round


def _rss() -> int:
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * PAGE


def _percentile(sorted_values: list, share: float):
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * share // 1))
    return sorted_values[int(rank) - 1]


def _as_dict(decision):
    return repr(decision) if isinstance(decision, Exception) else decision.to_dict()


class Pass:
    """One set of engines fed the run's whole request stream, traced or not."""

    def __init__(self, workload: Workload, slot: str, tracer: Tracer | None = None) -> None:
        self.workload = workload
        self.slot = slot
        self.tracer = tracer
        workload.prepare(slot)
        self.engines = workload.open(slot)
        self.files_before = workload.file_bytes(slot)
        self.round_latencies_ns: list[list[int]] = []
        self.round_loop_s: list[float] = []
        self.round_means_us: list[float] = []
        self.evaluated = 0
        self.rss_start: int | None = None
        self.rss_end = 0
        self.audit_bytes = 0  # canonical audit bytes this pass added, counted once the run ends

    def evaluate(self, requests: list) -> list:
        """Time each ``evaluate`` call of one round; exceptions stand in for decisions."""
        engines, tracer = self.engines, self.tracer
        decisions: list = []
        latencies: list[int] = []
        if self.rss_start is None:
            self.rss_start = _rss()
        if tracer is not None:
            tracer.install()
        try:
            loop_started = perf_counter()
            for offset, request in enumerate(requests):
                if tracer is not None:
                    tracer.request = self.evaluated + offset
                t0 = perf_counter_ns()
                try:
                    decision = engines[request.target].evaluate(
                        request.credential, request.context, request.presenter, request.pop, now=request.now
                    )
                except Exception as exc:  # counted as a failure by the caller
                    decision = exc
                latencies.append(perf_counter_ns() - t0)
                decisions.append(decision)
            loop_s = perf_counter() - loop_started
        finally:
            if tracer is not None:
                tracer.request = -1
                tracer.uninstall()
        self.rss_end = _rss()
        self.evaluated += len(requests)
        self.round_latencies_ns.append(latencies)
        self.round_loop_s.append(loop_s)
        self.round_means_us.append(sum(latencies) / len(latencies) / 1e3)
        return decisions

    def audit_lines(self) -> list[list[str]]:
        return self.workload.audit_lines(self.engines, self.slot)

    def file_bytes_added(self) -> tuple[int, int]:
        after = self.workload.file_bytes(self.slot)
        return after[0] - self.files_before[0], after[1] - self.files_before[1]


class Run:
    """The rounds of one workload run, their checks, and the metrics they give."""

    def __init__(self, workload: Workload, tracer: Tracer | None = None) -> None:
        self.workload = workload
        self.setups_s: list[float] = []
        self.untraced = Pass(workload, "untraced")
        self.traced = Pass(workload, "traced", tracer) if tracer is not None else None
        self.tracer = tracer
        self.first_round: Counter = Counter()  # round 0's requests per receiver, which the digests cover
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.allowed: list[int] = []  # traced request ids of expected allows
        self.overhead_us: list[float] = []
        self.ed25519_us: dict[str, list[float]] = {"verify": [], "sign": []}  # per round
        self.floor = Ed25519Floor()

    def time_setup(self) -> None:
        """Set the program up once on fresh state; the engines are dropped."""
        self.workload.prepare("setup")
        started = perf_counter()
        self.workload.open("setup")
        self.setups_s.append(perf_counter() - started)

    def round(self, round_index: int, count: int | None = None) -> None:
        requests = self.workload.requests(round_index, count)
        self.time_setup()
        before = self.floor.measure(FLOOR_BATCH)
        traced = self.traced
        if traced is None:
            self.check(requests, self.untraced.evaluate(requests), round_index)
        else:
            # Alternate which pass goes first, so a drift in host speed within
            # the pair does not bias the overhead one way.
            if round_index % 2 == 0:
                plain, wrapped = self.untraced.evaluate(requests), traced.evaluate(requests)
            else:
                wrapped, plain = traced.evaluate(requests), self.untraced.evaluate(requests)
            self.overhead_us.append(traced.round_means_us[-1] - self.untraced.round_means_us[-1])
            self.check(requests, plain, round_index)
            self.check(requests, wrapped, round_index, traced.evaluated - len(requests))
            if [_as_dict(d) for d in plain] != [_as_dict(d) for d in wrapped]:
                self._fail(f"round {round_index}: traced decisions differ from untraced ones")
        after = self.floor.measure(FLOOR_BATCH)
        self.ed25519_us["verify"].append((before[0] + after[0]) / 2)
        self.ed25519_us["sign"].append((before[1] + after[1]) / 2)

    def check(self, requests: list, decisions: list, round_index: int, traced_from: int | None = None) -> None:
        """Compare each decision with the generator's expectation; digest round 0's untraced decisions."""
        for offset, (request, decision) in enumerate(zip(requests, decisions)):
            self.attempted += 1
            if isinstance(decision, Exception):
                self._fail(f"round {round_index} request {offset} raised {decision!r}")
                continue
            got = decision.reason.code.value if decision.reason else None
            if (decision.outcome, got) != (request.outcome, request.code):
                self._fail(
                    f"round {round_index} request {offset}: got {decision.outcome}/{got},"
                    f" expected {request.outcome}/{request.code}"
                )
            elif traced_from is not None and request.outcome == "ALLOW":
                self.allowed.append(traced_from + offset)
        if round_index == 0 and traced_from is None:
            self.first_round = Counter(request.target for request in requests)
            digest = hashlib.sha256()
            for decision in decisions:
                digest.update(canonical_dumps(_as_dict(decision)).encode("utf-8") + b"\n")
            self.digests["decisions_sha256"] = digest.hexdigest()

    def verify_audit(self) -> None:
        """Verify each pass's whole audit chain and that it holds one record per evaluation."""
        workload = self.workload
        for p in (self.untraced, self.traced):
            if p is None:
                continue
            produced = 0
            first_round = hashlib.sha256()
            receivers = zip(p.audit_lines(), workload.history_lines(), workload.audit_public_keys())
            for target, (lines, history, public_hex) in enumerate(receivers):
                ok, index, detail = verify_audit_chain(lines, public_hex)
                if not ok:
                    self._fail(f"{p.slot} audit chain broken at record {index}: {detail}")
                produced += len(lines) - history
                if p is self.untraced:
                    for line in lines[: history + self.first_round[target]]:
                        first_round.update(line.encode("utf-8") + b"\n")
                    p.audit_bytes += sum(len(line.encode("utf-8")) for line in lines[history:])
            if produced != p.evaluated:
                self._fail(f"{p.slot}: {produced} audit records for {p.evaluated} evaluations")
            if p is self.untraced:
                self.digests["audit_sha256"] = first_round.hexdigest()

    def _fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def until(self, seconds: float, count: int | None = None) -> None:
        """Run rounds for ``seconds`` of wall time (at least one round), then verify the audit chains.

        The rounds are spread over the whole span, so a run samples the
        host's speed over that span and not just over its timed loops.
        """
        started = perf_counter()
        round_index = 0
        while round_index == 0 or perf_counter() - started < seconds:
            self.round(round_index, count)
            round_index += 1
        self.verify_audit()

    def scales(self) -> list[float]:
        """Per round, the factor that takes its timings to the reference host speed."""
        return [REF_VERIFY_US / verify_us for verify_us in self.ed25519_us["verify"]]

    def end_to_end(self) -> dict:
        p, scales = self.untraced, self.scales()
        latencies = sorted(x * scale for round_ns, scale in zip(p.round_latencies_ns, scales) for x in round_ns)
        return {
            "evals_per_s": (p.evaluated / sum(s * scale for s, scale in zip(p.round_loop_s, scales)), "1/ref-s"),
            "latency_p50_us": (_percentile(latencies, 0.50) / 1e3, "ref-us"),
            "latency_p99_us": (_percentile(latencies, 0.99) / 1e3, "ref-us"),
            "setup_s": (statistics.median(s * scale for s, scale in zip(self.setups_s, scales)), "s"),
            "mem_growth_mb": ((p.rss_end - p.rss_start) / 2**20 / p.evaluated * 1e4, "MB/10k-evals"),
            "audit_bytes_per_eval": (p.audit_bytes / p.evaluated, "bytes"),
        }

    def wall_clock(self) -> dict:
        """The unscaled timings, as this host ran them."""
        p = self.untraced
        latencies = sorted(x for round_ns in p.round_latencies_ns for x in round_ns)
        return {
            "evals_per_s": p.evaluated / sum(p.round_loop_s),
            "latency_p50_us": _percentile(latencies, 0.50) / 1e3,
            "latency_p99_us": _percentile(latencies, 0.99) / 1e3,
            "setup_s": statistics.median(self.setups_s),
            "ed25519_verify_us": statistics.median(self.ed25519_us["verify"]),
        }

    def per_layer(self) -> dict:
        traced, layers = self.traced, self.tracer.layers()
        evals = traced.evaluated

        def calls(name: str) -> float:
            return layers.get(name, {}).get("calls", 0) / evals

        def self_us(name: str) -> float:
            return layers.get(name, {}).get("self_ns", 0) / evals / 1e3

        reserve = layers.get("stateful.reserve", {"calls": 0, "raised": 0})
        verify_us = statistics.median(self.ed25519_us["verify"])
        sign_us = statistics.median(self.ed25519_us["sign"])
        audit_file_bytes, ledger_bytes = traced.file_bytes_added()
        return {
            "canonical.dumps.calls": (calls("canonical.dumps"), "calls/eval"),
            "canonical.dumps.self_us": (self_us("canonical.dumps"), "us/eval"),
            "keys.verify.calls": (calls("keys.verify"), "calls/eval"),
            "keys.verify.self_us": (self_us("keys.verify"), "us/eval"),
            "keys.sign.calls": (calls("keys.sign"), "calls/eval"),
            "keys.sign.self_us": (self_us("keys.sign"), "us/eval"),
            "keys.ed25519_verify_us": (verify_us, "us"),
            "keys.ed25519_sign_us": (sign_us, "us"),
            "keys.floor_us": (calls("keys.verify") * verify_us + calls("keys.sign") * sign_us, "us/eval"),
            "container.parse.calls": (calls("container.parse"), "calls/eval"),
            "container.parse.self_us": (self_us("container.parse"), "us/eval"),
            "container.verify.self_us": (self_us("container.verify"), "us/eval"),
            "semantics.validate_profile.calls": (calls("semantics.validate_profile"), "calls/eval"),
            "semantics.validate_profile.self_us": (self_us("semantics.validate_profile"), "us/eval"),
            "semantics.resolve.calls": (calls("semantics.resolve"), "calls/eval"),
            "semantics.resolve.self_us": (self_us("semantics.resolve"), "us/eval"),
            "constraints.evaluate.self_us": (self_us("constraints.evaluate"), "us/eval"),
            "constraints.attenuation.calls": (calls("constraints.attenuation"), "calls/eval"),
            "constraints.attenuation.self_us": (self_us("constraints.attenuation"), "us/eval"),
            "stateful.cumulative.self_us": (self_us("stateful.cumulative"), "us/eval"),
            "stateful.reserve.self_us": (self_us("stateful.reserve"), "us/eval"),
            "stateful.reserve_granted_ratio": (
                (reserve["calls"] - reserve["raised"]) / reserve["calls"] if reserve["calls"] else 0.0,
                "ratio",
            ),
            "stateful.ledger_bytes_per_eval": (ledger_bytes / evals, "bytes/eval"),
            "audit.append.self_us": (self_us("audit.append"), "us/eval"),
            "audit.file_bytes_per_eval": (audit_file_bytes / evals, "bytes/eval"),
            "pipeline.self_us": (self_us("pipeline"), "us/eval"),
            "tracing.overhead_us": (statistics.median(self.overhead_us), "us/eval"),
        }


class Ed25519Floor:
    """Raw ``cryptography`` Ed25519 on a fixed 1 KiB message.

    The workloads' credentials have 0.9 to 1.1 KiB of signing bytes.  The
    message is fixed so that a change to the credential format cannot move
    the yardstick the end-to-end timings are scaled by.
    """

    def __init__(self) -> None:
        self.private = Ed25519PrivateKey.from_private_bytes(hashlib.sha256(b"bench:floor").digest())
        self.public = self.private.public_key()
        self.message = bytes(range(256)) * 4
        self.signature = self.private.sign(self.message)

    def measure(self, batch: int) -> tuple[float, float]:
        """Mean µs of one verify and one sign over ``batch`` of each."""
        public, private, message, signature = self.public, self.private, self.message, self.signature
        t0 = perf_counter_ns()
        for _ in range(batch):
            public.verify(signature, message)
        t1 = perf_counter_ns()
        for _ in range(batch):
            private.sign(message)
        t2 = perf_counter_ns()
        return (t1 - t0) / batch / 1e3, (t2 - t1) / batch / 1e3


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without starting a process; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text("ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text("ascii").strip()
        for line in (git / "packed-refs").read_text("ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "flush_policy": FLUSH_POLICY,
        "client": "closed loop, 1 process, 1 thread",
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, count: int | None = None) -> dict:
    """Run one workload; returns the result object plus a ``details`` entry."""
    workdir = OUT / f"work-{name}-{seed}-{os.getpid()}"
    tracer = Tracer() if trace else None
    try:
        run = Run(WORKLOADS[name](seed, workdir), tracer)
        run.until(seconds, count)
        if tracer is not None:
            metrics = run.per_layer()
            tracer.write(OUT / f"spans-{name}.tsv")  # the last traced run of each workload
        else:
            metrics = run.end_to_end()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    details = {
        "workload": name,
        "digests": run.digests,
        "error_ratio": run.failed / run.attempted,
        "latency_samples": run.untraced.evaluated,
        "rounds": len(run.untraced.round_loop_s),
        "setup_samples": len(run.setups_s),
        "problems": run.problems,
        "environment": environment(seed),
    }
    if tracer is not None:
        details["allow_path_calls"] = allow_path_calls(tracer, run.allowed)
    else:
        details["wall_clock"] = run.wall_clock()
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
        "details": details,
    }


def allow_path_calls(tracer: Tracer, allowed: list[int]) -> dict[str, list[int]]:
    """Per span name, the distinct per-request call counts seen on requests that were allowed."""
    by_request = tracer.calls_by_request()
    seen: dict[str, set] = {}
    for request in allowed:
        for name in tracer.names:
            seen.setdefault(name, set()).add(by_request.get(request, {}).get(name, 0))
    return {name: sorted(counts) for name, counts in sorted(seen.items())}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results.append(result)
        for key, metric in result["metrics"].items():
            print(f"{name}\t{key}\t{metric['value']:.6g}\t{metric['unit']}")
        print(f"{name}\terror_ratio\t{result['details']['error_ratio']:.6g}\tratio")
        for problem in result["details"]["problems"]:
            print(f"{name}\tMISMATCH\t{problem}", file=sys.stderr)
        print(json.dumps(result["details"], sort_keys=True))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['details']['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
