"""Span tracing for the traced benchmark run, installed from outside the package.

Each wrapper replaces one public function or method in the module namespace
(or class) the pipeline calls it through, and records a span: name, start,
end, parent span and request id.  Spans stay in memory and are written out
once, when the run ends.  Nothing is installed in untraced runs, so
end-to-end numbers are measured on the unmodified code.

A layer's self time is its span's duration minus the durations of its direct
child spans; spans nest strictly because one thread makes every call.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import mandate.audit
import mandate.canonical
import mandate.constraints
import mandate.container
import mandate.pipeline
import mandate.semantics
import mandate.stateful

# (owner, attribute, span name).  Every module binding of a function the
# evaluation path reaches is listed, so each call is seen exactly once.
TARGETS = (
    (mandate.pipeline.Engine, "evaluate", "pipeline"),
    (mandate.pipeline, "parse_container", "container.parse"),
    (mandate.pipeline, "verify_container", "container.verify"),
    (mandate.pipeline, "validate_mapping_profile", "semantics.validate_profile"),
    (mandate.pipeline, "resolve_semantic_field", "semantics.resolve"),
    (mandate.pipeline, "evaluate_constraint", "constraints.evaluate"),
    (mandate.pipeline, "check_attenuation", "constraints.attenuation"),
    (mandate.pipeline, "evaluate_cumulative", "stateful.cumulative"),
    (mandate.stateful.FileStateAuthority, "reserve", "stateful.reserve"),
    (mandate.audit.AuditLog, "append", "audit.append"),
    (mandate.audit, "attach_signature", "keys.sign"),
    (mandate.container, "check_signature", "keys.verify"),
    (mandate.semantics, "check_signature", "keys.verify"),
    (mandate.stateful, "check_signature", "keys.verify"),
    (mandate.canonical, "canonical_dumps", "canonical.dumps"),
    (mandate.audit, "canonical_dumps", "canonical.dumps"),
    (mandate.container, "canonical_dumps", "canonical.dumps"),
    (mandate.semantics, "canonical_dumps", "canonical.dumps"),
    (mandate.stateful, "canonical_dumps", "canonical.dumps"),
    (mandate.constraints, "canonical_dumps", "canonical.dumps"),
)


SPAN_FIELDS = 6  # span id, name index, start ns, end ns, parent id (-1: none), request id (-1: none)


class Tracer:
    """In-memory span recorder; spans are packed into one array of 64-bit ints."""

    def __init__(self) -> None:
        self.spans = array("q")
        self.names: list[str] = []
        self.raised: Counter = Counter()
        self.request = -1
        self._started = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name: str):
        if name not in self.names:
            self.names.append(name)
        index = self.names.index(name)
        spans, stack, raised = self.spans, self._stack, self.raised

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._started
            self._started = span_id + 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[name] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.extend((span_id, index, start, end, parent, self.request))

        return wrapper

    def install(self) -> None:
        for owner, attribute, name in TARGETS:
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def _rows(self):
        spans = self.spans
        for i in range(0, len(spans), SPAN_FIELDS):
            yield spans[i : i + SPAN_FIELDS]

    def layers(self) -> dict[str, dict]:
        """Per span name: call count, total self time (ns), and calls that raised."""
        child_ns: Counter = Counter()
        for _, _, start, end, parent, _ in self._rows():
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for span_id, index, start, end, _, _ in self._rows():
            name = self.names[index]
            entry = out.setdefault(name, {"calls": 0, "self_ns": 0, "raised": self.raised[name]})
            entry["calls"] += 1
            entry["self_ns"] += end - start - child_ns[span_id]
        return out

    def calls_by_request(self) -> dict[int, Counter]:
        out: dict[int, Counter] = {}
        for _, index, _, _, _, request in self._rows():
            if request >= 0:
                out.setdefault(request, Counter())[self.names[index]] += 1
        return out

    def write(self, path: Path) -> None:
        """One tab-separated line per span, ordered by span id; empty parent/request means none."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            handle.write("span\tname\tstart_ns\tend_ns\tparent\trequest\n")
            for span_id, index, start, end, parent, request in sorted(self._rows()):
                parent_text = "" if parent < 0 else str(parent)
                request_text = "" if request < 0 else str(request)
                handle.write(f"{span_id}\t{self.names[index]}\t{start}\t{end}\t{parent_text}\t{request_text}\n")
