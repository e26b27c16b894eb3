"""One SHA-256 over every decision and audit line the shipped vectors produce.

Usage, from the repository root:

    PYTHONPATH=src python tests/decision_digest.py vectors

Each vector runs on a fresh engine, its prior inputs first.  Every decision
is hashed as its canonical ``Decision.to_dict()`` (trace and detail
included), then every line of the engine's audit log.  Run under two
``PYTHONHASHSEED`` values, the printed digests must be equal: a detail or a
record that took its order from a set's iteration would differ.
"""

import hashlib
import sys

from mandate.canonical import canonical_dumps, load_json
from mandate.conformance import _run_input, build_engine, iter_vector_files


def vectors_digest(root: str) -> str:
    digest = hashlib.sha256()
    for path in iter_vector_files(root):
        vector = load_json(path.read_bytes())
        engine, now = build_engine(vector["fixtures"], label=vector["vector_id"])
        entry = vector["input"]
        for request in [*entry.get("prior", ()), entry]:
            try:
                outcome = canonical_dumps(_run_input(engine, now, request).to_dict())
            except Exception as exc:  # an escaping exception is hashed by its words
                outcome = f"{type(exc).__name__}: {exc}"
            digest.update(outcome.encode("utf-8") + b"\n")
        for record in engine.config.audit_log.records():
            digest.update(record.line.encode("utf-8") + b"\n")
    return digest.hexdigest()


if __name__ == "__main__":
    print(vectors_digest(sys.argv[1] if len(sys.argv) > 1 else "vectors"))
