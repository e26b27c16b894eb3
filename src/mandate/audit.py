"""Signed, hash-chained audit records: one per evaluation, allow or deny.

Each record carries the digest of its predecessor, so truncating, reordering,
or editing the log breaks the chain at a verifiable index.  Records are
signed by the evaluator key and serialized canonically, one record per line.

The governance snapshot pins what the decision was made under (registry and
profile versions, manifest digest, trust anchor); the context snapshot keeps
only fields the evaluation actually resolved, which is the privacy posture:
the log explains decisions without archiving whole requests.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass
from datetime import datetime
from functools import cached_property
from pathlib import Path
from typing import BinaryIO, Iterable, Mapping, Optional, Union

from .appendfile import AppendOnlyFile
from .canonical import (
    CanonicalizationError,
    canonical_dumps,
    check_canonical,
    digest_object,
    load_json,
    plain_dumps,
    sha256_hex,
)
from .keys import SUITE_ED25519, SigningKey, attach_signature, check_signature, envelope_public_key
from .model import render_timestamp

# Fixed anchor for the first record of every log.
GENESIS_DIGEST = sha256_hex(b"audit-log-genesis")

KEY_PROTECTION_CLASSES = ("hardware", "software", "unknown")


class AuditError(RuntimeError):
    """Appending or verifying the audit log failed."""


@dataclass(frozen=True)
class AuditRecord:
    record_id: str
    prev_record: str
    raw: dict

    def digest(self) -> str:
        return digest_object(self.raw)

    def to_dict(self) -> dict:
        return dict(self.raw)

    def dumps(self) -> str:
        return canonical_dumps(self.raw)


class Rendered:
    """A record member's value with its canonical text, checked and rendered
    once, when built, for a value written into many records: the engine's
    governance snapshot and a kept credential's ALLOW constraint results.
    Like a credential's ``raw``, the value must never be changed afterwards;
    each record holds its own copy of it."""

    __slots__ = ("value", "text")

    def __init__(self, value: object) -> None:
        self.text = canonical_dumps(value)
        self.value = value


def _fresh(value: object) -> object:
    """A copy of plain ``value`` that shares no dict or list with it."""
    if isinstance(value, dict):
        return {name: _fresh(member) for name, member in value.items()}
    if isinstance(value, list):
        return [_fresh(item) for item in value]
    return value


# The members placed under the lock: the chain link and the signature.
_SLOTS = ("prev_record", "record_id", "signature")


def _tail(handle: BinaryIO, size: int = 8192) -> bytes:
    """A file's last ``size`` bytes, doubled until they hold its last two
    whole lines (or the whole file): earlier lines are not read."""
    end = handle.seek(0, os.SEEK_END)
    handle.seek(max(0, end - size))
    data = handle.read()
    return data if len(data) == end or data.count(b"\n", 0, -1) >= 2 else _tail(handle, 2 * size)


class AuditLog:
    """Append-only log bound to one evaluator key.

    With a path, every record is written as one canonical line through one
    handle, opened on the first append and kept (``appendfile``), and no
    record is kept in memory: ``records()`` reads the file back.  A write that
    fails makes this log refuse every later append, so the engine denies;
    a fresh log reopens the file and verifies its tail first.  Without a
    path, records are kept in memory (tests, vector runs).  Appends are
    serialized under a lock so the chain never forks inside one process.

    A record is rendered from a template: the members constant per log
    (``kind``, ``evaluator_id``, ``security`` and the signature envelope) are
    rendered once, on the first append; ``Rendered`` members are spliced in as
    they stand; the rest are checked and rendered per record.  This log types
    its own identities here.
    """

    def __init__(
        self,
        evaluator_id: str,
        signing_key: SigningKey,
        path: Optional[Union[str, Path]] = None,
        key_protection: str = "software",
        environment: Optional[str] = None,
    ) -> None:
        if key_protection not in KEY_PROTECTION_CLASSES:
            raise AuditError(f"unknown key protection class {key_protection!r}")
        # The key id is typed by SigningKey; these two reach every record.
        if not isinstance(evaluator_id, str) or (environment is not None and not isinstance(environment, str)):
            raise TypeError("audit log evaluator_id must be str, environment a str or None")
        self.evaluator_id = evaluator_id
        self._key = signing_key
        self.path = Path(path) if path is not None else None
        self.key_protection = key_protection
        self.environment = environment
        self._lock = threading.Lock()
        self._file = AppendOnlyFile(self.path) if self.path is not None else None
        self._memory: list[AuditRecord] = []  # the records of a log without a file
        self._last_digest = GENESIS_DIGEST
        if self.path is not None and self.path.exists():
            with self.path.open("rb") as handle:
                self._last_digest = self._reopen(_tail(handle))

    @cached_property
    def _constants(self) -> tuple[dict[str, str], str]:
        """What is rendered once per log, on the first append: the texts of
        the ``kind``, ``evaluator_id`` and ``security`` members, and the
        signature member up to its proof value (``,"signature":{"key_id":…,"suite":1``)."""
        security = {"key_protection": self.key_protection, "environment": self.environment}
        envelope = {"key_id": self._key.key_id, "suite": SUITE_ED25519}
        texts = {
            "kind": canonical_dumps("audit_record"),
            "evaluator_id": canonical_dumps(self.evaluator_id),
            "security": canonical_dumps(security),
        }
        return texts, f',"signature":{canonical_dumps(envelope)[:-1]}'

    def _reopen(self, data: bytes) -> str:
        """The digest the next record chains to.  The log must end in a newline
        and its last line must be a canonical record, signed by this log's key,
        linking to the line before it (or to genesis): a record chained onto a
        torn tail would never verify.  Earlier lines are not re-read."""
        if not data:
            return GENESIS_DIGEST
        if not data.endswith(b"\n"):
            raise AuditError(f"audit log {self.path} ends in a partial line")
        start = data.rfind(b"\n", 0, -1) + 1
        previous = data[data.rfind(b"\n", 0, start - 1) + 1 : start - 1] if start else None
        line = data[start:-1].decode("utf-8", "replace").strip()
        after = sha256_hex(previous.strip()) if previous is not None else GENESIS_DIGEST
        ok, _, detail = verify_audit_chain([line], self._key.public_hex, after=after)
        if not ok:
            raise AuditError(f"audit log {self.path} does not end in a verifiable record: {detail}")
        return sha256_hex(line)

    def append(
        self,
        operation: str,
        timestamp: datetime,
        credential_digests: Iterable[str],
        presenter_id: Optional[str],
        subject_id: Optional[str],
        issuer_id: Optional[str],
        action: Optional[str],
        resource: Optional[str],
        context_snapshot: Mapping[str, str],
        constraint_results: Union[Rendered, Iterable[Mapping]],
        decision_outcome: str,
        decision_code: Optional[str],
        decision_detail: str,
        failed_constraint: Optional[str],
        governance: Union[Rendered, Mapping],
        workflow: Optional[Mapping] = None,
    ) -> AuditRecord:
        """Append one record and return it.

        Every value must be plain JSON: ``str``, ``int``, ``bool`` or None,
        lists, and dicts with ``str`` keys.  Each is checked before anything
        is written, and one that is not raises CanonicalizationError; text
        with no UTF-8 form raises UnicodeEncodeError.  Either way nothing is
        written and the chain still ends where it did.  ``constraint_results``
        and ``governance`` may be passed as ``Rendered``, checked when built.
        """
        results = constraint_results if isinstance(constraint_results, Rendered) else None
        snapshot = governance if isinstance(governance, Rendered) else None
        body: dict = {
            "kind": "audit_record",
            "operation": operation,
            "timestamp": render_timestamp(timestamp),
            "evaluator_id": self.evaluator_id,
            "credential_digests": list(credential_digests),
            "presenter_id": presenter_id,
            "subject_id": subject_id,
            "issuer_id": issuer_id,
            "action": action,
            "resource": resource,
            "context": dict(context_snapshot),
            "constraint_results": (
                _fresh(results.value) if results is not None else [dict(r) for r in constraint_results]
            ),
            "decision": {
                "outcome": decision_outcome,
                "code": decision_code,
                "detail": decision_detail,
                "failed_constraint": failed_constraint,
            },
            "governance": _fresh(snapshot.value) if snapshot is not None else dict(governance),
            "security": {"key_protection": self.key_protection, "environment": self.environment},
        }
        if workflow is not None:
            body["workflow"] = dict(workflow)
        constants, envelope = self._constants
        texts = dict(constants)  # member name -> its text, rendered before this record
        if results is not None:
            texts["constraint_results"] = results.text
        if snapshot is not None:
            texts["governance"] = snapshot.text
        check_canonical([value for name, value in body.items() if name not in texts])
        # One parts list, in canonical member order, for the record_id
        # preimage, the signing bytes and the line; only the slots change
        # between them.  Each member carries its leading comma but the first,
        # "action", which always sorts first.
        names = sorted([*body, *_SLOTS])
        parts = ["{"]
        parts += (
            "" if name in _SLOTS else f',"{name}":{texts[name] if name in texts else plain_dumps(body[name])}'
            for name in names
        )
        parts[1] = parts[1][1:]
        parts.append("}")
        link, named, signature = (names.index(name) + 1 for name in _SLOTS)
        with self._lock:
            # prev_record and record_id are hex, so they need no JSON escaping.
            prev_record = body["prev_record"] = self._last_digest
            parts[link] = f',"prev_record":"{prev_record}"'
            record_id = body["record_id"] = "rec-" + sha256_hex("".join(parts).encode("utf-8"))[:16]
            parts[named] = f',"record_id":"{record_id}"'
            parts[signature] = envelope + "}"
            signed = attach_signature(body, self._key, rendered="".join(parts).encode("utf-8"))
            parts[signature] = f'{envelope},"value":"{signed["signature"]["value"]}"}}'
            parts.append("\n")
            line = "".join(parts).encode("utf-8")
            record = AuditRecord(record_id=record_id, prev_record=prev_record, raw=signed)
            if self._file is not None:
                try:
                    self._file.append(line)
                except OSError as exc:
                    raise AuditError(f"cannot append audit record: {exc}") from exc
            else:
                self._memory.append(record)
            self._last_digest = hashlib.sha256(memoryview(line)[:-1]).hexdigest()
        return record

    def records(self) -> list[AuditRecord]:
        """Every record of this log, oldest first.  In memory: the records
        appended to this instance.  File-backed: every record on disk,
        history from before this instance included, read back one line at a
        time (a file that does not exist yet holds none)."""
        with self._lock:
            if self._file is None:
                return list(self._memory)
            try:
                with self.path.open("rb") as handle:
                    rows = [load_json(line) for line in handle if line.strip()]
            except FileNotFoundError:
                return []
        return [AuditRecord(row["record_id"], row["prev_record"], row) for row in rows]


def verify_audit_chain(
    lines_or_records: Iterable[Union[str, dict, AuditRecord]],
    evaluator_keys: Union[str, Mapping[str, str]],
    after: str = GENESIS_DIGEST,
) -> tuple[bool, Optional[int], str]:
    """Walk a log and verify linkage, canonical form, and every signature.

    Returns (ok, first_bad_index, detail).  ``evaluator_keys`` is one public
    key hex or a map of key_id to public key hex.  ``after`` is the digest
    the first record links to: genesis for a whole log.
    """
    expected_prev = after
    index = -1
    for index, item in enumerate(lines_or_records):
        if isinstance(item, (AuditRecord, dict)):
            obj = item.raw if isinstance(item, AuditRecord) else item
            try:
                line = canonical_dumps(obj)
            except CanonicalizationError:  # a float or another value JSON records never hold
                return False, index, f"record {index} is not in canonical form"
        else:
            line = item.strip()
            try:
                obj = load_json(line)
            except CanonicalizationError:  # a float: JSON, but never a record's canonical form
                return False, index, f"record {index} is not in canonical form"
            except Exception as exc:
                return False, index, f"record {index} is not parseable: {exc}"
            if not isinstance(obj, dict):
                return False, index, f"record {index} is not a JSON object"
            if plain_dumps(obj) != line:
                return False, index, f"record {index} is not in canonical form"
        if obj.get("prev_record") != expected_prev:
            return False, index, f"record {index} breaks the hash chain"
        if isinstance(evaluator_keys, str):
            public_hex = evaluator_keys
        else:
            public_hex = envelope_public_key(obj, evaluator_keys)
        if public_hex is None or not check_signature(obj, public_hex):
            return False, index, f"record {index} signature does not verify"
        expected_prev = sha256_hex(line)
    return True, None, f"{index + 1} records verified"
