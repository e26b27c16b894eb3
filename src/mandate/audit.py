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
from json.encoder import encode_basestring
from pathlib import Path
from typing import BinaryIO, Iterable, Mapping, Optional, Union

from .appendfile import AppendOnlyFile
from .canonical import (
    CanonicalizationError,
    canonical_dumps,
    check_canonical,
    load_json,
    plain_dumps,
    sha256_hex,
)
from .keys import SUITE_ED25519, SigningKey, attach_signature, check_signature
from .model import expect, reading, render_timestamp

# Fixed anchor for the first record of every log.
GENESIS_DIGEST = sha256_hex(b"audit-log-genesis")

KEY_PROTECTION_CLASSES = ("hardware", "software", "unknown")


class AuditError(RuntimeError):
    """Appending, reading or verifying the audit log failed."""

    def __init__(self, *parts: object) -> None:
        # ``reading(AuditError, context)`` raises it with the detail after the context.
        super().__init__(": ".join(map(str, parts)))


@dataclass(frozen=True)
class AuditRecord:
    """One record as its log wrote it: ``line`` is its canonical text, without
    the newline, and ``raw`` is decoded from it on first read."""

    record_id: str
    prev_record: str
    line: str

    @classmethod
    def read(cls, line: str | bytes, index: int) -> "AuditRecord":
        """The record written as ``line`` (UTF-8 when bytes), decoded here
        once; a line that is not a record raises AuditError naming its
        ``index`` in the log."""
        with reading(AuditError, f"record {index} does not read"):
            if isinstance(line, bytes):
                line = line.decode("utf-8")
            raw = load_json(line)
            record = cls(expect(raw, "record_id", str), expect(raw, "prev_record", str), line)
        record.__dict__["raw"] = raw  # what the cached property would decode
        return record

    @cached_property
    def raw(self) -> dict:
        return load_json(self.line)

    def digest(self) -> str:
        return sha256_hex(self.line)

    def dumps(self) -> str:
        return self.line


class Rendered:
    """A record member's value with its canonical text, checked and rendered
    once, when built, by ``_text``, for a value a record may take as it
    stands: the engine's governance snapshot and a credential's ALLOW
    constraint results.  Like a credential's ``raw``, the value must never
    be changed afterwards; a record's ``raw`` is decoded from its line."""

    __slots__ = ("value", "text")

    def __init__(self, value: object) -> None:
        self.text = _text(value)
        self.value = value


# A string's JSON text, as the kept encoder escapes every string it renders.
_escape = encode_basestring


def _text(value: object, *path: str) -> str:
    """The canonical text of one record member's value, ``path`` its place in
    the record.  A str, None, and a list made only of str are rendered here;
    a dict made only of str, or a list of them (constraint result rows), is
    rendered by the kept encoder; any other value is walked first by
    ``check_canonical``, which names an offence by its path (``$.member…``)."""
    kind = type(value)
    if kind is str:
        return _escape(value)
    if value is None:
        return "null"
    if kind is list and all(type(item) is str for item in value):
        return f"[{','.join(map(_escape, value))}]"
    rows = value if kind is list else (value,)
    if not all(type(row) is dict and all(type(k) is str and type(v) is str for k, v in row.items()) for row in rows):
        placed = value
        for step in reversed(path):
            placed = {step: placed}
        check_canonical(placed)
    return plain_dumps(value)


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
    path, only each record's line is kept in memory (tests, vector runs).
    Appends are serialized under a lock so the chain never forks inside one
    process.

    A record is rendered in one pass over its members in canonical order:
    the members constant per log (``evaluator_id``, ``security`` and the
    signature envelope) are rendered once, on the first append; ``Rendered``
    members are spliced in as they stand; the rest are rendered per record
    by ``_text``, which walks only a value that is not a str, None, or a list
    or dict of str.  This log types its own identities here.
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
        self._memory: list[str] = []  # the lines of a log without a file
        self._last_digest = GENESIS_DIGEST
        if self.path is not None and self.path.exists():
            with self.path.open("rb") as handle:
                self._last_digest = self._reopen(_tail(handle))

    @cached_property
    def _constants(self) -> tuple[str, str, str]:
        """What is rendered once per log, on the first append: the
        ``evaluator_id`` and ``security`` members, and the signature member
        up to its proof value (``,"signature":{"key_id":…,"suite":1``)."""
        security = {"key_protection": self.key_protection, "environment": self.environment}
        envelope = {"key_id": self._key.key_id, "suite": SUITE_ED25519}
        return (
            f',"evaluator_id":{canonical_dumps(self.evaluator_id)}',
            f',"security":{canonical_dumps(security)}',
            f',"signature":{canonical_dumps(envelope)[:-1]}',
        )

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
        line = data[start:-1].strip()
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
        evaluator, security, envelope = self._constants
        if isinstance(constraint_results, Rendered):
            results = constraint_results.text
        else:
            results = _text([dict(r) for r in constraint_results], "constraint_results")
        if isinstance(governance, Rendered):
            governed = governance.text
        else:
            governed = _text(dict(governance), "governance")
        # The members in canonical order, each after a leading comma but the
        # first, around the three placed under the lock: prev_record and
        # record_id after presenter_id, the signature after security.
        head = [
            f'{{"action":{_text(action, "action")},"constraint_results":{results}',
            f',"context":{_text(dict(context_snapshot), "context")}',
            f',"credential_digests":{_text(list(credential_digests), "credential_digests")}',
            f',"decision":{{"code":{_text(decision_code, "decision", "code")}'
            f',"detail":{_text(decision_detail, "decision", "detail")}'
            f',"failed_constraint":{_text(failed_constraint, "decision", "failed_constraint")}'
            f',"outcome":{_text(decision_outcome, "decision", "outcome")}}}',
            f'{evaluator},"governance":{governed}',
            f',"issuer_id":{_text(issuer_id, "issuer_id")},"kind":"audit_record"'
            f',"operation":{_text(operation, "operation")}'
            f',"presenter_id":{_text(presenter_id, "presenter_id")}',
        ]
        middle = f',"resource":{_text(resource, "resource")}{security}'
        tail = (
            f',"subject_id":{_text(subject_id, "subject_id")}'
            f',"timestamp":{_escape(render_timestamp(timestamp))}'
            + ("}" if workflow is None else f',"workflow":{_text(dict(workflow), "workflow")}}}')
        )
        with self._lock:
            # prev_record and record_id are hex, so they need no JSON escaping.
            prev_record = self._last_digest
            link = f',"prev_record":"{prev_record}"'
            record_id = "rec-" + sha256_hex("".join([*head, link, middle, tail]).encode("utf-8"))[:16]
            link += f',"record_id":"{record_id}"'
            # The signed bytes are the rendered record; only the value is taken.
            signed = attach_signature(
                {}, self._key, rendered="".join([*head, link, middle, envelope, "}", tail]).encode("utf-8")
            )
            value = signed["signature"]["value"]
            line = "".join([*head, link, middle, envelope, f',"value":"{value}"}}', tail])
            data = line.encode("utf-8")
            if self._file is not None:
                try:
                    self._file.append(data + b"\n")
                except OSError as exc:
                    raise AuditError(f"cannot append audit record: {exc}") from exc
            else:
                self._memory.append(line)
            self._last_digest = hashlib.sha256(data).hexdigest()
        return AuditRecord(record_id, prev_record, line)

    def records(self) -> list[AuditRecord]:
        """Every record of this log, oldest first, each read from its line.
        In memory: the lines appended to this instance.  File-backed: every
        line on disk, history from before this instance included (a file
        that does not exist yet holds none)."""
        with self._lock:
            if self._file is None:
                lines = list(self._memory)
            else:
                try:
                    with self.path.open("rb") as handle:
                        lines = [text for text in (line.strip() for line in handle) if text]
                except FileNotFoundError:
                    return []
        return [AuditRecord.read(line, index) for index, line in enumerate(lines)]


def verify_audit_chain(
    lines_or_records: Iterable[Union[str, bytes, AuditRecord]],
    evaluator_keys: Union[str, Mapping[str, str]],
    after: str = GENESIS_DIGEST,
) -> tuple[bool, Optional[int], str]:
    """Walk a log and verify linkage, canonical form, and every signature.

    Returns (ok, first_bad_index, detail).  ``evaluator_keys`` is one public
    key hex or a map of key_id to public key hex.  ``after`` is the digest
    the first record links to: genesis for a whole log.  Each item is a line
    as text, a line as UTF-8 bytes, or an ``AuditRecord``, checked as its line.
    """
    expected_prev = after
    index = -1
    for index, item in enumerate(lines_or_records):
        if isinstance(item, bytes):
            try:
                item = item.decode("utf-8")
            except UnicodeDecodeError as exc:
                return False, index, f"record {index} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        line = (item.line if isinstance(item, AuditRecord) else item).strip()
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
        if not check_signature(obj, evaluator_keys):
            return False, index, f"record {index} signature does not verify"
        expected_prev = sha256_hex(line)
    return True, None, f"{index + 1} records verified"
