"""Hash-chained audit records: appending, persistence, and chain verification."""

import contextlib
import gc
import hashlib
import json
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mandate import audit, canonical
from mandate.audit import GENESIS_DIGEST, AuditError, AuditLog, AuditRecord, Rendered, verify_audit_chain
from mandate.canonical import CanonicalizationError, canonical_dumps, digest_object, load_json, sha256_hex
from mandate.keys import check_signature, generate_key
from mandate.model import parse_timestamp

NOW = parse_timestamp("2026-05-01T12:00:00Z")
AUDIT_KEY = generate_key("svc:test:receiver#audit", seed="audit:key")


def append_some(log, count=3, resource="jobs"):
    records = []
    for i in range(count):
        records.append(
            log.append(
                operation="evaluate",
                timestamp=NOW,
                credential_digests=[f"digest-{i}"],
                presenter_id="agent:test:worker",
                subject_id="agent:test:worker",
                issuer_id="iss:test:authority",
                action="task.run",
                resource=f"{resource}/{i}",
                context_snapshot={"core.amount": "100"},
                constraint_results=[{"label": "C1", "passed": True}],
                decision_outcome="ALLOW" if i % 2 == 0 else "DENY",
                decision_code=None if i % 2 == 0 else "constraint_failed",
                decision_detail="",
                failed_constraint=None,
                governance={"registry_versions": {}, "profile_version": 1},
            )
        )
    return records


def test_records_chain_from_genesis():
    log = AuditLog("svc:test:receiver", AUDIT_KEY)
    records = append_some(log)
    assert records[0].prev_record == GENESIS_DIGEST
    for prev, record in zip(records, records[1:]):
        assert record.prev_record == hashlib.sha256(prev.dumps().encode()).hexdigest()


def test_verify_in_memory_records():
    log = AuditLog("svc:test:receiver", AUDIT_KEY)
    append_some(log)
    ok, bad, detail = verify_audit_chain(log.records(), AUDIT_KEY.public_hex)
    assert ok and bad is None
    assert "3 records" in detail


def test_verify_keyed_by_signature_key_id():
    log = AuditLog("svc:test:receiver", AUDIT_KEY)
    append_some(log)
    ok, _, _ = verify_audit_chain(log.records(), {AUDIT_KEY.key_id: AUDIT_KEY.public_hex})
    assert ok
    # Keyed by anything else, every record is unverifiable.
    ok, bad, _ = verify_audit_chain(log.records(), {"svc:test:receiver": AUDIT_KEY.public_hex})
    assert not ok and bad == 0


def test_file_backed_log_survives_reopen(tmp_path):
    path = tmp_path / "audit.log"
    log = AuditLog("svc:test:receiver", AUDIT_KEY, path=path)
    append_some(log, 2)
    # A new instance picks the chain up where the file left it.
    resumed = AuditLog("svc:test:receiver", AUDIT_KEY, path=path)
    append_some(resumed, 1)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    ok, bad, _ = verify_audit_chain(lines, AUDIT_KEY.public_hex)
    assert ok, bad


def _written_log(tmp_path, count=3):
    path = tmp_path / "audit.log"
    append_some(AuditLog("svc:test:receiver", AUDIT_KEY, path=path), count)
    return path


@pytest.mark.parametrize(
    "tear",
    [
        pytest.param(lambda data: data[:-40], id="last-record-truncated"),
        pytest.param(lambda data: data[:-1], id="final-newline-missing"),
        pytest.param(lambda data: data + b"\n", id="blank-last-line"),
        pytest.param(lambda data: data[:-2] + b"\xff\n", id="torn-utf8"),
    ],
)
def test_a_torn_tail_refuses_to_reopen(tmp_path, tear):
    path = _written_log(tmp_path)
    path.write_bytes(tear(path.read_bytes()))
    torn = path.read_bytes()
    with pytest.raises(AuditError):
        AuditLog("svc:test:receiver", AUDIT_KEY, path=path)
    assert path.read_bytes() == torn  # nothing is appended or repaired


def test_a_tail_that_is_not_utf8_refuses_to_reopen_even_where_its_replacement_would_verify(tmp_path):
    path = tmp_path / "audit.log"
    append_some(AuditLog("svc:test:receiver", AUDIT_KEY, path=path), resource="jobs/\ufffd")
    data = path.read_bytes()
    at = data.rindex("\ufffd".encode("utf-8"))
    path.write_bytes(data[:at] + b"\xff" + data[at + 3 :])  # decoded with replacement, the record as signed
    with pytest.raises(AuditError, match="not UTF-8 text"):
        AuditLog("svc:test:receiver", AUDIT_KEY, path=path)


def test_a_tail_that_does_not_link_or_verify_refuses_to_reopen(tmp_path):
    path = _written_log(tmp_path)
    lines = path.read_text().splitlines()
    # Swapped last two records: each still verifies on its own, but the last
    # line no longer links to the line before it.
    path.write_text("\n".join([lines[0], lines[2], lines[1]]) + "\n")
    with pytest.raises(AuditError):
        AuditLog("svc:test:receiver", AUDIT_KEY, path=path)
    # A log signed by another key is not this log's to extend.
    path.write_text("\n".join(lines) + "\n")
    other = generate_key("svc:test:receiver#audit", seed="audit:other")
    with pytest.raises(AuditError):
        AuditLog("svc:test:receiver", other, path=path)


def test_reopen_after_a_single_record_or_an_empty_file(tmp_path):
    path = _written_log(tmp_path, 1)
    append_some(AuditLog("svc:test:receiver", AUDIT_KEY, path=path), 1)
    assert verify_audit_chain(path.read_text().splitlines(), AUDIT_KEY.public_hex)[0]
    empty = tmp_path / "empty.log"
    empty.write_bytes(b"")
    append_some(AuditLog("svc:test:receiver", AUDIT_KEY, path=empty), 1)
    assert verify_audit_chain(empty.read_text().splitlines(), AUDIT_KEY.public_hex)[0]


def test_reopening_a_long_log_reads_only_its_tail(tmp_path):
    path = _written_log(tmp_path, 5000)
    tracemalloc.start()
    try:
        AuditLog("svc:test:receiver", AUDIT_KEY, path=path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 2**21
    assert peak < 2**20


def test_a_tail_longer_than_one_read_block_reopens_and_tears(tmp_path):
    path = _written_log(tmp_path, 20)
    append_some(AuditLog("svc:test:receiver", AUDIT_KEY, path=path), 2, resource="x" * 20000)
    append_some(AuditLog("svc:test:receiver", AUDIT_KEY, path=path), 1)
    lines = path.read_text().splitlines()
    assert len(lines) == 23 and verify_audit_chain(lines, AUDIT_KEY.public_hex)[0]
    # The last record cut short, so the line before it spans the first blocks read.
    path.write_bytes(path.read_bytes()[:-40])
    with pytest.raises(AuditError, match="partial line"):
        AuditLog("svc:test:receiver", AUDIT_KEY, path=path)


def test_tampered_line_detected(tmp_path):
    path = tmp_path / "audit.log"
    log = AuditLog("svc:test:receiver", AUDIT_KEY, path=path)
    append_some(log, 3)
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    record["decision"]["outcome"] = "ALLOW"
    record["decision"]["code"] = None
    lines[1] = canonical_dumps(record)
    ok, bad, detail = verify_audit_chain(lines, AUDIT_KEY.public_hex)
    assert not ok
    assert bad == 1


def test_truncation_and_reorder_detected():
    log = AuditLog("svc:test:receiver", AUDIT_KEY)
    records = append_some(log, 3)
    # Dropping the middle record breaks linkage at its successor's position.
    ok, bad, _ = verify_audit_chain([records[0], records[2]], AUDIT_KEY.public_hex)
    assert not ok and bad == 1
    ok, bad, _ = verify_audit_chain([records[1], records[0], records[2]], AUDIT_KEY.public_hex)
    assert not ok and bad == 0


def test_non_canonical_line_detected():
    log = AuditLog("svc:test:receiver", AUDIT_KEY)
    records = append_some(log, 1)
    pretty = json.dumps(records[0].raw, indent=2, sort_keys=True)
    ok, bad, detail = verify_audit_chain([pretty], AUDIT_KEY.public_hex)
    assert not ok and bad == 0
    assert "canonical" in detail


def test_unparseable_line_detected():
    ok, bad, _ = verify_audit_chain(["{{{not json"], AUDIT_KEY.public_hex)
    assert not ok and bad == 0


def test_empty_log_verifies():
    ok, bad, detail = verify_audit_chain([], AUDIT_KEY.public_hex)
    assert ok and bad is None
    assert "0 records" in detail


def test_unknown_key_protection_class_rejected():
    with pytest.raises(AuditError):
        AuditLog("svc:test:receiver", AUDIT_KEY, key_protection="wishful")


def test_append_failure_surfaces_as_audit_error(tmp_path):
    target = tmp_path / "missing-directory" / "audit.log"
    log = AuditLog("svc:test:receiver", AUDIT_KEY, path=target)
    with pytest.raises(AuditError):
        append_some(log, 1)


def test_a_file_log_opens_its_file_once_and_keeps_no_records(tmp_path, monkeypatch):
    from mandate import appendfile

    opened = []

    def counted(*args, **kwargs):
        opened.append(args)
        return open(*args, **kwargs)

    monkeypatch.setattr(appendfile, "open", counted, raising=False)
    path = _written_log(tmp_path, 2)
    log = AuditLog("svc:test:receiver", AUDIT_KEY, path=path)
    appended = append_some(log, 40)
    assert opened == [(path, "ab"), (path, "ab")]  # one per log instance
    assert log._memory == []
    # records() reads the file back: the history and this instance's records.
    records = log.records()
    assert len(records) == 42 and records[2:] == appended
    assert verify_audit_chain(records, AUDIT_KEY.public_hex)[0]


def test_a_failed_write_refuses_every_later_append(tmp_path, monkeypatch):
    path = _written_log(tmp_path, 2)
    log = AuditLog("svc:test:receiver", AUDIT_KEY, path=path)
    append_some(log, 1)
    handle = log._file._handle
    monkeypatch.setattr(handle, "write", lambda data, write=handle.write: write(data[: len(data) // 2]))
    with pytest.raises(AuditError, match="short write"):
        append_some(log, 1)
    torn = path.read_bytes()
    for _ in range(2):
        with pytest.raises(AuditError, match="refuses appends"):
            append_some(log, 1)
    assert path.read_bytes() == torn and handle.closed
    # A fresh log must verify the tail first, and the torn one is refused.
    with pytest.raises(AuditError, match="partial line"):
        AuditLog("svc:test:receiver", AUDIT_KEY, path=path)


def _float_line(record):
    raw = dict(record.raw, governance={"x": 1.5})
    return json.dumps(raw, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def test_a_float_line_fails_at_its_index():
    records = append_some(AuditLog("svc:test:receiver", AUDIT_KEY), 2)
    lines = [records[0].dumps(), _float_line(records[1])]
    ok, bad, detail = verify_audit_chain(lines, AUDIT_KEY.public_hex)
    assert (ok, bad, detail) == (False, 1, "record 1 is not in canonical form")


def test_a_float_tail_refuses_to_reopen(tmp_path):
    path = _written_log(tmp_path, 2)
    records = AuditLog("svc:test:receiver", AUDIT_KEY, path=tmp_path / "other.log")
    tail = _float_line(append_some(records, 1)[0])
    path.write_text(path.read_text() + tail + "\n")
    with pytest.raises(AuditError, match="not in canonical form"):
        AuditLog("svc:test:receiver", AUDIT_KEY, path=path)


@pytest.mark.parametrize("line", ["5", "[1]", '"text"', "null"])
def test_a_line_that_is_not_an_object_fails_at_its_index(line):
    ok, bad, detail = verify_audit_chain([line], AUDIT_KEY.public_hex)
    assert (ok, bad, detail) == (False, 0, "record 0 is not a JSON object")


# --- rendering ------------------------------------------------------------------

# Quotes, backslashes, braces, a line separator that JSON leaves unescaped, an
# astral-plane character, NUL, and member text that would mislead a renderer
# that split a record by searching its text.
FRAGMENTS = ['"', "\\", "{", "}", "\u2028", "\U0001f600", "\x00", ',"subject_id":', ',"signature":{']
CHARACTERS = st.characters(blacklist_categories=("Cs",))  # lone surrogates are tested on their own
ADVERSARIAL = st.lists(
    st.one_of(st.sampled_from(FRAGMENTS), st.text(CHARACTERS, max_size=4)), max_size=5
).map("".join)


# Any plain JSON value: what a member that is not typed text may hold.
PLAIN = st.recursive(
    st.none() | st.booleans() | st.integers() | ADVERSARIAL,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(ADVERSARIAL, inner, max_size=3),
    max_leaves=8,
)


def _append(log, resource, context, detail, workflow, **members):
    args = dict(
        operation="evaluate",
        timestamp=NOW,
        credential_digests=["digest-0"],
        presenter_id="agent:test:worker",
        subject_id=resource,
        issuer_id="iss:test:authority",
        action="task.run",
        resource=resource,
        context_snapshot=context,
        constraint_results=[{"label": "C1", "passed": True, "note": detail}],
        decision_outcome="DENY",
        decision_code="constraint_failed",
        decision_detail=detail,
        failed_constraint="C1",
        governance={"registry_versions": {resource: 1}, "profile_version": 1},
        workflow=workflow,
    )
    args.update(members)
    return log.append(**args)


@contextlib.contextmanager
def _without_the_c_accelerator():
    """Every string escaped, and every other value encoded, by json's
    pure-Python code instead of its C accelerator."""
    escape = json.encoder.py_encode_basestring
    with mock.patch.object(json.encoder, "c_make_encoder", None), mock.patch.object(
        json.encoder, "encode_basestring", escape
    ), mock.patch.object(canonical, "_encode", canonical._ENCODER.encode), mock.patch.object(
        audit, "_escape", escape
    ):
        yield


RECORD_MEMBERS = dict(
    resource=ADVERSARIAL,
    context=st.dictionaries(ADVERSARIAL, ADVERSARIAL | PLAIN, max_size=3),
    detail=ADVERSARIAL | PLAIN,
    environment=st.none() | ADVERSARIAL,
    workflow=st.none()
    | st.dictionaries(ADVERSARIAL, ADVERSARIAL | st.lists(ADVERSARIAL, max_size=2) | PLAIN, max_size=3),
    issuer=PLAIN,
    digests=st.lists(ADVERSARIAL, max_size=3) | st.lists(PLAIN, max_size=3),
)


def _each_rendering_is_canonical(resource, context, detail, environment, workflow, issuer, digests):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "audit.log"
        log = AuditLog("svc:test:receiver", AUDIT_KEY, path=path, environment=environment)
        members = dict(issuer_id=issuer, credential_digests=digests)
        records = [_append(log, resource, context, detail, workflow, **members) for _ in range(2)]
        lines = path.read_text("utf-8").split("\n")[:-1]
        assert lines == [canonical_dumps(record.raw) for record in records]
        for record in records:
            assert ("workflow" in record.raw) is (workflow is not None)
            body = {k: v for k, v in record.raw.items() if k not in ("record_id", "signature")}
            assert record.record_id == record.raw["record_id"] == "rec-" + digest_object(body)[:16]
            assert check_signature(record.raw, AUDIT_KEY.public_hex)
        assert verify_audit_chain(lines, AUDIT_KEY.public_hex)[0]
        reopened = AuditLog("svc:test:receiver", AUDIT_KEY, path=path, environment=environment)
        _append(reopened, resource, context, detail, workflow, **members)
        assert verify_audit_chain(path.read_text("utf-8").split("\n")[:-1], AUDIT_KEY.public_hex)[0]


@settings(max_examples=60, deadline=None)
@given(**RECORD_MEMBERS)
def test_each_rendering_of_a_record_is_its_canonical_form(**members):
    _each_rendering_is_canonical(**members)


@settings(max_examples=60, deadline=None)
@given(**RECORD_MEMBERS)
def test_each_rendering_of_a_record_is_its_canonical_form_without_the_c_accelerator(**members):
    with _without_the_c_accelerator():
        _each_rendering_is_canonical(**members)


# --- the public append checks every value it renders ----------------------------

_NOT_PLAIN = [
    ("governance", {"tier": 1.5}),
    ("governance", {"registries": [{"version": 1.0}]}),
    ("context_snapshot", {"core.amount": 250.5}),
    ("constraint_results", [{"label": "C1", "passed": object()}]),
    ("workflow", {"workflow_id": ("wf", 1.5)}),
    ("presenter_id", 1.5),
    ("resource", b"jobs/1"),
    ("context_snapshot", {5: "x"}),
    ("credential_digests", ["digest-0", 1.5]),
    ("decision_detail", 1.5),
    ("workflow", {1: "wf-1"}),
]


def _plain_args(**members):
    args = dict(
        operation="evaluate", timestamp=NOW, credential_digests=["digest-0"], presenter_id="agent:test:worker",
        subject_id=None, issuer_id=None, action="task.run", resource=None, context_snapshot={},
        constraint_results=[], decision_outcome="ALLOW", decision_code=None, decision_detail="",
        failed_constraint=None, governance={}, workflow=None,
    )
    args.update(members)
    return args


@pytest.mark.parametrize("member, value", _NOT_PLAIN)
def test_a_value_that_is_not_plain_json_appends_nothing(tmp_path, member, value):
    path = _written_log(tmp_path, 1)
    log = AuditLog("svc:test:receiver", AUDIT_KEY, path=path)
    before = path.read_bytes()
    with pytest.raises(CanonicalizationError):
        log.append(**_plain_args(**{member: value}))
    assert path.read_bytes() == before
    append_some(log, 1)
    ok, _, detail = verify_audit_chain(path.read_text("utf-8").splitlines(), AUDIT_KEY.public_hex)
    assert ok and detail == "2 records verified"


@pytest.mark.parametrize(
    "member, value, offence",
    [
        ("context_snapshot", {"core.amount": 250.5}, "float at $.context.core.amount "),
        ("context_snapshot", {5: "x"}, "non-string key at $.context"),
        ("credential_digests", ["digest-0", 1.5], "float at $.credential_digests[1] "),
        ("decision_detail", 1.5, "float at $.decision.detail "),
        ("workflow", {"roles": ["a", 1.5]}, "float at $.workflow.roles[1] "),
        ("governance", {"registries": [{"version": 1.0}]}, "float at $.governance.registries[0].version "),
    ],
)
def test_an_offence_is_named_by_its_place_in_the_record(member, value, offence):
    log = AuditLog("svc:test:receiver", AUDIT_KEY)
    with pytest.raises(CanonicalizationError, match=f"^{re.escape(offence)}"):
        log.append(**_plain_args(**{member: value}))
    assert log.records() == []


def test_a_rendered_member_is_checked_once_when_built_and_spliced_as_it_stands(tmp_path):
    with pytest.raises(CanonicalizationError):
        Rendered({"tier": 1.5})
    governance = Rendered({"tier": "synchronous", "registries": [{"digest": "d", "version": 1}]})
    results = Rendered([{"label": "C1", "result": "PASS"}])
    path = tmp_path / "audit.log"
    log = AuditLog("svc:test:receiver", AUDIT_KEY, path=path)
    plain = AuditLog("svc:test:receiver", AUDIT_KEY, path=tmp_path / "plain.log")
    written = []
    for target, members in ((log, (governance, results)), (plain, (governance.value, results.value))):
        for i in range(2):
            written.append(target.append(
                operation="evaluate", timestamp=NOW, credential_digests=[f"digest-{i}"], presenter_id=None,
                subject_id=None, issuer_id=None, action=None, resource=None, context_snapshot={},
                constraint_results=members[1], decision_outcome="ALLOW", decision_code=None,
                decision_detail="", failed_constraint=None, governance=members[0],
            ))
    assert path.read_bytes() == (tmp_path / "plain.log").read_bytes()
    # A record's raw is decoded from its line: it shares nothing with what was spliced in.
    first, second = written[:2]
    assert first.raw["governance"] == governance.value and first.raw["governance"] is not governance.value
    assert first.raw["constraint_results"][0] is not second.raw["constraint_results"][0]
    assert first.raw["constraint_results"][0] is not results.value[0]
    registries = [record.raw["governance"]["registries"] for record in (first, second)]
    assert registries[0] is not registries[1] and registries[0][0] is not registries[1][0]
    assert registries[0][0] is not governance.value["registries"][0]
    registries[0][0]["version"] = 2  # changing one record leaves the others and the snapshot as they were
    assert second.dumps() == (tmp_path / "audit.log").read_text("utf-8").split("\n")[1]
    assert governance.value["registries"][0]["version"] == 1


def test_a_lone_surrogate_appends_nothing(tmp_path):
    path = _written_log(tmp_path, 1)
    log = AuditLog("svc:test:receiver", AUDIT_KEY, path=path)
    before, history = path.read_bytes(), log.records()
    with pytest.raises(UnicodeEncodeError):
        _append(log, "jobs/\ud800", {}, "", None)
    # records() of a file-backed log reads the file: the one record written before.
    assert path.read_bytes() == before and log.records() == history and len(history) == 1
    # The chain still links to the last written line.
    _append(log, "jobs/2", {}, "", None)
    ok, _, detail = verify_audit_chain(path.read_text("utf-8").splitlines(), AUDIT_KEY.public_hex)
    assert ok and detail == "2 records verified"


# --- a record is the line it wrote ----------------------------------------------


@pytest.mark.parametrize("on_disk", [False, True], ids=["in-memory", "file-backed"])
def test_records_are_read_from_the_lines_written(tmp_path, on_disk):
    reference = tmp_path / "reference.log"
    append_some(AuditLog("svc:test:receiver", AUDIT_KEY, path=reference), 3)
    lines = reference.read_text("utf-8").splitlines()
    log = AuditLog("svc:test:receiver", AUDIT_KEY, path=tmp_path / "audit.log" if on_disk else None)
    appended = append_some(log, 3)
    records = log.records()
    assert [record.dumps() for record in records] == [record.line for record in appended] == lines
    assert records == appended
    for record, line in zip(records, lines):
        assert record.raw == load_json(record.dumps()) and record.digest() == sha256_hex(line)
        assert (record.record_id, record.prev_record) == (record.raw["record_id"], record.raw["prev_record"])


def test_changing_a_returned_raw_changes_no_other_record_nor_the_log():
    governance = Rendered({"tier": "synchronous", "registries": [{"digest": "d", "version": 1}]})
    log = AuditLog("svc:test:receiver", AUDIT_KEY)
    first, second = (
        log.append(
            operation="evaluate", timestamp=NOW, credential_digests=[f"digest-{i}"], presenter_id=None,
            subject_id=None, issuer_id=None, action=None, resource=None, context_snapshot={},
            constraint_results=[], decision_outcome="ALLOW", decision_code=None,
            decision_detail="", failed_constraint=None, governance=governance,
        )
        for i in range(2)
    )
    lines = [first.line, second.line]
    first.raw["governance"]["registries"][0]["version"] = 2
    first.raw["decision"]["outcome"] = "DENY"
    assert second.raw["governance"]["registries"][0]["version"] == 1
    assert governance.value["registries"][0]["version"] == 1
    assert first.dumps() == lines[0] and first.digest() == second.prev_record
    records = log.records()
    assert [record.line for record in records] == lines
    assert records[0].raw["governance"]["registries"][0]["version"] == 1
    assert records[0].raw["decision"]["outcome"] == "ALLOW"


def test_an_in_memory_log_keeps_little_more_than_its_lines():
    log = AuditLog("svc:test:receiver", AUDIT_KEY)
    append_some(log, 1)  # the per-log texts and the key objects are built before measuring
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for i in range(2000):
            append_some(log, 1, resource=f"jobs-{i}")
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    written = [record.dumps() for record in log.records()[1:]]
    assert len(written) == 2000
    assert after - before <= sum(len(line.encode("utf-8")) for line in written) + 200 * len(written)


def test_a_record_whose_line_is_not_canonical_is_refused_as_that_line_is():
    [record] = append_some(AuditLog("svc:test:receiver", AUDIT_KEY), 1)
    unsorted = dict(reversed(list(record.raw.items())))
    for text in (
        json.dumps(record.raw, indent=2, sort_keys=True),
        json.dumps(unsorted, separators=(",", ":"), ensure_ascii=False),
        _float_line(record),
    ):
        as_record = AuditRecord(record.record_id, record.prev_record, text)
        verdict = verify_audit_chain([as_record], AUDIT_KEY.public_hex)
        assert verdict == verify_audit_chain([text], AUDIT_KEY.public_hex)
        assert verdict == (False, 0, "record 0 is not in canonical form")
    assert verify_audit_chain([record], AUDIT_KEY.public_hex)[0]


# SHA-256 of the whole log file below.  Any change to key order, escaping,
# record_id derivation or the signed bytes changes it.
GOLDEN_LOG_SHA256 = "fdb6f06d793a3579bdafbabbe56a1e7e3624c976616d66d3e0bacf4c0572189c"


def _write_the_pinned_log(path):
    log = AuditLog("svc:test:receiver", AUDIT_KEY, path=path, environment='eu "west" ')
    append_some(log, 2)
    _append(log, 'jobs/\\"1"\U0001f600', {"core.note": ',"subject_id":"x"'}, "}{", None)
    _append(log, "jobs/2", {}, "detail", {"workflow_id": "wf-1", "roles": ["a", "b"]})


def test_audit_bytes_are_pinned(tmp_path):
    _write_the_pinned_log(tmp_path / "audit.log")
    assert hashlib.sha256((tmp_path / "audit.log").read_bytes()).hexdigest() == GOLDEN_LOG_SHA256


def test_audit_bytes_are_pinned_without_the_c_accelerator(tmp_path):
    with _without_the_c_accelerator():
        _write_the_pinned_log(tmp_path / "audit.log")
    assert hashlib.sha256((tmp_path / "audit.log").read_bytes()).hexdigest() == GOLDEN_LOG_SHA256


@pytest.mark.parametrize(
    "line",
    ['{"x":1}', "5", "not json", '{"prev_record":"' + GENESIS_DIGEST + '","record_id":5}'],
    ids=["no-record-id", "not-an-object", "not-json", "int-record-id"],
)
def test_records_names_a_line_that_is_not_a_record(tmp_path, line):
    path = tmp_path / "audit.log"
    log = AuditLog("svc:test:receiver", AUDIT_KEY, path=path)
    append_some(log, 2)
    with path.open("a", encoding="utf-8") as handle:  # another writer extends the opened log
        handle.write(line + "\n")
    with pytest.raises(AuditError, match="^record 2 does not read: "):
        log.records()


def test_records_names_a_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "audit.log"
    log = AuditLog("svc:test:receiver", AUDIT_KEY, path=path)
    append_some(log, 2)
    with path.open("ab") as handle:  # another writer extends the opened log
        handle.write(b"\xff\n")
    with pytest.raises(AuditError, match="^record 2 does not read: 'utf-8' codec can't decode byte 0xff"):
        log.records()
