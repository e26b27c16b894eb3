"""Hash-chained audit records: appending, persistence, and chain verification."""

import json

import pytest

from mandate.audit import GENESIS_DIGEST, AuditError, AuditLog, verify_audit_chain
from mandate.canonical import canonical_dumps
from mandate.keys import generate_key
from mandate.model import parse_timestamp

NOW = parse_timestamp("2026-05-01T12:00:00Z")
AUDIT_KEY = generate_key("svc:test:receiver#audit", seed="audit:key")


def append_some(log, count=3):
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
                resource=f"jobs/{i}",
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
        import hashlib

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
