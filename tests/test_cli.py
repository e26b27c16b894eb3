"""Command line round trips over file-based artifacts."""

import json
from pathlib import Path

import pytest

from mandate.audit import AuditLog
from mandate.canonical import to_transport
from mandate.cli import main
from mandate.container import make_possession_proof, parse_container
from mandate.keys import generate_key
from mandate.model import parse_timestamp
from mandate.semantics import identity_mapping_profile

NOW = "2026-05-01T12:00:00Z"
FROM = "2026-01-01T00:00:00Z"
UNTIL = "2026-12-31T23:59:59Z"
RECEIVER_ID = "svc:cli:receiver"

ISSUER = generate_key("iss:cli:authority", seed="cli:issuer")
SUBJECT = generate_key("agent:cli:worker", seed="cli:subject")
DELEGATE = generate_key("agent:cli:delegate", seed="cli:delegate")
STEWARD = generate_key("steward:cli", seed="cli:steward")
AUDIT = generate_key("svc:cli:receiver#audit", seed="cli:audit")
RECEIVER = generate_key(RECEIVER_ID, seed="cli:receiver")
AUTHORITY = generate_key("authority:cli", seed="cli:authority")


def write(path, obj):
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    lines = [json.loads(line) for line in captured.out.splitlines() if line.strip()]
    return code, (lines[-1] if lines else None), captured.err


@pytest.fixture()
def workspace(tmp_path):
    files = {
        "issuer_key": write(tmp_path / "issuer.json", ISSUER.to_dict()),
        "subject_key": write(tmp_path / "subject.json", SUBJECT.to_dict()),
        "delegate_key": write(tmp_path / "delegate.json", DELEGATE.to_dict()),
        "receiver_key": write(tmp_path / "receiver.json", RECEIVER.to_dict()),
        "authority_key": write(tmp_path / "authority.json", AUTHORITY.to_dict()),
    }
    profile = identity_mapping_profile([], parse_timestamp(UNTIL), STEWARD)
    files["config"] = write(
        tmp_path / "config.json",
        {
            "evaluator_id": RECEIVER_ID,
            "audit_key": AUDIT.to_dict(),
            "trusted_issuers": {ISSUER.key_id: ISSUER.public_hex},
            "steward_keys": {STEWARD.key_id: STEWARD.public_hex},
            "mapping_profile": profile.to_dict(),
        },
    )
    files["payload"] = write(
        tmp_path / "payload.json",
        {
            "agent_id": SUBJECT.key_id,
            "issuer_id": ISSUER.key_id,
            "permissions": ["task.run"],
            "constraints": [
                {
                    "type": "NumericLimitConstraint",
                    "field": "core.amount",
                    "operator": "lte",
                    "value": "1000",
                }
            ],
        },
    )
    files["context"] = write(
        tmp_path / "context.json",
        {
            "kind": "request_context",
            "action": "task.run",
            "fields": {"core.amount": {"type": "decimal", "value": "250"}},
        },
    )
    files["dir"] = tmp_path
    return files


def issue(capsys, ws, out_name="credential.json", payload=None):
    out = ws["dir"] / out_name
    code, _, _ = run(
        capsys,
        "issue",
        "--key", ws["issuer_key"],
        "--payload", payload or ws["payload"],
        "--subject-key", ws["subject_key"],
        "--audience", RECEIVER_ID,
        "--valid-from", FROM,
        "--valid-until", UNTIL,
        "--out", out,
    )
    assert code == 0
    return out


def pop_file(ws, credential_path, nonce, key=SUBJECT):
    credential = parse_container(json.loads(credential_path.read_text()))
    proof = make_possession_proof(credential, RECEIVER_ID, nonce, parse_timestamp(NOW), key)
    return write(ws["dir"] / f"pop-{nonce}.json", proof.to_dict())


def evaluate(capsys, ws, credentials, nonce, key=SUBJECT, context=None, extra=()):
    argv = ["evaluate", "--config", ws["config"]]
    for path in credentials:
        argv += ["--credential", path]
    argv += [
        "--context", context or ws["context"],
        "--presenter", key.key_id,
        "--pop", pop_file(ws, credentials[-1], nonce, key),
        "--now", NOW,
    ]
    argv += list(extra)
    return run(capsys, *argv)


# --- key generation --------------------------------------------------------------

def test_keygen_is_deterministic_under_a_seed(tmp_path, capsys):
    out = tmp_path / "key.json"
    code, _, err = run(capsys, "keygen", "--key-id", "k1", "--seed", "s", "--out", out)
    assert code == 0
    first = json.loads(out.read_text())
    run(capsys, "keygen", "--key-id", "k1", "--seed", "s", "--out", out)
    assert json.loads(out.read_text()) == first
    assert first["public_key"] in err or first["public_key"]


def test_keygen_emits_to_stdout_without_out(capsys):
    code, obj, _ = run(capsys, "keygen", "--key-id", "k2")
    assert code == 0
    assert obj["key_id"] == "k2" and "private_key" in obj


# --- issue / evaluate ------------------------------------------------------------

def test_issue_then_allow_and_deny(workspace, capsys):
    credential_path = issue(capsys, workspace)
    code, decision, err = evaluate(capsys, workspace, [credential_path], "n1")
    assert code == 0
    assert decision["outcome"] == "ALLOW"
    assert "ALLOW" in err

    over = write(
        workspace["dir"] / "context-over.json",
        {
            "kind": "request_context",
            "action": "task.run",
            "fields": {"core.amount": {"type": "decimal", "value": "5000"}},
        },
    )
    code, decision, err = evaluate(capsys, workspace, [credential_path], "n2", context=over)
    assert code == 1
    assert decision["outcome"] == "DENY"
    assert decision["reason"]["code"] == "constraint_failed"
    assert "DENY constraint_failed at C1" in err


def test_evaluate_requires_a_config(workspace, capsys, monkeypatch):
    monkeypatch.delenv("MANDATE_CONFIG", raising=False)
    credential_path = issue(capsys, workspace)
    code, _, err = run(
        capsys,
        "evaluate",
        "--credential", credential_path,
        "--context", workspace["context"],
        "--presenter", SUBJECT.key_id,
    )
    assert code == 2
    assert "no engine config" in err


def test_evaluate_reads_config_from_environment(workspace, capsys, monkeypatch):
    monkeypatch.setenv("MANDATE_CONFIG", workspace["config"])
    credential_path = issue(capsys, workspace)
    code, decision, _ = run(
        capsys,
        "evaluate",
        "--credential", credential_path,
        "--context", workspace["context"],
        "--presenter", SUBJECT.key_id,
        "--pop", pop_file(workspace, credential_path, "env-nonce"),
        "--now", NOW,
    )
    assert code == 0 and decision["outcome"] == "ALLOW"


def test_evaluate_missing_file_is_a_usage_error(workspace, capsys):
    code, _, err = run(
        capsys,
        "evaluate",
        "--config", workspace["config"],
        "--credential", str(workspace["dir"] / "absent.json"),
        "--context", workspace["context"],
        "--presenter", SUBJECT.key_id,
    )
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize("permissions", ["read", {"read": 1}])
def test_issue_refuses_a_payload_the_credential_parser_refuses(workspace, capsys, permissions):
    # "read" used to be signed as the permissions {"r", "e", "a", "d"}.
    body = json.loads(Path(workspace["payload"]).read_text())
    body["permissions"] = permissions
    payload_path = write(workspace["dir"] / "payload-bad.json", body)
    out = workspace["dir"] / "credential-bad.json"
    code, _, err = run(
        capsys,
        "issue",
        "--key", workspace["issuer_key"],
        "--payload", payload_path,
        "--subject-key", workspace["subject_key"],
        "--audience", RECEIVER_ID,
        "--valid-from", FROM,
        "--valid-until", UNTIL,
        "--out", out,
    )
    assert code == 2
    assert not out.exists()
    assert payload_path in err and "field 'permissions' must be list" in err


def test_evaluate_refuses_a_credential_file_with_a_non_object_row(workspace, capsys):
    credential_path = issue(capsys, workspace)
    chain_path = write(
        workspace["dir"] / "chain-bad.json", [json.loads(credential_path.read_text()), 7]
    )
    code, _, err = run(
        capsys,
        "evaluate",
        "--config", workspace["config"],
        "--credential", chain_path,
        "--context", workspace["context"],
        "--presenter", SUBJECT.key_id,
        "--pop", pop_file(workspace, credential_path, "bad-row"),
        "--now", NOW,
    )
    assert code == 2
    assert chain_path in err and "unsupported credential entry of type int" in err


@pytest.mark.parametrize("stray, code", [("", 0), ("!*", 1)])
def test_evaluate_decides_on_a_transport_wrapping(workspace, capsys, stray, code):
    # A wrapping with characters outside the alphabet carries no credential:
    # it denies like any malformed credential, with its audit record.
    credential_path = issue(capsys, workspace)
    wrapped = to_transport(credential_path.read_text().strip().encode())
    wrapping_path = write(
        workspace["dir"] / "wrapped.json",
        {"encoding": "base64url", "value": wrapped[:8] + stray + wrapped[8:]},
    )
    exit_code, decision, _ = run(
        capsys,
        "evaluate",
        "--config", workspace["config"],
        "--credential", wrapping_path,
        "--context", workspace["context"],
        "--presenter", SUBJECT.key_id,
        "--pop", pop_file(workspace, credential_path, f"wrapped{stray}"),
        "--now", NOW,
    )
    assert exit_code == code
    assert decision["outcome"] == ("ALLOW" if code == 0 else "DENY")
    if code:
        assert decision["reason"]["code"] == "signature_invalid"


# --- delegation -------------------------------------------------------------------

def narrowed_payload(ws, limit="500"):
    return write(
        ws["dir"] / f"payload-narrow-{limit}.json",
        {
            "agent_id": DELEGATE.key_id,
            "issuer_id": SUBJECT.key_id,
            "permissions": ["task.run"],
            "constraints": [
                {
                    "type": "NumericLimitConstraint",
                    "field": "core.amount",
                    "operator": "lte",
                    "value": limit,
                }
            ],
        },
    )


def test_delegate_narrows_then_chain_evaluates(workspace, capsys):
    parent_path = issue(capsys, workspace)
    child_path = workspace["dir"] / "child.json"
    code, _, err = run(
        capsys,
        "delegate",
        "--parent", parent_path,
        "--key", workspace["subject_key"],
        "--payload", narrowed_payload(workspace),
        "--subject-key", workspace["delegate_key"],
        "--out", child_path,
    )
    assert code == 0
    code, decision, _ = evaluate(
        capsys, workspace, [parent_path, child_path], "chain-nonce", key=DELEGATE
    )
    assert code == 0 and decision["outcome"] == "ALLOW"


def test_delegate_refuses_widening(workspace, capsys):
    parent_path = issue(capsys, workspace)
    code, obj, err = run(
        capsys,
        "delegate",
        "--parent", parent_path,
        "--key", workspace["subject_key"],
        "--payload", narrowed_payload(workspace, limit="99999"),
        "--subject-key", workspace["delegate_key"],
    )
    assert code == 2
    assert obj["error"] == "attenuation_violation"
    assert "refused" in err


# --- revocation --------------------------------------------------------------------

def test_revocation_flows_into_evaluation(workspace, capsys):
    credential_path = issue(capsys, workspace)
    credential_id = json.loads(credential_path.read_text())["credential_id"]
    list_path = workspace["dir"] / "revoked.json"
    code, _, _ = run(
        capsys,
        "revoke",
        "--key", workspace["issuer_key"],
        "--credential-id", "cred-other",
        "--issuer-id", ISSUER.key_id,
        "--now", NOW,
        "--out", list_path,
    )
    assert code == 0
    code, _, _ = run(
        capsys,
        "revoke",
        "--key", workspace["issuer_key"],
        "--credential-id", credential_id,
        "--list", list_path,
        "--now", NOW,
        "--out", list_path,
    )
    assert code == 0
    revocation = json.loads(list_path.read_text())
    assert revocation["version"] == 2

    config = json.loads(Path(workspace["config"]).read_text())
    config["revocation_lists"] = [
        {"list": revocation, "issuer_public": ISSUER.public_hex}
    ]
    write(workspace["dir"] / "config.json", config)
    code, decision, _ = evaluate(capsys, workspace, [credential_path], "revoked-nonce")
    assert code == 1
    assert decision["reason"]["code"] == "credential_revoked"


# --- audit -----------------------------------------------------------------------

@pytest.mark.parametrize("cut", [40, 1], ids=["last-record-truncated", "final-newline-missing"])
def test_evaluate_refuses_an_audit_log_with_a_torn_tail(workspace, capsys, cut):
    credential_path = issue(capsys, workspace)
    log_path = workspace["dir"] / "audit.log"
    for nonce in ("t1", "t2"):
        evaluate(capsys, workspace, [credential_path], nonce, extra=["--audit-path", str(log_path)])
    log_path.write_bytes(log_path.read_bytes()[:-cut])
    torn = log_path.read_bytes()
    code, decision, err = evaluate(
        capsys, workspace, [credential_path], "t3", extra=["--audit-path", str(log_path)]
    )
    assert code == 2 and decision is None
    assert "audit log" in err and "Traceback" not in err
    assert log_path.read_bytes() == torn


def test_audit_chain_survives_cli_appends_and_detects_tamper(workspace, capsys):
    credential_path = issue(capsys, workspace)
    log_path = workspace["dir"] / "audit.log"
    for nonce in ("a1", "a2", "a3"):
        evaluate(
            capsys, workspace, [credential_path], nonce, extra=["--audit-path", str(log_path)]
        )
    keys_path = write(workspace["dir"] / "audit-keys.json", {AUDIT.key_id: AUDIT.public_hex})
    code, report, _ = run(capsys, "audit", "verify", "--log", log_path, "--keys", keys_path)
    assert code == 0
    assert report["ok"] is True and report["records"] == 3

    lines = log_path.read_text().splitlines()
    lines[1] = lines[1].replace("ALLOW", "DENY!", 1)
    log_path.write_text("\n".join(lines) + "\n")
    code, report, _ = run(capsys, "audit", "verify", "--log", log_path, "--keys", keys_path)
    assert code == 1
    assert report["ok"] is False and report["bad_index"] == 1


def test_audit_verify_splits_records_only_at_newlines(workspace, capsys):
    log_path = workspace["dir"] / "audit.log"
    log = AuditLog(RECEIVER_ID, AUDIT, path=log_path)
    for resource in ("jobs/1", "jobs/\u2028two", "jobs/3"):  # U+2028 is text, not a line end
        log.append(
            operation="evaluate", timestamp=parse_timestamp(NOW), credential_digests=[],
            presenter_id=None, subject_id=None, issuer_id=None, action="task.run",
            resource=resource, context_snapshot={"core.resource_id": resource},
            constraint_results=[], decision_outcome="ALLOW", decision_code=None,
            decision_detail="", failed_constraint=None, governance={},
        )
    keys_path = write(workspace["dir"] / "audit-keys.json", {AUDIT.key_id: AUDIT.public_hex})
    code, report, _ = run(capsys, "audit", "verify", "--log", log_path, "--keys", keys_path)
    assert code == 0
    assert report["ok"] is True and report["records"] == 3


def test_audit_verify_reports_a_float_line_at_its_index(workspace, capsys):
    log_path = workspace["dir"] / "audit.log"
    log = AuditLog(RECEIVER_ID, AUDIT, path=log_path)
    for resource in ("jobs/1", "jobs/2"):
        log.append(
            operation="evaluate", timestamp=parse_timestamp(NOW), credential_digests=[],
            presenter_id=None, subject_id=None, issuer_id=None, action="task.run",
            resource=resource, context_snapshot={}, constraint_results=[],
            decision_outcome="ALLOW", decision_code=None, decision_detail="",
            failed_constraint=None, governance={},
        )
    lines = log_path.read_text().splitlines()
    raw = dict(json.loads(lines[1]), governance={"x": 1.5})
    lines[1] = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    log_path.write_text("\n".join(lines) + "\n")
    keys_path = write(workspace["dir"] / "audit-keys.json", {AUDIT.key_id: AUDIT.public_hex})
    code, report, _ = run(capsys, "audit", "verify", "--log", log_path, "--keys", keys_path)
    assert code == 1
    assert report["ok"] is False and report["bad_index"] == 1
    assert report["detail"] == "record 1 is not in canonical form"


def test_audit_verify_reports_a_line_that_is_not_utf8_at_its_index(workspace, capsys):
    log_path = workspace["dir"] / "audit.log"
    log = AuditLog(RECEIVER_ID, AUDIT, path=log_path)
    for resource in ("jobs/1", "jobs/2", "jobs/3"):
        log.append(
            operation="evaluate", timestamp=parse_timestamp(NOW), credential_digests=[],
            presenter_id=None, subject_id=None, issuer_id=None, action="task.run",
            resource=resource, context_snapshot={}, constraint_results=[],
            decision_outcome="ALLOW", decision_code=None, decision_detail="",
            failed_constraint=None, governance={},
        )
    lines = log_path.read_bytes().split(b"\n")
    lines[1] = lines[1].replace(b"jobs/2", b"jobs/\xff", 1)
    log_path.write_bytes(b"\n".join(lines))
    keys_path = write(workspace["dir"] / "audit-keys.json", {AUDIT.key_id: AUDIT.public_hex})
    code, report, _ = run(capsys, "audit", "verify", "--log", log_path, "--keys", keys_path)
    assert code == 1
    assert (report["kind"], report["ok"], report["bad_index"], report["records"]) == ("audit_verification", False, 1, 3)
    assert report["detail"].startswith("record 1 is not UTF-8 text")


# --- manifest and preflight ---------------------------------------------------------

def build_registry_file(workspace, capsys):
    issuers_path = write(
        workspace["dir"] / "issuers.json",
        {
            ISSUER.key_id: {
                "standing": "active",
                "credential_classes": ["agent-authorization"],
                "profiles": ["*"],
            }
        },
    )
    registry_path = workspace["dir"] / "registry.json"
    code, _, _ = run(
        capsys,
        "registry", "build",
        "--key", write(workspace["dir"] / "steward.json", STEWARD.to_dict()),
        "--registry-id", "registry:cli",
        "--version", "1",
        "--valid-from", FROM,
        "--valid-until", UNTIL,
        "--issuers", issuers_path,
        "--out", registry_path,
    )
    assert code == 0
    return registry_path


def test_manifest_build_verify_preflight(workspace, capsys):
    registry_path = build_registry_file(workspace, capsys)
    config = json.loads(Path(workspace["config"]).read_text())
    config["registries"] = [json.loads(registry_path.read_text())]
    write(workspace["dir"] / "config.json", config)

    manifest_path = workspace["dir"] / "manifest.json"
    code, _, _ = run(
        capsys,
        "manifest", "build",
        "--config", workspace["config"],
        "--key", workspace["receiver_key"],
        "--version", "1",
        "--valid-from", FROM,
        "--valid-until", UNTIL,
        "--out", manifest_path,
    )
    assert code == 0
    keys_path = write(workspace["dir"] / "receiver-keys.json", {RECEIVER_ID: RECEIVER.public_hex})
    code, verdict, _ = run(
        capsys, "manifest", "verify", "--manifest", manifest_path, "--keys", keys_path,
        "--now", NOW,
    )
    assert code == 0 and verdict["ok"] is True

    tampered = json.loads(manifest_path.read_text())
    tampered["version"] = 9
    tampered_path = write(workspace["dir"] / "manifest-tampered.json", tampered)
    code, verdict, _ = run(
        capsys, "manifest", "verify", "--manifest", tampered_path, "--keys", keys_path,
        "--now", NOW,
    )
    assert code == 1 and verdict["code"] == "bad_signature"

    credential_path = issue(capsys, workspace)
    caps_path = write(
        workspace["dir"] / "caps.json",
        {
            "credentials": [json.loads(credential_path.read_text())],
            "trust_anchors": ["registry:cli"],
        },
    )
    code, report, err = run(
        capsys,
        "preflight",
        "--manifest", manifest_path,
        "--keys", keys_path,
        "--capabilities", caps_path,
        "--now", NOW,
    )
    assert code == 0
    assert report["compatible"] is True
    assert "compatible" in err

    incompatible_path = write(
        workspace["dir"] / "caps-bad.json",
        {
            "credentials": [json.loads(credential_path.read_text())],
            "trust_anchors": ["registry:cli"],
            "credential_class": "payment-mandate",
        },
    )
    code, report, _ = run(
        capsys,
        "preflight",
        "--manifest", manifest_path,
        "--keys", keys_path,
        "--capabilities", incompatible_path,
        "--now", NOW,
    )
    assert code == 1
    assert report["findings"][0]["code"] == "credential_class_unaccepted"


# --- registry ----------------------------------------------------------------------

def test_registry_build_and_check(workspace, capsys):
    registry_path = build_registry_file(workspace, capsys)
    keys_path = write(workspace["dir"] / "steward-keys.json", {STEWARD.key_id: STEWARD.public_hex})
    code, verdict, _ = run(
        capsys,
        "registry", "check",
        "--registry", registry_path,
        "--keys", keys_path,
        "--now", NOW,
        "--issuer", ISSUER.key_id,
    )
    assert code == 0 and verdict["grants"] is True

    code, verdict, _ = run(
        capsys,
        "registry", "check",
        "--registry", registry_path,
        "--keys", keys_path,
        "--now", NOW,
        "--issuer", "iss:unknown",
    )
    assert code == 1 and verdict["grants"] is False

    wrong_keys = write(workspace["dir"] / "wrong-keys.json", {STEWARD.key_id: AUDIT.public_hex})
    code, verdict, _ = run(
        capsys,
        "registry", "check", "--registry", registry_path, "--keys", wrong_keys, "--now", NOW,
    )
    assert code == 1 and verdict["code"] == "bad_signature"


def test_registry_build_refuses_a_string_for_a_list(workspace, capsys):
    issuers_path = write(
        workspace["dir"] / "issuers-bad.json",
        {
            ISSUER.key_id: {
                "standing": "active",
                "credential_classes": ["agent-authorization"],
                "profiles": "p*",
            }
        },
    )
    out = workspace["dir"] / "registry-bad.json"
    code, _, err = run(
        capsys,
        "registry", "build",
        "--key", write(workspace["dir"] / "steward.json", STEWARD.to_dict()),
        "--registry-id", "registry:cli",
        "--version", "1",
        "--valid-from", FROM,
        "--valid-until", UNTIL,
        "--issuers", issuers_path,
        "--out", out,
    )
    assert code == 2
    assert not out.exists()
    assert "malformed" in err


def test_registry_and_manifest_build_refuse_a_window_that_ends_before_it_begins(workspace, capsys):
    issuers_path = write(
        workspace["dir"] / "issuers.json",
        {ISSUER.key_id: {"standing": "active", "credential_classes": ["*"], "profiles": ["*"]}},
    )
    registry_out, manifest_out = workspace["dir"] / "registry-inverted.json", workspace["dir"] / "manifest-inverted.json"
    code, _, err = run(
        capsys,
        "registry", "build",
        "--key", write(workspace["dir"] / "steward.json", STEWARD.to_dict()),
        "--registry-id", "registry:cli",
        "--version", "1",
        "--valid-from", UNTIL,
        "--valid-until", FROM,
        "--issuers", issuers_path,
        "--out", registry_out,
    )
    assert code == 2 and not registry_out.exists() and "malformed" in err
    code, _, err = run(
        capsys,
        "manifest", "build",
        "--config", workspace["config"],
        "--key", workspace["receiver_key"],
        "--version", "1",
        "--valid-from", UNTIL,
        "--valid-until", FROM,
        "--out", manifest_out,
    )
    assert code == 2 and not manifest_out.exists() and "malformed" in err


@pytest.mark.parametrize(
    "row", [{"pointer": "https://ledger.example/a"}, {"pointer": 5, "profiles": ["*"]}]
)
def test_registry_build_refuses_a_malformed_state_authority_row(workspace, capsys, row):
    # Each row needs a string pointer and an explicit profiles list.
    issuers_path = write(
        workspace["dir"] / "issuers.json",
        {ISSUER.key_id: {"standing": "active", "credential_classes": ["*"], "profiles": ["*"]}},
    )
    authorities_path = write(workspace["dir"] / "authorities.json", [row])
    out = workspace["dir"] / "registry-bad.json"
    code, _, err = run(
        capsys,
        "registry", "build",
        "--key", write(workspace["dir"] / "steward.json", STEWARD.to_dict()),
        "--registry-id", "registry:cli",
        "--version", "1",
        "--valid-from", FROM,
        "--valid-until", UNTIL,
        "--issuers", issuers_path,
        "--state-authorities", authorities_path,
        "--out", out,
    )
    assert code == 2
    assert not out.exists()
    assert str(authorities_path) in err and "malformed" in err


# --- conformance -------------------------------------------------------------------

def test_conformance_run_over_shipped_vectors(capsys):
    vectors = Path(__file__).resolve().parent.parent / "vectors"
    code, report, err = run(capsys, "conformance", "run", "--vectors", vectors)
    assert code == 0
    assert report["total"] == 71 and report["failed"] == 0
    assert "71/71" in err


# --- vouchers ----------------------------------------------------------------------

def test_voucher_init_update_verify(workspace, capsys):
    genesis_path = workspace["dir"] / "voucher-1.json"
    pointer = "https://state.cli.example/ledger"
    code, _, _ = run(
        capsys,
        "voucher", "init",
        "--key", workspace["authority_key"],
        "--credential-digest", "d" * 64,
        "--budget", "1000",
        "--pointer", pointer,
        "--now", "2026-05-01T11:58:00Z",
        "--out", genesis_path,
    )
    assert code == 0
    updated_path = workspace["dir"] / "voucher-2.json"
    code, _, _ = run(
        capsys,
        "voucher", "update",
        "--key", workspace["authority_key"],
        "--voucher", genesis_path,
        "--amount", "300",
        "--now", "2026-05-01T11:59:00Z",
        "--out", updated_path,
    )
    assert code == 0
    code, refusal, _ = run(
        capsys,
        "voucher", "update",
        "--key", workspace["authority_key"],
        "--voucher", updated_path,
        "--amount", "9000",
        "--now", NOW,
    )
    assert code == 2
    assert refusal["error"] == "over_budget"

    chain_path = write(
        workspace["dir"] / "chain.json",
        [json.loads(genesis_path.read_text()), json.loads(updated_path.read_text())],
    )
    code, verdict, _ = run(
        capsys,
        "voucher", "verify",
        "--vouchers", chain_path,
        "--authority-key", workspace["authority_key"],
        "--pointer", pointer,
        "--budget", "1000",
        "--credential-digest", "d" * 64,
        "--now", NOW,
    )
    assert code == 0
    assert verdict["ok"] is True and verdict["spent"] == "300"

    code, verdict, _ = run(
        capsys,
        "voucher", "verify",
        "--vouchers", chain_path,
        "--authority-key", workspace["authority_key"],
        "--pointer", pointer,
        "--budget", "2000",  # not the budget this chain accounts for
        "--credential-digest", "d" * 64,
        "--now", NOW,
    )
    assert code == 1
    assert verdict["ok"] is False


def test_a_voucher_refund_is_refused_as_an_error_not_as_over_budget(workspace, capsys):
    genesis_path = workspace["dir"] / "voucher-1.json"
    code, _, _ = run(
        capsys,
        "voucher", "init",
        "--key", workspace["authority_key"],
        "--credential-digest", "d" * 64,
        "--budget", "1000",
        "--pointer", "https://state.cli.example/ledger",
        "--now", "2026-05-01T11:58:00Z",
        "--out", genesis_path,
    )
    assert code == 0
    refund_path = workspace["dir"] / "voucher-refund.json"
    code, refusal, err = run(
        capsys,
        "voucher", "update",
        "--key", workspace["authority_key"],
        "--voucher", genesis_path,
        "--amount", "-5",
        "--now", NOW,
        "--out", refund_path,
    )
    assert code == 2 and refusal is None and not refund_path.exists()
    assert err.strip() == "error: voucher updates never refund"


def test_voucher_init_refuses_a_negative_budget_and_writes_nothing(workspace, capsys):
    out = workspace["dir"] / "voucher-negative.json"
    code, minted, err = run(
        capsys,
        "voucher", "init",
        "--key", workspace["authority_key"],
        "--credential-digest", "d" * 64,
        "--budget", "-5",
        "--pointer", "https://state.cli.example/ledger",
        "--now", NOW,
        "--out", out,
    )
    assert code == 2 and minted is None and not out.exists()
    assert err.strip() == "error: voucher budget refused: ledger amount must be finite and not negative"


@pytest.mark.parametrize(
    "vouchers",
    [
        {"kind": "state_voucher"},
        [{"kind": "state_voucher", "authority_id": "a", "sequence": True, "spent": "1e3"}],
        "state_voucher",
    ],
)
def test_voucher_verify_refuses_a_malformed_voucher_file(workspace, capsys, vouchers):
    code, verdict, err = run(
        capsys,
        "voucher", "verify",
        "--vouchers", write(workspace["dir"] / "vouchers.json", vouchers),
        "--authority-key", workspace["authority_key"],
        "--pointer", "https://state.cli.example/ledger",
        "--budget", "1000",
        "--now", NOW,
    )
    assert code == 2 and verdict is None
    assert err.startswith("error: ") and "vouchers.json" in err


@pytest.mark.parametrize("budget", ["1e3", "NaN", "Infinity", " 1000"])
def test_voucher_init_reads_the_budget_as_decimal_text(workspace, capsys, budget):
    out = workspace["dir"] / "voucher-bad.json"
    code, _, err = run(
        capsys,
        "voucher", "init",
        "--key", workspace["authority_key"],
        "--credential-digest", "d" * 64,
        "--budget", budget,
        "--pointer", "https://state.cli.example/ledger",
        "--now", NOW,
        "--out", out,
    )
    assert code == 2
    assert not out.exists()
    assert "bad --budget value" in err
