"""Operator command line: issuance, delegation, evaluation, discovery, audit,
and conformance workflows over file-based artifacts.

Every behavior is a thin wrapper over a library operation.  Structured output
goes to stdout in canonical serialization; human summaries go to stderr.
Exit codes: 0 for success or ALLOW, 1 for DENY and failed verifications
(the code is in the stdout object), 2 for usage and fixture errors.

The engine config file uses the same schema as conformance vector fixtures
(evaluator_id, audit_key, trusted_issuers, steward_keys, vocabularies,
mapping_profile, registries, revocation_lists, local_policy, tier,
profile_id, state, ...).  The path comes from --config or $MANDATE_CONFIG.
An optional --now on evaluating subcommands injects the clock.
"""

from __future__ import annotations

import argparse
import os
import sys
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from pathlib import Path
from typing import Optional, Sequence

from .audit import verify_audit_chain
from .canonical import canonical_dumps, load_json
from .conformance import FixtureError, build_engine, decode_credential, run_vectors
from .constraints import CumulativeLimitConstraint, Period
from .container import (
    DEFAULT_CREDENTIAL_CLASS,
    AttenuationViolation,
    ContainerError,
    PossessionProof,
    RevocationList,
    issue_credential,
    new_revocation_list,
    parse_container,
    parse_payload,
    revoke,
)
from .discovery import (
    CredentialSummary,
    ManifestError,
    SenderCapabilities,
    build_manifest,
    preflight,
    verify_manifest,
)
from .keys import KeyError_, generate_key, load_signing_key, parse_key_map
from .model import (
    RequestContext,
    ValueParseError,
    expect,
    expect_list,
    parse_decimal,
    parse_timestamp,
    reading,
    render_timestamp,
)
from .registry import RegistryError, build_registry, load_registry
from .registry import parse_issuer_entries, parse_state_authority_entries
from .stateful import (
    OverBudgetError,
    StateVoucher,
    make_voucher,
    update_voucher,
    verify_voucher_chain,
)

CONFIG_ENV = "MANDATE_CONFIG"


class CliError(Exception):
    """Anything that makes the invocation unrunnable (exit 2)."""


def _emit(obj: dict) -> None:
    sys.stdout.write(canonical_dumps(obj) + "\n")


def _note(text: str) -> None:
    sys.stderr.write(text + "\n")


def _read_json(path: str):
    try:
        return load_json(Path(path).read_bytes())
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _write_artifact(obj: dict, out: Optional[str], what: str) -> None:
    if out:
        Path(out).write_text(canonical_dumps(obj) + "\n", encoding="utf-8")
        _note(f"{what} written to {out}")
    else:
        _emit(obj)


def _parse_now(text: Optional[str]) -> datetime:
    if text is None:
        return datetime.now(timezone.utc).replace(microsecond=0)
    try:
        return parse_timestamp(text)
    except ValueError as exc:
        raise CliError(f"bad --now value: {exc}") from exc


def _parse_file(path: str, parse):
    """Hand a JSON file to the library's reader for its format; a refusal
    names the file and exits 2."""
    try:
        with reading(ValueParseError):
            return parse(_read_json(path))
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _subject_public(args) -> str:
    if args.subject_public:
        return args.subject_public
    return _parse_file(args.subject_key, lambda key_file: expect(key_file, "public_key", str))


def _decimal(text: str, flag: str) -> Decimal:
    try:
        return parse_decimal(text)
    except ValueError as exc:
        raise CliError(f"bad {flag} value {text!r}") from exc


def _as_list(obj) -> list:
    return obj if isinstance(obj, list) else [obj]


def _credential_entries(obj) -> list:
    """One credential entry or a chain list, root first, each read as the
    vectors read theirs (a base64url transport wrapping included)."""
    return [decode_credential(row) for row in _as_list(obj)]


def _vouchers(obj) -> list:
    """One voucher or a chain list, oldest first."""
    return [StateVoucher.from_dict(row) for row in _as_list(obj)]


def _capabilities(caps) -> SenderCapabilities:
    """The sender's holdings in a preflight capabilities file."""
    credential_class = expect(caps, "credential_class", str, optional=True) or DEFAULT_CREDENTIAL_CLASS
    versions = expect(caps, "profile_versions", dict, optional=True) or {}
    return SenderCapabilities(
        credentials=tuple(
            CredentialSummary.of(parse_container(decode_credential(row)), credential_class)
            for row in expect_list(caps.get("credentials", []), dict)
        ),
        profile_versions={name: expect(versions, name, int) for name in versions},
        trust_anchors=frozenset(expect_list(caps.get("trust_anchors", []), str)),
        producible_fields=frozenset(expect_list(caps.get("producible_fields", []), str)),
    )


def _config_fixtures(args, now: datetime) -> dict:
    path = args.config or os.environ.get(CONFIG_ENV)
    if not path:
        raise CliError(f"no engine config: pass --config or set ${CONFIG_ENV}")
    config = _read_json(path)
    if not isinstance(config, dict):
        raise CliError(f"{path}: config must be an object")
    fixtures = dict(config)
    fixtures["now"] = render_timestamp(now)
    return fixtures


# --- subcommand handlers ------------------------------------------------------

def _cmd_keygen(args) -> int:
    key = generate_key(args.key_id, seed=args.seed)
    _write_artifact(key.to_dict(), args.out, f"private key {args.key_id}")
    _note(f"public key: {key.public_hex}")
    return 0


def _cmd_issue(args) -> int:
    issuer_key = _parse_file(args.key, load_signing_key)
    payload = _parse_file(args.payload, parse_payload)
    try:
        credential = issue_credential(
            payload,
            subject_public_key=_subject_public(args),
            audience=args.audience,
            valid_from=_parse_now(args.valid_from),
            valid_until=_parse_now(args.valid_until),
            issuer_key=issuer_key,
            credential_id=args.credential_id,
        )
    except ContainerError as exc:
        raise CliError(str(exc)) from exc
    _write_artifact(credential.to_dict(), args.out, f"credential {credential.credential_id}")
    _note(f"digest: {credential.digest()}")
    return 0


def _cmd_delegate(args) -> int:
    parent = _parse_file(args.parent, parse_container)
    delegator_key = _parse_file(args.key, load_signing_key)
    payload = _parse_file(args.payload, parse_payload)
    audience = args.audience or sorted(parent.audience)
    valid_from = _parse_now(args.valid_from) if args.valid_from else parent.valid_from
    valid_until = _parse_now(args.valid_until) if args.valid_until else parent.valid_until
    try:
        child = issue_credential(
            payload,
            subject_public_key=_subject_public(args),
            audience=audience,
            valid_from=valid_from,
            valid_until=valid_until,
            issuer_key=delegator_key,
            parent=parent,
            credential_id=args.credential_id,
        )
    except AttenuationViolation as exc:
        _emit({"error": "attenuation_violation", "detail": str(exc)})
        _note(f"refused: {exc}")
        return 2
    except ContainerError as exc:
        raise CliError(str(exc)) from exc
    _write_artifact(child.to_dict(), args.out, f"delegated credential {child.credential_id}")
    _note(f"digest: {child.digest()}")
    return 0


def _cmd_evaluate(args) -> int:
    now = _parse_now(args.now)
    fixtures = _config_fixtures(args, now)
    audit_path = Path(args.audit_path) if args.audit_path else None
    engine, engine_now = build_engine(fixtures, label="config", audit_path=audit_path)
    credentials = [
        entry for path in args.credential for entry in _parse_file(path, _credential_entries)
    ]
    context = _parse_file(args.context, RequestContext.from_dict)
    pop = _parse_file(args.pop, PossessionProof.from_dict) if args.pop else None
    vouchers = _parse_file(args.vouchers, _vouchers) if args.vouchers else None
    decision = engine.evaluate(
        credentials,
        context,
        args.presenter,
        pop,
        now=engine_now,
        vouchers=vouchers,
    )
    _emit(decision.to_dict())
    if decision.reason is None:
        _note("ALLOW")
    else:
        suffix = f" at {decision.failed_constraint}" if decision.failed_constraint else ""
        _note(f"DENY {decision.reason.code.value}{suffix}: {decision.reason.detail}")
    if audit_path is not None:
        _note(f"audit record appended to {audit_path}")
    return 0 if decision.reason is None else 1


def _cmd_revoke(args) -> int:
    issuer_key = _parse_file(args.key, load_signing_key)
    now = _parse_now(args.now)
    if args.list:
        current = _parse_file(args.list, RevocationList.from_dict)
        updated = revoke(current, args.credential_id, issuer_key, now=now)
    else:
        if not args.issuer_id:
            raise CliError("--issuer-id is required when starting a new revocation list")
        updated = new_revocation_list(
            args.issuer_id, issuer_key, now=now, revoked=[args.credential_id]
        )
    _write_artifact(updated.to_dict(), args.out, f"revocation list v{updated.version}")
    return 0


def _cmd_manifest_build(args) -> int:
    now = _parse_now(args.now)
    fixtures = _config_fixtures(args, now)
    engine, _ = build_engine(fixtures, label="config")
    manifest = build_manifest(
        engine.config,
        _parse_file(args.key, load_signing_key),
        version=args.version,
        valid_from=_parse_now(args.valid_from),
        valid_until=_parse_now(args.valid_until),
    )
    _write_artifact(manifest.to_dict(), args.out, f"manifest v{manifest.version}")
    _note(f"digest: {manifest.digest()}")
    return 0


def _cmd_manifest_verify(args) -> int:
    now = _parse_now(args.now)
    raw = _read_json(args.manifest)
    try:
        manifest = verify_manifest(raw, _parse_file(args.keys, parse_key_map), now)
    except ManifestError as exc:
        _emit({"kind": "manifest_verification", "ok": False, "code": exc.code, "detail": exc.detail})
        _note(f"manifest rejected: {exc}")
        return 1
    _emit(
        {
            "kind": "manifest_verification",
            "ok": True,
            "receiver_id": manifest.receiver_id,
            "version": manifest.version,
            "digest": manifest.digest(),
        }
    )
    _note(f"manifest for {manifest.receiver_id} verifies")
    return 0


def _cmd_preflight(args) -> int:
    now = _parse_now(args.now)
    raw = _read_json(args.manifest)
    try:
        manifest = verify_manifest(raw, _parse_file(args.keys, parse_key_map), now)
    except ManifestError as exc:
        _emit({"kind": "preflight_report", "compatible": False, "manifest_error": exc.code})
        _note(f"manifest rejected: {exc}")
        return 1
    sender = _parse_file(args.capabilities, _capabilities)
    report = preflight(sender, manifest)
    _emit(report.to_dict())
    _note("compatible" if report.compatible else f"{len(report.findings)} finding(s)")
    return 0 if report.compatible else 1


def _cmd_registry_build(args) -> int:
    steward_key = _parse_file(args.key, load_signing_key)
    issuers = _parse_file(args.issuers, parse_issuer_entries)
    authorities: tuple = ()
    if args.state_authorities:
        authorities = _parse_file(args.state_authorities, parse_state_authority_entries)
    registry = build_registry(
        registry_id=args.registry_id,
        version=args.version,
        valid_from=_parse_now(args.valid_from),
        valid_until=_parse_now(args.valid_until),
        issuers=list(issuers.values()),
        steward_key=steward_key,
        state_authorities=authorities,
    )
    _write_artifact(registry.to_dict(), args.out, f"registry {registry.registry_id} v{registry.version}")
    return 0


def _cmd_registry_check(args) -> int:
    raw = _read_json(args.registry)
    now = _parse_now(args.now) if args.now else None
    try:
        registry = load_registry(raw, _parse_file(args.keys, parse_key_map), now=now)
    except RegistryError as exc:
        _emit({"kind": "registry_check", "ok": False, "code": exc.code, "detail": exc.detail})
        _note(f"registry rejected: {exc}")
        return 1
    result = {
        "kind": "registry_check",
        "ok": True,
        "registry_id": registry.registry_id,
        "version": registry.version,
    }
    if args.issuer:
        granted = registry.grants(args.issuer, args.credential_class, args.profile)
        result["issuer"] = args.issuer
        result["grants"] = granted
        _emit(result)
        _note(f"{args.issuer}: {'grants' if granted else 'does not grant'}")
        return 0 if granted else 1
    _emit(result)
    _note(f"registry {registry.registry_id} v{registry.version} verifies")
    return 0


def _cmd_audit_verify(args) -> int:
    try:  # read as bytes, so a line that is not UTF-8 fails as the record it is
        lines = [line for line in Path(args.log).read_bytes().split(b"\n") if line.strip()]
    except OSError as exc:
        raise CliError(f"cannot read {args.log}: {exc}") from exc
    ok, bad_index, detail = verify_audit_chain(lines, _parse_file(args.keys, parse_key_map))
    _emit(
        {
            "kind": "audit_verification",
            "ok": ok,
            "records": len(lines),
            "bad_index": bad_index,
            "detail": detail,
        }
    )
    _note("audit chain verifies" if ok else f"audit chain broken at record {bad_index}: {detail}")
    return 0 if ok else 1


def _cmd_conformance_run(args) -> int:
    report = run_vectors(args.vectors)
    _emit(report.to_dict())
    _note(f"{report.passed}/{report.total} vectors passed")
    return 0 if report.ok else 1


def _cmd_voucher_init(args) -> int:
    authority_key = _parse_file(args.key, load_signing_key)
    digest = args.credential_digest
    if not digest:
        if not args.credential:
            raise CliError("pass --credential or --credential-digest")
        digest = _parse_file(args.credential, parse_container).digest()
    voucher = make_voucher(
        digest, _decimal(args.budget, "--budget"), args.pointer, authority_key, _parse_now(args.now)
    )
    _write_artifact(voucher.to_dict(), args.out, f"voucher seq {voucher.sequence}")
    return 0


def _cmd_voucher_update(args) -> int:
    authority_key = _parse_file(args.key, load_signing_key)
    previous = _parse_file(args.voucher, StateVoucher.from_dict)
    try:
        voucher = update_voucher(
            previous, _decimal(args.amount, "--amount"), authority_key, _parse_now(args.now)
        )
    except OverBudgetError as exc:
        _emit({"error": "over_budget", "detail": str(exc)})
        _note(f"refused: {exc}")
        return 2
    _write_artifact(voucher.to_dict(), args.out, f"voucher seq {voucher.sequence}")
    return 0


def _cmd_voucher_verify(args) -> int:
    vouchers = _parse_file(args.vouchers, _vouchers)
    if args.authority_key:
        public = _parse_file(args.authority_key, load_signing_key).public_hex
    elif args.authority_public:
        public = args.authority_public
    else:
        raise CliError("pass --authority-key or --authority-public")
    constraint = CumulativeLimitConstraint(
        field="core.amount",
        budget=_decimal(args.budget, "--budget"),
        state_authority_pointer=args.pointer,
        period=Period("per_credential"),
    )
    terminal, reason = verify_voucher_chain(
        vouchers,
        constraint,
        authority_keys={args.pointer: public},
        now=_parse_now(args.now),
        freshness=timedelta(seconds=args.freshness),
        credential_digest=args.credential_digest,
    )
    if reason is not None:
        _emit({"kind": "voucher_verification", "ok": False, "code": reason.code.value, "detail": reason.detail})
        _note(f"rejected: {reason.code.value}: {reason.detail}")
        return 1
    _emit(
        {
            "kind": "voucher_verification",
            "ok": True,
            "sequence": terminal.sequence,
            "spent": format(terminal.spent, "f"),
            "remaining": format(terminal.remaining, "f"),
        }
    )
    _note(f"voucher chain verifies at sequence {terminal.sequence}")
    return 0


# --- parser -------------------------------------------------------------------

def _add_subject_key_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--subject-key", help="key file carrying the subject's public_key")
    group.add_argument("--subject-public", help="subject public key as hex")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mandate",
        description="issue, delegate, evaluate, and audit portable authorization credentials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a signing key")
    p.add_argument("--key-id", required=True)
    p.add_argument("--seed", help="derive the key deterministically from this seed")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_keygen)

    p = sub.add_parser("issue", help="issue a credential from a payload file")
    p.add_argument("--key", required=True, help="issuer private key file")
    p.add_argument("--payload", required=True)
    _add_subject_key_flags(p)
    p.add_argument("--audience", action="append", required=True)
    p.add_argument("--valid-from", required=True)
    p.add_argument("--valid-until", required=True)
    p.add_argument("--credential-id")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_issue)

    p = sub.add_parser("delegate", help="issue a narrowed child credential")
    p.add_argument("--parent", required=True, help="parent credential file")
    p.add_argument("--key", required=True, help="delegator private key file")
    p.add_argument("--payload", required=True, help="narrowed payload file")
    _add_subject_key_flags(p)
    p.add_argument("--audience", action="append")
    p.add_argument("--valid-from")
    p.add_argument("--valid-until")
    p.add_argument("--credential-id")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_delegate)

    p = sub.add_parser("evaluate", help="decide one request against an engine config")
    p.add_argument("--config", help=f"engine config file (default ${CONFIG_ENV})")
    p.add_argument("--credential", action="append", required=True,
                   help="credential file; repeat for a chain, root first")
    p.add_argument("--context", required=True)
    p.add_argument("--presenter", required=True)
    p.add_argument("--pop", help="possession proof file")
    p.add_argument("--vouchers", help="state voucher chain file")
    p.add_argument("--now")
    p.add_argument("--audit-path", help="append the audit record to this file")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("revoke", help="add a credential to a revocation list")
    p.add_argument("--key", required=True, help="issuer private key file")
    p.add_argument("--credential-id", required=True)
    p.add_argument("--list", help="existing revocation list file")
    p.add_argument("--issuer-id", help="required when starting a new list")
    p.add_argument("--now")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_revoke)

    p = sub.add_parser("manifest", help="governance manifest operations")
    msub = p.add_subparsers(dest="subcommand", required=True)
    b = msub.add_parser("build", help="derive a signed manifest from an engine config")
    b.add_argument("--config")
    b.add_argument("--key", required=True, help="receiver private key file")
    b.add_argument("--version", type=int, required=True)
    b.add_argument("--valid-from", required=True)
    b.add_argument("--valid-until", required=True)
    b.add_argument("--now")
    b.add_argument("--out")
    b.set_defaults(handler=_cmd_manifest_build)
    v = msub.add_parser("verify", help="verify a manifest against receiver keys")
    v.add_argument("--manifest", required=True)
    v.add_argument("--keys", required=True, help="file mapping receiver id to public key hex")
    v.add_argument("--now")
    v.set_defaults(handler=_cmd_manifest_verify)

    p = sub.add_parser("preflight", help="compare sender capabilities against a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--keys", required=True, help="file mapping receiver id to public key hex")
    p.add_argument("--capabilities", required=True)
    p.add_argument("--now")
    p.set_defaults(handler=_cmd_preflight)

    p = sub.add_parser("registry", help="trust registry operations")
    rsub = p.add_subparsers(dest="subcommand", required=True)
    b = rsub.add_parser("build", help="build and sign a trust registry")
    b.add_argument("--key", required=True, help="steward private key file")
    b.add_argument("--registry-id", required=True)
    b.add_argument("--version", type=int, required=True)
    b.add_argument("--valid-from", required=True)
    b.add_argument("--valid-until", required=True)
    b.add_argument("--issuers", required=True, help="file keyed by issuer id")
    b.add_argument("--state-authorities", help="file listing permitted state authorities")
    b.add_argument("--out")
    b.set_defaults(handler=_cmd_registry_build)
    c = rsub.add_parser("check", help="verify a registry, optionally query one issuer")
    c.add_argument("--registry", required=True)
    c.add_argument("--keys", required=True, help="file mapping steward id to public key hex")
    c.add_argument("--now")
    c.add_argument("--issuer")
    c.add_argument("--credential-class", default=DEFAULT_CREDENTIAL_CLASS)
    c.add_argument("--profile", default="")
    c.set_defaults(handler=_cmd_registry_check)

    p = sub.add_parser("audit", help="audit log operations")
    asub = p.add_subparsers(dest="subcommand", required=True)
    v = asub.add_parser("verify", help="verify an audit chain file")
    v.add_argument("--log", required=True, help="one audit record per line")
    v.add_argument("--keys", required=True,
                   help="file mapping the audit signing key id to public key hex")
    v.set_defaults(handler=_cmd_audit_verify)

    p = sub.add_parser("conformance", help="conformance vector operations")
    csub = p.add_subparsers(dest="subcommand", required=True)
    r = csub.add_parser("run", help="run every vector under a directory")
    r.add_argument("--vectors", required=True)
    r.set_defaults(handler=_cmd_conformance_run)

    p = sub.add_parser("voucher", help="state voucher operations")
    vsub = p.add_subparsers(dest="subcommand", required=True)
    i = vsub.add_parser("init", help="mint the genesis voucher for a credential")
    i.add_argument("--key", required=True, help="state authority private key file")
    i.add_argument("--credential", help="credential file to bind by digest")
    i.add_argument("--credential-digest")
    i.add_argument("--budget", required=True)
    i.add_argument("--pointer", required=True, help="state authority pointer")
    i.add_argument("--now")
    i.add_argument("--out")
    i.set_defaults(handler=_cmd_voucher_init)
    u = vsub.add_parser("update", help="extend a voucher chain by one spend")
    u.add_argument("--key", required=True, help="state authority private key file")
    u.add_argument("--voucher", required=True, help="current terminal voucher file")
    u.add_argument("--amount", required=True)
    u.add_argument("--now")
    u.add_argument("--out")
    u.set_defaults(handler=_cmd_voucher_update)
    w = vsub.add_parser("verify", help="verify a voucher chain offline")
    w.add_argument("--vouchers", required=True, help="file with a voucher or a chain list")
    w.add_argument("--authority-key", help="authority private key file (public part used)")
    w.add_argument("--authority-public", help="authority public key as hex")
    w.add_argument("--pointer", required=True)
    w.add_argument("--budget", required=True)
    w.add_argument("--credential-digest")
    w.add_argument("--freshness", type=int, default=300, help="maximum voucher age in seconds")
    w.add_argument("--now")
    w.set_defaults(handler=_cmd_voucher_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CliError as exc:
        _note(f"error: {exc}")
        return 2
    except FixtureError as exc:
        _note(f"fixture error: {exc}")
        return 2
    except (ContainerError, RegistryError, ManifestError, KeyError_, ValueError, OSError) as exc:
        _note(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
