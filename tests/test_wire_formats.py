"""One reader per wire format, with one grammar each.

JSON text is read by ``canonical.load_json`` (UTF-8, unique member names),
timestamps by ``model.parse_timestamp`` (RFC 3339 ``date-time``), transport
wrappings by ``canonical.from_transport`` (padded canonical base64url) and
decimal text by ``model.parse_decimal``.  Each refuses what its grammar does
not allow, and every reader of an artifact turns that refusal into its own
typed error, so the same bytes decide the same way in every conforming parser
and on every supported Python.
"""

import copy
import json
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mandate.audit import AuditLog, verify_audit_chain
from mandate.canonical import (
    CanonicalizationError,
    canonical_dumps,
    from_transport,
    load_json,
    to_transport,
)
from mandate.cli import main
from mandate.conformance import FixtureError, decode_credential, iter_vector_files, run_vector, run_vectors
from mandate.constraints import resolve_timezone
from mandate.container import MalformedContainerError, parse_container
from mandate.discovery import ManifestError, build_manifest, verify_manifest
from mandate.keys import generate_key
from mandate.model import (
    SemanticType,
    ValueParseError,
    parse_decimal,
    parse_timestamp,
    parse_typed_value,
    render_timestamp,
)
from mandate.pipeline import EngineConfig
from mandate.registry import IssuerEntry, RegistryError, build_registry, load_registry
from mandate.stateful import FileStateAuthority

VECTOR_ROOT = Path(__file__).resolve().parent.parent / "vectors"
BASELINE = VECTOR_ROOT / "level1_evaluation" / "allow-baseline.json"
NOW = parse_timestamp("2026-05-01T12:00:00Z")
UNTIL = parse_timestamp("2026-12-31T23:59:59Z")
KEY = generate_key("key:wire", seed="wire")


def _duplicated(obj: dict, name: str) -> str:
    """``obj`` as JSON text with member ``name`` given twice, both times with its own value."""
    return "{" + json.dumps(name) + ":" + canonical_dumps(obj[name]) + "," + canonical_dumps(obj)[1:]


# --- JSON text ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "text",
    ['{"a":1,"a":1}', '{"a":1,"a":2}', '{"x":{"a":1,"a":2}}', '[{"a":{},"b":0,"a":{}}]', '{"a":1,"\\u0061":1}'],
)
def test_a_duplicate_member_name_is_refused_at_any_depth(text):
    with pytest.raises(ValueError, match="duplicate member name 'a'"):
        load_json(text)


@pytest.mark.parametrize(
    "data",
    [
        '{"a":1}'.encode("utf-16"),
        '{"a":1}'.encode("utf-32"),
        '{"a":1}'.encode("utf-16-le"),
        b'\xef\xbb\xbf{"a":1}',
        b'{"a":"\xff"}',
    ],
    ids=["utf-16", "utf-32", "utf-16-le", "utf-8-bom", "invalid-utf-8"],
)
def test_bytes_are_read_as_utf8_only(data):
    with pytest.raises(ValueError):
        load_json(data)


def test_bytes_and_text_read_alike():
    text = '{"b":[1,{"c":"é"}],"a":null}'
    assert load_json(text) == load_json(text.encode("utf-8")) == {"a": None, "b": [1, {"c": "é"}]}


def _registry() -> dict:
    issuer = IssuerEntry("iss:a", "active", frozenset({"agent-authorization"}), frozenset({"*"}))
    return build_registry("registry:a", 1, NOW, UNTIL, [issuer], KEY).to_dict()


def _manifest() -> dict:
    config = EngineConfig(evaluator_id="svc:a", audit_log=AuditLog("svc:a", KEY))
    return build_manifest(config, KEY, version=1, valid_from=NOW, valid_until=UNTIL).to_dict()


def _audit_line() -> str:
    log = AuditLog("svc:a", KEY)
    record = log.append(
        operation="evaluate", timestamp=NOW, credential_digests=[],
        presenter_id=None, subject_id=None, issuer_id=None, action="task.run",
        resource=None, context_snapshot={}, constraint_results=[],
        decision_outcome="ALLOW", decision_code=None, decision_detail="",
        failed_constraint=None, governance={},
    )
    return record.dumps()


def test_registry_text_with_a_duplicate_member_is_malformed():
    registry = _registry()
    load_registry(canonical_dumps(registry), {KEY.key_id: KEY.public_hex})
    with pytest.raises(RegistryError) as raised:
        load_registry(_duplicated(registry, "version").encode(), {KEY.key_id: KEY.public_hex})
    assert raised.value.code == "malformed" and "duplicate member name 'version'" in str(raised.value)


def test_manifest_text_with_a_duplicate_member_is_malformed():
    manifest = _manifest()
    verify_manifest(canonical_dumps(manifest), {"svc:a": KEY.public_hex}, NOW)
    with pytest.raises(ManifestError) as raised:
        verify_manifest(_duplicated(manifest, "version"), {"svc:a": KEY.public_hex}, NOW)
    assert raised.value.code == "malformed"


def test_container_text_with_a_duplicate_member_is_malformed():
    credential = load_json(BASELINE.read_bytes())["input"]["credentials"][0]
    parse_container(canonical_dumps(credential))
    with pytest.raises(MalformedContainerError, match="container bytes are not canonical text: duplicate"):
        parse_container(_duplicated(credential, "audience").encode())


def test_a_ledger_line_with_a_duplicate_member_is_a_value_parse_error(tmp_path):
    row = {
        "key": "digest",
        "amount": "10",
        "period": {"kind": "rolling", "seconds": 3600},
        "timestamp": "2026-05-01T12:00:00Z",
    }
    path = tmp_path / "ledger.jsonl"
    path.write_text(canonical_dumps(row) + "\n", encoding="utf-8")
    FileStateAuthority("ledger:a", path)
    path.write_text(_duplicated(row, "amount") + "\n", encoding="utf-8")
    with pytest.raises(ValueParseError, match="duplicate member name 'amount'"):
        FileStateAuthority("ledger:a", path)


def test_an_audit_line_with_a_duplicate_member_is_reported_at_its_index():
    line = _audit_line()
    assert verify_audit_chain([line], KEY.public_hex)[0]
    ok, index, detail = verify_audit_chain([line, _duplicated(json.loads(line), "kind")], KEY.public_hex)
    assert (ok, index) == (False, 1) and "duplicate member name" in detail


def test_a_cli_file_with_a_duplicate_member_is_a_usage_error(tmp_path, capsys):
    log = tmp_path / "audit.log"
    log.write_text(_audit_line() + "\n", encoding="utf-8")
    keys = tmp_path / "keys.json"
    keys.write_text(_duplicated({KEY.key_id: KEY.public_hex}, KEY.key_id), encoding="utf-8")
    assert main(["audit", "verify", "--log", str(log), "--keys", str(keys)]) == 2
    assert f"cannot read {keys}: duplicate member name" in capsys.readouterr().err


def test_a_vector_file_with_a_duplicate_member_is_a_fixture_error(tmp_path):
    vector = load_json(BASELINE.read_bytes())
    (tmp_path / "dup.json").write_text(_duplicated(vector, "vector_id"), encoding="utf-8")
    with pytest.raises(FixtureError, match="duplicate member name 'vector_id'"):
        run_vectors(tmp_path)


# Each number JSON allows but canonical text never holds, and the member it replaces.
NOT_CANONICAL_NUMBERS = ["1.5", "1e3", "NaN", "-Infinity"]


def _with_number(obj: dict, name: str, number: str) -> str:
    """``obj`` as JSON text with member ``name`` holding the bare ``number``."""
    return canonical_dumps(dict(obj, **{name: "@"})).replace('"@"', number)


@pytest.mark.parametrize("number", NOT_CANONICAL_NUMBERS)
def test_a_float_in_container_text_is_refused_by_its_path(number):
    credential = load_json(BASELINE.read_bytes())["input"]["credentials"][0]
    with pytest.raises(CanonicalizationError, match=r"float at \$\.x_extra is not canonicalizable"):
        parse_container(_with_number(credential, "x_extra", number).encode())


@pytest.mark.parametrize("number", NOT_CANONICAL_NUMBERS)
def test_a_float_in_registry_or_manifest_text_is_malformed(number):
    with pytest.raises(RegistryError) as raised:
        load_registry(_with_number(_registry(), "version", number), {KEY.key_id: KEY.public_hex})
    assert raised.value.code == "malformed" and "float at $.version" in str(raised.value)
    with pytest.raises(ManifestError) as raised:
        verify_manifest(_with_number(_manifest(), "version", number), {"svc:a": KEY.public_hex}, NOW)
    assert raised.value.code == "malformed"


@pytest.mark.parametrize("number", NOT_CANONICAL_NUMBERS)
def test_a_float_in_a_ledger_line_is_a_value_parse_error(number, tmp_path):
    row = {"key": "digest", "period": {"kind": "per_credential"}, "timestamp": "2026-05-01T12:00:00Z"}
    path = tmp_path / "ledger.jsonl"
    path.write_text(_with_number(row, "amount", number) + "\n", encoding="utf-8")
    with pytest.raises(ValueParseError, match=r"float at \$\.amount"):
        FileStateAuthority("ledger:a", path)


@pytest.mark.parametrize("number", NOT_CANONICAL_NUMBERS)
def test_a_float_in_an_audit_line_is_not_in_canonical_form(number):
    line = _audit_line()
    ok, index, detail = verify_audit_chain([line, _with_number(json.loads(line), "kind", number)], KEY.public_hex)
    assert (ok, index, detail) == (False, 1, "record 1 is not in canonical form")


@pytest.mark.parametrize("number", NOT_CANONICAL_NUMBERS)
def test_a_float_in_a_cli_or_vector_file_is_refused(number, tmp_path, capsys):
    log = tmp_path / "audit.log"
    log.write_text(_audit_line() + "\n", encoding="utf-8")
    keys = tmp_path / "keys.json"
    keys.write_text(_with_number({KEY.key_id: KEY.public_hex}, "other", number), encoding="utf-8")
    assert main(["audit", "verify", "--log", str(log), "--keys", str(keys)]) == 2
    assert f"cannot read {keys}: float at $.other" in capsys.readouterr().err
    vector = load_json(BASELINE.read_bytes())
    (tmp_path / "float.json").write_text(_with_number(vector, "x_extra", number), encoding="utf-8")
    with pytest.raises(FixtureError, match=r"float at \$\.x_extra"):
        run_vectors(tmp_path)


def _presented(entry: dict):
    """The credential object a vector entry carries, or None for bytes that are not one
    (including text that decodes but has no UTF-8 rendering: a lone surrogate)."""
    decoded = decode_credential(entry)
    if isinstance(decoded, bytes):
        try:
            decoded = load_json(decoded)
            canonical_dumps(decoded).encode("utf-8")
        except ValueError:
            return None
    return decoded if isinstance(decoded, dict) and decoded else None


def test_a_duplicated_member_of_any_shipped_credential_never_allows():
    """Every top-level member of every shipped credential and chain link,
    given twice with its own value: a last-wins parser would read the same
    grant, a first-wins one might read another, and neither is accepted."""
    cases, allowed = 0, []
    for path in iter_vector_files(VECTOR_ROOT):
        vector = load_json(path.read_bytes())
        for index, entry in enumerate(vector["input"].get("credentials", ())):
            credential = _presented(entry)
            for name in credential or ():
                altered = copy.deepcopy(vector)
                wrapping = to_transport(_duplicated(credential, name).encode("utf-8"))
                altered["input"]["credentials"][index] = {"encoding": "base64url", "value": wrapping}
                _, actual = run_vector(altered)
                cases += 1
                if actual["outcome"] != "DENY":
                    allowed.append((vector["vector_id"], index, name, actual))
    assert allowed == []
    assert cases > 400


# --- transport wrappings ------------------------------------------------------------------

@given(st.binary(max_size=64))
def test_a_wrapping_round_trips(data):
    assert from_transport(to_transport(data)) == data


@pytest.mark.parametrize(
    "text",
    [
        "eyJh!!Ijo*xfQ==",  # characters outside the alphabet, which a lenient decoder drops
        "eyJhIjoxfR==",  # non-zero pad bits: decodes to the same bytes as eyJhIjoxfQ==
        "eyJhIjoxfQ",  # unpadded
        "eyJhIjoxfQ=",  # short padding
        "eyJhIjoxfQ==\n",
        " eyJhIjoxfQ==",
        "+/8=",  # the standard alphabet's spelling of -_8=
        "eyJhIjoxfQ==eyJhIjoxfQ==",
    ],
)
def test_a_non_canonical_wrapping_is_refused(text):
    assert from_transport("eyJhIjoxfQ==") == b'{"a":1}' and from_transport("-_8=") == b"\xfb\xff"
    with pytest.raises(CanonicalizationError):
        from_transport(text)


def test_a_refused_wrapping_is_presented_as_no_container():
    assert decode_credential({"encoding": "base64url", "value": "eyJh!!Ijo*xfQ=="}) == {}


# --- timestamps ---------------------------------------------------------------------------

NOT_RFC3339 = [
    "20260101T000000Z",  # ISO 8601 basic format
    "2026-W01-1T00:00:00Z",  # week date
    "2026-01-01T00:00Z",  # reduced precision
    "2026-01-01T00Z",
    "2026-01-01T00:00:00+0100",  # offset without a colon
    "2026-01-01 00:00:00Z",  # space separator
    " 2026-01-01T00:00:00Z ",  # surrounding whitespace
    "٢٠٢٦-٠١-٠١T00:00:00Z",  # Arabic-Indic digits
]
ALSO_REFUSED = [
    "2026-01-01T00:00:00Z\n",
    "2026-01-01T00:00:00",  # no offset
    "2026-01-01",
    "2026-01-01T00:00:00.Z",
    "2026-01-01T00:00:00+24:00",
    "2026-01-01T00:00:00+01:60",
    "2026-01-01T00:00:00+01",
    "2026-01-01T00:00:60Z",  # a leap second has no datetime
    "2026-02-30T00:00:00Z",
    "0000-01-01T00:00:00Z",
    "0001-01-01T00:00:00+00:01",  # before the first representable instant in UTC
    "",
    None,
    20260101,
]


@pytest.mark.parametrize("text", NOT_RFC3339 + ALSO_REFUSED)
def test_text_outside_rfc3339_date_time_is_refused(text):
    with pytest.raises(ValueParseError):
        parse_timestamp(text)


@pytest.mark.parametrize(
    "text, instant",
    [
        ("2026-01-01T00:00:00Z", datetime(2026, 1, 1, tzinfo=timezone.utc)),
        ("2026-01-01t00:00:00z", datetime(2026, 1, 1, tzinfo=timezone.utc)),
        ("2026-01-01T01:30:00+01:30", datetime(2026, 1, 1, tzinfo=timezone.utc)),
        ("2025-12-31T23:00:00-01:00", datetime(2026, 1, 1, tzinfo=timezone.utc)),
        ("2026-01-01T00:00:00-00:00", datetime(2026, 1, 1, tzinfo=timezone.utc)),
        ("2026-01-01T00:00:00.5Z", datetime(2026, 1, 1, 0, 0, 0, 500000, tzinfo=timezone.utc)),
        ("2026-01-01T00:00:00.1234569Z", datetime(2026, 1, 1, 0, 0, 0, 123456, tzinfo=timezone.utc)),
    ],
)
def test_rfc3339_date_time_reads_as_its_utc_instant(text, instant):
    value = parse_timestamp(text)
    assert value == instant and value.tzinfo is timezone.utc


_OFFSETS = st.integers(-(24 * 60 - 1), 24 * 60 - 1).map(lambda m: timezone(timedelta(minutes=m)))


@given(
    st.datetimes(
        min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30), timezones=_OFFSETS
    )
)
def test_a_rendered_timestamp_parses_to_the_same_instant(value):
    text = render_timestamp(value)
    assert parse_timestamp(text) == value
    assert render_timestamp(parse_timestamp(text)) == text


# --- anchored text patterns -----------------------------------------------------------------

def test_decimal_and_integer_text_refuse_a_trailing_newline():
    assert parse_decimal("1000") == Decimal("1000")
    with pytest.raises(ValueParseError):
        parse_decimal("1000\n")
    assert parse_typed_value("12", SemanticType.INTEGER).value == 12
    with pytest.raises(ValueParseError):
        parse_typed_value("12\n", SemanticType.INTEGER)


def test_a_uri_refuses_a_trailing_newline():
    assert parse_typed_value("urn:x", SemanticType.URI).text == "urn:x"
    with pytest.raises(ValueParseError):
        parse_typed_value("urn:x\n", SemanticType.URI)


def test_a_fixed_offset_zone_refuses_a_trailing_newline():
    assert resolve_timezone("+05:00") == timezone(timedelta(hours=5))
    assert resolve_timezone("+05:00\n") is None
