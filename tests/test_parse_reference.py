"""The credential reader against reference renderings and readers.

Every credential shipped in ``vectors/`` and the links of generated
delegation chains are presented as canonical text and re-spelled (members
shuffled, ``", "`` separators, indented, and with unknown members holding
``signature`` and ``value`` objects of their own).  Each must parse to the
digest and signing bytes that ``digest_object`` and ``signing_bytes`` render
from its decoded object, with the constraints that
``oracles.reference_constraint_from_dict`` reads.  A refused credential keeps
its message.

The module runs a second time in a subprocess in which json's C scanner and
C encoder are switched off before the package is imported: the path of an
interpreter without the accelerator.
"""

import json
import os
import random
import subprocess
import sys
import types
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from pathlib import Path

import pytest

from mandate import canonical
from mandate.canonical import canonical_dumps, digest_object, load_json, signing_bytes
from mandate.constraints import (
    CumulativeLimitConstraint,
    EnumeratedListConstraint,
    NumericLimitConstraint,
    Period,
    StringPatternConstraint,
    TemporalWindowConstraint,
)
from mandate.container import MalformedContainerError, issue_credential, parse_container
from mandate.keys import generate_key
from mandate.model import AuthorizationPayload

from oracles import reference_constraint_from_dict

HERE = Path(__file__).resolve().parent
VECTORS = HERE.parent / "vectors"
# Set in the subprocess that runs this module without json's C accelerator.
PURE = os.environ.get("MANDATE_TEST_PURE_JSON") == "1"


def _credentials(node):
    """Every credential object in a decoded vector file."""
    if isinstance(node, list):
        for item in node:
            yield from _credentials(item)
    elif isinstance(node, dict):
        if node.get("kind") == "credential":
            yield node
        for value in node.values():
            yield from _credentials(value)


def _chain(seed: int) -> list[dict]:
    """A three-link delegation chain over all five constraint families."""
    keys = [generate_key(f"agent:ref:{seed}:{i}", seed=f"parse-reference:{seed}:{i}") for i in range(4)]
    start = datetime(2026, 1, 1, tzinfo=timezone.utc)
    links, parent = [], None
    for depth in range(3):
        constraints = (
            EnumeratedListConstraint(field="core.kind", allowed=frozenset("abc"[depth:])),
            StringPatternConstraint(field="core.path", match="restricted_glob", pattern="a/" * depth + "*"),
            NumericLimitConstraint(field="core.amount", operator="lte", value=Decimal(1000 - 100 * depth), currency="EUR"),
            TemporalWindowConstraint(
                field="core.at", valid_from=start, valid_until=start + timedelta(days=300 - depth),
                timezone="Europe/Paris", allowed_days=frozenset({"monday", "tuesday"}),
            ),
            CumulativeLimitConstraint(
                field="core.amount", budget=Decimal("5000.50"), state_authority_pointer="https://state.example/l",
                period=Period(kind="rolling", duration_seconds=3600),
            ),
        )
        parent = issue_credential(
            AuthorizationPayload(keys[depth + 1].key_id, keys[depth].key_id, frozenset({"task.run"}), constraints),
            subject_public_key=keys[depth + 1].public_hex,
            audience=["rcv:ref", "rcv:other"],
            valid_from=start,
            valid_until=start + timedelta(days=365 - depth),
            issuer_key=keys[depth],
            parent=parent,
            credential_id=f"cred-ref-{seed}-{depth}",
        )
        links.append(parent.to_dict())
    return links


def _presented() -> list[dict]:
    found = [item for path in sorted(VECTORS.rglob("*.json")) for item in _credentials(load_json(path.read_bytes()))]
    found += [link for seed in range(3) for link in _chain(seed)]
    return list({canonical_dumps(item): item for item in found}.values())


CREDENTIALS = _presented()


def _shuffled(obj, rng: random.Random):
    if isinstance(obj, dict):
        items = list(obj.items())
        rng.shuffle(items)
        return {key: _shuffled(value, rng) for key, value in items}
    if isinstance(obj, list):
        return [_shuffled(item, rng) for item in obj]
    return obj


def _with_unknown_members(obj: dict) -> dict:
    """``obj`` with unknown members, at the top and in the payload, that hold
    ``signature`` and ``value`` objects of their own, sorting before and after
    the real envelope."""
    extra = {"signature": {"key_id": "k", "suite": 1, "value": "00"}, "value": {"signature": "x"}}
    return {
        **obj,
        "aa_extra": extra,
        "signaturf": {"value": "after the envelope"},
        "zz_extra": [extra, {"value": None}],
        "payload": {**obj["payload"], "signature": extra},
    }


def _spellings(obj: dict, index: int) -> dict:
    rng = random.Random(index)
    unknown = _with_unknown_members(obj)
    return {
        "canonical": canonical_dumps(obj),
        "shuffled": json.dumps(_shuffled(obj, rng), ensure_ascii=False, separators=(",", ":")),
        "spaced": json.dumps(obj, ensure_ascii=False, sort_keys=True),
        "indented": json.dumps(_shuffled(obj, rng), ensure_ascii=False, indent=2),
        "unknown-members": canonical_dumps(unknown),
        "unknown-members-shuffled": json.dumps(_shuffled(unknown, rng), ensure_ascii=False, separators=(", ", ": ")),
    }


def test_the_inputs_cover_vectors_and_generated_links():
    assert len(CREDENTIALS) >= 29
    if PURE:
        assert isinstance(canonical._PLAIN_DECODER.scan_once, types.FunctionType)
        assert canonical._encode == canonical._ENCODER.encode
    else:
        assert not isinstance(canonical._PLAIN_DECODER.scan_once, types.FunctionType)


@pytest.mark.parametrize("index", range(len(CREDENTIALS)))
def test_each_spelling_parses_to_the_reference_renderings(index):
    for name, text in _spellings(CREDENTIALS[index], index).items():
        raw = load_json(text)
        for data in (text, text.encode("utf-8")):
            try:
                parsed = parse_container(data)
            except MalformedContainerError as exc:
                with pytest.raises(MalformedContainerError) as refused:  # as its decoded object is
                    parse_container(raw)
                assert str(exc) == str(refused.value)
                continue
            where = f"spelling {name!r} as {type(data).__name__}"
            assert parsed.raw == raw, where
            assert parsed.digest_hex == digest_object(raw), where
            assert parsed.rendered == signing_bytes(raw), where
            constraints = raw["payload"].get("constraints")
            expected = None if constraints is None else tuple(map(reference_constraint_from_dict, constraints))
            assert parsed.payload.constraints == expected, where


def _generated() -> dict:
    """A fresh copy of a generated middle link."""
    return _chain(0)[1]


# (how the generated middle link is changed, the refusal's message)
REFUSALS = [
    (lambda c: c.update(kind="credentials"), "not a credential container"),
    (lambda c: c.update(subject_id=5), "field 'subject_id' must be str, got int"),
    (lambda c: c.pop("credential_id"), "field 'credential_id' is missing"),
    (lambda c: c.update(issuer_id=""), "credential_id, issuer_id and subject_id must be non-empty"),
    (lambda c: c.update(subject_public_key="ab"), "field 'subject_public_key' must be dict, got str"),
    (lambda c: c["subject_public_key"].update(public_key=None), "field 'public_key' must be str, got NoneType"),
    (lambda c: c["subject_public_key"].update(suite=True), "unsupported subject key suite True"),
    (lambda c: c.pop("audience"), "field 'audience' is missing"),
    (lambda c: c.update(audience="rcv:ref"), "expected a list of str"),
    (lambda c: c.update(audience=[]), "audience must be a non-empty list of identities"),
    (lambda c: c.update(valid_from="2026-01-01"), "timestamp '2026-01-01' is not RFC 3339 date-time text"),
    (lambda c: c.update(payload=[]), "field 'payload' must be dict, got list"),
    (lambda c: c["payload"].update(permissions=["a", 1]), "expected a list of str"),
    (lambda c: c["payload"].update(constraints={}), "field 'constraints' must be list, got dict"),
    (lambda c: c["payload"]["constraints"].append("C6"), "constraint must be an object with a string 'type'"),
    (lambda c: c["payload"]["constraints"].append({"type": 6}), "constraint must be an object with a string 'type'"),
    (lambda c: c["payload"].update(agent_id=7), "field 'agent_id' must be str, got int"),
    (lambda c: c["payload"].update(agent_id="agent:someone-else"), "subject_id must equal payload.agent_id"),
    (lambda c: c["payload"].update(issuer_id="iss:someone-else"), "issuer_id must equal payload.issuer_id"),
    (lambda c: c.update(parent_digest=1), "field 'parent_digest' must be str, got int"),
]


@pytest.mark.parametrize(("change", "message"), REFUSALS)
def test_a_refusal_keeps_its_message(change, message):
    obj = _generated()
    change(obj)
    text = canonical_dumps(obj)
    for data in (obj, text, text.encode("utf-8"), json.dumps(obj, indent=1)):
        with pytest.raises(MalformedContainerError) as refused:
            parse_container(data)
        assert str(refused.value) == message


def test_a_typed_constraint_that_does_not_fit_its_family_reads_as_unknown():
    obj = _generated()
    obj["payload"]["constraints"] += [
        {"type": "NumericLimitConstraint", "field": "x", "operator": "lte", "value": "1e3"},
        {"type": "StringPatternConstraint", "field": "x", "match": "exact", "pattern": 5},
        {"type": "EnumeratedListConstraint", "field": "x", "allowed": []},
        {"type": "TemporalWindowConstraint", "field": "x", "valid_from": "2026-02-01T00:00:00Z",
         "valid_until": "2026-01-01T00:00:00Z", "timezone": "UTC"},
        {"type": "CumulativeLimitConstraint", "field": "x", "budget": "10", "state_authority_pointer": "p",
         "period": {"kind": "rolling"}},
        {"type": "NumericLimitConstraint", "field": "x", "operator": "lte", "value": "1", "extra": 1},
        {"type": "Mystery", "field": "x"},
    ]
    parsed = parse_container(canonical_dumps(obj))
    assert parsed.payload.constraints == tuple(map(reference_constraint_from_dict, obj["payload"]["constraints"]))
    assert [type(c).__name__ for c in parsed.payload.constraints[-7:]] == ["UnknownConstraint"] * 7


_PURE_PREAMBLE = """
import json.decoder, json.encoder, json.scanner, sys
json.scanner.c_make_scanner = None
json.scanner.make_scanner = json.scanner.py_make_scanner
json.decoder.scanstring = json.decoder.py_scanstring
json.encoder.c_make_encoder = None
json.encoder.encode_basestring = json.encoder.py_encode_basestring
import pytest
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", sys.argv[1], "-k", "not without_the_c_accelerator"]))
"""


@pytest.mark.skipif(PURE, reason="already the run without the C accelerator")
def test_the_module_passes_without_the_c_accelerator():
    env = {**os.environ, "MANDATE_TEST_PURE_JSON": "1"}
    env["PYTHONPATH"] = os.pathsep.join([str(HERE.parent / "src"), str(HERE), env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", _PURE_PREAMBLE, __file__],
        env=env, cwd=HERE.parent, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
