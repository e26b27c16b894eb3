"""One credential, many spellings: the parse of text agrees with the parse of
the object it decodes to, and canonical text is digested as it stands.

Every shipped credential and chain link, and both scenario credentials, is
re-spelled at the text level.  A spelling that ``load_json`` refuses must be
refused by ``parse_container`` in the same words; any other spelling must
parse exactly as its decoded object does.  The whole test runs again with the
pure-Python encoder, the path of an interpreter without json's C accelerator.
"""

import hashlib
import json
from pathlib import Path

import pytest

from mandate import canonical
from mandate.canonical import (
    CanonicalizationError,
    canonical_bytes,
    from_transport,
    load_json,
    signing_bytes,
)
from mandate.container import MalformedContainerError, parse_container
from mandate.scenarios import SCENARIO_NAMES, load_scenario

VECTORS = Path(__file__).resolve().parent.parent / "vectors"


def _shipped(node):
    """Every credential object in a JSON tree, and the bytes of every
    transport wrapping (which need not decode)."""
    if isinstance(node, list):
        for item in node:
            yield from _shipped(item)
    elif isinstance(node, dict):
        if node.get("kind") == "credential":
            yield node
        if node.get("encoding") == "base64url" and isinstance(node.get("value"), str):
            try:
                yield from_transport(node["value"])
            except ValueError:
                pass  # a refused wrapping is the transport's denial, not the parse's
        for value in node.values():
            yield from _shipped(value)


def _presented():
    found = [item for path in sorted(VECTORS.rglob("*.json")) for item in _shipped(load_json(path.read_bytes()))]
    found += [load_scenario(name).credential.to_dict() for name in SCENARIO_NAMES]
    return found


PRESENTED = _presented()
# Each distinct credential once: many vectors share one.
CREDENTIALS = list({canonical.canonical_dumps(item): item for item in PRESENTED if isinstance(item, dict)}.values())
WRAPPED = [item for item in PRESENTED if isinstance(item, bytes)]


def _reordered(obj):
    """``obj`` with every object's members in reverse sorted order."""
    if isinstance(obj, dict):
        return {key: _reordered(obj[key]) for key in sorted(obj, reverse=True)}
    if isinstance(obj, list):
        return [_reordered(item) for item in obj]
    return obj


def _spellings(obj: dict) -> dict:
    """Text spellings of the credential ``obj``, each by name."""
    text = canonical.canonical_dumps(obj)
    first = text[1 : text.index('"', 2) + 1]  # the first member name, quoted
    return {
        "canonical": text,
        "shuffled": json.dumps(_reordered(obj), ensure_ascii=False, separators=(",", ":")),
        "whitespace": json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=1),
        "escaped": text.replace('"audience":', '"\\u0061udience":', 1),
        "duplicate": text[:-1] + "," + first + ':"again"}',
        "duplicate-escaped": text[:-1] + ',"\\u0061udience":["again"]}',
        "duplicate-envelope": text[:-1] + ',"signature":{"key_id":"k","suite":1,"value":"00"}}',
        "float": text.replace('"suite":1', '"suite":1.0', 1),
        "minus-zero": text[:-1] + ',"zz_extra":-0}',
        "bom": "\ufeff" + text,
        "padded": text + " ",
    }


def _outcome(data):
    """What ``parse_container`` makes of ``data``: the exception it raises,
    or the container with the fields its equality leaves out."""
    try:
        parsed = parse_container(data)
    except Exception as exc:
        return type(exc), str(exc)
    return parsed, parsed.rendered, parsed.completeness


@pytest.fixture(params=["c-encoder", "pure-python"])
def encoder(request, monkeypatch):
    if request.param == "pure-python":
        monkeypatch.setattr(canonical, "_encode", canonical._ENCODER.encode)
    return request.param


def _agrees_with_its_object(data) -> None:
    """``parse_container(data)`` refuses ``data`` as ``load_json`` does, or
    parses it as it parses the object ``data`` decodes to."""
    try:
        obj = load_json(data)
    except CanonicalizationError as exc:  # a float keeps its own type and words
        expected = (CanonicalizationError, str(exc))
    except ValueError as exc:
        expected = (MalformedContainerError, f"container bytes are not canonical text: {exc}")
    else:
        expected = _outcome(obj)
    assert _outcome(data) == expected


def test_every_shipped_credential_is_covered():
    assert len(CREDENTIALS) >= 20 and len(WRAPPED) >= 10


@pytest.mark.parametrize("index", range(len(CREDENTIALS)))
def test_each_spelling_parses_as_its_object_or_is_refused_as_load_json_refuses(encoder, index):
    for name, text in _spellings(CREDENTIALS[index]).items():
        for data in (text, text.encode("utf-8")):
            try:
                _agrees_with_its_object(data)
            except AssertionError as exc:
                raise AssertionError(f"spelling {name!r} as {type(data).__name__}") from exc


@pytest.mark.parametrize("index", range(len(CREDENTIALS)))
def test_canonical_bytes_are_digested_as_they_stand(encoder, index):
    obj = CREDENTIALS[index]
    data = canonical_bytes(obj)
    try:
        parsed = parse_container(data)
    except ValueError:
        return  # refused as its object is: the spelling test compares the two
    assert parsed.digest_hex == hashlib.sha256(data).hexdigest()
    assert parsed.rendered == signing_bytes(obj)
    # Respellings that decode to the same object keep its digest and signing bytes.
    for name in ("shuffled", "whitespace", "escaped"):
        again = parse_container(_spellings(obj)[name].encode("utf-8"))
        assert (again.digest_hex, again.rendered) == (parsed.digest_hex, parsed.rendered), name


def test_every_wrapped_credential_parses_as_its_object(encoder):
    for data in WRAPPED:
        _agrees_with_its_object(data)
