"""Canonical serialization shared by every signed artifact.

All signed or digested objects are rendered the same way: JSON with
lexicographically sorted keys, UTF-8, no insignificant whitespace.  Two
semantically equal objects therefore serialize to identical bytes, which is
what makes detached signatures and hash chains stable.

Floats are rejected outright.  Exact quantities travel as strings and are
parsed with decimal arithmetic; letting a binary float slip into a signed
artifact would silently break byte-stability.

Values are typed once, where they enter.  ``load_json`` refuses floats,
``NaN`` and ``±Infinity`` as it decodes, so what it returns is plain by
construction and is rendered by ``plain_dumps`` without a walk.
``read_canonical`` decodes text that is already canonical once, without the
duplicate-name check, and reads any other text through ``load_json``.
``canonical_dumps`` keeps its walk for everything else: dicts handed to the
public API may hold any Python value.
"""

from __future__ import annotations

import base64
import hashlib
import json
import sys
from functools import cached_property
from json.encoder import encode_basestring
from typing import Any, Callable


class CanonicalizationError(ValueError):
    """Raised when an object cannot be canonically serialized."""


# The settings of every rendering.  Cycles are not looked for: one nests until
# it raises RecursionError, as it does in ``check_canonical``.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False, check_circular=False)


def _kept_encoder() -> Callable[[Any], str]:
    """``_ENCODER.encode`` through one C encoder, built here with its settings
    and kept (``encode`` builds a new one on every call); without the C
    accelerator, ``_ENCODER.encode`` itself."""
    make = json.encoder.c_make_encoder
    if make is None:
        return _ENCODER.encode
    e = _ENCODER
    encode = make(
        None, e.default, json.encoder.encode_basestring, e.indent,
        e.key_separator, e.item_separator, e.sort_keys, e.skipkeys, e.allow_nan,
    )
    return lambda obj: "".join(encode(obj, 0))


_encode = _kept_encoder()


def check_canonical(obj: Any) -> None:
    """Raise CanonicalizationError, naming the path of the first offence in
    insertion order (a key before its value), unless ``obj`` is built only of
    str/int/bool/None scalars, lists, tuples and dicts with str keys,
    subclasses included; nesting past the recursion limit (a cycle) raises
    RecursionError.  Once it passes, ``plain_dumps(obj)`` is ``canonical_dumps(obj)``."""
    limit = sys.getrecursionlimit()
    frames = [(enumerate((obj,)), False)]  # each open container's (step, value) pairs, and if keyed
    steps: list = [None]  # the step last taken in each frame; a path is built only for an offence
    while frames:
        pairs, keyed = frames[-1]
        for step, item in pairs:
            if keyed and not isinstance(step, str):
                raise CanonicalizationError(f"non-string key at {_path(steps[:-1])}")
            kind = type(item)
            if kind is str or kind is int or kind is bool or item is None:
                continue
            steps[-1] = step
            if isinstance(item, dict):
                frames.append((iter(item.items()), True))
            elif isinstance(item, (list, tuple)):
                frames.append((enumerate(item), False))
            elif isinstance(item, float):
                raise CanonicalizationError(f"float at {_path(steps)} is not canonicalizable; use a string decimal")
            elif isinstance(item, (str, int)):
                continue
            else:
                raise CanonicalizationError(f"unsupported type {kind.__name__} at {_path(steps)}")
            if len(frames) > limit:
                raise RecursionError(f"nesting deeper than {limit} levels is not canonicalizable")
            steps.append(None)
            break
        else:
            frames.pop()
            steps.pop()


def _path(steps: list) -> str:
    """``$`` and then ``.key`` or ``[index]`` for each step below the root."""
    return "$" + "".join(f".{step}" if isinstance(step, str) else f"[{step}]" for step in steps[1:])


def canonical_dumps(obj: Any) -> str:
    check_canonical(obj)
    return _encode(obj)


def plain_dumps(obj: Any) -> str:
    """``canonical_dumps`` of a value that is plain by construction: decoded
    by ``load_json``, or built only from type-checked values.  Nothing is
    walked, so a float or an unsupported type is not refused here."""
    return _encode(obj)


def _unique_members(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        names = [name for name, _ in pairs]
        raise ValueError(f"duplicate member name {next(n for n in names if names.count(n) > 1)!r}")
    return obj


def _refuse_number(text: str) -> None:
    raise CanonicalizationError(f"number {text} is not canonicalizable; use a string decimal")


_DECODER = json.JSONDecoder(
    object_pairs_hook=_unique_members, parse_float=_refuse_number, parse_constant=_refuse_number
)
_LENIENT_DECODER = json.JSONDecoder(object_pairs_hook=_unique_members)
# No duplicate-name hook: for canonical text only, whose member names are unique.
_PLAIN_DECODER = json.JSONDecoder(parse_float=_refuse_number, parse_constant=_refuse_number)


def load_json(data: bytes | str) -> Any:
    """The one reader of JSON text: bytes as strict UTF-8 (no UTF-16/32 detection),
    member names unique in each object, and no floats, ``NaN`` or ``±Infinity``.
    Malformed text raises ValueError; a refused number raises its subclass
    CanonicalizationError, naming the path of the first one.  What is returned
    is plain by construction."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    try:
        return _DECODER.decode(text)
    except CanonicalizationError:
        # Decoded again, numbers admitted, only to name the first offence by
        # its path; a duplicate member name still raises first, as it would
        # have without the refusal.
        check_canonical(_LENIENT_DECODER.decode(text))
        raise


def read_canonical(data: bytes | str) -> tuple[Any, str]:
    """``load_json(data)`` and its ``plain_dumps`` rendering.  Text equal to
    that rendering is canonical, so its member names are unique: it is decoded
    once, by the scanner alone, without the duplicate-name check.  Any other
    text is read by ``load_json`` as well, which raises as it always does.
    Text that cannot be a canonical object at a glance (not opening with a
    member name, not closing with ``}``, or holding a line break, which
    canonical text escapes) goes straight to ``load_json``."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    if text[:2] != '{"' or text[-1:] != "}" or "\n" in text:
        obj = load_json(text)
        return obj, _encode(obj)
    try:
        obj, _ = _PLAIN_DECODER.scan_once(text, 0)
    except (ValueError, StopIteration):
        load_json(text)  # refused there too, in the strict reader's words
        raise
    whole = _encode(obj)
    if whole != text:
        load_json(text)  # not canonical: a repeated member name or trailing text raises here
    return obj, whole


def canonical_bytes(obj: Any) -> bytes:
    return canonical_dumps(obj).encode("utf-8")


def sha256_hex(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def digest_object(obj: Any) -> str:
    """Digest of the canonical serialization of ``obj``."""
    return sha256_hex(canonical_bytes(obj))


class Signed:
    """A signed artifact is its ``raw`` object: it is written, rendered and
    digested as ``raw``, which must never be mutated.  A plain base with no
    fields, so the dataclasses built on it keep their own fields, equality
    and hashing."""

    def to_dict(self) -> dict:
        return dict(self.raw)

    def dumps(self) -> str:
        return canonical_dumps(self.raw)

    @cached_property
    def _digest_hex(self) -> str:
        return digest_object(self.raw)

    def digest(self) -> str:
        """Digest of ``raw``, computed once and kept."""
        return self._digest_hex


def signed_view(obj: dict) -> dict:
    """The portion of a signed object covered by its signature.

    Only the proof value itself is excluded.  The envelope's suite and key
    identifier stay under the signature, so tampering with either is as
    detectable as tampering with the body.
    """
    view = {k: v for k, v in obj.items() if k != "signature"}
    envelope = obj.get("signature")
    if isinstance(envelope, dict):
        view["signature"] = {k: v for k, v in envelope.items() if k != "value"}
    return view


def signing_bytes(obj: dict) -> bytes:
    return canonical_bytes(signed_view(obj))


def signing_text(obj: dict, whole: str) -> str:
    """``signing_bytes(obj)`` as text, cut from ``whole``, which is
    ``plain_dumps(obj)``.  What ``signed_view`` leaves out (the top-level
    envelope's ``value`` member, or a ``signature`` member that is not an
    object) is rendered and cut where its text occurs in ``whole``.  It
    occurs there at least once, so where it occurs only once, that is its
    place.  A payload or an unknown member can hold a copy of it; then its
    place is computed from the renderings of the members that sort after it."""
    if "signature" not in obj:
        return whole
    envelope = obj["signature"]
    if not isinstance(envelope, dict):
        member = '"signature":' + _encode(envelope)
    elif "value" in envelope:
        value = envelope["value"]
        member = '"value":' + (encode_basestring(value) if type(value) is str else _encode(value))
    else:
        return whole
    end = whole.find(member) + len(member)
    if whole.find(member, end - len(member) + 1) >= 0:
        end = _member_end(obj, "signature", len(whole))
        if isinstance(envelope, dict):
            end = _member_end(envelope, "value", end)
    return _cut(whole, end, len(member))


def _member_end(obj: dict, name: str, end: int) -> int:
    """Where the member ``name`` ends in the rendering of ``obj`` that ends at
    ``end``: before the members that sort after it, and the comma before them."""
    after = {k: v for k, v in obj.items() if k > name}
    return end - len(_encode(after)) if after else end - 1


def _cut(text: str, end: int, size: int) -> str:
    """``text`` without the ``size`` characters of the member that ends at
    ``end``, and without the comma that joins it to a neighbour."""
    start = end - size
    if text[start - 1] == ",":
        start -= 1
    elif text[end] == ",":
        end += 1
    return text[:start] + text[end:]


def to_transport(data: bytes) -> str:
    """base64url wrapping for transports that cannot carry raw canonical bytes."""
    return base64.urlsafe_b64encode(data).decode("ascii")


def from_transport(text: str) -> bytes:
    """Padded base64url to bytes, accepted only in the form ``to_transport`` writes."""
    try:
        data = base64.urlsafe_b64decode(text.encode("ascii"))
    except Exception as exc:
        raise CanonicalizationError(f"invalid base64url transport wrapping: {exc}") from exc
    if to_transport(data) != text:
        raise CanonicalizationError("invalid base64url transport wrapping: not in canonical form")
    return data
