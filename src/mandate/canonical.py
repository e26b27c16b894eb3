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
``canonical_dumps`` keeps its walk for everything else: dicts handed to the
public API may hold any Python value.
"""

from __future__ import annotations

import base64
import hashlib
import json
import sys
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


def canonical_bytes(obj: Any) -> bytes:
    return canonical_dumps(obj).encode("utf-8")


def sha256_hex(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def digest_object(obj: Any) -> str:
    """Digest of the canonical serialization of ``obj``."""
    return sha256_hex(canonical_bytes(obj))


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


def render_signed(obj: dict) -> tuple[bytes, bytes]:
    """``(canonical_bytes(obj), signing_bytes(obj))`` for an ``obj`` that is
    plain by construction or has passed ``check_canonical``, from one
    walk-free pass: the members that sort before and after the signature
    envelope are rendered once each and shared by both."""
    head = _encode({k: v for k, v in obj.items() if k < "signature"})[1:-1]
    tail = _encode({k: v for k, v in obj.items() if k > "signature"})[1:-1]

    def joined(signature: str) -> bytes:
        return ("{" + ",".join(m for m in (head, signature, tail) if m) + "}").encode("utf-8")

    if "signature" not in obj:
        whole = joined("")
        return whole, whole
    envelope = obj["signature"]
    # The envelope as signed_view keeps it: without its value, or dropped
    # altogether when it is not an object.
    view = signed_view({"signature": envelope}).get("signature")
    return (
        joined('"signature":' + plain_dumps(envelope)),
        joined("" if view is None else '"signature":' + plain_dumps(view)),
    )


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
