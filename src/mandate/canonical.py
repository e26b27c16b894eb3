"""Canonical serialization shared by every signed artifact.

All signed or digested objects are rendered the same way: JSON with
lexicographically sorted keys, UTF-8, no insignificant whitespace.  Two
semantically equal objects therefore serialize to identical bytes, which is
what makes detached signatures and hash chains stable.

Floats are rejected outright.  Exact quantities travel as strings and are
parsed with decimal arithmetic; letting a binary float slip into a signed
artifact would silently break byte-stability.
"""

from __future__ import annotations

import base64
import hashlib
import json
from typing import Any


class CanonicalizationError(ValueError):
    """Raised when an object cannot be canonically serialized."""


def _reject_floats(obj: Any, path: str = "$") -> None:
    if isinstance(obj, float):
        raise CanonicalizationError(f"float at {path} is not canonicalizable; use a string decimal")
    if isinstance(obj, dict):
        for key, value in obj.items():
            if not isinstance(key, str):
                raise CanonicalizationError(f"non-string key at {path}")
            _reject_floats(value, f"{path}.{key}")
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            _reject_floats(value, f"{path}[{i}]")
    elif obj is not None and not isinstance(obj, (str, int, bool)):
        raise CanonicalizationError(f"unsupported type {type(obj).__name__} at {path}")


_MAX_DEPTH = 1000  # deeper nesting is left to _reject_floats, which then raises RecursionError


def _plain(obj: Any) -> bool:
    """True when ``obj`` is built only of exact ``str``/``int``/``bool``/None
    scalars, lists, tuples and dicts with exact ``str`` keys.

    No path is formatted: only when this returns False does ``_reject_floats``
    walk again, to accept the rest of what it accepts (subclasses) or to raise
    with the path of the first offence.
    """
    stack = [iter((obj,))]
    while stack:
        for item in stack[-1]:
            kind = type(item)
            if kind is str or kind is int or kind is bool or item is None:
                continue
            if kind is dict:
                for key in item:
                    if type(key) is not str:
                        return False
                stack.append(iter(item.values()))
            elif kind is list or kind is tuple:
                stack.append(iter(item))
            else:
                return False
            if len(stack) > _MAX_DEPTH:
                return False
            break
        else:
            stack.pop()
    return True


def canonical_dumps(obj: Any) -> str:
    if not _plain(obj):
        _reject_floats(obj)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def _unique_members(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        names = [name for name, _ in pairs]
        raise ValueError(f"duplicate member name {next(n for n in names if names.count(n) > 1)!r}")
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_members)


def load_json(data: bytes | str) -> Any:
    """The one reader of JSON text: bytes as strict UTF-8 (no UTF-16/32 detection),
    member names unique in each object.  Malformed text raises ValueError."""
    return _DECODER.decode(data.decode("utf-8") if isinstance(data, bytes) else data)


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
