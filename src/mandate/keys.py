"""Key material and the signature suite.

One modern deterministic signature algorithm, fixed by a one-byte suite
identifier carried in every envelope.  Suite 1 is Ed25519 over the canonical
bytes of the signed object with only the signature's proof value excluded;
the envelope's suite and key_id are themselves signed.  Unknown suites must
never verify.

Key distribution is deliberately simple: local key files for private keys and
a trusted-issuer file mapping issuer identity to public key.  The same
primitive stands in for bilateral exchange, registry-published keys, and
federation roots; the trust decision lives in which file the receiver loads.
"""

from __future__ import annotations

import hashlib
import re
import secrets
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Mapping, Optional

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .canonical import canonical_dumps, signing_bytes
from .model import expect, reading

SUITE_ED25519 = 1

# Ed25519 sizes in bytes; each travels as exactly twice as many hex digits.
PUBLIC_KEY_SIZE = PRIVATE_KEY_SIZE = 32
SIGNATURE_SIZE = 64

# Public-key objects kept by hex, least recently used dropped first: a fixed
# bound, because the keys a receiver meets include those of presented subjects.
PUBLIC_KEYS_KEPT = 256

_HEX_RE = re.compile("[0-9a-f]*")


def is_ed25519(suite: object) -> bool:
    # bool is an int subclass and True == 1: only a real integer names a suite.
    return type(suite) is int and suite == SUITE_ED25519


class KeyError_(ValueError):
    """Raised for malformed key files or unsupported suites."""


def read_hex(text: object, size: int) -> bytes:
    """The one reader of key and signature hex: exactly ``size`` bytes as
    ``2 * size`` lowercase hex digits, nothing before, between or after.
    ``bytes.fromhex`` alone would also take upper case and whitespace, so one
    signature or key could be spelled many ways."""
    if not isinstance(text, str) or len(text) != 2 * size or not _HEX_RE.fullmatch(text):
        raise KeyError_(f"expected {size} bytes as {2 * size} lowercase hex digits")
    return bytes.fromhex(text)


@lru_cache(maxsize=PUBLIC_KEYS_KEPT)
def _public_key(public_hex: str) -> Ed25519PublicKey:
    return Ed25519PublicKey.from_public_bytes(read_hex(public_hex, PUBLIC_KEY_SIZE))


@dataclass(frozen=True)
class SigningKey:
    """An Ed25519 private key plus its identity metadata.

    The key object and public half are derived from ``private_bytes`` once,
    on first use, and kept out of ``repr`` and equality.
    """

    key_id: str
    private_bytes: bytes = field(repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.key_id, str):  # it is signed into every envelope
            raise TypeError(f"key_id must be str, got {type(self.key_id).__name__}")

    @cached_property
    def public_hex(self) -> str:
        return self._private.public_key().public_bytes_raw().hex()

    @cached_property
    def _private(self) -> Ed25519PrivateKey:
        return Ed25519PrivateKey.from_private_bytes(self.private_bytes)

    def sign(self, data: bytes) -> bytes:
        return self._private.sign(data)

    def to_dict(self) -> dict:
        return {
            "kind": "private_key",
            "suite": SUITE_ED25519,
            "key_id": self.key_id,
            "public_key": self.public_hex,
            "private_key": self.private_bytes.hex(),
        }

    def dumps(self) -> str:
        return canonical_dumps(self.to_dict())


def generate_key(key_id: str, seed: bytes | str | None = None) -> SigningKey:
    """Fresh key, or a deterministic one when a seed is given (fixtures, vectors)."""
    if seed is None:
        raw = secrets.token_bytes(32)
    else:
        if isinstance(seed, str):
            seed = seed.encode("utf-8")
        raw = hashlib.sha256(seed).digest()
    return SigningKey(key_id=key_id, private_bytes=raw)


def load_signing_key(obj: dict) -> SigningKey:
    if not isinstance(obj, dict) or obj.get("kind") != "private_key":
        raise KeyError_("not a private key file")
    if not is_ed25519(obj.get("suite")):
        raise KeyError_(f"unsupported signature suite {obj.get('suite')!r}")
    with reading(KeyError_):
        raw = read_hex(expect(obj, "private_key", str), PRIVATE_KEY_SIZE)
        key = SigningKey(key_id=expect(obj, "key_id", str), private_bytes=raw)
        declared = expect(obj, "public_key", str, optional=True)
    if declared is not None and declared != key.public_hex:
        raise KeyError_("public_key does not match private_key")
    return key


def parse_key_map(obj: object) -> dict[str, str]:
    """The one reader of an identity -> public key hex object (trusted issuers,
    steward, state authority and audit keys): nothing is coerced."""
    if not isinstance(obj, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in obj.items()
    ):
        raise KeyError_("expected an object mapping identity to public key hex")
    return dict(obj)


def verify_raw(public_hex: str, signature_hex: str, data: bytes, suite: int = SUITE_ED25519) -> bool:
    """True iff the signature verifies. Unknown suites and malformed material
    (hex that ``read_hex`` refuses among it) verify as False."""
    if not is_ed25519(suite):
        return False
    try:
        _public_key(public_hex).verify(read_hex(signature_hex, SIGNATURE_SIZE), data)
        return True
    except (InvalidSignature, ValueError, TypeError):
        return False


def attach_signature(obj: dict, key: SigningKey, *, rendered: Optional[bytes] = None) -> dict:
    """Return ``obj`` with a detached signature over its canonical bytes.

    The envelope's suite and key_id are placed before signing so they are
    covered by the signature; only the proof value stands outside it.

    ``rendered``, when given, is signed as it stands instead of
    ``signing_bytes`` of the returned object, and is not checked against it.
    The audit log, which renders each record itself, passes the record's
    signing bytes with an empty ``obj`` and keeps only the signature value.
    """
    body = dict(obj)
    body["signature"] = {"suite": SUITE_ED25519, "key_id": key.key_id}
    signature = key.sign(signing_bytes(body) if rendered is None else rendered).hex()
    body["signature"]["value"] = signature
    return body


def check_signature(obj: dict, keys: str | Mapping[str, str], *, rendered: Optional[bytes] = None) -> bool:
    """Verify the detached signature envelope on ``obj`` against ``keys``:
    one public key hex, or a map from key id to public key hex in which the
    envelope's ``key_id`` (a str the map holds, or nothing verifies) names it.

    ``rendered``, when given, is ``signing_bytes(obj)`` as the caller already
    rendered it (a credential decoded from text), verified as it stands, as
    ``attach_signature`` signs it; it is not checked against ``obj``.
    """
    envelope = obj.get("signature")
    if not isinstance(envelope, dict):
        return False
    if isinstance(keys, str):
        public_hex = keys
    else:
        key_id = envelope.get("key_id")
        public_hex = keys.get(key_id) if isinstance(key_id, str) else None
        if public_hex is None:
            return False
    suite = envelope.get("suite")
    value = envelope.get("value")
    if not isinstance(value, str):
        return False
    if rendered is None:
        try:
            rendered = signing_bytes(obj)
        except Exception:
            return False
    return verify_raw(public_hex, value, rendered, suite=suite)
