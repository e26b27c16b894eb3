"""Steward-signed trust registries: issuer standing and permitted state authorities.

A registry answers two questions a receiver cannot answer from a credential
alone: is this issuer in good standing for this class of credential under
this profile, and is this state authority one the ecosystem recognizes.
Receivers may accept several registries; a lookup succeeds when any accepted,
in-window registry grants it.  Only the standing value "active" grants —
suspension and revocation both read as not vetted.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Mapping, Optional, Sequence

from .canonical import Signed, load_json
from .keys import SigningKey, attach_signature, check_signature
from .model import (
    expect,
    expect_list,
    parse_timestamp,
    reading,
    render_timestamp,
)

STANDING_ACTIVE = "active"
STANDING_VALUES = ("active", "suspended", "revoked")


class RegistryError(ValueError):
    def __init__(self, code: str, detail: str) -> None:
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail


@dataclass(frozen=True)
class IssuerEntry:
    issuer_id: str
    standing: str
    credential_classes: frozenset[str]
    profiles: frozenset[str]


@dataclass(frozen=True)
class StateAuthorityEntry:
    pointer: str
    profiles: frozenset[str]


@dataclass(frozen=True)
class TrustRegistry(Signed):
    registry_id: str
    version: int
    valid_from: datetime
    valid_until: datetime
    issuers: Mapping[str, IssuerEntry]
    state_authorities: tuple[StateAuthorityEntry, ...]
    vocabulary_refs: tuple[dict, ...]
    raw: dict

    def __post_init__(self) -> None:
        # Both reach every audit record, rendered there without a walk.
        if not isinstance(self.registry_id, str) or type(self.version) is not int:
            raise TypeError("a registry's registry_id must be str and its version int")

    def in_window(self, now: datetime) -> bool:
        return self.valid_from <= now <= self.valid_until

    def grants(self, issuer_id: str, credential_class: str, profile_id: str) -> bool:
        entry = self.issuers.get(issuer_id)
        if entry is None or entry.standing != STANDING_ACTIVE:
            return False
        if credential_class not in entry.credential_classes and "*" not in entry.credential_classes:
            return False
        return profile_id in entry.profiles or "*" in entry.profiles

    def permits_state_authority(self, pointer: str, profile_id: str) -> bool:
        for entry in self.state_authorities:
            if entry.pointer == pointer and (profile_id in entry.profiles or "*" in entry.profiles):
                return True
        return False


def build_registry(
    registry_id: str,
    version: int,
    valid_from: datetime,
    valid_until: datetime,
    issuers: Sequence[IssuerEntry],
    steward_key: SigningKey,
    state_authorities: Sequence[StateAuthorityEntry] = (),
    vocabulary_refs: Sequence[dict] = (),
) -> TrustRegistry:
    """Sign a registry; a window that ends before it begins is refused
    unsigned, as ``malformed``: no instant could verify the registry."""
    if valid_from > valid_until:
        raise RegistryError("malformed", "valid_from is after valid_until; no instant is in the window")
    body = {
        "kind": "trust_registry",
        "registry_id": registry_id,
        "version": version,
        "valid_from": render_timestamp(valid_from),
        "valid_until": render_timestamp(valid_until),
        "issuers": {
            e.issuer_id: {
                "standing": e.standing,
                "credential_classes": sorted(e.credential_classes),
                "profiles": sorted(e.profiles),
            }
            for e in issuers
        },
        "state_authorities": [
            {"pointer": e.pointer, "profiles": sorted(e.profiles)} for e in state_authorities
        ],
        "vocabulary_refs": [dict(ref) for ref in vocabulary_refs],
    }
    signed = attach_signature(body, steward_key)
    return _parse_registry(signed)


def parse_issuer_entries(issuers: object) -> dict[str, IssuerEntry]:
    """Read a registry's ``issuers`` object, keyed by issuer id; the CLI's
    ``--issuers`` file has the same shape."""
    entries = {}
    with reading(RegistryError, "malformed"):
        for issuer_id, entry in issuers.items():
            standing = expect(entry, "standing", str)
            if standing not in STANDING_VALUES:
                raise RegistryError("malformed", f"unknown standing {standing!r}")
            entries[issuer_id] = IssuerEntry(
                issuer_id=issuer_id,
                standing=standing,
                credential_classes=frozenset(expect_list(entry["credential_classes"], str)),
                profiles=frozenset(expect_list(entry["profiles"], str)),
            )
    return entries


def parse_state_authority_entries(rows: object) -> tuple[StateAuthorityEntry, ...]:
    """Read a registry's ``state_authorities`` list of ``{pointer, profiles}``
    rows; the CLI's ``--state-authorities`` file has the same shape."""
    with reading(RegistryError, "malformed"):
        return tuple(
            StateAuthorityEntry(expect(row, "pointer", str), frozenset(expect_list(row["profiles"], str)))
            for row in expect_list(rows, dict)
        )


def _parse_registry(obj: dict) -> TrustRegistry:
    if not isinstance(obj, dict) or obj.get("kind") != "trust_registry":
        raise RegistryError("malformed", "not a trust registry object")
    with reading(RegistryError, "malformed"):
        return TrustRegistry(
            registry_id=expect(obj, "registry_id", str),
            version=expect(obj, "version", int),
            valid_from=parse_timestamp(obj["valid_from"]),
            valid_until=parse_timestamp(obj["valid_until"]),
            issuers=parse_issuer_entries(obj["issuers"]),
            state_authorities=parse_state_authority_entries(obj.get("state_authorities", [])),
            vocabulary_refs=tuple(expect_list(obj.get("vocabulary_refs", []), dict)),
            raw=obj,
        )


def load_registry(
    data: bytes | str | dict,
    steward_keys: Mapping[str, str],
    now: Optional[datetime] = None,
) -> TrustRegistry:
    """Parse, verify steward signature, and (when now is given) check the window.

    Errors carry a code: malformed, bad_signature, or out_of_window.  An
    out-of-window registry is unusable for evaluation, full stop.
    """
    with reading(RegistryError, "malformed"):
        obj = load_json(data) if isinstance(data, (bytes, str)) else data
    registry = _parse_registry(obj)
    if not check_signature(registry.raw, steward_keys):
        raise RegistryError("bad_signature", "registry signature does not verify against any steward key")
    if now is not None and not registry.in_window(now):
        raise RegistryError("out_of_window", "registry outside its validity window")
    return registry
