"""Signed credential containers and their verification gate.

A container binds an authorization payload to identities, an audience, a
validity window, and a subject key, under one detached issuer signature over
canonical bytes.  Verification is a fixed sequence of checks, each with its
own typed denial; the order is part of the contract so that the same broken
credential denies the same way everywhere.

Presenters prove possession of the subject key by signing a receiver-chosen
nonce; a bare container is never enough.  Revocation is a signed, versioned
list distributed out of band; an unavailable or stale list counts against the
credential, not in its favor.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Mapping, Optional, Sequence

# canonical_dumps is not called here, but bench/tracing.py wraps it by this
# module's name, so it stays bound.
from .canonical import (  # noqa: F401
    CanonicalizationError,
    Signed,
    canonical_dumps,
    check_canonical,
    digest_object,
    plain_dumps,
    read_canonical,
    sha256_hex,
    signed_view,
    signing_text,
)
from .constraints import UnknownConstraint, check_attenuation, constraint_from_dict
from .keys import SigningKey, attach_signature, check_signature, is_ed25519
from .model import (
    AuthorizationPayload,
    DenialReason,
    DenyCode,
    expect,
    expect_list,
    parse_timestamp,
    reading,
    render_timestamp,
    validate_payload,
)


DEFAULT_CREDENTIAL_CLASS = "agent-authorization"


class ContainerError(ValueError):
    """Base for container handling failures outside the decision domain."""


class MalformedContainerError(ContainerError):
    """Bytes or structure that cannot be a credential container."""


# How a credential's or a proof's field that does not read is raised; the
# reader keeps no state, so one serves every read.
_FIELDS = reading(MalformedContainerError)


class InvalidPayloadError(ContainerError):
    """Issuing was refused because the payload is incomplete or self-contradictory."""


class AttenuationViolation(ContainerError):
    """Issuing was refused because a delegation would widen its parent."""


@dataclass(frozen=True)
class CredentialContainer(Signed):
    """A parsed credential.  Immutable, ``raw`` included: the digest, the
    signing bytes and the issuer-signature verdicts are derived from ``raw``
    and kept, so ``raw`` must never be mutated, nested values included.

    Complete when constructed, however it is built: the fields an audit
    record carries (the ids, ``digest_hex``, each constraint's field or type
    tag) are typed, and ``completeness`` is ``validate_payload(payload)``,
    computed once.  ``parse_container`` builds it from values it has typed;
    built any other way, a mistyped field raises TypeError.
    """

    credential_id: str
    issuer_id: str
    subject_id: str
    subject_public_key: str
    audience: frozenset[str]
    valid_from: datetime
    valid_until: datetime
    payload: AuthorizationPayload
    parent_digest: Optional[str]
    raw: dict
    digest_hex: str
    rendered: bytes = field(repr=False, compare=False)  # signing_bytes(raw)
    # None when the payload is complete, else its credential_incomplete denial.
    completeness: Optional[DenialReason] = field(init=False, repr=False, compare=False)
    # issuer public hex -> whether the issuer signature verifies against it;
    # filled by signature_verifies.
    _signature_verdicts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Audit records are rendered without a walk, so what reaches one is
        # typed here, before any check can run.
        for name in ("credential_id", "issuer_id", "subject_id", "digest_hex"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise TypeError(f"{name} must be str, got {type(value).__name__}")
        for constraint in self.payload.constraints or ():
            unknown = isinstance(constraint, UnknownConstraint)
            if not isinstance(constraint.type_tag if unknown else constraint.field, str):
                raise TypeError("a constraint's field and type tag must be str")
        object.__setattr__(self, "completeness", validate_payload(self.payload))

    def digest(self) -> str:
        return self.digest_hex

    def signature_verifies(self, public_hex: str) -> bool:
        """Whether the issuer signature verifies against ``public_hex``.

        Checked once per key and kept on the container, so a container seen
        again is not re-verified, while any other key (a re-keyed issuer, a
        different parent link) gets a check of its own.
        """
        verdict = self._signature_verdicts.get(public_hex)
        if verdict is None:
            verdict = self._signature_verdicts[public_hex] = check_signature(
                self.raw, public_hex, rendered=self.rendered
            )
        return verdict


def parse_payload(obj: object) -> AuthorizationPayload:
    """The one reader of a credential's ``payload`` object, also used for the
    CLI's payload files.  Fields may be absent (completeness is a decision),
    but a field that is present must have its exact type."""
    if not isinstance(obj, dict):
        raise MalformedContainerError("payload must be an object")
    with _FIELDS:
        return _read_payload(obj)


def _read_payload(obj: dict) -> AuthorizationPayload:
    """``parse_payload`` of an object, inside its caller's ``reading`` block."""
    permissions = expect(obj, "permissions", list, optional=True)
    constraints = expect(obj, "constraints", list, optional=True)
    # Typed here, so assigned at once, as a container is.
    payload = object.__new__(AuthorizationPayload)
    object.__setattr__(payload, "__dict__", {
        "agent_id": expect(obj, "agent_id", str, optional=True),
        "issuer_id": expect(obj, "issuer_id", str, optional=True),
        "permissions": None if permissions is None else frozenset(expect_list(permissions, str)),
        "constraints": None if constraints is None else tuple(map(constraint_from_dict, constraints)),
    })
    return payload


def parse_container(data: bytes | str | dict) -> CredentialContainer:
    """Structural parse only; trust decisions belong to verify_container.

    The payload may be incomplete (that is a decision, not a parse error), but
    identity bindings must be internally consistent and the audience must be
    non-empty: a container violating its own format invariants is rejected
    outright.  Unknown top-level fields are preserved: they stay under the
    signature and in digests.  Nesting too deep to decode or digest is
    malformed too, never an escaping ``RecursionError``.
    """
    try:
        return _parse_container(data)
    except RecursionError as exc:
        raise MalformedContainerError("container nesting is too deep") from exc


def _parse_container(data: bytes | str | dict) -> CredentialContainer:
    whole = None
    if isinstance(data, (bytes, str)):
        try:
            obj, whole = read_canonical(data)
        except CanonicalizationError:  # a float, named by its path as a dict's digest names it
            raise
        except ValueError as exc:
            raise MalformedContainerError(f"container bytes are not canonical text: {exc}") from exc
    else:
        obj = data
    if not isinstance(obj, dict) or obj.get("kind") != "credential":
        raise MalformedContainerError("not a credential container")
    with _FIELDS:
        credential_id = expect(obj, "credential_id", str)
        issuer_id = expect(obj, "issuer_id", str)
        subject_id = expect(obj, "subject_id", str)
        if not (credential_id and issuer_id and subject_id):
            raise MalformedContainerError("credential_id, issuer_id and subject_id must be non-empty")
        subject_key = expect(obj, "subject_public_key", dict)
        public_key = expect(subject_key, "public_key", str)
        if not is_ed25519(subject_key.get("suite")):
            raise MalformedContainerError(f"unsupported subject key suite {subject_key.get('suite')!r}")
        audience = expect_list(obj["audience"], str)
        if not audience or not all(audience):
            raise MalformedContainerError("audience must be a non-empty list of identities")
        valid_from = parse_timestamp(obj["valid_from"])
        valid_until = parse_timestamp(obj["valid_until"])
        payload = _read_payload(expect(obj, "payload", dict))
        parent_digest = expect(obj, "parent_digest", str, optional=True)
    if payload.agent_id is not None and payload.agent_id != subject_id:
        raise MalformedContainerError("subject_id must equal payload.agent_id")
    if payload.issuer_id is not None and payload.issuer_id != issuer_id:
        raise MalformedContainerError("issuer_id must equal payload.issuer_id")
    # Decoded text was rendered as it was read; a dict gets canonical_dumps's
    # walk and its rendering here.  Either way the digest and the signing
    # bytes come from that one rendering.
    if whole is None:
        check_canonical(obj)
        whole = plain_dumps(obj)
    # Typed above, so assigned at once, without ``__post_init__``'s second look.
    container = object.__new__(CredentialContainer)
    object.__setattr__(container, "__dict__", {
        "credential_id": credential_id,
        "issuer_id": issuer_id,
        "subject_id": subject_id,
        "subject_public_key": public_key,
        "audience": frozenset(audience),
        "valid_from": valid_from,
        "valid_until": valid_until,
        "payload": payload,
        "parent_digest": parent_digest,
        "raw": obj,
        "digest_hex": sha256_hex(whole),
        "rendered": signing_text(obj, whole).encode("utf-8"),
        "completeness": validate_payload(payload),
        "_signature_verdicts": {},
    })
    return container


def issue_credential(
    payload: AuthorizationPayload,
    subject_public_key: str,
    audience: Sequence[str],
    valid_from: datetime,
    valid_until: datetime,
    issuer_key: SigningKey,
    parent: Optional[CredentialContainer] = None,
    credential_id: Optional[str] = None,
) -> CredentialContainer:
    """Build and sign a container; refuses anything a verifier would have to deny structurally.

    A delegation (parent given) is minted, then judged by the rule the chain
    check applies: ``continuity_defect`` and ``widening`` against the parent,
    then ``check_attenuation`` on the constraints.  Widening is refused at
    issue time: a delegator never receives an artifact that every verifier
    rejects.
    """
    problem = validate_payload(payload)
    if problem is not None:
        raise InvalidPayloadError(problem.detail or problem.code.value)
    audience_list = [a for a in audience]
    if not audience_list or not all(isinstance(a, str) and a for a in audience_list):
        raise InvalidPayloadError("audience must be a non-empty list of identities")
    if valid_from > valid_until:
        raise InvalidPayloadError("validity window is empty")
    body: dict = {
        "kind": "credential",
        "issuer_id": payload.issuer_id,
        "subject_id": payload.agent_id,
        "subject_public_key": {"suite": 1, "public_key": subject_public_key},
        "audience": sorted(set(audience_list)),
        "valid_from": render_timestamp(valid_from),
        "valid_until": render_timestamp(valid_until),
        "payload": payload.to_dict(),
    }
    if parent is not None:
        body["parent_digest"] = parent.digest()
    if credential_id is None:
        credential_id = "cred-" + digest_object(body)[:16]
    body["credential_id"] = credential_id
    child = parse_container(attach_signature(body, issuer_key))
    if parent is not None:
        defect = continuity_defect(parent, child) or widening(parent, child)
        if defect is not None:
            raise AttenuationViolation(f"delegation {defect[1]}")
        ok, detail = check_attenuation(child.payload.constraints or (), parent.payload.constraints or ())
        if not ok:
            raise AttenuationViolation(detail)
    return child


# --- delegation: one rule for minting a delegation and for checking a chain ----
# Each check returns None, or the defect's trace note and the phrase that
# follows the child in its denial ("link 2 <phrase>", "delegation <phrase>").

def continuity_defect(parent: CredentialContainer, child: CredentialContainer) -> Optional[tuple[str, str]]:
    """``child`` must be issued by the parent's subject and name the parent by digest."""
    if child.issuer_id != parent.subject_id:
        return (
            f"issuer {child.issuer_id!r} is not the parent subject",
            f"issuer {child.issuer_id!r} is not the parent subject {parent.subject_id!r}",
        )
    if child.parent_digest != parent.digest_hex:
        return "parent digest mismatch", "does not reference its parent by digest"
    return None


def widening(parent: CredentialContainer, child: CredentialContainer) -> Optional[tuple[str, str]]:
    """``child``'s validity window must nest in the parent's, and its
    permissions must be among the parent's; constraints are judged by
    ``check_attenuation``."""
    if child.valid_from < parent.valid_from or child.valid_until > parent.valid_until:
        return "validity window widened", "validity window extends beyond its parent"
    extra = sorted((child.payload.permissions or frozenset()) - (parent.payload.permissions or frozenset()))
    if extra:
        return f"adds permissions {extra}", f"grants permissions its parent never held: {extra}"
    return None


# --- proof of possession ------------------------------------------------------

@dataclass(frozen=True)
class PossessionProof(Signed):
    """The presenter's signature over a receiver-chosen nonce, bound to one credential."""

    credential_digest: str
    audience: str
    nonce: str
    timestamp: datetime
    raw: dict

    @staticmethod
    def from_dict(obj: dict) -> "PossessionProof":
        return PossessionProof(*read_proof(obj), raw=obj)


def read_proof(obj: object) -> tuple[str, str, str, datetime]:
    """The one reader of a possession proof object: its credential digest,
    audience, nonce and timestamp.  The engine reads a presented proof's
    signed ``raw`` through it, so the object's own fields are never trusted."""
    if not isinstance(obj, dict) or obj.get("kind") != "possession_proof":
        raise MalformedContainerError("not a possession proof")
    with _FIELDS:
        return (
            expect(obj, "credential_digest", str),
            expect(obj, "audience", str),
            expect(obj, "nonce", str),
            parse_timestamp(obj["timestamp"]),
        )


# The members ``read_proof`` types.  The rest of a proof (its signature
# envelope and any unknown member) is walked before its signing bytes are
# rendered, unless it is an envelope of str keys and scalar values alone.
_PROOF_READ = frozenset({"kind", "credential_digest", "audience", "nonce", "timestamp"})
_SCALARS = (str, int, bool, type(None))


def _proof_signing_bytes(raw: dict) -> Optional[bytes]:
    """``signing_bytes(raw)`` of a proof that ``read_proof`` has read,
    rendered once; None when what ``read_proof`` has not typed is not plain
    JSON, or the proof's text has no UTF-8 form."""
    view = signed_view(raw)
    envelope = view.get("signature")
    try:
        # ``read_proof`` found its members, so one more can only be the envelope.
        if len(view) > len(_PROOF_READ) + 1 or type(envelope) is not dict or not all(
            type(k) is str and type(v) in _SCALARS for k, v in envelope.items()
        ):
            check_canonical({k: v for k, v in view.items() if k not in _PROOF_READ})
        return plain_dumps(view).encode("utf-8")
    except (ValueError, TypeError, RecursionError):
        return None


def make_possession_proof(
    credential: CredentialContainer | str,
    audience: str,
    nonce: str,
    now: datetime,
    subject_key: SigningKey,
) -> PossessionProof:
    digest = credential.digest() if isinstance(credential, CredentialContainer) else credential
    body = {
        "kind": "possession_proof",
        "credential_digest": digest,
        "audience": audience,
        "nonce": nonce,
        "timestamp": render_timestamp(now),
    }
    return PossessionProof.from_dict(attach_signature(body, subject_key))


class NonceCache:
    """Single-use nonce memory per receiver; check-and-insert is atomic."""

    def __init__(self) -> None:
        self._seen: set[str] = set()
        self._lock = threading.Lock()

    def accept(self, nonce: str) -> bool:
        with self._lock:
            if nonce in self._seen:
                return False
            self._seen.add(nonce)
            return True


# --- revocation ---------------------------------------------------------------

class RevocationError(ValueError):
    pass


@dataclass(frozen=True)
class RevocationList(Signed):
    issuer_id: str
    version: int
    revoked: frozenset[str]
    updated_at: datetime
    raw: dict

    @staticmethod
    def from_dict(obj: dict) -> "RevocationList":
        if not isinstance(obj, dict) or obj.get("kind") != "revocation_list":
            raise RevocationError("not a revocation list")
        with reading(RevocationError):
            return RevocationList(
                issuer_id=expect(obj, "issuer_id", str),
                version=expect(obj, "version", int),
                revoked=frozenset(expect_list(obj["revoked"], str)),
                updated_at=parse_timestamp(obj["updated_at"]),
                raw=obj,
            )


def new_revocation_list(
    issuer_id: str,
    issuer_key: SigningKey,
    now: datetime,
    revoked: Sequence[str] = (),
    version: int = 1,
) -> RevocationList:
    body = {
        "kind": "revocation_list",
        "issuer_id": issuer_id,
        "version": version,
        "revoked": sorted(set(revoked)),
        "updated_at": render_timestamp(now),
    }
    return RevocationList.from_dict(attach_signature(body, issuer_key))


def revoke(
    revocation_list: RevocationList,
    credential_id: str,
    issuer_key: SigningKey,
    now: datetime,
) -> RevocationList:
    """Revocation is monotone: the new list supersedes by version and only grows."""
    return new_revocation_list(
        issuer_id=revocation_list.issuer_id,
        issuer_key=issuer_key,
        now=now,
        revoked=sorted(revocation_list.revoked | {credential_id}),
        version=revocation_list.version + 1,
    )


class RevocationStore:
    """The receiver's view of issuer revocation lists, refreshed out of band."""

    def __init__(self, max_age: Optional[timedelta] = None) -> None:
        self._lists: dict[str, RevocationList] = {}
        self.max_age = max_age
        self._lock = threading.Lock()

    def update(self, revocation_list: RevocationList, issuer_public_hex: str) -> None:
        if not check_signature(revocation_list.raw, issuer_public_hex):
            raise RevocationError("revocation list signature does not verify")
        with self._lock:
            current = self._lists.get(revocation_list.issuer_id)
            if current is not None and revocation_list.version <= current.version:
                raise RevocationError(
                    f"version {revocation_list.version} does not supersede {current.version}"
                )
            self._lists[revocation_list.issuer_id] = revocation_list

    def status(self, issuer_id: str, credential_id: str, now: datetime) -> tuple[str, str]:
        """('revoked'|'stale'|'ok', detail).  No list for the issuer reads as ok: absence
        of a configured revocation source is a trust posture, not a failure."""
        with self._lock:
            revocation_list = self._lists.get(issuer_id)
        if revocation_list is None:
            return "ok", ""
        if self.max_age is not None and now - revocation_list.updated_at > self.max_age:
            return "stale", (
                f"revocation list for {issuer_id} is stale; cannot prove the credential is not revoked"
            )
        if credential_id in revocation_list.revoked:
            return "revoked", f"{credential_id} is revoked (list version {revocation_list.version})"
        return "ok", ""


# --- verification ---------------------------------------------------------------

DEFAULT_POP_MAX_AGE = timedelta(seconds=300)


def verify_container(
    container: CredentialContainer,
    presenter_id: str,
    pop: Optional[PossessionProof],
    *,
    evaluator_id: str,
    trusted_issuers: Mapping[str, str],
    now: datetime,
    nonce_cache: NonceCache,
    registries: Sequence = (),
    credential_class: str = DEFAULT_CREDENTIAL_CLASS,
    profile_id: str = "",
    revocations: Optional[RevocationStore] = None,
    pop_required: bool = True,
    pop_max_age: timedelta = DEFAULT_POP_MAX_AGE,
    clock_skew: timedelta = timedelta(0),
) -> Optional[DenialReason]:
    """Run the fixed verification sequence; None means every check passed.

    Order: signature, issuer trust, issuer vetting (only when registries are
    configured; an empty registry set is the bilateral trust posture where the
    local key file is the whole trust decision), audience, proof of
    possession, subject binding, expiry, revocation.  An issuer absent from
    the trusted key file yields issuer_untrusted without a signature verdict:
    there is no key to verify against.
    """
    issuer_key = trusted_issuers.get(container.issuer_id)
    if issuer_key is not None and not container.signature_verifies(issuer_key):
        return DenialReason(DenyCode.SIGNATURE_INVALID, "issuer signature does not verify")
    if issuer_key is None:
        return DenialReason(
            DenyCode.ISSUER_UNTRUSTED, f"issuer {container.issuer_id!r} is not in the trusted set"
        )
    if registries:
        vetted = any(
            r.in_window(now) and r.grants(container.issuer_id, credential_class, profile_id)
            for r in registries
        )
        if not vetted:
            return DenialReason(
                DenyCode.ISSUER_NOT_VETTED,
                f"no accepted registry vouches for {container.issuer_id!r} "
                f"({credential_class}, {profile_id or 'any profile'})",
            )
    if evaluator_id not in container.audience:
        return DenialReason(
            DenyCode.AUDIENCE_MISMATCH, f"credential is not addressed to {evaluator_id!r}"
        )
    if pop_required:
        failure = _possession_failure(container, pop, evaluator_id, now, nonce_cache, pop_max_age)
        if failure:
            return DenialReason(DenyCode.PROOF_OF_POSSESSION_FAILED, failure)
    if presenter_id != container.subject_id:
        return DenialReason(
            DenyCode.SUBJECT_BINDING_MISMATCH,
            f"presenter {presenter_id!r} is not the credential subject {container.subject_id!r}",
        )
    if not (container.valid_from - clock_skew <= now <= container.valid_until + clock_skew):
        return DenialReason(DenyCode.CREDENTIAL_EXPIRED, "outside the credential validity window")
    if revocations is not None:
        status, detail = revocations.status(container.issuer_id, container.credential_id, now)
        if status != "ok":
            return DenialReason(DenyCode.CREDENTIAL_REVOKED, detail)
    return None


def _possession_failure(
    container: CredentialContainer,
    pop: Optional[PossessionProof],
    evaluator_id: str,
    now: datetime,
    nonce_cache: NonceCache,
    pop_max_age: timedelta,
) -> str:
    if pop is None:
        return "no proof of possession presented"
    try:
        credential_digest, audience, nonce, timestamp = read_proof(pop.raw)
    except MalformedContainerError as exc:
        return f"proof does not read: {exc}"
    if credential_digest != container.digest():
        return "proof is bound to a different credential"
    rendered = _proof_signing_bytes(pop.raw)
    if rendered is None or not check_signature(pop.raw, container.subject_public_key, rendered=rendered):
        return "proof signature does not verify against the subject key"
    if audience != evaluator_id:
        return "proof was made for a different receiver"
    if not (now - pop_max_age <= timestamp <= now + pop_max_age):
        return "proof timestamp outside the freshness window"
    if not nonce_cache.accept(nonce):
        return "nonce replayed"
    return ""
