"""Governed semantic resolution: shared identifiers to local context fields.

Constraints name fields by semantic identifier (core.amount), receivers store
context under local names (claim_total).  The bridge is a steward-signed
mapping profile; resolution consults it on every lookup and fails closed on
anything unresolved: no profile, stale profile, unknown identifier, missing or
conflicting alias, or a type that does not line up.

What a lookup decides from the profile and the vocabularies alone (each
identifier's local field and declared type, or its denial) is planned once
per profile and vocabularies sequence; the context lookup and its type check
run on every request.

The core vocabulary is compiled in.  Domain vocabularies extend it under
their own namespace; nothing may squat on ``core.``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from functools import cached_property
from typing import Mapping, Optional, Sequence

from .canonical import Signed, canonical_dumps
from .keys import attach_signature, check_signature
from .model import (
    DenialReason,
    DenyCode,
    RequestContext,
    SemanticType,
    TypedValue,
    ValueParseError,
    expect,
    expect_list,
    parse_timestamp,
    reading,
    render_timestamp,
)

STATUS_REQUIRED = "required"
STATUS_CONDITIONAL = "conditional"
STATUS_ADVANCED = "advanced"


@dataclass(frozen=True)
class VocabularyEntry:
    identifier: str
    semantic_type: SemanticType
    status: str


def _core(identifier: str, semantic_type: SemanticType, status: str) -> tuple[str, VocabularyEntry]:
    return identifier, VocabularyEntry(identifier, semantic_type, status)


# The minimum viable vocabulary. Compiled in: resolution of core identifiers
# must never depend on fetching anything.
CORE_VOCABULARY: Mapping[str, VocabularyEntry] = dict(
    [
        _core("core.issuer_id", SemanticType.STRING_ID, STATUS_REQUIRED),
        _core("core.subject_id", SemanticType.STRING_ID, STATUS_REQUIRED),
        _core("core.presenter_id", SemanticType.STRING_ID, STATUS_REQUIRED),
        _core("core.audience_id", SemanticType.STRING_ID, STATUS_REQUIRED),
        _core("core.permission", SemanticType.STRING_ID, STATUS_REQUIRED),
        _core("core.valid_from", SemanticType.TIMESTAMP, STATUS_REQUIRED),
        _core("core.valid_until", SemanticType.TIMESTAMP, STATUS_REQUIRED),
        _core("core.request_time", SemanticType.TIMESTAMP, STATUS_REQUIRED),
        _core("core.delegator_id", SemanticType.STRING_ID, STATUS_CONDITIONAL),
        _core("core.recipient_id", SemanticType.STRING_ID, STATUS_CONDITIONAL),
        _core("core.action", SemanticType.STRING_ID, STATUS_CONDITIONAL),
        _core("core.resource_id", SemanticType.STRING_ID, STATUS_CONDITIONAL),
        _core("core.resource_type", SemanticType.STRING_ID, STATUS_CONDITIONAL),
        _core("core.amount", SemanticType.DECIMAL, STATUS_CONDITIONAL),
        _core("core.currency_code", SemanticType.STRING_CODE, STATUS_CONDITIONAL),
        _core("core.quantity", SemanticType.DECIMAL, STATUS_CONDITIONAL),
        _core("core.count", SemanticType.INTEGER, STATUS_CONDITIONAL),
        _core("core.total_budget", SemanticType.DECIMAL, STATUS_CONDITIONAL),
        _core("core.geo_region", SemanticType.STRING_ID, STATUS_CONDITIONAL),
        _core("core.ip_address", SemanticType.IP_ADDRESS, STATUS_CONDITIONAL),
        _core("core.request_id", SemanticType.STRING_ID, STATUS_CONDITIONAL),
        _core("core.workflow_id", SemanticType.STRING_ID, STATUS_CONDITIONAL),
        _core("core.workflow_role", SemanticType.STRING_ID, STATUS_CONDITIONAL),
        _core("core.workflow_step_id", SemanticType.STRING_ID, STATUS_CONDITIONAL),
        _core("core.state_authority_pointer", SemanticType.URI, STATUS_ADVANCED),
        _core("core.state_sequence", SemanticType.INTEGER, STATUS_ADVANCED),
        _core("core.state_timestamp", SemanticType.TIMESTAMP, STATUS_ADVANCED),
    ]
)


@dataclass(frozen=True)
class Vocabulary:
    """A domain vocabulary: namespaced identifiers with declared types."""

    profile_id: str
    version: int
    entries: Mapping[str, VocabularyEntry]

    def __post_init__(self) -> None:
        for identifier in self.entries:
            if "." not in identifier:
                raise ValueParseError(f"identifier {identifier!r} is not namespaced")
            if identifier.startswith("core."):
                raise ValueParseError("domain vocabularies may not define core identifiers")
            if not identifier.startswith(self.profile_id + "."):
                raise ValueParseError(
                    f"identifier {identifier!r} outside namespace {self.profile_id!r}"
                )

    def to_dict(self) -> dict:
        return {
            "kind": "vocabulary",
            "profile_id": self.profile_id,
            "version": self.version,
            "identifiers": {
                name: {"type": entry.semantic_type.value, "status": entry.status}
                for name, entry in self.entries.items()
            },
        }

    @staticmethod
    def from_dict(obj: dict) -> "Vocabulary":
        if not isinstance(obj, dict) or obj.get("kind") != "vocabulary":
            raise ValueParseError("not a vocabulary object")
        with reading(ValueParseError):
            entries = {
                name: VocabularyEntry(
                    identifier=name,
                    semantic_type=SemanticType(expect(spec, "type", str)),
                    status=expect(spec, "status", str, optional=True) or STATUS_CONDITIONAL,
                )
                for name, spec in obj["identifiers"].items()
            }
            profile_id, version = expect(obj, "profile_id", str), expect(obj, "version", int)
            return Vocabulary(profile_id=profile_id, version=version, entries=entries)


def lookup_identifier(
    identifier: str, vocabularies: Sequence[Vocabulary]
) -> Optional[VocabularyEntry]:
    """Find an identifier in the core table or the configured domain vocabularies."""
    if identifier.startswith("core."):
        return CORE_VOCABULARY.get(identifier)
    for vocabulary in vocabularies:
        entry = vocabulary.entries.get(identifier)
        if entry is not None:
            return entry
    return None


@dataclass(frozen=True)
class AliasEntry:
    identifier: str
    field: str
    declared_type: SemanticType

    def to_dict(self) -> dict:
        return {"identifier": self.identifier, "field": self.field, "type": self.declared_type.value}


@dataclass(frozen=True)
class MappingProfile(Signed):
    """Steward-signed aliases from semantic identifiers to one receiver's local fields.

    The profile is an immutable value: its digest, alias index and trust
    verdicts are computed once, on first use, and kept on the instance.
    """

    profile_id: str
    version: int
    valid_until: datetime
    aliases: tuple[AliasEntry, ...]
    raw: dict  # original object, kept for signature verification and digests
    # steward keys (the map's items) -> duplicate-row and signature verdict;
    # filled by trust_verdict.
    _trust_verdicts: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # (the vocabularies last asked about, as a tuple; their resolution plan);
    # set by resolution_plan.
    _plan: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    @cached_property
    def _alias_index(self) -> Mapping[str, tuple[AliasEntry, ...]]:
        index: dict[str, list[AliasEntry]] = {}
        for alias in self.aliases:
            index.setdefault(alias.identifier, []).append(alias)
        return {identifier: tuple(rows) for identifier, rows in index.items()}

    def aliases_for(self, identifier: str) -> tuple[AliasEntry, ...]:
        return self._alias_index.get(identifier, ())

    def trust_verdict(self, steward_keys: Mapping[str, str]) -> Optional[DenialReason]:
        """``_profile_trust(self, steward_keys)``, kept per set of steward keys."""
        keys = tuple(steward_keys.items())
        try:
            return self._trust_verdicts[keys]
        except KeyError:
            verdict = self._trust_verdicts[keys] = _profile_trust(self, steward_keys)
            return verdict

    def resolution_plan(self, vocabularies: Sequence[Vocabulary]) -> Mapping[str, AliasEntry | DenialReason]:
        """``plan_resolution(self, vocabularies)``, kept for the vocabularies
        last asked about: valid while they are the same vocabulary objects in
        the same order (a list may change in place), planned afresh otherwise."""
        kept = self._plan
        if kept is None or not (
            kept[0] is vocabularies
            or (len(kept[0]) == len(vocabularies) and all(a is b for a, b in zip(kept[0], vocabularies)))
        ):
            held = tuple(vocabularies)
            kept = (held, plan_resolution(self, held))
            object.__setattr__(self, "_plan", kept)  # a frozen dataclass's cache
        return kept[1]

    @staticmethod
    def from_dict(obj: dict) -> "MappingProfile":
        if not isinstance(obj, dict) or obj.get("kind") != "mapping_profile":
            raise ValueParseError("not a mapping profile object")
        with reading(ValueParseError):
            return MappingProfile(
                profile_id=expect(obj, "profile_id", str),
                version=expect(obj, "version", int),
                valid_until=parse_timestamp(obj["valid_until"]),
                aliases=tuple(
                    AliasEntry(
                        identifier=expect(row, "identifier", str),
                        field=expect(row, "field", str),
                        declared_type=SemanticType(expect(row, "type", str)),
                    )
                    for row in expect_list(obj["aliases"], dict)
                ),
                raw=obj,
            )


def build_mapping_profile(
    profile_id: str,
    version: int,
    valid_until: datetime,
    aliases: Sequence[AliasEntry],
    steward_key,
) -> MappingProfile:
    body = {
        "kind": "mapping_profile",
        "profile_id": profile_id,
        "version": version,
        "valid_until": render_timestamp(valid_until),
        "aliases": [a.to_dict() for a in aliases],
    }
    return MappingProfile.from_dict(attach_signature(body, steward_key))


def identity_mapping_profile(
    vocabularies: Sequence[Vocabulary],
    valid_until: datetime,
    steward_key,
    profile_id: str = "identity",
    version: int = 1,
) -> MappingProfile:
    """A profile mapping every known identifier to itself.

    For receivers whose context is already keyed by semantic identifiers;
    resolution still runs through the same governed path.
    """
    aliases = [
        AliasEntry(identifier=name, field=name, declared_type=entry.semantic_type)
        for name, entry in CORE_VOCABULARY.items()
    ]
    for vocabulary in vocabularies:
        for name, entry in vocabulary.entries.items():
            aliases.append(AliasEntry(identifier=name, field=name, declared_type=entry.semantic_type))
    return build_mapping_profile(profile_id, version, valid_until, aliases, steward_key)


def _profile_trust(mapping: MappingProfile, steward_keys: Mapping[str, str]) -> Optional[DenialReason]:
    """The time-independent half of validation: duplicate rows, then the steward signature."""
    seen: set[str] = set()
    for alias in mapping.aliases:
        rendered = canonical_dumps(alias.to_dict())
        if rendered in seen:
            return DenialReason(
                DenyCode.MAPPING_PROFILE_INVALID, f"duplicate alias row for {alias.identifier}"
            )
        seen.add(rendered)
    if not check_signature(mapping.raw, steward_keys):
        return DenialReason(
            DenyCode.MAPPING_PROFILE_INVALID, "profile signature does not verify against any steward key"
        )
    return None


def validate_mapping_profile(
    mapping: Optional[MappingProfile],
    now: datetime,
    steward_keys: Mapping[str, str],
) -> Optional[DenialReason]:
    """Structural and trust validation of a loaded profile.

    Byte-identical duplicate alias rows make the artifact invalid; two aliases
    that disagree about one identifier are a per-identifier conflict, reported
    as semantic_alias_conflict at resolution time, not here.  None means valid.

    The duplicate-row and signature verdict is computed once per profile and
    set of steward keys and kept on the profile; staleness against ``now`` is
    checked on every call.
    """
    if mapping is None:
        return DenialReason(DenyCode.MAPPING_PROFILE_MISSING, "no mapping profile configured")
    trust = mapping.trust_verdict(steward_keys)
    if trust is not None:
        return trust
    if now > mapping.valid_until:
        return DenialReason(DenyCode.MAPPING_PROFILE_INVALID, "mapping profile is stale")
    return None


def plan_resolution(
    mapping: MappingProfile, vocabularies: Sequence[Vocabulary]
) -> dict[str, AliasEntry | DenialReason]:
    """The request-independent half of resolution, for every identifier the
    core table or ``vocabularies`` define: its one alias (whose declared type
    agrees with the vocabulary), or the denial it resolves to, checked in
    resolution order: alias conflict, alias presence, declared type
    agreement.  An identifier the plan does not hold is unknown."""
    plan: dict[str, AliasEntry | DenialReason] = {}
    for identifier in (*CORE_VOCABULARY, *(name for v in vocabularies for name in v.entries)):
        entry = lookup_identifier(identifier, vocabularies)
        if entry is None or identifier in plan:
            continue
        aliases = mapping.aliases_for(identifier)
        if len({(a.field, a.declared_type) for a in aliases}) > 1:
            plan[identifier] = DenialReason(
                DenyCode.SEMANTIC_ALIAS_CONFLICT, f"{identifier} maps to multiple local fields"
            )
        elif not aliases:
            plan[identifier] = DenialReason(DenyCode.SEMANTIC_ALIAS_MISSING, f"no local alias for {identifier}")
        elif aliases[0].declared_type is not entry.semantic_type:
            plan[identifier] = DenialReason(
                DenyCode.SEMANTIC_TYPE_MISMATCH,
                f"{identifier} declared {aliases[0].declared_type.value}, "
                f"vocabulary says {entry.semantic_type.value}",
            )
        else:
            plan[identifier] = aliases[0]
    return plan


def resolve_semantic_field(
    field: str,
    ctx: RequestContext,
    mapping: Optional[MappingProfile],
    vocabularies: Sequence[Vocabulary],
    profile_status: Optional[DenialReason],
) -> tuple[Optional[TypedValue], Optional[DenialReason]]:
    """Resolve one semantic identifier to a typed context value.

    ``profile_status`` is ``validate_mapping_profile`` of ``mapping``, taken
    once per evaluation by the caller: a missing (None), untrusted or stale
    profile denies with it, so resolution goes on only with a valid one.
    Then checks run in a fixed order so outcomes are deterministic:
    identifier existence, alias conflict, alias presence, declared type
    agreement (these four from the profile's kept ``resolution_plan``),
    context presence, context type.  Exactly one of (value, reason) is
    returned non-None.
    """
    if profile_status is not None:
        return None, profile_status

    planned = mapping.resolution_plan(vocabularies).get(field)
    if planned is None:
        return None, DenialReason(
            DenyCode.SEMANTIC_IDENTIFIER_UNKNOWN, f"{field} is not in any governed vocabulary"
        )
    if isinstance(planned, DenialReason):
        return None, planned
    value = ctx.get(planned.field)
    if value is None:
        return None, DenialReason(
            DenyCode.CONTEXT_FIELD_MISSING, f"context has no field {planned.field!r} for {field}"
        )
    if value.kind is not planned.declared_type:
        return None, DenialReason(
            DenyCode.SEMANTIC_TYPE_MISMATCH,
            f"context field {planned.field!r} is {value.kind.value}, expected {planned.declared_type.value}",
        )
    return value, None
