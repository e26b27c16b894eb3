"""Governance manifests and sender-side preflight.

A receiver publishes a signed, versioned manifest describing what it will
accept: vocabulary profiles and versions, trust registries, credential
classes, state authorities, and the context fields its local policy demands.
A sender compares its own holdings against that manifest before presenting
anything, turning what would be a runtime denial into a diagnosable
admission finding.

Preflight is advisory in both directions.  A compatible report never binds
the receiver, and an incompatible one never prevents a sender from trying
anyway; evaluation remains the sole authority.

Manifests are produced and consumed as files here.  The intended deployment
location is the well-known path ``/.well-known/agent-governance``, served
over whatever transport the receiver already secures.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from datetime import datetime
from typing import Mapping, Optional, Union

from .canonical import Signed, load_json
from .container import DEFAULT_CREDENTIAL_CLASS, CredentialContainer
from .constraints import CumulativeLimitConstraint, UnknownConstraint, unknown_constraint_detail
from .keys import SigningKey, attach_signature, check_signature
from .model import (
    ValueParseError,
    expect,
    expect_list,
    parse_timestamp,
    reading,
    render_timestamp,
)
from .pipeline import EngineConfig

WELL_KNOWN_PATH = "/.well-known/agent-governance"


class ManifestError(ValueError):
    """Manifest verification failure with a stable error code."""

    def __init__(self, code: str, detail: str) -> None:
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail


@dataclass(frozen=True)
class VocabularyRange:
    """One accepted vocabulary profile with an inclusive version range."""

    profile_id: str
    min_version: int
    max_version: int

    def accepts(self, version: int) -> bool:
        return self.min_version <= version <= self.max_version

    @staticmethod
    def from_dict(obj: dict) -> "VocabularyRange":
        with reading(ValueParseError):
            return VocabularyRange(
                profile_id=expect(obj, "profile_id", str),
                min_version=expect(obj, "min_version", int),
                max_version=expect(obj, "max_version", int),
            )


@dataclass(frozen=True)
class GovernanceManifest(Signed):
    receiver_id: str
    version: int
    valid_from: datetime
    valid_until: datetime
    supported_vocabularies: tuple[VocabularyRange, ...]
    accepted_registries: tuple[str, ...]
    accepted_credential_classes: frozenset[str]
    required_context_fields: frozenset[str]
    accepted_state_authorities: tuple[str, ...]
    raw: dict

    def vocabulary_range(self, profile_id: str) -> Optional[VocabularyRange]:
        for row in self.supported_vocabularies:
            if row.profile_id == profile_id:
                return row
        return None


def build_manifest(
    config: EngineConfig,
    receiver_key: SigningKey,
    *,
    version: int,
    valid_from: datetime,
    valid_until: datetime,
) -> GovernanceManifest:
    """Derive the receiver's governance contract from its live configuration.

    Everything in the manifest is read off the config so the published
    contract cannot drift from what evaluation will actually enforce.  A
    window that ends before it begins is refused unsigned, as ``malformed``:
    no instant could verify the manifest.
    """
    if valid_from > valid_until:
        raise ManifestError("malformed", "valid_from is after valid_until; no instant is in the window")
    # A registry only when its window covers the manifest's: the engine
    # refuses a registry at any instant outside the registry's own window.
    registries = [r for r in config.registries if r.valid_from <= valid_from and valid_until <= r.valid_until]
    authorities: list[str] = []
    for registry in registries:
        for entry in registry.state_authorities:
            # The engine's cumulative check asks the same of a pointer.
            if entry.pointer not in authorities and registry.permits_state_authority(entry.pointer, config.profile_id):
                authorities.append(entry.pointer)
    required = (
        config.local_policy.required_context_fields if config.local_policy is not None else ()
    )
    body = {
        "kind": "governance_manifest",
        "receiver_id": config.evaluator_id,
        "version": version,
        "valid_from": render_timestamp(valid_from),
        "valid_until": render_timestamp(valid_until),
        "supported_vocabularies": [
            {"profile_id": v.profile_id, "min_version": v.version, "max_version": v.version}
            for v in config.vocabularies
        ],
        "accepted_registries": [r.registry_id for r in registries],
        "accepted_credential_classes": sorted({config.credential_class}),
        "required_context_fields": sorted(required),
        "accepted_state_authorities": authorities,
    }
    signed = attach_signature(body, receiver_key)
    return _manifest_from_dict(signed)


def _manifest_from_dict(obj: dict) -> GovernanceManifest:
    with reading(ManifestError, "malformed"):
        return GovernanceManifest(
            receiver_id=expect(obj, "receiver_id", str),
            version=expect(obj, "version", int),
            valid_from=parse_timestamp(obj["valid_from"]),
            valid_until=parse_timestamp(obj["valid_until"]),
            supported_vocabularies=tuple(
                VocabularyRange.from_dict(row)
                for row in expect_list(obj.get("supported_vocabularies", []), dict)
            ),
            accepted_registries=tuple(expect_list(obj.get("accepted_registries", []), str)),
            accepted_credential_classes=frozenset(
                expect_list(obj.get("accepted_credential_classes", []), str)
            ),
            required_context_fields=frozenset(
                expect_list(obj.get("required_context_fields", []), str)
            ),
            accepted_state_authorities=tuple(
                expect_list(obj.get("accepted_state_authorities", []), str)
            ),
            raw=obj,
        )


def verify_manifest(
    data: Union[bytes, str, dict],
    receiver_keys: Mapping[str, str],
    now: datetime,
) -> GovernanceManifest:
    """Parse and verify a manifest against known receiver public keys.

    ``receiver_keys`` maps receiver identity to public key hex.  Raises
    ManifestError with code malformed, bad_signature, or out_of_window.
    """
    with reading(ManifestError, "malformed"):
        obj = load_json(data) if isinstance(data, (bytes, str)) else data
    if not isinstance(obj, dict) or obj.get("kind") != "governance_manifest":
        raise ManifestError("malformed", "not a governance manifest")
    manifest = _manifest_from_dict(obj)
    public_hex = receiver_keys.get(manifest.receiver_id)
    if public_hex is None or not check_signature(obj, public_hex):
        raise ManifestError(
            "bad_signature", f"manifest signature does not verify for {manifest.receiver_id!r}"
        )
    if not (manifest.valid_from <= now <= manifest.valid_until):
        raise ManifestError("out_of_window", "manifest validity window does not cover now")
    return manifest


# --- sender side ------------------------------------------------------------

@dataclass(frozen=True)
class CredentialSummary:
    """What one held credential relies on, as far as admission is concerned."""

    digest: str
    issuer_id: str
    credential_class: str
    identifiers: frozenset[str]  # semantic identifiers its constraints reference
    state_authorities: frozenset[str]
    # type tags of its constraints this engine does not recognize, and denies
    unknown_constraints: frozenset[str] = frozenset()

    @staticmethod
    def of(
        container: CredentialContainer, credential_class: str = DEFAULT_CREDENTIAL_CLASS
    ) -> "CredentialSummary":
        constraints = container.payload.constraints or ()
        known = [c for c in constraints if not isinstance(c, UnknownConstraint)]
        return CredentialSummary(
            digest=container.digest(),
            issuer_id=container.issuer_id,
            credential_class=credential_class,
            identifiers=frozenset(c.field for c in known),
            state_authorities=frozenset(
                c.state_authority_pointer for c in known if isinstance(c, CumulativeLimitConstraint)
            ),
            unknown_constraints=frozenset(c.type_tag for c in constraints if isinstance(c, UnknownConstraint)),
        )


@dataclass(frozen=True)
class SenderCapabilities:
    """The sender's own holdings; compared locally, never transmitted."""

    credentials: tuple[CredentialSummary, ...]
    profile_versions: Mapping[str, int] = dc_field(default_factory=dict)
    trust_anchors: frozenset[str] = frozenset()  # registry ids the sender's issuers appear in
    producible_fields: frozenset[str] = frozenset()


@dataclass(frozen=True)
class Finding:
    code: str
    detail: str

    def to_dict(self) -> dict:
        return {"code": self.code, "detail": self.detail}


@dataclass(frozen=True)
class PreflightReport:
    compatible: bool
    findings: tuple[Finding, ...]

    def to_dict(self) -> dict:
        return {
            "kind": "preflight_report",
            "compatible": self.compatible,
            "findings": [f.to_dict() for f in self.findings],
        }


def preflight(sender: SenderCapabilities, manifest: GovernanceManifest) -> PreflightReport:
    """Compare holdings to a verified manifest; compatible means zero findings.

    Pure set comparison: the report is independent of presentation order and
    duplicates.  Every finding names the missing or mismatched item.
    """
    findings: set[Finding] = set()

    for profile_id, held_version in sorted(sender.profile_versions.items()):
        row = manifest.vocabulary_range(profile_id)
        if row is None:
            findings.add(
                Finding("profile_unsupported", f"receiver does not accept vocabulary {profile_id}")
            )
        elif not row.accepts(held_version):
            findings.add(
                Finding(
                    "profile_version_unsupported",
                    f"{profile_id} version {held_version} is outside "
                    f"[{row.min_version}, {row.max_version}]",
                )
            )

    if not manifest.accepted_registries:
        findings.add(
            Finding(
                "no_trust_anchor",
                "manifest lists no accepted registries; issuers cannot be pre-validated",
            )
        )
    elif sender.trust_anchors and not (
        sender.trust_anchors & set(manifest.accepted_registries)
    ):
        findings.add(
            Finding(
                "no_trust_anchor",
                "no registry vouching for the sender's issuers is accepted by the receiver",
            )
        )

    for field in sorted(manifest.required_context_fields - sender.producible_fields):
        findings.add(
            Finding("required_field_unproducible", f"receiver requires {field}")
        )

    accepted_profiles = {row.profile_id for row in manifest.supported_vocabularies}
    for summary in sender.credentials:
        if summary.credential_class not in manifest.accepted_credential_classes:
            findings.add(
                Finding(
                    "credential_class_unaccepted",
                    f"{summary.digest[:16]}: class {summary.credential_class!r} not accepted",
                )
            )
        for identifier in sorted(summary.identifiers):
            namespace = identifier.split(".", 1)[0]
            if namespace != "core" and namespace not in accepted_profiles:
                findings.add(
                    Finding(
                        "identifier_outside_vocabularies",
                        f"{summary.digest[:16]}: {identifier} is outside the receiver's vocabularies",
                    )
                )
        findings.update(
            Finding("constraint_unknown", f"{summary.digest[:16]}: {unknown_constraint_detail(tag)}")
            for tag in summary.unknown_constraints
        )
        for pointer in sorted(summary.state_authorities):
            if pointer not in manifest.accepted_state_authorities:
                findings.add(
                    Finding(
                        "state_authority_unaccepted",
                        f"{summary.digest[:16]}: state authority {pointer} is not accepted",
                    )
                )

    ordered = tuple(sorted(findings, key=lambda f: (f.code, f.detail)))
    return PreflightReport(compatible=not ordered, findings=ordered)
