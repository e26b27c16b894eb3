"""The evaluation engine: one fixed pipeline from presented bytes to a decision.

Every call runs the same sequence: parse, container verification, payload
completeness, permission membership, each constraint in payload order, then
local policy.  The first failing check ends the evaluation with exactly one
typed reason; nothing later can resurrect an allow.  Delegation chains add a
depth gate, per-link verification, and pairwise narrowing checks before the
leaf payload is evaluated the ordinary way.

A failing check raises ``_Denied`` where it fails; ``Engine._conclude`` is
the one place that turns it into trace entries, a ``Decision`` and an audit
record.  Every trace therefore has one shape: the checks performed, in order,
then exactly one closing ``decision``/``decision`` entry reading ``ALLOW`` or
``DENY: <code>``.  An ALLOW trace has no ``FAIL:`` entry; a DENY trace has at
most one, directly before the closing entry (none when the request reached no
check, as with an empty chain).

Each evaluation writes exactly one audit record, allow or deny.  If the
record cannot be written the decision itself becomes a denial: an enforcement
point that cannot account for its decisions must stop deciding.  That is the
one exception to the shape above: a ``decision``/``audit`` ``FAIL:`` entry
follows the failed check's entry, if any, and the trace closes with
``DENY: local_policy_denied``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field as dc_field
from datetime import datetime, timedelta
from typing import Mapping, Optional, Sequence, Union

from .audit import AuditError, AuditLog
from .constraints import (
    Constraint,
    CumulativeLimitConstraint,
    NumericLimitConstraint,
    UnknownConstraint,
    constraint_from_dict,
    evaluate_constraint,
    check_attenuation,
    family_of,
    glob_match,
    joint_conflict,
)
from .container import (
    DEFAULT_CREDENTIAL_CLASS,
    CredentialContainer,
    NonceCache,
    PossessionProof,
    RevocationStore,
    parse_container,
    verify_container,
    DEFAULT_POP_MAX_AGE,
)
from .model import (
    ALLOW,
    DENY,
    Decision,
    DenialReason,
    DenyCode,
    RequestContext,
    TraceEntry,
    TypedValue,
    ValueParseError,
    allow,
    deny,
    expect,
    expect_list,
    reading,
)
from .registry import TrustRegistry
from .semantics import MappingProfile, Vocabulary, resolve_semantic_field, validate_mapping_profile
from .stateful import (
    DEFAULT_FRESHNESS,
    EpochLedger,
    StateAuthority,
    StateVoucher,
    TIER_SYNCHRONOUS,
    TIERS,
    VoucherMemory,
    evaluate_cumulative,
)

CURRENCY_FIELD = "core.currency_code"

# Distinct presented credential bytes or texts an engine remembers, least
# recently presented forgotten first; fixed, because presentations are
# outside input.  Only bytes presented again keep their parsed container:
# presentations that never repeat, such as fresh delegation chains, would
# otherwise leave parsed objects behind that the cyclic collector must scan.
PARSED_CREDENTIALS_KEPT = 64

# Verification sub-checks in the order verify_container performs them, so a
# denial code can be placed on the trace at the right step.
_VERIFY_CHECKS = (
    "signature",
    "issuer trust",
    "audience",
    "proof of possession",
    "expiry and revocation",
)
_CODE_TO_CHECK = {
    DenyCode.SIGNATURE_INVALID: 0,
    DenyCode.ISSUER_UNTRUSTED: 1,
    DenyCode.ISSUER_NOT_VETTED: 1,
    DenyCode.AUDIENCE_MISMATCH: 2,
    DenyCode.PROOF_OF_POSSESSION_FAILED: 3,
    DenyCode.SUBJECT_BINDING_MISMATCH: 3,
    DenyCode.CREDENTIAL_EXPIRED: 4,
    DenyCode.CREDENTIAL_REVOKED: 4,
}


@dataclass(frozen=True)
class LocalPolicy:
    """Receiver-side requirements layered on top of whatever credentials say.

    Required context fields must resolve; policy constraints are evaluated
    like credential constraints but deny with local_policy_denied, since the
    defect is the receiver's own bar, not the credential.
    """

    policy_id: str
    required_context_fields: tuple[str, ...] = ()
    constraints: tuple[Constraint, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.policy_id, str):  # it reaches every audit record
            raise TypeError(f"policy_id must be str, got {type(self.policy_id).__name__}")

    def to_dict(self) -> dict:
        return {
            "kind": "local_policy",
            "policy_id": self.policy_id,
            "required_context_fields": list(self.required_context_fields),
            "constraints": [c.to_dict() for c in self.constraints],
        }

    @staticmethod
    def from_dict(obj: dict) -> "LocalPolicy":
        with reading(ValueParseError):
            return LocalPolicy(
                policy_id=expect(obj, "policy_id", str),
                required_context_fields=tuple(expect_list(obj.get("required_context_fields", []), str)),
                constraints=tuple(map(constraint_from_dict, expect_list(obj.get("constraints", []), dict))),
            )


@dataclass(frozen=True)
class WorkflowRole:
    role_id: str
    issuer_pattern: str  # restricted glob over issuer identities
    required_permission: str

    def to_dict(self) -> dict:
        return {
            "role_id": self.role_id,
            "issuer_pattern": self.issuer_pattern,
            "required_permission": self.required_permission,
        }

    @staticmethod
    def from_dict(obj: dict) -> "WorkflowRole":
        with reading(ValueParseError):
            return WorkflowRole(
                role_id=expect(obj, "role_id", str),
                issuer_pattern=expect(obj, "issuer_pattern", str),
                required_permission=expect(obj, "required_permission", str),
            )


@dataclass(frozen=True)
class WorkflowPolicy:
    """What a multi-agent workflow requires before any step may run."""

    workflow_id: str
    roles: tuple[WorkflowRole, ...]
    shared_fields: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "kind": "workflow_policy",
            "workflow_id": self.workflow_id,
            "roles": [r.to_dict() for r in self.roles],
            "shared_fields": list(self.shared_fields),
        }

    @staticmethod
    def from_dict(obj: dict) -> "WorkflowPolicy":
        with reading(ValueParseError):
            return WorkflowPolicy(
                workflow_id=expect(obj, "workflow_id", str),
                roles=tuple(WorkflowRole.from_dict(r) for r in expect_list(obj.get("roles", []), dict)),
                shared_fields=tuple(expect_list(obj.get("shared_fields", []), str)),
            )


@dataclass(frozen=True)
class WorkflowComposition:
    """A successful composition: who fills each role, and the joined constraints
    every participant must satisfy on the shared fields."""

    workflow_id: str
    assignments: Mapping[str, str]  # role_id -> credential digest
    effective_constraints: tuple[Constraint, ...]


@dataclass
class EngineConfig:
    """Everything an enforcement point trusts, pinned up front.

    The engine never fetches trust material at evaluation time; registries,
    keys, profiles, and policy are loaded and verified by the operator before
    any request is consulted against them.

    Pinned artifacts are immutable values, so what depends on them alone is
    computed once, on first use, and kept on the artifact: the mapping
    profile's duplicate-row and steward-signature verdict (per steward public
    key), its alias index and digest, each registry's digest, and the audit
    key's Ed25519 key object.  Public-key objects are kept by hex, up to
    ``keys.PUBLIC_KEYS_KEPT`` (256).

    Presented credentials are immutable values too.  The engine remembers
    the last ``PARSED_CREDENTIALS_KEPT`` (64) distinct byte strings or texts
    presented to it (dict and container inputs are not remembered: a
    container object is parsed afresh from its signed ``raw``) and,
    from the second presentation on, keeps their parsed container.  A
    container's digest, signing bytes and payload-completeness verdict are
    fixed when it is constructed; a kept one also holds its issuer-signature
    verdict per issuer public key (so a re-keyed issuer or a different
    parent link is verified afresh).
    Everything that depends on the request or on ``now`` still runs on every
    evaluation: proof of possession, nonce replay, the validity window,
    revocation, registry window and standing, audience, subject binding, the
    profile's ``valid_until`` staleness check, constraints, and the audit
    sign.

    Audit records are rendered without a walk, so every value that reaches
    one is typed where it enters, and a mistyped one raises TypeError there.
    Decoded artifacts are plain by construction (``canonical.load_json``
    refuses floats).  This config types its identities, manifest digest and
    trusted issuer keys; registries, the local policy, signing keys and
    credential containers type their own fields where they are built;
    ``AuditLog`` types its evaluator id and environment; ``Engine.evaluate``
    and ``Engine.compose_workflow`` type the request and the workflow policy
    before any check runs.
    """

    evaluator_id: str
    audit_log: AuditLog
    trusted_issuers: Mapping[str, str] = dc_field(default_factory=dict)
    steward_keys: Mapping[str, str] = dc_field(default_factory=dict)
    mapping_profile: Optional[MappingProfile] = None
    vocabularies: tuple[Vocabulary, ...] = ()
    registries: tuple[TrustRegistry, ...] = ()
    revocations: Optional[RevocationStore] = None
    local_policy: Optional[LocalPolicy] = None
    credential_class: str = DEFAULT_CREDENTIAL_CLASS
    profile_id: str = ""
    tier: str = TIER_SYNCHRONOUS
    state_clients: Mapping[str, StateAuthority] = dc_field(default_factory=dict)
    state_authority_keys: Mapping[str, str] = dc_field(default_factory=dict)
    epoch_ledger: Optional[EpochLedger] = None
    max_chain_depth: int = 4
    pop_required: bool = True
    pop_max_age: timedelta = DEFAULT_POP_MAX_AGE
    state_freshness: timedelta = DEFAULT_FRESHNESS
    clock_skew: timedelta = timedelta(0)
    manifest_digest: Optional[str] = None

    def __post_init__(self) -> None:
        if self.tier not in TIERS:
            raise ValueError(f"unknown enforcement tier {self.tier!r}")
        if self.max_chain_depth < 1:
            raise ValueError("max_chain_depth must be at least 1")
        # Registries and the local policy type their own ids where they are built.
        if not (
            isinstance(self.evaluator_id, str)
            and isinstance(self.profile_id, str)
            and isinstance(self.credential_class, str)
            and (self.manifest_digest is None or isinstance(self.manifest_digest, str))
        ):
            raise TypeError("evaluator_id, profile_id and credential_class must be str, manifest_digest a str or None")
        for issuer_id, public_hex in self.trusted_issuers.items():
            if not isinstance(issuer_id, str) or not isinstance(public_hex, str):
                raise TypeError("trusted_issuers must map str issuer ids to str public key hex")


def _expect_str(name: str, value: object) -> None:
    if not isinstance(value, str):
        raise TypeError(f"{name} must be str, got {type(value).__name__}")


def _admit_request(context: RequestContext, presenter_id: str) -> None:
    """Type what a request brings to the audit record: checked before any
    check runs, so a mistyped request changes no state (no nonce, no budget,
    no record) and raises TypeError, and text that has no UTF-8 form (a lone
    surrogate) raises ValueError."""
    _expect_str("presenter_id", presenter_id)
    if not isinstance(context, RequestContext) or not isinstance(context.action, str):
        raise TypeError("context must be a RequestContext with a str action")
    texts = [presenter_id, context.action]
    for name, value in context.fields.items():
        if not isinstance(name, str) or not isinstance(value, TypedValue) or not isinstance(value.text, str):
            raise TypeError(f"context field {name!r} must be a str name for a TypedValue with str text")
        texts += (name, value.text)
    try:
        for text in texts:
            text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"request text {exc.object!r} is not UTF-8 text: {exc.reason}") from exc


@dataclass
class _Notes:
    """Working memory for one evaluation, folded into its audit record."""

    containers: list[CredentialContainer] = dc_field(default_factory=list)
    resolved: dict[str, str] = dc_field(default_factory=dict)
    constraint_results: list[dict] = dc_field(default_factory=list)
    workflow: Optional[dict] = None


class _Denied(Exception):
    """A failed check, raised where it fails and turned into a decision once.

    ``note`` becomes the failing check's ``FAIL:`` trace entry under
    ``stage``/``check`` (None when the request reached no check at all);
    ``reason`` is the decision's one typed denial.
    """

    def __init__(
        self,
        stage: Optional[str],
        check: Optional[str],
        note: Optional[str],
        code: DenyCode,
        detail: str,
        failed_constraint: Optional[str] = None,
    ) -> None:
        super().__init__(detail)
        self.stage = stage
        self.check = check
        self.note = note
        self.reason = DenialReason(code, detail)
        self.failed_constraint = failed_constraint

    def trace_failure(self, trace: list[TraceEntry]) -> None:
        if self.note is not None:
            trace.append(TraceEntry(self.stage, self.check, f"FAIL: {self.note}"))


Credential = Union[bytes, str, dict, CredentialContainer]


class Engine:
    """A single enforcement point.  One instance, one trust configuration,
    one audit chain, one replay cache."""

    def __init__(self, config: EngineConfig) -> None:
        self.config = config
        self.nonce_cache = NonceCache()
        self.voucher_memory = VoucherMemory()
        # Presented bytes or text -> parsed container (None when presented
        # once), least recently presented first.
        self._parsed: dict[Union[bytes, str], CredentialContainer] = {}
        self._parsed_lock = threading.Lock()

    # -- public operations -----------------------------------------------

    def evaluate(
        self,
        credential: Union[Credential, Sequence[Credential]],
        context: RequestContext,
        presenter_id: str,
        pop: Optional[PossessionProof] = None,
        *,
        now: datetime,
        vouchers: Optional[Sequence[StateVoucher]] = None,
    ) -> Decision:
        """Decide one request.  A list of credentials is a delegation chain,
        presented root first; a single credential is a chain of one.  A
        mistyped request raises TypeError, and text with no UTF-8 form
        raises ValueError, before any check runs."""
        is_chain = isinstance(credential, (list, tuple))
        _admit_request(context, presenter_id)
        trace: list[TraceEntry] = []
        notes = _Notes()
        operation = "evaluate_chain" if is_chain and len(credential) > 1 else "evaluate"
        try:
            if is_chain:
                leaf = self._verify_chain(list(credential), presenter_id, pop, now, trace, notes)
            else:
                leaf = self._verify_single(credential, presenter_id, pop, now, trace, notes)
            self._evaluate_payload(leaf, context, now, vouchers, trace, notes)
        except _Denied as denied:
            # Concluded inside the handler, so no frame keeps the exception
            # (and the frames its traceback holds) alive in a reference cycle.
            return self._conclude(operation, trace, denied, context, presenter_id, now, notes)
        return self._conclude(operation, trace, None, context, presenter_id, now, notes)

    def compose_workflow(
        self,
        policy: WorkflowPolicy,
        credentials: Sequence[Credential],
        *,
        now: datetime,
    ) -> tuple[Decision, Optional[WorkflowComposition]]:
        """Check that a set of credentials jointly staffs a workflow.

        Every role must be filled by a verified credential whose issuer
        matches the role's issuer pattern and whose permissions include the
        role's required permission.  Constraints on declared shared fields
        are conjoined across all participants; a conjunction that no request
        could ever satisfy is refused here, before any step runs.  That
        planning-time check (``constraints.joint_conflict``) covers numeric
        limits with their currencies, instant windows, weekday gates in one
        timezone, and enumerations.  String patterns and cumulative limits
        are not judged here; they stay in force at evaluation.  A mistyped
        policy raises TypeError before any check runs.
        """
        _expect_str("workflow_id", policy.workflow_id)
        for role in policy.roles:
            _expect_str("role_id", role.role_id)
        for field in policy.shared_fields:
            _expect_str("shared field", field)
        trace: list[TraceEntry] = []
        notes = _Notes()
        try:
            composition = self._compose(policy, credentials, now, trace, notes)
        except _Denied as denied:
            return self._conclude("compose_workflow", trace, denied, None, None, now, notes), None
        decision = self._conclude("compose_workflow", trace, None, None, None, now, notes)
        return decision, composition if decision.allowed else None

    # -- parsing and verification ------------------------------------------

    def _parse(self, credential: Credential) -> CredentialContainer:
        """Parse a presented credential, reusing the container kept for the
        same bytes or text.  A parse failure is never remembered.  A
        container object decides as its signed ``raw``: its other fields are
        derived afresh, never trusted."""
        if isinstance(credential, CredentialContainer):
            credential = credential.raw
        if not isinstance(credential, (bytes, str)):
            return parse_container(credential)
        with self._parsed_lock:
            seen = credential in self._parsed
            if seen:  # re-inserted, so it is now the most recently presented
                container = self._parsed[credential] = self._parsed.pop(credential)
                if container is not None:
                    return container
        container = parse_container(credential)
        with self._parsed_lock:
            self._parsed[credential] = container if seen else None
            if len(self._parsed) > PARSED_CREDENTIALS_KEPT:
                del self._parsed[next(iter(self._parsed))]
        return container

    def _parse_or_deny(self, credential: Credential, stage: str, note="", where="") -> CredentialContainer:
        """The one denial of a presented credential that does not parse: the
        ``note`` and ``where`` prefixes place it in a chain or workflow set."""
        try:
            return self._parse(credential)
        except ValueError as exc:  # a MalformedContainerError among them
            raise _Denied(
                stage, "parse", f"{note}{exc}",
                DenyCode.SIGNATURE_INVALID, f"malformed container{where}: {exc}",
            )

    def _verify(
        self,
        container: CredentialContainer,
        presenter_id: str,
        pop: Optional[PossessionProof],
        now: datetime,
        *,
        pop_required: bool,
        trusted_issuers: Optional[Mapping[str, str]] = None,
        use_registries: bool = True,
    ) -> Optional[DenialReason]:
        """Run the container gate.  Chain links override the trust source:
        a delegated link is signed by its parent's subject, so its key comes
        from the parent container, and registry vetting applies only to the
        root issuer."""
        cfg = self.config
        return verify_container(
            container,
            presenter_id,
            pop,
            evaluator_id=cfg.evaluator_id,
            trusted_issuers=cfg.trusted_issuers if trusted_issuers is None else trusted_issuers,
            now=now,
            nonce_cache=self.nonce_cache,
            registries=cfg.registries if use_registries else (),
            credential_class=cfg.credential_class,
            profile_id=cfg.profile_id,
            revocations=cfg.revocations,
            pop_required=pop_required and cfg.pop_required,
            pop_max_age=cfg.pop_max_age,
            clock_skew=cfg.clock_skew,
        )

    # -- single credential --------------------------------------------------

    def _verify_single(
        self,
        credential: Credential,
        presenter_id: str,
        pop: Optional[PossessionProof],
        now: datetime,
        trace: list[TraceEntry],
        notes: _Notes,
    ) -> CredentialContainer:
        container = self._parse_or_deny(credential, "container")
        notes.containers.append(container)
        trace.append(TraceEntry("container", "parse", "PASS"))

        # One entry per verification sub-check, stopping at the failure.
        reason = self._verify(container, presenter_id, pop, now, pop_required=True)
        failed_at = (
            len(_VERIFY_CHECKS)
            if reason is None
            else _CODE_TO_CHECK.get(reason.code, len(_VERIFY_CHECKS) - 1)
        )
        passed = _VERIFY_CHECKS[:failed_at]
        if reason is not None and reason.code is DenyCode.ISSUER_UNTRUSTED:
            passed = ()  # no trusted key, so the signature was never checked
        for check in passed:
            trace.append(TraceEntry("container", check, "PASS"))
        if reason is not None:
            raise _Denied(
                "container", _VERIFY_CHECKS[failed_at], reason.detail, reason.code, reason.detail
            )
        problem = container.completeness
        if problem is not None:
            raise _Denied("payload", "completeness", problem.detail, problem.code, problem.detail)
        return container

    # -- delegation chain ----------------------------------------------------

    def _verify_chain(
        self,
        credentials: list[Credential],
        presenter_id: str,
        pop: Optional[PossessionProof],
        now: datetime,
        trace: list[TraceEntry],
        notes: _Notes,
    ) -> CredentialContainer:
        if not credentials:
            raise _Denied(None, None, None, DenyCode.CREDENTIAL_INCOMPLETE, "no credentials presented")
        # Judged on the count alone, so an over-deep chain costs no parse; a
        # passing depth keeps its trace entry after the parse entry.
        depth, limit = len(credentials), self.config.max_chain_depth
        if depth > limit:
            raise _Denied(
                "chain", "depth", f"{depth} links exceeds limit {limit}",
                DenyCode.DELEGATION_DEPTH_EXCEEDED,
                f"chain of {depth} links exceeds the depth limit of {limit}",
            )
        containers = [
            self._parse_or_deny(c, "chain", f"link {i}: ", f" in link {i}")
            for i, c in enumerate(credentials, start=1)
        ]
        notes.containers.extend(containers)
        trace.append(TraceEntry("chain", "parse", f"PASS: {len(containers)} links"))
        trace.append(TraceEntry("chain", "depth", "PASS"))

        for index, container in enumerate(containers, start=1):
            problem = container.completeness
            if problem is not None:
                raise _Denied(
                    "chain", f"link {index} payload", problem.detail,
                    problem.code, f"link {index}: {problem.detail}",
                )

        # Continuity is structural and judged before signatures, so a
        # mis-chained presentation reports the chain defect, not a key defect.
        for index, (parent, child) in enumerate(zip(containers, containers[1:]), start=2):
            check = f"link {index} continuity"
            if child.issuer_id != parent.subject_id:
                raise _Denied(
                    "chain", check, f"issuer {child.issuer_id!r} is not the parent subject",
                    DenyCode.DELEGATION_CHAIN_BROKEN,
                    f"link {index} issuer {child.issuer_id!r} is not the parent subject "
                    f"{parent.subject_id!r}",
                )
            if child.parent_digest != parent.digest():
                raise _Denied(
                    "chain", check, "parent digest mismatch",
                    DenyCode.DELEGATION_CHAIN_BROKEN,
                    f"link {index} does not reference its parent by digest",
                )
            trace.append(TraceEntry("chain", check, "PASS"))

        leaf = containers[-1]
        for index, container in enumerate(containers, start=1):
            is_leaf = container is leaf
            expected_presenter = presenter_id if is_leaf else container.subject_id
            # The root is signed by a configured issuer and subject to registry
            # vetting; every later link is signed by its parent's subject.
            overrides = (
                None
                if index == 1
                else {container.issuer_id: containers[index - 2].subject_public_key}
            )
            reason = self._verify(
                container,
                expected_presenter,
                pop if is_leaf else None,
                now,
                pop_required=is_leaf,
                trusted_issuers=overrides,
                use_registries=index == 1,
            )
            if reason is not None:
                raise _Denied(
                    "chain", f"link {index} verify", reason.detail,
                    reason.code, f"link {index}: {reason.detail}",
                )
            trace.append(TraceEntry("chain", f"link {index} verify", "PASS"))

        for index, (parent, child) in enumerate(zip(containers, containers[1:]), start=2):
            check = f"link {index} attenuation"
            if child.valid_from < parent.valid_from or child.valid_until > parent.valid_until:
                raise _Denied(
                    "chain", check, "validity window widened",
                    DenyCode.DELEGATION_WIDENED,
                    f"link {index} validity window extends beyond its parent",
                )
            parent_permissions = parent.payload.permissions or frozenset()
            extra = (child.payload.permissions or frozenset()) - parent_permissions
            if extra:
                raise _Denied(
                    "chain", check, f"adds permissions {sorted(extra)}",
                    DenyCode.DELEGATION_WIDENED,
                    f"link {index} grants permissions its parent never held: {sorted(extra)}",
                )
            ok, detail = check_attenuation(
                child.payload.constraints or (), parent.payload.constraints or ()
            )
            if not ok:
                raise _Denied(
                    "chain", check, detail, DenyCode.DELEGATION_WIDENED, f"link {index}: {detail}"
                )
            trace.append(TraceEntry("chain", check, "PASS"))

        return leaf

    # -- payload evaluation ---------------------------------------------------

    def _resolve(
        self,
        field: str,
        context: RequestContext,
        profile_status: Optional[DenialReason],
        notes: _Notes,
    ) -> tuple[Optional[TypedValue], Optional[DenialReason]]:
        """Resolve one semantic field; a resolved value is noted for the audit snapshot."""
        cfg = self.config
        value, reason = resolve_semantic_field(
            field, context, cfg.mapping_profile, cfg.vocabularies, profile_status
        )
        if value is not None:
            notes.resolved[field] = value.text
        return value, reason

    def _evaluate_payload(
        self,
        container: CredentialContainer,
        context: RequestContext,
        now: datetime,
        vouchers: Optional[Sequence[StateVoucher]],
        trace: list[TraceEntry],
        notes: _Notes,
    ) -> None:
        cfg = self.config
        payload = container.payload
        if context.action not in (payload.permissions or frozenset()):
            raise _Denied(
                "payload", "permission", f"{context.action!r} not granted",
                DenyCode.PERMISSION_DENIED,
                f"action {context.action!r} is not among the granted permissions",
            )
        trace.append(TraceEntry("payload", "permission", "PASS"))

        profile_status = validate_mapping_profile(cfg.mapping_profile, now, cfg.steward_keys)

        # Opportunistic, for the audit snapshot only: the requested resource is
        # recorded when resolvable, and its absence never alters the decision.
        self._resolve("core.resource_id", context, profile_status, notes)

        constraints = payload.constraints or ()
        context_currency = self._currency("constraints", constraints, context, profile_status, notes)
        for index, constraint in enumerate(constraints, start=1):
            self._evaluate_one_constraint(
                f"C{index}", constraint, container, context, now, context_currency,
                profile_status, vouchers, trace, notes,
            )

        self._apply_local_policy(context, profile_status, trace, notes)

    def _currency(
        self,
        stage: str,
        constraints: Sequence[Constraint],
        context: RequestContext,
        profile_status: Optional[DenialReason],
        notes: _Notes,
    ) -> Optional[str]:
        """The request currency when a limit in ``constraints`` names one; a missing
        field reads as None, and any other resolution defect denies at ``stage``."""
        if not any(
            isinstance(c, (NumericLimitConstraint, CumulativeLimitConstraint)) and c.currency
            for c in constraints
        ):
            return None
        value, reason = self._resolve(CURRENCY_FIELD, context, profile_status, notes)
        if reason is not None and reason.code is not DenyCode.CONTEXT_FIELD_MISSING:
            raise _Denied(stage, "currency", reason.detail, reason.code, reason.detail)
        return value.text if value is not None else None

    def _evaluate_one_constraint(
        self,
        label: str,
        constraint: Constraint,
        container: CredentialContainer,
        context: RequestContext,
        now: datetime,
        context_currency: Optional[str],
        profile_status: Optional[DenialReason],
        vouchers: Optional[Sequence[StateVoucher]],
        trace: list[TraceEntry],
        notes: _Notes,
    ) -> None:
        cfg = self.config
        unknown = isinstance(constraint, UnknownConstraint)
        # Noted as failed up front; flipped to PASS once every step has passed.
        result = {
            "label": label,
            "type": constraint.type_tag if unknown else family_of(constraint),
            "field": "" if unknown else constraint.field,
            "result": "FAIL",
        }
        notes.constraint_results.append(result)
        if unknown:
            raise _Denied(
                "constraints", label, f"unrecognized type {constraint.type_tag!r}",
                DenyCode.CONSTRAINT_UNKNOWN,
                f"{label}: constraint type {constraint.type_tag!r} is not recognized",
                failed_constraint=label,
            )

        value, reason = self._resolve(constraint.field, context, profile_status, notes)
        if reason is None and isinstance(constraint, CumulativeLimitConstraint):
            reason = evaluate_cumulative(
                constraint,
                value,
                container.digest(),
                tier=cfg.tier,
                registries=cfg.registries,
                profile_id=cfg.profile_id,
                now=now,
                context_currency=context_currency,
                state_clients=cfg.state_clients,
                epoch_ledger=cfg.epoch_ledger,
                vouchers=vouchers,
                authority_keys=cfg.state_authority_keys,
                voucher_memory=self.voucher_memory,
                freshness=cfg.state_freshness,
            )
        elif reason is None:
            ok, detail = evaluate_constraint(constraint, value, context_currency)
            if not ok:
                reason = DenialReason(DenyCode.CONSTRAINT_FAILED, detail)
        if reason is not None:
            raise _Denied(
                "constraints", label, reason.detail,
                reason.code, f"{label}: {reason.detail}", failed_constraint=label,
            )
        trace.append(TraceEntry("constraints", label, "PASS"))
        result["result"] = "PASS"

    def _apply_local_policy(
        self,
        context: RequestContext,
        profile_status: Optional[DenialReason],
        trace: list[TraceEntry],
        notes: _Notes,
    ) -> None:
        policy = self.config.local_policy
        if policy is None:
            return

        def resolved(field: str) -> TypedValue:
            value, reason = self._resolve(field, context, profile_status, notes)
            if reason is not None:
                raise _Denied(
                    "policy", "local policy", reason.detail,
                    reason.code, f"local policy: {reason.detail}",
                )
            return value

        witness = [resolved(field).text for field in policy.required_context_fields]
        context_currency = self._currency("policy", policy.constraints, context, profile_status, notes)
        for constraint in policy.constraints:
            if isinstance(constraint, UnknownConstraint):
                raise _Denied(
                    "policy", "local policy", "unrecognized policy constraint",
                    DenyCode.LOCAL_POLICY_DENIED,
                    f"policy {policy.policy_id!r} holds an unrecognized constraint type",
                )
            ok, detail = evaluate_constraint(constraint, resolved(constraint.field), context_currency)
            if not ok:
                raise _Denied(
                    "policy", "local policy", detail,
                    DenyCode.LOCAL_POLICY_DENIED, f"policy {policy.policy_id!r}: {detail}",
                )
        suffix = f": {', '.join(witness)}" if witness else ""
        trace.append(TraceEntry("policy", "local policy", f"PASS{suffix}"))

    # -- workflow composition ---------------------------------------------------

    def _compose(
        self,
        policy: WorkflowPolicy,
        credentials: Sequence[Credential],
        now: datetime,
        trace: list[TraceEntry],
        notes: _Notes,
    ) -> WorkflowComposition:
        containers = [
            self._parse_or_deny(c, "workflow", f"credential {i}: ", f" in workflow set ({i})")
            for i, c in enumerate(credentials, start=1)
        ]
        notes.containers.extend(containers)
        trace.append(TraceEntry("workflow", "parse", f"PASS: {len(containers)} credentials"))

        # Composition is a planning step: each credential is verified as an
        # artifact (signature, trust, window, revocation) with possession
        # deferred to the per-step evaluations that follow.
        for index, container in enumerate(containers, start=1):
            check = f"credential {index} verify"
            reason = self._verify(container, container.subject_id, None, now, pop_required=False)
            if reason is None:
                reason = container.completeness
            if reason is not None:
                raise _Denied(
                    "workflow", check, reason.detail,
                    reason.code, f"workflow credential {index}: {reason.detail}",
                )
            trace.append(TraceEntry("workflow", check, "PASS"))

        assignments: dict[str, str] = {}
        for role in policy.roles:
            filled = next(
                (
                    c
                    for c in containers
                    if c.digest() not in assignments.values()
                    and glob_match(role.issuer_pattern, c.issuer_id)
                    and role.required_permission in (c.payload.permissions or frozenset())
                ),
                None,
            )
            if filled is None:
                raise _Denied(
                    "workflow", f"role {role.role_id}", "unfilled",
                    DenyCode.WORKFLOW_POLICY_DENIED,
                    f"role {role.role_id!r} is not filled by any presented credential",
                )
            assignments[role.role_id] = filled.digest()
            trace.append(
                TraceEntry("workflow", f"role {role.role_id}", f"PASS: {filled.subject_id}")
            )

        effective: list[Constraint] = []
        for field in policy.shared_fields:
            group = [
                c
                for container in containers
                for c in (container.payload.constraints or ())
                if not isinstance(c, UnknownConstraint) and c.field == field
            ]
            effective.extend(group)
            conflict = joint_conflict(group)
            if conflict is not None:
                raise _Denied(
                    "workflow", f"shared field {field}", conflict,
                    DenyCode.WORKFLOW_POLICY_DENIED, f"{field}: {conflict}",
                )
            trace.append(TraceEntry("workflow", f"shared field {field}", "PASS"))

        notes.workflow = {
            "workflow_id": policy.workflow_id,
            "assignments": dict(assignments),
            "shared_fields": list(policy.shared_fields),
        }
        return WorkflowComposition(
            workflow_id=policy.workflow_id,
            assignments=assignments,
            effective_constraints=tuple(effective),
        )

    # -- decision and audit ------------------------------------------------------

    def _conclude(
        self,
        operation: str,
        trace: list[TraceEntry],
        denied: Optional[_Denied],
        context: Optional[RequestContext],
        presenter_id: Optional[str],
        now: datetime,
        notes: _Notes,
    ) -> Decision:
        """Write the audit record, close the trace and build the decision.

        This is the only place a decision is made.  ``denied`` is the failed
        check that ended the evaluation, or None when every check passed.  A
        record that cannot be written turns the decision into a denial.
        """
        cfg = self.config
        if denied is not None:
            denied.trace_failure(trace)
        leaf = notes.containers[-1] if notes.containers else None
        governance = {
            "tier": cfg.tier,
            "profile_id": cfg.profile_id,
            "mapping_profile": cfg.mapping_profile.digest() if cfg.mapping_profile else None,
            "registries": [
                {"registry_id": r.registry_id, "version": r.version, "digest": r.digest()}
                for r in cfg.registries
            ],
            "manifest_digest": cfg.manifest_digest,
            "trust_anchor": cfg.trusted_issuers.get(leaf.issuer_id) if leaf else None,
            "local_policy": cfg.local_policy.policy_id if cfg.local_policy else None,
        }
        reason = denied.reason if denied is not None else None
        try:
            cfg.audit_log.append(
                operation=operation,
                timestamp=now,
                credential_digests=[c.digest() for c in notes.containers],
                presenter_id=presenter_id,
                subject_id=leaf.subject_id if leaf else None,
                issuer_id=leaf.issuer_id if leaf else None,
                action=context.action if context else None,
                resource=notes.resolved.get("core.resource_id"),
                context_snapshot=notes.resolved,
                constraint_results=notes.constraint_results,
                decision_outcome=DENY if reason else ALLOW,
                decision_code=reason.code.value if reason else None,
                decision_detail=reason.detail if reason else "",
                failed_constraint=denied.failed_constraint if denied is not None else None,
                governance=governance,
                workflow=notes.workflow,
            )
        except AuditError as exc:
            denied = _Denied(
                "decision", "audit", str(exc),
                DenyCode.LOCAL_POLICY_DENIED,
                f"audit append failed, refusing to decide without a record: {exc}",
            )
            denied.trace_failure(trace)
        if denied is None:
            trace.append(TraceEntry("decision", "decision", "ALLOW"))
            return allow(trace)
        code = denied.reason.code
        trace.append(TraceEntry("decision", "decision", f"DENY: {code.value}"))
        return deny(code, denied.reason.detail, trace, denied.failed_constraint)
