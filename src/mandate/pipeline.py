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

import functools
import threading
from dataclasses import dataclass, field as dc_field
from datetime import datetime, timedelta
from typing import Mapping, Optional, Sequence, Union

from .audit import AuditError, AuditLog, Rendered
from .canonical import CanonicalizationError
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
    unknown_constraint_detail,
)
from .container import (
    DEFAULT_CREDENTIAL_CLASS,
    CredentialContainer,
    NonceCache,
    PossessionProof,
    RevocationStore,
    continuity_defect,
    parse_container,
    verify_container,
    widening,
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
# outside input.  Only bytes presented again keep their entry (parsed
# container and constraint plan); bytes presented once get an entry for
# their evaluation alone, since presentations that never repeat, such as
# fresh delegation chains, would otherwise leave objects behind that the
# cyclic collector must scan.
PARSED_CREDENTIALS_KEPT = 64

# Verification sub-checks in the order verify_container performs them, so a
# denial code is placed on the trace at its step; an unlisted code raises KeyError.
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

# Trace entries that read the same on every request, built once.
_PARSED = TraceEntry("container", "parse", "PASS")
_VERIFIED = tuple(TraceEntry("container", check, "PASS") for check in _VERIFY_CHECKS)
_PERMITTED = TraceEntry("payload", "permission", "PASS")
_ALLOWED = TraceEntry("decision", "decision", "ALLOW")
_CHAIN_DEPTH = TraceEntry("chain", "depth", "PASS")


@functools.cache
def _chain_entries(index: int) -> tuple[TraceEntry, TraceEntry, TraceEntry, TraceEntry]:
    """The fixed PASS entries of link ``index``, built on its first use: the
    parse entry of a chain of ``index`` links, then the link's continuity,
    verify and attenuation entries.  Depth is judged before any link is
    parsed, so no index past ``max_chain_depth`` is ever asked for."""
    return (
        TraceEntry("chain", "parse", f"PASS: {index} links"),
        TraceEntry("chain", f"link {index} continuity", "PASS"),
        TraceEntry("chain", f"link {index} verify", "PASS"),
        TraceEntry("chain", f"link {index} attenuation", "PASS"),
    )


@functools.lru_cache(maxsize=64)
def _constraint_step(index: int) -> tuple[str, TraceEntry]:
    """Constraint ``index``'s label and PASS entry, kept in a bounded table:
    unlike a chain's depth, a list of constraints has no length limit."""
    return f"C{index}", TraceEntry("constraints", f"C{index}", "PASS")


def _names_currency(constraints: Sequence[Constraint]) -> bool:
    """Whether a limit among ``constraints`` names a currency, so the request's must resolve."""
    return any(
        isinstance(c, (NumericLimitConstraint, CumulativeLimitConstraint)) and c.currency
        for c in constraints
    )


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

    What depends only on these pinned artifacts, or on credential bytes
    presented more than once, is computed on first use and kept (README,
    "The cache-hit path"); nothing is planned when the config or the engine
    is built, and a field reassigned after construction takes effect on the
    next evaluation.  Everything that depends on the request or on ``now``
    runs on every evaluation.

    This config types its identities, manifest digest and trusted issuer
    keys, and a mistyped one raises TypeError; registries, the local policy,
    signing keys and credential containers type their own fields where they
    are built.
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


def _admit_request(context: RequestContext, presenter_id: str, pop: object, vouchers: object) -> None:
    """Type what a request brings: checked before any check runs, so a
    mistyped request changes no state (no nonce, no budget, no record) and
    raises TypeError, and text that has no UTF-8 form (a lone surrogate)
    raises ValueError."""
    _expect_str("presenter_id", presenter_id)
    if not isinstance(context, RequestContext) or not isinstance(context.action, str):
        raise TypeError("context must be a RequestContext with a str action")
    if not isinstance(pop, (PossessionProof, type(None))):
        raise TypeError(f"pop must be a PossessionProof or None, got {type(pop).__name__}")
    if not isinstance(vouchers, (list, tuple, type(None))) or not all(isinstance(v, StateVoucher) for v in vouchers or ()):
        raise TypeError("vouchers must be None or a list or tuple of StateVoucher")
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


class _Entry:
    """A presented credential's parsed container and its constraint plan,
    built by ``plan()`` when its leaf first reaches its constraints: each
    constraint's label and PASS trace entry (``_constraint_step``), the PASS
    result rows, and whether a limit names a currency.  It holds nothing the
    profile or the rest of the config decides, so it holds for any config.
    It renders its ALLOW ``constraint_results`` once, on the first
    evaluation in which every constraint passed.  Bytes presented more than
    once keep their entry in the credential cache; any other credential's
    entry lives for its evaluation only."""

    __slots__ = ("container", "steps", "rows", "needs_currency", "_allowed")

    def __init__(self, container: CredentialContainer) -> None:
        self.container = container
        self.steps: Optional[tuple] = None

    def plan(self) -> None:
        """Build the plan, unless it is built.  ``steps`` is assigned last, so
        an evaluation of the same bytes that starts meanwhile builds a plan
        of its own instead of reading this one half built."""
        if self.steps is None:
            constraints = self.container.payload.constraints or ()
            steps = tuple((*_constraint_step(i), c) for i, c in enumerate(constraints, start=1))
            self.rows = tuple(
                {"label": label, "type": c.type_tag, "field": "", "result": "PASS"}
                if isinstance(c, UnknownConstraint)
                else {"label": label, "type": family_of(c), "field": c.field, "result": "PASS"}
                for label, _, c in steps
            )
            self.needs_currency = _names_currency(constraints)
            self._allowed: Optional[Rendered] = None
            self.steps = steps

    def results(self, passed: int, failed: bool) -> Union[list[dict], Rendered]:
        """The ``constraint_results`` rows of an evaluation in which the first
        ``passed`` constraints passed and, when ``failed``, the next one
        failed; the rendered run when every one passed."""
        if failed:
            return [*self.rows[:passed], dict(self.rows[passed], result="FAIL")]
        if passed < len(self.rows):
            return list(self.rows[:passed])
        if self._allowed is None:
            self._allowed = Rendered(list(self.rows))
        return self._allowed


@dataclass(slots=True)
class _Evaluation:
    """One evaluation, carried through the engine: its operation and ``now``,
    the request (none for a workflow composition), its trace, and the
    working memory folded into its audit record."""

    operation: str
    now: datetime
    context: Optional[RequestContext] = None
    presenter_id: Optional[str] = None
    pop: Optional[PossessionProof] = None
    vouchers: Optional[Sequence[StateVoucher]] = None
    trace: list[TraceEntry] = dc_field(default_factory=list)
    containers: list[CredentialContainer] = dc_field(default_factory=list)
    resolved: dict[str, str] = dc_field(default_factory=dict)
    plan: Optional[_Entry] = None  # the leaf's entry, once its constraints are reached
    profile_status: Optional[DenialReason] = None  # the mapping profile's verdict
    passed: int = 0  # constraints passed, in payload order
    workflow: Optional[dict] = None

    def __post_init__(self) -> None:
        # The clock is typed with the request, before any check compares it.
        if not isinstance(self.now, datetime) or self.now.utcoffset() is None:
            raise TypeError(f"now must be an aware datetime, got {self.now!r}")


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

    @classmethod
    def of(cls, stage: str, check: str, reason: DenialReason, prefix: str = "", failed_constraint=None) -> "_Denied":
        """A check's own ``reason``: its detail is the trace note and, after
        ``prefix``, the decision's detail."""
        return cls(stage, check, reason.detail, reason.code, prefix + reason.detail, failed_constraint)

    def trace_failure(self, trace: list[TraceEntry]) -> None:
        if self.note is not None:
            trace.append(TraceEntry(self.stage, self.check, f"FAIL: {self.note}"))


Credential = Union[bytes, str, dict, CredentialContainer]


class Engine:
    """A single enforcement point.  One instance, one trust configuration,
    one audit chain, one replay cache."""

    # (governance snapshot, {trust anchor: rendered governance}), built on the
    # first audit append and again whenever the snapshot changes.
    _governance: Optional[tuple] = None

    def __init__(self, config: EngineConfig) -> None:
        self.config = config
        self.nonce_cache = NonceCache()
        self.voucher_memory = VoucherMemory()
        # Presented bytes or text -> cache entry (None when presented once),
        # least recently presented first.
        self._parsed: dict[Union[bytes, str], Optional[_Entry]] = {}
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
        presented root first; a list of one is that credential itself.  A
        mistyped request raises TypeError, and text with no UTF-8 form
        raises ValueError, before any check runs."""
        is_chain = isinstance(credential, (list, tuple))
        if is_chain and len(credential) == 1 and not isinstance(credential[0], (list, tuple)):
            (credential,), is_chain = credential, False
        _admit_request(context, presenter_id, pop, vouchers)
        operation = "evaluate_chain" if is_chain and len(credential) > 1 else "evaluate"
        ev = _Evaluation(operation, now, context, presenter_id, pop, vouchers)
        try:
            if is_chain:
                leaf = self._verify_chain(ev, list(credential))
            else:
                leaf = self._verify_single(ev, credential)
            self._evaluate_payload(ev, leaf)
        except _Denied as denied:
            # Concluded inside the handler, so no frame keeps the exception
            # (and the frames its traceback holds) alive in a reference cycle.
            return self._conclude(ev, denied)
        return self._conclude(ev, None)

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
        ev = _Evaluation("compose_workflow", now)
        try:
            composition = self._compose(ev, policy, credentials)
        except _Denied as denied:
            return self._conclude(ev, denied), None
        decision = self._conclude(ev, None)
        return decision, composition if decision.allowed else None

    # -- parsing and verification ------------------------------------------

    def _parse(self, credential: Credential, stage: str, note="", where="") -> _Entry:
        """A presented credential's entry: the one kept for the same bytes or
        text, else a fresh one, kept when the bytes or text were presented
        before.  A container object decides as its signed ``raw``: its other
        fields are derived afresh, never trusted.  A parse failure is never
        remembered and is the one denial of a credential that does not
        parse, at ``stage``: the ``note`` and ``where`` prefixes place it in
        a chain or workflow set."""
        if isinstance(credential, CredentialContainer):
            credential = credential.raw
        try:
            if not isinstance(credential, (bytes, str)):
                return _Entry(parse_container(credential))
            with self._parsed_lock:
                seen = credential in self._parsed
                if seen:  # re-inserted, so it is now the most recently presented
                    entry = self._parsed[credential] = self._parsed.pop(credential)
                    if entry is not None:
                        return entry
            entry = _Entry(parse_container(credential))
        except ValueError as exc:  # a MalformedContainerError among them
            raise _Denied(
                stage, "parse", f"{note}{exc}",
                DenyCode.SIGNATURE_INVALID, f"malformed container{where}: {exc}",
            )
        with self._parsed_lock:
            self._parsed[credential] = entry if seen else None
            if len(self._parsed) > PARSED_CREDENTIALS_KEPT:
                del self._parsed[next(iter(self._parsed))]
        return entry

    def _verify(
        self,
        ev: _Evaluation,
        container: CredentialContainer,
        leaf: bool,
        parent: Optional[CredentialContainer] = None,
    ) -> Optional[DenialReason]:
        """Run the container gate.  The ``leaf`` is presented with the
        request's proof of possession; any other container is bound to its
        own subject, its possession left unchecked.  A delegated link (one
        with a ``parent``) is signed by its parent's subject, so its key
        comes from the parent container, and registry vetting applies only
        to the root issuer."""
        cfg = self.config
        return verify_container(
            container,
            ev.presenter_id if leaf else container.subject_id,
            ev.pop if leaf else None,
            evaluator_id=cfg.evaluator_id,
            trusted_issuers=cfg.trusted_issuers if parent is None else {container.issuer_id: parent.subject_public_key},
            now=ev.now,
            nonce_cache=self.nonce_cache,
            registries=cfg.registries if parent is None else (),
            credential_class=cfg.credential_class,
            profile_id=cfg.profile_id,
            revocations=cfg.revocations,
            pop_required=leaf and cfg.pop_required,
            pop_max_age=cfg.pop_max_age,
            clock_skew=cfg.clock_skew,
        )

    # -- single credential --------------------------------------------------

    def _verify_single(self, ev: _Evaluation, credential: Credential) -> _Entry:
        entry = self._parse(credential, "container")
        container = entry.container
        ev.containers.append(container)
        ev.trace.append(_PARSED)

        # One entry per verification sub-check, stopping at the failure.
        reason = self._verify(ev, container, leaf=True)
        failed_at = len(_VERIFY_CHECKS) if reason is None else _CODE_TO_CHECK[reason.code]
        if reason is None or reason.code is not DenyCode.ISSUER_UNTRUSTED:
            # (an untrusted issuer has no key, so its signature was never checked)
            ev.trace.extend(_VERIFIED[:failed_at])
        if reason is not None:
            raise _Denied.of("container", _VERIFY_CHECKS[failed_at], reason)
        if container.completeness is not None:
            raise _Denied.of("payload", "completeness", container.completeness)
        return entry

    # -- delegation chain ----------------------------------------------------

    def _verify_chain(self, ev: _Evaluation, credentials: list[Credential]) -> _Entry:
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
        entries = [
            self._parse(c, "chain", f"link {i}: ", f" in link {i}")
            for i, c in enumerate(credentials, start=1)
        ]
        containers = [entry.container for entry in entries]
        ev.containers.extend(containers)
        ev.trace.append(_chain_entries(depth)[0])
        ev.trace.append(_CHAIN_DEPTH)

        for index, container in enumerate(containers, start=1):
            if container.completeness is not None:
                raise _Denied.of("chain", f"link {index} payload", container.completeness, f"link {index}: ")

        # Continuity is structural and judged before signatures, so a
        # mis-chained presentation reports the chain defect, not a key defect.
        for index, (parent, child) in enumerate(zip(containers, containers[1:]), start=2):
            defect = continuity_defect(parent, child)
            if defect is not None:
                note, phrase = defect
                check = f"link {index} continuity"
                raise _Denied("chain", check, note, DenyCode.DELEGATION_CHAIN_BROKEN, f"link {index} {phrase}")
            ev.trace.append(_chain_entries(index)[1])

        for index, container in enumerate(containers, start=1):
            # The root is signed by a configured issuer and subject to registry
            # vetting; every later link is signed by its parent's subject.
            parent = containers[index - 2] if index > 1 else None
            reason = self._verify(ev, container, index == depth, parent)
            if reason is not None:
                raise _Denied.of("chain", f"link {index} verify", reason, f"link {index}: ")
            ev.trace.append(_chain_entries(index)[2])

        for index, (parent, child) in enumerate(zip(containers, containers[1:]), start=2):
            check = f"link {index} attenuation"
            defect = widening(parent, child)
            if defect is not None:
                note, phrase = defect
                raise _Denied("chain", check, note, DenyCode.DELEGATION_WIDENED, f"link {index} {phrase}")
            ok, detail = check_attenuation(
                child.payload.constraints or (), parent.payload.constraints or ()
            )
            if not ok:
                raise _Denied(
                    "chain", check, detail, DenyCode.DELEGATION_WIDENED, f"link {index}: {detail}"
                )
            ev.trace.append(_chain_entries(index)[3])

        return entries[-1]

    # -- payload evaluation ---------------------------------------------------

    def _resolve(self, ev: _Evaluation, field: str) -> tuple[Optional[TypedValue], Optional[DenialReason]]:
        """Resolve one semantic field under the profile verdict noted for this
        evaluation; a resolved value is noted for the audit snapshot."""
        cfg = self.config
        value, reason = resolve_semantic_field(
            field, ev.context, cfg.mapping_profile, cfg.vocabularies, ev.profile_status
        )
        if value is not None:
            ev.resolved[field] = value.text
        return value, reason

    def _evaluate_payload(self, ev: _Evaluation, entry: _Entry) -> None:
        cfg = self.config
        action = ev.context.action
        if action not in (entry.container.payload.permissions or frozenset()):
            raise _Denied(
                "payload", "permission", f"{action!r} not granted",
                DenyCode.PERMISSION_DENIED,
                f"action {action!r} is not among the granted permissions",
            )
        ev.trace.append(_PERMITTED)

        ev.profile_status = validate_mapping_profile(cfg.mapping_profile, ev.now, cfg.steward_keys)

        # Opportunistic, for the audit snapshot only: the requested resource is
        # recorded when resolvable, and its absence never alters the decision.
        self._resolve(ev, "core.resource_id")

        ev.plan = entry
        entry.plan()
        context_currency = self._currency(ev, "constraints", entry.needs_currency)
        for label, step, constraint in entry.steps:
            self._evaluate_one_constraint(ev, label, constraint, context_currency)
            ev.trace.append(step)
            ev.passed += 1

        self._apply_local_policy(ev)

    def _currency(self, ev: _Evaluation, stage: str, needed: bool) -> Optional[str]:
        """The request currency when ``needed`` (a limit names one); a missing
        field reads as None, and any other resolution defect denies at ``stage``."""
        if not needed:
            return None
        value, reason = self._resolve(ev, CURRENCY_FIELD)
        if reason is not None and reason.code is not DenyCode.CONTEXT_FIELD_MISSING:
            raise _Denied.of(stage, "currency", reason)
        return value.text if value is not None else None

    def _evaluate_one_constraint(
        self,
        ev: _Evaluation,
        label: str,
        constraint: Constraint,
        context_currency: Optional[str],
    ) -> None:
        """Return when the leaf's constraint passes; a failure raises
        ``_Denied`` naming it as the failed constraint."""
        cfg = self.config
        if isinstance(constraint, UnknownConstraint):
            reason = DenialReason(DenyCode.CONSTRAINT_UNKNOWN, unknown_constraint_detail(constraint.type_tag))
            raise _Denied.of("constraints", label, reason, f"{label}: ", failed_constraint=label)

        value, reason = self._resolve(ev, constraint.field)
        if reason is None and isinstance(constraint, CumulativeLimitConstraint):
            reason = evaluate_cumulative(
                constraint,
                value,
                ev.plan.container.digest(),
                tier=cfg.tier,
                registries=cfg.registries,
                profile_id=cfg.profile_id,
                now=ev.now,
                context_currency=context_currency,
                state_clients=cfg.state_clients,
                epoch_ledger=cfg.epoch_ledger,
                vouchers=ev.vouchers,
                authority_keys=cfg.state_authority_keys,
                voucher_memory=self.voucher_memory,
                freshness=cfg.state_freshness,
            )
        elif reason is None:
            ok, detail = evaluate_constraint(constraint, value, context_currency)
            if not ok:
                reason = DenialReason(DenyCode.CONSTRAINT_FAILED, detail)
        if reason is not None:
            raise _Denied.of("constraints", label, reason, f"{label}: ", failed_constraint=label)

    def _apply_local_policy(self, ev: _Evaluation) -> None:
        policy = self.config.local_policy
        if policy is None:
            return

        def resolved(field: str) -> TypedValue:
            value, reason = self._resolve(ev, field)
            if reason is not None:
                raise _Denied.of("policy", "local policy", reason, "local policy: ")
            return value

        witness = [resolved(field).text for field in policy.required_context_fields]
        context_currency = self._currency(ev, "policy", _names_currency(policy.constraints))
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
        ev.trace.append(TraceEntry("policy", "local policy", f"PASS{suffix}"))

    # -- workflow composition ---------------------------------------------------

    def _compose(self, ev: _Evaluation, policy: WorkflowPolicy, credentials: Sequence[Credential]) -> WorkflowComposition:
        containers = [
            self._parse(c, "workflow", f"credential {i}: ", f" in workflow set ({i})").container
            for i, c in enumerate(credentials, start=1)
        ]
        ev.containers.extend(containers)
        ev.trace.append(TraceEntry("workflow", "parse", f"PASS: {len(containers)} credentials"))

        # Composition is a planning step: each credential is verified as an
        # artifact (signature, trust, window, revocation) with possession
        # deferred to the per-step evaluations that follow.
        for index, container in enumerate(containers, start=1):
            check = f"credential {index} verify"
            reason = self._verify(ev, container, leaf=False)
            if reason is None:
                reason = container.completeness
            if reason is not None:
                raise _Denied.of("workflow", check, reason, f"workflow credential {index}: ")
            ev.trace.append(TraceEntry("workflow", check, "PASS"))

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
            ev.trace.append(
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
            ev.trace.append(TraceEntry("workflow", f"shared field {field}", "PASS"))

        ev.workflow = {
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

    def _governance_member(self, anchored: Optional[CredentialContainer]) -> Rendered:
        """The record's governance member: what the decision was made under,
        the trust anchor being the configured key of ``anchored``'s issuer.
        Rendered once per config snapshot and trust anchor; the snapshot is
        compared on every request, so a reassigned config field takes effect
        on the next record.  A value that is not plain JSON raises
        CanonicalizationError here."""
        cfg = self.config
        snapshot = (
            cfg.tier, cfg.profile_id, cfg.mapping_profile, tuple(cfg.registries),
            cfg.manifest_digest, cfg.local_policy,
        )
        anchor = cfg.trusted_issuers.get(anchored.issuer_id) if anchored else None
        kept = self._governance
        if kept is None or kept[0] != snapshot:
            kept = self._governance = (snapshot, {})
        rendered = kept[1].get(anchor)
        if rendered is None:
            rendered = kept[1][anchor] = Rendered({
                "tier": cfg.tier,
                "profile_id": cfg.profile_id,
                "mapping_profile": cfg.mapping_profile.digest() if cfg.mapping_profile else None,
                "registries": [
                    {"registry_id": r.registry_id, "version": r.version, "digest": r.digest()}
                    for r in snapshot[3]
                ],
                "manifest_digest": cfg.manifest_digest,
                "trust_anchor": anchor,
                "local_policy": cfg.local_policy.policy_id if cfg.local_policy else None,
            })
        return rendered

    def _conclude(self, ev: _Evaluation, denied: Optional[_Denied]) -> Decision:
        """Write the audit record, close the trace and build the decision.

        This is the only place a decision is made.  ``denied`` is the failed
        check that ended the evaluation, or None when every check passed.  A
        record that cannot be written (a failed write, or a config value
        reassigned to one that is not plain JSON) turns the decision into a
        denial.
        """
        cfg = self.config
        if denied is not None:
            denied.trace_failure(ev.trace)
        leaf = ev.containers[-1] if ev.containers else None
        # A chain is anchored by its root link; a workflow set by its last credential.
        anchored = ev.containers[0] if ev.operation == "evaluate_chain" and leaf else leaf
        reason = denied.reason if denied is not None else None
        # Only a failing credential constraint names itself as failed.
        failed = denied is not None and denied.failed_constraint is not None
        plan = ev.plan
        try:
            cfg.audit_log.append(
                operation=ev.operation,
                timestamp=ev.now,
                credential_digests=[c.digest() for c in ev.containers],
                presenter_id=ev.presenter_id,
                subject_id=leaf.subject_id if leaf else None,
                issuer_id=leaf.issuer_id if leaf else None,
                action=ev.context.action if ev.context else None,
                resource=ev.resolved.get("core.resource_id"),
                context_snapshot=ev.resolved,
                constraint_results=plan.results(ev.passed, failed) if plan else [],
                decision_outcome=DENY if reason else ALLOW,
                decision_code=reason.code.value if reason else None,
                decision_detail=reason.detail if reason else "",
                failed_constraint=denied.failed_constraint if denied is not None else None,
                governance=self._governance_member(anchored),
                workflow=ev.workflow,
            )
        except (AuditError, CanonicalizationError) as exc:
            denied = _Denied(
                "decision", "audit", str(exc),
                DenyCode.LOCAL_POLICY_DENIED,
                f"audit append failed, refusing to decide without a record: {exc}",
            )
            denied.trace_failure(ev.trace)
        if denied is None:
            ev.trace.append(_ALLOWED)
            return Decision(ALLOW, trace=tuple(ev.trace))
        ev.trace.append(TraceEntry("decision", "decision", f"DENY: {denied.reason.code.value}"))
        return Decision(DENY, denied.reason, tuple(ev.trace), denied.failed_constraint)
