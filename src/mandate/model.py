"""Core evaluation model: typed values, payloads, request contexts, decisions.

Evaluation is total and fail-closed: every evaluation ends in exactly ALLOW or
DENY with one typed reason from a closed enumeration.  There is no "maybe" and
no stringly-typed reason channel; new failure modes require a new code, not a
new spelling.

Numeric quantities are exact decimals end to end.  Binary floating point is
banned from the evaluation path: a constraint of 5000 must mean 5000, not the
nearest representable double.
"""

from __future__ import annotations

import ipaddress
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from enum import Enum
from typing import Mapping, Optional

ALLOW = "ALLOW"
DENY = "DENY"

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

# Patterns are applied with fullmatch: "$" would also admit a trailing newline.
_DECIMAL_RE = re.compile(r"[+-]?[0-9]+(\.[0-9]+)?")
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
_URI_RE = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*:[^\s]+")
# RFC 3339 section 5.6 date-time; ASCII digits only, as "\d" would admit others.
_OFFSET = r"[+-](?:[01][0-9]|2[0-3]):[0-5][0-9]"
_DATE_TIME_RE = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}[Tt][0-9]{2}:[0-9]{2}:[0-9]{2}(?:\.([0-9]+))?(?:[Zz]|(" + _OFFSET + "))"
)
_TWO_DIGITS = {f"{n:02}": n for n in range(100)}  # its fixed-width fields, read faster than by int()


class ValueParseError(ValueError):
    """A text form does not parse as its declared semantic type."""


class SemanticType(str, Enum):
    """Closed set of value types a semantic identifier may declare."""

    STRING_ID = "string_id"
    STRING_CODE = "string_code"
    TIMESTAMP = "timestamp"
    DECIMAL = "decimal"
    INTEGER = "integer"
    URI = "uri"
    IP_ADDRESS = "ip_address"


STRING_KINDS = frozenset(
    {SemanticType.STRING_ID, SemanticType.STRING_CODE, SemanticType.URI, SemanticType.IP_ADDRESS}
)
NUMERIC_KINDS = frozenset({SemanticType.DECIMAL, SemanticType.INTEGER})


class DenyCode(str, Enum):
    """Every reason an evaluation may deny.  Closed: codes are added by revision, never ad hoc."""

    SIGNATURE_INVALID = "signature_invalid"
    ISSUER_UNTRUSTED = "issuer_untrusted"
    ISSUER_NOT_VETTED = "issuer_not_vetted"
    AUDIENCE_MISMATCH = "audience_mismatch"
    PROOF_OF_POSSESSION_FAILED = "proof_of_possession_failed"
    SUBJECT_BINDING_MISMATCH = "subject_binding_mismatch"
    CREDENTIAL_EXPIRED = "credential_expired"
    CREDENTIAL_REVOKED = "credential_revoked"
    CREDENTIAL_INCOMPLETE = "credential_incomplete"
    PERMISSION_DENIED = "permission_denied"
    CONSTRAINT_UNKNOWN = "constraint_unknown"
    CONTEXT_FIELD_MISSING = "context_field_missing"
    CONSTRAINT_FAILED = "constraint_failed"
    LOCAL_POLICY_DENIED = "local_policy_denied"
    DELEGATION_DEPTH_EXCEEDED = "delegation_depth_exceeded"
    DELEGATION_CHAIN_BROKEN = "delegation_chain_broken"
    DELEGATION_WIDENED = "delegation_widened"
    MAPPING_PROFILE_MISSING = "mapping_profile_missing"
    MAPPING_PROFILE_INVALID = "mapping_profile_invalid"
    SEMANTIC_IDENTIFIER_UNKNOWN = "semantic_identifier_unknown"
    SEMANTIC_ALIAS_CONFLICT = "semantic_alias_conflict"
    SEMANTIC_ALIAS_MISSING = "semantic_alias_missing"
    SEMANTIC_TYPE_MISMATCH = "semantic_type_mismatch"
    WORKFLOW_POLICY_DENIED = "workflow_policy_denied"
    STATE_AUTHORITY_UNPERMITTED = "state_authority_unpermitted"
    STATE_AUTHORITY_UNREACHABLE = "state_authority_unreachable"
    STATE_LIMIT_EXCEEDED = "state_limit_exceeded"
    STATE_STALE = "state_stale"
    STATE_SEQUENCE_INVALID = "state_sequence_invalid"
    STATE_SIGNATURE_INVALID = "state_signature_invalid"


@dataclass(frozen=True)
class DenialReason:
    code: DenyCode
    detail: str = ""

    def to_dict(self) -> dict:
        return {"code": self.code.value, "detail": self.detail}


# --- timestamps -------------------------------------------------------------

def parse_timestamp(text: str) -> datetime:
    """The one reader of timestamps: RFC 3339 ``date-time`` text to an aware
    UTC instant.  Fraction digits past microseconds are dropped."""
    match = _DATE_TIME_RE.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueParseError(f"timestamp {text!r} is not RFC 3339 date-time text")
    fraction, offset = match.groups()
    microsecond = int(fraction[:6].ljust(6, "0")) if fraction else 0
    zone = parse_offset(offset) if offset else timezone.utc
    try:
        return datetime(
            int(text[:4]), _TWO_DIGITS[text[5:7]], _TWO_DIGITS[text[8:10]], _TWO_DIGITS[text[11:13]],
            _TWO_DIGITS[text[14:16]], _TWO_DIGITS[text[17:19]], microsecond, zone,
        ).astimezone(timezone.utc)
    except (ValueError, OverflowError) as exc:
        raise ValueParseError(f"invalid timestamp {text!r}: {exc}") from exc


def parse_offset(text: str) -> Optional[timezone]:
    """A fixed ``±HH:MM`` UTC offset as RFC 3339 writes it; None for other text."""
    if not re.fullmatch(_OFFSET, text):
        return None
    offset = timedelta(hours=int(text[1:3]), minutes=int(text[4:6]))
    return timezone(-offset if text[0] == "-" else offset)


def render_timestamp(value: datetime) -> str:
    """Canonical UTC text form, 'Z' suffix, sub-second digits only when present."""
    if value.tzinfo is None:
        raise ValueParseError("cannot render a naive timestamp")
    text = value.astimezone(timezone.utc).replace(tzinfo=None).isoformat()
    return (text.rstrip("0") if "." in text else text) + "Z"


def _reject_control_chars(text: str, kind: SemanticType) -> None:
    if any(ord(ch) < 0x20 or ord(ch) == 0x7F for ch in text):
        raise ValueParseError(f"{kind.value} value contains a control character")


# --- typed values -----------------------------------------------------------

@dataclass(frozen=True)
class TypedValue:
    """A context or constraint value together with its semantic type.

    ``text`` is the lossless text form (decimals keep their given digits, so
    text -> value -> text round-trips exactly).  ``value`` is the parsed form
    used for comparison: Decimal, int, aware datetime, or str.
    """

    kind: SemanticType
    value: object
    text: str

    def as_decimal(self) -> Decimal:
        if self.kind is SemanticType.DECIMAL:
            return self.value  # type: ignore[return-value]
        if self.kind is SemanticType.INTEGER:
            return Decimal(self.value)  # type: ignore[arg-type]
        raise ValueParseError(f"{self.kind.value} is not numeric")

    def to_dict(self) -> dict:
        return {"type": self.kind.value, "value": self.text}

    @staticmethod
    def from_dict(obj: dict) -> "TypedValue":
        with reading(ValueParseError):
            return parse_typed_value(obj["value"], SemanticType(expect(obj, "type", str)))


# --- field readers: every artifact and config reader takes its fields through
# these, so a field has its exact JSON type or the read fails; nothing is coerced.

def expect(obj: Mapping, key: str, kind: type, optional: bool = False):
    """The field ``key`` of ``obj``, of exactly the JSON type ``kind`` (str,
    int, bool, list or dict; bool is not an int).  An ``optional`` field may
    also be absent or null, and reads as None."""
    value = obj.get(key)
    if type(value) is not kind and not (optional and value is None):
        problem = f"must be {kind.__name__}, got {type(value).__name__}" if key in obj else "is missing"
        raise ValueParseError(f"field {key!r} {problem}")
    return value


def expect_list(value: object, kind: type) -> list:
    """The one reader of a JSON list whose items all have the JSON type
    ``kind``: str for identities, fields and names, dict for rows and nested
    artifacts.  A bare string is refused, never split into characters."""
    if not isinstance(value, list) or not all(map(kind.__instancecheck__, value)):
        raise ValueParseError(f"expected a list of {kind.__name__}")
    return value


class reading:
    """``with reading(error, *args):`` raises a missing or ill-typed field met
    in the block as ``error(*args, detail)``, the artifact's own typed error;
    that error passes through.  A class, not a generator: it is entered on
    every request (a possession proof is read from its signed bytes)."""

    __slots__ = ("error", "args")

    def __init__(self, error: type, *args: object) -> None:
        self.error = error
        self.args = args

    def __enter__(self) -> None:
        return None

    def __exit__(self, kind, exc, traceback) -> bool:
        if exc is None or isinstance(exc, self.error):
            return False
        if isinstance(exc, (LookupError, TypeError, AttributeError, ValueError, RecursionError)):
            detail = f"field {exc.args[0]!r} is missing" if isinstance(exc, KeyError) else str(exc)
            raise self.error(*self.args, detail) from exc
        return False


def parse_decimal(text: object) -> Decimal:
    """The one reader of decimal text (optional sign, digits, optional
    fraction), as limits, budgets and ledger amounts travel."""
    if not isinstance(text, str) or not _DECIMAL_RE.fullmatch(text):
        raise ValueParseError(f"invalid decimal {text!r}")
    return Decimal(text)


def parse_typed_value(text: str, kind: SemanticType) -> TypedValue:
    """Parse a text form by declared type.  Anything ambiguous or lossy is a parse error."""
    if not isinstance(text, str):
        raise ValueParseError(f"{kind.value} values travel as text, got {type(text).__name__}")
    if kind is SemanticType.DECIMAL:
        return TypedValue(kind, parse_decimal(text), text)
    if kind is SemanticType.INTEGER:
        if not _INTEGER_RE.fullmatch(text):
            raise ValueParseError(f"invalid integer {text!r}")
        number = int(text)
        if not _INT64_MIN <= number <= _INT64_MAX:
            raise ValueParseError(f"integer {text!r} outside signed 64-bit range")
        return TypedValue(kind, number, text)
    if kind is SemanticType.TIMESTAMP:
        instant = parse_timestamp(text)
        return TypedValue(kind, instant, render_timestamp(instant))
    if kind is SemanticType.IP_ADDRESS:
        _reject_control_chars(text, kind)
        try:
            ipaddress.ip_address(text)
        except ValueError as exc:
            raise ValueParseError(f"invalid ip_address {text!r}") from exc
        return TypedValue(kind, text, text)
    if kind is SemanticType.URI:
        _reject_control_chars(text, kind)
        if not _URI_RE.fullmatch(text):
            raise ValueParseError(f"invalid uri {text!r}")
        return TypedValue(kind, text, text)
    if kind in (SemanticType.STRING_ID, SemanticType.STRING_CODE):
        if not text:
            raise ValueParseError(f"{kind.value} value must be non-empty")
        _reject_control_chars(text, kind)
        return TypedValue(kind, text, text)
    raise ValueParseError(f"unsupported semantic type {kind!r}")


# --- request context --------------------------------------------------------

@dataclass(frozen=True)
class RequestContext:
    """The receiver's own typed description of the action under evaluation.

    Context is assembled by the enforcing party from data it already trusts;
    it is never taken from the requester's claims.
    """

    action: str
    fields: Mapping[str, TypedValue]

    def get(self, field_name: str) -> Optional[TypedValue]:
        return self.fields.get(field_name)

    def to_dict(self) -> dict:
        return {
            "kind": "request_context",
            "action": self.action,
            "fields": {name: value.to_dict() for name, value in self.fields.items()},
        }

    @staticmethod
    def from_dict(obj: dict) -> "RequestContext":
        with reading(ValueParseError):
            fields = expect(obj, "fields", dict, optional=True) or {}
            return RequestContext(
                action=expect(obj, "action", str),
                fields={name: TypedValue.from_dict(value) for name, value in fields.items()},
            )


# --- authorization payload --------------------------------------------------

@dataclass(frozen=True)
class AuthorizationPayload:
    """What a credential grants: who may do what, under which constraints.

    Fields are optional at this level so that a structurally parseable but
    incomplete payload can be carried to validate_payload, which is the stage
    that owns the credential_incomplete decision.
    """

    agent_id: Optional[str]
    issuer_id: Optional[str]
    permissions: Optional[frozenset[str]]
    constraints: Optional[tuple]  # tuple of constraint values; order defines C1..Cn labels

    def to_dict(self) -> dict:
        body: dict = {}
        if self.agent_id is not None:
            body["agent_id"] = self.agent_id
        if self.issuer_id is not None:
            body["issuer_id"] = self.issuer_id
        if self.permissions is not None:
            body["permissions"] = sorted(self.permissions)
        if self.constraints is not None:
            body["constraints"] = [c.to_dict() for c in self.constraints]
        return body


def validate_payload(payload: AuthorizationPayload) -> Optional[DenialReason]:
    """None when the payload is complete; credential_incomplete otherwise.

    An empty permission set grants nothing and is treated as a missing
    component, not as a valid credential that can never match.
    """
    if not payload.agent_id:
        return DenialReason(DenyCode.CREDENTIAL_INCOMPLETE, "payload missing agent identity")
    if not payload.issuer_id:
        return DenialReason(DenyCode.CREDENTIAL_INCOMPLETE, "payload missing issuer identity")
    if payload.permissions is None or not payload.permissions:
        return DenialReason(DenyCode.CREDENTIAL_INCOMPLETE, "payload permissions absent or empty")
    if payload.constraints is None:
        return DenialReason(DenyCode.CREDENTIAL_INCOMPLETE, "payload constraint list absent")
    keys = {c.duplicate_key() for c in payload.constraints}
    if len(keys) < len(payload.constraints):
        return DenialReason(DenyCode.CREDENTIAL_INCOMPLETE, "payload carries duplicate constraints")
    return None


# --- decisions --------------------------------------------------------------

@dataclass(frozen=True)
class TraceEntry:
    stage: str
    check: str
    result: str

    def to_dict(self) -> dict:
        return {"stage": self.stage, "check": self.check, "result": self.result}


@dataclass(frozen=True)
class Decision:
    """The outcome of one evaluation: ALLOW, or DENY with exactly one typed reason.

    The trace is diagnostic metadata recording every check performed, in
    order; it never alters the outcome.  failed_constraint labels which
    credential constraint (C1..Cn, by payload order) produced the denial,
    when one did.
    """

    outcome: str
    reason: Optional[DenialReason] = None
    trace: tuple = ()
    failed_constraint: Optional[str] = None

    def __post_init__(self) -> None:
        if self.outcome not in (ALLOW, DENY):
            raise ValueError(f"outcome must be ALLOW or DENY, got {self.outcome!r}")
        if self.outcome == DENY and self.reason is None:
            raise ValueError("DENY requires a typed reason")
        if self.outcome == ALLOW and self.reason is not None:
            raise ValueError("ALLOW carries no denial reason")

    @property
    def allowed(self) -> bool:
        return self.outcome == ALLOW

    def to_dict(self) -> dict:
        return {
            "kind": "decision",
            "outcome": self.outcome,
            "reason": self.reason.to_dict() if self.reason else None,
            "failed_constraint": self.failed_constraint,
            "trace": [entry.to_dict() for entry in self.trace],
        }
