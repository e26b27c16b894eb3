"""Stateful cumulative governance: budgets that survive across evaluations.

A cumulative limit cannot be decided from one request; something must keep
the running total.  Three postures are supported, weakest to strongest:

- stateless: the receiver keeps no state, so cumulative constraints deny as
  unreachable; the constraint is honored by refusing what cannot be enforced.
- epoch_bound: each enforcer spends only a pre-allocated slice of the budget
  per epoch, bounding global overshoot without coordination.
- synchronous: every spend is a linearizable reserve against the state
  authority named by the constraint, either directly or via signed vouchers
  the presenter carries from the authority.

Every check here fails toward denial, and the budget boundary is inclusive:
"no more than N in aggregate" admits totals equal to N.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, InvalidOperation
from functools import reduce
from pathlib import Path
from typing import Iterable, Mapping, Optional, Protocol, Sequence, Union

from .appendfile import AppendOnlyFile
# canonical_dumps is not called here, but bench/tracing.py wraps it by this
# module's name, so it stays bound.
from .canonical import Signed, canonical_dumps, load_json, plain_dumps, sha256_hex  # noqa: F401
from .constraints import CumulativeLimitConstraint, Period
from .keys import SigningKey, attach_signature, check_signature
from .model import (
    NUMERIC_KINDS,
    DenialReason,
    DenyCode,
    TypedValue,
    ValueParseError,
    expect,
    parse_decimal,
    parse_timestamp,
    reading,
    render_timestamp,
)

DEFAULT_FRESHNESS = timedelta(seconds=300)
VOUCHER_GENESIS = sha256_hex(b"state-voucher-genesis")
_EPOCH_ORIGIN = datetime(1970, 1, 1, tzinfo=timezone.utc)


class OverBudgetError(RuntimeError):
    pass


class StateUnreachableError(RuntimeError):
    pass


class StateAuthority(Protocol):
    def reserve(self, key: str, amount: Decimal, budget: Decimal, period: Period, now: datetime) -> Decimal:
        """Atomically add ``amount`` to the running total for ``key`` if the
        result stays within ``budget`` (inclusive); return the new total.
        Raises OverBudgetError or StateUnreachableError."""
        ...


def _bucket(period: Period, now: datetime) -> str:
    if period.kind == "per_credential":
        return "all"
    local = now.astimezone(timezone.utc)
    if period.calendar_unit == "day":
        return local.strftime("%Y-%m-%d")
    if period.calendar_unit == "week":
        year, week, _ = local.isocalendar()
        return f"{year}-W{week:02d}"
    return local.strftime("%Y-%m")


# The longest plain text (``format(amount, "f")``) of an amount a ledger
# admits: a file ledger writes an amount so, and an amount written in a
# million digits would make a million-byte row.
_AMOUNT_TEXT_LIMIT = 64


def _plain_length(amount: Decimal) -> int:
    """The length of ``format(amount, "f")`` for a finite ``amount``, judged
    from its sign, digit count and exponent without rendering it."""
    sign, digits, exponent = amount.as_tuple()
    if exponent >= 0:
        return sign + (1 if amount.is_zero() else len(digits) + exponent)
    return sign + max(len(digits), 1 - exponent) + 1


# Ledger totals and voucher arithmetic are exact: the default context rounds
# at 28 significant digits, so 1000 + 1E-25 would read back as 1000 and a
# spent budget would keep admitting.  A result that would round raises.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[InvalidOperation, Inexact])


def _amount_defect(amount: Decimal) -> Optional[str]:
    """The amount rule of every ledger and the cumulative check: what is wrong
    with a Decimal ``amount``, or None.  It must be finite and not negative (a
    ledger never refunds), its plain text at most ``_AMOUNT_TEXT_LIMIT`` long."""
    if not amount.is_finite() or amount < 0:
        return "ledger amount must be finite and not negative"
    if _plain_length(amount) > _AMOUNT_TEXT_LIMIT:
        return f"ledger amount must be written in at most {_AMOUNT_TEXT_LIMIT} characters"
    return None


def _admit(spent: Decimal, amount: Decimal, budget: Decimal) -> Decimal:
    """The running total after spending ``amount``, checked by every ledger
    before it spends or writes anything: a non-Decimal amount raises TypeError,
    one the amount rule refuses ValueError, a total past ``budget`` OverBudgetError."""
    if not isinstance(amount, Decimal):
        raise TypeError(f"ledger amount must be Decimal, got {type(amount).__name__}")
    defect = _amount_defect(amount)
    if defect is not None:
        raise ValueError(defect)
    total = _EXACT.add(spent, amount)
    if total > budget:
        raise OverBudgetError(f"{format(total, 'f')} would exceed budget {format(budget, 'f')}")
    return total


class InMemoryStateAuthority:
    """Linearizable in-process reserve ledger: one lock, check then commit.

    Every ledger keeps one accounting rule, ``_spent`` and ``_add``: a request
    sees its key's spends in its bucket (the credential, or the UTC day, week
    or month of ``now``), or for a rolling period every spend at or after
    ``now - window``, later ones too.  Nothing is pruned, so a ledger rebuilt
    from its rows admits what the live one did, whatever order requests came in.
    """

    def __init__(self, authority_id: str) -> None:
        self.authority_id = authority_id
        self._lock = threading.Lock()
        self._totals: dict[tuple[str, str], Decimal] = {}
        self._events: dict[str, list[tuple[datetime, Decimal]]] = {}

    def _spent(self, key: str, period: Period, now: datetime) -> Decimal:
        if period.kind == "rolling":
            since = now - timedelta(seconds=period.duration_seconds or 0)
            return reduce(_EXACT.add, (spend for at, spend in self._events.get(key, ()) if at >= since), Decimal(0))
        return self._totals.get((key, _bucket(period, now)), Decimal(0))

    def _add(self, key: str, amount: Decimal, period: Period, now: datetime) -> None:
        if period.kind == "rolling":
            self._events.setdefault(key, []).append((now, amount))
            return
        bucket = (key, _bucket(period, now))
        self._totals[bucket] = _EXACT.add(self._totals.get(bucket, Decimal(0)), amount)

    # In memory, keeping an admitted spend is counting it; a file ledger writes its row first.
    _keep = _add

    def reserve(self, key: str, amount: Decimal, budget: Decimal, period: Period, now: datetime) -> Decimal:
        """Type the key (a non-str key's row would not read back), admit, keep."""
        if not isinstance(key, str):
            raise TypeError(f"ledger key must be str, got {type(key).__name__}")
        with self._lock:
            total = _admit(self._spent(key, period, now), amount, budget)
            self._keep(key, amount, period, now)
            return total

    def replay(self, rows: Iterable[Mapping]) -> None:
        """Add ledger rows as history without enforcing a budget.

        This is the one reader of the ledger row ``{key, amount, period,
        timestamp}``: a reopened file ledger and a fixture's reservations
        both come through here.  ``amount`` is decimal text, as the ledger
        writes it; anything else raises ValueParseError.
        """
        with self._lock, reading(ValueParseError):
            for row in rows:
                key = expect(row, "key", str)
                amount = parse_decimal(row["amount"])
                self._add(key, amount, Period.from_dict(row["period"]), parse_timestamp(row["timestamp"]))

    def spent(self, key: str, period: Period, now: datetime) -> Decimal:
        with self._lock:
            return self._spent(key, period, now)


class FileStateAuthority(InMemoryStateAuthority):
    """Reserve ledger persisted as canonical append-only lines.

    Reservations are replayed at load, so restarts keep their running totals;
    a ledger that does not end in a newline has a torn last line and is
    refused, untouched.  Rows are written through one kept handle
    (``appendfile``), opened on the first reserve.  Keeping an admitted spend
    writes its row, then counts it, under the one reserve body's lock: a line
    that cannot be written spends nothing, so memory never holds a spend that
    a reopened ledger would not.  After a failed write every reserve is refused.
    """

    def __init__(self, authority_id: str, path: Union[str, Path]) -> None:
        super().__init__(authority_id)
        self.path = Path(path)
        self._file = AppendOnlyFile(self.path)
        if self.path.exists():
            data = self.path.read_bytes()
            if data and not data.endswith(b"\n"):
                raise StateUnreachableError(f"state ledger {self.path} ends in a partial line")
            # Rows are decoded one at a time, so a long ledger never holds
            # every row's objects at once.
            self.replay(load_json(line) for line in data.split(b"\n") if line.strip())

    # bench/tracing.py wraps this class's own binding, so it stays bound here.
    reserve = InMemoryStateAuthority.reserve

    def _keep(self, key: str, amount: Decimal, period: Period, now: datetime) -> None:
        # Built from values typed here and by Period: rendered without a walk.
        row = {
            "key": key,
            "amount": format(amount, "f"),
            "period": period.to_dict(),
            "timestamp": render_timestamp(now),
        }
        try:
            self._file.append((plain_dumps(row) + "\n").encode("utf-8"))
        except OSError as exc:
            raise StateUnreachableError(f"state ledger not writable: {exc}") from exc
        self._add(key, amount, period, now)


# --- epoch-bound quotas -------------------------------------------------------

@dataclass(frozen=True)
class EpochQuota:
    enforcer_id: str
    allocation: Decimal
    epoch_length_seconds: int

    def __post_init__(self) -> None:
        # EpochLedger.reserve compares every total with the allocation, and a
        # NaN one raises there, after the request's nonce is spent.  Zero is
        # a slice allocate_epoch_quotas may hand out.
        if not isinstance(self.allocation, Decimal):
            raise TypeError(f"epoch allocation must be Decimal, got {type(self.allocation).__name__}")
        if not self.allocation.is_finite() or self.allocation < 0:
            raise ValueError("epoch allocation must be finite and not negative")
        # A zero length divides by zero in EpochLedger.reserve; a negative one
        # counts epochs backwards.
        if self.epoch_length_seconds <= 0:
            raise ValueError("epoch length must be positive")


@dataclass(frozen=True)
class EpochAllocation:
    quotas: tuple[EpochQuota, ...]
    max_concurrent_exposure: Decimal  # worst case if every enforcer spends its slice before sync


def allocate_epoch_quotas(
    budget: Decimal,
    enforcer_ids: Sequence[str],
    epoch_length_seconds: int,
) -> EpochAllocation:
    """Split a budget into per-enforcer epoch slices, largest remainder first.

    The split is exact at the budget's own granularity: a budget of 100 over
    three enforcers yields 34, 33, 33 and sums back to 100.
    """
    if not enforcer_ids:
        raise ValueError("at least one enforcer required")
    # Integer quanta of the budget's own exponent, so nothing is rounded at
    # the default context's 28 digits; a non-finite budget has no quanta.
    exponent = budget.as_tuple().exponent
    if not isinstance(exponent, int):
        raise ValueError("epoch budget must be finite")
    base, leftover = divmod(int(_EXACT.scaleb(budget, -exponent)), len(enforcer_ids))
    quotas = tuple(
        EpochQuota(
            enforcer_id=enforcer_id,
            allocation=_EXACT.scaleb(Decimal(base + (i < leftover)), exponent),
            epoch_length_seconds=epoch_length_seconds,
        )
        for i, enforcer_id in enumerate(enforcer_ids)
    )
    allocated = reduce(_EXACT.add, (q.allocation for q in quotas), Decimal(0))
    assert allocated == budget, "epoch allocation must be exact"
    return EpochAllocation(quotas=quotas, max_concurrent_exposure=allocated)


class EpochLedger:
    """One enforcer's local spend: a slice per epoch index, never reset."""

    def __init__(self, quota: EpochQuota) -> None:
        self.quota = quota
        self._lock = threading.Lock()
        self._totals: dict[int, Decimal] = {}

    def reserve(self, amount: Decimal, now: datetime) -> Decimal:
        index = (now - _EPOCH_ORIGIN) // timedelta(seconds=self.quota.epoch_length_seconds)
        with self._lock:
            self._totals[index] = _admit(self._totals.get(index, Decimal(0)), amount, self.quota.allocation)
            return self._totals[index]


# --- state vouchers -----------------------------------------------------------

@dataclass(frozen=True)
class StateVoucher(Signed):
    """A signed attestation of one credential's running total at a point in time."""

    authority_id: str
    credential_digest: str
    sequence: int
    spent: Decimal
    remaining: Decimal
    observed_at: datetime
    prev_signature: str
    raw: dict

    @property
    def signature_value(self) -> str:
        envelope = self.raw.get("signature")
        return envelope.get("value", "") if isinstance(envelope, dict) else ""

    def link_digest(self) -> str:
        """What the next voucher's prev_signature must equal."""
        return sha256_hex(self.signature_value)

    @staticmethod
    def from_dict(obj: dict) -> "StateVoucher":
        if not isinstance(obj, dict) or obj.get("kind") != "state_voucher":
            raise ValueParseError("not a state voucher")
        with reading(ValueParseError):
            return StateVoucher(
                authority_id=expect(obj, "authority_id", str),
                credential_digest=expect(obj, "credential_digest", str),
                sequence=expect(obj, "sequence", int),
                spent=parse_decimal(obj["spent"]),
                remaining=parse_decimal(obj["remaining"]),
                observed_at=parse_timestamp(obj["observed_at"]),
                prev_signature=expect(obj, "prev_signature", str),
                raw=obj,
            )


def make_voucher(
    credential_digest: str,
    budget: Decimal,
    authority_id: str,
    authority_key: SigningKey,
    now: datetime,
) -> StateVoucher:
    """The genesis voucher, signed only for a budget the ledgers' amount rule
    admits and that is not zero: a non-Decimal one raises TypeError, any other
    refused one ValueError."""
    if not isinstance(budget, Decimal):
        raise TypeError(f"voucher budget must be Decimal, got {type(budget).__name__}")
    defect = _amount_defect(budget)
    if defect is not None or budget.is_zero():
        raise ValueError(f"voucher budget refused: {defect or 'it is zero'}")
    body = {
        "kind": "state_voucher",
        "authority_id": authority_id,
        "credential_digest": credential_digest,
        "sequence": 1,
        "spent": "0",
        "remaining": format(budget, "f"),
        "observed_at": render_timestamp(now),
        "prev_signature": VOUCHER_GENESIS,
    }
    return StateVoucher.from_dict(attach_signature(body, authority_key))


def update_voucher(
    previous: StateVoucher,
    amount: Decimal,
    authority_key: SigningKey,
    now: datetime,
) -> StateVoucher:
    """The voucher after spending ``amount``, signed only for an amount the
    ledgers' amount rule admits: a non-Decimal one raises TypeError, a
    negative one (a refund) or any other it refuses ValueError."""
    if not isinstance(amount, Decimal):
        raise TypeError(f"voucher amount must be Decimal, got {type(amount).__name__}")
    defect = _amount_defect(amount)
    if defect is not None:
        raise ValueError("voucher updates never refund" if amount.is_finite() and amount < 0 else defect)
    if amount > previous.remaining:
        raise OverBudgetError(
            f"{format(amount, 'f')} exceeds remaining {format(previous.remaining, 'f')}"
        )
    body = {
        "kind": "state_voucher",
        "authority_id": previous.authority_id,
        "credential_digest": previous.credential_digest,
        "sequence": previous.sequence + 1,
        "spent": format(_EXACT.add(previous.spent, amount), "f"),
        "remaining": format(_EXACT.subtract(previous.remaining, amount), "f"),
        "observed_at": render_timestamp(now),
        "prev_signature": previous.link_digest(),
    }
    return StateVoucher.from_dict(attach_signature(body, authority_key))


class VoucherMemory:
    """Highest terminal sequence ever accepted per credential: rollback protection."""

    def __init__(self) -> None:
        self._highest: dict[str, int] = {}
        self._lock = threading.Lock()

    def check_and_advance(self, credential_digest: str, terminal_sequence: int) -> bool:
        with self._lock:
            best = self._highest.get(credential_digest, 0)
            if terminal_sequence <= best:
                return False
            self._highest[credential_digest] = terminal_sequence
            return True


def verify_voucher_chain(
    vouchers: Sequence[StateVoucher],
    constraint: CumulativeLimitConstraint,
    *,
    authority_keys: Mapping[str, str],
    now: datetime,
    freshness: timedelta = DEFAULT_FRESHNESS,
    memory: Optional[VoucherMemory] = None,
    credential_digest: Optional[str] = None,
) -> tuple[Optional[StateVoucher], Optional[DenialReason]]:
    """Validate a presented voucher chain and return its terminal voucher.

    Each voucher is read from its signed ``raw`` (one that does not read is
    state_signature_invalid), so the object's own fields are never trusted,
    and the terminal voucher returned is the one read.  Checks, in order:
    the chain is non-empty and names the constraint's
    authority throughout; every signature verifies against that authority's
    key; linkage digests connect the presented links; sequences strictly
    increase, and the terminal sequence advances past anything previously
    accepted for this credential; the newest attestation is no older than the
    freshness bound (age exactly equal is accepted); and the attested
    arithmetic is consistent (spent never decreases, spent + remaining always
    equals the constraint budget).  Content inconsistencies read as
    state_signature_invalid: a correctly signed voucher that does not add up
    is still not a trustworthy attestation.
    """
    if not vouchers:
        return None, DenialReason(
            DenyCode.STATE_AUTHORITY_UNREACHABLE, "no state attestation presented"
        )
    # A voucher decides as its signed raw: the object's own fields are never trusted.
    try:
        vouchers = [StateVoucher.from_dict(voucher.raw) for voucher in vouchers]
    except ValueParseError as exc:
        return None, DenialReason(DenyCode.STATE_SIGNATURE_INVALID, f"voucher does not read: {exc}")
    pointer = constraint.state_authority_pointer
    for voucher in vouchers:
        if voucher.authority_id != pointer:
            return None, DenialReason(
                DenyCode.STATE_SIGNATURE_INVALID,
                f"voucher names authority {voucher.authority_id!r}, constraint pins {pointer!r}",
            )
    public_hex = authority_keys.get(pointer)
    if public_hex is None:
        return None, DenialReason(
            DenyCode.STATE_SIGNATURE_INVALID, f"no key held for state authority {pointer!r}"
        )
    for voucher in vouchers:
        if not check_signature(voucher.raw, public_hex):
            return None, DenialReason(
                DenyCode.STATE_SIGNATURE_INVALID, f"voucher {voucher.sequence} signature does not verify"
            )
        if credential_digest is not None and voucher.credential_digest != credential_digest:
            return None, DenialReason(
                DenyCode.STATE_SIGNATURE_INVALID,
                f"voucher {voucher.sequence} attests a different credential",
            )
    for prev, current in zip(vouchers, vouchers[1:]):
        if current.prev_signature != prev.link_digest():
            return None, DenialReason(
                DenyCode.STATE_SEQUENCE_INVALID,
                f"voucher {current.sequence} does not link to voucher {prev.sequence}",
            )
    if vouchers[0].sequence == 1 and vouchers[0].prev_signature != VOUCHER_GENESIS:
        return None, DenialReason(
            DenyCode.STATE_SEQUENCE_INVALID, "first voucher does not anchor at the genesis digest"
        )
    sequences = [v.sequence for v in vouchers]
    if any(b <= a for a, b in zip(sequences, sequences[1:])) or sequences[0] < 1:
        return None, DenialReason(
            DenyCode.STATE_SEQUENCE_INVALID, "voucher sequence numbers must strictly increase"
        )
    terminal = vouchers[-1]
    if memory is not None and credential_digest is not None:
        if not memory.check_and_advance(credential_digest, terminal.sequence):
            return None, DenialReason(
                DenyCode.STATE_SEQUENCE_INVALID,
                f"sequence {terminal.sequence} was already consumed; replay or rollback",
            )
    age = now - terminal.observed_at
    if age > freshness:
        return None, DenialReason(
            DenyCode.STATE_STALE,
            f"newest attestation is {int(age.total_seconds())}s old, freshness bound is "
            f"{int(freshness.total_seconds())}s",
        )
    budget = constraint.budget
    previous_spent = None
    for voucher in vouchers:
        if voucher.spent < 0 or voucher.remaining < 0 or _EXACT.add(voucher.spent, voucher.remaining) != budget:
            return None, DenialReason(
                DenyCode.STATE_SIGNATURE_INVALID,
                f"voucher {voucher.sequence} arithmetic does not reconcile with the budget",
            )
        if previous_spent is not None and voucher.spent < previous_spent:
            return None, DenialReason(
                DenyCode.STATE_SIGNATURE_INVALID,
                f"attested spend decreases at voucher {voucher.sequence}",
            )
        previous_spent = voucher.spent
    return terminal, None


# --- cumulative evaluation ------------------------------------------------------

TIER_STATELESS = "stateless"
TIER_EPOCH_BOUND = "epoch_bound"
TIER_SYNCHRONOUS = "synchronous"
TIERS = (TIER_STATELESS, TIER_EPOCH_BOUND, TIER_SYNCHRONOUS)


def evaluate_cumulative(
    constraint: CumulativeLimitConstraint,
    amount: TypedValue,
    credential_digest: str,
    *,
    tier: str,
    registries: Sequence,
    profile_id: str,
    now: datetime,
    context_currency: Optional[str] = None,
    state_clients: Optional[Mapping[str, StateAuthority]] = None,
    epoch_ledger: Optional[EpochLedger] = None,
    vouchers: Optional[Sequence[StateVoucher]] = None,
    authority_keys: Optional[Mapping[str, str]] = None,
    voucher_memory: Optional[VoucherMemory] = None,
    freshness: timedelta = DEFAULT_FRESHNESS,
) -> Optional[DenialReason]:
    """Enforce one cumulative limit under the configured tier; None means pass.

    The state authority pointer must be permitted by an accepted in-window
    registry regardless of tier: the pointer is the anti-spoofing anchor, and
    an unvouched ledger must not count spending.
    """
    if constraint.currency is not None and context_currency != constraint.currency:
        return DenialReason(
            DenyCode.CONSTRAINT_FAILED,
            f"cumulative limit is in {constraint.currency}, context currency is "
            f"{context_currency or '(absent)'}",
        )
    if amount.kind not in NUMERIC_KINDS:
        return DenialReason(
            DenyCode.CONSTRAINT_FAILED, f"field {constraint.field} is {amount.kind.value}, not numeric"
        )
    spend = amount.as_decimal()
    defect = _amount_defect(spend)
    if defect is not None:
        return DenialReason(DenyCode.CONSTRAINT_FAILED, defect)
    pointer = constraint.state_authority_pointer
    permitted = any(
        r.in_window(now) and r.permits_state_authority(pointer, profile_id) for r in registries
    )
    if not permitted:
        return DenialReason(
            DenyCode.STATE_AUTHORITY_UNPERMITTED,
            f"no accepted registry permits state authority {pointer!r}",
        )
    if tier == TIER_STATELESS:
        return DenialReason(
            DenyCode.STATE_AUTHORITY_UNREACHABLE,
            "stateless tier keeps no running totals; cumulative limits cannot be enforced",
        )
    if tier == TIER_EPOCH_BOUND and epoch_ledger is None:
        return DenialReason(
            DenyCode.STATE_AUTHORITY_UNREACHABLE, "no epoch quota allocated to this enforcer"
        )
    if tier not in (TIER_EPOCH_BOUND, TIER_SYNCHRONOUS):
        return DenialReason(DenyCode.STATE_AUTHORITY_UNREACHABLE, f"unknown tier {tier!r}")
    client = (state_clients or {}).get(pointer)
    try:
        if tier == TIER_EPOCH_BOUND:
            epoch_ledger.reserve(spend, now)
            return None
        if client is not None:
            client.reserve(credential_digest, spend, constraint.budget, constraint.period, now)
            return None
    except OverBudgetError as exc:
        return DenialReason(DenyCode.STATE_LIMIT_EXCEEDED, str(exc))
    except StateUnreachableError as exc:
        return DenialReason(DenyCode.STATE_AUTHORITY_UNREACHABLE, str(exc))
    if vouchers:
        terminal, problem = verify_voucher_chain(
            list(vouchers),
            constraint,
            authority_keys=authority_keys or {},
            now=now,
            freshness=freshness,
            memory=voucher_memory,
            credential_digest=credential_digest,
        )
        if problem is not None:
            return problem
        assert terminal is not None
        if spend > terminal.remaining:
            return DenialReason(
                DenyCode.STATE_LIMIT_EXCEEDED,
                f"{format(spend, 'f')} exceeds attested remaining {format(terminal.remaining, 'f')}",
            )
        return None
    return DenialReason(
        DenyCode.STATE_AUTHORITY_UNREACHABLE,
        f"no reserve channel to state authority {pointer!r} and no vouchers presented",
    )
