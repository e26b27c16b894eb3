"""Stateful cumulative governance: reserve ledgers, epoch slices, voucher chains."""

import json
import shutil
import sys
import tempfile
import threading
from datetime import timedelta
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ReferenceLedger

from mandate.conformance import FixtureError, build_engine
from mandate.constraints import CumulativeLimitConstraint, Period
from mandate.keys import generate_key
from mandate.model import DenyCode, SemanticType, parse_timestamp, parse_typed_value
from mandate.registry import IssuerEntry, StateAuthorityEntry, build_registry
from mandate.stateful import (
    _AMOUNT_TEXT_LIMIT,
    EpochLedger,
    EpochQuota,
    FileStateAuthority,
    InMemoryStateAuthority,
    OverBudgetError,
    StateUnreachableError,
    VoucherMemory,
    allocate_epoch_quotas,
    evaluate_cumulative,
    make_voucher,
    update_voucher,
    verify_voucher_chain,
)

NOW = parse_timestamp("2026-05-01T12:00:00Z")
POINTER = "https://state.test.example/ledger"
AUTHORITY = generate_key(POINTER, seed="stateful:authority")
AUTHORITY_KEYS = {POINTER: AUTHORITY.public_hex}
STEWARD = generate_key("steward:test", seed="stateful:steward")


def constraint(budget="1000", period=None, currency=None):
    return CumulativeLimitConstraint(
        field="core.amount",
        budget=Decimal(budget),
        state_authority_pointer=POINTER,
        period=period or Period(kind="per_credential"),
        currency=currency,
    )


def registry(with_pointer=True):
    authorities = [StateAuthorityEntry(pointer=POINTER, profiles=frozenset({"*"}))] if with_pointer else []
    return build_registry(
        registry_id="registry:test",
        version=1,
        valid_from=parse_timestamp("2026-01-01T00:00:00Z"),
        valid_until=parse_timestamp("2026-12-31T23:59:59Z"),
        issuers=[
            IssuerEntry(
                issuer_id="iss:test:authority",
                standing="active",
                credential_classes=frozenset({"*"}),
                profiles=frozenset({"*"}),
            )
        ],
        steward_key=STEWARD,
        state_authorities=authorities,
    )


def amount(text):
    return parse_typed_value(text, SemanticType.DECIMAL)


def evaluate(c, spend, **kwargs):
    args = dict(
        tier="synchronous",
        registries=[registry()],
        profile_id="claims",
        now=NOW,
    )
    args.update(kwargs)
    return evaluate_cumulative(c, amount(spend), "digest-1", **args)


# --- reserve ledgers -----------------------------------------------------------

def test_budget_boundary_is_inclusive():
    ledger = InMemoryStateAuthority(POINTER)
    period = Period(kind="per_credential")
    ledger.reserve("k", Decimal("750"), Decimal("1000"), period, NOW)
    # Landing exactly on the budget is allowed.
    assert ledger.reserve("k", Decimal("250"), Decimal("1000"), period, NOW) == Decimal("1000")
    with pytest.raises(OverBudgetError):
        ledger.reserve("k", Decimal("0.01"), Decimal("1000"), period, NOW)


def test_per_credential_keys_are_isolated():
    ledger = InMemoryStateAuthority(POINTER)
    period = Period(kind="per_credential")
    ledger.reserve("a", Decimal("900"), Decimal("1000"), period, NOW)
    assert ledger.reserve("b", Decimal("900"), Decimal("1000"), period, NOW) == Decimal("900")


def test_rolling_window_forgets_old_events():
    ledger = InMemoryStateAuthority(POINTER)
    period = Period(kind="rolling", duration_seconds=3600)
    ledger.reserve("k", Decimal("800"), Decimal("1000"), period, NOW)
    with pytest.raises(OverBudgetError):
        ledger.reserve("k", Decimal("300"), Decimal("1000"), period, NOW + timedelta(minutes=30))
    # Outside the window the old spend no longer counts.
    assert ledger.reserve(
        "k", Decimal("300"), Decimal("1000"), period, NOW + timedelta(minutes=61)
    ) == Decimal("300")


def rolling_probe(ledger_for_step):
    """60 at t=0, 10 at t=100, then 60 at t=30 on a 60 s window with budget 100;
    the window ending at t=30 would hold 120, so the third spend is refused."""
    period = Period(kind="rolling", duration_seconds=60)
    outcomes = []
    for spend, at in (("60", 0), ("10", 100), ("60", 30)):
        try:
            ledger_for_step().reserve("k", Decimal(spend), Decimal("100"), period, NOW + timedelta(seconds=at))
            outcomes.append("admit")
        except OverBudgetError:
            outcomes.append("refuse")
    return outcomes


def test_a_rolling_spend_counts_for_an_earlier_request_whose_window_reaches_it():
    ledger = InMemoryStateAuthority(POINTER)
    assert rolling_probe(lambda: ledger) == ["admit", "admit", "refuse"]


def test_live_and_reopened_file_ledgers_refuse_the_same_out_of_order_spend(tmp_path):
    path = tmp_path / "ledger.jsonl"
    live = FileStateAuthority(POINTER, path)
    assert rolling_probe(lambda: live) == ["admit", "admit", "refuse"]
    reopened_path = tmp_path / "reopened.jsonl"
    assert rolling_probe(lambda: FileStateAuthority(POINTER, reopened_path)) == ["admit", "admit", "refuse"]
    assert path.read_bytes() == reopened_path.read_bytes()


def test_calendar_window_buckets():
    ledger = InMemoryStateAuthority(POINTER)
    period = Period(kind="calendar", calendar_unit="day")
    ledger.reserve("k", Decimal("1000"), Decimal("1000"), period, NOW)
    with pytest.raises(OverBudgetError):
        ledger.reserve("k", Decimal("1"), Decimal("1000"), period, NOW + timedelta(hours=1))
    assert ledger.reserve(
        "k", Decimal("1000"), Decimal("1000"), period, NOW + timedelta(days=1)
    ) == Decimal("1000")


def test_file_ledger_replays_on_restart(tmp_path):
    path = tmp_path / "ledger.jsonl"
    period = Period(kind="per_credential")
    first = FileStateAuthority(POINTER, path)
    first.reserve("k", Decimal("600"), Decimal("1000"), period, NOW)
    resumed = FileStateAuthority(POINTER, path)
    assert resumed.reserve("k", Decimal("400"), Decimal("1000"), period, NOW) == Decimal("1000")
    with pytest.raises(OverBudgetError):
        resumed.reserve("k", Decimal("1"), Decimal("1000"), period, NOW)


def test_file_ledger_splits_rows_only_at_newlines(tmp_path):
    path = tmp_path / "ledger.jsonl"
    period = Period(kind="per_credential")
    key = "k\u2028ey"  # U+2028 is text, not a line end
    FileStateAuthority(POINTER, path).reserve(key, Decimal("600"), Decimal("1000"), period, NOW)
    resumed = FileStateAuthority(POINTER, path)
    with pytest.raises(OverBudgetError):
        resumed.reserve(key, Decimal("401"), Decimal("1000"), period, NOW)


@pytest.mark.parametrize("key", [5, True, None, b"k"], ids=["int", "bool", "none", "bytes"])
def test_a_key_that_is_not_str_spends_and_writes_nothing(tmp_path, key):
    path = tmp_path / "ledger.jsonl"
    period = Period(kind="per_credential")
    ledger = FileStateAuthority(POINTER, path)
    ledger.reserve("k", Decimal("1"), Decimal("10"), period, NOW)
    before = path.read_bytes()
    with pytest.raises(TypeError, match="ledger key must be str"):
        ledger.reserve(key, Decimal("1"), Decimal("10"), period, NOW)
    assert path.read_bytes() == before and ledger.spent(key, period, NOW) == Decimal(0)
    # Every row written reads back, so the reopened ledger keeps the running total.
    assert FileStateAuthority(POINTER, path).reserve("k", Decimal("9"), Decimal("10"), period, NOW) == Decimal("10")


@pytest.mark.parametrize("key", [5, None, b"k"], ids=["int", "none", "bytes"])
def test_an_in_memory_ledger_types_its_key_as_the_file_ledger_does(key):
    period = Period(kind="per_credential")
    ledger = InMemoryStateAuthority(POINTER)
    with pytest.raises(TypeError, match="ledger key must be str"):
        ledger.reserve(key, Decimal("1"), Decimal("10"), period, NOW)
    assert ledger.spent(key, period, NOW) == Decimal(0)


# Amounts no ledger may spend: each is refused before anything is spent or written.
UNSPENDABLE = pytest.mark.parametrize(
    ("amount", "error"),
    [
        (Decimal("-Infinity"), ValueError),
        (Decimal("Infinity"), ValueError),
        (Decimal("NaN"), ValueError),
        (Decimal("-5"), ValueError),
        (5, TypeError),
        ("5", TypeError),
        (Decimal("1e-1000000"), ValueError),
        (Decimal("1" * 100_002), ValueError),
    ],
    ids=["-infinity", "infinity", "nan", "negative", "int", "str", "million-digit-fraction", "long-integer"],
)


@UNSPENDABLE
def test_a_file_ledger_refuses_an_unspendable_amount(tmp_path, amount, error):
    path = tmp_path / "ledger.jsonl"
    period = Period(kind="per_credential")
    ledger = FileStateAuthority(POINTER, path)
    ledger.reserve("k", Decimal("1"), Decimal("10"), period, NOW)
    before = path.read_bytes()
    with pytest.raises(error, match="ledger amount"):
        ledger.reserve("k", amount, Decimal("10"), period, NOW)
    assert path.read_bytes() == before and ledger.spent("k", period, NOW) == Decimal("1")
    assert FileStateAuthority(POINTER, path).reserve("k", Decimal("9"), Decimal("10"), period, NOW) == Decimal("10")


@UNSPENDABLE
def test_an_in_memory_ledger_refuses_an_unspendable_amount(amount, error):
    for period in (Period(kind="per_credential"), Period(kind="rolling", duration_seconds=3600)):
        ledger = InMemoryStateAuthority(POINTER)
        ledger.reserve("k", Decimal("1"), Decimal("10"), period, NOW)
        with pytest.raises(error, match="ledger amount"):
            ledger.reserve("k", amount, Decimal("10"), period, NOW)
        assert ledger.spent("k", period, NOW) == Decimal("1")


@UNSPENDABLE
def test_an_epoch_ledger_refuses_an_unspendable_amount(amount, error):
    ledger = EpochLedger(EpochQuota("e1", Decimal("100"), epoch_length_seconds=600))
    ledger.reserve(Decimal("100"), NOW)
    with pytest.raises(error, match="ledger amount"):
        ledger.reserve(amount, NOW)
    with pytest.raises(OverBudgetError):  # the epoch's total is still its whole slice
        ledger.reserve(Decimal("1"), NOW)


# 1000 + TINY has 29 significant digits; the default decimal context rounds
# it back to 1000, which would fit a budget of 1000.
TINY = Decimal("0.0000000000000000000000001")
PERIODS = pytest.mark.parametrize(
    "period", [Period(kind="per_credential"), Period(kind="rolling", duration_seconds=3600)], ids=["bucket", "rolling"]
)


@PERIODS
def test_every_ledger_refuses_a_spend_the_default_decimal_context_would_round_away(tmp_path, period):
    for ledger in (InMemoryStateAuthority(POINTER), FileStateAuthority(POINTER, tmp_path / f"{period.kind}.jsonl")):
        assert ledger.reserve("k", Decimal("1000"), Decimal("1000"), period, NOW) == Decimal("1000")
        with pytest.raises(OverBudgetError):
            ledger.reserve("k", TINY, Decimal("1000"), period, NOW)
    epoch = EpochLedger(EpochQuota("e1", Decimal("1000"), epoch_length_seconds=600))
    epoch.reserve(Decimal("1000"), NOW)
    with pytest.raises(OverBudgetError):
        epoch.reserve(TINY, NOW)


@PERIODS
def test_ledger_totals_are_exact_live_and_reopened(tmp_path, period):
    path = tmp_path / "ledger.jsonl"
    live = FileStateAuthority(POINTER, path)
    for spend in (Decimal("1000"), TINY, TINY * 3):
        live.reserve("k", spend, Decimal("2000"), period, NOW)
    exact = "1000.0000000000000000000000004"
    assert str(live.spent("k", period, NOW)) == exact
    assert str(FileStateAuthority(POINTER, path).spent("k", period, NOW)) == exact


def test_file_ledger_write_failure_spends_nothing(tmp_path):
    path = tmp_path / "ledger.jsonl"
    period = Period(kind="per_credential")
    ledger = FileStateAuthority(POINTER, path)
    path.mkdir()  # the next append cannot open the ledger file
    with pytest.raises(StateUnreachableError):
        ledger.reserve("k", Decimal("60"), Decimal("100"), period, NOW)
    path.rmdir()
    assert ledger.reserve("k", Decimal("60"), Decimal("100"), period, NOW) == Decimal("60")
    with pytest.raises(OverBudgetError):
        ledger.reserve("k", Decimal("41"), Decimal("100"), period, NOW)
    assert len(path.read_text("utf-8").splitlines()) == 1  # one line per granted reserve
    resumed = FileStateAuthority(POINTER, path)
    assert resumed.reserve("k", Decimal("40"), Decimal("100"), period, NOW) == Decimal("100")


def test_file_ledger_opens_its_file_once(tmp_path, monkeypatch):
    from mandate import appendfile

    opened = []

    def counted(*args, **kwargs):
        opened.append(args)
        return open(*args, **kwargs)

    monkeypatch.setattr(appendfile, "open", counted, raising=False)
    path = tmp_path / "ledger.jsonl"
    ledger = FileStateAuthority(POINTER, path)
    assert opened == [] and not path.exists()  # opened on the first reserve, not before
    for _ in range(50):
        ledger.reserve("k", Decimal("1"), Decimal("100"), Period(kind="per_credential"), NOW)
    assert opened == [(path, "ab")] and len(path.read_bytes().splitlines()) == 50


@pytest.mark.parametrize("cut", [1, 20, -1], ids=["one-byte", "mid-row", "newline-missing"])
def test_a_torn_ledger_tail_refuses_to_reopen(tmp_path, cut):
    path = tmp_path / "ledger.jsonl"
    ledger = FileStateAuthority(POINTER, path)
    for spend in ("600", "300"):
        ledger.reserve("k", Decimal(spend), Decimal("1000"), Period(kind="per_credential"), NOW)
    rows = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(rows[0] + rows[1][:cut])  # a crash part-way through the second row
    torn = path.read_bytes()
    with pytest.raises(StateUnreachableError, match=str(path)):
        FileStateAuthority(POINTER, path)
    assert path.read_bytes() == torn


def test_a_failed_ledger_write_refuses_every_later_reserve(tmp_path, monkeypatch):
    path = tmp_path / "ledger.jsonl"
    ledger = FileStateAuthority(POINTER, path)
    period = Period(kind="per_credential")
    ledger.reserve("k", Decimal("100"), Decimal("1000"), period, NOW)
    handle = ledger._file._handle
    monkeypatch.setattr(handle, "write", lambda data, write=handle.write: write(data[: len(data) // 2]))
    with pytest.raises(StateUnreachableError, match="short write"):
        ledger.reserve("k", Decimal("200"), Decimal("1000"), period, NOW)
    torn = path.read_bytes()
    # The engine's view: every later reserve on this ledger is unreachable,
    # and nothing is chained onto the torn row.
    for spend in ("1", "5"):
        reason = evaluate(constraint(), spend, state_clients={POINTER: ledger})
        assert reason.code is DenyCode.STATE_AUTHORITY_UNREACHABLE
        assert "refuses appends" in reason.detail
    assert path.read_bytes() == torn and ledger.spent("k", period, NOW) == Decimal("100")
    with pytest.raises(StateUnreachableError):
        FileStateAuthority(POINTER, path)


LEDGER_PERIODS = (
    Period(kind="per_credential"),
    Period(kind="calendar", calendar_unit="day"),
    Period(kind="rolling", duration_seconds=3600),
)


def fixtures_with_reservations(rows):
    return {
        "now": "2026-05-01T12:00:00Z",
        "evaluator_id": "svc:test:receiver",
        "audit_key": generate_key("svc:test:receiver#audit", seed="stateful:audit").to_dict(),
        "state": {"clients": [{"pointer": POINTER, "reservations": rows}]},
    }


def test_ledger_replay_and_fixture_reservations_agree(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = FileStateAuthority(POINTER, path)
    for i, period in enumerate(LEDGER_PERIODS):
        ledger.reserve(f"k{i}", Decimal("12.50"), Decimal("100"), period, NOW - timedelta(hours=2))
        ledger.reserve(f"k{i}", Decimal("7"), Decimal("100"), period, NOW - timedelta(minutes=30))
        ledger.reserve(f"k{i}", Decimal("0.25"), Decimal("100"), period, NOW)
    rows = [json.loads(line) for line in path.read_text("utf-8").splitlines()]
    engine, _ = build_engine(fixtures_with_reservations(rows))
    from_fixture = engine.config.state_clients[POINTER]
    reopened = FileStateAuthority(POINTER, path)
    expected = (Decimal("19.75"), Decimal("19.75"), Decimal("7.25"))  # the rolling hour drops 12.50
    for i, period in enumerate(LEDGER_PERIODS):
        assert from_fixture.spent(f"k{i}", period, NOW) == expected[i]
        # A zero reserve returns the running total without changing it.
        assert reopened.reserve(f"k{i}", Decimal(0), Decimal("100"), period, NOW) == expected[i]


@pytest.mark.parametrize("amount", [900, "1e3", "NaN", " 5", "", None])
def test_ledger_rows_carry_decimal_text_amounts(tmp_path, amount):
    row = {
        "key": "k",
        "amount": amount,
        "period": {"kind": "per_credential"},
        "timestamp": "2026-05-01T11:00:00Z",
    }
    with pytest.raises(ValueError):
        InMemoryStateAuthority(POINTER).replay([row])
    with pytest.raises(FixtureError):
        build_engine(fixtures_with_reservations([row]))
    path = tmp_path / "ledger.jsonl"
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(ValueError):
        FileStateAuthority(POINTER, path)


def test_ledger_replay_checks_every_rows_period():
    # A malformed period after a good one is refused, including one that
    # compares equal to the good one as JSON (3600.0 == 3600).
    good = {
        "key": "k",
        "amount": "1",
        "period": {"kind": "per_credential"},
        "timestamp": "2026-05-01T11:00:00Z",
    }
    rolling = dict(good, period={"kind": "rolling", "seconds": 3600})
    cases = [
        (good, {"kind": "rolling"}),
        (good, {"kind": "per_credential", "unit": "day"}),
        (good, None),
        (rolling, {"kind": "rolling", "seconds": 3600.0}),
    ]
    for first, period in cases:
        with pytest.raises(ValueError):
            InMemoryStateAuthority(POINTER).replay([first, dict(first, period=period)])


def reserve_from_threads(ledger, budget, period):
    """Eight threads reserve 2000 at a time until refused; returns what was granted."""
    spend = Decimal("2000")
    granted = []
    granted_lock = threading.Lock()

    def requester():
        while True:
            try:
                ledger.reserve("k", spend, budget, period, NOW)
            except OverBudgetError:
                return
            with granted_lock:
                granted.append(spend)

    threads = [threading.Thread(target=requester) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    return granted


def test_concurrent_reserves_never_oversubscribe():
    ledger = InMemoryStateAuthority(POINTER)
    period = Period(kind="per_credential")
    budget = Decimal("50000")
    granted = reserve_from_threads(ledger, budget, period)
    assert sum(granted) == budget
    assert ledger.spent("k", period, NOW) == budget


def test_concurrent_file_reserves_admit_and_write_under_one_lock(tmp_path):
    # A reserve admits, writes its row and adds it under one lock, so racing
    # threads neither oversubscribe nor leave a row the totals do not hold.
    path = tmp_path / "ledger.jsonl"
    ledger = FileStateAuthority(POINTER, path)
    period = Period(kind="rolling", duration_seconds=3600)
    budget = Decimal("50000")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        granted = reserve_from_threads(ledger, budget, period)
    finally:
        sys.setswitchinterval(interval)
    assert sum(granted) == budget
    assert len(path.read_bytes().splitlines()) == len(granted)
    assert FileStateAuthority(POINTER, path).spent("k", period, NOW) == ledger.spent("k", period, NOW) == budget


# --- epoch quotas ---------------------------------------------------------------

def test_allocation_is_exact_largest_remainder():
    allocation = allocate_epoch_quotas(Decimal("100"), ["e1", "e2", "e3"], 3600)
    slices = [q.allocation for q in allocation.quotas]
    assert slices == [Decimal("34"), Decimal("33"), Decimal("33")]
    assert sum(slices) == Decimal("100")
    assert allocation.max_concurrent_exposure == Decimal("100")


def test_allocation_respects_budget_granularity():
    allocation = allocate_epoch_quotas(Decimal("0.10"), ["a", "b", "c"], 60)
    slices = [q.allocation for q in allocation.quotas]
    assert sum(slices) == Decimal("0.10")
    assert slices == [Decimal("0.04"), Decimal("0.03"), Decimal("0.03")]


@pytest.mark.parametrize("length", [0, -60])
def test_an_epoch_length_must_be_positive(length):
    with pytest.raises(ValueError, match="epoch length must be positive"):
        EpochQuota("e1", Decimal("100"), epoch_length_seconds=length)
    with pytest.raises(ValueError, match="epoch length must be positive"):
        allocate_epoch_quotas(Decimal("100"), ["e1"], length)


def test_epoch_ledger_resets_each_epoch():
    ledger = EpochLedger(EpochQuota("e1", Decimal("100"), epoch_length_seconds=600))
    ledger.reserve(Decimal("100"), NOW)
    with pytest.raises(OverBudgetError):
        ledger.reserve(Decimal("1"), NOW + timedelta(seconds=1))
    assert ledger.reserve(Decimal("100"), NOW + timedelta(seconds=600)) == Decimal("100")


def test_an_earlier_epoch_never_resets_a_later_one():
    ledger = EpochLedger(EpochQuota("e1", Decimal("100"), epoch_length_seconds=3600))
    day = parse_timestamp("2026-05-01T00:00:00Z")
    ledger.reserve(Decimal("100"), day + timedelta(hours=2, seconds=10))
    assert ledger.reserve(Decimal("1"), day + timedelta(hours=1, seconds=10)) == Decimal("1")
    with pytest.raises(OverBudgetError):
        ledger.reserve(Decimal("100"), day + timedelta(hours=2, seconds=20))


# --- every ledger against the reference ------------------------------------------

REFERENCE_WINDOW = 3600
# The three period kinds, drawn evenly; a calendar period draws its unit.
reference_periods = st.one_of(
    st.just(Period(kind="per_credential")),
    st.sampled_from(("day", "week", "month")).map(lambda unit: Period(kind="calendar", calendar_unit=unit)),
    st.just(Period(kind="rolling", duration_seconds=REFERENCE_WINDOW)),
)
# A Sunday half an hour before midnight: a day, an ISO week and a month all
# end within the drawn range of +-2 windows.
REFERENCE_ANCHOR = parse_timestamp("2026-05-31T23:30:00Z")

reserve_steps = st.lists(
    st.tuples(
        st.sampled_from(("a", "b")),
        reference_periods,
        st.integers(-2 * REFERENCE_WINDOW, 2 * REFERENCE_WINDOW),
        st.integers(0, 60),
    ),
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(reserve_steps)
def test_every_ledger_agrees_with_the_reference_ledger(steps):
    # Four ledgers take the same out-of-order reserves: in memory, a live
    # file, that file reopened before each step (on a copy, so the live file
    # keeps one row per grant), and the list-based reference.
    budget = Decimal("100")
    with tempfile.TemporaryDirectory() as scratch:
        live_path, copy_path = Path(scratch) / "live.jsonl", Path(scratch) / "reopened.jsonl"
        memory = InMemoryStateAuthority(POINTER)
        live = FileStateAuthority(POINTER, live_path)
        reference = ReferenceLedger()
        for key, period, offset, spend in steps:
            now = REFERENCE_ANCHOR + timedelta(seconds=offset)
            if live_path.exists():
                shutil.copyfile(live_path, copy_path)
            reopened = FileStateAuthority(POINTER, copy_path)
            total = reference.reserve(key, Decimal(spend), budget, period, now)
            expected = (total is not None, reference.spent(key, period, now))
            for ledger in (memory, live, reopened):
                try:
                    granted = ledger.reserve(key, Decimal(spend), budget, period, now)
                    assert granted == total
                except OverBudgetError:
                    granted = None
                assert (granted is not None, ledger.spent(key, period, now)) == expected, ledger


# --- voucher chains -------------------------------------------------------------

def chain(*spends, start=None, key=AUTHORITY, budget="1000"):
    at = start or (NOW - timedelta(seconds=60))
    vouchers = [make_voucher("digest-1", Decimal(budget), POINTER, key, at)]
    for i, spend in enumerate(spends):
        at = at + timedelta(seconds=10)
        vouchers.append(update_voucher(vouchers[-1], Decimal(spend), key, at))
    return vouchers


def verify(vouchers, c=None, **kwargs):
    args = dict(authority_keys=AUTHORITY_KEYS, now=NOW)
    args.update(kwargs)
    return verify_voucher_chain(vouchers, c or constraint(), **args)


def test_voucher_chain_happy_path():
    terminal, problem = verify(chain("300", "200"))
    assert problem is None
    assert terminal.spent == Decimal("500")
    assert terminal.remaining == Decimal("500")
    assert terminal.sequence == 3


def test_voucher_update_refuses_overdraft_and_refunds():
    first = make_voucher("digest-1", Decimal("100"), POINTER, AUTHORITY, NOW)
    with pytest.raises(OverBudgetError):
        update_voucher(first, Decimal("101"), AUTHORITY, NOW)
    with pytest.raises(ValueError):
        update_voucher(first, Decimal("-5"), AUTHORITY, NOW)


@UNSPENDABLE
def test_a_voucher_update_refuses_an_unspendable_amount_before_signing(amount, error):
    first = make_voucher("digest-1", Decimal("100"), POINTER, AUTHORITY, NOW)
    with pytest.raises(error):
        update_voucher(first, amount, AUTHORITY, NOW)


def test_voucher_arithmetic_is_exact():
    first = make_voucher("digest-1", Decimal("1000"), POINTER, AUTHORITY, NOW)
    second = update_voucher(first, Decimal("1e-30"), AUTHORITY, NOW)
    assert second.raw["remaining"] == "999." + "9" * 30
    terminal, problem = verify([first, second])
    assert problem is None and terminal is not None


def test_voucher_wrong_authority_key():
    impostor = generate_key(POINTER, seed="stateful:impostor")
    terminal, problem = verify(chain("100", key=impostor))
    assert problem.code is DenyCode.STATE_SIGNATURE_INVALID


def test_voucher_pointer_pinning():
    elsewhere = generate_key("https://friendly.example", seed="stateful:friendly")
    vouchers = [make_voucher("digest-1", Decimal("1000"), "https://friendly.example", elsewhere, NOW)]
    terminal, problem = verify(vouchers)
    assert problem.code is DenyCode.STATE_SIGNATURE_INVALID
    assert "pins" in problem.detail


def test_voucher_broken_linkage():
    a = chain("100")
    b = chain("500", start=NOW - timedelta(seconds=90))
    spliced = [a[0], b[1]]
    terminal, problem = verify(spliced)
    assert problem.code is DenyCode.STATE_SEQUENCE_INVALID


def test_voucher_genesis_anchor_required():
    vouchers = chain("100", "50")
    # Presenting a sequence-1 voucher that does not anchor at genesis.
    raw = dict(vouchers[1].raw)
    raw["sequence"] = 1
    from mandate.keys import attach_signature
    from mandate.stateful import StateVoucher

    del raw["signature"]
    forged = StateVoucher.from_dict(attach_signature(raw, AUTHORITY))
    terminal, problem = verify([forged])
    assert problem.code is DenyCode.STATE_SEQUENCE_INVALID


def test_voucher_replay_and_rollback_protection():
    memory = VoucherMemory()
    vouchers = chain("100", "50")
    terminal, problem = verify(vouchers, memory=memory, credential_digest="digest-1")
    assert problem is None
    # The same terminal sequence cannot be consumed twice.
    terminal, problem = verify(vouchers, memory=memory, credential_digest="digest-1")
    assert problem.code is DenyCode.STATE_SEQUENCE_INVALID
    # Nor can an older prefix be rolled back to.
    terminal, problem = verify(vouchers[:2], memory=memory, credential_digest="digest-1")
    assert problem.code is DenyCode.STATE_SEQUENCE_INVALID


# A voucher object's fields are not what its authority signed: a chain is
# judged on each voucher's signed raw, so rewriting them gains nothing.

def test_rewritten_terminal_figures_are_read_back_from_the_signed_voucher():
    from dataclasses import replace

    vouchers = chain("900")
    rewritten = vouchers[:-1] + [replace(vouchers[-1], spent=Decimal("0"), remaining=Decimal("1000"))]
    terminal, problem = verify(rewritten)
    assert problem is None
    assert (terminal.spent, terminal.remaining) == (Decimal("900"), Decimal("100"))


def test_a_rewritten_sequence_does_not_pass_the_replay_memory():
    from dataclasses import replace

    memory = VoucherMemory()
    vouchers = chain("100", "50")
    assert verify(vouchers, memory=memory, credential_digest="digest-1")[1] is None
    advanced = vouchers[:-1] + [replace(vouchers[-1], sequence=9)]
    terminal, problem = verify(advanced, memory=memory, credential_digest="digest-1")
    assert problem.code is DenyCode.STATE_SEQUENCE_INVALID


def test_a_rewritten_credential_digest_attests_nothing_for_another_credential():
    from dataclasses import replace

    borrowed = [replace(v, credential_digest="digest-2") for v in chain("100")]
    terminal, problem = verify(borrowed, credential_digest="digest-2")
    assert problem.code is DenyCode.STATE_SIGNATURE_INVALID
    assert "different credential" in problem.detail


@pytest.mark.parametrize("raw", [{}, {"kind": "state_voucher"}, None])
def test_a_voucher_whose_signed_raw_does_not_read_is_invalid(raw):
    from dataclasses import replace

    vouchers = chain("100")
    terminal, problem = verify(vouchers[:-1] + [replace(vouchers[-1], raw=raw)])
    assert terminal is None
    assert problem.code is DenyCode.STATE_SIGNATURE_INVALID
    assert "does not read" in problem.detail


def test_voucher_freshness_inclusive_boundary():
    exactly = chain(start=NOW - timedelta(seconds=300))
    terminal, problem = verify(exactly)
    assert problem is None
    stale = chain(start=NOW - timedelta(seconds=301))
    terminal, problem = verify(stale)
    assert problem.code is DenyCode.STATE_STALE


def test_voucher_arithmetic_must_reconcile():
    from mandate.keys import attach_signature
    from mandate.model import render_timestamp
    from mandate.stateful import VOUCHER_GENESIS, StateVoucher

    body = {
        "kind": "state_voucher",
        "authority_id": POINTER,
        "credential_digest": "digest-1",
        "sequence": 1,
        "spent": "300",
        "remaining": "800",  # 300 + 800 != 1000
        "observed_at": render_timestamp(NOW),
        "prev_signature": VOUCHER_GENESIS,
    }
    voucher = StateVoucher.from_dict(attach_signature(body, AUTHORITY))
    terminal, problem = verify([voucher])
    assert problem.code is DenyCode.STATE_SIGNATURE_INVALID
    assert "reconcile" in problem.detail


def test_a_voucher_that_reconciles_only_when_rounded_is_refused():
    from mandate.keys import attach_signature
    from mandate.model import render_timestamp
    from mandate.stateful import VOUCHER_GENESIS, StateVoucher

    body = {
        "kind": "state_voucher",
        "authority_id": POINTER,
        "credential_digest": "digest-1",
        "sequence": 1,
        "spent": "0." + "0" * 29 + "1",
        "remaining": "1000",  # the sum rounds to 1000 at 28 significant digits
        "observed_at": render_timestamp(NOW),
        "prev_signature": VOUCHER_GENESIS,
    }
    voucher = StateVoucher.from_dict(attach_signature(body, AUTHORITY))
    terminal, problem = verify([voucher])
    assert problem.code is DenyCode.STATE_SIGNATURE_INVALID
    assert "reconcile" in problem.detail


def test_voucher_attests_the_right_credential():
    vouchers = chain("100")
    terminal, problem = verify(vouchers, credential_digest="some-other-digest")
    assert problem.code is DenyCode.STATE_SIGNATURE_INVALID


# --- tiered cumulative evaluation --------------------------------------------------

def test_registry_permission_checked_before_anything_else():
    reason = evaluate(constraint(), "10", registries=[registry(with_pointer=False)], tier="stateless")
    assert reason.code is DenyCode.STATE_AUTHORITY_UNPERMITTED


def test_stateless_tier_denies_unreachable():
    reason = evaluate(constraint(), "10", tier="stateless")
    assert reason.code is DenyCode.STATE_AUTHORITY_UNREACHABLE


def test_epoch_tier_spends_only_its_slice():
    ledger = EpochLedger(EpochQuota("e1", Decimal("400"), epoch_length_seconds=3600))
    assert evaluate(constraint(), "250", tier="epoch_bound", epoch_ledger=ledger) is None
    reason = evaluate(constraint(), "250", tier="epoch_bound", epoch_ledger=ledger)
    assert reason.code is DenyCode.STATE_LIMIT_EXCEEDED


def test_synchronous_tier_direct_client():
    client = InMemoryStateAuthority(POINTER)
    assert evaluate(constraint(), "600", state_clients={POINTER: client}) is None
    assert evaluate(constraint(), "400", state_clients={POINTER: client}) is None
    reason = evaluate(constraint(), "1", state_clients={POINTER: client})
    assert reason.code is DenyCode.STATE_LIMIT_EXCEEDED


class UnreachableStateAuthority:
    """A partitioned or down authority: every reserve fails."""

    def __init__(self, authority_id: str) -> None:
        self.authority_id = authority_id

    def reserve(self, key, amount, budget, period, now):
        raise StateUnreachableError("state authority is unreachable")


def test_synchronous_tier_unreachable_client():
    reason = evaluate(constraint(), "10", state_clients={POINTER: UnreachableStateAuthority(POINTER)})
    assert reason.code is DenyCode.STATE_AUTHORITY_UNREACHABLE


def test_synchronous_tier_vouchers():
    vouchers = chain("300")
    assert (
        evaluate(constraint(), "700", vouchers=vouchers, authority_keys=AUTHORITY_KEYS) is None
    )
    reason = evaluate(constraint(), "701", vouchers=vouchers, authority_keys=AUTHORITY_KEYS)
    assert reason.code is DenyCode.STATE_LIMIT_EXCEEDED


def test_synchronous_tier_no_channel_at_all():
    reason = evaluate(constraint(), "10")
    assert reason.code is DenyCode.STATE_AUTHORITY_UNREACHABLE
    assert "no reserve channel" in reason.detail


def test_cumulative_currency_gate():
    reason = evaluate(constraint(currency="USD"), "10", context_currency="EUR")
    assert reason.code is DenyCode.CONSTRAINT_FAILED
    client = InMemoryStateAuthority(POINTER)
    assert (
        evaluate(
            constraint(currency="USD"), "10", context_currency="USD", state_clients={POINTER: client}
        )
        is None
    )


def test_cumulative_rejects_negative_spend():
    reason = evaluate(constraint(), "-5")
    assert reason.code is DenyCode.CONSTRAINT_FAILED


@pytest.mark.parametrize(
    "text",
    ["0", "-0", "0E+5", "-0E+5", "0E-3", "5E-1", "0.05", "12.5", "123.4500", "1E+3", "7E+62", "7E+63",
     "1" * 64, "1" * 65, "0." + "0" * 61 + "1", "0." + "0" * 62 + "1", "9" * 40 + "." + "9" * 23,
     "9" * 40 + "." + "9" * 24],
)
def test_an_amount_is_refused_exactly_when_its_plain_text_is_too_long(text):
    amount = Decimal(text)
    if amount < 0:
        return  # refused as negative before its length is judged
    too_long = len(format(amount, "f")) > _AMOUNT_TEXT_LIMIT
    ledger = InMemoryStateAuthority(POINTER)
    period = Period(kind="per_credential")
    if too_long:
        with pytest.raises(ValueError, match="ledger amount must be written in at most"):
            ledger.reserve("k", amount, Decimal("1e100"), period, NOW)
    else:
        ledger.reserve("k", amount, Decimal("1e100"), period, NOW)
