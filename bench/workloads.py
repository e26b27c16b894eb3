"""Seeded request generators for the three benchmark workloads.

A workload builds everything a request needs before any timing starts:
credentials are issued, one possession proof is minted per request with a
unique nonce, and on-disk history is written.  Each generated request carries
the outcome and deny code the generator expects, derived from the constraints
it chose, never from running the engine.

Round ``r`` of a run draws its requests from ``(seed, r)``, so the same seed
always yields the same inputs, and credentials that must be fresh (delegation
chains) are never repeated within a run.  The seed chooses values only: pool
sizes, set sizes, the share of each kind of request in a round and the amount
of on-disk history are fixed, so every seed asks the program for the same
amount of work.

Timed program set-up is ``Workload.open``: building ``EngineConfig`` and
``Engine`` and opening the audit log and state ledger, which replay any
existing lines.  A run keeps one set of engines for all its rounds, so its
state (nonce cache, audit records, spent budgets) grows as a receiver's would.
Where that state is on disk it lives in a named *slot* directory, so a run can
hold more than one set of engines over the same history.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass
from datetime import datetime, timedelta
from decimal import Decimal
from pathlib import Path
from typing import Optional, Union

from mandate.audit import AuditLog
from mandate.constraints import (
    CumulativeLimitConstraint,
    EnumeratedListConstraint,
    NumericLimitConstraint,
    Period,
    StringPatternConstraint,
    TemporalWindowConstraint,
)
from mandate.container import CredentialContainer, PossessionProof, issue_credential, make_possession_proof
from mandate.keys import SigningKey, generate_key
from mandate.model import ALLOW, DENY, AuthorizationPayload, RequestContext, SemanticType, parse_timestamp, parse_typed_value, render_timestamp
from mandate.pipeline import Engine
from mandate.scenarios import ScenarioBundle, load_scenario
from mandate.stateful import FileStateAuthority

EVIDENCE_TYPES = ("origin_attestation", "test_certificate", "material_compliance")
RECIPIENT_ROLES = ("prime_contractor", "certified_auditor", "regulator")
CLAIM_TYPES = ("auto_collision", "auto_comprehensive")
FLUSH_POLICY = "flush after every line, no fsync"


@dataclass(frozen=True)
class Request:
    """One call to ``Engine.evaluate`` and the decision it must produce."""

    target: int  # index into the engines returned by Workload.open
    credential: Union[bytes, list]  # canonical bytes, or a list of them for a chain
    context: RequestContext
    presenter: str
    pop: PossessionProof
    now: datetime
    outcome: str
    code: Optional[str]


def _wire(container: CredentialContainer) -> bytes:
    return container.dumps().encode("utf-8")


class Workload:
    """Base: a fixed set of receivers and a seeded stream of request rounds."""

    name = ""
    # Requests per round.  Each workload's shares repeat every 20 (or 25)
    # requests, so every round holds them exactly.
    round_size = 100

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def rng(self, round_index: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{round_index}")

    def requests(self, round_index: int, count: Optional[int] = None) -> list[Request]:
        """Round ``round_index``; rounds must be drawn in order, once each."""
        raise NotImplementedError

    def prepare(self, slot: str) -> None:
        """Put the pre-filled history in ``slot`` (untimed)."""

    def open(self, slot: str) -> list[Engine]:
        raise NotImplementedError

    def audit_public_keys(self) -> list[str]:
        raise NotImplementedError

    def audit_lines(self, engines: list[Engine], slot: str) -> list[list[str]]:
        """Every canonical audit line of each receiver, history included."""
        return [[record.dumps() for record in e.config.audit_log.records()] for e in engines]

    def history_lines(self) -> list[int]:
        """Audit lines each receiver holds before the first round."""
        return [0 for _ in self.audit_public_keys()]

    def file_bytes(self, slot: str) -> tuple[int, int]:
        """Current sizes of the audit file and the ledger file; 0 when kept in memory."""
        return 0, 0


# --- single_repeat ----------------------------------------------------------------


@dataclass(frozen=True)
class _Grant:
    """A pooled credential and what it allows, so contexts can be drawn to pass or fail."""

    target: int
    wire: bytes
    container: CredentialContainer
    early_deny: Optional[str]  # deny code before any constraint runs, or None
    limits: dict


class SingleRepeat(Workload):
    """Sixteen credentials over both scenario bundles, presented again and again.

    Each bundle holds six trusted credentials and two that deny early.  A round
    alternates the bundles; of every ten requests to a bundle one denies early
    (untrusted issuer and audience mismatch in turn), one fails a constraint
    and eight are allowed.
    """

    name = "single_repeat"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.bundles = (load_scenario("insurance_claims"), load_scenario("supply_chain"))
        rng = random.Random(f"{self.name}:{seed}:pool")
        self.pool: list[_Grant] = []
        for target, bundle in enumerate(self.bundles):
            outsider = generate_key(f"iss:rogue:{bundle.name}", seed=f"bench:{seed}:{bundle.name}:rogue")
            for index in range(8):
                early = None
                issuer = bundle.keys["issuer"]
                audience = [bundle.evaluator_id]
                if index == 6:
                    early, issuer = "issuer_untrusted", outsider
                elif index == 7:
                    early, audience = "audience_mismatch", [f"svc:elsewhere:{bundle.name}"]
                self.pool.append(self._grant(rng, target, bundle, index, issuer, audience, early))
        self.trusted = [[g for g in self.pool if g.target == t and g.early_deny is None] for t in range(2)]
        self.early = [[g for g in self.pool if g.target == t and g.early_deny is not None] for t in range(2)]

    def _grant(self, rng, target, bundle: ScenarioBundle, index, issuer, audience, early) -> _Grant:
        subject = bundle.keys["subject"]
        window = (bundle.credential.valid_from, bundle.credential.valid_until)
        if bundle.name == "insurance_claims":
            limits = {
                "ceiling": rng.choice((3000, 4000, 5000, 6000, 8000)),
                "floor": rng.choice((100, 250, 500)),
                "claims": frozenset(rng.sample(CLAIM_TYPES, 1)),
            }
            constraints = (
                TemporalWindowConstraint(field="core.request_time", valid_from=window[0], valid_until=window[1]),
                NumericLimitConstraint(field="core.amount", operator="lte", value=Decimal(limits["ceiling"]), currency="USD"),
                NumericLimitConstraint(field="core.amount", operator="gte", value=Decimal(limits["floor"]), currency="USD"),
                EnumeratedListConstraint(field="insurance.claim_type", allowed=limits["claims"]),
            )
            permission = "claim.settle"
        else:
            limits = {
                "evidence": frozenset(rng.sample(EVIDENCE_TYPES, 2)),
                "roles": frozenset(rng.sample(RECIPIENT_ROLES, 2)),
                "family": rng.choice(("wing", "spar", "rib", "flap")),
                "records": rng.choice((50, 100, 150)),
            }
            constraints = (
                EnumeratedListConstraint(field="supplychain.evidenceType", allowed=limits["evidence"]),
                EnumeratedListConstraint(field="supplychain.recipientRole", allowed=limits["roles"]),
                StringPatternConstraint(
                    field="supplychain.componentId",
                    match="restricted_glob",
                    pattern=f"aerospace/components/{limits['family']}-*/lot/*",
                ),
                TemporalWindowConstraint(field="core.request_time", valid_from=window[0], valid_until=window[1]),
                NumericLimitConstraint(field="supplychain.maxRecordsDisclosed", operator="lte", value=Decimal(limits["records"])),
            )
            permission = "evidence.present"
        container = issue_credential(
            AuthorizationPayload(
                agent_id=subject.key_id,
                issuer_id=issuer.key_id,
                permissions=frozenset({permission}),
                constraints=constraints,
            ),
            subject_public_key=subject.public_hex,
            audience=audience,
            valid_from=window[0],
            valid_until=window[1],
            issuer_key=issuer,
            credential_id=f"cred-bench-{self.seed}-{bundle.name}-{index}",
        )
        return _Grant(target, _wire(container), container, early, limits)

    def requests(self, round_index: int, count: Optional[int] = None) -> list[Request]:
        rng = self.rng(round_index)
        # (bundle, kind, early credential) in fixed shares: kind 0 denies
        # early, 1 fails a constraint, the rest are allowed.
        mix = [(i % 2, (i // 2) % 10, (i // 20 + i) % 2) for i in range(count or self.round_size)]
        rng.shuffle(mix)
        out = []
        for i, (target, kind, early) in enumerate(mix):
            if kind == 0:
                grant = self.early[target][early]
            else:
                grant = rng.choice(self.trusted[target])
            fail = kind == 1
            bundle = self.bundles[grant.target]
            now = bundle.now + timedelta(seconds=rng.randrange(3600))
            if bundle.name == "insurance_claims":
                context, code = self._claim_context(rng, grant.limits, now, fail)
            else:
                context, code = self._evidence_context(rng, grant.limits, now, fail)
            if grant.early_deny is not None:
                code = grant.early_deny
            out.append(
                Request(
                    target=grant.target,
                    credential=grant.wire,
                    context=context,
                    presenter=bundle.keys["subject"].key_id,
                    pop=make_possession_proof(
                        grant.container,
                        bundle.evaluator_id,
                        f"n-{self.name}-{self.seed}-{round_index}-{i}",
                        now,
                        bundle.keys["subject"],
                    ),
                    now=now,
                    outcome=ALLOW if code is None else DENY,
                    code=code,
                )
            )
        return out

    @staticmethod
    def _claim_context(rng, limits, now, fail):
        cents = rng.randint(limits["floor"] * 100, limits["ceiling"] * 100)
        claim = rng.choice(sorted(limits["claims"]))
        code = None
        if fail:
            code = "constraint_failed"
            mode = rng.randrange(3)
            if mode == 0:
                cents = limits["ceiling"] * 100 + rng.randint(1, 200000)
            elif mode == 1:
                cents = rng.randint(1, limits["floor"] * 100 - 1)
            else:
                claim = sorted(set(CLAIM_TYPES) - limits["claims"])[0]
        claim_id = f"CLM-{rng.randrange(10**5):05d}"
        return (
            RequestContext(
                action="claim.settle",
                fields={
                    "core.resource_id": parse_typed_value(f"claims/auto/{claim_id}", SemanticType.STRING_ID),
                    "core.amount": parse_typed_value(format(Decimal(cents) / 100, "f"), SemanticType.DECIMAL),
                    "core.currency_code": parse_typed_value("USD", SemanticType.STRING_CODE),
                    "insurance.claim_type": parse_typed_value(claim, SemanticType.STRING_ID),
                    "core.workflow_id": parse_typed_value(claim_id, SemanticType.STRING_ID),
                    "core.request_time": parse_typed_value(render_timestamp(now), SemanticType.TIMESTAMP),
                },
            ),
            code,
        )

    @staticmethod
    def _evidence_context(rng, limits, now, fail):
        evidence = rng.choice(sorted(limits["evidence"]))
        role = rng.choice(sorted(limits["roles"]))
        component = f"aerospace/components/{limits['family']}-{rng.randrange(1000)}/lot/LOT-{rng.randrange(100)}"
        records = rng.randint(1, limits["records"])
        code = None
        if fail:
            code = "constraint_failed"
            mode = rng.randrange(3)
            if mode == 0:
                records = limits["records"] + rng.randint(1, 500)
            elif mode == 1:
                component = f"maritime/hull/{rng.randrange(1000)}/lot/{rng.randrange(100)}"
            else:
                role = "press_office"
        return (
            RequestContext(
                action="evidence.present",
                fields={
                    "supplychain.evidenceType": parse_typed_value(evidence, SemanticType.STRING_ID),
                    "supplychain.recipientRole": parse_typed_value(role, SemanticType.STRING_ID),
                    "supplychain.componentId": parse_typed_value(component, SemanticType.STRING_ID),
                    "supplychain.maxRecordsDisclosed": parse_typed_value(str(records), SemanticType.INTEGER),
                    "core.request_time": parse_typed_value(render_timestamp(now), SemanticType.TIMESTAMP),
                },
            ),
            code,
        )

    def open(self, slot: str) -> list[Engine]:
        return [
            Engine(b.engine_config(AuditLog(b.evaluator_id, b.keys["receiver"]))) for b in self.bundles
        ]

    def audit_public_keys(self) -> list[str]:
        return [b.keys["receiver"].public_hex for b in self.bundles]


# --- chain_fresh ------------------------------------------------------------------


class ChainFresh(Workload):
    """A never-seen depth-3 delegation chain on every request."""

    name = "chain_fresh"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.bundle = load_scenario("supply_chain")
        keys = self.bundle.keys
        # The root is issued to the bundle's agent, who delegates to a relay,
        # who delegates to the field agent that presents the chain.
        self.links: list[tuple[SigningKey, SigningKey]] = [
            (keys["issuer"], keys["subject"]),
            (keys["subject"], generate_key("agent:aerosupply:relay", seed=f"bench:{seed}:relay")),
        ]
        self.leaf_key = generate_key("agent:aerosupply:field-agent", seed=f"bench:{seed}:field")
        self.links.append((self.links[1][1], self.leaf_key))
        year = parse_timestamp("2026-01-01T00:00:00Z")
        self.windows = [
            (year, parse_timestamp("2026-12-31T23:59:59Z")),
            (year + timedelta(days=31), parse_timestamp("2026-11-30T23:59:59Z")),
            (year + timedelta(days=59), parse_timestamp("2026-10-31T23:59:59Z")),
        ]

    def requests(self, round_index: int, count: Optional[int] = None) -> list[Request]:
        rng = self.rng(round_index)
        bundle = self.bundle
        out = []
        for i in range(count or self.round_size):
            family = rng.choice(("wing", "spar", "rib", "flap"))
            part = f"{family}-{rng.randrange(1000)}"
            records = sorted(rng.sample(range(20, 400), 3), reverse=True)
            evidence = [list(EVIDENCE_TYPES)]
            evidence.append(rng.sample(evidence[0], 2))
            evidence.append(rng.sample(evidence[1], 1))
            patterns = (
                "aerospace/components/*/lot/*",
                f"aerospace/components/{family}-*/lot/*",
                f"aerospace/components/{part}/lot/*",
            )
            parent = None
            chain = []
            for depth, ((issuer, subject), window) in enumerate(zip(self.links, self.windows)):
                parent = issue_credential(
                    AuthorizationPayload(
                        agent_id=subject.key_id,
                        issuer_id=issuer.key_id,
                        permissions=frozenset({"evidence.present"}),
                        constraints=(
                            EnumeratedListConstraint(field="supplychain.evidenceType", allowed=frozenset(evidence[depth])),
                            StringPatternConstraint(field="supplychain.componentId", match="restricted_glob", pattern=patterns[depth]),
                            NumericLimitConstraint(field="supplychain.maxRecordsDisclosed", operator="lte", value=Decimal(records[depth])),
                        ),
                    ),
                    subject_public_key=subject.public_hex,
                    audience=[bundle.evaluator_id],
                    valid_from=window[0],
                    valid_until=window[1],
                    issuer_key=issuer,
                    parent=parent,
                    credential_id=f"cred-chain-{self.seed}-{round_index}-{i}-{depth}",
                )
                chain.append(parent)
            kind = evidence[2][0]
            asked = rng.randint(1, records[2])
            code = None
            if i % 10 == 9:
                # Denied by the leaf alone: each value still fits the middle link.
                code = "constraint_failed"
                if rng.random() < 0.5:
                    asked = rng.randint(records[2] + 1, records[1])
                else:
                    kind = next(e for e in evidence[1] if e != kind)
            now = bundle.now + timedelta(seconds=rng.randrange(3600))
            context = RequestContext(
                action="evidence.present",
                fields={
                    "supplychain.evidenceType": parse_typed_value(kind, SemanticType.STRING_ID),
                    "supplychain.componentId": parse_typed_value(f"aerospace/components/{part}/lot/LOT-{rng.randrange(100)}", SemanticType.STRING_ID),
                    "supplychain.maxRecordsDisclosed": parse_typed_value(str(asked), SemanticType.INTEGER),
                },
            )
            out.append(
                Request(
                    target=0,
                    credential=[_wire(c) for c in chain],
                    context=context,
                    presenter=self.leaf_key.key_id,
                    pop=make_possession_proof(
                        chain[-1], bundle.evaluator_id, f"n-{self.name}-{self.seed}-{round_index}-{i}", now, self.leaf_key
                    ),
                    now=now,
                    outcome=ALLOW if code is None else DENY,
                    code=code,
                )
            )
        return out

    def open(self, slot: str) -> list[Engine]:
        b = self.bundle
        return [Engine(b.engine_config(AuditLog(b.evaluator_id, b.keys["receiver"])))]

    def audit_public_keys(self) -> list[str]:
        return [self.bundle.keys["receiver"].public_hex]


# --- budget_file ------------------------------------------------------------------


class BudgetFile(Workload):
    """Registry-vetted credentials spending per-credential budgets, all on disk.

    The history holds three spends for each credential and exhausts a fixed
    seeded subset of them, then logs a pass of the receiver's own evaluations.
    Requests cycle through the credentials in a shuffled order, so the
    exhausted ones deny ``state_limit_exceeded`` at a fixed share; the budget
    of the others lasts far beyond any run.
    """

    name = "budget_file"
    credentials = 25
    exhausted = 3
    per_action = 250
    budget = 10_000_000
    history_spends = 3
    history_evaluations = 200

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.bundle = load_scenario("supply_chain")
        bundle = self.bundle
        # The state authority the scenario's registry permits for its profile.
        self.pointer = bundle.registries[0].state_authorities[0].pointer
        rng = random.Random(f"{self.name}:{seed}:pool")
        self.grants: list[CredentialContainer] = []
        for index in range(self.credentials):
            self.grants.append(
                issue_credential(
                    AuthorizationPayload(
                        agent_id=bundle.keys["subject"].key_id,
                        issuer_id=bundle.keys["issuer"].key_id,
                        permissions=frozenset({"evidence.present"}),
                        constraints=(
                            NumericLimitConstraint(field="core.amount", operator="lte", value=Decimal(self.per_action)),
                            CumulativeLimitConstraint(
                                field="core.amount",
                                budget=Decimal(self.budget),
                                state_authority_pointer=self.pointer,
                                period=Period(kind="per_credential"),
                            ),
                        ),
                    ),
                    subject_public_key=bundle.keys["subject"].public_hex,
                    audience=[bundle.evaluator_id],
                    valid_from=bundle.credential.valid_from,
                    valid_until=bundle.credential.valid_until,
                    issuer_key=bundle.keys["issuer"],
                    credential_id=f"cred-budget-{seed}-{index}",
                )
            )
        self.wires = [_wire(c) for c in self.grants]
        self.spent = {c.digest(): Decimal(0) for c in self.grants}
        self.pristine = workdir / "history"
        self.pristine.mkdir(parents=True, exist_ok=True)
        self._write_history(rng)
        self.history = len(self._read_lines(self.pristine / "audit.log"))

    def _write_history(self, rng: random.Random) -> None:
        """Ledger spends from before this receiver started, then a logged pass of its own evaluations."""
        ledger = FileStateAuthority(self.pointer, self.pristine / "ledger.log")
        period = Period(kind="per_credential")
        start = self.bundle.now - timedelta(days=30)
        exhausted = set(rng.sample(range(self.credentials), self.exhausted))
        for index, grant in enumerate(self.grants):
            key = grant.digest()
            for step in range(self.history_spends):
                if index in exhausted:
                    amount = Decimal(self.budget) - self.spent[key] if step == self.history_spends - 1 else Decimal(self.budget // 4)
                else:
                    amount = Decimal(rng.randint(1000, 5000))
                ledger.reserve(key, amount, Decimal(self.budget), period, start + timedelta(minutes=step))
                self.spent[key] += amount
        engine = self._engine(self.pristine)
        for request in self.requests(-1, self.history_evaluations):
            decision = engine.evaluate(request.credential, request.context, request.presenter, request.pop, now=request.now)
            got = decision.reason.code.value if decision.reason else None
            if (decision.outcome, got) != (request.outcome, request.code):
                raise RuntimeError(f"history evaluation decided {decision.outcome}/{got}, expected {request.code}")

    def requests(self, round_index: int, count: Optional[int] = None) -> list[Request]:
        """Requests for one round, modelling the running totals as they will be spent."""
        rng = self.rng(round_index)
        bundle = self.bundle
        order = [i % self.credentials for i in range(count or self.round_size)]
        rng.shuffle(order)
        out = []
        for i, index in enumerate(order):
            grant = self.grants[index]
            amount = Decimal(rng.randint(1, self.per_action * 100)) / 100
            if self.spent[grant.digest()] + amount > self.budget:
                code = "state_limit_exceeded"
            else:
                code = None
                self.spent[grant.digest()] += amount
            now = bundle.now + timedelta(seconds=rng.randrange(3600))
            out.append(
                Request(
                    target=0,
                    credential=self.wires[index],
                    context=RequestContext(
                        action="evidence.present",
                        fields={"core.amount": parse_typed_value(format(amount, "f"), SemanticType.DECIMAL)},
                    ),
                    presenter=bundle.keys["subject"].key_id,
                    pop=make_possession_proof(
                        grant, bundle.evaluator_id, f"n-{self.name}-{self.seed}-{round_index}-{i}", now, bundle.keys["subject"]
                    ),
                    now=now,
                    outcome=ALLOW if code is None else DENY,
                    code=code,
                )
            )
        return out

    def prepare(self, slot: str) -> None:
        (self.workdir / slot).mkdir(parents=True, exist_ok=True)
        for name in ("audit.log", "ledger.log"):
            shutil.copyfile(self.pristine / name, self.workdir / slot / name)

    def open(self, slot: str) -> list[Engine]:
        return [self._engine(self.workdir / slot)]

    def _engine(self, directory: Path) -> Engine:
        b = self.bundle
        config = b.engine_config(AuditLog(b.evaluator_id, b.keys["receiver"], path=directory / "audit.log"))
        config.state_clients = {self.pointer: FileStateAuthority(self.pointer, directory / "ledger.log")}
        return Engine(config)

    def audit_public_keys(self) -> list[str]:
        return [self.bundle.keys["receiver"].public_hex]

    def audit_lines(self, engines: list[Engine], slot: str) -> list[list[str]]:
        return [self._read_lines(self.workdir / slot / "audit.log")]

    def history_lines(self) -> list[int]:
        return [self.history]

    def file_bytes(self, slot: str) -> tuple[int, int]:
        return tuple((self.workdir / slot / name).stat().st_size for name in ("audit.log", "ledger.log"))

    @staticmethod
    def _read_lines(path: Path) -> list[str]:
        return [line for line in path.read_text("utf-8").splitlines() if line]


WORKLOADS = {w.name: w for w in (SingleRepeat, ChainFresh, BudgetFile)}
