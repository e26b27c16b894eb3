"""A long-lived engine against a cold one, over generated request sequences.

A hypothesis state machine drives one long-lived engine through
presentations of three credentials and two delegation chains: as bytes,
text, a dict, a container object or a list of one; fresh or repeated;
re-spelled with shuffled keys, with one byte flipped, or as a container
object whose fields were replaced.  Between presentations it revokes a
credential, moves ``now`` across the window edge that two credentials
share, re-keys the issuer, replays a nonce and presents 70 distinct
credentials, so that every kept credential is evicted.

Each step runs as well on a cold ``Engine`` built afresh over the same
config, with a copy of the nonce state.  The cold engine is presented the
canonical bytes of the credential the long-lived engine was given (the very
same input when a byte was flipped), so the same credential must decide,
and be recorded, the same way however it is presented and whatever the
long-lived engine keeps: ``Decision.to_dict()`` must be equal, and so must
the audit record body without ``prev_record``, ``record_id`` and
``signature``.
"""

import dataclasses
import itertools
import json
import random
from datetime import timedelta
from decimal import Decimal

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from mandate.audit import AuditLog
from mandate.constraints import EnumeratedListConstraint, NumericLimitConstraint
from mandate.container import (
    CredentialContainer,
    RevocationStore,
    issue_credential,
    make_possession_proof,
    new_revocation_list,
    parse_container,
    revoke,
)
from mandate.keys import generate_key
from mandate.model import AuthorizationPayload, RequestContext, SemanticType, parse_timestamp, parse_typed_value
from mandate.pipeline import Engine, EngineConfig, LocalPolicy
from mandate.semantics import MappingProfile, identity_mapping_profile
from test_plans import _cold, _outcome

FROM = parse_timestamp("2026-01-01T00:00:00Z")
EDGE = parse_timestamp("2026-05-01T12:00:00Z")  # where SHORT's window ends and LATE's begins
UNTIL = parse_timestamp("2026-12-31T23:59:59Z")
MOMENTS = (EDGE - timedelta(seconds=1), EDGE + timedelta(seconds=1))
RECEIVER = "svc:machine:receiver"

ISSUER = generate_key("iss:machine:authority", seed="machine:issuer")
REKEYED = generate_key(ISSUER.key_id, seed="machine:issuer:rekeyed")
SUBJECT = generate_key("agent:machine:worker", seed="machine:subject")
DELEGATE = generate_key("agent:machine:delegate", seed="machine:delegate")
STEWARD = generate_key("steward:machine", seed="machine:steward")
AUDIT = generate_key("svc:machine:receiver#audit", seed="machine:audit")
PROFILE = identity_mapping_profile([], UNTIL, STEWARD)


def _issue(name, subject=SUBJECT, issuer=ISSUER, limit="1000", parent=None, valid_from=FROM, valid_until=UNTIL):
    return issue_credential(
        AuthorizationPayload(
            agent_id=subject.key_id,
            issuer_id=issuer.key_id,
            permissions=frozenset({"task.run"}),
            constraints=(
                NumericLimitConstraint(field="core.amount", operator="lte", value=Decimal(limit), currency="USD"),
                EnumeratedListConstraint(field="core.resource_id", denied=frozenset({"jobs/forbidden"})),
            ),
        ),
        subject_public_key=subject.public_hex,
        audience=[RECEIVER],
        valid_from=valid_from,
        valid_until=valid_until,
        issuer_key=issuer,
        parent=parent,
        credential_id=f"cred-machine-{name}",
    )


ROOT = _issue("root")
SHORT = _issue("short", valid_until=EDGE)
LATE = _issue("late", valid_from=EDGE)
LINK = _issue("link", subject=DELEGATE, issuer=SUBJECT, limit="500", parent=ROOT)
SHORT_LINK = _issue("short-link", subject=DELEGATE, issuer=SUBJECT, limit="500", parent=SHORT, valid_until=EDGE)
PRESENTABLE = {
    "root": [ROOT],
    "short": [SHORT],
    "late": [LATE],
    "chain": [ROOT, LINK],
    "short chain": [SHORT, SHORT_LINK],
}
HOLDERS = {SUBJECT.key_id: SUBJECT, DELEGATE.key_id: DELEGATE}
SIGNERS = {ISSUER.key_id: ISSUER, SUBJECT.key_id: SUBJECT}
REVOCABLE = {c.credential_id: c for c in (ROOT, SHORT, LATE, LINK)}
# More distinct credentials than an engine keeps, so every kept one is evicted.
STRANGER = generate_key("iss:machine:stranger", seed="machine:stranger")
EVICTING = [_issue(f"evicting-{i}", issuer=STRANGER).dumps().encode("utf-8") for i in range(70)]


def _context(amount="250", resource="jobs/report", action="task.run"):
    return RequestContext(action=action, fields={
        "core.amount": parse_typed_value(amount, SemanticType.DECIMAL),
        "core.currency_code": parse_typed_value("USD", SemanticType.STRING_CODE),
        "core.resource_id": parse_typed_value(resource, SemanticType.STRING_ID),
    })


CONTEXTS = (_context(), _context(amount="700"), _context(resource="jobs/forbidden"), _context(action="task.delete"))


def _shuffled(value, rnd: random.Random):
    if isinstance(value, dict):
        items = list(value.items())
        rnd.shuffle(items)
        return {k: _shuffled(v, rnd) for k, v in items}
    if isinstance(value, list):
        return [_shuffled(v, rnd) for v in value]
    return value


def _spelled(cred: CredentialContainer, form: str, spelling: str, rnd: random.Random):
    """``cred`` as the long-lived engine is given it, and as the cold one is:
    its canonical bytes, or the same input when a byte was flipped."""
    canonical = cred.dumps().encode("utf-8")
    if spelling == "flipped":
        flipped = bytearray(canonical)
        flipped[rnd.randrange(len(flipped))] ^= rnd.randrange(1, 256)
        try:
            presented = bytes(flipped) if form != "text" else bytes(flipped).decode("utf-8")
        except UnicodeDecodeError:
            presented = bytes(flipped)
        return presented, presented
    raw = _shuffled(cred.raw, rnd) if spelling == "shuffled" else cred.raw
    text = json.dumps(raw, ensure_ascii=False, separators=(",", ":"))
    if form == "bytes":
        return text.encode("utf-8"), canonical
    if form == "text":
        return text, canonical
    if form == "dict":
        return json.loads(text), canonical
    container = parse_container(text)
    if form == "forged":  # fields the issuer never signed: a wider grant, no constraints
        widened = dataclasses.replace(container.payload, permissions=frozenset({"task.run", "task.delete"}), constraints=())
        container = dataclasses.replace(container, payload=widened)
    return container, canonical


class _LastRecordLog(AuditLog):
    """An in-memory audit log that holds the record it appended last, so a
    step reads its own record without reading the whole log again."""

    last = None

    def append(self, **members):
        self.last = super().append(**members)
        return self.last


def _unlinked(record):
    """A record's body without ``prev_record`` and the record id and
    signature that cover it, which differ between one log and another."""
    if record is None:
        return None
    return {k: v for k, v in record.raw.items() if k not in ("prev_record", "record_id", "signature")}


class WarmAgainstCold(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.revocations = RevocationStore()
        self.revocation_lists = {}  # issuer id -> its latest list
        self.engine = Engine(EngineConfig(
            evaluator_id=RECEIVER,
            audit_log=_LastRecordLog(RECEIVER, AUDIT),
            trusted_issuers={ISSUER.key_id: ISSUER.public_hex},
            steward_keys={STEWARD.key_id: STEWARD.public_hex},
            mapping_profile=MappingProfile.from_dict(PROFILE.raw),
            revocations=self.revocations,
            local_policy=LocalPolicy("machine-policy", ("core.amount",)),
        ))
        self.now = MOMENTS[0]
        self.nonces = itertools.count()
        self.last = None  # the last presentation, replayed as it was
        self.evicted = False

    def _run(self, *presentations) -> None:
        """One step: each of ``presentations`` (a long-lived engine's input,
        the cold engine's, then the request) on the long-lived engine and on
        one cold twin of it."""
        cold, log = _cold(self.engine, AUDIT), self.engine.config.audit_log
        written = []
        for warm_input, cold_input, ctx, presenter, pop in presentations:
            expected = _outcome(lambda e: e.evaluate(cold_input, ctx, presenter, pop, now=self.now), cold)
            log.last = None
            got = _outcome(lambda e: e.evaluate(warm_input, ctx, presenter, pop, now=self.now), self.engine)
            assert got == expected
            written += [_unlinked(log.last)] if log.last is not None else []
        assert written == [_unlinked(record) for record in cold.config.audit_log.records()]
        self.last = presentations[-1]

    @rule(
        name=st.sampled_from(sorted(PRESENTABLE)),
        form=st.sampled_from(("bytes", "text", "dict", "container", "forged")),
        listed=st.booleans(),
        spelling=st.sampled_from(("canonical", "shuffled", "flipped")),
        at=st.integers(0, 1),
        ctx=st.sampled_from(CONTEXTS),
        seed=st.integers(0, 3),
    )
    def present(self, name, form, listed, spelling, at, ctx, seed):
        """Present a credential or a chain; ``spelling`` applies to the link at ``at``."""
        rnd = random.Random(seed)
        links = PRESENTABLE[name]
        pairs = [_spelled(c, form, spelling if i == at % len(links) else "canonical", rnd) for i, c in enumerate(links)]
        warm_input, cold_input = [w for w, _ in pairs], [c for _, c in pairs]
        if len(links) == 1:  # the cold engine is given the credential itself
            cold_input = cold_input[0]
            if not listed:
                warm_input = warm_input[0]
        leaf = links[-1]
        pop = make_possession_proof(leaf, RECEIVER, f"machine-{next(self.nonces)}", self.now, HOLDERS[leaf.subject_id])
        self._run((warm_input, cold_input, ctx, leaf.subject_id, pop))

    @rule(credential_id=st.sampled_from(sorted(REVOCABLE)))
    def revoke(self, credential_id):
        issuer_id = REVOCABLE[credential_id].issuer_id
        signer, current = SIGNERS[issuer_id], self.revocation_lists.get(issuer_id)
        if current is None:
            current = new_revocation_list(issuer_id, signer, now=FROM, revoked=[credential_id])
        else:
            current = revoke(current, credential_id, signer, now=FROM)
        self.revocations.update(current, signer.public_hex)
        self.revocation_lists[issuer_id] = current

    @rule()
    def cross_the_window_edge(self):
        self.now = MOMENTS[1] if self.now == MOMENTS[0] else MOMENTS[0]

    @rule()
    def rekey_the_issuer(self):
        trusted = self.engine.config.trusted_issuers
        trusted[ISSUER.key_id] = ISSUER.public_hex if trusted[ISSUER.key_id] != ISSUER.public_hex else REKEYED.public_hex

    @precondition(lambda self: self.last is not None)
    @rule()
    def replay_a_nonce(self):
        self._run(self.last)

    @precondition(lambda self: not self.evicted)
    @rule()
    def present_70_distinct_credentials(self):
        """Evict every kept credential.  Each of the 70 parses, so it is
        remembered, and its issuer is outside the trusted set, so it denies
        before any signature check."""
        self.evicted = True
        self._run(*((wire, wire, CONTEXTS[0], SUBJECT.key_id, None) for wire in EVICTING))


WarmAgainstCold.TestCase.settings = settings(max_examples=150, stateful_step_count=20, deadline=None)
test_a_long_lived_engine_decides_as_a_cold_one = WarmAgainstCold.TestCase
