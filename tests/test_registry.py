"""Trust registry construction, loading, and grant queries."""

import pytest

from mandate.keys import attach_signature, generate_key
from mandate.model import parse_timestamp
from mandate.registry import (
    IssuerEntry,
    RegistryError,
    StateAuthorityEntry,
    build_registry,
    load_registry,
)

NOW = parse_timestamp("2026-05-01T12:00:00Z")
STEWARD = generate_key("steward:test", seed="registry:steward")
STEWARD_KEYS = {"steward:test": STEWARD.public_hex}


def registry(issuers=None, authorities=(), valid_from="2026-01-01T00:00:00Z", valid_until="2026-12-31T23:59:59Z"):
    if issuers is None:
        issuers = [
            IssuerEntry(
                issuer_id="iss:test:authority",
                standing="active",
                credential_classes=frozenset({"agent-authorization"}),
                profiles=frozenset({"claims"}),
            )
        ]
    return build_registry(
        registry_id="registry:test",
        version=1,
        valid_from=parse_timestamp(valid_from),
        valid_until=parse_timestamp(valid_until),
        issuers=issuers,
        steward_key=STEWARD,
        state_authorities=authorities,
    )


def test_load_round_trip_and_digest_stability():
    r = registry()
    loaded = load_registry(r.to_dict(), STEWARD_KEYS, NOW)
    assert loaded.digest() == r.digest()
    assert loaded.grants("iss:test:authority", "agent-authorization", "claims")


def test_grants_requires_active_standing():
    suspended = registry(
        issuers=[
            IssuerEntry(
                issuer_id="iss:test:authority",
                standing="suspended",
                credential_classes=frozenset({"agent-authorization"}),
                profiles=frozenset({"claims"}),
            )
        ]
    )
    assert not suspended.grants("iss:test:authority", "agent-authorization", "claims")
    revoked = registry(
        issuers=[
            IssuerEntry(
                issuer_id="iss:test:authority",
                standing="revoked",
                credential_classes=frozenset({"agent-authorization"}),
                profiles=frozenset({"claims"}),
            )
        ]
    )
    assert not revoked.grants("iss:test:authority", "agent-authorization", "claims")


def test_grants_matches_class_and_profile():
    r = registry()
    assert not r.grants("iss:test:other", "agent-authorization", "claims")
    assert not r.grants("iss:test:authority", "payment-authorization", "claims")
    assert not r.grants("iss:test:authority", "agent-authorization", "other-profile")


def test_grants_wildcards():
    r = registry(
        issuers=[
            IssuerEntry(
                issuer_id="iss:test:authority",
                standing="active",
                credential_classes=frozenset({"*"}),
                profiles=frozenset({"*"}),
            )
        ]
    )
    assert r.grants("iss:test:authority", "anything", "any-profile")


def test_state_authority_permission():
    r = registry(
        authorities=[
            StateAuthorityEntry(
                pointer="https://state.test.example/ledger", profiles=frozenset({"claims"})
            )
        ]
    )
    assert r.permits_state_authority("https://state.test.example/ledger", "claims")
    assert not r.permits_state_authority("https://state.test.example/ledger", "other")
    assert not r.permits_state_authority("https://elsewhere.example", "claims")


def test_window_checks():
    r = registry()
    assert r.in_window(NOW)
    assert not r.in_window(parse_timestamp("2027-06-01T00:00:00Z"))
    with pytest.raises(RegistryError) as exc:
        load_registry(r.to_dict(), STEWARD_KEYS, parse_timestamp("2027-06-01T00:00:00Z"))
    assert exc.value.code == "out_of_window"


def test_a_registry_window_that_ends_before_it_begins_is_refused_unsigned():
    with pytest.raises(RegistryError) as exc:
        registry(valid_from="2026-12-31T23:59:59Z", valid_until="2026-01-01T00:00:00Z")
    assert exc.value.code == "malformed"
    # A window of one instant still verifies at that instant.
    r = registry(valid_from="2026-05-01T12:00:00Z", valid_until="2026-05-01T12:00:00Z")
    assert load_registry(r.to_dict(), STEWARD_KEYS, NOW).digest() == r.digest()


def test_load_rejects_unknown_steward_and_tampering():
    r = registry()
    with pytest.raises(RegistryError) as exc:
        load_registry(r.to_dict(), {"someone:else": STEWARD.public_hex}, NOW)
    assert exc.value.code == "bad_signature"

    raw = dict(r.raw)
    raw["issuers"] = dict(raw["issuers"])
    raw["issuers"]["iss:test:attacker"] = {
        "standing": "active",
        "credential_classes": ["*"],
        "profiles": ["*"],
    }
    with pytest.raises(RegistryError) as exc:
        load_registry(raw, STEWARD_KEYS, NOW)
    assert exc.value.code == "bad_signature"


def test_load_rejects_malformed():
    with pytest.raises(RegistryError) as exc:
        load_registry(b"\xff\xfe", STEWARD_KEYS)
    assert exc.value.code == "malformed"
    with pytest.raises(RegistryError) as exc:
        load_registry({"kind": "trust_registry", "issuers": {"x": {"standing": "maybe"}}}, STEWARD_KEYS)
    assert exc.value.code == "malformed"


@pytest.mark.parametrize("where", ["credential_classes", "profiles", "state_authority_profiles"])
def test_a_string_where_a_list_is_expected_is_malformed(where):
    # A signed "p*" must not be read as the characters {"p", "*"}, which would
    # permit any profile.
    authorities = [StateAuthorityEntry(pointer="x", profiles=frozenset({"claims"}))]
    body = registry(authorities=authorities).to_dict()
    del body["signature"]
    if where == "state_authority_profiles":
        body["state_authorities"][0]["profiles"] = "p*"
    else:
        body["issuers"]["iss:test:authority"][where] = "p*"
    with pytest.raises(RegistryError) as err:
        load_registry(attach_signature(body, STEWARD), STEWARD_KEYS, NOW)
    assert err.value.code == "malformed"


@pytest.mark.parametrize("pointer", [5, None, ["x"]])
def test_a_state_authority_pointer_must_be_a_string(pointer):
    authorities = [StateAuthorityEntry(pointer="x", profiles=frozenset({"*"}))]
    body = registry(authorities=authorities).to_dict()
    del body["signature"]
    body["state_authorities"][0]["pointer"] = pointer
    with pytest.raises(RegistryError) as err:
        load_registry(attach_signature(body, STEWARD), STEWARD_KEYS, NOW)
    assert err.value.code == "malformed"
