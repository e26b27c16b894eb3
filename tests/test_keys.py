"""Signing keys and the signature envelope."""

import pytest

from mandate import keys
from mandate.canonical import signing_bytes
from mandate.keys import (
    PUBLIC_KEYS_KEPT,
    KeyError_,
    SigningKey,
    check_signature,
    generate_key,
    load_signing_key,
    read_hex,
    verify_raw,
)

KEY = generate_key("steward:test", seed="keys:steward")


def envelope_signed_with_suite(suite):
    body = {"kind": "probe", "value": "x", "signature": {"suite": suite, "key_id": KEY.key_id}}
    body["signature"]["value"] = KEY.sign(signing_bytes(body)).hex()
    return body


@pytest.mark.parametrize("suite, verifies", [(1, True), (True, False), ("1", False), (2, False), (None, False)])
def test_only_the_integer_suite_one_verifies(suite, verifies):
    # Each envelope is correctly signed over its own suite value.
    assert check_signature(envelope_signed_with_suite(suite), KEY.public_hex) is verifies


def test_key_file_with_boolean_suite_is_refused():
    obj = dict(KEY.to_dict(), suite=True)
    with pytest.raises(KeyError_):
        load_signing_key(obj)
    assert load_signing_key(KEY.to_dict()) == KEY


def test_repr_hides_private_key():
    key = generate_key("steward:test", seed="keys:repr")
    key.sign(b"warm the cached key object")
    text = repr(key)
    assert key.private_bytes.hex() not in text
    assert repr(key.private_bytes) not in text
    assert "steward:test" in text


def test_warmed_key_equals_fresh_key():
    warmed = generate_key("steward:test", seed="keys:eq")
    signature = warmed.sign(b"data")
    assert warmed.public_hex
    fresh = SigningKey(key_id=warmed.key_id, private_bytes=warmed.private_bytes)
    assert warmed == fresh
    assert hash(warmed) == hash(fresh)
    assert fresh.sign(b"data") == signature
    assert warmed != generate_key("steward:test", seed="keys:other")


def test_a_key_map_verifies_with_the_key_the_envelope_names():
    signed = envelope_signed_with_suite(1)
    keys = {KEY.key_id: KEY.public_hex}
    assert check_signature(signed, keys)
    assert not check_signature({"kind": "probe"}, keys)
    assert not check_signature({"signature": "not-an-envelope"}, keys)
    # A key_id that is not a str is never looked up, even where the map holds it.
    non_str = dict(signed, signature=dict(signed["signature"], key_id=7))
    assert not check_signature(non_str, {7: KEY.public_hex})
    assert not check_signature(signed, {"steward:other": KEY.public_hex})


# --- one spelling of hex ----------------------------------------------------------

SIGNATURE = KEY.sign(b"data").hex()


@pytest.mark.parametrize(
    "text",
    [SIGNATURE.upper(), SIGNATURE[:-2] + "AB", " " + SIGNATURE[1:], SIGNATURE[:64] + " " + SIGNATURE[65:],
     SIGNATURE[:-2], SIGNATURE + "00", "0x" + SIGNATURE[2:], SIGNATURE[:-1] + "\n", b"ab" * 64, None],
    ids=["upper", "upper-tail", "leading-space", "inner-space", "short", "long", "0x", "newline", "bytes", "none"],
)
def test_hex_is_read_in_one_spelling_only(text):
    with pytest.raises(KeyError_):
        read_hex(text, 64)
    assert verify_raw(KEY.public_hex, text, b"data") is False


def test_lowercase_hex_reads_and_verifies():
    assert read_hex(SIGNATURE, 64) == bytes.fromhex(SIGNATURE)
    assert verify_raw(KEY.public_hex, SIGNATURE, b"data") is True
    assert verify_raw(KEY.public_hex.upper(), SIGNATURE, b"data") is False


def test_a_key_file_with_upper_case_private_hex_is_refused():
    obj = dict(KEY.to_dict(), private_key=KEY.to_dict()["private_key"].upper())
    with pytest.raises(KeyError_, match="lowercase hex"):
        load_signing_key(obj)


def test_the_public_key_cache_stays_at_its_bound():
    keys._public_key.cache_clear()
    signers = [generate_key(f"k{i}", seed=f"keys:cache:{i}") for i in range(PUBLIC_KEYS_KEPT + 20)]
    for signer in signers:
        assert verify_raw(signer.public_hex, signer.sign(b"data").hex(), b"data")
        assert keys._public_key.cache_info().currsize <= PUBLIC_KEYS_KEPT
    info = keys._public_key.cache_info()
    assert (info.maxsize, info.currsize) == (PUBLIC_KEYS_KEPT, PUBLIC_KEYS_KEPT)
    # Refused hex is never kept.
    assert verify_raw("zz" * 32, SIGNATURE, b"data") is False
    assert keys._public_key.cache_info().currsize == PUBLIC_KEYS_KEPT
