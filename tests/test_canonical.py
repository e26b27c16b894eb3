"""Canonical serialisation: the one walk, against a recursive reference, and the walk-free renderings."""

import json
from collections import OrderedDict
from decimal import Decimal
from enum import IntEnum
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mandate import canonical
from mandate.canonical import (
    CanonicalizationError,
    canonical_bytes,
    canonical_dumps,
    load_json,
    plain_dumps,
    signing_bytes,
    signing_text,
)
from oracles import reference_canonical_refusal


class Text(str):
    pass


class Number(int):
    pass


class Record(dict):
    pass


class Level(IntEnum):
    LOW = 1
    HIGH = 2


PLAIN_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4))
ODD_SCALARS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.just(float("nan")),
    st.decimals(),
    st.sets(st.integers(), max_size=2),
    st.binary(max_size=3),
    st.builds(Text, st.text(max_size=3)),
    st.builds(Number, st.integers()),
    st.sampled_from(Level),
)
# int, bool and None keys: json.dumps would quietly turn each into a string.
ODD_KEYS = st.one_of(st.integers(), st.booleans(), st.none(), st.builds(Text, st.text(max_size=3)))


def _containers(children, keys):
    return st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(keys, children, max_size=3),
    )


PLAIN = st.recursive(
    PLAIN_SCALARS, lambda children: _containers(children, st.text(max_size=4)), max_leaves=12
)
ANY = st.recursive(
    st.one_of(PLAIN_SCALARS, ODD_SCALARS),
    lambda children: st.one_of(
        _containers(children, st.one_of(st.text(max_size=4), ODD_KEYS)),
        st.dictionaries(st.text(max_size=3), children, max_size=3).map(Record),
        st.dictionaries(st.text(max_size=3), children, max_size=3).map(OrderedDict),
    ),
    max_leaves=12,
)


def _walk_verdict(obj):
    try:
        reference_canonical_refusal(obj)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(obj=st.one_of(PLAIN, ANY))
@example(obj={"": 0.0, 0: None})  # the float is met before the int key, in insertion order
def test_canonical_dumps_rejects_exactly_what_the_walk_rejects(obj):
    expected = _walk_verdict(obj)
    if expected is not None:
        with pytest.raises(CanonicalizationError) as raised:
            canonical_dumps(obj)
        assert str(raised.value) == expected
    else:
        text = canonical_dumps(obj)
        assert text == json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"a": [1, {"b": 1.5}]}, "float at $.a[1].b is not canonicalizable; use a string decimal"),
        ({"a": float("nan")}, "float at $.a is not canonicalizable; use a string decimal"),
        ({"a": {1: "x"}}, "non-string key at $.a"),
        ({"a": {None: "x"}}, "non-string key at $.a"),
        ((1, Decimal("1")), "unsupported type Decimal at $[1]"),
        ({"a": b"x"}, "unsupported type bytes at $.a"),
        ([{1, 2}], "unsupported type set at $[0]"),
    ],
)
def test_a_rejection_names_the_path_of_the_first_offence(obj, message):
    with pytest.raises(CanonicalizationError) as raised:
        canonical_dumps(obj)
    assert str(raised.value) == message


def test_subclasses_are_still_accepted():
    obj = OrderedDict(b=Level.HIGH, a=Record({Text("k"): Number(3)}), c=(Text("t"),))
    assert canonical_dumps(obj) == '{"a":{"k":3},"b":2,"c":["t"]}'


def test_a_cyclic_object_raises_instead_of_looping():
    loop: list = []
    loop.append(loop)
    with pytest.raises(RecursionError):
        canonical_dumps(loop)


# --- walk-free renderings of values that are plain by construction --------------------

NAMES = st.sampled_from(["a", "prev_record", "record_id", "s", "signature", "sig", "value", "z", "é"])
# Values that may hold "signature" and "value" members of their own, which
# the cut must never be confused by.
NESTED = st.recursive(
    PLAIN_SCALARS, lambda children: _containers(children, st.one_of(NAMES, st.text(max_size=4))), max_leaves=12
)
PLAIN_OBJECTS = st.dictionaries(st.one_of(NAMES, st.text(max_size=4)), NESTED, max_size=6)
ENVELOPES = st.one_of(NESTED, st.dictionaries(st.sampled_from(["key_id", "suite", "value", "zz", "a"]), NESTED))


@settings(max_examples=300, deadline=None)
@given(obj=PLAIN_OBJECTS, envelope=ENVELOPES)
# What the cut removes also occurs elsewhere: as copies, and as the start of a longer member.
@example(obj={"a": {"value": "v"}, "z": [{"value": "v"}]}, envelope={"key_id": "k", "value": "v"})
@example(obj={"a": {"value": 10}}, envelope={"value": 1})
@example(obj={"p": {"signature": 7}}, envelope=7)
def test_walk_free_renderings_equal_canonical_dumps(obj, envelope):
    assert plain_dumps(obj) == canonical_dumps(obj)
    members = {k: v for k, v in obj.items() if k not in ("record_id", "signature")}
    for signed in (dict(obj, signature=envelope), members):
        whole = plain_dumps(signed)
        assert whole.encode("utf-8") == canonical_bytes(signed)
        assert signing_text(signed, whole).encode("utf-8") == signing_bytes(signed)


def _json_dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


@settings(max_examples=300, deadline=None)
@given(obj=PLAIN)
def test_the_kept_encoder_renders_as_json_dumps(obj):
    assert plain_dumps(obj) == canonical_dumps(obj) == _json_dumps(obj)


@settings(max_examples=100, deadline=None)
@given(obj=PLAIN)
def test_without_the_c_encoder_the_kept_encoder_is_json_encode(obj):
    with mock.patch.object(json.encoder, "c_make_encoder", None):
        encode = canonical._kept_encoder()
        assert encode == canonical._ENCODER.encode
        assert encode(obj) == _json_dumps(obj)


@pytest.mark.parametrize("accelerated", [True, False], ids=["c-encoder", "pure-python"])
def test_a_cycle_raises_recursion_error_in_either_encoder(accelerated):
    loop: dict = {"a": []}
    loop["a"].append(loop)
    with mock.patch.object(json.encoder, "c_make_encoder", json.encoder.c_make_encoder if accelerated else None):
        encode = canonical._kept_encoder()
        with pytest.raises(RecursionError):
            encode(loop)
    with pytest.raises(RecursionError):
        plain_dumps(loop)


@pytest.mark.parametrize(
    "text, message",
    [
        ("1.5", "float at $ is"),
        ('{"a":[1,{"b":1e3}]}', "float at $.a[1].b is"),
        ('{"a":NaN}', "float at $.a is"),
        ('[-Infinity]', "float at $[0] is"),
        ('{"n":Infinity}', "float at $.n is"),
    ],
)
def test_load_json_refuses_floats_by_their_path(text, message):
    with pytest.raises(CanonicalizationError) as raised:
        load_json(text)
    assert str(raised.value) == message + " not canonicalizable; use a string decimal"


def test_a_duplicate_name_is_still_reported_before_a_float():
    with pytest.raises(ValueError, match="duplicate member name 'a'") as raised:
        load_json('{"a":1.5,"a":2}')
    assert not isinstance(raised.value, CanonicalizationError)
