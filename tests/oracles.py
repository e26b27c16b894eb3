"""Independent oracles the implementation is tested against.

These are deliberately naive and written before (and apart from) the engine
code: a recursive reference matcher for the restricted glob language,
language enumeration over a small alphabet for containment, per-value
membership tests for deciding whether a conjunction of limits admits
anything, and a recursive walk that says which values canonical JSON
refuses.  They are frozen; when engine and oracle disagree, the engine is
wrong until proven otherwise.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import product

ALPHABET = ("a", "b", "/")


def reference_glob_match(pattern: str, text: str) -> bool:
    """Recursive definition of the restricted glob language, no cleverness."""
    if pattern == "":
        return text == ""
    if pattern[0] == "*":
        # '*' absorbs zero characters, or one and stays.
        return reference_glob_match(pattern[1:], text) or (
            text != "" and reference_glob_match(pattern, text[1:])
        )
    return text != "" and pattern[0] == text[0] and reference_glob_match(pattern[1:], text[1:])


@lru_cache(maxsize=None)
def all_strings(max_len: int) -> tuple[str, ...]:
    strings: list[str] = []
    for length in range(max_len + 1):
        for combo in product(ALPHABET, repeat=length):
            strings.append("".join(combo))
    return tuple(strings)


def language_bitmask(pattern: str, max_len: int = 6) -> int:
    """Membership of every alphabet string up to max_len, packed into one int."""
    mask = 0
    for i, text in enumerate(all_strings(max_len)):
        if reference_glob_match(pattern, text):
            mask |= 1 << i
    return mask


def enumeration_subsumes(parent: str, child: str, max_len: int = 6) -> bool:
    """Finite-language containment: child's matches (up to max_len) inside parent's."""
    child_mask = language_bitmask(child, max_len)
    parent_mask = language_bitmask(parent, max_len)
    return child_mask & ~parent_mask == 0


def all_patterns(max_len: int = 5, max_stars: int = 2) -> list[str]:
    symbols = ALPHABET + ("*",)
    patterns: list[str] = []
    for length in range(max_len + 1):
        for combo in product(symbols, repeat=length):
            if combo.count("*") <= max_stars:
                patterns.append("".join(combo))
    return patterns


_COMPARE = {
    "eq": operator.eq,
    "lt": operator.lt,
    "lte": operator.le,
    "gt": operator.gt,
    "gte": operator.ge,
}


def numeric_admits(limits, value) -> bool:
    """Whether ``value`` meets every ``(operator, bound)`` limit of a conjunction."""
    return all(_COMPARE[op](value, bound) for op, bound in limits)


def enumeration_admits(lists, value: str) -> bool:
    """Whether ``value`` passes every ``(allowed, denied)`` pair; None means unset."""
    return all(
        (allowed is None or value in allowed) and (denied is None or value not in denied)
        for allowed, denied in lists
    )


def reference_canonical_refusal(obj, path: str = "$") -> None:
    """Recursive definition of what canonical JSON refuses: a float, a
    non-string key or any other type, raised with the path of the first
    offence in insertion order, each key before its value."""
    if isinstance(obj, float):
        raise ValueError(f"float at {path} is not canonicalizable; use a string decimal")
    if isinstance(obj, dict):
        for key, value in obj.items():
            if not isinstance(key, str):
                raise ValueError(f"non-string key at {path}")
            reference_canonical_refusal(value, f"{path}.{key}")
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            reference_canonical_refusal(value, f"{path}[{i}]")
    elif obj is not None and not isinstance(obj, (str, int, bool)):
        raise ValueError(f"unsupported type {type(obj).__name__} at {path}")
