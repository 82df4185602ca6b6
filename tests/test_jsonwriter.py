"""The `--output json` writer against json.dumps(obj, indent=2,
ensure_ascii=False): the same text, byte for byte, on seeded nested
payloads, and TypeError on the values no payload holds."""

import json
import random
import sys
from fractions import Fraction

import pytest

from confan.jsonwriter import iterencode

# quotes, backslashes, control characters, and non-ASCII past the BMP too
CHARS = ['a', 'Z', '7', ' ', '"', '\\', '/', '\n', '\t', '\x00', '\x1f', '\x7f',
         'é', 'Λ', '∅', ' ', '😀']


def text(rng):
    return "".join(rng.choice(CHARS) for _ in range(rng.randrange(5)))


def scalar(rng):
    return rng.choice([
        text(rng), rng.randrange(-10**6, 10**6), -(2**70), 0, True, False, None,
    ])


def key(rng):
    return rng.choice([text(rng), text(rng), rng.randrange(-50, 50), True, False, None])


def payload(rng, depth):
    """A scalar, or a list, tuple or dict of up to four members, nested up to
    depth; lists of ints alone and of strings alone are common, since the
    writer joins those in one call."""
    if depth == 0 or rng.random() < 0.15:
        return scalar(rng)
    size = rng.randrange(5)
    kind = rng.randrange(5)
    if kind == 0:
        return [rng.randrange(-99, 100) for _ in range(size)]
    if kind == 1:
        return [text(rng) for _ in range(size)]
    members = [payload(rng, depth - 1) for _ in range(size)]
    if kind == 2:
        return members
    if kind == 3:
        return tuple(members)
    return {key(rng): member for member in members}


def depth(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return 1 + max(map(depth, obj), default=0)
    return 0


def encode(obj):
    return "".join(iterencode(obj))


def dumps(obj):
    return json.dumps(obj, indent=2, ensure_ascii=False)


def test_equals_json_dumps_on_seeded_payloads():
    deepest = 0
    for seed in range(400):
        obj = payload(random.Random(seed), 6)
        assert encode(obj) == dumps(obj), seed
        deepest = max(deepest, depth(obj))
    assert deepest >= 4


@pytest.mark.parametrize(
    "obj",
    [
        {}, [], (), "", 0, -1, True, False, None, "\"\\\n\x00é😀",
        [[]], [{}], {"a": {}, "b": []}, [[], [[]], [[[1, "x", None]]]],
        {None: 1, True: 2, False: 3, -4: [True, None], "k": ("t", (1, -2))},
        {"command": "fan", "cones": [(0, 1, 2), (0, 1), ()], "verify": {"pi1": "pass"}},
    ],
)
def test_equals_json_dumps_on_edge_cases(obj):
    assert encode(obj) == dumps(obj)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
def test_5000_digit_ints():
    big = 1 - 10**5000  # 5,000 nines, negated
    obj = {big: big, "list": [big, 1], "nested": [{"x": [big]}, None]}
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert encode(obj) == dumps(obj)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "obj",
    [Fraction(1, 2), [1, Fraction(1, 2)], {"a": {"b": [Fraction(1, 2)]}}],
    ids=["scalar", "flat", "nested"],
)
def test_fraction_raises_type_error_as_json_does(obj):
    with pytest.raises(TypeError):
        dumps(obj)
    with pytest.raises(TypeError):
        encode(obj)


@pytest.mark.parametrize(
    "obj", [0.5, [1, 0.5], {"a": [[0.5]]}, {(1, 2): 3}], ids=["scalar", "flat", "nested", "key"]
)
def test_floats_and_tuple_keys_raise_type_error(obj):
    with pytest.raises(TypeError):
        encode(obj)
