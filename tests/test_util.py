"""FrozenMap equality and hashing."""

from __future__ import annotations

from pebblewalk.util import FrozenMap


def test_frozen_map_equality():
    a = FrozenMap({1: "x", 2: "y"})
    b = FrozenMap({2: "y", 1: "x"})
    assert a == b and hash(a) == hash(b)
    assert a == {1: "x", 2: "y"} and {1: "x", 2: "y"} == a
    assert a != {1: "x"} and {1: "x", 2: "z"} != a
    assert a != FrozenMap({1: "x", 2: "z"}) and a != FrozenMap({1: "x"})
    assert a != [(1, "x"), (2, "y")]
