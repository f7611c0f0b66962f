"""FrozenMap: a frozen dict with value-based equality and hashing."""

from __future__ import annotations

import copy
import pickle

import pytest

from pebblewalk.lattice import vertex
from pebblewalk.util import FrozenMap


def test_frozen_map_equality():
    a = FrozenMap({1: "x", 2: "y"})
    b = FrozenMap({2: "y", 1: "x"})
    assert a == b and hash(a) == hash(b)
    assert a == {1: "x", 2: "y"} and {1: "x", 2: "y"} == a
    assert a != {1: "x"} and {1: "x", 2: "z"} != a
    assert a != FrozenMap({1: "x", 2: "z"}) and a != FrozenMap({1: "x"})
    assert a != [(1, "x"), (2, "y")]


def test_hash_is_the_frozenset_of_items_whatever_the_insertion_order():
    items = [(1, vertex(0, 0)), (2, vertex(3, 1)), (3, vertex(-1, 0))]
    for order in (items, items[::-1], items[1:] + items[:1]):
        m = FrozenMap(order)
        assert hash(m) == hash(frozenset(items))
        assert hash(m) == hash(m)  # the kept hash
    assert hash(FrozenMap()) == hash(frozenset())


MUTATIONS = {
    "setitem": lambda m: m.__setitem__(1, "z"),
    "setitem_new": lambda m: m.__setitem__(9, "z"),
    "delitem": lambda m: m.__delitem__(1),
    "clear": lambda m: m.clear(),
    "pop": lambda m: m.pop(1),
    "pop_missing": lambda m: m.pop(9, None),
    "popitem": lambda m: m.popitem(),
    "setdefault": lambda m: m.setdefault(9, "z"),
    "update": lambda m: m.update({9: "z"}),
    "update_kwargs": lambda m: m.update(k="z"),
    "ior": lambda m: m.__ior__({9: "z"}),
}


@pytest.mark.parametrize("mutate", MUTATIONS.values(), ids=MUTATIONS)
def test_every_mutator_raises_and_leaves_the_map_as_it_was(mutate):
    m = FrozenMap({1: "x", 2: "y"})
    before = hash(m)
    with pytest.raises(TypeError):
        mutate(m)
    assert m == {1: "x", 2: "y"} and list(m) == [1, 2]
    assert hash(m) == before == hash(FrozenMap({1: "x", 2: "y"}))


def test_in_place_or_raises_and_leaves_the_name_bound_to_the_map():
    m = FrozenMap({1: "x"})
    kept = m
    with pytest.raises(TypeError):
        m |= {2: "y"}
    assert m is kept and m == {1: "x"}


def test_fromkeys_raises():
    with pytest.raises(TypeError):
        FrozenMap.fromkeys([1, 2])


def test_set_returns_a_new_map():
    m = FrozenMap({1: "x", 2: "y"})
    n = m.set(2, "z").set(3, "w")
    assert type(n) is FrozenMap and n == {1: "x", 2: "z", 3: "w"} and list(n) == [1, 2, 3]
    assert m == {1: "x", 2: "y"}


@pytest.mark.parametrize(
    "rebuild",
    [copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))]
    + [lambda m, p=p: pickle.loads(pickle.dumps(m, protocol=p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)],
)
def test_copies_and_pickles_keep_type_equality_and_hash(rebuild):
    for m in (FrozenMap({2: vertex(1, 0), 1: vertex(0, 1)}), FrozenMap()):
        hash(m)  # a kept hash rides along or is recomputed, never wrong
        again = rebuild(m)
        assert type(again) is FrozenMap
        assert again == m and list(again) == list(m)
        assert hash(again) == hash(m) == hash(frozenset(m.items()))


def test_repr_sorts_keys_by_their_repr():
    assert repr(FrozenMap({2: vertex(1, 0), 1: vertex(0, 1)})) == "FrozenMap({1: (0,1), 2: (1,0)})"
    assert repr(FrozenMap({"b": "x", "a": 1})) == "FrozenMap({'a': 1, 'b': 'x'})"
    assert repr(FrozenMap()) == "FrozenMap({})"
