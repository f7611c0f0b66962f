"""Geometry of the two-row lattice and its symmetry group."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st
import pytest

from pebblewalk.lattice import (
    GENERATORS,
    IDENTITY,
    X_REFLECTION,
    Y_REFLECTION,
    Symmetry,
    Vertex,
    are_neighbors,
    neighbors,
    vertex,
    x_translation,
)

verts = st.builds(Vertex, st.integers(-50, 50), st.integers(0, 1))
symmetries = st.builds(
    Symmetry,
    x_sign=st.sampled_from([1, -1]),
    x_shift=st.integers(-20, 20),
    flip_y=st.booleans(),
)


def test_vertex_constructor_checks_row():
    assert vertex(7, 1) == Vertex(7, 1)
    with pytest.raises(ValueError):
        vertex(0, 2)
    with pytest.raises(ValueError):
        vertex(0, -1)


def test_neighbors_examples():
    assert set(neighbors(Vertex(5, 0))) == {Vertex(4, 0), Vertex(6, 0), Vertex(5, 1)}
    assert set(neighbors(Vertex(0, 1))) == {Vertex(-1, 1), Vertex(1, 1), Vertex(0, 0)}


@given(verts)
def test_neighbors_count_and_irreflexive(v):
    ns = neighbors(v)
    assert len(set(ns)) == 3
    assert v not in ns


@given(verts, verts)
def test_neighbor_symmetry(u, v):
    assert are_neighbors(u, v) == are_neighbors(v, u)


def test_apply_symmetry_examples():
    assert Y_REFLECTION.apply(Vertex(4, 0)) == Vertex(4, 1)
    assert X_REFLECTION.apply(Vertex(3, 1)) == Vertex(-3, 1)
    assert x_translation(-3).apply(Vertex(3, 1)) == Vertex(0, 1)


def test_generator_relations():
    assert X_REFLECTION.then(X_REFLECTION) == IDENTITY
    assert Y_REFLECTION.then(Y_REFLECTION) == IDENTITY
    t = x_translation(5)
    assert t.then(Y_REFLECTION) == Y_REFLECTION.then(t)


@given(symmetries, verts)
def test_inverse_is_inverse(s, v):
    assert s.inverse().apply(s.apply(v)) == v
    assert s.apply(s.inverse().apply(v)) == v


@given(symmetries, symmetries, verts)
def test_composition_law(s, t, v):
    assert s.then(t).apply(v) == t.apply(s.apply(v))


@given(st.sampled_from(GENERATORS), verts, verts)
def test_symmetries_preserve_adjacency(s, u, v):
    assert are_neighbors(u, v) == are_neighbors(s.apply(u), s.apply(v))


@given(symmetries, verts)
def test_symmetry_keeps_row_valid(s, v):
    assert s.apply(v).y in (0, 1)
