"""The two-row integer lattice and its symmetry group.

Vertices are pairs (x, y) with x any integer and y in {0, 1}.  Every vertex
has exactly three neighbors: left, right, and the vertex directly across in
the other row.  The symmetry group of this graph is generated by horizontal
translations, the reflection x -> -x, and the row swap y -> 1 - y; every
symmetry factors as x -> s*x + t (s in {+1,-1}) combined with an optional
row swap, which is the closed form stored here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class Vertex(NamedTuple):
    x: int
    y: int

    def __repr__(self) -> str:
        return f"({self.x},{self.y})"


def vertex(x: int, y: int) -> Vertex:
    """Checked constructor: the second coordinate must be 0 or 1."""
    if y not in (0, 1):
        raise ValueError(f"row must be 0 or 1, got {y}")
    return Vertex(x, y)


def neighbors(v: Vertex) -> tuple[Vertex, Vertex, Vertex]:
    """The three adjacent vertices, in (left, right, across) order."""
    return (Vertex(v.x - 1, v.y), Vertex(v.x + 1, v.y), Vertex(v.x, 1 - v.y))


def are_neighbors(u: Vertex, v: Vertex) -> bool:
    return v in neighbors(u)


@dataclass(frozen=True)
class Symmetry:
    """Graph automorphism x -> x_sign*x + x_shift, optionally swapping rows."""

    x_sign: int = 1
    x_shift: int = 0
    flip_y: bool = False

    def __post_init__(self) -> None:
        if self.x_sign not in (1, -1):
            raise ValueError("x_sign must be +1 or -1")

    def apply(self, v: Vertex) -> Vertex:
        return Vertex(self.x_sign * v.x + self.x_shift, 1 - v.y if self.flip_y else v.y)

    def then(self, other: "Symmetry") -> "Symmetry":
        """Composition: (self.then(other)).apply(v) == other.apply(self.apply(v))."""
        return Symmetry(
            x_sign=other.x_sign * self.x_sign,
            x_shift=other.x_sign * self.x_shift + other.x_shift,
            flip_y=self.flip_y != other.flip_y,
        )

    def inverse(self) -> "Symmetry":
        return Symmetry(x_sign=self.x_sign, x_shift=-self.x_sign * self.x_shift, flip_y=self.flip_y)


IDENTITY = Symmetry()
X_REFLECTION = Symmetry(x_sign=-1)
Y_REFLECTION = Symmetry(flip_y=True)


def x_translation(k: int) -> Symmetry:
    return Symmetry(x_shift=k)


GENERATORS = (x_translation(1), X_REFLECTION, Y_REFLECTION)
