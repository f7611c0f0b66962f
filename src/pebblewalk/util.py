"""Small shared helpers."""

from __future__ import annotations

from typing import Iterator, Mapping, TypeVar

K = TypeVar("K")
V = TypeVar("V")


class FrozenMap(Mapping[K, V]):
    """Immutable, hashable mapping with value-based equality.

    Used wherever a configuration (member id -> vertex, member id -> state)
    must serve as a dict key or live inside a frozen dataclass.
    """

    __slots__ = ("_d", "_hash")

    def __init__(self, items: Mapping[K, V] | Iterator[tuple[K, V]] = ()):
        self._d = dict(items)
        self._hash: int | None = None

    def __getitem__(self, key: K) -> V:
        return self._d[key]

    def __iter__(self) -> Iterator[K]:
        return iter(self._d)

    def __len__(self) -> int:
        return len(self._d)

    def keys(self):
        return self._d.keys()

    def values(self):
        return self._d.values()

    def items(self):
        return self._d.items()

    def __eq__(self, other) -> bool:
        if isinstance(other, FrozenMap):
            return self._d == other._d
        return super().__eq__(other)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._d.items()))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {v!r}" for k, v in sorted(self._d.items(), key=lambda kv: repr(kv[0])))
        return f"FrozenMap({{{inner}}})"

    def set(self, key: K, value: V) -> "FrozenMap[K, V]":
        d = dict(self._d)
        d[key] = value
        return FrozenMap(d)


class Memo(dict):
    """Dict that computes a missing value from its key once and keeps it."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value
