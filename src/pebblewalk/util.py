"""Small shared helpers."""

from __future__ import annotations

from typing import TypeVar

K = TypeVar("K")
V = TypeVar("V")


class FrozenMap(dict[K, V]):
    """A frozen dict: immutable, hashable, equal to any dict with its items.

    Used wherever a configuration (member id -> vertex, member id -> state)
    must serve as a dict key or live inside a frozen dataclass.  Reads,
    iteration and equality are dict's own; every mutator raises TypeError.
    The hash is hash(frozenset(items)), computed on first use and kept.
    """

    __slots__ = ("_hash",)

    def _immutable(self, *args, **kwargs):
        raise TypeError("FrozenMap is immutable")

    __setitem__ = __delitem__ = clear = pop = popitem = setdefault = update = __ior__ = _immutable

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            h = self._hash = hash(frozenset(self.items()))
        return h

    def __reduce__(self):
        return FrozenMap, (dict(self),)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {v!r}" for k, v in sorted(self.items(), key=lambda kv: repr(kv[0])))
        return f"FrozenMap({{{inner}}})"

    def set(self, key: K, value: V) -> "FrozenMap[K, V]":
        return FrozenMap({**self, key: value})


class Memo(dict):
    """Dict that computes a missing value from its key once and keeps it."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value
