"""Automaton model: observations, output symbols, rule tables, pebble legality.

Members are numbered 1..m+1.  Member 1 is the lone freely moving automaton;
members 2..m+1 are pebbles, each a one-state `Automaton` (its state is its
name) that only ever moves by riding along with member 1.  An observation
captures everything a member can sense: who shares its vertex and the
unordered multiset of occupant sets on its three neighbor vertices.  Because
the multiset is unordered, observations are invariant under every symmetry
of the lattice by construction.

Inside an observation a member set is an integer mask, bit m standing for
member m: `observe` ORs bits in one pass, the enumeration of realizable
observations ORs them while it places members, and a pattern compiles to
mask tests once, when it is built.  The frozensets `Observation.alpha` and
`Observation.neighborhood` give back are built from the masks on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Mapping, Optional, Union

from pebblewalk.lattice import Vertex, neighbors

MemberId = int
StateId = str

MemberSet = frozenset  # of MemberId


def member_set(ids: Iterable[MemberId]) -> MemberSet:
    return frozenset(ids)


# Bit m of a member mask stands for member m.  The cap keeps every mask a
# small int; strategy files hold far fewer members, at most
# strategy_format.MAX_MEMBERS, since validation enumerates their observations.
MAX_MEMBER_ID = 1023


def _id_error(m) -> ValueError:
    return ValueError(f"member id {m} outside 0..{MAX_MEMBER_ID}")


def _member_mask(ids: Iterable[MemberId]) -> int:
    """The bitmask of a member set: bit m is set when member m is in it."""
    mask = 0
    for m in ids:
        if not 0 <= m <= MAX_MEMBER_ID:
            raise _id_error(m)
        mask |= 1 << m
    return mask


def _members(mask: int) -> MemberSet:
    """The member set of a mask, built in ascending id order."""
    return frozenset(m for m in range(mask.bit_length()) if mask >> m & 1)


class Observation(tuple):
    """What one member senses: co-located others plus neighbor occupant sets.

    The value is four member masks: alpha, then the three neighbor occupant
    masks in increasing order as ints.  The multiset has no order of its
    own, so any fixed one makes equal multisets give equal tuples of ints,
    and equality and hashing are tuple operations.  `make` builds one from
    member sets; `alpha` and `neighborhood` read the sets back as
    frozensets, the neighborhood in (size, sorted ids) order.
    """

    __slots__ = ()

    @staticmethod
    def make(alpha: Iterable[MemberId], neighbor_sets: Iterable[Iterable[MemberId]]) -> "Observation":
        masks = tuple(map(_member_mask, neighbor_sets))
        if len(masks) != 3:
            raise ValueError(f"neighborhood must have exactly 3 entries, got {len(masks)}")
        return _observation(_member_mask(alpha), *masks)

    @property
    def alpha(self) -> MemberSet:
        return _members(self[0])

    @property
    def neighborhood(self) -> tuple[MemberSet, MemberSet, MemberSet]:
        return tuple(sorted(map(_members, self[1:]), key=lambda s: (len(s), sorted(s))))

    def __repr__(self) -> str:
        return f"Observation(alpha={self.alpha!r}, neighborhood={self.neighborhood!r})"


_new_tuple = tuple.__new__


def _observation(alpha: int, a: int, b: int, c: int) -> Observation:
    """The observation of an alpha mask and three neighbor masks in any order."""
    if a > b:
        a, b = b, a
    if b > c:
        b, c = c, b
        if a > b:
            a, b = b, a
    return _new_tuple(Observation, (alpha, a, b, c))


@dataclass(frozen=True)
class Stay:
    pass


@dataclass(frozen=True)
class MoveToFree:
    pass


@dataclass(frozen=True)
class MoveToSet:
    target: MemberSet

    def __post_init__(self) -> None:
        if not self.target:
            raise ValueError("move-to-set target must be nonempty")


Output = Union[Stay, MoveToFree, MoveToSet]

STAY = Stay()
MOVE_TO_FREE = MoveToFree()


def move_to_set(ids: Iterable[MemberId]) -> MoveToSet:
    return MoveToSet(member_set(ids))


def format_output(out: Output) -> str:
    if isinstance(out, Stay):
        return "stay"
    if isinstance(out, MoveToFree):
        return "free"
    return "set:" + ",".join(str(i) for i in sorted(out.target))


def parse_output(text: str) -> Output:
    """Inverse of format_output; raises ValueError on anything else."""
    if text == "stay":
        return STAY
    if text == "free":
        return MOVE_TO_FREE
    if text.startswith("set:"):
        body = text[4:]
        if body and all(tok.isascii() and tok.isdigit() for tok in body.split(",")):
            return move_to_set(int(tok) for tok in body.split(","))
    raise ValueError(f"unrecognized output spelling {text!r}")


_ANY = (0, 0)
_NEVER = (-1, -1)


def _exact(ids: MemberSet) -> tuple[int, int]:
    """The (care, want) test of an exact member set."""
    if ids and min(ids) >= 0 and max(ids) > MAX_MEMBER_ID:
        return _NEVER
    return -1, _member_mask(ids)


def _entry_test(entry) -> tuple[int, int]:
    if entry is None:
        return _ANY
    if isinstance(entry, tuple):  # has(id): (bit, bit), or _NEVER above the cap
        bit = _exact(frozenset((entry[1],)))[1]
        return bit, bit
    return _exact(entry)


class ObservationPattern:
    """Predicate over observations, the left side of a rule.

    alpha is None (wildcard) or an exact member set.  The neighborhood is
    None (wildcard) or three entries, each of which is None (wildcard), an
    exact member set, or ("has", id) requiring id to appear in that entry.
    Entries match the observed sets as a multiset: the pattern matches if
    some one-to-one assignment of entries to observed sets satisfies all.

    Construction compiles each part to a mask test `observed & care ==
    want`: a wildcard is (0, 0), an exact set (-1, its mask) and has(id)
    (bit, bit).  A set or has(id) naming an id above MAX_MEMBER_ID becomes
    (-1, -1), which no mask meets.  The neighborhood keeps the distinct
    assignments of its entries to the three observed sets, at most six.
    """

    __slots__ = ("alpha", "entries", "_alpha_care", "_alpha_want", "_arrangements")

    def __init__(self, alpha, entries=None):
        self.alpha = None if alpha is None else member_set(alpha)
        self._alpha_care, self._alpha_want = _ANY if self.alpha is None else _exact(self.alpha)
        if entries is None:
            self.entries = None
            self._arrangements = None
        else:
            entries = tuple(entries)
            if len(entries) != 3:
                raise ValueError("neighborhood pattern needs exactly 3 entries")
            self.entries = tuple(
                e if (e is None or isinstance(e, tuple) and e[0] == "has") else member_set(e)
                for e in entries
            )
            tests = tuple(map(_entry_test, self.entries))
            self._arrangements = None if tests == (_ANY,) * 3 else tuple(
                dict.fromkeys(a + b + c for a, b, c in permutations(tests))
            )

    def matches(self, obs: Observation) -> bool:
        if obs[0] & self._alpha_care != self._alpha_want:
            return False
        arrangements = self._arrangements
        if arrangements is None:
            return True
        _, a, b, c = obs
        for care_a, want_a, care_b, want_b, care_c, want_c in arrangements:
            if a & care_a == want_a and b & care_b == want_b and c & care_c == want_c:
                return True
        return False

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ObservationPattern)
            and self.alpha == other.alpha
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.alpha, self.entries))

    def __repr__(self) -> str:
        a = "*" if self.alpha is None else (set(self.alpha) or "{}")
        if self.entries is None:
            n = "*"
        else:
            n = " ".join(
                "*" if e is None else (f"has({e[1]})" if isinstance(e, tuple) else str(set(e) or "{}"))
                for e in self.entries
            )
        return f"<pattern {a} | {n}>"


WILDCARD = ObservationPattern(None)


@dataclass(frozen=True)
class Rule:
    """One row of an automaton's table: pattern -> (output, next state)."""

    state: StateId
    pattern: ObservationPattern
    output: Output
    next_state: StateId


def rule_members(rule: Rule) -> set[MemberId]:
    """Every member id a rule's pattern or output names."""
    ids: set[MemberId] = set(rule.output.target) if isinstance(rule.output, MoveToSet) else set()
    p = rule.pattern
    if p.alpha is not None:
        ids |= p.alpha
    if p.entries is not None:
        for e in p.entries:
            if isinstance(e, tuple):
                ids.add(e[1])
            elif e is not None:
                ids |= e
    return ids


@dataclass(frozen=True)
class Automaton:
    """Finite-state machine over observations.

    Rules of the current state are tried in listed order; the first matching
    pattern fires.  Unmatched observations fall back to staying put in the
    same state, keeping the transition and output functions total.  The
    `states` attribute holds every state the initial state and rules name.
    """

    initial: StateId
    rules: tuple[Rule, ...]

    def __post_init__(self) -> None:
        names = {r.state for r in self.rules} | {r.next_state for r in self.rules} | {self.initial}
        object.__setattr__(self, "states", frozenset(names))
        by_state: dict[StateId, list[Rule]] = {}
        for rule in self.rules:
            by_state.setdefault(rule.state, []).append(rule)
        object.__setattr__(self, "_by_state", by_state)

    def act(self, state: StateId, obs: Observation) -> tuple[Output, StateId]:
        for rule in self._by_state.get(state, ()):
            if rule.pattern.matches(obs):
                return rule.output, rule.next_state
        return STAY, state

    def outputs_for_observation(self, obs: Observation) -> set[Output]:
        """Every output some state could emit on obs (fallback Stay included)."""
        return {self.act(state, obs)[0] for state in self.states}


def pebble(name: StateId, rows: Iterable[tuple[ObservationPattern, Output]]) -> Automaton:
    """A one-state automaton: its state is its name, and every row keeps it."""
    return Automaton(name, tuple(Rule(name, p, out, name) for p, out in rows))


def consistent_observations(universe: Iterable[MemberId], observer: Optional[MemberId]) -> list[Observation]:
    """All observations realizable by some placement of the given members.

    Consistency means each member occupies one occupant set at most and the
    observer appears nowhere.  Every visible member (the universe minus the
    observer) lies in one of the four cells: the observer's own vertex or
    one of its three neighbours.  Members out of range are not modelled
    (ROADMAP, "Pebble semantics: absent members and symbolic checks").

    The three neighbour cells form a multiset, so an assignment of members
    to cells only matters up to renaming cells 1-3.  Members are placed in
    sorted order and cell k+1 is opened only after cell k (a
    restricted-growth assignment), which yields each distinct observation
    exactly once.  The order is that of the first assignment meeting each
    observation in `product(range(4), repeat=len(visible))` order.
    """
    visible = sorted(set(universe) - ({observer} if observer is not None else set()))
    out: list[Observation] = []
    _place_restricted(tuple(_member_mask((m,)) for m in visible), 0, 0, 0, 0, 0, 0, out)
    return out


def _place_restricted(
    bits: tuple[int, ...], i: int, opened: int, alpha: int, a: int, b: int, c: int, out: list[Observation]
) -> None:
    """Place the members of bits[i:] in restricted-growth order, appending
    each observation; cells a, b, c are neighbour masks, `opened` of them
    in use.

    A module function, not a closure: a closure that calls itself is a
    reference cycle, which kept every result alive until the cyclic garbage
    collector ran and made that collector run about seven times as often.
    """
    if i == len(bits):
        out.append(_observation(alpha, a, b, c))
        return
    bit = bits[i]
    i += 1
    _place_restricted(bits, i, opened, alpha | bit, a, b, c, out)
    _place_restricted(bits, i, opened or 1, alpha, a | bit, b, c, out)
    if opened:
        _place_restricted(bits, i, 2, alpha, a, b | bit, c, out)
    if opened == 2:
        _place_restricted(bits, i, 2, alpha, a, b, c | bit, out)


_LEADER_BIT = 1 << 1


def validate_pebble(p: Automaton, leader: Automaton, universe: Iterable[MemberId], *, observer: MemberId) -> list[str]:
    """Check the two pebble conditions for the pebble that is member
    `observer`; violations come back as messages.

    (1) the pebble has exactly one state; (2) on every realizable observation
    where the pebble's output is not Stay, member 1 must be co-located, and
    some state of the leader must emit the same output on its own view of
    that placement: the same neighbourhood, with the pebble in place of
    member 1 among the co-located.  The check runs the actual rule tables
    over every consistent observation drawn from the member universe.
    """
    problems: list[str] = []
    name = p.initial
    if len(p.states) != 1:
        problems.append(f"pebble {name!r} has {len(p.states)} states, needs exactly 1")
    own_bit = _member_mask((observer,))
    for obs in consistent_observations(universe, observer):
        out, _ = p.act(name, obs)
        if isinstance(out, Stay):
            continue
        alpha, a, b, c = obs
        if not alpha & _LEADER_BIT:
            problems.append(
                f"pebble {name!r} moves on {obs} without member 1 co-located"
            )
            continue
        leader_view = _new_tuple(Observation, (alpha ^ _LEADER_BIT | own_bit, a, b, c))
        if out not in leader.outputs_for_observation(leader_view):
            problems.append(
                f"pebble {name!r} emits {format_output(out)} on {obs},"
                " which member 1 never emits there"
            )
    return problems


def occupants(positions: Mapping[MemberId, Vertex], v: Vertex) -> MemberSet:
    return member_set(m for m, pos in positions.items() if pos == v)


def observe(positions: Mapping[MemberId, Vertex], who: MemberId) -> Observation:
    """Build the observation member `who` perceives in the given configuration.

    One pass ORs each member's bit into one of the four cells.  The cells
    are those of `lattice.neighbors`: left (x-1, y), right (x+1, y), across
    (x, 1-y).  The coordinates are compared inline: building the three
    neighbour vertices per call made the `indist` benchmark about 6 % slower.
    A member id in view outside 0..MAX_MEMBER_ID raises ValueError.
    """
    x, y = positions[who]
    across_y = 1 - y
    alpha = left = right = across = 0
    try:
        for m, (mx, my) in positions.items():
            if my == y:
                if mx == x:
                    if m != who:
                        alpha |= 1 << m
                elif mx == x - 1:
                    left |= 1 << m
                elif mx == x + 1:
                    right |= 1 << m
            elif my == across_y and mx == x:
                across |= 1 << m
    except ValueError:
        lowest = min(positions)
        if lowest >= 0:
            raise
        raise _id_error(lowest) from None  # a shift by a negative member id
    if (alpha | left | right | across) >> MAX_MEMBER_ID + 1:
        for mask in (alpha, left, right, across):
            if mask >> MAX_MEMBER_ID + 1:
                raise _id_error(mask.bit_length() - 1)
    return _observation(alpha, left, right, across)


def resolve_output(out: Output, at: Vertex, positions: Mapping[MemberId, Vertex]) -> set[Vertex]:
    """Option set an output denotes at a vertex; the adversary picks from it.

    Stay is the singleton {at}.  MoveToFree selects the empty neighbors.
    MoveToSet(y) selects neighbors whose occupant set is nonempty and lies
    within y.  An empty result is a strategy fault at the caller's level.
    """
    if isinstance(out, Stay):
        return {at}
    opts: set[Vertex] = set()
    for n in neighbors(at):
        occ = occupants(positions, n)
        if isinstance(out, MoveToFree):
            if not occ:
                opts.add(n)
        else:
            if occ and occ <= out.target:
                opts.add(n)
    return opts
