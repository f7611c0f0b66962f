"""Automaton model: observations, output symbols, rule tables, pebble legality.

Members are numbered 1..m+1.  Member 1 is the lone freely moving automaton;
members 2..m+1 are pebbles, single-state machines that only ever move by
riding along with member 1.  An observation captures everything a member can
sense: who shares its vertex and the unordered multiset of occupant sets on
its three neighbor vertices.  Because the multiset is unordered, observations
are invariant under every symmetry of the lattice by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Union

from pebblewalk.lattice import Vertex, neighbors

MemberId = int
StateId = str

MemberSet = frozenset  # of MemberId


def member_set(ids: Iterable[MemberId]) -> MemberSet:
    return frozenset(ids)


def _set_key(s: MemberSet) -> tuple[int, tuple[MemberId, ...]]:
    return (len(s), tuple(sorted(s)))


@dataclass(frozen=True)
class Observation:
    """What one member senses: co-located others plus neighbor occupant sets.

    The three neighbor occupant sets form a multiset; we store them sorted
    under a fixed total order so equal multisets compare equal structurally.
    """

    alpha: MemberSet
    neighborhood: tuple[MemberSet, MemberSet, MemberSet]

    @staticmethod
    def make(alpha: Iterable[MemberId], neighbor_sets: Iterable[Iterable[MemberId]]) -> "Observation":
        sets = tuple(sorted(map(frozenset, neighbor_sets), key=_set_key))
        if len(sets) != 3:
            raise ValueError(f"neighborhood must have exactly 3 entries, got {len(sets)}")
        return Observation(member_set(alpha), sets)  # type: ignore[arg-type]


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


class ObservationPattern:
    """Predicate over observations, the left side of a rule.

    alpha is None (wildcard) or an exact member set.  The neighborhood is
    None (wildcard) or three entries, each of which is None (wildcard), an
    exact member set, or ("has", id) requiring id to appear in that entry.
    Entries match the observed sets as a multiset: the pattern matches if
    some one-to-one assignment of entries to observed sets satisfies all.
    """

    __slots__ = ("alpha", "entries")

    def __init__(self, alpha, entries=None):
        self.alpha = None if alpha is None else member_set(alpha)
        if entries is None:
            self.entries = None
        else:
            entries = tuple(entries)
            if len(entries) != 3:
                raise ValueError("neighborhood pattern needs exactly 3 entries")
            self.entries = tuple(
                e if (e is None or isinstance(e, tuple) and e[0] == "has") else member_set(e)
                for e in entries
            )

    def _entry_matches(self, entry, observed: MemberSet) -> bool:
        if entry is None:
            return True
        if isinstance(entry, tuple):
            return entry[1] in observed
        return entry == observed

    def matches(self, obs: Observation) -> bool:
        if self.alpha is not None and self.alpha != obs.alpha:
            return False
        if self.entries is None:
            return True
        return self._match_multiset(list(self.entries), list(obs.neighborhood))

    def _match_multiset(self, entries, observed) -> bool:
        if not entries:
            return True
        entry = entries.pop()
        for i, o in enumerate(observed):
            if self._entry_matches(entry, o):
                if self._match_multiset(entries, observed[:i] + observed[i + 1 :]):
                    entries.append(entry)
                    return True
        entries.append(entry)
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


@dataclass(frozen=True)
class Automaton:
    """Finite-state machine over observations.

    Rules of the current state are tried in listed order; the first matching
    pattern fires.  Unmatched observations fall back to staying put in the
    same state, keeping the transition and output functions total.
    """

    initial: StateId
    rules: tuple[Rule, ...]
    states: frozenset[StateId] = field(default=frozenset())

    def __post_init__(self) -> None:
        names = {r.state for r in self.rules} | {r.next_state for r in self.rules} | {self.initial}
        object.__setattr__(self, "states", frozenset(self.states) | names)
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

    def mentioned_members(self) -> set[MemberId]:
        ids: set[MemberId] = set()
        for r in self.rules:
            if isinstance(r.output, MoveToSet):
                ids |= r.output.target
            p = r.pattern
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
class Pebble:
    """Single-state member: a rule list over one implicit state."""

    name: StateId
    rules: tuple[Rule, ...]

    def automaton(self) -> Automaton:
        machine = self.__dict__.get("_automaton")
        if machine is None:
            machine = Automaton(initial=self.name, rules=self.rules)
            object.__setattr__(self, "_automaton", machine)
        return machine


def pebble(name: StateId, rows: Iterable[tuple[ObservationPattern, Output]]) -> Pebble:
    return Pebble(name, tuple(Rule(name, p, out, name) for p, out in rows))


def consistent_observations(universe: Iterable[MemberId], observer: Optional[MemberId]) -> list[Observation]:
    """All observations realizable by some placement of the given members.

    Consistency means each member occupies one occupant set at most and the
    observer appears nowhere.  Every visible member (the universe minus the
    observer) lies in one of the four cells: the observer's own vertex or
    one of its three neighbours.  Members out of range are not modelled
    (ROADMAP item 4).

    The three neighbour cells form a multiset, so an assignment of members
    to cells only matters up to renaming cells 1-3.  Members are placed in
    sorted order and cell k+1 is opened only after cell k (a
    restricted-growth assignment), which yields each distinct observation
    exactly once.  The order is that of the first assignment meeting each
    observation in `product(range(4), repeat=len(visible))` order.
    """
    visible = sorted(set(universe) - ({observer} if observer is not None else set()))
    out: list[Observation] = []
    _place_restricted(visible, 0, 0, ([], [], [], []), out)
    return out


def _place_restricted(
    visible: list[MemberId], i: int, opened: int, cells: tuple[list[MemberId], ...], out: list[Observation]
) -> None:
    """Place visible[i:] in restricted-growth order, appending each observation.

    A module function, not a closure: a closure that calls itself is a
    reference cycle, which kept every result alive until the cyclic garbage
    collector ran and made that collector run about seven times as often.
    """
    if i == len(visible):
        out.append(Observation.make(cells[0], cells[1:]))
        return
    who = visible[i]
    for cell in range(min(opened, 2) + 2):
        cells[cell].append(who)
        _place_restricted(visible, i + 1, max(opened, cell), cells, out)
        cells[cell].pop()


def validate_pebble(
    p: Pebble,
    leader: Automaton,
    universe: Optional[Iterable[MemberId]] = None,
    observer: Optional[MemberId] = None,
) -> list[str]:
    """Check the two pebble conditions; violations come back as messages.

    (1) the pebble has exactly one state; (2) on every realizable observation
    where the pebble's output is not Stay, member 1 must be co-located, and
    some state of the leader must emit the same output on that observation.
    The check runs the actual rule tables over every consistent observation
    drawn from the member universe (defaulting to all ids the two machines
    mention, plus member 1).
    """
    problems: list[str] = []
    states = {r.state for r in p.rules} | {r.next_state for r in p.rules} | {p.name}
    if len(states) != 1:
        problems.append(f"pebble {p.name!r} has {len(states)} states, needs exactly 1")
    machine = p.automaton()
    if universe is None:
        universe = machine.mentioned_members() | leader.mentioned_members() | {1}
    for obs in consistent_observations(universe, observer):
        out, _ = machine.act(p.name, obs)
        if isinstance(out, Stay):
            continue
        if 1 not in obs.alpha:
            problems.append(
                f"pebble {p.name!r} moves on {obs} without member 1 co-located"
            )
        elif out not in leader.outputs_for_observation(obs):
            problems.append(
                f"pebble {p.name!r} emits {format_output(out)} on {obs},"
                " which member 1 never emits there"
            )
    return problems


def occupants(positions: Mapping[MemberId, Vertex], v: Vertex) -> MemberSet:
    return member_set(m for m, pos in positions.items() if pos == v)


def observe(positions: Mapping[MemberId, Vertex], who: MemberId) -> Observation:
    """Build the observation member `who` perceives in the given configuration.

    One pass sorts the members into the four cells.  The cells are those of
    `lattice.neighbors`: left (x-1, y), right (x+1, y), across (x, 1-y).
    The coordinates are compared inline: building the three neighbour
    vertices per call made the `indist` benchmark about 6 % slower.
    """
    x, y = positions[who]
    across_y = 1 - y
    alpha: list[MemberId] = []
    left: list[MemberId] = []
    right: list[MemberId] = []
    across: list[MemberId] = []
    for m, (mx, my) in positions.items():
        if my == y:
            if mx == x:
                if m != who:
                    alpha.append(m)
            elif mx == x - 1:
                left.append(m)
            elif mx == x + 1:
                right.append(m)
        elif my == across_y and mx == x:
            across.append(m)
    return Observation.make(alpha, (left, right, across))


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
