"""Lockstep stepping of a collective, trace recording, movement metrics.

One step: every member observes, every member's table fires, the leader's
output is resolved to an option set, the adversary picks a target when there
is a real choice, and the leader moves together with every co-located pebble
whose own output was a move (the carry set).  Everyone else stays.  A trace
record keeps positions, states, outputs, options, choice and carry set; an
observation is a function of the layout, so a record's observations are
observe(previous positions, member) and are not stored.

Automata see neither coordinates nor direction, so stepping works on
translation classes: a Quotient numbers the classes one call meets, plans
each once, and follows (class, option index) along a Move to (next class,
anchor shift).  `walk` streams steps through one, `run` collects a prefix of
that stream, and the lasso search in `adversary` expands one as its graph;
`step` is the plain reference that plans every configuration afresh.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

from pebblewalk.graph import Graph
from pebblewalk.lattice import Symmetry, Vertex, are_neighbors
from pebblewalk.machine import (
    Automaton,
    MemberId,
    Output,
    Pebble,
    StateId,
    Stay,
    observe,
    resolve_output,
    validate_pebble,
)
from pebblewalk.util import FrozenMap


class RationalPoint(NamedTuple):
    x: Fraction
    y: Fraction


@dataclass(frozen=True)
class Collective:
    """One leader automaton plus pebbles 2..m+1 and their starting layout."""

    name: str
    leader: Automaton
    pebbles: FrozenMap  # MemberId -> Pebble
    initial_positions: FrozenMap  # MemberId -> Vertex

    def __post_init__(self) -> None:
        ids = sorted(self.pebbles)
        if ids != list(range(2, 2 + len(ids))):
            raise ValueError(f"pebble ids must be 2..m+1, got {ids}")
        want = {1, *ids}
        if set(self.initial_positions) != want:
            raise ValueError("initial positions must cover exactly members " f"{sorted(want)}")

    @property
    def members(self) -> tuple[MemberId, ...]:
        return (1, *sorted(self.pebbles))

    def machine_for(self, member: MemberId) -> Automaton:
        return self.leader if member == 1 else self.pebbles[member].automaton()

    def initial_state(self, positions: Optional[Mapping[MemberId, Vertex]] = None) -> "CollectiveState":
        pos = FrozenMap(positions if positions is not None else self.initial_positions)
        states = {1: self.leader.initial}
        for pid, p in self.pebbles.items():
            states[pid] = p.name
        return CollectiveState(self, pos, FrozenMap(states), 0)

    def validate_pebbles(self) -> list[str]:
        problems: list[str] = []
        universe = set(self.members)
        for pid in sorted(self.pebbles):
            problems += validate_pebble(self.pebbles[pid], self.leader, universe, observer=pid)
        return problems


@dataclass(frozen=True)
class CollectiveState:
    collective: Collective
    positions: FrozenMap  # MemberId -> Vertex
    states: FrozenMap  # MemberId -> StateId
    step_index: int = 0


@dataclass(frozen=True)
class StepRecord:
    """One trace row.  Row 0 has only positions and states; later rows add
    what was decided while entering this configuration.  What each member
    observed is observe(previous row's positions, member)."""

    t: int
    positions: FrozenMap
    states: FrozenMap
    outputs: Optional[FrozenMap] = None  # MemberId -> Output
    options: Optional[tuple[Vertex, ...]] = None  # leader's option set, offset-sorted
    choice: Optional[Vertex] = None
    consulted: bool = False
    carried: Optional[frozenset] = None  # pebbles that rode along


@dataclass(frozen=True)
class Trace:
    records: tuple[StepRecord, ...]

    def __len__(self) -> int:
        return len(self.records)

    def coordinates(self) -> list[RationalPoint]:
        return [coordinate_of(r.positions) for r in self.records]


class StrategyFault(RuntimeError):
    """The leader's output produced an empty option set."""

    def __init__(self, message: str, trace: Optional[Trace] = None):
        super().__init__(message)
        self.trace = trace


class PebbleFault(RuntimeError):
    """A pebble tried to move while the leader was elsewhere."""

    def __init__(self, message: str, trace: Optional[Trace] = None):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class ChoiceContext:
    """What an adversary may look at when picking among options."""

    step_index: int
    at: Vertex
    positions: FrozenMap
    digest: bytes


def initial_digest(collective: Collective) -> bytes:
    h = hashlib.blake2b(b"pebblewalk-run", digest_size=16)
    h.update(collective.name.encode())
    for m in collective.members:
        v = collective.initial_positions[m]
        h.update(f"{m}:{v.x},{v.y};".encode())
    return h.digest()


def advance_digest(digest: bytes, at: Vertex, options: Sequence[Vertex], choice: Vertex) -> bytes:
    h = hashlib.blake2b(digest, digest_size=16)
    for o in options:
        h.update(f"({o.x - at.x},{o.y - at.y})".encode())
    h.update(f"|({choice.x - at.x},{choice.y - at.y})".encode())
    return h.digest()


@dataclass(frozen=True)
class StepPlan:
    """Choice-independent part of a step: everyone's output and next state,
    plus the leader's offset-sorted option set."""

    outputs: FrozenMap
    next_states: FrozenMap
    at: Vertex
    options: tuple[Vertex, ...]
    carried: frozenset

    @property
    def consulted(self) -> bool:
        return len(self.options) >= 2


def plan_step(state: CollectiveState) -> StepPlan:
    """Compute the step up to (but not including) the adversary's pick.

    Raises StrategyFault on an empty leader option set and PebbleFault when a
    pebble's table moves while the leader is not co-located (both without a
    trace attached; run() fills that in).
    """
    col = state.collective
    positions, states = state.positions, state.states
    outputs: dict[MemberId, Output] = {}
    next_states: dict[MemberId, StateId] = {}
    for m in col.members:
        outputs[m], next_states[m] = col.machine_for(m).act(states[m], observe(positions, m))

    at = positions[1]
    opts = resolve_output(outputs[1], at, positions)
    if not opts:
        raise StrategyFault(
            f"empty option set for leader at {at} in state {states[1]!r} (step {state.step_index})"
        )
    carried = set()
    for pid in col.pebbles:
        if isinstance(outputs[pid], Stay):
            continue
        if positions[pid] != at:
            raise PebbleFault(
                f"pebble {pid} outputs a move at {positions[pid]} while the leader is at {at}"
                f" (step {state.step_index})"
            )
        carried.add(pid)
    return StepPlan(
        outputs=FrozenMap(outputs),
        next_states=FrozenMap(next_states),
        at=at,
        options=tuple(sorted(opts, key=lambda v: (v.x - at.x, v.y - at.y))),
        carried=frozenset(carried),
    )


def apply_choice(state: CollectiveState, plan: StepPlan, choice: Vertex) -> tuple[CollectiveState, StepRecord]:
    """Move the leader and its carry set to the chosen option."""
    if choice not in plan.options:
        raise ValueError(f"{choice} is not among the step's options {plan.options}")
    new_pos = {**state.positions, **dict.fromkeys((1, *plan.carried), choice)}
    new_state = CollectiveState(
        state.collective, FrozenMap(new_pos), plan.next_states, state.step_index + 1
    )
    record = StepRecord(
        t=state.step_index + 1,
        positions=new_state.positions,
        states=new_state.states,
        outputs=plan.outputs,
        options=plan.options,
        choice=choice,
        consulted=plan.consulted,
        carried=plan.carried,
    )
    return new_state, record


def step(state: CollectiveState, adversary, digest: Optional[bytes] = None) -> tuple[CollectiveState, StepRecord]:
    """Advance one synchronous step under the given adversary."""
    if digest is None:
        digest = initial_digest(state.collective)
    plan = plan_step(state)
    return apply_choice(state, plan, plan.options[_pick(state, plan, adversary, digest)])


def _pick(state: CollectiveState, plan: StepPlan, adversary, digest: bytes) -> int:
    """Index of the chosen option: the adversary's pick when it has a real choice."""
    if not plan.consulted:
        return 0
    idx = adversary.choose(plan.options, ChoiceContext(state.step_index, plan.at, state.positions, digest))
    if not 0 <= idx < len(plan.options):
        raise ValueError(f"adversary returned option index {idx} out of range")
    return idx


class Move(NamedTuple):
    """A quotient edge: option `offset` (relative to the leader) at class src
    leads to class dst and moves the anchor by `weight` columns."""

    src: int
    dst: int
    weight: int
    offset: tuple[int, int]
    consulted: bool


class Quotient(Graph):
    """The translation classes of one collective's configurations, numbered
    in the order they are met, as a graph of Moves.

    Automata see neither coordinates nor direction, so a step's plan depends
    on its configuration only up to x-translation: outputs, next states and
    the carry set are equal, and the options shift with the leader.  A
    class is keyed by (states, positions at least x 0), its
    representative is that layout at step 0, and a configuration's anchor is
    its least x.  Each class is planned once and its plan translated at
    later visits.  Options are sorted by offset, so the class after a step
    is fixed by the class before it and the chosen option's index: a
    (node, option index) pair is located once, which adds its Move, and then
    followed along it.  A class found by a Move lies one deeper than the
    Move's source, so `tree_path` gives the first way `walk` or the lasso
    search reached it.  Faults are never stored: a class's first visit
    plans the configuration itself, so a fault keeps its true step index.
    A table belongs to one call and is not shared.
    """

    def __init__(self) -> None:
        super().__init__()
        self.plans: dict[int, tuple[StepPlan, int]] = {}  # node -> (plan, anchor it was made at)
        self.moves: dict[tuple[int, int], Move] = {}  # (node, option index) -> its edge

    def locate(self, state: CollectiveState, depth: int = 0) -> tuple[int, int]:
        """The node and anchor of state's class; a new class gets the next node."""
        rel, anchor = at_origin(state.positions)
        key = (state.states, rel)
        node = self.index.get(key)
        if node is None:
            node = self.add_node(key, CollectiveState(state.collective, rel, state.states), depth)
        return node, anchor

    def plan(self, node: int, state: CollectiveState, anchor: int) -> StepPlan:
        """The plan of state, which lies in class node at anchor."""
        if node not in self.plans:
            self.plans[node] = (plan_step(state), anchor)
        plan, made_at = self.plans[node]
        return _shifted(plan, anchor - made_at)

    def follow(self, node: int, plan: StepPlan, idx: int, anchor: int, nxt: CollectiveState) -> Move:
        """The Move of option idx of plan, made at node's anchor; nxt, the
        configuration that option led to, is located only the first time
        the pair is followed."""
        move = self.moves.get((node, idx))
        if move is None:
            next_node, next_anchor = self.locate(nxt, self.depths[node] + 1)
            at, opt = plan.at, plan.options[idx]
            move = self.moves[node, idx] = Move(
                node, next_node, next_anchor - anchor, (opt.x - at.x, opt.y - at.y), plan.consulted
            )
            self.add_edge(move)
        return move


def walk(initial: CollectiveState, adversary) -> Iterator[tuple[CollectiveState, StepRecord]]:
    """Step from `initial` without end, yielding each new state and record.

    A step is planned, and the adversary consulted, only when it is drawn,
    and the history digest advances for a step only once the next is drawn,
    so a reader that stops leaves the adversary untouched past its last
    step.  Plans and faults come through a Quotient local to the call, so
    each translation class is planned once and the records of a class share
    its maps.
    """
    state = initial
    digest = initial_digest(initial.collective)
    table = Quotient()
    node, anchor = table.locate(state)
    while True:
        plan = table.plan(node, state, anchor)
        idx = _pick(state, plan, adversary, digest)
        nxt, record = apply_choice(state, plan, plan.options[idx])
        yield nxt, record
        digest = advance_digest(digest, plan.at, plan.options, record.choice)
        move = table.follow(node, plan, idx, anchor, nxt)
        node, anchor, state = move.dst, anchor + move.weight, nxt


def run(initial: CollectiveState, adversary, horizon: int) -> Trace:
    """The first `horizon` steps of `walk`, or a fault with the partial trace."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    records = [StepRecord(t=0, positions=initial.positions, states=initial.states)]
    try:
        for _, record in islice(walk(initial, adversary), horizon):
            records.append(record)
    except (StrategyFault, PebbleFault) as fault:
        fault.trace = Trace(tuple(records))
        raise
    return Trace(tuple(records))


def _shifted(plan: StepPlan, dx: int) -> StepPlan:
    """The plan of the same class translated dx columns to the right."""
    if dx == 0:
        return plan
    return replace(
        plan,
        at=Vertex(plan.at.x + dx, plan.at.y),
        options=tuple(Vertex(o.x + dx, o.y) for o in plan.options),
    )


def coordinate_of(positions: Mapping[MemberId, Vertex]) -> RationalPoint:
    n = len(positions)
    sx = sum(v.x for v in positions.values())
    sy = sum(v.y for v in positions.values())
    return RationalPoint(Fraction(sx, n), Fraction(sy, n))


def coordinate(state: CollectiveState) -> RationalPoint:
    """Exact mean position of all members, leader included."""
    return coordinate_of(state.positions)


def at_origin(positions: Mapping[MemberId, Vertex]) -> tuple[FrozenMap, int]:
    """Positions translated so the least x is 0, and the least x before.

    A FrozenMap already at least x 0 comes back as it is; any other mapping
    is copied, since its owner may change it.
    """
    anchor = min(v.x for v in positions.values())
    if anchor == 0 and isinstance(positions, FrozenMap):
        return positions, 0
    return FrozenMap({m: Vertex(v.x - anchor, v.y) for m, v in positions.items()}), anchor


def diameter_of(positions: Mapping[MemberId, Vertex]) -> int:
    xs = [v.x for v in positions.values()]
    ys = [v.y for v in positions.values()]
    return max(max(xs) - min(xs), max(ys) - min(ys))


def diameter(state: CollectiveState) -> int:
    """Largest per-axis spread of member positions."""
    return diameter_of(state.positions)


@dataclass(frozen=True)
class Verdict:
    holds: bool
    reason: Optional[str] = None
    at: Optional[int] = None

    def __str__(self) -> str:
        if self.holds:
            return "holds-on-prefix"
        return f"violated({self.reason}, t={self.at})"


HOLDS = Verdict(True)


def check_directed(trace: Trace, c1: int, c2: int) -> Verdict:
    """Directed-movement check on a finite trace prefix.

    Violated(diameter) if any configuration spreads beyond c1.  For every
    moment t whose full window t+2*c2 fits in the trace, some pair
    t', t'' in [1, c2] must satisfy
    coord(t+t') - coord(t) == coord(t+t'+t'') - coord(t+t').
    Moments too close to the end of the prefix are not judged.
    """
    return _check_windows(trace, c1, c2, range(len(trace.records) - 2 * c2), _has_equal_displacement_pair)


def _check_windows(trace: Trace, c1: int, c2: int, moments, has_pair) -> Verdict:
    """The diameter bound, then has_pair(coords, t, c2) at each judged moment.

    Moments are judged in the given order; those whose window t+2*c2 does
    not fit in the trace are skipped.
    """
    if c1 < 0 or c2 < 1:
        raise ValueError("need c1 >= 0 and c2 >= 1")
    for t, rec in enumerate(trace.records):
        if diameter_of(rec.positions) > c1:
            return Verdict(False, "diameter", t)
    coords = _sum_coordinates(trace)
    last = len(coords) - 1 - 2 * c2
    for t in moments:
        if 0 <= t <= last and not has_pair(coords, t, c2):
            return Verdict(False, "displacement", t)
    return HOLDS


def _sum_coordinates(trace: Trace) -> list[tuple]:
    # Displacement equality over mean coordinates reduces to equality over
    # integer position sums while the member count holds, as it does in
    # every trace run or read_document makes.
    if len({len(r.positions) for r in trace.records}) > 1:
        raise ValueError("member count changes mid-trace")
    return [
        (
            sum(v.x for v in r.positions.values()),
            sum(v.y for v in r.positions.values()),
        )
        for r in trace.records
    ]


def _has_equal_displacement_pair(coords: list[tuple], t: int, c2: int) -> bool:
    bx, by = coords[t]
    for t1 in range(1, c2 + 1):
        ax, ay = coords[t + t1]
        dx = ax - bx
        dy = ay - by
        for t2 in range(1, c2 + 1):
            cx, cy = coords[t + t1 + t2]
            if cx - ax == dx and cy - ay == dy:
                return True
    return False


def _has_uniform_pair(coords: list[tuple], t: int, c2: int) -> bool:
    (ax, ay), (bx, by), (cx, cy) = coords[t + c2], coords[t], coords[t + 2 * c2]
    return (ax - bx, ay - by) == (cx - ax, cy - ay)


def check_directed_at(trace: Trace, c1: int, c2: int, moments) -> Verdict:
    """check_directed restricted to the given judged moments.

    Useful for claims anchored at loop boundaries: the shipped walker pairs
    every boundary moment at c2 <= 22 under every adversary, while some
    mid-loop moments of an 11-step loop admit no pair at any c2 when the
    adversary thereafter picks only 9-step loops.
    """
    return _check_windows(trace, c1, c2, moments, _has_equal_displacement_pair)


def check_uniform(trace: Trace, c1: int, c2: int) -> Verdict:
    """As check_directed but with both time offsets pinned to exactly c2."""
    return _check_windows(trace, c1, c2, range(len(trace.records) - 2 * c2), _has_uniform_pair)


def find_isolated(positions: Mapping[MemberId, Vertex]) -> list[frozenset]:
    """Partition members into observation-range components.

    Two members are linked when their vertices are equal or adjacent; the
    connected components of that graph are the candidate isolated
    sub-collectives.
    """
    members = sorted(positions)
    parent = {m: m for m in members}

    def find(a: MemberId) -> MemberId:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            va, vb = positions[a], positions[b]
            if va == vb or are_neighbors(va, vb):
                parent[find(a)] = find(b)
    groups: dict[MemberId, set[MemberId]] = {}
    for m in members:
        groups.setdefault(find(m), set()).add(m)
    return sorted((frozenset(g) for g in groups.values()), key=lambda g: min(g))


def transform_positions(positions: Mapping[MemberId, Vertex], s: Symmetry) -> FrozenMap:
    return FrozenMap({m: s.apply(v) for m, v in positions.items()})
