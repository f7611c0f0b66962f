"""Lockstep stepping of a collective, trace recording, movement metrics.

One step: every member observes, every member's table fires, the leader's
output is resolved to an option set, the adversary picks a target when there
is a real choice, and the leader moves together with every co-located pebble
whose own output was a move (the carry set).  Everyone else stays.  That
rule is written once: `step_options` gives the options and carry set that
outputs denote, and `move_onto` moves the leader and carry set onto a
target; stepping, `tracefile.check_steps` and the schema search share both.
A trace record keeps positions, states, outputs, options, choice and carry
set; an observation is a function of the layout, so a record's observations
are observe(previous positions, member) and are not stored.

Automata see neither coordinates nor direction, so stepping works on
translation classes: a Quotient numbers the classes one call meets, plans
each once, and follows (class, option index) along a Move to (next class,
anchor shift).  `walk` streams steps through one, `run` collects a prefix of
that stream, and the lasso search in `adversary` expands one as its graph.
A step of `walk` translates its Move rather than recomputing it: it shifts
the class plan's options to the configuration's anchor (only the one when
the adversary is not consulted), moves the leader and carry set onto the
chosen one, and feeds the history digest the bytes kept with the Move,
offsets from the leader that are the same at every visit.  Its record
shares the plan's outputs, next-states and carried objects.  The Quotient
is the only memo here and lives for one call.  Records, plans and states
are named tuples.

The window checks make one pass over the records, coding each record's
integer position sums as one int, and then c2 slice membership tests per
moment.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

from pebblewalk.graph import Graph
from pebblewalk.lattice import Symmetry, Vertex, are_neighbors
from pebblewalk.machine import (
    Automaton,
    MemberId,
    Output,
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
    pebbles: FrozenMap  # MemberId -> one-state Automaton
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
        return self.leader if member == 1 else self.pebbles[member]

    def initial_state(self) -> "CollectiveState":
        states = {1: self.leader.initial}
        for pid, p in self.pebbles.items():
            states[pid] = p.initial
        return CollectiveState(self, FrozenMap(self.initial_positions), FrozenMap(states), 0)

    @cached_property
    def pebble_problems(self) -> dict[MemberId, tuple[str, ...]]:
        """validate_pebble's messages per pebble id, in id order, each pebble
        checked among all members.  The collective is immutable, so this is
        computed once per object: the strategy parser and `defeat_strategy`
        read one result."""
        members = set(self.members)
        return {
            pid: tuple(validate_pebble(self.pebbles[pid], self.leader, members, observer=pid))
            for pid in sorted(self.pebbles)
        }

    def validate_pebbles(self) -> list[str]:
        return [problem for problems in self.pebble_problems.values() for problem in problems]


class CollectiveState(NamedTuple):
    collective: Collective
    positions: FrozenMap  # MemberId -> Vertex
    states: FrozenMap  # MemberId -> StateId
    step_index: int = 0


class StepRecord(NamedTuple):
    """One trace row.  Row 0 has only positions and states; later rows add
    what was decided while entering this configuration.  What each member
    observed is observe(previous row's positions, member)."""

    t: int
    positions: FrozenMap
    states: FrozenMap
    outputs: Optional[FrozenMap] = None  # MemberId -> Output
    options: Optional[tuple[Vertex, ...]] = None  # leader's option set, offset-sorted
    choice: Optional[Vertex] = None
    carried: Optional[frozenset] = None  # pebbles that rode along

    @property
    def consulted(self) -> bool:  # whether the adversary picked among two or more options
        return self.options is not None and len(self.options) >= 2


@dataclass(frozen=True)
class Trace:
    records: tuple[StepRecord, ...]

    def __len__(self) -> int:
        return len(self.records)


class StepFault(RuntimeError):
    """A step the step rule cannot take; `run` attaches the trace up to it."""

    def __init__(self, message: str, trace: Optional[Trace] = None):
        super().__init__(message)
        self.trace = trace


class StrategyFault(StepFault):
    """The leader's output produced an empty option set."""


class PebbleFault(StepFault):
    """A pebble tried to move while the leader was elsewhere."""


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


def _digest_feed(at: Vertex, options: Sequence[Vertex], choice: Vertex) -> bytes:
    """What a step feeds the history digest: its option and choice offsets
    from the leader's vertex at, so one value per (class, option index)."""
    parts = [f"({o.x - at.x},{o.y - at.y})" for o in options]
    parts.append(f"|({choice.x - at.x},{choice.y - at.y})")
    return "".join(parts).encode()


def advance_digest(digest: bytes, at: Vertex, options: Sequence[Vertex], choice: Vertex) -> bytes:
    return hashlib.blake2b(digest + _digest_feed(at, options, choice), digest_size=16).digest()


class StepPlan(NamedTuple):
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


def step_options(
    outputs: Mapping[MemberId, Output], positions: Mapping[MemberId, Vertex]
) -> tuple[tuple[Vertex, ...], frozenset]:
    """The options the leader's output denotes at its vertex, sorted by
    offset, and the carry set: every pebble whose output is not Stay.
    Offsets from one vertex order as the vertices do.

    The options may be empty and a carried pebble may stand off the
    leader's vertex; each caller decides what that means.
    """
    at = positions[1]
    options = sorted(resolve_output(outputs[1], at, positions))
    carried = frozenset(m for m, out in outputs.items() if m != 1 and not isinstance(out, Stay))
    return tuple(options), carried


def move_onto(positions: Mapping[MemberId, Vertex], carried: frozenset, target: Vertex) -> FrozenMap:
    """The step rule's second half: positions after the leader and the carry
    set move onto target; everyone else stays."""
    moved = dict(positions)
    moved[1] = target
    for m in carried:
        moved[m] = target
    return FrozenMap(moved)


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
    options, carried = step_options(outputs, positions)
    if not options:
        raise StrategyFault(
            f"empty option set for leader at {at} in state {states[1]!r} (step {state.step_index})"
        )
    for pid in col.pebbles:
        if pid in carried and positions[pid] != at:
            raise PebbleFault(
                f"pebble {pid} outputs a move at {positions[pid]} while the leader is at {at}"
                f" (step {state.step_index})"
            )
    return StepPlan(FrozenMap(outputs), FrozenMap(next_states), at, options, carried)


def apply_choice(state: CollectiveState, plan: StepPlan, choice: Vertex) -> tuple[CollectiveState, StepRecord]:
    """Move the leader and its carry set to the chosen option."""
    if choice not in plan.options:
        raise ValueError(f"{choice} is not among the step's options {plan.options}")
    t = state.step_index + 1
    positions = move_onto(state.positions, plan.carried, choice)
    return (
        CollectiveState(state.collective, positions, plan.next_states, t),
        StepRecord(t, positions, plan.next_states, plan.outputs, plan.options, choice, plan.carried),
    )


def _pick(state: CollectiveState, plan: StepPlan, adversary, digest: bytes) -> int:
    """Index of the option the adversary picks among plan's two or more."""
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
    its least x.  Each class is planned once, at its first visit, and its
    plan kept translated to anchor 0, as its representative is.  Options
    are sorted by offset, so the class after a step is fixed by the class
    before it and the chosen option's index.  `follow` locates that class
    and adds the pair's Move, so each caller follows a (node, option index)
    pair once: `walk` keeps the Move with the bytes its step feeds the
    history digest, and the lasso search expands each class once.  A class
    found by a Move lies one deeper than the Move's source, so `tree_path`
    gives the first way `walk` or the lasso search reached it.  Faults are
    never stored: a class's first visit plans the configuration itself, so
    a fault keeps its true step index.  A table belongs to one call and is
    not shared.
    """

    def __init__(self) -> None:
        super().__init__()
        self.plans: dict[int, StepPlan] = {}  # node -> its plan at anchor 0

    def locate(self, state: CollectiveState, depth: int = 0) -> tuple[int, int]:
        """The node and anchor of state's class; a new class gets the next node."""
        rel, anchor = at_origin(state.positions)
        key = (state.states, rel)
        node = self.index.get(key)
        if node is None:
            node = self.add_node(key, CollectiveState(state.collective, rel, state.states), depth)
        return node, anchor

    def plan(self, node: int, state: CollectiveState, anchor: int) -> StepPlan:
        """Class node's plan at anchor 0; the first call plans state, which
        lies in class node at anchor."""
        plan = self.plans.get(node)
        if plan is None:
            plan = self.plans[node] = _shifted(plan_step(state), -anchor)
        return plan

    def follow(self, node: int, plan: StepPlan, idx: int, anchor: int, nxt: CollectiveState) -> Move:
        """Add and return the Move of option idx of node's plan, at any
        translation, from a configuration at anchor; nxt is the
        configuration that option led to."""
        next_node, next_anchor = self.locate(nxt, self.depths[node] + 1)
        at, opt = plan.at, plan.options[idx]
        move = Move(node, next_node, next_anchor - anchor, (opt.x - at.x, opt.y - at.y), plan.consulted)
        self.add_edge(move)
        return move


def walk(initial: CollectiveState, adversary) -> Iterator[tuple[CollectiveState, StepRecord]]:
    """Step from `initial` without end, yielding each new state and record.

    A step is planned, and the adversary consulted, only when it is drawn,
    and the history digest advances for a step only once the next is drawn,
    so a reader that stops leaves the adversary untouched past its last
    step.  Steps go through a Quotient local to the call, and a step
    translates its Move: a class is planned at its first visit only, and
    a (class, option index) pair is followed once, after which `followed`
    keeps its Move and the bytes its step feeds the digest.  A step shifts
    the class plan, made at anchor 0, by its anchor, and only the options
    its record and the adversary see: the one option of a forced step, or
    all of them when the adversary is consulted, since it sees absolute
    vertices.  The records of a class share its plan's maps.
    """
    collective = initial.collective
    state = initial
    digest = initial_digest(collective)
    table = Quotient()
    followed: dict[tuple[int, int], tuple[Move, bytes]] = {}  # (node, option index) -> Move, digest feed
    node, anchor = table.locate(state)
    while True:
        plan = table.plan(node, state, anchor)
        if plan.consulted:
            here = _shifted(plan, anchor)
            idx = _pick(state, here, adversary, digest)
            options = here.options
        else:
            idx, options = 0, plan.options
            if anchor:
                ((x, y),) = options
                options = (Vertex(x + anchor, y),)
        choice = options[idx]
        t = state.step_index + 1
        positions = move_onto(state.positions, plan.carried, choice)
        nxt = CollectiveState(collective, positions, plan.next_states, t)
        yield nxt, StepRecord(t, positions, plan.next_states, plan.outputs, options, choice, plan.carried)
        step = followed.get((node, idx))
        if step is None:
            move = table.follow(node, plan, idx, anchor, nxt)
            step = followed[node, idx] = move, _digest_feed(plan.at, plan.options, plan.options[idx])
        move, feed = step
        digest = hashlib.blake2b(digest + feed, digest_size=16).digest()
        node, anchor, state = move.dst, anchor + move.weight, nxt


def run(initial: CollectiveState, adversary, horizon: int) -> Trace:
    """The first `horizon` steps of `walk`, or a fault with the partial trace."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    records = [StepRecord(t=0, positions=initial.positions, states=initial.states)]
    try:
        for _, record in islice(walk(initial, adversary), horizon):
            records.append(record)
    except StepFault as fault:
        fault.trace = Trace(tuple(records))
        raise
    return Trace(tuple(records))


def _shifted(plan: StepPlan, dx: int) -> StepPlan:
    """The plan of the same class translated dx columns to the right."""
    if dx == 0:
        return plan
    outputs, next_states, (x, y), options, carried = plan
    shifted = tuple([Vertex(ox + dx, oy) for ox, oy in options])
    return StepPlan(outputs, next_states, Vertex(x + dx, y), shifted, carried)


def coordinate_of(positions: Mapping[MemberId, Vertex]) -> RationalPoint:
    """Exact mean position of all members, leader included."""
    n = len(positions)
    sx = sum(v.x for v in positions.values())
    sy = sum(v.y for v in positions.values())
    return RationalPoint(Fraction(sx, n), Fraction(sy, n))


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
    """Largest per-axis spread of member positions."""
    xs, ys = zip(*positions.values())
    return max(max(xs) - min(xs), max(ys) - min(ys))


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

    With S a record's position sums, the pair condition reads
    2*S(i) - S(t) == S(j) for some i in (t, t+c2] and j in (i, i+c2], one
    slice membership test per i.  S is coded as the one int x*K + y, with
    K = 2*span + 1 and span the largest y sum less the least.  That is
    exact: 2*S(i) - S(t) - S(j) codes as K*dx + dy with |dy| <= 2*span < K,
    which is 0 only when dx = dy = 0.
    """
    return _check_windows(trace, c1, c2, _first_unpaired)


def check_uniform(trace: Trace, c1: int, c2: int) -> Verdict:
    """As check_directed but with both time offsets pinned to exactly c2."""
    return _check_windows(trace, c1, c2, _first_nonuniform)


def _check_windows(trace: Trace, c1: int, c2: int, first_failure) -> Verdict:
    """One pass applies the diameter bound and collects each record's
    position sums, which must keep one member count; then
    first_failure(codes, c2) gives the first moment, in order, whose window
    t+2*c2 fits in the trace and fails, or None.  Codes are as
    check_directed states."""
    if c1 < 0 or c2 < 1:
        raise ValueError("need c1 >= 0 and c2 >= 1")
    counts = set()
    xsums, ysums = [], []
    for t, rec in enumerate(trace.records):
        xs, ys = zip(*rec.positions.values())
        if max(xs) - min(xs) > c1 or max(ys) - min(ys) > c1:
            return Verdict(False, "diameter", t)
        counts.add(len(xs))
        xsums.append(sum(xs))
        ysums.append(sum(ys))
    if len(counts) > 1:
        raise ValueError("member count changes mid-trace")
    k = 2 * (max(ysums) - min(ysums)) + 1 if ysums else 1
    failed = first_failure([x * k + y for x, y in zip(xsums, ysums)], c2)
    return HOLDS if failed is None else Verdict(False, "displacement", failed)


def _first_unpaired(codes: list[int], c2: int) -> Optional[int]:
    for t in range(len(codes) - 2 * c2):
        base = codes[t]
        for i in range(t + 1, t + c2 + 1):
            if 2 * codes[i] - base in codes[i + 1 : i + c2 + 1]:
                break
        else:
            return t
    return None


def _first_nonuniform(codes: list[int], c2: int) -> Optional[int]:
    for t in range(len(codes) - 2 * c2):
        if 2 * codes[t + c2] - codes[t] != codes[t + 2 * c2]:
            return t
    return None


def position_sums(records: Sequence[StepRecord]) -> list[tuple[int, int]]:
    """Each record's integer (sum of x, sum of y) over its members.

    Displacement equality over mean coordinates reduces to equality over
    these sums while the member count holds, as it does in every trace run
    or read_document makes; a coordinate is the sum over the member count.
    """
    if len({len(r.positions) for r in records}) > 1:
        raise ValueError("member count changes mid-trace")
    sums = []
    for r in records:
        xs, ys = zip(*r.positions.values())
        sums.append((sum(xs), sum(ys)))
    return sums


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
