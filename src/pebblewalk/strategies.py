"""Built-in collectives: the walker plus one refutable baseline per size.

The baselines are honest attempts at forward movement with 0..3 pebbles;
each is defeated by the lasso search, which is the executable content of the
impossibility side of this package.  They are fixtures, not strawmen: every
one validates as a legal collective and makes progress under a friendly
adversary.
"""

from __future__ import annotations

from pebblewalk.collective import Collective
from pebblewalk.lattice import Vertex
from pebblewalk.machine import (
    MOVE_TO_FREE,
    WILDCARD,
    Automaton,
    ObservationPattern,
    Rule,
    move_to_set,
    pebble,
)
from pebblewalk.util import FrozenMap
from pebblewalk.walker14 import build_walker


def build_free_walker() -> Collective:
    """Type (1,0): a lone leader that always steps to some free neighbor."""
    leader = Automaton(initial="roam", rules=(Rule("roam", WILDCARD, MOVE_TO_FREE, "roam"),))
    return Collective(
        name="baseline-10",
        leader=leader,
        pebbles=FrozenMap({}),
        initial_positions=FrozenMap({1: Vertex(0, 0)}),
    )


def build_carrier() -> Collective:
    """Type (1,1): the leader carries its pebble to a free neighbor forever."""
    leader = Automaton(initial="carry", rules=(Rule("carry", WILDCARD, MOVE_TO_FREE, "carry"),))
    rider = pebble("rider", [(ObservationPattern({1}), MOVE_TO_FREE)])
    return Collective(
        name="baseline-11",
        leader=leader,
        pebbles=FrozenMap({2: rider}),
        initial_positions=FrozenMap({1: Vertex(0, 0), 2: Vertex(0, 0)}),
    )


def build_stacker() -> Collective:
    """Type (1,2): stack both pebbles on one vertex, then walk the stack."""
    leader = Automaton(
        initial="gather",
        rules=(
            Rule("gather", WILDCARD, move_to_set({3}), "walk"),
            Rule("walk", WILDCARD, MOVE_TO_FREE, "walk"),
        ),
    )
    first = pebble(
        "clinger",
        [
            (ObservationPattern({1}), move_to_set({3})),
            (ObservationPattern({1, 3}), MOVE_TO_FREE),
        ],
    )
    second = pebble("base", [(ObservationPattern({1, 2}), MOVE_TO_FREE)])
    return Collective(
        name="baseline-12",
        leader=leader,
        pebbles=FrozenMap({2: first, 3: second}),
        initial_positions=FrozenMap({1: Vertex(0, 0), 2: Vertex(0, 0), 3: Vertex(1, 0)}),
    )


def build_caterpillar() -> Collective:
    """Type (1,3): the walker's marching loop minus the top pebble.

    Gathers rear onto mid, pushes mid onto front, steps off to a free vertex,
    then returns along the chain.  Without the top pebble there is no way to
    tell the two free vertices at the push-off apart, and an adversary can
    bend the chain and reverse its heading.
    """
    leader = Automaton(
        initial="gather-rear",
        rules=(
            Rule("gather-rear", WILDCARD, move_to_set({3}), "gather-mid"),
            Rule("gather-mid", WILDCARD, move_to_set({4}), "push-front"),
            Rule("push-front", WILDCARD, MOVE_TO_FREE, "return-mid"),
            Rule("return-mid", WILDCARD, move_to_set({3}), "return-rear"),
            Rule("return-rear", WILDCARD, move_to_set({2}), "gather-rear"),
        ),
    )
    P = ObservationPattern
    rear = pebble("rear", [(P({1}, [set(), set(), {3}]), move_to_set({3}))])
    mid = pebble("mid", [(P({1, 2}, [set(), {4}, set()]), move_to_set({4}))])
    front = pebble("front", [(P({1, 3}, [{2}, set(), set()]), MOVE_TO_FREE)])
    return Collective(
        name="baseline-13-caterpillar",
        leader=leader,
        pebbles=FrozenMap({2: rear, 3: mid, 4: front}),
        initial_positions=FrozenMap(
            {1: Vertex(0, 0), 2: Vertex(0, 0), 3: Vertex(1, 0), 4: Vertex(2, 0)}
        ),
    )


BUILTIN_STRATEGIES = {
    "walker14": build_walker,
    "baseline-10": build_free_walker,
    "baseline-11": build_carrier,
    "baseline-12": build_stacker,
    "baseline-13-caterpillar": build_caterpillar,
}


def load_builtin(name: str) -> Collective:
    try:
        return BUILTIN_STRATEGIES[name]()
    except KeyError:
        raise KeyError(
            f"unknown strategy {name!r}; built-ins: {', '.join(sorted(BUILTIN_STRATEGIES))}"
        ) from None
