"""Simulation and verification toolkit for pebble collectives on the two-row lattice.

A collective is one finite automaton together with m pebbles, all placed on
vertices of the infinite two-row grid.  Members sense only which other members
sit on and next to their own vertex, with no shared compass: observations are
invariant under every symmetry of the lattice.  This package simulates such
collectives step by step under adversarial tie-breaking, searches for
adversary strategies that pin a collective's coordinate, and enumerates the
window schemas used in confinement arguments for small collectives.
"""

from pebblewalk.lattice import (
    Symmetry,
    Vertex,
    IDENTITY,
    X_REFLECTION,
    Y_REFLECTION,
    are_neighbors,
    neighbors,
    vertex,
    x_translation,
)
from pebblewalk.machine import (
    Automaton,
    MoveToFree,
    MoveToSet,
    Observation,
    ObservationPattern,
    Rule,
    Stay,
    format_output,
    move_to_set,
    observe,
    parse_output,
    pebble,
    resolve_output,
    validate_pebble,
)
from pebblewalk.collective import (
    Collective,
    CollectiveState,
    PebbleFault,
    StepFault,
    StepRecord,
    StrategyFault,
    Trace,
    Verdict,
    check_directed,
    check_uniform,
    coordinate_of,
    diameter_of,
    find_isolated,
    run,
)
from pebblewalk.adversary import (
    FirstOption,
    LastOption,
    LassoCertificate,
    Oscillator,
    ScriptedChoices,
    SeededRandom,
    defeat_strategy,
    finalize_certificate,
    search_lasso,
)
from pebblewalk.walker14 import build_walker, verify_theorem2
from pebblewalk.strategies import BUILTIN_STRATEGIES, load_builtin
from pebblewalk.schemas import (
    Schema,
    SchemaGraph,
    enumerate_schemas,
    find_confinement_cycle,
    schema_of,
    symmetry_classes,
    symmetry_indistinguishable,
    transfer_graph,
    worst_case_indistinguishable,
)
from pebblewalk.strategy_format import (
    ParseError,
    StrategyFile,
    emit_strategy,
    parse_strategy,
    strategy_hash,
)
from pebblewalk.tracefile import (
    TraceDocument,
    TraceError,
    make_document,
    parse_document,
    read_document,
    render_document,
    write_document,
)
from pebblewalk.render import render_records

__version__ = "0.1.0"
