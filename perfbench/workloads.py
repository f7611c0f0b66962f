"""The three benchmark workloads: input generation, one op, and its checks.

Every workload is a closed loop run by one caller: ops run one after another
and each op checks its own outputs.  Ops are grouped into passes over a fixed
list of inputs; checks on a whole pass run at its end.

A workload receives the library as a namespace of freshly imported
pebblewalk modules and calls every function through its module, so the
traced run can swap in timing wrappers.  Inputs come only from the seed.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

# -- march --------------------------------------------------------------------

MARCH_STEPS = 5000
C1, C2 = 2, 22
PANEL_WINDOW = 12
# Mostly seeded adversaries, with some first and last.
ADVERSARY_PATTERN = ("seeded", "seeded", "first", "seeded", "seeded", "last")


class March:
    """simulate -> trace document round trip -> check -> render, on walker14."""

    name = "march"
    trace_passes = 2

    def __init__(self, lib, seed: int, steps: int = MARCH_STEPS):
        self.lib = lib
        self.seed = seed
        self.steps = steps
        self.collective = lib.walker14.build_walker()

    def adversary(self, k: int):
        kind = ADVERSARY_PATTERN[k % len(ADVERSARY_PATTERN)]
        adv = self.lib.adversary
        if kind == "first":
            return adv.FirstOption()
        if kind == "last":
            return adv.LastOption()
        return adv.SeededRandom(random.Random(self.seed * 1_000_003 + k).randrange(1 << 31))

    def pass_items(self, k: int):
        return (k,)

    def run_op(self, k: int) -> list[str]:
        adversary, trace, text = self.simulate(k)
        return self.verify(adversary, trace, text)

    def end_pass(self) -> list[str]:
        return []

    def simulate(self, k: int):
        lib = self.lib
        adversary = self.adversary(k)
        trace = lib.collective.run(self.collective.initial_state(), adversary, self.steps)
        doc = lib.tracefile.make_document(self.collective, adversary, self.steps, trace)
        return adversary, trace, lib.tracefile.render_document(doc)

    def verify(self, adversary, trace, text: str) -> list[str]:
        """Parse the document back, check it, render it; return mismatches."""
        lib = self.lib
        parsed = lib.tracefile.parse_document(text)
        verdict = lib.collective.check_directed(parsed.trace, C1, C2)
        panels = lib.render.render_records(parsed.records, PANEL_WINDOW)

        problems = []
        if parsed.trace != trace:
            problems.append("parsed trace differs from the simulated trace")
        if lib.tracefile.render_document(parsed) != text:
            problems.append("parsed document does not re-render byte-identically")
        # The seeded every-moment check at (2, 22) is a known-red result.
        if adversary.name.startswith("seeded:"):
            if verdict.holds or verdict.reason != "displacement":
                problems.append(f"{adversary.name}: expected violated(displacement), got {verdict}")
        elif not verdict.holds:
            problems.append(f"{adversary.name}: expected holds-on-prefix, got {verdict}")
        problems += walker_loop_problems(lib, parsed.records)
        if not panels.startswith("t=0 ") or panels.count("\n\n") != len(parsed.records) - 1:
            problems.append("render_records did not draw one panel per record")
        return problems


def walker_loop_problems(lib, records) -> list[str]:
    """Loops take 9 or 11 steps and move the mean by (1, 0); diameter <= 2."""
    header = lib.walker14.LOOP_HEADER
    members = len(records[0].positions)
    for t, rec in enumerate(records):
        if lib.collective.diameter_of(rec.positions) > C1:
            return [f"diameter exceeds {C1} at t={t}"]
    starts = [t for t, rec in enumerate(records) if rec.states[1] == header]
    if not starts or starts[0] != 0 or len(starts) < 2:
        return ["no complete loop from t=0"]
    sums = [
        (sum(v.x for v in records[t].positions.values()), sum(v.y for v in records[t].positions.values()))
        for t in starts
    ]
    for (t0, t1), (s0, s1) in zip(zip(starts, starts[1:]), zip(sums, sums[1:])):
        if t1 - t0 not in (9, 11):
            return [f"loop at t={t0} takes {t1 - t0} steps"]
        if (s1[0] - s0[0], s1[1] - s0[1]) != (members, 0):
            return [f"loop at t={t0} does not displace the coordinate by (1,0)"]
    return []


# -- pin ----------------------------------------------------------------------

MAX_DEPTH = 200
BASELINES = ("baseline-10", "baseline-11", "baseline-12", "baseline-13-caterpillar")
NEGATIVE_CONTROL = "walker14"
GENERATED_PER_SIZE = 250
# The fixed inputs recur within each pass so that the slowest of them, the
# caterpillar defeat, gives the tail many samples in every run.
FIXED_REPEATS = 4
ZERO = (Fraction(0), Fraction(0))


class Pin:
    """parse_strategy -> defeat_strategy -> finalize_certificate, per strategy text."""

    name = "pin"
    trace_passes = 1

    def __init__(self, lib, seed: int, per_size: int = GENERATED_PER_SIZE):
        self.lib = lib
        emit = lib.strategy_format.emit_strategy
        rng = random.Random(seed)
        items = [("baseline", emit(lib.strategies.load_builtin(n))) for n in BASELINES]
        items.append(("control", emit(lib.strategies.load_builtin(NEGATIVE_CONTROL))))
        items *= FIXED_REPEATS
        for pebbles in range(4):
            for i in range(per_size):
                items.append(("generated", emit(generate_collective(lib, rng, pebbles, f"gen-{pebbles}-{i}"))))
        rng.shuffle(items)
        self.items = tuple(items)
        self.attempted = 0
        self.defeated = 0

    def pass_items(self, k: int):
        return self.items

    def run_op(self, item) -> list[str]:
        kind, text = item
        lib = self.lib
        parsed = lib.strategy_format.parse_strategy(text)
        problems = [] if parsed.text == text else ["parse_strategy changed the canonical text"]
        collective = parsed.collective
        initial = collective.initial_state()
        if kind == "control":
            outcome = lib.adversary.search_lasso(initial, MAX_DEPTH)
            if outcome.verdict != "not-found" or not outcome.complete:
                problems.append(f"{collective.name}: expected a complete not-found search, got {outcome.verdict}")
            return problems
        outcome = lib.adversary.defeat_strategy(collective, max_depth=MAX_DEPTH)
        self.attempted += 1
        if outcome.defeated:
            self.defeated += 1
            problems += certificate_problems(lib, initial, outcome.certificate)
        elif kind == "baseline":
            problems.append(f"{collective.name}: baseline not defeated ({outcome.detail})")
        return problems

    def end_pass(self) -> list[str]:
        return []


def certificate_problems(lib, initial, certificate) -> list[str]:
    replayed = lib.adversary.finalize_certificate(initial, certificate)
    if replayed is None:
        return ["certificate does not replay"]
    if replayed.net_displacement != ZERO:
        return [f"certificate replays with net displacement {replayed.net_displacement}"]
    return []


def generate_collective(lib, rng: random.Random, pebbles: int, name: str):
    """A random legal collective with the given pebble count.

    Every leader state whose first rule is a wildcard always emits that
    rule's output, so pebble rules that copy such an output while member 1
    is co-located pass validate_pebble.  Candidates that still fail are
    drawn again from the same generator.
    """
    m = lib.machine
    ids = list(range(2, pebbles + 2))
    members = [1, *ids]
    while True:
        states = [f"s{i}" for i in range(rng.randint(1, 3))]
        rules = []
        always = []
        for i, state in enumerate(states):
            for j in range(rng.randint(1, 2)):
                wildcard = j == 0 and (i == 0 or rng.random() < 0.5)
                pattern = m.ObservationPattern(None) if wildcard else _random_pattern(m, rng, members, 1)
                output = _random_output(m, rng, ids)
                if wildcard:
                    always.append(output)
                rules.append(m.Rule(state, pattern, output, rng.choice(states)))
        leader = m.Automaton(initial=states[0], rules=tuple(rules))
        moves = [o for o in always if not isinstance(o, m.Stay)]
        pebble_table = {}
        for pid in ids:
            rows = []
            if moves:
                for _ in range(rng.randint(0, 2)):
                    pattern = _random_pattern(m, rng, members, pid, with_leader=True)
                    rows.append((pattern, rng.choice(moves)))
            pebble_table[pid] = m.pebble(f"p{pid}", rows)
        positions = {1: lib.lattice.vertex(0, rng.randint(0, 1))}
        for pid in ids:
            positions[pid] = lib.lattice.vertex(rng.randint(0, 2), rng.randint(0, 1))
        collective = lib.collective.Collective(
            name=name,
            leader=leader,
            pebbles=lib.util.FrozenMap(pebble_table),
            initial_positions=lib.util.FrozenMap(positions),
        )
        if not collective.validate_pebbles():
            return collective


def _random_pattern(m, rng: random.Random, members, observer: int, with_leader: bool = False):
    others = [x for x in members if x != observer]
    alpha = {x for x in others if rng.random() < 0.4}
    if with_leader:
        alpha.add(1)
    elif rng.random() < 0.3:
        alpha = None
    entries = None
    if rng.random() < 0.5:
        entries = []
        for _ in range(3):
            r = rng.random()
            if r < 0.4 or not others:
                entries.append(None)
            elif r < 0.7:
                entries.append(("has", rng.choice(others)))
            else:
                entries.append({x for x in others if rng.random() < 0.3})
    return m.ObservationPattern(alpha, entries)


def _random_output(m, rng: random.Random, ids):
    r = rng.random()
    if r < 0.15:
        return m.STAY
    if r < 0.5 or not ids:
        return m.MOVE_TO_FREE
    return m.move_to_set(rng.sample(ids, rng.randint(1, len(ids))))


# -- indist -------------------------------------------------------------------

INDIST_DEPTH = 12
# Verdict counts over all ordered schema pairs, recorded at the commit that
# introduced this benchmark; every pass must repeat them exactly.
EXPECTED_VERDICTS = {
    2: {"witness": 13, "distinct": 12},
    3: {"witness": 49, "distinct": 72},
}
EXPECTED_SCHEMAS = {2: 5, 3: 11}
EXPECTED_CLASS_SIZES = [1, 2, 2, 2, 4]


class Indist:
    """worst_case_indistinguishable over every ordered schema pair."""

    name = "indist"
    trace_passes = 1

    def __init__(self, lib, seed: int, pebble_counts=(2, 3)):
        self.lib = lib
        s = lib.schemas
        pairs = []
        for k in pebble_counts:
            schemas = s.sorted_schemas(s.enumerate_schemas(k))
            pairs += [(a, b) for a in schemas for b in schemas]
        random.Random(seed).shuffle(pairs)
        self.pairs = tuple(pairs)
        self.pebble_counts = tuple(pebble_counts)
        self.verdicts = Counter()
        self.witnesses = 0

    def pass_items(self, k: int):
        return self.pairs

    def run_op(self, pair) -> list[str]:
        s = self.lib.schemas
        a, b = pair
        outcome = s.worst_case_indistinguishable(a, b, depth=INDIST_DEPTH)
        self.verdicts[a.pebbles, outcome.verdict] += 1
        if outcome.verdict == s.DISTINCT:
            return []
        if outcome.verdict != s.WITNESS or outcome.witness is None:
            return [f"{a} vs {b}: verdict {outcome.verdict}"]
        self.witnesses += 1
        try:
            s.validate_witness(outcome.witness)
        except ValueError as e:
            return [f"{a} vs {b}: witness rejected: {e}"]
        return []

    def end_pass(self) -> list[str]:
        """Run the rest of the schema toolkit once and check the pass totals."""
        s = self.lib.schemas
        problems = []
        for k, want in EXPECTED_SCHEMAS.items():
            if len(s.enumerate_schemas(k)) != want:
                problems.append(f"enumerate_schemas({k}) is not {want} schemas")
        sizes = sorted(len(c) for c in s.symmetry_classes(s.enumerate_schemas(3)))
        if sizes != EXPECTED_CLASS_SIZES:
            problems.append(f"symmetry class sizes {sizes}")
        if s.find_confinement_cycle(s.transfer_graph(3)) is None:
            problems.append("no confinement cycle in the 3-pebble transfer graph")
        for k in self.pebble_counts:
            got = {v: n for (pebbles, v), n in self.verdicts.items() if pebbles == k}
            if got != EXPECTED_VERDICTS[k]:
                problems.append(f"{k}-pebble verdict counts {got}, expected {EXPECTED_VERDICTS[k]}")
        self.verdicts.clear()
        return problems
