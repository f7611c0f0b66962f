"""Strategy file parsing, emission, and the overlap/priority rule."""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

import pebblewalk.collective as collective_module
from pebblewalk.adversary import FirstOption, LastOption, SeededRandom, defeat_strategy
from pebblewalk.collective import run
from pebblewalk.lattice import vertex
from pebblewalk.machine import (
    MOVE_TO_FREE,
    STAY,
    ObservationPattern,
    consistent_observations,
    move_to_set,
    parse_output,
)
from pebblewalk.strategies import BUILTIN_STRATEGIES, load_builtin
from pebblewalk.strategy_format import (
    MAX_DIGITS,
    MAX_MEMBERS,
    ParseError,
    StrategyFile,
    _least_overlap,
    emit_strategy,
    parse_strategy,
    strategy_hash,
)

BASELINES = [name for name in sorted(BUILTIN_STRATEGIES) if name.startswith("baseline-")]

MINIMAL = """\
format: pebblewalk-strategy 1
strategy drifter
members 1
leader initial roam
rule roam: * | * -> free then roam
place 1 (0,0)
"""


def test_parse_output_spellings():
    assert parse_output("stay") == STAY
    assert parse_output("free") == MOVE_TO_FREE
    assert parse_output("set:2,4") == move_to_set({2, 4})
    for bad in ("", "set:", "go", "set:1,", "SET:2", "set:²", "set:٣"):
        with pytest.raises(ValueError):
            parse_output(bad)


def test_minimal_file_parses():
    sf = parse_strategy(MINIMAL)
    assert isinstance(sf, StrategyFile)
    col = sf.collective
    assert col.name == "drifter"
    assert col.members == (1,)
    assert col.initial_positions[1] == vertex(0, 0)
    assert len(col.leader.rules) == 1


@pytest.mark.parametrize("name", sorted(BUILTIN_STRATEGIES))
def test_builtin_round_trip_same_traces(name):
    original = load_builtin(name)
    parsed = parse_strategy(emit_strategy(original)).collective
    assert parsed.name == original.name
    assert parsed.members == original.members
    assert parsed.validate_pebbles() == []
    for adversary in (FirstOption(), LastOption(), SeededRandom(7)):
        a = run(original.initial_state(), type(adversary)(**_args(adversary)), 60)
        b = run(parsed.initial_state(), type(adversary)(**_args(adversary)), 60)
        assert a.records == b.records


def _args(adversary):
    return {"seed": adversary.seed} if hasattr(adversary, "seed") else {}


@pytest.mark.parametrize("name", sorted(BUILTIN_STRATEGIES))
def test_emit_is_a_fixpoint(name):
    text = emit_strategy(load_builtin(name))
    assert parse_strategy(text).text == text


def test_strategy_hash_matches_canonical_text():
    col = load_builtin("walker14")
    text = emit_strategy(col)
    want = hashlib.sha256(text.encode()).hexdigest()
    assert strategy_hash(col) == want
    assert parse_strategy(text).strategy_hash == want


def test_comments_and_blank_lines_ignored():
    text = MINIMAL.replace(
        "strategy drifter", "# a comment\n\nstrategy drifter  # trailing"
    )
    assert parse_strategy(text).collective.name == "drifter"


def error_at(text):
    with pytest.raises(ParseError) as exc:
        parse_strategy(text)
    return exc.value


@pytest.mark.parametrize(
    "old, new",
    [
        ("members 1", "members ٣"),
        ("place 1 (0,0)", "place 1 (٣,0)"),
        ("roam: * | *", "roam: {٣} | *"),
        ("roam: * | *", "roam: * | has(٣) * *"),
    ],
    ids=["members", "place", "set", "has"],
)
def test_rejects_non_ascii_digits(old, new):
    # int() reads Unicode decimal digits; the format allows ASCII only.
    err = error_at(MINIMAL.replace(old, new, 1))
    assert "٣" in err.reason


BIG = "9" * 5000


@pytest.mark.parametrize(
    "old, new",
    [
        ("members 1", f"members {BIG}"),
        ("members 1", "members " + "9" * 4000),
        ("members 1", "members " + "9" * (MAX_DIGITS + 1)),
        ("then roam", f"then roam priority {BIG}"),
        ("roam: * | *", f"roam: {{{BIG}}} | *"),
        ("roam: * | *", f"roam: {{2,{BIG}}} | *"),
        ("roam: * | *", f"roam: * | has({BIG}) * *"),
        ("place 1 (0,0)", f"place 1 ({BIG},0)"),
        ("place 1 (0,0)", f"place 1 (-{BIG},0)"),
        ("place 1 (0,0)", f"place {BIG} (0,0)"),
        ("-> free", f"-> set:{BIG}"),
        ("pebblewalk-strategy 1", f"pebblewalk-strategy {BIG}"),
    ],
    ids=[
        "members", "members-4000", "members-cap", "priority", "set", "set-second", "has",
        "place-x", "place-negative-x", "place-id", "output", "version",
    ],
)
def test_rejects_numbers_longer_than_the_digit_cap(old, new):
    err = error_at(MINIMAL.replace(old, new, 1))
    assert f"more than {MAX_DIGITS} digits" in err.reason
    assert len(err.reason) < 100


def test_numbers_at_the_digit_cap_parse():
    top = "9" * MAX_DIGITS
    text = MINIMAL.replace("place 1 (0,0)", f"place 1 (-{top},0)")
    assert parse_strategy(text).collective.initial_positions[1] == vertex(-int(top), 0)
    text = MINIMAL.replace("then roam", f"then roam priority {top}")
    assert parse_strategy(text).collective.name == "drifter"


def test_large_member_count_fails_without_listing_every_id():
    err = error_at(MINIMAL.replace("members 1", "members " + "9" * MAX_DIGITS))
    assert (err.line, err.reason) == (3, f"members must be at most {MAX_MEMBERS}")
    err = error_at(MINIMAL.replace("members 1", f"members {MAX_MEMBERS}"))
    assert "pebble 2 is never declared" in err.reason


def crowd(members: int) -> str:
    """A complete strategy: a leader, one pebble riding it, the rest idle."""
    lines = [
        "format: pebblewalk-strategy 1",
        "strategy crowd",
        f"members {members}",
        "leader initial s",
        "rule s: * | * -> free then s",
        "pebble 2 rider when {1} | * -> free",
        *(f"pebble {pid} idler{pid}" for pid in range(3, members + 1)),
        *(f"place {m} (0,0)" for m in range(1, members + 1)),
    ]
    return "\n".join(lines) + "\n"


def test_member_cap_is_checked_before_any_enumeration():
    # Validation work grows about 4.5x per member: 16 members would take hours.
    assert len(parse_strategy(crowd(MAX_MEMBERS)).collective.members) == MAX_MEMBERS
    started = time.perf_counter()
    err = error_at(crowd(16))
    assert time.perf_counter() - started < 0.5
    assert (err.line, err.col) == (3, 1)
    assert err.reason == f"members must be at most {MAX_MEMBERS}"


def test_missing_format_header():
    err = error_at("strategy x\n")
    assert (err.line, err.col) == (1, 1)
    assert "format header" in err.reason


def test_wrong_format_version():
    err = error_at("format: pebblewalk-strategy 2\n")
    assert err.line == 1 and err.col == 29
    assert "version" in err.reason


def test_unknown_directive_position():
    err = error_at(MINIMAL + "wobble 3\n")
    assert (err.line, err.col) == (7, 1)
    assert "wobble" in err.reason


def test_bad_output_position():
    bad = MINIMAL.replace("-> free", "-> sideways")
    err = error_at(bad)
    assert err.line == 5
    assert "sideways" in err.reason


def test_bad_set_literal():
    bad = MINIMAL.replace("* | *", "{1,} | *")
    err = error_at(bad)
    assert err.line == 5 and "set literal" in err.reason


def test_place_row_out_of_range():
    bad = MINIMAL.replace("place 1 (0,0)", "place 1 (0,2)")
    err = error_at(bad)
    assert err.line == 6 and "row" in err.reason


def test_duplicate_place():
    err = error_at(MINIMAL + "place 1 (1,0)\n")
    assert "placed twice" in err.reason


def test_missing_place():
    bad = MINIMAL.replace("place 1 (0,0)\n", "")
    err = error_at(bad)
    assert "no place line" in err.reason


def test_rule_mentioning_unknown_member():
    bad = MINIMAL.replace("-> free", "-> set:3")
    err = error_at(bad)
    assert err.line == 5 and "unknown member 3" in err.reason


def test_undeclared_pebble():
    bad = MINIMAL.replace("members 1", "members 2")
    err = error_at(bad)
    assert "pebble 2 is never declared" in err.reason


def test_first_missing_pebble_is_named():
    text = emit_strategy(load_builtin("baseline-12"))
    members = len(load_builtin("baseline-12").members)
    bad = "\n".join(line for line in text.splitlines() if not line.startswith("pebble 3 "))
    err = error_at(bad.replace(f"members {members}", f"members {members + 2}"))
    assert "pebble 3 is never declared" in err.reason


def test_two_state_pebble_rejected_by_validator():
    text = """\
format: pebblewalk-strategy 1
strategy twostep
members 2
leader initial s
rule s: * | * -> stay then s
pebble 2 flip when {1} | * -> stay then flop
place 1 (0,0)
place 2 (0,0)
"""
    err = error_at(text)
    assert err.line == 6
    assert "states" in err.reason
    assert str(err) == "line 6, col 1: pebble 'flip' has 2 states, needs exactly 1"


def test_pebble_moving_without_leader_rejected():
    text = """\
format: pebblewalk-strategy 1
strategy strayer
members 2
leader initial s
rule s: * | * -> free then s
pebble 2 stray when {} | * -> free
place 1 (0,0)
place 2 (0,0)
"""
    err = error_at(text)
    assert err.line == 6
    assert "without member 1" in err.reason
    assert str(err) == (
        "line 6, col 1: pebble 'stray' moves on Observation(alpha=frozenset(),"
        " neighborhood=(frozenset(), frozenset(), frozenset({1}))) without member 1 co-located"
    )


def test_pebble_output_the_leader_never_emits_rejected():
    text = """\
format: pebblewalk-strategy 1
strategy chaser
members 3
leader initial s
rule s: * | * -> free then s
pebble 2 chase when {1} | * -> set:3
pebble 3 idle
place 1 (0,0)
place 2 (0,0)
place 3 (1,0)
"""
    assert str(error_at(text)) == (
        "line 6, col 1: pebble 'chase' emits set:3 on Observation(alpha=frozenset({1}),"
        " neighborhood=(frozenset(), frozenset(), frozenset({3}))), which member 1 never emits there"
    )


LEADER_VIEW = """\
format: pebblewalk-strategy 1
strategy looker
members 2
leader initial s
rule s: {alpha} | * -> free then s
pebble 2 p when {{1}} | * -> free
place 1 (0,0)
place 2 (0,0)
"""


def test_pebble_is_checked_against_the_leaders_own_view():
    # Where pebble 2 sees {1} beside it, the leader sees {2}.
    assert parse_strategy(LEADER_VIEW.format(alpha="{2}")).collective.validate_pebbles() == []
    assert str(error_at(LEADER_VIEW.format(alpha="{1}"))) == (
        "line 6, col 1: pebble 'p' emits free on Observation(alpha=frozenset({1}),"
        " neighborhood=(frozenset(), frozenset(), frozenset())), which member 1 never emits there"
    )


@pytest.mark.parametrize("name", BASELINES)
def test_each_collective_validates_its_pebbles_once(monkeypatch, name):
    calls = []
    checked = collective_module.validate_pebble

    def counting(p, *args, **kwargs):
        calls.append(p.initial)
        return checked(p, *args, **kwargs)

    monkeypatch.setattr(collective_module, "validate_pebble", counting)
    col = parse_strategy(emit_strategy(load_builtin(name))).collective
    assert defeat_strategy(col).defeated
    assert col.validate_pebbles() == []
    assert len(calls) == len(col.pebbles)
    copy = replace(col)
    assert copy.validate_pebbles() == []
    assert len(calls) == 2 * len(col.pebbles)


def test_overlap_without_priorities_is_an_error():
    text = """\
format: pebblewalk-strategy 1
strategy clash
members 1
leader initial s
rule s: * | * -> free then s
rule s: {} | * -> stay then s
place 1 (0,0)
"""
    err = error_at(text)
    assert err.line == 6
    assert "overlap" in err.reason


def test_overlap_with_distinct_priorities_parses_and_orders():
    text = """\
format: pebblewalk-strategy 1
strategy ordered
members 1
leader initial s
rule s: * | * -> free then s priority 1
rule s: {} | * -> stay then s priority 0
place 1 (0,0)
"""
    col = parse_strategy(text).collective
    trace = run(col.initial_state(), FirstOption(), 1)
    assert trace.records[1].positions[1] == vertex(0, 0)


def test_disjoint_rules_need_no_priorities():
    text = """\
format: pebblewalk-strategy 1
strategy split
members 2
leader initial s
rule s: {2} | * -> free then s
rule s: {} | * -> stay then s
pebble 2 mate
place 1 (0,0)
place 2 (0,0)
"""
    col = parse_strategy(text).collective
    assert col.validate_pebbles() == []


def test_rule_without_priority_ranks_by_its_index_within_its_state():
    rules = [
        "rule a: {} | * -> free then b priority 0",
        "rule b: {} | * -> stay then a",
        "rule b: {2} | * -> stay then b priority 1",
        "rule a: * | * -> stay then a priority 1",
    ]
    head = "format: pebblewalk-strategy 1\nstrategy order\nmembers 2\nleader initial a\n"
    tail = "pebble 2 p when * | * -> stay priority 0\nplace 1 (0,0)\nplace 2 (1,0)\n"
    # State b's lines are the same in both texts; only an `a` line moves past them.
    moved = [rules[0], rules[3], rules[1], rules[2]]
    first, second = (parse_strategy(head + "\n".join(r) + "\n" + tail) for r in (rules, moved))
    assert first.text == second.text
    assert first.strategy_hash == second.strategy_hash
    assert first.text.index("rule b: {} ") < first.text.index("rule b: {2} ")


def nine_members(rules: list[str]) -> str:
    """A strategy of MAX_MEMBERS members: the leader's rule lines in state s,
    then idle pebbles."""
    ids = range(2, MAX_MEMBERS + 1)
    lines = [
        "format: pebblewalk-strategy 1",
        "strategy crowd",
        f"members {MAX_MEMBERS}",
        "leader initial s",
        *rules,
        *(f"pebble {m} idler{m}" for m in ids),
        *(f"place {m} (0,0)" for m in range(1, MAX_MEMBERS + 1)),
    ]
    return "\n".join(lines) + "\n"


def alpha_rules(count: int) -> list[str]:
    """Priority-free rules on distinct alpha sets, which no observation
    matches two of."""
    ids = range(2, MAX_MEMBERS + 1)
    alphas = [",".join(str(m) for m in ids if bits >> (m - 2) & 1) for bits in range(count)]
    return [f"rule s: {{{alpha}}} | * -> stay then s" for alpha in alphas]


def test_overlap_check_takes_one_pass_per_observation():
    # Checking pair by pair took 26 s for 160 priority-free rules at 9 members.
    started = time.perf_counter()
    assert len(parse_strategy(nine_members(alpha_rules(255))).collective.leader.rules) == 255
    wildcard = "rule s: * | * -> free then s"
    err = error_at(nine_members([*alpha_rules(255), wildcard]))
    assert (err.line, err.reason) == (
        260,
        "rule overlaps the one at line 5 in state 's'; give both distinct explicit priorities",
    )
    # Every observation matches every rule; only the last two share a priority.
    err = error_at(nine_members([f"{wildcard} priority {min(k, 253)}" for k in range(255)]))
    assert (err.line, err.reason) == (
        259,
        "rule overlaps the one at line 258 in state 's'; give both distinct explicit priorities",
    )
    assert time.perf_counter() - started < 10.0


def pairwise_overlap(patterns, priorities, observations):
    """The pair-by-pair overlap check _least_overlap replaced."""
    for i in range(len(patterns)):
        for j in range(i + 1, len(patterns)):
            pa, pb = priorities[i], priorities[j]
            if pa is not None and pb is not None and pa != pb:
                continue
            if any(patterns[i].matches(o) and patterns[j].matches(o) for o in observations):
                return i, j
    return None


def test_least_overlap_matches_the_pairwise_check():
    rng = random.Random(5)
    observations = consistent_observations(range(1, 4), 1)
    sets = [None, set(), {2}, {3}, {2, 3}]
    entries = [None, set(), {2}, {3}, ("has", 2), ("has", 3)]
    found = 0
    for _ in range(400):
        count = rng.randint(2, 6)
        patterns = [
            ObservationPattern(
                rng.choice(sets), None if rng.random() < 0.5 else [rng.choice(entries) for _ in range(3)]
            )
            for _ in range(count)
        ]
        priorities = [rng.choice([None, 0, 1, 2]) for _ in range(count)]
        want = pairwise_overlap(patterns, priorities, observations)
        found += want is not None
        assert _least_overlap([p.matches for p in patterns], priorities, observations) == want
    assert 50 < found < 350


def test_duplicate_headers_rejected():
    assert "duplicate strategy" in error_at(MINIMAL + "strategy again\n").reason
    assert "duplicate members" in error_at(MINIMAL + "members 1\n").reason
    assert "duplicate format" in error_at(MINIMAL + "format: pebblewalk-strategy 1\n").reason


def test_pebble_name_must_be_consistent():
    text = """\
format: pebblewalk-strategy 1
strategy twin
members 2
leader initial s
rule s: * | * -> stay then s
pebble 2 one
pebble 2 two when {1} | * -> stay
place 1 (0,0)
place 2 (0,0)
"""
    err = error_at(text)
    assert err.line == 7 and "named" in err.reason


def test_explicit_neighborhood_entries_parse():
    text = """\
format: pebblewalk-strategy 1
strategy looker
members 3
leader initial s
rule s: {2} | {} has(3) * -> set:3 then s
pebble 2 a
pebble 3 b
place 1 (0,0)
place 2 (0,0)
place 3 (1,0)
"""
    col = parse_strategy(text).collective
    rule = col.leader.rules[0]
    assert rule.pattern.alpha == frozenset({2})
    assert rule.pattern.entries == (frozenset(), ("has", 3), None)


# --- mutation fuzzing ---------------------------------------------------

FUZZ_TEXTS = [emit_strategy(load_builtin(name)).splitlines() for name in sorted(BUILTIN_STRATEGIES)]
TOKENS = st.one_of(
    st.sampled_from(
        [
            "0", "1", "2", "3", "7", "-1", "01", "²", "9" * 30, "{}", "{1}", "{2,3}", "{1,}", "{3",
            "has(2)", "has(9)", "has(x)", "*", "|", "->", "then", "priority", "stay", "free",
            "set:2", "set:", "set:9", "when", "(0,0)", "(1,1)", "(0,2)", "(0", "gather:", "walk",
            "rule", "pebble", "place", "members", "strategy", "leader", "initial", "format:", "#",
        ]
    ),
    st.sampled_from([tok for lines in FUZZ_TEXTS for line in lines for tok in line.split()]),
    st.text(max_size=6),
)


def mutate(data, lines: list[str]) -> list[str]:
    lines = list(lines)
    i = data.draw(st.integers(0, len(lines) - 1))
    tokens = lines[i].split()
    op = data.draw(st.sampled_from(["replace", "delete", "insert", "drop-line", "copy-line", "swap-lines"]))
    if op == "drop-line":
        del lines[i]
    elif op == "copy-line":
        lines.insert(data.draw(st.integers(0, len(lines))), lines[i])
    elif op == "swap-lines":
        j = data.draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif op == "insert":
        tokens.insert(data.draw(st.integers(0, len(tokens))), data.draw(TOKENS))
        lines[i] = " ".join(tokens)
    elif tokens:
        k = data.draw(st.integers(0, len(tokens) - 1))
        if op == "replace":
            tokens[k] = data.draw(TOKENS)
        else:
            del tokens[k]
        lines[i] = " ".join(tokens)
    return lines


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parse_raises_only_parse_errors_and_accepted_texts_re_emit(data):
    lines = data.draw(st.sampled_from(FUZZ_TEXTS))
    for _ in range(data.draw(st.integers(1, 3))):
        lines = mutate(data, lines)
    try:
        sf = parse_strategy("\n".join(lines) + "\n")
    except ParseError:
        return
    assert emit_strategy(sf.collective) == sf.text
    assert parse_strategy(sf.text).text == sf.text
