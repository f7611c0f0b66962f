"""Text format for strategy definitions.

A strategy file is line oriented.  `#` starts a comment; blank lines are
ignored.  The first directive must be the header `format: pebblewalk-strategy
1`.  The remaining directives, in any order:

    strategy <name>
    members <m>
    leader initial <state>
    rule <state>: <pattern> -> <output> then <state> [priority <n>]
    pebble <id> <name>
    pebble <id> <name> when <pattern> -> <output> [then <state>] [priority <n>]
    place <id> (<x>,<y>)

A pattern is `<alpha> | <neighborhood>`.  The alpha part is `*` or a set
literal such as `{}` or `{1,3}`.  The neighborhood part is `*` or exactly
three entries, each `*`, a set literal, or `has(<id>)`; entries match the
observed neighbor sets as a multiset, so the format cannot address a
direction.  Outputs use the same spellings the simulator prints: `stay`,
`free`, `set:2,3`.

Rules of one state may overlap (some realizable observation matches two of
them) only when both carry explicit, distinct priorities; lower priority
fires first.  A pebble `when` line with a `then` naming a second state
parses structurally but is rejected by the pebble validator.

Tokens are separated by any run of whitespace, tabs and Unicode spaces
included.  Each directive line is split once into its tokens, which are
read in the order they are written; the first bad or missing one raises
the ParseError, with its line and column.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from operator import attrgetter

from pebblewalk.collective import Collective
from pebblewalk.lattice import vertex
from pebblewalk.machine import (
    Automaton,
    ObservationPattern,
    Rule,
    consistent_observations,
    format_output,
    parse_output,
    rule_members,
)
from pebblewalk.util import FrozenMap

FORMAT_NAME = "pebblewalk-strategy"
FORMAT_VERSION = 1

# Every number in the format (ids, counts, priorities, coordinates) fits in
# this many digits; longer ones are refused before int() converts them.
MAX_DIGITS = 18
# Validation enumerates every realizable observation, about 4.5 times as
# many per added member (0.13 s at 9 members, 16 s at 12), so a `members`
# line above this is refused before any enumeration.
MAX_MEMBERS = 9

# Names are words; numbers are ASCII digits, at most MAX_DIGITS of them.
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_-]*")
_SET_LITERAL = re.compile(r"\{(\d+(,\d+)*)?\}", re.ASCII)
_HAS = re.compile(r"has\((\d+)\)", re.ASCII)
_PLACE = re.compile(r"\((-?\d+),(-?\d+)\)", re.ASCII)
_TOKEN = re.compile(r"\S+")


class ParseError(ValueError):
    """Syntax or consistency error in a strategy file, with a position."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.reason = message


@dataclass(frozen=True)
class StrategyFile:
    """Parsed strategy: the collective plus its canonical text and hash."""

    collective: Collective
    text: str
    strategy_hash: str


def strategy_hash(collective: Collective) -> str:
    return hashlib.sha256(emit_strategy(collective).encode()).hexdigest()


# A directive line is read as its list of tokens `t` with "" appended, so a
# field past the last token reads as "", which no field accepts.


class _BadField(Exception):
    """Token `index` of the line being read is bad or missing; parse_strategy
    raises the ParseError at its column."""

    def __init__(self, index: int, reason: str):
        self.index = index
        self.reason = reason


def _bad(t: list[str], i: int, what: str, reason: str) -> _BadField:
    """`reason` against token i, or `expected <what>` past the last token."""
    return _BadField(i, reason if t[i] else f"expected {what}")


def _expected(t: list[str], i: int, what: str) -> _BadField:
    return _bad(t, i, what, f"expected {what}, got {t[i]!r}")


def _trailing(t: list[str], i: int) -> _BadField:
    return _BadField(i, f"unexpected trailing {t[i]!r}")


def _too_long(i: int, what: str) -> _BadField:
    return _BadField(i, f"{what} has more than {MAX_DIGITS} digits")


def _name(t: list[str], i: int, what: str) -> str:
    tok = t[i]
    if _NAME.fullmatch(tok) is None:
        raise _bad(t, i, what, f"invalid {what} {tok!r}")
    return tok


def _int(t: list[str], i: int, what: str) -> int:
    tok = t[i]
    if not (tok.isascii() and tok.isdigit()):
        raise _expected(t, i, what)
    if len(tok) > MAX_DIGITS:
        raise _too_long(i, what)
    return int(tok)


def _set(t: list[str], i: int, what: str) -> frozenset[int]:
    tok = t[i]
    if tok == "{}":
        return frozenset()
    if _SET_LITERAL.fullmatch(tok) is None:
        raise _bad(t, i, what, f"invalid set literal {tok!r}")
    ids = tok[1:-1].split(",")
    if len(tok) > MAX_DIGITS + 1 and any(len(x) > MAX_DIGITS for x in ids):
        raise _too_long(i, "member id")
    return frozenset(map(int, ids))


def _entry(t: list[str], i: int):
    tok = t[i]
    if tok == "*":
        return None
    if tok[:1] != "{":
        has = _HAS.fullmatch(tok)
        if has is not None:
            if len(has[1]) > MAX_DIGITS:
                raise _too_long(i, "member id")
            return ("has", int(has[1]))
    return _set(t, i, "neighborhood entry")


def _pattern(t: list[str], i: int) -> tuple[ObservationPattern, int]:
    """The pattern whose alpha part is t[i], and the index after it.  A lone
    `*` neighbourhood is one only before `->` or at the end of the line."""
    alpha = None if t[i] == "*" else _set(t, i, "alpha pattern")
    if t[i + 1] != "|":
        raise _expected(t, i + 1, "'|'")
    if t[i + 2] == "*" and t[i + 3] in ("->", ""):
        return ObservationPattern(alpha, None), i + 3
    return ObservationPattern(alpha, (_entry(t, i + 2), _entry(t, i + 3), _entry(t, i + 4))), i + 5


def _output(t: list[str], i: int):
    tok = t[i]
    if len(tok) > MAX_DIGITS + 4 and tok.startswith("set:") and any(len(d) > MAX_DIGITS for d in tok[4:].split(",")):
        raise _too_long(i, "member id")
    try:
        return parse_output(tok)
    except ValueError as e:
        raise _bad(t, i, "output", str(e)) from None


def _tagged_rule(t: list[str], i: int, state: str, number: int, then_required: bool):
    """(rule, line, priority) of `<pattern> -> <output> [then <state>]
    [priority <n>]` from t[i] to the end of the line; without `then` the
    rule stays in its state."""
    pattern, i = _pattern(t, i)
    if t[i] != "->":
        raise _expected(t, i, "'->'")
    output = _output(t, i + 1)
    i += 2
    next_state = state
    if then_required or t[i] == "then":
        if t[i] != "then":
            raise _expected(t, i, "'then'")
        next_state = _name(t, i + 1, "state name")
        i += 2
    priority = None
    if t[i] == "priority":
        priority = _int(t, i + 1, "priority value")
        i += 2
    if t[i]:
        raise _trailing(t, i)
    return Rule(state, pattern, output, next_state), number, priority


def _emit_set(s: frozenset) -> str:
    return "{" + ",".join(str(i) for i in sorted(s)) + "}"


def _emit_entry(e) -> str:
    if e is None:
        return "*"
    if isinstance(e, tuple):
        return f"has({e[1]})"
    return _emit_set(e)


def _emit_pattern(p: ObservationPattern) -> str:
    alpha = "*" if p.alpha is None else _emit_set(p.alpha)
    if p.entries is None:
        nbh = "*"
    else:
        nbh = " ".join(_emit_entry(e) for e in p.entries)
    return f"{alpha} | {nbh}"


def _by_state(items, state=attrgetter("state")) -> dict[str, list]:
    """The items grouped by their rule's state, `state(item)`, states in
    first-appearance order."""
    groups: dict[str, list] = {}
    for item in items:
        groups.setdefault(state(item), []).append(item)
    return groups


def emit_strategy(collective: Collective) -> str:
    """Canonical text for a collective; parse(emit(c)) behaves like c."""
    lines = [
        f"format: {FORMAT_NAME} {FORMAT_VERSION}",
        f"strategy {collective.name}",
        f"members {len(collective.members)}",
        "",
        f"leader initial {collective.leader.initial}",
    ]
    for state, group in _by_state(collective.leader.rules).items():
        for i, r in enumerate(group):
            lines.append(
                f"rule {state}: {_emit_pattern(r.pattern)} -> "
                f"{format_output(r.output)} then {r.next_state} priority {i}"
            )
    for pid in sorted(collective.pebbles):
        p = collective.pebbles[pid]
        name = p.initial
        lines.append("")
        if not p.rules:
            lines.append(f"pebble {pid} {name}")
            continue
        for i, r in enumerate(p.rules):
            if r.state != name:
                raise ValueError(
                    f"pebble {pid} has a rule in state {r.state!r}, not encodable"
                )
            then = "" if r.next_state == name else f" then {r.next_state}"
            lines.append(
                f"pebble {pid} {name} when {_emit_pattern(r.pattern)} -> "
                f"{format_output(r.output)}{then} priority {i}"
            )
    lines.append("")
    for mid in sorted(collective.initial_positions):
        v = collective.initial_positions[mid]
        lines.append(f"place {mid} ({v.x},{v.y})")
    return "\n".join(lines) + "\n"


def _check_overlaps(tagged_rules, member_count: int, observer: int) -> None:
    """Overlapping same-state rules must carry distinct explicit priorities.

    A state with two or more rules, not all with distinct explicit
    priorities, is checked by matching each realizable observation against
    each of its rules once; the least overlapping pair is reported.
    """
    observations = None
    for state, group in _by_state(tagged_rules, lambda entry: entry[0].state).items():
        priorities = [pri for _, _, pri in group]
        if len(group) < 2 or None not in priorities and len(set(priorities)) == len(priorities):
            continue
        if observations is None:
            observations = consistent_observations(range(1, member_count + 1), observer)
        pair = _least_overlap([rule.pattern.matches for rule, _, _ in group], priorities, observations)
        if pair is not None:
            raise ParseError(
                group[pair[1]][1],
                1,
                f"rule overlaps the one at line {group[pair[0]][1]} in state {state!r};"
                " give both distinct explicit priorities",
            )


def _least_overlap(matchers, priorities, observations):
    """The least pair (i, j), i < j, of rules that some observation matches
    both of and that do not carry distinct explicit priorities, or None.

    Rule i pairs with every later rule when it has no priority, and else
    with later rules of no priority or of its own.  So one pass over an
    observation's matching rules, last first, finds each one's least
    partner from the least later rule of each priority seen so far.
    """
    none = len(matchers)
    best = (none, none)
    for obs in observations:
        following = none  # the least matching rule after i
        later = {}  # priority (None for none) -> the least matching rule after i with it
        for i in reversed([k for k, matches in enumerate(matchers) if matches(obs)]):
            p = priorities[i]
            j = following if p is None else min(later.get(None, none), later.get(p, none))
            if j < none and (i, j) < best:
                best = (i, j)
            later[p] = following = i
    return None if best[0] == none else best


def _order_rules(tagged_rules) -> tuple[Rule, ...]:
    """Group by state in first-appearance order; sort inside by priority,
    a rule without one ranking as its index among its state's rules."""
    groups = _by_state(tagged_rules, lambda entry: entry[0].state).values()
    ranked = [sorted((i if pri is None else pri, i, rule) for i, (rule, _, pri) in enumerate(g)) for g in groups]
    return tuple(rule for group in ranked for _, _, rule in group)


def parse_strategy(text: str) -> StrategyFile:
    """Parse and validate a strategy document; raises ParseError."""
    name = None
    members = None
    leader_initial = None
    leader_rules: list[tuple[Rule, int, int | None]] = []
    pebble_names: dict[int, tuple[str, int]] = {}
    pebble_rows: dict[int, list[tuple[Rule, int, int | None]]] = {}
    places: dict[int, tuple] = {}
    header_seen = False
    lines = text.splitlines()
    line_count = len(lines)

    try:
        for number, raw in enumerate(lines, start=1):
            body = raw.split("#", 1)[0]
            t = body.split()
            if not t:
                continue
            t.append("")
            head = t[0]
            if not header_seen:
                if head != "format:":
                    raise _BadField(0, "expected the format header first")
                if t[1] != FORMAT_NAME:
                    raise _bad(t, 1, "format name", f"unknown format {t[1]!r}")
                if _int(t, 2, "format version") != FORMAT_VERSION:
                    raise _BadField(2, f"unsupported version {int(t[2])}")
                if t[3]:
                    raise _trailing(t, 3)
                header_seen = True
            elif head == "rule":
                state = t[1]
                if state[-1:] != ":" or _NAME.fullmatch(state[:-1]) is None:
                    raise _bad(t, 1, "state name followed by ':'", f"invalid rule state {state!r}")
                leader_rules.append(_tagged_rule(t, 2, state[:-1], number, then_required=True))
            elif head == "pebble":
                pid = _int(t, 1, "pebble id")
                pname = _name(t, 2, "pebble name")
                named = pebble_names.setdefault(pid, (pname, number))[0]
                if named != pname:
                    raise _BadField(2, f"pebble {pid} was named {named!r} earlier")
                rows = pebble_rows.setdefault(pid, [])
                if t[3]:
                    if t[3] != "when":
                        raise _expected(t, 3, "'when'")
                    rows.append(_tagged_rule(t, 4, pname, number, then_required=False))
            elif head == "place":
                mid = _int(t, 1, "member id")
                spot = _PLACE.fullmatch(t[2])
                if spot is None:
                    raise _bad(t, 2, "coordinate pair", f"invalid coordinate pair {t[2]!r}")
                x, y = spot.groups()
                if len(t[2]) > MAX_DIGITS + 3 and any(len(c.lstrip("-")) > MAX_DIGITS for c in (x, y)):
                    raise _too_long(2, "coordinate")
                try:
                    v = vertex(int(x), int(y))
                except ValueError as e:
                    raise _BadField(2, str(e)) from None
                if mid in places:
                    raise _BadField(1, f"member {mid} placed twice")
                if t[3]:
                    raise _trailing(t, 3)
                places[mid] = (v, number)
            elif head == "members":
                if members is not None:
                    raise _BadField(0, "duplicate members line")
                members = _int(t, 1, "member count")
                if members < 1:
                    raise _BadField(0, "members must be at least 1")
                if members > MAX_MEMBERS:
                    raise _BadField(0, f"members must be at most {MAX_MEMBERS}")
                if t[2]:
                    raise _trailing(t, 2)
            elif head == "strategy":
                if name is not None:
                    raise _BadField(0, "duplicate strategy line")
                name = _name(t, 1, "strategy name")
                if t[2]:
                    raise _trailing(t, 2)
            elif head == "leader":
                if t[1] != "initial":
                    raise _expected(t, 1, "'initial'")
                if leader_initial is not None:
                    raise _BadField(0, "duplicate leader initial line")
                leader_initial = _name(t, 2, "state name")
                if t[3]:
                    raise _trailing(t, 3)
            elif head == "format:":
                raise _BadField(0, "duplicate format header")
            else:
                raise _BadField(0, f"unknown directive {head!r}")
    except _BadField as e:
        body = body.rstrip()
        cols = [m.start() + 1 for m in _TOKEN.finditer(body)] + [len(body) + 1]
        raise ParseError(number, cols[e.index], e.reason) from None

    if not header_seen:
        raise ParseError(max(line_count, 1), 1, "expected the format header first")
    if name is None:
        raise ParseError(line_count, 1, "missing strategy line")
    if members is None:
        raise ParseError(line_count, 1, "missing members line")
    if leader_initial is None:
        raise ParseError(line_count, 1, "missing leader initial line")

    for pid, (_, decl_line) in sorted(pebble_names.items()):
        if not 2 <= pid <= members:
            raise ParseError(decl_line, 1, f"pebble id {pid} outside 2..{members}")
    if len(pebble_names) < members - 1:
        # Declared ids are distinct and lie in 2..members, so one is missing
        # below len(pebble_names) + 2; no list of all ids is built.
        missing = next(pid for pid in range(2, members + 1) if pid not in pebble_names)
        raise ParseError(line_count, 1, f"pebble {missing} is never declared")
    want_pebbles = range(2, members + 1)

    member_ids = {1, *want_pebbles}
    for rule, rline, _ in leader_rules + [r for rows in pebble_rows.values() for r in rows]:
        extra = rule_members(rule) - member_ids
        if extra:
            raise ParseError(rline, 1, f"rule mentions unknown member {min(extra)}")

    for mid, (_, pline) in sorted(places.items()):
        if mid not in member_ids:
            raise ParseError(pline, 1, f"place for unknown member {mid}")
    for mid in sorted(member_ids):
        if mid not in places:
            raise ParseError(line_count, 1, f"member {mid} has no place line")

    _check_overlaps(leader_rules, members, observer=1)
    for pid in want_pebbles:
        _check_overlaps(pebble_rows[pid], members, observer=pid)

    leader = Automaton(initial=leader_initial, rules=_order_rules(leader_rules))
    pebbles = {}
    for pid in want_pebbles:
        pebbles[pid] = Automaton(pebble_names[pid][0], _order_rules(pebble_rows[pid]))

    collective = Collective(
        name=name,
        leader=leader,
        pebbles=FrozenMap(pebbles),
        initial_positions=FrozenMap({m: v for m, (v, _) in places.items()}),
    )

    for pid in want_pebbles:
        problems = collective.pebble_problems(pid)
        if problems:
            raise ParseError(pebble_names[pid][1], 1, problems[0])

    canonical = emit_strategy(collective)
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    return StrategyFile(collective=collective, text=canonical, strategy_hash=digest)
