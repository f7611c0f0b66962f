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
included.  The grammar is one whole-line regular expression per directive,
and an accepted line's rule, pattern, output or vertex is built straight
from its groups.  The token cursor `_Line` only places errors: it reads a
line that no pattern accepts, or whose fields fail a check, and raises the
ParseError of its first bad token with that token's line and column.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import NoReturn

from pebblewalk.collective import Collective
from pebblewalk.lattice import Vertex, vertex
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

# The grammar: one whole-line pattern per directive.  Tokens are separated
# by any whitespace run (Unicode spaces too, as str.split() cuts them), a
# line may start with one, and numbers are 1..MAX_DIGITS ASCII digits.
_WORD = r"[A-Za-z0-9][A-Za-z0-9_-]*"
_NUMBER = rf"[0-9]{{1,{MAX_DIGITS}}}"
_SET = rf"\{{(?:{_NUMBER}(?:,{_NUMBER})*)?\}}"
_ENTRY = rf"\*|has\({_NUMBER}\)|{_SET}"
# <pattern> -> <output>: groups alpha, wildcard neighbourhood, three
# entries, output.  A lone `*` neighbourhood is one only before `->`.
_WHEN = (
    rf"(\*|{_SET})\s+\|\s+(?:(\*)|({_ENTRY})\s+({_ENTRY})\s+({_ENTRY}))"
    rf"\s+->\s+(stay|free|set:{_NUMBER}(?:,{_NUMBER})*)"
)
_PRIORITY = rf"(?:\s+priority\s+({_NUMBER}))?"
_HEADER = re.compile(rf"\s*format:\s+{re.escape(FORMAT_NAME)}\s+({_NUMBER})")
_STRATEGY = re.compile(rf"\s*strategy\s+({_WORD})")
_MEMBERS = re.compile(rf"\s*members\s+({_NUMBER})")
_LEADER = re.compile(rf"\s*leader\s+initial\s+({_WORD})")
_RULE = re.compile(rf"\s*rule\s+({_WORD}):\s+{_WHEN}\s+then\s+({_WORD}){_PRIORITY}")
_PEBBLE = re.compile(
    rf"\s*pebble\s+({_NUMBER})\s+({_WORD})(?:\s+when\s+{_WHEN}(?:\s+then\s+({_WORD}))?{_PRIORITY})?"
)
_PLACE_LINE = re.compile(rf"\s*place\s+({_NUMBER})\s+\((-?{_NUMBER}),(-?{_NUMBER})\)")

# The cursor's token tests, for placing an error.
_NAME = re.compile(_WORD + r"\Z")
_SET_LITERAL = re.compile(r"\{(\d+(,\d+)*)?\}\Z", re.ASCII)
_HAS = re.compile(r"has\((\d+)\)\Z", re.ASCII)
_PLACE = re.compile(r"\((-?\d+),(-?\d+)\)\Z", re.ASCII)
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


class _Line:
    """Token cursor over one directive line, for placing its error."""

    def __init__(self, number: int, text: str):
        self.number = number
        self.tokens = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(text)]
        self.pos = 0
        self.end_col = len(text) + 1

    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if not self.done() else None

    def col(self) -> int:
        return self.tokens[self.pos][1] if not self.done() else self.end_col

    def take(self, what: str) -> str:
        if self.done():
            raise ParseError(self.number, self.end_col, f"expected {what}")
        tok, _ = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, literal: str) -> None:
        col = self.col()
        tok = self.take(f"'{literal}'")
        if tok != literal:
            raise ParseError(self.number, col, f"expected '{literal}', got {tok!r}")

    def fail(self, message: str) -> ParseError:
        return ParseError(self.number, self.col(), message)

    def finish(self) -> None:
        if not self.done():
            raise self.fail(f"unexpected trailing {self.peek()!r}")


def _take_name(line: _Line, what: str) -> str:
    col = line.col()
    tok = line.take(what)
    if not _NAME.match(tok):
        raise ParseError(line.number, col, f"invalid {what} {tok!r}")
    return tok


def _int(line: _Line, col: int, digits: str, what: str) -> int:
    """int() of already matched ASCII digits, optionally signed."""
    if len(digits) > MAX_DIGITS + digits.startswith("-"):
        raise ParseError(line.number, col, f"{what} has more than {MAX_DIGITS} digits")
    return int(digits)


def _take_int(line: _Line, what: str) -> int:
    col = line.col()
    tok = line.take(what)
    if not (tok.isascii() and tok.isdigit()):
        raise ParseError(line.number, col, f"expected {what}, got {tok!r}")
    return _int(line, col, tok, what)


def _check_set(line: _Line, tok: str, col: int) -> None:
    m = _SET_LITERAL.match(tok)
    if not m:
        raise ParseError(line.number, col, f"invalid set literal {tok!r}")
    if m.group(1):
        for x in m.group(1).split(","):
            _int(line, col, x, "member id")


def _check_entry(line: _Line) -> None:
    col = line.col()
    tok = line.take("neighborhood entry")
    if tok == "*":
        return
    has = _HAS.match(tok)
    if has:
        _int(line, col, has.group(1), "member id")
    else:
        _check_set(line, tok, col)


def _check_pattern(line: _Line) -> None:
    col = line.col()
    tok = line.take("alpha pattern")
    if tok != "*":
        _check_set(line, tok, col)
    line.expect("|")
    if line.peek() == "*":
        ahead = [t for t, _ in line.tokens[line.pos + 1 : line.pos + 2]]
        if ahead == ["->"] or ahead == []:
            line.take("neighborhood")
            return
    for _ in range(3):
        _check_entry(line)


def _check_output(line: _Line) -> None:
    col = line.col()
    tok = line.take("output")
    if tok.startswith("set:") and any(len(d) > MAX_DIGITS for d in tok[4:].split(",")):
        raise ParseError(line.number, col, f"member id has more than {MAX_DIGITS} digits")
    try:
        parse_output(tok)
    except ValueError as e:
        raise ParseError(line.number, col, str(e)) from None


def _check_priority(line: _Line) -> None:
    if line.peek() == "priority":
        line.take("priority")
        _take_int(line, "priority value")


def _raise_line_error(number, body, header_seen, name, members, leader_initial, pebble_names, places) -> NoReturn:
    """Raise the ParseError of a directive line that no pattern accepts.

    The cursor reads the line token by token, in the order its fields are
    written, and reports the first bad token or failed check: a duplicate
    directive, a renamed pebble, a member count outside 1..MAX_MEMBERS, a
    row other than 0 or 1, a member placed twice, a number over MAX_DIGITS
    digits.  The other arguments are the directives read so far.
    """
    line = _Line(number, body)
    head_col = line.col()
    head = line.take("directive")
    if not header_seen:
        if head != "format:":
            raise ParseError(number, head_col, "expected the format header first")
        fmt_col = line.col()
        fmt = line.take("format name")
        if fmt != FORMAT_NAME:
            raise ParseError(number, fmt_col, f"unknown format {fmt!r}")
        ver_col = line.col()
        version = _take_int(line, "format version")
        if version != FORMAT_VERSION:
            raise ParseError(number, ver_col, f"unsupported version {version}")
    elif head == "format:":
        raise ParseError(number, head_col, "duplicate format header")
    elif head == "strategy":
        if name is not None:
            raise ParseError(number, head_col, "duplicate strategy line")
        _take_name(line, "strategy name")
    elif head == "members":
        if members is not None:
            raise ParseError(number, head_col, "duplicate members line")
        count = _take_int(line, "member count")
        if count < 1:
            raise ParseError(number, head_col, "members must be at least 1")
        if count > MAX_MEMBERS:
            raise ParseError(number, head_col, f"members must be at most {MAX_MEMBERS}")
    elif head == "leader":
        line.expect("initial")
        if leader_initial is not None:
            raise ParseError(number, head_col, "duplicate leader initial line")
        _take_name(line, "state name")
    elif head == "rule":
        state_col = line.col()
        state_tok = line.take("state name followed by ':'")
        if not state_tok.endswith(":") or not _NAME.match(state_tok[:-1]):
            raise ParseError(number, state_col, f"invalid rule state {state_tok!r}")
        _check_pattern(line)
        line.expect("->")
        _check_output(line)
        line.expect("then")
        _take_name(line, "state name")
        _check_priority(line)
    elif head == "pebble":
        pid = _take_int(line, "pebble id")
        pname_col = line.col()
        pname = _take_name(line, "pebble name")
        if pid in pebble_names and pebble_names[pid][0] != pname:
            raise ParseError(
                number, pname_col, f"pebble {pid} was named {pebble_names[pid][0]!r} earlier"
            )
        if not line.done():
            line.expect("when")
            _check_pattern(line)
            line.expect("->")
            _check_output(line)
            if line.peek() == "then":
                line.take("then")
                _take_name(line, "state name")
            _check_priority(line)
    elif head == "place":
        mid_col = line.col()
        mid = _take_int(line, "member id")
        spot_col = line.col()
        spot = line.take("coordinate pair")
        m = _PLACE.match(spot)
        if not m:
            raise ParseError(number, spot_col, f"invalid coordinate pair {spot!r}")
        x, y = (_int(line, spot_col, g, "coordinate") for g in m.groups())
        try:
            vertex(x, y)
        except ValueError as e:
            raise ParseError(number, spot_col, str(e)) from None
        if mid in places:
            raise ParseError(number, mid_col, f"member {mid} placed twice")
    else:
        raise ParseError(number, head_col, f"unknown directive {head!r}")
    line.finish()
    raise AssertionError(f"line {number}: no pattern accepts this line, yet the cursor finds no error")


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


def _group_by_state(rules) -> list[tuple[str, list]]:
    order: list[str] = []
    groups: dict[str, list] = {}
    for r in rules:
        if r.state not in groups:
            order.append(r.state)
            groups[r.state] = []
        groups[r.state].append(r)
    return [(s, groups[s]) for s in order]


def emit_strategy(collective: Collective) -> str:
    """Canonical text for a collective; parse(emit(c)) behaves like c."""
    lines = [
        f"format: {FORMAT_NAME} {FORMAT_VERSION}",
        f"strategy {collective.name}",
        f"members {len(collective.members)}",
        "",
        f"leader initial {collective.leader.initial}",
    ]
    for state, group in _group_by_state(collective.leader.rules):
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
    by_state = {}
    for entry in tagged_rules:
        by_state.setdefault(entry[0].state, []).append(entry)
    observations = None
    for state, group in by_state.items():
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
    """Group by state in first-appearance order; sort inside by priority."""
    ordered: list[Rule] = []
    seen: list[str] = []
    groups: dict[str, list] = {}
    for idx, (rule, line, pri) in enumerate(tagged_rules):
        if rule.state not in groups:
            seen.append(rule.state)
            groups[rule.state] = []
        groups[rule.state].append((pri if pri is not None else idx, idx, rule))
    for state in seen:
        for _, _, rule in sorted(groups[state], key=lambda t: (t[0], t[1])):
            ordered.append(rule)
    return tuple(ordered)


def _set_of(tok: str) -> frozenset[int]:
    """The ids of a set literal the patterns accepted."""
    return frozenset(map(int, tok[1:-1].split(","))) if tok != "{}" else frozenset()


def _entry_of(tok: str):
    """A neighbourhood entry the patterns accepted: *, has(<id>) or a set."""
    if tok == "*":
        return None
    if tok[0] == "h":
        return ("has", int(tok[4:-1]))
    return _set_of(tok)


def _tagged_rule(number, state, alpha, star, e1, e2, e3, output, next_state, priority):
    """(rule, line, priority) from the groups of a `rule` or pebble `when` line."""
    entries = None if star else (_entry_of(e1), _entry_of(e2), _entry_of(e3))
    pattern = ObservationPattern(None if alpha == "*" else _set_of(alpha), entries)
    rule = Rule(state, pattern, parse_output(output), next_state)
    return rule, number, None if priority is None else int(priority)


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

    # Each branch that accepts its line continues; a line no pattern
    # accepts, or whose fields fail a check, falls through to the cursor.
    for number, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0].rstrip()
        if not body:
            continue
        head = body.split(None, 1)[0]
        if not header_seen:
            m = _HEADER.fullmatch(body)
            if m and int(m[1]) == FORMAT_VERSION:
                header_seen = True
                continue
        elif head == "rule":
            m = _RULE.fullmatch(body)
            if m:
                leader_rules.append(_tagged_rule(number, *m.groups()))
                continue
        elif head == "pebble":
            m = _PEBBLE.fullmatch(body)
            if m:
                pid, pname, *when, next_state, priority = m.groups()
                pid = int(pid)
                named = pebble_names.setdefault(pid, (pname, number))[0]
                rows = pebble_rows.setdefault(pid, [])
                if named == pname:
                    if when[0] is not None:
                        rows.append(_tagged_rule(number, pname, *when, next_state or pname, priority))
                    continue
        elif head == "place":
            m = _PLACE_LINE.fullmatch(body)
            if m:
                mid, x, y = map(int, m.groups())
                if y in (0, 1) and mid not in places:
                    places[mid] = (Vertex(x, y), number)
                    continue
        elif head == "members":
            m = _MEMBERS.fullmatch(body)
            if m and members is None and 1 <= int(m[1]) <= MAX_MEMBERS:
                members = int(m[1])
                continue
        elif head == "strategy":
            m = _STRATEGY.fullmatch(body)
            if m and name is None:
                name = m[1]
                continue
        elif head == "leader":
            m = _LEADER.fullmatch(body)
            if m and leader_initial is None:
                leader_initial = m[1]
                continue
        _raise_line_error(number, body, header_seen, name, members, leader_initial, pebble_names, places)

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
