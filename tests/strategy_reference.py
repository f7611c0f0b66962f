"""Reference strategy parser: the token-cursor `parse_strategy` that
`pebblewalk.strategy_format` used before its line reader, kept as it was.
Every directive line is read token by token through `_Line`.  The package's
parser must accept the same texts with the same canonical text and hash,
and reject the others with the same `ParseError` line, column and reason.
The checks after the line loop (overlaps, priority order, emission) are the
package's own, unchanged."""

from __future__ import annotations

import hashlib
import re

from pebblewalk.collective import Collective
from pebblewalk.lattice import vertex
from pebblewalk.machine import Automaton, MemberId, ObservationPattern, Rule, parse_output, rule_members
from pebblewalk.strategy_format import (
    FORMAT_NAME,
    FORMAT_VERSION,
    MAX_DIGITS,
    MAX_MEMBERS,
    ParseError,
    StrategyFile,
    _check_overlaps,
    _order_rules,
    emit_strategy,
)
from pebblewalk.util import FrozenMap

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_-]*\Z")
_SET_LITERAL = re.compile(r"\{(\d+(,\d+)*)?\}\Z", re.ASCII)
_HAS = re.compile(r"has\((\d+)\)\Z", re.ASCII)
_PLACE = re.compile(r"\((-?\d+),(-?\d+)\)\Z", re.ASCII)
_TOKEN = re.compile(r"\S+")


class _Line:
    """Token cursor over one directive line."""

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


def _parse_set(line: _Line, tok: str, col: int) -> frozenset[int]:
    m = _SET_LITERAL.match(tok)
    if not m:
        raise ParseError(line.number, col, f"invalid set literal {tok!r}")
    if not m.group(1):
        return frozenset()
    return frozenset(_int(line, col, x, "member id") for x in m.group(1).split(","))


def _parse_entry(line: _Line):
    col = line.col()
    tok = line.take("neighborhood entry")
    if tok == "*":
        return None
    has = _HAS.match(tok)
    if has:
        return ("has", _int(line, col, has.group(1), "member id"))
    return _parse_set(line, tok, col)


def _parse_pattern(line: _Line) -> ObservationPattern:
    col = line.col()
    tok = line.take("alpha pattern")
    alpha = None if tok == "*" else _parse_set(line, tok, col)
    line.expect("|")
    if line.peek() == "*":
        ahead = [t for t, _ in line.tokens[line.pos + 1 : line.pos + 2]]
        if ahead == ["->"] or ahead == []:
            line.take("neighborhood")
            return ObservationPattern(alpha, None)
    entries = (_parse_entry(line), _parse_entry(line), _parse_entry(line))
    return ObservationPattern(alpha, entries)


def _parse_output(line: _Line):
    col = line.col()
    tok = line.take("output")
    if tok.startswith("set:") and any(len(d) > MAX_DIGITS for d in tok[4:].split(",")):
        raise ParseError(line.number, col, f"member id has more than {MAX_DIGITS} digits")
    try:
        return parse_output(tok)
    except ValueError as e:
        raise ParseError(line.number, col, str(e)) from None


def mentioned_members(automaton: Automaton) -> set[MemberId]:
    """Every member id the automaton's rules name."""
    return set().union(*map(rule_members, automaton.rules))


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
    line_count = 0

    for number, raw in enumerate(text.splitlines(), start=1):
        line_count = number
        body = raw.split("#", 1)[0].rstrip()
        if not body.strip():
            continue
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
            line.finish()
            header_seen = True
            continue

        if head == "format:":
            raise ParseError(number, head_col, "duplicate format header")
        elif head == "strategy":
            if name is not None:
                raise ParseError(number, head_col, "duplicate strategy line")
            name = _take_name(line, "strategy name")
            line.finish()
        elif head == "members":
            if members is not None:
                raise ParseError(number, head_col, "duplicate members line")
            members = _take_int(line, "member count")
            if members < 1:
                raise ParseError(number, head_col, "members must be at least 1")
            if members > MAX_MEMBERS:
                raise ParseError(number, head_col, f"members must be at most {MAX_MEMBERS}")
            line.finish()
        elif head == "leader":
            line.expect("initial")
            if leader_initial is not None:
                raise ParseError(number, head_col, "duplicate leader initial line")
            leader_initial = _take_name(line, "state name")
            line.finish()
        elif head == "rule":
            state_col = line.col()
            state_tok = line.take("state name followed by ':'")
            if not state_tok.endswith(":") or not _NAME.match(state_tok[:-1]):
                raise ParseError(number, state_col, f"invalid rule state {state_tok!r}")
            pattern = _parse_pattern(line)
            line.expect("->")
            output = _parse_output(line)
            line.expect("then")
            next_state = _take_name(line, "state name")
            priority = None
            if line.peek() == "priority":
                line.take("priority")
                priority = _take_int(line, "priority value")
            line.finish()
            leader_rules.append((Rule(state_tok[:-1], pattern, output, next_state), number, priority))
        elif head == "pebble":
            pid = _take_int(line, "pebble id")
            pname_col = line.col()
            pname = _take_name(line, "pebble name")
            if pid in pebble_names and pebble_names[pid][0] != pname:
                raise ParseError(
                    number, pname_col, f"pebble {pid} was named {pebble_names[pid][0]!r} earlier"
                )
            pebble_names.setdefault(pid, (pname, number))
            pebble_rows.setdefault(pid, [])
            if line.done():
                continue
            line.expect("when")
            pattern = _parse_pattern(line)
            line.expect("->")
            output = _parse_output(line)
            next_state = pname
            if line.peek() == "then":
                line.take("then")
                next_state = _take_name(line, "state name")
            priority = None
            if line.peek() == "priority":
                line.take("priority")
                priority = _take_int(line, "priority value")
            line.finish()
            pebble_rows[pid].append((Rule(pname, pattern, output, next_state), number, priority))
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
                v = vertex(x, y)
            except ValueError as e:
                raise ParseError(number, spot_col, str(e)) from None
            if mid in places:
                raise ParseError(number, mid_col, f"member {mid} placed twice")
            places[mid] = (v, number)
            line.finish()
        else:
            raise ParseError(number, head_col, f"unknown directive {head!r}")

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
        mentioned = mentioned_members(Automaton(initial=rule.state, rules=(rule,)))
        extra = mentioned - member_ids
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
        problems = collective.pebble_problems[pid]
        if problems:
            raise ParseError(pebble_names[pid][1], 1, problems[0])

    canonical = emit_strategy(collective)
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    return StrategyFile(collective=collective, text=canonical, strategy_hash=digest)
