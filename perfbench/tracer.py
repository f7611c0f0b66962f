"""Spans around the public functions of each pebblewalk layer.

`Tracer.patch()` replaces every binding of each traced function (modules
import them by name, e.g. `collective.observe` and `adversary.run`) with a
wrapper that records a span: name, start, end and the enclosing span.
Spans stay in memory until `write()`.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute) for functions; (module, class, method, span name) for methods.
FUNCTIONS = (
    ("machine", "observe"),
    ("machine", "resolve_output"),
    ("machine", "validate_pebble"),
    ("collective", "run"),
    ("collective", "plan_step"),
    ("collective", "apply_choice"),
    ("collective", "advance_digest"),
    ("collective", "check_directed"),
    ("collective", "find_isolated"),
    ("adversary", "search_lasso"),
    ("adversary", "canonicalize"),
    ("adversary", "finalize_certificate"),
    ("tracefile", "render_document"),
    ("tracefile", "parse_document"),
    ("render", "render_records"),
    ("strategy_format", "parse_strategy"),
    ("strategy_format", "emit_strategy"),
    ("schemas", "worst_case_indistinguishable"),
    ("schemas", "validate_witness"),
)
METHODS = (
    ("machine", "Automaton", "act", "machine.act"),
    ("adversary", "FirstOption", "choose", "adversary.choose"),
    ("adversary", "LastOption", "choose", "adversary.choose"),
    ("adversary", "SeededRandom", "choose", "adversary.choose"),
    ("adversary", "ScriptedChoices", "choose", "adversary.choose"),
    ("adversary", "Oscillator", "choose", "adversary.choose"),
)


# Work counts read off the return value of a traced call.
COUNTERS = {
    "collective.run": lambda trace: {
        "steps": len(trace.records) - 1,
        "consulted": sum(r.consulted for r in trace.records[1:]),
    },
    "tracefile.render_document": lambda text: {"bytes": len(text)},
    "tracefile.parse_document": lambda doc: {"records": len(doc.records), "steps": len(doc.records) - 1},
    "adversary.search_lasso": lambda out: {"nodes": out.stats.nodes, "edges": out.stats.edges, "faults": out.stats.faults},
    "adversary.finalize_certificate": lambda cert: {"accepted": cert is not None},
    "schemas.worst_case_indistinguishable": lambda out: {"explored": out.explored},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name index, start, end, parent span index, returned normally)
        self.counts: dict = defaultdict(int)  # (name, key) -> total
        self._stack: list[int] = []
        self._restore: list = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (nid, start, clock(), parent, False)
                stack.pop()
                raise
            spans[idx] = (nid, start, clock(), parent, True)
            stack.pop()
            if counter is not None:
                for key, value in counter(result).items():
                    counts[name, key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self) -> None:
        """Swap every binding of every traced function for its wrapper."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("pebblewalk.")]
        for mod_name, attr in FUNCTIONS:
            original = getattr(sys.modules[f"pebblewalk.{mod_name}"], attr)
            wrapper = self.wrap(f"{mod_name}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[f"pebblewalk.{mod_name}"], cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original))

    def unpatch(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def layers(self) -> dict:
        """name -> {"calls", "self_s", "total_s", "returned"} over all spans."""
        self_time = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                self_time[parent] -= end - start
        stats: dict = {}
        for i, (nid, start, end, _, ok) in enumerate(self.spans):
            s = stats.setdefault(self.names[nid], {"calls": 0, "self_s": 0.0, "total_s": 0.0, "returned": 0})
            s["calls"] += 1
            s["self_s"] += self_time[i]
            s["returned"] += ok
            # Recursive calls would count their time twice in total_s; none
            # of the traced functions calls itself through its own binding.
            s["total_s"] += end - start
        return stats

    def write(self, path: str, label: str) -> None:
        """Append spans as tab-separated lines: label, name, start, end,
        parent span index (-1 for none), 1 if the call returned normally."""
        with open(path, "a") as out:
            for nid, start, end, parent, ok in self.spans:
                out.write(f"{label}\t{self.names[nid]}\t{start:.9f}\t{end:.9f}\t{parent}\t{int(ok)}\n")
