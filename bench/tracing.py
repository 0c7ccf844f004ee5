"""Spans around the public functions of each hairpinlang layer.

The tracer replaces module attributes: each target function is swapped
for a wrapper in its defining module and in every ``hairpinlang`` module
that imported it by name (``construction`` imports ``derived_terms`` and
the three derivative functions that way, ``cli`` imports the
constructions). Spans (layer, start, end, parent) are kept in memory and
written out at the end; self times are derived from them.

Derivative calls are the hot path, so a derivative call made inside
another derivation span (the closure, or another derivative) is counted
but gets no span of its own: its time is already inside its caller's.
"""

from __future__ import annotations

import gc
import gzip
import json
import sys
import time
from collections import defaultdict

TARGETS = (
    ("hairpinlang.expr", "parse", "expr.parse"),
    ("hairpinlang.derivation", "derived_terms", "derivation.closure"),
    ("hairpinlang.derivation", "two_sided_pd", "derivation.pd"),
    ("hairpinlang.derivation", "left_pd", "derivation.pd"),
    ("hairpinlang.derivation", "right_pd", "derivation.pd"),
    ("hairpinlang.construction", "two_sided_dta", "construction"),
    ("hairpinlang.construction", "effective_automaton", "construction"),
    ("hairpinlang.construction", "regex_dta", "construction"),
    ("hairpinlang.couple_nfa", "membership_dp", "couple_nfa.member"),
    ("hairpinlang.couple_nfa", "membership_test", "couple_nfa.member"),
    ("hairpinlang.couple_nfa", "enumerate_gamma_language", "couple_nfa.enum"),
    ("hairpinlang.couple_nfa", "to_text", "couple_nfa.text"),
    ("hairpinlang.couple_nfa", "from_text", "couple_nfa.text"),
    ("hairpinlang.grammar", "nfa_to_grammar", "grammar.convert"),
    ("hairpinlang.grammar", "grammar_to_nfa", "grammar.convert"),
    ("hairpinlang.grammar", "to_text", "grammar.convert"),
    ("hairpinlang.grammar", "from_text", "grammar.convert"),
    ("hairpinlang.grammar", "generate_upto", "grammar.generate"),
)

# Totals a traced run reports; the cli.* and trace.* ones are filled in
# by the worker.
LAYER_METRICS = (
    ("expr.parse_ms", "ms"),
    ("expr.import_ms", "ms"),
    ("derivation.closure_ms", "ms"),
    ("derivation.pd_calls", "count"),
    ("derivation.terms", "count"),
    ("construction.wiring_ms", "ms"),
    ("construction.wiring_pd_calls", "count"),
    ("construction.self_ms", "ms"),
    ("construction.states", "count"),
    ("construction.transitions", "count"),
    ("couple_nfa.member_ms", "ms"),
    ("couple_nfa.member_letters", "count"),
    ("couple_nfa.enum_ms", "ms"),
    ("couple_nfa.enum_words", "count"),
    ("couple_nfa.text_ms", "ms"),
    ("grammar.convert_ms", "ms"),
    ("grammar.generate_ms", "ms"),
    ("cli.interp_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.work_ms", "ms"),
    ("runtime.gc_ms", "ms"),
    ("runtime.gc_collections", "count"),
    ("trace.ops_per_s", "1/s"),
    ("trace.base_ops_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
)

_DERIVATION = ("derivation.closure", "derivation.pd")


class Tracer:
    def __init__(self):
        self.layers: list[str] = []  # span layer, by span index
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []  # open span indices
        self._closures = 0  # open closure spans
        self._constructions = 0  # open construction spans
        self._saved: list[tuple] = []
        self.in_op = False  # the worker sets this around timed operations
        self._gc_start = 0

    # -- installation -----------------------------------------------------

    def install(self):
        loaded = [m for name, m in sys.modules.items() if name.startswith("hairpinlang")]
        for module_name, attr, layer in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(layer, original)
            for module in loaded:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, name, original))
                        setattr(module, name, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase, _info):
        if not self.in_op:
            return
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.counts["runtime.gc_ns"] += time.perf_counter_ns() - self._gc_start
            self.counts["runtime.gc_collections"] += 1

    # -- spans ------------------------------------------------------------

    def _wrap(self, layer, fn):
        tracer = self
        clock = time.perf_counter_ns
        counts = self.counts

        if layer == "derivation.pd":
            def pd(*args, **kwargs):
                stack = tracer._stack
                if tracer._closures:
                    counts["derivation.pd_calls"] += 1
                elif tracer._constructions:
                    counts["construction.wiring_pd_calls"] += 1
                if stack and tracer.layers[stack[-1]] in _DERIVATION:
                    return fn(*args, **kwargs)
                i = tracer._open(layer, clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(i, clock())
            return pd

        def span(*args, **kwargs):
            i = tracer._open(layer, clock())
            if layer == "derivation.closure":
                tracer._closures += 1
            elif layer == "construction":
                tracer._constructions += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                if layer == "derivation.closure":
                    tracer._closures -= 1
                elif layer == "construction":
                    tracer._constructions -= 1
                tracer._close(i, clock())
            tracer._count(layer, args, result)
            return result
        return span

    def _open(self, layer, start):
        i = len(self.layers)
        self.layers.append(layer)
        self.starts.append(start)
        self.ends.append(start)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(i)
        return i

    def _close(self, i, end):
        self.ends[i] = end
        self._stack.pop()

    def _count(self, layer, args, result):
        c = self.counts
        if layer == "derivation.closure":
            c["derivation.terms"] += len(result.terms)
        elif layer == "construction":
            c["construction.states"] += len(result.states)
            c["construction.transitions"] += len(result.transitions)
        elif layer == "couple_nfa.member":
            c["couple_nfa.member_letters"] += len(args[1])
        elif layer == "couple_nfa.enum":
            c["couple_nfa.enum_words"] += len(result.words)

    # -- results ----------------------------------------------------------

    def totals(self) -> dict:
        """Per-layer totals derived from the spans and counters."""
        n = len(self.layers)
        child_ns = [0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_ns[p] += self.ends[i] - self.starts[i]
        ns = defaultdict(int)
        for i, layer in enumerate(self.layers):
            dur = self.ends[i] - self.starts[i]
            p = self.parents[i]
            parent = self.layers[p] if p >= 0 else None
            if layer == "construction":
                ns["construction.self_ms"] += dur - child_ns[i]
            elif layer == "derivation.pd":
                if parent == "construction":
                    ns["construction.wiring_ms"] += dur
            elif layer == "derivation.closure":
                ns["derivation.closure_ms"] += dur
            elif parent != layer:
                ns[layer + "_ms"] += dur
        out = {name: v / 1e6 for name, v in ns.items()}
        out.update({k: v for k, v in self.counts.items() if k != "runtime.gc_ns"})
        out["runtime.gc_ms"] = self.counts.get("runtime.gc_ns", 0) / 1e6
        return out

    def dump(self, path):
        """Write every span as [layer, start_ns, end_ns, parent index]."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({
                "spans": [
                    [self.layers[i], self.starts[i], self.ends[i], self.parents[i]]
                    for i in range(len(self.layers))
                ],
                "counts": dict(self.counts),
            }, fh)


def run_cli(totals_path: str):
    """Entry point of a traced ``hairpin`` subprocess: run the command
    with every layer wrapped, then write the layer totals to totals_path."""
    import hairpinlang.cli as cli

    tracer = Tracer()
    tracer.install()
    tracer.in_op = True
    try:
        code = cli.run(sys.argv[1:])
    finally:
        tracer.in_op = False
        tracer.uninstall()
        with open(totals_path, "w", encoding="utf-8") as fh:
            json.dump({"totals": tracer.totals(), "spans": len(tracer.layers)}, fh)
    sys.exit(code)
