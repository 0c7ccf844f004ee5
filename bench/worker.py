"""One measured process of a benchmark workload.

run.py starts this script once per PYTHONHASHSEED, one process at a time,
with ``src`` on PYTHONPATH. The process sets up (imports hairpinlang and,
for member and enum, builds the automata those workloads query), runs
whole rounds of operations for its share of the run, reads its peak RSS,
then checks every output. It prints one JSON object on its last line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import inputs
import speed
from decider import decide
from tracing import LAYER_METRICS, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

# The hairpinlang modules; main() imports them after it has made the first
# round's inputs, so that set-up time holds only the program's own work.
expr = cons = cnfa = gram = oracle = None


def now() -> int:
    # CLOCK_MONOTONIC: comparable with the parent's clock, for set-up time
    return time.monotonic_ns()


# ---------------------------------------------------------------------------
# Workloads. Each class turns rounds of inputs into timed operations and
# checks the outputs afterwards.


class Build:
    """Parse, build and serialise one expression per operation. Only the
    text and a fingerprint of each automaton are kept, so that peak RSS is
    that of one build and not of all the automata a run made."""

    def __init__(self, args):
        self.rounds = _own_rounds(inputs.build_rounds(args.seed), args)
        self.results = []

    def setup(self):
        pass

    def prepare(self, specs):
        return specs

    def op(self, spec):
        a = _build(spec)
        return a, cnfa.to_text(a)

    def keep(self, spec, result):
        a, text = result
        self.results.append((spec, text, _fingerprint(a)))

    def check(self, seed):
        bad = []
        for i, (spec, text, fingerprint) in enumerate(self.results):
            a = cnfa.from_text(text)
            if _fingerprint(a) != fingerprint:
                bad.append(f"{spec.text}: from_text(to_text(a)) != a")
            rng = inputs.rng_for(seed, "build-check", i)
            for w, truth in inputs.check_words(spec, rng):
                if decide(spec, w) != truth or cnfa.membership_dp(a, w) != truth:
                    bad.append(f"{spec.text}: {w} should be {truth}")
            bound = ORACLE_BOUND[len(spec.alphabet)]
            got = cnfa.enumerate_gamma_language(a, bound).words
            if got != _oracle(spec, bound):
                bad.append(f"{spec.text}: language up to {bound} differs from the oracle")
            if any(not decide(spec, w) for w in got):
                bad.append(f"{spec.text}: enumerated word rejected by the decider")
        return bad


def _fingerprint(a) -> str:
    """Digest of every field of an automaton, read without to_text."""
    fields = (a.alphabet, a.states, sorted(a.initial), sorted(a.final),
              sorted(a.transitions), a.labels)
    return hashlib.sha1(repr(fields).encode()).hexdigest()


# The oracle enumerates every word up to its bound, so the bound shrinks
# as the alphabet grows.
ORACLE_BOUND = {3: 7, 4: 6, 8: 4}


def _oracle(spec, bound):
    reg = {"H": expr.parse_map(spec.map_spec)}
    return oracle.hairpin_enum(expr.parse(spec.text, reg), bound, reg).words


def _build(spec):
    """Parse and build, routed as the CLI routes: whole k = 0
    completions to effective_automaton, the rest to two_sided_dta."""
    reg = {"H": expr.parse_map(spec.map_spec)}
    e = expr.parse(spec.text, reg)
    if spec.zero_k:
        return cons.effective_automaton(e, reg)
    return cons.two_sided_dta(e, reg)


class Member:
    """One membership_dp query per operation."""

    def __init__(self, args):
        self.specs = inputs.member_specs()
        self.rounds = (
            inputs.member_round(args.seed, args.proc, args.procs, r, self.specs)
            for r in itertools.count()
        )
        self.results = []

    def setup(self):
        self.automata = [_build(spec) for spec in self.specs]

    def prepare(self, words):
        return words

    def op(self, item):
        idx, w, _truth = item
        return cnfa.membership_dp(self.automata[idx], w)

    def keep(self, item, answer):
        idx, w, truth = item
        self.results.append((idx, w, truth, answer))

    def check(self, seed):
        bad = []
        seen = set()
        for idx, w, truth, answer in self.results:
            spec = self.specs[idx]
            if (idx, w) in seen:
                bad.append(f"word queried twice against {spec.text}")
            seen.add((idx, w))
            if answer != truth or decide(spec, w) != truth:
                bad.append(f"{spec.text}: a word of {len(w)} letters should be {truth}")
        n = len(self.results)
        trues = sum(1 for r in self.results if r[2])
        if not (3 * trues >= n and 3 * (n - trues) >= n):
            bad.append(f"answers not balanced: {trues} true of {n}")
        return bad


class Enum:
    """One bounded enumeration per operation, through the automaton or
    through its linear grammar."""

    def __init__(self, args):
        self.plan = inputs.enum_plan(args.proc)
        ops = [(i, bound, path) for i, (_spec, bounds) in enumerate(self.plan)
               for bound in bounds for path in ("nfa", "grammar")]
        self.rounds = itertools.repeat(ops)
        self.digests = {}  # (automaton, bound, path) -> digests of the sets seen
        self.count = 0

    def setup(self):
        self.automata = [_build(spec) for spec, _bounds in self.plan]

    def prepare(self, ops):
        # Rename the states for every round: the work is the same, but no
        # cache keyed on the automaton can answer a later round.
        self.count += 1
        renamed = [_renamed(a, f"r{self.count}_") for a in self.automata]
        return [(i, bound, path, renamed[i]) for i, bound, path in ops]

    def op(self, item):
        _i, bound, path, a = item
        if path == "nfa":
            return cnfa.enumerate_gamma_language(a, bound)
        g = gram.from_text(gram.to_text(gram.nfa_to_grammar(a)))
        return gram.generate_upto(g, bound)

    def keep(self, item, lang):
        i, bound, path, _a = item
        self.digests.setdefault((i, bound, path), set()).add(_digest(lang.words))

    def check(self, seed):
        bad = []
        for i, (spec, bounds) in enumerate(self.plan):
            top = max(bounds)
            expect = _oracle(spec, top)
            if any(not decide(spec, w) for w in expect):
                bad.append(f"{spec.text}: oracle word rejected by the decider")
            for bound in bounds:
                want = {w for w in expect if len(w) <= bound}
                for path in ("nfa", "grammar"):
                    if self.digests.get((i, bound, path)) != {_digest(want)}:
                        bad.append(f"{spec.text}: {path} path up to {bound} differs from the oracle")
        return bad


def _digest(words) -> str:
    return hashlib.sha1("\n".join(sorted(words)).encode()).hexdigest()


def _renamed(a, prefix):
    return cnfa.CoupleNfa(
        alphabet=a.alphabet,
        states=tuple(prefix + q for q in a.states),
        initial=frozenset(prefix + q for q in a.initial),
        final=frozenset(prefix + q for q in a.final),
        transitions=frozenset((prefix + s, c, prefix + t) for s, c, t in a.transitions),
        labels=tuple((prefix + q, text) for q, text in a.labels),
    )


class Cli:
    """One ``hairpin`` subprocess per operation."""

    def __init__(self, args):
        self.args = args
        self.rounds = _own_rounds(inputs.cli_rounds(args.seed), args)
        self.results = []
        self.traced = False
        self.child_totals = {}
        self.totals_path = OUT / f"cli-child-{os.getpid()}.json"

    def command(self, spec, slot, rng):
        cmd = inputs.CLI_COMMANDS[slot]
        argv = [cmd, "--expr", spec.text, "--map", spec.map_spec]
        if cmd == "derive":
            x = rng.choice(spec.alphabet)
            argv += ["--couple", f"({x},{spec.h[x]})"]
        elif cmd == "member":
            term = spec.terms[0]
            if rng.random() < 0.5:
                argv += ["--word", inputs.member(term, spec.h, rng, 10, 0.2)[2]]
            else:
                argv += ["--word", inputs.near_miss(spec, term, rng, 10, 0.2, 0.8)]
        elif cmd == "enum":
            argv += ["--max-len", str(inputs.CLI_ENUM_LEN)]
        return argv

    def setup(self):
        # The untimed warm-up invocation is this workload's set-up.
        before = speed.loop_ns()
        t = now()
        self._run(["parse", "--expr", "Hr[1,H](a*bc)", "--map", inputs.MAPS["abc"]])
        self.warmup_ns = now() - t
        self.warmup_scaled_ns = speed.scaled(self.warmup_ns, before, speed.loop_ns())

    def prepare(self, specs):
        out = []
        for slot, spec in enumerate(specs):
            rng = inputs.rng_for(self.args.seed, "cli-args", spec.text)
            out.append((spec, self.command(spec, slot, rng)))
        return out

    def _run(self, argv):
        if self.traced:
            code = f"import sys; sys.path.insert(0, {str(ROOT / 'bench')!r}); import tracing; tracing.run_cli({str(self.totals_path)!r})"
        else:
            code = "from hairpinlang.cli import main; main()"
        return subprocess.run(
            [sys.executable, "-S", "-c", code, *argv],
            capture_output=True, text=True, cwd=ROOT, timeout=60,
        )

    def op(self, item):
        return self._run(item[1])

    def keep(self, item, proc):
        self.results.append((item[0], item[1], proc.returncode, proc.stdout, proc.stderr))
        if self.traced:
            with open(self.totals_path, encoding="utf-8") as fh:
                for k, v in json.load(fh)["totals"].items():
                    self.child_totals[k] = self.child_totals.get(k, 0) + v

    def check(self, seed):
        bad = []
        for spec, argv, code, out, err in self.results:
            problem = check_cli(spec, argv, code, out, err)
            if problem:
                bad.append(f"{' '.join(argv[:1])} {spec.text}: {problem}")
        return bad


def check_cli(spec, argv, code, out, err):
    """None when the output of ``hairpin <argv>`` is right, else why not."""
    cmd = argv[0]
    reg = {"H": expr.parse_map(spec.map_spec)}
    n = inputs.CLI_ENUM_LEN
    if cmd == "member":
        truth = decide(spec, argv[argv.index("--word") + 1])
        ok = (code, out) == ((0, "true\n") if truth else (1, "false\n"))
        return None if ok else f"answered {out.strip()!r} with exit {code}"
    if code != 0:
        return f"exit {code}: {err.strip()}"
    lines = out.splitlines()
    want = {w for w in expr.iter_words(tuple(spec.alphabet), n) if decide(spec, w)}
    if cmd == "parse":
        fields = dict(line.split(": ", 1) for line in lines)
        letters = sum(1 for c in spec.terms[0].regex if c.isalnum())
        expect = {
            "kind": "hairpin", "width": str(letters),
            "stars": str(spec.terms[0].regex.count("*")),
            "nullable": "false", "alphabet": " ".join(spec.alphabet),
        }
        wrong = [k for k, v in expect.items() if fields.get(k) != v]
        return f"fields {wrong} wrong" if wrong else None
    if cmd == "derive":
        x, y = argv[argv.index("--couple") + 1].strip("()").split(",")
        got = set()
        for term in lines:
            got |= oracle.hairpin_enum(expr.parse(term, reg), n - 2, reg).words
        residual = {w[1:-1] for w in want if len(w) >= 2 and w[0] == x and w[-1] == y}
        return None if got == residual else "terms do not add up to the residual"
    if cmd in ("dta", "effective"):
        got = cnfa.enumerate_gamma_language(cnfa.from_text(out), n).words
    elif cmd == "enum":
        got = {"" if w == "~" else w for w in lines}
    elif cmd == "grammar":
        got = gram.generate_upto(gram.from_text(out), n).words
    else:  # verify-bounds
        for line in lines:
            counts = line.split(": ", 1)[1].split()
            if not (counts[3] == "ok" and int(counts[0]) <= int(counts[2])):
                return f"bound violated: {line}"
        return None if lines else "no output"
    return None if got == want else f"language up to {n} differs from the decider"


WORKLOADS = {"build": Build, "member": Member, "enum": Enum, "cli": Cli}


def _own_rounds(all_rounds, args):
    """This process's rounds: proc, proc + procs, ..."""
    for r, items in enumerate(all_rounds):
        if r % args.procs == args.proc:
            yield items


# ---------------------------------------------------------------------------
# The timed loop


def timed_loop(work, share_s, rounds=None, tracer=None, first=None):
    """Run whole rounds: exactly ``rounds`` of them, or, when rounds is
    None, until share_s seconds have passed. The first process of a run
    picks the count by time and the others repeat it, so every run holds
    whole rounds of the same operations. The reference loop runs before
    every operation and after the last, so that each operation's time can
    be scaled to the machine's speed around it. Returns (first operation
    start, operation times in ns, scaled times in ns, loop times in ns,
    failures, rounds run)."""
    times, loops, failures = [], [], 0
    first_start = None
    loop_start = now()
    done = 0
    while True:
        items = work.prepare(first if first is not None else next(work.rounds))
        first = None
        for item in items:
            gc.collect()
            loops.append(speed.loop_ns())
            if tracer:
                tracer.in_op = True
            t0 = now()
            if first_start is None:
                first_start = t0
            try:
                result = work.op(item)
            except Exception as exc:  # counted as a failed operation
                failures += 1
                print(f"operation failed: {exc!r}", file=sys.stderr)
                result = None
            t1 = now()
            if tracer:
                tracer.in_op = False
            times.append(t1 - t0)
            if result is not None:
                work.keep(item, result)
        done += 1
        if done == rounds or (rounds is None and now() - loop_start >= share_s * 1e9):
            loops.append(speed.loop_ns())
            scaled = [speed.scaled(t, loops[i], loops[i + 1]) for i, t in enumerate(times)]
            return first_start, times, scaled, loops, failures, done


def probe(code: str, repeat: int = 5) -> float:
    """Median over fresh ``python -S`` processes of the milliseconds the
    snippet prints, or of the whole process when it prints nothing."""
    values = []
    for _ in range(repeat):
        t = now()
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                              text=True, cwd=ROOT, timeout=60, check=True)
        wall = (now() - t) / 1e6
        values.append(float(proc.stdout) if proc.stdout.strip() else wall)
    values.sort()
    return values[len(values) // 2]


PROBED = ("cli.interp_ms", "cli.import_ms", "expr.import_ms")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import {m}; "
                "print((time.perf_counter() - t) * 1000)")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--proc", type=int, required=True)
    ap.add_argument("--procs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, help="run this many rounds instead of timing")
    ap.add_argument("--base-rounds", type=int, help="the same for the untraced base loop")
    args = ap.parse_args()
    OUT.mkdir(exist_ok=True)

    # Inputs of the first round are made before the program is imported,
    # and their time is reported so that set-up time leaves it out.
    t = now()
    work = WORKLOADS[args.workload](args)
    first = next(work.rounds)
    gc.collect()
    gen_ns = now() - t

    global expr, cons, cnfa, gram, oracle
    tracer = Tracer() if args.trace else None
    from hairpinlang import construction as cons
    from hairpinlang import couple_nfa as cnfa
    from hairpinlang import expr
    from hairpinlang import grammar as gram
    from hairpinlang import oracle
    result = {"proc": args.proc}
    if tracer:
        tracer.install()
    work.setup()
    if tracer:
        tracer.uninstall()
        # Untraced base first, for the tracing overhead; then the traced loop.
        _, base_times, base_scaled, _, _, result["base_rounds"] = timed_loop(
            work, args.seconds, args.base_rounds, first=first)
        first = None
        tracer.install()
        work.traced = True
    first_start, times, scaled, loops, failures, result["rounds"] = timed_loop(
        work, args.seconds, args.rounds, tracer, first)
    if tracer:
        tracer.uninstall()
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result["peak_rss_kb"] = resource.getrusage(who).ru_maxrss

    if args.workload == "cli":
        result.update(setup_ns=work.warmup_ns, setup_scaled_ns=work.warmup_scaled_ns)
    result.update(first_start_ns=first_start, first_loop_ns=loops[0], gen_ns=gen_ns,
                  times_ns=times, scaled_ns=scaled, failed=failures)
    if tracer:
        totals = tracer.totals()
        if args.workload == "cli":
            for k, v in work.child_totals.items():
                totals[k] = totals.get(k, 0) + v
        # Fresh-interpreter costs: probed by the first process, or by
        # every cli process, which needs them for cli.work_ms.
        if args.proc == 0 or args.workload == "cli":
            interp = probe("pass")
            cli_import = probe(IMPORT_PROBE.format(m="hairpinlang.cli"))
            totals["cli.interp_ms"] = interp
            totals["cli.import_ms"] = cli_import
            totals["expr.import_ms"] = probe(IMPORT_PROBE.format(m="hairpinlang.expr"))
        if args.workload == "cli":
            totals["cli.work_ms"] = sum(base_times) / 1e6 - len(base_times) * (interp + cli_import)
        totals["trace.ops_per_s"] = len(scaled) / (sum(scaled) / 1e9)
        totals["trace.base_ops_per_s"] = len(base_scaled) / (sum(base_scaled) / 1e9)
        result["layers"] = {name: totals.get(name, 0) for name, _unit in LAYER_METRICS
                            if name != "trace.overhead_pct"
                            and (name in totals or name not in PROBED)}
        result["layers"]["trace.ops"] = len(times)
        result["layers"]["trace.base_ops"] = len(base_times)
        if args.workload == "cli":
            work.totals_path.unlink(missing_ok=True)
        else:
            tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}-proc{args.proc}.json.gz")

    problems = work.check(args.seed)
    result["problems"] = problems[:20]
    result["correct"] = not problems
    print(json.dumps(result))


if __name__ == "__main__":
    main()
