"""hairpinlang benchmark: one command, four workloads, checked outputs.

    python3 bench/run.py --workload build --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --repeat 10 [--workload member] [--seconds 20]

Run it from the repository root. Each run starts bench/worker.py once per
PYTHONHASHSEED in HASH_SEEDS, one process at a time, each for an equal
share of --seconds, and pools their operations. The last line of standard
output is one JSON object: correct, attempted, failed and the metrics
(end-to-end ones with --trace 0, per-layer ones with --trace 1).
--repeat N runs every workload N times with seeds 1..N and prints each
end-to-end metric's median and quartiles next to its bound in
BENCHMARK.json. See bench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import speed  # noqa: E402  (benchmark modules, stdlib only)
from tracing import LAYER_METRICS  # noqa: E402

SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("build", "member", "enum", "cli")
HASH_SEEDS = (0, 1, 2, 3)
DEFAULT_SEED = 1
DEFAULT_SECONDS = 20
WORKER_TIMEOUT_S = 150  # whole run; the caller allows 180


def setup_ns(w, scaled):
    """A worker's set-up time: its cli warm-up, or from its spawn to its
    first timed operation less the time spent making inputs. Scaled by
    the reference loop read before the spawn and before that operation."""
    if "setup_ns" in w:
        return w["setup_scaled_ns"] if scaled else w["setup_ns"]
    raw = w["first_start_ns"] - w["spawn_ns"] - w["gen_ns"]
    return speed.scaled(raw, w["spawn_loop_ns"], w["first_loop_ns"]) if scaled else raw


def end_to_end(workers, scaled=True):
    key = "scaled_ns" if scaled else "times_ns"
    times = sorted(t for w in workers for t in w[key])
    return {
        "setup_s": (statistics.median(setup_ns(w, scaled) for w in workers) / 1e9, "s"),
        "ops_per_s": (len(times) / (sum(times) / 1e9), "1/s"),
        "op_ms_p50": (statistics.median(times) / 1e6, "ms"),
        "peak_rss_mb": (max(w["peak_rss_kb"] for w in workers) / 1024, "MB"),
    }


def per_layer(workers):
    totals = {}
    for w in workers:
        for name, value in w["layers"].items():
            totals[name] = totals.get(name, 0) + value
    # interpreter and import probes cost per fresh process, not totals
    for name in ("cli.interp_ms", "cli.import_ms", "expr.import_ms"):
        totals[name] = statistics.median(w["layers"][name] for w in workers if name in w["layers"])
    base = totals.pop("trace.base_ops") / sum(
        w["layers"]["trace.base_ops"] / w["layers"]["trace.base_ops_per_s"] for w in workers)
    traced = totals.pop("trace.ops") / sum(
        w["layers"]["trace.ops"] / w["layers"]["trace.ops_per_s"] for w in workers)
    totals["trace.base_ops_per_s"] = base
    totals["trace.ops_per_s"] = traced
    totals["trace.overhead_pct"] = (base / traced - 1) * 100
    return {name: (totals[name], unit) for name, unit in LAYER_METRICS}


def run_workload(workload, seed, seconds, trace):
    """Run the workers one after another. Returns the result object and,
    for untraced runs, the end-to-end metrics without speed scaling."""
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    env = dict(os.environ, PYTHONPATH=str(SRC))
    workers = []
    for proc, hash_seed in enumerate(HASH_SEEDS):
        env["PYTHONHASHSEED"] = str(hash_seed)
        argv = [sys.executable, "-S", str(HERE / "worker.py"), "--workload", workload,
                "--seed", str(seed), "--proc", str(proc), "--procs", str(len(HASH_SEEDS)),
                "--seconds", str(seconds / len(HASH_SEEDS)), "--trace", str(trace)]
        if workers:  # the first process picked the round counts by time
            argv += ["--rounds", str(workers[0]["rounds"])]
            if trace:
                argv += ["--base-rounds", str(workers[0]["base_rounds"])]
        spawn_loop_ns = speed.loop_ns()
        spawn_ns = time.monotonic_ns()
        done = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1))
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise SystemExit(f"worker {proc} of {workload} exited with {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result.update(spawn_ns=spawn_ns, spawn_loop_ns=spawn_loop_ns)
        workers.append(result)
    for w in workers:
        for problem in w["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
    metrics = per_layer(workers) if trace else end_to_end(workers)
    result = {
        "correct": all(w["correct"] for w in workers),
        "attempted": sum(len(w["times_ns"]) for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    unscaled = {} if trace else end_to_end(workers, scaled=False)
    return result, {k: {"value": v, "unit": u} for k, (v, u) in unscaled.items()}


def repeat(workloads, n, seconds):
    """Run each workload n times (seeds 1..n); print median, quartiles,
    spread and bound of every end-to-end metric."""
    bounds = {}
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        bounds = {m["name"]: m["bound"] for m in json.loads(spec_path.read_text())["end_to_end"]}
    summary = {}
    for workload in workloads:
        runs = []
        for seed in range(1, n + 1):
            start = time.monotonic()
            result, unscaled = run_workload(workload, seed, seconds, 0)
            runs.append(dict(result, unscaled=unscaled))
            print(f"{workload} seed {seed} ({time.monotonic() - start:.0f} s): "
                  + json.dumps(result), file=sys.stderr)
        summary[workload] = runs
        print(f"\n{workload}: {n} runs, attempted {[r['attempted'] for r in runs]}, "
              f"failed {sum(r['failed'] for r in runs)}, correct {all(r['correct'] for r in runs)}")
        print(f"  {'metric':<22} {'unit':<5} {'q1':>10} {'median':>10} {'q3':>10} "
              f"{'spread':>7} {'bound':>6}")
        for key, label in (("metrics", ""), ("unscaled", " (unscaled)")):
            for name, unit_value in runs[0][key].items():
                values = [r[key][name]["value"] for r in runs]
                q1, q2, q3 = statistics.quantiles(values, n=4)
                bound = bounds.get(name, float("nan")) if not label else float("nan")
                print(f"  {name + label:<22} {unit_value['unit']:<5} {q1:10.4f} {q2:10.4f} "
                      f"{q3:10.4f} {(q3 - q1) / q2:7.3f} {bound:6.2f}")
    OUT.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    (OUT / f"repeat-{stamp}.json").write_text(json.dumps(summary, indent=1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, metavar="N",
                    help="run each workload N times and summarise")
    args = ap.parse_args()
    if not (SRC / "hairpinlang" / "__init__.py").is_file():
        raise SystemExit(f"error: no hairpinlang sources under {SRC}")
    if args.repeat is None and args.workload is None:
        ap.error("--workload is required unless --repeat is given")
    # Bytecode is compiled before any measured process starts.
    for tree in (SRC, HERE):
        if not compileall.compile_dir(str(tree), quiet=1):
            raise SystemExit(f"error: {tree} does not compile")
    if args.repeat:
        repeat([args.workload] if args.workload else WORKLOADS, args.repeat, args.seconds)
        return
    result, unscaled = run_workload(args.workload, args.seed, args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}.json"
    (OUT / name).write_text(json.dumps(dict(result, unscaled=unscaled), indent=1))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
