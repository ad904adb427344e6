"""parkrsu benchmark: one workload per invocation, result as a JSON last line.

    python3 perfbench/run.py --workload uniform-2h --seed 1 --seconds 10 --trace 0

Run from the repository root. The package is imported from src/, nothing
is installed. With --trace 0 the run reports end-to-end metrics: it times
fresh-interpreter set-up, then repeats each part of the workload (simulate,
then bounds) in whole calls until the part has run for half of --seconds
(always at least once), and reports medians.
With --trace 1 it runs the workload once untraced and once with every
layer's entry points wrapped, and reports per-layer metrics from the spans.
Either way the outputs are checked after the timed region; see checks.py
and rescore.py.
"""

from __future__ import annotations

import os
import sys

# BLAS threads count toward the benchmark's thread budget; pin them to one
# before numpy is first imported, here and in every child interpreter.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Set-up is timed this many times before the parts and again after them,
# so its median samples the host over the whole run.
SETUP_REPEATS = 4
SETUP_TIMEOUT_S = 60

# The child prints the monotonic clock (system-wide on Linux) once the
# Simulation exists; interpreter teardown is not part of set-up.
SETUP_CODE = """
import sys, time
sys.path.insert(0, {src!r})
import parkrsu
cfg = parkrsu.RunConfig().with_overrides(seed={seed!r}, **{overrides!r})
parkrsu.Simulation(cfg)
print(time.perf_counter())
"""


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def measure_setup_s(workload, seed: int, repeats: int) -> list[float]:
    """Time for fresh interpreters to import parkrsu, build the config and the Simulation."""
    code = SETUP_CODE.format(src=SRC, seed=seed, overrides=dict(workload.overrides))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            stdout=subprocess.PIPE,
            text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        times.append(float(done.stdout.split()[-1]) - t0)
    return times


def timed_calls(part, budget_s: float, inspect) -> list:
    """Call part() at least once and until its calls add up to budget_s.

    inspect(first) runs untimed on the first call's output; later calls must
    reproduce that output byte for byte. Each output is dropped once seen,
    so peak memory does not depend on how many calls fit in the budget.
    Returns every call with its output removed.
    """
    calls = []
    while not calls or sum(c.part_s for c in calls) < budget_s:
        call = part()
        if not calls:
            inspect(call.output)
        elif call.digest != calls[0].digest:
            raise RuntimeError("a repeated call produced different outputs")
        call.output = None
        calls.append(call)
    return calls


def _summary(label: str, values: list[float], unit: str) -> str:
    return f"{label}: median {statistics.median(values):.6g} {unit} (n={len(values)})"


def run_untraced(workload, seed: int, seconds: float):
    """End-to-end metrics; each part gets half of --seconds, in whole calls."""
    from parkrsu import steady_state_stats

    from checks import check_bounds, check_simulation
    from workloads import sample_bounds, simulate

    cfg = workload.config(seed)
    out_dir = os.path.join(OUT, workload.name)
    fails: list[str] = []
    seen: dict = {}

    def inspect_sim(result):
        fails.extend(check_simulation(cfg, result))
        seen["steady"] = steady_state_stats(result.metrics, cfg.sim.discard_s)
        seen["ticks"] = len(result.metrics)
        seen["modelled"] = (
            f"ticks {len(result.metrics)}, parking_events {result.parking_events}, "
            f"decisions {result.decisions}, active_at_end {result.active_at_end}"
        )

    def inspect_bounds(bounds):
        fails.extend(check_bounds(cfg, bounds, workload.bounds_samples))
        seen["bounds"] = f"bounds samples {len(bounds.samples)} skipped {bounds.skipped}"

    setup = measure_setup_s(workload, seed, SETUP_REPEATS)
    sims = timed_calls(lambda: simulate(cfg, out_dir), seconds / 2, inspect_sim)
    bnds = timed_calls(lambda: sample_bounds(cfg, workload.bounds_samples, out_dir), seconds / 2, inspect_bounds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += measure_setup_s(workload, seed, SETUP_REPEATS)

    ticks, steady = seen["ticks"], seen["steady"]
    ticks_per_s = [ticks / c.call_s for c in sims]
    samples_per_s = [workload.bounds_samples / c.call_s for c in bnds]
    run_s = statistics.median(c.part_s for c in sims) + statistics.median(c.part_s for c in bnds)
    print(f"workload {workload.name} seed {seed}: outputs {sims[0].digest[:16]} {bnds[0].digest[:16]}")
    print(_summary("setup_s", setup, "s"))
    print(_summary("simulate part", [c.part_s for c in sims], "s"))
    print(_summary("bounds part", [c.part_s for c in bnds], "s"))
    print(_summary("sim_ticks_per_s", ticks_per_s, "ticks/s"))
    print(_summary("bounds_samples_per_s", samples_per_s, "samples/s"))
    print(f"modelled: {seen['modelled']}, {seen['bounds']}")
    for f in fails:
        print(f"CHECK FAILED: {f}")

    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (run_s, "s"),
        "sim_ticks_per_s": (statistics.median(ticks_per_s), "ticks/s"),
        "bounds_samples_per_s": (statistics.median(samples_per_s), "samples/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "coverage_pct": (steady.coverage_pct.mean, "fraction"),
        "area_per_rsu_m2": (steady.area_per_rsu_m2.mean, "m2"),
    }
    attempted = ticks * len(sims) + workload.bounds_samples * len(bnds)
    return not fails, attempted, metrics


def run_traced(workload, seed: int):
    """Per-layer metrics from one traced evaluation, after one untraced one."""
    from parkrsu.config import build_weights

    from checks import check_bounds, check_simulation
    from rescore import check_decisions
    from tracing import Tracer
    from workloads import run_instance

    plain = run_instance(workload, seed, os.path.join(OUT, workload.name))
    tracer = Tracer()
    with tracer.installed():
        traced = run_instance(workload, seed, os.path.join(OUT, workload.name + "-traced"))
    trace_path = os.path.join(OUT, f"trace-{workload.name}.npz")
    tracer.write(trace_path)

    fails = []
    if traced.digest != plain.digest:
        fails.append("traced outputs differ from untraced outputs")
    fails += check_simulation(traced.config, traced.sim.output)
    fails += check_bounds(traced.config, traced.bounds.output, workload.bounds_samples)
    fails += check_decisions(tracer.decisions, build_weights(traced.config))

    metrics, notes = tracer.layer_metrics()
    overhead = traced.run_s - plain.run_s
    print(f"workload {workload.name} seed {seed} traced: outputs {traced.digest[:16]}")
    print(
        f"tracing overhead: run_s untraced {plain.run_s:.3f} s, traced {traced.run_s:.3f} s, "
        f"+{overhead:.3f} s ({100 * overhead / plain.run_s:.1f}%)"
    )
    print(f"decisions re-scored: {len(tracer.decisions)}")
    for note in notes:
        print(note)
    print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
    for f in fails:
        print(f"CHECK FAILED: {f}")
    attempted = 2 * (len(traced.sim.output.metrics) + workload.bounds_samples)
    return not fails, attempted, metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "parkrsu", "__init__.py")):
        return _fail(f"no parkrsu package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        return _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.trace:
        correct, attempted, metrics = run_traced(workload, args.seed)
    else:
        correct, attempted, metrics = run_untraced(workload, args.seed, args.seconds)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": 0,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
