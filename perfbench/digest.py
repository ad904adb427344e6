"""Print a digest of each workload's simulated outputs.

    python3 perfbench/digest.py --seed 1 [--workload uniform-2h ...]

Runs each workload once, untimed, and prints the SHA-256 over its
metrics.csv, lifetimes.csv, commands.csv, manifest.json and bounds.csv,
plus the modelled-network summary. Two commits whose digests match for a
seed simulate the same network bit for bit. The manifest carries the
package version, so a version bump alone changes the digest.
"""

from __future__ import annotations

import argparse
import os
import sys

import run  # pins BLAS threads before numpy is imported


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workload", action="append", help="workload name (repeatable; default all)")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(run.SRC, "parkrsu", "__init__.py")):
        return run._fail(f"no parkrsu package under {run.SRC}; run from a full checkout")
    sys.path.insert(0, run.SRC)
    from parkrsu import steady_state_stats

    from workloads import WORKLOADS, run_instance

    names = args.workload or list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        return run._fail(f"unknown workload(s) {', '.join(unknown)}; choose from {', '.join(WORKLOADS)}")
    for name in names:
        inst = run_instance(WORKLOADS[name], args.seed, os.path.join(run.OUT, "digest-" + name))
        r = inst.sim.output
        s = steady_state_stats(r.metrics, inst.config.sim.discard_s)
        print(
            f"{name} seed {args.seed} {inst.digest} "
            f"parking_events={r.parking_events} decisions={r.decisions} active_at_end={r.active_at_end} "
            f"coverage_pct={s.coverage_pct.mean:.6f} area_per_rsu_m2={s.area_per_rsu_m2.mean:.3f} "
            f"bounds_samples={len(inst.bounds.output.samples)}",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
