"""Workload definitions and the timed parts each benchmark run executes.

Every workload is one scenario evaluated the way the command line does it,
in two parts on the same config: the simulate part (Simulation.run plus the
four sim.write_* outputs, as `parkrsu simulate`) and the bounds part
(random_assignment_bounds plus bounds.csv, as `parkrsu bounds`). The
workloads differ in which part dominates and in which layers the scenario
loads; see README.md for why each was chosen.

The parts call the library through module attributes (psim.Simulation,
psim.write_metrics_csv, ...) so that the traced run can wrap exactly the
same calls from outside the package.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass

import parkrsu
from parkrsu import sim as psim

# Sample count of `parkrsu bounds` when no --samples is given.
CLI_BOUNDS_SAMPLES = 10_000

SIM_FILES = ("metrics.csv", "lifetimes.csv", "commands.csv", "manifest.json")
BOUNDS_FILES = ("bounds.csv",)


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: tuple[tuple[str, object], ...]
    bounds_samples: int

    def config(self, seed: int) -> parkrsu.RunConfig:
        return parkrsu.RunConfig().with_overrides(seed=seed, **dict(self.overrides))


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's reference scenario: default city, uniform traffic, 2 h.
        Workload("uniform-2h", (), CLI_BOUNDS_SAMPLES),
        # Wide radio range and parking churn just under one decision per tick:
        # large candidate pools make decision.decide the hot layer.
        Workload(
            "churn-wide",
            (
                ("range_multiplier", 2.0),
                ("arrival_rate_vps", 0.9),
                ("target_moving_vehicles", 20.0),
                ("w_sat", 0.0),
                ("duration_s", 3600.0),
            ),
            CLI_BOUNDS_SAMPLES,
        ),
        # A whole day of the built-in profile: mostly quiet ticks, so the
        # fixed per-tick cost and the 86 400-row writers dominate.
        Workload(
            "day-24h",
            (("mode", "day_profile"), ("daily_total", 4000), ("duration_s", 86400.0)),
            CLI_BOUNDS_SAMPLES,
        ),
        # The batched envelope sampler at the size the README documents; the
        # one-hour simulation supplies the modelled-network metrics.
        Workload("bounds-100k", (("duration_s", 3600.0),), 100_000),
    )
}


@dataclass
class Part:
    """One timed call of a part and the output it produced."""

    output: object  # RunResult or BoundsResult
    call_s: float  # the library call alone: Simulation.run or random_assignment_bounds
    part_s: float  # the call plus writing its outputs
    digest: str


def simulate(cfg: parkrsu.RunConfig, out_dir: str) -> Part:
    """Build the simulation (untimed), then time the run and its outputs."""
    os.makedirs(out_dir, exist_ok=True)
    path = {name: os.path.join(out_dir, name) for name in SIM_FILES}
    simulation = psim.Simulation(cfg)
    t0 = time.perf_counter()
    result = simulation.run()
    t1 = time.perf_counter()
    psim.write_metrics_csv(result.metrics, path["metrics.csv"])
    psim.write_lifetimes_csv(result.lifetimes, path["lifetimes.csv"])
    psim.write_commands_csv(result.commands, path["commands.csv"])
    psim.write_manifest(cfg, result, path["manifest.json"])
    t2 = time.perf_counter()
    return Part(result, t1 - t0, t2 - t0, output_digest(out_dir, SIM_FILES))


def sample_bounds(cfg: parkrsu.RunConfig, samples: int, out_dir: str) -> Part:
    """Time the random-assignment sampling and its bounds.csv."""
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.perf_counter()
    bounds = psim.random_assignment_bounds(cfg, samples)
    t1 = time.perf_counter()
    psim.write_bounds_csv(bounds.samples, os.path.join(out_dir, "bounds.csv"))
    t2 = time.perf_counter()
    return Part(bounds, t1 - t0, t2 - t0, output_digest(out_dir, BOUNDS_FILES))


@dataclass
class Instance:
    """One evaluated scenario: one simulate part and one bounds part."""

    config: parkrsu.RunConfig
    sim: Part
    bounds: Part

    @property
    def run_s(self) -> float:
        return self.sim.part_s + self.bounds.part_s

    @property
    def digest(self) -> str:
        return hashlib.sha256((self.sim.digest + self.bounds.digest).encode()).hexdigest()


def run_instance(workload: Workload, seed: int, out_dir: str) -> Instance:
    cfg = workload.config(seed)
    return Instance(cfg, simulate(cfg, out_dir), sample_bounds(cfg, workload.bounds_samples, out_dir))


def output_digest(out_dir: str, names) -> str:
    """SHA-256 over the named output files, in order."""
    h = hashlib.sha256()
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        h.update(f"{name}:{len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()
