"""Discrete-time city simulation: traffic, learning, decisions, metrics.

One tick is one second. Moving vehicles beacon every tick; every freshly
parked car listens for a learning period, builds its coverage map, then
runs one keep/revoke decision over the active roadside units it can hear.
The loop applies at most one decision per tick, atomically, and samples
network metrics every tick; a tick that changes no role reuses the last
sample with the new time.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import RunConfig
from .decision import (
    ActiveRsu,
    CandidatePool,
    RoleCommand,
    battery_indicator,
    decide,
    level_columns,
    merged_totals,
    reach_levels,
    union_counts,
)
from .errors import ConfigurationError
from .grid import Cell
from .maps import CoverageMap, CoverageMapBuilder
from .radio import FootprintCache, sample_rssi_many
from .traffic import TrafficProcess, Vehicle, should_depart

CAUSE_DECISION = "decision"
CAUSE_FORCED = "forced_tau_M"
CAUSE_DEPARTURE = "departure"

KIND_CAM = "cam"
KIND_MAP_REQUEST = "map_request"
KIND_MAP_RESPONSE = "map_response"
KIND_ROLE_ASSIGN = "role_assign"
KIND_ROLE_REVOKE = "role_revoke"

METRICS_HEADER = "t,active_rsus,coverage_pct,mean_signal,mean_saturation,area_per_rsu"
LIFETIMES_HEADER = "entity_id,assigned_at,revoked_at,cause"
COMMANDS_HEADER = "time_s,maker_id,verb,target_id"
BOUNDS_HEADER = "mean_signal,mean_saturation"


@dataclass
class MetricsSample:
    t: float
    active_rsus: int
    coverage_pct: float
    mean_signal: float
    mean_saturation: float
    area_per_rsu_m2: float


@dataclass
class RsuLifetimeRecord:
    entity_id: int
    assigned_at: float
    revoked_at: float
    cause: str


@dataclass
class CommandRecord:
    time_s: float
    maker_id: int
    verb: str
    target_id: int


@dataclass
class RunResult:
    metrics: list[MetricsSample]
    lifetimes: list[RsuLifetimeRecord]
    commands: list[CommandRecord]
    message_counts: dict[str, int]
    parking_events: int
    assignments: int
    decisions: int
    active_at_end: int


@dataclass
class StatPair:
    mean: float
    sd: float

    @classmethod
    def of(cls, values: Sequence[float]) -> StatPair:
        """Mean and population standard deviation of a non-empty series."""
        arr = np.asarray(values, dtype=float)
        lo, hi = float(arr.min()), float(arr.max())
        if lo == hi:
            # A constant series has sd exactly 0; don't let summation
            # round-off report a phantom spread.
            return cls(mean=lo, sd=0.0)
        return cls(mean=float(arr.mean()), sd=float(arr.std()))


@dataclass
class SteadyStateSummary:
    n_samples: int
    active_rsus: StatPair
    coverage_pct: StatPair
    mean_signal: StatPair
    mean_saturation: StatPair
    area_per_rsu_m2: StatPair


# The steady-state figures, in output order; MetricsSample has a field of each name.
STEADY_METRICS = tuple(f.name for f in dataclasses.fields(SteadyStateSummary) if f.name != "n_samples")


@dataclass
class BoundsResult:
    samples: list[tuple[float, float]]
    skipped: int
    fill_cells: list[Cell]


class Simulation:
    """Owns all mutable run state; build once, run once."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.grid, self.prop, self.weights, self.policy, self.model = config.validate()
        seed = config.sim.seed
        self._rng_traffic = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        self._rng_beacons = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        self.traffic = TrafficProcess(self.model, self.grid, self._rng_traffic, speed_mps=config.traffic.speed_mps)
        self._footprints = FootprintCache(self.grid, self.prop)
        # _counts[i, k - 1]: active units reaching usable cell i at class >= k (see reach_levels).
        self._counts = np.zeros((self.grid.usable_count, 5), dtype=np.int32)
        self._counts_changed = True  # since the last metrics sample
        self._cell_area = self.grid.cell_size_m**2

        self._vehicles: dict[int, Vehicle] = {}  # parked cars, in parking order
        self._learning: dict[int, tuple[Vehicle, CoverageMapBuilder]] = {}
        self._active: dict[int, float] = {}  # serving unit -> activation time, in activation order
        self._learned: dict[int, CoverageMap] = {}
        self._pending: deque[int] = deque()
        self._departures: list[tuple[float, int, Vehicle]] = []  # heap of (due time, vid, parked car)

        self.metrics: list[MetricsSample] = []
        self.lifetimes: list[RsuLifetimeRecord] = []
        self.commands: list[CommandRecord] = []
        self.message_counts = {
            KIND_CAM: 0,
            KIND_MAP_REQUEST: 0,
            KIND_MAP_RESPONSE: 0,
            KIND_ROLE_ASSIGN: 0,
            KIND_ROLE_REVOKE: 0,
        }
        self.parking_events = 0
        self.assignments = 0
        self.decisions = 0
        self._ran = False

    def run(self) -> RunResult:
        if self._ran:
            raise RuntimeError("Simulation.run is single-use; build a new Simulation to run again")
        self._ran = True
        duration = int(round(self.config.sim.duration_s))
        for t_i in range(duration):
            self._tick(float(t_i))
        return RunResult(
            metrics=self.metrics,
            lifetimes=self.lifetimes,
            commands=self.commands,
            message_counts=dict(self.message_counts),
            parking_events=self.parking_events,
            assignments=self.assignments,
            decisions=self.decisions,
            active_at_end=len(self._active),
        )

    # tick phases

    def _tick(self, t: float) -> None:
        self._phase_traffic(t)
        self._promote_learners(t)
        self._phase_beacons(t)
        self._phase_forced_revocations(t)
        self._phase_decision(t)
        self._phase_metrics(t)

    def _phase_traffic(self, t: float) -> None:
        departures = self._departures
        for v in self.traffic.tick(t):
            self.parking_events += 1
            self._vehicles[v.vid] = v
            self._learning[v.vid] = (v, CoverageMapBuilder(v.vid))
            heapq.heappush(departures, (v.parked_at + v.planned_duration_s, v.vid, v))
        while departures and should_depart(departures[0][2], t):
            v = heapq.heappop(departures)[2]
            if v.vid in self._active:
                self._revoke(v.vid, t, CAUSE_DEPARTURE)
            del self._vehicles[v.vid]
            self._learning.pop(v.vid, None)
            self._learned.pop(v.vid, None)

    def _promote_learners(self, t: float) -> None:
        learn_s = self.config.decision.learning_period_s
        done = [vid for vid, (v, _) in self._learning.items() if t - v.parked_at >= learn_s]
        for vid in done:
            v, builder = self._learning.pop(vid)
            learned = builder.finalize_coverage(self.config.maps.min_samples)
            learned.cells[v.cell] = 5
            self._learned[vid] = learned
            self._pending.append(vid)

    def _phase_beacons(self, t: float) -> None:
        movers = self.traffic.moving
        self.message_counts[KIND_CAM] += len(movers)
        if not movers or not self._learning:
            return
        mover_cells = [v.cell for v in movers]
        at = [self._footprints.index[c] for c in mover_cells]
        learners = list(self._learning.values())
        # classes[i, j]: class at which learner i hears mover j (0: out of reach).
        classes = np.array([self._footprints.footprint(v.cell) for v, _ in learners]).take(at, axis=1)
        # Row-major: learner by learner, movers in order, one draw for the tick.
        li, mi = np.nonzero(classes)
        if not li.size:
            return
        rssis = sample_rssi_many(classes[li, mi], self.config.radio.noise_sd, self._rng_beacons)
        for i, j, rssi in zip(li.tolist(), mi.tolist(), rssis.tolist()):
            learners[i][1].record(mover_cells[j], rssi)

    def _phase_forced_revocations(self, t: float) -> None:
        # Units join _active as they activate, so it is ordered by activation
        # time and the units due for a stop are a prefix of it.
        while self._active:
            vid, since = next(iter(self._active.items()))
            if t - since < self.policy.max_time_s:
                return
            self._revoke(vid, t, CAUSE_FORCED)

    def _phase_decision(self, t: float) -> None:
        while self._pending:
            vid = self._pending.popleft()
            maker = self._vehicles.get(vid)
            if maker is None or vid in self._active:
                continue
            if self.config.sim.always_grow:
                self._apply_commands(t, vid, (RoleCommand("assign", vid),), one_hop=set())
            else:
                pool = self._gather_pool(maker, t)
                decision = decide(pool, self.weights)
                one_hop = {n.entity_id for n in pool.neighbors}
                self._apply_commands(t, vid, decision.commands, one_hop)
            self.decisions += 1
            return

    def _phase_metrics(self, t: float) -> None:
        if self._counts_changed:
            sample = self._compute_metrics(t)
            self._counts_changed = False
        else:
            sample = dataclasses.replace(self.metrics[-1], t=t)
        self.metrics.append(sample)
        if int(t) % 100 == 0:
            self._verify_ledger(sample, t)

    # decision support

    def _gather_pool(self, maker: Vehicle, t: float) -> CandidatePool:
        """Active units in reach of the maker (one hop) and of those (second
        hop). The maker is never active when it decides, so neither holds it."""
        fps = self._footprints
        ids = list(self._active)
        at = [fps.index[self._vehicles[vid].cell] for vid in ids]

        def reached_from(cell: Cell) -> set[int]:
            return {ids[i] for i in np.flatnonzero(fps.footprint(cell).take(at)).tolist()}

        one_hop = sorted(reached_from(maker.cell))
        second: set[int] = set()
        for nid in one_hop:
            second |= reached_from(self._vehicles[nid].cell)
        second.difference_update(one_hop)
        self.message_counts[KIND_MAP_REQUEST] += len(one_hop)
        self.message_counts[KIND_MAP_RESPONSE] += len(one_hop)
        return CandidatePool(
            maker_id=maker.vid,
            maker_map=self._learned[maker.vid],
            neighbors=tuple(
                ActiveRsu(nid, self._learned[nid], battery_indicator(t - self._active[nid], self.policy))
                for nid in one_hop
            ),
            second_hop=tuple(self._learned[mid] for mid in sorted(second)),
        )

    def _apply_commands(
        self, t: float, maker_id: int, commands: Sequence[RoleCommand], one_hop: set[int]
    ) -> None:
        """A decision assigns only its maker and revokes only the maker's
        one-hop neighbors; a command beyond that reach raises RuntimeError."""
        for cmd in commands:
            if cmd.verb == "assign":
                if cmd.target_id != maker_id:
                    raise RuntimeError("decision tried to assign an entity other than the maker")
                self._activate(cmd.target_id, t)
                self.message_counts[KIND_ROLE_ASSIGN] += 1
            else:
                if cmd.target_id not in one_hop:
                    raise RuntimeError("decision tried to revoke outside its one-hop neighbors")
                self._revoke(cmd.target_id, t, CAUSE_DECISION)
                self.message_counts[KIND_ROLE_REVOKE] += 1
            self.commands.append(CommandRecord(t, maker_id, cmd.verb, cmd.target_id))

    # role bookkeeping

    def _activate(self, vid: int, t: float) -> None:
        self._active[vid] = t
        self._counts += reach_levels(self._footprints.footprint(self._vehicles[vid].cell))
        self._counts_changed = True
        self.assignments += 1

    def _revoke(self, vid: int, t: float, cause: str) -> None:
        self.lifetimes.append(RsuLifetimeRecord(vid, self._active.pop(vid), t, cause))
        self._counts -= reach_levels(self._footprints.footprint(self._vehicles[vid].cell))
        self._counts_changed = True

    # metrics

    def _compute_metrics(self, t: float) -> MetricsSample:
        n_cov, best_total, contributors = (int(x) for x in merged_totals(self._counts))
        n_usable = self._counts.shape[0]
        n_active = len(self._active)
        mean_signal = best_total / n_cov if n_cov else 0.0
        mean_sat = contributors / n_cov if n_cov else 0.0
        area = n_cov * self._cell_area / n_active if n_active else 0.0
        return MetricsSample(
            t=t,
            active_rsus=n_active,
            coverage_pct=n_cov / n_usable,
            mean_signal=mean_signal,
            mean_saturation=mean_sat,
            area_per_rsu_m2=area,
        )

    def _verify_ledger(self, sample: MetricsSample, t: float) -> None:
        """Recompute the coverage tallies and the tick's sample from scratch.

        Both must match exactly: the tallies the ledger, and the sample the
        one _phase_metrics recorded, which may be a reused earlier sample.
        """
        cells = [self._vehicles[vid].cell for vid in self._active]
        rows = np.array([self._footprints.footprint(cell) for cell in cells], dtype=np.int8)
        rows = rows.reshape(len(self._active), self.grid.usable_count)
        recount = reach_levels(rows).sum(axis=0, dtype=np.int32)
        if not np.array_equal(recount, self._counts):
            raise RuntimeError(f"coverage ledger out of sync at t={t}")
        again = self._compute_metrics(t)
        if again != sample:
            raise RuntimeError(f"metrics recomputation mismatch at t={t}")


def run(config: RunConfig) -> RunResult:
    """Build a simulation from the config and run it to completion."""
    return Simulation(config).run()


def steady_state_stats(metrics: Sequence[MetricsSample], discard_s: float) -> SteadyStateSummary:
    """Mean and standard deviation per figure after dropping the transient."""
    kept = [m for m in metrics if m.t >= discard_s]
    if not kept:
        raise ValueError(f"no metrics samples at or after discard_s={discard_s}")
    return SteadyStateSummary(
        len(kept), **{name: StatPair.of([getattr(m, name) for m in kept]) for name in STEADY_METRICS}
    )


def pooled_stats(summaries: Sequence[SteadyStateSummary]) -> dict[str, StatPair]:
    """Per figure, in STEADY_METRICS order: mean and spread of the steady means of runs of one setting."""
    return {name: StatPair.of([getattr(s, name).mean for s in summaries]) for name in STEADY_METRICS}


def _warmed_up_parked_cells(traffic: TrafficProcess, discard_s: float) -> list[Cell]:
    """Cells of the cars the traffic leaves parked after discard_s, in parking order.

    Runs the simulation's traffic alone (no radio, no decisions) from t=0
    for the discard window, so the snapshot reflects where vehicles actually
    park, including the extra weight busy cells such as intersections
    receive. Departures draw nothing and parked cars never move, so the cars
    left are the parked ones not yet due at the last tick.
    """
    n = max(1, int(round(discard_s)))
    parked = [v for tick in range(n) for v in traffic.tick(float(tick))]
    return [v.cell for v in parked if not should_depart(v, n - 1)]


def random_assignment_bounds(
    config: RunConfig,
    num_samples: int,
    rng: np.random.Generator | None = None,
) -> BoundsResult:
    """Explore the (mean signal, mean saturation) plane by random assignment.

    The assignable population is a parked-car snapshot produced by the
    config's own traffic process (capped at bounds_fill_count cars); each
    sample activates a uniformly random number of them at random membership
    and measures the resulting network. Empty draws carry no defined means;
    they are skipped and counted. An invalid config raises
    ConfigurationError naming the field, as RunConfig.validate does; a
    negative num_samples raises ValueError.
    """
    if num_samples < 0:
        raise ValueError(f"num_samples must be non-negative, got {num_samples}")
    grid, prop, _, _, model = config.validate()
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence([config.sim.seed, 2]))
    cache = FootprintCache(grid, prop)
    traffic = TrafficProcess(model, grid, rng, speed_mps=config.traffic.speed_mps)
    fill_cells = _warmed_up_parked_cells(traffic, config.sim.discard_s)
    if not fill_cells:
        raise ConfigurationError(
            "parking process left no parked vehicles to assign; "
            "check traffic.arrival_rate_vps and sim.discard_s"
        )
    if len(fill_cells) > config.sim.bounds_fill_count:
        keep = rng.choice(len(fill_cells), size=config.sim.bounds_fill_count, replace=False)
        fill_cells = [fill_cells[int(i)] for i in sorted(keep)]
    n_cars = len(fill_cells)
    # Cars parked on one cell share its footprint row, so the merge runs
    # over distinct cells.
    slot: dict[Cell, int] = {}
    car_at = np.array([slot.setdefault(cell, len(slot)) for cell in fill_cells], dtype=np.intp)
    rows = np.array([cache.footprint(cell) for cell in slot])
    n_distinct, n_cells = rows.shape
    counts = union_counts(level_columns(rows), [n_cells])
    footprint_sizes = np.count_nonzero(rows, axis=1)

    samples: list[tuple[float, float]] = []
    skipped = 0
    batch_size = 1024
    batch: list[np.ndarray] = []

    def flush() -> None:
        n = len(batch)
        sizes = np.array([len(c) for c in batch])
        flat = car_at[np.concatenate(batch)]
        contributors = np.add.reduceat(footprint_sizes[flat], np.cumsum(sizes) - sizes)
        # picked[d, s]: sample s chose a car on distinct cell d. The flat
        # index is built in place: it holds every chosen car of the batch.
        flat *= n
        flat += np.repeat(np.arange(n), sizes)
        picked = np.bincount(flat, minlength=n_distinct * n).reshape(n_distinct, n) > 0
        covered, higher = counts(picked)
        samples.extend(zip(((covered + higher) / covered).tolist(), (contributors / covered).tolist()))
        batch.clear()

    for _ in range(num_samples):
        k = int(rng.integers(0, n_cars + 1))
        if k == 0:
            skipped += 1
            continue
        batch.append(rng.choice(n_cars, size=k, replace=False))
        if len(batch) == batch_size:
            flush()
    if batch:
        flush()
    return BoundsResult(samples=samples, skipped=skipped, fill_cells=fill_cells)


# wire formats


def write_metrics_csv(metrics: Iterable[MetricsSample], path) -> None:
    with open(path, "w") as fh:
        fh.write(METRICS_HEADER + "\n")
        for m in metrics:
            fh.write(
                f"{m.t:.0f},{m.active_rsus},{m.coverage_pct:.6f},"
                f"{m.mean_signal:.6f},{m.mean_saturation:.6f},{m.area_per_rsu_m2:.3f}\n"
            )


def write_lifetimes_csv(records: Iterable[RsuLifetimeRecord], path) -> None:
    with open(path, "w") as fh:
        fh.write(LIFETIMES_HEADER + "\n")
        for r in records:
            fh.write(f"{r.entity_id},{r.assigned_at:.0f},{r.revoked_at:.0f},{r.cause}\n")


def write_commands_csv(commands: Iterable[CommandRecord], path) -> None:
    with open(path, "w") as fh:
        fh.write(COMMANDS_HEADER + "\n")
        for c in commands:
            fh.write(f"{c.time_s:.0f},{c.maker_id},{c.verb},{c.target_id}\n")


def write_bounds_csv(samples: Iterable[tuple[float, float]], path) -> None:
    with open(path, "w") as fh:
        fh.write(BOUNDS_HEADER + "\n")
        for sig, sat in samples:
            fh.write(f"{sig:.6f},{sat:.6f}\n")


def write_manifest(
    config: RunConfig, result: RunResult | None, path, extra: dict | None = None
) -> None:
    from . import __version__

    payload = {
        "package_version": __version__,
        "seed": config.sim.seed,
        "config_digest": config.digest(),
        "config": {k: str(v) for k, v in config.flat_items().items()},
    }
    if result is not None:
        payload["message_counts"] = result.message_counts
        payload["parking_events"] = result.parking_events
        payload["assignments"] = result.assignments
        payload["decisions"] = result.decisions
    if extra:
        payload.update(extra)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
