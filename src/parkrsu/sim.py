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
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import (
    RunConfig,
    build_grid,
    build_parking_model,
    build_policy,
    build_propagation,
    build_weights,
)
from .decision import (
    ActiveRsu,
    CandidatePool,
    RoleCommand,
    battery_indicator,
    decide,
    merged_totals,
    reach_levels,
)
from .errors import ConfigurationError
from .grid import Cell, CityGrid
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


@dataclass(frozen=True)
class Message:
    """Unit of in-network communication; delivery requires radio contact.

    Dense beacon traffic (cam) is tallied rather than materialized. Map
    traffic flows through _deliver, so no entity reads another's state
    except out of a delivered payload. _apply_commands counts role commands
    without a delivery; what limits their reach is its rule that a decision
    assigns only its maker and revokes only the maker's one-hop neighbors.
    """

    kind: str
    sender: int
    recipient: int | None
    payload: object = None


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


@dataclass
class SteadyStateSummary:
    n_samples: int
    active_rsus: StatPair
    coverage_pct: StatPair
    mean_signal: StatPair
    mean_saturation: StatPair
    area_per_rsu_m2: StatPair


@dataclass
class BoundsResult:
    samples: list[tuple[float, float]]
    skipped: int
    fill_cells: list[Cell]


class Simulation:
    """Owns all mutable run state; build once, run once."""

    def __init__(self, config: RunConfig):
        config.validate()
        self.config = config
        self.grid = build_grid(config)
        self.prop = build_propagation(config)
        self.weights = build_weights(config)
        self.policy = build_policy(config)
        self.model = build_parking_model(config)
        seed = config.sim.seed
        self._rng_traffic = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        self._rng_beacons = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        self.traffic = TrafficProcess(
            self.model, self.grid, self._rng_traffic, speed_mps=config.traffic.speed_mps
        )
        self._footprints = FootprintCache(self.grid, self.prop)
        # _counts[i, k - 1]: active units reaching usable cell i at class >= k (see reach_levels).
        self._counts = np.zeros((self.grid.usable_count, 5), dtype=np.int32)
        self._counts_changed = True  # since the last metrics sample
        self._cell_area = self.grid.cell_size_m**2

        self._vehicles: dict[int, Vehicle] = {}  # parked cars, in parking order
        self._moving: dict[int, Vehicle] = {}
        self._learning: dict[int, tuple[Vehicle, CoverageMapBuilder]] = {}
        self._active: dict[int, float] = {}  # serving unit -> activation time, in activation order
        self._learned: dict[int, CoverageMap] = {}
        self._pending: deque[int] = deque()
        self._departures: list[tuple[float, int, Vehicle]] = []
        self._forced: list[tuple[float, int]] = []

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

    def run(self) -> RunResult:
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
        parked, departed = _traffic_tick(self.traffic, self._moving, self._departures, t)
        for v in parked:
            self.parking_events += 1
            self._vehicles[v.vid] = v
            self._learning[v.vid] = (v, CoverageMapBuilder(v.vid))
        for v in departed:
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
            cells = dict(learned.cells)
            cells[v.cell] = 5
            self._learned[vid] = CoverageMap(vid, cells)
            self._pending.append(vid)

    def _phase_beacons(self, t: float) -> None:
        movers = self._moving
        self.message_counts[KIND_CAM] += len(movers)
        if not movers or not self._learning:
            return
        mover_cells = [v.cell for v in movers.values()]
        at = [self._footprints.index[c] for c in mover_cells]
        learners = list(self._learning.values())
        # classes[i, j]: class at which learner i hears mover j (0: out of reach).
        classes = np.array([self._footprints.row(v.cell) for v, _ in learners]).take(at, axis=1)
        # Row-major: learner by learner, movers in order, one draw for the tick.
        li, mi = np.nonzero(classes)
        if not li.size:
            return
        rssis = sample_rssi_many(classes[li, mi], self.config.radio.noise_sd, self._rng_beacons)
        for i, j, rssi in zip(li.tolist(), mi.tolist(), rssis.tolist()):
            learners[i][1].record(mover_cells[j], rssi)

    def _phase_forced_revocations(self, t: float) -> None:
        while self._forced and self._forced[0][0] <= t:
            _, vid = heapq.heappop(self._forced)
            since = self._active.get(vid)
            if since is not None and t - since >= self.policy.max_time_s:
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

    def _deliver(self, msg: Message, sender_cell: Cell, recipient_cell: Cell) -> Message | None:
        if self._footprints.footprint(sender_cell).get(recipient_cell, 0) < 1:
            return None
        self.message_counts[msg.kind] += 1
        return msg

    def _gather_pool(self, maker: Vehicle, t: float) -> CandidatePool:
        fps = self._footprints
        active = [self._vehicles[vid] for vid in self._active]
        at = [fps.index[v.cell] for v in active]

        def reached_from(cell: Cell) -> list[Vehicle]:
            """Active units in reach of cell, in activation order."""
            return [active[i] for i in np.flatnonzero(fps.row(cell).take(at)).tolist()]

        one_hop = sorted(v.vid for v in reached_from(maker.cell))
        neighbors = []
        second: dict[int, CoverageMap] = {}
        excluded = set(one_hop)
        excluded.add(maker.vid)
        for nid in one_hop:
            nveh = self._vehicles[nid]
            request = self._deliver(
                Message(KIND_MAP_REQUEST, maker.vid, nid), maker.cell, nveh.cell
            )
            if request is None:
                continue
            forwarded = [(m.vid, self._learned[m.vid]) for m in reached_from(nveh.cell) if m.vid != nid]
            battery = battery_indicator(t - self._active[nid], self.policy)
            response = self._deliver(
                Message(
                    KIND_MAP_RESPONSE,
                    nid,
                    maker.vid,
                    (self._learned[nid], battery, forwarded),
                ),
                nveh.cell,
                maker.cell,
            )
            if response is None:
                continue
            own_map, battery, forwarded = response.payload
            neighbors.append(ActiveRsu(nid, own_map, battery))
            for mid, mmap in forwarded:
                if mid not in excluded:
                    second.setdefault(mid, mmap)
        second_maps = tuple(second[mid] for mid in sorted(second))
        return CandidatePool(
            maker_id=maker.vid,
            maker_map=self._learned[maker.vid],
            neighbors=tuple(neighbors),
            second_hop=second_maps,
        )

    def _apply_commands(
        self, t: float, maker_id: int, commands: Sequence[RoleCommand], one_hop: set[int]
    ) -> None:
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
        self._counts += reach_levels(self._footprints.row(self._vehicles[vid].cell))
        self._counts_changed = True
        if not math.isinf(self.policy.max_time_s):
            heapq.heappush(self._forced, (t + self.policy.max_time_s, vid))
        self.assignments += 1

    def _revoke(self, vid: int, t: float, cause: str) -> None:
        self.lifetimes.append(RsuLifetimeRecord(vid, self._active.pop(vid), t, cause))
        self._counts -= reach_levels(self._footprints.row(self._vehicles[vid].cell))
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
        rows = np.array([self._footprints.row(cell) for cell in cells], dtype=np.int8)
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
    """Mean and standard deviation per metric after dropping the transient."""
    kept = [m for m in metrics if m.t >= discard_s]
    if not kept:
        raise ValueError(f"no metrics samples at or after discard_s={discard_s}")

    def pair(values: list[float]) -> StatPair:
        arr = np.asarray(values, dtype=float)
        lo, hi = float(arr.min()), float(arr.max())
        if lo == hi:
            # A constant series has sd exactly 0; don't let summation
            # round-off report a phantom spread.
            return StatPair(mean=lo, sd=0.0)
        return StatPair(mean=float(arr.mean()), sd=float(arr.std()))

    return SteadyStateSummary(
        n_samples=len(kept),
        active_rsus=pair([m.active_rsus for m in kept]),
        coverage_pct=pair([m.coverage_pct for m in kept]),
        mean_signal=pair([m.mean_signal for m in kept]),
        mean_saturation=pair([m.mean_saturation for m in kept]),
        area_per_rsu_m2=pair([m.area_per_rsu_m2 for m in kept]),
    )


def _traffic_tick(
    traffic: TrafficProcess,
    moving: dict[int, Vehicle],
    departures: list[tuple[float, int, Vehicle]],
    t: float,
) -> tuple[list[Vehicle], list[Vehicle]]:
    """One tick of traffic: arrivals, then every mover steps, then every mover
    draws one parking trial; parked cars enter the departures heap (due time,
    vid, car). Returns (cars parked this tick, cars departed this tick).
    """
    for v in traffic.spawn(t):
        moving[v.vid] = v
    for v in moving.values():
        traffic.step(v)
    parked = [v for v in moving.values() if traffic.maybe_park(v, t)]
    for v in parked:
        del moving[v.vid]
        heapq.heappush(departures, (v.parked_at + v.planned_duration_s, v.vid, v))
    departed = []
    while departures and should_depart(departures[0][2], t):
        departed.append(heapq.heappop(departures)[2])
    return parked, departed


def _warmed_up_parked_cells(config: RunConfig, rng: np.random.Generator, grid: CityGrid) -> list[Cell]:
    """Cells of the cars the config's own traffic leaves parked, in parking order.

    Runs the simulation's traffic lifecycle alone (no radio, no decisions)
    from t=0 for the config's discard window, so the snapshot reflects where
    vehicles actually park, including the extra weight busy cells such as
    intersections receive.
    """
    traffic = TrafficProcess(build_parking_model(config), grid, rng, speed_mps=config.traffic.speed_mps)
    moving: dict[int, Vehicle] = {}
    departures: list[tuple[float, int, Vehicle]] = []
    parked: dict[int, Vehicle] = {}
    for tick in range(max(1, int(round(config.sim.discard_s)))):
        now_parked, departed = _traffic_tick(traffic, moving, departures, float(tick))
        for v in now_parked:
            parked[v.vid] = v
        for v in departed:
            del parked[v.vid]
    return [v.cell for v in parked.values()]


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
    they are skipped and counted.
    """
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence([config.sim.seed, 2]))
    grid = build_grid(config)
    prop = build_propagation(config)
    cache = FootprintCache(grid, prop)
    fill_cells = _warmed_up_parked_cells(config, rng, grid)
    if not fill_cells:
        raise ConfigurationError(
            "parking process left no parked vehicles to assign; "
            "check traffic.arrival_rate_vps and sim.discard_s"
        )
    if len(fill_cells) > config.sim.bounds_fill_count:
        keep = rng.choice(len(fill_cells), size=config.sim.bounds_fill_count, replace=False)
        fill_cells = [fill_cells[int(i)] for i in sorted(keep)]
    n_cars = len(fill_cells)
    # Cars parked on one cell share its footprint row, so the products run
    # over distinct cells, weighted by how many chosen cars stand on each:
    # car counts times the level table are the chosen network's summed levels.
    slot: dict[Cell, int] = {}
    car_at = np.array([slot.setdefault(cell, len(slot)) for cell in fill_cells], dtype=np.intp)
    distinct = list(slot)

    rows = np.array([cache.row(cell) for cell in distinct])
    levels = reach_levels(rows).reshape(len(distinct), 5 * grid.usable_count).astype(np.float32)

    samples: list[tuple[float, float]] = []
    skipped = 0
    batch_size = 1024
    pending_rows: list[np.ndarray] = []

    def flush() -> None:
        if not pending_rows:
            return
        reached = (np.stack(pending_rows) @ levels).reshape(len(pending_rows), grid.usable_count, 5)
        n_cov, best_total, contributors = merged_totals(reached)
        mean_sig = best_total / n_cov
        mean_sat = contributors / n_cov
        samples.extend((float(a), float(b)) for a, b in zip(mean_sig, mean_sat))
        pending_rows.clear()

    for _ in range(num_samples):
        k = int(rng.integers(0, n_cars + 1))
        if k == 0:
            skipped += 1
            continue
        chosen = rng.choice(n_cars, size=k, replace=False)
        pending_rows.append(np.bincount(car_at[chosen], minlength=len(distinct)).astype(np.float32))
        if len(pending_rows) >= batch_size:
            flush()
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
