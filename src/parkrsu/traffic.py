"""Vehicle arrivals, road mobility, and the parking process.

Vehicles enter at the city border, wander the road lattice at constant
speed, and eventually park on the cell they are in. Two parking regimes
exist: a uniform one (Poisson arrivals, exponential parking duration) and
a day profile distributing a fixed daily budget of parking events over 24
hourly classes with per-hour lognormal durations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, MalformedLineError, open_text
from .grid import Cell, CityGrid

DEFAULT_SPEED_MPS = 8.0

UNIFORM = "uniform"
DAY_PROFILE = "day_profile"

# Built-in day profile: one (weight, median_s, sigma) row per hour.
# Morning arrivals skew toward long-term (work-day) parking, midday rows
# model short-stay churn, evening arrivals mostly stay overnight.
DEFAULT_DAY_PROFILE: tuple[tuple[float, float, float], ...] = (
    (0.010, 28800.0, 0.5),
    (0.008, 28800.0, 0.5),
    (0.006, 28800.0, 0.5),
    (0.006, 28800.0, 0.5),
    (0.008, 25200.0, 0.5),
    (0.015, 23400.0, 0.5),
    (0.040, 28800.0, 0.4),
    (0.075, 30600.0, 0.4),
    (0.090, 28800.0, 0.4),
    (0.075, 14400.0, 0.6),
    (0.060, 5400.0, 0.8),
    (0.065, 3600.0, 0.9),
    (0.070, 3600.0, 0.9),
    (0.065, 4500.0, 0.9),
    (0.060, 5400.0, 0.8),
    (0.055, 7200.0, 0.7),
    (0.050, 10800.0, 0.6),
    (0.055, 21600.0, 0.5),
    (0.050, 28800.0, 0.5),
    (0.040, 32400.0, 0.5),
    (0.030, 36000.0, 0.5),
    (0.025, 36000.0, 0.5),
    (0.022, 32400.0, 0.5),
    (0.020, 30600.0, 0.5),
)


@dataclass
class Vehicle:
    """A car on the road, or parked once parked_at is set; it never moves again."""

    vid: int
    x_m: float
    y_m: float
    cell: Cell
    target: Cell | None = None
    came_from: Cell | None = None
    parked_at: float | None = None
    planned_duration_s: float | None = None


def profile_fields(profile: Sequence[tuple[float, float, float]]) -> dict[str, tuple]:
    """ParkingModel's hourly_weights (scaled to sum to 1) and duration_law for a day profile.

    A non-positive weight sum is passed on unscaled, for ParkingModel to reject.
    """
    total_w = sum(w for w, _, _ in profile)
    if not total_w > 0:
        total_w = 1.0
    return dict(
        hourly_weights=tuple(w / total_w for w, _, _ in profile),
        duration_law=tuple((m, s) for _, m, s in profile),
    )


@dataclass(frozen=True)
class ParkingModel:
    """Arrival and parking regime; exactly one mode's fields are consulted, all are checked.

    Uniform mode: Poisson arrivals at arrival_rate_vps, a per-second parking
    hazard tuned so the moving population settles at
    target_moving_vehicles, and exponential durations of mean
    mean_duration_s. Day-profile mode: daily_total arrivals apportioned by
    hourly_weights, each cruising for an exponential time of mean
    cruise_mean_s before parking with a lognormal duration from the
    arrival hour's (median_s, sigma) law.
    """

    mode: str = UNIFORM
    arrival_rate_vps: float = 0.5
    target_moving_vehicles: float = 55.0
    mean_duration_s: float = 3600.0
    daily_total: int = 4000
    cruise_mean_s: float = 120.0
    hourly_weights: tuple[float, ...] = profile_fields(DEFAULT_DAY_PROFILE)["hourly_weights"]
    duration_law: tuple[tuple[float, float], ...] = profile_fields(DEFAULT_DAY_PROFILE)["duration_law"]

    def __post_init__(self):
        if self.mode not in (UNIFORM, DAY_PROFILE):
            raise ConfigurationError(f"traffic.mode must be {UNIFORM!r} or {DAY_PROFILE!r}")
        if not 0 <= self.arrival_rate_vps < math.inf:
            raise ConfigurationError("traffic.arrival_rate_vps must be non-negative and finite")
        for name in ("target_moving_vehicles", "mean_duration_s", "cruise_mean_s"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigurationError(f"traffic.{name} must be positive and finite")
        if self.daily_total < 0:
            raise ConfigurationError("traffic.daily_total must be non-negative")
        if len(self.hourly_weights) != 24 or len(self.duration_law) != 24:
            raise ConfigurationError("day profile requires 24 hourly rows")
        if not all(0 <= w < math.inf for w in self.hourly_weights) or not sum(self.hourly_weights) > 0:
            raise ConfigurationError("hourly_weights must be finite and non-negative with positive sum")
        if not all(0 < m < math.inf and 0 <= s < math.inf for m, s in self.duration_law):
            raise ConfigurationError("duration_law rows need finite median_s > 0 and sigma >= 0")

    @property
    def park_hazard_per_s(self) -> float:
        if self.mode == UNIFORM:
            if self.arrival_rate_vps == 0:
                return 0.0
            return self.arrival_rate_vps / self.target_moving_vehicles
        return 1.0 / self.cruise_mean_s


def load_day_profile(path) -> tuple[tuple[float, float, float], ...]:
    """Read 24 ``hour,weight,median_s,sigma`` lines into profile rows."""
    rows: dict[int, tuple[float, float, float]] = {}
    with open_text(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("hour"):
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise MalformedLineError(f"{path}: line {line_no}: expected hour,weight,median_s,sigma")
            try:
                hour = int(parts[0])
                row = (float(parts[1]), float(parts[2]), float(parts[3]))
            except ValueError:
                raise MalformedLineError(f"{path}: line {line_no}: malformed field") from None
            if not 0 <= hour <= 23:
                raise MalformedLineError(f"{path}: line {line_no}: hour {hour} outside 0..23")
            if hour in rows:
                raise MalformedLineError(f"{path}: line {line_no}: duplicate hour {hour}")
            rows[hour] = row
    if len(rows) != 24:
        raise ConfigurationError(f"{path}: day profile needs all 24 hours, found {len(rows)}")
    return tuple(rows[h] for h in range(24))


def day_profile_model(
    daily_total: int,
    profile: Sequence[tuple[float, float, float]] = DEFAULT_DAY_PROFILE,
    cruise_mean_s: float = ParkingModel.cruise_mean_s,
) -> ParkingModel:
    return ParkingModel(
        mode=DAY_PROFILE, daily_total=daily_total, cruise_mean_s=cruise_mean_s, **profile_fields(profile)
    )


def apportion_daily_counts(daily_total: int, weights: Sequence[float]) -> list[int]:
    """Largest-remainder split of the daily budget over the hourly weights.

    The result sums exactly to daily_total, so realized parking events track
    the budget to within the handful of vehicles still cruising at the end
    of the day.
    """
    total_w = sum(weights)
    quotas = [daily_total * w / total_w for w in weights]
    counts = [int(math.floor(q)) for q in quotas]
    leftover = daily_total - sum(counts)
    order = sorted(range(len(weights)), key=lambda h: (counts[h] - quotas[h], h))
    for h in order[:leftover]:
        counts[h] += 1
    return counts


def draw_duration(model: ParkingModel, t: float, rng: np.random.Generator) -> float:
    if model.mode == UNIFORM:
        return float(rng.exponential(model.mean_duration_s))
    hour = int(t // 3600) % 24
    median, sigma = model.duration_law[hour]
    return float(rng.lognormal(math.log(median), sigma))


def should_depart(v: Vehicle, t: float) -> bool:
    return v.parked_at is not None and t >= v.parked_at + v.planned_duration_s


def check_speed(speed_mps: float, grid: CityGrid) -> None:
    """Reject a speed that is not positive or that crosses more than the grid's longer side per tick.

    Far faster, a step's distance budget stops shrinking in floating point
    and TrafficProcess.step never returns.
    """
    if not speed_mps > 0:
        raise ConfigurationError("traffic.speed_mps must be positive")
    side = max(grid.width, grid.height)
    if speed_mps > side * grid.cell_size_m:
        raise ConfigurationError(
            f"traffic.speed_mps must be at most the city's longer side per tick ({side} cells of {grid.cell_size_m:g} m)"
        )


class TrafficProcess:
    """Single-writer owner of arrivals, ids, the movers, the mobility random stream and the traffic rules.

    The road graph is fixed per grid, so construction tables each usable
    cell's usable 4-neighbors (+x, -x, +y, -y) and center; stepping and
    parking make no grid query. tick fixes the order of a tick's draws.
    """

    def __init__(
        self, model: ParkingModel, grid: CityGrid, rng: np.random.Generator, speed_mps: float = DEFAULT_SPEED_MPS
    ):
        check_speed(speed_mps, grid)
        self.model = model
        self.grid = grid
        self.rng = rng
        self.speed_mps = speed_mps
        self._next_id = 1
        self.moving: list[Vehicle] = []  # cars on the road, in spawn order
        self._border = grid.border_cells
        if not self._border:
            raise ConfigurationError("grid has no usable border cells to spawn on")
        road = {c: c for c in grid.usable_cells}
        get = road.get
        self._roads: dict[Cell, tuple[Cell, ...]] = {}
        self._center: dict[Cell, tuple[float, float]] = {}
        for c in road:
            x, y = c
            self._roads[c] = tuple(filter(None, (get((x + 1, y)), get((x - 1, y)), get((x, y + 1)), get((x, y - 1)))))
            self._center[c] = grid.center_of(c)
        self._park_p = min(1.0, model.park_hazard_per_s)
        self._day_times: np.ndarray | None = None
        self._day_ptr = 0
        if model.mode == DAY_PROFILE:
            counts = apportion_daily_counts(model.daily_total, model.hourly_weights)
            chunks = [
                np.sort(rng.uniform(h * 3600.0, (h + 1) * 3600.0, size=n)) for h, n in enumerate(counts)
            ]
            self._day_times = np.concatenate(chunks) if chunks else np.empty(0)

    def _spawn_count(self, t: float) -> int:
        if self.model.mode == UNIFORM:
            lam = self.model.arrival_rate_vps
            return int(self.rng.poisson(lam)) if lam > 0 else 0
        times = self._day_times
        n = 0
        while self._day_ptr < len(times) and times[self._day_ptr] < t + 1.0:
            if times[self._day_ptr] >= t:
                n += 1
            self._day_ptr += 1
        return n

    def _next_cell(self, cell: Cell, came_from: Cell | None) -> Cell:
        """A uniform draw over the road neighbors but came_from; else back to came_from, or stay."""
        options = [c for c in self._roads[cell] if c != came_from]
        if not options:
            return cell if came_from is None else came_from
        if len(options) == 1:
            return options[0]
        return options[int(self.rng.integers(len(options)))]

    def tick(self, t: float) -> list[Vehicle]:
        """One tick of traffic: arrivals join the road, every mover steps, then
        every mover draws one parking trial. Returns the cars parked this tick,
        which leave moving."""
        self.moving.extend(self.spawn(t))
        for v in self.moving:
            self.step(v)
        parked = [v for v in self.moving if self.maybe_park(v, t)]
        if parked:
            self.moving[:] = [v for v in self.moving if v.parked_at is None]
        return parked

    def spawn(self, t: float) -> list[Vehicle]:
        """New vehicles for the one-second tick at t, placed on random usable border cells."""
        out = []
        for _ in range(self._spawn_count(t)):
            cell = self._border[int(self.rng.integers(len(self._border)))]
            x, y = self._center[cell]
            v = Vehicle(vid=self._next_id, x_m=x, y_m=y, cell=cell)
            self._next_id += 1
            v.target = self._next_cell(cell, None)
            out.append(v)
        return out

    def step(self, v: Vehicle) -> None:
        """Advance a moving vehicle one second along cell-center road segments.

        At each cell hand-off the next cell is drawn uniformly from the road
        neighbors, never the one just left unless the road dead-ends.
        """
        if v.parked_at is not None:
            return
        if v.target is None or v.target == v.cell:
            v.target = self._next_cell(v.cell, v.came_from)
            if v.target == v.cell:
                return
        budget = self.speed_mps
        while budget > 0:
            tx, ty = self._center[v.target]
            dist = math.hypot(tx - v.x_m, ty - v.y_m)
            if dist > budget:
                v.x_m += (tx - v.x_m) / dist * budget
                v.y_m += (ty - v.y_m) / dist * budget
                break
            v.x_m, v.y_m = tx, ty
            budget -= dist
            v.came_from = v.cell
            v.cell = v.target
            v.target = self._next_cell(v.cell, v.came_from)
            if v.target == v.cell:
                break

    def maybe_park(self, v: Vehicle, t: float) -> bool:
        """Bernoulli parking trial for one moving vehicle over one tick (one second)."""
        if v.parked_at is not None or self._park_p <= 0 or self.rng.random() >= self._park_p:
            return False
        v.parked_at = t
        v.planned_duration_s = draw_duration(self.model, t, self.rng)
        return True
