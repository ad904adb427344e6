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

from .errors import ConfigurationError, MalformedLineError
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
    speed_mps: float
    cell: Cell
    target: Cell | None = None
    came_from: Cell | None = None
    parked_at: float | None = None
    planned_duration_s: float | None = None


@dataclass(frozen=True)
class ParkingModel:
    """Arrival and parking regime; exactly one mode's fields are consulted.

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
    hourly_weights: tuple[float, ...] = tuple(w for w, _, _ in DEFAULT_DAY_PROFILE)
    duration_law: tuple[tuple[float, float], ...] = tuple((m, s) for _, m, s in DEFAULT_DAY_PROFILE)

    def __post_init__(self):
        if self.mode not in (UNIFORM, DAY_PROFILE):
            raise ConfigurationError(f"parking mode must be {UNIFORM!r} or {DAY_PROFILE!r}")
        if self.mode == UNIFORM:
            if self.arrival_rate_vps < 0:
                raise ConfigurationError("arrival_rate_vps must be non-negative")
            if self.target_moving_vehicles <= 0:
                raise ConfigurationError("target_moving_vehicles must be positive")
            if self.mean_duration_s <= 0:
                raise ConfigurationError("mean_duration_s must be positive")
        else:
            if self.daily_total < 0:
                raise ConfigurationError("daily_total must be non-negative")
            if self.cruise_mean_s <= 0:
                raise ConfigurationError("cruise_mean_s must be positive")
            if len(self.hourly_weights) != 24 or len(self.duration_law) != 24:
                raise ConfigurationError("day profile requires 24 hourly rows")
            if any(w < 0 for w in self.hourly_weights) or sum(self.hourly_weights) <= 0:
                raise ConfigurationError("hourly_weights must be non-negative with positive sum")
            if any(m <= 0 or s < 0 for m, s in self.duration_law):
                raise ConfigurationError("duration_law rows need median_s > 0 and sigma >= 0")

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
    with open(path) as fh:
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
    cruise_mean_s: float = 120.0,
) -> ParkingModel:
    total_w = sum(w for w, _, _ in profile)
    return ParkingModel(
        mode=DAY_PROFILE,
        daily_total=daily_total,
        cruise_mean_s=cruise_mean_s,
        hourly_weights=tuple(w / total_w for w, _, _ in profile),
        duration_law=tuple((m, s) for _, m, s in profile),
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


def _pick_next_cell(grid: CityGrid, current: Cell, came_from: Cell | None, rng: np.random.Generator) -> Cell:
    options = [c for c in grid.neighbors4(current) if grid.is_usable(c) and c != came_from]
    if not options:
        if came_from is not None and grid.is_usable(came_from):
            return came_from
        return current
    if len(options) == 1:
        return options[0]
    return options[int(rng.integers(len(options)))]


def step_vehicle(v: Vehicle, grid: CityGrid, rng: np.random.Generator) -> None:
    """Advance a moving vehicle one second along cell-center road segments.

    At each cell hand-off the next cell is drawn uniformly from the usable
    neighbors, never the one just left unless the road dead-ends.
    """
    if v.parked_at is not None:
        return
    budget = v.speed_mps
    if v.target is None or v.target == v.cell:
        v.target = _pick_next_cell(grid, v.cell, v.came_from, rng)
        if v.target == v.cell:
            return
    while budget > 0:
        tx, ty = grid.center_of(v.target)
        dist = math.hypot(tx - v.x_m, ty - v.y_m)
        if dist > budget:
            v.x_m += (tx - v.x_m) / dist * budget
            v.y_m += (ty - v.y_m) / dist * budget
            break
        v.x_m, v.y_m = tx, ty
        budget -= dist
        v.came_from = v.cell
        v.cell = v.target
        v.target = _pick_next_cell(grid, v.cell, v.came_from, rng)
        if v.target == v.cell:
            break


def draw_duration(model: ParkingModel, t: float, rng: np.random.Generator) -> float:
    if model.mode == UNIFORM:
        return float(rng.exponential(model.mean_duration_s))
    hour = int(t // 3600) % 24
    median, sigma = model.duration_law[hour]
    return float(rng.lognormal(math.log(median), sigma))


def maybe_park(v: Vehicle, model: ParkingModel, t: float, rng: np.random.Generator) -> bool:
    """Bernoulli parking trial for one moving vehicle over one tick (one second)."""
    if v.parked_at is not None:
        return False
    p = min(1.0, model.park_hazard_per_s)
    if p <= 0 or rng.random() >= p:
        return False
    v.parked_at = t
    v.planned_duration_s = draw_duration(model, t, rng)
    return True


def should_depart(v: Vehicle, t: float) -> bool:
    return v.parked_at is not None and t >= v.parked_at + v.planned_duration_s


class TrafficProcess:
    """Single-writer owner of arrivals, ids, and the mobility random stream."""

    def __init__(
        self,
        model: ParkingModel,
        grid: CityGrid,
        rng: np.random.Generator,
        speed_mps: float = DEFAULT_SPEED_MPS,
    ):
        self.model = model
        self.grid = grid
        self.rng = rng
        self.speed_mps = speed_mps
        self._next_id = 1
        self._border = grid.border_cells
        if not self._border:
            raise ConfigurationError("grid has no usable border cells to spawn on")
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

    def spawn(self, t: float) -> list[Vehicle]:
        """New vehicles for the one-second tick at t, placed on random usable border cells."""
        out = []
        for _ in range(self._spawn_count(t)):
            cell = self._border[int(self.rng.integers(len(self._border)))]
            x, y = self.grid.center_of(cell)
            v = Vehicle(vid=self._next_id, x_m=x, y_m=y, speed_mps=self.speed_mps, cell=cell)
            self._next_id += 1
            v.target = _pick_next_cell(self.grid, cell, None, self.rng)
            out.append(v)
        return out

    def step(self, v: Vehicle) -> None:
        step_vehicle(v, self.grid, self.rng)

    def maybe_park(self, v: Vehicle, t: float) -> bool:
        return maybe_park(v, self.model, t, self.rng)
