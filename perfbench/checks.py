"""Correctness checks run on each workload's outputs after the timed region.

None of them compares against stored copies of earlier output. Each check
rebuilds a quantity from a different part of the result (the command and
lifetime logs, the config, the grid) or tests a bound that follows from the
model's definitions. Every function returns a list of failure messages;
an empty list means the check passed.
"""

from __future__ import annotations

import math

import numpy as np

from parkrsu.config import build_grid, build_parking_model
from parkrsu.sim import CAUSE_DECISION, CAUSE_FORCED, KIND_ROLE_ASSIGN, KIND_ROLE_REVOKE
from parkrsu.traffic import UNIFORM

# Width of the statistical bands, in standard deviations. Five keeps the
# chance of a false alarm on any one seed below one in a million.
BAND_SD = 5.0
REL_TOL = 1e-9
# The day-profile parking check needs the whole day's arrivals.
DAY_S = 86400.0


def check_simulation(cfg, result) -> list[str]:
    """Every check on one simulation's outputs, including its traffic mode's parking check."""
    fails: list[str] = []
    metrics = result.metrics
    ticks = int(round(cfg.sim.duration_s))

    if len(metrics) != ticks:
        fails.append(f"{len(metrics)} metrics rows for {ticks} ticks")
    if any(m.t != float(i) for i, m in enumerate(metrics)):
        fails.append("metrics rows are not one per tick in order")

    fails += _check_active_rebuild(result, len(metrics))

    assigns = sum(1 for c in result.commands if c.verb == "assign")
    revokes = sum(1 for c in result.commands if c.verb == "revoke")
    role_assign = result.message_counts[KIND_ROLE_ASSIGN]
    role_revoke = result.message_counts[KIND_ROLE_REVOKE]
    if not role_assign == result.assignments == assigns:
        fails.append(
            f"role_assign {role_assign}, assignments {result.assignments}, assign commands {assigns} differ"
        )
    by_decision = sum(1 for r in result.lifetimes if r.cause == CAUSE_DECISION)
    if not role_revoke == by_decision == revokes:
        fails.append(
            f"role_revoke {role_revoke}, decision lifetimes {by_decision}, revoke commands {revokes} differ"
        )

    max_time = cfg.battery.max_time_s
    for r in result.lifetimes:
        held = r.revoked_at - r.assigned_at
        if held > max_time or held < 0:
            fails.append(f"lifetime of {r.entity_id} lasts {held} s (cap {max_time} s)")
            break
        if r.cause == CAUSE_FORCED and held != max_time:
            fails.append(f"forced revocation of {r.entity_id} after {held} s, not {max_time} s")
            break

    fails += _check_rows(cfg, metrics)
    if cfg.traffic.mode == UNIFORM:
        fails += check_uniform_parking(cfg, result)
    elif cfg.sim.duration_s >= DAY_S:
        fails += check_day_parking(cfg, result)
    return fails


def _check_active_rebuild(result, n_ticks: int) -> list[str]:
    """active_rsus(t) = grants at or before t minus lifetimes closed at or before t."""
    if n_ticks == 0:
        return []
    grants = np.zeros(n_ticks, dtype=np.int64)
    closes = np.zeros(n_ticks, dtype=np.int64)
    for c in result.commands:
        if c.verb == "assign":
            grants[int(c.time_s)] += 1
    for r in result.lifetimes:
        closes[int(r.revoked_at)] += 1
    rebuilt = np.cumsum(grants) - np.cumsum(closes)
    reported = np.fromiter((m.active_rsus for m in result.metrics), dtype=np.int64, count=n_ticks)
    bad = np.flatnonzero(rebuilt != reported)
    fails = []
    if bad.size:
        t = int(bad[0])
        fails.append(
            f"active_rsus at t={t} is {reported[t]}, commands and lifetimes give {rebuilt[t]} "
            f"({bad.size} rows differ)"
        )
    if rebuilt[-1] != result.active_at_end:
        fails.append(f"active_at_end {result.active_at_end}, commands and lifetimes give {rebuilt[-1]}")
    return fails


def _check_rows(cfg, metrics) -> list[str]:
    grid = build_grid(cfg)
    usable = len(grid.usable_cells)
    cell_area = cfg.grid.cell_size_m**2
    for m in metrics:
        covered = m.coverage_pct * usable
        if m.active_rsus:
            expected = covered * cell_area / m.active_rsus
            if not math.isclose(m.area_per_rsu_m2, expected, rel_tol=REL_TOL):
                return [f"t={m.t:g}: area_per_rsu_m2 {m.area_per_rsu_m2} != {expected}"]
        elif m.area_per_rsu_m2 != 0 or m.coverage_pct != 0:
            return [f"t={m.t:g}: no active unit but coverage {m.coverage_pct}, area {m.area_per_rsu_m2}"]
        if m.coverage_pct > 0:
            if not 1 <= m.mean_signal <= 5:
                return [f"t={m.t:g}: mean_signal {m.mean_signal} outside [1, 5]"]
            if m.mean_saturation < 1:
                return [f"t={m.t:g}: mean_saturation {m.mean_saturation} below 1"]
    return []


def uniform_parking_band(cfg) -> tuple[float, float]:
    """Band for parking events under uniform traffic.

    Arrivals are Poisson with mean arrival_rate_vps * duration_s; parking
    events trail them by the cruising population, which settles near
    target_moving_vehicles. The band is the Poisson mean +- BAND_SD standard
    deviations, widened downwards by that population.
    """
    mean = cfg.traffic.arrival_rate_vps * cfg.sim.duration_s
    half = BAND_SD * math.sqrt(mean)
    return mean - half - cfg.traffic.target_moving_vehicles, mean + half


def check_uniform_parking(cfg, result) -> list[str]:
    lo, hi = uniform_parking_band(cfg)
    if not lo <= result.parking_events <= hi:
        return [f"parking_events {result.parking_events} outside Poisson band [{lo:.0f}, {hi:.0f}]"]
    return []


def day_shortfall_limit(cfg) -> float:
    """Most vehicles that may still be cruising when a day-profile run ends.

    Vehicles of the last hour arrive at daily_total * w_23 / 3600 per second
    and cruise for cruise_mean_s on average, so about that product is still
    on the road at the end; allow BAND_SD Poisson deviations above it.
    """
    model = build_parking_model(cfg)
    last_hour_rate = cfg.traffic.daily_total * model.hourly_weights[-1] / 3600.0
    mean = last_hour_rate * cfg.traffic.cruise_mean_s
    return mean + BAND_SD * math.sqrt(mean) + 1.0


def check_day_parking(cfg, result) -> list[str]:
    total = cfg.traffic.daily_total
    short = total - result.parking_events
    limit = day_shortfall_limit(cfg)
    if short < 0:
        return [f"parking_events {result.parking_events} exceed daily_total {total}"]
    if short > limit:
        return [f"parking_events {result.parking_events} fall {short} short of {total} (limit {limit:.1f})"]
    return []


def skipped_band(requested: int, fill_cars: int) -> tuple[float, float]:
    """Binomial band for empty draws: each sample is empty with p = 1/(fill_cars+1)."""
    p = 1.0 / (fill_cars + 1)
    mean = requested * p
    half = BAND_SD * math.sqrt(requested * p * (1 - p)) + 1.0
    return mean - half, mean + half


def check_bounds(cfg, bounds, requested: int) -> list[str]:
    fails = []
    n_cars = len(bounds.fill_cells)
    if len(bounds.samples) + bounds.skipped != requested:
        fails.append(f"{len(bounds.samples)} samples + {bounds.skipped} skipped != {requested} requested")
    lo, hi = skipped_band(requested, n_cars)
    if not lo <= bounds.skipped <= hi:
        fails.append(f"{bounds.skipped} empty draws outside binomial band [{lo:.1f}, {hi:.1f}]")
    if bounds.samples:
        arr = np.asarray(bounds.samples, dtype=float)
        sig, sat = arr[:, 0], arr[:, 1]
        if not (np.all(sig >= 1) and np.all(sig <= 5)):
            fails.append(f"mean_signal outside [1, 5]: min {sig.min()}, max {sig.max()}")
        if not (np.all(sat >= 1) and np.all(sat <= n_cars)):
            fails.append(f"mean_saturation outside [1, {n_cars}]: min {sat.min()}, max {sat.max()}")
    grid = build_grid(cfg)
    bad = [c for c in bounds.fill_cells if not grid.is_usable(c)]
    if bad:
        fails.append(f"{len(bad)} fill cells are not usable, first {tuple(bad[0])}")
    return fails
