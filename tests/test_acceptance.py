"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

Every check runs the real public surface (configs, runs, bounds sampling,
log inference) at full length; nothing is stubbed or shortened below the
tolerances the criteria state. Shared scenarios are cached per config
digest so criteria that reuse the same run do not pay for it twice. The
measured numbers of each criterion that runs replace its line in
``acceptance_report.txt`` at the repository root.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np
import pytest

from parkrsu.config import RunConfig, build_grid, build_policy, build_propagation
from parkrsu.decision import (
    ActiveRsu,
    CandidatePool,
    battery_indicator,
    compute_attributes,
    enumerate_solutions,
)
from parkrsu.grid import Cell
from parkrsu.maps import CoverageMap, CoverageMapBuilder
from parkrsu.radio import synthesize_beacon_log
from parkrsu.sim import (
    CAUSE_FORCED,
    pooled_stats,
    random_assignment_bounds,
    run,
    steady_state_stats,
    write_metrics_csv,
)

from oracles import oracle_attributes, solution_count

REPORT_PATH = Path(__file__).resolve().parent.parent / "acceptance_report.txt"
_REPORT_LINES: list[str] = []

DURATION_2H = 7200.0
DURATION_8H = 28800.0
DURATION_DAY = 86400.0
SWEEP_SEEDS = (1, 2, 3)
ENVELOPE_BIN_WIDTH = 0.25


def report(criterion: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {criterion:02d}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    _REPORT_LINES.append(line)
    assert ok, line


@pytest.fixture(scope="module", autouse=True)
def write_report():
    """Replace the report lines of the criteria that ran; keep the others."""
    _REPORT_LINES.clear()
    yield
    kept = REPORT_PATH.read_text().splitlines() if REPORT_PATH.exists() else []
    # Keyed by "CRITERION NN", so sorting the keys restores criterion order.
    lines = {line[:12]: line for line in kept + _REPORT_LINES if line.startswith("CRITERION ")}
    REPORT_PATH.write_text("\n".join(lines[key] for key in sorted(lines)) + "\n")


@pytest.fixture(autouse=True)
def report_raised_criterion(request):
    """A criterion that raises before report() must not keep its previous line."""
    reported = len(_REPORT_LINES)
    yield
    if len(_REPORT_LINES) == reported:
        _REPORT_LINES.append(f"CRITERION {request.node.name[6:8]}: FAIL — raised before reporting")


@pytest.fixture(scope="module")
def runner():
    """run() + steady stats, cached by config digest for reuse across criteria."""
    cache: dict[str, tuple] = {}

    def call(cfg: RunConfig):
        key = cfg.digest()
        if key not in cache:
            result = run(cfg)
            cache[key] = (result, steady_state_stats(result.metrics, cfg.sim.discard_s))
        return cache[key]

    return call


def cfg_with(**overrides) -> RunConfig:
    overrides.setdefault("duration_s", DURATION_2H)
    return RunConfig().with_overrides(**overrides)


def pooled_means(runner, seeds, **overrides):
    """Per-figure pooled mean across seeds for one setting, as `parkrsu sweep` pools them."""
    pooled = pooled_stats([runner(cfg_with(seed=s, **overrides))[1] for s in seeds])
    return {name: pair.mean for name, pair in pooled.items()}


def test_c01_enumeration_count_exactness():
    t0 = time.perf_counter()
    details = []
    ok = True
    for n in range(1, 13):
        neighbors = tuple(
            ActiveRsu(i + 2, CoverageMap(i + 2, {Cell(i, 0): 3}), 1.0) for i in range(n - 1)
        )
        pool = CandidatePool(1, CoverageMap(1, {Cell(0, 0): 5}), neighbors=neighbors)
        got = len(enumerate_solutions(pool))
        expected = 1 + n + n * (n - 1) // 2
        brute = solution_count(n)
        ok = ok and got == expected == brute
        details.append(f"n={n}:{got}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    got_8 = 1 + 8 + 8 * 7 // 2
    ok = ok and got_8 == 37
    report(1, ok, f"counts {'/'.join(details)}; n=8 gives 37; elapsed {elapsed:.3f}s")


def _random_pool(rng) -> CandidatePool:
    universe = [Cell(int(x), int(y)) for x in range(8) for y in range(5)]

    def random_map(owner: int) -> CoverageMap:
        k = int(rng.integers(1, 13))
        idx = rng.choice(len(universe), size=k, replace=False)
        return CoverageMap(owner, {universe[i]: int(rng.integers(1, 6)) for i in idx})

    n_neighbors = int(rng.integers(0, 6))
    neighbors = tuple(
        ActiveRsu(i + 2, random_map(i + 2), float(rng.uniform(0.0, 1.0)))
        for i in range(n_neighbors)
    )
    second = tuple(random_map(100 + j) for j in range(int(rng.integers(0, 3))))
    return CandidatePool(1, random_map(1), neighbors=neighbors, second_hop=second)


def test_c02_attribute_oracle_equivalence():
    rng = np.random.default_rng(20260816)
    t0 = time.perf_counter()
    checked = 0
    worst = 0.0
    for _ in range(1000):
        pool = _random_pool(rng)
        for solution in enumerate_solutions(pool):
            attrs = compute_attributes(solution, pool)
            expect = oracle_attributes(pool, solution)
            for got, want in zip(
                (attrs.signal, attrs.saturation, attrs.coverage, attrs.battery), expect
            ):
                rel = abs(got - want) / max(abs(want), 1e-300)
                worst = max(worst, rel)
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    report(2, ok, f"{checked} attribute values, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_c03_battery_model_and_forced_revocation_trend(runner):
    # Closed-form endpoints of the battery indicator.
    policy = build_policy(RunConfig())
    exact = (
        battery_indicator(1799.9, policy) == 1.0
        and battery_indicator(1800.0, policy) == 1.0
        and battery_indicator(2700.0, policy) == 0.5
        and battery_indicator(3600.0, policy) == 0.0
    )

    def forced_fraction_and_stats(w_bat: float):
        result, stats = runner(cfg_with(duration_s=DURATION_8H, w_bat=w_bat, seed=1))
        frac = (
            sum(1 for r in result.lifetimes if r.cause == CAUSE_FORCED) / len(result.lifetimes)
            if result.lifetimes
            else 0.0
        )
        return frac, stats

    base_frac, base = forced_fraction_and_stats(0.0)
    ok = exact and base_frac > 0.0
    details = [f"endpoints exact={exact}", f"w_bat=0 forced={base_frac:.5f}"]
    for w in (0.3, 0.5, 1.0):
        frac, stats = forced_fraction_and_stats(w)
        drift = max(
            abs(getattr(stats, name).mean - getattr(base, name).mean)
            / abs(getattr(base, name).mean)
            for name in ("coverage_pct", "mean_signal", "mean_saturation", "active_rsus")
        )
        ok = ok and frac < base_frac and drift < 0.05
        details.append(f"w_bat={w} forced={frac:.5f} drift={drift:.4f}")
    report(3, ok, "; ".join(details))


W_SAT_VALUES = (0.05, 0.1, 0.2, 0.3, 0.4)


@pytest.fixture(scope="module")
def w_sat_sweep(runner):
    return {w: pooled_means(runner, SWEEP_SEEDS, w_sat=w) for w in W_SAT_VALUES}


def _non_increasing(values) -> bool:
    return all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_c04_saturation_weight_trend(w_sat_sweep):
    active = [w_sat_sweep[w]["active_rsus"] for w in W_SAT_VALUES]
    sats = [w_sat_sweep[w]["mean_saturation"] for w in W_SAT_VALUES]
    covs = [w_sat_sweep[w]["coverage_pct"] for w in W_SAT_VALUES]
    ok = (
        _non_increasing(active)
        and _non_increasing(sats)
        and _non_increasing(covs)
        and min(sats) >= 1.3
    )
    report(
        4,
        ok,
        f"active {['%.1f' % a for a in active]}, sat {['%.3f' % s for s in sats]}, "
        f"cov {['%.4f' % c for c in covs]}, sat floor {min(sats):.3f}",
    )


W_COV_VALUES = (0.0, 0.1, 0.3, 0.5, 1.0)


def test_c05_coverage_weight_trend(runner):
    covs = [
        pooled_means(runner, SWEEP_SEEDS, w_cov=w)["coverage_pct"] for w in W_COV_VALUES
    ]
    grow_cov = pooled_means(runner, SWEEP_SEEDS, always_grow=True)["coverage_pct"]
    non_decreasing = all(a <= b + 1e-12 for a, b in zip(covs, covs[1:]))
    ok = non_decreasing and covs[-1] >= 0.95 * grow_cov
    report(
        5,
        ok,
        f"cov {['%.4f' % c for c in covs]}, unchecked-growth baseline {grow_cov:.4f}, "
        f"top/baseline {covs[-1] / grow_cov:.4f}",
    )


def test_c06_saturation_area_anticorrelation(w_sat_sweep):
    sats = [w_sat_sweep[w]["mean_saturation"] for w in W_SAT_VALUES]
    areas = [w_sat_sweep[w]["area_per_rsu_m2"] for w in W_SAT_VALUES]
    corr = float(np.corrcoef(sats, areas)[0, 1])
    ok = corr <= -0.9
    report(6, ok, f"corr(mean_saturation, area_per_rsu) = {corr:.4f} over w_sat sweep")


def test_c07_decision_inside_random_envelope(runner):
    decision_cfg = cfg_with(seed=1)
    result, _ = runner(decision_cfg)
    decision = [
        (m.mean_signal, m.mean_saturation)
        for m in result.metrics
        if m.t >= decision_cfg.sim.discard_s and m.coverage_pct > 0
    ]
    bounds = random_assignment_bounds(decision_cfg, 100_000)
    envelope: dict[int, list[float]] = {}
    for sig, sat in bounds.samples:
        key = int(sig // ENVELOPE_BIN_WIDTH)
        lo_hi = envelope.setdefault(key, [sat, sat])
        lo_hi[0] = min(lo_hi[0], sat)
        lo_hi[1] = max(lo_hi[1], sat)
    below = above = inside = missing = 0
    positions = []
    for sig, sat in decision:
        key = int(sig // ENVELOPE_BIN_WIDTH)
        if key not in envelope:
            missing += 1
            continue
        lo, hi = envelope[key]
        positions.append((sat - lo) / (hi - lo) if hi > lo else 0.0)
        if sat < lo:
            below += 1
        elif sat > hi:
            above += 1
        else:
            inside += 1
    median_pos = float(np.median(positions)) if positions else math.nan
    ok = missing == 0 and below == 0 and above == 0 and median_pos <= 0.25
    report(
        7,
        ok,
        f"{len(decision)} decision samples vs {len(bounds.samples)} random networks "
        f"(bin {ENVELOPE_BIN_WIDTH}): inside={inside} below={below} above={above} "
        f"unbinned={missing}; median envelope position {median_pos:.3f} (need ≤ 0.25)",
    )


def test_c08_radio_range_sensitivity(runner):
    narrow = pooled_means(runner, SWEEP_SEEDS)
    wide = pooled_means(runner, SWEEP_SEEDS, range_multiplier=2.0)
    ratio = narrow["active_rsus"] / wide["active_rsus"]
    sig_change = abs(wide["mean_signal"] - narrow["mean_signal"]) / narrow["mean_signal"]
    sat_change = (
        abs(wide["mean_saturation"] - narrow["mean_saturation"]) / narrow["mean_saturation"]
    )
    ok = 1.6 <= ratio <= 2.4 and sig_change < 0.10 and sat_change < 0.10
    report(
        8,
        ok,
        f"active {narrow['active_rsus']:.1f} -> {wide['active_rsus']:.1f} "
        f"(ratio {ratio:.3f}, need [1.6, 2.4]); mean_signal change {sig_change:.3f}, "
        f"mean_saturation change {sat_change:.3f} (each need < 0.10)",
    )


def test_c09_density_robustness(runner):
    base_rate = RunConfig().traffic.arrival_rate_vps
    covs = {}
    for density in (55, 35, 25, 20):
        rate = base_rate * density / 55.0
        covs[density] = runner(cfg_with(seed=1, arrival_rate_vps=rate))[1].coverage_pct.mean
    spread = max(covs.values()) - min(covs.values())
    ok = spread < 0.03
    report(
        9,
        ok,
        "steady coverage by moving-vehicle density "
        + ", ".join(f"{d}/km²={c:.4f}" for d, c in covs.items())
        + f"; spread {spread:.4f} (need < 0.03)",
    )


def test_c10_day_profile_realism(runner):
    ok = True
    details = []
    for total in (4000, 2000):
        result, _ = runner(
            cfg_with(duration_s=DURATION_DAY, mode="day_profile", daily_total=total, seed=1)
        )
        hourly = {}
        for h in range(8, 21):
            window = [
                m.coverage_pct for m in result.metrics if h * 3600 <= m.t < (h + 1) * 3600
            ]
            hourly[h] = sum(window) / len(window)
        peak = max(hourly.values())
        floor_ratio = min(hourly.values()) / peak
        assigned_frac = result.assignments / result.parking_events
        ok = ok and floor_ratio >= 0.80 and assigned_frac < 0.50
        details.append(
            f"total={total}: hour 8-20 coverage floor/peak {floor_ratio:.3f} (need ≥ 0.80), "
            f"assignments/parking {assigned_frac:.3f} (need < 0.50)"
        )
    report(10, ok, "; ".join(details))


def test_c11_beacon_inference_fidelity():
    cfg = RunConfig()
    grid = build_grid(cfg)
    prop = build_propagation(cfg)
    rng = np.random.default_rng(7)
    usable = grid.usable_cells
    observers = [usable[int(i)] for i in rng.choice(len(usable), size=40, replace=False)]
    class_hits = class_total = 0
    sd_hits = sd_total = 0
    for i, observer in enumerate(observers):
        rows, truth = synthesize_beacon_log(grid, prop, observer, rng)
        builder = CoverageMapBuilder(i + 1)
        for _, _, cell, rssi in rows:
            builder.record(cell, rssi)
        cmap, stats = builder.finalize(cfg.maps.min_samples)
        for st in stats:
            sd_total += 1
            if st.sd_rssi < 5.0:
                sd_hits += 1
            if st.count >= 50 and st.cell in cmap.cells:
                class_total += 1
                if cmap.cells[st.cell] == truth[st.cell]:
                    class_hits += 1
    recovery = class_hits / class_total
    sd_share = sd_hits / sd_total
    ok = recovery >= 0.95 and sd_share >= 0.85
    report(
        11,
        ok,
        f"{class_total} well-sampled cells: class recovery {recovery:.4f} (need ≥ 0.95); "
        f"sd<5.0 on {sd_share:.4f} of {sd_total} observed cells (need ≥ 0.85)",
    )


def test_c12_byte_identical_reruns(tmp_path):
    cfg = RunConfig().with_overrides(duration_s=900.0, seed=6)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_metrics_csv(run(cfg).metrics, pa)
    write_metrics_csv(run(cfg).metrics, pb)
    same = pa.read_bytes() == pb.read_bytes()
    report(12, same, f"repeated run metric CSVs identical: {same} ({pa.stat().st_size} bytes)")
