"""Tests of the benchmark's correctness checks.

Short versions of every workload must pass every check, and each check must
fail on a deliberately corrupted result. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

from parkrsu.config import build_weights  # noqa: E402
from parkrsu.decision import Decision, RoleCommand  # noqa: E402
from parkrsu.grid import Cell  # noqa: E402
from parkrsu.sim import CAUSE_DECISION, CAUSE_FORCED, KIND_ROLE_ASSIGN  # noqa: E402

import checks  # noqa: E402
from rescore import check_decisions, expected_solution_count  # noqa: E402
from tracing import Tracer, tail_percentile  # noqa: E402
from workloads import WORKLOADS, Workload, run_instance  # noqa: E402

SEED = 11

# Each workload's own overrides plus ones that make it short. The day run
# keeps its full 24 hours (the parking check needs the whole day) on a small
# city with a small budget.
SHORT = {
    "uniform-2h": ((("duration_s", 900.0), ("discard_s", 300.0)), 2000),
    "churn-wide": ((("duration_s", 600.0), ("discard_s", 300.0)), 2000),
    "day-24h": ((("blocks_x", 3), ("blocks_y", 3), ("daily_total", 300)), 2000),
    "bounds-100k": ((("duration_s", 600.0), ("discard_s", 300.0)), 5000),
}


def short_workload(name: str) -> Workload:
    base = WORKLOADS[name]
    extra, samples = SHORT[name]
    return Workload(name, base.overrides + extra, samples)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """name -> (untraced instance, traced instance, tracer) for every short workload."""
    out = {}
    for name in WORKLOADS:
        w = short_workload(name)
        d = tmp_path_factory.mktemp(name)
        plain = run_instance(w, SEED, str(d / "plain"))
        tracer = Tracer()
        with tracer.installed():
            traced = run_instance(w, SEED, str(d / "traced"))
        out[name] = (plain, traced, tracer)
    return out


def fails_for(name, inst, result=None, bounds=None):
    """Every check on one short run's outputs, optionally with one output replaced."""
    cfg = inst.config
    return checks.check_simulation(cfg, result or inst.sim.output) + checks.check_bounds(
        cfg, bounds or inst.bounds.output, SHORT[name][1]
    )


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_short_workload_passes_every_check(runs, name):
    plain, traced, tracer = runs[name]
    assert traced.digest == plain.digest
    assert fails_for(name, traced) == []
    assert tracer.decisions
    assert check_decisions(tracer.decisions, build_weights(traced.config)) == []


def test_tracer_restores_entry_points():
    import parkrsu.sim as psim

    before = psim.decide, psim.Simulation.run
    with Tracer().installed():
        assert psim.decide is not before[0]
    assert (psim.decide, psim.Simulation.run) == before


def test_layer_metrics_are_consistent(runs):
    _, traced, tracer = runs["churn-wide"]
    m, _ = tracer.layer_metrics()
    value = {k: v for k, (v, _) in m.items()}
    assert value["sim.ticks"] == len(traced.sim.output.metrics)
    assert value["decision.decide_calls"] == traced.sim.output.decisions
    assert value["maps.records"] == value["radio.rssi_samples"]
    assert value["traffic.parking_events"] >= traced.sim.output.parking_events
    assert 0 < value["radio.footprint_hit_ratio"] < 1
    assert value["sim.bounds_fill_cars"] == len(traced.bounds.output.fill_cells)
    assert value["sim.bytes_written"] > 0
    assert 0 < value["sim.self_s"] < value["sim.tick_p50_us"] * 1e-6 * value["sim.ticks"]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(39) == 50.0
    assert tail_percentile(200) == 95.0
    assert tail_percentile(7200) == 99.0
    assert tail_percentile(86400) == 99.9
    assert tail_percentile(10) is None


# corrupted simulation results


def _with_row(result, i, **changes):
    metrics = list(result.metrics)
    metrics[i] = dataclasses.replace(metrics[i], **changes)
    return dataclasses.replace(result, metrics=metrics)


def _busy_row(result):
    return max(range(len(result.metrics)), key=lambda i: result.metrics[i].active_rsus)


def test_tampered_active_count_fails(runs):
    _, inst, _ = runs["uniform-2h"]
    i = _busy_row(inst.sim.output)
    bad = _with_row(inst.sim.output, i, active_rsus=inst.sim.output.metrics[i].active_rsus + 1)
    assert any("active_rsus" in f for f in fails_for("uniform-2h", inst, bad))


def test_missing_row_fails(runs):
    _, inst, _ = runs["uniform-2h"]
    bad = dataclasses.replace(inst.sim.output, metrics=inst.sim.output.metrics[:-1])
    assert any("metrics rows" in f for f in fails_for("uniform-2h", inst, bad))


def test_dropped_lifetime_fails(runs):
    _, inst, _ = runs["churn-wide"]
    bad = dataclasses.replace(inst.sim.output, lifetimes=inst.sim.output.lifetimes[1:])
    assert any("commands and lifetimes" in f for f in fails_for("churn-wide", inst, bad))


def test_wrong_active_at_end_fails(runs):
    _, inst, _ = runs["churn-wide"]
    bad = dataclasses.replace(inst.sim.output, active_at_end=inst.sim.output.active_at_end + 1)
    assert any("active_at_end" in f for f in fails_for("churn-wide", inst, bad))


def test_role_assign_mismatch_fails(runs):
    _, inst, _ = runs["uniform-2h"]
    counts = dict(inst.sim.output.message_counts)
    counts[KIND_ROLE_ASSIGN] += 1
    bad = dataclasses.replace(inst.sim.output, message_counts=counts)
    assert any("role_assign" in f for f in fails_for("uniform-2h", inst, bad))


def test_revoke_cause_mismatch_fails(runs):
    _, inst, _ = runs["churn-wide"]
    lifetimes = list(inst.sim.output.lifetimes)
    i = next(k for k, r in enumerate(lifetimes) if r.cause == CAUSE_DECISION)
    lifetimes[i] = dataclasses.replace(lifetimes[i], cause="departure")
    bad = dataclasses.replace(inst.sim.output, lifetimes=lifetimes)
    assert any("role_revoke" in f for f in fails_for("churn-wide", inst, bad))


def test_overlong_lifetime_fails(runs):
    _, inst, _ = runs["uniform-2h"]
    lifetimes = list(inst.sim.output.lifetimes)
    r = lifetimes[0]
    lifetimes[0] = dataclasses.replace(r, assigned_at=r.revoked_at - inst.config.battery.max_time_s - 1)
    bad = dataclasses.replace(inst.sim.output, lifetimes=lifetimes)
    assert any("lasts" in f for f in fails_for("uniform-2h", inst, bad))


def test_short_forced_lifetime_fails(runs):
    _, inst, _ = runs["uniform-2h"]
    lifetimes = list(inst.sim.output.lifetimes)
    lifetimes[0] = dataclasses.replace(lifetimes[0], cause=CAUSE_FORCED)
    bad = dataclasses.replace(inst.sim.output, lifetimes=lifetimes)
    assert any("forced revocation" in f for f in fails_for("uniform-2h", inst, bad))


@pytest.mark.parametrize(
    "field, factor, message",
    [
        ("area_per_rsu_m2", 1.01, "area_per_rsu_m2"),
        ("mean_signal", 0.0, "mean_signal"),
        ("mean_signal", 10.0, "mean_signal"),
        ("mean_saturation", 0.0, "mean_saturation"),
    ],
)
def test_tampered_row_value_fails(runs, field, factor, message):
    _, inst, _ = runs["uniform-2h"]
    i = _busy_row(inst.sim.output)
    value = getattr(inst.sim.output.metrics[i], field) * factor
    bad = _with_row(inst.sim.output, i, **{field: value})
    assert any(message in f for f in fails_for("uniform-2h", inst, bad))


def test_uniform_parking_outside_band_fails(runs):
    _, inst, _ = runs["uniform-2h"]
    _, hi = checks.uniform_parking_band(inst.config)
    bad = dataclasses.replace(inst.sim.output, parking_events=int(hi) + 1)
    assert any("Poisson band" in f for f in fails_for("uniform-2h", inst, bad))


@pytest.mark.parametrize("delta, message", [(1, "exceed"), (-30, "short of")])
def test_day_parking_fails(runs, delta, message):
    _, inst, _ = runs["day-24h"]
    total = inst.config.traffic.daily_total
    bad = dataclasses.replace(inst.sim.output, parking_events=total + delta)
    assert any(message in f for f in fails_for("day-24h", inst, bad))


# corrupted bounds results


def test_dropped_sample_fails(runs):
    _, inst, _ = runs["bounds-100k"]
    bad = dataclasses.replace(inst.bounds.output, samples=inst.bounds.output.samples[1:])
    assert any("requested" in f for f in fails_for("bounds-100k", inst, bounds=bad))


def test_skipped_outside_band_fails(runs):
    _, inst, _ = runs["bounds-100k"]
    n = len(inst.bounds.output.samples)
    b = inst.bounds.output
    bad = dataclasses.replace(b, samples=b.samples[: n - 200], skipped=b.skipped + 200)
    assert any("binomial band" in f for f in fails_for("bounds-100k", inst, bounds=bad))


@pytest.mark.parametrize("sample, message", [((0.5, 2.0), "mean_signal"), ((3.0, 1e9), "mean_saturation")])
def test_out_of_range_sample_fails(runs, sample, message):
    _, inst, _ = runs["bounds-100k"]
    bad = dataclasses.replace(inst.bounds.output, samples=[sample] + inst.bounds.output.samples[1:])
    assert any(message in f for f in fails_for("bounds-100k", inst, bounds=bad))


def test_unusable_fill_cell_fails(runs):
    _, inst, _ = runs["bounds-100k"]
    # (1, 1) lies inside the first building block of the Manhattan city.
    bad = dataclasses.replace(inst.bounds.output, fill_cells=[Cell(1, 1)] + inst.bounds.output.fill_cells[1:])
    assert any("not usable" in f for f in fails_for("bounds-100k", inst, bounds=bad))


# corrupted decisions


def _contested(tracer):
    """A captured decision with at least one neighbor, so alternatives differ."""
    return next(i for i, (pool, _, _) in enumerate(tracer.decisions) if pool.neighbors)


def test_mis_chosen_decision_fails(runs):
    _, inst, tracer = runs["churn-wide"]
    i = _contested(tracer)
    pool, decision, solutions = tracer.decisions[i]
    other = next(s for s in solutions if s.active != decision.chosen.active)
    bad = [(pool, Decision(chosen=other, commands=decision.commands), solutions)]
    assert any("package chose" in f for f in check_decisions(bad, build_weights(inst.config)))


def test_missing_alternative_fails(runs):
    _, inst, tracer = runs["churn-wide"]
    pool, decision, solutions = tracer.decisions[_contested(tracer)]
    bad = [(pool, decision, solutions[:-1])]
    assert any("alternatives scored" in f for f in check_decisions(bad, build_weights(inst.config)))


def test_unrealized_commands_fail(runs):
    _, inst, tracer = runs["churn-wide"]
    pool, decision, solutions = tracer.decisions[_contested(tracer)]
    extra = RoleCommand("revoke", pool.neighbors[0].entity_id)
    cmds = tuple(c for c in decision.commands if c != extra) if extra in decision.commands else decision.commands + (extra,)
    bad = [(pool, Decision(chosen=decision.chosen, commands=cmds), solutions)]
    assert any("commands" in f for f in check_decisions(bad, build_weights(inst.config)))


def test_solution_count_formula():
    assert [expected_solution_count(n) for n in (1, 2, 3, 8)] == [2, 4, 7, 37]
