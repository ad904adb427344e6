"""Tests for the tick-loop simulation, bounds sampler, and run artifacts."""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math

import numpy as np
import pytest

import parkrsu.config
import parkrsu.sim
from parkrsu.config import RunConfig, build_grid, build_propagation
from parkrsu.decision import battery_indicator, merged_totals, reach_levels, union_counts
from parkrsu.errors import ConfigurationError
from parkrsu.grid import Cell, CityGrid, build_manhattan_city, save_city
from parkrsu.radio import FootprintCache, strength
from parkrsu.sim import (
    BOUNDS_HEADER,
    CAUSE_DECISION,
    CAUSE_DEPARTURE,
    CAUSE_FORCED,
    COMMANDS_HEADER,
    KIND_CAM,
    KIND_MAP_REQUEST,
    KIND_MAP_RESPONSE,
    KIND_ROLE_ASSIGN,
    KIND_ROLE_REVOKE,
    LIFETIMES_HEADER,
    METRICS_HEADER,
    CommandRecord,
    STEADY_METRICS,
    MetricsSample,
    RsuLifetimeRecord,
    Simulation,
    StatPair,
    _warmed_up_parked_cells,
    pooled_stats,
    random_assignment_bounds,
    run,
    steady_state_stats,
    write_bounds_csv,
    write_commands_csv,
    write_lifetimes_csv,
    write_manifest,
    write_metrics_csv,
)
from parkrsu.traffic import TrafficProcess

from oracles import footprint_dict, mean_sd

ALL_CAUSES = {CAUSE_DECISION, CAUSE_FORCED, CAUSE_DEPARTURE}


def make_config(**overrides) -> RunConfig:
    return RunConfig().with_overrides(**overrides) if overrides else RunConfig()


@pytest.fixture(scope="module")
def default_run():
    """One full-length default run, shared by every read-only assertion."""
    sim = Simulation(make_config())
    result = sim.run()
    return sim, result


@pytest.fixture(scope="module")
def short_result_pair():
    """Two independent 600 s runs with the same seed."""
    cfg = make_config(duration_s=600.0, seed=3)
    return Simulation(cfg).run(), Simulation(cfg).run()


def output_digests(result, directory) -> dict[str, str]:
    """SHA-256 of the metrics, lifetimes and commands files written for result."""
    digests = {}
    for name, write, rows in (
        ("metrics.csv", write_metrics_csv, result.metrics),
        ("lifetimes.csv", write_lifetimes_csv, result.lifetimes),
        ("commands.csv", write_commands_csv, result.commands),
    ):
        write(rows, directory / name)
        digests[name] = hashlib.sha256((directory / name).read_bytes()).hexdigest()
    return digests


class TestZeroArrival:
    def test_all_metrics_zero_and_empty(self):
        cfg = make_config(arrival_rate_vps=0.0, duration_s=300.0)
        result = Simulation(cfg).run()
        assert len(result.metrics) == 300
        for m in result.metrics:
            assert m.active_rsus == 0
            assert m.coverage_pct == 0.0
            assert m.mean_signal == 0.0
            assert m.mean_saturation == 0.0
            assert m.area_per_rsu_m2 == 0.0
        assert result.lifetimes == []
        assert result.commands == []
        assert result.parking_events == 0
        assert result.assignments == 0
        assert result.decisions == 0
        assert result.active_at_end == 0
        assert all(count == 0 for count in result.message_counts.values())

    def test_tick_times_sequential(self):
        cfg = make_config(arrival_rate_vps=0.0, duration_s=25.0)
        result = Simulation(cfg).run()
        assert [m.t for m in result.metrics] == [float(i) for i in range(25)]


class TestDeterminism:
    def test_repeat_run_identical(self, short_result_pair):
        a, b = short_result_pair
        assert a.metrics == b.metrics
        assert a.lifetimes == b.lifetimes
        assert a.commands == b.commands
        assert a.message_counts == b.message_counts
        assert a.parking_events == b.parking_events
        assert a.active_at_end == b.active_at_end

    def test_metric_csv_bytes_identical(self, short_result_pair, tmp_path):
        a, b = short_result_pair
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics_csv(a.metrics, pa)
        write_metrics_csv(b.metrics, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_outputs_pinned(self, short_result_pair, tmp_path):
        # Digests of a 600 s seed-3 default run. A refactor that must not change
        # the model keeps them; one that shifts a random stream or a tick rule fails here.
        a, _ = short_result_pair
        assert output_digests(a, tmp_path) == {
            "metrics.csv": "09b1b98f1b9ce2e4e99dbc7c83335151d0b6cde0b12ffa5ca6871f149b9ca591",
            "lifetimes.csv": "b87ad49119fa90ca1b5ce78ee33ba403d953ed3fdfdd2cf18585a69863e41833",
            "commands.csv": "7e599769c7dd7fe13fe91c194498e38aa502da8d0c974dcbc34006cfbf8e05e3",
        }

    def test_wide_range_churn_outputs_pinned(self, tmp_path):
        # The same pin on the regime where decisions dominate: doubled radio
        # range and near one parking per second give pools of up to 18
        # audible units and 257 revocations. The digests keep the scoring,
        # its tie-breaks and the pool gathering from moving.
        cfg = make_config(
            duration_s=600.0,
            seed=3,
            range_multiplier=2.0,
            arrival_rate_vps=0.9,
            target_moving_vehicles=20.0,
            w_sat=0.0,
        )
        result = Simulation(cfg).run()
        assert output_digests(result, tmp_path) == {
            "metrics.csv": "4adfc6dc1a9e4bb7ec8c76fc2ce197253d5af6017935900739aa4549c0aabaac",
            "lifetimes.csv": "4b71709b3467fa5d1a4d97b762cf9bb8b2cbe6e8bb8070e5ab72f0a244ba30d6",
            "commands.csv": "a77053557b2f854d681e25966055457e784221056537a02c14478edc647275d5",
        }

    def test_battery_rotation_outputs_pinned(self, tmp_path):
        # The same pin with the battery criterion on and a short duty cap:
        # 8 forced revocations, and each neighbor's battery indicator, read
        # from its activation time, enters every score. The pins above run
        # with w_bat=0 and cannot see that path.
        cfg = make_config(duration_s=600.0, seed=3, w_bat=1.0, standard_time_s=60.0, max_time_s=240.0)
        result = Simulation(cfg).run()
        assert sum(r.cause == CAUSE_FORCED for r in result.lifetimes) == 8
        assert output_digests(result, tmp_path) == {
            "metrics.csv": "bf2a2bf054057ca9cac7b669e5c9a57751525bc98d6ca786e3bfb40d95f9f82c",
            "lifetimes.csv": "5507a94566a181428b89256061e0e70a690bafe5d83f018c209d622733dd3c56",
            "commands.csv": "5cbcd3c0c91e127a70a10511392c09dc541e10408936c6802c31a8b180024f82",
        }

    def test_day_profile_dead_end_city_outputs_pinned(self, tmp_path):
        # The same pin for day-profile traffic on a city file with a negative
        # origin, two cut streets, a one-cell spur and an isolated road cell:
        # 95 cars park over three night hours, and movers turn back at the
        # dead ends. The pins above run uniform traffic on the full lattice.
        g = build_manhattan_city(3, 3, origin=Cell(-4, -7))
        usable, obstruction = g.usable.copy(), g.obstruction.copy()
        for ix, iy, road in ((4, 6, False), (6, 8, False), (2, 1, True), (10, 10, True)):
            usable[ix, iy], obstruction[ix, iy] = road, not road
        save_city(CityGrid(g.width, g.height, usable, obstruction, origin=g.origin), tmp_path / "city.txt")
        cfg = make_config(
            city_file=str(tmp_path / "city.txt"), mode="day_profile", duration_s=10800.0, discard_s=600.0, seed=7
        )
        result = Simulation(cfg).run()
        assert result.parking_events == 95
        assert output_digests(result, tmp_path) == {
            "metrics.csv": "7393daa11496758db51ddb5732b6a9143258686ad08bb1758fa11c1f5252fa5f",
            "lifetimes.csv": "a8e776dbcc1d28fdec9293705767b193f7091ce8e112af5ab010c9846c04bcf7",
            "commands.csv": "2b3bd712ab94622121b9c16c4b763ecfda67fc75b461ab659db78ea695f6232c",
        }

    def test_different_seed_differs(self, short_result_pair):
        a, _ = short_result_pair
        c = Simulation(make_config(duration_s=600.0, seed=4)).run()
        assert a.metrics != c.metrics

    def test_run_helper_matches_simulation_class(self, short_result_pair):
        a, _ = short_result_pair
        helper = run(make_config(duration_s=600.0, seed=3))
        assert helper.metrics == a.metrics
        assert helper.commands == a.commands


class TestSingleUse:
    def test_second_run_raises_and_leaves_first_result(self):
        sim = Simulation(make_config(blocks_x=2, blocks_y=2, block_size_cells=1, duration_s=300.0))
        first = sim.run()
        with pytest.raises(RuntimeError, match="single-use"):
            sim.run()
        assert [m.t for m in first.metrics] == [float(i) for i in range(300)]


class TestMetricsInvariants:
    def test_sample_bounds_and_finiteness(self, default_run):
        _, result = default_run
        for m in result.metrics:
            assert 0.0 <= m.coverage_pct <= 1.0
            assert m.active_rsus >= 0
            for value in (m.coverage_pct, m.mean_signal, m.mean_saturation, m.area_per_rsu_m2):
                assert math.isfinite(value)
            if m.coverage_pct > 0:
                assert m.mean_saturation >= 1.0
                assert 1.0 <= m.mean_signal <= 5.0

    def test_one_sample_per_tick(self, default_run):
        _, result = default_run
        assert [m.t for m in result.metrics] == [float(i) for i in range(7200)]

    def test_area_consistent_with_coverage(self, default_run):
        sim, result = default_run
        n_usable = len(sim.grid.usable_cells)
        cell_area = sim.config.grid.cell_size_m ** 2
        for m in result.metrics[::97]:
            n_cov = round(m.coverage_pct * n_usable)
            if m.active_rsus:
                expect = n_cov * cell_area / m.active_rsus
                assert m.area_per_rsu_m2 == pytest.approx(expect, rel=1e-9)
            else:
                assert m.area_per_rsu_m2 == 0.0

    def test_coverage_stabilizes_after_transient(self, default_run):
        _, result = default_run
        tail = [m.coverage_pct for m in result.metrics if m.t >= 7200 - 1800]
        assert len(tail) == 1800
        assert float(np.std(tail)) < 0.02


class TestLifetimeRecords:
    def test_causes_and_ordering(self, default_run):
        _, result = default_run
        assert result.lifetimes, "expected closed lifetimes in a 2 h run"
        for r in result.lifetimes:
            assert r.cause in ALL_CAUSES
            assert r.revoked_at >= r.assigned_at >= 0.0

    def test_each_entity_assigned_at_most_once(self, default_run):
        _, result = default_run
        assigned = [c.target_id for c in result.commands if c.verb == "assign"]
        assert len(assigned) == len(set(assigned))

    def test_record_count_balances_assignments(self, default_run):
        _, result = default_run
        assert len(result.lifetimes) + result.active_at_end == result.assignments

    def test_lifetimes_per_entity_disjoint(self, default_run):
        _, result = default_run
        seen: dict[int, list[tuple[float, float]]] = {}
        for r in result.lifetimes:
            seen.setdefault(r.entity_id, []).append((r.assigned_at, r.revoked_at))
        for spans in seen.values():
            spans.sort()
            for (a0, r0), (a1, _) in zip(spans, spans[1:]):
                assert r0 <= a1

    @pytest.mark.xfail(
        reason="decision churn keeps most lifetimes far below the forced cap "
        "on the default synthetic city, so the cap spike does not dominate",
        strict=False,
    )
    def test_forced_cap_spike_dominates_lifetimes(self, default_run):
        _, result = default_run
        durations = [r.revoked_at - r.assigned_at for r in result.lifetimes]
        cap = 3600.0
        at_cap = sum(1 for d in durations if abs(d - cap) < 30.0)
        assert at_cap > len(durations) / 2


class TestCommandProtocol:
    def test_one_maker_per_tick(self, default_run):
        _, result = default_run
        by_tick: dict[float, set[int]] = {}
        for c in result.commands:
            by_tick.setdefault(c.time_s, set()).add(c.maker_id)
        assert by_tick
        for makers in by_tick.values():
            assert len(makers) == 1

    def test_assign_targets_maker_only(self, default_run):
        _, result = default_run
        for c in result.commands:
            assert c.verb in {"assign", "revoke"}
            if c.verb == "assign":
                assert c.target_id == c.maker_id

    def test_decision_count_bounds(self, default_run):
        _, result = default_run
        tick_count = len({c.time_s for c in result.commands})
        assert tick_count <= result.decisions <= result.parking_events
        assert result.assignments <= result.decisions

    def test_fifo_decision_order_follows_parking_order(self, default_run):
        sim, result = default_run
        order: list[float] = []
        for t in sorted({c.time_s for c in result.commands}):
            maker = next(c.maker_id for c in result.commands if c.time_s == t)
            v = sim._vehicles.get(maker)
            if v is not None:
                order.append(v.parked_at)
        assert len(order) > 100
        assert all(a <= b for a, b in zip(order, order[1:]))

    def test_revoke_commands_match_decision_lifetimes(self, default_run):
        _, result = default_run
        revokes = [c for c in result.commands if c.verb == "revoke"]
        decision_records = [r for r in result.lifetimes if r.cause == CAUSE_DECISION]
        assert len(revokes) == len(decision_records)
        record_keys = {(r.entity_id, r.revoked_at) for r in decision_records}
        assert {(c.target_id, c.time_s) for c in revokes} == record_keys

    def test_active_set_replay_matches_end_state(self, default_run):
        _, result = default_run
        active: set[int] = set()
        events: list[tuple[float, int, str, int]] = []
        for c in result.commands:
            events.append((c.time_s, 1, c.verb, c.target_id))
        for r in result.lifetimes:
            if r.cause != CAUSE_DECISION:
                events.append((r.revoked_at, 0, "revoke", r.entity_id))
        for _, _, verb, target in sorted(events, key=lambda e: (e[0], e[1])):
            if verb == "assign":
                assert target not in active
                active.add(target)
            else:
                assert target in active
                active.remove(target)
        assert len(active) == result.active_at_end


class TestLearningWindow:
    def test_no_assignment_before_learning_period(self, default_run):
        sim, result = default_run
        learn_s = sim.config.decision.learning_period_s
        checked = 0
        for c in result.commands:
            if c.verb != "assign":
                continue
            v = sim._vehicles.get(c.target_id)
            if v is None:
                continue
            assert c.time_s - v.parked_at >= learn_s
            checked += 1
        assert checked >= 50

    def test_first_decision_exactly_at_learning_boundary(self):
        cfg = make_config(arrival_rate_vps=0.05, duration_s=600.0, seed=11)
        sim = Simulation(cfg)
        result = sim.run()
        assigns = [c for c in result.commands if c.verb == "assign"]
        assert assigns, "expected at least one parked car to finish learning"
        first = assigns[0]
        maker = sim._vehicles[first.target_id]
        assert first.time_s == maker.parked_at + cfg.decision.learning_period_s


class TestForcedRevocation:
    def test_forced_records_exact_and_caused(self):
        cfg = make_config(standard_time_s=60.0, max_time_s=120.0, duration_s=900.0, seed=2)
        result = Simulation(cfg).run()
        forced = [r for r in result.lifetimes if r.cause == CAUSE_FORCED]
        assert forced, "a 120 s cap over 900 s must force revocations"
        for r in forced:
            assert r.revoked_at - r.assigned_at == 120.0

    def test_departure_cause_recorded(self):
        cfg = make_config(mean_duration_s=150.0, duration_s=900.0, seed=2)
        sim = Simulation(cfg)
        result = sim.run()
        departed = [r for r in result.lifetimes if r.cause == CAUSE_DEPARTURE]
        assert departed, "150 s mean stays must make active units depart"
        for r in departed:
            assert r.entity_id not in sim._vehicles


class TestMessageAccounting:
    def test_counts_tie_to_events(self, default_run):
        _, result = default_run
        counts = result.message_counts
        assert set(counts) == {
            KIND_CAM,
            KIND_MAP_REQUEST,
            KIND_MAP_RESPONSE,
            KIND_ROLE_ASSIGN,
            KIND_ROLE_REVOKE,
        }
        assert counts[KIND_CAM] > 0
        assert counts[KIND_ROLE_ASSIGN] == result.assignments
        n_assign = sum(1 for c in result.commands if c.verb == "assign")
        n_revoke = sum(1 for c in result.commands if c.verb == "revoke")
        assert counts[KIND_ROLE_ASSIGN] == n_assign
        assert counts[KIND_ROLE_REVOKE] == n_revoke

    def test_map_exchange_symmetric(self, default_run):
        _, result = default_run
        counts = result.message_counts
        assert counts[KIND_MAP_REQUEST] > 0
        assert counts[KIND_MAP_REQUEST] == counts[KIND_MAP_RESPONSE]


class _PoolRecordingSim(Simulation):
    """Records each gathered pool next to the one rebuilt from the scalar
    strength() over the active units' cells at that moment."""

    def __init__(self, config):
        super().__init__(config)
        self.pools = []
        self._hears = functools.cache(lambda tx, rx: strength(tx, rx, self.grid, self.prop) >= 1)

    def _gather_pool(self, maker, t):
        pool = super()._gather_pool(maker, t)
        cells = {vid: self._vehicles[vid].cell for vid in self._active}
        one_hop = sorted(vid for vid, cell in cells.items() if self._hears(maker.cell, cell))
        second = {m for n in one_hop for m, cell in cells.items() if self._hears(cells[n], cell)}
        assigned_at = {c.target_id: c.time_s for c in self.commands if c.verb == "assign"}
        expected = (
            self._learned[maker.vid],
            [(n, self._learned[n], battery_indicator(t - assigned_at[n], self.policy)) for n in one_hop],
            [self._learned[m] for m in sorted(second - set(one_hop))],
        )
        got = (pool.maker_map, [tuple(n) for n in pool.neighbors], list(pool.second_hop))
        self.pools.append((got, expected))
        return pool


class TestPoolGathering:
    def test_pools_are_the_two_hop_neighbourhood(self):
        # A short standard duty time puts battery indicators strictly between
        # 0 and 1; the duty cap is the run length, so no unit is forced off.
        cfg = make_config(
            duration_s=600.0,
            seed=2,
            range_multiplier=2.0,
            arrival_rate_vps=0.9,
            standard_time_s=120.0,
            max_time_s=600.0,
        )
        sim = _PoolRecordingSim(cfg)
        result = sim.run()
        assert len(sim.pools) == result.decisions > 400
        assert sum(1 for (_, _, second), _ in sim.pools if second) > 400
        batteries = [b for (_, neighbors, _), _ in sim.pools for _, _, b in neighbors]
        assert sum(1 for b in batteries if 0 < b < 1) > 300
        for got, expected in sim.pools:
            assert got == expected
        neighbours = sum(len(neighbors) for (_, neighbors, _), _ in sim.pools)
        assert result.message_counts[KIND_MAP_REQUEST] == neighbours


class TestLedgerTripwire:
    def test_corrupted_ledger_detected_at_checkpoint(self):
        sim = Simulation(make_config(duration_s=300.0, seed=5))
        for t in range(150):
            sim._tick(float(t))
        sim._counts[7, 3] += 1
        with pytest.raises(RuntimeError):
            for t in range(150, 250):
                sim._tick(float(t))


class TestMetricsCache:
    def test_reused_samples_equal_recomputed_every_tick(self):
        # A tick that changes no role reuses the previous sample with the new
        # time; it must equal a from-scratch computation on every tick, not
        # only at the 100-tick ledger checkpoints.
        sim = Simulation(
            make_config(duration_s=300.0, seed=5, range_multiplier=2.0, arrival_rate_vps=0.9)
        )
        kinds = set()
        for t in range(300):
            before = (sim.assignments, len(sim.lifetimes))
            sim._tick(float(t))
            kinds.add((sim.assignments, len(sim.lifetimes)) != before)
            assert sim.metrics[-1] == sim._compute_metrics(float(t)), t
        assert kinds == {True, False}

    def test_corrupted_cached_sample_detected_at_checkpoint(self):
        sim = Simulation(make_config(arrival_rate_vps=0.0, duration_s=300.0))
        for t in range(50):
            sim._tick(float(t))
        sim.metrics[-1].coverage_pct = 0.5
        with pytest.raises(RuntimeError, match="metrics recomputation mismatch at t=100"):
            for t in range(50, 150):
                sim._tick(float(t))


def _sample(t: float, value: float) -> MetricsSample:
    return MetricsSample(
        t=t,
        active_rsus=int(value),
        coverage_pct=value / 100.0,
        mean_signal=value / 10.0,
        mean_saturation=value / 20.0,
        area_per_rsu_m2=value * 3.0,
    )


class TestSteadyStateStats:
    def test_constant_series_sd_zero(self):
        series = [_sample(float(t), 40.0) for t in range(20)]
        summary = steady_state_stats(series, discard_s=5.0)
        assert summary.n_samples == 15
        assert summary.active_rsus.mean == 40.0
        assert summary.active_rsus.sd == 0.0
        assert summary.coverage_pct.sd == 0.0

    def test_step_at_discard_boundary_only_counts_tail(self):
        series = [_sample(float(t), 10.0) for t in range(5)]
        series += [_sample(float(t), 80.0) for t in range(5, 12)]
        summary = steady_state_stats(series, discard_s=5.0)
        assert summary.n_samples == 7
        assert summary.coverage_pct.mean == pytest.approx(0.80)
        assert summary.coverage_pct.sd == 0.0

    def test_hand_built_series_matches_oracle(self):
        values = [12.0, 15.0, 9.0, 22.0, 18.0, 30.0, 25.0, 11.0, 16.0, 21.0]
        series = [_sample(float(t), v) for t, v in enumerate(values)]
        summary = steady_state_stats(series, discard_s=3.0)
        kept = values[3:]
        mean, sd = mean_sd([v / 10.0 for v in kept])
        assert summary.mean_signal.mean == pytest.approx(mean, rel=1e-12)
        assert summary.mean_signal.sd == pytest.approx(sd, rel=1e-12)
        mean_area, sd_area = mean_sd([v * 3.0 for v in kept])
        assert summary.area_per_rsu_m2.mean == pytest.approx(mean_area, rel=1e-12)
        assert summary.area_per_rsu_m2.sd == pytest.approx(sd_area, rel=1e-12)

    def test_series_too_short_raises(self):
        series = [_sample(float(t), 5.0) for t in range(10)]
        with pytest.raises(ValueError):
            steady_state_stats(series, discard_s=100.0)

    def test_pooled_identical_runs_keep_the_mean_with_sd_zero(self):
        # mean_signal is 0.1 here, and 0.1 + 0.1 + 0.1 == 0.30000000000000004:
        # pooling equal runs must not turn summation round-off into spread.
        one = steady_state_stats([_sample(float(t), 1.0) for t in range(10)], discard_s=0.0)
        pooled = pooled_stats([one, one, one])
        assert tuple(pooled) == STEADY_METRICS
        for name, pair in pooled.items():
            assert pair == StatPair(mean=getattr(one, name).mean, sd=0.0)


def toy_config(**overrides) -> RunConfig:
    base = dict(
        blocks_x=2,
        blocks_y=2,
        block_size_cells=1,
        road_width_cells=1,
        discard_s=240.0,
        seed=9,
    )
    base.update(overrides)
    return make_config(**base)


def merged_means(cells, cache) -> tuple[float, float]:
    """Mean best-strength and mean contributor count over covered cells."""
    best: dict = {}
    count: dict = {}
    for cell in cells:
        for covered, s in footprint_dict(cache, cell).items():
            best[covered] = max(best.get(covered, 0), s)
            count[covered] = count.get(covered, 0) + 1
    n = len(best)
    return sum(best.values()) / n, sum(count.values()) / n


class TestRandomAssignmentBounds:
    def test_empty_subsets_skipped_and_counted(self):
        result = random_assignment_bounds(toy_config(bounds_fill_count=6), 400)
        assert result.skipped > 0
        assert len(result.samples) + result.skipped == 400

    def test_singleton_population_saturation_exactly_one(self):
        cfg = make_config(bounds_fill_count=1, discard_s=600.0)
        result = random_assignment_bounds(cfg, 300)
        assert len(result.fill_cells) == 1
        assert result.samples, "half the draws activate the lone unit"
        for sig, sat in result.samples:
            assert sat == 1.0
            assert 1.0 <= sig <= 5.0

    def test_toy_city_samples_match_exhaustive_enumeration(self):
        cfg = toy_config(bounds_fill_count=6)
        result = random_assignment_bounds(cfg, 5000, rng=np.random.default_rng(123))
        assert len(result.fill_cells) == 6
        grid = build_grid(cfg)
        cache = FootprintCache(grid, build_propagation(cfg))
        oracle: set[tuple[float, float]] = set()
        for k in range(1, 7):
            for chosen in itertools.combinations(range(6), k):
                cells = [result.fill_cells[i] for i in chosen]
                sig, sat = merged_means(cells, cache)
                oracle.add((round(sig, 9), round(sat, 9)))
        sampled = {(round(sig, 9), round(sat, 9)) for sig, sat in result.samples}
        assert sampled == oracle
        assert max(s for s, _ in sampled) == max(s for s, _ in oracle)
        assert min(c for _, c in sampled) == min(c for _, c in oracle)

    def test_empty_population_raises(self):
        cfg = make_config(arrival_rate_vps=0.0, discard_s=120.0)
        with pytest.raises(ConfigurationError):
            random_assignment_bounds(cfg, 10)

    @pytest.mark.parametrize("field_name,value", [("bounds_fill_count", 0), ("discard_s", -5.0)])
    def test_invalid_config_rejected_naming_field(self, field_name, value):
        # Set on the object, so no parsing or with_overrides checked it.
        cfg = RunConfig()
        setattr(cfg.sim, field_name, value)
        with pytest.raises(ConfigurationError, match=rf"^sim\.{field_name} "):
            random_assignment_bounds(cfg, 10)

    def test_negative_sample_count_rejected_before_warm_up(self, monkeypatch):
        def no_warm_up(*args):
            raise AssertionError("warm-up ran before num_samples was checked")

        monkeypatch.setattr(parkrsu.sim, "_warmed_up_parked_cells", no_warm_up)
        with pytest.raises(ValueError, match="num_samples"):
            random_assignment_bounds(toy_config(), -5)

    def test_fill_count_caps_population(self):
        cfg = make_config(bounds_fill_count=50, discard_s=600.0)
        result = random_assignment_bounds(cfg, 10)
        assert len(result.fill_cells) == 50

    @pytest.mark.parametrize(
        "overrides", [{}, {"mean_duration_s": 200.0}, {"mode": "day_profile"}], ids=["uniform", "churn", "day"]
    )
    def test_warm_up_leaves_the_simulation_parked_cars(self, overrides):
        # The traffic stream draws nothing for radio or decisions, so on the
        # simulation's traffic seed the warm-up must park and release the same
        # cars, in the same order, as a run of discard_s seconds.
        cfg = make_config(blocks_x=3, blocks_y=3, duration_s=600.0, discard_s=600.0, seed=5, **overrides)
        sim = Simulation(cfg)
        sim.run()
        rng = np.random.default_rng(np.random.SeedSequence([cfg.sim.seed, 0]))
        traffic = TrafficProcess(sim.model, sim.grid, rng, speed_mps=cfg.traffic.speed_mps)
        warm = _warmed_up_parked_cells(traffic, cfg.sim.discard_s)
        assert warm
        assert warm == [v.cell for v in sim._vehicles.values()]

    @pytest.mark.parametrize("num_samples", [400, 2500])
    def test_samples_replay_the_sampler_stream(self, tmp_path, num_samples):
        # Doubled range on a small city: the fill subsample puts several cars
        # on one cell, so the sampler's per-cell products weigh a cell by its
        # car count. Replaying its draws and merging every chosen set by hand
        # must give every sample, exactly and in order; 2500 samples span
        # several of the sampler's batches.
        cfg = make_config(blocks_x=3, blocks_y=3, range_multiplier=2.0, discard_s=600.0, bounds_fill_count=40, seed=11)
        result = random_assignment_bounds(cfg, num_samples)

        rng = np.random.default_rng(np.random.SeedSequence([cfg.sim.seed, 2]))
        grid, _, _, _, model = cfg.validate()
        traffic = TrafficProcess(model, grid, rng, speed_mps=cfg.traffic.speed_mps)
        fill = _warmed_up_parked_cells(traffic, cfg.sim.discard_s)
        assert len(fill) > cfg.sim.bounds_fill_count
        keep = rng.choice(len(fill), size=cfg.sim.bounds_fill_count, replace=False)
        fill = [fill[int(i)] for i in sorted(keep)]
        assert result.fill_cells == fill
        assert len(set(fill)) < len(fill)
        cache = FootprintCache(grid, build_propagation(cfg))
        expected = []
        for _ in range(num_samples):
            k = int(rng.integers(0, len(fill) + 1))
            if k:
                chosen = rng.choice(len(fill), size=k, replace=False)
                expected.append(merged_means([fill[int(i)] for i in chosen], cache))
        assert result.samples == expected
        if num_samples != 400:
            return

        # A change that must not move the sampler keeps this run's bounds.csv.
        write_bounds_csv(result.samples, tmp_path / "bounds.csv")
        digest = hashlib.sha256((tmp_path / "bounds.csv").read_bytes()).hexdigest()
        assert digest == "06294b633a101f42887c5e495c8b2bd0d1f76148887fc7868fc3fbaec1445357"

    @pytest.mark.parametrize(
        "overrides,digest",
        [
            ({}, "f5f29bb293b6d2620e7f684b002b1dcd1b6428c6a2c25fe880a905dc43e84695"),
            ({"range_multiplier": 2.0}, "aaef56ecf8fbe560f618d0acfa23489649afb91f4f138c4f5e37804c1ca0b34f"),
        ],
        ids=["default", "double-range"],
    )
    def test_bounds_csv_pinned_at_10000_samples(self, tmp_path, overrides, digest):
        # The parkrsu bounds default size, on the default city: 9987 non-empty
        # samples, nine full kernel batches and a partial one. Doubled range
        # gives denser column supports.
        result = random_assignment_bounds(make_config(**overrides), 10_000)
        write_bounds_csv(result.samples, tmp_path / "bounds.csv")
        assert hashlib.sha256((tmp_path / "bounds.csv").read_bytes()).hexdigest() == digest

    def test_deterministic_for_fixed_seed(self):
        cfg = toy_config(bounds_fill_count=6)
        a = random_assignment_bounds(cfg, 200)
        b = random_assignment_bounds(cfg, 200)
        assert a.fill_cells == b.fill_cells
        assert a.samples == b.samples
        assert a.skipped == b.skipped


def summed_level_totals(levels, car_at, chosen):
    """merged_totals of each sample's summed levels: car counts times the level table."""
    n_distinct = levels.shape[0]
    counts = np.stack([np.bincount(car_at[c], minlength=n_distinct) for c in chosen])
    reached = counts @ levels.reshape(n_distinct, -1).astype(np.int64)
    return merged_totals(reached.reshape(len(chosen), *levels.shape[1:]))


def union_totals(levels, car_at, chosen):
    """The bounds sampler's totals from union_counts: segments [level 1 | levels 2-5], contributors summed."""
    n_distinct, n_cells, _ = levels.shape
    picked = np.zeros((n_distinct, len(chosen)), bool)
    for s, cars in enumerate(chosen):
        picked[car_at[cars], s] = True
    table = levels.transpose(0, 2, 1).reshape(n_distinct, 5 * n_cells)
    covered, higher = union_counts(table, [n_cells])(picked)
    sizes = np.count_nonzero(levels[:, :, 0], axis=1)
    return covered, covered + higher, np.array([sizes[car_at[c]].sum() for c in chosen])


class TestUnionTotals:
    @pytest.mark.parametrize("n_samples", [1, 63, 64, 65, 1024])
    @pytest.mark.parametrize("density", [0.02, 0.3])
    def test_batches_match_summed_levels(self, n_samples, density):
        # Random 0/1 tables, not only reach_levels ones: the kernel counts
        # reached columns and needs no order between levels.
        rng = np.random.default_rng([n_samples, int(density * 100)])
        n_cars, n_distinct, n_cells = 40, 15, 70
        levels = rng.random((n_distinct, n_cells, 5)) < density
        car_at = rng.integers(0, n_distinct, n_cars)
        chosen = [rng.choice(n_cars, size=int(rng.integers(1, n_cars + 1)), replace=False) for _ in range(n_samples)]
        chosen[-1] = rng.permutation(n_cars)  # a sample that picks every car
        got = union_totals(levels, car_at, chosen)
        want = summed_level_totals(levels, car_at, chosen)
        assert [g.tolist() for g in got] == [w.tolist() for w in want]

    def test_one_car_population(self):
        rng = np.random.default_rng(4)
        levels = reach_levels(rng.integers(0, 6, (1, 30)).astype(np.int8))
        car_at = np.zeros(1, dtype=np.intp)
        chosen = [np.zeros(1, dtype=np.intp)] * 3
        got = union_totals(levels, car_at, chosen)
        want = summed_level_totals(levels, car_at, chosen)
        assert [g.tolist() for g in got] == [w.tolist() for w in want]
        assert got[2].tolist() == [np.count_nonzero(levels[0, :, 0])] * 3


def test_city_file_read_once_per_run(tmp_path, monkeypatch):
    city = tmp_path / "city.txt"
    save_city(build_grid(toy_config()), city)
    cfg = toy_config(city_file=str(city), bounds_fill_count=6)
    calls = []
    load_city = parkrsu.config.load_city
    monkeypatch.setattr(parkrsu.config, "load_city", lambda *a, **kw: calls.append(a) or load_city(*a, **kw))
    Simulation(cfg)
    assert len(calls) == 1
    random_assignment_bounds(cfg, 10)
    assert len(calls) == 2


class TestCsvWriters:
    def test_metrics_golden_row(self, tmp_path):
        path = tmp_path / "m.csv"
        sample = MetricsSample(0.0, 5, 0.25, 4.2, 1.5, 6426.0)
        write_metrics_csv([sample], path)
        assert path.read_text() == (
            METRICS_HEADER + "\n0,5,0.250000,4.200000,1.500000,6426.000\n"
        )

    def test_lifetimes_golden_row(self, tmp_path):
        path = tmp_path / "l.csv"
        write_lifetimes_csv([RsuLifetimeRecord(7, 60.0, 3660.0, CAUSE_FORCED)], path)
        assert path.read_text() == LIFETIMES_HEADER + "\n7,60,3660,forced_tau_M\n"

    def test_commands_golden_row(self, tmp_path):
        path = tmp_path / "c.csv"
        write_commands_csv([CommandRecord(61.0, 9, "assign", 9)], path)
        assert path.read_text() == COMMANDS_HEADER + "\n61,9,assign,9\n"

    def test_bounds_golden_row(self, tmp_path):
        path = tmp_path / "b.csv"
        write_bounds_csv([(3.25, 1.75)], path)
        assert path.read_text() == BOUNDS_HEADER + "\n3.250000,1.750000\n"

    def test_empty_writers_emit_header_only(self, tmp_path):
        path = tmp_path / "e.csv"
        write_metrics_csv([], path)
        assert path.read_text() == METRICS_HEADER + "\n"


class TestManifest:
    def test_manifest_contents_and_determinism(self, short_result_pair, tmp_path):
        cfg = make_config(duration_s=600.0, seed=3)
        result, _ = short_result_pair
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        write_manifest(cfg, result, pa, extra={"note": "x"})
        write_manifest(cfg, result, pb, extra={"note": "x"})
        assert pa.read_bytes() == pb.read_bytes()
        payload = json.loads(pa.read_text())
        assert payload["seed"] == 3
        assert payload["config_digest"] == cfg.digest()
        assert payload["config"]["duration_s"] == "600.0"
        assert payload["parking_events"] == result.parking_events
        assert payload["assignments"] == result.assignments
        assert payload["message_counts"] == result.message_counts
        assert payload["note"] == "x"

    def test_manifest_without_result(self, tmp_path):
        cfg = make_config()
        path = tmp_path / "m.json"
        write_manifest(cfg, None, path)
        payload = json.loads(path.read_text())
        assert "message_counts" not in payload
        assert payload["config_digest"] == cfg.digest()
