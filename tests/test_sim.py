"""Tests for the tick-loop simulation, bounds sampler, and run artifacts."""

from __future__ import annotations

import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from parkrsu.config import RunConfig, build_grid, build_propagation
from parkrsu.errors import ConfigurationError
from parkrsu.radio import FootprintCache
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
    Message,
    MetricsSample,
    RsuLifetimeRecord,
    Simulation,
    _warmed_up_parked_cells,
    random_assignment_bounds,
    run,
    steady_state_stats,
    write_bounds_csv,
    write_commands_csv,
    write_lifetimes_csv,
    write_manifest,
    write_metrics_csv,
)

from oracles import mean_sd

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

    def test_different_seed_differs(self, short_result_pair):
        a, _ = short_result_pair
        c = Simulation(make_config(duration_s=600.0, seed=4)).run()
        assert a.metrics != c.metrics

    def test_run_helper_matches_simulation_class(self, short_result_pair):
        a, _ = short_result_pair
        helper = run(make_config(duration_s=600.0, seed=3))
        assert helper.metrics == a.metrics
        assert helper.commands == a.commands


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


class _Poison:
    """Payload stand-in that explodes on any attribute access."""

    def __getattr__(self, name):  # pragma: no cover - only if a bug reads it
        raise AssertionError(f"undelivered payload was read (attribute {name!r})")


class _PoisoningSim(Simulation):
    def _deliver(self, msg: Message, sender_cell, recipient_cell):
        delivered = super()._deliver(msg, sender_cell, recipient_cell)
        if delivered is None:
            object.__setattr__(msg, "payload", _Poison())
        return delivered


class _MapBlackoutSim(Simulation):
    def _deliver(self, msg: Message, sender_cell, recipient_cell):
        if msg.kind in {KIND_MAP_REQUEST, KIND_MAP_RESPONSE}:
            return None
        return super()._deliver(msg, sender_cell, recipient_cell)


class TestMessageLocality:
    def test_corrupting_undelivered_payloads_changes_nothing(self):
        cfg = make_config(duration_s=600.0, seed=2)
        baseline = Simulation(cfg).run()
        poisoned = _PoisoningSim(cfg).run()
        assert poisoned.metrics == baseline.metrics
        assert poisoned.commands == baseline.commands
        assert poisoned.lifetimes == baseline.lifetimes
        assert poisoned.message_counts == baseline.message_counts

    def test_cutting_map_exchange_blinds_decisions(self):
        cfg = make_config(duration_s=900.0, seed=2)
        result = _MapBlackoutSim(cfg).run()
        assert result.message_counts[KIND_MAP_REQUEST] == 0
        assert result.message_counts[KIND_MAP_RESPONSE] == 0
        assert result.decisions > 0
        # With no neighbor maps every maker sees only itself: activating is
        # always strictly better than staying dark, and nobody can be revoked.
        assigns = [c for c in result.commands if c.verb == "assign"]
        assert len(assigns) == result.decisions
        assert not any(c.verb == "revoke" for c in result.commands)
        assert not any(r.cause == CAUSE_DECISION for r in result.lifetimes)


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
        for covered, s in cache.footprint(cell).items():
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
        warm = _warmed_up_parked_cells(cfg, rng, build_grid(cfg))
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
        grid = build_grid(cfg)
        fill = _warmed_up_parked_cells(cfg, rng, grid)
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

    def test_deterministic_for_fixed_seed(self):
        cfg = toy_config(bounds_fill_count=6)
        a = random_assignment_bounds(cfg, 200)
        b = random_assignment_bounds(cfg, 200)
        assert a.fill_cells == b.fill_cells
        assert a.samples == b.samples
        assert a.skipped == b.skipped


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
