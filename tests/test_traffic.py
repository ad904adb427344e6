from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkrsu.errors import ConfigurationError, MalformedLineError
from parkrsu.grid import Cell, CityGrid, build_manhattan_city
from parkrsu.traffic import (
    DAY_PROFILE,
    DEFAULT_DAY_PROFILE,
    DEFAULT_SPEED_MPS,
    UNIFORM,
    ParkingModel,
    TrafficProcess,
    Vehicle,
    apportion_daily_counts,
    day_profile_model,
    draw_duration,
    load_day_profile,
    should_depart,
)

import oracles

AROUND = ((1, 0), (-1, 0), (0, 1), (0, -1))


def make_vehicle(grid, cell=None):
    cell = cell or grid.border_cells[0]
    x, y = grid.center_of(cell)
    return Vehicle(vid=1, x_m=x, y_m=y, cell=cell)


def walker(grid, rng, model=None, speed=DEFAULT_SPEED_MPS):
    """A traffic process to step or park hand-made vehicles; in uniform mode
    its constructor draws nothing from rng."""
    return TrafficProcess(model or ParkingModel(), grid, rng, speed_mps=speed)


class TestParkingModelValidation:
    def test_defaults(self):
        m = ParkingModel()
        assert m.mode == UNIFORM
        assert m.arrival_rate_vps == 0.5
        assert m.target_moving_vehicles == 55.0
        assert m.mean_duration_s == 3600.0

    def test_uniform_hazard_is_rate_over_target(self):
        m = ParkingModel(arrival_rate_vps=0.5, target_moving_vehicles=55.0)
        assert m.park_hazard_per_s == pytest.approx(0.5 / 55.0, rel=1e-15)

    def test_zero_rate_hazard_is_zero(self):
        assert ParkingModel(arrival_rate_vps=0.0).park_hazard_per_s == 0.0

    def test_day_mode_hazard_is_cruise_reciprocal(self):
        m = day_profile_model(4000, cruise_mean_s=120.0)
        assert m.park_hazard_per_s == pytest.approx(1.0 / 120.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mode="weekly"),
            dict(arrival_rate_vps=-0.1),
            dict(target_moving_vehicles=0),
            dict(mean_duration_s=0),
            dict(mode=DAY_PROFILE, daily_total=-1),
            dict(mode=DAY_PROFILE, cruise_mean_s=0),
            dict(mode=DAY_PROFILE, hourly_weights=(1.0,) * 23),
            dict(mode=DAY_PROFILE, hourly_weights=(0.0,) * 24),
            dict(mode=DAY_PROFILE, duration_law=((0.0, 0.5),) * 24),
            dict(arrival_rate_vps=math.nan),
            dict(arrival_rate_vps=math.inf),
        ],
    )
    def test_invalid_models_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ParkingModel(**kwargs)

    def test_default_profile_has_24_normalizable_rows(self):
        assert len(DEFAULT_DAY_PROFILE) == 24
        assert sum(w for w, _, _ in DEFAULT_DAY_PROFILE) == pytest.approx(1.0, abs=1e-9)
        m = day_profile_model(1000)
        assert sum(m.hourly_weights) == pytest.approx(1.0)


class TestApportionment:
    def test_exact_sum_and_largest_remainder(self):
        counts = apportion_daily_counts(10, [0.5, 0.25, 0.25])
        assert counts == [5, 3, 2]  # 2.5 rounds up first (largest remainder, lowest index)

    def test_sums_exactly_for_default_profile(self):
        for total in (0, 1, 7, 4000, 2000, 12345):
            counts = apportion_daily_counts(total, list(ParkingModel().hourly_weights))
            assert sum(counts) == total

    @settings(max_examples=60, deadline=None)
    @given(
        total=st.integers(0, 5000),
        weights=st.lists(st.floats(0.01, 10.0), min_size=2, max_size=24),
    )
    def test_counts_within_one_of_exact_quota(self, total, weights):
        counts = apportion_daily_counts(total, weights)
        assert sum(counts) == total
        wsum = sum(weights)
        for c, w in zip(counts, weights):
            q = total * w / wsum
            assert math.floor(q) <= c <= math.ceil(q)


class TestDayProfileIO:
    def write_profile(self, tmp_path, lines):
        p = tmp_path / "profile.csv"
        p.write_text("\n".join(lines) + "\n")
        return p

    def full_profile_lines(self):
        return ["hour,weight,median_s,sigma"] + [
            f"{h},{w},{m},{s}" for h, (w, m, s) in enumerate(DEFAULT_DAY_PROFILE)
        ]

    def test_round_trip(self, tmp_path):
        p = self.write_profile(tmp_path, self.full_profile_lines())
        assert load_day_profile(p) == DEFAULT_DAY_PROFILE

    def test_rows_reordered_by_hour(self, tmp_path):
        lines = self.full_profile_lines()
        body = list(reversed(lines[1:]))
        p = self.write_profile(tmp_path, [lines[0]] + body)
        assert load_day_profile(p) == DEFAULT_DAY_PROFILE

    def test_malformed_line_names_number(self, tmp_path):
        lines = self.full_profile_lines()
        lines[3] = "2,not_a_number,3600,0.5"
        p = self.write_profile(tmp_path, lines)
        with pytest.raises(MalformedLineError, match="line 4"):
            load_day_profile(p)

    def test_duplicate_hour_rejected(self, tmp_path):
        lines = self.full_profile_lines()
        lines[2] = lines[1]
        p = self.write_profile(tmp_path, lines)
        with pytest.raises(MalformedLineError, match="duplicate hour"):
            load_day_profile(p)

    def test_missing_hours_rejected(self, tmp_path):
        p = self.write_profile(tmp_path, self.full_profile_lines()[:-3])
        with pytest.raises(ConfigurationError, match="24 hours"):
            load_day_profile(p)

    def test_out_of_range_hour_rejected(self, tmp_path):
        lines = self.full_profile_lines()
        lines[1] = "24,0.01,3600,0.5"
        p = self.write_profile(tmp_path, lines)
        with pytest.raises(MalformedLineError, match="outside 0..23"):
            load_day_profile(p)


class TestMobility:
    def test_frozen_straight_step(self, rng):
        # One road line, so the vehicle must go straight: 8 m/s on 30.9 m
        # cells leaves it 8 m past its spawn center after one tick.
        usable = np.zeros((7, 1), dtype=bool)
        usable[:, 0] = True
        g = CityGrid(7, 1, usable, np.zeros((7, 1), dtype=bool), cell_size_m=30.9)
        tp = walker(g, rng)
        v = make_vehicle(g, Cell(0, 0))
        x0, _ = g.center_of(Cell(0, 0))
        tp.step(v)
        assert v.x_m == pytest.approx(x0 + 8.0)
        assert v.cell == Cell(0, 0)
        for _ in range(3):
            tp.step(v)
        # The cell hand-off happens on reaching the next center: 32 m > 30.9.
        assert v.cell == Cell(1, 0)
        assert v.x_m == pytest.approx(x0 + 32.0)

    def test_stays_on_usable_cells(self, default_city, rng):
        from parkrsu.grid import cell_of

        tp = walker(default_city, rng)
        v = make_vehicle(default_city)
        for _ in range(2000):
            tp.step(v)
            assert default_city.is_usable(v.cell)
            # Positions between centers always project onto the current leg.
            assert cell_of((v.x_m, v.y_m), default_city) in (v.cell, v.target)

    def test_never_reverses_mid_road(self, default_city, rng):
        tp = walker(default_city, rng)
        v = make_vehicle(default_city, Cell(4, 0))
        prev_cells = [v.cell]
        for _ in range(500):
            before = v.cell
            tp.step(v)
            if v.cell != before:
                prev_cells.append(v.cell)
        for a, b, c in zip(prev_cells, prev_cells[1:], prev_cells[2:]):
            # A direct return a -> b -> a only happens at a dead end, and the
            # default lattice has none.
            assert a != c or sum(default_city.is_usable(Cell(b.x + dx, b.y + dy)) for dx, dy in AROUND) == 1

    def test_dead_end_reverses(self, rng):
        usable = np.zeros((3, 1), dtype=bool)
        usable[:, 0] = True
        g = CityGrid(3, 1, usable, np.zeros((3, 1), dtype=bool), cell_size_m=10.0)
        tp = walker(g, rng)
        v = make_vehicle(g, Cell(0, 0))
        seen = set()
        for _ in range(40):
            tp.step(v)
            seen.add(v.cell)
        assert seen == {Cell(0, 0), Cell(1, 0), Cell(2, 0)}  # bounced off both ends

    @settings(max_examples=120, deadline=None)
    @given(
        width=st.integers(1, 7),
        height=st.integers(1, 7),
        origin=st.tuples(st.integers(-20, 5), st.integers(-20, 5)),
        roads=st.lists(st.booleans(), min_size=49, max_size=49),
        cell_size_m=st.floats(5.0, 45.0),
        cells_per_tick=st.floats(0.05, 3.0),
        start=st.integers(0, 48),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_step_matches_scalar_walker(self, width, height, origin, roads, cell_size_m, cells_per_tick, start, seed):
        # Random road masks leave dead ends and isolated road cells, which the
        # default lattice lacks; speeds fall on both sides of one cell per tick,
        # up to the grid's longer side per tick, the fastest TrafficProcess takes.
        usable = np.array(roads[: width * height]).reshape(width, height)
        usable[0, 0] = True  # a border road to spawn on
        g = CityGrid(width, height, usable, np.zeros_like(usable), origin=Cell(*origin), cell_size_m=cell_size_m)
        speed = min(cells_per_tick, max(width, height)) * cell_size_m
        tp = walker(g, np.random.default_rng(seed), speed=speed)
        ref_rng = np.random.default_rng(seed)
        cell = g.usable_cells[start % len(g.usable_cells)]
        v, ref = make_vehicle(g, cell), make_vehicle(g, cell)
        for _ in range(60):
            tp.step(v)
            oracles.walker_step(ref, g, speed, ref_rng)
            assert (v.cell, v.target, v.came_from) == (ref.cell, ref.target, ref.came_from)
            assert (v.x_m.hex(), v.y_m.hex()) == (ref.x_m.hex(), ref.y_m.hex())
        assert tp.rng.bit_generator.state == ref_rng.bit_generator.state

    def test_parked_vehicles_do_not_move(self, default_city, rng):
        v = make_vehicle(default_city)
        v.parked_at, v.planned_duration_s = 0.0, 600.0
        x, y = v.x_m, v.y_m
        walker(default_city, rng).step(v)
        assert (v.x_m, v.y_m) == (x, y)


class TestParkingProcess:
    def test_park_sets_state(self, default_city, rng):
        m = ParkingModel(arrival_rate_vps=55.0, target_moving_vehicles=55.0)  # hazard 1.0
        v = make_vehicle(default_city)
        assert v.parked_at is None
        assert walker(default_city, rng, m).maybe_park(v, t=17.0) is True
        assert v.parked_at == 17.0
        assert v.planned_duration_s > 0

    def test_zero_hazard_never_parks(self, default_city, rng):
        m = ParkingModel(arrival_rate_vps=0.0)
        v = make_vehicle(default_city)
        tp = walker(default_city, rng, m)
        assert not any(tp.maybe_park(v, t) for t in range(1000))

    def test_parked_vehicle_cannot_park_again(self, default_city, rng):
        m = ParkingModel(arrival_rate_vps=55.0, target_moving_vehicles=55.0)
        tp = walker(default_city, rng, m)
        v = make_vehicle(default_city)
        assert tp.maybe_park(v, 0.0) is True
        parked = (v.parked_at, v.planned_duration_s)
        assert tp.maybe_park(v, 1.0) is False
        assert (v.parked_at, v.planned_duration_s) == parked

    def test_hazard_statistics(self, default_city):
        rng = np.random.default_rng(7)
        tp = walker(default_city, rng, ParkingModel())  # hazard 1/110
        trials = 20000
        parks = 0
        for _ in range(trials):
            v = make_vehicle(default_city)
            if tp.maybe_park(v, 0.0):
                parks += 1
        assert parks / trials == pytest.approx(1 / 110, rel=0.2)

    def test_departure_at_planned_time(self):
        v = Vehicle(1, 0, 0, Cell(0, 0), parked_at=100.0, planned_duration_s=50.0)
        assert not should_depart(v, 149.9)
        assert should_depart(v, 150.0)
        assert should_depart(v, 151.0)

    def test_moving_vehicle_never_departs(self):
        v = Vehicle(1, 0, 0, Cell(0, 0))
        assert not should_depart(v, 1e9)

    def test_uniform_duration_mean(self):
        rng = np.random.default_rng(3)
        m = ParkingModel(mean_duration_s=1800.0)
        draws = [draw_duration(m, 0.0, rng) for _ in range(20000)]
        assert np.mean(draws) == pytest.approx(1800.0, rel=0.05)

    def test_day_profile_duration_median_tracks_hour(self):
        rng = np.random.default_rng(4)
        m = day_profile_model(1000)
        for hour in (8, 12, 20):
            median, _ = m.duration_law[hour]
            draws = [draw_duration(m, hour * 3600.0 + 10.0, rng) for _ in range(4000)]
            assert np.median(draws) == pytest.approx(median, rel=0.1)


class TestTrafficProcess:
    def test_ids_are_sequential_from_one(self, default_city):
        tp = TrafficProcess(ParkingModel(arrival_rate_vps=5.0), default_city, np.random.default_rng(0))
        vids = [v.vid for t in range(20) for v in tp.spawn(float(t))]
        assert vids == list(range(1, len(vids) + 1))

    def test_spawns_on_usable_border(self, default_city):
        tp = TrafficProcess(ParkingModel(arrival_rate_vps=5.0), default_city, np.random.default_rng(1))
        border = set(default_city.border_cells)
        for t in range(50):
            for v in tp.spawn(float(t)):
                assert v.cell in border
                assert v.parked_at is None
                assert (v.x_m, v.y_m) == default_city.center_of(v.cell)

    def test_poisson_arrival_rate(self, default_city):
        tp = TrafficProcess(ParkingModel(arrival_rate_vps=0.5), default_city, np.random.default_rng(2))
        n = sum(len(tp.spawn(float(t))) for t in range(20000))
        assert n / 20000 == pytest.approx(0.5, rel=0.05)

    def test_day_schedule_spawns_exact_daily_total(self, default_city):
        m = day_profile_model(400)
        tp = TrafficProcess(m, default_city, np.random.default_rng(5))
        total = sum(len(tp.spawn(float(t))) for t in range(86400))
        assert total == 400

    def test_day_schedule_hourly_counts_match_apportionment(self, default_city):
        m = day_profile_model(973)
        tp = TrafficProcess(m, default_city, np.random.default_rng(6))
        per_hour = [0] * 24
        for t in range(86400):
            per_hour[t // 3600] += len(tp.spawn(float(t)))
        assert per_hour == apportion_daily_counts(973, m.hourly_weights)

    def test_moving_population_settles_near_target(self, default_city):
        # M/M/inf: mean moving population = rate / hazard = target.
        rng = np.random.default_rng(8)
        model = ParkingModel(arrival_rate_vps=0.5, target_moving_vehicles=55.0)
        tp = TrafficProcess(model, default_city, rng)
        moving: list[Vehicle] = []
        counts = []
        for t in range(4000):
            moving.extend(tp.spawn(float(t)))
            still = []
            for v in moving:
                if not tp.maybe_park(v, float(t)):
                    still.append(v)
            moving = still
            if t >= 1000:
                counts.append(len(moving))
        expected = oracles.mm_infinite_mean(0.5, 110.0, 1e9)  # rate x mean cruise
        assert np.mean(counts) == pytest.approx(expected, rel=0.15)

    def test_grid_without_border_roads_rejected(self):
        usable = np.zeros((5, 5), dtype=bool)
        usable[2, 2] = True
        g = CityGrid(5, 5, usable, np.zeros((5, 5), dtype=bool))
        with pytest.raises(ConfigurationError):
            TrafficProcess(ParkingModel(), g, np.random.default_rng(0))

    def test_deterministic_given_seed(self, default_city):
        def trace(seed):
            tp = TrafficProcess(ParkingModel(arrival_rate_vps=2.0), default_city, np.random.default_rng(seed))
            vehicles = []
            out = []
            for t in range(200):
                vehicles.extend(tp.spawn(float(t)))
                for v in vehicles:
                    tp.step(v)
                    tp.maybe_park(v, float(t))
                out.append([(v.vid, round(v.x_m, 9), round(v.y_m, 9), v.parked_at) for v in vehicles])
            return out

        assert trace(42) == trace(42)
        assert trace(42) != trace(43)


class TestTick:
    @pytest.mark.parametrize(
        "model,start", [(ParkingModel(), 0), (day_profile_model(4000), 8 * 3600)], ids=["uniform", "day"]
    )
    def test_tick_is_spawn_then_step_then_park(self, default_city, model, start):
        # tick fixes the order of a tick's draws; the hand loop spells it out
        # on a second process with the same seed.
        ticked = TrafficProcess(model, default_city, np.random.default_rng(7))
        by_hand = TrafficProcess(model, default_city, np.random.default_rng(7))
        moving: list[Vehicle] = []
        parked_total = 0
        for t in range(start, start + 400):
            parked = ticked.tick(float(t))
            moving.extend(by_hand.spawn(float(t)))
            for v in moving:
                by_hand.step(v)
            expected = [v for v in moving if by_hand.maybe_park(v, float(t))]
            moving = [v for v in moving if v.parked_at is None]
            assert parked == expected
            assert ticked.moving == moving
            parked_total += len(parked)
        assert parked_total > 0
        assert all(v.parked_at is None for v in ticked.moving)
        assert ticked.rng.bit_generator.state == by_hand.rng.bit_generator.state


class TestManhattanIntegration:
    def test_vehicle_explores_lattice(self, rng):
        g = build_manhattan_city(blocks_x=2, blocks_y=2)
        tp = walker(g, rng)
        v = make_vehicle(g)
        visited = set()
        for _ in range(3000):
            tp.step(v)
            visited.add(v.cell)
        assert len(visited) > len(g.usable_cells) * 0.5
