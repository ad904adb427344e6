from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkrsu.errors import ConfigurationError, OutOfBoundsError
from parkrsu.grid import Cell, CityGrid, build_manhattan_city
from parkrsu.radio import (
    BAND_FRACTIONS,
    DEFAULT_NOISE_SD,
    FootprintCache,
    NoBeaconError,
    PropagationConfig,
    cells_on_segment,
    rssi_to_strength,
    sample_rssi,
    sample_rssi_many,
    strength,
    strength_to_rssi_center,
    synthesize_beacon_log,
)

import oracles


def open_grid(n=13, cell=10.0):
    usable = np.ones((n, n), dtype=bool)
    return CityGrid(n, n, usable, np.zeros((n, n), dtype=bool), cell_size_m=cell)


class TestPropagationConfig:
    def test_default_band_edges_frozen(self):
        cfg = PropagationConfig()
        assert cfg.band_edges_m == (38.75, 77.5, 116.25, 155.0)
        assert cfg.max_range_m == 155.0

    def test_multiplier_scales_every_edge(self):
        cfg = PropagationConfig(range_multiplier=2.0)
        assert cfg.band_edges_m == (77.5, 155.0, 232.5, 310.0)

    def test_explicit_edges_accepted(self):
        cfg = PropagationConfig(base_range_m=100.0, band_edges_m=(10, 20, 50, 100))
        assert cfg.band_edges_m == (10.0, 20.0, 50.0, 100.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(base_range_m=0.0),
            dict(range_multiplier=-1.0),
            dict(nlos_penalty=-2),
            dict(band_edges_m=(10, 20, 30)),
            dict(band_edges_m=(10, 10, 30, 155)),
            dict(band_edges_m=(10, 20, 30, 100)),  # last edge != max range
            dict(band_edges_m=(-5, 10, 20, 155)),  # only the source would reach class 5
            dict(band_edges_m=(0, 10, 20, 155)),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            PropagationConfig(**kwargs)

    def test_fractions_are_quarters(self):
        assert BAND_FRACTIONS == (0.25, 0.5, 0.75, 1.0)


class TestDistanceBands:
    def test_bands_match_linear_search_oracle_everywhere(self):
        g = open_grid(13, cell=10.0)
        cfg = PropagationConfig(nlos_penalty=0)
        tx = Cell(6, 6)
        for rx in g.usable_cells:
            d = math.hypot(rx.x - tx.x, rx.y - tx.y) * 10.0
            assert strength(tx, rx, g, cfg) == oracles.oracle_band_class(d, cfg.band_edges_m)

    def test_exact_edge_distances_stay_in_band(self):
        # cell 38.75 m: one step = first edge, four steps = the outer edge.
        g = open_grid(7, cell=38.75)
        cfg = PropagationConfig(nlos_penalty=0)
        assert strength(Cell(0, 0), Cell(1, 0), g, cfg) == 5
        assert strength(Cell(0, 0), Cell(2, 0), g, cfg) == 4
        assert strength(Cell(0, 0), Cell(3, 0), g, cfg) == 3
        assert strength(Cell(0, 0), Cell(4, 0), g, cfg) == 2
        assert strength(Cell(0, 0), Cell(5, 0), g, cfg) == 0

    def test_self_link_is_maximal(self, one_block, prop):
        assert strength(Cell(0, 0), Cell(0, 0), one_block, prop) == 5

    def test_out_of_grid_cells_rejected(self, one_block, prop):
        with pytest.raises(OutOfBoundsError):
            strength(Cell(-1, 0), Cell(0, 0), one_block, prop)
        with pytest.raises(OutOfBoundsError):
            strength(Cell(0, 0), Cell(99, 0), one_block, prop)

    def test_symmetry(self, default_city, prop):
        pairs = [(Cell(0, 0), Cell(4, 0)), (Cell(0, 4), Cell(4, 0)), (Cell(8, 0), Cell(12, 3))]
        for a, b in pairs:
            assert strength(a, b, default_city, prop) == strength(b, a, default_city, prop)


class TestLineOfSight:
    def build_wall_grid(self):
        # 7x7 open field with a single building cell in the middle.
        usable = np.ones((7, 7), dtype=bool)
        obstruction = np.zeros((7, 7), dtype=bool)
        usable[3, 3] = False
        obstruction[3, 3] = True
        return CityGrid(7, 7, usable, obstruction, cell_size_m=30.9)

    def test_straight_path_through_building_is_penalized(self):
        g = self.build_wall_grid()
        cfg = PropagationConfig()
        # 4 cells = 123.6 m, band class 2; penalty 2 floors at 0.
        assert strength(Cell(1, 3), Cell(5, 3), g, cfg) == 0
        # 2 cells = 61.8 m, class 4; penalty brings it to 2.
        assert strength(Cell(2, 3), Cell(4, 3), g, cfg) == 2

    def test_clear_path_keeps_band_class(self):
        g = self.build_wall_grid()
        cfg = PropagationConfig()
        assert strength(Cell(1, 2), Cell(5, 2), g, cfg) == 2

    def test_penalty_applied_once_for_multiple_crossings(self):
        usable = np.ones((9, 9), dtype=bool)
        obstruction = np.zeros((9, 9), dtype=bool)
        for x in (3, 5):
            usable[x, 4] = False
            obstruction[x, 4] = True
        g = CityGrid(9, 9, usable, obstruction, cell_size_m=30.9)
        cfg = PropagationConfig(nlos_penalty=1)
        # 6 cells = 185.4 m would be out of range; use 4 cells = 123.6 m, class 2.
        assert strength(Cell(2, 4), Cell(6, 4), g, cfg) == 1

    def test_zero_penalty_ignores_obstructions(self):
        g = self.build_wall_grid()
        cfg = PropagationConfig(nlos_penalty=0)
        assert strength(Cell(2, 3), Cell(4, 3), g, cfg) == 4

    def test_diagonal_corner_contact_is_not_a_crossing(self):
        # The exact diagonal steps corner-to-corner: (0,0) (1,1) (2,2); the
        # off-diagonal neighbors are never entered.
        usable = np.ones((3, 3), dtype=bool)
        obstruction = np.zeros((3, 3), dtype=bool)
        usable[1, 0] = False
        obstruction[1, 0] = True
        g = CityGrid(3, 3, usable, obstruction, cell_size_m=30.9)
        cfg = PropagationConfig()
        assert strength(Cell(0, 0), Cell(2, 2), g, cfg) == 3  # 87.4 m, clear

    def test_diagonal_blocked_by_corner_cell_itself(self):
        usable = np.ones((3, 3), dtype=bool)
        obstruction = np.zeros((3, 3), dtype=bool)
        usable[1, 1] = False
        obstruction[1, 1] = True
        g = CityGrid(3, 3, usable, obstruction, cell_size_m=30.9)
        cfg = PropagationConfig()
        assert strength(Cell(0, 0), Cell(2, 2), g, cfg) == 1  # class 3 minus 2


class TestSegmentTraversal:
    def test_identical_endpoints(self):
        assert cells_on_segment(Cell(2, 2), Cell(2, 2)) == [Cell(2, 2)]

    def test_straight_lines(self):
        assert cells_on_segment(Cell(0, 0), Cell(3, 0)) == [
            Cell(0, 0),
            Cell(1, 0),
            Cell(2, 0),
            Cell(3, 0),
        ]
        assert cells_on_segment(Cell(0, 2), Cell(0, 0)) == [Cell(0, 2), Cell(0, 1), Cell(0, 0)]

    def test_exact_diagonal_steps_through_corners(self):
        assert cells_on_segment(Cell(0, 0), Cell(2, 2)) == [Cell(0, 0), Cell(1, 1), Cell(2, 2)]
        assert cells_on_segment(Cell(1, 1), Cell(-1, -1)) == [Cell(1, 1), Cell(0, 0), Cell(-1, -1)]

    def test_knight_move_frozen(self):
        # Hand-checked: the segment (0.5,0.5) -> (2.5,1.5) in cell units
        # crosses x=1 at y=0.75, x=2 at y=1.25, and y=1 at x=1.5.
        assert cells_on_segment(Cell(0, 0), Cell(2, 1)) == [
            Cell(0, 0),
            Cell(1, 0),
            Cell(1, 1),
            Cell(2, 1),
        ]

    def test_endpoints_always_included(self):
        path = cells_on_segment(Cell(-3, 4), Cell(5, -2))
        assert path[0] == Cell(-3, 4)
        assert path[-1] == Cell(5, -2)

    def test_path_is_connected(self):
        path = cells_on_segment(Cell(0, 0), Cell(7, 3))
        for a, b in zip(path, path[1:]):
            assert max(abs(a.x - b.x), abs(a.y - b.y)) == 1

    @settings(max_examples=120, deadline=None)
    @given(
        ax=st.integers(-6, 6),
        ay=st.integers(-6, 6),
        bx=st.integers(-6, 6),
        by=st.integers(-6, 6),
    )
    def test_matches_dense_sampling_oracle(self, ax, ay, bx, by):
        a, b = Cell(ax, ay), Cell(bx, by)
        if not oracles.segment_is_unambiguous(a, b):
            return
        assert set(cells_on_segment(a, b)) == oracles.oracle_segment_cells(a, b)


class TestRssiScale:
    def test_class_centers_frozen(self):
        assert [strength_to_rssi_center(s) for s in range(1, 6)] == [10, 20, 30, 40, 50]

    def test_center_rejects_invalid_class(self):
        for bad in (0, 6, -1):
            with pytest.raises(ValueError):
                strength_to_rssi_center(bad)

    def test_rssi_to_strength_matches_table_oracle(self):
        for rssi in range(1, 51):
            assert rssi_to_strength(rssi) == oracles.oracle_rssi_class(rssi)

    def test_bin_edges_frozen(self):
        assert rssi_to_strength(10) == 1
        assert rssi_to_strength(11) == 2
        assert rssi_to_strength(50) == 5

    def test_out_of_scale_rejected(self):
        for bad in (0, 51):
            with pytest.raises(ValueError):
                rssi_to_strength(bad)

    def test_round_trip_center_is_own_class(self):
        for s in range(1, 6):
            assert rssi_to_strength(strength_to_rssi_center(s)) == s


class TestRssiSampling:
    def test_zero_noise_returns_center(self, rng):
        for s in range(1, 6):
            assert sample_rssi(s, 0.0, rng) == s * 10

    def test_class_zero_has_no_beacon(self, rng):
        with pytest.raises(NoBeaconError):
            sample_rssi(0, 3.0, rng)

    def test_samples_always_clamped(self, rng):
        values = [sample_rssi(5, 1000.0, rng) for _ in range(500)]
        assert all(1 <= v <= 50 for v in values)
        assert max(values) == 50 and min(values) == 1  # huge noise hits both rails

    def test_distribution_moments(self, rng):
        vals = np.array([sample_rssi(3, DEFAULT_NOISE_SD, rng) for _ in range(10000)])
        assert abs(vals.mean() - 30.0) < 0.15
        assert 2.5 < vals.std() < 3.5

    def test_vector_form_matches_scalar_distribution(self):
        r1 = np.random.default_rng(42)
        r2 = np.random.default_rng(42)
        scalar = [sample_rssi(4, 3.0, r1) for _ in range(200)]
        vector = sample_rssi_many(np.full(200, 4), 3.0, r2)
        # Same generator state stream, same arithmetic: the first scalar draw
        # equals the first vector element only when noise draws line up, so
        # compare distributions rather than sequences.
        assert abs(np.mean(scalar) - vector.mean()) < 0.8
        assert set(np.unique(vector)).issubset(set(range(1, 51)))

    def test_vector_zero_noise_exact(self, rng):
        out = sample_rssi_many(np.array([1, 2, 3, 4, 5]), 0.0, rng)
        assert list(out) == [10, 20, 30, 40, 50]

    def test_vector_rejects_class_zero(self, rng):
        with pytest.raises(NoBeaconError):
            sample_rssi_many(np.array([3, 0]), 3.0, rng)

    def test_vector_empty_input(self, rng):
        assert sample_rssi_many(np.array([], dtype=int), 3.0, rng).size == 0

    @pytest.mark.parametrize("noise_sd", [-1.0, -1e-9, math.nan], ids=["negative", "tiny-negative", "nan"])
    def test_invalid_noise_rejected_not_skipped(self, rng, noise_sd):
        # Each compares false with 0: unchecked, it would skip the noise and return the center.
        with pytest.raises(ValueError, match="noise_sd"):
            sample_rssi(3, noise_sd, rng)
        with pytest.raises(ValueError, match="noise_sd"):
            sample_rssi_many(np.array([3, 4]), noise_sd, rng)

    @settings(max_examples=60, deadline=None)
    @given(
        chunks=st.lists(st.lists(st.integers(1, 5), max_size=12), max_size=8),
        noise_sd=st.floats(0.0, 20.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_call_over_concatenation_equals_one_call_per_chunk(self, chunks, noise_sd, seed):
        # The simulation draws one tick's readings for every learner at once.
        whole = sample_rssi_many(
            np.array([s for chunk in chunks for s in chunk], dtype=np.int64),
            noise_sd,
            np.random.default_rng(seed),
        )
        rng = np.random.default_rng(seed)
        parts = [sample_rssi_many(np.array(chunk, dtype=np.int64), noise_sd, rng) for chunk in chunks]
        assert whole.tolist() == [int(r) for part in parts for r in part]


class TestFootprintCache:
    def test_matches_pairwise_strength(self, one_block, prop):
        cache = FootprintCache(one_block, prop)
        for cell in one_block.usable_cells:
            fp = cache.footprint(cell)
            expected = {
                u: strength(cell, u, one_block, prop)
                for u in one_block.usable_cells
                if strength(cell, u, one_block, prop) >= 1
            }
            assert fp == expected

    def test_includes_self_at_max(self, default_city, prop):
        cache = FootprintCache(default_city, prop)
        c = default_city.usable_cells[17]
        assert cache.footprint(c)[c] == 5

    def test_footprints_are_symmetric(self, default_city, prop):
        cache = FootprintCache(default_city, prop)
        cells = default_city.usable_cells[:40]
        for a in cells[:8]:
            for b in cells:
                assert cache.footprint(a).get(b, 0) == cache.footprint(b).get(a, 0)

    def test_only_usable_cells_appear(self, one_block, prop):
        cache = FootprintCache(one_block, prop)
        for cell, s in cache.footprint(Cell(0, 0)).items():
            assert one_block.is_usable(cell)
            assert 1 <= s <= 5

    def test_cache_returns_same_object(self, one_block, prop):
        cache = FootprintCache(one_block, prop)
        assert cache.footprint(Cell(0, 0)) is cache.footprint(Cell(0, 0))

    def test_rows_match_footprints(self, default_city, prop):
        cache = FootprintCache(default_city, prop)
        cells = default_city.usable_cells
        assert [cache.index[c] for c in cells] == list(range(len(cells)))
        for c in cells:
            row = cache.row(c)
            assert row.shape == (len(cells),) and row.dtype == np.int8
            assert {cells[i]: int(row[i]) for i in np.flatnonzero(row)} == cache.footprint(c)
            assert cache.row(c) is row and not row.flags.writeable

    def test_rows_are_symmetric(self, default_city, prop):
        cache = FootprintCache(default_city, prop)
        cells = default_city.usable_cells
        rows = np.stack([cache.row(c) for c in cells])
        # rows[index[a], index[b]] == row(a)[index[b]]
        assert np.array_equal(rows, rows.T)

    @pytest.mark.parametrize("source", [Cell(-1, 0), Cell(1000, 1000)], ids=["near", "far"])
    def test_source_outside_grid_rejected(self, default_city, prop, source):
        # A far source has no in-grid cell in its window, so nothing else would reject it.
        cache = FootprintCache(default_city, prop)
        with pytest.raises(OutOfBoundsError):
            cache.footprint(source)
        with pytest.raises(OutOfBoundsError):
            cache.row(source)

    @settings(max_examples=80, deadline=None)
    @given(
        width=st.integers(1, 9),
        height=st.integers(1, 9),
        origin=st.tuples(st.integers(-20, -1), st.integers(-20, -1)),
        kinds=st.lists(st.sampled_from(["ground", "road", "building"]), min_size=81, max_size=81),
        cell_size_m=st.floats(7.0, 45.0),
        range_multiplier=st.floats(0.5, 3.0),
        half_cells=st.one_of(
            st.none(),
            st.lists(st.integers(1, 14), min_size=4, max_size=4, unique=True).map(sorted),
        ),
        reach_cells=st.floats(1.0, 5.0),
        nlos_penalty=st.integers(0, 3),
    )
    def test_stencil_kernel_matches_pairwise_strength(
        self, width, height, origin, kinds, cell_size_m, range_multiplier, half_cells, reach_cells, nlos_penalty
    ):
        # Explicit band edges sit on multiples of half a cell, so straight and
        # some diagonal offsets land exactly on an edge; the default edges
        # are plain fractions of the range.
        kind = np.array(kinds[: width * height]).reshape(width, height)
        usable, obstruction = kind == "road", kind == "building"
        if not usable.any():
            usable[0, 0], obstruction[0, 0] = True, False
        g = CityGrid(width, height, usable, obstruction, origin=Cell(*origin), cell_size_m=cell_size_m)
        if half_cells is None:
            cfg = PropagationConfig(
                base_range_m=reach_cells * cell_size_m,
                range_multiplier=range_multiplier,
                nlos_penalty=nlos_penalty,
            )
        else:
            edges = tuple(h * cell_size_m / 2 for h in half_cells)
            cfg = PropagationConfig(
                base_range_m=edges[-1] / range_multiplier,
                range_multiplier=range_multiplier,
                nlos_penalty=nlos_penalty,
                band_edges_m=edges,
            )
        cache = FootprintCache(g, cfg)
        cells = g.usable_cells
        for a in cells:
            expected = {b: strength(a, b, g, cfg) for b in cells if strength(a, b, g, cfg) >= 1}
            assert cache.footprint(a) == expected
            row = cache.row(a)
            assert {cells[i]: int(row[i]) for i in np.flatnonzero(row)} == expected


class TestSyntheticBeaconLog:
    def test_rows_match_declared_truth(self, one_block, prop, rng):
        rows, truth = synthesize_beacon_log(one_block, prop, Cell(0, 0), rng)
        assert truth == FootprintCache(one_block, prop).footprint(Cell(0, 0))
        cells_seen = {cell for _, _, cell, _ in rows}
        assert cells_seen == set(truth)
        assert all(1 <= rssi <= 50 for _, _, _, rssi in rows)

    def test_deterministic_per_seed(self, one_block, prop):
        a, _ = synthesize_beacon_log(one_block, prop, Cell(0, 0), np.random.default_rng(9))
        b, _ = synthesize_beacon_log(one_block, prop, Cell(0, 0), np.random.default_rng(9))
        assert a == b

    def test_sample_volume_scales(self, one_block, prop):
        few, _ = synthesize_beacon_log(
            one_block, prop, Cell(0, 0), np.random.default_rng(1), mean_samples_per_cell=10
        )
        many, _ = synthesize_beacon_log(
            one_block, prop, Cell(0, 0), np.random.default_rng(1), mean_samples_per_cell=300
        )
        assert len(many) > len(few)
