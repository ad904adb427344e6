from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from parkrsu.decision import ActiveRsu, CandidatePool, CoverageSolution, compute_attributes
from parkrsu.errors import MalformedLineError
from parkrsu.grid import Cell
from parkrsu.maps import (
    DEFAULT_MIN_SAMPLES,
    CoverageMap,
    CoverageMapBuilder,
    parse_beacon_log,
    read_beacon_log,
    write_beacon_log,
    write_cell_stats_csv,
    write_coverage_csv,
)
from parkrsu.radio import FootprintCache, synthesize_beacon_log

import oracles


class TestCoverageMap:
    def test_valid_strengths_accepted(self):
        m = CoverageMap(7, {Cell(0, 0): 1, Cell(1, 0): 5})
        assert m.covered_count == 2

    @pytest.mark.parametrize("bad", [0, 6, -3])
    def test_invalid_strength_rejected(self, bad):
        with pytest.raises(ValueError):
            CoverageMap(7, {Cell(0, 0): bad})

    def test_empty_map_is_valid(self):
        assert CoverageMap(1, {}).covered_count == 0


class TestBuilderRecording:
    def test_single_sample(self):
        b = CoverageMapBuilder(owner=3)
        b.record(Cell(2, 2), 30)
        _, stats = b.finalize(min_samples=1)
        (st,) = stats
        assert (st.cell, st.count, st.mean_rssi, st.sd_rssi) == (Cell(2, 2), 1, 30.0, 0.0)

    def test_two_point_statistics(self):
        b = CoverageMapBuilder(owner=3)
        b.record(Cell(0, 0), 20)
        b.record(Cell(0, 0), 40)
        _, stats = b.finalize(min_samples=1)
        assert stats[0].mean_rssi == 30.0
        assert stats[0].sd_rssi == 10.0  # population sd over {20, 40}

    @pytest.mark.parametrize("bad", [0, 51, -1])
    def test_out_of_scale_rssi_rejected(self, bad):
        b = CoverageMapBuilder(owner=1)
        with pytest.raises(ValueError):
            b.record(Cell(0, 0), bad)

    def test_observed_cells_counts_distinct(self):
        b = CoverageMapBuilder(owner=1)
        for _ in range(4):
            b.record(Cell(0, 0), 25)
        b.record(Cell(1, 0), 25)
        assert b.observed_cells == 2

    def test_order_independence(self):
        stream = [(Cell(i % 3, i % 2), 10 + (i * 7) % 40) for i in range(100)]
        shuffled = stream.copy()
        random.Random(99).shuffle(shuffled)
        builders = []
        for rows in (stream, shuffled):
            b = CoverageMapBuilder(owner=1)
            for cell, rssi in rows:
                b.record(cell, rssi)
            builders.append(b)
        assert builders[0].finalize() == builders[1].finalize()

    def test_stats_match_arithmetic_oracle(self, rng):
        b = CoverageMapBuilder(owner=1)
        values = [int(v) for v in rng.integers(1, 51, size=60)]
        for v in values:
            b.record(Cell(5, 5), v)
        _, (st,) = b.finalize()
        mean, sd = oracles.mean_sd(values)
        assert st.count == 60
        assert st.mean_rssi == pytest.approx(mean, rel=1e-12)
        assert st.sd_rssi == pytest.approx(sd, rel=1e-12)
        assert sum(st.histogram) == 60


class TestQuantization:
    def make(self, values, min_samples=1):
        b = CoverageMapBuilder(owner=1)
        for v in values:
            b.record(Cell(0, 0), v)
        return b.finalize(min_samples=min_samples)

    def test_constant_top_class(self):
        cmap, _ = self.make([50, 50, 50], min_samples=3)
        assert cmap.cells == {Cell(0, 0): 5}

    def test_below_min_samples_excluded_from_map_not_stats(self):
        cmap, stats = self.make([30, 30], min_samples=3)
        assert cmap.cells == {}
        assert stats[0].count == 2

    def test_default_min_samples_is_five(self):
        cmap, _ = self.make([40] * 4, min_samples=DEFAULT_MIN_SAMPLES)
        assert cmap.cells == {}
        cmap, _ = self.make([40] * 5, min_samples=DEFAULT_MIN_SAMPLES)
        assert cmap.cells == {Cell(0, 0): 4}

    def test_mean_then_quantize_rounding(self):
        # round() is half-even: mean 30.5 -> 30 -> class 3; mean 31.5 -> 32 -> class 4.
        cmap, _ = self.make([30, 31])
        assert cmap.cells[Cell(0, 0)] == 3
        cmap, _ = self.make([31, 32])
        assert cmap.cells[Cell(0, 0)] == 4

    def test_quantize_matches_oracle_on_random_samples(self, rng):
        for _ in range(50):
            values = [int(v) for v in rng.integers(1, 51, size=int(rng.integers(1, 30)))]
            cmap, _ = self.make(values)
            assert cmap.cells[Cell(0, 0)] == oracles.oracle_quantize(values)

    def test_fast_path_agrees_with_full_finalize(self, rng):
        b = CoverageMapBuilder(owner=4)
        for _ in range(300):
            b.record(Cell(int(rng.integers(0, 4)), 0), int(rng.integers(1, 51)))
        full_map, _ = b.finalize(min_samples=3)
        assert b.finalize_coverage(min_samples=3) == full_map

    def test_map_cells_sorted_in_stats(self, rng):
        b = CoverageMapBuilder(owner=1)
        for x in (3, 1, 2):
            for _ in range(5):
                b.record(Cell(x, 0), 30)
        _, stats = b.finalize()
        assert [st.cell for st in stats] == [Cell(1, 0), Cell(2, 0), Cell(3, 0)]


class TestBimodalFlag:
    def make_stats(self, values):
        b = CoverageMapBuilder(owner=1)
        for v in values:
            b.record(Cell(0, 0), v)
        _, (st,) = b.finalize(min_samples=1)
        return st

    def test_two_far_modes_flagged(self):
        st = self.make_stats([10] * 25 + [30] * 25)
        assert st.bimodal is True

    def test_unimodal_not_flagged(self):
        st = self.make_stats([29, 30, 30, 30, 31, 31, 32, 30, 29, 28])
        assert st.bimodal is False

    def test_close_modes_not_flagged(self):
        # 20 and 30 are only 10 RSSI points apart: below the separation bar.
        st = self.make_stats([20] * 30 + [30] * 30)
        assert st.bimodal is False

    def test_minor_mode_below_mass_share_not_flagged(self):
        st = self.make_stats([30] * 76 + [10] * 24)
        assert st.bimodal is False

    def test_mass_share_boundary_inclusive(self):
        st = self.make_stats([30] * 75 + [10] * 25)
        assert st.bimodal is True


PROBE_CELLS = [Cell(x, y) for x in range(6) for y in range(6)]


def merge_by_scoring(maps):
    """Per-cell best class and contributor count, as scoring merges these maps.

    Each map is an active neighbor of a revoked maker. Probing one cell at a
    time as the maker's whole own map reads the merge back: coverage is 1.0
    exactly when some map covers the cell, and then signal is the best class
    there and saturation the contributor count.
    """
    neighbors = tuple(ActiveRsu(i + 1, m, 1.0) for i, m in enumerate(maps))
    solution = CoverageSolution(active=tuple(n.entity_id for n in neighbors), revoked=(0,))
    best, count = {}, {}
    for cell in PROBE_CELLS:
        attrs = compute_attributes(solution, CandidatePool(0, CoverageMap(0, {cell: 1}), neighbors))
        if attrs.coverage == 1.0:
            best[cell], count[cell] = int(attrs.signal), int(attrs.saturation)
    return best, count


class TestMergeLocalMaps:
    """The local-map merge rule (max class, contributor count) inside scoring."""

    def test_singleton(self):
        m = CoverageMap(1, {Cell(0, 0): 3, Cell(1, 0): 5})
        best, count = merge_by_scoring([m])
        assert best == m.cells
        assert count == {Cell(0, 0): 1, Cell(1, 0): 1}

    def test_disjoint_maps(self):
        a = CoverageMap(1, {Cell(0, 0): 2})
        b = CoverageMap(2, {Cell(5, 5): 4})
        _, count = merge_by_scoring([a, b])
        assert count == {Cell(0, 0): 1, Cell(5, 5): 1}

    def test_overlap_keeps_max_and_counts(self):
        a = CoverageMap(1, {Cell(0, 0): 3})
        b = CoverageMap(2, {Cell(0, 0): 5})
        best, count = merge_by_scoring([a, b])
        assert best == {Cell(0, 0): 5}
        assert count == {Cell(0, 0): 2}

    def test_empty_input(self):
        best, count = merge_by_scoring([])
        assert best == {} and count == {}

    def test_key_sets_identical(self, rng):
        maps = self.random_maps(rng, 5)
        best, count = merge_by_scoring(maps)
        assert set(best) == set(count) == {c for m in maps for c in m.cells}

    def random_maps(self, rng, k):
        maps = []
        for owner in range(k):
            cells = {
                Cell(int(rng.integers(0, 4)), int(rng.integers(0, 4))): int(rng.integers(1, 6))
                for _ in range(int(rng.integers(1, 8)))
            }
            maps.append(CoverageMap(owner, cells))
        return maps

    def test_permutation_invariance(self, rng):
        maps = self.random_maps(rng, 4)
        base = merge_by_scoring(maps)
        for perm in itertools.permutations(maps):
            assert merge_by_scoring(perm) == base

    def test_values_bounded_by_inputs(self, rng):
        maps = self.random_maps(rng, 6)
        best, count = merge_by_scoring(maps)
        for cell, b in best.items():
            contributors = [m.cells[cell] for m in maps if cell in m.cells]
            assert b == max(contributors)
            assert count[cell] == len(contributors)
            assert 1 <= count[cell] <= len(maps)


class TestBeaconLogIO:
    def rows(self):
        return [(0.0, 9, Cell(1, 2), 30), (1.5, 9, Cell(1, 3), 42), (2.0, 8, Cell(0, 0), 1)]

    def test_round_trip(self, tmp_path):
        p = tmp_path / "beacons.csv"
        write_beacon_log(self.rows(), p)
        assert list(read_beacon_log(p)) == self.rows()

    def test_file_without_header_still_reads(self, tmp_path):
        p = tmp_path / "raw.csv"
        p.write_text("0.0,9,1,2,30\n1.5,9,1,3,42\n")
        assert list(read_beacon_log(p)) == self.rows()[:2]

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "gappy.csv"
        p.write_text("time_s,tx_id,cell_x,cell_y,rssi\n0.0,9,1,2,30\n\n\n1.5,9,1,3,42\n")
        assert len(list(read_beacon_log(p))) == 2

    def test_malformed_line_names_its_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time_s,tx_id,cell_x,cell_y,rssi\n0.0,9,1,2,30\nnot,numbers,x,y,z\n")
        with pytest.raises(MalformedLineError, match="line 3"):
            list(read_beacon_log(p))

    def test_wrong_column_count_names_line(self, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("time_s,tx_id,cell_x,cell_y,rssi\n0.0,9,1,2\n")
        with pytest.raises(MalformedLineError, match="line 2"):
            list(read_beacon_log(p))

    def test_out_of_scale_rssi_rejected_by_parser(self):
        with pytest.raises(MalformedLineError, match="line 1"):
            list(parse_beacon_log(["0.0,9,1,2,51"]))

    @pytest.mark.parametrize("rssi", [51, 0])
    def test_out_of_scale_rssi_after_header_names_line(self, tmp_path, rssi):
        p = tmp_path / "loud.csv"
        p.write_text(f"time_s,tx_id,cell_x,cell_y,rssi\n0.0,9,1,2,{rssi}\n")
        with pytest.raises(MalformedLineError, match="line 2"):
            list(read_beacon_log(p))

    def test_empty_file_yields_nothing(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        assert list(read_beacon_log(p)) == []


class TestCsvExports:
    def test_coverage_csv_golden(self, tmp_path):
        p = tmp_path / "map.csv"
        write_coverage_csv(CoverageMap(1, {Cell(2, 1): 4, Cell(0, 3): 2}), p)
        assert p.read_text() == "cell_x,cell_y,strength\n0,3,2\n2,1,4\n"

    def test_cell_stats_csv_golden(self, tmp_path):
        b = CoverageMapBuilder(owner=1)
        for v in (28, 32):
            b.record(Cell(1, 1), v)
        _, stats = b.finalize(min_samples=1)
        p = tmp_path / "stats.csv"
        write_cell_stats_csv(stats, p)
        assert p.read_text() == "cell_x,cell_y,count,mean,sd,bimodal\n1,1,2,30.0000,2.0000,0\n"


class TestLearningFidelity:
    def test_learns_truth_from_synthetic_log(self, one_block, prop):
        rng = np.random.default_rng(31)
        observer = one_block.usable_cells[0]
        rows, truth = synthesize_beacon_log(one_block, prop, observer, rng)
        b = CoverageMapBuilder(owner=9)
        for _, _, cell, rssi in rows:
            b.record(cell, rssi)
        cmap, stats = b.finalize()
        by_cell = {st.cell: st for st in stats}
        well_sampled = [c for c in truth if by_cell[c].count >= 50]
        assert well_sampled, "synthetic log should sample most cells densely"
        hits = sum(cmap.cells.get(c) == truth[c] for c in well_sampled)
        assert hits / len(well_sampled) >= 0.95
        sd_ok = sum(st.sd_rssi < 5.0 for st in stats)
        assert sd_ok / len(stats) >= 0.85

    def test_truth_is_footprint(self, one_block, prop, rng):
        observer = one_block.usable_cells[3]
        _, truth = synthesize_beacon_log(one_block, prop, observer, rng)
        assert truth == FootprintCache(one_block, prop).footprint(observer)
