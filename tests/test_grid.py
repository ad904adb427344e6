from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkrsu.errors import ConfigurationError, MalformedLineError, OutOfBoundsError
from parkrsu.grid import (
    Cell,
    CityGrid,
    build_manhattan_city,
    cell_of,
    load_city,
    save_city,
)

import oracles


def grid_10(width=5, height=5):
    usable = np.ones((width, height), dtype=bool)
    return CityGrid(
        width=width,
        height=height,
        usable=usable,
        obstruction=np.zeros((width, height), dtype=bool),
        cell_size_m=10.0,
    )


class TestCell:
    def test_is_tuple_like(self):
        c = Cell(3, -4)
        assert (c.x, c.y) == (3, -4)
        assert c == (3, -4)

    def test_negative_coordinates_allowed(self):
        assert Cell(-10, -20).x == -10


class TestCityGridValidation:
    def test_mask_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="usable mask shape"):
            CityGrid(2, 2, np.ones((2, 3), dtype=bool), np.zeros((2, 2), dtype=bool))

    def test_overlapping_masks_rejected(self):
        m = np.ones((2, 2), dtype=bool)
        with pytest.raises(ConfigurationError, match="overlap"):
            CityGrid(2, 2, m, m.copy())

    def test_no_usable_cells_rejected(self):
        z = np.zeros((2, 2), dtype=bool)
        with pytest.raises(ConfigurationError, match="no usable"):
            CityGrid(2, 2, z, np.ones((2, 2), dtype=bool))

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ConfigurationError):
            CityGrid(0, 2, np.ones((0, 2), dtype=bool), np.zeros((0, 2), dtype=bool))

    def test_bad_cell_size_rejected(self):
        with pytest.raises(ConfigurationError):
            CityGrid(1, 1, np.ones((1, 1), bool), np.zeros((1, 1), bool), cell_size_m=0.0)
        with pytest.raises(ConfigurationError):
            CityGrid(1, 1, np.ones((1, 1), bool), np.zeros((1, 1), bool), cell_size_m=math.nan)

    def test_masks_become_readonly(self):
        g = grid_10()
        with pytest.raises(ValueError):
            g.usable[0, 0] = False


class TestCityGridQueries:
    def test_contains_boundaries(self):
        g = grid_10()
        assert g.contains(Cell(0, 0))
        assert g.contains(Cell(4, 4))
        assert not g.contains(Cell(5, 0))
        assert not g.contains(Cell(0, -1))

    def test_usable_and_obstruction_out_of_bounds_are_false(self, one_block):
        assert not one_block.is_usable(Cell(-1, 0))
        assert not one_block.is_obstruction(Cell(99, 99))

    def test_usable_cells_matches_count(self, two_block):
        assert len(two_block.usable_cells) == two_block.usable_count

    def test_center_of_origin_cell(self):
        g = grid_10()
        assert g.center_of(Cell(0, 0)) == (5.0, 5.0)
        assert g.center_of(Cell(4, 2)) == (45.0, 25.0)

    def test_center_of_respects_origin_offset(self):
        usable = np.ones((2, 2), dtype=bool)
        g = CityGrid(2, 2, usable, np.zeros((2, 2), bool), origin=Cell(7, -3), cell_size_m=10.0)
        assert g.center_of(Cell(7, -3)) == (5.0, 5.0)

    def test_center_of_outside_raises(self):
        with pytest.raises(OutOfBoundsError):
            grid_10().center_of(Cell(9, 9))


class TestCellOf:
    def test_half_open_quantization(self):
        g = grid_10()
        assert cell_of((0.0, 0.0), g) == Cell(0, 0)
        assert cell_of((9.999, 9.999), g) == Cell(0, 0)
        assert cell_of((10.0, 0.0), g) == Cell(1, 0)

    def test_upper_edge_is_out_of_bounds(self):
        g = grid_10()
        with pytest.raises(OutOfBoundsError):
            cell_of((50.0, 10.0), g)
        with pytest.raises(OutOfBoundsError):
            cell_of((-0.001, 0.0), g)

    def test_origin_offset_applies(self):
        usable = np.ones((3, 3), dtype=bool)
        g = CityGrid(3, 3, usable, np.zeros((3, 3), bool), origin=Cell(-1, -1), cell_size_m=10.0)
        assert cell_of((0.0, 0.0), g) == Cell(-1, -1)


class TestManhattanLayout:
    # Frozen counts: side = road + blocks * (block + road); buildings are
    # blocks^2 cells each, everything else is road.
    @pytest.mark.parametrize(
        "bx,by,width,height,usable",
        [
            (1, 1, 5, 5, 16),
            (2, 2, 9, 9, 45),
            (3, 2, 13, 9, 63),
            (8, 8, 33, 33, 513),
        ],
    )
    def test_frozen_dimensions_and_counts(self, bx, by, width, height, usable):
        g = build_manhattan_city(bx, by)
        assert (g.width, g.height) == (width, height)
        assert g.usable_count == usable
        assert int(g.obstruction.sum()) == width * height - usable

    def test_default_city_street_share_is_plausible(self, default_city):
        share = default_city.usable_count / (default_city.width * default_city.height)
        assert 0.40 <= share <= 0.70

    def test_masks_partition_the_grid(self, two_block):
        assert np.array_equal(two_block.usable, ~two_block.obstruction)

    def test_border_ring_is_all_road(self, default_city):
        g = default_city
        for i in range(g.width):
            assert g.is_usable(Cell(i, 0)) and g.is_usable(Cell(i, g.height - 1))
        for j in range(g.height):
            assert g.is_usable(Cell(0, j)) and g.is_usable(Cell(g.width - 1, j))
        assert len(g.border_cells) == 2 * g.width + 2 * g.height - 4

    def test_block_interior_is_obstruction(self, one_block):
        for x in range(1, 4):
            for y in range(1, 4):
                assert one_block.is_obstruction(Cell(x, y))

    def test_road_lattice_period(self, default_city):
        # Stride 4: every 4th row/column is road across the whole grid.
        for k in range(0, default_city.width, 4):
            assert all(default_city.is_usable(Cell(k, j)) for j in range(default_city.height))

    def test_parameters_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            build_manhattan_city(0, 1)
        with pytest.raises(ConfigurationError):
            build_manhattan_city(1, 1, road_width_cells=0)

    @settings(max_examples=40, deadline=None)
    @given(
        bx=st.integers(1, 5),
        by=st.integers(1, 5),
        road=st.integers(1, 2),
        block=st.integers(1, 4),
    )
    def test_counts_match_counting_oracle(self, bx, by, road, block):
        g = build_manhattan_city(bx, by, road_width_cells=road, block_size_cells=block)
        assert (g.width, g.height) == oracles.manhattan_dimensions(bx, by, road, block)
        assert g.usable_count == oracles.manhattan_usable_count(bx, by, road, block)


class TestCityFileRoundTrip:
    def test_save_load_preserves_everything(self, two_block, tmp_path):
        path = tmp_path / "city.txt"
        save_city(two_block, path)
        loaded = load_city(path)
        assert (loaded.width, loaded.height) == (two_block.width, two_block.height)
        assert loaded.origin == two_block.origin
        assert np.array_equal(loaded.usable, two_block.usable)
        assert np.array_equal(loaded.obstruction, two_block.obstruction)

    def test_negative_coordinates_round_trip(self, tmp_path):
        usable = np.ones((3, 2), dtype=bool)
        g = CityGrid(3, 2, usable, np.zeros((3, 2), bool), origin=Cell(-5, -9))
        path = tmp_path / "neg.txt"
        save_city(g, path)
        loaded = load_city(path)
        assert loaded.origin == Cell(-5, -9)
        assert np.array_equal(loaded.usable, g.usable)

    def test_byte_order_mark_is_dropped(self, two_block, tmp_path):
        path = tmp_path / "city.txt"
        save_city(two_block, path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        loaded = load_city(path)
        assert np.array_equal(loaded.usable, two_block.usable)
        assert np.array_equal(loaded.obstruction, two_block.obstruction)

    def test_malformed_line_names_the_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0,0,road\n1,zero,road\n")
        with pytest.raises(MalformedLineError, match="line 2"):
            load_city(path)

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0,0\n")
        with pytest.raises(MalformedLineError, match="line 1"):
            load_city(path)

    def test_unknown_flag_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0,0,swamp\n")
        with pytest.raises(MalformedLineError, match="swamp"):
            load_city(path)

    def test_conflicting_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0,0,road\n0,0,building\n")
        with pytest.raises(ConfigurationError, match="both road and building"):
            load_city(path)

    def test_roadless_city_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0,0,building\n")
        with pytest.raises(ConfigurationError, match="no road"):
            load_city(path)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_text("0,0,road\n\n1,0,road\n")
        assert load_city(path).usable_count == 2
