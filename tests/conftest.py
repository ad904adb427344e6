from __future__ import annotations

import numpy as np
import pytest

from parkrsu.config import RunConfig
from parkrsu.grid import Cell, CityGrid, build_manhattan_city
from parkrsu.maps import CoverageMap
from parkrsu.radio import PropagationConfig


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture(scope="session")
def one_block():
    # 5x5 ring city: one 3x3 building surrounded by a one-cell road loop.
    return build_manhattan_city(1, 1)


@pytest.fixture(scope="session")
def two_block():
    return build_manhattan_city(2, 2)


@pytest.fixture(scope="session")
def default_city():
    return build_manhattan_city(8, 8)


@pytest.fixture(scope="session")
def open7():
    # Fully usable 7x7 field, for radio tests without obstructions.
    usable = np.ones((7, 7), dtype=bool)
    return CityGrid(width=7, height=7, usable=usable, obstruction=np.zeros((7, 7), dtype=bool))


@pytest.fixture
def prop():
    return PropagationConfig()


def make_map(owner: int, cells: dict) -> CoverageMap:
    return CoverageMap(owner, {Cell(*k) if isinstance(k, tuple) else k: v for k, v in cells.items()})


@pytest.fixture
def fast_config():
    # Small city and short horizon so full simulations stay sub-second.
    return RunConfig().with_overrides(
        blocks_x=3, blocks_y=3, duration_s=420.0, discard_s=120.0, seed=5
    )
