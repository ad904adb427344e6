"""City grid: integer cells, usable/obstruction masks, and synthetic layouts.

Cells quantize continuous positions into squares of ``cell_size_m`` per side.
Cell indices are plain integers and may be negative, so imported city files
keep whatever frame their source used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, MalformedLineError, OutOfBoundsError, open_text

DEFAULT_CELL_SIZE_M = 30.9  # one second of GPS latitude, squared off

ROAD_FLAG = "road"
BUILDING_FLAG = "building"


class Cell(NamedTuple):
    x: int
    y: int


@dataclass(frozen=True)
class CityGrid:
    """Rectangular cell field with road (usable) and building (obstruction) masks.

    Masks are boolean arrays indexed ``[x - origin.x, y - origin.y]``. They
    must be disjoint; cells in neither mask are inert ground. Instances are
    read-only after construction and safe to share across workers.
    """

    width: int
    height: int
    usable: np.ndarray
    obstruction: np.ndarray
    origin: Cell = Cell(0, 0)
    cell_size_m: float = DEFAULT_CELL_SIZE_M

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ConfigurationError("grid width/height must be at least 1")
        if not 0 < self.cell_size_m < math.inf:
            raise ConfigurationError("grid.cell_size_m must be positive and finite")
        for name in ("usable", "obstruction"):
            mask = getattr(self, name)
            if mask.shape != (self.width, self.height):
                raise ConfigurationError(f"{name} mask shape {mask.shape} does not match grid")
        if np.any(self.usable & self.obstruction):
            raise ConfigurationError("usable and obstruction masks overlap")
        if not self.usable.any():
            raise ConfigurationError("grid has no usable cells")
        self.usable.setflags(write=False)
        self.obstruction.setflags(write=False)

    def contains(self, cell: Cell) -> bool:
        ix = cell.x - self.origin.x
        iy = cell.y - self.origin.y
        return 0 <= ix < self.width and 0 <= iy < self.height

    def _index(self, cell: Cell) -> tuple[int, int]:
        if not self.contains(cell):
            raise OutOfBoundsError(f"cell {tuple(cell)} outside grid")
        return cell.x - self.origin.x, cell.y - self.origin.y

    def is_usable(self, cell: Cell) -> bool:
        return self.contains(cell) and bool(self.usable[cell.x - self.origin.x, cell.y - self.origin.y])

    def is_obstruction(self, cell: Cell) -> bool:
        return self.contains(cell) and bool(self.obstruction[cell.x - self.origin.x, cell.y - self.origin.y])

    @property
    def usable_count(self) -> int:
        return int(self.usable.sum())

    @cached_property
    def usable_cells(self) -> tuple[Cell, ...]:
        xs, ys = np.nonzero(self.usable)
        return tuple(Cell(int(x) + self.origin.x, int(y) + self.origin.y) for x, y in zip(xs, ys))

    @cached_property
    def border_cells(self) -> tuple[Cell, ...]:
        """Usable cells on the outer rectangle, where traffic enters."""
        out = []
        for c in self.usable_cells:
            ix = c.x - self.origin.x
            iy = c.y - self.origin.y
            if ix == 0 or iy == 0 or ix == self.width - 1 or iy == self.height - 1:
                out.append(c)
        return tuple(out)

    def center_of(self, cell: Cell) -> tuple[float, float]:
        """Center of a cell in grid-local meters (origin cell corner at 0, 0)."""
        self._index(cell)
        s = self.cell_size_m
        return ((cell.x - self.origin.x + 0.5) * s, (cell.y - self.origin.y + 0.5) * s)


def cell_of(position: tuple[float, float], grid: CityGrid) -> Cell:
    """Quantize a grid-local position in meters to its cell.

    Cells are half-open intervals: a position exactly on the upper edge of
    the grid is out of bounds.
    """
    px, py = position
    s = grid.cell_size_m
    ix = math.floor(px / s)
    iy = math.floor(py / s)
    if not (0 <= ix < grid.width and 0 <= iy < grid.height):
        raise OutOfBoundsError(f"position ({px}, {py}) outside grid")
    return Cell(grid.origin.x + ix, grid.origin.y + iy)


def build_manhattan_city(
    blocks_x: int,
    blocks_y: int,
    road_width_cells: int = 1,
    block_size_cells: int = 3,
    cell_size_m: float = DEFAULT_CELL_SIZE_M,
    origin: Cell = Cell(0, 0),
) -> CityGrid:
    """Synthesize a Manhattan layout: a road ring around a lattice of blocks.

    Each axis repeats [road, block] and closes with a final road, so a side
    measures road + blocks * (block + road) cells. Road cells are usable,
    block cells are obstructions, and together they partition the grid.
    """
    for name, value in (
        ("blocks_x", blocks_x),
        ("blocks_y", blocks_y),
        ("road_width_cells", road_width_cells),
        ("block_size_cells", block_size_cells),
    ):
        if value < 1:
            raise ConfigurationError(f"grid.{name} must be >= 1")
    stride = block_size_cells + road_width_cells
    width = road_width_cells + blocks_x * stride
    height = road_width_cells + blocks_y * stride
    is_road_x = np.array([(i % stride) < road_width_cells for i in range(width)])
    is_road_y = np.array([(i % stride) < road_width_cells for i in range(height)])
    usable = is_road_x[:, None] | is_road_y[None, :]
    obstruction = ~usable
    return CityGrid(
        width=width,
        height=height,
        usable=usable,
        obstruction=obstruction,
        origin=origin,
        cell_size_m=cell_size_m,
    )


def save_city(grid: CityGrid, path) -> None:
    """Write the grid as ``x,y,flag`` lines, one per road or building cell."""
    with open(path, "w") as fh:
        for ix in range(grid.width):
            for iy in range(grid.height):
                cell = Cell(grid.origin.x + ix, grid.origin.y + iy)
                if grid.usable[ix, iy]:
                    fh.write(f"{cell.x},{cell.y},{ROAD_FLAG}\n")
                elif grid.obstruction[ix, iy]:
                    fh.write(f"{cell.x},{cell.y},{BUILDING_FLAG}\n")


def load_city(path, cell_size_m: float = DEFAULT_CELL_SIZE_M) -> CityGrid:
    """Read a city from ``x,y,flag`` lines; grid bounds come from the data."""
    roads: set[Cell] = set()
    buildings: set[Cell] = set()
    with open_text(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise MalformedLineError(f"{path}: line {line_no}: expected x,y,flag")
            try:
                cell = Cell(int(parts[0]), int(parts[1]))
            except ValueError:
                raise MalformedLineError(f"{path}: line {line_no}: non-integer cell coordinates") from None
            flag = parts[2].strip()
            if flag == ROAD_FLAG:
                roads.add(cell)
            elif flag == BUILDING_FLAG:
                buildings.add(cell)
            else:
                raise MalformedLineError(f"{path}: line {line_no}: unknown flag {flag!r}")
    if not roads:
        raise ConfigurationError(f"{path}: city file has no road cells")
    overlap = roads & buildings
    if overlap:
        raise ConfigurationError(f"{path}: cell {tuple(sorted(overlap)[0])} is both road and building")
    every = roads | buildings
    min_x = min(c.x for c in every)
    min_y = min(c.y for c in every)
    width = max(c.x for c in every) - min_x + 1
    height = max(c.y for c in every) - min_y + 1
    usable = np.zeros((width, height), dtype=bool)
    obstruction = np.zeros((width, height), dtype=bool)
    for c in roads:
        usable[c.x - min_x, c.y - min_y] = True
    for c in buildings:
        obstruction[c.x - min_x, c.y - min_y] = True
    return CityGrid(
        width=width,
        height=height,
        usable=usable,
        obstruction=obstruction,
        origin=Cell(min_x, min_y),
        cell_size_m=cell_size_m,
    )
