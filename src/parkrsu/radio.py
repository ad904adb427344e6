"""Propagation model, RSSI sampling, and strength-class conversions.

Signal strength is a small integer class: 0 means no link, 5 is the best.
Classes map to RSSI bands of ten points each, so class k has center k * 10
and bin ((k - 1) * 10, k * 10] on the 1..50 RSSI scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, OutOfBoundsError
from .grid import Cell, CityGrid

MAX_STRENGTH = 5
MIN_RSSI = 1
MAX_RSSI = 50
RSSI_PER_CLASS = 10
DEFAULT_NOISE_SD = 3.0

# Fractions of max range delimiting classes 5, 4, 3, 2.
BAND_FRACTIONS = (0.25, 0.5, 0.75, 1.0)


class NoBeaconError(ValueError):
    """Raised when sampling RSSI for a link with no signal (class 0)."""


@dataclass(frozen=True)
class PropagationConfig:
    """Distance-band propagation with a line-of-sight penalty.

    The four band edges, the outer edges of classes 5 down to 2, are fixed
    fractions of base_range_m * range_multiplier, so scaling the multiplier
    scales every edge by the same factor; beyond the last edge the class is 0.
    """

    base_range_m: float = 155.0
    range_multiplier: float = 1.0
    nlos_penalty: int = 2

    def __post_init__(self):
        if not 0 < self.base_range_m < math.inf:
            raise ConfigurationError("radio.base_range_m must be positive and finite")
        if not 0 < self.range_multiplier < math.inf:
            raise ConfigurationError("radio.range_multiplier must be positive and finite")
        if self.nlos_penalty < 0:
            raise ConfigurationError("radio.nlos_penalty must be non-negative")

    @property
    def max_range_m(self) -> float:
        return self.base_range_m * self.range_multiplier

    @property
    def band_edges_m(self) -> tuple[float, float, float, float]:
        max_range = self.max_range_m
        return tuple(f * max_range for f in BAND_FRACTIONS)


def cells_on_segment(a: Cell, b: Cell) -> list[Cell]:
    """All cells crossed by the straight segment between two cell centers.

    Grid traversal stepping one boundary at a time; an exact corner crossing
    steps diagonally. Endpoints are included. The segment crosses its i-th
    x boundary at t = (2i + 1) / (2 |dx|) and its j-th y boundary at
    t = (2j + 1) / (2 |dy|), so crossings are ordered by comparing the
    integers (2i + 1) |dy| and (2j + 1) |dx|: the traversal is exact, and
    b to a crosses the cells of a to b in reverse.
    """
    cells = [a]
    x, y = a.x, a.y
    adx, ady = abs(b.x - a.x), abs(b.y - a.y)
    step_x = 1 if b.x > a.x else -1
    step_y = 1 if b.y > a.y else -1
    # Next crossing times, scaled by 2 |dx| |dy|.
    next_x, next_y = ady, adx
    while (x, y) != (b.x, b.y):
        first = next_x - next_y  # < 0: x boundary first, 0: a corner
        if first <= 0:
            x += step_x
            next_x += 2 * ady
        if first >= 0:
            y += step_y
            next_y += 2 * adx
        cells.append(Cell(x, y))
    return cells


def _band_class(d: float, cfg: PropagationConfig) -> int:
    """Distance-band class at d metres: 5 within the first edge down to 2 within the last, else 0."""
    return next((MAX_STRENGTH - i for i, edge in enumerate(cfg.band_edges_m) if d <= edge), 0)


def strength(tx: Cell, rx: Cell, grid: CityGrid, cfg: PropagationConfig) -> int:
    """Signal strength class between two cells (0 when out of range).

    Distance bands assign classes 5 down to 2; if the straight path between
    the cell centers crosses an obstruction cell, nlos_penalty classes are
    subtracted (floor 0). A cell always reaches itself at class 5.
    """
    if not grid.contains(tx):
        raise OutOfBoundsError(f"tx cell {tuple(tx)} outside grid")
    if not grid.contains(rx):
        raise OutOfBoundsError(f"rx cell {tuple(rx)} outside grid")
    if tx == rx:
        return MAX_STRENGTH
    cls = _band_class(math.hypot(rx.x - tx.x, rx.y - tx.y) * grid.cell_size_m, cfg)
    if not cls:
        return 0
    if cfg.nlos_penalty:
        for cell in cells_on_segment(tx, rx)[1:-1]:
            if grid.is_obstruction(cell):
                cls = max(0, cls - cfg.nlos_penalty)
                break
    return cls


def strength_to_rssi_center(s: int) -> int:
    if not 1 <= s <= MAX_STRENGTH:
        raise ValueError(f"strength class {s} has no RSSI center")
    return s * RSSI_PER_CLASS


def rssi_to_strength(rssi: int) -> int:
    """Class k for RSSI in ((k - 1) * 10, k * 10]."""
    if not MIN_RSSI <= rssi <= MAX_RSSI:
        raise ValueError(f"rssi {rssi} outside [{MIN_RSSI}, {MAX_RSSI}]")
    return (int(rssi) + RSSI_PER_CLASS - 1) // RSSI_PER_CLASS


def sample_rssi(s: int, noise_sd: float, rng: np.random.Generator) -> int:
    """One noisy RSSI reading for a beacon received at strength class s.

    Gaussian noise around the class center, rounded half-even and clamped
    to the 1..50 scale. Class 0 carries no beacon to sample.
    """
    if s > MAX_STRENGTH:
        raise ValueError(f"strength class {s} has no RSSI center")
    return int(sample_rssi_many(np.array([s]), noise_sd, rng)[0])


def sample_rssi_many(classes: np.ndarray, noise_sd: float, rng: np.random.Generator) -> np.ndarray:
    """Vector form of sample_rssi for a batch of strength classes (all >= 1).

    A zero noise_sd gives every class its RSSI center; a negative or NaN
    one raises ValueError.
    """
    if not noise_sd >= 0:
        raise ValueError(f"noise_sd must be non-negative, got {noise_sd}")
    classes = np.asarray(classes)
    if classes.size and classes.min() < 1:
        raise NoBeaconError("no beacon is received at strength class 0")
    values = classes * float(RSSI_PER_CLASS)
    if noise_sd > 0:
        values = values + rng.normal(0.0, noise_sd, size=classes.shape)
    return np.clip(np.rint(values), MIN_RSSI, MAX_RSSI).astype(np.int64)


class FootprintCache:
    """Lazily cached per-cell coverage footprints over usable cells.

    footprint(c) is one read-only int8 row: the strength class at which c
    reaches every usable cell (0 out of reach, 5 at c itself), positioned by
    index. Footprints are symmetric, so the same row answers both "whom do
    I cover" and "whom do I hear".

    Footprints equal strength() over every usable target. They are computed
    with one gather over an offset stencil: distance classes and the cells a
    line of sight crosses depend only on the offset between the two cells,
    so both are tabulated once per cache, on the first computed footprint.
    """

    def __init__(self, grid: CityGrid, cfg: PropagationConfig):
        self.grid = grid
        self.cfg = cfg
        self._rows: dict[Cell, np.ndarray] = {}
        self.index = {c: i for i, c in enumerate(grid.usable_cells)}
        # Offsets past the grid's longer side reach no in-grid target.
        self._radius_cells = min(int(math.ceil(cfg.max_range_m / grid.cell_size_m)), max(grid.width, grid.height) - 1)
        self._stencil: _Stencil | None = None

    def footprint(self, cell: Cell) -> np.ndarray:
        row = self._rows.get(cell)
        if row is None:
            row = self._rows[cell] = self._compute(cell)
        return row

    def _compute(self, cell: Cell) -> np.ndarray:
        if not self.grid.contains(cell):
            raise OutOfBoundsError(f"tx cell {tuple(cell)} outside grid")
        st = self._stencil
        if st is None:
            st = self._stencil = _Stencil(self.grid, self.cfg, self._radius_cells)
        origin = self.grid.origin
        # Flat position of the source in the padded tables; targets and crossed
        # cells are the stencil's flat offsets from it.
        at = (cell.x - origin.x + st.r) * st.stride + (cell.y - origin.y + st.r)
        pos = st.position[at + st.target]
        keep = pos >= 0
        cls = st.cls[keep]
        if self.cfg.nlos_penalty:
            blocked = st.obstruction[at + st.crossed[keep]].any(axis=1)
            # strength() floors a blocked class at 0.
            cls = np.maximum(cls - self.cfg.nlos_penalty * blocked, 0)
        row = np.zeros(len(self.index), dtype=np.int8)
        row[pos[keep]] = cls
        row.flags.writeable = False
        return row


class _Stencil:
    """Per-offset distance classes and crossed cells for one footprint radius.

    Offsets (dx, dy) within the radius whose distance class is at least 1,
    in x-major order. position holds each usable cell's row position (-1
    elsewhere) and obstruction the obstruction mask, both padded by r cells
    of -1 and False on every side and flattened, so every target and crossed
    cell of an in-grid source is a flat index offset from the source.
    """

    def __init__(self, grid: CityGrid, cfg: PropagationConfig, r: int):
        self.r = r
        self.stride = grid.height + 2 * r
        position = np.full(grid.usable.shape, -1, dtype=np.int64)
        position[grid.usable] = np.arange(grid.usable_count)
        self.position = np.pad(position, r, constant_values=-1).ravel()
        self.obstruction = np.pad(grid.obstruction, r).ravel()
        offsets: list[tuple[int, int, int]] = []
        paths: list[list[Cell]] = []
        for dx in range(-r, r + 1):
            for dy in range(-r, r + 1):
                # strength()'s band rule on strength()'s distance; the zero
                # offset lands in the first band.
                cls = _band_class(math.hypot(dx, dy) * grid.cell_size_m, cfg)
                if not cls:
                    continue
                offsets.append((dx, dy, cls))
                paths.append(cells_on_segment(Cell(0, 0), Cell(dx, dy))[1:-1])
        dx, dy, self.cls = np.array(offsets, dtype=np.int64).T
        self.target = dx * self.stride + dy
        # Short paths are padded with their own target: a kept target is
        # usable, and no usable cell is an obstruction, so the pad never blocks.
        self.crossed = np.repeat(self.target[:, None], max(len(p) for p in paths), axis=1)
        for i, path in enumerate(paths):
            self.crossed[i, : len(path)] = [c.x * self.stride + c.y for c in path]


def synthesize_beacon_log(
    grid: CityGrid,
    cfg: PropagationConfig,
    observer: Cell,
    rng: np.random.Generator,
    mean_samples_per_cell: float = 200.0,
    spread_sigma: float = 0.4,
    noise_sd: float = DEFAULT_NOISE_SD,
) -> tuple[list[tuple[float, int, Cell, int]], dict[Cell, int]]:
    """Generate beacon-log rows for one parked observer, plus the ground truth.

    Every reachable cell contributes a lognormal-dispersed number of noisy
    readings. Returns (rows, truth) where rows are (time_s, tx_id, cell, rssi)
    and truth maps each cell to its propagation class.
    """
    row = FootprintCache(grid, cfg).footprint(observer)
    cells = grid.usable_cells
    truth = {cells[i]: int(row[i]) for i in np.flatnonzero(row).tolist()}
    rows: list[tuple[float, int, Cell, int]] = []
    t = 0.0
    tx_id = 1
    for cell in sorted(truth):
        s = truth[cell]
        n = max(1, int(round(rng.lognormal(math.log(mean_samples_per_cell), spread_sigma))))
        readings = sample_rssi_many(np.full(n, s), noise_sd, rng)
        for r in readings:
            rows.append((t, tx_id, cell, int(r)))
            t += 1.0
        tx_id += 1
    return rows, truth
