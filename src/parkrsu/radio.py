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

    band_edges_m holds the four outer edges of classes 5 down to 2; beyond
    the last edge the class is 0. When omitted, edges default to fixed
    fractions of base_range_m * range_multiplier, so scaling the multiplier
    scales every band edge by the same factor.
    """

    base_range_m: float = 155.0
    range_multiplier: float = 1.0
    nlos_penalty: int = 2
    band_edges_m: tuple[float, float, float, float] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.base_range_m <= 0 or self.range_multiplier <= 0:
            raise ConfigurationError("base_range_m and range_multiplier must be positive")
        if self.nlos_penalty < 0:
            raise ConfigurationError("nlos_penalty must be non-negative")
        max_range = self.base_range_m * self.range_multiplier
        if self.band_edges_m is None:
            edges = tuple(f * max_range for f in BAND_FRACTIONS)
            object.__setattr__(self, "band_edges_m", edges)
        else:
            edges = tuple(float(e) for e in self.band_edges_m)
            if len(edges) != 4:
                raise ConfigurationError("band_edges_m must hold exactly four distances")
            if not edges[0] > 0:
                raise ConfigurationError("band_edges_m must start above zero")
            if any(b <= a for a, b in zip(edges, edges[1:])):
                raise ConfigurationError("band_edges_m must be strictly increasing")
            if not math.isclose(edges[-1], max_range, rel_tol=1e-9):
                raise ConfigurationError("last band edge must equal base_range_m * range_multiplier")
            object.__setattr__(self, "band_edges_m", edges)

    @property
    def max_range_m(self) -> float:
        return self.band_edges_m[-1]


def cells_on_segment(a: Cell, b: Cell) -> list[Cell]:
    """All cells crossed by the straight segment between two cell centers.

    Grid traversal stepping one boundary at a time; an exact corner crossing
    steps diagonally. Endpoints are included.
    """
    cells = [a]
    if a == b:
        return cells
    x, y = a.x, a.y
    dx = b.x - a.x
    dy = b.y - a.y
    step_x = 1 if dx > 0 else -1
    step_y = 1 if dy > 0 else -1
    inf = math.inf
    t_dx = 1.0 / abs(dx) if dx else inf
    t_dy = 1.0 / abs(dy) if dy else inf
    t_max_x = 0.5 * t_dx if dx else inf
    t_max_y = 0.5 * t_dy if dy else inf
    while (x, y) != (b.x, b.y):
        if t_max_x < t_max_y:
            x += step_x
            t_max_x += t_dx
        elif t_max_y < t_max_x:
            y += step_y
            t_max_y += t_dy
        else:
            x += step_x
            y += step_y
            t_max_x += t_dx
            t_max_y += t_dy
        cells.append(Cell(x, y))
    return cells


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
    d = math.hypot(rx.x - tx.x, rx.y - tx.y) * grid.cell_size_m
    e1, e2, e3, e4 = cfg.band_edges_m
    if d > e4:
        return 0
    if d <= e1:
        cls = 5
    elif d <= e2:
        cls = 4
    elif d <= e3:
        cls = 3
    else:
        cls = 2
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

    footprint(c) maps every usable cell reachable from c (class >= 1) to its
    strength class, including c itself at class 5. Footprints are symmetric,
    so the same table answers both "whom do I cover" and "whom do I hear".
    row(c) is the same footprint as one int8 class per usable cell (0 out of
    reach), positioned by index; coverage tallies and beacon hearing read rows.

    Footprints equal strength() over every usable target. They are computed
    with one gather over an offset stencil: distance classes and the cells a
    line of sight crosses depend only on the offset between the two cells,
    so both are tabulated once per cache, on the first computed footprint.
    """

    def __init__(self, grid: CityGrid, cfg: PropagationConfig):
        self.grid = grid
        self.cfg = cfg
        self._cache: dict[Cell, dict[Cell, int]] = {}
        self._rows: dict[Cell, np.ndarray] = {}
        self.index = {c: i for i, c in enumerate(grid.usable_cells)}
        self._radius_cells = int(math.ceil(cfg.max_range_m / grid.cell_size_m))
        self._stencil: _Stencil | None = None

    def footprint(self, cell: Cell) -> dict[Cell, int]:
        fp = self._cache.get(cell)
        if fp is None:
            fp = self._compute(cell)
            self._cache[cell] = fp
        return fp

    def row(self, cell: Cell) -> np.ndarray:
        row = self._rows.get(cell)
        if row is None:
            fp = self.footprint(cell)
            row = self._rows[cell] = np.zeros(len(self.index), dtype=np.int8)
            row[[self.index[c] for c in fp]] = list(fp.values())
            row.flags.writeable = False
        return row

    def _compute(self, cell: Cell) -> dict[Cell, int]:
        if not self.grid.contains(cell):
            raise OutOfBoundsError(f"tx cell {tuple(cell)} outside grid")
        st = self._stencil
        if st is None:
            st = self._stencil = _Stencil(self.grid, self.cfg, self._radius_cells)
        origin = self.grid.origin
        # Flat position of the source in the padded masks; targets and crossed
        # cells are the stencil's flat offsets from it.
        at = (cell.x - origin.x + st.r) * st.stride + (cell.y - origin.y + st.r)
        keep = st.usable[at + st.target]
        cls = st.cls[keep]
        if self.cfg.nlos_penalty:
            blocked = (st.obstruction[at + st.crossed[keep]] & st.crossed_valid[keep]).any(axis=1)
            # strength() floors a blocked class at 0; below 1 it is dropped either way.
            cls = cls - self.cfg.nlos_penalty * blocked
        reach = cls >= 1
        xs = (st.dx[keep][reach] + cell.x).tolist()
        ys = (st.dy[keep][reach] + cell.y).tolist()
        return {Cell(x, y): s for x, y, s in zip(xs, ys, cls[reach].tolist())}


class _Stencil:
    """Per-offset distance classes and crossed cells for one footprint radius.

    Offsets (dx, dy) within the radius whose distance class is at least 1,
    in x-major order. usable and obstruction are the grid masks padded by r
    cells of False on every side and flattened, so every target and crossed
    cell of an in-grid source is a flat index offset from the source.
    """

    def __init__(self, grid: CityGrid, cfg: PropagationConfig, r: int):
        self.r = r
        self.stride = grid.height + 2 * r
        self.usable = np.pad(grid.usable, r).ravel()
        self.obstruction = np.pad(grid.obstruction, r).ravel()
        e1, e2, e3, e4 = cfg.band_edges_m
        offsets: list[tuple[int, int, int]] = []
        paths: list[list[Cell]] = []
        for dx in range(-r, r + 1):
            for dy in range(-r, r + 1):
                # The same comparisons as strength(), on the same distance.
                d = math.hypot(dx, dy) * grid.cell_size_m
                if dx == dy == 0 or d <= e1:
                    cls = MAX_STRENGTH
                elif d <= e2:
                    cls = 4
                elif d <= e3:
                    cls = 3
                elif d <= e4:
                    cls = 2
                else:
                    continue
                offsets.append((dx, dy, cls))
                paths.append(cells_on_segment(Cell(0, 0), Cell(dx, dy))[1:-1])
        self.dx, self.dy, self.cls = np.array(offsets, dtype=np.int64).T
        self.target = self.dx * self.stride + self.dy
        width = max(len(p) for p in paths)
        self.crossed = np.zeros((len(paths), width), dtype=np.int64)
        self.crossed_valid = np.zeros((len(paths), width), dtype=bool)
        for i, path in enumerate(paths):
            self.crossed[i, : len(path)] = [c.x * self.stride + c.y for c in path]
            self.crossed_valid[i, : len(path)] = True


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
    truth = dict(FootprintCache(grid, cfg).footprint(observer))
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
