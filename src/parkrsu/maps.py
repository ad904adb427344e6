"""Coverage maps learned from overheard beacons, and beacon-log IO.

A parked car builds its own coverage map by accumulating beacon RSSI
readings per cell, then quantizing per-cell mean RSSI into a strength
class. Merging maps is part of scoring (parkrsu.decision).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import MalformedLineError, open_text
from .grid import Cell
from .radio import MAX_RSSI, MAX_STRENGTH, MIN_RSSI, rssi_to_strength

DEFAULT_MIN_SAMPLES = 5

# Bimodality heuristic: two mass concentrations, each at least this share
# of the samples, at least this many RSSI points apart.
BIMODAL_MASS_SHARE = 0.25
BIMODAL_SEPARATION_RSSI = 15
_BIMODAL_WINDOW = 5


@dataclass
class CoverageMap:
    """Cells one entity covers (or hears), each at strength class 1..5."""

    owner: int
    cells: dict[Cell, int]

    def __post_init__(self):
        for cell, s in self.cells.items():
            if not 1 <= s <= MAX_STRENGTH:
                raise ValueError(f"cell {tuple(cell)} has invalid strength {s}")

    @property
    def covered_count(self) -> int:
        return len(self.cells)


@dataclass
class CellStats:
    """Per-cell measurement summary kept alongside the quantized map."""

    cell: Cell
    count: int
    mean_rssi: float
    sd_rssi: float
    histogram: list[int]
    bimodal: bool


class CoverageMapBuilder:
    """Accumulates beacon readings per cell; order of arrival never matters."""

    def __init__(self, owner: int):
        self.owner = owner
        self._samples: dict[Cell, dict[int, int]] = {}

    def record(self, cell: Cell, rssi: int) -> None:
        if not MIN_RSSI <= rssi <= MAX_RSSI:
            raise ValueError(f"rssi {rssi} outside [{MIN_RSSI}, {MAX_RSSI}]")
        counts = self._samples.get(cell)
        if counts is None:
            counts = {}
            self._samples[cell] = counts
        counts[rssi] = counts.get(rssi, 0) + 1

    @property
    def observed_cells(self) -> int:
        return len(self._samples)

    def finalize(self, min_samples: int = DEFAULT_MIN_SAMPLES) -> tuple[CoverageMap, list[CellStats]]:
        """Quantize accumulated readings into a map plus per-cell diagnostics.

        Cells with fewer than min_samples readings are reported in the stats
        but left out of the coverage map (see finalize_coverage). The bimodal
        flag is advisory only.
        """
        stats: list[CellStats] = []
        for cell in sorted(self._samples):
            # Iterate readings in RSSI order so the float sums (and therefore
            # the emitted stats) are identical for any arrival order.
            counts = sorted(self._samples[cell].items())
            n = sum(c for _, c in counts)
            total = sum(r * c for r, c in counts)
            mean = total / n
            var = sum(c * (r - mean) ** 2 for r, c in counts) / n
            hist = [0] * MAX_RSSI
            for r, c in counts:
                hist[r - 1] += c
            stats.append(
                CellStats(
                    cell=cell,
                    count=n,
                    mean_rssi=mean,
                    sd_rssi=math.sqrt(var),
                    histogram=hist,
                    bimodal=_is_bimodal(hist, n),
                )
            )
        return self.finalize_coverage(min_samples), stats

    def finalize_coverage(self, min_samples: int = DEFAULT_MIN_SAMPLES) -> CoverageMap:
        """Quantized map: cells with at least min_samples readings, each at the
        class of its rounded mean RSSI."""
        cmap: dict[Cell, int] = {}
        for cell, counts in self._samples.items():
            n = sum(counts.values())
            if n < min_samples:
                continue
            mean = sum(r * c for r, c in counts.items()) / n
            cmap[cell] = _mean_to_strength(mean)
        return CoverageMap(self.owner, cmap)


def _mean_to_strength(mean: float) -> int:
    """Class of a cell's mean RSSI: rounded half-even, clamped to the scale."""
    return rssi_to_strength(int(min(MAX_RSSI, max(MIN_RSSI, round(mean)))))


def _is_bimodal(hist: list[int], n: int) -> bool:
    # Mass in disjoint 5-point windows; two heavy windows far enough apart
    # flag the cell. Window centers are 3, 8, ..., 48, so a separation of
    # 15 RSSI points means at least three windows apart.
    if n == 0:
        return False
    windows = [sum(hist[i : i + _BIMODAL_WINDOW]) for i in range(0, MAX_RSSI, _BIMODAL_WINDOW)]
    heavy = [i for i, w in enumerate(windows) if w / n >= BIMODAL_MASS_SHARE]
    for a in heavy:
        for b in heavy:
            if (b - a) * _BIMODAL_WINDOW >= BIMODAL_SEPARATION_RSSI:
                return True
    return False


def parse_beacon_log(lines: Iterable[str], source: str = "beacon log") -> Iterator[tuple[float, int, Cell, int]]:
    """Parse ``time_s,tx_id,cell_x,cell_y,rssi`` lines, skipping blanks."""
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise MalformedLineError(f"{source}: line {line_no}: expected time_s,tx_id,cell_x,cell_y,rssi")
        try:
            t = float(parts[0])
            tx = int(parts[1])
            cell = Cell(int(parts[2]), int(parts[3]))
            rssi = int(parts[4])
        except ValueError:
            raise MalformedLineError(f"{source}: line {line_no}: malformed field") from None
        if not MIN_RSSI <= rssi <= MAX_RSSI:
            raise MalformedLineError(f"{source}: line {line_no}: rssi {rssi} outside [{MIN_RSSI}, {MAX_RSSI}]")
        yield t, tx, cell, rssi


def write_beacon_log(rows: Iterable[tuple[float, int, Cell, int]], path) -> None:
    with open(path, "w") as fh:
        fh.write("time_s,tx_id,cell_x,cell_y,rssi\n")
        for t, tx, cell, rssi in rows:
            fh.write(f"{t:.1f},{tx},{cell.x},{cell.y},{rssi}\n")


def read_beacon_log(path) -> Iterator[tuple[float, int, Cell, int]]:
    """Parse a beacon-log file, skipping its header line if it has one."""
    with open_text(path) as fh:
        first = fh.readline()
        if first.startswith("time_s"):
            first = ""  # blank lines are skipped, so line numbers still count it
        yield from parse_beacon_log(itertools.chain([first], fh), source=str(path))


def write_cell_stats_csv(stats: Iterable[CellStats], path) -> None:
    """Export per-cell diagnostics as ``cell_x,cell_y,count,mean,sd,bimodal``."""
    with open(path, "w") as fh:
        fh.write("cell_x,cell_y,count,mean,sd,bimodal\n")
        for st in stats:
            fh.write(
                f"{st.cell.x},{st.cell.y},{st.count},{st.mean_rssi:.4f},{st.sd_rssi:.4f},{int(st.bimodal)}\n"
            )


def write_coverage_csv(cmap: CoverageMap, path) -> None:
    with open(path, "w") as fh:
        fh.write("cell_x,cell_y,strength\n")
        for cell in sorted(cmap.cells):
            fh.write(f"{cell.x},{cell.y},{cmap.cells[cell]}\n")
