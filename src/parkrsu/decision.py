"""Coverage-solution enumeration, attribute models, and weighted-product scoring.

A newly parked car (the decision maker) considers the active roadside units
it can hear, enumerates which of them to keep or revoke together with its
own candidacy, scores every alternative on four attributes computed over
the merged coverage maps of the units it keeps active (plus second-hop
context), and picks the best. Revocations are capped at two per decision,
which keeps the candidate set at 1 + n + n(n-1)/2 alternatives for n
toggleable entities.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Literal, NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError
from .maps import CoverageMap

MAX_REVOCATIONS = 2


class UndefinedAttributeError(ValueError):
    """An attribute has no defined value for this pool (e.g. empty own map)."""


class ScoringError(ValueError):
    """Attributes produced a non-finite score."""


@dataclass(frozen=True)
class ScoringWeights:
    """Exponents of the weighted product; saturation acts as a cost.

    The score is signal^w_sig * saturation^(-w_sat) * coverage^w_cov *
    battery^w_bat, so raising the saturation weight penalizes redundant
    coverage instead of rewarding it.
    """

    signal: float = 1.0
    saturation: float = 0.2
    coverage: float = 0.3
    battery: float = 0.0

    def __post_init__(self):
        for name, key in (("signal", "w_sig"), ("saturation", "w_sat"), ("coverage", "w_cov"), ("battery", "w_bat")):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigurationError(f"decision.{key} must be finite and non-negative")


@dataclass(frozen=True)
class BatteryPolicy:
    """Grace period and hard cap on continuous roadside-unit duty.

    Up to standard_time_s of activity costs nothing; the indicator then
    decays linearly and hits zero at max_time_s, where the unit must stop.
    An infinite max_time_s disables both the decay and the forced stop.
    """

    standard_time_s: float = 1800.0
    max_time_s: float = 3600.0

    def __post_init__(self):
        if not 0 < self.standard_time_s < math.inf:
            raise ConfigurationError("battery.standard_time_s must be positive and finite")
        if not self.standard_time_s < self.max_time_s:
            raise ConfigurationError("battery.max_time_s must exceed standard_time_s")


def battery_indicator(active_time_s: float, policy: BatteryPolicy) -> float:
    """Remaining-duty indicator in [0, 1] for a unit active this long."""
    if active_time_s < policy.standard_time_s:
        return 1.0
    frac = (active_time_s - policy.standard_time_s) / (policy.max_time_s - policy.standard_time_s)
    return max(0.0, 1.0 - frac)


class ActiveRsu(NamedTuple):
    entity_id: int
    coverage: CoverageMap
    battery: float


class SolutionAttributes(NamedTuple):
    signal: float
    saturation: float
    coverage: float
    battery: float


@dataclass(frozen=True)
class CandidatePool:
    """Decision input: the maker, its audible active units, and context maps.

    second_hop maps come from units the maker cannot command; they only
    shade the attribute computations and are never toggled.
    """

    maker_id: int
    maker_map: CoverageMap
    neighbors: tuple[ActiveRsu, ...] = ()
    second_hop: tuple[CoverageMap, ...] = ()

    def __post_init__(self):
        ids = [n.entity_id for n in self.neighbors]
        if self.maker_id in ids:
            raise ValueError("decision maker cannot appear among its neighbors")
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate neighbor entity id")

    @property
    def toggleable_ids(self) -> tuple[int, ...]:
        return tuple(sorted([self.maker_id] + [n.entity_id for n in self.neighbors]))


@dataclass
class CoverageSolution:
    """One keep/revoke alternative: the entities left active, and the scores."""

    active: tuple[int, ...]
    revoked: tuple[int, ...]
    attrs: SolutionAttributes | None = None
    score: float | None = None

    @property
    def revoked_count(self) -> int:
        return len(self.revoked)


@dataclass(frozen=True)
class RoleCommand:
    verb: Literal["assign", "revoke"]
    target_id: int


class Decision(NamedTuple):
    chosen: CoverageSolution
    commands: tuple[RoleCommand, ...]


def enumerate_solutions(pool: CandidatePool) -> list[CoverageSolution]:
    """All alternatives revoking at most MAX_REVOCATIONS entities.

    Order is deterministic: no revocation first, then revoked sets of size
    one and two in lexicographic entity-id order.
    """
    ids = pool.toggleable_ids
    positions = range(len(ids))
    solutions = []
    for k in range(MAX_REVOCATIONS + 1):
        for cut, revoked in zip(itertools.combinations(positions, k), itertools.combinations(ids, k)):
            active = ids
            for p in reversed(cut):
                active = active[:p] + active[p + 1 :]
            solutions.append(CoverageSolution(active=active, revoked=revoked))
    return solutions


_LEVELS = np.arange(1, 6, dtype=np.int8)


def reach_levels(classes: np.ndarray) -> np.ndarray:
    """Levels "reaches the cell at class >= k", k = 1..5, on a new last axis.

    Summing the levels of several maps cell by cell merges them: level 1
    counts the contributors, and the number of levels any of them reaches
    is the best class.
    """
    # Compared level by level, so each comparison runs over every cell at
    # once; the level axis then moves last as a view.
    levels = classes >= _LEVELS.reshape((5,) + (1,) * classes.ndim)
    return levels.transpose(*range(1, classes.ndim + 1), 0)


def merged_totals(reached: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Covered cells, summed best class and summed contributor count of a merge.

    reached[..., cell, k - 1] counts the merged maps that reach the cell at
    class >= k, as summed reach_levels; the totals run over the last two
    axes.
    """
    level_1 = reached[..., 0]
    return (
        np.count_nonzero(level_1, axis=-1),
        np.count_nonzero(reached, axis=(-2, -1)),
        level_1.sum(axis=-1),
    )


def level_columns(classes: np.ndarray) -> np.ndarray:
    """reach_levels of (row, cell) classes as union_counts' table: every cell at level 1, then 2, ..."""
    return (classes[:, None, :] >= _LEVELS[:, None]).reshape(len(classes), 5 * classes.shape[1])


def union_counts(table: np.ndarray, edges: Sequence[int]) -> Callable[[np.ndarray], np.ndarray]:
    """Batch merge by bitwise unions: per-segment counts of reached columns.

    table is a 0/1 (row, column) table, edges the column indices that split
    its columns into consecutive segments. The returned function maps choice
    bits picked[row, sample] to counts[segment, sample], the columns of the
    segment that any chosen row of the sample reaches. A column counts once
    however many chosen rows reach it, so over level_columns the level-1
    segment holds merged_totals' covered cells and all segments together its
    summed best class. Contributor counts are sums of the chosen rows'
    level-1 sizes, which callers take directly.
    """
    # Non-zeros of the (column, row) transpose: column by column, the rows
    # reaching each column that any row reaches.
    columns, support = divmod(np.flatnonzero(table.T), len(table))
    starts = np.flatnonzero(np.diff(columns, prepend=-1))
    bounds = [0, *np.searchsorted(columns[starts], edges).tolist(), len(starts)]

    def counts(picked: np.ndarray) -> np.ndarray:
        n = picked.shape[1]
        # Bit s of a row's uint64 words says whether sample s chose the row.
        words = np.zeros((len(picked), -(-n // 64)), np.uint64)
        words.view(np.uint8)[:, : -(-n // 8)] = np.packbits(picked, axis=1, bitorder="little")
        unions = np.bitwise_or.reduceat(words.take(support, axis=0), starts, axis=0)
        reached = np.unpackbits(unions.view(np.uint8), axis=1, count=n, bitorder="little")
        return np.array([reached[a:b].sum(axis=0, dtype=np.int32) for a, b in zip(bounds, bounds[1:])])

    return counts


def _attributes(pool: CandidatePool, solutions: Sequence[CoverageSolution]) -> list[SolutionAttributes]:
    """The four attributes of every solution, in one pass over the pool's tables.

    Scoring merges the maps of a solution's active entities with the
    second-hop context cell by cell, keeping the best strength class and the
    contributor count. From that merge:

    - signal: mean best strength over the maker's own cells. The denominator
      is the maker's full covered-cell count, so losing service on an own
      cell drags the average down rather than shrinking it; 1.0 when no own
      cell keeps service.
    - saturation: mean contributor count over the own cells, same
      denominator, same 1.0 floor.
    - coverage: covered share of every cell any pool map knows about, so the
      all-active solution always scores 1.0.
    - battery: mean indicator over the entities kept active, the maker
      counting 1.0 (it has not served yet); an empty active set is 1.0.

    The table has one row per map: the toggleable entities in id order, then
    the second-hop maps, which every solution keeps. Its columns are the
    level_columns of the maker's own cells, then level 1 alone for every
    other cell any pool map knows. union_counts of the solutions' keep bits
    over the segments [own level 1 | own levels 2-5 | other cells] gives the
    own covered cells, the own levels above 1 (the two sum to the signal
    numerator) and the other covered cells; the kept rows' own-cell sizes
    sum to the saturation numerator.
    Every numerator is an integer tally divided by one denominator.
    Raises UndefinedAttributeError when the maker's own map is empty.
    """
    own_count = len(pool.maker_map.cells)
    if own_count == 0:
        raise UndefinedAttributeError("decision maker's coverage map is empty")
    ids = pool.toggleable_ids
    neighbors = {n.entity_id: n for n in pool.neighbors}
    maps = [pool.maker_map if eid == pool.maker_id else neighbors[eid].coverage for eid in ids]
    maps += pool.second_hop
    cells = dict.fromkeys(itertools.chain(pool.maker_map.cells, *(m.cells for m in maps)))
    column = dict(zip(cells, range(len(cells))))
    n_cells = len(column)

    strength = np.zeros((len(maps), n_cells), dtype=np.int8)
    strength[
        np.repeat(np.arange(len(maps)), [len(m.cells) for m in maps]),
        np.fromiter(map(column.__getitem__, itertools.chain(*(m.cells for m in maps))), np.intp),
    ] = np.fromiter(itertools.chain(*(m.cells.values() for m in maps)), np.int8)
    table = np.concatenate([level_columns(strength[:, :own_count]), strength[:, own_count:] > 0], axis=1)

    row_of = dict(zip(ids, range(len(ids))))
    keep = np.zeros((len(solutions), len(maps)), dtype=bool)
    keep[:, len(ids) :] = True
    keep[
        np.repeat(np.arange(len(solutions)), [len(s.active) for s in solutions]),
        np.fromiter(map(row_of.__getitem__, itertools.chain(*(s.active for s in solutions))), np.intp),
    ] = True
    own_covered, own_higher, other_covered = union_counts(table, (own_count, 5 * own_count))(keep.T)
    sig_total = own_covered + own_higher
    sat_total = (keep * np.count_nonzero(strength[:, :own_count], axis=1)).sum(axis=1)
    served = sat_total > 0
    signal = np.where(served, sig_total / own_count, 1.0)
    saturation = np.where(served, sat_total / own_count, 1.0)
    coverage = (own_covered + other_covered) / n_cells
    batteries = np.array([1.0 if eid == pool.maker_id else neighbors[eid].battery for eid in ids])
    kept = keep[:, : len(ids)]
    # A running sum adds left to right, in id order, as a sum over the active tuple does.
    battery_total = (kept * batteries).cumsum(axis=1)[:, -1]
    n_kept = np.count_nonzero(kept, axis=1)
    battery = np.where(n_kept > 0, battery_total / np.maximum(n_kept, 1), 1.0)
    return list(
        map(SolutionAttributes, signal.tolist(), saturation.tolist(), coverage.tolist(), battery.tolist())
    )


def compute_attributes(solution: CoverageSolution, pool: CandidatePool) -> SolutionAttributes:
    """The four attributes of one solution; see _attributes for the rules."""
    return _attributes(pool, [solution])[0]


def score(attrs: SolutionAttributes, weights: ScoringWeights) -> float:
    """Weighted product of the four attributes; saturation is a cost.

    A zero battery indicator under zero battery weight contributes the
    neutral factor 1.0 (x^0 is 1 even at x = 0).
    """
    for v in attrs:
        if not math.isfinite(v):
            raise ScoringError(f"non-finite attribute in {attrs}")
    try:
        value = (
            attrs.signal**weights.signal
            * attrs.saturation ** (-weights.saturation)
            * attrs.coverage**weights.coverage
            * attrs.battery**weights.battery
        )
    except OverflowError:
        raise ScoringError(f"score overflow for {attrs}") from None
    if not math.isfinite(value):
        raise ScoringError(f"score overflow for {attrs}")
    return value


def decide(pool: CandidatePool, weights: ScoringWeights) -> Decision:
    """Score every solution and emit the commands realizing the best one.

    Ties prefer more revocations, then the no-action solution, then the
    lexicographically lowest active set. When the pool's attributes are
    undefined (empty own map) no solution is scored: the no-action solution
    is returned unscored and nothing changes.
    """
    solutions = enumerate_solutions(pool)
    try:
        attributes = _attributes(pool, solutions)
    except UndefinedAttributeError:
        pass
    else:
        for sol, attrs in zip(solutions, attributes):
            sol.attrs = attrs
            sol.score = score(attrs, weights)
    no_action_revoked = (pool.maker_id,)
    scored = [s for s in solutions if s.score is not None]
    if scored:
        chosen = min(
            scored,
            key=lambda s: (-s.score, -s.revoked_count, s.revoked != no_action_revoked, s.active),
        )
    else:
        chosen = next(s for s in solutions if s.revoked == no_action_revoked)
    active = set(chosen.active)
    commands = []
    if pool.maker_id in active:
        commands.append(RoleCommand("assign", pool.maker_id))
    for n in pool.neighbors:
        if n.entity_id not in active:
            commands.append(RoleCommand("revoke", n.entity_id))
    return Decision(chosen=chosen, commands=tuple(commands))

