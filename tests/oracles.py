"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the dumb, direct way (powersets,
exact fractions, explicit case analysis) and kept free of imports from the
package's internals beyond plain data types, so a bug in the package is
unlikely to be mirrored by an identical bug here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, combinations


# combinatorics


def powerset_solutions(ids, max_revoked=2):
    """All (active, revoked) splits with at most max_revoked revoked.

    Enumerates the full 2^n powerset and filters, as a brute-force check of
    the package's direct construction.
    """
    ids = tuple(sorted(ids))
    out = []
    for r in range(len(ids) + 1):
        for revoked in combinations(ids, r):
            if len(revoked) <= max_revoked:
                active = tuple(i for i in ids if i not in revoked)
                out.append((active, revoked))
    return out


def solution_count(n, max_revoked=2):
    return sum(math.comb(n, k) for k in range(min(n, max_revoked) + 1))


# decision attributes, computed straight from their definitions


def oracle_attributes(pool, solution):
    """(signal, saturation, coverage, battery) for one solution of a pool.

    Recomputes every merge from scratch with sets and generator scans
    instead of incremental dictionaries.
    """
    active = set(solution.active)
    active_maps = []
    if pool.maker_id in active:
        active_maps.append(pool.maker_map)
    active_maps.extend(n.coverage for n in pool.neighbors if n.entity_id in active)
    shading = active_maps + list(pool.second_hop)

    own = list(pool.maker_map.cells)
    if not own:
        raise ValueError("own map empty")

    def best_at(cell):
        classes = [m.cells[cell] for m in shading if cell in m.cells]
        return max(classes) if classes else 0

    def count_at(cell):
        return sum(1 for m in shading if cell in m.cells)

    served = [c for c in own if count_at(c) > 0]
    if served:
        sig = sum(best_at(c) for c in served) / len(own)
        sat = sum(count_at(c) for c in served) / len(own)
    else:
        sig = 1.0
        sat = 1.0

    universe = set()
    for m in chain([pool.maker_map], (n.coverage for n in pool.neighbors), pool.second_hop):
        universe |= set(m.cells)
    if not universe:
        raise ValueError("universe empty")
    covered = set()
    for m in shading:
        covered |= set(m.cells)
    cov = len(covered) / len(universe)

    batteries = []
    if pool.maker_id in active:
        batteries.append(1.0)
    batteries.extend(n.battery for n in pool.neighbors if n.entity_id in active)
    bat = sum(batteries) / len(batteries) if batteries else 1.0
    return sig, sat, cov, bat


def oracle_score(sig, sat, cov, bat, w_sig, w_sat, w_cov, w_bat):
    """Weighted product via explicit log-space accumulation.

    Zero bases with zero weight contribute factor 1; zero bases with
    positive weight zero the product.
    """
    total = 0.0
    for base, w, sign in ((sig, w_sig, 1), (sat, w_sat, -1), (cov, w_cov, 1), (bat, w_bat, 1)):
        if w == 0:
            continue
        if base == 0:
            return 0.0
        total += sign * w * math.log(base)
    return math.exp(total)


def oracle_decide(pool, weights):
    """Best (active, revoked) by exhaustive scoring with explicit tie rules.

    Rules: higher score, then more revocations, then the no-action split
    (revoking only the maker), then lexicographically smallest active set.
    """
    ids = sorted([pool.maker_id] + [n.entity_id for n in pool.neighbors])
    candidates = [(a, r) for a, r in powerset_solutions(ids)]
    rows = []
    for active, revoked in candidates:
        sig, sat, cov, bat = oracle_attributes(pool, _Split(active, revoked))
        s = oracle_score(
            sig, sat, cov, bat, weights.signal, weights.saturation, weights.coverage, weights.battery
        )
        rows.append((active, revoked, s))
    best = None
    for active, revoked, s in rows:
        key = (s, len(revoked), revoked == (pool.maker_id,), _neg_lex(active))
        if best is None or key > best[0]:
            best = (key, active, revoked)
    return best[1], best[2]


class _Split:
    def __init__(self, active, revoked):
        self.active = active
        self.revoked = revoked


def _neg_lex(t):
    # Larger key must mean preferred; prefer lexicographically smaller tuples.
    return tuple(-x for x in t)


# radio geometry


def oracle_band_class(distance_m, edges):
    """Linear search over the four band edges; 0 beyond the last."""
    for cls, edge in zip((5, 4, 3, 2), edges):
        if distance_m <= edge:
            return cls
    return 0


def oracle_segment_cells(a, b):
    """Cells whose open square the center-to-center segment passes through.

    Cell (i, j) is the open square (i - 1/2, i + 1/2) x (j - 1/2, j + 1/2).
    In exact rational arithmetic, the segment is cut at every parameter t
    where it meets a cell boundary, and each open piece between two cuts is
    named by the cell of its midpoint. Touching a corner is a single point,
    so it adds no cell.
    """
    dx, dy = b.x - a.x, b.y - a.y
    cuts = {Fraction(0), Fraction(1)}
    for start, d in ((a.x, dx), (a.y, dy)):
        for k in range(min(start, start + d), max(start, start + d)):
            cuts.add(Fraction(2 * (k - start) + 1, 2 * d))  # meets k + 1/2
    cuts = sorted(cuts)
    cells = set()
    for t0, t1 in zip(cuts, cuts[1:]):
        m = (t0 + t1) / 2
        cells.add((math.floor(a.x + dx * m + Fraction(1, 2)), math.floor(a.y + dy * m + Fraction(1, 2))))
    return cells


def footprint_dict(cache, cell):
    """A footprint row as {usable cell: class} over the cells it reaches."""
    cells = cache.grid.usable_cells
    return {cells[i]: int(s) for i, s in enumerate(cache.footprint(cell)) if s}


def oracle_rssi_class(rssi):
    """Class for an RSSI value by explicit table lookup."""
    table = [(1, 10, 1), (11, 20, 2), (21, 30, 3), (31, 40, 4), (41, 50, 5)]
    for lo, hi, cls in table:
        if lo <= rssi <= hi:
            return cls
    raise ValueError(rssi)


def oracle_quantize(rssi_values):
    """Mean RSSI -> rounded -> clamped -> class, straight from the rules."""
    mean = sum(rssi_values) / len(rssi_values)
    rounded = round(mean)
    rounded = min(50, max(1, rounded))
    return oracle_rssi_class(rounded)


# battery


def oracle_battery(active_s, standard_s, max_s):
    if active_s < standard_s:
        return 1.0
    if math.isinf(max_s):
        return 1.0
    if active_s >= max_s:
        return 0.0
    return (max_s - active_s) / (max_s - standard_s)


# city counting


def manhattan_dimensions(blocks_x, blocks_y, road_w=1, block=3):
    width = road_w + blocks_x * (block + road_w)
    height = road_w + blocks_y * (block + road_w)
    return width, height


def manhattan_usable_count(blocks_x, blocks_y, road_w=1, block=3):
    """Total cells minus the building interiors; buildings are the blocks."""
    width, height = manhattan_dimensions(blocks_x, blocks_y, road_w, block)
    return width * height - blocks_x * blocks_y * block * block


# mobility, walked with a grid query at every hand-off


def walker_next_cell(grid, current, came_from, rng):
    """A uniform draw over the usable 4-neighbors (+x, -x, +y, -y) other
    than came_from; at a dead end, back to came_from if it is usable, else stay.
    """
    options = []
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        n = type(current)(current.x + dx, current.y + dy)
        if grid.is_usable(n) and n != came_from:
            options.append(n)
    if not options:
        if came_from is not None and grid.is_usable(came_from):
            return came_from
        return current
    if len(options) == 1:
        return options[0]
    return options[int(rng.integers(len(options)))]


def walker_step(v, grid, speed_mps, rng):
    """Advance a moving vehicle one second along cell-center road segments."""
    if v.parked_at is not None:
        return
    budget = speed_mps
    if v.target is None or v.target == v.cell:
        v.target = walker_next_cell(grid, v.cell, v.came_from, rng)
        if v.target == v.cell:
            return
    while budget > 0:
        tx, ty = grid.center_of(v.target)
        dist = math.hypot(tx - v.x_m, ty - v.y_m)
        if dist > budget:
            v.x_m += (tx - v.x_m) / dist * budget
            v.y_m += (ty - v.y_m) / dist * budget
            break
        v.x_m, v.y_m = tx, ty
        budget -= dist
        v.came_from = v.cell
        v.cell = v.target
        v.target = walker_next_cell(grid, v.cell, v.came_from, rng)
        if v.target == v.cell:
            break


# traffic analytics


def mm_infinite_mean(arrival_rate, mean_duration_s, t):
    """Expected parked population at time t when arrivals park immediately.

    Births Poisson(arrival_rate), lifetimes exponential(mean_duration_s),
    starting empty: mean = rate * mu * (1 - exp(-t / mu)).
    """
    mu = mean_duration_s
    return arrival_rate * mu * (1.0 - math.exp(-t / mu))


def mean_sd(values):
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(var)
