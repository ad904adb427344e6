"""Brute-force decision re-scoring, independent of parkrsu.decision.

Every alternative that revokes at most two of the toggleable entities (the
maker and its audible active units) is scored straight from the attribute
definitions, using plain set merges over the coverage maps:

- signal: sum over the maker's own cells of the best class any kept or
  second-hop map gives it, divided by the number of own cells; 1.0 when no
  own cell keeps service;
- saturation: the same sum over contributor counts (a cell with no
  contributor adds nothing), same denominator and floor;
- coverage: cells covered by kept and second-hop maps over all cells any
  pool map knows;
- battery: mean indicator over kept entities in ascending id order, the
  maker counting 1.0; 1.0 when nothing is kept.

The score is signal^w_sig * saturation^-w_sat * coverage^w_cov *
battery^w_bat. Ties prefer more revocations, then the no-action alternative
(revoking only the maker), then the lexicographically lowest kept set.
"""

from __future__ import annotations

from itertools import combinations

CLASSES = (5, 4, 3, 2, 1)


def expected_solution_count(n: int) -> int:
    """1 + n + n(n-1)/2 alternatives for n toggleable entities."""
    return 1 + n + n * (n - 1) // 2


def rescore(pool, weights) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(kept ids, revoked ids, number of alternatives) of the best alternative."""
    ids = sorted([pool.maker_id] + [n.entity_id for n in pool.neighbors])
    cells = {pool.maker_id: pool.maker_map.cells}
    battery = {pool.maker_id: 1.0}
    for n in pool.neighbors:
        cells[n.entity_id] = n.coverage.cells
        battery[n.entity_id] = n.battery
    own = set(pool.maker_map.cells)
    hop2 = [m.cells for m in pool.second_hop]
    universe = set(own).union(*cells.values(), *hop2)

    def at_class(maps, k):
        return {c for m in maps for c, s in m.items() if s == k}

    layers = {eid: {k: at_class([cells[eid]], k) for k in CLASSES} for eid in ids}
    hop2_layers = {k: at_class(hop2, k) for k in CLASSES}
    hop2_cells = set().union(*hop2)
    hop2_own = sum(len(own.intersection(m)) for m in hop2)

    alternatives = [()] + [(i,) for i in ids] + list(combinations(ids, 2))
    best_key = None
    best = None
    for revoked in alternatives:
        kept = tuple(i for i in ids if i not in revoked)
        unserved = set(own)
        sig_total = 0
        for k in CLASSES:
            reach = hop2_layers[k].union(*(layers[i][k] for i in kept))
            hit = unserved & reach
            sig_total += k * len(hit)
            unserved -= hit
        if len(unserved) < len(own):
            signal = sig_total / len(own)
            sat_total = hop2_own + sum(len(own.intersection(cells[i])) for i in kept)
            saturation = sat_total / len(own)
        else:
            signal = saturation = 1.0
        covered = hop2_cells.union(*(cells[i] for i in kept))
        coverage = len(covered) / len(universe)
        kept_battery = [battery[i] for i in kept]
        bat = sum(kept_battery) / len(kept_battery) if kept_battery else 1.0
        score = (
            signal**weights.signal
            * saturation ** (-weights.saturation)
            * coverage**weights.coverage
            * bat**weights.battery
        )
        key = (-score, -len(revoked), revoked != (pool.maker_id,), kept)
        if best_key is None or key < best_key:
            best_key, best = key, (kept, revoked)
    return best[0], best[1], len(alternatives)


def check_decisions(captured, weights) -> list[str]:
    """Re-score every captured (pool, decision, solutions) triple.

    Requires the package's chosen alternative, its commands, and
    1 + n + n(n-1)/2 scored alternatives for n toggleable entities.
    """
    fails = []
    for pool, decision, solutions in captured:
        kept, revoked, count = rescore(pool, weights)
        n = len(pool.neighbors) + 1
        scored = sum(1 for s in solutions if s.score is not None)
        if count != expected_solution_count(n) or scored != count:
            fails.append(f"maker {pool.maker_id}: {scored} alternatives scored, expected {count}")
        chosen = decision.chosen
        if (tuple(chosen.active), tuple(chosen.revoked)) != (kept, revoked):
            fails.append(
                f"maker {pool.maker_id}: package chose keep {chosen.active} revoke {chosen.revoked}, "
                f"re-scoring gives keep {kept} revoke {revoked}"
            )
        expected_cmds = [("assign", pool.maker_id)] if pool.maker_id in kept else []
        expected_cmds += [("revoke", nb.entity_id) for nb in pool.neighbors if nb.entity_id in revoked]
        if [(c.verb, c.target_id) for c in decision.commands] != expected_cmds:
            fails.append(f"maker {pool.maker_id}: commands {decision.commands} do not realize the choice")
        if len(fails) >= 5:
            break
    return fails
