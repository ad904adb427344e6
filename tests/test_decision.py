from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parkrsu.decision
from parkrsu.decision import (
    MAX_REVOCATIONS,
    ActiveRsu,
    BatteryPolicy,
    CandidatePool,
    CoverageSolution,
    RoleCommand,
    ScoringError,
    ScoringWeights,
    SolutionAttributes,
    UndefinedAttributeError,
    battery_indicator,
    compute_attributes,
    decide,
    enumerate_solutions,
    merged_totals,
    reach_levels,
    score,
)
from parkrsu.grid import Cell
from parkrsu.maps import CoverageMap

import oracles

A, B, C, D = Cell(0, 0), Cell(1, 0), Cell(2, 0), Cell(3, 0)


def rsu(entity_id, cells, battery=1.0):
    return ActiveRsu(entity_id, CoverageMap(entity_id, cells), battery)


def reference_pool():
    """Small pool whose attributes were worked out by hand, cell by cell."""
    return CandidatePool(
        maker_id=1,
        maker_map=CoverageMap(1, {A: 5, B: 3}),
        neighbors=(rsu(2, {B: 4, C: 2}, battery=0.5),),
        second_hop=(CoverageMap(7, {C: 1, D: 2}),),
    )


def solution_by_revoked(pool, revoked):
    return next(s for s in enumerate_solutions(pool) if s.revoked == revoked)


class TestValidation:
    def test_default_weights(self):
        w = ScoringWeights()
        assert (w.signal, w.saturation, w.coverage, w.battery) == (1.0, 0.2, 0.3, 0.0)

    @pytest.mark.parametrize("kwargs", [dict(signal=-0.1), dict(saturation=math.nan), dict(coverage=math.inf)])
    def test_bad_weights_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ScoringWeights(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(standard_time_s=0), dict(max_time_s=1800.0), dict(standard_time_s=-5), dict(standard_time_s=math.nan)],
    )
    def test_bad_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BatteryPolicy(**kwargs)

    def test_unbounded_policy_allowed(self):
        BatteryPolicy(max_time_s=math.inf)

    def test_maker_cannot_be_its_own_neighbor(self):
        with pytest.raises(ValueError):
            CandidatePool(1, CoverageMap(1, {A: 5}), neighbors=(rsu(1, {A: 5}),))

    def test_duplicate_neighbors_rejected(self):
        with pytest.raises(ValueError):
            CandidatePool(1, CoverageMap(1, {A: 5}), neighbors=(rsu(2, {A: 5}), rsu(2, {B: 4})))

    def test_toggleable_ids_sorted(self):
        p = CandidatePool(5, CoverageMap(5, {A: 5}), neighbors=(rsu(9, {A: 1}), rsu(2, {A: 2})))
        assert p.toggleable_ids == (2, 5, 9)


class TestBatteryIndicator:
    def test_policy_endpoints(self):
        pol = BatteryPolicy(1800.0, 3600.0)
        assert battery_indicator(0.0, pol) == 1.0
        assert battery_indicator(1799.9, pol) == 1.0
        assert battery_indicator(1800.0, pol) == 1.0
        assert battery_indicator(2700.0, pol) == 0.5
        assert battery_indicator(3600.0, pol) == 0.0
        assert battery_indicator(5000.0, pol) == 0.0

    def test_unbounded_policy_never_decays(self):
        pol = BatteryPolicy(1800.0, math.inf)
        assert battery_indicator(10_000_000.0, pol) == 1.0

    def test_matches_piecewise_oracle(self):
        pol = BatteryPolicy(600.0, 2400.0)
        for t in np.linspace(0, 3000, 61):
            assert battery_indicator(float(t), pol) == pytest.approx(
                oracles.oracle_battery(float(t), 600.0, 2400.0)
            )


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 2), (2, 4), (5, 16), (8, 37), (12, 79)])
    def test_solution_counts(self, n, count):
        pool = CandidatePool(
            0, CoverageMap(0, {A: 5}), neighbors=tuple(rsu(i, {A: 1}) for i in range(1, n))
        )
        assert len(enumerate_solutions(pool)) == count == oracles.solution_count(n)

    def test_matches_filtered_powerset(self):
        pool = CandidatePool(
            3, CoverageMap(3, {A: 5}), neighbors=(rsu(1, {A: 1}), rsu(7, {A: 1}), rsu(5, {A: 1}))
        )
        got = {(s.active, s.revoked) for s in enumerate_solutions(pool)}
        assert got == set(oracles.powerset_solutions([1, 3, 5, 7]))

    def test_order_no_action_first_then_lexicographic(self):
        pool = CandidatePool(2, CoverageMap(2, {A: 5}), neighbors=(rsu(1, {A: 1}), rsu(3, {A: 1})))
        revs = [s.revoked for s in enumerate_solutions(pool)]
        assert revs == [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]

    def test_revoked_count_capped(self):
        pool = CandidatePool(
            0, CoverageMap(0, {A: 5}), neighbors=tuple(rsu(i, {A: 1}) for i in range(1, 9))
        )
        assert all(s.revoked_count <= MAX_REVOCATIONS for s in enumerate_solutions(pool))


class TestAttributesHandChecked:
    def test_all_active(self):
        pool = reference_pool()
        s = solution_by_revoked(pool, ())
        assert compute_attributes(s, pool) == SolutionAttributes(4.5, 1.5, 1.0, 0.75)

    def test_no_action(self):
        pool = reference_pool()
        s = solution_by_revoked(pool, (1,))
        assert compute_attributes(s, pool) == SolutionAttributes(2.0, 0.5, 0.75, 0.5)

    def test_revoke_everything(self):
        pool = reference_pool()
        s = solution_by_revoked(pool, (1, 2))
        assert compute_attributes(s, pool) == SolutionAttributes(1.0, 1.0, 0.5, 1.0)

    def test_keep_maker_only(self):
        pool = reference_pool()
        s = solution_by_revoked(pool, (2,))
        assert compute_attributes(s, pool) == SolutionAttributes(4.0, 1.0, 1.0, 1.0)

    def test_lone_maker_signal_is_own_mean(self):
        pool = CandidatePool(1, CoverageMap(1, {A: 5, B: 3}))
        attrs = compute_attributes(solution_by_revoked(pool, ()), pool)
        assert attrs.signal == 4.0
        assert attrs.saturation == 1.0

    def test_neighbor_max_rule_lifts_signal(self):
        pool = CandidatePool(1, CoverageMap(1, {A: 3}), neighbors=(rsu(2, {A: 5}),))
        attrs = compute_attributes(solution_by_revoked(pool, ()), pool)
        assert attrs.signal == 5.0
        assert attrs.saturation == 2.0

    def test_redundant_no_action_keeps_full_coverage(self):
        pool = CandidatePool(1, CoverageMap(1, {A: 4}), neighbors=(rsu(2, {A: 4}),))
        assert compute_attributes(solution_by_revoked(pool, (1,)), pool).coverage == 1.0

    def test_battery_over_kept_actives_only(self):
        pool = CandidatePool(
            1, CoverageMap(1, {A: 5}), neighbors=(rsu(2, {A: 1}, 0.2), rsu(3, {A: 1}, 0.6))
        )
        def battery(revoked):
            return compute_attributes(solution_by_revoked(pool, revoked), pool).battery

        assert battery(()) == pytest.approx(0.6)
        assert battery((2, 3)) == 1.0
        assert battery((1,)) == pytest.approx(0.4)

    def test_empty_maker_map_is_undefined(self):
        pool = CandidatePool(1, CoverageMap(1, {}))
        for s in enumerate_solutions(pool):
            with pytest.raises(UndefinedAttributeError):
                compute_attributes(s, pool)


class TestScore:
    def test_frozen_weighted_products(self):
        w = ScoringWeights()
        assert score(SolutionAttributes(2.5, 1.2, 0.6, 1.0), w) == pytest.approx(
            2.0679933343077894, rel=1e-15
        )
        w2 = ScoringWeights(1.0, 0.2, 0.3, 0.5)
        assert score(SolutionAttributes(4.0, 2.0, 1.0, 0.5), w2) == pytest.approx(
            2.462288826689832, rel=1e-15
        )

    def test_zero_base_zero_exponent_is_neutral(self):
        w = ScoringWeights(battery=0.0)
        assert score(SolutionAttributes(1.0, 1.0, 1.0, 0.0), w) == 1.0

    def test_saturation_acts_as_cost(self):
        w = ScoringWeights(saturation=0.5)
        lean = score(SolutionAttributes(4.0, 1.0, 1.0, 1.0), w)
        crowded = score(SolutionAttributes(4.0, 3.0, 1.0, 1.0), w)
        assert crowded < lean

    def test_non_finite_attribute_raises(self):
        w = ScoringWeights()
        with pytest.raises(ScoringError):
            score(SolutionAttributes(math.nan, 1.0, 1.0, 1.0), w)

    def test_overflow_raises(self):
        w = ScoringWeights(signal=400.0)
        with pytest.raises(ScoringError):
            score(SolutionAttributes(1e300, 1.0, 1.0, 1.0), w)

    def test_matches_log_space_oracle(self, rng):
        w = ScoringWeights(1.0, 0.2, 0.3, 0.7)
        for _ in range(100):
            sig, sat, cov, bat = rng.uniform(0.1, 5, size=4)
            got = score(SolutionAttributes(sig, sat, cov, bat), w)
            want = oracles.oracle_score(sig, sat, cov, bat, 1.0, 0.2, 0.3, 0.7)
            assert got == pytest.approx(want, rel=1e-12)


class TestDecide:
    def test_reference_pool_keeps_everyone(self):
        d = decide(reference_pool(), ScoringWeights())
        assert d.chosen.active == (1, 2)
        assert d.commands == (RoleCommand("assign", 1),)
        assert d.chosen.score == pytest.approx(4.5 * 1.5**-0.2, rel=1e-12)

    def test_heavy_battery_weight_swaps_tired_neighbor(self):
        d = decide(reference_pool(), ScoringWeights(battery=5.0))
        assert d.chosen.active == (1,)
        assert d.commands == (RoleCommand("assign", 1), RoleCommand("revoke", 2))

    def test_exact_tie_prefers_lowest_active_set(self):
        cells = {A: 4}
        pool = CandidatePool(
            5, CoverageMap(5, cells), neighbors=(rsu(2, cells), rsu(9, cells))
        )
        d = decide(pool, ScoringWeights())
        assert d.chosen.active == (2,)
        assert d.chosen.revoked == (5, 9)
        assert d.commands == (RoleCommand("revoke", 9),)

    def test_lone_maker_becomes_rsu(self):
        pool = CandidatePool(3, CoverageMap(3, {A: 5}))
        d = decide(pool, ScoringWeights())
        assert d.chosen.active == (3,)
        assert d.commands == (RoleCommand("assign", 3),)

    def test_unscoreable_pool_falls_back_to_no_action(self):
        pool = CandidatePool(3, CoverageMap(3, {}))
        d = decide(pool, ScoringWeights())
        assert d.chosen.revoked == (3,)
        assert d.chosen.score is None
        assert d.commands == ()

    def test_attributes_match_oracle(self, rng):
        for _ in range(40):
            pool = random_pool(rng)
            for s in enumerate_solutions(pool):
                got = compute_attributes(s, pool)
                assert got == pytest.approx(oracles.oracle_attributes(pool, s), rel=1e-12)
            d = decide(pool, ScoringWeights())
            assert d.chosen.attrs == compute_attributes(d.chosen, pool)

    def test_parity_with_exhaustive_oracle(self, rng):
        weight_choices = [
            ScoringWeights(),
            ScoringWeights(1.0, 0.0, 0.0, 0.0),
            ScoringWeights(1.0, 0.4, 0.1, 0.0),
            ScoringWeights(1.0, 0.2, 0.3, 1.0),
        ]
        for i in range(300):
            pool = random_pool(rng)
            w = weight_choices[i % len(weight_choices)]
            got = decide(pool, w)
            want_active, want_revoked = oracles.oracle_decide(pool, w)
            assert (got.chosen.active, got.chosen.revoked) == (want_active, want_revoked)

    def test_commands_mirror_chosen_solution(self, rng):
        for _ in range(60):
            pool = random_pool(rng)
            d = decide(pool, ScoringWeights())
            assigns = [c for c in d.commands if c.verb == "assign"]
            revokes = [c for c in d.commands if c.verb == "revoke"]
            if pool.maker_id in d.chosen.active:
                assert assigns == [RoleCommand("assign", pool.maker_id)]
            else:
                assert assigns == []
            neighbor_ids = {n.entity_id for n in pool.neighbors}
            assert {c.target_id for c in revokes} == neighbor_ids - set(d.chosen.active)


GRID_8X8 = [Cell(x, y) for x in range(8) for y in range(8)]


@st.composite
def large_pools(draw):
    """Pools of up to 16 toggleable entities and up to 20 second-hop maps.

    Entity ids are shuffled, so the maker is not always the lowest. Some
    neighbours and second-hop maps copy an earlier neighbour's map (and its
    battery), so alternatives that differ only in which copy they keep tie
    exactly. Batteries are multiples of 1/64 below 1: their sums are exact
    in any order, so those ties stay exact in the oracle's order too.
    """

    def coverage(owner):
        picked = draw(st.lists(st.integers(0, len(GRID_8X8) - 1), min_size=1, max_size=24, unique=True))
        return CoverageMap(owner, {GRID_8X8[i]: draw(st.integers(1, 5)) for i in picked})

    n_neighbors = draw(st.integers(0, 15))
    maker_id, *neighbor_ids = draw(st.permutations(range(1, 17)))[: n_neighbors + 1]
    neighbors = []
    for i, eid in enumerate(neighbor_ids):
        twin = draw(st.none() | st.integers(0, i - 1)) if i else None
        if twin is None:
            neighbors.append(ActiveRsu(eid, coverage(eid), draw(st.integers(0, 63)) / 64))
        else:
            copied = neighbors[twin]
            neighbors.append(ActiveRsu(eid, CoverageMap(eid, dict(copied.coverage.cells)), copied.battery))
    second_hop = []
    for j in range(draw(st.integers(0, 20))):
        twin = draw(st.none() | st.integers(0, len(neighbors) - 1)) if neighbors else None
        cells = coverage(100 + j).cells if twin is None else neighbors[twin].coverage.cells
        second_hop.append(CoverageMap(100 + j, dict(cells)))
    return CandidatePool(maker_id, coverage(maker_id), tuple(neighbors), tuple(second_hop))


class TestBatchedScoringLargePools:
    @settings(max_examples=60, deadline=None)
    @given(
        pool=large_pools(),
        weights=st.sampled_from(
            [
                ScoringWeights(1.0, 0.2, 0.3, 0.7),
                ScoringWeights(1.0, 0.0, 0.3, 0.5),
                ScoringWeights(1.0, 0.4, 0.1, 2.5),
            ]
        ),
    )
    def test_matches_oracles(self, pool, weights):
        for s in enumerate_solutions(pool):
            assert compute_attributes(s, pool) == oracles.oracle_attributes(pool, s)
        scored = []

        def enumerate_and_keep(p):
            scored.append(enumerate_solutions(p))
            return scored[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parkrsu.decision, "enumerate_solutions", enumerate_and_keep)
            d = decide(pool, weights)
        assert (d.chosen.active, d.chosen.revoked) == oracles.oracle_decide(pool, weights)
        [solutions] = scored
        assert len(solutions) == oracles.solution_count(len(pool.neighbors) + 1)
        assert all(s.attrs is not None and s.score is not None for s in solutions)
        assert any(s is d.chosen for s in solutions)


@st.composite
def class_stacks(draw):
    """int8 strength classes of shape (batch, maps, cells); maps may be 0."""
    batch = draw(st.integers(1, 3))
    n_maps = draw(st.integers(0, 6))
    n_cells = draw(st.integers(1, 8))
    size = batch * n_maps * n_cells
    classes = draw(st.lists(st.integers(0, 5), min_size=size, max_size=size))
    return np.array(classes, dtype=np.int8).reshape(batch, n_maps, n_cells)


class TestMergeKernel:
    @settings(max_examples=200, deadline=None)
    @given(stack=class_stacks())
    def test_totals_of_summed_levels_match_brute_force_merge(self, stack):
        batch, n_maps, n_cells = stack.shape
        summed = reach_levels(stack).sum(axis=1)
        assert summed.shape == (batch, n_cells, 5)
        totals = merged_totals(summed)
        # decision._attributes' encoding: 0/1 choices times a float32 level table.
        table = reach_levels(stack).reshape(batch, n_maps, 5 * n_cells).astype(np.float32)
        product = (np.ones((batch, 1, n_maps), np.float32) @ table).reshape(batch, n_cells, 5)
        for b in range(batch):
            rows = stack[b].tolist()
            best = [max((row[c] for row in rows), default=0) for c in range(n_cells)]
            contributors = sum(cls > 0 for row in rows for cls in row)
            expected = (sum(x > 0 for x in best), sum(best), contributors)
            assert tuple(int(t[b]) for t in totals) == expected
            assert tuple(int(t) for t in merged_totals(summed[b])) == expected
            assert tuple(int(t) for t in merged_totals(product[b])) == expected

    def test_all_zero_merge(self):
        no_reach = reach_levels(np.zeros((4, 7), np.int8)).sum(axis=0)
        assert [int(t) for t in merged_totals(no_reach)] == [0, 0, 0]
        batched = merged_totals(np.zeros((2, 7, 5), np.float32))
        assert [t.tolist() for t in batched] == [[0, 0], [0, 0], [0.0, 0.0]]


def random_pool(rng):
    universe = [Cell(int(x), int(y)) for x in range(4) for y in range(4)]

    def random_map(owner):
        k = int(rng.integers(1, 7))
        idx = rng.choice(len(universe), size=k, replace=False)
        return CoverageMap(owner, {universe[i]: int(rng.integers(1, 6)) for i in idx})

    n_neighbors = int(rng.integers(0, 6))
    neighbors = tuple(
        ActiveRsu(i + 2, random_map(i + 2), float(rng.uniform(0, 1)))
        for i in range(n_neighbors)
    )
    second = tuple(random_map(100 + j) for j in range(int(rng.integers(0, 3))))
    return CandidatePool(1, random_map(1), neighbors=neighbors, second_hop=second)
