import itertools
import math
import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import count_greedy_covers, count_leaf_keys, count_pricing_passes, covers, drop_site_dominated_oracle, dual_violations, make_spec
from helpers import branch_order_oracle, count_planes, dual_ascent_oracle, masks_to_flags, rect_mesh, redundancy_oracle, square_mesh
from hypothesis import example, given
from hypothesis import strategies as st

from gridwatch.catalog import SensorCatalog, default_catalog
from gridwatch import coverage, solver
from gridwatch.coverage import build_coverage, covered_blocks, mask_positions, masks_to_runs
from gridwatch.errors import Infeasible, InfeasibleCoverage, TooLarge, ValidationError
from gridwatch.mesh import DETECTABLE_TERRAINS
from gridwatch.solver import (
    Candidate,
    PlacementInstance,
    _batch_pricer,
    dominance_filter,
    solve_brute,
    solve_exact,
    solve_greedy,
)


def inst_from(universe, sets):
    return PlacementInstance.from_sets(universe, sets)


def enumerate_optimum(instance):
    """Independent oracle: scan all subsets with plain set algebra."""
    best = None
    cands = instance.candidates
    target = set(instance.universe)
    pos = {u: i for i, u in enumerate(instance.universe)}
    for r in range(len(cands) + 1):
        for combo in itertools.combinations(range(len(cands)), r):
            covered = set()
            for i in combo:
                for u, p in pos.items():
                    if (cands[i].covered >> p) & 1:
                        covered.add(u)
            if covered == target:
                cost = math.fsum(cands[i].cost for i in combo)
                key = (cost, len(combo), tuple(cands[i].cid for i in combo))
                if best is None or key < best:
                    best = key
    return best


# -- spec toy instances -----------------------------------------------------------


def test_exact_picks_cheaper_pair_over_single():
    inst = inst_from([1, 2], [("a", [1, 2], 5), ("b", [2], 1), ("c", [1], 3)])
    for solver in (solve_exact, solve_brute):
        plan = solver(inst)
        assert [c.cid for c in plan.chosen] == ["b", "c"]
        assert plan.total_cost == 4.0
        assert plan.proven_optimal
        assert covers(inst, plan)


def test_forced_single_candidate():
    inst = inst_from([1], [("only", [1], 7)])
    for solver in (solve_exact, solve_brute, solve_greedy):
        plan = solver(inst)
        assert [c.cid for c in plan.chosen] == ["only"]
        assert plan.total_cost == 7.0
    # Forcing alone proves the plan: no node is searched, and the plan still
    # reports every key of an exact plan, its bound being the forced cost.
    plan = solve_exact(inst)
    assert set(plan.metadata) == {"site_dominated", "dedup_removed", "forced", "budget_exceeded", "root_lower_bound"}
    assert plan.metadata["root_lower_bound"] == plan.total_cost
    assert plan.metadata["forced"] == 1
    assert plan.metadata["budget_exceeded"] is False
    assert plan.nodes_explored == 0
    assert plan.proven_optimal


def test_forced_reduction_leaves_residual_search():
    # "a" alone covers 1 and 2, "b" alone covers 6.  Every block of the residual
    # {3, 4, 5} has two coverers, and greedy's pick ("x" then "v", 3.3) loses
    # to "w" + "y" (3.1), so the search has to run.
    sets = [
        ("a", [1, 2], 4.0),
        ("b", [6], 1.0),
        ("v", [5], 1.3),
        ("w", [3], 1.1),
        ("x", [3, 4], 2.0),
        ("x2", [3, 4], 2.5),
        ("y", [4, 5], 2.0),
        ("y2", [4, 5], 3.0),
    ]
    inst = inst_from([1, 2, 3, 4, 5, 6], sets)
    plan = solve_exact(inst)
    assert plan.metadata["forced"] == 2
    assert plan.metadata["dedup_removed"] == 2
    assert plan.nodes_explored > 0
    brute = solve_brute(inst)
    assert plan.total_cost == brute.total_cost
    assert [c.cid for c in plan.chosen] == [c.cid for c in brute.chosen] == ["a", "b", "w", "y"]


def test_greedy_can_be_suboptimal():
    inst = inst_from([1, 2, 3, 4], [("a", [1, 2, 3], 3.0), ("b", [3, 4], 2.4), ("c", [1, 2], 2.2)])
    greedy = solve_greedy(inst)
    exact = solve_exact(inst)
    assert [c.cid for c in greedy.chosen] == ["a", "b"]
    assert greedy.total_cost == pytest.approx(5.4)
    assert [c.cid for c in exact.chosen] == ["b", "c"]
    assert exact.total_cost == pytest.approx(4.6)
    assert not greedy.proven_optimal


def test_greedy_picks_best_rate_and_happens_optimal():
    inst = inst_from([1, 2, 3, 4], [("a", [1, 2], 2.0), ("b", [3, 4], 2.0), ("c", [1, 2, 3, 4], 3.5)])
    greedy = solve_greedy(inst)
    assert [c.cid for c in greedy.chosen] == ["c"]
    assert greedy.total_cost == pytest.approx(3.5)
    assert solve_exact(inst).total_cost == pytest.approx(3.5)


# -- contracts ---------------------------------------------------------------------


def test_brute_rejects_large_instances():
    sets = [(f"c{i:02d}", [0], 1.0) for i in range(21)]
    with pytest.raises(TooLarge):
        solve_brute(inst_from([0], sets))


def test_uncoverable_block_is_infeasible():
    inst = inst_from([1, 2], [("a", [1], 1.0)])
    for solver in (solve_exact, solve_brute, solve_greedy):
        with pytest.raises(Infeasible):
            solver(inst)


class _Unread:
    """A candidate whose mask must not be read."""

    cid = "unread"
    cost = 1.0

    @property
    def covered(self):
        raise AssertionError("the cover check read a mask past the full union")


def test_the_cover_check_reads_masks_until_the_union_is_full():
    # Full only at its last candidate: every mask is read and none is missed.
    inst = inst_from(range(6), [("a", [0, 1], 1.0), ("b", [1, 2, 3], 1.0), ("c", [2], 1.0), ("d", [5, 4], 1.0)])
    solver._check_coverable(inst)
    # Full at its first candidate: the masks after it are not read.
    full = inst_from(range(6), [("all", range(6), 1.0)])
    solver._check_coverable(PlacementInstance(full.universe, full.candidates + (_Unread(),)))
    # An empty universe is full before any candidate.
    solver._check_coverable(PlacementInstance((), (_Unread(),)))


@pytest.mark.parametrize(
    "universe, sets, message",
    [
        ([1, 2, 3], [("a", [2], 1.0), ("b", [2], 1.0)], "no candidate covers block(s) [1, 3]"),
        (range(1, 13), [("a", [1], 1.0)], "no candidate covers block(s) [2, 3, 4, 5, 6, 7, 8, 9, 10, 11]..."),
        ([7], [], "no candidate covers block(s) [7]"),
    ],
    ids=["two", "past-ten", "no-candidate"],
)
def test_the_cover_check_names_the_blocks_no_candidate_covers(universe, sets, message):
    with pytest.raises(Infeasible) as raised:
        solver._check_coverable(inst_from(universe, sets))
    assert str(raised.value) == message


@pytest.mark.parametrize("cost", [0.0, -1.0, math.inf, math.nan])
def test_nonpositive_cost_rejected(cost):
    with pytest.raises(ValidationError, match="expected a finite positive number"):
        inst_from([1], [("a", [1], cost)])


@pytest.mark.parametrize(
    "universe, sets, message",
    [
        ([1], [("a", [1], 1.0), ("a", [1], 2.0)], "duplicate candidate id 'a'"),
        # Cids are stored as strings, where 1 and "1" are the same id.
        ([1, 2], [(1, [1], 1.0), ("1", [2], 1.0)], "duplicate candidate id '1'"),
        # Unchecked, a repeated element collapses in the position map and
        # leaves a bit no candidate can cover.
        ([1, 1, 2], [("a", [1, 2], 1.0)], r"universe repeats element\(s\) \[1\]"),
    ],
    ids=["cid", "cid-after-str", "universe-element"],
)
def test_duplicate_cid_rejected(universe, sets, message):
    with pytest.raises(ValidationError, match=message):
        inst_from(universe, sets)


def test_empty_universe_yields_empty_plan():
    for sets in ([], [("empty", [], 1.0)]):
        inst = inst_from([], sets)
        for solver in (solve_exact, solve_brute, solve_greedy):
            plan = solver(inst)
            assert plan.chosen == ()
            assert plan.total_cost == 0.0
        plan = solve_exact(inst)
        assert set(plan.metadata) == {"site_dominated", "dedup_removed", "forced", "budget_exceeded", "root_lower_bound"}
        assert plan.metadata["root_lower_bound"] == plan.total_cost
        assert plan.nodes_explored == 0
        assert plan.proven_optimal


def test_node_budget_returns_incumbent_unproven():
    rng = random.Random(3)
    universe = list(range(30))
    sets = [(f"c{i:02d}", rng.sample(universe, rng.randint(3, 12)), rng.uniform(1, 9)) for i in range(16)]
    sets.append(("zz", universe, 40.0))
    inst = inst_from(universe, sets)
    plan = solve_exact(inst, node_budget=1)
    assert not plan.proven_optimal
    assert plan.metadata["budget_exceeded"]
    assert covers(inst, plan)
    assert plan.total_cost >= solve_brute(inst).total_cost


def test_exact_is_deterministic():
    rng = random.Random(11)
    universe = list(range(25))
    sets = [(f"c{i:02d}", rng.sample(universe, rng.randint(2, 10)), rng.uniform(1, 50)) for i in range(14)]
    sets.append(("zz", universe, 120.0))
    inst = inst_from(universe, sets)
    one = solve_exact(inst)
    two = solve_exact(inst)
    assert [c.cid for c in one.chosen] == [c.cid for c in two.chosen]
    assert one.total_cost == two.total_cost
    assert one.nodes_explored == two.nodes_explored


def test_cost_scaling_equivariance():
    rng = random.Random(5)
    universe = list(range(20))
    sets = [(f"c{i:02d}", rng.sample(universe, rng.randint(2, 8)), rng.uniform(1, 20)) for i in range(12)]
    sets.append(("zz", universe, 60.0))
    base = inst_from(universe, sets)
    doubled = inst_from(universe, [(cid, els, 2.0 * cost) for cid, els, cost in sets])
    p1, p2 = solve_exact(base), solve_exact(doubled)
    assert [c.cid for c in p1.chosen] == [c.cid for c in p2.chosen]
    assert p2.total_cost == pytest.approx(2.0 * p1.total_cost, rel=1e-12)


def test_exact_matches_subset_enumeration_oracle():
    rng = random.Random(99)
    for _ in range(25):
        n_el = rng.randint(3, 8)
        universe = list(range(n_el))
        n_c = rng.randint(2, 7)
        sets = [(f"c{i}", rng.sample(universe, rng.randint(1, n_el)), rng.uniform(1, 30)) for i in range(n_c)]
        sets.append(("zz", universe, rng.uniform(20, 40)))
        inst = inst_from(universe, sets)
        best = enumerate_optimum(inst)
        exact = solve_exact(inst)
        brute = solve_brute(inst)
        assert exact.total_cost == best[0]
        assert brute.total_cost == best[0]
        assert (brute.total_cost, len(brute.chosen), tuple(c.cid for c in brute.chosen)) == best


def test_greedy_never_beats_exact_and_respects_harmonic_bound():
    rng = random.Random(42)
    for _ in range(40):
        n_el = rng.randint(4, 30)
        universe = list(range(n_el))
        sets = [(f"c{i:02d}", rng.sample(universe, rng.randint(1, n_el)), rng.uniform(1, 100)) for i in range(rng.randint(3, 15))]
        sets.append(("zz", universe, rng.uniform(50, 150)))
        inst = inst_from(universe, sets)
        exact = solve_exact(inst)
        greedy = solve_greedy(inst)
        assert greedy.total_cost >= exact.total_cost - 1e-9
        h = sum(1.0 / k for k in range(1, max(c.covered.bit_count() for c in inst.candidates) + 1))
        assert greedy.total_cost <= h * exact.total_cost + 1e-9


def tied_integer_instances():
    """400 instances whose integer costs make many plans tie; universes cross
    byte and 64-bit word boundaries of the covered-set masks."""
    rng = random.Random(2312)
    for _ in range(400):
        n_el = rng.randint(1, 150)
        universe = list(range(n_el))
        sets = [(f"c{i:02d}", rng.sample(universe, rng.randint(1, n_el)), rng.randint(1, 4)) for i in range(rng.randint(1, 15))]
        sets.append(("zz", universe, rng.randint(4, 16)))
        yield inst_from(universe, sets)


def test_exact_matches_brute_on_tied_integer_costs():
    for inst in tied_integer_instances():
        exact = solve_exact(inst)
        brute = solve_brute(inst)
        assert exact.proven_optimal
        assert (exact.total_cost, len(exact.chosen), [c.cid for c in exact.chosen]) == (
            brute.total_cost, len(brute.chosen), [c.cid for c in brute.chosen]
        )


def test_node_with_every_branch_coverer_excluded():
    # The search reaches a node whose branch block's coverers were all tried
    # by earlier siblings, so it has no child to price.
    sets = [
        ("c0", [0, 2, 3, 4, 5], 7.0),
        ("c1", [1, 4, 5], 5.0),
        ("c2", [0, 3, 5], 9.0),
        ("c3", [2], 4.0),
        ("c4", [0, 1, 3, 5], 3.0),
    ]
    plan = solve_exact(inst_from(range(6), sets))
    assert plan.total_cost == 10.0
    assert [c.cid for c in plan.chosen] == ["c0", "c4"]
    assert plan.nodes_explored == 4
    assert plan.proven_optimal


def test_budget_stopped_search_on_coverage_is_pinned():
    """The nodes the search visits, not only the plan it returns, are fixed:
    a 16x16 mixed-land mesh stopped mid-search must end exactly here."""
    rng = random.Random(0)
    codes = [[rng.choice([0, 0, 2, 2, 3, 4]) for _ in range(16)] for _ in range(16)]
    mesh = square_mesh(16, codes)
    table = build_coverage(mesh, default_catalog().filtered(["Radar", "Acoustic", "OpticalCamera"]), 0.98)
    plan = solve_exact(PlacementInstance.from_coverage(table), node_budget=2000)
    assert plan.total_cost == 885000.0
    assert [c.cid for c in plan.chosen] == ["Acoustic@000254", "Radar@000085", "Radar@000125", "Radar@000245"]
    assert plan.nodes_explored == 2001
    assert plan.metadata["budget_exceeded"] is True
    assert not plan.proven_optimal
    # Dual ascent at the budget exit, raised from the static share bound.
    assert repr(plan.metadata["root_lower_bound"]) == "605242.9378531073"
    assert plan.metadata["root_lower_bound"] >= 444899.5267195311


def forced_then_branching_instance(seed):
    """24 random sets over 40 elements; a costly extra set covers whatever
    they miss, so some elements have one coverer and force it at the root."""
    rng = random.Random(seed)
    sets = [(f"c{i:02d}", [e for e in range(40) if rng.random() < 0.12], rng.choice([2.0, 3.0, 5.0, 7.5])) for i in range(24)]
    sets.append(("lone", [e for e in range(40) if not any(e in s[1] for s in sets)] + [0], 9.0))
    return inst_from(range(40), sets)


@pytest.mark.parametrize(
    "seed,forced,cids,root_bound,static_bound",
    [
        (1, 3, "c00 c01 c02 c03 c04 c06 c07 c11 c13 c17 c23 lone", "44.083333333333336", 39.28571428571429),
        (3, 4, "c01 c03 c07 c09 c10 c13 c14 c15 c19 c21 c23 lone", "43.5", 37.083333333333336),
        (14, 5, "c01 c04 c07 c08 c10 c11 c12 c13 c15 c18 c20 c23", "39.25", 29.083333333333332),
    ],
)
def test_search_after_forcing_is_pinned(seed, forced, cids, root_bound, static_bound):
    """Forcing, then a residual search that branches until the node budget
    stops it.  Each node branches on the uncovered block with the fewest
    coverers; these searches end elsewhere when the order ignores that count.
    The reported bound is the dual ascent's, raised from the static one."""
    plan = solve_exact(forced_then_branching_instance(seed), node_budget=12)
    assert plan.metadata["forced"] == forced
    assert plan.metadata["budget_exceeded"] is True
    assert plan.nodes_explored == 13
    assert " ".join(c.cid for c in plan.chosen) == cids
    assert repr(plan.metadata["root_lower_bound"]) == root_bound
    assert plan.metadata["root_lower_bound"] >= static_bound


@pytest.fixture()
def dual_ascents(monkeypatch):
    """(static price, raised price) of every dual ascent ``solve_exact`` runs, in order."""
    seen = []
    ascend = solver._dual_ascent

    def ascend_and_keep(res):
        seen.append((res.price, ascend(res)))
        return seen[-1][1]

    monkeypatch.setattr(solver, "_dual_ascent", ascend_and_keep)
    return seen


def float_cost_instances():
    """The shapes of :func:`tied_integer_instances` with costs whose shares
    sum back to a candidate's cost only within rounding."""
    rng = random.Random(1987)
    for inst in tied_integer_instances():
        yield PlacementInstance(inst.universe, tuple(replace(c, cost=c.cost * rng.uniform(0.1, 1.0)) for c in inst.candidates))


@pytest.mark.parametrize("instances", [tied_integer_instances, float_cost_instances])
@pytest.mark.parametrize("node_budget", [0, 1, 2, 5])
def test_budget_stopped_bound_is_dual_feasible_and_below_the_optimum(dual_ascents, node_budget, instances):
    exits = 0
    for inst in instances():
        plan = solve_exact(inst, node_budget=node_budget)
        if not plan.metadata["budget_exceeded"]:
            assert len(dual_ascents) == exits
            continue
        exits += 1
        assert len(dual_ascents) == exits, "one dual ascent per budget exit"
        static, prices = dual_ascents[-1]
        # The ascent only raises prices, and keeps them dual feasible.
        assert (prices >= static).all()
        assert dual_violations(inst, prices) == []
        optimum = solve_brute(inst).total_cost
        assert plan.metadata["root_lower_bound"] <= optimum * (1 + 1e-9)
        assert math.fsum(prices) <= plan.metadata["root_lower_bound"] * (1 + 1e-9)
    assert exits >= 40


FLOAT_TIE_COSTS = (0.1, 0.2, 0.3, 0.7, 1.5, 2.25, 3.0)


def float_tie_instances():
    """The shapes of :func:`tied_integer_instances` with costs whose sums
    agree in one order and split by an ulp in another."""
    rng = random.Random(3400)
    for _ in range(400):
        n_el = rng.randint(1, 150)
        universe = list(range(n_el))
        sets = [(f"c{i:02d}", rng.sample(universe, rng.randint(1, n_el)), rng.choice(FLOAT_TIE_COSTS)) for i in range(rng.randint(1, 15))]
        sets.append(("zz", universe, 3.0 + rng.choice(FLOAT_TIE_COSTS)))
        yield inst_from(universe, sets)


def test_exact_matches_brute_on_float_ties():
    for inst in float_tie_instances():
        exact, brute = solve_exact(inst), solve_brute(inst)
        key = (brute.total_cost, len(brute.chosen), tuple(c.cid for c in brute.chosen))
        assert (exact.total_cost, len(exact.chosen), tuple(c.cid for c in exact.chosen)) == key
        # The set-algebra oracle checks the brute solver's own tie rule.
        if len(inst.candidates) <= 7:
            assert key == enumerate_optimum(inst)


def test_equal_fsum_totals_tie_on_size():
    # Summed in search order, 0.2 + 0.2 + 1.5 + 1.5 can come out an ulp below
    # 0.2 + 0.2 + 3.0; both fsum to 3.4, so the plan of three wins.
    sets = [
        ("c00", [0], 0.2),
        ("c01", [1, 2, 5], 0.2),
        ("c02", [0, 2], 1.5),
        ("c03", [4, 5], 1.5),
        ("c04", [1, 2, 3, 4], 3.0),
        ("c05", [2], 1.5),
        ("c06", [1, 3, 5], 1.5),
    ]
    inst = inst_from(range(6), sets)
    assert math.fsum([0.2, 0.2, 1.5, 1.5]) == math.fsum([0.2, 0.2, 3.0]) == 3.4
    for plan in (solve_exact(inst), solve_brute(inst)):
        assert [c.cid for c in plan.chosen] == ["c00", "c01", "c04"]
        assert plan.total_cost == 3.4


@pytest.mark.parametrize("instances", [tied_integer_instances, float_cost_instances])
def test_lagrangian_bound_and_fixing_keep_the_optimum(instances):
    fixed = 0
    for inst in instances():
        full = inst.full_mask
        res = solver._Residual(list(inst.candidates), full, [], inst.n_elements)
        if not res.remaining:
            continue
        greedy = res.forced + [res.active[i] for i in solver._greedy_cover(res.active, res.remaining)]
        bound, keep, incumbent = solver._lagrangian(res, res.price, greedy)
        brute = solve_brute(inst)
        assert res.forced_cost + bound <= brute.total_cost * (1 + 1e-9)
        active = {c.cid for c in res.active}
        kept = {c.cid for c, k in zip(res.active, keep) if k}
        assert {c.cid for c in brute.chosen} & active <= kept
        # The heuristic's plan covers, and never costs more than the greedy's.
        union = 0
        for c in incumbent:
            union |= c.covered
        assert union == full
        assert math.fsum(c.cost for c in incumbent) <= math.fsum(c.cost for c in greedy)
        fixed += len(active) - len(kept)
    assert fixed >= 1000


@given(
    n=st.integers(1, 8),
    specs=st.lists(
        st.tuples(st.integers(0, 255), st.sampled_from([1.0, 2.0, 2.0, 3.0]), st.sampled_from([None, 0, 1, 2])),
        min_size=1,
        max_size=12,
    ),
)
def test_same_site_dominance_matches_the_complement_rule(n, specs):
    # Tied and unequal costs, shared and distinct sites, subsets, supersets and equal sets.
    sets = [(f"c{i:02d}", [p for p in range(n) if bits >> p & 1], cost) for i, (bits, cost, _) in enumerate(specs)]
    inst = inst_from(range(n), sets)
    sited = [replace(c, site=site) for c, (_, _, site) in zip(inst.candidates, specs)]
    assert solver._drop_site_dominated(sited) == drop_site_dominated_oracle(sited)


def dedup_oracle(candidates):
    """The cheapest, then least-cid, candidate of each covered-set value, in
    cid order, and how many the others number."""
    groups = {}
    for c in candidates:
        groups.setdefault(c.covered, []).append(c)
    kept = sorted((min(group, key=lambda c: (c.cost, c.cid)) for group in groups.values()), key=lambda c: c.cid)
    return kept, len(candidates) - len(kept)


@st.composite
def dedup_cases(draw):
    """``(value, cost, distinct)`` rows and a permutation of their cids."""
    rows = draw(st.lists(st.tuples(st.integers(0, 3), st.sampled_from([1.0, 2.0, 3.0]), st.booleans()), max_size=12))
    return rows, draw(st.permutations([f"c{i:02d}" for i in range(len(rows))]))


@given(dedup_cases())
# One shared object, tied costs, the least cid given last.
@example(([(1, 2.0, False)] * 4, ["c03", "c02", "c01", "c00"]))
# Equal masks that are distinct objects only, and a cheaper one after them.
@example(([(1, 2.0, True)] * 3 + [(1, 1.0, True), (2, 1.0, True), (2, 1.0, True)], ["c05", "c00", "c04", "c03", "c02", "c01"]))
# Shared and distinct objects of one value, tied costs across them.
@example(([(3, 1.0, False), (3, 1.0, True), (3, 1.0, False), (0, 1.0, True)], ["c02", "c01", "c03", "c00"]))
def test_dedup_keeps_the_cheapest_candidate_of_each_covered_set(case):
    # The root hashes a mask object once and keys the others holding it by
    # their id.  Unequal masks must never meet and equal ones never part,
    # whether they are one object or not; ties go to the least cid.
    rows, cids = case
    # Masks past 2**70 are never cached ints, so int(str(m)) is a new object.
    shared = {v: v << 70 for v in range(4)}
    candidates = []
    for (value, cost, distinct), cid in zip(rows, cids):
        covered = int(str(shared[value])) if distinct else shared[value]
        assert (covered is shared[value]) == (not distinct or value == 0)
        candidates.append(Candidate(cid, covered, cost))
    kept, removed = solver._dedup_identical(candidates)
    expected, expected_removed = dedup_oracle(candidates)
    assert [id(c) for c in kept] == [id(c) for c in expected]
    assert removed == expected_removed


def test_same_site_dominance_keeps_the_plan():
    # Without sites no candidate is beaten at its own site, so the root keeps
    # them all; the plan must be the same either way.
    rng = random.Random(90)
    catalog = default_catalog().filtered(["Acoustic", "OpticalCamera", "Radar", "RF"])
    dropped = 0
    for _ in range(30):
        bx, by = rng.randint(2, 5), rng.randint(2, 5)
        codes = [[rng.choice([0, 0, 1, 2, 3, 4]) for _ in range(bx)] for _ in range(by)]
        codes[0][0] = 0
        names = rng.sample(catalog.names, rng.randint(2, 4))
        try:
            table = build_coverage(rect_mesh(bx, by, codes), catalog.filtered(names), rng.choice([0.9, 0.98]))
        except InfeasibleCoverage:
            continue
        inst = PlacementInstance.from_coverage(table)
        siteless = PlacementInstance(inst.universe, tuple(replace(c, site=None) for c in inst.candidates))
        beaten = len(inst.candidates) - len(solver._drop_site_dominated(inst.candidates))
        dropped += beaten
        assert solver._drop_site_dominated(siteless.candidates) == list(siteless.candidates)
        one, two = solve_exact(inst), solve_exact(siteless)
        assert one.proven_optimal and two.proven_optimal
        assert (one.metadata["site_dominated"], two.metadata["site_dominated"]) == (beaten, 0)
        assert (one.total_cost, [c.cid for c in one.chosen]) == (two.total_cost, [c.cid for c in two.chosen])
    assert dropped >= 50


def search_like_instance():
    """A 20x20 mesh whose rows each shuffle 10 open, 6 neighborhood, 1 hill
    and 3 commercial blocks, under Radar, Acoustic and OpticalCamera at
    r = 0.98: about a thousand residual candidates after the root's
    reductions, and an optimum the search alone does not prove in 20 000
    nodes."""
    rng = random.Random(0)
    row = [0] * 10 + [2] * 6 + [3] + [4] * 3
    mesh = square_mesh(20, [rng.sample(row, len(row)) for _ in range(20)])
    table = build_coverage(mesh, default_catalog().filtered(["Radar", "Acoustic", "OpticalCamera"]), 0.98)
    return PlacementInstance.from_coverage(table)


@pytest.fixture()
def lagrangians(monkeypatch):
    """Number of root Lagrangians ``solve_exact`` runs, in a one-item list."""
    seen = [0]
    relax = solver._lagrangian

    def relax_and_count(*args):
        seen[0] += 1
        return relax(*args)

    monkeypatch.setattr(solver, "_lagrangian", relax_and_count)
    return seen


@pytest.mark.parametrize("node_budget", [0, 5, 300, 2000])
def test_lagrangian_skipped_when_the_budget_cannot_pay_for_it(lagrangians, node_budget):
    rng = random.Random(0)
    codes = [[rng.choice([0, 0, 2, 2, 3, 4]) for _ in range(16)] for _ in range(16)]
    table = build_coverage(square_mesh(16, codes), default_catalog().filtered(["Radar", "Acoustic", "OpticalCamera"]), 0.98)
    plan = solve_exact(PlacementInstance.from_coverage(table), node_budget=node_budget)
    assert plan.metadata["budget_exceeded"] is True
    assert plan.nodes_explored == node_budget + 1
    assert lagrangians == [0]


def test_search_like_instance_is_proven_on_the_core(lagrangians):
    """The probe stops on its budget, the Lagrangian and fixing leave a core,
    and the core search proves the plan: the pinned plan is the least key,
    at other sites than the probe's incumbent of equal cost."""
    inst = search_like_instance()
    plan = solve_exact(inst, node_budget=20_000)
    assert lagrangians == [1]
    assert plan.proven_optimal
    assert plan.metadata["budget_exceeded"] is False
    assert plan.total_cost == 840000.0
    assert [c.cid for c in plan.chosen] == ["Radar@000000", "Radar@000093", "Radar@000264", "Radar@000294"]
    assert plan.nodes_explored == 13799
    assert repr(plan.metadata["root_lower_bound"]) == "820869.0351556332"


def branching_instances():
    """60 instances of 19 random sets over 40 elements, each element in a
    set with odds 1 in 4, and a costly set for what they miss: most
    searches outlast a probe of one node per candidate."""
    for seed in range(60):
        rng = random.Random(seed)
        sets = [(f"c{i:02d}", [e for e in range(40) if rng.random() < 0.25], rng.choice([2.0, 3.0, 5.0, 7.5])) for i in range(19)]
        sets.append(("lone", [e for e in range(40) if not any(e in s[1] for s in sets)] + [0], 9.0))
        yield inst_from(range(40), sets)


def test_probe_lagrangian_and_core_on_oracle_instances(lagrangians):
    # At 120 nodes the gate holds for up to 20 residual candidates, so the
    # probe, the Lagrangian and the core search all run, on instances small
    # enough for the oracle.
    for inst in branching_instances():
        plan = solve_exact(inst, node_budget=120)
        brute = solve_brute(inst)
        assert plan.nodes_explored <= 121
        assert plan.proven_optimal
        assert [c.cid for c in plan.chosen] == [c.cid for c in brute.chosen]
        assert plan.metadata["root_lower_bound"] <= brute.total_cost * (1 + 1e-9)
    assert lagrangians[0] >= 40


def test_core_search_stopped_by_the_budget(lagrangians):
    # The gate holds at 6 000 nodes, but the core needs more than is left.
    inst = search_like_instance()
    plan = solve_exact(inst, node_budget=6000)
    assert lagrangians == [1]
    assert not plan.proven_optimal
    assert plan.nodes_explored == 6001
    assert plan.total_cost == 840000.0
    assert 607457.6271186441 < plan.metadata["root_lower_bound"] <= plan.total_cost


def root_pass_oracle(active, remaining, n):
    """The root pass as one loop over the candidates, each mask unpacked to
    price its blocks and count their coverers: the static price and the
    branch order."""
    price = np.full(n, np.inf)
    counts = np.zeros(n, dtype=np.int64)
    for c in active:
        eff = c.covered & remaining
        share = c.cost / eff.bit_count()
        flags = masks_to_flags([eff], n)[0].astype(bool)
        price[flags] = np.minimum(price[flags], share)
        counts += flags
    price = np.where(np.isfinite(price), price, 0.0)
    return price, sorted(mask_positions(remaining), key=lambda p: (int(counts[p]), p))


def run_order(res):
    """The set bits of each of ``res``'s run masks, ascending, the runs in
    turn until ``class_mask`` raises past the last: the branch order as the
    residual holds it.  ``res`` needs only the fields ``class_mask`` reads."""
    order = []
    for k in itertools.count():
        try:
            order += mask_positions(solver._Residual.class_mask(res, k))
        except IndexError:
            return order


def root_pass(active, remaining, n):
    """``solver._root_pass`` on the shares of the blocks of ``remaining``,
    and their branch order as the run masks read off the bit planes of the
    masks of ``active`` (see :func:`run_order`)."""
    shares = np.array([c.cost / (c.covered & remaining).bit_count() for c in active])
    planes = solver._bit_planes([c.covered for c in active])
    runs = SimpleNamespace(_planes=planes, _classes=[], _unclassed=remaining)
    return solver._root_pass(active, shares, remaining, n), run_order(runs)


@pytest.mark.parametrize("chunk_cells", [solver._CHUNK_CELLS, 100, 1])
def test_root_pass_matches_the_per_candidate_loop(monkeypatch, chunk_cells):
    # Integer costs make shares tie.  Up to 700 candidates give blocks more
    # coverers than a byte counts.  The root pass takes no chunks: its price
    # and order stay the loop's whatever chunk size the other passes use.
    monkeypatch.setattr(solver, "_CHUNK_CELLS", chunk_cells)
    rng = random.Random(1416)
    for n in (1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 200):
        for size in (40, 40, 40, 40, 700):
            remaining = rng.getrandbits(n) | 1 << rng.randrange(n)
            cands = [Candidate(f"c{i:03d}", rng.getrandbits(n) | 1 << rng.randrange(n), float(rng.randint(1, 6))) for i in range(rng.randint(1, size))]
            cands.append(Candidate("all", (1 << n) - 1, float(rng.randint(1, 3 * n))))
            active = [c for c in cands if c.covered & remaining]
            price, order = root_pass_oracle(active, remaining, n)
            got_price, got_order = root_pass(active, remaining, n)
            assert np.array_equal(got_price, price)
            assert got_order == order
    # Block 0 has 300 coverers and block 1 has 100: counted in one byte, 300
    # would read 44 and reverse the order.
    active = three_hundred_and_one_hundred_coverers()
    assert root_pass(active, 0b11, 2)[1] == root_pass_oracle(active, 0b11, 2)[1] == [1, 0]


def three_hundred_and_one_hundred_coverers():
    """300 candidates over two blocks: all cover block 0, the first 100
    block 1."""
    return [Candidate(f"d{i:03d}", 0b01 | (0b10 if i < 100 else 0), 1.0) for i in range(300)]


@given(
    st.sampled_from([1, 7, 8, 9, 63, 64, 65, 130]).flatmap(
        lambda n: st.lists(st.sampled_from([0, (1 << n) - 1]) | st.integers(0, (1 << n) - 1), max_size=80)
    )
)
@example([])
@example([0, 0, 0])
# Counts of 7 and 8 on either side of a carry into plane 3, added in pairs
# and with one mask left over.
@example([1] * 7)
@example([1] * 8)
@example([0b11] * 255 + [0b01])
def test_bit_planes_count_each_position(masks):
    # Full masks among up to 80 make counts carry past 63 into plane 6.
    counts = [sum((m >> p) & 1 for m in masks) for p in range(max((m.bit_length() for m in masks), default=0))]
    assert solver._bit_planes(masks) == count_planes(counts)


def forcing_oracle(candidates, remaining):
    """The forcing of ``solver._Residual`` from once and twice unions: the
    candidates that alone cover a block of ``remaining``, and the blocks
    of ``remaining`` they leave."""
    once = twice = 0
    for c in candidates:
        twice |= once & c.covered
        once |= c.covered
    singles = once & ~twice & remaining
    forced = [c for c in candidates if c.covered & singles]
    for c in forced:
        remaining &= ~c.covered
    return forced, remaining


def root_residuals():
    """``(candidates, residual)`` of the root of the forcing instance and of
    every tied-integer, float-cost and branching instance: the candidates
    the root's two reductions keep, and the residual built from them."""
    families = (tied_integer_instances(), float_cost_instances(), branching_instances())
    for inst in itertools.chain([forcing_instance()], *families):
        kept, _ = solver._dedup_identical(solver._drop_site_dominated(inst.candidates))
        yield kept, solver._Residual(kept, inst.full_mask, [], inst.n_elements)


def test_a_residual_forces_prices_and_orders_as_the_oracles():
    forcing = 0
    for kept, res in root_residuals():
        forced, remaining = forcing_oracle(kept, (1 << len(res.price)) - 1)
        active = [c for c in kept if c.covered & remaining]
        price, order = root_pass_oracle(active, remaining, len(res.price))
        assert [c.cid for c in res.forced] == [c.cid for c in forced]
        assert [c.cid for c in res.active] == [c.cid for c in active]
        assert res.remaining == remaining
        assert np.array_equal(res.price, price)
        assert run_order(res) == order
        forcing += bool(forced) and bool(remaining)
    assert forcing >= 30
    active = three_hundred_and_one_hundred_coverers()
    res = solver._Residual(active, 0b11, [], 2)
    assert run_order(res) == root_pass_oracle(active, 0b11, 2)[1] == [1, 0]


def test_forcing_leaves_the_counts_of_the_blocks_left():
    # The residual orders the blocks left by their coverers counted before
    # forcing, over every candidate; on those blocks the counts over the
    # active candidates are the same.
    dropped = 0
    for kept, res in root_residuals():
        planes = solver._bit_planes([c.covered for c in kept])
        before = [sum(((plane >> p) & 1) << k for k, plane in enumerate(planes)) for p in res.rows.tolist()]
        after = [sum((c.covered >> p) & 1 for c in res.active) for p in res.rows.tolist()]
        assert before == after
        dropped += len(res.active) < len(kept) and bool(res.remaining)
    assert dropped >= 30


# The instance families of the branch block lookup's test, each listed on
# first use.
_LOOKUP_FAMILIES = {}


def lookup_family(name):
    """The tied-integer, float-cost, branching or forcing instances, as a list."""
    if name not in _LOOKUP_FAMILIES:
        forcing = lambda: [forcing_instance()] + [forced_then_branching_instance(seed) for seed in (1, 3, 14)]
        families = {"tied": tied_integer_instances, "float": float_cost_instances, "branching": branching_instances, "forcing": forcing}
        _LOOKUP_FAMILIES[name] = list(families[name]())
    return _LOOKUP_FAMILIES[name]


def count_runs_oracle(res):
    """The branch order of ``res`` (see :func:`branch_order_oracle`) cut into
    its runs of equal count of coverers, a block's count being the number
    of ``res.active`` that cover it."""
    count = lambda p: sum((c.covered >> p) & 1 for c in res.active)
    return [list(run) for _, run in itertools.groupby(branch_order_oracle(res), key=count)]


def first_in_order(order, uncovered):
    """The first block of ``order`` in ``uncovered``."""
    return next(p for p in order if (uncovered >> p) & 1)


@given(data=st.data())
def test_the_branch_block_is_the_first_uncovered_block_in_the_order(data):
    # Each run of the order is one class mask, whose set bits in ascending
    # order are the run.  The lookup, from any run up to the one holding the
    # answer, gives the first block of the order left uncovered, and so does
    # every lookup a search or dual ascent makes, after forcing and in a
    # core too.
    family = lookup_family(data.draw(st.sampled_from(["tied", "float", "branching", "forcing"])))
    inst = family[data.draw(st.integers(0, len(family) - 1))]
    kept, _ = solver._dedup_identical(solver._drop_site_dominated(inst.candidates))
    res = solver._Residual(kept, inst.full_mask, [], inst.n_elements)
    runs = count_runs_oracle(res)
    masks = [res.class_mask(k) for k in range(len(runs))]
    assert [mask_positions(m) for m in masks] == runs
    with pytest.raises(IndexError):
        res.class_mask(len(runs))
    assert sum(masks) == res.remaining
    assert sum(m.bit_count() for m in masks) == res.remaining.bit_count()
    if res.remaining:
        uncovered = res.remaining & data.draw(st.integers(0, inst.full_mask)) or res.remaining
        first = first_in_order(branch_order_oracle(res), uncovered)
        k = next(k for k, run in enumerate(runs) if first in run)
        assert [res.branch_block(uncovered, at) for at in range(k + 1)] == [(k, first)] * (k + 1)
    looked_up, orders = [], {}
    branch_block = solver._Residual.branch_block

    def record(self, uncovered, at):
        found = branch_block(self, uncovered, at)
        # Each residual's order, kept beside it so that its id is not reused.
        if id(self) not in orders:
            orders[id(self)] = (self, branch_order_oracle(self))
        looked_up.append((found[1], first_in_order(orders[id(self)][1], uncovered)))
        return found

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver._Residual, "branch_block", record)
        solve_exact(inst, node_budget=data.draw(st.sampled_from([5, 30, 120, solver.DEFAULT_NODE_BUDGET])))
    assert all(got == want for got, want in looked_up)


def root_residual(inst):
    """The residual ``solve_exact`` builds at the root of ``inst``: of the
    candidates the root's two reductions keep, forced."""
    kept, _ = solver._dedup_identical(solver._drop_site_dominated(inst.candidates))
    return solver._Residual(kept, inst.full_mask, [], inst.n_elements)


def sweep_r_like_residual():
    """The root residual of a 30x30 mesh whose rows each shuffle 9 open, 3
    water, 9 neighborhood, 3 hill and 6 commercial blocks, under the sensors
    that track non-cooperative targets at r = 0.98: the map and sensors of
    the benchmark's r sweep at one of its points."""
    rng = random.Random(30)
    row = [0] * 9 + [1] * 3 + [2] * 9 + [3] * 3 + [4] * 6
    catalog = default_catalog().filtered([s.name for s in default_catalog() if s.tracks_noncooperative])
    mesh = square_mesh(30, [rng.sample(row, len(row)) for _ in range(30)], min_range=catalog.min_range_km)
    return root_residual(PlacementInstance.from_coverage(build_coverage(mesh, catalog, 0.98)))


def test_the_dual_ascent_raises_the_blocks_of_the_branch_order_in_turn():
    # The ascent finds each block it raises through the search's lookup;
    # the oracle walks the sorted branch order and skips every block of a
    # tight candidate.  They raise the same blocks in the same turn, and
    # their prices agree bit for bit, on the lookup test's four families,
    # the search-like instance and a sweep-r-like residual.  Raising a
    # block of a tight candidate would add 0 to its price, so only the
    # blocks looked up show that those are skipped.
    families = [lookup_family(name) for name in ("tied", "float", "branching", "forcing")]
    residuals = [root_residual(inst) for inst in itertools.chain(*families, [search_like_instance()])]
    residuals.append(sweep_r_like_residual())
    looked_up = []
    branch_block = solver._Residual.branch_block

    def record(self, live, at):
        found = branch_block(self, live, at)
        looked_up.append(found[1])
        return found

    changed = 0
    for res in residuals:
        looked_up.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver._Residual, "branch_block", record)
            prices = solver._dual_ascent(res)
        expected, raised = dual_ascent_oracle(res, branch_order_oracle(res))
        assert prices.tobytes() == expected.tobytes()
        assert looked_up == raised
        changed += not np.array_equal(prices, res.price)
    assert changed >= 500
    assert len(residuals[-1].active) > 1000


def forcing_instance():
    """12 blocks where block 0 has one coverer, "a", and the blocks it
    leaves need a search."""
    return inst_from(range(12), [
        ("a", [0, 1], 5.0),
        ("b", [1, 2, 3, 4], 2.0),
        ("c", [3, 4, 5, 6], 2.0),
        ("d", [5, 6, 7, 8], 2.0),
        ("e", [7, 8, 9, 10, 11], 3.0),
        ("f", [2, 4, 6, 8, 10], 3.0),
        ("g", [1, 9, 11], 2.0),
    ])


def root_relaxations(inst):
    """The root's dual-ascent prices, and its Lagrangian's ``repr(bound)``,
    ``keep`` flags and incumbent cids from the ascent's prices and the greedy
    incumbent."""
    kept, _ = solver._dedup_identical(solver._drop_site_dominated(inst.candidates))
    res = solver._Residual(kept, inst.full_mask, [], inst.n_elements)
    prices = solver._dual_ascent(res)
    greedy = res.forced + [res.active[i] for i in solver._greedy_cover(res.active, res.remaining)]
    bound, keep, incumbent = solver._lagrangian(res, prices, greedy)
    return prices, repr(bound), keep, sorted(c.cid for c in incumbent)


@pytest.mark.parametrize(
    "instance, chunk_cells",
    [(search_like_instance, solver._CHUNK_CELLS), (search_like_instance, 1000), (forcing_instance, 1)],
)
def test_root_relaxations_do_not_depend_on_the_chunk_size(monkeypatch, instance, chunk_cells):
    # At 1 000 cells a chunk of the search-like instance holds two of its
    # 400-block masks; at 1 cell every chunk is one candidate.
    inst = instance()
    prices, bound, keep, cids = root_relaxations(inst)
    monkeypatch.setattr(solver, "_CHUNK_CELLS", chunk_cells)
    got_prices, got_bound, got_keep, got_cids = root_relaxations(inst)
    assert np.array_equal(got_prices, prices)
    assert (got_bound, got_cids) == (bound, cids)
    assert np.array_equal(got_keep, keep)
    if instance is search_like_instance:
        assert (got_bound, int(got_keep.sum())) == ("820869.0351556332", 233)


def test_the_lagrangian_does_not_depend_on_the_span_width(monkeypatch):
    # A^T u sums each column over the same rows in the same order whatever
    # the spans: at 100 cells most of these instances split into several
    # spans, and at 1 cell every span holds one column.  100 steps keep the
    # loop short and still shrink the step size and call the heuristic.
    monkeypatch.setattr(solver, "_LAGRANGE_STEPS", 100)
    default, split = solver._CHUNK_CELLS, 0
    for inst in itertools.chain(tied_integer_instances(), float_cost_instances()):
        kept, _ = solver._dedup_identical(solver._drop_site_dominated(inst.candidates))
        res = solver._Residual(kept, inst.full_mask, [], inst.n_elements)
        if not res.remaining:
            continue
        split += int(res.sizes.sum()) > 100
        results = []
        for span_cells in (default, 100, 1):
            monkeypatch.setattr(solver, "_CHUNK_CELLS", span_cells)
            _, bound, keep, cids = root_relaxations(inst)
            results.append((bound, keep.tolist(), cids))
        assert results[1] == results[0]
        assert results[2] == results[0]
    assert split >= 400


def test_a_residual_counts_its_candidates_once_and_unpacks_no_mask_to_flags(monkeypatch):
    # One pass of the bit-plane counter over the candidates' masks forces,
    # and orders the blocks left.  That the share prices are found without
    # unpacking a list of masks is checked statically: no module of the
    # package names masks_to_flags (test_no_module_names_masks_to_flags).
    search = search_like_instance()
    kept, _ = solver._dedup_identical(solver._drop_site_dominated(search.candidates))
    forcing = forcing_instance()
    counted = []
    bit_planes = solver._bit_planes

    def count_and_keep(masks):
        counted.append(list(masks))
        return bit_planes(masks)

    monkeypatch.setattr(solver, "_bit_planes", count_and_keep)
    for candidates, inst in ((kept, search), (list(forcing.candidates), forcing)):
        counted.clear()
        res = solver._Residual(candidates, inst.full_mask, [], inst.n_elements)
        assert res.remaining
        assert counted == [[c.covered for c in candidates]]
    assert [c.cid for c in res.forced] == ["a"]


def test_a_solve_unpacks_no_mask_to_flags(monkeypatch, lagrangians):
    # The probe stops on its budget, so the dual ascent, the Lagrangian and
    # the core search run too: the residuals count their coverers in bit
    # planes, the ascent reads the masks' nonzero bytes, the Lagrangian
    # their set bits, and its heuristic drops redundant picks by unions of
    # their masks.  That none of them unpacks a list of masks to flags is
    # checked statically (test_no_module_names_masks_to_flags); this solve
    # checks that every stage runs, on two residuals, and that each run of
    # the heuristic keeps the picks the per-position loop keeps.
    inst = search_like_instance()
    residuals, dropped = [], []
    init, drop_redundant = solver._Residual.__init__, solver._drop_redundant

    def init_and_keep(self, *args):
        init(self, *args)
        residuals.append(self)

    def drop_and_check(masks):
        kept = drop_redundant(masks)
        dropped.append(kept == redundancy_oracle(masks, own_counts(masks)))
        return kept

    monkeypatch.setattr(solver._Residual, "__init__", init_and_keep)
    monkeypatch.setattr(solver, "_drop_redundant", drop_and_check)
    solve_exact(inst, node_budget=20_000)
    assert lagrangians == [1]
    assert len(residuals) == 2
    assert dropped == [True] * 38


def test_the_lagrangian_reads_only_the_blocks_left():
    # The incidence holds the set bits of each active mask cut to the blocks
    # left, so cutting the masks beforehand must change nothing.  Forcing
    # leaves active masks that reach blocks the forced candidates cover: on
    # the forcing instance and on most branching instances, but on none of
    # the tied-integer or float-cost ones, whose residuals force nothing.
    reaching = 0
    families = (tied_integer_instances(), float_cost_instances(), branching_instances())
    for inst in itertools.chain([forcing_instance()], *families):
        kept, _ = solver._dedup_identical(solver._drop_site_dominated(inst.candidates))
        res = solver._Residual(kept, inst.full_mask, [], inst.n_elements)
        if not res.remaining:
            continue
        prices = solver._dual_ascent(res)
        greedy = res.forced + [res.active[i] for i in solver._greedy_cover(res.active, res.remaining)]
        results = []
        reaching += any(c.covered & ~res.remaining for c in res.active)
        for active in (res.active, [replace(c, covered=c.covered & res.remaining) for c in res.active]):
            res.active = active
            bound, keep, incumbent = solver._lagrangian(res, prices, greedy)
            results.append((repr(bound), keep.tolist(), [c.cid for c in incumbent]))
        assert results[1] == results[0]
    assert reaching >= 30


def test_root_proven_instance_explores_only_the_root():
    # No block has one coverer, and "a"'s share prices every block at the
    # greedy plan's cost.  The root still branches, and none of its children
    # can beat the incumbent, so it is the one node explored.
    inst = inst_from(range(4), [("a", range(4), 4.0), ("b", [0, 1], 3.0), ("c", [2, 3], 3.0)])
    plan = solve_exact(inst)
    assert [c.cid for c in plan.chosen] == ["a"]
    assert plan.metadata["forced"] == 0
    assert plan.metadata["root_lower_bound"] == plan.total_cost == 4.0
    assert plan.nodes_explored == 1
    assert plan.proven_optimal


def test_batch_pricer_matches_boolean_sum():
    # Sizes on both sides of byte and 64-bit word boundaries; the table sums
    # in another order than numpy's pairwise sum, so equality is to a few ulps.
    rng = random.Random(8)
    for n in (1, 7, 8, 9, 63, 64, 65, 150, 401):
        price = np.array([rng.uniform(0.0, 10.0) for _ in range(n)])
        masks = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(20)]
        expected = [price[masks_to_flags([m], n)[0].astype(bool)].sum() for m in masks]
        assert _batch_pricer(price)(masks) == pytest.approx(expected, rel=1e-12, abs=1e-12)
    assert _batch_pricer(np.ones(5))([]).shape == (0,)


# -- instances from coverage tables --------------------------------------------------


def test_from_coverage_candidate_shape():
    mesh = square_mesh(2, min_range=0.4)
    cat = default_catalog().filtered(["RF", "Acoustic"])
    table = build_coverage(mesh, cat, 0.98)
    inst = PlacementInstance.from_coverage(table)
    assert inst.universe == mesh.in_area_blocks
    # The instance holds the table's own entries, in cid order.
    assert len(inst.candidates) == len(table.entries)
    ordered = sorted(table.entries, key=lambda e: e.cid)
    for c, entry in zip(inst.candidates, ordered):
        assert c is entry
        assert c.cid == f"{c.sensor}@{c.site:06d}"
        assert c.cost == c.units * cat.get(c.sensor).unit_price_usd


@st.composite
def coverage_layouts(draw):
    """A grid of 1-7 by 1-7 blocks, square or not, of random terrain with land
    in its four corner cells, so sites sit on every edge, and two ranges:
    one a float, one the distance L*hypot(a+1/2, b+1/2) to the far corner of
    an on-grid offset, nudged by at most 2e-12 km, which straddles the
    1e-12 km edge tolerance."""
    blocks_x, blocks_y = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    codes = draw(
        st.lists(
            st.lists(st.sampled_from([-1, 0, 1, 2, 3, 4]), min_size=blocks_x, max_size=blocks_x),
            min_size=blocks_y,
            max_size=blocks_y,
        )
    )
    for row, col in ((0, 0), (0, -1), (-1, 0), (-1, -1)):
        codes[row][col] = 0
    block_side = draw(st.sampled_from([0.3, 0.1, 0.25, 0.7, 1.3]))
    a, b = draw(st.integers(0, blocks_x - 1)), draw(st.integers(0, blocks_y - 1))
    nudge = draw(st.sampled_from([-1e-13, 0.0, 1e-13, -2e-12, 2e-12]))
    edge = block_side * math.hypot(a + 0.5, b + 0.5) + nudge
    return blocks_x, blocks_y, codes, block_side, edge, draw(st.floats(0.25, 1.4)) * block_side / 0.3


@given(layout=coverage_layouts())
@example(layout=(5, 3, [[0] * 5] * 3, 0.3, 0.3 * math.hypot(1.5, 0.5) - 1e-13, 0.5))
@example(layout=(2, 6, [[0, 0], [1, -1], [0, 2], [3, 4], [-1, 1], [0, 0]], 0.7, 0.7 * math.hypot(1.5, 3.5), 0.9))
def test_from_coverage_masks_match_covered_blocks(layout):
    """Set bits mapped through the universe give the geometric covered set,
    also where OUTSIDE_AREA and WATER cells shift in-area positions, on
    non-square grids, at every grid edge and at the corner-distance boundary.
    The stencil walk is checked on every layout, the instance on the layouts
    whose blocks all have a coverer, and the reported blocks on the rest."""
    blocks_x, blocks_y, codes, block_side, edge, free = layout
    mesh = rect_mesh(blocks_x, blocks_y, codes, block_side=block_side)
    cat = SensorCatalog((make_spec(name="Edge", range_km=edge), make_spec(name="Free", range_km=free)))
    universe = mesh.in_area_blocks
    reached = {(spec.name, s.block): covered_blocks(mesh, spec, s) for spec in cat for s in mesh.candidate_sites}
    pairs, _ = coverage._footprints(mesh, cat)
    for _, sensor, site, covered, _, _ in pairs:
        assert tuple(u for p, u in enumerate(universe) if (covered >> p) & 1) == reached[sensor, site]
    # Every site whose footprint is non-empty keeps its pair, and no other.
    assert {(sensor, site) for _, sensor, site, _, _, _ in pairs} == {key for key, blocks in reached.items() if blocks}
    unreached = tuple(z for z in universe if not any(z in blocks for blocks in reached.values()))
    if unreached:
        with pytest.raises(InfeasibleCoverage) as err:
            build_coverage(mesh, cat, 0.98)
        assert err.value.uncovered == unreached
        return
    inst = PlacementInstance.from_coverage(build_coverage(mesh, cat, 0.98))
    assert inst.universe == universe
    assert len(inst.candidates) == len(pairs)
    for c in inst.candidates:
        got = tuple(u for p, u in enumerate(inst.universe) if (c.covered >> p) & 1)
        expected = reached[c.sensor, c.site]
        assert got == expected
        assert c.n_covered == len(expected)


def test_from_coverage_respects_filter():
    mesh = square_mesh(2, min_range=0.4)
    table = build_coverage(mesh, default_catalog().filtered(["Radar"]), 0.98)
    inst = PlacementInstance.from_coverage(table)
    assert {c.sensor for c in inst.candidates} == {"Radar"}
    with pytest.raises(ValidationError):
        default_catalog().filtered(["Radar", "Nope"])


# -- dominance filter -----------------------------------------------------------------


def _instance_with_sensors(names):
    cands = tuple(
        Candidate(cid=f"{n}@000000", covered=1, cost=1.0, sensor=n, site=0) for n in sorted(names)
    )
    return PlacementInstance(universe=(0,), candidates=cands)


def test_dominance_retains_only_rf():
    names = ["Radar", "RF", "Acoustic", "OpticalCamera"]
    cat = default_catalog().filtered(names)
    filtered = dominance_filter(_instance_with_sensors(names), cat)
    assert {c.sensor for c in filtered.candidates} == {"RF"}


def test_dominance_single_type_unchanged():
    cat = default_catalog().filtered(["Radar"])
    inst = _instance_with_sensors(["Radar"])
    out = dominance_filter(inst, cat)
    assert out.candidates == inst.candidates
    assert {c.sensor for c in out.candidates} == {"Radar"}


def test_dominance_identical_specs_keeps_lexicographic_first():
    twin_a = make_spec(name="AlphaTwin")
    twin_b = make_spec(name="BetaTwin")
    cat = SensorCatalog((twin_a, twin_b))
    out = dominance_filter(_instance_with_sensors(["AlphaTwin", "BetaTwin"]), cat)
    assert {c.sensor for c in out.candidates} == {"AlphaTwin"}


def _beats(v, u) -> bool:
    """The filter's rule, one comparison at a time: v reaches as far, detects as
    well everywhere and costs no more per reachable area, strictly in one of
    them or, tied in all, with the earlier name."""
    rate_v, rate_u = (s.unit_price_usd * s.fov_multiplier / s.range_km ** 2 for s in (v, u))
    if v.range_km < u.range_km or rate_v > rate_u or any(v.detect[t] < u.detect[t] for t in v.detect):
        return False
    strict = v.range_km > u.range_km or rate_v < rate_u or any(v.detect[t] > u.detect[t] for t in v.detect)
    return strict or v.name < u.name


@given(
    st.lists(
        st.tuples(
            st.sampled_from([1.0, 2.0]),
            st.sampled_from([1000.0, 2000.0, 4000.0]),
            st.sampled_from([1, 2]),
            st.lists(st.sampled_from([0.3, 0.6]), min_size=5, max_size=5),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_dominance_matches_the_pairwise_rule(draws):
    # Few values per field, so types tie in some places and in all of them.
    specs = [
        make_spec(name=f"T{i}", range_km=r, price=price, fov=fov, detect=dict(zip(DETECTABLE_TERRAINS, ps)))
        for i, (r, price, fov, ps) in enumerate(draws)
    ]
    filtered = dominance_filter(_instance_with_sensors([s.name for s in specs]), SensorCatalog(tuple(specs)))
    kept = {c.sensor for c in filtered.candidates}
    assert kept == {u.name for u in specs if not any(v is not u and _beats(v, u) for v in specs)}


def test_dominance_preserves_optimal_cost_on_mini_mesh():
    codes = [[0, 2, 0], [2, 3, 2], [0, 2, 4]]
    mesh = square_mesh(3, codes, min_range=0.4)
    names = ["Radar", "RF", "Acoustic", "OpticalCamera"]
    cat = default_catalog().filtered(names)
    table = build_coverage(mesh, cat, 0.98)
    inst = PlacementInstance.from_coverage(table)
    unfiltered = solve_exact(inst)
    filtered = solve_exact(dominance_filter(inst, cat))
    assert filtered.total_cost == unfiltered.total_cost


def run_pricing_residuals():
    """Residuals of random instances whose masks scatter over the universe,
    so a mask holds many runs, with sizes on both sides of byte and 64-bit
    word boundaries; then the search-like stencil instance's."""
    rng = random.Random(23)
    for n in (1, 7, 8, 9, 63, 64, 65, 200, 401):
        sets = [(f"c{i:02d}", [e for e in range(n) if rng.random() < 0.5], rng.uniform(1.0, 10.0)) for i in range(30)]
        sets.append(("all", range(n), 10.0 * n))
        inst = inst_from(range(n), sets)
        yield solver._Residual(list(inst.candidates), inst.full_mask, [], n)
    inst = search_like_instance()
    kept, _ = solver._dedup_identical(solver._drop_site_dominated(inst.candidates))
    yield solver._Residual(kept, inst.full_mask, [], inst.n_elements)


def test_run_pricing_matches_boolean_sum():
    # A node prices its children by prefix sums over their masks' runs; the
    # oracle sums ``price`` over each child's newly covered flags.
    rng = random.Random(5)
    for res in run_pricing_residuals():
        n = len(res.price)
        order = branch_order_oracle(res)
        for p in order[:: max(1, len(order) // 10)]:
            for _ in range(5):
                uncovered = (res.remaining & rng.getrandbits(n)) | 1 << p
                cost, newly = res.children_of(res.block(p), uncovered)
                idx = res.block(p).idx
                flags = masks_to_flags([res.active[ci].covered & uncovered for ci in idx], n).astype(bool)
                assert newly.tolist() == pytest.approx([res.price[f].sum() for f in flags], rel=1e-12)
                assert cost.tolist() == [res.active[ci].cost for ci in idx]


def test_pricing_passes_match_a_fresh_prefix_sum_bit_for_bit():
    # A pass unpacks its mask alone, sums its product into a prefix sum of
    # its own and reads the cached runs as rows of bounds; its prices are,
    # bit for bit, those of a product and prefix sum built anew and read at
    # the coverers' runs found anew.  A later pass leaves the arrays an
    # earlier one returned as they were.
    inst = search_like_instance()
    kept, _ = solver._dedup_identical(solver._drop_site_dominated(inst.candidates))
    res = solver._Residual(kept, inst.full_mask, [], inst.n_elements)
    n = len(res.price)
    rng = random.Random(29)
    returned = []
    for p in branch_order_oracle(res)[::10]:
        blk = res.block(p)
        runs, offsets = masks_to_runs([res.active[ci].covered for ci in blk.idx], n)
        for uncovered in (res.remaining, (res.remaining & rng.getrandbits(n)) | 1 << p, 1 << p):
            prefix = np.zeros(n + 1)
            np.cumsum(res.price * masks_to_flags([uncovered], n)[0], out=prefix[1:])
            ends = prefix.take(runs)
            expected = np.add.reduceat(ends[:, 1] - ends[:, 0], offsets[:-1])
            cost, newly = res.children_of(blk, uncovered)
            assert newly.tobytes() == expected.tobytes()
            returned.append((cost, newly, cost.copy(), newly.copy()))
    assert all(a.tobytes() == c.tobytes() and b.tobytes() == d.tobytes() for a, b, c, d in returned)


def test_a_repeated_pricing_pass_returns_the_blocks_last_result_bit_for_bit():
    # A block keeps its last pass: the same uncovered blocks, as the same
    # int or an equal one, get that result back, also after other blocks
    # were priced in between, and it is bit for bit a pass of a residual
    # that never priced before.  Other uncovered blocks get a pass of
    # their own, and so does the first set once they have replaced it.
    inst = search_like_instance()
    kept, _ = solver._dedup_identical(solver._drop_site_dominated(inst.candidates))
    res, fresh = (solver._Residual(kept, inst.full_mask, [], inst.n_elements) for _ in range(2))
    n = len(res.price)
    rng = random.Random(31)
    blocks = branch_order_oracle(res)[::10]
    reused = 0
    for p in blocks:
        uncovered = (res.remaining & rng.getrandbits(n)) | 1 << p
        other = res.remaining if uncovered != res.remaining else 1 << p
        first = res.children_of(res.block(p), uncovered)
        for q in blocks:
            if q != p:
                res.children_of(res.block(q), (res.remaining & rng.getrandbits(n)) | 1 << q)
        for again in (uncovered, int(str(uncovered))):
            cost, newly = res.children_of(res.block(p), again)
            assert cost is first[0] and newly is first[1]
            reused += 1
        expected = fresh.children_of(fresh.block(p), uncovered)
        assert first[1].tobytes() == expected[1].tobytes()
        assert first[0].tobytes() == expected[0].tobytes()
        # Another set is priced anew, and then the first one is too.
        assert res.children_of(res.block(p), other)[1].tobytes() == fresh.children_of(fresh.block(p), other)[1].tobytes()
        cost, newly = res.children_of(res.block(p), uncovered)
        assert newly is not first[1]
        assert newly.tobytes() == expected[1].tobytes()
    assert reused == 2 * len(blocks) > 0


def test_every_coverer_list_is_ascending():
    # The search keys one leaf child of each cost, the first it reaches;
    # that one is the least by picks only if a block's coverers come in
    # ascending index.  Every block's record holds what a scan of the
    # residual's candidates finds, and its reach and runs, once filled, are
    # the union of its coverers' masks and their runs.
    for res in itertools.chain(run_pricing_residuals(), [sweep_r_like_residual()]):
        n = len(res.price)
        for p in res.rows.tolist():
            blk = res.block(p)
            idx = [ci for ci, c in enumerate(res.active) if (c.covered >> p) & 1]
            assert blk.idx == idx == sorted(set(idx))
            assert blk.mask == sum(1 << ci for ci in idx)
            assert blk.least == min(res.active[ci].cost for ci in idx)
            assert blk.reach is None and blk.runs is None
            res.completes(blk, 1 << p)
            reach = 0
            for ci in idx:
                reach |= res.active[ci].covered
            assert blk.reach == reach
            res.children_of(blk, 1 << p)
            runs, offsets = masks_to_runs([res.active[ci].covered for ci in idx], n)
            assert np.array_equal(blk.runs[0], runs.T) and np.array_equal(blk.runs[1], offsets[:-1])
            assert blk.runs[2].tolist() == [res.active[ci].cost for ci in idx]


def test_run_cache_build_memory_stays_small():
    # A city-10k-like map: 100x100 blocks with water and blocks outside the
    # area, under ADS-B, RF and RemoteID.  The block with the most coverers
    # has about 700; its runs are built a chunk of coverers at a time, where
    # unpacking all their masks at once would peak at about 7.6 MB.
    rng = random.Random(100)
    codes = [[rng.choice([-1, 0, 0, 0, 1, 2, 2, 2, 3, 4, 4]) for _ in range(100)] for _ in range(100)]
    catalog = default_catalog().filtered(["ADS-B", "RF", "RemoteID"])
    inst = PlacementInstance.from_coverage(build_coverage(square_mesh(100, codes, min_range=catalog.min_range_km), catalog, 0.98))
    kept, _ = solver._dedup_identical(solver._drop_site_dominated(inst.candidates))
    res = solver._Residual(kept, inst.full_mask, [], inst.n_elements)
    p = branch_order_oracle(res)[-1]
    blk = res.block(p)
    assert len(blk.idx) > 600
    tracemalloc.start()
    try:
        res.children_of(blk, 1 << p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def solve_both_ways(inst, node_budget):
    """``solve_exact`` with the search's two skip bounds, then with both
    turned off through their one seam, every block record's ``least`` set
    to -inf, and how often each priced a node."""
    solved = []
    init = solver._Block.__init__

    def unbounded(self, active, p):
        init(self, active, p)
        self.least = -math.inf

    for block_init in (init, unbounded):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver._Block, "__init__", block_init)
            priced = count_pricing_passes(mp)
            plan = solve_exact(inst, node_budget=node_budget)
        search = ([c.cid for c in plan.chosen], plan.nodes_explored, plan.metadata["budget_exceeded"])
        solved.append((search + (repr(plan.metadata["root_lower_bound"]),), priced[0]))
    return solved


@pytest.mark.parametrize("instances", [tied_integer_instances, float_cost_instances, float_tie_instances])
@pytest.mark.parametrize("node_budget", [1, 5, 30, solver.DEFAULT_NODE_BUDGET])
def test_skipping_unpriced_nodes_changes_no_search(instances, node_budget):
    # A node is left unpriced only when no child could pass the bound, so the
    # search explores the same nodes and returns the same plan and bound.
    # Every instance is solved: the bounds skip pricing in about one solve
    # in four, so a sample would check few of them.  A one-node search
    # prices its root.
    skipped = 0
    for inst in instances():
        (with_bounds, priced), (without, priced_all) = solve_both_ways(inst, node_budget)
        assert with_bounds == without
        skipped += priced < priced_all
    assert skipped > 0 or node_budget == 1


def test_a_child_leaving_a_block_under_the_mean_price_is_priced():
    # The greedy picks w, then x: 10.2.  The root branches on block 0, and
    # its child x leaves only block 3, priced 1/3 by w's share, so x passes
    # at 9.2 + 1/3 and leads to d + x.  The incumbent is 1.0 above x's cost,
    # under the mean block price of about 1.02: a skip bound that took the
    # mean price in place of the least would leave the root unpriced.
    sets = [("w", [1, 2, 3], 1.0), ("x", [0, 1, 2], 9.2), ("y", [0], 9.8), ("z", [1, 2], 8.0), ("d", [3], 0.5)]
    plan = solve_exact(inst_from(range(4), sets))
    assert (plan.total_cost, [c.cid for c in plan.chosen], plan.nodes_explored) == (9.7, ["d", "x"], 2)


@pytest.mark.parametrize("node_budget", [1, 5, 30, solver.DEFAULT_NODE_BUDGET])
def test_skipping_unpriced_nodes_changes_no_search_like_search(node_budget):
    (with_bounds, priced), (without, priced_all) = solve_both_ways(search_like_instance(), node_budget)
    assert with_bounds == without
    if node_budget == solver.DEFAULT_NODE_BUDGET:
        assert priced < priced_all


def test_dual_ascent_builds_no_runs():
    # The ascent reads a block record's coverer list; the runs, the reach
    # masks and the last pricing passes are the search's.
    inst = search_like_instance()
    kept, _ = solver._dedup_identical(solver._drop_site_dominated(inst.candidates))
    res = solver._Residual(kept, inst.full_mask, [], inst.n_elements)
    solver._dual_ascent(res)
    assert res._blocks
    assert all(blk.runs is None and blk.reach is None and blk.last is None for blk in res._blocks.values())


def solve_recording_completion_tests(inst, node_budget, reach):
    """``solve_exact`` with each block record's reach set to ``reach``
    before its first completion test, or left to the record when
    ``reach`` is None: its search (cids, nodes, budget exit, bound, pricing
    passes) and, for each completion test, (its answer, the coverer scan's
    answer, whether the reach mask answered it)."""
    tests = []
    completes = solver._Residual.completes

    def record(self, blk, uncovered):
        if reach is not None and blk.reach is None:
            blk.reach = reach
        answer = completes(self, blk, uncovered)
        scan = any(uncovered & self.active[ci].covered == uncovered for ci in blk.idx)
        tests.append((answer, scan, bool(uncovered & ~blk.reach)))
        return answer

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver._Residual, "completes", record)
        priced = count_pricing_passes(mp)
        plan = solve_exact(inst, node_budget=node_budget)
    search = ([c.cid for c in plan.chosen], plan.nodes_explored, plan.metadata["budget_exceeded"])
    return search + (repr(plan.metadata["root_lower_bound"]), priced[0]), tests


#: A reach mask holding every block: it answers no completion test.
NO_REACH = -1


def check_reach_mask(inst, node_budget) -> int:
    """How many completion tests the reach mask answers on ``inst``, having
    checked that each is answered as the coverer scan answers it and that
    the search is the same without the mask."""
    with_mask, tests = solve_recording_completion_tests(inst, node_budget, None)
    without, unmasked = solve_recording_completion_tests(inst, node_budget, NO_REACH)
    assert with_mask == without
    assert all(answer == scan for answer, scan, _ in tests)
    assert not any(masked for _, _, masked in unmasked)
    assert len(tests) == len(unmasked)
    return sum(masked for _, _, masked in tests)


@pytest.mark.parametrize(
    "instances", [tied_integer_instances, float_cost_instances, float_tie_instances, branching_instances]
)
@pytest.mark.parametrize("node_budget", [5, solver.DEFAULT_NODE_BUDGET])
def test_reach_mask_answers_as_the_coverer_scan(instances, node_budget):
    # A block of the node's uncovered set that no coverer of the branch
    # block reaches answers the completion test at once; the other tests
    # scan the coverers.  Same answers, so the same search.  In the first
    # three families a set covers every block, so no reach mask misses one.
    answered = sum(check_reach_mask(inst, node_budget) for inst in instances())
    assert (answered > 0) == (instances is branching_instances)


@pytest.mark.parametrize("node_budget", [300, solver.DEFAULT_NODE_BUDGET])
def test_reach_mask_answers_as_the_coverer_scan_on_the_search_like_instance(node_budget):
    assert check_reach_mask(search_like_instance(), node_budget) > 0


@given(data=st.data())
@example(data=None)
def test_leaf_keys_rank_plans_as_plan_keys(data):
    """Over candidates in cid order, split into forced and active ones, a
    leaf's key on its pick indices orders plans as ``_plan_key`` orders the
    forced candidates plus the picked ones.  Two of the pick sets hold the
    same costs, so their fsums and sizes tie and the least cid of their
    symmetric difference decides."""
    if data is None:
        # Cids whose string order is not their length order, and a forced
        # candidate between the two active ones.
        cids, costs, is_forced = ["a", "a0", "b"], [0.1, 0.3, 0.1], [False, True, False]
        picks = [(0,), (1,), (0, 1)]
    else:
        cids = sorted(data.draw(st.sets(st.text("ab@0", min_size=1, max_size=3), min_size=1, max_size=12)))
        n = len(cids)
        costs = data.draw(st.lists(st.sampled_from([0.1, 0.2, 0.3, 1.0, 1.5]), min_size=n, max_size=n))
        is_forced = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        active_costs = [cost for cost, f in zip(costs, is_forced) if not f]
        one = data.draw(st.permutations(range(len(active_costs))))[: data.draw(st.integers(0, len(active_costs)))]
        # As many picks of each cost as ``one``, taken elsewhere.
        two = []
        for cost in sorted(set(active_costs)):
            same = [i for i, c in enumerate(active_costs) if c == cost]
            two += data.draw(st.permutations(same))[: sum(active_costs[i] == cost for i in one)]
        other = data.draw(st.lists(st.integers(0, max(0, len(active_costs) - 1)), unique=True, max_size=len(active_costs)))
        picks = [tuple(one), tuple(two), tuple(other)]
    cands = [Candidate(cid=cid, covered=1, cost=cost) for cid, cost in zip(cids, costs)]
    forced = [c for c, f in zip(cands, is_forced) if f]
    active = [c for c, f in zip(cands, is_forced) if not f]
    forced_costs = [c.cost for c in forced]
    leaf = [solver._leaf_key(forced_costs, [c.cost for c in active], p) for p in picks]
    plan = [solver._plan_key(forced + [active[i] for i in p]) for p in picks]
    for a, b in itertools.product(range(len(picks)), repeat=2):
        assert (leaf[a] < leaf[b], leaf[a] == leaf[b]) == (plan[a] < plan[b], plan[a] == plan[b])
        assert leaf[a][0] == plan[a][0]
    if data is not None:
        assert leaf[0][:2] == leaf[1][:2]


@pytest.fixture()
def searched(monkeypatch):
    """The cids of ``res.active`` of every search ``solve_exact`` runs, in order."""
    seen = []
    search = solver._search

    def keep_and_search(res, incumbent, node_budget):
        seen.append([c.cid for c in res.active])
        return search(res, incumbent, node_budget)

    monkeypatch.setattr(solver, "_search", keep_and_search)
    return seen


def test_root_and_core_searches_take_active_candidates_in_cid_order(searched):
    # The leaf rule ranks picks by index, which ranks them by cid only when
    # ``active`` is in cid order: the root sorts, and forcing and fixing keep
    # the order.  The candidates are handed over in reverse.
    inst = search_like_instance()
    backwards = PlacementInstance(inst.universe, inst.candidates[::-1])
    plan = solve_exact(backwards, node_budget=20_000)
    assert [c.cid for c in plan.chosen] == ["Radar@000000", "Radar@000093", "Radar@000264", "Radar@000294"]
    assert len(searched) == 2, "a probe and a core search"
    assert all(cids == sorted(cids) for cids in searched)
    assert len(searched[1]) < len(searched[0])


@pytest.fixture()
def handed_plans(monkeypatch):
    """Counts, by function, of the plans ``solve_exact`` hands to ``_search``
    and ``_lagrangian``, each checked on the way in: it covers the universe
    and holds the residual's forced candidates, and it is exactly those
    plus the active candidates of its picks, so that taking the picks drops
    nothing."""
    seen = Counter()

    def check(name, res, plan):
        union = 0
        for c in plan:
            union |= c.covered
        cids = sorted(c.cid for c in plan)
        assert union == (1 << len(res.price)) - 1, "the plan covers the universe"
        assert {c.cid for c in res.forced} <= set(cids)
        assert cids == sorted(c.cid for c in res.forced + [res.active[i] for i in solver._picks_of(res, plan)])
        seen[name] += 1

    search, relax = solver._search, solver._lagrangian

    def checked_search(res, incumbent, node_budget):
        check("search", res, incumbent)
        return search(res, incumbent, node_budget)

    def checked_lagrangian(res, start, incumbent):
        check("lagrangian", res, incumbent)
        return relax(res, start, incumbent)

    monkeypatch.setattr(solver, "_search", checked_search)
    monkeypatch.setattr(solver, "_lagrangian", checked_lagrangian)
    return seen


@pytest.mark.parametrize("node_budget", [1, 5, 30, solver.DEFAULT_NODE_BUDGET])
def test_plans_handed_on_are_forced_plus_picks(handed_plans, node_budget):
    for instances in (tied_integer_instances, float_cost_instances, float_tie_instances, branching_instances):
        for inst in instances():
            solve_exact(inst, node_budget=node_budget)
    # One search per instance, and a core search after each Lagrangian.  Up
    # to 30 nodes the gate holds for at most 5 residual candidates, and every
    # such probe ends on its own.
    assert handed_plans["search"] == 1260 + handed_plans["lagrangian"]
    assert (handed_plans["lagrangian"] >= 60) == (node_budget == solver.DEFAULT_NODE_BUDGET)


def test_plans_handed_on_are_forced_plus_picks_on_the_search_like_instance(handed_plans):
    solve_exact(search_like_instance(), node_budget=20_000)
    assert handed_plans == {"search": 2, "lagrangian": 1}


def test_core_search_from_an_incumbent_off_its_forced_and_active_candidates(monkeypatch):
    """The root forces b, and the core, without y, forces a as well; x then
    covers nothing left and is neither forced nor active, so the search
    starts from the incumbent a + b + x + h trimmed to its pick of h,
    a + b + h.  That bound cuts a + b + f, which ties the untrimmed
    incumbent on fsum; a + b + g wins on cost, and a + b + h loses.  The
    plan is the oracle's."""
    sets = [
        ("a", [0, 1, 2], 2.0),
        ("b", [3, 4, 5], 2.0),
        ("f", [3, 6, 7], 1.5),
        ("g", [6, 7, 1], 0.75),
        ("h", [6, 7], 1.0),
        ("x", [1, 2], 0.5),
        ("y", [0, 3, 6], 4.0),
    ]
    inst = inst_from(range(8), sets)
    by_cid = {c.cid: c for c in inst.candidates}
    root = solver._Residual(list(inst.candidates), inst.full_mask, [], inst.n_elements)
    core = solver._Residual([by_cid[cid] for cid in "abfghx"], root.remaining, root.forced, inst.n_elements)
    assert [c.cid for c in root.forced] == ["b"]
    assert [c.cid for c in core.forced] == ["b", "a"]
    assert [c.cid for c in core.active] == ["f", "g", "h"]
    incumbent = [by_cid[cid] for cid in "abxh"]
    assert solver._picks_of(core, incumbent) == (2,)
    leaf_keyed = []
    leaf_key = solver._leaf_key
    monkeypatch.setattr(solver, "_leaf_key", lambda *args: leaf_keyed.append(args[2]) or leaf_key(*args))
    nodes, exceeded, plan = solver._search(core, incumbent, solver.DEFAULT_NODE_BUDGET)
    assert (nodes, exceeded) == (1, False)
    # The trimmed incumbent's key, then the leaves g and h.
    assert leaf_keyed == [(2,), (1,), (2,)]
    assert sorted(c.cid for c in plan) == ["a", "b", "g"]
    assert solver._plan_key(plan) == solver._plan_key(solve_brute(inst).chosen)


def test_search_of_a_residual_with_nothing_left_returns_the_forced_candidates():
    # a and b are forced and cover every block, so the one plan left is a + b:
    # the search trims x off the incumbent although it expands no node.
    inst = inst_from(range(6), [("a", [0, 1, 2], 2.0), ("b", [3, 4, 5], 2.0), ("x", [1, 2], 0.5)])
    a, b, x = inst.candidates
    res = solver._Residual(list(inst.candidates), inst.full_mask, [], inst.n_elements)
    assert (res.forced, res.active, res.remaining) == ([a, b], [], 0)
    assert solver._search(res, [a, b, x], 100) == (0, False, [a, b])


def every_leaf(seen, cost):
    """A leaf rule that keys every leaf child."""
    return True


def solve_keying(inst, node_budget, first_leaf_of_its_cost):
    """``solve_exact`` with ``solver._first_leaf_of_its_cost``, the search's
    one seam for its leaf rule, replaced: its search (cids, nodes, budget
    exit, bound, pricing passes) and how many leaf keys it computed."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_first_leaf_of_its_cost", first_leaf_of_its_cost)
        priced = count_pricing_passes(mp)
        keyed = count_leaf_keys(mp)
        plan = solve_exact(inst, node_budget=node_budget)
    search = ([c.cid for c in plan.chosen], plan.nodes_explored, plan.metadata["budget_exceeded"])
    return search + (repr(plan.metadata["root_lower_bound"]), priced[0]), keyed[0]


@pytest.mark.parametrize("node_budget", [1, 5, 30, solver.DEFAULT_NODE_BUDGET])
def test_keying_one_leaf_per_cost_changes_no_search(node_budget):
    # A later leaf child of a node that costs what an earlier one did ties
    # it on fsum cost and size and loses on picks, so keying only the first
    # leaves the same search: the same plan, nodes, bound and pricing passes.
    skipped = 0
    for instances in (tied_integer_instances, float_cost_instances, float_tie_instances, branching_instances):
        for inst in instances():
            once, keyed = solve_keying(inst, node_budget, solver._first_leaf_of_its_cost)
            every, keyed_all = solve_keying(inst, node_budget, every_leaf)
            assert once == every
            assert keyed <= keyed_all
            skipped += keyed < keyed_all
    # A one-node search's leaves are root children that cover every block
    # left, and here no two of them share a cost.
    assert skipped > 0 or node_budget == 1


def test_a_node_keys_one_leaf_child_per_cost():
    # a, b and c cover every block at 2.0, and d, the incumbent, at 3.0, so
    # the root's four children are leaves.  a is keyed and becomes the
    # incumbent; b and c tie it on cost and size and lose on picks, so they
    # are not keyed.  d, of another cost, is.
    inst = inst_from(range(3), [(cid, [0, 1, 2], 2.0) for cid in "abc"] + [("d", [0, 1, 2], 3.0)])
    res = solver._Residual(list(inst.candidates), inst.full_mask, [], inst.n_elements)
    assert res.block(branch_order_oracle(res)[0]).idx == [0, 1, 2, 3]
    leaf_key = solver._leaf_key
    for first_leaf_of_its_cost, keys in (
        (solver._first_leaf_of_its_cost, [(3,), (0,), (3,)]),
        (every_leaf, [(3,), (0,), (1,), (2,), (3,)]),
    ):
        keyed = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_first_leaf_of_its_cost", first_leaf_of_its_cost)
            mp.setattr(solver, "_leaf_key", lambda *args: keyed.append(args[2]) or leaf_key(*args))
            nodes, exceeded, plan = solver._search(res, [inst.candidates[3]], solver.DEFAULT_NODE_BUDGET)
        # The incumbent's own key comes first.
        assert keyed == keys
        assert (nodes, exceeded, [c.cid for c in plan]) == (1, False, ["a"])


@st.composite
def redundancy_cases(draw):
    """Masks in drop order: repeats of a few masks and of subsets nested in
    them, so that counts reach 9 and more."""
    n = draw(st.sampled_from([1, 7, 8, 9, 63, 64, 65, 130]))
    bases = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=4))
    nested = [b & draw(st.integers(0, (1 << n) - 1)) for b in bases]
    return draw(st.lists(st.sampled_from(bases + nested), max_size=40))


def own_counts(masks):
    """How many of ``masks`` hold each position, up to the highest one set."""
    return [sum((m >> p) & 1 for m in masks) for p in range(max((m.bit_length() for m in masks), default=0))]


@given(redundancy_cases())
@example([])
@example([0b101])
@example([1] * 4)
@example([1] * 9 + [3] * 8)
# Two equal masks: the first is held again after it, the second is kept.
@example([0b110, 0b110])
# A zero mask holds no position, so it is dropped.
@example([0, 0b1, 0])
# A mask nested in a later one is dropped, the later one kept.
@example([0b010, 0b111])
def test_drop_redundant_matches_the_per_position_loop(case):
    masks = list(case)
    assert solver._drop_redundant(masks) == redundancy_oracle(masks, own_counts(masks))
    assert masks == case


def heuristic_runs(inst, untried):
    """``root_relaxations`` of ``inst`` less its prices, with
    ``solver._untried``, the Lagrangian's check that its heuristic has not
    run on a set of picks yet, replaced by ``untried``; and the picks of
    each run of the heuristic, as the bytes of their flags."""
    runs = []

    def spy(tried, flags):
        if untried(tried, flags):
            runs.append(flags.tobytes())
            return True
        return False

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_untried", spy)
        greedy_covers = count_greedy_covers(mp)
        _, bound, keep, cids = root_relaxations(inst)
    # The root's greedy, then one greedy completion a run.
    assert greedy_covers == [1 + len(runs)]
    return (bound, keep.tolist(), cids), runs


def has_residual(inst):
    kept, _ = solver._dedup_identical(solver._drop_site_dominated(inst.candidates))
    return solver._Residual(kept, inst.full_mask, [], inst.n_elements).remaining != 0


def skip_counts(inst):
    """Runs of the heuristic in the Lagrangian of ``inst``'s root with the
    skip of tried picks and without it, once both are checked to give the
    same Lagrangian and the skip to run each set of picks once."""
    once, runs = heuristic_runs(inst, solver._untried)
    every, runs_all = heuristic_runs(inst, lambda tried, flags: True)
    assert once == every
    assert len(set(runs)) == len(runs)
    assert set(runs) == set(runs_all)
    return len(runs), len(runs_all)


def test_skipping_tried_picks_changes_no_lagrangian():
    # The heuristic is a function of its picks, so a repeat gives the key
    # that already lost to the incumbent or became it.
    families = (tied_integer_instances(), float_cost_instances(), branching_instances())
    counts = [skip_counts(inst) for inst in filter(has_residual, itertools.chain(*families))]
    assert sum(once < every for once, every in counts) >= 300


def test_skipping_tried_picks_changes_no_lagrangian_on_the_search_like_instance():
    assert skip_counts(search_like_instance()) == (38, 50)
