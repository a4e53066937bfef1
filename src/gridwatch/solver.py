"""Minimum-cost full-coverage placement: exact branch-and-bound solver with a
greedy baseline and an exhaustive oracle.

The problem is weighted set cover: pick (sensor type, site) candidates so that
every in-area block is covered by at least one choice, minimizing the summed
install cost.  Candidates are the :class:`Candidate` records ``coverage.py``
defines, whose covered sets are Python-int bitmasks over positions in the
instance's universe tuple.  For an instance built from a coverage table the
universe is ``mesh.in_area_blocks`` and the candidates are the table's own
entries, sorted by cid.  Node expansion is integer AND/OR work plus one
batched pricing pass per node: the blocks each child newly covers are priced
together by looking up the bytes of their masks in a table of block prices.
A block's coverers are a bitmask too, over indices into the residual
candidates, kept beside the same indices as a list for the nodes that
exclude none of them.

``solve_exact`` is the one exact path: root reductions (duplicate covered
sets, forced unique coverers), then branch and bound on the residual.  The
root prices each block at the least cost share among its coverers by
visiting candidates in ascending share until every block is priced, so most
masks are never unpacked.  When a residual is left to search, it counts
each block's coverers for the branch order from masks unpacked a chunk of
candidates at a time.  A search stopped by its node budget reports as its
root bound the larger of the static share bound and a dual-ascent bound
raised from the same prices (Beasley, 1987).  ``solve_brute`` is the oracle
it is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .catalog import SensorCatalog
from .coverage import Candidate, CoverageTable, mask_positions, mask_to_bools
from .errors import Infeasible, TooLarge, ValidationError
from .mesh import DETECTABLE_TERRAINS

#: Default cap on explored branch-and-bound nodes.  Hitting it returns the
#: incumbent plan with proven_optimal=False instead of raising.
DEFAULT_NODE_BUDGET = 10_000_000

# Pruning slack: a node is cut only when its lower bound exceeds the incumbent
# by more than accumulated float drift could explain.  Equal-cost subtrees are
# therefore explored, which also lets the incumbent improve its tie-break key.
# The drift includes that of the incremental child bound: a child's bound is
# its parent's less the price of what it newly covers, so at depth d it is off
# from a fresh sum by about d ulps of the root bound, far below this slack.
_PRUNE_REL = 1e-9

#: Most candidates :func:`solve_brute` takes; it scans all 2^n subsets.
MAX_BRUTE_CANDIDATES = 20

# Most cells (candidates x blocks) the root unpacks or prices at once, so
# that a chunk's temporaries stay well under a megabyte at any size.
_CHUNK_CELLS = 1 << 16


@dataclass(frozen=True)
class PlacementInstance:
    """Universe of block ids plus the candidate covering sets over them."""

    universe: tuple
    candidates: tuple

    @property
    def n_elements(self) -> int:
        return len(self.universe)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.universe)) - 1

    @classmethod
    def from_sets(cls, universe: Iterable, sets: Iterable) -> "PlacementInstance":
        """Build an instance from (cid, elements, cost) triples over an explicit
        universe of distinct elements; cids differ as strings, costs are finite and positive."""
        uni = tuple(sorted(universe))
        pos = {u: i for i, u in enumerate(uni)}
        if len(pos) < len(uni):
            repeated = sorted({a for a, b in zip(uni, uni[1:]) if a == b})
            raise ValidationError(f"universe repeats element(s) {repeated}")
        cands = []
        for cid, elements, cost in sets:
            if not (cost > 0 and math.isfinite(cost)):
                raise ValidationError(f"candidate {cid!r} has cost {cost}; expected a finite positive number")
            mask = 0
            for el in elements:
                if el not in pos:
                    raise ValidationError(f"candidate {cid!r} covers {el!r} outside the universe")
                mask |= 1 << pos[el]
            cands.append(Candidate(cid=str(cid), covered=mask, cost=float(cost)))
        cands.sort(key=lambda c: c.cid)
        for a, b in zip(cands, cands[1:]):
            if a.cid == b.cid:
                raise ValidationError(f"duplicate candidate id {a.cid!r}")
        return cls(universe=uni, candidates=tuple(cands))

    @classmethod
    def from_coverage(cls, table: CoverageTable) -> "PlacementInstance":
        """Instance over a coverage table's in-area blocks.

        The candidates are the table's own entries, sorted by cid; filter the
        catalog before building coverage to restrict the sensor types."""
        return cls(universe=table.mesh.in_area_blocks, candidates=tuple(sorted(table.entries, key=lambda c: c.cid)))


@dataclass(frozen=True)
class PlacementPlan:
    """A feasible assignment: chosen candidates, cost, and solver provenance."""

    chosen: tuple
    total_cost: float
    total_units: int
    mode: str
    nodes_explored: int
    proven_optimal: bool
    metadata: dict = field(default_factory=dict, compare=False)

    @property
    def n_sites(self) -> int:
        return len(self.chosen)


def _make_plan(chosen: Sequence[Candidate], mode: str, nodes: int, proven: bool, metadata=None) -> PlacementPlan:
    chosen = tuple(sorted(chosen, key=lambda c: c.cid))
    return PlacementPlan(
        chosen=chosen,
        total_cost=float(math.fsum(c.cost for c in chosen)),
        total_units=sum(c.units for c in chosen),
        mode=mode,
        nodes_explored=nodes,
        proven_optimal=proven,
        metadata=dict(metadata or {}),
    )


def _check_coverable(instance: PlacementInstance) -> None:
    union = 0
    for c in instance.candidates:
        union |= c.covered
    if union != instance.full_mask:
        missing = [instance.universe[p] for p in mask_positions(instance.full_mask & ~union)]
        raise Infeasible(f"no candidate covers block(s) {missing[:10]}{'...' if len(missing) > 10 else ''}")


def _greedy_cover(candidates: Sequence[Candidate], uncovered: int) -> list:
    """Repeatedly pick the candidate with the lowest (cost per newly covered
    element, cid) until ``uncovered`` is empty; returns the picks in order."""
    chosen = []
    while uncovered:
        best, best_key = None, None
        for c in candidates:
            gain = (c.covered & uncovered).bit_count()
            if gain:
                key = (c.cost / gain, c.cid)
                if best_key is None or key < best_key:
                    best, best_key = c, key
        chosen.append(best)
        uncovered &= ~best.covered
    return chosen


def solve_greedy(instance: PlacementInstance) -> PlacementPlan:
    """Repeatedly pick the candidate with the lowest cost per newly covered block."""
    _check_coverable(instance)
    chosen = _greedy_cover(instance.candidates, instance.full_mask)
    return _make_plan(chosen, mode="greedy", nodes=0, proven=False)


def solve_brute(instance: PlacementInstance) -> PlacementPlan:
    """Exhaustively scan all candidate subsets; the provenance oracle for solve_exact.

    Ties are broken by (fewer candidates, lexicographic candidate ids).
    """
    n = len(instance.candidates)
    if n > MAX_BRUTE_CANDIDATES:
        raise TooLarge(f"{n} candidates exceeds the exhaustive scan limit of {MAX_BRUTE_CANDIDATES}")
    _check_coverable(instance)
    if not instance.universe:
        return _make_plan((), mode="brute", nodes=1, proven=True)

    words = (instance.n_elements + 63) // 64

    def words_of(mask: int) -> np.ndarray:
        return np.frombuffer(mask.to_bytes(8 * words, "little"), "<u8")

    # Subset tables by doubling: after candidate i, the upper half of each
    # table is the lower half with candidate i added, so bit i of a row index
    # says whether candidate i is picked, and costs are summed in index order.
    cost = np.zeros(1, dtype=np.float64)
    cover = np.zeros((1, words), dtype=np.uint64)
    for c in instance.candidates:
        cost = np.concatenate([cost, cost + c.cost])
        cover = np.concatenate([cover, cover | words_of(c.covered)])
    feasible = (cover == words_of(instance.full_mask)).all(axis=1)
    best_cost = cost[feasible].min()
    ties = np.nonzero(feasible & (cost == best_cost))[0]

    def subset_key(mask):
        ids = [instance.candidates[i].cid for i in mask_positions(int(mask))]
        return (len(ids), ids)

    best_mask = min(ties.tolist(), key=subset_key)
    chosen = [instance.candidates[i] for i in mask_positions(int(best_mask))]
    return _make_plan(chosen, mode="brute", nodes=1 << n, proven=True)


def _dedup_identical(candidates: Sequence[Candidate]):
    """Keep only the cheapest (then lexicographically first) candidate per covered set."""
    best = {}
    for c in candidates:
        prev = best.get(c.covered)
        if prev is None or (c.cost, c.cid) < (prev.cost, prev.cid):
            best[c.covered] = c
    kept = sorted(best.values(), key=lambda c: c.cid)
    return kept, len(candidates) - len(kept)


def _batch_pricer(price: np.ndarray):
    """Function that prices a list of masks in one pass: for each mask, the
    sum of ``price`` over its set bits.

    Row j of the table holds the price sum of every subset of positions
    8j..8j+7, indexed by that subset's byte, so pricing a mask is one lookup
    per nonzero byte instead of unpacking it to booleans.  Zero bytes are
    skipped: what one candidate newly covers is a small part of a large
    universe, so work and temporaries follow the covered sets, not the
    universe size times the number of masks."""
    n_bytes = (len(price) + 7) // 8
    padded = np.zeros(8 * n_bytes)
    padded[: len(price)] = price
    table = np.zeros((n_bytes, 256))
    for b in range(8):
        np.add(table[:, : 1 << b], padded[b::8, None], out=table[:, 1 << b : 2 << b])
    table = table.ravel()

    def price_of(masks: list) -> np.ndarray:
        raw = np.frombuffer(b"".join([m.to_bytes(n_bytes, "little") for m in masks]), dtype=np.uint8)
        at = np.flatnonzero(raw)
        row, col = np.divmod(at, n_bytes)
        return np.bincount(row, weights=table[256 * col + raw[at]], minlength=len(masks))

    return price_of


def _share_price(active: Sequence[Candidate], remaining: int, n: int) -> np.ndarray:
    """Static price of each of the ``n`` positions: over ``remaining``, the
    least share ``cost / |covered & remaining|`` among the block's coverers
    in ``active``; 0 elsewhere.

    Candidates are visited in ascending share (a stable sort), so a block
    takes the share of the first candidate that covers it; only a candidate
    that prices a new block has its mask unpacked, and the pass stops once
    every block is priced."""
    shares = np.array([c.cost / (c.covered & remaining).bit_count() for c in active])
    price = np.zeros(n)
    unpriced = remaining
    for ci in np.argsort(shares, kind="stable").tolist():
        new = active[ci].covered & unpriced
        if new:
            price[mask_to_bools(new, n)] = shares[ci]
            unpriced ^= new
            if not unpriced:
                break
    return price


def _chunk_rows(n: int) -> int:
    """Candidates per chunk of the root's passes over masks of ``n`` blocks:
    ``_CHUNK_CELLS`` cells, and at most 255, so that a chunk's coverer
    count of a block fits a byte."""
    return max(1, min(255, _CHUNK_CELLS // n))


def _branch_order(active: Sequence[Candidate], remaining: int, n: int) -> list:
    """Positions of ``remaining`` by ascending (number of coverers in
    ``active``, position): the order in which the search picks the block it
    branches on.  The coverers are counted from the masks unpacked a chunk
    of candidates at a time."""
    counts = np.zeros(n, dtype=np.int64)
    n_bytes = (n + 7) // 8
    step = _chunk_rows(n)
    for i in range(0, len(active), step):
        raw = b"".join([c.covered.to_bytes(n_bytes, "little") for c in active[i : i + step]])
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(-1, n_bytes), axis=1, count=n, bitorder="little")
        counts += np.add.reduce(bits, axis=0, dtype=np.uint8)
    rows = np.flatnonzero(mask_to_bools(remaining, n))
    return rows[np.argsort(counts[rows], kind="stable")].tolist()


def _dual_ascent(active: Sequence[Candidate], price: np.ndarray, price_of, rows, coverers_of) -> np.ndarray:
    """Block prices raised from ``price`` by Beasley's dual ascent: a feasible
    point of the covering LP's dual over ``active``, so their sum bounds the
    cost of every cover of the priced blocks.

    ``price`` must itself be dual feasible, as the static share price is, and
    ``price_of`` must price masks by it.  A candidate's slack is its cost
    less the price of its blocks, clamped at 0; it is computed a chunk of
    masks at a time.  Each row of ``rows`` that no tight candidate covers
    is then raised by the least slack among its coverers, ``coverers_of``
    (a list of indices into ``active``), and each of them gives up that much."""
    prices = price.copy()
    step = _chunk_rows(len(price))
    slack = np.array([c.cost for c in active])
    for i in range(0, len(active), step):
        slack[i : i + step] -= price_of([c.covered for c in active[i : i + step]])
    np.maximum(slack, 0.0, out=slack)
    # The blocks of every tight candidate: raising one of them gains nothing.
    dead = 0
    for ci in np.flatnonzero(slack == 0.0).tolist():
        dead |= active[ci].covered
    for p in rows:
        if (dead >> p) & 1:
            continue
        idx = coverers_of(p)
        left = slack[idx]
        rise = left.min()
        prices[p] += rise
        left -= rise
        slack[idx] = left
        for j in np.flatnonzero(left == 0.0).tolist():
            dead |= active[idx[j]].covered
    return prices


def solve_exact(instance: PlacementInstance, node_budget: int = DEFAULT_NODE_BUDGET) -> PlacementPlan:
    """Cost-minimal placement via depth-first branch and bound.

    The root drops duplicate covered sets and forces the unique coverer of
    every block that has one; the greedy solution of the residual seeds the
    incumbent.  The lower bound is a per-block cheapest-share sum: each block
    is priced at the least ``cost / |covered & residual|`` among its
    coverers, found by visiting candidates in ascending share until every
    block is priced.  Each node branches on the uncovered block with the
    fewest covering candidates, trying coverers in order of marginal cost
    per newly covered block; sibling subtrees exclude the coverers already
    tried so the search partitions the space; the counts are taken once,
    from masks unpacked a chunk at a time, when a residual is left.  A block's
    coverers and a node's excluded candidates are bitmasks over the residual
    candidates; a node that excludes none of its block's coverers takes
    their cached index list as is.  Each stack entry carries its bound; a
    node prices all its children in one batched pass, takes each child's
    bound as its own less the price of what the child newly covers, and
    drops the children that cannot beat the incumbent before any per-child
    work.

    Exceeding ``node_budget`` returns the incumbent with
    proven_optimal=False.  Its ``root_lower_bound`` is then the larger of
    the static bound and the forced cost plus a dual-ascent bound on the
    residual, raised from the static prices in branch order (see
    :func:`_dual_ascent`); a search that ends on its own reports the static
    bound.
    """
    _check_coverable(instance)
    n = instance.n_elements

    # Root reductions: duplicate covered sets, then forced singletons: the
    # blocks in ``once & ~twice`` have one coverer each, which is forced.
    # Forcing leaves no new singleton behind: on a block left uncovered, the
    # number of residual coverers equals the count before forcing, as no
    # forced candidate covers the block and each of its coverers touches
    # ``remaining`` and so survives the filter.
    active, n_dupes = _dedup_identical(instance.candidates)
    once = twice = 0
    for c in active:
        twice |= once & c.covered
        once |= c.covered
    singles_mask = once & ~twice
    forced = [c for c in active if c.covered & singles_mask]
    remaining = instance.full_mask
    for c in forced:
        remaining &= ~c.covered
    active = [c for c in active if c.covered & remaining]
    forced_cost = math.fsum(c.cost for c in forced)

    # Residual greedy incumbent.
    incumbent = list(forced) + _greedy_cover(active, remaining)
    inc_cost = math.fsum(c.cost for c in incumbent)
    inc_key = (inc_cost, len(incumbent), tuple(sorted(c.cid for c in incumbent)))

    price = _share_price(active, remaining, n)
    root_bound = float(price[mask_to_bools(remaining, n)].sum())
    root_lower = forced_cost + root_bound

    branch_order = _branch_order(active, remaining, n) if remaining else []
    cost_of = np.array([c.cost for c in active])
    # Per branch block: the mask with bit ci set for each coverer active[ci],
    # and the same coverers as an ascending index list.
    coverers = {}

    def coverers_of(p: int) -> tuple:
        found = coverers.get(p)
        if found is None:
            bit = 1 << p
            idx = [ci for ci, c in enumerate(active) if c.covered & bit]
            found = coverers[p] = (sum(1 << ci for ci in idx), idx)
        return found

    def prune_at() -> float:
        return inc_cost + _PRUNE_REL * max(1.0, abs(inc_cost))

    threshold = prune_at()
    price_of = _batch_pricer(price)
    nodes = 0
    budget_exceeded = False
    # A stack entry: (uncovered, excluded, cost, chosen_idx, bound), where
    # bound is the price of ``uncovered``.
    stack = [(remaining, 0, 0.0, (), root_bound)] if remaining else []

    while stack:
        uncovered, excluded, cost, chosen_idx, bound = stack.pop()
        nodes += 1
        if nodes > node_budget:
            budget_exceeded = True
            break
        if forced_cost + cost + bound >= threshold:
            continue
        branch_pos = None
        for p in branch_order:
            if (uncovered >> p) & 1:
                branch_pos = p
                break
        coverer_mask, idx = coverers_of(branch_pos)
        # Price every admissible child at once; a child's bound is this
        # node's bound less the price of what the child newly covers.  The
        # admissible children are the block's coverers less the excluded
        # ones; often none of them is excluded.
        dropped = coverer_mask & excluded
        batch = mask_positions(coverer_mask ^ dropped) if dropped else idx
        child_bound = bound - price_of([active[ci].covered & uncovered for ci in batch])
        child_lower = forced_cost + (cost + cost_of[batch]) + child_bound
        children = []
        for j in np.flatnonzero(child_lower < threshold).tolist():
            ci = batch[j]
            c = active[ci]
            child_cost = cost + c.cost
            child_uncovered = uncovered & ~c.covered
            if child_uncovered == 0:
                total = forced_cost + child_cost
                cand_ids = tuple(sorted([active[i].cid for i in chosen_idx] + [c.cid] + [f.cid for f in forced]))
                key = (total, len(chosen_idx) + 1 + len(forced), cand_ids)
                if key < inc_key:
                    incumbent = list(forced) + [active[i] for i in chosen_idx] + [c]
                    inc_cost, inc_key = total, key
                    threshold = prune_at()
                continue
            # The incumbent may have improved at an earlier sibling.
            if child_lower[j] >= threshold:
                continue
            # Siblings earlier in ``batch`` are excluded below this child.
            child_excluded = excluded | (coverer_mask & ((1 << ci) - 1))
            ratio = c.cost / (c.covered & uncovered).bit_count()
            children.append(((ratio, c.cid), (child_uncovered, child_excluded, child_cost, chosen_idx + (ci,), float(child_bound[j]))))
        children.sort(key=lambda item: item[0], reverse=True)
        stack.extend(node for _, node in children)

    if budget_exceeded:
        dual = _dual_ascent(active, price, price_of, branch_order, lambda p: coverers_of(p)[1])
        root_lower = max(root_lower, forced_cost + math.fsum(dual.tolist()))

    return _make_plan(
        incumbent,
        mode="exact",
        nodes=nodes,
        proven=not budget_exceeded,
        metadata={
            "dedup_removed": n_dupes,
            "forced": len(forced),
            "budget_exceeded": budget_exceeded,
            "root_lower_bound": root_lower,
        },
    )


def _site_cost_rate(spec) -> float:
    # Cost of a full 360-degree install per unit of reachable area.
    return spec.unit_price_usd * spec.fov_multiplier / (spec.range_km ** 2)


def _dominates(v, u) -> bool:
    if v.range_km < u.range_km:
        return False
    if any(v.detect[t] < u.detect[t] for t in DETECTABLE_TERRAINS):
        return False
    if _site_cost_rate(v) > _site_cost_rate(u):
        return False
    strict = (
        v.range_km > u.range_km
        or any(v.detect[t] > u.detect[t] for t in DETECTABLE_TERRAINS)
        or _site_cost_rate(v) < _site_cost_rate(u)
    )
    # Identical specs under different names: keep the lexicographically first.
    return strict or v.name < u.name


def dominance_filter(instance: PlacementInstance, catalog: SensorCatalog) -> PlacementInstance:
    """Drop candidates of sensor types strictly beaten on range, detection, and cost rate.

    A type is removed when another admitted type reaches at least as far, detects
    at least as well on every terrain, and equips a 360-degree site at no higher
    cost per unit of reachable area, with at least one of those strict.
    """
    present = sorted({c.sensor for c in instance.candidates if c.sensor is not None})
    specs = {name: catalog.get(name) for name in present}
    removed = {
        u for u in present
        if any(v != u and _dominates(specs[v], specs[u]) for v in present)
    }
    kept = tuple(c for c in instance.candidates if c.sensor is None or c.sensor not in removed)
    return PlacementInstance(instance.universe, kept)
