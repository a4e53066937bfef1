"""Minimum-cost full-coverage placement: exact branch-and-bound solver with a
greedy baseline and an exhaustive oracle.

The problem is weighted set cover: pick (sensor type, site) candidates so that
every in-area block is covered by at least one choice, minimizing the summed
install cost.  Candidates are the :class:`Candidate` records ``coverage.py``
defines, whose covered sets are Python-int bitmasks over positions in the
instance's universe tuple.  For an instance built from a coverage table the
universe is ``mesh.in_area_blocks`` and the candidates are the table's own
entries, sorted by cid.  Node expansion is integer AND/OR work plus at
most one pricing pass per node: the node's uncovered blocks are unpacked
once into a prefix sum of their prices, and what each child newly covers
is priced by differences of that sum over the runs of set bits of the
child's mask.  What the search knows
of a block is one record, built on the block's first use and fetched once
a node: the block's coverers as a bitmask over indices into the residual
candidates, the same indices as a list, and their least cost; and, each
filled when first needed, the union of the coverers' masks, their runs and
costs, and the block's last pricing pass, returned again when the same
uncovered blocks come back.  A node skips its excluded coverers among the
children that pass the bound, and of its children that finish the cover
it keys only the first of each cost.

Before pricing, a node tries two cheap lower bounds on its children, and
is counted but not priced when they show no child could pass (see
:func:`_search`).  The second one needs to know whether some coverer of the
branch block covers every uncovered block.  It first checks the record's
union of the coverers' masks; only when that union holds every uncovered
block are the coverers scanned.

``solve_exact`` is the one exact path: root reductions (candidates beaten
at their own site, duplicate covered sets, forced unique coverers), then
branch and bound on the residual.  A residual is one record, built once
and read by every search, bound and fixing pass over it.  Building it
counts each block's coverers in one pass over its candidates' masks, into
bit planes of the counts: the blocks with one coverer are forced, and the
counts order the rest, for the search's branching and the dual ascent
alike.  That order is held as one mask per count, a run of it, read off the
planes by a walk down them for the least count left the first time either
reaches the run.  A walk over the candidates left in
ascending cost share then prices each block at the share of its first
coverer, the least, and stops once every block is priced.

When the node budget can pay for it, the search first runs as a short
probe.  A probe stopped by its budget is followed by a dual-ascent bound
raised from the share prices (Beasley, 1987), a subgradient Lagrangian
started from the ascent's prices with a primal heuristic, and reduced-cost
fixing (Beasley, 1990; Caprara, Fischetti and Toth, 1999); the search then
runs again on the core of candidates that fixing keeps, which holds every
plan costing no more than the incumbent.  A search stopped by its node
budget reports as its root bound the best of the static share bound and the
root's dual-ascent and Lagrangian bounds.  Plans are ranked by (fsum cost,
size, cids).  The residual's candidates are in cid order, so the search and
the Lagrangian hold a plan as the forced candidates plus its picks, sorted
indices into the residual's candidates, and rank picks in place of cids, in
the same order.  Only ``solve_brute``, the oracle they are tested against,
ranks plans by their candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .catalog import SensorCatalog
from .coverage import Candidate, CoverageTable, flags_to_masks, mask_flags, mask_positions, masks_to_bytes
from .coverage import masks_to_nonzero_bytes, masks_to_positions, masks_to_runs
from .errors import Infeasible, TooLarge, ValidationError
from .mesh import DETECTABLE_TERRAINS

#: Default cap on explored branch-and-bound nodes.  Hitting it returns the
#: incumbent plan with proven_optimal=False instead of raising.
DEFAULT_NODE_BUDGET = 10_000_000

# Pruning slack: a node is cut only when its lower bound exceeds the incumbent
# by more than accumulated float drift could explain.  Equal-cost subtrees are
# therefore explored, which also lets the incumbent improve its tie-break key.
# The drift includes that of the incremental child bound: a child's bound is
# its parent's less the price of what it newly covers, a difference of prefix
# sums off by a few ulps of the parent's bound, so at depth d it is off from a
# fresh sum by a few d ulps of the root bound, far below this slack.  The same
# drift backs the search's skip of a node's pricing: a node is left unpriced
# only when its children's lower bounds reach one slack past the threshold,
# so a child bound that drifted below its exact value, even below zero, still
# could not have passed the threshold.
_PRUNE_REL = 1e-9

#: Most candidates :func:`solve_brute` takes; it scans all 2^n subsets.
MAX_BRUTE_CANDIDATES = 20

# Most cells (candidates x blocks) the ascent's slack pass, the Lagrangian's
# incidence and a block's runs take from the masks at once, so that a chunk's
# temporaries stay well under a megabyte at any size.  It also
# caps the nonzeros of a span of the Lagrangian's steps, unless one
# candidate alone covers more blocks.
_CHUNK_CELLS = 1 << 16

#: Subgradient steps of the root's Lagrangian: a fixed count, never a time
#: limit, so that repeated runs stay byte-identical.
_LAGRANGE_STEPS = 500

# A Lagrangian step prices every residual candidate; the gate charges it one
# search node per this many.  Measured at seed 1 (median of 100 steps from
# the ascent's prices, the heuristic excluded, over the mean node of a
# probe), a step costs 11 node-times on search-400's 998 candidates (52 k
# nonzeros) but 40 on the 1 805 of sweep-r's r = 0.98 point (389 k): the
# step follows the nonzeros, not the candidates.
_CANDIDATES_PER_NODE = 100


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


def _plan_key(chosen: Sequence[Candidate]) -> tuple:
    """The order in which the solvers rank plans: (fsum cost, number of
    candidates, sorted cids).  The fsum is the total :func:`_make_plan`
    reports, so plans of equal total compare equal on it whatever their order."""
    return (math.fsum(c.cost for c in chosen), len(chosen), tuple(sorted(c.cid for c in chosen)))


def _prune_at(cost: float) -> float:
    """The bound at or above which a subtree cannot beat a plan of ``cost``."""
    return cost + _PRUNE_REL * max(1.0, abs(cost))


def _check_coverable(instance: PlacementInstance) -> None:
    """Raise :class:`Infeasible`, naming the first ten blocks no candidate
    covers, unless the union of the candidates' masks is the full mask.
    The union is taken in candidate order and stops at the first candidate
    that completes it: on city-10k that is the first one, an ADS-B site
    that covers every block."""
    union, full = 0, instance.full_mask
    for c in instance.candidates:
        if union == full:
            break
        union |= c.covered
    if union != full:
        missing = [instance.universe[p] for p in mask_positions(full & ~union)]
        raise Infeasible(f"no candidate covers block(s) {missing[:10]}{'...' if len(missing) > 10 else ''}")


def _greedy_cover(candidates: Sequence[Candidate], uncovered: int) -> list:
    """Repeatedly pick the candidate with the lowest (cost per newly covered
    element, cid) until ``uncovered`` is empty; returns the indices of the
    picks into ``candidates``, in the order picked."""
    picks = []
    while uncovered:
        best, best_key = None, None
        for i, c in enumerate(candidates):
            gain = (c.covered & uncovered).bit_count()
            if gain:
                key = (c.cost / gain, c.cid)
                if best_key is None or key < best_key:
                    best, best_key = i, key
        picks.append(best)
        uncovered &= ~candidates[best].covered
    return picks


def solve_greedy(instance: PlacementInstance) -> PlacementPlan:
    """Repeatedly pick the candidate with the lowest cost per newly covered block."""
    _check_coverable(instance)
    chosen = [instance.candidates[i] for i in _greedy_cover(instance.candidates, instance.full_mask)]
    return _make_plan(chosen, mode="greedy", nodes=0, proven=False)


def solve_brute(instance: PlacementInstance) -> PlacementPlan:
    """Exhaustively scan all candidate subsets; the provenance oracle for solve_exact.

    The plan is the least by :func:`_plan_key` among the subsets whose
    index-order cost sums lie within the prune slack of the least sum: ties
    are broken by (fsum cost, fewer candidates, lexicographic candidate ids).
    """
    n = len(instance.candidates)
    if n > MAX_BRUTE_CANDIDATES:
        raise TooLarge(f"{n} candidates exceeds the exhaustive scan limit of {MAX_BRUTE_CANDIDATES}")
    _check_coverable(instance)
    if not instance.universe:
        return _make_plan((), mode="brute", nodes=1, proven=True)

    rows = masks_to_bytes([c.covered for c in instance.candidates] + [instance.full_mask], instance.n_elements)

    # Subset tables by doubling: after candidate i, the upper half of each
    # table is the lower half with candidate i added, so bit i of a row index
    # says whether candidate i is picked, and costs are summed in index order.
    cost = np.zeros(1, dtype=np.float64)
    cover = np.zeros((1, rows.shape[1]), dtype=np.uint8)
    for c, row in zip(instance.candidates, rows):
        cost = np.concatenate([cost, cost + c.cost])
        cover = np.concatenate([cover, cover | row])
    feasible = (cover == rows[-1]).all(axis=1)
    best_cost = cost[feasible].min()
    # Index-order sums can split equal totals by an ulp: the subsets within
    # the prune slack of the least are compared on their fsum totals.
    near = np.flatnonzero(feasible & (cost <= _prune_at(best_cost)))
    best_mask = min(near.tolist(), key=lambda mask: _plan_key([instance.candidates[i] for i in mask_positions(mask)]))
    chosen = [instance.candidates[i] for i in mask_positions(best_mask)]
    return _make_plan(chosen, mode="brute", nodes=1 << n, proven=True)


def _drop_site_dominated(candidates: Sequence[Candidate]) -> list:
    """``candidates`` less each one beaten at its own site: another candidate
    there is strictly cheaper and covers a superset of its blocks.  Swapping
    the beaten one for it lowers any plan's cost, so the beaten one is in no
    minimum-cost plan.  Candidates without a site are all kept."""
    by_site = {}
    for c in candidates:
        if c.site is not None:
            by_site.setdefault(c.site, []).append(c)
    beaten = set()
    for group in by_site.values():
        for c in group:
            covered = c.covered
            for d in group:
                if d.cost < c.cost and covered & d.covered == covered:
                    beaten.add(c.cid)
                    break
    return [c for c in candidates if c.cid not in beaten]


def _dedup_identical(candidates: Sequence[Candidate]):
    """Keep only the cheapest (then lexicographically first) candidate per
    covered set, in cid order, and say how many were dropped.

    Candidates often share one mask object (every ADS-B entry of city-10k
    holds the same int), and hashing a mask of 10^4 bits costs about a
    microsecond.  So each mask object is hashed once, the first time it is
    seen, and its id then maps to the slot of its value: the id of the
    first object seen with that value.  Equal masks held by distinct
    objects thus still meet in one slot.  Every mask stays referenced by
    ``candidates`` for the whole call, so no id is reused."""
    slot_of, first_of, best = {}, {}, {}
    for c in candidates:
        slot = slot_of.get(id(c.covered))
        if slot is None:
            slot = slot_of[id(c.covered)] = first_of.setdefault(c.covered, id(c.covered))
        prev = best.get(slot)
        if prev is None or (c.cost, c.cid) < (prev.cost, prev.cid):
            best[slot] = c
    kept = sorted(best.values(), key=lambda c: c.cid)
    return kept, len(candidates) - len(kept)


def _batch_pricer(price: np.ndarray):
    """Function that prices a list of masks in one pass: for each mask, the
    sum of ``price`` over its set bits.

    Row j of the table holds the price sum of every subset of positions
    8j..8j+7, indexed by that subset's byte, so pricing a mask is one lookup
    per nonzero byte, as :func:`masks_to_nonzero_bytes` gives them, instead
    of unpacking it to flags.  Zero bytes are skipped, so work and
    temporaries follow the covered sets, not the universe size times the
    number of masks.  The dual ascent's slack pass prices the residual's
    masks with it."""
    n = len(price)
    n_bytes = (n + 7) // 8
    padded = np.zeros(8 * n_bytes)
    padded[:n] = price
    table = np.zeros((n_bytes, 256))
    for b in range(8):
        np.add(table[:, : 1 << b], padded[b::8, None], out=table[:, 1 << b : 2 << b])
    table = table.ravel()

    def price_of(masks: list) -> np.ndarray:
        row, col, value = masks_to_nonzero_bytes(masks, n)
        return np.bincount(row, weights=table[256 * col + value], minlength=len(masks))

    return price_of


def _chunk_rows(n: int) -> int:
    """Candidates per chunk of the root's passes over masks of ``n`` blocks:
    ``_CHUNK_CELLS`` cells, and at least one."""
    return max(1, _CHUNK_CELLS // max(n, 1))


def _root_pass(active: Sequence[Candidate], shares: np.ndarray, remaining: int, n: int) -> np.ndarray:
    """The share price of the blocks of ``remaining``: 0 off them and, on
    each, the share of its first coverer among ``active`` in ascending
    ``shares`` (a stable sort), the least.  The walk prices the blocks each
    candidate covers that no earlier one did, and stops once every block
    is priced."""
    price = np.zeros(n)
    unpriced, share_of = remaining, shares.tolist()
    for ci in np.argsort(shares, kind="stable").tolist():
        new = active[ci].covered & unpriced
        if new:
            price[mask_flags(new, n).view(bool)] = share_of[ci]
            unpriced ^= new
            if not unpriced:
                break
    return price


class _Block:
    """What a residual knows of one of its blocks ``p``: ``mask``, with bit
    ci set for each coverer ``active[ci]`` of ``p``, the same coverers as
    ``idx``, an ascending index list, and ``least``, the least of their
    costs.  Three fields start as None and are filled the first time they
    are needed: ``reach``, the union of the coverers' masks, at the first
    completion test (see :meth:`_Residual.completes`); ``runs``, the
    coverers' runs, first-run columns and costs, at the first pricing pass;
    and ``last``, the last ``uncovered`` priced and its result, for the
    repeat check (see :meth:`_Residual.children_of`)."""

    __slots__ = ("mask", "idx", "least", "reach", "runs", "last")

    def __init__(self, active: list, p: int):
        bit = 1 << p
        self.idx = [ci for ci, c in enumerate(active) if c.covered & bit]
        self.mask = sum(1 << ci for ci in self.idx)
        self.least = min(active[ci].cost for ci in self.idx)
        self.reach = self.runs = self.last = None


class _Residual:
    """A residual problem, built once and read by every search, bound and
    fixing pass over it.  To ``forced`` it adds the unique coverer in
    ``candidates`` of each block of ``remaining`` that has one.  It holds
    ``forced`` and their cost; the candidates ``active`` that still cover a
    block, in the order of ``candidates``, with their ``cost`` and ``sizes``
    (blocks left covered); the blocks left, ``remaining``, at positions
    ``rows``; the share price of :func:`_root_pass`, its sum ``bound`` and
    its least ``least_price``; the masks of the runs of the branch order,
    found on first use (see :meth:`class_mask`); and one record per block
    the search or the dual ascent reaches, built on first use, in one dict
    (see :meth:`block` and :class:`_Block`).  The ascent reads only a
    record's coverer list; its reach, runs and last pricing pass are the
    search's, filled by :meth:`completes` and :meth:`children_of`.  The
    search's two skip bounds (see :func:`_search`) start from the record's
    ``least``, and the second one reads :meth:`completes`.  ``solve_exact``
    builds every residual from candidates in cid order, so ``active`` is in
    cid order too, as the search's leaf ranking needs.

    Each block's coverers in ``candidates`` are counted once, into the bit
    planes of :func:`_bit_planes`, and the blocks with one coverer are read
    off them by :func:`_counted_once`.  The same counts give the branch
    order, as forcing leaves no new singleton behind: on a block left
    uncovered, the number of coverers in ``active`` equals the count before
    forcing, as no forced candidate covers the block and each of its
    coverers touches the blocks left and so stays active.

    The branch order sorts the blocks left by (count, position).  It is held
    only as the masks of its runs, one per count, so within a run it is
    position order, and the first block of the order in a set of blocks is
    the lowest set bit of the set's meet with the first run's mask it meets
    (see :meth:`branch_block`).  The search and the dual ascent both visit
    blocks through that one lookup.  A run's mask is built only when one of
    them first steps to it: at seed 1 the two searches of search-400 build
    25 of their residuals' 82 runs (1 764 bytes), the 8 sweep-r points 87
    of 2 964 (9 032 bytes), city-10k 1 of 504 and het-10k at 300 nodes 488
    of 506 (543 068 bytes, as ``sys.getsizeof`` of the masks)."""

    def __init__(self, candidates: list, remaining: int, forced: list, n: int):
        planes = _bit_planes([c.covered for c in candidates])
        singles = _counted_once(planes, remaining)
        more = [c for c in candidates if c.covered & singles]
        for c in more:
            remaining &= ~c.covered
        self.forced = forced + more
        self.forced_cost = math.fsum(c.cost for c in self.forced)
        self.active = [c for c in candidates if c.covered & remaining]
        self.remaining = remaining
        self.cost = np.array([c.cost for c in self.active])
        self.sizes = np.array([(c.covered & remaining).bit_count() for c in self.active])
        self.rows = np.array(mask_positions(remaining), dtype=np.intp)
        self.price = _root_pass(self.active, self.cost / self.sizes, remaining, n)
        # The masks of the runs of the branch order found so far, and the
        # blocks in none of them (see :meth:`class_mask`).
        self._planes = planes
        self._classes = []
        self._unclassed = remaining
        self.bound = float(self.price[self.rows].sum())
        self.least_price = float(self.price[self.rows].min()) if len(self.rows) else 0.0
        self._blocks = {}

    def class_mask(self, k: int) -> int:
        """The mask of the k-th run of the branch order: the blocks of
        ``remaining`` with the k-th least count of coverers.  The runs up to
        the k-th are found on first use, in turn, each from the blocks in no
        run before it.  Walking the bit planes down from the top, each plane
        keeps the blocks it does not hold when there are some; the blocks
        left at the bottom share every bit of the least count, so they are
        the blocks of that count.  Raises IndexError past the last run."""
        classes, planes = self._classes, self._planes
        while len(classes) <= k:
            run = self._unclassed
            if not run:
                raise IndexError(f"run {k} of a branch order of {len(classes)}")
            for plane in reversed(planes):
                zeros = run ^ (run & plane)
                if zeros:
                    run = zeros
            classes.append(run)
            self._unclassed ^= run
        return classes[k]

    def branch_block(self, uncovered: int, at: int) -> tuple:
        """``(k, p)``: block ``p``, the first block of ``uncovered`` in the
        branch order, and ``k``, the run that holds it (see
        :meth:`class_mask`).  ``uncovered`` must be a nonempty subset of
        ``remaining`` with no block in a run before the ``at``-th.  Within a
        run the blocks are in position order, so ``p`` is the lowest set bit
        of ``uncovered`` in the first run it meets.  The search finds each
        node's branch block here, and the dual ascent each block it raises."""
        classes = self._classes
        while True:
            mask = classes[at] if at < len(classes) else self.class_mask(at)
            hit = uncovered & mask
            if hit:
                return at, (hit & -hit).bit_length() - 1
            at += 1

    def block(self, p: int) -> _Block:
        """The record of block ``p`` (see :class:`_Block`), built by one scan
        of ``active`` on first use.  The search reads it once a node, and
        the dual ascent once for each block it raises."""
        blk = self._blocks.get(p)
        if blk is None:
            blk = self._blocks[p] = _Block(self.active, p)
        return blk

    def completes(self, blk: _Block, uncovered: int) -> bool:
        """Whether some coverer of the block of record ``blk`` covers every
        block of ``uncovered``.  A block of ``uncovered`` out of the
        record's reach, the union of the coverers' masks found on the first
        test, answers no at once; otherwise the coverers are scanned."""
        active = self.active
        if blk.reach is None:
            reach = 0
            for ci in blk.idx:
                reach |= active[ci].covered
            blk.reach = reach
        if uncovered & ~blk.reach:
            return False
        for ci in blk.idx:
            if uncovered & active[ci].covered == uncovered:
                return True
        return False

    def children_of(self, blk: _Block, uncovered: int) -> tuple:
        """``(cost, newly)`` of the coverers of the block of record ``blk``,
        in the order of its ``idx``: their costs, and the price of the blocks
        of ``uncovered`` each one covers.  A coverer's price is a sum over
        the runs of its mask of differences of one prefix sum of the prices
        of ``uncovered``, so each is off by a few ulps of the price of
        ``uncovered``, far below the prune slack.

        The record's ``runs`` are found on the first pass: the runs of set
        bits of the coverers' masks (see :func:`masks_to_runs`), as two
        int32 rows of their ``lo`` and ``hi`` bounds, the column of each
        coverer's first run and their costs, a chunk of ``_chunk_rows(n +
        1)`` coverers at a time, so no temporary spans the block's coverers.
        ``uncovered`` is unpacked by :func:`mask_flags`, and each pass sums
        the product of prices and flags into a prefix sum of its own, whose
        first entry is 0.

        The record keeps its last ``uncovered`` and result, and a call that
        brings the same ``uncovered`` back gets that result again without a
        pass: on search-400 at seed 1, 972 of the 3 520 calls do.  Callers
        must not write to the arrays returned."""
        last = blk.last
        if last is not None and last[0] == uncovered:
            return last[1]
        n = len(self.price)
        if blk.runs is None:
            idx, step = blk.idx, _chunk_rows(n + 1)
            runs, first, at = [], [], 0
            for i in range(0, len(idx), step):
                chunk, offsets = masks_to_runs([self.active[ci].covered for ci in idx[i : i + step]], n)
                runs.append(chunk)
                first.append(offsets[:-1] + at)
                at += len(chunk)
            blk.runs = (np.concatenate(runs).T.copy(), np.concatenate(first), self.cost[idx])
        runs, first, cost = blk.runs
        prefix = np.zeros(n + 1)
        np.cumsum(self.price * mask_flags(uncovered, n), out=prefix[1:])
        lo, hi = prefix.take(runs)
        found = cost, np.add.reduceat(hi - lo, first)
        blk.last = (uncovered, found)
        return found


def _dual_ascent(res: _Residual) -> np.ndarray:
    """Block prices raised from the static share price of ``res`` by
    Beasley's dual ascent: a feasible point of the covering LP's dual over
    its candidates, so their sum bounds the cost of every cover of its
    blocks.

    The share price is itself dual feasible.  A candidate's slack is its
    cost less the price of its blocks, clamped at 0; it is computed a chunk
    of masks at a time.  Each block, in branch order, that no tight
    candidate covers is then raised by the least slack among its coverers,
    and each of them gives up that much.  The blocks are visited through
    :meth:`_Residual.branch_block`, the search's own lookup, on the live
    blocks: ``remaining`` less those visited and those of tight candidates.
    Every live block comes after the one just raised in the order, so the
    next lookup starts from that block's run."""
    active = res.active
    prices = res.price.copy()
    step = _chunk_rows(len(prices))
    price_of = _batch_pricer(res.price)
    slack = res.cost.copy()
    for i in range(0, len(active), step):
        slack[i : i + step] -= price_of([c.covered for c in active[i : i + step]])
    np.maximum(slack, 0.0, out=slack)
    # The blocks left to raise: those of no tight candidate, as raising one
    # of them gains nothing, and not yet visited.
    live = res.remaining
    for ci in np.flatnonzero(slack == 0.0).tolist():
        live ^= live & active[ci].covered
    at = 0
    while live:
        at, p = res.branch_block(live, at)
        live ^= 1 << p
        idx = res.block(p).idx
        left = slack[idx]
        rise = left.min()
        prices[p] += rise
        left -= rise
        slack[idx] = left
        for j in np.flatnonzero(left == 0.0).tolist():
            live ^= live & active[idx[j]].covered
    return prices


def _leaf_key(forced_costs: list, costs: list, picks: tuple) -> tuple:
    """``(fsum cost, size, sorted picks)`` of the plan of the forced
    candidates, of costs ``forced_costs``, and the active candidates
    ``picks``, of costs ``costs``.  With the active candidates in cid order,
    it orders such plans as :func:`_plan_key` does."""
    return (math.fsum(forced_costs + [costs[i] for i in picks]), len(picks), tuple(sorted(picks)))


def _first_leaf_of_its_cost(seen: set, cost: float) -> bool:
    """Whether no leaf child a node has reached so far costs ``cost``, the
    costs of those being ``seen``; adds ``cost`` to ``seen``.  The search
    keys a leaf child only when this holds (see :func:`_search`)."""
    if cost in seen:
        return False
    seen.add(cost)
    return True


def _picks_of(res: _Residual, plan: list) -> tuple:
    """The sorted indices into ``res.active`` of the candidates of ``plan``.

    ``plan`` must cover the universe and hold ``res.forced``.  A member that
    is neither forced nor active then covers only blocks the forced ones
    cover, so ``res.forced`` plus ``active[picks]`` is a plan too, ranked no
    later by :func:`_plan_key`."""
    cids = {c.cid for c in plan}
    return tuple(i for i, c in enumerate(res.active) if c.cid in cids)


def _search(res: _Residual, incumbent: list, node_budget: int) -> tuple:
    """Depth-first branch and bound over ``res`` from ``incumbent``, a plan
    that covers the whole universe and holds ``res.forced``; returns
    ``(nodes, budget_exceeded, incumbent)``, where ``incumbent`` is the least
    by :func:`_plan_key` of the plans seen and ``nodes`` is ``node_budget +
    1`` when the budget stopped the search.  The search starts from the
    incumbent's picks (see :func:`_picks_of`), so a member of it that is
    neither forced nor active is dropped.

    A node counted and not pruned on its own bound picks its branch block,
    the first of its uncovered blocks in the branch order: it steps along the
    runs of equal count of coverers from its stack entry's run until one
    meets its uncovered blocks, and takes the lowest of those (see
    :meth:`_Residual.branch_block`).  A child starts from its parent's run,
    since its uncovered blocks are a subset of its parent's, but may still
    hold blocks of that run.  The node fetches the block's record once
    (see :meth:`_Residual.block`) and reads everything it needs of the
    block there.  It then tries two lower bounds on its children before it
    reads the block's coverers and prices them.  Every child adds a coverer
    of the block, so it costs at least ``forced_cost + (cost + least)``,
    ``least`` the record's least cost among the block's coverers, excluded
    ones too.  A child that does not finish the cover also leaves a block
    priced at least ``res.least_price``.  When the
    first sum, or the second with no coverer that covers every uncovered
    block, reaches ``skip_at``, one prune slack past ``threshold``, no child
    can pass even with its bound drifted (see ``_PRUNE_REL``), so the node
    pushes and ranks nothing and is not priced.  The bounds are tried here,
    at expansion, and not when the node is pushed: a node skipped at push
    would not be counted, and a budgeted search would then reach other
    nodes.  Whether a coverer covers every uncovered block is an exact test
    on the masks (see :meth:`_Residual.completes`).  An uncovered block out
    of the reach, the union of the coverers' masks the record holds,
    answers it without a scan: on search-400 it answers about two tests in
    three.

    Every leaf is ``res.forced`` plus ``active[picks]``, with ``active`` in
    cid order.  Two leaves of equal fsum cost and size share the forced
    candidates, so the least cid of their symmetric difference decides them
    under :func:`_plan_key`, and that is the least index: comparing their
    sorted picks gives the same order (see :func:`_leaf_key`).  The
    incumbent is held as its leaf key, and its plan list is built on
    return.

    A node keys only the first of its leaf children of each cost, a leaf
    child being one that leaves no block uncovered.  This is exact.  The
    children come in ascending index, as the block's coverer list does, and
    none of them is among the node's picks, since each covers the branch
    block and the picks do not.  A
    later leaf child of the same cost thus has the first one's fsum cost
    and size and larger sorted picks, so it cannot beat an incumbent that
    the first one did not beat or became.  Leaves are not counted as
    nodes, so no count or budget moves.  On search-400 at seed 1 the
    solver computes 2 503 leaf keys where keying every leaf takes 25 791."""
    active, forced, forced_cost = res.active, res.forced, res.forced_cost
    forced_costs, active_costs = [c.cost for c in forced], [c.cost for c in active]
    inc_key = _leaf_key(forced_costs, active_costs, _picks_of(res, incumbent))
    threshold = _prune_at(inc_key[0])
    skip_at = _prune_at(threshold)
    nodes = 0
    # A stack entry: (uncovered, excluded, cost, chosen_idx, bound, at),
    # where bound is the price of ``uncovered`` and no run of the branch
    # order before the ``at``-th holds one of its blocks.
    stack = [(res.remaining, 0, 0.0, (), res.bound, 0)] if res.remaining else []
    while stack:
        uncovered, excluded, cost, chosen_idx, bound, at = stack.pop()
        nodes += 1
        if nodes > node_budget:
            break
        if forced_cost + cost + bound >= threshold:
            continue
        at, branch_pos = res.branch_block(uncovered, at)
        blk = res.block(branch_pos)
        # The two skip bounds of the docstring.
        least_child = forced_cost + (cost + blk.least)
        if least_child >= skip_at:
            continue
        if least_child + res.least_price >= skip_at and not res.completes(blk, uncovered):
            continue
        coverer_mask, idx = blk.mask, blk.idx
        # A child's bound is this node's bound less the price of what the
        # child newly covers.  Every coverer's child is priced at once, and
        # the excluded ones are skipped among those that pass the bound.
        costs, newly_price = res.children_of(blk, uncovered)
        child_bound = bound - newly_price
        child_lower = forced_cost + (cost + costs) + child_bound
        dropped = coverer_mask & excluded
        leaf_costs = set()
        children = []
        for j in np.flatnonzero(child_lower < threshold).tolist():
            ci = idx[j]
            if (dropped >> ci) & 1:
                continue
            c = active[ci]
            newly = c.covered & uncovered
            child_uncovered = uncovered ^ newly
            if child_uncovered == 0:
                if _first_leaf_of_its_cost(leaf_costs, c.cost):
                    key = _leaf_key(forced_costs, active_costs, chosen_idx + (ci,))
                    if key < inc_key:
                        inc_key = key
                        threshold = _prune_at(inc_key[0])
                        skip_at = _prune_at(threshold)
                continue
            # The incumbent may have improved at an earlier sibling.
            if child_lower[j] >= threshold:
                continue
            # Siblings earlier in ``idx`` are excluded below this child.
            child_excluded = excluded | (coverer_mask & ((1 << ci) - 1))
            # The child's uncovered blocks are a subset of this node's, but
            # may hold more of the branch block's run.
            child = (child_uncovered, child_excluded, cost + c.cost, chosen_idx + (ci,), float(child_bound[j]), at)
            # Ties on the ratio go by index, which is cid order.
            children.append((c.cost / newly.bit_count(), ci, child))
        children.sort(reverse=True)
        stack.extend(node for _, _, node in children)
    return nodes, nodes > node_budget, forced + [active[i] for i in inc_key[2]]


def _bit_planes(masks: list) -> list:
    """How many of ``masks`` hold each position, as bit planes: Python-int
    masks whose plane k holds bit k of each position's count.  Plane 0 is
    always there, and no zero plane is above it.  The masks are added two
    at a time with a carry through the planes, so the work follows the
    planes the carries reach, not the positions."""
    planes = [0]
    pairs = iter(masks)
    for a in pairs:
        b = next(pairs, 0)
        # a + b is (a ^ b) + 2 (a & b).  Adding a ^ b to plane 0 carries
        # only where a & b holds no bit, so one mask carries into plane 1.
        carry, both = a ^ b, a & b
        for k, plane in enumerate(planes):
            planes[k], carry, both = plane ^ carry, (plane & carry) | both, 0
            if not carry:
                break
        else:
            planes.append(carry)
    return planes


def _counted_once(planes: list, mask: int) -> int:
    """The positions of ``mask`` whose count is 1 in the bit planes
    ``planes`` (see :func:`_bit_planes`): those of plane 0 in no higher
    plane.  x ^ (x & y) stands for x & ~y here: ~y is a negative int, and
    with it this read of city-10k's ten planes over 9 500 blocks at seed 1
    takes 7.8 us, not 3.2 us."""
    mask &= planes[0]
    for plane in planes[1:]:
        mask ^= mask & plane
    return mask


def _drop_redundant(masks: list) -> list:
    """The indices, ascending, of the ``masks`` kept when each in turn is
    dropped if every position it holds is counted more than once, and
    lowers those counts when it is; each position's count starts at the
    number of ``masks`` that hold it.  The list is not changed.

    When mask i is reached, a position's count is the number of masks kept
    before i that hold it plus the number from i on that hold it: a drop
    lowers only its own positions, and none after i is dropped yet.  So
    mask i is dropped exactly when the others counted cover each of its
    positions: when it has no bit outside ``before``, the union of the
    masks kept so far, or ``after[i + 1]``, the union of all those after
    it.  No count is needed, and x ^ (x & y) stands for x & ~y as in
    :func:`_counted_once`."""
    after = [0] * (len(masks) + 1)
    for i in range(len(masks) - 1, -1, -1):
        after[i] = after[i + 1] | masks[i]
    before, kept = 0, []
    for i, mask in enumerate(masks):
        if mask ^ (mask & (before | after[i + 1])):
            kept.append(i)
            before |= mask
    return kept


def _untried(tried: set, flags: np.ndarray) -> bool:
    """Whether the Lagrangian's heuristic has not yet run on the candidates
    ``flags`` flags, the sets it ran on being ``tried``; adds them.  The
    heuristic runs only when this holds (see :func:`_lagrangian`).  A set
    is kept as a mask, one bit a candidate whatever the set's size."""
    key = flags_to_masks(flags[None])[0]
    if key in tried:
        return False
    tried.add(key)
    return True


def _lagrangian(res: _Residual, start: np.ndarray, incumbent: list) -> tuple:
    """Subgradient Lagrangian of covering the blocks of ``res`` with its
    candidates, with a primal heuristic and reduced-cost fixing (Beasley,
    1990; Caprara, Fischetti and Toth, 1999).  Returns ``(bound, keep,
    incumbent)``.

    Multipliers u >= 0 on the blocks, starting from ``start`` (one price per
    position of the universe), give reduced costs rc = c - A^T u and the
    bound L(u) = sum(u) + sum(min(0, rc)) on the cost of every such cover.  Each
    of ``_LAGRANGE_STEPS`` projected subgradient steps moves u by
    lambda (1.01 UB - L) / |g|^2 along g = 1 - A x, x the candidates with
    rc < 0, where UB is the incumbent's cost net of the forced ones;
    lambda starts at 2 and shrinks by 0.7 after 50 steps without a better L.
    The steps stop early once L proves the incumbent or g vanishes.  Every
    10 steps the candidates with rc < 0, completed by the greedy and rid of
    redundant ones costliest first, are picks that replace the incumbent's
    when less by :func:`_leaf_key`.  This heuristic is a function of the
    set it starts from, so a set it has tried is skipped (see
    :func:`_untried`): its key already lost to the incumbent or became it.
    Oscillating steps often leave the same set, most often an empty one;
    on search-400 at seed 1, 11 of 50 runs were repeats.  The redundant
    picks are found from unions of their masks cut to the blocks left (see
    :func:`_drop_redundant`).
    ``incumbent`` must cover the universe and hold ``res.forced``; it is
    held as its picks (see :func:`_picks_of`), and the plan returned is
    ``res.forced`` plus the best picks.

    ``bound`` is the best L; ``keep`` flags the candidates whose rc at its
    u leaves L + max(0, rc) within the prune slack of UB, the only ones a
    plan costing no more than the incumbent can hold, and the incumbent's
    picks.

    The incidence is stored as intp, the index type ``take`` reads without
    a copy, column j's rows a slice of one array of row indices.  It is
    filled a chunk of ``_chunk_rows(n)`` candidates at a time from the set
    bits of their masks cut to ``res.remaining`` (see
    :func:`masks_to_positions`), each position taken to its row by one map,
    so no mask is unpacked to flags.  The steps walk it in spans of whole
    consecutive columns, each holding at most ``_CHUNK_CELLS`` nonzeros, or
    one column that alone holds more.  A^T u gathers u at a span's rows and
    sums each column by ``np.add.reduceat``: every column's sum is a
    reduction over the same values in the same order whatever the spans,
    so the bound does not depend on their width.  A x, which only the
    step's subgradient reads, counts the rows of a span's flagged columns,
    skipping spans with none, and is exact."""
    active, rows, cost, sizes, forced, forced_cost = res.active, res.rows, res.cost, res.sizes, res.forced, res.forced_cost
    n, m = len(start), len(rows)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    incidence = np.empty(int(ends[-1]), dtype=np.intp)
    row_of = np.empty(n, dtype=np.intp)
    row_of[rows] = np.arange(m)
    step = _chunk_rows(n)
    for a in range(0, len(active), step):
        positions, _ = masks_to_positions([c.covered & res.remaining for c in active[a : a + step]], n)
        incidence[starts[a] : starts[a] + len(positions)] = row_of[positions]
    # A span: its columns, their rows, and where each one's rows start.
    spans = []
    a = 0
    while a < len(active):
        b = max(a + 1, int(np.searchsorted(ends, starts[a] + _CHUNK_CELLS, side="right")))
        spans.append((slice(a, b), incidence[starts[a] : ends[b - 1]], starts[a:b] - starts[a]))
        a = b

    def hits_of(x: np.ndarray) -> np.ndarray:
        """How many of the candidates flagged in ``x`` cover each row."""
        hits = np.zeros(m, dtype=np.intp)
        for cols, rows_in, _ in spans:
            flagged = x[cols]
            if flagged.any():
                hits += np.bincount(rows_in[np.repeat(flagged, sizes[cols])], minlength=m)
        return hits

    forced_costs, active_costs = [c.cost for c in forced], cost.tolist()
    inc_key = _leaf_key(forced_costs, active_costs, _picks_of(res, incumbent))

    def reduced(u: np.ndarray) -> np.ndarray:
        rc = cost.copy()
        for cols, rows_in, at in spans:
            rc[cols] -= np.add.reduceat(u.take(rows_in), at)
        return rc

    def heuristic(picked: list) -> tuple:
        covered = 0
        for j in picked:
            covered |= active[j].covered
        picked = picked + _greedy_cover(active, res.remaining & ~covered)
        # Costliest first; ties go by index, which is cid order.
        picked.sort(key=lambda j: (-active_costs[j], j))
        masks = [active[j].covered & res.remaining for j in picked]
        kept = _drop_redundant(masks)
        return tuple(sorted(picked[i] for i in kept))

    u = start[rows].astype(np.float64)
    ub = inc_key[0] - forced_cost
    lam, best, best_u, stall = 2.0, -math.inf, u, 0
    tried = set()
    for it in range(_LAGRANGE_STEPS):
        rc = reduced(u)
        x = rc < 0.0
        neg = np.flatnonzero(x)
        value = float(u.sum() + rc[neg].sum())
        if value > best:
            best, best_u, stall = value, u, 0
        else:
            stall += 1
            if stall == 50:
                lam, stall = lam * 0.7, 0
        if it % 10 == 0 and _untried(tried, x):
            key = _leaf_key(forced_costs, active_costs, heuristic(neg.tolist()))
            if key < inc_key:
                inc_key = key
                ub = key[0] - forced_cost
        if best >= ub - _PRUNE_REL * max(1.0, abs(ub)):
            break
        g = 1.0 - hits_of(x)
        g[(g < 0.0) & (u == 0.0)] = 0.0
        norm = float(g @ g)
        if norm == 0.0:
            break
        u = np.maximum(u + (lam * (1.01 * ub - value) / norm) * g, 0.0)

    keep = best + np.maximum(reduced(best_u), 0.0) <= _prune_at(ub)
    keep[list(inc_key[2])] = True
    return best, keep, forced + [active[j] for j in inc_key[2]]


def solve_exact(instance: PlacementInstance, node_budget: int = DEFAULT_NODE_BUDGET) -> PlacementPlan:
    """Cost-minimal placement via depth-first branch and bound.

    The root drops every candidate beaten at its own site (see
    :func:`_drop_site_dominated`), then duplicate covered sets, and forces
    the unique coverer of every block that has one; the greedy solution of
    the residual seeds the incumbent.  The same-site rule is a proof, unlike
    the type-level :func:`dominance_filter`: it removes only candidates that
    no minimum-cost plan holds, so the least-key plan survives it.

    The residual is one :class:`_Residual` record, which counts each
    block's coverers in one pass over its masks.  The lower bound is a
    per-block cheapest-share sum: each block is priced at the least
    ``cost / |covered & residual|`` among its coverers, the share of its
    first coverer in ascending share.  Each node branches on the uncovered
    block with the fewest covering candidates, as counted in that pass, the
    lowest such block found in the mask of the blocks of that count,
    trying coverers in order of marginal cost per newly covered block;
    sibling subtrees exclude the coverers already tried so the search
    partitions the space.  A block's coverers and a node's excluded
    candidates are bitmasks over the residual candidates.  Each stack entry
    carries its bound and the run of equal count of coverers its branch
    block is sought from, the one its parent's was found in.  A node whose
    children the two skip bounds of :func:`_search` show cannot pass is
    counted but not priced.
    Otherwise it unpacks its uncovered blocks once into a prefix sum of
    their prices, prices every coverer of its block by differences of that
    sum over the runs of set bits of the coverer's mask, cached per block,
    and takes each child's bound as its own less that price.  It drops the
    children that cannot beat the incumbent before any per-child work, then
    skips the excluded ones.  Leaves are ranked as :func:`_plan_key` ranks
    them, and a node ranks only its first leaf child of each cost, the
    least of them (see :func:`_search`), so the plan is the least one by
    (fsum cost, size, cids).  The search and the Lagrangian hand on their
    incumbent as a plan, and each takes the one it is given as the forced
    candidates plus its picks into its own residual (see
    :func:`_picks_of`).  Every
    plan handed on meets the precondition: it covers the universe, and a
    core's newly forced candidate is the only core coverer of some block,
    so any cover drawn from the core holds it.

    When the node budget can pay for ``_LAGRANGE_STEPS`` Lagrangian steps
    on top of one node per residual candidate, at one node-time per
    ``_CANDIDATES_PER_NODE`` candidates a step, the search first runs as a
    probe of one node per residual candidate.  A probe that ends on its
    budget is followed by a dual ascent from the static prices, which takes
    its blocks in the search's branch order through the search's lookup (see
    :func:`_dual_ascent`), a Lagrangian from the ascent's prices (see
    :func:`_lagrangian`), which may improve the incumbent, and reduced-cost
    fixing, all three reading the root's record.  The kept candidates make
    the core, a residual of its own, forced again and searched with the
    rest of the budget and the best incumbent so far.  Every plan costing
    no more than the incumbent lies in the core, so a core search that ends
    on its own proves the plan.  Otherwise the search runs once with the whole budget.

    ``site_dominated`` and ``dedup_removed`` count the candidates the root's
    two reductions drop.  ``nodes_explored`` adds the probe's nodes to the
    core's, and is at most ``node_budget + 1``.  Exceeding ``node_budget``
    returns the incumbent with proven_optimal=False.  ``root_lower_bound``
    is the best bound the root computed: the static bound and, after a probe
    or search stopped by its budget, the forced cost plus the dual ascent's
    and the Lagrangian's bounds.  A bound found on the core holds only for
    plans inside it and is not reported.
    """
    _check_coverable(instance)
    n = instance.n_elements
    undominated = _drop_site_dominated(instance.candidates)
    kept, n_dupes = _dedup_identical(undominated)
    root = _Residual(kept, instance.full_mask, [], n)
    incumbent = root.forced + [root.active[i] for i in _greedy_cover(root.active, root.remaining)]
    root_lower = root.forced_cost + root.bound

    probe = len(root.active)
    lagrange = _LAGRANGE_STEPS * probe <= _CANDIDATES_PER_NODE * (node_budget - probe)
    nodes, budget_exceeded, incumbent = _search(root, incumbent, probe if lagrange else node_budget)
    if budget_exceeded:
        dual = _dual_ascent(root)
        root_lower = max(root_lower, root.forced_cost + math.fsum(dual.tolist()))
        if lagrange:
            bound, keep, incumbent = _lagrangian(root, dual, incumbent)
            root_lower = max(root_lower, root.forced_cost + bound)
            core = _Residual([c for c, k in zip(root.active, keep.tolist()) if k], root.remaining, root.forced, n)
            core_nodes, budget_exceeded, incumbent = _search(core, incumbent, node_budget - probe)
            nodes = probe + core_nodes

    return _make_plan(
        incumbent,
        mode="exact",
        nodes=nodes,
        proven=not budget_exceeded,
        metadata={
            "site_dominated": len(instance.candidates) - len(undominated),
            "dedup_removed": n_dupes,
            "forced": len(root.forced),
            "budget_exceeded": budget_exceeded,
            "root_lower_bound": root_lower,
        },
    )


def dominance_filter(instance: PlacementInstance, catalog: SensorCatalog) -> PlacementInstance:
    """Drop candidates of sensor types strictly beaten on range, detection, and cost rate.

    A type is removed when another admitted type reaches at least as far, detects
    at least as well on every terrain, and equips a 360-degree site at no higher
    cost per unit of reachable area, with at least one of those strict.
    The rule compares catalog specs, not covered sets, so it can drop every
    candidate of a minimum-cost plan; the same-site rule ``solve_exact``
    applies on every solve compares covered sets and costs and cannot.
    """
    present = sorted({c.sensor for c in instance.candidates if c.sensor is not None})
    merit = {}
    for name in present:
        spec = catalog.get(name)
        # The cost rate of a full 360-degree install per unit of reachable area,
        # negated so that every place of the tuple is better when larger.
        rate = spec.unit_price_usd * spec.fov_multiplier / (spec.range_km ** 2)
        merit[name] = (spec.range_km, *(spec.detect[t] for t in DETECTABLE_TERRAINS), -rate)
    # Identical merits under different names: keep the lexicographically first.
    removed = {
        u for u in present
        if any(all(a >= b for a, b in zip(merit[v], merit[u])) and (merit[v] != merit[u] or v < u) for v in present)
    }
    kept = tuple(c for c in instance.candidates if c.sensor is None or c.sensor not in removed)
    return PlacementInstance(instance.universe, kept)
