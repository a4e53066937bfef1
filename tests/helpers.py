"""Shared builders for tests: geographic rectangles with exact km spans and
small synthetic meshes/specs, plus plan and dual feasibility checks, spies on
the search's pricing passes and the exact solver's leaf keys and greedy
covers, the unpacking of masks to rows of flags, and the one-at-a-time
oracles that array code is checked against: the per-site coverage walk, the
whole-universe packing of covered sets, the scalar unit-count rule, the
same-site dominance rule, the per-position redundancy pass, the branch order
as a sort, the dual ascent as a walk along it, and the per-row formatting of
``coverage.csv`` and ``heatmap.csv``."""

import itertools
import math
import sys

import numpy as np

from gridwatch import coverage, solver
from gridwatch.catalog import SensorSpec
from gridwatch.coverage import (
    _SNAP_REL,
    MAX_COVERAGE_WORK,
    _footprint,
    block_detection,
    flags_to_masks,
    mask_positions,
    masks_to_bytes,
)
from gridwatch.errors import DegenerateDetection, TooLarge, ValidationError
from gridwatch.geo import EARTH_RADIUS_KM, GeoPoint
from gridwatch.mesh import DETECTABLE_TERRAINS, Terrain, build_mesh

_DEG = math.pi / 180.0


def corners_for(width_km, height_km, lon0=-84.0, lat0=39.0):
    """Four corners whose projected bounding box spans exactly the given km."""
    dlat = height_km / (EARTH_RADIUS_KM * _DEG)
    # The projection origin sits at the bounding-box centroid, so the cosine
    # factor must be taken at mid-latitude for the width to come out exact.
    dlon = width_km / (EARTH_RADIUS_KM * math.cos((lat0 + dlat / 2.0) * _DEG) * _DEG)
    return (
        GeoPoint(lon0, lat0),
        GeoPoint(lon0 + dlon, lat0),
        GeoPoint(lon0 + dlon, lat0 + dlat),
        GeoPoint(lon0, lat0 + dlat),
    )


def rect_mesh(blocks_x, blocks_y, terrain=None, block_side=0.3, min_range=None):
    """Mesh of blocks_x wide by blocks_y tall; terrain, shape (blocks_y, blocks_x),
    defaults to all-open."""
    if terrain is None:
        terrain = np.zeros((blocks_y, blocks_x), dtype=int)
    else:
        terrain = np.asarray(terrain, dtype=int)
    if min_range is None:
        min_range = block_side
    return build_mesh(corners_for(blocks_x * block_side, blocks_y * block_side), block_side, terrain, min_range)


def square_mesh(blocks, terrain=None, block_side=0.3, min_range=None):
    """Square mesh of blocks x blocks; terrain defaults to all-open."""
    return rect_mesh(blocks, blocks, terrain, block_side, min_range)


def uniform_detect(p):
    return {t: p for t in DETECTABLE_TERRAINS}


def make_spec(name="Probe", range_km=1.0, price=1000.0, fov=1, detect=None, noncoop=True):
    return SensorSpec(
        name=name,
        range_km=range_km,
        unit_price_usd=price,
        fov_multiplier=fov,
        tracks_noncooperative=noncoop,
        detect=detect if detect is not None else uniform_detect(0.9),
    )


def site_for_block(mesh, block):
    for s in mesh.candidate_sites:
        if s.block == block:
            return s
    raise AssertionError(f"block {block} has no candidate site")


def covers(instance, plan):
    """Whether the OR of the plan's chosen masks is the instance's whole universe."""
    union = 0
    for c in plan.chosen:
        union |= c.covered
    return union == instance.full_mask


def masks_to_flags(masks, n):
    """The masks over ``n`` positions as rows of 0/1 bytes."""
    return np.unpackbits(masks_to_bytes(masks, n), axis=1, count=n, bitorder="little")


def dual_violations(instance, prices, rel=1e-9):
    """Cids of the candidates whose covered positions' ``prices`` sum past
    their cost by more than ``rel``, or all cids if a price is negative: an
    empty list says ``prices``, one per universe position, are a feasible
    point of the covering LP's dual.  Sums are taken position by position."""
    if any(y < 0 for y in prices):
        return [c.cid for c in instance.candidates]
    over = []
    for c in instance.candidates:
        held = [prices[p] for p in range(instance.n_elements) if (c.covered >> p) & 1]
        if math.fsum(held) > c.cost * (1 + rel):
            over.append(c.cid)
    return over


def count_pricing_passes(monkeypatch):
    """How many times the search prices a node's children from now on, in a
    one-item list, counted through ``monkeypatch``."""
    calls = [0]
    children_of = solver._Residual.children_of

    def count(self, p, uncovered):
        calls[0] += 1
        return children_of(self, p, uncovered)

    monkeypatch.setattr(solver._Residual, "children_of", count)
    return calls


def count_leaf_keys(monkeypatch):
    """How many leaf keys the exact solver computes from now on, in a
    one-item list, counted through ``monkeypatch``."""
    calls = [0]
    leaf_key = solver._leaf_key

    def count(*args):
        calls[0] += 1
        return leaf_key(*args)

    monkeypatch.setattr(solver, "_leaf_key", count)
    return calls


def count_greedy_covers(monkeypatch):
    """How many greedy covers the exact solver runs from now on, the root's
    incumbent and each run of the Lagrangian's heuristic, in a one-item
    list, counted through ``monkeypatch``."""
    calls = [0]
    greedy_cover = solver._greedy_cover

    def count(*args):
        calls[0] += 1
        return greedy_cover(*args)

    monkeypatch.setattr(solver, "_greedy_cover", count)
    return calls


def redundancy_oracle(masks, counts):
    """``solver._drop_redundant`` as a hit count per position: each of
    ``masks`` in turn is dropped, and its positions' counts lowered, when
    every position it holds is counted more than once; the indices kept."""
    hits = np.array(counts, dtype=np.int64)
    kept = []
    for i, mask in enumerate(masks):
        seg = mask_positions(mask)
        if (hits[seg] > 1).all():
            hits[seg] -= 1
        else:
            kept.append(i)
    return kept


def count_planes(counts):
    """A count per position as ``solver._bit_planes`` holds it: plane k the
    mask of the positions whose count has bit k set, from plane 0 to the top
    bit of the largest count."""
    return [sum(((c >> k) & 1) << p for p, c in enumerate(counts)) for k in range(max(1, max(counts, default=0).bit_length()))]


def footprints_oracle(mesh, catalog):
    """``coverage._footprints`` as a walk of one window per site: the stencil
    cut to the grid around the site, its in-area positions, a fresh mask and
    mean for every pair."""
    in_area = mesh.in_area
    n_in_area = int(np.count_nonzero(in_area))
    work = len(catalog) * len(mesh.candidate_sites) * n_in_area
    if work > MAX_COVERAGE_WORK:
        raise TooLarge(
            f"coverage of {len(catalog)} sensor type(s) x {len(mesh.candidate_sites)} candidate site(s) x "
            f"{n_in_area} in-area block(s) = {work:.3g} exceeds the limit of {MAX_COVERAGE_WORK:.0e}"
        )
    bx, by = mesh.blocks_x, mesh.blocks_y
    # In-area position of every block, the masks' bit order; -1 outside the area.
    position = np.where(in_area, np.cumsum(in_area) - 1, -1).reshape(by, bx)
    omegas = block_detection(mesh, catalog)
    pairs = []
    # Equal covered sets share one int: a type that reaches every block from
    # every site would otherwise store one copy of the full mask per site.
    shared = {}
    union = np.zeros(n_in_area, dtype=bool)
    for spec in sorted(catalog, key=lambda s: s.name):
        omega = omegas[spec.name][in_area]
        stencil = _footprint(spec.range_km, mesh.block_side, max(bx, by))
        n = stencil.shape[0] // 2
        for site in mesh.candidate_sites:
            j, k = divmod(site.block, bx)
            j_lo, j_hi, k_lo, k_hi = max(0, j - n), min(by, j + n + 1), max(0, k - n), min(bx, k + n + 1)
            window = position[j_lo:j_hi, k_lo:k_hi]
            part = stencil[j_lo - j + n : j_hi - j + n, k_lo - k + n : k_hi - k + n]
            # Row-major over the window, so ascending: zeta sums in mask order.
            covered = window[part & (window >= 0)]
            if not covered.size:
                continue
            flags = np.zeros(n_in_area, dtype=bool)
            flags[covered] = True
            union |= flags
            zeta = float(omega[covered].mean())
            mask = int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")
            mask = shared.setdefault(mask, mask)
            pairs.append((f"{spec.name}@{site.block:06d}", spec.name, site.block, mask, zeta, None))
    return pairs, tuple(np.flatnonzero(in_area)[~union].tolist())


def covered_sets_oracle(lo, hi, size, omega, n_in_area):
    """``coverage._covered_sets`` with every group packed over the whole
    universe: each site's flags span all ``n_in_area`` bits, so no mask is
    shifted.  Groups take sites while they hold at most
    ``coverage._GROUP_ENTRIES`` blocks and ``coverage._GROUP_CELLS`` flags."""
    out = []
    sizes = size.tolist()
    first = 0
    while first < len(sizes):
        last, entries = first + 1, sizes[first]
        while (
            last < len(sizes)
            and entries + sizes[last] <= coverage._GROUP_ENTRIES
            and (last + 1 - first) * n_in_area <= coverage._GROUP_CELLS
        ):
            entries += sizes[last]
            last += 1
        group_lo, group_hi = lo[first:last].ravel(), hi[first:last].ravel()
        length = group_hi - group_lo
        positions = np.arange(entries) + np.repeat(group_lo - (np.cumsum(length) - length), length)
        flags = np.zeros((last - first) * n_in_area, dtype=bool)
        flags[positions + np.repeat(np.arange(0, len(flags), n_in_area), sizes[first:last])] = True
        values = omega[positions]
        a = 0
        for mask, b in zip(flags_to_masks(flags.reshape(-1, n_in_area)), itertools.accumulate(sizes[first:last])):
            out.append((mask, float(np.add.reduce(values[a:b])) / (b - a)))
            a = b
        first = last
    return out


def coverage_csv_oracle(table):
    """``coverage.csv`` of ``table`` as text, every value of every row
    formatted anew."""
    lines = ["sensor,site_index,n_blocks,zeta,tau,kappa,install_cost_usd\n"]
    for e in table.entries:
        lines.append(f"{e.sensor},{e.site},{e.n_covered},{e.mean_detect!r},{1.0 - e.mean_detect!r},{e.units},{e.cost!r}\n")
    return "".join(lines)


def heatmap_csv_oracle(mesh, catalog, sensor):
    """``heatmap.csv`` of ``sensor`` as text, from every type's detection per
    block, each row formatted anew."""
    omega = block_detection(mesh, catalog)[sensor].tolist()
    labels = {t.value: t.label for t in Terrain}
    lines = ["block_index,row,col,terrain,detection_probability\n"]
    for z, (code, w) in enumerate(zip(mesh.terrain.tolist(), omega)):
        j, k = divmod(z, mesh.blocks_x)
        lines.append(f"{z},{j},{k},{labels[code]},{w!r}\n")
    return "".join(lines)


def units_oracle(mean_detect, log_miss, fov, rounding):
    """``coverage._unit_counts`` of one value, a scalar step at a time: the
    units at a requirement whose ``log1p(-required)`` is ``log_miss``."""
    if mean_detect >= 1.0:
        raise DegenerateDetection(f"mean detection probability {mean_detect} leaves zero misdetection")
    if not 0.0 < mean_detect < 1.0:
        raise ValidationError(f"mean detection probability must be in (0, 1), got {mean_detect}")
    raw = log_miss / math.log1p(-mean_detect)
    if not math.isfinite(raw * fov):
        raise DegenerateDetection(f"mean detection probability {mean_detect} needs more units than a float can count")
    nearest_int = round(raw)
    if abs(raw - nearest_int) <= _SNAP_REL * max(1.0, abs(raw)):
        n = int(nearest_int)
    elif rounding == "ceil":
        n = math.ceil(raw)
    elif rounding == "floor":
        n = math.floor(raw)
    else:
        n = math.floor(raw + 0.5)
    units = max(1, n) * fov
    if units > sys.float_info.max:
        raise DegenerateDetection(f"mean detection probability {mean_detect} needs more units than a float can count")
    return units


def drop_site_dominated_oracle(candidates):
    """``solver._drop_site_dominated`` by set complement: a sited candidate is
    dropped when another at its site costs strictly less and leaves none of
    its blocks uncovered."""
    by_site = {}
    for c in candidates:
        if c.site is not None:
            by_site.setdefault(c.site, []).append(c)
    beaten = set()
    for group in by_site.values():
        for c in group:
            if any(d.cost < c.cost and not c.covered & ~d.covered for d in group):
                beaten.add(c.cid)
    return [c for c in candidates if c.cid not in beaten]


def branch_order_oracle(res):
    """The blocks of ``res.remaining`` by ascending (number of coverers in
    ``res.active``, position): the order in which the search branches and
    the dual ascent raises prices.  The coverers are counted from the
    active masks unpacked to flags, 256 of them at a time."""
    n = len(res.price)
    counts = np.zeros(n, dtype=np.int64)
    for a in range(0, len(res.active), 256):
        counts += masks_to_flags([c.covered for c in res.active[a : a + 256]], n).sum(axis=0, dtype=np.int64)
    return sorted(mask_positions(res.remaining), key=lambda p: (int(counts[p]), p))


def dual_ascent_oracle(res, order):
    """``solver._dual_ascent`` as a walk along ``order``: the slack of each
    active candidate is its cost less the price of its blocks, clamped at
    0, and each block of ``order`` that no tight candidate covers is raised
    by the least slack among its coverers, which each give up that much.
    Returns the prices and the blocks raised, in turn."""
    active = res.active
    prices = res.price.copy()
    slack = np.maximum(res.cost - solver._batch_pricer(res.price)([c.covered for c in active]), 0.0)
    dead, raised = 0, []
    for ci in np.flatnonzero(slack == 0.0).tolist():
        dead |= active[ci].covered
    for p in order:
        if (dead >> p) & 1:
            continue
        raised.append(p)
        idx = res.coverers_of(p)[1]
        left = slack[idx]
        rise = left.min()
        prices[p] += rise
        left -= rise
        slack[idx] = left
        for j in np.flatnonzero(left == 0.0).tolist():
            dead |= active[idx[j]].covered
    return prices, raised
