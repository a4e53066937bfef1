"""Per-(sensor type, candidate site) coverage precomputation.

For every pair this module derives the set of blocks whose four corners all
lie within the sensor's range, the mean detection probability over that set,
and the number of sensor units needed at the site to push the
at-least-one-detection probability up to the required level.  Sites are
block centres, so each type's covered sets come from one stencil of block
offsets, checked against :func:`covered_blocks`.  Every stencil row is one
contiguous run of columns and blocks are numbered row by row, so a site's
covered set is one range of mask bits per grid row it reaches.

:func:`build_coverage` runs in two stages.  A walk over the sites, a chunk at
a time, lays each type's stencil rows at the sites as those bit ranges.  A
site whose ranges equal the previous site's takes that site's mask and mean
detection probability; the sets of the others are built a group at a time.
A chunk holds a fixed number of (site, grid row) ranges, as int32 bounds,
so its arrays stay small whatever the number of sites, and it is wide
enough that the fixed cost of a pass over a chunk stays small beside the
work of its sites.  A group packs its sets over its span alone, the bits
from its sites' least first covered bit, rounded down to a byte, to their
greatest last one, and shifts each packed int into place: the flags, the
packing and the int conversion scale with what the sets reach, not with the
whole universe.
The walk gives every pair's covered-set mask and mean detection probability,
and the blocks no pair covers; none of that depends on the required
detection probability.
Pricing then turns each pair into a :class:`Candidate` at one requirement:
the unit rule of :func:`redundancy` runs over one sensor type's mean
detection probabilities as an array, then costs follow; a returned table is
feasible.  A sweep over the requirement walks once; later points price the
last table's entries again, by the same function, and keep each one whose
unit count and cost are unchanged as the same object, so only the others
are built anew.

This module owns the covered-set format and the candidate record used from
here to the solver.  A covered set is a Python-int bitmask over in-area
positions, where bit i is the i-th block of ``mesh.in_area_blocks``.  That
tuple is also the placement instance's universe, and the instance's
candidates are the table's own :class:`Candidate` entries, so set algebra
stays integer AND/OR/popcount work.  The conversions from masks to their
bytes, 0/1 flags, nonzero bytes, set-bit positions and runs of set bits
are defined here and nowhere else.  :func:`masks_to_bytes` is the one
packer, and :func:`masks_to_nonzero_bytes` is the one scan of its rows for
nonzero bytes.  :func:`masks_to_positions` alone expands those bytes to
their set bits, and :func:`masks_to_runs` takes the set bits of each mask's
run bounds from it.  The package unpacks no list of masks to flags: the
callers that need flags, such as the search's pricing pass and the
solver's share prices, unpack one mask at a time with :func:`mask_flags`.
:func:`flags_to_masks` is the one way back
from rows of flags to masks: the walk packs its covered sets with it, and
the Lagrangian each set of candidates its heuristic has tried.  The table
is written out as ``coverage.csv`` by ``pipeline.write_coverage_csv``.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .catalog import SensorCatalog, SensorSpec
from .errors import DegenerateDetection, InfeasibleCoverage, TooLarge, ValidationError
from .mesh import AreaMesh, CandidateSite, Terrain

#: Rounding modes for the unit-count formula.  The formula yields a real
#: number; ``ceil`` is the only mode that guarantees the detection requirement.
ROUNDING_MODES = ("ceil", "nearest", "floor")

# Tolerance for boundary blocks: a corner exactly on the range circle counts
# as covered, and float noise of well under a millimeter must not flip it.
_EDGE_EPS_KM = 1e-12

# Ratios this close to an integer are snapped before rounding so that
# analytically integer cases (e.g. log(0.04)/log(0.2) = 2) stay exact.
_SNAP_REL = 1e-9

# The work and memory of a coverage table grow with sensor types x candidate
# sites x in-area blocks.  This cap on that product clears the ROADMAP target
# of 10^4 blocks x 6 types (6x10^8), the 100x100-block acceptance scenario c12
# (3x10^8) and perfbench's city-10k (2.6x10^8), and stops inputs a few times
# larger before they exhaust time or memory.  It is a guard, not a setting.
MAX_COVERAGE_WORK = 10**9


def terrain_detection(spec: SensorSpec) -> dict:
    """Detection probability of ``spec`` on each terrain code, as a float (0
    outside the area)."""
    return {t.value: 0.0 if t == Terrain.OUTSIDE_AREA else float(spec.detect[t]) for t in Terrain}


def block_detection(mesh: AreaMesh, catalog: SensorCatalog) -> dict:
    """Detection probability per block for each sensor type (0 outside the area)."""
    table = {}
    for spec in catalog:
        omega = np.zeros(mesh.n_blocks, dtype=np.float64)
        for code, p in terrain_detection(spec).items():
            omega[mesh.terrain == code] = p
        table[spec.name] = omega
    return table


def _footprint(range_km: float, block_side: float, limit: int) -> np.ndarray:
    """Boolean (2n+1)x(2n+1) grid, n = min(ceil(range_km / block_side), limit), of the
    block offsets (dj, dk) whose farthest corner from a block centre, at
    ((|dk|+1/2)L, (|dj|+1/2)L), lies within ``range_km + _EDGE_EPS_KM``.

    ``limit`` is the grid's larger side: no farther offset lands on the grid,
    and unclipped, ADS-B on 0.3 km blocks would need a 2147x2147 grid.  The
    stencil agrees with :func:`covered_blocks`, which measures from absolute
    coordinates, only because ``_EDGE_EPS_KM`` exceeds the rounding error of
    a site-minus-corner coordinate (about 1e-14 km at city scale).
    """
    n = min(math.ceil(range_km / block_side), limit)
    far = (np.abs(np.arange(-n, n + 1)) + 0.5) * block_side
    return far[None, :] ** 2 + far[:, None] ** 2 <= (range_km + _EDGE_EPS_KM) ** 2


def covered_blocks(mesh: AreaMesh, sensor: SensorSpec, site: CandidateSite) -> tuple:
    """Indices of in-area blocks fully inside the sensor's range from ``site``.

    The literal definition over the whole grid: every block corner's distance
    from the site, at ``mesh.block_center(site.block)``, then the blocks whose
    four corners are all in range.  It is the reference the
    stencil-built masks of :func:`build_coverage` are checked against, and
    shares no geometry code with it.
    """
    L = mesh.block_side
    x = mesh.x0 + np.arange(mesh.blocks_x + 1, dtype=np.float64) * L
    y = mesh.y0 + np.arange(mesh.blocks_y + 1, dtype=np.float64) * L
    centre = mesh.block_center(site.block)
    near = (x[None, :] - centre.x) ** 2 + (y[:, None] - centre.y) ** 2 <= (sensor.range_km + _EDGE_EPS_KM) ** 2
    corners_in = near[:-1, :-1] & near[:-1, 1:] & near[1:, :-1] & near[1:, 1:]
    return tuple(int(z) for z in np.flatnonzero(corners_in.reshape(-1) & mesh.in_area))


def redundancy(mean_detect: float, required: float, fov: int = 1, rounding: str = "ceil") -> int:
    """Units of one sensor type needed at a site to meet the detection requirement.

    The real-valued unit count log(1-required)/log(1-mean_detect) is rounded
    per ``rounding`` (near-integer ratios are snapped first), clamped to at
    least 1, then multiplied by the 360-degree field-of-view multiplier.  It
    is the unit rule :func:`build_coverage` applies to a whole type at once,
    here on a single value.
    """
    return _unit_counts(np.array([mean_detect], dtype=np.float64), _log_miss(required, rounding), fov, rounding)[0]


def _log_miss(required: float, rounding: str) -> float:
    """``log1p(-required)``, once ``required`` is checked to lie in (0, 1)
    and ``rounding`` to be one of ``ROUNDING_MODES``."""
    if not 0.0 < required < 1.0:
        raise ValidationError(f"required detection probability must be in (0, 1), got {required}")
    if rounding not in ROUNDING_MODES:
        raise ValidationError(f"unknown rounding mode {rounding!r}; expected one of {ROUNDING_MODES}")
    return math.log1p(-required)


def _unit_counts(mean_detect: np.ndarray, log_miss: float, fov: int, rounding: str) -> list:
    """:func:`redundancy` of each of ``mean_detect``, as Python ints, at a
    requirement whose ``log1p(-required)`` is ``log_miss``, the requirement
    and ``rounding`` already checked.  The first value whose count cannot be
    computed raises: :class:`DegenerateDetection` for a value of 1 or more
    or a count past the float range, :class:`ValidationError` for any other
    value outside (0, 1).

    Each step is one IEEE operation per value, so the counts are those of
    the formula taken one value at a time.  The denominators come from
    ``math.log1p``: numpy's ``log1p`` differs from it in the last bit on
    some inputs, which can move a ratio across a rounding boundary."""
    valid = (mean_detect > 0.0) & (mean_detect < 1.0)
    # Values outside (0, 1) are priced at 0.5 and raise below.
    den = np.fromiter(map(math.log1p, -np.where(valid, mean_detect, 0.5)), dtype=np.float64, count=len(mean_detect))
    with np.errstate(over="ignore", invalid="ignore"):
        raw = log_miss / den
        finite = np.isfinite(raw * float(fov))
        nearest = np.rint(raw)
        snapped = np.abs(raw - nearest) <= _SNAP_REL * np.maximum(1.0, np.abs(raw))
        if rounding == "ceil":
            rounded = np.ceil(raw)
        elif rounding == "floor":
            rounded = np.floor(raw)
        else:
            rounded = np.floor(raw + 0.5)
        n = np.maximum(np.where(snapped, nearest, rounded), 1.0)
        # A count past 2**1023 is checked exactly below: rounding up can carry
        # a finite raw * fov past the float range.
        flagged = np.flatnonzero(~valid | ~finite | (n * float(fov) > 2.0**1023))
    for i in flagged.tolist():
        zeta = mean_detect[i].item()
        if zeta >= 1.0:
            raise DegenerateDetection(f"mean detection probability {zeta} leaves zero misdetection")
        if not 0.0 < zeta < 1.0:
            raise ValidationError(f"mean detection probability must be in (0, 1), got {zeta}")
        if not finite[i] or int(n[i]) * fov > sys.float_info.max:
            raise DegenerateDetection(f"mean detection probability {zeta} needs more units than a float can count")
    return [int(k) * fov for k in n]


def masks_to_bytes(masks: list, n: int) -> np.ndarray:
    """The masks over ``n`` positions as rows of their little-endian bytes."""
    n_bytes = (n + 7) // 8
    raw = b"".join([m.to_bytes(n_bytes, "little") for m in masks])
    return np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), n_bytes)


def flags_to_masks(flags: np.ndarray) -> list:
    """Rows of 0/1 flags as masks, bit i of mask r set where ``flags[r, i]``
    is: the inverse of unpacking the rows of :func:`masks_to_bytes` to
    bits, little end first."""
    packed = np.packbits(flags, axis=1, bitorder="little")
    width = packed.shape[1]
    raw = packed.tobytes()
    return [int.from_bytes(raw[i * width : (i + 1) * width], "little") for i in range(len(packed))]


def mask_flags(mask: int, n: int) -> np.ndarray:
    """One mask over ``n`` positions as 0/1 bytes, bit i of ``mask`` at
    index i: its little-endian bytes unpacked to bits, without the list,
    the join and the row of :func:`masks_to_bytes`."""
    return np.unpackbits(np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8), count=n, bitorder="little")


def masks_to_nonzero_bytes(masks: list, n: int) -> tuple:
    """``(mask, byte, value)`` of each nonzero byte of the masks over ``n``
    positions, mask by mask and ascending: the mask's index, the byte's
    index in it and its value.  Zero bytes are skipped, so the arrays
    follow the covered sets, not the number of masks times ``n``."""
    data = masks_to_bytes(masks, n)
    at = np.flatnonzero(data)
    width = data.shape[1]
    # A floor division and a multiply-subtract give np.divmod's two arrays
    # in less time.
    mask = at // width
    return mask, at - mask * width, data.reshape(-1)[at]


# The set bits of each byte value v, ascending, are
# _BYTE_BITS[_BYTE_FIRST[v] : _BYTE_FIRST[v] + _BYTE_COUNT[v]].
_BYTE_VALUES, _BYTE_BITS = np.nonzero(np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"))
_BYTE_COUNT = np.bincount(_BYTE_VALUES, minlength=256)
_BYTE_FIRST = np.cumsum(_BYTE_COUNT) - _BYTE_COUNT


def masks_to_positions(masks: list, n: int) -> tuple:
    """The set bits of the masks over ``n`` positions: ``(positions,
    offsets)``, where ``positions`` holds them mask by mask and ascending,
    and those of mask i are ``positions[offsets[i] : offsets[i + 1]]``.

    Each nonzero byte of :func:`masks_to_nonzero_bytes` is expanded to its
    set bits from a table of all 256 byte values."""
    mask, byte, value = masks_to_nonzero_bytes(masks, n)
    count = _BYTE_COUNT[value]
    # ends[j] set bits lie in the nonzero bytes before the j-th.
    ends = np.concatenate(([0], np.cumsum(count)))
    bits = _BYTE_BITS[np.arange(ends[-1]) + np.repeat(_BYTE_FIRST[value] - ends[:-1], count)]
    return bits + np.repeat(byte * 8, count), ends[np.searchsorted(mask, np.arange(len(masks) + 1))]


def masks_to_runs(masks: list, n: int) -> tuple:
    """The maximal runs of set bits of the masks over ``n`` positions:
    ``(runs, offsets)``, where ``runs`` holds one int32 ``[lo, hi)`` row per
    run, mask by mask and ascending, and the runs of mask i are rows
    ``offsets[i]`` to ``offsets[i + 1]``.

    A run starts and ends where a bit differs from the one below it, so the
    set bits of ``m ^ (m << 1)`` over ``n + 1`` positions are its bounds,
    alternately lo and hi (see :func:`masks_to_positions`)."""
    bounds, offsets = masks_to_positions([m ^ (m << 1) for m in masks], n + 1)
    return bounds.astype(np.int32).reshape(-1, 2), offsets // 2


def mask_positions(mask: int) -> list:
    """Indices of the set bits of ``mask``, ascending."""
    return np.flatnonzero(mask_flags(mask, mask.bit_length())).tolist()


@dataclass(frozen=True, slots=True)
class Candidate:
    """One selectable (sensor type, site) pairing, or an abstract covering set
    without sensor, site or ``mean_detect``."""

    cid: str
    covered: int = field(repr=False)
    cost: float
    sensor: Optional[str] = None
    site: Optional[int] = None
    units: int = 1
    mean_detect: Optional[float] = None

    @property
    def n_covered(self) -> int:
        return self.covered.bit_count()


@dataclass(frozen=True)
class CoverageTable:
    """All retained (sensor, site) candidates for one mesh and catalog, covering every in-area block."""

    mesh: AreaMesh = field(repr=False)
    entries: tuple = field(repr=False)


# The walk takes sites in chunks of at most _CHUNK_CELLS (site, stencil row)
# runs, and builds new covered sets in groups of at most _GROUP_ENTRIES
# covered blocks and _GROUP_CELLS flags: its arrays stay small beside the
# table it returns, whatever the number of sites.  A group's flags span its
# sites' bits alone, from the least first covered bit, rounded down to a
# byte, to the greatest last one, so _GROUP_CELLS bounds sites x span, not
# sites x in-area blocks.  Each chunk costs a fixed pass over its sites, so
# chunks are wide: at 2**13 runs a stencil of 100 grid rows takes 81 sites a
# chunk, and city-10k's walk makes 190 passes.  The run bounds are int32 to
# keep a chunk's arrays small: on a 30x30 map the walk allocates 0.46 MB
# beyond its result, and 0.62 MB with int64 bounds, against the 1 MiB bound
# of test_coverage.py.
_CHUNK_CELLS = 2**13
_GROUP_ENTRIES = 2**14
_GROUP_CELLS = 2**17


def _footprints(mesh: AreaMesh, catalog: SensorCatalog) -> tuple:
    """The stencil walk of :func:`build_coverage`: the row ``(cid, sensor,
    site, covered, mean_detect, None)`` that :func:`_priced` takes for every
    (sensor type, candidate site) pair that covers a block, in sensor-name
    then site order, and the in-area blocks no pair covers.  When sensor
    types x candidate sites x in-area blocks exceeds ``MAX_COVERAGE_WORK``,
    :class:`TooLarge` is raised before any footprint is computed.

    Every stencil row is one run of columns, so a site's covered set is one
    range of mask bits per grid row it reaches (see :func:`_site_runs`).  A
    site whose ranges equal the previous site's takes that site's covered set
    and mean detection probability; only the others are built, a group at a
    time (see :func:`_covered_sets`).  Consecutive sites with equal runs
    thus share one int, and a type that reaches every block from every site
    builds one set."""
    in_area = mesh.in_area
    n_in_area = int(np.count_nonzero(in_area))
    work = len(catalog) * len(mesh.candidate_sites) * n_in_area
    if work > MAX_COVERAGE_WORK:
        raise TooLarge(
            f"coverage of {len(catalog)} sensor type(s) x {len(mesh.candidate_sites)} candidate site(s) x "
            f"{n_in_area} in-area block(s) = {work:.3g} exceeds the limit of {MAX_COVERAGE_WORK:.0e}"
        )
    bx, by = mesh.blocks_x, mesh.blocks_y
    # Blocks are numbered row-major, so the in-area blocks of grid row r,
    # columns a..b, are the mask bits start[r*bx + a] up to start[r*bx + b + 1].
    # The guard above keeps every bit index of a walk inside int32, and
    # int32 run bounds keep a chunk's arrays small (see _CHUNK_CELLS).
    start = np.zeros(len(in_area) + 1, dtype=np.int32)
    np.cumsum(in_area, out=start[1:])
    site_blocks = [site.block for site in mesh.candidate_sites]
    blocks = np.array(site_blocks, dtype=np.int64)
    omegas = block_detection(mesh, catalog)
    pairs = []
    union = 0
    for spec in sorted(catalog, key=lambda s: s.name):
        omega = omegas[spec.name][in_area]
        stencil = _footprint(spec.range_km, mesh.block_side, max(bx, by))
        n = stencil.shape[0] // 2
        # Stencil row n + d is the run of offsets |dk| <= half[n + d]; -1 when empty.
        half = stencil[:, n:].sum(axis=1) - 1
        rows = min(2 * n + 1, by)
        step = max(1, _CHUNK_CELLS // rows)
        # A row of runs no site has: the first site of a type is always built.
        last_runs, last = np.full(2 * rows, -1, dtype=np.int32), None
        # The cid prefix; str.zfill pads a site as ``:06d`` does, in half the time.
        prefix = spec.name + "@"
        for c in range(0, len(blocks), step):
            lo, hi = _site_runs(blocks[c : c + step], half, start, bx, by, rows)
            runs = np.concatenate((lo, hi), axis=1)
            same = (runs == np.concatenate((last_runs[None], runs[:-1]))).all(axis=1)
            last_runs = runs[-1]
            size = (hi - lo).sum(axis=1)
            fresh = ~same & (size > 0)
            built = iter(_covered_sets(lo[fresh], hi[fresh], size[fresh], omega, n_in_area))
            for block, reuse, covers in zip(site_blocks[c : c + step], same.tolist(), size.tolist()):
                if not reuse:
                    last = None
                    if covers:
                        last = next(built)
                        union |= last[0]
                if last is not None:
                    pairs.append((prefix + str(block).zfill(6), spec.name, block, *last, None))
    unreached = mask_flags(union, n_in_area) == 0
    return pairs, tuple(np.flatnonzero(in_area)[unreached].tolist())


def _site_runs(blocks: np.ndarray, half: np.ndarray, start: np.ndarray, bx: int, by: int, rows: int) -> tuple:
    """Mask bit ranges ``[lo, hi)`` of the stencil with row half-widths
    ``half`` laid at each of ``blocks``: one row per site and one column per
    grid row from the first the stencil reaches, ``rows`` in all.  A column
    past the stencil or the grid, or whose run is empty, reads ``lo = hi = 0``,
    so sites with equal covered sets in each grid row have equal rows."""
    n = len(half) // 2
    j, k = np.divmod(blocks, bx)
    j, k = j[:, None], k[:, None]
    r = np.maximum(j - n, 0) + np.arange(rows)
    h = np.where(r <= np.minimum(j + n, by - 1), half[np.minimum(r - j + n, 2 * n)], -1)
    # Rows past the grid are read at its last row; like every run with
    # h = -1 or with no in-area block, they come out with hi <= lo.
    base = np.minimum(r, by - 1) * bx
    lo = start[base + np.maximum(k - h, 0)]
    hi = start[base + np.minimum(k + h, bx - 1) + 1]
    empty = hi <= lo
    lo[empty] = 0
    hi[empty] = 0
    return lo, hi


def _covered_sets(lo: np.ndarray, hi: np.ndarray, size: np.ndarray, omega: np.ndarray, n_in_area: int) -> list:
    """``(mask, mean_detect)`` of each site's covered set, given as its row of
    runs ``lo`` to ``hi`` (see :func:`_site_runs`) holding ``size`` blocks;
    the mean is over ``omega`` at the covered positions.

    A group of sites is packed over its span alone: from the least first
    covered bit among its sites, rounded down to a byte, to the greatest
    last one.  Each packed int is then shifted into place."""
    out = []
    sizes = size.tolist()
    ends = np.cumsum(size)
    # Each site's first covered bit, rounded down to a byte, and the bit past
    # its last; an empty run reads lo = hi = 0, so it bounds neither.
    starts = np.where(hi > lo, lo, n_in_area).min(axis=1) & ~7
    stops = hi.max(axis=1)
    counts = np.arange(1, len(sizes) + 1)
    first = done = 0
    while first < len(sizes):
        # One site at least, then as many as the group limits take.  Both the
        # entries and sites x span grow with every site added, so the sites
        # that fit are a prefix.
        low = np.minimum.accumulate(starts[first:])
        span = np.maximum.accumulate(stops[first:]) - low
        fit = min(
            np.searchsorted(ends, done + _GROUP_ENTRIES, "right"),
            first + np.searchsorted(counts[: len(span)] * span, _GROUP_CELLS, "right"),
        )
        last = max(first + 1, int(fit))
        base, width = int(low[last - first - 1]), int(span[last - first - 1])
        group_lo, group_hi = lo[first:last].ravel(), hi[first:last].ravel()
        length = group_hi - group_lo
        entries = int(ends[last - 1]) - done
        # Every covered position: its run's first bit plus its offset in the
        # run.  Sums go in place and each array of the group's entries is
        # dropped once used, before the next group makes its own: the walk
        # then holds few such arrays at a time, which keeps the process's
        # peak memory at the whole-universe packing's.
        positions = np.repeat(group_lo - (np.cumsum(length) - length), length)
        positions += np.arange(entries)
        flags = np.zeros((last - first) * width, dtype=bool)
        at = np.repeat(np.arange(-base, len(flags) - base, width), size[first:last])
        at += positions
        flags[at] = True
        del at
        # Each set's values are one contiguous slice, summed pairwise as
        # ``omega[covered].mean()`` sums them; ``np.add.reduceat`` sums in
        # order and can differ in the last bit.
        values = omega[positions]
        del positions
        a = 0
        for mask, b in zip(flags_to_masks(flags.reshape(-1, width)), itertools.accumulate(sizes[first:last])):
            out.append((mask << base, float(np.add.reduce(values[a:b])) / (b - a)))
            a = b
        del flags, values
        first, done = last, done + entries
    return out


def _priced(rows: Iterable[tuple], catalog: SensorCatalog, log_miss: float, rounding: str) -> list:
    """A :class:`Candidate` for each of ``rows``, ``(cid, sensor, site,
    covered, mean_detect, old)`` in sensor-name order, at a requirement whose
    ``log1p(-required)`` is ``log_miss``, priced a sensor type at a time with
    the spec of ``catalog`` that ``sensor`` names.  ``old`` is a priced entry
    or None; where its unit count and cost come out unchanged it is returned
    itself, and every other row is built anew."""
    entries = []
    for name, group in itertools.groupby(rows, key=operator.itemgetter(1)):
        group = list(group)
        spec = catalog.get(name)
        units = _unit_counts(
            np.fromiter(map(operator.itemgetter(4), group), dtype=np.float64, count=len(group)),
            log_miss,
            spec.fov_multiplier,
            rounding,
        )
        for (cid, _, site, covered, zeta, old), n in zip(group, units):
            cost = n * spec.unit_price_usd
            if old is not None and old.units == n and old.cost == cost:
                entries.append(old)
            else:
                # Positional, in field order: keywords cost about a third more a build.
                entries.append(Candidate(cid, covered, cost, name, site, n, zeta))
    return entries


def build_coverage(
    mesh: AreaMesh,
    catalog: SensorCatalog,
    required_detection: float,
    rounding: str = "ceil",
    like: Optional[CoverageTable] = None,
) -> CoverageTable:
    """Feasible table over ``mesh``, one :class:`Candidate` (cid
    ``"<sensor>@<site:06d>"``) per (sensor type, candidate site) pair that
    covers a block, in sensor-name then site order; or, checked in this order
    once every pair is priced, :class:`DegenerateDetection` for a unit count
    that cannot be computed, :class:`ValidationError` for install costs that
    sum past the float range, :class:`InfeasibleCoverage` for blocks no pair covers.

    Unit counts are priced one sensor type at a time, as an array (see
    :func:`_unit_counts`); the first pair in table order whose count cannot
    be computed raises.

    ``like``, when given, is a table over ``mesh`` and an equal catalog at any
    requirement and rounding.  Its entries' cids, sites, covered sets and mean
    detection probabilities are priced again, each with the spec of
    ``catalog`` that its sensor names, in place of walking the stencils.  An
    entry whose unit count and cost come out unchanged is kept: the new table
    holds that very object, and builds a new :class:`Candidate` only for the
    others.  Otherwise the walk runs here, with its :class:`TooLarge` guard.
    """
    log_miss = _log_miss(required_detection, rounding)
    uncovered = ()
    if like is None:
        rows, uncovered = _footprints(mesh, catalog)
    else:
        rows = ((e.cid, e.sensor, e.site, e.covered, e.mean_detect, e) for e in like.entries)
    # Each type's lists die with the pricing helper's frame, so none of them
    # is alive beside the table's tuple at the peak of this call.
    entries = _priced(rows, catalog, log_miss, rounding)
    # A finite sum bounds every plan's cost, so no plan total can overflow.
    if not math.isfinite(sum(e.cost for e in entries)):
        raise ValidationError("install costs of the coverage table sum past the float range")
    if uncovered:
        raise InfeasibleCoverage(uncovered)
    return CoverageTable(mesh=mesh, entries=tuple(entries))
