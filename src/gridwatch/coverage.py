"""Per-(sensor type, candidate site) coverage precomputation.

For every pair this module derives the set of blocks whose four corners all
lie within the sensor's range, the mean detection probability over that set,
the complementary misdetection probability, and the number of sensor units
needed at the site to push the at-least-one-detection probability up to the
required level.

This module owns the covered-set format and the candidate record used from
here to the solver.  A covered set is a Python-int bitmask over in-area
positions, where bit i is the i-th block of ``mesh.in_area_blocks``.  That
tuple is also the placement instance's universe, and the instance's
candidates are the table's own :class:`Candidate` entries, so set algebra
stays integer AND/OR/popcount work.  The three conversions between masks,
boolean arrays and positions are defined here and nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

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


def block_detection(mesh: AreaMesh, catalog: SensorCatalog) -> dict:
    """Detection probability per block for each sensor type (0 outside the area)."""
    table = {}
    for spec in catalog:
        omega = np.zeros(mesh.n_blocks, dtype=np.float64)
        for terrain, p in spec.detect.items():
            omega[mesh.terrain == int(terrain)] = p
        omega[mesh.terrain == int(Terrain.OUTSIDE_AREA)] = 0.0
        table[spec.name] = omega
    return table


class _BlockGeometry:
    """Precomputed per-block corner bounds along each axis."""

    def __init__(self, mesh: AreaMesh):
        L = mesh.block_side
        self.x_lo = mesh.x0 + np.arange(mesh.blocks_x, dtype=np.float64) * L
        self.x_hi = self.x_lo + L
        self.y_lo = mesh.y0 + np.arange(mesh.blocks_y, dtype=np.float64) * L
        self.y_hi = self.y_lo + L
        self.in_area = mesh.in_area.reshape(mesh.blocks_y, mesh.blocks_x)
        self.mesh = mesh

    def covered(self, site_x: float, site_y: float, range_km: float) -> np.ndarray:
        """Boolean grid of in-area blocks whose farthest corner is within range."""
        mesh = self.mesh
        L = mesh.block_side
        j_lo = max(0, int(math.floor((site_y - range_km - mesh.y0) / L)) - 1)
        j_hi = min(mesh.blocks_y, int(math.ceil((site_y + range_km - mesh.y0) / L)) + 1)
        k_lo = max(0, int(math.floor((site_x - range_km - mesh.x0) / L)) - 1)
        k_hi = min(mesh.blocks_x, int(math.ceil((site_x + range_km - mesh.x0) / L)) + 1)
        out = np.zeros((mesh.blocks_y, mesh.blocks_x), dtype=bool)
        if j_lo >= j_hi or k_lo >= k_hi:
            return out
        # Farthest corner of each block from the site, per axis.
        dx = np.maximum(np.abs(site_x - self.x_lo[k_lo:k_hi]), np.abs(site_x - self.x_hi[k_lo:k_hi]))
        dy = np.maximum(np.abs(site_y - self.y_lo[j_lo:j_hi]), np.abs(site_y - self.y_hi[j_lo:j_hi]))
        limit = (range_km + _EDGE_EPS_KM) ** 2
        window = dx[None, :] ** 2 + dy[:, None] ** 2 <= limit
        out[j_lo:j_hi, k_lo:k_hi] = window & self.in_area[j_lo:j_hi, k_lo:k_hi]
        return out


def covered_blocks(mesh: AreaMesh, sensor: SensorSpec, site: CandidateSite) -> tuple:
    """Indices of in-area blocks fully inside the sensor's range from ``site``."""
    grid = _BlockGeometry(mesh).covered(site.x, site.y, sensor.range_km)
    return tuple(int(z) for z in np.nonzero(grid.reshape(-1))[0])


def redundancy(mean_detect: float, required: float, fov: int = 1, rounding: str = "ceil") -> int:
    """Units of one sensor type needed at a site to meet the detection requirement.

    The real-valued unit count log(1-required)/log(1-mean_detect) is rounded
    per ``rounding`` (near-integer ratios are snapped first), clamped to at
    least 1, then multiplied by the 360-degree field-of-view multiplier.
    """
    if mean_detect >= 1.0:
        raise DegenerateDetection(f"mean detection probability {mean_detect} leaves zero misdetection")
    if not 0.0 < mean_detect < 1.0:
        raise ValidationError(f"mean detection probability must be in (0, 1), got {mean_detect}")
    if not 0.0 < required < 1.0:
        raise ValidationError(f"required detection probability must be in (0, 1), got {required}")
    if rounding not in ROUNDING_MODES:
        raise ValidationError(f"unknown rounding mode {rounding!r}; expected one of {ROUNDING_MODES}")
    raw = math.log1p(-required) / math.log1p(-mean_detect)
    nearest_int = round(raw)
    if abs(raw - nearest_int) <= _SNAP_REL * max(1.0, abs(raw)):
        n = int(nearest_int)
    elif rounding == "ceil":
        n = math.ceil(raw)
    elif rounding == "floor":
        n = math.floor(raw)
    else:
        n = math.floor(raw + 0.5)
    return max(1, n) * fov


def bools_to_mask(flags: np.ndarray) -> int:
    """Bitmask with bit i set where ``flags[i]`` is true."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def mask_to_bools(mask: int, n: int) -> np.ndarray:
    """Boolean array of length ``n`` with ``True`` at the set bits of ``mask``."""
    raw = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").astype(bool)


def mask_positions(mask: int) -> list:
    """Indices of the set bits of ``mask``, ascending."""
    return np.flatnonzero(mask_to_bools(mask, mask.bit_length())).tolist()


@dataclass(frozen=True)
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

    @property
    def misdetect(self) -> float:
        return 1.0 - self.mean_detect


@dataclass(frozen=True)
class CoverageTable:
    """All retained (sensor, site) candidates for one mesh and catalog."""

    mesh: AreaMesh = field(repr=False)
    catalog: SensorCatalog = field(repr=False)
    entries: tuple = field(repr=False)
    uncovered: tuple

    @property
    def feasible(self) -> bool:
        return not self.uncovered

    def blocks_of(self, entry: Candidate) -> tuple:
        """Block ids covered by ``entry``, ascending."""
        blocks = self.mesh.in_area_blocks
        return tuple(blocks[p] for p in mask_positions(entry.covered))

    def write_csv(self, fp) -> None:
        fp.write("sensor,site_index,n_blocks,zeta,tau,kappa,install_cost_usd\n")
        for e in self.entries:
            fp.write(
                f"{e.sensor},{e.site},{e.n_covered},{e.mean_detect!r},{e.misdetect!r},{e.units},{e.cost!r}\n"
            )


def build_coverage(
    mesh: AreaMesh,
    catalog: SensorCatalog,
    required_detection: float,
    rounding: str = "ceil",
    strict: bool = True,
) -> CoverageTable:
    """Compute one :class:`Candidate`, cid ``"<sensor>@<site:06d>"``, per
    (sensor type, candidate site) pair, in sensor-name then site order.

    Pairs covering no block are dropped.  If some in-area block is covered by
    no pair at all the table is infeasible: with ``strict`` (the default) an
    :class:`InfeasibleCoverage` error lists the uncovered block indices,
    otherwise the table is returned with its ``uncovered`` field populated.
    When sensor types x candidate sites x in-area blocks exceeds
    ``MAX_COVERAGE_WORK``, :class:`TooLarge` is raised before any footprint
    is computed.
    """
    if not 0.0 < required_detection < 1.0:
        raise ValidationError(f"required detection must be in (0, 1), got {required_detection}")
    if rounding not in ROUNDING_MODES:
        raise ValidationError(f"unknown rounding mode {rounding!r}; expected one of {ROUNDING_MODES}")

    in_area = mesh.in_area
    n_in_area = int(np.count_nonzero(in_area))
    work = len(catalog) * len(mesh.candidate_sites) * n_in_area
    if work > MAX_COVERAGE_WORK:
        raise TooLarge(
            f"coverage of {len(catalog)} sensor type(s) x {len(mesh.candidate_sites)} candidate site(s) x "
            f"{n_in_area} in-area block(s) = {work:.3g} exceeds the limit of {MAX_COVERAGE_WORK:.0e}"
        )
    geometry = _BlockGeometry(mesh)
    omegas = block_detection(mesh, catalog)
    entries = []
    # Everything below is indexed by in-area position, the masks' bit order.
    union = np.zeros(n_in_area, dtype=bool)
    for spec in sorted(catalog, key=lambda s: s.name):
        omega = omegas[spec.name][in_area]
        for site in mesh.candidate_sites:
            flags = geometry.covered(site.x, site.y, spec.range_km).reshape(-1)[in_area]
            if not flags.any():
                continue
            union |= flags
            zeta = float(omega[flags].mean())
            units = redundancy(zeta, required_detection, spec.fov_multiplier, rounding)
            entries.append(
                Candidate(
                    cid=f"{spec.name}@{site.block:06d}",
                    covered=bools_to_mask(flags),
                    cost=units * spec.unit_price_usd,
                    sensor=spec.name,
                    site=site.block,
                    units=units,
                    mean_detect=zeta,
                )
            )

    uncovered = tuple(np.flatnonzero(in_area)[~union].tolist())
    if uncovered and strict:
        raise InfeasibleCoverage(uncovered)
    return CoverageTable(
        mesh=mesh,
        catalog=catalog,
        entries=tuple(entries),
        uncovered=uncovered,
    )
