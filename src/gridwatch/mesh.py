"""Rectangular surveillance mesh: a grid of square blocks, terrain, candidate sites.

The area is the axis-aligned bounding rectangle of four projected corner
coordinates, tiled from its south-west corner ``(x0, y0)`` with ``blocks_x``
by ``blocks_y`` square blocks of side ``block_side`` km.  Terrain arrives as a
row-major integer grid (row 0 = southernmost block row); a code of -1 marks
blocks outside the irregular area boundary.  Every in-area, non-water block is
one candidate sensor site, at its center: a site is its block, and
:meth:`AreaMesh.block_center` gives the center.  Only ``coverage.covered_blocks``
and ``pipeline.write_mesh_geojson``, which formats the mesh as ``mesh.geojson``,
walk the block corners (``pipeline.mesh_to_geojson``, the writer's test oracle,
builds the same document as a dict).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, InvariantViolation, ParseError, RangeTooSmall, ValidationError, read_input
from .geo import GeoPoint, PlanePoint, project


class Terrain(enum.IntEnum):
    """Per-block terrain classification; OUTSIDE_AREA means the block is not part of the area."""

    OUTSIDE_AREA = -1
    OPEN = 0
    WATER = 1
    NEIGHBORHOOD = 2
    HILL = 3
    COMMERCIAL = 4

    @property
    def label(self) -> str:
        return self.name.lower()


#: Terrain kinds that carry a detection probability (everything except OUTSIDE_AREA).
DETECTABLE_TERRAINS = (Terrain.OPEN, Terrain.WATER, Terrain.NEIGHBORHOOD, Terrain.HILL, Terrain.COMMERCIAL)


def _cells_to_span(length: float, cell: float) -> int:
    """Number of cells of size ``cell`` needed to tile ``length``, robust to float noise."""
    q = length / cell
    if not math.isfinite(q):
        raise ValidationError(f"a span of {length:.6g} km holds more blocks of side {cell:.6g} km than a float can count")
    nearest = round(q)
    if nearest >= 1 and abs(q - nearest) <= 1e-9 * max(1.0, abs(q)):
        return int(nearest)
    return max(1, math.ceil(q))


def load_terrain_grid(path) -> np.ndarray:
    """Read a terrain CSV (rows of integer codes, row 0 = southernmost) into an int array."""
    rows = []
    text = read_input(path, "terrain grid", as_json=False)
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            codes = [int(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        rows.append(codes)
    if not rows:
        raise ParseError(f"{path}: empty terrain grid")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError(f"{path}: ragged terrain grid (expected {width} columns on every row)")
    grid = np.array(rows, dtype=np.int64)
    _check_codes(grid, f"{path}: ")
    return grid


def _check_codes(grid: np.ndarray, where: str = "") -> None:
    valid = {t.value for t in Terrain}
    bad = sorted(set(np.unique(grid).tolist()) - valid)
    if bad:
        raise ParseError(f"{where}unknown terrain code(s) {bad}; expected codes in {sorted(valid)}")


@dataclass(frozen=True)
class CandidateSite:
    """A potential sensor location: the center of an in-area, non-water block,
    at ``mesh.block_center(block)``."""

    block: int


@dataclass(frozen=True)
class AreaMesh:
    """Immutable projected grid of ``blocks_x`` by ``blocks_y`` square blocks
    over the surveillance area, numbered row-major from the south-west."""

    origin: GeoPoint
    block_side: float
    blocks_x: int
    blocks_y: int
    x0: float
    y0: float
    terrain: np.ndarray = field(repr=False)  # flat int8, len n_blocks, row-major from the south
    candidate_sites: tuple = field(repr=False)

    @property
    def n_blocks(self) -> int:
        return self.blocks_x * self.blocks_y

    def block_center(self, z: int) -> PlanePoint:
        j, k = divmod(z, self.blocks_x)
        L = self.block_side
        return PlanePoint(self.x0 + (k + 0.5) * L, self.y0 + (j + 0.5) * L)

    @property
    def in_area(self) -> np.ndarray:
        return self.terrain != Terrain.OUTSIDE_AREA

    @property
    def in_area_blocks(self) -> tuple:
        return tuple(int(z) for z in np.nonzero(self.in_area)[0])


def build_mesh(
    corners: Sequence[GeoPoint],
    block_side: float,
    terrain_grid,
    min_sensor_range: float,
) -> AreaMesh:
    """Build the projected mesh for four geographic corners.

    ``terrain_grid`` is an integer array of shape (blocks_y, blocks_x).
    ``min_sensor_range`` must be at least block_side/sqrt(2) so a sensor at a
    block center can reach the block's own corners; smaller ranges would leave
    guaranteed blind spots.
    """
    corners = tuple(corners)
    if len(corners) != 4:
        raise ValidationError(f"expected 4 corner coordinates, got {len(corners)}")
    if block_side <= 0 or not math.isfinite(block_side):
        raise ValidationError(f"block side must be positive, got {block_side}")
    if min_sensor_range < block_side / math.sqrt(2):
        raise RangeTooSmall(
            f"minimum sensor range {min_sensor_range:.6g} km is below "
            f"block_side/sqrt(2) = {block_side / math.sqrt(2):.6g} km"
        )

    lons = [c.lon for c in corners]
    lats = [c.lat for c in corners]
    origin = GeoPoint((min(lons) + max(lons)) / 2.0, (min(lats) + max(lats)) / 2.0)
    projected = [project(c, origin) for c in corners]
    xs = [p.x for p in projected]
    ys = [p.y for p in projected]
    x0, y0 = min(xs), min(ys)
    length_a = max(xs) - x0
    length_b = max(ys) - y0
    if length_a <= 0 or length_b <= 0:
        raise InvariantViolation("corner coordinates span a degenerate (zero-area) rectangle")

    blocks_x = _cells_to_span(length_a, block_side)
    blocks_y = _cells_to_span(length_b, block_side)

    grid = np.asarray(terrain_grid, dtype=np.int64)
    _check_codes(grid)
    if grid.shape != (blocks_y, blocks_x):
        raise DimensionMismatch(
            f"terrain grid is {grid.shape[0]}x{grid.shape[1]} but the mesh has "
            f"{blocks_y}x{blocks_x} blocks ({blocks_x + 1}x{blocks_y + 1} points)"
        )

    terrain = grid.reshape(-1).astype(np.int8)
    placeable = (terrain != Terrain.OUTSIDE_AREA) & (terrain != Terrain.WATER)
    return AreaMesh(
        origin=origin,
        block_side=block_side,
        blocks_x=blocks_x,
        blocks_y=blocks_y,
        x0=x0,
        y0=y0,
        terrain=terrain,
        candidate_sites=tuple(CandidateSite(z) for z in np.flatnonzero(placeable).tolist()),
    )
