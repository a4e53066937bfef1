"""Planar projection of geographic coordinates.

A local equirectangular projection centered on the surveillance area keeps
blocks square and mesh lines parallel at city scale, and is bit-reproducible
(no geodesy library involved).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

# IUGG mean earth radius, km. Fixed for determinism.
EARTH_RADIUS_KM = 6371.0088

_DEG = math.pi / 180.0


@dataclass(frozen=True)
class GeoPoint:
    """Longitude/latitude in degrees (WGS84 axis order lon, lat)."""

    lon: float
    lat: float

    def __post_init__(self):
        if not (math.isfinite(self.lon) and math.isfinite(self.lat)):
            raise ValidationError(f"non-finite geographic coordinate: {self!r}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValidationError(f"longitude {self.lon} outside [-180, 180]")
        if not -90.0 <= self.lat <= 90.0:
            raise ValidationError(f"latitude {self.lat} outside [-90, 90]")


@dataclass(frozen=True)
class PlanePoint:
    """Kilometers east (x) and north (y) of the projection origin."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValidationError(f"non-finite plane coordinate: {self!r}")


def project(p: GeoPoint, origin: GeoPoint) -> PlanePoint:
    """Project a geographic point onto the local plane centered at ``origin``."""
    x = EARTH_RADIUS_KM * (p.lon - origin.lon) * math.cos(origin.lat * _DEG) * _DEG
    y = EARTH_RADIUS_KM * (p.lat - origin.lat) * _DEG
    return PlanePoint(x, y)


def unproject(p: PlanePoint, origin: GeoPoint) -> GeoPoint:
    """Inverse of :func:`project` for the same origin."""
    lat = origin.lat + p.y / (EARTH_RADIUS_KM * _DEG)
    lon = origin.lon + p.x / (EARTH_RADIUS_KM * math.cos(origin.lat * _DEG) * _DEG)
    return GeoPoint(lon, lat)
