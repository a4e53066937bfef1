import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridwatch.errors import ValidationError
from gridwatch.geo import EARTH_RADIUS_KM, GeoPoint, PlanePoint, project, unproject


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Independent great-circle oracle on the same sphere radius."""
    phi1, phi2 = math.radians(a.lat), math.radians(b.lat)
    dphi = phi2 - phi1
    dlmb = math.radians(b.lon - a.lon)
    h = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlmb / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))


def test_identity_at_origin():
    origin = GeoPoint(-84.19, 39.76)
    p = project(origin, origin)
    assert p.x == 0.0 and p.y == 0.0


def test_latitude_step_matches_haversine_oracle():
    origin = GeoPoint(-84.0, 39.0)
    moved = GeoPoint(-84.0, 39.01)
    p = project(moved, origin)
    assert p.x == 0.0
    expected = EARTH_RADIUS_KM * 0.01 * math.pi / 180.0
    assert p.y == pytest.approx(expected, rel=1e-12)
    assert p.y == pytest.approx(1.1120, abs=5e-4)
    assert abs(p.y - haversine_km(origin, moved)) / p.y < 1e-3


def test_longitude_step_scales_with_origin_latitude():
    origin = GeoPoint(10.0, 60.0)
    p = project(GeoPoint(10.01, 60.0), origin)
    assert p.y == 0.0
    assert p.x == pytest.approx(0.5560, abs=5e-4)
    # cos(60 deg) halves the equatorial arc length of the same lon step
    equator = project(GeoPoint(0.01, 0.0), GeoPoint(0.0, 0.0))
    assert p.x == pytest.approx(equator.x * math.cos(math.radians(60.0)), rel=1e-12)
    assert abs(p.x - haversine_km(origin, GeoPoint(10.01, 60.0))) / p.x < 1e-3


@given(
    lon0=st.floats(-170, 170),
    lat0=st.floats(-80, 80),
    dx=st.floats(-25.0, 25.0),
    dy=st.floats(-25.0, 25.0),
)
def test_round_trip_within_city_scale(lon0, lat0, dx, dy):
    origin = GeoPoint(lon0, lat0)
    plane = PlanePoint(dx, dy)
    back = project(unproject(plane, origin), origin)
    assert abs(back.x - plane.x) < 1e-9
    assert abs(back.y - plane.y) < 1e-9


@pytest.mark.parametrize("lon,lat", [(181.0, 0.0), (-181.0, 0.0), (0.0, 91.0), (0.0, -90.5), (float("nan"), 0.0)])
def test_geopoint_rejects_out_of_range(lon, lat):
    with pytest.raises(ValidationError):
        GeoPoint(lon, lat)


def test_plane_point_must_be_finite():
    with pytest.raises(ValidationError):
        PlanePoint(float("inf"), 0.0)
