import math

import pytest
from helpers import make_spec, uniform_detect
from hypothesis import given
from hypothesis import strategies as st

from gridwatch.catalog import DETECT_KEYS, SensorCatalog, default_catalog, load_catalog, scale_detection
from gridwatch.errors import InvariantViolation, ParseError
from gridwatch.mesh import Terrain

# (name, range_km, unit_price_usd, fov, tracks_noncooperative)
PUBLISHED_SPECS = [
    ("Radar", 2.41, 35000, 3, True),
    ("ADS-B", 321.87, 2250, 1, False),
    ("RemoteID", 5.02, 1100, 1, False),
    ("RF", 4.99, 35000, 1, True),
    ("Acoustic", 0.5, 9000, 1, True),
    ("OpticalCamera", 0.4, 3500, 6, True),
]

# detection rows over (open, water, neighborhood, hill, commercial)
PUBLISHED_DETECTION = {
    "Radar": (0.95, 0.90, 0.85, 0.75, 0.75),
    "ADS-B": (0.99, 0.99, 0.90, 0.85, 0.80),
    "RemoteID": (0.95, 0.95, 0.85, 0.80, 0.75),
    "RF": (0.95, 0.95, 0.85, 0.80, 0.75),
    "Acoustic": (0.75, 0.65, 0.40, 0.25, 0.20),
    "OpticalCamera": (0.90, 0.90, 0.80, 0.75, 0.70),
}


@pytest.mark.parametrize("name,range_km,price,fov,noncoop", PUBLISHED_SPECS)
def test_bundled_catalog_fields(name, range_km, price, fov, noncoop):
    spec = default_catalog().get(name)
    assert spec.range_km == range_km
    assert spec.unit_price_usd == price
    assert spec.fov_multiplier == fov
    assert spec.tracks_noncooperative is noncoop


def test_bundled_detection_matrix_all_cells():
    cat = default_catalog()
    order = (Terrain.OPEN, Terrain.WATER, Terrain.NEIGHBORHOOD, Terrain.HILL, Terrain.COMMERCIAL)
    for name, row in PUBLISHED_DETECTION.items():
        spec = cat.get(name)
        assert tuple(spec.detect[t] for t in order) == row


def test_min_range_is_optical_camera():
    assert default_catalog().min_range_km == 0.4


def test_probability_of_one_rejected():
    with pytest.raises(InvariantViolation, match="Probe"):
        make_spec(detect=uniform_detect(1.0))


def test_probability_of_zero_rejected():
    with pytest.raises(InvariantViolation):
        make_spec(detect=uniform_detect(0.0))


def test_missing_terrain_entry_rejected():
    detect = uniform_detect(0.9)
    del detect[Terrain.HILL]
    with pytest.raises(InvariantViolation, match="hill"):
        make_spec(detect=detect)


@pytest.mark.parametrize(
    "field,value",
    [("range_km", 0.0), ("range_km", -1.0), ("unit_price_usd", 0.0), ("fov_multiplier", 0)]
    # Coverage squares the range and prices multiples of the multiplier.
    + [("range_km", 1e160), ("range_km", math.inf), pytest.param("fov_multiplier", 10**400, id="fov_multiplier-1e400")],
)
def test_invalid_scalar_fields_rejected(field, value):
    kwargs = {"name": "Probe", "range_km": 1.0, "price": 100.0, "fov": 1}
    mapping = {"range_km": "range_km", "unit_price_usd": "price", "fov_multiplier": "fov"}
    kwargs[mapping[field]] = value
    with pytest.raises(InvariantViolation):
        make_spec(**kwargs)


def test_duplicate_names_rejected():
    spec = make_spec()
    with pytest.raises(InvariantViolation, match="duplicate"):
        SensorCatalog((spec, spec))


def test_empty_catalog_rejected():
    with pytest.raises(InvariantViolation):
        SensorCatalog(())


def test_load_catalog_rejects_malformed_json(tmp_path):
    path = tmp_path / "cat.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        load_catalog(path)


def test_load_catalog_requires_exact_fields(tmp_path):
    doc = {"sensors": [{"name": "X", "range_km": 1.0}]}
    with pytest.raises(ParseError):
        load_catalog(doc)


def test_load_catalog_requires_exact_detect_keys():
    doc = {
        "sensors": [
            {
                "name": "X",
                "range_km": 1.0,
                "unit_price_usd": 10,
                "fov_multiplier": 1,
                "tracks_noncooperative": True,
                "detect": {"open": 0.9},
            }
        ]
    }
    with pytest.raises(ParseError, match="detect"):
        load_catalog(doc)


def radar_entry(**changes):
    """The bundled Radar entry with some fields replaced, as a one-sensor catalog document."""
    entry = {
        "name": "Radar",
        "range_km": 2.41,
        "unit_price_usd": 35000,
        "fov_multiplier": 3,
        "tracks_noncooperative": True,
        "detect": dict(zip(DETECT_KEYS, PUBLISHED_DETECTION["Radar"])),
    }
    return {"sensors": [entry | changes]}


def test_integral_float_fov_multiplier_loads_as_int():
    spec = load_catalog(radar_entry(fov_multiplier=2.0)).get("Radar")
    assert spec.fov_multiplier == 2 and type(spec.fov_multiplier) is int


def test_zero_fov_multiplier_breaks_the_spec_invariant():
    with pytest.raises(InvariantViolation, match="fov_multiplier"):
        load_catalog(radar_entry(fov_multiplier=0))


@pytest.mark.parametrize(
    "field,value",
    [("fov_multiplier", v) for v in (True, "2", 2.5, None)]
    + [(f, v) for f in ("range_km", "unit_price_usd") for v in (True, "2.41", None)],
)
def test_mistyped_number_is_a_parse_error(field, value):
    with pytest.raises(ParseError, match=field):
        load_catalog(radar_entry(**{field: value}))


def test_load_catalog_round_trips_bundled(tmp_path):
    from importlib import resources

    text = resources.files("gridwatch.data").joinpath("catalog.json").read_text(encoding="utf-8")
    path = tmp_path / "cat.json"
    path.write_text(text, encoding="utf-8")
    assert load_catalog(path).names == default_catalog().names


def test_scale_detection_published_values():
    cat = default_catalog()
    up = scale_detection(cat, 1.05)
    down = scale_detection(cat, 0.95)
    assert up.get("Radar").detect[Terrain.OPEN] == pytest.approx(0.9975, abs=1e-12)
    assert down.get("Radar").detect[Terrain.HILL] == pytest.approx(0.7125, abs=1e-12)


def test_scale_detection_identity():
    cat = default_catalog()
    same = scale_detection(cat, 1.0)
    for a, b in zip(cat, same):
        assert dict(a.detect) == dict(b.detect)
        assert a.unit_price_usd == b.unit_price_usd


def test_scale_detection_clamps_at_cap():
    cat = default_catalog()
    up = scale_detection(cat, 1.2)
    assert up.get("ADS-B").detect[Terrain.OPEN] == 0.9999


def test_scale_detection_rejects_nonpositive_factor():
    with pytest.raises(InvariantViolation):
        scale_detection(default_catalog(), 0.0)


@given(factor=st.floats(0.5, 1.009))
def test_scale_detection_inverse_when_unclamped(factor):
    cat = default_catalog()
    back = scale_detection(scale_detection(cat, factor), 1.0 / factor)
    for a, b in zip(cat, back):
        for t in a.detect:
            assert b.detect[t] == pytest.approx(a.detect[t], rel=1e-12)


def test_filtered_subset_and_order():
    cat = default_catalog()
    sub = cat.filtered(["RF", "Radar"])
    assert sub.names == ("Radar", "RF")  # original catalog order preserved
    with pytest.raises(InvariantViolation):
        cat.filtered(["Nope"])


def test_noncooperative_flags_partition():
    cat = default_catalog()
    noncoop = {s.name for s in cat if s.tracks_noncooperative}
    assert noncoop == {"Radar", "RF", "Acoustic", "OpticalCamera"}
