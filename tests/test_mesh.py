import json
import math
import tracemalloc

import numpy as np
import pytest
from helpers import corners_for, rect_mesh, square_mesh
from hypothesis import example, given
from hypothesis import strategies as st

from gridwatch.errors import DimensionMismatch, ParseError, RangeTooSmall
from gridwatch.mesh import Terrain, build_mesh, load_terrain_grid
from gridwatch.pipeline import mesh_to_geojson, write_mesh_geojson


def test_city_scale_block_grid():
    """A 16.2 x 18.0 km area at L=0.3 km tiles into a 54 x 60 block grid."""
    mesh = build_mesh(corners_for(16.2, 18.0), 0.3, np.zeros((60, 54), dtype=int), 0.4)
    assert (mesh.blocks_x, mesh.blocks_y) == (54, 60)
    assert mesh.n_blocks == 3240


def test_single_block_mesh():
    mesh = build_mesh(corners_for(0.3, 0.3), 0.3, np.zeros((1, 1), dtype=int), 0.3)
    assert mesh.n_blocks == 1
    assert (mesh.blocks_x, mesh.blocks_y) == (1, 1)


def test_non_divisible_span_rounds_up():
    mesh = build_mesh(corners_for(16.35, 18.0), 0.3, np.zeros((60, 55), dtype=int), 0.4)
    assert mesh.blocks_x == 55


def test_all_outside_area():
    mesh = build_mesh(corners_for(0.9, 0.9), 0.3, np.full((3, 3), -1, dtype=int), 0.4)
    assert not mesh.in_area.any()
    assert mesh.candidate_sites == ()
    assert mesh.in_area_blocks == ()


def test_in_area_count_plus_removed_is_total():
    codes = np.array([[0, -1, 1], [2, 3, -1], [4, 0, 0]])
    mesh = build_mesh(corners_for(0.9, 0.9), 0.3, codes, 0.4)
    assert mesh.in_area_blocks == (0, 2, 3, 4, 6, 7, 8)
    assert mesh.n_blocks == 9


def test_block_center_is_half_diagonal_from_corners():
    mesh = square_mesh(4)
    L = mesh.block_side
    for z in (0, 5, 15):
        center = mesh.block_center(z)
        j, k = divmod(z, mesh.blocks_x)
        for dj in (0, 1):
            for dk in (0, 1):
                x, y = mesh.x0 + (k + dk) * L, mesh.y0 + (j + dj) * L
                assert math.hypot(center.x - x, center.y - y) == pytest.approx(0.3 / math.sqrt(2), rel=1e-9)


def test_candidate_sites_skip_water_and_outside():
    codes = np.array([[0, 1, 0], [1, -1, 0], [0, 0, 1]])
    mesh = build_mesh(corners_for(0.9, 0.9), 0.3, codes, 0.4)
    site_blocks = {s.block for s in mesh.candidate_sites}
    eligible = {
        z for z in range(9)
        if mesh.terrain[z] not in (Terrain.WATER, Terrain.OUTSIDE_AREA)
    }
    assert site_blocks == eligible
    assert len(mesh.candidate_sites) == len(eligible)  # exactly one site per eligible block


def test_rejects_small_sensor_range():
    with pytest.raises(RangeTooSmall):
        build_mesh(corners_for(0.9, 0.9), 0.3, np.zeros((3, 3), dtype=int), 0.2)


def test_rejects_wrong_grid_shape():
    with pytest.raises(DimensionMismatch):
        build_mesh(corners_for(0.9, 0.9), 0.3, np.zeros((3, 4), dtype=int), 0.4)


def test_terrain_csv_round_trip(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("0,1,2\n3,4,-1\n", encoding="utf-8")
    grid = load_terrain_grid(path)
    assert grid.tolist() == [[0, 1, 2], [3, 4, -1]]


def test_terrain_csv_rejects_unknown_code(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("0,7\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_terrain_grid(path)


def test_terrain_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("0,1\n0\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_terrain_grid(path)


def test_geojson_export_schema():
    codes = np.array([[0, 1], [-1, 4]])
    mesh = build_mesh(corners_for(0.6, 0.6), 0.3, codes, 0.4)
    doc = mesh_to_geojson(mesh)
    assert doc["type"] == "FeatureCollection"
    assert len(doc["features"]) == 4
    for feat in doc["features"]:
        assert feat["geometry"]["type"] == "Polygon"
        ring = feat["geometry"]["coordinates"][0]
        assert len(ring) == 5 and ring[0] == ring[-1]
        assert set(feat["properties"]) == {"terrain", "in_area"}
    labels = [f["properties"]["terrain"] for f in doc["features"]]
    assert labels == ["open", "water", "outside_area", "commercial"]
    assert [f["properties"]["in_area"] for f in doc["features"]] == [True, True, False, True]


def test_geojson_export_is_deterministic():
    codes = np.array([[0, 1], [2, 3]])
    one = mesh_to_geojson(build_mesh(corners_for(0.6, 0.6), 0.3, codes, 0.4))
    two = mesh_to_geojson(build_mesh(corners_for(0.6, 0.6), 0.3, codes, 0.4))
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)


def oracle_bytes(mesh):
    return (json.dumps(mesh_to_geojson(mesh), sort_keys=True, indent=2) + "\n").encode("utf-8")


@st.composite
def mixed_meshes(draw):
    """Meshes of 1 to 9 blocks a side, any mix of terrain codes, anywhere on
    the globe away from the poles."""
    bx, by = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    codes = draw(st.lists(st.sampled_from([t.value for t in Terrain]), min_size=bx * by, max_size=bx * by))
    side = draw(st.sampled_from([0.3, 0.25, 1.7]))
    lon0 = draw(st.floats(-179.0, 170.0))
    lat0 = draw(st.floats(-80.0, 79.0))
    corners = corners_for(bx * side, by * side, lon0=lon0, lat0=lat0)
    return build_mesh(corners, side, np.array(codes).reshape(by, bx), side)


@given(mesh=mixed_meshes())
@example(mesh=rect_mesh(1, 1, [[-1]]))
@example(mesh=rect_mesh(1, 6, [[1], [0], [-1], [2], [3], [4]]))
@example(mesh=rect_mesh(6, 1, [[4, 3, 2, -1, 0, 1]]))
# One row of twelve, one column of twelve and a grid mostly outside the area.
@example(mesh=rect_mesh(12, 1, [[-1, 0, 1, 2, 3, 4, -1, -1, 4, 3, 2, 0]]))
@example(mesh=rect_mesh(1, 12, [[0], [-1], [-1], [1], [2], [3], [4], [-1], [0], [0], [1], [-1]]))
@example(mesh=rect_mesh(5, 4, [[-1, -1, -1, -1, -1], [-1, 0, -1, -1, -1], [-1, -1, -1, 1, -1], [-1, -1, -1, -1, -1]]))
def test_mesh_writer_matches_the_oracle_byte_for_byte(tmp_path_factory, mesh):
    path = tmp_path_factory.getbasetemp() / "mesh.geojson"
    write_mesh_geojson(path, mesh)
    assert path.read_bytes() == oracle_bytes(mesh)


def test_mesh_writer_streams(tmp_path):
    # The document of a 100x100 mesh takes about 11 MB to build and format;
    # the writer holds one feature's text and the lattice's strings.
    mesh = square_mesh(100, np.resize([0, 1, 2, 3, 4, -1], (100, 100)))
    path = tmp_path / "mesh.geojson"
    tracemalloc.start()
    try:
        write_mesh_geojson(path, mesh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert path.read_bytes() == oracle_bytes(mesh)


def test_points_row_major_from_southwest():
    mesh = square_mesh(2)
    first = mesh.block_center(0)
    assert first.x == pytest.approx(mesh.x0 + mesh.block_side / 2)
    assert first.y == pytest.approx(mesh.y0 + mesh.block_side / 2)
    # next block along x, then wrap to the next row northward
    assert mesh.block_center(1).x > first.x
    assert mesh.block_center(mesh.blocks_x).y > first.y
