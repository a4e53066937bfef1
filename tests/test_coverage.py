import dataclasses
import hashlib
import inspect
import math
import random
import tracemalloc
from types import MappingProxyType

import numpy as np
import pytest
from helpers import (
    covered_sets_oracle,
    footprints_oracle,
    make_spec,
    masks_to_flags,
    rect_mesh,
    site_for_block,
    square_mesh,
    units_oracle,
)
from hypothesis import example, given
from hypothesis import strategies as st

from gridwatch.catalog import SensorCatalog, default_catalog
from gridwatch import coverage
from gridwatch.coverage import (
    Candidate,
    block_detection,
    build_coverage,
    covered_blocks,
    flags_to_masks,
    mask_flags,
    mask_positions,
    masks_to_nonzero_bytes,
    masks_to_positions,
    masks_to_runs,
    redundancy,
)
from gridwatch.pipeline import write_coverage_csv
from gridwatch.errors import DegenerateDetection, InfeasibleCoverage, TooLarge, ValidationError
from gridwatch.mesh import DETECTABLE_TERRAINS


# -- detection probabilities ---------------------------------------------------


def test_block_detection_uses_terrain_row():
    codes = [[3, -1], [1, 0]]
    mesh = square_mesh(2, codes, min_range=321.87)
    omega = block_detection(mesh, default_catalog())
    assert omega["Radar"][0] == 0.75  # hill
    assert omega["Radar"][1] == 0.0  # outside the area
    assert omega["ADS-B"][2] == 0.99  # water
    assert omega["Acoustic"][3] == 0.75  # open


# -- covered blocks -------------------------------------------------------------


def brute_covered(mesh, range_km, site):
    """Oracle: a block counts iff all four of its corner points are within range."""
    result = []
    centre = mesh.block_center(site.block)
    L = mesh.block_side
    for z in mesh.in_area_blocks:
        j, k = divmod(z, mesh.blocks_x)
        pts = [(mesh.x0 + (k + dk) * L, mesh.y0 + (j + dj) * L) for dj in (0, 1) for dk in (0, 1)]
        if all(math.hypot(x - centre.x, y - centre.y) <= range_km + 1e-12 for x, y in pts):
            result.append(z)
    return tuple(result)


def test_range_beyond_diagonal_covers_all_in_area():
    codes = [[0, 1, 0], [0, -1, 2], [3, 0, 4]]
    mesh = square_mesh(3, codes)
    spec = make_spec(range_km=50.0)
    site = mesh.candidate_sites[0]
    assert covered_blocks(mesh, spec, site) == mesh.in_area_blocks


def test_exact_half_diagonal_covers_own_block():
    mesh = square_mesh(3)
    site = site_for_block(mesh, 4)
    spec = make_spec(range_km=0.3 / math.sqrt(2))
    assert covered_blocks(mesh, spec, site) == (4,)


def test_three_by_three_center_site_against_point_oracle():
    # At R=0.48 the four edge-adjacent blocks are covered too: their farthest
    # corners sit at 0.15*sqrt(10) ~ 0.4743.  Only the diagonal blocks stay out
    # (farthest corners at 0.45*sqrt(2) ~ 0.6364).
    mesh = square_mesh(3)
    site = site_for_block(mesh, 4)
    for range_km, frozen in [(0.48, (1, 3, 4, 5, 7)), (0.45, (4,)), (0.63, (1, 3, 4, 5, 7)), (0.64, tuple(range(9)))]:
        spec = make_spec(range_km=range_km)
        got = covered_blocks(mesh, spec, site)
        assert got == brute_covered(mesh, range_km, site)
        assert got == frozen


def test_covered_blocks_excludes_outside_area():
    codes = [[0, -1], [0, 0]]
    mesh = square_mesh(2, codes)
    site = site_for_block(mesh, 0)
    spec = make_spec(range_km=10.0)
    assert covered_blocks(mesh, spec, site) == (0, 2, 3)


@pytest.mark.parametrize("n", [3, 4])
def test_coverage_respects_four_fold_rotation(n):
    """On a uniform square mesh, rotating the site rotates the covered set."""
    mesh = square_mesh(n)
    spec = make_spec(range_km=0.52)

    def rot(z):  # quarter turn: (j, k) -> (k, n-1-j)
        j, k = divmod(z, n)
        return k * n + (n - 1 - j)

    for site in mesh.candidate_sites:
        rotated_site = site_for_block(mesh, rot(site.block))
        expected = tuple(sorted(rot(z) for z in covered_blocks(mesh, spec, site)))
        assert covered_blocks(mesh, spec, rotated_site) == expected


# -- redundancy ------------------------------------------------------------------


def smallest_sufficient_units(zeta, required):
    """Oracle: linear scan for the smallest k with 1-(1-zeta)^k >= required."""
    k = 1
    while 1.0 - (1.0 - zeta) ** k < required:
        k += 1
    return k


def test_redundancy_worked_example():
    assert redundancy(0.8, 0.96, 1) == 2
    assert abs((1.0 - (1.0 - 0.8) ** 2) - 0.96) < 1e-12


def test_redundancy_against_scan_oracle():
    assert smallest_sufficient_units(0.85, 0.98) == 3
    assert redundancy(0.85, 0.98, 1) == 3
    assert redundancy(0.85, 0.98, 3) == 9  # fov ring multiplies after rounding


def test_redundancy_rounding_modes():
    # raw ratio log(0.02)/log(0.15) ~ 2.0622
    assert redundancy(0.85, 0.98, 1, "ceil") == 3
    assert redundancy(0.85, 0.98, 1, "floor") == 2
    assert redundancy(0.85, 0.98, 1, "nearest") == 2
    # raw ratio ~ 0.25: floor and nearest clamp to one unit
    assert redundancy(0.9999, 0.9, 1, "floor") == 1
    assert redundancy(0.9999, 0.9, 1, "nearest") == 1
    assert redundancy(0.9999, 0.9, 1, "ceil") == 1


def test_redundancy_rejects_degenerate_and_invalid():
    with pytest.raises(DegenerateDetection):
        redundancy(1.0, 0.9)
    # Near zero the real-valued unit count passes the float range: here the
    # ratio itself is infinite, there it is finite until the field-of-view
    # multiplier of 2 doubles it.
    for zeta, fov in ((1e-310, 1), (2.5e-308, 2)):
        with pytest.raises(DegenerateDetection, match="more units than a float can count"):
            redundancy(zeta, 0.98, fov)
    # Finite at 2.06 units x 6e307, the count passes the range rounded up to 3.
    with pytest.raises(DegenerateDetection, match="more units than a float can count"):
        redundancy(0.85, 0.98, 6 * 10**307)
    with pytest.raises(ValidationError):
        redundancy(0.0, 0.9)
    with pytest.raises(ValidationError):
        redundancy(0.9, 1.0)
    with pytest.raises(ValidationError):
        redundancy(0.9, 0.9, 1, "up")


@given(zeta=st.floats(0.05, 0.99), required=st.floats(0.05, 0.99), fov=st.integers(1, 6))
def test_redundancy_ceil_meets_requirement(zeta, required, fov):
    units = redundancy(zeta, required, fov, "ceil")
    assert units % fov == 0
    per_ring = units // fov
    assert 1.0 - (1.0 - zeta) ** per_ring >= required - 1e-9
    assert units == fov * smallest_sufficient_units(zeta, required) or per_ring >= smallest_sufficient_units(zeta, required)


@given(zeta=st.floats(0.05, 0.99))
def test_redundancy_monotone_in_requirement(zeta):
    grid = [0.90, 0.93, 0.96, 0.99]
    units = [redundancy(zeta, r, 1) for r in grid]
    assert units == sorted(units)


def _outcome(units, *args):
    """What ``units(*args)`` returns, or the type and message of what it raises."""
    try:
        return units(*args)
    except (DegenerateDetection, ValidationError) as err:
        return type(err), str(err)


def _snapped_pair(pk):
    # (1 - p)**k == 1 - r in exact arithmetic: log(1 - r) / log(1 - p) is the integer k.
    p, k = pk
    return p, 1.0 - (1.0 - p) ** k


_mean_detects = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1e-300),
    st.integers(1, 2**20).map(lambda k: 1.0 - k * 2.0**-53),
    st.sampled_from([-0.5, 0.0, 1.0, 1.5, math.inf, -math.inf, math.nan]),
)


@given(
    cases=st.lists(
        st.one_of(
            st.tuples(_mean_detects, st.floats(0.01, 0.999)),
            st.tuples(st.floats(0.01, 0.99), st.integers(1, 40)).map(_snapped_pair),
        ),
        min_size=1,
        max_size=6,
    ),
    fov=st.sampled_from([1, 2, 3, 4]),
    rounding=st.sampled_from(coverage.ROUNDING_MODES),
)
@example(cases=[(0.8, 0.96)], fov=1, rounding="floor")
# The ratio is 2.5 to within an ulp: numpy's log1p(-0.45), an ulp off
# math.log1p's, would round it to 2 units where the scalar rule gives 3.
@example(cases=[(0.45, 0.7756599957653562)], fov=1, rounding="nearest")
@example(cases=[(0.85, 0.98)], fov=6 * 10**307, rounding="ceil")
@example(cases=[(0.85, 0.98)], fov=8 * 10**307, rounding="floor")
@example(cases=[(0.5, 0.9), (2.5e-308, 0.98), (0.0, 0.9)], fov=2, rounding="ceil")
def test_unit_counts_match_the_scalar_rule(cases, fov, rounding):
    # At one requirement, the array rule gives each value the scalar rule's
    # count, and raises what the scalar rule raises at the first value that
    # fails; as redundancy(), each value on its own gives the same.
    for _, required in cases:
        if not 0.0 < required < 1.0:
            continue
        log_miss = math.log1p(-required)
        one_by_one = [_outcome(units_oracle, zeta, log_miss, fov, rounding) for zeta, _ in cases]
        failed = [o for o in one_by_one if isinstance(o, tuple)]
        zetas = np.array([zeta for zeta, _ in cases], dtype=np.float64)
        assert _outcome(coverage._unit_counts, zetas, log_miss, fov, rounding) == (failed[0] if failed else one_by_one)
    for zeta, required in cases:
        if 0.0 < required < 1.0:
            expected = _outcome(units_oracle, zeta, math.log1p(-required), fov, rounding)
            assert _outcome(redundancy, zeta, required, fov, rounding) == expected


# -- coverage table ---------------------------------------------------------------


def test_single_block_mesh_has_one_entry_per_sensor():
    mesh = square_mesh(1, min_range=0.3)
    cat = default_catalog()
    table = build_coverage(mesh, cat, 0.98)
    assert len(table.entries) == len(cat)
    assert {e.sensor for e in table.entries} == set(cat.names)
    for e in table.entries:
        assert [mesh.in_area_blocks[p] for p in mask_positions(e.covered)] == [0]
        assert e.cost == e.units * cat.get(e.sensor).unit_price_usd


def test_mean_detection_matches_resummation_oracle():
    rng = random.Random(7)
    codes = [[rng.choice([0, 1, 2, 3, 4, -1]) for _ in range(5)] for _ in range(5)]
    codes[0][0] = 0  # keep at least one site
    mesh = square_mesh(5, codes)
    cat = default_catalog().filtered(["Radar", "Acoustic"])
    table = build_coverage(mesh, cat, 0.98)
    omega = block_detection(mesh, cat)
    for e in table.entries:
        blocks = [mesh.in_area_blocks[p] for p in mask_positions(e.covered)]
        resummed = sum(omega[e.sensor][z] for z in blocks) / len(blocks)
        assert e.mean_detect == pytest.approx(resummed, rel=1e-12)


def test_entries_sorted_and_units_monotone_in_requirement():
    mesh = square_mesh(4, min_range=0.4)
    cat = default_catalog().filtered(["Radar", "RF", "Acoustic"])
    lo = build_coverage(mesh, cat, 0.98)
    hi = build_coverage(mesh, cat, 0.99)
    keys = [(e.sensor, e.site) for e in lo.entries]
    assert keys == sorted(keys)
    by_key_hi = {(e.sensor, e.site): e.units for e in hi.entries}
    for e in lo.entries:
        assert by_key_hi[(e.sensor, e.site)] >= e.units


def test_all_entries_dropped_makes_table_infeasible():
    """A sensor that cannot even reach its own block corners yields no entries."""
    mesh = square_mesh(3, min_range=0.3)
    cat = SensorCatalog((make_spec(range_km=0.15),))
    with pytest.raises(InfeasibleCoverage) as err:
        build_coverage(mesh, cat, 0.98)
    assert err.value.uncovered == mesh.in_area_blocks
    assert coverage._footprints(mesh, cat)[0] == []


def test_water_block_needs_coverage_but_hosts_no_site():
    # An optical-style range (own block only) cannot cover the water block.
    codes = [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
    mesh = square_mesh(3, codes)
    cat = SensorCatalog((make_spec(range_km=0.3),))
    with pytest.raises(InfeasibleCoverage) as err:
        build_coverage(mesh, cat, 0.98)
    assert err.value.uncovered == (4,)
    # A longer reach covers the water block from its neighbors.
    table = build_coverage(mesh, SensorCatalog((make_spec(range_km=0.5),)), 0.98)
    assert all(e.site != 4 for e in table.entries)


def test_coverage_csv_schema(tmp_path):
    mesh = square_mesh(2, min_range=0.3)
    table = build_coverage(mesh, default_catalog().filtered(["RF"]), 0.98)
    write_coverage_csv(tmp_path / "coverage.csv", table)
    lines = (tmp_path / "coverage.csv").read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "sensor,site_index,n_blocks,zeta,tau,kappa,install_cost_usd"
    assert len(lines) == 1 + len(table.entries)
    first = lines[1].split(",")
    assert first[0] == "RF"
    assert int(first[2]) == 4


def test_equal_covered_sets_share_one_int(tmp_path):
    # ADS-B reaches every block of the mesh from each of its 32 sites.
    rng = random.Random(6)
    codes = [[rng.choice([0, 1, 2, 3, 4]) for _ in range(6)] for _ in range(6)]
    mesh = square_mesh(6, codes)
    table = build_coverage(mesh, default_catalog().filtered(["ADS-B", "Acoustic"]), 0.98)
    adsb = [e for e in table.entries if e.sensor == "ADS-B"]
    assert len(adsb) == len(mesh.candidate_sites) == 32
    assert {id(e.covered) for e in adsb} == {id(adsb[0].covered)}
    assert adsb[0].covered == (1 << len(mesh.in_area_blocks)) - 1
    assert len({id(e.covered) for e in table.entries}) == len({e.covered for e in table.entries}) == 33
    # The same bytes as a table holding one int per entry.
    write_coverage_csv(tmp_path / "coverage.csv", table)
    digest = hashlib.sha256((tmp_path / "coverage.csv").read_bytes()).hexdigest()
    assert digest == "6bce6230ee89c6db2a268003ec366d14093cdf17b5e50b80de3153ad2d28aa72"


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 130])
def test_mask_helpers_match_a_bit_loop(n):
    # Mask 0, the full mask, the top bit alone and random masks with and
    # without the top bit, on both sides of byte and 64-bit word boundaries.
    rng = random.Random(n)
    top = 1 << n - 1 if n else 0
    masks = [0, (1 << n) - 1, top] + [rng.getrandbits(n) for _ in range(10)] + [rng.getrandbits(n) | top for _ in range(10)]
    for mask in masks:
        bits = [(mask >> i) & 1 for i in range(n)]
        flags = masks_to_flags([mask], n)[0]
        assert flags.dtype == np.uint8
        assert flags.tolist() == bits
        assert mask_positions(mask) == [i for i, b in enumerate(bits) if b]


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 13, 63, 64, 65, 130, 401])
def test_mask_flags_matches_masks_to_flags(n):
    # The one-mask form the search's pricing pass unpacks with: mask 0, the
    # top bit alone and with others, and random masks, over n on both sides
    # of byte and 64-bit word boundaries.
    rng = random.Random(n)
    top = 1 << n - 1 if n else 0
    for mask in [0, top, (1 << n) - 1, rng.getrandbits(n), rng.getrandbits(n) | top]:
        flags, expected = mask_flags(mask, n), masks_to_flags([mask], n)[0]
        assert flags.dtype == expected.dtype and flags.shape == (n,)
        assert flags.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 401])
def test_nonzero_bytes_and_positions_match_a_bit_loop(n):
    # Mask 0, the top bit alone, the full mask and random masks, on both
    # sides of byte and 64-bit word boundaries, in one list.
    rng = random.Random(n)
    masks = [0, 1 << (n - 1), (1 << n) - 1] + [rng.getrandbits(n) for _ in range(20)]
    expected_bytes = [
        (i, b, (mask >> 8 * b) & 0xFF) for i, mask in enumerate(masks) for b in range((n + 7) // 8) if (mask >> 8 * b) & 0xFF
    ]
    mask, byte, value = masks_to_nonzero_bytes(masks, n)
    assert value.dtype == np.uint8
    assert list(zip(mask.tolist(), byte.tolist(), value.tolist())) == expected_bytes
    positions, offsets = masks_to_positions(masks, n)
    assert offsets[0] == 0 and len(offsets) == len(masks) + 1
    for i, m in enumerate(masks):
        assert positions[offsets[i] : offsets[i + 1]].tolist() == [p for p in range(n) if (m >> p) & 1]
    assert offsets[-1] == len(positions)


@pytest.mark.parametrize("n", [0, 1, 8, 401])
def test_nonzero_bytes_and_positions_of_no_masks_are_empty(n):
    assert [a.tolist() for a in masks_to_nonzero_bytes([], n)] == [[], [], []]
    positions, offsets = masks_to_positions([], n)
    assert positions.tolist() == [] and offsets.tolist() == [0]


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 401])
def test_flags_to_masks_matches_a_bit_loop(n):
    # All-zero rows, the top bit alone, the full mask and random rows, on
    # both sides of byte and 64-bit word boundaries, as bool and as 0/1
    # bytes; masks_to_flags takes the masks back to the same rows.
    rng = random.Random(n)
    rows = [[0] * n, [0] * (n - 1) + [1], [1] * n] + [[rng.getrandbits(1) for _ in range(n)] for _ in range(20)] + [[0] * n]
    expected = [sum(bit << i for i, bit in enumerate(row)) for row in rows]
    for dtype in (bool, np.uint8):
        flags = np.array(rows, dtype=dtype)
        masks = flags_to_masks(flags)
        assert masks == expected
        assert all(type(m) is int for m in masks)
        assert masks_to_flags(masks, n).tolist() == flags.astype(np.uint8).tolist()
    assert flags_to_masks(np.zeros((0, n), dtype=np.uint8)) == []


def masks_over(n):
    """Up to 8 masks over ``n`` positions: 0, single bits, the full mask and random ones."""
    mask = st.one_of(
        st.just(0),
        st.just((1 << n) - 1),
        st.integers(0, max(n - 1, 0)).map(lambda k: 1 << k if n else 0),
        st.integers(0, (1 << n) - 1),
    )
    return st.tuples(st.just(n), st.lists(mask, max_size=8))


@given(st.one_of(st.sampled_from([0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129]), st.integers(0, 300)).flatmap(masks_over))
@example((8, [0, 0xFF, 1, 0x80]))
@example((64, [0, (1 << 64) - 1, 1 << 63, 0x5555_5555_5555_5555]))
@example((65, [(1 << 65) - 1, 1 << 64, 1 << 63, 0]))
@example((0, []))
@example((13, []))
@example((13, [0]))
@example((16, [(1 << 16) - 1, 1 << 15]))
@example((23, [(1 << 23) - 1, 1 << 22, 0]))
def test_masks_to_runs_match_positions(case):
    n, masks = case
    runs, offsets = masks_to_runs(masks, n)
    assert runs.dtype == np.int32 and runs.shape == (offsets[-1], 2)
    assert offsets[0] == 0 and len(offsets) == len(masks) + 1
    for i, mask in enumerate(masks):
        own = runs[offsets[i] : offsets[i + 1]].tolist()
        assert [p for lo, hi in own for p in range(lo, hi)] == mask_positions(mask)
        # Maximal runs: none is empty, and a gap of at least one bit separates two.
        assert all(lo < hi for lo, hi in own)
        assert all(a[1] < b[0] for a, b in zip(own, own[1:]))

def test_required_detection_validated():
    mesh = square_mesh(1, min_range=0.3)
    like = build_coverage(mesh, default_catalog(), 0.98)
    for held in (None, like):
        with pytest.raises(ValidationError):
            build_coverage(mesh, default_catalog(), 1.0, like=held)
        with pytest.raises(ValidationError):
            build_coverage(mesh, default_catalog(), 0.98, rounding="sideways", like=held)


def test_size_guard_raises_before_any_footprint(monkeypatch):
    # 6 types x 40 000 sites x 40 000 blocks = 9.6e9, over the 1e9 cap.
    mesh = square_mesh(200, min_range=0.4)

    def no_footprints(*args):
        raise AssertionError("coverage started computing footprints")

    monkeypatch.setattr(coverage, "_footprint", no_footprints)
    with pytest.raises(TooLarge, match=r"6 sensor type\(s\) x 40000 candidate site\(s\) x 40000 in-area block\(s\)"):
        build_coverage(mesh, default_catalog(), 0.98)


def test_degenerate_detection_is_reported_before_uncovered_blocks():
    # The water block is out of reach of a sensor covering its own block only,
    # and a detection probability of 1 (unreachable through a checked spec)
    # makes every unit count singular.
    mesh = square_mesh(3, [[0, 0, 0], [0, 1, 0], [0, 0, 0]])
    spec = make_spec(range_km=0.3)
    object.__setattr__(spec, "detect", MappingProxyType({t: 1.0 for t in spec.detect}))
    catalog = SensorCatalog((spec,))
    assert coverage._footprints(mesh, catalog)[1] == (4,)
    with pytest.raises(DegenerateDetection):
        build_coverage(mesh, catalog, 0.98)


def test_costs_past_the_float_range_are_reported_before_uncovered_blocks():
    # Each of the eight land sites needs two units at 5e307, a finite 1e308;
    # the table's costs sum to infinity, so some plan total could overflow.
    mesh = square_mesh(3, [[0, 0, 0], [0, 1, 0], [0, 0, 0]])
    catalog = SensorCatalog((make_spec(range_km=0.3, price=5e307),))
    assert coverage._footprints(mesh, catalog)[1] == (4,)
    assert redundancy(0.9, 0.98) == 2
    with pytest.raises(ValidationError, match="sum past the float range"):
        build_coverage(mesh, catalog, 0.98)
    # One site at 1e308 a unit: one unit at r = 0.5 is a finite table, and
    # the two it needs at 0.98 cost past the float range when it is repriced.
    mesh = square_mesh(1)
    catalog = SensorCatalog((make_spec(range_km=0.3, price=1e308),))
    like = build_coverage(mesh, catalog, 0.5)
    assert [e.units for e in like.entries] == [1]
    with pytest.raises(ValidationError, match="sum past the float range"):
        build_coverage(mesh, catalog, 0.98, like=like)


def test_priced_footprints_match_a_fresh_table():
    mesh = square_mesh(5, [[0, 1, 2, 3, 4]] * 5, min_range=0.4)
    catalog = default_catalog().filtered(["Radar", "RF", "Acoustic"])
    like = build_coverage(mesh, catalog, 0.5, "floor")
    kept_in_all = []
    for r in (0.9, 0.98):
        for rounding in coverage.ROUNDING_MODES:
            reused = build_coverage(mesh, catalog, r, rounding, like=like)
            fresh = build_coverage(mesh, catalog, r, rounding)
            assert reused.entries == fresh.entries != like.entries
            assert reused.mesh is like.mesh
            assert all(e.covered is f.covered for e, f in zip(reused.entries, like.entries))
            # An entry whose unit count holds is the ``like`` entry itself.
            kept = [e is f for e, f in zip(reused.entries, like.entries)]
            assert kept == [e.units == f.units for e, f in zip(reused.entries, like.entries)]
            kept_in_all += kept
    assert 0 < sum(kept_in_all) < len(kept_in_all)


def test_candidate_init_tracks_the_fields():
    # Candidate.__init__ is written out, not generated, so its parameters must
    # be the fields in name, order and default, and each argument must land
    # in its own field whether passed by position or by keyword.
    fields = dataclasses.fields(Candidate)
    params = list(inspect.signature(Candidate.__init__).parameters.values())[1:]
    defaults = [inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default for f in fields]
    assert [(p.name, p.default) for p in params] == [(f.name, d) for f, d in zip(fields, defaults)]
    values = {"cid": "T@000007", "covered": 0b1011, "cost": 120.5, "sensor": "T", "site": 7, "units": 3, "mean_detect": 0.25}
    by_position, by_keyword = Candidate(*values.values()), Candidate(**values)
    for c in (by_position, by_keyword):
        assert {f.name: getattr(c, f.name) for f in fields} == values
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert repr(by_position) == repr(by_keyword) == (
        "Candidate(cid='T@000007', cost=120.5, sensor='T', site=7, units=3, mean_detect=0.25)"
    )
    bare = Candidate("c", 1, 2.0)
    assert (bare.sensor, bare.site, bare.units, bare.mean_detect) == (None, None, 1, None)
    assert dataclasses.replace(by_keyword, units=4, cost=160.0) == Candidate("T@000007", 0b1011, 160.0, "T", 7, 4, 0.25)
    with pytest.raises(dataclasses.FrozenInstanceError):
        by_position.units = 4


# -- the run walk ------------------------------------------------------------------

# Five blocks wide and eight tall, with OUTSIDE_AREA and WATER cells and a
# placeable block at each corner.
_GAPPY_5X8 = [
    [0, -1, 1, 2, 0],
    [3, 0, -1, -1, 4],
    [1, 1, 0, 2, -1],
    [-1, 4, 3, 0, 0],
    [0, 0, -1, 1, 2],
    [2, -1, 0, 0, 3],
    [4, 3, 1, -1, 0],
    [0, 2, 0, 1, 0],
]
# From a block centre on 0.3 km blocks, the far corner of the block 4
# columns and 7 rows away: at this range every site of _GAPPY_5X8 reaches
# every block, and a range a hair shorter misses a corner site's far corner.
_FAR_CORNER_KM = math.hypot(4.5 * 0.3, 7.5 * 0.3)


@st.composite
def walk_layouts(draw):
    """A grid of 1-9 by 1-9 blocks, square or not, of random terrain with
    OUTSIDE_AREA and WATER cells and at least one land block, and one to three
    sensor types with their own detection probability per terrain, whose
    ranges run from below half a block's diagonal (no block) to past the
    grid's diagonal (every block from every site)."""
    blocks_x, blocks_y = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    codes = draw(
        st.lists(
            st.lists(st.sampled_from([-1, 0, 1, 2, 3, 4]), min_size=blocks_x, max_size=blocks_x),
            min_size=blocks_y,
            max_size=blocks_y,
        )
    )
    codes[draw(st.integers(0, blocks_y - 1))][draw(st.integers(0, blocks_x - 1))] = 0
    block_side = draw(st.sampled_from([0.3, 0.25, 1.3]))
    reaches = draw(st.lists(st.one_of(st.floats(0.2, 14.0), st.just(1e3)), min_size=1, max_size=3))
    specs = tuple(
        make_spec(
            name=f"T{i}",
            range_km=reach * block_side,
            detect={t: draw(st.floats(0.05, 0.95)) for t in DETECTABLE_TERRAINS},
        )
        for i, reach in enumerate(reaches)
    )
    return blocks_x, blocks_y, codes, block_side, specs


def _walk_record(walk):
    pairs, unreached = walk
    return [(cid, sensor, site, covered, repr(zeta), old) for cid, sensor, site, covered, zeta, old in pairs], unreached


@pytest.mark.parametrize("limit", [None, 1, 20])
@given(layout=walk_layouts())
@example(layout=(7, 4, [[0, 1, -1, 2, 3, 4, 0]] * 4, 0.3, (make_spec(name="All", range_km=321.87),)))
# At a limit of 20, the first site of the second chunk of six has the runs of
# the first site of the first chunk, and each builds its own set.
@example(layout=(3, 3, [[2, 1, 2], [2, 0, 0], [0, 0, -1]], 0.3, (make_spec(name="Mid", range_km=1.04),)))
# A range that reaches the far corner exactly takes the whole-grid path; one
# that misses it by a nanometre takes the general one.
@example(layout=(5, 8, _GAPPY_5X8, 0.3, (make_spec(name="Edge", range_km=_FAR_CORNER_KM),)))
@example(layout=(5, 8, _GAPPY_5X8, 0.3, (make_spec(name="Short", range_km=_FAR_CORNER_KM - 1e-9),)))
def test_run_walk_matches_the_per_site_walk(layout, limit):
    """The same pairs in the same order, equal masks, bit-equal means and the
    same unreached blocks as one window per site, with the chunk and group
    limits at their defaults, at 1 (every site its own chunk and group) and
    at 20 (chunks and groups of a few sites)."""
    blocks_x, blocks_y, codes, block_side, specs = layout
    mesh = rect_mesh(blocks_x, blocks_y, codes, block_side=block_side)
    catalog = SensorCatalog(specs)
    with pytest.MonkeyPatch.context() as mp:
        if limit is not None:
            for name in ("_CHUNK_CELLS", "_GROUP_ENTRIES", "_GROUP_CELLS"):
                mp.setattr(coverage, name, limit)
        walk = coverage._footprints(mesh, catalog)
    assert _walk_record(walk) == _walk_record(footprints_oracle(mesh, catalog))


@pytest.mark.parametrize("short_km,whole", [(0.0, True), (1e-9, False)], ids=["every-block", "one-corner-short"])
def test_a_whole_grid_type_shares_one_set_and_lays_no_runs(monkeypatch, short_km, whole):
    # A type that reaches every block from every site takes one mask and one
    # mean for all its sites without laying a run; a range that misses one
    # corner site's far corner walks the runs and builds a set for every
    # site, though most of its sites reach every block.
    calls, built = [], []

    def count(*args, site_runs=coverage._site_runs):
        calls.append(len(args[0]))
        return site_runs(*args)

    def collect(*args, covered_sets=coverage._covered_sets):
        sets = covered_sets(*args)
        built.extend(sets)
        return sets

    monkeypatch.setattr(coverage, "_site_runs", count)
    monkeypatch.setattr(coverage, "_covered_sets", collect)
    mesh = rect_mesh(5, 8, _GAPPY_5X8)
    catalog = SensorCatalog((make_spec(name="T", range_km=_FAR_CORNER_KM - short_km),))
    pairs, unreached = coverage._footprints(mesh, catalog)
    assert len(pairs) == len(mesh.candidate_sites) and unreached == ()
    full = (1 << len(mesh.in_area_blocks)) - 1
    if whole:
        assert calls == built == []
        assert {id(p[3]) for p in pairs} == {id(pairs[0][3])}
        assert {id(p[4]) for p in pairs} == {id(pairs[0][4])}
        assert pairs[0][3] == full
    else:
        assert sum(calls) == len(pairs) == len(built) == 26
        assert [p[3] for p in pairs] == [mask for mask, _ in built]
        assert len({id(p[3]) for p in pairs}) == len(pairs)
        assert pairs[0][3] != full


def test_a_map_without_sites_is_infeasible_at_any_range():
    # Water hosts no site, so no pair covers a block, not even of a type that
    # would reach every block from any site.
    mesh = rect_mesh(3, 2, [[1, 1, -1], [1, 1, 1]])
    with pytest.raises(InfeasibleCoverage) as err:
        build_coverage(mesh, SensorCatalog((make_spec(range_km=321.87),)), 0.98)
    assert err.value.uncovered == mesh.in_area_blocks == (0, 1, 3, 4, 5)


@st.composite
def run_rows(draw):
    """Rows of runs as :func:`coverage._site_runs` lays them, with a detection
    value per bit: ``(lo, hi, size, omega, n)`` for 1-12 sites of 1-6 runs
    over ``n`` bits, each site's runs ascending and disjoint, an empty run
    read as ``lo = hi = 0``, and every site holding a block.  A site's set
    may be one block, the whole universe, or start at bit 0 or end at the
    last bit, so groups mix narrow and full-width sites."""
    n = draw(st.integers(1, 150))
    rows = draw(st.integers(1, 6))
    sites = draw(st.integers(1, 12))
    lo = np.zeros((sites, rows), dtype=np.int32)
    hi = np.zeros((sites, rows), dtype=np.int32)
    for i in range(sites):
        kind = draw(st.sampled_from(["runs", "runs", "one", "full", "from 0", "to n"]))
        if kind == "one":
            at = draw(st.integers(0, n - 1))
            bounds = [at, at + 1]
        elif kind == "full":
            bounds = [0, n]
        else:
            bounds = sorted(draw(st.lists(st.integers(0, n), min_size=2 * rows, max_size=2 * rows)))
            if kind == "from 0":
                bounds[0] = 0
            elif kind == "to n":
                bounds[-1] = n
        runs = [(a, b) for a, b in zip(bounds[::2], bounds[1::2]) if b > a] or [(n - 1, n)]
        column = sorted(draw(st.lists(st.integers(0, rows - 1), min_size=len(runs), max_size=len(runs), unique=True)))
        for c, (a, b) in zip(column, runs):
            lo[i, c], hi[i, c] = a, b
    omega = np.array(draw(st.lists(st.floats(0.05, 0.95), min_size=n, max_size=n)))
    return lo, hi, (hi - lo).sum(axis=1), omega, n


def _sets_record(sets):
    return [(mask, repr(zeta)) for mask, zeta in sets]


@pytest.mark.parametrize("cells", [None, 1, 16, 40, 100])
@given(rows=run_rows())
# Bits 9-11, packed from the byte bound at 8 when alone, beside a set from
# bit 3 to the last of 21 bits; then the whole universe beside its last bit.
@example(rows=(np.array([[9, 0], [3, 8]]), np.array([[12, 0], [5, 21]]), np.array([3, 15]), np.linspace(0.1, 0.9, 21), 21))
@example(rows=(np.array([[0], [20]]), np.array([[21], [21]]), np.array([21, 1]), np.linspace(0.1, 0.9, 21), 21))
def test_span_packing_matches_the_whole_universe_packing(rows, cells):
    """Equal masks and bit-equal means as packing every set over the whole
    universe, with the group cell limit at its default and at limits that
    split groups by their spans (at 1, every site is its own group)."""
    with pytest.MonkeyPatch.context() as mp:
        if cells is not None:
            mp.setattr(coverage, "_GROUP_CELLS", cells)
        got = coverage._covered_sets(*rows)
    assert _sets_record(got) == _sets_record(covered_sets_oracle(*rows))


@pytest.mark.parametrize("limit", [None, 1, 20, 300])
@pytest.mark.parametrize(
    "blocks_x,blocks_y,range_km",
    [(13, 5, 0.9), (5, 11, 0.7), (17, 9, 1.5), (9, 4, 321.87)],
    ids=["wide", "tall", "wider-reach", "everything"],
)
def test_span_packing_matches_on_grids_with_out_of_area_gaps(blocks_x, blocks_y, range_km, limit):
    # Every site's runs on a non-square grid whose in-area blocks skip
    # OUTSIDE_AREA cells, so a set's bits jump over the gaps.
    rng = random.Random(blocks_x * 100 + blocks_y)
    codes = [[rng.choice([-1, 0, 0, 1, 2, 3, 4]) for _ in range(blocks_x)] for _ in range(blocks_y)]
    codes[0][0] = 0
    mesh = rect_mesh(blocks_x, blocks_y, codes)
    in_area = mesh.in_area
    n_in_area = int(np.count_nonzero(in_area))
    start = np.zeros(len(in_area) + 1, dtype=np.int32)
    np.cumsum(in_area, out=start[1:])
    stencil = coverage._footprint(range_km, mesh.block_side, max(blocks_x, blocks_y))
    n = stencil.shape[0] // 2
    half = stencil[:, n:].sum(axis=1) - 1
    blocks = np.array([site.block for site in mesh.candidate_sites], dtype=np.int64)
    lo, hi = coverage._site_runs(blocks, half, start, blocks_x, blocks_y, min(2 * n + 1, blocks_y))
    size = (hi - lo).sum(axis=1)
    kept = size > 0
    omega = np.array([rng.uniform(0.05, 0.95) for _ in range(n_in_area)])
    rows = (lo[kept], hi[kept], size[kept], omega, n_in_area)
    with pytest.MonkeyPatch.context() as mp:
        if limit is not None:
            mp.setattr(coverage, "_GROUP_ENTRIES", limit)
            mp.setattr(coverage, "_GROUP_CELLS", limit)
        got = coverage._covered_sets(*rows)
    assert len(got) == int(np.count_nonzero(kept)) > 0
    assert _sets_record(got) == _sets_record(covered_sets_oracle(*rows))


def test_walk_transient_memory_stays_small():
    # A sweep-r-sized map: 30x30 blocks with water, under every type that
    # tracks non-cooperative aircraft.  The walk's arrays come in bounded
    # chunks and groups, so what it allocates beyond the result it returns is
    # about 0.46 MB with chunks of 2**13 runs held as int32 bounds (int64
    # bounds would take it to 0.62 MB); the per-site walk it replaced took
    # about 0.2 MB.
    rng = random.Random(30)
    codes = [[rng.choice([0, 0, 1, 2, 3, 4]) for _ in range(30)] for _ in range(30)]
    catalog = default_catalog()
    catalog = catalog.filtered([s.name for s in catalog if s.tracks_noncooperative])
    mesh = square_mesh(30, codes, min_range=catalog.min_range_km)
    coverage._footprints(mesh, catalog)
    tracemalloc.start()
    try:
        walk = coverage._footprints(mesh, catalog)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(walk[0]) == 4 * len(mesh.candidate_sites)
    assert peak - retained < 2**20
