"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The absolute published city results (e.g. 153 radars for one city)
depend on terrain grids and vendor prices that are not public; their
structural surrogates are criteria 5-8 plus end-to-end determinism
(criterion 11).
"""

import json
import math
import random
import shutil
import time
from pathlib import Path

import numpy as np
import pytest
from helpers import corners_for, covers, square_mesh
from test_catalog import PUBLISHED_DETECTION, PUBLISHED_SPECS
from test_econ import config

from gridwatch.catalog import default_catalog, scale_detection
from gridwatch.cli import main
from gridwatch.coverage import build_coverage, redundancy
from gridwatch.econ import DEFAULT_MESSAGE_SPECS, CashFlowSeries
from gridwatch.errors import InfeasibleCoverage
from gridwatch.mesh import Terrain, build_mesh
from gridwatch.scenario import bundled_minicity_path, load_scenario
from gridwatch.pipeline import run_plan
from gridwatch.solver import PlacementInstance, dominance_filter, solve_brute, solve_exact


def ok(number, message):
    print(f"ACCEPTANCE {number:02d}: PASS - {message}")


@pytest.fixture()
def minicity(tmp_path):
    src = bundled_minicity_path().parent
    for name in ("minicity.json", "minicity_terrain.csv", "pricing.json", "traffic.json"):
        shutil.copy(src / name, tmp_path / name)
    return tmp_path / "minicity.json"


def minicity_scenario(minicity, **changes):
    doc = json.loads(Path(minicity).read_text(encoding="utf-8"))
    doc.update(changes)
    path = minicity.parent / "variant.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return load_scenario(path)


def test_c01_redundancy_worked_example():
    units = redundancy(0.8, 0.96, 1)
    assert units == 2
    assert abs((1.0 - (1.0 - 0.8) ** 2) - 0.96) < 1e-12
    ok(1, "redundancy(0.8, 0.96, 1) = 2 and 1-(1-0.8)^2 = 0.96 to 1e-12")


def test_c02_mesh_sizing():
    mesh = build_mesh(corners_for(16.2, 18.0), 0.3, np.zeros((60, 54), dtype=int), 0.4)
    assert (mesh.blocks_x, mesh.blocks_y) == (54, 60)
    assert mesh.n_blocks == 3240
    ok(2, "16.2 x 18.0 km at L=0.3 km gives a 54 x 60 grid = 3240 blocks")


def test_c03_catalog_and_message_fidelity():
    cat = default_catalog()
    for name, range_km, price, fov, noncoop in PUBLISHED_SPECS:
        spec = cat.get(name)
        assert spec.range_km == range_km
        assert spec.unit_price_usd == price
        assert spec.fov_multiplier == fov
        assert spec.tracks_noncooperative is noncoop
    order = (Terrain.OPEN, Terrain.WATER, Terrain.NEIGHBORHOOD, Terrain.HILL, Terrain.COMMERCIAL)
    cells = 0
    for name, row in PUBLISHED_DETECTION.items():
        got = tuple(cat.get(name).detect[t] for t in order)
        assert got == row
        cells += len(row)
    assert cells == 30
    bits = {m.aircraft_class: m.message_bits for m in DEFAULT_MESSAGE_SPECS}
    assert bits == {"cooperative_manned": 1136, "cooperative_uncrewed": 432, "non_cooperative": 2648}
    ok(3, "catalog matches all published ranges/prices/multipliers, 30 detection cells, message bits 1136/432/2648")


def test_c04_exact_solver_matches_brute_oracle():
    rng = random.Random(424242)
    start = time.perf_counter()
    checked = 0
    while checked < 500:
        n_el = rng.randint(3, 40)
        universe = list(range(n_el))
        n_c = rng.randint(4, 19)
        sets = [
            (f"c{i:02d}", rng.sample(universe, rng.randint(1, n_el)), rng.uniform(1.0, 100.0))
            for i in range(n_c)
        ]
        covered = set()
        for _, els, _ in sets:
            covered.update(els)
        if covered != set(universe):
            sets.append(("zz", universe, rng.uniform(1.0, 100.0)))
        inst = PlacementInstance.from_sets(universe, sets)
        exact = solve_exact(inst)
        brute = solve_brute(inst)
        assert exact.total_cost == brute.total_cost
        assert covers(inst, exact) and covers(inst, brute)
        assert exact.proven_optimal
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    ok(4, f"exact = brute on 500 random instances, all plans feasible, in {elapsed:.1f}s")


def test_c05_adsb_single_site(minicity):
    # mixed terrain: the floor rounding mode yields one unit per ring
    scn = minicity_scenario(minicity, sensor_filter=["ADS-B"], rounding="floor")
    result = run_plan(scn)
    assert result.plan.n_sites == 1
    assert result.plan.total_units == 1
    assert result.plan.proven_optimal
    # all-open synthetic city, ceil rounding: mean detection 0.99 already gives one unit
    mesh = square_mesh(12, min_range=321.87)
    diag = math.hypot(mesh.blocks_x, mesh.blocks_y) * mesh.block_side
    assert diag <= 321.87
    table = build_coverage(mesh, default_catalog().filtered(["ADS-B"]), 0.98, rounding="ceil")
    plan = solve_exact(PlacementInstance.from_coverage(table))
    assert plan.n_sites == 1
    assert plan.total_units == 1
    ok(5, "homogeneous ADS-B places exactly 1 site (mini-city floor mode and all-open ceil mode)")


def test_c06_heterogeneous_cost_dominance(minicity):
    costs = {}
    for flt in (["Radar"], ["Acoustic"], ["OpticalCamera"], ["Radar", "Acoustic", "OpticalCamera"]):
        plan = run_plan(minicity_scenario(minicity, sensor_filter=flt)).plan
        assert plan.proven_optimal
        costs[tuple(flt)] = plan.total_cost
    het = costs[("Radar", "Acoustic", "OpticalCamera")]
    homo_min = min(costs[("Radar",)], costs[("Acoustic",)], costs[("OpticalCamera",)])
    assert het <= homo_min
    ok(6, f"heterogeneous cost {het:,.0f} <= min homogeneous {homo_min:,.0f}")


def test_c07_rf_dominance(minicity):
    names = ["Radar", "RF", "Acoustic", "OpticalCamera"]
    scn = minicity_scenario(minicity, sensor_filter=names)
    result = run_plan(scn)
    instance = result.instance
    catalog = result.catalog.filtered(names)
    filtered = dominance_filter(instance, catalog)
    assert {c.sensor for c in filtered.candidates} == {"RF"}
    without = solve_exact(instance)
    with_filter = solve_exact(filtered)
    assert without.total_cost == with_filter.total_cost
    ok(7, "dominance filter keeps only RF and leaves the optimal cost unchanged")


def test_dominance_filter_knob_end_to_end(minicity):
    names = ["Radar", "RF", "Acoustic", "OpticalCamera"]
    filtered = run_plan(minicity_scenario(minicity, sensor_filter=names, apply_dominance_filter=True))
    plain = run_plan(minicity_scenario(minicity, sensor_filter=names))
    assert {c.sensor for c in filtered.instance.candidates} == {"RF"}
    assert {c.sensor for c in plain.instance.candidates} == set(names)
    assert filtered.plan.total_cost == plain.plan.total_cost


def test_c08_monotonicity_suite():
    # (a) unit count never drops as the detection requirement rises
    grid = (0.96, 0.97, 0.98, 0.99)
    cat = default_catalog()
    for spec in cat:
        for terrain, p in spec.detect.items():
            units = [redundancy(p, r, spec.fov_multiplier) for r in grid]
            assert units == sorted(units), (spec.name, terrain)
    # (b) scaling every detection probability up cannot make plans costlier
    rng = random.Random(88)
    codes_pool = [0, 1, 2, 3, 4, -1]
    weights = [0.45, 0.10, 0.20, 0.10, 0.05, 0.10]
    meshes_checked = 0
    attempts = 0
    while meshes_checked < 100:
        attempts += 1
        assert attempts < 400, "mesh generator failed to produce enough feasible meshes"
        codes = [[rng.choices(codes_pool, weights)[0] for _ in range(8)] for _ in range(8)]
        mesh = square_mesh(8, codes, min_range=2.41)
        outcomes = {}
        try:
            for scale in (0.95, 1.0, 1.05):
                cat_s = scale_detection(default_catalog(), scale).filtered(["Radar"])
                table = build_coverage(mesh, cat_s, 0.98)
                plan = solve_exact(PlacementInstance.from_coverage(table))
                assert plan.proven_optimal
                outcomes[scale] = (plan.total_units, plan.total_cost)
        except InfeasibleCoverage:
            continue
        assert outcomes[1.05][0] <= outcomes[1.0][0] <= outcomes[0.95][0]
        assert outcomes[1.05][1] <= outcomes[1.0][1] <= outcomes[0.95][1]
        meshes_checked += 1
    ok(8, f"unit counts monotone in r for every catalog cell; cost/count monotone in detection scale on {meshes_checked} random meshes")


def test_c09_revenue_endpoints():
    first = config().cash_flows(0.0).high.positive[0]
    assert first == 480_000.0
    rounded = config(subscriber_rounding="ceil").cash_flows(0.0)
    assert rounded.high.years[-1] == 2033
    high = rounded.high.positive[-1]
    low = rounded.low.positive[-1]
    assert abs(high - 2_064_000.0) <= 1000.0
    assert abs(low - 1_032_000.0) <= 1000.0
    ok(9, f"revenue starts at $480,000 and reaches ${high:,.0f} / ${low:,.0f} in 2033 under 20%/10% growth")


def test_c10_npv_checks():
    zero = CashFlowSeries(2024, (2024, 2025), (1.0, 1.0), (0.0, 0.0), 0.0)
    assert zero.cumulative_npv == (1.0, 2.0)
    one = CashFlowSeries(2024, (2024, 2025), (0.0, 1.0), (0.0, 0.0), 0.10)
    assert abs(one.npv[1] - 0.909091) < 1e-6
    assert abs(one.npv[1] - 1.0 / 1.1) < 1e-9

    def break_even(fee, n0):
        econ = config(monthly_fee_usd=fee, initial_subscribers=n0).cash_flows(2_000_000.0)
        year = econ.high.break_even_year
        return 9999 if year is None else year

    by_fee = [break_even(fee, 100) for fee in (100, 250, 400)]
    by_n0 = [break_even(400, n0) for n0 in (50, 75, 100)]
    assert by_fee == sorted(by_fee, reverse=True)
    assert by_n0 == sorted(by_n0, reverse=True)
    ok(10, "discount identities hold and break-even year is nonincreasing in fee and initial subscribers")


def test_c11_end_to_end_determinism(minicity):
    doc = json.loads(Path(minicity).read_text())
    doc["sensor_filter"] = ["Radar", "Acoustic", "OpticalCamera"]
    scn = minicity.parent / "det.json"
    scn.write_text(json.dumps(doc), encoding="utf-8")
    outs = []
    for run in ("one", "two"):
        out = minicity.parent / run
        assert main(["plan", str(scn), "--out", str(out)]) == 0
        assert main(["econ", str(scn), "--plan", str(out / "plan.geojson"), "--out", str(out)]) == 0
        assert main(["sweep", str(scn), "--parameter", "r", "--values", "0.96,0.98", "--out", str(out)]) == 0
        outs.append(out)
    names = ("mesh.geojson", "plan.geojson", "heatmap.csv", "summary.csv", "coverage.csv", "cashflow.csv", "sweep.csv")
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    ok(11, f"two scenario runs produced byte-identical artifacts ({len(names)} files)")


def test_c12_scale_check(tmp_path):
    start = time.perf_counter()
    src = bundled_minicity_path().parent
    for name in ("pricing.json", "traffic.json"):
        shutil.copy(src / name, tmp_path / name)
    terrain = tmp_path / "big_terrain.csv"
    terrain.write_text("\n".join(",".join("0" for _ in range(100)) for _ in range(100)) + "\n", encoding="utf-8")
    corners = corners_for(30.0, 30.0)
    doc = {
        "name": "scale-check",
        "area": {"corners": [[c.lon, c.lat] for c in corners], "block_side_km": 0.3, "terrain_grid": "big_terrain.csv"},
        "sensor_filter": ["ADS-B", "RemoteID", "RF"],
        "required_detection": 0.98,
        "econ": {"pricing": "pricing.json", "traffic": "traffic.json"},
        "output_dir": str(tmp_path / "out"),
    }
    scn = tmp_path / "big.json"
    scn.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["plan", str(scn)])
    assert code in (0, 4)  # proven optimal, or explicit budget-exceeded status
    summary = (tmp_path / "out" / "summary.csv").read_text(encoding="utf-8").strip().splitlines()
    status = summary[1].split(",")[-1]
    assert status in ("true", "false")
    assert (code == 0) == (status == "true")
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    ok(12, f"100x100-block scenario with 3 sensor types finished in {elapsed:.1f}s with status proven_optimal={status}")
