import builtins
import csv
import hashlib
import io
import json
import math
import random
import shutil
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from helpers import coverage_csv_oracle, heatmap_csv_oracle, rect_mesh, square_mesh

from gridwatch import cli, coverage, pipeline
from gridwatch.catalog import DETECT_KEYS, default_catalog
from gridwatch.cli import main
from gridwatch.coverage import Candidate, CoverageTable, build_coverage
from gridwatch.errors import InvariantViolation, ValidationError
from gridwatch.pipeline import run_plan, sweep, write_sweep_csv
from gridwatch.scenario import bundled_minicity_path, load_scenario, with_overrides


@pytest.fixture()
def bundle(tmp_path):
    """Copy the bundled mini-city scenario into a writable directory."""
    src = bundled_minicity_path().parent
    for name in ("minicity.json", "minicity_terrain.csv", "pricing.json", "traffic.json"):
        shutil.copy(src / name, tmp_path / name)
    return tmp_path


def scenario_with(bundle, fname="scn.json", **changes):
    """Write a variant of the mini-city scenario; artifacts go to ``bundle/out``
    unless ``output_dir`` is given."""
    doc = json.loads((bundle / "minicity.json").read_text(encoding="utf-8"))
    doc["output_dir"] = str(bundle / "out")
    econ_changes = changes.pop("econ", {})
    doc.update(changes)
    doc["econ"].update(econ_changes)
    path = bundle / fname
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return path


def read_csv(path):
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, row.split(","))) for row in lines[1:]]


# -- plan ---------------------------------------------------------------------


def test_plan_adsb_single_site(bundle, capsys):
    scn = scenario_with(bundle, sensor_filter=["ADS-B"], output_dir=str(bundle / "out"))
    assert main(["plan", str(scn)]) == 0
    out = bundle / "out"
    for name in ("mesh.geojson", "plan.geojson", "heatmap.csv", "summary.csv", "coverage.csv"):
        assert (out / name).is_file()
    plan = json.loads((out / "plan.geojson").read_text(encoding="utf-8"))
    assert plan["type"] == "FeatureCollection"
    assert len(plan["features"]) == 1
    feat = plan["features"][0]
    assert feat["geometry"]["type"] == "Point"
    assert feat["properties"]["sensor"] == "ADS-B"
    assert plan["properties"]["proven_optimal"] is True


def test_plan_summary_and_heatmap_schema(bundle):
    scn = scenario_with(bundle, sensor_filter=["RF"], output_dir=str(bundle / "out"))
    assert main(["plan", str(scn)]) == 0
    header, rows = read_csv(bundle / "out" / "summary.csv")
    assert header == ["city", "sensor_filter", "n_sites", "n_sensor_units", "total_cost_usd", "proven_optimal"]
    assert rows[0]["city"] == "minicity"
    assert rows[0]["sensor_filter"] == "RF"
    assert rows[0]["proven_optimal"] == "true"
    header, rows = read_csv(bundle / "out" / "heatmap.csv")
    assert header == ["block_index", "row", "col", "terrain", "detection_probability"]
    assert len(rows) == 36
    by_terrain = {r["terrain"]: float(r["detection_probability"]) for r in rows}
    assert by_terrain["open"] == 0.95  # RF on open terrain
    header, rows = read_csv(bundle / "out" / "coverage.csv")
    assert header == ["sensor", "site_index", "n_blocks", "zeta", "tau", "kappa", "install_cost_usd"]


def test_plan_mesh_geojson_rings_closed(bundle):
    scn = scenario_with(bundle, sensor_filter=["ADS-B"], output_dir=str(bundle / "out"))
    assert main(["plan", str(scn)]) == 0
    mesh = json.loads((bundle / "out" / "mesh.geojson").read_text(encoding="utf-8"))
    assert len(mesh["features"]) == 36
    for feat in mesh["features"]:
        ring = feat["geometry"]["coordinates"][0]
        assert ring[0] == ring[-1] and len(ring) == 5
        assert feat["properties"]["in_area"] is True


def test_heterogeneous_no_costlier_than_each_homogeneous(bundle):
    costs = {}
    for name in (["Radar"], ["Acoustic"], ["OpticalCamera"], ["Radar", "Acoustic", "OpticalCamera"]):
        scn = scenario_with(bundle, fname=f"scn_{len(name)}.json", sensor_filter=name)
        result = run_plan(load_scenario(scn))
        assert result.plan.proven_optimal
        costs[tuple(name)] = result.plan.total_cost
    het = costs[("Radar", "Acoustic", "OpticalCamera")]
    assert het <= costs[("Radar",)]
    assert het <= costs[("Acoustic",)]
    assert het <= costs[("OpticalCamera",)]


def test_plan_range_too_small_exits_2(bundle, capsys):
    scn = scenario_with(bundle, sensor_filter=["OpticalCamera"], area={
        "corners": json.loads((bundle / "minicity.json").read_text())["area"]["corners"],
        "block_side_km": 0.9,
        "terrain_grid": "minicity_terrain.csv",
    })
    assert main(["plan", str(scn)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "RANGE_TOO_SMALL"


def test_plan_infeasible_coverage_exits_3(bundle, capsys):
    # optical cameras cover only their own block, so a water block is uncoverable
    from helpers import corners_for

    (bundle / "water.csv").write_text("0,0\n0,1\n", encoding="utf-8")
    doc = json.loads((bundle / "minicity.json").read_text())
    doc["area"]["corners"] = [[c.lon, c.lat] for c in corners_for(0.6, 0.6)]
    doc["area"]["terrain_grid"] = "water.csv"
    doc["sensor_filter"] = ["OpticalCamera"]
    scn = bundle / "wet.json"
    scn.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["plan", str(scn)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "INFEASIBLE_COVERAGE"
    assert "3" in err["message"]


def _rf_catalog(bundle, **changes):
    """Write the bundled catalog with RF's fields changed; returns its file name."""
    doc = json.loads((bundled_minicity_path().parent / "catalog.json").read_text(encoding="utf-8"))
    for spec in doc["sensors"]:
        if spec["name"] == "RF":
            spec.update(changes)
    (bundle / "rf.json").write_text(json.dumps(doc), encoding="utf-8")
    return "rf.json"


def _faint_rf_plan(bundle):
    faint = dict.fromkeys(DETECT_KEYS, 1e-310)
    return ["plan", str(scenario_with(bundle, catalog=_rf_catalog(bundle, detect=faint)))]


@pytest.mark.parametrize(
    "make_argv, code",
    [
        # The real-valued unit count is infinite.
        (lambda b: ["plan", str(scenario_with(b, detection_scale=1e-310))], "DEGENERATE_DETECTION"),
        (_faint_rf_plan, "DEGENERATE_DETECTION"),
        # Unit counts are finite, but install costs overflow to infinity.
        (lambda b: ["plan", str(scenario_with(b, detection_scale=1e-305))], "VALIDATION_ERROR"),
        (
            lambda b: ["sweep", str(scenario_with(b)), "--parameter", "detection_scale", "--values", "1,1e-310"],
            "DEGENERATE_DETECTION",
        ),
        # 1.8 RF units at a site times 9e307 is finite; rounded up to 2, it is not.
        (
            lambda b: ["plan", str(scenario_with(b, sensor_filter=["RF"], catalog=_rf_catalog(b, fov_multiplier=9 * 10**307)))],
            "DEGENERATE_DETECTION",
        ),
    ],
    ids=["plan-detection-scale", "plan-catalog-detect", "plan-install-cost", "sweep-detection-scale", "plan-rounded-units"],
)
def test_counts_and_costs_past_the_float_range_exit_2_before_writing(bundle, capsys, make_argv, code):
    assert main(make_argv(bundle)) == 2
    assert json.loads(capsys.readouterr().err)["error"] == code
    assert not (bundle / "out").exists()


@pytest.mark.parametrize("command", ["validate", "plan"])
@pytest.mark.parametrize(
    "rf, changes, area, code",
    [
        ({"fov_multiplier": 10**400}, {"sensor_filter": ["RF"]}, {}, "INVARIANT_VIOLATION"),
        (
            {"fov_multiplier": 10**400},
            {"sensor_filter": ["Radar", "RF"], "apply_dominance_filter": True},
            {},
            "INVARIANT_VIOLATION",
        ),
        # Coverage squares the range.
        ({"range_km": 1e160}, {"sensor_filter": ["RF"]}, {}, "INVARIANT_VIOLATION"),
        ({"range_km": math.inf}, {"sensor_filter": ["RF"]}, {}, "INVARIANT_VIOLATION"),
        # The span over the block side is an infinite block count.
        ({}, {}, {"block_side_km": 5e-324}, "VALIDATION_ERROR"),
        # The scale takes every detection probability under one half to 0.0.
        ({}, {"detection_scale": 5e-324}, {}, "INVARIANT_VIOLATION"),
    ],
    ids=["rf-fov", "rf-fov-dominance", "rf-range-square", "rf-range-inf", "block-side", "detection-scale"],
)
def test_catalog_and_mesh_past_the_float_range_exit_2_before_writing(bundle, capsys, command, rf, changes, area, code):
    area = json.loads((bundle / "minicity.json").read_text(encoding="utf-8"))["area"] | area
    scn = scenario_with(bundle, catalog=_rf_catalog(bundle, **rf), area=area, **changes)
    assert main([command, str(scn)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == code
    assert not (bundle / "out").exists()


@pytest.mark.parametrize("field", ["range_km", "unit_price_usd", "detect.open"])
def test_catalog_integer_past_the_float_range_names_its_field(bundle, capsys, field):
    doc = json.loads((bundled_minicity_path().parent / "catalog.json").read_text(encoding="utf-8"))
    detect = next(s["detect"] for s in doc["sensors"] if s["name"] == "RF")
    rf = {"detect": detect | {"open": 10**400}} if field == "detect.open" else {field: 10**400}
    scn = scenario_with(bundle, catalog=_rf_catalog(bundle, **rf))
    assert main(["validate", str(scn)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "PARSE_ERROR"
    assert err["message"] == f"catalog sensor RF: {field} must be a number within the float range, got an integer past it"
    assert not (bundle / "out").exists()


def test_catalog_integer_past_the_digit_limit_names_the_file(bundle, capsys):
    # json.loads refuses an integer of more than 4 300 digits with a
    # ValueError that is not a JSONDecodeError; json.dumps cannot write one.
    name = _rf_catalog(bundle, range_km="BIG")
    path = bundle / name
    path.write_text(path.read_text(encoding="utf-8").replace('"BIG"', "1" + "0" * 5000), encoding="utf-8")
    assert main(["validate", str(scenario_with(bundle, catalog=name))]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "PARSE_ERROR"
    assert err["message"].startswith(f"invalid catalog JSON in {path}: ")
    assert not (bundle / "out").exists()


def test_plan_budget_exceeded_exits_4(bundle, capsys):
    # The summary line says how far from proven the plan stopped.
    scn = scenario_with(bundle, sensor_filter=["Acoustic"], solver={"mode": "exact", "node_budget": 1})
    assert main(["plan", str(scn)]) == 4
    captured = capsys.readouterr()
    plan = run_plan(load_scenario(scn)).plan
    bound = plan.metadata["root_lower_bound"]
    assert 0.0 < bound < plan.total_cost
    gap = (plan.total_cost - bound) / plan.total_cost
    summary = captured.out.splitlines()[0]
    assert summary.endswith(f", proven_optimal=false, lower_bound=${bound:,.2f}, gap={100 * gap:.2f}%")
    assert captured.err == ""


def test_greedy_plan_claims_no_optimum(bundle, capsys):
    scn = scenario_with(bundle, solver={"mode": "greedy"})
    plan = run_plan(load_scenario(scn)).plan
    assert (plan.mode, plan.proven_optimal) == ("greedy", False)
    assert main(["plan", str(scn)]) == 4
    # A greedy plan has no bound, so no gap is printed.
    assert capsys.readouterr().out.splitlines()[0].endswith(", proven_optimal=false")
    doc = json.loads((bundle / "out" / "plan.geojson").read_text(encoding="utf-8"))
    assert doc["properties"]["solver_mode"] == "greedy"
    assert doc["properties"]["total_cost_usd"] == plan.total_cost
    for name in ("mesh.geojson", "heatmap.csv", "summary.csv", "coverage.csv"):
        assert (bundle / "out" / name).is_file(), name


@pytest.mark.parametrize(
    "sensors,apply_filter,left,code,cost,proven",
    [
        (["Radar", "Acoustic"], True, {"Radar"}, 4, 210000.0, "false"),
        (["Radar", "Acoustic"], False, {"Radar", "Acoustic"}, 0, 27000.0, "true"),
        (["Radar"], True, {"Radar"}, 0, 210000.0, "true"),
    ],
    ids=["filter", "plain", "filter-removes-nothing"],
)
def test_dominance_filter_claims_no_optimum(bundle, capsys, sensors, apply_filter, left, code, cost, proven):
    # On one open block the filter drops Acoustic for Radar, and the filtered
    # optimum costs nearly eight times the scenario's: the filter proves nothing.
    # A filter that removes no candidate leaves the proof standing.
    from helpers import corners_for

    (bundle / "one.csv").write_text("0\n", encoding="utf-8")
    area = {"corners": [[c.lon, c.lat] for c in corners_for(0.3, 0.3)], "block_side_km": 0.3, "terrain_grid": "one.csv"}
    scn = scenario_with(bundle, area=area, sensor_filter=sensors, apply_dominance_filter=apply_filter)
    assert main(["plan", str(scn)]) == code
    # The filtered plan's bound holds only for the filtered instance, so
    # no gap is printed.
    assert "lower_bound=" not in capsys.readouterr().out
    _, rows = read_csv(bundle / "out" / "summary.csv")
    assert (float(rows[0]["total_cost_usd"]), rows[0]["proven_optimal"]) == (cost, proven)
    result = run_plan(load_scenario(scn))
    assert {c.sensor for c in result.instance.candidates} == left
    assert ("root_lower_bound" in result.plan.metadata) is (code == 0)


def test_missing_terrain_file_exits_2(bundle, capsys):
    scn = scenario_with(bundle, area={
        "corners": json.loads((bundle / "minicity.json").read_text())["area"]["corners"],
        "block_side_km": 0.3,
        "terrain_grid": "nope.csv",
    })
    assert main(["plan", str(scn)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "VALIDATION_ERROR"


@pytest.mark.parametrize("text", ["0,0\n0,x\n", "\n  \n"], ids=["non-integer", "empty"])
def test_malformed_terrain_csv_is_a_parse_error(bundle, capsys, text):
    (bundle / "bad.csv").write_text(text, encoding="utf-8")
    area = json.loads((bundle / "minicity.json").read_text(encoding="utf-8"))["area"] | {"terrain_grid": "bad.csv"}
    assert main(["validate", str(scenario_with(bundle, area=area))]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "PARSE_ERROR"
    assert err["message"].startswith(str(bundle / "bad.csv"))


# -- econ ---------------------------------------------------------------------


def test_econ_zero_capex_breaks_even_first_year(bundle, capsys):
    empty_plan = bundle / "empty_plan.geojson"
    empty_plan.write_text(json.dumps({"type": "FeatureCollection", "features": []}), encoding="utf-8")
    scn = scenario_with(bundle, output_dir=str(bundle / "out"))
    assert main(["econ", str(scn), "--plan", str(empty_plan)]) == 0
    captured = capsys.readouterr().out
    assert "break_even_low=2024" in captured
    assert "break_even_high=2024" in captured
    header, rows = read_csv(bundle / "out" / "cashflow.csv")
    assert header == [
        "year", "revenue_low", "revenue_high", "cloud_cost_low", "cloud_cost_high",
        "sensor_capex", "npv_low", "npv_high", "cum_npv_low", "cum_npv_high",
    ]
    assert len(rows) == 10
    assert float(rows[0]["revenue_low"]) == 480_000.0
    assert float(rows[0]["revenue_high"]) == 480_000.0


def test_econ_huge_capex_never_breaks_even(bundle, capsys):
    plan = {
        "type": "FeatureCollection",
        "features": [{"type": "Feature", "properties": {"install_cost_usd": 125_280_000.0}}],
    }
    plan_path = bundle / "acoustic_scale.geojson"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    scn = scenario_with(bundle, output_dir=str(bundle / "out"))
    assert main(["econ", str(scn), "--plan", str(plan_path)]) == 0
    captured = capsys.readouterr().out
    assert "break_even_low=none" in captured
    assert "break_even_high=none" in captured


def test_econ_uses_plan_capex(bundle):
    scn = scenario_with(bundle, sensor_filter=["RF"], output_dir=str(bundle / "out"))
    assert main(["plan", str(scn)]) == 0
    assert main(["econ", str(scn), "--plan", str(bundle / "out" / "plan.geojson")]) == 0
    _, rows = read_csv(bundle / "out" / "cashflow.csv")
    assert float(rows[0]["sensor_capex"]) == 70_000.0
    assert all(float(r["sensor_capex"]) == 0.0 for r in rows[1:])


def test_econ_capex_is_exact_sum_of_install_costs(bundle, capsys):
    # Plain float summation of ten 0.1s gives 0.9999999999999999; the plan's
    # own total_cost uses math.fsum, and econ must price that same figure.
    plan = {
        "type": "FeatureCollection",
        "features": [{"type": "Feature", "properties": {"install_cost_usd": 0.1}} for _ in range(10)],
    }
    plan_path = bundle / "tenths.geojson"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    scn = scenario_with(bundle)
    assert main(["econ", str(scn), "--plan", str(plan_path)]) == 0
    _, rows = read_csv(bundle / "out" / "cashflow.csv")
    assert rows[0]["sensor_capex"] == "1.0"


def test_econ_rejects_malformed_plan(bundle, capsys):
    bad = bundle / "bad_plan.geojson"
    bad.write_text('{"features": [{}]}', encoding="utf-8")
    scn = scenario_with(bundle)
    assert main(["econ", str(scn), "--plan", str(bad)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "PARSE_ERROR"



@pytest.mark.parametrize(
    "cost_json,code",
    [("NaN", "VALIDATION_ERROR"), ("Infinity", "VALIDATION_ERROR"), ("-Infinity", "VALIDATION_ERROR"), ("true", "PARSE_ERROR")],
)
def test_econ_rejects_non_finite_or_non_number_install_cost(bundle, capsys, cost_json, code):
    # json.dumps would refuse NaN in strict mode, so the literal is written as is.
    plan_path = bundle / "odd_cost.geojson"
    plan_path.write_text(
        '{"type": "FeatureCollection", "features": [{"type": "Feature", "properties": {"install_cost_usd": %s}}]}' % cost_json,
        encoding="utf-8",
    )
    scn = scenario_with(bundle)
    assert main(["econ", str(scn), "--plan", str(plan_path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == code
    assert not (bundle / "out" / "cashflow.csv").exists()
    assert not (bundle / "out").exists()


# -- sweep ----------------------------------------------------------------------


def test_sweep_r_monotone_sensor_count(bundle):
    scn = scenario_with(bundle, sensor_filter=["Acoustic"], output_dir=str(bundle / "out"))
    assert main(["sweep", str(scn), "--parameter", "r", "--values", "0.96,0.99"]) == 0
    header, rows = read_csv(bundle / "out" / "sweep.csv")
    assert header[:5] == ["parameter", "value", "n_sites", "n_sensor_units", "total_cost_usd"]
    assert [r["value"] for r in rows] == ["0.96", "0.99"]
    assert int(rows[0]["n_sensor_units"]) <= int(rows[1]["n_sensor_units"])
    assert float(rows[0]["total_cost_usd"]) <= float(rows[1]["total_cost_usd"])


def test_sweep_fee_increases_npv_every_year(bundle):
    scn = scenario_with(bundle, sensor_filter=["RF"], output_dir=str(bundle / "out"))
    assert main(["sweep", str(scn), "--parameter", "fee", "--values", "100,400"]) == 0
    _, rows = read_csv(bundle / "out" / "sweep.csv")
    assert float(rows[1]["final_cum_npv_low"]) > float(rows[0]["final_cum_npv_low"])
    assert float(rows[1]["final_cum_npv_high"]) > float(rows[0]["final_cum_npv_high"])


def test_sweep_detection_scale_cost_nonincreasing(bundle):
    scn = scenario_with(bundle, sensor_filter=["Acoustic"], output_dir=str(bundle / "out"))
    assert main(["sweep", str(scn), "--parameter", "detection_scale", "--values", "0.95,1.0,1.05"]) == 0
    _, rows = read_csv(bundle / "out" / "sweep.csv")
    costs = [float(r["total_cost_usd"]) for r in rows]
    assert costs[0] >= costs[1] >= costs[2]


def test_detection_scale_sweep_checks_every_scaled_catalog_before_solving(bundle, monkeypatch):
    solves = []
    solve_exact = pipeline.solve_exact
    monkeypatch.setattr(pipeline, "solve_exact", lambda *a, **kw: solves.append(a) or solve_exact(*a, **kw))
    scenario = load_scenario(scenario_with(bundle, sensor_filter=["Acoustic"]))
    with pytest.raises(InvariantViolation, match="Acoustic: detect"):
        sweep(scenario, "detection_scale", [1.0, 5e-324])
    assert len(solves) == 0


def test_sweep_empty_values_exits_2(bundle, capsys):
    scn = scenario_with(bundle)
    assert main(["sweep", str(scn), "--parameter", "fee", "--values", ",,"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "VALIDATION_ERROR"


def test_sweep_unknown_parameter_exits_2(bundle, capsys):
    scn = scenario_with(bundle)
    assert main(["sweep", str(scn), "--parameter", "altitude", "--values", "1"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "VALIDATION_ERROR"


def test_sweep_negative_fee_exits_2_before_writing(bundle, capsys):
    scn = scenario_with(bundle, sensor_filter=["RF"], output_dir=str(bundle / "out"))
    assert main(["sweep", str(scn), "--parameter", "fee", "--values", "100,-1"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "VALIDATION_ERROR"
    assert not (bundle / "out").exists()


@pytest.fixture()
def footprint_builds(monkeypatch):
    """Every stencil walk coverage makes, the number of coverage tables the
    pipeline asks for, every run_plan result and every mesh the pipeline
    builds, in call order."""
    built, priced, results, meshes = [], [], [], []

    def walk_and_keep(*args, walk=coverage._footprints):
        built.append(walk(*args))
        return built[-1]

    def price_and_count(*args, build=pipeline.build_coverage, **kwargs):
        priced.append(args)
        return build(*args, **kwargs)

    def run_and_keep(scenario, run=pipeline.run_plan):
        results.append(run(scenario))
        return results[-1]

    def mesh_and_keep(*args, build=pipeline.build_mesh, **kwargs):
        meshes.append(build(*args, **kwargs))
        return meshes[-1]

    monkeypatch.setattr(coverage, "_footprints", walk_and_keep)
    monkeypatch.setattr(pipeline, "build_coverage", price_and_count)
    monkeypatch.setattr(pipeline, "run_plan", run_and_keep)
    monkeypatch.setattr(pipeline, "build_mesh", mesh_and_keep)
    return built, priced, results, meshes


def shares_covered(entries, pairs) -> bool:
    """Whether ``entries`` hold the very covered-set ints of ``pairs``, a walk's
    ``(cid, sensor, site, covered, mean_detect, None)`` rows, in order."""
    return len(entries) == len(pairs) and all(e.covered is p[3] for e, p in zip(entries, pairs))


def test_r_sweep_builds_footprints_once_per_call(bundle, footprint_builds):
    built, priced, results, meshes = footprint_builds
    scenario = load_scenario(scenario_with(bundle, sensor_filter=["Acoustic", "RF"]))
    sweep(scenario, "r", [0.9, 0.95, 0.99])
    assert len(built) == 1 and len(priced) == 3 and len(meshes) == 1
    assert all(shares_covered(r.coverage.entries, built[0][0]) for r in results)
    assert all(r.mesh is r.coverage.mesh is meshes[0] for r in results)
    assert pipeline._sweep_table.get() is None
    # Nothing outlives the call: the next sweep and a lone run_plan build again.
    sweep(scenario, "r", [0.9])
    lone = pipeline.run_plan(scenario)
    assert shares_covered(lone.coverage.entries, built[2][0])
    assert len(built) == 3 and len(meshes) == 3
    assert lone.mesh is lone.coverage.mesh is meshes[2]


def test_sweep_point_that_raises_releases_the_footprints(bundle, footprint_builds, monkeypatch):
    solves = []

    def fail_second(instance, node_budget, solve=pipeline.solve_exact):
        solves.append(instance)
        if len(solves) == 2:
            raise RuntimeError("second point fails")
        return solve(instance, node_budget=node_budget)

    monkeypatch.setattr(pipeline, "solve_exact", fail_second)
    scenario = load_scenario(scenario_with(bundle, sensor_filter=["RF"]))
    with pytest.raises(RuntimeError, match="second point"):
        sweep(scenario, "r", [0.9, 0.95, 0.99])
    assert pipeline._sweep_table.get() is None
    assert len(solves) == 2


def test_r_sweep_solves_with_only_the_latest_table(bundle, monkeypatch):
    # The previous point's table is needed only to price the next one; held
    # through the solve, it would double the candidates alive at the peak.
    tables, alive = [], []

    def build_and_watch(*args, build=pipeline.build_coverage, **kwargs):
        table = build(*args, **kwargs)
        tables.append(weakref.ref(table))
        return table

    def count_and_solve(instance, node_budget, solve=pipeline.solve_exact):
        alive.append(sum(t() is not None for t in tables))
        return solve(instance, node_budget=node_budget)

    monkeypatch.setattr(pipeline, "build_coverage", build_and_watch)
    monkeypatch.setattr(pipeline, "solve_exact", count_and_solve)
    sweep(load_scenario(scenario_with(bundle, sensor_filter=["RF"])), "r", [0.9, 0.95, 0.99])
    assert alive == [1, 1, 1]


def test_detection_scale_sweep_builds_footprints_at_every_point(bundle, footprint_builds):
    built, _, results, meshes = footprint_builds
    scenario = load_scenario(scenario_with(bundle, sensor_filter=["RF"]))
    sweep(scenario, "detection_scale", [0.9, 1.0, 0.9])
    assert len(built) == 3 and len(meshes) == 3
    assert all(shares_covered(r.coverage.entries, walk[0]) for r, walk in zip(results, built))
    zetas = [[e.mean_detect for e in r.coverage.entries] for r in results]
    assert zetas[0] == zetas[2] != zetas[1]


def _sweep_csv_then_failure(bundle):
    scn = load_scenario(scenario_with(bundle, sensor_filter=["RF"]))
    rows = sweep(scn, "fee", [100.0, 400.0])
    path = bundle / "sweep.csv"
    write_sweep_csv(path, rows)

    def rows_then_failure():
        yield rows[0]
        raise RuntimeError("interrupted")

    return path, lambda: write_sweep_csv(path, rows_then_failure()), RuntimeError


def _json_then_failure(bundle):
    # json.dump streams into the file, so the encoder has written the first
    # features before it reaches the object it cannot serialise.
    path = bundle / "doc.json"
    features = [{"id": i, "properties": {"n": i}} for i in range(200)]
    pipeline.write_json(path, {"features": features})
    return path, lambda: pipeline.write_json(path, {"features": features + [object()]}), TypeError


def _mesh_geojson_then_failure(bundle):
    # A terrain code with no label fails a few hundred features in, after the
    # writer has flushed the first of them to the .tmp file.
    from helpers import square_mesh

    mesh = square_mesh(15)
    path = bundle / "mesh.geojson"
    pipeline.write_mesh_geojson(path, mesh)
    broken = replace(mesh, terrain=np.append(mesh.terrain[:-1], 99))
    return path, lambda: pipeline.write_mesh_geojson(path, broken), KeyError


@pytest.mark.parametrize(
    "make_failure",
    [_sweep_csv_then_failure, _json_then_failure, _mesh_geojson_then_failure],
    ids=["write_sweep_csv", "write_json", "write_mesh_geojson"],
)
def test_failed_sweep_write_keeps_previous_file(bundle, make_failure):
    path, write_then_fail, error = make_failure(bundle)
    before = path.read_bytes()
    with pytest.raises(error):
        write_then_fail()
    assert path.read_bytes() == before
    assert not list(bundle.glob("*.tmp"))


# -- validate and determinism ------------------------------------------------------


def test_validate_ok(bundle, capsys):
    scn = scenario_with(bundle)
    assert main(["validate", str(scn)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_rejects_negative_fee(capsys):
    assert main(["validate", str(bundled_minicity_path()), "--fee", "-400"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "VALIDATION_ERROR"


@pytest.mark.parametrize(
    "field,value",
    [("monthly_fee_usd", -1), ("initial_subscribers", -1), ("discount_rate", -1.0), ("discount_rate", -2.5)],
)
def test_validate_rejects_bad_econ_scalars(bundle, capsys, field, value):
    scn = scenario_with(bundle, econ={field: value})
    assert main(["validate", str(scn)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "VALIDATION_ERROR"


def test_validate_rejects_bad_rounding(bundle, capsys):
    scn = scenario_with(bundle, rounding="sideways")
    assert main(["validate", str(scn)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "VALIDATION_ERROR"


@pytest.mark.parametrize("command", ["validate", "plan"])
@pytest.mark.parametrize(
    "changes, field",
    [
        ({"required_detection": 0.0}, "required_detection"),
        ({"required_detection": 1.0}, "required_detection"),
        ({"solver": {"mode": "fastest"}}, "solver.mode"),
        ({"solver": {"node_budget": 0}}, "solver.node_budget"),
    ],
    ids=["r-zero", "r-one", "solver-mode", "node-budget"],
)
def test_scenario_scalar_out_of_range_exits_2(bundle, capsys, command, changes, field):
    assert main([command, str(scenario_with(bundle, **changes))]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "VALIDATION_ERROR"
    assert err["message"].startswith(f"{field} must be")
    assert not (bundle / "out").exists()


def test_cli_overrides_r_and_out(bundle):
    scn = scenario_with(bundle, sensor_filter=["Acoustic"])
    assert main(["plan", str(scn), "--r", "0.96", "--out", str(bundle / "r96")]) == 0
    assert main(["plan", str(scn), "--r", "0.99", "--out", str(bundle / "r99")]) == 0
    _, lo = read_csv(bundle / "r96" / "summary.csv")
    _, hi = read_csv(bundle / "r99" / "summary.csv")
    assert int(lo[0]["n_sensor_units"]) <= int(hi[0]["n_sensor_units"])


def test_repeated_runs_are_byte_identical(bundle):
    scn = scenario_with(bundle, sensor_filter=["Radar", "Acoustic", "OpticalCamera"])
    assert main(["plan", str(scn), "--out", str(bundle / "one")]) == 0
    assert main(["plan", str(scn), "--out", str(bundle / "two")]) == 0
    assert main(["econ", str(scn), "--plan", str(bundle / "one" / "plan.geojson"), "--out", str(bundle / "one")]) == 0
    assert main(["econ", str(scn), "--plan", str(bundle / "two" / "plan.geojson"), "--out", str(bundle / "two")]) == 0
    assert main(["sweep", str(scn), "--parameter", "fee", "--values", "100,400", "--out", str(bundle / "one")]) == 0
    assert main(["sweep", str(scn), "--parameter", "fee", "--values", "100,400", "--out", str(bundle / "two")]) == 0
    for name in ("mesh.geojson", "plan.geojson", "heatmap.csv", "summary.csv", "coverage.csv", "cashflow.csv", "sweep.csv"):
        assert (bundle / "one" / name).read_bytes() == (bundle / "two" / name).read_bytes(), name


def wide_area(bundle):
    """Scenario ``area`` of a map 7 blocks wide and 5 tall, with OUTSIDE_AREA
    (-1) and WATER (1) cells; its terrain file is written into ``bundle``."""
    from helpers import corners_for

    terrain = "0,0,2,1,1,-1,-1\n0,2,4,4,1,0,-1\n3,2,4,4,2,0,0\n3,3,2,0,2,1,0\n-1,3,0,0,0,1,0\n"
    (bundle / "wide.csv").write_text(terrain, encoding="utf-8")
    return {"corners": [[c.lon, c.lat] for c in corners_for(2.1, 1.5)], "block_side_km": 0.3, "terrain_grid": "wide.csv"}


def test_plan_artifacts_format_the_mesh_without_its_oracle(bundle, monkeypatch):
    """mesh.geojson comes from the template writer, not from mesh_to_geojson
    and json.dump, so the oracle the writer is checked against stays apart."""
    result = run_plan(load_scenario(scenario_with(bundle, area=wide_area(bundle))))
    expected = json.dumps(pipeline.mesh_to_geojson(result.mesh), sort_keys=True, indent=2) + "\n"
    dumped = []
    real_dump = json.dump

    def spy_dump(doc, fp, **kwargs):
        dumped.append(Path(fp.name).name)
        real_dump(doc, fp, **kwargs)

    def no_oracle(mesh):
        raise AssertionError("mesh_to_geojson called while writing artifacts")

    monkeypatch.setattr(pipeline, "mesh_to_geojson", no_oracle)
    monkeypatch.setattr(json, "dump", spy_dump)
    paths = pipeline.write_plan_artifacts(result, bundle / "out")
    monkeypatch.undo()
    assert dumped == ["plan.geojson.tmp"]
    assert paths["mesh"].read_text(encoding="utf-8") == expected


def test_artifact_bytes_are_pinned(bundle):
    """Recorded digests of a non-square, mixed-terrain plan under the default
    catalog, its cash flows from the default and a later start year, and a fee
    sweep.  Repeated runs agree with each other even after a change that moves
    a zeta by one ulp, a covered set by one block or capex by one row; this
    does not."""
    area = wide_area(bundle)
    scn = str(scenario_with(bundle, area=area))
    assert main(["plan", scn]) == 0
    assert main(["econ", scn, "--plan", str(bundle / "out" / "plan.geojson")]) == 0
    assert main(["sweep", scn, "--parameter", "fee", "--values", "100,400"]) == 0
    later = str(scenario_with(bundle, "later.json", area=area, output_dir=str(bundle / "later"),
                              econ={"start_year": 2030, "horizon_years": 3}))
    assert main(["econ", later, "--plan", str(bundle / "out" / "plan.geojson")]) == 0
    names = ("cashflow.csv", "coverage.csv", "heatmap.csv", "mesh.geojson", "plan.geojson", "summary.csv", "sweep.csv")
    paths = {name: bundle / "out" / name for name in names} | {"cashflow-2030.csv": bundle / "later" / "cashflow.csv"}
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}
    assert digests == {
        "cashflow.csv": "612c0a4b170b06bb12bac0b87e8bfdbc7b23c8abc47b83f7fcfa111c87ccd66e",
        "cashflow-2030.csv": "b297f0ff405753583945e126038686063c83f011aa449de56f5dbc93d6166ca1",
        "coverage.csv": "43d6c81a1f764cb140a55ad275eb92c7016b3debb28421a2c36a9bbe5c67f965",
        "heatmap.csv": "45253cf671ea7fb8ef7000f70050f5a84f831e287aacec82628b618cef9f5658",
        "mesh.geojson": "650add1763fceb0a3b291caca02703bd6bf8dc412990142592208007f327dd8d",
        "plan.geojson": "2c7e3bd0f50a14d5be8661cbfd18745561099fd85695827bebe186df3fc74642",
        "summary.csv": "b363b7b4466fb7b43d7e0b27e40592e6de5ab53fdc3d558e08b70234b903ebc5",
        "sweep.csv": "10f77a60ad70452513924fa70ea04700d5f8ffbdb77f4a248d7ce2e8f281d236",
    }


# -- writers against their per-row oracles --------------------------------------


def coverage_text(tmp_path, table):
    pipeline.write_coverage_csv(tmp_path / "coverage.csv", table)
    return (tmp_path / "coverage.csv").read_bytes().decode("utf-8")


def test_writers_match_their_per_row_oracles_on_the_minicity_bundle(bundle):
    result = run_plan(load_scenario(bundle / "minicity.json"))
    assert len({e.sensor for e in result.coverage.entries}) > 1
    assert coverage_text(bundle, result.coverage) == coverage_csv_oracle(result.coverage)
    for sensor in result.catalog.names:
        pipeline.write_heatmap_csv(bundle / "heatmap.csv", result.mesh, result.catalog, sensor)
        expected = heatmap_csv_oracle(result.mesh, result.catalog, sensor)
        assert (bundle / "heatmap.csv").read_bytes().decode("utf-8") == expected, sensor


def test_coverage_writer_matches_its_oracle_on_entries_that_share_one_mask(tmp_path):
    # ADS-B reaches every block from each site, so its entries hold one int
    # and one mean detection probability, and their rows reuse one text.
    rng = random.Random(6)
    codes = [[rng.choice([0, 1, 2, 3, 4]) for _ in range(6)] for _ in range(6)]
    table = build_coverage(square_mesh(6, codes), default_catalog().filtered(["ADS-B", "Acoustic", "RF"]), 0.98)
    adsb = [e for e in table.entries if e.sensor == "ADS-B"]
    assert len(adsb) == 32 and len({(id(e.covered), id(e.mean_detect)) for e in adsb}) == 1
    assert coverage_text(tmp_path, table) == coverage_csv_oracle(table)


def test_coverage_writer_matches_its_oracle_on_a_repriced_table(tmp_path):
    rng = random.Random(7)
    codes = [[rng.choice([-1, 0, 1, 2, 3, 4]) for _ in range(7)] for _ in range(5)]
    codes[0][0] = 0
    mesh = rect_mesh(7, 5, codes)
    catalog = default_catalog().filtered(["Acoustic", "OpticalCamera", "RF"])
    first = build_coverage(mesh, catalog, 0.9)
    for r in (0.9, 0.95, 0.99):
        table = build_coverage(mesh, catalog, r, like=first)
        assert coverage_text(tmp_path, table) == coverage_csv_oracle(table)
        assert coverage_text(tmp_path, table) == coverage_text(tmp_path, build_coverage(mesh, catalog, r))


def test_coverage_writer_matches_its_oracle_across_a_sensor_boundary(tmp_path):
    full, part = 0b11111, 0b10110
    zeta = 0.25
    table = CoverageTable(
        mesh=None,
        entries=(
            Candidate("A@000001", part, 300.0, "A", 1, 3, 0.5),
            Candidate("A@000002", full, 100.0, "A", 2, 1, zeta),
            # The next sensor's run starts with the same mask and mean
            # objects, and a cost equal to the last one but of another type.
            Candidate("B@000002", full, 100, "B", 2, 1, zeta),
            # The same mask object with another mean, then another mask at
            # the same cost.
            Candidate("B@000003", full, 100, "B", 3, 1, 0.75),
            Candidate("B@000004", part, 100, "B", 4, 1, 0.75),
        ),
    )
    text = coverage_text(tmp_path, table)
    assert text == coverage_csv_oracle(table)
    assert text.splitlines()[3:] == ["B,2,5,0.25,0.75,1,100", "B,3,5,0.75,0.25,1,100", "B,4,3,0.75,0.25,1,100"]


def test_free_text_csv_fields_are_quoted_and_read_back(bundle):
    # A scenario name and a sensor name with a comma, double quotes and a
    # line break: each must stay one field of its row.
    odd = 'RF, "long"\nrange'
    doc = json.loads((bundled_minicity_path().parent / "catalog.json").read_text(encoding="utf-8"))
    for spec in doc["sensors"]:
        if spec["name"] == "RF":
            spec["name"] = odd
    (bundle / "odd.json").write_text(json.dumps(doc), encoding="utf-8")
    name = 'Dayton, "OH"\nnorth'
    scn = scenario_with(bundle, name=name, catalog="odd.json", sensor_filter=[odd, "ADS-B"])
    assert main(["plan", str(scn)]) == 0
    with open(bundle / "out" / "summary.csv", newline="", encoding="utf-8") as fp:
        summary = list(csv.reader(fp))
    assert [row[:2] for row in summary] == [["city", "sensor_filter"], [name, f"ADS-B+{odd}"]]
    assert [len(row) for row in summary] == [6, 6]
    with open(bundle / "out" / "coverage.csv", newline="", encoding="utf-8") as fp:
        rows = list(csv.reader(fp))
    table = run_plan(load_scenario(scn)).coverage
    assert len(rows) == 1 + len(table.entries)
    assert all(len(row) == 7 for row in rows)
    assert [row[0] for row in rows[1:]] == [e.sensor for e in table.entries]
    assert {row[0] for row in rows[1:]} == {odd, "ADS-B"}


# Traffic hours given outright for two years, one of them naming two classes
# only; every other year grows from the base year.
PER_YEAR_TRAFFIC = {
    "2026": {"cooperative_manned": 1500, "cooperative_uncrewed": 45000.5, "non_cooperative": 900},
    "2029": {"cooperative_manned": 100, "non_cooperative": 4000},
}


@pytest.mark.parametrize(
    "econ,traffic,digest",
    [
        ({"subscriber_rounding": "ceil"}, {}, "2d7f5daa98dbe9c1f2f83efeaa1994f2e1b2fd862ffd244ccaddf2db226897fb"),
        ({"subscriber_rounding": "floor"}, {}, "fe14d799a842c176d0f6319f1598eb0734beb8570c71a3515f1ea08482f73acb"),
        ({"subscriber_rounding": "nearest"}, {}, "35a258d39120b7629ba4ecf4055b12a8524fb1b202c428822726574d523125d1"),
        ({"growth_lag_years": 0}, {}, "e9561c92db95cdb49984be9f3bf2e2209bf54247c41683dbc41b722e02457195"),
        ({"growth_lag_years": 3, "start_year": 2030}, {}, "037fb49bbdf7688662b39d531b1669a959c1dfac5bca32b712533a91faac2f49"),
        ({}, {"per_year": PER_YEAR_TRAFFIC}, "83689e46cb476982d929dd0e6d8018ea95fd22df4ef738a34fc3bd4900622703"),
        (
            {"discount_rate": -0.05, "initial_subscribers": 37.5, "monthly_fee_usd": 399.99},
            {},
            "a5c704d90807a7a4ac181cfbe9329a5807de3cb9720059a9364cad52e5387b2a",
        ),
    ],
    ids=["ceil", "floor", "nearest", "lag-0", "lag-3-from-2030", "per-year-traffic", "negative-discount"],
)
def test_cashflow_bytes_are_pinned(bundle, econ, traffic, digest):
    """Recorded digests of ``cashflow.csv`` under each subscriber rounding, two
    growth lags, explicit traffic years and a negative discount rate."""
    doc = json.loads((bundle / "traffic.json").read_text(encoding="utf-8"))
    (bundle / "traffic.json").write_text(json.dumps(doc | traffic), encoding="utf-8")
    plan = bundle / "plan.geojson"
    plan.write_text(json.dumps({"features": [{"properties": {"install_cost_usd": 1234567.5}}]}), encoding="utf-8")
    assert main(["econ", str(scenario_with(bundle, econ=econ)), "--plan", str(plan)]) == 0
    assert hashlib.sha256((bundle / "out" / "cashflow.csv").read_bytes()).hexdigest() == digest


def test_n0_sweep_bytes_are_pinned(bundle):
    scn = scenario_with(bundle, econ={"subscriber_rounding": "nearest"})
    assert main(["sweep", str(scn), "--parameter", "n0", "--values", "10,50.5,100,1000"]) == 0
    digest = hashlib.sha256((bundle / "out" / "sweep.csv").read_bytes()).hexdigest()
    assert digest == "224510aeed4b8f539cd5754515e3fc28609038a8da9a27ac0dde270fc57c2380"


R_SWEEP_VALUES = (0.9, 0.95, 0.98, 0.99)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "rounding,sweep_digest,coverage_digest",
    [
        (
            "ceil",
            "b47eef4dc16446c8af55bb8be451b44b09fadcecfa33547fac4a1a0d55a886c7",
            "b42ef2ddb1313b06ca0196a651691c497e86203584c9cb444c6f209933bee231",
        ),
        (
            "nearest",
            "3d2b6b76aae5c2272adc4d22b2b54ce264ffb27f04e851723ea6601b005d0d15",
            "40ddc7c4d614de5d58a27c56cee9ed546c1b540c18749dc9e94f2635784712a9",
        ),
        (
            "floor",
            "837fc2104c1d3ea5276fa7d30cf7b91382c845a16ec529c66d6dfb4fdb15a9de",
            "fbaf4e83fe81c3decc3739801da34832d6574df0e9d190ac9dd90f510e49713a",
        ),
    ],
    ids=["ceil", "nearest", "floor"],
)
def test_r_sweep_bytes_are_pinned(bundle, monkeypatch, rounding, sweep_digest, coverage_digest):
    """Recorded digests of an r sweep on the wide mixed-terrain map under each
    unit rounding, and of the concatenated ``coverage.csv`` of its points, as
    the sweep builds them and as a lone ``run_plan`` per point does."""
    scn = scenario_with(bundle, area=wide_area(bundle), rounding=rounding)
    values = ",".join(repr(r) for r in R_SWEEP_VALUES)
    assert main(["sweep", str(scn), "--parameter", "r", "--values", values]) == 0
    assert sha256((bundle / "out" / "sweep.csv").read_bytes()) == sweep_digest

    def coverage_bytes(results):
        for i, result in enumerate(results):
            pipeline.write_coverage_csv(bundle / f"coverage-{i}.csv", result.coverage)
        return b"".join((bundle / f"coverage-{i}.csv").read_bytes() for i in range(len(results)))

    scenario = load_scenario(scn)
    alone = [run_plan(with_overrides(scenario, required_detection=r)) for r in R_SWEEP_VALUES]
    swept = []

    def run_and_keep(s, run_plan=pipeline.run_plan):
        swept.append(run_plan(s))
        return swept[-1]

    monkeypatch.setattr(pipeline, "run_plan", run_and_keep)
    sweep(scenario, "r", R_SWEEP_VALUES)
    assert sha256(coverage_bytes(alone)) == coverage_digest
    assert sha256(coverage_bytes(swept)) == coverage_digest


def test_detection_scale_sweep_bytes_are_pinned(bundle):
    scn = scenario_with(bundle, area=wide_area(bundle))
    assert main(["sweep", str(scn), "--parameter", "detection_scale", "--values", "0.9,1.0,1.05"]) == 0
    digest = sha256((bundle / "out" / "sweep.csv").read_bytes())
    assert digest == "cbbf30d59422050732eed89fc19c16b16394c6f8733ed7ae20a12fb6c70a18b9"


def test_heatmap_sensor_must_be_admitted(bundle, capsys):
    scn = scenario_with(bundle, sensor_filter=["RF"], heatmap_sensor="Radar", output_dir=str(bundle / "out"))
    assert main(["plan", str(scn)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "VALIDATION_ERROR"
    assert not (bundle / "out").exists()


# -- input checks before any solve or write -------------------------------------

# json.dumps writes nan and inf as the JSON extensions NaN and Infinity.
NON_FINITE_CASES = (
    [pytest.param(["--fee", v], {}, id=f"cli-fee-{v}") for v in ("nan", "inf")]
    + [pytest.param([], {"detection_scale": v}, id=f"json-detection_scale-{v}") for v in (math.nan, math.inf)]
    + [
        pytest.param([], {"econ": {field: v}}, id=f"json-{field}-{v}")
        for field in ("monthly_fee_usd", "initial_subscribers", "growth_low", "growth_high", "discount_rate")
        for v in (math.nan, math.inf)
    ]
)


@pytest.mark.parametrize("args,changes", NON_FINITE_CASES)
def test_non_finite_scalars_exit_2(bundle, capsys, args, changes):
    scn = scenario_with(bundle, **changes)
    empty_plan = bundle / "empty_plan.geojson"
    empty_plan.write_text(json.dumps({"type": "FeatureCollection", "features": []}), encoding="utf-8")
    assert main(["validate", str(scn), *args]) == 2
    assert main(["econ", str(scn), "--plan", str(empty_plan), *args]) == 2
    errors = [json.loads(line)["error"] for line in capsys.readouterr().err.splitlines()]
    assert errors == ["VALIDATION_ERROR", "VALIDATION_ERROR"]
    assert not (bundle / "out").exists()


@pytest.mark.parametrize(
    "changes",
    [
        pytest.param({"solver": {"mode": "exact", "node_budget": math.inf}}, id="node_budget"),
        pytest.param({"econ": {"horizon_years": math.inf}}, id="horizon_years"),
        pytest.param({"solver": {"mode": "exact", "node_budget": 1.9}}, id="node_budget-fraction"),
        pytest.param({"solver": {"mode": "exact", "node_budget": True}}, id="node_budget-bool"),
        pytest.param({"solver": {"mode": "exact", "node_budget": "300"}}, id="node_budget-string"),
        pytest.param({"econ": {"horizon_years": 10.9}}, id="horizon_years-fraction"),
        pytest.param({"econ": {"start_year": 2024.5}}, id="start_year-fraction"),
        pytest.param({"econ": {"growth_lag_years": 1.7}}, id="growth_lag_years-fraction"),
        pytest.param({"econ": {"horizon_years": None}}, id="horizon_years-null"),
        pytest.param({"traffic": {"base_year": 2024.9}}, id="traffic-base_year-fraction"),
    ],
)
def test_infinite_integer_field_is_a_parse_error(bundle, capsys, changes):
    # int() raised OverflowError on inf, and truncated a fraction or a bool
    # without a word.  An integer field takes an integral JSON number only.
    changes = dict(changes)
    if "traffic" in changes:
        doc = json.loads((bundle / "traffic.json").read_text(encoding="utf-8"))
        doc.update(changes.pop("traffic"))
        (bundle / "traffic.json").write_text(json.dumps(doc), encoding="utf-8")
    scn = scenario_with(bundle, **changes)
    assert main(["validate", str(scn)]) == 2
    assert main(["plan", str(scn)]) == 2
    errors = [json.loads(line)["error"] for line in capsys.readouterr().err.splitlines()]
    assert errors == ["PARSE_ERROR", "PARSE_ERROR"]
    assert not (bundle / "out").exists()


def test_integral_float_is_an_integer_field(bundle):
    scn = scenario_with(bundle, econ={"horizon_years": 10.0}, solver={"mode": "exact", "node_budget": 5e3})
    assert main(["validate", str(scn)]) == 0
    scenario = load_scenario(scn)
    assert scenario.econ.horizon_years == 10 and type(scenario.econ.horizon_years) is int
    assert scenario.node_budget == 5000 and type(scenario.node_budget) is int


@pytest.mark.parametrize(
    "field,value",
    [("apply_dominance_filter", v) for v in ("false", 0, 1, None)]
    + [("tracks_noncooperative", v) for v in ("false", 0, None)],
)
def test_boolean_field_must_be_json_true_or_false(bundle, capsys, field, value):
    # bool("false") is true: the filter switched on, or ADS-B passed as a
    # non-cooperative tracker.
    if field == "tracks_noncooperative":
        doc = json.loads((bundled_minicity_path().parent / "catalog.json").read_text(encoding="utf-8"))
        for entry in doc["sensors"]:
            if entry["name"] == "ADS-B":
                entry[field] = value
        (bundle / "catalog.json").write_text(json.dumps(doc), encoding="utf-8")
        changes = {"catalog": "catalog.json", "sensor_filter": "noncooperative_capable"}
    else:
        changes = {field: value, "sensor_filter": ["Radar", "RF", "Acoustic", "OpticalCamera"]}
    scn = scenario_with(bundle, **changes)
    assert main(["validate", str(scn)]) == 2
    assert main(["plan", str(scn)]) == 2
    errors = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [e["error"] for e in errors] == ["PARSE_ERROR", "PARSE_ERROR"]
    assert all(field in e["message"] for e in errors)
    assert not (bundle / "out").exists()


@pytest.mark.parametrize(
    "section,value",
    [("econ", []), ("econ", "x"), ("solver", []), ("solver", 5)],
    ids=["econ-list", "econ-str", "solver-list", "solver-int"],
)
def test_section_of_wrong_json_type_is_a_parse_error(bundle, capsys, section, value):
    scn = scenario_with(bundle)
    doc = json.loads(scn.read_text(encoding="utf-8"))
    doc[section] = value
    scn.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(scn)]) == 2
    assert main(["plan", str(scn)]) == 2
    errors = [json.loads(line)["error"] for line in capsys.readouterr().err.splitlines()]
    assert errors == ["PARSE_ERROR", "PARSE_ERROR"]
    assert not (bundle / "out").exists()


def test_sweep_non_finite_fee_exits_2_before_writing(bundle, capsys):
    scn = scenario_with(bundle, sensor_filter=["RF"])
    assert main(["sweep", str(scn), "--parameter", "fee", "--values", "100,nan"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "VALIDATION_ERROR"
    assert not (bundle / "out").exists()


def _writing_command(bundle, command, scn) -> list:
    """argv of a command that writes into the output directory; econ prices an empty plan."""
    if command == "econ":
        plan = bundle / "empty_plan.geojson"
        plan.write_text(json.dumps({"type": "FeatureCollection", "features": []}), encoding="utf-8")
        return ["econ", str(scn), "--plan", str(plan)]
    if command == "sweep":
        return ["sweep", str(scn), "--parameter", "fee", "--values", "100"]
    return ["plan", str(scn)]


def _no_run_plan(monkeypatch) -> list:
    """Replace run_plan wherever the CLI and the pipeline look it up; the list
    returned records each call, and a call fails the command."""
    calls = []

    def no_plan(*args, **kwargs):
        calls.append(args)
        raise AssertionError("run_plan called for a scenario that fails its checks")

    monkeypatch.setattr(pipeline, "run_plan", no_plan)
    monkeypatch.setattr(cli, "run_plan", no_plan)
    return calls


@pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under-file"])
@pytest.mark.parametrize("command", ["plan", "econ", "sweep", "validate"])
def test_unwritable_output_path_exits_2(bundle, capsys, monkeypatch, command, sub):
    scn = scenario_with(bundle, sensor_filter=["RF"])
    blocker = bundle / "blocker"
    blocker.write_text("not a directory", encoding="utf-8")
    out = blocker / sub
    _no_run_plan(monkeypatch)
    argv = ["validate", str(scn)] if command == "validate" else _writing_command(bundle, command, scn)
    assert main(argv + ["--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "VALIDATION_ERROR"
    assert err["message"].startswith(f"cannot write {out}")
    assert blocker.read_text(encoding="utf-8") == "not a directory"
    assert not list(bundle.rglob("*.tmp"))


@pytest.mark.parametrize("target", ["under-file", "directory"])
def test_write_that_fails_is_a_validation_error_and_leaves_no_tmp(tmp_path, target):
    # Under a regular file the parent cannot be made; over a directory the
    # written .tmp cannot be moved into place and must be removed.
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory", encoding="utf-8")
    path = blocker / "doc.json" if target == "under-file" else tmp_path / "doc.json"
    if target == "directory":
        path.mkdir()
    with pytest.raises(ValidationError) as raised:
        pipeline.write_json(path, {"a": 1})
    assert str(raised.value).startswith(f"cannot write {path}: ")
    assert blocker.read_text(encoding="utf-8") == "not a directory"
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize(
    "econ,code",
    [
        ({"horizon_years": 5000}, "TOO_LARGE"),
        ({"growth_high": 3.0, "horizon_years": 1000}, "VALIDATION_ERROR"),  # 4 ** 1000 overflows
        ({"growth_high": 1.0, "horizon_years": 1000}, "VALIDATION_ERROR"),  # 2 ** 998 is finite, the flows are not
        ({"discount_rate": 10.0, "horizon_years": 1000}, "VALIDATION_ERROR"),  # 11 ** 1000 overflows
        ({"discount_rate": -0.9999, "horizon_years": 100}, "VALIDATION_ERROR"),  # 1e-400 is 0.0
    ],
    ids=["horizon-5000", "growth-overflow", "growth-product-overflow", "discount-overflow", "discount-underflow"],
)
@pytest.mark.parametrize("command", ["validate", "econ", "sweep"])
def test_compounding_beyond_float_range_exits_2_before_writing(bundle, capsys, monkeypatch, command, econ, code):
    scn = scenario_with(bundle, sensor_filter=["RF"], econ=econ)
    argv = ["validate", str(scn)] if command == "validate" else _writing_command(bundle, command, scn)
    plan_calls = _no_run_plan(monkeypatch)
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err)["error"] == code
    assert plan_calls == []
    assert not (bundle / "out").exists()


@pytest.mark.parametrize("command", ["validate", "sweep"])
def test_traffic_beyond_top_ingest_tier_exits_2_before_solving(bundle, capsys, monkeypatch, command):
    pricing = json.loads((bundle / "pricing.json").read_text(encoding="utf-8"))
    del pricing["ingest"]["overflow_usd_per_byte"]
    (bundle / "pricing.json").write_text(json.dumps(pricing), encoding="utf-8")
    scn = scenario_with(bundle, sensor_filter=["RF"], econ={"growth_high": 0.5, "horizon_years": 20})
    argv = ["validate", str(scn)] if command == "validate" else _writing_command(bundle, command, scn)
    plan_calls = _no_run_plan(monkeypatch)
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "VOLUME_ABOVE_TOP_TIER"
    assert plan_calls == []
    assert not (bundle / "out").exists()


def test_oversized_area_exits_2_too_large_before_writing(bundle, capsys):
    from helpers import corners_for

    # 200x200 open blocks under the six-type default catalog: 6 x 40 000 x 40 000.
    (bundle / "big.csv").write_text("\n".join(",".join("0" * 200) for _ in range(200)) + "\n", encoding="utf-8")
    area = {"corners": [[c.lon, c.lat] for c in corners_for(60.0, 60.0)], "block_side_km": 0.3, "terrain_grid": "big.csv"}
    scn = scenario_with(bundle, area=area)
    assert main(["plan", str(scn)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "TOO_LARGE"
    assert "40000 candidate site(s)" in err["message"]
    assert not (bundle / "out").exists()


def test_duplicate_filter_name_is_admitted_once(bundle, capsys):
    scn = scenario_with(bundle, sensor_filter=["RF", "RF"])
    assert main(["validate", str(scn)]) == 0
    assert "sensors: RF)" in capsys.readouterr().out
    assert main(["plan", str(scn)]) == 0
    _, rows = read_csv(bundle / "out" / "summary.csv")
    assert rows[0]["sensor_filter"] == "RF"


def test_unadmitted_heatmap_sensor_fails_before_coverage(bundle, capsys, monkeypatch):
    scn = scenario_with(bundle, sensor_filter=["RF"], heatmap_sensor="Nope")
    assert main(["validate", str(scn)]) == 2

    def no_coverage(*args, **kwargs):
        raise AssertionError("coverage built for a scenario that fails its checks")

    monkeypatch.setattr(pipeline, "build_coverage", no_coverage)
    assert main(["plan", str(scn)]) == 2
    errors = [json.loads(line)["error"] for line in capsys.readouterr().err.splitlines()]
    assert errors == ["VALIDATION_ERROR", "VALIDATION_ERROR"]
    assert not (bundle / "out").exists()


@pytest.mark.parametrize("target", ["scenario", "catalog", "terrain", "pricing", "traffic"])
def test_non_utf8_input_file_is_a_parse_error(bundle, capsys, target):
    shutil.copy(bundled_minicity_path().parent / "catalog.json", bundle / "catalog.json")
    scn = scenario_with(bundle, catalog="catalog.json")
    files = {
        "scenario": scn,
        "catalog": bundle / "catalog.json",
        "terrain": bundle / "minicity_terrain.csv",
        "pricing": bundle / "pricing.json",
        "traffic": bundle / "traffic.json",
    }
    files[target].write_bytes(b"\xff" + files[target].read_bytes())
    assert main(["validate", str(scn)]) == 2
    assert main(["plan", str(scn)]) == 2
    errors = [json.loads(line)["error"] for line in capsys.readouterr().err.splitlines()]
    assert errors == ["PARSE_ERROR", "PARSE_ERROR"]
    assert not (bundle / "out").exists()


@pytest.mark.parametrize(
    "target,edit",
    [
        ("catalog", lambda doc: doc["sensors"][0].update(range_km="far")),
        ("pricing", lambda doc: doc["ingest"]["tiers"][0].update(max_bytes="lots")),
        ("traffic", lambda doc: doc["hours"].update(non_cooperative="many")),
    ],
    ids=["catalog", "pricing", "traffic"],
)
def test_malformed_input_value_is_a_parse_error(bundle, capsys, target, edit):
    shutil.copy(bundled_minicity_path().parent / "catalog.json", bundle / "catalog.json")
    scn = scenario_with(bundle, catalog="catalog.json")
    path = bundle / f"{target}.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(scn)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "PARSE_ERROR"
    assert target in err["message"]


# id: (file, path to the field, value, field name in the message)
NON_NUMBER_CASES = {
    "fee-true": ("scenario", ("econ", "monthly_fee_usd"), True, "econ.monthly_fee_usd"),
    "n0-true": ("scenario", ("econ", "initial_subscribers"), True, "econ.initial_subscribers"),
    "growth_high-string": ("scenario", ("econ", "growth_high"), "0.2", "econ.growth_high"),
    "discount_rate-false": ("scenario", ("econ", "discount_rate"), False, "econ.discount_rate"),
    "r-string": ("scenario", ("required_detection",), "0.98", "required_detection"),
    "detection_scale-true": ("scenario", ("detection_scale",), True, "detection_scale"),
    "block_side_km-string": ("scenario", ("area", "block_side_km"), "0.3", "area.block_side_km"),
    "corner-string": ("scenario", ("area", "corners", 0, 0), "-84.2004", "area.corners"),
    "catalog-price-true": ("catalog", ("sensors", 0, "unit_price_usd"), True, "catalog sensor Radar: unit_price_usd"),
    "catalog-fov-string": ("catalog", ("sensors", 0, "fov_multiplier"), "3", "catalog sensor Radar: fov_multiplier"),
    "catalog-detect-string": ("catalog", ("sensors", 0, "detect", "open"), "0.95", "catalog sensor Radar: detect.open"),
    "pricing-reporting-true": (
        "pricing", ("reporting", "usd_per_subscriber_month"), True, "pricing reporting.usd_per_subscriber_month"
    ),
    "pricing-tier-string": (
        "pricing", ("ingest", "tiers", 1, "usd_per_year"), "15000", "pricing ingest.tiers[1].usd_per_year"
    ),
    "traffic-hours-true": ("traffic", ("hours", "non_cooperative"), True, "traffic hours.non_cooperative"),
    "traffic-per_year-string": (
        "traffic", ("per_year",), {"2026": {"non_cooperative": "900"}}, "traffic per_year.2026.non_cooperative"
    ),
}


@pytest.mark.parametrize("target,path,value,field", NON_NUMBER_CASES.values(), ids=NON_NUMBER_CASES.keys())
def test_numeric_field_must_be_a_json_number(bundle, capsys, target, path, value, field):
    # float(True) is 1.0 and float("0.3") is 0.3: a boolean ran as a $1 fee
    # or one subscriber, and a quoted number passed as a number.
    shutil.copy(bundled_minicity_path().parent / "catalog.json", bundle / "catalog.json")
    scn = scenario_with(bundle, catalog="catalog.json", sensor_filter=["RF"])
    file = scn if target == "scenario" else bundle / f"{target}.json"
    doc = json.loads(file.read_text(encoding="utf-8"))
    *parents, key = path
    node = doc
    for step in parents:
        node = node[step]
    node[key] = value
    file.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(scn)]) == 2
    assert main(["plan", str(scn)]) == 2
    errors = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [e["error"] for e in errors] == ["PARSE_ERROR", "PARSE_ERROR"]
    assert all(field in e["message"] for e in errors)
    assert not (bundle / "out").exists()


# id: (file, path to the field, value, field name in the message)
NON_STRING_CASES = {
    "catalog-name-true": ("catalog", ("sensors", 0, "name"), True, "catalog sensor name"),
    "sensor_filter-name-number": ("scenario", ("sensor_filter",), ["RF", 7], "sensor_filter name"),
    "name-number": ("scenario", ("name",), 12, "name"),
    "rounding-null": ("scenario", ("rounding",), None, "rounding"),
    "heatmap_sensor-false": ("scenario", ("heatmap_sensor",), False, "heatmap_sensor"),
    "solver-mode-false": ("scenario", ("solver", "mode"), False, "solver.mode"),
    "subscriber_rounding-null": ("scenario", ("econ", "subscriber_rounding"), None, "econ.subscriber_rounding"),
}


@pytest.mark.parametrize("target,path,value,field", NON_STRING_CASES.values(), ids=NON_STRING_CASES.keys())
def test_string_field_must_be_a_json_string(bundle, capsys, target, path, value, field):
    # str(True) is "True" and str(None) is "None": a catalog sensor named
    # True loaded, a null rounding was reported as an unknown keyword, and a
    # false heatmap sensor fell back to the default one.
    shutil.copy(bundled_minicity_path().parent / "catalog.json", bundle / "catalog.json")
    scn = scenario_with(bundle, catalog="catalog.json", sensor_filter=["RF"])
    file = scn if target == "scenario" else bundle / f"{target}.json"
    doc = json.loads(file.read_text(encoding="utf-8"))
    *parents, key = path
    node = doc
    for step in parents:
        node = node[step]
    node[key] = value
    file.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(scn)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "PARSE_ERROR"
    assert f"{field} must be a string" in err["message"]


def test_stages_after_load_open_no_file(bundle, monkeypatch):
    scenario = load_scenario(scenario_with(bundle, sensor_filter=["RF"]))

    def no_open(*args, **kwargs):
        raise AssertionError("a file was opened after load_scenario")

    monkeypatch.setattr(io, "open", no_open)
    monkeypatch.setattr(builtins, "open", no_open)
    result = run_plan(scenario)
    pipeline.run_econ(scenario, result.plan.total_cost)
    rows = sweep(scenario, "r", [0.96, 0.99]) + sweep(scenario, "fee", [100.0])
    assert [r.parameter for r in rows] == ["r", "r", "fee"]
