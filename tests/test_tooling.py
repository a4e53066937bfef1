"""Checks that tie the benchmark under ``perfbench/`` to the package it
measures, and that keep the package's dependencies to what it declares."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import count_greedy_covers, count_leaf_keys, count_pricing_passes

ROOT = Path(__file__).resolve().parent.parent


def test_package_imports_only_the_stdlib_and_numpy():
    # numpy is the one declared dependency.  scipy is often installed beside
    # it, but importing scipy.optimize alone costs more memory than a whole
    # search-400 plan, so nothing may pull it, or any other package, in.
    imported = {}
    for path in sorted((ROOT / "src" / "gridwatch").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.split(".")[0], set()).add(path.name)
    assert "numpy" in imported
    foreign = {name: sorted(files) for name, files in imported.items() if name not in sys.stdlib_module_names | {"numpy", "gridwatch"}}
    assert foreign == {}


def test_only_coverage_converts_masks():
    # coverage.py's docstring says the conversions between masks, their
    # bytes, 0/1 flags and positions are defined there and nowhere else.
    packers = {"to_bytes", "from_bytes", "frombuffer", "packbits", "unpackbits"}
    calls = []
    for path in sorted((ROOT / "src" / "gridwatch").glob("*.py")):
        if path.name == "coverage.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Call):
                name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
                if name in packers:
                    calls.append(f"{path.name}:{node.lineno} {name}")
    assert calls == []


def test_no_log1p_is_taken_from_numpy():
    # A unit count is log1p(-required) / log1p(-mean detection), rounded, so
    # the last bit of a logarithm can carry the ratio across a rounding
    # boundary.  numpy's log1p differs from math.log1p by an ulp on 155 of
    # the 3 240 mean detection probabilities of the benchmark's r sweep at
    # seed 1 (numpy 2.4, x86-64), so only math.log1p may be used.
    found = []
    for path in sorted((ROOT / "src" / "gridwatch").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        aliases = {"numpy"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                aliases |= {alias.asname or alias.name for alias in node.names if alias.name.split(".")[0] == "numpy"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
                found += [f"{path.name}:{node.lineno} import" for alias in node.names if alias.name == "log1p"]
            elif isinstance(node, ast.Attribute) and node.attr == "log1p":
                base = node.value
                while isinstance(base, ast.Attribute):
                    base = base.value
                if isinstance(base, ast.Name) and base.id in aliases:
                    found.append(f"{path.name}:{node.lineno} {base.id}")
    assert found == []


def _enclosed(tree) -> list:
    """(innermost enclosing function name or None, node) of every node in ``tree``."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            found.append((func, child))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)

    visit(tree, None)
    return found


def _calls(tree) -> list:
    """(innermost enclosing function name or None, called name, line) of every call in ``tree``."""
    return [
        (func, node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None), node.lineno)
        for func, node in _enclosed(tree)
        if isinstance(node, ast.Call)
    ]


def test_one_scan_reads_mask_bytes_and_one_expansion_reads_the_byte_tables():
    # coverage.py's converters are the only readers of the packed bytes,
    # besides the exhaustive oracle: nonzero bytes come from one scan, and
    # only the set-bit expansion reads the 256-value byte tables.
    packed, tables = set(), set()
    for path in sorted((ROOT / "src" / "gridwatch").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        packed |= {(path.name, func) for func, name, _ in _calls(tree) if name == "masks_to_bytes"}
        for func, node in _enclosed(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", getattr(node, "name", None))
            if isinstance(name, str) and name.startswith("_BYTE_") and (path.name, func) != ("coverage.py", None):
                tables.add((path.name, func))
    assert packed == {("coverage.py", "masks_to_nonzero_bytes"), ("solver.py", "solve_brute")}
    assert tables == {("coverage.py", "masks_to_positions")}


def test_no_module_names_masks_to_flags():
    # The package unpacks no list of masks to flags: masks_to_flags is the
    # tests' own, in tests/helpers.py, and any definition, call, import or
    # other use of it in src/gridwatch fails here.
    named = set()
    for path in sorted((ROOT / "src" / "gridwatch").glob("*.py")):
        for func, node in _enclosed(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", getattr(node, "name", None))
            if name == "masks_to_flags":
                named.add((path.name, func, node.lineno))
    assert named == set()


def test_coverage_prices_and_checks_the_requirement_in_one_function_each():
    # The unit rule is applied by one pricing function, whether its pairs come
    # from the stencil walk or from the held table an r sweep prices again,
    # and one helper checks the requirement and rounding for every caller.
    nodes = _enclosed(ast.parse((ROOT / "src" / "gridwatch" / "coverage.py").read_text(encoding="utf-8")))
    builders = {func for func, node in nodes if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Candidate"}
    checkers = set()
    for func, node in nodes:
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(x, ast.Name) and x.id.startswith("required") for x in operands) and any(
                isinstance(x, ast.Constant) and x.value in (0, 1) for x in operands
            ):
                checkers.add(func)
    assert len(builders) == 1, builders
    assert len(checkers) == 1, checkers


def test_the_search_finds_its_branch_block_through_one_lookup():
    # The branch order has one form, the masks of its runs of equal coverer
    # count, and one lookup, _Residual.branch_block: the lowest block of the
    # first run that meets a set of blocks.  The search finds each node's
    # branch block there and the dual ascent each block it raises.  A list
    # of the order, read as an attribute named order or built by a
    # _branch_order, would be a second form, and another caller of the
    # lookup or of the run masks a second walk.
    orders, calls = [], []
    for path in sorted((ROOT / "src" / "gridwatch").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func, node in _enclosed(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", getattr(node, "name", None))
            if (isinstance(node, ast.Attribute) and node.attr == "order") or name == "_branch_order":
                orders.append((path.name, func, node.lineno))
        calls += [(path.name, func, name) for func, name, _ in _calls(tree) if name in ("branch_block", "class_mask")]
    assert orders == []
    assert {(f, func) for f, func, name in calls if name == "branch_block"} == {("solver.py", "_search"), ("solver.py", "_dual_ascent")}
    assert {(f, func) for f, func, name in calls if name == "class_mask"} == {("solver.py", "branch_block")}


def test_only_the_oracle_ranks_plans_by_plan_key():
    # The exact solver holds every incumbent as sorted picks into its
    # residual's active candidates and ranks them by _leaf_key, so
    # _plan_key is left to solve_brute, the oracle it is tested against.
    path = ROOT / "src" / "gridwatch" / "solver.py"
    callers = {func for func, name, _ in _calls(ast.parse(path.read_text(encoding="utf-8"))) if name == "_plan_key"}
    assert callers == {"solve_brute"}


def test_each_derived_scenario_fact_has_one_owner():
    # validate must check the mesh and the scaled catalog that plan uses, so
    # each is derived in one place: the mesh in pipeline.scenario_mesh (which
    # perfbench times through pipeline.build_mesh), the scaled catalog by the
    # Scenario in scenario.py.
    calls = []
    for path in sorted((ROOT / "src" / "gridwatch").glob("*.py")):
        for func, name, line in _calls(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if (name == "build_mesh" and (path.name, func) != ("pipeline.py", "scenario_mesh")) or (
                name == "scale_detection" and path.name != "scenario.py"
            ):
                calls.append(f"{path.name}:{line} {name}")
    assert calls == []


def test_perfbench_traced_names_exist():
    # perfbench wraps pipeline functions by name to time each layer; a renamed
    # or removed name must fail here, not only in a traced benchmark run.
    code = "import sys; sys.path.insert(0, 'perfbench'); import measure; measure.check_layer_names()"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_perfbench_fast_self_tests_pass():
    # The benchmark's own plan checks (check_plan, run_econ) run against the
    # package here, so a change that breaks them fails this suite and not only
    # a benchmark run.  The slow layer-count test and the test that needs a
    # directory without the program are left to a direct run of the file.
    cmd = [
        sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/test_perfbench.py",
        "-k", "not layer_counts and not directory_without",
    ]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "4 passed" in proc.stdout


# Runs the sweep-r workload's two first ops in a worker of their own and
# prints, per op, whether it was traced, its problems and its span counts.
_SWEEP_OPS = """
import collections, json, sys, tempfile
from pathlib import Path
sys.path.insert(0, "perfbench")
import inputs, measure
workload = inputs.WORKLOADS["sweep-r"]
with tempfile.TemporaryDirectory() as tmp:
    scenario = inputs.write_inputs(workload, 1, Path(tmp) / "inputs")
    records, traces = measure.run_ops(workload, scenario, 0.0, True, Path(tmp))
spans = iter(traces)
ops = []
for rec in records:
    names = collections.Counter(s["name"] for s in next(spans)) if rec.traced else {}
    ops.append({"traced": rec.traced, "problems": rec.problems, "spans": names, "layers": rec.layers})
print(json.dumps(ops))
"""


def test_perfbench_sweep_ops_check_every_point():
    # An r sweep prices the previous point's coverage table again, yet each
    # point must still go through pipeline.build_coverage (one traced
    # coverage.build span per point) and pass the benchmark's plan checks,
    # which also count the plans an op makes.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, "-c", _SWEEP_OPS], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    ops = json.loads(proc.stdout.strip().splitlines()[-1])
    assert [op["traced"] for op in ops] == [False, True]
    assert [op["problems"] for op in ops] == [[], []]
    traced = ops[1]
    assert traced["spans"]["pipeline.run_plan"] == 8
    assert traced["spans"]["coverage.build"] == 8
    # Every point of an r sweep has the same map, so only the first builds a mesh.
    assert traced["spans"]["mesh.build"] == 1
    assert traced["layers"]["coverage.entries"] == 25_920


def test_input_checks_accept_every_benchmark_scenario(monkeypatch, tmp_path, capsys):
    # A new input check that rejects a benchmark workload (ADS-B's 321.87 km
    # range, say) must fail here, not only in a benchmark run.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import inputs

    from gridwatch import cli

    for name, workload in inputs.WORKLOADS.items():
        scenario = inputs.write_inputs(workload, 1, tmp_path / name)
        assert cli.main(["validate", str(scenario)]) == 0, capsys.readouterr().err


def test_search_400_is_proven_within_its_budget(monkeypatch, tmp_path):
    # The benchmark's search-bound workload at seed 1 must be proven, not
    # stopped by its node budget: the root's Lagrangian and reduced-cost
    # fixing leave a core the search exhausts.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import inputs

    from gridwatch.pipeline import run_plan
    from gridwatch.scenario import load_scenario

    workload = inputs.WORKLOADS["search-400"]
    priced = count_pricing_passes(monkeypatch)
    keyed = count_leaf_keys(monkeypatch)
    greedy_covers = count_greedy_covers(monkeypatch)
    plan = run_plan(load_scenario(inputs.write_inputs(workload, 1, tmp_path / "inputs"))).plan
    assert plan.proven_optimal
    assert plan.metadata["budget_exceeded"] is False
    # The root drops the candidates beaten at their own site and says how many.
    assert plan.metadata["site_dominated"] == 202
    assert plan.total_cost == 840_000.0
    assert plan.nodes_explored <= workload.node_budget == 20_000
    # The proof's path: float drift in the root's Lagrangian would move the
    # core, and so the node count and the bound, before it moved the cost.
    assert plan.nodes_explored == 13_632
    assert repr(plan.metadata["root_lower_bound"]) == "820087.4718272432"
    # Of the 13 631 nodes the search expands, only these are priced: the
    # others have no child that could pass the bound.
    assert priced == [3520]
    # The search keys one leaf child of each cost per node, of 25 749 it
    # reaches; the Lagrangian's heuristic and each search's incumbent are
    # keyed too.
    assert keyed == [2503]
    # The root's greedy, then the Lagrangian's heuristic every 10 steps on
    # picks it has not tried: 11 of its 50 calls repeat picks.
    assert greedy_covers == [40]


# Each sweep-r point at seed 1: (total_cost, root_lower_bound, cids).  The
# greedy already has every point's cost; the 300 nodes pick the least-key
# plan among its ties, so the cids pin the search's path, not only its result.
_SWEEP_R_PLANS = [
    (210_000.0, 119481.19325551197, ["RF@000324", "RF@000341", "RF@000734"]),
    (210_000.0, 119481.19325551197, ["RF@000271", "RF@000348", "RF@000734"]),
    (210_000.0, 119481.19325551197, ["RF@000240", "RF@000348", "RF@000734"]),
    (210_000.0, 119481.19325551197, ["RF@000240", "RF@000348", "RF@000734"]),
    (210_000.0, 119481.19325551197, ["RF@000262", "RF@000341", "RF@000734"]),
    (210_000.0, 119481.19325551197, ["RF@000203", "RF@000341", "RF@000734"]),
    (210_000.0, 119481.19325551197, ["RF@000028", "RF@000341", "RF@000735"]),
    (315_000.0, 179221.7898832682, ["RF@000262", "RF@000341", "RF@000734"]),
]


def test_sweep_r_search_is_pinned(monkeypatch, tmp_path):
    # The benchmark's r sweep at seed 1: every point stops on its 300-node
    # budget, and each one's plan and bound must not move with the search's
    # pricing.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import inputs

    from gridwatch import pipeline
    from gridwatch.scenario import load_scenario

    workload = inputs.WORKLOADS["sweep-r"]
    scenario = load_scenario(inputs.write_inputs(workload, 1, tmp_path / "inputs"))
    plans = []
    run_plan = pipeline.run_plan

    def run_and_keep(varied):
        result = run_plan(varied)
        plans.append(result.plan)
        return result

    monkeypatch.setattr(pipeline, "run_plan", run_and_keep)
    priced = count_pricing_passes(monkeypatch)
    keyed = count_leaf_keys(monkeypatch)
    pipeline.sweep(scenario, "r", workload.sweep_values)
    assert len(plans) == len(_SWEEP_R_PLANS)
    for plan, (cost, bound, cids) in zip(plans, _SWEEP_R_PLANS):
        assert plan.total_cost == cost
        assert plan.nodes_explored == workload.node_budget + 1
        assert [c.cid for c in plan.chosen] == cids
        assert plan.metadata["root_lower_bound"] == pytest.approx(bound, rel=1e-12)
    # Of the 8 x 300 nodes the points expand, only these are priced, and
    # of the 14 019 leaves they reach, only one of each cost per node is keyed.
    assert priced == [714]
    assert keyed == [575]


# het-10k's plan at each pinned seed: (total_cost, repr(root_lower_bound),
# site_dominated, cids).  Its bound is the root's dual ascent.
_HET_10K_PLANS = {
    1: (2_030_000.0, "929224.095332951", 15_270, [
        "RF@000007", "RF@000062", "RF@000140", "RF@001289", "RF@001312", "RF@001639", "RF@001672", "RF@001730",
        "RF@001956", "RF@002860", "RF@003114", "RF@003990", "RF@003998", "RF@004016", "RF@004739", "RF@004967",
        "RF@005400", "RF@005812", "RF@006264", "RF@006541", "RF@006788", "RF@007616", "RF@007649", "RF@008281",
        "RF@008412", "RF@008507", "RF@008790", "RF@009463", "RF@009532",
    ]),
    7321: (2_169_000.0, "927821.8176167755", 15_218, [
        "Acoustic@009999", "OpticalCamera@000031", "RF@000415", "RF@000584", "RF@001245", "RF@001268", "RF@001358",
        "RF@001633", "RF@001683", "RF@002298", "RF@002310", "RF@002786", "RF@002812", "RF@003949", "RF@004141",
        "RF@004260", "RF@004886", "RF@005025", "RF@005405", "RF@005425", "RF@006364", "RF@007098", "RF@007248",
        "RF@008082", "RF@008316", "RF@008335", "RF@008429", "RF@008505", "RF@008516", "RF@008952", "RF@009284",
        "RF@009853",
    ]),
}


@pytest.mark.parametrize("seed", sorted(_HET_10K_PLANS))
def test_het_10k_plan_quality_is_pinned(monkeypatch, tmp_path, seed):
    # city-10k's map under the sensors that track non-cooperative targets:
    # the heterogeneous 10^4-block rung, at 300 nodes.  A change that lowers
    # the cost or raises the bound edits these values; one that raises the
    # cost or lowers the bound is a regression.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import dataclasses

    import inputs

    from gridwatch.coverage import covered_blocks
    from gridwatch.pipeline import run_plan
    from gridwatch.scenario import load_scenario

    workload = dataclasses.replace(
        inputs.WORKLOADS["city-10k"], name="het-10k", sensor_filter="noncooperative_capable", node_budget=300
    )
    result = run_plan(load_scenario(inputs.write_inputs(workload, seed, tmp_path / "inputs")))
    plan = result.plan
    cost, bound, site_dominated, cids = _HET_10K_PLANS[seed]
    assert plan.total_cost == cost
    assert repr(plan.metadata["root_lower_bound"]) == bound
    assert plan.nodes_explored == 301
    assert not plan.proven_optimal
    assert plan.metadata["site_dominated"] == site_dominated
    assert plan.metadata["dedup_removed"] == 0
    assert plan.metadata["forced"] == 0
    assert plan.metadata["budget_exceeded"] is True
    assert [c.cid for c in plan.chosen] == cids
    # Every block is covered, by the reference geometry and not the masks.
    sites = {s.block: s for s in result.mesh.candidate_sites}
    covered = set()
    for c in plan.chosen:
        covered.update(covered_blocks(result.mesh, result.catalog.get(c.sensor), sites[c.site]))
    assert covered == set(result.mesh.in_area_blocks)


def test_city_10k_coverage_table_is_pinned(monkeypatch, tmp_path):
    # The run walk must give the table the per-site walk gave: these are the
    # bytes of city-10k's coverage.csv at seed 1 from one window per site.
    # ADS-B reaches every block from each of its 9 000 sites, so all of its
    # entries hold one int, and the exact solver proves the plan at its root.
    # The heatmap's bytes are those of the per-block writer it replaced.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import inputs

    from gridwatch.coverage import build_coverage
    from gridwatch.mesh import build_mesh
    from gridwatch.pipeline import write_coverage_csv, write_heatmap_csv
    from gridwatch.scenario import load_scenario
    from gridwatch.solver import PlacementInstance, solve_exact

    scenario = load_scenario(inputs.write_inputs(inputs.WORKLOADS["city-10k"], 1, tmp_path / "inputs"))
    mesh = build_mesh(scenario.corners, scenario.block_side_km, scenario.terrain, scenario.catalog.min_range_km)
    table = build_coverage(mesh, scenario.catalog, scenario.required_detection, scenario.rounding)
    write_coverage_csv(tmp_path / "coverage.csv", table)
    digest = hashlib.sha256((tmp_path / "coverage.csv").read_bytes()).hexdigest()
    assert digest == "90149a21d8df8b5e8727ccbede0fbeb650959a1bc42c6d3e3db8122e59c18f81"
    write_heatmap_csv(tmp_path / "heatmap.csv", mesh, scenario.scaled_catalog, scenario.heatmap_sensor)
    digest = hashlib.sha256((tmp_path / "heatmap.csv").read_bytes()).hexdigest()
    assert digest == "b7f67d99a99716f45542fa67e92b89932c1d3896b77f7b68652af18e6f018e42"
    adsb = [e for e in table.entries if e.sensor == "ADS-B"]
    assert len(adsb) == 9_000
    assert len({id(e.covered) for e in adsb}) == 1
    # The root solves it: same-site dominance drops the 9 000 RF entries
    # under ADS-B, all but one ADS-B entry are duplicates, and the one left
    # covers every block for the least cost.
    plan = solve_exact(PlacementInstance.from_coverage(table))
    assert plan.metadata["site_dominated"] == 9_000
    assert plan.metadata["dedup_removed"] == 8_999
    assert plan.total_cost == 4_500.0
    assert plan.proven_optimal
