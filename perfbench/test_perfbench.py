"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

The layer-count test runs every workload twice, traced, so this file takes
about two minutes on two cores.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import measure
import gridwatch.scenario as scenario_mod
from gridwatch import pipeline

HERE = Path(__file__).resolve().parent
SPEC = json.loads((inputs.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Plans in well under a second.  Acoustic reaches only a block's neighbours,
# so dropping a chosen site leaves blocks uncovered.
TINY = inputs.Workload(
    name="tiny",
    op="plan",
    blocks=10,
    terrain_mix={inputs.OPEN: 0.3, inputs.NEIGHBORHOOD: 0.3, inputs.HILL: 0.1, inputs.COMMERCIAL: 0.2, inputs.WATER: 0.1},
    sensor_filter=["Acoustic"],
    node_budget=500,
)


def run_benchmark(workload: str, seed: int, trace: int, cwd: Path = inputs.ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def test_inputs_repeat_for_a_seed_and_keep_the_mix(tmp_path):
    workload = inputs.WORKLOADS["city-10k"]
    for name in ("a", "b"):
        inputs.write_inputs(workload, 3, tmp_path / name)
    inputs.write_inputs(workload, 4, tmp_path / "other")
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == ["pricing.json", "scenario.json", "terrain.csv", "traffic.json"]
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "terrain.csv").read_bytes() != (tmp_path / "other" / "terrain.csv").read_bytes()
    grid = inputs.terrain_grid(workload, 3)
    for row in grid:
        for code, share in workload.terrain_mix.items():
            assert (row == code).sum() == round(share * workload.blocks)


def test_a_sound_plan_passes_every_check(tmp_path):
    scenario = inputs.write_inputs(TINY, 0, tmp_path / "in")
    first, _ = measure.run_op(TINY, scenario, tmp_path, traced=False, reference=None)
    second, _ = measure.run_op(TINY, scenario, tmp_path, traced=True, reference=first)
    assert first.problems == [] and second.problems == []
    assert first.outcome in (0, 4)


def test_a_plan_missing_one_chosen_site_is_reported_failed(tmp_path, monkeypatch):
    solve_exact = pipeline.solve_exact
    calls = []

    def drop_a_site_after_the_first_op(instance, **kwargs):
        plan = solve_exact(instance, **kwargs)
        calls.append(plan)
        if len(calls) == 1:
            return plan
        rest = plan.chosen[1:]
        # The cost stays consistent with the remaining sites, so only the
        # independent coverage check can catch the corruption.
        return dataclasses.replace(plan, chosen=rest, total_cost=math.fsum(c.cost for c in rest))

    monkeypatch.setattr(pipeline, "solve_exact", drop_a_site_after_the_first_op)
    scenario = inputs.write_inputs(TINY, 0, tmp_path / "in")
    records, _ = measure.run_ops(TINY, scenario, 0.0, False, tmp_path)
    assert records[0].problems == []
    assert any("left uncovered" in p for p in records[1].problems)
    report = measure.summarize(TINY, records)
    assert (report["attempted"], report["failed"]) == (2, 1)


def test_a_bound_above_the_cost_is_reported(tmp_path):
    result = pipeline.run_plan(scenario_mod.load_scenario(inputs.write_inputs(TINY, 0, tmp_path / "in")))
    plan = result.plan
    assert measure.check_plan(result.mesh, result.catalog, plan) == []
    inflated = dataclasses.replace(plan, metadata={**plan.metadata, measure.BOUND_KEY: plan.total_cost * 1.001})
    assert any("exceeds cost" in p for p in measure.check_plan(result.mesh, result.catalog, inflated))


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_layer_counts_repeat_across_runs_of_one_seed(workload):
    counts = []
    for _ in range(2):
        proc = run_benchmark(workload, seed=1, trace=1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        counts.append({k: result["metrics"][k]["value"] for k in measure.COUNT_NAMES})
    assert counts[0] == counts[1]


def test_a_directory_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(inputs.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark("city-10k", seed=0, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
