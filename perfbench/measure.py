"""Benchmark worker: runs one workload's ops for a fixed time, checks every op
and reports its timings, the plan quality they bought and, in a traced run,
the per-layer numbers.

``run.py`` starts it as a process of its own; it prints one JSON object as the
last line of its standard output:

    python3 perfbench/measure.py --workload city-10k --inputs DIR --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import inputs
from probe import SpeedProbe
from spans import NullTracer, Tracer, self_time

inputs.import_gridwatch()

import gridwatch  # noqa: E402
import gridwatch.scenario as scenario_mod  # noqa: E402
import numpy  # noqa: E402
from gridwatch import coverage, pipeline  # noqa: E402

# An op is never cut short and a run makes at least this many: the artifact
# check needs a second op to compare with the first, and a traced run needs
# one untraced op to measure the tracing overhead against.
MIN_OPS = 2

# The lower bound the solver reports.  Today solve_exact reports only the
# bound it computes at the root of its search.
BOUND_KEY = "root_lower_bound"
BOUND_REL_TOL = 1e-9


# -- layer entry points -------------------------------------------------------


def _mesh_counts(mesh) -> dict:
    return {"mesh.blocks": mesh.n_blocks, "mesh.sites": len(mesh.candidate_sites)}


def _coverage_counts(table) -> dict:
    return {"coverage.entries": len(table.entries), "coverage.nonzeros": sum(e.n_covered for e in table.entries)}


def _instance_counts(instance) -> dict:
    return {"solver.candidates": len(instance.candidates), "solver.elements": instance.n_elements}


def _plan_counts(plan) -> dict:
    meta = plan.metadata
    return {
        "solver.nodes": plan.nodes_explored,
        "solver.budget_hit": int(bool(meta.get("budget_exceeded", False))),
        "solver.root_bound_usd": float(meta.get(BOUND_KEY, 0.0)),
        "solver.dedup_removed": meta.get("dedup_removed", 0),
        "solver.forced": meta.get("forced", 0),
        "solver.proven": int(plan.proven_optimal),
    }


def _econ_counts(_) -> dict:
    return {"econ.calls": 1}


# (owner, attribute, span name, counts read from the return value).  The owner
# is the namespace gridwatch.pipeline looks each name up in, so replacing the
# attribute puts a span around every call the pipeline makes, including the
# per-point calls inside a sweep.
LAYER_CALLS = (
    (scenario_mod, "load_scenario", "scenario.load", None),
    (pipeline, "run_plan", "pipeline.run_plan", None),
    (pipeline, "build_mesh", "mesh.build", _mesh_counts),
    (pipeline, "build_coverage", "coverage.build", _coverage_counts),
    (pipeline.PlacementInstance, "from_coverage", "solver.instance", _instance_counts),
    (pipeline, "dominance_filter", "solver.dominance", None),
    (pipeline, "solve_exact", "solver.solve", _plan_counts),
    (pipeline, "solve_greedy", "solver.solve", _plan_counts),
    (pipeline, "run_econ", "econ.run", _econ_counts),
    (pipeline, "mesh_to_geojson", "mesh.geojson", None),
    (pipeline, "write_json", "pipeline.write_json", None),
    (pipeline, "write_heatmap_csv", "pipeline.write_heatmap", None),
)

COUNT_NAMES = (
    "mesh.blocks",
    "mesh.sites",
    "coverage.entries",
    "coverage.nonzeros",
    "solver.candidates",
    "solver.elements",
    "solver.nodes",
    "solver.budget_hit",
    "solver.root_bound_usd",
    "solver.dedup_removed",
    "solver.forced",
    "solver.proven",
    "econ.calls",
)


def _owner_name(owner) -> str:
    return owner.__name__ if not isinstance(owner, type) else f"{owner.__module__}.{owner.__name__}"


def check_layer_names() -> None:
    """Fail loudly when a wrapped name is gone, so no layer drops out of the trace."""
    missing = [f"{_owner_name(o)}.{a}" for o, a, _, _ in LAYER_CALLS if not hasattr(o, a)]
    if missing:
        raise RuntimeError(f"traced names no longer exist: {missing}; update LAYER_CALLS in perfbench/measure.py")


def _replace(owner, attr, make):
    """Set ``owner.attr`` to ``make(current)``; returns the undo."""
    original = owner.__dict__[attr]
    new = make(getattr(owner, attr))
    setattr(owner, attr, staticmethod(new) if isinstance(owner, type) else new)
    return lambda: setattr(owner, attr, original)


@contextlib.contextmanager
def instrumented(tracer, captured: list):
    """Spans around the layer calls when ``tracer`` is a Tracer, and every
    ``run_plan`` result appended to ``captured`` so that each plan of a sweep
    can be checked."""
    undo = []
    try:
        for owner, attr, name, counts in LAYER_CALLS if isinstance(tracer, Tracer) else ():
            undo.append(_replace(owner, attr, lambda fn, n=name, c=counts: tracer.wrap(n, fn, c)))

        def capture(run_plan):
            def run_and_keep(scenario):
                result = run_plan(scenario)
                captured.append((result.mesh, result.catalog, result.plan))
                return result

            return run_and_keep

        undo.append(_replace(pipeline, "run_plan", capture))
        yield
    finally:
        for restore in reversed(undo):
            restore()


# -- ops ----------------------------------------------------------------------


def plan_op(scenario_path: Path, outdir: Path, tracer, workload) -> tuple:
    """``gridwatch plan --out OUTDIR``, then ``gridwatch econ`` on the plan's cost."""
    s = scenario_mod.load_scenario(scenario_path, {"output_dir": str(outdir)})
    result = pipeline.run_plan(s)
    with tracer.span("pipeline.write"):
        pipeline.write_plan_artifacts(result, s.output_dir)
    econ = pipeline.run_econ(s, result.plan.total_cost)
    with tracer.span("pipeline.write"):
        pipeline.write_cashflow_csv(Path(s.output_dir) / "cashflow.csv", econ)
    return (0 if result.plan.proven_optimal else 4), None


def sweep_op(scenario_path: Path, outdir: Path, tracer, workload) -> tuple:
    """``gridwatch sweep --parameter r --values ... --out OUTDIR``."""
    s = scenario_mod.load_scenario(scenario_path, {"output_dir": str(outdir)})
    with tracer.span("pipeline.sweep"):
        rows = pipeline.sweep(s, "r", workload.sweep_values)
    with tracer.span("pipeline.write"):
        pipeline.write_sweep_csv(Path(s.output_dir) / "sweep.csv", rows)
    return 0, rows


OPS = {"plan": plan_op, "sweep": sweep_op}


def plans_per_op(workload) -> int:
    return len(workload.sweep_values) if workload.op == "sweep" else 1


# -- checks ---------------------------------------------------------------------


def plan_quality(plans) -> dict:
    """Cost and lower bound summed over an op's plans.  The bound that comes
    with a plan is its own cost when it is proven optimal, else the bound the
    solver reports (``reported_usd`` takes the reported one throughout)."""
    return {
        "cost_usd": math.fsum(p.total_cost for p in plans),
        "bound_usd": math.fsum(p.total_cost if p.proven_optimal else p.metadata[BOUND_KEY] for p in plans),
        "reported_usd": math.fsum(p.metadata.get(BOUND_KEY, p.total_cost) for p in plans),
        "proven": sum(p.proven_optimal for p in plans) / len(plans),
    }


def check_plan(mesh, catalog, plan) -> list:
    """Problems found in one plan, each as a line of text; empty when it is sound."""
    problems = []
    sites = {s.block: s for s in mesh.candidate_sites}
    covered = set()
    for c in plan.chosen:
        if c.site not in sites:
            problems.append(f"{c.cid}: site {c.site} is not a candidate site")
            continue
        covered.update(coverage.covered_blocks(mesh, catalog.get(c.sensor), sites[c.site]))
    missing = sorted(set(mesh.in_area_blocks) - covered)
    if missing:
        problems.append(f"{len(missing)} in-area block(s) left uncovered, first {missing[0]}")
    total = math.fsum(c.cost for c in plan.chosen)
    if plan.total_cost != total:
        problems.append(f"total_cost {plan.total_cost!r} != fsum of install costs {total!r}")
    reported = plan.metadata.get(BOUND_KEY)
    if reported is None and not plan.proven_optimal:
        problems.append("unproven plan reports no lower bound")
    elif reported is not None and reported > plan.total_cost * (1.0 + BOUND_REL_TOL):
        problems.append(f"lower bound {reported!r} exceeds cost {plan.total_cost!r}")
    return problems


def artifact_digests(outdir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(outdir.iterdir())}


@dataclass
class OpRecord:
    traced: bool
    wall_s: float = 0.0
    slowdown: float = 1.0
    seconds: float = 0.0  # wall time at the probe's reference speed
    outcome: object = None
    problems: list = field(default_factory=list)
    plans: list = field(default_factory=list)  # (mesh, catalog, plan) per run_plan call, until checked
    quality: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    artifact_bytes: int = 0
    layers: dict = field(default_factory=dict)

    def summary(self) -> dict:
        return {
            "traced": self.traced,
            "seconds": self.seconds,
            "wall_s": self.wall_s,
            "slowdown": self.slowdown,
            "outcome": self.outcome,
            "problems": self.problems,
        }


def check_op(rec: OpRecord, workload, rows, reference) -> None:
    if rec.outcome not in (0, 4):
        rec.problems.append(f"exit outcome {rec.outcome}")
        return
    if len(rec.plans) != plans_per_op(workload):
        rec.problems.append(f"{len(rec.plans)} plans made, expected {plans_per_op(workload)}")
    for mesh, catalog, plan in rec.plans:
        rec.problems += check_plan(mesh, catalog, plan)
    if rows is not None:
        for row, (_, _, plan) in zip(rows, rec.plans):
            if (row.total_cost_usd, row.n_sites) != (plan.total_cost, plan.n_sites):
                rec.problems.append(f"sweep row r={row.value} disagrees with its plan")
    if reference is not None and rec.digests != reference.digests:
        changed = sorted(k for k in rec.digests.keys() | reference.digests.keys() if rec.digests.get(k) != reference.digests.get(k))
        rec.problems.append(f"artifacts differ from the first op's: {changed}")


# -- one op, and the timed loop -------------------------------------------------


def layer_metrics(spans, rec: OpRecord) -> dict:
    """Per-layer numbers of one traced op."""

    def busy(name):
        return math.fsum(s["end"] - s["start"] for s in spans if s["name"] == name)

    out = dict.fromkeys(COUNT_NAMES, 0)
    for s in spans:
        for key, value in s["counts"].items():
            out[key] += value
    out.update(
        {
            "scenario.load_s": busy("scenario.load"),
            "mesh.build_s": busy("mesh.build"),
            "coverage.build_s": busy("coverage.build"),
            "solver.instance_s": busy("solver.instance"),
            "solver.solve_s": busy("solver.solve"),
            "econ.run_s": busy("econ.run"),
            "pipeline.write_s": busy("pipeline.write"),
            "pipeline.self_s": math.fsum(self_time(s, spans) for s in spans if s["name"].startswith("pipeline.")),
            "pipeline.artifact_bytes": rec.artifact_bytes,
        }
    )
    out["coverage.nonzeros_per_s"] = out["coverage.nonzeros"] / out["coverage.build_s"]
    out["solver.nodes_per_s"] = out["solver.nodes"] / out["solver.solve_s"]
    return out


def run_op(workload, scenario_path: Path, workdir: Path, traced: bool, reference):
    """One op, timed, then checked; returns its record and its spans."""
    tracer = Tracer() if traced else NullTracer()
    rec = OpRecord(traced=traced)
    rows = None
    outdir = Path(tempfile.mkdtemp(prefix="op-", dir=workdir))
    try:
        with instrumented(tracer, rec.plans), SpeedProbe() as speed:
            start = time.perf_counter()
            try:
                with tracer.span("pipeline.op"):
                    rec.outcome, rows = OPS[workload.op](scenario_path, outdir, tracer, workload)
            except Exception as exc:  # the op boundary: count the failure and keep measuring
                traceback.print_exc(file=sys.stderr)
                rec.outcome = f"raised {type(exc).__name__}: {exc}"
            rec.wall_s = time.perf_counter() - start - speed.probe_s
        rec.slowdown = speed.slowdown
        rec.seconds = rec.wall_s / rec.slowdown
        rec.digests = artifact_digests(outdir)
        rec.artifact_bytes = sum(p.stat().st_size for p in outdir.iterdir())
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    check_op(rec, workload, rows, reference)
    if not rec.problems:
        rec.quality = plan_quality([plan for _, _, plan in rec.plans])
    # Keeping every op's plans would make peak RSS grow with the op count.
    rec.plans.clear()
    if traced and rec.outcome in (0, 4):
        rec.layers = layer_metrics(tracer.spans, rec)
    return rec, list(tracer.spans)


def run_ops(workload, scenario_path: Path, seconds: float, trace: bool, workdir: Path):
    """Ops back to back until ``seconds`` have passed; a traced run alternates
    untraced and traced ops, starting untraced."""
    records, traces = [], []
    reference = None
    start = time.perf_counter()
    while len(records) < MIN_OPS or time.perf_counter() - start < seconds:
        traced = trace and len(records) % 2 == 1
        rec, spans = run_op(workload, scenario_path, workdir, traced, reference)
        if reference is None and not rec.problems:
            reference = rec
        if traced:
            first = next((r for r in records if r.traced and r.layers), None)
            if first is not None and rec.layers and any(rec.layers[k] != first.layers[k] for k in COUNT_NAMES):
                rec.problems.append("layer counts differ from the first traced op's")
            traces.append(spans)
        records.append(rec)
    return records, traces


# -- report -------------------------------------------------------------------


def summarize(workload, records: list) -> dict:
    per_plan = plans_per_op(workload)
    untraced = [r for r in records if not r.traced]
    traced = [r for r in records if r.layers]
    sound = next((r for r in records if not r.problems), None)
    if sound is None:
        raise SystemExit("perfbench: no op passed its checks; nothing to report")
    q = sound.quality
    failed = sum(1 for r in records if r.problems)
    end_to_end = {
        "plan_s": statistics.median(r.seconds / per_plan for r in untraced),
        "sweep_points_per_s": per_plan * len(untraced) / math.fsum(r.seconds for r in untraced),
        "plan_cost_usd": q["cost_usd"],
        "plan_cost_over_bound": q["cost_usd"] / q["bound_usd"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "plan_wall_s": statistics.median(r.wall_s / per_plan for r in untraced),
        "plan_gap": 0.0 if q["proven"] == 1 else max(0.0, (q["cost_usd"] - q["reported_usd"]) / q["cost_usd"]),
        "plan_proven": q["proven"],
        "failed_frac": failed / len(records),
    }
    per_layer = {}
    if traced:
        per_layer = {k: statistics.median(r.layers[k] for r in traced) for k in traced[0].layers}
        per_layer["trace.overhead_s"] = statistics.median(r.seconds / per_plan for r in traced) - end_to_end["plan_s"]
    return {
        "attempted": len(records),
        "failed": failed,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "extra": extra,
        "ops": [r.summary() for r in records],
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "gridwatch": gridwatch.__version__,
            "nproc": len(os.sched_getaffinity(0)),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--inputs", required=True, type=Path, help="directory written by inputs.py")
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="write the traced ops' spans here as JSON")
    parser.add_argument("--workdir", type=Path, help="parent of the ops' output directories (default: --inputs)")
    args = parser.parse_args(argv)
    workload = inputs.WORKLOADS[args.workload]
    if args.trace:
        check_layer_names()
    records, traces = run_ops(
        workload, args.inputs / inputs.SCENARIO_FILE, args.seconds, bool(args.trace), args.workdir or args.inputs
    )
    report = summarize(workload, records)
    if args.spans is not None:
        args.spans.write_text(json.dumps(traces) + "\n", encoding="utf-8")
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
