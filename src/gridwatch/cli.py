"""Command-line entry point.

Commands: ``plan`` (mesh + coverage + placement + artifacts), ``econ``
(cash-flow series for an existing plan), ``sweep`` (sensitivity tables), and
``validate`` (check a scenario and its referenced files without solving).
``validate`` checks everything ``plan`` checks before it builds coverage: the
scenario and every file it names, the sensor filter, the catalog scaled by
``detection_scale``, the heatmap sensor and the mesh.

Exit codes: 0 success, 2 input or validation failure (an output path that
cannot be written included), 3 infeasible coverage, 4 no proven optimum: the
plan came from the greedy solver, the node budget ran out, or the dominance
filter removed a sensor type, which is a rule and not a proof.  When such a
plan carries a root lower bound, ``plan`` prints it on its summary line with
the gap, (cost - bound) / cost.  Validation failures print a
machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .errors import GridwatchError, Infeasible, InfeasibleCoverage, ParseError, ValidationError, read_input
from .pipeline import run_econ, run_plan, scenario_mesh, sweep, write_cashflow_csv, write_plan_artifacts, write_sweep_csv
from .scenario import load_scenario

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_BUDGET = 4


def _overrides(args) -> dict:
    out = {}
    if getattr(args, "r", None) is not None:
        out["required_detection"] = args.r
    if getattr(args, "fee", None) is not None:
        out["monthly_fee_usd"] = args.fee
    if getattr(args, "out", None) is not None:
        out["output_dir"] = args.out
    return out


def cmd_plan(args) -> int:
    scenario = load_scenario(args.scenario, _overrides(args))
    result = run_plan(scenario)
    paths = write_plan_artifacts(result, scenario.output_dir)
    plan = result.plan
    summary = (
        f"{scenario.name}: {plan.n_sites} site(s), {plan.total_units} sensor unit(s), "
        f"${plan.total_cost:,.2f}, proven_optimal={str(plan.proven_optimal).lower()}"
    )
    bound = plan.metadata.get("root_lower_bound")
    if not plan.proven_optimal and bound is not None:
        gap = max(0.0, (plan.total_cost - bound) / plan.total_cost)
        summary += f", lower_bound=${bound:,.2f}, gap={gap:.2%}"
    print(summary)
    for key in ("mesh", "plan", "heatmap", "summary", "coverage"):
        print(f"  {key}: {paths[key]}")
    return EXIT_OK if plan.proven_optimal else EXIT_BUDGET


def _plan_capex(plan_path: Path) -> float:
    doc = read_input(plan_path, "plan file")
    try:
        costs = [f["properties"]["install_cost_usd"] for f in doc["features"]]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"plan file does not match the plan GeoJSON schema: {exc}") from None
    for cost in costs:
        if isinstance(cost, bool) or not isinstance(cost, (int, float)):
            raise ParseError(f"plan file install_cost_usd must be a number, got {cost!r}")
        if not math.isfinite(cost):
            raise ValidationError(f"plan file install_cost_usd must be finite, got {cost}")
    return math.fsum(costs)


def cmd_econ(args) -> int:
    scenario = load_scenario(args.scenario, _overrides(args))
    capex = _plan_capex(args.plan)
    econ = run_econ(scenario, capex)
    out_path = Path(scenario.output_dir) / "cashflow.csv"
    write_cashflow_csv(out_path, econ)
    be_low = econ.low.break_even_year
    be_high = econ.high.break_even_year
    print(f"capex=${capex:,.2f}")
    print(f"break_even_low={'none' if be_low is None else be_low}")
    print(f"break_even_high={'none' if be_high is None else be_high}")
    print(f"  cashflow: {out_path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario, _overrides(args))
    raw = [tok for tok in args.values.split(",") if tok.strip()]
    if not raw:
        raise ValidationError("sweep values list is empty")
    try:
        values = [float(tok) for tok in raw]
    except ValueError as exc:
        raise ValidationError(f"sweep values must be numbers: {exc}") from None
    rows = sweep(scenario, args.parameter, values)
    out_path = Path(scenario.output_dir) / "sweep.csv"
    write_sweep_csv(out_path, rows)
    print(f"  sweep: {out_path}")
    return EXIT_OK


def cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario, _overrides(args))
    mesh = scenario_mesh(scenario)
    print(
        f"{scenario.name}: ok ({mesh.blocks_x}x{mesh.blocks_y} blocks, "
        f"{len(mesh.candidate_sites)} candidate sites, sensors: {'+'.join(sorted(scenario.catalog.names))})"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gridwatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("scenario", help="scenario JSON file")
        p.add_argument("--r", type=float, default=None, help="override required detection probability")
        p.add_argument("--fee", type=float, default=None, help="override monthly subscription fee (USD)")
        p.add_argument("--out", default=None, help="override output directory")

    p_plan = sub.add_parser("plan", help="solve sensor placement and write artifacts")
    common(p_plan)
    p_plan.set_defaults(func=cmd_plan)

    p_econ = sub.add_parser("econ", help="cash-flow series for an existing plan")
    common(p_econ)
    p_econ.add_argument("--plan", required=True, help="plan GeoJSON produced by the plan command")
    p_econ.set_defaults(func=cmd_econ)

    p_sweep = sub.add_parser("sweep", help="sensitivity sweep over one parameter")
    common(p_sweep)
    p_sweep.add_argument("--parameter", required=True, help="one of fee, n0, detection_scale, r")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="validate a scenario and its input files")
    common(p_val)
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InfeasibleCoverage, Infeasible) as exc:
        _emit_error(exc)
        return EXIT_INFEASIBLE
    except GridwatchError as exc:
        _emit_error(exc)
        return EXIT_VALIDATION


def _emit_error(exc: GridwatchError) -> None:
    sys.stderr.write(json.dumps({"error": exc.code, "message": str(exc)}, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
