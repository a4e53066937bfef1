"""End-to-end orchestration: mesh build, coverage, solve, economics, sweeps.

This module is the one writer of artifacts: each is formatted here and streamed
through :func:`_atomic_open`, the one place that creates the output directory.
Writers are deterministic: repeated runs of the same scenario produce
byte-identical files (sorted JSON keys, repr-formatted floats, no timestamps).
A free-text CSV field, a scenario or sensor name, is quoted per RFC 4180 only
where it holds a comma, a double quote or a line break.
A writer that fails leaves the file it was replacing intact, and an output
path that cannot be written is a :class:`ValidationError`.

``mesh.geojson``, the largest artifact, is formatted from a per-feature
template by :func:`write_mesh_geojson`, which never builds the document; its
bytes are those of :func:`write_json` on :func:`mesh_to_geojson`, which stays
as the oracle the tests compare it with.  The other JSON artifacts go through
:func:`write_json`.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
from contextvars import ContextVar
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

from .catalog import SensorCatalog
from .coverage import CoverageTable, build_coverage, terrain_detection
from .econ import ScenarioEconomics
from .errors import ValidationError
from .geo import PlanePoint, unproject
from .mesh import AreaMesh, Terrain, build_mesh
from .scenario import Scenario, with_overrides
from .solver import PlacementInstance, PlacementPlan, dominance_filter, solve_exact, solve_greedy

# The scenario field each sweep parameter overrides.  fee and n0 only change
# the economics, so their sweeps reuse one placement.
_SWEEP_FIELDS = {
    "fee": "monthly_fee_usd",
    "n0": "initial_subscribers",
    "detection_scale": "detection_scale",
    "r": "required_detection",
}
SWEEP_PARAMETERS = tuple(_SWEEP_FIELDS)


@dataclass(frozen=True)
class PlanResult:
    scenario: Scenario
    catalog: SensorCatalog  # scenario.scaled_catalog
    mesh: AreaMesh
    coverage: CoverageTable
    instance: PlacementInstance
    plan: PlacementPlan


# Set by an r :func:`sweep` for its duration to a list that holds, once a point
# has run, ``[coverage table]`` of the latest point; None otherwise.  The
# points of an r sweep differ only in the requirement, so each reuses the
# held table's mesh and prices the table again.
_sweep_table: ContextVar[Optional[list]] = ContextVar("sweep_table", default=None)


def scenario_mesh(scenario: Scenario) -> AreaMesh:
    """The scenario's block mesh, checked against its shortest sensor range."""
    return build_mesh(
        corners=scenario.corners,
        block_side=scenario.block_side_km,
        terrain_grid=scenario.terrain,
        min_sensor_range=scenario.scaled_catalog.min_range_km,
    )


def run_plan(scenario: Scenario) -> PlanResult:
    """Build mesh and coverage for a scenario and solve the placement problem.
    An r :func:`sweep`'s later points reuse the previous point's mesh and table.

    The cyclic garbage collector is paused for the call.  The walk, the
    pricing and the solve allocate tens of thousands of containers that form
    no cycles worth collecting, so the passes their allocations would trigger
    only walk the live table.  Reference counting still frees everything
    else, and whatever cycles the call leaves wait for the collector's next
    pass.  On return or on any exception the collector is enabled again if,
    and only if, it was enabled on entry."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        catalog = scenario.scaled_catalog
        held = _sweep_table.get()
        # No local keeps the previous table: it is freed once this one replaces it.
        mesh = held[0].mesh if held else scenario_mesh(scenario)
        coverage = build_coverage(
            mesh, catalog, scenario.required_detection, scenario.rounding, like=held[0] if held else None
        )
        if held is not None:
            held[:] = [coverage]
        instance = PlacementInstance.from_coverage(coverage)
        if scenario.apply_dominance_filter:
            instance = dominance_filter(instance, catalog)
        if scenario.solver_mode == "greedy":
            plan = solve_greedy(instance)
        else:
            plan = solve_exact(instance, node_budget=scenario.node_budget)
        if len(instance.candidates) < len(coverage.entries):
            # The filter's removals show in the candidate count.  It is a
            # type-level rule, not a proof: the filtered instance's optimum and
            # root bound need not hold for the scenario.
            metadata = {k: v for k, v in plan.metadata.items() if k != "root_lower_bound"}
            plan = replace(plan, proven_optimal=False, metadata=metadata)
        return PlanResult(
            scenario=scenario,
            catalog=catalog,
            mesh=mesh,
            coverage=coverage,
            instance=instance,
            plan=plan,
        )
    finally:
        if enabled:
            gc.enable()


# -- artifact writers ---------------------------------------------------------

_TERRAIN_LABELS = {t.value: t.label for t in Terrain}


def mesh_to_geojson(mesh: AreaMesh) -> dict:
    """GeoJSON FeatureCollection of block polygons with terrain and in-area flags.
    Block corners are lattice points and :func:`unproject` maps x to longitude
    and y to latitude alone, so each lattice column and row is unprojected once."""
    L = mesh.block_side
    lon = [unproject(PlanePoint(mesh.x0 + k * L, mesh.y0), mesh.origin).lon for k in range(mesh.blocks_x + 1)]
    lat = [unproject(PlanePoint(mesh.x0, mesh.y0 + j * L), mesh.origin).lat for j in range(mesh.blocks_y + 1)]
    features = []
    for z, code in enumerate(mesh.terrain.tolist()):
        j, k = divmod(z, mesh.blocks_x)
        west, east, south, north = lon[k], lon[k + 1], lat[j], lat[j + 1]
        ring = [[west, south], [east, south], [east, north], [west, north], [west, south]]
        features.append(
            {
                "type": "Feature",
                "id": z,
                "geometry": {"type": "Polygon", "coordinates": [ring]},
                "properties": {"terrain": _TERRAIN_LABELS[code], "in_area": code != Terrain.OUTSIDE_AREA},
            }
        )
    return {"type": "FeatureCollection", "features": features}


# One feature of ``json.dumps(mesh_to_geojson(mesh), sort_keys=True, indent=2)``:
# ring corners as (lon, lat) pairs SW, SE, NE, NW, SW, then the id and the
# terrain's properties lines.
_CORNER = "            [\n              %s,\n              %s\n            ]"
_MESH_FEATURE = (
    '    {\n      "geometry": {\n        "coordinates": [\n          [\n'
    + ",\n".join([_CORNER] * 5)
    + '\n          ]\n        ],\n        "type": "Polygon"\n      },\n      "id": %d,\n'
    '      "properties": {\n%s\n      },\n      "type": "Feature"\n    }'
)


def write_mesh_geojson(path, mesh: AreaMesh) -> None:
    """Write ``mesh.geojson`` one grid row of features at a time, byte for
    byte what :func:`write_json` makes of :func:`mesh_to_geojson`, without
    building the document: the lattice's coordinates and each terrain's
    properties are formatted once, by ``json`` itself, and dropped into
    :data:`_MESH_FEATURE`."""
    L, origin = mesh.block_side, mesh.origin
    lon = [json.dumps(unproject(PlanePoint(mesh.x0 + k * L, mesh.y0), origin).lon) for k in range(mesh.blocks_x + 1)]
    lat = [json.dumps(unproject(PlanePoint(mesh.x0, mesh.y0 + j * L), origin).lat) for j in range(mesh.blocks_y + 1)]
    properties = {
        t.value: f'        "in_area": {json.dumps(t != Terrain.OUTSIDE_AREA)},\n'
        f'        "terrain": {json.dumps(t.label)}'
        for t in Terrain
    }
    bx = mesh.blocks_x
    codes = mesh.terrain.tolist()
    with _atomic_open(path) as fp:
        fp.write('{\n  "features": [\n')
        for j in range(mesh.blocks_y):
            south, north, a = lat[j], lat[j + 1], j * bx
            row = ",\n".join(
                [
                    _MESH_FEATURE % (west, south, east, south, east, north, west, north, west, south, z, properties[code])
                    for west, east, z, code in zip(lon, lon[1:], range(a, a + bx), codes[a : a + bx])
                ]
            )
            fp.write(",\n" + row if j else row)
        fp.write('\n  ],\n  "type": "FeatureCollection"\n}\n')


def plan_to_geojson(plan: PlacementPlan, mesh: AreaMesh) -> dict:
    """Chosen sites as a GeoJSON FeatureCollection of points."""
    features = []
    for c in plan.chosen:
        geo = unproject(mesh.block_center(c.site), mesh.origin)
        features.append(
            {
                "type": "Feature",
                "id": c.cid,
                "geometry": {"type": "Point", "coordinates": [geo.lon, geo.lat]},
                "properties": {
                    "sensor": c.sensor,
                    "count": c.units,
                    "install_cost_usd": c.cost,
                    "site_block": c.site,
                },
            }
        )
    return {
        "type": "FeatureCollection",
        "features": features,
        "properties": {
            "total_cost_usd": plan.total_cost,
            "total_sensor_units": plan.total_units,
            "proven_optimal": plan.proven_optimal,
            "solver_mode": plan.mode,
        },
    }


@contextlib.contextmanager
def _atomic_open(path):
    """Text file that replaces ``path`` only if the block succeeds: written to
    ``<name>.tmp`` beside it, moved into place by ``os.replace``, else deleted.
    Creates the parent directory; an OS error becomes a :class:`ValidationError`."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fp:
            yield fp
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):  # under a parent that is a file, unlink fails too
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise ValidationError(f"cannot write {path}: {exc}") from exc
        raise


def write_json(path: Path, doc: dict) -> None:
    with _atomic_open(path) as fp:
        json.dump(doc, fp, sort_keys=True, indent=2)
        fp.write("\n")


# Rows a CSV writer joins into one write: each write holds about 0.25 MB of
# text at most, where one write of all of city-10k's coverage.csv held 6.6 MB
# at the top of the process's memory.
_ROWS_PER_WRITE = 2**10


def write_heatmap_csv(path: Path, mesh: AreaMesh, catalog: SensorCatalog, sensor: str) -> None:
    """Per-block detection probability for one sensor type (0 outside the area).
    Detection depends on terrain alone, so only ``sensor``'s is computed, and
    the ``,terrain,p`` tail of each terrain code is formatted once.  Rows go
    out :data:`_ROWS_PER_WRITE` at a time."""
    tails = {code: f",{_TERRAIN_LABELS[code]},{p!r}\n" for code, p in terrain_detection(catalog.get(sensor)).items()}
    bx = mesh.blocks_x
    codes = mesh.terrain.tolist()
    with _atomic_open(path) as fp:
        fp.write("block_index,row,col,terrain,detection_probability\n")
        for a in range(0, len(codes), _ROWS_PER_WRITE):
            batch = enumerate(codes[a : a + _ROWS_PER_WRITE], a)
            fp.write("".join([f"{z},{z // bx},{z % bx}{tails[code]}" for z, code in batch]))


def _csv_field(text: str) -> str:
    """``text`` as one CSV field (RFC 4180): in double quotes, each double
    quote doubled, if it holds a comma, a double quote or a line break, and
    as it is otherwise."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_summary_csv(path: Path, result: PlanResult) -> None:
    """One row for the plan; the city and the sensor filter are free text and
    go through :func:`_csv_field`."""
    plan = result.plan
    sensor_filter = _csv_field("+".join(sorted(result.catalog.names)))
    with _atomic_open(path) as fp:
        fp.write("city,sensor_filter,n_sites,n_sensor_units,total_cost_usd,proven_optimal\n")
        fp.write(
            f"{_csv_field(result.scenario.name)},{sensor_filter},{plan.n_sites},{plan.total_units},"
            f"{plan.total_cost!r},{str(plan.proven_optimal).lower()}\n"
        )


def write_coverage_csv(path, table: CoverageTable) -> None:
    """One row per table entry, formatting each shared value once: each
    sensor's field (through :func:`_csv_field`) and, within a sensor, each
    cost's repr, as a sensor's costs are its unit price times a unit count.
    An entry that holds the previous entry's covered-set object and mean
    detection probability object reuses that row's ``n_blocks,zeta,tau``
    text.  Rows go out :data:`_ROWS_PER_WRITE` at a time."""
    entries = table.entries
    sensor = covered = zeta = None
    with _atomic_open(path) as fp:
        fp.write("sensor,site_index,n_blocks,zeta,tau,kappa,install_cost_usd\n")
        for a in range(0, len(entries), _ROWS_PER_WRITE):
            rows = []
            for e in entries[a : a + _ROWS_PER_WRITE]:
                if e.sensor != sensor:
                    sensor, costs = e.sensor, {}
                    field = _csv_field(sensor)
                if e.covered is not covered or e.mean_detect is not zeta:
                    covered, zeta = e.covered, e.mean_detect
                    shared = f"{covered.bit_count()},{zeta!r},{1.0 - zeta!r}"
                cost = costs.get(e.cost)
                if cost is None:
                    cost = costs[e.cost] = repr(e.cost)
                rows.append(f"{field},{e.site},{shared},{e.units},{cost}\n")
            fp.write("".join(rows))


def write_plan_artifacts(result: PlanResult, outdir) -> dict:
    """Write mesh/plan GeoJSON and heatmap/summary/coverage CSVs; returns the paths."""
    outdir = Path(outdir)
    paths = {
        "mesh": outdir / "mesh.geojson",
        "plan": outdir / "plan.geojson",
        "heatmap": outdir / "heatmap.csv",
        "summary": outdir / "summary.csv",
        "coverage": outdir / "coverage.csv",
    }
    write_mesh_geojson(paths["mesh"], result.mesh)
    write_json(paths["plan"], plan_to_geojson(result.plan, result.mesh))
    write_heatmap_csv(paths["heatmap"], result.mesh, result.catalog, result.scenario.heatmap_sensor)
    write_summary_csv(paths["summary"], result)
    write_coverage_csv(paths["coverage"], result.coverage)
    return paths


# -- economics ----------------------------------------------------------------


def run_econ(scenario: Scenario, plan_cost: float) -> ScenarioEconomics:
    """Cash-flow series for a given capital cost under the scenario's econ config."""
    return scenario.econ.cash_flows(plan_cost)


def write_cashflow_csv(path, econ: ScenarioEconomics) -> None:
    with _atomic_open(path) as fp:
        fp.write(
            "year,revenue_low,revenue_high,cloud_cost_low,cloud_cost_high,"
            "sensor_capex,npv_low,npv_high,cum_npv_low,cum_npv_high\n"
        )
        low, high = econ.low, econ.high
        for i, year in enumerate(low.years):
            capex = econ.capex if year == low.start_year else 0.0
            fp.write(
                f"{year},{low.positive[i]!r},{high.positive[i]!r},"
                f"{econ.cloud_low[i]!r},{econ.cloud_high[i]!r},{capex!r},"
                f"{low.npv[i]!r},{high.npv[i]!r},"
                f"{low.cumulative_npv[i]!r},{high.cumulative_npv[i]!r}\n"
            )


# -- sensitivity sweeps ---------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    parameter: str
    value: float
    n_sites: int
    n_sensor_units: int
    total_cost_usd: float
    final_cum_npv_low: float
    final_cum_npv_high: float
    break_even_year_low: Optional[int]
    break_even_year_high: Optional[int]


def _sweep_row(parameter: str, value: float, varied: Scenario, result: PlanResult) -> SweepRow:
    econ = run_econ(varied, result.plan.total_cost)
    return SweepRow(
        parameter=parameter,
        value=value,
        n_sites=result.plan.n_sites,
        n_sensor_units=result.plan.total_units,
        total_cost_usd=result.plan.total_cost,
        final_cum_npv_low=econ.low.cumulative_npv[-1],
        final_cum_npv_high=econ.high.cumulative_npv[-1],
        break_even_year_low=econ.low.break_even_year,
        break_even_year_high=econ.high.break_even_year,
    )


def sweep(scenario: Scenario, parameter: str, values: Sequence[float]) -> list:
    """Re-run the pipeline for each parameter value; placement is re-solved only
    when the parameter affects coverage (detection_scale, r).  Row order follows
    the input value order.  Every varied scenario is validated before the
    first solve.

    Only an r sweep reprices: its varied scenarios differ from ``scenario``
    in the requirement alone, so every point has the same map and catalog,
    and each point after the first reuses the previous point's mesh and
    prices its coverage table (covered sets, mean detection probabilities)
    again: unit counts are recomputed as one array per sensor type, and an
    entry whose count and cost are unchanged is carried over as the same
    object, so only entries whose count changed are built anew.  The table
    is held until this call returns or raises, and never shared with another
    call.
    A detection_scale sweep changes the mean detection at every point, so
    each point builds its own table."""
    if parameter not in SWEEP_PARAMETERS:
        raise ValidationError(f"unknown sweep parameter {parameter!r}; expected one of {SWEEP_PARAMETERS}")
    values = [float(v) for v in values]
    if not values:
        raise ValidationError("sweep needs at least one value")
    varied = [with_overrides(scenario, **{_SWEEP_FIELDS[parameter]: v}) for v in values]
    token = _sweep_table.set([] if parameter == "r" else None)
    try:
        base = run_plan(scenario) if parameter in ("fee", "n0") else None
        return [
            _sweep_row(parameter, v, s, base if base is not None else run_plan(s))
            for v, s in zip(values, varied)
        ]
    finally:
        _sweep_table.reset(token)


def write_sweep_csv(path, rows: Sequence[SweepRow]) -> None:
    with _atomic_open(path) as fp:
        fp.write(
            "parameter,value,n_sites,n_sensor_units,total_cost_usd,"
            "final_cum_npv_low,final_cum_npv_high,break_even_year_low,break_even_year_high\n"
        )
        for r in rows:
            be_low = "none" if r.break_even_year_low is None else r.break_even_year_low
            be_high = "none" if r.break_even_year_high is None else r.break_even_year_high
            fp.write(
                f"{r.parameter},{r.value!r},{r.n_sites},{r.n_sensor_units},{r.total_cost_usd!r},"
                f"{r.final_cum_npv_low!r},{r.final_cum_npv_high!r},{be_low},{be_high}\n"
            )
