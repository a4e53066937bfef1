"""Workload definitions and the seeded generator of their input files.

Each workload is a gridded area of 0.3 km blocks.  The generator writes a
scenario JSON, a terrain CSV and copies of the bundled pricing and traffic
files into an empty directory; the program under test receives nothing else.

Terrain is a seeded shuffle of a fixed terrain mix within each block row, so
every seed gives a different map while every sensor footprint sees nearly the
same mix.  That mix sets the mean detection probability behind unit counts, so
plan cost and solve effort stay comparable from seed to seed.

Run as a script it is the set-up step that ``run.py`` times:

    python3 perfbench/inputs.py --workload city-10k --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

OUTSIDE, OPEN, WATER, NEIGHBORHOOD, HILL, COMMERCIAL = -1, 0, 1, 2, 3, 4

BLOCK_SIDE_KM = 0.3
SCENARIO_FILE = "scenario.json"
TERRAIN_FILE = "terrain.csv"
# Set-up takes about 0.2 s, so it is probed more often than an op.
SETUP_PROBE_INTERVAL_S = 0.004


@dataclass(frozen=True)
class Workload:
    name: str
    op: str  # "plan" or "sweep"
    blocks: int  # blocks per side of the square area
    terrain_mix: dict  # terrain code -> share of blocks
    sensor_filter: object  # list of names or a filter keyword
    node_budget: int
    sweep_values: tuple = ()


# Shares times the row width are whole numbers at the chosen sizes.
_LAND = {OPEN: 0.30, NEIGHBORHOOD: 0.30, HILL: 0.10, COMMERCIAL: 0.20}

WORKLOADS = {
    w.name: w
    for w in (
        # No water, and enough open land that every Radar footprint's mean
        # detection (about 0.88) stays clear of 0.8586, where a site needs a
        # third unit at r = 0.98: plan cost and root bound then hold from
        # seed to seed, and only the search path changes.
        Workload(
            name="search-400",
            op="plan",
            blocks=20,
            terrain_mix={OPEN: 0.50, NEIGHBORHOOD: 0.30, HILL: 0.05, COMMERCIAL: 0.15},
            sensor_filter=["Acoustic", "OpticalCamera", "Radar"],
            node_budget=20_000,
        ),
        Workload(
            name="city-10k",
            op="plan",
            blocks=100,
            terrain_mix={**_LAND, WATER: 0.05, OUTSIDE: 0.05},
            sensor_filter=["ADS-B", "RF", "RemoteID"],
            node_budget=10_000_000,
        ),
        Workload(
            name="sweep-r",
            op="sweep",
            blocks=30,
            terrain_mix={**_LAND, WATER: 0.10},
            sensor_filter="noncooperative_capable",
            node_budget=300,
            sweep_values=(0.90, 0.92, 0.94, 0.95, 0.96, 0.97, 0.98, 0.99),
        ),
    )
}


def import_gridwatch():
    """Import ``gridwatch`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "gridwatch" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gridwatch package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import gridwatch

    if Path(gridwatch.__file__).resolve().parent != SRC / "gridwatch":
        raise SystemExit(f"perfbench: imported gridwatch from {gridwatch.__file__}, not from {SRC}")
    return gridwatch


def corners_for(width_km: float, height_km: float, earth_radius_km: float, lon0=-84.0, lat0=39.0) -> list:
    """Four [lon, lat] corners whose projected bounding box spans exactly the given km."""
    deg = math.pi / 180.0
    dlat = height_km / (earth_radius_km * deg)
    # The projection origin is the bounding-box centre, so the cosine factor is
    # taken at mid-latitude for the width to come out exact.
    dlon = width_km / (earth_radius_km * math.cos((lat0 + dlat / 2.0) * deg) * deg)
    return [[lon0, lat0], [lon0 + dlon, lat0], [lon0 + dlon, lat0 + dlat], [lon0, lat0 + dlat]]


def terrain_grid(workload: Workload, seed: int):
    """Terrain codes, row 0 southernmost: every row holds the workload's exact
    terrain mix, shuffled within the row by ``seed``."""
    import numpy as np

    width = workload.blocks
    row = []
    for code, share in sorted(workload.terrain_mix.items()):
        row += [code] * round(share * width)
    if len(row) != width:
        raise ValueError(f"{workload.name}: terrain shares give {len(row)} blocks per row, expected {width}")
    rng = np.random.default_rng([seed, width])
    return np.stack([rng.permutation(row) for _ in range(width)])


def write_inputs(workload: Workload, seed: int, out: Path) -> Path:
    """Write the workload's input files into ``out``; returns the scenario path."""
    from gridwatch.geo import EARTH_RADIUS_KM
    from gridwatch.scenario import bundled_minicity_path

    out.mkdir(parents=True, exist_ok=True)
    grid = terrain_grid(workload, seed)
    (out / TERRAIN_FILE).write_text("\n".join(",".join(str(v) for v in row) for row in grid.tolist()) + "\n", encoding="utf-8")
    data = bundled_minicity_path().parent
    for name in ("pricing.json", "traffic.json"):
        shutil.copyfile(data / name, out / name)
    span = workload.blocks * BLOCK_SIDE_KM
    doc = {
        "name": f"{workload.name}-seed{seed}",
        "area": {
            "corners": corners_for(span, span, EARTH_RADIUS_KM),
            "block_side_km": BLOCK_SIDE_KM,
            "terrain_grid": TERRAIN_FILE,
        },
        "sensor_filter": workload.sensor_filter,
        "required_detection": 0.98,
        "solver": {"mode": "exact", "node_budget": workload.node_budget},
        "econ": {"pricing": "pricing.json", "traffic": "traffic.json"},
        "output_dir": "out",
    }
    path = out / SCENARIO_FILE
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    """Set-up step: import gridwatch and write the inputs, under the speed
    probe; prints the probe's findings as one JSON line."""
    from probe import SpeedProbe

    with SpeedProbe(interval_s=SETUP_PROBE_INTERVAL_S) as speed:
        parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
        parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
        parser.add_argument("--seed", required=True, type=int)
        parser.add_argument("--out", required=True, type=Path)
        args = parser.parse_args(argv)
        import_gridwatch()
        write_inputs(WORKLOADS[args.workload], args.seed, args.out)
    print(json.dumps({"slowdown": speed.slowdown, "probe_s": speed.probe_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
