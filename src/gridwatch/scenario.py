"""Scenario files: one JSON document drives a whole planning run.

:func:`load_scenario` is the one place where input is read and checked, so a
scenario it returns can be planned, priced and swept without opening another
file.  It reads, each once and each through :func:`errors.read_input`:

* the scenario JSON itself;
* the terrain grid CSV named by ``area.terrain_grid``;
* the sensor catalog JSON named by ``catalog`` (the bundled catalog when absent);
* the pricing policy and traffic projection JSON named by ``econ.pricing`` and
  ``econ.traffic``.

The :class:`Scenario` carries them parsed: the terrain as an int array, the
catalog cut to the sensors ``sensor_filter`` admits (de-duplicated), the same
catalog scaled by ``detection_scale``, the heatmap sensor resolved and checked
against it, and the pricing and traffic objects in :class:`econ.EconConfig`.

Each object checks itself when it is built, so ``replace`` in a sweep re-runs
the same checks: :class:`Scenario` its own scalars and its scaled catalog,
:class:`econ.EconConfig` every econ field and then the float range of a
zero-cost plan's cash flows, the catalog, pricing and traffic objects their
content.
:func:`load_scenario` checks the sensor filter, the heatmap sensor and that
``output_dir`` is not under a file.  The econ config is built before the
:class:`Scenario`, so an econ fault is reported before a fault in the
scenario's own scalars or ``output_dir``.

Error codes it raises:

* ``PARSE_ERROR``: a file cannot be read, is not UTF-8 or is malformed, or the
  scenario lacks a required field or has one of the wrong type.  Through
  :func:`errors.read_field`, a boolean (``apply_dominance_filter``, a
  catalog entry's ``tracks_noncooperative``) must be JSON ``true`` or
  ``false``; an integer (``solver.node_budget``, ``econ.start_year``,
  ``econ.horizon_years``, ``econ.growth_lag_years``, a catalog entry's
  ``fov_multiplier``, the traffic file's ``base_year``) a JSON integer or a
  number with no fractional part; and every other numeric field, in the
  scenario, catalog, pricing and traffic files alike, a JSON number: the
  string ``"false"`` or ``"0.3"``, ``true`` where a number is wanted,
  ``10.9`` where an integer is wanted, or ``null`` is a parse error, not a
  truthy string, a quoted number, a $1 fee or a truncated number.  A name or
  keyword (the scenario ``name``, ``rounding``, ``heatmap_sensor``,
  ``solver.mode``, ``econ.subscriber_rounding``, the ``sensor_filter`` names,
  a catalog entry's ``name``) must be a JSON string: ``true``, ``false`` or
  ``null`` there is a parse error, not a sensor named ``True``, a rounding
  named ``None`` or the default heatmap sensor;
* ``VALIDATION_ERROR``: a named file does not exist, a scalar is out of range
  or not finite, a keyword is unknown, ``sensor_filter`` names a sensor the
  catalog lacks or admits none, the heatmap sensor is not admitted, the cash
  flows overflow or divide by zero over the horizon, or ``output_dir`` lies
  under a file;
* ``TOO_LARGE``: from :class:`econ.EconConfig`, when ``econ.horizon_years``
  exceeds ``econ.MAX_HORIZON_YEARS``;
* ``VOLUME_ABOVE_TOP_TIER``: from :class:`econ.EconConfig`, when traffic
  outgrows the top ingest tier of a pricing policy that has no overflow rate;
* ``INVARIANT_VIOLATION``: catalog, pricing or traffic content breaks an
  invariant of the object it builds (e.g. a detection probability of 1), or
  ``detection_scale`` scales a detection probability to 0.

Relative paths inside a scenario (terrain grid, catalog, pricing, traffic) are
resolved against the scenario file's own directory, so scenario bundles can be
moved around as a unit.  ``output_dir`` and the CLI's ``--out`` are the
exception: they are relative to the working directory.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .catalog import SensorCatalog, default_catalog, load_catalog, scale_detection
from .coverage import ROUNDING_MODES
from .econ import EconConfig, load_pricing, load_traffic
from .errors import ParseError, ValidationError, read_field, read_input
from .geo import GeoPoint
from .mesh import load_terrain_grid
from .solver import DEFAULT_NODE_BUDGET

SOLVER_MODES = ("exact", "greedy")

SENSOR_FILTER_KEYWORDS = ("all", "noncooperative_capable")


@dataclass(frozen=True)
class Scenario:
    name: str
    corners: tuple
    block_side_km: float
    terrain: np.ndarray = field(repr=False, compare=False)  # int codes, shape (blocks_y, blocks_x)
    catalog: SensorCatalog  # the admitted sensors, unscaled
    heatmap_sensor: str
    required_detection: float
    rounding: str
    detection_scale: float
    apply_dominance_filter: bool
    solver_mode: str
    node_budget: int
    econ: EconConfig
    output_dir: Path
    # The catalog planned with.  A scale of exactly 1 keeps ``catalog``
    # itself, so no probability is clamped to MAX_DETECTION.
    scaled_catalog: SensorCatalog = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.detection_scale) and self.detection_scale > 0):
            raise ValidationError(f"detection_scale must be finite and positive, got {self.detection_scale}")
        if not 0.0 < self.required_detection < 1.0:
            raise ValidationError(f"required_detection must be in (0, 1), got {self.required_detection}")
        if self.rounding not in ROUNDING_MODES:
            raise ValidationError(f"rounding must be one of {ROUNDING_MODES}, got {self.rounding!r}")
        if self.solver_mode not in SOLVER_MODES:
            raise ValidationError(f"solver.mode must be one of {SOLVER_MODES}, got {self.solver_mode!r}")
        if self.node_budget < 1:
            raise ValidationError(f"solver.node_budget must be at least 1, got {self.node_budget}")
        scaled = self.catalog if self.detection_scale == 1.0 else scale_detection(self.catalog, self.detection_scale)
        object.__setattr__(self, "scaled_catalog", scaled)


def _input_file(base: Path, value: str, label: str) -> Path:
    p = Path(value)
    p = p if p.is_absolute() else base / p
    if not p.is_file():
        raise ValidationError(f"{label} file not found: {p}")
    return p


def _admitted(catalog: SensorCatalog, sensor_filter) -> SensorCatalog:
    """The catalog cut to the sensors a filter keyword or name list admits."""
    if sensor_filter == "all":
        return catalog
    if sensor_filter == "noncooperative_capable":
        names = [s.name for s in catalog if s.tracks_noncooperative]
        if not names:
            raise ValidationError("no sensor in the catalog can track non-cooperative aircraft")
    elif isinstance(sensor_filter, str):
        raise ValidationError(
            f"sensor_filter must be a list of names or one of {SENSOR_FILTER_KEYWORDS}, got {sensor_filter!r}"
        )
    else:
        names = [read_field(n, str, "sensor_filter name") for n in sensor_filter]
        unknown = set(names) - set(catalog.names)
        if unknown:
            raise ValidationError(f"sensor filter names not in catalog: {sorted(unknown)}")
        if not names:
            raise ValidationError("sensor filter list must not be empty")
    return catalog.filtered(names)


def load_scenario(path, overrides: Optional[dict] = None) -> Scenario:
    """Read and check a scenario JSON file and every file it names, applying CLI
    scalar overrides."""
    path = Path(path)
    doc = read_input(path, "scenario")
    base = path.parent
    overrides = overrides or {}

    try:
        area = doc["area"]
        raw_corners = area["corners"]
        if len(raw_corners) != 4:
            raise ValidationError(f"area.corners must list exactly 4 [lon, lat] pairs, got {len(raw_corners)}")
        corners = tuple(
            GeoPoint(read_field(lon, float, "area.corners longitude"), read_field(lat, float, "area.corners latitude"))
            for lon, lat in raw_corners
        )
        econ_doc = doc["econ"]
        solver_doc = doc.get("solver", {})
        terrain = load_terrain_grid(_input_file(base, area["terrain_grid"], "terrain grid"))
        catalog = _admitted(
            load_catalog(_input_file(base, doc["catalog"], "catalog")) if "catalog" in doc else default_catalog(),
            doc.get("sensor_filter", "all"),
        )
        heatmap_sensor = (
            read_field(doc["heatmap_sensor"], str, "heatmap_sensor") if "heatmap_sensor" in doc else min(catalog.names)
        )
        if heatmap_sensor not in catalog.names:
            raise ValidationError(f"heatmap sensor {heatmap_sensor!r} is not among admitted {sorted(catalog.names)}")
        scenario = Scenario(
            name=read_field(doc.get("name", path.stem), str, "name"),
            corners=corners,
            block_side_km=read_field(area["block_side_km"], float, "area.block_side_km"),
            terrain=terrain,
            catalog=catalog,
            heatmap_sensor=heatmap_sensor,
            required_detection=read_field(
                overrides.get("required_detection", doc.get("required_detection", 0.98)), float, "required_detection"
            ),
            rounding=read_field(doc.get("rounding", "ceil"), str, "rounding"),
            detection_scale=read_field(doc.get("detection_scale", 1.0), float, "detection_scale"),
            apply_dominance_filter=read_field(doc.get("apply_dominance_filter", False), bool, "apply_dominance_filter"),
            solver_mode=read_field(solver_doc.get("mode", "exact"), str, "solver.mode"),
            node_budget=read_field(solver_doc.get("node_budget", DEFAULT_NODE_BUDGET), int, "solver.node_budget"),
            econ=EconConfig(
                start_year=read_field(econ_doc.get("start_year", 2024), int, "econ.start_year"),
                horizon_years=read_field(econ_doc.get("horizon_years", 10), int, "econ.horizon_years"),
                initial_subscribers=read_field(econ_doc.get("initial_subscribers", 100), float, "econ.initial_subscribers"),
                monthly_fee_usd=read_field(
                    overrides.get("monthly_fee_usd", econ_doc.get("monthly_fee_usd", 400)), float, "econ.monthly_fee_usd"
                ),
                growth_low=read_field(econ_doc.get("growth_low", 0.10), float, "econ.growth_low"),
                growth_high=read_field(econ_doc.get("growth_high", 0.20), float, "econ.growth_high"),
                discount_rate=read_field(econ_doc.get("discount_rate", 0.10), float, "econ.discount_rate"),
                growth_lag_years=read_field(econ_doc.get("growth_lag_years", 1), int, "econ.growth_lag_years"),
                subscriber_rounding=read_field(
                    econ_doc.get("subscriber_rounding", "exact"), str, "econ.subscriber_rounding"
                ),
                pricing=load_pricing(_input_file(base, econ_doc["pricing"], "pricing policy")),
                traffic=load_traffic(_input_file(base, econ_doc["traffic"], "traffic projection")),
            ),
            output_dir=Path(overrides.get("output_dir", doc.get("output_dir", "out"))),
        )
    except KeyError as exc:
        raise ParseError(f"scenario missing required field {exc}") from None
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed scenario field: {exc}") from None

    # The output directory's nearest existing ancestor must be a directory;
    # checked before any work, and nothing is created here.
    out = scenario.output_dir
    for p in (out, *out.parents):
        if os.path.exists(p):
            if not os.path.isdir(p):
                raise ValidationError(f"cannot write {out}: {p} is not a directory")
            break
    return scenario


def with_overrides(scenario: Scenario, **kwargs) -> Scenario:
    """Checked copy of the scenario with scalar fields replaced (used by sweeps):
    ``replace`` re-runs both the scenario's and the econ config's checks and
    scales the catalog again."""
    econ_names = {f.name for f in fields(EconConfig)}
    econ = replace(scenario.econ, **{k: v for k, v in kwargs.items() if k in econ_names})
    return replace(scenario, econ=econ, **{k: v for k, v in kwargs.items() if k not in econ_names})


def bundled_minicity_path() -> Path:
    """Path to the bundled synthetic mini-city scenario."""
    from importlib import resources

    return Path(str(resources.files("gridwatch.data").joinpath("minicity.json")))
