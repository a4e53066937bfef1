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
catalog cut to the sensors ``sensor_filter`` admits (de-duplicated, not yet
scaled by ``detection_scale``), the heatmap sensor resolved and checked
against it, and the pricing and traffic objects in :class:`EconConfig`.

Error codes it raises:

* ``PARSE_ERROR``: a file cannot be read, is not UTF-8 or is malformed, or the
  scenario lacks a required field or has one of the wrong type;
* ``VALIDATION_ERROR``: a named file does not exist, a scalar is out of range
  or not finite, a keyword is unknown, ``sensor_filter`` names a sensor the
  catalog lacks or admits none, the heatmap sensor is not admitted, or the
  growth or discount factor compounded over the horizon is not a finite
  nonzero float;
* ``TOO_LARGE``: ``econ.horizon_years`` exceeds ``MAX_HORIZON_YEARS``;
* ``INVARIANT_VIOLATION``: catalog, pricing or traffic content breaks an
  invariant of the object it builds (e.g. a detection probability of 1).

Relative paths inside a scenario (terrain grid, catalog, pricing, traffic) are
resolved against the scenario file's own directory, so scenario bundles can be
moved around as a unit.  ``output_dir`` and the CLI's ``--out`` are the
exception: they are relative to the working directory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .catalog import SensorCatalog, default_catalog, load_catalog
from .coverage import ROUNDING_MODES
from .econ import SUBSCRIBER_ROUNDINGS, CloudPricingPolicy, TrafficProjection, load_pricing, load_traffic
from .errors import ParseError, TooLarge, ValidationError, read_input
from .geo import GeoPoint
from .mesh import load_terrain_grid
from .solver import DEFAULT_NODE_BUDGET

SOLVER_MODES = ("exact", "greedy")

SENSOR_FILTER_KEYWORDS = ("all", "noncooperative_capable")

# Longest cash-flow horizon: the econ stage builds per-year series of this length.
MAX_HORIZON_YEARS = 1000


@dataclass(frozen=True)
class EconConfig:
    start_year: int
    horizon_years: int
    initial_subscribers: float
    monthly_fee_usd: float
    growth_low: float
    growth_high: float
    discount_rate: float
    growth_lag_years: int
    subscriber_rounding: str
    pricing: CloudPricingPolicy
    traffic: TrafficProjection


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
        names = [str(n) for n in sensor_filter]
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
        corners = tuple(GeoPoint(float(lon), float(lat)) for lon, lat in raw_corners)
        econ_doc = doc["econ"]
        solver_doc = doc.get("solver", {})
        terrain = load_terrain_grid(_input_file(base, area["terrain_grid"], "terrain grid"))
        catalog = _admitted(
            load_catalog(_input_file(base, doc["catalog"], "catalog")) if "catalog" in doc else default_catalog(),
            doc.get("sensor_filter", "all"),
        )
        heatmap_sensor = doc.get("heatmap_sensor") or min(catalog.names)
        if heatmap_sensor not in catalog.names:
            raise ValidationError(f"heatmap sensor {heatmap_sensor!r} is not among admitted {sorted(catalog.names)}")
        scenario = Scenario(
            name=str(doc.get("name", path.stem)),
            corners=corners,
            block_side_km=float(area["block_side_km"]),
            terrain=terrain,
            catalog=catalog,
            heatmap_sensor=heatmap_sensor,
            required_detection=float(overrides.get("required_detection", doc.get("required_detection", 0.98))),
            rounding=str(doc.get("rounding", "ceil")),
            detection_scale=float(doc.get("detection_scale", 1.0)),
            apply_dominance_filter=bool(doc.get("apply_dominance_filter", False)),
            solver_mode=str(solver_doc.get("mode", "exact")),
            node_budget=int(solver_doc.get("node_budget", DEFAULT_NODE_BUDGET)),
            econ=EconConfig(
                start_year=int(econ_doc.get("start_year", 2024)),
                horizon_years=int(econ_doc.get("horizon_years", 10)),
                initial_subscribers=float(econ_doc.get("initial_subscribers", 100)),
                monthly_fee_usd=float(overrides.get("monthly_fee_usd", econ_doc.get("monthly_fee_usd", 400))),
                growth_low=float(econ_doc.get("growth_low", 0.10)),
                growth_high=float(econ_doc.get("growth_high", 0.20)),
                discount_rate=float(econ_doc.get("discount_rate", 0.10)),
                growth_lag_years=int(econ_doc.get("growth_lag_years", 1)),
                subscriber_rounding=str(econ_doc.get("subscriber_rounding", "exact")),
                pricing=load_pricing(_input_file(base, econ_doc["pricing"], "pricing policy")),
                traffic=load_traffic(_input_file(base, econ_doc["traffic"], "traffic projection")),
            ),
            output_dir=Path(overrides.get("output_dir", doc.get("output_dir", "out"))),
        )
    except KeyError as exc:
        raise ParseError(f"scenario missing required field {exc}") from None
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed scenario field: {exc}") from None

    _validate(scenario)
    return scenario


def _validate(s: Scenario) -> None:
    e = s.econ
    for label, value in (
        ("detection_scale", s.detection_scale),
        ("econ.monthly_fee_usd", e.monthly_fee_usd),
        ("econ.initial_subscribers", e.initial_subscribers),
        ("econ.growth_low", e.growth_low),
        ("econ.growth_high", e.growth_high),
        ("econ.discount_rate", e.discount_rate),
    ):
        if not math.isfinite(value):
            raise ValidationError(f"{label} must be finite, got {value}")
    if not 0.0 < s.required_detection < 1.0:
        raise ValidationError(f"required_detection must be in (0, 1), got {s.required_detection}")
    if s.rounding not in ROUNDING_MODES:
        raise ValidationError(f"rounding must be one of {ROUNDING_MODES}, got {s.rounding!r}")
    if s.detection_scale <= 0:
        raise ValidationError(f"detection_scale must be positive, got {s.detection_scale}")
    if s.solver_mode not in SOLVER_MODES:
        raise ValidationError(f"solver mode must be one of {SOLVER_MODES}, got {s.solver_mode!r}")
    if s.node_budget < 1:
        raise ValidationError(f"node_budget must be at least 1, got {s.node_budget}")
    if e.horizon_years < 1:
        raise ValidationError(f"econ.horizon_years must be at least 1, got {e.horizon_years}")
    if e.horizon_years > MAX_HORIZON_YEARS:
        raise TooLarge(f"econ.horizon_years {e.horizon_years} exceeds the limit of {MAX_HORIZON_YEARS}")
    if not 0 <= e.growth_low <= e.growth_high:
        raise ValidationError(f"econ growth band must satisfy 0 <= low <= high, got ({e.growth_low}, {e.growth_high})")
    if e.subscriber_rounding not in SUBSCRIBER_ROUNDINGS:
        raise ValidationError(f"econ.subscriber_rounding must be one of {SUBSCRIBER_ROUNDINGS}")
    if e.growth_lag_years < 0:
        raise ValidationError(f"econ.growth_lag_years must be non-negative, got {e.growth_lag_years}")
    if e.monthly_fee_usd < 0:
        raise ValidationError(f"econ.monthly_fee_usd must be non-negative, got {e.monthly_fee_usd}")
    if e.initial_subscribers < 0:
        raise ValidationError(f"econ.initial_subscribers must be non-negative, got {e.initial_subscribers}")
    if e.discount_rate <= -1:
        raise ValidationError(f"econ.discount_rate must exceed -1, got {e.discount_rate}")
    # Growth and discount factors compound over the horizon; each must stay a
    # finite, nonzero float or the cash-flow series overflows or divides by 0.
    for label, rate in (("econ.growth_high", e.growth_high), ("econ.discount_rate", e.discount_rate)):
        try:
            factor = (1.0 + rate) ** e.horizon_years
        except OverflowError:
            factor = math.inf
        if not 0.0 < factor < math.inf:
            raise ValidationError(
                f"(1 + {label}) ** econ.horizon_years is not a finite nonzero float "
                f"({label} = {rate}, horizon {e.horizon_years} years)"
            )


def with_overrides(scenario: Scenario, **kwargs) -> Scenario:
    """Validated copy of the scenario with scalar fields replaced (used by sweeps)."""
    econ_fields = {"monthly_fee_usd", "initial_subscribers"}
    econ_kwargs = {k: v for k, v in kwargs.items() if k in econ_fields}
    top_kwargs = {k: v for k, v in kwargs.items() if k not in econ_fields}
    out = scenario
    if econ_kwargs:
        out = replace(out, econ=replace(out.econ, **econ_kwargs))
    if top_kwargs:
        out = replace(out, **top_kwargs)
    _validate(out)
    return out


def bundled_minicity_path() -> Path:
    """Path to the bundled synthetic mini-city scenario."""
    from importlib import resources

    return Path(str(resources.files("gridwatch.data").joinpath("minicity.json")))
