"""Scenario files: one JSON document drives a whole planning run.

Relative paths inside a scenario (terrain grid, catalog, pricing, traffic) are
resolved against the scenario file's own directory, so scenario bundles can be
moved around as a unit.  ``output_dir`` and the CLI's ``--out`` are the
exception: they are relative to the working directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from .catalog import SensorCatalog, default_catalog, load_catalog
from .coverage import ROUNDING_MODES
from .econ import SUBSCRIBER_ROUNDINGS
from .errors import ParseError, ValidationError
from .geo import GeoPoint
from .solver import DEFAULT_NODE_BUDGET

SOLVER_MODES = ("exact", "greedy")

SENSOR_FILTER_KEYWORDS = ("all", "noncooperative_capable")


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
    pricing_path: Path
    traffic_path: Path


@dataclass(frozen=True)
class Scenario:
    name: str
    corners: tuple
    block_side_km: float
    terrain_path: Path
    catalog_path: Optional[Path]
    sensor_filter: object  # keyword string or tuple of names
    required_detection: float
    rounding: str
    detection_scale: float
    apply_dominance_filter: bool
    solver_mode: str
    node_budget: int
    heatmap_sensor: Optional[str]
    econ: EconConfig
    output_dir: Path

    def load_sensor_catalog(self) -> SensorCatalog:
        return load_catalog(self.catalog_path) if self.catalog_path else default_catalog()

    def resolve_sensor_filter(self, catalog: SensorCatalog) -> tuple:
        """Admitted sensor names, sorted, after applying the filter keyword or list."""
        if self.sensor_filter == "all":
            names = catalog.names
        elif self.sensor_filter == "noncooperative_capable":
            names = tuple(s.name for s in catalog if s.tracks_noncooperative)
            if not names:
                raise ValidationError("no sensor in the catalog can track non-cooperative aircraft")
        else:
            unknown = set(self.sensor_filter) - set(catalog.names)
            if unknown:
                raise ValidationError(f"sensor filter names not in catalog: {sorted(unknown)}")
            if not self.sensor_filter:
                raise ValidationError("sensor filter list must not be empty")
            names = tuple(self.sensor_filter)
        return tuple(sorted(names))


def _resolve(base: Path, value: str) -> Path:
    p = Path(value)
    return p if p.is_absolute() else base / p


def load_scenario(path, overrides: Optional[dict] = None) -> Scenario:
    """Read and validate a scenario JSON file, applying CLI scalar overrides."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"cannot read scenario: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid scenario JSON: {exc}") from None
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
        scenario = Scenario(
            name=str(doc.get("name", path.stem)),
            corners=corners,
            block_side_km=float(area["block_side_km"]),
            terrain_path=_resolve(base, area["terrain_grid"]),
            catalog_path=_resolve(base, doc["catalog"]) if "catalog" in doc else None,
            sensor_filter=(
                doc.get("sensor_filter", "all")
                if isinstance(doc.get("sensor_filter", "all"), str)
                else tuple(str(n) for n in doc["sensor_filter"])
            ),
            required_detection=float(overrides.get("required_detection", doc.get("required_detection", 0.98))),
            rounding=str(doc.get("rounding", "ceil")),
            detection_scale=float(doc.get("detection_scale", 1.0)),
            apply_dominance_filter=bool(doc.get("apply_dominance_filter", False)),
            solver_mode=str(solver_doc.get("mode", "exact")),
            node_budget=int(solver_doc.get("node_budget", DEFAULT_NODE_BUDGET)),
            heatmap_sensor=doc.get("heatmap_sensor"),
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
                pricing_path=_resolve(base, econ_doc["pricing"]),
                traffic_path=_resolve(base, econ_doc["traffic"]),
            ),
            output_dir=Path(overrides.get("output_dir", doc.get("output_dir", "out"))),
        )
    except KeyError as exc:
        raise ParseError(f"scenario missing required field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed scenario field: {exc}") from None

    _validate(scenario)
    return scenario


def _validate(s: Scenario) -> None:
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
    if isinstance(s.sensor_filter, str) and s.sensor_filter not in SENSOR_FILTER_KEYWORDS:
        raise ValidationError(
            f"sensor_filter must be a list of names or one of {SENSOR_FILTER_KEYWORDS}, got {s.sensor_filter!r}"
        )
    e = s.econ
    if e.horizon_years < 1:
        raise ValidationError(f"econ.horizon_years must be at least 1, got {e.horizon_years}")
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
    for label, p in (("terrain grid", s.terrain_path), ("pricing policy", e.pricing_path), ("traffic projection", e.traffic_path)):
        if not Path(p).is_file():
            raise ValidationError(f"{label} file not found: {p}")
    if s.catalog_path and not Path(s.catalog_path).is_file():
        raise ValidationError(f"catalog file not found: {s.catalog_path}")


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
