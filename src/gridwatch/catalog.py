"""Sensor type catalog: range, unit price, field-of-view multiplier, and the
terrain-conditioned detection probability matrix."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from .errors import InvariantViolation, ParseError, read_field, read_input
from .mesh import DETECTABLE_TERRAINS, Terrain

#: JSON keys of the detection row, in terrain-code order: the terrain labels.
DETECT_KEYS = tuple(t.label for t in DETECTABLE_TERRAINS)

_KEY_TO_TERRAIN = dict(zip(DETECT_KEYS, DETECTABLE_TERRAINS))

# Probabilities of exactly 1 are rejected: a zero misdetection probability
# makes the redundancy formula divide by log(0).
MAX_DETECTION = 0.9999


@dataclass(frozen=True)
class SensorSpec:
    """One sensor type: geometry, price, and per-terrain detection probabilities."""

    name: str
    range_km: float
    unit_price_usd: float
    fov_multiplier: int
    tracks_noncooperative: bool
    detect: Mapping[Terrain, float]

    def __post_init__(self):
        if not self.name:
            raise InvariantViolation("sensor spec with empty name")
        if not self.range_km > 0:
            raise InvariantViolation(f"{self.name}: range_km must be > 0, got {self.range_km}")
        # Coverage and the dominance filter square the range.
        if not math.isfinite(self.range_km * self.range_km):
            raise InvariantViolation(f"{self.name}: range_km must have a finite square, got {self.range_km}")
        if not self.unit_price_usd > 0:
            raise InvariantViolation(f"{self.name}: unit_price_usd must be > 0, got {self.unit_price_usd}")
        if not (isinstance(self.fov_multiplier, int) and self.fov_multiplier >= 1):
            raise InvariantViolation(f"{self.name}: fov_multiplier must be an integer >= 1, got {self.fov_multiplier}")
        if self.fov_multiplier > sys.float_info.max:
            raise InvariantViolation(f"{self.name}: fov_multiplier is past the float range of {sys.float_info.max:.6g}")
        missing = [t.label for t in DETECTABLE_TERRAINS if t not in self.detect]
        if missing:
            raise InvariantViolation(f"{self.name}: missing detection entries for {missing}")
        for terrain, p in self.detect.items():
            if not 0.0 < p < 1.0:
                raise InvariantViolation(
                    f"{self.name}: detect[{Terrain(terrain).label}] = {p} is outside the open interval (0, 1)"
                )
        object.__setattr__(self, "detect", MappingProxyType(dict(self.detect)))


@dataclass(frozen=True)
class SensorCatalog:
    """Ordered, name-unique collection of sensor specs."""

    specs: tuple

    def __post_init__(self):
        if not self.specs:
            raise InvariantViolation("catalog must contain at least one sensor spec")
        names = [s.name for s in self.specs]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise InvariantViolation(f"duplicate sensor names in catalog: {dupes}")

    def __iter__(self):
        return iter(self.specs)

    def __len__(self):
        return len(self.specs)

    @property
    def names(self) -> tuple:
        return tuple(s.name for s in self.specs)

    def get(self, name: str) -> SensorSpec:
        for s in self.specs:
            if s.name == name:
                return s
        raise KeyError(name)

    @property
    def min_range_km(self) -> float:
        """Smallest range over all types; used for the mesh feasibility precondition."""
        return min(s.range_km for s in self.specs)

    def filtered(self, names) -> "SensorCatalog":
        """Catalog restricted to the given sensor names (order preserved)."""
        wanted = set(names)
        unknown = wanted - set(self.names)
        if unknown:
            raise InvariantViolation(f"unknown sensor name(s): {sorted(unknown)}")
        return SensorCatalog(tuple(s for s in self.specs if s.name in wanted))


def _spec_from_dict(raw: dict) -> SensorSpec:
    expected = {"name", "range_km", "unit_price_usd", "fov_multiplier", "tracks_noncooperative", "detect"}
    if not isinstance(raw, dict) or set(raw) != expected:
        raise ParseError(f"sensor entry must have exactly the fields {sorted(expected)}, got {sorted(raw)}")
    detect_raw = raw["detect"]
    if not isinstance(detect_raw, dict) or set(detect_raw) != set(DETECT_KEYS):
        raise ParseError(f"{raw.get('name', '?')}: detect must have exactly the keys {list(DETECT_KEYS)}")
    sensor = read_field(raw["name"], str, "catalog sensor name")
    name = f"catalog sensor {sensor}"
    return SensorSpec(
        name=sensor,
        range_km=read_field(raw["range_km"], float, f"{name}: range_km"),
        unit_price_usd=read_field(raw["unit_price_usd"], float, f"{name}: unit_price_usd"),
        fov_multiplier=read_field(raw["fov_multiplier"], int, f"{name}: fov_multiplier"),
        tracks_noncooperative=read_field(raw["tracks_noncooperative"], bool, f"{name}: tracks_noncooperative"),
        detect={_KEY_TO_TERRAIN[k]: read_field(v, float, f"{name}: detect.{k}") for k, v in detect_raw.items()},
    )


def load_catalog(source) -> SensorCatalog:
    """Load a catalog from a JSON file path or an already-parsed dict."""
    doc = source if isinstance(source, dict) else read_input(source, "catalog")
    if not isinstance(doc, dict) or "sensors" not in doc or not isinstance(doc["sensors"], list):
        raise ParseError('catalog JSON must be an object with a "sensors" list')
    try:
        specs = tuple(_spec_from_dict(entry) for entry in doc["sensors"])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed catalog entry: {exc}") from None
    return SensorCatalog(specs)


def default_catalog() -> SensorCatalog:
    """The bundled six-type catalog."""
    return load_catalog(Path(str(resources.files("gridwatch.data").joinpath("catalog.json"))))


def scale_detection(catalog: SensorCatalog, factor: float) -> SensorCatalog:
    """Multiply every detection probability by ``factor``, clamped to (0, MAX_DETECTION]."""
    if not factor > 0:
        raise InvariantViolation(f"detection scale factor must be > 0, got {factor}")
    specs = []
    for s in catalog:
        scaled = {t: min(p * factor, MAX_DETECTION) for t, p in s.detect.items()}
        specs.append(replace(s, detect=scaled))
    return SensorCatalog(tuple(specs))
