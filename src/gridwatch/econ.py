"""Data volumes, cloud operating cost, subscription revenue, and NPV.

Cloud prices are configuration, not constants: the model knows the *structure*
of each cost component (tiered ingest, per-byte-month storage, fixed plus
variable analytics and database, per-user reporting) and reads the rates from
a pricing policy file.  Subscriber growth is compounded with a one-year lag by
default: the first two operating years share the initial subscriber count and
growth compounds from the third.  Flight hours grow at the same rate.

:class:`EconConfig` is the cash-flow model: it holds a scenario's inputs,
checks every one of them, ``TOO_LARGE`` for the horizon included, when it is
built, and prices a plan with :meth:`EconConfig.cash_flows`.  Building a
config also prices a zero-cost plan, so a scenario is rejected before any
solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .errors import InvariantViolation, ParseError, TooLarge, ValidationError, VolumeAboveTopTier, read_field, read_input

#: Aircraft classes whose surveillance traffic is modeled.
AIRCRAFT_CLASSES = ("cooperative_manned", "cooperative_uncrewed", "non_cooperative")

SUBSCRIBER_ROUNDINGS = ("exact", "ceil", "floor", "nearest")

SECONDS_PER_HOUR = 3600

# Longest cash-flow horizon: the model builds per-year series of this length.
MAX_HORIZON_YEARS = 1000


@dataclass(frozen=True)
class MessageSpec:
    """Surveillance message format for one aircraft class."""

    aircraft_class: str
    interface_standard: str
    message_bits: int
    ping_rate_hz: float = 1.0

    def __post_init__(self):
        if self.aircraft_class not in AIRCRAFT_CLASSES:
            raise InvariantViolation(f"unknown aircraft class {self.aircraft_class!r}; expected one of {AIRCRAFT_CLASSES}")
        if not (isinstance(self.message_bits, int) and self.message_bits > 0):
            raise InvariantViolation(f"{self.aircraft_class}: message_bits must be a positive integer")
        if not self.ping_rate_hz >= 1.0:
            raise InvariantViolation(f"{self.aircraft_class}: ping rate must be at least 1 Hz")


#: Message sizes per aircraft class (bits per message at 1 Hz).
DEFAULT_MESSAGE_SPECS = (
    MessageSpec("cooperative_manned", "ASTERIX CAT-021", 1136),
    MessageSpec("cooperative_uncrewed", "ASTERIX CAT-129", 432),
    MessageSpec("non_cooperative", "ASTERIX CAT-062", 2648),
)


def data_volume(hours_by_class: Mapping[str, float]) -> dict:
    """Yearly surveillance bits per aircraft class from flight hours."""
    unknown = set(hours_by_class) - set(AIRCRAFT_CLASSES)
    if unknown:
        raise ValidationError(f"unknown aircraft class(es) in traffic: {sorted(unknown)}")
    bits = {}
    for spec in DEFAULT_MESSAGE_SPECS:
        hours = float(hours_by_class.get(spec.aircraft_class, 0.0))
        if hours < 0:
            raise ValidationError(f"negative flight hours for {spec.aircraft_class}")
        bits[spec.aircraft_class] = hours * SECONDS_PER_HOUR * spec.ping_rate_hz * spec.message_bits
    return bits


def total_volume_bytes(hours_by_class: Mapping[str, float]) -> float:
    return sum(data_volume(hours_by_class).values()) / 8.0


def growth_exponent(year: int, start_year: int, lag: int = 1) -> int:
    """Compounding exponent for a given year; growth starts ``lag`` years after start."""
    return max(0, year - start_year - lag)


@dataclass(frozen=True)
class TrafficProjection:
    """Projected flight hours per aircraft class; years without explicit hours
    grow from the base year at the rate the caller passes."""

    base_year: int
    base_hours: Mapping[str, float]
    per_year: Mapping[int, Mapping[str, float]] = field(default_factory=dict)

    def __post_init__(self):
        unknown = set(self.base_hours) - set(AIRCRAFT_CLASSES)
        if unknown:
            raise InvariantViolation(f"unknown aircraft class(es): {sorted(unknown)}")
        if any(h < 0 for h in self.base_hours.values()):
            raise InvariantViolation("flight hours must be non-negative")

    def hours_for(self, year: int, growth: float, lag: int = 1) -> dict:
        explicit = self.per_year.get(year)
        if explicit is not None:
            return {k: float(v) for k, v in explicit.items()}
        factor = (1.0 + growth) ** growth_exponent(year, self.base_year, lag)
        return {k: h * factor for k, h in self.base_hours.items()}


def load_traffic(source) -> TrafficProjection:
    """Load a traffic projection from a JSON file path or parsed dict.  Keys it
    does not use, such as an old file's ``growth_low``/``growth_high``, are ignored."""
    doc = source if isinstance(source, dict) else read_input(source, "traffic projection")
    try:
        per_year = {
            int(y): {str(k): read_field(v, float, f"traffic per_year.{y}.{k}") for k, v in hours.items()}
            for y, hours in doc.get("per_year", {}).items()
        }
        return TrafficProjection(
            base_year=read_field(doc["base_year"], int, "traffic base_year"),
            base_hours={str(k): read_field(v, float, f"traffic hours.{k}") for k, v in doc["hours"].items()},
            per_year=per_year,
        )
    except KeyError as exc:
        raise ParseError(f"traffic projection missing field {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed traffic projection field: {exc}") from None


@dataclass(frozen=True)
class IngestTier:
    max_bytes: float  # exclusive upper bound of this tier
    usd_per_year: float


@dataclass(frozen=True)
class CloudPricingPolicy:
    """Structural cloud cost model; all rates come from configuration."""

    ingest_tiers: tuple
    ingest_overflow_usd_per_byte: Optional[float]
    storage_usd_per_byte_month: float
    analytics_fixed_usd_per_year: float
    analytics_usd_per_byte: float
    database_fixed_usd_per_year: float
    database_usd_per_byte: float
    reporting_usd_per_subscriber_month: float

    def __post_init__(self):
        if not self.ingest_tiers:
            raise InvariantViolation("pricing policy needs at least one ingest tier")
        bounds = [t.max_bytes for t in self.ingest_tiers]
        if any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise InvariantViolation(f"ingest tier thresholds must be strictly increasing, got {bounds}")
        rates = [t.usd_per_year for t in self.ingest_tiers] + [
            self.storage_usd_per_byte_month,
            self.analytics_fixed_usd_per_year,
            self.analytics_usd_per_byte,
            self.database_fixed_usd_per_year,
            self.database_usd_per_byte,
            self.reporting_usd_per_subscriber_month,
        ]
        if self.ingest_overflow_usd_per_byte is not None:
            rates.append(self.ingest_overflow_usd_per_byte)
        if any(r < 0 for r in rates):
            raise InvariantViolation("all pricing rates must be non-negative")

    def ingest_cost(self, volume_bytes: float) -> float:
        """Tiered step cost; a volume exactly at a threshold lands in the higher tier."""
        for tier in self.ingest_tiers:
            if volume_bytes < tier.max_bytes:
                return tier.usd_per_year
        top = self.ingest_tiers[-1]
        if self.ingest_overflow_usd_per_byte is None:
            raise VolumeAboveTopTier(
                f"yearly volume {volume_bytes:.4g} B exceeds the top ingest tier bound {top.max_bytes:.4g} B"
            )
        return top.usd_per_year + self.ingest_overflow_usd_per_byte * (volume_bytes - top.max_bytes)


def load_pricing(source) -> CloudPricingPolicy:
    """Load a cloud pricing policy from a JSON file path or parsed dict."""
    doc = source if isinstance(source, dict) else read_input(source, "pricing policy")

    def number(section: dict, key: str, where: str) -> float:
        return read_field(section[key], float, f"pricing {where}.{key}")

    try:
        ingest = doc["ingest"]
        tiers = tuple(
            IngestTier(number(t, "max_bytes", f"ingest.tiers[{i}]"), number(t, "usd_per_year", f"ingest.tiers[{i}]"))
            for i, t in enumerate(ingest["tiers"])
        )
        overflow = ingest.get("overflow_usd_per_byte")
        if overflow is not None:
            overflow = number(ingest, "overflow_usd_per_byte", "ingest")
        return CloudPricingPolicy(
            ingest_tiers=tiers,
            ingest_overflow_usd_per_byte=overflow,
            storage_usd_per_byte_month=number(doc["storage"], "usd_per_byte_month", "storage"),
            analytics_fixed_usd_per_year=number(doc["analytics"], "fixed_usd_per_year", "analytics"),
            analytics_usd_per_byte=number(doc["analytics"], "usd_per_byte", "analytics"),
            database_fixed_usd_per_year=number(doc["database"], "fixed_usd_per_year", "database"),
            database_usd_per_byte=number(doc["database"], "usd_per_byte", "database"),
            reporting_usd_per_subscriber_month=number(doc["reporting"], "usd_per_subscriber_month", "reporting"),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"pricing policy missing or malformed field: {exc}") from None


def cloud_cost(
    volume_bytes_by_year: Mapping[int, float],
    subscribers_by_year: Mapping[int, float],
    policy: CloudPricingPolicy,
) -> dict:
    """Per-year cloud cost components; storage is billed on cumulative stored bytes."""
    years = sorted(volume_bytes_by_year)
    out = {}
    stored = 0.0
    for year in years:
        volume = volume_bytes_by_year[year]
        stored += volume
        subs = float(subscribers_by_year.get(year, 0.0))
        components = {
            "ingest": policy.ingest_cost(volume),
            "storage": stored * policy.storage_usd_per_byte_month * 12.0,
            "analytics": policy.analytics_fixed_usd_per_year + policy.analytics_usd_per_byte * volume,
            "database": policy.database_fixed_usd_per_year + policy.database_usd_per_byte * volume,
            "reporting": subs * policy.reporting_usd_per_subscriber_month * 12.0,
        }
        components["total"] = math.fsum(components.values())
        out[year] = components
    return out


def subscribers(n0: float, growth: float, year: int, start_year: int, lag: int = 1, rounding: str = "exact") -> float:
    """Subscriber count for a year under compound growth with the documented lag."""
    if rounding not in SUBSCRIBER_ROUNDINGS:
        raise ValidationError(f"unknown subscriber rounding {rounding!r}; expected one of {SUBSCRIBER_ROUNDINGS}")
    count = n0 * (1.0 + growth) ** growth_exponent(year, start_year, lag)
    if rounding == "ceil":
        return float(math.ceil(count))
    if rounding == "floor":
        return float(math.floor(count))
    if rounding == "nearest":
        return float(math.floor(count + 0.5))
    return count


@dataclass(frozen=True)
class CashFlowSeries:
    """Yearly positive/negative flows with discounted and cumulative NPV."""

    start_year: int
    years: tuple
    positive: tuple
    negative: tuple
    discount_rate: float
    npv: tuple = field(init=False)
    cumulative_npv: tuple = field(init=False)

    def __post_init__(self):
        if len(self.years) < 1:
            raise ValidationError("cash flow series needs a horizon of at least 1 year")
        if self.years != tuple(range(self.start_year, self.start_year + len(self.years))):
            raise ValidationError("cash flow years must be consecutive from start_year")
        if not (len(self.years) == len(self.positive) == len(self.negative)):
            raise ValidationError("years, positive, and negative flows must have equal length")
        if self.discount_rate <= -1.0:
            raise ValidationError(f"discount rate must exceed -1, got {self.discount_rate}")
        npv = tuple(
            (p - n) / (1.0 + self.discount_rate) ** (t - self.start_year)
            for t, p, n in zip(self.years, self.positive, self.negative)
        )
        cumulative = []
        running = 0.0
        for v in npv:
            running += v
            cumulative.append(running)
        # A non-finite flow or an overflowing sum leaves the running total non-finite.
        if not math.isfinite(running):
            raise ValidationError(f"cash flows over {len(self.years)} year(s) are not finite floats")
        object.__setattr__(self, "npv", npv)
        object.__setattr__(self, "cumulative_npv", tuple(cumulative))

    @property
    def break_even_year(self) -> Optional[int]:
        """First year whose cumulative discounted net flow is non-negative."""
        for t, cum in zip(self.years, self.cumulative_npv):
            if cum >= 0.0:
                return t
        return None


@dataclass(frozen=True)
class ScenarioEconomics:
    """Low/high growth-band cash flows for one placement plan.  Each band's
    yearly revenue is its series' ``positive`` flows; ``cloud_low`` and
    ``cloud_high`` hold each year's total cloud cost."""

    capex: float
    low: CashFlowSeries
    high: CashFlowSeries
    cloud_low: tuple
    cloud_high: tuple


@dataclass(frozen=True)
class EconConfig:
    """A scenario's inputs to the cash-flow model, checked when it is built.
    Building one then prices a zero-cost plan, so the model's float range
    decides which configs exist.  Capex adds only a finite amount to the
    first year's outflow, so a config that prices at zero capex prices at any
    real one; :class:`CashFlowSeries` still checks every run."""

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

    def __post_init__(self):
        if self.horizon_years < 1:
            raise ValidationError(f"horizon must be at least 1 year, got {self.horizon_years}")
        if self.horizon_years > MAX_HORIZON_YEARS:
            raise TooLarge(f"horizon_years {self.horizon_years} exceeds the limit of {MAX_HORIZON_YEARS}")
        for label in ("initial_subscribers", "monthly_fee_usd", "growth_low", "growth_high", "discount_rate"):
            value = getattr(self, label)
            if not math.isfinite(value):
                raise ValidationError(f"{label} must be finite, got {value}")
        if not 0 <= self.growth_low <= self.growth_high:
            raise ValidationError(
                f"growth band must satisfy 0 <= low <= high, got ({self.growth_low}, {self.growth_high})"
            )
        if self.growth_lag_years < 0:
            raise ValidationError(f"growth_lag_years must be non-negative, got {self.growth_lag_years}")
        if self.initial_subscribers < 0 or self.monthly_fee_usd < 0:
            raise ValidationError(
                f"initial_subscribers and monthly_fee_usd must be non-negative, "
                f"got ({self.initial_subscribers}, {self.monthly_fee_usd})"
            )
        if self.subscriber_rounding not in SUBSCRIBER_ROUNDINGS:
            raise ValidationError(
                f"unknown subscriber rounding {self.subscriber_rounding!r}; expected one of {SUBSCRIBER_ROUNDINGS}"
            )
        self.cash_flows(0.0)

    def cash_flows(self, plan_cost: float) -> ScenarioEconomics:
        """Cash-flow series for a plan of the given capital cost: capex at the
        start year, then yearly cloud cost against subscription revenue, under
        both growth-band endpoints.  Flows that leave the float range over the
        horizon are a :class:`ValidationError`."""
        if not math.isfinite(plan_cost) or plan_cost < 0:
            raise ValidationError(f"plan cost must be finite and non-negative, got {plan_cost}")
        try:
            low, cloud_low = self._band(self.growth_low, plan_cost)
            high, cloud_high = self._band(self.growth_high, plan_cost)
        except (OverflowError, ZeroDivisionError) as exc:
            raise ValidationError(
                f"cash flows over {self.horizon_years} year(s) leave the float range "
                f"(growth band ({self.growth_low}, {self.growth_high}), discount rate {self.discount_rate}): {exc}"
            ) from None
        return ScenarioEconomics(capex=plan_cost, low=low, high=high, cloud_low=cloud_low, cloud_high=cloud_high)

    def _band(self, growth: float, plan_cost: float) -> tuple:
        """One growth endpoint's series and its yearly cloud cost totals; the
        subscriber series drives both reporting cost and revenue."""
        start, lag = self.start_year, self.growth_lag_years
        years = tuple(range(start, start + self.horizon_years))
        subs = {t: subscribers(self.initial_subscribers, growth, t, start, lag, self.subscriber_rounding) for t in years}
        volumes = {t: total_volume_bytes(self.traffic.hours_for(t, growth, lag)) for t in years}
        cloud = cloud_cost(volumes, subs, self.pricing)
        totals = tuple(cloud[t]["total"] for t in years)
        series = CashFlowSeries(
            start_year=start,
            years=years,
            positive=tuple(subs[t] * self.monthly_fee_usd * 12.0 for t in years),
            negative=tuple(c + (plan_cost if t == start else 0.0) for t, c in zip(years, totals)),
            discount_rate=self.discount_rate,
        )
        return series, totals
