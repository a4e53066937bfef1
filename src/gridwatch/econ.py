"""Data volumes, cloud operating cost, subscription revenue, and NPV.

Cloud prices are configuration, not constants: the model knows the *structure*
of each cost component (tiered ingest, per-byte-month storage, fixed plus
variable analytics and database, per-user reporting) and reads the rates from
a pricing policy file.  Subscriber growth is compounded with a one-year lag by
default: the first two operating years share the initial subscriber count and
growth compounds from the third.  Flight hours grow at the same rate.

:class:`EconConfig` holds a scenario's model inputs.  :func:`scenario_npv` owns
every check on them, ``TOO_LARGE`` for the horizon included, and building a
config runs them once, so a scenario is rejected before any solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

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


def data_volume(hours_by_class: Mapping[str, float], specs: Sequence[MessageSpec] = DEFAULT_MESSAGE_SPECS) -> dict:
    """Yearly surveillance bits per aircraft class from flight hours."""
    unknown = set(hours_by_class) - set(AIRCRAFT_CLASSES)
    if unknown:
        raise ValidationError(f"unknown aircraft class(es) in traffic: {sorted(unknown)}")
    bits = {}
    for spec in specs:
        hours = float(hours_by_class.get(spec.aircraft_class, 0.0))
        if hours < 0:
            raise ValidationError(f"negative flight hours for {spec.aircraft_class}")
        bits[spec.aircraft_class] = hours * SECONDS_PER_HOUR * spec.ping_rate_hz * spec.message_bits
    return bits


def total_volume_bytes(hours_by_class: Mapping[str, float], specs: Sequence[MessageSpec] = DEFAULT_MESSAGE_SPECS) -> float:
    return sum(data_volume(hours_by_class, specs).values()) / 8.0


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
        per_year = {int(y): {str(k): float(v) for k, v in hours.items()} for y, hours in doc.get("per_year", {}).items()}
        return TrafficProjection(
            base_year=read_field(doc["base_year"], int, "traffic base_year"),
            base_hours={str(k): float(v) for k, v in doc["hours"].items()},
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
    try:
        ingest = doc["ingest"]
        tiers = tuple(IngestTier(float(t["max_bytes"]), float(t["usd_per_year"])) for t in ingest["tiers"])
        overflow = ingest.get("overflow_usd_per_byte")
        return CloudPricingPolicy(
            ingest_tiers=tiers,
            ingest_overflow_usd_per_byte=None if overflow is None else float(overflow),
            storage_usd_per_byte_month=float(doc["storage"]["usd_per_byte_month"]),
            analytics_fixed_usd_per_year=float(doc["analytics"]["fixed_usd_per_year"]),
            analytics_usd_per_byte=float(doc["analytics"]["usd_per_byte"]),
            database_fixed_usd_per_year=float(doc["database"]["fixed_usd_per_year"]),
            database_usd_per_byte=float(doc["database"]["usd_per_byte"]),
            reporting_usd_per_subscriber_month=float(doc["reporting"]["usd_per_subscriber_month"]),
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


def revenue(
    n0: float,
    fee_usd_month: float,
    growth: float,
    years: Sequence[int],
    start_year: Optional[int] = None,
    lag: int = 1,
    rounding: str = "exact",
) -> dict:
    """Yearly subscription revenue: subscribers times 12 monthly fees."""
    if n0 < 0 or fee_usd_month < 0 or growth < 0:
        raise ValidationError("initial subscribers, fee, and growth must be non-negative")
    years = tuple(years)
    t0 = min(years) if start_year is None else start_year
    return {t: subscribers(n0, growth, t, t0, lag, rounding) * fee_usd_month * 12.0 for t in years}


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
    ``cloud_high`` hold each year's cloud cost components."""

    capex: float
    low: CashFlowSeries
    high: CashFlowSeries
    cloud_low: tuple
    cloud_high: tuple


def scenario_npv(
    plan_cost: float,
    traffic: TrafficProjection,
    policy: CloudPricingPolicy,
    n0: float,
    fee_usd_month: float,
    growth_low: float,
    growth_high: float,
    discount_rate: float,
    horizon_years: int,
    start_year: int,
    messages: Sequence[MessageSpec] = DEFAULT_MESSAGE_SPECS,
    subscriber_rounding: str = "exact",
    growth_lag: int = 1,
) -> ScenarioEconomics:
    """Full cash-flow series for a plan: capex at the start year, then yearly
    cloud cost against subscription revenue, under both growth-band endpoints.
    Flows that leave the float range over the horizon are a :class:`ValidationError`."""
    if horizon_years < 1:
        raise ValidationError(f"horizon must be at least 1 year, got {horizon_years}")
    if horizon_years > MAX_HORIZON_YEARS:
        raise TooLarge(f"horizon_years {horizon_years} exceeds the limit of {MAX_HORIZON_YEARS}")
    scalars = {"initial_subscribers": n0, "monthly_fee_usd": fee_usd_month, "growth_low": growth_low,
               "growth_high": growth_high, "discount_rate": discount_rate}
    for label, value in scalars.items():
        if not math.isfinite(value):
            raise ValidationError(f"{label} must be finite, got {value}")
    if not 0 <= growth_low <= growth_high:
        raise ValidationError(f"growth band must satisfy 0 <= low <= high, got ({growth_low}, {growth_high})")
    if growth_lag < 0:
        raise ValidationError(f"growth_lag_years must be non-negative, got {growth_lag}")
    if not math.isfinite(plan_cost) or plan_cost < 0:
        raise ValidationError(f"plan cost must be finite and non-negative, got {plan_cost}")
    years = tuple(range(start_year, start_year + horizon_years))

    def band(growth: float) -> tuple:
        subs = {t: subscribers(n0, growth, t, start_year, growth_lag, subscriber_rounding) for t in years}
        volumes = {t: total_volume_bytes(traffic.hours_for(t, growth, growth_lag), messages) for t in years}
        cloud = cloud_cost(volumes, subs, policy)
        rev = revenue(n0, fee_usd_month, growth, years, start_year, growth_lag, subscriber_rounding)
        negative = [cloud[t]["total"] + (plan_cost if t == start_year else 0.0) for t in years]
        series = CashFlowSeries(
            start_year=start_year,
            years=years,
            positive=tuple(rev[t] for t in years),
            negative=tuple(negative),
            discount_rate=discount_rate,
        )
        return series, tuple(cloud[t] for t in years)

    try:
        low_series, cloud_low = band(growth_low)
        high_series, cloud_high = band(growth_high)
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValidationError(
            f"cash flows over {horizon_years} year(s) leave the float range "
            f"(growth band ({growth_low}, {growth_high}), discount rate {discount_rate}): {exc}"
        ) from None
    return ScenarioEconomics(capex=plan_cost, low=low_series, high=high_series, cloud_low=cloud_low, cloud_high=cloud_high)


@dataclass(frozen=True)
class EconConfig:
    """A scenario's inputs to the cash-flow model.  Building one prices a
    zero-cost plan through :func:`scenario_npv`, so the model's own checks and
    float range decide which configs exist.  Capex adds only a finite amount
    to the first year's outflow, so a config that prices at zero capex prices
    at any real one; :class:`CashFlowSeries` still checks every run."""

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
        self.cash_flows(0.0)

    def cash_flows(self, plan_cost: float) -> ScenarioEconomics:
        """Cash-flow series for a plan of the given capital cost."""
        return scenario_npv(
            plan_cost=plan_cost,
            traffic=self.traffic,
            policy=self.pricing,
            n0=self.initial_subscribers,
            fee_usd_month=self.monthly_fee_usd,
            growth_low=self.growth_low,
            growth_high=self.growth_high,
            discount_rate=self.discount_rate,
            horizon_years=self.horizon_years,
            start_year=self.start_year,
            subscriber_rounding=self.subscriber_rounding,
            growth_lag=self.growth_lag_years,
        )
