import json
from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridwatch.econ import (
    CashFlowSeries,
    CloudPricingPolicy,
    DEFAULT_MESSAGE_SPECS,
    EconConfig,
    IngestTier,
    MessageSpec,
    TrafficProjection,
    cloud_cost,
    data_volume,
    growth_exponent,
    load_pricing,
    load_traffic,
    subscribers,
    total_volume_bytes,
)
from gridwatch.errors import InvariantViolation, ParseError, TooLarge, ValidationError, VolumeAboveTopTier


def bundled(name):
    return json.loads(resources.files("gridwatch.data").joinpath(name).read_text(encoding="utf-8"))


def default_policy():
    return load_pricing(bundled("pricing.json"))


def default_traffic():
    return load_traffic(bundled("traffic.json"))


def config(**changes):
    """The bundled scenario's econ config with some fields replaced."""
    fields = dict(
        start_year=2024,
        horizon_years=10,
        initial_subscribers=100.0,
        monthly_fee_usd=400.0,
        growth_low=0.10,
        growth_high=0.20,
        discount_rate=0.10,
        growth_lag_years=1,
        subscriber_rounding="exact",
        pricing=default_policy(),
        traffic=default_traffic(),
    )
    return EconConfig(**(fields | changes))


# -- messages and volumes -----------------------------------------------------


def test_bundled_message_sizes():
    by_class = {m.aircraft_class: m for m in DEFAULT_MESSAGE_SPECS}
    assert by_class["cooperative_manned"].message_bits == 1136
    assert by_class["cooperative_uncrewed"].message_bits == 432
    assert by_class["non_cooperative"].message_bits == 2648
    assert all(m.ping_rate_hz == 1.0 for m in DEFAULT_MESSAGE_SPECS)
    assert by_class["cooperative_manned"].interface_standard == "ASTERIX CAT-021"


def test_message_spec_validation():
    with pytest.raises(InvariantViolation):
        MessageSpec("cooperative_manned", "X", 0)
    with pytest.raises(InvariantViolation):
        MessageSpec("cooperative_manned", "X", 100, ping_rate_hz=0.5)
    with pytest.raises(InvariantViolation):
        MessageSpec("balloon", "X", 100)


def test_data_volume_oracle_products():
    bits = data_volume({"cooperative_uncrewed": 1.0})
    assert bits["cooperative_uncrewed"] == 3600 * 432 == 1_555_200
    assert bits["cooperative_manned"] == 0.0
    bits = data_volume({"non_cooperative": 1.0})
    assert bits["non_cooperative"] == 3600 * 2648 == 9_532_800
    assert data_volume({})["cooperative_manned"] == 0.0


def test_data_volume_rejects_bad_input():
    with pytest.raises(ValidationError):
        data_volume({"zeppelin": 1.0})
    with pytest.raises(ValidationError):
        data_volume({"cooperative_manned": -1.0})


def test_total_volume_bytes_is_bits_over_eight():
    hours = {"cooperative_manned": 2.0, "non_cooperative": 1.0}
    bits = sum(data_volume(hours).values())
    assert total_volume_bytes(hours) == bits / 8.0


# -- revenue --------------------------------------------------------------------


def test_first_year_revenue():
    rev = config().cash_flows(0.0).high.positive
    assert rev[0] == 480_000.0
    assert rev[1] == 480_000.0  # growth starts after the documented one-year lag


def test_zero_growth_is_constant():
    flows = config(growth_low=0.0, growth_high=0.0).cash_flows(0.0)
    assert set(flows.low.positive) == set(flows.high.positive) == {480_000.0}


def test_final_year_endpoints_with_integer_subscribers():
    flows = config(subscriber_rounding="ceil").cash_flows(0.0)
    assert flows.low.years[-1] == 2033
    assert flows.high.positive[-1] == 2_064_000.0
    assert flows.low.positive[-1] == 1_032_000.0


def test_final_year_high_endpoint_fractional():
    rev = config().cash_flows(0.0).high.positive
    assert rev[-1] == pytest.approx(480_000.0 * 1.2 ** 8, rel=1e-12)
    assert abs(rev[-1] - 2_064_000.0) < 1000.0


def test_growth_exponent_convention():
    assert growth_exponent(2024, 2024) == 0
    assert growth_exponent(2025, 2024) == 0
    assert growth_exponent(2026, 2024) == 1
    assert growth_exponent(2033, 2024) == 8


def test_subscriber_rounding_modes():
    assert subscribers(100, 0.10, 2033, 2024, rounding="exact") == pytest.approx(214.358881)
    assert subscribers(100, 0.10, 2033, 2024, rounding="ceil") == 215
    assert subscribers(100, 0.10, 2033, 2024, rounding="floor") == 214
    assert subscribers(100, 0.10, 2033, 2024, rounding="nearest") == 214
    with pytest.raises(ValidationError):
        subscribers(100, 0.1, 2025, 2024, rounding="banker")


@given(g_low=st.floats(0.0, 0.15), extra=st.floats(0.0, 0.15))
def test_revenue_band_is_ordered(g_low, extra):
    flows = config(growth_low=g_low, growth_high=g_low + extra).cash_flows(0.0)
    assert all(hi >= lo for lo, hi in zip(flows.low.positive, flows.high.positive))


# -- cloud cost -------------------------------------------------------------------


def test_zero_volume_zero_subscribers_costs_fixed_only():
    policy = default_policy()
    out = cloud_cost({2024: 0.0}, {2024: 0.0}, policy)[2024]
    assert out["ingest"] == policy.ingest_tiers[0].usd_per_year
    assert out["storage"] == 0.0
    assert out["analytics"] == policy.analytics_fixed_usd_per_year
    assert out["database"] == policy.database_fixed_usd_per_year
    assert out["reporting"] == 0.0


def test_tier_threshold_is_exclusive_upper_bound():
    policy = default_policy()
    t0 = policy.ingest_tiers[0]
    assert policy.ingest_cost(t0.max_bytes - 1.0) == t0.usd_per_year
    assert policy.ingest_cost(t0.max_bytes) == policy.ingest_tiers[1].usd_per_year


def test_overflow_rate_extends_top_tier():
    policy = default_policy()
    top = policy.ingest_tiers[-1]
    beyond = top.max_bytes * 2.0
    expected = top.usd_per_year + policy.ingest_overflow_usd_per_byte * (beyond - top.max_bytes)
    assert policy.ingest_cost(beyond) == pytest.approx(expected)


def test_no_overflow_rate_raises_above_top_tier():
    policy = CloudPricingPolicy(
        ingest_tiers=(IngestTier(100.0, 10.0),),
        ingest_overflow_usd_per_byte=None,
        storage_usd_per_byte_month=0.0,
        analytics_fixed_usd_per_year=0.0,
        analytics_usd_per_byte=0.0,
        database_fixed_usd_per_year=0.0,
        database_usd_per_byte=0.0,
        reporting_usd_per_subscriber_month=0.0,
    )
    with pytest.raises(VolumeAboveTopTier):
        policy.ingest_cost(100.0)


def test_linear_components_double_with_volume():
    policy = default_policy()
    one = cloud_cost({2024: 1e9}, {2024: 0}, policy)[2024]
    two = cloud_cost({2024: 2e9}, {2024: 0}, policy)[2024]
    assert two["analytics"] - policy.analytics_fixed_usd_per_year == pytest.approx(
        2.0 * (one["analytics"] - policy.analytics_fixed_usd_per_year)
    )
    assert two["database"] - policy.database_fixed_usd_per_year == pytest.approx(
        2.0 * (one["database"] - policy.database_fixed_usd_per_year)
    )


def test_storage_bills_cumulative_bytes():
    policy = default_policy()
    out = cloud_cost({2024: 1e9, 2025: 1e9}, {2024: 0, 2025: 0}, policy)
    rate = policy.storage_usd_per_byte_month * 12.0
    assert out[2024]["storage"] == pytest.approx(1e9 * rate)
    assert out[2025]["storage"] == pytest.approx(2e9 * rate)


@given(volumes=st.lists(st.floats(0, 4.9e10), min_size=2, max_size=6))
def test_ingest_step_function_is_nondecreasing(volumes):
    policy = default_policy()
    ordered = sorted(volumes)
    costs = [policy.ingest_cost(v) for v in ordered]
    assert costs == sorted(costs)


def test_policy_validation():
    with pytest.raises(InvariantViolation):
        CloudPricingPolicy((), None, 0, 0, 0, 0, 0, 0)
    with pytest.raises(InvariantViolation):
        CloudPricingPolicy((IngestTier(100, 1), IngestTier(100, 2)), None, 0, 0, 0, 0, 0, 0)
    with pytest.raises(InvariantViolation):
        CloudPricingPolicy((IngestTier(100, 1),), None, -1, 0, 0, 0, 0, 0)
    with pytest.raises(ParseError):
        load_pricing({"ingest": {}})


# -- NPV --------------------------------------------------------------------------


def prefix_sum_oracle(values):
    out, running = [], 0.0
    for v in values:
        running += v
        out.append(running)
    return out


def test_zero_discount_is_identity():
    s = CashFlowSeries(2024, (2024, 2025), positive=(1.0, 1.0), negative=(0.0, 0.0), discount_rate=0.0)
    assert s.npv == (1.0, 1.0)
    assert s.cumulative_npv == (1.0, 2.0)


def test_single_flow_discounts_by_one_over_one_point_one():
    s = CashFlowSeries(2024, (2024, 2025), positive=(0.0, 1.0), negative=(0.0, 0.0), discount_rate=0.10)
    assert s.npv[1] == pytest.approx(0.909091, abs=1e-6)
    assert abs(s.npv[1] - 1.0 / 1.1) < 1e-9


def test_break_even_with_upfront_capital():
    years = tuple(range(2024, 2030))
    positive = (1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    negative = (4.0, 0.0, 0.0, 0.0, 0.0, 0.0)  # net -3 at t0, then +1/yr
    s = CashFlowSeries(2024, years, positive, negative, discount_rate=0.0)
    net = [p - n for p, n in zip(positive, negative)]
    oracle = prefix_sum_oracle(net)
    assert list(s.cumulative_npv) == oracle
    assert s.break_even_year == 2027  # t0 + 3


def test_npv_linearity_over_component_flows():
    years = (2024, 2025, 2026)
    a = CashFlowSeries(2024, years, (5.0, 6.0, 7.0), (1.0, 1.0, 1.0), 0.1)
    b = CashFlowSeries(2024, years, (2.0, 0.0, 3.0), (0.5, 0.5, 0.5), 0.1)
    both = CashFlowSeries(
        2024, years,
        tuple(x + y for x, y in zip(a.positive, b.positive)),
        tuple(x + y for x, y in zip(a.negative, b.negative)),
        0.1,
    )
    for i in range(3):
        assert both.npv[i] == pytest.approx(a.npv[i] + b.npv[i], rel=1e-12)


def test_series_validation():
    with pytest.raises(ValidationError):
        CashFlowSeries(2024, (), (), (), 0.1)
    with pytest.raises(ValidationError):
        CashFlowSeries(2024, (2024, 2026), (1, 1), (0, 0), 0.1)
    with pytest.raises(ValidationError):
        CashFlowSeries(2024, (2024,), (1, 2), (0,), 0.1)


@pytest.mark.parametrize(
    "positive,negative,rate",
    [
        ((1e308, 1e308), (0.0, 0.0), 0.0),  # each flow finite, the cumulative sum overflows
        ((1.0, float("inf")), (0.0, 0.0), 0.1),
        ((1.0, 1.0), (0.0, float("nan")), 0.1),
        ((1.0, 1e305), (0.0, 0.0), -0.999999),  # a finite discount factor of 1e-6 overflows the NPV
    ],
    ids=["sum-overflow", "inf-flow", "nan-flow", "npv-overflow"],
)
def test_series_rejects_non_finite_flows(positive, negative, rate):
    with pytest.raises(ValidationError, match="not finite"):
        CashFlowSeries(2024, (2024, 2025), positive, negative, rate)


# -- scenario composition -----------------------------------------------------------


def run_scenario(capex, fee=400.0, n0=100.0, g=(0.10, 0.20)):
    return config(monthly_fee_usd=fee, initial_subscribers=n0, growth_low=g[0], growth_high=g[1]).cash_flows(capex)


def test_zero_capex_breaks_even_immediately():
    econ = run_scenario(0.0)
    assert econ.low.break_even_year == 2024
    assert econ.high.break_even_year == 2024


def test_huge_capex_never_breaks_even():
    econ = run_scenario(125_280_000.0)
    assert econ.low.break_even_year is None
    assert econ.high.break_even_year is None
    assert econ.low.cumulative_npv[-1] < 0


def test_capex_lands_entirely_in_first_year():
    with_capex = run_scenario(1000.0)
    without = run_scenario(0.0)
    assert with_capex.low.npv[0] == pytest.approx(without.low.npv[0] - 1000.0)
    for i in range(1, 10):
        assert with_capex.low.npv[i] == pytest.approx(without.low.npv[i])


def test_higher_growth_dominates_cumulative_npv():
    econ = run_scenario(2_000_000.0)
    for lo, hi in zip(econ.low.cumulative_npv, econ.high.cumulative_npv):
        assert hi >= lo - 1e-9


def test_break_even_nonincreasing_in_fee():
    def be(fee):
        year = run_scenario(2_000_000.0, fee=fee).high.break_even_year
        return 9999 if year is None else year

    fees = [100.0, 250.0, 400.0]
    years = [be(f) for f in fees]
    assert years == sorted(years, reverse=True)
    assert years[0] > years[-1]  # on this capex the effect is visible


def test_break_even_nonincreasing_in_n0():
    def be(n0):
        year = run_scenario(2_000_000.0, n0=n0).high.break_even_year
        return 9999 if year is None else year

    counts = [50.0, 75.0, 100.0]
    years = [be(n) for n in counts]
    assert years == sorted(years, reverse=True)


def test_traffic_projection_band_and_overrides():
    t = default_traffic()
    base = t.hours_for(2024, 0.20)
    later = t.hours_for(2033, 0.20)
    assert later["cooperative_uncrewed"] == pytest.approx(base["cooperative_uncrewed"] * 1.2 ** 8)
    explicit = TrafficProjection(2024, {"cooperative_manned": 10.0}, per_year={2025: {"cooperative_manned": 3.0}})
    assert explicit.hours_for(2025, 0.2) == {"cooperative_manned": 3.0}


def test_traffic_validation():
    with pytest.raises(InvariantViolation):
        TrafficProjection(2024, {"cooperative_manned": -1.0})
    with pytest.raises(ParseError):
        load_traffic({"hours": {}})


# The bundled traffic file as it was while it carried a growth band, which
# nothing read: the cash-flow model grows traffic by the scenario's own band.
TRAFFIC_WITH_BAND = """{
  "base_year": 2024,
  "hours": {
    "cooperative_manned": 1200,
    "cooperative_uncrewed": 30000,
    "non_cooperative": 800
  },
  "growth_low": 0.10,
  "growth_high": 0.20
}
"""


def test_traffic_file_with_old_growth_band_still_loads(tmp_path):
    path = tmp_path / "traffic.json"
    path.write_text(TRAFFIC_WITH_BAND, encoding="utf-8")
    old = load_traffic(path)
    assert old == default_traffic()
    assert config(traffic=old).cash_flows(1000.0) == config().cash_flows(1000.0)


def test_cash_flows_validation():
    with pytest.raises(ValidationError):
        run_scenario(-1.0)
    with pytest.raises(ValidationError):
        config(horizon_years=0)


@pytest.mark.parametrize(
    "changes,error",
    [
        ({"horizon_years": 1001}, TooLarge),
        ({"horizon_years": 5000, "monthly_fee_usd": float("nan")}, TooLarge),  # the horizon is checked first
        ({"discount_rate": float("inf")}, ValidationError),
        ({"growth_low": 0.3}, ValidationError),
        ({"growth_low": -0.1}, ValidationError),
        ({"growth_lag_years": -1}, ValidationError),
        ({"initial_subscribers": -1.0}, ValidationError),
        ({"monthly_fee_usd": -0.5}, ValidationError),
        ({"subscriber_rounding": "banker"}, ValidationError),
        ({"discount_rate": -1.0}, ValidationError),
    ],
)
def test_config_rejects_each_bad_input(changes, error):
    with pytest.raises(error):
        config(**changes)


@pytest.mark.parametrize("cost", [float("nan"), float("inf")])
def test_cash_flows_rejects_non_finite_plan_cost(cost):
    with pytest.raises(ValidationError):
        run_scenario(cost)
