"""gridwatch: plan a minimum-cost low-altitude surveillance sensor network over
a gridded area and evaluate its economics."""

from .catalog import SensorCatalog, SensorSpec, default_catalog, load_catalog, scale_detection
from .coverage import CoverageTable, block_detection, build_coverage, covered_blocks, redundancy
from .econ import (
    AIRCRAFT_CLASSES,
    CashFlowSeries,
    CloudPricingPolicy,
    DEFAULT_MESSAGE_SPECS,
    EconConfig,
    MessageSpec,
    ScenarioEconomics,
    TrafficProjection,
    cloud_cost,
    data_volume,
    load_pricing,
    load_traffic,
)
from .errors import (
    DegenerateDetection,
    DimensionMismatch,
    GridwatchError,
    Infeasible,
    InfeasibleCoverage,
    InvariantViolation,
    ParseError,
    RangeTooSmall,
    TooLarge,
    ValidationError,
    VolumeAboveTopTier,
)
from .geo import EARTH_RADIUS_KM, GeoPoint, PlanePoint, project, unproject
from .mesh import AreaMesh, CandidateSite, Terrain, build_mesh, load_terrain_grid
from .pipeline import PlanResult, mesh_to_geojson, run_econ, run_plan, sweep, write_plan_artifacts
from .scenario import Scenario, bundled_minicity_path, load_scenario
from .solver import (
    Candidate,
    PlacementInstance,
    PlacementPlan,
    dominance_filter,
    solve_brute,
    solve_exact,
    solve_greedy,
)

__version__ = "0.1.0"
