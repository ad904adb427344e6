"""Self-organizing roadside-unit networks built from parked cars.

Parked vehicles overhear periodic beacons from passing traffic, learn their
own radio coverage map, and cooperatively elect a minimal set of active
roadside units that keeps the city covered without wasting overlap or
battery. The package provides the city grid, the radio model, coverage-map
learning, the multi-criteria role decision, traffic generation, and a
discrete-time simulator with a command-line front end.
"""

from .config import RunConfig
from .decision import (
    ActiveRsu,
    BatteryPolicy,
    CandidatePool,
    CoverageSolution,
    Decision,
    RoleCommand,
    ScoringWeights,
    battery_indicator,
    compute_attributes,
    decide,
    enumerate_solutions,
    score,
)
from .errors import ConfigurationError, MalformedLineError, OutOfBoundsError
from .grid import Cell, CityGrid, build_manhattan_city, cell_of, load_city, save_city
from .maps import (
    CellStats,
    CoverageMap,
    CoverageMapBuilder,
    read_beacon_log,
    write_beacon_log,
)
from .radio import (
    FootprintCache,
    NoBeaconError,
    PropagationConfig,
    sample_rssi,
    strength,
)
from .sim import (
    MetricsSample,
    RunResult,
    Simulation,
    pooled_stats,
    random_assignment_bounds,
    run,
    steady_state_stats,
)
from .traffic import ParkingModel, TrafficProcess, Vehicle

__version__ = "0.1.0"

__all__ = [
    "ActiveRsu",
    "BatteryPolicy",
    "CandidatePool",
    "Cell",
    "CellStats",
    "CityGrid",
    "ConfigurationError",
    "CoverageMap",
    "CoverageMapBuilder",
    "CoverageSolution",
    "Decision",
    "FootprintCache",
    "MalformedLineError",
    "MetricsSample",
    "NoBeaconError",
    "OutOfBoundsError",
    "ParkingModel",
    "PropagationConfig",
    "RoleCommand",
    "RunConfig",
    "RunResult",
    "ScoringWeights",
    "Simulation",
    "TrafficProcess",
    "Vehicle",
    "battery_indicator",
    "build_manhattan_city",
    "cell_of",
    "compute_attributes",
    "decide",
    "enumerate_solutions",
    "load_city",
    "pooled_stats",
    "random_assignment_bounds",
    "read_beacon_log",
    "run",
    "sample_rssi",
    "save_city",
    "score",
    "steady_state_stats",
    "strength",
    "write_beacon_log",
    "__version__",
]
