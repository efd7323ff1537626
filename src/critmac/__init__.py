"""critmac: slotted MAC protocols with critical-traffic priority.

Closed-form analysis, constrained protocol design, and seeded slot-level
simulation of theta-fair non-intrusive adaptive protocols with 1-slot
memory.
"""

from .design import (
    DesignProblem,
    DesignSolution,
    SolutionStatus,
    SweepAxis,
    maximize_utilization,
    solve_design_problem,
    sweep,
)
from .errors import BadParams, ScenarioUnsatisfiable, SingularSystem
from .markov import (
    PerformanceMetrics,
    TransitionMatrix,
    build_normal_matrix,
    channel_utilization,
    contention_time,
    critical_delay,
    critical_hitting_times,
    enhanced_critical_delay,
    evaluate_metrics,
    stationary_distribution,
)
from .oracle import OracleEstimate, estimate_metrics_oracle
from .protocol import (
    EnhancementConfig,
    Observation,
    ProtocolParams,
    TrafficType,
)
from .sim import (
    CriticalTrafficModel,
    ExperimentResult,
    Scenario,
    ScenarioSummary,
    SimConfig,
    run_experiment,
    simulate_two_critical,
)

__version__ = "0.1.0"

__all__ = [
    "BadParams",
    "CriticalTrafficModel",
    "DesignProblem",
    "DesignSolution",
    "EnhancementConfig",
    "ExperimentResult",
    "Observation",
    "OracleEstimate",
    "PerformanceMetrics",
    "ProtocolParams",
    "Scenario",
    "ScenarioSummary",
    "ScenarioUnsatisfiable",
    "SimConfig",
    "SingularSystem",
    "SolutionStatus",
    "SweepAxis",
    "TrafficType",
    "TransitionMatrix",
    "build_normal_matrix",
    "channel_utilization",
    "contention_time",
    "critical_delay",
    "critical_hitting_times",
    "enhanced_critical_delay",
    "estimate_metrics_oracle",
    "evaluate_metrics",
    "maximize_utilization",
    "run_experiment",
    "simulate_two_critical",
    "solve_design_problem",
    "stationary_distribution",
    "sweep",
]
