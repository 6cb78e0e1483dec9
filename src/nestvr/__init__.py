"""Nested variance-reduced stochastic optimization with curvature-certified
local-minimum search.

The package splits into oracle definitions (:mod:`nestvr.problems`), the
nested loop/batch schedule (:mod:`nestvr.schedule`), the single-epoch engine
(:mod:`nestvr.epoch`), first-order negative-curvature search
(:mod:`nestvr.ncfinder`), the outer driver and ``configure``, which picks its
configuration formulas from the problem's oracle family and the smoothness
order (:mod:`nestvr.driver`), and the experiment harness / CLI
(:mod:`nestvr.harness`).
"""

from .driver import (
    DriverConfig,
    DriverOutcome,
    PointClassification,
    RunTrace,
    TraceEvent,
    classify_point,
    configure,
    nc_descent_step,
    run_driver,
)
from .epoch import (
    BallLog,
    EpochResult,
    draw_epoch_length,
    run_epoch,
)
from .ncfinder import (
    NCResult,
    find_nc_direction,
    hvp_estimate,
)
from .problems import (
    FiniteSumProblem,
    SmoothnessSpec,
    make_regularized_problem,
    make_rng,
    make_saddle_problem,
    make_streaming_saddle_problem,
    sample_indices_without_replacement,
    spawn_rngs,
)
from .schedule import (
    NestedSchedule,
    check_series_domination,
    clamp_schedule,
    damping_series,
    derive_schedule,
    exact_expected_epoch_cost,
    expected_epoch_cost,
)

__version__ = "0.1.0"

__all__ = [
    "DriverConfig",
    "DriverOutcome",
    "PointClassification",
    "RunTrace",
    "TraceEvent",
    "classify_point",
    "configure",
    "nc_descent_step",
    "run_driver",
    "BallLog",
    "EpochResult",
    "draw_epoch_length",
    "run_epoch",
    "NCResult",
    "find_nc_direction",
    "hvp_estimate",
    "FiniteSumProblem",
    "SmoothnessSpec",
    "make_regularized_problem",
    "make_rng",
    "make_saddle_problem",
    "make_streaming_saddle_problem",
    "sample_indices_without_replacement",
    "spawn_rngs",
    "NestedSchedule",
    "check_series_domination",
    "clamp_schedule",
    "damping_series",
    "derive_schedule",
    "exact_expected_epoch_cost",
    "expected_epoch_cost",
]
