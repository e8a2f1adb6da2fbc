"""Optimal incentive-compatible routing recommendations with experimentation.

Two roads, one of unknown and time-varying quality; a coordinator who sees
reports from agents on the risky road and decides who to send where. The
package computes the benchmark information regimes and the optimal
recommendation schemes for the two-stage and the infinite-horizon versions
of the game, verifies the obedience constraints, and cross-checks the closed
forms by brute force, linear algebra, and Monte Carlo simulation.
"""

from .model import (
    AssumptionError,
    GameParams,
    ParameterError,
    check_assumption_infinite,
    check_assumption_two_stage,
    load_params,
    params_from_dict,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionError",
    "GameParams",
    "ParameterError",
    "check_assumption_infinite",
    "check_assumption_two_stage",
    "load_params",
    "params_from_dict",
    "__version__",
]
