"""Blind adaptive linear multiuser receivers for space-time block-coded
DS-CDMA downlinks: a seeded Monte Carlo harness with a CSV-emitting CLI.

The top level exports what a study script needs: the scenario and its text
format, trials and sweeps with their results, the error classes, and the
algorithm and estimator names.  The building blocks (signal model, spreading
codes, receivers, channel estimators, oracles) import from their submodules,
for example ``from stcdma.receivers import ccm_sg_step``.
"""

from .errors import (
    ConditioningError,
    ScenarioError,
    SingularConstraintError,
)
from .harness import MetricRow, MetricsSeries, run_trial, sweep, trial_seed
from .scenario import (
    ALGORITHMS,
    ESTIMATORS,
    Scenario,
    parse_scenario,
    parse_scenario_file,
    serialize_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "ESTIMATORS",
    "ConditioningError",
    "MetricRow",
    "MetricsSeries",
    "Scenario",
    "ScenarioError",
    "SingularConstraintError",
    "parse_scenario",
    "parse_scenario_file",
    "run_trial",
    "serialize_scenario",
    "sweep",
    "trial_seed",
]
