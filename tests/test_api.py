"""The package's public surface: the top level and every submodule's __all__."""

import importlib
import pkgutil

import pytest

import stcdma

TOP_LEVEL = {
    "Scenario",
    "parse_scenario",
    "parse_scenario_file",
    "serialize_scenario",
    "run_trial",
    "sweep",
    "trial_seed",
    "MetricsSeries",
    "MetricRow",
    "ConditioningError",
    "ScenarioError",
    "SingularConstraintError",
    "StepSizeError",
    "ALGORITHMS",
    "ESTIMATORS",
}

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(stcdma.__path__))


def test_top_level_exports_the_cli_surface():
    assert len(stcdma.__all__) == len(TOP_LEVEL)
    assert set(stcdma.__all__) == TOP_LEVEL
    for name in stcdma.__all__:
        assert hasattr(stcdma, name), name


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_all_names_exist(module):
    mod = importlib.import_module(f"stcdma.{module}")
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [name for name in exported if not hasattr(mod, name)]
    assert not missing
