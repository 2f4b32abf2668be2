"""Checks of the sweep benchmark itself.

Run from the repository root with::

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from stcdma.cli import _default_symbol_grid
from stcdma.scenario import Scenario, parse_scenario_file

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

_spec = importlib.util.spec_from_file_location("sweep_bench", os.path.join(HERE, "run.py"))
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench  # dataclasses look their module up by name
_spec.loader.exec_module(bench)


def _criterion_09_scenarios():
    """The two scenarios of acceptance criterion 09, built the way it builds them."""
    base = Scenario(
        gain=32,
        users=1,
        n_paths=3,
        snr_db=15.0,
        packet_symbols=6000,
        algorithms=("ccm-sg",),
        fading="clarke",
        doppler=5e-4,
        channel_estimator="genie",
        ber_skip=1000,
        normalize_steps=False,
        step_ccm=1e-4,
        nu=1.4,
    )
    two = base.validate()
    one = base.replace(tx_antennas=1, amplitude=float(np.sqrt(2.0))).validate()
    return two, one


@pytest.mark.parametrize("name, index", [("diversity_2tx.cfg", 0), ("diversity_1tx.cfg", 1)])
def test_diversity_configs_equal_criterion_09(name, index):
    expected = _criterion_09_scenarios()[index]
    parsed = parse_scenario_file(os.path.join(HERE, "configs", name))
    for f in dataclasses.fields(Scenario):
        assert getattr(parsed, f.name) == getattr(expected, f.name), f.name


def test_workload_configs_validate_without_overload_warning():
    for invocations in bench.WORKLOADS.values():
        for inv in invocations:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                scn = parse_scenario_file(os.path.join(ROOT, inv.config))
                for value in inv.grid:
                    scn.replace(snr_db=value).validate()
            assert scn.packet_symbols == inv.packet_symbols
            if inv.metric == "ber":
                assert tuple(sorted(scn.algorithms)) == inv.algorithms
            else:
                assert inv.algorithms == (f"channel-{scn.channel_estimator}",)


def test_symbol_grid_matches_the_cli_default():
    inv = bench.WORKLOADS["surge-2tx"][0]
    assert inv.axis_values() == [float(v) for v in _default_symbol_grid(inv.packet_symbols)]


def _csv(inv, seed, rows):
    seed_hash = bench.expected_seed_hash(seed, inv.points, inv.runs)
    lines = [bench.CSV_HEADER]
    lines += [f"{a:.6g},{alg},{inv.metric},{m},{hw},{runs},{seed_hash}" for a, alg, m, hw, runs in rows]
    return "\n".join(lines) + "\n"


def test_check_csv_accepts_a_well_formed_csv_and_rejects_defects():
    inv = dataclasses.replace(bench.WORKLOADS["diversity-1v2"][0], grid=(10.0, 15.0))
    good = [(10.0, "ccm-sg", 0.01, 0.002, 10), (15.0, "ccm-sg", 0.001, 0.0005, 10)]
    assert bench.check_csv(_csv(inv, 7, good), inv, 7) == []
    defects = {
        "nan mean": [(10.0, "ccm-sg", "nan", 0.002, 10), good[1]],
        "ber above one": [(10.0, "ccm-sg", 1.5, 0.002, 10), good[1]],
        "wrong runs": [(10.0, "ccm-sg", 0.01, 0.002, 9), good[1]],
        "missing row": good[:1],
        "wrong axis": [(11.0, "ccm-sg", 0.01, 0.002, 10), good[1]],
    }
    for name, rows in defects.items():
        assert bench.check_csv(_csv(inv, 7, rows), inv, 7), name
    assert bench.check_csv(_csv(inv, 7, good), inv, 8), "seed_hash of another seed"
    assert bench.check_csv(_csv(inv, 7, good).replace("half_width", "hw"), inv, 7)


def test_benchmark_json_names_what_run_py_reports(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    trace = {
        "totals": {"cli.emit_csv": [1, 0.001]},
        "sweeps": [{"start": 0.0, "end": 2.0, "workers": 1}],
        "trials": [{"busy_s": busy, "self_s": 0.25, "diverged": 0, "cmacs": 10, "sg_applied": 0,
                    "calls": {"receivers.detect": [3, 0.2]}, "stages": {"score": {"busy_s": 0.2}}}
                   for busy in (1.0, 2.0)],
    }
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(trace))
    inv = bench.WORKLOADS["surge-2tx"][0]

    def result(wall, trace_path=""):
        child = bench.ChildRun(0, wall, wall, 40.0, "")
        return bench.Result(inv, "plain", child, "", [], 0, trace_path)

    cycle = ([result(2.0)], [result(2.2, str(path))], [result(1.6)])
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    layers = bench.per_layer([cycle], units)
    assert set(layers) == set(units)
    assert layers["harness.self_s"][0] == 0.5
    assert layers["harness.trial_p90_s"][0] == pytest.approx(1.9)
    assert layers["receivers.detect.calls"][0] == 6
    assert layers["harness.blas1_speedup"][0] == pytest.approx(1.25)
    e2e = bench.end_to_end([[result(2.0)]], [0.3, 0.2, 0.4])
    assert set(e2e) == {m["name"] for m in spec["end_to_end"]}
    assert all(value > 0 for value, _ in e2e.values())


_SMALL = """
gain = 8
users = 2
n_paths = 2
packet_symbols = 200
algorithms = ccm-sg, trained-lms
channel_estimator = svd
estimator_refresh = 10
ber_skip = 50
"""


def test_traced_cli_writes_the_untraced_csv_and_collects_worker_trials(tmp_path):
    config = tmp_path / "small.cfg"
    config.write_text(_SMALL)
    args = ["ber-vs-snr", "--config", str(config), "--grid", "10,15", "--runs", "2", "--workers", "2"]
    env = bench.child_env()
    plain, traced = tmp_path / "plain.csv", tmp_path / "traced.csv"
    subprocess.run([sys.executable, "-m", "stcdma.cli", *args, "--out", str(plain)],
                   env=env, check=True, capture_output=True, timeout=120)
    summary = tmp_path / "trace.json"
    subprocess.run([sys.executable, os.path.join(HERE, "trace_cli.py"), "--summary", str(summary),
                    "--records", str(tmp_path / "records"), "--", *args, "--out", str(traced)],
                   env=env, check=True, capture_output=True, timeout=120)
    assert plain.read_bytes() == traced.read_bytes()
    trace = json.loads(summary.read_text())
    assert sorted(t["trial"] for t in trace["trials"]) == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert all(t["pid"] != trace["parent_pid"] for t in trace["trials"])
    assert all(t["self_s"] >= 0.0 for t in trace["trials"])
    assert all(t["calls"]["receivers.detect"][0] == 2 * 100 * 2 for t in trace["trials"])
    assert trace["sweeps"][0]["workers"] == 2
