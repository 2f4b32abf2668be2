"""The names the benchmark's tracer wraps and reads stay in place.

``bench/trace_cli.py`` runs the CLI with layer functions replaced by timed
wrappers, and reads some classes (``receivers.CombinerGains``,
``channel_estimation.CovarianceEstimate``, ``PsiEstimate``) as plain
attributes.  If one of those goes missing, every traced run crashes and the
benchmark counts each of its trials as failed.  This test runs one traced
trial, reading ``bench/`` without changing it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLI_ARGS = [
    "ber-vs-snr",
    "--config", os.path.join(ROOT, "bench", "configs", "diversity_1tx.cfg"),
    "--runs", "1",
    "--grid", "15",
]


def _env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def test_traced_cli_runs_one_trial_and_writes_the_plain_csv(tmp_path):
    plain, traced = tmp_path / "plain.csv", tmp_path / "traced.csv"
    run = subprocess.run(
        [sys.executable, "-m", "stcdma.cli", *CLI_ARGS, "--out", str(plain)],
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    trials = _traced_trials(tmp_path, CLI_ARGS, traced)
    assert traced.read_bytes() == plain.read_bytes()
    assert len(trials) == 1
    assert trials[0]["calls"]["fading.clarke_fading_sequence"][0] == 1


def test_traced_svd_refresh_counts_the_covariance_fold(tmp_path):
    """Each refresh of ``surge-2tx``'s config folds its blocks into the
    covariance by ``CovarianceEstimate.update``, a call of the track stage."""
    args = ["ber-vs-symbols", "--config", os.path.join(ROOT, "configs", "load_surge.cfg"), "--runs", "1"]
    (trial,) = _traced_trials(tmp_path, args, tmp_path / "traced.csv")
    folds, fold_s = trial["calls"]["channel_estimation.CovarianceEstimate.update"]
    assert folds > 0
    assert folds == trial["calls"]["channel_estimation.estimate_channel_exact"][0]
    assert trial["stages"]["track"]["busy_s"] > fold_s


def _traced_trials(tmp_path, cli_args, out):
    """The trial records of one ``bench/trace_cli.py`` run of the CLI."""
    summary = tmp_path / "trace.json"
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "trace_cli.py"),
         "--summary", str(summary), "--records", str(tmp_path / "records"),
         "--", *cli_args, "--out", str(out)],
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(summary.read_text())["trials"]
