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
    plain, traced, summary = tmp_path / "plain.csv", tmp_path / "traced.csv", tmp_path / "trace.json"
    run = subprocess.run(
        [sys.executable, "-m", "stcdma.cli", *CLI_ARGS, "--out", str(plain)],
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "trace_cli.py"),
         "--summary", str(summary), "--records", str(tmp_path / "records"),
         "--", *CLI_ARGS, "--out", str(traced)],
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert traced.read_bytes() == plain.read_bytes()
    trials = json.loads(summary.read_text())["trials"]
    assert len(trials) == 1
    assert trials[0]["calls"]["fading.clarke_fading_sequence"][0] == 1
