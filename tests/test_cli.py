"""Command-line interface: exit codes, CSV schema, determinism, BLAS threads."""

import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from stcdma import harness
from stcdma.cli import _CSV_HEADER, emit_csv, main
from stcdma.harness import MetricRow, MetricsSeries

FAST_CONFIG = """\
gain = 8
users = 2
n_paths = 2
snr_db = 12
packet_symbols = 200
algorithms = ccm-sg
channel_estimator = genie
fading = off
doppler = 0
ber_skip = 50
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_CONFIG, encoding="utf-8")
    return str(path)


def test_selftest_passes():
    assert main(["selftest"]) == 0


def test_selftest_negative_seed_exits_one(monkeypatch, capsys):
    def no_check(*_args):
        raise AssertionError("a check ran with a negative seed")

    monkeypatch.setattr("stcdma.cli.run_selftest", no_check)
    assert main(["selftest", "--seed", "-1"]) == 1
    assert capsys.readouterr().err.startswith("error: --seed: must be non-negative, got -1")


def test_missing_config_reports_path(capsys):
    code = main(["ber-vs-snr", "--config", "/nonexistent/x.cfg", "--grid", "5"])
    assert code == 1
    assert "/nonexistent/x.cfg" in capsys.readouterr().err


def test_invalid_config_value_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("users = 0\n", encoding="utf-8")
    assert main(["ber-vs-snr", "--config", str(path), "--grid", "5"]) == 1
    assert "users" in capsys.readouterr().err


def test_bad_grid_exits_one(config_path, capsys):
    assert main(["ber-vs-snr", "--config", config_path, "--grid", "5,abc"]) == 1
    assert "--grid" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, name, value",
    [
        (["ber-vs-snr", "--grid", "5", "--runs", "0"], "--runs", "0"),
        (["ber-vs-symbols", "--runs", "1", "--smooth-window", "0"], "--smooth-window", "0"),
        (["ber-vs-snr", "--grid", "5", "--runs", "1", "--workers", "-2"], "--workers", "-2"),
        (["ber-vs-snr", "--grid", ",", "--runs", "1"], "--grid", "','"),
        (["ber-vs-symbols", "--grid", "0,250", "--runs", "1"], "--grid", "250"),
        (["ber-vs-snr", "--grid", "5", "--runs", "1", "--seed", "-1"], "master_seed", "-1"),
    ],
    ids=[
        "runs-0", "smooth-window-0", "workers-negative", "grid-empty",
        "grid-outside-packet", "seed-negative",
    ],
)
def test_bad_arguments_exit_one_before_any_trial(config_path, monkeypatch, capsys, args, name, value):
    def no_trial(*_args):
        raise AssertionError("a trial ran before the arguments were checked")

    monkeypatch.setattr(harness, "run_trial", no_trial)
    assert main(args[:1] + ["--config", config_path] + args[1:]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert name in err and value in err


@pytest.mark.parametrize("key", ["master_seed", "code_seed"])
def test_negative_seed_keys_exit_one_before_any_trial(tmp_path, monkeypatch, capsys, key):
    def no_trial(*_args):
        raise AssertionError("a trial ran with a negative seed")

    monkeypatch.setattr(harness, "run_trial", no_trial)
    path = tmp_path / "seed.cfg"
    path.write_text(FAST_CONFIG + f"{key} = -1\n", encoding="utf-8")
    assert main(["ber-vs-snr", "--config", str(path), "--grid", "5", "--runs", "1"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key}: must be non-negative, got -1")


@pytest.mark.parametrize("key", ["snr_db", "doppler"])
def test_nonfinite_float_key_exits_one_before_any_trial(tmp_path, monkeypatch, capsys, key):
    def no_trial(*_args):
        raise AssertionError("a trial ran with a non-finite setting")

    monkeypatch.setattr(harness, "run_trial", no_trial)
    path = tmp_path / "nan.cfg"
    kept = [line for line in FAST_CONFIG.splitlines() if not line.startswith(f"{key} =")]
    path.write_text("\n".join(kept + [f"{key} = nan"]) + "\n", encoding="utf-8")
    assert main(["ber-vs-symbols", "--config", str(path), "--runs", "1"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key}: must be finite, got nan")


def test_repeated_algorithm_exits_one_naming_it(tmp_path, monkeypatch, capsys):
    def no_trial(*_args):
        raise AssertionError("a trial ran with a repeated algorithm")

    monkeypatch.setattr(harness, "run_trial", no_trial)
    path = tmp_path / "repeat.cfg"
    path.write_text(FAST_CONFIG.replace("algorithms = ccm-sg", "algorithms = ccm-sg, ccm-sg, cmv-sg"), encoding="utf-8")
    assert main(["ber-vs-snr", "--config", str(path), "--grid", "5", "--runs", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: algorithms: 'ccm-sg' is listed more than once")


def test_snr_sweep_writes_schema_and_summary(config_path, tmp_path, capsys):
    out = tmp_path / "ber.csv"
    code = main(
        [
            "ber-vs-snr",
            "--config",
            config_path,
            "--grid",
            "6,12",
            "--runs",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == _CSV_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "6"
    assert first[1] == "ccm-sg"
    assert first[2] == "ber"
    assert int(first[5]) == 2
    assert len(first[6]) == 12
    captured = capsys.readouterr()
    assert "summary: ccm-sg ber=" in captured.out


def test_sweep_to_stdout_puts_summary_on_stderr(config_path, capsys):
    code = main(["ber-vs-snr", "--config", config_path, "--grid", "12", "--runs", "1"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(_CSV_HEADER)
    assert "summary:" in captured.err


def test_reruns_are_byte_identical(config_path, tmp_path):
    args = [
        "ber-vs-symbols",
        "--config",
        config_path,
        "--runs",
        "2",
        "--grid",
        "0,100,199",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_default_symbol_grid_used_without_grid(config_path, tmp_path):
    out = tmp_path / "conv.csv"
    code = main(
        ["ber-vs-symbols", "--config", config_path, "--runs", "1", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    axis_values = [float(l.split(",")[0]) for l in lines[1:]]
    assert axis_values[0] == 0.0
    assert axis_values[-1] == 199.0
    assert len(axis_values) == len(set(axis_values))


def test_seed_override_changes_results(config_path, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    base = ["ber-vs-snr", "--config", config_path, "--grid", "8", "--runs", "2"]
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--seed", "999", "--out", str(b)]) == 0
    assert a.read_text() != b.read_text()


def test_channel_mse_requires_blind_estimator(config_path, capsys):
    assert main(["channel-mse", "--config", config_path, "--runs", "1"]) == 1
    assert "channel_estimator" in capsys.readouterr().err


def test_channel_mse_reports_only_mse_rows(tmp_path):
    path = tmp_path / "blind.cfg"
    path.write_text(FAST_CONFIG.replace("genie", "sg"), encoding="utf-8")
    out = tmp_path / "mse.csv"
    code = main(
        [
            "channel-mse",
            "--config",
            str(path),
            "--runs",
            "1",
            "--grid",
            "0,100,199",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[1] == "channel-sg"
        assert fields[2] == "mse"


def test_divergent_run_exits_two_but_writes_csv(tmp_path, capsys):
    path = tmp_path / "diverge.cfg"
    path.write_text(
        FAST_CONFIG.replace("ber_skip = 50", "ber_skip = 50\nstep_ccm = 50.0"),
        encoding="utf-8",
    )
    out = tmp_path / "d.csv"
    code = main(
        ["ber-vs-snr", "--config", str(path), "--grid", "5", "--runs", "1", "--out", str(out)]
    )
    assert code == 2
    assert out.read_text().startswith(_CSV_HEADER)
    assert "diverged" in capsys.readouterr().err


def test_emit_csv_formatting():
    series = MetricsSeries(
        axis="snr",
        rows=[
            MetricRow(4.0, "ccm-sg", "ber", 0.012345678, 0.00123456, 10),
            MetricRow(8.0, "ccm-sg", "ber", 1e-05, 0.0, 10),
        ],
        seed_hash="abcdefabcdef",
    )
    buffer = io.StringIO()
    emit_csv(series, buffer)
    lines = buffer.getvalue().strip().splitlines()
    assert lines[0] == _CSV_HEADER
    assert lines[1] == "4,ccm-sg,ber,0.0123457,0.00123456,10,abcdefabcdef"
    assert lines[2] == "8,ccm-sg,ber,1e-05,0,10,abcdefabcdef"


# Thread-policy checks run the CLI in a child interpreter, because calling
# main() here would leave this test process at one BLAS thread.  The child sets
# BLAS to 2 threads first, so the checks hold on a one-core machine too, and
# records the count the parent and each sweep worker see.
_THREAD_PROBE = r"""
import ctypes, json, os, sys

import numpy  # loads BLAS

PAIRS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("MKL_Get_Max_Threads", "MKL_Set_Num_Threads"),
)
try:
    with open("/proc/self/maps") as fh:
        libs = sorted({l.split()[-1] for l in fh if ".so" in l and ("blas" in l.lower() or "mkl" in l)})
except OSError:
    libs = []
get = None
for lib in libs:
    handle = ctypes.CDLL(lib)
    for get_name, set_name in PAIRS:
        if hasattr(handle, get_name) and hasattr(handle, set_name):
            get, put = getattr(handle, get_name), getattr(handle, set_name)
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            break
    if get is not None:
        break
if get is None:
    print(json.dumps({"getter": None, "libs": libs}))
    sys.exit(0)
put(2)
import stcdma.cli
import stcdma.harness

imported = get()
counts_path = sys.argv[1]
run_task = stcdma.harness._run_task


def counting_task(task):
    with open(counts_path, "a") as fh:
        fh.write(f"{os.getpid()} {get()}\n")
    return run_task(task)


stcdma.harness._run_task = counting_task
code = stcdma.cli.main(sys.argv[2:])
with open(counts_path) as fh:
    workers = [[int(v) for v in line.split()] for line in fh]
print(json.dumps({"getter": get_name, "imported": imported, "parent": get(),
                  "pid": os.getpid(), "workers": workers, "code": code}))
"""
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS")


@pytest.fixture(scope="module")
def thread_runs(tmp_path_factory):
    """One --workers 2 sweep per thread setting: default, and OPENBLAS_NUM_THREADS=2."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    base = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = {}
    for label, extra in (("default", {}), ("override", {"OPENBLAS_NUM_THREADS": "2"})):
        work = tmp_path_factory.mktemp(label)
        config = work / "fast.cfg"
        config.write_text(FAST_CONFIG, encoding="utf-8")
        out = work / "out.csv"
        argv = ["ber-vs-snr", "--config", str(config), "--grid", "6,12", "--runs", "2",
                "--workers", "2", "--out", str(out)]
        child = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE, str(work / "counts.txt")] + argv,
            env={**base, **extra}, capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        report = json.loads(child.stdout.strip().splitlines()[-1])
        if report["getter"] is None:
            pytest.skip(f"no BLAS thread getter found in the loaded libraries {report['libs']}")
        assert report["code"] == 0
        report["csv"] = out.read_bytes()
        runs[label] = report
    return runs


def _worker_counts(report):
    pids = {pid for pid, _ in report["workers"]}
    assert pids and report["pid"] not in pids, "the sweep did not run in pool workers"
    return {count for _, count in report["workers"]}


def test_cli_runs_parent_and_workers_on_one_blas_thread(thread_runs):
    report = thread_runs["default"]
    assert report["parent"] == 1
    assert _worker_counts(report) == {1}


def test_blas_thread_variable_overrides_the_default(thread_runs):
    report = thread_runs["override"]
    assert report["parent"] == 2
    assert _worker_counts(report) == {2}


def test_blas_thread_setting_leaves_csv_unchanged(thread_runs):
    assert thread_runs["default"]["csv"] == thread_runs["override"]["csv"]


def test_importing_cli_leaves_blas_threads_alone(thread_runs):
    assert thread_runs["default"]["imported"] == 2
    assert thread_runs["override"]["imported"] == 2
