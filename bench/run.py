"""Sweep benchmark for the ``stcdma`` command-line tool.

Usage (from the repository root)::

    python3 bench/run.py --workload surge-2tx [--seed 12345] [--seconds 40] [--trace 0|1]

One process drives all load: it launches the CLI as a subprocess, one
invocation at a time, under the CLI's own defaults.  The child environment
drops ``STCDMA_WORKERS`` (the CLI would read it and run a serial workload in
parallel) and the BLAS thread variables, so thread settings are whatever the
program picks.  The workload seed reaches the program only through ``--seed``.

``--trace 0`` reports the end-to-end metrics: trial throughput, CPU per
trial, peak resident memory of the CLI process tree and interpreter set-up
time.  ``--trace 1`` repeats the workload untraced, traced in-process by
``trace_cli.py`` and single-threaded (``OPENBLAS_NUM_THREADS=1``), and
reports per-layer metrics.  Every CSV is checked; at the default seed its
sha256 must equal the digest in ``golden.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
DEFAULT_SEED = 12345  # master_seed of every workload config
CHILD_TIMEOUT_S = 150.0
# Set-up probes per cycle.  Host speed shifts every few seconds, so the probes
# are spread over the run, a few before each cycle.
SETUP_PROBES_PER_CYCLE = 3
STRIPPED_ENV = ("STCDMA_WORKERS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CSV_HEADER = "axis_value,algorithm,metric,mean,half_width,runs,seed_hash"
SYMBOL_GRID_POINTS = 30  # the CLI's default ber-vs-symbols / channel-mse grid


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a workload and what its CSV must look like."""

    key: str
    command: str
    config: str
    runs: int
    algorithms: tuple
    metric: str
    packet_symbols: int
    grid: tuple = ()
    workers: int = 0

    def argv(self, seed: int, out: str) -> list:
        args = [self.command, "--config", os.path.join(ROOT, self.config),
                "--runs", str(self.runs), "--seed", str(seed), "--out", out]
        if self.grid:
            args += ["--grid", ",".join(f"{g:g}" for g in self.grid)]
        if self.workers:
            args += ["--workers", str(self.workers)]
        return args

    @property
    def points(self) -> int:
        return len(self.grid) if self.grid else 1

    @property
    def trials(self) -> int:
        return self.points * self.runs

    def axis_values(self) -> list:
        if self.grid:
            return [float(g) for g in self.grid]
        last = self.packet_symbols - 1
        step = last / (SYMBOL_GRID_POINTS - 1)
        values = [int(i * step) for i in range(SYMBOL_GRID_POINTS - 1)] + [last]
        return [float(v) for v in sorted(set(values))]


# Runs per point stay within the study scripts' 10-20.  A run's timed metrics
# are medians over its cycles, so each cycle is kept short enough (about 10 s)
# for a run to hold several: surge-2tx runs 10 trials, not the convergence
# study's 20, and diversity-1v2 runs one SNR.  Why each workload exists, which
# layers it loads and which it bypasses is written up in README.md.
WORKLOADS = {
    "surge-2tx": (
        Invocation("load_surge", "ber-vs-symbols", "configs/load_surge.cfg", 10,
                   ("ccm-sg", "cmv-sg", "trained-lms"), "ber", 3000),
    ),
    "tracking-par2": (
        Invocation("tracking_static", "channel-mse", "configs/channel_tracking.cfg", 20,
                   ("channel-sg",), "mse", 3000, workers=2),
    ),
    "diversity-1v2": (
        Invocation("diversity_2tx", "ber-vs-snr", "bench/configs/diversity_2tx.cfg", 10,
                   ("ccm-sg",), "ber", 6000, grid=(15.0,)),
        Invocation("diversity_1tx", "ber-vs-snr", "bench/configs/diversity_1tx.cfg", 10,
                   ("ccm-sg",), "ber", 6000, grid=(15.0,)),
    ),
}


# --------------------------------------------------------------------------
# Output checks


def expected_seed_hash(seed: int, points: int, runs: int) -> str:
    text = ";".join(f"{seed}:{p}:{r}" for p in range(points) for r in range(runs))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def check_csv(text: str, inv: Invocation, seed: int) -> list:
    """Problems with one invocation's CSV; an empty list means well formed."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [f"bad header: {lines[:1]}"]
    rows = [line.split(",") for line in lines[1:]]
    problems = []
    axis = inv.axis_values()
    if len(rows) != len(axis) * len(inv.algorithms):
        problems.append(f"{len(rows)} rows, expected {len(axis) * len(inv.algorithms)}")
    seen = set()
    hashes = set()
    for row in rows:
        if len(row) != 7:
            problems.append(f"row has {len(row)} fields: {row}")
            continue
        axis_value, algorithm, metric, mean, hw, runs, seed_hash = row
        try:
            axis_value, mean, hw, runs = float(axis_value), float(mean), float(hw), int(runs)
        except ValueError:
            problems.append(f"unparsable row: {row}")
            continue
        seen.add((axis_value, algorithm))
        hashes.add(seed_hash)
        if algorithm not in inv.algorithms or metric != inv.metric:
            problems.append(f"unexpected series {algorithm}/{metric}")
        if not (math.isfinite(mean) and math.isfinite(hw)) or hw < 0:
            problems.append(f"non-finite or negative value in {row}")
        elif inv.metric == "ber" and not 0.0 <= mean <= 1.0:
            problems.append(f"BER outside [0, 1]: {row}")
        elif inv.metric == "mse" and mean < 0.0:
            problems.append(f"negative MSE: {row}")
        if runs != inv.runs:
            problems.append(f"runs column {runs}, expected {inv.runs}")
    if seen != {(a, alg) for a in axis for alg in inv.algorithms}:
        problems.append("axis values or algorithms differ from the expected grid")
    if hashes != {expected_seed_hash(seed, inv.points, inv.runs)}:
        problems.append(f"seed_hash column {sorted(hashes)} is not the one expected")
    return problems


def load_golden() -> dict:
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    if golden["seed"] != DEFAULT_SEED:
        raise ValueError("golden.json was recorded at another seed")
    return golden["sha256"]


# --------------------------------------------------------------------------
# Child processes


def child_env(extra=None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.update(extra or {})
    return env


@dataclass
class ChildRun:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stderr: str


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: list, env: dict, stderr_path: str) -> ChildRun:
    """Run a child to completion; rusage covers it and its reaped workers.

    The child leads its own process group, so a timeout or an interrupt
    kills its pool workers with it."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # already reaped by wait4
    with open(stderr_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return ChildRun(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, stderr)


@dataclass
class Result:
    """One invocation's run and the verdict on its CSV."""

    inv: Invocation
    mode: str
    child: ChildRun
    digest: str
    problems: list
    diverged: int
    trace_path: str

    @property
    def failed(self) -> int:
        if self.child.code not in (0, 2) or self.problems:
            return self.inv.trials
        return min(self.diverged, self.inv.trials)


_DIVERGED = re.compile(r"error: (\d+) trial\(s\) diverged")


def run_invocation(inv, seed, mode, workdir, golden) -> Result:
    """mode is "plain", "blas1" (single-threaded BLAS) or "traced"."""
    stem = os.path.join(workdir, f"{inv.key}.{mode}")
    csv_path = stem + ".csv"
    for stale in (csv_path, stem + ".trace.json"):
        if os.path.exists(stale):
            os.remove(stale)
    cli_args = inv.argv(seed, csv_path)
    if mode == "traced":
        records = stem + ".records"
        shutil.rmtree(records, ignore_errors=True)
        argv = [sys.executable, os.path.join(HERE, "trace_cli.py"),
                "--summary", stem + ".trace.json", "--records", records, "--", *cli_args]
    else:
        argv = [sys.executable, "-m", "stcdma.cli", *cli_args]
    env = child_env(SINGLE_THREAD_ENV if mode == "blas1" else None)
    child = run_child(argv, env, stem + ".stderr")
    problems = []
    digest = ""
    if child.code not in (0, 2):
        problems.append(f"exit code {child.code}: {child.stderr.strip()[-500:]}")
    elif not os.path.exists(csv_path):
        problems.append("no CSV written")
    else:
        with open(csv_path, "rb") as fh:
            data = fh.read()
        digest = hashlib.sha256(data).hexdigest()
        problems.extend(check_csv(data.decode("utf-8", errors="replace"), inv, seed))
        if seed == DEFAULT_SEED and digest != golden.get(inv.key):
            problems.append(f"sha256 {digest} differs from golden.json")
    match = _DIVERGED.search(child.stderr)
    diverged = int(match.group(1)) if match else 0
    trace_path = ""
    if mode == "traced" and os.path.exists(stem + ".trace.json"):
        trace_path = stem + ".trace.json"
        with open(trace_path, encoding="utf-8") as fh:
            recorded = len(json.load(fh)["trials"])
        if recorded != inv.trials:
            problems.append(f"trace holds {recorded} trial records, expected {inv.trials}")
    return Result(inv, mode, child, digest, problems, diverged, trace_path)


def run_pass(workload, seed, mode, workdir, golden) -> list:
    return [run_invocation(inv, seed, mode, workdir, golden) for inv in WORKLOADS[workload]]


def repeat_for(seconds: float, one_cycle):
    """Call one_cycle() at least once, and again while another cycle of the
    same length still ends within `seconds` of the start."""
    cycles = []
    start = time.perf_counter()
    while True:
        c0 = time.perf_counter()
        cycles.append(one_cycle())
        now = time.perf_counter()
        if (now - start) + (now - c0) > seconds:
            return cycles


# --------------------------------------------------------------------------
# Set-up time and machine facts

_SETUP_PROBE = (
    "import sys\n"
    "import stcdma.cli\n"
    "from stcdma.scenario import parse_scenario_file\n"
    "for path in sys.argv[1:]:\n"
    "    parse_scenario_file(path).validate()\n"
)


def measure_setup(workload, workdir, probes) -> list:
    """Wall times of `probes` fresh interpreters that each import the CLI and
    parse and validate the workload's configs."""
    configs = [os.path.join(ROOT, inv.config) for inv in WORKLOADS[workload]]
    argv = [sys.executable, "-c", _SETUP_PROBE, *configs]
    times = []
    for _ in range(probes):
        child = run_child(argv, child_env(), os.path.join(workdir, "setup.stderr"))
        if child.code != 0:
            raise RuntimeError(f"set-up probe failed: {child.stderr.strip()[-500:]}")
        times.append(child.wall_s)
    return times


_FACTS_PROBE = r"""
import ctypes, json, multiprocessing, os, sys
import numpy
facts = {"python": sys.version.split()[0], "numpy": numpy.__version__,
         "mp_start_method": multiprocessing.get_start_method()}
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts["blas"] = {"name": blas.get("name"), "version": blas.get("version")}
except Exception as exc:
    facts["blas"] = {"error": repr(exc)}
threads = None
with open("/proc/self/maps") as fh:
    libs = sorted({l.split()[-1] for l in fh if "blas" in l.lower() and ".so" in l})
for lib in libs:
    handle = ctypes.CDLL(lib)
    for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_", "openblas_get_num_threads", "mkl_get_max_threads"):
        if hasattr(handle, sym):
            fn = getattr(handle, sym)
            fn.restype = ctypes.c_int
            threads = fn()
            break
    if threads is not None:
        facts["blas"]["library"] = os.path.basename(lib)
        break
facts["blas"]["threads"] = threads
print(json.dumps(facts))
"""


def machine_facts(workdir) -> dict:
    facts = {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
             "platform": platform.platform()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")]
        facts["cpu_model"] = models[0] if models else platform.processor()
    except OSError:
        facts["cpu_model"] = platform.processor()
    probe = subprocess.run([sys.executable, "-c", _FACTS_PROBE], env=child_env(), cwd=ROOT,
                           capture_output=True, text=True, timeout=60)
    if probe.returncode == 0:
        facts.update(json.loads(probe.stdout.strip().splitlines()[-1]))
    else:
        facts["probe_error"] = probe.stderr.strip()[-500:]
    facts["git_sha"] = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            facts["git_sha"] = sha.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "stcdma")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    facts["src_sha256"] = digest.hexdigest()
    facts["child_env_removed"] = list(STRIPPED_ENV)
    return facts


# --------------------------------------------------------------------------
# Metrics


def end_to_end(cycles, setup_times) -> dict:
    trials = [sum(r.inv.trials for r in c) for c in cycles]
    walls = [sum(r.child.wall_s for r in c) for c in cycles]
    cpus = [sum(r.child.cpu_s for r in c) for c in cycles]
    return {
        "trials_per_s": (statistics.median(t / w for t, w in zip(trials, walls)), "trials/s"),
        "cpu_s_per_trial": (statistics.median(c / t for c, t in zip(cpus, trials)), "s"),
        "peak_rss_mb": (max(r.child.maxrss_mb for c in cycles for r in c), "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


# Per-layer metrics read straight off the call totals: <traced name>.calls or .busy_s.
CALL_METRICS = (
    "harness.run_trial.calls",
    "harness.run_trial.busy_s",
    "signal_model.simulate_packet.calls",
    "signal_model.simulate_packet.busy_s",
    "signal_model.random_multipath_channel.busy_s",
    "fading.clarke_fading_sequence.calls",
    "fading.clarke_fading_sequence.busy_s",
    "receivers.projection_pair.calls",
    "receivers.projection_pair.busy_s",
    "receivers.min_norm_feasible_pair.calls",
    "channel_estimation.estimate_channel_exact.calls",
    "channel_estimation.estimate_channel_exact.busy_s",
    "channel_estimation.CovarianceEstimate.update.calls",
    "channel_estimation.CovarianceEstimate.update.busy_s",
    "channel_estimation.sg_psi_step.calls",
    "channel_estimation.sg_psi_step.busy_s",
    "channel_estimation.sg_channel_step.calls",
    "channel_estimation.sg_channel_step.busy_s",
    "channel_estimation.align_phase.calls",
    "channel_estimation.align_phase.busy_s",
    "receivers.ccm_sg_step.calls",
    "receivers.ccm_sg_step.busy_s",
    "receivers.cmv_sg_step.calls",
    "receivers.cmv_sg_step.busy_s",
    "receivers.trained_lms_step.calls",
    "receivers.trained_lms_step.busy_s",
    "receivers.detect.calls",
    "receivers.detect.busy_s",
    "receivers.combine.calls",
    "receivers.combine.busy_s",
    "receivers.CombinerGains.calls",
    "scenario.parse_scenario_file.busy_s",
    "cli.emit_csv.busy_s",
)
STAGES = ("synthesize", "track", "adapt", "score")


def layer_cycle(plain, traced, blas1) -> dict:
    """Per-layer values of one untraced / traced / single-threaded cycle."""
    totals = {}
    trials, sweeps = [], []

    def add(calls_by_name):
        for name, (calls, busy) in calls_by_name.items():
            slot = totals.setdefault(name, [0, 0.0])
            slot[0] += calls
            slot[1] += busy

    for res in traced:
        with open(res.trace_path, encoding="utf-8") as fh:
            trace = json.load(fh)
        sweeps.extend(trace["sweeps"])
        add(trace["totals"])
        trials.extend(trace["trials"])
        for tr in trace["trials"]:
            add(tr["calls"])
    durations = [t["busy_s"] for t in trials]
    totals["harness.run_trial"] = [len(trials), sum(durations)]
    out = {}
    for metric in CALL_METRICS:
        name, field = metric.rsplit(".", 1)
        calls, busy = totals.get(name, (0, 0.0))
        out[metric] = calls if field == "calls" else busy
    spreading = [v for k, v in totals.items() if k.startswith("spreading.")]
    sg_calls = totals.get("channel_estimation.sg_channel_step", (0, 0.0))[0]
    sweep_wall = sum((s["end"] - s["start"]) * s["workers"] for s in sweeps)
    wall = {mode: sum(r.child.wall_s for r in rs)
            for mode, rs in (("plain", plain), ("traced", traced), ("blas1", blas1))}
    out.update({
        "harness.trial_p50_s": statistics.median(durations),
        "harness.trial_p90_s": statistics.quantiles(durations, n=10, method="inclusive")[-1],
        "harness.self_s": sum(t["self_s"] for t in trials),
        "harness.sweep.busy_s": sum(s["end"] - s["start"] for s in sweeps),
        "harness.worker_busy_frac": sum(durations) / sweep_wall if sweep_wall else 0.0,
        "harness.blas1_speedup": wall["plain"] / wall["blas1"],
        "harness.diverged": sum(t["diverged"] for t in trials),
        "signal_model.simulate_packet.cmacs": sum(t["cmacs"] for t in trials),
        "spreading.calls_per_trial": sum(c for c, _ in spreading) / len(trials),
        "spreading.busy_s": sum(b for _, b in spreading),
        "channel_estimation.sg_channel_step.applied_frac":
            sum(t["sg_applied"] for t in trials) / sg_calls if sg_calls else 0.0,
        "trace.overhead_frac": wall["traced"] / wall["plain"] - 1.0,
    })
    for stage in STAGES:
        out[f"stage.{stage}.busy_s"] = sum(
            t["stages"].get(stage, {}).get("busy_s", 0.0) for t in trials
        )
    return out


def per_layer(cycles, units) -> dict:
    results = [r for c in cycles for rs in c for r in rs]
    attempted = sum(r.inv.trials for r in results)
    values = [layer_cycle(*c) for c in cycles]
    out = {name: (statistics.median(v[name] for v in values), units[name]) for name in values[0]}
    out["trial_fail_frac"] = (sum(r.failed for r in results) / attempted, units["trial_fail_frac"])
    return out


# --------------------------------------------------------------------------


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "stcdma", "cli.py")):
        print("error: src/stcdma is missing; run from a full checkout", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    golden = load_golden()
    workdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    facts = machine_facts(workdir)
    print("machine " + json.dumps(facts, sort_keys=True))

    setup_times = []
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}

        def one_cycle():
            plain = run_pass(args.workload, args.seed, "plain", workdir, golden)
            traced = run_pass(args.workload, args.seed, "traced", workdir, golden)
            blas1 = run_pass(args.workload, args.seed, "blas1", workdir, golden)
            for p, t in zip(plain, traced):
                if t.digest != p.digest:
                    t.problems.append("traced CSV differs from the untraced one")
            return plain, traced, blas1

        cycles = repeat_for(args.seconds, one_cycle)
        results = [r for c in cycles for rs in c for r in rs]
        traced_ok = all(r.trace_path for r in results if r.mode == "traced")
        metrics = per_layer(cycles, units) if traced_ok else {}
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        measure_setup(args.workload, workdir, 1)  # untimed warm-up: fills the file cache

        def one_cycle():
            setup_times.extend(measure_setup(args.workload, workdir, SETUP_PROBES_PER_CYCLE))
            return run_pass(args.workload, args.seed, "plain", workdir, golden)

        cycles = repeat_for(args.seconds, one_cycle)
        results = [r for c in cycles for r in c]
        metrics = end_to_end(cycles, setup_times)

    ok = not any(r.problems for r in results)
    digests = {}
    for r in results:
        digests.setdefault(r.inv.key, set()).add(r.digest)
        for problem in r.problems:
            print(f"check FAILED {r.inv.key} [{r.mode}]: {problem}")
    for key, seen in digests.items():
        if len(seen) != 1:
            ok = False
            print(f"check FAILED {key}: the same seed gave different CSVs {sorted(seen)}")
        print(f"csv {key} sha256 {' '.join(sorted(seen))}")
    attempted = sum(r.inv.trials for r in results)
    failed = sum(r.failed for r in results)
    print(f"cycles {len(cycles)}; trials attempted {attempted}, failed {failed}")
    if "trial_fail_frac" not in metrics:
        print(f"{args.workload} trial_fail_frac {failed / attempted} fraction")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value} {unit}")

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": facts, "correct": ok, "attempted": attempted, "failed": failed,
        "setup_s_samples": setup_times,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "invocations": [
            {"key": r.inv.key, "mode": r.mode, "code": r.child.code, "wall_s": r.child.wall_s,
             "cpu_s": r.child.cpu_s, "maxrss_mb": r.child.maxrss_mb, "sha256": r.digest,
             "problems": r.problems, "diverged": r.diverged}
            for r in results
        ],
    }
    with open(os.path.join(workdir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
