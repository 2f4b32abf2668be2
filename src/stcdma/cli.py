"""Command-line front end for the simulation harness.

Subcommands map one-to-one onto the figures a receiver study needs:

- ``ber-vs-symbols``: smoothed error-rate convergence curves over a packet
- ``ber-vs-snr``: steady-state error rate against input SNR
- ``ber-vs-users``: steady-state error rate against the system load
- ``channel-mse``: blind channel-estimation error against received symbols
- ``selftest``: built-in consistency checks, no configuration needed

Results are written as CSV with a fixed column set and 6 significant digits,
rows sorted by (axis value, algorithm, metric), so identical invocations
produce byte-identical files.  Exit codes: 0 success, 1 configuration or
validation problem, 2 runtime failure (divergence or a failing selftest).

Every subcommand runs the loaded BLAS on one thread per process: at these
matrix sizes more threads only spin, and under ``--workers`` they would
oversubscribe the cores.  The setting is made before the worker pool forks,
so workers inherit it.  Setting ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``,
``MKL_NUM_THREADS`` or ``GOTO_NUM_THREADS`` leaves BLAS at the library's own
choice.  Thread counts do not change results.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import os
import sys
import warnings

import numpy as np

from .errors import ScenarioError
from .harness import sweep
from .scenario import parse_scenario_file
from .selftest import run_selftest

__all__ = ["main", "console_entry", "emit_csv"]

_CSV_HEADER = "axis_value,algorithm,metric,mean,half_width,runs,seed_hash"
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS")
_BLAS_THREAD_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
    "MKL_Set_Num_Threads",
)


def _use_one_blas_thread() -> None:
    """Set the loaded BLAS to one thread, unless a thread variable is set.

    The library is found among this process's mapped files; where there is no
    ``/proc`` or no known setter, BLAS is left as it is.
    """
    if any(os.environ.get(var) for var in _BLAS_THREAD_VARS):
        return
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted(
                {line.split()[-1] for line in fh if ".so" in line and ("blas" in line.lower() or "mkl" in line)}
            )
    except OSError:
        return
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in _BLAS_THREAD_SETTERS:
            if hasattr(handle, name):
                setter = getattr(handle, name)
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                return


def emit_csv(series, stream) -> None:
    """Write a metrics series with deterministic formatting."""
    print(_CSV_HEADER, file=stream)
    for row in series.rows:
        print(
            f"{row.axis_value:.6g},{row.algorithm},{row.metric},"
            f"{row.mean:.6g},{row.half_width:.6g},{row.runs},{series.seed_hash}",
            file=stream,
        )


def _parse_grid(text: str, kind: str):
    convert = float if kind == "float" else int
    try:
        grid = [convert(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ScenarioError(f"bad --grid value: {exc}") from None
    if not grid:
        raise ScenarioError(f"--grid has no values: {text!r}")
    return grid


def _worker_count(flag):
    """The pool size from ``--workers`` or ``STCDMA_WORKERS``; None runs serially."""
    source, text = "--workers", flag
    if flag is None:
        source, text = "STCDMA_WORKERS", os.environ.get("STCDMA_WORKERS") or "0"
    try:
        workers = int(text)
    except ValueError:
        raise ScenarioError(f"{source} must be a whole number, got {text!r}") from None
    if workers < 0:
        raise ScenarioError(f"{source} must not be negative, got {workers}")
    return workers or None


def _default_symbol_grid(packet_symbols: int) -> list:
    return sorted(set(np.linspace(0, packet_symbols - 1, 30).astype(int).tolist()))


def _add_common(parser, needs_grid):
    parser.add_argument("--config", required=True, help="scenario file (key = value lines)")
    parser.add_argument("--runs", type=int, default=10, help="independent trials per point")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario master seed")
    parser.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel worker processes (default: STCDMA_WORKERS or serial); each "
        "process runs BLAS on one thread unless OPENBLAS_NUM_THREADS, "
        "OMP_NUM_THREADS, MKL_NUM_THREADS or GOTO_NUM_THREADS is set",
    )
    parser.add_argument(
        "--grid",
        default=None,
        required=needs_grid,
        help="comma-separated axis values"
        + ("" if needs_grid else " (default: 30 evenly spaced symbol indices)"),
    )
    parser.add_argument(
        "--smooth-window",
        type=int,
        default=100,
        help="trailing window, in symbols, for convergence curves",
    )


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="stcdma",
        description="blind adaptive multiuser receiver simulations for space-time block-coded DS-CDMA downlinks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_grid in (
        ("ber-vs-symbols", False),
        ("ber-vs-snr", True),
        ("ber-vs-users", True),
        ("channel-mse", False),
    ):
        _add_common(sub.add_parser(name), needs_grid)
    st = sub.add_parser("selftest", help="run built-in consistency checks")
    st.add_argument("--seed", type=int, default=2024)
    return parser


_COMMAND_AXES = {
    "ber-vs-symbols": ("symbols", "ber"),
    "ber-vs-snr": ("snr", "ber"),
    "ber-vs-users": ("users", "ber"),
    "channel-mse": ("symbols", "mse"),
}


def _run_sweep_command(args) -> int:
    for flag, value in (("--runs", args.runs), ("--smooth-window", args.smooth_window)):
        if value < 1:
            raise ScenarioError(f"{flag} must be at least 1, got {value}")
    workers = _worker_count(args.workers)
    if not os.path.exists(args.config):
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return 1
    scn = parse_scenario_file(args.config)
    if args.seed is not None:
        scn = scn.replace(master_seed=args.seed)
    axis, metric = _COMMAND_AXES[args.command]
    if args.command == "channel-mse" and scn.channel_estimator not in ("svd", "sg"):
        print(
            "error: channel-mse needs channel_estimator = svd or sg in the scenario",
            file=sys.stderr,
        )
        return 1
    if args.grid is not None:
        grid = _parse_grid(args.grid, "float" if axis == "snr" else "int")
    else:
        grid = _default_symbol_grid(scn.packet_symbols)
    if axis == "symbols":
        outside = [g for g in grid if not 0 <= g < scn.packet_symbols]
        if outside:
            raise ScenarioError(
                f"--grid symbol indices outside the packet of {scn.packet_symbols} symbols: {outside}"
            )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        series = sweep(
            scn,
            axis,
            grid,
            args.runs,
            workers=workers,
            smooth_window=args.smooth_window,
        )
    series.rows = [r for r in series.rows if r.metric == metric]
    buffer = io.StringIO()
    emit_csv(series, buffer)
    text = buffer.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        summary_stream = sys.stdout
    else:
        sys.stdout.write(text)
        summary_stream = sys.stderr
    last = {}
    for row in series.rows:
        last[row.algorithm] = row
    for name in sorted(last):
        row = last[name]
        print(
            f"summary: {name} {row.metric}={row.mean:.6g} "
            f"(+/-{row.half_width:.6g}) at {series.axis}={row.axis_value:.6g}",
            file=summary_stream,
        )
    if series.diverged_trials:
        print(
            f"error: {series.diverged_trials} trial(s) diverged; "
            "affected filters were frozen from the failing step onward",
            file=sys.stderr,
        )
        return 2
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _use_one_blas_thread()
    if args.command == "selftest":
        return 0 if run_selftest(args.seed) else 2
    try:
        return _run_sweep_command(args)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
