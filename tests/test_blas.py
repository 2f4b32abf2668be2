"""LAPACK's triangular solve from the loaded BLAS, against a general solve and
against the ``np.linalg.solve`` fallback, on the systems the receivers, the
sg tracker and the svd refresh solve."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from stcdma import _blas, channel_estimation, harness, receivers
from stcdma.channel_estimation import CovarianceEstimate, PsiEstimate, estimate_channel_exact, sg_track
from stcdma.scenario import parse_scenario_file
from stcdma.signal_model import simulate_packet
from stcdma.spreading import random_spreading_set, user_constraint_matrices

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "configs")

needs_lapack = pytest.mark.skipif(_blas.ztrtrs() is None, reason="the loaded BLAS has no LAPACKE triangular solve")


def _both_routes(monkeypatch, fn):
    """fn() by LAPACK, then by the fallback a numpy without LAPACKE takes."""
    fast = fn()
    with monkeypatch.context() as patch:
        patch.setattr(_blas, "ztrtrs", lambda: None)
        slow = fn()
    return fast, slow


def _assert_close(fast, slow):
    fast, slow = np.asarray(fast), np.asarray(slow)
    assert np.all(np.isfinite(fast))
    assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))


def _packet(config, symbols):
    """One receive antenna's observations of a config's trial, cut to
    ``symbols`` symbols, with the desired user's constraint matrices."""
    scn = parse_scenario_file(os.path.join(CONFIGS, config)).replace(packet_symbols=symbols, extra_users_at=0, ber_skip=0)
    rng = np.random.default_rng(7)
    streams = harness._build_streams(scn, rng, rng)
    channel = harness._build_channels(scn, rng)[0]
    spreading = random_spreading_set(scn.total_users, scn.gain, scn.spreading_scheme, scn.tx_antennas, scn.code_seed)
    y = simulate_packet(streams, spreading, channel, scn.noise_variance(), rng, scn.include_isi)
    return scn, y, user_constraint_matrices(spreading, 0, scn.n_paths)


@pytest.mark.parametrize("unit", [False, True])
@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("per_row", [False, True])
def test_lower_solve_matches_a_general_solve(unit, adjoint, per_row, route):
    """One triangle shared by every row of the right-hand side, or one per
    row; the upper triangle, and with ``unit`` the diagonal, are not read."""
    rng = np.random.default_rng(1)
    shape = (3, 9, 9) if per_row else (9, 9)
    low = rng.standard_normal(shape) + 1j * rng.standard_normal(shape) + 4 * np.eye(9)
    rhs = rng.standard_normal((3, 9)) + 1j * rng.standard_normal((3, 9))
    a = np.tril(low, -1) + np.eye(9) if unit else np.tril(low)
    x = _blas.lower_solve(low, rhs, unit=unit, adjoint=adjoint)
    a = np.broadcast_to(a.conj().swapaxes(-1, -2) if adjoint else a, (3, 9, 9))
    expected = np.linalg.solve(a, rhs[..., None])[..., 0]
    assert np.max(np.abs(x - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("row", [0, 5, 63])
def test_lower_solve_keeps_the_entries_before_a_nonfinite_row(row, route):
    """Substitution in row order: a NaN or inf in row n, of the matrix or
    of the right-hand side, leaves x[:n] exactly as it was.  The fallback
    solves x[:n] again from the first n rows alone, so there it is the same
    up to rounding."""
    rng = np.random.default_rng(row)
    low = np.tril(rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)), -1) * 0.1 + np.eye(64)
    rhs = rng.standard_normal((2, 64)) + 1j * rng.standard_normal((2, 64))
    clean = _blas.lower_solve(low, rhs, unit=True)
    low[row, :row] = np.nan
    low[row + 1 :, row] = np.inf
    rhs[1, row] = np.inf
    with np.errstate(invalid="ignore", over="ignore"):
        x = _blas.lower_solve(low, rhs, unit=True)
    rounding = {"lapack": 0.0, "fallback": 1e-13}[route]
    assert np.max(np.abs(x[:, :row] - clean[:, :row]), initial=0.0) <= rounding * np.max(np.abs(clean))
    assert not np.isfinite(x[1, row:]).any()
    assert not np.isfinite(x[:, row + 1 :]).any()


def test_lower_solve_rejects_a_triangle_of_another_size(route):
    with pytest.raises(ValueError):
        _blas.lower_solve(np.eye(3), np.ones((1, 4)))


# The unit lower triangular systems of one chunk: cmv-sg's, one per branch,
# and trained LMS's, shared by both branches, on a load_surge packet; the sg
# tracker's, shared by the 2L columns of psi, on a channel_tracking packet.
@needs_lapack
@pytest.mark.parametrize("case", ["load_surge-cmv", "load_surge-lms", "channel_tracking-sg"])
def test_fallback_matches_lapack_on_a_chunk(monkeypatch, case):
    config, kind = case.split("-")
    scn, y, cs = _packet(f"{config}.cfg", 2 * receivers._CHUNK)
    y = y[:, : receivers._CHUNK]
    yh = y.conj().T
    if kind == "cmv":
        py = np.stack([y - c @ (receivers.constraint_restorer(c).conj().T @ y) for c in cs])
        gains = scn.step_cmv / np.sum(np.abs(y) ** 2, axis=0)
        rhs = yh @ np.stack([receivers.constraint_restorer(c) @ np.ones(c.shape[1]) for c in cs]).T
        args = ("cmv", yh @ py, rhs.T, gains)
    elif kind == "lms":
        targets = np.exp(1j * np.pi / 4 * np.arange(2 * receivers._CHUNK)).reshape(2, -1)
        args = ("lms", (yh @ y)[None], np.zeros_like(targets), np.full(receivers._CHUNK, scn.step_lms), targets)
    else:
        a = scn.psi_forgetting + scn.step_channel
        args = ("cmv", (yh @ y)[None], (yh @ cs[0]).T, scn.step_channel / a)
    assert len(args[2]) == {"cmv": 2, "lms": 2, "sg": 2 * scn.n_paths}[kind]
    (q, c), (q_slow, c_slow) = _both_routes(monkeypatch, lambda: receivers.sg_chunk(*args))
    _assert_close(q, q_slow)
    _assert_close(c, c_slow)


@needs_lapack
def test_fallback_matches_lapack_on_the_sg_tracker(monkeypatch):
    scn, y, cs = _packet("channel_tracking.cfg", 600)
    start = np.ones(cs[0].shape[1], dtype=complex) / np.sqrt(cs[0].shape[1])

    def track():
        psi = PsiEstimate.from_constraints(cs[0], alpha=scn.psi_forgetting, mu=scn.step_channel)
        estimates, diverged = sg_track(psi, cs[0], y, start)
        assert not diverged
        return estimates

    _assert_close(*_both_routes(monkeypatch, track))


@needs_lapack
@pytest.mark.parametrize("power", [1, 2])
def test_fallback_matches_lapack_on_the_svd_refresh(monkeypatch, power):
    scn, y, cs = _packet("load_surge.cfg", 500)
    cov = CovarianceEstimate(y.shape[0], forgetting=scn.cov_forgetting)
    cov.update(y)
    a = cov.matrix + scn.ridge * np.eye(y.shape[0])
    _assert_close(*_both_routes(monkeypatch, lambda: channel_estimation._cholesky_form(a, cs[0], power)))
    _assert_close(*_both_routes(
        monkeypatch, lambda: estimate_channel_exact(cov.matrix, cs[0], power=power, ridge=scn.ridge)
    ))


@needs_lapack
@pytest.mark.parametrize("estimator", ["svd", "sg"])
def test_lapack_route_sends_no_triangular_system_to_an_lu(monkeypatch, estimator):
    """With LAPACKE found, no sg receiver, sg tracker step or Cholesky refresh
    runs ``np.linalg.solve`` on a triangular system."""

    def lu(*args):
        raise AssertionError("a triangular system went to an LU")

    real_form = channel_estimation._cholesky_form
    forms = []

    def form_without_lu(*args):
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "solve", lu)
            forms.append(real_form(*args))
        return forms[-1]

    monkeypatch.setattr(_blas, "_lu_solve", lu)
    monkeypatch.setattr(channel_estimation, "_cholesky_form", form_without_lu)
    scn, _, _ = _packet("load_surge.cfg", 400)
    result = harness.run_trial(scn.replace(channel_estimator=estimator, extra_users=0), 5)
    assert sorted(result.bit_errors) == ["ccm-sg", "cmv-sg", "trained-lms"]
    assert len(forms) > 0 if estimator == "svd" else not forms


def _run_probe(tmp_path, source, *args):
    """The JSON that ``source``, run as a script with no thread variable
    set, prints."""
    script = tmp_path / "probe.py"
    script.write_text(source, encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k not in _blas._THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, str(script), *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


_POOL_PROBE = r"""
import ctypes, json, multiprocessing, os, sys
from concurrent.futures import ProcessPoolExecutor

from stcdma import _blas


def counts(_):
    # This worker's OS threads and BLAS thread count.
    for lib in _blas._blas_libraries():
        for _, name in _blas._THREAD_CONTROLS:
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.restype = ctypes.c_int
                return len(os.listdir("/proc/self/task")), getter()
    return len(os.listdir("/proc/self/task")), None


if __name__ == "__main__":
    _blas.use_one_thread()
    context = multiprocessing.get_context(sys.argv[1])
    with ProcessPoolExecutor(2, mp_context=context, initializer=_blas.use_one_thread) as pool:
        print(json.dumps(list(pool.map(counts, range(4)))))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_pool_initializer_leaves_each_worker_on_one_blas_thread(tmp_path, method):
    """`use_one_thread`, `sweep`'s pool initializer, sets a spawned worker to
    one thread, and leaves a worker forked from a one-thread process alone:
    setting it again would restart OpenBLAS's thread pool there, one more OS
    thread that spins."""
    workers = _run_probe(tmp_path, _POOL_PROBE, method)
    if workers[0][1] is None:
        pytest.skip("no BLAS thread getter in the loaded libraries")
    assert {blas for _, blas in workers} == {1}
    if method == "fork":
        assert {threads for threads, _ in workers} == {1}


_LIBRARIES_PROBE = r"""
import ctypes, json

import scipy.linalg  # noqa: F401  (maps scipy's own OpenBLAS next to numpy's)

from stcdma import _blas

_blas.use_one_thread()
counts = {}
for lib in _blas._blas_libraries():
    for _, name in _blas._THREAD_CONTROLS:
        if hasattr(lib, name):
            getter = getattr(lib, name)
            getter.restype = ctypes.c_int
            counts[lib._name] = getter()
            break
print(json.dumps(counts))
"""


def test_every_mapped_blas_is_set_to_one_thread(tmp_path):
    """With scipy's OpenBLAS mapped beside numpy's, `use_one_thread` sets
    each library, not only the first it finds."""
    counts = _run_probe(tmp_path, _LIBRARIES_PROBE)
    if not counts:
        pytest.skip("no BLAS thread getter in the loaded libraries")
    assert set(counts.values()) == {1}, counts
