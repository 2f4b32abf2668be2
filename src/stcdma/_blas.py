"""The BLAS that numpy loaded, reached through ``ctypes``: its thread count
and the one triangular solve every caller uses, `lower_solve`.

numpy has no triangular solve, and ``np.linalg.solve`` runs a full LU on a
triangular system.  A numpy built on scipy-openblas ships LAPACKE with its
BLAS, so `ztrtrs` binds ``LAPACKE_ztrtrs_work`` from that same library, and
`lower_solve` calls it: plain substitution (Golub and Van Loan, *Matrix
Computations*, §3.1), with no second BLAS and no scipy import.  Both lookups
read the libraries this process has mapped, in `_blas_libraries`, and find
nothing where there is no ``/proc`` or no known symbol (an MKL or conda
numpy, for example).  There `ztrtrs` returns None and `lower_solve` solves
by ``np.linalg.solve`` instead, in `_lu_solve`, to the same contract.  This
module alone knows which route a process is on.
"""

from __future__ import annotations

import cmath
import ctypes
import functools
import os

import numpy as np

__all__ = ["use_one_thread", "ztrtrs", "lower_solve"]

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS")
# (setter, getter) of each known library's thread count.
_THREAD_CONTROLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("MKL_Set_Num_Threads", "MKL_Get_Max_Threads"),
)
# LAPACKE with 64-bit integers, as scipy-openblas64 names it.
_ZTRTRS = "scipy_LAPACKE_ztrtrs_work64_"
_COL_MAJOR = 102


def _blas_libraries() -> list:
    """The BLAS (or MKL) shared libraries mapped into this process, opened
    with ``ctypes``; empty where ``/proc`` cannot be read."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted(
                {line.split()[-1] for line in fh if ".so" in line and ("blas" in line.lower() or "mkl" in line)}
            )
    except OSError:
        return []
    libs = []
    for path in paths:
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:
            continue
    return libs


def use_one_thread() -> None:
    """Set every loaded BLAS to one thread, unless a thread variable is set;
    a library that already runs on one is left alone.

    A worker forked from a one-thread process is left alone: OpenBLAS shuts
    its thread pool down at fork, and setting the count again would start
    the pool anew, whose idle threads spin and take CPU from the trials.
    Where there is no ``/proc`` or no known setter, BLAS is left as it is.
    """
    if any(os.environ.get(var) for var in _THREAD_VARS):
        return
    for lib in _blas_libraries():
        for set_name, get_name in _THREAD_CONTROLS:
            if hasattr(lib, set_name):
                if hasattr(lib, get_name):
                    getter = getattr(lib, get_name)
                    getter.argtypes = []
                    getter.restype = ctypes.c_int
                    if getter() == 1:
                        break
                setter = getattr(lib, set_name)
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                break


@functools.cache
def ztrtrs():
    """LAPACKE's complex triangular solve from the loaded BLAS, or None."""
    for lib in _blas_libraries():
        if hasattr(lib, _ZTRTRS):
            fn = getattr(lib, _ZTRTRS)
            fn.argtypes = [ctypes.c_int] + [ctypes.c_char] * 3 + [ctypes.c_int64] * 2 + [
                ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
            ]
            fn.restype = ctypes.c_int64
            return fn
    return None


def lower_solve(low, rhs, unit=False, adjoint=False):
    """x with low x_i = rhs_i for every row i of ``rhs`` ((m, n)), or low^H
    x_i = rhs_i with ``adjoint``; ``low`` is lower triangular, one (n, n)
    shared by every row or one per row, (m, n, n), with a unit diagonal
    that is not read when ``unit``.  Returns x (m, n).

    Only the lower triangle is read, and x_i is found in step order, first
    entry first (last first with ``adjoint``), so a non-finite entry spoils
    only its row's later steps.  Raises ``LinAlgError`` on an exactly zero
    diagonal entry.
    """
    low, rhs = np.asarray(low, dtype=complex), np.asarray(rhs)
    m, n = rhs.shape
    if low.shape not in ((n, n), (m, n, n)):
        raise ValueError(f"one ({n}, {n}) triangle, or one per row, is needed for rows of {n}, got {low.shape}")
    if ztrtrs() is None:
        if adjoint:  # low^H x = b is the lower system (J low J)^H (J x) = J b, J the reversal
            return _lu_solve(np.conj(low[..., ::-1, ::-1]).swapaxes(-1, -2), rhs[:, ::-1], unit)[:, ::-1]
        return _lu_solve(low, rhs, unit)
    # A C-order lower triangle is the column-major upper triangle L^T, and the
    # C-order rows of x are its column-major columns.  L x = b is then L^T's
    # transposed solve; L^H x = b is L^T conj(x) = conj(b), its plain solve.
    low = np.ascontiguousarray(low)
    x = np.array(rhs, dtype=complex, order="C")
    if adjoint:
        np.conj(x, out=x)
    # One call for a shared triangle, one per row for a triangle per row.
    for tri, rows in [(low, x)] if low.ndim == 2 else zip(low, x[:, None]):
        info = ztrtrs()(
            _COL_MAJOR, b"U", b"N" if adjoint else b"T", b"U" if unit else b"N",
            n, len(rows), tri.ctypes.data, max(n, 1), rows.ctypes.data, max(n, 1),
        )
        if info:
            raise np.linalg.LinAlgError(f"triangular solve failed: LAPACK info {info}")
    return np.conj(x, out=x) if adjoint else x


def _lu_solve(low, rhs, unit):
    """`lower_solve` without ``adjoint``, by ``np.linalg.solve``, for a BLAS
    without LAPACKE.

    The system is reversed into an upper triangular one, so partial pivoting
    never swaps a row, and per-row triangles are solved in one batched call.
    A non-finite entry can still spread through the factorization to earlier
    entries, so when x is not all finite, a row whose step n is the first
    with a non-finite entry is solved again over its first n steps; x_n
    comes from those, and the entries after it are NaN.
    """
    tri = np.tril(low)
    if unit:
        np.einsum("...ii->...i", tri)[...] = 1.0
    if tri.ndim == 2:  # the rows' right-hand sides as columns side by side
        x = np.linalg.solve(tri[::-1, ::-1], rhs[:, ::-1].T)[::-1].T
    else:
        x = np.linalg.solve(tri[:, ::-1, ::-1], rhs[:, ::-1, None])[:, ::-1, 0]
    x = np.ascontiguousarray(x)  # rows in C order, as LAPACK's route returns them
    if cmath.isfinite(x.sum()):
        return x
    for i, r in enumerate(rhs):
        t = tri if tri.ndim == 2 else tri[i]
        bad = np.flatnonzero(~(np.isfinite(t).all(axis=-1) & np.isfinite(r)))
        if bad.size:
            k = bad[0]
            x[i, :k] = _lu_solve(t[:k, :k], r[None, :k], unit)[0]
            x[i, k] = (r[k] - t[k, :k] @ x[i, :k]) / t[k, k]
            x[i, k + 1 :] = np.nan
    return x
