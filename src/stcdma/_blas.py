"""The BLAS that numpy loaded, reached through ``ctypes``: its thread count
and LAPACK's triangular solve.

numpy has no triangular solve, and ``np.linalg.solve`` runs a full LU on a
triangular system.  A numpy built on scipy-openblas ships LAPACKE with its
BLAS, so `ztrtrs` binds ``LAPACKE_ztrtrs_work`` from that same library, and
`lower_solve` calls it: plain substitution (Golub and Van Loan, *Matrix
Computations*, §3.1), with no second BLAS and no scipy import.  Both lookups
read the libraries this process has mapped, in `_blas_libraries`, and find
nothing where there is no ``/proc`` or no known symbol (an MKL or conda
numpy, for example); there `ztrtrs` returns None, and callers solve by
``np.linalg.solve`` instead.
"""

from __future__ import annotations

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
    """Set the loaded BLAS to one thread, unless a thread variable is set or
    it already runs on one.

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
                        return
                setter = getattr(lib, set_name)
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                return


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
    x_i = rhs_i with ``adjoint``; ``low`` is lower triangular (n, n), with
    a unit diagonal that is not read when ``unit``.  Returns x (m, n).  The
    caller checks first that `ztrtrs` found LAPACK's solve.

    Only the lower triangle is read, in step order: no x_i[j] reads a later
    entry of row i, so a non-finite entry spoils only its row's later
    entries.  Raises ``LinAlgError`` on an exactly zero diagonal entry.
    """
    # A C-order lower triangle is the column-major upper triangle L^T, and the
    # C-order rows of x are its column-major columns.  L x = b is then L^T's
    # transposed solve; L^H x = b is L^T conj(x) = conj(b), its plain solve.
    low = np.ascontiguousarray(low, dtype=complex)
    x = np.array(rhs, dtype=complex, order="C")
    if adjoint:
        np.conj(x, out=x)
    m, n = x.shape
    if low.shape != (n, n):
        raise ValueError(f"a ({n}, {n}) triangle is needed for rows of {n}, got {low.shape}")
    info = ztrtrs()(
        _COL_MAJOR, b"U", b"N" if adjoint else b"T", b"U" if unit else b"N",
        n, m, low.ctypes.data, max(n, 1), x.ctypes.data, max(n, 1),
    )
    if info:
        raise np.linalg.LinAlgError(f"triangular solve failed: LAPACK info {info}")
    return np.conj(x, out=x) if adjoint else x
