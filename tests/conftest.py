"""Fixtures shared by the test modules."""

import pytest

from stcdma import _blas


@pytest.fixture(params=["lapack", "fallback"])
def route(request, monkeypatch):
    """Triangular systems solved by LAPACK's triangular solve, or by the
    ``np.linalg.solve`` fallback a numpy without LAPACKE takes, forced by
    a locator that finds nothing."""
    if request.param == "fallback":
        monkeypatch.setattr(_blas, "ztrtrs", lambda: None)
    elif _blas.ztrtrs() is None:
        pytest.skip("the loaded BLAS has no LAPACKE triangular solve")
    return request.param
