"""Blind estimation of the stacked space-time channel from second-order statistics.

The desired user's signature C H lies in the signal subspace of the
observation covariance R, so the noise eigenvectors V_n satisfy
V_n^H C H = 0 and H is the minimum eigenvector of C^H V_n V_n^H C.  Explicit
eigendecomposition of R can be avoided: (R / sigma^2)^-p converges to the
noise-subspace projector V_n V_n^H as p grows (signal directions are damped by
(1 + lambda_s / sigma^2)^-p; `oracles.scaled_inverse_power` forms it for the
checks), and the scale-invariant argmin works with R^-p directly.  The exact
estimator here takes the minimum eigenvector of C^H R^-p C; the
stochastic-gradient tracker `sg_track` follows the same quantity with a
power-method-style recursion that never decomposes anything.

The harness refreshes the exact estimate once per block, from a covariance
folded a refresh window at a time with `CovarianceEstimate.update`, on
both antenna counts.  Where the covariance is well enough conditioned, a
refresh solves by its Cholesky factor, with `_blas.lower_solve`.  The
stochastic steps are defined once per observation, so `PsiEstimate`'s
``alpha`` and ``mu`` are per-observation rates: per symbol with one transmit
antenna, per block with two.  `sg_track` computes them a chunk at a time on
the receivers' block LMS kernel, `receivers.sg_chunk` and
`receivers.filter_norms2`, one triangular solve per chunk, while its
divergence check, the receivers' own `receivers.first_divergence`, and the
rules that skip a degenerate channel step still act per observation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _blas, receivers
from .errors import ConditioningError

__all__ = [
    "CovarianceEstimate",
    "estimate_channel_exact",
    "PsiEstimate",
    "sg_track",
    "canonical_phase",
    "align_phase",
]

_COND_CAP = 1e12


@dataclass
class CovarianceEstimate:
    """Exponentially weighted sample covariance.

    With ``forgetting == 1`` this is the plain sample mean of y y^H; smaller
    values track slow variation.  The normalization weight is carried
    separately so early estimates are unbiased.
    """

    dim: int
    forgetting: float = 1.0
    s: np.ndarray = field(init=False)
    weight: float = field(init=False, default=0.0)

    def __post_init__(self):
        if not 0.0 < self.forgetting <= 1.0:
            raise ValueError("forgetting factor must lie in (0, 1]")
        self.s = np.zeros((self.dim, self.dim), dtype=complex)

    def update(self, ys: np.ndarray) -> None:
        """Fold in the columns of `ys` ((dim, count)) oldest first."""
        count = ys.shape[1]
        ages = self.forgetting ** np.arange(count - 1, -1, -1, dtype=float)
        weighted = ys * np.sqrt(ages)[None, :]
        self.s = self.forgetting**count * self.s + weighted @ weighted.conj().T
        self.weight = self.forgetting**count * self.weight + ages.sum()

    @property
    def matrix(self) -> np.ndarray:
        if self.weight == 0.0:
            return self.s.copy()
        return self.s / self.weight


def canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rotate so the largest-magnitude entry is positive real."""
    v = np.asarray(v, dtype=complex)
    k = int(np.argmax(np.abs(v)))
    if v[k] == 0:
        return v.copy()
    return v * np.exp(-1j * np.angle(v[k]))


def align_phase(est: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Rotate `est` so its inner product with `ref` is real non-negative.

    A (dim, T) pair is aligned column by column in one call.  A zero inner
    product has angle 0 and leaves its vector as it is.
    """
    est = np.asarray(est, dtype=complex)
    return est * np.exp(1j * np.angle(np.sum(est.conj() * ref, axis=0)))


def _cholesky_form(a: np.ndarray, c: np.ndarray, power: int) -> np.ndarray:
    """C^H A^-power C as Z^H Z, from the Cholesky factor A = L L^H: Z is
    A^-(power // 2) C, solved by L once more for an odd power, each solve
    by L or L^H a `_blas.lower_solve`.  Raises ``LinAlgError`` when A is not
    positive definite."""
    low = np.linalg.cholesky(a)
    zt = c.T  # Z's columns as rows
    for _ in range(power // 2):
        zt = _blas.lower_solve(low, _blas.lower_solve(low, zt), adjoint=True)
    if power % 2:
        zt = _blas.lower_solve(low, zt)
    return np.conj(zt) @ zt.T


def _eigh_form(a: np.ndarray, c: np.ndarray, power: int) -> np.ndarray:
    """C^H A^-power C from the eigendecomposition of A, its spectrum floored
    so the condition number never exceeds the cap."""
    vals, vecs = np.linalg.eigh(a)
    floor = vals.max() / _COND_CAP
    vals = np.maximum(vals, floor)
    inv_p = (vecs * vals ** (-float(power))) @ vecs.conj().T
    return c.conj().T @ inv_p @ c


def estimate_channel_exact(
    r: np.ndarray,
    c: np.ndarray,
    power: int = 1,
    ridge: float = 1e-6,
) -> np.ndarray:
    """Minimum eigenvector of C^H R^-power C, unit norm, canonical phase.

    R is regularized with `ridge` on the diagonal and its spectrum is floored
    so the condition number never exceeds 1e12; ties at the bottom of the
    spectrum resolve to the first eigenvector the decomposition returns.

    The floor cannot act when ``ridge > 0`` and ``ridge * (1e12 - 1) >=
    trace(R)``: for a covariance R the loaded spectrum then lies in [ridge,
    trace(R) + ridge], a condition number of at most 1e12.  There C^H (R +
    ridge I)^-power C comes from a Cholesky factor and solves by it, several
    times cheaper; otherwise, or if the factorization fails, from the floored
    eigendecomposition.  Ridge 0 always takes the eigendecomposition.
    """
    if power < 1:
        raise ValueError("power must be a positive integer")
    r = np.asarray(r, dtype=complex)
    if not np.all(np.isfinite(r)):
        raise ConditioningError("covariance contains non-finite entries")
    a = (r + r.conj().T) / 2.0 + ridge * np.eye(r.shape[0])
    quad = None
    if ridge > 0 and ridge * (_COND_CAP - 1) >= np.trace(r).real:
        try:
            quad = _cholesky_form(a, c, power)
        except np.linalg.LinAlgError:
            pass
    if quad is None:
        quad = _eigh_form(a, c, power)
    quad = (quad + quad.conj().T) / 2.0
    qvals, qvecs = np.linalg.eigh(quad)
    vec = qvecs[:, int(np.argmin(qvals))]
    vec = vec / np.linalg.norm(vec)
    return canonical_phase(vec)


@dataclass
class PsiEstimate:
    """State of the decomposition-free subspace recursion.

    psi follows alpha * psi + mu * (psi - y y^H psi), started at the
    constraint matrix itself; its column space shadows that of R^-1 C, which
    is all the channel recursion needs.
    """

    psi: np.ndarray
    alpha: float = 0.998
    mu: float = 1e-3

    @staticmethod
    def from_constraints(c: np.ndarray, alpha: float = 0.998, mu: float = 1e-3) -> "PsiEstimate":
        return PsiEstimate(psi=np.asarray(c, dtype=complex).copy(), alpha=alpha, mu=mu)


def sg_track(
    psi: PsiEstimate, c: np.ndarray, ys: np.ndarray, start: np.ndarray
) -> tuple[np.ndarray, bool]:
    """Track the channel over the observation columns of `ys` ((rows, n)).

    Each observation y runs the subspace recursion psi <- a psi - mu y w, with
    a = alpha + mu and w = y^H psi, then one power-method-style step
    h <- normalize(h - Omega h / trace(Omega)) on Omega = C^H psi; for a fixed
    positive-definite Omega that iteration converges to Omega's minimum
    eigenvector.  Returns the (dim, n) estimates, one column per observation
    and starting from `start`, and whether the recursion diverged.  `psi`
    ends at the state after the last observation, or at the start of the
    chunk in which a step diverged.

    The recursion runs `receivers._CHUNK` observations at a time on
    `receivers.sg_chunk` and `receivers.filter_norms2`.  Within a
    chunk, observation j reads psi_j and leaves psi_(j+1), and
    psi_j / a^j = psi_0 - (mu / a) sum_{s<j} y_s w_s / a^s is a ``"cmv"``
    filter recursion with P = I and gain mu / a, one lane per column of psi:
    one triangular solve gives every w_j / a^j, and every Omega_j, up to the
    positive scale a^j that the channel step does not see, is one
    cumulative sum of the outer products (C^H y_s) w_s / a^s.  Omega_0 =
    C^H psi_0 and ||psi_0|| are computed exactly at every chunk start, which
    caps the drift.  Two checks still act per observation:

    - step j diverges when ||psi_(j+1)|| is non-finite or 1e6 or more, the
      lanes' norms summed and scaled by a^(2(j+1)), by the receivers' rule,
      `receivers.first_divergence`; its column and every later one hold the
      last good estimate;
    - a zero trace of Omega itself, or a vanishing or non-finite iterate,
      skips that channel step with a warning and keeps the estimate.
    """
    a = psi.alpha + psi.mu
    ch = c.conj().T
    h = np.asarray(start, dtype=complex)
    n = ys.shape[1]
    out = np.empty((n, h.shape[0]), dtype=complex)
    eye = np.eye(h.shape[0])
    for lo in range(0, n, receivers._CHUNK):
        y = ys[:, lo : lo + receivers._CHUNK]
        k = y.shape[1]
        yh = y.conj().T
        # A non-finite observation, or any value past a diverged step, may
        # overflow; the norm test below stops there and never uses them.
        with np.errstate(over="ignore", invalid="ignore"):
            gram = (yh @ y)[None]
            w, coefs = receivers.sg_chunk("cmv", gram, (yh @ psi.psi).T, psi.mu / a)
            start2 = np.sum(psi.psi.real**2 + psi.psi.imag**2, axis=0)
            norms2 = receivers.filter_norms2(w, coefs, gram, 0.0, 0.0, start2).sum(axis=0, keepdims=True)
            good = receivers.first_divergence(a ** (2.0 * np.arange(1, k + 1)) * norms2)
        omegas = ch @ psi.psi - np.cumsum((ch @ y[:, :good]).T[:, :, None] * coefs.T[:good, None, :], axis=0)
        traces = np.trace(omegas, axis1=1, axis2=2)
        zero = np.abs(a ** np.arange(1.0, good + 1) * traces) < 1e-300
        steps = eye - omegas * (1.0 / np.where(zero, 1.0, traces))[:, None, None]
        for j, (step, skip) in enumerate(zip(steps, zero.tolist()), lo):
            if skip:
                warnings.warn("zero-trace channel step skipped", RuntimeWarning, stacklevel=2)
            else:
                g = step.dot(h)  # cheaper per call than @ on one vector
                norm = math.sqrt(np.vdot(g, g).real)
                if 0.0 < norm < math.inf:
                    h = g / norm
                else:
                    warnings.warn("degenerate channel step skipped", RuntimeWarning, stacklevel=2)
            out[j] = h
        if good < k:
            out[lo + good :] = h
            return out.T, True
        psi.psi = a**k * (psi.psi - y @ coefs.T)
    return out.T, False
