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
folded a refresh window at a time with `CovarianceEstimate.update_batch`, on
both antenna counts.  The stochastic steps are defined once per observation,
so `PsiEstimate`'s ``alpha`` and ``mu`` are per-observation rates: per symbol
with one transmit antenna, per block with two.  `sg_track` computes them 64
observations at a time: one triangular solve gives the chunk's psi
recursion and one cumulative sum every C^H psi, while the divergence check
and the rules that skip a degenerate channel step still act per observation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConditioningError

__all__ = [
    "CovarianceEstimate",
    "estimate_channel_exact",
    "PsiEstimate",
    "sg_track",
    "canonical_phase",
    "align_phase",
]

_DIVERGENCE_LIMIT = 1e6
_SG_CHUNK = 64
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

    def update_batch(self, ys: np.ndarray) -> None:
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
    A^-(power // 2) C, solved by L once more for an odd power.  Raises
    ``LinAlgError`` when A is not positive definite."""
    low = np.linalg.cholesky(a)
    z = c
    for _ in range(power // 2):
        z = np.linalg.solve(low.conj().T, np.linalg.solve(low, z))
    if power % 2:
        z = np.linalg.solve(low, z)
    return z.conj().T @ z


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

    The recursion runs `_SG_CHUNK` observations at a time.  Within a chunk,
    observation j reads the state psi_j and leaves psi_(j+1).  Scaling
    w_j = y_j^H psi_j by a^-j gives u_j = w_j / a^j, with

        u_j = y_j^H psi_0 - (mu / a) sum_{s<j} (y_j^H y_s) u_s,

    so one unit lower triangular solve over the chunk's Gram matrix gives
    every u.  It is solved reversed, as an upper triangular system, so
    partial pivoting never swaps a row: the solve is plain substitution in
    observation order, and rows after a diverged step cannot leak into
    earlier ones.  Then psi_(j+1) / a^(j+1) = psi_0 - (mu / a) sum_{s<=j}
    y_s u_s, so every Omega_j, up to that positive scale, which the channel
    step does not see, is one cumulative sum of the outer products
    (C^H y_s) u_s.  Omega_0 = C^H psi_0 and ||psi_0|| are computed exactly
    at every chunk start, which caps the drift.  Two checks still act per
    observation:

    - step j diverges when ||psi_(j+1)|| is non-finite or above 1e6, from
      ||psi_(j+1)||^2 = a^2 ||psi_j||^2 + (mu^2 ||y_j||^2 - 2 a mu) ||w_j||^2;
      its column and every later one hold the last good estimate;
    - a zero trace of Omega itself, or a vanishing or non-finite iterate,
      skips that channel step with a warning and keeps the estimate.
    """
    a = psi.alpha + psi.mu
    rate = psi.mu / a
    h = np.asarray(start, dtype=complex)
    n = ys.shape[1]
    out = np.empty((h.shape[0], n), dtype=complex)
    eye = np.eye(h.shape[0])
    for lo in range(0, n, _SG_CHUNK):
        y = ys[:, lo : lo + _SG_CHUNK]
        k = y.shape[1]
        gram = y.conj().T @ y
        # Past a diverged step the values may overflow; the norm test below
        # stops there, so those rows are never used.
        with np.errstate(over="ignore", invalid="ignore"):
            lower = np.eye(k) + rate * np.tril(gram, -1)
            u = np.linalg.solve(lower[::-1, ::-1], (y.conj().T @ psi.psi)[::-1])[::-1]
            growth = (rate**2 * gram.diagonal().real - 2.0 * rate) * np.sum(np.abs(u) ** 2, axis=1)
            norms2 = a ** (2.0 * np.arange(1, k + 1)) * (
                np.vdot(psi.psi, psi.psi).real + np.cumsum(growth)
            )
        failed = np.flatnonzero(~(norms2 <= _DIVERGENCE_LIMIT**2))
        good = failed[0] if failed.size else k
        omega0 = c.conj().T @ psi.psi
        omegas = omega0[None] - rate * np.cumsum(
            (c.conj().T @ y[:, :good]).T[:, :, None] * u[:good, None, :], axis=0
        )
        traces = np.trace(omegas, axis1=1, axis2=2)
        zero = np.abs(a ** np.arange(1.0, good + 1) * traces) < 1e-300
        steps = eye - omegas / np.where(zero, 1.0, traces)[:, None, None]
        for j in range(good):
            if zero[j]:
                warnings.warn("zero-trace channel step skipped", RuntimeWarning, stacklevel=2)
            else:
                g = steps[j] @ h
                norm = math.sqrt(np.vdot(g, g).real)
                if 0.0 < norm < math.inf:
                    h = g / norm
                else:
                    warnings.warn("degenerate channel step skipped", RuntimeWarning, stacklevel=2)
            out[:, lo + j] = h
        if good < k:
            out[:, lo + good :] = h[:, None]
            return out, True
        psi.psi = a**k * (psi.psi - rate * (y @ u))
    return out, False
