"""Blind estimation of the stacked space-time channel from second-order statistics.

The desired user's signature C H lies in the signal subspace of the
observation covariance R, so the noise eigenvectors V_n satisfy
V_n^H C H = 0 and H is the minimum eigenvector of C^H V_n V_n^H C.  Explicit
eigendecomposition of R can be avoided: (R / sigma^2)^-p converges to the
noise-subspace projector V_n V_n^H as p grows (signal directions are damped by
(1 + lambda_s / sigma^2)^-p), and the scale-invariant argmin works with R^-p
directly.  The exact estimator here takes the minimum eigenvector of
C^H R^-p C; the stochastic-gradient tracker follows the same quantity with a
power-method-style recursion that never decomposes anything.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConditioningError, StepSizeError

__all__ = [
    "CovarianceEstimate",
    "ChannelEstimate",
    "estimate_channel_exact",
    "scaled_inverse_power",
    "PsiEstimate",
    "sg_psi_step",
    "sg_channel_step",
    "canonical_phase",
    "align_phase",
]

_DIVERGENCE_LIMIT = 1e6
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

    def update(self, y: np.ndarray) -> None:
        self.s = self.forgetting * self.s + np.outer(y, y.conj())
        self.weight = self.forgetting * self.weight + 1.0

    def update_batch(self, ys: np.ndarray) -> None:
        """Fold in the columns of `ys` ((dim, count)) oldest first."""
        count = ys.shape[1]
        if self.forgetting == 1.0:
            self.s += ys @ ys.conj().T
            self.weight += count
            return
        ages = self.forgetting ** np.arange(count - 1, -1, -1, dtype=float)
        weighted = ys * np.sqrt(ages)[None, :]
        self.s = self.forgetting**count * self.s + weighted @ weighted.conj().T
        self.weight = self.forgetting**count * self.weight + ages.sum()

    @property
    def matrix(self) -> np.ndarray:
        if self.weight == 0.0:
            return self.s.copy()
        return self.s / self.weight


@dataclass(frozen=True)
class ChannelEstimate:
    """Unit-norm stacked channel estimate with canonical phase."""

    vector: np.ndarray
    method: str


def canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rotate so the largest-magnitude entry is positive real."""
    v = np.asarray(v, dtype=complex)
    k = int(np.argmax(np.abs(v)))
    if v[k] == 0:
        return v.copy()
    return v * np.exp(-1j * np.angle(v[k]))


def align_phase(est: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Rotate `est` so its inner product with `ref` is real non-negative."""
    ip = np.vdot(est, ref)
    if ip == 0:
        return np.asarray(est, dtype=complex).copy()
    return est * np.exp(1j * np.angle(ip))


def estimate_channel_exact(
    r: np.ndarray,
    c: np.ndarray,
    power: int = 1,
    ridge: float = 1e-6,
) -> ChannelEstimate:
    """Minimum eigenvector of C^H R^-power C, unit norm, canonical phase.

    R is regularized with `ridge` on the diagonal and its spectrum is floored
    so the condition number never exceeds 1e12; ties at the bottom of the
    spectrum resolve to the first eigenvector the decomposition returns.
    """
    if power < 1:
        raise ValueError("power must be a positive integer")
    r = np.asarray(r, dtype=complex)
    if not np.all(np.isfinite(r)):
        raise ConditioningError("covariance contains non-finite entries")
    vals, vecs = np.linalg.eigh((r + r.conj().T) / 2.0 + ridge * np.eye(r.shape[0]))
    floor = vals.max() / _COND_CAP
    vals = np.maximum(vals, floor)
    inv_p = (vecs * vals ** (-float(power))) @ vecs.conj().T
    quad = c.conj().T @ inv_p @ c
    quad = (quad + quad.conj().T) / 2.0
    qvals, qvecs = np.linalg.eigh(quad)
    vec = qvecs[:, int(np.argmin(qvals))]
    vec = vec / np.linalg.norm(vec)
    return ChannelEstimate(vector=canonical_phase(vec), method=f"subspace-p{power}")


def scaled_inverse_power(r: np.ndarray, noise_var: float, power: int) -> np.ndarray:
    """(R / noise_var)^-power, the decomposition-free stand-in for the
    noise-subspace projector; signal directions decay as
    (1 + lambda_s / noise_var)^-power."""
    if noise_var <= 0:
        raise ValueError("noise_var must be positive")
    if power < 1:
        raise ValueError("power must be a positive integer")
    scaled = np.asarray(r, dtype=complex) / noise_var
    try:
        inv = np.linalg.inv(scaled)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"covariance inversion failed: {exc}") from exc
    return np.linalg.matrix_power(inv, power)


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


def sg_psi_step(est: PsiEstimate, y: np.ndarray) -> PsiEstimate:
    """One stochastic update of the subspace recursion."""
    yh_psi = y.conj() @ est.psi
    est.psi = est.alpha * est.psi + est.mu * (est.psi - np.outer(y, yh_psi))
    norm = np.linalg.norm(est.psi)
    if not np.isfinite(norm) or norm > _DIVERGENCE_LIMIT:
        raise StepSizeError(
            f"subspace recursion diverged (norm {norm:.3g}); reduce the step size"
        )
    return est


def sg_channel_step(
    h_est: ChannelEstimate, psi: PsiEstimate, c: np.ndarray
) -> ChannelEstimate:
    """Power-method-style refinement of the channel estimate.

    Forms Omega = C^H psi and applies I - Omega / trace(Omega) followed by
    renormalization; for a fixed positive-definite Omega the iteration
    converges to Omega's minimum eigenvector.  Degenerate steps (zero trace or
    vanishing iterate) are skipped with a warning.
    """
    omega = c.conj().T @ psi.psi
    trace = np.trace(omega)
    if abs(trace) < 1e-300:
        warnings.warn("zero-trace channel step skipped", RuntimeWarning, stacklevel=2)
        return h_est
    h = h_est.vector - (omega @ h_est.vector) / trace
    norm = np.linalg.norm(h)
    if not np.isfinite(norm) or norm == 0.0:
        warnings.warn("degenerate channel step skipped", RuntimeWarning, stacklevel=2)
        return h_est
    return ChannelEstimate(vector=h / norm, method="subspace-sg")
