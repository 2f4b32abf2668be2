"""Linearly constrained multiuser receivers for the two-slot block model.

Every receiver is a pair of length-2M filters (w, wbar): w recovers a block's
first symbol and is held on the affine set C^H w = nu * H, wbar recovers the
second symbol on Cbar^H wbar = nu * conj(H), where (C, Cbar) are the desired
user's code-structure matrices and H is the (estimated) stacked channel.

Exact filters minimize a quadratic surrogate subject to those constraints:

  * constant-modulus variant:  w = R^-1 [d - C (C^H R^-1 C)^-1 (C^H R^-1 d - nu H)]
    with the modulus-weighted moments R = E[|z|^2 y y^H], d = E[conj(z) y];
  * minimum-variance variant:  the same expression with d = 0 and R = E[y y^H].

Stochastic-gradient steps combine an oblique projection onto the constraint
null space with re-imposition of the constraint offset each iteration, so the
constraint holds exactly at every step regardless of the gradient noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConditioningError, SingularConstraintError
from .spreading import ConstraintMatrices

__all__ = [
    "FilterPair",
    "ProjectionPair",
    "projection_pair",
    "min_norm_feasible_pair",
    "constraint_offsets",
    "CcmStatistics",
    "ccm_exact_filter",
    "cmv_exact_filter",
    "ccm_sg_step",
    "cmv_sg_step",
    "trained_lms_step",
    "detect",
    "CombinerGains",
    "combine",
    "constraint_projector",
    "constraint_restorer",
    "constrained_quadratic_filter",
]

_COND_LIMIT = 1e12


def _gram_solve(c: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (C^H C) x = rhs, rejecting rank-deficient constraint sets."""
    gram = c.conj().T @ c
    if not np.all(np.isfinite(gram)):
        raise SingularConstraintError("constraint matrix contains non-finite entries")
    if np.linalg.cond(gram) > _COND_LIMIT:
        raise SingularConstraintError("constraint Gram matrix is rank deficient")
    return np.linalg.solve(gram, rhs)


def constraint_projector(c: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the null space of C^H."""
    return np.eye(c.shape[0]) - c @ _gram_solve(c, c.conj().T)


def constraint_restorer(c: np.ndarray) -> np.ndarray:
    """Matrix mapping a constraint target t to the minimum-norm w with C^H w = t."""
    return c @ _gram_solve(c, np.eye(c.shape[1], dtype=complex))


@dataclass
class ProjectionPair:
    """Cached constraint operators for both branches of a filter pair.

    ``projectors`` stacks (pi, pibar) so one product updates both branches.
    """

    projectors: np.ndarray
    restore: np.ndarray
    restorebar: np.ndarray


def projection_pair(cm: ConstraintMatrices) -> ProjectionPair:
    return ProjectionPair(
        projectors=np.stack((constraint_projector(cm.odd), constraint_projector(cm.even))),
        restore=constraint_restorer(cm.odd),
        restorebar=constraint_restorer(cm.even),
    )


def constraint_offsets(pp: ProjectionPair, h: np.ndarray, nu: float = 1.0) -> np.ndarray:
    """Minimum-norm points of both constraint sets, (restore nu h,
    restorebar nu conj(h)): (2, dim) for one stacked channel (2L,), or
    (2, dim, k) for k of them as columns (2L, k)."""
    return np.stack((pp.restore @ (nu * h), pp.restorebar @ (nu * np.conj(h))))


@dataclass
class FilterPair:
    """The two linear filters detecting a block's symbol pair."""

    w: np.ndarray
    wbar: np.ndarray

    def output(self, y: np.ndarray) -> tuple[complex, complex]:
        return np.vdot(self.w, y), np.vdot(self.wbar, y)


def min_norm_feasible_pair(pp: ProjectionPair, h_stacked: np.ndarray, nu: float = 1.0) -> FilterPair:
    """Smallest-norm filter pair satisfying both constraint sets."""
    return FilterPair(*constraint_offsets(pp, h_stacked, nu))


@dataclass
class CcmStatistics:
    """Exponentially weighted modulus moments for both branches.

    Tracks S = sum lambda^(age) |z|^2 y y^H and its weight so the normalized
    moment is available at any time without start-up bias.
    """

    dim: int
    forgetting: float = 0.998
    s: np.ndarray = field(init=False)
    sbar: np.ndarray = field(init=False)
    t: np.ndarray = field(init=False)
    tbar: np.ndarray = field(init=False)
    weight: float = field(init=False, default=0.0)

    def __post_init__(self):
        self.s = np.zeros((self.dim, self.dim), dtype=complex)
        self.sbar = np.zeros((self.dim, self.dim), dtype=complex)
        self.t = np.zeros(self.dim, dtype=complex)
        self.tbar = np.zeros(self.dim, dtype=complex)

    def update(self, y: np.ndarray, z: complex, zbar: complex) -> None:
        lam = self.forgetting
        outer = np.outer(y, y.conj())
        self.s = lam * self.s + (abs(z) ** 2) * outer
        self.sbar = lam * self.sbar + (abs(zbar) ** 2) * outer
        self.t = lam * self.t + np.conj(z) * y
        self.tbar = lam * self.tbar + np.conj(zbar) * y
        self.weight = lam * self.weight + 1.0

    @property
    def r(self) -> np.ndarray:
        return self.s / max(self.weight, 1.0)

    @property
    def rbar(self) -> np.ndarray:
        return self.sbar / max(self.weight, 1.0)

    @property
    def d(self) -> np.ndarray:
        return self.t / max(self.weight, 1.0)

    @property
    def dbar(self) -> np.ndarray:
        return self.tbar / max(self.weight, 1.0)


def constrained_quadratic_filter(
    r: np.ndarray,
    d: np.ndarray,
    c: np.ndarray,
    target: np.ndarray,
    ridge: float = 0.0,
) -> np.ndarray:
    """Minimizer of w^H R w - 2 Re(d^H w) subject to C^H w = target.

    `ridge` is added to R's diagonal before inversion so sample moments that
    are singular (for example noise-free data) stay solvable.
    """
    rr = r + ridge * np.eye(r.shape[0]) if ridge else r
    if not np.all(np.isfinite(rr)):
        raise ConditioningError("covariance contains non-finite entries")
    try:
        ri_d = np.linalg.solve(rr, d)
        ri_c = np.linalg.solve(rr, c.astype(complex))
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"covariance solve failed: {exc}") from exc
    gram = c.conj().T @ ri_c
    try:
        lam = np.linalg.solve(gram, c.conj().T @ ri_d - target)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"reduced Gram solve failed: {exc}") from exc
    return ri_d - ri_c @ lam


def ccm_exact_filter(
    stats: CcmStatistics,
    cm: ConstraintMatrices,
    h_stacked: np.ndarray,
    nu: float = 1.0,
    ridge: float = 0.0,
) -> FilterPair:
    """Closed-form constant-modulus filter pair from current moments."""
    w = constrained_quadratic_filter(stats.r, stats.d, cm.odd, nu * h_stacked, ridge)
    wbar = constrained_quadratic_filter(
        stats.rbar, stats.dbar, cm.even, nu * np.conj(h_stacked), ridge
    )
    return FilterPair(w=w, wbar=wbar)


def cmv_exact_filter(
    r: np.ndarray,
    cm: ConstraintMatrices,
    h_stacked: np.ndarray,
    nu: float = 1.0,
    ridge: float = 0.0,
) -> FilterPair:
    """Closed-form minimum-variance filter pair from the covariance."""
    zero = np.zeros(r.shape[0], dtype=complex)
    w = constrained_quadratic_filter(r, zero, cm.odd, nu * h_stacked, ridge)
    wbar = constrained_quadratic_filter(
        r, zero, cm.even, nu * np.conj(h_stacked), ridge
    )
    return FilterPair(w=w, wbar=wbar)


def _sg_pair(fp, pp, y, h_stacked, nu, mu, normalize, coefs, offsets):
    """(w, wbar) <- P ((w, wbar) - g coefs y) + offsets, both branches in one
    stacked product; g is mu, or mu / (||y||^2 + eps) under ``normalize``."""
    g = mu / (np.vdot(y, y).real + 1e-12) if normalize else mu
    if offsets is None:
        offsets = constraint_offsets(pp, h_stacked, nu)
    ws = np.array((fp.w, fp.wbar)) - g * (np.array(coefs)[:, None] * y)
    fp.w, fp.wbar = (pp.projectors @ ws[:, :, None])[:, :, 0] + offsets
    return fp


def ccm_sg_step(
    fp: FilterPair,
    pp: ProjectionPair,
    y: np.ndarray,
    h_stacked: np.ndarray,
    nu: float = 1.0,
    mu: float = 1e-3,
    normalize: bool = False,
    outputs: tuple[complex, complex] | None = None,
    offsets: np.ndarray | None = None,
) -> FilterPair:
    """One constant-modulus stochastic-gradient update of both branches.

    The sample gradient factor is e conj(z) y with e = |z|^2 - 1 (one quarter
    of the full modulus-cost gradient; the step size absorbs the rest).  With
    ``normalize`` the step is divided by ||y||^2 + eps.  ``outputs`` is the
    pair's (z, zbar) on y and ``offsets`` is
    ``constraint_offsets(pp, h_stacked, nu)``, when the caller has them.
    """
    z, zbar = fp.output(y) if outputs is None else outputs
    coefs = ((abs(z) ** 2 - 1.0) * np.conj(z), (abs(zbar) ** 2 - 1.0) * np.conj(zbar))
    return _sg_pair(fp, pp, y, h_stacked, nu, mu, normalize, coefs, offsets)


def cmv_sg_step(
    fp: FilterPair,
    pp: ProjectionPair,
    y: np.ndarray,
    h_stacked: np.ndarray,
    nu: float = 1.0,
    mu: float = 1e-3,
    normalize: bool = False,
    outputs: tuple[complex, complex] | None = None,
    offsets: np.ndarray | None = None,
) -> FilterPair:
    """One output-power stochastic-gradient update of both branches;
    ``outputs`` and ``offsets`` are as for :func:`ccm_sg_step`."""
    z, zbar = fp.output(y) if outputs is None else outputs
    coefs = (np.conj(z), np.conj(zbar))
    return _sg_pair(fp, pp, y, h_stacked, nu, mu, normalize, coefs, offsets)


def trained_lms_step(
    w: np.ndarray, y: np.ndarray, symbol: complex, mu: float
) -> np.ndarray:
    """Standard least-mean-square update towards a known training symbol."""
    err = symbol - np.vdot(w, y)
    return w + mu * np.conj(err) * y


def detect(z) -> np.ndarray:
    """Per-component QPSK slicer; boundary values resolve to +1."""
    z = np.asarray(z, dtype=complex)
    re = np.where(z.real >= 0.0, 1.0, -1.0)
    im = np.where(z.imag >= 0.0, 1.0, -1.0)
    return re + 1j * im


@dataclass(frozen=True)
class CombinerGains:
    """Real combining weights, one per receive antenna."""

    gains: np.ndarray

    @staticmethod
    def equal(antennas: int) -> "CombinerGains":
        return CombinerGains(gains=np.full(antennas, 1.0 / antennas))

    @staticmethod
    def proportional(energies) -> "CombinerGains":
        e = np.asarray(energies, dtype=float)
        total = e.sum()
        if total <= 0.0:
            return CombinerGains.equal(len(e))
        return CombinerGains(gains=e / total)


def combine(outputs: np.ndarray, gains: CombinerGains) -> np.ndarray:
    """Weighted sum of per-antenna filter outputs.

    `outputs` has shape (antennas,) or (antennas, k); gains must sum to 1.
    """
    outputs = np.asarray(outputs, dtype=complex)
    g = gains.gains
    if outputs.shape[0] != g.shape[0]:
        raise ValueError("one gain per antenna required")
    return np.tensordot(g, outputs, axes=(0, 0))
