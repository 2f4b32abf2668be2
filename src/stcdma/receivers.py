"""Linearly constrained multiuser receivers, built from constrained branches.

A receiver is one length-dim filter per branch, and every branch b is held on
its own affine set C_b^H w_b = nu * H_b, where C_b is a constraint matrix of
the desired user and H_b the (estimated) stacked channel.  With two transmit
antennas the Alamouti code gives two branches per block: (C, nu H) recovers
the block's first symbol and (Cbar, nu conj(H)) its second.  With one
transmit antenna there is one branch per symbol, (conv, nu H), with conv the
code's convolution matrix.

Exact filters minimize a quadratic surrogate subject to a branch's constraints:

  * constant-modulus variant:  w = R^-1 [d - C (C^H R^-1 C)^-1 (C^H R^-1 d - nu H)]
    with the modulus-weighted moments R = E[|z|^2 y y^H], d = E[conj(z) y];
  * minimum-variance variant:  the same expression with d = 0 and R = E[y y^H].

Stochastic-gradient steps combine an oblique projection onto the constraint
null space with re-imposition of the constraint offset each iteration, so the
constraint holds exactly at every step regardless of the gradient noise.
The steps take and return a sequence of per-branch filters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConditioningError, SingularConstraintError

__all__ = [
    "branch_channels",
    "constraint_offsets",
    "CcmStatistics",
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


def branch_channels(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The channel H_b each branch's constraint holds: H_0 = H and, for the
    second Alamouti branch, H_1 = conj(H).  Zipped with a receiver's branches,
    a one-branch receiver takes H_0 only."""
    return h, np.conj(h)


def constraint_offsets(restorers, h: np.ndarray, nu: float = 1.0) -> np.ndarray:
    """Minimum-norm points of the branches' constraint sets, restorer_b
    (nu H_b): (branches, dim) for one stacked channel (2L,), or
    (branches, dim, k) for k of them as columns (2L, k)."""
    return np.stack([r @ (nu * hb) for r, hb in zip(restorers, branch_channels(h))])


@dataclass
class CcmStatistics:
    """Exponentially weighted modulus moments, one set per branch.

    Tracks S_b = sum lambda^(age) |z_b|^2 y y^H and T_b = sum lambda^(age)
    conj(z_b) y, stacked over branches, and their common weight so the
    normalized moments are available at any time without start-up bias.
    """

    dim: int
    branches: int
    forgetting: float = 0.998
    s: np.ndarray = field(init=False)
    t: np.ndarray = field(init=False)
    weight: float = field(init=False, default=0.0)

    def __post_init__(self):
        self.s = np.zeros((self.branches, self.dim, self.dim), dtype=complex)
        self.t = np.zeros((self.branches, self.dim), dtype=complex)

    def update(self, y: np.ndarray, zs) -> None:
        """Fold in one observation and the branches' outputs on it."""
        lam = self.forgetting
        zs = np.asarray(zs, dtype=complex)
        self.s = lam * self.s + (np.abs(zs) ** 2)[:, None, None] * np.outer(y, y.conj())
        self.t = lam * self.t + np.conj(zs)[:, None] * y
        self.weight = lam * self.weight + 1.0

    @property
    def r(self) -> np.ndarray:
        return self.s / max(self.weight, 1.0)

    @property
    def d(self) -> np.ndarray:
        return self.t / max(self.weight, 1.0)


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


def _step_gain(y: np.ndarray, mu: float, normalize: bool) -> float:
    """The sg step size: mu, or mu / (||y||^2 + eps) under ``normalize``."""
    return mu / (np.vdot(y, y).real + 1e-12) if normalize else mu


def ccm_sg_step(ws, projectors, y, offsets, mu=1e-3, normalize=False, outputs=None) -> list:
    """One constant-modulus stochastic-gradient update of every branch,
    w_b <- P_b (w_b - g e_b conj(z_b) y) + offset_b.

    ``ws``, ``projectors`` and ``offsets`` hold one entry per branch: its
    filter, its null-space projector and its constraint offset
    (:func:`constraint_offsets`).  The sample gradient factor is e conj(z) y
    with e = |z|^2 - 1 (one quarter of the full modulus-cost gradient; the
    step size absorbs the rest).  g is mu, or with ``normalize`` mu divided
    by ||y||^2 + eps.  ``outputs`` are the branches' outputs z on y, when the
    caller has them.  Returns the new filters; ``ws`` is left as it is.
    """
    zs = [np.vdot(w, y) for w in ws] if outputs is None else outputs
    g = _step_gain(y, mu, normalize)
    return [
        p @ (w - g * (abs(z) ** 2 - 1.0) * np.conj(z) * y) + o
        for w, p, o, z in zip(ws, projectors, offsets, zs)
    ]


def cmv_sg_step(ws, projectors, y, offsets, mu=1e-3, normalize=False, outputs=None) -> list:
    """One output-power stochastic-gradient update of every branch,
    w_b <- P_b (w_b - g conj(z_b) y) + offset_b; the arguments are as for
    :func:`ccm_sg_step`."""
    zs = [np.vdot(w, y) for w in ws] if outputs is None else outputs
    g = _step_gain(y, mu, normalize)
    return [p @ (w - g * np.conj(z) * y) + o for w, p, o, z in zip(ws, projectors, offsets, zs)]


def trained_lms_step(ws, y: np.ndarray, symbols, mu: float, outputs=None) -> list:
    """Least-mean-square update of every branch towards its known training
    symbol; ``outputs`` are as for :func:`ccm_sg_step`."""
    zs = [np.vdot(w, y) for w in ws] if outputs is None else outputs
    return [w + mu * np.conj(s - z) * y for w, s, z in zip(ws, symbols, zs)]


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
