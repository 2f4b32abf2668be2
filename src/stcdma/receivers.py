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

Stochastic-gradient steps project each update onto the constraint null
space and re-impose the constraint offset, so the constraint holds exactly at
every step regardless of the gradient noise.  `sg_chunk` evaluates a chunk of
such steps at once, from the Gram matrix of the chunk's projected
observations, in the block form of Benesty and Duhamel's fast exact LMS
(IEEE Trans. Signal Process. 1992): the outputs are those of the steps taken
one at a time, up to rounding; `filter_norms2` gives every step's filter norm,
and `first_divergence` the first step at which a norm is non-finite or 1e6
or more.  The sg channel tracker, `channel_estimation.sg_track`, runs on all
three as well.  The linear rules' unit lower triangular systems go to
`_blas.lower_solve`, which substitutes in step order, so a non-finite
observation spoils only its own step and the later ones.  A matrix that
every branch, or every lane of the tracker, solves against is factored or
substituted once, with every lane as a right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

import numpy as np

from . import _blas
from .errors import ConditioningError, SingularConstraintError

__all__ = [
    "branch_channels",
    "constraint_offsets",
    "sg_chunk",
    "filter_norms2",
    "first_divergence",
    "detect",
    "CombinerGains",
    "constraint_restorer",
    "constrained_quadratic_filter",
]

_COND_LIMIT = 1e12
# A filter, or the sg tracker's psi, of this norm or more has diverged.
_NORM_LIMIT = 1e6
_SUBSTITUTION_BLOCK = 8
# Steps per `sg_chunk` call, in the sg receivers and the sg channel tracker alike.
_CHUNK = 64


def constraint_restorer(c: np.ndarray) -> np.ndarray:
    """C (C^H C)^-1, mapping a constraint target t to the minimum-norm w with
    C^H w = t; a rank-deficient or non-finite C raises ``SingularConstraintError``."""
    gram = c.conj().T @ c
    if not np.all(np.isfinite(gram)):
        raise SingularConstraintError("constraint matrix contains non-finite entries")
    if np.linalg.cond(gram) > _COND_LIMIT:
        raise SingularConstraintError("constraint Gram matrix is rank deficient")
    return c @ np.linalg.solve(gram, np.eye(c.shape[1], dtype=complex))


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


def _solve(a, b):
    """x with a x = b.  A per-lane ``a`` ((lanes, n, n)) solves each lane's
    right-hand sides ``b`` ((lanes, n, m)) by its own factorization.  A
    shared ``a`` ((n, n)) is factored once for every column of ``b``: (n, m),
    or (lanes, n, m) with the lanes' columns set side by side."""
    if a.ndim > 2 or b.ndim == 2:
        return np.linalg.solve(a, b)
    side = b.swapaxes(0, 1)  # (n, lanes, m)
    return np.linalg.solve(a, side.reshape(len(a), -1)).reshape(side.shape).swapaxes(0, 1)


def constrained_quadratic_filter(
    r: np.ndarray,
    d: np.ndarray,
    c: np.ndarray,
    target: np.ndarray,
    ridge: float = 0.0,
) -> np.ndarray:
    """Minimizer of w^H R w - 2 Re(d^H w) subject to C^H w = target.

    `ridge` is added to R's diagonal before inversion so sample moments that
    are singular (for example noise-free data) stay solvable.  Branches may
    stack on a leading axis of ``d`` (dim,), ``c`` (dim, ncon) and ``target``
    (ncon,).  Their R is then one per branch, (branches, dim, dim), or a
    shared (dim, dim), factored once with every branch's columns as
    right-hand sides.
    """
    rr = r + ridge * np.eye(r.shape[-1]) if ridge else r
    if not np.all(np.isfinite(rr)):
        raise ConditioningError("covariance contains non-finite entries")
    cols = np.concatenate([d[..., None], c], axis=-1)
    ch = np.swapaxes(c.conj(), -1, -2)
    try:
        ri_dc = _solve(rr, cols)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"covariance solve failed: {exc}") from exc
    ri_d, ri_c = ri_dc[..., :1], ri_dc[..., 1:]
    try:
        lam = np.linalg.solve(ch @ ri_c, ch @ ri_d - target[..., None])
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"reduced Gram solve failed: {exc}") from exc
    return (ri_d - ri_c @ lam)[..., 0]


def sg_chunk(rule: str, gram, rhs, gains, targets=0.0):
    """One chunk of stochastic-gradient steps on every branch, evaluated
    from the chunk's Gram matrices instead of step by step.

    A branch's filter at step t is w_t = o_(t-1) + v_t, with o_(t-1) the
    constraint offset of the previous step's block (of block 0 at step 0)
    and v_t its part in the constraint null space.  A step sets
    v_(t+1) = v_t - c_t P y_t, so within a chunk started at v_0 the
    conjugated output q_t = y_t^H w_t is

        q_t = rhs_t - sum_{s<t} gram[t, s] c_s,

    where ``rhs`` (branches, k) holds y_t^H (o_(t-1) + v_0) and ``gram``
    ((branches or 1, k, k)) holds y_t^H P y_s.  The rules, with step sizes
    ``gains`` g_t ((k,) or one for every step):

    - ``"cmv"``: c_t = g_t q_t, the output-power gradient;
    - ``"ccm"``: c_t = g_t (|q_t|^2 - 1) q_t, a quarter of the modulus-cost
      gradient (the step size absorbs the rest);
    - ``"lms"``: c_t = g_t (q_t - targets_t), towards the conjugated training
      symbols ``targets`` (branches, k), with P = I and no offset.

    The linear rules are one unit lower triangular solve for u = q - targets,
    with every branch as a right-hand side of a ``gram`` they share.
    ``"ccm"`` is a forward substitution of scalar steps, `_SUBSTITUTION_BLOCK`
    at a time.  Returns q and c, (branches, k) each.
    """
    if rule == "ccm":
        return _modulus_substitution(gram, rhs, gains)
    low = gram * gains  # only the strict lower triangle is read
    u = _blas.lower_solve(low[0] if len(low) == 1 else low, rhs - targets, unit=True)
    return u + targets, gains * u


def _modulus_substitution(gram, rhs, gains):
    """The ``"ccm"`` rule of `sg_chunk` as a forward substitution.

    Inside a block of `_SUBSTITUTION_BLOCK` steps each step is plain Python
    complex arithmetic against its row of the block's Gram matrix; between
    blocks one batched product takes the block's coefficients out of every
    later right-hand side.  |q|^2 is written out as re^2 + im^2, because
    ``abs`` and ``**`` raise ``OverflowError`` on a diverging q where
    products return inf.
    """
    nb, k = rhs.shape
    q = np.empty_like(rhs)
    c = np.zeros_like(rhs)
    r = rhs.copy()
    for lo in range(0, k, _SUBSTITUTION_BLOCK):
        hi = min(lo + _SUBSTITUTION_BLOCK, k)
        g = gains[lo:hi].tolist()
        for b in range(nb):
            qs, cs = [], []
            for row, rt, gt in zip(gram[b, lo:hi, lo:hi].tolist(), r[b, lo:hi].tolist(), g):
                qt = rt - sum(map(mul, row, cs))
                qs.append(qt)
                cs.append(gt * (qt.real * qt.real + qt.imag * qt.imag - 1.0) * qt)
            q[b, lo:hi] = qs
            c[b, lo:hi] = cs
        if hi < k:
            r[:, hi:] -= (gram[:, hi:, lo:hi] @ c[:, lo:hi, None])[..., 0]
    return q, c


def filter_norms2(q, c, gram, offset_terms, offset_norms2, start_norms2) -> np.ndarray:
    """||w_(t+1)||^2 after every step of an `sg_chunk`, (branches, k).

    o_t lies in the range of C and v in its null space, so
    ||w_(t+1)||^2 = ||o_t||^2 + ||v_(t+1)||^2, and from v_(t+1) = v_t - c_t P y_t

        ||v_(t+1)||^2 = ||v_t||^2 - 2 Re(c_t conj(q_t - a_t)) + |c_t|^2 y_t^H P y_t,

    with a_t = y_t^H o_(t-1) (``offset_terms``), ``offset_norms2`` the
    ||o_t||^2 and ``start_norms2`` the branches' ||v_0||^2.
    """
    diag = gram.diagonal(axis1=-2, axis2=-1).real
    growth = (c.real * c.real + c.imag * c.imag) * diag - 2.0 * (c * np.conj(q - offset_terms)).real
    return offset_norms2 + start_norms2[:, None] + np.cumsum(growth, axis=-1)


def first_divergence(norms2) -> int:
    """The first step at which any lane's squared norm, ``norms2`` ((lanes,
    k)), is non-finite or reaches the square of 1e6; k if none does."""
    ok = (np.isfinite(norms2) & (norms2 < _NORM_LIMIT**2)).all(axis=0)
    return len(ok) if ok.all() else int(np.argmin(ok))


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

