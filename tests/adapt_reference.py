"""Per-step reference for the receivers: one Python step per observation.

This is the receiver loop as it stood before the harness evaluated the steps
a chunk at a time: the stochastic-gradient and LMS step formulas, the
moments of the exact receivers folded one observation at a time, the filter
bound, and the loop that runs them one observation column at a time.  Tests compare
the chunked production path against it; nothing in ``src/`` calls it.
"""

from dataclasses import dataclass, field

import numpy as np

from stcdma.receivers import (
    branch_channels,
    constrained_quadratic_filter,
    constraint_offsets,
    constraint_restorer,
)
from stcdma.oracles import constraint_projector

FILTER_LIMIT = 1e6


def bounded(w: np.ndarray) -> bool:
    """True while the filter's norm is below the limit; a NaN or inf norm
    fails the comparison by itself."""
    return np.vdot(w, w).real < FILTER_LIMIT**2


class SequentialCovariance:
    """Exponentially weighted sample covariance S / weight, with
    S = sum lambda^(age) y y^H, folded one observation at a time."""

    def __init__(self, dim: int, forgetting: float):
        self.forgetting = forgetting
        self.s = np.zeros((dim, dim), dtype=complex)
        self.weight = 0.0

    def update(self, y: np.ndarray) -> None:
        self.s = self.forgetting * self.s + np.outer(y, y.conj())
        self.weight = self.forgetting * self.weight + 1.0

    @property
    def matrix(self) -> np.ndarray:
        return self.s / self.weight


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


def _step_gain(y, mu, normalize):
    return mu / (np.vdot(y, y).real + 1e-12) if normalize else mu


def ccm_sg_step(ws, projectors, y, offsets, mu=1e-3, normalize=False, outputs=None) -> list:
    """w_b <- P_b (w_b - g (|z_b|^2 - 1) conj(z_b) y) + offset_b for every branch."""
    zs = [np.vdot(w, y) for w in ws] if outputs is None else outputs
    g = _step_gain(y, mu, normalize)
    return [
        p @ (w - g * (abs(z) ** 2 - 1.0) * np.conj(z) * y) + o
        for w, p, o, z in zip(ws, projectors, offsets, zs)
    ]


def cmv_sg_step(ws, projectors, y, offsets, mu=1e-3, normalize=False, outputs=None) -> list:
    """w_b <- P_b (w_b - g conj(z_b) y) + offset_b for every branch."""
    zs = [np.vdot(w, y) for w in ws] if outputs is None else outputs
    g = _step_gain(y, mu, normalize)
    return [p @ (w - g * np.conj(z) * y) + o for w, p, o, z in zip(ws, projectors, offsets, zs)]


def trained_lms_step(ws, y, symbols, mu, outputs=None) -> list:
    """w_b <- w_b + mu conj(s_b - z_b) y for every branch."""
    zs = [np.vdot(w, y) for w in ws] if outputs is None else outputs
    return [w + mu * np.conj(s - z) * y for w, s, z in zip(ws, symbols, zs)]


def _exact_filters(moments, cs, h, scn):
    return [
        constrained_quadratic_filter(r, d, c, scn.nu * hb, scn.ridge)
        for (r, d), c, hb in zip(moments, cs, branch_channels(h))
    ]


@dataclass
class Run:
    outputs: np.ndarray   # (steps, rx, branches)
    diverged: bool
    failed: tuple | None  # the first diverging (step, receive antenna)
    filters: np.ndarray   # (rx, branches, dim) at the end
    history: np.ndarray   # (steps, rx, branches, dim), the filters each step used


def reference_adapt(alg, scn, ys, ests, truth, cs) -> Run:
    """`harness._adapt` for the one algorithm ``alg``, one step at a time,
    with the same arguments."""
    nrx = len(ys)
    nsteps = ys[0].shape[1]
    nb = len(cs)
    per_block = nsteps // scn.blocks
    symbols = truth.reshape(nsteps, nb)
    dim = cs[0].shape[0]
    sg = alg in ("ccm-sg", "cmv-sg")
    if sg:
        projectors = [constraint_projector(c) for c in cs]
        sg_step = ccm_sg_step if alg == "ccm-sg" else cmv_sg_step
        mu = scn.step_ccm if alg == "ccm-sg" else scn.step_cmv
    if alg == "trained-lms":
        ws = [[np.zeros(dim, complex)] * nb for _ in range(nrx)]
    else:
        restorers = [constraint_restorer(c) for c in cs]
        ws = [list(constraint_offsets(restorers, est[:, 0], scn.nu)) for est in ests]
    if alg == "ccm-exact":
        stats = [CcmStatistics(dim, nb, scn.cov_forgetting) for _ in range(nrx)]
    elif alg == "cmv-exact":
        stats = [SequentialCovariance(dim, scn.cov_forgetting) for _ in range(nrx)]
        zero = np.zeros(dim, complex)
    refresh = per_block * scn.filter_refresh
    outputs = np.empty((nsteps, nrx, nb), dtype=complex)
    history = np.empty((nsteps, nrx, nb, dim), dtype=complex)
    failed = None
    # A poisoned observation makes inf and NaN on purpose; the bound
    # check catches them.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(nsteps):
            block = t // per_block
            for m in range(nrx):
                y = ys[m][:, t]
                history[t, m] = ws[m]
                zs = [np.vdot(wb, y) for wb in ws[m]]
                outputs[t, m] = zs
                if failed:
                    continue
                try:
                    if sg:
                        off = constraint_offsets(restorers, ests[m][:, block], scn.nu)
                        w = sg_step(ws[m], projectors, y, off, mu, scn.normalize_steps, zs)
                    elif alg == "trained-lms":
                        w = trained_lms_step(ws[m], y, symbols[t], scn.step_lms, zs)
                    elif alg == "ccm-exact":
                        stats[m].update(y, zs)
                        w = ws[m]
                        if (t + 1) % refresh == 0:
                            moments = zip(stats[m].r, stats[m].d)
                            w = _exact_filters(moments, cs, ests[m][:, block], scn)
                    else:
                        stats[m].update(y)
                        w = ws[m]
                        if (t + 1) % refresh == 0:
                            moments = [(stats[m].matrix, zero)] * nb
                            w = _exact_filters(moments, cs, ests[m][:, block], scn)
                    if not all(map(bounded, w)):
                        raise ArithmeticError("filter norm out of bounds")
                except (np.linalg.LinAlgError, ArithmeticError):
                    failed = (t, m)
                else:
                    ws[m] = w
    return Run(outputs, failed is not None, failed, np.array(ws), history)
