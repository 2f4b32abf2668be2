"""Fast built-in consistency checks, runnable from the command line.

Each check compares an implementation path against an independent reference:
closed-form constrained filters against a KKT system solve, the stochastic
gradient against finite differences, the inverse-power subspace distance
against its closed form, and the structured block model against a literal
chip-level simulator.  Everything is seeded and finishes in a few seconds.
"""

from __future__ import annotations

import numpy as np

from .oracles import (
    central_difference,
    constraint_projector,
    kkt_constrained_minimizer,
    noise_subspace_projector,
    reference_received_blocks,
    scaled_inverse_power,
)
from .receivers import constrained_quadratic_filter, constraint_restorer
from .signal_model import SymbolStream, random_multipath_channel, random_qpsk, simulate_packet
from .spreading import random_spreading_set

__all__ = ["run_selftest", "SELFTEST_CHECKS"]


def _random_pd(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a @ a.conj().T + dim * np.eye(dim)


def _check_kkt(rng):
    worst = 0.0
    for _ in range(20):
        r = _random_pd(rng, 8)
        c = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
        d = rng.normal(size=8) + 1j * rng.normal(size=8)
        g = rng.normal(size=4) + 1j * rng.normal(size=4)
        w1 = constrained_quadratic_filter(r, d, c, g)
        w2 = kkt_constrained_minimizer(r, d, c, g)
        worst = max(worst, float(np.linalg.norm(w1 - w2)))
    return worst < 1e-8, f"max filter difference {worst:.3e}"


def _check_projectors(rng):
    c = rng.normal(size=(12, 5)) + 1j * rng.normal(size=(12, 5))
    pi = constraint_projector(c)
    restore = constraint_restorer(c)
    worst = max(
        float(np.linalg.norm(pi @ c)),
        float(np.linalg.norm(pi @ pi - pi)),
        float(np.linalg.norm(c.conj().T @ restore - np.eye(5))),
    )
    return worst < 1e-10, f"max algebra residual {worst:.3e}"


def _check_gradient(rng):
    dim = 10
    ys = rng.normal(size=(dim, 200)) + 1j * rng.normal(size=(dim, 200))
    w = rng.normal(size=dim) + 1j * rng.normal(size=dim)

    def cost(v):
        z = v.conj() @ ys
        return float(np.mean((np.abs(z) ** 2 - 1.0) ** 2))

    z = w.conj() @ ys
    grad = np.mean(4.0 * (np.abs(z) ** 2 - 1.0) * np.conj(z) * ys, axis=1)
    u = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    u /= np.linalg.norm(u)
    numeric = central_difference(cost, w, u, 1e-6)
    analytic = float(np.real(np.vdot(grad, u)))
    rel = abs(numeric - analytic) / max(abs(analytic), 1e-12)
    return rel < 1e-5, f"relative gradient error {rel:.3e}"


def _check_inverse_power(rng):
    dim, sdim, sigma2 = 12, 3, 0.5
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    lam = np.array([9.0, 4.0, 1.0]) * sigma2
    r = q[:, :sdim] @ np.diag(lam) @ q[:, :sdim].conj().T + sigma2 * np.eye(dim)
    pn = noise_subspace_projector(r, sdim)
    worst = 0.0
    for p in (1, 2):
        approx = scaled_inverse_power(r, sigma2, p)
        dist = float(np.linalg.norm(approx - pn, ord=2))
        expected = float(np.max((1.0 + lam / sigma2) ** (-p)))
        worst = max(worst, abs(dist - expected))
    return worst < 1e-10, f"max deviation from closed form {worst:.3e}"


def _check_block_model(rng):
    diff = 0.0
    for tx in (2, 1):
        spreading = random_spreading_set(3, 8, "zero-padded", tx, seed=5)
        channel = random_multipath_channel(tx, 3, 4, 0.0, rng, fading="off")
        streams = [
            SymbolStream(symbols=random_qpsk(8, rng), amplitude=1.0 + 0.3 * k)
            for k in range(3)
        ]
        fast = simulate_packet(streams, spreading, channel, 0.0, rng, include_isi=True)
        slow = reference_received_blocks(streams, spreading, channel)
        diff = max(diff, float(np.max(np.abs(fast - slow))))
    return diff < 1e-12, f"max model mismatch {diff:.3e}, one and two transmit antennas"


SELFTEST_CHECKS = (
    ("closed-form filter vs KKT solve", _check_kkt),
    ("constraint projector algebra", _check_projectors),
    ("constant-modulus gradient vs finite differences", _check_gradient),
    ("inverse-power subspace distance", _check_inverse_power),
    ("structured block model vs chip-level reference", _check_block_model),
)


def run_selftest(seed: int = 2024, stream=None) -> bool:
    """Run every check, print one line per check, return overall success."""
    ok_all = True
    for name, fn in SELFTEST_CHECKS:
        rng = np.random.default_rng(seed)
        ok, detail = fn(rng)
        ok_all &= ok
        verdict = "PASS" if ok else "FAIL"
        line = f"selftest: {name}: {verdict} ({detail})"
        print(line, file=stream)
    return ok_all
