"""Slow, independent reference implementations used for cross-checking.

Nothing here shares code with the production paths: the received-signal
reference walks the transmission chip by chip, the constrained minimizer is
solved through its stationarity system, eigenvector references use a full
eigendecomposition, the constraint projector comes from a singular value
decomposition, and the inverse-power stand-in for the noise-subspace
projector is an explicit matrix inverse.  These run in the test suite and in
the CLI selftest.
"""

from __future__ import annotations

import numpy as np

from .errors import ConditioningError
from .signal_model import SpaceTimeChannel, SymbolStream
from .spreading import SpreadingSet

__all__ = [
    "reference_received_blocks",
    "kkt_constrained_minimizer",
    "constraint_projector",
    "central_difference",
    "min_eigenvector",
    "noise_subspace_projector",
    "scaled_inverse_power",
]


def reference_received_blocks(
    streams: list[SymbolStream],
    spreading: SpreadingSet,
    channel: SpaceTimeChannel,
) -> np.ndarray:
    """Noise-free received observations computed chip by chip.

    Walks every (user, slot, antenna, chip, path) combination explicitly.
    With two transmit antennas, antenna one sends b1 then -conj(b2) over each
    block, antenna two sends b2 then conj(b1), all at the amplitude of the
    block's first symbol; with one, the antenna sends each symbol at its own
    amplitude in its own slot.  Each chip propagates through the channel taps
    of the block it was transmitted in.  The receiver cuts the M-chip window
    that starts with each slot's first chip.  With two antennas it stacks the
    first slot's window over the conjugated window of the second, one column
    per block, shape (2M, blocks); with one it returns the windows as they
    are, one column per symbol, shape (M, symbols).
    """
    n = spreading.gain
    lp = channel.n_paths
    m = n + lp - 1
    nsym = len(streams[0])
    nblocks = nsym // 2
    two_antennas = spreading.tx_antennas == 2
    received = np.zeros(nsym * n + lp - 1, dtype=complex)
    for k, stream in enumerate(streams):
        amps = stream.amplitude_per_symbol()
        for slot in range(nsym):
            block = slot // 2
            if two_antennas:
                b1 = stream.symbols[2 * block]
                b2 = stream.symbols[2 * block + 1]
                if slot % 2 == 0:
                    per_antenna = (b1, b2)
                else:
                    per_antenna = (-np.conj(b2), np.conj(b1))
                amp = amps[2 * block]
            else:
                per_antenna = (stream.symbols[slot],)
                amp = amps[slot]
            for ant, sent_symbol in enumerate(per_antenna):
                code = spreading.code(k, ant)
                for chip in range(n):
                    sent = amp * sent_symbol * code[chip]
                    for path in range(lp):
                        tap = channel.taps[ant, path, block]
                        received[slot * n + chip + path] += sent * tap
    windows = [received[slot * n : slot * n + m] for slot in range(nsym)]
    if not two_antennas:
        return np.array(windows).T
    blocks = np.empty((2 * m, nblocks), dtype=complex)
    for block in range(nblocks):
        blocks[:m, block] = windows[2 * block]
        blocks[m:, block] = np.conj(windows[2 * block + 1])
    return blocks


def kkt_constrained_minimizer(
    r: np.ndarray, d: np.ndarray, c: np.ndarray, target: np.ndarray
) -> np.ndarray:
    """Minimizer of w^H R w - 2 Re(d^H w) s.t. C^H w = target via the full
    stationarity system [[R, C], [C^H, 0]] [w; lam] = [d; target]."""
    dim, ncon = c.shape
    kkt = np.zeros((dim + ncon, dim + ncon), dtype=complex)
    kkt[:dim, :dim] = r
    kkt[:dim, dim:] = c
    kkt[dim:, :dim] = c.conj().T
    rhs = np.concatenate([d, target]).astype(complex)
    sol = np.linalg.solve(kkt, rhs)
    return sol[:dim]


def constraint_projector(c: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the null space of C^H, I - U U^H, with U
    the left singular vectors of C's nonzero singular values."""
    u, sv, _ = np.linalg.svd(c, full_matrices=False)
    u = u[:, sv > sv[0] * 1e-12]
    return np.eye(c.shape[0]) - u @ u.conj().T


def central_difference(f, x: np.ndarray, direction: np.ndarray, eps: float) -> float:
    """Symmetric difference quotient of a real scalar function along a
    (complex) direction."""
    return (f(x + eps * direction) - f(x - eps * direction)) / (2.0 * eps)


def min_eigenvector(a: np.ndarray) -> np.ndarray:
    """Unit eigenvector of the smallest eigenvalue of a Hermitian matrix."""
    vals, vecs = np.linalg.eigh((a + a.conj().T) / 2.0)
    v = vecs[:, int(np.argmin(vals))]
    return v / np.linalg.norm(v)


def noise_subspace_projector(r: np.ndarray, signal_dim: int) -> np.ndarray:
    """Projector onto the span of the smallest eigenvectors of R."""
    vals, vecs = np.linalg.eigh((r + r.conj().T) / 2.0)
    order = np.argsort(vals)
    vn = vecs[:, order[: r.shape[0] - signal_dim]]
    return vn @ vn.conj().T


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
