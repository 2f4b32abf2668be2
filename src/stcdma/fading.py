"""Flat Rayleigh fading generator (isotropic-scattering sum of sinusoids)."""

from __future__ import annotations

import numpy as np

__all__ = ["clarke_fading_sequence"]


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

    Returns an array of shape (num_taps, length).
    """
    if fd_t < 0:
        raise ValueError("fd_t must be non-negative")
    if num_taps < 1 or length < 1:
        raise ValueError("num_taps and length must be positive")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    t = np.arange(length)
    out = np.empty((num_taps, length), dtype=complex)
    base_angles = 2.0 * np.pi * (np.arange(oscillators) + 0.5) / oscillators
    for tap in range(num_taps):
        # One random rotation of the whole arrival-angle ring per tap keeps the
        # angle set uniform while decorrelating taps.
        angles = base_angles + rng.uniform(0.0, 2.0 * np.pi)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=oscillators)
        doppler = 2.0 * np.pi * fd_t * np.cos(angles)
        phase = doppler[:, None] * t[None, :] + phases[:, None]
        # cos + i sin rather than exp(i phase): the same sum, at less cost.
        out[tap] = (np.cos(phase).sum(0) + 1j * np.sin(phase).sum(0)) / np.sqrt(oscillators)
    return out
