"""Clarke-model fading sequences: power, autocorrelation, determinism."""

import numpy as np
import pytest
from scipy.special import j0

from stcdma.fading import clarke_fading_sequence


def test_zero_doppler_is_constant():
    taps = clarke_fading_sequence(0.0, num_taps=3, length=500, seed=1)
    assert taps.shape == (3, 500)
    for t in range(3):
        assert np.allclose(taps[t], taps[t, 0])


def test_mean_power_near_unity():
    taps = clarke_fading_sequence(0.001, num_taps=1, length=100_000, seed=2)
    power = np.mean(np.abs(taps) ** 2)
    assert 0.95 <= power <= 1.05


def test_autocorrelation_tracks_bessel():
    fd = 0.01
    length = 100_000
    taps = clarke_fading_sequence(fd, num_taps=8, length=length, seed=3)
    lags = np.arange(101)
    worst = 0.0
    for lag in lags:
        emp = np.mean(
            [
                np.mean(taps[t, lag:] * np.conj(taps[t, : length - lag])).real
                for t in range(8)
            ]
        )
        worst = max(worst, abs(emp - j0(2 * np.pi * fd * lag)))
    assert worst < 0.05


def test_taps_are_uncorrelated():
    # fd large enough that samples decorrelate within ~8 steps, giving
    # thousands of effective draws for the cross-moment
    taps = clarke_fading_sequence(0.05, num_taps=2, length=100_000, seed=4)
    cross = np.mean(taps[0] * np.conj(taps[1]))
    assert abs(cross) < 0.05


def test_seed_reproducibility():
    a = clarke_fading_sequence(0.002, 2, 100, seed=7)
    b = clarke_fading_sequence(0.002, 2, 100, seed=7)
    c = clarke_fading_sequence(0.002, 2, 100, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_generator_seed_accepted():
    rng = np.random.default_rng(5)
    taps = clarke_fading_sequence(0.001, 1, 10, seed=rng)
    assert taps.shape == (1, 10)


def test_negative_doppler_rejected():
    with pytest.raises(ValueError):
        clarke_fading_sequence(-0.1, 1, 10, seed=0)


def _exp_formula(fd_t, num_taps, length, rng, oscillators=64):
    """The generator written with one complex exponential per oscillator and
    sample, drawing from `rng` in the generator's order.  The phases, their
    exponentials and the sum are evaluated in long double and rounded once,
    so the reference does not round the phase itself (where long double is
    plain double, it does)."""
    t = np.arange(length, dtype=np.longdouble)
    base = 2.0 * np.pi * (np.arange(oscillators) + 0.5) / oscillators
    out = np.empty((num_taps, length), dtype=complex)
    for tap in range(num_taps):
        angles = base + rng.uniform(0.0, 2.0 * np.pi)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=oscillators)
        doppler = 2.0 * np.pi * fd_t * np.cos(angles)
        out[tap] = np.exp(1j * (doppler[:, None] * t + phases[:, None])).sum(0) / np.sqrt(oscillators)
    return out


@pytest.mark.parametrize(
    "fd_t,num_taps,length,seed",
    [(0.0, 1, 5, 0), (0.001, 3, 1500, 11), (0.0005, 6, 3000, 12), (0.05, 2, 257, 13)],
)
def test_matches_complex_exponential_formula_and_draw_order(fd_t, num_taps, length, seed):
    rng_oracle = np.random.default_rng(seed)
    rng = np.random.default_rng(seed)
    oracle = _exp_formula(fd_t, num_taps, length, rng_oracle)
    taps = clarke_fading_sequence(fd_t, num_taps, length, seed=rng)
    assert np.max(np.abs(taps - oracle)) < 1e-14
    assert rng.random() == rng_oracle.random()


@pytest.mark.parametrize("fd_t", [0.0005, 0.005])
@pytest.mark.parametrize("num_taps", [1, 3])
@pytest.mark.parametrize("length", [1, 7, 8, 9, 63, 64, 65, 1001])
@pytest.mark.parametrize("seeded_by", ["int", "generator"])
def test_chunk_boundaries_match_complex_exponential_formula(fd_t, num_taps, length, seeded_by):
    # The generator evaluates 8 samples per anchor; these lengths end one
    # short of, on and one past a chunk boundary.
    seed = 100 + length
    rng_oracle = np.random.default_rng(seed)
    oracle = _exp_formula(fd_t, num_taps, length, rng_oracle)
    rng = np.random.default_rng(seed)
    taps = clarke_fading_sequence(fd_t, num_taps, length, seed=seed if seeded_by == "int" else rng)
    assert taps.shape == (num_taps, length)
    assert np.max(np.abs(taps - oracle)) < 1e-14
    if seeded_by == "generator":
        assert rng.random() == rng_oracle.random()


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="long double is no wider than double on this platform",
)
def test_long_sequences_are_as_accurate_as_per_sample_exponentials():
    # Past about 80 rad of phase, one ulp of the phase exceeds 1e-14, so the
    # chunked product, which rounds the phase in double, differs from the
    # reference by more than the bounds above.  It stays within 2 eps times
    # the largest phase, as close as a per-sample sum in double comes.
    fd_t, num_taps, length, seed = 0.05, 2, 3000, 13
    exact = _exp_formula(fd_t, num_taps, length, np.random.default_rng(seed))
    chunked = clarke_fading_sequence(fd_t, num_taps, length, seed=seed)
    bound = 2 * np.finfo(float).eps * (2.0 * np.pi * (fd_t * length + 1))
    assert np.max(np.abs(chunked - exact)) < bound
