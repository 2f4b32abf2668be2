"""Blind channel estimators against eigendecomposition and planted channels."""

import numpy as np
import pytest

from stcdma.channel_estimation import (
    ChannelEstimate,
    CovarianceEstimate,
    PsiEstimate,
    align_phase,
    canonical_phase,
    estimate_channel_exact,
    scaled_inverse_power,
    sg_channel_step,
    sg_psi_step,
)
from stcdma.errors import StepSizeError
from stcdma.harness import channel_mse
from stcdma.oracles import min_eigenvector, noise_subspace_projector
from stcdma.signal_model import (
    SymbolStream,
    random_multipath_channel,
    random_qpsk,
    simulate_packet,
)
from stcdma.spreading import random_spreading_set, user_constraint_matrices


def _mse(est, ref):
    """Phase-aligned squared error of one estimate against the
    unit-normalized reference: one column of `channel_mse`."""
    return channel_mse(est[:, None], ref[:, None])[0]


def _planted_system(seed, gain=16, lp=3, users=3, sigma2=0.05, nblocks=None):
    """Ensemble covariance with a known stacked channel inside it."""
    rng = np.random.default_rng(seed)
    sp = random_spreading_set(users, gain, "zero-padded", 2, seed=seed)
    ch = random_multipath_channel(2, lp, 1, 0.0, rng, fading="clarke")
    h = ch.stacked[:, 0]
    m2 = 2 * (gain + lp - 1)
    r = sigma2 * np.eye(m2, dtype=complex)
    for k in range(users):
        cmk = user_constraint_matrices(sp, k, lp)
        u = cmk.odd @ h
        v = cmk.even @ np.conj(h)
        r += 2.0 * (np.outer(u, u.conj()) + np.outer(v, v.conj()))
    cm = user_constraint_matrices(sp, 0, lp)
    return rng, sp, ch, h, r, cm


def test_exact_estimator_recovers_planted_channel():
    """With a tiny noise floor the inverse-power weighting all but removes the
    signal directions and the planted channel comes back almost exactly."""
    for power in (1, 2):
        _, _, _, h, r, cm = _planted_system(0, sigma2=1e-4)
        est = estimate_channel_exact(r, cm.odd, power=power, ridge=0.0)
        assert est.method == f"subspace-p{power}"
        assert np.isclose(np.linalg.norm(est.vector), 1.0)
        assert _mse(est.vector, h) < 1e-6


def test_estimator_bias_shrinks_with_power():
    """At a moderate noise floor the finite-power estimate is biased and the
    bias decreases monotonically in the inverse power."""
    _, _, _, h, r, cm = _planted_system(0, sigma2=0.05)
    mses = [
        _mse(estimate_channel_exact(r, cm.odd, power=p, ridge=0.0).vector, h)
        for p in (1, 2, 4)
    ]
    assert mses[2] < mses[1] < mses[0]
    assert mses[0] < 2e-2
    assert mses[2] < 1e-8


def test_higher_power_sharpens_noise_subspace():
    """(R/sigma^2)^-p suppresses a signal direction by (1+lambda/sigma^2)^-p,
    so the residual signal weight drops monotonically with p."""
    rng = np.random.default_rng(1)
    dim = 12
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    sigma2 = 0.5
    lam = np.full(dim, sigma2)
    lam[:3] = [9.0 * sigma2 + sigma2, 4.0 * sigma2 + sigma2, 1.0 * sigma2 + sigma2]
    r = (q * lam) @ q.conj().T
    proj = noise_subspace_projector(r, signal_dim=3)
    prev = None
    for power in (1, 2, 3, 6):
        inv_p = scaled_inverse_power(r, sigma2, power)
        # noise directions have unit weight, signal directions decay
        sig_weight = np.linalg.norm(inv_p - proj)
        if prev is not None:
            assert sig_weight < prev
        prev = sig_weight
    # closed-form check for the strongest direction at p=2
    inv2 = scaled_inverse_power(r, sigma2, 2)
    w = np.vdot(q[:, 0], inv2 @ q[:, 0]).real
    assert np.isclose(w, (1.0 + 9.0) ** -2, atol=1e-12)


def test_inverse_power_rejects_bad_arguments():
    r = np.eye(3, dtype=complex)
    with pytest.raises(ValueError):
        scaled_inverse_power(r, 0.0, 1)
    with pytest.raises(ValueError):
        scaled_inverse_power(r, 1.0, 0)
    with pytest.raises(ValueError):
        estimate_channel_exact(r, np.eye(3), power=0)


def test_noise_projector_annihilates_signatures():
    _, sp, ch, h, r, cm = _planted_system(2, users=2)
    proj = noise_subspace_projector(r, signal_dim=4)
    for k in range(2):
        cmk = user_constraint_matrices(sp, k, 3)
        assert np.linalg.norm(proj @ (cmk.odd @ h)) < 1e-8
        assert np.linalg.norm(proj @ (cmk.even @ np.conj(h))) < 1e-8


def test_canonical_phase_fixes_largest_entry():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    out = canonical_phase(v)
    k = int(np.argmax(np.abs(out)))
    assert out[k].imag == pytest.approx(0.0, abs=1e-12)
    assert out[k].real > 0
    # idempotent and norm preserving
    assert np.allclose(canonical_phase(out), out)
    assert np.isclose(np.linalg.norm(out), np.linalg.norm(v))


def test_align_phase_maximizes_real_overlap():
    rng = np.random.default_rng(4)
    ref = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    est = (rng.standard_normal(5) + 1j * rng.standard_normal(5)) * np.exp(1j * 2.1)
    out = align_phase(est, ref)
    ip = np.vdot(out, ref)
    assert ip.imag == pytest.approx(0.0, abs=1e-10)
    assert ip.real >= 0


def test_phase_aligned_mse_formula():
    rng = np.random.default_rng(5)
    ref = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    est = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    est /= np.linalg.norm(est)
    refn = ref / np.linalg.norm(ref)
    # unit vectors: mse = 2 - 2 |<est, ref>|
    assert np.isclose(_mse(est, ref), 2.0 - 2.0 * abs(np.vdot(est, refn)))
    # a pure phase rotation costs nothing
    assert _mse(refn * np.exp(1j * 0.7), ref) < 1e-12
    # and the aligned difference realizes the same value
    aligned = align_phase(est, refn)
    assert np.isclose(_mse(est, ref), np.linalg.norm(aligned - refn) ** 2)
    with pytest.raises(ValueError):
        _mse(est, np.zeros(5))


def test_covariance_estimate_matches_loop():
    rng = np.random.default_rng(6)
    ys = rng.standard_normal((4, 30)) + 1j * rng.standard_normal((4, 30))
    batch = CovarianceEstimate(dim=4, forgetting=0.97)
    batch.update_batch(ys)
    loop = CovarianceEstimate(dim=4, forgetting=0.97)
    for i in range(30):
        loop.update(ys[:, i])
    assert np.max(np.abs(batch.matrix - loop.matrix)) < 1e-12
    plain = CovarianceEstimate(dim=4, forgetting=1.0)
    plain.update_batch(ys)
    assert np.max(np.abs(plain.matrix - (ys @ ys.conj().T) / 30)) < 1e-12
    with pytest.raises(ValueError):
        CovarianceEstimate(dim=4, forgetting=0.0)


def test_psi_recursion_tracks_min_eigenvector_direction():
    """On stationary data the decomposition-free recursion drives the channel
    iterate to the planted channel."""
    rng, sp, ch, h, r, cm = _planted_system(7, sigma2=0.1)
    streams = [
        SymbolStream(symbols=random_qpsk(6000, rng)) for _ in range(3)
    ]
    chs = random_multipath_channel(2, 3, 3000, 0.0, rng, fading="clarke")
    chs.taps[:, :, :] = ch.taps[:, :, :1]
    y = simulate_packet(streams, sp, chs, 0.1, rng)
    psi = PsiEstimate.from_constraints(cm.odd, alpha=0.998, mu=1e-3)
    start = canonical_phase(np.ones(6, dtype=complex) / np.sqrt(6))
    est = ChannelEstimate(vector=start, method="subspace-sg")
    for i in range(3000):
        sg_psi_step(psi, y[:, i])
        est = sg_channel_step(est, psi, cm.odd)
    assert _mse(est.vector, h) < 0.05


def test_psi_recursion_raises_on_oversized_step():
    rng = np.random.default_rng(8)
    cm_like = rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4))
    psi = PsiEstimate.from_constraints(cm_like, alpha=1.0, mu=5.0)
    with pytest.raises(StepSizeError):
        for _ in range(200):
            y = 3.0 * (rng.standard_normal(12) + 1j * rng.standard_normal(12))
            sg_psi_step(psi, y)


def test_fixed_omega_iteration_matches_eigh():
    """With psi frozen, the channel step is a shifted power method whose fixed
    point is the minimum eigenvector of Omega."""
    rng = np.random.default_rng(9)
    dim = 6
    b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    omega = b @ b.conj().T + 0.1 * np.eye(dim)
    psi_like = PsiEstimate(psi=np.linalg.solve(np.eye(dim), omega), alpha=1.0, mu=0.0)
    # feed the step an identity constraint so C^H psi == omega
    est = ChannelEstimate(
        vector=canonical_phase(rng.standard_normal(dim) + 1j * rng.standard_normal(dim)),
        method="subspace-sg",
    )
    est = ChannelEstimate(vector=est.vector / np.linalg.norm(est.vector), method=est.method)
    for _ in range(4000):
        est = sg_channel_step(est, psi_like, np.eye(dim, dtype=complex))
    oracle = min_eigenvector(omega)
    assert _mse(est.vector, oracle) < 1e-4


def test_exact_estimator_close_under_chip_spill():
    """Estimation from data with inter-slot spill still lands near the true
    channel (the structured term dominates)."""
    rng = np.random.default_rng(10)
    gain, lp = 16, 3
    sp = random_spreading_set(3, gain, "zero-padded", 2, seed=10)
    ch = random_multipath_channel(2, lp, 4000, 0.0, rng, fading="clarke")
    ch.taps[:, :, :] = ch.taps[:, :, :1]
    streams = [SymbolStream(symbols=random_qpsk(8000, rng)) for _ in range(3)]
    y = simulate_packet(streams, sp, ch, 0.05, rng, include_isi=True)
    r = (y @ y.conj().T) / y.shape[1]
    cm = user_constraint_matrices(sp, 0, lp)
    est = estimate_channel_exact(r, cm.odd, power=1)
    assert _mse(est.vector, ch.stacked[:, 0]) < 0.05
