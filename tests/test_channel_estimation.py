"""Blind channel estimators against eigendecomposition and planted channels."""

import numpy as np
import pytest

from stcdma import channel_estimation
from stcdma.channel_estimation import (
    CovarianceEstimate,
    PsiEstimate,
    align_phase,
    canonical_phase,
    estimate_channel_exact,
    sg_track,
)
from stcdma.harness import channel_mse
from stcdma.oracles import min_eigenvector, noise_subspace_projector, scaled_inverse_power
from stcdma.signal_model import (
    SymbolStream,
    random_multipath_channel,
    random_qpsk,
    simulate_packet,
)
from stcdma.spreading import random_spreading_set, user_constraint_matrices

from adapt_reference import SequentialCovariance


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
        ck, ckbar = user_constraint_matrices(sp, k, lp)
        u = ck @ h
        v = ckbar @ np.conj(h)
        r += 2.0 * (np.outer(u, u.conj()) + np.outer(v, v.conj()))
    c, _ = user_constraint_matrices(sp, 0, lp)
    return rng, sp, ch, h, r, c


def test_exact_estimator_recovers_planted_channel():
    """With a tiny noise floor the inverse-power weighting all but removes the
    signal directions and the planted channel comes back almost exactly."""
    for power in (1, 2):
        _, _, _, h, r, c = _planted_system(0, sigma2=1e-4)
        est = estimate_channel_exact(r, c, power=power, ridge=0.0)
        assert np.isclose(np.linalg.norm(est), 1.0)
        assert _mse(est, h) < 1e-6


def test_estimator_bias_shrinks_with_power():
    """At a moderate noise floor the finite-power estimate is biased and the
    bias decreases monotonically in the inverse power."""
    _, _, _, h, r, c = _planted_system(0, sigma2=0.05)
    mses = [
        _mse(estimate_channel_exact(r, c, power=p, ridge=0.0), h)
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


def _spy_forms(monkeypatch):
    """Count the calls of each path that forms C^H A^-power C."""
    calls = {"_cholesky_form": 0, "_eigh_form": 0}
    for name in calls:
        real = getattr(channel_estimation, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(channel_estimation, name, counted)
    return calls


@pytest.mark.parametrize("power", [1, 2, 3])
def test_cholesky_and_eigh_forms_agree_on_well_conditioned_covariance(monkeypatch, power):
    rng = np.random.default_rng(power)
    g = rng.standard_normal((10, 40)) + 1j * rng.standard_normal((10, 40))
    r = g @ g.conj().T / 40 + 0.1 * np.eye(10)
    c = rng.standard_normal((10, 3)) + 1j * rng.standard_normal((10, 3))
    a = r + 1e-6 * np.eye(10)
    chol = channel_estimation._cholesky_form(a, c, power)
    eig = channel_estimation._eigh_form(a, c, power)
    assert np.linalg.norm(chol - eig) <= 1e-12 * np.linalg.norm(eig)
    calls = _spy_forms(monkeypatch)
    est = estimate_channel_exact(r, c, power=power, ridge=1e-6)
    assert calls == {"_cholesky_form": 1, "_eigh_form": 0}
    qvals, qvecs = np.linalg.eigh((eig + eig.conj().T) / 2)
    ref = qvecs[:, np.argmin(qvals)]
    assert np.allclose(align_phase(est, ref), ref, rtol=0, atol=1e-10)


# Both cases load R to the spectrum 1e4, 1, 1.1e-8, 1e-9: ridge 0 on that
# diagonal, or ridge 1e-9 on diag(1e4, 1, 1e-8, 0), whose trace exceeds
# ridge * (1e12 - 1) = 1e3.  The 1e12 condition floor lifts the last value to
# 1e-8.  C weighs the last two directions so that the floor decides the
# estimate: the unfloored form's minimum eigenvector is e2, the floored e1.
_FLOOR_C = np.array([[1, 1], [1, -1], [0, 2], [1, 0]], dtype=complex)


@pytest.mark.parametrize(
    "ridge, diag",
    [(0.0, [1e4, 1.0, 1.1e-8, 1e-9]), (1e-9, [1e4, 1.0, 1e-8, 0.0])],
    ids=["ridge-0", "trace-over-cap"],
)
def test_eigh_path_keeps_the_condition_floor(monkeypatch, ridge, diag):
    r = np.diag(diag).astype(complex)
    calls = _spy_forms(monkeypatch)
    est = estimate_channel_exact(r, _FLOOR_C, power=1, ridge=ridge)
    assert calls["_eigh_form"] == 1
    # Loaded spectrum 1e4, 1, 1.1e-8, 1e-9; floored, 1e4, 1, 1.1e-8, 1e-8.
    weights = 1.0 / np.array([1e4, 1.0, 1.1e-8, 1e-8])
    floored = _FLOOR_C.conj().T @ (weights[:, None] * _FLOOR_C)
    qvals, qvecs = np.linalg.eigh(floored)
    assert _mse(est, qvecs[:, np.argmin(qvals)]) < 1e-12
    assert abs(est[0]) > 0.99


def test_noise_projector_annihilates_signatures():
    _, sp, ch, h, r, c = _planted_system(2, users=2)
    proj = noise_subspace_projector(r, signal_dim=4)
    for k in range(2):
        ck, ckbar = user_constraint_matrices(sp, k, 3)
        assert np.linalg.norm(proj @ (ck @ h)) < 1e-8
        assert np.linalg.norm(proj @ (ckbar @ np.conj(h))) < 1e-8


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
    # a (dim, T) pair aligns column by column; a zero overlap leaves its column
    refs = np.stack([ref, np.zeros(5), 1j * ref], axis=1)
    ests = np.stack([est, est, est], axis=1)
    cols = align_phase(ests, refs)
    for t in range(3):
        assert np.allclose(cols[:, t], align_phase(est, refs[:, t]), rtol=0, atol=1e-14)
    assert np.array_equal(cols[:, 1], est)


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
    batch.update(ys)
    loop = SequentialCovariance(4, 0.97)
    for i in range(30):
        loop.update(ys[:, i])
    assert np.max(np.abs(batch.matrix - loop.matrix)) < 1e-12
    plain = CovarianceEstimate(dim=4, forgetting=1.0)
    plain.update(ys)
    assert np.max(np.abs(plain.matrix - (ys @ ys.conj().T) / 30)) < 1e-12
    with pytest.raises(ValueError):
        CovarianceEstimate(dim=4, forgetting=0.0)


def test_psi_recursion_tracks_min_eigenvector_direction():
    """On stationary data the decomposition-free recursion drives the channel
    iterate to the planted channel."""
    rng, sp, ch, h, r, c = _planted_system(7, sigma2=0.1)
    streams = [
        SymbolStream(symbols=random_qpsk(6000, rng)) for _ in range(3)
    ]
    chs = random_multipath_channel(2, 3, 3000, 0.0, rng, fading="clarke")
    chs.taps[:, :, :] = ch.taps[:, :, :1]
    y = simulate_packet(streams, sp, chs, 0.1, rng)
    psi = PsiEstimate.from_constraints(c, alpha=0.998, mu=1e-3)
    start = canonical_phase(np.ones(6, dtype=complex) / np.sqrt(6))
    estimates, diverged = sg_track(psi, c, y[:, :3000], start)
    assert not diverged
    assert _mse(estimates[:, -1], h) < 0.05


def test_psi_recursion_raises_on_oversized_step():
    """An oversized step makes the recursion diverge, which the tracker
    reports as a flag rather than an exception."""
    rng = np.random.default_rng(8)
    cm_like = rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4))
    psi = PsiEstimate.from_constraints(cm_like, alpha=1.0, mu=5.0)
    ys = np.stack(
        [3.0 * (rng.standard_normal(12) + 1j * rng.standard_normal(12)) for _ in range(200)],
        axis=1,
    )
    start = np.ones(4, dtype=complex) / 2.0
    _, diverged = sg_track(psi, cm_like, ys, start)
    assert diverged


@pytest.mark.parametrize("entry, diverges", [(1e6, True), (np.nextafter(1e6, 0.0), False)])
def test_sg_tracker_psi_of_norm_1e6_diverges_at_step_0(entry, diverges):
    """The tracker takes the receivers' bound: a psi of norm 1e6 has
    diverged, as a receiver filter of norm 1e6 has, and one just below it
    has not.  With zero observations and alpha = mu = 0.5, a = 1, so psi
    stays at psi_0 exactly."""
    psi0 = np.zeros((4, 2), dtype=complex)
    psi0[0, 0] = entry
    start = np.array([0.6, 0.8], dtype=complex)
    psi = PsiEstimate(psi=psi0, alpha=0.5, mu=0.5)
    estimates, diverged = sg_track(psi, np.eye(4, 2, dtype=complex), np.zeros((4, 3), dtype=complex), start)
    assert diverged == diverges
    held = start if diverges else np.array([0.0, 1.0])
    assert np.array_equal(estimates, np.repeat(held[:, None], 3, axis=1))


def test_fixed_omega_iteration_matches_eigh():
    """With psi frozen, the channel step is a shifted power method whose fixed
    point is the minimum eigenvector of Omega."""
    rng = np.random.default_rng(9)
    dim = 6
    b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    omega = b @ b.conj().T + 0.1 * np.eye(dim)
    psi_like = PsiEstimate(psi=np.linalg.solve(np.eye(dim), omega), alpha=1.0, mu=0.0)
    # feed the tracker an identity constraint so C^H psi == omega
    start = canonical_phase(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    start = start / np.linalg.norm(start)
    ys = np.zeros((dim, 4000), dtype=complex)
    estimates, _ = sg_track(psi_like, np.eye(dim, dtype=complex), ys, start)
    oracle = min_eigenvector(omega)
    assert _mse(estimates[:, -1], oracle) < 1e-4


@pytest.mark.parametrize(
    "psi,start,message",
    [
        (np.diag([1.0, -1.0]), np.array([0.6, 0.8]), "zero-trace channel step skipped"),
        (np.diag([1.0, 0.0]), np.array([1.0, 0.0]), "degenerate channel step skipped"),
    ],
    ids=["zero-trace", "degenerate"],
)
def test_skipped_channel_steps_warn_and_keep_the_estimate(psi, start, message):
    """A zero-trace Omega, or an iterate that the step sends to zero, skips
    that step with a warning; the estimate holds."""
    psi_like = PsiEstimate(psi=psi.astype(complex), alpha=1.0, mu=0.0)
    start = start.astype(complex)
    with pytest.warns(RuntimeWarning, match=message):
        estimates, diverged = sg_track(psi_like, np.eye(2, dtype=complex), np.zeros((2, 3)), start)
    assert not diverged
    assert np.array_equal(estimates, np.repeat(start[:, None], 3, axis=1))


def test_zero_trace_rule_sees_the_decayed_psi():
    """The skip rule tests the trace of C^H psi itself, not of a rescaled
    Omega: psi halves each step, so its trace 2e-290 * 0.5^(j+1) drops below
    1e-300 from step 34 on, the last 6 of 40 steps."""
    psi_like = PsiEstimate(psi=1e-290 * np.eye(2, dtype=complex), alpha=0.5, mu=0.0)
    start = np.array([0.6, 0.8], dtype=complex)
    with pytest.warns(RuntimeWarning, match="zero-trace channel step skipped") as record:
        sg_track(psi_like, np.eye(2, dtype=complex), np.zeros((2, 40)), start)
    assert len(record) == 6


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
    c, _ = user_constraint_matrices(sp, 0, lp)
    est = estimate_channel_exact(r, c, power=1)
    assert _mse(est, ch.stacked[:, 0]) < 0.05
