"""Constrained receiver algebra against KKT, pinv, and differencing oracles,
and the chunked stochastic-gradient steps against their per-step formulas."""

import numpy as np
import pytest
import scipy.linalg

from stcdma import harness
from stcdma.errors import SingularConstraintError
from stcdma.oracles import central_difference, kkt_constrained_minimizer
from stcdma.receivers import (
    CombinerGains,
    combine,
    constrained_quadratic_filter,
    constraint_offsets,
    constraint_projector,
    constraint_restorer,
    detect,
    sg_chunk,
)
from stcdma.scenario import Scenario
from stcdma.signal_model import random_multipath_channel, random_qpsk, simulate_packet
from stcdma.signal_model import SymbolStream
from stcdma.spreading import (
    build_convolution_matrix,
    random_spreading_set,
    user_constraint_matrices,
)

from adapt_reference import CcmStatistics, ccm_sg_step, cmv_sg_step


def _random_constraints(rng, dim=12, ncon=4):
    return rng.standard_normal((dim, ncon)) + 1j * rng.standard_normal((dim, ncon))


def _random_covariance(rng, dim=12):
    b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return b @ b.conj().T + np.eye(dim)


def test_projector_matches_nullspace_basis():
    rng = np.random.default_rng(0)
    c = _random_constraints(rng)
    pi = constraint_projector(c)
    basis = scipy.linalg.null_space(c.conj().T)
    oracle = basis @ basis.conj().T
    assert np.max(np.abs(pi - oracle)) < 1e-10


def test_restorer_matches_pinv():
    rng = np.random.default_rng(1)
    c = _random_constraints(rng)
    t = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    w = constraint_restorer(c) @ t
    oracle = np.linalg.pinv(c.conj().T) @ t
    assert np.max(np.abs(w - oracle)) < 1e-10
    assert np.max(np.abs(c.conj().T @ w - t)) < 1e-10


def test_projector_annihilates_restored_vectors():
    rng = np.random.default_rng(2)
    c = _random_constraints(rng)
    pi = constraint_projector(c)
    rest = constraint_restorer(c)
    assert np.max(np.abs(pi @ rest)) < 1e-10
    # idempotent and Hermitian
    assert np.max(np.abs(pi @ pi - pi)) < 1e-10
    assert np.max(np.abs(pi - pi.conj().T)) < 1e-10


def test_rank_deficient_constraints_rejected():
    rng = np.random.default_rng(3)
    c = _random_constraints(rng)
    c[:, 1] = c[:, 0]
    with pytest.raises(SingularConstraintError):
        constraint_projector(c)


def test_constrained_filter_matches_kkt():
    rng = np.random.default_rng(4)
    for trial in range(10):
        r = _random_covariance(rng)
        c = _random_constraints(rng)
        d = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        t = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w = constrained_quadratic_filter(r, d, c, t)
        oracle = kkt_constrained_minimizer(r, d, c, t)
        assert np.max(np.abs(w - oracle)) < 1e-8
        w0 = constrained_quadratic_filter(r, np.zeros(12, complex), c, t)
        oracle0 = kkt_constrained_minimizer(r, np.zeros(12, complex), c, t)
        assert np.max(np.abs(w0 - oracle0)) < 1e-8


def _exact_filters(moments, cm, h, nu, ridge=0.0):
    """Both branches' closed-form filters: (C, nu h) and (Cbar, nu conj(h))."""
    return [
        constrained_quadratic_filter(r, d, c, nu * hb, ridge)
        for (r, d), c, hb in zip(moments, (cm.odd, cm.even), (h, np.conj(h)))
    ]


def _cmv_filters(r, cm, h, nu, ridge=0.0):
    zero = np.zeros(r.shape[0], dtype=complex)
    return _exact_filters([(r, zero)] * 2, cm, h, nu, ridge)


def test_cmv_filter_is_linear_in_nu():
    rng = np.random.default_rng(5)
    sp = random_spreading_set(2, 16, "zero-padded", 2, seed=1)
    cm = user_constraint_matrices(sp, 0, 3)
    r = _random_covariance(rng, dim=2 * (16 + 3 - 1))
    h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    one = _cmv_filters(r, cm, h, nu=1.0)
    two = _cmv_filters(r, cm, h, nu=2.0)
    assert np.max(np.abs(two[0] - 2.0 * one[0])) < 1e-9
    assert np.max(np.abs(two[1] - 2.0 * one[1])) < 1e-9


def test_ccm_statistics_match_loop_moments():
    rng = np.random.default_rng(6)
    dim = 6
    stats = CcmStatistics(dim=dim, branches=2, forgetting=1.0)
    ys, zs, zbars = [], [], []
    for _ in range(25):
        y = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        z = complex(rng.standard_normal() + 1j * rng.standard_normal())
        zbar = complex(rng.standard_normal() + 1j * rng.standard_normal())
        stats.update(y, [z, zbar])
        ys.append(y)
        zs.append(z)
        zbars.append(zbar)
    r_oracle = np.mean(
        [abs(z) ** 2 * np.outer(y, y.conj()) for y, z in zip(ys, zs)], axis=0
    )
    d_oracle = np.mean([np.conj(z) * y for y, z in zip(ys, zs)], axis=0)
    assert stats.r.shape == (2, dim, dim) and stats.d.shape == (2, dim)
    assert np.max(np.abs(stats.r[0] - r_oracle)) < 1e-12
    assert np.max(np.abs(stats.d[0] - d_oracle)) < 1e-12
    rbar_oracle = np.mean(
        [abs(z) ** 2 * np.outer(y, y.conj()) for y, z in zip(ys, zbars)], axis=0
    )
    assert np.max(np.abs(stats.r[1] - rbar_oracle)) < 1e-12


def test_ccm_statistics_unbiased_from_first_sample():
    rng = np.random.default_rng(7)
    stats = CcmStatistics(dim=4, branches=2, forgetting=0.9)
    y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    stats.update(y, [1.0 + 0.5j, 0.2 - 1.0j])
    assert np.max(np.abs(stats.r[0] - abs(1.0 + 0.5j) ** 2 * np.outer(y, y.conj()))) < 1e-12


def _feasible_setup(seed, gain=16, lp=3):
    """Random two-branch constraint set: (C, Cbar), their projectors and
    restorers, and a unit channel."""
    rng = np.random.default_rng(seed)
    sp = random_spreading_set(3, gain, "zero-padded", 2, seed=seed)
    cm = user_constraint_matrices(sp, 0, lp)
    projectors = [constraint_projector(c) for c in (cm.odd, cm.even)]
    restorers = [constraint_restorer(c) for c in (cm.odd, cm.even)]
    h = rng.standard_normal(2 * lp) + 1j * rng.standard_normal(2 * lp)
    h /= np.linalg.norm(h)
    return rng, cm, projectors, restorers, h


def _adapt_static(alg, cm, y, h, **scenario):
    """harness._adapt on one receive antenna's two-antenna observations ``y``
    ((dim, blocks)) under the fixed channel ``h``; returns the outputs of the
    (blocks, branches) steps, whether they diverged, and the final filters."""
    blocks = y.shape[1]
    scn = Scenario(gain=16, n_paths=3, packet_symbols=2 * blocks, ber_skip=0, **scenario).validate()
    ests = [np.repeat(h[:, None], blocks, axis=1)]
    outputs, diverged, filters = harness._adapt(
        alg, scn, [y], ests, np.zeros(2 * blocks, dtype=complex), (cm.odd, cm.even)
    )
    return outputs[:, 0], diverged, filters[0]


def _one_step(rule, cs, y, offsets, mu, normalize=False):
    """The branches' filters and outputs after one chunked step from their
    offsets (v_0 = 0): w = o - c P y."""
    py = np.stack([constraint_projector(c) @ y for c in cs])[..., None]
    gram = y.conj() @ py
    gain = mu / (np.vdot(y, y).real + 1e-12) if normalize else mu
    q, c = sg_chunk(rule, gram[:, None], (y.conj() @ offsets.T)[:, None], np.array([gain]))
    return offsets - c * py[..., 0], np.conj(q[:, 0])


def test_sg_steps_keep_constraints_exact():
    rng, cm, projectors, restorers, h = _feasible_setup(8)
    nu = 1.3
    dim = cm.odd.shape[0]
    y = rng.standard_normal((dim, 50)) + 1j * rng.standard_normal((dim, 50))
    _, diverged, ws = _adapt_static("ccm-sg", cm, y, h, nu=nu, step_ccm=1e-4)
    assert not diverged
    assert np.all(np.isfinite(ws[0]))
    assert np.max(np.abs(cm.odd.conj().T @ ws[0] - nu * h)) < 1e-10
    assert np.max(np.abs(cm.even.conj().T @ ws[1] - nu * np.conj(h))) < 1e-10
    y = rng.standard_normal((dim, 50)) + 1j * rng.standard_normal((dim, 50))
    _, _, ws2 = _adapt_static("cmv-sg", cm, y, h, nu=nu, step_cmv=1e-2, normalize_steps=True)
    assert np.max(np.abs(cm.odd.conj().T @ ws2[0] - nu * h)) < 1e-10


# ``step`` is the per-step formula; the chunked steps reproduce its outputs
# and filters over more than two chunks of observations.
@pytest.mark.parametrize("step", [ccm_sg_step, cmv_sg_step])
def test_sg_step_with_given_outputs_matches_recomputed(step):
    rng, cm, projectors, restorers, h = _feasible_setup(12)
    dim = cm.odd.shape[0]
    n = 2 * harness._CHUNK + 22
    y = rng.standard_normal((dim, n)) + 1j * rng.standard_normal((dim, n))
    offsets = constraint_offsets(restorers, h, 1.2)
    ws = list(offsets)
    zs = []
    for t in range(n):
        z = [np.vdot(w, y[:, t]) for w in ws]
        recomputed = step(ws, projectors, y[:, t], offsets, mu=1e-2, normalize=True)
        ws = step(ws, projectors, y[:, t], offsets, 1e-2, True, z)
        assert all(np.array_equal(a, b) for a, b in zip(recomputed, ws))
        zs.append(z)
    alg = "ccm-sg" if step is ccm_sg_step else "cmv-sg"
    outputs, diverged, filters = _adapt_static(
        alg, cm, y, h, nu=1.2, step_ccm=1e-2, step_cmv=1e-2, normalize_steps=True
    )
    assert not diverged
    assert np.max(np.abs(outputs - np.array(zs))) < 1e-12 * np.max(np.abs(zs))
    assert np.max(np.abs(filters - np.array(ws))) < 1e-12 * np.max(np.abs(ws))


@pytest.mark.parametrize("step", [ccm_sg_step, cmv_sg_step])
def test_sg_step_on_one_branch_matches_its_formula(step):
    """The one-transmit-antenna receiver is one branch on the convolution
    matrix; its step is the same projected update on that branch alone."""
    rng = np.random.default_rng(16)
    sp = random_spreading_set(2, 16, "zero-padded", 1, seed=4)
    conv = build_convolution_matrix(sp.code(0, 0), 3)
    pi = constraint_projector(conv)
    h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    offsets = constraint_offsets([constraint_restorer(conv)], h, 1.4)
    assert offsets.shape == (1, conv.shape[0])
    y = rng.standard_normal(conv.shape[0]) + 1j * rng.standard_normal(conv.shape[0])
    rule = "ccm" if step is ccm_sg_step else "cmv"
    (w,), (out,) = _one_step(rule, [conv], y, offsets, mu=1e-2, normalize=True)
    z = np.vdot(offsets[0], y)
    assert abs(out - z) < 1e-12 * abs(z)
    coef = (abs(z) ** 2 - 1.0) * np.conj(z) if step is ccm_sg_step else np.conj(z)
    expected = pi @ (offsets[0] - 1e-2 / np.vdot(y, y).real * coef * y) + offsets[0]
    assert np.max(np.abs(w - expected)) < 1e-12
    assert np.max(np.abs(conv.conj().T @ w - 1.4 * h)) < 1e-10


def test_constraint_offsets_per_column_match_single_channels():
    rng, cm, _, restorers, h = _feasible_setup(13)
    hs = rng.standard_normal((h.size, 5)) + 1j * rng.standard_normal((h.size, 5))
    block = constraint_offsets(restorers, hs, 1.4)
    assert block.shape == (2, cm.odd.shape[0], 5)
    for k in range(5):
        one = constraint_offsets(restorers, hs[:, k], 1.4)
        assert np.max(np.abs(block[:, :, k] - one)) < 1e-13
        assert np.max(np.abs(cm.odd.conj().T @ one[0] - 1.4 * hs[:, k])) < 1e-12
        assert np.max(np.abs(cm.even.conj().T @ one[1] - 1.4 * np.conj(hs[:, k]))) < 1e-12


def test_ccm_step_moves_along_projected_gradient():
    rng, cm, projectors, restorers, h = _feasible_setup(9)
    offsets = constraint_offsets(restorers, h, 1.0)
    dim = cm.odd.shape[0]
    y = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    z = np.vdot(offsets[0], y)
    mu = 1e-3
    ws, _ = _one_step("ccm", (cm.odd, cm.even), y, offsets, mu)
    expected = offsets[0] - mu * projectors[0] @ ((abs(z) ** 2 - 1.0) * np.conj(z) * y)
    assert np.max(np.abs(ws[0] - expected)) < 1e-12


def test_sg_gradients_match_central_difference():
    rng, cm, _, _, h = _feasible_setup(10)
    dim = cm.odd.shape[0]
    y = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    u = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)

    def modulus_cost(v):
        return (abs(np.vdot(v, y)) ** 2 - 1.0) ** 2

    def power_cost(v):
        return abs(np.vdot(v, y)) ** 2

    z = np.vdot(w, y)
    grad_ccm = 4.0 * (abs(z) ** 2 - 1.0) * np.conj(z) * y
    grad_cmv = 2.0 * np.conj(z) * y
    num_ccm = central_difference(modulus_cost, w, u, 1e-7)
    num_cmv = central_difference(power_cost, w, u, 1e-7)
    assert abs(np.vdot(grad_ccm, u).real - num_ccm) < 1e-5 * max(1.0, abs(num_ccm))
    assert abs(np.vdot(grad_cmv, u).real - num_cmv) < 1e-5 * max(1.0, abs(num_cmv))


def test_normalized_step_scales_by_input_power():
    rng, cm, projectors, restorers, h = _feasible_setup(11)
    dim = cm.odd.shape[0]
    y = 10.0 * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    offsets = constraint_offsets(restorers, h, 1.0)
    w0 = offsets[0]
    raw, _ = _one_step("cmv", (cm.odd, cm.even), y, offsets, 1e-3, normalize=False)
    norm, _ = _one_step("cmv", (cm.odd, cm.even), y, offsets, 1e-3, normalize=True)
    power = np.vdot(y, y).real
    raw_move = raw[0] - w0
    norm_move = norm[0] - w0
    assert np.max(np.abs(norm_move * (power + 1e-12) - raw_move)) < 1e-10


def test_min_norm_pair_matches_pinv():
    rng, cm, _, restorers, h = _feasible_setup(12)
    w, wbar = constraint_offsets(restorers, h, 1.7)
    oracle_w = np.linalg.pinv(cm.odd.conj().T) @ (1.7 * h)
    oracle_wbar = np.linalg.pinv(cm.even.conj().T) @ (1.7 * np.conj(h))
    assert np.max(np.abs(w - oracle_w)) < 1e-10
    assert np.max(np.abs(wbar - oracle_wbar)) < 1e-10


def test_trained_lms_approaches_wiener_filter():
    rng = np.random.default_rng(13)
    dim = 4
    h = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    sigma2 = 0.1
    r = 2.0 * np.outer(h, h.conj()) + sigma2 * np.eye(dim)
    p = 2.0 * h
    w_mmse = np.linalg.solve(r, p)
    steps = 20_000
    ys = np.empty((dim, steps), dtype=complex)
    symbols = np.empty(steps, dtype=complex)
    for t in range(steps):
        symbols[t] = random_qpsk(1, rng)[0]
        n = np.sqrt(sigma2 / 2) * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        ys[:, t] = h * symbols[t] + n
    scn = Scenario(tx_antennas=1, packet_symbols=steps, step_lms=0.005, ber_skip=0).validate()
    _, diverged, filters = harness._adapt("trained-lms", scn, [ys], [], symbols, (np.zeros((dim, 1)),))
    assert not diverged
    w = filters[0, 0]
    assert np.linalg.norm(w - w_mmse) < 0.15 * np.linalg.norm(w_mmse)


def test_detect_grid_and_ties():
    assert detect(0.0 + 0.0j) == 1.0 + 1.0j
    assert detect(-0.1 + 0.0j) == -1.0 + 1.0j
    vals = detect(np.array([2 + 3j, -1 - 1j, 0.5 - 2j]))
    assert np.array_equal(vals, np.array([1 + 1j, -1 - 1j, 1 - 1j]))


def test_combiner_gains():
    g = CombinerGains.proportional((1.0, 3.0))
    assert np.allclose(g.gains, [0.25, 0.75])
    assert np.allclose(CombinerGains.proportional((0.0, 0.0)).gains, [0.5, 0.5])
    assert np.allclose(CombinerGains.equal(4).gains, 0.25)


def test_combine_shapes_and_mismatch():
    outputs = np.array([[1 + 1j, 2.0], [3.0, 4 - 1j]])
    g = CombinerGains.proportional((1.0, 3.0))
    mixed = combine(outputs, g)
    assert np.allclose(mixed, 0.25 * outputs[0] + 0.75 * outputs[1])
    with pytest.raises(ValueError):
        combine(np.zeros((3, 2)), g)


def test_cmv_with_ensemble_covariance_separates_users():
    """With the model's ensemble covariance and no noise the minimum-variance
    receiver nulls the interferers exactly despite their power advantage."""
    rng = np.random.default_rng(14)
    gain, lp, users = 16, 3, 3
    amps = (1.0, 2.0, 3.0)
    sp = random_spreading_set(users, gain, "zero-padded", 2, seed=3)
    ch = random_multipath_channel(2, lp, 40, 0.0, rng, fading="clarke")
    h = ch.stacked[:, 0]
    m2 = 2 * (gain + lp - 1)
    r = np.zeros((m2, m2), dtype=complex)
    sigs = []
    for k in range(users):
        cmk = user_constraint_matrices(sp, k, lp)
        u = amps[k] * (cmk.odd @ h)
        v = amps[k] * (cmk.even @ np.conj(h))
        sigs.append((u, v))
        r += 2.0 * (np.outer(u, u.conj()) + np.outer(v, v.conj()))
    streams = [
        SymbolStream(symbols=random_qpsk(80, rng), amplitude=amp) for amp in amps
    ]
    y = simulate_packet(streams, sp, ch, 0.0, rng)
    cm = user_constraint_matrices(sp, 0, lp)
    w, wbar = _cmv_filters(r, cm, h, nu=1.0, ridge=1e-10)
    # interfering signatures and the same-user partner direction are nulled
    # (residual leakage is set by the tiny ridge, far below the O(1) gain)
    for u, v in sigs[1:]:
        assert abs(np.vdot(w, u)) < 1e-4
        assert abs(np.vdot(w, v)) < 1e-4
    assert abs(np.vdot(w, sigs[0][1])) < 1e-4
    z = np.stack((w.conj() @ y, wbar.conj() @ y), axis=1)
    assert np.array_equal(detect(z[:, 0]), detect(streams[0].symbols[0::2]))
    assert np.array_equal(detect(z[:, 1]), detect(streams[0].symbols[1::2]))


def test_ccm_exact_filter_separates_users_at_scale():
    """The closed-form constant-modulus receiver from large-sample moments
    detects the desired user error-free in a noise-free loaded system."""
    rng = np.random.default_rng(15)
    gain, lp, users = 16, 3, 3
    nblocks = 1500
    sp = random_spreading_set(users, gain, "zero-padded", 2, seed=3)
    ch = random_multipath_channel(2, lp, nblocks, 0.0, rng, fading="clarke")
    streams = [
        SymbolStream(symbols=random_qpsk(2 * nblocks, rng), amplitude=amp)
        for amp in (1.0, 2.0, 3.0)
    ]
    y = simulate_packet(streams, sp, ch, 0.0, rng)
    cm = user_constraint_matrices(sp, 0, lp)
    h = ch.stacked[:, 0]
    # One refresh at the end of the packet: the moments of every block under
    # the starting filters, the constraint offsets.
    _, diverged, (w, wbar) = _adapt_static(
        "ccm-exact", cm, y, h, nu=1.0, ridge=1e-9, cov_forgetting=1.0, filter_refresh=nblocks
    )
    assert not diverged
    z = np.stack((w.conj() @ y, wbar.conj() @ y), axis=1)
    assert np.array_equal(detect(z[:, 0]), detect(streams[0].symbols[0::2]))
    assert np.array_equal(detect(z[:, 1]), detect(streams[0].symbols[1::2]))
