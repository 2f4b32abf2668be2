"""Acceptance gate: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Every expected value is either an algebraic identity, an independent oracle,
or a closed-form bound; Monte Carlo checks state their confidence margins.
"""

import numpy as np
import scipy.special

from stcdma.channel_estimation import (
    PsiEstimate,
    canonical_phase,
    estimate_channel_exact,
    sg_track,
)
from stcdma import harness
from stcdma.harness import channel_mse, half_width, run_trial, smooth_series, trial_seed
from stcdma.oracles import (
    central_difference,
    constraint_projector,
    kkt_constrained_minimizer,
    min_eigenvector,
    noise_subspace_projector,
    reference_received_blocks,
    scaled_inverse_power,
)
from stcdma.receivers import (
    constrained_quadratic_filter,
    detect,
)
from stcdma.scenario import Scenario
from stcdma.signal_model import (
    SpaceTimeChannel,
    SymbolStream,
    random_multipath_channel,
    random_qpsk,
    simulate_packet,
)
from stcdma.spreading import random_spreading_set, user_constraint_matrices


def _report(num: int, name: str, ok: bool, detail: str) -> bool:
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({name}): {verdict} ({detail})")
    return ok


def _qfunc(x: float) -> float:
    return 0.5 * scipy.special.erfc(x / np.sqrt(2.0))


def _mse(est, ref):
    """Phase-aligned squared error of one estimate: one column of `channel_mse`."""
    return channel_mse(est[:, None], ref[:, None])[0]


def test_criterion_01_closed_form_filters_match_kkt_solver():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        r = a @ a.conj().T + 8 * np.eye(8)
        c = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
        d = rng.normal(size=8) + 1j * rng.normal(size=8)
        t = rng.normal(size=4) + 1j * rng.normal(size=4)
        w_ccm = constrained_quadratic_filter(r, d, c, t)
        worst = max(worst, float(np.linalg.norm(w_ccm - kkt_constrained_minimizer(r, d, c, t))))
        zero = np.zeros(8, dtype=complex)
        w_cmv = constrained_quadratic_filter(r, zero, c, t)
        worst = max(worst, float(np.linalg.norm(w_cmv - kkt_constrained_minimizer(r, zero, c, t))))
    ok = worst < 1e-8
    assert _report(1, "closed-form filters vs KKT solver", ok, f"max |dw| {worst:.3e}")


def test_criterion_02_constraints_hold_through_adaptation():
    rng = np.random.default_rng(102)
    gain, lp, users = 32, 6, 8
    steps = 10_000
    sp = random_spreading_set(users, gain, "zero-padded", 2, seed=7)
    ch = random_multipath_channel(2, lp, steps, 0.0, rng, fading="clarke")
    ch.taps[:, :, :] = ch.taps[:, :, :1]
    streams = [SymbolStream(symbols=random_qpsk(2 * steps, rng)) for _ in range(users)]
    y = simulate_packet(streams, sp, ch, Scenario().noise_variance(), rng)
    c, cbar = user_constraint_matrices(sp, 0, lp)
    h = ch.stacked[:, 0]
    nu = 1.4
    scn = Scenario(
        gain=gain, n_paths=lp, users=users, packet_symbols=2 * steps, nu=nu,
        step_ccm=6e-3, normalize_steps=True,
    ).validate()
    truth = np.zeros(2 * steps, dtype=complex)
    ests = [np.repeat(h[:, None], steps, axis=1)]
    _, diverged, (ws,) = harness._adapt(("ccm-sg",), scn, [y], ests, truth, (c, cbar))["ccm-sg"]
    assert not diverged
    resid = max(
        float(np.linalg.norm(c.conj().T @ ws[0] - nu * h)),
        float(np.linalg.norm(cbar.conj().T @ ws[1] - nu * np.conj(h))),
    )
    pi = constraint_projector(c)
    algebra = max(
        float(np.linalg.norm(pi @ pi - pi)),
        float(np.linalg.norm(pi @ c)),
    )
    ok = resid < 1e-8 and algebra < 1e-10
    assert _report(
        2,
        "constraints after 1e4 live updates",
        ok,
        f"constraint residual {resid:.3e}, projector algebra {algebra:.3e}",
    )


def test_criterion_03_gradient_matches_finite_differences():
    rng = np.random.default_rng(103)
    dim = 10
    worst = 0.0
    for _ in range(100):
        y = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        w = rng.normal(size=dim) + 1j * rng.normal(size=dim)

        def cost(v):
            return float((abs(np.vdot(v, y)) ** 2 - 1.0) ** 2)

        z = np.vdot(w, y)
        grad = 4.0 * (abs(z) ** 2 - 1.0) * np.conj(z) * y
        scale = max(float(np.linalg.norm(grad)), 1.0)
        for _ in range(20):
            u = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            u /= np.linalg.norm(u)
            numeric = central_difference(cost, w, u, 1e-6)
            analytic = float(np.vdot(grad, u).real)
            rel = abs(numeric - analytic) / max(abs(analytic), 1e-6 * scale)
            worst = max(worst, rel)
    ok = worst < 1e-5
    assert _report(3, "stochastic gradient vs finite differences", ok, f"max relative error {worst:.3e}")


def test_criterion_04_inverse_power_distance_closed_form():
    rng = np.random.default_rng(104)
    dim, sigma2 = 12, 0.5
    lam = np.array([9.0, 4.0, 1.0]) * sigma2
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    r = q[:, :3] @ np.diag(lam) @ q[:, :3].conj().T + sigma2 * np.eye(dim)
    pn = noise_subspace_projector(r, 3)
    worst = 0.0
    dists = []
    for p in (1, 2, 3, 4):
        dist = float(np.linalg.norm(scaled_inverse_power(r, sigma2, p) - pn, ord=2))
        expected = float(np.max((1.0 + lam / sigma2) ** (-p)))
        worst = max(worst, abs(dist - expected))
        dists.append(dist)
    monotone = all(b < a for a, b in zip(dists, dists[1:]))
    ok = worst < 1e-10 and monotone
    assert _report(
        4,
        "inverse-power subspace distance",
        ok,
        f"max closed-form deviation {worst:.3e}, decreasing in p: {monotone}",
    )


def _recovery_instance(seed, sigma2):
    rng = np.random.default_rng(seed)
    gain, lp, users = 16, 3, 4
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
    return r, c, h


def test_criterion_05_blind_channel_recovery():
    worst_clean = 0.0
    mse_p1, mse_p2 = [], []
    sigma2_15db = Scenario(snr_db=15.0).noise_variance()
    for seed in range(20):
        r0, c, h = _recovery_instance(seed, 0.0)
        est = estimate_channel_exact(r0, c, power=1)
        worst_clean = max(worst_clean, _mse(est, h))
        r15, c, h = _recovery_instance(seed, sigma2_15db)
        mse_p1.append(
            _mse(estimate_channel_exact(r15, c, power=1), h)
        )
        mse_p2.append(
            _mse(estimate_channel_exact(r15, c, power=2), h)
        )
    avg1, avg2 = float(np.mean(mse_p1)), float(np.mean(mse_p2))
    ok = worst_clean < 1e-6 and avg2 <= avg1
    assert _report(
        5,
        "blind channel recovery",
        ok,
        f"noise-free worst MSE {worst_clean:.3e}, 15 dB p1 {avg1:.3e} vs p2 {avg2:.3e}",
    )


def test_criterion_06_sg_channel_tracker_converges():
    scn = Scenario(
        gain=32,
        users=8,
        n_paths=6,
        snr_db=15.0,
        packet_symbols=3000,
        algorithms=("trained-lms",),
        channel_estimator="sg",
        fading="off",
        doppler=0.0,
        step_channel=1e-3,
        psi_forgetting=0.998,
        ber_skip=500,
    ).validate()
    traces = []
    for r in range(20):
        tr = run_trial(scn, trial_seed(scn.master_seed, 0, r))
        traces.append(tr.channel_mse["channel-sg"])
    mean_trace = np.mean(traces, axis=0)
    smoothed = smooth_series(mean_trace, 200)
    final = float(smoothed[-1])
    increases = int(np.sum(np.diff(smoothed[200:]) > 1e-9))
    # fixed-matrix variant of the recursion against the eigendecomposition
    rng = np.random.default_rng(106)
    b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    omega = b @ b.conj().T + 0.1 * np.eye(6)
    psi_like = PsiEstimate(psi=omega.copy(), alpha=1.0, mu=0.0)
    start = canonical_phase(rng.normal(size=6) + 1j * rng.normal(size=6))
    start = start / np.linalg.norm(start)
    estimates, _ = sg_track(psi_like, np.eye(6, dtype=complex), np.zeros((6, 5000)), start)
    vector = estimates[:, -1]
    aligned = vector * np.exp(
        1j * np.angle(np.vdot(vector, min_eigenvector(omega)))
    )
    power_gap = float(np.linalg.norm(aligned - min_eigenvector(omega)))
    ok = final < 0.05 and increases == 0 and power_gap < 1e-4
    assert _report(
        6,
        "sg channel tracker",
        ok,
        f"final smoothed MSE {final:.4f}, increases after warmup {increases}, "
        f"fixed-matrix gap {power_gap:.2e}",
    )


def test_criterion_07_receiver_ordering_under_load_surge():
    scn = Scenario(
        gain=32,
        users=8,
        extra_users=6,
        extra_users_at=1500,
        n_paths=6,
        snr_db=15.0,
        packet_symbols=3000,
        algorithms=("ccm-sg", "cmv-sg", "trained-lms"),
        channel_estimator="svd",
        cov_forgetting=0.99,
        estimator_refresh=25,
        fading="clarke",
        doppler=1e-4,
        normalize_steps=True,
        nu=1.4,
        step_ccm=6e-3,
        step_cmv=1e-2,
        step_lms=2e-3,
        ber_skip=500,
    ).validate()
    rates = {alg: [] for alg in scn.algorithms}
    diverged = 0
    for r in range(20):
        tr = run_trial(scn, trial_seed(scn.master_seed, 0, r))
        diverged += sum(bool(v) for v in tr.diverged.values())
        for alg in scn.algorithms:
            tail = tr.bit_errors[alg][-300:]
            rates[alg].append(tail.sum() / (2.0 * tail.size))
    mean = {alg: float(np.mean(v)) for alg, v in rates.items()}
    hw = {alg: half_width(np.array(v)) for alg, v in rates.items()}
    gap_lms = mean["ccm-sg"] - mean["trained-lms"]
    gap_cmv = mean["cmv-sg"] - mean["ccm-sg"]
    pooled_lms = float(np.hypot(hw["ccm-sg"], hw["trained-lms"]))
    pooled_cmv = float(np.hypot(hw["cmv-sg"], hw["ccm-sg"]))
    ok = (
        diverged == 0
        and mean["trained-lms"] <= mean["ccm-sg"] < mean["cmv-sg"]
        and gap_lms > pooled_lms
        and gap_cmv > pooled_cmv
    )
    assert _report(
        7,
        "steady-state ordering trained <= ccm < cmv",
        ok,
        f"lms {mean['trained-lms']:.4f}, ccm {mean['ccm-sg']:.4f}, "
        f"cmv {mean['cmv-sg']:.4f}; gaps {gap_lms:.4f}>{pooled_lms:.4f}, "
        f"{gap_cmv:.4f}>{pooled_cmv:.4f}; diverged {diverged}",
    )


def test_criterion_08_exact_receiver_meets_analytic_bound():
    gain = 8
    sp = random_spreading_set(1, gain, "zero-padded", 2, seed=11)
    c, cbar = user_constraint_matrices(sp, 0, 1)
    details = []
    ok = True
    for point, snr_db in enumerate((0.0, 4.0, 8.0)):
        snr = 10.0 ** (snr_db / 10.0)
        sigma2 = 2.0 / snr
        h = np.array([1.0, 1.0], dtype=complex)
        u = c @ h
        v = cbar @ np.conj(h)
        r = 2.0 * (np.outer(u, u.conj()) + np.outer(v, v.conj())) + sigma2 * np.eye(len(u))
        zero = np.zeros(len(u), dtype=complex)
        w = constrained_quadratic_filter(r, zero, c, h)
        wbar = constrained_quadratic_filter(r, zero, cbar, np.conj(h))
        rng = np.random.default_rng(1080 + point)
        bits = 0
        errs = 0
        for _ in range(25):
            stream = SymbolStream(symbols=random_qpsk(2000, rng))
            ch = SpaceTimeChannel(taps=np.ones((2, 1, 1000)))
            y = simulate_packet([stream], sp, ch, sigma2, rng)
            z = np.empty(2000, dtype=complex)
            z[0::2], z[1::2] = w.conj() @ y, wbar.conj() @ y
            decided = detect(z)
            truth = stream.symbols
            errs += int(np.sum(np.sign(decided.real) != np.sign(truth.real)))
            errs += int(np.sum(np.sign(decided.imag) != np.sign(truth.imag)))
            bits += 2 * 2000
        ber = errs / bits
        theory = _qfunc(np.sqrt(2.0 * snr))
        margin = 3.0 * 1.96 * np.sqrt(max(ber, 1e-12) * (1.0 - ber) / bits)
        ok = ok and abs(ber - theory) <= margin
        details.append(f"{snr_db:g}dB {ber:.2e} vs {theory:.2e} (margin {margin:.1e})")
    assert _report(8, "analytic matched-filter anchor", ok, "; ".join(details))


def test_criterion_09_transmit_diversity_pays_off():
    base = Scenario(
        gain=32,
        users=1,
        n_paths=3,
        snr_db=15.0,
        packet_symbols=6000,
        algorithms=("ccm-sg",),
        fading="clarke",
        doppler=5e-4,
        channel_estimator="genie",
        ber_skip=1000,
        normalize_steps=False,
        step_ccm=1e-4,
        nu=1.4,
    )
    two = base.validate()
    one = base.replace(tx_antennas=1, amplitude=float(np.sqrt(2.0))).validate()
    runs = 50
    rates2, rates1 = [], []
    diverged = 0
    for r in range(runs):
        tr2 = run_trial(two, trial_seed(two.master_seed, 0, r))
        tr1 = run_trial(one, trial_seed(one.master_seed, 1, r))
        diverged += int(tr2.diverged["ccm-sg"]) + int(tr1.diverged["ccm-sg"])
        n = two.packet_symbols - two.ber_skip
        rates2.append(tr2.bit_errors["ccm-sg"][two.ber_skip :].sum() / (2.0 * n))
        rates1.append(tr1.bit_errors["ccm-sg"][one.ber_skip :].sum() / (2.0 * n))
    m2, m1 = float(np.mean(rates2)), float(np.mean(rates1))
    pooled = float(np.hypot(half_width(np.array(rates2)), half_width(np.array(rates1))))
    gap = m1 - m2
    ok = diverged == 0 and m2 < m1 and gap > pooled
    assert _report(
        9,
        "two-antenna diversity gain",
        ok,
        f"2tx {m2:.2e} vs 1tx {m1:.2e}, gap {gap:.2e} > pooled {pooled:.2e}, "
        f"diverged {diverged}",
    )


def test_criterion_10_block_model_matches_chip_oracle():
    rng = np.random.default_rng(110)
    worst = 0.0
    for trial in range(50):
        users = int(rng.integers(1, 4))
        gain = int(rng.choice([4, 8]))
        lp = int(rng.integers(1, 4))
        blocks = int(rng.integers(2, 4))
        scheme = "zero-padded" if trial % 2 == 0 else "sign-flipped"
        sp = random_spreading_set(users, gain, scheme, 2, seed=trial)
        powers = tuple([0.0, -3.0, -6.0][: min(lp, 3)])
        fd = float(rng.choice([0.0, 1e-3]))
        ch = random_multipath_channel(
            2, lp, blocks, fd, rng, relative_powers_db=powers, fading="clarke"
        )
        streams = [
            SymbolStream(
                symbols=random_qpsk(2 * blocks, rng),
                amplitude=float(rng.uniform(0.5, 2.0)),
            )
            for _ in range(users)
        ]
        fast = simulate_packet(streams, sp, ch, 0.0, rng, include_isi=True)
        slow = reference_received_blocks(streams, sp, ch)
        worst = max(worst, float(np.max(np.abs(fast - slow))))
    ok = worst < 1e-12
    assert _report(10, "block model vs chip-level oracle", ok, f"max mismatch {worst:.3e}")
