"""Trial seeding, metric pooling, and sweep bookkeeping."""

import os
import warnings

import numpy as np
import pytest

from stcdma import channel_estimation, harness
from stcdma.channel_estimation import CovarianceEstimate, PsiEstimate, align_phase, sg_track
from stcdma.errors import ConditioningError
from stcdma.receivers import constraint_projector
from stcdma.harness import (
    channel_mse,
    half_width,
    run_trial,
    smooth_series,
    sweep,
    trial_seed,
)
from stcdma.scenario import ALGORITHMS, Scenario, parse_scenario_file

from adapt_reference import reference_adapt

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def _tiny_scenario(**overrides):
    base = dict(
        gain=8,
        users=2,
        n_paths=2,
        snr_db=12.0,
        packet_symbols=200,
        algorithms=("ccm-sg",),
        channel_estimator="genie",
        doppler=0.0,
        fading="off",
        ber_skip=50,
        step_ccm=1e-3,
    )
    base.update(overrides)
    return Scenario(**base).validate()


def test_trial_seed_is_counter_based():
    a = trial_seed(7, 1, 2)
    b = trial_seed(7, 1, 2)
    c = trial_seed(7, 1, 3)
    assert a.entropy == b.entropy
    assert a.entropy != c.entropy
    assert np.random.default_rng(a).integers(1 << 30) == np.random.default_rng(
        b
    ).integers(1 << 30)


def test_run_trial_is_deterministic():
    scn = _tiny_scenario()
    one = run_trial(scn, trial_seed(scn.master_seed, 0, 0))
    two = run_trial(scn, trial_seed(scn.master_seed, 0, 0))
    assert np.array_equal(one.bit_errors["ccm-sg"], two.bit_errors["ccm-sg"])
    other = run_trial(scn, trial_seed(scn.master_seed, 0, 1))
    assert not np.array_equal(one.bit_errors["ccm-sg"], other.bit_errors["ccm-sg"])


def test_run_trial_output_shapes():
    scn = _tiny_scenario(algorithms=("ccm-sg", "trained-lms"), channel_estimator="sg")
    tr = run_trial(scn, 5)
    for alg in ("ccm-sg", "trained-lms"):
        errs = tr.bit_errors[alg]
        assert errs.shape == (200,)
        assert errs.dtype == np.uint8
        assert errs.max() <= 2
        assert alg in tr.diverged
    assert tr.channel_mse["channel-sg"].shape == (200,)
    assert "channel-sg" in tr.diverged


def test_genie_estimator_reports_no_mse_series():
    tr = run_trial(_tiny_scenario(), 5)
    assert tr.channel_mse == {}


def test_noise_free_single_user_is_error_free():
    scn = _tiny_scenario(
        users=1,
        snr_db=200.0,
        channel_profile="flat",
        n_paths=1,
        algorithms=("cmv-exact",),
        filter_refresh=10,
        ber_skip=100,
    )
    tr = run_trial(scn, 1)
    assert tr.bit_errors["cmv-exact"][100:].sum() == 0
    assert not tr.diverged["cmv-exact"]


def test_oversized_filter_step_flags_divergence():
    scn = _tiny_scenario(step_ccm=50.0, snr_db=5.0)
    tr = run_trial(scn, 3)
    assert tr.diverged["ccm-sg"]
    assert tr.bit_errors["ccm-sg"].shape == (200,)


def test_oversized_filter_step_flags_divergence_with_one_antenna():
    scn = _tiny_scenario(tx_antennas=1, step_ccm=50.0, snr_db=5.0)
    tr = run_trial(scn, 3)
    assert tr.diverged["ccm-sg"]
    assert tr.bit_errors["ccm-sg"].shape == (200,)


# The filter bound acts on every step through the norm recursion.  One
# trained-LMS step with step size 1 from the zero filter, on the observation
# w with training symbol 1, leaves the filter w.
@pytest.mark.parametrize(
    "w,ok",
    [
        ([np.nan, 0], False),
        ([0, np.inf], False),
        ([-np.inf, 0], False),
        ([complex(0, np.nan), 0], False),
        ([1e6, 0], False),
        ([6e5, 8e5], False),
        ([6e5, 7.9e5j], True),
    ],
)
def test_filter_bound_checks_finiteness_and_norm(w, ok):
    scn = Scenario(tx_antennas=1, packet_symbols=2, step_lms=1.0, ber_skip=0).validate()
    ys = [np.array([w, [0, 0]], dtype=complex).T]
    outputs, diverged, filters = harness._adapt(
        "trained-lms", scn, ys, [], np.ones(2, dtype=complex), (np.zeros((2, 1)),)
    )
    assert diverged == (not ok)
    assert np.array_equal(filters[0, 0], np.array(w, dtype=complex) if ok else np.zeros(2))
    # The zero filter's output on w is 0, or NaN where w has an inf or NaN.
    assert np.array_equal(outputs[1], [[0]])
    assert np.isfinite(outputs[0, 0, 0]) == bool(np.all(np.isfinite(w)))


_CLEAN = {}


def _clean_inputs(tx, rx=1, **overrides):
    """The arguments run_trial passes to harness._adapt for every algorithm,
    on a tiny genie-channel trial at seed 3: {alg: [scn, ys, ests, truth, cs]}.
    The genie channel does not depend on the packet, so a test may poison the
    observations and adapt on them directly."""
    key = (tx, rx, tuple(sorted(overrides.items())))
    if key not in _CLEAN:
        scn = _tiny_scenario(tx_antennas=tx, rx_antennas=rx, algorithms=ALGORITHMS, **overrides)
        calls = {}
        real = harness._adapt

        def recording(alg, scn, *args):
            calls[alg] = [scn, *args]
            return real(alg, scn, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "_adapt", recording)
            run_trial(scn, 3)
        _CLEAN[key] = calls
    return {alg: list(args) for alg, args in _CLEAN[key].items()}


def _poisoned(args, antenna, step, column):
    """A copy of _adapt's arguments with one observation column replaced."""
    args = list(args)
    args[1] = [y.copy() for y in args[1]]
    args[1][antenna][:, step] = column
    return args


def _nonfinite_column(y, branch, nb, value):
    """The observation with ``value`` in the first entry of the branch's slot
    (its half of a two-antenna block)."""
    y = y.copy()
    y[branch * (y.shape[0] // nb)] = value
    return y


def _jump_column(alg, scn, cs, w, y, branch, target):
    """The observation, scaled so that the step on it moves the branch's
    filter w by about ``target``.

    With two sg branches the observation is first projected onto the range
    of the other branch's constraint matrix, so the other branch's
    null-space part does not move.  The move is g a^(p+1) |w^H y|^p ||P y||
    for a scale a, with p = 3 for ccm-sg and 1 for cmv-sg and LMS.
    """
    if alg == "trained-lms":
        p_y, g, p = y, scn.step_lms, 1
    else:
        if len(cs) == 2:
            other = cs[1 - branch]
            y = other @ np.linalg.lstsq(other, y, rcond=None)[0]
        p_y = constraint_projector(cs[branch]) @ y
        g, p = (scn.step_ccm, 3) if alg == "ccm-sg" else (scn.step_cmv, 1)
    assert not scn.normalize_steps
    z = abs(np.vdot(w[branch], y))
    return (target / (g * z**p * np.linalg.norm(p_y))) ** (1.0 / (p + 1)) * y


def _assert_matches_reference(alg, args):
    """harness._adapt and the per-step reference on the same arguments give
    the same divergence, the same non-finite outputs, and outputs and final
    filters within rounding.  Returns the reference run."""
    outputs, diverged, filters = harness._adapt(alg, *args)
    ref = reference_adapt(alg, *args)
    assert diverged == ref.diverged
    finite = np.isfinite(ref.outputs)
    assert np.array_equal(np.isfinite(outputs), finite)
    tol = 1e-6 if alg.endswith("-exact") else 1e-10
    scale = np.max(np.abs(ref.outputs[finite]))
    assert np.max(np.abs(outputs[finite] - ref.outputs[finite])) <= tol * scale
    assert np.max(np.abs(filters - ref.filters)) <= tol * np.max(np.abs(ref.filters))
    return ref


# (tx antennas, branch): two branches per block with two transmit antennas,
# one per symbol with one.
BRANCHES = [(2, 0), (2, 1), (1, 0)]
BRANCH_IDS = ["w", "wbar", "1tx"]


def _bad_column(alg, args, tx, branch, value, step=20):
    """Column ``step`` of antenna 0 poisoned with a non-finite ``value``, or,
    for a finite one, scaled so the branch's filter moves by 2 * value."""
    scn, ys, _, _, cs = args
    y = ys[0][:, step]
    if np.isfinite(value):
        w = reference_adapt(alg, *args).history[step, 0]
        return _jump_column(alg, scn, cs, w, y, branch, 2 * value)
    return _nonfinite_column(y, branch, len(cs), value)


# A poisoned observation fails its own step on both antenna counts, and the
# packet's bit errors keep their full length.
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e6])
@pytest.mark.parametrize(
    "tx,branch", BRANCHES, ids=["2tx-w", "2tx-wbar", "1tx"]
)
def test_bad_filter_stops_adaptation_on_both_paths(tx, branch, value):
    args = _clean_inputs(tx)["trained-lms"]
    args = _poisoned(args, 0, 20, _bad_column("trained-lms", args, tx, branch, value))
    ref = _assert_matches_reference("trained-lms", args)
    assert ref.failed == (20, 0)
    outputs, diverged, _ = harness._adapt("trained-lms", *args)
    assert diverged
    assert harness._packet_errors(outputs, args[3], args[0].combiner).shape == (200,)


@pytest.mark.parametrize("tx", [1, 2])
def test_filter_below_limit_keeps_adapting(tx):
    args = _clean_inputs(tx)["trained-lms"]
    scn, ys, _, _, cs = args
    w = reference_adapt("trained-lms", *args).history[20, 0]
    column = min(
        (_jump_column("trained-lms", scn, cs, w, ys[0][:, 20], b, 5e5) for b in range(len(cs))),
        key=np.linalg.norm,
    )
    ref = _assert_matches_reference("trained-lms", _poisoned(args, 0, 20, column))
    assert not ref.diverged
    assert 1e5 < np.max(np.linalg.norm(ref.history, axis=-1)) < 1e6


SG_ALGS = ["ccm-sg", "cmv-sg"]


# On a bad step the update is undone, so the rest of the packet runs on the
# filters from before it: those of the clean packet at that step.
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e6])
@pytest.mark.parametrize("tx,branch", BRANCHES, ids=BRANCH_IDS)
@pytest.mark.parametrize("alg", SG_ALGS, ids=["ccm", "cmv"])
def test_bad_sg_filter_stops_adaptation_at_that_block(alg, tx, branch, value):
    clean = _clean_inputs(tx)[alg]
    args = _poisoned(clean, 0, 20, _bad_column(alg, clean, tx, branch, value))
    ref = _assert_matches_reference(alg, args)
    assert ref.failed == (20, 0)
    frozen = reference_adapt(alg, *clean).history[20, 0]
    outputs, _, filters = harness._adapt(alg, *args)
    later = frozen.conj() @ args[1][0][:, 21:]
    assert np.allclose(outputs[21:, 0].T, later, rtol=1e-12, atol=1e-12)
    assert np.allclose(filters[0], frozen, rtol=1e-12, atol=1e-12)


# ccm's gradient is cubic in the output, so a 5e5 filter blows up on the next
# step by itself; its control sits on the last step.
@pytest.mark.parametrize("tx,branch", BRANCHES, ids=BRANCH_IDS)
@pytest.mark.parametrize("alg,step", [("ccm-sg", -1), ("cmv-sg", 20)], ids=["ccm", "cmv"])
def test_sg_filter_below_limit_keeps_adapting(alg, step, tx, branch):
    args = _clean_inputs(tx)[alg]
    scn, ys, _, _, cs = args
    step %= ys[0].shape[1]
    w = reference_adapt(alg, *args).history[step, 0]
    column = _jump_column(alg, scn, cs, w, ys[0][:, step], branch, 5e5)
    ref = _assert_matches_reference(alg, _poisoned(args, 0, step, column))
    assert not ref.diverged
    assert 1e5 < np.linalg.norm(ref.filters[0, branch]) < 1e6


def test_sg_steps_run_once_per_block_per_receive_antenna():
    """One step per block with two transmit antennas, per symbol with one, on
    each receive antenna: the chunked outputs are the per-step reference's."""
    for tx, steps in ((2, 100), (1, 200)):
        inputs = _clean_inputs(tx, rx=2)
        for alg in SG_ALGS:
            outputs, diverged, _ = harness._adapt(alg, *inputs[alg])
            assert outputs.shape == (steps, 2, tx)
            assert not diverged
            _assert_matches_reference(alg, inputs[alg])


# Every algorithm on a clean packet, and with forgetting, refresh and
# normalized steps that the tiny default leaves out.
@pytest.mark.parametrize("alg", ALGORITHMS)
@pytest.mark.parametrize(
    "tx,overrides",
    [
        (2, {}),
        (1, {}),
        (2, dict(normalize_steps=True, step_ccm=0.01, step_cmv=0.01, filter_refresh=7, cov_forgetting=0.97)),
        (1, dict(normalize_steps=True, step_ccm=0.01, step_cmv=0.01, filter_refresh=7, cov_forgetting=1.0)),
    ],
    ids=["2tx", "1tx", "2tx-normalized", "1tx-normalized"],
)
def test_chunked_receivers_match_per_step_reference(alg, tx, overrides):
    args = _clean_inputs(tx, rx=2, fading="clarke", doppler=0.01, **overrides)[alg]
    assert args[1][0].shape[1] % harness._CHUNK != 0
    ref = _assert_matches_reference(alg, args)
    assert not ref.diverged


# Oversized steps grow the filter step by step until the bound fails, in the
# first chunk or a later one; rows past the failure hold huge values that
# must not leak into earlier ones.
@pytest.mark.parametrize(
    "alg,tx,step,failing",
    [
        ("ccm-sg", 1, 1.0, 17),
        ("ccm-sg", 1, 0.5, 55),
        ("ccm-sg", 2, 0.03, 60),
        ("cmv-sg", 2, 1.0, 21),
        ("cmv-sg", 2, 0.55, 71),
        ("cmv-sg", 1, 3.0, 88),
        ("trained-lms", 1, 1.3, 44),
        ("trained-lms", 2, 0.37, 67),
        ("trained-lms", 1, 1.1, 137),
    ],
)
def test_oversized_steps_diverge_where_the_reference_does(alg, tx, step, failing):
    key = {"ccm-sg": "step_ccm", "cmv-sg": "step_cmv", "trained-lms": "step_lms"}[alg]
    ref = _assert_matches_reference(alg, _clean_inputs(tx, **{key: step})[alg])
    assert ref.failed == (failing, 0)


# Which antenna fails first, as (antenna 0's, antenna 1's) poisoned step
# relative to the placement.
FIRST_FAILURES = {"antenna1-first": (12, 0), "antenna0-first": (0, 12), "same-step": (0, 0)}


@pytest.mark.parametrize("place", [20, 63, 64, 75], ids=["first-chunk", "chunk-end", "chunk-start", "later-chunk"])
@pytest.mark.parametrize("case", FIRST_FAILURES)
@pytest.mark.parametrize("alg", ALGORITHMS)
@pytest.mark.parametrize("tx", [1, 2])
def test_two_antenna_divergence_freezes_both_in_loop_order(tx, alg, case, place):
    """The first failing (step, antenna) in step order and then antenna order
    freezes both antennas: the earlier antenna keeps that step's update, the
    failing one and the later one keep their filters from before it.  An exact
    receiver fails at the refresh that ends the poisoned window."""
    args = _clean_inputs(tx, rx=2, filter_refresh=5)[alg]
    steps = [place + offset for offset in FIRST_FAILURES[case]]
    for m, step in enumerate(steps):
        args = _poisoned(args, m, step, _nonfinite_column(args[1][m][:, step], 0, 1, np.nan))
    if alg.endswith("-exact"):
        refresh = 5 * (3 - tx)
        steps = [(s // refresh + 1) * refresh - 1 for s in steps]
    expected = min((s, m) for m, s in enumerate(steps))
    ref = _assert_matches_reference(alg, args)
    assert ref.failed == expected


# normalize_steps divides the ccm-sg and cmv-sg steps by the input power on
# both antenna counts.  With 12 users at 6 dB a step of 0.01 is too large
# unnormalized, so flipping the flag moves the bit errors.  Trained LMS is
# the paper's plain LMS baseline and ignores the flag: its bit errors and
# divergence flag stay identical.
@pytest.mark.parametrize("alg", ["ccm-sg", "cmv-sg", "trained-lms"])
@pytest.mark.parametrize("tx", [1, 2])
def test_normalize_steps_changes_sg_receivers(tx, alg):
    base = dict(
        users=12,
        snr_db=6.0,
        packet_symbols=2000,
        tx_antennas=tx,
        algorithms=(alg,),
        channel_estimator="genie",
        step_ccm=0.01,
        step_cmv=0.01,
    )
    trials = {
        flag: run_trial(Scenario(**base, normalize_steps=flag).validate(), 5)
        for flag in (False, True)
    }
    same = np.array_equal(trials[False].bit_errors[alg], trials[True].bit_errors[alg])
    if alg == "trained-lms":
        assert same
        assert trials[False].diverged == trials[True].diverged
    else:
        assert not same


# At 0 dB the two antennas' output energies differ enough for mrc and egc to
# decide some symbols differently; at 6 dB seed 1 both make the same errors.
@pytest.mark.parametrize("tx", [1, 2])
def test_two_receive_antennas_under_both_combiners(tx):
    results = {
        combiner: run_trial(
            _tiny_scenario(tx_antennas=tx, rx_antennas=2, combiner=combiner, snr_db=0.0), 1
        )
        for combiner in ("mrc", "egc")
    }
    for tr in results.values():
        assert tr.bit_errors["ccm-sg"].shape == (200,)
        assert not tr.diverged["ccm-sg"]
    assert not np.array_equal(
        results["mrc"].bit_errors["ccm-sg"], results["egc"].bit_errors["ccm-sg"]
    )


# Known trained-LMS divergences after the load surge (the CLI exits 2 at these
# seeds): the LMS step is not normalized, and in these trials step_lms times
# the post-surge input power exceeds 2.  This pins behaviour, not a fix: only
# trained-lms diverges and every error series keeps its full length.
@pytest.mark.parametrize(
    "seed", [(31, 0, 9), (202, 0, 2), (312, 0, 0)], ids=["seed31-run9", "seed202-run2", "seed312-run0"]
)
def test_load_surge_known_lms_divergences(seed):
    scn = parse_scenario_file(os.path.join(CONFIGS, "load_surge.cfg"))
    tr = run_trial(scn, trial_seed(*seed))
    assert tr.diverged == {
        "channel-svd": False, "ccm-sg": False, "cmv-sg": False, "trained-lms": True
    }
    assert all(errs.shape == (3000,) for errs in tr.bit_errors.values())


def test_oversized_channel_step_flags_tracking_divergence():
    scn = _tiny_scenario(
        algorithms=("trained-lms",), channel_estimator="sg", step_channel=30.0,
        snr_db=5.0,
    )
    tr = run_trial(scn, 3)
    assert tr.diverged["channel-sg"]
    assert np.all(np.isfinite(tr.channel_mse["channel-sg"]))


def _eigh_estimate(r, c, power, ridge, cap=1e12):
    """Minimum eigenvector of C^H (R + ridge I)^-power C, the loaded spectrum
    floored at its maximum over ``cap``, by full eigendecompositions."""
    vals, vecs = np.linalg.eigh((r + r.conj().T) / 2 + ridge * np.eye(r.shape[0]))
    vals = np.maximum(vals, vals.max() / cap)
    quad = c.conj().T @ (vecs * vals ** -float(power)) @ vecs.conj().T @ c
    qvals, qvecs = np.linalg.eigh((quad + quad.conj().T) / 2)
    return qvecs[:, np.argmin(qvals)]


def _reference_svd_trace(scn, c, y, true):
    """The svd tracker one observation at a time: a sequential covariance
    update per column and a fresh estimate at every observation of a refresh
    block, each block keeping its last estimate."""
    per_block = y.shape[1] // scn.blocks
    cov = CovarianceEstimate(c.shape[0], forgetting=scn.cov_forgetting)
    trace = np.empty((c.shape[1], scn.blocks), dtype=complex)
    for t in range(y.shape[1]):
        b = t // per_block
        cov.update(y[:, t])
        if b == 0 or (b + 1) % scn.estimator_refresh == 0:
            vec = _eigh_estimate(cov.matrix, c, scn.subspace_power, scn.ridge)
        trace[:, b] = align_phase(vec, true[:, b])
    return trace


def _synthetic_packet(per_block, blocks, seed, dim=12, cdim=3, interferers=3):
    """A desired signature C h under QPSK, interferers and noise: the
    (dim, cdim) constraint, the (dim, blocks * per_block) observations and the
    (cdim, blocks) true channel."""
    rng = np.random.default_rng(seed)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def qpsk(rows, cols):
        return (rng.choice([-1.0, 1.0], (rows, cols)) + 1j * rng.choice([-1.0, 1.0], (rows, cols))) / np.sqrt(2)

    n = blocks * per_block
    c = gaussian(dim, cdim)
    h = gaussian(cdim)
    h /= np.linalg.norm(h)
    y = np.outer(c @ h, qpsk(1, n)[0]) + 0.5 * gaussian(dim, interferers) @ qpsk(interferers, n)
    y += 0.1 * gaussian(dim, n)
    return c, y, np.repeat(h[:, None], blocks, axis=1)


@pytest.mark.parametrize("forgetting", [0.98, 1.0])
@pytest.mark.parametrize("refresh", [1, 7, 25])
@pytest.mark.parametrize("tx", [1, 2])
def test_windowed_svd_tracker_matches_per_observation_reference(tx, refresh, forgetting):
    scn = _tiny_scenario(
        tx_antennas=tx, channel_estimator="svd", estimator_refresh=refresh, cov_forgetting=forgetting
    )
    c, y, true = _synthetic_packet(3 - tx, scn.blocks, seed=refresh)
    trace, diverged = harness._track_svd(scn, c, y, true)
    reference = _reference_svd_trace(scn, c, y, true)
    assert not diverged
    assert trace.shape == reference.shape == (c.shape[1], scn.blocks)
    # Until a refresh has folded at least dim observations, the covariance is
    # rank deficient (rank one at block 0) and the loaded matrix has a
    # condition number near 1e8-1e9, so rounding moves those estimates more.
    per_block = y.shape[1] // scn.blocks
    full_rank = next(
        b for b in range(scn.blocks)
        if (b == 0 or (b + 1) % refresh == 0) and (b + 1) * per_block >= c.shape[0]
    )
    assert np.max(np.abs(trace[:, :full_rank] - reference[:, :full_rank])) < 1e-6
    assert np.max(np.abs(trace[:, full_rank:] - reference[:, full_rank:])) < 1e-10


@pytest.mark.parametrize("failing", [0, 3])
@pytest.mark.parametrize("tx", [1, 2])
def test_failing_svd_refresh_freezes_the_last_estimate(monkeypatch, tx, failing):
    scn = _tiny_scenario(
        tx_antennas=tx, algorithms=ALGORITHMS, channel_estimator="svd", estimator_refresh=10,
        filter_refresh=10, fading="clarke", doppler=0.002,
    )
    real_estimate = harness.estimate_channel_exact
    real_track = harness._track_svd
    returned, tracked = [], []

    def failing_estimate(*args, **kwargs):
        if len(returned) == failing:
            raise ConditioningError("refresh failed")
        est = real_estimate(*args, **kwargs)
        returned.append(est)
        return est

    def recording_track(scn, c, y, true):
        out = real_track(scn, c, y, true)
        tracked.append((c, true, *out))
        return out

    monkeypatch.setattr(harness, "estimate_channel_exact", failing_estimate)
    monkeypatch.setattr(harness, "_track_svd", recording_track)
    tr = run_trial(scn, 3)
    assert tr.diverged["channel-svd"]
    [(c, true, trace, diverged)] = tracked
    assert diverged
    # Refreshes run at blocks 0, 9, 19, ...; the one that fails, and every
    # block after the last good refresh, keeps the last good estimate (the
    # start vector when the first refresh fails).
    held_from = 0 if failing <= 1 else 10 * (failing - 1) - 1
    last = returned[-1] if returned else np.ones(c.shape[1], dtype=complex) / np.sqrt(c.shape[1])
    for b in range(held_from, scn.blocks):
        assert np.allclose(trace[:, b], align_phase(last, true[:, b]), rtol=0, atol=1e-12)
    assert np.all(np.isfinite(tr.channel_mse["channel-svd"]))
    assert sorted(tr.bit_errors) == sorted(ALGORITHMS)
    assert all(errs.shape == (scn.packet_symbols,) for errs in tr.bit_errors.values())


def _reference_sg_estimates(c, y, alpha, mu):
    """The sg tracker one observation at a time: the psi recursion, its norm
    check, then one channel step on C^H psi.  Returns every observation's
    estimate and the index of the step that diverged, or None."""
    dim = c.shape[1]
    psi = c.astype(complex)
    h = np.ones(dim, dtype=complex) / np.sqrt(dim)
    estimates = np.empty((dim, y.shape[1]), dtype=complex)
    for t in range(y.shape[1]):
        yt = y[:, t]
        psi = alpha * psi + mu * (psi - np.outer(yt, yt.conj() @ psi))
        norm = np.linalg.norm(psi)
        if not np.isfinite(norm) or norm > 1e6:
            estimates[:, t:] = h[:, None]
            return estimates, t
        omega = c.conj().T @ psi
        trace = np.trace(omega)
        if abs(trace) >= 1e-300:
            g = h - (omega @ h) / trace
            g_norm = np.linalg.norm(g)
            if np.isfinite(g_norm) and g_norm != 0.0:
                h = g / g_norm
        estimates[:, t] = h
    return estimates, None


def _sg_case(tx, forgetting, step, seed):
    scn = _tiny_scenario(
        tx_antennas=tx, channel_estimator="sg", psi_forgetting=forgetting, step_channel=step,
        packet_symbols=300,
    )
    c, y, true = _synthetic_packet(3 - tx, scn.blocks, seed=seed)
    start = np.ones(c.shape[1], dtype=complex) / np.sqrt(c.shape[1])
    psi = PsiEstimate.from_constraints(c, alpha=forgetting, mu=step)
    estimates, diverged = sg_track(psi, c, y, start)
    reference, failed = _reference_sg_estimates(c, y, forgetting, step)
    return scn, c, y, true, estimates, diverged, reference, failed


@pytest.mark.parametrize("step", [1e-3, 2e-2])
@pytest.mark.parametrize("forgetting", [0.95, 0.998, 1.0])
@pytest.mark.parametrize("tx", [1, 2])
def test_chunked_sg_tracker_matches_per_observation_reference(tx, forgetting, step):
    scn, c, y, true, estimates, diverged, reference, failed = _sg_case(tx, forgetting, step, seed=11)
    assert y.shape[1] % channel_estimation._SG_CHUNK != 0
    assert y.shape[1] > 2 * channel_estimation._SG_CHUNK
    assert failed is None and not diverged
    assert np.max(np.abs(estimates - reference)) < 1e-12
    # The harness keeps each block's last estimate, phase-aligned.
    trace, tracked_diverged = harness._track_sg(scn, c, y, true)
    per_block = y.shape[1] // scn.blocks
    expected = align_phase(reference[:, per_block - 1 :: per_block], true)
    assert not tracked_diverged
    assert np.max(np.abs(trace - expected)) < 1e-12


@pytest.mark.parametrize(
    "tx,forgetting,step,seed,failing",
    [
        (1, 0.998, 0.08, 3, 17),
        (1, 0.998, 0.05, 998, 258),
        (2, 0.95, 0.06, 998, 88),
        (2, 0.998, 0.05, 950, 65),
    ],
)
def test_diverging_sg_tracker_holds_the_reference_estimate(tx, forgetting, step, seed, failing):
    """An oversized step fails at the reference's observation, in the first
    chunk or a later one, and that column and every later one hold the last
    good estimate."""
    _, _, y, _, estimates, diverged, reference, failed = _sg_case(tx, forgetting, step, seed)
    assert failed == failing
    assert diverged
    assert np.max(np.abs(estimates - reference)) < 1e-12
    held = estimates[:, failing - 1]
    assert np.array_equal(estimates[:, failing:], np.repeat(held[:, None], y.shape[1] - failing, axis=1))
    assert not np.allclose(held, estimates[:, failing - 2], rtol=0, atol=1e-12)


def test_smooth_series_matches_loop():
    rng = np.random.default_rng(0)
    x = rng.random(50)
    out = smooth_series(x, 8)
    for i in range(50):
        lo = max(i - 7, 0)
        assert np.isclose(out[i], x[lo : i + 1].mean())
    assert np.allclose(smooth_series(x, 1), x)
    with pytest.raises(ValueError):
        smooth_series(x, 0)


def test_half_width_formula():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    expected = 1.96 * x.std(ddof=1) / 2.0
    assert np.isclose(half_width(x), expected)
    assert half_width(np.array([5.0])) == 0.0
    assert half_width(np.array([])) == 0.0


def test_channel_mse_matches_scalar_metric():
    rng = np.random.default_rng(1)
    est = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
    ref = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
    out = channel_mse(est, ref)
    # the squared distance to the unit reference after the best common phase
    refn = ref / np.linalg.norm(ref, axis=0)
    oracle = [np.linalg.norm(align_phase(est[:, t], refn[:, t]) - refn[:, t]) ** 2 for t in range(9)]
    assert np.allclose(out, oracle)
    # perfect unit estimate up to phase scores zero
    col = ref[:, 0] / np.linalg.norm(ref[:, 0])
    both = np.stack([col * np.exp(0.3j)], axis=1)
    assert channel_mse(both, ref[:, :1])[0] < 1e-12
    with pytest.raises(ValueError):
        channel_mse(est[:, :3], ref)
    with pytest.raises(ValueError):
        channel_mse(est[:, :1], np.zeros((6, 1)))


def test_sweep_symbols_axis_rows():
    scn = _tiny_scenario(algorithms=("ccm-sg", "trained-lms"))
    series = sweep(scn, "symbols", [0, 99, 199], runs=3, smooth_window=50)
    assert series.axis == "symbols"
    assert len(series.seed_hash) == 12
    assert len(series.rows) == 6  # 2 algorithms x 3 grid points
    values = [(r.axis_value, r.algorithm, r.metric) for r in series.rows]
    assert values == sorted(values)
    assert all(r.runs == 3 for r in series.rows)
    assert all(r.metric == "ber" for r in series.rows)
    assert all(0.0 <= r.mean <= 1.0 for r in series.rows)


def test_sweep_symbols_includes_channel_series():
    scn = _tiny_scenario(algorithms=("ccm-sg",), channel_estimator="sg")
    series = sweep(scn, "symbols", [50, 150], runs=2)
    names = {(r.algorithm, r.metric) for r in series.rows}
    assert ("channel-sg", "mse") in names
    assert ("ccm-sg", "ber") in names


def test_sweep_matches_manual_pooling():
    scn = _tiny_scenario()
    series = sweep(scn, "snr", [8.0], runs=4)
    rates = []
    for r in range(4):
        tr = run_trial(scn.replace(snr_db=8.0), trial_seed(scn.master_seed, 0, r))
        rates.append(tr.bit_errors["ccm-sg"][50:].sum() / (2.0 * 150))
    row = series.rows[0]
    assert np.isclose(row.mean, np.mean(rates))
    assert np.isclose(row.half_width, half_width(np.array(rates)))


def test_sweep_users_axis_replaces_user_count():
    scn = _tiny_scenario(extra_users=1, extra_users_at=100)
    with pytest.warns(UserWarning):
        series = sweep(scn, "users", [1, 3], runs=2)
    assert {r.axis_value for r in series.rows} == {1.0, 3.0}
    assert all(r.metric == "ber" for r in series.rows)


def test_sweep_users_axis_warns_that_extra_users_are_dropped():
    scn = _tiny_scenario(extra_users=1, extra_users_at=100)
    with pytest.warns(UserWarning, match="extra_users = 1"):
        series = sweep(scn, "users", [2], runs=1)
    assert [r.axis_value for r in series.rows] == [2.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        sweep(_tiny_scenario(), "users", [2], runs=1)


def test_sweep_rejects_bad_arguments():
    scn = _tiny_scenario()
    with pytest.raises(ValueError):
        sweep(scn, "power", [1], runs=1)
    with pytest.raises(ValueError):
        sweep(scn, "snr", [], runs=1)
    with pytest.raises(ValueError):
        sweep(scn, "symbols", [500], runs=1)
    with pytest.raises(ValueError):
        sweep(scn, "snr", [8.0], runs=0)


def test_sweep_counts_diverged_trials():
    scn = _tiny_scenario(step_ccm=50.0, snr_db=5.0)
    series = sweep(scn, "snr", [5.0], runs=2)
    assert series.diverged_trials == 2


def test_sweep_counts_a_trial_with_two_diverged_series_once():
    scn = _tiny_scenario(
        channel_estimator="sg", step_channel=30.0, step_ccm=50.0, snr_db=5.0
    )
    for r in range(2):
        tr = run_trial(scn, trial_seed(scn.master_seed, 0, r))
        assert tr.diverged == {"channel-sg": True, "ccm-sg": True}
    series = sweep(scn, "snr", [5.0], runs=2)
    assert series.diverged_trials == 2


def test_sweep_parallel_matches_serial():
    scn = _tiny_scenario(algorithms=("ccm-sg", "cmv-sg"))
    serial = sweep(scn, "snr", [6.0, 12.0], runs=2, workers=1)
    parallel = sweep(scn, "snr", [6.0, 12.0], runs=2, workers=2)
    assert serial.rows == parallel.rows
    assert serial.seed_hash == parallel.seed_hash
