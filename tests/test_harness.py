"""Trial seeding, metric pooling, and sweep bookkeeping."""

import os
import warnings

import numpy as np
import pytest

from stcdma import harness
from stcdma.channel_estimation import align_phase
from stcdma.harness import (
    channel_mse,
    half_width,
    run_trial,
    smooth_series,
    sweep,
    trial_seed,
)
from stcdma.scenario import Scenario, parse_scenario_file

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
    assert harness._bounded(np.array(w, dtype=complex)) == ok


def _poison_step(monkeypatch, name, call, branch, value):
    """Make the given call of harness.<name> (a receiver step, which returns
    new per-branch filters) put `value` into one branch's filter."""
    real = getattr(harness, name)
    calls = []

    def step(ws, *args, **kwargs):
        calls.append(None)
        out = real(ws, *args, **kwargs)
        if len(calls) == call + 1:
            bad = out[branch].copy()
            bad[0] = value
            out[branch] = bad
        return out

    monkeypatch.setattr(harness, name, step)
    return calls


def _freeze_step(monkeypatch, name, call):
    """Make harness.<name> leave the filters as they are from the given call on."""
    real = getattr(harness, name)
    calls = []

    def step(ws, *args, **kwargs):
        calls.append(None)
        return real(ws, *args, **kwargs) if len(calls) <= call else ws

    monkeypatch.setattr(harness, name, step)


# (tx antennas, branch): two branches per block with two transmit antennas,
# one per symbol with one.
BRANCHES = [(2, 0), (2, 1), (1, 0)]
BRANCH_IDS = ["w", "wbar", "1tx"]


# One step call updates every branch of a block (of a symbol with one
# transmit antenna), and its filters are checked once it returns.
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e6])
@pytest.mark.parametrize(
    "tx,branch", BRANCHES, ids=["2tx-w", "2tx-wbar", "1tx"]
)
def test_bad_filter_stops_adaptation_on_both_paths(monkeypatch, tx, branch, value):
    calls = _poison_step(monkeypatch, "trained_lms_step", 20, branch, value)
    tr = run_trial(_tiny_scenario(tx_antennas=tx, algorithms=("trained-lms",)), 3)
    assert tr.diverged["trained-lms"]
    assert tr.bit_errors["trained-lms"].shape == (200,)
    assert len(calls) == 21


@pytest.mark.parametrize("tx", [1, 2])
def test_filter_below_limit_keeps_adapting(monkeypatch, tx):
    calls = _poison_step(monkeypatch, "trained_lms_step", 20, 0, 5e5)
    tr = run_trial(_tiny_scenario(tx_antennas=tx, algorithms=("trained-lms",)), 3)
    assert not tr.diverged["trained-lms"]
    assert len(calls) == 200 // tx


SG_STEPS = [("ccm_sg_step", "ccm-sg"), ("cmv_sg_step", "cmv-sg")]


# On a bad branch the step is undone, so the rest of the packet runs on the
# filters from before it.
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e6])
@pytest.mark.parametrize("tx,branch", BRANCHES, ids=BRANCH_IDS)
@pytest.mark.parametrize("name,alg", SG_STEPS, ids=["ccm", "cmv"])
def test_bad_sg_filter_stops_adaptation_at_that_block(monkeypatch, name, alg, tx, branch, value):
    scn = _tiny_scenario(tx_antennas=tx, algorithms=(alg,))
    with monkeypatch.context() as mp:
        _freeze_step(mp, name, 20)
        frozen = run_trial(scn, 3)
    calls = _poison_step(monkeypatch, name, 20, branch, value)
    tr = run_trial(scn, 3)
    assert tr.diverged[alg]
    assert len(calls) == 21
    assert not frozen.diverged[alg]
    assert np.array_equal(tr.bit_errors[alg], frozen.bit_errors[alg])


# ccm's gradient is cubic in the output, so a 5e5 filter blows up on the next
# step by itself; its control sits on the last step.
@pytest.mark.parametrize("tx,branch", BRANCHES, ids=BRANCH_IDS)
@pytest.mark.parametrize(
    "name,alg,call", [("ccm_sg_step", "ccm-sg", -1), ("cmv_sg_step", "cmv-sg", 20)], ids=["ccm", "cmv"]
)
def test_sg_filter_below_limit_keeps_adapting(monkeypatch, name, alg, call, tx, branch):
    steps = 200 // tx
    calls = _poison_step(monkeypatch, name, call % steps, branch, 5e5)
    tr = run_trial(_tiny_scenario(tx_antennas=tx, algorithms=(alg,)), 3)
    assert not tr.diverged[alg]
    assert len(calls) == steps


def test_sg_steps_run_once_per_block_per_receive_antenna(monkeypatch):
    """Once per block with two transmit antennas, once per symbol with one."""
    counts = {}
    for name, _ in SG_STEPS:
        real = getattr(harness, name)

        def step(*args, _name=name, _real=real, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(harness, name, step)
    for tx, steps in ((2, 100), (1, 200)):
        counts.clear()
        scn = _tiny_scenario(tx_antennas=tx, algorithms=("ccm-sg", "cmv-sg"), rx_antennas=2)
        tr = run_trial(scn, 3)
        assert not any(tr.diverged.values())
        assert counts == {"ccm_sg_step": steps * 2, "cmv_sg_step": steps * 2}


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


def test_sweep_parallel_matches_serial():
    scn = _tiny_scenario(algorithms=("ccm-sg", "cmv-sg"))
    serial = sweep(scn, "snr", [6.0, 12.0], runs=2, workers=1)
    parallel = sweep(scn, "snr", [6.0, 12.0], runs=2, workers=2)
    assert serial.rows == parallel.rows
    assert serial.seed_hash == parallel.seed_hash
