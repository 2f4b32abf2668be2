"""Trial seeding, metric pooling, and sweep bookkeeping."""

import warnings

import numpy as np
import pytest

from stcdma.channel_estimation import phase_aligned_mse
from stcdma.harness import (
    channel_mse,
    half_width,
    run_trial,
    smooth_series,
    sweep,
    trial_seed,
)
from stcdma.scenario import Scenario


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
    oracle = [phase_aligned_mse(est[:, t], ref[:, t]) for t in range(9)]
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
