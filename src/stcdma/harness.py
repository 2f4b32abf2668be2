"""Monte Carlo harness: seeded trials, sweeps over SNR/users/symbols, pooling.

A trial is fully determined by (scenario, seed): the seed expands into
independent generator streams for symbols, channels, noise, and interferer
powers, so re-running any (scenario, seed) pair is bit-identical and adding
trials never perturbs existing ones.  Channel estimates are computed once per
trial (they depend only on the received data) and shared by every receiver
that consumes them; blind estimates are phase-aligned to the true channel
before use, the usual pilot-equivalent resolution of the blind phase
ambiguity, consistent with the phase-aligned error metric.
"""

from __future__ import annotations

import hashlib
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .channel_estimation import (
    ChannelEstimate,
    CovarianceEstimate,
    PsiEstimate,
    align_phase,
    estimate_channel_exact,
    sg_channel_step,
    sg_psi_step,
)
from .errors import StepSizeError
from .receivers import (
    CcmStatistics,
    CombinerGains,
    FilterPair,
    ccm_exact_filter,
    ccm_sg_step,
    cmv_exact_filter,
    cmv_sg_step,
    combine,
    constrained_quadratic_filter,
    constraint_projector,
    constraint_restorer,
    detect,
    min_norm_feasible_pair,
    projection_pair,
    trained_lms_step,
)
from .scenario import Scenario
from .signal_model import (
    SymbolStream,
    random_multipath_channel,
    random_qpsk,
    simulate_packet,
)
from .spreading import (
    build_convolution_matrix,
    random_spreading_set,
    user_constraint_matrices,
)

__all__ = [
    "TrialResult",
    "MetricRow",
    "MetricsSeries",
    "run_trial",
    "sweep",
    "channel_mse",
    "smooth_series",
    "half_width",
    "trial_seed",
    "AXES",
]

AXES = ("symbols", "snr", "users")
_FILTER_LIMIT = 1e6


def trial_seed(master_seed: int, point_index: int, run_index: int) -> np.random.SeedSequence:
    """Counter-based per-trial seed, keyed by point index and run index.

    Appending points or runs leaves existing trials unchanged; inserting a
    point before others shifts their indices and so their seeds.
    """
    return np.random.SeedSequence((int(master_seed), int(point_index), int(run_index)))


def channel_mse(est_trace: np.ndarray, true_trace: np.ndarray) -> np.ndarray:
    """Per-column squared error between an estimate trace and the
    unit-normalized true channel, minimized over a common phase per column.

    Both arguments are (dim, T); returns (T,).
    """
    est = np.asarray(est_trace, dtype=complex)
    ref = np.asarray(true_trace, dtype=complex)
    if est.shape != ref.shape:
        raise ValueError(f"trace shapes differ: {est.shape} vs {ref.shape}")
    norms = np.linalg.norm(ref, axis=0)
    if np.any(norms == 0):
        raise ValueError("true channel trace contains a zero column")
    refn = ref / norms[None, :]
    est_energy = np.sum(np.abs(est) ** 2, axis=0)
    overlap = np.abs(np.sum(np.conj(est) * refn, axis=0))
    return est_energy + 1.0 - 2.0 * overlap


def smooth_series(x: np.ndarray, window: int) -> np.ndarray:
    """Trailing moving average; the first samples average what is available."""
    if window < 1:
        raise ValueError("window must be positive")
    x = np.asarray(x, dtype=float)
    c = np.concatenate([[0.0], np.cumsum(x)])
    idx = np.arange(1, len(x) + 1)
    lo = np.maximum(idx - window, 0)
    return (c[idx] - c[lo]) / (idx - lo)


def half_width(samples: np.ndarray) -> float:
    """Normal-approximation 95% confidence half-width of the mean."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < 2:
        return 0.0
    return float(1.96 * samples.std(ddof=1) / np.sqrt(samples.size))


@dataclass
class TrialResult:
    """Per-symbol outcomes of one seeded trial."""

    seed_key: tuple
    bit_errors: dict = field(default_factory=dict)   # algorithm -> (symbols,) 0..2
    channel_mse: dict = field(default_factory=dict)  # "channel-<mode>" -> (symbols,)
    diverged: dict = field(default_factory=dict)     # algorithm -> bool


@dataclass(frozen=True)
class MetricRow:
    axis_value: float
    algorithm: str
    metric: str
    mean: float
    half_width: float
    runs: int


@dataclass
class MetricsSeries:
    axis: str
    rows: list
    seed_hash: str
    diverged_trials: int = 0


def _interferer_amplitudes(scn: Scenario, rng: np.random.Generator) -> np.ndarray:
    amps = np.empty(scn.total_users)
    amps[0] = scn.amplitude
    n_first = scn.users - 1
    db = rng.normal(0.0, scn.power_sigma_db, size=n_first)
    amps[1 : scn.users] = scn.amplitude * 10.0 ** (db / 20.0)
    if scn.extra_users:
        db2 = rng.normal(0.0, scn.power_sigma_db_extra, size=scn.extra_users)
        amps[scn.users :] = scn.amplitude * 10.0 ** (db2 / 20.0)
    return amps


def _build_streams(scn: Scenario, rng_symbols, rng_powers) -> list[SymbolStream]:
    amps = _interferer_amplitudes(scn, rng_powers)
    streams = []
    for k in range(scn.total_users):
        symbols = random_qpsk(scn.packet_symbols, rng_symbols)
        if k >= scn.users:
            profile = np.zeros(scn.packet_symbols)
            profile[scn.extra_users_at :] = amps[k]
            streams.append(SymbolStream(symbols=symbols, amplitude=profile))
        else:
            streams.append(SymbolStream(symbols=symbols, amplitude=amps[k]))
    return streams


def _build_channels(scn: Scenario, rng_channel) -> list:
    powers = (0.0,) if scn.channel_profile == "flat" else (0.0, -3.0, -6.0)
    # The channel holds still over one block (two symbols), so its sampling
    # interval is two symbol periods.
    fd_block = 2.0 * scn.doppler
    return [
        random_multipath_channel(
            scn.tx_antennas,
            scn.n_paths,
            scn.blocks,
            fd_block,
            rng_channel,
            relative_powers_db=powers,
            fading=scn.fading,
        )
        for _ in range(scn.rx_antennas)
    ]


class _Tracker:
    """Per-antenna channel estimation shared by all receivers in a trial."""

    def __init__(self, mode: str, scn: Scenario, c: np.ndarray, true_stacked: np.ndarray):
        self.mode = mode
        self.c = c
        self.true = true_stacked
        self.scn = scn
        dim = c.shape[0]
        start = np.ones(c.shape[1], dtype=complex) / np.sqrt(c.shape[1])
        self.estimate = ChannelEstimate(vector=start, method=mode)
        if mode == "svd":
            self.cov = CovarianceEstimate(dim, forgetting=scn.cov_forgetting)
        elif mode == "sg":
            self.psi = PsiEstimate.from_constraints(
                c, alpha=scn.psi_forgetting, mu=scn.step_channel
            )

    def update(self, y: np.ndarray, block: int) -> np.ndarray:
        """Fold in one observation; return the phase-aligned unit estimate."""
        true_now = self.true[:, block]
        if self.mode == "genie":
            vec = true_now / np.linalg.norm(true_now)
            self.estimate = ChannelEstimate(vector=vec, method="genie")
            return vec
        if self.mode == "svd":
            self.cov.update(y)
            if block == 0 or (block + 1) % self.scn.estimator_refresh == 0:
                self.estimate = estimate_channel_exact(
                    self.cov.matrix,
                    self.c,
                    power=self.scn.subspace_power,
                    ridge=self.scn.ridge,
                )
        else:
            self.psi = sg_psi_step(self.psi, y)
            self.estimate = sg_channel_step(self.estimate, self.psi, self.c)
        return align_phase(self.estimate.vector, true_now)


def _bit_errors(decided: np.ndarray, truth: np.ndarray) -> np.ndarray:
    return (np.sign(decided.real) != np.sign(truth.real)).astype(np.uint8) + (
        np.sign(decided.imag) != np.sign(truth.imag)
    ).astype(np.uint8)


def _finite_pair(fp: FilterPair) -> bool:
    return bool(
        np.all(np.isfinite(fp.w))
        and np.all(np.isfinite(fp.wbar))
        and np.linalg.norm(fp.w) < _FILTER_LIMIT
        and np.linalg.norm(fp.wbar) < _FILTER_LIMIT
    )


def _run_pair_algorithm(alg, scn, ys, ests, truth_b1, truth_b2, cm):
    """One receiver algorithm over a whole two-antenna-coded packet."""
    nrx = len(ys)
    nblocks = ys[0].shape[1]
    pp = projection_pair(cm)
    dim = cm.block_dim
    if alg == "trained-lms":
        pairs = [
            FilterPair(w=np.zeros(dim, complex), wbar=np.zeros(dim, complex))
            for _ in range(nrx)
        ]
    else:
        pairs = [min_norm_feasible_pair(pp, ests[m][:, 0], scn.nu) for m in range(nrx)]
    stats = None
    if alg == "ccm-exact":
        stats = [CcmStatistics(dim, forgetting=scn.cov_forgetting) for _ in range(nrx)]
    elif alg == "cmv-exact":
        stats = [CovarianceEstimate(dim, forgetting=scn.cov_forgetting) for _ in range(nrx)]
    energies = np.ones(nrx)
    errors = np.zeros(2 * nblocks, dtype=np.uint8)
    diverged = False
    egc = scn.combiner == "egc" or nrx == 1
    for i in range(nblocks):
        outputs = np.array([pairs[m].output(ys[m][:, i]) for m in range(nrx)])
        gains = (
            CombinerGains.equal(nrx) if egc else CombinerGains.proportional(energies)
        )
        z, zbar = combine(outputs, gains)
        errors[2 * i] = _bit_errors(detect(z), truth_b1[i])
        errors[2 * i + 1] = _bit_errors(detect(zbar), truth_b2[i])
        energies = 0.99 * energies + 0.01 * (np.abs(outputs) ** 2).mean(axis=1)
        if diverged:
            continue
        for m in range(nrx):
            y = ys[m][:, i]
            h = ests[m][:, i] if ests is not None else None
            before = FilterPair(w=pairs[m].w.copy(), wbar=pairs[m].wbar.copy())
            try:
                if alg == "ccm-sg":
                    ccm_sg_step(
                        pairs[m], pp, y, h, scn.nu, scn.step_ccm, scn.normalize_steps
                    )
                elif alg == "cmv-sg":
                    cmv_sg_step(
                        pairs[m], pp, y, h, scn.nu, scn.step_cmv, scn.normalize_steps
                    )
                elif alg == "trained-lms":
                    pairs[m].w = trained_lms_step(pairs[m].w, y, truth_b1[i], scn.step_lms)
                    pairs[m].wbar = trained_lms_step(
                        pairs[m].wbar, y, truth_b2[i], scn.step_lms
                    )
                elif alg == "ccm-exact":
                    zm, zbm = outputs[m]
                    stats[m].update(y, zm, zbm)
                    if (i + 1) % scn.filter_refresh == 0:
                        pairs[m] = ccm_exact_filter(
                            stats[m], cm, h, scn.nu, scn.ridge
                        )
                elif alg == "cmv-exact":
                    stats[m].update(y)
                    if (i + 1) % scn.filter_refresh == 0:
                        pairs[m] = cmv_exact_filter(
                            stats[m].matrix, cm, h, scn.nu, scn.ridge
                        )
            except (StepSizeError, np.linalg.LinAlgError, ArithmeticError):
                pairs[m] = before
                diverged = True
                break
            if not _finite_pair(pairs[m]):
                pairs[m] = before
                diverged = True
                break
    return errors, diverged


def _run_single_algorithm(alg, scn, ys, ests, truth, conv):
    """One receiver algorithm for the single-transmit-antenna system."""
    nrx = len(ys)
    nsym = ys[0].shape[1]
    pi = constraint_projector(conv)
    restore = constraint_restorer(conv)
    dim = conv.shape[0]
    if alg == "trained-lms":
        ws = [np.zeros(dim, complex) for _ in range(nrx)]
    else:
        ws = [restore @ (scn.nu * ests[m][:, 0]) for m in range(nrx)]
    stats = None
    if alg == "ccm-exact":
        stats = [CcmStatistics(dim, forgetting=scn.cov_forgetting) for _ in range(nrx)]
    elif alg == "cmv-exact":
        stats = [CovarianceEstimate(dim, forgetting=scn.cov_forgetting) for _ in range(nrx)]
    energies = np.ones(nrx)
    errors = np.zeros(nsym, dtype=np.uint8)
    diverged = False
    egc = scn.combiner == "egc" or nrx == 1
    for t in range(nsym):
        block = t // 2
        zs = np.array([np.vdot(ws[m], ys[m][:, t]) for m in range(nrx)])
        gains = (
            CombinerGains.equal(nrx) if egc else CombinerGains.proportional(energies)
        )
        z = combine(zs, gains)
        errors[t] = _bit_errors(detect(z), truth[t])
        energies = 0.99 * energies + 0.01 * np.abs(zs) ** 2
        if diverged:
            continue
        for m in range(nrx):
            y = ys[m][:, t]
            h = ests[m][:, block] if ests else None
            w_before = ws[m].copy()
            try:
                if alg == "ccm-sg":
                    zc = zs[m]
                    e = abs(zc) ** 2 - 1.0
                    ws[m] = pi @ (ws[m] - scn.step_ccm * e * np.conj(zc) * y) + restore @ (
                        scn.nu * h
                    )
                elif alg == "cmv-sg":
                    zc = zs[m]
                    ws[m] = pi @ (ws[m] - scn.step_cmv * np.conj(zc) * y) + restore @ (
                        scn.nu * h
                    )
                elif alg == "trained-lms":
                    ws[m] = trained_lms_step(ws[m], y, truth[t], scn.step_lms)
                elif alg == "ccm-exact":
                    stats[m].update(y, zs[m], zs[m])
                    if (t + 1) % (2 * scn.filter_refresh) == 0:
                        ws[m] = constrained_quadratic_filter(
                            stats[m].r, stats[m].d, conv, scn.nu * h, scn.ridge
                        )
                elif alg == "cmv-exact":
                    stats[m].update(y)
                    if (t + 1) % (2 * scn.filter_refresh) == 0:
                        ws[m] = constrained_quadratic_filter(
                            stats[m].matrix,
                            np.zeros(dim, complex),
                            conv,
                            scn.nu * h,
                            scn.ridge,
                        )
            except (StepSizeError, np.linalg.LinAlgError, ArithmeticError):
                ws[m] = w_before
                diverged = True
                break
            if not (np.all(np.isfinite(ws[m])) and np.linalg.norm(ws[m]) < _FILTER_LIMIT):
                ws[m] = w_before
                diverged = True
                break
    return errors, diverged


def run_trial(scn: Scenario, seed) -> TrialResult:
    """Run every configured algorithm over one seeded packet."""
    scn.validate()
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng_symbols, rng_channel, rng_noise, rng_powers = map(
        np.random.default_rng, ss.spawn(4)
    )
    streams = _build_streams(scn, rng_symbols, rng_powers)
    channels = _build_channels(scn, rng_channel)
    spreading = random_spreading_set(
        scn.total_users, scn.gain, scn.spreading_scheme, scn.tx_antennas, scn.code_seed
    )
    noise_var = scn.noise_variance()
    ys = [
        simulate_packet(streams, spreading, ch, noise_var, rng_noise, scn.include_isi)
        for ch in channels
    ]
    result = TrialResult(seed_key=tuple(np.atleast_1d(ss.entropy)))
    need_tracking = any(a != "trained-lms" for a in scn.algorithms) or (
        scn.channel_estimator in ("svd", "sg")
    )
    if scn.tx_antennas == 2:
        cm = user_constraint_matrices(spreading, 0, scn.n_paths)
        c_for_est = cm.odd
    else:
        conv = build_convolution_matrix(spreading.code(0, 0), scn.n_paths)
        c_for_est = conv
    ests = []
    tracking_diverged = False
    if need_tracking:
        mse_per_antenna = []
        for m, ch in enumerate(channels):
            tracker = _Tracker(scn.channel_estimator, scn, c_for_est, ch.stacked)
            trace = np.empty((c_for_est.shape[1], scn.blocks), dtype=complex)
            if scn.tx_antennas == 2:
                observations = ((i, ys[m][:, i], i) for i in range(scn.blocks))
            else:
                observations = (
                    (t // 2, ys[m][:, t], t) for t in range(ys[m].shape[1])
                )
            frozen = None
            for block, y, _t in observations:
                if frozen is None:
                    try:
                        vec = tracker.update(y, block)
                    except (StepSizeError, ArithmeticError):
                        tracking_diverged = True
                        frozen = align_phase(tracker.estimate.vector, ch.stacked[:, block])
                        vec = frozen
                else:
                    vec = align_phase(frozen, ch.stacked[:, block])
                trace[:, block] = vec
            ests.append(trace)
            mse_per_antenna.append(channel_mse(trace, ch.stacked))
        if scn.channel_estimator in ("svd", "sg"):
            mse_blocks = np.mean(mse_per_antenna, axis=0)
            result.channel_mse[f"channel-{scn.channel_estimator}"] = np.repeat(
                mse_blocks, 2
            )
            result.diverged[f"channel-{scn.channel_estimator}"] = tracking_diverged
    truth = streams[0].symbols
    for alg in scn.algorithms:
        if scn.tx_antennas == 2:
            errors, diverged = _run_pair_algorithm(
                alg, scn, ys, ests if ests else None, truth[0::2], truth[1::2], cm
            )
        else:
            errors, diverged = _run_single_algorithm(alg, scn, ys, ests, truth, conv)
        result.bit_errors[alg] = errors
        result.diverged[alg] = diverged
    return result


def _run_task(args):
    point_index, run_index, scn, master = args
    return point_index, run_index, run_trial(scn, trial_seed(master, point_index, run_index))


def _seed_hash(master: int, points: int, runs: int) -> str:
    text = ";".join(f"{master}:{p}:{r}" for p in range(points) for r in range(runs))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _point_scenario(scn: Scenario, axis: str, value) -> Scenario:
    if axis == "symbols":
        return scn
    if axis == "snr":
        return scn.replace(snr_db=float(value))
    if axis == "users":
        return scn.replace(users=int(value), extra_users=0)
    raise ValueError(f"unknown sweep axis: {axis!r}")


def sweep(
    scn: Scenario,
    axis: str,
    grid,
    runs: int,
    workers: int | None = None,
    smooth_window: int = 100,
) -> MetricsSeries:
    """Monte Carlo sweep along one axis.

    ``axis="symbols"`` runs a single scenario and reports smoothed error rates
    (and channel MSE, when a blind estimator is active) at the grid's symbol
    indices; the other axes substitute each grid value into the scenario and
    report scalar error rates over the symbols past `ber_skip`.
    """
    if axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}")
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be non-empty")
    if runs < 1:
        raise ValueError("runs must be positive")
    if smooth_window < 1:
        raise ValueError("smooth_window must be positive")
    scn.validate()
    if axis == "users" and scn.extra_users:
        warnings.warn(
            f"the users axis sets every point's user count, so extra_users = "
            f"{scn.extra_users} is dropped (set to 0)",
            UserWarning,
            stacklevel=2,
        )
    if axis == "symbols":
        bad = [g for g in grid if not 0 <= int(g) < scn.packet_symbols]
        if bad:
            raise ValueError(f"symbol grid indices outside the packet: {bad}")
        points = [scn]
    else:
        points = [_point_scenario(scn, axis, g).validate() for g in grid]
    tasks = [
        (p, r, points[p], scn.master_seed)
        for p in range(len(points))
        for r in range(runs)
    ]
    if workers and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_task, tasks))
    else:
        outcomes = [_run_task(t) for t in tasks]
    by_point: dict[int, list] = {}
    for point_index, run_index, tr in sorted(outcomes, key=lambda o: (o[0], o[1])):
        by_point.setdefault(point_index, []).append(tr)
    rows = []
    diverged_total = 0
    for p, trials in by_point.items():
        for tr in trials:
            diverged_total += sum(bool(v) for v in tr.diverged.values())
        algs = sorted(trials[0].bit_errors)
        chans = sorted(trials[0].channel_mse)
        if axis == "symbols":
            for alg in algs:
                per_run = np.stack(
                    [smooth_series(tr.bit_errors[alg] / 2.0, smooth_window) for tr in trials]
                )
                for g in grid:
                    col = per_run[:, int(g)]
                    rows.append(
                        MetricRow(float(g), alg, "ber", float(col.mean()), half_width(col), runs)
                    )
            for name in chans:
                per_run = np.stack([tr.channel_mse[name] for tr in trials])
                for g in grid:
                    col = per_run[:, int(g)]
                    rows.append(
                        MetricRow(float(g), name, "mse", float(col.mean()), half_width(col), runs)
                    )
        else:
            skip = points[p].ber_skip
            for alg in algs:
                per_run = np.array(
                    [tr.bit_errors[alg][skip:].sum() / (2.0 * (points[p].packet_symbols - skip)) for tr in trials]
                )
                rows.append(
                    MetricRow(float(grid[p]), alg, "ber", float(per_run.mean()), half_width(per_run), runs)
                )
            for name in chans:
                per_run = np.array([tr.channel_mse[name][skip:].mean() for tr in trials])
                rows.append(
                    MetricRow(float(grid[p]), name, "mse", float(per_run.mean()), half_width(per_run), runs)
                )
    rows.sort(key=lambda r: (r.axis_value, r.algorithm, r.metric))
    return MetricsSeries(
        axis=axis,
        rows=rows,
        seed_hash=_seed_hash(scn.master_seed, len(points), runs),
        diverged_trials=diverged_total,
    )
