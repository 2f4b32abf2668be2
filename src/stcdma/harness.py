"""Monte Carlo harness: seeded trials, sweeps over SNR/users/symbols, pooling.

A trial is fully determined by (scenario, seed): the seed expands into
independent generator streams for symbols, channels, noise, and interferer
powers, so re-running any (scenario, seed) pair is bit-identical and adding
trials never perturbs existing ones.  Channel estimates are computed once per
trial (they depend only on the received data) and shared by every receiver
that consumes them; blind estimates are phase-aligned to the true channel
before use, the usual pilot-equivalent resolution of the blind phase
ambiguity, consistent with the phase-aligned error metric.  One loop adapts
every receiver on both antenna counts: a receiver is a list of constrained
branches, two per block with two transmit antennas and one per symbol with
one, and each observation column is one step of every branch.  The loop
only adapts and records the branches' filter outputs; combining, detection
and bit-error scoring then run once per packet on the recording.  Work that
does not depend on the adapting filter is done ahead of it: the genie
channel for the whole packet at once, the sg constraint offsets 256 blocks
at a time.  Not for the whole packet, because memory binds: one
packet's observations take 3.3 MB at gain 32 and 6000 symbols, so running a
point's trials in lockstep would hold that many packets at once.
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
    branch_channels,
    ccm_sg_step,
    cmv_sg_step,
    combine,
    constrained_quadratic_filter,
    constraint_offsets,
    constraint_projector,
    constraint_restorer,
    detect,
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
_CHUNK = 256


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
    """Per-antenna blind channel estimation (svd or sg) shared by all
    receivers in a trial."""

    def __init__(self, mode: str, scn: Scenario, c: np.ndarray, true_stacked: np.ndarray):
        self.mode = mode
        self.c = c
        self.true = true_stacked
        self.scn = scn
        start = np.ones(c.shape[1], dtype=complex) / np.sqrt(c.shape[1])
        self.estimate = ChannelEstimate(vector=start, method=mode)
        if mode == "svd":
            self.cov = CovarianceEstimate(c.shape[0], forgetting=scn.cov_forgetting)
        else:
            self.psi = PsiEstimate.from_constraints(c, alpha=scn.psi_forgetting, mu=scn.step_channel)

    def update(self, y: np.ndarray, block: int) -> np.ndarray:
        """Fold in one observation; return the phase-aligned unit estimate."""
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
        return align_phase(self.estimate.vector, self.true[:, block])


def _bit_errors(decided: np.ndarray, truth: np.ndarray) -> np.ndarray:
    return (np.sign(decided.real) != np.sign(truth.real)).astype(np.uint8) + (
        np.sign(decided.imag) != np.sign(truth.imag)
    ).astype(np.uint8)


def _packet_errors(outputs: np.ndarray, truth: np.ndarray, combiner: str) -> np.ndarray:
    """Per-symbol bit errors of a packet, scored once from its recorded
    (steps, rx, branches) filter outputs.

    Equal gains apply with ``egc`` or one receive antenna.  ``mrc`` weighs
    each slot by the antennas' output energies, a 0.99 IIR over the slots
    before it that starts at 1.
    """
    nrx = outputs.shape[1]
    if combiner == "egc" or nrx == 1:
        z = combine(outputs.transpose(1, 0, 2), CombinerGains.equal(nrx))
    else:
        power = (np.abs(outputs) ** 2).mean(axis=2)
        gains = np.empty_like(power)
        energies = np.ones(nrx)
        for i, p in enumerate(power):
            gains[i] = CombinerGains.proportional(energies).gains
            energies = 0.99 * energies + 0.01 * p
        z = np.einsum("sm,smk->sk", gains, outputs)
    return _bit_errors(detect(z), truth.reshape(z.shape)).ravel()


def _bounded(w: np.ndarray) -> bool:
    """True while the filter's norm is below the limit; a NaN or inf norm
    fails the comparison by itself, so no separate finiteness check."""
    return np.vdot(w, w).real < _FILTER_LIMIT**2


def _exact_filters(moments, cs, h, scn):
    """Every branch's closed-form filter from its moments (R_b, d_b), on
    C_b^H w = nu H_b."""
    return [
        constrained_quadratic_filter(r, d, c, scn.nu * hb, scn.ridge)
        for (r, d), c, hb in zip(moments, cs, branch_channels(h))
    ]


def _adapt(alg, scn, ys, ests, truth, cs):
    """Adapt one receiver algorithm over a whole packet.

    ``cs`` holds the branches' constraint matrices, (C, Cbar) with two
    transmit antennas and (conv,) with one.  Every observation column is one
    step for every branch: a block with two transmit antennas, a symbol with
    one.  Returns the (steps, rx, branches) filter outputs and whether the
    receiver diverged.
    """
    nrx = len(ys)
    nsteps = ys[0].shape[1]
    nb = len(cs)
    per_block = nsteps // scn.blocks
    symbols = truth.reshape(nsteps, nb)
    dim = cs[0].shape[0]
    sg = alg in ("ccm-sg", "cmv-sg")
    if sg:
        projectors = [constraint_projector(c) for c in cs]
        sg_step = ccm_sg_step if alg == "ccm-sg" else cmv_sg_step
        mu = scn.step_ccm if alg == "ccm-sg" else scn.step_cmv
    if alg == "trained-lms":
        ws = [[np.zeros(dim, complex)] * nb for _ in range(nrx)]
    else:
        restorers = [constraint_restorer(c) for c in cs]
        ws = [list(constraint_offsets(restorers, est[:, 0], scn.nu)) for est in ests]
    if alg == "ccm-exact":
        stats = [CcmStatistics(dim, nb, scn.cov_forgetting) for _ in range(nrx)]
    elif alg == "cmv-exact":
        stats = [CovarianceEstimate(dim, forgetting=scn.cov_forgetting) for _ in range(nrx)]
        zero = np.zeros(dim, complex)
    refresh = per_block * scn.filter_refresh
    outputs = np.empty((nsteps, nrx, nb), dtype=complex)
    diverged = False
    for t in range(nsteps):
        block = t // per_block
        if sg and not diverged and t % (per_block * _CHUNK) == 0:
            chunk = slice(block, block + _CHUNK)
            offsets = [np.moveaxis(constraint_offsets(restorers, h[:, chunk], scn.nu), 2, 0) for h in ests]
        for m in range(nrx):
            y = ys[m][:, t]
            zs = [np.vdot(wb, y) for wb in ws[m]]
            outputs[t, m] = zs
            if diverged:
                continue
            try:
                if sg:
                    off = offsets[m][block % _CHUNK]
                    w = sg_step(ws[m], projectors, y, off, mu, scn.normalize_steps, zs)
                elif alg == "trained-lms":
                    w = trained_lms_step(ws[m], y, symbols[t], scn.step_lms, zs)
                elif alg == "ccm-exact":
                    stats[m].update(y, zs)
                    w = ws[m]
                    if (t + 1) % refresh == 0:
                        moments = zip(stats[m].r, stats[m].d)
                        w = _exact_filters(moments, cs, ests[m][:, block], scn)
                else:
                    stats[m].update(y)
                    w = ws[m]
                    if (t + 1) % refresh == 0:
                        moments = [(stats[m].matrix, zero)] * nb
                        w = _exact_filters(moments, cs, ests[m][:, block], scn)
                if not all(map(_bounded, w)):
                    raise ArithmeticError("filter norm out of bounds")
            except (StepSizeError, np.linalg.LinAlgError, ArithmeticError):
                diverged = True
            else:
                ws[m] = w
    return outputs, diverged


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
    result = TrialResult()
    need_tracking = scn.channel_estimator != "genie" or any(a != "trained-lms" for a in scn.algorithms)
    if scn.tx_antennas == 2:
        cm = user_constraint_matrices(spreading, 0, scn.n_paths)
        cs = (cm.odd, cm.even)
    else:
        cs = (build_convolution_matrix(spreading.code(0, 0), scn.n_paths),)
    ests = []
    tracking_diverged = False
    if need_tracking and scn.channel_estimator == "genie":
        ests = [s / np.linalg.norm(s, axis=0) for s in (ch.stacked for ch in channels)]
    elif need_tracking:
        mse_per_antenna = []
        for m, ch in enumerate(channels):
            tracker = _Tracker(scn.channel_estimator, scn, cs[0], ch.stacked)
            trace = np.empty((cs[0].shape[1], scn.blocks), dtype=complex)
            # One-antenna trackers fold in every symbol, two per block.
            per_block = ys[m].shape[1] // scn.blocks
            observations = ((t // per_block, ys[m][:, t]) for t in range(ys[m].shape[1]))
            frozen = None
            for block, y in observations:
                if frozen is None:
                    try:
                        vec = tracker.update(y, block)
                    except (StepSizeError, ArithmeticError):
                        tracking_diverged = True
                        frozen = align_phase(tracker.estimate.vector, tracker.true[:, block])
                        vec = frozen
                else:
                    vec = align_phase(frozen, tracker.true[:, block])
                trace[:, block] = vec
            ests.append(trace)
            mse_per_antenna.append(channel_mse(trace, ch.stacked))
        mse_blocks = np.mean(mse_per_antenna, axis=0)
        result.channel_mse[f"channel-{scn.channel_estimator}"] = np.repeat(mse_blocks, 2)
        result.diverged[f"channel-{scn.channel_estimator}"] = tracking_diverged
    truth = streams[0].symbols
    for alg in scn.algorithms:
        outputs, diverged = _adapt(alg, scn, ys, ests, truth, cs)
        result.bit_errors[alg] = _packet_errors(outputs, truth, scn.combiner)
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
