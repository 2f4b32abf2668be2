"""Monte Carlo harness: seeded trials, sweeps over SNR/users/symbols, pooling.

A trial is fully determined by (scenario, seed): the seed expands into
independent generator streams for symbols, channels, noise, and interferer
powers, so re-running any (scenario, seed) pair is bit-identical and adding
trials never perturbs existing ones.  Channel estimates are computed once per
trial (they depend only on the received data) and shared by every receiver
that consumes them; blind estimates are phase-aligned to the true channel
before use, the usual pilot-equivalent resolution of the blind phase
ambiguity, consistent with the phase-aligned error metric.  The svd estimate
refreshes once per block on both antenna counts, each refresh window folded
into the covariance in one product.  The sg tracker steps once per
observation column, so its rates are per symbol with one transmit antenna and
per block with two; `sg_track` computes those steps `receivers._CHUNK`
observations at a time on the receivers' kernel, `sg_chunk` and
`filter_norms2`, while its divergence check, `first_divergence` as in the
receivers, and the skip rules of its channel step still act per observation.
One function adapts every receiver on both antenna counts: a receiver is a
list of constrained branches, two per block with two transmit antennas and
one per symbol with one, and each observation column is one step of every
branch.  The steps are evaluated a chunk at a time, with the outputs of one
at a time up to rounding: the sg receivers and trained LMS `receivers._CHUNK`
(64) observations at a time, and the exact receivers once per refresh
window.  The sg receivers of a trial adapt together, in one pass over the
packet: each chunk's projected observations and Gram matrices, one per
branch for ccm-sg and cmv-sg and one shared by trained LMS's branches, are
built once per receive antenna for all of them, while each receiver keeps
its own filters, step sizes and freeze.  The filter-norm check, `first_divergence`, still acts per step, from
a scalar recursion.  Adapting only records the branches' filter outputs;
combining, detection and bit-error scoring then run once per packet on the
recording.  Work that does not depend on the adapting filter is done ahead of
it, for the whole packet: the genie channel, and for the sg receivers every
observation's constraint coordinates, offset term and step size, each a few
numbers per observation.  The (dim, k) products stay per chunk, because memory
binds: one packet's observations take 3.3 MB at gain 32 and 6000 symbols, so
running a point's trials in lockstep would hold that many packets at once.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field

import numpy as np

from .channel_estimation import (
    CovarianceEstimate,
    PsiEstimate,
    align_phase,
    estimate_channel_exact,
    sg_track,
)
from . import _blas, receivers
from .receivers import (
    CombinerGains,
    branch_channels,
    constrained_quadratic_filter,
    constraint_offsets,
    constraint_restorer,
    detect,
    filter_norms2,
    first_divergence,
    sg_chunk,
)
from .scenario import Scenario
from .signal_model import (
    SymbolStream,
    random_multipath_channel,
    random_qpsk,
    simulate_packet,
)
from .spreading import random_spreading_set, user_constraint_matrices

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
    diverged_trials: int = 0  # trials in which any algorithm or channel diverged


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


def _track_svd(scn: Scenario, c: np.ndarray, y: np.ndarray, true: np.ndarray):
    """Subspace channel estimate of one receive antenna, phase-aligned to
    ``true``; returns the (dim, blocks) trace and whether it diverged.

    The estimate refreshes at block 0 and at every block b with
    ``(b + 1) % estimator_refresh == 0``, each time after folding the blocks
    since the last refresh into the covariance, and holds until the next.
    Every observation of a block is folded before its refresh: both symbols
    with one transmit antenna.  A failing refresh freezes the last good
    estimate for the rest of the packet.
    """
    per_block = y.shape[1] // scn.blocks
    dim = c.shape[1]
    points = [b for b in range(scn.blocks) if b == 0 or (b + 1) % scn.estimator_refresh == 0]
    cov = CovarianceEstimate(c.shape[0], forgetting=scn.cov_forgetting)
    vector = np.ones(dim, dtype=complex) / np.sqrt(dim)
    vectors = np.empty((dim, len(points)), dtype=complex)
    diverged = False
    start = 0
    for i, b in enumerate(points):
        cov.update(y[:, start * per_block : (b + 1) * per_block])
        start = b + 1
        try:
            vector = estimate_channel_exact(
                cov.matrix, c, power=scn.subspace_power, ridge=scn.ridge
            )
        except ArithmeticError:  # ConditioningError
            diverged = True
            vectors[:, i:] = vector[:, None]
            break
        vectors[:, i] = vector
    held = np.searchsorted(points, np.arange(scn.blocks), side="right") - 1
    return align_phase(vectors[:, held], true), diverged


def _track_sg(scn: Scenario, c: np.ndarray, y: np.ndarray, true: np.ndarray):
    """Stochastic-gradient channel tracker of one receive antenna, one step
    per observation column (per symbol with one transmit antenna, per block
    with two); returns the phase-aligned (dim, blocks) trace of each block's
    last estimate and whether it diverged.  `sg_track` runs the steps a chunk
    of observations at a time; a failing step freezes the last good estimate
    for the rest of the packet."""
    per_block = y.shape[1] // scn.blocks
    dim = c.shape[1]
    psi = PsiEstimate.from_constraints(c, alpha=scn.psi_forgetting, mu=scn.step_channel)
    estimates, diverged = sg_track(psi, c, y, np.ones(dim, dtype=complex) / np.sqrt(dim))
    return align_phase(estimates[:, per_block - 1 :: per_block], true), diverged


def _bit_errors(decided: np.ndarray, truth: np.ndarray) -> np.ndarray:
    return (np.sign(decided.real) != np.sign(truth.real)).astype(np.uint8) + (
        np.sign(decided.imag) != np.sign(truth.imag)
    ).astype(np.uint8)


def _packet_errors(outputs: np.ndarray, truth: np.ndarray, combiner: str) -> np.ndarray:
    """Per-symbol bit errors of a packet, scored once from its recorded
    (steps, rx, branches) filter outputs.

    The outputs are combined by one (steps, rx) weight array.  Equal gains
    apply with ``egc`` or one receive antenna.  ``mrc`` weighs each slot by
    the antennas' output energies, a 0.99 IIR over the slots before it that
    starts at 1.
    """
    nrx = outputs.shape[1]
    if combiner == "egc" or nrx == 1:
        gains = np.broadcast_to(CombinerGains.equal(nrx).gains, outputs.shape[:2])
    else:
        power = (np.abs(outputs) ** 2).mean(axis=2)
        gains = np.empty_like(power)
        energies = np.ones(nrx)
        for i, p in enumerate(power):
            gains[i] = CombinerGains.proportional(energies).gains
            energies = 0.99 * energies + 0.01 * p
    z = np.einsum("sm,smk->sk", gains, outputs)
    return _bit_errors(detect(z), truth.reshape(z.shape)).ravel()


def _adapt(algs, scn, ys, ests, truth, cs):
    """Adapt the receiver algorithms ``algs`` over a whole packet.

    ``cs`` holds the branches' constraint matrices, (C, Cbar) with two
    transmit antennas and (conv,) with one.  Every observation column is one
    step for every branch: a block with two transmit antennas, a symbol with
    one.  Returns, for each algorithm, the (steps, rx, branches) filter
    outputs, whether the receiver diverged, and the (rx, branches, dim)
    filters it ended with.  The sg algorithms adapt together, in one pass
    (`_adapt_sg`), and each exact one by itself (`_adapt_exact`); an
    algorithm's results do not depend on which others run with it.

    A step diverges when a branch's new filter has a non-finite norm or one
    of 1e6 or more, as `receivers.first_divergence` decides; a failed solve
    at an exact refresh diverges too.  The first diverging (step, receive
    antenna), in step order and then antenna order, freezes every antenna:
    those before it keep that step's update, it and those after it keep
    their filters from before the step, and the rest of the packet runs on
    the frozen filters.
    """
    # A diverging filter or a non-finite observation overflows on purpose;
    # the bound check catches what it makes.
    with np.errstate(over="ignore", invalid="ignore"):
        adapted = {alg: _adapt_exact(alg, scn, ys, ests, cs) for alg in algs if alg.endswith("-exact")}
        sg = [alg for alg in algs if not alg.endswith("-exact")]
        if sg:
            adapted.update(_adapt_sg(sg, scn, ys, ests, truth, cs))
    return adapted


@dataclass
class _SgReceiver:
    """One algorithm's rule, per-step inputs and state in `_adapt_sg`."""

    rule: str
    gains: list          # per receive antenna, (steps,)
    offset_terms: list   # per receive antenna, (branches, steps)
    offset_norms2: list  # per receive antenna, (branches, steps)
    targets: object      # (branches, steps) for trained LMS, else 0.0
    v: np.ndarray        # (rx, branches, dim), the null-space parts
    outputs: np.ndarray  # (steps, rx, branches)


def _adapt_sg(algs, scn, ys, ests, truth, cs):
    """`_adapt` for ccm-sg, cmv-sg and trained LMS, all in one pass over the
    packet, a chunk of steps at a time.

    A branch's filter at step t is w_t = o_(t-1) + v_t (see `sg_chunk`).
    Before the chunks, each receive antenna's packet gives X_b = R_b^H Y for
    the restorer R_b = C_b (C_b^H C_b)^-1, so P_b Y = Y - C_b X_b and every
    offset term y_t^H o_(t-1) = nu X_b[:, t]^H H_b is one product for the
    packet; so are the offsets' norms and the ||y_t||^2 of the normalized
    step gains.  Per chunk and antenna, P_b Y and the Gram matrix Y^H P_b Y
    are built once for ccm-sg and cmv-sg, and Y^H Y once for trained LMS.
    Then, for each algorithm, `sg_chunk` gives every step's output and
    coefficient c_t, `filter_norms2` every step's filter norm, and the state
    at the chunk's end is one product, v - (P_b Y) c.  Each algorithm holds
    its own v, step sizes and freeze: one that diverges freezes as `_adapt`
    says, and the others go on.  Trained LMS is plain LMS: no projector, no
    offset, a filter starting at 0.
    """
    nrx, nsteps, nb = len(ys), ys[0].shape[1], len(cs)
    per_block = nsteps // scn.blocks
    dim = cs[0].shape[0]
    if any(alg != "trained-lms" for alg in algs):
        restorers = [constraint_restorer(c) for c in cs]
        cstack = np.stack(cs)
        rs = np.stack(restorers)
        rh = rs.conj().transpose(0, 2, 1)
        xs = [rh @ y for y in ys]
        prev = np.maximum(np.arange(nsteps) - 1, 0) // per_block
        offset_terms, offset_norms2 = [], []
        for x, est in zip(xs, ests):
            hs = scn.nu * np.stack(branch_channels(est)[:nb])
            offset_terms.append(np.sum(x.conj() * hs[:, :, prev], axis=1))
            block_norms2 = np.sum(hs.conj() * (rh @ rs @ hs), axis=1).real
            offset_norms2.append(block_norms2[:, np.arange(nsteps) // per_block])
        if scn.normalize_steps:
            # ||y_t||^2 from the real and imaginary views: no packet-sized temporary.
            power = [np.einsum("ij,ij->j", y.real, y.real) + np.einsum("ij,ij->j", y.imag, y.imag) for y in ys]
    states = {}
    for alg in algs:
        rule = "lms" if alg == "trained-lms" else alg[:3]
        mu = {"ccm": scn.step_ccm, "cmv": scn.step_cmv, "lms": scn.step_lms}[rule]
        if rule == "lms":
            zeros = [np.zeros((nb, nsteps))] * nrx
            offsets, targets = (zeros, zeros), np.conj(truth.reshape(nsteps, nb)).T
        else:
            offsets, targets = (offset_terms, offset_norms2), 0.0
        if scn.normalize_steps and rule != "lms":
            gains = [mu / (p + 1e-12) for p in power]
        else:
            gains = [np.full(nsteps, mu)] * nrx
        v = np.zeros((nrx, nb, dim), dtype=complex)
        states[alg] = _SgReceiver(rule, gains, *offsets, targets, v, np.empty((nsteps, nrx, nb), dtype=complex))

    def filters(r, m, step):
        """Antenna m's filters of receiver r in use at `step`, o_(step-1) + v."""
        if r.rule == "lms":
            return r.v[m].copy()
        block = max(step - 1, 0) // per_block
        return constraint_offsets(restorers, ests[m][:, block], scn.nu) + r.v[m]

    adapted = {}
    for lo in range(0, nsteps, receivers._CHUNK):
        live = {alg: r for alg, r in states.items() if alg not in adapted}
        if not live:
            break
        hi = min(lo + receivers._CHUNK, nsteps)
        k = hi - lo
        chunks = {alg: [] for alg in live}
        for m, y in enumerate(ys):
            y = y[:, lo:hi]
            yh = y.conj().T
            projected = {}  # (P Y, Y^H P Y), with P = I for trained LMS
            for alg, r in live.items():
                lms = r.rule == "lms"
                if lms not in projected:
                    py = y[None] if lms else y - cstack @ xs[m][:, :, lo:hi]
                    projected[lms] = py, yh @ py
                py, gram = projected[lms]
                a = r.offset_terms[m][:, lo:hi]
                rhs = a + (yh @ r.v[m].T).T
                q, c = sg_chunk(r.rule, gram, rhs, r.gains[m][lo:hi], r.targets[:, lo:hi] if lms else 0.0)
                start = np.sum(r.v[m].real ** 2 + r.v[m].imag ** 2, axis=1)
                norms2 = filter_norms2(q, c, gram, a, r.offset_norms2[m][:, lo:hi], start)
                chunks[alg].append((py, q, c, first_divergence(norms2)))
        for alg, r in live.items():
            fail, culprit = min((chunk[3], m) for m, chunk in enumerate(chunks[alg]))
            recorded = min(fail + 1, k)
            reached = []
            for m, (py, q, c, _) in enumerate(chunks[alg]):
                r.outputs[lo : lo + recorded, m] = np.conj(q[:, :recorded]).T
                n = min(fail + (m < culprit), k)
                r.v[m] -= (py[..., :n] @ c[:, :n, None])[..., 0]
                reached.append(lo + n)
            if fail < k:
                frozen = np.stack([filters(r, m, step) for m, step in enumerate(reached)])
                for m, (w, y) in enumerate(zip(frozen, ys)):
                    r.outputs[lo + recorded :, m] = (w.conj() @ y[:, lo + recorded :]).T
                adapted[alg] = r.outputs, True, frozen
    for alg, r in states.items():
        if alg not in adapted:
            adapted[alg] = r.outputs, False, np.stack([filters(r, m, nsteps) for m in range(nrx)])
    return adapted


def _adapt_exact(alg, scn, ys, ests, cs):
    """`_adapt` for ccm-exact and cmv-exact, one refresh window at a time.

    The filters change only when a window of ``filter_refresh`` blocks
    completes, so a window's outputs are one product W^H Y.  Its
    observations then fold into both receivers' moments R_b = S_b / weight,
    d_b = T_b / weight in one product, S_b += Y diag(lambda^age m_b) Y^H.
    For ccm-exact m_b = |z_b|^2 and T_b += Y (lambda^age conj(z_b)); for
    cmv-exact m_b = 1 and T_b = 0, and its branches share one S, factored
    once per refresh.  A packet's last, incomplete window has no refresh.
    """
    nrx, nsteps, nb = len(ys), ys[0].shape[1], len(cs)
    per_block = nsteps // scn.blocks
    dim = cs[0].shape[0]
    lam = scn.cov_forgetting
    ccm = alg == "ccm-exact"
    cstack = np.stack(cs)
    restorers = [constraint_restorer(c) for c in cs]
    ws = [constraint_offsets(restorers, est[:, 0], scn.nu) for est in ests]
    s = np.zeros((nrx, nb, dim, dim) if ccm else (nrx, dim, dim), dtype=complex)
    t = np.zeros((nrx, nb, dim), dtype=complex)
    weight = 0.0
    refresh = per_block * scn.filter_refresh
    outputs = np.empty((nsteps, nrx, nb), dtype=complex)
    diverged = False
    for lo in range(0, nsteps, refresh):
        hi = min(lo + refresh, nsteps)
        zs = [w.conj() @ y[:, lo:hi] for w, y in zip(ws, ys)]
        for m, z in enumerate(zs):
            outputs[lo:hi, m] = z.T
        if diverged or hi - lo < refresh:
            continue
        ages = lam ** np.arange(hi - lo - 1, -1, -1, dtype=float)
        weight = lam ** (hi - lo) * weight + ages.sum()
        for m, (y, z, est) in enumerate(zip(ys, zs, ests)):
            y = y[:, lo:hi]
            moduli = z.real**2 + z.imag**2 if ccm else 1.0
            s[m] = lam ** (hi - lo) * s[m] + (y * (ages * moduli)[..., None, :]) @ y.conj().T
            if ccm:
                t[m] = lam ** (hi - lo) * t[m] + (y @ (ages * np.conj(z)).T).T
            targets = scn.nu * np.stack(branch_channels(est[:, (hi - 1) // per_block])[:nb])
            try:
                w = constrained_quadratic_filter(s[m] / weight, t[m] / weight, cstack, targets, scn.ridge)
                if first_divergence(np.sum(w.real**2 + w.imag**2, axis=1, keepdims=True)) == 0:
                    raise ArithmeticError("filter norm out of bounds")
            except ArithmeticError:  # also ConditioningError from a failed solve
                diverged = True
                break
            ws[m] = w
    return outputs, diverged, np.stack(ws)


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
    cs = user_constraint_matrices(spreading, 0, scn.n_paths)
    ests = []
    if need_tracking and scn.channel_estimator == "genie":
        ests = [s / np.linalg.norm(s, axis=0) for s in (ch.stacked for ch in channels)]
    elif need_tracking:
        track = _track_svd if scn.channel_estimator == "svd" else _track_sg
        tracked = [track(scn, cs[0], y, ch.stacked) for y, ch in zip(ys, channels)]
        ests = [trace for trace, _ in tracked]
        mse_blocks = np.mean([channel_mse(e, ch.stacked) for e, ch in zip(ests, channels)], axis=0)
        name = f"channel-{scn.channel_estimator}"
        result.channel_mse[name] = np.repeat(mse_blocks, 2)
        result.diverged[name] = any(diverged for _, diverged in tracked)
    truth = streams[0].symbols
    adapted = _adapt(scn.algorithms, scn, ys, ests, truth, cs)
    for alg in scn.algorithms:
        outputs, diverged, _ = adapted[alg]
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
    report scalar error rates over the symbols past `ber_skip`.  With
    ``workers`` above 1 the trials run in a process pool whose workers each
    run BLAS on one thread, unless a BLAS thread variable is set.
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
        # Imported here so serial runs never load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        # Each worker sets BLAS to one thread itself: a forked worker would
        # inherit the setting, a spawned one would not.
        with ProcessPoolExecutor(max_workers=workers, initializer=_blas.use_one_thread) as pool:
            outcomes = list(pool.map(_run_task, tasks))
    else:
        outcomes = [_run_task(t) for t in tasks]
    by_point: dict[int, list] = {}
    for point_index, run_index, tr in sorted(outcomes, key=lambda o: (o[0], o[1])):
        by_point.setdefault(point_index, []).append(tr)
    rows = []
    diverged_total = 0
    for p, trials in by_point.items():
        diverged_total += sum(any(tr.diverged.values()) for tr in trials)
        # Halving the bit errors is exact, so a mean of halves is the rate.
        series = [
            (alg, "ber", [tr.bit_errors[alg] / 2.0 for tr in trials])
            for alg in sorted(trials[0].bit_errors)
        ] + [
            (name, "mse", [tr.channel_mse[name] for tr in trials])
            for name in sorted(trials[0].channel_mse)
        ]
        for name, metric, per_trial in series:
            if axis == "symbols":
                per_run = np.stack([smooth_series(x, smooth_window) if metric == "ber" else x for x in per_trial])
                cols = [(float(g), per_run[:, int(g)]) for g in grid]
            else:
                skip = points[p].ber_skip
                cols = [(float(grid[p]), np.array([x[skip:].mean() for x in per_trial]))]
            rows += [MetricRow(v, name, metric, float(col.mean()), half_width(col), runs) for v, col in cols]
    rows.sort(key=lambda r: (r.axis_value, r.algorithm, r.metric))
    return MetricsSeries(
        axis=axis,
        rows=rows,
        seed_hash=_seed_hash(scn.master_seed, len(points), runs),
        diverged_trials=diverged_total,
    )
