"""Downlink synchronous DS-CDMA signal model with a two-antenna block code.

Symbols are QPSK (+-1 +-j).  A block spans two symbol intervals: the first
slot transmits (b1, b2) from antennas (1, 2) and the second slot transmits
(-conj(b2), conj(b1)), the classic orthogonal two-antenna mapping.  The
receiver observes, per slot, a window of M = gain + n_paths - 1 chips and
stacks [window(slot 1); conj(window(slot 2))] into a single 2M vector.  With
the stacked channel H = [h1; conj(h2)] that vector is exactly linear in the
block's two symbols:

    y(i) = sum_k A_k b_k(2i-1) C_k H(i) + A_k b_k(2i) Cbar_k conj(H(i)) + eta + n

where (C_k, Cbar_k) are the user's code-structure matrices, eta collects the
chip spill of neighbouring slots (inter-symbol interference) and n is white
circular Gaussian noise with covariance sigma^2 I.

Time variation uses block fading: the channel is constant over each block and
every transmitted chip propagates through the channel of the block it was sent
in, so the structured term above is exact and only eta carries neighbouring
blocks' channels.

`simulate_packet` is the one way to generate observations: a whole packet
for one receive antenna, in one path.  It spreads (every user's chips
superposed per antenna, one product), convolves (each slot's own chips with
its block's taps into an M-chip window, which is the structured term above,
eta = 0) and, only with ``include_isi``, adds eta: the chips that the
neighbouring slots spill onto the Lp - 1 edge chips of each window.  The
noise n is drawn in the observations' shape, or with ``include_isi`` at chip
rate and windowed like the signal.  With one transmit antenna each symbol is
its own M-chip observation, y = A b conv H + eta + n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fading import clarke_fading_sequence
from .spreading import SpreadingSet

__all__ = [
    "SymbolStream",
    "SpaceTimeChannel",
    "random_qpsk",
    "alamouti_encode",
    "three_path_placement",
    "random_multipath_channel",
    "simulate_packet",
]

QPSK_POINTS = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
_SLOTS_PER_RUN = 512  # chip temporaries of 512 KB at gain 64


def random_qpsk(count: int, rng: np.random.Generator) -> np.ndarray:
    """Independent uniform QPSK symbols with power 2."""
    return QPSK_POINTS[rng.integers(0, 4, size=count)]


@dataclass
class SymbolStream:
    """A user's symbol sequence and (possibly time-varying) amplitude.

    `amplitude` is a scalar or a per-symbol array of the same length as
    `symbols`; a stream that enters the system mid-packet carries zeros up to
    its entry index.
    """

    symbols: np.ndarray
    amplitude: float | np.ndarray = 1.0

    def __post_init__(self):
        self.symbols = np.asarray(self.symbols, dtype=complex)
        if np.ndim(self.amplitude) not in (0, 1):
            raise ValueError("amplitude must be a scalar or a 1-d array")
        if np.ndim(self.amplitude) == 1 and len(self.amplitude) != len(self.symbols):
            raise ValueError("per-symbol amplitude length must match the stream")

    def __len__(self) -> int:
        return len(self.symbols)

    def amplitude_per_symbol(self) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.amplitude, dtype=float), self.symbols.shape)


def alamouti_encode(b_odd, b_even):
    """Map a symbol pair onto the two antennas over two slots.

    Returns ((tx1_slot1, tx2_slot1), (tx1_slot2, tx2_slot2)) =
    ((b_odd, b_even), (-conj(b_even), conj(b_odd))).  The 2x2 slot-by-antenna
    matrix has orthogonal columns for any complex pair.
    """
    b_odd = np.asarray(b_odd, dtype=complex)
    b_even = np.asarray(b_even, dtype=complex)
    return (b_odd, b_even), (-np.conj(b_even), np.conj(b_odd))


@dataclass
class SpaceTimeChannel:
    """Per-block FIR channel taps for one receive antenna.

    taps has shape (tx_antennas, n_paths, blocks).  `stacked` pairs antenna
    one's taps with the conjugate of antenna two's, which is the channel
    vector the linear two-slot block model consumes.
    """

    taps: np.ndarray

    def __post_init__(self):
        self.taps = np.asarray(self.taps, dtype=complex)
        if self.taps.ndim != 3:
            raise ValueError("taps must have shape (tx_antennas, n_paths, blocks)")

    @property
    def tx_antennas(self) -> int:
        return self.taps.shape[0]

    @property
    def n_paths(self) -> int:
        return self.taps.shape[1]

    @property
    def stacked(self) -> np.ndarray:
        """(2 Lp, blocks) stacked channel for two antennas, (Lp, blocks) for one."""
        if self.tx_antennas == 1:
            return self.taps[0]
        return np.vstack([self.taps[0], np.conj(self.taps[1])])


def three_path_placement(
    n_paths: int, rng: np.random.Generator, relative_powers_db=(0.0, -3.0, -6.0)
) -> tuple[np.ndarray, np.ndarray]:
    """Random sparse power-delay profile.

    The first path sits at delay zero and each further path is 1 or 2 chips
    (equiprobably) after the previous one.  Amplitudes follow the relative
    power profile normalized to unit total energy before truncation; paths
    falling at or beyond `n_paths` chips are dropped.

    Returns (delays, amplitudes) for the surviving paths.
    """
    powers = 10.0 ** (np.asarray(relative_powers_db, dtype=float) / 10.0)
    amplitudes = np.sqrt(powers / powers.sum())
    spacing = rng.integers(1, 3, size=len(amplitudes) - 1)
    delays = np.concatenate([[0], np.cumsum(spacing)])
    keep = delays < n_paths
    return delays[keep], amplitudes[keep]


def random_multipath_channel(
    tx_antennas: int,
    n_paths: int,
    blocks: int,
    fd_t: float,
    rng: np.random.Generator,
    relative_powers_db=(0.0, -3.0, -6.0),
    fading: str = "clarke",
) -> SpaceTimeChannel:
    """Sparse multipath channel with i.i.d. fading gains per (antenna, path).

    Path delays are shared by the transmit antennas (co-located array); gains
    are independent.  `fd_t` is the Doppler shift normalized by the block
    interval.  With ``fading="off"`` the taps equal the profile amplitudes
    exactly and carry no randomness beyond the delays.
    """
    if fading not in ("clarke", "off"):
        raise ValueError(f"unknown fading mode: {fading!r}")
    delays, amplitudes = three_path_placement(n_paths, rng, relative_powers_db)
    taps = np.zeros((tx_antennas, n_paths, blocks), dtype=complex)
    for ant in range(tx_antennas):
        if fading == "clarke":
            gains = clarke_fading_sequence(fd_t, len(delays), blocks, rng)
        else:
            gains = np.ones((len(delays), blocks), dtype=complex)
        taps[ant, delays, :] = amplitudes[:, None] * gains
    return SpaceTimeChannel(taps=taps)


def _add_noise(y: np.ndarray, noise_var: float, rng: np.random.Generator) -> None:
    """Add sqrt(noise_var / 2) (x + j x') to `y` in place, where x and then
    x' are standard normal draws in `y`'s shape."""
    scale = np.sqrt(noise_var / 2.0)
    draw = np.empty(y.shape)
    for part in (y.real, y.imag):
        rng.standard_normal(out=draw)
        draw *= scale
        part += draw


def _slot_coefficients(streams: list[SymbolStream], tx_antennas: int) -> np.ndarray:
    """Per-slot transmit coefficients, amplitude folded in, shape
    (tx_antennas, users, slots).

    One antenna sends each symbol in its own slot.  Two antennas send
    (b1, b2) in a block's first slot and (-conj(b2), conj(b1)) in its second.
    """
    symbols = np.stack([s.symbols for s in streams])
    amps = np.stack([s.amplitude_per_symbol() for s in streams])
    if tx_antennas == 1:
        return (symbols * amps)[None]
    first, second = alamouti_encode(symbols[:, 0::2], symbols[:, 1::2])
    coef = np.empty((2,) + symbols.shape, dtype=complex)
    coef[:, :, 0::2] = first
    coef[:, :, 1::2] = second
    # Amplitude is constant over a block (entries happen at block boundaries).
    coef *= np.repeat(amps[:, 0::2], 2, axis=1)
    return coef


def _slot_windows(
    streams: list[SymbolStream], spreading: SpreadingSet, taps: np.ndarray
) -> np.ndarray:
    """Each slot's own chips convolved with its block's taps.

    Per antenna, one (gain, users) @ (users, slots) product superposes every
    user's chips; each lag then adds those chips, scaled by the slot's taps,
    into the (M, slots) windows, M = gain + n_paths - 1.  A lag whose taps
    are all zero adds nothing.  Slots are taken _SLOTS_PER_RUN at a time, so
    the chip temporaries stay small next to the windows.
    """
    coef = _slot_coefficients(streams, spreading.tx_antennas)
    codes = spreading.codes.transpose(1, 2, 0)  # (tx_antennas, gain, users)
    gain, slots = spreading.gain, coef.shape[2]
    lp = taps.shape[1]
    live = taps.any(axis=2)
    per_slot_taps = np.repeat(taps, 2, axis=2)  # a block's taps serve both its slots
    windows = np.zeros((gain + lp - 1, slots), dtype=complex)
    for start in range(0, slots, _SLOTS_PER_RUN):
        run = slice(start, start + _SLOTS_PER_RUN)
        for ant in range(spreading.tx_antennas):
            chips = codes[ant] @ coef[ant, :, run]
            for lag in range(lp):
                if live[ant, lag]:
                    windows[lag : lag + gain, run] += chips * per_slot_taps[ant, lag, run]
    return windows


def _add_spill(windows: np.ndarray, gain: int) -> None:
    """Add to each (M, slots) window the chips its neighbours spill into it:
    the previous slots' tails onto its head, the next slots' heads onto its
    tail."""
    m = windows.shape[0]
    own = windows.copy()
    for shift in range(gain, m, gain):
        d = shift // gain
        windows[: m - shift, d:] += own[shift:, :-d]
        windows[shift:, :-d] += own[: m - shift, d:]


def simulate_packet(
    streams: list[SymbolStream],
    spreading: SpreadingSet,
    channel: SpaceTimeChannel,
    noise_var: float,
    rng: np.random.Generator | None,
    include_isi: bool = False,
) -> np.ndarray:
    """All observations of one receive antenna for a whole packet.

    All users share `channel` (downlink).  The users' chips are superposed
    once per antenna, and each slot's own chips are convolved with its
    block's taps into an M-chip window.  With ``include_isi`` every window
    also receives its neighbours' spill and a window of one chip-rate noise
    sequence of length slots * gain + n_paths - 1, so windows share edge
    chips and noise samples the way a receiver sees them; without it the
    noise is drawn directly in the result's shape.  For two transmit
    antennas the result has shape (2M, blocks), each block's second window
    conjugated under its first; for one it has shape (M, symbols).
    """
    nsym = len(streams[0])
    if any(len(s) != nsym for s in streams):
        raise ValueError("all streams must have the same length")
    if nsym % 2:
        raise ValueError("packet length must be even (two symbols per block)")
    n = spreading.gain
    lp = channel.n_paths
    m = n + lp - 1
    noisy = noise_var != 0.0 and rng is not None
    windows = _slot_windows(streams, spreading, channel.taps)
    if include_isi:
        _add_spill(windows, n)
        if noisy:
            chip_noise = np.zeros(nsym * n + lp - 1, dtype=complex)
            _add_noise(chip_noise, noise_var, rng)
            windows += sliding_window_view(chip_noise, m)[::n].T
    if spreading.tx_antennas == 2:
        y = np.empty((2 * m, nsym // 2), dtype=complex)
        y[:m] = windows[:, 0::2]
        np.conjugate(windows[:, 1::2], out=y[m:])
    else:
        y = windows
    if noisy and not include_isi:
        _add_noise(y, noise_var, rng)
    return y
