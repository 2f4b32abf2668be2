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
for one receive antenna, either from the structured term alone (eta = 0) or,
with ``include_isi``, at chip rate with the spill.  With one transmit antenna
each symbol is its own M-chip observation, y = A b conv H + eta + n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fading import clarke_fading_sequence
from .spreading import SpreadingSet, build_convolution_matrix, user_constraint_matrices

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


def _noise(shape, noise_var: float, rng: np.random.Generator | None) -> np.ndarray:
    if noise_var == 0.0 or rng is None:
        return np.zeros(shape, dtype=complex)
    scale = np.sqrt(noise_var / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _slot_coefficients(streams: list[SymbolStream]) -> tuple[np.ndarray, np.ndarray]:
    """Per-slot transmit coefficients (amplitude folded in) for both antennas.

    Returns (d1, d2), each (users, slots): antenna one sends b1 then
    -conj(b2) over a block, antenna two sends b2 then conj(b1).
    """
    symbols = np.stack([s.symbols for s in streams])
    amps = np.stack([s.amplitude_per_symbol() for s in streams])
    b1 = symbols[:, 0::2]
    b2 = symbols[:, 1::2]
    (s1a, s2a), (s1b, s2b) = alamouti_encode(b1, b2)
    d1 = np.empty_like(symbols)
    d2 = np.empty_like(symbols)
    d1[:, 0::2] = s1a
    d1[:, 1::2] = s1b
    d2[:, 0::2] = s2a
    d2[:, 1::2] = s2b
    # Amplitude is constant over a block (entries happen at block boundaries).
    block_amp = amps[:, 0::2]
    d1 *= np.repeat(block_amp, 2, axis=1)
    d2 *= np.repeat(block_amp, 2, axis=1)
    return d1, d2


def _chip_stream(
    streams: list[SymbolStream], spreading: SpreadingSet
) -> np.ndarray:
    """Superposed transmit chips, shape (tx_antennas, slots * gain)."""
    n_tx = spreading.tx_antennas
    if n_tx == 2:
        d1, d2 = _slot_coefficients(streams)
        per_antenna = [d1, d2]
    else:
        symbols = np.stack([s.symbols for s in streams])
        amps = np.stack([s.amplitude_per_symbol() for s in streams])
        per_antenna = [symbols * amps]
    chips = np.empty((n_tx, len(streams[0]) * spreading.gain), dtype=complex)
    for ant in range(n_tx):
        # (slots, users) @ (users, gain) -> chips laid out slot by slot
        chips[ant] = (per_antenna[ant].T @ spreading.codes[:, ant, :]).ravel()
    return chips


def _received_chips(
    chips: np.ndarray, channel: SpaceTimeChannel, gain: int
) -> np.ndarray:
    """Chip-rate convolution with per-block taps (transmit-time convention)."""
    n_tx, total = chips.shape
    lp = channel.n_paths
    chips_per_block = 2 * gain  # the channel is constant over two slots
    out = np.zeros(total + lp - 1, dtype=complex)
    for ant in range(n_tx):
        for lag in range(lp):
            taps = np.repeat(channel.taps[ant, lag, :], chips_per_block)[:total]
            out[lag : lag + total] += taps * chips[ant]
    return out


def _window_matrix(received: np.ndarray, slots: int, gain: int, window: int) -> np.ndarray:
    idx = np.arange(slots)[:, None] * gain + np.arange(window)[None, :]
    return received[idx]


def simulate_packet(
    streams: list[SymbolStream],
    spreading: SpreadingSet,
    channel: SpaceTimeChannel,
    noise_var: float,
    rng: np.random.Generator | None,
    include_isi: bool = False,
) -> np.ndarray:
    """All observations of one receive antenna for a whole packet.

    All users share `channel` (downlink).  For two transmit antennas the
    result has shape (2M, blocks) with even slots conjugated into the stack;
    for one it has shape (M, symbols).  With ``include_isi`` the packet is
    generated at chip rate, so windows share edge chips and noise samples the
    way a receiver actually sees them.
    """
    nsym = len(streams[0])
    if any(len(s) != nsym for s in streams):
        raise ValueError("all streams must have the same length")
    if nsym % 2:
        raise ValueError("packet length must be even (two symbols per block)")
    n = spreading.gain
    lp = channel.n_paths
    m = n + lp - 1
    nblocks = nsym // 2
    n_tx = spreading.tx_antennas
    if include_isi:
        chips = _chip_stream(streams, spreading)
        received = _received_chips(chips, channel, n)
        received += _noise(received.shape, noise_var, rng)
        windows = _window_matrix(received, nsym, n, m)
        if n_tx == 2:
            return np.hstack([windows[0::2], np.conj(windows[1::2])]).T
        return windows.T
    stacked = channel.stacked  # (2Lp or Lp, blocks)
    if n_tx == 2:
        y = np.zeros((2 * m, nblocks), dtype=complex)
        for user, stream in enumerate(streams):
            cm = user_constraint_matrices(spreading, user, lp)
            amp = stream.amplitude_per_symbol()[0::2]
            b1 = stream.symbols[0::2] * amp
            b2 = stream.symbols[1::2] * amp
            y += (cm.odd @ stacked) * b1[None, :]
            y += (cm.even @ np.conj(stacked)) * b2[None, :]
        y += _noise(y.shape, noise_var, rng)
        return y
    y = np.zeros((m, nsym), dtype=complex)
    for user, stream in enumerate(streams):
        conv = build_convolution_matrix(spreading.code(user, 0), lp)
        sig = conv @ stacked  # (M, blocks)
        coeff = stream.symbols * stream.amplitude_per_symbol()
        y += np.repeat(sig, 2, axis=1) * coeff[None, :]
    y += _noise(y.shape, noise_var, rng)
    return y
