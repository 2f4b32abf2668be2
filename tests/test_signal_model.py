"""Block-coded downlink signal model against chip-level references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stcdma.oracles import reference_received_blocks
from stcdma.signal_model import (
    QPSK_POINTS,
    SymbolStream,
    alamouti_encode,
    random_multipath_channel,
    random_qpsk,
    simulate_packet,
    three_path_placement,
)
from stcdma.spreading import (
    build_convolution_matrix,
    random_spreading_set,
    user_constraint_matrices,
)


def _random_streams(count, nsym, rng, amplitudes=None):
    streams = []
    for k in range(count):
        amp = 1.0 if amplitudes is None else amplitudes[k]
        streams.append(SymbolStream(symbols=random_qpsk(nsym, rng), amplitude=amp))
    return streams


def test_qpsk_points_unit_energy():
    assert np.allclose(np.abs(QPSK_POINTS), np.sqrt(2.0))
    rng = np.random.default_rng(0)
    sym = random_qpsk(500, rng)
    assert set(np.round(sym, 6)) <= set(np.round(QPSK_POINTS, 6))


def test_symbol_stream_amplitude_length_checked():
    with pytest.raises(ValueError):
        SymbolStream(symbols=np.ones(4, complex), amplitude=np.ones(3))


def test_alamouti_block_matrix_is_orthogonal():
    rng = np.random.default_rng(1)
    b = random_qpsk(2, rng)
    (s11, s12), (s21, s22) = alamouti_encode(b[:1], b[1:])
    x = np.array([[s11[0], s12[0]], [s21[0], s22[0]]])
    gram = x.conj().T @ x
    energy = abs(b[0]) ** 2 + abs(b[1]) ** 2
    assert np.allclose(gram, energy * np.eye(2), atol=1e-12)


def test_three_path_placement_profile():
    rng = np.random.default_rng(2)
    for _ in range(50):
        delays, amps = three_path_placement(6, rng)
        assert delays[0] == 0
        assert np.all(np.diff(delays) >= 1) and np.all(np.diff(delays) <= 2)
        assert np.isclose(np.sum(amps**2), 1.0)
        ratios_db = 20 * np.log10(amps / amps[0])
        assert np.allclose(ratios_db, [0.0, -3.0, -6.0], atol=1e-9)


def test_multipath_channel_shares_delays_across_antennas():
    rng = np.random.default_rng(3)
    ch = random_multipath_channel(2, 6, 4, 0.0, rng, fading="clarke")
    assert ch.taps.shape == (2, 6, 4)
    support0 = np.abs(ch.taps[0, :, 0]) > 0
    support1 = np.abs(ch.taps[1, :, 0]) > 0
    assert np.array_equal(support0, support1)
    # independent gains on the shared support
    assert not np.allclose(ch.taps[0, support0, 0], ch.taps[1, support1, 0])


def test_multipath_channel_static_when_fading_off():
    rng = np.random.default_rng(4)
    ch = random_multipath_channel(2, 3, 5, 0.0, rng, fading="off")
    for b in range(1, 5):
        assert np.array_equal(ch.taps[:, :, b], ch.taps[:, :, 0])


# The packet generator on both antenna counts and both spill modes.
_PACKET_MODES = [(tx, isi) for tx in (1, 2) for isi in (False, True)]


def test_packet_single_user_flat_terms():
    """With one user, one tap and a unit channel, every observation is the
    bare structured model: per block b1 C H + b2 Cbar conj(H) with two
    transmit antennas, per symbol b conv H with one."""
    rng = np.random.default_rng(5)
    for tx, isi in _PACKET_MODES:
        sp = random_spreading_set(1, 8, "zero-padded", tx, seed=1)
        ch = random_multipath_channel(tx, 1, 3, 0.0, rng, relative_powers_db=(0.0,), fading="off")
        ch.taps[:] = 1.0
        streams = _random_streams(1, 6, rng)
        y = simulate_packet(streams, sp, ch, 0.0, rng, include_isi=isi)
        b = streams[0].symbols
        h = ch.stacked[:, 0]
        if tx == 2:
            cm = user_constraint_matrices(sp, 0, 1)
            expected = np.outer(cm.odd @ h, b[0::2]) + np.outer(cm.even @ np.conj(h), b[1::2])
        else:
            expected = np.outer(build_convolution_matrix(sp.code(0, 0), 1) @ h, b)
        assert np.allclose(y, expected, atol=1e-14), (tx, isi)


def test_packet_additive_in_users_and_homogeneous():
    rng = np.random.default_rng(6)

    def silence(stream):
        return SymbolStream(symbols=stream.symbols, amplitude=0.0)

    for tx, isi in _PACKET_MODES:
        sp = random_spreading_set(2, 8, "zero-padded", tx, seed=2)
        ch = random_multipath_channel(tx, 2, 3, 0.001, rng, relative_powers_db=(0.0, -3.0), fading="clarke")
        streams = _random_streams(2, 6, rng, amplitudes=[1.0, 1.7])

        def packet(users):
            return simulate_packet(users, sp, ch, 0.0, rng, include_isi=isi)

        both = packet(streams)
        one = packet([streams[0], silence(streams[1])])
        two = packet([silence(streams[0]), streams[1]])
        assert np.allclose(both, one + two, atol=1e-13), (tx, isi)
        scaled = [SymbolStream(symbols=streams[0].symbols, amplitude=3.0), silence(streams[1])]
        assert np.allclose(packet(scaled), 3.0 * one, atol=1e-13), (tx, isi)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5000))
def test_packet_matches_chip_oracle_with_spillover(seed):
    rng = np.random.default_rng(seed)
    sp = random_spreading_set(3, 8, "zero-padded", 2, seed=seed % 23)
    ch = random_multipath_channel(2, 2, 3, 0.001, rng, relative_powers_db=(0.0, -3.0), fading="clarke")
    streams = _random_streams(3, 6, rng, amplitudes=[1.0, 1.4, 0.6])
    fast = simulate_packet(streams, sp, ch, 0.0, rng, include_isi=True)
    slow = reference_received_blocks(streams, sp, ch)
    assert fast.shape == slow.shape == (2 * (8 + 2 - 1), 3)
    assert np.max(np.abs(fast - slow)) < 1e-12


def test_chip_spill_confined_to_window_edges():
    """The idealized model drops only the inter-slot chip spill, which can
    land solely on the Lp-1 edge chips of each window."""
    rng = np.random.default_rng(8)
    lp = 3
    sp = random_spreading_set(2, 8, "zero-padded", 2, seed=5)
    ch = random_multipath_channel(2, lp, 3, 0.0, rng, fading="clarke")
    streams = _random_streams(2, 6, rng)
    ideal = simulate_packet(streams, sp, ch, 0.0, rng, include_isi=False)
    oracle = reference_received_blocks(streams, sp, ch)
    spill = oracle - ideal
    m = 8 + lp - 1
    core = np.r_[np.arange(lp - 1, m - (lp - 1)), np.arange(m + lp - 1, 2 * m - (lp - 1))]
    assert np.max(np.abs(spill[core, :])) < 1e-12
    assert np.max(np.abs(spill)) > 0.1  # the dropped spill is real


def test_single_tap_channel_has_no_spill():
    rng = np.random.default_rng(14)
    sp = random_spreading_set(2, 8, "zero-padded", 2, seed=5)
    ch = random_multipath_channel(2, 1, 3, 0.0, rng, relative_powers_db=(0.0,), fading="clarke")
    streams = _random_streams(2, 6, rng)
    ideal = simulate_packet(streams, sp, ch, 0.0, rng, include_isi=False)
    oracle = reference_received_blocks(streams, sp, ch)
    assert np.max(np.abs(ideal - oracle)) < 1e-13


def test_noise_calibration():
    rng = np.random.default_rng(9)
    sp = random_spreading_set(1, 8, "zero-padded", 2, seed=6)
    ch = random_multipath_channel(2, 2, 2000, 0.0, rng, relative_powers_db=(0.0, -3.0), fading="off")
    streams = _random_streams(1, 4000, rng)
    sigma2 = 0.25
    clean = simulate_packet(streams, sp, ch, 0.0, rng)
    noisy = simulate_packet(streams, sp, ch, sigma2, np.random.default_rng(10))
    noise = noisy - clean
    per_component = np.mean(np.abs(noise) ** 2)
    assert abs(per_component - sigma2) < 0.01
    # circularity: real and imaginary parts carry half the power each
    assert abs(np.mean(noise.real**2) - sigma2 / 2) < 0.01


def test_window_length_follows_path_count():
    rng = np.random.default_rng(11)
    for lp in (1, 2, 5):
        sp = random_spreading_set(1, 8, "zero-padded", 2, seed=7)
        powers = tuple([0.0] * min(lp, 3))
        ch = random_multipath_channel(2, lp, 1, 0.0, rng, relative_powers_db=powers, fading="off")
        streams = _random_streams(1, 2, rng)
        y = simulate_packet(streams, sp, ch, 0.0, rng)
        assert y.shape == (2 * (8 + lp - 1), 1)


def test_single_antenna_packet_shape():
    rng = np.random.default_rng(13)
    sp = random_spreading_set(2, 8, "zero-padded", 1, seed=9)
    ch = random_multipath_channel(1, 2, 2, 0.0, rng, relative_powers_db=(0.0, -3.0), fading="off")
    streams = _random_streams(2, 4, rng)
    y = simulate_packet(streams, sp, ch, 0.0, rng)
    assert y.shape == (8 + 2 - 1, 4)
