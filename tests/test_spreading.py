"""Spreading codes, convolution matrices, and paired constraint matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stcdma.spreading import (
    SIGN_FLIPPED,
    ZERO_PADDED,
    build_convolution_matrix,
    random_spreading_set,
    user_constraint_matrices,
)


def test_single_antenna_code_alphabet():
    sp = random_spreading_set(5, 16, ZERO_PADDED, tx_antennas=1, seed=3)
    assert sp.codes.shape == (5, 1, 16)
    assert np.allclose(np.abs(sp.codes), 1.0 / 4.0)
    norms = np.linalg.norm(sp.codes, axis=2)
    assert np.allclose(norms, 1.0)


def test_sign_flipped_keeps_alphabet():
    sp = random_spreading_set(4, 16, SIGN_FLIPPED, tx_antennas=2, seed=9)
    assert np.allclose(np.abs(sp.codes), 1.0 / 4.0)
    for k in range(4):
        c1, c2 = sp.code(k, 0), sp.code(k, 1)
        assert abs(np.dot(c1, c2)) < 1e-12
        assert np.isclose(np.dot(c1, c1), 1.0)
        assert np.isclose(np.dot(c2, c2), 1.0)


def test_zero_padded_structure():
    sp = random_spreading_set(3, 16, ZERO_PADDED, tx_antennas=2, seed=4)
    for k in range(3):
        c1, c2 = sp.code(k, 0), sp.code(k, 1)
        assert np.all(c1[8:] == 0)
        assert np.all(c2[:8] == 0)
        assert np.allclose(np.abs(c1[:8]), 1.0 / np.sqrt(8))
        assert abs(np.dot(c1, c2)) < 1e-12
        assert np.isclose(np.dot(c1, c1), 1.0)


def test_odd_gain_rejected_for_two_antennas():
    with pytest.raises(ValueError):
        random_spreading_set(2, 15, ZERO_PADDED, tx_antennas=2, seed=0)


def test_spreading_determinism():
    a = random_spreading_set(4, 32, SIGN_FLIPPED, seed=11)
    b = random_spreading_set(4, 32, SIGN_FLIPPED, seed=11)
    c = random_spreading_set(4, 32, SIGN_FLIPPED, seed=12)
    assert np.array_equal(a.codes, b.codes)
    assert not np.array_equal(a.codes, c.codes)


@settings(max_examples=25, deadline=None)
@given(
    gain=st.integers(min_value=2, max_value=16).map(lambda v: 2 * v),
    n_paths=st.integers(min_value=1, max_value=6),
)
def test_convolution_matrix_columns_are_shifts(gain, n_paths):
    rng = np.random.default_rng(gain * 100 + n_paths)
    code = rng.choice([-1.0, 1.0], size=gain) / np.sqrt(gain)
    conv = build_convolution_matrix(code, n_paths)
    m = gain + n_paths - 1
    assert conv.shape == (m, n_paths)
    for col in range(n_paths):
        expected = np.zeros(m)
        expected[col : col + gain] = code
        assert np.array_equal(conv[:, col], expected)


def test_constraint_matrix_shapes_match_window():
    sp = random_spreading_set(8, 32, ZERO_PADDED, seed=1)
    c, cbar = user_constraint_matrices(sp, 0, 6)
    assert c.shape == (74, 12)
    assert cbar.shape == (74, 12)


def test_constraint_cross_product_block_structure():
    sp = random_spreading_set(3, 16, ZERO_PADDED, seed=2)
    lp = 4
    c, cbar = user_constraint_matrices(sp, 1, lp)
    cross = c.conj().T @ cbar
    assert np.allclose(cross[:lp, :lp], 0.0, atol=1e-14)
    assert np.allclose(cross[lp:, lp:], 0.0, atol=1e-14)
    # the off-diagonal blocks are antisymmetric partners
    assert np.allclose(cross[:lp, lp:], -cross[lp:, :lp].T, atol=1e-14)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_paired_signatures_orthogonal_for_any_channel(seed):
    """The two per-user signature vectors are orthogonal for every channel."""
    rng = np.random.default_rng(seed)
    sp = random_spreading_set(2, 8, ZERO_PADDED, seed=seed % 17)
    lp = 3
    c, cbar = user_constraint_matrices(sp, 0, lp)
    h = rng.normal(size=2 * lp) + 1j * rng.normal(size=2 * lp)
    u = c @ h
    v = cbar @ np.conj(h)
    assert abs(np.vdot(u, v)) < 1e-12 * np.linalg.norm(u) * np.linalg.norm(v)


def test_one_antenna_constraint_is_the_convolution_matrix():
    sp = random_spreading_set(2, 8, ZERO_PADDED, tx_antennas=1, seed=0)
    (conv,) = user_constraint_matrices(sp, 1, 2)
    assert np.array_equal(conv, build_convolution_matrix(sp.code(1, 0), 2))
