"""Spreading codes and the code-structure matrices of the two-antenna block model.

Each user transmits through one chip sequence per transmit antenna.  For the
two-antenna system the pair is built from a single random half-length sequence,
either by zero padding (the pair occupies disjoint chip intervals) or by sign
flipping (the pair occupies the full interval with orthogonal signs).  Both
constructions give unit-norm, mutually orthogonal codes of length ``gain``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ZERO_PADDED = "zero-padded"
SIGN_FLIPPED = "sign-flipped"
SCHEMES = (ZERO_PADDED, SIGN_FLIPPED)

__all__ = [
    "ZERO_PADDED",
    "SIGN_FLIPPED",
    "SCHEMES",
    "SpreadingSet",
    "random_spreading_set",
    "build_convolution_matrix",
    "ConstraintMatrices",
    "build_constraint_matrices",
    "user_constraint_matrices",
]


@dataclass(frozen=True)
class SpreadingSet:
    """Per-user, per-transmit-antenna chip sequences.

    codes has shape (users, tx_antennas, gain); every row is unit norm.
    """

    codes: np.ndarray
    scheme: str

    @property
    def tx_antennas(self) -> int:
        return self.codes.shape[1]

    @property
    def gain(self) -> int:
        return self.codes.shape[2]

    def code(self, user: int, antenna: int) -> np.ndarray:
        return self.codes[user, antenna]


def random_spreading_set(
    user_count: int,
    gain: int,
    scheme: str = ZERO_PADDED,
    tx_antennas: int = 2,
    seed: int = 0,
) -> SpreadingSet:
    """Draw random binary spreading codes for every user.

    For ``tx_antennas == 2`` each user's pair is derived from one random
    half-length +-1 sequence via `scheme`; for a single antenna the code is a
    plain random +-1 sequence of length `gain` scaled to unit norm.
    """
    if user_count < 1:
        raise ValueError("user_count must be at least 1")
    if tx_antennas not in (1, 2):
        raise ValueError("tx_antennas must be 1 or 2")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown spreading scheme: {scheme!r}")
    rng = np.random.default_rng(seed)
    if tx_antennas == 1:
        chips = rng.integers(0, 2, size=(user_count, 1, gain)) * 2 - 1
        codes = chips / np.sqrt(gain)
        return SpreadingSet(codes=codes, scheme=scheme)
    if gain % 2:
        raise ValueError("gain must be even for the two-antenna code schemes")
    half = gain // 2
    base = (rng.integers(0, 2, size=(user_count, half)) * 2 - 1) / np.sqrt(half)
    codes = np.zeros((user_count, 2, gain))
    if scheme == ZERO_PADDED:
        codes[:, 0, :half] = base
        codes[:, 1, half:] = base
    else:
        codes[:, 0, :half] = base / np.sqrt(2.0)
        codes[:, 0, half:] = base / np.sqrt(2.0)
        codes[:, 1, :half] = base / np.sqrt(2.0)
        codes[:, 1, half:] = -base / np.sqrt(2.0)
    return SpreadingSet(codes=codes, scheme=scheme)


def build_convolution_matrix(code: np.ndarray, n_paths: int) -> np.ndarray:
    """Stack chip-shifted copies of `code` as columns.

    Returns the (gain + n_paths - 1, n_paths) matrix whose column ``l`` is the
    code delayed by ``l`` chips, so matrix @ taps is the chip-rate convolution
    of the code with an FIR channel of length `n_paths`.
    """
    code = np.asarray(code, dtype=float)
    if code.ndim != 1:
        raise ValueError("code must be one-dimensional")
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    n = code.shape[0]
    out = np.zeros((n + n_paths - 1, n_paths))
    for lag in range(n_paths):
        out[lag : lag + n, lag] = code
    return out


@dataclass(frozen=True)
class ConstraintMatrices:
    """Code-structure matrices of the stacked two-slot block model.

    ``odd`` multiplies the stacked channel to give the signature of a block's
    first symbol; ``even`` multiplies the conjugated stacked channel to give
    the signature of the second symbol.  Both are (2M, 2 Lp) with
    M = gain + n_paths - 1.
    """

    odd: np.ndarray
    even: np.ndarray


def build_constraint_matrices(c1: np.ndarray, c2: np.ndarray) -> ConstraintMatrices:
    """Assemble the block-model code matrices from the two per-antenna
    convolution matrices.  Raises on shape mismatch."""
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    if c1.shape != c2.shape:
        raise ValueError(f"convolution matrix shapes differ: {c1.shape} vs {c2.shape}")
    m, lp = c1.shape
    zero = np.zeros((m, lp))
    odd = np.block([[c1, zero], [zero, c2]])
    even = np.block([[zero, c2], [-c1, zero]])
    return ConstraintMatrices(odd=odd, even=even)


def user_constraint_matrices(
    spreading: SpreadingSet, user: int, n_paths: int
) -> ConstraintMatrices:
    """Constraint matrices for one user of a two-antenna spreading set."""
    if spreading.tx_antennas != 2:
        raise ValueError("constraint matrix pair requires a two-antenna spreading set")
    c1 = build_convolution_matrix(spreading.code(user, 0), n_paths)
    c2 = build_convolution_matrix(spreading.code(user, 1), n_paths)
    return build_constraint_matrices(c1, c2)
