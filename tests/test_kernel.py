"""The exact integer character kernel and the matrices built on it."""

import time
from fractions import Fraction

import numpy as np
import pytest

from spectral_fractal.errors import RankDeficient
from spectral_fractal.frames import frame_matrix, frame_matrix_bounds
from spectral_fractal.intlat import (
    IntMatrix,
    adjugate,
    canonical_residue,
    character_phases,
    character_residues,
    complete_representatives,
    inverse_image,
    residues_unique,
)
from spectral_fractal.measure import FourierEval, discrete_approximant
from spectral_fractal.triples import affine_pair, digit_sums, hadamard_matrix

SKEW = ([[4, 0], [1, 2]], [(0, 0), (0, 3), (1, 0), (1, 3)], [(0, 0), (2, 0), (0, 1), (2, 1)])
JP = ([[4]], [(0,), (2,)], [(0,), (1,)])


def fraction_hadamard(R, B, L) -> np.ndarray:
    """Oracle: <R^{-1} b, l> mod 1 in Fractions, one entry at a time."""
    M = IntMatrix.from_rows(R)
    inv = [[Fraction(x) for x in row] for row in M.inverse_fractions()]
    H = np.empty((len(L), len(B)), dtype=complex)
    for j, b in enumerate(B):
        rb = [sum(inv[i][t] * b[t] for t in range(M.d)) for i in range(M.d)]
        for i, l in enumerate(L):
            theta = sum((rb[t] * l[t] for t in range(M.d)), Fraction(0))
            H[i, j] = np.exp(2j * np.pi * float(theta - (theta.numerator // theta.denominator)))
    return H / np.sqrt(len(B))


@pytest.mark.parametrize("system", [JP, SKEW], ids=["jp", "skew"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_hadamard_matrix_equals_fraction_oracle(system, k):
    R, B, L = system
    M = IntMatrix.from_rows(R)
    Bk = digit_sums(M, B, k)
    Lk = digit_sums(M.T, L, k)
    H = hadamard_matrix(M.pow(k), Bk, Lk)
    assert np.array_equal(H, fraction_hadamard(M.pow(k), Bk, Lk))


def test_adjugate_identity():
    for rows in ([[4, 0], [1, 2]], [[2, 1, 0], [0, 3, 1], [1, 0, 5]], [[-3]]):
        M = IntMatrix.from_rows(rows)
        adj, det = adjugate(M)
        assert det == M.det()
        assert M.mul(adj).rows == tuple(
            tuple(det if i == j else 0 for j in range(M.d)) for i in range(M.d)
        )


def test_int64_and_object_paths_agree_above_2_31():
    # d D^2 < 2^63 takes int64 in 1D; the same residues in a 2D block
    # diagonal embedding overflow that bound and take Python ints
    D = 2**31 + 11
    cols = [(0,), (1,), (2**40 + 3,), (-(2**35) - 7,)]
    rows = [(5,), (2**62 + 1,), (-(10**30),), (D - 1,)]
    r1, D1 = character_residues([[D]], rows, cols)
    r2, D2 = character_residues([[D, 0], [0, 1]], [l + (0,) for l in rows], [c + (0,) for c in cols])
    assert r1.dtype == np.int64 and r2.dtype == object
    assert D1 == D2 == D
    exact = [[(l[0] * c[0]) % D for c in cols] for l in rows]
    assert r1.tolist() == exact and r2.tolist() == exact
    assert np.array_equal(character_phases([[D]], rows, cols), r1 / D)
    assert np.array_equal(
        character_phases([[D, 0], [0, 1]], [l + (0,) for l in rows], [c + (0,) for c in cols]),
        r1 / D,
    )


def test_negative_determinant_phases():
    M = [[0, 2], [3, 1]]  # det -6
    cols = complete_representatives(M)
    rows = [(1, 0), (0, 1), (2, 5)]
    inv = IntMatrix.from_rows(M).inverse_fractions()
    for l, row in zip(rows, character_phases(M, rows, cols)):
        for c, got in zip(cols, row):
            theta = sum(inv[i][t] * c[t] * l[i] for i in range(2) for t in range(2))
            assert got == float(theta - (theta.numerator // theta.denominator))


def test_residues_unique_matches_canonical_residues():
    M = IntMatrix.from_rows(SKEW[0]).pow(2)
    rng = np.random.default_rng(4)
    vecs = [tuple(int(x) for x in rng.integers(-60, 60, size=2)) for _ in range(80)]
    canon = [canonical_residue(M, v) for v in vecs]
    for i in range(len(vecs)):
        for j in range(i):
            assert residues_unique(M, [vecs[i], vecs[j]]) == (canon[i] != canon[j])
    assert residues_unique(M, complete_representatives(M))
    assert not residues_unique(M, [(0, 0), M.matvec((1, -2))])
    with pytest.raises(RankDeficient):
        residues_unique([[1, 2], [2, 4]], [(0, 0)])


def test_inverse_image_is_correctly_rounded():
    M = IntMatrix.from_rows(SKEW[0]).pow(5)
    vecs = digit_sums(SKEW[0], SKEW[1], 5)[:50]
    inv = M.inverse_fractions()
    got = inverse_image(M, vecs)
    for v, row in zip(vecs, got):
        assert tuple(row) == tuple(float(sum(inv[i][t] * v[t] for t in range(2))) for i in range(2))


# ---------------------------------------------------------------------------
# frame matrices


def test_shifted_rows_match_exact_phases_at_level_12():
    # rows shifted by (R^T)^n k keep their residues mod (R^T)^n, so the
    # phases must not move; corrected trees produce exactly such rows
    n = 12
    pair = affine_pair(*JP[:2])
    base = digit_sums([[4]], JP[2], 3)
    rows = [(l[0] + 4**n * 12345,) for l in base]
    F = frame_matrix(pair, n, rows)
    sums = digit_sums([[4]], JP[1], n)
    exact = np.array(
        [[Fraction(-l[0] * b[0], 4**n) % 1 for b in sums] for l in rows], dtype=object
    )
    want = np.exp(2j * np.pi * exact.astype(float)) / np.sqrt(2**n)
    assert np.max(np.abs(F - want)) < 1e-12
    assert np.array_equal(F, frame_matrix(pair, n, base))


def test_jp_level_10_tower_bounds_are_one():
    pair = affine_pair(*JP[:2])
    rows = digit_sums([[4]], JP[2], 10)
    lo, hi = frame_matrix_bounds(pair, 10, rows)
    assert abs(lo - 1) < 1e-12 and abs(hi - 1) < 1e-12


def test_wide_frame_matrix_is_rank_bounded():
    # 9 rows against 2^13 columns: sigma_min^2 is 0 by rank, and the top
    # value comes from the 9 x 9 rows-side Gram
    pair = affine_pair([[3]], [(0,), (2,)])
    rows = complete_representatives([[9]])
    t0 = time.monotonic()
    lo, hi = frame_matrix_bounds(pair, 13, rows)
    assert time.monotonic() - t0 < 5.0
    F = frame_matrix(pair, 13, rows)
    want = np.linalg.eigvalsh(F @ F.conj().T)[-1]
    assert lo == 0.0
    assert abs(hi - want) < 1e-12


def test_wide_matrix_free_path():
    pair = affine_pair(*JP[:2])
    rows = digit_sums([[4]], JP[2], 3)
    dense = frame_matrix_bounds(pair, 6, rows)
    mfree = frame_matrix_bounds(pair, 6, rows, dense_cap=4)
    assert dense[0] == mfree[0] == 0.0
    assert abs(dense[1] - 1) < 1e-12 and abs(mfree[1] - 1) < 1e-9


# ---------------------------------------------------------------------------
# discrete approximant transform


def test_fourier_over_atom_chunks_matches_closed_form():
    # 128 points against 2^16 atoms spans several atom chunks
    pair = affine_pair([[3]], [(0,), (2,)])
    dm = discrete_approximant(pair, 16)
    xi = np.random.default_rng(2).uniform(-50.0, 50.0, size=(128, 1))
    exact = FourierEval(pair).mu_hat_truncated(xi, 16)
    assert np.max(np.abs(dm.fourier(xi) - exact)) < 1e-9
    assert abs(dm.fourier(0.25) - FourierEval(pair).mu_hat_truncated(0.25, 16)) < 1e-9
