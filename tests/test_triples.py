import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_fractal.errors import (
    CapExceeded,
    InvalidInput,
    NotHadamard,
    ResidueCollision,
    SizeMismatch,
)
from spectral_fractal.intlat import IntMatrix, as_digit_list
from spectral_fractal.triples import (
    HadamardTriple,
    _int_rows,
    affine_pair,
    digit_sums,
    hadamard_matrix,
    hadamard_triple,
    mask_eval,
    tower,
    validate_triple,
)

from oracles import (
    dense_tower_defect,
    lift_digits,
    search_frequency_digits_1d,
    transfer_partition_check,
    u_eval,
)


def test_jp_matrix_is_fourier_pair(jp_triple):
    H = hadamard_matrix(jp_triple.R, jp_triple.B, jp_triple.L)
    want = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.allclose(H, want, atol=1e-14)
    assert jp_triple.validated and jp_triple.defect < 1e-13


def test_skew_triple_validates(skew_triple):
    assert skew_triple.validated
    assert skew_triple.defect < 1e-13


def test_validate_rejects_bad_frequency_set():
    ok, grade, defect = validate_triple([[4]], [(0,), (2,)], [(0,), (2,)])
    assert not ok and grade == "exact" and defect > 0.5


SKEW = ([[4, 0], [1, 2]], [(0, 0), (0, 3), (1, 0), (1, 3)], [(0, 0), (2, 0), (0, 1), (2, 1)])
SWAP = ([[0, 2], [1, 0]], [(0, 0), (1, 0)], [(0, 0), (0, 1)])


@pytest.mark.parametrize(
    "R,B,L,want",
    [
        ([[4]], [0, 2], [0, 1], True),  # jp
        ([[4]], [0, 2], [0, 3], True),  # jp3
        (*SKEW, True),
        ([[9]], [0, 3, 6], [0, 1, 2], True),
        (*SWAP, True),
        ([[2]], [0, 67], [0, 1], True),  # zero67
        ([[4]], [0, 2], [0, 2], False),
        ([[4]], [0, 1], [0, 1], False),
        ([[4]], [0, 2], [1, 1], False),  # a repeated l is not an invalid input
    ],
)
def test_exact_verdicts(R, B, L, want):
    ok, grade, defect = validate_triple(R, B, L)
    assert (ok, grade) == (want, "exact")
    assert (defect < 1e-12) == want
    t = hadamard_triple(R, B, L)
    assert (t.validated, t.grade) == (want, "exact")


def test_verdict_beyond_the_cap_is_numeric():
    # the reduced order 1201 is beyond GENERAL_CAP, so floats decide
    assert validate_triple([[1201]], [0, 1], [0, 1])[:2] == (False, "numeric")


def test_verdict_skips_the_mask_structure_of_l():
    # the 1D product structure of {0, 30001} would factor Phi_q for every
    # q with phi(q) <= 30001; the verdict only needs q | det R
    t0 = time.perf_counter()
    t = hadamard_triple([[4]], [0, 2], [0, 30001])
    assert time.perf_counter() - t0 < 0.01
    assert (t.validated, t.grade) == (True, "exact")


def test_hand_built_triple_is_not_validated(jp_triple):
    t = HadamardTriple(jp_triple.pair, jp_triple.L, 0.0)
    assert not t.validated
    with pytest.raises(NotHadamard):
        tower(t, 2)


def test_validate_rejects_size_mismatch():
    with pytest.raises(SizeMismatch):
        validate_triple([[4]], [(0,), (2,)], [(0,), (1,), (2,)])


def test_isometry_of_hadamard_matrix(skew_triple):
    H = hadamard_matrix(skew_triple.R, skew_triple.B, skew_triple.L)
    rng = np.random.default_rng(11)
    for _ in range(200):
        w = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert abs(np.linalg.norm(H @ w) - np.linalg.norm(w)) < 1e-10


def test_mask_values():
    pair = affine_pair([[4]], [(0,), (2,)])
    assert abs(mask_eval(pair, 0.0) - 1.0) < 1e-15
    assert abs(mask_eval(pair, 0.25)) < 1e-15  # (1 + e^{-i pi}) / 2
    assert abs(u_eval(pair, 0.125) - 0.5) < 1e-15


def test_mask_batch_shapes():
    pair = affine_pair([[4, 0], [1, 2]], [(0, 0), (0, 3), (1, 0), (1, 3)])
    grid = np.zeros((5, 7, 2))
    assert mask_eval(pair, grid).shape == (5, 7)
    assert np.allclose(mask_eval(pair, grid), 1.0)


def test_digit_array_is_built_once_and_read_only():
    pair = affine_pair([[4, 0], [1, 2]], [(0, 0), (0, 3), (1, 0), (1, 3)])
    assert pair.digit_array is pair.digit_array
    assert not pair.digit_array.flags.writeable
    with pytest.raises(ValueError):
        pair.digit_array[0, 0] = 1.0


@pytest.mark.parametrize("N", [2, 3, 4, 5, 8, 9, 16])
def test_mask_values_equal_the_direct_mean(N):
    # the in-place evaluation keeps every value of exp(...).mean bit for bit
    rng = np.random.default_rng(N)
    digits = [tuple(int(c) for c in row) for row in rng.choice(50, size=(N, 2), replace=False)]
    pair = affine_pair([[3, 1], [0, 3]], digits)
    xi = rng.uniform(-400, 400, size=(999, 2))

    def direct(x):
        return np.exp(-2j * np.pi * (x @ np.array(digits, dtype=float).T)).mean(axis=-1)

    assert np.array_equal(mask_eval(pair, xi), direct(xi))
    assert mask_eval(pair, xi[0]) == direct(xi[:1])[0]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=4))
def test_u_is_a_probability_weight(xs):
    pair = affine_pair([[4]], [(0,), (2,)])
    vals = u_eval(pair, np.array(xs))
    assert np.all(vals >= -1e-12) and np.all(vals <= 1 + 1e-12)
    # periodic modulo 1 because the digits are integers
    assert np.allclose(vals, u_eval(pair, np.array(xs) + 3.0), atol=1e-9)


def test_digit_sums_jp():
    assert digit_sums([[4]], [(0,), (2,)], 2).tolist() == [[0], [2], [8], [10]]
    assert digit_sums([[3]], [(0,), (2,)], 2).tolist() == [[0], [2], [6], [8]]


def test_digit_sums_are_exact_beyond_int64():
    # 1000^7 passes 2^63: seven levels stay int64, the eighth is Python ints
    assert digit_sums([[1000]], [0, 1], 7).dtype == np.int64
    sums = digit_sums([[1000]], [0, 1], 16)
    assert sums.shape == (2**16, 1) and sums.dtype == object
    assert sums[-1, 0] == sum(1000**i for i in range(16))  # about 1e45
    assert sums[1, 0] == 1 and sums[2**15, 0] == 1000**15


def test_digit_sums_cap():
    with pytest.raises(CapExceeded):
        digit_sums([[4]], [(0,), (2,)], 8, cap=100)


def test_int_rows_equal_checked_conversion(jp_triple, skew_triple):
    # tolist gives Python ints from either dtype of digit_sums, so the plain
    # conversion gives the same tuples as the entry-checking as_digit_list
    for R, B in ((jp_triple.R, jp_triple.B), (skew_triple.R.T, skew_triple.L), ([[-3]], [(0,), (-5,)])):
        for n in (0, 1, 3):
            sums = digit_sums(R, B, n)
            rows = _int_rows(sums)
            assert rows == as_digit_list(sums)
            assert all(type(x) is int for row in rows for x in row)


def test_tower_jp(jp_triple):
    t2 = tower(jp_triple, 2)
    assert t2.R.rows == ((16,),)
    assert set(t2.B) == {(0,), (2,), (8,), (10,)}
    assert set(t2.L) == {(0,), (1,), (4,), (5,)}
    assert t2.validated and t2.defect < 1e-12
    t4 = tower(jp_triple, 4)
    assert t4.validated and len(t4.B) == 16


def test_tower_level_zero_is_refused_by_name(jp_triple):
    # (R^0, B_0, L_0) would carry the identity, which is not expansive
    with pytest.raises(InvalidInput, match="level 0"):
        tower(jp_triple, 0)


def test_tower_skew(skew_triple):
    for k in (1, 2, 3, 4):
        tk = tower(skew_triple, k)
        assert tk.validated, f"tower level {k} defect {tk.defect}"


def test_tower_inherits_the_base_verdict(skew_triple):
    t0 = time.perf_counter()
    t6 = tower(skew_triple, 6)
    assert time.perf_counter() - t0 < 0.5
    assert len(t6.B) == 4096 and "residue" in t6.note
    assert (t6.validated, t6.grade, t6.defect) == (True, "exact", skew_triple.defect)


@pytest.mark.parametrize("name,kmax", [("jp", 8), ("skew", 4)])
def test_dense_towers_are_unitary(request, name, kmax):
    # the tower lemma, cross-checked on the full unitary of each level
    base = request.getfixturevalue(f"{name}_triple")
    for k in range(1, kmax + 1):
        assert dense_tower_defect(base, k) <= 1e-10


def test_partition_of_unity(jp_triple, skew_triple, lebesgue_triple):
    grid1 = np.linspace(-2, 2, 41)
    assert transfer_partition_check(jp_triple, grid1) < 1e-12
    assert transfer_partition_check(lebesgue_triple, grid1) < 1e-12
    g = np.stack(np.meshgrid(np.linspace(-1, 1, 9), np.linspace(-1, 1, 9)), axis=-1)
    assert transfer_partition_check(skew_triple, g) < 1e-12


def test_partition_fails_for_broken_frequency_set(jp_triple):
    # assemble an unvalidated triple by hand: L = {0, 2} breaks the partition
    bad = HadamardTriple(jp_triple.pair, ((0,), (2,)), defect=1.0)
    assert transfer_partition_check(bad, np.linspace(0, 1, 17)) > 1e-3


def test_lift_preserves_residues(jp_triple):
    J = [(0,), (1,), (4,), (5,)]
    lifted = lift_digits(J, jp_triple.R, 2, [(0,), (1,), (0,), (-1,)])
    assert lifted == ((0,), (17,), (4,), (-11,))
    ok, _, defect = validate_triple([[16]], [(0,), (2,), (8,), (10,)], lifted)
    assert ok, f"lifted set lost unitarity: {defect}"


def test_lift_rejects_collisions(jp_triple):
    with pytest.raises(ResidueCollision):
        lift_digits([(0,), (16,)], jp_triple.R, 2, [(0,), (0,)])


def test_search_1d_frequency_sets():
    found = search_frequency_digits_1d(4, [(0,), (2,)])
    assert ((0,), (1,)) in found
    assert ((0,), (3,)) in found
    assert ((0,), (2,)) not in found
    # middle-third digits admit no frequency partner at all
    assert search_frequency_digits_1d(3, [(0,), (2,)]) == []


def test_search_matches_bruteforce_validation():
    # oracle: independent brute force over all size-2 subsets containing 0
    R, B = 6, [(0,), (3,)]
    got = set(search_frequency_digits_1d(R, B))
    want = set()
    for c in range(1, 6):
        L = ((0,), (c,))
        H = hadamard_matrix([[R]], B, L)
        if np.max(np.abs(H.conj().T @ H - np.eye(2))) < 1e-10:
            want.add(L)
    assert got == want and want  # nonempty: e.g. L = {0, 1}
