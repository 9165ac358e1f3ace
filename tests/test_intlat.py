from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectral_fractal.errors import AmbiguousSpectrum, InvalidInput, RankDeficient
from spectral_fractal.intlat import (
    ConjugationRecord,
    IntMatrix,
    Lattice,
    _bareiss_det,
    _has_reciprocal_root_pair,
    canonical_residue,
    charpoly,
    complete_representatives,
    hermite_normal_form,
    integer_kernel_basis,
    is_expansive,
    is_simple_digit_set,
    reduce_to_full,
    smallest_invariant_lattice,
)
from spectral_fractal.quasiprod import map_frequency_back

from oracles import (
    euclid_reciprocal_root_pair,
    f_inverse,
    f_map_back,
    f_matvec,
    identity_record,
    inverse_fractions,
    is_unimodular,
    lattice_contains,
    to_fractions,
)

ints = st.integers(min_value=-9, max_value=9)


def small_matrix(d_max=3, entries=ints):
    return st.integers(min_value=1, max_value=d_max).flatmap(
        lambda d: st.lists(
            st.lists(entries, min_size=d, max_size=d), min_size=d, max_size=d
        )
    )


# --- Hermite form -----------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(small_matrix())
def test_hnf_transform_is_exact_and_unimodular(rows):
    A = IntMatrix.from_rows(rows)
    H, U = hermite_normal_form(A)
    assert A.mul(U).rows == H.rows
    assert U.det() in (1, -1)


@settings(max_examples=150, deadline=None)
@given(small_matrix())
def test_hnf_pivots_positive_and_reduced(rows):
    H, _ = hermite_normal_form(IntMatrix.from_rows(rows))
    h, w = H.shape
    piv_rows = []
    for j in range(w):
        nz = [i for i in range(h) if H.rows[i][j] != 0]
        if not nz:
            continue
        i = nz[0]
        piv_rows.append((i, j))
        assert H.rows[i][j] > 0
        # entries left of the pivot in its row are reduced modulo the pivot
        for jj in range(j):
            assert 0 <= H.rows[i][jj] < H.rows[i][j]
    # pivots strictly descend the rows as columns advance
    assert all(a[0] < b[0] for a, b in zip(piv_rows, piv_rows[1:]))


def test_hnf_known_row():
    H, U = hermite_normal_form([[2, 4]])
    assert H.rows == ((2, 0),)
    assert U.det() in (1, -1)


@settings(max_examples=150, deadline=None)
@given(small_matrix(4))
def test_inverse_fractions_equals_gauss_jordan(rows):
    M = IntMatrix.from_rows(rows)
    assume(M.det() != 0)
    assert inverse_fractions(M) == f_inverse(to_fractions(M))


@settings(max_examples=150, deadline=None)
@given(small_matrix(4))
def test_charpoly_equals_the_determinant(rows):
    M = IntMatrix.from_rows(rows)
    p = charpoly(M)
    for x in range(M.d + 1):
        xI_M = [[x * (i == j) - c for j, c in enumerate(row)] for i, row in enumerate(M.rows)]
        assert sum(c * x ** (M.d - k) for k, c in enumerate(p)) == _bareiss_det(xI_M)


@settings(max_examples=300, deadline=None)
@given(small_matrix(4, st.integers(min_value=-2, max_value=2)))
def test_reciprocal_root_pair_equals_euclid(rows):
    p = charpoly(IntMatrix.from_rows(rows))
    assert _has_reciprocal_root_pair(p) == euclid_reciprocal_root_pair(p)


def test_reciprocal_root_pair_examples():
    assert _has_reciprocal_root_pair((1, 0, 1))  # +-i
    assert _has_reciprocal_root_pair((1, -5, 1))  # (5 +- sqrt 21) / 2, a reciprocal pair
    assert not _has_reciprocal_root_pair((1, 0, -3))  # +-sqrt 3
    assert not _has_reciprocal_root_pair((1, 0, 0))  # a double zero root


@settings(max_examples=150, deadline=None)
@given(small_matrix(4).map(lambda rows: rows[:-1] or rows))  # d - 1 rows: a kernel
def test_integer_kernel_orientation(rows):
    for v in integer_kernel_basis(rows):
        assert IntMatrix.from_rows(rows).matvec(v) == (0,) * len(rows)
        assert next(x for x in reversed(v) if x) > 0


def test_charpoly_matches_numpy_eigs():
    rng = np.random.default_rng(7)
    for _ in range(40):
        d = rng.integers(1, 4)
        rows = rng.integers(-5, 6, size=(d, d))
        p = charpoly(IntMatrix.from_rows(rows.tolist()))
        assert p[0] == 1
        got = np.sort_complex(np.roots(np.array(p, dtype=float)))
        want = np.sort_complex(np.linalg.eigvals(rows.astype(float)))
        assert np.allclose(got, want, atol=1e-6)


# --- residues ---------------------------------------------------------------


def _same_class(R: IntMatrix, v, w):
    # independent membership oracle: solve R x = v - w over the rationals
    diff = [Fraction(a - b) for a, b in zip(v, w)]
    x = [sum(row[j] * diff[j] for j in range(len(diff))) for row in f_inverse(to_fractions(R))]
    return all(t.denominator == 1 for t in x)


def test_complete_representatives_example():
    R = IntMatrix.from_rows([[4, 0], [1, 2]])
    reps = complete_representatives(R)
    assert len(reps) == 8
    # pairwise inequivalent and jointly exhaustive (oracle: rational solve)
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert not _same_class(R, reps[i], reps[j])
    box = [(x, y) for x in range(-3, 4) for y in range(-3, 4)]
    for pt in box:
        assert any(_same_class(R, pt, r) for r in reps)


@settings(max_examples=60, deadline=None)
@given(small_matrix(2), st.lists(ints, min_size=2, max_size=2))
def test_canonical_residue_is_canonical(rows, v):
    R = IntMatrix.from_rows(rows)
    if R.det() == 0:
        with pytest.raises(RankDeficient):
            canonical_residue(R, v[: R.d])
        return
    r = canonical_residue(R, v[: R.d])
    assert canonical_residue(R, r) == r
    assert _same_class(R, v[: R.d], r)
    shifted = R.matvec((1,) * R.d)
    assert canonical_residue(R, tuple(a + b for a, b in zip(v[: R.d], shifted))) == r


def test_simple_digit_sets():
    assert is_simple_digit_set([[4]], [(0,), (2,)])
    assert not is_simple_digit_set([[2]], [(0,), (2,)])
    assert is_simple_digit_set(
        [[4, 0], [1, 2]], [(0, 0), (0, 3), (1, 0), (1, 3)]
    )


# --- invariant lattices -----------------------------------------------------


def test_smallest_invariant_lattice_1d_gcd():
    lat = smallest_invariant_lattice([[4]], [(0,), (2,)])
    assert lat.rank == 1 and lat.cols == ((2,),)
    lat = smallest_invariant_lattice([[3]], [(0,), (1,)])
    assert lat.is_standard()


def test_smallest_invariant_lattice_skew_example():
    lat = smallest_invariant_lattice(
        [[4, 0], [1, 2]], [(0, 0), (0, 3), (1, 0), (1, 3)]
    )
    assert lat.is_standard()  # (1,0) and R(1,0)=(4,1) already generate Z^2


def test_smallest_invariant_lattice_rank_deficient():
    lat = smallest_invariant_lattice([[2, 0], [0, 3]], [(0, 0), (1, 0)])
    assert lat.rank == 1
    assert lat.cols == ((1, 0),)


def test_lattice_membership():
    lat = Lattice.from_columns(2, [(2, 0), (0, 4)])
    assert lattice_contains(lat, (2, 0)) and lattice_contains(lat, (2, 4))
    assert not lattice_contains(lat, (1, 0))
    assert lattice_contains(lat, (Fraction(4, 2), Fraction(0)))


def test_integer_kernel():
    ker = integer_kernel_basis([[2, 4]])
    assert len(ker) == 1
    (v,) = ker
    assert 2 * v[0] + 4 * v[1] == 0
    assert abs(v[0]) == 2 and abs(v[1]) == 1


# --- expansiveness ----------------------------------------------------------


def test_expansive_examples():
    assert not is_expansive([[1]])
    assert is_expansive([[2]])
    assert is_expansive([[-2]])
    assert is_expansive([[4, 0], [1, 2]])
    assert is_expansive([[0, 3], [1, 0]])  # eigenvalues +-sqrt(3)
    assert not is_expansive([[0, -1], [1, 0]])  # rotation, moduli exactly 1
    assert not is_expansive([[1, 1], [0, 1]])  # shear, eigenvalue 1
    assert is_expansive([[0, 2], [1, 0]])  # both moduli sqrt(2)
    # golden-mean companion has one root inside the unit circle
    assert not is_expansive([[1, 1], [1, 0]])


def test_expansive_zero_det():
    assert not is_expansive([[0]])
    assert not is_expansive([[2, 0], [0, 0]])


# --- reduction --------------------------------------------------------------


def test_reduce_scalar_sublattice():
    red = reduce_to_full([[4]], [(0,), (2,)])
    assert red.rank == 1
    assert red.R.rows == ((4,),)
    assert set(red.B) == {(0,), (1,)}
    assert red.record.lattice_basis is not None
    assert red.record.lattice_basis.rows == ((2,),)
    # round trip: backward map restores the original digits
    back = [red.record.backward[0][0] * b[0] for b in red.B]
    assert sorted(int(x) for x in back) == [0, 2]


def test_reduce_rank_deficient_projection():
    red = reduce_to_full([[2, 0], [0, 3]], [(0, 0), (1, 0)])
    assert red.rank == 1
    assert is_unimodular(red.record)
    R1, B1, _ = red.project()
    assert R1.rows == ((2,),)
    assert set(B1) == {(0,), (1,)}


def test_reduce_identity_when_standard():
    red = reduce_to_full([[4, 0], [1, 2]], [(0, 0), (0, 3), (1, 0), (1, 3)])
    assert red.rank == 2
    assert red.record.forward == identity_record(2).forward
    assert set(red.B) == {(0, 0), (0, 3), (1, 0), (1, 3)}


def test_reduce_translates_when_zero_missing():
    red = reduce_to_full([[4]], [(1,), (3,)])
    assert red.record.translation == (1,)
    assert set(red.B) == {(0,), (1,)}


def test_conjugation_round_trip_on_matrix():
    # the shear [[1,1],[0,1]] on digits, so G is its inverse
    rec = ConjugationRecord(IntMatrix.from_rows([[1, -1], [0, 1]]), "test shear")
    R = IntMatrix.from_rows([[4, 0], [1, 2]])
    back = ConjugationRecord(IntMatrix.from_rows([[1, 1], [0, 1]]), "inverse")
    assert back.apply_matrix(rec.apply_matrix(R)).rows == R.rows


# --- conjugation records against the Fraction reference ---------------------


@st.composite
def record_matrix(draw, d_min=1, d_max=3):
    """An integer G of dimension d: unimodular, or with |det G| in 2..6."""
    d = draw(st.integers(min_value=d_min, max_value=d_max))
    small = st.integers(min_value=-3, max_value=3)
    if draw(st.booleans()):
        # unit lower triangular times upper triangular with diagonal +-1
        lo = [[1 if i == j else draw(small) if j < i else 0 for j in range(d)] for i in range(d)]
        up = [
            [draw(st.sampled_from((1, -1))) if i == j else draw(small) if j > i else 0 for j in range(d)]
            for i in range(d)
        ]
        return IntMatrix.from_rows(lo).mul(IntMatrix.from_rows(up))
    entries = small if d > 1 else ints
    G = IntMatrix.from_rows(draw(st.lists(vectors(d, entries), min_size=d, max_size=d)))
    assume(2 <= abs(G.det()) <= 6)
    return G


def vectors(d, entries=ints):
    return st.lists(entries, min_size=d, max_size=d).map(tuple)


def rational_points(d):
    return vectors(d, st.fractions(min_value=-5, max_value=5, max_denominator=12))


def _f_product(a, b):
    return tuple(zip(*(f_matvec(a, col) for col in zip(*b))))


def _integral(rows):
    if any(x.denominator != 1 for row in rows for x in row):
        return None
    return tuple(tuple(int(x) for x in row) for row in rows)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_record_maps_equal_fraction_reference(data):
    G = data.draw(record_matrix())
    d = G.d
    t = data.draw(st.none() | vectors(d))
    rec = ConjugationRecord(G, "test move", t)
    g_inv = f_inverse(to_fractions(G))
    R = IntMatrix.from_rows(data.draw(st.lists(vectors(d), min_size=d, max_size=d)))
    want = _integral(_f_product(g_inv, _f_product(to_fractions(R), to_fractions(G))))
    if want is None:
        with pytest.raises(InvalidInput):
            rec.apply_matrix(R)
    else:
        assert rec.apply_matrix(R).rows == want
    B = data.draw(st.lists(vectors(d), min_size=1, max_size=4))
    moved = [b if t is None else tuple(x - s for x, s in zip(b, t)) for b in B]
    want = _integral([f_matvec(g_inv, b) for b in moved])
    if want is None:
        with pytest.raises(InvalidInput):
            rec.apply_digits(B)
    else:
        assert rec.apply_digits(B) == want
    L = data.draw(st.lists(vectors(d), min_size=1, max_size=4))
    gt = tuple(zip(*to_fractions(G)))
    assert rec.apply_frequencies(L) == _integral([f_matvec(gt, l) for l in L])
    x = data.draw(rational_points(d))
    assert rec.apply_frequency_point(x) == f_matvec(gt, x)
    assert rec.unapply_frequency_point(x) == f_matvec(tuple(zip(*g_inv)), x)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_map_frequency_back_equals_fraction_composition(data):
    outer = data.draw(record_matrix(d_min=2))
    inner = data.draw(record_matrix(d_max=outer.d - 1))
    records = (ConjugationRecord(outer, "outer"), ConjugationRecord(inner, "inner"))
    p = data.draw(st.integers(min_value=1, max_value=inner.d))
    pts = data.draw(st.lists(rational_points(p), min_size=1, max_size=3))
    assert map_frequency_back(pts, records) == [f_map_back(x, records) for x in pts]
