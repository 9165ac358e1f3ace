"""Block triangular splitting, the transverse lattice, and product spectra.

The worked system throughout: R = [[4,0],[1,2]] with digits
{(0,0),(0,3),(1,0),(1,3)} and frequencies {(0,0),(2,0),(0,1),(2,1)}.  Its
periodic zero set contains the lines y = 1/3 and y = 2/3, so no integer
spectrum exists, yet Lambda_1 x (1/3)Z works.  A unimodular conjugate of
the same system (by [[1,1],[0,1]]) exercises the nontrivial rotation path.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from spectral_fractal.errors import (
    GammaFullOrTrivial,
    InconsistentDecomposition,
    InvalidInput,
    NoBetaAccepted,
    NotCompleteReps,
    NotInvariant,
)
from spectral_fractal.intlat import ConjugationRecord, IntMatrix
from spectral_fractal.measure import FourierEval
from spectral_fractal.quasiprod import (
    T_WINDOW,
    XI_GRID,
    decompose,
    full_spectrum,
    map_frequency_back,
    normalize_frequencies,
    product_spectrum,
    transverse_lattice,
    triangularize,
)
from spectral_fractal.spectra import corrected_tree
from spectral_fractal.triples import hadamard_triple
from spectral_fractal.zeroset import zero_set_empty_evidence

from oracles import is_unimodular, lattice_contains, map_frequency_back_per_point

SKEW_ORBIT = ((F(0), F(1, 3)), (F(1, 3), F(2, 3)))


@pytest.fixture(scope="module")
def conj_skew():
    # the skew system conjugated by P = [[1,1],[0,1]]: R' = P R P^-1,
    # digits P b, frequencies P^-T l
    return hadamard_triple(
        [[5, -3], [1, 1]],
        [(0, 0), (3, 3), (1, 0), (4, 3)],
        [(0, 0), (2, -2), (0, 1), (2, -1)],
    )


@pytest.fixture(scope="module")
def skew_quasi(skew_triple):
    return decompose(skew_triple, 1, SKEW_ORBIT)


@pytest.fixture(scope="module")
def conj_report(conj_skew):
    return full_spectrum(conj_skew)


# ---------------------------------------------------------------------------
# triangularize


def test_triangularize_aligned_direction_is_identity(skew_triple):
    tri = triangularize(skew_triple.R, ((1, 0),))
    assert tri.r == 1
    assert tri.record.forward == ((F(1), F(0)), (F(0), F(1)))
    # blocks R1 = (4), C = (1), R2 = (2)
    assert tri.R_new.rows == ((4, 0), (1, 2))


def test_triangularize_rotates_conjugated_direction(conj_skew):
    # (1,-1) is the 4-eigenvector of R'^T
    tri = triangularize(conj_skew.R, ((1, -1),))
    assert tri.R_new.rows == ((4, 0), (-3, 2))
    assert is_unimodular(tri.record)
    # the direction itself lands on the leading axis of frequency space
    img = tri.record.apply_frequency_point((F(1), F(-1)))
    assert img[1] == 0 and img[0] != 0
    # digits stay integral and regroup over two leading values
    B2 = tri.record.apply_digits(conj_skew.B)
    assert sorted(B2) == [(-1, 1), (-1, 4), (0, 0), (0, 3)]


def test_triangularize_rejects_non_invariant_direction(skew_triple):
    with pytest.raises(NotInvariant):
        triangularize(skew_triple.R, ((0, 1),))


def test_triangularize_rejects_degenerate_bases(skew_triple):
    with pytest.raises(InvalidInput):
        triangularize(skew_triple.R, ())
    with pytest.raises(InvalidInput):
        triangularize(skew_triple.R, ((1, 0), (0, 1)))
    with pytest.raises(InvalidInput):
        triangularize(skew_triple.R, ((1, 0), (2, 0)))


# ---------------------------------------------------------------------------
# frequency normalization


def test_normalize_frequencies_canonical_set_unchanged(skew_triple):
    out = normalize_frequencies(skew_triple.R, skew_triple.L, 1)
    assert out == skew_triple.L


def test_normalize_frequencies_reduces_transverse_block(skew_triple):
    # shift one frequency by R^T(0,1); the unitary is literally unchanged
    # and normalization recovers the canonical representative
    moved = [(0, 0), (2, 0), (1, 3), (2, 1)]
    t = hadamard_triple(skew_triple.R, skew_triple.B, moved)
    assert t.defect <= 1e-10
    out = normalize_frequencies(t.R, t.L, 1)
    assert sorted(out) == sorted(skew_triple.L)
    assert all(l[1] in (0, 1) for l in out)


# ---------------------------------------------------------------------------
# transverse lattice


def test_transverse_lattice_matches_brute_force_1d():
    lat = transverse_lattice([(F(1, 3),), (F(2, 3),)], 1)
    assert abs(lat.basis_matrix.det()) == 3
    for x in range(-20, 21):
        member = (F(x) * F(1, 3)).denominator == 1 and (F(x) * F(2, 3)).denominator == 1
        assert lattice_contains(lat, (x,)) == member == (x % 3 == 0)


def test_transverse_lattice_matches_brute_force_2d():
    ys = [(F(1, 2), F(1, 3))]
    lat = transverse_lattice(ys, 2)
    assert abs(lat.basis_matrix.det()) == 6
    for a in range(-6, 7):
        for b in range(-6, 7):
            member = (F(a, 2) + F(b, 3)).denominator == 1
            assert lattice_contains(lat, (a, b)) == member


def test_transverse_lattice_no_constraints_is_standard():
    lat = transverse_lattice([], 2)
    assert abs(lat.basis_matrix.det()) == 1


# ---------------------------------------------------------------------------
# decompose


def test_decompose_skew_structure(skew_quasi):
    q = skew_quasi
    assert q.Q.rows == ((3,),)
    assert q.transverse_index == 3
    assert q.u_values == ((0,), (1,))
    assert q.R2.rows == ((2,),)
    assert q.sub.R.rows == ((4,),)
    assert q.sub.B == ((0,), (1,))
    assert q.sub.L == ((0,), (2,))
    assert q.sub.defect <= 1e-10


def test_decompose_conjugated_after_rotation(conj_skew):
    tri = triangularize(conj_skew.R, ((1, -1),))
    B2 = tri.record.apply_digits(conj_skew.B)
    L2 = normalize_frequencies(tri.R_new, tri.record.apply_frequencies(conj_skew.L), 1)
    t2 = hadamard_triple(tri.R_new, B2, L2).require_validated()
    # cycle orbit of the conjugated system, pushed through the rotation
    orbit = tuple(
        tri.record.apply_frequency_point(x) for x in ((F(0), F(1, 3)), (F(1, 3), F(1, 3)))
    )
    assert {y[1] for y in orbit} == {F(1, 3), F(2, 3)}
    q = decompose(t2, 1, orbit)
    assert q.Q.rows == ((3,),)
    assert q.sub.B == ((-1,), (0,))
    assert sorted(q.sub.L) == [(-2,), (0,)]
    assert q.sub.defect <= 1e-10


def test_decompose_rejects_colliding_residues(skew_triple):
    bad = hadamard_triple(
        skew_triple.R, [(0, 0), (0, 2), (1, 0), (1, 3)], skew_triple.L
    )
    with pytest.raises(NotCompleteReps):
        decompose(bad, 1, SKEW_ORBIT)


def test_decompose_rejects_integer_orbit(skew_triple):
    with pytest.raises(GammaFullOrTrivial):
        decompose(skew_triple, 1, ((F(0), F(0)),))


def test_decompose_rejects_offsets_outside_lattice(skew_triple):
    bad = hadamard_triple(
        skew_triple.R, [(0, 0), (0, 1), (1, 0), (1, 1)], skew_triple.L
    )
    with pytest.raises(InconsistentDecomposition):
        decompose(bad, 1, SKEW_ORBIT)


def test_decompose_rejects_frequency_mismatch(skew_triple):
    bad = hadamard_triple(
        skew_triple.R, skew_triple.B, [(0, 0), (2, 0), (4, 0), (2, 1)]
    )
    with pytest.raises(InconsistentDecomposition):
        decompose(bad, 1, SKEW_ORBIT)


# ---------------------------------------------------------------------------
# product sweep


def test_product_spectrum_accepts_one_third_step(skew_triple, skew_quasi):
    ev = zero_set_empty_evidence(skew_quasi.sub.pair)
    tree = corrected_tree(skew_quasi.sub, 5, evidence=ev)
    lam1 = [tuple(F(int(c)) for c in p) for p in tree.points]
    ps = product_spectrum(skew_triple, skew_quasi, lam1)
    assert ps.beta == 3
    assert ps.step == F(1, 3)
    assert ps.minimum >= 0.95
    assert ps.rejected == ()


def test_product_spectrum_rejects_integer_step(skew_triple, skew_quasi):
    ev = zero_set_empty_evidence(skew_quasi.sub.pair)
    tree = corrected_tree(skew_quasi.sub, 5, evidence=ev)
    lam1 = [tuple(F(int(c)) for c in p) for p in tree.points]
    with pytest.raises(NoBetaAccepted, match="beta=1"):
        product_spectrum(skew_triple, skew_quasi, lam1, betas=[1])


def test_product_spectrum_rejects_sums_above_one(skew_triple, skew_report):
    # an orthonormal set keeps every sweep sum at most 1 (Bessel); halving
    # the transverse step double-counts, so beta = 6 sums sit near 2
    quasi, lam1 = skew_report.quasi, skew_report.sub_report.frequencies
    with pytest.raises(NoBetaAccepted, match=r"beta=6 sums in \[1\.9930, 1\.9931\]"):
        product_spectrum(skew_triple, quasi, lam1, betas=(6,))
    ps = product_spectrum(skew_triple, quasi, lam1, betas=(9, 3))
    assert ps.beta == 3 and ps.minimum == skew_report.product.minimum
    ((beta, lo, hi),) = ps.rejected
    assert beta == 9 and 2.9844 < lo <= hi < 2.9848


def test_product_sweep_sums_the_exported_set(skew_triple, skew_report):
    # the sweep runs over the points (lam_1, t / beta) that the report
    # exports: Lambda_1 in the leading coordinate, t / beta in the last
    ps = skew_report.product
    lam1 = [float(p[0]) for p in skew_report.sub_report.frequencies]
    pts = np.array([(x, t / ps.beta) for t in range(-T_WINDOW, T_WINDOW + 1) for x in lam1])
    axis = (np.arange(XI_GRID) + 0.5) / XI_GRID
    ev = FourierEval(skew_triple.pair)
    sums = [float(ev.mu_hat_sq(pts + (x, y)).sum()) for x in axis for y in axis]
    assert ps.minimum == pytest.approx(min(sums), abs=1e-12)
    assert ps.maximum == pytest.approx(max(sums), abs=1e-12)


# ---------------------------------------------------------------------------
# the full pipeline


def test_full_spectrum_skew_quasi_product(skew_report):
    rep = skew_report
    assert rep.status == "spectral"
    assert rep.branch == "quasi-product"
    assert rep.integer_spectrum == "no"
    assert len(rep.records) == 1
    assert rep.quasi.Q.rows == ((3,),)
    assert rep.product.beta == 3
    assert rep.product.minimum >= 0.95
    assert rep.sub_report.branch == "orthonormal"
    assert rep.evidence.kind == "refuted"
    assert rep.frequencies[0] == (F(0), F(0))


def test_report_frequencies_are_built_once_and_feed_the_sweep(skew_report):
    assert skew_report.frequencies is skew_report.frequencies
    sub = skew_report.sub_report
    assert len(sub.frequencies) == skew_report.product.lam1_count
    # the exported list extends Lambda_1 with t = 0 first
    assert [p[0] for p in skew_report.frequencies[: len(sub.frequencies)]] == [
        p[0] for p in sub.frequencies
    ]


def test_full_spectrum_skew_note_shows_the_witness_point(skew_report):
    assert len(skew_report.note) < 200
    assert skew_report.note == (
        "integer spectra refuted by periodic zero at (0, 1/3); "
        "completeness sampled at 16 points over |t| <= 60"
    )


def test_full_spectrum_walks_the_periodic_points_once(monkeypatch, skew_triple):
    # the cycle stage starts from the refuting witness instead of
    # enumerating and certifying the periodic points a second time
    from spectral_fractal import zeroset

    calls = []
    periodic_points = zeroset._periodic_points
    monkeypatch.setattr(
        zeroset, "_periodic_points", lambda *a: calls.append(a[1:]) or periodic_points(*a)
    )
    rep = full_spectrum(skew_triple)
    assert rep.status == "spectral" and rep.branch == "quasi-product"
    assert len(calls) == 1


def test_full_spectrum_inconclusive_note_names_the_stage(monkeypatch, jp_triple):
    from spectral_fractal import quasiprod
    from spectral_fractal.zeroset import EmptinessEvidence

    evidence = EmptinessEvidence("inconclusive", note="prefilter: 3 grid points survived")
    monkeypatch.setattr(quasiprod, "zero_set_empty_evidence", lambda *a, **k: evidence)
    rep = full_spectrum(jp_triple, K=4)
    assert rep.note == "zero-set scan inconclusive: prefilter: 3 grid points survived"


def test_full_spectrum_skew_frequency_list(skew_report):
    freqs = skew_report.frequencies[:400]
    # base block: the corrected tower of (4, {0,1}, {0,2})
    assert [p[0] for p in freqs[:8]] == [0, 2, 8, -6, 32, -30, -24, 26]
    assert all(p[1] == 0 for p in freqs[:8])
    assert (F(0), F(1, 3)) in freqs
    assert (F(0), F(-1, 3)) in freqs
    for p in freqs:
        assert p[0].denominator == 1
        assert p[1].denominator in (1, 3)


def test_full_spectrum_skew_orthogonality_spot_check(skew_triple, skew_report):
    freqs = skew_report.frequencies[:24]
    ev = FourierEval(skew_triple.pair)
    for i in range(len(freqs)):
        for j in range(i + 1, len(freqs)):
            diff = np.array(
                [float(a - b) for a, b in zip(freqs[i], freqs[j])]
            )
            assert abs(ev.mu_hat(diff)) < 1e-7


def test_full_spectrum_conjugated_system(conj_skew, conj_report):
    rep = conj_report
    assert rep.status == "spectral"
    assert rep.branch == "quasi-product"
    assert rep.quasi.Q.rows == ((3,),)
    assert rep.product.beta == 3
    assert rep.product.minimum >= 0.95
    assert len(rep.sub_report.tree.corrections) == 31
    # reported points are in the input coordinates: orthogonality holds there
    freqs = rep.frequencies[:20]
    ev = FourierEval(conj_skew.pair)
    for i in range(len(freqs)):
        for j in range(i + 1, len(freqs)):
            diff = np.array([float(a - b) for a, b in zip(freqs[i], freqs[j])])
            assert abs(ev.mu_hat(diff)) < 1e-7


def test_full_spectrum_jp_integer_branch(jp_triple):
    rep = full_spectrum(jp_triple)
    assert rep.status == "spectral"
    assert rep.branch == "orthonormal"
    assert rep.integer_spectrum == "yes"
    # digits {0,2} rescale through 2Z, one record
    assert len(rep.records) == 1
    assert rep.frequencies[0] == (F(0),)
    assert all(p[0].denominator == 1 for p in rep.frequencies[:32])
    vals = {int(p[0]) for p in rep.frequencies[:32]}
    assert {0, 1} <= vals


def test_full_spectrum_lebesgue(lebesgue_triple):
    rep = full_spectrum(lebesgue_triple)
    assert rep.status == "spectral"
    assert rep.branch == "orthonormal"
    assert rep.records == ()
    assert [int(p[0]) for p in rep.frequencies[:6]] == [0, 1, 2, -1, 4, -3]


def test_full_spectrum_point_mass():
    t = hadamard_triple([[3]], [(0,)], [(0,)])
    rep = full_spectrum(t)
    assert rep.status == "spectral"
    assert rep.branch == "point-mass"
    assert rep.frequencies == ((F(0),),)


def test_map_frequency_back_pads_projected_points():
    # G is the inverse of forward = [[1,1],[0,1]]
    rec = ConjugationRecord(IntMatrix.from_rows([[1, -1], [0, 1]]), "test move")
    out = map_frequency_back([(F(1, 3),)], (rec,))
    # forward^T @ (1/3, 0) with forward = [[1,1],[0,1]]
    assert out == [(F(1, 3), F(1, 3))]


@pytest.mark.parametrize(
    "R, B, L",
    [
        ([[4]], [(0,), (2,)], [(0,), (1,)]),  # jp: rescaled through 2Z
        ([[4]], [(0,), (2,)], [(0,), (3,)]),  # jp3
        ([[4]], [(1,), (3,)], [(0,), (1,)]),  # translated, then rescaled
        # digits on the diagonal: moved onto the first axis, projected, rescaled
        ([[3, 1], [1, 3]], [(0, 0), (2, 2)], [(0, 0), (1, 0)]),
        ([[9]], [(0,), (3,), (6,)], [(0,), (1,), (2,)]),  # rescaled through 3Z
    ],
)
def test_composed_frequency_map_matches_per_point_chain(R, B, L):
    rep = full_spectrum(hadamard_triple(R, B, L), K=6)
    assert rep.branch == "orthonormal"
    assert rep.records
    pts = rep.tree.points
    chain = [map_frequency_back_per_point(p, rep.records) for p in pts]
    assert map_frequency_back(pts, rep.records) == chain
    assert list(rep.frequencies) == chain


@pytest.mark.parametrize("name", ["skew_report", "conj_report"])
def test_composed_frequency_map_matches_chain_on_rational_points(request, name):
    rep = request.getfixturevalue(name)
    assert rep.branch == "quasi-product"
    # the exported list is Lambda_1 extended by t / beta, ordered by |t|;
    # its first 1,024 points span 16 values of t
    base = rep.sub_report.frequencies
    ts = sorted(range(-rep.product.t_window, rep.product.t_window + 1), key=lambda t: (abs(t), t))
    pts = [lam + (F(t, rep.product.beta),) for t in ts for lam in base][:1024]
    chain = [map_frequency_back_per_point(p, rep.records) for p in pts]
    assert map_frequency_back(pts, rep.records) == chain
    assert list(rep.frequencies[: len(pts)]) == chain
