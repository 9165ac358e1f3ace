"""Spectrum trees: canonical towers, corrected towers, decision logic."""

from fractions import Fraction

import numpy as np
import pytest

from spectral_fractal import quasiprod, spectra
from spectral_fractal.errors import CapExceeded, ResidueCollision, SizeMismatch, Undecided, ZeroSetNonEmpty
from spectral_fractal.measure import FourierEval
from spectral_fractal.quasiprod import full_spectrum
from spectral_fractal.spectra import (
    canonical_tree,
    completeness_partial,
    corrected_tree,
    cover_constants,
    orthogonality_check,
)
from spectral_fractal.triples import hadamard_triple
from spectral_fractal.zeroset import EmptinessEvidence, find_invariant_cycle, zero_set_empty_evidence

from oracles import corrected_level_per_base, corrected_level_per_point, delta_lower_bound

F = Fraction


@pytest.fixture(scope="module")
def skew_evidence(skew_triple):
    return zero_set_empty_evidence(skew_triple.pair)


# ---------------------------------------------------------------------------
# canonical tower


def test_canonical_tree_jp_levels(jp_triple):
    tree = canonical_tree(jp_triple, 3)
    assert tree.exponents == (0, 1, 2, 3)
    assert tree.new_points[0] == ((0,),)
    assert tree.new_points[1] == ((1,),)
    assert set(tree.new_points[2]) == {(4,), (5,)}
    assert set(tree.points) == {(0,), (1,), (4,), (5,), (16,), (17,), (20,), (21,)}
    assert tree.level_points(2) == ((0,), (1,), (4,), (5,))


def test_canonical_tree_translates_frequencies():
    t = hadamard_triple([[4]], [(0,), (2,)], [(1,), (2,)])
    tree = canonical_tree(t, 3)
    # L = {1, 2} is translated by -1 to {0, 1}: level 1 holds 0 and 2 - 1
    assert tree.level_points(1) == ((0,), (1,))
    ref = canonical_tree(hadamard_triple([[4]], [(0,), (2,)], [(0,), (1,)]), 3)
    assert tree.points == ref.points


def test_canonical_tree_cap(jp_triple):
    with pytest.raises(CapExceeded):
        canonical_tree(jp_triple, 9, cap=300)


def test_canonical_delta_stable(jp_triple):
    tree = canonical_tree(jp_triple, 8)
    # rescaled tower points fill the dual attractor; the worst value sits at
    # its right endpoint and stabilizes quickly
    assert 0.70 < delta_lower_bound(tree) < 0.76


# ---------------------------------------------------------------------------
# cover constants


def test_cover_constants_jp(jp_triple):
    cov = cover_constants(jp_triple)
    assert 0.25 < cov.m_cover < 0.60
    assert 0.15 < cov.delta_hat <= cov.m_cover
    assert cov.window == 4


def test_operator_norm_sup(jp_triple, lebesgue_triple):
    # sup_j ||(R^T)^-j|| drives corrected_tree's level gaps
    assert FourierEval(jp_triple.pair).norm_sup == pytest.approx(0.25)
    assert FourierEval(lebesgue_triple.pair).norm_sup == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# corrected tower


def test_corrected_tree_jp_matches_canonical(jp_triple):
    tree = corrected_tree(jp_triple, 8)
    assert tree.evidence.kind == "scan-clear"
    assert tree.exponents == tuple(range(9))
    assert tree.corrections == ()
    assert set(tree.points) == set(canonical_tree(jp_triple, 8).points)
    assert delta_lower_bound(tree) >= tree.cover.delta_hat - 1e-9


def test_corrected_tree_repairs_unit_interval(lebesgue_triple):
    # the plain tower {0..2^K-1} misses half the integers and is not a
    # spectrum of the unit interval; corrections must fold it onto the
    # symmetric window, every shift being one step down
    tree = corrected_tree(lebesgue_triple, 6)
    assert tree.evidence.kind == "gcd-1d"
    pts = sorted(p[0] for p in tree.points)
    assert pts == list(range(-31, 33))
    assert len(tree.corrections) == 31
    assert all(kappa == (-1,) for _, _, kappa in tree.corrections)
    assert 0.39 < delta_lower_bound(tree) < 0.42
    assert delta_lower_bound(tree) >= tree.cover.delta_hat - 1e-9


def test_corrected_tree_refuses_nonempty_zero_set(skew_triple, skew_evidence):
    # the message shows the witness point, not the whole certificate
    with pytest.raises(ZeroSetNonEmpty, match=r"^certified periodic zero at \(0, 1/3\)$"):
        corrected_tree(skew_triple, 4, evidence=skew_evidence)


def test_corrected_tree_undecided(jp_triple):
    with pytest.raises(Undecided):
        corrected_tree(jp_triple, 4, evidence=EmptinessEvidence("inconclusive"))


def test_corrected_tree_cap(jp_triple):
    with pytest.raises(CapExceeded):
        corrected_tree(jp_triple, 10, cap=100)


@pytest.mark.parametrize(
    "R, B, L, K",
    [
        ([[4]], [0, 2], [0, 1], 10),  # jp: no corrections
        ([[4]], [0, 2], [0, 3], 8),  # jp3: every level corrects
        ([[2]], [0, 1], [0, 1], 6),  # Lebesgue
        ([[9]], [0, 3, 6], [0, 1, 2], 6),
    ],
)
def test_batched_corrections_match_per_base_loop(monkeypatch, R, B, L, K):
    triple = hadamard_triple(R, [(b,) for b in B], [(l,) for l in L]).require_validated()
    tree = corrected_tree(triple, K)
    monkeypatch.setattr(spectra, "_corrected_level", corrected_level_per_base)
    oracle = corrected_tree(triple, K)
    assert tree.points == oracle.points
    assert tree.corrections == oracle.corrections


@pytest.mark.parametrize(
    "R, B, L, K",
    [
        ([[4]], [0, 2], [0, 1], 14),  # jp
        ([[4]], [0, 1], [0, 2], 14),  # jp after its rescale: 8,179 corrections
        ([[4]], [0, 2], [0, 3], 12),  # jp3
        ([[9]], [0, 3, 6], [0, 1, 2], 10),
    ],
)
def test_integer_corrections_match_per_point_loop(monkeypatch, R, B, L, K):
    triple = hadamard_triple(R, [(b,) for b in B], [(l,) for l in L]).require_validated()
    tree = corrected_tree(triple, K)
    monkeypatch.setattr(spectra, "_corrected_level", corrected_level_per_point)
    oracle = corrected_tree(triple, K)
    assert tree.new_points == oracle.new_points
    assert tree.corrections == oracle.corrections
    # plain Python ints, so no numpy integer reaches a report or CSV
    assert all(type(c) is int for p in tree.points for c in p)
    assert all(type(c) is int for _, b, kappa in tree.corrections for c in b + kappa)


def test_orthogonality_check_of_one_point_is_zero(jp_triple):
    # no pairs to compare: 0.0, not a max over an empty array
    assert orthogonality_check(canonical_tree(jp_triple, 0)) == 0.0


def test_zero_tests_stay_on_the_complex_product(monkeypatch, skew_triple, jp_triple):
    # (2, 1/3 + 4) is a true zero of the skew transform.  The real form adds
    # cosines of size 1/N, so a vanishing factor |m_B|^2 keeps a rounding
    # residue near 1e-17, and its square root, the |mu_hat| a zero test
    # would read, lands near 1e-9 to 1e-10 (2.4e-10 here) instead of 1e-17.
    # The zero-set prefilter, certification, the cycle test and
    # orthogonality_check compare |mu_hat| with small tolerances near true
    # zeros, so they keep the complex product.
    x = np.array([2.0, 1 / 3 + 4])
    ev = FourierEval(skew_triple.pair)
    assert abs(ev.mu_hat(x)) < 1e-15
    assert ev.mu_hat_sq(x) < 1e-15
    tree = canonical_tree(jp_triple, 4)

    def refuse(self, xi):
        raise AssertionError("a zero test read mu_hat_sq")

    monkeypatch.setattr(FourierEval, "mu_hat_sq", refuse)
    evidence = zero_set_empty_evidence(skew_triple.pair)
    assert evidence.kind == "refuted"
    assert len(find_invariant_cycle(skew_triple.pair, evidence.witness).orbit) >= 1
    assert orthogonality_check(tree) < 1e-12


def test_corrected_level_evaluates_mu_hat_twice(monkeypatch):
    # one call on the rescaled bases, one on every translate of every miss;
    # both read only the modulus, so both go through mu_hat_sq
    jp3 = hadamard_triple([[4]], [(0,), (2,)], [(0,), (3,)]).require_validated()
    calls = [0]
    per_level = []
    real_mu_hat_sq, real_level = FourierEval.mu_hat_sq, spectra._corrected_level

    def counting_mu_hat_sq(self, xi, shifts=None):
        calls[0] += 1
        return real_mu_hat_sq(self, xi, shifts)

    def level(*args):
        before = calls[0]
        out = real_level(*args)
        per_level.append(calls[0] - before)
        return out

    monkeypatch.setattr(FourierEval, "mu_hat_sq", counting_mu_hat_sq)
    monkeypatch.setattr(spectra, "_corrected_level", level)
    tree = corrected_tree(jp3, 8)
    assert len(tree.corrections) == 2**8 - 1
    assert per_level == [2] * 8


def test_corrected_tree_repeated_point_is_a_residue_collision(monkeypatch, jp_triple):
    # checked without assert, so it holds under python -O too
    def level(ev, cover, current, J, m_prev, m_new, k):
        return [(1,), (1,)], []

    monkeypatch.setattr(spectra, "_corrected_level", level)
    with pytest.raises(ResidueCollision, match="level 1"):
        corrected_tree(jp_triple, 2)


# ---------------------------------------------------------------------------
# diagnostics


def test_orthogonality_exact_zeros(jp_triple, lebesgue_triple):
    assert orthogonality_check(canonical_tree(jp_triple, 6)) < 1e-8
    assert orthogonality_check(corrected_tree(lebesgue_triple, 6)) < 1e-8


def test_completeness_partial_monotone_and_tops_out(jp_triple):
    tree = canonical_tree(jp_triple, 8)
    rng = np.random.default_rng(7)
    xi = rng.uniform(-0.5, 0.5, size=(5, 1))
    rows = completeness_partial(tree, xi)
    assert rows.shape == (9, 5)
    assert np.all(np.diff(rows, axis=0) >= -1e-12)
    assert np.all(rows[-1] <= 1 + 1e-9)
    assert np.all(rows[-1] >= 0.85)


def test_completeness_at_zero_is_one(jp_triple):
    tree = canonical_tree(jp_triple, 6)
    rows = completeness_partial(tree, np.array([[0.0]]))
    assert rows[-1, 0] == pytest.approx(1.0, abs=1e-9)


def test_completeness_partial_refuses_points_of_the_wrong_dimension(jp_triple):
    tree = canonical_tree(jp_triple, 4)
    with pytest.raises(SizeMismatch, match="xi has wrong dimension"):
        completeness_partial(tree, np.zeros((3, 2)))


def test_corrections_improve_completeness(lebesgue_triple):
    plain = canonical_tree(lebesgue_triple, 6)
    fixed = corrected_tree(lebesgue_triple, 6)
    xi = np.array([[0.3]])
    q_plain = completeness_partial(plain, xi)[-1, 0]
    q_fixed = completeness_partial(fixed, xi)[-1, 0]
    assert q_fixed > 0.95
    assert q_plain < 0.90
    assert q_fixed > q_plain


# ---------------------------------------------------------------------------
# decision: full_spectrum, and corrected_tree behind the zero-set gate


def test_decision_spectral_1d(lebesgue_triple):
    rep = full_spectrum(lebesgue_triple, K=5)
    assert rep.status == "spectral"
    assert rep.tree is not None and rep.tree.cover is not None
    assert rep.evidence.kind == "gcd-1d"


def test_decision_refuses_skew(skew_report):
    assert skew_report.integer_spectrum == "no"
    assert skew_report.evidence.kind == "refuted"
    assert skew_report.tree is None
    assert skew_report.evidence.witness.point == (F(0), F(1, 3))
    assert skew_report.evidence.witness.status == "in"


def test_decision_sixfold_scan_path():
    # digit gcd is 3, so the 1D shortcut does not apply; the scan comes back
    # clean and the construction goes through.  full_spectrum would rescale
    # the digits onto 3Z and take the gcd path, so build the tree directly.
    t = hadamard_triple([[6]], [(0,), (3,)], [(0,), (1,)])
    tree = corrected_tree(t, 5)
    assert tree.evidence.kind == "scan-clear"
    assert delta_lower_bound(tree) > 0.8


def test_decision_undecided_passthrough(jp_triple, monkeypatch):
    evidence = EmptinessEvidence("inconclusive")
    monkeypatch.setattr(quasiprod, "zero_set_empty_evidence", lambda *a, **k: evidence)
    rep = full_spectrum(jp_triple, K=4)
    assert rep.status == "undecided"
    assert rep.evidence is evidence
    assert rep.tree is None
    assert rep.frequencies == ()
