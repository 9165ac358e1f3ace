"""End-to-end acceptance checks, one test per advertised guarantee.

Each test states its tolerance and wall clock budget inline; run with -v to
get a pass/fail line per criterion.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from spectral_fractal.frames import frame_matrix_bounds, residues_distinct, select_subset
from spectral_fractal.intlat import (
    Lattice,
    complete_representatives,
    reduce_to_full,
    smallest_invariant_lattice,
)
from spectral_fractal.measure import discrete_approximant
from spectral_fractal.quasiprod import full_spectrum
from spectral_fractal.spectra import (
    canonical_tree,
    completeness_partial,
    cover_constants,
    orthogonality_check,
)
from spectral_fractal.triples import (
    affine_pair,
    digit_sums,
    tower,
    validate_triple,
)
from spectral_fractal.zeroset import certify_zero, zero_set_empty_evidence

from oracles import discrete_fourier_atoms, exhaustive_subset, lattice_eq, parseval_defect

SKEW_R = [[4, 0], [1, 2]]
SKEW_B = [(0, 0), (0, 3), (1, 0), (1, 3)]
SKEW_L = [(0, 0), (2, 0), (0, 1), (2, 1)]


def test_c01_unitarity_and_towers(jp_triple, skew_triple):
    """Both reference systems validate with defect < 1e-12, towers to level 4."""
    t0 = time.monotonic()
    ok, _, defect = validate_triple([[4]], [(0,), (2,)], [(0,), (1,)])
    assert ok and defect < 1e-12
    ok, _, defect = validate_triple(SKEW_R, SKEW_B, SKEW_L)
    assert ok and defect < 1e-12
    for base in (jp_triple, skew_triple):
        for k in range(2, 5):
            assert tower(base, k).defect <= 1e-10
    assert time.monotonic() - t0 < 1.0


def test_c02_level3_tree_is_exact(jp_triple):
    """The depth-3 frequency tower is exactly {0,1,4,5,16,17,20,21}."""
    t0 = time.monotonic()
    pts = canonical_tree(jp_triple, 3).points
    assert {int(p[0]) for p in pts} == {0, 1, 4, 5, 16, 17, 20, 21}
    assert len(pts) == 8
    assert time.monotonic() - t0 < 1.0


def test_c03_pairwise_orthogonality(jp_triple):
    """max |mu_hat(lam - lam')| over the 64-point level-6 set is < 1e-8."""
    t0 = time.monotonic()
    tree = canonical_tree(jp_triple, 6)
    assert len(tree.points) == 64
    assert orthogonality_check(tree) < 1e-8
    assert time.monotonic() - t0 < 10.0


def test_c04_partial_completeness_sums(jp_triple):
    """Q_K is nondecreasing in K, reaches 0.95 by K = 12, never tops 1 + 1e-6."""
    t0 = time.monotonic()
    tree = canonical_tree(jp_triple, 12)
    xi = np.random.default_rng(0).random((100, 1))
    Q = completeness_partial(tree, xi)
    assert np.all(np.diff(Q, axis=0) >= -1e-12)
    assert np.all(Q[-1] >= 0.95)
    assert np.max(Q) <= 1 + 1e-6
    assert time.monotonic() - t0 < 60.0


def test_c05_product_matches_discrete_approximant():
    """Depth-20 truncated product and depth-20 atomic transform agree to 1e-6."""
    t0 = time.monotonic()
    pair = affine_pair([[3]], [(0,), (2,)])
    dm = discrete_approximant(pair, 20)
    xis = np.random.default_rng(0).uniform(-5.0, 5.0, size=100)
    worst = 0.0
    for lo in range(0, 100, 10):
        batch = xis[lo:lo + 10].reshape(-1, 1)
        diff = np.abs(discrete_fourier_atoms(dm, batch) - dm.fourier(batch))
        worst = max(worst, float(np.max(diff)))
    assert worst < 1e-6
    assert time.monotonic() - t0 < 30.0


def test_c06_zero_set_certificates():
    """Known zero-set members certify "in"; coprime 1D digits certify empty."""
    t0 = time.monotonic()
    cert = certify_zero(affine_pair([[2]], [(0,), (2,)]), (Fraction(1, 2),))
    assert cert.status == "in"
    cert = certify_zero(affine_pair(SKEW_R, SKEW_B), (Fraction(0), Fraction(1, 3)), K=10, J=30)
    assert cert.status == "in"
    for R, B in (([[2]], [(0,), (1,)]), ([[3]], [(0,), (1,), (2,)])):
        evd = zero_set_empty_evidence(affine_pair(R, B))
        assert evd.kind == "gcd-1d" and evd.empty
    assert time.monotonic() - t0 < 60.0


def test_c07_invariant_lattice_normalization():
    """The planar system spans all of Z^2; rescaling (4,{0,2}) yields coprime digits."""
    t0 = time.monotonic()
    lat = smallest_invariant_lattice(SKEW_R, SKEW_B)
    assert lattice_eq(lat, Lattice.from_columns(2, [(1, 0), (0, 1)]))
    _, B1, _ = reduce_to_full([[4]], [(0,), (2,)]).project()
    assert B1 == ((0,), (1,))
    assert time.monotonic() - t0 < 1.0


def test_c08_quasi_product_end_to_end(skew_triple):
    """The planar system splits as 4 x 2 with index-3 transverse lattice and a
    product spectrum on step 1/3 passing the completeness sweep at 0.95."""
    t0 = time.monotonic()
    rep = full_spectrum(skew_triple)
    assert rep.status == "spectral" and rep.branch == "quasi-product"
    q = rep.quasi
    assert q.r == 1
    assert q.R1.rows == ((4,),)
    assert sorted(q.u_values) == [(0,), (1,)]
    assert q.R2.rows == ((2,),)
    assert q.transverse_index == 3
    assert rep.product.beta == 3
    assert rep.product.step == Fraction(1, 3)
    assert rep.product.minimum >= 0.95
    freqs = rep.frequencies[:64]
    assert all(Fraction(f[1]).denominator in (1, 3) for f in freqs)
    assert time.monotonic() - t0 < 300.0


def test_c09_full_representative_frames(jp_triple, cantor_third_pair):
    """Complete representative rows give sigma^2 = 1.5^n exactly; unitary
    towers stay within 1e-10 of a Parseval frame."""
    t0 = time.monotonic()
    for n in range(1, 5):
        J = complete_representatives(cantor_third_pair.R.T.pow(n))
        lo, hi = frame_matrix_bounds(cantor_third_pair, n, J)
        assert abs(lo - 1.5**n) < 1e-9
        assert abs(hi - 1.5**n) < 1e-9
    for n in range(1, 5):
        J = digit_sums(jp_triple.R.T, jp_triple.L, n)
        lo, hi = frame_matrix_bounds(jp_triple.pair, n, J)
        assert max(1 - lo, hi - 1) <= 1e-10
    assert time.monotonic() - t0 < 30.0


def test_c10_subset_selection_quality(cantor_third_pair):
    """Exhaustive and heuristic selection agree at level 1, bigger budgets never
    hurt, and sharp subsets have exactly distinct residues."""
    t0 = time.monotonic()
    pair = cantor_third_pair
    reports = []
    ex = exhaustive_subset(pair, 1)
    heu = select_subset(pair, 1)
    assert heu.ratio == pytest.approx(ex.ratio, abs=1e-9)
    reports += [ex, heu]
    prev = None
    for budget in (1, 2, 4, 8):
        rep = select_subset(pair, 2, seed=0, budget=budget)
        if prev is not None:
            assert rep.ratio <= prev + 1e-12
        prev = rep.ratio
        reports.append(rep)
    reports.append(select_subset(pair, 3))
    for rep in reports:
        if rep.sigma_max_sq < 2 - 1e-9:
            assert residues_distinct(pair.R, rep.J_n, rep.n)
    assert time.monotonic() - t0 < 300.0


def test_c11_parseval_lower_estimates(jp_triple):
    """Sampled Parseval ratios grow toward 1 with spectrum truncation and never
    drop below the certified delta-hat floor."""
    t0 = time.monotonic()
    pair = jp_triple.pair
    delta_hat = cover_constants(jp_triple).delta_hat
    shrink = 1.0
    for n in range(1, 5):
        J = digit_sums(jp_triple.R.T, jp_triple.L, n)
        lo, hi = frame_matrix_bounds(pair, n, J)
        shrink *= 1 - max(1 - lo, hi - 1)
    floor = delta_hat * shrink - 1e-6
    prev = None
    for K in (3, 4, 5, 6):
        lam = canonical_tree(jp_triple, K).points
        st = parseval_defect(pair, lam, 3, trials=12, seed=3)
        assert st.minimum >= floor
        assert st.maximum <= 1 + 1e-6
        if prev is not None:
            assert st.minimum >= prev - 1e-9
        prev = st.minimum
    assert prev >= 0.99
    assert time.monotonic() - t0 < 120.0


def test_c12_cycle_first_refutation(skew_triple):
    """The exact cycle point (0, 1/3) refutes an empty zero set before any grid
    scan, and the whole quasi-product decision stays within its budget.

    The decision's budget is 3 s, with room for a slow host: on a 2-core host
    the whole decision takes about 0.1 s, of which the product sweep (16
    mu_hat_sq tables of 121 steps by 64 points) takes about 0.03 s."""
    t0 = time.monotonic()
    evd = zero_set_empty_evidence(skew_triple.pair)
    assert evd.kind == "refuted"
    assert evd.witness.point == (Fraction(0), Fraction(1, 3))
    assert time.monotonic() - t0 < 1.0
    t0 = time.monotonic()
    rep = full_spectrum(skew_triple)
    assert rep.status == "spectral" and rep.branch == "quasi-product"
    assert time.monotonic() - t0 < 3.0
