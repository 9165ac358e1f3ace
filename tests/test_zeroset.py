"""Periodic zero set: scanning, exact certification, cycles."""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from spectral_fractal.errors import CycleNotFound, DimensionUnsupported
from spectral_fractal.intlat import IntMatrix, root_sum_vanishes
from spectral_fractal.measure import FourierEval
from spectral_fractal.triples import affine_pair
from spectral_fractal.zeroset import (
    EmptinessEvidence,
    ZeroCertificate,
    certify_zero,
    find_invariant_cycle,
    gcd_fast_path_1d,
    mask_zero_structure,
    mask_zero_test,
    rational_invariant_subspaces,
    replay_certificate,
    scan_zero_set,
    vanishing_orders_1d,
    zero_set_empty_evidence,
)

from oracles import (
    cyclotomic,
    f_matvec,
    fraction_certify_zero,
    phi_division_vanishes,
    to_fractions,
    transition_weights,
)

F = Fraction


# ---------------------------------------------------------------------------
# cyclotomic layer


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_small_tables():
    assert cyclotomic(1) == [1, -1]
    assert cyclotomic(2) == [1, 1]
    assert cyclotomic(3) == [1, 1, 1]
    assert cyclotomic(4) == [1, 0, 1]
    assert cyclotomic(6) == [1, -1, 1]
    assert cyclotomic(12) == [1, 0, -1, 0, 1]


def test_cyclotomic_product_identity():
    # independent oracle: the divisors' product reassembles x^n - 1
    for n in range(1, 31):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = _poly_mul(prod, cyclotomic(d))
        expected = [1] + [0] * (n - 1) + [-1]
        assert prod == expected


@pytest.mark.parametrize(
    "digits,orders",
    [
        ((0, 2), {4}),
        ((0, 3), {2, 6}),
        ((0, 1), {2}),
        ((0, 1, 2, 3), {2, 4}),
        ((0, 1, 2), {3}),
        ((5, 7), {4}),  # translation invariant
    ],
)
def test_vanishing_orders_known(digits, orders):
    assert vanishing_orders_1d(digits) == frozenset(orders)


def test_vanishing_orders_wide_digits_are_fast():
    # Phi_q is built only for q with phi(q) <= 30 (the parent took 17 s here)
    t0 = time.monotonic()
    assert vanishing_orders_1d((0, 30)) == frozenset({4, 12, 20, 60})
    assert time.monotonic() - t0 < 1.0
    # 1 + x^67 vanishes at primitive q-th roots exactly for q = 2 and 134
    assert vanishing_orders_1d((0, 67)) == frozenset({2, 134})
    cert = certify_zero(affine_pair([[2]], [(0,), (67,)]), (F(1, 67),))
    assert (cert.status, cert.grade) == ("in", "exact")


def test_vanishing_orders_500_wide_digits_are_fast():
    # 970 orders have phi(q) <= 500; a float value above its rounding bound
    # rules most out, and the rest take the exact root-sum test
    t0 = time.monotonic()
    assert vanishing_orders_1d((0, 500)) == frozenset({8, 40, 200, 1000})
    assert time.monotonic() - t0 < 1.0
    assert cyclotomic(105)[:8] == [1, 1, 1, 0, 0, -1, -1, -2]  # first entry beyond +-1


def test_vanishing_orders_30000_wide_digits_are_fast():
    # 58,344 orders have phi(q) <= 30000; dividing by each surviving Phi_q
    # took 22-30 s, and the set is the one that division gives
    t0 = time.monotonic()
    orders = vanishing_orders_1d((0, 30000))
    assert time.monotonic() - t0 < 1.0
    assert orders == frozenset({32, 96, 160, 480, 800, 2400, 4000, 12000, 20000, 60000})


def _vanishing_exponents(rng, q: int) -> list[int]:
    """Exponents of a vanishing sum: rotated regular p-gons, p | q prime."""
    primes = [p for p in range(2, q + 1) if q % p == 0 and all(p % r for r in range(2, p))]
    exps = []
    for _ in range(int(rng.integers(1, 4))):
        p = int(rng.choice(primes))
        r = int(rng.integers(q))
        exps += [(r + j * (q // p)) % q for j in range(p)]
    return exps


def test_root_sum_vanishes_matches_phi_division():
    # random counts rarely vanish, so half the cases are built to vanish and
    # then perturbed by one term or not
    rng = np.random.default_rng(3)
    hits = 0
    for case in range(3000):
        q = int(rng.integers(1, 241))
        if case % 2 and q > 1:
            exps = _vanishing_exponents(rng, q)
            if rng.random() < 0.3:
                exps.append(int(rng.integers(q)))
        else:
            exps = rng.integers(q, size=int(rng.integers(1, 13))).tolist()
        want = phi_division_vanishes(exps, q)
        assert root_sum_vanishes(exps, q) == want, (q, exps)
        hits += want
    assert 500 < hits < 2500


def test_vanishing_orders_numeric_oracle():
    # roots of unity of listed orders kill the mask; nearby orders do not
    for digits in [(0, 2), (0, 3), (0, 1, 2, 3), (0, 1, 5)]:
        orders = vanishing_orders_1d(digits)
        for q in range(2, 21):
            vals = []
            for p in range(1, q):
                if np.gcd(p, q) != 1:
                    continue
                z = np.exp(-2j * np.pi * p / q)
                vals.append(abs(sum(z ** (dd - min(digits)) for dd in digits)))
            if q in orders:
                assert max(vals) < 1e-9
            else:
                assert min(vals) > 1e-9


# ---------------------------------------------------------------------------
# mask zero structure


def test_structure_product_detection(skew_triple):
    ms = mask_zero_structure(skew_triple.pair)
    assert ms.product
    assert ms.axis_orders == (frozenset({2}), frozenset({2, 6}))


def test_structure_general():
    pair = affine_pair([[3]], [(0,), (1,), (2,)])
    ms = mask_zero_structure(pair)
    assert ms.product  # 1D is always a product
    pair2 = affine_pair([[2, 0], [0, 2]], [(0, 0), (1, 0), (2, 1), (3, 1)])
    assert not mask_zero_structure(pair2).product


def test_mask_zero_test_product_exact(skew_triple):
    # the point is v / den; unreduced numerators and denominators, negative
    # numerators and whole translates give the same verdicts
    pair = skew_triple.pair
    ms = mask_zero_structure(pair)
    assert mask_zero_test(pair, ms, (1, 0), 2) == (True, "exact")
    assert mask_zero_test(pair, ms, (0, 2), 12) == (True, "exact")
    assert mask_zero_test(pair, ms, (0, -7), 6) == (True, "exact")
    assert mask_zero_test(pair, ms, (4, 3), 6) == (True, "exact")
    assert mask_zero_test(pair, ms, (0, 1), 3) == (False, "exact")
    assert mask_zero_test(pair, ms, (9, 12), 9) == (False, "exact")
    assert mask_zero_test(pair, ms, (3, 0), 12) == (False, "exact")


def test_mask_zero_test_general_cyclotomic():
    # three digits, genuinely non-product: sum of three unit vectors vanishes
    # exactly when the exponents are the cube roots of unity
    pair = affine_pair([[2, 0], [0, 2]], [(0, 0), (1, 0), (2, 1)])
    ms = mask_zero_structure(pair)
    assert not ms.product
    assert mask_zero_test(pair, ms, (1, 0), 3) == (True, "exact")
    assert mask_zero_test(pair, ms, (-10, 6), 6) == (True, "exact")
    assert mask_zero_test(pair, ms, (1, 1), 3) == (False, "exact")
    assert mask_zero_test(pair, ms, (2, 4), 14) == (False, "exact")
    assert mask_zero_test(pair, ms, (7, 7), 7) == (False, "exact")


def test_mask_zero_test_numeric_fallback(monkeypatch):
    from spectral_fractal import zeroset

    pair = affine_pair([[2, 0], [0, 2]], [(0, 0), (1, 0), (2, 1)])
    monkeypatch.setattr(zeroset, "GENERAL_CAP", 1)  # force the float path
    ms = zeroset.MaskZeroStructure(False)
    hit, grade = mask_zero_test(pair, ms, (4, 0), 12)
    assert hit and grade == "numeric"
    hit, grade = mask_zero_test(pair, ms, (1, 2), 7)
    assert (not hit) and grade == "numeric"


# ---------------------------------------------------------------------------
# certification


def test_certify_half_in_scaled_binary():
    pair = affine_pair([[2]], [(0,), (2,)])
    cert = certify_zero(pair, (F(1, 2),), K=10)
    assert cert.status == "in"
    assert cert.grade == "exact"
    # (1/2 + k)/2 always has denominator 4, a listed order: one mask level
    assert len(cert.witnesses) == 21
    assert all(j == 1 for _, j in cert.witnesses)


def test_certify_quarter_out_scaled_binary():
    pair = affine_pair([[2]], [(0,), (2,)])
    cert = certify_zero(pair, (F(1, 4),), K=10)
    assert cert.status == "out"
    assert cert.out_witness == (0,)
    assert cert.out_value == pytest.approx(2 / np.pi, abs=1e-6)


def test_certify_skew_line_point_in(skew_triple):
    cert = certify_zero(skew_triple.pair, (F(0), F(1, 3)), K=10)
    assert cert.status == "in"
    assert cert.grade == "exact"
    assert len(cert.witnesses) == 441
    # even vertical translates are killed at the first level
    wit = dict(cert.witnesses)
    assert wit[(0, 0)] == 1
    assert wit[(5, 2)] == 1
    # odd vertical translates need deeper levels but stay within bounds
    assert wit[(0, 1)] >= 2
    assert max(j for _, j in cert.witnesses) <= 6


def test_certify_skew_half_out(skew_triple):
    cert = certify_zero(skew_triple.pair, (F(0), F(1, 2)), K=6)
    assert cert.status == "out"
    assert cert.out_value > 1e-2


def test_certify_jp_half_out(jp_triple):
    cert = certify_zero(jp_triple.pair, (F(1, 2),), K=8)
    assert cert.status == "out"


def test_certify_inconclusive_with_tiny_level_budget(skew_triple):
    # genuine zero, but the witness for odd vertical translates sits past J=1
    cert = certify_zero(skew_triple.pair, (F(0), F(1, 3)), K=2, J=1)
    assert cert.status == "inconclusive"
    assert (0, 1) in cert.unresolved


def test_certificate_roundtrip_and_replay(skew_triple):
    pair = skew_triple.pair
    cert = certify_zero(pair, (F(0), F(1, 3)), K=4)
    again = ZeroCertificate.from_dict(cert.to_dict())
    assert again == cert
    assert replay_certificate(pair, again)
    # tampered witness level must fail replay
    bad = ZeroCertificate(
        cert.point,
        cert.K,
        cert.J,
        cert.status,
        tuple(
            (k, (j + 1 if k == (0, 0) else j)) for k, j in cert.witnesses
        ),
        grade=cert.grade,
    )
    assert not replay_certificate(pair, bad)
    out = certify_zero(pair, (F(0), F(1, 2)), K=4)
    assert replay_certificate(pair, out)


SKEW_R = [[4, 0], [1, 2]]
SKEW_B = [(0, 0), (0, 3), (1, 0), (1, 3)]
# the skew system times a binary third axis: its zero set holds (0, 1/3, 0)
D3_R = [[4, 0, 0], [1, 2, 0], [0, 0, 2]]
D3_B = [(x, y, z) for x, y in SKEW_B for z in (0, 1)]


@pytest.mark.parametrize(
    "R,B,point,K,structure,status",
    [
        (SKEW_R, SKEW_B, (F(0), F(1, 3)), 10, None, "in"),
        (SKEW_R, SKEW_B, (F(1, 2), F(2, 3)), 10, None, "in"),
        (SKEW_R, SKEW_B, (F(-1, 6), F(5, 2)), 3, None, "out"),
        (D3_R, D3_B, (F(0), F(1, 3), F(0)), 6, None, "in"),
        # the cyclotomic path, on the skew digits and on non-product sets
        (SKEW_R, SKEW_B, (F(0), F(1, 3)), 6, (False, 600), "in"),
        ([[2, 1], [0, 2]], [(0, 0), (2, 0), (1, 1), (3, 1)], (F(1, 2), F(0)), 10, None, "in"),
        ([[2, 0], [0, 2]], [(0, 0), (1, 0), (2, 1)], (F(1, 3), F(0)), 4, None, "out"),
        # the numeric grade: every reduced denominator is beyond the cap
        (SKEW_R, SKEW_B, (F(0), F(1, 3)), 4, (False, 1), "in"),
    ],
)
def test_integer_stepping_equals_the_fraction_oracle(
    monkeypatch, R, B, point, K, structure, status
):
    from spectral_fractal import zeroset

    pair = affine_pair(R, B)
    if structure is not None:
        ms = zeroset.MaskZeroStructure(structure[0])
        monkeypatch.setattr(zeroset, "mask_zero_structure", lambda p: ms)
        monkeypatch.setattr(zeroset, "GENERAL_CAP", structure[1])
    ms = zeroset.mask_zero_structure(pair)
    cert = certify_zero(pair, point, K=K)
    assert cert == fraction_certify_zero(pair, ms, point, K)
    assert cert.status == status
    if structure == (False, 1):
        assert cert.grade == "numeric"
    assert replay_certificate(pair, cert)


def test_certify_three_dimensional_witness_is_fast():
    # 9,261 translates stepped in integers (about 1 s with Fractions)
    pair = affine_pair(D3_R, D3_B)
    t0 = time.monotonic()
    cert = certify_zero(pair, (F(0), F(1, 3), F(0)), K=10)
    assert time.monotonic() - t0 < 0.5
    assert (cert.status, cert.grade, len(cert.witnesses)) == ("in", "exact", 21**3)


# ---------------------------------------------------------------------------
# scanning and emptiness evidence


def test_gcd_fast_path():
    assert gcd_fast_path_1d(affine_pair([[2]], [(0,), (1,)])) == "empty"
    assert gcd_fast_path_1d(affine_pair([[2]], [(0,), (2,)])) == "unknown"
    assert gcd_fast_path_1d(affine_pair([[4]], [(1,), (2,)])) == "empty"
    assert gcd_fast_path_1d(affine_pair([[4]], [(1,), (3,)])) == "unknown"


def test_scan_scaled_binary_finds_half():
    pair = affine_pair([[2]], [(0,), (2,)])
    assert scan_zero_set(pair) == [(F(1, 2),)]


def test_scan_lebesgue_clear(lebesgue_triple):
    assert scan_zero_set(lebesgue_triple.pair) == []


def test_scan_jp_clear(jp_triple):
    assert scan_zero_set(jp_triple.pair) == []


def test_scan_skew_finds_lines(skew_triple):
    found = scan_zero_set(skew_triple.pair)
    assert found[0] == (F(0), F(1, 3))
    assert (F(0), F(2, 3)) in found
    assert (F(1, 2), F(1, 3)) in found
    assert {pt[1] for pt in found} == {F(1, 3), F(2, 3)}


def test_evidence_kinds(jp_triple, lebesgue_triple, skew_triple):
    ev = zero_set_empty_evidence(lebesgue_triple.pair)
    assert ev.kind == "gcd-1d" and ev.empty

    ev = zero_set_empty_evidence(jp_triple.pair)
    assert ev.kind == "scan-clear" and ev.empty

    ev = zero_set_empty_evidence(affine_pair([[2]], [(0,), (2,)]))
    assert ev.kind == "refuted" and not ev.empty
    assert ev.witness.point == (F(1, 2),)
    assert ev.witness.status == "in"

    ev = zero_set_empty_evidence(skew_triple.pair)
    assert ev.kind == "refuted" and not ev.empty
    assert ev.witness.point == (F(0), F(1, 3))


def test_unconfirmed_survivors_are_inconclusive():
    # 1/67 + k is a zero of mu_hat for every k, but 67 is beyond the snap's
    # denominator bound: the survivors must not read as an empty zero set
    pair = affine_pair([[2]], [(0,), (67,)])
    found = scan_zero_set(pair)
    assert found == [] and found.survivors > 0
    ev = zero_set_empty_evidence(pair)
    assert ev.kind == "inconclusive" and not ev.empty
    assert ev.witness is None and "prefilter" in ev.note
    assert abs(FourierEval(pair).mu_hat(np.array([[1 / 67 + 5]]))[0]) < 1e-12


def _no_scan(pair, K):
    raise AssertionError("the grid scan ran")


def test_skew_refuted_from_cycle_points_before_the_scan(monkeypatch, skew_triple):
    # (0, 1/3) is a period-2 point of R^T; certifying it needs no grid scan
    from spectral_fractal import zeroset

    monkeypatch.setattr(zeroset, "scan_zero_set", _no_scan)
    ev = zero_set_empty_evidence(skew_triple.pair)
    assert ev.kind == "refuted"
    assert ev.witness.point == (F(0), F(1, 3))
    assert (ev.witness.status, ev.witness.grade) == ("in", "exact")
    assert len(ev.witness.witnesses) == 441
    assert replay_certificate(skew_triple.pair, ev.witness)


def test_preperiodic_zero_still_reaches_the_scan(monkeypatch):
    # 1/2 is the only zero of (2, {0,2}) mod 1, and 2 * 1/2 = 0 mod 1: no
    # periodic point certifies, so the witness comes from the scan
    from spectral_fractal import zeroset

    pair = affine_pair([[2]], [(0,), (2,)])
    scans = []
    scan = zeroset.scan_zero_set
    monkeypatch.setattr(zeroset, "scan_zero_set", lambda p, K: scans.append(K) or scan(p, K))
    ev = zero_set_empty_evidence(pair)
    assert scans == [10]
    assert ev.kind == "refuted" and ev.witness.point == (F(1, 2),)


def test_periodic_points_of_the_skew_matrix(skew_triple):
    # A = R^T - I has |det A| = 3; period 2 adds the rest of the 45 points,
    # sorted by least common denominator, then coordinatewise
    from spectral_fractal.zeroset import _periodic_points

    periods = list(_periodic_points(skew_triple.pair, 4, 4096))
    assert [m for m, _, _ in periods] == [1, 2, 3, 4]
    assert [len(L) for _, L, _ in periods] == [2, 42, 441 - 3, 3825 - 45]
    L, a = periods[0][1], periods[0][2]
    assert L.tolist() == [3, 3] and a.tolist() == [[1, 0], [2, 0]]
    L, a = periods[1][1], periods[1][2]
    assert (L[0], tuple(a[0])) == (3, (0, 1))
    assert sorted(L.tolist()) == L.tolist()
    Rt = skew_triple.pair.R.T.pow(2)
    for den, num in zip(L.tolist(), a.tolist()):
        x = tuple(F(c, den) for c in num)
        assert all((y - c).denominator == 1 for y, c in zip(f_matvec(to_fractions(Rt), x), x))
    assert [m for m, L, _ in _periodic_points(skew_triple.pair, 6, 4096) if L is None] == [5, 6]


def test_three_dimensional_zero_set_is_refuted():
    # beyond the scan's d <= 2: the skew system times a binary third axis
    # carries the skew witness, now at (0, 1/3, 0)
    R = [[4, 0, 0], [1, 2, 0], [0, 0, 2]]
    B = [(x, y, z) for x, y in [(0, 0), (0, 3), (1, 0), (1, 3)] for z in (0, 1)]
    pair = affine_pair(R, B)
    with pytest.raises(DimensionUnsupported):
        scan_zero_set(pair)
    ev = zero_set_empty_evidence(pair)
    assert ev.kind == "refuted"
    assert ev.witness.point == (F(0), F(1, 3), F(0))
    assert (ev.witness.grade, len(ev.witness.witnesses)) == ("exact", 21**3)


def test_candidates_certified_out_are_inconclusive(monkeypatch, skew_triple):
    # certifying every snapped candidate out does not account for the
    # prefilter survivors that did not snap, so emptiness is not shown
    from spectral_fractal import zeroset

    found = zeroset.ScanCandidates([(F(0), F(1, 3))])
    found.survivors = 5
    monkeypatch.setattr(zeroset, "scan_zero_set", lambda pair, K: found)
    monkeypatch.setattr(
        zeroset, "certify_zero", lambda pair, cand, K: ZeroCertificate(cand, K, 30, "out")
    )
    ev = zero_set_empty_evidence(skew_triple.pair)
    assert ev.kind == "inconclusive" and not ev.empty
    assert ev.note.startswith("certification:")


# ---------------------------------------------------------------------------
# transfer dynamics


def test_transition_weights_partition(skew_triple, lebesgue_triple):
    # over a full residue system the u-weights sum to |det R| / N
    moves = transition_weights(skew_triple.pair, (F(0), F(1, 3)))
    assert len(moves) == 8  # |det R^T| inverse branches
    assert sum(w for _, _, w in moves) == pytest.approx(2.0, abs=1e-12)
    moves = transition_weights(lebesgue_triple.pair, (F(1, 5),))
    assert sum(w for _, _, w in moves) == pytest.approx(1.0, abs=1e-12)


def test_transitions_from_skew_cycle_point(skew_triple):
    moves = [t for _, t, w in transition_weights(skew_triple.pair, (F(0), F(1, 3))) if w > 1e-12]
    # only odd second digit-coordinates survive; they all land on height 2/3
    assert len(moves) == 4
    assert {t[1] % 1 for t in moves} == {F(2, 3)}


def test_invariant_subspaces_skew(skew_triple):
    subs = rational_invariant_subspaces(skew_triple.pair.R.T)
    assert set(subs) == {((1, 0),), ((1, -2),)}


def test_invariant_subspaces_irreducible():
    assert rational_invariant_subspaces(IntMatrix.from_rows([[0, 3], [1, 0]])) == []


def test_invariant_subspaces_diag3():
    subs = rational_invariant_subspaces(IntMatrix.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 5]]))
    assert len(subs) == 6
    assert ((1, 0, 0),) in subs
    assert ((1, 0, 0), (0, 1, 0)) in subs


def _minors(cols, k):
    """The k x k minors of the matrix with the given columns."""
    return [
        IntMatrix.from_rows([[c[i] for c in cols] for i in rows]).det()
        for rows in itertools.combinations(range(len(cols[0])), k)
    ]


def _assert_saturated_invariant(M, W):
    r = len(W)
    assert math.gcd(*_minors(W, r)) == 1  # W spans all of span(W) cap Z^d
    for w in W:
        assert not any(_minors(W + (M.matvec(w),), r + 1))  # M w stays in span(W)


def test_invariant_subspaces_are_saturated():
    # a plane basis such as ((1, 150, -40), (0, 270, -70)) spans an index-10
    # sublattice of W cap Z^3: the sampled points t = 1/2 and 2/5 along
    # (0, 270, -70) fall on x0 + Z^3 and would certify trivially
    M = IntMatrix.from_rows([[-5, -3, -2], [0, 4, -3], [0, 1, -2]])
    subs = rational_invariant_subspaces(M)
    assert subs == [((1, 0, 0),), ((1, 15, -5), (0, 27, -7))]
    for W in subs:
        _assert_saturated_invariant(M, W)


def test_random_invariant_subspaces_are_saturated():
    rng = np.random.default_rng(22)
    for _ in range(80):
        d = int(rng.integers(2, 4))
        M = IntMatrix.from_rows(rng.integers(-6, 7, size=(d, d)).tolist())
        for W in rational_invariant_subspaces(M):
            _assert_saturated_invariant(M, W)


def test_invariant_subspaces_dimension_guard():
    with pytest.raises(DimensionUnsupported):
        rational_invariant_subspaces(IntMatrix.identity(4).mul(IntMatrix.from_rows(
            [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]
        )))


def test_find_cycle_skew(skew_triple):
    # the cycle stage walks the orbit of the refuting witness
    pair = skew_triple.pair
    witness = zero_set_empty_evidence(pair).witness
    cyc = find_invariant_cycle(pair, witness)
    assert len(cyc.orbit) == 2
    assert cyc.orbit[0] == witness.point == (F(0), F(1, 3))
    assert cyc.orbit == ((F(0), F(1, 3)), (F(1, 3), F(2, 3)))
    assert cyc.W == ((1, 0),)
    # every orbit point certifies at the witness's window
    assert all(certify_zero(pair, pt, K=witness.K).status == "in" for pt in cyc.orbit)


def test_no_cycle_for_67_is_fast():
    # 1/67 is a zero of (2, {0,67}), but 2 has order 66 mod 67: the walk
    # stops after CYCLE_PERIOD steps and certifies nothing more
    pair = affine_pair([[2]], [(0,), (67,)])
    witness = certify_zero(pair, (F(1, 67),))
    t0 = time.monotonic()
    with pytest.raises(CycleNotFound, match=r"\(1/67\) is not periodic"):
        find_invariant_cycle(pair, witness)
    assert time.monotonic() - t0 < 1.0


def test_no_cycle_for_scaled_binary():
    # 1/2 is the zero of (2, {0,2}), but 2 * 1/2 = 0 mod 1: not periodic
    pair = affine_pair([[2]], [(0,), (2,)])
    witness = zero_set_empty_evidence(pair).witness
    assert witness.point == (F(1, 2),)
    with pytest.raises(CycleNotFound, match=r"\(1/2\) is not periodic"):
        find_invariant_cycle(pair, witness)


def test_cycle_orbit_point_out_is_named():
    # 1/3 -> 2/3 -> 1/3 under doubling; taking 1/3 as a witness, the cycle
    # stage certifies 2/3 and finds it outside the zero set of (2, {0,2})
    pair = affine_pair([[2]], [(0,), (2,)])
    witness = ZeroCertificate((F(1, 3),), 4, 30, "in")
    with pytest.raises(CycleNotFound, match=r"orbit point \(2/3\) certified out"):
        find_invariant_cycle(pair, witness)
