"""Periodic zero set: scanning, exact certification, cycles."""

from fractions import Fraction

import numpy as np
import pytest

from spectral_fractal.errors import CycleNotFound, DimensionUnsupported
from spectral_fractal.intlat import IntMatrix
from spectral_fractal.measure import FourierEval
from spectral_fractal.triples import affine_pair
from spectral_fractal.zeroset import (
    EmptinessEvidence,
    ZeroCertificate,
    certify_zero,
    cyclotomic,
    find_invariant_cycle,
    gcd_fast_path_1d,
    in_subspace_plus_integers,
    mask_zero_structure,
    mask_zero_test,
    rational_invariant_subspaces,
    replay_certificate,
    scan_zero_set,
    transition_targets,
    vanishing_orders_1d,
    zero_set_empty_evidence,
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
    pair = skew_triple.pair
    ms = mask_zero_structure(pair)
    assert mask_zero_test(pair, ms, (F(1, 2), F(0))) == (True, "exact")
    assert mask_zero_test(pair, ms, (F(0), F(1, 6))) == (True, "exact")
    assert mask_zero_test(pair, ms, (F(0), F(1, 2))) == (True, "exact")
    assert mask_zero_test(pair, ms, (F(0), F(1, 3))) == (False, "exact")
    assert mask_zero_test(pair, ms, (F(1, 4), F(0))) == (False, "exact")


def test_mask_zero_test_general_cyclotomic():
    # three digits, genuinely non-product: sum of three unit vectors vanishes
    # exactly when the exponents are the cube roots of unity
    pair = affine_pair([[2, 0], [0, 2]], [(0, 0), (1, 0), (2, 1)])
    ms = mask_zero_structure(pair)
    assert not ms.product
    assert mask_zero_test(pair, ms, (F(1, 3), F(0))) == (True, "exact")
    assert mask_zero_test(pair, ms, (F(1, 3), F(1, 3))) == (False, "exact")
    assert mask_zero_test(pair, ms, (F(1, 7), F(2, 7))) == (False, "exact")


def test_mask_zero_test_numeric_fallback():
    from spectral_fractal.zeroset import MaskZeroStructure

    pair = affine_pair([[2, 0], [0, 2]], [(0, 0), (1, 0), (2, 1)])
    ms = MaskZeroStructure(False, general_cap=1)  # force the float path
    hit, grade = mask_zero_test(pair, ms, (F(1, 3), F(0)))
    assert hit and grade == "numeric"
    hit, grade = mask_zero_test(pair, ms, (F(1, 7), F(2, 7)))
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


# ---------------------------------------------------------------------------
# transfer dynamics


def test_transition_weights_partition(skew_triple, lebesgue_triple):
    # over a full residue system the u-weights sum to |det R| / N
    pair = skew_triple.pair
    moves = transition_targets(pair, (F(0), F(1, 3)))
    assert len(moves) == 8  # |det R^T| inverse branches
    assert sum(t.weight for t in moves) == pytest.approx(2.0, abs=1e-12)
    moves = transition_targets(lebesgue_triple.pair, (F(1, 5),))
    assert sum(t.weight for t in moves) == pytest.approx(1.0, abs=1e-12)


def test_transitions_from_skew_cycle_point(skew_triple):
    pair = skew_triple.pair
    moves = [t for t in transition_targets(pair, (F(0), F(1, 3))) if t.possible]
    # only odd second digit-coordinates survive; they all land on height 2/3
    assert len(moves) == 4
    assert {t.target[1] % 1 for t in moves} == {F(2, 3)}


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


def test_invariant_subspaces_dimension_guard():
    with pytest.raises(DimensionUnsupported):
        rational_invariant_subspaces(IntMatrix.identity(4).mul(IntMatrix.from_rows(
            [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]
        )))


def test_subspace_plus_integer_membership():
    W = ((1, 0),)
    assert in_subspace_plus_integers((F(7, 3), F(2)), W, 2)
    assert not in_subspace_plus_integers((F(1, 2), F(1, 3)), W, 2)
    W2 = ((1, 2),)
    assert in_subspace_plus_integers((F(1, 2), F(0)), W2, 2)
    assert not in_subspace_plus_integers((F(1, 2), F(1, 2)), W2, 2)
    assert in_subspace_plus_integers((F(3), F(-1)), (), 2)
    assert not in_subspace_plus_integers((F(1, 2), F(0)), (), 2)
    W3 = ((1, 1, 1),)
    assert in_subspace_plus_integers((F(1, 3), F(1, 3), F(1, 3)), W3, 3)
    assert not in_subspace_plus_integers((F(1, 3), F(1, 3), F(0)), W3, 3)


def test_find_cycle_skew(skew_triple):
    cyc = find_invariant_cycle(skew_triple.pair, max_period=4)
    assert cyc.period == 2
    assert cyc.x0 == (F(0), F(1, 3))
    assert cyc.orbit == ((F(0), F(1, 3)), (F(1, 3), F(2, 3)))
    assert cyc.W == ((1, 0),)
    assert cyc.descent_ok
    assert all(c.status == "in" for c in cyc.certificates)


def test_no_cycle_for_scaled_binary():
    pair = affine_pair([[2]], [(0,), (2,)])
    with pytest.raises(CycleNotFound):
        find_invariant_cycle(pair, max_period=4)
