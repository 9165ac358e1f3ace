from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_fractal import measure
from spectral_fractal.errors import CapExceeded, InvalidInput
from spectral_fractal.measure import (
    TAIL_TOL,
    XI_MAX,
    DiscreteMeasure,
    FourierEval,
    attractor_box,
    discrete_approximant,
    mu_hat_field,
    render_attractor,
    render_field,
    write_pgm,
)
from spectral_fractal.triples import affine_pair, mask_eval

from oracles import (
    SimpleDigitsRequired,
    discrete_fourier_atoms,
    fraction_approximant,
    refinement_identity_defect,
    step_moment,
)


@pytest.fixture
def jp_pair():
    return affine_pair([[4]], [(0,), (2,)])


@pytest.fixture
def skew_pair():
    return affine_pair([[4, 0], [1, 2]], [(0, 0), (0, 3), (1, 0), (1, 3)])


def test_mu_hat_at_zero_and_zero_point(jp_pair):
    ev = FourierEval(jp_pair)
    assert abs(ev.mu_hat(0.0) - 1.0) < 1e-12
    # first factor is mask(1/4) = 0
    assert abs(ev.mu_hat(1.0)) < 1e-12
    assert np.all(np.abs(ev.mu_hat(np.linspace(-8, 8, 101))) <= 1 + 1e-12)


def test_mu_hat_matches_closed_form_for_lebesgue():
    # binary digits give Lebesgue measure on [0,1]: |mu_hat| = |sinc|
    pair = affine_pair([[2]], [(0,), (1,)])
    ev = FourierEval(pair)
    xs = np.array([0.1, 0.3, 0.5, 1.5, 2.7])
    want = np.abs(np.sin(np.pi * xs) / (np.pi * xs))
    assert np.allclose(np.abs(ev.mu_hat(xs)), want, atol=1e-9)


def test_mu_hat_depth_stability(jp_pair, skew_pair):
    for pair, pts in (
        (jp_pair, np.linspace(-5, 5, 41)),
        (skew_pair, np.random.default_rng(3).uniform(-5, 5, size=(40, 2))),
    ):
        ev = FourierEval(pair)
        base = ev.mu_hat(pts)
        deeper = np.abs(ev.mu_hat_truncated(pts, ev.depth_for(pts) + 8))
        assert np.max(np.abs(base - deeper)) < 1e-9


def test_mu_hat_agrees_with_discrete_oracle():
    # the weighted atom sum of the level-n approximant is the n-factor product
    for R, B, n in (
        ([[4]], [(0,), (2,)], 6),  # jp
        ([[4, 0], [1, 2]], [(0, 0), (0, 3), (1, 0), (1, 3)], 6),  # skew
        ([[3]], [(0,), (1,), (3,), (4,)], 5),  # digits collide mod 3: merged atoms
    ):
        pair = affine_pair(R, B)
        dm = discrete_approximant(pair, n)
        xs = np.random.default_rng(4).uniform(-5, 5, size=(33, pair.d))
        atom_sum = discrete_fourier_atoms(dm, xs)
        assert np.max(np.abs(FourierEval(pair).mu_hat_truncated(xs, n) - atom_sum)) < 1e-12
        assert np.max(np.abs(dm.fourier(xs) - atom_sum)) < 1e-12
        assert abs(dm.fourier(xs[0]) - atom_sum[0]) < 1e-12  # a point in, a scalar out


def test_mu_hat_depth_cap_is_not_silent():
    # 56 factors serve every |xi| <= XI_MAX = 1e12; at 1e15 the 56th factor
    # still leaves a tail bound of 6.3e-4
    ev = FourierEval(affine_pair([[2]], [(0,), (1,)]))
    assert ev.max_depth == 56
    assert ev.depth_for(XI_MAX) <= ev.max_depth
    for xi in (1e15, 1e18):
        with pytest.raises(CapExceeded, match="mu_hat factors"):
            ev.mu_hat(xi)


def test_mu_hat_depth_cap_follows_the_contraction():
    # R = [[0,2],[1,0]] halves xi only every second factor, so |xi| = 5 needs
    # 39 or 40 factors where (2, {0,1}) needs 19, and the cap is 114 against 56
    lebesgue = FourierEval(affine_pair([[2]], [(0,), (1,)]))
    ev = FourierEval(affine_pair([[0, 2], [1, 0]], [(0, 0), (1, 0)]))
    xs = np.array([(2.5, 4.3), (4.1, -2.9), (-1.7, 4.7), (0.4, 5.1)])
    assert lebesgue.depth_for(5.0) == 19 and ev.depth_for(xs) == 40
    assert (lebesgue.max_depth, ev.max_depth) == (56, 114)
    vals = ev.mu_hat(xs)
    assert np.min(vals) > 1e-4
    assert np.max(np.abs(vals - np.abs(ev.mu_hat_truncated(xs, ev.max_depth)))) <= TAIL_TOL
    for xi in ((XI_MAX, 0.0), (0.0, -XI_MAX), (0.6 * XI_MAX, 0.8 * XI_MAX)):
        assert ev.depth_for(xi) <= ev.max_depth
    with pytest.raises(CapExceeded, match="mu_hat factors"):
        ev.mu_hat((0.0, 1e15))


SQ_SYSTEMS = {
    "jp": ([[4]], [(0,), (2,)]),
    "mt": ([[3]], [(0,), (2,)]),
    "skew": ([[4, 0], [1, 2]], [(0, 0), (0, 3), (1, 0), (1, 3)]),
    "swap": ([[0, 2], [1, 0]], [(0, 0), (1, 0)]),
    "nine": ([[9]], [(0,), (3,), (6,)]),
}


@pytest.mark.parametrize("R, B", SQ_SYSTEMS.values(), ids=SQ_SYSTEMS)
def test_mu_hat_sq_matches_the_complex_product(R, B):
    # the full-cap complex product is exact far below TAIL_TOL for |xi| <= 1e3
    pair = affine_pair(R, B)
    ev = FourierEval(pair)
    rng = np.random.default_rng(11)
    for radius in (1.0, 30.0, 1e3):
        xs = rng.uniform(-1, 1, size=(400, pair.d)) * radius / np.sqrt(pair.d)
        want = np.abs(ev.mu_hat_truncated(xs, ev.max_depth)) ** 2
        assert np.max(np.abs(ev.mu_hat_sq(xs) - want)) <= TAIL_TOL
    assert ev.mu_hat_sq(np.zeros(pair.d)) == pytest.approx(1.0, abs=1e-15)


def _count_factors(ev: FourierEval) -> list:
    """Wrap ev._mask_sq so that each factor `mu_hat_sq` multiplies is logged."""
    factors = []
    mask_sq = ev._mask_sq

    def counting(a, b):
        factors.append(len(a) * len(b))
        return mask_sq(a, b)

    ev._mask_sq = counting
    return factors


@pytest.mark.parametrize("R, B", SQ_SYSTEMS.values(), ids=SQ_SYSTEMS)
def test_depth_for_is_the_depth_mu_hat_sq_multiplies(R, B):
    # one truncation rule: the complex product and the real one stop together
    pair = affine_pair(R, B)
    ev = FourierEval(pair)
    factors = _count_factors(ev)
    rng = np.random.default_rng(12)
    for radius in (0.5, 30.0, 1e6):
        xs = rng.uniform(-1, 1, size=(50, pair.d)) * radius
        factors.clear()
        ev.mu_hat_sq(xs)
        assert ev.depth_for(xs) == len(factors)


@st.composite
def _small_systems(draw):
    d = draw(st.integers(1, 2))
    digit = st.tuples(*[st.integers(-6, 6)] * d)
    B = draw(st.lists(digit, min_size=1, max_size=5, unique=True))
    x = draw(st.lists(st.floats(-3, 3), min_size=d, max_size=d))
    return affine_pair(np.diag([7] * d).tolist(), B), np.array([x])


@settings(max_examples=80, deadline=None)
@given(_small_systems())
def test_mask_sq_has_the_quadratic_bound(system):
    # 1 - cos u <= u^2 / 2 gives 1 - |m_B(x)|^2 <= c |x|^2 for every x
    pair, x = system
    ev = FourierEval(pair)
    got = ev._mask_sq(x, np.zeros((1, pair.d)))[0, 0]
    assert got == pytest.approx(abs(mask_eval(pair, x)[0]) ** 2, abs=1e-12)
    assert 1 - got <= ev._curv * float(x[0] @ x[0]) + 1e-12


def test_mu_hat_sq_serves_xi_max_and_no_further():
    # the one depth cap serves every |xi| <= XI_MAX
    ev = FourierEval(affine_pair([[2]], [(0,), (1,)]))
    assert 0.0 <= ev.mu_hat_sq(XI_MAX) <= 1.0
    for xi in (1e15, -1e18):
        with pytest.raises(CapExceeded, match="mu_hat factors"):
            ev.mu_hat_sq(xi)
    swap = FourierEval(affine_pair([[0, 2], [1, 0]], [(0, 0), (1, 0)]))
    vals = swap.mu_hat_sq(np.array([(XI_MAX, 0.0), (0.0, -XI_MAX), (0.6 * XI_MAX, 0.8 * XI_MAX)]))
    assert np.all((0.0 <= vals) & (vals <= 1.0))
    with pytest.raises(CapExceeded, match="mu_hat factors"):
        swap.mu_hat_sq((0.0, 1e15))


@st.composite
def _table_systems(draw, max_d: int = 3):
    # lower triangular R with diagonal entries of modulus >= 2 is expansive
    d = draw(st.integers(1, max_d))
    diag = st.sampled_from([2, 3, 4, -2, -3])
    R = [[draw(diag) if i == j else draw(st.integers(-2, 2)) * (j < i) for j in range(d)] for i in range(d)]
    B = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * d), min_size=2, max_size=4, unique=True))
    rows = st.lists(st.tuples(*[st.floats(-8, 8)] * d), min_size=1, max_size=6)
    return affine_pair(R, B), np.array(draw(rows)), np.array(draw(rows))


@settings(max_examples=80, deadline=None)
@given(_table_systems())
def test_mu_hat_sq_table_is_the_flattened_outer_sum(system):
    # the table form takes the two sides through (R^T)^-j separately and
    # adds their phases by the cosine addition formula: same depth, and
    # values equal to rounding
    pair, U, V = system
    ev = FourierEval(pair)
    factors = _count_factors(ev)
    table = ev.mu_hat_sq(U, V)
    depth = len(factors)
    factors.clear()
    flat = ev.mu_hat_sq((U[:, None] + V[None]).reshape(-1, pair.d))
    assert len(factors) == depth
    assert table.shape == (len(U), len(V))
    assert np.max(np.abs(table - flat.reshape(table.shape))) <= 1e-13


@settings(max_examples=80, deadline=None)
@given(_table_systems(max_d=2))
def test_mu_hat_bounds_the_full_cap_modulus_from_above(system):
    # the dropped factors have modulus <= 1 and lose at most TAIL_TOL of
    # |mu_hat|^2, so the adaptive modulus sits just above the full-cap one
    pair, xs, _ = system
    ev = FourierEval(pair)
    got = ev.mu_hat(xs)
    full = np.abs(ev.mu_hat_truncated(xs, ev.max_depth))
    assert np.all(got >= full - 1e-15)
    assert np.all(got**2 - full**2 <= TAIL_TOL)


def test_mu_hat_sq_table_serves_xi_max_and_no_further():
    ev = FourierEval(affine_pair([[2]], [(0,), (1,)]))
    vals = ev.mu_hat_sq(np.array([[XI_MAX - 1.0]]), np.array([[0.0], [1.0]]))
    assert vals.shape == (1, 2) and np.all((0.0 <= vals) & (vals <= 1.0))
    for u, v in (([[1e15]], [[0.0], [1.0]]), ([[0.0]], [[1.0], [-1e15]])):
        with pytest.raises(CapExceeded, match="mu_hat factors"):
            ev.mu_hat_sq(np.array(u), np.array(v))
    swap = FourierEval(affine_pair([[0, 2], [1, 0]], [(0, 0), (1, 0)]))
    with pytest.raises(CapExceeded, match="mu_hat factors"):
        swap.mu_hat_sq(np.array([(0.0, 1e15)]), np.array([(0.0, 0.0), (1.0, 0.0)]))


def test_refinement_identity(jp_pair, skew_pair):
    ev = FourierEval(jp_pair)
    for xi in (0.3, 1.7, -2.5):
        assert refinement_identity_defect(ev, xi, 3) < 1e-9
    ev2 = FourierEval(skew_pair)
    for xi in ((0.2, 0.7), (-1.3, 0.4)):
        assert refinement_identity_defect(ev2, xi, 2) < 1e-9


def _fractions(dm):
    """Atoms and weights of an approximant as exact Fractions."""
    atoms = [tuple(Fraction(int(k), dm.den) for k in row) for row in dm.atoms]
    total = int(dm.counts.sum())
    return atoms, [Fraction(int(c), total) for c in dm.counts]


def test_discrete_approximant_atoms(jp_pair):
    dm = discrete_approximant(jp_pair, 2)
    atoms, weights = _fractions(dm)
    got = sorted(a[0] for a in atoms)
    assert got == [Fraction(0), Fraction(1, 8), Fraction(1, 2), Fraction(5, 8)]
    assert all(w == Fraction(1, 4) for w in weights)


def test_discrete_approximant_middle_third():
    pair = affine_pair([[3]], [(0,), (2,)])
    dm = discrete_approximant(pair, 2)
    got = sorted(a[0] for a in _fractions(dm)[0])
    assert got == [Fraction(0), Fraction(2, 9), Fraction(2, 3), Fraction(8, 9)]


def test_discrete_approximant_merges_collisions():
    # digits congruent mod R produce overlapping atoms; weights must merge
    pair = affine_pair([[2]], [(0,), (1,), (2,)])
    dm = discrete_approximant(pair, 2)
    _, weights = _fractions(dm)
    assert int(dm.counts.sum()) == 3**2  # one count per digit string
    assert sum(weights, Fraction(0)) == 1
    assert len(dm.atoms) == 7  # 9 digit strings, two pairs collide
    assert max(weights) == Fraction(2, 9)


def test_discrete_approximant_merges_every_level(monkeypatch):
    # (2, {0,1,2}) has 3^12 = 531,441 digit strings on 8,191 atoms; merging
    # after each level keeps every level within N times the previous atoms
    seen = []
    real = measure._merge_rows

    def spy(rows, counts):
        out = real(rows, counts)
        seen.append((len(rows), len(out[0])))
        return out

    monkeypatch.setattr(measure, "_merge_rows", spy)
    dm = discrete_approximant(affine_pair([[2]], [(0,), (1,), (2,)]), 12)
    assert (len(dm.atoms), dm.den, int(dm.counts.sum())) == (8191, 4096, 3**12)
    assert len(seen) == 12  # one merge per level
    prev = 1
    for rows, merged in seen:
        assert rows <= 3 * prev
        prev = merged
    assert max(rows for rows, _ in seen) < 3 * 8191


TOP = 2**63 - 1  # the largest int64; the cases below cross it as marked


@pytest.mark.parametrize(
    "R, B, depths",
    [
        ([[4]], [(0,), (2,)], (1, 3, 7)),
        ([[3]], [(0,), (2,)], (2, 5, 9)),
        ([[4, 0], [1, 2]], [(0, 0), (0, 3), (1, 0), (1, 3)], (1, 2, 4)),
        ([[2]], [(0,), (1,), (2,)], (1, 3, 6)),
        # sums reach 7 r + 7 = 2^63 - 1, then 2^63 + 6 with r one larger
        ([[TOP // 7 - 1]], [(0,), (7,)], (2,)),
        ([[TOP // 7]], [(0,), (7,)], (2,)),
        # 1 = r + 1 mod r, so sums merge; the largest, (r + 1)^2, crosses 2^63
        ([[3037000498]], [(0,), (1,), (3037000499,)], (2,)),
        ([[3037000499]], [(0,), (1,), (3037000500,)], (2,)),
        # the digits fit; the atoms s adj(R) b = (7 q, 0) cross alone
        ([[2, 0], [0, TOP // 7]], [(0, 0), (7, 0)], (1,)),
        ([[2, 0], [0, TOP // 7 + 1]], [(0, 0), (7, 0)], (1,)),
        # den = (2^27 + 1)^2 passes 2^53: points still round once
        ([[2**27 + 1]], [(0,), (1,)], (2,)),
    ],
    ids=[
        "jp", "mt", "skew", "colliding", "sums-2^63-1", "sums-past-2^63",
        "colliding-below-2^63", "colliding-past-2^63", "atoms-2^63-1",
        "atoms-past-2^63", "den-past-2^53",
    ],
)
def test_discrete_approximant_matches_fraction_oracle(R, B, depths):
    pair = affine_pair(R, B)
    for n in depths:
        dm = discrete_approximant(pair, n)
        atoms, weights = fraction_approximant(pair, n)
        assert _fractions(dm) == (atoms, weights)
        want_points = np.array([[float(c) for c in a] for a in atoms])
        want_weights = np.array([float(w) for w in weights])
        assert np.array_equal(dm.points, want_points)
        assert np.array_equal(dm.counts / pair.N**n, want_weights)


def test_attractor_boxes(jp_pair):
    lo, hi = attractor_box(affine_pair([[2]], [(0,), (1,)]))
    assert abs(lo[0]) < 1e-9 and abs(hi[0] - 1) < 1e-9
    lo, hi = attractor_box(affine_pair([[2]], [(0,), (2,)]))
    assert abs(lo[0]) < 1e-9 and abs(hi[0] - 2) < 1e-9
    lo, hi = attractor_box(jp_pair)
    assert lo[0] <= 0 and hi[0] >= 2 / 3 - 1e-12 and hi[0] < 2 / 3 + 1e-9


def test_step_moment_constant(jp_pair):
    norm_sq, val = step_moment(jp_pair, 1, [1, 1], 0.0)
    assert abs(norm_sq - 1.0) < 1e-12
    assert abs(val - 1.0) < 1e-12
    norm_sq, val = step_moment(jp_pair, 1, [1, 0], 0.0)
    assert abs(norm_sq - 0.5) < 1e-12
    assert abs(val - 0.5) < 1e-12


def test_step_moment_requires_simple_digits():
    pair = affine_pair([[2]], [(0,), (2,)])
    with pytest.raises(SimpleDigitsRequired):
        step_moment(pair, 1, [1, 1], 0.0)


def test_step_moment_matches_atom_sum(jp_pair):
    # oracle: evaluate the step function integral directly on the atoms
    rng = np.random.default_rng(5)
    n = 3
    w = rng.normal(size=8) + 1j * rng.normal(size=8)
    xi = 0.37
    norm_sq, val = step_moment(jp_pair, n, w, xi)
    dm = discrete_approximant(jp_pair, 9)
    # group depth-9 atoms by their depth-3 prefix cylinder
    pts = dm.points[:, 0]
    prefix = np.floor(pts * 4**n + 1e-12).astype(int)  # wrong for digit 2 spacing
    # safer oracle: rebuild from scratch with explicit digit strings
    import itertools

    total = 0.0 + 0j
    norm = 0.0
    for idx, digs in enumerate(itertools.product([0, 2], repeat=n)):
        base = sum(d * 4.0 ** (n - 1 - i) for i, d in enumerate(digs)) / 4.0**n
        # remaining mass within the cylinder: transform of deeper tail
        tail_pts = []
        for tail in itertools.product([0, 2], repeat=6):
            x = base + sum(t * 4.0 ** (-(n + 1 + i)) for i, t in enumerate(tail))
            tail_pts.append(x)
        tail_pts = np.array(tail_pts)
        cyl = np.exp(-2j * np.pi * xi * tail_pts).mean() / 2**n
        total += w[idx] * cyl
        norm += abs(w[idx]) ** 2 / 2**n
    assert abs(norm_sq - norm) < 1e-12
    assert abs(val - total) < 1e-3  # tail truncated at depth 9


def test_render_attractor_1d(tmp_path):
    pair = affine_pair([[2]], [(0,), (1,)])
    out = tmp_path / "full.pgm"
    stats = render_attractor(pair, 256, str(out), depth=10)
    assert stats["pixels_on"] == 256  # the unit interval fills every column
    header = out.read_bytes()[:15]
    assert header.startswith(b"P5\n256 1\n255")


def test_render_attractor_jp(tmp_path, jp_pair):
    out = tmp_path / "jp.pgm"
    # depth-10 atoms sit at least (4/3) * 4^-10 apart, so 2^20 columns separate them
    stats = render_attractor(jp_pair, 2**20, str(out), depth=10)
    assert stats["atoms"] == 1024
    assert stats["pixels_on"] == 1024


def test_render_skew(tmp_path, skew_pair):
    out = tmp_path / "skew.pgm"
    stats = render_attractor(skew_pair, 128, str(out), depth=5)
    assert stats["pixels_on"] > 100
    assert out.stat().st_size > 128 * 128


def test_render_field_and_errors(tmp_path, jp_pair):
    ev = FourierEval(jp_pair)
    field = mu_hat_field(ev, [-2.0], [2.0], 64)
    assert field.shape == (1, 64)
    render_field(field, str(tmp_path / "f.pgm"))
    with pytest.raises(InvalidInput):
        render_field(np.zeros((0, 0)), str(tmp_path / "g.pgm"))
    with pytest.raises(OSError):
        write_pgm(np.zeros((2, 2)), "/nonexistent-dir/x.pgm")
