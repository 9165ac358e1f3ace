"""Frame bounds, tower rows of triples, subset selection, Parseval defects."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_fractal import frames
from spectral_fractal.errors import (
    CapExceeded,
    InvalidInput,
    NotHadamard,
    ResidueCollision,
)
from spectral_fractal.frames import (
    frame_matrix,
    frame_matrix_bounds,
    residues_distinct,
    select_subset,
    tower_frame,
)
from spectral_fractal.intlat import complete_representatives
from spectral_fractal.spectra import canonical_tree
from spectral_fractal.triples import affine_pair, digit_sums, hadamard_triple

from oracles import (
    SimpleDigitsRequired,
    exhaustive_subset,
    first_improving_swap_dense,
    frame_matrix_bounds_dense,
    parseval_defect,
    step_moment,
)


@pytest.fixture(scope="module")
def mt_subset2(cantor_third_pair):
    return select_subset(cantor_third_pair, 2)


# ---------------------------------------------------------------------------
# singular value bounds


def test_complete_representative_rows_are_tight(cantor_third_pair):
    # |det R| / N = 3/2 per level, exactly
    for n in range(1, 5):
        J = complete_representatives(cantor_third_pair.R.T.pow(n))
        lo, hi = frame_matrix_bounds(cantor_third_pair, n, J)
        assert abs(lo - 1.5**n) < 1e-9
        assert abs(hi - 1.5**n) < 1e-9


def test_tower_rows_are_unitary(jp_triple):
    for n in range(1, 5):
        Jn = digit_sums(jp_triple.R.T, jp_triple.L, n)
        lo, hi = frame_matrix_bounds(jp_triple.pair, n, Jn)
        assert max(1 - lo, hi - 1) <= 1e-10


def test_frame_matrix_level_one_unitary(jp_triple):
    F = frame_matrix(jp_triple.pair, 1, jp_triple.L)
    assert np.max(np.abs(F.conj().T @ F - np.eye(2))) < 1e-12


def test_colliding_rows_degenerate():
    pair = affine_pair(4, [0, 2])
    # 0 and 4 agree mod 4, so the two rows coincide
    lo, hi = frame_matrix_bounds(pair, 1, [(0,), (4,)])
    assert abs(lo) < 1e-9 and abs(hi - 2) < 1e-9
    assert not residues_distinct(pair.R, [(0,), (4,)], 1)
    assert residues_distinct(pair.R, [(0,), (3,)], 1)


def test_bounds_validation(cantor_third_pair):
    with pytest.raises(InvalidInput):
        frame_matrix_bounds(cantor_third_pair, 1, [])
    with pytest.raises(CapExceeded):
        frame_matrix_bounds(cantor_third_pair, 8, [(0,)] * 40, cap=100)


def test_bounds_refuse_a_gram_side_beyond_4096(cantor_third_pair):
    # 5000 rows against 2^13 = 8192 columns: both sides exceed the Gram cap
    rows = [(j,) for j in range(5000)]
    t0 = time.monotonic()
    with pytest.raises(CapExceeded, match="frame Gram side"):
        frame_matrix_bounds(cantor_third_pair, 13, rows)
    assert time.monotonic() - t0 < 1.0


SKEW_R = [[4, 0], [1, 2]]
SKEW_B = [(0, 0), (0, 3), (1, 0), (1, 3)]
SKEW_L = [(0, 0), (2, 0), (0, 1), (2, 1)]
SKEW = (SKEW_R, SKEW_B)
SKEW_TILTED = (SKEW_R, [(0, 0), (0, 3), (1, 0), (2, 3)])  # not symmetric


def _random_rows(pair, count: int, seed: int):
    rng = np.random.default_rng(seed)
    return [tuple(map(int, r)) for r in rng.integers(-500, 500, size=(count, pair.d))]


# (R, B), n, rows: a name and a function of the pair.  Symmetric digit sets
# (B = s - B) take the real product Gram, the others the complex one;
# N^k <= 64 groups levels by 6 for N = 2, by 3 for N = 3 and N = 4.
BOUNDS_CASES = {
    "jp-tower-square": ((4, [0, 2]), 4, lambda p: digit_sums([[4]], [0, 1], 4)),
    "jp-tower-wide": ((4, [0, 2]), 9, lambda p: digit_sums([[4]], [0, 1], 5)),
    "mt-square-two-groups": ((3, [0, 2]), 7, lambda p: _random_rows(p, 128, 1)),
    "mt-wide-two-groups": ((3, [0, 2]), 8, lambda p: _random_rows(p, 100, 2)),
    "mt-tall-representatives": ((3, [0, 2]), 3, lambda p: complete_representatives([[27]])),
    "nonsym-square": ((5, [0, 1, 3]), 4, lambda p: _random_rows(p, 81, 3)),
    "nonsym-wide": ((5, [0, 1, 3]), 4, lambda p: _random_rows(p, 40, 4)),
    "nonsym-tall": ((5, [0, 1, 3]), 2, lambda p: complete_representatives([[25]])),
    "skew-tower-3": (SKEW, 3, lambda p: digit_sums([[4, 1], [0, 2]], SKEW_L, 3)),
    "skew-tower-4": (SKEW, 4, lambda p: digit_sums([[4, 1], [0, 2]], SKEW_L, 4)),
    "skew-wide": (SKEW, 4, lambda p: _random_rows(p, 200, 5)),
    "skew-tilted-square": (SKEW_TILTED, 4, lambda p: _random_rows(p, 256, 6)),
    "skew-tilted-wide": (SKEW_TILTED, 3, lambda p: _random_rows(p, 30, 7)),
    "colliding-rows": ((4, [0, 2]), 1, lambda p: [(0,), (4,)]),
    "one-digit": ((3, [1]), 2, lambda p: [(5,)]),
    "level-zero": ((4, [0, 2]), 0, lambda p: [(0,)]),
}


@pytest.mark.parametrize("name", sorted(BOUNDS_CASES))
def test_bounds_match_the_dense_gram(name):
    RB, n, make_rows = BOUNDS_CASES[name]
    pair = affine_pair(*RB)
    J = make_rows(pair)
    lo, hi = frame_matrix_bounds(pair, n, J)
    want_lo, want_hi = frame_matrix_bounds_dense(pair, n, J)
    tol = 1e-12 * max(1.0, want_hi)
    assert abs(hi - want_hi) <= tol and abs(lo - want_lo) <= tol
    if len(J) < pair.N**n:  # short rank: exactly zero on both sides
        assert lo == want_lo == 0.0


# ---------------------------------------------------------------------------
# subset selection


def test_select_exhaustive_matches_all_pairs(cantor_third_pair):
    # every 2-of-3 subset at level one scores sigma^2 = (1/2, 3/2)
    from itertools import combinations

    for sub in combinations([(0,), (1,), (2,)], 2):
        lo, hi = frame_matrix_bounds(cantor_third_pair, 1, sub)
        assert abs(lo - 0.5) < 1e-9 and abs(hi - 1.5) < 1e-9
    rep = exhaustive_subset(cantor_third_pair, 1)
    assert rep.J_n == ((0,), (1,))
    assert abs(rep.ratio - 3.0) < 1e-9
    heur = select_subset(cantor_third_pair, 1)
    assert abs(heur.ratio - rep.ratio) < 1e-9


def test_select_heuristic_reaches_exhaustive_optimum(cantor_third_pair, mt_subset2):
    rex = exhaustive_subset(cantor_third_pair, 2)
    assert mt_subset2.ratio <= rex.ratio + 1e-6


def test_select_jp_level_two_perfect(jp_triple):
    rep = select_subset(jp_triple.pair, 2)
    assert rep.ratio <= 1 + 1e-9
    assert rep.epsilon <= 1e-10


def test_select_budget_monotone(cantor_third_pair):
    ratios = [select_subset(cantor_third_pair, 2, budget=b).ratio for b in (1, 2, 4)]
    assert ratios[0] + 1e-12 >= ratios[1] >= ratios[2] - 1e-12


def test_select_deterministic(jp_triple):
    a = select_subset(jp_triple.pair, 2, seed=7)
    b = select_subset(jp_triple.pair, 2, seed=7)
    assert a == b


def test_select_level_zero_singleton(jp_triple):
    rep = select_subset(jp_triple.pair, 0)
    assert rep.J_n == ((0,),)
    assert rep.ratio == 1.0


def test_selected_subsets_have_distinct_residues(jp_triple, cantor_third_pair, mt_subset2):
    for pair, rep in [
        (jp_triple.pair, select_subset(jp_triple.pair, 2)),
        (cantor_third_pair, mt_subset2),
    ]:
        if rep.sigma_max_sq < 2 - 1e-9:
            assert residues_distinct(pair.R, rep.J_n, rep.n)


def test_select_rejects_negative_seed_and_budget_below_one(jp_triple):
    # numpy's generator refuses a negative seed with a ValueError, and a
    # budget below one used to run a single restart unannounced
    for kwargs in ({"seed": -1}, {"budget": 0}, {"budget": -3}):
        with pytest.raises(InvalidInput):
            select_subset(jp_triple.pair, 2, **kwargs)


def test_measured_report_refuses_colliding_rows(monkeypatch):
    # 0 and 4 agree mod 4; bounds below 2 claim such rows are conditioned,
    # which the exact residue check must refuse (also under python -O)
    monkeypatch.setattr(frames, "frame_matrix_bounds", lambda pair, n, sub: (0.5, 1.5))
    with pytest.raises(ResidueCollision):
        frames._measured_report(affine_pair(4, [0, 2]), 1, [(0,), (4,)], "manual", 0)


# (R, B), n, seed: jp3 = (4, {0,2}, {0,3}) shares its pair with jp
SWAP_CASES = (
    [((3, [0, 2]), n, seed) for n in (3, 4) for seed in range(4)]
    + [((4, [0, 2]), n, 0) for n in (2, 3, 4)]
    + [((4, [0, 2]), 3, 1), ((9, [0, 3, 6]), 2, 0)]
)


@pytest.mark.parametrize(
    "RB,n,seed", SWAP_CASES, ids=[f"R{RB[0]}-B{len(RB[1])}-n{n}-s{seed}" for RB, n, seed in SWAP_CASES]
)
def test_bounded_swaps_match_dense_scoring(monkeypatch, RB, n, seed):
    pair = affine_pair(*RB)
    rep = select_subset(pair, n, seed=seed)
    monkeypatch.setattr(frames, "_first_improving_swap", first_improving_swap_dense)
    assert rep == select_subset(pair, n, seed=seed)


def test_single_digit_swaps_match_dense_scoring(monkeypatch):
    # one digit: every Gram is 1x1, and K_S without its only row is empty
    pair = affine_pair(3, [1])
    rep = select_subset(pair, 2)
    assert rep.ratio == 1.0
    monkeypatch.setattr(frames, "_first_improving_swap", first_improving_swap_dense)
    assert rep == select_subset(pair, 2)


def _near_singular_rows(seed: int, Nn: int, cols: int, gap: float) -> np.ndarray:
    """Unit rows; rows Nn..2Nn-1 copy row 0 up to `gap`, so a Gram holding
    row 0 and one of them has lambda_min near gap^2 (the 1e-15 floor of
    `_ratios` at gap ~ 3e-8)."""
    rng = np.random.default_rng(seed)
    shape = (3 * Nn, cols)
    F = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    noise = rng.standard_normal((Nn, cols)) + 1j * rng.standard_normal((Nn, cols))
    F[Nn : 2 * Nn] = F[0] + gap * noise
    return F / np.linalg.norm(F, axis=1, keepdims=True)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    Nn=st.integers(1, 9),
    extra=st.integers(-1, 2),
    gap=st.sampled_from([0.0, 1e-9, 1e-8, 3e-8, 1e-7, 1e-4, 1.0]),
)
def test_ratio_floors_never_exceed_eigvalsh(seed, Nn, extra, gap):
    F = _near_singular_rows(seed, Nn, max(1, Nn + extra), gap)
    sq = np.einsum("ij,ij->i", F, F.conj()).real
    current = list(range(Nn))
    C = F @ F[current].conj().T
    KS = C[current]
    outside = np.arange(Nn, len(F))
    for p in range(Nn):
        G = np.repeat(KS[None], len(outside), axis=0)
        G[:, p, :] = C[outside]
        G[:, :, p] = C[outside].conj()
        G[:, p, p] = sq[outside]
        floors = frames._ratio_floors(KS, C[outside], sq[outside], p)
        assert np.all(floors <= frames._ratios(G))
    # the first improving swap is the dense one, from a finite or an
    # infinite starting ratio
    start = float(frames._ratios(KS))
    for ratio in (start, float("inf")):
        got = frames._first_improving_swap(F, current, ratio, sq)
        assert got == first_improving_swap_dense(F, current, ratio, sq)


def test_bounds_keep_most_grams_from_eigvalsh(monkeypatch, cantor_third_pair):
    counts = {"bounded": 0, "judged": 0}
    floors, ratios = frames._ratio_floors, frames._ratios

    def count_floors(KS, rows, sq, p):
        counts["bounded"] += len(rows)
        return floors(KS, rows, sq, p)

    def count_ratios(G):
        counts["judged"] += len(G) if G.ndim == 3 else 1
        return ratios(G)

    monkeypatch.setattr(frames, "_ratio_floors", count_floors)
    monkeypatch.setattr(frames, "_ratios", count_ratios)
    select_subset(cantor_third_pair, 4, seed=0)
    # dense scoring judges every bounded candidate
    assert counts["judged"] < counts["bounded"] / 4


# ---------------------------------------------------------------------------
# Parseval defect


def test_parseval_jp_tower(jp_triple):
    tree = canonical_tree(jp_triple, 6)
    stats = parseval_defect(jp_triple.pair, tree.points, 3, trials=50, seed=1)
    assert stats.minimum >= 0.99
    assert stats.maximum <= 1 + 1e-6
    assert stats.minimum <= stats.mean <= stats.maximum
    # constant function captures the full mass through lambda = 0
    assert stats.ratios[0] >= 1 - 1e-9


def test_parseval_monotone_in_truncation(jp_triple):
    tree = canonical_tree(jp_triple, 6)
    prev = None
    for K in range(1, 7):
        s = parseval_defect(jp_triple.pair, tree.level_points(K), 3, trials=12, seed=3)
        if prev is not None:
            assert all(a >= b - 1e-12 for a, b in zip(s.ratios, prev))
        prev = s.ratios


def test_parseval_agrees_with_step_moments(jp_triple):
    # same ratio through the one-frequency-at-a-time moment helper
    pair = jp_triple.pair
    tree = canonical_tree(jp_triple, 4)
    stats = parseval_defect(pair, tree.points, 2, trials=2, seed=11)
    rng = np.random.default_rng(11)
    w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    total = 0.0
    for lam in tree.points:
        norm_sq, val = step_moment(pair, 2, w, np.array([float(lam[0])]))
        total += abs(val) ** 2
    assert abs(total / norm_sq - stats.ratios[1]) < 1e-12


def test_parseval_requires_simple_digits():
    with pytest.raises(SimpleDigitsRequired):
        parseval_defect(affine_pair(4, [0, 4]), [(0,)], 1)


# ---------------------------------------------------------------------------
# tower rows of a triple


@pytest.mark.parametrize(
    "R,B,L,top",
    [
        ([[4]], [0, 2], [0, 1], 8),  # jp
        ([[4]], [0, 2], [0, 3], 8),  # jp3
        (SKEW_R, SKEW_B, SKEW_L, 3),
    ],
    ids=["jp", "jp3", "skew"],
)
def test_tower_frame_rows_measure_parseval(R, B, L, top):
    # the certified (1, 1) agrees with the measured bounds of the same rows
    triple = hadamard_triple(R, B, L)
    for n in range(top + 1):
        rep = tower_frame(triple, n)
        assert (rep.sigma_min_sq, rep.sigma_max_sq, rep.ratio, rep.epsilon) == (1.0, 1.0, 1.0, 0.0)
        assert (rep.strategy, rep.seed) == ("tower", None)
        assert rep.J_n == tuple(sorted(rep.J_n)) and len(rep.J_n) == triple.N**n
        lo, hi = frame_matrix_bounds(triple.pair, n, rep.J_n)
        assert abs(lo - 1) <= 1e-12 and abs(hi - 1) <= 1e-12


def test_tower_frame_level_zero_is_the_origin(jp_triple, skew_triple):
    assert tower_frame(jp_triple, 0).J_n == ((0,),)
    assert tower_frame(skew_triple, 0).J_n == ((0, 0),)


def test_tower_frame_beats_the_search_on_jp(jp_triple):
    # the descent returns ratio 46.78 here after about 20 s
    t0 = time.monotonic()
    rep = tower_frame(jp_triple, 5)
    assert time.monotonic() - t0 < 1.0
    assert rep.J_n == tuple(sorted(map(tuple, digit_sums(4, [0, 1], 5).tolist())))


def test_tower_frame_refuses_non_hadamard():
    with pytest.raises(NotHadamard):
        tower_frame(hadamard_triple(4, [0, 2], [0, 2]), 1)


def test_tower_frame_keeps_the_row_cap(jp_triple):
    tower_frame(jp_triple, 12)  # 4096 rows
    with pytest.raises(CapExceeded):
        tower_frame(jp_triple, 13)
