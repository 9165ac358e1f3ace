"""Near-Parseval frame analysis for level-n character matrices.

The level-n matrix F_n has rows indexed by integer frequencies lambda and
columns by expanded digits b (level-n digit sums), entries
(1/sqrt(N^n)) exp(-2 pi i <R^{-n} b, lambda>).  Frequency towers of a
unitary digit/frequency pairing make F_n unitary; complete representative
rows make it a tight frame with bound (|det R|/N)^n; general subsets give
two-sided bounds read off the extreme squared singular values.

The `frames` command gives one answer per kind of input.  A Hadamard triple takes its
level-n tower rows L_n (`tower_frame`): by the tower lemma they are exactly
Parseval, so the triple's exact verdict certifies the bounds (1, 1) and no
Gram is formed.  A bare digit system has no such rows, and `select_subset`
searches the complete representatives of (R^T)^n for a well-conditioned
subset: swap descent bounds every candidate from one eigendecomposition per
position and judges only the possible winners exactly.

Bounds come from the rows-side Gram F F*, whose entry (l, l') is the
truncated mu_hat product prod_{j<=n} m_B((R^T)^{-j}(l - l')).  Taking the
levels in consecutive groups of k, levels a+1..a+k contribute N^{-k} P P*
with P the characters of R^(a+k) on the level-k digit sums, so F F* is the
entrywise product of small-width group Grams instead of one product over
all N^n columns.  When B = s - B for an integer vector s, centring each
group's digit sums at half their symmetry centre makes every group Gram
real (C C^T + S S^T from the cosines and sines of exact phases) without
moving an eigenvalue, and the solve is a real `eigvalsh`.  More rows than
columns (complete representatives only) take F*F, summed over row blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import sub

import numpy as np

from .errors import CapExceeded, InvalidInput, ResidueCollision
from .intlat import (
    IntMatrix,
    IVec,
    as_digit_list,
    character_phases,
    complete_representatives,
    residues_unique,
)
from .triples import AffinePair, HadamardTriple, digit_sums, tower

__all__ = [
    "frame_matrix",
    "frame_matrix_bounds",
    "residues_distinct",
    "FrameReport",
    "select_subset",
    "tower_frame",
]


# ---------------------------------------------------------------------------
# singular value bounds

# matrix entries formed at a time by the blocked Gram; small next to a
# GRAM_SIDE-sized Gram, so the blocks add little to its peak
_BLOCK = 2**18
GRAM_SIDE = 4096  # largest Gram matrix side frame_matrix_bounds forms
# digit sums per level group of the product Gram: groups of N^k <= 64
# columns; widths 16-64 timed alike on the jp level-10 tower rows
_GROUP_WIDTH = 64


def _characters(M: IntMatrix, rows, cols) -> np.ndarray:
    """exp(-2 pi i <M^{-1} c, l>), rows l over columns c, from the exact kernel."""
    P = -2j * np.pi * character_phases(M, rows, cols)
    return np.exp(P, out=P)


def frame_matrix(pair: AffinePair, n: int, J) -> np.ndarray:
    """The dense level-n matrix, frequency rows over digit columns."""
    sums = digit_sums(pair.R, pair.B, n)
    F = _characters(pair.R.pow(n), as_digit_list(J), sums)
    F /= math.sqrt(pair.N**n)
    return F


def _symmetry_centre(B) -> IVec | None:
    """The integer vector s with B = s - B, or None when there is none.

    Summing over B gives s = 2 mean(B), so one candidate is tested exactly.
    """
    twice = [2 * sum(c) for c in zip(*B)]
    if any(t % len(B) for t in twice):
        return None
    s = tuple(t // len(B) for t in twice)
    return s if sorted(tuple(map(sub, s, b)) for b in B) == sorted(B) else None


def _group_gram(pair: AffinePair, m: int, k: int, freqs, centre) -> np.ndarray:
    """P P* for P the characters of R^m on B_k: N^k times the mask factors
    of levels m-k+1..m.

    With B = s - B, the sums centred at c_k = (1/2) sum_{i<k} R^i s are
    symmetric about 0, so the imaginary parts cancel and the Gram is
    C C^T + S S^T, C and S the cosine and sine of the exact phases
    <(2R^m)^{-1}(2b - 2c_k), l>.  Centring is a diagonal unitary
    similarity, so it moves no eigenvalue.
    """
    if centre is None:
        P = _characters(pair.R.pow(m), freqs, digit_sums(pair.R, pair.B, k))
        return P @ P.conj().T
    # 2b - 2c_k are the level-k sums of the doubled, centred digits 2b - s
    cols = digit_sums(pair.R, [tuple(2 * x - y for x, y in zip(b, centre)) for b in pair.B], k)
    twice = [[2 * x for x in row] for row in pair.R.pow(m).rows]
    theta = 2 * np.pi * character_phases(twice, freqs, cols)
    X = np.concatenate((np.cos(theta), np.sin(theta)), axis=1)
    return X @ X.T


def frame_matrix_bounds(pair: AffinePair, n: int, J, cap: int = 2**26) -> tuple[float, float]:
    """Extreme squared singular values of the level-n matrix F for rows J.

    With rows <= N^n the rows-side Gram F F* is formed from the product
    structure of mu_hat: entry (l, l') is prod_{j<=n} m_B((R^T)^{-j}(l - l')),
    so with the levels taken in consecutive groups of k (N^k near
    _GROUP_WIDTH), F F* is N^{-n} times the entrywise product of the group
    Grams of `_group_gram`.  A symmetric digit set (B = s - B) gives real
    group Grams, so the solve is a real `eigvalsh`.  With fewer rows than
    columns the rank is short, so sigma_min^2 is exactly 0.  More rows than
    columns take F* F, summed over blocks of rows.  A shorter side above
    GRAM_SIDE raises CapExceeded before any character is formed.  Phases
    come from the exact character kernel.
    """
    freqs = as_digit_list(J)
    if not freqs:
        raise InvalidInput("need at least one frequency row")
    Nn = pair.N**n
    rows = len(freqs)
    if Nn * rows > cap:
        raise CapExceeded("frame matrix work", Nn * rows, cap)
    side = min(rows, Nn)
    if side > GRAM_SIDE:
        raise CapExceeded("frame Gram side", side, GRAM_SIDE)
    if rows <= Nn:
        k = 1
        while k < n and pair.N ** (k + 1) <= _GROUP_WIDTH:
            k += 1
        centre = _symmetry_centre(pair.B)
        K = np.ones((rows, rows), dtype=complex if centre is None else float)
        for a in range(0, n, k):
            m = min(a + k, n)
            K *= _group_gram(pair, m, m - a, freqs, centre)
        K /= Nn
        w = np.linalg.eigvalsh(K)
        return (0.0 if rows < Nn else float(max(w[0], 0.0))), float(w[-1])
    Rn = pair.R.pow(n)
    sums = digit_sums(pair.R, pair.B, n, cap=cap)
    K = np.zeros((Nn, Nn), dtype=complex)
    step = max(1, _BLOCK // Nn)
    for s in range(0, rows, step):
        P = _characters(Rn, freqs[s : s + step], sums)
        K += P.conj().T @ P
    K /= Nn
    w = np.linalg.eigvalsh(K)
    return float(max(w[0], 0.0)), float(w[-1])


def residues_distinct(R, J, n: int) -> bool:
    """Whether the frequencies are pairwise distinct mod (R^T)^n Z^d."""
    M = IntMatrix.from_rows(R).T.pow(n)
    return residues_unique(M, as_digit_list(J))


# ---------------------------------------------------------------------------
# subset selection


@dataclass(frozen=True)
class FrameReport:
    """A selected frequency set and its measured frame bounds."""

    n: int
    J_n: tuple[IVec, ...]
    sigma_min_sq: float
    sigma_max_sq: float
    ratio: float
    strategy: str  # "tower" or "leverage-swap": the path that chose J_n
    seed: int | None  # None on the tower path, which draws nothing

    @property
    def epsilon(self) -> float:
        """Two-sided deviation from a Parseval frame."""
        return max(1.0 - self.sigma_min_sq, self.sigma_max_sq - 1.0)


def _measured_report(pair: AffinePair, n: int, sub, strategy: str, seed: int) -> FrameReport:
    sub = tuple(sorted(as_digit_list(sub)))
    lo, hi = frame_matrix_bounds(pair, n, sub)
    ratio = hi / lo if lo > 1e-15 else float("inf")
    # identical rows force sigma_max^2 >= 2, so a conditioned set has
    # pairwise distinct residues; check the contrapositive exactly
    if hi < 2 - 1e-9 and not residues_distinct(pair.R, sub, n):
        raise ResidueCollision(f"level {n} rows share a residue yet sigma_max^2 = {hi:.6g} < 2")
    return FrameReport(n, sub, lo, hi, ratio, strategy, seed)


def _ratios(G: np.ndarray) -> np.ndarray:
    """Bound ratios sigma_max^2 / sigma_min^2 of a stack of Gram matrices."""
    w = np.linalg.eigvalsh(G)
    lo, hi = np.maximum(w[..., 0], 0.0), w[..., -1]
    return np.divide(hi, lo, out=np.full_like(hi, np.inf), where=lo > 1e-15)


def _secular_newton(mu, lam, w, s):
    """Four Newton steps on f(mu) = mu - s - sum_i w_i / (mu - lam_i), outside [lam_0, lam_-1].

    Below lam_0 f is increasing and convex, above lam_-1 increasing and
    concave, so an iterate started between the root and the nearer pole
    moves toward that root without crossing it.  Entries of `mu` that sit
    on a pole are left as they are.
    """
    valid = (mu < lam[0]) | (mu > lam[-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(4):  # further steps saved no time on (3, {0,2}) at n = 4
            r = 1.0 / (mu[..., None] - lam)
            q = w * r
            nxt = mu - (mu - s - q.sum(axis=-1)) / (1.0 + (q * r).sum(axis=-1))
            mu = np.where(valid & np.isfinite(nxt), nxt, mu)
    return mu


def _ratio_floors(KS: np.ndarray, rows: np.ndarray, sq: np.ndarray, p: int) -> np.ndarray:
    """Lower bounds on `_ratios` of K_S with row and column p set to each of `rows`.

    With K_{-p} = V diag(lam) V* (K_S without row and column p), the
    candidate Gram is unitarily similar to the bordered matrix
    [[diag(lam), z], [z*, s]], z = V* (its inner products with the kept
    rows), s its squared norm.  The 2x2 compressions onto {v_min, e_p} and
    {v_max, e_p} bound lambda_min from above and lambda_max from below
    (Cauchy interlacing); Newton steps on Golub's secular equation tighten
    both from the safe side.  Both bounds are then widened by the eigenvalue
    backward error Nn * eps * ||G||_2 (Weyl: ||G||_2 <= max(lam_max, s) +
    ||z||), counted once for `eigvalsh` on G, once for `eigh` on K_{-p} and
    twice for the arithmetic of the bound, so a candidate whose floor
    clears a threshold cannot pass it under `_ratios` either.
    """
    if len(KS) == 1:  # each candidate Gram is [[s]], its own floor
        return _ratios(sq[:, None, None])
    keep = np.arange(len(KS)) != p
    lam, V = np.linalg.eigh(KS[keep][:, keep])
    w = np.abs(rows[:, keep] @ V) ** 2  # |z_i|^2
    ends = lam[[0, -1], None]
    rad = np.sqrt((0.5 * (ends - sq)) ** 2 + w[:, [0, -1]].T)
    bot, top = _secular_newton(0.5 * (ends + sq) + [[-1.0], [1.0]] * rad, lam, w, sq)
    norm = np.maximum(lam[-1], sq) + np.sqrt(w.sum(axis=1))
    slack = 4 * len(KS) * np.finfo(float).eps * norm
    lo, hi = bot + slack, np.maximum(top - slack, 0.0)
    return np.divide(hi, lo, out=np.full_like(hi, np.inf), where=lo > 1e-15)


def _first_improving_swap(F: np.ndarray, current: list[int], ratio: float, sq: np.ndarray):
    """First (out, in) swap, in descent order, whose subset beats `ratio`.

    Subsets are scored by the rows-side Gram of their slice of F: swapping
    row p of the current Gram K_S for a candidate needs only that
    candidate's inner products with the current rows, so one product
    F F[S]* serves every swap.  Each position is first bounded from one
    eigendecomposition (`_ratio_floors`); only candidates whose floor lies
    below the target are judged by `_ratios`, in the same order, so the
    first improving swap is the one full scoring would find.  Returns
    (sorted subset, its ratio) or None.
    """
    C = F @ F[current].conj().T
    KS = C[current]
    chosen = set(current)
    outside = np.array([i for i in range(len(F)) if i not in chosen])
    Nn = len(current)
    step = max(1, 2**20 // (Nn * Nn))
    target = ratio - 1e-12
    rows, row_sq = C[outside], sq[outside]
    for p, out in enumerate(current):
        alive = outside[_ratio_floors(KS, rows, row_sq, p) < target]
        s, size = 0, 4  # chunks double: a hit near the front costs a small batch
        while s < len(alive):
            inc = alive[s : s + size]
            s, size = s + size, min(2 * size, step)
            G = np.repeat(KS[None], len(inc), axis=0)
            G[:, p, :] = C[inc]
            G[:, :, p] = C[inc].conj()
            G[:, p, p] = sq[inc]
            r = _ratios(G)
            hit = np.flatnonzero(r < target)
            if hit.size:
                return sorted(chosen - {out} | {int(inc[hit[0]])}), float(r[hit[0]])
    return None


def select_subset(
    pair: AffinePair,
    n: int,
    seed: int = 0,
    budget: int = 4,
) -> FrameReport:
    """Pick N^n frequency rows from the complete representatives of (R^T)^n.

    Each of ``budget`` seeded restarts draws an initial subset by
    row-leverage sampling and runs first-improvement swap descent on the
    bound ratio; the best subset over all restarts is kept, so the result
    can only improve as the budget grows.  Each descent step bounds every
    candidate swap from below (`_ratio_floors`) and judges only those that
    could beat the current ratio with `eigvalsh`, in the same order, so the
    path is the one full scoring takes.  Subsets are scored on row slices
    of the one candidate matrix; only the winner is measured by
    `frame_matrix_bounds`.  Deterministic for a fixed seed >= 0.
    """
    if seed < 0:
        raise InvalidInput(f"seed must be >= 0, got {seed}")
    if budget < 1:
        raise InvalidInput(f"budget must be >= 1, got {budget}")
    Nn = pair.N**n
    if Nn > GRAM_SIDE:
        raise CapExceeded("subset target size", Nn, GRAM_SIDE)
    strategy = "leverage-swap"
    cands = sorted(complete_representatives(pair.R.T.pow(n)))
    if Nn >= len(cands):
        return _measured_report(pair, n, cands, strategy, seed)

    F = frame_matrix(pair, n, cands)
    best = None  # (ratio, sorted candidate indices)
    U, _, _ = np.linalg.svd(F, full_matrices=False)
    leverage = np.maximum((np.abs(U) ** 2).sum(axis=1), 1e-12)
    probs = leverage / leverage.sum()
    sq = np.einsum("ij,ij->i", F, F.conj()).real
    for restart in range(budget):
        rng = np.random.default_rng((seed, restart))
        current = sorted(rng.choice(len(cands), size=Nn, replace=False, p=probs).tolist())
        P = F[current]
        ratio = float(_ratios(P @ P.conj().T))
        for _ in range(200):
            swap = _first_improving_swap(F, current, ratio, sq)
            if swap is None:
                break
            current, ratio = swap
        if best is None or ratio < best[0] - 1e-12:
            best = (ratio, current)
    return _measured_report(pair, n, [cands[i] for i in best[1]], strategy, seed)


def tower_frame(triple: HadamardTriple, n: int) -> FrameReport:
    """The sorted level-n tower rows L_n of a validated triple, bounds (1, 1).

    By the tower lemma (R^n, B_n, L_n) is a Hadamard triple, so the level-n
    matrix on the rows L_n is unitary: the triple's exact verdict certifies
    sigma_min^2 = sigma_max^2 = 1, and no Gram is formed.  An unvalidated
    triple raises NotHadamard.  More than GRAM_SIDE rows raise CapExceeded,
    as `select_subset` caps its target size, so `frame_matrix_bounds` can
    still measure every J reported here.
    """
    triple.require_validated()
    if triple.N**n > GRAM_SIDE:
        raise CapExceeded("tower frame rows", triple.N**n, GRAM_SIDE)
    # level 0 is the single row 0, and has no tower system (R^0 is not expansive)
    rows = tuple(sorted(tower(triple, n).L)) if n else ((0,) * triple.pair.d,)
    return FrameReport(n, rows, 1.0, 1.0, 1.0, "tower", None)
