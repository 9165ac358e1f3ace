"""Near-Parseval frame analysis for level-n character matrices.

The level-n matrix F_n has rows indexed by integer frequencies lambda and
columns by expanded digits b (level-n digit sums), entries
(1/sqrt(N^n)) exp(-2 pi i <R^{-n} b, lambda>).  Frequency towers of a
unitary digit/frequency pairing make F_n unitary; complete representative
rows make it a tight frame with bound (|det R|/N)^n; general subsets give
two-sided bounds read off the extreme squared singular values.  This
module computes those bounds from the Gram matrix of the shorter side,
selects well-conditioned frequency subsets (swap descent bounds every
candidate from one eigendecomposition per position and judges only the
possible winners exactly), multiplies per-level bounds into concatenated
ones, measures Parseval defects on random step functions, and assembles
frame spectra level by level with the same shift-correction machinery
used for orthonormal towers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    CapExceeded,
    EpsilonTooLarge,
    InvalidInput,
    ResidueCollision,
    SimpleDigitsRequired,
)
from .intlat import (
    IntMatrix,
    IVec,
    as_digit_list,
    character_phases,
    complete_representatives,
    inverse_image,
    is_simple_digit_set,
    residues_unique,
)
from .measure import FourierEval
from .spectra import _corrected_level, _require_empty, cover_constants
from .triples import AffinePair, HadamardTriple, digit_sums
from .zeroset import EmptinessEvidence

__all__ = [
    "frame_matrix",
    "frame_matrix_bounds",
    "residues_distinct",
    "FrameReport",
    "select_subset",
    "concatenated_bounds",
    "ParsevalStats",
    "parseval_defect",
    "FrameSpectrum",
    "frame_spectrum_build",
]


# ---------------------------------------------------------------------------
# singular value bounds

# matrix entries formed at a time by the blocked Gram; small next to a
# GRAM_SIDE-sized Gram, so the blocks add little to its peak
_BLOCK = 2**18
GRAM_SIDE = 4096  # largest Gram matrix side frame_matrix_bounds forms


def _characters(M: IntMatrix, rows, cols) -> np.ndarray:
    """exp(-2 pi i <M^{-1} c, l>), rows l over columns c, from the exact kernel."""
    P = -2j * np.pi * character_phases(M, rows, cols)
    return np.exp(P, out=P)


def frame_matrix(pair: AffinePair, n: int, J, cap: int = 2**20) -> np.ndarray:
    """The dense level-n matrix, frequency rows over digit columns."""
    sums = digit_sums(pair.R, pair.B, n, cap=cap)
    F = _characters(pair.R.pow(n), as_digit_list(J), sums)
    F /= math.sqrt(pair.N**n)
    return F


def frame_matrix_bounds(pair: AffinePair, n: int, J, cap: int = 2**26) -> tuple[float, float]:
    """Extreme squared singular values of the level-n matrix for rows J.

    With fewer rows than the N^n columns the rank is short, so sigma_min^2
    is exactly 0 and only sigma_max^2 is computed.  The Gram matrix of the
    shorter side (F F* for a wide matrix, F*F otherwise) is summed over
    blocks of the longer side and solved densely; a shorter side above
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
    wide = rows < Nn
    Rn = pair.R.pow(n)
    sums = digit_sums(pair.R, pair.B, n, cap=cap)
    K = np.zeros((side, side), dtype=complex)
    step = max(1, _BLOCK // side)
    for s in range(0, max(rows, Nn), step):
        if wide:
            P = _characters(Rn, freqs, sums[s : s + step])
            K += P @ P.conj().T
        else:
            P = _characters(Rn, freqs[s : s + step], sums)
            K += P.conj().T @ P
    K /= Nn
    w = np.linalg.eigvalsh(K)
    return (0.0 if wide else float(max(w[0], 0.0))), float(w[-1])


def residues_distinct(R, J, n: int) -> bool:
    """Whether the frequencies are pairwise distinct mod (R^T)^n Z^d."""
    M = (R if isinstance(R, IntMatrix) else IntMatrix.from_rows(R)).T.pow(n)
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
    strategy: str
    seed: int

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
    strategy: str = "leverage-swap",
    seed: int = 0,
    budget: int = 4,
    cap: int = 4096,
) -> FrameReport:
    """Pick N^n frequency rows from the complete representatives of (R^T)^n.

    "leverage-swap": each of ``budget`` seeded restarts draws an initial
    subset by row-leverage sampling and runs first-improvement swap descent
    on the bound ratio; the best subset over all restarts is kept, so the
    result can only improve as the budget grows.  Each descent step bounds
    every candidate swap from below (`_ratio_floors`) and judges only those
    that could beat the current ratio with `eigvalsh`, in the same order, so
    the path is the one full scoring takes.  "exhaustive" scores every
    subset (small candidate sets only).  Subsets are scored on row slices of
    the one candidate matrix; only the winner is measured by
    `frame_matrix_bounds`.  Deterministic for a fixed seed.
    """
    Nn = pair.N**n
    if Nn > cap:
        raise CapExceeded("subset target size", Nn, cap)
    cands = sorted(complete_representatives(pair.R.T.pow(n)))
    if Nn >= len(cands):
        return _measured_report(pair, n, cands, strategy, seed)
    if strategy not in ("exhaustive", "leverage-swap"):
        raise InvalidInput(f"unknown strategy {strategy!r}")

    F = frame_matrix(pair, n, cands)
    best = None  # (ratio, sorted candidate indices)
    if strategy == "exhaustive":
        total = math.comb(len(cands), Nn)
        if total > 2 * 10**4:
            raise CapExceeded("exhaustive subsets", total, 2 * 10**4)
        for sub in combinations(range(len(cands)), Nn):
            P = F[list(sub)]
            r = float(_ratios(P @ P.conj().T))
            if best is None or r < best[0] - 1e-12:
                best = (r, list(sub))
        return _measured_report(pair, n, [cands[i] for i in best[1]], strategy, seed)

    U, _, _ = np.linalg.svd(F, full_matrices=False)
    leverage = np.maximum((np.abs(U) ** 2).sum(axis=1), 1e-12)
    probs = leverage / leverage.sum()
    sq = np.einsum("ij,ij->i", F, F.conj()).real
    for restart in range(max(1, budget)):
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


# ---------------------------------------------------------------------------
# concatenation


def _epsilons(reports) -> list[float]:
    eps = []
    for rep in reports:
        e = rep.epsilon
        if e >= 1.0:
            raise EpsilonTooLarge(
                f"level n={rep.n} deviation {e:.3g} >= 1; no two-sided bound survives"
            )
        eps.append(e)
    return eps


def concatenated_bounds(reports) -> tuple[float, float]:
    """Products prod(1 - eps_j), prod(1 + eps_j) over the level reports."""
    eps = _epsilons(reports)
    c = 1.0
    C = 1.0
    for e in eps:
        c *= 1.0 - e
        C *= 1.0 + e
    return c, C


# ---------------------------------------------------------------------------
# Parseval defect on step functions


@dataclass(frozen=True)
class ParsevalStats:
    """Ratios sum_lam |<f, e_lam>|^2 / ||f||^2 over sampled step functions."""

    m: int
    lam_count: int
    trials: int
    minimum: float
    maximum: float
    mean: float
    ratios: tuple[float, ...]


def parseval_defect(
    pair: AffinePair,
    lam,
    m: int,
    trials: int = 50,
    seed: int = 0,
    cap: int = 2**20,
) -> ParsevalStats:
    """Energy ratios of random level-m step functions against frequencies lam.

    Moments use the exact cylinder formula: the transform of a level-m step
    function with weights w is (1/N^m) mu_hat((R^T)^{-m} xi) times the digit
    character sum, valid when cylinders do not overlap.  The first trial is
    the constant function, the rest draw complex Gaussian weights.
    """
    if not is_simple_digit_set(pair.R, pair.B):
        raise SimpleDigitsRequired("digits collide modulo R; cylinders overlap")
    freqs = as_digit_list(lam)
    if not freqs:
        raise InvalidInput("need at least one frequency")
    Nm = pair.N**m
    if Nm * len(freqs) > cap:
        raise CapExceeded("step moments", Nm * len(freqs), cap)
    ev = FourierEval(pair)
    Rm = pair.R.pow(m)
    sums = digit_sums(pair.R, pair.B, m, cap=cap)
    mu = np.atleast_1d(ev.mu_hat(inverse_image(Rm.T, freqs)))
    phases = _characters(Rm, freqs, sums).T
    scale = 1.0 / Nm
    rng = np.random.default_rng(seed)
    ratios = []
    for t in range(trials):
        if t == 0:
            w = np.ones(Nm, dtype=complex)
        else:
            w = rng.standard_normal(Nm) + 1j * rng.standard_normal(Nm)
        norm_sq = scale * float(np.sum(np.abs(w) ** 2))
        vals = scale * mu * (w @ phases)
        ratios.append(float(np.sum(np.abs(vals) ** 2)) / norm_sq)
    rt = tuple(ratios)
    return ParsevalStats(m, len(freqs), trials, min(rt), max(rt), float(np.mean(rt)), rt)


# ---------------------------------------------------------------------------
# frame spectrum assembly


@dataclass(frozen=True)
class FrameSpectrum:
    """A concatenated, shift-corrected frame frequency set with bounds."""

    pair: AffinePair
    reports: tuple[FrameReport, ...]
    exponents: tuple[int, ...]
    blocks: tuple[tuple[IVec, ...], ...]
    corrections: tuple[tuple[int, IVec, IVec], ...]
    points: tuple[IVec, ...]
    lower: float
    upper: float
    grade: str  # "certified" | "measured"
    evidence: EmptinessEvidence
    note: str = ""


def frame_spectrum_build(
    pair: AffinePair,
    reports,
    evidence: EmptinessEvidence | None = None,
    cap: int = 2**16,
) -> FrameSpectrum:
    """Concatenate per-level frequency sets into a corrected frame spectrum.

    Levels stack exactly like the orthonormal tower: level k contributes
    lambda + (R^T)^{m_{k-1}} j over the report's J set (when 0 is in J the
    old points persist and only the others are new), and each new point may
    be shifted by (R^T)^{m_k} kappa toward a position where |mu_hat|^2
    clears the cover threshold.  The cover certificate is built over the
    complete-representative dual tile, so it applies whether or not the
    digit set carries a unitary frequency pairing.  Requires the periodic
    zero set empty; returned bounds are
    (prod(1 - eps_j) * delta_hat, prod(1 + eps_j)), the delta_hat factor
    warranted because every new point clears delta_hat after correction.
    """
    reports = tuple(reports)
    if not reports:
        raise InvalidInput("need at least one level report")
    c_prod, C_prod = concatenated_bounds(reports)
    evidence = _require_empty(pair, evidence)
    d = pair.d
    Rt = pair.R.T
    lbar = tuple(tuple(v) for v in complete_representatives(Rt))
    dual = HadamardTriple(pair, lbar, 0.0, note="complete-representative dual tile")
    cover = cover_constants(dual)
    ev = FourierEval(pair)

    zero = (0,) * d
    exps = [0]
    blocks: list[tuple[IVec, ...]] = [(zero,)]
    corr_log: list[tuple[int, IVec, IVec]] = []
    current: list[IVec] = [zero]
    m = 0
    for k, rep in enumerate(reports, start=1):
        jset = [tuple(j) for j in rep.J_n]
        if len(current) * len(jset) > cap:
            raise CapExceeded("frame spectrum size", len(current) * len(jset), cap)
        fresh, fixes = _corrected_level(ev, cover, current, jset, m, m + rep.n, k)
        m += rep.n
        corr_log.extend(fixes)
        current = current + fresh if zero in jset else fresh
        if len(set(current)) != len(current):
            raise InvalidInput("level points collide; reports are inconsistent")
        blocks.append(tuple(fresh))
        exps.append(m)
    grade = "certified" if all(rep.epsilon <= 1e-10 for rep in reports) else "measured"
    return FrameSpectrum(
        pair,
        reports,
        tuple(exps),
        tuple(blocks),
        tuple(corr_log),
        tuple(current),
        float(c_prod * cover.delta_hat),
        float(C_prod),
        grade,
        evidence,
    )
