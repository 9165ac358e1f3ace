"""Near-Parseval frame analysis for level-n character matrices.

The level-n matrix F_n has rows indexed by integer frequencies lambda and
columns by expanded digits b (level-n digit sums), entries
(1/sqrt(N^n)) exp(-2 pi i <R^{-n} b, lambda>).  Frequency towers of a
unitary digit/frequency pairing make F_n unitary; complete representative
rows make it a tight frame with bound (|det R|/N)^n; general subsets give
two-sided bounds read off the extreme squared singular values.  This
module computes those bounds from the Gram matrix of the shorter side,
selects well-conditioned frequency subsets, multiplies per-level bounds into
concatenated ones, measures Parseval defects on random step functions,
tests the tile-interior separation condition by sampling, and assembles
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
    DigitsNotExtendable,
    EpsilonTooLarge,
    InvalidInput,
    SimpleDigitsRequired,
)
from .intlat import (
    IntMatrix,
    IVec,
    as_digit_list,
    canonical_residue,
    character_phases,
    complete_representatives,
    inverse_image,
    is_simple_digit_set,
    residues_unique,
)
from .measure import FourierEval, attractor_box
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
    "TsoscResult",
    "tsosc_check",
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
    rep = FrameReport(n, sub, lo, hi, ratio, strategy, seed)
    # identical rows force sigma_max^2 >= 2, so a conditioned set has
    # pairwise distinct residues; check the contrapositive exactly
    assert rep.sigma_max_sq >= 2 - 1e-9 or residues_distinct(pair.R, sub, n)
    return rep


def _ratios(G: np.ndarray) -> np.ndarray:
    """Bound ratios sigma_max^2 / sigma_min^2 of a stack of Gram matrices."""
    w = np.linalg.eigvalsh(G)
    lo, hi = np.maximum(w[..., 0], 0.0), w[..., -1]
    return np.divide(hi, lo, out=np.full_like(hi, np.inf), where=lo > 1e-15)


def _first_improving_swap(F: np.ndarray, current: list[int], ratio: float, sq: np.ndarray):
    """First (out, in) swap, in descent order, whose subset beats `ratio`.

    Subsets are scored by the rows-side Gram of their slice of F: swapping
    row p of the current Gram K_S for a candidate needs only that
    candidate's inner products with the current rows, so one product
    F F[S]* serves every swap.  Returns (sorted subset, its ratio) or None.
    """
    C = F @ F[current].conj().T
    KS = C[current]
    chosen = set(current)
    outside = np.array([i for i in range(len(F)) if i not in chosen])
    Nn = len(current)
    step = max(1, 2**20 // (Nn * Nn))
    for p, out in enumerate(current):
        for s in range(0, len(outside), step):
            inc = outside[s : s + step]
            G = np.repeat(KS[None], len(inc), axis=0)
            G[:, p, :] = C[inc]
            G[:, :, p] = C[inc].conj()
            G[:, p, p] = sq[inc]
            r = _ratios(G)
            hit = np.flatnonzero(r < ratio - 1e-12)
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
    result can only improve as the budget grows.  "exhaustive" scores every
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
# tile separation check


TSOSC_MARGIN = 4.0**-8  # distance a sample must keep from every other tile copy
TSOSC_DEPTH = 24  # deepest cell level of the descent
TSOSC_SEED = 0
TSOSC_BRANCHES = 64  # live branches one sample may keep


@dataclass(frozen=True)
class TsoscResult:
    """Sampled verdict on the tile-interior separation condition."""

    status: str  # "Holds" | "HoldsTrivially1D" | "Unknown"
    samples: int
    margin: float
    flagged: int
    note: str = ""


def tsosc_check(pair: AffinePair, samples: int = 20000, state_cap: int = 2 * 10**6) -> TsoscResult:
    """Test whether sampled attractor points avoid the tile boundary.

    The digits embed in a complete representative set B-bar (raising
    DigitsNotExtendable on a residue collision), whose attractor tiles
    space under integer translates.  A sampled point x is accepted when,
    for every nonzero nearby translate k, branch-and-bound descent proves
    dist(x - k, tile) > TSOSC_MARGIN: depth-i cells are enclosed exactly in
    boxes offset + R^{-i} box (componentwise halfwidth |R^{-i}| h), and a
    branch is pruned once its box sits farther than the margin from the
    sample.  Descent stops when cells shrink under the margin (at most
    TSOSC_DEPTH levels); any surviving branch, or a sample whose live
    branches exceed TSOSC_BRANCHES, flags that sample as a near-miss.
    Samples are drawn with seed TSOSC_SEED.  All points accepted gives "Holds"
    (a sampled verdict, not a proof); anything unresolved gives "Unknown".
    One dimension with digits inside {0, ..., R-1} is the classical
    trivial case.
    """
    R = pair.R
    d = pair.d
    margin = TSOSC_MARGIN
    if d == 1:
        r = R.rows[0][0]
        if r > 0 and all(0 <= b[0] < r for b in pair.B):
            return TsoscResult(
                "HoldsTrivially1D", 0, margin, 0, "digits lie in the unit tile"
            )
    by_res: dict[IVec, IVec] = {}
    for b in pair.B:
        res = canonical_residue(R, b)
        if res in by_res:
            raise DigitsNotExtendable(
                f"digits {by_res[res]} and {b} share a residue class mod R"
            )
        by_res[res] = b
    bbar = [by_res.get(tuple(rep), tuple(rep)) for rep in complete_representatives(R)]
    bbar_arr = np.array(bbar, dtype=float)
    Rinv = np.linalg.inv(R.to_array())
    lo, hi = attractor_box(AffinePair(R, tuple(bbar)))
    mid = (lo + hi) / 2.0
    half = (hi - lo) / 2.0

    rng = np.random.default_rng(TSOSC_SEED)
    src = pair.digit_array
    xs = np.zeros((samples, d))
    for _ in range(48):
        xs = (xs + src[rng.integers(0, len(src), size=samples)]) @ Rinv.T

    # stop once every cell box fits inside the margin ball
    eff_depth = TSOSC_DEPTH
    P = np.eye(d)
    for i in range(1, TSOSC_DEPTH + 1):
        P = P @ Rinv
        if 2 * float(np.linalg.norm(np.abs(P) @ half)) <= margin:
            eff_depth = i
            break

    # translates whose tile copy could come within margin of a sample
    axes = []
    for i in range(d):
        reach = math.ceil(hi[i] - lo[i] + 2 * margin)
        axes.append(np.arange(-reach, reach + 1))
    mesh = np.meshgrid(*axes, indexing="ij")
    ks = np.stack([m_.ravel() for m_ in mesh], axis=-1)
    ks = ks[np.any(ks != 0, axis=1)]

    def outside(y: np.ndarray, centers: np.ndarray, hw: np.ndarray) -> np.ndarray:
        gap = np.maximum(np.abs(y - centers) - hw, 0.0)
        return np.linalg.norm(gap, axis=1) > margin

    flagged = np.zeros(samples, dtype=bool)
    for k in ks:
        live = np.nonzero(~flagged)[0]
        if not len(live):
            break
        prune0 = outside(xs[live] - k, mid[None, :], half[None, :])
        idx = live[~prune0]
        offs = np.zeros((len(idx), d))
        P = np.eye(d)
        level = 0
        while len(idx) and level < eff_depth:
            P = P @ Rinv
            hw = (np.abs(P) @ half)[None, :]
            kids = bbar_arr @ P.T
            offs = (offs[:, None, :] + kids[None, :, :]).reshape(-1, d)
            idx = np.repeat(idx, len(bbar_arr))
            centers = offs + (P @ mid)[None, :]
            keep = ~outside(xs[idx] - k, centers, hw)
            offs, idx = offs[keep], idx[keep]
            if len(idx):
                counts = np.bincount(idx, minlength=samples)
                over = counts > TSOSC_BRANCHES
                if over.any():
                    flagged |= over
                    inside_budget = ~over[idx]
                    offs, idx = offs[inside_budget], idx[inside_budget]
            if len(idx) > state_cap:
                return TsoscResult(
                    "Unknown",
                    samples,
                    margin,
                    int(flagged.sum()),
                    "search frontier exceeded the state cap",
                )
            level += 1
        if len(idx):
            flagged[np.unique(idx)] = True
    nf = int(flagged.sum())
    if nf == 0:
        return TsoscResult(
            "Holds", samples, margin, 0, "all sampled points interior with margin"
        )
    return TsoscResult(
        "Unknown", samples, margin, nf, f"{nf} sampled points near a translate"
    )


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
