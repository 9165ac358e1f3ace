"""Test-side helpers: constructions and identities the tests check the
package against.  None of them is called by the package itself."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

import numpy as np

from spectral_fractal.errors import (
    CapExceeded,
    InvalidInput,
    NoShiftFound,
    RankDeficient,
    ResidueCollision,
    SizeMismatch,
    SpectralFractalError,
)
from spectral_fractal.frames import (
    _BLOCK,
    GRAM_SIDE,
    _characters,
    _measured_report,
    _ratios,
    frame_matrix,
)
from spectral_fractal.intlat import (
    ConjugationRecord,
    IntMatrix,
    Lattice,
    adjugate,
    as_digit_list,
    canonical_residue,
    complete_representatives,
    inverse_image,
    is_simple_digit_set,
    poly_divmod,
)
from spectral_fractal.measure import FourierEval
from spectral_fractal.triples import (
    NUMERIC_ZERO,
    _xi_grid,
    digit_sums,
    hadamard_matrix,
    mask_eval,
    validate_triple,
)
from spectral_fractal import zeroset
from spectral_fractal.zeroset import OUT_FLOOR, ZeroCertificate, _window


class SimpleDigitsRequired(SpectralFractalError):
    """Digits collide modulo the matrix, so the requested object is undefined."""


# ---------------------------------------------------------------------------
# Gauss-Jordan and Euclid over Fractions, the references for the integer algebra


def f_inverse(a) -> tuple[tuple[Fraction, ...], ...]:
    """Gauss-Jordan inverse of a square Fraction matrix."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise RankDeficient("matrix is singular")
        m[col], m[piv] = m[piv], m[col]
        p = m[col][col]
        m[col] = [x / p for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


def f_identity(d: int) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d))


def f_matvec(a, v) -> tuple[Fraction, ...]:
    if len(a[0]) != len(v):
        raise SizeMismatch("rational matvec length mismatch")
    return tuple(sum((row[j] * Fraction(v[j]) for j in range(len(v))), Fraction(0)) for row in a)


def to_fractions(M: IntMatrix) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(x) for x in row) for row in M.rows)


def inverse_fractions(M: IntMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """adj(M) / det M, from the package's cached adjugate."""
    adj, det = adjugate(M)
    if det == 0:
        raise RankDeficient("matrix is singular")
    return tuple(tuple(Fraction(x, det) for x in row) for row in adj.rows)


def euclid_reciprocal_root_pair(p) -> bool:
    """p shares a root with its reversal: their gcd over Q, by the Euclidean
    algorithm in Fractions, is not constant."""

    def strip(c):
        c = [Fraction(x) for x in c]
        while c and c[0] == 0:
            c.pop(0)
        return c

    a, b = strip(p), strip(reversed(p))
    while b:
        for i in range(len(a) - len(b) + 1):
            q = a[i] / b[0]
            for j in range(len(b)):
                a[i + j] -= q * b[j]
        a, b = b, strip(a)
    return len(a) > 1


# ---------------------------------------------------------------------------
# lattices


def lattice_eq(a: Lattice, b: Lattice) -> bool:
    return a.dim == b.dim and a.cols == b.cols


def identity_record(d: int) -> ConjugationRecord:
    return ConjugationRecord(IntMatrix.identity(d), "identity")


def lattice_contains(lat: Lattice, v) -> bool:
    """Exact membership of the rational vector v in the lattice, by forward
    substitution along the pivot rows of its echelon basis."""
    v = [Fraction(x) for x in v]
    if len(v) != lat.dim:
        raise SizeMismatch("vector length does not match lattice dimension")
    if any(x.denominator != 1 for x in v):
        return False
    w = [int(x) for x in v]
    for col in lat.cols:
        i = next(i for i in range(lat.dim) if col[i] != 0)
        q, r = divmod(w[i], col[i])
        if r != 0:
            return False
        for t in range(lat.dim):
            w[t] -= q * col[t]
    return all(x == 0 for x in w)


def is_unimodular(record: ConjugationRecord) -> bool:
    """The forward move of the record is an integer matrix of determinant +-1."""
    if any(x.denominator != 1 for row in record.forward for x in row):
        return False
    return IntMatrix.from_rows([[int(x) for x in row] for row in record.forward]).det() in (1, -1)


# ---------------------------------------------------------------------------
# digit systems


def lift_digits(J, R, n: int, shifts) -> tuple[tuple[int, ...], ...]:
    """Shift each frequency j by (R^T)^n k_j, one shift per frequency; the
    frequencies must be pairwise distinct mod (R^T)^n, and stay so."""
    Rt_n = IntMatrix.from_rows(R).T.pow(n)
    freqs = as_digit_list(J)
    if len({canonical_residue(Rt_n, j) for j in freqs}) != len(freqs):
        raise ResidueCollision("frequencies collide modulo (R^T)^n")
    shifts = list(shifts)
    if len(shifts) != len(freqs):
        raise SizeMismatch("one shift per frequency required")
    return tuple(
        tuple(a + b for a, b in zip(j, Rt_n.matvec(tuple(int(x) for x in s))))
        for j, s in zip(freqs, shifts)
    )


def _mask(digits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(1/N) sum_b exp(-2 pi i <b, y>) over the last axis of y."""
    return np.exp(-2j * np.pi * (y @ digits.T)).mean(axis=-1)


def transfer_partition_check(triple, grid) -> float:
    """Max deviation of sum_l |m_B((R^T)^{-1}(x + l))|^2 from 1 over the grid.

    For a valid system this is an identity, so the value is float noise;
    large values flag a broken L.
    """
    d = triple.R.d
    x = np.asarray(grid, dtype=float)
    if d == 1 and x.shape[-1:] != (1,):
        x = x[..., None]
    digits = np.array(triple.B, dtype=float)
    inv_t = np.linalg.inv(np.array(triple.R.rows, dtype=float).T)
    total = sum(
        np.abs(_mask(digits, (x + np.array(l, dtype=float)) @ inv_t.T)) ** 2 for l in triple.L
    )
    return float(np.max(np.abs(total - 1.0)))


def dense_tower_defect(triple, k: int) -> float:
    """max |H*H - I| of the level-k tower's unitary, formed in full: the
    cross-check of the tower lemma that `tower` relies on."""
    Bk = digit_sums(triple.R, triple.B, k).tolist()
    Lk = digit_sums(triple.R.T, triple.L, k).tolist()
    H = hadamard_matrix(triple.R.pow(k), Bk, Lk)
    return float(np.max(np.abs(H.conj().T @ H - np.eye(len(Bk)))))


def search_frequency_digits_1d(R: int, B) -> list[tuple[tuple[int, ...], ...]]:
    """Every frequency set {0} + (N - 1) values in [1, |R|) that validates."""
    digs = as_digit_list(B)
    found = []
    for combo in itertools.combinations(range(1, abs(int(R))), len(digs) - 1):
        L = ((0,),) + tuple((c,) for c in combo)
        if validate_triple([[R]], digs, L)[0]:
            found.append(L)
    return found


def python_digit_sums(R, B, n: int) -> list[tuple[int, ...]]:
    """The level-n digit sums in `digit_sums` order, one Python-int tuple
    at a time."""
    M = IntMatrix.from_rows(R)
    sums = [(0,) * M.d]
    for _ in range(n):
        sums = [tuple(x + y for x, y in zip(M.matvec(v), b)) for v in sums for b in as_digit_list(B)]
    return sums


# ---------------------------------------------------------------------------
# discrete approximants


def fraction_approximant(pair, n: int):
    """Reference atoms R^{-n} b and weights of the depth-n approximant.

    The digit sums are built one tuple at a time and every atom is a tuple of
    Fractions; equal atoms are merged in a dict.  Returns (atoms, weights),
    both sorted by atom.
    """
    R = pair.R
    inv = inverse_fractions(R.pow(n))
    sums = [(0,) * pair.d]
    for _ in range(n):
        sums = [tuple(x + y for x, y in zip(R.matvec(v), b)) for v in sums for b in pair.B]
    counts: dict = {}
    for b in sums:
        atom = tuple(sum((a * c for a, c in zip(row, b)), Fraction(0)) for row in inv)
        counts[atom] = counts.get(atom, 0) + 1
    items = sorted(counts.items())
    w = Fraction(1, pair.N**n)
    return [a for a, _ in items], [c * w for _, c in items]


def discrete_fourier_atoms(dm, xi):
    """The approximant's transform as the weighted sum over its atoms,
    sum_i (counts[i] / N^n) exp(-2 pi i <xi, points[i]>); a scalar gives a
    scalar.  Atom chunks keep about 2^20 phase entries alive at a time."""
    d = dm.atoms.shape[1]
    arr, scalar = _xi_grid(d, xi)
    flat = arr.reshape(-1, d)
    weights = dm.counts / dm.pair.N**dm.n
    step = max(1, 2**20 // max(1, len(flat)))
    vals = sum(
        np.exp(-2j * np.pi * (flat @ dm.points[s : s + step].T)) @ weights[s : s + step]
        for s in range(0, len(dm.atoms), step)
    )
    vals = vals.reshape(arr.shape[:-1])
    return vals[0] if scalar else vals


# ---------------------------------------------------------------------------
# transform identities


def refinement_identity_defect(ev: FourierEval, xi, n: int) -> float:
    """|mu_hat(xi) - m_n((R^T)^{-n} xi) mu_hat((R^T)^{-n} xi)|, max over xi.

    The level-n mask m_n is summed directly over the N^n digit expansions
    sum_i R^(n-i) c_i, enumerated here, so the product is checked against
    the convolution structure of the measure.
    """
    pair = ev.pair
    d = pair.d
    x = np.asarray(xi, dtype=float).reshape(-1, d)
    R = np.array(pair.R.rows, dtype=float)
    z = x @ np.linalg.matrix_power(np.linalg.inv(R), n)
    t2 = ev.depth_for(z)
    lhs = ev.mu_hat_truncated(x, n + t2)
    digits = np.array(pair.B, dtype=float)
    powers = [np.linalg.matrix_power(R, n - i) for i in range(1, n + 1)]
    level = np.array(
        [sum(P @ c for P, c in zip(powers, cs)) for cs in itertools.product(digits, repeat=n)]
    )
    rhs = _mask(level, z) * ev.mu_hat_truncated(z, t2)
    return float(np.max(np.abs(lhs - rhs)))


def delta_lower_bound(tree) -> float:
    """min over levels k of min_lambda |mu_hat((R^T)^(-n_k) lambda)|^2,
    rescaled here with correctly rounded exact inverses."""
    ev = FourierEval(tree.triple.pair)
    Rt = tree.triple.R.T
    out = []
    for k, n in enumerate(tree.exponents):
        M = to_fractions(Rt.pow(n))
        inv = f_inverse(M)
        x = np.array(
            [[float(sum((a * b for a, b in zip(row, p)), Fraction(0))) for row in inv]
             for p in tree.level_points(k)]
        )
        out.append(float((np.abs(ev.mu_hat(x)) ** 2).min()))
    return min(out)


# ---------------------------------------------------------------------------
# periodic zero set


def u_eval(pair, x):
    """Squared mask modulus; the transition weight in [0, 1]."""
    return np.abs(mask_eval(pair, x)) ** 2


def transition_weights(pair, x) -> list[tuple[tuple[int, ...], tuple, float]]:
    """(l, (R^T)^-1 (x + l), its u-weight) over the complete representatives
    l of R^T: the one-step inverse-branch moves of the transfer dynamics."""
    rt_inv = f_inverse(to_fractions(pair.R.T))
    out = []
    for ell in complete_representatives(pair.R.T):
        tgt = f_matvec(rt_inv, tuple(Fraction(c) + e for c, e in zip(x, ell)))
        out.append((tuple(ell), tgt, float(u_eval(pair, np.array([[float(c) for c in tgt]]))[0])))
    return out


@lru_cache(maxsize=None)
def cyclotomic(q: int) -> list[int]:
    """Phi_q as the Moebius product of the factors (x^e - 1)^mu(q/e), e | q.

    mu(q/e) is nonzero only for e = q / prod(S), S a set of distinct primes
    of q, where it is (-1)^|S|.  Each factor multiplies or exactly divides
    in one linear pass (lowest degree first here), multiplications first.
    Highest-degree coefficient first in the result.
    """
    primes = [p for p in range(2, q + 1) if q % p == 0 and all(p % r for r in range(2, p))]
    subsets = itertools.chain(*(itertools.combinations(primes, k) for k in range(len(primes) + 1)))
    p = [1]
    for odd, e in sorted((len(S) % 2, q // prod(S)) for S in subsets):
        if not odd:  # p (x^e - 1)
            p = [a - b for a, b in zip([0] * e + p, p + [0] * e)]
        else:  # p / (x^e - 1)
            p = [-c for c in p[: len(p) - e]]
            for i in range(e, len(p)):
                p[i] += p[i - e]
    return p[::-1]


def phi_division_vanishes(exps, q: int) -> bool:
    """The sum of zeta_q^e over exponents e in [0, q) is zero: Phi_q divides
    the polynomial with these exponent counts, by exact long division."""
    return not poly_divmod(np.bincount(exps)[::-1].tolist(), cyclotomic(q))[1]


def _frac_mask_zero(pair, ms, rho) -> tuple[bool, str]:
    """The mask zero test on a point of Fractions: reduced denominators of
    the coordinates (product digit sets), cyclotomic divisibility of the
    phase polynomial up to zeroset.GENERAL_CAP (read at call time, so a
    patched cap reaches both sides), the float sum beyond it."""
    if ms.product:
        return any((t % 1).denominator in o for t, o in zip(rho, ms.axis_orders)), "exact"
    exps = [sum((bi * ri for bi, ri in zip(b, rho)), Fraction(0)) % 1 for b in pair.B]
    den = 1
    for e in exps:
        den = den * e.denominator // gcd(den, e.denominator)
    if den <= zeroset.GENERAL_CAP:
        coeffs = [0] * den
        for e in exps:
            coeffs[int(e * den)] += 1
        poly = coeffs[::-1]
        while poly[0] == 0:
            poly.pop(0)
        return not poly_divmod(poly, cyclotomic(den))[1], "exact"
    val = abs(np.exp(-2j * np.pi * np.array([float(e) for e in exps])).sum()) / pair.N
    return val < NUMERIC_ZERO, "numeric"


def fraction_certify_zero(pair, ms, xi0, K: int, J: int = 30) -> ZeroCertificate:
    """certify_zero with every translate stepped through (R^T)^-1 in
    Fractions, one level at a time, under the mask structure ms."""
    point = tuple(Fraction(c) for c in xi0)
    rt_inv = f_inverse(to_fractions(pair.R.T))
    witnesses, unresolved, grade = [], [], "exact"
    for k in _window(K, pair.d):
        rho = tuple(c + kk for c, kk in zip(point, k))
        for j in range(1, J + 1):
            rho = f_matvec(rt_inv, rho)
            hit, g = _frac_mask_zero(pair, ms, rho)
            if hit:
                witnesses.append((k, j))
                grade = "numeric" if g == "numeric" else grade
                break
        else:
            shifted = np.array([float(c + kk) for c, kk in zip(point, k)])
            mod = float(FourierEval(pair).mu_hat(shifted))
            if mod > OUT_FLOOR:
                return ZeroCertificate(point, K, J, "out", tuple(witnesses), k, mod, "numeric")
            unresolved.append(k)
    if unresolved:
        return ZeroCertificate(
            point, K, J, "inconclusive", tuple(witnesses), None, 0.0, "numeric", tuple(unresolved)
        )
    return ZeroCertificate(point, K, J, "in", tuple(witnesses), None, 0.0, grade)


# ---------------------------------------------------------------------------
# frames


def exhaustive_subset(pair, n: int):
    """The best-ratio N^n rows among the complete representatives of
    (R^T)^n, every subset scored: the reference optimum for
    `select_subset`'s descent (small candidate sets only)."""
    Nn = pair.N**n
    cands = sorted(complete_representatives(pair.R.T.pow(n)))
    F = frame_matrix(pair, n, cands)
    best = None  # (ratio, candidate indices)
    for sub in itertools.combinations(range(len(cands)), Nn):
        P = F[list(sub)]
        r = float(_ratios(P @ P.conj().T))
        if best is None or r < best[0] - 1e-12:
            best = (r, list(sub))
    return _measured_report(pair, n, [cands[i] for i in best[1]], "exhaustive", 0)


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


def parseval_defect(pair, lam, m: int, trials: int = 50, seed: int = 0) -> ParsevalStats:
    """Energy ratios of random level-m step functions against frequencies lam.

    Moments use the exact cylinder formula: the transform of a level-m step
    function with weights w is (1/N^m) mu_hat((R^T)^{-m} xi) times the digit
    character sum, valid when cylinders do not overlap.  The first trial is
    the constant function, the rest draw complex Gaussian weights.
    """
    if not is_simple_digit_set(pair.R, pair.B):
        raise SimpleDigitsRequired("digits collide modulo R; cylinders overlap")
    freqs = as_digit_list(lam)
    Nm = pair.N**m
    Rm = pair.R.pow(m)
    sums = digit_sums(pair.R, pair.B, m)
    ev = FourierEval(pair)
    mu = np.atleast_1d(ev.mu_hat_truncated(inverse_image(Rm.T, freqs), ev.max_depth))
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


def step_moment(pair, n: int, w, xi) -> tuple[float, complex]:
    """L2 norm^2 and transform value of a level-n step function.

    The function takes value w_b on the cylinder of the expanded digit b (in
    `digit_sums` order).  Undefined when digits collide modulo R, hence the
    simplicity requirement.
    """
    if not is_simple_digit_set(pair.R, pair.B):
        raise SimpleDigitsRequired("digits collide modulo R; cylinders overlap")
    sums = digit_sums(pair.R, pair.B, n)
    wv = np.asarray(w, dtype=complex)
    if wv.shape != (len(sums),):
        raise SizeMismatch(f"need one weight per level-{n} digit ({len(sums)})")
    scale = 1.0 / pair.N**n
    norm_sq = float(scale * np.sum(np.abs(wv) ** 2))
    ev = FourierEval(pair)
    arr, _ = _xi_grid(pair.d, xi)
    if arr.shape[0] != 1:
        raise SizeMismatch("step_moment evaluates one frequency at a time")
    z = arr
    for _ in range(n):
        z = z @ ev._Rinv
    phases = inverse_image(pair.R.pow(n), sums) @ arr[0]
    coeff = complex(np.sum(wv * np.exp(-2j * np.pi * phases)))
    value = scale * complex(ev.mu_hat_truncated(z[0], ev.max_depth)) * coeff
    return norm_sq, value


def frame_matrix_bounds_dense(pair, n: int, J, cap: int = 2**26) -> tuple[float, float]:
    """`frames.frame_matrix_bounds` from the Gram of the shorter side of the
    level-n matrix (F F* when wide, F*F otherwise), summed over blocks of
    the longer side and solved as a complex Hermitian matrix."""
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


def first_improving_swap_dense(F: np.ndarray, current: list[int], ratio: float, sq: np.ndarray):
    """`frames._first_improving_swap` without the bounds: every candidate Gram
    is judged by `_ratios`, position by position."""
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


# ---------------------------------------------------------------------------
# spectrum trees


def corrected_level_per_base(ev: FourierEval, cover, current, J, m_prev: int, m_new: int, k: int):
    """The shift-corrected level, one mu_hat call per base that misses
    m_cover: each base is rescaled in floats and searched over its own
    window of translates.  Same contract as `spectra._corrected_level`."""
    Rt = ev.pair.R.T
    P_prev = Rt.pow(m_prev)
    steps = [P_prev.matvec(j) for j in J if any(j)]
    bases = [tuple(a + b for a, b in zip(lam, s)) for lam in current for s in steps]
    fresh = []
    corrections = []
    if not bases:
        return fresh, corrections
    shifts = [tuple(s) for s in _window(cover.window, ev.pair.d)]
    shift_arr = np.array(shifts, dtype=float)
    P_new = Rt.pow(m_new)
    Rt_inv = np.linalg.inv(Rt.to_array())
    x = np.array(bases, dtype=float) @ np.linalg.matrix_power(Rt_inv, m_new).T
    good = np.abs(ev.mu_hat(x)) ** 2 >= cover.m_cover - 1e-6
    for i, b in enumerate(bases):
        if good[i]:
            fresh.append(b)
            continue
        vals = np.abs(ev.mu_hat(x[i][None, :] + shift_arr)) ** 2
        best = int(np.argmax(vals))
        if vals[best] < cover.delta_hat - 1e-9:
            raise NoShiftFound(f"cover guarantee failed at level {k} (got {vals[best]:.3g})")
        kappa = shifts[best]
        if not any(kappa):
            fresh.append(b)
            continue
        corrections.append((k, b, kappa))
        fresh.append(tuple(a + c for a, c in zip(b, P_new.matvec(kappa))))
    return fresh, corrections


def corrected_level_per_point(ev: FourierEval, cover, current, J, m_prev: int, m_new: int, k: int):
    """The shift-corrected level with tuple bookkeeping: each base is built
    by one tuple comprehension and each kappa added by one `IntMatrix.matvec`.
    Same mu_hat_sq batches and contract as `spectra._corrected_level`."""
    Rt = ev.pair.R.T
    P_prev = Rt.pow(m_prev)
    steps = [P_prev.matvec(j) for j in J if any(j)]
    bases = [tuple(a + b for a, b in zip(lam, s)) for lam in current for s in steps]
    if not bases:
        return [], []
    P_new = Rt.pow(m_new)
    x = inverse_image(P_new, bases)
    good = ev.mu_hat_sq(x) >= cover.m_cover - 1e-6
    miss = np.flatnonzero(~good)
    best = {}
    if len(miss):
        shifts = _window(cover.window, ev.pair.d)
        pts = x[miss][:, None, :] + np.array(shifts, dtype=float)[None, :, :]
        vals = ev.mu_hat_sq(pts.reshape(-1, ev.pair.d)).reshape(len(miss), len(shifts))
        # the first translate in window order within 1e-12 of the best
        top = np.argmax(vals >= vals.max(axis=1, keepdims=True) - 1e-12, axis=1)
        got = vals[np.arange(len(miss)), top]
        failed = np.flatnonzero(got < cover.delta_hat - 1e-9)
        if len(failed):
            raise NoShiftFound(f"cover guarantee failed at level {k} (got {got[failed[0]]:.3g})")
        best = {int(i): shifts[t] for i, t in zip(miss, top) if any(shifts[t])}
    fresh = []
    corrections = []
    for i, b in enumerate(bases):
        kappa = best.get(i)
        if kappa is None:
            fresh.append(b)
            continue
        corrections.append((k, b, kappa))
        fresh.append(tuple(a + c for a, c in zip(b, P_new.matvec(kappa))))
    return fresh, corrections


def canonical_tree_blocks_per_point(triple, K: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The level blocks of `spectra.canonical_tree`, one Python-int tuple
    and one `IntMatrix.matvec` per point: level k adds lambda + (R^T)^(k-1) l
    for every earlier point lambda and nonzero l, lambda-major."""
    L = triple.L if any(not any(l) for l in triple.L) else [
        tuple(a - b for a, b in zip(l, min(triple.L))) for l in triple.L
    ]
    blocks = [((0,) * triple.pair.d,)]
    for k in range(1, K + 1):
        P = triple.R.T.pow(k - 1)
        prev = [p for blk in blocks for p in blk]
        blocks.append(tuple(
            tuple(a + b for a, b in zip(lam, P.matvec(l))) for lam in prev for l in L if any(l)
        ))
    return tuple(blocks)


# ---------------------------------------------------------------------------
# frequencies in input coordinates


def map_frequency_back_per_point(point, records) -> tuple[Fraction, ...]:
    """One frequency point undone through the records one move at a time,
    outermost-first, padding with zeros where a record is wider.  Same
    values as `quasiprod.map_frequency_back` on that point."""
    pt = tuple(Fraction(c) for c in point)
    for rec in reversed(records):
        if len(pt) < rec.G.d:
            pt = pt + (Fraction(0),) * (rec.G.d - len(pt))
        pt = rec.unapply_frequency_point(pt)
    return pt


def f_map_back(point, records) -> tuple[Fraction, ...]:
    """The chain of `quasiprod.map_frequency_back` composed from Fraction
    matrices: each record undoes by the transpose of the Gauss-Jordan inverse
    of its matrix G, and a record wider than the composition so far takes it
    with zero rows appended."""
    d = len(point)
    M = f_identity(d)
    for rec in reversed(records):
        M = M + ((Fraction(0),) * d,) * (rec.G.d - len(M))
        inv_t = tuple(zip(*f_inverse(to_fractions(rec.G))))
        M = tuple(zip(*(f_matvec(inv_t, col) for col in zip(*M))))
    return f_matvec(M, point)
