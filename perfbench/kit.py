"""Independent checks for the benchmark's outputs.

This module imports numpy and the standard library only, never
``spectral_fractal``: every claim the program makes is recomputed here by
another route, or tested against a property the mathematics guarantees.

* Residue keys.  For a nonsingular integer matrix M, u and v are congruent
  modulo M Z^d exactly when adj(M) u = adj(M) v (mod |det M|), since
  M^{-1} = adj(M) / det M.
* Exact phases.  A character phase <M^{-1} b, lam> mod 1 with integer b and
  rational lam = num / den equals (s adj(M) b . num mod |det M| den) / (|det M| den)
  with s the sign of det M, so it is reduced in integer arithmetic before
  any float touches it.  The package instead forms R^{-n} b in floats.
* mu_hat.  The transform of mu(R, B) is prod_{j>=1} m_B((R^T)^{-j} x) with
  m_B(y) = (1/N) sum_b exp(-2 pi i <b, y>), and <b, (R^T)^{-j} x> =
  <R^{-j} b, x>.  Here it is a product of exactly ``depth`` factors at exact
  phases (default 64).  Every factor has modulus <= 1, so the truncated
  modulus bounds |mu_hat| from above; the dropped tail moves the value by
  at most 2 pi |R^{-depth}| |b| |x|, far below every tolerance used.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

DEPTH = 64

# int64 holds d * mod**2 below this, so the integer matmul cannot overflow
_INT64_SAFE = 2**62


class CheckFailed(Exception):
    """An output of the program contradicts an independent computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# exact integer matrices (lists of rows of Python ints)


def mat_mul(A, B):
    return [
        [sum(A[i][t] * B[t][j] for t in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def mat_pow(A, k: int):
    d = len(A)
    out = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(k):
        out = mat_mul(out, A)
    return out


def transpose(A):
    return [list(col) for col in zip(*A)]


def det(A) -> int:
    """Determinant by fraction-exact elimination."""
    M = [[Fraction(c) for c in row] for row in A]
    d = len(M)
    out = Fraction(1)
    for c in range(d):
        piv = next((r for r in range(c, d) if M[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            out = -out
        out *= M[c][c]
        for r in range(c + 1, d):
            f = M[r][c] / M[c][c]
            for t in range(c, d):
                M[r][t] -= f * M[c][t]
    return int(out)


def adjugate(A):
    """Transposed cofactor matrix, so that A adj(A) = det(A) I."""
    d = len(A)
    if d == 1:
        return [[1]]
    adj = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            minor = [row[:j] + row[j + 1 :] for r, row in enumerate(A) if r != i]
            adj[j][i] = (-1) ** (i + j) * det(minor)
    return adj


def mat_vec(A, v):
    return tuple(sum(a * c for a, c in zip(row, v)) for row in A)


def residue_keys(M, vecs) -> list[tuple[int, ...]]:
    """adj(M) v mod |det M| for each v: equal keys mean congruent mod M Z^d."""
    D = abs(det(M))
    require(D != 0, "residues modulo a singular matrix")
    adj = adjugate(M)
    return [tuple(c % D for c in mat_vec(adj, v)) for v in vecs]


def digit_sums(R, B, n: int) -> list[tuple[int, ...]]:
    """The level-n expansions sum_{i=1..n} R^{n-i} c_i with c_i in B."""
    d = len(R)
    out = [(0,) * d]
    for _ in range(n):
        out = [tuple(x + y for x, y in zip(mat_vec(R, v), b)) for v in out for b in B]
    return out


# ---------------------------------------------------------------------------
# exact rational points


def as_fraction(v) -> Fraction:
    """A report coordinate: an int, or an integer or "p/q" string."""
    return Fraction(v) if isinstance(v, (int, str)) else Fraction(str(v))


def common_denominator(points) -> tuple[list[list[int]], int]:
    """Rational points as (integer numerators, one shared denominator)."""
    fr = [[as_fraction(c) for c in p] for p in points]
    den = 1
    for p in fr:
        for c in p:
            den = lcm(den, c.denominator)
    return [[int(c * den) for c in p] for p in fr], den


def split_float_points(rows) -> tuple[list[list[int]], np.ndarray]:
    """Float points as nearest integers plus small float offsets.

    Integer coordinates of CSV exports are exact in a double (|x| < 2^53),
    so the integer part keeps its exact phase and only the offset, of
    modulus at most 1/2, goes through float arithmetic.
    """
    arr = np.asarray(rows, dtype=float)
    ints = np.rint(arr)
    require(bool(np.all(np.abs(ints) < 2.0**53)), "coordinate beyond 2^53")
    num = [[int(c) for c in row] for row in ints]
    return num, arr - ints


# ---------------------------------------------------------------------------
# phases, characters and the transform


def phases(M, digits, num, den: int = 1) -> np.ndarray:
    """<M^{-1} b, lam> mod 1 for lam = num / den; rows lam, columns b.

    Reduced exactly in integers; only the final quotient in [0, 1) is a float.
    """
    D = det(M)
    require(D != 0, "phases modulo a singular matrix")
    sign = 1 if D > 0 else -1
    adj = adjugate(M)
    mod = abs(D) * den
    keys = [[(sign * c) % mod for c in mat_vec(adj, b)] for b in digits]
    d = len(M)
    if d * mod * mod < _INT64_SAFE:
        K = np.array(keys, dtype=np.int64).reshape(len(digits), d)
        L = np.array(num, dtype=object).reshape(-1, d) % mod
        P = (L.astype(np.int64) @ K.T) % mod
        return P / mod
    K = np.array(keys, dtype=object).reshape(len(digits), d)
    L = np.array(num, dtype=object).reshape(-1, d) % mod
    P = (L @ K.T) % mod
    return (P / mod).astype(float)


def _inverse_images(R, digits, j: int) -> np.ndarray:
    """R^{-j} b as float rows, rounded once from the exact rationals."""
    Rj = mat_pow(R, j)
    D = det(Rj)
    adj = adjugate(Rj)
    return np.array(
        [[float(Fraction(c, D)) for c in mat_vec(adj, b)] for b in digits], dtype=float
    ).reshape(len(digits), len(R))


def _factors(R, B, num, den: int, off, depth: int):
    """Yield, for j = 1..depth, exp(-2 pi i <R^{-j} b, num/den + off>) per (point, b)."""
    for j in range(1, depth + 1):
        ph = phases(mat_pow(R, j), B, num, den)
        if off is not None:
            ph = ph + off @ _inverse_images(R, B, j).T
        yield j, np.exp(-2j * np.pi * ph)


def mu_hat(R, B, num, den: int = 1, off=None, depth: int = DEPTH) -> np.ndarray:
    """prod_{j=1..depth} m_B((R^T)^{-j} x) at x = num/den (+ off, a float array)."""
    acc = np.ones(len(num), dtype=complex)
    for _, E in _factors(R, B, num, den, off, depth):
        acc *= E.mean(axis=1)
    return acc


def energy(R, B, num, off, xi, depth: int = DEPTH) -> np.ndarray:
    """sum_m |mu_hat(lam_m + xi_k)|^2 for each xi_k; lam = num + off."""
    xi = np.asarray(xi, dtype=float)
    acc = np.ones((len(num), len(xi)), dtype=complex)
    N = len(B)
    for j, E in _factors(R, B, num, 1, off, depth):
        F = np.exp(-2j * np.pi * (xi @ _inverse_images(R, B, j).T))
        acc *= (E @ F.T) / N
    return (np.abs(acc) ** 2).sum(axis=0)


def character_matrix(M, digits, freqs, sign: int = -1) -> np.ndarray:
    """exp(sign 2 pi i <M^{-1} b, lam>) / sqrt(#digits); rows lam, columns b."""
    P = phases(M, digits, freqs)
    return np.exp(sign * 2j * np.pi * P) / np.sqrt(len(digits))


def unitarity_defect(M, digits, freqs) -> float:
    """max |H* H - I| of the exactly phased Hadamard matrix of (M, digits, freqs)."""
    H = character_matrix(M, digits, freqs, sign=1)
    G = H.conj().T @ H
    return float(np.max(np.abs(G - np.eye(len(digits)))))


def frame_eigenvalues(R, B, n: int, rows) -> np.ndarray:
    """Eigenvalues of F* F for the level-n matrix F with the given frequency rows."""
    F = character_matrix(mat_pow(R, n), digit_sums(R, B, n), rows)
    return np.linalg.eigvalsh(F.conj().T @ F)


# ---------------------------------------------------------------------------
# checks: each raises CheckFailed with the reason


def check_orthogonal(R, B, diffs_num, den: int = 1, off=None, tol: float = 1e-8) -> float:
    """Every difference of two frequencies is a zero of mu_hat: |mu_hat| < tol."""
    vals = np.abs(mu_hat(R, B, diffs_num, den, off))
    worst = float(vals.max()) if len(vals) else 0.0
    require(worst < tol, f"|mu_hat(lam - lam')| = {worst:.3e} >= {tol:g}")
    return worst


def pair_differences(num, pairs):
    return [[a - b for a, b in zip(num[i], num[j])] for i, j in pairs]


def all_pairs(count: int):
    return [(i, j) for i in range(count) for j in range(i + 1, count)]


def check_energy(R, B, num, off, xi, lo: float, hi: float) -> np.ndarray:
    """Partial Parseval sums at xi lie in [lo, hi] (hi = 1 + eps is Bessel's bound)."""
    sums = energy(R, B, num, off, xi)
    require(
        bool(np.all(sums >= lo) and np.all(sums <= hi)),
        f"energy sums span [{sums.min():.9f}, {sums.max():.9f}], outside [{lo}, {hi}]",
    )
    return sums


def window(K: int, d: int):
    grids = np.meshgrid(*[np.arange(-K, K + 1)] * d, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1).tolist()


def check_zero_witness(R, B, point, K: int = 10, tol: float = 1e-12) -> float:
    """w is a periodic zero: |mu_hat(w + k)| < tol for every |k|_inf <= K."""
    num, den = common_denominator([point])
    shifted = [[c + den * k for c, k in zip(num[0], ks)] for ks in window(K, len(R))]
    worst = float(np.abs(mu_hat(R, B, shifted, den)).max())
    require(worst < tol, f"witness {point}: max |mu_hat(w + k)| = {worst:.3e} >= {tol:g}")
    return worst


def check_distinct_residues(M, vecs, expected: int) -> None:
    """The vectors fill `expected` distinct classes modulo M Z^d."""
    keys = residue_keys(M, vecs)
    require(len(vecs) == expected, f"{len(vecs)} vectors, expected {expected}")
    require(len(set(keys)) == expected, f"{expected - len(set(keys))} repeated residues")


def check_defect(M, digits, freqs, claimed: float, tol: float = 1e-10, agree: float = 1e-12) -> float:
    """A claimed unitarity defect is small and matches the exact-phase one."""
    exact = unitarity_defect(M, digits, freqs)
    require(claimed <= tol, f"claimed defect {claimed:.3e} > {tol:g}")
    require(exact <= tol, f"exact-phase defect {exact:.3e} > {tol:g}")
    require(abs(claimed - exact) <= agree, f"defect {claimed:.3e} vs exact {exact:.3e}")
    return exact


def check_frame_bounds(R, B, n: int, rows, lo: float, hi: float, tol: float = 1e-9) -> None:
    """Claimed (sigma_min^2, sigma_max^2) equal the exact-phase eigenvalues."""
    w = frame_eigenvalues(R, B, n, rows)
    lo_x, hi_x = max(float(w[0]), 0.0), float(w[-1])
    require(
        abs(lo - lo_x) <= tol and abs(hi - hi_x) <= tol,
        f"bounds ({lo!r}, {hi!r}) vs exact ({lo_x!r}, {hi_x!r})",
    )


def check_unitary_rows(lo: float, hi: float, rows: int, cols: int, tol: float = 1e-9) -> None:
    """Tower rows form an orthonormal set: sigma_max^2 = 1, and sigma_min^2 is
    1 when the matrix is square and 0 when it has fewer rows than columns."""
    require(abs(hi - 1.0) <= tol, f"sigma_max^2 = {hi!r}, expected 1")
    want = 1.0 if rows >= cols else 0.0
    require(abs(lo - want) <= tol, f"sigma_min^2 = {lo!r}, expected {want}")


def check_closed_form(R, B, depth: int, xi, values, tol: float = 1e-9) -> float:
    """Values of the depth-n atomic measure's transform equal the n-factor product."""
    num, off = split_float_points(xi)
    exact = mu_hat(R, B, num, 1, off, depth=depth)
    worst = float(np.max(np.abs(np.asarray(values) - exact)))
    require(worst <= tol, f"atomic transform off the closed form by {worst:.3e}")
    return worst
