"""Digit systems (R, B) and their paired frequency sets L.

(R, B, L) is a Hadamard triple when the N x N matrix

    H = N^{-1/2} [ exp(2 pi i <R^{-1} b, l>) ]  (rows l in L, columns b in B)

is unitary.  `validate_triple` decides that exactly, as vanishing sums of
roots of unity (Lam-Leung), and measures the float defect max |H*H - I|
alongside; its phases are reduced modulo 1 in integers
(`intlat.character_residues`), so a true system's defect is rounding noise.
By the tower lemma every level (R^k, B_k, L_k) of a Hadamard triple is one
too, so `tower` inherits the base verdict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from operator import mul, sub

import numpy as np

from .errors import (
    CapExceeded,
    InvalidInput,
    NotHadamard,
    ResidueCollision,
    SizeMismatch,
)
from .intlat import (
    IntMatrix,
    IVec,
    adjugate,
    as_digit_list,
    character_phases,
    int_product,
    is_expansive,
    residues_unique,
    root_sum_vanishes,
)

NUMERIC_ZERO = 1e-12  # a float mask value below this counts as a zero ("numeric" grade)
GENERAL_CAP = 600  # largest reduced order whose root-of-unity sums are decided exactly
TOWER_CAP = 2**20  # most digit sums one tower level forms


@dataclass(frozen=True)
class AffinePair:
    """An expanding integer matrix together with a finite digit set."""

    R: IntMatrix
    B: tuple[IVec, ...]

    def __post_init__(self):
        d = self.R.d  # raises if not square
        if not self.B:
            raise InvalidInput("empty digit set")
        if any(len(b) != d for b in self.B):
            raise SizeMismatch("digit length does not match matrix dimension")
        if len(set(self.B)) != len(self.B):
            raise InvalidInput("repeated digit")
        if not is_expansive(self.R):
            raise InvalidInput(f"matrix {self.R} is not expansive")

    @property
    def d(self) -> int:
        return self.R.d

    @property
    def N(self) -> int:
        return len(self.B)

    @cached_property
    def digit_array(self) -> np.ndarray:
        """The digits as a read-only (N, d) float array, built once per pair."""
        arr = np.array(self.B, dtype=float)
        arr.flags.writeable = False
        return arr


def affine_pair(R, B) -> AffinePair:
    return AffinePair(IntMatrix.from_rows(R), as_digit_list(B))


def _xi_grid(pair_d: int, xi) -> tuple[np.ndarray, bool]:
    arr = np.asarray(xi, dtype=float)
    scalar = False
    if pair_d == 1 and (arr.ndim == 0 or arr.shape[-1] != 1):
        arr = arr.reshape(arr.shape + (1,))
    if arr.ndim == 1 and arr.shape == (pair_d,):
        arr = arr[None, :]
        scalar = True
    if arr.shape[-1] != pair_d:
        raise SizeMismatch("evaluation points have wrong dimension")
    return arr, scalar


def mask_eval(pair: AffinePair, xi):
    """Digit mask (1/N) sum_b exp(-2 pi i <b, xi>); vectorized over points."""
    arr, scalar = _xi_grid(pair.d, xi)
    vals = -2j * np.pi * (arr @ pair.digit_array.T)  # (..., N)
    np.exp(vals, out=vals)
    vals = vals.sum(axis=-1) / pair.N  # what .mean computes, without its overhead
    return vals[0] if scalar else vals


def hadamard_matrix(R, B, L) -> np.ndarray:
    """The candidate unitary, rows indexed by L, columns by B."""
    M = IntMatrix.from_rows(R)
    digs = as_digit_list(B)
    freqs = as_digit_list(L)
    d = M.d
    if any(len(b) != d for b in digs) or any(len(l) != d for l in freqs):
        raise SizeMismatch("digit / frequency length mismatch")
    H = 2j * np.pi * character_phases(M, freqs, digs)
    np.exp(H, out=H)
    H /= np.sqrt(len(digs))
    return H


def mask_vanishes(digits, v: IVec, den: int, cap: int) -> tuple[bool, str]:
    """(the digit mask vanishes at v / den, grade) for integer numerators v.

    The phases <b, v> / den share the reduced denominator q, so the mask is a
    sum of q-th roots of unity, decided exactly by `intlat.root_sum_vanishes`
    (grade 'exact', q <= cap), else judged in floats (grade 'numeric').
    Repeated digits count with multiplicity.
    """
    nums = [sum(map(mul, b, v)) for b in digits]
    g = gcd(den, *nums)
    q = den // g
    exps = [n // g % q for n in nums]
    if q <= cap:
        return root_sum_vanishes(exps, q), "exact"
    # int / int is correctly rounded, as float(Fraction(e, q)) is
    val = abs(np.exp(-2j * np.pi * np.array([e / q for e in exps])).sum()) / len(digits)
    return bool(val < NUMERIC_ZERO), "numeric"


def _hadamard_verdict(R: IntMatrix, B, L) -> tuple[bool, str]:
    """(H is exactly unitary, grade): columns b and b' of H meet in the
    conjugate of m_L(R^{-1}(b - b')), m_L the mask of L.  R^{-1} is
    adj(R) / det R; the sign of det R and the order of b, b' only conjugate
    that value, so each difference is tested once, at adj(R)(b - b') / |det R|.
    """
    adj, det = adjugate(R)
    diffs = {tuple(map(sub, b, c)) for b, c in itertools.combinations(B, 2)}
    grade = "exact"
    for diff in sorted({max(d, tuple(-c for c in d)) for d in diffs}):
        zero, g = mask_vanishes(L, adj.matvec(diff), abs(det), GENERAL_CAP)
        if not zero:
            return False, g
        if g == "numeric":
            grade = g
    return True, grade


def validate_triple(R, B, L) -> tuple[bool, str, float]:
    """(exact Hadamard verdict, its grade, max-entry defect of H*H - I)."""
    M = IntMatrix.from_rows(R)
    digs = as_digit_list(B)
    freqs = as_digit_list(L)
    if len(digs) != len(freqs):
        raise SizeMismatch("digit and frequency sets must have equal size")
    H = hadamard_matrix(M, digs, freqs)
    G = H.conj().T @ H
    G[np.diag_indices_from(G)] -= 1
    return (*_hadamard_verdict(M, digs, freqs), float(np.max(np.abs(G))))


@dataclass(frozen=True)
class HadamardTriple:
    """An (R, B, L) system and its Hadamard verdict (unvalidated by default)."""

    pair: AffinePair
    L: tuple[IVec, ...]
    defect: float
    validated: bool = False
    grade: str = ""
    note: str = ""

    @property
    def R(self) -> IntMatrix:
        return self.pair.R

    @property
    def B(self) -> tuple[IVec, ...]:
        return self.pair.B

    @property
    def N(self) -> int:
        return self.pair.N

    def require_validated(self):
        if not self.validated:
            raise NotHadamard(f"not a Hadamard triple (unitarity defect {self.defect:.3e})")
        return self


def hadamard_triple(R, B, L) -> HadamardTriple:
    pair = affine_pair(R, B)
    freqs = as_digit_list(L)
    valid, grade, defect = validate_triple(pair.R, pair.B, freqs)
    return HadamardTriple(pair, freqs, defect, valid, grade)


# ---------------------------------------------------------------------------
# towers


def digit_sums(R, B, n: int, cap: int = TOWER_CAP) -> np.ndarray:
    """The level-n digit expansion sum_{i=1..n} R^(n-i) c_i, c_i in B.

    One row per tuple (c_1, ..., c_n), enumerated lexicographically with the
    most significant digit first, so 1D sets come out sorted when B is
    sorted.  Each level is one exact `int_product`: int64, or Python ints.
    """
    M = IntMatrix.from_rows(R)
    digs = as_digit_list(B)
    N = len(digs)
    if N**n > cap:
        raise CapExceeded("digit tower", N**n, cap)
    out = np.zeros((1, M.d), dtype=np.int64)
    for _ in range(n):
        out = int_product(out[:, None, :], M, digs).reshape(-1, M.d)
    return out


def _int_rows(sums: np.ndarray) -> tuple[IVec, ...]:
    """The rows of a `digit_sums` array as tuples of Python ints, either dtype."""
    return tuple(map(tuple, sums.tolist()))


def tower(triple: HadamardTriple, k: int) -> HadamardTriple:
    """The level-k system (R^k, B_k, L_k) of a validated triple.

    By the tower lemma it is a Hadamard triple, so it inherits the base
    verdict, grade and defect; the exact residue distinctness of B_k modulo
    R^k and of L_k modulo (R^k)^T is checked (see `note`).
    """
    if k < 1:
        raise InvalidInput("tower level must be >= 1; level 0 has the identity matrix")
    triple.require_validated()
    Rk = triple.R.pow(k)
    Bk = _int_rows(digit_sums(triple.R, triple.B, k))
    Lk = _int_rows(digit_sums(triple.R.T, triple.L, k))
    for mat, vecs, label in ((Rk, Bk, "digit"), (Rk.T, Lk, "frequency")):
        if not residues_unique(mat, vecs):
            raise ResidueCollision(f"{label} tower loses residue distinctness")
    note = "residue-certified; verdict and defect inherited from base"
    return HadamardTriple(AffinePair(Rk, Bk), Lk, triple.defect, True, triple.grade, note)
