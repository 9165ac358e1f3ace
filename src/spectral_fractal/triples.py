"""Digit systems (R, B) and their paired frequency sets L.

An (R, B, L) system is accepted when the N x N matrix

    H = N^{-1/2} [ exp(2 pi i <R^{-1} b, l>) ]  (rows l in L, columns b in B)

is unitary to within a strict tolerance.  The inner products are reduced
modulo 1 in exact integer arithmetic (`intlat.character_residues`) before any
float touches them, so the unitarity defect of a true system is pure rounding
noise (~1e-15).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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
    as_digit_list,
    canonical_residue,
    character_phases,
    is_expansive,
    residues_unique,
)

DEFECT_TOL = 1e-10


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

    def digit_array(self) -> np.ndarray:
        return np.array(self.B, dtype=float)


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
    phases = arr @ pair.digit_array().T  # (..., N)
    vals = np.exp(-2j * np.pi * phases).mean(axis=-1)
    return vals[0] if scalar else vals


def u_eval(pair: AffinePair, x):
    """Squared mask modulus; the transition weight in [0, 1]."""
    m = mask_eval(pair, x)
    return np.abs(m) ** 2


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


def validate_triple(R, B, L, tol: float = DEFECT_TOL) -> tuple[bool, float]:
    """Unitarity check; returns (accepted, max-entry defect of H*H - I)."""
    digs = as_digit_list(B)
    freqs = as_digit_list(L)
    if len(digs) != len(freqs):
        raise SizeMismatch("digit and frequency sets must have equal size")
    H = hadamard_matrix(R, digs, freqs)
    G = H.conj().T @ H
    del H
    G[np.diag_indices_from(G)] -= 1
    defect = float(np.max(np.abs(G)))
    return defect <= tol, defect


@dataclass(frozen=True)
class HadamardTriple:
    """A validated (R, B, L) system."""

    pair: AffinePair
    L: tuple[IVec, ...]
    defect: float
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

    @property
    def validated(self) -> bool:
        return self.defect <= DEFECT_TOL

    def require_validated(self):
        if not self.validated:
            raise NotHadamard(
                f"unitarity defect {self.defect:.3e} exceeds {DEFECT_TOL:.0e}"
            )
        return self

    def dual_pair(self) -> AffinePair:
        """The transposed system (R^T, L); its attractor hosts the frequency trees."""
        return AffinePair(self.R.T, self.L)


def hadamard_triple(R, B, L) -> HadamardTriple:
    pair = affine_pair(R, B)
    freqs = as_digit_list(L)
    _, defect = validate_triple(pair.R, pair.B, freqs)
    return HadamardTriple(pair, freqs, defect)


# ---------------------------------------------------------------------------
# towers


def digit_sums(R, B, n: int, cap: int = 2**20) -> list[IVec]:
    """The level-n digit expansion sum_{i=1..n} R^(n-i) c_i, c_i in B.

    Tuples (c_1, ..., c_n) are enumerated lexicographically with the most
    significant digit first, so 1D sets come out sorted when B is sorted.
    """
    M = IntMatrix.from_rows(R)
    digs = as_digit_list(B)
    N = len(digs)
    if N**n > cap:
        raise CapExceeded("digit tower", N**n, cap)
    out: list[IVec] = [(0,) * M.d]
    for _ in range(n):
        out = [tuple(x + y for x, y in zip(M.matvec(v), b)) for v in out for b in digs]
    return out


def tower(triple: HadamardTriple, k: int, cap: int = 2**20, dense_cap: int = 4096) -> HadamardTriple:
    """The level-k system (R^k, B_k, L_k); re-validated when small enough.

    Beyond `dense_cap` elements the full unitary is too large to form, so the
    exact residue-distinctness certificate is checked instead and the base
    defect is inherited (see `note`).
    """
    if k < 0:
        raise InvalidInput("tower level must be nonnegative")
    triple.require_validated()
    Rk = triple.R.pow(k)
    Bk = tuple(digit_sums(triple.R, triple.B, k, cap))
    Lk = tuple(digit_sums(triple.R.T, triple.L, k, cap))
    pair = AffinePair(Rk, Bk)
    if len(Bk) <= dense_cap:
        _, defect = validate_triple(Rk, Bk, Lk)
        return HadamardTriple(pair, Lk, defect)
    for mat, vecs, label in ((Rk, Bk, "digit"), (Rk.T, Lk, "frequency")):
        if not residues_unique(mat, vecs):
            raise ResidueCollision(f"{label} tower loses residue distinctness")
    return HadamardTriple(
        pair, Lk, triple.defect, note="residue-certified; defect inherited from base"
    )


def lift_digits(J, R, n: int, shifts) -> tuple[IVec, ...]:
    """Shift each frequency by (R^T)^n k_j; residues mod (R^T)^n are untouched.

    `shifts` is a sequence of integer vectors aligned with J (or a dict from
    index to vector; missing entries shift by zero).
    """
    M = IntMatrix.from_rows(R)
    freqs = as_digit_list(J)
    Rt_n = M.T.pow(n)
    seen = set()
    for j in freqs:
        r = canonical_residue(Rt_n, j)
        if r in seen:
            raise ResidueCollision("frequencies collide modulo (R^T)^n")
        seen.add(r)
    if isinstance(shifts, dict):
        shift_list = [shifts.get(i, (0,) * M.d) for i in range(len(freqs))]
    else:
        shift_list = list(shifts)
        if len(shift_list) != len(freqs):
            raise SizeMismatch("one shift per frequency required")
    out = []
    for j, s in zip(freqs, shift_list):
        sv = Rt_n.matvec(tuple(int(x) for x in s))
        out.append(tuple(a + b for a, b in zip(j, sv)))
    for j, o in zip(freqs, out):
        assert canonical_residue(Rt_n, o) == canonical_residue(Rt_n, j)
    return tuple(out)


def transfer_partition_check(triple: HadamardTriple, grid) -> float:
    """Max deviation of sum_l u((R^T)^{-1}(x + l)) from 1 over the grid.

    For a validated system this is an identity, so the return value is float
    noise; large values flag a broken L.
    """
    pair = triple.pair
    arr, _ = _xi_grid(pair.d, grid)
    inv_t = np.linalg.inv(pair.R.T.to_array())
    total = np.zeros(arr.shape[:-1])
    for l in triple.L:
        pts = (arr + np.array(l, dtype=float)) @ inv_t.T
        total += u_eval(pair, pts)
    return float(np.max(np.abs(total - 1.0)))


def search_frequency_digits_1d(R: int, B, limit: int | None = None) -> list[tuple[IVec, ...]]:
    """Exhaustive search for valid 1D frequency sets inside [0, |R|).

    Only meant for small N; complements validate_triple in tests.  Returns
    every subset (containing 0) that passes validation.
    """
    r = abs(int(R))
    digs = as_digit_list(B)
    N = len(digs)
    if N > (limit or 6):
        raise CapExceeded("frequency search", N, limit or 6)
    found = []
    for combo in itertools.combinations(range(1, r), N - 1):
        L = ((0,),) + tuple((c,) for c in combo)
        ok, _ = validate_triple([[R]], digs, L)
        if ok:
            found.append(L)
    return found
