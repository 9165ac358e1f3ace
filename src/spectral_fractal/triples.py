"""Digit systems (R, B) and their paired frequency sets L.

An (R, B, L) system is accepted when the N x N matrix

    H = N^{-1/2} [ exp(2 pi i <R^{-1} b, l>) ]  (rows l in L, columns b in B)

is unitary to within a strict tolerance.  The inner products are reduced
modulo 1 in exact integer arithmetic (`intlat.character_residues`) before any
float touches them, so the unitarity defect of a true system is pure rounding
noise (~1e-15).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    character_phases,
    is_expansive,
    residues_unique,
)

DEFECT_TOL = 1e-10
DENSE_TOWER = 4096  # largest tower whose unitary `tower` forms and checks


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


def hadamard_triple(R, B, L) -> HadamardTriple:
    pair = affine_pair(R, B)
    freqs = as_digit_list(L)
    _, defect = validate_triple(pair.R, pair.B, freqs)
    return HadamardTriple(pair, freqs, defect)


# ---------------------------------------------------------------------------
# towers


def digit_sums(R, B, n: int, cap: int = 2**20) -> np.ndarray:
    """The level-n digit expansion sum_{i=1..n} R^(n-i) c_i, c_i in B.

    One row per tuple (c_1, ..., c_n), enumerated lexicographically with the
    most significant digit first, so 1D sets come out sorted when B is
    sorted.  Entries are Python ints in an object array: exact at any size.
    """
    M = IntMatrix.from_rows(R)
    digs = np.array(as_digit_list(B), dtype=object).reshape(-1, M.d)
    N = len(digs)
    if N**n > cap:
        raise CapExceeded("digit tower", N**n, cap)
    Rt = np.array(M.T.rows, dtype=object)
    out = np.zeros((1, M.d), dtype=object)
    for _ in range(n):
        out = ((out @ Rt)[:, None, :] + digs).reshape(-1, M.d)
    return out


def _int_rows(sums: np.ndarray) -> tuple[IVec, ...]:
    """The rows of a `digit_sums` array as tuples; its entries are already ints."""
    return tuple(map(tuple, sums.tolist()))


def tower(triple: HadamardTriple, k: int, cap: int = 2**20) -> HadamardTriple:
    """The level-k system (R^k, B_k, L_k); re-validated when small enough.

    Beyond DENSE_TOWER elements the full unitary is too large to form, so the
    exact residue-distinctness certificate is checked instead and the base
    defect is inherited (see `note`).
    """
    if k < 0:
        raise InvalidInput("tower level must be nonnegative")
    triple.require_validated()
    Rk = triple.R.pow(k)
    Bk = _int_rows(digit_sums(triple.R, triple.B, k, cap))
    Lk = _int_rows(digit_sums(triple.R.T, triple.L, k, cap))
    pair = AffinePair(Rk, Bk)
    if len(Bk) <= DENSE_TOWER:
        _, defect = validate_triple(Rk, Bk, Lk)
        return HadamardTriple(pair, Lk, defect)
    for mat, vecs, label in ((Rk, Bk, "digit"), (Rk.T, Lk, "frequency")):
        if not residues_unique(mat, vecs):
            raise ResidueCollision(f"{label} tower loses residue distinctness")
    return HadamardTriple(
        pair, Lk, triple.defect, note="residue-certified; defect inherited from base"
    )
