"""Exact integer and rational linear algebra for expanding-matrix digit systems.

Everything that decides a congruence, a lattice membership, or a rank is done
in exact arithmetic (Python ints and fractions.Fraction).  Floating point is
allowed in two places: estimating eigenvalue moduli for the expansiveness
test, where the borderline cases are resolved exactly or rejected loudly, and
the last step of the character kernel (`character_residues`), where one
correctly rounded division turns an exact residue r / |det M| into a phase.

Conventions
-----------
* Matrices are row-major tuples of tuples of ints (`IntMatrix`).
* Vectors are tuples of ints (or Fractions for rational points).
* Hermite normal form is column-style: ``A @ U = H`` with ``U`` unimodular,
  pivots walking down and to the right, pivot entries positive, and entries
  to the *left* of a pivot in its row reduced into ``[0, pivot)``.  For a
  nonsingular square matrix this is lower triangular with positive diagonal,
  which is the unique canonical basis of the column span.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AmbiguousSpectrum,
    InvalidInput,
    RankDeficient,
    SizeMismatch,
)

IVec = tuple[int, ...]
FVec = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# basic matrix type


def _as_int(x) -> int:
    if isinstance(x, (bool, float, np.floating)):
        ix = int(round(float(x)))
        if abs(float(x) - ix) > 0:
            raise InvalidInput(f"non-integer entry {x!r}")
        return ix
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, Fraction):
        if x.denominator != 1:
            raise InvalidInput(f"non-integer entry {x!r}")
        return int(x)
    if isinstance(x, str):
        return int(x)  # big entries arrive as decimal strings in problem files
    raise InvalidInput(f"cannot interpret {x!r} as an integer")


def as_ivec(v) -> IVec:
    if isinstance(v, (int, np.integer)):
        return (int(v),)
    return tuple(_as_int(x) for x in v)


def as_digit_list(B) -> tuple[IVec, ...]:
    return tuple(as_ivec(b) for b in B)


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix with exact helpers."""

    rows: tuple[IVec, ...]

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        if isinstance(rows, IntMatrix):
            return rows
        if isinstance(rows, (int, np.integer)):
            return IntMatrix(((int(rows),),))
        r = tuple(as_ivec(row) for row in rows)
        if not r:
            raise InvalidInput("empty matrix")
        w = len(r[0])
        if any(len(row) != w for row in r):
            raise SizeMismatch("ragged matrix rows")
        return IntMatrix(r)

    @staticmethod
    def identity(d: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d)))

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows[0]))

    @property
    def d(self) -> int:
        h, w = self.shape
        if h != w:
            raise SizeMismatch("matrix is not square")
        return h

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    @property
    def T(self) -> "IntMatrix":
        h, w = self.shape
        return IntMatrix(tuple(tuple(self.rows[i][j] for i in range(h)) for j in range(w)))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        a, b = self.rows, other.rows
        h, k = self.shape
        k2, w = other.shape
        if k != k2:
            raise SizeMismatch("matrix product shape mismatch")
        return IntMatrix(
            tuple(
                tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(w))
                for i in range(h)
            )
        )

    def matvec(self, v: Sequence[int]) -> IVec:
        h, w = self.shape
        if len(v) != w:
            raise SizeMismatch("matvec length mismatch")
        return tuple(sum(self.rows[i][j] * v[j] for j in range(w)) for i in range(h))

    def matvec_frac(self, v: Sequence[Fraction]) -> FVec:
        h, w = self.shape
        if len(v) != w:
            raise SizeMismatch("matvec length mismatch")
        return tuple(sum(Fraction(self.rows[i][j]) * v[j] for j in range(w)) for i in range(h))

    def pow(self, k: int) -> "IntMatrix":
        if k < 0:
            raise InvalidInput("negative integer matrix power")
        out = IntMatrix.identity(self.d)
        base = self
        while k:
            if k & 1:
                out = out.mul(base)
            base = base.mul(base)
            k >>= 1
        return out

    def det(self) -> int:
        return _bareiss_det(self.rows)

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.d))

    def to_fractions(self) -> tuple[FVec, ...]:
        return tuple(tuple(Fraction(x) for x in row) for row in self.rows)

    def inverse_fractions(self) -> tuple[FVec, ...]:
        inv = f_inverse(self.to_fractions())
        return inv

    def to_array(self) -> np.ndarray:
        return np.array(self.rows, dtype=float)

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in self.rows) + "]"


def _bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    a = [list(r) for r in rows]
    n = len(a)
    if any(len(r) != n for r in a):
        raise SizeMismatch("determinant of non-square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pk - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pk
    return sign * a[-1][-1]


# ---------------------------------------------------------------------------
# exact rational helpers (shared by several modules)


def f_identity(d: int) -> tuple[FVec, ...]:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(d)) for i in range(d))


def f_matmul(a, b) -> tuple[FVec, ...]:
    h, k = len(a), len(a[0])
    w = len(b[0])
    if len(b) != k:
        raise SizeMismatch("rational product shape mismatch")
    return tuple(
        tuple(sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(w))
        for i in range(h)
    )


def f_matvec(a, v) -> FVec:
    if len(a[0]) != len(v):
        raise SizeMismatch("rational matvec length mismatch")
    return tuple(sum((a[i][j] * Fraction(v[j]) for j in range(len(v))), Fraction(0)) for i in range(len(a)))


def f_transpose(a) -> tuple[FVec, ...]:
    return tuple(tuple(a[i][j] for i in range(len(a))) for j in range(len(a[0])))


def f_inverse(a) -> tuple[FVec, ...]:
    """Gauss-Jordan inverse of a square Fraction matrix."""
    n = len(a)
    m = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)] for i, row in enumerate(a)]
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


def f_nullspace(a) -> list[FVec]:
    """Basis of the right nullspace of a Fraction matrix (row-reduced)."""
    if not a:
        return []
    m = [list(row) for row in a]
    rows, cols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][c]
        m[r] = [x / p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append(tuple(v))
    return basis


def clear_denominators(vec: Sequence[Fraction]) -> tuple[IVec, int]:
    """Return (integer vector, den) with vec = ivec / den and gcd(ivec, den) reduced."""
    den = 1
    for x in vec:
        den = den * x.denominator // _gcd(den, x.denominator)
    ints = [int(x * den) for x in vec]
    g = den
    for x in ints:
        g = _gcd(g, abs(x))
        if g == 1:
            break
    if g > 1:
        den //= g
        ints = [x // g for x in ints]
    return tuple(ints), den


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


# ---------------------------------------------------------------------------
# Hermite normal form (column style)


def hermite_normal_form(A) -> tuple[IntMatrix, IntMatrix]:
    """Column-style Hermite form: returns (H, U) with A @ U = H, U unimodular.

    Zero columns of H (if any) are pushed to the right.  The nonzero columns
    are the canonical basis of the column span of A over the integers.
    """
    M = IntMatrix.from_rows(A)
    h, w = M.shape
    H = [list(r) for r in M.rows]
    U = [[1 if i == j else 0 for j in range(w)] for i in range(w)]

    def swap(c1, c2):
        for i in range(h):
            H[i][c1], H[i][c2] = H[i][c2], H[i][c1]
        U[c1], U[c2] = U[c2], U[c1]

    def addmul(dst, src, q):
        # column_dst += q * column_src
        for i in range(h):
            H[i][dst] += q * H[i][src]
        for i in range(w):
            U[dst][i] += q * U[src][i]

    def negate(c):
        for i in range(h):
            H[i][c] = -H[i][c]
        U[c] = [-x for x in U[c]]

    c = 0
    for r in range(h):
        if c >= w:
            break
        while True:
            nz = [j for j in range(c, w) if H[r][j] != 0]
            if not nz:
                break
            j0 = min(nz, key=lambda j: abs(H[r][j]))
            if j0 != c:
                swap(c, j0)
            done = True
            for j in range(c + 1, w):
                if H[r][j] != 0:
                    q = H[r][j] // H[r][c]
                    if q:
                        addmul(j, c, -q)
                    if H[r][j] != 0:
                        done = False
            if done:
                break
        if H[r][c] == 0:
            continue
        if H[r][c] < 0:
            negate(c)
        for j in range(c):
            q = H[r][j] // H[r][c]
            if q:
                addmul(j, c, -q)
        c += 1

    # U is stored row-major as the transform on columns; convert to a matrix
    # with A @ U = H, i.e. U[j][k] multiplies original column j into new k.
    Umat = IntMatrix(tuple(tuple(U[k][i] for k in range(w)) for i in range(w)))
    return IntMatrix(tuple(tuple(row) for row in H)), Umat


def integer_kernel_basis(A) -> list[IVec]:
    """Basis of {x in Z^n : A x = 0}; saturated (a primitive basis)."""
    M = IntMatrix.from_rows(A)
    H, U = hermite_normal_form(M)
    h, w = H.shape
    zero_cols = [j for j in range(w) if all(H.rows[i][j] == 0 for i in range(h))]
    return [tuple(U.rows[i][j] for i in range(w)) for j in zero_cols]


# ---------------------------------------------------------------------------
# lattices


@dataclass(frozen=True)
class Lattice:
    """A (possibly rational, possibly lower-rank) lattice (1/den) * span_Z(cols).

    `cols` is the canonical Hermite basis of the integer span; `den` carries
    no common factor with the entries of `cols`.
    """

    dim: int
    cols: tuple[IVec, ...]
    den: int = 1

    @staticmethod
    def from_columns(dim: int, cols: Iterable[Sequence[int]], den: int = 1) -> "Lattice":
        cl = [as_ivec(c) for c in cols]
        for c in cl:
            if len(c) != dim:
                raise SizeMismatch("lattice column has wrong length")
        if den <= 0:
            raise InvalidInput("lattice denominator must be positive")
        if not cl:
            return Lattice(dim, (), 1)
        A = IntMatrix(tuple(tuple(c[i] for c in cl) for i in range(dim)))
        H, _ = hermite_normal_form(A)
        h, w = H.shape
        keep = [j for j in range(w) if any(H.rows[i][j] != 0 for i in range(h))]
        canon = [tuple(H.rows[i][j] for i in range(h)) for j in keep]
        if not canon:
            return Lattice(dim, (), 1)
        g = den
        for c in canon:
            for x in c:
                g = _gcd(g, abs(x))
                if g == 1:
                    break
            if g == 1:
                break
        if g > 1:
            den //= g
            canon = [tuple(x // g for x in c) for c in canon]
        return Lattice(dim, tuple(canon), den)

    @staticmethod
    def standard(dim: int) -> "Lattice":
        return Lattice.from_columns(dim, IntMatrix.identity(dim).T.rows)

    @property
    def rank(self) -> int:
        return len(self.cols)

    @property
    def basis_matrix(self) -> IntMatrix:
        # d x r, columns are basis vectors of den * lattice
        return IntMatrix(tuple(tuple(c[i] for c in self.cols) for i in range(self.dim)))

    def is_standard(self) -> bool:
        return self.den == 1 and self.rank == self.dim and self.basis_matrix.rows == IntMatrix.identity(self.dim).rows

    def covolume(self) -> Fraction:
        if self.rank != self.dim:
            raise RankDeficient("covolume needs a full-rank lattice")
        return Fraction(abs(self.basis_matrix.det()), self.den ** self.dim)

    def contains(self, v) -> bool:
        vv = [Fraction(x) for x in (v if not isinstance(v, (int, np.integer)) else (v,))]
        if len(vv) != self.dim:
            raise SizeMismatch("vector length does not match lattice dimension")
        scaled = [x * self.den for x in vv]
        if any(x.denominator != 1 for x in scaled):
            return False
        w = [int(x) for x in scaled]
        # forward substitution along the pivot rows of the echelon basis
        piv_rows = []
        for j, col in enumerate(self.cols):
            i = next(i for i in range(self.dim) if col[i] != 0)
            piv_rows.append(i)
        for j, col in enumerate(self.cols):
            i = piv_rows[j]
            q, r = divmod(w[i], col[i])
            if r != 0:
                return False
            for t in range(self.dim):
                w[t] -= q * col[t]
        return all(x == 0 for x in w)

    def __contains__(self, v) -> bool:
        return self.contains(v)


def lattice_eq(a: Lattice, b: Lattice) -> bool:
    return a.dim == b.dim and a.den == b.den and a.cols == b.cols


def dual_lattice(lat: Lattice) -> Lattice:
    """Dual {x : <x, g> in Z for all lattice vectors g}; needs full rank."""
    if lat.rank != lat.dim:
        raise RankDeficient("dual of a lower-rank lattice is not discrete")
    G = lat.basis_matrix.to_fractions()
    scaled = tuple(tuple(x / lat.den for x in row) for row in G)
    inv_t = f_transpose(f_inverse(scaled))
    den = 1
    for row in inv_t:
        for x in row:
            den = den * x.denominator // _gcd(den, x.denominator)
    cols = [tuple(int(inv_t[i][j] * den) for i in range(lat.dim)) for j in range(lat.dim)]
    return Lattice.from_columns(lat.dim, cols, den)


# ---------------------------------------------------------------------------
# residues


@lru_cache(maxsize=256)
def _hnf_cached(M: IntMatrix) -> IntMatrix:
    H, _ = hermite_normal_form(M)
    return H


def canonical_residue(R, v) -> IVec:
    """The canonical representative of v modulo R(Z^d).

    Representatives live in the Hermite box {w : 0 <= w[i] < H[i][i]} where H
    is the column Hermite form of R; reduction is greedy from the top row.
    """
    M = IntMatrix.from_rows(R)
    d = M.d
    if M.det() == 0:
        raise RankDeficient("residues modulo a singular matrix")
    H = _hnf_cached(M)
    w = list(as_ivec(v))
    if len(w) != d:
        raise SizeMismatch("vector length mismatch in residue reduction")
    for i in range(d):
        q = w[i] // H.rows[i][i]
        if q:
            for t in range(d):
                w[t] -= q * H.rows[t][i]
    return tuple(w)


@lru_cache(maxsize=256)
def adjugate(M: IntMatrix) -> tuple[IntMatrix, int]:
    """(adj M, det M) with M adj(M) = det(M) I, by exact cofactors."""
    d = M.d
    rows = M.rows

    def cofactor(i: int, j: int) -> int:
        # (-1)^(i+j) times the minor of M without row j and column i
        minor = [r[:i] + r[i + 1 :] for k, r in enumerate(rows) if k != j]
        return (-1) ** (i + j) * _bareiss_det(minor) if d > 1 else 1

    adj = IntMatrix(tuple(tuple(cofactor(i, j) for j in range(d)) for i in range(d)))
    return adj, M.det()


def _int_array(vecs, d: int, D: int, wide: bool) -> np.ndarray:
    """Integer vectors reduced mod D; object dtype when `wide`, else int64."""
    try:
        arr = np.array(vecs, dtype=object if wide else np.int64)
    except OverflowError:  # entries beyond int64; the residues still fit
        arr = np.array(vecs, dtype=object)
    arr = arr.reshape(-1, d) % D
    return arr if wide else arr.astype(np.int64)


def _kernel_setup(M, cols) -> tuple[np.ndarray, int, bool]:
    """Columns s adj(M) c mod D (one row per c), D = |det M|, and the dtype rule.

    int64 holds every sum of d products of residues when d D^2 < 2^63;
    beyond that the residues are Python ints in object arrays.
    """
    M = IntMatrix.from_rows(M)
    d = M.d
    adj, det = adjugate(M)
    if det == 0:
        raise RankDeficient("residues modulo a singular matrix")
    D = abs(det)
    wide = d * D * D >= 2**63
    sign = 1 if det > 0 else -1
    A = _int_array([[sign * x for x in row] for row in adj.rows], d, D, wide)
    C = _int_array(cols, d, D, wide)
    return (C @ A.T) % D, D, wide


def residues_unique(M, vecs) -> bool:
    """Whether the vectors are pairwise incongruent modulo M(Z^d).

    The keys s adj(M) v mod |det M| (s the sign of det M) are equal exactly
    when the vectors agree modulo M(Z^d).
    """
    keys, _, _ = _kernel_setup(M, vecs)
    return len({tuple(k) for k in keys.tolist()}) == len(keys)


def character_residues(M, rows, cols) -> tuple[np.ndarray, int]:
    """Integer r[i, j] with <M^{-1} c_j, l_i> = r[i, j] / D mod 1, D = |det M|.

    The one exact character kernel: <M^{-1} c, l> = s l^T adj(M) c / D with
    s the sign of det M, so reducing l and s adj(M) c modulo D first leaves
    a residue product.  The dtype is int64 when d D^2 < 2^63 and object
    (Python ints) otherwise.
    """
    AC, D, wide = _kernel_setup(M, cols)
    L = _int_array(rows, AC.shape[1], D, wide)
    r = L @ AC.T
    return np.remainder(r, D, out=r), D


def character_phases(M, rows, cols) -> np.ndarray:
    """The phases r / D in [0, 1) as floats, each correctly rounded."""
    r, D = character_residues(M, rows, cols)
    return np.asarray(r / D, dtype=float)


def inverse_image(M, vecs) -> np.ndarray:
    """Rows M^{-1} v for integer vectors v, each coordinate correctly rounded."""
    M = IntMatrix.from_rows(M)
    adj, det = adjugate(M)
    num = np.array(vecs, dtype=object).reshape(-1, M.d) @ np.array(adj.rows, dtype=object).T
    return (num / det).astype(float)


def complete_representatives(R) -> list[IVec]:
    """All |det R| canonical residues modulo R(Z^d), in lexicographic order."""
    M = IntMatrix.from_rows(R)
    d = M.d
    dt = abs(M.det())
    if dt == 0:
        raise RankDeficient("residues modulo a singular matrix")
    H = _hnf_cached(M)
    diag = [H.rows[i][i] for i in range(d)]
    out: list[IVec] = []

    def rec(i: int, prefix: list[int]):
        if i == d:
            out.append(tuple(prefix))
            return
        for x in range(diag[i]):
            rec(i + 1, prefix + [x])

    rec(0, [])
    assert len(out) == dt
    return out


def is_simple_digit_set(R, B) -> bool:
    """True iff the digits are pairwise incongruent modulo R(Z^d)."""
    M = IntMatrix.from_rows(R)
    digs = as_digit_list(B)
    if any(len(b) != M.d for b in digs):
        raise SizeMismatch("digit length does not match matrix dimension")
    return residues_unique(M, digs)


def smallest_invariant_lattice(R, B) -> Lattice:
    """Smallest R-invariant lattice containing the (0-translated) digit set.

    Generated by R^j b for 0 <= j < d; Cayley-Hamilton makes higher powers
    redundant.  If 0 is not among the digits they are first translated by the
    lexicographically smallest one.
    """
    M = IntMatrix.from_rows(R)
    d = M.d
    digs = as_digit_list(B)
    if any(len(b) != d for b in digs):
        raise SizeMismatch("digit length does not match matrix dimension")
    zero = (0,) * d
    if zero not in digs:
        b0 = min(digs)
        digs = tuple(tuple(x - y for x, y in zip(b, b0)) for b in digs)
    gens: list[IVec] = []
    P = IntMatrix.identity(d)
    for _ in range(d):
        gens.extend(P.matvec(b) for b in digs)
        P = M.mul(P)
    return Lattice.from_columns(d, gens)


# ---------------------------------------------------------------------------
# expansiveness


@lru_cache(maxsize=256)
def charpoly(M: IntMatrix) -> tuple[int, ...]:
    """Monic characteristic polynomial, highest degree first (exact)."""
    n = M.d
    A = M.to_fractions()
    Mk = tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))
    ck = Fraction(1)
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        AMk = f_matmul(A, Mk)
        Mk = tuple(
            tuple(AMk[i][j] + (ck if i == j else 0) for j in range(n)) for i in range(n)
        )
        AMk1 = f_matmul(A, Mk)
        ck = -sum((AMk1[i][i] for i in range(n)), Fraction(0)) / k
        coeffs.append(ck)
    assert all(c.denominator == 1 for c in coeffs)
    return tuple(int(c) for c in coeffs)


def _poly_eval_int(p: Sequence[int], x: int) -> int:
    acc = 0
    for c in p:
        acc = acc * x + c
    return acc


def _poly_mod(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = a[:]
    while len(a) >= len(b) and a:
        if a[0] == 0:
            a.pop(0)
            continue
        f = a[0] / b[0]
        for i in range(len(b)):
            a[i] -= f * b[i]
        a.pop(0)
    while a and a[0] == 0:
        a.pop(0)
    return a


def _has_reciprocal_root_pair(p: Sequence[int]) -> bool:
    """True iff p shares a root with its reversal (some pair lambda, 1/lambda).

    For a real polynomial this catches every root on the unit circle and every
    reciprocal pair straddling it; either way the matrix is not expansive.
    """
    a = [Fraction(c) for c in p]
    b = [Fraction(c) for c in reversed(p)]
    while a and a[0] == 0:
        a.pop(0)
    while b and b[0] == 0:
        b.pop(0)
    while b:
        a, b = b, _poly_mod(a, b)
    return len(a) > 1


def is_expansive(R, margin: float = 1e-9) -> bool:
    """True iff every eigenvalue modulus exceeds 1 (with a certified margin).

    Borderline moduli are resolved exactly where possible (rational roots at
    +-1, reciprocal root pairs); a residual numeric tie raises
    AmbiguousSpectrum instead of guessing.
    """
    M = IntMatrix.from_rows(R)
    p = charpoly(M)
    if p[-1] == 0:
        return False  # zero eigenvalue
    mods = np.abs(np.roots(np.array(p, dtype=float)))
    if np.all(mods > 1 + margin):
        return True
    if np.any(mods < 1 - margin):
        return False
    if _poly_eval_int(p, 1) == 0 or _poly_eval_int(p, -1) == 0:
        return False
    if _has_reciprocal_root_pair(p):
        return False
    raise AmbiguousSpectrum(
        f"eigenvalue modulus within {margin} of 1 for {M}; cannot classify"
    )


# ---------------------------------------------------------------------------
# conjugation records and reduction to a full system


@dataclass(frozen=True)
class ConjugationRecord:
    """An exact change of variables between two digit systems.

    The forward map acts on digits and points (b_new = forward @ b_old); the
    transpose-inverse acts on frequencies (l_new = backward^T @ l_old).  Both
    maps are stored exactly; `forward @ backward = I` is checked on creation.
    When the move rescales by a sublattice, `lattice_basis` holds its integer
    Hermite basis (the forward map is then rational with |det| < 1).
    """

    forward: tuple[FVec, ...]
    backward: tuple[FVec, ...]
    note: str
    lattice_basis: IntMatrix | None = None
    translation: IVec | None = None

    def __post_init__(self):
        prod = f_matmul(self.forward, self.backward)
        d = len(prod)
        for i in range(d):
            for j in range(d):
                if prod[i][j] != (1 if i == j else 0):
                    raise InvalidInput("conjugation record maps are not exact inverses")

    @staticmethod
    def from_unimodular(M: IntMatrix, note: str) -> "ConjugationRecord":
        det = M.det()
        if det not in (1, -1):
            raise InvalidInput("matrix is not unimodular")
        fwd = M.to_fractions()
        return ConjugationRecord(fwd, f_inverse(fwd), note)

    @staticmethod
    def identity(d: int, note: str = "identity") -> "ConjugationRecord":
        return ConjugationRecord(f_identity(d), f_identity(d), note)

    @property
    def dim(self) -> int:
        return len(self.forward)

    def is_unimodular(self) -> bool:
        if any(x.denominator != 1 for row in self.forward for x in row):
            return False
        M = IntMatrix.from_rows([[int(x) for x in row] for row in self.forward])
        return M.det() in (1, -1)

    def apply_matrix(self, R: IntMatrix) -> IntMatrix:
        conj = f_matmul(f_matmul(self.forward, R.to_fractions()), self.backward)
        if any(x.denominator != 1 for row in conj for x in row):
            raise InvalidInput("conjugated matrix is not integral")
        return IntMatrix.from_rows([[int(x) for x in row] for row in conj])

    def apply_digits(self, B) -> tuple[IVec, ...]:
        digs = as_digit_list(B)
        if self.translation is not None:
            digs = tuple(tuple(x - t for x, t in zip(b, self.translation)) for b in digs)
        out = []
        for b in digs:
            v = f_matvec(self.forward, b)
            if any(x.denominator != 1 for x in v):
                raise InvalidInput(f"digit {b} does not map to an integer vector")
            out.append(tuple(int(x) for x in v))
        return tuple(out)

    def apply_frequencies(self, L) -> tuple[IVec, ...]:
        bt = f_transpose(self.backward)
        out = []
        for l in as_digit_list(L):
            v = f_matvec(bt, l)
            if any(x.denominator != 1 for x in v):
                raise InvalidInput(f"frequency {l} does not map to an integer vector")
            out.append(tuple(int(x) for x in v))
        return tuple(out)

    def apply_frequency_point(self, x: Sequence[Fraction]) -> FVec:
        return f_matvec(f_transpose(self.backward), tuple(Fraction(t) for t in x))

    def unapply_frequency_point(self, x: Sequence[Fraction]) -> FVec:
        return f_matvec(f_transpose(self.forward), tuple(Fraction(t) for t in x))


@dataclass(frozen=True)
class ReducedPair:
    """Result of one normalization step on (R, B[, L])."""

    record: ConjugationRecord
    R: IntMatrix
    B: tuple[IVec, ...]
    L: tuple[IVec, ...] | None
    rank: int

    def project(self) -> tuple[IntMatrix, tuple[IVec, ...], tuple[IVec, ...] | None]:
        """The rank-dimensional subsystem (leading block and coordinates)."""
        r = self.rank
        R1 = IntMatrix.from_rows([row[:r] for row in self.R.rows[:r]])
        B1 = tuple(b[:r] for b in self.B)
        L1 = None if self.L is None else tuple(l[:r] for l in self.L)
        return R1, B1, L1


def reduce_to_full(R, B, L=None) -> ReducedPair:
    """One step toward a digit system whose invariant lattice is Z^d.

    Three cases:
    * invariant lattice has rank r < d: conjugate by a unimodular M so the
      digits land in Z^r x {0} and the matrix becomes block upper triangular;
    * full rank but a proper sublattice G(Z^d): rescale through G (digits map
      through G^{-1}, frequencies through G^T);
    * already standard: identity record.
    Digits are translated first if 0 is missing (recorded in the record).
    """
    M = IntMatrix.from_rows(R)
    d = M.d
    digs = as_digit_list(B)
    freqs = None if L is None else as_digit_list(L)
    zero = (0,) * d
    translation = None
    if zero not in digs:
        translation = min(digs)
    lat = smallest_invariant_lattice(M, digs)
    r = lat.rank
    if r == 0:
        rec = ConjugationRecord(
            f_identity(d), f_identity(d), "identity (single-atom digit set)",
            translation=translation,
        )
        return ReducedPair(rec, M, rec.apply_digits(digs), freqs, 0)
    if r < d:
        G = lat.basis_matrix  # d x r
        _, U = hermite_normal_form(G.T)  # (r x d) columns; G^T @ U has trailing zeros
        Mt = U.T
        rec = ConjugationRecord(
            Mt.to_fractions(),
            f_inverse(Mt.to_fractions()),
            "unimodular move of the invariant span onto the leading coordinates",
            translation=translation,
        )
        Rn = rec.apply_matrix(M)
        Bn = rec.apply_digits(digs)
        for b in Bn:
            if any(b[i] != 0 for i in range(r, d)):
                raise InconsistencyError("digits left the leading block")  # pragma: no cover
        for i in range(r, d):
            for j in range(r):
                if Rn.rows[i][j] != 0:
                    raise InconsistencyError("conjugated matrix is not block upper triangular")  # pragma: no cover
        Ln = None if freqs is None else rec.apply_frequencies(freqs)
        return ReducedPair(rec, Rn, Bn, Ln, r)
    if not lat.is_standard():
        if lat.den != 1:
            raise InvalidInput("integer digits generated a rational lattice")  # pragma: no cover
        G = lat.basis_matrix
        gf = G.to_fractions()
        rec = ConjugationRecord(
            f_inverse(gf),
            gf,
            "rescale through the invariant sublattice basis",
            lattice_basis=G,
            translation=translation,
        )
        Rn = rec.apply_matrix(M)
        Bn = rec.apply_digits(digs)
        Ln = None if freqs is None else rec.apply_frequencies(freqs)
        return ReducedPair(rec, Rn, Bn, Ln, d)
    rec = ConjugationRecord(
        f_identity(d), f_identity(d), "identity (lattice already standard)",
        translation=translation,
    )
    return ReducedPair(rec, M, rec.apply_digits(digs), freqs, d)


class InconsistencyError(AssertionError):
    """Internal invariant violation (should be unreachable)."""
