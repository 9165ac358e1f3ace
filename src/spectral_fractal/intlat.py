"""Exact integer linear algebra for expanding-matrix digit systems.

Every exact linear-algebra question -- a congruence, a lattice membership, a
rank, a kernel, an inverse, a characteristic polynomial -- is decided over
the integers: Hermite normal forms (kernels, ranks, lattice bases), Bareiss
determinants and the cached adjugate (inverses as adj(M) / det M).
Fractions remain only for rational points; a conjugation record is one
integer matrix.  Floating point is allowed in two places: estimating
eigenvalue moduli for the expansiveness test, where the borderline cases are
resolved exactly or rejected loudly, and the last step of the character
kernel (`character_residues`), where one correctly rounded division turns an
exact residue r / |det M| into a phase.

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

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod
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

    def add_scalar(self, c: int) -> "IntMatrix":
        """M + c I."""
        return IntMatrix(
            tuple(tuple(x + c * (i == j) for j, x in enumerate(r)) for i, r in enumerate(self.rows))
        )

    def det(self) -> int:
        return _bareiss_det(self.rows)

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
# rational points


def clear_denominators(vec: Sequence[Fraction]) -> tuple[IVec, int]:
    """Return (integer vector, den) with vec = ivec / den, den the least common
    denominator of the (reduced) entries, so gcd(ivec, den) = 1."""
    den = 1
    for x in vec:
        den = den * x.denominator // gcd(den, x.denominator)
    return tuple(x.numerator * (den // x.denominator) for x in vec), den


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
    """Basis of {x in Z^n : A x = 0}; saturated (a primitive basis).

    Each vector is oriented so that its last nonzero entry is positive.
    """
    M = IntMatrix.from_rows(A)
    H, U = hermite_normal_form(M)
    h, w = H.shape
    out = []
    for j in range(w):
        if all(H.rows[i][j] == 0 for i in range(h)):
            v = tuple(U.rows[i][j] for i in range(w))
            last = next(x for x in reversed(v) if x)
            out.append(v if last > 0 else tuple(-x for x in v))
    return out


# ---------------------------------------------------------------------------
# lattices


@dataclass(frozen=True)
class Lattice:
    """A (possibly lower-rank) integer lattice span_Z(cols).

    `cols` is the canonical Hermite basis of the span.
    """

    dim: int
    cols: tuple[IVec, ...]

    @staticmethod
    def from_columns(dim: int, cols: Iterable[Sequence[int]]) -> "Lattice":
        cl = [as_ivec(c) for c in cols]
        for c in cl:
            if len(c) != dim:
                raise SizeMismatch("lattice column has wrong length")
        if not cl:
            return Lattice(dim, ())
        A = IntMatrix(tuple(tuple(c[i] for c in cl) for i in range(dim)))
        H, _ = hermite_normal_form(A)
        h, w = H.shape
        keep = [j for j in range(w) if any(H.rows[i][j] != 0 for i in range(h))]
        return Lattice(dim, tuple(tuple(H.rows[i][j] for i in range(h)) for j in keep))

    @property
    def rank(self) -> int:
        return len(self.cols)

    @property
    def basis_matrix(self) -> IntMatrix:
        # d x r, columns are the basis vectors
        return IntMatrix(tuple(tuple(c[i] for c in self.cols) for i in range(self.dim)))

    def is_standard(self) -> bool:
        return self.rank == self.dim and self.basis_matrix.rows == IntMatrix.identity(self.dim).rows


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


def exact_array(x) -> np.ndarray:
    """Integers as an array (kept if one): int64 when every entry fits, else Python ints."""
    try:
        return x if isinstance(x, np.ndarray) else np.array(x, dtype=np.int64)
    except OverflowError:
        return np.array(x, dtype=object)


def _abs_max(a: np.ndarray) -> int:
    """max |a| as a Python int (0 when empty); exact even at -2^63."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def int_product(X, M, add) -> np.ndarray:
    """X M^T + add (broadcast), exact.  The one rule for integer arrays: int64
    when x m + c < 2^63, x = max(1, max|X|), m = max(1, max_i sum_j |M_ij|),
    c = max|add| in Python ints (bounding every partial sum); else Python ints."""
    M, X, add = IntMatrix.from_rows(M), exact_array(X), exact_array(add)
    m = max(1, *(sum(map(abs, row)) for row in M.rows))
    dtype = np.int64 if max(1, _abs_max(X)) * m + _abs_max(add) < 2**63 else object
    return X.astype(dtype) @ np.array(M.rows, dtype=dtype).T + add.astype(dtype)


def rounded_ratio(num: np.ndarray, den: int) -> np.ndarray:
    """num / den, each rounded once like float(Fraction(num, den)): a float
    division when both are exact doubles (within 2^53), else Python ints."""
    exact = num.dtype != object and _abs_max(num) <= 2**53 and abs(den) <= 2**53
    return num / den if exact else (num.astype(object) / den).astype(float)


def _int_array(vecs, d: int, D: int, wide: bool) -> np.ndarray:
    """Integer vectors reduced mod D; object dtype when `wide`, else int64."""
    arr = exact_array(vecs).reshape(-1, d)  # Python ints beyond int64
    arr = (arr.astype(object) if wide else arr) % D
    return arr if wide else arr.astype(np.int64)  # the residues fit


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
    """Rows M^{-1} v = adj(M) v / det M for integer vectors v: the numerators
    exact from `int_product`, each coordinate correctly rounded."""
    adj, det = adjugate(IntMatrix.from_rows(M))
    return rounded_ratio(int_product(exact_array(vecs).reshape(-1, adj.d), adj, 0), det)


def complete_representatives(R) -> list[IVec]:
    """All |det R| canonical residues modulo R(Z^d), in lexicographic order."""
    M = IntMatrix.from_rows(R)
    d = M.d
    dt = abs(M.det())
    if dt == 0:
        raise RankDeficient("residues modulo a singular matrix")
    H = _hnf_cached(M)
    out: list[IVec] = list(itertools.product(*(range(H.rows[i][i]) for i in range(d))))
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
    """Monic characteristic polynomial, highest degree first, by Faddeev-LeVerrier.

    With N_1 = I, c_k = -tr(M N_k) / k and N_{k+1} = M N_k + c_k I, the
    coefficient of x^(n-k) is c_k; the division by k is exact in integers.
    """
    coeffs = [1]
    N = IntMatrix.identity(M.d)
    for k in range(1, M.d + 1):
        MN = M.mul(N)
        coeffs.append(-sum(MN.rows[i][i] for i in range(M.d)) // k)
        N = MN.add_scalar(coeffs[-1])
    return tuple(coeffs)


def _poly_eval_int(p: Sequence[int], x: int) -> int:
    acc = 0
    for c in p:
        acc = acc * x + c
    return acc


def poly_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials over a monic b, highest-degree
    coefficient first.  No leading zeros remain in the remainder."""
    a, q = list(a), []
    for i in range(len(a) - len(b) + 1):
        q.append(a[i])
        for j in range(1, len(b)):
            a[i + j] -= q[-1] * b[j]
    rem = a[len(q) :]
    while rem and rem[0] == 0:
        rem.pop(0)
    return q, rem


@lru_cache(maxsize=1024)
def _radical_split(q: int) -> tuple[tuple[int, ...], int]:
    """The distinct primes of q, ascending, and s = q / rad(q)."""
    primes, m, p = [], q, 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    return tuple(primes), q // prod(primes)


def root_sum_vanishes(exps, q: int) -> bool:
    """Whether the sum of zeta_q^e over the exponents e in [0, q) is zero.

    Exponents count with multiplicity.  With t = rad(q) and s = q / t,
    zeta_q is a root of x^s - zeta_t of degree [Q(zeta_q) : Q(zeta_t)] = s,
    so 1, zeta_q, ..., zeta_q^(s-1) is a basis over Q(zeta_t): the sum
    vanishes iff, for each a = e mod s, the sum of the t-th roots
    zeta_t^(e div s) does.  For squarefree t, Q(zeta_t) is the tensor
    product of the Q(zeta_p), p | t, and indexing a t-th root by its
    residues mod each p differs from the CRT split by a Galois automorphism,
    which keeps zero and nonzero apart.  On each prime axis,
    zeta_p^(p-1) = -(1 + ... + zeta_p^(p-2)) leaves a basis; the sum is zero
    iff every coordinate left is.  O(q) integer work.
    """
    if q == 1:
        return len(exps) == 0
    primes, s = _radical_split(q)
    t = q // s
    counts = np.bincount(np.asarray(exps, dtype=np.int64), minlength=q).reshape(t, s)
    A = np.zeros(primes + (s,), dtype=np.int64)
    u = np.arange(t)
    A[tuple(u % p for p in primes)] = counts
    for axis, p in enumerate(primes):
        A = np.take(A, range(p - 1), axis) - np.take(A, [p - 1], axis)
    return not A.any()


def _has_reciprocal_root_pair(p: Sequence[int]) -> bool:
    """True iff p shares a root with its reversal (some pair lambda, 1/lambda).

    For a real polynomial this catches every root on the unit circle and every
    reciprocal pair straddling it; either way the matrix is not expansive.
    The two share a root exactly when their Sylvester resultant vanishes.
    """
    a = list(p)
    b = a[::-1]
    while a[0] == 0:
        a.pop(0)
    while b[0] == 0:
        b.pop(0)
    m, n = len(a) - 1, len(b) - 1
    sylvester = [[0] * i + a + [0] * (n - 1 - i) for i in range(n)]
    sylvester += [[0] * i + b + [0] * (m - 1 - i) for i in range(m)]
    return _bareiss_det(sylvester) == 0


_EXPANSIVE_MARGIN = 1e-9  # moduli this close to 1 get the exact tests


def is_expansive(R) -> bool:
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
    if np.all(mods > 1 + _EXPANSIVE_MARGIN):
        return True
    if np.any(mods < 1 - _EXPANSIVE_MARGIN):
        return False
    if _poly_eval_int(p, 1) == 0 or _poly_eval_int(p, -1) == 0:
        return False
    if _has_reciprocal_root_pair(p):
        return False
    raise AmbiguousSpectrum(
        f"eigenvalue modulus within {_EXPANSIVE_MARGIN} of 1 for {M}; cannot classify"
    )


# ---------------------------------------------------------------------------
# conjugation records and reduction to a full system


@dataclass(frozen=True)
class ConjugationRecord:
    """An exact change of variables between two digit systems.

    The move is one integer matrix G: R_new = G^{-1} R G, b_new =
    G^{-1} (b_old - translation) and l_new = G^T l_old.  G is the integral
    side: a Hermite sublattice basis for a rescale (|det G| > 1), else
    unimodular.  Every map is an integer product over det G, with
    G^{-1} = adj(G) / det G from the cached adjugate.
    """

    G: IntMatrix
    note: str
    translation: IVec | None = None

    @property
    def forward(self) -> tuple[FVec, ...]:
        adj, det = adjugate(self.G)
        return tuple(tuple(Fraction(x, det) for x in row) for row in adj.rows)

    @property
    def backward(self) -> tuple[IVec, ...]:
        return self.G.rows

    @property
    def lattice_basis(self) -> IntMatrix | None:
        return self.G if abs(self.G.det()) > 1 else None

    def apply_matrix(self, R: IntMatrix) -> IntMatrix:
        adj, det = adjugate(self.G)
        conj = adj.mul(R).mul(self.G)
        if any(x % det for row in conj.rows for x in row):
            raise InvalidInput("conjugated matrix is not integral")
        return IntMatrix(tuple(tuple(x // det for x in row) for row in conj.rows))

    def apply_digits(self, B) -> tuple[IVec, ...]:
        digs = as_digit_list(B)
        if self.translation is not None:
            digs = tuple(tuple(x - t for x, t in zip(b, self.translation)) for b in digs)
        adj, det = adjugate(self.G)
        out = []
        for b in digs:
            v = adj.matvec(b)
            if any(x % det for x in v):
                raise InvalidInput(f"digit {b} does not map to an integer vector")
            out.append(tuple(x // det for x in v))
        return tuple(out)

    def apply_frequencies(self, L) -> tuple[IVec, ...]:
        return tuple(self.G.T.matvec(l) for l in as_digit_list(L))

    def apply_frequency_point(self, x: Sequence[Fraction]) -> FVec:
        num, q = clear_denominators([Fraction(t) for t in x])
        return tuple(Fraction(v, q) for v in self.G.T.matvec(num))

    def unapply_frequency_point(self, x: Sequence[Fraction]) -> FVec:
        adj, det = adjugate(self.G)
        num, q = clear_denominators([Fraction(t) for t in x])
        return tuple(Fraction(v, det * q) for v in adj.T.matvec(num))


def unimodular_inverse(M: IntMatrix) -> IntMatrix:
    """M^{-1} = det(M) adj(M) for det M = +-1, the integral side of a unimodular move."""
    adj, det = adjugate(M)
    return IntMatrix(tuple(tuple(det * x for x in row) for row in adj.rows))


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
    translation = None if (0,) * d in digs else min(digs)
    lat = smallest_invariant_lattice(M, digs)
    r = lat.rank
    if r == 0:
        G, note = IntMatrix.identity(d), "identity (single-atom digit set)"
    elif r < d:
        _, U = hermite_normal_form(lat.basis_matrix.T)  # (r x d); basis^T @ U has trailing zeros
        G = unimodular_inverse(U.T)
        note = "unimodular move of the invariant span onto the leading coordinates"
    elif not lat.is_standard():
        G, note = lat.basis_matrix, "rescale through the invariant sublattice basis"
    else:
        G, note = IntMatrix.identity(d), "identity (lattice already standard)"
    rec = ConjugationRecord(G, note, translation)
    Rn = rec.apply_matrix(M)
    Bn = rec.apply_digits(digs)
    if 0 < r < d:
        for b in Bn:
            if any(b[i] != 0 for i in range(r, d)):
                raise InconsistencyError("digits left the leading block")  # pragma: no cover
        for i in range(r, d):
            for j in range(r):
                if Rn.rows[i][j] != 0:
                    raise InconsistencyError("conjugated matrix is not block upper triangular")  # pragma: no cover
    Ln = None if L is None else rec.apply_frequencies(L)
    return ReducedPair(rec, Rn, Bn, Ln, r)


class InconsistencyError(AssertionError):
    """Internal invariant violation (should be unreachable)."""
