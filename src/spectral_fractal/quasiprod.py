"""Splitting a digit system along an invariant frequency direction.

When the periodic zero set of mu_hat is nonempty, no integer lattice of
frequencies can be complete.  The measure may still carry a spectrum of
quasi-product shape: integer frequencies along an invariant block of
coordinates and rational frequencies with one fixed denominator transverse
to it.  The steps implemented here:

* rotate the invariant direction onto the leading coordinates by a
  unimodular change of variables (``triangularize``), making the matrix
  block lower triangular;
* canonicalize the transverse components of the frequency set without
  touching the unitary (``normalize_frequencies``);
* split the digits into groups over the leading block, check each group
  fills the transverse residues, and extract the transverse congruence
  lattice from the cycle orbit (``decompose``);
* build the product candidate Lambda_1 x (1/beta) Z and accept it only if a
  truncated completeness sweep stays near one on a grid (``product_spectrum``);
* drive the whole pipeline, including the integer branch when the zero set
  is empty (``full_spectrum``), and map every reported frequency back to
  the input coordinates (``report_frequencies``).

All coordinate moves are recorded as exact ConjugationRecords so reported
frequencies can be replayed against the original system.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

import numpy as np

from .errors import (
    CapExceeded,
    CycleNotFound,
    DimensionUnsupported,
    GammaFullOrTrivial,
    InconsistentDecomposition,
    InvalidInput,
    NoBetaAccepted,
    NotCompleteReps,
    NotInvariant,
)
from .intlat import (
    ConjugationRecord,
    FVec,
    IntMatrix,
    IVec,
    Lattice,
    adjugate,
    as_digit_list,
    canonical_residue,
    clear_denominators,
    exact_array,
    hermite_normal_form,
    int_product,
    integer_kernel_basis,
    reduce_to_full,
    unimodular_inverse,
)
from .measure import TAIL_TOL, FourierEval
from .triples import HadamardTriple, hadamard_triple
from .spectra import SpectrumTree, corrected_tree
from .zeroset import EmptinessEvidence, find_invariant_cycle, zero_set_empty_evidence

T_WINDOW = 60  # the product sweep keeps |t| <= T_WINDOW transverse steps
XI_GRID = 4  # sweep points per axis, at cell centres of [0,1)^d
THRESHOLD = 0.95  # minimum sweep sum that accepts a beta
SWEEP_CAP = 2**23  # most mu_hat evaluations of one product sweep

__all__ = [
    "TriangularForm",
    "triangularize",
    "normalize_frequencies",
    "transverse_lattice",
    "QuasiProduct",
    "decompose",
    "ProductSpectrum",
    "product_spectrum",
    "SpectrumReport",
    "full_spectrum",
    "map_frequency_back",
    "report_frequencies",
]


# ---------------------------------------------------------------------------
# block triangular form


def _blocks(R: IntMatrix, r: int) -> tuple[IntMatrix, IntMatrix]:
    """(R1, R2) of a block lower triangular matrix; top-right must vanish."""
    d = R.d
    for i in range(r):
        for j in range(r, d):
            if R.rows[i][j] != 0:
                raise InvalidInput("matrix is not block lower triangular")
    R1 = IntMatrix.from_rows([row[:r] for row in R.rows[:r]])
    R2 = IntMatrix.from_rows([row[r:] for row in R.rows[r:]])
    return R1, R2


@dataclass(frozen=True)
class TriangularForm:
    """A unimodular conjugation exposing an invariant frequency block."""

    record: ConjugationRecord
    R_new: IntMatrix
    r: int


def triangularize(R, W) -> TriangularForm:
    """Conjugate so span(W), invariant under R^T, becomes the leading block.

    W is a basis (rational vectors allowed) of a proper nonzero subspace
    invariant under the transpose of R.  The returned unimodular move M
    satisfies: M R M^{-1} is block lower triangular with an r x r leading
    block, and frequency coordinates transform so that span(W) maps onto
    the span of the first r coordinate vectors.
    """
    M = IntMatrix.from_rows(R)
    d = M.d
    rows = [clear_denominators([Fraction(c) for c in w])[0] for w in W]
    if not rows or any(len(w) != d for w in rows):
        raise InvalidInput("subspace basis must be nonempty vectors of matching length")
    # the integer normals of W: span(W) is exactly the vectors they annihilate
    normals = integer_kernel_basis(rows)
    r = d - len(normals)
    if r != len(rows):
        raise InvalidInput("subspace basis is linearly dependent")
    if r >= d:
        raise InvalidInput("subspace must be proper; nothing to split")
    Rt = M.T
    for w in rows:
        img = Rt.matvec(w)
        if any(sum(a * b for a, b in zip(nrm, img)) for nrm in normals):
            raise NotInvariant("subspace is not invariant under the transposed matrix")
    # the integer kernel of the normals is the saturation W cap Z^d, read
    # off the Hermite transform's kernel columns
    H, U = hermite_normal_form(normals)
    h, w_ = H.shape
    zero_cols = [j for j in range(w_) if all(H.rows[i][j] == 0 for i in range(h))]
    if len(zero_cols) != r:  # pragma: no cover - normals have full row rank
        raise InvalidInput("annihilator rank inconsistent with subspace dimension")
    order = zero_cols + [j for j in range(w_) if j not in zero_cols]
    T = IntMatrix.from_rows([[U.rows[i][j] for j in order] for i in range(d)])
    rec = ConjugationRecord(
        unimodular_inverse(T.T),
        "rotate the invariant frequency direction onto the leading coordinates",
    )
    R_new = rec.apply_matrix(M)
    _blocks(R_new, r)  # raises unless R_new is block lower triangular
    return TriangularForm(rec, R_new, r)


def normalize_frequencies(R_new: IntMatrix, L, r: int) -> tuple[IVec, ...]:
    """Push the transverse block of every frequency to its canonical residue.

    Adding R^T k to a frequency leaves the unitary literally unchanged, so
    this replaces each l by l + R^T (0, v) with v chosen to move the last
    d - r components onto the canonical residue mod R2^T.  The leading
    components absorb the matching C^T v shift.
    """
    _, R2 = _blocks(R_new, r)
    R2t = R2.T
    adj2, det2 = adjugate(R2t)
    freqs = as_digit_list(L)
    out = []
    for l in freqs:
        l2 = l[r:]
        canon = canonical_residue(R2t, l2)
        diff = tuple(c - x for c, x in zip(canon, l2))
        # v = (R2^T)^{-1} diff = adj(R2^T) diff / det R2^T
        v = adj2.matvec(diff)
        if any(x % det2 for x in v):  # pragma: no cover - exact residue
            raise InvalidInput("canonical residue is not congruent mod R2^T")
        move = R_new.T.matvec((0,) * r + tuple(x // det2 for x in v))
        out.append(tuple(a + m for a, m in zip(l, move)))
    return tuple(out)


# ---------------------------------------------------------------------------
# transverse congruence lattice and the decomposition


def transverse_lattice(ys, n: int) -> Lattice:
    """The lattice {x in Z^n : <x, y> in Z for every y in ys}.

    Each congruence <x, y> in Z becomes an integer row [num_y | den_y e_j]
    over unknowns (x, t); the x-parts of the joint integer kernel span the
    answer.  Always full rank: lcm(dens) Z^n is contained in it.
    """
    rows = []
    ys = [tuple(Fraction(c) for c in y) for y in ys]
    m = len(ys)
    for j, y in enumerate(ys):
        nums, den = clear_denominators(y)
        row = list(nums) + [0] * m
        row[n + j] = den
        rows.append(row)
    if not rows:
        return Lattice.from_columns(n, [tuple(int(i == j) for i in range(n)) for j in range(n)])
    kern = integer_kernel_basis(IntMatrix.from_rows(rows))
    return Lattice.from_columns(n, [k[:n] for k in kern])


@dataclass(frozen=True)
class QuasiProduct:
    """A digit system split over the leading block, in block triangular
    coordinates.

    Digits group by their leading component u; each group's transverse
    parts form a complete residue system mod R2 and sit on one coset of
    Q Z^{d-r}.  ``sub`` is the leading-block system (R1, {u}, L1) built
    from the frequencies whose transverse block vanishes.
    """

    r: int
    R1: IntMatrix
    R2: IntMatrix
    Q: IntMatrix
    u_values: tuple[IVec, ...]
    sub: HadamardTriple

    @property
    def transverse_index(self) -> int:
        return abs(self.Q.det())


def decompose(triple: HadamardTriple, r: int, orbit) -> QuasiProduct:
    """Split a block triangular system into base digits and transverse layer.

    ``orbit`` is the invariant cycle in the new coordinates; only its last
    d - r components matter, they pin down the transverse congruence
    lattice Gamma = Q Z^{d-r}.  Raises NotCompleteReps when some digit
    group misses a residue, GammaFullOrTrivial when the congruences force
    Gamma = Z^{d-r}, and InconsistentDecomposition when the offsets or R2
    do not respect Gamma.
    """
    R = triple.R
    d = R.d
    if not 0 < r < d:
        raise InvalidInput("leading block size must be strictly between 0 and d")
    R1, R2 = _blocks(R, r)
    groups: dict[IVec, list[IVec]] = {}
    for b in triple.B:
        groups.setdefault(b[:r], []).append(b[r:])
    u_values = tuple(sorted(groups))
    det2 = abs(R2.det())
    for u in u_values:
        seconds = groups[u]
        if len(seconds) != det2:
            raise NotCompleteReps(
                f"digit group over {u} has {len(seconds)} members, needs |det R2| = {det2}"
            )
        if len({canonical_residue(R2, s) for s in seconds}) != det2:
            raise NotCompleteReps(f"digit group over {u} collides mod R2")
    ys = tuple(x[r:] for x in orbit)
    lat = transverse_lattice(ys, d - r)
    Q = lat.basis_matrix
    # x lies in Q Z^{d-r} iff Q^{-1} x = adj(Q) x / det Q is integral
    adjQ, detQ = adjugate(Q)
    if abs(detQ) < 2:
        raise GammaFullOrTrivial("cycle congruences admit every integer vector")
    for u in u_values:
        v = min(groups[u])
        for s in sorted(groups[u]):
            off = tuple(a - b for a, b in zip(s, v))
            if any(x % detQ for x in adjQ.matvec(off)):
                raise InconsistentDecomposition(f"offset {off} is outside the transverse lattice")
    if any(x % detQ for row in adjQ.mul(R2).mul(Q).rows for x in row):
        raise InconsistentDecomposition("R2 does not preserve the transverse lattice")
    L1 = tuple(l[:r] for l in triple.L if all(c == 0 for c in l[r:]))
    if len(L1) != len(u_values):
        raise InconsistentDecomposition(
            f"{len(L1)} frequencies have vanishing transverse block, "
            f"need one per base digit ({len(u_values)})"
        )
    sub = hadamard_triple(R1, u_values, L1).require_validated()
    return QuasiProduct(r, R1, R2, Q, u_values, sub)


# ---------------------------------------------------------------------------
# product candidate and its completeness sweep


@dataclass(frozen=True)
class ProductSpectrum:
    """An accepted candidate Lambda_1 x (1/beta) Z^{d-r} with sweep evidence.

    ``minimum`` and ``maximum`` are its smallest and largest sweep sums;
    ``rejected`` holds (beta, smallest sum, largest sum) of each candidate
    tried before it.
    """

    beta: int
    step: Fraction
    minimum: float
    maximum: float
    threshold: float
    t_window: int
    lam1_count: int
    rejected: tuple[tuple[int, float, float], ...]


def product_spectrum(
    triple: HadamardTriple,
    quasi: QuasiProduct,
    lam1_points,
    betas=None,
) -> ProductSpectrum:
    """Test Lambda_1 x (1/beta) Z against a truncated completeness sweep.

    For each candidate denominator beta the sum sum_{lam} |mu_hat(xi+lam)|^2
    over the truncated product set Lambda_1 x {t / beta : |t| <= T_WINDOW},
    the points (lam_1, t / beta) with lam_1 in the leading r coordinates, is
    evaluated on an off-lattice grid of xi (XI_GRID points per axis): one
    `mu_hat_sq` table of the steps t / beta against Lambda_1 + xi per xi.
    The first beta whose sums all lie in [THRESHOLD, 1 + allowance] is
    accepted.  For an orthonormal set every true sum is at most 1 (Bessel).
    Each computed term exceeds its true value by at most TAIL_TOL (the tail
    bound of `mu_hat_sq`), and a float sum S of n non-negative terms is
    within n eps S of their exact sum, so the allowance is n (TAIL_TOL +
    eps S) for n terms.  The default beta list is q, 2q, 3q with q the
    transverse lattice index.  Each sweep sum adds the per-t block sums in
    the order of |t|.  Raises NoBetaAccepted with the smallest and largest
    sum of every candidate when none is accepted.
    """
    d = triple.R.d
    r = quasi.r
    if d - r != 1:
        raise DimensionUnsupported("product sweep only handles a one-dimensional transverse block")
    q = quasi.transverse_index
    if betas is None:
        betas = (q, 2 * q, 3 * q)
    lam1 = [tuple(float(c) for c in p) for p in lam1_points]
    if not lam1 or any(len(p) != r for p in lam1):
        raise InvalidInput("need a nonempty base frequency set in the leading coordinates")
    ts = sorted(range(-T_WINDOW, T_WINDOW + 1), key=lambda t: (abs(t), t))
    axes = [(np.arange(XI_GRID) + 0.5) / XI_GRID for _ in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=-1)
    terms = len(lam1) * len(ts)
    if terms * len(grid) > SWEEP_CAP:
        raise CapExceeded("product sweep evaluations", terms * len(grid), SWEEP_CAP)
    ev = FourierEval(triple.pair)
    base = np.zeros((len(lam1), d))
    base[:, :r] = lam1
    rejected = []
    for beta in betas:
        # table rows: the steps t / beta, ordered by |t|; columns: Lambda_1 + xi
        steps = np.zeros((len(ts), d))
        steps[:, r] = np.array(ts) / beta
        sums = [float(np.cumsum(ev.mu_hat_sq(steps, base + xi).sum(axis=1))[-1]) for xi in grid]
        lo, hi = min(sums), max(sums)
        if lo >= THRESHOLD and hi <= 1 + terms * (TAIL_TOL + np.finfo(float).eps * hi):
            return ProductSpectrum(
                beta=int(beta),
                step=Fraction(1, int(beta)),
                minimum=lo,
                maximum=hi,
                threshold=THRESHOLD,
                t_window=T_WINDOW,
                lam1_count=len(lam1),
                rejected=tuple(rejected),
            )
        rejected.append((int(beta), lo, hi))
    raise NoBetaAccepted(
        f"no transverse denominator kept its sweep sums in [{THRESHOLD}, 1 + allowance]: "
        + ", ".join(f"beta={b} sums in [{lo:.4f}, {hi:.4f}]" for b, lo, hi in rejected)
    )


# ---------------------------------------------------------------------------
# the full pipeline


@dataclass(frozen=True)
class SpectrumReport:
    """Outcome of the spectrum pipeline.

    ``frequencies`` lists up to ``limit`` spectrum frequencies in input
    coordinates; it is built on first access, once per report.
    """

    status: str  # "spectral" | "undecided"
    branch: str  # "orthonormal" | "quasi-product" | "point-mass" | ""
    integer_spectrum: str  # "yes" | "no" | "unknown"
    records: tuple[ConjugationRecord, ...]
    evidence: EmptinessEvidence | None
    tree: SpectrumTree | None
    quasi: QuasiProduct | None
    product: ProductSpectrum | None
    sub_report: "SpectrumReport | None"
    limit: int
    note: str = ""

    @cached_property
    def frequencies(self) -> tuple[FVec, ...]:
        return report_frequencies(self)


def map_frequency_back(points, records) -> list[FVec]:
    """Undo a chain of coordinate moves on frequency points of one dimension.

    ``records`` is outermost-first; points shorter than a record (from a
    projected block system) are padded with zeros, which is exact because
    the measure lives in the leading coordinates there.  The integer or
    ``Fraction`` points go to `_map_numerators_back` over their common denominator.
    """
    if not len(points):
        return []
    num, q = clear_denominators([x for p in points for x in p])
    return _map_numerators_back(exact_array(num).reshape(len(points), -1), q, records)


def _map_numerators_back(num: np.ndarray, q: int, records) -> list[FVec]:
    """`map_frequency_back` of the points num / q, num an integer array.

    Each record undoes by G^{-T} = adj(G)^T / det G, so the chain composes to
    one integer matrix (the padding embeds the leading coordinates) over the
    product D of the determinants: one integer product maps every row over
    D q, and each ``Fraction`` is formed once at the end.
    """
    d = num.shape[1]
    A, D = IntMatrix.identity(d), 1
    for rec in reversed(records):
        adj, det = adjugate(rec.G)
        A = adj.T.mul(IntMatrix(A.rows + ((0,) * d,) * (rec.G.d - len(A.rows))))
        D *= det
    out = int_product(num, A, 0)
    return [tuple(Fraction(v, D * q) for v in row) for row in out.tolist()]


def report_frequencies(report: SpectrumReport) -> tuple[FVec, ...]:
    """Up to ``report.limit`` spectrum frequencies in input coordinates.

    The orthonormal branch maps the tree's points back; the quasi-product
    branch takes the sub-report's list as Lambda_1 and extends it by the
    transverse steps t / beta, ordered by |t|, as numerators over one
    denominator; the point mass has only 0.  An undecided report has none.
    Every prefix of the list is the list of a smaller limit.
    """
    if report.branch == "point-mass":
        pts = [(0,)]
    elif report.branch == "orthonormal" and report.tree is not None:
        pts = report.tree.points[: report.limit]
    elif report.branch == "quasi-product" and report.product is not None:
        beta = report.product.beta
        base = report.sub_report.frequencies
        q = lcm(beta, *(x.denominator for lam in base for x in lam))
        lam1 = exact_array([[int(x * q) for x in lam] for lam in base])
        ts = sorted(range(-report.product.t_window, report.product.t_window + 1),
                    key=lambda t: (abs(t), t))[: -(-report.limit // len(base))]
        steps = exact_array([t * (q // beta) for t in ts])
        num = np.column_stack([np.tile(lam1, (len(ts), 1)), np.repeat(steps, len(base))])
        return tuple(_map_numerators_back(num[: report.limit], q, report.records))
    else:
        return ()
    return tuple(map_frequency_back(pts, report.records))


_QUASI_FAILURES = (
    CycleNotFound,
    NotInvariant,
    NotCompleteReps,
    GammaFullOrTrivial,
    InconsistentDecomposition,
    NoBetaAccepted,
    DimensionUnsupported,
)


def full_spectrum(
    triple: HadamardTriple,
    K: int = 6,
    scan_K: int = 10,
    limit: int = 4096,
    _depth: int = 0,
) -> SpectrumReport:
    """Decide and construct a spectrum, integer or quasi-product.

    Pipeline: normalize the digit system (translate, cut to the invariant
    block, rescale through a sublattice) while recording every move; gather
    zero-set evidence; when the periodic zero set is empty build the
    corrected integer frequency tree, otherwise locate an invariant cycle,
    triangularize along its attached direction, decompose, recurse on the
    leading block and test the product candidate.  Structural failures of
    the quasi-product branch are reported as status "undecided" with the
    reason in ``note`` (the refutation of integer spectra still stands).
    The report's frequency list holds at most ``limit`` points, and
    ``limit`` must be at least 1.
    """
    if limit < 1:
        raise InvalidInput(f"limit must be >= 1, got {limit}")
    triple.require_validated()
    if _depth > 4:
        raise CapExceeded("recursion depth", _depth, 4)
    records: list[ConjugationRecord] = []
    R, B, L = triple.R, triple.B, triple.L
    for _ in range(8):
        rp = reduce_to_full(R, B, L)
        if (
            rp.rank == R.d
            and rp.record.note.startswith("identity")
            and rp.record.translation is None
        ):
            break
        records.append(rp.record)
        if rp.rank == 0:
            return SpectrumReport(
                "spectral", "point-mass", "yes", tuple(records), None, None, None,
                None, None, limit, note="single-atom measure, only frequency zero",
            )
        if rp.rank < R.d:
            R, B, L = rp.project()
        else:
            R, B, L = rp.R, rp.B, rp.L
        triple = hadamard_triple(R, B, L).require_validated()
    recs = tuple(records)
    pair = triple.pair
    evidence = zero_set_empty_evidence(pair, K=scan_K)
    if evidence.empty:
        tree = corrected_tree(triple, K, evidence=evidence)
        return SpectrumReport(
            "spectral", "orthonormal", "yes", recs, evidence, tree, None, None,
            None, limit,
        )
    if evidence.kind != "refuted":
        return SpectrumReport(
            "undecided", "", "unknown", recs, evidence, None, None, None, None,
            limit, note=f"zero-set scan inconclusive: {evidence.note}",
        )
    witness = evidence.witness
    try:
        cycle = find_invariant_cycle(pair, witness)
        if not cycle.W:
            raise CycleNotFound("cycle found but no invariant direction certified")
        tri = triangularize(triple.R, cycle.W)
        B2 = tri.record.apply_digits(triple.B)
        L2 = normalize_frequencies(tri.R_new, tri.record.apply_frequencies(triple.L), tri.r)
        t2 = hadamard_triple(tri.R_new, B2, L2).require_validated()
        orbit2 = tuple(tri.record.apply_frequency_point(x) for x in cycle.orbit)
        quasi = decompose(t2, tri.r, orbit2)
        sub_report = full_spectrum(quasi.sub, K=K, scan_K=scan_K, limit=limit, _depth=_depth + 1)
        if sub_report.status != "spectral":
            return SpectrumReport(
                "undecided", "quasi-product", "no", recs, evidence, None, quasi,
                None, sub_report, limit,
                note="leading-block subsystem spectrum undecided",
            )
        product = product_spectrum(t2, quasi, sub_report.frequencies)
    except _QUASI_FAILURES as exc:
        return SpectrumReport(
            "undecided", "quasi-product", "no", recs, evidence, None, None, None,
            None, limit,
            note=f"no integer spectrum (witness {witness}); "
            f"quasi-product splitting failed: {type(exc).__name__}: {exc}",
        )
    return SpectrumReport(
        "spectral", "quasi-product", "no", (*recs, tri.record), evidence, None,
        quasi, product, sub_report, limit,
        note=f"integer spectra refuted by periodic zero at {witness}; completeness "
        f"sampled at {XI_GRID ** t2.R.d} points over |t| <= {product.t_window}",
    )
