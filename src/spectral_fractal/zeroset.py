"""Detection and certification of periodic zeros of mu_hat.

The periodic zero set Z is the set of xi such that mu_hat(xi + k) = 0 for
every integer vector k.  Nonemptiness blocks integer spectra, so deciding it
matters.  Strategy:

* refute first: Z is invariant under the transfer dynamics, so a non-empty
  Z carries cycles; the periodic points of R^T, enumerated exactly and
  passed through a float prefilter, are certified before anything else;
* scan (the fallback for emptiness, d <= 2): float sweep of [0,1)^d against
  a window of integer translates, then snap near-misses to
  small-denominator rationals;
* certify: for a rational candidate, produce per-translate witnesses "the
  level-j mask factor vanishes", a vanishing sum of roots of unity decided
  exactly (by its reduced orders per axis for a product digit set) and judged
  in floats only beyond `triples.GENERAL_CAP`; the point
  steps through the levels as integer numerators over a common denominator;
* cycle: from the refuting witness x0 the orbit of x -> R^T x (mod Z^d) is
  walked; when x0 is periodic, its orbit, certified at the witness's own
  window, is the invariant cycle, and an invariant rational direction W is
  attached when sampled points of x0 + W certify as well.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from operator import mul

import numpy as np

from .errors import CycleNotFound, DimensionUnsupported, InvalidInput
from .intlat import (
    FVec,
    IntMatrix,
    IVec,
    Lattice,
    _poly_eval_int,
    adjugate,
    charpoly,
    clear_denominators,
    complete_representatives,
    integer_kernel_basis,
    poly_divmod,
    root_sum_vanishes,
)
from .measure import FourierEval, attractor_box
from .triples import GENERAL_CAP, AffinePair, mask_vanishes

OUT_FLOOR = 1e-3  # truncated |mu_hat| above this certifies "not a zero" (numeric grade)
SCAN_TAU = 1e-7  # a confirmed scan candidate stays below this on the whole window
SCAN_STEP = 1 / 256  # grid spacing of the scan over [0,1)^d
SNAP_DENOMINATOR = 64  # survivors snap to rationals with at most this denominator
CYCLE_PERIOD = 12  # periods m searched for cycle points
CYCLE_CAP = 4096  # periods with more than this many points mod Z^d are skipped
_PREFILTER_BLOCK = 2**16  # phase entries per block of the vanishing-order prefilter


# ---------------------------------------------------------------------------
# vanishing orders of a 1D digit mask


def _orders_with_totient_at_most(bound: int) -> list[int]:
    """Every q >= 2 with phi(q) <= bound, built from prime powers p^k with
    phi(p^k) = p^(k-1) (p - 1)."""
    primes = [p for p in range(2, bound + 2) if all(p % r for r in range(2, isqrt(p) + 1))]
    out = []

    def extend(i: int, q: int, phi: int):
        out.append(q)
        for j in range(i, len(primes)):
            p = primes[j]
            pk, phik = p, phi * (p - 1)
            if phik > bound:
                break
            while phik <= bound:
                extend(j + 1, q * pk, phik)
                pk, phik = pk * p, phik * p

    extend(0, 1, 1)
    return sorted(out)[1:]


def vanishing_orders_1d(digits: tuple[int, ...]) -> frozenset[int]:
    """Orders q such that every primitive q-th root of unity kills the digit mask.

    The mask at t = p/q (reduced) vanishes exactly when q is in this set, so
    rational mask zeros in one dimension are decided exactly.  Phi_q has
    degree phi(q), so only q with phi(q) <= deg can divide the digit
    polynomial P.  A float value |P(e^(2 pi i/q))| above the rounding bound
    proves P(zeta_q) != 0; it is taken for every candidate q at once, in
    blocks.  The other q are decided exactly on the exponents folded mod q
    (`intlat.root_sum_vanishes`).
    """
    lo = min(digits)
    exps = np.array([dd - lo for dd in digits], dtype=np.int64)
    deg = int(exps.max())
    n = len(exps)
    # each term is off by a few ulp and summing n of them adds at most n^2 eps
    bound = 1e-14 * n * (n + 1)
    qs = np.array(_orders_with_totient_at_most(deg), dtype=np.int64)
    step = max(1, _PREFILTER_BLOCK // n)
    orders = set()
    for s in range(0, len(qs), step):
        q = qs[s : s + step, None]
        vals = np.exp(2j * np.pi * ((exps % q) / q)).sum(axis=1)
        for qi in q[np.abs(vals) <= bound, 0].tolist():
            if root_sum_vanishes(exps % qi, qi):
                orders.add(qi)
    return frozenset(orders)


def _frac_mod1(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


@dataclass(frozen=True)
class MaskZeroStructure:
    """Exact description of the rational zeros of the digit mask, when available."""

    product: bool
    axis_orders: tuple[frozenset[int], ...] = ()


def mask_zero_structure(pair: AffinePair) -> MaskZeroStructure:
    d = pair.d
    axes = [tuple(sorted({b[i] for b in pair.B})) for i in range(d)]
    count = 1
    for a in axes:
        count *= len(a)
    if count == pair.N and set(pair.B) == set(itertools.product(*axes)):
        return MaskZeroStructure(True, tuple(vanishing_orders_1d(a) for a in axes))
    return MaskZeroStructure(False)


def mask_zero_test(pair: AffinePair, ms: MaskZeroStructure, v: IVec, den: int) -> tuple[bool, str]:
    """(mask vanishes at the point v / den, grade) for integer numerators v.

    Grade 'exact' means a rigorous verdict.  A coordinate c / den reduces
    mod 1 to the denominator den / gcd(c, den); a digit set that is not a
    product goes through the exact root-sum test of `triples.mask_vanishes`.
    """
    if ms.product:
        hit = any(den // gcd(c, den) in orders for c, orders in zip(v, ms.axis_orders))
        return hit, "exact"
    return mask_vanishes(pair.B, v, den, GENERAL_CAP)


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class ZeroCertificate:
    """Replayable evidence about one candidate point of the periodic zero set."""

    point: FVec
    K: int
    J: int
    status: str  # "in" | "out" | "inconclusive"
    witnesses: tuple[tuple[IVec, int], ...] = ()  # (translate k, mask level j)
    out_witness: IVec | None = None
    out_value: float = 0.0
    grade: str = "exact"
    unresolved: tuple[IVec, ...] = ()

    def __str__(self) -> str:
        """The point alone, as notes and messages print it: (0, 1/3)."""
        return "(" + ", ".join(map(str, self.point)) + ")"

    def to_dict(self) -> dict:
        return {
            "point": [[c.numerator, c.denominator] for c in self.point],
            "K": self.K,
            "J": self.J,
            "status": self.status,
            "witnesses": [[list(k), j] for k, j in self.witnesses],
            "out_witness": None if self.out_witness is None else list(self.out_witness),
            "out_value": self.out_value,
            "grade": self.grade,
            "unresolved": [list(k) for k in self.unresolved],
        }

    @staticmethod
    def from_dict(data: dict) -> "ZeroCertificate":
        return ZeroCertificate(
            point=tuple(Fraction(n, d) for n, d in data["point"]),
            K=int(data["K"]),
            J=int(data["J"]),
            status=data["status"],
            witnesses=tuple((tuple(k), int(j)) for k, j in data["witnesses"]),
            out_witness=None if data["out_witness"] is None else tuple(data["out_witness"]),
            out_value=float(data["out_value"]),
            grade=data["grade"],
            unresolved=tuple(tuple(k) for k in data.get("unresolved", ())),
        )


def _window(K: int, d: int):
    pts = sorted(
        itertools.product(range(-K, K + 1), repeat=d),
        key=lambda k: (max(abs(c) for c in k), k),
    )
    return pts


@lru_cache(maxsize=256)
def _inverse_step(R: IntMatrix) -> tuple[tuple[IVec, ...], int]:
    """(s adj(R^T), |det R|), s the sign of det R: their quotient is (R^T)^-1."""
    adj, det = adjugate(R.T)
    s = 1 if det > 0 else -1
    return tuple(tuple(s * c for c in row) for row in adj.rows), abs(det)


def _pullbacks(pair: AffinePair, a: IVec, L: int, k: IVec):
    """(R^T)^-j (a / L + k) for j = 1, 2, ... as (integer numerators, common
    denominator): the numerators step v -> s adj(R^T) v over L |det R|^j."""
    step, D = _inverse_step(pair.R)
    v = tuple(c + kk * L for c, kk in zip(a, k))
    den = L
    while True:
        v = tuple(sum(map(mul, row, v)) for row in step)
        den *= D
        yield v, den


def certify_zero(pair: AffinePair, xi0, K: int = 10, J: int = 30) -> ZeroCertificate:
    """Certify xi0 in/out of the periodic zero set over the translate window.

    "in": every translate xi0+k has a vanishing mask factor at some level
    j <= J (exact grade when all factor checks were exact).
    "out": some translate has truncated |mu_hat| above a safe floor.
    """
    point = tuple(Fraction(c) for c in xi0)
    if len(point) != pair.d:
        raise InvalidInput("candidate point has wrong dimension")
    ms = mask_zero_structure(pair)
    a, L = clear_denominators(point)
    ev = None  # built only for a translate with no mask zero within J levels
    witnesses: list[tuple[IVec, int]] = []
    unresolved: list[IVec] = []
    grade = "exact"
    for k in _window(K, pair.d):
        found = None
        for j, (v, den) in enumerate(itertools.islice(_pullbacks(pair, a, L, k), J), 1):
            hit, g = mask_zero_test(pair, ms, v, den)
            if hit:
                found = j
                if g == "numeric":
                    grade = "numeric"
                break
        if found is None:
            shifted = np.array([(c + kk * L) / L for c, kk in zip(a, k)])
            ev = ev or FourierEval(pair)
            mod = ev.mu_hat(shifted)
            if mod > OUT_FLOOR:
                return ZeroCertificate(
                    point, K, J, "out", tuple(witnesses), k, float(mod), "numeric"
                )
            unresolved.append(k)
        else:
            witnesses.append((k, found))
    if unresolved:
        return ZeroCertificate(
            point, K, J, "inconclusive", tuple(witnesses), None, 0.0, "numeric",
            tuple(unresolved),
        )
    return ZeroCertificate(point, K, J, "in", tuple(witnesses), None, 0.0, grade)


def replay_certificate(pair: AffinePair, cert: ZeroCertificate) -> bool:
    """Re-verify every witness of a certificate; used by the report verifier."""
    ms = mask_zero_structure(pair)
    if cert.status == "in":
        expected = {tuple(k) for k in _window(cert.K, pair.d)}
        if {k for k, _ in cert.witnesses} != expected:
            return False
        a, L = clear_denominators(cert.point)
        for k, j in cert.witnesses:
            if j < 1:
                return False
            v, den = next(itertools.islice(_pullbacks(pair, a, L, k), j - 1, None))
            if not mask_zero_test(pair, ms, v, den)[0]:
                return False
        return True
    if cert.status == "out":
        shifted = tuple(c + kk for c, kk in zip(cert.point, cert.out_witness))
        ev = FourierEval(pair)
        mod = ev.mu_hat(np.array([float(c) for c in shifted]))
        return bool(mod > OUT_FLOOR)
    return False


# ---------------------------------------------------------------------------
# scanning


def gcd_fast_path_1d(pair: AffinePair) -> str:
    """1D shortcut: coprime digits force an empty periodic zero set."""
    if pair.d != 1:
        raise DimensionUnsupported("gcd fast path is one-dimensional")
    digs = [b[0] for b in pair.B]
    lo = min(digs)
    g = 0
    for v in digs:
        g = gcd(g, v - lo)
    return "empty" if g == 1 else "unknown"


class ScanCandidates(list):
    """Confirmed scan candidates, plus how many grid points survived the
    prefilter (confirmed or not)."""

    survivors: int = 0


def _below_on_window(ev: FourierEval, pts: np.ndarray, K: int, tol: float) -> np.ndarray:
    """Mask of the points whose |mu_hat| stays below tol on every translate
    |k| <= K; one mu_hat call per translate, on the points still alive."""
    alive = np.ones(len(pts), dtype=bool)
    for k in _window(K, pts.shape[1]):
        if not alive.any():
            break
        idx = np.flatnonzero(alive)
        vals = ev.mu_hat(pts[idx] + np.array(k, dtype=float))
        alive[idx[np.atleast_1d(vals) >= tol]] = False
    return alive


def scan_zero_set(pair: AffinePair, K: int = 10) -> ScanCandidates:
    """Rational candidates for the periodic zero set found by a grid sweep.

    Grid points whose whole translate window stays below a Lipschitz-scaled
    prefilter are snapped to denominators <= SNAP_DENOMINATOR and kept only
    if the snapped point passes the strict tolerance SCAN_TAU on the full
    window.  Sorted by least common denominator, then lexicographically;
    the count of prefilter survivors rides along as `survivors`.
    """
    d = pair.d
    if d > 2:
        raise DimensionUnsupported("scanning supports d <= 2")
    ev = FourierEval(pair)
    lo, hi = attractor_box(pair)
    radius = float(np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi))))
    lip = 2 * np.pi * max(radius, 1e-9)
    pre = max(SCAN_TAU, lip * SCAN_STEP * np.sqrt(d))
    n = int(round(1 / SCAN_STEP))
    axes = [np.arange(n) * SCAN_STEP for _ in range(d)]
    if d == 1:
        grid = axes[0][:, None]
    else:
        X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
        grid = np.stack([X.ravel(), Y.ravel()], axis=-1)
    # candidate generation only needs a small translate window; the snapped
    # points are re-confirmed below against the full window at SCAN_TAU
    alive = _below_on_window(ev, grid, min(K, 3), pre)
    candidates: set[FVec] = set()
    for gp in grid[alive]:
        snapped = tuple(
            _frac_mod1(Fraction(float(c)).limit_denominator(SNAP_DENOMINATOR))
            for c in gp
        )
        candidates.add(snapped)
    cand_list = sorted(candidates)
    confirmed = []
    if cand_list:
        pts = np.array([[float(c) for c in v] for v in cand_list])
        ok = _below_on_window(ev, pts, K, SCAN_TAU)
        confirmed = [cand_list[i] for i in np.flatnonzero(ok)]

    out = ScanCandidates(sorted(confirmed, key=lambda v: (clear_denominators(v)[1], v)))
    out.survivors = int(alive.sum())
    return out


# ---------------------------------------------------------------------------
# periodic points


def _periodic_points(pair: AffinePair, max_period: int, candidate_cap: int):
    """Per period m <= max_period with A = (R^T)^m - I invertible: (m, L, a).

    Row i is the point a[i] / L[i] of [0,1)^d, L[i] its least common
    denominator: the nonzero x with (R^T)^m x = x (mod Z^d) that no earlier
    period yielded, sorted by (L, x).  They are x = s adj(A) z / |det A|
    mod 1 over the residues z modulo A, s the sign of det A, computed in
    integers.  L and a are None when |det A| exceeds candidate_cap.
    """
    d = pair.d
    Rt = pair.R.T
    seen: set[tuple[int, IVec]] = set()
    for m in range(1, max_period + 1):
        Am = Rt.pow(m).rows
        A = IntMatrix.from_rows([[Am[i][j] - (i == j) for j in range(d)] for i in range(d)])
        adj, det = adjugate(A)
        D = abs(det)
        if D == 0:
            continue
        if D > candidate_cap:
            yield m, None, None
            continue
        s = 1 if det > 0 else -1
        # entries below D on both sides: the products stay far inside int64
        adj_t = np.array([[s * c % D for c in row] for row in adj.T.rows], dtype=np.int64)
        num = np.array(complete_representatives(A), dtype=np.int64) @ adj_t % D
        g = np.gcd(np.gcd.reduce(num, axis=1), D)
        L, a = D // g, num // g[:, None]
        order = np.lexsort((*a.T[::-1], L))
        L, a = L[order], a[order]
        keys = list(zip(L.tolist(), map(tuple, a.tolist())))
        new = [key[0] > 1 and key not in seen for key in keys]
        seen.update(keys)
        yield m, L[new], a[new]


def _cycle_candidates(pair: AffinePair, K: int):
    """The periodic points of `_periodic_points` (periods <= CYCLE_PERIOD,
    |det| <= CYCLE_CAP), in its order, that keep |mu_hat| below SCAN_TAU on
    the translates |k| <= min(K, 3) (the scan's confirmation test, batched
    per period); as tuples of Fractions."""
    ev = FourierEval(pair)
    for _, L, a in _periodic_points(pair, CYCLE_PERIOD, CYCLE_CAP):
        if L is None or not len(L):
            continue
        # a and L are below 2^53, so each quotient is the correctly rounded x
        for i in np.flatnonzero(_below_on_window(ev, a / L[:, None], min(K, 3), SCAN_TAU)):
            yield tuple(Fraction(int(c), int(L[i])) for c in a[i])


# ---------------------------------------------------------------------------
# emptiness evidence


@dataclass(frozen=True)
class EmptinessEvidence:
    kind: str  # "gcd-1d" | "scan-clear" | "refuted" | "inconclusive"
    witness: ZeroCertificate | None = None
    note: str = ""

    @property
    def empty(self) -> bool:
        return self.kind in ("gcd-1d", "scan-clear")


def zero_set_empty_evidence(pair: AffinePair, K: int = 10) -> EmptinessEvidence:
    """Best-effort decision on whether the periodic zero set is empty.

    A non-empty zero set carries invariant cycles, so the periodic points
    come first: the first one that certifies "in" at window K refutes
    emptiness.  Otherwise (d <= 2 only) the grid scan decides.
    """
    if pair.d == 1 and gcd_fast_path_1d(pair) == "empty":
        return EmptinessEvidence("gcd-1d", note="digit differences are coprime")
    for x in _cycle_candidates(pair, K):
        cert = certify_zero(pair, x, K=K)
        if cert.status == "in":
            return EmptinessEvidence("refuted", witness=cert)
    candidates = scan_zero_set(pair, K=K)
    if not candidates and candidates.survivors:
        # a survivor may sit near a zero whose denominator the snap cannot reach
        return EmptinessEvidence(
            "inconclusive",
            note=f"prefilter: {candidates.survivors} grid points survived "
            f"but no snapped candidate was confirmed at window K={K}",
        )
    if not candidates:
        return EmptinessEvidence("scan-clear", note=f"no survivors at window K={K}")
    for cand in candidates:
        cert = certify_zero(pair, cand, K=K)
        if cert.status == "in":
            return EmptinessEvidence("refuted", witness=cert)
        if cert.status == "inconclusive":
            return EmptinessEvidence(
                "inconclusive", witness=cert, note="candidate resisted certification"
            )
    # a certified-out candidate says nothing of survivors that did not snap
    return EmptinessEvidence(
        "inconclusive",
        note=f"certification: all {len(candidates)} scan candidates certified out, "
        f"but {candidates.survivors} prefilter survivors are not accounted for",
    )


# ---------------------------------------------------------------------------
# invariant cycles


def rational_invariant_subspaces(A) -> list[tuple[IVec, ...]]:
    """Proper nonzero A-invariant rational subspaces (d <= 3), as saturated bases.

    Factors the characteristic polynomial over Q (complete for degree <= 3 by
    integer root extraction) and returns the kernels of f(A) for the proper
    divisors f.  Each kernel is A-invariant, since A commutes with f(A); its
    integer kernel basis spans W cap Z^d, given in Hermite form.
    """
    M = IntMatrix.from_rows(A)
    d = M.d
    if d > 3:
        raise DimensionUnsupported("invariant subspace search supports d <= 3")
    if d == 1:
        return []
    factors: list[list[int]] = []
    work = list(charpoly(M))
    while len(work) > 1:
        # an integer root of a monic integer polynomial divides its constant term
        c0 = work[-1]
        cands = {s * v for v in range(1, abs(c0) + 1) if c0 % v == 0 for s in (1, -1)}
        cands = [0] if c0 == 0 else sorted(cands, key=abs)
        root = next((r for r in cands if _poly_eval_int(work, r) == 0), None)
        if root is None:
            factors.append(work)
            break
        factors.append([1, -root])
        work, rem = poly_divmod(work, [1, -root])
        assert not rem
    found: set[tuple[int, tuple[IVec, ...]]] = set()
    nf = len(factors)
    for mask in range(1, 2**nf):
        chosen = [factors[i] for i in range(nf) if mask >> i & 1]
        deg = sum(len(f) - 1 for f in chosen)
        if not 1 <= deg < d:
            continue
        poly = [1]
        for f in chosen:
            out = [0] * (len(poly) + len(f) - 1)
            for i, a in enumerate(poly):
                for j, b in enumerate(f):
                    out[i + j] += a * b
            poly = out
        val = IntMatrix.identity(d)  # poly is monic: Horner from its leading 1
        for c in poly[1:]:
            val = M.mul(val).add_scalar(c)
        kernel = integer_kernel_basis(val)
        if not kernel or len(kernel) >= d:
            continue
        lat = Lattice.from_columns(d, kernel)
        found.add((lat.rank, lat.cols))
    return [cols for _, cols in sorted(found)]


@dataclass(frozen=True)
class InvariantCycle:
    """A certified cycle of the periodic zero set modulo Z^d, starting at
    the witness point; W is an invariant direction through it, or ()."""

    orbit: tuple[FVec, ...]
    W: tuple[IVec, ...]


def find_invariant_cycle(pair: AffinePair, witness: ZeroCertificate) -> InvariantCycle:
    """The cycle of x -> R^T x (mod Z^d) through a refuting witness.

    The orbit of x0 = witness.point is walked in integers for at most
    CYCLE_PERIOD steps; x0 is certified by the witness and every other
    orbit point is certified at the witness's window.  An invariant rational
    direction W is attached when sampled points of x0 + W certify at that
    window as well.  Raises CycleNotFound naming the point when x0 is not
    periodic or an orbit point fails to certify.
    """
    Rt = pair.R.T
    a, L = clear_denominators(witness.point)
    nums = [tuple(c % L for c in a)]
    for _ in range(CYCLE_PERIOD):
        nxt = tuple(c % L for c in Rt.matvec(nums[-1]))
        if nxt == nums[0]:
            break
        nums.append(nxt)
    else:
        raise CycleNotFound(f"witness {witness} is not periodic with period <= {CYCLE_PERIOD}")
    orbit = (witness.point, *(tuple(Fraction(c, L) for c in v) for v in nums[1:]))
    for pt in orbit[1:]:
        cert = certify_zero(pair, pt, K=witness.K)
        if cert.status != "in":
            raise CycleNotFound(f"orbit point {cert} certified {cert.status}")
    W = _attach_invariant_direction(pair, witness.point, witness.K)
    return InvariantCycle(orbit, W)


def _attach_invariant_direction(pair: AffinePair, x0: FVec, K: int):
    try:
        subspaces = rational_invariant_subspaces(pair.R.T)
    except DimensionUnsupported:
        return ()
    samples = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))
    for W in sorted(subspaces, key=lambda w: -len(w)):
        ok = True
        for basis_vec in W:
            for t in samples:
                pt = tuple(
                    _frac_mod1(c + t * b) for c, b in zip(x0, basis_vec)
                )
                if certify_zero(pair, pt, K=K).status != "in":
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return W
    return ()
