"""Detection and certification of periodic zeros of mu_hat.

The periodic zero set Z is the set of xi such that mu_hat(xi + k) = 0 for
every integer vector k.  Nonemptiness blocks integer spectra, so deciding it
matters.  Strategy:

* scan: float sweep of [0,1)^d against a window of integer translates, then
  snap near-misses to small-denominator rationals;
* certify: for a rational candidate, produce per-translate witnesses "the
  level-j mask factor vanishes", checked in exact arithmetic whenever the
  digit set factors axis-by-axis (vanishing sums of roots of unity reduce to
  cyclotomic divisibility), falling back to numerics otherwise;
* dynamics: the transfer weight u moves Z into itself, so certified points
  organize into cycles modulo Z^d with an invariant rational direction W.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .errors import CycleNotFound, DimensionUnsupported, InvalidInput
from .intlat import (
    FVec,
    IntMatrix,
    IVec,
    Lattice,
    charpoly,
    clear_denominators,
    complete_representatives,
    f_inverse,
    f_matvec,
    f_nullspace,
)
from .measure import FourierEval
from .triples import AffinePair

OUT_FLOOR = 1e-3  # truncated |mu_hat| above this certifies "not a zero" (numeric grade)
NUMERIC_ZERO = 1e-12


# ---------------------------------------------------------------------------
# cyclotomic helpers (integer polynomials, highest-degree coefficient first)


def _poly_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    # b must be monic
    assert b[0] == 1
    a = a[:]
    q = []
    while len(a) >= len(b):
        c = a[0]
        q.append(c)
        for i in range(len(b)):
            a[i] -= c * b[i]
        assert a[0] == 0
        a.pop(0)
    while a and a[0] == 0:
        a.pop(0)
    return q, a


_CYCLO: dict[int, list[int]] = {1: [1, -1]}


def cyclotomic(q: int) -> list[int]:
    if q in _CYCLO:
        return _CYCLO[q]
    poly = [1] + [0] * (q - 1) + [-1]  # x^q - 1
    for div in range(1, q):
        if q % div == 0:
            poly, rem = _poly_divmod(poly, cyclotomic(div))
            assert not rem
    _CYCLO[q] = poly
    return poly


def vanishing_orders_1d(digits: tuple[int, ...]) -> frozenset[int]:
    """Orders q such that every primitive q-th root of unity kills the digit mask.

    The mask at t = p/q (reduced) vanishes exactly when q is in this set, so
    rational mask zeros in one dimension are decided exactly.
    """
    lo = min(digits)
    exps = sorted(dd - lo for dd in digits)
    deg = exps[-1]
    poly = [0] * (deg + 1)
    for e in exps:
        poly[deg - e] += 1
    while poly and poly[0] == 0:
        poly.pop(0)
    orders = set()
    qmax = 2 * deg * deg + 8
    for q in range(2, qmax + 1):
        cyc = cyclotomic(q)
        if len(cyc) - 1 > deg:
            continue
        _, rem = _poly_divmod(poly[:], cyc)
        if not rem:
            orders.add(q)
    return frozenset(orders)


def _frac_mod1(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


@dataclass(frozen=True)
class MaskZeroStructure:
    """Exact description of the rational zeros of the digit mask, when available."""

    product: bool
    axis_orders: tuple[frozenset[int], ...] = ()
    general_cap: int = 600

    def axis_zero(self, i: int, t: Fraction) -> bool:
        return _frac_mod1(t).denominator in self.axis_orders[i]


def mask_zero_structure(pair: AffinePair) -> MaskZeroStructure:
    d = pair.d
    axes = [tuple(sorted({b[i] for b in pair.B})) for i in range(d)]
    count = 1
    for a in axes:
        count *= len(a)
    if count == pair.N and set(pair.B) == set(itertools.product(*axes)):
        return MaskZeroStructure(True, tuple(vanishing_orders_1d(a) for a in axes))
    return MaskZeroStructure(False)


def mask_zero_test(pair: AffinePair, ms: MaskZeroStructure, rho: FVec) -> tuple[bool, str]:
    """(mask vanishes at rho, grade).  Grade 'exact' means a rigorous verdict."""
    if ms.product:
        hit = any(ms.axis_zero(i, rho[i]) for i in range(pair.d))
        return hit, "exact"
    # vanishing sum of roots of unity: reduce to divisibility by one cyclotomic
    exps = []
    for b in pair.B:
        e = _frac_mod1(sum((Fraction(bi) * ri for bi, ri in zip(b, rho)), Fraction(0)))
        exps.append(e)
    den = 1
    for e in exps:
        den = den * e.denominator // gcd(den, e.denominator)
    if den <= ms.general_cap:
        coeffs = [0] * den
        for e in exps:
            coeffs[int(e * den) % den] += 1
        poly = list(reversed(coeffs))
        while poly and poly[0] == 0:
            poly.pop(0)
        if not poly:
            return True, "exact"
        _, rem = _poly_divmod(poly, cyclotomic(den))
        return (not rem), "exact"
    val = abs(
        np.exp(-2j * np.pi * np.array([float(e) for e in exps])).sum()
    ) / pair.N
    return val < NUMERIC_ZERO, "numeric"


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


def _rt_inv_fracs(pair: AffinePair):
    return f_inverse(pair.R.T.to_fractions())


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
    rt_inv = _rt_inv_fracs(pair)
    ev = FourierEval(pair)
    witnesses: list[tuple[IVec, int]] = []
    unresolved: list[IVec] = []
    grade = "exact"
    for k in _window(K, pair.d):
        shifted = tuple(c + kk for c, kk in zip(point, k))
        rho = shifted
        found = None
        for j in range(1, J + 1):
            rho = f_matvec(rt_inv, rho)
            hit, g = mask_zero_test(pair, ms, rho)
            if hit:
                found = j
                if g == "numeric":
                    grade = "numeric"
                break
        if found is None:
            mod = abs(complex(ev.mu_hat(np.array([float(c) for c in shifted]))))
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
    rt_inv = _rt_inv_fracs(pair)
    if cert.status == "in":
        expected = {tuple(k) for k in _window(cert.K, pair.d)}
        if {k for k, _ in cert.witnesses} != expected:
            return False
        for k, j in cert.witnesses:
            rho = tuple(c + kk for c, kk in zip(cert.point, k))
            for _ in range(j):
                rho = f_matvec(rt_inv, rho)
            hit, _ = mask_zero_test(pair, ms, rho)
            if not hit:
                return False
        return True
    if cert.status == "out":
        shifted = tuple(c + kk for c, kk in zip(cert.point, cert.out_witness))
        ev = FourierEval(pair)
        mod = abs(complex(ev.mu_hat(np.array([float(c) for c in shifted]))))
        return mod > OUT_FLOOR
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


def scan_zero_set(
    pair: AffinePair,
    K: int = 10,
    tau: float = 1e-7,
    h: float = 1 / 256,
    denominator_bound: int = 64,
    prefilter: float | None = None,
) -> ScanCandidates:
    """Rational candidates for the periodic zero set found by a grid sweep.

    Grid points whose whole translate window stays below a Lipschitz-scaled
    prefilter are snapped to denominators <= denominator_bound and kept only
    if the snapped point passes the strict tolerance tau on the full window.
    Sorted by least common denominator, then lexicographically; the count
    of prefilter survivors rides along as `survivors`.
    """
    d = pair.d
    if d > 2:
        raise DimensionUnsupported("scanning supports d <= 2")
    ev = FourierEval(pair)
    from .measure import attractor_box

    lo, hi = attractor_box(pair)
    radius = float(np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi))))
    lip = 2 * np.pi * max(radius, 1e-9)
    pre = prefilter if prefilter is not None else max(tau, lip * h * np.sqrt(d))
    n = int(round(1 / h))
    axes = [np.arange(n) * h for _ in range(d)]
    if d == 1:
        grid = axes[0][:, None]
    else:
        X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
        grid = np.stack([X.ravel(), Y.ravel()], axis=-1)
    # candidate generation only needs a small translate window; the snapped
    # points are re-confirmed below against the full window at tolerance tau
    alive = np.ones(len(grid), dtype=bool)
    for k in _window(min(K, 3), d):
        if not alive.any():
            break
        pts = grid[alive] + np.array(k, dtype=float)
        vals = np.abs(ev.mu_hat(pts))
        keep = vals < pre
        idx = np.flatnonzero(alive)
        alive[idx[~keep]] = False
    candidates: set[FVec] = set()
    for gp in grid[alive]:
        snapped = tuple(
            _frac_mod1(Fraction(float(c)).limit_denominator(denominator_bound))
            for c in gp
        )
        candidates.add(snapped)
    cand_list = sorted(candidates)
    confirmed = []
    if cand_list:
        pts = np.array([[float(c) for c in v] for v in cand_list])
        ok = np.ones(len(cand_list), dtype=bool)
        for k in _window(K, d):
            if not ok.any():
                break
            vals = np.abs(ev.mu_hat(pts[ok] + np.array(k, dtype=float)))
            idx = np.flatnonzero(ok)
            ok[idx[np.atleast_1d(vals) >= tau]] = False
        confirmed = [cand_list[i] for i in np.flatnonzero(ok)]

    def lcm_den(v: FVec) -> int:
        out = 1
        for c in v:
            out = out * c.denominator // gcd(out, c.denominator)
        return out

    out = ScanCandidates(sorted(confirmed, key=lambda v: (lcm_den(v), v)))
    out.survivors = int(alive.sum())
    return out


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


def zero_set_empty_evidence(pair: AffinePair, K: int = 10, **scan_kw) -> EmptinessEvidence:
    """Best-effort decision on whether the periodic zero set is empty."""
    if pair.d == 1 and gcd_fast_path_1d(pair) == "empty":
        return EmptinessEvidence("gcd-1d", note="digit differences are coprime")
    candidates = scan_zero_set(pair, K=K, **scan_kw)
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
    return EmptinessEvidence("scan-clear", note="all scan candidates certified out")


# ---------------------------------------------------------------------------
# transfer dynamics on the zero set


@dataclass(frozen=True)
class Transition:
    ell: IVec
    target: FVec
    weight: float

    @property
    def possible(self) -> bool:
        return self.weight > 1e-12


def transition_targets(pair: AffinePair, x, ell_set=None) -> list[Transition]:
    """All one-step inverse-branch moves (R^T)^{-1}(x + l) with their u-weights."""
    point = tuple(Fraction(c) for c in x)
    rt_inv = _rt_inv_fracs(pair)
    if ell_set is None:
        ell_set = complete_representatives(pair.R.T)
    out = []
    from .triples import u_eval

    for ell in ell_set:
        tgt = f_matvec(rt_inv, tuple(c + e for c, e in zip(point, ell)))
        w = float(u_eval(pair, np.array([[float(c) for c in tgt]]))[0])
        out.append(Transition(tuple(ell), tgt, w))
    return out


def rational_invariant_subspaces(A) -> list[tuple[IVec, ...]]:
    """Proper nonzero A-invariant rational subspaces (d <= 3), as integer bases.

    Factors the characteristic polynomial over Q (complete for degree <= 3 by
    integer root extraction) and returns kernels of the proper divisors.
    """
    M = A if isinstance(A, IntMatrix) else IntMatrix.from_rows(A)
    d = M.d
    if d > 3:
        raise DimensionUnsupported("invariant subspace search supports d <= 3")
    if d == 1:
        return []
    p = list(charpoly(M))
    factors: list[list[int]] = []
    work = p[:]
    while len(work) > 1:
        root = None
        c0 = work[-1]
        if c0 == 0:
            root = 0
        else:
            for r in sorted({s * v for v in range(1, abs(c0) + 1) if c0 % v == 0 for s in (1, -1)}, key=abs):
                acc = 0
                for c in work:
                    acc = acc * r + c
                if acc == 0:
                    root = r
                    break
        if root is None:
            factors.append(work)
            break
        factors.append([1, -root])
        q, rem = _poly_divmod(work, [1, -root])
        assert not rem
        work = q
    results: dict[tuple, tuple[IVec, ...]] = {}
    nf = len(factors)
    for mask in range(1, 2**nf - 0):
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
        # evaluate poly at the matrix
        acc = IntMatrix.identity(d)
        val = None
        for c in poly:
            if val is None:
                val = IntMatrix.from_rows([[c if i == j else 0 for j in range(d)] for i in range(d)])
            else:
                val = M.mul(val)
                val = IntMatrix.from_rows(
                    [[val.rows[i][j] + (c if i == j else 0) for j in range(d)] for i in range(d)]
                )
        kernel = f_nullspace(tuple(tuple(Fraction(x) for x in row) for row in val.rows))
        if not kernel or len(kernel) >= d:
            continue
        cols = []
        for vec in kernel:
            iv, _ = clear_denominators(vec)
            cols.append(iv)
        lat = Lattice.from_columns(d, cols)
        key = (lat.rank, lat.cols)
        if key in results:
            continue
        # invariance check: A * basis stays inside the rational span
        span_rows = tuple(tuple(Fraction(c[i]) for c in lat.cols) for i in range(d))
        ok = True
        for c in lat.cols:
            img = M.matvec(c)
            stacked = [list(row) for row in span_rows]
            for i in range(d):
                stacked[i] = list(span_rows[i]) + [Fraction(img[i])]
            if _rank(tuple(tuple(r) for r in stacked)) != lat.rank:
                ok = False
                break
        if ok:
            results[key] = lat.cols
    return [results[k] for k in sorted(results, key=lambda t: (t[0], t[1]))]


def _rank(rows) -> int:
    m = [list(r) for r in rows]
    if not m:
        return 0
    rank = 0
    cols = len(m[0])
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][c]
        m[rank] = [x / p for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def in_subspace_plus_integers(v: FVec, W: tuple[IVec, ...], d: int) -> bool:
    """Exact membership of v in W + Z^d (W a rational subspace given by columns).

    With N an integer matrix whose rows span the annihilator of W, the
    condition is N v in N Z^d, a lattice membership test in the quotient.
    """
    vv = tuple(Fraction(c) for c in v)
    if not W:
        return all(c.denominator == 1 for c in vv)
    wt = tuple(tuple(Fraction(x) for x in c) for c in W)  # rows = basis transposed
    normals = f_nullspace(wt)
    if not normals:
        return True  # W is everything
    nrows = []
    for nrm in normals:
        iv, _ = clear_denominators(nrm)
        nrows.append(iv)
    m = len(nrows)
    img = Lattice.from_columns(m, [tuple(r[j] for r in nrows) for j in range(d)])
    nv = tuple(
        sum((Fraction(a) * b for a, b in zip(r, vv)), Fraction(0)) for r in nrows
    )
    return img.contains(nv)


@dataclass(frozen=True)
class InvariantCycle:
    """A certified cycle of the periodic zero set modulo Z^d."""

    x0: FVec
    period: int
    orbit: tuple[FVec, ...]
    W: tuple[IVec, ...]
    certificates: tuple[ZeroCertificate, ...]
    transitions: tuple[tuple[Transition, ...], ...]
    descent_ok: bool


def find_invariant_cycle(
    pair: AffinePair,
    max_period: int = 12,
    K: int = 6,
    J: int = 30,
    candidate_cap: int = 4096,
) -> InvariantCycle:
    """Search for x0 with (R^T)^m x0 = x0 (mod Z^d) whose whole orbit certifies
    into the periodic zero set; attach an invariant rational direction W when
    sampled points of x0 + W certify as well."""
    d = pair.d
    Rt = pair.R.T
    ev_window = K
    seen: set[FVec] = set()
    skipped = []
    for m in range(1, max_period + 1):
        Am_rows = Rt.pow(m).rows
        A = IntMatrix.from_rows(
            [[Am_rows[i][j] - (1 if i == j else 0) for j in range(d)] for i in range(d)]
        )
        dt = abs(A.det())
        if dt == 0:
            continue
        if dt > candidate_cap:
            skipped.append(m)
            continue
        inv = f_inverse(A.to_fractions())
        cands = []
        for z in complete_representatives(A):
            x = tuple(_frac_mod1(c) for c in f_matvec(inv, z))
            if x in seen:
                continue
            seen.add(x)
            if all(c == 0 for c in x):
                continue
            cands.append(x)

        def lcm_den(v: FVec) -> int:
            out = 1
            for c in v:
                out = out * c.denominator // gcd(out, c.denominator)
            return out

        cands.sort(key=lambda v: (lcm_den(v), v))
        for x0 in cands:
            orbit = [x0]
            for _ in range(m - 1):
                orbit.append(tuple(_frac_mod1(c) for c in Rt.matvec_frac(orbit[-1])))
            certs = []
            good = True
            for pt in orbit:
                cert = certify_zero(pair, pt, K=ev_window, J=J)
                certs.append(cert)
                if cert.status != "in":
                    good = False
                    break
            if not good:
                continue
            W = _attach_invariant_direction(pair, x0, K=ev_window, J=J)
            transitions, descent = _log_transitions(pair, orbit, W)
            return InvariantCycle(
                x0, m, tuple(orbit), W, tuple(certs), transitions, descent
            )
    raise CycleNotFound(
        f"no certified cycle with period <= {max_period}"
        + (f" (periods {skipped} skipped by candidate cap)" if skipped else "")
    )


def _attach_invariant_direction(pair: AffinePair, x0: FVec, K: int, J: int):
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
                if certify_zero(pair, pt, K=K, J=J).status != "in":
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return W
    return ()


def _log_transitions(pair: AffinePair, orbit, W):
    d = pair.d
    logs = []
    descent = True
    for i, pt in enumerate(orbit):
        prev = orbit[(i - 1) % len(orbit)]
        moves = [t for t in transition_targets(pair, pt) if t.possible]
        logs.append(tuple(moves))
        ok = False
        for t in moves:
            diff = tuple(a - b for a, b in zip(t.target, prev))
            if in_subspace_plus_integers(diff, W, d):
                ok = True
                break
        descent = descent and ok
    return tuple(logs), descent
