"""The self-affine measure of a digit system and its Fourier transform.

The measure mu(R, B) is the equal-weight infinite convolution of digit layers
R^{-1}B, R^{-2}B, ...; its transform is the convergent product

    mu_hat(xi) = prod_{j >= 1} mask((R^T)^{-j} xi).

One rule truncates it: a product stops at the depth where the remaining
argument z is below ETA in sup norm *and* a rigorous tail bound drops below
TAIL_TOL.  Each real factor is |m_B(x)|^2 = 1/N + (2/N^2) sum_{b<b'} cos 2 pi
<b - b', x>, with equal differences merged and weighted by their counts.
Since 1 - cos u <= u^2/2, 1 >= |m_B(x)|^2 >= 1 - c |x|^2 with
c = (2 pi^2/N^2) sum_{b,b'} |b - b'|^2, so the dropped factors lose at most
c S_2 |z|^2 of |mu_hat|^2, where S_2 = sum_i ||(R^T)^{-i}||^2.

- `mu_hat` multiplies the complex masks and returns the modulus |P_T| of the
  T-factor product.  Every dropped factor has modulus at most 1, so |P_T| is
  an upper bound on |mu_hat|, and 1 >= |mu_hat|^2 / |P_T|^2 >= 1 - TAIL_TOL.
- `mu_hat_sq` returns |mu_hat|^2 as the product of the real factors.

Callers that read only the modulus (the cover, the shift corrections, the
completeness sums and the product sweep) use `mu_hat_sq` on outer-sum
tables: `mu_hat_sq(u, v)[i, k]` is |mu_hat(u_i + v_k)|^2.  The two sides
are contracted separately, a = u (R^T)^{-j} and b = v (R^T)^{-j}, and the
cosine addition formula turns each factor into one product
[w cos alpha | -w sin alpha] @ [cos beta | sin beta]^T with alpha = 2 pi a D
and beta = 2 pi b D (D the merged differences, w their weights): cosines on
len(u) + len(v) points, not on len(u) len(v).  The depth rule reads the
largest sum a_i + b_k, so a table has the depth of its flattened batch, and
its entries differ from that batch's only by rounding, since each side's
phases round on their own (about 1e-15 on the reference sweeps).  The plain
call `mu_hat_sq(xi)` is the table against the single shift 0.  Zero tests keep
`mu_hat`: near a true zero the cosine sum cancels to a residue of about 1e-17
in |m_B|^2, which is about 1e-9 in |mu_hat|, where the complex product stays
at rounding size.

The depth cap `max_depth` is derived from R and B: the fewest factors after
which every |xi| <= XI_MAX passes the rule.  A point that needs more raises
CapExceeded.

The level-n approximant is the first n layers of the convolution, so its
transform is exactly the n-factor product (`DiscreteMeasure.fourier`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapExceeded, InvalidInput, SizeMismatch
from .intlat import adjugate, int_product, is_simple_digit_set, rounded_ratio
from .triples import AffinePair, _xi_grid, mask_eval

ETA = 1e-4  # sup norm the remaining argument must reach
TAIL_TOL = 1e-9  # bound on what the dropped factors may still move
# every |xi| (2-norm) up to XI_MAX is served; a double holds such xi only to
# about 1e-4, so the phases of the first factors mean little beyond it
XI_MAX = 1e12
_BOX_TOL = 1e-12  # padding tail of the attractor box


class FourierEval:
    """Cached evaluator for mu_hat of one pair."""

    def __init__(self, pair: AffinePair):
        self.pair = pair
        R = pair.R.to_array()
        self._Rinv = np.linalg.inv(R)
        # square sum and sup of operator norms of (R^T)^{-j} = powers of R^{-T}
        A = self._Rinv.T
        P = np.eye(pair.d)
        norms = []
        for _ in range(512):
            P = P @ A
            norms.append(float(np.linalg.norm(P, 2)))
            if norms[-1] < 1e-15:
                break
        else:
            raise InvalidInput("inverse powers do not contract; matrix not expansive?")
        self._norm_sq_sum = sum(nrm * nrm for nrm in norms)
        self.norm_sup = max(norms)
        # |m_B(x)|^2 = 1/N + (2/N^2) sum_{b<b'} cos 2 pi <b - b', x>; a
        # difference and its negative give the same cosine, so each class is
        # kept once (first nonzero entry positive) with its count
        N = pair.N
        diffs = Counter()
        for i, b in enumerate(pair.B):
            for c in pair.B[i + 1 :]:
                dv = tuple(x - y for x, y in zip(b, c))
                diffs[max(dv, tuple(-x for x in dv))] += 1
        classes = sorted(diffs)
        self._diff_phase = 2 * np.pi * np.array(classes, dtype=float).reshape(-1, pair.d).T
        self._diff_weight = np.array([2.0 * diffs[dv] / N**2 for dv in classes])
        # 1 - cos u <= u^2 / 2 gives 1 - |m_B(x)|^2 <= c |x|^2 with
        # c = (2 pi^2 / N^2) sum_{b, b'} |b - b'|^2, each unordered pair twice
        spread = sum(k * sum(x * x for x in dv) for dv, k in diffs.items())
        self._curv = 4 * np.pi**2 / N**2 * spread or 1.0
        # depth cap: |(R^T)^{-T} xi| <= ||(R^T)^{-T}|| |xi|, so once that norm
        # times XI_MAX is within ETA and the tail tolerance, every xi in range stops
        reach = min(ETA, np.sqrt(TAIL_TOL / self.tail_bound(1.0))) / XI_MAX
        while norms[-1] > reach:
            P = P @ A
            norms.append(float(np.linalg.norm(P, 2)))
        self.max_depth = next(t for t, nrm in enumerate(norms, 1) if nrm <= reach)

    def tail_bound(self, z_norm: float) -> float:
        """Bound on 1 - (product of dropped |factors|^2) given |(R^T)^{-T} xi| <= z_norm.

        Each dropped factor is at least 1 - c |(R^T)^{-i} z|^2, so their
        product is at least 1 - c S_2 |z|^2 with S_2 = sum_i ||(R^T)^{-i}||^2.
        """
        return self._curv * self._norm_sq_sum * z_norm * z_norm

    def _arguments(self, a, b):
        """Yield (a, b) <- (a (R^T)^{-1}, b (R^T)^{-1}) until every a_i + b_k
        has sup norm within ETA and tail_bound(2-norm) within TAIL_TOL, or
        raise CapExceeded past max_depth.  The sup norm bounds the 2-norm
        below; it is tested first, exactly, from the extremes of a and b."""
        T = 0
        while len(a) and len(b):
            top, bottom = a.max(axis=0) + b.max(axis=0), a.min(axis=0) + b.min(axis=0)
            sup = float(max(np.max(top), -np.min(bottom)))
            if sup <= ETA and self.tail_bound(sup) <= TAIL_TOL:
                if a.shape[1] == 1 or self.tail_bound(_largest_sum(a, b)) <= TAIL_TOL:
                    return
            if T == self.max_depth:
                left = self.tail_bound(_largest_sum(a, b))
                raise CapExceeded(f"mu_hat factors (tail bound {left:.2g} left)", T + 1, T)
            a, b = a @ self._Rinv, b @ self._Rinv
            T += 1
            yield a, b

    def depth_for(self, xi) -> int:
        """Factors `mu_hat` and `mu_hat_sq` multiply for the batch; CapExceeded beyond max_depth."""
        arr, _ = _xi_grid(self.pair.d, xi)
        z, zero = arr.reshape(-1, self.pair.d), np.zeros((1, self.pair.d))
        return sum(1 for _ in self._arguments(z, zero))

    def mu_hat_truncated(self, xi, depth: int):
        """Finite product of exactly `depth` mask factors."""
        z, scalar = _xi_grid(self.pair.d, xi)
        acc = np.ones(z.shape[:-1], dtype=complex)
        for _ in range(depth):
            z = z @ self._Rinv
            acc *= mask_eval(self.pair, z)
        return acc[0] if scalar else acc

    def mu_hat(self, xi):
        """Modulus |P_T| of the adaptive-depth product; |mu_hat| <= |P_T|, tight to TAIL_TOL."""
        arr, scalar = _xi_grid(self.pair.d, xi)
        out = np.abs(self.mu_hat_truncated(arr, self.depth_for(arr)))
        return out[0] if scalar else out

    def _mask_sq(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The (len(a), len(b)) table |m_B(a_i + b_k)|^2, by the addition formula."""
        alpha, beta = a @ self._diff_phase, b @ self._diff_phase
        w = self._diff_weight
        left = np.concatenate([np.cos(alpha) * w, np.sin(alpha) * -w], axis=1)
        right = np.concatenate([np.cos(beta), np.sin(beta)], axis=1)
        return left @ right.T + 1.0 / self.pair.N

    def mu_hat_sq(self, xi, shifts=None):
        """Adaptive-depth |mu_hat|^2 as a product of the real factors |m_B|^2,
        within TAIL_TOL, at the depth of `depth_for`.

        With `shifts`, the (len(xi), len(shifts)) table of
        |mu_hat(xi_i + shifts_k)|^2 at one depth; without, xi's own values.
        """
        d = self.pair.d
        arr, scalar = _xi_grid(d, xi)
        v = np.zeros((1, d)) if shifts is None else np.asarray(shifts, dtype=float).reshape(-1, d)
        acc = np.ones((arr.size // d, len(v)))
        for a, b in self._arguments(arr.reshape(-1, d), v):
            acc *= self._mask_sq(a, b)
        if shifts is not None:
            return acc
        out = acc[:, 0].reshape(arr.shape[:-1])
        return out[0] if scalar else out


def _largest_sum(a: np.ndarray, b: np.ndarray) -> float:
    """max over i, k of |a_i + b_k|, from |a_i|^2 + 2 <a_i, b_k> + |b_k|^2;
    with b = 0 it is the max of np.linalg.norm(a, axis=1), bit for bit."""
    sq = (a * a).sum(axis=1)[:, None] + 2.0 * (a @ b.T) + (b * b).sum(axis=1)
    return float(np.sqrt(max(float(np.max(sq)), 0.0)))


# ---------------------------------------------------------------------------
# discrete approximants


@dataclass(frozen=True)
class DiscreteMeasure:
    """The level-n approximant delta_{R^-1 B} * ... * delta_{R^-n B} of mu.

    Atom i sits at atoms[i] / den (exact integer rows, sorted and distinct,
    int64 or Python ints as `int_product` decides; `points` rounds each
    once) with weight counts[i] / N^n, counts[i] the sums landing on it.  So
    the weighted atom sum runs over the N^n digit strings, weight 1/N^n each,
    and factors into the first n factors of mu_hat.
    """

    pair: AffinePair
    n: int
    atoms: np.ndarray
    den: int
    counts: np.ndarray

    @cached_property
    def points(self) -> np.ndarray:
        return rounded_ratio(self.atoms, self.den)

    def fourier(self, xi):
        """The transform at xi, as the n-factor product; a scalar gives a scalar."""
        return FourierEval(self.pair).mu_hat_truncated(xi, self.n)


def discrete_approximant(pair: AffinePair, n: int, cap: int = 2**20) -> DiscreteMeasure:
    """Atoms R^{-n} b for b in the level-n digit sums, weights 1/N^n (merged).

    The digit sums grow a level at a time, b -> R b + c, and equal sums are
    merged with their counts after each level (digits distinct modulo R
    never collide), so no level holds more than N times the previous
    level's distinct sums.  R^{-n} b = s adj(R^n) b / |det R^n| with s the
    sign of the determinant, so the atoms are the sorted integer rows
    s adj(R^n) b; each level and the atoms are one exact `int_product`.
    """
    N, d = pair.N, pair.d
    if N**n > cap:
        raise CapExceeded("digit tower", N**n, cap)
    sums = np.zeros((1, d), dtype=np.int64)
    counts = np.ones(1, dtype=np.int64)
    # digits distinct modulo R keep every digit sum distinct: nothing to merge
    collide = not is_simple_digit_set(pair.R, pair.B)
    for _ in range(n):
        sums = int_product(sums[:, None, :], pair.R, pair.B).reshape(-1, d)
        counts = np.repeat(counts, N)
        if collide:
            sums, counts = _merge_rows(sums, counts)
    adj, det = adjugate(pair.R.pow(n))
    sign = 1 if det > 0 else -1
    # distinct sums give distinct atoms, so the atoms need only sorting
    atoms = int_product(sums, [[sign * x for x in row] for row in adj.rows], 0)
    order = np.lexsort(atoms.T[::-1])
    return DiscreteMeasure(pair, n, atoms[order], abs(det), counts[order])


def _merge_rows(rows: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort integer rows and merge equal ones, summing their counts."""
    order = np.lexsort(rows.T[::-1])
    rows, counts = rows[order], counts[order]
    starts = np.flatnonzero(np.r_[True, np.any(rows[1:] != rows[:-1], axis=1)])
    return rows[starts], np.add.reduceat(counts, starts)


def attractor_box(pair: AffinePair) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise bounding box of the attractor, padded by a tail bound."""
    d = pair.d
    Rinv = np.linalg.inv(pair.R.to_array())
    digits = pair.digit_array
    lo = np.zeros(d)
    hi = np.zeros(d)
    P = np.eye(d)
    bmax = float(np.max(np.abs(digits))) or 1.0
    for _ in range(2048):
        P = Rinv @ P
        imgs = digits @ P.T
        lo += imgs.min(axis=0)
        hi += imgs.max(axis=0)
        tail = float(np.sum(np.abs(P))) * bmax  # crude but safe overestimate
        if tail < _BOX_TOL:
            lo -= tail
            hi += tail
            return lo, hi
    raise InvalidInput("attractor box failed to converge")


# ---------------------------------------------------------------------------
# rendering


def write_pgm(img: np.ndarray, path: str) -> None:
    """8-bit binary PGM (P5), row-major."""
    if img.ndim != 2 or img.size == 0:
        raise InvalidInput("image must be a nonempty 2D array")
    data = np.clip(np.asarray(img), 0, 255).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(data.tobytes())


def render_attractor(pair: AffinePair, resolution: int, out: str, depth: int | None = None, cap: int = 2**16) -> dict:
    """Rasterize the depth-n approximant onto a grayscale grid; returns stats."""
    if resolution <= 0:
        raise InvalidInput("resolution must be positive")
    if pair.d > 2:
        raise InvalidInput("rendering supports d <= 2")
    if depth is None:
        depth = 1
        while pair.N ** (depth + 1) <= cap:
            depth += 1
    dm = discrete_approximant(pair, depth, cap=cap)
    pts = dm.points
    lo, hi = attractor_box(pair)
    span = np.where(hi - lo > 0, hi - lo, 1.0)
    idx = np.clip(((pts - lo) / span * resolution).astype(int), 0, resolution - 1)
    if pair.d == 1:
        img = np.zeros((1, resolution))
        img[0, idx[:, 0]] = 255
    else:
        img = np.zeros((resolution, resolution))
        # image rows run top-down; flip the second axis for a y-up picture
        img[resolution - 1 - idx[:, 1], idx[:, 0]] = 255
    write_pgm(img, out)
    return {"depth": depth, "atoms": len(pts), "pixels_on": int((img > 0).sum())}


def mu_hat_field(ev: FourierEval, lo, hi, resolution: int) -> np.ndarray:
    """|mu_hat| sampled on a regular grid over the box [lo, hi]."""
    d = ev.pair.d
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.shape != (d,) or hi.shape != (d,):
        raise SizeMismatch("box corners must match the dimension")
    axes = [np.linspace(lo[i], hi[i], resolution) for i in range(d)]
    if d == 1:
        grid = axes[0][None, :, None]
        vals = ev.mu_hat(grid[0])
        return vals[None, :]
    if d == 2:
        X, Y = np.meshgrid(axes[0], axes[1])
        pts = np.stack([X, Y], axis=-1)
        return ev.mu_hat(pts)[::-1, :]
    raise InvalidInput("field rendering supports d <= 2")


def render_field(field: np.ndarray, out: str) -> dict:
    arr = np.asarray(field, dtype=float)
    if arr.size == 0:
        raise InvalidInput("empty field")
    top = float(arr.max())
    img = (arr / top * 255.0) if top > 0 else arr
    write_pgm(img, out)
    return {"shape": list(arr.shape), "max": top}
