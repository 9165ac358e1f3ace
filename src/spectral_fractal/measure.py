"""The self-affine measure of a digit system and its Fourier transform.

The measure mu(R, B) is the equal-weight infinite convolution of digit layers
R^{-1}B, R^{-2}B, ...; its transform is the convergent product

    mu_hat(xi) = prod_{j >= 1} mask((R^T)^{-j} xi).

Products are truncated adaptively: depth grows until the remaining argument
is below ETA in sup norm *and* a rigorous first-order tail bound drops below
TAIL_TOL, so deepening further cannot move any reported value by more than
that.  Each evaluator derives its depth cap from R and B: the fewest factors
after which every |xi| <= XI_MAX passes both tests.  A point that needs more
raises CapExceeded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapExceeded, InvalidInput, SimpleDigitsRequired, SizeMismatch
from .intlat import adjugate, inverse_image, is_simple_digit_set
from .triples import AffinePair, _xi_grid, digit_sums, mask_eval

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
        self._bmax = float(np.max(np.linalg.norm(pair.digit_array, axis=1))) or 1.0
        # sum and sup of operator norms of (R^T)^{-j} = transposed powers of R^{-1}
        A = np.linalg.inv(R).T
        P = np.eye(pair.d)
        norms = []
        for _ in range(512):
            P = P @ A
            norms.append(float(np.linalg.norm(P, 2)))
            if norms[-1] < 1e-15:
                break
        else:
            raise InvalidInput("inverse powers do not contract; matrix not expansive?")
        self._norm_sum = sum(norms)
        self.norm_sup = max(norms)
        # depth cap: |(R^T)^{-T} xi| <= ||(R^T)^{-T}|| |xi|, so once that norm
        # times XI_MAX is within ETA and the tail tolerance, every xi in range stops
        reach = min(ETA, TAIL_TOL / self.tail_bound(1.0)) / XI_MAX
        while norms[-1] > reach:
            P = P @ A
            norms.append(float(np.linalg.norm(P, 2)))
        self.max_depth = next(t for t, nrm in enumerate(norms, 1) if nrm <= reach)

    def tail_bound(self, z_norm: float) -> float:
        """Bound on |product of dropped factors - 1| given |(R^T)^{-T} xi| <= z_norm."""
        return 2.0 * np.pi * self._bmax * self._norm_sum * z_norm

    def _prepare(self, xi):
        return _xi_grid(self.pair.d, xi)

    def depth_for(self, xi) -> int:
        """Factors needed for the whole batch; CapExceeded beyond max_depth."""
        arr, _ = self._prepare(xi)
        z = arr.reshape(-1, self.pair.d)
        T = 0
        while True:
            sup = float(np.max(np.abs(z))) if z.size else 0.0
            # max of np.linalg.norm(z, axis=1), bit for bit, without its overhead
            nrm2 = float(np.sqrt(np.max((z * z).sum(axis=1)))) if z.size else 0.0
            if sup <= ETA and self.tail_bound(nrm2) <= TAIL_TOL:
                return T
            if T == self.max_depth:
                what = f"mu_hat factors (tail bound {self.tail_bound(nrm2):.2g} left)"
                raise CapExceeded(what, T + 1, T)
            z = z @ self._Rinv
            T += 1

    def mu_hat_truncated(self, xi, depth: int):
        """Finite product of exactly `depth` mask factors."""
        arr, scalar = self._prepare(xi)
        z = arr
        acc = np.ones(arr.shape[:-1], dtype=complex)
        for _ in range(depth):
            z = z @ self._Rinv
            acc *= mask_eval(self.pair, z)
        return acc[0] if scalar else acc

    def mu_hat(self, xi):
        """Adaptive-depth transform value(s); |result| <= 1."""
        arr, scalar = self._prepare(xi)
        out = self.mu_hat_truncated(arr, self.depth_for(arr))
        return out[0] if scalar else out


# ---------------------------------------------------------------------------
# discrete approximants


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite atomic stand-in for mu at convolution depth n.

    Atom i sits at atoms[i] / den and carries weight counts[i] / N^n; the
    numerator rows are exact integers (object array), sorted and distinct.
    """

    atoms: np.ndarray
    den: int
    counts: np.ndarray

    @cached_property
    def points(self) -> np.ndarray:
        # Python-int true division rounds each coordinate correctly
        return (self.atoms / self.den).astype(float)

    @cached_property
    def weight_array(self) -> np.ndarray:
        return self.counts / self.counts.sum()

    def fourier(self, xi):
        d = self.atoms.shape[1]
        arr, scalar = _xi_grid(d, xi)
        flat = arr.reshape(-1, d)
        # atom chunks keep about 2^20 phase entries (and their exponentials)
        # alive at a time
        step = max(1, 2**20 // max(1, len(flat)))
        vals = sum(
            np.exp(-2j * np.pi * (flat @ self.points[s : s + step].T))
            @ self.weight_array[s : s + step]
            for s in range(0, len(self.atoms), step)
        )
        vals = vals.reshape(arr.shape[:-1])
        return vals[0] if scalar else vals


def discrete_approximant(pair: AffinePair, n: int, cap: int = 2**20) -> DiscreteMeasure:
    """Atoms R^{-n} b for b in the level-n digit sums, weights 1/N^n (merged).

    R^{-n} b = s adj(R^n) b / |det R^n| with s the sign of the determinant,
    so equal atoms are equal integer rows s adj(R^n) b: those are sorted and
    merged, and no fraction is formed.
    """
    sums = digit_sums(pair.R, pair.B, n, cap)
    adj, det = adjugate(pair.R.pow(n))
    sign = 1 if det > 0 else -1
    keys = sums @ np.array(adj.rows, dtype=object).T * sign
    keys = keys[np.lexsort(keys.T[::-1])]
    starts = np.flatnonzero(np.r_[True, np.any(keys[1:] != keys[:-1], axis=1)])
    return DiscreteMeasure(keys[starts], abs(det), np.diff(np.r_[starts, len(keys)]))


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


def step_moment(pair: AffinePair, n: int, w, xi) -> tuple[float, complex]:
    """L2 norm^2 and transform value of a level-n step function.

    The function takes value w_b on the cylinder of the expanded digit b (in
    `digit_sums` order).  Undefined when digits collide modulo R, hence the
    simplicity requirement.
    """
    if not is_simple_digit_set(pair.R, pair.B):
        raise SimpleDigitsRequired("digits collide modulo R; cylinders overlap")
    sums = digit_sums(pair.R, pair.B, n)
    wv = np.asarray(w, dtype=complex)
    if wv.shape != (len(sums),):
        raise SizeMismatch(f"need one weight per level-{n} digit ({len(sums)})")
    scale = 1.0 / pair.N**n
    norm_sq = float(scale * np.sum(np.abs(wv) ** 2))
    ev = FourierEval(pair)
    arr, _ = _xi_grid(pair.d, xi)
    if arr.shape[0] != 1:
        raise SizeMismatch("step_moment evaluates one frequency at a time")
    z = arr
    for _ in range(n):
        z = z @ ev._Rinv
    phases = inverse_image(pair.R.pow(n), sums) @ arr[0]
    coeff = complex(np.sum(wv * np.exp(-2j * np.pi * phases)))
    value = scale * complex(ev.mu_hat(z[0])) * coeff
    return norm_sq, value


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
        vals = np.abs(ev.mu_hat(grid[0]))
        return vals[None, :]
    if d == 2:
        X, Y = np.meshgrid(axes[0], axes[1])
        pts = np.stack([X, Y], axis=-1)
        return np.abs(ev.mu_hat(pts))[::-1, :]
    raise InvalidInput("field rendering supports d <= 2")


def render_field(field: np.ndarray, out: str) -> dict:
    arr = np.asarray(field, dtype=float)
    if arr.size == 0:
        raise InvalidInput("empty field")
    top = float(arr.max())
    img = (arr / top * 255.0) if top > 0 else arr
    write_pgm(img, out)
    return {"shape": list(arr.shape), "max": top}
