"""The self-affine measure of a digit system and its Fourier transform.

The measure mu(R, B) is the equal-weight infinite convolution of digit layers
R^{-1}B, R^{-2}B, ...; its transform is the convergent product

    mu_hat(xi) = prod_{j >= 1} mask((R^T)^{-j} xi).

Products are truncated adaptively: depth grows until the remaining argument
is tiny in sup norm *and* a rigorous first-order tail bound drops below a
configurable tolerance (default 1e-9), so deepening further cannot move any
reported value by more than that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import InvalidInput, SimpleDigitsRequired, SizeMismatch
from .intlat import FVec, adjugate, inverse_image, is_simple_digit_set
from .triples import AffinePair, _xi_grid, digit_sums, mask_eval


class FourierEval:
    """Cached evaluator for mu_hat of one pair."""

    def __init__(
        self,
        pair: AffinePair,
        eta: float = 1e-4,
        tail_tol: float = 1e-9,
        max_depth: int = 64,
    ):
        self.pair = pair
        self.eta = float(eta)
        self.tail_tol = float(tail_tol)
        self.max_depth = int(max_depth)
        R = pair.R.to_array()
        self._Rinv = np.linalg.inv(R)
        self._bmax = float(np.max(np.linalg.norm(pair.digit_array(), axis=1))) or 1.0
        # sum of operator norms of (R^T)^{-j} = transposed powers of R^{-1}
        A = np.linalg.inv(R).T
        P = np.eye(pair.d)
        total = 0.0
        for _ in range(512):
            P = P @ A
            nrm = float(np.linalg.norm(P, 2))
            total += nrm
            if nrm < 1e-15:
                break
        else:
            raise InvalidInput("inverse powers do not contract; matrix not expansive?")
        self._norm_sum = total

    def tail_bound(self, z_norm: float) -> float:
        """Bound on |product of dropped factors - 1| given |(R^T)^{-T} xi| <= z_norm."""
        return 2.0 * np.pi * self._bmax * self._norm_sum * z_norm

    def _prepare(self, xi):
        return _xi_grid(self.pair.d, xi)

    def depth_for(self, xi) -> int:
        arr, _ = self._prepare(xi)
        z = arr.reshape(-1, self.pair.d)
        T = 0
        while T < self.max_depth:
            sup = float(np.max(np.abs(z))) if z.size else 0.0
            nrm2 = float(np.max(np.linalg.norm(z, axis=1))) if z.size else 0.0
            if sup <= self.eta and self.tail_bound(nrm2) <= self.tail_tol:
                break
            z = z @ self._Rinv
            T += 1
        return T

    def mu_hat_truncated(self, xi, depth: int):
        """Finite product of exactly `depth` mask factors."""
        arr, scalar = self._prepare(xi)
        z = arr
        acc = np.ones(arr.shape[:-1], dtype=complex)
        for _ in range(depth):
            z = z @ self._Rinv
            acc = acc * mask_eval(self.pair, z)
        return acc[0] if scalar else acc

    def mu_hat(self, xi):
        """Adaptive-depth transform value(s); |result| <= 1."""
        arr, scalar = self._prepare(xi)
        out = self.mu_hat_truncated(arr, self.depth_for(arr))
        return out[0] if scalar else out


def refinement_identity_defect(ev: FourierEval, xi, n: int, cap: int = 2**20) -> float:
    """|mu_hat(xi) - mask_of_level_n((R^T)^{-n} xi) * mu_hat((R^T)^{-n} xi)|.

    The level mask is summed directly over the N^n expanded digits, so this
    genuinely cross-checks the product against the convolution structure.
    """
    pair = ev.pair
    arr, scalar = ev._prepare(xi)
    z = arr
    for _ in range(n):
        z = z @ ev._Rinv
    t2 = ev.depth_for(z)
    lhs = ev.mu_hat_truncated(arr, n + t2)
    level = np.array(digit_sums(pair.R, pair.B, n, cap), dtype=float)
    phases = z @ level.T
    mask_n = np.exp(-2j * np.pi * phases).mean(axis=-1)
    rhs = mask_n * ev.mu_hat_truncated(z, t2)
    defect = np.max(np.abs(lhs - rhs))
    return float(defect)


# ---------------------------------------------------------------------------
# discrete approximants


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite atomic stand-in for mu at convolution depth n."""

    atoms: tuple[FVec, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if sum(self.weights, Fraction(0)) != 1:
            raise InvalidInput("weights must sum to one")

    @cached_property
    def points(self) -> np.ndarray:
        return np.array([[float(c) for c in a] for a in self.atoms], dtype=float)

    @cached_property
    def weight_array(self) -> np.ndarray:
        return np.array([float(w) for w in self.weights])

    def fourier(self, xi):
        d = len(self.atoms[0])
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
    """Atoms R^{-n} b for b in the level-n digit sums, weights 1/N^n (merged)."""
    sums = digit_sums(pair.R, pair.B, n, cap)
    adj, det = adjugate(pair.R.pow(n))
    # merge on the integer vectors adj(R^n) b; dividing by det afterwards keeps
    # everything exact while avoiding per-atom Fraction arithmetic
    sign = 1 if det > 0 else -1
    adet = abs(det)
    w = Fraction(1, pair.N**n)
    counts: dict = {}
    if pair.d == 1:
        a = sign * adj.rows[0][0]
        for b in sums:
            k = a * b[0]
            counts[k] = counts.get(k, 0) + 1
        items = sorted(counts.items())
        atoms = tuple((Fraction(k, adet),) for k, _ in items)
    else:
        rows = [tuple(sign * a for a in row) for row in adj.rows]
        for b in sums:
            key = tuple(sum(a * c for a, c in zip(row, b)) for row in rows)
            counts[key] = counts.get(key, 0) + 1
        items = sorted(counts.items())
        atoms = tuple(tuple(Fraction(k, adet) for k in key) for key, _ in items)
    return DiscreteMeasure(atoms, tuple(c * w for _, c in items))


def attractor_box(pair: AffinePair, tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise bounding box of the attractor, padded by a tail bound."""
    d = pair.d
    Rinv = np.linalg.inv(pair.R.to_array())
    digits = pair.digit_array()
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
        if tail < tol:
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
    elif pair.d == 2:
        img = np.zeros((resolution, resolution))
        # image rows run top-down; flip the second axis for a y-up picture
        img[resolution - 1 - idx[:, 1], idx[:, 0]] = 255
    else:
        raise InvalidInput("rendering supports d <= 2")
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
