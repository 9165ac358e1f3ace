"""One rule for exact integer arrays: `intlat.int_product`.

Digit sums, approximant atoms, tree points, corrected bases and frequency
back-mapping are products X M^T + add formed by `int_product`.  It takes
int64 when x m + c < 2^63 (x = max(1, max|X|), m = max(1, the largest
absolute row sum of M), c = max|add|) and Python ints in object arrays
otherwise.  Each site is checked on both sides of that bound against a
Python-int reference: int64 would wrap silently above it, so each test
fails if the bound check is dropped.  Floats come out correctly rounded
(`rounded_ratio`) even when int64 numerators pass 2^53.

The source guard keeps the rule in one place: outside the helpers named in
OBJECT_ARRAYS, no code in src/ forms an object array.
"""

import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    canonical_tree_blocks_per_point,
    corrected_level_per_point,
    f_map_back,
    python_digit_sums,
)
from spectral_fractal import quasiprod, spectra
from spectral_fractal.frames import _characters, _group_gram
from spectral_fractal.intlat import (
    ConjugationRecord,
    IntMatrix,
    exact_array,
    int_product,
    inverse_image,
)
from spectral_fractal.measure import FourierEval, discrete_approximant
from spectral_fractal.spectra import _corrected_level, canonical_tree, cover_constants
from spectral_fractal.triples import affine_pair, digit_sums, hadamard_triple

SRC = Path(__file__).resolve().parents[1] / "src" / "spectral_fractal"
TOP = 2**63 - 1  # the largest int64

# module.function of each place in src/ that may form an object array
OBJECT_ARRAYS = {
    "intlat.exact_array": "integers beyond int64 as they arrive",
    "intlat.int_product": "the product past its int64 bound",
    "intlat.rounded_ratio": "correctly rounded division of numerators past 2^53",
    "intlat._int_array": "the character kernel's residues past its d D^2 bound",
}


def _dtypes(monkeypatch, module) -> list:
    """Record the dtype of every `int_product` result formed in `module`."""
    seen = []

    def spy(X, M, add):
        out = int_product(X, M, add)
        seen.append(out.dtype)
        return out

    monkeypatch.setattr(module, "int_product", spy)
    return seen


# ---------------------------------------------------------------------------
# the helper


def test_bound_reads_entries_row_sums_and_addend():
    M = [[1, 1]]
    below = int_product([[2**62 - 1, 2**62 - 1]], M, 1)
    assert below.dtype == np.int64 and below.tolist() == [[TOP]]
    # entries fit, but their sum passes 2^63
    above = int_product([[2**62, 2**62]], M, 0)
    assert above.dtype == object and above.tolist() == [[2**63]]
    # the addend counts too
    over = int_product([[2**62 - 1, 2**62 - 1]], M, 2)
    assert over.dtype == object and over.tolist() == [[2**63]]


def test_minimum_int64_counts_as_2_63():
    out = int_product(np.array([[-(2**63)]], dtype=np.int64), [[1]], 0)
    assert out.dtype == object and out.tolist() == [[-(2**63)]]


def test_broadcast_addend_gives_outer_sums():
    out = int_product(np.array([[1], [2]])[:, None, :], [[10]], [(0,), (5,)]).reshape(-1, 1)
    assert out.tolist() == [[10], [15], [20], [25]]


# ---------------------------------------------------------------------------
# digit sums


@pytest.mark.parametrize("r, dtype", [((TOP // 7) - 1, np.int64), (TOP // 7, object)])
def test_digit_sums_at_the_bound(r, dtype):
    # leading level (7 r + 7) is 2^63 - 1 below the bound and 2^63 + 6 above
    sums = digit_sums([[r]], [0, 7], 2)
    assert sums.dtype == dtype
    assert sums.tolist() == [list(v) for v in python_digit_sums([[r]], [0, 7], 2)]
    assert sums[-1, 0] == 7 * r + 7


# ---------------------------------------------------------------------------
# discrete approximants (values: test_measure's Fraction-oracle cases)


@pytest.mark.parametrize(
    "R, B, n, dtype",
    [
        ([[TOP // 7 - 1]], [(0,), (7,)], 2, np.int64),
        ([[TOP // 7]], [(0,), (7,)], 2, object),
        ([[3037000498]], [(0,), (1,), (3037000499,)], 2, np.int64),
        ([[3037000499]], [(0,), (1,), (3037000500,)], 2, object),
        ([[2, 0], [0, TOP // 7]], [(0, 0), (7, 0)], 1, np.int64),
        ([[2, 0], [0, TOP // 7 + 1]], [(0, 0), (7, 0)], 1, object),
    ],
)
def test_approximant_atoms_dtype_at_the_bound(R, B, n, dtype):
    assert discrete_approximant(affine_pair(R, B), n).atoms.dtype == dtype


def test_points_are_correctly_rounded_past_2_53():
    # den = (2^27 + 1)^2 > 2^53 is not a double: int64 / den rounds it
    # before dividing and misses the correctly rounded quotient
    dm = discrete_approximant(affine_pair([[2**27 + 1]], [(0,), (1,)]), 2)
    assert dm.atoms.dtype == np.int64
    exact = [[float(Fraction(int(a), dm.den))] for a in dm.atoms.ravel()]
    assert dm.points.tolist() == exact
    assert (dm.atoms / dm.den).tolist() != exact


def test_inverse_image_is_correctly_rounded_past_2_53():
    M = [[(2**27 + 1) ** 2]]
    vecs = [(1,), (2**27 + 1,), (2**27 + 2,)]
    want = [[float(Fraction(v[0], M[0][0]))] for v in vecs]
    assert inverse_image(M, vecs).tolist() == want
    assert (np.array(vecs) / M[0][0]).tolist() != want


def test_inverse_image_past_the_bound():
    # adj([[1, 1], [0, 1]]) = [[1, -1], [0, 1]]: x - y = -2^63 - 1 crosses
    vecs = [(-(2**62), 2**62 + 1), (3, -5)]
    got = inverse_image([[1, 1], [0, 1]], vecs)
    assert got.tolist() == [[float(x - y), float(y)] for x, y in vecs]


# ---------------------------------------------------------------------------
# spectrum trees


@pytest.mark.parametrize("l, dtype", [(8388599, np.int64), (8388601, object)])
def test_canonical_tree_at_the_bound(monkeypatch, l, dtype):
    # (2^20, {0, 2^19}, {0, l}) for odd l; level 3 reaches l (r^2 + r + 1),
    # below 2^63 for l = 8388599 and above it for l = 8388601
    r = 2**20
    triple = hadamard_triple([[r]], [(0,), (r // 2,)], [(0,), (l,)]).require_validated()
    seen = _dtypes(monkeypatch, spectra)
    tree = canonical_tree(triple, 3)
    assert seen[-1] == dtype
    assert tree.new_points == canonical_tree_blocks_per_point(triple, 3)
    assert max(p[0] for p in tree.points) == l * (r * r + r + 1)


@pytest.fixture(scope="module")
def jp6():
    """(4, {0, 6}, {0, 1}): mu_hat vanishes at 1/3, so bases there are corrected."""
    triple = hadamard_triple([[4]], [(0,), (6,)], [(0,), (1,)]).require_validated()
    return FourierEval(triple.pair), cover_constants(triple)


def _level(monkeypatch, jp6, current, m_prev, m_new):
    """`_corrected_level` on one step j = 1, its int_product dtypes and the
    Python-int oracle's result."""
    ev, cover = jp6
    J = [(0,), (1,)]
    seen = _dtypes(monkeypatch, spectra)
    got = _corrected_level(ev, cover, exact_array(current), np.array(J), m_prev, m_new, 1)
    return got, seen, corrected_level_per_point(ev, cover, current, J, m_prev, m_new, 1)


@pytest.mark.parametrize("c, dtype", [(TOP - 2**60, np.int64), (TOP - 2**60 + 1, object)])
def test_corrected_bases_at_the_bound(monkeypatch, jp6, c, dtype):
    # bases c + (R^T)^30 = c + 2^60 reach 2^63 - 1 below the bound and 2^63 above
    got, seen, want = _level(monkeypatch, jp6, [(c,)], 30, 32)
    assert seen[0] == dtype
    assert got == want


@pytest.mark.parametrize("m_new, dtype", [(30, np.int64), (31, object), (32, object)])
def test_corrected_shifts_at_the_bound(monkeypatch, jp6, m_new, dtype):
    # the base near 4^m / 3 takes kappa = -3: |kappa| 4^m + base passes 2^63
    # from m = 31, where the corrected point -3 4^m + base does too; at
    # m = 32 the matrix (R^T)^m is itself beyond int64
    base = 4**m_new // 3
    got, seen, want = _level(monkeypatch, jp6, [(base - 1,)], 0, m_new)
    assert seen == [np.int64, dtype]
    assert got == want
    assert got[1] == [(1, (base,), (-3,))] and got[0] == [(base - 3 * 4**m_new,)]


# ---------------------------------------------------------------------------
# frame Grams


def test_centred_group_gram_past_2_62():
    # B = {-b, b} is centred at 0 and its level-2 sums reach (r + 1) b, in
    # (2^62, 2^63): the columns 2b - 2c_k = 2b pass 2^63, and come exactly
    # from the digit sums of 2B
    r, b = 3 * 2**31 + 1, 2**30 + 3
    pair = affine_pair([[r]], [(-b,), (b,)])
    freqs = [(0,), (1,), (3,), (2**40 + 5,)]
    P = _characters(pair.R.pow(2), freqs, digit_sums(pair.R, pair.B, 2))
    G = _group_gram(pair, 2, 2, freqs, (0,))
    # centring multiplies each row by one phase: the moduli and spectrum stay
    assert G.dtype == float
    assert np.allclose(np.abs(G), np.abs(P @ P.conj().T), atol=1e-9)
    assert np.allclose(np.linalg.eigvalsh(G), np.linalg.eigvalsh(P @ P.conj().T), atol=1e-9)


# ---------------------------------------------------------------------------
# frequencies mapped back


SHEAR = ConjugationRecord(IntMatrix(((1, 1), (0, 1))), "shear")


@pytest.mark.parametrize("x, dtype", [(2**62 - 1, np.int64), (2**62, object)])
def test_map_numerators_back_at_the_bound(monkeypatch, x, dtype):
    # G^{-T} maps (-x, x) to (-x, 2x): 2^63 - 2 below the bound, 2^63 above
    seen = _dtypes(monkeypatch, quasiprod)
    points = [(-x, x), (3, -5)]
    got = quasiprod.map_frequency_back(points, [SHEAR])
    assert seen == [dtype]
    assert got == [f_map_back(p, [SHEAR]) for p in points]
    assert got[0] == (-x, 2 * x)


# ---------------------------------------------------------------------------
# the source guard


class _ObjectArrays(ast.NodeVisitor):
    """module.function of each use of `object` or of the dtype strings
    "O" and "object"."""

    def __init__(self, module: str):
        self.stack = [module]
        self.found = set()

    def _scope(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_FunctionDef = visit_ClassDef = _scope

    def visit_Name(self, node):
        if node.id == "object":
            self.found.add(".".join(self.stack))

    def visit_Constant(self, node):
        if node.value in ("O", "object"):
            self.found.add(".".join(self.stack))


def _object_array_sites() -> set[str]:
    out = set()
    for path in sorted(SRC.glob("*.py")):
        visitor = _ObjectArrays(path.stem)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        out |= visitor.found
    return out


def test_object_arrays_only_in_the_exact_integer_helpers():
    assert _object_array_sites() <= set(OBJECT_ARRAYS)


def test_object_array_list_names_real_sites():
    # an entry that stopped forming object arrays must leave the list
    assert set(OBJECT_ARRAYS) <= _object_array_sites()
