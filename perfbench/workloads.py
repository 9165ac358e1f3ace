"""The benchmark's workloads: reference problems, operations and their checks.

Every operation goes through a public entry point of the package:
``cli.main([...])`` for commands, the library functions for work the CLI
does not reach.  Each operation's output is checked by ``kit``, which does
not import the package's numeric code.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import kit

# Fixed reference problems; the seed only draws the check samples.
PROBLEMS = {
    "jp": {"R": [[4]], "B": [[0], [2]], "L": [[0], [1]]},
    "jp3": {"R": [[4]], "B": [[0], [2]], "L": [[0], [3]]},
    "skew": {
        "R": [[4, 0], [1, 2]],
        "B": [[0, 0], [0, 3], [1, 0], [1, 3]],
        "L": [[0, 0], [2, 0], [0, 1], [2, 1]],
    },
    "mt": {"R": [[3]], "B": [[0], [2]]},
    "zero67": {"R": [[2]], "B": [[0], [67]], "L": [[0], [1]]},
}

# The frames seed stays fixed: leverage-swap descent takes 3.9-8.7 s over
# seeds 0-11, which alone would spread solve_s on towers-frames by ~12 %.
FRAMES_SEED = 0
XI_SAMPLES = 16
PAIR_SAMPLES = 2000


@dataclass
class Context:
    """One run's problem files, validated triples and check samples."""

    dir: str
    seed: int
    sf: Any  # the spectral_fractal package
    triples: dict = field(default_factory=dict)
    rows: dict = field(default_factory=dict)

    def problem(self, name: str) -> str:
        return os.path.join(self.dir, name + ".json")

    def out(self, name: str) -> str:
        return os.path.join(self.dir, name + ".out.json")

    def rng(self, tag: str) -> np.random.Generator:
        """Check samples: a stream per (seed, tag), independent of run order."""
        return np.random.default_rng([self.seed, zlib.crc32(tag.encode())])


@dataclass
class Op:
    """One operation: `run` is timed, `accept` decides failure, `check` correctness."""

    name: str
    kind: str  # "solve" | "verify"
    cap_s: float
    run: Callable[[Context], Any]
    check: Callable[[Context, Any], None] | None = None
    accept: Callable[[Context, Any], bool] = lambda ctx, out: out[0] == 0


def setup(dirname: str, seed: int) -> Context:
    """Write the problem files and build the validated triples."""
    import spectral_fractal as sf

    os.makedirs(dirname, exist_ok=True)
    for name, prob in PROBLEMS.items():
        with open(os.path.join(dirname, name + ".json"), "w", encoding="utf-8") as fh:
            json.dump(prob, fh)
    ctx = Context(dirname, seed, sf)
    for name in ("jp", "jp3", "skew", "zero67"):
        p = PROBLEMS[name]
        ctx.triples[name] = sf.hadamard_triple(p["R"], p["B"], p["L"]).require_validated()
    ctx.triples["mt"] = sf.affine_pair(PROBLEMS["mt"]["R"], PROBLEMS["mt"]["B"])
    jp = PROBLEMS["jp"]
    Rt = kit.transpose(jp["R"])
    ctx.rows["jp_l10"] = kit.digit_sums(Rt, jp["L"], 10)
    ctx.rows["jp_l6"] = kit.digit_sums(Rt, jp["L"], 6)
    return ctx


# ---------------------------------------------------------------------------
# operations through the command line


def _cli(ctx: Context, *argv: str):
    """cli.main with captured output; returns (exit code, stdout, report path)."""
    from spectral_fractal import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    path = argv[argv.index("--out") + 1] if "--out" in argv else None
    return code, out.getvalue(), path


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _csv_points(report_path: str) -> np.ndarray:
    base, _ = os.path.splitext(report_path)
    return np.loadtxt(base + ".csv", delimiter=",", skiprows=1, ndmin=2)


def command(name, cap_s, *argv, check=None, accept=None) -> Op:
    """A CLI command writing its report to ctx.out(name); "@p" names problem p."""

    def run(ctx):
        args = [ctx.problem(a[1:]) if a.startswith("@") else a for a in argv]
        return _cli(ctx, *args, "--out", ctx.out(name))

    op = Op(name, "solve", cap_s, run, check)
    if accept is not None:
        op.accept = accept
    return op


def verify(name, of: str, cap_s: float) -> Op:
    def check(ctx, out):
        kit.require(out[1].strip() == "PASS", f"verify printed {out[1].strip()!r}")

    return Op(name, "verify", cap_s, lambda ctx: _cli(ctx, "verify", ctx.out(of)), check)


def check_spectrum(problem: str, branch: str, energy_lo: float):
    """Status and branch; orthogonality over the exact report frequencies and
    over sampled pairs of the CSV export; energy sums at seeded xi."""

    def check(ctx, out):
        p = PROBLEMS[problem]
        R, B = p["R"], p["B"]
        report = _load(out[2])
        res = report["results"]
        kit.require(
            (res["status"], res["branch"]) == ("spectral", branch),
            f"status {res['status']}/{res['branch']}, expected spectral/{branch}",
        )
        num, den = kit.common_denominator(res["frequencies"])
        kit.check_orthogonal(R, B, kit.pair_differences(num, kit.all_pairs(len(num))), den)
        pts = _csv_points(out[2])
        kit.require(len(pts) == res["frequency_count"], "CSV row count differs from report")
        kit.require(len({tuple(r) for r in pts}) == len(pts), "repeated frequency in CSV")
        ints, off = kit.split_float_points(pts)
        rng = ctx.rng(problem)
        i = rng.integers(0, len(pts), PAIR_SAMPLES)
        j = rng.integers(0, len(pts) - 1, PAIR_SAMPLES)
        j = np.where(j >= i, j + 1, j)
        kit.check_orthogonal(
            R, B, kit.pair_differences(ints, list(zip(i, j))), off=off[i] - off[j]
        )
        xi = rng.uniform(0.0, 1.0, size=(XI_SAMPLES, len(R)))
        kit.check_energy(R, B, ints, off, xi, energy_lo, 1 + 1e-6)
        evidence = report["certificates"]["evidence"]
        if evidence and evidence["witness"]:
            w = evidence["witness"]
            kit.check_zero_witness(R, B, w["point"], w["window"])

    return check


def check_validate(problem: str, towers: int):
    """Base and tower defects are small and equal the exact-phase ones."""

    def check(ctx, out):
        p = PROBLEMS[problem]
        res = _load(out[2])["results"]
        kit.require(res["valid"] is True, "validate reports the system invalid")
        kit.require(len(res["tower_defects"]) == towers - 1, "tower defect count")
        kit.check_defect(p["R"], p["B"], p["L"], res["defect"])
        Rt = kit.transpose(p["R"])
        for k, claimed in enumerate(res["tower_defects"], start=2):
            kit.check_defect(
                kit.mat_pow(p["R"], k),
                kit.digit_sums(p["R"], p["B"], k),
                kit.digit_sums(Rt, p["L"], k),
                claimed,
            )

    return check


def check_frames(ctx, out):
    """Bounds are the exact-phase eigenvalues of the chosen rows; derived fields agree."""
    p = PROBLEMS["mt"]
    res = _load(out[2])["results"]
    n = res["n"]
    J = [tuple(int(c) for c in row) for row in res["J"]]
    kit.require(len(J) == len(p["B"]) ** n, f"{len(J)} rows, expected N^n")
    kit.require(len(set(J)) == len(J), "repeated frame row")
    kit.check_frame_bounds(p["R"], p["B"], n, J, res["sigma_min_sq"], res["sigma_max_sq"])
    keys = kit.residue_keys(kit.transpose(kit.mat_pow(p["R"], n)), J)
    kit.require(res["residues_distinct"] == (len(set(keys)) == len(J)), "residues_distinct flag")
    lo, hi = res["sigma_min_sq"], res["sigma_max_sq"]
    kit.require(abs(res["ratio"] - hi / lo) <= 1e-12 * res["ratio"], "ratio != hi / lo")
    kit.require(res["epsilon"] == max(1 - lo, hi - 1), "epsilon != max(1 - lo, hi - 1)")


def accept_zero67(ctx, out) -> bool:
    """{0,67} has the periodic zero 1/67, so only `refuted` with a witness the
    kit confirms, or `inconclusive` (exit 4), is an answer."""
    code, _, path = out
    try:
        res = _load(path)
    except (OSError, ValueError):
        return False
    kind = res["results"]["kind"]
    if code == 4 and kind == "inconclusive":
        return True
    if code != 0 or kind != "refuted":
        return False
    p = PROBLEMS["zero67"]
    w = res["certificates"]["witness"]
    try:
        kit.check_zero_witness(p["R"], p["B"], w["point"], w["window"])
    except kit.CheckFailed:
        return False
    return True


def check_zeroset_skew(ctx, out):
    p = PROBLEMS["skew"]
    rep = _load(out[2])
    res, w = rep["results"], rep["certificates"]["witness"]
    kit.require((res["kind"], res["empty"]) == ("refuted", False), f"zero set {res['kind']}")
    kit.check_zero_witness(p["R"], p["B"], w["point"], w["window"])


# ---------------------------------------------------------------------------
# operations through the library


def lib(name, cap_s, fn, check) -> Op:
    return Op(name, "solve", cap_s, fn, check, accept=lambda ctx, out: True)


def run_tower(problem: str, k: int):
    def run(ctx):
        t = ctx.sf.tower(ctx.triples[problem], k)
        return list(t.B), list(t.L)

    return run


def check_tower(problem: str, k: int):
    """Both level-k sets are the digit sums and fill N^k residue classes.

    That holds on either path of `tower`; the trace counts which one ran.
    """

    def check(ctx, out):
        Bk, Lk = out
        p = PROBLEMS[problem]
        R, Rt = p["R"], kit.transpose(p["R"])
        Nk = len(p["B"]) ** k
        kit.check_distinct_residues(kit.mat_pow(R, k), Bk, Nk)
        kit.check_distinct_residues(kit.mat_pow(Rt, k), Lk, Nk)
        kit.require(set(Bk) == set(kit.digit_sums(R, p["B"], k)), "digit tower")
        kit.require(set(Lk) == set(kit.digit_sums(Rt, p["L"], k)), "frequency tower")

    return check


def run_bounds(rows: str, n: int):
    def run(ctx):
        return ctx.sf.frame_matrix_bounds(ctx.triples["jp"].pair, n, ctx.rows[rows])

    return run


def check_bounds(rows: str, n: int):
    def check(ctx, out):
        kit.check_unitary_rows(out[0], out[1], len(ctx.rows[rows]), 2**n)

    return check


def run_canonical_tree(ctx):
    sf = ctx.sf
    tree = sf.canonical_tree(ctx.triples["jp"], 12)
    xi = ctx.rng("canonical_tree").uniform(0.0, 1.0, size=(100, 1))
    return tree.points, sf.completeness_partial(tree, xi), sf.orthogonality_check(tree, seed=ctx.seed)


def check_canonical_tree(ctx, out):
    points, Q, orth = out
    p = PROBLEMS["jp"]
    kit.require(len(points) == 2**12 and len(set(points)) == 2**12, "tree size")
    kit.require(bool(np.all(np.diff(Q, axis=0) >= 0)), "partial sums decrease")
    last = Q[-1]
    kit.require(
        bool(np.all(last >= 0.95) and np.all(last <= 1 + 1e-6)),
        f"last partial sums span [{last.min()}, {last.max()}]",
    )
    kit.require(orth < 1e-8, f"orthogonality_check reports {orth:.3e}")
    rng = ctx.rng("tree_pairs")
    i = rng.integers(0, len(points), PAIR_SAMPLES)
    j = rng.integers(0, len(points) - 1, PAIR_SAMPLES)
    j = np.where(j >= i, j + 1, j)
    kit.check_orthogonal(p["R"], p["B"], kit.pair_differences(points, list(zip(i, j))))


def run_discrete_approximant(ctx):
    dm = ctx.sf.discrete_approximant(ctx.triples["mt"], 18)
    xi = ctx.rng("discrete_approximant").uniform(-50.0, 50.0, size=(64, 1))
    return len(dm.atoms), xi, dm.fourier(xi)


def check_discrete_approximant(ctx, out):
    atoms, xi, values = out
    p = PROBLEMS["mt"]
    kit.require(0 < atoms <= 2**18, f"{atoms} atoms")
    kit.check_closed_form(p["R"], p["B"], 18, xi, values)


# ---------------------------------------------------------------------------
# the workloads; caps are about three times the reference time, 30 s at least.
# Every report is replayed by `verify`, and the replays sit apart in the round
# so that verify_s, like solve_s, samples the whole round rather than one
# moment of a shared host whose speed drifts by +-15 % over seconds.


def zeroset_quasiprod() -> list[Op]:
    return [
        command("spectrum_skew", 30, "spectrum", "@skew",
                check=check_spectrum("skew", "quasi-product", 0.95)),
        verify("verify_spectrum_skew", "spectrum_skew", 30),
        command("zeroset_skew", 30, "zeroset", "@skew", check=check_zeroset_skew),
        command("zeroset_zero67", 30, "zeroset", "@zero67", accept=accept_zero67),
        verify("verify_zeroset_skew", "zeroset_skew", 30),
    ]


def towers_frames() -> list[Op]:
    return [
        command("validate_jp_d8", 30, "validate", "@jp", "--depth", "8",
                check=check_validate("jp", 8)),
        verify("verify_validate_jp", "validate_jp_d8", 30),
        command("validate_skew_d5", 60, "validate", "@skew", "--depth", "5",
                check=check_validate("skew", 5)),
        command("frames_mt_d4", 30, "frames", "@mt", "--depth", "4",
                "--seed", str(FRAMES_SEED), check=check_frames),
        lib("tower_jp_14", 30, run_tower("jp", 14), check_tower("jp", 14)),
        lib("tower_skew_7", 30, run_tower("skew", 7), check_tower("skew", 7)),
        lib("bounds_jp_l10", 30, run_bounds("jp_l10", 10), check_bounds("jp_l10", 10)),
        lib("bounds_jp_l6_n13", 30, run_bounds("jp_l6", 13), check_bounds("jp_l6", 13)),
        verify("verify_frames_mt", "frames_mt_d4", 30),
    ]


def trees_1d() -> list[Op]:
    return [
        command("spectrum_jp_d14", 30, "spectrum", "@jp", "--depth", "14",
                check=check_spectrum("jp", "orthonormal", 0.0)),
        verify("verify_spectrum_jp", "spectrum_jp_d14", 30),
        command("spectrum_jp3_d12", 30, "spectrum", "@jp3", "--depth", "12",
                check=check_spectrum("jp3", "orthonormal", 0.0)),
        lib("canonical_tree_jp12", 30, run_canonical_tree, check_canonical_tree),
        lib("discrete_approximant_mt18", 30, run_discrete_approximant,
            check_discrete_approximant),
        verify("verify_spectrum_jp3", "spectrum_jp3_d12", 30),
    ]


WORKLOADS = {
    "zeroset-quasiprod": zeroset_quasiprod,
    "towers-frames": towers_frames,
    "trees-1d": trees_1d,
}
