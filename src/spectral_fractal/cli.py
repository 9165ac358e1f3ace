"""Command line front end: problem files in, reports and images out.

Problems are JSON objects with integer matrix rows "R", digit rows "B", an
optional frequency list "L" and an optional "params" block of overrides.
Reports are JSON with a stable layout (tool_version, command, the embedded
problem, an input digest, resolved params, results, certificates, timings);
everything except the timings block is byte-deterministic for a fixed
problem and seed, and `verify` re-derives every numeric claim from the
embedded problem.  Tabular exports are CSV with 17 significant digits,
images are binary PGM.

Exit codes: 0 success, 1 failed verification, 2 invalid input,
3 mathematical refusal, 4 inconclusive, 5 cap exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .errors import (
    AmbiguousSpectrum,
    CapExceeded,
    CycleNotFound,
    DimensionUnsupported,
    GammaFullOrTrivial,
    InconsistentDecomposition,
    InvalidInput,
    NoBetaAccepted,
    NoShiftFound,
    NotCompleteReps,
    NotHadamard,
    NotInvariant,
    RankDeficient,
    ResidueCollision,
    SpectralFractalError,
    Undecided,
    ZeroSetNonEmpty,
)
from .frames import residues_distinct, select_subset, tower_frame
from .intlat import reduce_to_full
from .measure import FourierEval, mu_hat_field, render_attractor, render_field, write_pgm
from .quasiprod import full_spectrum
from .triples import affine_pair, hadamard_triple, tower
from .zeroset import zero_set_empty_evidence

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID = 2
EXIT_REFUSED = 3
EXIT_INCONCLUSIVE = 4
EXIT_CAP = 5

# Failure modes that mean "the input is a well posed problem whose answer is
# no" (exit 3) versus "the tool could not settle it" (exit 4).
_REFUSALS = (
    NotHadamard,
    ZeroSetNonEmpty,
    ResidueCollision,
    RankDeficient,
)
_INCONCLUSIVE = (
    Undecided,
    AmbiguousSpectrum,
    NoShiftFound,
    CycleNotFound,
    NotInvariant,
    NotCompleteReps,
    GammaFullOrTrivial,
    InconsistentDecomposition,
    NoBetaAccepted,
    DimensionUnsupported,
)


# ---------------------------------------------------------------------------
# JSON value encoding.  Integers beyond 2^53 - 1 travel as decimal strings so
# nothing is rounded by readers that parse numbers as doubles.

_SAFE_INT = 2**53 - 1


def _enc_int(v) -> int | str:
    v = int(v)
    return v if abs(v) <= _SAFE_INT else str(v)


def _enc_frac(x) -> int | str:
    fr = Fraction(x)
    if fr.denominator == 1:
        return _enc_int(fr.numerator)
    return f"{fr.numerator}/{fr.denominator}"


def _enc_rows(rows):
    return [[_enc_int(c) for c in row] for row in rows]


def _enc_frac_rows(rows):
    return [[_enc_frac(c) for c in row] for row in rows]


def _json_default(o):
    if isinstance(o, np.integer):
        return _enc_int(int(o))
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, Fraction):
        return _enc_frac(o)
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, default=_json_default) + "\n"


def _parse_int(v, where: str) -> int:
    if isinstance(v, bool):
        raise InvalidInput(f"{where}: booleans are not integers")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        s = v.strip()
        if s and s.lstrip("+-").isdigit():
            return int(s)
    raise InvalidInput(f"{where}: expected an integer or integer string, got {v!r}")


def _parse_rows(v, where: str) -> list[list[int]]:
    if not isinstance(v, list) or not v or not all(isinstance(r, list) for r in v):
        raise InvalidInput(f"{where}: expected a list of rows")
    return [[_parse_int(c, where) for c in row] for row in v]


def load_problem(path: str) -> dict:
    """Parse and normalize a problem file; unknown keys are rejected."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read problem file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"problem file is not valid JSON: {exc}") from exc
    return normalize_problem(raw)


def normalize_problem(raw) -> dict:
    if not isinstance(raw, dict):
        raise InvalidInput("problem must be a JSON object")
    unknown = set(raw) - {"R", "B", "L", "params"}
    if unknown:
        raise InvalidInput(f"unknown problem keys: {sorted(unknown)}")
    if "R" not in raw or "B" not in raw:
        raise InvalidInput("problem needs both R and B")
    problem = {"R": _parse_rows(raw["R"], "R"), "B": _parse_rows(raw["B"], "B")}
    if raw.get("L") is not None:
        problem["L"] = _parse_rows(raw["L"], "L")
    params = raw.get("params") or {}
    if params:
        if not isinstance(params, dict):
            raise InvalidInput("params must be an object")
        bad = set(params) - _PARAM_KEYS
        if bad:
            raise InvalidInput(f"unknown params keys: {sorted(bad)}")
        problem["params"] = dict(params)
    return problem


def _canonical_problem(problem: dict) -> dict:
    out = {"R": _enc_rows(problem["R"]), "B": _enc_rows(problem["B"])}
    if "L" in problem:
        out["L"] = _enc_rows(problem["L"])
    if problem.get("params"):
        out["params"] = problem["params"]
    return out


def inputs_digest(problem: dict) -> str:
    blob = json.dumps(
        _canonical_problem(problem), sort_keys=True, separators=(",", ":")
    )
    return "sha256:" + hashlib.sha256(blob.encode()).hexdigest()


def _pair(problem: dict):
    return affine_pair(problem["R"], problem["B"])


def _triple(problem: dict):
    if "L" not in problem:
        raise InvalidInput("this command needs a frequency list L")
    return hadamard_triple(problem["R"], problem["B"], problem["L"])


# ---------------------------------------------------------------------------
# subcommand runners.  Each returns (results, certificates, exit_code) from a
# problem and fully resolved params, so `verify` can replay a stored report
# with no access to the original command line.


def run_validate(problem: dict, params: dict):
    """`tower_defects` is informational: each level inherits the base
    defect through the tower lemma, so nothing is measured per level."""
    base = _triple(problem)
    levels = range(2, int(params["towers"]) + 1) if base.validated else ()
    results = {
        "valid": base.validated,
        "defect": base.defect,
        "tower_defects": [tower(base, k).defect for k in levels],
        "size": len(problem["B"]),
        "dimension": len(problem["R"]),
    }
    return results, {"grade": base.grade}, EXIT_OK if base.validated else EXIT_REFUSED


def _run_pipeline(problem: dict, params: dict):
    return full_spectrum(
        _triple(problem),
        K=int(params["depth"]),
        scan_K=int(params["scan_window"]),
        limit=int(params["limit"]),
    )


def _evidence_payload(evidence):
    if evidence is None:
        return None
    out = {"kind": evidence.kind, "note": evidence.note, "witness": None}
    if evidence.witness is not None:
        w = evidence.witness
        out["witness"] = {
            "point": [_enc_frac(c) for c in w.point],
            "window": w.K,
            "levels": w.J,
            "status": w.status,
            "grade": w.grade,
            "out_value": w.out_value,
        }
    return out


def run_spectrum(problem: dict, params: dict):
    rep = _run_pipeline(problem, params)
    freqs = rep.frequencies
    results = {
        "status": rep.status,
        "branch": rep.branch,
        "integer_spectrum": rep.integer_spectrum,
        "note": rep.note,
        "conjugations": len(rep.records),
        "frequency_count": len(freqs),
        "frequencies": _enc_frac_rows(freqs[:64]),
    }
    certificates = {
        "evidence": _evidence_payload(rep.evidence),
        "cover": None,
        "product": None,
    }
    if rep.tree is not None and rep.tree.cover is not None:
        cov = rep.tree.cover
        certificates["cover"] = {
            "m_cover": cov.m_cover,
            "delta_hat": cov.delta_hat,
            "window": cov.window,
            "eps0": cov.eps0,
        }
    if rep.product is not None:
        certificates["product"] = {
            "beta": rep.product.beta,
            "step": _enc_frac(rep.product.step),
            "minimum": rep.product.minimum,
            "maximum": rep.product.maximum,
            "threshold": rep.product.threshold,
        }
    code = EXIT_OK if rep.status == "spectral" else EXIT_INCONCLUSIVE
    return results, certificates, code, freqs


def run_zeroset(problem: dict, params: dict):
    evd = zero_set_empty_evidence(_pair(problem), K=int(params["window"]))
    results = {"kind": evd.kind, "empty": evd.empty, "note": evd.note}
    certificates = {"witness": _evidence_payload(evd)["witness"]}
    code = EXIT_OK if evd.kind != "inconclusive" else EXIT_INCONCLUSIVE
    return results, certificates, code


def run_frames(problem: dict, params: dict):
    """A triple takes its exact tower rows; a bare pair takes the search."""
    n = int(params["n"])
    if n < 0:
        raise InvalidInput("frame level n must be >= 0")
    if "L" in problem:
        triple = _triple(problem)
        pair, rep = triple.pair, tower_frame(triple, n)
        certificates = {"grade": triple.grade}
    else:
        pair = _pair(problem)
        rep = select_subset(pair, n, seed=int(params["seed"]), budget=int(params["budget"]))
        certificates = {}
    results = {
        "n": rep.n,
        "J": _enc_rows(rep.J_n),
        "sigma_min_sq": rep.sigma_min_sq,
        "sigma_max_sq": rep.sigma_max_sq,
        "ratio": rep.ratio,
        "epsilon": rep.epsilon,
        "strategy": rep.strategy,
        "seed": rep.seed,
        "residues_distinct": bool(residues_distinct(pair.R, rep.J_n, n)) if n else True,
    }
    return results, certificates, EXIT_OK


def run_quasiprod(problem: dict, params: dict):
    rep = _run_pipeline(problem, params)
    results = {
        "status": rep.status,
        "branch": rep.branch,
        "integer_spectrum": rep.integer_spectrum,
        "note": rep.note,
    }
    certificates = {}
    if rep.quasi is not None:
        q = rep.quasi
        results["split"] = {
            "r": q.r,
            "R1": _enc_rows(q.R1.rows),
            "R2": _enc_rows(q.R2.rows),
            "Q": _enc_rows(q.Q.rows),
            "transverse_index": q.transverse_index,
            "first_block_digits": _enc_rows(q.u_values),
            "sub_digits": _enc_rows(q.sub.B),
            "sub_frequencies": _enc_rows(q.sub.L),
        }
    if rep.product is not None:
        results["product"] = {
            "beta": rep.product.beta,
            "step": _enc_frac(rep.product.step),
            "minimum": rep.product.minimum,
            "maximum": rep.product.maximum,
            "lattice_factor_count": rep.product.lam1_count,
        }
        certificates["product_minimum"] = rep.product.minimum
    if rep.status == "spectral" and rep.branch == "orthonormal" and not rep.note:
        results["note"] = "integer spectrum exists; no product splitting needed"
    code = EXIT_OK if rep.status == "spectral" else EXIT_INCONCLUSIVE
    return results, certificates, code


def run_reduce(problem: dict, params: dict):
    rp = reduce_to_full(problem["R"], problem["B"], problem.get("L"))
    R1, B1, L1 = rp.project()
    rec = rp.record
    results = {
        "rank": rp.rank,
        "note": rec.note,
        "forward": _enc_frac_rows(rec.forward),
        "backward": _enc_frac_rows(rec.backward),
        "translation": None
        if rec.translation is None
        else [_enc_int(c) for c in rec.translation],
        "lattice_basis": None
        if rec.lattice_basis is None
        else _enc_rows(rec.lattice_basis.rows),
        "reduced_R": _enc_rows(R1.rows),
        "reduced_B": _enc_rows(B1),
        "reduced_L": None if L1 is None else _enc_rows(L1),
    }
    return results, {}, EXIT_OK


def run_render(problem: dict, params: dict, out: str):
    pair = _pair(problem)
    what = params["what"]
    resolution = int(params["resolution"])
    if resolution < 2:
        raise InvalidInput("resolution must be at least 2")
    if what == "attractor":
        stats = render_attractor(pair, resolution, out, cap=int(params["cap"]))
    elif what == "transform":
        W = float(params["window"])
        field = mu_hat_field(FourierEval(pair), [-W] * pair.d, [W] * pair.d, resolution)
        if pair.d == 1:
            # raster the 1D profile as a curve on a square canvas
            vals = field[0]
            img = np.zeros((resolution, len(vals)))
            ys = np.clip(
                ((1 - vals) * (resolution - 1)).round().astype(int), 0, resolution - 1
            )
            img[ys, np.arange(len(vals))] = 255.0
            write_pgm(img, out)
            stats = {"shape": [int(s) for s in img.shape], "max": float(vals.max())}
        else:
            stats = render_field(field, out)
    else:
        raise InvalidInput(f"unknown render target {what!r}")
    with open(out, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    results = {"what": what, "resolution": resolution, **stats}
    certificates = {"image_sha256": digest}
    return results, certificates, EXIT_OK


# ---------------------------------------------------------------------------
# report plumbing


def build_report(command, problem, params, results, certificates, t0) -> dict:
    return {
        "tool_version": __version__,
        "command": command,
        "problem": _canonical_problem(problem),
        "inputs_digest": inputs_digest(problem),
        "params": params,
        "results": results,
        "certificates": certificates,
        "timings": {"total_s": round(time.time() - t0, 6)},
    }


def emit_report(report: dict, out: str | None) -> None:
    text = _dumps(report)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_path(out: str) -> str:
    base, _ = os.path.splitext(out)
    return base + ".csv"


def write_frequency_csv(path: str, freqs) -> None:
    d = len(freqs[0]) if freqs else 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(f"x{i}" for i in range(d)) + "\n")
        for p in freqs:
            fh.write(",".join("%.17g" % float(c) for c in p) + "\n")


def write_frame_csv(path: str, results: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("n,strategy,sigma_min_sq,sigma_max_sq,ratio,epsilon\n")
        fh.write(
            "%d,%s,%.17g,%.17g,%.17g,%.17g\n"
            % (
                results["n"],
                results["strategy"],
                results["sigma_min_sq"],
                results["sigma_max_sq"],
                results["ratio"],
                results["epsilon"],
            )
        )


# ---------------------------------------------------------------------------
# verification: replay the runner on the embedded problem and compare every
# recorded claim within fixed tolerances.


def _values_close(a, b, tol: float = 1e-9) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(float(a), float(b), rel_tol=tol, abs_tol=tol)
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(_values_close(a[k], b[k], tol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_values_close(x, y, tol) for x, y in zip(a, b))
    return a == b


_REPORT_KEYS = {
    "tool_version",
    "command",
    "problem",
    "inputs_digest",
    "params",
    "results",
    "certificates",
    "timings",
}

_RUNNERS = {
    "validate": run_validate,
    "spectrum": run_spectrum,
    "zeroset": run_zeroset,
    "frames": run_frames,
    "quasiprod": run_quasiprod,
    "reduce": run_reduce,
}


def run_verify(path: str) -> int:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"FAIL: cannot load report: {exc}")
        return EXIT_INVALID
    if not isinstance(report, dict) or set(report) != _REPORT_KEYS:
        print("FAIL: report does not have the expected layout")
        return EXIT_INVALID
    command = report["command"]
    try:
        problem = normalize_problem(report["problem"])
    except InvalidInput as exc:
        print(f"FAIL: embedded problem is invalid: {exc}")
        return EXIT_INVALID
    if report["inputs_digest"] != inputs_digest(problem):
        print("FAIL: inputs digest does not match the embedded problem")
        return EXIT_VERIFY_FAILED
    if not isinstance(command, str) or command not in _PARAMS:
        print(f"FAIL: reports for command {command!r} cannot be verified")
        return EXIT_INVALID
    params = report["params"]
    try:
        _check_params(command, params, problem)
    except InvalidInput as exc:
        print(f"FAIL: recorded params are invalid: {exc}")
        return EXIT_INVALID
    try:
        if command == "render":
            with tempfile.TemporaryDirectory() as td:
                results, certificates, _ = run_render(
                    problem, params, os.path.join(td, "replay.pgm")
                )
        elif command == "spectrum":
            results, certificates, _, _ = run_spectrum(problem, params)
        else:
            results, certificates, _ = _RUNNERS[command](problem, params)
    except SpectralFractalError as exc:
        print(f"FAIL: replay raised {type(exc).__name__}: {exc}")
        return EXIT_VERIFY_FAILED
    replay = json.loads(_dumps({"results": results, "certificates": certificates}))
    for section in ("results", "certificates"):
        if not _values_close(replay[section], report[section]):
            print(f"FAIL: recorded {section} do not match the replay")
            return EXIT_VERIFY_FAILED
    print("PASS")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing / dispatch


# Per command: (params key, flag, problem params key, default, type).  The
# table declares each command's flags and the keys and types of its params;
# a row with no flag is set through the problem's params block only, except
# render's positional `what`.
_PARAMS = {
    "validate": (("towers", "--depth", "depth", 4, int),),
    "spectrum": (
        ("depth", "--depth", "depth", 6, int),
        ("scan_window", "--window", "window", 10, int),
        ("limit", "--cap", "limit", 4096, int),
    ),
    "zeroset": (("window", "--window", "window", 10, int),),
    "frames": (
        ("n", "--depth", "n", 1, int),
        ("seed", "--seed", "seed", 0, int),
        ("budget", None, "budget", 4, int),
    ),
    "reduce": (),
    "render": (
        ("what", None, "what", None, str),
        ("resolution", "--resolution", "resolution", 256, int),
        ("window", "--window", "window", 4, int),
        ("cap", "--cap", "cap", 2**16, int),
    ),
}
_PARAMS["quasiprod"] = _PARAMS["spectrum"]
# params that a triple's run does not read: a triple's frame rows are its
# tower rows, which no seed or budget steers, so they are recorded as null
_TRIPLE_UNREAD = {"frames": ("seed", "budget")}
# keys a problem file's params block may hold; render's `what` is positional
_PARAM_KEYS = {pkey for rows in _PARAMS.values() for _, _, pkey, _, _ in rows} - {"what"}

_FLAG_HELP = {
    "--depth": "levels / tower height / frame level",
    "--window": "scan or plot window",
    "--seed": "random seed",
    "--cap": "work and output size cap",
    "--resolution": "image side length",
}


def _add_flags(sp, command: str) -> None:
    sp.add_argument("problem", help="problem JSON file")
    for key, flag, _, _, typ in _PARAMS[command]:
        if flag:
            sp.add_argument(flag, dest=key, type=typ, default=None, help=_FLAG_HELP[flag])
    sp.add_argument("--out", default=None, help="output path (stdout if omitted)")


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spectral-fractal",
        description="spectra, zero sets and frames of self-affine measures",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_ in (
        ("validate", "decide (R, B, L) exactly; its towers inherit the verdict"),
        ("spectrum", "decide spectrality and emit a frequency list"),
        ("zeroset", "scan and certify the periodic zero set"),
        ("frames", "level-n frame rows: exact tower rows of a triple, else a subset search"),
        ("quasiprod", "split a non-orthonormal system into a product spectrum"),
        ("reduce", "normalize the digit system onto its invariant lattice"),
    ):
        _add_flags(sub.add_parser(name, help=help_), name)
    rp = sub.add_parser("render", help="write a PGM image of the attractor or |mu_hat|")
    rp.add_argument("what", choices=("attractor", "transform"))
    _add_flags(rp, "render")
    vp = sub.add_parser("verify", help="replay a report and check its claims")
    vp.add_argument("report", help="report JSON file")
    return p


def _resolved_params(command: str, problem: dict, args) -> dict:
    """Precedence per param: command line argument, then problem params, then default."""
    given = problem.get("params", {})
    params = {}
    for key, _, pkey, default, typ in _PARAMS[command]:
        value = getattr(args, key, None)
        if value is None:
            value = given.get(pkey, default)
        try:
            params[key] = typ(value)
        except (TypeError, ValueError):
            raise InvalidInput(f"params {pkey}: expected {typ.__name__}, got {value!r}") from None
    if "L" in problem:
        params.update(dict.fromkeys(_TRIPLE_UNREAD.get(command, ())))
    return params


def _check_params(command: str, params, problem: dict) -> None:
    """A report's resolved params must hold exactly the keys `_PARAMS` gives
    the command, each value of its type; an int passes for a float, a bool
    for nothing.  For a triple, a param it does not read may be null."""
    types = {key: typ for key, _, _, _, typ in _PARAMS[command]}
    if not isinstance(params, dict) or set(params) != set(types):
        got = sorted(params) if isinstance(params, dict) else type(params).__name__
        raise InvalidInput(f"expected keys {sorted(types)}, got {got}")
    unread = _TRIPLE_UNREAD.get(command, ()) if "L" in problem else ()
    for key, typ in types.items():
        value = params[key]
        if value is None and key in unread:
            continue
        ok = isinstance(value, (int, float) if typ is float else typ)
        if isinstance(value, bool) or not ok:
            raise InvalidInput(f"{key}: expected {typ.__name__}, got {value!r}")


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    if args.command == "verify":
        return run_verify(args.report)
    t0 = time.time()
    freqs = None
    try:
        problem = load_problem(args.problem)
        params = _resolved_params(args.command, problem, args)
        if args.command == "render":
            if not args.out:
                raise InvalidInput("render needs --out for the image path")
            results, certificates, code = run_render(problem, params, args.out)
        elif args.command == "spectrum":
            results, certificates, code, freqs = run_spectrum(problem, params)
        else:
            results, certificates, code = _RUNNERS[args.command](problem, params)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except _REFUSALS as exc:
        print(f"refused: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except _INCONCLUSIVE as exc:
        print(f"inconclusive: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    report = build_report(args.command, problem, params, results, certificates, t0)
    # for render, --out is the image itself and the report goes to stdout
    report_out = None if args.command == "render" else args.out
    emit_report(report, report_out)
    if report_out:
        if freqs is not None:
            write_frequency_csv(_csv_path(report_out), freqs)
        elif args.command == "frames":
            write_frame_csv(_csv_path(report_out), results)
    return code


if __name__ == "__main__":
    sys.exit(main())
