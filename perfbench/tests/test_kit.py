"""The benchmark's own checks: each accepts a right output and rejects a wrong one.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys
from fractions import Fraction

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import kit  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

JP = workloads.PROBLEMS["jp"]
SKEW = workloads.PROBLEMS["skew"]
MT = workloads.PROBLEMS["mt"]
ZERO67 = workloads.PROBLEMS["zero67"]


def test_phases_match_fractions_on_both_integer_paths():
    R = SKEW["R"]
    rng = np.random.default_rng(0)
    lam = [[int(a), int(b)] for a, b in rng.integers(-10**12, 10**12, size=(20, 2))]
    for j in (2, 30):  # int64 path, then Python-int path
        M = kit.mat_pow(R, j)
        inv = [[Fraction(c, kit.det(M)) for c in row] for row in kit.adjugate(M)]
        got = kit.phases(M, SKEW["B"], lam, den=3)
        for i, l in enumerate(lam):
            for t, b in enumerate(SKEW["B"]):
                x = sum(Fraction(l[s], 3) * sum(inv[s][u] * b[u] for u in range(2)) for s in range(2))
                assert got[i, t] == float(x - (x.numerator // x.denominator))


def test_orthogonality_rejects_a_frequency_moved_by_half():
    freqs = [[v[0]] for v in kit.digit_sums(JP["R"], JP["L"], 4)]
    num, den = kit.common_denominator(freqs)
    kit.check_orthogonal(JP["R"], JP["B"], kit.pair_differences(num, kit.all_pairs(len(num))), den)
    freqs[5] = [Fraction(freqs[5][0]) + Fraction(1, 2)]
    num, den = kit.common_denominator(freqs)
    with pytest.raises(kit.CheckFailed):
        kit.check_orthogonal(
            JP["R"], JP["B"], kit.pair_differences(num, kit.all_pairs(len(num))), den
        )


def test_witness_check_rejects_a_point_off_the_zero_set():
    kit.check_zero_witness(SKEW["R"], SKEW["B"], [0, "1/3"])
    kit.check_zero_witness(ZERO67["R"], ZERO67["B"], ["1/67"])
    with pytest.raises(kit.CheckFailed):
        kit.check_zero_witness(SKEW["R"], SKEW["B"], [0, "2/5"])
    with pytest.raises(kit.CheckFailed):
        kit.check_zero_witness(ZERO67["R"], ZERO67["B"], ["1/66"])


def test_frame_bounds_off_by_1e6_are_rejected():
    rows = [(0,), (1,), (5,), (7,)]
    w = kit.frame_eigenvalues(MT["R"], MT["B"], 2, rows)
    lo, hi = max(float(w[0]), 0.0), float(w[-1])
    kit.check_frame_bounds(MT["R"], MT["B"], 2, rows, lo, hi)
    with pytest.raises(kit.CheckFailed):
        kit.check_frame_bounds(MT["R"], MT["B"], 2, rows, lo, hi + 1e-6)
    with pytest.raises(kit.CheckFailed):
        kit.check_frame_bounds(MT["R"], MT["B"], 2, rows, lo - 1e-6, hi)


def test_unitary_rows_expect_one_and_rank_zero():
    kit.check_unitary_rows(1.0, 1.0 + 1e-12, 64, 64)
    kit.check_unitary_rows(0.0, 1.0, 64, 8192)
    with pytest.raises(kit.CheckFailed):
        kit.check_unitary_rows(1.0 - 1e-6, 1.0, 64, 64)
    with pytest.raises(kit.CheckFailed):
        kit.check_unitary_rows(1.0, 1.0, 64, 8192)


def test_repeated_residue_is_rejected():
    R = SKEW["R"]
    M = kit.mat_pow(R, 3)
    digits = kit.digit_sums(R, SKEW["B"], 3)
    kit.check_distinct_residues(M, digits, 64)
    col = [row[0] for row in M]
    digits[7] = tuple(a + c for a, c in zip(digits[3], col))  # digits[3] + M e_1
    with pytest.raises(kit.CheckFailed):
        kit.check_distinct_residues(M, digits, 64)


def test_defect_check_recomputes_the_unitary():
    R, B, L = SKEW["R"], SKEW["B"], SKEW["L"]
    exact = kit.unitarity_defect(R, B, L)
    kit.check_defect(R, B, L, exact)
    with pytest.raises(kit.CheckFailed):
        kit.check_defect(R, B, L, exact + 1e-11)
    with pytest.raises(kit.CheckFailed):  # not a Hadamard triple
        kit.check_defect(R, B, [[0, 0], [1, 0], [0, 1], [1, 1]], 0.0)


def test_energy_check_rejects_a_repeated_frequency():
    freqs = [[v[0]] for v in kit.digit_sums(JP["R"], JP["L"], 6)]
    ints, off = kit.split_float_points(freqs)
    xi = np.array([[0.01], [0.3], [0.7]])
    kit.check_energy(JP["R"], JP["B"], ints, off, xi, 0.0, 1 + 1e-6)
    ints, off = kit.split_float_points(freqs + [[0]])
    with pytest.raises(kit.CheckFailed):
        kit.check_energy(JP["R"], JP["B"], ints, off, xi, 0.0, 1 + 1e-6)


def test_closed_form_matches_atoms_and_rejects_wrong_depth():
    R, B, n = MT["R"], MT["B"], 6
    atoms = np.array([v[0] for v in kit.digit_sums(R, B, n)], dtype=float) / 3.0**n
    xi = np.array([[-7.25], [0.5], [13.1]])
    values = np.exp(-2j * np.pi * xi @ atoms[None, :]).mean(axis=1)
    kit.check_closed_form(R, B, n, xi, values)
    with pytest.raises(kit.CheckFailed):
        kit.check_closed_form(R, B, n - 1, xi, values)


def test_benchmark_json_names_every_reported_metric():
    root = os.path.dirname(os.path.dirname(HERE))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"solve_s", "verify_s", "setup_s", "peak_rss_mb"}
    ops = [op.name for make in workloads.WORKLOADS.values() for op in make()]
    reported = set(tracing.layer_metrics({})) | {f"op.{o}.s" for o in ops}
    reported |= {"run.cpu_s", "trace.solve_s", "trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == reported
    for m in spec["per_layer"]:
        assert m["unit"] == tracing.unit_of(m["name"])
        assert m["better"] == ("higher" if m["name"] in tracing.RATES else "lower")
