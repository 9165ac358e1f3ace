import hashlib
import json
import subprocess
import sys

import pytest

from spectral_fractal import cli
from spectral_fractal.errors import InvalidInput
from spectral_fractal.quasiprod import SpectrumReport
from spectral_fractal.zeroset import EmptinessEvidence

JP = {"R": [[4]], "B": [[0], [2]], "L": [[0], [1]]}
SKEW = {
    "R": [[4, 0], [1, 2]],
    "B": [[0, 0], [0, 3], [1, 0], [1, 3]],
    "L": [[0, 0], [2, 0], [0, 1], [2, 1]],
}
MT = {"R": [[3]], "B": [[0], [2]]}


def write_problem(tmp_path, obj, name="problem.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def read_stdout_report(capsys):
    return json.loads(capsys.readouterr().out)


# ---------------------------------------------------------------------------
# problem files


def test_load_problem_normalizes_and_digests(tmp_path):
    p = write_problem(tmp_path, {"R": [["4"]], "B": [[0], ["2"]], "params": {"depth": 3}})
    prob = cli.load_problem(p)
    assert prob["R"] == [[4]] and prob["B"] == [[0], [2]]
    assert prob["params"] == {"depth": 3}
    assert cli.inputs_digest(prob) == cli.inputs_digest(cli.load_problem(p))


def test_load_problem_rejects_unknown_keys(tmp_path):
    p = write_problem(tmp_path, {"R": [[4]], "B": [[0]], "extra": 1})
    with pytest.raises(InvalidInput):
        cli.load_problem(p)
    p2 = write_problem(tmp_path, {"R": [[4]], "B": [[0]], "params": {"bogus": 1}}, "p2.json")
    with pytest.raises(InvalidInput):
        cli.load_problem(p2)


def test_load_problem_rejects_non_integers(tmp_path):
    for bad in ([[4.5]], [[True]], [["x"]]):
        p = write_problem(tmp_path, {"R": bad, "B": [[0]]})
        with pytest.raises(InvalidInput):
            cli.load_problem(p)


def test_big_integers_survive_as_strings(tmp_path, capsys):
    big = str(2**60)
    p = write_problem(tmp_path, {"R": [[big]], "B": [["0"], [str(2**59)]]})
    assert cli.main(["reduce", p]) == 0
    rep = read_stdout_report(capsys)
    assert rep["problem"]["R"] == [[big]]
    assert rep["results"]["reduced_B"] == [[0], [1]]


def test_missing_problem_file_is_invalid(tmp_path):
    assert cli.main(["zeroset", str(tmp_path / "nope.json")]) == 2


# ---------------------------------------------------------------------------
# validate


def test_validate_accepts_unitary_system(tmp_path, capsys):
    p = write_problem(tmp_path, JP)
    assert cli.main(["validate", p]) == 0
    rep = read_stdout_report(capsys)
    assert rep["results"]["valid"] is True
    assert rep["results"]["defect"] < 1e-12
    assert len(rep["results"]["tower_defects"]) == 3
    assert all(d <= rep["certificates"]["defect_tol"] for d in rep["results"]["tower_defects"])


def test_validate_requires_frequencies(tmp_path):
    assert cli.main(["validate", write_problem(tmp_path, MT)]) == 2


def test_validate_refuses_non_unitary(tmp_path, capsys):
    p = write_problem(tmp_path, {"R": [[4]], "B": [[0], [2]], "L": [[0], [2]]})
    assert cli.main(["validate", p]) == 3
    assert read_stdout_report(capsys)["results"]["valid"] is False


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_report_csv_and_verify(tmp_path):
    p = write_problem(tmp_path, JP)
    out = str(tmp_path / "report.json")
    assert cli.main(["spectrum", p, "--out", out]) == 0
    rep = json.load(open(out))
    assert rep["results"]["status"] == "spectral"
    assert rep["results"]["branch"] == "orthonormal"
    assert rep["results"]["frequencies"][:4] == [[0], [1], [4], [-3]]
    csv_lines = (tmp_path / "report.csv").read_text().splitlines()
    assert csv_lines[0] == "x0"
    assert csv_lines[1:5] == ["0", "1", "4", "-3"]
    assert cli.main(["verify", out]) == 0


def test_spectrum_quasi_product_branch(tmp_path):
    out = str(tmp_path / "skew.json")
    assert cli.main(["spectrum", write_problem(tmp_path, SKEW), "--out", out]) == 0
    rep = json.load(open(out))
    assert rep["results"]["branch"] == "quasi-product"
    prod = rep["certificates"]["product"]
    assert prod["beta"] == 3 and prod["step"] == "1/3"
    assert prod["minimum"] >= prod["threshold"]
    assert cli.main(["verify", out]) == 0


def test_spectrum_non_triple_is_refused(tmp_path):
    p = write_problem(tmp_path, {"R": [[4]], "B": [[0], [2]], "L": [[0], [2]]})
    assert cli.main(["spectrum", p]) == 3


def test_spectrum_undecided_maps_to_inconclusive(tmp_path, capsys, monkeypatch):
    stub = SpectrumReport(
        status="undecided",
        branch="",
        integer_spectrum="unknown",
        records=(),
        evidence=None,
        tree=None,
        quasi=None,
        product=None,
        sub_report=None,
        points=(),
        note="stubbed",
    )
    monkeypatch.setattr(cli, "full_spectrum", lambda *a, **k: stub)
    assert cli.main(["spectrum", write_problem(tmp_path, JP)]) == 4
    assert read_stdout_report(capsys)["results"]["status"] == "undecided"


# ---------------------------------------------------------------------------
# zeroset


def test_zeroset_refutation_is_a_finding(tmp_path):
    p = write_problem(tmp_path, {"R": [[2]], "B": [[0], [2]]})
    out = str(tmp_path / "zs.json")
    assert cli.main(["zeroset", p, "--out", out]) == 0
    rep = json.load(open(out))
    assert rep["results"]["kind"] == "refuted"
    assert rep["certificates"]["witness"]["point"] == ["1/2"]
    assert cli.main(["verify", out]) == 0


def test_zeroset_gcd_rule(tmp_path, capsys):
    assert cli.main(["zeroset", write_problem(tmp_path, {"R": [[2]], "B": [[0], [1]]})]) == 0
    rep = read_stdout_report(capsys)
    assert rep["results"]["kind"] == "gcd-1d" and rep["results"]["empty"] is True


def test_zeroset_inconclusive_maps_to_4(tmp_path, capsys, monkeypatch):
    stub = EmptinessEvidence(kind="inconclusive", note="stubbed")
    monkeypatch.setattr(cli, "zero_set_empty_evidence", lambda *a, **k: stub)
    assert cli.main(["zeroset", write_problem(tmp_path, MT)]) == 4
    assert read_stdout_report(capsys)["results"]["empty"] is False


def test_zeroset_unconfirmed_survivors_exit_4(tmp_path, capsys):
    p = write_problem(tmp_path, {"R": [[2]], "B": [[0], [67]], "L": [[0], [1]]})
    assert cli.main(["zeroset", p]) == 4
    res = read_stdout_report(capsys)["results"]
    assert res["kind"] == "inconclusive" and res["empty"] is False
    assert "prefilter" in res["note"]


# ---------------------------------------------------------------------------
# frames


def test_frames_report_csv_and_verify(tmp_path):
    out = str(tmp_path / "fr.json")
    assert cli.main(["frames", write_problem(tmp_path, MT), "--depth", "2", "--out", out]) == 0
    rep = json.load(open(out))
    assert rep["results"]["n"] == 2
    assert rep["results"]["ratio"] == pytest.approx(5.562141629889158)
    assert rep["results"]["residues_distinct"] is True
    lines = (tmp_path / "fr.csv").read_text().splitlines()
    assert lines[0] == "n,strategy,sigma_min_sq,sigma_max_sq,ratio,epsilon"
    assert lines[1].startswith("2,leverage-swap,")
    assert cli.main(["verify", out]) == 0


def test_frames_flag_beats_problem_params(tmp_path, capsys):
    p = write_problem(tmp_path, {**MT, "params": {"n": 1, "strategy": "exhaustive"}})
    assert cli.main(["frames", p, "--depth", "2"]) == 0
    rep = read_stdout_report(capsys)
    assert rep["params"]["n"] == 2
    assert rep["params"]["strategy"] == "exhaustive"


def test_frames_cap_exceeded(tmp_path):
    assert cli.main(["frames", write_problem(tmp_path, MT), "--depth", "18"]) == 5


def test_frames_negative_level(tmp_path):
    assert cli.main(["frames", write_problem(tmp_path, MT), "--depth", "-1"]) == 2


# ---------------------------------------------------------------------------
# quasiprod


def test_quasiprod_split_fields(tmp_path):
    out = str(tmp_path / "qp.json")
    assert cli.main(["quasiprod", write_problem(tmp_path, SKEW), "--out", out]) == 0
    rep = json.load(open(out))
    split = rep["results"]["split"]
    assert split["r"] == 1
    assert split["R1"] == [[4]] and split["R2"] == [[2]]
    assert split["transverse_index"] == 3
    assert sorted(split["first_block_digits"]) == [[0], [1]]
    assert rep["results"]["product"]["beta"] == 3
    assert cli.main(["verify", out]) == 0


def test_quasiprod_reports_when_no_split_needed(tmp_path, capsys):
    assert cli.main(["quasiprod", write_problem(tmp_path, JP)]) == 0
    rep = read_stdout_report(capsys)
    assert "split" not in rep["results"]
    assert "no product splitting needed" in rep["results"]["note"]


# ---------------------------------------------------------------------------
# reduce


def test_reduce_rescales_digits(tmp_path, capsys):
    assert cli.main(["reduce", write_problem(tmp_path, {"R": [[4]], "B": [[0], [2]]})]) == 0
    rep = read_stdout_report(capsys)
    assert rep["results"]["reduced_B"] == [[0], [1]]
    assert rep["results"]["forward"] == [["1/2"]]
    assert rep["results"]["rank"] == 1


def test_reduce_verify_roundtrip(tmp_path):
    out = str(tmp_path / "red.json")
    assert cli.main(["reduce", write_problem(tmp_path, SKEW), "--out", out]) == 0
    assert cli.main(["verify", out]) == 0


# ---------------------------------------------------------------------------
# render


def test_render_attractor_pgm(tmp_path, capsys):
    p = write_problem(tmp_path, {"R": SKEW["R"], "B": SKEW["B"]})
    img = tmp_path / "a.pgm"
    rc = cli.main(["render", "attractor", p, "--resolution", "32", "--out", str(img)])
    assert rc == 0
    rep = read_stdout_report(capsys)
    data = img.read_bytes()
    assert data.startswith(b"P5\n32 32\n255\n")
    assert rep["certificates"]["image_sha256"] == hashlib.sha256(data).hexdigest()
    assert rep["results"]["pixels_on"] > 0


def test_render_transform_1d_and_verify(tmp_path, capsys):
    img = tmp_path / "t.pgm"
    rc = cli.main(
        ["render", "transform", write_problem(tmp_path, MT), "--resolution", "48", "--out", str(img)]
    )
    assert rc == 0
    rep = read_stdout_report(capsys)
    assert rep["results"]["shape"] == [48, 48]
    assert img.read_bytes().startswith(b"P5\n48 48\n")
    rpath = tmp_path / "render_report.json"
    rpath.write_text(json.dumps(rep))
    assert cli.main(["verify", str(rpath)]) == 0


def test_render_requires_out(tmp_path):
    assert cli.main(["render", "attractor", write_problem(tmp_path, MT)]) == 2


def test_render_rejects_high_dimension(tmp_path):
    p = write_problem(
        tmp_path,
        {"R": [[2, 0, 0], [0, 2, 0], [0, 0, 2]], "B": [[0, 0, 0], [1, 1, 1]]},
    )
    assert cli.main(["render", "attractor", p, "--out", str(tmp_path / "x.pgm")]) == 2


# ---------------------------------------------------------------------------
# verify and determinism


def strip_timings(report):
    rep = dict(report)
    rep.pop("timings")
    return rep


def test_reports_deterministic_modulo_timings(tmp_path):
    p = write_problem(tmp_path, JP)
    outs = []
    for name in ("a.json", "b.json"):
        out = str(tmp_path / name)
        assert cli.main(["spectrum", p, "--out", out]) == 0
        outs.append(strip_timings(json.load(open(out))))
    assert json.dumps(outs[0], sort_keys=True) == json.dumps(outs[1], sort_keys=True)


def test_verify_detects_tampered_results(tmp_path):
    out = str(tmp_path / "r.json")
    assert cli.main(["spectrum", write_problem(tmp_path, JP), "--out", out]) == 0
    rep = json.load(open(out))
    rep["certificates"]["cover"]["delta_hat"] = 0.9
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(rep))
    assert cli.main(["verify", str(bad)]) == 1


def test_verify_detects_tampered_witness(tmp_path):
    out = str(tmp_path / "zs.json")
    p = write_problem(tmp_path, {"R": [[2]], "B": [[0], [2]]})
    assert cli.main(["zeroset", p, "--out", out]) == 0
    rep = json.load(open(out))
    rep["certificates"]["witness"]["levels"] = 99
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(rep))
    assert cli.main(["verify", str(bad)]) == 1


def test_verify_detects_tampered_problem(tmp_path):
    out = str(tmp_path / "r.json")
    assert cli.main(["validate", write_problem(tmp_path, JP), "--out", out]) == 0
    rep = json.load(open(out))
    rep["problem"]["B"] = [[0], [3]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(rep))
    assert cli.main(["verify", str(bad)]) == 1


def test_verify_rejects_non_reports(tmp_path):
    assert cli.main(["verify", write_problem(tmp_path, JP)]) == 2
    junk = tmp_path / "junk.json"
    junk.write_text("not json at all")
    assert cli.main(["verify", str(junk)]) == 2


def test_thread_hint_recorded(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPECTRAL_FRACTAL_THREADS", "5")
    assert cli.main(["zeroset", write_problem(tmp_path, MT)]) == 0
    assert read_stdout_report(capsys)["timings"]["threads"] == 5
    monkeypatch.setenv("SPECTRAL_FRACTAL_THREADS", "garbage")
    assert cli.worker_count() == 1


def test_module_entry_point():
    r = subprocess.run(
        [sys.executable, "-m", "spectral_fractal.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0
    assert r.stdout.strip() == cli.__version__
