import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsurf import cli, diffgeo
from mlsurf.cli import main
from mlsurf.report import GridSpec, verify_spectral
from mlsurf.spectral_curve import derive_constants


SRC = str(Path(__file__).resolve().parent.parent / "src")
SPHERE = ["--family", "spectral", "--a", "1", "--b", "1", "--q1", "2", "--gamma-im", "1"]


def one_point(*flags, json_out=os.devnull) -> list:
    """verify of the spectral flags on the one grid point (0, 0), its report written to
    json_out: the cheapest command that derives a curve, or is refused one."""
    return ["verify", "--family", "spectral", *flags, "--grid", "1x1", "--json-out", str(json_out)]


def run(argv):
    return main(argv)


def test_verify_spectral_passes(capsys):
    code = run(["verify", "--family", "spectral", "--a", "1", "--b", "1",
                "--q1", "2", "--gamma-im", "1", "--grid", "16x16"])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: PASS" in out
    assert "residue_identity_6" in out


def test_verify_worked_example_full_grid(capsys):
    code = run(["verify", "--family", "spectral", "--a", "1", "--b", "1",
                "--q1", "2", "--gamma-im", "1", "--grid", "64x64"])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: PASS" in out


def test_verify_cone_passes(capsys):
    code = run(["verify", "--family", "cone", "--m", "1", "--n", "2",
                "--grid", "32x32"])
    out = capsys.readouterr().out
    assert code == 0
    assert "metric_anisotropy" in out


def test_verify_invalid_q1_exits_2(capsys):
    code = run(["verify", "--family", "spectral", "--a", "1", "--b", "1",
                "--q1", "0.5", "--gamma-im", "1"])
    assert code == 2
    assert "exceed" in capsys.readouterr().err


def test_verify_missing_parameters_exits_2(capsys):
    code = run(["verify", "--family", "spectral", "--a", "1"])
    assert code == 2
    assert "missing" in capsys.readouterr().err
    for orders in (["--m", "1"], ["--n", "2"], []):
        assert run(["verify", "--family", "cone", *orders, "--grid", "2x2"]) == 2
        assert capsys.readouterr() == ("", "error: cone family needs --m and --n\n")


_OTHER_FAMILY_FLAGS = [
    ("cone", ["--m", "1", "--n", "2"], ["--a", "1"], "--a"),
    ("cone", ["--m", "1", "--n", "2"], ["--gamma-im", "-0.5"], "--gamma-im"),
    ("cone", ["--m", "1", "--n", "2"], ["--q1", "2"], "--q1"),
    ("spectral", ["--a", "1", "--b", "1", "--q1", "2", "--gamma-im", "1"], ["--m", "1"], "--m"),
    ("spectral", ["--a", "1", "--b", "1", "--q1", "2", "--gamma-im", "1"], ["--n", "2"], "--n"),
]


# each case named by family, flag and command, so that deleting one renames no other
@pytest.mark.parametrize("command, family, own, other, flag", [
    pytest.param(command, *case, id=f"{case[0]}-{case[3][2:]}-{command}")
    for case in _OTHER_FAMILY_FLAGS for command in ("verify", "sample")])
def test_a_flag_of_the_other_family_is_refused(command, family, own, other, flag, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [command, "--family", family, *own, *other, "--grid", "2x2"]
    argv += ["--out", str(out)] if command == "sample" else ["--json-out", str(out)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {flag} does not apply to --family {family}\n"
    assert not out.exists()


def test_verify_unknown_flag_exits_2():
    assert run(["verify", "--family", "spectral", "--bogus", "1"]) == 2


@pytest.mark.parametrize("command", [["verify"], ["sample", "--out", "s.csv"]],
                         ids=["verify", "sample"])
def test_a_spectral_surface_is_given_by_its_four_flags_alone(command, tmp_path, monkeypatch,
                                                             capsys):
    # no file of key = value lines is read in their place
    monkeypatch.chdir(tmp_path)
    Path("ok.scn").write_text("a = 1\nb = 1\nq1 = 2\ngamma_im = 1\n")
    assert run([*command, "--family", "spectral", "--scenario", "ok.scn"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.endswith(
        f"\nmlsurf {command[0]}: error: unrecognized arguments: --scenario ok.scn\n")
    assert not Path("s.csv").exists()


def test_verify_bad_grid_exits_2():
    assert run(["verify", "--family", "spectral", "--a", "1", "--b", "1",
                "--q1", "2", "--gamma-im", "1", "--grid", "banana"]) == 2


@pytest.mark.parametrize("command", ["verify", "sample"])
def test_strict_is_the_one_tol_profile(command, tmp_path, capsys, monkeypatch):
    # verify: --tol-profile strict changes nothing, the reports still name the profile,
    # and fd is refused by argparse with one error line; sample has no such flag
    monkeypatch.chdir(tmp_path)
    surface = [command, "--family", "cone", "--m", "1", "--n", "2", "--grid", "4x4"]
    if command == "sample":
        assert run([*surface, "--out", "s.csv", "--tol-profile", "strict"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and not (tmp_path / "s.csv").exists()
        assert out.err.splitlines()[-1] == (
            "mlsurf sample: error: unrecognized arguments: --tol-profile strict")
        return
    argv = [*surface, "--json-out", "r.json"]
    outputs = []
    for extra in ([], ["--tol-profile", "strict"]):
        assert run([*argv, *extra]) == 0
        doc = (tmp_path / "r.json").read_text()
        outputs.append((capsys.readouterr(), doc.split('"timings"')[0]))
    assert outputs[0] == outputs[1]
    assert " profile=strict\n" in outputs[0][0].out
    assert json.loads((tmp_path / "r.json").read_text())["tol_profile"] == "strict"
    assert run([*argv, "--tol-profile", "fd"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.splitlines()[-1] == (
        "mlsurf verify: error: argument --tol-profile: invalid choice: 'fd' "
        "(choose from 'strict')")


def test_verify_json_out(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code = run(["verify", "--family", "spectral", "--a", "1", "--b", "1",
                "--q1", "2", "--gamma-im", "1", "--grid", "8x8",
                "--json-out", str(out_file)])
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["overall"] is True
    assert data["family"] == "spectral"
    assert data["h"] == diffgeo.STEP == 1e-4   # the one step the tolerance tiers assume
    names = {c["name"] for c in data["checks"]}
    assert {"gram_norm", "beta_e2i_plus_one", "curvature_K_minus_1",
            "curve_regularity"} <= names
    for c in data["checks"]:
        assert c["passed"] is True
        if c["excluded_points"]:
            # exclusions only on checks with the tube policy
            assert c["name"].startswith(("beta", "christoffel", "gradient_identity",
                                         "minimality_im", "frame", "curvature"))
    timings = data["timings"]
    assert set(timings) == {"jets", "stencil", "metric", "residue", "angle", "christoffel",
                            "frame", "curvature", "reduce", "total"}
    assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())
    assert sum(v for k, v in timings.items() if k != "total") <= timings["total"]
    text = capsys.readouterr().out
    assert "timings" not in text and " h=0.0001 " in text.splitlines()[0]


@pytest.mark.parametrize("command", [["verify"], ["sample", "--out", os.devnull],
                                     ["verify", "--json-out", "report.json"]])
@pytest.mark.parametrize("surface, verify_code", [
    (SPHERE, 0),
    # the Christoffel checks overflow to inf and FAIL; sample has no check to fail
    (["--family", "spectral", "--a", "1e150", "--b", "1", "--q1", "2", "--gamma-im", "1"], 1),
], ids=["worked-example", "a-1e150"])
def test_worked_example_writes_nothing_to_stderr(command, surface, verify_code, tmp_path):
    # 16x16 puts 32 points of the worked example in the degeneracy tube, where G
    # is nearly zero and the sweep masks what it computed; no numpy warning, from
    # there or from an overflow, may reach the user.
    # A fresh interpreter is also the only place where --json-out imports json
    # itself: pytest has already imported it here
    proc = subprocess.run([sys.executable, "-m", "mlsurf.cli", *command, *surface,
                           "--grid", "16x16"], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC}, cwd=tmp_path)
    assert proc.returncode == (verify_code if command[0] == "verify" else 0)
    assert proc.stderr == ""
    if "--json-out" in command:
        text = (tmp_path / "report.json").read_text()
        checks = json.loads(text)["checks"]
        names = [c["name"] for c in checks]
        # Python's JSON: an infinite defect is the token Infinity, read back as inf
        infinite = [c["name"] for c in checks if c["max_defect"] == math.inf]
        assert text.count("Infinity") == len(infinite) == (7 if verify_code else 0)
        assert all(n.startswith(("christoffel", "gradient", "minimality")) for n in infinite)
        check_lines = proc.stdout.splitlines()[2:-1]  # between the table header and "overall"
        assert names and names == [ln.split()[0] for ln in check_lines]


CURVE_INFO = {  # a spectral report's curve block, pinned: every derived constant
    ("1", "1", "2", "1"): {
        "a": 1.0, "b": 1.0, "Q1": 2.0, "gamma_im": 1.0, "Q2": -2.0, "Q3": 0.0, "c": 1.5, "d": 1.0,
        "alpha": [0.55901699437494745, 0.55901699437494745, 0.61237243569579447],
        "res_Q": [0.3125, 0.3125, 0.375], "res_r": -1.0, "c1_exp": -1.0, "c2_exp": -1.5},
    ("1.3", "0.7", "2.1", "-0.9"): {
        "a": 1.3, "b": 0.69999999999999996, "Q1": 2.1000000000000001,
        "gamma_im": -0.90000000000000002, "Q2": -2.1000000000000001, "Q3": 0.0,
        "c": 0.87428311333636743, "d": 1.3,
        "alpha": [0.3633155368759467, 0.3633155368759467, 0.5724680057963466],
        "res_Q": [0.13199817933545741, 0.13199817933545741, 0.32771961766044594],
        "res_r": -0.59171597633136086, "c1_exp": -1.0, "c2_exp": -0.87428311333636743},
}


def test_curve_info(tmp_path, capsys):
    # the curve rows read the w^2 coefficient at P2 and both gluing sums: 0 on these curves
    path = tmp_path / "report.json"
    for (a, b, q1, gamma_im), curve in CURVE_INFO.items():
        argv = one_point("--a", a, "--b", b, "--q1", q1, "--gamma-im", gamma_im, json_out=path)
        assert (run(argv), capsys.readouterr().err) == (0, "")
        doc = json.loads(path.read_text())
        assert list(doc["curve"].items()) == list(curve.items())
        rows = {c["name"]: c["max_defect"] for c in doc["checks"]}
        assert rows["curve_w2_P2_rel"] == rows["curve_regularity"] == 0.0


def read_csv_rows(path):
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows


# Omega_1's residues are 1/(2 a^2): at a = 0.003 their cancellation at the gluing
# points rounds to 7.3e-12, above the absolute 1e-13 of curve_regularity
SMALL_A = ["--a", "0.003", "--b", "1", "--q1", "2", "--gamma-im", "1"]


def test_a_curve_that_fails_only_curve_regularity_is_built(tmp_path, capsys):
    out_file = tmp_path / "small-a.csv"
    assert run(["sample", "--family", "spectral", *SMALL_A, "--grid", "8x8",
                "--out", str(out_file)]) == 0
    assert capsys.readouterr().err == ""
    assert len(read_csv_rows(out_file)[1]) == 64
    report = tmp_path / "small-a.json"
    assert run(["verify", "--family", "spectral", *SMALL_A, "--grid", "16x16",
                "--json-out", str(report)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert [ln.split()[0] for ln in out.splitlines()[2:-1] if ln.endswith("FAIL")] == [
        "curve_regularity"]
    doc = json.loads(report.read_text())
    assert doc["curve"]["a"] == 0.003
    assert [c["max_defect"] for c in doc["checks"] if c["name"] == "curve_regularity"] == [
        7.2759576141834259e-12]


@pytest.mark.parametrize("argv, code", [
    (["verify", *SPHERE, "--grid", "4x4"], 0),
    (["verify", "--family", "spectral", *SMALL_A, "--grid", "4x4"], 1),
    (one_point("--a", "1", "--b", "1", "--q1", "0.5", "--gamma-im", "1"), 2),
], ids=["pass", "fail", "invalid"])
def test_the_module_entry_exits_with_the_code_of_main(argv, code, tmp_path):
    proc = subprocess.run([sys.executable, "-m", "mlsurf.cli", *argv], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": SRC},
                          cwd=tmp_path)
    assert proc.returncode == code
    if code == 2:
        assert proc.stdout == ""
        assert proc.stderr == ("error: |Q1| = 0.5 must exceed b = 1.0; otherwise Res_Q3 "
                               "Omega_2 < 0 and alpha_3 is imaginary\n")
    else:
        assert proc.stdout.endswith(("overall: PASS\n", "overall: FAIL\n")[code])
        assert proc.stderr == ""


def test_sample_sphere_csv(tmp_path, capsys):
    out_file = tmp_path / "sphere.csv"
    code = run(["sample", "--family", "spectral", "--a", "1", "--b", "1",
                "--q1", "2", "--gamma-im", "1", "--grid", "4x4",
                "--out", str(out_file)])
    assert code == 0
    header, rows = read_csv_rows(out_file)
    assert header == ["x", "y", "re_phi1", "im_phi1", "re_phi2", "im_phi2",
                      "re_phi3", "im_phi3", "E", "G", "beta", "K"]
    assert len(rows) == 16
    for row in rows:
        assert abs(float(row[8]) - 1.0) < 1e-10  # E column all 1
    # row at x = y = 0: beta satisfies e^{2 i beta} = -1
    row0 = rows[0]
    assert float(row0[0]) == 0.0 and float(row0[1]) == 0.0
    beta = float(row0[10])
    assert abs(np.exp(2j * beta) + 1.0) < 1e-10
    assert abs(float(row0[11]) - 1.0) < 1e-4  # K = 1
    capsys.readouterr()


def test_sample_cone_csv(tmp_path, capsys):
    out_file = tmp_path / "cone.csv"
    code = run(["sample", "--family", "cone", "--m", "1", "--n", "1",
                "--grid", "4x4", "--out", str(out_file)])
    assert code == 0
    _, rows = read_csv_rows(out_file)
    for row in rows:
        phi3 = complex(float(row[6]), float(row[7]))
        assert abs(abs(phi3) - 1.0 / math.sqrt(3.0)) < 1e-12
    capsys.readouterr()


def test_sample_csv_roundtrip_precision(tmp_path, capsys):
    # 17 significant digits round-trip float64 exactly; recomputing the norm
    # defect from the parsed phi must reproduce the report maximum
    out_file = tmp_path / "grid.csv"
    grid = "8x8"
    assert run(["sample", "--family", "spectral", "--a", "1", "--b", "1",
                "--q1", "2", "--gamma-im", "1", "--grid", grid,
                "--out", str(out_file)]) == 0
    capsys.readouterr()
    _, rows = read_csv_rows(out_file)
    worst = 0.0
    for row in rows:
        phi = np.array([complex(float(row[2]), float(row[3])),
                        complex(float(row[4]), float(row[5])),
                        complex(float(row[6]), float(row[7]))])
        worst = max(worst, abs(np.sum(np.abs(phi) ** 2) - 1.0))
    curve = derive_constants(1.0, 1.0, 2.0, 1.0)
    report = verify_spectral(curve, GridSpec(8, 8))
    reported = next(c.value for c in report.checks if c.name == "gram_norm")
    assert abs(worst - reported) < 1e-12


def test_sample_degenerate_rows_have_empty_k(tmp_path, capsys):
    # 64x64 over [0, 2pi)^2 hits the G = 0 lines exactly: K (and beta) empty there
    out_file = tmp_path / "deg.csv"
    assert run(["sample", "--family", "spectral", "--a", "1", "--b", "1",
                "--q1", "2", "--gamma-im", "1", "--grid", "64x64",
                "--out", str(out_file)]) == 0
    capsys.readouterr()
    _, rows = read_csv_rows(out_file)
    empty = [row for row in rows if row[11] == ""]
    assert len(empty) == 128
    for row in empty:
        theta = float(row[0]) - float(row[1])
        assert abs(math.remainder(theta - 3 * math.pi / 4, math.pi)) < 1e-2
    filled = [row for row in rows if row[11] != ""]
    for row in filled[::37]:
        assert abs(float(row[11]) - 1.0) < 1e-4


def test_verify_unwritable_json_out(tmp_path, capsys):
    # the report file is opened after the sweep, before the report prints: one error line, no report
    out_file = tmp_path / "nope" / "x.json"
    code = run(["verify", *SPHERE, "--grid", "4x4", "--json-out", str(out_file)])
    assert code == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert out.err.startswith(f"error: cannot write {out_file}: ")


def test_a_refused_verify_leaves_an_earlier_json_report_as_it_was(tmp_path, capsys):
    # the path is opened only once a report exists
    out_file = tmp_path / "r.json"
    run(["verify", *SPHERE, "--grid", "4x4", "--json-out", str(out_file)])
    before = out_file.read_bytes()
    assert json.loads(before)["family"] == "spectral"
    capsys.readouterr()
    argv = ["verify", "--family", "spectral", "--a", "1", "--b", "0.5", "--q1", "1",
            "--gamma-im", "-100", "--grid", "1x1", "--json-out", str(out_file)]
    assert (run(argv), *capsys.readouterr()) == (
        2, "", "error: no grid point outside the degeneracy tube\n")
    assert out_file.read_bytes() == before


def test_a_refused_verify_leaves_no_new_json_report(tmp_path, capsys):
    out_file = tmp_path / "new.json"
    argv = ["verify", "--family", "spectral", "--a", "1", "--b", "0.5", "--q1", "1",
            "--gamma-im", "-100", "--grid", "1x1", "--json-out", str(out_file)]
    assert (run(argv), *capsys.readouterr()) == (
        2, "", "error: no grid point outside the degeneracy tube\n")
    assert list(tmp_path.iterdir()) == []


def test_a_refused_verify_leaves_no_target_behind_a_dangling_symlink(tmp_path, capsys):
    link, target = tmp_path / "r.json", tmp_path / "target.json"
    link.symlink_to(target)
    argv = ["verify", "--family", "spectral", "--a", "1", "--b", "0.5", "--q1", "1",
            "--gamma-im", "-100", "--grid", "1x1", "--json-out", str(link)]
    assert (run(argv), *capsys.readouterr()) == (
        2, "", "error: no grid point outside the degeneracy tube\n")
    assert link.is_symlink() and not target.exists()


def test_sample_unwritable_path(tmp_path, capsys):
    code = run(["sample", "--family", "cone", "--m", "1", "--n", "1",
                "--out", str(tmp_path / "nope" / "x.csv")])
    assert code == 2
    capsys.readouterr()


def test_theta_subcommand(tmp_path, capsys):
    pm = tmp_path / "pm.txt"
    pm.write_text("1\n1j\n")
    code = run(["theta", "--period-file", str(pm), "--z", "0"])
    out = capsys.readouterr().out
    assert code == 0
    val = float(out.split("=")[1].strip().replace("j", "").rsplit("+", 1)[0])
    assert abs(val - 1.0864348112133080) < 1e-12
    code = run(["theta", "--period-file", str(pm), "--z", "0.2+0.1j",
                "--shift-m", "1"])
    out = capsys.readouterr().out
    assert code == 0
    defect = float(out.splitlines()[1].split("=")[1])
    assert defect < 1e-10


def test_theta_shift_evaluates_theta_z_once(tmp_path, capsys, monkeypatch):
    # the printed theta(z) also serves the defect: one evaluation at z, one at z + Bm
    from mlsurf import cli, theta
    pm = tmp_path / "pm.txt"
    pm.write_text("2\n1j 0.1\n0.1 1.3j\n")
    points = []
    evaluate = theta.riemann_theta

    def counting(z, *args):
        points.append(z.tolist())
        return evaluate(z, *args)

    for module in (cli, theta):
        monkeypatch.setattr(module, "riemann_theta", counting)
    assert run(["theta", "--period-file", str(pm), "--z", "0.2+0.1j,0.3", "--shift-m", "1,0"]) == 0
    capsys.readouterr()
    assert points == [[0.2 + 0.1j, 0.3], [0.2 + 1.1j, 0.4]]


def test_theta_shift_computes_the_smallest_eigenvalue_once(tmp_path, capsys, monkeypatch):
    # both automatic radii (theta(z) and theta(z + Bm)) read one cached eigenvalue
    from mlsurf import theta
    pm = tmp_path / "pm.txt"
    pm.write_text("2\n1j 0.1\n0.1 1.3j\n")
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        calls.append(a.tolist())
        return eigvalsh(a)

    monkeypatch.setattr(theta.np.linalg, "eigvalsh", counting)
    assert run(["theta", "--period-file", str(pm), "--z", "0.2+0.1j,0.3", "--shift-m", "1,0"]) == 0
    capsys.readouterr()
    assert calls == [[[1.0, 0.0], [0.0, 1.3]]]


@pytest.mark.parametrize("argv", [
    ["verify", "--family", "spectral", "--a", "1", "--b", "1", "--q1", "inf",
     "--gamma-im", "1", "--grid", "4x4"],
    ["verify", "--family", "spectral", "--a", "1", "--b", "1", "--q1", "2",
     "--gamma-im", "1e200", "--grid", "4x4"],
    one_point("--a", "nan", "--b", "1", "--q1", "2", "--gamma-im", "1"),
    # derive_constants overflows or divides by zero: the message names the inputs
    one_point("--a", "1", "--b", "1", "--q1", "1e308", "--gamma-im", "1"),
    one_point("--a", "1e-300", "--b", "1", "--q1", "2", "--gamma-im", "1"),
    # the scale of Omega_2 comes out NaN
    one_point("--a", "1", "--b", "1", "--q1", "1e200", "--gamma-im", "1"),
    ["verify", "--family", "spectral", "--a", "1", "--b", "1", "--q1", "0",
     "--gamma-im", "1", "--grid", "4x4"],
], ids=["q1-inf", "gamma-im-1e200", "a-nan", "q1-1e308", "a-1e-300", "q1-1e200", "q1-0"])
def test_invalid_numbers_exit_2_with_one_line(argv, capsys):
    assert run(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ") and out.err.count("\n") == 1


@pytest.mark.parametrize("b, q1", [("1", "1.0000000000001"), ("2", "-2.0000000000001")],
                         ids=["q1-at-b", "q1-at-minus-b"])
def test_a_marked_point_next_to_a_gluing_coordinate_is_reported(b, q1, tmp_path, capsys):
    # Q1 within 1e-12 b of the gluing coordinate +-b builds, and its report passes
    curve = ["--a", "1", "--b", b, "--q1", q1, "--gamma-im", "1"]
    report = tmp_path / "report.json"
    assert run(["verify", "--family", "spectral", *curve, "--grid", "16x16",
                "--json-out", str(report)]) == 0
    out = capsys.readouterr()
    assert out.err == "" and out.out.endswith("overall: PASS\n")
    assert json.loads(report.read_text())["curve"]["Q1"] == float(q1)


@pytest.mark.parametrize("argv, error", [
    (["verify", *SPHERE, "--grid", "2x2", "--json-out="], "error: cannot write : "),
    (["theta", "--period-file", "PM", "--z", "0", "--shift-m="],
     "error: --shift-m must be 1 comma-separated integers, got ''"),
], ids=["json-out", "shift-m"])
def test_an_empty_flag_value_is_refused(argv, error, tmp_path, capsys):
    pm = tmp_path / "pm.txt"
    pm.write_text("1\n1j\n")
    assert run([str(pm) if a == "PM" else a for a in argv]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1 and out.err.startswith(error)


_E160 = "1" + "0" * 160


@pytest.mark.parametrize("command", ["verify", "sample"])
@pytest.mark.parametrize("m, n", [(_E160, "1"), ("1", _E160), ("1" + "0" * 400, "1"),
                                  ("426" + "0" * 151, "1")],
                         ids=["m-1e160", "n-1e160", "m-1e400", "m-4.26e153"])
def test_cone_orders_whose_frequencies_overflow_are_refused(command, m, n, tmp_path, capsys):
    # refused once pi (m + n) passes sqrt(DBL_MAX) = 1.34e154, with one line naming m
    # and n and no CSV written; m = 4.26e153 (n = 1) lies just inside the bound and runs
    out = tmp_path / "s.csv"
    code = run([command, "--family", "cone", "--m", m, "--n", n, "--grid", "4x4",
                *(["--out", str(out)] if command == "sample" else [])])
    got = capsys.readouterr()
    if m.startswith("426"):
        assert code in (0, 1) and got.err == "" and out.exists() == (command == "sample")
        return
    assert (code, got.out, out.exists()) == (2, "", False)
    assert got.err == ("error: m + n must be at most about 4.268e+153, above which "
                       f"(pi (m + n))^2 overflows a double, got m = {m}, n = {n}\n")


@pytest.mark.parametrize("grid", ["1x1", "2x1"])
def test_a_grid_inside_the_degeneracy_tube_exits_2_with_one_line(grid, capsys):
    # gamma_im = -100 puts a degeneracy line 0.005 from a x - b y = 0 (mod pi)
    argv = ["verify", "--family", "spectral", "--a", "1", "--b", "0.5", "--q1", "1",
            "--gamma-im", "-100", "--grid", grid]
    assert (run(argv), *capsys.readouterr()) == (
        2, "", "error: no grid point outside the degeneracy tube\n")


@pytest.mark.parametrize("flag, value, rest", [
    ("--z", "-0.3+0.1j,0.2j", []),
    ("--shift-m", "-1,0", ["--z", "0.2+0.1j,0.3"]),
    ("--q1", "-2e0", []),
    ("--a", "-inf", []),
], ids=["z-complex", "shift-m", "q1-exponent", "a-inf"])
def test_a_value_that_starts_with_a_minus_sign(flag, value, rest, tmp_path, capsys):
    # argparse reads "-0.3+0.1j" or "-2e0" as a flag unless it follows "="
    pm = tmp_path / "pm.txt"
    pm.write_text("2\n1j 0.1\n0.1 1.3j\n")
    head = (["theta", "--period-file", str(pm)] if flag in ("--z", "--shift-m") else
            one_point("--a", "1", "--b", "1", "--q1", "2", "--gamma-im", "1"))
    outputs = []
    for spelling in ([flag, value], [f"{flag}={value}"]):
        code = run(head + rest + spelling)
        outputs.append((code, *capsys.readouterr()))
    assert outputs[0] == outputs[1]
    if value == "-inf":
        assert outputs[0] == (2, "", "error: parameters must be finite, got -inf, 1.0, 2.0, 1.0\n")
    else:
        assert outputs[0][0] == 0 and outputs[0][2] == ""
    # -h is never taken for a value
    assert run(head + [flag, "-h"]) == 2
    assert f"argument {flag}: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv, error", [
    (["theta", "--period-file", "pm.txt", "--z", "0", "--h", "1e-3"],
     "mlsurf theta: error: unrecognized arguments: --h 1e-3"),
    (["verify", *SPHERE, "--grid", "2x2", "--json-out", "r.json", "--h", "1e-3"],
     "mlsurf verify: error: unrecognized arguments: --h 1e-3"),
    (["sample", *SPHERE, "--grid", "2x2", "--out", "s.csv", "--h", "1e-3"],
     "mlsurf sample: error: unrecognized arguments: --h 1e-3"),
    (["theta", "--period-file", "pm.txt", "--z", "0", "--shift", "1"],
     "mlsurf theta: error: unrecognized arguments: --shift 1"),
    (["verify", "--fam", "cone", "--m", "1", "--n", "1", "--grid", "2x2"],
     "mlsurf verify: error: the following arguments are required: --family"),
], ids=["theta-h-is-not-help", "verify-h-is-not-help", "sample-h-is-not-help", "theta-shift",
        "verify-fam"])
def test_abbreviated_flags_exit_2(argv, error, tmp_path, monkeypatch, capsys):
    # argparse would expand --h to --help and exit 0 with the usage; no command takes a step
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pm.txt").write_text("1\n1j\n")
    assert run(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.endswith("\n" + error + "\n")
    assert [p.name for p in tmp_path.iterdir()] == ["pm.txt"]


def test_theta_takes_no_radius(tmp_path, monkeypatch, capsys):
    # the CLI always sums the automatic radius's box; the library's radius argument stays
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pm.txt").write_text("1\n1j\n")
    assert run(["theta", "--period-file", "pm.txt", "--z", "0", "--radius", "3"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.endswith(
        "\nmlsurf theta: error: unrecognized arguments: --radius 3\n")


def _parse(parser, argv):
    """(exit code or None, Namespace fields, stdout, stderr) of one parse_args call."""
    code, fields = None, None
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            fields = vars(parser.parse_args(argv))
        except SystemExit as exc:
            code = exc.code
    return code, fields, out.getvalue(), err.getvalue()


_VALID = {
    "verify": ["--family", "cone", "--m", "1", "--n", "2", "--json-out", "r.json"],
    "sample": [*SPHERE, "--grid", "8x4", "--out", "s.csv"],
    "theta": ["--period-file", "pm.txt", "--z", "0.1", "--shift-m", "1"],
}


@pytest.mark.parametrize("command", sorted(_VALID))
def test_one_command_parser_parses_as_the_full_parser(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    only = cli.build_parser(command)
    assert not any(isinstance(a, argparse._SubParsersAction) for a in only._actions)
    # unrecognized arguments are reported by the command's own parser, not the root's
    unrecognized = {"--bogus 1": [*_VALID[command], "--bogus", "1"],
                    "extra": [*_VALID[command], "extra"]}
    for extras, rest in unrecognized.items():
        assert _parse(only, rest) == (2, None, "", only.format_usage() + (
            f"mlsurf {command}: error: unrecognized arguments: {extras}\n"))
    assert _parse(only, _VALID[command])[0] is None
    assert _parse(only, ["--help"])[2].startswith(f"usage: mlsurf {command} [-h]")


def test_each_flag_is_declared_once_by_the_parser_of_its_command():
    # the root parser only names the commands: a command's flags are its own parser's
    subs, = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(subs.choices) == list(cli.COMMANDS)
    for name, sub in subs.choices.items():
        assert sub._actions == []   # not even -h: `mlsurf -x verify -h` is refused
        assert [a.option_strings for a in cli.build_parser(name)._actions] == [
            ["-h", "--help"], *([flag] for flag, _ in cli.COMMANDS[name][1])]
    assert [name for name, (_, flags, _) in cli.COMMANDS.items()
            if "--tol-profile" in dict(flags)] == ["verify"]


ROOT_USAGE = "usage: mlsurf [-h] {verify,sample,theta} ...\n"


def test_root_usage_and_errors_are_unchanged(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert run([]) == 2
    assert capsys.readouterr().err == (
        ROOT_USAGE + "mlsurf: error: the following arguments are required: command\n")
    assert run(["bogus"]) == 2
    assert capsys.readouterr().err == (
        ROOT_USAGE + "mlsurf: error: argument command: invalid choice: 'bogus' "
        "(choose from 'verify', 'sample', 'theta')\n")
    assert run(["-h"]) == 0
    assert capsys.readouterr().out == ROOT_USAGE + """
Construct minimal Lagrangian surfaces in CP^2 from spectral data and verify
the geometric identities on a grid.

positional arguments:
  {verify,sample,theta}
    verify              run the verification suite
    sample              sample the surface to CSV
    theta               evaluate the Riemann theta function

options:
  -h, --help            show this help message and exit
"""
    # a named command's parser reports its own unrecognized arguments
    assert run(["theta", "--period-file", "pm.txt", "--z", "0", "extra"]) == 2
    assert capsys.readouterr().err == (
        "usage: mlsurf theta [-h] --period-file PERIOD_FILE --z Z [--shift-m SHIFT_M]\n"
        "mlsurf theta: error: unrecognized arguments: extra\n")


def test_main_builds_one_parser_per_call(monkeypatch, capsys):
    built, build_parser = [], cli.build_parser

    def spy(command=None):
        built.append(command)
        return build_parser(command)

    monkeypatch.setattr(cli, "build_parser", spy)
    cases = [(one_point(*SPHERE[2:]), "verify"), (["theta", "--help"], "theta"),
             (["verify", "--bogus"], "verify"), (["sample"], "sample"), ([], None),
             (["-h"], None), (["bogus"], None), (["-h", "theta"], None)]
    for argv, command in cases:
        before = len(built)
        run(argv)
        assert built[before:] == [command]
    capsys.readouterr()


def test_a_named_command_constructs_one_argparse_parser(monkeypatch, tmp_path, capsys):
    made, init = [], argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    pm = tmp_path / "pm.txt"
    pm.write_text("1\n1j\n")
    assert run(["theta", "--period-file", str(pm), "--z", "0.1"]) == 0
    assert made == ["mlsurf theta"]
    # nothing is kept from one call to the next
    assert run(["theta", "--period-file", str(pm), "--z", "0.1"]) == 0
    assert made == ["mlsurf theta", "mlsurf theta"]
    capsys.readouterr()


@pytest.mark.parametrize("grid, reason", [
    ("banana", "grid must look like 64x64, got 'banana'"),
    ("4x4x4", "grid must look like 64x64, got '4x4x4'"),
    ("0x4", "grid must have at least one point per axis, got '0x4'"),
    ("4x0", "grid must have at least one point per axis, got '4x0'"),
    # 2^63 points: beyond the sweep's int64 point indices
    ("4611686018427387904x2", "grid 4611686018427387904x2 has more than 2^63 - 1 points, "
                              "got '4611686018427387904x2'"),
])
def test_bad_grid_names_its_cause(grid, reason, capsys):
    assert run(["verify", "--family", "cone", "--m", "1", "--n", "1", "--grid", grid]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.endswith(
        f"\nmlsurf verify: error: argument --grid: {reason}\n")


@pytest.mark.parametrize("argv", [["theta", "--z", "0", "--period-file"]], ids=["period-file"])
def test_a_file_that_is_not_utf8_is_refused_with_its_path(argv, tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"\xff = 1\n")
    assert (run(argv + [str(path)]), *capsys.readouterr()) == (2, "", (
        f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n"))


def test_theta_invalid_input_exits_2(tmp_path, capsys):
    pm = tmp_path / "pm.txt"
    pm.write_text("1\n1j\n")
    # the automatic radius overflows: one line naming Im z
    assert run(["theta", "--period-file", str(pm), "--z", "1e300j"]) == 2
    assert capsys.readouterr().err == ("error: |Im z| = 1e+300 is too large for an automatic "
                                       "radius\n")
    # it overflows at Im z = 0 too, from the smallest eigenvalue of Im B: the line names it
    pm_big = tmp_path / "pm_big.txt"
    pm_big.write_text("1\n1e308j\n")
    assert run(["theta", "--period-file", str(pm_big), "--z", "0"]) == 2
    assert capsys.readouterr().err == ("error: the smallest eigenvalue of Im B, 1e+308, is too "
                                       "large for an automatic radius\n")
    # theta terms beyond double range: one line naming the overflow, no warning.
    # At 0.3+15.1j the largest term is just beyond it (exponent 716): the tail
    # bound of the small pass overflows first, and the floor pass reports the sum's
    for z, extra in (("0.3+200j", []), ("0.3+200j", ["--shift-m", "1"]), ("0.3+15.1j", [])):
        assert run(["theta", "--period-file", str(pm), "--z", z, *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "overflow" in err
    # Im z . Y^{-1} Im z beyond double range where the automatic radius is finite, as
    # a small Im B allows: one line naming it (tests/test_theta.py has explicit radii)
    pm_thin = tmp_path / "pm_thin.txt"
    pm_thin.write_text("1\n1e-10j\n")
    assert run(["theta", "--period-file", str(pm_thin), "--z", "1e150j"]) == 2
    assert capsys.readouterr() == ("", "error: overflow encountered in Im z . (Im B)^-1 Im z\n")
    pm2 = tmp_path / "pm2.txt"
    pm2.write_text("2\n1j 0.1\n0.1 1j\n")
    # a non-finite z or period-matrix entry: one line naming the flag or the file,
    # never a NaN value
    for z in ("nan,0", "nanj,0", "infj,0"):
        assert run(["theta", "--period-file", str(pm2), "--z", z]) == 2
        assert capsys.readouterr().err == f"error: --z entries must be finite, got {z!r}\n"
    for rows in ("1j nan\n0.1 1j\n", "1j 0.1\n0.1 infj\n"):
        pm2.write_text("2\n" + rows)
        assert run(["theta", "--period-file", str(pm2), "--z", "0,0"]) == 2
        assert capsys.readouterr().err == f"error: {pm2}: period matrix entries must be finite\n"
    pm2.write_text("2\n1j 0.1\n0.1 1j\n")
    # a --z of the wrong length names the flag and the genus, before any series
    for z in ("0.1", "0.1,0.2,0.3", ","):
        assert run(["theta", "--period-file", str(pm2), "--z", z]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: --z must be 2 comma-separated complex numbers, got {z!r}\n"
    # with --shift-m malformed too, the shift is the one named
    assert run(["theta", "--period-file", str(pm2), "--z", "0", "--shift-m", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: --shift-m must be 2 comma-separated integers, got '1'\n")
    # a malformed --shift-m: one line naming it, before theta(z) is printed
    for shift in ("1,x", "1", "1,2,3", "1.5,0", "1e400,0", ","):
        assert run(["theta", "--period-file", str(pm2), "--z", "0.1,0.2", "--shift-m", shift]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: --shift-m must be 2 comma-separated integers, got {shift!r}\n"
    # integers, but beyond int64
    for shift in ("99999999999999999999,0", "0,-9223372036854775809"):
        assert run(["theta", "--period-file", str(pm2), "--z", "0.1,0.2", "--shift-m", shift]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("error: --shift-m entries must be signed 64-bit integers, "
                           f"got {shift!r}\n")
    # the least int64 is accepted; theta(z + Bm) then needs too many terms
    assert run(["theta", "--period-file", str(pm2), "--z", "0.1,0.2",
                "--shift-m", "0,-9223372036854775808"]) == 2
    assert capsys.readouterr().err.startswith("error: radius ")
    # a shift whose B m overflows: one line naming it, after theta(z) and with no warning
    pm_far = tmp_path / "pm_far.txt"
    pm_far.write_text("2\n1e300j 0\n0 1j\n")
    assert run(["theta", "--period-file", str(pm_far), "--z", "1j,1j",
                "--shift-m", "-9223372036854775808,0"]) == 2
    out = capsys.readouterr()
    assert out.out.startswith("theta = ") and out.out.count("\n") == 1
    assert out.err == "error: overflow encountered in matmul\n"
    # a valid shift beyond the term cap still prints theta(z) first: Im B = 0.02 I
    # keeps about 14 M points around z + Bm, against 47^3 in the box of theta(z)
    pm3 = tmp_path / "pm3.txt"
    pm3.write_text("3\n0.02j 0 0\n0 0.02j 0\n0 0 0.02j\n")
    assert run(["theta", "--period-file", str(pm3), "--z", "0.1,0,0", "--shift-m", "100,0,0"]) == 2
    out = capsys.readouterr()
    assert out.out.startswith("theta = 73.4965290539") and out.out.count("\n") == 1
    assert out.err == "error: radius 601 needs 14178624 terms (cap 4000000)\n"
    # from genus 342 on Gamma(g/2 + 1) overflows in the ball bound, and the box count is the
    # bound; either bound has hundreds of digits here and is printed as a short mantissa
    for g in (341, 342, 400):
        pmg = tmp_path / f"pm{g}.txt"
        pmg.write_text(f"{g}\n" + "".join(" ".join(["0"] * i + ["1j"] + ["0"] * (g - 1 - i)) + "\n"
                                          for i in range(g)))
        assert run(["theta", "--period-file", str(pmg), "--z", ",".join(["0"] * g)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: radius \d+ needs \d\.\d{3}e\+\d+ terms \(cap 4000000\)\n", err)
        assert len(err) < 80
    # a shift whose box exceeds the cap but whose ellipsoid does not, with a term
    # beyond double range: the overflow is raised before any point is listed
    tracemalloc.start()
    assert run(["theta", "--period-file", str(pm), "--z", "0.1", "--shift-m", "1000000"]) == 2
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    out = capsys.readouterr()
    assert out.out.startswith("theta = 1.06992374") and out.out.count("\n") == 1
    assert out.err == "error: overflow encountered in exp\n" and peak < 4_000_000
    # a malformed complex number names its flag or file and the token
    assert run(["theta", "--period-file", str(pm2), "--z", "0.1,abc"]) == 2
    assert capsys.readouterr().err == "error: --z: malformed complex number 'abc'\n"
    pm2.write_text("2\n1j 0.1x\n0.1 1j\n")
    assert run(["theta", "--period-file", str(pm2), "--z", "0.1,0.2"]) == 2
    assert capsys.readouterr().err == f"error: {pm2}: malformed complex number '0.1x'\n"
    pm2.write_text("x\n1j 0.1\n0.1 1j\n")
    assert run(["theta", "--period-file", str(pm2), "--z", "0.1,0.2"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {pm2}: genus line must be a positive integer, got 'x'\n"
    # an asymmetric matrix, which the series would read as (B + B^T)/2
    pm2.write_text("2\n1j 0.5\n0.2 1j\n")
    assert run(["theta", "--period-file", str(pm2), "--z", "0,0"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == (f"error: {pm2}: period matrix must be symmetric: "
                                         "B[0, 1] = (0.5+0j) but B[1, 0] = (0.2+0j)\n")
    # Im B not positive definite
    pm2.write_text("2\n1j 0\n0 -1j\n")
    assert run(["theta", "--period-file", str(pm2), "--z", "0,0"]) == 2
    assert capsys.readouterr().err == f"error: {pm2}: Im(B) must be positive definite\n"


_VALUES = st.sampled_from(["1", "2", "-2", "0.5", "0", "-1", "1e150", "1e200", "1e-300", "inf",
                           "nan", "abc", "", "0.3+200j", "1,2", "1e-4", "fd", "99"])
# valid defaults come first, so drawn flags override them and reach the sweep;
# a drawn flag of the other family is refused
_FAMILY_DEFAULTS = {"spectral": ["--a", "1", "--b", "1", "--q1", "2", "--gamma-im", "1"],
                    "cone": ["--m", "1", "--n", "2"], "other": []}
_ACCEPTED = {
    "verify": ([], {"--a", "--b", "--q1", "--gamma-im", "--m", "--n", "--tol-profile"}),
    "theta": (["--z", "0.1,0.2j"], {"--z", "--shift-m"}),
}
_ACCEPTED["sample"] = ([], _ACCEPTED["verify"][1] - {"--tol-profile"})
_FLAGS = ["--a", "--b", "--q1", "--gamma-im", "--m", "--n", "--tol-profile",
          "--z", "--shift-m", "--bogus"]


@given(command=st.sampled_from(sorted(_ACCEPTED)),
       family=st.sampled_from(["spectral", "cone", "other"]),
       grid=st.sampled_from(["1x1", "2x3", "4x4", "0x2", "4x", "banana"]),
       flags=st.lists(st.tuples(st.sampled_from(_FLAGS), _VALUES), max_size=4))
@settings(max_examples=150, deadline=None)
def test_main_never_raises(command, family, grid, flags):
    defaults, accepted = _ACCEPTED[command]
    with tempfile.TemporaryDirectory() as tmp:
        pm = os.path.join(tmp, "pm.txt")
        with open(pm, "w") as fh:
            fh.write("2\n1j 0.2\n0.2 2j\n")
        argv = [command] + defaults
        if command in ("verify", "sample"):
            argv += ["--family", family, "--grid", grid, *_FAMILY_DEFAULTS[family]]
        argv += {"sample": ["--out", os.path.join(tmp, "s.csv")],
                 "theta": ["--period-file", pm]}.get(command, [])
        for flag, value in flags:
            if flag in accepted or flag == "--bogus":
                argv.append(f"{flag}={value}")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2)


def test_exit_codes_exhaustive(tmp_path, capsys):
    # 0: pass; 1: a check failed; 2: invalid arguments
    assert run(["verify", "--family", "cone", "--m", "1", "--n", "1",
                "--grid", "4x4"]) == 0
    capsys.readouterr()
    # force a failure: cone with huge m at h = 1e-4 breaks the frame FD tier
    code = run(["verify", "--family", "cone", "--m", "9", "--n", "7",
                "--grid", "4x4"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out
    assert run(["verify", "--family", "cone", "--m", "0", "--n", "1"]) == 2
    capsys.readouterr()
