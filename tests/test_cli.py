import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsurf.cli import main
from mlsurf.report import GridSpec, verify_spectral
from mlsurf.spectral_curve import derive_constants


SRC = str(Path(__file__).resolve().parent.parent / "src")


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


def test_verify_unknown_flag_exits_2():
    assert run(["verify", "--family", "spectral", "--bogus", "1"]) == 2


def test_verify_bad_grid_exits_2():
    assert run(["verify", "--family", "spectral", "--a", "1", "--b", "1",
                "--q1", "2", "--gamma-im", "1", "--grid", "banana"]) == 2


def test_verify_json_out(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code = run(["verify", "--family", "spectral", "--a", "1", "--b", "1",
                "--q1", "2", "--gamma-im", "1", "--grid", "8x8",
                "--json-out", str(out_file)])
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["overall"] is True
    assert data["family"] == "spectral"
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
    assert set(timings) == {"jets", "metric", "residue", "angle", "christoffel", "frame",
                            "curvature", "reduce", "total"}
    assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())
    assert sum(v for k, v in timings.items() if k != "total") <= timings["total"]
    assert "timings" not in capsys.readouterr().out


@pytest.mark.parametrize("command", [["verify"], ["sample", "--out", os.devnull]])
def test_worked_example_writes_nothing_to_stderr(command):
    # 16x16 puts 32 points in the degeneracy tube, where G is nearly zero and
    # the sweep masks what it computed; no numpy warning may reach the user
    proc = subprocess.run([sys.executable, "-m", "mlsurf.cli", *command, *SPHERE,
                           "--grid", "16x16"], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_scenario_file(tmp_path, capsys):
    scen = tmp_path / "sphere.scenario"
    scen.write_text("# worked example\na = 1\nb = 1\nq1 = 2\ngamma_im = 1\n")
    code = run(["verify", "--family", "spectral", "--scenario", str(scen),
                "--grid", "8x8"])
    assert code == 0
    capsys.readouterr()
    bad = tmp_path / "bad.scenario"
    bad.write_text("a = 1\nwhat = 3\n")
    assert run(["verify", "--family", "spectral", "--scenario", str(bad)]) == 2
    capsys.readouterr()
    bad.write_text("a = 1\nb = x\n")
    assert run(["verify", "--family", "spectral", "--scenario", str(bad)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {bad}: b = 'x' is not a number\n"


def test_curve_info(capsys):
    code = run(["curve-info", "--a", "1", "--b", "1", "--q1", "2",
                "--gamma-im", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Q3       = 0" in out
    assert "d        = 1" in out
    assert "alpha_3  = 0.61237243569579447" in out
    assert "c2_exp   = -1.5" in out
    assert "w2_coeff_P2      = 0" in out


def read_csv_rows(path):
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows


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


def test_sample_fd_profile(tmp_path, capsys):
    out_file = tmp_path / "fd.csv"
    code = run(["sample", "--family", "spectral", "--a", "1", "--b", "1",
                "--q1", "2", "--gamma-im", "1", "--grid", "4x4",
                "--tol-profile", "fd", "--out", str(out_file)])
    assert code == 0
    _, rows = read_csv_rows(out_file)
    for row in rows:
        if row[11]:
            assert abs(float(row[11]) - 1.0) < 1e-3
    capsys.readouterr()


def test_verify_unwritable_json_out(tmp_path, capsys):
    # the report file is opened before the sweep: one error line, no report
    out_file = tmp_path / "nope" / "x.json"
    code = run(["verify", *SPHERE, "--grid", "4x4", "--json-out", str(out_file)])
    assert code == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ") and out.err.count("\n") == 1


def test_sample_unwritable_path(tmp_path, capsys):
    code = run(["sample", "--family", "cone", "--m", "1", "--n", "1",
                "--out", str(tmp_path / "nope" / "x.csv")])
    assert code == 2
    capsys.readouterr()


def test_theta_subcommand(tmp_path, capsys):
    pm = tmp_path / "pm.txt"
    pm.write_text("1\n1j\n")
    code = run(["theta", "--period-file", str(pm), "--z", "0", "--radius", "8"])
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


SPHERE = ["--family", "spectral", "--a", "1", "--b", "1", "--q1", "2", "--gamma-im", "1"]


@pytest.mark.parametrize("argv", [
    ["verify", *SPHERE, "--grid", "4x4", "--h", "0"],
    ["verify", *SPHERE, "--grid", "4x4", "--h", "nan"],
    ["verify", *SPHERE, "--grid", "4x4", "--h=-1e-4"],
    ["verify", "--family", "cone", "--m", "1", "--n", "1", "--grid", "4x4", "--h", "inf"],
    ["sample", *SPHERE, "--grid", "4x4", "--h", "0", "--out", os.devnull],
    # a huge step makes every difference quotient 0, so the frame checks would pass
    ["verify", "--family", "cone", "--m", "9", "--n", "7", "--grid", "4x4", "--h", "1e5"],
    ["sample", *SPHERE, "--grid", "4x4", "--h", "1e5", "--out", os.devnull],
    ["verify", "--family", "spectral", "--a", "1", "--b", "1", "--q1", "inf",
     "--gamma-im", "1", "--grid", "4x4"],
    ["verify", "--family", "spectral", "--a", "1", "--b", "1", "--q1", "2",
     "--gamma-im", "1e200", "--grid", "4x4"],
    ["curve-info", "--a", "nan", "--b", "1", "--q1", "2", "--gamma-im", "1"],
], ids=["h-0", "h-nan", "h-negative", "h-inf", "sample-h-0", "h-1e5", "sample-h-1e5",
        "q1-inf", "gamma-im-1e200", "a-nan"])
def test_invalid_numbers_exit_2_with_one_line(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_step_bound_is_checked_before_the_output_is_opened(tmp_path, capsys):
    out = tmp_path / "s.csv"
    argv = ["sample", *SPHERE, "--grid", "2x2", "--out", str(out), "--h"]
    assert run(argv + ["0.0100001"]) == 2
    assert capsys.readouterr().err.count("\n") == 1 and not out.exists()
    assert run(argv + ["1e-2"]) == 0 and out.exists()


def test_theta_invalid_input_exits_2(tmp_path, capsys):
    pm = tmp_path / "pm.txt"
    pm.write_text("1\n1j\n")
    assert run(["theta", "--period-file", str(pm), "--z", "0", "--radius", "0"]) == 2
    assert "must be >= 1" in capsys.readouterr().err
    # the automatic radius overflows: one line naming Im z and the way out
    assert run(["theta", "--period-file", str(pm), "--z", "1e300j"]) == 2
    assert capsys.readouterr().err == ("error: |Im z| = 1e+300 is too large for an automatic "
                                       "radius; give one with --radius\n")
    # theta terms beyond double range: one line naming the overflow, no warning.
    # At 0.3+15.1j the largest term is just beyond it (exponent 716): the tail
    # bound of the small pass overflows first, and the floor pass reports the sum's
    for z, extra in (("0.3+200j", []), ("0.3+200j", ["--shift-m", "1"]), ("0.3+15.1j", [])):
        assert run(["theta", "--period-file", str(pm), "--z", z, *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "overflow" in err
    # Im z . Y^{-1} Im z beyond double range, with an explicit radius
    pm2 = tmp_path / "pm2.txt"
    pm2.write_text("2\n1j 0.1\n0.1 1j\n")
    assert run(["theta", "--period-file", str(pm2), "--z", "0.1+1e300j,0", "--radius", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "overflow" in err
    # a non-finite z or period-matrix entry: one line, never a NaN value
    for z, extra in (("nan,0", []), ("nanj,0", []), ("nanj,0", ["--radius", "3"]),
                     ("infj,0", [])):
        assert run(["theta", "--period-file", str(pm2), "--z", z, *extra]) == 2
        assert capsys.readouterr().err == "error: z must be finite\n"
    for rows in ("1j nan\n0.1 1j\n", "1j 0.1\n0.1 infj\n"):
        pm2.write_text("2\n" + rows)
        assert run(["theta", "--period-file", str(pm2), "--z", "0,0"]) == 2
        assert capsys.readouterr().err == "error: period matrix entries must be finite\n"
    # a malformed --shift-m: one line naming it, before theta(z) is printed
    pm2.write_text("2\n1j 0.1\n0.1 1j\n")
    for shift in ("1,x", "1", "1,2,3", "1.5,0", "1e400,0", "99999999999999999999,0", ","):
        assert run(["theta", "--period-file", str(pm2), "--z", "0.1,0.2", "--shift-m", shift]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: --shift-m must be 2 comma-separated integers, got {shift!r}\n"
    # a valid shift beyond the term cap still prints theta(z) first: Im B = 0.02 I
    # keeps about 14 M points around z + Bm, against 47^3 in the box of theta(z)
    pm3 = tmp_path / "pm3.txt"
    pm3.write_text("3\n0.02j 0 0\n0 0.02j 0\n0 0 0.02j\n")
    assert run(["theta", "--period-file", str(pm3), "--z", "0.1,0,0", "--shift-m", "100,0,0"]) == 2
    out = capsys.readouterr()
    assert out.out.startswith("theta = 73.4965290539") and out.out.count("\n") == 1
    assert out.err == "error: radius 601 needs 14178624 terms (cap 4000000)\n"
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


_VALUES = st.sampled_from(["1", "2", "-2", "0.5", "0", "-1", "1e200", "1e-300", "inf",
                           "nan", "abc", "", "0.3+200j", "1,2", "1e-4", "fd", "99"])
# valid defaults come first, so drawn flags override them and reach the sweep
_ACCEPTED = {
    "verify": (["--a", "1", "--b", "1", "--q1", "2", "--gamma-im", "1", "--m", "1", "--n", "2"],
               {"--a", "--b", "--q1", "--gamma-im", "--m", "--n", "--h", "--tol-profile"}),
    "curve-info": (["--a", "1", "--b", "1", "--q1", "2", "--gamma-im", "1"],
                   {"--a", "--b", "--q1", "--gamma-im"}),
    "theta": (["--z", "0.1,0.2j"], {"--z", "--radius", "--shift-m"}),
}
_ACCEPTED["sample"] = _ACCEPTED["verify"]
_FLAGS = ["--a", "--b", "--q1", "--gamma-im", "--m", "--n", "--h", "--tol-profile",
          "--z", "--radius", "--shift-m", "--bogus"]


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
            argv += ["--family", family, "--grid", grid]
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
