"""Run a fixed corpus of mlsurf command lines in process and print a digest per call.

Usage: python tools/identity_corpus.py CHECKOUT

CHECKOUT is the root of an mlsurf source tree; its `src/mlsurf` is imported.
Each call prints one line: the argv, the exit code, and the sha256 of stdout,
of stderr, of the `--json-out` document without its `timings`, and of the CSV
("-" where the call writes no file).  Two checkouts that print the same lines
give byte-identical reports, CSVs and messages on the whole corpus, so a
refactor that must not change any output is checked by comparing

    python tools/identity_corpus.py OLD > old.txt
    python tools/identity_corpus.py NEW > new.txt
    cmp old.txt new.txt

The calls run in a temporary directory with relative file names, so no line
depends on where the corpus ran.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

SPECTRAL = [  # (a, b, q1, gamma_im)
    ("1", "1", "2", "1"),              # the worked example
    ("1.3", "0.7", "2.1", "-0.9"),     # degeneracy lines through the grid
    ("0.5", "2", "4", "-2"),
    ("2", "2", "-4", "2"),
    ("1", "0.5", "1", "-100"),         # every grid point in the tube
    ("0.8", "1.7", "-2.5", "0.4"),
    ("1e150", "1", "2", "1"),          # overflowing Christoffel values
    ("1e-13", "1", "2", "1"),          # below the stencil norm
    ("1e-8", "1", "2", "1"),           # cond about 1/a: CONDITION_LIMIT runs through the
    ("1.5e-8", "1", "2", "1"),         # grid, so SVD-accepted and SVD-rejected points
    ("3e-8", "1", "2", "1"),           # share a block
    ("3e-7", "1", "2", "1"),           # certified and SVD-decided points share a block
]
CURVES = [  # curve-info alone, and verify --grid 4x4 for those that derive
    ("0.003", "1", "2", "1"),          # FAILs only the absolute curve_regularity tolerance
    ("1e-150", "1", "2", "1"),
    ("1", "1", "1e308", "1"),          # constants that overflow or divide by zero
    ("1e-300", "1", "2", "1"),
    ("1", "1", "2", "1e200"),
    ("1", "1", "1e200", "1"),
    ("1", "1", "0.5", "1"),            # input rules
]
EDGES = [  # curve-info and verify --grid 4x4
    ("1", "1", "1.0000000000001", "1"),     # Q1 within 1e-12 b of the gluing coordinates
    ("1", "2", "-2.0000000000001", "1"),
    ("1", "1", "2", "1e-200"),              # residues that underflow to 0
    ("1e155", "1", "2", "1"),
]
CONES = [(1, 1), (1, 2), (3, 2), (4, 4), (40, 40)]
GRIDS = ["16x16", "33x17", "1x1", "7x64"]
PROFILES = ["strict", "fd"]
STEPS = ["1e-4", "1e-3"]
PERIOD_FILES = {  # name: (text, z, shift)
    "pm1.txt": ("1\n1j\n", "0.3+0.1j", "1"),
    "pm2.txt": ("2\n0.1+1j 0.2\n0.2 2j\n", "0.1,0.2-0.3j", "1,-1"),
    "pm3.txt": ("3\n1.2j 0.1 0.2j\n0.1 0.9j 0\n0.2j 0 1.5j\n", "0.1,0,0.2j", "0,1,2"),
    "pm4.txt": ("2\n0.3+1j 0.1+0.5j\n0.1+0.5j -0.2+1.2j\n", "1e300,-7.25+0.2j", "1,0"),
}


def corpus() -> list:
    calls = []
    surfaces = [["--family", "spectral", "--a", a, "--b", b, "--q1", q1, "--gamma-im", g]
                for a, b, q1, g in SPECTRAL]
    surfaces += [["--family", "cone", "--m", str(m), "--n", str(n)] for m, n in CONES]
    for surface in surfaces:
        for grid in GRIDS:
            for profile in PROFILES:
                for h in STEPS:
                    rest = [*surface, "--grid", grid, "--tol-profile", profile, "--h", h]
                    calls.append(["verify", *rest, "--json-out", "report.json"])
                    calls.append(["sample", *rest, "--out", "surface.csv"])
    for a, b, q1, g in SPECTRAL + CURVES + EDGES:
        calls.append(["curve-info", "--a", a, "--b", b, "--q1", q1, "--gamma-im", g])
    for a, b, q1, g in CURVES[:2] + EDGES:
        calls.append(["verify", "--family", "spectral", "--a", a, "--b", b, "--q1", q1,
                      "--gamma-im", g, "--grid", "4x4", "--json-out", "report.json"])
    for name, (_, z, shift) in PERIOD_FILES.items():
        calls.append(["theta", "--period-file", name, "--z", z])
        calls.append(["theta", "--period-file", name, "--z", z, "--shift-m", shift])
    calls += [[command, "--family", "cone", "--m", "1", "--n", "2", "--tol-profile", "x"]
              for command in ("verify", "sample")]   # argparse lists the profile choices
    calls += [[command, "--help"] for command in ("verify", "sample", "curve-info", "theta")]
    calls.append(["--help"])
    return calls


def _digest(data) -> str:
    if data is None:
        return "-"
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def _take(path: str, read):
    """What read makes of the file at path, and the file removed; None when absent."""
    if not os.path.exists(path):
        return None
    try:
        return read(Path(path))
    finally:
        os.remove(path)


def _without_timings(path: Path) -> str:
    doc = json.loads(path.read_text())
    doc.pop("timings", None)
    return json.dumps(doc, indent=2)


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve() / "src"
    sys.path.insert(0, str(src))
    from mlsurf import cli
    if Path(cli.__file__).resolve().parent != src / "mlsurf":
        print(f"imported {cli.__file__}, not the checkout's", file=sys.stderr)
        return 2
    os.environ["COLUMNS"] = "80"   # argparse wraps --help to the terminal width
    calls, home = corpus(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, (text, _, _) in PERIOD_FILES.items():
                Path(name).write_text(text)
            for call in calls:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(list(call))
                doc = _take("report.json", _without_timings)
                csv = _take("surface.csv", Path.read_bytes)
                print(" ".join(call), code,
                      *map(_digest, (out.getvalue(), err.getvalue(), doc, csv)))
        finally:
            os.chdir(home)
    print(f"{len(calls)} calls", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
