"""Run a fixed corpus of mlsurf command lines in process and print a digest per call.

Usage: python tools/identity_corpus.py [--keep DIR] CHECKOUT
       python tools/identity_corpus.py OLD NEW

CHECKOUT is the root of an mlsurf source tree; its `src/mlsurf` is imported.
Each call prints one line: the argv, the exit code, and the sha256 of stdout,
of stderr, of the `--json-out` document as written, layout included, with each
value of its `timings` blanked in place to `null`, and of the CSV ("-" where
the call writes no file); with --keep, the report so blanked and the CSV of
call k are also saved as DIR/k.json and DIR/k.csv.  Stdout and stderr are file
descriptors 1 and 2, captured per call, so what a C library writes there (a
LAPACK message, say) enters that call's digest as it would reach a user.  Two
checkouts that print the same lines give byte-identical reports, CSVs and
messages on the whole corpus, so a refactor that must not change any output is
checked by

    python tools/identity_corpus.py OLD NEW

which runs the corpus once per checkout, each in its own interpreter, and
prints `identical: N calls` (exit 0), or every pair of lines that differ, as
each side printed them, then `differ: K of N calls` (exit 1); a checkout whose
corpus run fails exits 2.  Under each pair it says what moved, as old -> new:
every check whose max_defect or passed changed, and every CSV column that
changed, with the number of its cells that did and their largest relative
move (inf where a cell was empty or not finite on one side, or was 0).  Where
a differing call wrote a report on either side, a last line counts the calls
whose verdicts changed (any check's passed, the overall, or the report's
presence): `verdict changes: V`.

The calls run in a temporary directory with relative file names, so no line
depends on where the corpus ran.  The period-matrix files they read, valid
and malformed, are written there first, so the corpus reaches the input layer
as well as the sweep.
"""

import contextlib
import hashlib
import json
import math
import os
import re
import subprocess
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
CURVES = [  # verify --grid 1x1, and verify and sample --grid 4x4 for those that derive
    ("0.003", "1", "2", "1"),          # FAILs only the absolute curve_regularity tolerance
    ("1e-150", "1", "2", "1"),
    ("1", "1", "1e308", "1"),          # constants that overflow or divide by zero
    ("1e-300", "1", "2", "1"),
    ("1", "1", "2", "1e200"),
    ("1", "1", "1e200", "1"),
    ("1", "1", "0.5", "1"),            # input rules
    ("-1", "1", "2", "1"),
    ("1", "0", "2", "1"),
    ("1", "1", "0", "1"),
    ("1", "1", "2", "0"),
    ("inf", "1", "2", "1"),
    ("1e-160", "1", "2", "1"),         # the scale c of Omega_2 overflows
]
EDGES = [  # verify --grid 1x1, and verify and sample --grid 4x4
    ("1", "1", "1.0000000000001", "1"),     # Q1 within 1e-12 b of the gluing coordinates
    ("1", "2", "-2.0000000000001", "1"),
    ("1", "1", "2", "1e-200"),              # residues that underflow to 0
    ("1e155", "1", "2", "1"),
]
CONES = [(1, 1), (1, 2), (3, 2), (4, 4), (40, 40)]
GRIDS = ["16x16", "33x17", "1x1", "7x64"]
WIDE = "1500x3"   # a row's stencil has 4,500 distinct x values: a scalar jet memo clears
PERIOD_FILES = {  # name: (text, z, shift)
    "pm1.txt": ("1\n1j\n", "0.3+0.1j", "1"),
    "pm2.txt": ("2\n0.1+1j 0.2\n0.2 2j\n", "0.1,0.2-0.3j", "1,-1"),
    "pm3.txt": ("3\n1.2j 0.1 0.2j\n0.1 0.9j 0\n0.2j 0 1.5j\n", "0.1,0,0.2j", "0,1,2"),
    "pm4.txt": ("2\n0.3+1j 0.1+0.5j\n0.1+0.5j -0.2+1.2j\n", "1e300,-7.25+0.2j", "1,0"),
}
BAD_PERIOD_FILES = {  # name: bytes; each is refused whatever z
    "empty.txt": b"# nothing but a comment\n\n",
    "genus.txt": b"two\n1j 0\n0 1j\n",
    "rows.txt": b"2\n1j 0\n",
    "entries.txt": b"2\n1j 0\n0\n",
    "token.txt": b"2\n1j 0\n0 1jj\n",
    "nonfinite.txt": b"2\n1j nan\nnan 1j\n",
    "asymmetric.txt": b"2\n1j 0.5\n0.25 1j\n",
    "indefinite.txt": b"2\n1j 0\n0 -1j\n",
    "latin1.txt": b"1\n1j # caf\xe9\n",
}
EDGE_PERIOD_FILES = {  # name: bytes; period files at the limits of the sum
    "thin.txt": b"1\n1e-14j\n",        # Im B so small that the box outgrows the term cap
    "thinner.txt": b"1\n1e-40j\n",
    "near.txt": b"2\n1j 0.1\n0.1000000000001 1j\n",   # symmetric within SYMMETRY_TOL
    "far.txt": b"2\n1e300j 0\n0 1j\n",   # B m overflows for a large shift
    "even.txt": b"1\n4e15+1j\n",       # Re B an even integer: theta(z | i), as Re B is
    "evens.txt": b"2\n1j 1e300\n1e300 1j\n",   # reduced modulo 2
}
REFUSED = [  # surface flags the CLI refuses before any sweep
    ["--family", "cone", "--m", "1", "--n", "2", "--grid", "4y4"],
    ["--family", "cone", "--m", "1", "--n", "2", "--grid", "0x4"],
    ["--family", "cone", "--m", "1", "--n", "2", "--grid", "4294967296x4294967296"],
    ["--family", "cone", "--m", "1"],
    ["--family", "cone", "--m", "0", "--n", "1"],
    ["--family", "cone", "--m", str(10**154), "--n", "1"],   # (pi (m + n))^2 overflows
    ["--family", "cone", "--m", "1", "--n", "2", "--a", "1"],
    ["--family", "spectral", "--a", "1", "--b", "1", "--q1", "2", "--gamma-im", "1", "--m", "1"],
    ["--family", "spectral", "--a", "1"],   # missing spectral parameters
    # the step is diffgeo.STEP: --h is an unrecognized argument, not an abbreviated --help
    ["--family", "cone", "--m", "1", "--n", "2", "--grid", "4x4", "--h", "1e-3"],
]


def _curve(*flags) -> list:
    """A spectral verify at 1x1 whose report holds the curve constants of flags: the
    sweep is one point, so the call digests what derive_constants builds or refuses
    (a curve whose one point lies in the degeneracy tube exits 2 without a report)."""
    return ["verify", "--family", "spectral", *flags, "--grid", "1x1", "--json-out", "report.json"]


def corpus() -> list:
    calls = []
    surfaces = [["--family", "spectral", "--a", a, "--b", b, "--q1", q1, "--gamma-im", g]
                for a, b, q1, g in SPECTRAL]
    surfaces += [["--family", "cone", "--m", str(m), "--n", str(n)] for m, n in CONES]
    for surface in surfaces:
        for grid in GRIDS:
            at = [*surface, "--grid", grid]
            calls.append(["verify", *at, "--tol-profile", "strict", "--json-out", "report.json"])
            calls.append(["sample", *at, "--out", "surface.csv"])
    for surface in (surfaces[0], ["--family", "cone", "--m", "3", "--n", "2"]):
        calls += [["verify", *surface, "--grid", WIDE, "--json-out", "report.json"],
                  ["sample", *surface, "--grid", WIDE, "--out", "surface.csv"]]
    for a, b, q1, g in SPECTRAL + CURVES + EDGES:
        calls.append(_curve("--a", a, "--b", b, "--q1", q1, "--gamma-im", g))
    for a, b, q1, g in SPECTRAL:   # Q1 -> -Q1: Q1 and Q2 trade places in Omega_2's poles
        q1 = q1[1:] if q1.startswith("-") else "-" + q1
        calls.append(_curve("--a", a, "--b", b, "--q1", q1, "--gamma-im", g))
    for a, b, q1, g in CURVES[:2] + EDGES:
        surface = ["--family", "spectral", "--a", a, "--b", b, "--q1", q1, "--gamma-im", g,
                   "--grid", "4x4"]
        calls += [["verify", *surface, "--json-out", "report.json"],
                  ["sample", *surface, "--out", "surface.csv"]]
    for surface in REFUSED:
        calls += [["verify", *surface], ["sample", *surface, "--out", "surface.csv"]]
    surface = ["--family", "cone", "--m", "1", "--n", "2", "--grid", "4x4"]
    calls += [["verify", *surface, "--json-out", "."], ["sample", *surface, "--out", "."]]
    for name, (_, z, shift) in PERIOD_FILES.items():
        calls.append(["theta", "--period-file", name, "--z", z])
        calls.append(["theta", "--period-file", name, "--z", z, "--shift-m", shift])
    for name in [*BAD_PERIOD_FILES, "absent.txt"]:
        calls.append(["theta", "--period-file", name, "--z", "0.1"])
    for name, z, extra in [("thin.txt", "0", []),          # the box count refuses
                           ("thin.txt", "1j", []),         # the ball bound refuses
                           ("thinner.txt", "0", []),       # a radius printed as 3.204e+20
                           ("pm1.txt", "200j", []),        # the Babai term overflows
                           ("thin.txt", "1e150j", []),     # so does Im z . (Im B)^-1 Im z
                           ("near.txt", "0.1,0.2j", []),
                           ("near.txt", "0.1,0.2j", ["--shift-m", "1,-1"]),
                           ("far.txt", "1j,1j", ["--shift-m", "-9223372036854775808,0"]),
                           ("even.txt", "0.1", []),
                           ("even.txt", "0.1", ["--shift-m", "1"]),
                           ("evens.txt", "0.1,0.1", [])]:
        calls.append(["theta", "--period-file", name, "--z", z, *extra])
    for z in ["0.1", "nan,0", "0.1,1+", "0,1e300j"]:   # the last too far off for a radius
        calls.append(["theta", "--period-file", "pm2.txt", "--z", z])
    for shift in ["1", "1,x", "1,99999999999999999999"]:
        calls.append(["theta", "--period-file", "pm2.txt", "--z", "0", "--shift-m", shift])
    # argparse lists verify's profile choices, and fd, the retired second profile, is refused
    # too; sample has no --tol-profile
    surface = ["--family", "cone", "--m", "1", "--n", "2"]
    for profile in ("x", "fd"):
        calls += [["verify", *surface, "--tol-profile", profile],
                  ["sample", *surface, "--tol-profile", profile, "--out", "surface.csv"]]
    calls += [[command, "--help"] for command in ("verify", "sample", "theta")]
    calls.append(["--help"])
    return calls


def load_cli(checkout: str):
    """mlsurf.cli imported from CHECKOUT's src/, with --help wrapped at 80 columns; None,
    and a line on stderr, where another mlsurf was imported."""
    src = Path(checkout).resolve() / "src"
    sys.path.insert(0, str(src))
    from mlsurf import cli
    if Path(cli.__file__).resolve().parent != src / "mlsurf":
        print(f"imported {cli.__file__}, not the checkout's", file=sys.stderr)
        return None
    os.environ["COLUMNS"] = "80"   # argparse wraps --help to the terminal width
    return cli


@contextlib.contextmanager
def corpus_directory():
    """Work in a temporary directory that holds the files the corpus reads."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, (text, _, _) in PERIOD_FILES.items():
                Path(name).write_text(text)
            for name, data in {**BAD_PERIOD_FILES, **EDGE_PERIOD_FILES}.items():
                Path(name).write_bytes(data)
            yield
        finally:
            os.chdir(home)


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


_TIMINGS = re.compile(rb'("timings"\s*:\s*\{)([^{}]*)')   # a flat object of seconds
_VALUE = re.compile(rb"(:\s*)[^,\s]+")


def _without_timings(path: Path) -> bytes:
    """The bytes of the report at path, each value of its timings replaced by null: only
    the clock is blanked, and every other byte, the layout's included, is digested."""
    return _TIMINGS.sub(lambda m: m[1] + _VALUE.sub(rb"\1null", m[2]), path.read_bytes(), count=1)


def run_call(main, call: list) -> tuple:
    """(exit code, stdout bytes, stderr bytes) of main(call), with file descriptors 1
    and 2 sent to temporary files for the call."""
    saved = os.dup(1), os.dup(2)
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        sys.stdout.flush()
        sys.stderr.flush()
        os.dup2(out.fileno(), 1)
        os.dup2(err.fileno(), 2)
        try:
            code = main(list(call))
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            for fd, old in zip((1, 2), saved):
                os.dup2(old, fd)
                os.close(old)
        out.seek(0)
        err.seek(0)
        return code, out.read(), err.read()


def _relative(u: str, v: str) -> float:
    """|v - u| / |u| of two CSV cells; inf unless both are finite numbers and u is not 0."""
    try:
        x, y = float(u), float(v)
    except ValueError:   # an empty cell
        return math.inf
    return abs(y - x) / abs(x) if math.isfinite(x) and math.isfinite(y) and x else math.inf


def _csv_moves(old: str, new: str) -> list:
    a, b = ([row.split(",") for row in text.splitlines()] for text in (old, new))
    if len(a) != len(b) or a[0] != b[0]:
        return [f"csv: {len(a) - 1} rows of {a[0]} -> {len(b) - 1} rows of {b[0]}"]
    moves = []
    for j, name in enumerate(a[0]):
        cells = [(r[j], s[j]) for r, s in zip(a[1:], b[1:]) if r[j] != s[j]]
        if cells:
            worst = max(_relative(u, v) for u, v in cells)
            moves.append(f"csv {name}: {len(cells)} cells, largest relative move {worst:.3g}")
    return moves


def _check_moves(old: dict, new: dict) -> list:
    a, b = ({c["name"]: (c["max_defect"], c["passed"]) for c in doc["checks"]} for doc in (old, new))
    moves = []
    for name in [*a, *(n for n in b if n not in a)]:
        (u, p), (v, q) = a.get(name, (None, None)), b.get(name, (None, None))
        if not (u == v or u != u and v != v):   # NaN reads as unmoved NaN
            moves.append(f"{name}: {u!r} -> {v!r}" + (f", passed {p} -> {q}" if p != q else ""))
        elif p != q:
            moves.append(f"{name}: passed {p} -> {q}")
    return moves


def _verdict(doc):
    return doc and (doc["overall"], [(c["name"], c["passed"]) for c in doc["checks"]])


def compare(old: str, new: str) -> int:
    """Run the corpus on both checkouts, each in a fresh interpreter, and compare the lines
    and, under each pair that differs, the reports and CSVs the two calls wrote."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        keep = [os.path.join(tmp, side) for side in ("old", "new")]
        for checkout, path in zip((old, new), keep):
            os.mkdir(path)
            run = subprocess.run([sys.executable, __file__, "--keep", path, checkout],
                                 capture_output=True, text=True)
            if run.returncode:
                print(f"{checkout}: the corpus exited {run.returncode}\n{run.stderr}",
                      file=sys.stderr)
                return 2
            lines.append(run.stdout.splitlines())   # one per call of this file's corpus
        differ = [k for k, (a, b) in enumerate(zip(*lines)) if a != b]
        reports, verdicts = False, 0
        for k in differ:
            print(f"{old}: {lines[0][k]}\n{new}: {lines[1][k]}")
            docs, csvs = ([_take(os.path.join(path, f"{k}{ext}"), Path.read_text) for path in keep]
                          for ext in (".json", ".csv"))
            docs = [doc and json.loads(doc) for doc in docs]
            moves = []
            if None not in docs:
                moves += _check_moves(*docs)
            if None not in csvs:
                moves += _csv_moves(*csvs)
            moves += [f"{what} written by {(old, new)[pair[0] is None]} alone"
                      for what, pair in (("report", docs), ("CSV", csvs)) if pair.count(None) == 1]
            for move in moves:
                print(f"    {move}")
            reports |= docs != [None, None]
            verdicts += _verdict(docs[0]) != _verdict(docs[1])
    if differ:
        print(f"differ: {len(differ)} of {len(lines[0])} calls")
        if reports:
            print(f"verdict changes: {verdicts}")
        return 1
    print(f"identical: {len(lines[0])} calls")
    return 0


def main(argv: list) -> int:
    if len(argv) == 2 and argv[0] != "--keep":
        return compare(*argv)
    keep = os.path.abspath(argv[1]) if len(argv) == 3 and argv[0] == "--keep" else None
    if keep is not None:
        argv = argv[2:]
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    cli = load_cli(argv[0])
    if cli is None:
        return 2
    calls = corpus()
    with corpus_directory():
        for k, call in enumerate(calls):
            code, out, err = run_call(cli.main, call)
            doc = _take("report.json", _without_timings)
            csv = _take("surface.csv", Path.read_bytes)
            print(" ".join(call), code, *map(_digest, (out, err, doc, csv)))
            if keep and doc is not None:
                Path(keep, f"{k}.json").write_bytes(doc)
            if keep and csv is not None:
                Path(keep, f"{k}.csv").write_bytes(csv)
    print(f"{len(calls)} calls", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
