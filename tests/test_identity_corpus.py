import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "identity_corpus.py"


def _corpus() -> list:
    spec = importlib.util.spec_from_file_location("identity_corpus", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.corpus()


def _checkout(root: Path, main_body: str) -> str:
    """A source tree whose mlsurf.cli.main is main_body: enough for the corpus to run."""
    pkg = root / "src" / "mlsurf"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(f"def main(argv):\n    {main_body}\n")
    return str(root)


def _compare(old: str, new: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), old, new], capture_output=True, text=True)


def test_two_checkouts_that_print_the_same_lines_are_identical(tmp_path):
    body = "print(*argv); return 0"
    run = _compare(_checkout(tmp_path / "old", body), _checkout(tmp_path / "new", body))
    assert (run.returncode, run.stdout) == (0, f"identical: {len(_corpus())} calls\n")


def test_the_first_differing_call_is_printed_from_each_side(tmp_path):
    # the exit code differs on every theta call: the first is named, once per side, then
    # each later one in corpus order, and a last line counts them
    old = _checkout(tmp_path / "old", "print(*argv); return 0")
    new = _checkout(tmp_path / "new", "print(*argv); return int(argv[0] == 'theta')")
    run = _compare(old, new)
    lines = run.stdout.splitlines()
    calls = _corpus()
    theta = [" ".join(call) for call in calls if call[0] == "theta"]
    assert run.returncode == 1 and len(lines) == 2 * len(theta) + 1
    assert theta[0] == "theta --period-file pm1.txt --z 0.3+0.1j"
    for call, a, b in zip(theta, lines[0::2], lines[1::2]):
        assert a.startswith(f"{old}: {call} 0 ") and b.startswith(f"{new}: {call} 1 ")
    assert lines[-1] == f"differ: {len(theta)} of {len(calls)} calls"


def test_a_write_to_file_descriptor_1_enters_the_calls_stdout_digest(tmp_path):
    # a C library writes to fd 1 past sys.stdout; the write is part of what the call printed
    old = _checkout(tmp_path / "old", "print(*argv); return 0")
    new = _checkout(tmp_path / "new", "import os; print(*argv); "
                    "argv[0] == 'theta' and os.write(1, b'stray\\n'); return 0")
    run = _compare(old, new)
    lines = run.stdout.splitlines()
    theta = [" ".join(call) for call in _corpus() if call[0] == "theta"]
    assert run.returncode == 1 and len(lines) == 2 * len(theta) + 1
    for call, a, b in zip(theta, lines[0::2], lines[1::2]):
        assert a.startswith(f"{old}: {call} 0 ") and b.startswith(f"{new}: {call} 0 ")
        (out_old, *rest_old), (out_new, *rest_new) = (ln.split()[-4:] for ln in (a, b))
        assert out_old != out_new and rest_old == rest_new


def test_a_checkout_whose_corpus_fails_exits_2(tmp_path):
    old = _checkout(tmp_path / "old", "print(*argv); return 0")
    new = _checkout(tmp_path / "new", "raise RuntimeError('broken')")
    run = _compare(old, new)
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.startswith(f"{new}: the corpus exited 1\n") and "broken" in run.stderr



_REPORTING_CLI = """import json

SAME, MOVED = json.loads(%r), json.loads(%r)


def main(argv):
    print(*argv)
    out = MOVED if argv[2:5] == ["cone", "--m", "1"] else SAME
    if argv[-2:] == ["--json-out", "report.json"]:
        with open("report.json", "w") as fh:
            json.dump({"checks": out["checks"], "overall": False, "timings": {}}, fh)
    if argv[-2:] == ["--out", "surface.csv"]:
        with open("surface.csv", "w") as fh:
            fh.write(out["csv"])
    return 0
"""
_SAME = {"checks": [{"name": "a", "max_defect": 1e-12, "passed": True},
                    {"name": "b", "max_defect": 1e-7, "passed": True},
                    {"name": "c", "max_defect": math.nan, "passed": False}],
         "csv": "x,beta,K\n0,0.5,1.0\n1,1.0,\n"}


def _reporting_checkout(root: Path, moved: dict) -> str:
    """A source tree whose cli writes a report and a CSV: those of moved on the calls of
    the cones (1, n), and _SAME on every other call."""
    pkg = root / "src" / "mlsurf"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(_REPORTING_CLI % (json.dumps(_SAME), json.dumps(moved)))
    return str(root)


def test_each_differing_call_says_which_checks_and_csv_columns_moved(tmp_path):
    # on the cones (1, n), check a moves by an ulp, check b moves and FAILs, the NaN of
    # check c stays; in the CSV, one beta moves by 2^-52 and an empty K cell is filled
    checks = [{**_SAME["checks"][0], "max_defect": 1.0000000000000002e-12},
              {"name": "b", "max_defect": 2e-6, "passed": False}, _SAME["checks"][2]]
    old = _reporting_checkout(tmp_path / "old", _SAME)
    new = _reporting_checkout(tmp_path / "new", {"checks": checks,
                                                  "csv": "x,beta,K\n0,0.5,1.0\n1,1.0000000000000002,0.25\n"})
    run = _compare(old, new)
    calls = [call for call in _corpus()
             if call[2:5] == ["cone", "--m", "1"] and call[-1] in ("report.json", "surface.csv")]
    verify = sum(call[0] == "verify" for call in calls)
    assert run.returncode == 1 and 0 < verify < len(calls)
    expected = []
    for call in calls:
        expected += [f"{old}: {' '.join(call)} 0", f"{new}: {' '.join(call)} 0"]
        expected += (["    a: 1e-12 -> 1.0000000000000002e-12",
                      "    b: 1e-07 -> 2e-06, passed True -> False"] if call[0] == "verify"
                     else ["    csv beta: 1 cells, largest relative move 2.22e-16",
                           "    csv K: 1 cells, largest relative move inf"])
    got = [" ".join(ln.split()[:-4]) if ln.startswith((old, new)) else ln
           for ln in run.stdout.splitlines()]
    assert got == expected + [f"differ: {len(calls)} of {len(_corpus())} calls",
                              f"verdict changes: {verify}"]


_LAYOUT_CLI = """import json
import time


def main(argv):
    print(*argv)
    if argv[-2:] == ["--json-out", "report.json"]:
        doc = {"checks": [{"name": "a", "max_defect": 1e-12, "passed": True}], "overall": True,
               "timings": {"jets": time.perf_counter(), "total": time.perf_counter()}}
        with open("report.json", "w") as fh:
            fh.write(json.dumps(doc, indent=%r) + "\\n")
    return 0
"""


def _layout_checkout(root: Path, indent) -> str:
    """A source tree whose cli writes one report, in json's layout of indent, with the
    clock's readings as its timings."""
    pkg = root / "src" / "mlsurf"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(_LAYOUT_CLI % (indent,))
    return str(root)


def test_the_timings_are_blanked_and_every_other_byte_of_the_report_is_digested(tmp_path):
    # the same document with other timings is identical; in another layout it differs on
    # every call that writes a report, with no check moved and no verdict changed
    old = _layout_checkout(tmp_path / "old", None)
    run = _compare(old, _layout_checkout(tmp_path / "same", None))
    assert (run.returncode, run.stdout) == (0, f"identical: {len(_corpus())} calls\n")
    new = _layout_checkout(tmp_path / "new", 2)
    run = _compare(old, new)
    calls = [" ".join(call) for call in _corpus() if call[-2:] == ["--json-out", "report.json"]]
    lines = run.stdout.splitlines()
    assert run.returncode == 1 and len(lines) == 2 * len(calls) + 2
    for call, a, b in zip(calls, lines[0::2], lines[1::2]):
        assert a.startswith(f"{old}: {call} 0 ") and b.startswith(f"{new}: {call} 0 ")
        (*same_old, doc_old, csv_old), (*same_new, doc_new, csv_new) = (
            ln.split()[-4:] for ln in (a, b))
        assert same_old == same_new and doc_old != doc_new and csv_old == csv_new == "-"
    assert lines[-2:] == [f"differ: {len(calls)} of {len(_corpus())} calls", "verdict changes: 0"]
