import importlib.util
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
