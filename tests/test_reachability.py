"""Every function of src/mlsurf that no identity-corpus call reaches (tools/reachability.py)
is on a short list, each with the reason it stays in src/; a function that joins them, or
one on the list that a call reaches again, fails the test."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"

_PINNED = ("named in bench/run.py's LAYER_FUNCTIONS, whose traced runs read its stats; it "
           "moves to tests/ (ROADMAP item 22) once a benchmark change drops the name")
ALLOWED = {
    "cli.main_entry": "the console script of pyproject.toml; the corpus calls cli.main",
    "diffgeo.metric_from_jet": _PINNED,
    "diffgeo.lagrangian_angle": _PINNED,
    "diffgeo.christoffel_solve": _PINNED,
    "diffgeo.frame_and_connection": _PINNED,
    "diffgeo.beta_gradient_fd": _PINNED,
    "diffgeo.gauss_curvature": _PINNED,
    "report.verify_spectral": _PINNED,
    "report.verify_cone": _PINNED,
    "surface_families.in_degeneracy_tube": _PINNED,
    "surface_families.cone_family_jet": _PINNED,
}


def test_the_functions_no_corpus_call_reaches_are_the_allowed_ones():
    run = subprocess.run([sys.executable, str(TOOLS / "reachability.py"), str(ROOT)],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    unreached = run.stdout.split()
    assert [n for n in unreached if n not in ALLOWED] == []
    assert [n for n in ALLOWED if n not in unreached] == []


def test_the_pinned_names_are_the_benchs_layer_functions():
    # the reason _PINNED gives holds for each function that gives it
    tree = ast.parse((ROOT / "bench" / "run.py").read_text())
    layer = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and node.targets[0].id == "LAYER_FUNCTIONS")
    assert {n for n, why in ALLOWED.items() if why == _PINNED} <= set(layer)


def test_the_function_list_names_nested_methods_and_decorated_defs(tmp_path, monkeypatch):
    # a decorated function's code starts at its first decorator, and the trace matches code
    # to defs by that line
    monkeypatch.syspath_prepend(str(TOOLS))
    import reachability
    (tmp_path / "m.py").write_text("class C:\n    @staticmethod\n    @property\n    def f():\n"
                                   "        def g():\n            pass\n"
                                   "h = lambda: 0\nasync def k():\n    pass\n")
    path = str((tmp_path / "m.py").resolve())
    assert reachability.functions(tmp_path) == [
        ("m.C.f", path, 2, "f"), ("m.C.f.g", path, 5, "g"), ("m.k", path, 8, "k")]
