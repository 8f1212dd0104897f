"""The metric, tube and stencil rules are each written once, in a stage of diffgeo or
surface_families that the sweep and the scalar oracles both call; these tests read the
source of src/mlsurf and fail when a second copy of one comes back."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mlsurf"
MODULES = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _names(tree) -> set:
    """Every name the code under tree reads or imports, attributes of a name dotted
    (np.log, math.remainder)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            out.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.name for alias in node.names)
    return out


def _functions_comparing(tree, name: str) -> set:
    """The innermost function (or <module>) around each comparison that reads name."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif isinstance(node, ast.Lambda):
            where = "<lambda>"
        if isinstance(node, ast.Compare) and name in _names(node):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_the_guards_see_the_twins_they_look_for():
    twin = ast.parse("def f(v):\n    return math.remainder(v, p) < MIN_STENCIL_NORM\n"
                     "g = lambda v: MIN_STENCIL_NORM > v\n")
    assert "math.remainder" in _names(twin)
    assert _functions_comparing(twin, "MIN_STENCIL_NORM") == {"f", "<lambda>"}


def test_no_module_calls_math_remainder():
    # surface_families._remainder is math.remainder elementwise, bit for bit, for the tube
    # mask and the angle unwrapping alike
    assert [m for m, tree in MODULES.items() if "math.remainder" in _names(tree)] == []


def test_the_stencil_norm_rule_is_compared_in_one_function():
    where = {f"{m}:{fn}" for m, tree in MODULES.items()
             for fn in _functions_comparing(tree, "MIN_STENCIL_NORM")}
    assert where == {"diffgeo.py:_stencil"}


@pytest.mark.parametrize("name", ["np.log", "log", "_remainder", "degeneracy_angle",
                                  "MIN_STENCIL_NORM", "in_degeneracy_tube"])
def test_the_sweep_reads_the_stages_not_their_parts(name):
    # the metric's logs, the tube formula and the stencil-norm rule belong to metric_data,
    # tube_mask and _stencil; in_degeneracy_tube is the tube rule at one point only
    assert name not in _names(MODULES["sweep.py"])
