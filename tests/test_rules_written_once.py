"""The metric, tube, stencil and basis-condition rules are each written once, in a stage of
diffgeo or surface_families that the sweep and the scalar oracles both call; these tests
read the source of src/mlsurf and fail when a second copy of one comes back."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mlsurf"
MODULES = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _names(tree) -> set:
    """Every name the code under tree reads or imports, attributes of a name dotted
    (np.log, math.remainder, np.linalg and np.linalg.cond)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            parts, value = [node.attr], node.value
            while isinstance(value, ast.Attribute):
                parts, value = [value.attr, *parts], value.value
            if isinstance(value, ast.Name):
                out.add(".".join([value.id, *parts]))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.name for alias in node.names)
    return out


def _functions_comparing(tree, name: str, kind=ast.Compare) -> set:
    """The innermost function (or <module>) around each comparison (or other node of kind)
    that reads name."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif isinstance(node, ast.Lambda):
            where = "<lambda>"
        if isinstance(node, kind) and name in _names(node):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_the_guards_see_the_twins_they_look_for():
    twin = ast.parse("def f(v):\n    return math.remainder(v, p) < MIN_STENCIL_NORM\n"
                     "g = lambda v: MIN_STENCIL_NORM > v\n"
                     "def k(m):\n    svd = np.linalg.cond\n    return svd(m)\n")
    assert {"math.remainder", "np.linalg", "np.linalg.cond"} <= _names(twin)
    assert _functions_comparing(twin, "MIN_STENCIL_NORM") == {"f", "<lambda>"}
    assert _functions_comparing(twin, "np.linalg.cond", ast.Attribute) == {"k"}


def test_no_module_calls_math_remainder():
    # surface_families._remainder is math.remainder elementwise, bit for bit, for the tube
    # mask and the angle unwrapping alike
    assert [m for m, tree in MODULES.items() if "math.remainder" in _names(tree)] == []


def test_the_stencil_norm_rule_is_compared_in_one_function():
    where = {f"{m}:{fn}" for m, tree in MODULES.items()
             for fn in _functions_comparing(tree, "MIN_STENCIL_NORM")}
    assert where == {"diffgeo.py:_stencil"}


@pytest.mark.parametrize("name, kind", [("CONDITION_LIMIT", ast.Compare),
                                        ("np.linalg.cond", ast.Attribute)])
def test_the_condition_gate_is_written_in_one_function(name, kind):
    # christoffel_solve and the sweep both call basis_conditioned
    where = {f"{m}:{fn}" for m, tree in MODULES.items()
             for fn in _functions_comparing(tree, name, kind)}
    assert where == {"diffgeo.py:basis_conditioned"}


@pytest.mark.parametrize("name", ["np.log", "log", "_remainder", "degeneracy_angle",
                                  "MIN_STENCIL_NORM", "in_degeneracy_tube",
                                  "np.linalg", "CONDITION_LIMIT", "np.isfinite"])
def test_the_sweep_reads_the_stages_not_their_parts(name):
    # the metric's logs, the tube formula, the stencil-norm rule and the condition gate
    # belong to metric_data, tube_mask, _stencil and basis_conditioned; in_degeneracy_tube
    # is the tube rule at one point only
    assert name not in _names(MODULES["sweep.py"])
