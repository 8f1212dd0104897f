"""The metric, tube, stencil and basis-condition rules are each written once, in a stage of
diffgeo or surface_families that the sweep and the scalar oracles both call, every
transcendental of a scalar jet is taken once per coordinate value, in a factor maker, and
the cone's amplitude rows are written once, in the function both cone jets call, and the
angle stencil's points and its scalar-jet rows are each formed in one diffgeo function;
these tests read the source of src/mlsurf and fail when a second copy of one comes back."""

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


def _function(tree, name: str) -> ast.FunctionDef:
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _outermost_functions(tree, found) -> set:
    """The top-level function (or <module>) around each node of tree for which found holds."""
    return {stmt.name if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) else "<module>"
            for stmt in tree.body for node in ast.walk(stmt) if found(node)}


def _sin_or_cos_of_x(node) -> bool:
    """A call of sin or cos, bare or under a module, whose arguments read x or xs."""
    return (isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("sin", "cos")
            and any({"x", "xs"} & _names(arg) for arg in node.args))


def _cone_radicand(node) -> bool:
    """A sum of a term reading A and a term reading B, as A cos^2 x + B sin^2 x."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
        return False
    left, right = _names(node.left), _names(node.right)
    return "A" in left and "B" in right or "B" in left and "A" in right


def _plus_or_minus_h(node) -> bool:
    """A sum or difference with the name h as one operand, as x + h or y - h."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
            and any(isinstance(o, ast.Name) and o.id == "h" for o in (node.left, node.right)))


def _is_jet(node) -> bool:
    return getattr(node, "id", getattr(node, "attr", None)) in ("jet", "jet_field")


def _calls_a_scalar_jet(node) -> bool:
    """A call of jet, jet_field or family.jet, or a map of one over points; passing a jet on,
    as in _jets(family.jet, xs, ys), is no call of it."""
    if not isinstance(node, ast.Call):
        return False
    return _is_jet(node.func) or getattr(node.func, "id", None) == "map" and any(
        map(_is_jet, node.args))


def _scalar_jets_in_a_loop(node) -> bool:
    """A loop or comprehension that calls a scalar jet."""
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
    return isinstance(node, loops) and any(map(_calls_a_scalar_jet, ast.walk(node)))


def test_the_guards_see_the_twins_they_look_for():
    twin = ast.parse("def f(v):\n    return math.remainder(v, p) < MIN_STENCIL_NORM\n"
                     "g = lambda v: MIN_STENCIL_NORM > v\n"
                     "def k(m):\n    svd = np.linalg.cond\n    return svd(m)\n")
    assert {"math.remainder", "np.linalg", "np.linalg.cond"} <= _names(twin)
    assert _functions_comparing(twin, "MIN_STENCIL_NORM") == {"f", "<lambda>"}
    assert _functions_comparing(twin, "np.linalg.cond", ast.Attribute) == {"k"}
    jet = ast.parse("def jet(x, y):\n    return np.exp(x) * math.cos(y)\n")
    assert _TRANSCENDENTALS & _names(_function(jet, "jet")) == {"np.exp", "math"}
    field = ast.parse("def field(xs):\n    def rho():\n        return np.sqrt(B * s * s + A * c)\n"
                      "    return rho, math.cos(2 * xs), rows(xs, np.sin, np.cos(theta))\n"
                      "def metric(x):\n    return (B - A) * np.sin(2 * theta) + c\n")
    assert _outermost_functions(field, _sin_or_cos_of_x) == {"field"}
    assert _outermost_functions(field, _cone_radicand) == {"field"}
    stencil = ast.parse("def rows(jet_field, x, y, h):\n"
                        "    pts = ((x, y), (x + h, y), (h - x, y))\n"
                        "    return [j.phi for j in map(jet_field, *zip(*pts))]\n"
                        "def scalar(family, xs):\n    for x in xs:\n        yield family.jet(x, 0)\n"
                        "def passed(family, h):\n    for b in blocks:\n"
                        "        rows(lambda xs, ys: _jets(family.jet, xs, ys), b, 2 * h)\n")
    assert _outermost_functions(stencil, _plus_or_minus_h) == {"rows"}
    assert _outermost_functions(stencil, _scalar_jets_in_a_loop) == {"rows", "scalar"}


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


_TRANSCENDENTALS = {"np.exp", "np.sin", "np.cos", "exp", "sin", "cos", "math"}


@pytest.mark.parametrize("name", ["spectral_family_jet"])
def test_a_scalar_jet_is_a_product_of_memoized_factors(name):
    # np.exp, np.sin, np.cos and math.* belong in the one-coordinate factor maker
    # (_spectral_factors), which runs once per new x or y value; cone_family_jet, off the
    # sweep's path, is cone_jet_field at its one point
    assert _TRANSCENDENTALS & _names(_function(MODULES["surface_families.py"], name)) == set()


@pytest.mark.parametrize("found", [_sin_or_cos_of_x, _cone_radicand])
def test_the_cone_amplitude_rows_are_written_in_one_function(found):
    # cone_jet_field calls _cone_rows, and cone_family_jet is that field at one point;
    # cone_metric_field keeps its own sin, cos and A, B on purpose, as the independent
    # claim the metric checks compare the jets against
    assert _outermost_functions(MODULES["surface_families.py"], found) == {
        "_cone_rows", "cone_metric_field"}


def test_the_sweep_forms_no_stencil_point():
    # the neighbours (x +- h, y), (x, y +- h) belong to diffgeo._stencil_rows, which the
    # sweep calls with its row source
    assert _outermost_functions(MODULES["sweep.py"], _plus_or_minus_h) == set()


def test_the_angle_stencil_points_are_formed_in_one_function():
    # check_maxima, frame_and_connection and beta_gradient_fd all call _stencil_rows;
    # gauss_curvature_masked's (x +- h, y) metric stencil is a rule of its own
    assert _outermost_functions(MODULES["diffgeo.py"], _plus_or_minus_h) == {
        "_stencil_rows", "gauss_curvature_masked"}


def test_stencil_rows_are_read_off_scalar_jets_in_one_function():
    # diffgeo._jets is the one row source of the scalar jets, for the sweep and the oracles
    defined = [f"{m}:{node.name}" for m, tree in MODULES.items() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "_jets"]
    assert defined == ["diffgeo.py:_jets"]
    assert {f"{m}:{fn}" for m, tree in MODULES.items()
            for fn in _outermost_functions(tree, _scalar_jets_in_a_loop)} == {"diffgeo.py:_jets"}


def test_the_spectral_memo_is_the_one_module_global_src_assigns():
    # every other cache of src/ (the lru_cache on _spectral_exp_terms and _cone_terms,
    # report._g17_tables, PeriodMatrix.min_im_eigenvalue) is a decorator on a pure function
    where = {f"{m}:{fn}" for m, tree in MODULES.items()
             for fn in _outermost_functions(tree, lambda node: isinstance(node, ast.Global))}
    assert where == {"surface_families.py:spectral_family_jet"}
