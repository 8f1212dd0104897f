import subprocess
import sys
from pathlib import Path

import pytest

from mlsurf.diffgeo import christoffel_solve, frame_and_connection, metric_from_jet
from mlsurf.report import GridSpec, verify
from mlsurf.spectral_curve import derive_constants
from mlsurf.surface_families import _spectral_exp_terms, spectral_family, spectral_family_jet
from mlsurf.theta import LatticeTruncation

SRC = str(Path(__file__).resolve().parent.parent / "src")


# dataclasses: every dataclass compiles its methods with exec at import, and the
# records are NamedTuples; json: only verify --json-out needs it and imports it
# then; __future__: postponed annotations make NamedTuple compile one ForwardRef
# per field
@pytest.mark.parametrize("module", ["dataclasses", "json", "__future__"])
def test_importing_the_cli_generates_no_dataclass_code(module):
    code = ("import sys; import numpy; sys.path.insert(0, %r); import mlsurf.cli; "
            "print(%r in sys.modules)" % (SRC, module))
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# numpy.ma: a bare np.unique(x), without return_inverse, calls np.ma.is_masked and
# imports it, which raises a fresh process's peak memory by about 3 MB; fractions
# imports decimal; neither the CSV text nor the report needs them
_LEAN = [(command, module) for command in ("sample", "verify")
         for module in ("numpy.ma", "fractions", "decimal")]


@pytest.mark.parametrize("command, module", _LEAN,
                         ids=[m if c == "sample" else f"{c}-{m}" for c, m in _LEAN])
def test_sample_leaves_modules_unimported(command, module, tmp_path):
    out = ["--out", str(tmp_path / "s.csv")] if command == "sample" else [
        "--json-out", str(tmp_path / "r.json")]
    argv = [command, "--family", "spectral", "--a", "1e-3", "--b", "1", "--q1", "2",
            "--gamma-im", "1", "--grid", "8x8", *out]
    code = ("import sys; sys.path.insert(0, %r); from mlsurf import cli; "
            "cli.main(%r); print(%r in sys.modules)" % (SRC, argv, module))
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    if command == "sample":
        assert proc.stdout == "False\n"
    else:   # verify prints its report first
        assert proc.stdout.endswith("\nFalse\n")


def _records():
    curve = derive_constants(1.0, 1.0, 2.0, 1.0)
    family = spectral_family(curve)
    jet = spectral_family_jet(curve, 0.3, 0.7)
    report = verify(family, GridSpec(1, 1))
    return [jet, family.metric, family, curve, curve.omega2(),
            metric_from_jet(jet), christoffel_solve(jet), frame_and_connection(family.jet, 0.3, 0.7),
            report.checks[0], report]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_refuse_attribute_assignment(record):
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))


def test_equal_curves_share_the_cached_exponential_terms():
    p = (1.3, 0.7, 2.1, -0.9)
    assert _spectral_exp_terms(derive_constants(*p)) is _spectral_exp_terms(derive_constants(*p))


@pytest.mark.parametrize("build, message", [
    (lambda: GridSpec(0, 1), "grid must have at least one point per axis"),
    (lambda: GridSpec(3, 0), "grid must have at least one point per axis"),
    (lambda: GridSpec(2**62, 2), "grid 4611686018427387904x2 has more than 2^63 - 1 points"),
    (lambda: LatticeTruncation(0), "truncation radius must be >= 1, got 0"),
], ids=["grid-nx", "grid-ny", "grid-points", "radius"])
def test_validating_classes_keep_their_messages(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message


def test_validating_classes_normalise_their_inputs():
    grid = GridSpec(2, 3)
    assert (grid.nx, grid.ny) == (2, 3) and LatticeTruncation(4).radius == 4
