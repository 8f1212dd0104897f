"""Smoke test of the benchmark's own code at toy size (4x4 grids, genus 2)."""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import oracles
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def toy(workload, trace=False, corrupt=None):
    return run.run_benchmark(workload, seed=3, seconds=0.2, trace=trace,
                             size=workloads.TOY, corrupt=corrupt)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_declared_metric_is_reported(workload, trace):
    result = toy(workload, trace)
    line = run.summary_line(result, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    assert line["correct"] and line["attempted"] >= 1
    if not trace:
        assert all(line["metrics"][m["name"]]["value"] > 0 for m in declared)
    assert set(result["provenance"]) >= {"nproc", "python", "numpy", "git_commit",
                                         "env", "src_lines", "seed"}


def test_counts_repeat_exactly():
    first, second = (toy("verify-spectral", trace=True)["metrics"] for _ in range(2))
    for name in ("surface_families.jets_per_point", "diffgeo.metric_from_jet.calls",
                 "report.excluded_frac"):
        assert first[name]["value"] == second[name]["value"]
    assert first["surface_families.jets_per_point"]["value"] > 1.0


@pytest.mark.parametrize("workload", ["verify-cone", "theta"])
def test_seed_fixes_what_a_timed_run_attempts(workload):
    first, second = (toy(workload) for _ in range(2))
    assert first["attempted"] % workloads.CYCLE[workload] == 0
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    assert [op[:2] for op in first["ops"]] == [op[:2] for op in second["ops"]]


@pytest.fixture
def scratch():
    run.WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="smoke-", dir=run.WORK))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_seed_fixes_the_inputs(scratch):
    def inputs(seed, sub):
        (scratch / sub).mkdir()
        ops, _ = workloads.make_ops("theta", seed, str(scratch / sub), workloads.TOY)
        files = sorted(p.read_text() for p in (scratch / sub).iterdir())
        return [next(ops).argv[2:] for _ in range(20)], files

    assert inputs(5, "a") == inputs(5, "b")
    assert inputs(5, "c")[1] != inputs(6, "d")[1]


def _nan_first_check(op, outcome):
    doc = json.loads(Path(op.out_path).read_text())
    doc["checks"][0]["max_defect"] = float("nan")
    Path(op.out_path).write_text(json.dumps(doc))


def _nan_first_row(op, outcome):
    lines = Path(op.out_path).read_text().splitlines()
    fields = lines[1].split(",")
    fields[8] = "nan"
    lines[1] = ",".join(fields)
    Path(op.out_path).write_text("\n".join(lines) + "\n")


def _shift_theta(op, outcome):
    value = complex(outcome.stdout.splitlines()[0].split("=")[1]) + 1e-6
    outcome.stdout = f"theta = {value.real!r}{value.imag:+}j\n"


CORRUPT = {"verify-spectral": _nan_first_check, "verify-cone": _nan_first_check,
           "sample": _nan_first_row, "theta": _shift_theta}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_oracle_rejects_a_corrupted_output(workload):
    def corrupt(op, outcome):
        if op.index == 0:
            CORRUPT[workload](op, outcome)

    result = toy(workload, corrupt=corrupt)
    assert result["ops_failed_frac"] > 0
    assert not result["correct"]


def test_fails_without_the_program(scratch):
    shutil.copytree(ROOT / "bench", scratch / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "theta", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=scratch, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _theta_op(shift_terms):
    return workloads.Op(0, [], 1, "theta", {"genus": 2, "entry": 0, "shift": [1, 0],
                                            "terms": 25, "shift_terms": shift_terms})


B2 = [[0.1 + 6j, 0.2 + 1j], [0.2 + 1j, -0.3 + 2j]]
Z2 = [0.1 + 0.2j, -0.2 - 0.1j]
FACTOR = math.exp(math.pi * 6.0 + 2.0 * math.pi * 0.2)   # exp(pi Y_00 + 2 pi Im z_0)


@pytest.mark.parametrize("shift_terms, verdict", [(oracles.TERM_CAP + 1, "known"),
                                                  (oracles.TERM_CAP, "fail")])
def test_term_cap_is_known_only_beyond_the_cap(shift_terms, verdict):
    out = oracles.Outcome(2, "theta = (1+0j)\n", "error: radius 9 needs 5 terms (cap 4)\n")
    assert oracles.check_theta(_theta_op(shift_terms), out, 1 + 0j, B2, Z2)[0] == verdict


@pytest.mark.parametrize("scale, verdict", [(0.5, "known"), (2.0, "fail")])
def test_shift_defect_is_known_only_within_the_roundoff_envelope(scale, verdict):
    defect = scale * oracles.ROUNDOFF_ENVELOPE * 2.0 ** -52 * FACTOR
    out = oracles.Outcome(0, f"theta = (1+0j)\nquasi_periodicity_defect = {defect!r}\n", "")
    assert oracles.check_theta(_theta_op(100), out, 1 + 0j, B2, Z2)[0] == verdict


@pytest.mark.parametrize("tube_g, verdict", [(1.5e-3, "known"), (3e-3, "fail")])
def test_tube_g_failure_is_known_only_near_the_observed_value(scratch, tube_g, verdict):
    params = {"a": 1.0, "b": 2.0, "q1": 3.0, "gamma_im": 2.0}
    checks = [{"name": n, "max_defect": 0.0, "passed": True} for n in oracles.SPECTRAL_CHECKS]
    checks.append({"name": "tube_G_bound", "max_defect": tube_g, "passed": False})
    path = scratch / "verify.json"
    path.write_text(json.dumps({"checks": checks, "grid": {"nx": 4, "ny": 4},
                                "parameters": params, "overall": False}))
    op = workloads.Op(0, [], 16, "spectral", params, str(path))
    assert oracles.check_verify(op, oracles.Outcome(1, "", ""))[0] == verdict
