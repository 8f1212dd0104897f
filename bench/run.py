#!/usr/bin/env python3
"""mlsurf benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload verify-spectral --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the program from
``src/``.  One caller drives ``mlsurf.cli.main(argv)`` in this process as a
closed loop (the next call starts when the previous one returned), with no
extra threads.  Every op's output goes through its oracle (``oracles.py``)
outside the timed region.

``--trace 0`` times each call with tracing off and reports the end-to-end
metrics; it runs ops until their nominal time from the input alone
(``Op.cost``) adds up to ``--seconds``, so that the same seed attempts the
same ops on every run.  ``--trace 1`` runs a fixed, seeded list of ops, each
once untraced and once traced (``tracing.py``), and reports the per-layer
metrics plus the tracing overhead; a fixed list makes the counts repeat
exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of ``BENCHMARK.json``.  A fuller record (provenance, every
traced function, failure reasons) goes to ``.bench_run/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import oracles
import tracing
import workloads
from workloads import CYCLE, FULL, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
THREAD_ENV = ("MLSURF_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")

# functions whose calls / self time / raises the traced run reports
LAYER_FUNCTIONS = (
    "cli.main", "cli.build_parser",
    "report.verify_spectral", "report.verify_cone", "report.sample_rows",
    "report.write_csv", "report.curve_checks",
    "spectral_curve.derive_constants",
    "surface_families.spectral_family_jet", "surface_families.cone_family_jet",
    "surface_families.in_degeneracy_tube",
    "baker_akhiezer.f_coefficients",
    "diffgeo.lagrangian_angle", "diffgeo.frame_and_connection", "diffgeo.frame_defects",
    "diffgeo.beta_gradient_fd", "diffgeo.christoffel_solve", "diffgeo.metric_from_jet",
    "diffgeo.residue_identity_defects", "diffgeo.gauss_curvature",
    "theta.riemann_theta", "theta.read_period_matrix",
)


REF_EVERY = 0.02
_REF_V = np.exp(1j * np.arange(6.0))
_REF_M = np.eye(3) + 0.1


def reference_kernel() -> float:
    """Fixed work in the program's instruction mix: small numpy calls, 3x3
    linear algebra and float math.  Its time is the clock of the gated metrics.
    """
    acc = 0.0
    for i in range(200):
        w = np.exp(_REF_V * (i * 1e-3))
        acc += float(np.sum(np.abs(w) ** 2))
        acc += float(np.linalg.det(_REF_M + i * 1e-4))
        acc += math.remainder(i * 0.37, math.pi)
    for i in range(60):
        a = _REF_M + i * 1e-3
        acc += float(np.linalg.cond(a)) + float(np.linalg.inv(a)[0, 0])
        acc += float(np.linalg.solve(a, _REF_V[:3].real).sum())
    return acc


class ProgramMissing(RuntimeError):
    pass


def load_cli():
    """Import mlsurf.cli from this checkout's src/ and nowhere else."""
    if not (SRC / "mlsurf" / "cli.py").is_file():
        raise ProgramMissing(f"no program to benchmark: {SRC / 'mlsurf' / 'cli.py'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mlsurf
    import mlsurf.cli
    if Path(mlsurf.__file__).resolve().parent != SRC / "mlsurf":
        raise ProgramMissing(f"imported mlsurf from {mlsurf.__file__}, not from {SRC}")
    return mlsurf.cli


def cli_process(argv: list) -> tuple:
    """A fresh interpreter that imports mlsurf.cli and, if `argv` is not
    empty, runs that CLI call, as a user of the command would.

    Returns (seconds from the interpreter's start until `import mlsurf.cli`
    returned, seconds of `import mlsurf.cli` alone with numpy already
    imported, peak RSS of the process in MB or None without `argv`).  The
    peak is the child's own VmHWM: its `ru_maxrss` would include this
    process's memory, which the child shares between fork and exec.
    """
    code = ("import sys, time; import numpy; t = time.perf_counter(); "
            "sys.path.insert(0, %r); import mlsurf.cli; "
            "print(time.monotonic(), time.perf_counter() - t, flush=True)\n"
            "if sys.argv[1:]:\n"
            "    mlsurf.cli.main(sys.argv[1:])\n"
            "    hwm = [l for l in open('/proc/self/status') if l.startswith('VmHWM:')]\n"
            "    print(int(hwm[0].split()[1]) / 1024.0)" % str(SRC))
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-I", "-c", code, *argv], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    if len(lines) < (2 if argv else 1):
        raise RuntimeError(f"a fresh interpreter failed to run mlsurf (exit {proc.returncode})")
    started, own = map(float, lines[0].split())
    return started - t0, own, float(lines[-1]) if argv else None


@dataclass
class Record:
    op: workloads.Op
    seconds: float
    verdict: str
    reason: str
    work: int = 0               # grid points, or lattice terms of the theta values printed
    csv_bytes: int = 0
    ref_s: float = math.nan     # reference-kernel time around this op


class Runner:
    def __init__(self, cli, workload: str, seed: int, size, workdir: str, corrupt=None):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.size = size
        self.ops, self.pool = workloads.make_ops(workload, seed, workdir, size)
        self.corrupt = corrupt
        self.tracer = None
        self._theta_refs = {}
        self._xs = workloads.grid_xs(size.sample_grid)

    def call(self, op) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if self.tracer is not None:
                self.tracer.current_op = op.index
                self.tracer.active = True
            t0 = time.perf_counter()
            try:
                code = self.cli.main(op.argv)
            except Exception as exc:  # a raise is a failed op, not a benchmark crash
                code, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.active = False
        return seconds, oracles.Outcome(code, out.getvalue(), err.getvalue(), error)

    def check(self, op, outcome) -> tuple:
        if self.corrupt is not None:
            self.corrupt(op, outcome)
        if self.workload.startswith("verify"):
            return oracles.check_verify(op, outcome)
        if self.workload == "sample":
            return oracles.check_sample(op, outcome, self.size.sample_grid, self._xs, self.seed)
        key = (op.params["genus"], op.params["entry"])
        _, B, z = self.pool[key[0]][key[1]]
        if key not in self._theta_refs:
            self._theta_refs[key] = oracles.theta_reference(B, z)
        return oracles.check_theta(op, outcome, self._theta_refs[key], B, z)

    def run_op(self, op) -> Record:
        seconds, outcome = self.call(op)
        csv_bytes = os.path.getsize(op.out_path) if op.out_path and op.out_path.endswith(".csv") \
            and os.path.exists(op.out_path) else 0
        verdict, reason = self.check(op, outcome)
        return Record(op, seconds, verdict, reason, self.work(op, outcome), csv_bytes)

    @staticmethod
    def work(op, outcome) -> int:
        """Grid points of a verify or sample op; for theta, the box terms
        (``workloads.box_terms``) of each value the op printed: theta(z), and
        for a shift op that printed its defect, theta(z + Bm) and theta(z) again.
        """
        if op.family != "theta":
            return op.points
        lines = outcome.stdout.splitlines()
        work = op.params["terms"] if lines and lines[0].startswith("theta = ") else 0
        if len(lines) > 1 and lines[1].startswith("quasi_periodicity_defect = "):
            work += op.params["terms"] + op.params["shift_terms"]
        return work

    def timed(self, seconds: float) -> tuple:
        """Closed loop over the seeded op stream, in whole input cycles, until
        the ops' nominal seconds (``Op.cost``, known from the input alone) add
        up to `seconds`.

        A budget of nominal time rather than a deadline ends the run, so a seed
        attempts the same ops, and the known defects fail the same ones, on
        every run and every host.  After each op, the reference kernel runs
        once per REF_EVERY seconds of op time owed, so its samples cover the
        run in proportion to the ops.  Each record gets the reference time of the
        bursts just before and just after it.  The ``size.setup_repeats``
        fresh-interpreter samples (``cli_process``) are taken after the
        bursts, spread evenly over the ops so that they see the same host load
        as the ops.  An evenly spread ``size.memory_samples`` of them also run
        an op already done, drawn uniformly by index so that long ops are not
        favoured, for its peak RSS.  Returns (records, [``cli_process``
        results]).
        """
        records, bursts, setup = [], [self._burst(REF_EVERY)], []
        owed, first = 0.0, 0
        spent, cycle = 0.0, CYCLE[self.workload]
        repeats = self.size.setup_repeats
        memory = self.size.memory_samples[self.workload]
        pick = random.Random(f"{self.seed}:cli-process")

        def sample():
            ran = sum(m is not None for _, _, m in setup)
            runs_op = ran < memory * (len(setup) + 1) / repeats
            op = records[pick.randrange(len(records))].op if runs_op else None
            setup.append(cli_process(op.argv if op else []))

        def close_burst(owed):
            nonlocal first
            bursts.append(self._burst(owed))
            ref_s = statistics.mean(bursts[-2] + bursts[-1])
            for r in records[first:]:
                r.ref_s = ref_s
            first = len(records)

        while not records or len(records) % cycle or spent < seconds:
            op = next(self.ops)
            spent += op.cost
            records.append(self.run_op(op))
            owed += records[-1].seconds
            if owed >= REF_EVERY:
                close_burst(owed)
                owed = 0.0
                if len(setup) < min(repeats, repeats * spent / seconds):
                    sample()
        if first < len(records):
            close_burst(max(owed, REF_EVERY))
        while len(setup) < repeats:
            sample()
        return records, setup

    @staticmethod
    def _burst(owed: float) -> list:
        out = []
        for _ in range(max(1, round(owed / REF_EVERY))):
            t0 = time.perf_counter()
            reference_kernel()
            out.append(time.perf_counter() - t0)
        return out


# ---------------------------------------------------------------- metrics

def tail(times: list):
    """(percentile, seconds) at the highest percentile with >= 10 ops beyond it."""
    n = len(times)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(p * n / 100.0)
        if n - rank >= 10:
            return p, sorted(times)[rank - 1]
    return None, None


def stratum(op) -> tuple:
    """The kind of an op: its family, and for theta its genus and whether it shifts."""
    return op.family, op.params.get("genus"), bool(op.params.get("shift"))


def work_per_ref(records: list) -> float:
    """Geometric mean, over the kinds of op in the run, of work per reference time.

    Within a kind, work over time is total work over total time.  Taking the
    kinds apart keeps the theta figure from resting on the few genus-4 shift
    ops of a run, which sum up to 4 million lattice terms each and whose cost
    per term moves by tens of percent with memory traffic; each kind of
    evaluation weighs the same from run to run.
    """
    work, spent = {}, {}
    for r in records:
        k = stratum(r.op)
        work[k] = work.get(k, 0) + r.work
        spent[k] = spent.get(k, 0.0) + r.seconds / r.ref_s
    return math.prod(work[k] / spent[k] for k in work) ** (1.0 / len(work))


def op_p50_ref(records: list) -> float:
    """Median op in reference time: the median within each kind of op, then
    their geometric mean weighted by the kind's share of the ops.

    A plain median of sample's alternating spectral and cone ops would fall in
    the gap between the two kinds' times and jump with the fastest and
    slowest op of either.
    """
    times = {}
    for r in records:
        times.setdefault(stratum(r.op), []).append(r.seconds / r.ref_s)
    return math.exp(sum(len(t) * math.log(statistics.median(t)) for t in times.values())
                    / len(records))


def end_to_end(records: list, setup: list, loop_rss_mb: float) -> dict:
    """Gated metrics use the reference kernel as their clock.

    On a shared host the CPU's speed drifts by tens of percent within seconds.
    Each op's wall time is divided by the mean reference-kernel time of the
    bursts run just before and just after it, which cancels that drift.  The
    plain wall-clock figures are reported beside them.  `setup_s` and
    `peak_rss_mb` are medians over the fresh-interpreter samples: a CLI user
    pays the import and sees the peak RSS of one call in its own process
    (the loop's own peak, `loop_rss_mb`, also holds whatever the program
    cached over earlier calls).  `setup_s` is the program's own import,
    `import mlsurf.cli` once numpy is loaded: the interpreter's start and
    numpy's import before it (in `setup_wall_s`) are not the program's
    work, and on a shared 2-core VM numpy's import alone moved by 1.7x
    between back-to-back batches of samples.
    """
    times = [r.seconds for r in records]
    points = sum(r.op.points for r in records)
    n = len(records)
    rss = [m for _, _, m in setup if m is not None]
    return {
        "setup_s": (statistics.median(own for _, own, _ in setup), "s", len(setup)),
        "setup_wall_s": (statistics.median(s for s, _, _ in setup), "s", len(setup)),
        "work_per_ref": (work_per_ref(records), "1/ref", n),
        "op_p50_ref": (op_p50_ref(records), "ref", n),
        "peak_rss_mb": (statistics.median(rss), "MB", len(rss)),
        "points_per_s": (points / sum(times), "1/s", n),
        "ops_per_s": (n / sum(times), "1/s", n),
        "op_p50_s": (statistics.median(times), "s", n),
        "ref_s": (statistics.median(r.ref_s for r in records), "s", n),
        "loop_rss_mb": (loop_rss_mb, "MB", 1),
    }


def per_layer(tracer, traced: list, untraced: list) -> tuple:
    """(per-layer metrics, per-function stats) of one traced replay.

    Counts are per op (or per grid point), times are shares of the traced ops'
    wall time, so a layer the workload never enters reads 0.
    """
    stats = tracing.function_stats(tracer)
    n_ops = len(traced)
    busy = sum(r.seconds for r in traced)
    points = sum(r.op.points for r in traced if r.op.family != "theta")
    out = {}
    for name in LAYER_FUNCTIONS:
        s = stats[name]
        out[f"{name}.calls"] = (s["calls"] / n_ops, "1/op", n_ops)
        out[f"{name}.raised"] = (s["raised"] / n_ops, "1/op", n_ops)
        out[f"{name}.self_frac"] = (s["self_s"] / busy, "frac", n_ops)

    jet_points = [(tracer.op[s], name, xy) for name in tracing.JETS
                  for s, xy in tracing.probe_values(tracer, name)]
    out["surface_families.jets_per_point"] = (
        len(jet_points) / points if points else 0.0, "1/pt", n_ops)
    out["surface_families.jet_unique_frac"] = (
        len(set(jet_points)) / len(jet_points) if jet_points else 0.0, "frac", n_ops)

    tube = [v for _, v in tracing.probe_values(tracer, "surface_families.in_degeneracy_tube")]
    out["report.excluded_frac"] = (sum(tube) / len(tube) if tube else 0.0, "frac", len(tube))
    out["report.csv_bytes"] = (sum(r.csv_bytes for r in traced) / n_ops, "B/op", n_ops)

    spans = tracer.arrays()
    ok_theta = set(np.flatnonzero((spans["fid"] == tracer.names.index("theta.riemann_theta"))
                                  & (spans["raised"] == 0)).tolist())
    terms = [v for s, v in tracing.probe_values(tracer, "theta.default_radius")
             if tracer.parent[s] in ok_theta]
    out["theta.terms_per_eval"] = (sum(terms) / len(ok_theta) if ok_theta else 0.0,
                                   "1/eval", len(ok_theta))
    out["tracing_overhead_frac"] = (busy / sum(r.seconds for r in untraced) - 1.0, "frac", n_ops)
    return out, stats


# ---------------------------------------------------------------- provenance

def provenance(seed: int, workload: str, size) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    import mlsurf
    return {
        "workload": workload, "seed": seed, "size": asdict(size),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "mlsurf": getattr(mlsurf, "__version__", None), "git_commit": commit,
        "env": {k: os.environ.get(k) for k in THREAD_ENV},
        "src_lines": src_lines, "argv": sys.argv,
    }


# ---------------------------------------------------------------- entry point

def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  size=FULL, corrupt=None) -> dict:
    """Run one workload; returns the full result record."""
    cli = load_cli()
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK)
    try:
        runner = Runner(cli, workload, seed, size, workdir, corrupt)
        if trace:
            # each op first runs once to warm the program's caches (theta
            # keeps its lattices), then untraced and traced back to back, the
            # order alternating within each kind of op, so the overhead
            # compares the two under the same host load and cache state
            tracer = runner.tracer = tracing.Tracer()
            untraced, traced, seen = [], [], {}
            for _ in range(size.traced_ops[workload]):
                op = next(runner.ops)
                runner.call(op)
                seen[stratum(op)] = n = seen.get(stratum(op), 0) + 1
                for traced_now in ((False, True) if n % 2 else (True, False)):
                    if traced_now:
                        with tracer.installed():
                            traced.append(runner.run_op(op))
                    else:
                        untraced.append(runner.run_op(op))
            metrics, stats = per_layer(tracer, traced, untraced)
            records = untraced + traced
            tracer.write(WORK / f"spans-{workload}-seed{seed}.npz")
        else:
            records, setup = runner.timed(seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics, stats = end_to_end(records, setup, rss_mb), None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in records if r.verdict != "ok"]
    reasons = {}
    for r in failed:
        key = f"{r.verdict}: {r.reason}"
        reasons[key] = reasons.get(key, 0) + 1
    times = [r.seconds for r in records]
    p, t = tail(times)
    result = {
        "provenance": provenance(seed, workload, size),
        "correct": not any(r.verdict == "fail" for r in records),
        "attempted": len(records),
        "failed": len(failed),
        "ops_failed_frac": len(failed) / len(records),
        "failure_reasons": reasons,
        "op_tail_s": None if p is None else {"percentile": p, "value": t, "ops": len(times)},
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "functions": stats,
        "ops": [[r.op.index, r.op.family, r.seconds, r.ref_s, r.work, r.verdict]
                for r in records],
    }
    name = f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    (WORK / name).write_text(json.dumps(result, indent=1) + "\n")
    return result


def declared_metrics(trace: bool) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def summary_line(result: dict, trace: bool) -> dict:
    """The last output line: exactly the BENCHMARK.json metrics, with their units."""
    metrics = {}
    for m in declared_metrics(trace):
        got = result["metrics"][m["name"]]
        if got["unit"] != m["unit"]:
            raise ValueError(f"{m['name']}: unit {got['unit']} != declared {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    line = summary_line(result, bool(args.trace))
    prov = result["provenance"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={prov['nproc']} python={prov['python']} numpy={prov['numpy']} "
          f"commit={prov['git_commit']} src_lines={prov['src_lines']} env={prov['env']}")
    print(f"  ops attempted={result['attempted']} failed={result['failed']} "
          f"ops_failed_frac={result['ops_failed_frac']:.4f} correct={result['correct']}")
    for reason, count in sorted(result["failure_reasons"].items()):
        print(f"    {count:6d}  {reason}")
    for name in (line["metrics"] if args.trace else result["metrics"]):
        m = result["metrics"][name]
        print(f"  {name:<48} {m['value']:<22.10g} {m['unit']:<6} n={m['samples']}")
    if result["op_tail_s"] and not args.trace:
        t = result["op_tail_s"]
        print(f"  {'op_tail_s (p' + format(t['percentile'], 'g') + ')':<48} "
              f"{t['value']:<22.10g} s      n={t['ops']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
