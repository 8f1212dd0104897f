"""Seeded inputs for the four benchmark workloads.

Every op is one ``mlsurf`` command line plus the facts its oracle needs.  The
op stream of a workload is a pure function of the seed: the same seed gives
the same argv lists and the same input files.  No input is dropped because the
program fails on it today; the failures that are known are named in
``oracles.py``.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("verify-spectral", "verify-cone", "sample", "theta")


@dataclass(frozen=True)
class Size:
    """How big one op is, and how many ops a traced run replays."""

    verify_grid: int = 16
    sample_grid: int = 64
    genera: tuple = (2, 3, 4)
    theta_pool: int = 64        # distinct (B, z) inputs per genus
    # nominal seconds of one verify or sample op (2-core VM): a timed run does
    # ops until their nominal seconds add up to --seconds (see Op.cost)
    op_seconds: dict = field(default_factory=lambda: {
        "verify-spectral": 0.225, "verify-cone": 0.21, "sample": 0.46})
    traced_ops: dict = field(default_factory=lambda: {
        "verify-spectral": 8, "verify-cone": 16, "sample": 4, "theta": 240})
    setup_repeats: int = 15     # fresh interpreters timed for setup_s per run
    # how many of them also run an op, for peak_rss_mb: verify and sample ops
    # all use about the same memory, theta ops do not
    memory_samples: dict = field(default_factory=lambda: {
        "verify-spectral": 3, "verify-cone": 3, "sample": 3, "theta": 9})


FULL = Size()
TOY = Size(verify_grid=4, sample_grid=4, genera=(2,), theta_pool=4,
           op_seconds=dict.fromkeys(WORKLOADS, 1.0),
           traced_ops={"verify-spectral": 2, "verify-cone": 2, "sample": 2, "theta": 16},
           setup_repeats=1, memory_samples=dict.fromkeys(WORKLOADS, 1))

# Ops are completed in whole cycles so every run has the same input mix:
# verify-cone visits all 16 orders, sample alternates spectral and cone,
# theta cycles genus (3) and shift (8).
CYCLE = {"verify-spectral": 1, "verify-cone": 16, "sample": 2, "theta": 24}
CONE_ORDERS = [(m, n) for m in range(1, 5) for n in range(1, 5)]

# nominal seconds of a theta op: CLI call plus summed lattice terms (2-core VM)
THETA_CALL_S = 2.5e-3
THETA_TERM_S = 7e-7
TERM_CAP = 4_000_000            # the program's default lattice term cap


@dataclass
class Op:
    index: int
    argv: list
    points: int                 # grid points, or 1 theta evaluation point
    family: str                 # spectral | cone | theta
    params: dict
    out_path: str | None = None
    cost: float = 0.0           # nominal seconds, from the input alone


def _num(v: float) -> str:
    return repr(float(v))


def _spectral_params(rng: random.Random) -> dict:
    """a, b in [0.5, 2]; |q1| - b in [0.3, 2]; |gamma_im| in [0.3, 2]; random signs."""
    a = rng.uniform(0.5, 2.0)
    b = rng.uniform(0.5, 2.0)
    q1 = (b + rng.uniform(0.3, 2.0)) * rng.choice((-1.0, 1.0))
    gamma_im = rng.uniform(0.3, 2.0) * rng.choice((-1.0, 1.0))
    return {"a": a, "b": b, "q1": q1, "gamma_im": gamma_im}


def _family_argv(family: str, params: dict) -> list:
    if family == "spectral":
        return ["--family", "spectral", f"--a={_num(params['a'])}",
                f"--b={_num(params['b'])}", f"--q1={_num(params['q1'])}",
                f"--gamma-im={_num(params['gamma_im'])}"]
    return ["--family", "cone", f"--m={params['m']}", f"--n={params['n']}"]


def _verify_ops(seed: int, workdir: str, size: Size, family: str):
    rng = random.Random(f"{seed}:verify-{family}")
    grid = f"{size.verify_grid}x{size.verify_grid}"
    orders = []
    i = 0
    while True:
        if family == "spectral":
            # the worked example first, then seeded valid parameters
            params = ({"a": 1.0, "b": 1.0, "q1": 2.0, "gamma_im": 1.0} if i == 0
                      else _spectral_params(rng))
        else:
            # each cycle takes every order 1 <= m, n <= 4 once, in seeded order
            if not orders:
                orders = rng.sample(CONE_ORDERS, len(CONE_ORDERS))
            m, n = orders.pop()
            params = {"m": m, "n": n}
        out = os.path.join(workdir, "verify.json")
        argv = (["verify"] + _family_argv(family, params)
                + [f"--grid={grid}", "--tol-profile=strict", f"--json-out={out}"])
        yield Op(i, argv, size.verify_grid ** 2, family, params, out,
                 size.op_seconds[f"verify-{family}"])
        i += 1


def _sample_ops(seed: int, workdir: str, size: Size):
    rng = random.Random(f"{seed}:sample")
    grid = f"{size.sample_grid}x{size.sample_grid}"
    i = 0
    while True:
        if i % 2 == 0:
            family, params = "spectral", _spectral_params(rng)
        else:
            family, params = "cone", {"m": rng.randint(1, 4), "n": rng.randint(1, 4)}
        out = os.path.join(workdir, "sample.csv")
        argv = ["sample"] + _family_argv(family, params) + [f"--grid={grid}", f"--out={out}"]
        yield Op(i, argv, size.sample_grid ** 2, family, params, out, size.op_seconds["sample"])
        i += 1


def _complex_text(v: complex) -> str:
    return f"{v.real!r}{v.imag:+}j"


def period_matrix(rng: random.Random, g: int) -> list:
    """Symmetric B = X + iY with X entries in [-0.5, 0.5] and Y = 0.8 I + A A^T.

    A is a seeded g x g matrix of standard normal entries, so Im B is positive
    definite with smallest eigenvalue >= 0.8 and a spectrum that varies from
    input to input.  Shifting z by B e_k moves Im z by the k-th column of Y,
    which sends the theta radius down the large-|Im z| path: a genus-4 shift
    op often needs more lattice terms than the program's cap, and a genus-2
    or genus-3 one can lose precision (see oracles.py).
    """
    A = [[rng.gauss(0.0, 1.0) for _ in range(g)] for _ in range(g)]
    B = [[0j] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            y = sum(A[i][k] * A[j][k] for k in range(g)) + (0.8 if i == j else 0.0)
            B[i][j] = B[j][i] = complex(rng.uniform(-0.5, 0.5), y)
    return B


def box_terms(B, z) -> int:
    """Lattice terms (2R+1)^g in the summation box the seed program picks for theta(z).

    Same rule as the program's automatic radius (largest neglected term below
    1e-14), computed here from the input alone so that it stays a fixed
    measure of an evaluation's size when the program's algorithm changes.
    """
    g = len(z)
    lam = float(np.linalg.eigvalsh(np.array(B, dtype=complex).imag)[0])
    imz = max(abs(v.imag) for v in z)
    tail = 14.0 * math.log(10.0)
    lin = 2.0 * math.pi * imz * g
    radius = max(1, math.ceil((lin + math.sqrt(lin * lin + 4.0 * math.pi * lam * tail))
                              / (2.0 * math.pi * lam)))
    return (2 * radius + 1) ** g


def theta_pool(seed: int, workdir: str, size: Size) -> dict:
    """genus -> list of (period-file path, B, z); z has |Re z| <= 0.5, |Im z| <= 0.3."""
    rng = random.Random(f"{seed}:theta-pool")
    pool = {}
    for g in size.genera:
        entries = []
        for k in range(size.theta_pool):
            B = period_matrix(rng, g)
            z = [complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3)) for _ in range(g)]
            path = os.path.join(workdir, f"pm-g{g}-{k}.txt")
            with open(path, "w") as fh:
                fh.write(f"{g}\n")
                for row in B:
                    fh.write(" ".join(_complex_text(v) for v in row) + "\n")
            entries.append((path, B, z))
        pool[g] = entries
    return pool


def stratified_walk(sizes: list) -> list:
    """Indices of `sizes` (a power-of-two count) sorted by size, then visited in
    bit-reversed order, so every stretch of 2^k consecutive visits takes one
    input from each of 2^k equal size bands.  Theta op cost spans three orders
    of magnitude from input to input; this walk makes any part of the stream
    carry the pool's mix of small and large evaluations without dropping any.
    """
    n = len(sizes)
    bits = n.bit_length() - 1
    if n != 1 << bits:
        raise ValueError(f"pool size {n} is not a power of two")
    by_size = sorted(range(n), key=lambda k: (sizes[k], k))
    return [by_size[int(format(t, f"0{bits}b")[::-1], 2)] for t in range(n)]


def _theta_ops(seed: int, pool: dict, size: Size):
    rng = random.Random(f"{seed}:theta-ops")
    genera = size.genera
    plain, shifted = {}, {}
    for g in genera:
        entries = pool[g]
        terms = [box_terms(B, z) for _, B, z in entries]
        # one seeded unit vector e_j per input for its shift ops
        shifts = [[int(i == j) for i in range(g)] for j in (rng.randrange(g) for _ in entries)]
        shift_terms = [box_terms(B, np.asarray(z) + np.asarray(B) @ np.asarray(m))
                       for (_, B, z), m in zip(entries, shifts)]
        plain[g] = [(k, terms[k], None, None) for k in stratified_walk(terms)]
        shifted[g] = [(k, terms[k], shifts[k], shift_terms[k])
                      for k in stratified_walk(shift_terms)]
    visits = {g: [0, 0] for g in genera}
    i = 0
    while True:
        g = genera[i % len(genera)]
        is_shift = i % 8 == 7  # one op in eight checks quasi-periodicity along e_j
        walk = shifted[g] if is_shift else plain[g]
        k, terms, shift, shift_terms = walk[visits[g][is_shift] % len(walk)]
        visits[g][is_shift] += 1
        path, _, z = pool[g][k]
        argv = ["theta", f"--period-file={path}",
                "--z=" + ",".join(_complex_text(v) for v in z)]
        params = {"genus": g, "entry": k, "shift": shift, "terms": terms}
        summed = terms
        if shift is not None:
            argv.append("--shift-m=" + ",".join(map(str, shift)))
            params["shift_terms"] = shift_terms
            # theta(z + Bm) and theta(z) again, unless z + Bm is over the cap
            summed += terms + shift_terms if shift_terms <= TERM_CAP else 0
        yield Op(i, argv, 1, "theta", params, cost=THETA_CALL_S + THETA_TERM_S * summed)
        i += 1


def make_ops(workload: str, seed: int, workdir: str, size: Size = FULL):
    """(infinite op iterator, theta pool or None) for one workload and seed."""
    if workload == "verify-spectral":
        return _verify_ops(seed, workdir, size, "spectral"), None
    if workload == "verify-cone":
        return _verify_ops(seed, workdir, size, "cone"), None
    if workload == "sample":
        return _sample_ops(seed, workdir, size), None
    if workload == "theta":
        pool = theta_pool(seed, workdir, size)
        return _theta_ops(seed, pool, size), pool
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def grid_xs(n: int) -> list:
    """Grid coordinates as the CLI documents them: 2 pi k / n, k = 0 .. n-1."""
    return [2.0 * math.pi * k / n for k in range(n)]
