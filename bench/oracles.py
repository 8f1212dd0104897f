"""Output oracles: one check per op, run outside the timed region.

An op's verdict is one of

* ``ok``     the output is right;
* ``known``  the op failed with the exact symptom of a named known defect
             (counted as failed, but it does not make the run incorrect);
* ``fail``   anything else: a raise, an unexpected exit code or a wrong output.

Known defects (see README.md):

* ``cone-frame-fd``: cone orders with m + n >= 4 exit 1 because only
  ``frame_B_trace`` exceeds 1e-6 at the default h (central-difference
  truncation grows with the y-frequency).
* ``spectral-tube-G``: for some valid spectral parameters (b and |gamma_im|
  near 2, for instance) G inside the degeneracy tube reaches about 1.1e-3, so
  ``tube_G_bound`` (a fixed 1e-3, not scaled with the surface) FAILs and the
  op exits 1 with every other check passing.  Rare: 1 to 2 ops in 1000.
  Known only while the value stays below 2e-3.
* ``theta-shift-cap``: a ``--shift-m`` op exits 2 on the lattice term cap.
  Known only when the box the seed program picks for z + Bm
  (``workloads.box_terms``) really exceeds the cap: the radius explodes with
  |Im z|.  About 4 genus-4 shift ops in 5 and 1 genus-3 shift op in 90.
* ``theta-shift-roundoff``: a ``--shift-m`` op prints a quasi-periodicity
  defect above 1e-10.  theta(z + Bm) is as large as the quasi-periodicity
  factor, exp(pi Y_jj + 2 pi Im z_j) with Y = Im B, so double-precision
  roundoff in its terms leaves an error of a few eps times that factor: the
  defect grows with Y_jj, from 1e-10 to above 1e13 on these inputs, mostly
  at genus 2 and 3 (the genus-3 case 0.19 is one of them).  Known only while
  the defect stays within ROUNDOFF_ENVELOPE * eps * factor.
* In both theta cases the printed theta(z) must still be right.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass

import numpy as np

from workloads import TERM_CAP

_GRAM = ["gram_norm", "gram_phi_phix", "gram_phi_phiy", "gram_phix_phiy"]
_METRIC = ["metric_E_closed_form", "metric_G_closed_form"]
_ANGLE = (["beta_constant", "christoffel_b11", "christoffel_b12", "christoffel_b22",
           "gradient_identity_x", "gradient_identity_y", "minimality_im_x", "minimality_im_y"]
          + ["frame_" + n for n in ("unitarity", "det_unit", "A_antiherm", "B_antiherm",
                                    "A_trace", "B_trace", "A_pattern", "B_pattern",
                                    "f_real", "h_real")])
# check names of the --json-out report, as the seed commit writes them
SPECTRAL_CHECKS = frozenset(
    _GRAM + _METRIC + [f"residue_identity_{k}" for k in range(1, 7)]
    + ["beta_e2i_plus_one"] + _ANGLE + ["curvature_K_minus_1"]
    + ["curve_regularity", "curve_w2_P1_rel", "curve_w2_P2_rel", "curve_Q_sum",
       "curve_residues_positive"])
SPECTRAL_OPTIONAL = frozenset({"tube_G_bound"})  # present when a grid point is in the tube
CONE_CHECKS = frozenset(_GRAM + _METRIC + _ANGLE + ["metric_anisotropy"])

CSV_HEADER = ["x", "y", "re_phi1", "im_phi1", "re_phi2", "im_phi2",
              "re_phi3", "im_phi3", "E", "G", "beta", "K"]
TUBE_RADIUS = 1e-2
SAMPLE_ROWS_CHECKED = 16
THETA_RTOL = 1e-12
THETA_DEFECT_TOL = 1e-10
ROUNDOFF_ENVELOPE = 256.0       # defect / (eps * factor) was at most 32 over 6900 shift inputs
TUBE_G_KNOWN = 2e-3             # largest observed tube_G_bound value was about 1.1e-3


@dataclass
class Outcome:
    """What one CLI call returned: exit code (None if it raised), captured text."""

    code: int | None
    stdout: str
    stderr: str
    error: str | None = None


def _verdict(ok: bool, reason: str, known: str | None = None) -> tuple:
    if ok:
        return "ok", ""
    return ("known", known) if known else ("fail", reason)


# ---------------------------------------------------------------- verify

def check_verify(op, out: Outcome) -> tuple:
    if out.code not in (0, 1):
        return "fail", f"exit {out.code}: {out.error or out.stderr.strip()[:200]}"
    try:
        with open(op.out_path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return "fail", f"json-out unreadable: {exc}"
    names = [c["name"] for c in doc["checks"]]
    expected = SPECTRAL_CHECKS if op.family == "spectral" else CONE_CHECKS
    optional = SPECTRAL_OPTIONAL if op.family == "spectral" else frozenset()
    if len(set(names)) != len(names) or not expected <= set(names) <= expected | optional:
        return "fail", f"check names differ: {sorted(set(names) ^ expected)}"
    values = [c["max_defect"] for c in doc["checks"]]
    if any(not isinstance(v, (int, float)) or math.isnan(v) for v in values):
        return "fail", "a check value is NaN"
    if doc["grid"]["nx"] * doc["grid"]["ny"] != op.points:
        return "fail", f"grid {doc['grid']} does not match the op"
    if doc["parameters"] != op.params:
        return "fail", f"parameters {doc['parameters']} do not match {op.params}"
    failed = sorted(c["name"] for c in doc["checks"] if not c["passed"])
    if out.code != (0 if doc["overall"] else 1):
        return "fail", f"exit {out.code} disagrees with overall={doc['overall']}"
    if doc["overall"]:
        return "ok", ""
    known = None
    if op.family == "cone" and op.params["m"] + op.params["n"] >= 4 \
            and failed == ["frame_B_trace"]:
        known = "cone-frame-fd"
    elif op.family == "spectral" and failed == ["tube_G_bound"] \
            and dict(zip(names, values))["tube_G_bound"] < TUBE_G_KNOWN:
        known = "spectral-tube-G"
    return _verdict(False, f"FAIL on a valid surface: {failed}", known)


# ---------------------------------------------------------------- sample

def _degeneracy_angle(p: dict) -> float:
    return math.atan2(-p["b"], p["gamma_im"]) % math.pi


def _in_tube(p: dict, x: float, y: float) -> bool:
    theta = p["a"] * x - p["b"] * y
    return abs(math.remainder(theta - _degeneracy_angle(p), math.pi)) < TUBE_RADIUS


def _reference_jet(op):
    from mlsurf.spectral_curve import derive_constants
    from mlsurf.surface_families import cone_family_jet, spectral_family_jet
    if op.family == "spectral":
        p = op.params
        curve = derive_constants(p["a"], p["b"], p["q1"], p["gamma_im"])
        return lambda x, y: spectral_family_jet(curve, x, y)
    return lambda x, y: cone_family_jet(op.params["m"], op.params["n"], x, y)


def check_sample(op, out: Outcome, grid: int, xs: list, seed: int) -> tuple:
    if out.code != 0:
        return "fail", f"exit {out.code}: {out.error or out.stderr.strip()[:200]}"
    n_rows = grid * grid
    rng = random.Random(f"{seed}:sample-rows:{op.index}")
    spot = {rng.randrange(n_rows) for _ in range(SAMPLE_ROWS_CHECKED)}
    jet = _reference_jet(op)
    spectral = op.family == "spectral"
    try:
        with open(op.out_path, newline="") as fh:
            reader = csv.reader(fh)
            if next(reader) != CSV_HEADER:
                return "fail", "CSV header differs"
            count = 0
            for r, row in enumerate(reader):
                count += 1
                if len(row) != len(CSV_HEADER):
                    return "fail", f"row {r} has {len(row)} fields"
                vals = [float(v) for v in row[:10]]
                if not all(map(math.isfinite, vals)):
                    return "fail", f"row {r} has a non-finite value"
                x, y = vals[0], vals[1]
                if x != xs[r % grid] or y != xs[r // grid]:
                    return "fail", f"row {r} is not grid point ({r % grid}, {r // grid})"
                tube = spectral and _in_tube(op.params, x, y)
                for col, text in (("beta", row[10]), ("K", row[11])):
                    if (text == "") != tube:
                        return "fail", f"row {r}: {col} {'empty' if text == '' else 'set'} " \
                                       f"{'outside' if text == '' else 'inside'} the tube"
                    if text and not math.isfinite(float(text)):
                        return "fail", f"row {r}: {col} is not finite"
                if spectral and row[11] and abs(float(row[11]) - 1.0) > 1e-4:
                    return "fail", f"row {r}: K = {row[11]} is not 1"
                if r in spot:
                    phi = jet(x, y).phi
                    ref = [v for c in phi for v in (float(c.real), float(c.imag))]
                    if vals[2:8] != ref:
                        return "fail", f"row {r}: phi differs from the family jet"
    except (OSError, ValueError, StopIteration) as exc:
        return "fail", f"CSV unreadable: {exc}"
    if count != n_rows:
        return "fail", f"{count} rows, expected {n_rows}"
    return "ok", ""


# ---------------------------------------------------------------- theta

def theta_reference(B, z, digits: int = 20) -> complex:
    """theta(z) = sum_m exp(pi i m.B.m + 2 pi i m.z) in 30-digit mpmath arithmetic.

    Every lattice vector whose term can exceed 10^-(digits+2) is summed: the
    box radius uses the same tail bound as the program with ``digits`` in
    place of 14, and inside it the exact term magnitude prunes the rest.
    """
    import mpmath as mp
    B = np.array(B, dtype=complex)
    z = np.array(z, dtype=complex)
    g = len(z)
    Y = B.imag
    lam = float(np.linalg.eigvalsh(Y)[0])
    imz = float(np.max(np.abs(z.imag)))
    tail = digits * math.log(10.0)
    lin = 2.0 * math.pi * imz * g
    R = math.ceil((lin + math.sqrt(lin * lin + 4.0 * math.pi * lam * tail))
                  / (2.0 * math.pi * lam)) + 1
    axis = np.arange(-R, R + 1)
    M = np.stack(np.meshgrid(*([axis] * g), indexing="ij"), axis=-1).reshape(-1, g)
    log_mag = -math.pi * np.einsum("ni,ij,nj->n", M, Y, M) - 2.0 * math.pi * (M @ z.imag)
    M = M[log_mag > -tail - 5.0]
    with mp.workdps(30):
        Bm = [[mp.mpc(v.real, v.imag) for v in row] for row in B]
        zm = [mp.mpc(v.real, v.imag) for v in z]
        terms = []
        for m in M.tolist():
            quad = mp.fsum(m[i] * m[j] * Bm[i][j] for i in range(g) for j in range(g))
            lin_t = mp.fsum(m[i] * zm[i] for i in range(g))
            terms.append(mp.exp(1j * mp.pi * quad + 2j * mp.pi * lin_t))
        total = mp.fsum(terms)
        return complex(total)


def check_theta(op, out: Outcome, reference: complex, B, z) -> tuple:
    lines = out.stdout.splitlines()
    if not lines or not lines[0].startswith("theta = "):
        return "fail", f"exit {out.code}, no theta line: {out.error or out.stderr.strip()[:200]}"
    try:
        value = complex(lines[0][len("theta = "):])
    except ValueError:
        return "fail", f"unparsable theta line {lines[0]!r}"
    if not abs(value - reference) <= THETA_RTOL * (1.0 + abs(reference)):
        return "fail", f"theta {value} differs from reference {reference}"
    shift = op.params["shift"]
    if shift is None:
        return _verdict(out.code == 0 and len(lines) == 1, f"exit {out.code}")
    if out.code == 2 and "terms (cap" in out.stderr:
        return _verdict(False, f"term cap hit with {op.params['shift_terms']} box terms",
                        "theta-shift-cap" if op.params["shift_terms"] > TERM_CAP else None)
    if out.code != 0 or len(lines) != 2 or not lines[1].startswith("quasi_periodicity_defect = "):
        return "fail", f"exit {out.code}, shift op output {lines!r}"
    defect = float(lines[1].split("=")[1])
    if defect <= THETA_DEFECT_TOL:
        return "ok", ""
    j = shift.index(1)
    log_factor = math.pi * B[j][j].imag + 2.0 * math.pi * z[j].imag
    envelope = ROUNDOFF_ENVELOPE * 2.0 ** -52 * math.exp(log_factor)
    return _verdict(False, f"defect {defect} (roundoff envelope {envelope:.3g})",
                    "theta-shift-roundoff" if defect <= envelope else None)
