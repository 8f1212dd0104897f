"""Grid-scale verification runs, report records and CSV sampling."""

import math
from typing import NamedTuple

import numpy as np

from .spectral_curve import ReducibleCurveData, expansion_at_infinity, gluing_defects
from .surface_families import Family, cone_family, spectral_family
from .sweep import (CHRISTOFFEL_NAMES, FRAME_NAMES, GRAM_NAMES, METRIC_NAMES,
                    RESIDUE_NAMES, check_maxima, sample_blocks)

TUBE_G_TOL = 1e-3

# tolerance tiers: analytic identities / derived identities / single-FD / curvature
TOL_ANALYTIC = 1e-10
TOL_IDENTITY = 1e-8
TOL_FRAME = 1e-6
TOL_CURVATURE = 1e-4
TOL_RESIDUE_IDENTITY = 1e-9
# the curve: residue cancellation at the gluing points, and the w^2 coefficient
# at each puncture relative to the w one
REGULARITY_TOL = 1e-13
W2_TOL = 1e-12

# (tolerance, kind) of each sweep check
_LIMITS = {
    **dict.fromkeys(GRAM_NAMES + METRIC_NAMES + ("beta_e2i_plus_one",), (TOL_ANALYTIC, "upper")),
    **dict.fromkeys(RESIDUE_NAMES, (TOL_RESIDUE_IDENTITY, "upper")),
    **dict.fromkeys(("beta_constant",) + CHRISTOFFEL_NAMES, (TOL_IDENTITY, "upper")),
    **dict.fromkeys(FRAME_NAMES, (TOL_FRAME, "upper")),
    "metric_anisotropy": (0.1, "lower"), "curvature_K_minus_1": (TOL_CURVATURE, "upper"),
    "tube_G_bound": (TUBE_G_TOL, "upper"),
}


MAX_GRID_POINTS = 2**63 - 1   # the sweep numbers the points with int64 indices


class GridSpec:
    """nx by ny points of the period square [0, 2 pi)^2, at most MAX_GRID_POINTS."""

    __slots__ = ("nx", "ny")

    def __init__(self, nx: int, ny: int):
        if nx < 1 or ny < 1:
            raise ValueError("grid must have at least one point per axis")
        if nx * ny > MAX_GRID_POINTS:
            raise ValueError(f"grid {nx}x{ny} has more than 2^63 - 1 points")
        self.nx, self.ny = nx, ny

    def points(self, idx: np.ndarray) -> tuple:
        """x = 2 pi (idx % nx) / nx and y = 2 pi (idx // nx) / ny of the points with
        report-order indices idx, rounded as the Python floats 2.0 * math.pi * k / n."""
        return (2.0 * math.pi * (idx % self.nx) / self.nx,
                2.0 * math.pi * (idx // self.nx) / self.ny)

    def to_dict(self) -> dict:
        period = [0.0, 2.0 * math.pi]
        return {"nx": self.nx, "ny": self.ny, "x_range": period, "y_range": period}


class CheckRecord(NamedTuple):
    """One verified identity: measured value against its pinned tolerance.

    kind "upper" passes when value <= tolerance (defect checks); kind "lower"
    passes when value > tolerance (nondegeneracy checks).
    """

    name: str
    value: float
    tolerance: float
    kind: str = "upper"
    excluded_points: int = 0

    @property
    def passed(self) -> bool:
        if math.isnan(self.value):
            return False
        if self.kind == "lower":
            return self.value > self.tolerance
        return self.value <= self.tolerance

    def to_dict(self) -> dict:
        return {"name": self.name, "max_defect": self.value,
                "tolerance": self.tolerance, "kind": self.kind,
                "excluded_points": self.excluded_points, "passed": self.passed}


class VerificationReport(NamedTuple):
    family: str
    parameters: dict
    grid: GridSpec
    h: float
    checks: list
    timings: dict   # seconds per sweep phase

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"family": self.family, "parameters": self.parameters,
                "grid": self.grid.to_dict(), "h": self.h, "tol_profile": "strict",  # one profile
                "checks": [c.to_dict() for c in self.checks],
                "overall": self.overall, "timings": self.timings}

    def write_json(self, fh) -> None:
        import json  # here, not at the top: only verify --json-out pays for it
        # one write: json.dump makes thousands of small ones
        fh.write(json.dumps(self.to_dict(), indent=2) + "\n")

    def format_text(self) -> str:
        pars = " ".join(f"{k}={v}" for k, v in self.parameters.items())
        lines = [
            f"family={self.family} {pars} grid={self.grid.nx}x{self.grid.ny} "
            f"h={self.h:g} profile=strict",
            f"  {'check':<28} {'value':>12} {'tolerance':>10} {'excl':>5}  status",
        ]
        for c in self.checks:
            rel = "<=" if c.kind == "upper" else "> "
            lines.append(
                f"  {c.name:<28} {c.value:>12.3e} {rel}{c.tolerance:>8.1e} "
                f"{c.excluded_points:>5}  {'PASS' if c.passed else 'FAIL'}"
            )
        lines.append(f"overall: {'PASS' if self.overall else 'FAIL'}")
        return "\n".join(lines)


def verify(family: Family, grid: GridSpec, h: float = 1e-4) -> VerificationReport:
    """Run the family's check suite over the grid."""
    maxima, excluded, timings = check_maxima(family, grid, h)
    checks = [CheckRecord(name, float(value), *_LIMITS[name], excluded.get(name, 0))
              for name, value in maxima.items()]
    if family.curve is not None:
        checks += curve_checks(family.curve)
    return VerificationReport(family.name, family.parameters, grid, h, checks, timings)


def verify_spectral(curve: ReducibleCurveData, grid: GridSpec,
                    h: float = 1e-4) -> VerificationReport:
    """Run the full spectral-family check suite over the grid."""
    return verify(spectral_family(curve), grid, h)


def verify_cone(m: int, n: int, grid: GridSpec, h: float = 1e-4) -> VerificationReport:
    """Run the cone-family check suite over the grid."""
    return verify(cone_family(m, n), grid, h)


def curve_checks(curve: ReducibleCurveData) -> list:
    """Curve-level records: regularity, puncture expansions, residue signs."""
    c1, q1 = expansion_at_infinity(curve.omega1())
    c2, q2 = expansion_at_infinity(curve.omega2())
    return [
        CheckRecord("curve_regularity", max(gluing_defects(curve)), REGULARITY_TOL),
        CheckRecord("curve_w2_P1_rel", abs(q1) / abs(c1), W2_TOL),
        CheckRecord("curve_w2_P2_rel", abs(q2) / abs(c2), W2_TOL),
        CheckRecord("curve_Q_sum", abs(curve.Q1 + curve.Q2 + curve.Q3), 1e-13),
        CheckRecord("curve_residues_positive", min(curve.res_Q), 0.0, kind="lower"),
    ]


CSV_HEADER = ["x", "y", "re_phi1", "im_phi1", "re_phi2", "im_phi2",
              "re_phi3", "im_phi3", "E", "G", "beta", "K"]


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def sample_rows(family: Family, grid: GridSpec, h: float):
    """Yield the CSV text in sweep block order as lists of at most isqrt(nx * ny)
    lines (a square grid's row); beta and K are empty at excluded degenerate points.
    A block's distinct bit patterns are formatted once each (-0.0 and NaNs keep theirs)."""
    side = math.isqrt(grid.nx * grid.ny)
    for x, y, phi, E, G, beta, has_beta, K, has_K in sample_blocks(family, grid, h):
        cols = np.stack([x, y, *(p[:, i] for i in range(3) for p in (phi.real, phi.imag)),
                         E, G, beta, K], axis=1)
        bits, cell = np.unique(cols.view(np.uint64), return_inverse=True)
        # the floats come one at a time from a memoryview; .tolist() would hold them all
        text = np.array([*map("%.17g".__mod__, memoryview(bits.view(float))), ""], dtype=object)
        cell[~has_beta, 10] = cell[~has_K, 11] = len(bits)   # the "" of excluded cells
        del cols, bits
        for s in range(0, len(x), side):   # lines are held a piece, not a block, at a time
            yield [",".join(row) + "\r\n" for row in text[cell[s:s + side]].tolist()]


def write_csv(path, blocks) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        for lines in blocks:   # one write per piece: the text layer's cost is per call
            fh.write("".join(lines))


def curve_info_text(curve: ReducibleCurveData) -> str:
    """Human-readable dump of every derived curve constant."""
    _, q2 = expansion_at_infinity(curve.omega2())
    plus, minus = gluing_defects(curve)
    lines = [
        f"a        = {_fmt(curve.a)}",
        f"b        = {_fmt(curve.b)}",
        f"Q1       = {_fmt(curve.Q1)}",
        f"Q2       = {_fmt(curve.Q2)}",
        f"Q3       = {_fmt(curve.Q3)}",
        f"gamma    = {_fmt(curve.gamma_im)}j",
        f"c        = {_fmt(curve.c)}",
        f"d        = {_fmt(curve.d)}",
    ]
    for i in range(3):
        lines.append(f"alpha_{i + 1}  = {_fmt(curve.alpha[i])}")
    for i in range(3):
        lines.append(f"Res_Q{i + 1}   = {_fmt(curve.res_Q[i])}")
    lines += [
        f"Res_r    = {_fmt(curve.res_r)}",
        f"c1_exp   = {_fmt(curve.c1_exp)}",
        f"c2_exp   = {_fmt(curve.c2_exp)}",
        f"w2_coeff_P2      = {_fmt(abs(q2))}",
        f"regularity(+a,+b) = {_fmt(plus)}",
        f"regularity(-a,-b) = {_fmt(minus)}",
    ]
    return "\n".join(lines)
