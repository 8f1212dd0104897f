"""Grid-scale verification runs, report records and CSV sampling."""

import functools
import math
import numbers
from typing import NamedTuple

import numpy as np

from .diffgeo import STEP
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

# Every check in report order: (names, tolerance, kind, points read, families).  Points:
# "grid" all, "outside" the degeneracy tube (its points reported as excluded), "tube" its
# points alone (only where there are some), "curve" none.  README's Checks table has the claims.
CHECKS = (
    (GRAM_NAMES + METRIC_NAMES, TOL_ANALYTIC, "upper", "grid", ("spectral", "cone")),
    (RESIDUE_NAMES, TOL_RESIDUE_IDENTITY, "upper", "grid", ("spectral",)),
    (("beta_e2i_plus_one",), TOL_ANALYTIC, "upper", "outside", ("spectral",)),
    (("beta_constant",) + CHRISTOFFEL_NAMES, TOL_IDENTITY, "upper", "outside", ("spectral", "cone")),
    (FRAME_NAMES, TOL_FRAME, "upper", "outside", ("spectral", "cone")),
    (("metric_anisotropy",), 0.1, "lower", "outside", ("cone",)),
    (("curvature_K_minus_1",), TOL_CURVATURE, "upper", "outside", ("spectral",)),
    (("tube_G_bound",), TUBE_G_TOL, "upper", "tube", ("spectral",)),
    (("curve_regularity",), REGULARITY_TOL, "upper", "curve", ("spectral",)),
    (("curve_w2_P1_rel", "curve_w2_P2_rel"), W2_TOL, "upper", "curve", ("spectral",)),
    (("curve_Q_sum",), 1e-13, "upper", "curve", ("spectral",)),
    (("curve_residues_positive",), 0.0, "lower", "curve", ("spectral",)),
)


MAX_GRID_POINTS = 2**63 - 1   # the sweep numbers the points with int64 indices


class GridSpec:
    """nx by ny points of the period square [0, 2 pi)^2, at most MAX_GRID_POINTS."""

    __slots__ = ("nx", "ny")

    def __init__(self, nx: int, ny: int):
        if any(isinstance(n, bool) or not isinstance(n, numbers.Integral) for n in (nx, ny)):
            raise ValueError(f"grid sizes must be integers, got {nx!r} and {ny!r}")
        self.nx, self.ny = nx, ny = int(nx), int(ny)   # numpy ints wrap in nx * ny and fail json
        if nx < 1 or ny < 1:
            raise ValueError("grid must have at least one point per axis")
        if nx * ny > MAX_GRID_POINTS:
            raise ValueError(f"grid {nx}x{ny} has more than 2^63 - 1 points")

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

    Only a finite value passes: kind "upper" when value <= tolerance (defect
    checks), kind "lower" when value > tolerance (nondegeneracy checks).
    """

    name: str
    value: float
    tolerance: float
    kind: str = "upper"
    excluded_points: int = 0

    @property
    def passed(self) -> bool:
        if not math.isfinite(self.value):
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
    checks: list
    timings: dict   # seconds per sweep phase
    curve: ReducibleCurveData | None = None   # the spectral family's curve

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"family": self.family, "parameters": self.parameters,
                "grid": self.grid.to_dict(), "h": STEP, "tol_profile": "strict",  # one profile
                "checks": [c.to_dict() for c in self.checks],
                "overall": self.overall, "timings": self.timings,
                **({} if self.curve is None else {"curve": self.curve._asdict()})}

    def write_json(self, fh) -> None:
        import json  # here, not at the top: only verify --json-out pays for it
        # one compact line in one write: an indent selects json's pure-Python encoder, and
        # json.dump makes thousands of small writes
        fh.write(json.dumps(self.to_dict()) + "\n")

    def format_text(self) -> str:
        pars = " ".join(f"{k}={v}" for k, v in self.parameters.items())
        lines = [
            f"family={self.family} {pars} grid={self.grid.nx}x{self.grid.ny} "
            f"h={STEP:g} profile=strict",
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


def verify(family: Family, grid: GridSpec) -> VerificationReport:
    """Run the family's check suite over the grid."""
    maxima, tube_points, timings = check_maxima(family, grid)
    checks = _records(maxima, family.name, tube_points, ("grid", "outside", "tube"))
    if family.curve is not None:   # the curve rows close the table
        checks += curve_checks(family.curve)
    return VerificationReport(family.name, family.parameters, grid, checks, timings, family.curve)


def verify_spectral(curve: ReducibleCurveData, grid: GridSpec) -> VerificationReport:
    """Run the full spectral-family check suite over the grid."""
    return verify(spectral_family(curve), grid)


def verify_cone(m: int, n: int, grid: GridSpec) -> VerificationReport:
    """Run the cone-family check suite over the grid."""
    return verify(cone_family(m, n), grid)


def curve_checks(curve: ReducibleCurveData) -> list:
    """Curve-level records: regularity, puncture expansions, residue signs."""
    c1, q1 = expansion_at_infinity(curve.omega1())
    c2, q2 = expansion_at_infinity(curve.omega2())
    return _records({"curve_regularity": max(gluing_defects(curve)),
                     "curve_w2_P1_rel": abs(q1) / abs(c1), "curve_w2_P2_rel": abs(q2) / abs(c2),
                     "curve_Q_sum": abs(curve.Q1 + curve.Q2 + curve.Q3),
                     "curve_residues_positive": min(curve.res_Q)}, "spectral", 0, ("curve",))


def _records(values: dict, family: str, tube_points: int, points: tuple) -> list:
    """Records of family's CHECKS rows reading points, in table order; values holds their checks."""
    rows = [(name, tolerance, kind, tube_points if read == "outside" else 0)
            for names, tolerance, kind, read, families in CHECKS
            if family in families and read in points and (read != "tube" or tube_points)
            for name in names]
    if set(values) != {row[0] for row in rows}:
        raise ValueError("checks not in both the sweep and report.CHECKS: "
                         + ", ".join(sorted(set(values) ^ {row[0] for row in rows})))
    return [CheckRecord(name, float(values[name]), *rest) for name, *rest in rows]


CSV_HEADER = ["x", "y", "re_phi1", "im_phi1", "re_phi2", "im_phi2",
              "re_phi3", "im_phi3", "E", "G", "beta", "K"]


# The candidate characters of a %.17g text in print order: sign, the "0.000" of
# -4 <= X < 0, 17 digits each followed by a possible point, "e+123", a separator.
_G17_ROW = np.frombuffer(b"-0.000" + b"0." * 16 + b"0e+000,", np.uint8)


@functools.cache
def _g17_tables() -> tuple:
    """(power, digits, keep), built on first use.  power[270 + p], -270 <= p <= 300,
    is (hi, lo, hi1, hi2): hi + lo = 10^p to 2^-106, from exact integer ratios (the
    fractions module would import decimal), and hi = hi1 + hi2 in halves.  digits[i]
    is the 4 ASCII digits of i as one uint32.  keep[(c * 17 + L - 1) * 2 + negative]
    picks from _G17_ROW for L significant digits and c = X + 4 (-4 <= X < 17), 21
    (e±XX) or 22 (e±XXX)."""
    power = []
    for p in range(-270, 301):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        hi = num / den   # int / int rounds correctly
        n, d = hi.as_integer_ratio()
        power.append((hi, (num * d - n * den) / (den * d)))
    power = np.array(power)
    d = np.arange(48, 58, dtype=np.uint8)   # "0".."9"
    digits = np.stack(np.meshgrid(d, d, d, d, indexing="ij"), -1).view(np.uint32)
    key, at = np.arange(23 * 17 * 2), np.arange(17)
    c, L = key // 34, key // 2 % 17 + 1
    x, lead = np.where(c < 21, c - 4, np.where(c == 21, 17, 100)), c < 4
    point = np.where(lead, 0, np.where(c < 21, x + 1, 1))   # digits before the point
    keep = np.zeros((len(key), len(_G17_ROW)), bool)
    keep[:, 0], keep[:, 1:3] = key % 2, lead[:, None]
    keep[:, 3:6] = at[:3] < np.where(lead, -x - 1, 0)[:, None]
    keep[:, 6:39:2] = at < np.maximum(L, point)[:, None]
    keep[:, 7:39:2] = at[:16] == np.where(L > point, point - 1, -1)[:, None]
    keep[:, 39:44], keep[:, 44] = (c >= 21)[:, None], True
    keep[:, 41] &= c == 22
    return (np.column_stack([power, *_veltkamp(power[:, 0])]), digits.ravel(), keep)


def _veltkamp(a):
    """a = hi + lo in halves of at most 26 bits, whose products are exact."""
    c = 134217729.0 * a   # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _g17(values) -> list:
    """"%.17g" % v for each float64 v of values, 2048 at a time.  Where 1e-280 <= |v| <=
    1e280, h + r = |v| 10^(16 - X), X = floor(log10 |v|), to 5e-15 (Dekker's exact
    product by hi, plus |v| lo), rounds half-even to 17 digits, which lay out as C's %g.
    % prints the rest: zeros, non-finite values, the far range and fractions within
    2^-40 of 1/2, exact ties among them."""
    power, digits, keeps = _g17_tables()

    def scaled(a, x):
        b, b_lo, b1, b2 = power[286 - x].T
        h, (a1, a2) = a * b, _veltkamp(a)
        return h, ((a1 * b1 - h) + a1 * b2 + a2 * b1) + a2 * b2 + a * b_lo

    texts = []
    for s in range(0, len(values), 2048):
        v = values[s:s + 2048]
        a = np.abs(v)
        fast = (a >= 1e-280) & (a <= 1e280)
        a[~fast] = 1.0
        x = np.floor(np.log10(a)).astype(np.int64)
        h, r = scaled(a, x)
        # log10 is one off next to a power of ten: then h + r is outside [1e16, 1e17)
        off = ((h - 1e17) + r >= 0).astype(np.int64) - ((h - 1e16) + r < 0)
        redo = np.flatnonzero(off)
        x[redo] += off[redo]
        h[redo], r[redo] = scaled(a[redo], x[redo])
        whole = np.floor(r)
        frac = r - whole
        n = h.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
        carry = n == 10**17
        n[carry], x[carry] = 10**16, x[carry] + 1
        groups = np.empty((len(n), 5), np.int64)   # 1 + 4 x 4 digits
        for j in range(4, 0, -1):
            n, groups[:, j] = np.divmod(n, 10000)
        groups[:, 0] = n
        row = np.empty((len(n), len(_G17_ROW)), np.uint8)
        row[:] = _G17_ROW
        row[:, 6:39:2] = dig = digits[groups].view(np.uint8)[:, 3:]
        row[:, 40] = np.where(x < 0, 45, 43)   # "-", "+"
        row[:, 41:44] = digits[np.abs(x)].view(np.uint8).reshape(-1, 4)[:, 1:]
        L = 17 - np.argmax(dig[:, ::-1] != 48, axis=1)
        c = np.where((x >= -4) & (x < 17), x + 4, 21 + (np.abs(x) >= 100))
        keep = keeps[(c * 17 + L - 1) * 2 + (v < 0)]
        text = np.compress(keep.ravel(), row.ravel()).tobytes().decode().split(",")[:-1]
        for i in np.flatnonzero(~fast | (np.abs(frac - 0.5) < 2.0**-40)).tolist():
            text[i] = "%.17g" % v[i]
        texts += text
    return texts


def sample_rows(family: Family, grid: GridSpec):
    """Yield the CSV text in sweep block order as lists of at most isqrt(nx * ny)
    lines (a square grid's row); beta and K are empty at excluded degenerate points.
    A block's distinct bit patterns are formatted once each (-0.0 and NaNs keep theirs),
    by _g17, a numpy pass per 2048 of them that prints the text of "%.17g" % v."""
    side = math.isqrt(grid.nx * grid.ny)
    for x, y, phi, E, G, beta, has_beta, K, has_K in sample_blocks(family, grid):
        cols = np.stack([x, y, *(p[:, i] for i in range(3) for p in (phi.real, phi.imag)),
                         E, G, beta, K], axis=1)
        bits, cell = np.unique(cols.view(np.uint64), return_inverse=True)
        text = np.array([*_g17(bits.view(float)), ""], dtype=object)
        cell[~has_beta, 10] = cell[~has_K, 11] = len(bits)   # the "" of excluded cells
        del cols, bits
        for s in range(0, len(x), side):   # lines are held a piece, not a block, at a time
            yield [",".join(row) + "\r\n" for row in text[cell[s:s + side]].tolist()]
        del x, y, phi, E, G, beta, has_beta, K, has_K, text, cell   # freed before the next block


def write_csv(path, blocks) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        for lines in blocks:   # one write per piece: the text layer's cost is per call
            fh.write("".join(lines))
