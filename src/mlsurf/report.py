"""Grid-scale verification runs, report records and CSV sampling."""

from __future__ import annotations

import cmath
import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import diffgeo
from .diffgeo import gram_defects, lagrangian_angle
from .spectral_curve import (ReducibleCurveData, expansion_at_infinity,
                             regularity_defect, residue_simple)
from .surface_families import (Family, MetricField, cone_family,
                               in_degeneracy_tube, spectral_family)

TUBE_RADIUS = 1e-2
TUBE_G_TOL = 1e-3

# tolerance tiers: analytic identities / derived identities / single-FD / curvature
TOL_ANALYTIC = 1e-10
TOL_IDENTITY = 1e-8
TOL_FRAME = 1e-6
TOL_CURVATURE = {"strict": 1e-4, "fd": 1e-3}
TOL_RESIDUE_IDENTITY = 1e-9


@dataclass(frozen=True)
class GridSpec:
    nx: int
    ny: int
    x_range: tuple = (0.0, 2.0 * math.pi)
    y_range: tuple = (0.0, 2.0 * math.pi)

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid must have at least one point per axis")

    def xs(self) -> np.ndarray:
        x0, x1 = self.x_range
        return x0 + (x1 - x0) * np.arange(self.nx) / self.nx

    def ys(self) -> np.ndarray:
        y0, y1 = self.y_range
        return y0 + (y1 - y0) * np.arange(self.ny) / self.ny

    def to_dict(self) -> dict:
        return {"nx": self.nx, "ny": self.ny,
                "x_range": list(self.x_range), "y_range": list(self.y_range)}


@dataclass
class CheckRecord:
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


@dataclass
class VerificationReport:
    family: str
    parameters: dict
    grid: GridSpec
    h: float
    tol_profile: str
    checks: list = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"family": self.family, "parameters": self.parameters,
                "grid": self.grid.to_dict(), "h": self.h,
                "tol_profile": self.tol_profile,
                "checks": [c.to_dict() for c in self.checks],
                "overall": self.overall}

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    def format_text(self) -> str:
        pars = " ".join(f"{k}={v}" for k, v in self.parameters.items())
        lines = [
            f"family={self.family} {pars} grid={self.grid.nx}x{self.grid.ny} "
            f"h={self.h:g} profile={self.tol_profile}",
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


class _MaxAggregator:
    """Max-reduction of per-point defects plus exclusion counts; NaN is sticky."""

    def __init__(self):
        self.values = {}
        self.excluded = {}

    def see(self, name: str, value: float) -> None:
        value = float(value)
        old = self.values.get(name)
        if old is None or value > old or math.isnan(value):
            self.values[name] = value

    def fail(self, *names: str) -> None:
        for name in names:
            self.see(name, math.inf)

    def exclude(self, *names: str) -> None:
        for name in names:
            self.excluded[name] = self.excluded.get(name, 0) + 1


_GRAM_NAMES = ("gram_norm", "gram_phi_phix", "gram_phi_phiy", "gram_phix_phiy")
_FRAME_NAMES = tuple("frame_" + n for n in (
    "unitarity", "det_unit", "A_antiherm", "B_antiherm", "A_trace",
    "B_trace", "A_pattern", "B_pattern", "f_real", "h_real"))
_CHRISTOFFEL_NAMES = ("christoffel_b11", "christoffel_b12", "christoffel_b22",
                      "gradient_identity_x", "gradient_identity_y", "minimality_im_x", "minimality_im_y")
_ANGLE_NAMES = ("beta_constant",) + _CHRISTOFFEL_NAMES + _FRAME_NAMES
_SPECTRAL_ANGLE_NAMES = _ANGLE_NAMES + ("beta_e2i_plus_one", "curvature_K_minus_1")


def _in_tube(family: Family, x: float, y: float) -> bool:
    return family.curve is not None and in_degeneracy_tube(family.curve, x, y, TUBE_RADIUS)


def _curvature_field(family: Family, tol_profile: str) -> MetricField:
    if tol_profile not in TOL_CURVATURE:
        raise ValueError(f"unknown tol profile {tol_profile!r}")
    return family.metric if tol_profile == "strict" else family.metric.without_derivatives()


def _point_checks(family: Family, k_field: MetricField, beta_ref: float, h: float,
                  agg: _MaxAggregator, x: float, y: float) -> None:
    curve = family.curve
    angle_names = _ANGLE_NAMES if curve is None else _SPECTRAL_ANGLE_NAMES
    jet = family.jet(x, y)
    for name, val in zip(_GRAM_NAMES, gram_defects(jet)):
        agg.see(name, val)

    E = float(np.sum(np.abs(jet.phi_x) ** 2))
    G = float(np.sum(np.abs(jet.phi_y) ** 2))
    agg.see("metric_E_closed_form", abs(E - family.metric.E(x, y)))
    agg.see("metric_G_closed_form", abs(G - family.metric.G(x, y)))

    if curve is not None:
        for k, val in enumerate(diffgeo.residue_identity_defects(curve, jet)):
            agg.see(f"residue_identity_{k + 1}", val)
    if _in_tube(family, x, y):
        agg.see("tube_G_bound", G)
        agg.exclude(*angle_names)
        return

    try:
        beta = lagrangian_angle(jet)
    except ValueError:
        agg.fail(*angle_names)
        return
    if curve is not None:
        agg.see("beta_e2i_plus_one", abs(cmath.exp(2j * beta) + 1.0))
    agg.see("beta_constant", abs(math.remainder(beta - beta_ref, family.beta_period)))

    # one stencil serves the beta gradient and the frame derivatives
    st = diffgeo.stencil(family.jet, x, y, h)
    try:
        md = diffgeo.metric_from_jet(jet)
        if curve is None:
            agg.see("metric_anisotropy", abs(md.v1 - md.v2))
        ch = diffgeo.christoffel_solve(jet)
        grads = diffgeo.metric_gradients_from_jet(jet)
        defects = np.concatenate([
            diffgeo.christoffel_b_defects(ch, md),
            diffgeo.gradient_identity_defects(ch, grads, diffgeo.stencil_beta_gradient(st)),
            diffgeo.minimality_defects(ch)])
        for name, val in zip(_CHRISTOFFEL_NAMES, defects):
            agg.see(name, val)
    except ValueError:
        agg.fail(*_CHRISTOFFEL_NAMES)

    try:
        fr = diffgeo.stencil_frame(jet, beta, st)
        for name, val in diffgeo.frame_defects(fr).items():
            agg.see("frame_" + name, val)
    except ValueError:
        agg.fail(*_FRAME_NAMES)

    if curve is not None:
        try:
            K = diffgeo.gauss_curvature(k_field, x, y, h)
            agg.see("curvature_K_minus_1", abs(K - 1.0))
        except ValueError:
            agg.fail("curvature_K_minus_1")


def _points(grid: GridSpec):
    for y in grid.ys():
        for x in grid.xs():
            yield float(x), float(y)


def _reference_beta(family: Family, grid: GridSpec) -> float:
    for x, y in _points(grid):
        if not _in_tube(family, x, y):
            return lagrangian_angle(family.jet(x, y))
    raise ValueError("no grid point outside the degeneracy tube")


def verify(family: Family, grid: GridSpec, h: float = 1e-4,
           tol_profile: str = "strict") -> VerificationReport:
    """Run the family's check suite over the grid."""
    k_field = _curvature_field(family, tol_profile)
    beta_ref = _reference_beta(family, grid)
    agg = _MaxAggregator()
    for x, y in _points(grid):
        _point_checks(family, k_field, beta_ref, h, agg, x, y)

    def rec(name, tol, kind="upper"):
        return CheckRecord(name, agg.values[name], tol, kind, agg.excluded.get(name, 0))

    checks = [rec(name, TOL_ANALYTIC) for name in
              _GRAM_NAMES + ("metric_E_closed_form", "metric_G_closed_form")]
    if family.curve is not None:
        checks += [rec(f"residue_identity_{k}", TOL_RESIDUE_IDENTITY) for k in range(1, 7)]
        checks.append(rec("beta_e2i_plus_one", TOL_ANALYTIC))
    checks += [rec(name, TOL_IDENTITY) for name in ("beta_constant",) + _CHRISTOFFEL_NAMES]
    checks += [rec(name, TOL_FRAME) for name in _FRAME_NAMES]
    if family.curve is None:
        checks.append(rec("metric_anisotropy", 0.1, kind="lower"))
    else:
        checks.append(rec("curvature_K_minus_1", TOL_CURVATURE[tol_profile]))
        if "tube_G_bound" in agg.values:
            checks.append(rec("tube_G_bound", TUBE_G_TOL))
        checks += curve_checks(family.curve)
    return VerificationReport(family.name, family.parameters, grid, h, tol_profile, checks)


def verify_spectral(curve: ReducibleCurveData, grid: GridSpec, h: float = 1e-4,
                    tol_profile: str = "strict") -> VerificationReport:
    """Run the full spectral-family check suite over the grid."""
    return verify(spectral_family(curve), grid, h, tol_profile)


def verify_cone(m: int, n: int, grid: GridSpec, h: float = 1e-4,
                tol_profile: str = "strict") -> VerificationReport:
    """Run the cone-family check suite over the grid."""
    return verify(cone_family(m, n), grid, h, tol_profile)


def curve_checks(curve: ReducibleCurveData) -> list:
    """Curve-level records: regularity, puncture expansions, residue signs."""
    w1 = expansion_at_infinity(curve.omega1(), 2)
    w2 = expansion_at_infinity(curve.omega2(), 2)
    return [
        CheckRecord("curve_regularity", regularity_defect(curve), 1e-13),
        CheckRecord("curve_w2_P1_rel", float(abs(w1[1]) / abs(w1[0])), 1e-12),
        CheckRecord("curve_w2_P2_rel", float(abs(w2[1]) / abs(w2[0])), 1e-12),
        CheckRecord("curve_Q_sum", abs(curve.Q1 + curve.Q2 + curve.Q3), 1e-13),
        CheckRecord("curve_residues_positive", min(curve.res_Q), 0.0, kind="lower"),
    ]


CSV_HEADER = ["x", "y", "re_phi1", "im_phi1", "re_phi2", "im_phi2",
              "re_phi3", "im_phi3", "E", "G", "beta", "K"]


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def sample_rows(family: Family, grid: GridSpec, h: float, tol_profile: str = "strict"):
    """Yield CSV rows; beta and K are empty at excluded degenerate points."""
    k_field = _curvature_field(family, tol_profile)
    for x, y in _points(grid):
        jet = family.jet(x, y)
        E = float(np.sum(np.abs(jet.phi_x) ** 2))
        G = float(np.sum(np.abs(jet.phi_y) ** 2))
        beta_s = k_s = ""
        if not _in_tube(family, x, y):
            try:
                beta_s = _fmt(lagrangian_angle(jet))
            except ValueError:
                pass
            try:
                k_s = _fmt(diffgeo.gauss_curvature(k_field, x, y, h))
            except ValueError:
                pass
        row = [_fmt(x), _fmt(y)]
        for comp in jet.phi:
            row.extend([_fmt(comp.real), _fmt(comp.imag)])
        row.extend([_fmt(E), _fmt(G), beta_s, k_s])
        yield row


def write_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(row)


def curve_info_text(curve: ReducibleCurveData) -> str:
    """Human-readable dump of every derived curve constant."""
    omega1 = curve.omega1()
    omega2 = curve.omega2()
    w2 = expansion_at_infinity(omega2, 2)
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
        f"w2_coeff_P2      = {_fmt(abs(w2[1]))}",
        f"regularity(+a,+b) = {_fmt(abs(residue_simple(omega1, curve.a) + residue_simple(omega2, curve.b)))}",
        f"regularity(-a,-b) = {_fmt(abs(residue_simple(omega1, -curve.a) + residue_simple(omega2, -curve.b)))}",
    ]
    return "\n".join(lines)
