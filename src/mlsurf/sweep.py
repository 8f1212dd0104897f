"""Chunked grid sweep: the per-point checks of diffgeo on stacked arrays.

The sweep visits the grid in report order (y outer, x inner) in blocks of
CHUNK points.  Per block it evaluates the batched jet field (Family.jets) and
the degeneracy-tube mask at all centres at once, and outside the tube the
scalar point jets at the stencil points (x +- h, y), (x, y +- h), as (6, n, 3)
arrays.  Every check runs on them with the floating-point operations of its
scalar oracle in diffgeo (np.vecdot for np.vdot, hypot for the abs of one
complex number, math.remainder rebuilt from np.fmod), so each reduced maximum
equals the oracles' bit for bit.  The metric, residue and curvature checks
call the closed forms the oracles call.  Each check group returns (values,
ok) and one accumulator folds them into the maxima.  CHUNK bounds the memory
a sweep holds whatever the grid size; the report does not depend on it.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .diffgeo import (CONDITION_LIMIT, MIN_STENCIL_NORM, UNITARITY_GATE,
                      gauss_curvature_masked, residue_identity_defects)
from .surface_families import TUBE_RADIUS, Family, MetricField, SurfaceJet, degeneracy_angle

CHUNK = 256
_TWO_PI = 2.0 * math.pi

GRAM_NAMES = ("gram_norm", "gram_phi_phix", "gram_phi_phiy", "gram_phix_phiy")
METRIC_NAMES = ("metric_E_closed_form", "metric_G_closed_form")
RESIDUE_NAMES = tuple(f"residue_identity_{k}" for k in range(1, 7))
FRAME_NAMES = tuple("frame_" + n for n in (
    "unitarity", "det_unit", "A_antiherm", "B_antiherm", "A_trace",
    "B_trace", "A_pattern", "B_pattern", "f_real", "h_real"))
CHRISTOFFEL_NAMES = ("christoffel_b11", "christoffel_b12", "christoffel_b22",
                     "gradient_identity_x", "gradient_identity_y",
                     "minimality_im_x", "minimality_im_y")
PHASES = ("jets", "metric", "residue", "angle", "christoffel", "frame", "curvature", "reduce")


class Timings:
    """Seconds spent in each sweep phase, from perf_counter laps."""

    def __init__(self):
        self.seconds = dict.fromkeys(PHASES, 0.0)
        self._start = self._last = time.perf_counter()

    def lap(self, phase: str) -> None:
        now = time.perf_counter()
        self.seconds[phase] += now - self._last
        self._last = now

    def to_dict(self) -> dict:
        return {**self.seconds, "total": time.perf_counter() - self._start}


def _jets(jet, xs, ys) -> np.ndarray:
    """Stacked (6, n, 3) jet fields, one scalar jet call per point.  Only the
    stencil jets take this path, because the benchmark counts jets by these calls."""
    out = np.empty((6, len(xs), 3), dtype=complex)
    for k, (x, y) in enumerate(zip(xs.tolist(), ys.tolist())):
        j = jet(x, y)
        out[0, k], out[1, k], out[2, k] = j.phi, j.phi_x, j.phi_y
        out[3, k], out[4, k], out[5, k] = j.phi_xx, j.phi_xy, j.phi_yy
    return out


def _blocks(family: Family, grid, timer: Timings):
    """(x, y, tube mask, stacked centre jets) for each block of CHUNK grid
    points; the mask is in_degeneracy_tube's, bit for bit."""
    xs, ys = grid.xs(), grid.ys()
    total = grid.nx * grid.ny
    c = family.curve
    for start in range(0, total, CHUNK):
        idx = np.arange(start, min(start + CHUNK, total))
        x, y = xs[idx % grid.nx], ys[idx // grid.nx]
        J = family.jets(x, y)
        tube = (np.zeros(len(x), dtype=bool) if c is None else
                np.abs(_remainder(c.a * x - c.b * y - degeneracy_angle(c), math.pi)) < TUBE_RADIUS)
        timer.lap("jets")
        yield x, y, tube, J


def _abs(z):
    """abs() of each complex number as Python computes it (np.abs rounds differently)."""
    return np.hypot(z.real, z.imag)


def _norm(v):
    """np.linalg.norm of each row, bit for bit (norm(axis=-1) rounds differently)."""
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


def _remainder(x, p: float):
    """math.remainder(x, p) elementwise, bit for bit (np.remainder differs)."""
    ax = np.abs(x)
    m = np.fmod(ax, p)
    c = p - m
    tie = m - 2.0 * np.fmod(0.5 * (ax - m), p)
    return np.copysign(1.0, x) * np.where(m < c, m, np.where(m > c, -c, tie))


def _py_max(a, b):
    """Python's max(a, b) elementwise: a unless b > a."""
    return np.where(b > a, b, a)


def _stacked(f, a) -> tuple:
    """(f over a stack of matrices, mask of the matrices f accepts); f raises
    LinAlgError for a whole stack when one matrix fails."""
    try:
        return f(a), np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        ok = np.array([_accepts(f, m) for m in a], dtype=bool)
        return f(np.where(ok[:, None, None], a, np.eye(3))), ok


def _accepts(f, m) -> bool:
    try:
        f(m)
    except np.linalg.LinAlgError:
        return False
    return True


def _angles(J) -> tuple:
    """diffgeo.lagrangian_angle of stacked jets: (beta, accepted, |phi_x|, |phi_y|)."""
    nx, ny = _norm(J[1]), _norm(J[2])
    det = np.linalg.det(np.stack([J[0], J[1] / nx[:, None], J[2] / ny[:, None]], axis=1))
    ok = (nx != 0.0) & (ny != 0.0) & ~(np.abs(_abs(det) - 1.0) > UNITARITY_GATE)
    return np.angle(det), ok, nx, ny


def _twisted_frames(J, nx, ny, beta):
    """diffgeo._twisted_frame of stacked jets: (..., 3, 3)."""
    tw = np.exp(-0.5j * beta)[..., None]
    return np.stack([J[0], tw * J[1] / nx[..., None], tw * J[2] / ny[..., None]], axis=-2)


def _christoffel(J, E, G, nb_beta, h: float) -> tuple:
    """Christoffel, gradient-identity and minimality defects over stacked centre
    jets, and where they hold: E and G nonzero and the basis (phi_x, phi_y,
    phi) conditioned within CONDITION_LIMIT."""
    basis = np.stack([J[1], J[2], J[0]], axis=-1)
    cond, ok = _stacked(np.linalg.cond, basis)
    ok &= (E != 0.0) & (G != 0.0) & np.isfinite(cond) & (cond <= CONDITION_LIMIT)
    sol = np.linalg.solve(np.where(ok[:, None, None], basis, np.eye(3)),
                          np.stack([J[3], J[4], J[5]], axis=-1))
    v1x = 2.0 * np.vecdot(J[1], J[3]).real / E
    v1y = 2.0 * np.vecdot(J[1], J[4]).real / E
    v2x = 2.0 * np.vecdot(J[2], J[4]).real / G
    v2y = 2.0 * np.vecdot(J[2], J[5]).real / G
    bx, by = _remainder(nb_beta[0::2] - nb_beta[1::2], _TWO_PI) / (2.0 * h)
    trace_x = sol[:, 0, 0] + sol[:, 1, 1]
    trace_y = sol[:, 0, 1] + sol[:, 1, 2]
    return (
        _abs(sol[:, 2, 0] + E) / E,
        _abs(sol[:, 2, 1]) / np.sqrt(E * G),
        _abs(sol[:, 2, 2] + G) / G,
        _abs(trace_x - (0.5 * (v1x + v2x) + 1j * bx)),
        _abs(trace_y - (0.5 * (v1y + v2y) + 1j * by)),
        np.abs(trace_x.imag),
        np.abs(trace_y.imag),
    ), ok


def _frame(J, nx, ny, beta, nbJ, nb_nx, nb_ny, nb_beta, h: float) -> tuple:
    """Frame defects of diffgeo.frame_and_connection over stacked centre jets,
    and where they hold: |phi_x| and |phi_y| at least MIN_STENCIL_NORM at
    every neighbour and the frame invertible."""
    Phi = _twisted_frames(J, nx, ny, beta)
    xp, xm, yp, ym = _twisted_frames(nbJ, nb_nx, nb_ny, beta + _remainder(nb_beta - beta, _TWO_PI))
    inv, ok = _stacked(np.linalg.inv, Phi)
    ok &= (~(nb_nx < MIN_STENCIL_NORM) & ~(nb_ny < MIN_STENCIL_NORM)).all(axis=0)
    A = (xp - xm) / (2.0 * h) @ inv
    B = (yp - ym) / (2.0 * h) @ inv
    eye = np.eye(3)
    return (
        np.abs(Phi @ np.conj(Phi).swapaxes(-1, -2) - eye).max(axis=(1, 2)),
        _abs(np.linalg.det(Phi) - 1.0),
        np.abs(A + np.conj(A).swapaxes(-1, -2)).max(axis=(1, 2)),
        np.abs(B + np.conj(B).swapaxes(-1, -2)).max(axis=(1, 2)),
        _abs(np.trace(A, axis1=1, axis2=2)),
        _abs(np.trace(B, axis1=1, axis2=2)),
        _py_max(_abs(A[:, 0, 2]), _abs(A[:, 2, 0])),
        _py_max(_abs(B[:, 0, 1]), _abs(B[:, 1, 0])),
        np.abs(A[:, 1, 1].real),
        np.abs(B[:, 1, 1].real),
    ), ok


def check_maxima(family: Family, grid, h: float, k_field: MetricField) -> tuple:
    """Masked max of every per-point check over the grid.

    Returns (maxima, excluded, timings): check name -> max defect (NaN
    sticky, inf where a point failed the check) in report order, each check
    that skips the tube -> tube points excluded, and seconds per phase.  Tube
    points feed "tube_G_bound" instead, last and only if there are any.
    Raises ValueError when the first point outside the tube has a rejected
    angle (it fixes the reference angle) or no point lies outside the tube.
    """
    curve = family.curve
    timer = Timings()
    # check names in report order; all but the metric and residue ones skip the tube
    angle = ("beta_constant",) + CHRISTOFFEL_NAMES + FRAME_NAMES
    outside = (angle + ("metric_anisotropy",) if curve is None
               else ("beta_e2i_plus_one",) + angle + ("curvature_K_minus_1",))
    maxima = dict.fromkeys(GRAM_NAMES + METRIC_NAMES + (() if curve is None else RESIDUE_NAMES)
                           + outside, -np.inf)
    tube_points = 0
    beta_ref = None

    def fold(phase, names, values, ok=True):
        # NaN-sticky running max in which a point where ok is False counts as inf
        timer.lap(phase)
        for name, v in zip(names, values):
            maxima[name] = np.maximum(maxima.get(name, -np.inf),
                                      np.max(np.where(ok, v, np.inf), initial=-np.inf))
        timer.lap("reduce")

    for x, y, tube, J in _blocks(family, grid, timer):
        with np.errstate(divide="ignore", invalid="ignore"):
            E = np.sum(np.abs(J[1]) ** 2, axis=-1)
            G = np.sum(np.abs(J[2]) ** 2, axis=-1)
            fold("metric", GRAM_NAMES, map(_abs, (np.vecdot(J[0], J[0]) - 1.0, np.vecdot(J[1], J[0]),
                                                  np.vecdot(J[2], J[0]), np.vecdot(J[2], J[1]))))
            fold("metric", METRIC_NAMES, (np.abs(E - family.metric.E(x, y)),
                                          np.abs(G - family.metric.G(x, y))))
            if curve is not None:
                fold("residue", RESIDUE_NAMES, residue_identity_defects(curve, SurfaceJet(x, y, *J)))

            beta, accepted, nx, ny = _angles(J)
            if beta_ref is None and not tube.all():
                k = int(np.argmin(tube))
                if not accepted[k]:
                    raise ValueError("Lagrangian angle rejected at the reference point "
                                     f"({x[k]}, {y[k]}), the first outside the degeneracy tube")
                beta_ref = beta[k]
            if tube.any():
                fold("angle", ["tube_G_bound"], [G[tube]])
                tube_points += int(tube.sum())
            # the angle checks run at the points outside the tube and fail
            # wherever the centre angle was rejected
            act = np.flatnonzero(~tube)
            centre_ok, beta_a = accepted[act], beta[act]
            fold("angle", ["beta_constant"],
                 [np.abs(_remainder(beta_a - beta_ref, family.beta_period))], centre_ok)
            if curve is not None:
                fold("angle", ["beta_e2i_plus_one"], [_abs(np.exp(2j * beta_a) + 1.0)], centre_ok)

        xa, ya = x[act], y[act]
        nbJ = _jets(family.jet, np.concatenate([xa + h, xa - h, xa, xa]),
                    np.concatenate([ya, ya, ya + h, ya - h]))
        timer.lap("jets")

        with np.errstate(divide="ignore", invalid="ignore"):
            nb_beta, nb_ok, nb_nx, nb_ny = (v.reshape(4, len(act)) for v in _angles(nbJ))
            nbJ = nbJ.reshape(6, 4, len(act), 3)
            angles_ok = centre_ok & nb_ok.all(axis=0)
            timer.lap("angle")
            Ja, Ea, Ga = J[:, act], E[act], G[act]
            if curve is None:
                # math.log, as diffgeo.metric_from_jet: np.log rounds differently
                fold("christoffel", ["metric_anisotropy"], [np.array(
                    [abs(math.log(e / 2.0) - math.log(g / 2.0)) if c and e != 0.0 and g != 0.0
                     else -math.inf for e, g, c in zip(Ea.tolist(), Ga.tolist(), centre_ok)])])
            values, ok = _christoffel(Ja, Ea, Ga, nb_beta, h)
            fold("christoffel", CHRISTOFFEL_NAMES, values, ok & angles_ok)
            values, ok = _frame(Ja, nx[act], ny[act], beta_a, nbJ, nb_nx, nb_ny, nb_beta, h)
            fold("frame", FRAME_NAMES, values, ok & angles_ok)
            if curve is not None:
                K, pos = gauss_curvature_masked(k_field, xa, ya, h)
                fold("curvature", ["curvature_K_minus_1"], [np.abs(K - 1.0)], pos & centre_ok)

    if beta_ref is None:
        raise ValueError("no grid point outside the degeneracy tube")
    return maxima, dict.fromkeys(outside, tube_points), timer.to_dict()


def sample_blocks(family: Family, grid, h: float, k_field: MetricField):
    """Per block: x, y, phi, E, G, beta and K, and the masks where beta and K
    are defined (outside the tube; angle accepted; metric positive)."""
    for x, y, tube, J in _blocks(family, grid, Timings()):
        with np.errstate(divide="ignore", invalid="ignore"):
            E = np.sum(np.abs(J[1]) ** 2, axis=-1)
            G = np.sum(np.abs(J[2]) ** 2, axis=-1)
            beta, ok, _, _ = _angles(J)
            K, pos = gauss_curvature_masked(k_field, x, y, h)
        yield x, y, J[0], E, G, beta, ~tube & ok, K, ~tube & pos
