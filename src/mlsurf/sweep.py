"""Chunked grid sweep: the per-point checks of diffgeo on stacked arrays.

The sweep visits the grid in report order (y outer, x inner) in blocks of
CHUNK points, each block's coordinates formed from its point indices
(GridSpec.points), so no axis is held whatever the grid.  Per block it evaluates
the batched (6, n, 3) jet field (Family.jets), the metric E, G it induces and
the degeneracy-tube mask at all centres at once.  Outside the tube it stacks the
centres' phi, phi_x, phi_y and those of the scalar point jets at (x +- h, y), (x, y +- h)
as one (3, 5, n, 3) array, centre first, and takes all its Lagrangian angles in one pass:
4 Family.jet calls per point outside the tube and none inside, which the benchmark counts.
Every check runs with the floating-point operations of its scalar oracle
in diffgeo (np.vecdot for np.vdot, hypot for the abs of one complex number,
math.remainder rebuilt from np.fmod), so each reduced maximum equals the oracles'
bit for bit.  The Christoffel stage's condition gate keeps the oracle's mask
(cond <= CONDITION_LIMIT, bit for bit) but not its values: Gershgorin bounds on the Gram
matrix decide most points, and np.linalg.cond (an SVD) only those the bounds cannot
certify.  The metric, residue and curvature checks call the closed forms the
oracles call.  Each check group returns (values, ok) and one accumulator folds
them into the maxima.  CHUNK bounds the memory a sweep holds whatever the grid
size (README, Performance, gives the measured peaks); the report does not depend on it.

Floating-point policy: both sweeps compute each block under np.errstate(all="ignore")
(not across a yield).  A check fails a non-finite value (inf where a point fails, NaN
sticky) and the CSV prints it, so a numpy warning would tell nothing the output does not.
"""

import math
import time

import numpy as np

from .diffgeo import (CONDITION_LIMIT, MIN_STENCIL_NORM, UNITARITY_GATE,
                      gauss_curvature_masked, residue_identity_defects)
from .surface_families import TUBE_RADIUS, Family, SurfaceJet, degeneracy_angle

CHUNK = 1024   # the block size the README's measured table picks
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
PHASES = ("jets", "stencil", "metric", "residue", "angle", "christoffel", "frame", "curvature",
          "reduce")


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
    """phi, phi_x and phi_y (the rows the stencil checks read) as (3, n, 3), one scalar
    jet call per point; only the stencil takes this path: the benchmark counts these calls."""
    out = np.empty((3, len(xs), 3), dtype=complex)
    phi, phi_x, phi_y = out
    for k, (x, y) in enumerate(zip(xs.tolist(), ys.tolist())):
        j = jet(x, y)   # copied now: a list of jets would hold 1 kB a point
        phi[k], phi_x[k], phi_y[k] = j[2], j[3], j[4]
    return out


def _block(family: Family, grid, start: int) -> tuple:
    """(x, y, tube mask, stacked centre jets, E, G) of the at most CHUNK grid points from
    index start: the mask is in_degeneracy_tube's bit for bit, E, G the metric the jets
    induce (sum |phi_x|^2, sum |phi_y|^2), x, y from the indices (GridSpec.points)."""
    x, y = grid.points(np.arange(start, min(start + CHUNK, grid.nx * grid.ny)))  # nx ny < 2^63
    c = family.curve
    tube = (np.zeros(len(x), dtype=bool) if c is None else
            np.abs(_remainder(c.a * x - c.b * y - degeneracy_angle(c), math.pi)) < TUBE_RADIUS)
    J = family.jets(x, y)
    return x, y, tube, J, np.sum(np.abs(J[1]) ** 2, axis=-1), np.sum(np.abs(J[2]) ** 2, axis=-1)


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


def _angles(J) -> tuple:
    """diffgeo.lagrangian_angle of stacked jets: (beta, accepted, |phi_x|, |phi_y|)."""
    nx, ny = _norm(J[1]), _norm(J[2])
    det = np.linalg.det(np.stack([J[0], J[1] / nx[..., None], J[2] / ny[..., None]], axis=-2))
    ok = (nx != 0.0) & (ny != 0.0) & ~(np.abs(_abs(det) - 1.0) > UNITARITY_GATE)
    return np.angle(det), ok, nx, ny


def _christoffel(J, E, G, beta_s, h: float) -> tuple:
    """Christoffel, gradient-identity and minimality defects over stacked centre jets
    and the stencil angles beta_s, and where they hold: E and G nonzero and the
    basis (phi_x, phi_y, phi) conditioned within CONDITION_LIMIT.

    The condition mask is np.linalg.cond(basis) <= CONDITION_LIMIT bit for bit, with the
    SVD run only where Gershgorin's theorem cannot certify the point.  M = basis^H basis
    is Hermitian with eigenvalues sigma_i^2, so cond^2 = lambda_max / lambda_min, and
    every eigenvalue lies in [lo, hi], lo = min_i (M_ii - R_i), hi = max_i (M_ii + R_i),
    R_i the sum of |M_ij| off the diagonal.  M's diagonal is (E, G, |phi|^2) and, on a
    Lagrangian surface, its off-diagonal entries are Gram defects of about 1e-16, so the
    bound is tight.  This route squares the condition number (at cond 1e8, lambda_min /
    lambda_max is below the rounding of M's entries), so a margin on cond alone proves
    nothing; the slack delta = 2^-44 tr(M) bounds the error of the computed M
    (|M^_ij - M_ij| <= g sqrt(M_ii M_jj), so ||M^ - M||_2 <= 3 g tr(M), g a few units of
    2^-53) and of lo and hi (a few roundings of size <= 2 tr(M)) with room to spare, and
    tr(M) >= 2^-900 keeps every underflow far below delta.  A point with hi + delta finite
    (so every entry of M is), lo - delta > 0 and hi + delta <= (lo - delta)
    (CONDITION_LIMIT / 4)^2 has a true cond of at most CONDITION_LIMIT / 4, which numpy's
    backward-stable SVD reads within CONDITION_LIMIT.  A non-finite basis fails; every
    other point (overflow, underflow, cond near or above the limit) takes np.linalg.cond."""
    basis = np.stack([J[1], J[2], J[0]], axis=-1)
    M = np.vecdot(basis[:, :, :, None], basis[:, :, None, :], axis=1)
    d = M.diagonal(axis1=1, axis2=2).real
    r = np.abs(M).sum(axis=2) - d   # at least the off-diagonal sum: |M_ii| >= d
    tr = d.sum(axis=1)
    lo, hi = (d - r).min(axis=1) - 2.0 ** -44 * tr, (d + r).max(axis=1) + 2.0 ** -44 * tr
    ok = ((tr >= 2.0 ** -900) & np.isfinite(hi) & (lo > 0.0)
          & (hi <= lo * (CONDITION_LIMIT / 4.0) ** 2))
    rest = np.flatnonzero(~ok)
    rest = rest[np.isfinite(basis[rest]).all(axis=(1, 2))]
    if len(rest):
        ok[rest] = np.linalg.cond(basis[rest]) <= CONDITION_LIMIT
    ok &= (E != 0.0) & (G != 0.0)
    sol = np.linalg.solve(np.where(ok[:, None, None], basis, np.eye(3)),
                          np.stack([J[3], J[4], J[5]], axis=-1))
    v1x = 2.0 * np.vecdot(J[1], J[3]).real / E
    v1y = 2.0 * np.vecdot(J[1], J[4]).real / E
    v2x = 2.0 * np.vecdot(J[2], J[4]).real / G
    v2y = 2.0 * np.vecdot(J[2], J[5]).real / G
    bx, by = _remainder(beta_s[0::2] - beta_s[1::2], _TWO_PI) / (2.0 * h)
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


def _frame(S, norm_x, norm_y, beta, centre_ok, h: float) -> tuple:
    """Frame defects of diffgeo.frame_and_connection over the (3, 5, n, 3) centre and
    stencil jets S, each slot twisted by its angle unwrapped to the centre's, and where they
    hold: |phi_x|, |phi_y| >= MIN_STENCIL_NORM at every neighbour.  Phi is inverted where
    the centre angle is accepted with a finite det (|det Phi| within UNITARITY_GATE of 1, so
    LU meets no zero pivot); elsewhere every value fails or is NaN whatever the inverse.
    det_unit is NaN wherever Phi holds a NaN, where LU may meet a zero pivot and read det 0."""
    tw = np.exp(-0.5j * (beta[0] + _remainder(beta - beta[0], _TWO_PI)))[..., None]
    Phi, xp, xm, yp, ym = np.stack(
        [S[0], tw * S[1] / norm_x[..., None], tw * S[2] / norm_y[..., None]], axis=-2)
    regular = (centre_ok & np.isfinite(beta[0]))[:, None, None]
    inv = np.linalg.inv(np.where(regular, Phi, np.eye(3)))
    ok = (~(norm_x[1:] < MIN_STENCIL_NORM) & ~(norm_y[1:] < MIN_STENCIL_NORM)).all(axis=0)
    A = (xp - xm) / (2.0 * h) @ inv
    B = (yp - ym) / (2.0 * h) @ inv
    eye = np.eye(3)
    return (
        np.abs(Phi @ np.conj(Phi).swapaxes(-1, -2) - eye).max(axis=(1, 2)),
        np.where(np.isnan(Phi).any(axis=(1, 2)), np.nan, _abs(np.linalg.det(Phi) - 1.0)),
        np.abs(A + np.conj(A).swapaxes(-1, -2)).max(axis=(1, 2)),
        np.abs(B + np.conj(B).swapaxes(-1, -2)).max(axis=(1, 2)),
        _abs(np.trace(A, axis1=1, axis2=2)),
        _abs(np.trace(B, axis1=1, axis2=2)),
        np.maximum(_abs(A[:, 0, 2]), _abs(A[:, 2, 0])),
        np.maximum(_abs(B[:, 0, 1]), _abs(B[:, 1, 0])),
        np.abs(A[:, 1, 1].real),
        np.abs(B[:, 1, 1].real),
    ), ok


def check_maxima(family: Family, grid, h: float) -> tuple:
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
        block = np.max(np.where(ok, np.array(list(values)), np.inf), axis=-1, initial=-np.inf)
        for name, v in zip(names, block):
            maxima[name] = np.maximum(maxima.get(name, -np.inf), v)
        timer.lap("reduce")

    with np.errstate(all="ignore"):
        for start in range(0, grid.nx * grid.ny, CHUNK):
            x, y, tube, J, E, G = _block(family, grid, start)
            timer.lap("jets")
            fold("metric", GRAM_NAMES, map(_abs, (np.vecdot(J[0], J[0]) - 1.0, np.vecdot(J[1], J[0]),
                                                  np.vecdot(J[2], J[0]), np.vecdot(J[2], J[1]))))
            fold("metric", METRIC_NAMES, (np.abs(E - family.metric.E(x, y)),
                                          np.abs(G - family.metric.G(x, y))))
            if curve is not None:
                fold("residue", RESIDUE_NAMES, residue_identity_defects(curve, SurfaceJet(x, y, *J)))

            if tube.any():
                fold("metric", ["tube_G_bound"], [G[tube]])
                tube_points += int(tube.sum())
            if tube.all():  # no point outside the tube: no angle stage
                continue
            # phi, phi_x, phi_y at the points outside the tube (slot 0 of S) and at
            # (x +- h, y), (x, y +- h) (slots 1-4), and their angles in one pass
            act = np.flatnonzero(~tube)
            xa, ya, Ja, Ea, Ga = x[act], y[act], J[:, act], E[act], G[act]
            S = np.concatenate([Ja[:3], _jets(family.jet, np.concatenate([xa + h, xa - h, xa, xa]),
                                              np.concatenate([ya, ya, ya + h, ya - h]))],
                               axis=1).reshape(3, 5, len(act), 3)
            timer.lap("stencil")
            beta, ok, norm_x, norm_y = _angles(S)
            centre_ok, angles_ok = ok[0], ok.all(axis=0)   # centre checks, then all five
            if beta_ref is None:
                if not centre_ok[0]:
                    raise ValueError("Lagrangian angle rejected at the reference point "
                                     f"({xa[0]}, {ya[0]}), the first outside the degeneracy tube")
                beta_ref = beta[0, 0]
            fold("angle", ["beta_constant"],
                 [np.abs(_remainder(beta[0] - beta_ref, family.beta_period))], centre_ok)
            if curve is not None:
                fold("angle", ["beta_e2i_plus_one"], [_abs(np.exp(2j * beta[0]) + 1.0)], centre_ok)
            if curve is None:   # -inf where the centre angle is rejected or E or G is 0
                fold("metric", ["metric_anisotropy"], [np.where(
                    centre_ok & (Ea != 0.0) & (Ga != 0.0),
                    np.abs(np.log(Ea / 2.0) - np.log(Ga / 2.0)), -np.inf)])
            values, ok = _christoffel(Ja, Ea, Ga, beta[1:], h)
            fold("christoffel", CHRISTOFFEL_NAMES, values, ok & angles_ok)
            values, ok = _frame(S, norm_x, norm_y, beta, centre_ok, h)
            fold("frame", FRAME_NAMES, values, ok & angles_ok)
            if curve is not None:
                K, pos = gauss_curvature_masked(family.metric, xa, ya, h)
                fold("curvature", ["curvature_K_minus_1"], [np.abs(K - 1.0)], pos & centre_ok)

    if beta_ref is None:
        raise ValueError("no grid point outside the degeneracy tube")
    return maxima, dict.fromkeys(outside, tube_points), timer.to_dict()


def sample_blocks(family: Family, grid, h: float):
    """Per block: x, y, phi, E, G, beta and K, and the masks where beta and K
    are defined (outside the tube; angle accepted; metric positive)."""
    for start in range(0, grid.nx * grid.ny, CHUNK):
        with np.errstate(all="ignore"):
            x, y, tube, J, E, G = _block(family, grid, start)
            beta, ok, _, _ = _angles(J)
            K, pos = gauss_curvature_masked(family.metric, x, y, h)
        phi = J[0].copy()
        del J   # freed before the caller formats the block's rows
        yield x, y, phi, E, G, beta, ~tube & ok, K, ~tube & pos
