"""Chunked grid sweep: the per-point checks of diffgeo on stacked arrays.

It visits the grid in report order (y outer, x inner) in blocks of CHUNK points, each
block's coordinates formed from its point indices (GridSpec.points), so no axis is held
whatever the grid.  Per block it evaluates the jet field (Family.jets), its metric
(metric_data) and the tube mask (tube_mask) at all centres at once; outside the tube
diffgeo._stencil_rows stacks the centres' phi, phi_x, phi_y with the four neighbours'
rows, read off Family.jet by diffgeo._jets, and _stencil takes all five angles in one pass.
Each check group calls diffgeo's stages, which return masks where the scalar oracles
raise, and gives (values, ok); one accumulator folds them into the maxima, a point where
ok is False counting as inf.  The sweep forms only |E - E_closed|, |G - G_closed|,
|e^{2i beta} + 1|, |v1 - v2|, |K - 1| and G on tube points.  The report does not depend
on CHUNK, which bounds the memory a sweep holds (measured in BENCH_38.json).

Floating-point policy: both sweeps compute each block under np.errstate(all="ignore")
(not across a yield).  A check fails a non-finite value (inf where a point fails, NaN
sticky) and the CSV prints it, so a numpy warning would tell nothing the output does not.
"""

import time

import numpy as np

from .diffgeo import (_abs, _angles, _frame_data, _jets, _stencil, _stencil_rows, angle_defect,
                      basis_conditioned, beta_gradient, christoffel_b_defects, christoffel_data,
                      frame_defects, gauss_curvature_masked, gradient_identity_defects,
                      gram_defects, metric_data, metric_gradients_from_jet, minimality_defects,
                      residue_identity_defects)
from .surface_families import Family, SurfaceJet, tube_mask

CHUNK = 1024   # picked from BENCH_17.json's chunk_table (CHANGES.md, issue 17)

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


def _block(family: Family, grid, start: int) -> tuple:
    """(x, y, tube mask, stacked centre jets, MetricData, where E and G are nonzero) of the
    at most CHUNK grid points from index start, x, y from the indices (GridSpec.points)."""
    x, y = grid.points(np.arange(start, min(start + CHUNK, grid.nx * grid.ny)))  # nx ny < 2^63
    tube = np.zeros(len(x), dtype=bool) if family.curve is None else tube_mask(family.curve, x, y)
    J = family.jets(x, y)
    return x, y, tube, J, *metric_data(SurfaceJet(x, y, *J))


def check_maxima(family: Family, grid, h: float) -> tuple:
    """Masked max of every per-point check over the grid.

    Returns (maxima, tube_points, timings): check name -> max defect (NaN
    sticky, inf where a point failed the check), the number of grid points in
    the degeneracy tube, and seconds per phase.  The checks from the angle on
    read only the points outside the tube; tube points feed "tube_G_bound",
    present only if there are any.  report.CHECKS orders the checks.
    Raises ValueError when the first point outside the tube has a rejected
    angle (it fixes the reference angle) or no point lies outside the tube.
    """
    curve = family.curve
    timer = Timings()
    maxima, tube_points, beta_ref = {}, 0, None

    def fold(phase, names, values, ok=True):
        # NaN-sticky running max in which a point where ok is False counts as inf
        timer.lap(phase)
        block = np.max(np.where(ok, np.array(list(values)), np.inf), axis=-1, initial=-np.inf)
        for name, v in zip(names, block):
            maxima[name] = np.maximum(maxima.get(name, -np.inf), v)
        timer.lap("reduce")

    with np.errstate(all="ignore"):
        for start in range(0, grid.nx * grid.ny, CHUNK):
            x, y, tube, J, md, metric_ok = _block(family, grid, start)
            timer.lap("jets")
            jet = SurfaceJet(x, y, *J)
            fold("metric", GRAM_NAMES, gram_defects(jet))
            fold("metric", METRIC_NAMES, (np.abs(md.E - family.metric.E(x, y)),
                                          np.abs(md.G - family.metric.G(x, y))))
            if curve is not None:
                fold("residue", RESIDUE_NAMES, residue_identity_defects(curve, jet))

            if tube.any():
                fold("metric", ["tube_G_bound"], [md.G[tube]])
                tube_points += int(tube.sum())
            if tube.all():  # no point outside the tube: no angle stage
                continue
            act = np.flatnonzero(~tube)   # the stencil of the points outside the tube
            xa, ya, Ja = x[act], y[act], J[:, act]
            S = _stencil_rows(Ja[:3], lambda xs, ys: _jets(family.jet, xs, ys), xa, ya, h)
            timer.lap("stencil")
            beta, centre_ok, angles_ok, frame_ok = _stencil(S)
            if beta_ref is None:
                if not centre_ok[0]:
                    raise ValueError("Lagrangian angle rejected at the reference point "
                                     f"({xa[0]}, {ya[0]}), the first outside the degeneracy tube")
                beta_ref = beta[0, 0]
            fold("angle", ["beta_constant"],
                 [angle_defect(beta[0], beta_ref, family.beta_period)], centre_ok)
            if curve is not None:
                fold("angle", ["beta_e2i_plus_one"], [_abs(np.exp(2j * beta[0]) + 1.0)], centre_ok)
            if curve is None:   # -inf where the centre angle is rejected or E or G is 0
                fold("metric", ["metric_anisotropy"], [np.where(
                    centre_ok & metric_ok[act], np.abs(md.v1 - md.v2)[act], -np.inf)])
            ja, Ea, Ga = SurfaceJet(xa, ya, *Ja), md.E[act], md.G[act]
            ch = christoffel_data(ja)
            fold("christoffel", CHRISTOFFEL_NAMES, (
                *christoffel_b_defects(ch, Ea, Ga),
                *gradient_identity_defects(ch, metric_gradients_from_jet(ja, Ea, Ga),
                                           beta_gradient(beta[1:], h)),
                *minimality_defects(ch)), basis_conditioned(ja) & metric_ok[act] & angles_ok)
            fold("frame", FRAME_NAMES, frame_defects(_frame_data(S, beta, h)).values(), frame_ok)
            if curve is not None:
                K, pos = gauss_curvature_masked(family.metric, xa, ya, h)
                fold("curvature", ["curvature_K_minus_1"], [np.abs(K - 1.0)], pos & centre_ok)

    if beta_ref is None:
        raise ValueError("no grid point outside the degeneracy tube")
    return maxima, tube_points, timer.to_dict()


def sample_blocks(family: Family, grid, h: float):
    """Per block (_sample_block, so none is held between blocks): x, y, phi, E, G, beta, K and
    the masks where beta and K are defined (outside the tube; angle accepted; metric positive)."""
    return (_sample_block(family, grid, h, start) for start in range(0, grid.nx * grid.ny, CHUNK))


def _sample_block(family: Family, grid, h: float, start: int) -> tuple:
    with np.errstate(all="ignore"):
        x, y, tube, J, md, _ = _block(family, grid, start)
        beta, ok, _, _ = _angles(J)
        K, pos = gauss_curvature_masked(family.metric, x, y, h)
    return x, y, J[0].copy(), md.E, md.G, beta, ~tube & ok, K, ~tube & pos   # a copy: J is freed
