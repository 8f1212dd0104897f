"""Differential-geometric identity checks on surface jets.

Everything here is a pure per-point computation producing defect numbers;
the conventions are fixed once:

  * Hermitian product <u, w> = sum_i u_i * conj(w_i) (second slot conjugated).
  * Metric notation |phi_x|^2 = 2 e^{v1}, |phi_y|^2 = 2 e^{v2}; E and G are
    the diagonal metric coefficients themselves.
  * Christoffel system phi_xx = G111 phi_x + G112 phi_y + b11 phi (and the
    xy / yy analogues); field names are G{i}{j}{k} for the coefficient of the
    k-th basis direction in the (i, j) equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baker_akhiezer import f_coefficients
from .spectral_curve import ReducibleCurveData
from .surface_families import MetricField, SurfaceJet

CONDITION_LIMIT = 1e8
UNITARITY_GATE = 1e-6
MIN_STENCIL_NORM = 1e-8  # |phi_x| and |phi_y| at a frame stencil point


def herm(u, w) -> complex:
    """Hermitian product conjugating the second slot."""
    return complex(np.vdot(w, u))


def gram_defects(jet: SurfaceJet) -> np.ndarray:
    """(|<phi,phi>-1|, |<phi,phi_x>|, |<phi,phi_y>|, |<phi_x,phi_y>|)."""
    return np.array([
        abs(herm(jet.phi, jet.phi) - 1.0),
        abs(herm(jet.phi, jet.phi_x)),
        abs(herm(jet.phi, jet.phi_y)),
        abs(herm(jet.phi_x, jet.phi_y)),
    ])


@dataclass(frozen=True)
class MetricData:
    v1: float
    v2: float
    E: float
    G: float


def metric_from_jet(jet: SurfaceJet) -> MetricData:
    E = float(np.sum(np.abs(jet.phi_x) ** 2))
    G = float(np.sum(np.abs(jet.phi_y) ** 2))
    if E == 0.0 or G == 0.0:
        raise ValueError("degenerate immersion point: a first derivative vanishes")
    return MetricData(v1=math.log(E / 2.0), v2=math.log(G / 2.0), E=E, G=G)


def metric_gradients_from_jet(jet: SurfaceJet) -> dict:
    """Analytic v1/v2 gradients via E_x = 2 Re<phi_xx, phi_x> etc."""
    md = metric_from_jet(jet)
    Ex = 2.0 * herm(jet.phi_xx, jet.phi_x).real
    Ey = 2.0 * herm(jet.phi_xy, jet.phi_x).real
    Gx = 2.0 * herm(jet.phi_xy, jet.phi_y).real
    Gy = 2.0 * herm(jet.phi_yy, jet.phi_y).real
    return {"v1x": Ex / md.E, "v1y": Ey / md.E, "v2x": Gx / md.G, "v2y": Gy / md.G}


def lagrangian_angle(jet: SurfaceJet) -> float:
    """beta = arg det of the unitary frame (phi, phi_x/|phi_x|, phi_y/|phi_y|).

    Raises when |det| strays from the unit circle by more than 1e-6, which
    signals a non-Lagrangian jet or a degenerate point.
    """
    nx = np.linalg.norm(jet.phi_x)
    ny = np.linalg.norm(jet.phi_y)
    if nx == 0.0 or ny == 0.0:
        raise ValueError("degenerate immersion point: a first derivative vanishes")
    frame = np.array([jet.phi, jet.phi_x / nx, jet.phi_y / ny])
    det = np.linalg.det(frame)
    if abs(abs(det) - 1.0) > UNITARITY_GATE:
        raise ValueError(f"frame determinant off the unit circle: |det| = {abs(det)}")
    return float(np.angle(det))


def angle_defect(beta: float, beta_ref: float, period: float) -> float:
    """Distance from beta - beta_ref to the nearest multiple of period.

    The period is pi where the frame's derivative rows reverse orientation
    across metric-degeneracy lines, flipping beta by pi; e^{2 i beta} (the
    quantity the construction pins down) is insensitive to that flip.
    Elsewhere it is 2 pi.
    """
    return abs(math.remainder(beta - beta_ref, period))


@dataclass(frozen=True)
class ChristoffelData:
    """Connection coefficients of the moving basis (phi_x, phi_y, phi)."""

    G111: complex
    G112: complex
    G121: complex
    G122: complex
    G221: complex
    G222: complex
    b11: complex
    b12: complex
    b22: complex


def christoffel_solve(jet: SurfaceJet) -> ChristoffelData:
    """Solve the three 3x3 systems phi_ss = G^1 phi_x + G^2 phi_y + b phi.

    Requires (phi_x, phi_y, phi) linearly independent; the basis condition
    number is rejected above 1e8.
    """
    basis = np.column_stack([jet.phi_x, jet.phi_y, jet.phi])
    cond = np.linalg.cond(basis)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise ValueError(f"moving basis ill-conditioned: cond = {cond:.3e}")
    rhs = np.column_stack([jet.phi_xx, jet.phi_xy, jet.phi_yy])
    sol = np.linalg.solve(basis, rhs)
    return ChristoffelData(
        G111=sol[0, 0], G112=sol[1, 0], b11=sol[2, 0],
        G121=sol[0, 1], G122=sol[1, 1], b12=sol[2, 1],
        G221=sol[0, 2], G222=sol[1, 2], b22=sol[2, 2],
    )


def christoffel_residual(jet: SurfaceJet, ch: ChristoffelData) -> float:
    """Componentwise backward error of the solved linear systems."""
    res = 0.0
    for rhs, g1, g2, b in ((jet.phi_xx, ch.G111, ch.G112, ch.b11),
                           (jet.phi_xy, ch.G121, ch.G122, ch.b12),
                           (jet.phi_yy, ch.G221, ch.G222, ch.b22)):
        res = max(res, float(np.max(np.abs(
            rhs - g1 * jet.phi_x - g2 * jet.phi_y - b * jet.phi))))
    return res


def christoffel_b_defects(ch: ChristoffelData, metric: MetricData) -> np.ndarray:
    """Relative defects of b11 = -2e^{v1}, b12 = 0, b22 = -2e^{v2}.

    b12 is scaled by sqrt(E*G), the natural symmetric magnitude of the other
    two targets.
    """
    return np.array([
        abs(ch.b11 + metric.E) / metric.E,
        abs(ch.b12) / math.sqrt(metric.E * metric.G),
        abs(ch.b22 + metric.G) / metric.G,
    ])


def gradient_identity_defects(ch: ChristoffelData, metric_grads: dict, beta_grads: tuple) -> np.ndarray:
    """Defects of G111 + G122 = (v1x + v2x)/2 + i beta_x and the y analogue."""
    bx, by = beta_grads
    d1 = abs(ch.G111 + ch.G122
             - (0.5 * (metric_grads["v1x"] + metric_grads["v2x"]) + 1j * bx))
    d2 = abs(ch.G121 + ch.G222
             - (0.5 * (metric_grads["v1y"] + metric_grads["v2y"]) + 1j * by))
    return np.array([d1, d2])


def minimality_defects(ch: ChristoffelData) -> np.ndarray:
    """(|Im(G111 + G122)|, |Im(G121 + G222)|); both vanish iff minimal."""
    return np.array([
        abs((ch.G111 + ch.G122).imag),
        abs((ch.G121 + ch.G222).imag),
    ])


@dataclass(frozen=True)
class FrameData:
    Phi: np.ndarray
    beta: float
    A: np.ndarray
    B: np.ndarray
    f: float
    h: float


def _twisted_frame(jet: SurfaceJet, beta: float) -> np.ndarray:
    """SU(3) frame: rows phi, e^{-i beta/2} phi_x/|phi_x|, e^{-i beta/2} phi_y/|phi_y|."""
    tw = np.exp(-0.5j * beta)
    return np.array([
        jet.phi,
        tw * jet.phi_x / np.linalg.norm(jet.phi_x),
        tw * jet.phi_y / np.linalg.norm(jet.phi_y),
    ])


def _neighbours(jet_field, x: float, y: float, h: float) -> tuple:
    """Jets at (x + h, y), (x - h, y), (x, y + h), (x, y - h) and their
    Lagrangian angles; an angle is None where lagrangian_angle rejected the jet."""
    jets = tuple(jet_field(xx, yy) for xx, yy in ((x + h, y), (x - h, y), (x, y + h), (x, y - h)))
    betas = []
    for j in jets:
        try:
            betas.append(lagrangian_angle(j))
        except ValueError:
            betas.append(None)
    return jets, betas


def frame_and_connection(jet_field, x: float, y: float, h: float = 1e-4) -> FrameData:
    """Scalar oracle: the frame Phi at (x, y) and A = Phi_x Phi^-1,
    B = Phi_y Phi^-1 by central differences with step h.

    The neighbour angles are unwrapped to the nearest value of the centre
    angle so the half-angle twist stays continuous.
    """
    center = jet_field(x, y)
    beta_c = lagrangian_angle(center)

    def frame_at(j, b):
        if np.linalg.norm(j.phi_y) < MIN_STENCIL_NORM or np.linalg.norm(j.phi_x) < MIN_STENCIL_NORM:
            raise ValueError("stencil crosses a degenerate point")
        if b is None:
            raise ValueError("stencil angle off the unit circle")
        return _twisted_frame(j, beta_c + math.remainder(b - beta_c, 2.0 * math.pi))

    xp, xm, yp, ym = (frame_at(j, b) for j, b in zip(*_neighbours(jet_field, x, y, h)))
    Phi = _twisted_frame(center, beta_c)
    inv = np.linalg.inv(Phi)
    A = (xp - xm) / (2.0 * h) @ inv
    B = (yp - ym) / (2.0 * h) @ inv
    return FrameData(Phi=Phi, beta=beta_c, A=A, B=B,
                     f=float(A[1, 1].imag), h=float(B[1, 1].imag))


def frame_defects(fd: FrameData) -> dict:
    """Residuals of every FrameData invariant, for reporting."""
    eye = np.eye(3)
    unitarity = float(np.max(np.abs(fd.Phi @ fd.Phi.conj().T - eye)))
    det = np.linalg.det(fd.Phi)
    out = {
        "unitarity": unitarity,
        "det_unit": float(abs(det - 1.0)),
        "A_antiherm": float(np.max(np.abs(fd.A + fd.A.conj().T))),
        "B_antiherm": float(np.max(np.abs(fd.B + fd.B.conj().T))),
        "A_trace": float(abs(np.trace(fd.A))),
        "B_trace": float(abs(np.trace(fd.B))),
        "A_pattern": float(max(abs(fd.A[0, 2]), abs(fd.A[2, 0]))),
        "B_pattern": float(max(abs(fd.B[0, 1]), abs(fd.B[1, 0]))),
        "f_real": float(abs(fd.A[1, 1].real)),
        "h_real": float(abs(fd.B[1, 1].real)),
    }
    return out


def beta_gradient_fd(jet_field, x: float, y: float, h: float = 1e-4) -> tuple:
    """Scalar oracle: central-difference gradient of the Lagrangian angle, unwrapped mod 2 pi."""
    _, betas = _neighbours(jet_field, x, y, h)
    if None in betas:
        raise ValueError("stencil angle off the unit circle")
    bxp, bxm, byp, bym = betas
    return (math.remainder(bxp - bxm, 2.0 * math.pi) / (2.0 * h),
            math.remainder(byp - bym, 2.0 * math.pi) / (2.0 * h))


def residue_identity_defects(curve: ReducibleCurveData, jet: SurfaceJet) -> np.ndarray:
    """Absolute values of the six residue-identity sums.

    With A_k = Res_{Q_k} Omega / alpha_k^2 (identically 1 under the
    alpha = sqrt(Res) normalization) the six sums are the residue totals of
    the forms psi(P) conj(psi(mu P)) Omega and their derivative variants;
    each must vanish.  A jet whose fields are stacked (n, 3) arrays, with x
    and y arrays of n points, gives a (6, n) array.
    """
    A = np.array([r / al ** 2 for r, al in zip(curve.res_Q, curve.alpha)])
    f1, f2 = f_coefficients(curve, jet.x, jet.y)
    p, px, py = jet.phi, jet.phi_x, jet.phi_y
    sums = np.array([
        np.sum(p * np.conj(p) * A, axis=-1) + curve.d ** 2 * curve.res_r,
        np.sum(p * np.conj(px) * A, axis=-1),
        np.sum(p * np.conj(py) * A, axis=-1),
        np.sum(px * np.conj(py) * A, axis=-1),
        np.sum(px * np.conj(px) * A, axis=-1) + f1 ** 2 * curve.c1_exp,
        np.sum(py * np.conj(py) * A, axis=-1) + f2 * f2 * curve.c2_exp,
    ])
    return np.abs(sums)


def gauss_curvature_masked(field: MetricField, x, y, h: float = 1e-4) -> tuple:
    """gauss_curvature at scalars or arrays of points, with a validity mask.

    Returns (K, ok): ok is False where E or G is not positive at one of the
    five points the stencil visits, and K is meaningless there.
    """
    def eg(xx, yy):
        E = field.E(xx, yy)
        G = field.G(xx, yy)
        return E, G, np.logical_not((E <= 0.0) | (G <= 0.0))

    def p_term(xx, yy):
        E, G, ok = eg(xx, yy)
        if field.G_x is not None:
            gx = field.G_x(xx, yy)
        else:
            gx = (field.G(xx + h, yy) - field.G(xx - h, yy)) / (2.0 * h)
        return gx / np.sqrt(E * G), ok

    def s_term(xx, yy):
        E, G, ok = eg(xx, yy)
        if field.E_y is not None:
            ey = field.E_y(xx, yy)
        else:
            ey = (field.E(xx, yy + h) - field.E(xx, yy - h)) / (2.0 * h)
        return ey / np.sqrt(E * G), ok

    with np.errstate(divide="ignore", invalid="ignore"):
        E, G, ok = eg(x, y)
        (pp, ok_pp), (pm, ok_pm) = p_term(x + h, y), p_term(x - h, y)
        (sp, ok_sp), (sm, ok_sm) = s_term(x, y + h), s_term(x, y - h)
        dp = (pp - pm) / (2.0 * h)
        ds = (sp - sm) / (2.0 * h)
        K = -(dp + ds) / (2.0 * np.sqrt(E * G))
    return K, ok & ok_pp & ok_pm & ok_sp & ok_sm


def gauss_curvature(field: MetricField, x: float, y: float, h: float = 1e-4) -> float:
    """K = -(1/(2 sqrt(EG))) (d/dx (G_x/sqrt(EG)) + d/dy (E_y/sqrt(EG))).

    The outer derivatives are central differences with step h; the inner
    first derivatives G_x, E_y use the field's closed forms when registered
    and nested central differences otherwise.  Raises where E or G is not
    positive at a stencil point.
    """
    K, ok = gauss_curvature_masked(field, x, y, h)
    if not ok:
        raise ValueError(f"metric not positive on the stencil around ({x}, {y})")
    return float(K)
