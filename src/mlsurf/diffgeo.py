"""Differential-geometric identity checks on surface jets.

Each defect function and stage (metric_data, _angles, _stencil, basis_conditioned,
christoffel_data, _frame_data, gauss_curvature_masked) takes one point or a stack of n
points (a SurfaceJet whose fields are (n, 3) arrays), gives the same bits for a point
alone as in a stack, and never raises: it returns the masks the sweep folds.  Each scalar
oracle is its stage on one point plus a raise where a mask fails.  _stencil_rows lays out
the five stencil points for the sweep and the oracles alike.  The conventions:

  * Hermitian product <u, w> = sum_i u_i * conj(w_i) (second slot conjugated).
  * Metric notation |phi_x|^2 = 2 e^{v1}, |phi_y|^2 = 2 e^{v2}; E and G are
    the diagonal metric coefficients themselves.
  * Christoffel system phi_xx = G111 phi_x + G112 phi_y + b11 phi (and the
    xy / yy analogues); field names are G{i}{j}{k} for the coefficient of the
    k-th basis direction in the (i, j) equation.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from .baker_akhiezer import f_coefficients
from .spectral_curve import ReducibleCurveData
from .surface_families import MetricField, SurfaceJet, _remainder

CONDITION_LIMIT = 1e8
UNITARITY_GATE = 1e-6
MIN_STENCIL_NORM = 1e-8  # |phi_x| and |phi_y| at a frame stencil point
_TWO_PI = 2.0 * math.pi


def herm(u, w):
    """Hermitian product conjugating the second slot, of two vectors or row by row."""
    return np.vecdot(w, u)


def gram_defects(jet: SurfaceJet) -> np.ndarray:
    """(|<phi,phi>-1|, |<phi,phi_x>|, |<phi,phi_y>|, |<phi_x,phi_y>|)."""
    p, px, py = jet.phi, jet.phi_x, jet.phi_y
    return _abs(np.array([herm(p, p) - 1.0, herm(p, px), herm(p, py), herm(px, py)]))


class MetricData(NamedTuple):
    v1: float
    v2: float
    E: float
    G: float


def metric_data(jet: SurfaceJet) -> tuple:
    """(MetricData, where E and G are nonzero) at one point or a stack; v1, v2 by np.log."""
    E, G = np.sum(np.abs(jet.phi_x) ** 2, axis=-1), np.sum(np.abs(jet.phi_y) ** 2, axis=-1)
    return MetricData(np.log(E / 2.0), np.log(G / 2.0), E, G), (E != 0.0) & (G != 0.0)


def metric_from_jet(jet: SurfaceJet) -> MetricData:
    """metric_data at one point, as floats; raises where E or G is 0."""
    with np.errstate(divide="ignore"):
        md, ok = metric_data(jet)
    if not ok:
        raise ValueError("degenerate immersion point: a first derivative vanishes")
    return MetricData(*map(float, md))


def metric_gradients_from_jet(jet: SurfaceJet, E, G) -> dict:
    """Analytic v1/v2 gradients via E_x = 2 Re<phi_xx, phi_x> etc., given E and G."""
    return {"v1x": 2.0 * herm(jet.phi_xx, jet.phi_x).real / E,
            "v1y": 2.0 * herm(jet.phi_xy, jet.phi_x).real / E,
            "v2x": 2.0 * herm(jet.phi_xy, jet.phi_y).real / G,
            "v2y": 2.0 * herm(jet.phi_yy, jet.phi_y).real / G}


# Elementwise shims (Python's abs and np.linalg.norm on arrays) and closed-form 3x3 kernels,
# shared by the oracles and the sweep.  A matrix is given by its rows m[0], m[1], m[2],
# each an array (..., 3): a (3, 3) array, or (3, n, 3) for n matrices.
def _abs(z):
    """abs() of each complex number as Python computes it (np.abs rounds differently)."""
    return np.hypot(z.real, z.imag)


def _norm(v):
    """np.linalg.norm of each row, bit for bit (norm(axis=-1) rounds differently)."""
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


def _cross(u, v):
    i, j = [1, 2, 0], [2, 0, 1]
    return u[..., i] * v[..., j] - u[..., j] * v[..., i]


def _det3(m):
    """det by cofactor expansion, m[0] . (m[1] x m[2]) summed left to right; NaN wherever a
    matrix holds a NaN (0 * NaN is NaN), where LAPACK's LU may read 0."""
    a, b, c = m
    x = _cross(b, c)
    return a[..., 0] * x[..., 0] + a[..., 1] * x[..., 1] + a[..., 2] * x[..., 2]


def _inv3(m):
    """Inverse as the adjugate over _det3: the cofactor rows are b x c, c x a, a x b.
    Non-finite where the det is 0; it never raises."""
    a, b, c = m
    return np.swapaxes([_cross(b, c), _cross(c, a), _cross(a, b)], 0, -1) / _det3(m)[..., None]


def _mul3(p, q):
    """The products p q: row i is p_i0 q[0] + p_i1 q[1] + p_i2 q[2], summed left to right."""
    return p[..., 0, None] * q[0] + p[..., 1, None] * q[1] + p[..., 2, None] * q[2]


def _solve3(m, r):
    """The rows of x with m x = r, r given by its rows (..., k), by Gaussian elimination with
    partial pivoting: each pivot is the first entry of largest |re| + |im| (LAPACK's choice),
    which is backward stable (Higham, ch. 9), as Cramer's rule is not.  Non-finite where m
    is singular or not finite: a zero pivot divides by 0, and 0 * pivot, NaN where a pivot
    is infinite (it would divide to a finite 0), is added to every row.  It never raises."""
    def key(v):
        return np.abs(v[..., :1].real) + np.abs(v[..., :1].imag)

    def eliminate(p, v):
        return v[..., 1:] - v[..., :1] / p[..., :1] * p[..., 1:]

    a, b, c = np.concatenate([m, r], axis=-1)
    ka, kb, kc = key(a), key(b), key(c)
    take_b, take_c = kb > ka, kc > np.maximum(ka, kb)
    p = np.where(take_c, c, np.where(take_b, b, a))
    u = eliminate(p, np.where(take_b | take_c, a, b))
    w = eliminate(p, np.where(take_c, b, c))
    take_w = key(w) > key(u)
    q = np.where(take_w, w, u)
    s = eliminate(q, np.where(take_w, u, w))
    nan_if_inf = 0.0 * p[..., :1] + 0.0 * q[..., :1] + 0.0 * s[..., :1]
    x2 = s[..., 1:] / s[..., :1] + nan_if_inf
    x1 = (q[..., 2:] - q[..., 1:2] * x2) / q[..., :1] + nan_if_inf
    x0 = (p[..., 3:] - p[..., 1:2] * x1 - p[..., 2:3] * x2) / p[..., :1] + nan_if_inf
    return np.stack([x0, x1, x2])


def _angles(J) -> tuple:
    """(beta, accepted, |phi_x|, |phi_y|) of the rows J = (phi, phi_x, phi_y), each (..., 3):
    beta = arg det of the frame (phi, phi_x/|phi_x|, phi_y/|phi_y|), accepted where both
    norms are nonzero and |det| lies within UNITARITY_GATE of the unit circle."""
    nx, ny = _norm(J[1]), _norm(J[2])
    with np.errstate(divide="ignore", invalid="ignore"):   # a zero norm is rejected
        det = _det3((J[0], J[1] / nx[..., None], J[2] / ny[..., None]))
    ok = (nx != 0.0) & (ny != 0.0) & ~(np.abs(_abs(det) - 1.0) > UNITARITY_GATE)
    return np.angle(det), ok, nx, ny


def lagrangian_angle(jet: SurfaceJet) -> float:
    """beta = arg det of the unitary frame (phi, phi_x/|phi_x|, phi_y/|phi_y|).

    Raises when |det| strays from the unit circle by more than 1e-6, which
    signals a non-Lagrangian jet or a degenerate point.
    """
    beta, ok, nx, ny = _angles((jet.phi, jet.phi_x, jet.phi_y))
    if nx == 0.0 or ny == 0.0:
        raise ValueError("degenerate immersion point: a first derivative vanishes")
    if not ok:
        raise ValueError("frame determinant off the unit circle")
    return float(beta)


def angle_defect(beta, beta_ref: float, period: float):
    """Distance from beta - beta_ref to the nearest multiple of period.

    The period is pi where the frame's derivative rows reverse orientation
    across metric-degeneracy lines, flipping beta by pi; e^{2 i beta} (the
    quantity the construction pins down) is insensitive to that flip.
    Elsewhere it is 2 pi.
    """
    return np.abs(_remainder(beta - beta_ref, period))


class ChristoffelData(NamedTuple):
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


def basis_conditioned(jet: SurfaceJet):
    """Where the moving basis (phi_x, phi_y, phi) is finite and np.linalg.cond(basis) <=
    CONDITION_LIMIT, bit for bit, at one point or a stack, with the SVD run only on the
    finite bases Gershgorin's theorem cannot certify.  It warns of nothing, and only that
    SVD can raise (LinAlgError, where it does not converge).

    M = basis^H basis is Hermitian with eigenvalues sigma_i^2, so cond^2 = lambda_max /
    lambda_min, and every eigenvalue lies in [lo, hi], lo = min_i (M_ii - R_i), hi = max_i
    (M_ii + R_i), R_i the sum of |M_ij| off the diagonal.  M's diagonal is (E, G, |phi|^2)
    and, on a Lagrangian surface, its off-diagonal entries are Gram defects of about 1e-16,
    so the bound is tight.  This route squares the condition number (at cond 1e8,
    lambda_min / lambda_max is below the rounding of M's entries), so a margin on cond
    alone proves nothing; the slack delta = 2^-44 tr(M) bounds the error of the computed M
    (|M^_ij - M_ij| <= g sqrt(M_ii M_jj), so ||M^ - M||_2 <= 3 g tr(M), g a few units of
    2^-53) and of lo and hi (a few roundings of size <= 2 tr(M)) with room to spare, and
    tr(M) >= 2^-900 keeps every underflow far below delta.  A point with hi + delta finite
    (so every entry of M is), lo - delta > 0 and hi + delta <= (lo - delta)
    (CONDITION_LIMIT / 4)^2 has a true cond of at most CONDITION_LIMIT / 4, which numpy's
    backward-stable SVD reads within CONDITION_LIMIT.  A non-finite basis fails; every
    other point (overflow, underflow, cond near or above the limit) takes np.linalg.cond."""
    basis = np.stack([jet.phi_x, jet.phi_y, jet.phi], axis=-1)
    shape, basis = basis.shape[:-2], basis.reshape(-1, 3, 3)
    with np.errstate(all="ignore"):
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
    return ok.reshape(shape)


def christoffel_solve(jet: SurfaceJet) -> ChristoffelData:
    """Scalar oracle: the three 3x3 systems phi_ss = G^1 phi_x + G^2 phi_y + b phi solved
    (christoffel_data) where basis_conditioned holds."""
    if not basis_conditioned(jet):
        if not np.isfinite([jet.phi_x, jet.phi_y, jet.phi]).all():
            raise ValueError("moving basis is not finite")
        raise ValueError(f"moving basis ill-conditioned: cond > {CONDITION_LIMIT:g}")
    return christoffel_data(jet)


def christoffel_data(jet: SurfaceJet) -> ChristoffelData:
    """christoffel_solve without its gate, at one point or a stack: non-finite where the
    basis is singular or not finite, and it never raises."""
    # the basis and the right-hand sides phi_xx, phi_xy, phi_yy as rows: row i holds their
    # i-th components; solution row 0 holds the coefficients of phi_x, 1 of phi_y, 2 of phi
    g1, g2, b = _solve3(np.swapaxes([jet.phi_x, jet.phi_y, jet.phi], 0, -1),
                        np.swapaxes([jet.phi_xx, jet.phi_xy, jet.phi_yy], 0, -1))
    return ChristoffelData(
        G111=g1[..., 0], G112=g2[..., 0], b11=b[..., 0],
        G121=g1[..., 1], G122=g2[..., 1], b12=b[..., 1],
        G221=g1[..., 2], G222=g2[..., 2], b22=b[..., 2],
    )


def christoffel_b_defects(ch: ChristoffelData, E, G) -> np.ndarray:
    """Relative defects of b11 = -2e^{v1} = -E, b12 = 0, b22 = -2e^{v2} = -G.

    b12 is scaled by sqrt(E*G), the natural symmetric magnitude of the other
    two targets.
    """
    return np.array([_abs(ch.b11 + E) / E, _abs(ch.b12) / np.sqrt(E * G), _abs(ch.b22 + G) / G])


def gradient_identity_defects(ch: ChristoffelData, metric_grads: dict, beta_grads) -> np.ndarray:
    """Defects of G111 + G122 = (v1x + v2x)/2 + i beta_x and the y analogue."""
    bx, by = beta_grads
    return _abs(np.array([
        ch.G111 + ch.G122 - (0.5 * (metric_grads["v1x"] + metric_grads["v2x"]) + 1j * bx),
        ch.G121 + ch.G222 - (0.5 * (metric_grads["v1y"] + metric_grads["v2y"]) + 1j * by),
    ]))


def minimality_defects(ch: ChristoffelData) -> np.ndarray:
    """(|Im(G111 + G122)|, |Im(G121 + G222)|); both vanish iff minimal."""
    return np.abs(np.array([(ch.G111 + ch.G122).imag, (ch.G121 + ch.G222).imag]))


class FrameData(NamedTuple):
    Phi: np.ndarray
    beta: float
    A: np.ndarray
    B: np.ndarray


def _twisted_frame(J, beta) -> np.ndarray:
    """SU(3) frames of the rows J = (phi, phi_x, phi_y), each (..., 3), and their angles
    beta (...): rows phi, e^{-i beta/2} phi_x/|phi_x|, e^{-i beta/2} phi_y/|phi_y|."""
    tw = np.exp(-0.5j * beta)[..., None]
    return np.stack([J[0], tw * J[1] / _norm(J[1])[..., None], tw * J[2] / _norm(J[2])[..., None]])


def _frame_data(S, beta, h: float) -> FrameData:
    """FrameData from the rows S = (phi, phi_x, phi_y), each (5, ..., 3), at the centre and
    at (x + h, y), (x - h, y), (x, y + h), (x, y - h), and their angles beta (5, ...).
    Each angle is unwrapped to the nearest value of the centre's, so the half-angle twist
    stays continuous; A and B are central differences over 2h.  The inverse is non-finite
    where Phi is singular, and it never raises."""
    Phi, xp, xm, yp, ym = np.swapaxes(
        _twisted_frame(S, beta[0] + _remainder(beta - beta[0], _TWO_PI)), 0, 1)
    inv = _inv3(Phi)
    return FrameData(Phi, beta[0], _mul3((xp - xm) / (2.0 * h), inv),
                     _mul3((yp - ym) / (2.0 * h), inv))


def _stencil(S) -> tuple:
    """(beta, centre_ok, angles_ok, frame_ok) of the rows S = (phi, phi_x, phi_y), each
    (k, ..., 3), at a centre (slot 0) and its neighbours: their angles, where the centre's
    is accepted, where all are, and where also no neighbour's |phi_x| or |phi_y| is below
    MIN_STENCIL_NORM."""
    beta, ok, nx, ny = _angles(S)
    wide = (~(nx[1:] < MIN_STENCIL_NORM) & ~(ny[1:] < MIN_STENCIL_NORM)).all(axis=0)
    return beta, ok[0], ok.all(axis=0), ok.all(axis=0) & wide


def _jets(jet, xs, ys) -> np.ndarray:
    """phi, phi_x and phi_y (the rows the stencil checks read) as (3, n, 3), one scalar
    jet call per point."""
    out = np.empty((3, len(xs), 3), dtype=complex)
    phi, phi_x, phi_y = out
    for k, (x, y) in enumerate(zip(xs.tolist(), ys.tolist())):
        j = jet(x, y)   # copied now: a list of jets would hold 1 kB a point
        phi[k], phi_x[k], phi_y[k] = j[2], j[3], j[4]
    return out


def _stencil_rows(centre, rows_at, x, y, h: float) -> np.ndarray:
    """The rows S = (phi, phi_x, phi_y) as (3, 5, n, 3): centre's (3, n, 3) at the n points
    (x, y) in slot 0, then rows_at(xs, ys) at (x + h, y), (x - h, y), (x, y + h), (x, y - h)."""
    xs, ys = np.concatenate([x + h, x - h, x, x]), np.concatenate([y, y, y + h, y - h])
    return np.concatenate([centre, rows_at(xs, ys)], axis=1).reshape(3, 5, len(x), 3)


def frame_and_connection(jet_field, x: float, y: float, h: float = 1e-4) -> FrameData:
    """Scalar oracle: the frame Phi at (x, y) and A = Phi_x Phi^-1, B = Phi_y Phi^-1 by
    central differences with step h: _frame_data where each _stencil mask holds."""
    xs, ys, rows = np.array([x]), np.array([y]), functools.partial(_jets, jet_field)
    S = _stencil_rows(rows(xs, ys), rows, xs, ys, h)[:, :, 0]
    beta, centre_ok, angles_ok, frame_ok = _stencil(S)
    if not centre_ok:
        raise ValueError("Lagrangian angle rejected at the stencil centre")
    if not angles_ok:
        raise ValueError("Lagrangian angle rejected at a stencil neighbour")
    if not frame_ok:
        raise ValueError("stencil crosses a degenerate point")
    return _frame_data(S, beta, h)


def frame_defects(fd: FrameData) -> dict:
    """Residuals of every FrameData invariant, for reporting.  The pattern checks take
    np.maximum, which keeps a NaN entry (Python's max drops a NaN that comes second)."""
    A, B = fd.A, fd.B
    U = _mul3(fd.Phi, np.conj(fd.Phi).swapaxes(0, -1))
    for k in range(3):
        U[k][..., k] -= 1.0   # Phi Phi^H - I
    return {
        "unitarity": np.abs(U).max(axis=(0, -1)),
        "det_unit": _abs(_det3(fd.Phi) - 1.0),
        "A_antiherm": np.abs(A + np.conj(A).swapaxes(0, -1)).max(axis=(0, -1)),
        "B_antiherm": np.abs(B + np.conj(B).swapaxes(0, -1)).max(axis=(0, -1)),
        "A_trace": _abs(np.trace(A, axis1=0, axis2=-1)),
        "B_trace": _abs(np.trace(B, axis1=0, axis2=-1)),
        "A_pattern": np.maximum(_abs(A[0][..., 2]), _abs(A[2][..., 0])),
        "B_pattern": np.maximum(_abs(B[0][..., 1]), _abs(B[1][..., 0])),
        "f_real": np.abs(A[1][..., 1].real),
        "h_real": np.abs(B[1][..., 1].real),
    }


def beta_gradient(betas, h: float):
    """(beta_x, beta_y) by central differences of the angles (4, ...) at (x + h, y),
    (x - h, y), (x, y + h), (x, y - h), each difference unwrapped mod 2 pi."""
    return _remainder(betas[0::2] - betas[1::2], _TWO_PI) / (2.0 * h)


def beta_gradient_fd(jet_field, x: float, y: float, h: float = 1e-4) -> tuple:
    """Scalar oracle: central-difference gradient of the Lagrangian angle, unwrapped mod 2 pi."""
    xs, ys, rows = np.array([x]), np.array([y]), functools.partial(_jets, jet_field)
    beta, ok, _, _ = _angles(_stencil_rows(rows(xs, ys), rows, xs, ys, h)[:, 1:, 0])
    if not ok.all():
        raise ValueError("Lagrangian angle rejected at a stencil neighbour")
    return tuple(beta_gradient(beta, h))


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

    Returns (K, ok): ok is False where E or G is not positive at (x, y) or
    (x +- h, y), and K is meaningless there.  G_x is read at x +- h.
    """
    def eg(xx, yy):
        E = field.E(xx, yy)
        G = field.G(xx, yy)
        return E, G, np.logical_not((E <= 0.0) | (G <= 0.0))

    def p_term(xx, yy):
        E, G, ok = eg(xx, yy)
        return field.G_x(xx, yy) / np.sqrt(E * G), ok

    with np.errstate(divide="ignore", invalid="ignore"):
        E, G, ok = eg(x, y)
        (pp, ok_pp), (pm, ok_pm) = p_term(x + h, y), p_term(x - h, y)
        K = -((pp - pm) / (2.0 * h)) / (2.0 * np.sqrt(E * G))
    return K, ok & ok_pp & ok_pm


def gauss_curvature(field: MetricField, x: float, y: float, h: float = 1e-4) -> float:
    """K = -(1/(2 sqrt(EG))) d/dx (G_x/sqrt(EG)), which requires E independent of y.

    The outer derivative is a central difference with step h of the field's G_x.
    Raises where E or G is not positive at a stencil point.
    """
    K, ok = gauss_curvature_masked(field, x, y, h)
    if not ok:
        raise ValueError(f"metric not positive on the stencil around ({x}, {y})")
    return float(K)
