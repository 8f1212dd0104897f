"""Surface jets for the two concrete families: spectral and elementary cone.

A jet carries the map value phi: R^2 -> C^3 together with first and second
partial derivatives at one point.  Both families are finite sums of terms
const * e^{i(p x + q y)} (plus one real amplitude factor for the cone's third
component), so every derivative is exact coefficient algebra; finite
differences exist only as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .baker_akhiezer import f_coefficients
from .spectral_curve import ReducibleCurveData


@dataclass(frozen=True)
class SurfaceJet:
    x: float
    y: float
    phi: np.ndarray
    phi_x: np.ndarray
    phi_y: np.ndarray
    phi_xx: np.ndarray
    phi_xy: np.ndarray
    phi_yy: np.ndarray


@dataclass(frozen=True)
class MetricField:
    """Closed-form diagonal metric E dx^2 + G dy^2 with optional first derivatives.

    E, G, E_y, G_x are callables of (x, y), written in numpy ufuncs so that
    they take scalars or arrays of points alike; E_y/G_x may be None, in which
    case curvature falls back to nested finite differences.
    """

    E: object
    G: object
    E_y: object = None
    G_x: object = None

    def without_derivatives(self) -> "MetricField":
        return MetricField(E=self.E, G=self.G)


@lru_cache(maxsize=64)
def _spectral_exp_terms(curve: ReducibleCurveData):
    """Coefficient, frequency and derivative-factor arrays (3 components x 2 terms each).

    phi_i = alpha_i * psi_2(x, y, Q_i) collapses to

        pre_i * Aplus_i * e^{i(a x + (Q_i - b) y)}
      + pre_i * Aminus_i * e^{i(-a x + (Q_i + b) y)}

    with Aplus = (b - gamma)(Q + b)/(Q - gamma) and
    Aminus = (b + gamma)(Q - b)/(Q - gamma).  F stacks the factors
    [1, dx, dy, dx^2, dx dy, dy^2] (dx = i P, dy = i Q) that turn the terms
    into the six jet fields.
    """
    a, b, gamma, d = curve.a, curve.b, curve.gamma, curve.d
    C = np.empty((3, 2), dtype=complex)
    P = np.empty((3, 2))
    Q = np.empty((3, 2))
    for i, (alpha_i, Qi) in enumerate(zip(curve.alpha, curve.Q)):
        pre = alpha_i * d / (2.0 * b)
        C[i, 0] = pre * (b - gamma) * (Qi + b) / (Qi - gamma)
        C[i, 1] = pre * (b + gamma) * (Qi - b) / (Qi - gamma)
        P[i] = (a, -a)
        Q[i] = (Qi - b, Qi + b)
    dx = 1j * P
    dy = 1j * Q
    F = np.array([np.ones_like(dx), dx, dy, dx * dx, dx * dy, dy * dy])
    for arr in (C, P, Q, F):
        arr.setflags(write=False)
    return C, P, Q, F


def spectral_family_jet(curve: ReducibleCurveData, x: float, y: float) -> SurfaceJet:
    """Jet of phi_i = alpha_i * psi_2(x, y, Q_i); derivatives are exact."""
    C, P, Q, F = _spectral_exp_terms(curve)
    return SurfaceJet(x, y, *(F * (C * np.exp(1j * (P * x + Q * y)))).sum(axis=-1))


@lru_cache(maxsize=64)
def _cone_terms(m: int, n: int):
    """Amplitude constants, iq for the y-frequencies q, and the factors
    [1, 1, iq, 1, iq, -q^2] that turn the amplitude rows (u, u', u, u'', u', u)
    into the six jet fields."""
    q = np.array([math.pi * m, math.pi * n, -math.pi * (m + n)])
    iq = 1j * q
    W = np.array([np.ones(3), np.ones(3), iq, np.ones(3), iq, -(q * q)], dtype=complex)
    iq.setflags(write=False)
    W.setflags(write=False)
    return (math.sqrt((m + n) / (2 * m + n)), math.sqrt((m + n) / (m + 2 * n)),
            n / (m + 2 * n), m / (2 * m + n), iq, W)


# amplitude row (0: u, 1: u', 2: u'') under each jet field
_CONE_ROWS = np.array([0, 1, 0, 2, 1, 0])


def cone_family_jet(m: int, n: int, x: float, y: float) -> SurfaceJet:
    """Jet of the elementary family

    phi = (sin(x) sqrt(m+n)/sqrt(2m+n) e^{pi i m y},
           cos(x) sqrt(m+n)/sqrt(m+2n) e^{pi i n y},
           sqrt(n cos^2 x/(m+2n) + m sin^2 x/(2m+n)) e^{-pi i (m+n) y}).
    """
    if m < 1 or n < 1:
        raise ValueError(f"m, n must be positive integers, got {m}, {n}")
    k1, k2, A, B, iq, W = _cone_terms(m, n)
    sx, cx = math.sin(x), math.cos(x)
    rho = math.sqrt(A * cx * cx + B * sx * sx)  # >= min(A, B) > 0
    s = (B - A) * sx * cx
    rho_p = s / rho
    rho_pp = (B - A) * math.cos(2 * x) / rho - s * s / rho ** 3
    u = np.array([[k1 * sx, k2 * cx, rho], [k1 * cx, -k2 * sx, rho_p],
                  [-k1 * sx, -k2 * cx, rho_pp]])
    return SurfaceJet(x, y, *(W * u[_CONE_ROWS] * np.exp(iq * y)))


def fd_jet(evaluator, x: float, y: float, h: float) -> SurfaceJet:
    """O(h^2) central-difference jet of a point map (x, y) -> C^3."""
    if h <= 0:
        raise ValueError("h must be positive")
    f = lambda xx, yy: np.asarray(evaluator(xx, yy), dtype=complex)
    c = f(x, y)
    xp, xm = f(x + h, y), f(x - h, y)
    yp, ym = f(x, y + h), f(x, y - h)
    pp, pm = f(x + h, y + h), f(x + h, y - h)
    mp, mm = f(x - h, y + h), f(x - h, y - h)
    return SurfaceJet(
        x=x, y=y,
        phi=c,
        phi_x=(xp - xm) / (2 * h),
        phi_y=(yp - ym) / (2 * h),
        phi_xx=(xp - 2 * c + xm) / h ** 2,
        phi_yy=(yp - 2 * c + ym) / h ** 2,
        phi_xy=(pp - pm - mp + mm) / (4 * h ** 2),
    )


def hopf_representative(phi) -> np.ndarray:
    """Canonical homogeneous representative of [phi] in CP^2.

    Unit norm, with the first component of magnitude above 1e-12 rotated to
    the positive real axis.  Used for point-cloud export and CP^2-level
    comparisons only.
    """
    v = np.asarray(phi, dtype=complex)
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("cannot project the zero vector")
    v = v / norm
    idx = next(i for i in range(v.size) if abs(v[i]) > 1e-12)
    return v * np.exp(-1j * np.angle(v[idx]))


def spectral_metric_field(curve: ReducibleCurveData) -> MetricField:
    """Closed-form induced metric: E = a^2 constant, G = c * f2(x, y)^2."""
    a, b, c, d, gi = curve.a, curve.b, curve.c, curve.d, curve.gamma_im
    E0 = a * a  # = |f1|^2 * |c1_exp|

    def G(x, y):
        f2 = f_coefficients(curve, x, y)[1]
        return c * (f2 * f2)

    def G_x(x, y):
        theta = a * x - b * y
        f2x = d * a * (-np.sin(theta) + (gi / b) * np.cos(theta))
        return 2.0 * c * f_coefficients(curve, x, y)[1] * f2x

    return MetricField(E=lambda x, y: E0, G=G, E_y=lambda x, y: 0.0, G_x=G_x)


def cone_metric_field(m: int, n: int) -> MetricField:
    """Closed-form induced metric of the cone family (depends on x only)."""
    k1sq = (m + n) / (2 * m + n)
    k2sq = (m + n) / (m + 2 * n)
    A = n / (m + 2 * n)
    B = m / (2 * m + n)
    q = (math.pi * m, math.pi * n, math.pi * (m + n))

    def rho_sq(c, s):
        return A * (c * c) + B * (s * s)

    def E(x, y):
        c, s = np.cos(x), np.sin(x)
        rho_p = (B - A) * s * c
        return k1sq * (c * c) + k2sq * (s * s) + rho_p * rho_p / rho_sq(c, s)

    def G(x, y):
        c, s = np.cos(x), np.sin(x)
        return (q[0] ** 2 * k1sq * (s * s)
                + q[1] ** 2 * k2sq * (c * c)
                + q[2] ** 2 * rho_sq(c, s))

    def G_x(x, y):
        s2 = np.sin(2 * x)
        return (q[0] ** 2 * k1sq * s2 - q[1] ** 2 * k2sq * s2
                + q[2] ** 2 * (B - A) * s2)

    return MetricField(E=E, G=G, E_y=lambda x, y: 0.0, G_x=G_x)


@dataclass(frozen=True)
class Family:
    """One surface family as the grid sweep and the CSV sampler see it.

    beta_period is pi where the frame flips orientation across degeneracy
    lines (spectral), else 2 pi.  A spectral curve brings the residue
    identities, the degeneracy tube, K = 1 and the curve-level records.
    """

    name: str
    parameters: dict
    jet: object                     # (x, y) -> SurfaceJet
    metric: MetricField
    beta_period: float
    curve: ReducibleCurveData | None = None


def spectral_family(curve: ReducibleCurveData) -> Family:
    """The surface of a spectral curve built by derive_constants."""
    return Family("spectral", {"a": curve.a, "b": curve.b, "q1": curve.Q1,
                               "gamma_im": curve.gamma_im},
                  lambda x, y: spectral_family_jet(curve, x, y),
                  spectral_metric_field(curve), math.pi, curve)


def cone_family(m: int, n: int) -> Family:
    """The elementary cone surface of orders m, n >= 1."""
    if m < 1 or n < 1:
        raise ValueError(f"m, n must be positive integers, got {m}, {n}")
    return Family("cone", {"m": m, "n": n}, lambda x, y: cone_family_jet(m, n, x, y),
                  cone_metric_field(m, n), 2.0 * math.pi)


def degeneracy_angle(curve: ReducibleCurveData) -> float:
    """theta* with f2 = 0 on the lines a*x - b*y = theta* (mod pi).

    f2 vanishes iff cos(theta) + (gamma_im/b) sin(theta) = 0, i.e.
    tan(theta) = -b/gamma_im.  The induced metric coefficient G vanishes
    exactly on these lines and the immersion degenerates there.
    """
    return math.atan2(-curve.b, curve.gamma_im) % math.pi


TUBE_RADIUS = 1e-2  # half-width, in a*x - b*y, of the tube the angle checks exclude


def in_degeneracy_tube(curve: ReducibleCurveData, x: float, y: float,
                       radius: float = TUBE_RADIUS) -> bool:
    """Whether a*x - b*y is within radius of a degeneracy line (mod pi)."""
    theta = curve.a * x - curve.b * y
    return abs(math.remainder(theta - degeneracy_angle(curve), math.pi)) < radius
