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

    E, G, E_y, G_x are callables of (x, y); E_y/G_x may be None, in which case
    curvature falls back to nested finite differences.
    """

    E: object
    G: object
    E_y: object = None
    G_x: object = None

    def without_derivatives(self) -> "MetricField":
        return MetricField(E=self.E, G=self.G)


@lru_cache(maxsize=64)
def _spectral_exp_terms(curve: ReducibleCurveData):
    """Coefficient and frequency arrays (3 components x 2 terms each).

    phi_i = alpha_i * psi_2(x, y, Q_i) collapses to

        pre_i * Aplus_i * e^{i(a x + (Q_i - b) y)}
      + pre_i * Aminus_i * e^{i(-a x + (Q_i + b) y)}

    with Aplus = (b - gamma)(Q + b)/(Q - gamma) and
    Aminus = (b + gamma)(Q - b)/(Q - gamma).
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
    C.setflags(write=False)
    P.setflags(write=False)
    Q.setflags(write=False)
    return C, P, Q


def spectral_family_jet(curve: ReducibleCurveData, x: float, y: float) -> SurfaceJet:
    """Jet of phi_i = alpha_i * psi_2(x, y, Q_i); derivatives are exact."""
    C, P, Q = _spectral_exp_terms(curve)
    t = C * np.exp(1j * (P * x + Q * y))
    dx = 1j * P
    dy = 1j * Q
    return SurfaceJet(
        x=x, y=y,
        phi=t.sum(axis=1),
        phi_x=(dx * t).sum(axis=1),
        phi_y=(dy * t).sum(axis=1),
        phi_xx=(dx * dx * t).sum(axis=1),
        phi_xy=(dx * dy * t).sum(axis=1),
        phi_yy=(dy * dy * t).sum(axis=1),
    )


def cone_family_jet(m: int, n: int, x: float, y: float) -> SurfaceJet:
    """Jet of the elementary family

    phi = (sin(x) sqrt(m+n)/sqrt(2m+n) e^{pi i m y},
           cos(x) sqrt(m+n)/sqrt(m+2n) e^{pi i n y},
           sqrt(n cos^2 x/(m+2n) + m sin^2 x/(2m+n)) e^{-pi i (m+n) y}).
    """
    if m < 1 or n < 1:
        raise ValueError(f"m, n must be positive integers, got {m}, {n}")
    k1 = math.sqrt((m + n) / (2 * m + n))
    k2 = math.sqrt((m + n) / (m + 2 * n))
    A = n / (m + 2 * n)
    B = m / (2 * m + n)
    sx, cx = math.sin(x), math.cos(x)
    rho = math.sqrt(A * cx * cx + B * sx * sx)  # >= min(A, B) > 0
    s = (B - A) * sx * cx
    rho_p = s / rho
    rho_pp = (B - A) * math.cos(2 * x) / rho - s * s / rho ** 3

    u = np.array([k1 * sx, k2 * cx, rho])
    u_p = np.array([k1 * cx, -k2 * sx, rho_p])
    u_pp = np.array([-k1 * sx, -k2 * cx, rho_pp])
    q = np.array([math.pi * m, math.pi * n, -math.pi * (m + n)])
    e = np.exp(1j * q * y)
    return SurfaceJet(
        x=x, y=y,
        phi=u * e,
        phi_x=u_p * e,
        phi_y=1j * q * u * e,
        phi_xx=u_pp * e,
        phi_xy=1j * q * u_p * e,
        phi_yy=-(q * q) * u * e,
    )


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

    def f2x(x, y):
        theta = a * x - b * y
        return d * a * (-math.sin(theta) + (gi / b) * math.cos(theta))

    return MetricField(
        E=lambda x, y: E0,
        G=lambda x, y: c * f_coefficients(curve, x, y)[1] ** 2,
        E_y=lambda x, y: 0.0,
        G_x=lambda x, y: 2.0 * c * f_coefficients(curve, x, y)[1] * f2x(x, y),
    )


def cone_metric_field(m: int, n: int) -> MetricField:
    """Closed-form induced metric of the cone family (depends on x only)."""
    k1sq = (m + n) / (2 * m + n)
    k2sq = (m + n) / (m + 2 * n)
    A = n / (m + 2 * n)
    B = m / (2 * m + n)
    q = (math.pi * m, math.pi * n, math.pi * (m + n))

    def rho_sq(x):
        return A * math.cos(x) ** 2 + B * math.sin(x) ** 2

    def rho_p_sq(x):
        return ((B - A) * math.sin(x) * math.cos(x)) ** 2 / rho_sq(x)

    def E(x, y):
        return k1sq * math.cos(x) ** 2 + k2sq * math.sin(x) ** 2 + rho_p_sq(x)

    def G(x, y):
        return (q[0] ** 2 * k1sq * math.sin(x) ** 2
                + q[1] ** 2 * k2sq * math.cos(x) ** 2
                + q[2] ** 2 * rho_sq(x))

    def G_x(x, y):
        s2 = math.sin(2 * x)
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


def in_degeneracy_tube(curve: ReducibleCurveData, x: float, y: float,
                       radius: float = 1e-2) -> bool:
    """Whether a*x - b*y is within radius of a degeneracy line (mod pi)."""
    theta = curve.a * x - curve.b * y
    return abs(math.remainder(theta - degeneracy_angle(curve), math.pi)) < radius
