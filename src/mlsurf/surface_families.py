"""Surface jets for the two concrete families: spectral and elementary cone.

A jet carries the map value phi: R^2 -> C^3 together with first and second
partial derivatives at one point.  Both families are finite sums of terms
const * e^{i(p x + q y)} (plus one real amplitude factor for the cone's third
component), so every derivative is exact coefficient algebra; finite
differences exist only as a cross-check.
"""

import math
import numbers
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .baker_akhiezer import f_coefficients
from .spectral_curve import ReducibleCurveData


class SurfaceJet(NamedTuple):
    x: float
    y: float
    phi: np.ndarray
    phi_x: np.ndarray
    phi_y: np.ndarray
    phi_xx: np.ndarray
    phi_xy: np.ndarray
    phi_yy: np.ndarray


class MetricField(NamedTuple):
    """Diagonal metric E(x) dx^2 + G(x, y) dy^2 and the x-derivative G_x of G.

    E, G, G_x are callables of (x, y), written in numpy ufuncs so that they take
    scalars or arrays of points alike; gauss_curvature needs E constant in y.
    """

    E: object
    G: object
    G_x: object


MEMO_SIZE = 4096   # entries per _Factors table; BENCH_42.json's memo_bound (CHANGES.md, issue 42)


class _Factors(dict):
    """Read-only factors v -> make(v) of one coordinate, for the curve spectral_family_jet
    last evaluated.  A zero keys as (v, sign): 0.0 == -0.0 and both hash alike.  A full table
    is cleared, not evicted: the sweep visits x innermost, so an LRU smaller than a row
    would miss on every call."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def at(self, v: float) -> np.ndarray:
        key = v if v else (v, math.copysign(1.0, v))
        f = self.get(key)
        if f is None:
            if len(self) >= MEMO_SIZE:
                self.clear()
            f = self[key] = self.make(v)
            f.setflags(write=False)
        return f


@lru_cache(maxsize=64)
def _spectral_exp_terms(curve: ReducibleCurveData):
    """The coefficient rows K (6 jet fields x 3 components x 2 terms) and the exponent
    rates dx (2 terms) and dy (3 components x 2 terms).

    phi_i = alpha_i * psi_2(x, y, Q_i) collapses to

        pre_i * Aplus_i * e^{i(a x + (Q_i - b) y)}
      + pre_i * Aminus_i * e^{i(-a x + (Q_i + b) y)}

    with Aplus = (b - gamma)(Q + b)/(Q - gamma) and
    Aminus = (b + gamma)(Q - b)/(Q - gamma): each term is C e^{dx x} e^{dy y}, an x-factor
    times a y-factor, with C = pre (Aplus, Aminus), dx = i (a, -a) (the same for every
    component) and dy = i (Q_i - b, Q_i + b).  K stacks C times the factors
    [1, dx, dy, dx^2, dx dy, dy^2] that turn the terms into the six jet fields; its phi
    row is C itself, with no product by 1.
    """
    a, b, gamma, d = curve.a, curve.b, curve.gamma, curve.d
    C = np.empty((3, 2), dtype=complex)
    for i, (alpha_i, Qi) in enumerate(zip(curve.alpha, curve.Q)):
        pre = alpha_i * d / (2.0 * b)
        C[i, 0] = pre * (b - gamma) * (Qi + b) / (Qi - gamma)
        C[i, 1] = pre * (b + gamma) * (Qi - b) / (Qi - gamma)
    dx = 1j * np.array([a, -a])
    dy = 1j * np.array([(Qi - b, Qi + b) for Qi in curve.Q])
    K = np.array([C, dx * C, dy * C, (dx * dx) * C, (dx * dy) * C, (dy * dy) * C])
    for arr in (K, dx, dy):
        arr.setflags(write=False)
    return K, dx, dy


def _spectral_factors(curve: ReducibleCurveData) -> tuple:
    """The memo slot of one curve: the curve, the table of the x-factors K e^{dx x},
    shape (6, 3, 2), and the table of the y-factors e^{dy y}, shape (3, 2)."""
    K, dx, dy = _spectral_exp_terms(curve)
    return curve, _Factors(lambda x: K * np.exp(dx * x)), _Factors(lambda y: np.exp(dy * y))


_spectral_memo = (None,)   # _spectral_factors of the curve last evaluated


def spectral_family_jet(curve: ReducibleCurveData, x: float, y: float) -> SurfaceJet:
    """Jet of phi_i = alpha_i * psi_2(x, y, Q_i); derivatives are exact.
    M = (K e^{dx x}) e^{dy y}, the product of the memoized x- and y-factors (_Factors) of
    the curve last evaluated, compared by identity; M[..., 0] + M[..., 1] sums the terms."""
    global _spectral_memo
    memo = _spectral_memo
    if memo[0] is not curve:
        memo = _spectral_memo = _spectral_factors(curve)
    _, X, E = memo
    M = X.at(x) * E.at(y)
    S = M[..., 0] + M[..., 1]
    return SurfaceJet(x, y, S[0], S[1], S[2], S[3], S[4], S[5])


def spectral_jet_field(curve: ReducibleCurveData, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """spectral_family_jet at the points (xs, ys) as one (6, n, 3) array, bit for bit: the
    same factors e^{dx x} and E = e^{dy y} in the same association, field r being
    (K_0 e^{dx_0 x}) E_0 + (K_1 e^{dx_1 x}) E_1 for its rows K_0, K_1 of the two terms.
    The points run along the last axis, so each product is a run over all of them."""
    K, dx, dy = _spectral_exp_terms(curve)
    ex = np.exp(dx[:, None] * xs)                 # (2, n)
    E = np.exp(dy.T[:, :, None] * ys)             # (2, 3, n)
    J = np.empty((6, len(xs), 3), dtype=complex)
    for r, k in enumerate(K.transpose(0, 2, 1)[..., None]):
        np.add((k[0] * ex[0]) * E[0], (k[1] * ex[1]) * E[1], out=J[r].T)
    return J


@lru_cache(maxsize=64)
def _cone_terms(m: int, n: int):
    """Amplitude constants and iq for the y-frequencies q.  Refuses orders below 1, and
    orders whose q^2 overflows."""
    if m < 1 or n < 1:
        raise ValueError(f"m, n must be positive integers, got {m}, {n}")
    if m + n > _MAX_ORDER_SUM:   # an exact int-float comparison: m may exceed any float
        raise ValueError(f"m + n must be at most about {_MAX_ORDER_SUM:.4g}, above which "
                         f"(pi (m + n))^2 overflows a double, got m = {m}, n = {n}")
    iq = 1j * np.array([math.pi * m, math.pi * n, -math.pi * (m + n)])
    iq.setflags(write=False)
    return (math.sqrt((m + n) / (2 * m + n)), math.sqrt((m + n) / (m + 2 * n)),
            n / (m + 2 * n), m / (2 * m + n), iq)


_MAX_ORDER_SUM = math.sqrt(np.finfo(float).max) / math.pi   # largest m + n, (pi (m + n))^2 finite


def _cone_rows(k1, k2, A, B, x, order: int):
    """The rows u = (k1 sin x, k2 cos x, rho = sqrt(A cos^2 x + B sin^2 x)) and u' at the
    points x, and u'' at order 2."""
    sx, cx = np.sin(x), np.cos(x)
    rho = np.sqrt(A * cx * cx + B * sx * sx)  # >= min(A, B) > 0
    s = (B - A) * sx * cx
    rows = (k1 * sx, k2 * cx, rho), (k1 * cx, -k2 * sx, s / rho)
    if order == 1:
        return rows
    rho_pp = (B - A) * np.cos(2 * x) / rho - s * s / np.float_power(rho, 3)
    return *rows, (-k1 * sx, -k2 * cx, rho_pp)


def cone_family_jet(m: int, n: int, x: float, y: float) -> SurfaceJet:
    """cone_jet_field at the one point (x, y)."""
    J = cone_jet_field(m, n, np.array([x]), np.array([y]))[:, 0]
    return SurfaceJet(x, y, J[0], J[1], J[2], J[3], J[4], J[5])


def cone_jet_field(m: int, n: int, xs: np.ndarray, ys: np.ndarray, order: int = 2) -> np.ndarray:
    """Jets of the elementary family

    phi = (sin(x) sqrt(m+n)/sqrt(2m+n) e^{pi i m y},
           cos(x) sqrt(m+n)/sqrt(m+2n) e^{pi i n y},
           sqrt(n cos^2 x/(m+2n) + m sin^2 x/(2m+n)) e^{-pi i (m+n) y})

    at the points (xs, ys) as one (6, n, 3) array: the rows
    (u, u', iq u, u'', iq u', (iq)^2 u) e^{i q y}, u from _cone_rows.  Order 1 gives the
    first three alone, (3, n, 3), the same bits, and forms no u''."""
    k1, k2, A, B, iq = _cone_terms(m, n)
    u, up, *upp = (np.stack(row, axis=-1) for row in _cone_rows(k1, k2, A, B, xs, order))
    rows = [u, up, iq * u]
    if order == 2:
        rows += [upp[0], iq * up, (iq * iq) * u]
    e = np.exp(iq * ys[:, None])
    J = np.empty((len(rows), len(xs), 3), dtype=complex)
    for r, a in enumerate(rows):
        np.multiply(a, e, out=J[r])
    return J


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

    return MetricField(E=lambda x, y: E0, G=G, G_x=G_x)


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

    return MetricField(E=E, G=G, G_x=G_x)


class Family(NamedTuple):
    """One surface family as the grid sweep and the CSV sampler see it.

    beta_period is pi where the frame flips orientation across degeneracy
    lines (spectral), else 2 pi.  A spectral curve brings the residue
    identities, the degeneracy tube, K = 1 and the curve-level records.
    """

    name: str
    parameters: dict
    jet: object                     # (x, y) -> SurfaceJet
    jets: object                    # (xs, ys) -> (6, n, 3) array of the same jets; a cone's
                                    # takes order 1 for rows phi, phi_x, phi_y alone, (3, n, 3)
    metric: MetricField
    beta_period: float
    curve: ReducibleCurveData | None = None


def spectral_family(curve: ReducibleCurveData) -> Family:
    """The surface of a spectral curve built by derive_constants."""
    return Family("spectral", {"a": curve.a, "b": curve.b, "q1": curve.Q1,
                               "gamma_im": curve.gamma_im},
                  lambda x, y: spectral_family_jet(curve, x, y),
                  lambda xs, ys: spectral_jet_field(curve, xs, ys),
                  spectral_metric_field(curve), math.pi, curve)


def cone_family(m: int, n: int) -> Family:
    """The elementary cone surface of orders m, n >= 1."""
    # before the lru_cache of _cone_terms, where True would find the entry of 1
    if any(isinstance(k, bool) or not isinstance(k, numbers.Integral) for k in (m, n)):
        raise ValueError(f"m, n must be positive integers, got {m}, {n}")
    m, n = int(m), int(n)   # a numpy int fails json
    _cone_terms(m, n)   # refuses the orders before the metric overflows on them
    return Family("cone", {"m": m, "n": n}, lambda x, y: cone_family_jet(m, n, x, y),
                  lambda xs, ys, order=2: cone_jet_field(m, n, xs, ys, order),
                  cone_metric_field(m, n), 2.0 * math.pi)


def degeneracy_angle(curve: ReducibleCurveData) -> float:
    """theta* with f2 = 0 on the lines a*x - b*y = theta* (mod pi).

    f2 vanishes iff cos(theta) + (gamma_im/b) sin(theta) = 0, i.e.
    tan(theta) = -b/gamma_im.  The induced metric coefficient G vanishes
    exactly on these lines and the immersion degenerates there.
    """
    return math.atan2(-curve.b, curve.gamma_im) % math.pi


TUBE_RADIUS = 1e-2  # half-width, in a*x - b*y, of the tube the angle checks exclude


def _remainder(x, p: float):
    """math.remainder(x, p) elementwise, bit for bit (np.remainder differs); NaN where x is
    infinite, where math.remainder raises."""
    ax = np.abs(x)
    m = np.fmod(ax, p)
    c = p - m
    tie = m - 2.0 * np.fmod(0.5 * (ax - m), p)
    return np.copysign(1.0, x) * np.where(m < c, m, np.where(m > c, -c, tie))


def tube_mask(curve: ReducibleCurveData, x, y, radius: float = TUBE_RADIUS):
    """Where a*x - b*y is within radius of a degeneracy line (mod pi), at points or arrays."""
    return np.abs(_remainder(curve.a * x - curve.b * y - degeneracy_angle(curve), math.pi)) < radius


def in_degeneracy_tube(curve: ReducibleCurveData, x: float, y: float,
                       radius: float = TUBE_RADIUS) -> bool:
    """tube_mask at one point."""
    return bool(tube_mask(curve, x, y, radius))
