"""Baker-Akhiezer function: closed form on the reducible curve.

On the reducible curve the function is a pair (psi_1, psi_2), one rational
piece per component:

    psi_1 = e^{i x z1} f1,
    psi_2 = e^{i y z2} (f2 + g2 / (z2 - gamma)),

with f1 = d and, writing theta = a*x - b*y,

    f2 = d/(2b) * ((b - gamma) e^{i theta} + (b + gamma) e^{-i theta}),
    g2 = d (b^2 - gamma^2)/(2b) * (e^{i theta} - e^{-i theta}).

The relative minus sign in g2 is pinned by the gluing conditions
psi_1(+-a) = psi_2(+-b); with gamma = i*gamma_im both f2 and the expansion
coefficients at the punctures come out real.
"""

import cmath
from typing import NamedTuple

import numpy as np

from .spectral_curve import ReducibleCurveData


class BARationalValue(NamedTuple):
    """Value of the rational-model function together with its building blocks.

    f1 and f2 are reals, as the reality conditions make them identically in (x, y);
    ba_rational_eval stores f1 = d and the real part of f2, and checks neither.
    """

    f1: float
    f2: float
    g2: complex
    psi: complex


def _f2_g2(curve: ReducibleCurveData, x, y) -> tuple:
    """f2 and g2 at scalars or arrays (x, y)."""
    d, b, gamma = curve.d, curve.b, curve.gamma
    theta = curve.a * x - b * y
    ep = np.exp(1j * theta)
    em = np.exp(-1j * theta)
    f2 = d / (2.0 * b) * ((b - gamma) * ep + (b + gamma) * em)
    g2 = d * (b * b - gamma * gamma) / (2.0 * b) * (ep - em)
    return f2, g2


def f_coefficients(curve: ReducibleCurveData, x, y) -> tuple:
    """(f1, f2) as reals; the leading expansion coefficients at the punctures.

    With gamma = i*gamma_im, f2 = d (cos(theta) + (gamma_im / b) sin(theta)).
    This real form rounds alike for scalars and arrays (x, y); numpy's
    complex products do not.
    """
    theta = curve.a * x - curve.b * y
    return curve.d, curve.d * (np.cos(theta) + (curve.gamma_im / curve.b) * np.sin(theta))


def ba_rational_eval(curve: ReducibleCurveData, x: float, y: float,
                     component: int, coord: complex) -> BARationalValue:
    """Evaluate the Baker-Akhiezer function at a point of the given component."""
    f2c, g2 = _f2_g2(curve, x, y)
    coord = complex(coord)
    if component == 1:
        psi = cmath.exp(1j * x * coord) * curve.d
    elif component == 2:
        if coord == curve.gamma:
            raise ValueError(f"psi_2 has its pole at coord = gamma = {curve.gamma}")
        psi = cmath.exp(1j * y * coord) * (f2c + g2 / (coord - curve.gamma))
    else:
        raise ValueError(f"component must be 1 or 2, got {component}")
    return BARationalValue(f1=curve.d, f2=f2c.real, g2=g2, psi=psi)


def consistency_defect(curve: ReducibleCurveData, x: float, y: float) -> float:
    """Max gluing defect max(|psi1(a) - psi2(b)|, |psi1(-a) - psi2(-b)|)."""
    p1p = ba_rational_eval(curve, x, y, 1, curve.a).psi
    p2p = ba_rational_eval(curve, x, y, 2, curve.b).psi
    p1m = ba_rational_eval(curve, x, y, 1, -curve.a).psi
    p2m = ba_rational_eval(curve, x, y, 2, -curve.b).psi
    return float(max(abs(p1p - p2p), abs(p1m - p2m)))


def ba_conjugation_defect(curve: ReducibleCurveData, x: float, y: float,
                          component: int, coord: complex) -> float:
    """|psi(x, y, tau(P)) - conj(psi(x, y, P))| with tau(z) = -conj(z).

    tau is the composition of the antiholomorphic involution z -> conj(z) with
    the holomorphic involution z -> -z; the reality conditions make the defect
    vanish identically.
    """
    coord = complex(coord)
    tau_coord = -coord.conjugate()
    lhs = ba_rational_eval(curve, x, y, component, tau_coord).psi
    rhs = ba_rational_eval(curve, x, y, component, coord).psi.conjugate()
    return float(abs(lhs - rhs))


def ba_essential_singularity_coeffs(curve: ReducibleCurveData, x: float, y: float,
                                    puncture: str, order: int) -> np.ndarray:
    """Expansion coefficients of psi * e^{-i k t} in powers of 1/(i k) at a puncture.

    Local parameters are k1 = z1 at P1 and k2 = z2 at P2.  At P1 the series is
    (d, 0, 0, ...).  At P2 the geometric expansion of 1/(z2 - gamma) gives
    coefficient g2 * gamma^(n-1) * i^n in the (1/(i k2))^n slot for n >= 1.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    out = np.zeros(order + 1, dtype=complex)
    if puncture == "P1":
        out[0] = curve.d
    elif puncture == "P2":
        f2c, g2 = _f2_g2(curve, x, y)
        out[0] = f2c
        gamma = curve.gamma
        for n in range(1, order + 1):
            out[n] = g2 * gamma ** (n - 1) * (1j) ** n
    else:
        raise ValueError(f"puncture must be 'P1' or 'P2', got {puncture!r}")
    return out
