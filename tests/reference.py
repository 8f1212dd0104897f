"""Reference Baker-Akhiezer function psi on the reducible curve, for the tests.

The closed form is the one mlsurf/baker_akhiezer.py states: psi_1 = e^{i x z1} d and
psi_2 = e^{i y z2} (f2 + g2 / (z2 - gamma)), with f2 and g2 complex.  The program reads
psi only through baker_akhiezer.f_coefficients (the real f2) and the jets of
surface_families; these evaluators give the tests psi itself: its value on either
component, the gluing and conjugation defects, and the expansion at the punctures.
The seeded curve samplers random_curve and _log_uniform_curve are shared by the tests too.
"""

import cmath

import numpy as np

from mlsurf.spectral_curve import ReducibleCurveData, derive_constants


def _f2_g2(curve: ReducibleCurveData, x, y) -> tuple:
    """f2 and g2 at scalars or arrays (x, y)."""
    d, b, gamma = curve.d, curve.b, curve.gamma
    theta = curve.a * x - b * y
    ep = np.exp(1j * theta)
    em = np.exp(-1j * theta)
    f2 = d / (2.0 * b) * ((b - gamma) * ep + (b + gamma) * em)
    g2 = d * (b * b - gamma * gamma) / (2.0 * b) * (ep - em)
    return f2, g2


def ba_rational_eval(curve: ReducibleCurveData, x: float, y: float,
                     component: int, coord: complex) -> complex:
    """psi at the point coord of the given component."""
    coord = complex(coord)
    if component == 1:
        return cmath.exp(1j * x * coord) * curve.d
    if component == 2:
        if coord == curve.gamma:
            raise ValueError(f"psi_2 has its pole at coord = gamma = {curve.gamma}")
        f2c, g2 = _f2_g2(curve, x, y)
        return cmath.exp(1j * y * coord) * (f2c + g2 / (coord - curve.gamma))
    raise ValueError(f"component must be 1 or 2, got {component}")


def consistency_defect(curve: ReducibleCurveData, x: float, y: float) -> float:
    """Max gluing defect max(|psi1(a) - psi2(b)|, |psi1(-a) - psi2(-b)|)."""
    p1p = ba_rational_eval(curve, x, y, 1, curve.a)
    p2p = ba_rational_eval(curve, x, y, 2, curve.b)
    p1m = ba_rational_eval(curve, x, y, 1, -curve.a)
    p2m = ba_rational_eval(curve, x, y, 2, -curve.b)
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
    lhs = ba_rational_eval(curve, x, y, component, tau_coord)
    rhs = ba_rational_eval(curve, x, y, component, coord).conjugate()
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


def random_curve(rng):
    """a, b uniform in [0.5, 2], gamma_im in [0.2, 2] and |Q1| = b U(1.01, 3)."""
    b = rng.uniform(0.5, 2.0)
    return derive_constants(rng.uniform(0.5, 2.0), b,
                            rng.uniform(1.01, 3.0) * b * rng.choice([-1.0, 1.0]),
                            rng.uniform(0.2, 2.0))


def _log_uniform_curve(rng):
    """a, b, |gamma_im| log-uniform in [1e-2, 1e2] and |Q1| = b (1 + 10^U(-3, 2))."""
    b = 10 ** rng.uniform(-2, 2)
    return derive_constants(10 ** rng.uniform(-2, 2), b,
                            b * (1 + 10 ** rng.uniform(-3, 2)) * rng.choice((-1, 1)),
                            10 ** rng.uniform(-2, 2) * rng.choice((-1, 1)))
