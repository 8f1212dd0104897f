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

import numpy as np

from .spectral_curve import ReducibleCurveData


def f_coefficients(curve: ReducibleCurveData, x, y) -> tuple:
    """(f1, f2) as reals; the leading expansion coefficients at the punctures.

    With gamma = i*gamma_im, f2 = d (cos(theta) + (gamma_im / b) sin(theta)).
    This real form rounds alike for scalars and arrays (x, y); numpy's
    complex products do not.
    """
    theta = curve.a * x - curve.b * y
    return curve.d, curve.d * (np.cos(theta) + (curve.gamma_im / curve.b) * np.sin(theta))
