"""Reducible rational spectral curve: two CP^1 components glued at two points.

Component 1 (coordinate z1) and component 2 (coordinate z2) are glued at
z1 = a <-> z2 = b and z1 = -a <-> z2 = -b.  Marked points: P1 = infinity on
component 1, P2 = infinity on component 2, the normalization point r = 0 on
component 1, and Q1, Q2, Q3 real on component 2.  The divisor point is
gamma = i*gamma_im on component 2.  The regular 1-form is

    Omega_1 = dz1 / (z1 (z1^2 - a^2)),
    Omega_2 = c (z2^2 - gamma^2) dz2 / ((z2-Q1)(z2-Q2)(z2-Q3)(z2^2 - b^2)),

with c fixed by residue cancellation at the gluing points.  All residues are
computed by deflated products, never by contour quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# residue cancellation at the gluing points must hold to this tolerance
REGULARITY_TOL = 1e-13


@dataclass(frozen=True)
class RationalOneForm:
    """scale * numerator(z) / prod (z - root)^mult * dz on one component.

    numerator_coeffs are ascending; trailing zero coefficients are trimmed at
    construction.  deg(numerator) <= deg(denominator) - 2 is enforced so the
    form is regular at infinity.
    """

    component: int
    numerator_coeffs: tuple
    denominator_roots: tuple  # of (root, multiplicity)
    scale: complex = 1.0

    def __post_init__(self):
        if self.component not in (1, 2):
            raise ValueError(f"component must be 1 or 2, got {self.component}")
        coeffs = tuple(complex(c) for c in self.numerator_coeffs)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "numerator_coeffs", coeffs)
        roots = tuple((complex(r), int(m)) for r, m in self.denominator_roots)
        if any(m < 1 for _, m in roots):
            raise ValueError("pole multiplicities must be positive")
        object.__setattr__(self, "denominator_roots", roots)
        object.__setattr__(self, "scale", complex(self.scale))
        if self.numerator_degree > self.denominator_degree - 2:
            raise ValueError(
                "form has a pole at infinity: need deg(num) <= deg(den) - 2, "
                f"got {self.numerator_degree} > {self.denominator_degree} - 2"
            )

    @property
    def numerator_degree(self) -> int:
        return len(self.numerator_coeffs) - 1

    @property
    def denominator_degree(self) -> int:
        return sum(m for _, m in self.denominator_roots)

    def numerator_at(self, z: complex) -> complex:
        acc = 0.0 + 0.0j
        for c in reversed(self.numerator_coeffs):
            acc = acc * z + c
        return acc


def residue_simple(form: RationalOneForm, pole: complex) -> complex:
    """Residue at a listed simple pole, by deflated evaluation.

    Res = scale * numerator(pole) / prod over the other roots of
    (pole - root)^mult.  The pole must match a listed denominator root of
    multiplicity one.
    """
    pole = complex(pole)
    match = None
    for k, (root, mult) in enumerate(form.denominator_roots):
        if pole == root or abs(pole - root) <= 1e-12 * (1.0 + abs(pole)):
            match = (k, root, mult)
            break
    if match is None:
        raise ValueError(f"{pole} is not a listed denominator root")
    k, root, mult = match
    if mult != 1:
        raise ValueError(f"pole {root} has multiplicity {mult}; residue_simple needs 1")
    den = 1.0 + 0.0j
    for j, (r, m) in enumerate(form.denominator_roots):
        if j != k:
            den *= (root - r) ** m
    return form.scale * form.numerator_at(root) / den


def _series_divide(num, den, n: int) -> np.ndarray:
    """First n Taylor coefficients of num(w)/den(w) around w = 0 (den[0] != 0)."""
    out = np.zeros(n, dtype=complex)
    for k in range(n):
        acc = num[k] if k < len(num) else 0.0
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out[k] = acc / den[0]
    return out


def _infinity_series(form: RationalOneForm, n: int) -> np.ndarray:
    """Coefficients of g(w) where Omega = g(w) dw in w = 1/z, indices 0..n-1.

    Substituting z = 1/w gives g(w) = -scale * w^(dd-dn-2) * RN(w)/RD(w) with
    RN, RD the reversed numerator/denominator coefficient polynomials.
    """
    dn = form.numerator_degree
    den = np.array([1.0 + 0.0j])
    for root, mult in form.denominator_roots:
        for _ in range(mult):
            den = np.convolve(den, np.array([-root, 1.0 + 0.0j]))
    rn = np.array(form.numerator_coeffs[::-1], dtype=complex)
    rd = den[::-1]  # rd[0] = leading coefficient = 1
    shift = (form.denominator_degree - dn) - 2  # >= 0 by construction
    series = _series_divide(rn, rd, max(n - shift, 0))
    out = np.zeros(n, dtype=complex)
    out[shift:shift + len(series)] = -form.scale * series[: max(n - shift, 0)]
    return out


def expansion_at_infinity(form: RationalOneForm, order: int) -> np.ndarray:
    """Coefficients (c, q, d3, ...) of Omega = (c w + q w^2 + d3 w^3 + ...) dw, w = 1/z.

    Entry k is the coefficient of w^(k+1).  Requires the form to have at least
    a simple zero at infinity in the coordinate w; the minimality condition on
    the second marked point is q = 0.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    g = _infinity_series(form, order + 1)
    if g[0] != 0:
        raise ValueError("form does not vanish at infinity in w = 1/z")
    return g[1:]


def residue_at_infinity(form: RationalOneForm) -> complex:
    """Residue of the form at z = infinity (w^-1 coefficient in w = 1/z).

    Zero for every constructible form here since regularity at infinity is a
    construction invariant; kept explicit so the global residue theorem can be
    asserted without a tautology.
    """
    # shift = dd - dn - 2 >= 0 means g(w) is analytic at w = 0
    return 0.0 + 0.0j


def sum_of_residues(form: RationalOneForm) -> complex:
    """Sum of all residues including infinity; exactly the residue theorem."""
    total = residue_at_infinity(form)
    for root, mult in form.denominator_roots:
        if mult == 1:
            total += residue_simple(form, root)
        else:
            raise ValueError("sum_of_residues requires all poles simple")
    return total


@dataclass(frozen=True)
class ReducibleCurveData:
    """Gluing coordinates, marked points and every derived constant of the curve.

    alpha[i] = sqrt(Res_{Q_i} Omega_2) and res_Q[i] the residues themselves;
    d = sqrt(-1 / Res_r Omega_1) = a with the positive branch; c1_exp, c2_exp
    are the leading expansion coefficients of Omega at the two punctures.
    """

    a: float
    b: float
    Q1: float
    gamma_im: float
    Q2: float
    Q3: float
    c: float
    d: float
    alpha: tuple
    res_Q: tuple
    res_r: float
    c1_exp: float
    c2_exp: float

    @property
    def gamma(self) -> complex:
        return 1j * self.gamma_im

    @property
    def Q(self) -> tuple:
        return (self.Q1, self.Q2, self.Q3)

    def omega1(self) -> RationalOneForm:
        return _omega1(self.a)

    def omega2(self) -> RationalOneForm:
        return _omega2(self.b, self.Q, self.gamma_im, self.c)


def _omega1(a: float) -> RationalOneForm:
    return RationalOneForm(
        component=1,
        numerator_coeffs=(1.0,),
        denominator_roots=((0.0, 1), (a, 1), (-a, 1)),
        scale=1.0,
    )


def _omega2(b: float, Q: tuple, gamma_im: float, scale: complex) -> RationalOneForm:
    # numerator z^2 - gamma^2 = z^2 + gamma_im^2 for gamma = i*gamma_im
    return RationalOneForm(
        component=2,
        numerator_coeffs=(gamma_im * gamma_im, 0.0, 1.0),
        denominator_roots=((Q[0], 1), (Q[1], 1), (Q[2], 1), (b, 1), (-b, 1)),
        scale=scale,
    )


def derive_constants(a: float, b: float, Q1: float, gamma_im: float) -> ReducibleCurveData:
    """Build the curve data and derive every constant from residue calculus.

    Q2 = -Q1 (so Q1 + Q2 + Q3 = 0 and the w^2 expansion coefficient at the
    second puncture vanishes), Q3 from the gluing-regularity constraint, the
    scale c of Omega_2 from residue cancellation at z2 = b, d = a from the
    normalization residue, and alpha_i = sqrt(Res_{Q_i} Omega_2).
    """
    a = float(a)
    b = float(b)
    Q1 = float(Q1)
    gamma_im = float(gamma_im)
    if not all(map(math.isfinite, (a, b, Q1, gamma_im))):
        raise ValueError(f"parameters must be finite, got {a}, {b}, {Q1}, {gamma_im}")
    if not (a > 0):
        raise ValueError(f"a must be positive, got {a}")
    if not (b > 0):
        raise ValueError(f"b must be positive, got {b}")
    if gamma_im == 0:
        raise ValueError("gamma_im must be nonzero")
    if Q1 == 0:
        raise ValueError("Q1 must be nonzero")
    if abs(Q1) <= b:
        raise ValueError(
            f"|Q1| = {abs(Q1)} must exceed b = {b}; otherwise Res_Q3 Omega_2 < 0 "
            "and alpha_3 is imaginary"
        )

    Q2 = -Q1
    Q3 = -b * b * (Q1 + Q2) / (b * b + Q1 * Q2)  # evaluates to exactly 0
    if any(abs(q - s * b) < 1e-12 * b for q in (Q1, Q2, Q3) for s in (1.0, -1.0)):
        raise ValueError("degenerate marked point: Q_i coincides with a gluing coordinate")

    omega1 = _omega1(a)
    res_r = residue_simple(omega1, 0.0)
    res_a = residue_simple(omega1, a)
    res_ma = residue_simple(omega1, -a)

    unit = _omega2(b, (Q1, Q2, Q3), gamma_im, scale=1.0)
    c = -res_a / residue_simple(unit, b)
    if abs(c.imag) > 1e-12 * (1.0 + abs(c)):
        raise ValueError(f"scale c came out non-real: {c}")
    c = c.real

    omega2 = _omega2(b, (Q1, Q2, Q3), gamma_im, scale=c)
    res_Q = []
    for q in (Q1, Q2, Q3):
        r = residue_simple(omega2, q)
        if abs(r.imag) > 1e-12 * (1.0 + abs(r)):
            raise ValueError(f"Res_{q} Omega_2 came out non-real: {r}")
        if not r.real > 0:
            raise ValueError(f"Res_{q} Omega_2 = {r.real} must be positive")
        res_Q.append(r.real)

    # positive branch; d real is required by the reality conditions
    d = math.sqrt(-1.0 / res_r.real)

    exp1 = expansion_at_infinity(omega1, 2)
    exp2 = expansion_at_infinity(omega2, 2)
    c1_exp = float(exp1[0].real)
    c2_exp = float(exp2[0].real)

    curve = ReducibleCurveData(
        a=a, b=b, Q1=Q1, gamma_im=gamma_im, Q2=Q2, Q3=Q3, c=c, d=d,
        alpha=tuple(math.sqrt(r) for r in res_Q),
        res_Q=tuple(res_Q), res_r=res_r.real, c1_exp=c1_exp, c2_exp=c2_exp,
    )

    defect = regularity_defect(curve)
    if defect > REGULARITY_TOL:
        raise ValueError(f"gluing regularity defect {defect} exceeds {REGULARITY_TOL}")
    lead = max(abs(exp2[0]), 1e-300)
    if abs(exp2[1]) / lead > 1e-12:
        raise ValueError(f"w^2 coefficient of Omega_2 did not cancel: {exp2[1]}")
    if abs(res_a + res_ma + res_r) > 1e-13:
        raise ValueError("Omega_1 residues violate the residue theorem")
    return curve


def regularity_defect(curve: ReducibleCurveData) -> float:
    """Max over the two gluing points of |Res Omega_1 + Res Omega_2|."""
    omega1 = curve.omega1()
    omega2 = curve.omega2()
    d_plus = abs(residue_simple(omega1, curve.a) + residue_simple(omega2, curve.b))
    d_minus = abs(residue_simple(omega1, -curve.a) + residue_simple(omega2, -curve.b))
    return float(max(d_plus, d_minus))
