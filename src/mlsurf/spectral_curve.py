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

import math
from typing import NamedTuple


class RationalOneForm(NamedTuple):
    """scale * numerator(z) / prod (z - root) * dz on one component, with
    ascending real numerator coefficients and simple real poles, indexed as
    listed.  Contract: deg(numerator) = len(roots) - 3, as in both forms of the
    curve, so the form vanishes to first order at infinity.
    """

    numerator: tuple
    roots: tuple
    scale: float


def residue(form: RationalOneForm, k: int) -> float:
    """Residue at the simple pole roots[k], by deflated evaluation:
    scale * numerator(roots[k]) / prod over the other roots of (roots[k] - root)."""
    pole = form.roots[k]
    num = 0.0
    for c in reversed(form.numerator):
        num = num * pole + c
    den = 1.0
    for j, r in enumerate(form.roots):
        if j != k:
            den *= pole - r
    return form.scale * num / den


def expansion_at_infinity(form: RationalOneForm) -> tuple:
    """(c, q) of Omega = (c w + q w^2 + ...) dw in w = 1/z.

    In w, Omega = -scale w RN(w) / prod (1 - r w) dw with RN the reversed
    numerator, so c = -scale lead and q = -scale (next - sum(-r) lead).
    The minimality condition on the second marked point is q = 0.
    """
    *_, nxt, lead = (0.0,) + form.numerator
    root_sum = 0.0  # sum(-r) in listed order: q's last bits depend on it
    for root in form.roots:
        root_sum += -root
    return -form.scale * lead, -form.scale * (nxt - root_sum * lead)


class ReducibleCurveData(NamedTuple):
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
    return RationalOneForm(numerator=(1.0,), roots=(0.0, a, -a), scale=1.0)


def _omega2(b: float, Q: tuple, gamma_im: float, scale: float) -> RationalOneForm:
    # numerator z^2 - gamma^2 = z^2 + gamma_im^2 for gamma = i*gamma_im
    return RationalOneForm(numerator=(gamma_im * gamma_im, 0.0, 1.0),
                           roots=(Q[0], Q[1], Q[2], b, -b), scale=scale)


def derive_constants(a: float, b: float, Q1: float, gamma_im: float) -> ReducibleCurveData:
    """Build the curve data and derive every constant from residue calculus.

    Q2 = -Q1 (so Q1 + Q2 + Q3 = 0 and the w^2 expansion coefficient at the
    second puncture vanishes), Q3 from the gluing-regularity constraint, the
    scale c of Omega_2 from residue cancellation at z2 = b, d = a from the
    normalization residue, and alpha_i = sqrt(Res_{Q_i} Omega_2).  Refuses only
    parameters whose constants cannot be built; whether the built curve is
    regular at the gluing points is `report.curve_checks`' claim.
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

    try:
        Q2 = -Q1
        Q3 = -b * b * (Q1 + Q2) / (b * b + Q1 * Q2)  # evaluates to exactly 0

        omega1 = _omega1(a)
        res_r = residue(omega1, 0)
        unit = _omega2(b, (Q1, Q2, Q3), gamma_im, scale=1.0)
        c = -residue(omega1, 1) / residue(unit, 3)
        if not math.isfinite(c):
            raise FloatingPointError(f"scale c of Omega_2 = {c} is not finite")

        omega2 = _omega2(b, (Q1, Q2, Q3), gamma_im, scale=c)
        res_Q = []
        for i in (1, 2, 3):
            r = residue(omega2, i - 1)
            if not 0.0 < r < math.inf:  # c > 0 makes r > 0: only underflow or overflow fails
                raise FloatingPointError(f"Res_Q{i} Omega_2 = {r} is not a positive finite double")
            res_Q.append(r)

        # positive branch; d real is required by the reality conditions
        return ReducibleCurveData(
            a=a, b=b, Q1=Q1, gamma_im=gamma_im, Q2=Q2, Q3=Q3, c=c, d=math.sqrt(-1.0 / res_r),
            alpha=tuple(map(math.sqrt, res_Q)), res_Q=tuple(res_Q), res_r=res_r,
            c1_exp=expansion_at_infinity(omega1)[0], c2_exp=expansion_at_infinity(omega2)[0],
        )
    except ArithmeticError as exc:  # e.g. a residue product beyond double range
        raise ValueError(f"cannot derive the curve constants of a = {a}, b = {b}, "
                         f"q1 = {Q1}, gamma_im = {gamma_im}: {exc}") from None


def gluing_defects(curve: ReducibleCurveData) -> tuple:
    """|Res Omega_1 + Res Omega_2| at the gluing points (+a, +b) and (-a, -b)."""
    omega1 = curve.omega1()
    omega2 = curve.omega2()
    return tuple(abs(residue(omega1, k) + residue(omega2, k + 2)) for k in (1, 2))
