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

import numpy as np

# residue cancellation at the gluing points must hold to this tolerance
REGULARITY_TOL = 1e-13
W2_TOL = 1e-12  # and the w^2 coefficient of Omega_2 at P2, relative to the w one, to this


class RationalOneForm:
    """scale * numerator(z) / prod (z - root)^mult * dz on one component.

    numerator_coeffs are ascending; trailing zero coefficients are trimmed at
    construction.  deg(numerator) <= deg(denominator) - 2 is enforced so the
    form is regular at infinity.
    """

    __slots__ = ("numerator_coeffs", "denominator_roots", "scale")

    def __init__(self, numerator_coeffs: tuple, denominator_roots: tuple, scale: complex = 1.0):
        coeffs = tuple(complex(c) for c in numerator_coeffs)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        roots = tuple((complex(r), int(m)) for r, m in denominator_roots)
        if any(m < 1 for _, m in roots):
            raise ValueError("pole multiplicities must be positive")
        self.numerator_coeffs = coeffs
        self.denominator_roots = roots  # of (root, multiplicity)
        self.scale = complex(scale)
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
    (pole - root)^mult.  The pole must be a listed denominator root of
    multiplicity one, exactly: another root may lie within any tolerance.
    """
    pole = complex(pole)
    for k, (root, mult) in enumerate(form.denominator_roots):
        if pole == root:
            break
    else:
        raise ValueError(f"{pole} is not a listed denominator root")
    if mult != 1:
        raise ValueError(f"pole {root} has multiplicity {mult}; residue_simple needs 1")
    den = 1.0 + 0.0j
    for j, (r, m) in enumerate(form.denominator_roots):
        if j != k:
            den *= (root - r) ** m
    return form.scale * form.numerator_at(root) / den


def expansion_at_infinity(form: RationalOneForm) -> tuple:
    """(c, q) of Omega = (c w + q w^2 + ...) dw in w = 1/z.

    In w, Omega = -scale w^s RN(w) / prod (1 - r w)^mult dw with RN the reversed
    numerator and s = deg(den) - deg(num) - 2 >= 0, so its coefficients at w^s
    and w^(s+1) are -scale lead and -scale (next - sum(-r) lead).  Requires the
    form to vanish at infinity in w; at s = 0 only the zero form does, and its
    q is 0.  The minimality condition on the second marked point is q = 0.
    """
    *_, nxt, lead = (0j,) + form.numerator_coeffs
    root_sum = 0j  # sum(-r) with multiplicity, in listed order: q's last bits depend on it
    for root, mult in form.denominator_roots:
        for _ in range(mult):
            root_sum += -root
    shift = form.denominator_degree - form.numerator_degree - 2
    g = [0j] * shift + [-form.scale * lead, -form.scale * (nxt - root_sum * lead), 0j]
    if g[0] != 0:
        raise ValueError("form does not vanish at infinity in w = 1/z")
    return g[1], g[2]


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
    return RationalOneForm(
        numerator_coeffs=(1.0,),
        denominator_roots=((0.0, 1), (a, 1), (-a, 1)),
        scale=1.0,
    )


def _omega2(b: float, Q: tuple, gamma_im: float, scale: complex) -> RationalOneForm:
    # numerator z^2 - gamma^2 = z^2 + gamma_im^2 for gamma = i*gamma_im
    return RationalOneForm(
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
    if abs(Q1) - b < 1e-12 * b:  # Q2 = -Q1 is as near the other one; Q3 = 0 is near neither
        raise ValueError(f"degenerate marked point: Q1 = {Q1} lies within 1e-12 b of the "
                         f"gluing coordinate {'-b' if Q1 < 0 else 'b'} = {math.copysign(b, Q1)}")

    try:
        Q2 = -Q1
        Q3 = -b * b * (Q1 + Q2) / (b * b + Q1 * Q2)  # evaluates to exactly 0

        omega1 = _omega1(a)
        res_r = residue_simple(omega1, 0.0)
        res_a = residue_simple(omega1, a)
        res_ma = residue_simple(omega1, -a)

        unit = _omega2(b, (Q1, Q2, Q3), gamma_im, scale=1.0)
        c = -res_a / residue_simple(unit, b)
        if not np.isfinite(c):
            raise FloatingPointError(f"scale c of Omega_2 = {c} is not finite")
        if abs(c.imag) > 1e-12 * (1.0 + abs(c)):
            raise ValueError(f"scale c came out non-real: {c}")
        c = c.real

        omega2 = _omega2(b, (Q1, Q2, Q3), gamma_im, scale=c)
        res_Q = []
        for i, q in enumerate((Q1, Q2, Q3), 1):
            r = residue_simple(omega2, q)
            if not np.isfinite(r):
                raise FloatingPointError(f"Res_Q{i} Omega_2 = {r} is not finite")
            if abs(r.imag) > 1e-12 * (1.0 + abs(r)):
                raise ValueError(f"Res_Q{i} Omega_2 came out non-real: {r}")
            if not r.real > 0:
                raise ValueError(f"Res_Q{i} Omega_2 = {r.real} must be positive")
            res_Q.append(r.real)

        # positive branch; d real is required by the reality conditions
        d = math.sqrt(-1.0 / res_r.real)

        c1, _ = expansion_at_infinity(omega1)
        c2, q2 = expansion_at_infinity(omega2)

        curve = ReducibleCurveData(
            a=a, b=b, Q1=Q1, gamma_im=gamma_im, Q2=Q2, Q3=Q3, c=c, d=d,
            alpha=tuple(math.sqrt(r) for r in res_Q),
            res_Q=tuple(res_Q), res_r=res_r.real, c1_exp=float(c1.real), c2_exp=float(c2.real),
        )

        defect = regularity_defect(curve)
        if defect > REGULARITY_TOL:
            raise ValueError(f"gluing regularity defect {defect} exceeds {REGULARITY_TOL}")
        if abs(q2) / max(abs(c2), 1e-300) > W2_TOL:
            raise ValueError(f"w^2 coefficient of Omega_2 did not cancel: {q2}")
        if abs(res_a + res_ma + res_r) > 1e-13:
            raise ValueError("Omega_1 residues violate the residue theorem")
        return curve
    except ArithmeticError as exc:  # e.g. a residue product beyond double range
        raise ValueError(f"cannot derive the curve constants of a = {a}, b = {b}, "
                         f"q1 = {Q1}, gamma_im = {gamma_im}: {exc}") from None


def regularity_defect(curve: ReducibleCurveData) -> float:
    """Max over the two gluing points of |Res Omega_1 + Res Omega_2|."""
    omega1 = curve.omega1()
    omega2 = curve.omega2()
    d_plus = abs(residue_simple(omega1, curve.a) + residue_simple(omega2, curve.b))
    d_minus = abs(residue_simple(omega1, -curve.a) + residue_simple(omega2, -curve.b))
    return float(max(d_plus, d_minus))
