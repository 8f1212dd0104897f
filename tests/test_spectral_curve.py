import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

from mlsurf.report import REGULARITY_TOL, curve_checks
from mlsurf.spectral_curve import (RationalOneForm, derive_constants,
                                   expansion_at_infinity, gluing_defects,
                                   residue_simple)


def omega1_form(a):
    return RationalOneForm(numerator_coeffs=(1.0,),
                           denominator_roots=((0.0, 1), (a, 1), (-a, 1)))


def test_residue_simple_hand_examples():
    # dz/(z(z^2-1)): partial fractions -1/z + 1/(2(z-1)) + 1/(2(z+1))
    form = omega1_form(1.0)
    assert residue_simple(form, 0.0) == -1.0
    assert residue_simple(form, 1.0) == 0.5
    assert type(residue_simple(form, 1)) is float
    for a in (0.5, 1.0, 1.7):
        form = omega1_form(a)
        # limit (z -+ a) f(z) = 1/(2a^2), equal at both points by symmetry
        assert abs(residue_simple(form, a) - 1 / (2 * a * a)) < 1e-15
        assert abs(residue_simple(form, -a) - 1 / (2 * a * a)) < 1e-15


def test_residue_simple_takes_the_root_it_is_given():
    # roots 0, a and -a lie within 1e-12 of each other: each residue is its own root's
    a = 1e-13
    form = omega1_form(a)
    assert residue_simple(form, 0.0) == -1 / (a * a)
    assert abs(residue_simple(form, a) - 1 / (2 * a * a)) < 1e-15 / (a * a)
    assert abs(residue_simple(form, -a) - 1 / (2 * a * a)) < 1e-15 / (a * a)
    with pytest.raises(ValueError, match="not a listed"):
        residue_simple(form, a / 2)


@pytest.mark.parametrize("a, b, q1, gamma_im", [
    (1.0, 1.0, 1.0000000000015, 1.0), (1.0, 0.001, 0.001000000001, 0.5),
    (1.0, 1.0, 1.0000000000001, 1.0), (1.0, 2.0, -2.0000000000001, 1.0),
    (1.0, 1.0, 1.0000000000000002, 1.0)])
def test_a_marked_point_near_the_gluing_coordinate_derives(a, b, q1, gamma_im):
    # Q1 lies within 1e-12 (1 + |Q1|) of +-b, down to one ulp above b:
    # Res_Q1 Omega_2 is Q1's residue, not b's (-1/2), and every |Q1| > b gives
    # positive residues; how well the surface is conditioned there is the
    # report's judgement, not an input rule
    curve = derive_constants(a, b, q1, gamma_im)
    assert min(curve.res_Q) > 0
    residues = [residue_simple(curve.omega2(), r) for r, _ in curve.omega2().denominator_roots]
    assert abs(sum(residues)) < 1e-9 * max(map(abs, residues))


def test_residue_simple_errors():
    form = omega1_form(1.0)
    with pytest.raises(ValueError, match="not a listed"):
        residue_simple(form, 3.0)
    double = RationalOneForm(numerator_coeffs=(1.0,),
                             denominator_roots=((0.0, 2), (1.0, 1)))
    with pytest.raises(ValueError, match="multiplicity"):
        residue_simple(double, 0.0)


def test_global_residue_theorem():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(0.5, 2.0)
        curve = derive_constants(a, b,
                                 rng.uniform(1.01, 3.0) * b * rng.choice([-1.0, 1.0]),
                                 rng.uniform(0.2, 2.0))
        for form in (curve.omega1(), curve.omega2()):
            residues = [residue_simple(form, r) for r, _ in form.denominator_roots]
            assert abs(sum(residues)) < 1e-12 * max(map(abs, residues))


def test_form_construction_invariants():
    with pytest.raises(ValueError, match="pole at infinity"):
        RationalOneForm(numerator_coeffs=(0.0, 0.0, 1.0),
                        denominator_roots=((0.0, 1), (1.0, 1), (-1.0, 1)))
    trimmed = RationalOneForm(numerator_coeffs=(1.0, 0.0, 0.0),
                              denominator_roots=((0.0, 1), (1.0, 1), (-1.0, 1)))
    assert trimmed.numerator_degree == 0


def test_derive_constants_worked_example():
    curve = derive_constants(1.0, 1.0, 2.0, 1.0)
    assert curve.Q2 == -2.0
    assert curve.Q3 == 0.0
    assert abs(curve.c - 1.5) < 1e-14
    assert curve.d == 1.0
    # alpha_1 = alpha_2 = sqrt(b^2(Q1^2+G^2) / (2 a^2 Q1^2 (b^2+G^2))) = sqrt(5)/4
    assert abs(curve.alpha[0] - math.sqrt(5) / 4) < 1e-15
    assert abs(curve.alpha[1] - math.sqrt(5) / 4) < 1e-15
    # alpha_3 = sqrt(G^2(Q1^2-b^2) / (a^2 Q1^2 (b^2+G^2))) = sqrt(3/8)
    assert abs(curve.alpha[2] - math.sqrt(3.0 / 8.0)) < 1e-15
    assert abs(curve.c1_exp - (-1.0)) < 1e-15
    assert abs(curve.c2_exp - (-1.5)) < 1e-14
    assert curve.res_r == -1.0


def test_derive_constants_alpha_closed_forms_randomized():
    rng = np.random.default_rng(12)
    for _ in range(25):
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(0.5, 2.0)
        Q1 = rng.uniform(1.01, 3.0) * b * rng.choice([-1.0, 1.0])
        G = rng.uniform(0.2, 2.0)
        curve = derive_constants(a, b, Q1, G)
        a12 = math.sqrt(b * b * (Q1 * Q1 + G * G)
                        / (2 * a * a * Q1 * Q1 * (b * b + G * G)))
        a3 = math.sqrt(G * G * (Q1 * Q1 - b * b)
                       / (a * a * Q1 * Q1 * (b * b + G * G)))
        assert abs(curve.alpha[0] - a12) < 1e-13 * a12
        assert abs(curve.alpha[1] - a12) < 1e-13 * a12
        assert abs(curve.alpha[2] - a3) < 1e-13 * a3
        assert abs(curve.d - a) < 4e-16 * a
        assert abs(curve.c1_exp + 1.0) < 1e-14
        assert abs(curve.c2_exp + curve.c) < 1e-12 * abs(curve.c)


def test_derive_constants_rejects_bad_parameters():
    with pytest.raises(ValueError, match="exceed"):
        derive_constants(1.0, 1.0, 0.5, 1.0)
    with pytest.raises(ValueError, match="exceed"):
        derive_constants(1.0, 1.0, -1.0, 1.0)  # |Q1| = b exactly
    with pytest.raises(ValueError, match="nonzero"):
        derive_constants(1.0, 1.0, 2.0, 0.0)
    with pytest.raises(ValueError, match="^Q1 must be nonzero$"):
        derive_constants(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        derive_constants(-1.0, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        derive_constants(1.0, 0.0, 2.0, 1.0)
    for params in ((1.0, 1.0, math.inf, 1.0), (1.0, 1.0, math.nan, 1.0),
                   (1.0, 1.0, 2.0, -math.inf)):
        with pytest.raises(ValueError, match="finite"):
            derive_constants(*params)
    # a residue or scale beyond double range, or a division by zero, names every input
    # as well as the cause: gamma_im^2 and a^2 underflow to Res_Q3 = 0 and Res_Q1 = 0,
    # a^-2 overflows c to inf, and b^2 and Q1^2 overflow it to inf / inf
    for params, cause in (((1.0, 1.0, 1e308, 1.0), "float division by zero"),
                          ((1e-300, 1.0, 2.0, 1.0), "float division by zero"),
                          ((1.0, 1.0, 2.0, 1e200),
                           "Res_Q1 Omega_2 = nan is not a positive finite double"),
                          ((1.0, 1.0, 1e200, 1.0), "float division by zero"),
                          ((1.0, 1.0, 2.0, 1e-200),
                           "Res_Q3 Omega_2 = 0.0 is not a positive finite double"),
                          ((1e155, 1.0, 2.0, 1.0),
                           "Res_Q1 Omega_2 = 0.0 is not a positive finite double"),
                          ((1e-160, 1.0, 2.0, 1.0), "scale c of Omega_2 = inf is not finite"),
                          ((1.0, 1e160, 3e160, 1.0), "scale c of Omega_2 = nan is not finite")):
        a, b, q1, gamma_im = params
        with pytest.raises(ValueError) as info:
            derive_constants(*params)
        assert str(info.value) == (f"cannot derive the curve constants of a = {a}, b = {b}, "
                                   f"q1 = {q1}, gamma_im = {gamma_im}: {cause}")


def sympy_infinity_series(form):
    """Independent oracle: (c, q) from the sympy series of -f(1/w)/w^2 around w = 0."""
    w = sympy.symbols("w")
    z = 1 / w
    num = sum(sympy.nsimplify(c, rational=False) * z ** k
              for k, c in enumerate(form.numerator_coeffs))
    den = sympy.prod([(z - sympy.nsimplify(r, rational=False)) ** m
                      for r, m in form.denominator_roots])
    g = -form.scale * num / den / w ** 2
    series = sympy.series(sympy.simplify(g), w, 0, 3).removeO()
    poly = sympy.Poly(series, w)
    return [complex(poly.coeff_monomial(w ** k)) for k in (1, 2)]


def test_expansion_requires_vanishing_at_infinity():
    # deg(num) = deg(den) - 2 is regular at infinity but has no zero there
    form = RationalOneForm(numerator_coeffs=(1.0,),
                           denominator_roots=((1.0, 1), (-1.0, 1)))
    with pytest.raises(ValueError, match="vanish"):
        expansion_at_infinity(form)
    for scale in (1.0, 1e-3, -2.5):
        with pytest.raises(ValueError, match="vanish"):
            expansion_at_infinity(RationalOneForm((0.5, 2.0), ((1.0, 2), (3.0, 1)), scale))
    # the zero form is the one form with s = 0 that vanishes there
    zero = RationalOneForm(numerator_coeffs=(0.0,), denominator_roots=((1.0, 1), (-2.0, 1)))
    assert expansion_at_infinity(zero) == (0, 0)


def test_expansion_omega1_hand_oracle():
    # -w dw / (1 - a^2 w^2) = (-w - a^2 w^3 - ...) dw
    for a in (1.0, 1.3):
        coeffs = expansion_at_infinity(omega1_form(a))
        assert coeffs == (-1.0, 0.0) and all(type(v) is float for v in coeffs)
        oracle = sympy_infinity_series(omega1_form(a))
        assert np.allclose(coeffs, oracle, atol=1e-12)


def test_expansion_omega2_minimality_condition():
    curve = derive_constants(1.0, 1.0, 2.0, 1.0)
    coeffs = expansion_at_infinity(curve.omega2())
    assert abs(coeffs[0] - (-curve.c)) < 1e-14
    assert abs(coeffs[1]) < 1e-14  # w^2 coefficient: -c (Q1+Q2+Q3) = 0
    oracle = sympy_infinity_series(curve.omega2())
    assert np.allclose(coeffs, oracle, atol=1e-12)


def exact_expansion(num, roots, scale):
    """(c, q) in exact arithmetic: the w and w^2 Taylor coefficients of
    -scale w^s RN(w) / prod (1 - r w)^mult by series division."""
    den = [Fraction(1)]
    for r, mult in roots:
        for _ in range(mult):
            den = [u - r * v for u, v in zip(den + [0], [0] + den)]  # times (1 - r w)
    shift = sum(m for _, m in roots) - (len(num) - 1) - 2
    rn, series = num[::-1], []
    for k in range(3):
        acc = rn[k] if k < len(rn) else Fraction(0)
        series.append(acc - sum(den[j] * series[k - j] for j in range(1, min(k, len(den) - 1) + 1)))
    g = [Fraction(0)] * shift + [-scale * t for t in series]
    return g[1], g[2]


@pytest.mark.parametrize("shift", [1, 2, 3])
def test_expansion_matches_an_exact_rational_oracle(shift):
    rng = random.Random(shift)

    def rational():  # a double, so Fraction(x) is exactly the value the form holds
        return rng.choice((-1, 1)) * rng.randint(1, 40) / rng.randint(1, 9)

    for _ in range(200):
        roots = []
        while sum(m for _, m in roots) < shift + 2 or rng.random() < 0.3:
            roots.append((rational(), rng.randint(1, 3)))
        num = [rational() for _ in range(sum(m for _, m in roots) - shift - 1)]
        scale = rational()
        form = RationalOneForm(num, roots, scale)
        c, q = expansion_at_infinity(form)
        exact = exact_expansion([Fraction(v) for v in num],
                                [(Fraction(r), m) for r, m in roots], Fraction(scale))
        nxt = num[-2] if len(num) > 1 else 0.0
        bound = 1e-12 * abs(scale) * (abs(nxt) + abs(num[-1]) * sum(m * abs(r) for r, m in roots))
        for got, want in zip((c, q), exact):
            assert got.imag == 0 and abs(got.real - float(want)) <= bound, (form, got, want)
        if shift >= 2:  # below w^s the coefficients are exact zeros
            assert c == 0 == exact[0]
        if shift == 3:
            assert q == 0 == exact[1]


def forced_q2_equal_q1_form(a, b, Q1, G):
    """Negative control: Q2 = +Q1 (double pole), c from regularity at z2 = b."""
    Q3 = -b * b * (2 * Q1) / (b * b + Q1 * Q1)
    unit = RationalOneForm(numerator_coeffs=(G * G, 0.0, 1.0),
                           denominator_roots=((Q1, 2), (Q3, 1), (b, 1), (-b, 1)))
    res_a = 1.0 / (2 * a * a)
    c = -res_a / residue_simple(unit, b)
    return RationalOneForm(unit.numerator_coeffs, unit.denominator_roots, c), Q3, c


def test_expansion_forced_q2_breaks_minimality():
    a, b, Q1, G = 1.0, 1.0, 2.0, 1.0
    form, Q3, c = forced_q2_equal_q1_form(a, b, Q1, G)
    coeffs = expansion_at_infinity(form)
    # w^2 coefficient = -c (2 Q1 + Q3) = -2 c Q1^3 / (b^2 + Q1^2), nonzero
    expected = -c * (2 * Q1 + Q3)
    assert abs(coeffs[1] - expected) < 1e-13 * abs(expected)
    assert abs(expected - (-2 * c * Q1 ** 3 / (b * b + Q1 * Q1))) < 1e-13
    assert abs(coeffs[1] / coeffs[0]) > 1e-2
    oracle = sympy_infinity_series(form)
    assert np.allclose(coeffs, oracle, atol=1e-12)


def test_gluing_defects_construction_and_perturbation():
    curve = derive_constants(1.0, 1.0, 2.0, 1.0)
    assert max(gluing_defects(curve)) < 1e-13
    perturbed = curve._replace(c=1.1 * curve.c)
    for sign, defect in zip((1.0, -1.0), gluing_defects(perturbed)):
        res = residue_simple(curve.omega2(), sign * curve.b)
        assert abs(defect - 0.1 * abs(res)) < 1e-14


def frac_omega2_residue(b, Q, gamma_im_sq, c, at):
    """Exact rational-arithmetic residue of Omega_2 at a simple pole."""
    roots = [Q[0], Q[1], Q[2], b, -b]
    num = c * (at * at + gamma_im_sq)
    den = Fraction(1)
    for r in roots:
        if r != at:
            den *= at - r
    return num / den


def test_regularity_exact_rational_oracle():
    # a = b = 1, Q1 = 2, gamma_im = 1: everything is rational, defect exactly 0
    b = Fraction(1)
    Q = (Fraction(2), Fraction(-2), Fraction(0))
    c = Fraction(3, 2)
    res_a_omega1 = Fraction(1, 2)          # 1/(2 a^2)
    res_ma_omega1 = Fraction(1, 2)
    rb = frac_omega2_residue(b, Q, Fraction(1), c, b)
    rmb = frac_omega2_residue(b, Q, Fraction(1), c, -b)
    assert res_a_omega1 + rb == 0
    assert res_ma_omega1 + rmb == 0
    # and the Fraction c matches the float path
    curve = derive_constants(1.0, 1.0, 2.0, 1.0)
    assert abs(curve.c - float(c)) < 1e-15
    for q, frac_q in zip(curve.Q, Q):
        exact = frac_omega2_residue(b, Q, Fraction(1), c, frac_q)
        assert abs(curve.res_Q[curve.Q.index(q)] - float(exact)) < 1e-15


def test_random_parameter_sweep_invariants():
    rng = np.random.default_rng(42)
    for _ in range(50):
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(0.5, 2.0)
        Q1 = rng.uniform(1.01, 3.0) * b * rng.choice([-1.0, 1.0])
        G = rng.uniform(0.2, 2.0)
        curve = derive_constants(a, b, Q1, G)
        assert max(gluing_defects(curve)) < 1e-13
        assert all(r > 0 for r in curve.res_Q)
        assert abs(curve.Q1 + curve.Q2 + curve.Q3) == 0.0
        coeffs = expansion_at_infinity(curve.omega2())
        assert abs(coeffs[1]) < 1e-12 * abs(coeffs[0])
        assert abs(curve.d - a) < 4e-16 * a and curve.d > 0


def test_a_curve_beyond_the_absolute_regularity_tolerance_derives():
    # Omega_1's residues are 1/(2 a^2), so the rounding of their cancellation
    # grows like a^-2: the curve is built, and the report's curve_regularity FAILs it
    curve = derive_constants(0.003, 1.0, 2.0, 1.0)
    assert all(type(v) is float for v in (curve.c, curve.res_r, curve.c1_exp, *curve.res_Q))
    defect = max(gluing_defects(curve))
    assert defect > REGULARITY_TOL
    record = curve_checks(curve)[0]
    assert record.name == "curve_regularity" and record.value == defect and not record.passed


_REFUSALS = ("parameters must be finite", "a must be positive", "b must be positive",
             "gamma_im must be nonzero", "Q1 must be nonzero", "|Q1| = ",
             "cannot derive the curve constants of ")


def test_derive_constants_refuses_only_what_it_cannot_build():
    # a, b, |gamma_im| log-uniform in [1e-4, 1e4] and |Q1| = b (1 + 10^U(-16, 4)):
    # each draw derives, or an input rule or a constant beyond double range refuses
    # it; no claim about the built curve refuses it, since the report checks those
    rng = random.Random(7)
    for _ in range(2000):
        a, b, g = (10 ** rng.uniform(-4, 4) for _ in range(3))
        q1 = b * (1 + 10 ** rng.uniform(-16, 4)) * rng.choice((-1, 1))
        params = (a, b, q1, g * rng.choice((-1, 1)))
        try:
            curve = derive_constants(*params)
        except ValueError as exc:
            assert str(exc).startswith(_REFUSALS), (params, str(exc))
        else:
            assert min(curve.res_Q) > 0, params
