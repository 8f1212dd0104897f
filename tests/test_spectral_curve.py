import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

from mlsurf.report import REGULARITY_TOL, curve_checks
from mlsurf.spectral_curve import (RationalOneForm, derive_constants,
                                   expansion_at_infinity, gluing_defects, residue)


def omega1_form(a):
    return RationalOneForm(numerator=(1.0,), roots=(0.0, a, -a), scale=1.0)


def residues(form):
    return [residue(form, k) for k in range(len(form.roots))]


def log_uniform_curve(rng):
    """a, b, |gamma_im| log-uniform in [1e-3, 1e3] and |Q1| = b (1 + 10^U(-12, 3))."""
    b = 10 ** rng.uniform(-3, 3)
    return derive_constants(10 ** rng.uniform(-3, 3), b,
                            b * (1 + 10 ** rng.uniform(-12, 3)) * rng.choice((-1, 1)),
                            10 ** rng.uniform(-3, 3) * rng.choice((-1, 1)))


def test_residue_simple_hand_examples():
    # dz/(z(z^2-1)): partial fractions -1/z + 1/(2(z-1)) + 1/(2(z+1))
    form = omega1_form(1.0)
    assert residues(form) == [-1.0, 0.5, 0.5]
    assert all(type(r) is float for r in residues(form))
    for a in (0.5, 1.0, 1.7):
        form = omega1_form(a)
        # limit (z -+ a) f(z) = 1/(2a^2), equal at both points by symmetry
        assert abs(residue(form, 1) - 1 / (2 * a * a)) < 1e-15
        assert abs(residue(form, 2) - 1 / (2 * a * a)) < 1e-15


def test_residue_simple_takes_the_root_it_is_given():
    # roots 0, a and -a lie within 1e-12 of each other: each residue is its own root's
    a = 1e-13
    form = omega1_form(a)
    assert residue(form, 0) == -1 / (a * a)
    assert abs(residue(form, 1) - 1 / (2 * a * a)) < 1e-15 / (a * a)
    assert abs(residue(form, 2) - 1 / (2 * a * a)) < 1e-15 / (a * a)


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
    res = residues(curve.omega2())
    assert abs(sum(res)) < 1e-9 * max(map(abs, res))


def test_global_residue_theorem():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(0.5, 2.0)
        curve = derive_constants(a, b,
                                 rng.uniform(1.01, 3.0) * b * rng.choice([-1.0, 1.0]),
                                 rng.uniform(0.2, 2.0))
        for form in (curve.omega1(), curve.omega2()):
            res = residues(form)
            assert abs(sum(res)) < 1e-12 * max(map(abs, res))


def test_form_construction_invariants():
    # the contract residue and expansion_at_infinity rely on: simple poles, and
    # deg(numerator) = len(roots) - 3 with a nonzero leading coefficient
    rng = random.Random(9)
    for _ in range(200):
        curve = log_uniform_curve(rng)
        for form in (curve.omega1(), curve.omega2()):
            assert len(set(form.roots)) == len(form.roots) == len(form.numerator) + 2
            assert form.numerator[-1] == 1.0
            assert all(type(v) is float for v in (*form.numerator, *form.roots, form.scale))


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
    num = sum(sympy.nsimplify(c, rational=False) * z ** k for k, c in enumerate(form.numerator))
    den = sympy.prod([z - sympy.nsimplify(r, rational=False) for r in form.roots])
    g = -form.scale * num / den / w ** 2
    series = sympy.series(sympy.simplify(g), w, 0, 3).removeO()
    poly = sympy.Poly(series, w)
    return [complex(poly.coeff_monomial(w ** k)) for k in (1, 2)]


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


def exact_form(form):
    """The numerator, roots and scale of a form as Fractions: exactly the doubles it holds."""
    return [Fraction(c) for c in form.numerator], [Fraction(r) for r in form.roots], \
        Fraction(form.scale)


def exact_residues(num, roots, scale):
    """Every residue of scale * num(z) / prod (z - r) dz, in exact rational arithmetic."""
    out = []
    for k, pole in enumerate(roots):
        den = Fraction(1)
        for j, r in enumerate(roots):
            if j != k:
                den *= pole - r
        out.append(scale * sum(c * pole ** n for n, c in enumerate(num)) / den)
    return out


def exact_expansion(num, roots, scale):
    """(c, q) in exact arithmetic: the w and w^2 Taylor coefficients of
    -scale w RN(w) / prod (1 - r w), RN the reversed numerator, by series division."""
    den = [Fraction(1)]
    for r in roots:
        den = [u - r * v for u, v in zip(den + [0], [0] + den)]  # times (1 - r w)
    rn = num[::-1] + [Fraction(0)]
    s0 = rn[0]
    s1 = rn[1] - den[1] * s0
    return -scale * s0, -scale * s1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_expansion_matches_an_exact_rational_oracle(seed):
    # every residue and both puncture coefficients of Omega_1 and Omega_2 on 100 derived
    # curves per seed, against the exact values of the float forms; the derived root sums
    # cancel exactly, so q is also tested on a copy of each curve with Q3 moved off 0
    rng = random.Random(seed)
    for _ in range(100):
        curve = log_uniform_curve(rng)
        moved = curve._replace(Q3=curve.b * rng.uniform(-0.9, 0.9))
        exact = {}
        for name, form in (("omega1", curve.omega1()), ("omega2", curve.omega2()),
                           ("moved", moved.omega2())):
            num, roots, scale = exact_form(form)
            exact[name] = exact_residues(num, roots, scale)
            assert sum(exact[name]) == 0   # the residue theorem, exactly
            for k, want in enumerate(exact[name]):
                assert abs(residue(form, k) - float(want)) <= 1e-14 * abs(float(want)), (form, k)
            c, q = expansion_at_infinity(form)
            want_c, want_q = exact_expansion(num, roots, scale)
            assert c == float(want_c), form
            assert abs(q - float(want_q)) <= 1e-15 * abs(c) * sum(map(abs, form.roots)), form
        # and derive_constants reads the residues at the poles its formulas name
        for got, want in zip((curve.res_r, *curve.res_Q), exact["omega1"][:1] + exact["omega2"]):
            assert abs(got - float(want)) <= 1e-14 * abs(float(want))
        unit = exact_residues(*exact_form(curve.omega2()._replace(scale=1.0)))
        want_c = -exact["omega1"][1] / unit[3]
        assert abs(curve.c - float(want_c)) <= 1e-14 * abs(float(want_c))


def test_gluing_defects_construction_and_perturbation():
    curve = derive_constants(1.0, 1.0, 2.0, 1.0)
    assert max(gluing_defects(curve)) < 1e-13
    perturbed = curve._replace(c=1.1 * curve.c)
    for k, defect in zip((3, 4), gluing_defects(perturbed)):
        res = residue(curve.omega2(), k)
        assert abs(defect - 0.1 * abs(res)) < 1e-14


def test_regularity_exact_rational_oracle():
    # a = b = 1, Q1 = 2, gamma_im = 1: everything is rational, defect exactly 0
    b = Fraction(1)
    Q = [Fraction(2), Fraction(-2), Fraction(0)]
    c = Fraction(3, 2)
    exact = exact_residues([Fraction(1), Fraction(0), Fraction(1)], Q + [b, -b], c)
    assert Fraction(1, 2) + exact[3] == 0   # Res_{+-a} Omega_1 = 1/(2 a^2)
    assert Fraction(1, 2) + exact[4] == 0
    # and the Fraction c matches the float path
    curve = derive_constants(1.0, 1.0, 2.0, 1.0)
    assert abs(curve.c - float(c)) < 1e-15
    for i in range(3):
        assert abs(curve.res_Q[i] - float(exact[i])) < 1e-15


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


@pytest.mark.parametrize("change, name, value", [
    (lambda c: {"Q3": 0.5}, "curve_Q_sum", 0.5),
    (lambda c: {"res_Q": (*c.res_Q[:2], -1e-3)}, "curve_residues_positive", -1e-3),
], ids=["Q3", "res_Q3"])
def test_curve_checks_read_every_marked_point_and_residue(change, name, value):
    # the worked example has Q3 = 0, so a Q sum without Q3 would read 0 here, and a
    # residue check taking the max of the residues would PASS a negative third one
    curve = derive_constants(1.0, 1.0, 2.0, 1.0)
    record = {c.name: c for c in curve_checks(curve._replace(**change(curve)))}[name]
    assert record.value == value and not record.passed


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
