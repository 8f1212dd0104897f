"""Acceptance suite: one test per criterion, each at its pinned tolerance.

Every test prints a single PASS line once its assertions hold, so running
``pytest -v -s tests/test_acceptance.py`` gives a one-line verdict per
criterion.  The worked example is a = b = 1, Q1 = 2, gamma_im = 1 over a
64 x 64 grid on [0, 2 pi)^2.
"""

import cmath
import math

import numpy as np
import pytest

from mlsurf.baker_akhiezer import (ba_conjugation_defect,
                                   ba_essential_singularity_coeffs,
                                   ba_rational_eval)
from mlsurf.diffgeo import (angle_defect, beta_gradient_fd,
                            christoffel_b_defects, christoffel_solve,
                            frame_and_connection, frame_defects,
                            gauss_curvature, gram_defects, lagrangian_angle,
                            gradient_identity_defects, metric_from_jet,
                            metric_gradients_from_jet, minimality_defects,
                            residue_identity_defects)
from mlsurf.spectral_curve import (RationalOneForm, derive_constants,
                                   expansion_at_infinity, residue_simple)
from mlsurf.surface_families import (cone_family_jet, in_degeneracy_tube,
                                     spectral_family_jet, spectral_metric_field)
from mlsurf.theta import LatticeTruncation, PeriodMatrix, riemann_theta, \
    quasi_periodicity_defect

GRID = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)


@pytest.fixture(scope="module")
def sphere():
    return derive_constants(1.0, 1.0, 2.0, 1.0)


def random_curve(rng):
    b = rng.uniform(0.5, 2.0)
    return derive_constants(rng.uniform(0.5, 2.0), b,
                            rng.uniform(1.01, 3.0) * b * rng.choice([-1.0, 1.0]),
                            rng.uniform(0.2, 2.0))


def done(n, text):
    print(f"ACCEPTANCE {n:>2} PASS: {text}")


def test_criterion_01_worked_example_gram_and_angle(sphere):
    worst_norm = 0.0
    worst_ortho = 0.0
    worst_angle = 0.0
    excluded = 0
    for x in GRID:
        for y in GRID:
            jet = spectral_family_jet(sphere, x, y)
            g = gram_defects(jet)
            worst_norm = max(worst_norm, g[0])
            worst_ortho = max(worst_ortho, g[1], g[2], g[3])
            if in_degeneracy_tube(sphere, x, y, 1e-2):
                # the angle is 0/0 on the G = 0 lines; every excluded point
                # must itself sit inside the declared degeneracy tube
                excluded += 1
                G = float(np.sum(np.abs(jet.phi_y) ** 2))
                assert G < 1e-3
                continue
            beta = lagrangian_angle(jet)
            worst_angle = max(worst_angle, abs(cmath.exp(2j * beta) + 1.0))
    assert worst_norm < 1e-10
    assert worst_ortho < 1e-10
    assert worst_angle < 1e-10
    assert excluded == 128  # the 64 x 64 grid hits the degeneracy lines exactly
    done(1, f"max|<phi,phi>-1|={worst_norm:.2e}, max Eq(1) defect={worst_ortho:.2e}, "
            f"max|e^(2ib)+1|={worst_angle:.2e} ({excluded} degenerate points, all in tube)")


def test_criterion_02_metric_reproduction(sphere):
    worst_E = 0.0
    worst_G = 0.0
    for x in GRID:
        for y in GRID:
            jet = spectral_family_jet(sphere, x, y)
            E = float(np.sum(np.abs(jet.phi_x) ** 2))
            G = float(np.sum(np.abs(jet.phi_y) ** 2))
            worst_E = max(worst_E, abs(E - 1.0))
            worst_G = max(worst_G, abs(G - 1.5 * (1.0 + math.sin(2 * (x - y)))))
    assert worst_E < 1e-10
    assert worst_G < 1e-10
    done(2, f"max|E-1|={worst_E:.2e}, max|G-(3/2)(1+sin 2(x-y))|={worst_G:.2e}")


def test_criterion_03_curvature_reproduction(sphere):
    field = spectral_metric_field(sphere)
    fd_field = field.without_derivatives()
    worst_analytic = 0.0
    worst_fd = 0.0
    outside = 0
    for x in GRID:
        for y in GRID:
            if in_degeneracy_tube(sphere, x, y, 1e-2):
                continue
            outside += 1
            worst_analytic = max(worst_analytic,
                                 abs(gauss_curvature(field, x, y, h=1e-4) - 1.0))
            worst_fd = max(worst_fd,
                           abs(gauss_curvature(fd_field, x, y, h=1e-4) - 1.0))
    assert outside == 64 * 64 - 128
    assert worst_analytic < 1e-4
    assert worst_fd < 1e-3
    done(3, f"max|K-1|={worst_analytic:.2e} analytic, {worst_fd:.2e} FD "
            f"({outside} points outside the tube)")


def test_criterion_04_residue_identity_suite():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        curve = random_curve(rng)
        for _ in range(10):
            x, y = rng.uniform(-8.0, 8.0, 2)
            jet = spectral_family_jet(curve, x, y)
            worst = max(worst, float(np.max(residue_identity_defects(curve, jet))))
    assert worst < 1e-9
    done(4, f"20 curves x 10 points: max residue-identity defect={worst:.2e}")


def test_criterion_05_puncture_expansion_conditions():
    rng = np.random.default_rng(2025)
    worst = 0.0
    for _ in range(20):
        curve = random_curve(rng)
        for form in (curve.omega1(), curve.omega2()):
            coeffs = expansion_at_infinity(form, 2)
            worst = max(worst, abs(coeffs[1]) / abs(coeffs[0]))
    assert worst < 1e-12
    # negative control: forcing Q2 = +Q1 produces a double pole and a w^2 term
    a, b, Q1, G = 1.0, 1.0, 2.0, 1.0
    Q3 = -b * b * (2 * Q1) / (b * b + Q1 * Q1)
    unit = RationalOneForm(component=2, numerator_coeffs=(G * G, 0.0, 1.0),
                           denominator_roots=((Q1, 2), (Q3, 1), (b, 1), (-b, 1)))
    c = -(1.0 / (2 * a * a)) / residue_simple(unit, b)
    forced = expansion_at_infinity(
        RationalOneForm(component=2, numerator_coeffs=(G * G, 0.0, 1.0),
                        denominator_roots=((Q1, 2), (Q3, 1), (b, 1), (-b, 1)),
                        scale=c), 2)
    ratio = abs(forced[1]) / abs(forced[0])
    assert ratio > 1e-2
    done(5, f"w^2 coefficient < {worst:.2e} relative on valid curves; "
            f"forced Q2=+Q1 control gives {ratio:.2f}")


def test_criterion_06_minimality_criteria(sphere):
    grid16 = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    worst_grad = 0.0
    worst_im = 0.0
    worst_b = 0.0
    sphere_field = lambda x, y: spectral_family_jet(sphere, x, y)
    cone_field = lambda x, y: cone_family_jet(1, 2, x, y)
    for x in grid16:
        for y in grid16:
            for fam, jet_field in (("spectral", sphere_field), ("cone", cone_field)):
                if fam == "spectral" and in_degeneracy_tube(sphere, x, y, 1e-2):
                    continue
                jet = jet_field(x, y)
                ch = christoffel_solve(jet)
                md = metric_from_jet(jet)
                worst_b = max(worst_b, float(np.max(christoffel_b_defects(ch, md))))
                grads = metric_gradients_from_jet(jet)
                bgrads = beta_gradient_fd(jet_field, x, y)
                worst_grad = max(worst_grad,
                                  float(np.max(gradient_identity_defects(ch, grads, bgrads))))
                worst_im = max(worst_im, float(np.max(minimality_defects(ch))))
    assert worst_grad < 1e-8
    assert worst_im < 1e-8
    assert worst_b < 1e-8
    done(6, f"gradient-identity defect={worst_grad:.2e}, minimality Im={worst_im:.2e}, "
            f"Christoffel b defect={worst_b:.2e} (both families)")


def test_criterion_07_frame_suite(sphere):
    grid8 = np.linspace(0.1, 2.0 * math.pi, 8, endpoint=False)
    worst = {}
    sphere_field = lambda x, y: spectral_family_jet(sphere, x, y)
    cone_field = lambda x, y: cone_family_jet(1, 2, x, y)
    for x in grid8:
        for y in grid8:
            for fam, jet_field in (("spectral", sphere_field), ("cone", cone_field)):
                if fam == "spectral" and in_degeneracy_tube(sphere, x, y, 1e-2):
                    continue
                d = frame_defects(frame_and_connection(jet_field, x, y, h=1e-4))
                for name, val in d.items():
                    worst[name] = max(worst.get(name, 0.0), val)
    for name, val in worst.items():
        assert val < 1e-6, (name, val)
    done(7, "frame suite (unitarity, det, su(3) structure, zero patterns, "
            f"f/h real) all < 1e-6; worst={max(worst.values()):.2e}")


def test_criterion_08_conjugation_reality():
    rng = np.random.default_rng(2026)
    worst_conj = 0.0
    for _ in range(5):
        curve = random_curve(rng)
        for _ in range(20):
            x, y = rng.uniform(-5.0, 5.0, 2)
            coord = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            comp = int(rng.integers(1, 3))
            if comp == 2 and abs(coord - curve.gamma) < 1e-6:
                continue
            worst_conj = max(worst_conj,
                             ba_conjugation_defect(curve, x, y, comp, coord))
    assert worst_conj < 1e-12
    sphere = derive_constants(1.0, 1.0, 2.0, 1.0)
    grid32 = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
    worst_im = 0.0
    for x in grid32:
        for y in grid32:
            c1 = ba_essential_singularity_coeffs(sphere, x, y, "P1", 0)
            c2 = ba_essential_singularity_coeffs(sphere, x, y, "P2", 0)
            worst_im = max(worst_im, abs(c1[0].imag), abs(c2[0].imag))
    assert worst_im < 1e-12
    done(8, f"conjugation defect={worst_conj:.2e}, max|Im f_i|={worst_im:.2e}")


def test_criterion_09_theta_suite():
    B1 = PeriodMatrix([[1j]])
    val = riemann_theta(np.array([0.0]), B1, LatticeTruncation(8))
    oracle = 1.0864348112133080145753161215102234570  # |m| <= 12 at 40 digits
    assert abs(val - oracle) < 1e-12 * abs(oracle)

    rng = np.random.default_rng(2027)
    worst = 0.0
    for _ in range(100):
        g = int(rng.integers(1, 4))
        S = rng.uniform(-0.3, 0.3, size=(g, g))
        T = rng.uniform(-0.15, 0.15, size=(g, g))
        B = PeriodMatrix((S + S.T) / 2 + 1j * (np.eye(g) + (T + T.T) / 2))
        z = rng.uniform(-1, 1, g) + 1j * rng.uniform(-0.2, 0.2, g)
        j = int(rng.integers(0, g))
        e_j = np.zeros(g)
        e_j[j] = 1.0
        t0 = riemann_theta(z, B)
        t1 = riemann_theta(z + e_j, B)
        worst = max(worst, abs(t1 - t0) / (1.0 + abs(t0)))
        tm = riemann_theta(-z, B)
        worst = max(worst, abs(tm - t0) / (1.0 + abs(t0)))
        m = rng.integers(-1, 2, g)
        worst = max(worst, quasi_periodicity_defect(z, m, B))
    assert worst < 1e-8
    done(9, f"theta value matches oracle to 1e-12; 100 randomized periodicity/"
            f"parity/quasi-periodicity defects < {worst:.2e}")


def test_criterion_10_cone_family():
    grid32 = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
    worst_gram = 0.0
    worst_beta = 0.0
    worst_v = 0.0
    beta_ref = lagrangian_angle(cone_family_jet(1, 2, 0.0, 0.0))
    for x in grid32:
        for y in grid32[::4]:
            jet = cone_family_jet(1, 2, x, y)
            worst_gram = max(worst_gram, float(np.max(gram_defects(jet))))
            worst_beta = max(worst_beta,
                             angle_defect(lagrangian_angle(jet), beta_ref, 2.0 * math.pi))
            md = metric_from_jet(jet)
            worst_v = max(worst_v, abs(md.v1 - md.v2))
    assert worst_gram < 1e-10
    assert worst_beta < 1e-8
    assert worst_v > 0.1
    done(10, f"cone (1,2): Eq(1) defect={worst_gram:.2e}, beta spread="
             f"{worst_beta:.2e}, max|v1-v2|={worst_v:.2f} > 0.1")


def test_criterion_11_constant_discrepancy_resolution(sphere):
    # independent brute-force split of the unit norm through the rational
    # Baker-Akhiezer route: |phi1|^2 + |phi2|^2 = (5 + 3 sin 2(x-y))/8, which
    # forces |phi3|^2 = (3/8)(1 - sin 2(x-y)) and alpha_3 = sqrt(3/8)
    rng = np.random.default_rng(2028)
    worst = 0.0
    for _ in range(200):
        x, y = rng.uniform(-8.0, 8.0, 2)
        brute = sum(
            sphere.res_Q[i]
            * abs(ba_rational_eval(sphere, x, y, 2, sphere.Q[i]).psi) ** 2
            for i in range(2))
        worst = max(worst, abs(brute - (5.0 + 3.0 * math.sin(2 * (x - y))) / 8.0))
    assert worst < 1e-12
    assert abs(sphere.alpha[2] - math.sqrt(3.0 / 8.0)) < 1e-15
    # the printed prefactor (1/2) sqrt(1/2) is inconsistent with <phi,phi> = 1:
    # it would leave the norm at (6 + 2 sin 2(x-y))/8, off by (1 - sin 2(x-y))/4
    bad_alpha = 0.5 * math.sqrt(0.5)
    theta = 0.0  # x = y: the discrepancy is exactly 1/4 there
    bad_norm = ((5.0 + 3.0 * math.sin(2 * theta)) / 8.0
                + bad_alpha ** 2 * (math.cos(theta) - math.sin(theta)) ** 2)
    assert abs(bad_norm - 1.0) > 0.2
    done(11, f"brute-force |phi1|^2+|phi2|^2 = (5+3 sin 2(x-y))/8 to {worst:.2e}; "
             f"alpha_3 = sqrt(3/8); printed prefactor off the unit norm by "
             f"{abs(bad_norm - 1.0):.2f}")
