import cmath
import dataclasses
import math

import numpy as np
import pytest

from mlsurf.diffgeo import (angle_defect, beta_gradient_fd,
                            christoffel_b_defects, christoffel_residual,
                            christoffel_solve, frame_and_connection,
                            frame_defects, gauss_curvature, gram_defects,
                            herm, lagrangian_angle, gradient_identity_defects,
                            metric_from_jet, metric_gradients_from_jet,
                            minimality_defects, residue_identity_defects)
from mlsurf.spectral_curve import derive_constants
from mlsurf.surface_families import (MetricField, SurfaceJet, cone_family_jet,
                                     in_degeneracy_tube, spectral_family_jet,
                                     spectral_metric_field)


@pytest.fixture(scope="module")
def sphere_curve():
    return derive_constants(1.0, 1.0, 2.0, 1.0)


def sphere_jet(curve, x, y):
    return spectral_family_jet(curve, x, y)


def random_curve(rng):
    b = rng.uniform(0.5, 2.0)
    return derive_constants(rng.uniform(0.5, 2.0), b,
                            rng.uniform(1.01, 3.0) * b * rng.choice([-1.0, 1.0]),
                            rng.uniform(0.2, 2.0))


def phase_deformed_jet(jet, lam):
    """Multiply one component by the unit phase e^{i lam x}; breaks Eq. (1)."""
    ph = cmath.exp(1j * lam * jet.x)
    phi = jet.phi.copy()
    phi_x = jet.phi_x.copy()
    phi_y = jet.phi_y.copy()
    phi_xx = jet.phi_xx.copy()
    phi_xy = jet.phi_xy.copy()
    phi_yy = jet.phi_yy.copy()
    phi_x[0] = ph * (1j * lam * jet.phi[0] + jet.phi_x[0])
    phi_xx[0] = ph * ((1j * lam) ** 2 * jet.phi[0]
                      + 2j * lam * jet.phi_x[0] + jet.phi_xx[0])
    phi_xy[0] = ph * (1j * lam * jet.phi_y[0] + jet.phi_xy[0])
    phi[0] = ph * jet.phi[0]
    phi_y[0] = ph * jet.phi_y[0]
    phi_yy[0] = ph * jet.phi_yy[0]
    return SurfaceJet(x=jet.x, y=jet.y, phi=phi, phi_x=phi_x, phi_y=phi_y,
                      phi_xx=phi_xx, phi_xy=phi_xy, phi_yy=phi_yy)


def test_gram_defects_examples(sphere_curve):
    jet = sphere_jet(sphere_curve, 0.3, 1.1)
    assert np.max(gram_defects(jet)) < 1e-12
    jet = cone_family_jet(1, 2, 0.77, -0.31)
    assert np.max(gram_defects(jet)) < 1e-12
    scaled = dataclasses.replace(jet, phi=1.1 * jet.phi)
    d = gram_defects(scaled)
    assert abs(d[0] - 0.21) < 1e-12


def test_herm_convention():
    u = np.array([1j, 0.0, 0.0])
    w = np.array([2.0, 0.0, 0.0])
    assert herm(u, w) == 2j  # second slot conjugated: u . conj(w)


def test_metric_examples(sphere_curve):
    rng = np.random.default_rng(1)
    for _ in range(40):
        x, y = rng.uniform(-6, 6, 2)
        if in_degeneracy_tube(sphere_curve, x, y, 1e-2):
            continue
        md = metric_from_jet(sphere_jet(sphere_curve, x, y))
        assert abs(md.E - 1.0) < 1e-10
        assert abs(md.G - 1.5 * (1 + math.sin(2 * (x - y)))) < 1e-10
    jet = sphere_jet(sphere_curve, 0.2, 0.5)
    md = metric_from_jet(jet)
    doubled = metric_from_jet(dataclasses.replace(jet, phi_x=2.0 * jet.phi_x))
    assert abs(doubled.v1 - md.v1 - math.log(4.0)) < 1e-13


def test_metric_cone_hand_oracle():
    # m = n = 1: |phi_x|^2 = 2/3 everywhere (rho is the constant 1/sqrt 3)
    md = metric_from_jet(cone_family_jet(1, 1, 0.83, 0.21))
    assert abs(md.E - 2.0 / 3.0) < 1e-14
    assert abs(md.G - 2.0 * math.pi ** 2) < 1e-12


def test_metric_degenerate_point_rejected(sphere_curve):
    jet = sphere_jet(sphere_curve, 0.3, 1.1)
    zero = dataclasses.replace(jet, phi_y=np.zeros(3, dtype=complex))
    with pytest.raises(ValueError, match="degenerate"):
        metric_from_jet(zero)


def test_lagrangian_angle_sphere(sphere_curve):
    vals = []
    rng = np.random.default_rng(2)
    for _ in range(40):
        x, y = rng.uniform(-6, 6, 2)
        if in_degeneracy_tube(sphere_curve, x, y, 1e-2):
            continue
        beta = lagrangian_angle(sphere_jet(sphere_curve, x, y))
        assert abs(cmath.exp(2j * beta) + 1.0) < 1e-12
        vals.append(beta)
    ref = vals[0]
    assert max(angle_defect(b, ref, math.pi) for b in vals) < 1e-10


def test_lagrangian_angle_cone_constant():
    vals = [lagrangian_angle(cone_family_jet(1, 2, x, y))
            for x in np.linspace(0, 2 * math.pi, 16, endpoint=False)
            for y in np.linspace(0, 2 * math.pi, 4, endpoint=False)]
    assert max(abs(v - vals[0]) for v in vals) < 1e-8


def test_lagrangian_angle_first_row_phase(sphere_curve):
    # scaling only the phi row by e^{i t} shifts the determinant argument by t
    jet = sphere_jet(sphere_curve, 0.3, 1.1)
    beta0 = lagrangian_angle(jet)
    t = 0.83
    rotated = dataclasses.replace(jet, phi=np.exp(1j * t) * jet.phi)
    beta1 = lagrangian_angle(rotated)
    assert abs(math.remainder(beta1 - beta0 - t, 2 * math.pi)) < 1e-12


def test_lagrangian_angle_gate(sphere_curve):
    jet = sphere_jet(sphere_curve, 0.3, 1.1)
    bad = dataclasses.replace(jet, phi=1.2 * jet.phi)
    with pytest.raises(ValueError, match="unit circle"):
        lagrangian_angle(bad)


def test_christoffel_sphere_invariants(sphere_curve):
    rng = np.random.default_rng(3)
    for _ in range(30):
        x, y = rng.uniform(-6, 6, 2)
        if in_degeneracy_tube(sphere_curve, x, y, 5e-2):
            continue
        jet = sphere_jet(sphere_curve, x, y)
        ch = christoffel_solve(jet)
        md = metric_from_jet(jet)
        b_def = christoffel_b_defects(ch, md)
        assert b_def[0] < 1e-9   # b11 = -2 e^{v1} = -E
        assert b_def[1] < 1e-10  # b12 = 0
        assert b_def[2] < 1e-8   # b22 = -2 e^{v2} = -G
        assert christoffel_residual(jet, ch) < 1e-10
        # Gamma^1_12 = 0 since f1 is constant
        assert abs(ch.G121) < 1e-9


def test_christoffel_closed_form_coefficients(sphere_curve):
    # in the phi_ss = Gamma phi_s + ... convention the coefficient of phi_y in
    # the xy equation is +f2_x/f2 (the F-function form carries the opposite sign)
    jet = sphere_jet(sphere_curve, 0.2, 0.9)
    ch = christoffel_solve(jet)
    theta = 0.2 - 0.9
    expected = (math.cos(theta) - math.sin(theta)) / (math.cos(theta) + math.sin(theta))
    assert abs(expected - 11.681373800310226) < 1e-12
    assert abs(ch.G122 - expected) < 1e-9 * abs(expected)
    # and the yy equation carries +f2_y/f2
    assert abs(ch.G222 - (-expected)) < 1e-9 * abs(expected)


def test_christoffel_ill_conditioned(sphere_curve):
    jet = sphere_jet(sphere_curve, 0.3, 1.1)
    bad = dataclasses.replace(jet, phi_y=jet.phi_x)
    with pytest.raises(ValueError, match="ill-conditioned"):
        christoffel_solve(bad)


def test_gradient_identity_both_families(sphere_curve):
    rng = np.random.default_rng(4)
    jet_field = lambda x, y: sphere_jet(sphere_curve, x, y)
    for _ in range(15):
        x, y = rng.uniform(-6, 6, 2)
        if in_degeneracy_tube(sphere_curve, x, y, 5e-2):
            continue
        jet = jet_field(x, y)
        d = gradient_identity_defects(christoffel_solve(jet), metric_gradients_from_jet(jet),
                           beta_gradient_fd(jet_field, x, y))
        assert np.max(d) < 1e-8
    cone_field = lambda x, y: cone_family_jet(1, 2, x, y)
    for _ in range(15):
        x, y = rng.uniform(-6, 6, 2)
        jet = cone_field(x, y)
        d = gradient_identity_defects(christoffel_solve(jet), metric_gradients_from_jet(jet),
                           beta_gradient_fd(cone_field, x, y))
        assert np.max(d) < 1e-8


def test_gradient_identity_negative_control(sphere_curve):
    jet = phase_deformed_jet(sphere_jet(sphere_curve, 0.3, 1.1), 0.4)
    d = gradient_identity_defects(christoffel_solve(jet), metric_gradients_from_jet(jet),
                       (0.0, 0.0))
    assert np.max(d) > 1e-2


def test_minimality_both_families(sphere_curve):
    rng = np.random.default_rng(5)
    for _ in range(20):
        x, y = rng.uniform(-6, 6, 2)
        if not in_degeneracy_tube(sphere_curve, x, y, 5e-2):
            d = minimality_defects(christoffel_solve(sphere_jet(sphere_curve, x, y)))
            assert np.max(d) < 1e-8
        d = minimality_defects(christoffel_solve(cone_family_jet(1, 2, x, y)))
        assert np.max(d) < 1e-8


def test_minimality_negative_control(sphere_curve):
    # a unit-norm x-dependent phase on one component violates Eq. (1) and
    # produces O(1) imaginary parts; a real reparametrization x -> x^3 keeps
    # the image minimal and provably leaves both imaginary parts at zero
    jet = phase_deformed_jet(sphere_jet(sphere_curve, 0.3, 1.1), 0.4)
    d = minimality_defects(christoffel_solve(jet))
    assert np.max(d) > 1e-3

    base = sphere_jet(sphere_curve, 0.7 ** 3, 1.1)
    sp, spp = 3 * 0.7 ** 2, 6 * 0.7
    repar = SurfaceJet(x=0.7, y=1.1, phi=base.phi,
                       phi_x=sp * base.phi_x, phi_y=base.phi_y,
                       phi_xx=spp * base.phi_x + sp ** 2 * base.phi_xx,
                       phi_xy=sp * base.phi_xy, phi_yy=base.phi_yy)
    d = minimality_defects(christoffel_solve(repar))
    assert np.max(d) < 1e-12


def test_frame_sphere(sphere_curve):
    jet_field = lambda x, y: sphere_jet(sphere_curve, x, y)
    fr = frame_and_connection(jet_field, 0.3, 1.1, h=1e-4)
    d = frame_defects(fr)
    for name, val in d.items():
        assert val < 1e-6, (name, val)
    # A_12 = sqrt(2) e^{v1/2 + i beta/2}
    md = metric_from_jet(jet_field(0.3, 1.1))
    expected = math.sqrt(2.0) * math.exp(md.v1 / 2) * cmath.exp(0.5j * fr.beta)
    assert abs(fr.A[0, 1] - expected) < 1e-6
    # B first row pattern: B_12 = 0, B_13 = sqrt(2) e^{v2/2 + i beta/2}
    expected_b = math.sqrt(2.0) * math.exp(md.v2 / 2) * cmath.exp(0.5j * fr.beta)
    assert abs(fr.B[0, 2] - expected_b) < 1e-6
    assert abs(fr.B[0, 1]) < 1e-6


def test_frame_consistency_reconstruction(sphere_curve):
    jet_field = lambda x, y: sphere_jet(sphere_curve, x, y)
    x, y, h = 0.9, 0.2, 1e-4
    fr = frame_and_connection(jet_field, x, y, h=h)
    # A Phi reproduces the finite-difference Phi_x
    def tw_frame(xx, yy):
        j = jet_field(xx, yy)
        b = lagrangian_angle(j)
        b = fr.beta + math.remainder(b - fr.beta, 2 * math.pi)
        tw = cmath.exp(-0.5j * b)
        return np.array([j.phi,
                         tw * j.phi_x / np.linalg.norm(j.phi_x),
                         tw * j.phi_y / np.linalg.norm(j.phi_y)])
    phi_x_fd = (tw_frame(x + h, y) - tw_frame(x - h, y)) / (2 * h)
    assert np.max(np.abs(fr.A @ fr.Phi - phi_x_fd)) < 1e-5


def test_frame_degenerate_stencil(sphere_curve):
    jet_field = lambda x, y: sphere_jet(sphere_curve, x, y)
    # center a stencil exactly on a G = 0 line: x - y = 3 pi / 4
    x = 3 * math.pi / 4
    with pytest.raises(ValueError):
        frame_and_connection(jet_field, x, 0.0, h=1e-4)


def test_residue_identities_sphere_and_metric(sphere_curve):
    rng = np.random.default_rng(6)
    for _ in range(100):
        x, y = rng.uniform(-8, 8, 2)
        jet = sphere_jet(sphere_curve, x, y)
        assert np.max(residue_identity_defects(sphere_curve, jet)) < 1e-10
    # Eq. (4) pins E = |phi_x|^2 = -|f1|^2 c1_exp = a^2 = 1
    jet = sphere_jet(sphere_curve, 0.4, -0.9)
    E = float(np.sum(np.abs(jet.phi_x) ** 2))
    assert abs(E - (-(sphere_curve.d ** 2) * sphere_curve.c1_exp)) < 1e-12
    assert abs(E - 1.0) < 1e-12


def test_residue_identities_random_curves():
    rng = np.random.default_rng(7)
    for _ in range(20):
        curve = random_curve(rng)
        for _ in range(10):
            x, y = rng.uniform(-6, 6, 2)
            jet = spectral_family_jet(curve, x, y)
            assert np.max(residue_identity_defects(curve, jet)) < 1e-9


def test_gauss_curvature_sphere(sphere_curve):
    field = spectral_metric_field(sphere_curve)
    rng = np.random.default_rng(8)
    count = 0
    for _ in range(60):
        x, y = rng.uniform(0, 2 * math.pi, 2)
        if in_degeneracy_tube(sphere_curve, x, y, 1e-2):
            continue
        count += 1
        assert abs(gauss_curvature(field, x, y, h=1e-4) - 1.0) < 1e-4
        fd_field = field.without_derivatives()
        assert abs(gauss_curvature(fd_field, x, y, h=1e-4) - 1.0) < 1e-3
    assert count > 30


def test_gauss_curvature_flat_and_round():
    flat = MetricField(E=lambda x, y: 1.0, G=lambda x, y: 1.0,
                       E_y=lambda x, y: 0.0, G_x=lambda x, y: 0.0)
    assert abs(gauss_curvature(flat, 0.3, 0.4)) < 1e-12
    # E = 1, G = cos^2 x on |x| < pi/2 is the round sphere: K = 1
    round_field = MetricField(E=lambda x, y: 1.0,
                              G=lambda x, y: math.cos(x) ** 2,
                              E_y=lambda x, y: 0.0,
                              G_x=lambda x, y: -math.sin(2 * x))
    for x in (-1.2, -0.4, 0.3, 1.0):
        assert abs(gauss_curvature(round_field, x, 0.0, h=1e-4) - 1.0) < 1e-6
        assert abs(gauss_curvature(round_field.without_derivatives(), x, 0.0,
                                   h=1e-4) - 1.0) < 1e-6


def test_gauss_curvature_degenerate_rejected():
    field = MetricField(E=lambda x, y: 1.0, G=lambda x, y: -1.0)
    with pytest.raises(ValueError, match="positive"):
        gauss_curvature(field, 0.0, 0.0)


def test_degeneracy_tube_bound(sphere_curve):
    # inside the declared tube G < 1e-3; the lines are x - y = 3 pi/4 (mod pi)
    rng = np.random.default_rng(9)
    for _ in range(200):
        x = rng.uniform(0, 2 * math.pi)
        offset = rng.uniform(-1e-2, 1e-2)
        y = x - (3 * math.pi / 4 + offset)
        assert in_degeneracy_tube(sphere_curve, x, y, 1e-2)
        jet = sphere_jet(sphere_curve, x, y)
        G = float(np.sum(np.abs(jet.phi_y) ** 2))
        assert G < 1e-3


def test_gradient_identity_synthetic_violation(sphere_curve):
    jet = sphere_jet(sphere_curve, 0.3, 1.1)
    broken = dataclasses.replace(jet, phi_y=jet.phi_y + 0.3 * jet.phi)
    d = gradient_identity_defects(christoffel_solve(broken), metric_gradients_from_jet(broken),
                       (0.0, 0.0))
    assert np.max(d) > 1e-2
