import cmath
import math

import numpy as np
import pytest
import sympy

from mlsurf.diffgeo import (angle_defect, basis_conditioned, beta_gradient, beta_gradient_fd,
                            christoffel_b_defects, christoffel_data, christoffel_solve,
                            frame_and_connection, FrameData,
                            frame_defects, gauss_curvature, gauss_curvature_masked, gram_defects,
                            herm, lagrangian_angle, gradient_identity_defects,
                            metric_data, metric_from_jet, metric_gradients_from_jet,
                            minimality_defects, residue_identity_defects, _angles, _det3,
                            _frame_data, _norm, _stencil, _twisted_frame)
from mlsurf.spectral_curve import derive_constants
from mlsurf.surface_families import (MetricField, SurfaceJet, cone_family, cone_family_jet,
                                     cone_metric_field, degeneracy_angle, in_degeneracy_tube,
                                     spectral_family, spectral_family_jet, spectral_metric_field,
                                     tube_mask)
from reference import random_curve


def sphere_jet(curve, x, y):
    return spectral_family_jet(curve, x, y)


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
    scaled = jet._replace(phi=1.1 * jet.phi)
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
    doubled = metric_from_jet(jet._replace(phi_x=2.0 * jet.phi_x))
    assert abs(doubled.v1 - md.v1 - math.log(4.0)) < 1e-13


def test_metric_cone_hand_oracle():
    # m = n = 1: |phi_x|^2 = 2/3 everywhere (rho is the constant 1/sqrt 3)
    md = metric_from_jet(cone_family_jet(1, 1, 0.83, 0.21))
    assert abs(md.E - 2.0 / 3.0) < 1e-14
    assert abs(md.G - 2.0 * math.pi ** 2) < 1e-12


def test_metric_degenerate_point_rejected(sphere_curve):
    jet = sphere_jet(sphere_curve, 0.3, 1.1)
    zero = jet._replace(phi_y=np.zeros(3, dtype=complex))
    with pytest.raises(ValueError, match="degenerate"):
        metric_from_jet(zero)


@pytest.mark.parametrize("row", ["phi_x", "phi_y"])
def test_metric_from_jet_refuses_a_zero_E_and_a_zero_G_alone(sphere_curve, row):
    jet = sphere_jet(sphere_curve, 0.3, 1.1)
    zero = jet._replace(**{row: np.zeros(3, dtype=complex)})
    with np.errstate(divide="ignore"):
        md, ok = metric_data(zero)
    assert not ok and (md.E == 0.0) == (row == "phi_x") and (md.G == 0.0) == (row == "phi_y")
    with pytest.raises(ValueError, match="a first derivative vanishes"):
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
    rotated = jet._replace(phi=np.exp(1j * t) * jet.phi)
    beta1 = lagrangian_angle(rotated)
    assert abs(math.remainder(beta1 - beta0 - t, 2 * math.pi)) < 1e-12


def test_lagrangian_angle_gate(sphere_curve):
    jet = sphere_jet(sphere_curve, 0.3, 1.1)
    bad = jet._replace(phi=1.2 * jet.phi)
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
        b_def = christoffel_b_defects(ch, md.E, md.G)
        assert b_def[0] < 1e-9   # b11 = -2 e^{v1} = -E
        assert b_def[1] < 1e-10  # b12 = 0
        assert b_def[2] < 1e-8   # b22 = -2 e^{v2} = -G
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
    bad = jet._replace(phi_y=jet.phi_x)
    with pytest.raises(ValueError, match="ill-conditioned"):
        christoffel_solve(bad)


def test_christoffel_refuses_a_non_finite_basis_before_lapack(capfd):
    # an SVD of this basis makes LAPACK write a DLASCL illegal-value line to fd 1
    jet = cone_family_jet(1, 2, 0.3, 1.1)
    phi = jet.phi.copy()
    phi[1] = math.inf
    with pytest.raises(ValueError) as exc:
        christoffel_solve(jet._replace(phi=phi))
    assert capfd.readouterr() == ("", "")
    assert str(exc.value) == "moving basis is not finite"


def _metric_grads(jet):
    md = metric_from_jet(jet)
    return metric_gradients_from_jet(jet, md.E, md.G)


def test_gradient_identity_both_families(sphere_curve):
    rng = np.random.default_rng(4)
    jet_field = lambda x, y: sphere_jet(sphere_curve, x, y)
    for _ in range(15):
        x, y = rng.uniform(-6, 6, 2)
        if in_degeneracy_tube(sphere_curve, x, y, 5e-2):
            continue
        jet = jet_field(x, y)
        d = gradient_identity_defects(christoffel_solve(jet), _metric_grads(jet),
                           beta_gradient_fd(jet_field, x, y))
        assert np.max(d) < 1e-8
    cone_field = lambda x, y: cone_family_jet(1, 2, x, y)
    for _ in range(15):
        x, y = rng.uniform(-6, 6, 2)
        jet = cone_field(x, y)
        d = gradient_identity_defects(christoffel_solve(jet), _metric_grads(jet),
                           beta_gradient_fd(cone_field, x, y))
        assert np.max(d) < 1e-8


def test_gradient_identity_negative_control(sphere_curve):
    jet = phase_deformed_jet(sphere_jet(sphere_curve, 0.3, 1.1), 0.4)
    d = gradient_identity_defects(christoffel_solve(jet), _metric_grads(jet),
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
    # A_12 = sqrt(2) e^{v1/2 + i beta/2}, beta the angle at the centre
    md, beta = metric_from_jet(jet_field(0.3, 1.1)), lagrangian_angle(jet_field(0.3, 1.1))
    expected = math.sqrt(2.0) * math.exp(md.v1 / 2) * cmath.exp(0.5j * beta)
    assert abs(fr.A[0, 1] - expected) < 1e-6
    # B first row pattern: B_12 = 0, B_13 = sqrt(2) e^{v2/2 + i beta/2}
    expected_b = math.sqrt(2.0) * math.exp(md.v2 / 2) * cmath.exp(0.5j * beta)
    assert abs(fr.B[0, 2] - expected_b) < 1e-6
    assert abs(fr.B[0, 1]) < 1e-6


@pytest.mark.parametrize("matrix, entry", [("A", (2, 0)), ("B", (1, 0))])
def test_frame_defects_keep_a_nan_in_the_second_pattern_entry(matrix, entry):
    # Python's max(0.0, nan) is 0.0: the pattern check would PASS the NaN
    M = np.zeros((3, 3), dtype=complex)
    M[entry] = math.nan
    zero = np.zeros((3, 3), dtype=complex)
    fd = FrameData(np.eye(3, dtype=complex), 1.0 + 0.0j,   # the identity frame and its det
                   *((M, zero) if matrix == "A" else (zero, M)))
    d = frame_defects(fd)
    assert [k for k, v in d.items() if math.isnan(v)] == [f"{matrix}_antiherm", f"{matrix}_pattern"]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_frame_defects_read_nan_wherever_the_frame_holds_a_nan():
    # phi = (0, NaN, 0): the angle is NaN, so the frame's first column is (0, NaN, NaN) and
    # LU meets a zero pivot, where det returns 0; the neighbours' twist makes A and B NaN
    jet = cone_family_jet(1, 2, 0.3, 1.1)._replace(phi=np.array([0.0, math.nan, 0.0]))
    beta = lagrangian_angle(jet)
    Phi = _twisted_frame((jet.phi, jet.phi_x, jet.phi_y), beta, _norm(jet.phi_x), _norm(jet.phi_y))
    assert np.linalg.det(Phi) == 0.0
    nan = np.full((3, 3), complex(math.nan, math.nan))
    d = frame_defects(FrameData(Phi, _det3(Phi), nan, nan))
    assert [k for k, v in d.items() if not math.isnan(v)] == []


def test_metric_from_jet_logs_as_the_sweep_does():
    # v1, v2 by np.log on one double equal np.log over a block bit for bit, so the
    # sweep's metric_anisotropy is the oracle's; math.log differs by an ulp on some
    xs, ys = np.random.default_rng(31).uniform(0.0, 2.0 * math.pi, (2, 2000))
    jets = [cone_family_jet(3, 2, x, y) for x, y in zip(xs.tolist(), ys.tolist())]
    E = np.array([float(np.sum(np.abs(j.phi_x) ** 2)) for j in jets])
    G = np.array([float(np.sum(np.abs(j.phi_y) ** 2)) for j in jets])
    v = np.array([metric_from_jet(j)[:2] for j in jets])
    assert v.tobytes() == np.stack([np.log(E / 2.0), np.log(G / 2.0)], axis=1).tobytes()


def test_frame_consistency_reconstruction(sphere_curve):
    jet_field = lambda x, y: sphere_jet(sphere_curve, x, y)
    x, y, h = 0.9, 0.2, 1e-4
    fr, beta = frame_and_connection(jet_field, x, y, h=h), lagrangian_angle(jet_field(x, y))
    # A Phi reproduces the finite-difference Phi_x
    def tw_frame(xx, yy):
        j = jet_field(xx, yy)
        b = lagrangian_angle(j)
        b = beta + math.remainder(b - beta, 2 * math.pi)
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


_CENTRE_REJECTED = "Lagrangian angle rejected at the stencil centre"
_NEIGHBOUR_REJECTED = "Lagrangian angle rejected at a stencil neighbour"


@pytest.mark.parametrize("slot", range(5), ids=["centre", "x+h", "x-h", "y+h", "y-h"])
@pytest.mark.parametrize("scale, refusals", [
    (0.0, (_CENTRE_REJECTED, _NEIGHBOUR_REJECTED)),
    (1e-9, (None, "stencil crosses a degenerate point"))], ids=["zero", "scaled"])
def test_the_oracles_refuse_a_broken_stencil_point_by_its_slot(slot, scale, refusals):
    # phi_x * 0 at one stencil point rejects its angle; phi_x * 1e-9 keeps the angle but puts
    # |phi_x| below MIN_STENCIL_NORM, which only a neighbour is held to.  beta_gradient_fd
    # reads the four neighbours' angles alone, so it refuses only a rejected neighbour
    x0, y0, h = 0.3, 1.1, 1e-4
    bad = ((x0, y0), (x0 + h, y0), (x0 - h, y0), (x0, y0 + h), (x0, y0 - h))[slot]

    def jet_field(x, y):
        j = cone_family_jet(1, 2, x, y)
        return j._replace(phi_x=scale * j.phi_x) if (x, y) == bad else j

    refusal = refusals[slot > 0]
    if refusal is None:
        assert isinstance(frame_and_connection(jet_field, x0, y0, h), FrameData)
    else:
        with pytest.raises(ValueError) as exc:
            frame_and_connection(jet_field, x0, y0, h)
        assert str(exc.value) == refusal
    if refusal == _NEIGHBOUR_REJECTED:
        with pytest.raises(ValueError) as exc:
            beta_gradient_fd(jet_field, x0, y0, h)
        assert str(exc.value) == _NEIGHBOUR_REJECTED
    else:
        gradient = beta_gradient_fd(jet_field, x0, y0, h)
        clean = beta_gradient_fd(lambda x, y: cone_family_jet(1, 2, x, y), x0, y0, h)
        assert gradient == clean if slot == 0 else np.allclose(gradient, clean, atol=1e-6)


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


def _fd_field(field, h):
    """The field with G_x replaced by the central difference of G: K without the hand-derived G_x."""
    return field._replace(G_x=lambda x, y: (field.G(x + h, y) - field.G(x - h, y)) / (2.0 * h))


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
        assert abs(gauss_curvature(_fd_field(field, 1e-4), x, y, h=1e-4) - 1.0) < 1e-3
    assert count > 30


def test_gauss_curvature_flat_and_round():
    flat = MetricField(E=lambda x, y: 1.0, G=lambda x, y: 1.0, G_x=lambda x, y: 0.0)
    assert abs(gauss_curvature(flat, 0.3, 0.4)) < 1e-12
    # E = 1, G = cos^2 x on |x| < pi/2 is the round sphere: K = 1
    round_field = MetricField(E=lambda x, y: 1.0,
                              G=lambda x, y: math.cos(x) ** 2,
                              G_x=lambda x, y: -math.sin(2 * x))
    for x in (-1.2, -0.4, 0.3, 1.0):
        assert abs(gauss_curvature(round_field, x, 0.0, h=1e-4) - 1.0) < 1e-6
        assert abs(gauss_curvature(_fd_field(round_field, 1e-4), x, 0.0,
                                   h=1e-4) - 1.0) < 1e-6


def _sympy_cone_K(m, n):
    """Exact K of the cone immersion, from sympy derivatives of phi itself and
    the orthogonal-coordinates formula with both of its terms."""
    x, y = sympy.symbols("x y", real=True)
    k1 = sympy.sqrt(sympy.Rational(m + n, 2 * m + n))
    k2 = sympy.sqrt(sympy.Rational(m + n, m + 2 * n))
    rho = sympy.sqrt(sympy.Rational(n, m + 2 * n) * sympy.cos(x) ** 2
                     + sympy.Rational(m, 2 * m + n) * sympy.sin(x) ** 2)
    phi = (k1 * sympy.sin(x) * sympy.exp(sympy.I * sympy.pi * m * y),
           k2 * sympy.cos(x) * sympy.exp(sympy.I * sympy.pi * n * y),
           rho * sympy.exp(-sympy.I * sympy.pi * (m + n) * y))
    E, G = (sympy.simplify(sum(sympy.diff(c, t) * sympy.conjugate(sympy.diff(c, t)) for c in phi))
            for t in (x, y))
    W = sympy.sqrt(E * G)
    K = -(sympy.diff(sympy.diff(G, x) / W, x) + sympy.diff(sympy.diff(E, y) / W, y)) / (2 * W)
    return sympy.lambdify((x, y), K, "mpmath")


@pytest.mark.parametrize("m, n", [(1, 2), (2, 3), (3, 2)])
def test_cone_curvature_matches_sympy(m, n):
    # the only metric with a varying E; the scalar oracle shares the masked
    # code, so the reference is sympy's.  Measured at h = 1e-4 on these
    # points: error / max|K| at most 1.4e-8 (closed-form G_x) and 2.9e-8 (_fd_field)
    exact = _sympy_cone_K(m, n)
    xs = 2 * math.pi * np.arange(32) / 32
    ys = np.random.default_rng(m * 10 + n).uniform(-3.0, 3.0, 32)
    ref = np.array([float(exact(x, y)) for x, y in zip(xs.tolist(), ys.tolist())])
    field = cone_metric_field(m, n)
    for k_field in (field, _fd_field(field, 1e-4)):
        K, ok = gauss_curvature_masked(k_field, xs, ys, h=1e-4)
        assert ok.all()
        assert np.max(np.abs(K - ref)) < 1e-7 * np.max(np.abs(ref))


def test_gauss_curvature_degenerate_rejected():
    field = MetricField(E=lambda x, y: 1.0, G=lambda x, y: -1.0, G_x=lambda x, y: 0.0)
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
    broken = jet._replace(phi_y=jet.phi_y + 0.3 * jet.phi)
    d = gradient_identity_defects(christoffel_solve(broken), _metric_grads(broken),
                       (0.0, 0.0))
    assert np.max(d) > 1e-2


def test_christoffel_defects_of_random_jets_match_the_formulas_written_out():
    # on a surface every defect is 0 up to rounding, so a wrong scale or sign in a formula
    # only rescales noise; random complex jets have b12 != 0, E != G and, with random beta
    # gradients, defects of order 1, which the formulas below must give to rtol 1e-10
    rng = np.random.default_rng(4101)
    for _ in range(20):
        jet = SurfaceJet(0.0, 0.0, *(rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))))
        bx, by = rng.normal(size=2)
        # columns: the xx, xy, yy equations; rows: the coefficients of phi_x, phi_y, phi
        (G111, G121, G221), (G112, G122, G222), (b11, b12, b22) = np.linalg.solve(
            np.column_stack([jet.phi_x, jet.phi_y, jet.phi]),
            np.column_stack([jet.phi_xx, jet.phi_xy, jet.phi_yy]))
        E, G = np.vdot(jet.phi_x, jet.phi_x).real, np.vdot(jet.phi_y, jet.phi_y).real
        v1x = 2.0 * np.vdot(jet.phi_x, jet.phi_xx).real / E   # E_x = 2 Re<phi_xx, phi_x>
        v1y = 2.0 * np.vdot(jet.phi_x, jet.phi_xy).real / E
        v2x = 2.0 * np.vdot(jet.phi_y, jet.phi_xy).real / G
        v2y = 2.0 * np.vdot(jet.phi_y, jet.phi_yy).real / G
        ch = christoffel_solve(jet)
        np.testing.assert_allclose(
            christoffel_b_defects(ch, E, G),
            [abs(b11 + E) / E, abs(b12) / math.sqrt(E * G), abs(b22 + G) / G], rtol=1e-10)
        np.testing.assert_allclose(
            gradient_identity_defects(ch, metric_gradients_from_jet(jet, E, G), (bx, by)),
            [abs(G111 + G122 - ((v1x + v2x) / 2 + 1j * bx)),
             abs(G121 + G222 - ((v1y + v2y) / 2 + 1j * by))], rtol=1e-10)
        assert abs(b12) > 1e-3 and abs(E - G) > 1e-3 * E


def test_beta_gradient_is_the_unwrapped_difference_over_2h_bit_for_bit():
    rng = np.random.default_rng(4102)
    betas = rng.uniform(-math.pi, math.pi, size=(4, 500))
    for h in (1e-4, 0.37, 3.0):
        expected = [[math.remainder(bp - bm, 2.0 * math.pi) / (2.0 * h)
                     for bp, bm in zip(betas[2 * k].tolist(), betas[2 * k + 1].tolist())]
                    for k in range(2)]
        assert beta_gradient(betas, h).tolist() == expected


def _same(stacked, alone):
    a, b = np.asarray(stacked), np.asarray(alone)
    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


# NaN and inf entries at some points of the stack: (row of the jet, point, component)
_NON_FINITE = [(0, 1, 0, math.nan), (1, 2, 1, math.inf), (2, 3, 2, complex(0, -math.inf)),
               (3, 4, 0, math.nan), (5, 5, 1, -math.inf), (4, 6, 2, complex(math.nan, 1.0))]


_STACK_FAMILIES = pytest.mark.parametrize(
    "make", [lambda: spectral_family(derive_constants(1.0, 1.0, 2.0, 1.0)),
             lambda: cone_family(3, 2)], ids=["worked-example", "cone-3-2"])


def _special_stack(family, h: float) -> tuple:
    """(xs, ys, J, S) at 12 drawn points, with the _NON_FINITE entries, a zero phi at
    point 7 (its basis and frame singular), G = 0 at point 9, and in S, the rows
    (3, 5, n, 3) of the centres and their stencil neighbours, a NaN at point 8's (x, y + h),
    a rejected angle at point 6's (x, y - h) and a phi_y below MIN_STENCIL_NORM at point
    10's (x - h, y); a spectral point 11 lies on a degeneracy line, inside the tube."""
    rng = np.random.default_rng(3903)
    xs, ys = rng.uniform(-3.0, 3.0, (2, 12))
    if family.curve is not None:   # point 11 on a degeneracy line, inside the tube
        xs[11] = (degeneracy_angle(family.curve) + family.curve.b * ys[11]) / family.curve.a
    J = family.jets(xs, ys)
    for row, k, c, v in _NON_FINITE:
        J[row, k, c] = v
    J[0, 7] = 0.0
    J[2, 9] = 0.0   # G = 0 at point 9
    # rows phi, phi_x, phi_y at the centres and at (x +- h, y), (x, y +- h): (3, 5, n, 3)
    S = np.stack([J[:3]] + [family.jets(xs + dx, ys + dy)[:3]
                            for dx, dy in ((h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h))], axis=1)
    S[1, 3, 8, 0] = math.nan
    S[0, 4, 6] *= 2.0     # the angle at (x, y - h) of point 6 rejected
    S[2, 2, 10] *= 1e-10  # phi_y at (x - h, y) of point 10 below MIN_STENCIL_NORM
    return xs, ys, J, S


@_STACK_FAMILIES
def test_each_defect_function_reads_one_point_as_it_does_in_a_stack(make):
    # the oracles pass one point, the sweep a stack: the same bits either way, NaN and inf
    # included
    family, h = make(), 1e-4
    xs, ys, J, S = _special_stack(family, h)
    n = len(xs)
    with np.errstate(all="ignore"):
        stack = SurfaceJet(xs, ys, *J)
        md, metric_ok = metric_data(stack)
        E, G = md.E, md.G
        angles, stencil = _angles(J), _stencil(S)
        beta_s, nx_s, ny_s = stencil[0], *stencil[4:]
        if family.curve is not None:
            tube = tube_mask(family.curve, xs, ys)
            assert tube[11] and not tube[:11].any()
        conditioned, ch = basis_conditioned(stack), christoffel_data(stack)
        grads = metric_gradients_from_jet(stack, E, G)
        bgrad = beta_gradient(beta_s[1:], h)
        fd = _frame_data(S, beta_s, nx_s, ny_s, h)
        stacked = [gram_defects(stack), christoffel_b_defects(ch, E, G),
                   gradient_identity_defects(ch, grads, bgrad), minimality_defects(ch),
                   angle_defect(angles[0], 0.3, family.beta_period), *frame_defects(fd).values()]
        if family.curve is not None:
            stacked.append(residue_identity_defects(family.curve, stack))
        for k in range(n):
            jet = SurfaceJet(xs[k], ys[k], *J[:, k])
            md_k, metric_ok_k = metric_data(jet)
            for a, b in zip((*md, metric_ok), (*md_k, metric_ok_k), strict=True):
                _same(a[k], b)
            if family.curve is not None:
                _same(tube[k], tube_mask(family.curve, xs[k], ys[k]))
            for a, b in zip(angles, _angles((jet.phi, jet.phi_x, jet.phi_y))):
                _same(a[k], b)
            for a, b in zip(stencil, _stencil(S[:, :, k]), strict=True):
                _same(a[..., k], b)
            _same(conditioned[k], basis_conditioned(jet))
            ch_k = christoffel_data(jet)
            for a, b in zip(ch, ch_k):
                _same(a[k], b)
            grads_k = metric_gradients_from_jet(jet, E[k], G[k])
            for name in grads:
                _same(grads[name][k], grads_k[name])
            _same(bgrad[:, k], beta_gradient(beta_s[1:, k], h))
            fd_k = _frame_data(S[:, :, k], beta_s[:, k], nx_s[:, k], ny_s[:, k], h)
            _same(fd.Phi[:, k], fd_k.Phi)
            _same(fd.det[k], fd_k.det)
            _same(fd.A[:, k], fd_k.A)
            _same(fd.B[:, k], fd_k.B)
            alone = [gram_defects(jet), christoffel_b_defects(ch_k, E[k], G[k]),
                     gradient_identity_defects(ch_k, grads_k, beta_gradient(beta_s[1:, k], h)),
                     minimality_defects(ch_k), angle_defect(angles[0][k], 0.3, family.beta_period),
                     *frame_defects(fd_k).values()]
            if family.curve is not None:
                alone.append(residue_identity_defects(family.curve, jet))
            for a, b in zip(stacked, alone, strict=True):
                _same(a[..., k], b)
    # every defect reads a non-finite value at some point of the stack, and each mask of a
    # stage fails at some point where the masks before it hold
    assert not any(np.isfinite(v).all() for v in stacked)
    centre_ok, angles_ok, frame_ok = stencil[1:4]
    assert metric_ok.any() and not metric_ok[9]
    assert conditioned[0] and not conditioned[[1, 2, 3, 7, 9]].any()   # NaN, inf, singular
    assert centre_ok[6] and not angles_ok[6] and angles_ok[10] and not frame_ok[10]


@_STACK_FAMILIES
def test_frame_data_carries_the_determinant_of_its_frame(make):
    # the frame stage keeps the det its inverse divides by, and frame_defects reads det_unit
    # from it: _det3(Phi) bit for bit in the stack and at each point alone, NaN, inf and the
    # singular frame of point 7 included
    family, h = make(), 1e-4
    xs, ys, J, S = _special_stack(family, h)
    with np.errstate(all="ignore"):
        beta, _, _, _, nx, ny = _stencil(S)
        fd = _frame_data(S, beta, nx, ny, h)
        _same(fd.det, _det3(fd.Phi))
        for k in range(len(xs)):
            fd_k = _frame_data(S[:, :, k], beta[:, k], nx[:, k], ny[:, k], h)
            _same(fd_k.det, _det3(fd_k.Phi))
        _same(frame_defects(fd)["det_unit"], np.hypot((fd.det - 1.0).real, fd.det.imag))
    assert fd.det[7] == 0.0 and not np.isfinite(fd.det).all()
