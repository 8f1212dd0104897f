import cmath
import math

import numpy as np
import pytest

from mlsurf.baker_akhiezer import f_coefficients
from mlsurf.spectral_curve import derive_constants
from reference import (_f2_g2, ba_conjugation_defect, ba_essential_singularity_coeffs,
                       ba_rational_eval, consistency_defect)


@pytest.fixture(scope="module")
def sphere_curve():
    return derive_constants(1.0, 1.0, 2.0, 1.0)


def random_curve(rng):
    b = rng.uniform(0.5, 2.0)
    return derive_constants(rng.uniform(0.5, 2.0), b,
                            rng.uniform(1.01, 3.0) * b * rng.choice([-1.0, 1.0]),
                            rng.uniform(0.2, 2.0))


def test_normalization_point(sphere_curve):
    rng = np.random.default_rng(1)
    for _ in range(10):
        x, y = rng.uniform(-5, 5, 2)
        assert ba_rational_eval(sphere_curve, x, y, 1, 0.0) == sphere_curve.d


def test_f2_hand_oracle(sphere_curve):
    # a = b = 1, gamma = i, d = 1: f2 = cos(x - y) + sin(x - y)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x, y = rng.uniform(-5, 5, 2)
        f1, f2 = f_coefficients(sphere_curve, x, y)
        assert f1 == 1.0
        assert abs(f2 - (math.cos(x - y) + math.sin(x - y))) < 1e-14
    assert f_coefficients(sphere_curve, 0.0, 0.0)[1] == 1.0


def _log_uniform_curve(rng):
    """a, b, |gamma_im| log-uniform in [1e-2, 1e2] and |Q1| = b (1 + 10^U(-3, 2))."""
    b = 10 ** rng.uniform(-2, 2)
    return derive_constants(10 ** rng.uniform(-2, 2), b,
                            b * (1 + 10 ** rng.uniform(-3, 2)) * rng.choice((-1, 1)),
                            10 ** rng.uniform(-2, 2) * rng.choice((-1, 1)))


@pytest.mark.parametrize("seed", range(4))
def test_real_f2_is_the_complex_f2_of_psi_2(seed):
    # the real f2 against the reference's complex one, on an array and on scalars, within
    # 4 eps d (1 + |gamma_im / b|).  Measured with these curves and points on seeds 7,
    # 100-119 and 200-279: at most 2.35 eps d (1 + |gamma_im / b|), and an imaginary part
    # of exactly 0
    rng = np.random.default_rng(4900 + seed)
    eps = np.finfo(float).eps
    for _ in range(50):
        curve = _log_uniform_curve(rng)
        bound = 4 * eps * curve.d * (1 + abs(curve.gamma_im / curve.b))
        xs, ys = rng.uniform(-50, 50, (2, 64))
        for x, y in [(xs, ys), *zip(xs[:4].tolist(), ys[:4].tolist())]:
            f2, ref = f_coefficients(curve, x, y)[1], _f2_g2(curve, x, y)[0]
            assert np.all(np.abs(ref.real - f2) <= bound), (curve, x, y)
            assert np.all(np.abs(ref.imag) <= bound), (curve, x, y)


def test_consistency_at_gluing_points_randomized():
    rng = np.random.default_rng(3)
    for _ in range(5):
        curve = random_curve(rng)
        base = abs(ba_rational_eval(curve, 0.0, 0.0, 1, curve.a))
        for _ in range(20):
            x, y = rng.uniform(-6, 6, 2)
            assert consistency_defect(curve, x, y) < 1e-12 * (1.0 + base)


def test_pole_at_gamma_rejected(sphere_curve):
    with pytest.raises(ValueError, match="pole"):
        ba_rational_eval(sphere_curve, 0.1, 0.2, 2, sphere_curve.gamma)
    with pytest.raises(ValueError, match="component"):
        ba_rational_eval(sphere_curve, 0.1, 0.2, 3, 0.0)
    with pytest.raises(ValueError, match="^order must be >= 0$"):
        ba_essential_singularity_coeffs(sphere_curve, 0.3, 1.1, "P1", -1)
    with pytest.raises(ValueError, match="^puncture must be 'P1' or 'P2', got 'P3'$"):
        ba_essential_singularity_coeffs(sphere_curve, 0.3, 1.1, "P3", 2)


def test_single_pole_bounded_approach(sphere_curve):
    # |(z2 - gamma) psi_2| stays bounded along four approach directions
    gamma = sphere_curve.gamma
    x, y = 0.7, -0.4
    vals = []
    for direction in (1.0, -1.0, 1j, -1j):
        for eps in (1e-3, 1e-5, 1e-7):
            z2 = gamma + direction * eps
            psi = ba_rational_eval(sphere_curve, x, y, 2, z2)
            vals.append(abs((z2 - gamma) * psi))
    vals = np.array(vals)
    assert np.all(vals < 10.0)
    # the limit is |g2| * |e^{i y gamma}| along every direction
    g2 = _f2_g2(sphere_curve, x, y)[1]
    limit = abs(g2 * cmath.exp(1j * y * gamma))
    assert np.allclose(vals.reshape(4, 3)[:, 2], limit, rtol=1e-6)


def test_conjugation_defect_on_tau_fixed_set(sphere_curve):
    # tau(z) = -conj(z) fixes the imaginary axis: psi is real there
    rng = np.random.default_rng(4)
    for _ in range(10):
        x, y = rng.uniform(-4, 4, 2)
        psi = ba_rational_eval(sphere_curve, x, y, 2, 0.7j)
        assert abs(psi.imag) < 1e-12 * (1.0 + abs(psi))
        assert ba_conjugation_defect(sphere_curve, x, y, 2, 0.7j) < 1e-12


def test_conjugation_defect_randomized():
    rng = np.random.default_rng(5)
    for _ in range(4):
        curve = random_curve(rng)
        for _ in range(20):
            x, y = rng.uniform(-4, 4, 2)
            coord = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            comp = int(rng.integers(1, 3))
            if comp == 2 and abs(coord - curve.gamma) < 1e-6:
                continue
            assert ba_conjugation_defect(curve, x, y, comp, coord) < 1e-12


def test_conjugation_defect_xy_zero(sphere_curve):
    assert ba_conjugation_defect(sphere_curve, 0.0, 0.0, 2, 1.3 + 0.4j) < 1e-12


def test_essential_singularity_p1(sphere_curve):
    coeffs = ba_essential_singularity_coeffs(sphere_curve, 0.3, 1.1, "P1", 2)
    assert np.array_equal(coeffs, np.array([1.0, 0.0, 0.0], dtype=complex))


def test_essential_singularity_p2_large_z_fit(sphere_curve):
    # oracle: direct evaluation of psi_2 e^{-i y z2} at |z2| = 1e4 matches the
    # truncated series in 1/(i z2) to the neglected-order magnitude
    x, y = 0.9, -1.7
    coeffs = ba_essential_singularity_coeffs(sphere_curve, x, y, "P2", 3)
    for z2 in (1e4, -1e4, 1e4 + 0.5j):
        direct = ba_rational_eval(sphere_curve, x, y, 2, z2) * cmath.exp(-1j * y * z2)
        series = sum(coeffs[n] / (1j * z2) ** n for n in range(4))
        assert abs(direct - series) < 10.0 / abs(z2) ** 4
    # and the 1/(i k) coefficient is i * g2 (closed-form residue numerator)
    g2 = _f2_g2(sphere_curve, x, y)[1]
    assert abs(coeffs[1] - 1j * g2) < 1e-15


def test_f_and_g_coefficients_real():
    rng = np.random.default_rng(6)
    for _ in range(3):
        curve = random_curve(rng)
        grid = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
        worst = 0.0
        for x in grid:
            for y in grid:
                coeffs = ba_essential_singularity_coeffs(curve, x, y, "P2", 2)
                worst = max(worst, abs(coeffs[0].imag), abs(coeffs[1].imag))
        assert worst < 1e-12


def test_ba_rational_value_fields(sphere_curve):
    phi1_over_alpha = ba_rational_eval(sphere_curve, 0.4, 0.8, 2, 2.0)
    # psi_2(Q1) equals phi_1 / alpha_1 of the surface family
    from mlsurf.surface_families import spectral_family_jet
    jet = spectral_family_jet(sphere_curve, 0.4, 0.8)
    assert abs(jet.phi[0] - sphere_curve.alpha[0] * phi1_over_alpha) < 1e-14
