"""The Christoffel gate: diffgeo.basis_conditioned against the SVD, one np.linalg.cond per
matrix, and the sweep's Christoffel checks, which need no LAPACK."""

import warnings

import numpy as np
import pytest

from mlsurf import sweep
from mlsurf.diffgeo import CONDITION_LIMIT, basis_conditioned
from mlsurf.report import GridSpec, verify
from mlsurf.spectral_curve import derive_constants
from mlsurf.surface_families import SurfaceJet, cone_family, spectral_family, tube_mask

_RNG = np.random.default_rng(20301)


def _unitary(n):
    z = _RNG.normal(size=(n, 3, 3)) + 1j * _RNG.normal(size=(n, 3, 3))
    return np.linalg.qr(z)[0]


def _oracle(basis):
    """cond(basis) <= CONDITION_LIMIT, one np.linalg.cond per matrix, a matrix whose SVD
    does not converge rejected."""
    def conditioned(m):
        try:
            return bool(np.linalg.cond(m) <= CONDITION_LIMIT)
        except np.linalg.LinAlgError:
            return False
    with np.errstate(all="ignore"):
        return np.array([conditioned(m) for m in basis], dtype=bool)


@pytest.fixture
def svd_calls(monkeypatch):
    """The number of matrices each stacked np.linalg.cond call receives (the oracle
    calls it on one matrix at a time)."""
    calls, cond = [], np.linalg.cond

    def spy(a, *args, **kwargs):
        if np.ndim(a) == 3:
            calls.append(len(a))
        return cond(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "cond", spy)
    return calls


def _mask(basis):
    """basis_conditioned for stacked bases (columns phi_x, phi_y, phi), and the oracle's."""
    phi_x, phi_y, phi = np.moveaxis(basis, -1, 0)
    jet = SurfaceJet(None, None, phi, phi_x, phi_y, None, None, None)
    return basis_conditioned(jet), _oracle(basis)


def _equal_norm_columns(c, n):
    """n bases U diag(1, 1, 1/c) W^H with cond c, W a unitary DFT matrix with random
    column phases, so every column has norm sqrt((2 + c^-2) / 3): near-parallel columns
    of equal norm."""
    k = np.arange(3)
    dft = np.exp(2j * np.pi * np.outer(k, k) / 3) / np.sqrt(3)
    W = dft * np.exp(2j * np.pi * _RNG.random((n, 1, 3)))
    return _unitary(n) * np.array([1.0, 1.0, 1.0 / c]) @ np.conj(W).swapaxes(1, 2)


def test_random_bases_match_the_svd(svd_calls):
    z = _RNG.normal(size=(400, 3, 3)) + 1j * _RNG.normal(size=(400, 3, 3))
    near = _unitary(400) * _RNG.uniform(0.1, 10.0, size=(400, 1, 3)) + 1e-9 * z
    ok, want = _mask(np.concatenate([z, near]))
    np.testing.assert_array_equal(ok, want)
    assert 0 < sum(svd_calls) < 800   # both the certificate and the SVD decide points


@pytest.mark.parametrize("c", [1e7, 2.4e7, 2.6e7, 0.99e8, 1.01e8, 1e9])
def test_bases_near_the_limit_match_the_svd(c):
    basis = _equal_norm_columns(c, 64)
    norms = np.linalg.norm(basis, axis=1)
    np.testing.assert_allclose(norms, norms[:, :1] * np.ones(3), rtol=1e-12)
    ok, want = _mask(basis)
    np.testing.assert_array_equal(ok, want)
    assert want.all() == (c < CONDITION_LIMIT) and want.any() == (c < CONDITION_LIMIT)


def test_non_finite_entries_and_a_zero_column_match_the_svd():
    basis = np.repeat(_unitary(1), 8, axis=0)
    basis[0, 1, 0] = np.nan
    basis[1, 2, 2] = complex(0.0, np.nan)
    basis[2, 0, 1] = np.inf
    basis[3, 1, 2] = complex(-np.inf, 1.0)
    basis[4, :, 0] = 0.0
    basis[5, :, 1] = 0.0
    basis[6, :, 2] = 0.0
    ok, want = _mask(basis)
    np.testing.assert_array_equal(ok, want)
    np.testing.assert_array_equal(want, [False] * 7 + [True])


@pytest.mark.parametrize("scale", [1e150, 1e-150, 1e160, 1e-160, 1e200, 1e-200])
@pytest.mark.parametrize("columns", [[0], [1], [2], [0, 1, 2]])
def test_scaled_columns_match_the_svd(scale, columns):
    # well-conditioned bases and near-parallel ones at cond 1e7 and 1e9: scaled by 1e-160,
    # the Gram matrix of the last is subnormal and its rounding can pass for a certificate
    basis = np.concatenate([_unitary(16) * _RNG.uniform(0.5, 2.0, size=(16, 1, 3)),
                            _equal_norm_columns(1e7, 16), _equal_norm_columns(1e9, 64)])
    basis[:, :, columns] *= scale
    ok, want = _mask(basis)
    np.testing.assert_array_equal(ok, want)


def test_well_conditioned_bases_skip_the_svd(svd_calls):
    basis = _unitary(256) * _RNG.uniform(0.1, 10.0, size=(256, 1, 3))
    basis[-1] = _equal_norm_columns(1e9, 1)[0]
    ok, want = _mask(basis)
    np.testing.assert_array_equal(ok, want)
    assert svd_calls == [1]   # the gate sent only the ill-conditioned basis to the SVD


_SURFACES = pytest.mark.parametrize("make", [
    lambda: spectral_family(derive_constants(1.0, 1.0, 2.0, 1.0)),
    lambda: spectral_family(derive_constants(1.3, 0.7, 2.1, -0.9)),
    lambda: cone_family(1, 2), lambda: cone_family(3, 2), lambda: cone_family(4, 4)],
    ids=["worked-example", "tube-example", "cone-1-2", "cone-3-2", "cone-4-4"])


@_SURFACES
def test_verify_certifies_every_point_without_the_svd(make, svd_calls):
    family = make()
    sweep.check_maxima(family, GridSpec(16, 16))
    assert svd_calls == []


@_SURFACES
def test_the_gate_on_every_point_of_a_surface_is_the_svd(make):
    # every grid point, tube points (G near 0) included, against the SVD matrix by matrix;
    # every point outside the tube is conditioned
    family = make()
    x, y = GridSpec(16, 16).points(np.arange(256))
    J = family.jets(x, y)
    ok = basis_conditioned(SurfaceJet(x, y, *J))
    np.testing.assert_array_equal(ok, _oracle(np.stack([J[1], J[2], J[0]], axis=-1)))
    tube = np.zeros(256, dtype=bool) if family.curve is None else tube_mask(family.curve, x, y)
    assert ok[~tube].all()


def test_a_singular_and_a_nan_basis_in_one_block_fail_without_a_warning(monkeypatch, capfd):
    # phi = 0 at grid point 9 (a singular basis) and phi = NaN at point 6, in the one block
    # of a 4x4 grid: the solve runs on every basis, raises nothing, warns nothing, and the
    # condition gate fails those two points alone
    cone = cone_family(1, 2)

    def jets(xs, ys, order=2):
        J = cone.jets(xs, ys, order)
        J[0, 9], J[0, 6] = 0.0, np.nan
        return J
    masks = []

    def spy(jet):
        masks.append(basis_conditioned(jet))
        return masks[-1]
    monkeypatch.setattr(sweep, "basis_conditioned", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        maxima, _, _ = sweep.check_maxima(cone._replace(jets=jets), GridSpec(4, 4))
    assert capfd.readouterr() == ("", "")
    assert len(masks) == 1 and np.flatnonzero(~masks[0]).tolist() == [6, 9]
    assert maxima["christoffel_b11"] == maxima["minimality_im_y"] == np.inf


@pytest.mark.parametrize("make, failed", [
    (lambda: spectral_family(derive_constants(1.0, 1.0, 2.0, 1.0)), []),
    (lambda: cone_family(3, 2), ["frame_B_trace"])],   # m + n >= 4: a known FAIL
    ids=["worked-example", "cone-3-2"])
def test_verify_of_a_bench_surface_calls_no_lapack(make, failed, monkeypatch):
    # every point is certified (no cond) and the solve is diffgeo._solve3: with each
    # np.linalg function raising, verify gives the report it gives with LAPACK at hand
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg called")
    report = verify(make(), GridSpec(16, 16))
    for name in dir(np.linalg):
        if callable(getattr(np.linalg, name)) and not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refuse)
    with pytest.raises(AssertionError):
        np.linalg.solve(np.eye(3), np.ones(3))
    assert verify(make(), GridSpec(16, 16)).checks == report.checks
    assert [c.name for c in report.checks if not c.passed] == failed
