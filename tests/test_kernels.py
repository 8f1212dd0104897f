import math

import numpy as np
import pytest

from mlsurf.diffgeo import UNITARITY_GATE, _det3, _inv3, _mul3

# the kernels take a matrix as its rows: a stack M of shape (n, 3, 3) is passed as
# M.swapaxes(0, 1), shape (3, n, 3), and _inv3 and _mul3 return that layout


def _rows(M):
    return M.swapaxes(0, 1)


def _random(rng, n):
    # complex entries whose rows span ten orders of magnitude
    M = rng.normal(size=(n, 3, 3)) + 1j * rng.normal(size=(n, 3, 3))
    return M * 10.0 ** rng.uniform(-5, 5, size=(n, 3, 1))


def _near_unitary(rng, n):
    Q = np.linalg.qr(_random(rng, n))[0]
    return Q + 1e-9 * (rng.normal(size=Q.shape) + 1j * rng.normal(size=Q.shape))


def test_det3_is_within_roundoff_of_lapack():
    M = _random(np.random.default_rng(36), 2000)
    scale = np.prod(np.linalg.norm(M, axis=-1), axis=-1)
    assert np.all(np.abs(_det3(_rows(M)) - np.linalg.det(M)) <= 1e-13 * scale)


def test_inv3_and_mul3_are_within_roundoff_of_lapack_on_near_unitary_frames():
    rng = np.random.default_rng(3601)
    P, Q = _near_unitary(rng, 2000), _random(rng, 2000)
    assert np.all(np.abs(np.abs(np.linalg.det(P)) - 1.0) <= UNITARITY_GATE)
    inv = np.linalg.inv(P)
    err = np.abs(_rows(_inv3(_rows(P))) - inv).max(axis=(1, 2))
    assert np.all(err <= 1e-13 * np.abs(inv).max(axis=(1, 2)))
    for p, q in ((P, Q), (Q, P), (P, inv)):
        bound = 1e-15 * np.linalg.norm(p, axis=(1, 2)) * np.linalg.norm(q, axis=(1, 2))
        assert np.all(np.abs(_rows(_mul3(_rows(p), _rows(q))) - p @ q).max(axis=(1, 2)) <= bound)


def test_one_matrix_reads_as_it_does_in_a_stack():
    # the oracles pass one (3, 3) matrix, the sweep a stack: the same bits either way
    M = _random(np.random.default_rng(3602), 50)
    for k, m in enumerate(M):
        assert np.array_equal(_det3(m), _det3(_rows(M))[k])
        assert np.array_equal(_inv3(m), _inv3(_rows(M))[:, k])
        assert np.array_equal(_mul3(m, m), _mul3(_rows(M), _rows(M))[:, k])


_ENTRIES = [(i, j) for i in range(3) for j in range(3)]
_BASES = {"random": _random(np.random.default_rng(3603), 1)[0], "zero": np.zeros((3, 3), complex)}


@pytest.mark.parametrize("base", _BASES)
@pytest.mark.parametrize("entry", _ENTRIES, ids=str)
def test_a_nan_entry_gives_a_nan_det(entry, base):
    m = _BASES[base].copy()
    m[entry] = math.nan
    with np.errstate(invalid="ignore"):
        assert np.isnan(_det3(m))


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["+inf", "-inf"])
@pytest.mark.parametrize("entry", _ENTRIES, ids=str)
def test_an_infinite_entry_gives_a_non_finite_det(entry, sign):
    m = _BASES["random"].copy()
    m[entry] = sign * math.inf
    with np.errstate(invalid="ignore"):
        assert not np.isfinite(_det3(m))


@pytest.mark.parametrize("m", [
    np.zeros((3, 3)),
    np.arange(1.0, 10.0).reshape(3, 3),          # rows in arithmetic progression
    np.array([[1, 2j, 3], [4, 5, 6j], [4, 5, 6j]]),
    np.array([[1, 2j, 3], [0, 0, 0], [4, 5, 6j]]),
], ids=["zero", "progression", "equal-rows", "zero-row"])
def test_a_singular_matrix_has_det_0_and_no_finite_inverse(m):
    m = m.astype(complex)
    assert _det3(m) == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        assert not np.isfinite(_inv3(m)).any()
