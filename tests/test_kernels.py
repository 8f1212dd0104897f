import math

import numpy as np
import pytest
from mpmath import matrix, mp, mpc

from mlsurf.diffgeo import UNITARITY_GATE, _abs, _det3, _inv3, _mul3, _norm, _remainder, _solve3

# the kernels take a matrix as its rows: a stack M of shape (n, 3, 3) is passed as
# M.swapaxes(0, 1), shape (3, n, 3), and _inv3, _mul3 and _solve3 return that layout


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
    err = np.abs(_rows(_inv3(_rows(P))[0]) - inv).max(axis=(1, 2))
    assert np.all(err <= 1e-13 * np.abs(inv).max(axis=(1, 2)))
    for p, q in ((P, Q), (Q, P), (P, inv)):
        bound = 1e-15 * np.linalg.norm(p, axis=(1, 2)) * np.linalg.norm(q, axis=(1, 2))
        assert np.all(np.abs(_rows(_mul3(_rows(p), _rows(q))) - p @ q).max(axis=(1, 2)) <= bound)


def test_one_matrix_reads_as_it_does_in_a_stack():
    # the oracles pass one (3, 3) matrix, the sweep a stack: the same bits either way
    M = _random(np.random.default_rng(3602), 50)
    for k, m in enumerate(M):
        assert np.array_equal(_det3(m), _det3(_rows(M))[k])
        (inv, det), (inv_k, det_k) = _inv3(_rows(M)), _inv3(m)   # each inverse and its det
        assert np.array_equal(inv_k, inv[:, k]) and np.array_equal(det_k, det[k])
        assert np.array_equal(_mul3(m, m), _mul3(_rows(M), _rows(M))[:, k])


def _bits(v):
    return np.float64(v).tobytes()


@pytest.mark.parametrize("p", [math.pi, 2.0 * math.pi, 2.0, 1e-3])
def test_remainder_is_math_remainder_bit_for_bit(p):
    # ties at +-p/2 and at odd multiples of 1/2 (exact for p = 2), signed zeros, multiples
    # of p, and log-uniform |x| from 1e-300 to 1e300 of either sign
    rng = np.random.default_rng(39)
    k = np.arange(-8, 9)
    x = np.concatenate([[0.0, -0.0, p, -p, 0.5 * p, -0.5 * p, 1.5 * p, -2.5 * p],
                        (k + 0.5) * p, k * p, np.nextafter(0.5 * p, [0.0, np.inf]),
                        [1.0, 3.0, -5.0, 7.0],
                        rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-300, 300, 2000)])
    got = _remainder(x, p)
    for xi, gi in zip(x.tolist(), got):
        assert _bits(gi) == _bits(math.remainder(xi, p)), xi
        assert _bits(_remainder(xi, p)) == _bits(gi), xi   # one number reads as in an array


@pytest.mark.parametrize("x", [math.nan, -math.nan, math.inf, -math.inf],
                         ids=["nan", "-nan", "inf", "-inf"])
def test_remainder_of_a_non_finite_number_is_nan(x):
    # math.remainder returns NaN for NaN and raises for +-inf; a check reads NaN for both
    with np.errstate(invalid="ignore"):
        assert math.isnan(_remainder(x, math.pi))
        assert math.isnan(_remainder(np.array([x, 1.0]), math.pi)[0])
    if math.isnan(x):
        assert math.isnan(math.remainder(x, math.pi))
    else:
        with pytest.raises(ValueError):
            math.remainder(x, math.pi)


def _complex_rows(rng, n):
    v = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    v = v * 10.0 ** rng.uniform(-150, 150, size=(n, 1))
    v[:4] = [[0, 0, 0], [math.nan, 1, 0], [math.inf, 1j, 0], [complex(0, -math.inf), math.nan, 2]]
    v[4] = [-0.0, complex(0.0, -0.0), 1e-320]
    return v


def test_norm_is_linalg_norm_of_each_row_bit_for_bit():
    V = _complex_rows(np.random.default_rng(3901), 2000)
    got = _norm(V)
    for v, g in zip(V, got):
        assert _bits(g) == _bits(np.linalg.norm(v))
        assert _bits(_norm(v)) == _bits(g)


def test_abs_is_python_abs_bit_for_bit():
    z = _complex_rows(np.random.default_rng(3902), 2000).ravel()
    got = _abs(z)
    for zi, g in zip(z.tolist(), got):
        assert _bits(g) == _bits(abs(zi)), zi
        assert _bits(_abs(np.complex128(zi))) == _bits(g), zi


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
        inv, det = _inv3(m)
    assert det == 0.0 and not np.isfinite(inv).any()


def _solve(M, R):
    return _rows(_solve3(_rows(M), _rows(R)))


def test_solve3_is_within_roundoff_of_lapack():
    # both solvers are backward stable, so they differ by a few eps times the condition
    rng = np.random.default_rng(3801)
    M, R = _random(rng, 2000), _random(rng, 2000)
    x = np.linalg.solve(M, R)
    err = np.abs(_solve(M, R) - x).max(axis=(1, 2))
    assert np.all(err <= 64 * np.finfo(float).eps * np.linalg.cond(M) * np.abs(x).max(axis=(1, 2)))


@pytest.mark.parametrize("n", [0, 1, 7])
def test_solve3_reads_one_matrix_as_it_does_in_a_stack(n):
    # christoffel_solve passes one (3, 3) system, the sweep a stack: the same bits either way
    rng = np.random.default_rng(3802)
    M, R = _random(rng, n), _random(rng, n)
    x = _solve(M, R)
    assert x.shape == (n, 3, 3)
    for k in range(n):
        assert np.array_equal(_solve3(M[k], R[k]), x[k])


def test_solve3_exchanges_rows_at_a_tiny_or_zero_pivot():
    # without row exchanges the multiplier 1e20 would swamp the other entries of the
    # first matrix, and the second matrix's second pivot would be 0
    for m in ([[1e-20, 1, 0], [1, 1, 0], [0, 0, 1]], [[1, 1, 1], [1, 1, 2], [1, 2, 3]]):
        m = np.array(m, complex)
        r = np.array([[1, 2j, 0], [2, 0, 1], [3j, 1, 1]])
        assert np.allclose(m @ _solve3(m, r), r, rtol=0, atol=1e-14)


_SINGULAR = {
    "zero": np.zeros((3, 3)),
    "equal-rows": np.array([[1, 2j, 3], [4, 5, 6j], [4, 5, 6j]]),
    "zero-row": np.array([[1, 2j, 3], [0, 0, 0], [4, 5, 6j]]),
    "zero-column": np.array([[1, 0, 3], [4j, 0, 6], [7, 0, 9j]]),
    "rank-1": np.outer([1, 2j, 3], [1, -1, 2j]),
    "last-pivot-0": np.diag([1.0, 1.0, 0.0]),
}
_RHS = _random(np.random.default_rng(3803), 1)[0]


@pytest.mark.parametrize("m", _SINGULAR.values(), ids=_SINGULAR)
def test_a_singular_system_has_no_finite_solution_entry(m):
    with np.errstate(divide="ignore", invalid="ignore"):
        assert not np.isfinite(_solve3(m.astype(complex), _RHS)).any()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1j * math.inf],
                         ids=["nan", "+inf", "-inf", "+inf-j"])
@pytest.mark.parametrize("base", ["random", "identity"])
@pytest.mark.parametrize("entry", _ENTRIES, ids=str)
def test_a_non_finite_entry_gives_no_finite_solution_entry(entry, base, value):
    # an infinite pivot alone would divide to a finite 0: 0 * pivot makes it NaN
    m = _BASES["random"].copy() if base == "random" else np.eye(3, dtype=complex)
    m[entry] = value
    with np.errstate(divide="ignore", invalid="ignore"):
        assert not np.isfinite(_solve3(m, _RHS)).any()


def _conditioned(rng, cond, n):
    # U diag(1, cond^-1/2, 1/cond) V^H, U and V random unitary
    def unitary():
        return np.linalg.qr(rng.normal(size=(n, 3, 3)) + 1j * rng.normal(size=(n, 3, 3)))[0]
    return unitary() * np.array([1.0, cond ** -0.5, 1.0 / cond]) @ unitary().conj().swapaxes(1, 2)


def _mp(a):
    return matrix([[mpc(complex(v)) for v in row] for row in a])


def test_solve3_is_as_accurate_as_lapack_up_to_the_condition_limit():
    # 60 matrices per decade of condition, 1 to CONDITION_LIMIT = 1e8, against a 40-digit
    # solution of the same float systems: the largest forward error of each decade is at
    # most 4x LAPACK's, and every normwise backward error (Rigal-Gaches, per right-hand
    # side, residual in 40 digits) is at most 8 eps.  The adjugate (Cramer's rule) misses
    # the first bound from cond 1e3 and the second from 1e4 (BENCH_38.json's accuracy has
    # the table)
    eps, rng = np.finfo(float).eps, np.random.default_rng(38)
    for k in range(9):
        M, R = _conditioned(rng, 10.0 ** k, 60), _random(rng, 60)
        x, x_lapack = _solve(M, R), np.linalg.solve(M, R)
        with mp.workdps(40):
            worst, worst_lapack = 0.0, 0.0
            for m, r, xi, li in zip(M, R, x, x_lapack):
                a, b = _mp(m), _mp(r)
                exact = np.array((a ** -1 * b).tolist(), complex)
                worst = max(worst, np.abs(xi - exact).max() / np.abs(exact).max())
                worst_lapack = max(worst_lapack, np.abs(li - exact).max() / np.abs(exact).max())
                res = np.abs(np.array((b - a * _mp(xi)).tolist(), complex)).max(axis=0)
                scale = np.abs(m).sum(axis=1).max() * np.abs(xi).max(axis=0) + np.abs(r).max(axis=0)
                assert np.all(res <= 8 * eps * scale), (k, res / scale / eps)
        assert worst <= 4 * worst_lapack, (k, worst, worst_lapack)
