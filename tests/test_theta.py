import itertools
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc
from mpmath import exp as mpexp
from mpmath import pi as mppi

from mlsurf import theta
from mlsurf.theta import (PeriodMatrix, default_radius, quasi_periodicity_defect,
                          read_period_matrix, riemann_theta)

mp.dps = 40

# oracle: direct summation over |m| <= 12 at 40 digits, g = 1
#   theta(0; i) = sum exp(-pi m^2) = 1.0864348112133080145753161215102234570...
THETA_0_I = 1.0864348112133080145753161215102234570


def mp_theta_g1(z, B):
    z = mpc(z)
    B = mpc(B)
    total = mpc(0)
    for m in range(-12, 13):
        total += mpexp(1j * mppi * B * m * m + 2j * mppi * m * z)
    return total


def rng_period_matrix(rng, g):
    S = rng.uniform(-0.3, 0.3, size=(g, g))
    T = rng.uniform(-0.15, 0.15, size=(g, g))
    return PeriodMatrix((S + S.T) / 2 + 1j * (np.eye(g) + (T + T.T) / 2))


def test_theta_value_g1_matches_extended_precision_oracle():
    B = PeriodMatrix([[1j]])
    val = riemann_theta(np.array([0.0]), B, 8)
    oracle = mp_theta_g1(0, 1j)
    assert abs(complex(oracle) - THETA_0_I) < 1e-16
    assert abs(val - THETA_0_I) < 1e-12 * abs(THETA_0_I)


def test_theta_complex_argument_matches_oracle():
    B = PeriodMatrix([[2j]])
    z = 0.3 + 0.1j
    val = riemann_theta(np.array([z]), B, 10)
    oracle = complex(mp_theta_g1(z, 2j))
    # frozen from the 40-digit oracle
    assert abs(oracle - (0.9986104439069187 - 0.0023816175764664588j)) < 1e-15
    assert abs(val - oracle) < 1e-13


def test_integer_periodicity_randomized():
    rng = np.random.default_rng(7)
    for _ in range(100):
        g = int(rng.integers(1, 4))
        B = rng_period_matrix(rng, g)
        z = rng.uniform(-1, 1, g) + 1j * rng.uniform(-0.2, 0.2, g)
        j = int(rng.integers(0, g))
        e_j = np.zeros(g)
        e_j[j] = 1.0
        t0 = riemann_theta(z, B)
        t1 = riemann_theta(z + e_j, B)
        assert abs(t1 - t0) < 1e-10 * (1.0 + abs(t0))


def test_parity_randomized():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = int(rng.integers(1, 4))
        B = rng_period_matrix(rng, g)
        z = rng.uniform(-1, 1, g) + 1j * rng.uniform(-0.3, 0.3, g)
        t0 = riemann_theta(z, B)
        t1 = riemann_theta(-z, B)
        assert abs(t1 - t0) < 1e-12 * (1.0 + abs(t0))


@pytest.mark.parametrize("b", [1j, 0.3 + 1.2j])
def test_theta_vanishes_at_the_odd_half_period(b):
    # theta(z + (1 + B)/2) is an exponential times the odd theta with characteristic
    # (1/2, 1/2), so theta vanishes at the odd half period; at 1/2 it does not
    B = PeriodMatrix([[b]])
    assert abs(riemann_theta([0.5 + 0.5 * b], B)) < 1e-14
    assert abs(riemann_theta([0.5], B)) > 0.9


def test_quasi_periodicity_zero_shift_is_exact():
    B = PeriodMatrix([[1j]])
    assert quasi_periodicity_defect(np.array([0.2 + 0.1j]), np.array([0]), B) == 0.0


def test_quasi_periodicity_g1_example():
    B = PeriodMatrix([[2j]])
    z = np.array([0.3 + 0.1j])
    m = np.array([1])
    assert quasi_periodicity_defect(z, m, B, 10) < 1e-10
    # independent oracle at R = 14: both sides separately
    lhs = riemann_theta(z + B.entries @ m, B, 14)
    factor = np.exp(-1j * np.pi * (B.entries @ m) @ m - 2j * np.pi * (m @ z))
    rhs = factor * riemann_theta(z, B, 14)
    assert abs(lhs - rhs) < 1e-12 * (1.0 + abs(rhs))


def test_quasi_periodicity_g2_perturbed_identity():
    rng = np.random.default_rng(3)
    B = rng_period_matrix(rng, 2)
    z = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-0.1, 0.1, 2)
    m = np.array([1, -1])
    assert quasi_periodicity_defect(z, m, B) < 1e-8


def mp_theta_box(z, B, radius=8):
    """theta(z) summed over the box |m|_inf <= radius at 400 digits, so that
    2 pi (m, z) keeps about 90 digits after the point even at Re z = 1e300."""
    with mp.workdps(400):
        Bm = [[mpc(x) for x in row] for row in B.tolist()]
        zm = [mpc(x) for x in z.tolist()]
        total = mpc(0)
        for m in itertools.product(range(-radius, radius + 1), repeat=len(zm)):
            quad = sum(Bm[i][j] * mi * mj for i, mi in enumerate(m) for j, mj in enumerate(m))
            total += mpexp(1j * mppi * quad + 2j * mppi * sum(mi * zi for mi, zi in zip(m, zm)))
        return complex(total)


@pytest.mark.parametrize("entries", [[[1j, 0.5j], [0.5j, 1j]],
                                     [[0.3 + 1j, 0.1 + 0.5j], [0.1 + 0.5j, -0.2 + 1.2j]]],
                         ids=["imaginary", "complex"])
@pytest.mark.parametrize("z1", [1e300, 1e17, 1e16 + 0.1j, 1000.3, -7.25 + 0.2j])
def test_theta_at_a_large_real_part_matches_the_oracle(z1, entries):
    # every double above 2^53 is an integer and theta has period 1 in each z_j, so
    # Re z is reduced modulo 1 exactly; an unreduced 2 pi m z loses the phase
    B = PeriodMatrix(entries)
    z = np.array([z1, 0.3 - 0.1j])
    oracle = mp_theta_box(z, B.entries)
    assert abs(riemann_theta(z, B) - oracle) <= 4e-16 * (1.0 + abs(oracle))
    assert quasi_periodicity_defect(np.array([z1, -7.25 + 0.2j]), np.array([1, 0]), B) < 1e-13


def test_truncation_monotonicity():
    B = PeriodMatrix([[1j]])
    z = np.array([0.1 + 0.05j])
    vals = {R: riemann_theta(z, B, R) for R in (1, 2, 3, 5, 6, 7)}
    d1 = abs(vals[1] - vals[5])
    d2 = abs(vals[2] - vals[6])
    d3 = abs(vals[3] - vals[7])
    assert d1 > d2 >= d3
    assert d1 > 1e-7  # the first tail is genuinely visible


def test_dimension_mismatch_rejected():
    B = PeriodMatrix([[1j, 0], [0, 1j]])
    with pytest.raises(ValueError, match="shape"):
        riemann_theta(np.array([0.0]), B)
    with pytest.raises(ValueError):
        quasi_periodicity_defect(np.array([0.0, 0.0]), np.array([1]), B)
    with pytest.raises(ValueError, match="^m must be an integer vector$"):
        quasi_periodicity_defect(np.array([0.0, 0.0]), np.array([1.0, 0.0]), B)


def test_truncation_cap():
    # Im B = 1e-4 I: the floor ellipsoid covers the whole box of 201^3 points
    B = PeriodMatrix(1e-4j * np.eye(3))
    with pytest.raises(ValueError, match=r"^radius 100 needs \d+ terms \(cap 4000000\)$"):
        riemann_theta(np.zeros(3), B, 100)
    with pytest.raises(ValueError, match="^truncation radius must be >= 1, got 0$"):
        riemann_theta(np.zeros(3), B, 0)


def test_im_z_beyond_double_range_is_refused_with_one_message():
    # Im z . Y^{-1} Im z overflows, also where each entry of v = L^-1 Im z is finite
    # (1e308 squared overflows); a radius is given, as the automatic one refuses first
    for entries, z, radius in (([[1j, 0.1], [0.1, 1j]], [0.1 + 1e300j, 0], 3),
                               (1j * np.eye(2), [1e308j, 0], 2)):
        with pytest.raises(FloatingPointError) as refused:
            riemann_theta(np.array(z), PeriodMatrix(entries), radius)
        assert str(refused.value) == "overflow encountered in Im z . (Im B)^-1 Im z"


def test_a_4000_digit_radius_is_refused_from_logarithms():
    # the refusal prints as short as the bound, and is decided and printed from logarithms,
    # not from a million-digit power: it takes about as long as with a 21-digit radius,
    # whose box count is formed exactly
    B, z = PeriodMatrix(1j * np.eye(342)), np.zeros(342)

    def best_of_three(radius):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            with pytest.raises(ValueError) as refused:
                riemann_theta(z, B, radius)
            times.append(time.perf_counter() - start)
        return min(times), str(refused.value)

    (slow, message), (fast, fast_message) = best_of_three(10**3999), best_of_three(10**20)
    assert message == "radius 1.000e+3999 needs 8.959e+1367760 terms (cap 4000000)"
    assert "needs 8.959e+6942 terms" in fast_message
    assert slow < 3.0 * fast


@pytest.mark.parametrize("entries, z, m, step", [
    ([[1e300j, 0], [0, 1j]], [1j, 1j], [-2**63, 0], "matmul"),   # B m overflows
    ([[1e300j]], [0], [2**63 - 1], "matmul"),
    ([[1e300j]], [1e308j], [10**8], "add"),                      # B m is finite, z + B m is not
], ids=["matmul-g2", "matmul-g1", "add"])
def test_a_shift_beyond_double_range_is_refused_without_a_warning(entries, z, m, step):
    # one message naming the overflow, as numpy words it, and no RuntimeWarning
    with pytest.raises(FloatingPointError) as refused:
        quasi_periodicity_defect(np.array(z), np.array(m, dtype=np.int64), PeriodMatrix(entries), 3)
    assert str(refused.value) == f"overflow encountered in {step}"


@pytest.mark.parametrize("radius", [0, -2])
@pytest.mark.parametrize("evaluate", [
    lambda B, radius: riemann_theta(np.zeros(2), B, radius),
    lambda B, radius: quasi_periodicity_defect(np.zeros(2), np.array([1, -1]), B, radius),
], ids=["riemann_theta", "quasi_periodicity_defect"])
def test_a_radius_below_one_is_refused_with_its_message(evaluate, radius):
    B = PeriodMatrix(1j * np.eye(2))
    with pytest.raises(ValueError) as refused:
        evaluate(B, radius)
    assert str(refused.value) == f"truncation radius must be >= 1, got {radius}"
    assert math.isfinite(abs(evaluate(B, 1)))   # the smallest radius is summed


@pytest.mark.parametrize("radius", [2.5, 2.0, True], ids=["float", "whole-float", "bool"])
@pytest.mark.parametrize("evaluate", [
    lambda B, radius: riemann_theta(np.zeros(2), B, radius),
    lambda B, radius: quasi_periodicity_defect(np.zeros(2), np.array([1, -1]), B, radius),
], ids=["riemann_theta", "quasi_periodicity_defect"])
def test_a_radius_that_is_not_an_integer_is_refused(evaluate, radius):
    # 2.5 would sum a box of its own (4.3532 where radius 2 gives 1.1803) and True radius 1
    B = PeriodMatrix(1j * np.eye(2))
    with pytest.raises(ValueError) as refused:
        evaluate(B, radius)
    assert str(refused.value) == f"truncation radius must be an integer, got {radius!r}"


def test_a_numpy_integer_radius_is_summed_as_the_int():
    B = PeriodMatrix(1j * np.eye(2))
    z = np.array([0.1 + 0.2j, 0.3])
    for radius in (2, 2**62):   # 2 R + 1 overflows an int64 at 2^62
        assert riemann_theta(z, B, np.int64(radius)) == riemann_theta(z, B, radius)


@given(g=st.integers(1, 4), data=st.data())
@settings(max_examples=60, deadline=None)
def test_cap_bound_covers_the_listed_points(g, data):
    # the bound the cap is checked against never undercounts the points of the
    # floor ellipsoid; with the cap at 0 every call reports its bound
    floats = st.floats(-1.0, 1.0)
    A = np.array(data.draw(st.lists(floats, min_size=g * g, max_size=g * g))).reshape(g, g)
    c = data.draw(st.floats(0.5 * g, 100.0))
    B = PeriodMatrix(1j * (c * np.eye(g) + A @ A.T))
    z = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=g, max_size=g))) * 1j
    radius = data.draw(st.integers(1, {1: 400, 2: 40, 3: 16, 4: 9}[g]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(theta, "DEFAULT_TERM_CAP", 0)
        with pytest.raises(ValueError, match=r"^radius \d+ needs \d+ terms \(cap 0\)$") as refused:
            riemann_theta(z, B, radius)
    bound = int(re.search(r"needs (\d+) terms", str(refused.value)).group(1))
    M, _ = _floor_points(z, B, radius)
    assert len(M) <= bound <= (2 * radius + 1) ** g


def _floor_points(z, B, radius):
    """(points of the floor ellipsoid, theta value) as riemann_theta lists and
    sums them: with SPREAD infinite the small pass never pays, so the one
    listing is the floor ellipsoid's."""
    listed = []
    points = theta._ellipsoid_points
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(theta, "SPREAD", math.inf)
        patch.setattr(theta, "_ellipsoid_points",
                      lambda *args: listed.append(points(*args)) or listed[-1])
        value = riemann_theta(z, B, radius)
    [M] = listed
    return M, value


def test_cap_admits_a_box_whose_ellipsoid_fits(monkeypatch):
    # with the cap lowered below the box, an input is refused only when the
    # floor ellipsoid may exceed it; an admitted value is the full-box sum
    monkeypatch.setattr(theta, "DEFAULT_TERM_CAP", 1000)
    B = PeriodMatrix([[0.1 + 3j, 0.2 + 0.3j], [0.2 + 0.3j, -0.3 + 3.2j]])
    z = np.array([0.3 + 0.2j, -0.1 + 0.4j])
    assert (2 * 30 + 1) ** 2 > 1000
    value = riemann_theta(z, B, 30)
    _, terms = _box_terms(z, B, 30)
    full = complex(math.fsum(terms.real), math.fsum(terms.imag))
    assert (value.real.hex(), value.imag.hex()) == (full.real.hex(), full.imag.hex())
    # Im B = 0.5 I keeps about 1,500 points: refused with the bound, not the box
    with pytest.raises(ValueError, match=r"radius 30 needs 1\d{3} terms \(cap 1000\)"):
        riemann_theta(z, PeriodMatrix(0.5j * np.eye(2)), 30)


def test_period_matrix_invariants():
    # the series would see (B + B^T)/2: an asymmetric matrix is refused, not mirrored
    with pytest.raises(ValueError, match=r"symmetric: B\[0, 1\] = \(0\.2\+0j\) "
                                         r"but B\[1, 0\] = \(0\.9\+0j\)$"):
        PeriodMatrix([[0.1 + 1j, 0.2], [0.9, 0.3 + 2j]])
    # a gap of one ulp is roundoff: kept, with the lower triangle copied from the upper
    B = PeriodMatrix([[0.1 + 1j, 0.2], [math.nextafter(0.2, 1.0), 0.3 + 2j]])
    assert B.entries[1, 0] == B.entries[0, 1] == 0.2
    with pytest.raises(ValueError, match="positive definite"):
        PeriodMatrix([[-1j]])
    with pytest.raises(ValueError, match="square"):
        PeriodMatrix([[1j, 0]])


def _symmetry_refusal(rows):
    # the rule entry by entry, in Python complexes: the first pair (i < j) row by row
    for j in range(1, len(rows)):
        for i in range(j):
            if abs(rows[i][j] - rows[j][i]) > theta.SYMMETRY_TOL * max(1.0, abs(rows[i][j])):
                return (f"period matrix must be symmetric: B[{i}, {j}] = {rows[i][j]} "
                        f"but B[{j}, {i}] = {rows[j][i]}")
    return None


def test_the_first_asymmetric_pair_is_reported_row_by_row():
    rng = np.random.default_rng(21)
    refused = 0
    for _ in range(300):
        g = int(rng.integers(2, 7))
        X, A = rng.uniform(-1, 1, (g, g)), rng.normal(size=(g, g))
        B = ((X + X.T) / 2 + 1j * (np.eye(g) + A @ A.T)) * 10.0 ** rng.uniform(-2, 13)
        for _ in range(int(rng.integers(0, 4))):  # gaps below, near and above the bound
            i, j = rng.integers(0, g, 2)
            bound = theta.SYMMETRY_TOL * max(1.0, abs(B[j, i]))
            B[i, j] += bound * rng.choice([0.5, 1.0 - 1e-9, 1.0 + 1e-9, 3.0]) * np.exp(1j * rng.uniform(0, 7))
        expected = _symmetry_refusal(B.tolist())
        if expected is None:
            # kept, the lower triangle copied bit for bit from the upper
            assert np.array_equal(PeriodMatrix(B).entries.view(np.uint64),
                                  np.where(np.tri(g, k=-1, dtype=bool), B.T, B).view(np.uint64))
        else:
            refused += 1
            with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
                PeriodMatrix(B)
    assert 50 < refused < 250
    # a gap in Im alone, and gaps whose hypot lies on either side of the bound 1e-12
    # while np.abs rounds them to the other side
    for gap, kept in ((0.1j, False), (complex(9.957711261644366e-13, 9.186873405685898e-14), False),
                      (complex(4.1223496771102454e-13, 9.110775660701402e-13), True)):
        rows = [[1j, gap], [0j, 1j]]
        assert (_symmetry_refusal(rows) is None) == kept
        if kept:
            assert PeriodMatrix(rows).entries[1, 0] == gap
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(_symmetry_refusal(rows))}$"):
                PeriodMatrix(rows)
    # -0.0 below +0.0 is no gap; the lower entry takes the upper one's sign
    B = PeriodMatrix([[1j, 0.0], [complex(-0.0, -0.0), 1j]])
    assert math.copysign(1.0, B.entries[1, 0].real) == math.copysign(1.0, B.entries[1, 0].imag) == 1.0


def test_default_radius_rule():
    B = PeriodMatrix([[1j]])
    # exp(-pi R^2) < 1e-14 needs R >= 3.21
    assert default_radius(np.array([0.0]), B) == 4
    # larger Im z pushes the radius up
    assert default_radius(np.array([0.0 + 1.0j]), B) > 4


def test_riemann_theta_deterministic_and_order_independent():
    B = PeriodMatrix([[0.2 + 1.1j, 0.1], [0.1, -0.3 + 0.9j]])
    z = np.array([0.4 + 0.02j, -0.7 + 0.05j])
    v1 = riemann_theta(z, B, 6)
    v2 = riemann_theta(z, B, 6)
    assert v1 == v2
    # widening the box only adds terms below roundoff once converged
    v3 = riemann_theta(z, B, 12)
    assert abs(v1 - v3) < 1e-13 * (1 + abs(v3))


def test_lattice_order_does_not_change_theta(monkeypatch):
    # math.fsum is exactly rounded, so the order in which _ellipsoid_points
    # lists the kept points cannot change a theta value or a defect by one bit.
    # Terms are summed largest first; with Im z = 0 the terms of m and -m have
    # equal moduli, so their order still follows the listing
    rng = np.random.default_rng(5)
    cases = []
    for g in (1, 2, 3, 4):
        for im in (0.2, 0.0):
            z = rng.uniform(-1.0, 1.0, g) + im * 1j * rng.uniform(-1.0, 1.0, g)
            cases.append((z, rng.integers(-1, 2, g), rng_period_matrix(rng, g)))

    def values():
        return [(riemann_theta(z, B), quasi_periodicity_defect(z, m, B, 6))
                for z, m, B in cases]

    expected = values()
    points = theta._ellipsoid_points

    def reversed_points(*args):  # both passes: small ellipsoid and floor
        return points(*args)[::-1]

    monkeypatch.setattr(theta, "_ellipsoid_points", reversed_points)
    assert values() == expected


def _box_terms(z, B, radius):
    """Every term of the box |m|_inf <= radius, computed as riemann_theta computes a term."""
    axis = np.arange(-radius, radius + 1)
    M = np.stack(np.meshgrid(*([axis] * B.genus), indexing="ij"), axis=-1).reshape(-1, B.genus)
    quad = np.einsum("ni,ij,nj->n", M, B.entries, M)
    return M, np.exp(1j * math.pi * quad + 2j * math.pi * (M @ z))


def test_omitted_box_terms_are_exact_zeros():
    # theta sums only the box points whose exponent can give a nonzero term;
    # every other term of the box must be exactly 0.0, so that the value is
    # bit for bit the sum over the whole box
    rng = np.random.default_rng(17)
    omitted = 0
    for k in range(24):
        g = 1 + k % 4
        A = rng.normal(size=(g, g))
        X = rng.uniform(-0.5, 0.5, size=(g, g))
        B = PeriodMatrix((X + X.T) / 2 + 1j * (0.8 * np.eye(g) + A @ A.T))
        z = rng.uniform(-0.5, 0.5, g) + 1j * rng.uniform(-0.3, 0.3, g)
        m = rng.integers(-1, 2, g)
        radius = (None, 3, 5)[k % 3]
        for w in (z, z + B.entries @ m):
            R = radius or default_radius(w, B)
            if (2 * R + 1) ** g > 200_000:
                continue
            reduced = w.copy()   # riemann_theta sums at Re w reduced modulo 1, exactly
            reduced.real = np.fmod(w.real, 1.0)
            M, terms = _box_terms(reduced, B, R)
            kept_points, floor_value = _floor_points(w, B, R)
            rows = kept_points.tolist()
            kept = set(map(tuple, rows))
            box = list(map(tuple, M.tolist()))
            assert len(kept) == len(rows) and kept <= set(box)
            out = np.array([row not in kept for row in box])
            assert np.all(terms[out] == 0.0)
            omitted += int(out.sum())
            full = complex(math.fsum(terms.real), math.fsum(terms.imag))
            for value in (floor_value, riemann_theta(w, B, radius)):
                assert (value.real.hex(), value.imag.hex()) == (full.real.hex(), full.imag.hex())
    assert omitted > 0


def _seeded_period_matrix(rng, g):
    A = rng.normal(size=(g, g))
    X = rng.uniform(-0.5, 0.5, size=(g, g))
    return PeriodMatrix((X + X.T) / 2 + 1j * (0.8 * np.eye(g) + A @ A.T))


def test_tail_bound_covers_a_brute_force_tail():
    # the sum of exp(-pi (|u|^2 - q)) over the points |u| > rho of L^T Z^g + v,
    # taken over a finite box of m, is at most the bound
    rng = np.random.default_rng(29)
    checked = 0
    for g, reach in ((1, 40), (2, 14), (3, 7), (4, 4)):
        axis = np.arange(-reach, reach + 1)
        M = np.stack(np.meshgrid(*([axis] * g), indexing="ij"), axis=-1).reshape(-1, g)
        for _ in range(3):
            A = rng.normal(size=(g, g))
            L = np.linalg.cholesky(rng.uniform(0.3, 0.8) * np.eye(g) + 0.3 * A @ A.T)
            v = rng.uniform(-2.0, 2.0, g)
            norms = np.linalg.norm(M @ L + v, axis=1)
            packing = 0.5 * min(L.diagonal())
            assert theta._tail_bound(g, packing, 2.0 * packing, 0.0) == math.inf
            for rho in (2.0 * packing + 0.2, 2.0 * packing + 1.0, 3.0, 4.5):
                # any radius up to the packing radius is one, as riemann_theta uses
                for r in (packing, min(packing, g / (4.0 * math.pi * rho))):
                    for q in (0.0, 2.5):
                        tail = math.fsum(np.exp(-math.pi * (norms[norms > rho] ** 2 - q)))
                        bound = theta._tail_bound(g, r, rho, q)
                        assert tail <= bound < math.inf
                        checked += tail > 1e-6 * bound
    assert checked > 20  # the bound is not loose enough to hide a wrong scale


def test_certified_rejects_unsafe_roundings():
    u = 2.0 ** -53  # half the gap above 1.5, and the gap below 1.0
    assert theta._certified([1.5, 2.0 ** -60], 2.0 ** -60) == 1.5
    assert theta._certified([1.5], 0.5 * u) == 1.5
    # the omitted terms may add exactly half the gap: a tie
    assert theta._certified([1.5], u) is None
    # a residual of exactly half the gap: the kept terms alone are a tie
    assert theta._certified([1.5, u], 0.0) is None
    # s = 0.0: its sign and its subnormal neighbours depend on the omitted terms
    for parts in ([1.0, -1.0], [-0.0], []):
        assert theta._certified(parts, 0.0) is None
    # a power of two: the gap below is half the gap above, so a residual and tau
    # on the narrow side may round down although they are below half the wide gap
    assert theta._certified([1.0, -0.375 * u], 0.25 * u) is None
    assert theta._certified([1.0, -0.375 * u], 0.0625 * u) == 1.0
    assert theta._certified([-2.0, 0.375 * 2 * u], 0.25 * 2 * u) is None


def test_small_pass_is_certified_or_falls_back(monkeypatch):
    # riemann_theta sums a small ellipsoid first and lists the floor ellipsoid
    # only when the real or imaginary part of that sum is not certified; on
    # small boxes the small pass is skipped and the floor ellipsoid is the one
    # listing.  Every value is the full-box sum
    passes = []
    points, certified_sum = theta._ellipsoid_points, theta._certified

    def spy_points(*args):
        passes.append("list")
        return points(*args)

    def spy_certified(parts, tau):
        s = certified_sum(parts, tau)
        passes.append(s is not None)
        return s

    def fell_back(p):
        return len(p) == 4 and p[0] == p[3] == "list" and False in p[1:3]

    monkeypatch.setattr(theta, "_ellipsoid_points", spy_points)
    monkeypatch.setattr(theta, "_certified", spy_certified)
    certified, skipped = ["list", True, True], ["list"]
    rng = np.random.default_rng(31)
    seen, real_valued = [], []
    for k in range(24):
        g = 1 + k % 4
        B = _seeded_period_matrix(rng, g)
        z = rng.uniform(-0.5, 0.5, g) + 1j * rng.uniform(-0.3, 0.3, g)
        # Re B = 0 and Re z = 0: every term is real, the imaginary part is
        # exactly 0.0, which is never certified
        real_B = PeriodMatrix(1j * B.entries.imag)
        radius = (None, 5)[k % 2]
        for w, P in ((z, B), (z + B.entries @ rng.integers(-1, 2, g), B), (1j * z.imag, real_B)):
            R = radius or default_radius(w, P)
            if (2 * R + 1) ** g > 200_000:
                continue
            passes.clear()
            value = riemann_theta(w, P, radius)
            _, terms = _box_terms(w, P, R)
            full = complex(math.fsum(terms.real), math.fsum(terms.imag))
            assert (value.real.hex(), value.imag.hex()) == (full.real.hex(), full.imag.hex())
            assert passes in (certified, skipped) or fell_back(passes)
            if P is real_B:
                assert value.imag == 0.0 and (passes == skipped or fell_back(passes))
                real_valued.append(passes[:])
            seen.append(passes[:])
    assert certified in seen and skipped in seen and any(map(fell_back, real_valued))
    # the cap is checked before any pass
    passes.clear()
    with pytest.raises(ValueError, match="cap 4000000"):
        riemann_theta(np.zeros(3), PeriodMatrix(1e-4j * np.eye(3)), 100)
    assert passes == []


def test_a_certified_small_sum_is_the_full_box_sum(monkeypatch):
    # with spreads far below SPREAD the omitted terms matter: the small sum
    # must then be refused, and every value, a certified small sum or the
    # floor sum after a refusal, must equal the full-box sum
    rng = np.random.default_rng(41)
    outcomes, refused = set(), []
    certified_sum = theta._certified

    def spy_certified(parts, tau):
        s = certified_sum(parts, tau)
        refused.append(s is None)
        return s

    monkeypatch.setattr(theta, "_certified", spy_certified)
    for k in range(16):
        g = 1 + k % 4
        B = _seeded_period_matrix(rng, g)
        z = rng.uniform(-0.5, 0.5, g) + 1j * rng.uniform(-0.3, 0.3, g)
        R = 3 if g == 4 else 5
        _, terms = _box_terms(z, B, R)
        full = complex(math.fsum(terms.real), math.fsum(terms.imag))
        for spread in (1.0, 5.0, 10.0, 20.0, 40.0):
            monkeypatch.setattr(theta, "SPREAD", spread)
            refused.clear()
            value = riemann_theta(z, B, R)
            assert (value.real.hex(), value.imag.hex()) == (full.real.hex(), full.imag.hex())
            outcomes.add(any(refused))
    assert outcomes == {True, False}


def test_defect_reuses_a_given_theta_value():
    rng = np.random.default_rng(37)
    B = _seeded_period_matrix(rng, 3)
    z = rng.uniform(-0.5, 0.5, 3) + 1j * rng.uniform(-0.3, 0.3, 3)
    m = np.array([0, 1, 0])
    theta_z = riemann_theta(z, B)
    assert quasi_periodicity_defect(z, m, B, None, theta_z) == quasi_periodicity_defect(z, m, B)
    assert quasi_periodicity_defect(z, m, B, None, 2 * theta_z) > 0.1


def test_non_finite_input_rejected():
    B = PeriodMatrix([[1j, 0.1], [0.1, 1j]])
    for z in ([np.nan, 0.0], [complex(0.0, np.nan), 0.0], [0.0, complex(0.0, np.inf)]):
        with pytest.raises(ValueError, match="z must be finite"):
            riemann_theta(np.array(z), B, 3)
        with pytest.raises(ValueError, match="z must be finite"):
            riemann_theta(np.array(z), B)
    for bad in (np.nan, complex(0.0, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            PeriodMatrix([[1j, bad], [0.1, 1j]])
        with pytest.raises(ValueError, match="finite"):
            PeriodMatrix([[1j, 0.1], [bad, 1j]])


def test_read_period_matrix_roundtrip(tmp_path):
    path = tmp_path / "pm.txt"
    path.write_text("# worked example\n2\n0.1+1j 0.2+0j\n0.2+0j 2j\n")
    B = read_period_matrix(path)
    assert B.genus == 2
    assert B.entries[0, 0] == 0.1 + 1j
    assert B.entries[1, 0] == 0.2
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1j 0\n")
    with pytest.raises(ValueError, match="rows"):
        read_period_matrix(bad)
    bad.write_text("2\n1j 0\n0 1j 0\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: expected 2 entries per row, got 3$"):
        read_period_matrix(bad)
    for text in ("", "\n  \n", "# only a comment\n"):
        bad.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: empty period-matrix file$"):
            read_period_matrix(bad)
    bad.write_text("2\n1j 0\n0 0.1x\n")
    with pytest.raises(ValueError, match=re.escape(f"{bad}: malformed complex number '0.1x'")):
        read_period_matrix(bad)
    # the genus line: one message naming the file and the line, for each way it is wrong
    for genus in ("x", "2.0", "0", "-1"):
        bad.write_text(f"{genus}\n1j 0\n0 1j\n")
        with pytest.raises(ValueError) as refused:
            read_period_matrix(bad)
        assert str(refused.value) == f"{bad}: genus line must be a positive integer, got {genus!r}"
