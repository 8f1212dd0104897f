import cmath
import math
from functools import cache
from types import SimpleNamespace

import numpy as np
import pytest
import mpmath
import sympy

from mlsurf import diffgeo, surface_families, sweep
from mlsurf.report import GridSpec
from mlsurf.spectral_curve import derive_constants
from mlsurf.surface_families import (TUBE_RADIUS, SurfaceJet, cone_family, cone_family_jet,
                                     cone_jet_field, cone_metric_field, degeneracy_angle,
                                     in_degeneracy_tube, spectral_family, spectral_family_jet,
                                     spectral_jet_field, spectral_metric_field)
from reference import _log_uniform_curve, ba_rational_eval


def fd_jet(evaluator, x: float, y: float, h: float) -> SurfaceJet:
    """O(h^2) central-difference jet of a point map (x, y) -> C^3."""
    if h <= 0:
        raise ValueError("h must be positive")
    f = lambda xx, yy: np.asarray(evaluator(xx, yy), dtype=complex)
    c = f(x, y)
    xp, xm = f(x + h, y), f(x - h, y)
    yp, ym = f(x, y + h), f(x, y - h)
    pp, pm = f(x + h, y + h), f(x + h, y - h)
    mp, mm = f(x - h, y + h), f(x - h, y - h)
    return SurfaceJet(
        x=x, y=y,
        phi=c,
        phi_x=(xp - xm) / (2 * h),
        phi_y=(yp - ym) / (2 * h),
        phi_xx=(xp - 2 * c + xm) / h ** 2,
        phi_yy=(yp - 2 * c + ym) / h ** 2,
        phi_xy=(pp - pm - mp + mm) / (4 * h ** 2),
    )


def hopf_representative(phi) -> np.ndarray:
    """Canonical homogeneous representative of [phi] in CP^2: unit norm, with
    the first component of magnitude above 1e-12 rotated to the positive real axis."""
    v = np.asarray(phi, dtype=complex)
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("cannot project the zero vector")
    v = v / norm
    idx = next(i for i in range(v.size) if abs(v[i]) > 1e-12)
    return v * np.exp(-1j * np.angle(v[idx]))


_JET_FIELDS = ("phi", "phi_x", "phi_y", "phi_xx", "phi_xy", "phi_yy")


def _scalar_field(jet, xs, ys):
    """The (6, n, 3) field stacked from one scalar jet per point."""
    jets = [jet(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
    return np.array([[getattr(j, f) for j in jets] for f in _JET_FIELDS])


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _with_sweep_points(xs, ys, grid=GridSpec(64, 64)):
    """xs, ys followed by the points a sweep evaluates, where the sign of a zero
    decides bits: the first full sweep.CHUNK block of grid in block order
    (2 pi k / nx from exact 0.0; 64 distinct x on the default 64x64 grid, 1,024 on
    a 4096-wide one), the block's stencil points (x +- h, y), (x, y +- h) at
    h = 1e-4 as the sweep forms them, and every pair of 0.0, -0.0, pi and -pi."""
    idx, h = np.arange(sweep.CHUNK), 1e-4
    bx, by = grid.points(idx)
    sx, sy = np.meshgrid([0.0, -0.0, math.pi, -math.pi], [0.0, -0.0, math.pi, -math.pi])
    return (np.concatenate([xs, bx, bx + h, bx - h, bx, bx, sx.ravel()]),
            np.concatenate([ys, by, by, by, by + h, by - h, sy.ravel()]))


def _random_curve(rng):
    b = rng.uniform(0.5, 2.0)
    return derive_constants(rng.uniform(0.5, 2.0), b,
                            (b + rng.uniform(0.3, 2.0)) * rng.choice([-1.0, 1.0]),
                            rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0]))


@pytest.mark.parametrize("seed", range(5))
def test_spectral_jet_field_matches_the_scalar_jet_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    curve = _random_curve(rng)
    xs, ys = _with_sweep_points(*rng.uniform(-50, 50, (2, 2000)))
    field = spectral_jet_field(curve, xs, ys)
    assert field.shape == (6, len(xs), 3)
    expected = _scalar_field(lambda x, y: spectral_family_jet(curve, x, y), xs, ys)
    assert np.array_equal(_bits(field), _bits(expected))


@pytest.mark.parametrize("m", [*range(1, 7), 40])
def test_cone_jet_field_is_pointwise(m):
    # a point's rows do not depend on the other points of the call: the field from each
    # offset 0-16 into it (numpy's loops may treat a point by its lane or the tail it falls
    # in) and each of the first 64 points alone, as cone_family_jet evaluates it, give the
    # bits of the whole call; (40, 40) is the identity corpus's largest order
    rng = np.random.default_rng(100 + m)
    for n in ([40] if m == 40 else range(1, 7)):
        drawn = rng.uniform(-50, 50, (2, 500))
        for grid in (GridSpec(64, 64), GridSpec(4096, 16)):
            xs, ys = _with_sweep_points(*drawn, grid)
            field = cone_jet_field(m, n, xs, ys)
            assert field.shape == (6, len(xs), 3)
            for k in range(17):
                assert np.array_equal(_bits(cone_jet_field(m, n, xs[k:], ys[k:])),
                                      _bits(field[:, k:])), (m, n, grid.nx, k)
            alone = _scalar_field(lambda x, y: cone_family_jet(m, n, x, y), xs[:64], ys[:64])
            assert np.array_equal(_bits(alone), _bits(field[:, :64])), (m, n, grid.nx)


@pytest.mark.parametrize("m", [*range(1, 7), 40])
def test_order_1_cone_jets_are_the_first_three_rows(m):
    # the orders and points of test_cone_jet_field_is_pointwise: the stencil's order-1 rows
    # skip u'' and the second-order rows, and keep the bits of phi, phi_x and phi_y
    rng = np.random.default_rng(100 + m)
    for n in ([40] if m == 40 else range(1, 7)):
        drawn = rng.uniform(-50, 50, (2, 500))
        for grid in (GridSpec(64, 64), GridSpec(4096, 16)):
            xs, ys = _with_sweep_points(*drawn, grid)
            rows = cone_family(m, n).jets(xs, ys, 1)
            assert rows.shape == (3, len(xs), 3)
            assert np.array_equal(_bits(rows), _bits(cone_family(m, n).jets(xs, ys)[:3]))


@pytest.mark.parametrize("family", [
    spectral_family(_random_curve(np.random.default_rng(seed))) for seed in range(5)],
    ids=lambda f: f.name + "-" + "-".join(f"{v:.3g}" for v in f.parameters.values()))
def test_stencil_jets_are_the_field_rows_the_stencil_reads(family):
    # the spectral scalar jets and the field agree bit for bit on the stencil's rows, so
    # the row source the sweep gives the spectral stencil (its scalar jets until ROADMAP
    # item 1b) cannot change a report; a cone's stencil reads its field
    xs, ys = _with_sweep_points(*np.random.default_rng(7).uniform(-50, 50, (2, 200)))
    stencil = diffgeo._jets(family.jet, xs, ys)
    assert stencil.shape == (3, len(xs), 3)
    assert np.array_equal(_bits(stencil), _bits(family.jets(xs, ys)[:3]))


_WORKED = derive_constants(1.0, 1.0, 2.0, 1.0)
_MEMO_FAMILIES = pytest.mark.parametrize("family", [spectral_family(_WORKED), cone_family(3, 2)],
                                         ids=["worked-example", "cone-3-2"])


def _rows(jet):
    return np.array([getattr(jet, f) for f in _JET_FIELDS])


def _forget_the_curve():
    # one scalar jet of another curve: the spectral memo then holds no family above
    spectral_family_jet(derive_constants(1.3, 0.7, 2.1, -0.9), 0.5, 0.5)


@_MEMO_FAMILIES
@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_scalar_jets_tell_the_zeros_apart_in_either_order(family, order):
    # 0.0 == -0.0 and both hash alike, yet math.sin(-0.0) is -0.0: a memo keyed by value
    # would hand the second zero the factor of the first
    points = [(x, y) for x in (0.0, -0.0, 0.7) for y in (0.0, -0.0, 0.3)]
    if order == "reversed":
        points.reverse()
    _forget_the_curve()
    xs, ys = np.array(points).T
    assert np.array_equal(_bits(_scalar_field(family.jet, xs, ys)), _bits(family.jets(xs, ys)))


@pytest.mark.parametrize("pair", [
    (cone_family(3, 2), cone_family(1, 2)),
    (spectral_family(_WORKED), spectral_family(derive_constants(1.3, 0.7, 2.1, -0.9))),
    (spectral_family(_WORKED), spectral_family(derive_constants(1.0, 1.0, 2.0, 1.0)))],
    ids=["two-cone-orders", "two-curves", "two-equal-curves"])
def test_jets_alternating_between_two_families_are_each_its_own_field(pair):
    # each point twice (a miss, then a hit), each time in both families in turn
    xs, ys = np.random.default_rng(42).uniform(-50, 50, (2, 20))
    fields = [family.jets(xs, ys) for family in pair]
    for _ in range(2):
        for k, (x, y) in enumerate(zip(xs.tolist(), ys.tolist())):
            for family, field in zip(pair, fields):
                assert np.array_equal(_bits(_rows(family.jet(x, y))), _bits(field[:, k]))


@_MEMO_FAMILIES
def test_writing_into_a_returned_row_changes_no_later_jet(family):
    expected = family.jets(np.array([0.7]), np.array([0.3]))[:, 0]
    for _ in range(3):
        jet = family.jet(0.7, 0.3)
        assert np.array_equal(_bits(_rows(jet)), _bits(expected))
        for f in _JET_FIELDS:
            getattr(jet, f)[:] = 0


@pytest.mark.parametrize("family", [spectral_family(_WORKED)], ids=["worked-example"])
def test_a_stencil_row_wider_than_the_memo_keeps_every_bit_and_the_bound(family):
    # one grid row's stencil holds 3 nx distinct x values, more than MEMO_SIZE: the x table
    # is cleared on the way, and every jet is still the field's
    nx, h = surface_families.MEMO_SIZE // 2, 1e-4
    x, y = GridSpec(nx, 7).points(np.arange(3 * nx, 4 * nx))
    xs, ys = np.concatenate([x + h, x - h, x, x]), np.concatenate([y, y, y + h, y - h])
    assert len(set(xs.tolist())) == 3 * nx > surface_families.MEMO_SIZE
    stencil = diffgeo._jets(family.jet, xs, ys)
    assert np.array_equal(_bits(stencil), _bits(family.jets(xs, ys)[:3]))
    tables = [t for t in surface_families._spectral_memo if isinstance(t, dict)]
    assert len(tables) == 2 and all(len(t) <= surface_families.MEMO_SIZE for t in tables)
    assert not any(f.flags.writeable for t in tables for f in t.values())


def test_cone_jet_field_rejects_bad_orders():
    with pytest.raises(ValueError):
        cone_jet_field(0, 1, np.zeros(1), np.zeros(1))


def _sweep_tube_mask(curve, xs, ys):
    # the sweep's vectorised mask over the product grid xs x ys, in report order
    family = cone_family(1, 2)._replace(curve=curve)
    grid = SimpleNamespace(nx=len(xs), ny=len(ys),
                           points=lambda idx: (xs[idx % len(xs)], ys[idx // len(xs)]))
    return np.concatenate([sweep._block(family, grid, start)[2]
                           for start in range(0, grid.nx * grid.ny, sweep.CHUNK)])


def _in_tube(curve, x, y):
    # the tube written out at one point: |a x - b y - theta*| mod pi below TUBE_RADIUS
    theta = math.atan2(-curve.b, curve.gamma_im) % math.pi
    return abs(math.remainder(curve.a * x - curve.b * y - theta, math.pi)) < TUBE_RADIUS


def test_sweep_tube_mask_matches_in_degeneracy_tube():
    r = TUBE_RADIUS
    # a stand-in curve with theta* = 0 and a x - b y = x, so x = +-r lies exactly on the edge
    flat = SimpleNamespace(a=1.0, b=0.0, gamma_im=1.0)
    assert degeneracy_angle(flat) == 0.0
    edges = np.array([r, -r, math.nextafter(r, 0.0), math.nextafter(-r, 0.0),
                      math.nextafter(r, 1.0), math.nextafter(-r, -1.0), 0.0, -0.0])
    rng = np.random.default_rng(12)
    curve = derive_constants(1.3, 0.7, -2.1, 0.9)
    y0 = 0.37
    # points within a few ulps of the tube edges a x - b y - theta* = k pi +- r
    near = np.array([(degeneracy_angle(curve) + k * math.pi + s * r + curve.b * y0) / curve.a
                     for k in range(-20, 21) for s in (-1.0, 1.0)])
    near = np.concatenate([near, *(np.nextafter(near, d) for d in (-np.inf, np.inf))])
    for c, xs, ys in [(flat, edges, np.array([0.0, 1.5, -40.0])),
                      (curve, near, np.array([y0])),
                      (curve, rng.uniform(-50, 50, 400), rng.uniform(-50, 50, 5)),
                      (derive_constants(0.8, 1.6, -3.1, 0.4), rng.uniform(-50, 50, 4000),
                       rng.uniform(-50, 50, 5))]:
        mask = _sweep_tube_mask(c, xs, ys)
        expected = [in_degeneracy_tube(c, x, y) for y in ys.tolist() for x in xs.tolist()]
        assert mask.tolist() == expected == [_in_tube(c, x, y) for y in ys.tolist()
                                             for x in xs.tolist()]
        assert 0 < mask.sum() < len(mask)
    assert _sweep_tube_mask(flat, edges, np.zeros(1)).tolist() == [False, False] + [True] * 2 \
        + [False] * 2 + [True] * 2


# independent closed-form oracles, hand-expanded from the two-term sums
def explicit_phi1(x, y):
    return (1 + 3j) / (8 * math.sqrt(5)) * cmath.exp(-1j * (x - y)) \
        * (-3j * cmath.exp(2j * x) + cmath.exp(2j * y))


def explicit_phi2(x, y):
    return cmath.exp(-1j * (x + 3 * y)) / (8 * math.sqrt(5)) \
        * ((1 - 3j) * cmath.exp(2j * x) + (9 + 3j) * cmath.exp(2j * y))


def test_sphere_phi1_phi2_explicit_forms(sphere_curve):
    rng = np.random.default_rng(1)
    for _ in range(25):
        x, y = rng.uniform(-6, 6, 2)
        jet = spectral_family_jet(sphere_curve, x, y)
        assert abs(jet.phi[0] - explicit_phi1(x, y)) < 1e-13
        assert abs(jet.phi[1] - explicit_phi2(x, y)) < 1e-13


def test_sphere_phi3_alpha3_consistent(sphere_curve):
    alpha3 = math.sqrt(3.0 / 8.0)
    rng = np.random.default_rng(2)
    for _ in range(25):
        x, y = rng.uniform(-6, 6, 2)
        jet = spectral_family_jet(sphere_curve, x, y)
        theta = x - y
        expected = alpha3 * (math.cos(theta) - math.sin(theta))
        assert abs(jet.phi[2] - expected) < 1e-13
    # at x = y the third component equals alpha_3 itself
    jet = spectral_family_jet(sphere_curve, 1.3, 1.3)
    assert abs(jet.phi[2] - alpha3) < 1e-14


def test_unit_norm_thousand_random_points(sphere_curve):
    rng = np.random.default_rng(3)
    for _ in range(1000):
        x, y = rng.uniform(-10, 10, 2)
        jet = spectral_family_jet(sphere_curve, x, y)
        assert abs(np.sum(np.abs(jet.phi) ** 2) - 1.0) < 1e-12


def test_unit_norm_random_curves():
    rng = np.random.default_rng(4)
    for _ in range(10):
        b = rng.uniform(0.5, 2.0)
        curve = derive_constants(rng.uniform(0.5, 2.0), b,
                                 rng.uniform(1.01, 3.0) * b * rng.choice([-1.0, 1.0]),
                                 rng.uniform(0.2, 2.0))
        for _ in range(20):
            x, y = rng.uniform(-6, 6, 2)
            jet = spectral_family_jet(curve, x, y)
            assert abs(np.sum(np.abs(jet.phi) ** 2) - 1.0) < 1e-12


def test_spectral_jet_consistent_with_ba_eval(sphere_curve):
    # dual route: exponential-sum jet vs direct rational evaluation at Q_i
    rng = np.random.default_rng(5)
    for _ in range(20):
        x, y = rng.uniform(-6, 6, 2)
        jet = spectral_family_jet(sphere_curve, x, y)
        for i, q in enumerate(sphere_curve.Q):
            psi = ba_rational_eval(sphere_curve, x, y, 2, q)
            assert abs(jet.phi[i] - sphere_curve.alpha[i] * psi) < 1e-13


def _reference_points(rng):
    """A 4x4 grid's points, their stencil points at h = 1e-4 and 1e-3, every pair of 0.0
    and -0.0, and 12 points with log-uniform |x|, |y| in [1e-3, 1e3] of either sign."""
    gx, gy = GridSpec(4, 4).points(np.arange(16))
    xs, ys = [gx], [gy]
    for h in (1e-4, 1e-3):
        xs += [gx + h, gx - h, gx, gx]
        ys += [gy, gy, gy + h, gy - h]
    sx, sy = np.meshgrid([0.0, -0.0], [0.0, -0.0])
    far = rng.choice((-1.0, 1.0), (2, 12)) * 10 ** rng.uniform(-3, 3, (2, 12))
    return np.concatenate([*xs, sx.ravel(), far[0]]), np.concatenate([*ys, sy.ravel(), far[1]])


def _closed_form_jet(curve, x, y):
    """The six rows of pre_i (A+ e^{i(a x + (Q_i - b) y)} + A- e^{i(-a x + (Q_i + b) y)})
    and their exact derivatives in 40 digits from the curve's float constants; with them
    the sum |term+| + |term-| of each entry and the largest |p x| + |q y| of a term."""
    mpf = mpmath.mpf
    with mpmath.mp.workdps(40):
        a, b, d, g = mpf(curve.a), mpf(curve.b), mpf(curve.d), mpmath.mpc(0, curve.gamma_im)
        x, y = mpf(x), mpf(y)
        rows, scale, phase = np.empty((6, 3), complex), np.empty((6, 3)), 0.0
        for i, (alpha, Q) in enumerate(zip(map(mpf, curve.alpha), map(mpf, curve.Q))):
            pre = alpha * d / (2 * b)
            terms = []
            for A, p, q in ((pre * (b - g) * (Q + b) / (Q - g), 1j * a, 1j * (Q - b)),
                            (pre * (b + g) * (Q - b) / (Q - g), -1j * a, 1j * (Q + b))):
                e = A * mpmath.exp(p * x + q * y)
                terms.append([f * e for f in (1, p, q, p * p, p * q, q * q)])
                phase = max(phase, float(abs(p * x) + abs(q * y)))
            for r, (plus, minus) in enumerate(zip(*terms)):
                rows[r, i] = complex(plus + minus)
                scale[r, i] = float(abs(plus) + abs(minus))
    return rows, scale, phase


@pytest.mark.parametrize("seed", range(4))
def test_spectral_jets_match_the_closed_form_in_40_digits(seed):
    # every row of the scalar jet and of the field against the closed form, each entry
    # within 4 eps (1 + |p x| + |q y|) of its terms' scale: rounding the phase costs eps
    # per unit of it.  Measured with these curves and points on seeds 4400-4439: at most
    # 3.01 eps (1 + phase), and 2.98 with one exponential of the summed phase
    rng = np.random.default_rng(4400 + seed)
    eps = np.finfo(float).eps
    for _ in range(2):
        curve = _log_uniform_curve(rng)
        xs, ys = _reference_points(rng)
        field = spectral_jet_field(curve, xs, ys)
        for n, (x, y) in enumerate(zip(xs.tolist(), ys.tolist())):
            rows, scale, phase = _closed_form_jet(curve, x, y)
            bound = 4 * eps * (1 + phase) * scale
            jet = _rows(spectral_family_jet(curve, x, y))
            assert np.all(np.abs(jet - rows) <= bound), (curve, x, y)
            assert np.all(np.abs(field[:, n] - rows) <= bound), (curve, x, y)


@cache
def _sympy_cone_rows(m, n):
    """phi as cone_jet_field's docstring writes it and its derivatives to order 2, by
    sympy, as one mpmath function of (x, y) giving the six jet rows' 18 entries in order."""
    x, y = sympy.symbols("x y", real=True)
    s, c, k = sympy.sin(x), sympy.cos(x), sympy.sqrt(m + n)
    e = lambda p: sympy.exp(sympy.pi * sympy.I * p * y)
    phi = (s * k / sympy.sqrt(2 * m + n) * e(m),
           c * k / sympy.sqrt(m + 2 * n) * e(n),
           sympy.sqrt(n * c ** 2 / (m + 2 * n) + m * s ** 2 / (2 * m + n)) * e(-(m + n)))
    rows = [phi, *([sympy.diff(f, *v) for f in phi]
                   for v in ((x,), (y,), (x, x), (x, y), (y, y)))]
    return sympy.lambdify((x, y), [f for row in rows for f in row], "mpmath", cse=True)


def _cone_reference_points(rng):
    """40 points in [-50, 50]^2, a 16x16 grid's points and their stencil points at h = 1e-4
    and 1e-3, x in {+-0.0, +-pi/2, +-pi} against y in {0.0, -0.0, 1.0}, and 12 points with
    log-uniform |x|, |y| in [1e-3, 1e3] of either sign."""
    gx, gy = GridSpec(16, 16).points(np.arange(256))
    xs, ys = [rng.uniform(-50, 50, 40), gx], [rng.uniform(-50, 50, 40), gy]
    for h in (1e-4, 1e-3):
        xs += [gx + h, gx - h, gx, gx]
        ys += [gy, gy, gy + h, gy - h]
    sx, sy = np.meshgrid([0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi],
                         [0.0, -0.0, 1.0])
    far = rng.choice((-1.0, 1.0), (2, 12)) * 10 ** rng.uniform(-3, 3, (2, 12))
    return np.concatenate([*xs, sx.ravel(), far[0]]), np.concatenate([*ys, sy.ravel(), far[1]])


@pytest.mark.parametrize("m, n", [(1, 1), (1, 2), (3, 2), (4, 4), (40, 40)])
def test_cone_jets_match_sympy_in_40_digits(m, n):
    # every row of the field against sympy's derivatives of phi, each
    # row within 3 eps (1 + pi (m + n) |y|) of its largest entry: rounding q y in the phase
    # e^{i q y} costs eps per unit of it.  Measured with these orders and points on 20
    # seeds per order, 46000 + 20 (100 m + n) + s for s < 20: at most 1.80
    exact = _sympy_cone_rows(m, n)
    xs, ys = _cone_reference_points(np.random.default_rng(4500 + 100 * m + n))
    with mpmath.mp.workdps(40):
        rows = np.array([[complex(v) for v in exact(mpmath.mpf(x), mpmath.mpf(y))]
                         for x, y in zip(xs.tolist(), ys.tolist())]).reshape(-1, 6, 3)
    rows = rows.transpose(1, 0, 2)                                  # (6, n, 3) as a field
    bound = (3 * np.finfo(float).eps * (1 + math.pi * (m + n) * np.abs(ys))[:, None]
             * np.max(np.abs(rows), axis=2, keepdims=True))
    bad = np.any(np.abs(cone_jet_field(m, n, xs, ys) - rows) > bound, axis=(0, 2))
    assert not bad.any(), list(zip(xs[bad], ys[bad]))[:5]


def test_cone_third_component_m1_n1():
    # radicand is constant 1/3 for m = n = 1
    rng = np.random.default_rng(6)
    for _ in range(20):
        x, y = rng.uniform(-5, 5, 2)
        jet = cone_family_jet(1, 1, x, y)
        expected = cmath.exp(-2j * math.pi * y) / math.sqrt(3)
        assert abs(jet.phi[2] - expected) < 1e-14
        assert abs(abs(jet.phi[2]) - 1 / math.sqrt(3)) < 1e-14


def test_cone_unit_norm_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        x, y = rng.uniform(-5, 5, 2)
        jet = cone_family_jet(m, n, x, y)
        assert abs(np.sum(np.abs(jet.phi) ** 2) - 1.0) < 1e-14


def test_cone_metric_diagonal_and_anisotropic():
    from mlsurf.diffgeo import gram_defects, metric_from_jet
    worst_v = 0.0
    for x in np.linspace(0, 2 * math.pi, 16, endpoint=False):
        jet = cone_family_jet(1, 2, x, 0.37)
        assert gram_defects(jet)[3] < 1e-12  # <phi_x, phi_y> = 0
        md = metric_from_jet(jet)
        worst_v = max(worst_v, abs(md.v1 - md.v2))
    assert worst_v > 0.1


def test_cone_rejects_bad_orders():
    with pytest.raises(ValueError):
        cone_family_jet(0, 1, 0.0, 0.0)
    with pytest.raises(ValueError):
        cone_family_jet(1, -2, 0.0, 0.0)


def test_fd_jet_matches_analytic(sphere_curve):
    h = 1e-4
    worst1 = worst2 = 0.0
    grid = np.linspace(0, 2 * math.pi, 16, endpoint=False)
    for x in grid[::4]:
        for y in grid[::4]:
            analytic = spectral_family_jet(sphere_curve, x, y)
            fd = fd_jet(lambda xx, yy: spectral_family_jet(sphere_curve, xx, yy).phi,
                        x, y, h)
            worst1 = max(worst1,
                         np.max(np.abs(fd.phi_x - analytic.phi_x)),
                         np.max(np.abs(fd.phi_y - analytic.phi_y)))
            worst2 = max(worst2,
                         np.max(np.abs(fd.phi_xx - analytic.phi_xx)),
                         np.max(np.abs(fd.phi_xy - analytic.phi_xy)),
                         np.max(np.abs(fd.phi_yy - analytic.phi_yy)))
    assert worst1 < 1e-6
    assert worst2 < 1e-4
    # Richardson-style sanity: the example tolerance at a single point
    fd = fd_jet(lambda xx, yy: spectral_family_jet(sphere_curve, xx, yy).phi,
                0.3, 1.1, 1e-4)
    analytic = spectral_family_jet(sphere_curve, 0.3, 1.1)
    assert np.max(np.abs(fd.phi_x - analytic.phi_x)) < 1e-7


def test_fd_jet_constant_and_linear_phase():
    const = fd_jet(lambda x, y: np.array([1.0 + 2j, -0.5, 0.25j]), 0.3, 0.8, 1e-4)
    for slot in (const.phi_x, const.phi_y, const.phi_xx, const.phi_xy, const.phi_yy):
        assert np.max(np.abs(slot)) == 0.0
    v = np.array([0.3, 1.0 - 0.2j, -0.7j])
    jet = fd_jet(lambda x, y: cmath.exp(1j * (2 * x + 3 * y)) * v, 0.4, -0.2, 2e-5)
    assert np.max(np.abs(jet.phi_x - 2j * jet.phi)) < 1e-8
    assert np.max(np.abs(jet.phi_y - 3j * jet.phi)) < 1e-8
    with pytest.raises(ValueError):
        fd_jet(lambda x, y: v, 0.0, 0.0, 0.0)


def test_hopf_representative_examples():
    rep = hopf_representative(np.array([0.0, 0.0, 2j]))
    assert np.allclose(rep, [0.0, 0.0, 1.0], atol=1e-15)
    rng = np.random.default_rng(8)
    for _ in range(20):
        phi = rng.normal(size=3) + 1j * rng.normal(size=3)
        theta = rng.uniform(0, 2 * math.pi)
        r1 = hopf_representative(phi)
        r2 = hopf_representative(np.exp(1j * theta) * phi)
        assert np.max(np.abs(r1 - r2)) < 1e-12
    with pytest.raises(ValueError):
        hopf_representative(np.zeros(3))


def test_hopf_distinct_points_distinct(sphere_curve):
    j1 = spectral_family_jet(sphere_curve, 0.3, 0.4)
    j2 = spectral_family_jet(sphere_curve, 1.1, 0.4)
    r1 = hopf_representative(j1.phi)
    r2 = hopf_representative(j2.phi)
    assert np.max(np.abs(r1 - r2)) > 1e-3


def test_spectral_metric_field_matches_jets(sphere_curve):
    field = spectral_metric_field(sphere_curve)
    rng = np.random.default_rng(9)
    for _ in range(30):
        x, y = rng.uniform(-5, 5, 2)
        jet = spectral_family_jet(sphere_curve, x, y)
        E = float(np.sum(np.abs(jet.phi_x) ** 2))
        G = float(np.sum(np.abs(jet.phi_y) ** 2))
        assert abs(E - field.E(x, y)) < 1e-12
        assert abs(G - field.G(x, y)) < 1e-12
        # registered first derivatives against finite differences
        h = 1e-5
        gx_fd = (field.G(x + h, y) - field.G(x - h, y)) / (2 * h)
        assert abs(field.G_x(x, y) - gx_fd) < 1e-7


def test_metric_E_does_not_depend_on_y():
    # gauss_curvature drops the E_y term of the orthogonal-coordinates formula,
    # so a family whose E varies with y must fail here
    rng = np.random.default_rng(24)
    families = [spectral_family(derive_constants(1.0, 1.0, 2.0, 1.0))]
    for _ in range(10):
        b = rng.uniform(0.5, 2.0)
        families.append(spectral_family(derive_constants(
            rng.uniform(0.5, 2.0), b, rng.uniform(1.01, 3.0) * b * rng.choice([-1.0, 1.0]),
            rng.uniform(0.2, 2.0))))
    families += [cone_family(m, n) for m in range(1, 5) for n in range(1, 5)]
    x, y = GridSpec(nx=16, ny=16).points(np.arange(256))
    for family in families:
        E = family.metric.E
        first_row = _bits(np.broadcast_to(E(x[:16], y[:16]), 16))
        for shifted in (y, y + 1e-4, y - 3.7):
            assert np.array_equal(_bits(np.broadcast_to(E(x, shifted), 256)),
                                  np.tile(first_row, 16))
        for xx, yy in zip(x[::37].tolist(), y[::37].tolist()):
            assert _bits(E(xx, yy)) == _bits(E(xx, yy + 1e-4)) == _bits(E(xx, yy - 2.5))


def test_cone_metric_field_matches_jets():
    field = cone_metric_field(2, 3)
    rng = np.random.default_rng(10)
    for _ in range(30):
        x, y = rng.uniform(-5, 5, 2)
        jet = cone_family_jet(2, 3, x, y)
        E = float(np.sum(np.abs(jet.phi_x) ** 2))
        G = float(np.sum(np.abs(jet.phi_y) ** 2))
        assert abs(E - field.E(x, y)) < 1e-12 * (1 + E)
        assert abs(G - field.G(x, y)) < 1e-12 * (1 + G)
        h = 1e-5
        gx_fd = (field.G(x + h, y) - field.G(x - h, y)) / (2 * h)
        assert abs(field.G_x(x, y) - gx_fd) < 1e-6 * (1 + abs(gx_fd))


def test_cone_metric_m1_n1_constants():
    # E = 2/3 and G = 2 pi^2, both constant, for m = n = 1
    field = cone_metric_field(1, 1)
    for x in (0.0, 0.7, 2.1):
        assert abs(field.E(x, 0.0) - 2.0 / 3.0) < 1e-15
        assert abs(field.G(x, 0.0) - 2.0 * math.pi ** 2) < 1e-12


def test_mixed_partial_symmetry(sphere_curve):
    # phi_xy computed once; y-derivative of phi_x path equals x-derivative of phi_y
    jet = spectral_family_jet(sphere_curve, 0.9, -0.3)
    h = 1e-5
    jet_yp = spectral_family_jet(sphere_curve, 0.9, -0.3 + h)
    jet_ym = spectral_family_jet(sphere_curve, 0.9, -0.3 - h)
    fd_xy = (jet_yp.phi_x - jet_ym.phi_x) / (2 * h)
    assert np.max(np.abs(fd_xy - jet.phi_xy)) < 1e-8


def test_brute_force_norm_split(sphere_curve):
    # independent sum |phi1|^2 + |phi2|^2 = (5 + 3 sin 2(x-y)) / 8 via the
    # rational evaluation route, pinning alpha_3 = sqrt(3/8)
    rng = np.random.default_rng(11)
    for _ in range(50):
        x, y = rng.uniform(-6, 6, 2)
        s = sum(sphere_curve.res_Q[i]
                * abs(ba_rational_eval(sphere_curve, x, y, 2, sphere_curve.Q[i])) ** 2
                for i in range(2))
        assert abs(s - (5 + 3 * math.sin(2 * (x - y))) / 8) < 1e-13
