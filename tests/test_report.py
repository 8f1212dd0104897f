import cmath
import csv
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsurf import report, surface_families, sweep
from mlsurf.diffgeo import (angle_defect, beta_gradient_fd,
                            christoffel_b_defects, christoffel_solve, frame_and_connection,
                            frame_defects, gauss_curvature, gauss_curvature_masked,
                            gradient_identity_defects, gram_defects, lagrangian_angle,
                            metric_from_jet, metric_gradients_from_jet, minimality_defects,
                            residue_identity_defects)
from mlsurf.report import (CSV_HEADER, GridSpec, sample_rows, verify, verify_cone,
                           verify_spectral, write_csv)
from mlsurf.spectral_curve import derive_constants
from mlsurf.surface_families import (TUBE_RADIUS, Family, cone_family, cone_family_jet,
                                     cone_jet_field, cone_metric_field, in_degeneracy_tube,
                                     spectral_family)

_GRAM = ("gram_norm", "gram_phi_phix", "gram_phi_phiy", "gram_phix_phiy")
_CHRISTOFFEL = ("christoffel_b11", "christoffel_b12", "christoffel_b22",
                "gradient_identity_x", "gradient_identity_y", "minimality_im_x", "minimality_im_y")
_FRAME = tuple("frame_" + n for n in ("unitarity", "det_unit", "A_antiherm", "B_antiherm",
                                      "A_trace", "B_trace", "A_pattern", "B_pattern",
                                      "f_real", "h_real"))


def _oracle_maxima(family, grid, h=1e-4):
    """Every per-point check of the report, from the scalar diffgeo functions
    alone, point by point: (name -> NaN-sticky max, name -> excluded points)."""
    curve = family.curve
    worst, excluded = {}, {}

    def see(names, compute):
        try:
            values = compute()
        except ValueError:
            values = [math.inf] * len(names)
        for name, value in zip(names, values):
            old = worst.get(name)
            if old is None or value > old or math.isnan(value):
                worst[name] = float(value)

    def in_tube(x, y):
        return curve is not None and in_degeneracy_tube(curve, x, y, TUBE_RADIUS)

    points = list(zip(*(c.tolist() for c in grid.points(np.arange(grid.nx * grid.ny)))))
    beta_ref = lagrangian_angle(family.jet(*next(p for p in points if not in_tube(*p))))
    angle_names = ["beta_constant", *_CHRISTOFFEL, *_FRAME]
    if curve is not None:
        angle_names += ["beta_e2i_plus_one", "curvature_K_minus_1"]
    for x, y in points:
        jet = family.jet(x, y)
        # the Gram values as metric_from_jet forms them, which raises where one is 0
        E = float(np.sum(np.abs(jet.phi_x) ** 2))
        G = float(np.sum(np.abs(jet.phi_y) ** 2))
        see(_GRAM, lambda: gram_defects(jet))
        see(["metric_E_closed_form", "metric_G_closed_form"],
            lambda: [abs(E - family.metric.E(x, y)), abs(G - family.metric.G(x, y))])
        if curve is not None:
            see([f"residue_identity_{k}" for k in range(1, 7)],
                lambda: residue_identity_defects(curve, jet))
        if in_tube(x, y):
            see(["tube_G_bound"], lambda: [G])
            for name in angle_names:
                excluded[name] = excluded.get(name, 0) + 1
            continue
        try:
            beta = lagrangian_angle(jet)
        except ValueError:
            see(angle_names, lambda: [math.inf] * len(angle_names))
            continue
        see(["beta_constant"], lambda: [angle_defect(beta, beta_ref, family.beta_period)])
        if curve is None:
            if E != 0.0 and G != 0.0:  # the sweep skips such a point
                md = metric_from_jet(jet)
                see(["metric_anisotropy"], lambda: [abs(md.v1 - md.v2)])
        else:
            see(["beta_e2i_plus_one"], lambda: [abs(cmath.exp(2j * beta) + 1.0)])
            see(["curvature_K_minus_1"], lambda: [abs(gauss_curvature(family.metric, x, y, h) - 1.0)])

        def christoffel():  # fails where E or G is 0: metric_from_jet raises
            ch = christoffel_solve(jet)
            md = metric_from_jet(jet)
            return [*christoffel_b_defects(ch, md.E, md.G),
                    *gradient_identity_defects(ch, metric_gradients_from_jet(jet, md.E, md.G),
                                               beta_gradient_fd(family.jet, x, y, h)),
                    *minimality_defects(ch)]

        see(_CHRISTOFFEL, christoffel)
        see(_FRAME, lambda: frame_defects(frame_and_connection(family.jet, x, y, h)).values())
    return worst, excluded


def _assert_report_matches_oracle(family, grid, h=1e-4):
    expected, excluded = _oracle_maxima(family, grid, h)
    report = verify(family, grid, h)
    got = {c.name: c for c in report.checks if not c.name.startswith("curve_")}
    assert list(got) == [n for n in got if n in expected] and set(got) == set(expected)
    for name, value in expected.items():
        v = got[name].value
        assert v == value or (math.isnan(v) and math.isnan(value)), (name, v, value)
        assert got[name].excluded_points == excluded.get(name, 0), name
    return report


TUBE_POINTS = spectral_family(derive_constants(1.3, 0.7, 2.1, -0.9))


@pytest.mark.parametrize("family", [
    spectral_family(derive_constants(1.0, 1.0, 2.0, 1.0)),
    cone_family(1, 2),
    TUBE_POINTS,
    cone_family(3, 4),
], ids=["worked-example", "cone-1-2", "tube-points", "cone-3-4"])
def test_report_matches_scalar_oracles(family):
    # the sweep runs every check on stacked arrays; its maxima and exclusion
    # counts must equal the scalar oracles evaluated point by point
    report = _assert_report_matches_oracle(family, GridSpec(16, 16))
    if family is TUBE_POINTS:
        assert report.checks[-6].name == "tube_G_bound"
        assert report.checks[0].excluded_points == 0 < report.checks[-7].excluded_points


_HEAD = ("gram_norm gram_phi_phix gram_phi_phiy gram_phix_phiy "
         "metric_E_closed_form metric_G_closed_form", 1e-10, "upper")
_ANGLE = [("beta_constant christoffel_b11 christoffel_b12 christoffel_b22 gradient_identity_x "
           "gradient_identity_y minimality_im_x minimality_im_y", 1e-8, "upper"),
          ("frame_unitarity frame_det_unit frame_A_antiherm frame_B_antiherm frame_A_trace "
           "frame_B_trace frame_A_pattern frame_B_pattern frame_f_real frame_h_real", 1e-6, "upper")]
_RESIDUES = [(" ".join(f"residue_identity_{k}" for k in range(1, 7)), 1e-9, "upper"),
             ("beta_e2i_plus_one", 1e-10, "upper")]
_CURVE = [("curve_regularity", 1e-13, "upper"), ("curve_w2_P1_rel curve_w2_P2_rel", 1e-12, "upper"),
          ("curve_Q_sum", 1e-13, "upper"), ("curve_residues_positive", 0.0, "lower")]


@pytest.mark.parametrize("family", [
    spectral_family(derive_constants(1.0, 1.0, 2.0, 1.0)),
    cone_family(1, 2),
], ids=["worked-example", "cone-1-2"])
def test_curvature_reads_the_closed_form_G_x(family):
    # K = -(d/dx (G_x / sqrt(EG))) / (2 sqrt(EG)), the outer derivative a central
    # difference of the registered closed-form G_x, built here bit for bit
    h = 1e-4
    x, y = np.random.default_rng(27).uniform(0.0, 2.0 * math.pi, (2, 64))
    if family.curve is not None:
        keep = [not in_degeneracy_tube(family.curve, *p) for p in zip(x.tolist(), y.tolist())]
        x, y = x[keep], y[keep]
    assert len(x) >= 20
    metric = family.metric

    def p_term(xx):
        return metric.G_x(xx, y) / np.sqrt(metric.E(xx, y) * metric.G(xx, y))

    want = -((p_term(x + h) - p_term(x - h)) / (2.0 * h)) / (
        2.0 * np.sqrt(metric.E(x, y) * metric.G(x, y)))
    K, ok = gauss_curvature_masked(metric, x, y, h)
    assert ok.all() and K.tobytes() == want.tobytes()


def test_the_family_shorthands_give_the_records_of_verify():
    grid = GridSpec(8, 8)
    curve = derive_constants(1.3, 0.7, 2.1, -0.9)
    for short, full in ((verify_cone(3, 2, grid), verify(cone_family(3, 2), grid)),
                        (verify_spectral(curve, grid), verify(spectral_family(curve), grid))):
        assert (short.family, short.parameters) == (full.family, full.parameters)
        assert [c.to_dict() for c in short.checks] == [c.to_dict() for c in full.checks]


@pytest.mark.parametrize("family, groups", [
    (TUBE_POINTS, [_HEAD, *_RESIDUES, *_ANGLE, ("curvature_K_minus_1", 1e-4, "upper"),
                   ("tube_G_bound", 1e-3, "upper"), *_CURVE]),
    (cone_family(1, 2), [_HEAD, *_ANGLE, ("metric_anisotropy", 0.1, "lower")]),
], ids=["tube-points-strict", "cone-1-2"])
def test_report_check_order(family, groups):
    # the text and JSON reports list the checks in this order, each with its
    # tolerance and kind
    report = verify(family, GridSpec(16, 16), 1e-4)
    assert [(c.name, c.tolerance, c.kind) for c in report.checks] == [
        (name, tol, kind) for names, tol, kind in groups for name in names.split()]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("kind, tolerance", [("upper", 1e-10), ("lower", 0.1)])
def test_a_non_finite_value_never_passes(value, kind, tolerance):
    # a check passes only on a finite value within tolerance: inf > 0.1 and -inf <= 1e-10
    # would pass on the comparison alone
    record = report.CheckRecord("x", value, tolerance, kind)
    assert not record.passed and not record.to_dict()["passed"]


def _sweep_names(family_name, tube_points):
    """The table's per-point check names of a family, with tube_G_bound iff there are tube points."""
    return {name for names, _, _, read, families in report.CHECKS
            if family_name in families and read != "curve" and (read != "tube" or tube_points)
            for name in names}


@pytest.mark.parametrize("family, grid, has_tube_points", [
    (spectral_family(derive_constants(1.0, 1.0, 2.0, 1.0)), GridSpec(16, 16), True),
    (spectral_family(derive_constants(1.0, 1.0, 2.0, 1.0)), GridSpec(7, 7), False),
    (TUBE_POINTS, GridSpec(16, 16), True),
    (cone_family(1, 2), GridSpec(16, 16), False),
    (cone_family(3, 2), GridSpec(16, 16), False),
], ids=["worked-example", "worked-example-7x7", "tube-points", "cone-1-2", "cone-3-2"])
def test_the_catalogue_and_the_sweep_name_the_same_checks(family, grid, has_tube_points):
    maxima, tube_points, _ = sweep.check_maxima(family, grid, 1e-4)
    assert set(maxima) == _sweep_names(family.name, tube_points)
    assert ("tube_G_bound" in maxima) == (tube_points > 0) == has_tube_points


@pytest.mark.parametrize("edit", [
    lambda maxima: maxima.update(new_check=0.0),
    lambda maxima: maxima.pop("frame_B_trace"),
], ids=["folded-not-in-table", "row-not-folded"])
@pytest.mark.parametrize("family", [TUBE_POINTS, cone_family(1, 2)], ids=["tube-points", "cone-1-2"])
def test_verify_refuses_a_fold_that_differs_from_the_catalogue(edit, family, monkeypatch):
    def check_maxima(*args):
        maxima, tube_points, timings = sweep.check_maxima(*args)
        edit(maxima)
        return maxima, tube_points, timings

    monkeypatch.setattr(report, "check_maxima", check_maxima)
    with pytest.raises(ValueError, match="frame_B_trace|new_check"):
        verify(family, GridSpec(8, 8))


@pytest.mark.parametrize("chunk", [1, 7, 256, sweep.CHUNK])
def test_chunk_size_does_not_change_the_output(chunk, monkeypatch):
    def outputs():
        grid = GridSpec(16, 16)
        return ([c.to_dict() for c in verify(TUBE_POINTS, grid).checks],
                [c.to_dict() for c in verify(cone_family(1, 2), grid).checks],
                "".join(map("".join, sample_rows(TUBE_POINTS, grid, 1e-4))),
                "".join(map("".join, sample_rows(cone_family(2, 1), GridSpec(5, 3), 1e-4))))

    expected = outputs()
    monkeypatch.setattr(sweep, "CHUNK", chunk)
    assert outputs() == expected


def test_a_partial_block_at_the_shipped_chunk_changes_nothing(monkeypatch):
    # one full block of sweep.CHUNK points and one partial block; at CHUNK 256
    # the same grid is cut elsewhere, and sample's pieces are at most one grid row
    side = math.isqrt(3 * sweep.CHUNK // 2) + 1
    grid = GridSpec(side, side)
    assert sweep.CHUNK < side * side < 2 * sweep.CHUNK

    def outputs():
        pieces = [list(sample_rows(f, grid, 1e-4)) for f in (TUBE_POINTS, cone_family(3, 2))]
        assert all(0 < len(p) <= side for ps in pieces for p in ps)
        return ([c.to_dict() for c in verify(TUBE_POINTS, grid).checks],
                [c.to_dict() for c in verify(cone_family(3, 2), grid).checks],
                ["".join(map("".join, ps)) for ps in pieces])

    shipped = outputs()
    monkeypatch.setattr(sweep, "CHUNK", 256)
    assert outputs() == shipped


@pytest.mark.parametrize("family", [TUBE_POINTS, cone_family(3, 2)], ids=["tube-points", "cone-3-2"])
def test_verify_calls_the_scalar_jet_at_four_stencil_points_outside_the_tube(family, monkeypatch):
    # the benchmark counts scalar jets by rebinding these module globals, as
    # here: Family.jet must look them up at call time, and only the stencil
    # calls them, once per stencil point of each point outside the tube
    calls = {"spectral_family_jet": [], "cone_family_jet": []}
    for name, seen in calls.items():
        def counted(*args, _jet=getattr(surface_families, name), _seen=seen):
            _seen.append(args[-2:])
            return _jet(*args)
        monkeypatch.setattr(surface_families, name, counted)
    grid, h = GridSpec(16, 16), 1e-4
    checks = verify(family, grid, h).checks
    xs, ys = (c.tolist() for c in grid.points(np.arange(grid.nx * grid.ny)))
    outside = [(x, y) for x, y in zip(xs, ys)
               if family.curve is None or not in_degeneracy_tube(family.curve, x, y)]
    tube_points = grid.nx * grid.ny - len(outside)
    assert [c.excluded_points for c in checks if c.name == "beta_constant"] == [tube_points]
    assert (tube_points > 0) == (family.curve is not None)
    stencil = [p for x, y in outside for p in ((x + h, y), (x - h, y), (x, y + h), (x, y - h))]
    name = "cone_family_jet" if family.curve is None else "spectral_family_jet"
    assert len(calls[name]) == 4 * len(outside)
    assert sorted(calls[name]) == sorted(stencil)
    assert all(not seen for other, seen in calls.items() if other != name)


@pytest.mark.parametrize("nx, ny", [(1, 1), (33, 17), (100, 37), (1, 4096), (4096, 1)])
def test_grid_points_are_the_axes_entries_bit_for_bit(nx, ny):
    # against the Python floats 2 pi k / n, a formula written apart from GridSpec.points
    x, y = GridSpec(nx, ny).points(np.arange(nx * ny))
    assert x.tobytes() == np.array([2.0 * math.pi * (k % nx) / nx for k in range(nx * ny)]).tobytes()
    assert y.tobytes() == np.array([2.0 * math.pi * (k // nx) / ny for k in range(nx * ny)]).tobytes()


@pytest.mark.parametrize("nx", [10**11, 2**63 - 1])
def test_a_huge_grid_streams_its_first_piece_without_an_axis(nx):
    # an axis of 10^11 doubles is 745 GiB, and np.arange(2^63 - 1) is empty
    tracemalloc.start()
    try:
        piece = next(sample_rows(cone_family(1, 2), GridSpec(nx, 1), 1e-4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(piece) == sweep.CHUNK and peak < 8 * 2**20
    cells = [line.split(",") for line in piece]
    assert [float(c[0]) for c in cells] == [2.0 * math.pi * k / nx for k in range(sweep.CHUNK)]
    assert {c[1] for c in cells} == {"0"}
    # the last block's indices are still exact int64
    last = range(nx - 1 - sweep.CHUNK, nx)
    x, y = GridSpec(nx, 1).points(np.arange(last.start, last.stop))
    assert x.tolist() == [2.0 * math.pi * k / nx for k in last] and not y.any()


@pytest.mark.parametrize("family", [
    cone_family(1, 2), spectral_family(derive_constants(1.0, 1.0, 2.0, 1.0))],
    ids=["cone-1-2", "worked-example"])
def test_sample_rows_frees_a_blocks_text_before_sweeping_the_next(family, monkeypatch):
    # what sample_rows and sample_blocks still hold when the next block is asked for: no
    # block's arrays (about 125 KiB of a 1024-point block), text table or cell indices
    # (about 400 KiB more)
    list(sample_rows(family, GridSpec(4, 4), 1e-4))   # _g17's tables are built once
    held, blocks = [], report.sample_blocks

    def spy(*args):
        for block in blocks(*args):
            yield block
            del block
            held.append(tracemalloc.get_traced_memory()[0] - start)
    monkeypatch.setattr(report, "sample_blocks", spy)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for _ in sample_rows(family, GridSpec(64, 48), 1e-4):
            pass
    finally:
        tracemalloc.stop()
    assert len(held) == 3 and max(held) < 32 * 1024, held


def test_a_block_inside_the_tube_skips_the_angle_stage(monkeypatch):
    # a degeneracy line passes 0.005 from the origin: at CHUNK 1 the first
    # block is all tube and the second fixes the reference angle
    family = spectral_family(derive_constants(1.0, 0.5, 1.0, -100.0))
    grid = GridSpec(4, 4)
    assert in_degeneracy_tube(family.curve, 0.0, 0.0)
    shipped = [c.to_dict() for c in verify(family, grid).checks]
    monkeypatch.setattr(sweep, "CHUNK", 1)
    assert [c.to_dict() for c in _assert_report_matches_oracle(family, grid).checks] == shipped


def _csv_oracle(family, grid, h):
    return _csv_text(sweep.sample_blocks(family, grid, h))


def _csv_text(blocks):
    # csv.writer over one f"{v:.17g}" call per field
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    for block in blocks:
        for x, y, phi, E, G, beta, has_beta, K, has_K in zip(*(v.tolist() for v in block)):
            fields = [x, y, *(p for c in phi for p in (c.real, c.imag)), E, G]
            writer.writerow([f"{v:.17g}" for v in fields]
                            + [f"{beta:.17g}" if has_beta else "", f"{K:.17g}" if has_K else ""])
    return buf.getvalue().encode()


@pytest.mark.parametrize("family, grid", [
    (TUBE_POINTS, GridSpec(16, 16)),
    (cone_family(2, 1), GridSpec(5, 3)),
    (spectral_family(derive_constants(1.0, 1.0, 2.0, 1.0)), GridSpec(1, 1)),
], ids=["tube-points", "cone-2-1", "one-point"])
def test_csv_matches_the_csv_writer_oracle(family, grid, tmp_path):
    path = tmp_path / "s.csv"
    write_csv(path, sample_rows(family, grid, 1e-4))
    expected = _csv_oracle(family, grid, 1e-4)
    assert path.read_bytes() == expected
    if family is TUBE_POINTS:   # rows inside the tube end in empty beta and K cells
        assert b",,\r\n" in expected


def _edge_block(values, has_beta, has_K):
    # a sample_blocks tuple from rows of 12 CSV values
    v = np.array(values, dtype=float)
    phi = np.empty((len(v), 3), dtype=complex)   # set part by part: a + 1j * b loses -0.0
    phi.real, phi.imag = v[:, 2:8:2], v[:, 3:8:2]
    return (v[:, 0], v[:, 1], phi, v[:, 8], v[:, 9], v[:, 10], np.array(has_beta),
            v[:, 11], np.array(has_K))


def test_every_field_of_a_block_keeps_its_own_text(monkeypatch, tmp_path):
    # sample_rows formats each distinct bit pattern of a block once: -0.0 is
    # not 0.0, a NaN keeps its own text, and an excluded beta or K cell is
    # empty even where its value is repeated in a cell that is written
    nan, inf, tiny = math.nan, math.inf, 5e-324
    neg_nan = -np.float64(nan)
    payload_nan = np.array([0x7FF8_0000_0000_0001], dtype=np.uint64).view(float)[0]
    assert np.signbit(neg_nan) and np.isnan(payload_nan)
    blocks = [
        _edge_block([[0.0, -0.0, 0.1, -0.0, 0.0, 0.1, nan, neg_nan, 0.1, 0.1, 0.1, 0.1],
                     [-0.0, 0.0, inf, -inf, tiny, -tiny, 0.1, 0.1, -0.0, 0.0, 0.1, 0.1],
                     [0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]],
                    [False, True, True], [True, False, False]),
        _edge_block([[neg_nan, nan, 0.0, 0.0, -0.0, -0.0, 0.1, inf, tiny, 0.1, -0.0, nan],
                     [0.1, tiny, -tiny, -0.0, 0.0, neg_nan, nan, -inf, 0.1, payload_nan, neg_nan,
                      0.0]],
                    [True, False], [False, True]),
    ]
    monkeypatch.setattr(report, "sample_blocks", lambda *args: iter(blocks))
    grid = GridSpec(2, 3)
    pieces = list(sample_rows(cone_family(1, 2), grid, 1e-4))
    assert [len(p) for p in pieces] == [2, 1, 2]   # at most isqrt(2 * 3) lines each
    path = tmp_path / "s.csv"
    write_csv(path, pieces)
    expected = _csv_text(blocks)
    assert path.read_bytes() == expected
    tenth = "0.10000000000000001"
    assert expected.decode().split("\r\n")[1] == (
        f"0,-0,{tenth},-0,0,{tenth},nan,nan,{tenth},{tenth},,{tenth}")


def _assert_g17(values):
    values = np.asarray(values, dtype=float)
    assert report._g17(values) == ["%.17g" % v for v in values.tolist()]


def _from_bits(*bits):
    return np.array(bits, dtype=np.uint64).view(float)


_POWERS = np.array([float(f"1e{k}") for k in range(-323, 309)])


@pytest.mark.parametrize("values", [
    # zeros, NaNs (-NaN and a payload NaN print "nan"), infinities, the smallest and
    # largest subnormals, DBL_MAX
    [0.0, -0.0, -np.float64(math.nan), *_from_bits(0x7FF8_0000_0000_0001), math.inf,
     -math.inf, *_from_bits(1, 0x000F_FFFF_FFFF_FFFF, 0x800F_FFFF_FFFF_FFFF), 5e-324,
     -5e-324, 1.7976931348623157e308, -1.7976931348623157e308],
    # every power of ten the doubles hold and both of its neighbours
    np.concatenate([_POWERS, np.nextafter(_POWERS, 0), np.nextafter(_POWERS, math.inf),
                    -_POWERS]),
    # 2^53 and its ulps; 99999999999999999.0 rounds to 1e+17
    [2.0**53 - 1, 2.0**53, 2.0**53 + 2, -(2.0**53 + 2), 99999999999999999.0, 1e17 - 16],
    # the fixed/exponent switches at X = -5 | -4 and 16 | 17, and both ends of the
    # fast range 1e-280 <= |v| <= 1e280
    [9.99999999999999e-6, np.nextafter(1e-4, 0), 1e-4, 0.00012345, -0.00099999999999999,
     np.nextafter(1e17, 0), 12345678901234567.0, np.nextafter(1e-280, 0), 1e-280,
     np.nextafter(1e-280, 1), np.nextafter(1e280, 0), 1e280, np.nextafter(1e280, math.inf),
     -1e280, 1e-300, 1e300, 1.25e-5, 3.0000000000000004e16],
    # exact ties at 17 digits: (2j + 1) 2^-17 in [1, 2), printed by the fallback
    1.0 + (2 * np.arange(2**16) + 1) * 2.0**-17,
], ids=["specials", "powers-of-ten", "2^53", "switches", "ties"])
def test_g17_prints_the_text_of_percent_17g(values):
    _assert_g17(values)


def test_an_exact_tie_takes_the_fallback():
    # 1 + 2^-17 = 1.00000762939453125: half-even to 17 digits ends in 2, not 3
    assert report._g17(np.array([1.0 + 2.0**-17])) == ["1.0000076293945312"]
    _assert_g17([1.0 + 3 * 2.0**-17, 2.5, 0.5, 1.5e-300, 2.0**-1074 * 3])


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5000),
       st.lists(st.floats(), max_size=50))
@settings(max_examples=60, deadline=None)
def test_g17_matches_percent_17g_on_any_bit_pattern(patterns, floats):
    _assert_g17(np.concatenate([_from_bits(*patterns), floats]))


_SIGN = st.sampled_from([-1.0, 1.0])


@given(a=st.floats(0.5, 2.0), b=st.floats(0.5, 2.0), q_gap=st.floats(0.3, 2.0),
       gamma=st.floats(0.3, 2.0), q_sign=_SIGN, gamma_sign=_SIGN)
@settings(max_examples=12, deadline=None)
def test_valid_spectral_parameters_pass(a, b, q_gap, gamma, q_sign, gamma_sign):
    curve = derive_constants(a, b, q_sign * (b + q_gap), gamma_sign * gamma)
    report = _assert_report_matches_oracle(spectral_family(curve), GridSpec(8, 8))
    failed = {c.name: c.value for c in report.checks if not c.passed}
    # the known spectral-tube-G defect: a fixed 1e-3 bound on G in the tube
    assert set(failed) <= {"tube_G_bound"} and all(v < 2e-3 for v in failed.values())


@given(m=st.integers(1, 6), n=st.integers(1, 6))
@settings(max_examples=12, deadline=None)
def test_cone_orders_match_the_oracle(m, n):
    report = _assert_report_matches_oracle(cone_family(m, n), GridSpec(8, 8))
    # m + n >= 4 fails frame_B_trace at the default h (the known cone-frame-fd defect)
    assert report.overall or m + n >= 4


_GRID4 = GridSpec(4, 4)
_X, _Y = (float(c[9]) for c in _GRID4.points(np.arange(16)))   # point 9: x index 1, y index 2


_JET_FIELDS = ("phi", "phi_x", "phi_y", "phi_xx", "phi_xy", "phi_yy")


def _jet_scaled_at(family, point, **scale):
    # the point jet and the batched field, each scaled at the point alone
    def jet(x, y):
        j = family.jet(x, y)
        if (x, y) == point:
            j = j._replace(**{f: getattr(j, f) * s for f, s in scale.items()})
        return j

    def jets(xs, ys):
        J = family.jets(xs, ys)
        at = (xs == point[0]) & (ys == point[1])
        for f, s in scale.items():
            J[_JET_FIELDS.index(f), at] *= s
        return J
    return family._replace(jet=jet, jets=jets)


def _metric_negative_at(family, point):
    G = family.metric.G
    metric = family.metric._replace(
        G=lambda x, y: np.where((x == point[0]) & (y == point[1]), -1.0, G(x, y)))
    return family._replace(metric=metric)


# the scalar oracles run outside np.errstate and warn where a jet is not finite
_ORACLE_WARNS = pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")


@pytest.mark.parametrize("family, failed, nan, kept", [
    # |det| = 2 at a grid point: every angle check fails there
    (_jet_scaled_at(cone_family(1, 2), (_X, _Y), phi=2.0),
     "beta_constant christoffel_b11 frame_unitarity", "", "metric_E_closed_form"),
    # |det| = 2 at a stencil point: its angle is rejected
    (_jet_scaled_at(cone_family(1, 2), (_X + 1e-4, _Y), phi=2.0),
     "christoffel_b11 frame_unitarity", "", "beta_constant"),
    # |phi_x| < 1e-8 at a stencil point; its angle stands
    (_jet_scaled_at(cone_family(1, 2), (_X, _Y - 1e-4), phi_x=1e-9),
     "frame_unitarity frame_B_trace", "", "christoffel_b11 gradient_identity_y"),
    # cond(phi_x, phi_y, phi) ~ 1e9 at a grid point; its angle stands
    (_jet_scaled_at(cone_family(1, 2), (_X, _Y), phi_y=1e-9),
     "christoffel_b11 minimality_im_y", "", "beta_constant frame_unitarity"),
    # G < 0 at a curvature stencil point
    (_metric_negative_at(spectral_family(derive_constants(1.0, 1.0, 2.0, 1.0)), (_X + 1e-4, _Y)),
     "curvature_K_minus_1", "", "frame_unitarity metric_G_closed_form"),
    # |det| = 2 at a spectral grid point: K = 1 is an angle check too
    (_jet_scaled_at(spectral_family(derive_constants(1.0, 1.0, 2.0, 1.0)), (_X, _Y), phi=2.0),
     "beta_constant beta_e2i_plus_one curvature_K_minus_1 frame_unitarity", "",
     "metric_G_closed_form"),
    # |det| = 2 and a large |phi_x| at a grid point: no anisotropy is read there
    (_jet_scaled_at(cone_family(1, 2), (_X, _Y), phi=2.0, phi_x=1e3),
     "beta_constant christoffel_b11 frame_unitarity", "", "metric_G_closed_form"),
    # phi = 0 at a grid point: det 0 rejects the angle, the basis and the frame are singular
    (_jet_scaled_at(cone_family(1, 2), (_X, _Y), phi=0.0),
     "beta_constant christoffel_b11 frame_unitarity", "",
     "metric_E_closed_form metric_G_closed_form"),
    # phi_y = 0 at a grid point: G = 0 rejects the angle; no anisotropy is read there
    (_jet_scaled_at(cone_family(1, 2), (_X, _Y), phi_y=0.0),
     "beta_constant christoffel_b11 frame_unitarity", "", "metric_E_closed_form gram_norm"),
    # phi = inf at a grid point: the cofactor det is NaN + inf j, whose infinite modulus
    # the angle gate rejects, so every angle check fails there
    pytest.param(_jet_scaled_at(cone_family(1, 2), (_X, _Y), phi=math.inf),
                 "christoffel_b11 gradient_identity_x beta_constant frame_unitarity frame_A_trace",
                 "", "metric_E_closed_form gram_phix_phiy", marks=_ORACLE_WARNS),
    # phi = NaN at a grid point: the det is NaN, which passes the angle gate, so the frame
    # values are NaN; the non-finite basis fails the Christoffel checks
    pytest.param(_jet_scaled_at(cone_family(1, 2), (_X, _Y), phi=math.nan),
                 "christoffel_b11 gradient_identity_x",
                 "beta_constant frame_unitarity frame_A_trace",
                 "metric_E_closed_form gram_phix_phiy", marks=_ORACLE_WARNS),
    # |phi_x| = inf at a stencil point: its angle stands and its frame and gradient are NaN
    pytest.param(_jet_scaled_at(cone_family(1, 2), (_X + 1e-4, _Y), phi_x=math.inf),
                 "", "gradient_identity_x frame_A_trace frame_A_pattern",
                 "christoffel_b11 frame_unitarity gradient_identity_y", marks=_ORACLE_WARNS),
], ids=["centre-angle", "neighbour-angle", "neighbour-degenerate", "ill-conditioned",
        "metric-not-positive", "centre-angle-spectral", "centre-angle-anisotropy",
        "singular-basis", "vanishing-derivative", "centre-inf", "centre-nan",
        "neighbour-inf"])
def test_failed_points_match_the_oracle(family, failed, nan, kept, capfd):
    report = _assert_report_matches_oracle(family, _GRID4)
    values = {c.name: c.value for c in report.checks}
    assert all(values[name] == math.inf for name in failed.split())
    assert all(math.isnan(values[name]) for name in nan.split())
    assert all(values[name] < 1e-6 for name in kept.split())
    assert capfd.readouterr() == ("", "")   # neither the sweep nor an oracle lets LAPACK write


@pytest.mark.parametrize("scale", [0.0, math.nan], ids=["singular-basis", "nan-basis"])
def test_verify_hands_lapack_only_stacked_matrices(scale, monkeypatch):
    # at most one cond per block, on an (n, 3, 3) stack: the sweep decides by mask which
    # matrices LAPACK sees and never retries a block matrix by matrix; the frame's det and
    # inverse and the Christoffel solve are diffgeo's closed-form kernels, so LAPACK's det,
    # inv and solve are never called
    shapes = {"det": [], "inv": [], "solve": [], "cond": []}

    def spy(name):
        f = getattr(np.linalg, name)

        def call(a, *args, **kwargs):
            shapes[name].append(np.shape(a))
            return f(a, *args, **kwargs)
        return call
    for name in shapes:
        monkeypatch.setattr(np.linalg, name, spy(name))
    monkeypatch.setattr(sweep, "CHUNK", 4)   # four blocks of the 4x4 grid
    verify(_jet_scaled_at(cone_family(1, 2), (_X, _Y), phi=scale), _GRID4)
    assert all(len(s) == 3 and s[1:] == (3, 3) for s in shapes["cond"])
    assert shapes["det"] == shapes["inv"] == shapes["solve"] == [] and len(shapes["cond"]) <= 4


def test_a_nan_frame_whose_lu_meets_a_zero_pivot_fails_without_raising():
    # phi = (0, NaN, 0) at a grid point: the det is NaN, so the centre angle stands, and the
    # NaN twist leaves the frame's first column (0, NaN, NaN), where LAPACK's LU would meet
    # a zero pivot; the closed-form inverse of such a frame is NaN and never raises
    cone = cone_family(1, 2)

    def jets(xs, ys):
        J = cone.jets(xs, ys)
        J[0, (xs == _X) & (ys == _Y)] = [0.0, math.nan, 0.0]
        return J
    checks = {c.name: c for c in verify(cone._replace(jets=jets), _GRID4).checks}
    assert all(math.isnan(checks[name].value) for name in _FRAME)
    assert not any(checks[name].passed for name in _FRAME)


def test_angles_on_the_seam_are_unwrapped_to_the_centre():
    # every jet row times e^{i alpha} is the same surface in CP^2 and turns the angle by
    # 3 alpha: the cone's beta_0 = pi/2 moves onto the seam +-pi, so a point and its
    # stencil neighbours read angles on both sides of it.  The frame twist and the
    # beta-gradient must unwrap them to the centre's angle, as the scalar oracles do
    cone = cone_family(1, 2)
    turn = cmath.exp(1j * (math.pi - math.pi / 2) / 3)

    def jet(x, y):
        j = cone.jet(x, y)
        return j._replace(**{f: getattr(j, f) * turn for f in _JET_FIELDS})

    # rows times turn in the scalar jet's order: numpy's complex product is not
    # commutative bit for bit
    family = cone._replace(jet=jet, jets=lambda xs, ys: cone.jets(xs, ys) * turn)
    points = np.random.default_rng(26).uniform(0.0, 2.0 * math.pi, (200, 2))
    betas = [lagrangian_angle(family.jet(x, y)) for x, y in points.tolist()]
    assert min(betas) < -3.14 and max(betas) > 3.14
    assert _assert_report_matches_oracle(family, GridSpec(16, 16)).overall


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("where", ["first", "last"])
def test_nan_jet_fails_verify(where):
    # one grid point yields a NaN jet, visited before or after every finite one
    grid = GridSpec(4, 4)
    k = 0 if where == "first" else -1
    bad = tuple(float(c[k]) for c in grid.points(np.arange(16)))

    def jet(x, y):
        j = cone_family_jet(1, 2, x, y)
        if (x, y) == bad:
            j = type(j)(x, y, j.phi * math.nan, j.phi_x, j.phi_y,
                        j.phi_xx, j.phi_xy, j.phi_yy)
        return j

    def jets(xs, ys):
        J = cone_jet_field(1, 2, xs, ys)
        J[0, (xs == bad[0]) & (ys == bad[1])] *= math.nan
        return J

    family = Family("cone", {"m": 1, "n": 2}, jet, jets, cone_metric_field(1, 2), 2.0 * math.pi)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the sweep masks what NaN touches
        report = verify(family, grid)
    checks = {c.name: c for c in report.checks}
    assert math.isnan(checks["gram_norm"].value)
    assert not checks["gram_norm"].passed
    assert not report.overall
    _assert_report_matches_oracle(family, grid)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("row, dx, dy, check, other", [
    ("phi_y", 1, 0, "frame_A_pattern", "frame_B_pattern"),
    ("phi_x", 0, 1, "frame_B_pattern", "frame_A_pattern"),
], ids=["phi_y-at-x+h", "phi_x-at-y+h"])
def test_a_nan_in_one_stencil_jet_fails_its_pattern_check(row, dx, dy, check, other):
    # the NaN passes the angle and stencil-norm gates and twists the neighbour's frame
    # rows 1 and 2 to NaN, so the lower pattern entry of A (or B), the second argument of
    # the pattern's max, is NaN: Python's max(x, nan) is x and would PASS the point
    family, grid, h = spectral_family(derive_constants(1.0, 1.0, 2.0, 1.0)), GridSpec(16, 16), 1e-4
    points = list(zip(*(c.tolist() for c in grid.points(np.arange(256)))))
    x0, y0 = next(p for p in points[100:] if not in_degeneracy_tube(family.curve, *p))
    bad = (x0 + h if dx else x0, y0 + h if dy else y0)

    def jet(x, y):
        j = family.jet(x, y)
        if (x, y) == bad:
            j = j._replace(**{row: getattr(j, row).copy()})
            getattr(j, row)[0] = math.nan
        return j

    def jets(xs, ys):   # the same NaN, wherever the stencil jets come from
        J = family.jets(xs, ys)
        J[{"phi_x": 1, "phi_y": 2}[row], (xs == bad[0]) & (ys == bad[1]), 0] = math.nan
        return J

    checks = {c.name: c for c in
              _assert_report_matches_oracle(family._replace(jet=jet, jets=jets), grid, h).checks}
    assert math.isnan(checks[check].value) and not checks[check].passed
    assert checks[other].passed   # the other derivative's stencil is finite


@pytest.mark.parametrize("where, row, scale, reason", [
    ("centre", "phi", 2.0, "rejected at the stencil centre"),
    ("x+h", "phi_x", 1e-9, "stencil crosses a degenerate point"),
    ("y-h", "phi", 2.0, "rejected at a stencil neighbour"),
], ids=["centre-angle", "neighbour-norm", "neighbour-angle"])
def test_each_frame_refusal_of_the_oracle_is_an_inf_of_the_sweep(where, row, scale, reason):
    # one jet of the stencil around a grid point is scaled: phi doubled moves |det| off the
    # unit circle, phi_x * 1e-9 keeps the angle but falls below MIN_STENCIL_NORM; the
    # oracle refuses for that reason and the sweep reads inf on every frame check
    cone, grid, h = cone_family(1, 2), GridSpec(4, 4), 1e-4
    x0, y0 = (float(c[5]) for c in grid.points(np.arange(16)))
    bad = {"centre": (x0, y0), "x+h": (x0 + h, y0), "y-h": (x0, y0 - h)}[where]

    def jet(x, y):
        j = cone.jet(x, y)
        return j._replace(**{row: scale * getattr(j, row)}) if (x, y) == bad else j

    def jets(xs, ys):
        J = cone.jets(xs, ys)
        J[{"phi": 0, "phi_x": 1}[row], (xs == bad[0]) & (ys == bad[1])] *= scale
        return J

    family = cone._replace(jet=jet, jets=jets)
    with pytest.raises(ValueError, match=reason):
        frame_and_connection(family.jet, x0, y0, h)
    if where == "y-h":
        with pytest.raises(ValueError, match=reason):
            beta_gradient_fd(family.jet, x0, y0, h)
    checks = {c.name: c for c in _assert_report_matches_oracle(family, grid, h).checks}
    assert all(checks[name].value == math.inf for name in _FRAME)
    assert checks["gram_norm"].passed or where == "centre"


@pytest.mark.parametrize("chunk", [sweep.CHUNK, 1])
def test_a_rejected_reference_angle_names_the_first_point_outside_the_tube(chunk, monkeypatch):
    # the first block starts inside the tube and phi is doubled everywhere, so
    # the reference point is rejected; the error names it, whatever the block size
    family = spectral_family(derive_constants(1.0, 0.5, 1.0, -100.0))

    def jet(x, y):
        j = family.jet(x, y)
        return j._replace(phi=2.0 * j.phi)

    def jets(xs, ys):
        J = family.jets(xs, ys)
        J[0] *= 2.0
        return J

    grid = GridSpec(4, 4)
    points = list(zip(*(v.tolist() for v in grid.points(np.arange(16)))))
    k = next(k for k, p in enumerate(points) if not in_degeneracy_tube(family.curve, *p))
    assert k > 0
    monkeypatch.setattr(sweep, "CHUNK", chunk)
    with pytest.raises(ValueError) as exc:
        verify(family._replace(jet=jet, jets=jets), grid)
    x, y = points[k]
    assert str(exc.value) == ("Lagrangian angle rejected at the reference point "
                              f"({x}, {y}), the first outside the degeneracy tube")


def test_rejected_reference_angle_exits_verify():
    # the first point outside the tube fixes the reference angle; if its
    # angle is rejected the sweep cannot run
    def jet(x, y):
        j = cone_family_jet(1, 2, x, y)
        return type(j)(x, y, 2.0 * j.phi, j.phi_x, j.phi_y, j.phi_xx, j.phi_xy, j.phi_yy)

    def jets(xs, ys):
        J = cone_jet_field(1, 2, xs, ys)
        J[0] *= 2.0
        return J

    family = Family("cone", {"m": 1, "n": 2}, jet, jets, cone_metric_field(1, 2), 2.0 * math.pi)
    with pytest.raises(ValueError, match="reference point"):
        verify(family, GridSpec(4, 4))
