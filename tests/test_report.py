import cmath
import csv
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsurf import sweep
from mlsurf.diffgeo import (angle_defect, beta_gradient_fd,
                            christoffel_b_defects, christoffel_solve, frame_and_connection,
                            frame_defects, gauss_curvature, gradient_identity_defects,
                            gram_defects, lagrangian_angle, metric_from_jet,
                            metric_gradients_from_jet, minimality_defects,
                            residue_identity_defects)
from mlsurf.report import CSV_HEADER, GridSpec, sample_rows, verify, write_csv
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


def _oracle_maxima(family, grid, h=1e-4, tol_profile="strict"):
    """Every per-point check of the report, from the scalar diffgeo functions
    alone, point by point: (name -> NaN-sticky max, name -> excluded points)."""
    curve = family.curve
    k_field = family.metric if tol_profile == "strict" else family.metric.without_derivatives()
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

    points = [(float(x), float(y)) for y in grid.ys() for x in grid.xs()]
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
            see(["curvature_K_minus_1"], lambda: [abs(gauss_curvature(k_field, x, y, h) - 1.0)])

        def christoffel():  # fails where E or G is 0: metric_from_jet raises
            ch = christoffel_solve(jet)
            return [*christoffel_b_defects(ch, metric_from_jet(jet)),
                    *gradient_identity_defects(ch, metric_gradients_from_jet(jet),
                                               beta_gradient_fd(family.jet, x, y, h)),
                    *minimality_defects(ch)]

        see(_CHRISTOFFEL, christoffel)
        see(_FRAME, lambda: frame_defects(frame_and_connection(family.jet, x, y, h)).values())
    return worst, excluded


def _assert_report_matches_oracle(family, grid, h=1e-4, tol_profile="strict"):
    expected, excluded = _oracle_maxima(family, grid, h, tol_profile)
    report = verify(family, grid, h, tol_profile)
    got = {c.name: c for c in report.checks if not c.name.startswith("curve_")}
    assert list(got) == [n for n in got if n in expected] and set(got) == set(expected)
    for name, value in expected.items():
        v = got[name].value
        assert v == value or abs(v - value) <= 1e-13 * abs(value) \
            or (math.isnan(v) and math.isnan(value)), (name, v, value)
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


@pytest.mark.parametrize("family, tol_profile, groups", [
    (TUBE_POINTS, "strict", [_HEAD, *_RESIDUES, *_ANGLE, ("curvature_K_minus_1", 1e-4, "upper"),
                             ("tube_G_bound", 1e-3, "upper"), *_CURVE]),
    (TUBE_POINTS, "fd", [_HEAD, *_RESIDUES, *_ANGLE, ("curvature_K_minus_1", 1e-3, "upper"),
                         ("tube_G_bound", 1e-3, "upper"), *_CURVE]),
    (cone_family(1, 2), "strict", [_HEAD, *_ANGLE, ("metric_anisotropy", 0.1, "lower")]),
], ids=["tube-points-strict", "tube-points-fd", "cone-1-2"])
def test_report_check_order(family, tol_profile, groups):
    # the text and JSON reports list the checks in this order, each with its
    # tolerance and kind
    report = verify(family, GridSpec(16, 16), 1e-4, tol_profile)
    assert [(c.name, c.tolerance, c.kind) for c in report.checks] == [
        (name, tol, kind) for names, tol, kind in groups for name in names.split()]


@pytest.mark.parametrize("chunk", [1, 7, 256, sweep.CHUNK])
def test_chunk_size_does_not_change_the_output(chunk, monkeypatch):
    def outputs():
        grid = GridSpec(16, 16)
        return ([c.to_dict() for c in verify(TUBE_POINTS, grid).checks],
                [c.to_dict() for c in verify(cone_family(1, 2), grid, tol_profile="fd").checks],
                "".join(map("".join, sample_rows(TUBE_POINTS, grid, 1e-4))),
                "".join(map("".join, sample_rows(cone_family(2, 1), GridSpec(5, 3), 1e-4, "fd"))))

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


def test_a_block_inside_the_tube_skips_the_angle_stage(monkeypatch):
    # a degeneracy line passes 0.005 from the origin: at CHUNK 1 the first
    # block is all tube and the second fixes the reference angle
    family = spectral_family(derive_constants(1.0, 0.5, 1.0, -100.0))
    grid = GridSpec(4, 4)
    assert in_degeneracy_tube(family.curve, 0.0, 0.0)
    shipped = [c.to_dict() for c in verify(family, grid).checks]
    monkeypatch.setattr(sweep, "CHUNK", 1)
    assert [c.to_dict() for c in _assert_report_matches_oracle(family, grid).checks] == shipped


def _csv_oracle(family, grid, h, tol_profile):
    # csv.writer over one f"{v:.17g}" call per field
    k_field = family.metric if tol_profile == "strict" else family.metric.without_derivatives()
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    for block in sweep.sample_blocks(family, grid, h, k_field):
        for x, y, phi, E, G, beta, has_beta, K, has_K in zip(*(v.tolist() for v in block)):
            fields = [x, y, *(p for c in phi for p in (c.real, c.imag)), E, G]
            writer.writerow([f"{v:.17g}" for v in fields]
                            + [f"{beta:.17g}" if has_beta else "", f"{K:.17g}" if has_K else ""])
    return buf.getvalue().encode()


@pytest.mark.parametrize("family, grid, tol_profile", [
    (TUBE_POINTS, GridSpec(16, 16), "strict"),
    (cone_family(2, 1), GridSpec(5, 3), "fd"),
    (spectral_family(derive_constants(1.0, 1.0, 2.0, 1.0)), GridSpec(1, 1), "strict"),
], ids=["tube-points", "cone-2-1-fd", "one-point"])
def test_csv_matches_the_csv_writer_oracle(family, grid, tol_profile, tmp_path):
    path = tmp_path / "s.csv"
    write_csv(path, sample_rows(family, grid, 1e-4, tol_profile))
    expected = _csv_oracle(family, grid, 1e-4, tol_profile)
    assert path.read_bytes() == expected
    if family is TUBE_POINTS:   # rows inside the tube end in empty beta and K cells
        assert b",,\r\n" in expected


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
_X, _Y = float(_GRID4.xs()[1]), float(_GRID4.ys()[2])


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


@pytest.mark.parametrize("family, failed, kept", [
    # |det| = 2 at a grid point: every angle check fails there
    (_jet_scaled_at(cone_family(1, 2), (_X, _Y), phi=2.0),
     "beta_constant christoffel_b11 frame_unitarity", "metric_E_closed_form"),
    # |det| = 2 at a stencil point: its angle is rejected
    (_jet_scaled_at(cone_family(1, 2), (_X + 1e-4, _Y), phi=2.0),
     "christoffel_b11 frame_unitarity", "beta_constant"),
    # |phi_x| < 1e-8 at a stencil point; its angle stands
    (_jet_scaled_at(cone_family(1, 2), (_X, _Y - 1e-4), phi_x=1e-9),
     "frame_unitarity frame_B_trace", "christoffel_b11 gradient_identity_y"),
    # cond(phi_x, phi_y, phi) ~ 1e9 at a grid point; its angle stands
    (_jet_scaled_at(cone_family(1, 2), (_X, _Y), phi_y=1e-9),
     "christoffel_b11 minimality_im_y", "beta_constant frame_unitarity"),
    # G < 0 at a curvature stencil point
    (_metric_negative_at(spectral_family(derive_constants(1.0, 1.0, 2.0, 1.0)), (_X + 1e-4, _Y)),
     "curvature_K_minus_1", "frame_unitarity metric_G_closed_form"),
    # |det| = 2 at a spectral grid point: K = 1 is an angle check too
    (_jet_scaled_at(spectral_family(derive_constants(1.0, 1.0, 2.0, 1.0)), (_X, _Y), phi=2.0),
     "beta_constant beta_e2i_plus_one curvature_K_minus_1 frame_unitarity", "metric_G_closed_form"),
    # |det| = 2 and a large |phi_x| at a grid point: no anisotropy is read there
    (_jet_scaled_at(cone_family(1, 2), (_X, _Y), phi=2.0, phi_x=1e3),
     "beta_constant christoffel_b11 frame_unitarity", "metric_G_closed_form"),
    # phi = 0 at a grid point: det 0 rejects the angle, the basis and the frame are singular
    (_jet_scaled_at(cone_family(1, 2), (_X, _Y), phi=0.0),
     "beta_constant christoffel_b11 frame_unitarity", "metric_E_closed_form metric_G_closed_form"),
    # phi_y = 0 at a grid point: G = 0 rejects the angle; no anisotropy is read there
    (_jet_scaled_at(cone_family(1, 2), (_X, _Y), phi_y=0.0),
     "beta_constant christoffel_b11 frame_unitarity", "metric_E_closed_form gram_norm"),
], ids=["centre-angle", "neighbour-angle", "neighbour-degenerate", "ill-conditioned",
        "metric-not-positive", "centre-angle-spectral", "centre-angle-anisotropy",
        "singular-basis", "vanishing-derivative"])
def test_failed_points_match_the_oracle(family, failed, kept):
    report = _assert_report_matches_oracle(family, _GRID4)
    values = {c.name: c.value for c in report.checks}
    assert all(values[name] == math.inf for name in failed.split())
    assert all(values[name] < 1e-6 for name in kept.split())


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("where", ["first", "last"])
def test_nan_jet_fails_verify(where):
    # one grid point yields a NaN jet, visited before or after every finite one
    grid = GridSpec(4, 4)
    k = 0 if where == "first" else -1
    bad = (float(grid.xs()[k]), float(grid.ys()[k]))

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
