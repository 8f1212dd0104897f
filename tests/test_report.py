import math

import pytest

from mlsurf.diffgeo import (beta_gradient_fd, christoffel_solve,
                            frame_and_connection, frame_defects,
                            gradient_identity_defects, metric_gradients_from_jet)
from mlsurf.report import TUBE_RADIUS, GridSpec, _MaxAggregator, verify
from mlsurf.spectral_curve import derive_constants
from mlsurf.surface_families import (Family, cone_family, cone_family_jet,
                                     cone_metric_field, in_degeneracy_tube,
                                     spectral_family)


def _oracle_maxima(family, grid, h=1e-4):
    """Max over the grid of the scalar frame and gradient-identity oracles."""
    worst = {}
    for y in grid.ys():
        for x in grid.xs():
            x, y = float(x), float(y)
            if family.curve is not None and in_degeneracy_tube(family.curve, x, y, TUBE_RADIUS):
                continue
            jet = family.jet(x, y)
            fr = frame_and_connection(family.jet, x, y, h)
            point = {"frame_" + k: v for k, v in frame_defects(fr).items()}
            gx, gy = gradient_identity_defects(christoffel_solve(jet),
                                               metric_gradients_from_jet(jet),
                                               beta_gradient_fd(family.jet, x, y, h))
            point.update(gradient_identity_x=gx, gradient_identity_y=gy)
            for name, val in point.items():
                worst[name] = max(worst.get(name, -math.inf), float(val))
    return worst


@pytest.mark.parametrize("family", [
    spectral_family(derive_constants(1.0, 1.0, 2.0, 1.0)),
    cone_family(1, 2),
], ids=["worked-example", "cone-1-2"])
def test_report_matches_scalar_oracles(family):
    # the sweep shares one stencil between frame and beta gradient; its
    # maxima must equal the scalar oracles that evaluate their own stencils
    grid = GridSpec(16, 16)
    expected = _oracle_maxima(family, grid)
    assert len(expected) == 12
    report = verify(family, grid)
    got = {c.name: c.value for c in report.checks if c.name in expected}
    assert got == expected


def test_nan_poisons_max_in_either_order():
    for order in ((0.5, math.nan), (math.nan, 0.5)):
        agg = _MaxAggregator()
        for v in order:
            agg.see("d", v)
        assert math.isnan(agg.values["d"])
    agg = _MaxAggregator()
    agg.see("d", math.nan)
    agg.fail("d")
    assert math.isnan(agg.values["d"])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nan_jet_fails_verify():
    # one interior grid point yields a NaN jet; it is visited after finite ones
    bad = (float(GridSpec(4, 4).xs()[2]), float(GridSpec(4, 4).ys()[1]))

    def jet(x, y):
        j = cone_family_jet(1, 2, x, y)
        if (x, y) == bad:
            j = type(j)(x, y, j.phi * math.nan, j.phi_x, j.phi_y,
                        j.phi_xx, j.phi_xy, j.phi_yy)
        return j

    family = Family("cone", {"m": 1, "n": 2}, jet, cone_metric_field(1, 2), 2.0 * math.pi)
    report = verify(family, GridSpec(4, 4))
    checks = {c.name: c for c in report.checks}
    assert math.isnan(checks["gram_norm"].value)
    assert not checks["gram_norm"].passed
    assert not report.overall
