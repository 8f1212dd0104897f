"""sympy proofs of the cone family's pointwise claims, with the orders m and n symbolic.

The report samples the claims on a grid; here each one is an identity in x and y that
sympy reduces to 0 for every m, n > 0.  rho = sqrt(A cos^2 x + B sin^2 x) enters as a
positive function of x whose derivative is (B - A) sin x cos x / rho, and rho^2 is
replaced by A cos^2 x + B sin^2 x at the end.  A claim that sympy does not close fails
with its residual expression.
"""

import functools
import math

import numpy as np
import pytest
import sympy as sp

from mlsurf.surface_families import cone_family_jet, cone_metric_field

x, y = sp.symbols("x y", real=True)
m, n, r = sp.symbols("m n rho", positive=True)
K1, K2 = sp.sqrt((m + n) / (2 * m + n)), sp.sqrt((m + n) / (m + 2 * n))
A, B = n / (m + 2 * n), m / (2 * m + n)
S, C = sp.sin(x), sp.cos(x)
RHO_SQ = A * C**2 + B * S**2
RHO_P = (B - A) * S * C / r       # rho' with rho = r
# cone_metric_field's closed forms, written out
E_CLOSED = K1**2 * C**2 + K2**2 * S**2 + ((B - A) * S * C)**2 / RHO_SQ
G_CLOSED = ((sp.pi * m)**2 * K1**2 * S**2 + (sp.pi * n)**2 * K2**2 * C**2
            + (sp.pi * (m + n))**2 * RHO_SQ)


@functools.cache
def _jet() -> tuple:
    """(phi, phi_x, phi_y) of the cone, each a list of three components in x, y and r."""
    rho = sp.Function("rho")(x)
    phi = [K1 * S * sp.exp(sp.I * sp.pi * m * y), K2 * C * sp.exp(sp.I * sp.pi * n * y),
           rho * sp.exp(-sp.I * sp.pi * (m + n) * y)]
    rho_p = RHO_P.subs(r, rho)
    return tuple([f.subs(sp.Derivative(rho, x), rho_p).subs(rho, r) for f in row]
                 for row in (phi, [f.diff(x) for f in phi], [f.diff(y) for f in phi]))


def _inner(u, v):
    """The Hermitian product sum u_k conj(v_k)."""
    return sum(a * sp.conjugate(b) for a, b in zip(u, v))


def _reduced(expr):
    """expr with rho^2 = A cos^2 x + B sin^2 x, simplified."""
    return sp.simplify(sp.expand(expr).subs(r, sp.sqrt(RHO_SQ)))


CLAIMS = {  # name: the expression in (phi, phi_x, phi_y) that reduces to 0
    "rho_prime": lambda *_: sp.diff(sp.sqrt(RHO_SQ), x) - RHO_P.subs(r, sp.sqrt(RHO_SQ)),
    "unit": lambda p, px, py: _inner(p, p) - 1,
    "phi_phi_x": lambda p, px, py: _inner(p, px),
    "phi_phi_y": lambda p, px, py: _inner(p, py),
    "phi_x_phi_y": lambda p, px, py: _inner(px, py),
    "E": lambda p, px, py: _inner(px, px) - E_CLOSED,
    "G": lambda p, px, py: _inner(py, py) - G_CLOSED,
}


@pytest.mark.parametrize("claim", CLAIMS)
def test_the_cone_claim_holds_for_all_orders(claim):
    residual = _reduced(CLAIMS[claim](*_jet()))
    assert residual == 0, f"unproved: {claim} leaves {residual}"


def test_the_cone_lagrangian_angle_is_pi_over_2_for_all_orders():
    # det(phi, phi_x, phi_y) / i is pi k1 k2 P / rho, P a positive term plus nonnegative
    # ones in x and the positive m, n, rho: real, positive and free of y, so the
    # Lagrangian angle is pi/2 everywhere
    det = sp.Matrix(_jet()).det() / sp.I
    P = ((m + n) * r**2 + r**2 * (n * C**2 + m * S**2)
         + (m - n)**2 * (m + n) / ((2 * m + n) * (m + 2 * n)) * S**2 * C**2)
    residual = sp.simplify(det - sp.pi * K1 * K2 * P / r)
    assert residual == 0, f"unproved: det / i leaves {residual}"
    assert P.is_positive and (sp.pi * K1 * K2 / r).is_positive


@pytest.mark.parametrize("orders", [(1, 1), (1, 2), (3, 2), (4, 4), (7, 40)])
def test_the_proved_forms_are_the_programs(orders):
    # the closed forms proved above are cone_metric_field's, and the proofs' phi is
    # cone_family_jet's, at numeric orders and points
    E, G = (sp.lambdify(x, f.subs({m: orders[0], n: orders[1]}), "numpy")
            for f in (E_CLOSED, G_CLOSED))
    field = cone_metric_field(*orders)
    xs = np.array([0.0, 0.3, 1.1, math.pi / 2, 2.5, 5.9])
    for want, got in ((E(xs), field.E(xs, 0.0)), (G(xs), field.G(xs, 0.0))):
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
    rows = [sp.lambdify((x, y), [f.subs(r, sp.sqrt(RHO_SQ)).subs({m: orders[0], n: orders[1]})
                                 for f in row], "numpy") for row in _jet()]
    for px, py in ((0.3, 0.7), (2.5, -1.2), (5.9, 0.05)):
        jet = cone_family_jet(*orders, px, py)
        for row, got in zip(rows, (jet.phi, jet.phi_x, jet.phi_y)):
            np.testing.assert_allclose(got, np.array(row(px, py), dtype=complex),
                                       rtol=1e-13, atol=1e-13)
