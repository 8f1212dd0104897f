"""Fixtures that several test modules share."""

import pytest

from mlsurf.spectral_curve import derive_constants


@pytest.fixture(scope="module")
def sphere_curve():
    """The worked example: a = b = 1, Q1 = 2, gamma_im = 1."""
    return derive_constants(1.0, 1.0, 2.0, 1.0)
