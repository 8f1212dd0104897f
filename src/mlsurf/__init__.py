"""Minimal Lagrangian surfaces in CP^2 from spectral data of algebraic curves.

Construction side: Riemann theta functions, Baker-Akhiezer functions on a
reducible rational curve, and the two concrete surface families.  Verification
side: every Gram, frame, Christoffel, residue-identity, metric and curvature
claim is turned into a grid-scale defect check.  The package exports the names
of README's Library section; everything else is imported from its module.
"""

from .report import CheckRecord, GridSpec, VerificationReport, verify
from .spectral_curve import ReducibleCurveData, derive_constants
from .surface_families import Family, SurfaceJet, cone_family, spectral_family
from .theta import PeriodMatrix, read_period_matrix, riemann_theta

__version__ = "0.1.0"
