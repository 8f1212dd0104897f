"""Minimal Lagrangian surfaces in CP^2 from spectral data of algebraic curves.

Construction side: Riemann theta functions, Baker-Akhiezer functions on a
reducible rational curve, and the two concrete surface families.  Verification
side: every Gram, frame, Christoffel, residue-identity, metric and curvature
claim is turned into a grid-scale defect check.
"""

from .baker_akhiezer import (BARationalValue, ba_conjugation_defect,
                             ba_essential_singularity_coeffs, ba_rational_eval,
                             consistency_defect, f_coefficients)
from .diffgeo import (ChristoffelData, FrameData, MetricData,
                      christoffel_b_defects, christoffel_solve, frame_and_connection,
                      frame_defects, gauss_curvature, gram_defects, herm, lagrangian_angle,
                      gradient_identity_defects, metric_from_jet, minimality_defects,
                      residue_identity_defects)
from .report import (CheckRecord, GridSpec, VerificationReport, verify,
                     verify_cone, verify_spectral)
from .spectral_curve import (RationalOneForm, ReducibleCurveData,
                             derive_constants, expansion_at_infinity,
                             gluing_defects, residue_simple)
from .surface_families import (Family, MetricField, SurfaceJet, cone_family,
                               cone_family_jet, cone_jet_field, cone_metric_field,
                               degeneracy_angle, in_degeneracy_tube, spectral_family,
                               spectral_family_jet, spectral_jet_field,
                               spectral_metric_field)
from .theta import (LatticeTruncation, PeriodMatrix, TruncationCapError,
                    default_radius, quasi_periodicity_defect,
                    read_period_matrix, riemann_theta)

__version__ = "0.1.0"
