"""Riemann theta function by truncated lattice summation.

theta(z) = sum over m in Z^g of exp(pi*i*(B m, m) + 2*pi*i*(m, z)), truncated
to the box |m|_inf <= R.  Terms are accumulated with exact (Shewchuk) summation
so the result does not depend on summation order beyond unit roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_TERM_CAP = 4_000_000

# target bound for the largest neglected term when the radius is chosen
# automatically: exp(-pi*lam_min*R^2) * exp(2*pi*|Im z|*R*g) < 1e-14
_TAIL_DIGITS = 14.0


class TruncationCapError(ValueError):
    """Lattice truncation would exceed DEFAULT_TERM_CAP terms."""


@dataclass(frozen=True)
class LatticeTruncation:
    """Summation box: lattice vectors m with |m|_inf <= radius.

    The cardinality (2*radius + 1)^g is checked against DEFAULT_TERM_CAP
    before any work is done.
    """

    radius: int

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError(f"truncation radius must be >= 1, got {self.radius}")

    def n_terms(self, genus: int) -> int:
        return (2 * self.radius + 1) ** genus


class PeriodMatrix:
    """Complex g x g period matrix, symmetric with positive definite Im part.

    The stored matrix is symmetrized exactly from the upper triangle, so
    B[i, j] == B[j, i] bit for bit.  Construction fails if Im(B) is not
    positive definite.  No Siegel reduction is attempted; callers are expected
    to supply well-conditioned matrices.
    """

    def __init__(self, entries):
        B = np.array(entries, dtype=complex)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise ValueError(f"period matrix must be square, got shape {B.shape}")
        B = np.triu(B) + np.triu(B, 1).T
        try:
            np.linalg.cholesky(B.imag)
        except np.linalg.LinAlgError:
            raise ValueError("Im(B) must be positive definite") from None
        B.setflags(write=False)
        self.entries = B
        self.genus = B.shape[0]

    def min_im_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries.imag)[0])

    def __repr__(self):
        return f"PeriodMatrix(genus={self.genus})"


def read_period_matrix(path) -> PeriodMatrix:
    """Read a period matrix from a plain-text file.

    Format: first line is the genus g, then g lines of g whitespace-separated
    complex entries written like ``re+imj`` (anything Python's complex()
    accepts).  Blank lines and '#' comments are skipped.
    """
    with open(path) as fh:
        lines = [ln.split("#")[0].strip() for ln in fh]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError(f"{path}: empty period-matrix file")
    g = int(lines[0])
    if len(lines) != g + 1:
        raise ValueError(f"{path}: expected {g} matrix rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        row = [complex(tok) for tok in ln.split()]
        if len(row) != g:
            raise ValueError(f"{path}: expected {g} entries per row, got {len(row)}")
        rows.append(row)
    return PeriodMatrix(rows)


@lru_cache(maxsize=32)
def _lattice_points(genus: int, radius: int) -> np.ndarray:
    """Integer vectors with |m|_inf <= radius, in lexicographic order.

    The order is arbitrary: riemann_theta sums exactly, so no term order can
    change a value.
    """
    axis = np.arange(-radius, radius + 1)
    M = np.stack(np.meshgrid(*([axis] * genus), indexing="ij"), axis=-1).reshape(-1, genus)
    M.setflags(write=False)
    return M


def default_radius(z, B: PeriodMatrix) -> int:
    """Smallest radius with the neglected-term bound below 1e-14.

    Bound: pi*lam_min*R^2 - 2*pi*max|Im z_i|*g*R > 14*ln(10), with lam_min the
    smallest eigenvalue of Im(B).  Gaussian decay of the series makes the
    left side quadratic in R.
    """
    z = np.asarray(z, dtype=complex)
    lam = B.min_im_eigenvalue()
    imz = float(np.max(np.abs(z.imag))) if z.size else 0.0
    g = B.genus
    tail = _TAIL_DIGITS * math.log(10.0)
    lin = 2.0 * math.pi * imz * g
    root = (lin + math.sqrt(lin * lin + 4.0 * math.pi * lam * tail)) / (2.0 * math.pi * lam)
    return max(1, math.ceil(root))


def riemann_theta(z, B: PeriodMatrix, trunc: LatticeTruncation | None = None) -> complex:
    """Evaluate theta(z) = sum_m exp(pi*i*(B m, m) + 2*pi*i*(m, z)).

    z is a complex vector of length B.genus.  When trunc is None the radius is
    chosen by default_radius; a box of more than DEFAULT_TERM_CAP terms raises
    TruncationCapError.  Accumulation uses math.fsum on the real and imaginary
    parts, so the value is exactly rounded and independent of term order
    (the lattice points come in no particular order).
    """
    z = np.asarray(z, dtype=complex)
    if z.shape != (B.genus,):
        raise ValueError(f"z has shape {z.shape}, expected ({B.genus},)")
    if trunc is None:
        trunc = LatticeTruncation(default_radius(z, B))
    if trunc.n_terms(B.genus) > DEFAULT_TERM_CAP:
        raise TruncationCapError(
            f"radius {trunc.radius} needs {trunc.n_terms(B.genus)} terms (cap {DEFAULT_TERM_CAP})")
    M = _lattice_points(B.genus, trunc.radius)
    # a term beyond double range raises FloatingPointError (an ArithmeticError)
    with np.errstate(over="raise", invalid="raise"):
        quad = np.einsum("ni,ij,nj->n", M, B.entries, M)
        terms = np.exp(1j * math.pi * quad + 2j * math.pi * (M @ z))
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def quasi_periodicity_defect(z, m, B: PeriodMatrix,
                             trunc: LatticeTruncation | None = None) -> float:
    """Relative defect of theta(z + B m) = exp(-pi*i*(B m, m) - 2*pi*i*(m, z)) theta(z).

    Returns |theta(z + Bm) - factor * theta(z)| / (1 + |theta(z)|).  Pure test
    helper; vanishes to roundoff for an exact theta evaluation.
    """
    z = np.asarray(z, dtype=complex)
    m = np.asarray(m)
    if z.shape != (B.genus,) or m.shape != (B.genus,):
        raise ValueError(f"z and m must have shape ({B.genus},)")
    if not np.issubdtype(m.dtype, np.integer):
        raise ValueError("m must be an integer vector")
    Bm = B.entries @ m
    lhs = riemann_theta(z + Bm, B, trunc)
    theta_z = riemann_theta(z, B, trunc)
    with np.errstate(over="raise", invalid="raise"):
        factor = np.exp(-1j * math.pi * (Bm @ m) - 2j * math.pi * (m @ z))
        return float(abs(lhs - factor * theta_z) / (1.0 + abs(theta_z)))
