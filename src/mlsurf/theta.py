"""Riemann theta function by truncated lattice summation.

theta(z) = sum over m in Z^g of exp(pi*i*(B m, m) + 2*pi*i*(m, z)), truncated
to the box |m|_inf <= R.  Terms are accumulated with exact (Shewchuk) summation
so the result does not depend on summation order beyond unit roundoff.

Only the box points whose term can be nonzero in double precision are summed.
The modulus of a term is exp(-pi*(m^T Y m + 2 m.Im z)) with Y = Im B, and
exp(x) is exactly 0.0 for x < -745.14.  The box points with a real exponent of
at least EXPONENT_FLOOR form an ellipsoid, listed by a vectorised Fincke-Pohst
enumeration (Fincke and Pohst, Math. Comp. 44 (1985) 463-471; Deconinck et al.,
Math. Comp. 73 (2004) 1417-1442).  Every other box term is exactly 0.0, each
kept term rounds the same whatever terms surround it, and math.fsum is
exactly rounded, so a value is bit for bit the sum over the whole box.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TERM_CAP = 4_000_000

# real exponent below which a term is not summed: exp(x) is exactly 0.0 for
# x < -745.14, and the 15 units between leave room for the rounding of the
# exponent, here and in the terms
EXPONENT_FLOOR = -760.0

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
    B[i, j] == B[j, i] bit for bit.  Construction fails if an entry is not
    finite or Im(B) is not positive definite; im_cholesky is the lower
    Cholesky factor L of Im(B) = L L^T.  No Siegel reduction is attempted;
    callers are expected to supply well-conditioned matrices.
    """

    def __init__(self, entries):
        B = np.array(entries, dtype=complex)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise ValueError(f"period matrix must be square, got shape {B.shape}")
        if not all(map(cmath.isfinite, B.ravel().tolist())):
            raise ValueError("period matrix entries must be finite")
        for i in range(1, B.shape[0]):
            B[i, :i] = B[:i, i]
        try:
            L = np.linalg.cholesky(B.imag)
        except np.linalg.LinAlgError:
            raise ValueError("Im(B) must be positive definite") from None
        B.setflags(write=False)
        L.setflags(write=False)
        self.entries = B
        self.im_cholesky = L
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


def default_radius(z, B: PeriodMatrix) -> int:
    """Smallest radius with the neglected-term bound below 1e-14.

    Bound: pi*lam_min*R^2 - 2*pi*max|Im z_i|*g*R > 14*ln(10), with lam_min the
    smallest eigenvalue of Im(B).  Gaussian decay of the series makes the
    left side quadratic in R.
    """
    z = np.asarray(z, dtype=complex)
    lam = B.min_im_eigenvalue()
    imz = max(map(abs, z.imag.tolist()), default=0.0)
    g = B.genus
    tail = _TAIL_DIGITS * math.log(10.0)
    lin = 2.0 * math.pi * imz * g
    root = (lin + math.sqrt(lin * lin + 4.0 * math.pi * lam * tail)) / (2.0 * math.pi * lam)
    return max(1, math.ceil(root))


def _ellipsoid_points(z: np.ndarray, B: PeriodMatrix, radius: int) -> np.ndarray:
    """Box points |m|_inf <= radius whose term has real exponent >= EXPONENT_FLOOR.

    With Im(B) = L L^T and v = L^{-1} Im z, the real exponent of the m-th term
    is pi*(|v|^2 - |L^T m + v|^2), so the kept points lie in the ellipsoid
    |L^T m + v|^2 <= |v|^2 - EXPONENT_FLOOR/pi.  Coordinates are fixed from the
    last to the first (Fincke-Pohst): once m_{i+1}, ..., m_{g-1} are fixed,
    row i of L^T m + v bounds m_i to an interval, and each partial vector is
    repeated once per integer in it.  A few extra box points only cost time,
    so the bound is padded rather than tight.  Returns a C-contiguous int64
    array with one row per point.  Call under np.errstate(over="raise"), so
    that an exponent beyond double range raises FloatingPointError.
    """
    L = B.im_cholesky
    g = B.genus
    w = z.imag
    v = []
    for i in range(g):
        s = w[i]
        for j in range(i):
            s -= L[i, j] * v[j]
        v.append(s / L[i, i])
    # |v|^2 = Im z . Y^{-1} Im z; the relative pad covers the rounding of the
    # exponent when it is large
    budget = (sum(x * x for x in v) - EXPONENT_FLOOR / math.pi) * (1.0 + 1e-9)
    # the last coordinate has a single interval, found on scalars
    d = L[g - 1, g - 1]
    mid, half = -v[g - 1] / d, math.sqrt(budget) / d
    col = np.arange(max(math.ceil(mid - half), -radius), min(math.floor(mid + half), radius) + 1)
    M = np.zeros((len(col), g), dtype=np.int64)
    M[:, g - 1] = col
    row = d * col + v[g - 1]
    rest = budget - row * row  # left for the rows of L^T m + v not yet fixed
    for i in range(g - 2, -1, -1):
        t = M[:, i + 1:] @ L[i + 1:, i] + v[i]  # row i of L^T m + v without L[i, i] m_i
        half = np.sqrt(abs(rest))  # rest >= 0 up to rounding
        d = L[i, i]
        lo = np.maximum(np.ceil((t + half) / -d), -radius)
        count = np.maximum(np.minimum(np.floor((half - t) / d), radius) - lo + 1.0, 0.0)
        # counts stay float: numpy's int64 arithmetic would page in more code
        # (peak RSS) than the float loops this function already uses
        first = lo - (count.cumsum() - count)
        count = count.astype(np.int64)
        M = M.repeat(count, axis=0)
        M[:, i] = (first.repeat(count) + np.arange(len(M))).astype(np.int64)
        if i:
            row = d * M[:, i] + t.repeat(count)
            rest = rest.repeat(count) - row * row
    return M


def riemann_theta(z, B: PeriodMatrix, trunc: LatticeTruncation | None = None) -> complex:
    """Evaluate theta(z) = sum_m exp(pi*i*(B m, m) + 2*pi*i*(m, z)).

    z is a finite complex vector of length B.genus.  When trunc is None the
    radius is chosen by default_radius; a box of more than DEFAULT_TERM_CAP
    terms raises TruncationCapError.  The sum runs over the box points that
    _ellipsoid_points keeps; every other box term is exactly 0.0 in double
    precision.  Accumulation uses math.fsum on the real and imaginary parts,
    so the value is exactly rounded, independent of term order, and bit for
    bit the sum over the whole box.
    """
    z = np.asarray(z, dtype=complex)
    if z.shape != (B.genus,):
        raise ValueError(f"z has shape {z.shape}, expected ({B.genus},)")
    if not all(map(cmath.isfinite, z.tolist())):
        raise ValueError("z must be finite")
    if trunc is None:
        trunc = LatticeTruncation(default_radius(z, B))
    if trunc.n_terms(B.genus) > DEFAULT_TERM_CAP:
        raise TruncationCapError(
            f"radius {trunc.radius} needs {trunc.n_terms(B.genus)} terms (cap {DEFAULT_TERM_CAP})")
    # a term beyond double range raises FloatingPointError (an ArithmeticError)
    with np.errstate(over="raise", invalid="raise"):
        M = _ellipsoid_points(z, B, trunc.radius)
        quad = np.einsum("ni,ij,nj->n", M, B.entries, M)
        # largest terms first (complex values sort by real part): fsum keeps
        # fewer partials, and the order cannot change its exactly rounded value
        terms = np.exp(np.sort(1j * math.pi * quad + 2j * math.pi * (M @ z))[::-1])
    return complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))


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
