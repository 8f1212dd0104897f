"""Riemann theta function by truncated lattice summation.

theta(z) = sum over m in Z^g of exp(pi*i*(B m, m) + 2*pi*i*(m, z)), truncated
to the box |m|_inf <= R.  Terms are accumulated with exact (Shewchuk) summation
so the result does not depend on summation order beyond unit roundoff.

Only the box points whose term can be nonzero in double precision are summed.
The modulus of a term is exp(-pi*(m^T Y m + 2 m.Im z)) with Y = Im B, and
exp(x) is exactly 0.0 for x < -745.14.  The box points with a real exponent of
at least EXPONENT_FLOOR form the floor ellipsoid, listed by a vectorised
Fincke-Pohst enumeration (Fincke and Pohst, Math. Comp. 44 (1985) 463-471).
Every other box term is exactly 0.0, each kept term rounds the same whatever
terms surround it, and math.fsum is exactly rounded, so its sum is bit for bit
the sum over the whole box.  The value is decided by far fewer terms, so
riemann_theta first sums a small ellipsoid and keeps that sum only when the
Gaussian lattice tail bound of Deconinck et al. (Math. Comp. 73 (2004)
1417-1442) proves the whole box rounds to the same double.  DEFAULT_TERM_CAP
counts kept points, not the box.  riemann_theta owns this pass policy;
_ellipsoid_points only lists the points of a given ellipsoid.
"""

import cmath
import functools
import math
import numbers

import numpy as np

DEFAULT_TERM_CAP = 4_000_000

# real exponent below which a term is not summed: exp(x) is exactly 0.0 for
# x < -745.14, and the 15 units between leave room for the rounding of the
# exponent, here and in the terms
EXPONENT_FLOOR = -760.0

# target bound for the largest neglected term when the radius is chosen
# automatically: exp(-pi*lam_min*R^2) * exp(2*pi*|Im z|*R*g) < 1e-14
_TAIL_DIGITS = 14.0

# the small ellipsoid keeps the terms within exp(-SPREAD) of the Babai point's
SPREAD = 100.0

# relative gap allowed between B[i, j] and B[j, i] before a matrix is refused
SYMMETRY_TOL = 1e-12


class PeriodMatrix:
    """Complex g x g period matrix, symmetric with positive definite Im part.

    The stored matrix is symmetrized exactly from the upper triangle, so
    B[i, j] == B[j, i] bit for bit.  Construction fails if an entry is not
    finite, if |B[i, j] - B[j, i]| > SYMMETRY_TOL * max(1, |B[i, j]|) (the
    series would see (B + B^T)/2, not the given matrix) or if Im(B) is not
    positive definite; im_cholesky is the lower Cholesky factor L of
    Im(B) = L L^T.  No Siegel reduction is attempted; callers are expected to
    supply well-conditioned matrices.
    """

    def __init__(self, entries):
        B = np.array(entries, dtype=complex)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise ValueError(f"period matrix must be square, got shape {B.shape}")
        if not np.isfinite(B).all():
            raise ValueError("period matrix entries must be finite")
        if B.tobytes() != B.T.tobytes():   # else symmetric bit for bit already
            D = B.T - B   # B[i, j] - B[j, i] at [j, i]; hypot rounds as abs() of a complex
            gap = (np.hypot(D.real, D.imag)
                   > SYMMETRY_TOL * np.maximum(1.0, np.hypot(B.real, B.imag)).T)
            j, i = divmod(int(np.argmax(np.tril(gap, -1))), len(B))   # the first, row by row
            if i < j:
                raise ValueError(f"period matrix must be symmetric: B[{i}, {j}] = "
                                 f"{B[i, j].item()} but B[{j}, {i}] = {B[j, i].item()}")
            for j in range(1, len(B)):
                B[j, :j] = B[:j, j]
        try:
            L = np.linalg.cholesky(B.imag)
        except np.linalg.LinAlgError:
            raise ValueError("Im(B) must be positive definite") from None
        B.setflags(write=False)
        L.setflags(write=False)
        self.entries = B
        self.im_cholesky = L
        self.genus = B.shape[0]

    @functools.cached_property
    def min_im_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries.imag)[0])


def parse_complex(token: str, source) -> complex:
    try:  # a ValueError that names where the token came from
        return complex(token)
    except ValueError:
        raise ValueError(f"{source}: malformed complex number {token!r}") from None


def read_period_matrix(path) -> PeriodMatrix:
    """Read a period matrix from a plain-text file.

    Format: first line is the genus g, then g lines of g whitespace-separated
    complex entries written like ``re+imj`` (anything Python's complex()
    accepts).  Blank lines and '#' comments are skipped.
    """
    try:
        with open(path) as fh:  # lines split on "\n" alone, as iterating the file would
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    lines = [s for ln in text.split("\n") if (s := ln.partition("#")[0].strip())]
    if not lines:
        raise ValueError(f"{path}: empty period-matrix file")
    try:
        g = int(lines[0])
    except ValueError:
        g = 0
    if g < 1:
        raise ValueError(f"{path}: genus line must be a positive integer, got {lines[0]!r}")
    if len(lines) != g + 1:
        raise ValueError(f"{path}: expected {g} matrix rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        row = [parse_complex(tok, path) for tok in ln.split()]
        if len(row) != g:
            raise ValueError(f"{path}: expected {g} entries per row, got {len(row)}")
        rows.append(row)
    try:
        return PeriodMatrix(rows)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def default_radius(z, B: PeriodMatrix) -> int:
    """Smallest radius with the neglected-term bound below 1e-14.

    Bound: pi*lam_min*R^2 - 2*pi*max|Im z_i|*g*R > 14*ln(10), with lam_min the
    smallest eigenvalue of Im(B).  Gaussian decay of the series makes the
    left side quadratic in R.
    """
    z = np.asarray(z, dtype=complex)
    lam = B.min_im_eigenvalue
    imz = max(map(abs, z.imag.tolist()), default=0.0)
    g = B.genus
    tail = _TAIL_DIGITS * math.log(10.0)
    lin = 2.0 * math.pi * imz * g
    quad = 4.0 * math.pi * lam * tail
    root = (lin + math.sqrt(lin * lin + quad)) / (2.0 * math.pi * lam)
    if not math.isfinite(root):   # from Im z, or from lam_min where 4 pi lam_min tail overflows
        cause = (f"|Im z| = {imz:g}" if math.isfinite(quad)
                 else f"the smallest eigenvalue of Im B, {lam:g},")
        raise ValueError(f"{cause} is too large for an automatic radius")
    return max(1, math.ceil(root))


def _short(n, digits: float = math.inf) -> str:
    """n in full below 10^15, else rounded up to four digits, as 4.978e+381; an
    infinite n stands for 10^digits, rounded from that logarithm."""
    if n < 10**15:
        return str(n)
    e = int(math.log10(n) if n < math.inf else digits) - 3  # log10 takes any int
    # 1000..10001: log10 may round down across an integer
    m = -(-n // 10 ** e) if n < math.inf else math.ceil(10 ** (digits - e))
    return f"{m / 1000:.3f}e+{e + 3}" if m < 10000 else f"{-(-m // 10) / 1000:.3f}e+{e + 4}"


def _tail_bound(g: int, r: float, rho: float, q: float) -> float:
    """Upper bound on the sum of exp(-pi*(|u|^2 - q)) over the points u, |u| > rho,
    of any translate of a g-dimensional lattice whose packing radius is r.

    The balls of radius r around the points are disjoint, which gives
    (Deconinck et al. 2004) the bound
    (g / r^g) * int_a^inf (w + r)^(g-1) exp(-pi*(w^2 - q)) dw with a = rho - 2r > 0.
    With I_k the integral of w^k: I_1 = e/(2 pi), I_k = a^(k-1) e/(2 pi) +
    (k-1)/(2 pi) I_(k-2), where e = exp(-pi*(a^2 - q)).  I_0 = erfc(a sqrt(pi))/2
    is replaced by its Mills-ratio bound e/(2 pi a), which does not underflow
    where erfc does.  inf when rho <= 2r.
    """
    a = rho - 2.0 * r
    if a <= 0.0:
        return math.inf
    e = math.exp(-math.pi * (a * a - q)) / (2.0 * math.pi)
    ints = [e / a, e]
    for k in range(2, g):
        ints.append(a ** (k - 1) * e + (k - 1) / (2.0 * math.pi) * ints[k - 2])
    return g / r ** g * sum(math.comb(g - 1, k) * r ** (g - 1 - k) * ints[k] for k in range(g))


def _certified(parts: list, tau: float) -> float | None:
    """fsum(parts), if it is also the exactly rounded sum of parts plus any terms
    whose moduli add up to at most tau; else None.

    The exact sum of parts is s + e with s = fsum(parts) and e the exactly
    rounded residual, so s is certified when |e| (widened for its own rounding)
    plus tau is below half the smaller gap from s to its neighbouring doubles.
    The inequality is strict, because a tie may round either way.  Half the
    gap of a subnormal s or of s = 0.0 rounds to 0.0, so those are never
    certified.
    """
    s = math.fsum(parts)
    e = math.fsum(parts + [-s])
    gap = min(s - math.nextafter(s, -math.inf), math.nextafter(s, math.inf) - s)
    return s if abs(e) * (1.0 + 2.0 ** -50) + tau < 0.5 * gap else None


def _ellipsoid_points(L: np.ndarray, v: list, radius: int, budget: float) -> np.ndarray:
    """Box points |m|_inf <= radius with |L^T m + v|^2 <= budget, L lower triangular.

    Coordinates are fixed from the last to the first (Fincke-Pohst): once
    m_{i+1}, ..., m_{g-1} are fixed, row i of L^T m + v bounds m_i to an
    interval, and each partial vector is repeated once per integer in it.  A
    few extra box points only cost time, so callers pad the budget rather
    than keep it tight.  The points are a C-contiguous int64 array with one
    row per point.
    """
    g = len(v)
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


def _terms(z: np.ndarray, B: PeriodMatrix, M: np.ndarray) -> tuple[list, list]:
    """Real and imaginary parts of the terms at the points M, largest first
    (complex values sort by real part): fsum keeps fewer partials, and the
    order cannot change its exactly rounded value."""
    quad = np.einsum("ni,ij,nj->n", M, B.entries, M)
    terms = np.exp(np.sort(1j * math.pi * quad + 2j * math.pi * (M @ z))[::-1])
    return terms.real.tolist(), terms.imag.tolist()


def riemann_theta(z, B: PeriodMatrix, radius: int | None = None) -> complex:
    """Evaluate theta(z) = sum_m exp(pi*i*(B m, m) + 2*pi*i*(m, z)).

    z is a finite complex vector of length B.genus.  The sum is over the box
    |m|_inf <= radius, an int >= 1; when radius is None it is chosen by
    default_radius.  With Im(B) = L L^T and v = L^{-1} Im z
    the real exponent of the m-th term is pi*(|v|^2 - |L^T m + v|^2), so the
    terms above any level lie in an ellipsoid |L^T m + v|^2 <= budget, listed
    by _ellipsoid_points.  The floor ellipsoid has budget |v|^2 -
    EXPONENT_FLOOR/pi: every term outside it is exactly 0.0.  Before any
    point is listed, ValueError is raised when it may hold more than
    DEFAULT_TERM_CAP points, and FloatingPointError when the term at the
    Babai point (each coordinate, last to first, rounded and clipped to the
    box) is clearly beyond double range.  With q = |L^T m + v|^2 there, an
    upper bound on the box minimum, the small ellipsoid q + SPREAD/pi is
    summed first where it pays, and returned when _certified proves from the
    tail bound on the omitted terms that the whole box rounds to the same
    double.  Otherwise, or if that pass raises an ArithmeticError, the floor
    ellipsoid is summed; its value or error is the result.  Sums are
    math.fsum on the real and imaginary parts, so either value is bit for
    bit the sum over the whole box.
    """
    z = np.array(z, dtype=complex)
    if z.shape != (B.genus,):
        raise ValueError(f"z has shape {z.shape}, expected ({B.genus},)")
    if not all(map(cmath.isfinite, z.tolist())):
        raise ValueError("z must be finite")
    z.real = np.fmod(z.real, 1.0)  # exact, signs kept: theta has period 1 in each Re z_j
    if radius is None:
        radius = default_radius(z, B)
    elif isinstance(radius, bool) or not isinstance(radius, numbers.Integral):
        raise ValueError(f"truncation radius must be an integer, got {radius!r}")
    elif (radius := int(radius)) < 1:   # as an int: a numpy integer overflows the box count
        raise ValueError(f"truncation radius must be >= 1, got {radius}")
    L, g = B.im_cholesky, B.genus
    diag = L.diagonal().tolist()
    # a term beyond double range raises FloatingPointError (an ArithmeticError)
    with np.errstate(over="raise", invalid="raise"):
        v = []  # on Python floats, where an overflow gives inf: the budget is checked
        for s, row, d in zip(z.imag.tolist(), L.tolist(), diag):
            for lij, vj in zip(row, v):
                s -= lij * vj
            v.append(s / d)
        vv = sum(x * x for x in v)
        # |v|^2 = Im z . Y^{-1} Im z; the relative pad covers the rounding of the
        # exponent when it is large
        budget = (vv - EXPONENT_FLOOR / math.pi) * (1.0 + 1e-9)
        if not math.isfinite(budget):
            raise FloatingPointError("overflow encountered in Im z . (Im B)^-1 Im z")
        # a box count of over 10,000 digits is not formed (a million-digit power takes
        # seconds): the ball bound below, or else its logarithm, decides
        digits = g * math.log10(2 * radius + 1)
        kept = (2 * radius + 1) ** g if digits < 1e4 else math.inf
        if kept > DEFAULT_TERM_CAP:
            # the cells L^T (m + [-1/2, 1/2)^g) of the listed points are disjoint, of
            # volume det L, and inside the ball |x + v| <= sqrt(budget) + sum_k |L^T e_k| / 2
            reach = math.sqrt(budget) + 0.5 * math.fsum(np.linalg.norm(L, axis=1).tolist())
            try:  # Gamma(g/2 + 1) overflows from g = 342 on, where the box count stays the bound
                kept = math.ceil(min(kept, math.pi ** (g / 2) / math.gamma(g / 2 + 1)
                                     * math.prod(reach / d for d in diag)))
            except OverflowError:
                pass
        if kept > DEFAULT_TERM_CAP:
            raise ValueError(f"radius {_short(radius)} needs {_short(kept, digits)} terms "
                             f"(cap {DEFAULT_TERM_CAP})")
        U = L.T.tolist()
        m = [0] * g
        q = 0.0
        for i in range(g - 1, -1, -1):
            t = v[i]
            for j in range(i + 1, g):
                t += U[i][j] * m[j]
            m[i] = min(max(math.floor(0.5 - t / diag[i]), -radius), radius)
            t += diag[i] * m[i]
            q += t * t
        # the Babai point is in either ellipsoid, and exp overflows on its term above 710.2:
        # 725 leaves the 15 units of exponent rounding that EXPONENT_FLOOR leaves, and the pad
        if math.pi * (vv - q - 1e-9 * budget) > 725.0:
            raise FloatingPointError("overflow encountered in exp")
        try:
            # a small ellipsoid holds at least SPREAD^(g/2) / (Gamma(g/2 + 1) det L)
            # points, and it saves more than its own set-up only when the floor one
            # holds several times that many; the factor 2 in tau allows the
            # exponents a rounding error of ln 2, while the pad of the budget
            # assumes 1e-9 of it, far less below 1e8
            inner = q + SPREAD / math.pi
            if (kept * math.gamma(g / 2 + 1) * math.prod(diag) > 4.0 * SPREAD ** (g / 2)
                    and inner < budget <= 1e8):
                rho = math.sqrt(inner)
                # |L^T m| >= min L_kk for m != 0, so any r up to half of it is a
                # packing radius; g/(4 pi rho) about minimises the bound
                r = min(0.5 * min(diag), g / (4.0 * math.pi * rho))
                # each term of the floor ellipsoid may also round up by one subnormal unit
                tau = (2.0 * math.exp(math.pi * (vv - q)) * _tail_bound(g, r, rho, q)
                       + kept * 2.0 ** -1074)
                re, im = _terms(z, B, _ellipsoid_points(L, v, radius, inner * (1.0 + 1e-9)))
                re, im = _certified(re, tau), _certified(im, tau)
                if re is not None and im is not None:
                    return complex(re, im)
        except ArithmeticError:
            pass
        re, im = _terms(z, B, _ellipsoid_points(L, v, radius, budget))
    return complex(math.fsum(re), math.fsum(im))


def quasi_periodicity_defect(z, m, B: PeriodMatrix, radius: int | None = None,
                             theta_z: complex | None = None) -> float:
    """Relative defect of theta(z + B m) = exp(-pi*i*(B m, m) - 2*pi*i*(m, z)) theta(z).

    Returns |theta(z + Bm) - factor * theta(z)| / (1 + |theta(z)|).  theta_z,
    if given, is riemann_theta(z, B, radius), already evaluated by the caller.
    Printed by `mlsurf theta --shift-m`; vanishes to roundoff for an exact theta.
    """
    z = np.array(z, dtype=complex)
    m = np.asarray(m)
    if z.shape != (B.genus,) or m.shape != (B.genus,):
        raise ValueError(f"z and m must have shape ({B.genus},)")
    if not np.issubdtype(m.dtype, np.integer):
        raise ValueError("m must be an integer vector")
    # as in riemann_theta, and so before Bm is added; riemann_theta refuses a non-finite z
    np.fmod(z.real, 1.0, out=z.real, where=np.isfinite(z.real))
    with np.errstate(over="raise", invalid="raise"):   # B m or z + B m beyond double range
        Bm = B.entries @ m
        shifted = z + Bm
    lhs = riemann_theta(shifted, B, radius)
    if theta_z is None:
        theta_z = riemann_theta(z, B, radius)
    with np.errstate(over="raise", invalid="raise"):
        factor = np.exp(-1j * math.pi * (Bm @ m) - 2j * math.pi * (m @ z))
        return float(abs(lhs - factor * theta_z) / (1.0 + abs(theta_z)))
