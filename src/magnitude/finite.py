"""Finite metric spaces and their magnitude via the weight equation.

A finite metric space is held as a dense symmetric distance matrix d.  Its
similarity matrix Z has entries exp(-d[i, j]); a weighting is a vector w
with Z w = 1 (all-ones right-hand side) and the magnitude is sum(w).  The
solver is LU with partial pivoting plus a reciprocal-condition estimate,
because Z may be indefinite for an arbitrary finite metric.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np

from ._numeric import _U, DEFAULT_TOL, Frozen, positive_finite
from .errors import NonpositiveLength, NonpositiveScale, NotHomogeneous, SingularSystem

#: Rows per block of the triangle check, its embedding proof, the residual and
#: the point-cloud distances; a block works in arrays of _ROW_BLOCK x n doubles.
_ROW_BLOCK = 64

#: Rows per block of the symmetry check.  Comparing rows with transposed
#: columns, numpy buffers both operands, up to 8192 doubles each, so a block
#: holds about 16 x _SYMMETRY_BLOCK x n bytes and one more byte per entry.
_SYMMETRY_BLOCK = 8

#: Residual Gram diagonal below which the embedding proof takes no more
#: coordinates.  Distances are scaled into [0, 1), so Gram entries are at
#: most 1 and carry a few u of rounding: the residual that uniform clouds
#: leave at their full rank read u at rank 2 and 12 u at rank 90 (u = 2^-53).
#: A further dimension of extent below sqrt(2^-45), about 1.7e-7 of the
#: largest distance, is lost in that rounding, yet moves some distances by
#: more than the proof allows (about 3e-13 of it), so the proof fails on it
#: whatever the floor.
_GRAM_FLOOR = 2.0**-45

#: Bound on the verification's subnormal rounding, in the same units: the
#: scaled distances round by at most 2^-1075 and each squared coordinate
#: difference by as much, so a distance of r coordinates moves by at most
#: sqrt(r 2^-1074) + 2^-1075, below 2^-500 for any r < 2^70.
_SUBNORMAL = 2.0**-500


class FiniteMetricSpace:
    """Immutable finite metric space backed by a dense distance matrix.

    Parameters
    ----------
    distances : array_like, shape (n, n)
        Symmetric nonnegative matrix with zero diagonal and strictly
        positive off-diagonal entries.
    check_triangle : bool
        Verify the triangle inequality on construction.  The check accepts
        exactly the matrices that the naive scan over all (i, j, k) accepts.
        It first tries to prove in O(n^2 r) that the distances are those of
        points in R^r, r <= n / 16, to within a bound under which the scan
        must accept; point clouds in few dimensions pass so and skip it.
        Otherwise it forms the n^3/2 sums d[i,j] + d[j,k] with k >= i, in
        row blocks on every CPU the process may use, and that scan, not the
        LAPACK solve, dominates the time of `finite --matrix`.  Internal
        constructors that build provably metric data disable it.

    Besides its copy of the distances, the constructor's other checks hold
    no n x n array: the matrix's extremes show a non-finite entry, the
    off-diagonal minimum a nonpositive one, and symmetry is compared in
    blocks of _SYMMETRY_BLOCK rows.
    """

    __slots__ = ("d",)

    def __init__(self, distances, *, check_triangle=True):
        d = np.array(distances, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {d.shape}")
        n = d.shape[0]
        if n == 0:
            raise ValueError("a metric space needs at least one point")
        # A NaN anywhere makes both extremes NaN.
        if not (math.isfinite(d.min()) and math.isfinite(d.max())):
            i, j = map(int, np.argwhere(~np.isfinite(d))[0])
            raise ValueError(f"non-finite distance at row {i}, column {j}")
        diag = d.diagonal()
        if np.any(diag != 0.0):
            i = int(np.nonzero(diag)[0][0])
            raise ValueError(f"nonzero diagonal entry at row {i}")
        _check_symmetric(d)
        # The diagonal, zeros of either sign here, is the only place allowed
        # to be <= 0.
        zeros = diag.copy()
        np.fill_diagonal(d, math.inf)
        if d.min() <= 0.0:
            i, j = map(int, np.argwhere(d <= 0.0)[0])
            raise ValueError(f"nonpositive distance between distinct points {i} and {j}")
        np.fill_diagonal(d, zeros)
        if check_triangle:
            _check_triangle(d)
        d.setflags(write=False)
        self.d = d

    @property
    def n(self) -> int:
        return self.d.shape[0]

    def __repr__(self):
        return f"FiniteMetricSpace(n={self.n})"


def _check_symmetric(d):
    """Raise ValueError naming the first entry in row-major order with
    d[i,j] != d[j,i], comparing the upper triangle a block of rows at a time.

    The first such entry has j > i, as its mirror (j, i) comes later, so a
    block of rows from i0 compares only its columns from i0 on.
    """
    for i0 in range(0, d.shape[0], _SYMMETRY_BLOCK):
        rows = d[i0:i0 + _SYMMETRY_BLOCK, i0:]
        mirror = d[i0:, i0:i0 + _SYMMETRY_BLOCK].T
        if not np.array_equal(rows, mirror):
            i, j = map(int, np.argwhere(rows != mirror)[0])
            raise ValueError(f"asymmetric distances at row {i0 + i}, column {i0 + j}")


def _check_triangle(d):
    """Raise ValueError unless d[i,k] <= d[i,j] + d[j,k] + slack for all i, j, k.

    d must already be symmetric.  When _embeds proves that the naive scan
    over all (i, j, k) accepts d, which it does for the distances of point
    clouds in few dimensions, the check returns at once.  Otherwise the rows
    are split into blocks of _ROW_BLOCK, and each block takes a
    min-plus product over its part of the upper triangle.  The blocks run on
    one thread per CPU the process may use; numpy releases the GIL inside
    the ufuncs.  The message names the first violated pair (i, k), k > i, in
    row-major order and the smallest j that violates it, whatever order the
    blocks finish in.  Only the scan rejects, so the matrices accepted and
    the messages are the scan's.
    """
    # The slack absorbs roundoff in distances that sit exactly on the
    # equality case (collinear points).
    slack = 1e-12 * (1.0 + float(d.max()))
    if _embeds(d, slack):
        return
    starts = range(0, d.shape[0], _ROW_BLOCK)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    # Imported here, as LAPACK is in weighting: only checked matrices that
    # the proof declines need it.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(min(len(starts), cpus)) as pool:
        futures = [pool.submit(_triangle_block, d, i0, slack) for i0 in starts]
        try:
            flagged = next(filter(None, (f.result() for f in futures)), None)
        finally:
            for f in futures:
                f.cancel()
    if flagged is None:
        return
    i, k = flagged
    # A flagged pair has such a j: the block's test is this one, minimised
    # over j, and rounding is monotone.  An inf sum is no violation.
    with np.errstate(over="ignore"):
        j = int(np.argmax(d[i, k] > d[i] + d[k] + slack))
    raise ValueError(f"triangle inequality violated: d[{i},{k}] > d[{i},{j}] + d[{j},{k}]")


def _triangle_block(d, i0, slack):
    """First pair (i, k) of rows i0 .. i0 + _ROW_BLOCK - 1, k >= i0, in
    row-major order with d[i,k] > d[i,j] + d[j,k] + slack for some j, or None.

    For each column k >= i0 it forms shortest[k - i0, i - i0] = min over j
    of the rounded sum d[i,j] + d[k,j]: one contiguous add of row k to the
    block's rows, then a min along each row.  By symmetry d[k,j] = d[j,k],
    so these are the sums the naive scan over j compares against; the j = i
    term is d[i,k] itself.  By symmetry too the first flagged pair has
    k > i, and the columns k < i0 repeat earlier blocks.
    """
    n = d.shape[0]
    rows = d[i0:i0 + _ROW_BLOCK]
    shortest = np.empty((n - i0, len(rows)))
    tmp = np.empty_like(rows)
    # errstate is per thread, so it is set here and not by the caller.
    with np.errstate(over="ignore"):
        for k in range(i0, n):
            np.add(rows, d[k], out=tmp)
            np.minimum.reduce(tmp, axis=1, out=shortest[k - i0])
        shortest += slack
    # bad[k - i0, i - i0] flags d[k,i], which is d[i,k].
    bad = d[i0:, i0:i0 + len(rows)] > shortest
    if not bad.any():
        return None
    a, c = divmod(int(bad.T.argmax()), n - i0)
    return i0 + a, i0 + c


def _embeds(d, slack) -> bool:
    """Whether d is proved to lie within eta of the distances of some points
    x_i of R^r held in doubles, for an eta under which the naive scan, the
    test d[i,k] > d[i,j] + d[j,k] + slack rounded as written, flags nothing.

    Soundness.  Let s = slack, u = 2^-53 and D = max d.  If
    |d_ij - |x_i - x_j|| <= eta for all i, j, the points' own triangle
    inequality gives d_ik <= d_ij + d_jk + 3 eta.  Rounded to nearest,
    fl(fl(d_ij + d_jk) + s) >= (d_ij + d_jk)(1 - u)^2 + s(1 - u)
    >= d_ij + d_jk + s(1 - u) - 4uD, and a sum that overflows to inf flags
    nothing.  So 3 eta <= s(1 - u) - 4uD makes the scan accept.  eta is
    0.99 of that bound: the 1 % covers the rounding of eta and of the test.

    Points.  d and eta are scaled by the power of two 2^e that puts D in
    [1/2, 1), exactly but for subnormals, so no square overflows; all below
    is in those units.  The Gram matrix based
    at point 0, G_ij = (d_i0^2 + d_j0^2 - d_ij^2) / 2, is positive
    semidefinite of rank r when d is Euclidean in R^r, and the rows of its
    pivoted Cholesky factor L (G = L L^T) are points with distances d.
    _gram_points forms L a column at a time.  The points need not be
    accurate: only the verification enters the proof.

    Verification.  For each block of _ROW_BLOCK rows, over its columns
    from the block's first row on (d is symmetric), the distances
    e_ij = sqrt(sum_s (x_is - x_js)^2) are formed in this difference form,
    since |x_i|^2 - 2 x_i . x_j + |x_j|^2 would cancel.  Rounded, the r
    differences, r squares and r - 1 additions of positive terms put the sum
    within gamma_(r+2) = (r + 2)u / (1 - (r + 2)u) of its value, relatively,
    and the square root halves that and adds u: the computed ehat is within
    (r/2 + 2)u ehat of e to first order, and within _SUBNORMAL more for
    underflow.  So |ehat - d| + (r/2 + 3)u ehat <= eta - _SUBNORMAL, the test,
    implies |e - d| <= eta; the extra u covers the second-order terms for
    any r < 2^20.  The first block that fails it, or yields a NaN, ends the
    proof with False.

    Cost.  The scan forms about n^3 / 2 sums and as many minima.  The
    factor costs about n r^2 operations, and the verification about 3r + 7
    per pair, (3r + 7) n^2 / 2 in all.  So r is capped at n / 16: a proof
    refused in the verification, the dearest way to fail, then adds about
    3/32 of the scan's operations, and one that reaches the cap n^3 / 256.
    Below 16 points the scan alone runs.
    """
    n = d.shape[0]
    cap = n // 16
    top = float(d.max())
    if cap == 0 or not top > 0.0:
        return False
    e = -math.frexp(top)[1]
    eta = 0.99 * (slack * (1.0 - _U) - 4.0 * _U * top) / 3.0
    # A smaller eta only tightens the test; this one scales without overflow.
    eta = math.ldexp(min(eta, top), e) - _SUBNORMAL
    # Points off a non-Euclidean d may overflow; inf and NaN fail the test.
    with np.errstate(over="ignore", invalid="ignore"):
        x = _gram_points(d, e, cap)
        if x is None:
            return False
        rounding = (len(x) / 2 + 3) * _U
        for i0 in range(0, n, _ROW_BLOCK):
            i1 = min(i0 + _ROW_BLOCK, n)
            dist = np.zeros((i1 - i0, n - i0))
            tmp = np.empty_like(dist)
            for xs in x:
                np.subtract(xs[i0:i1, None], xs[i0:], out=tmp)
                np.square(tmp, out=tmp)
                dist += tmp
            np.sqrt(dist, out=dist)
            np.ldexp(d[i0:i1, i0:], e, out=tmp)
            tmp -= dist
            np.abs(tmp, out=tmp)
            dist *= rounding
            tmp += dist
            if not tmp.max() <= eta:
                return False
    return True


def _gram_points(d, e, cap):
    """Rows of the pivoted Cholesky factor of the Gram matrix of d 2^e based
    at point 0, as an (r, n) array of the points' coordinates, or None when
    cap rows leave a residual diagonal above _GRAM_FLOOR.

    Pivot column p is G_ip = (d_i0^2 + d_p0^2 - d_ip^2) / 2, formed from row
    p of d, so no n x n Gram is held; the next pivot is the largest residual
    diagonal G_ii - sum_s L_is^2.
    """
    n = d.shape[0]
    sq0 = np.square(np.ldexp(d[0], e))
    residual = sq0.copy()
    x = np.empty((cap, n))
    for r in range(cap + 1):
        p = int(residual.argmax())
        if not residual[p] > _GRAM_FLOOR:
            return x[:r]
        if r == cap:
            return None
        col = x[r]
        np.ldexp(d[p], e, out=col)
        np.square(col, out=col)
        np.subtract(sq0, col, out=col)
        col += sq0[p]
        col *= 0.5
        col -= x[:r, p] @ x[:r]
        col /= math.sqrt(residual[p])
        residual -= np.square(col)


class Weighting(Frozen):
    """Solution of the weight equation Z w = 1.

    residual_norm is the max-norm of Z w - 1 and rcond the reciprocal
    condition estimate of Z in the 1-norm.
    """

    __slots__ = ("w", "residual_norm", "rcond")

    def __init__(self, w: np.ndarray, residual_norm: float, rcond: float):
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "residual_norm", residual_norm)
        object.__setattr__(self, "rcond", rcond)


def similarity_matrix(X: FiniteMetricSpace) -> np.ndarray:
    """Matrix of exp(-d(i, j)): symmetric with unit diagonal."""
    return np.exp(-X.d)


def _flapack_path() -> str:
    """Where scipy keeps its LAPACK extension, found without importing scipy."""
    root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    return os.path.join(root, "linalg", "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])


@functools.cache
def _lapack():
    """scipy's double-precision dgetrf, dgecon and dgetrs.

    These are the routines get_lapack_funcs picks for a float64 matrix.  The
    extension that holds them needs only numpy's C API, so it is loaded by
    itself.  Importing scipy.linalg would run scipy's __init__, whose
    array-API layer copies numpy's namespace and so loads numpy.f2py,
    numpy.testing, numpy.random and numpy.ma: that import costs more than
    the LU of a 400-point matrix.  Without the file, scipy.linalg picks them.
    """
    path = _flapack_path()
    if not os.path.isfile(path):
        from scipy.linalg import get_lapack_funcs

        return get_lapack_funcs(("getrf", "gecon", "getrs"), dtype=np.float64)
    spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
    flapack = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(flapack)
    return flapack.dgetrf, flapack.dgecon, flapack.dgetrs


def weighting(X: FiniteMetricSpace, tol: float = DEFAULT_TOL, t: float = 1.0) -> Weighting:
    """Solve the weight equation for X scaled by t, that is for tX.

    Z = exp(-t d) is formed as exp(d * (-t)), which for every t equals
    exp(-d') with d' = scale(X, t).d, so the result is that of
    weighting(scale(X, t)) without a scaled copy of X.d.  Besides X.d the
    solve holds one n x n array: the similarity matrix, built in place and
    then overwritten by its LU factors.  The residual is formed from X.d in
    blocks of _ROW_BLOCK rows.

    Raises
    ------
    NonpositiveScale
        If t is not positive and finite.
    ValueError
        If t d has an entry that overflows, or a distance between distinct
        points that underflows to 0: the error scale(X, t) raises.
    SingularSystem
        If the similarity matrix has a zero pivot, its reciprocal condition
        estimate falls below tol, or the residual cannot be brought below
        tol by one step of iterative refinement.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be in (0, 1), got {tol}")
    t = float(positive_finite(t, "scale factor", NonpositiveScale))
    # An overflowing product is -inf, one that underflows -0.0.
    with np.errstate(over="ignore"):
        Z = np.multiply(X.d, -t)
    # With the diagonal at -1, every entry is finite and negative exactly
    # when scale(X, t) would pass the constructor's checks.
    np.fill_diagonal(Z, -1.0)
    if not (Z.min() > -math.inf and Z.max() < 0.0):
        scale(X, t)  # raises, naming the first offending entry
    np.fill_diagonal(Z, 0.0)
    np.exp(Z, out=Z)
    # The 1-norm is the largest column sum; Z > 0, so no abs is needed.
    anorm = float(Z.sum(axis=0).max())
    getrf, gecon, getrs = _lapack()
    # Z is exactly symmetric, so Z.T is Z in Fortran order, which getrf
    # factors in place without a copy.
    lu, piv, info = getrf(Z.T, overwrite_a=True)
    if info > 0:
        raise SingularSystem("similarity matrix is exactly singular (zero pivot)")
    if info < 0:
        raise RuntimeError(f"LAPACK getrf failed with info={info}")
    rcond, info = gecon(lu, anorm, norm="1")
    rcond = float(rcond)
    if rcond < tol:
        raise SingularSystem(
            f"reciprocal condition estimate {rcond:.3e} below tol {tol:.3e}"
        )
    ones = np.ones(X.n)
    w, info = getrs(lu, piv, ones)
    residual = _residual(X.d, t, w)
    rnorm = float(np.abs(residual).max())
    if rnorm > tol:
        corr, info = getrs(lu, piv, residual)
        w = w - corr
        rnorm = float(np.abs(_residual(X.d, t, w)).max())
        if rnorm > tol:
            raise SingularSystem(
                f"weight-equation residual {rnorm:.3e} exceeds tol {tol:.3e}"
            )
    w.setflags(write=False)
    return Weighting(w=w, residual_norm=rnorm, rcond=rcond)


def _residual(d, t, w):
    """Z w - 1 for Z = exp(d * (-t)), with Z built _ROW_BLOCK rows at a time."""
    n = d.shape[0]
    out = np.empty(n)
    buffer = np.empty((min(n, _ROW_BLOCK), n))
    for i0 in range(0, n, _ROW_BLOCK):
        block = d[i0:i0 + _ROW_BLOCK]
        rows = buffer[:len(block)]
        np.multiply(block, -t, out=rows)
        np.exp(rows, out=rows)
        np.matmul(rows, w, out=out[i0:i0 + len(block)])
    out -= 1.0
    return out


def magnitude_finite(X: FiniteMetricSpace, tol: float = DEFAULT_TOL) -> float:
    """Magnitude of X: the sum of the weights."""
    return float(weighting(X, tol).w.sum())


def scale(X: FiniteMetricSpace, t: float) -> FiniteMetricSpace:
    """Return X with all distances multiplied by t > 0."""
    t = float(positive_finite(t, "scale factor", NonpositiveScale))
    # An overflowing product is reported by the constructor's finiteness check.
    with np.errstate(over="ignore"):
        d = X.d * t
    # Scaling preserves all metric axioms; skip the O(n^3) recheck.
    return FiniteMetricSpace(d, check_triangle=False)


def magnitude_homogeneous_finite(X: FiniteMetricSpace, tol: float = DEFAULT_TOL) -> float:
    """Magnitude of a homogeneous finite space: n / (similarity row sum).

    Raises NotHomogeneous when the row sums differ by more than tol.
    """
    sums = similarity_matrix(X).sum(axis=1)
    spread = float(sums.max() - sums.min())
    if spread > tol:
        raise NotHomogeneous(
            f"similarity row sums spread {spread:.3e} exceeds tol {tol:.3e}"
        )
    return X.n / float(sums[0])


def circle_points(circumference: float, n: int) -> FiniteMetricSpace:
    """n evenly spaced points on a circle, with arc-length distances: the dense
    reference of spheres.circle_points_magnitude.  A spacing that underflows
    to 0 is refused by the constructor, as zero distances between points."""
    positive_finite(circumference, "circumference", NonpositiveLength)
    if n < 1:
        raise ValueError(f"need at least one point, got {n}")
    step = circumference / n
    idx = np.arange(n)
    row = np.minimum(idx, n - idx) * step
    # d[i, j] depends only on |i - j|, and row[k] = row[n - k].
    return FiniteMetricSpace(row[np.abs(idx[:, None] - idx[None, :])], check_triangle=False)


def _data_lines(lines):
    """(line number, stripped line) for the non-blank lines of a text file."""
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if line:
            yield lineno, line


def _tokens(line):
    """The comma-separated tokens of line, one at a time."""
    start = 0
    while (end := line.find(",", start)) >= 0:
        yield line[start:end]
        start = end + 1
    yield line[start:]


def _parse_row(path, lineno, line, out):
    """Store the numbers of a data line in out, or only check them when out is None.

    A token that float() rejects raises ValueError naming its row and column.
    """
    if out is not None:
        try:
            out[:] = list(map(float, line.split(",")))
            return
        except ValueError:
            pass
    # One token at a time, so that a long line that is not stored costs
    # no more memory than its text.
    for col, tok in enumerate(_tokens(line), start=1):
        try:
            float(tok)
        except ValueError:
            raise ValueError(
                f"{path}: row {lineno}, column {col}: not a number: {tok.strip()!r}"
            ) from None


#: Whether blocks of plain decimals are parsed by _plain_block, which divides
#: in long double and reads the low bits of each quotient's significand: it
#: needs x87 extended or IEEE binary128, stored little-endian, not IBM
#: double-double nor a long double that is binary64.  Otherwise every line
#: goes through _parse_row; both store the same bits.
_EXACT_DECIMALS = np.finfo(np.longdouble).nmant in (63, 112) and sys.byteorder == "little"

#: Characters per block of the reader: about 6 lines of a 1200-point
#: distance file.
_PARSE_BLOCK = 1 << 17

#: Maps a plain block's newlines to commas for np.fromstring.
_NEWLINES_TO_COMMAS = bytes.maketrans(b"\n", b",")

#: 10**f for the f digits after the point that a plain token may have, each
#: exact in a 64-bit significand (5**27 < 2**63).
_POW10 = np.array([10**f for f in range(28)], dtype=np.longdouble)

#: A token's digits, read as one integer, are exact below this.
_MANTISSA_LIMIT = 10**18


def _plain_layout(data: bytes, shape):
    """(starts, ends, negative, f) of data, shape[0] lines of shape[1] plain
    decimals each ending in a newline, or None when data is not that.

    Token t is data[starts[t]:ends[t]]; negative flags the tokens that
    start with "-", and f counts each token's digits after the point.
    """
    a = np.frombuffer(data, np.uint8)
    if a.max() > ord("9"):
        return None
    # Every byte below "0" ends a token or is its sign or point.
    marks = np.flatnonzero(a < ord("0"))
    kinds = a[marks]
    rows, width = shape
    newlines, commas, signs, points = np.bincount(kinds, minlength=ord("0"))[list(b"\n,-.")]
    if newlines + commas + signs + points != len(kinds) or newlines != rows or commas != rows * (width - 1):
        return None
    # seps[t] indexes the separator that ends token t in marks.
    seps = np.flatnonzero(kinds <= ord(","))
    if not np.all(kinds[seps[width - 1::width]] == ord("\n")):
        return None  # a line of the wrong length
    ends = marks[seps]
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    # A point is its token's last mark, and a sign its first, at its first
    # byte; the counts rule out any other.  kinds[-1] is a newline.
    pointed = kinds[seps - 1] == ord(".")
    firsts = np.empty_like(seps)
    firsts[0] = 0
    firsts[1:] = seps[:-1] + 1
    negative = (kinds[firsts] == ord("-")) & (marks[firsts] == starts)
    if np.count_nonzero(pointed) != points or np.count_nonzero(negative) != signs:
        return None
    if np.any(ends - starts - pointed - negative < 1):
        return None  # a token without digits
    f = ends - marks[seps - 1] - 1
    f[~pointed] = 0
    return starts, ends, negative, f


def _binary64_midpoints(x):
    """Which entries of the long double array x, in the normal range of
    doubles, lie halfway between two adjacent doubles: those whose last
    nmant - 52 significand bits are 100...0, read from the low 64 bits of
    each entry (little-endian)."""
    extra = np.finfo(np.longdouble).nmant - 52
    low = np.ndarray(len(x), np.uint64, x, strides=(x.itemsize,))
    return (low & np.uint64((1 << extra) - 1)) == np.uint64(1 << (extra - 1))


def _plain_block(lines, out) -> bool:
    """Store in out what float() returns for each token of lines, or return
    False when they are not plain decimals.

    The lines hold out.shape[1] comma-separated tokens each.  They are
    plain when every token is an optional "-", then digits with at most one
    ".", and has at least one digit.  A token's digits, read as one integer
    w with the point and sign dropped, are exact in int64 and in a 64-bit
    significand when w < 10**18, and with f digits after the point 10**f is
    exact for f <= 27.  So x = w / 10**f in long double is one rounding of
    the token's value, and rounding x to a double gives float()'s value
    unless x is a binary64 midpoint (the one just below a power of two
    included), where the first rounding may have landed on the tie.  Those
    tokens, and those with w >= 10**18 (strtoll saturates at 2**63 - 1) or
    f > 27, are parsed by float() instead.
    """
    data = "\n".join([*lines, ""])
    if not data.isascii():
        return False
    data = data.encode("ascii")
    layout = _plain_layout(data, out.shape)
    if layout is None:
        return False
    starts, ends, negative, f = layout
    digits = data.translate(_NEWLINES_TO_COMMAS, b"-.")[:-1]
    w = np.fromstring(digits, dtype=np.int64, sep=",")
    # numpy 1.x returns a short array where numpy 2 raises; the checks above
    # rule both out, and this one keeps it so.
    if len(w) != out.size:
        return False
    x = w.astype(np.longdouble)
    x /= _POW10[np.minimum(f, len(_POW10) - 1)]
    values = x.astype(np.float64)
    values[negative] *= -1.0
    slow = _binary64_midpoints(x) | (w >= _MANTISSA_LIMIT) | (f >= len(_POW10))
    for t in np.flatnonzero(slow).tolist():
        values[t] = float(data[starts[t]:ends[t]])
    out.reshape(-1)[:] = values
    return True


def _read_rows(path, square: bool) -> np.ndarray:
    """The data lines of a numeric CSV file as the rows of one float array.

    Blank lines are skipped.  A square file has as many columns as data
    lines; otherwise every row has as many entries as the first.  The file
    is read twice, once to count its data lines and once to parse them, so
    that the array and about _PARSE_BLOCK characters of text are all it
    holds.
    Rows of the right length are parsed a block at a time: a block of plain
    decimals by one vectorised step (_plain_block), any other line by line
    with float(), both to float()'s bits.  Errors come in this order: the
    first token in the file that is not a number, an empty file, then the
    first row of the wrong length.
    """
    with open(path, "r", encoding="utf-8") as fh:
        # A pipe cannot be read twice; its lines are kept as text instead.
        lines = fh if fh.seekable() else fh.readlines()
        n = 0
        try:
            for _ in _data_lines(lines):
                n += 1
        except UnicodeDecodeError:
            pass  # the parse below meets it after the same lines
        if lines is fh:
            fh.seek(0)
        ragged = None
        pending = []  # (line number, line) of the rows not yet parsed
        chars = 0  # their length
        done = 0  # rows of table parsed

        def parse(lineno, line, row):
            nonlocal ragged
            width = line.count(",") + 1
            if ragged is None and width == expected:
                _parse_row(path, lineno, line, row)
                return
            # The file is rejected, but a non-number anywhere in it takes
            # precedence, so its tokens are still checked.
            _parse_row(path, lineno, line, None)
            if ragged is None:
                ragged = lineno, width

        def flush():
            nonlocal chars, done
            if not pending:
                return
            rows = table[done:done + len(pending)]
            if not (_EXACT_DECIMALS and _plain_block([line for _, line in pending], rows)):
                for (lineno, line), row in zip(pending, rows):
                    parse(lineno, line, row)
            done += len(pending)
            pending.clear()
            chars = 0

        try:
            for i, (lineno, line) in enumerate(_data_lines(lines)):
                if i == 0:
                    width = line.count(",") + 1
                    expected = n if square else width
                    # Allocated only when the first row fits it.
                    table = np.empty((n, expected)) if width == expected else None
                if ragged is None and table is not None:
                    pending.append((lineno, line))
                    chars += len(line)
                    if chars >= _PARSE_BLOCK:
                        flush()
                else:
                    parse(lineno, line, None)
        except UnicodeDecodeError:
            flush()  # a non-number in the lines before it comes first
            raise
        flush()
    if n == 0:
        raise ValueError(f"{path}: no data rows")
    if ragged is not None:
        lineno, width = ragged
        unit = "columns" if square else "coordinates"
        raise ValueError(f"{path}: row {lineno}: expected {expected} {unit}, got {width}")
    return table


def read_distance_matrix(path) -> FiniteMetricSpace:
    """Load a distance matrix from CSV: one row per line, comma-separated.

    Validation errors name the offending row and column (1-based).  The
    lines are parsed straight into the rows of one n x n array, which the
    constructor copies: a dense call holds the distance matrix plus one
    n x n working array, here and in weighting.
    """
    return FiniteMetricSpace(_read_rows(path, square=True))


def read_point_cloud(path) -> FiniteMetricSpace:
    """Load a Euclidean point cloud from CSV: one point per line.

    The distances sqrt(sum((a - b)^2)) are formed _ROW_BLOCK rows at a
    time, so the work arrays hold _ROW_BLOCK x n x dim doubles.
    """
    arr = _read_rows(path, square=False)
    n = arr.shape[0]
    d = np.empty((n, n))
    for i0 in range(0, n, _ROW_BLOCK):
        diff = arr[i0:i0 + _ROW_BLOCK, None, :] - arr[None, :, :]
        diff *= diff
        diff.sum(axis=2, out=d[i0:i0 + _ROW_BLOCK])
    np.sqrt(d, out=d)
    np.fill_diagonal(d, 0.0)
    # Euclidean distances satisfy the triangle inequality by construction, so
    # the O(n^3) check could only flag roundoff; the other checks still run.
    return FiniteMetricSpace(d, check_triangle=False)
