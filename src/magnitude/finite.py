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

import numpy as np

from ._numeric import DEFAULT_TOL, Frozen, positive_finite
from .errors import NonpositiveLength, NonpositiveScale, NotHomogeneous, SingularSystem

#: Rows per block of the triangle check; a block works in arrays of
#: _TRIANGLE_BLOCK x n doubles.
_TRIANGLE_BLOCK = 64

#: Rows of the similarity matrix per block of the weight-equation residual.
_RESIDUAL_BLOCK = 64

#: Rows per block of the point-cloud distances.
_CLOUD_BLOCK = 64


class FiniteMetricSpace:
    """Immutable finite metric space backed by a dense distance matrix.

    Parameters
    ----------
    distances : array_like, shape (n, n)
        Symmetric nonnegative matrix with zero diagonal and strictly
        positive off-diagonal entries.
    check_triangle : bool
        Verify the triangle inequality on construction.  The check forms
        the n^3/2 sums d[i,j] + d[j,k] with k >= i, in row blocks on every
        CPU the process may use, and accepts exactly the matrices that the
        naive scan over all (i, j, k) accepts.  It, not the LAPACK solve,
        dominates the time of `finite --matrix`.  Internal constructors that
        build provably metric data disable it.
    """

    __slots__ = ("d",)

    def __init__(self, distances, *, check_triangle=True):
        d = np.array(distances, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {d.shape}")
        n = d.shape[0]
        if n == 0:
            raise ValueError("a metric space needs at least one point")
        if not np.all(np.isfinite(d)):
            i, j = map(int, np.argwhere(~np.isfinite(d))[0])
            raise ValueError(f"non-finite distance at row {i}, column {j}")
        diag = d.diagonal()
        if np.any(diag != 0.0):
            i = int(np.nonzero(diag)[0][0])
            raise ValueError(f"nonzero diagonal entry at row {i}")
        if not np.array_equal(d, d.T):
            i, j = map(int, np.argwhere(d != d.T)[0])
            raise ValueError(f"asymmetric distances at row {i}, column {j}")
        # The n zeros of the diagonal are the only entries allowed to be <= 0.
        if np.count_nonzero(d <= 0.0) > n:
            bad = d <= 0.0
            np.fill_diagonal(bad, False)
            i, j = map(int, np.argwhere(bad)[0])
            raise ValueError(f"nonpositive distance between distinct points {i} and {j}")
        if check_triangle:
            _check_triangle(d)
        d.setflags(write=False)
        self.d = d

    @property
    def n(self) -> int:
        return self.d.shape[0]

    def __repr__(self):
        return f"FiniteMetricSpace(n={self.n})"


def _check_triangle(d):
    """Raise ValueError unless d[i,k] <= d[i,j] + d[j,k] + slack for all i, j, k.

    d must already be symmetric.  The rows are split into blocks of
    _TRIANGLE_BLOCK, and each block takes a min-plus product over its part of
    the upper triangle.  The blocks run on one thread per CPU the process may
    use; numpy releases the GIL inside the ufuncs.  The message names the
    first violated pair (i, k), k > i, in row-major order and the smallest j
    that violates it, whatever order the blocks finish in.
    """
    # The slack absorbs roundoff in distances that sit exactly on the
    # equality case (collinear points).
    slack = 1e-12 * (1.0 + float(d.max()))
    starts = range(0, d.shape[0], _TRIANGLE_BLOCK)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    # Imported here, as LAPACK is in weighting: only checked matrices need it.
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
    """First pair (i, k) of rows i0 .. i0 + _TRIANGLE_BLOCK - 1, k >= i0, in
    row-major order with d[i,k] > d[i,j] + d[j,k] + slack for some j, or None.

    Over the columns k >= i0 it keeps shortest[i, k] = min over j of the
    rounded sum d[i,j] + d[j,k], the sum the naive scan over j compares
    against.  The j = i term is d[i,k] itself.  By symmetry the first
    flagged pair has k > i, and the columns k < i0 repeat earlier blocks.
    """
    rows = d[i0:i0 + _TRIANGLE_BLOCK, i0:]
    cols = np.ascontiguousarray(d[:, i0:i0 + _TRIANGLE_BLOCK])
    shortest = rows.copy()
    tmp = np.empty_like(shortest)
    # errstate is per thread, so it is set here and not by the caller.
    with np.errstate(over="ignore"):
        for j in range(d.shape[0]):
            np.add(cols[j][:, None], d[j, i0:], out=tmp)
            np.minimum(shortest, tmp, out=shortest)
        shortest += slack
    bad = rows > shortest
    if not bad.any():
        return None
    a, c = divmod(int(bad.argmax()), bad.shape[1])
    return i0 + a, i0 + c


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
    blocks of _RESIDUAL_BLOCK rows.

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
    """Z w - 1 for Z = exp(d * (-t)), with Z built _RESIDUAL_BLOCK rows at a time."""
    n = d.shape[0]
    out = np.empty(n)
    buffer = np.empty((min(n, _RESIDUAL_BLOCK), n))
    for i0 in range(0, n, _RESIDUAL_BLOCK):
        block = d[i0:i0 + _RESIDUAL_BLOCK]
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


def _read_rows(path, square: bool) -> np.ndarray:
    """The data lines of a numeric CSV file as the rows of one float array.

    Blank lines are skipped.  A square file has as many columns as data
    lines; otherwise every row has as many entries as the first.  The file
    is read twice, once to count its data lines and once to parse each line
    into its row, so that the array and one line of text are all it holds.
    Errors come in this order: the first token in the file that is not a
    number, an empty file, then the first row of the wrong length.
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
        for i, (lineno, line) in enumerate(_data_lines(lines)):
            width = line.count(",") + 1
            if i == 0:
                expected = n if square else width
                # Allocated only when the first row fits it.
                table = np.empty((n, expected)) if width == expected else None
            if ragged is None and width == expected:
                _parse_row(path, lineno, line, table[i])
            else:
                # The file is rejected, but a non-number anywhere in it
                # takes precedence, so its tokens are still checked.
                _parse_row(path, lineno, line, None)
                if ragged is None:
                    ragged = lineno, width
    if n == 0:
        raise ValueError(f"{path}: no data rows")
    if ragged is not None:
        lineno, width = ragged
        unit = "columns" if square else "coordinates"
        raise ValueError(f"{path}: row {lineno}: expected {expected} {unit}, got {width}")
    return table


def read_distance_matrix(path) -> FiniteMetricSpace:
    """Load a distance matrix from CSV: one row per line, comma-separated.

    Validation errors name the offending row and column (1-based).  Each
    line is parsed straight into its row of one n x n array, which the
    constructor copies: a dense call holds the distance matrix plus one
    n x n working array, here and in weighting.
    """
    return FiniteMetricSpace(_read_rows(path, square=True))


def read_point_cloud(path) -> FiniteMetricSpace:
    """Load a Euclidean point cloud from CSV: one point per line.

    The distances sqrt(sum((a - b)^2)) are formed _CLOUD_BLOCK rows at a
    time, so the work arrays hold _CLOUD_BLOCK x n x dim doubles.
    """
    arr = _read_rows(path, square=False)
    n = arr.shape[0]
    d = np.empty((n, n))
    for i0 in range(0, n, _CLOUD_BLOCK):
        diff = arr[i0:i0 + _CLOUD_BLOCK, None, :] - arr[None, :, :]
        diff *= diff
        diff.sum(axis=2, out=d[i0:i0 + _CLOUD_BLOCK])
    np.sqrt(d, out=d)
    np.fill_diagonal(d, 0.0)
    # Euclidean distances satisfy the triangle inequality by construction, so
    # the O(n^3) check could only flag roundoff; the other checks still run.
    return FiniteMetricSpace(d, check_triangle=False)
