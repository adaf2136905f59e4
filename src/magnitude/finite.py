"""Finite metric spaces and their magnitude via the weight equation.

A finite metric space is held as a dense symmetric distance matrix d.  Its
similarity matrix Z has entries exp(-d[i, j]); a weighting is a vector w
with Z w = 1 (all-ones right-hand side) and the magnitude is sum(w).  The
solver is LU with partial pivoting plus a reciprocal-condition estimate,
because Z may be indefinite for an arbitrary finite metric.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ._numeric import DEFAULT_TOL
from .errors import NonpositiveLength, NonpositiveScale, NotHomogeneous, SingularSystem

#: Rows per block of the triangle check; a block works in arrays of
#: _TRIANGLE_BLOCK x n doubles.
_TRIANGLE_BLOCK = 64


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
        offdiag = ~np.eye(n, dtype=bool)
        if np.any(d[offdiag] <= 0.0):
            i, j = map(int, np.argwhere((d <= 0.0) & offdiag)[0])
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
    # Imported here, as scipy is in weighting: only checked matrices need it.
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


@dataclass(frozen=True)
class Weighting:
    """Solution of the weight equation Z w = 1.

    residual_norm is the max-norm of Z w - 1 and rcond the reciprocal
    condition estimate of Z in the 1-norm.
    """

    w: np.ndarray
    residual_norm: float
    rcond: float


def similarity_matrix(X: FiniteMetricSpace) -> np.ndarray:
    """Matrix of exp(-d(i, j)): symmetric with unit diagonal."""
    return np.exp(-X.d)


def weighting(X: FiniteMetricSpace, tol: float = DEFAULT_TOL) -> Weighting:
    """Solve the weight equation for X.

    Raises
    ------
    SingularSystem
        If the similarity matrix has a zero pivot, its reciprocal condition
        estimate falls below tol, or the residual cannot be brought below
        tol by one step of iterative refinement.
    """
    # Imported here, not at module level: scipy.linalg is most of the import
    # time of the package, and only dense solves need it.
    from scipy.linalg import get_lapack_funcs

    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be in (0, 1), got {tol}")
    Z = similarity_matrix(X)
    anorm = float(np.linalg.norm(Z, 1))
    getrf, gecon, getrs = get_lapack_funcs(("getrf", "gecon", "getrs"), (Z,))
    lu, piv, info = getrf(Z, overwrite_a=False)
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
    residual = Z @ w - 1.0
    rnorm = float(np.abs(residual).max())
    if rnorm > tol:
        corr, info = getrs(lu, piv, residual)
        w = w - corr
        rnorm = float(np.abs(Z @ w - 1.0).max())
        if rnorm > tol:
            raise SingularSystem(
                f"weight-equation residual {rnorm:.3e} exceeds tol {tol:.3e}"
            )
    w.setflags(write=False)
    return Weighting(w=w, residual_norm=rnorm, rcond=rcond)


def magnitude_finite(X: FiniteMetricSpace, tol: float = DEFAULT_TOL) -> float:
    """Magnitude of X: the sum of the weights."""
    return float(weighting(X, tol).w.sum())


def scale(X: FiniteMetricSpace, t: float) -> FiniteMetricSpace:
    """Return X with all distances multiplied by t > 0."""
    if not (t > 0.0) or not np.isfinite(t):
        raise NonpositiveScale(f"scale factor must be positive and finite, got {t}")
    # An overflowing product is reported by the constructor's finiteness check.
    with np.errstate(over="ignore"):
        d = X.d * float(t)
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


def _circle_distance_row(circumference: float, n: int) -> np.ndarray:
    """Arc-length distances from point 0 to points 0..n-1 of an n-point circle grid."""
    if not circumference > 0.0 or not np.isfinite(circumference):
        raise NonpositiveLength(
            f"circumference must be positive and finite, got {circumference}"
        )
    if n < 1:
        raise ValueError(f"need at least one point, got {n}")
    step = circumference / n
    if n > 1 and step == 0.0:
        raise ValueError(f"point spacing {circumference}/{n} underflows to zero")
    idx = np.arange(n)
    return np.minimum(idx, n - idx) * step


def circle_points(circumference: float, n: int) -> FiniteMetricSpace:
    """n evenly spaced points on a circle, with arc-length distances."""
    row = _circle_distance_row(circumference, n)
    idx = np.arange(n)
    # d[i, j] depends only on |i - j|, and row[k] = row[n - k].
    return FiniteMetricSpace(row[np.abs(idx[:, None] - idx[None, :])], check_triangle=False)


def circle_points_magnitude(circumference: float, n: int) -> float:
    """Magnitude of circle_points(circumference, n) in O(n) time and memory.

    The grid is homogeneous, so its magnitude is n over one similarity row
    sum.  The row is computed with the same float operations as row 0 of
    circle_points, so the value equals
    magnitude_homogeneous_finite(circle_points(circumference, n)) exactly.
    """
    row = _circle_distance_row(circumference, n)
    return n / float(np.exp(-row).sum())


def _read_csv_rows(path) -> list[tuple[int, list[float]]]:
    """Non-blank lines of a numeric CSV file as (line number, values) pairs."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            entries = []
            for col, tok in enumerate(line.split(","), start=1):
                try:
                    entries.append(float(tok))
                except ValueError:
                    raise ValueError(
                        f"{path}: row {lineno}, column {col}: not a number: {tok.strip()!r}"
                    ) from None
            rows.append((lineno, entries))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return rows


def read_distance_matrix(path) -> FiniteMetricSpace:
    """Load a distance matrix from CSV: one row per line, comma-separated.

    Validation errors name the offending row and column (1-based).
    """
    rows = _read_csv_rows(path)
    n = len(rows)
    for lineno, entries in rows:
        if len(entries) != n:
            raise ValueError(
                f"{path}: row {lineno}: expected {n} columns, got {len(entries)}"
            )
    return FiniteMetricSpace([entries for _, entries in rows])


def read_point_cloud(path) -> FiniteMetricSpace:
    """Load a Euclidean point cloud from CSV: one point per line."""
    pts = _read_csv_rows(path)
    dim = len(pts[0][1])
    for lineno, coords in pts:
        if len(coords) != dim:
            raise ValueError(
                f"{path}: row {lineno}: expected {dim} coordinates, got {len(coords)}"
            )
    arr = np.array([coords for _, coords in pts])
    diff = arr[:, None, :] - arr[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(d, 0.0)
    # Euclidean distances satisfy the triangle inequality by construction, so
    # the O(n^3) check could only flag roundoff; the other checks still run.
    return FiniteMetricSpace(d, check_triangle=False)
