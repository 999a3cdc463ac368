"""Staggered summation-by-parts difference operators in one dimension.

Two operator families are provided for the first-order wave system on a
staggered pair of subgrids:

* ``SbpOperatorSet1D`` -- bounded interval, primary points on both ends.
  Fourth-order interior stencil, second-order boundary closures over four
  primary and three dual points per side, diagonal norms, and boundary
  projection vectors that evaluate the dual field at the interval endpoints.
  The defining identity is

      A^p D^v + (A^v D^p)^T  ==  -e_L proj_L^T + e_R proj_R^T

  exactly in rational arithmetic: the norm-weighted bilinear form telescopes
  to the two boundary terms and nothing else.

* ``PeriodicOperatorSet1D`` -- wrapped interior stencil on a periodic pair;
  the analogous bilinear form vanishes identically.

Both families share one pair of methods, `apply_d_p` and `apply_d_v`, and
each operator applies through its own in-place kernel, which knows its
sizes: along axis 0 of a 1D or 2D array or axis 1 of a 2D array, optionally
scaled, into an output array that it overwrites. The kernel cuts the
interior rows into tiles of 8 and applies them all with one batched BLAS
product of a banded 8 x 11 matrix against overlapping windows of the
input; the rows the tiles leave over are data, a few small dense
products: the two boundary closures of a bounded operator, or the rows of a
periodic one from the last tile around the seam. Along axis 1 a tall
field runs in row strips of 64 KiB of input (at least 8 rows), each
strip's tiles before the next strip's, so the cache lines that
neighbouring tiles share are still cached (48-96 KiB stepped alike on a
400-480 point wide field, 24 and 128 KiB 4-8% slower). On an axis of
at most 76 primary points every row is data: one BLAS product with the
kernel's matrix replaces the tiles. That product wins up to 48-90 points
against the tiles, fewer the longer the other axis (one BLAS thread,
31-140 points across).

Closure coefficients are stored as exact rationals. They are the unique
solution of the accuracy + structure constraint system once the boundary
projection is restricted to its minimal three-point support. The structure
certificate is exact: it forms Q once in rational arithmetic at unit spacing,
so it is independent of dx, and measures every row's exactness degree with
`exact.exactness_degree`. It runs on demand, not at import or build time:
`verify_sbp_structure`, `stagwave operators sbp1d` and acceptance criterion 1
run it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.typing import NDArray

from .errors import DomainError
from .exact import exactness_degree
from .grids import MIN_POINTS_BOUNDED, MIN_POINTS_PERIODIC

F = Fraction

#: fourth-order staggered central stencil, offsets -3/2, -1/2, +1/2, +3/2
INTERIOR_STENCIL = (F(1, 24), F(-9, 8), F(9, 8), F(-1, 24))

#: d^v boundary closure: rows = first 4 primary points, cols = first 5 dual points
DV_CLOSURE = (
    (F(-2), F(3), F(-1), F(0), F(0)),
    (F(-1), F(1), F(0), F(0), F(0)),
    (F(1, 24), F(-9, 8), F(9, 8), F(-1, 24), F(0)),
    (F(-1, 71), F(6, 71), F(-83, 71), F(81, 71), F(-3, 71)),
)

#: d^p boundary closure: rows = first 3 dual points, cols = first 5 primary points
DP_CLOSURE = (
    (F(-79, 78), F(27, 26), F(-1, 26), F(1, 78), F(0)),
    (F(2, 21), F(-9, 7), F(9, 7), F(-2, 21), F(0)),
    (F(1, 75), F(0), F(-27, 25), F(83, 75), F(-1, 25)),
)

#: diagonal norm weights near the boundary (unit spacing)
AP_CLOSURE = (F(7, 18), F(9, 8), F(1), F(71, 72))
AV_CLOSURE = (F(13, 12), F(7, 8), F(25, 24))

#: boundary projection of the dual field onto the left endpoint
PROJECTION = (F(15, 8), F(-5, 4), F(3, 8))


def _mirror(block):
    """Right-end closure of a difference block: reverse both axes, flip sign."""
    return tuple(tuple(-c for c in reversed(row)) for row in reversed(block))


def _as_float(rows) -> NDArray[np.float64]:
    return np.array([[float(c) for c in row] for row in rows])


#: the longest axis, in primary points, whose operators apply as one matrix
DENSE_MAX_POINTS = 76
#: output rows (columns along axis 1) per tile of the banded product
TILE = 8
#: input bytes per row strip of a product along axis 1 (at least TILE rows)
STRIP_BYTES = 64 * 1024
_ST = np.array([float(c) for c in INTERIOR_STENCIL])


def _band(k: int) -> NDArray[np.float64]:
    """k interior stencil rows over k + 3 points: row i reads points i .. i+3."""
    mat = np.zeros((k, k + 3))
    rows = np.arange(k)[:, None]
    mat[rows, rows + np.arange(4)] = _ST
    return mat


# ---------------------------------------------------------------------------
# in-place application kernel
# ---------------------------------------------------------------------------

class _Kernel:
    """scale * D for one staggered operator, n_in points in and n_out out,
    written into (never added to) an output array, along axis 0 of a 1D or
    2D array or axis 1 of a 2D array.

    D is banded: output row lo + i applies the interior stencil to input rows
    first + i .. first + i + 3. Rows lo .. lo + TILE * tiles - 1 are `tiles`
    tiles of TILE rows, applied by one batched matmul of a TILE x (TILE + 3)
    band matrix against a window view of the input, whose tiles overlap by
    three rows, straight into a view of `out`. Along axis 1, a field of at
    least 2 strips of `strip_rows` rows applies through 4-D views (strips,
    tiles, rows, .), one strip's tiles after another, and one more product
    for the rows left over. The views are built on the arrays' buffers, so
    both must be C-contiguous float64; other arrays (only direct callers
    pass them) go through contiguous copies.

    Every other output row belongs to one of `edges`, a list of products
    (out_rows, in_rows, mat): out[out_rows] = mat @ w[in_rows] along axis 0.
    A bounded operator has its two closures there, a periodic operator the
    rows that wrap around the seam; the stencil rows the tiles leave over
    join the right closure or the seam rows. Every matrix is divided by dx
    here and multiplied by the scale when it changes (kept for the last
    scale); along axis 1 it is kept transposed and C-contiguous, since BLAS
    runs a transposed view of the band about half as fast. Up to
    DENSE_MAX_POINTS points the operator applies as one product with its
    matrix instead: the tiles run on the identity, on the first call along
    each axis per scale, and laid out for the axis as the edge matrices are.
    """

    def __init__(self, n_in: int, n_out: int, lo: int, first: int, tiles: int, dx: float, edges):
        self.n_in, self.n_out = n_in, n_out
        self.lo, self.first, self.tiles = lo, first, tiles
        self.strip_rows = max(TILE, STRIP_BYTES // (8 * n_in))
        self.rows = [(o, i) for o, i, _ in edges]
        self.unit = [mat / dx for mat in (_band(TILE), *(mat for *_, mat in edges))]
        self.scale = None

    def _rescale(self, scale: float) -> None:
        mats = [mat * scale for mat in self.unit]
        self.scale, self.dense_by_axis = scale, {}
        self.by_axis = mats, [mat.T.copy() for mat in mats]

    def __call__(self, w, out, axis: int, scale: float) -> None:
        if scale != self.scale:
            self._rescale(scale)
        if max(self.n_in, self.n_out) > DENSE_MAX_POINTS:
            self._tiles(w, out, axis)
            return
        mat = self.dense_by_axis.get(axis)
        if mat is None:
            mat = np.empty((self.n_out, self.n_in))
            self._tiles(np.eye(self.n_in), mat, 0)
            mat = self.dense_by_axis[axis] = mat.T.copy() if axis else mat
        if axis == 0:
            np.matmul(mat, w, out=out)
        else:
            np.matmul(w, mat, out=out)

    def _tiles(self, w, out, axis: int) -> None:
        if not (w.flags.c_contiguous and out.flags.c_contiguous and out.dtype == float):
            target = np.empty(out.shape)
            self._tiles(np.ascontiguousarray(w), target, axis)
            out[...] = target
            return
        band, *mats = self.by_axis[axis]
        k, t, b = TILE, self.tiles, w.itemsize
        if axis == 0:
            m = w.size // w.shape[0]   # 1 for a 1D array
            x = np.ndarray((t, k + 3, m), float, w, b * m * self.first, (b * m * k, b * m, b))
            y = np.ndarray((t, k, m), float, out, b * m * self.lo, (b * m * k, b * m, b))
            np.matmul(band, x, out=y)
            for (out_rows, in_rows), mat in zip(self.rows, mats):
                out[out_rows] = mat @ w[in_rows]
        else:
            m, n_in, n_out = w.shape[0], w.shape[1], out.shape[1]
            x = np.ndarray((t, m, k + 3), float, w, b * self.first, (b * k, b * n_in, b))
            y = np.ndarray((t, m, k), float, out, b * self.lo, (b * k, b * n_out, b))
            r = self.strip_rows
            if m >= 2 * r:
                s = m // r
                np.matmul(np.ndarray((s, t, r, k + 3), float, w, b * self.first,
                                     (b * r * n_in, *x.strides)), band,
                          out=np.ndarray((s, t, r, k), float, out, b * self.lo,
                                         (b * r * n_out, *y.strides)))
                x, y = x[:, s * r:], y[:, s * r:]
            np.matmul(x, band, out=y)
            for (out_rows, in_rows), mat in zip(self.rows, mats):
                out[:, out_rows] = w[:, in_rows] @ mat


def _bounded_kernel(closure, n_in: int, n_out: int, dx: float) -> _Kernel:
    """A bounded operator: each closure is a product with the five input rows
    at its end, and the stencil rows after the last tile join the right one."""
    k = len(closure)
    tiles = (n_out - 2 * k) // TILE
    r = n_out - 2 * k - TILE * tiles
    right = np.zeros((r + k, r + 5))
    right[:r, :r + 3] = _band(r)
    right[r:, r:] = _as_float(_mirror(closure))
    return _Kernel(n_in, n_out, k, 2, tiles, dx, [
        (slice(0, k), slice(0, 5), _as_float(closure)),
        (slice(n_out - k - r, n_out), slice(n_in - r - 5, n_in), right)])


def _periodic_kernel(n: int, dx: float, lo: int) -> _Kernel:
    """A periodic operator: the stencil rows after the last tile and the three
    rows that wrap are one band product with the points from there around
    the seam."""
    tiles = (n - 3) // TILE
    t = TILE * tiles
    return _Kernel(n, n, lo, 0, tiles, dx, [
        (np.arange(lo + t, lo + n) % n, np.arange(t, n + 3) % n, _band(n - t))])


def _apply(kernel: _Kernel, values, axis: int, out, scale: float) -> NDArray[np.float64]:
    """Shared body of `apply_d_p` and `apply_d_v`: check the arrays, allocate
    `out` where needed, and run the kernel."""
    w = np.asarray(values, dtype=float)
    if w.ndim > 2 or axis not in range(w.ndim):
        raise DomainError(f"cannot apply along axis {axis} of a {w.ndim}D array")
    if w.shape[axis] != kernel.n_in:
        raise DomainError(f"expected {kernel.n_in} values along axis {axis}, got {w.shape[axis]}")
    if out is None:
        out = np.empty(w.shape[:axis] + (kernel.n_out,) + w.shape[axis + 1:])
    elif np.may_share_memory(out, w):
        raise DomainError("out must not share memory with the input")
    kernel(w, out, axis, scale)
    return out


class _OperatorSet1D:
    """`apply_d_p` and `apply_d_v` of both families, through the `_d_p` and
    `_d_v` kernels each sets when built. Neither family derives from the
    other, so wrapping one's methods (`perfbench/tracing.py`) spares the other's."""

    _d_p: _Kernel
    _d_v: _Kernel

    def apply_d_v(self, values, axis: int = 0, out=None,
                  scale: float = 1.0) -> NDArray[np.float64]:
        """scale * (d^v values) along `axis`: dual values in, primary points out.

        `values` is 1D or 2D. With `out`, the result is written into it and
        `out` is returned; otherwise a new array is. `out` may not share
        memory with `values`: the kernel would overwrite its own input.
        """
        return _apply(self._d_v, values, axis, out, scale)

    def apply_d_p(self, values, axis: int = 0, out=None,
                  scale: float = 1.0) -> NDArray[np.float64]:
        """scale * (d^p values) along `axis`: primary values in, dual points
        out; `out` as in `apply_d_v`."""
        return _apply(self._d_p, values, axis, out, scale)


@dataclass(frozen=True)
class SbpOperatorSet1D(_OperatorSet1D):
    """Bounded-interval staggered SBP pair with diagonal norms.

    Shapes (n = n_p primary points, n-1 dual points):
      d_p: (n-1, n)   primary -> derivative at dual points
      d_v: (n, n-1)   dual -> derivative at primary points
      a_p: (n,)       primary norm/quadrature weights (includes dx)
      a_v: (n-1,)     dual norm weights (includes dx)
      proj_left/right: (n-1,)  dimensionless projections of the dual field
                       onto x_left / x_right
    """

    n_p: int
    dx: float
    a_p: NDArray[np.float64]
    a_v: NDArray[np.float64]
    proj_left: NDArray[np.float64]
    proj_right: NDArray[np.float64]

    def __post_init__(self):
        n, dx = self.n_p, self.dx
        object.__setattr__(self, "_d_v", _bounded_kernel(DV_CLOSURE, n - 1, n, dx))
        object.__setattr__(self, "_d_p", _bounded_kernel(DP_CLOSURE, n, n - 1, dx))

    @property
    def n_v(self) -> int:
        return self.n_p - 1

    # -- dense and exact materializations (tests, certificates, dumps) --

    def dense_d_v(self) -> NDArray[np.float64]:
        return _as_float(self.exact_d_v()) / self.dx

    def dense_d_p(self) -> NDArray[np.float64]:
        return _as_float(self.exact_d_p()) / self.dx

    def exact_d_v(self) -> list[list[Fraction]]:
        """Unit-spacing d^v as exact rationals (scale by 1/dx to apply)."""
        return _exact_matrix(self.n_p, self.n_p - 1, DV_CLOSURE, offset=-2)

    def exact_d_p(self) -> list[list[Fraction]]:
        """Unit-spacing d^p as exact rationals."""
        return _exact_matrix(self.n_p - 1, self.n_p, DP_CLOSURE, offset=-1)

    def exact_a_p(self) -> list[Fraction]:
        return _exact_norm(self.n_p, AP_CLOSURE)

    def exact_a_v(self) -> list[Fraction]:
        return _exact_norm(self.n_p - 1, AV_CLOSURE)


def _exact_matrix(n_rows, n_cols, closure, offset):
    nc = len(closure)
    mat = [[F(0)] * n_cols for _ in range(n_rows)]
    for i in range(nc, n_rows - nc):
        for k, c in enumerate(INTERIOR_STENCIL):
            mat[i][i + offset + k] = c
    for i, row in enumerate(closure):
        for j, c in enumerate(row):
            mat[i][j] = c
    for i, row in enumerate(_mirror(closure)):
        for j, c in enumerate(row):
            mat[n_rows - len(closure) + i][n_cols - len(row) + j] = c
    return mat


def _exact_norm(n, closure):
    w = [F(1)] * n
    w[: len(closure)] = list(closure)
    w[n - len(closure):] = list(reversed(closure))
    return w


def _spacing(dx) -> float:
    """dx as a float; it and 3/dx, the largest closure entry over dx, must be
    positive and finite."""
    dx = float(dx)
    if not 0 < dx < math.inf or 3 / dx == math.inf:
        raise DomainError(f"dx must be positive and finite, and so must 3/dx, got {dx}")
    return dx


def build_sbp_1d(n_p: int, dx: float) -> SbpOperatorSet1D:
    """Build the bounded staggered SBP operator set.

    Args:
        n_p: primary-subgrid point count, at least 9.
        dx: grid spacing, positive and finite, with 3/dx finite.

    Raises:
        DomainError: on size or spacing violations.
    """
    if n_p < MIN_POINTS_BOUNDED:
        raise DomainError(f"n_p must be >= {MIN_POINTS_BOUNDED}, got {n_p}")
    dx = _spacing(dx)
    a_p = np.array(_exact_norm(n_p, AP_CLOSURE), dtype=float)
    a_v = np.array(_exact_norm(n_p - 1, AV_CLOSURE), dtype=float)
    proj_left = np.zeros(n_p - 1)
    proj_left[:3] = [float(c) for c in PROJECTION]
    proj_right = proj_left[::-1].copy()
    return SbpOperatorSet1D(n_p=n_p, dx=dx, a_p=a_p * dx, a_v=a_v * dx,
                            proj_left=proj_left, proj_right=proj_right)


@dataclass(frozen=True)
class PeriodicOperatorSet1D(_OperatorSet1D):
    """Wrapped staggered pair: primary points i*dx, dual points (i+1/2)*dx."""

    n: int
    dx: float

    def __post_init__(self):
        # d^p row j starts at primary point j - 1, d^v row i at dual point i - 2
        object.__setattr__(self, "_d_p", _periodic_kernel(self.n, self.dx, 1))
        object.__setattr__(self, "_d_v", _periodic_kernel(self.n, self.dx, 2))

    @property
    def a_p(self) -> NDArray[np.float64]:
        """Diagonal norm weights, primary and dual alike: n entries of dx."""
        return np.full(self.n, self.dx)

    a_v = a_p

    def dense_d_p(self) -> NDArray[np.float64]:
        return _circulant(self.n, -1) / self.dx

    def dense_d_v(self) -> NDArray[np.float64]:
        return _circulant(self.n, -2) / self.dx


def _circulant(n: int, first: int) -> NDArray[np.float64]:
    """Unit-spacing periodic operator whose row i applies the interior
    stencil to points i+first .. i+first+3, wrapped."""
    mat = np.zeros((n, n))
    rows = np.arange(n)[:, None]
    mat[rows, (rows + first + np.arange(4)) % n] = _ST
    return mat


def build_periodic_1d(n: int, dx: float) -> PeriodicOperatorSet1D:
    """Build the periodic staggered operator set (n >= 4, dx as in build_sbp_1d)."""
    if n < MIN_POINTS_PERIODIC:
        raise DomainError(f"n must be >= {MIN_POINTS_PERIODIC}, got {n}")
    return PeriodicOperatorSet1D(n=n, dx=_spacing(dx))


# ---------------------------------------------------------------------------
# structure certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SbpStructureReport:
    """Exact certificate of the SBP structure and row accuracy, at unit spacing."""

    structure_residual: float       # max |Q - boundary dyads| / max(max |Q|, 1)
    exact: bool                     # that residual is exactly zero
    q_first_row: NDArray[np.object_]   # Q[0], as Fractions
    dv_row_degrees: list[int]       # polynomial exactness degree of each row
    dp_row_degrees: list[int]
    proj_degrees: tuple[int, int]


def structure_report(d_p, d_v, a_p, a_v, proj_left, proj_right) -> SbpStructureReport:
    """Certificate from rational unit-spacing entries (usable on perturbed
    inputs).

    Forms Q := diag(a_p) d_v + (diag(a_v) d_p)^T once, compares it with the
    two-dyad boundary form -e_L proj_L^T + e_R proj_R^T, and measures each
    row's polynomial exactness degree on the unit-spacing coordinates.
    """
    d_p, d_v, a_p, a_v = (np.array(x, dtype=object) for x in (d_p, d_v, a_p, a_v))
    q = a_p[:, None] * d_v + (a_v[:, None] * d_p).T
    boundary = np.zeros_like(q)
    boundary[0] = [-c for c in proj_left]
    boundary[-1] = proj_right
    err = np.abs(q - boundary).max()
    n = len(a_p)
    xp, xv = range(n), [F(2 * j + 1, 2) for j in range(n - 1)]
    dv_deg = [exactness_degree(row, xv, x, derivative=True) for row, x in zip(d_v, xp)]
    dp_deg = [exactness_degree(row, xp, x, derivative=True) for row, x in zip(d_p, xv)]
    return SbpStructureReport(
        structure_residual=float(err / max(np.abs(q).max(), 1)), exact=bool(err == 0),
        q_first_row=q[0], dv_row_degrees=dv_deg, dp_row_degrees=dp_deg,
        proj_degrees=(exactness_degree(proj_left, xv, 0),
                      exactness_degree(proj_right, xv, n - 1)))


def verify_sbp_structure(ops: SbpOperatorSet1D) -> SbpStructureReport:
    """The exact certificate of a built operator set; it does not depend on
    `ops.dx`."""
    proj = list(PROJECTION) + [F(0)] * (ops.n_v - 3)
    return structure_report(ops.exact_d_p(), ops.exact_d_v(), ops.exact_a_p(),
                            ops.exact_a_v(), proj, proj[::-1])
