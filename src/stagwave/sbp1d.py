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

Every operator of both families applies through one in-place kernel
(`apply_d_p`, `apply_d_v`): along axis 0 of a 1D or 2D array or axis 1 of a
2D array, optionally scaled, into an output array that it overwrites. The
kernel runs the interior stencil on contiguous rows; the rows it does not
cover are data, a few small dense products: the two boundary closures of a
bounded operator, or the rows of a periodic one that wrap around the seam.
On an axis of at most 76 primary points (the crossover measured at 73-79 on a
bounded axis 1 of 120 rows) every row is data: one BLAS product with the
kernel's matrix replaces the stencil.

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
from dataclasses import dataclass, field
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
_ST = np.array([float(c) for c in INTERIOR_STENCIL])
#: the periodic rows that wrap: three stencil rows over six consecutive points
_WRAP = np.array([[*_ST, 0, 0], [0, *_ST, 0], [0, 0, *_ST]])


# ---------------------------------------------------------------------------
# in-place application kernel
# ---------------------------------------------------------------------------

def _interior(w0, w1, w2, w3, out, s: float) -> None:
    """out = s * (w0 - w3 + 27 (w2 - w1)), in place, with no temporaries.

    This is the interior stencil (1, -27, 27, -1)/24 with 1/24, the grid
    spacing and the scale folded into s. Its weights relative to 1/24 are
    integers, so a unit input gives s and 27 s, the dense operator's entries
    up to one rounding of 27 s.
    """
    np.subtract(w2, w1, out=out)
    out *= 27.0
    out += w0
    out -= w3
    out *= s


class _Kernel:
    """scale * D for one staggered operator, written into (never added to) an
    output array, along axis 0 of a 1D or 2D array or axis 1 of a 2D array.

    D is the interior stencil plus edge rows given as data. The stencil
    covers output rows lo .. lo+m-1, and row lo reads input rows
    first .. first+3. Along axis 0 the stencil runs in place in `out` on
    contiguous blocks of rows. Along axis 1 it runs on the flattened input,
    right on each column whose four points lie in one row. It writes there
    straight into `out` when `out` is C-contiguous and shaped like the input
    (a periodic operator's: the columns it gets wrong are edge rows), and
    otherwise (a reshape of any other `out` is a copy) into a temporary
    laid out like the input, whose right columns one copy moves into `out`.

    Every other output row belongs to one of `edges`, a list of products
    (out_rows, in_rows, mat): out[out_rows] = mat @ w[in_rows] along axis 0.
    A bounded operator has its two closures there, a periodic operator the
    rows that wrap around the seam. The row indices are built once per axis
    and `mat` is divided by dx here; the scale is folded into the stencil's
    scalar and into the edge products at call time.
    """

    def __init__(self, lo: int, first: int, m: int, dx: float, edges):
        self.s = _ST[0] / dx
        self.out_rows = slice(lo, lo + m)
        self.in_rows = [slice(first + j, first + j + m) for j in range(4)]
        self.flat_start = lo - first
        edges = [(o, i, mat / dx) for o, i, mat in edges]
        self.edges = (edges, [((slice(None), o), (slice(None), i), mat)
                              for o, i, mat in edges])   # by axis
        self.scale = self.mat = None

    def __call__(self, w, out, axis: int, scale: float) -> None:
        s = self.s * scale
        if axis == 0:
            r0, r1, r2, r3 = self.in_rows
            _interior(w[r0], w[r1], w[r2], w[r3], out[self.out_rows], s)
        else:
            direct = out.shape == w.shape and out.flags.c_contiguous
            target = out if direct else np.empty(w.shape)
            flat, n, start = w.reshape(-1), w.size, self.flat_start
            _interior(flat[:n - 3], flat[1:n - 2], flat[2:n - 1], flat[3:],
                      target.reshape(-1)[start:start + n - 3], s)
            if not direct:
                out[:, self.out_rows] = target[:, self.out_rows]
        for out_rows, in_rows, mat in self.edges[axis]:
            # a few rows: small temporaries
            prod = mat @ w[in_rows] if axis == 0 else w[in_rows] @ mat.T
            if scale != 1.0:
                prod *= scale
            out[out_rows] = prod

    def dense(self, scale: float, n_in: int, n_out: int) -> NDArray[np.float64]:
        """scale * D as a matrix, the kernel applied to the identity (kept for the last scale)."""
        if self.scale != scale:
            self.scale, self.mat = scale, np.empty((n_out, n_in))
            self(np.eye(n_in), self.mat, 0, scale)
        return self.mat


def _bounded_kernel(closure, n_in: int, n_out: int, dx: float) -> _Kernel:
    """A bounded operator: each closure is a product with the five input rows
    at its end."""
    k = len(closure)
    return _Kernel(k, 2, n_out - 2 * k, dx, [
        (slice(0, k), slice(0, 5), _as_float(closure)),
        (slice(n_out - k, n_out), slice(n_in - 5, n_in), _as_float(_mirror(closure)))])


def _periodic_kernel(n: int, dx: float, lo: int) -> _Kernel:
    """A periodic operator: the three rows that wrap are one product with the
    six points around the seam."""
    seam = np.array([n - 3, n - 2, n - 1, 0, 1, 2])
    return _Kernel(lo, 0, n - 3, dx, [(np.arange(lo - 3, lo) % n, seam, _WRAP)])


def _apply(kernel: _Kernel, values, axis: int, out, scale: float,
           n_in: int, n_out: int) -> NDArray[np.float64]:
    """Shared body of every `apply_d_*`: check the arrays, allocate `out` where
    needed, and run the kernel, or on a short axis its matrix as one product."""
    w = np.asarray(values, dtype=float)
    if w.ndim > 2 or axis not in range(w.ndim):
        raise DomainError(f"cannot apply along axis {axis} of a {w.ndim}D array")
    if w.shape[axis] != n_in:
        raise DomainError(f"expected {n_in} values along axis {axis}, got {w.shape[axis]}")
    if out is None:
        out = np.empty(w.shape[:axis] + (n_out,) + w.shape[axis + 1:])
    elif np.may_share_memory(out, w):
        raise DomainError("out must not share memory with the input")
    if max(n_in, n_out) > DENSE_MAX_POINTS:
        kernel(w, out, axis, scale)
    elif axis == 0:
        np.matmul(kernel.dense(scale, n_in, n_out), w, out=out)
    else:
        np.matmul(w, kernel.dense(scale, n_in, n_out).T, out=out)
    return out


@dataclass(frozen=True)
class SbpOperatorSet1D:
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

    _d_v: _Kernel = field(init=False, repr=False, compare=False)
    _d_p: _Kernel = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, dx = self.n_p, self.dx
        object.__setattr__(self, "_d_v", _bounded_kernel(DV_CLOSURE, n - 1, n, dx))
        object.__setattr__(self, "_d_p", _bounded_kernel(DP_CLOSURE, n, n - 1, dx))

    @property
    def n_v(self) -> int:
        return self.n_p - 1

    # -- application: the in-place kernel --

    def apply_d_v(self, values, axis: int = 0, out=None,
                  scale: float = 1.0) -> NDArray[np.float64]:
        """scale * (d^v values) along `axis`: dual values in, primary points out.

        `values` is 1D or 2D. With `out`, the result is written into it and
        `out` is returned; otherwise a new array is. `out` may not share
        memory with `values`: the kernel would overwrite its own input.
        """
        return _apply(self._d_v, values, axis, out, scale, self.n_p - 1, self.n_p)

    def apply_d_p(self, values, axis: int = 0, out=None,
                  scale: float = 1.0) -> NDArray[np.float64]:
        """scale * (d^p values) along `axis`: primary values in, dual points
        out; `out` as in `apply_d_v`."""
        return _apply(self._d_p, values, axis, out, scale, self.n_p, self.n_p - 1)

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
class PeriodicOperatorSet1D:
    """Wrapped staggered pair: primary points i*dx, dual points (i+1/2)*dx."""

    n: int
    dx: float
    _d_p: _Kernel = field(init=False, repr=False, compare=False)
    _d_v: _Kernel = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # d^p row j starts at primary point j - 1, d^v row i at dual point i - 2
        object.__setattr__(self, "_d_p", _periodic_kernel(self.n, self.dx, 1))
        object.__setattr__(self, "_d_v", _periodic_kernel(self.n, self.dx, 2))

    @property
    def a_p(self) -> NDArray[np.float64]:
        """Diagonal norm weights, primary and dual alike: n entries of dx."""
        return np.full(self.n, self.dx)

    a_v = a_p

    def apply_d_p(self, values, axis: int = 0, out=None,
                  scale: float = 1.0) -> NDArray[np.float64]:
        """scale * (derivative of the primary field) at dual points; `out`
        as in `SbpOperatorSet1D.apply_d_v`."""
        return _apply(self._d_p, values, axis, out, scale, self.n, self.n)

    def apply_d_v(self, values, axis: int = 0, out=None,
                  scale: float = 1.0) -> NDArray[np.float64]:
        """scale * (derivative of the dual field) at primary points."""
        return _apply(self._d_v, values, axis, out, scale, self.n, self.n)

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
