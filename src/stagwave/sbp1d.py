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

Closure coefficients are stored as exact rationals. They are the unique
solution of the accuracy + structure constraint system once the boundary
projection is restricted to its minimal three-point support. The exact
structure certificate runs on demand, not at import or build time:
`verify_sbp_structure`, `stagwave operators sbp1d` and acceptance criterion 1
run it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.typing import NDArray

from .errors import DomainError
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


_DV_TOP = _as_float(DV_CLOSURE)
_DV_BOT = _as_float(_mirror(DV_CLOSURE))
_DP_TOP = _as_float(DP_CLOSURE)
_DP_BOT = _as_float(_mirror(DP_CLOSURE))
_ST = np.array([float(c) for c in INTERIOR_STENCIL])


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

    @property
    def n_v(self) -> int:
        return self.n_p - 1

    # -- application (banded slicing; closures as small dense blocks) --

    def apply_d_v(self, values, axis: int = 0) -> NDArray[np.float64]:
        """Differentiate a dual-subgrid field; result lives on primary points."""
        w = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
        n = self.n_p
        if w.shape[0] != n - 1:
            raise DomainError(f"expected {n - 1} dual values, got {w.shape[0]}")
        out = np.empty((n,) + w.shape[1:])
        m = n - 8
        out[4:n - 4] = (_ST[0] * w[2:2 + m] + _ST[1] * w[3:3 + m]
                        + _ST[2] * w[4:4 + m] + _ST[3] * w[5:5 + m])
        out[:4] = np.tensordot(_DV_TOP, w[:5], axes=(1, 0))
        out[-4:] = np.tensordot(_DV_BOT, w[-5:], axes=(1, 0))
        out /= self.dx
        return np.moveaxis(out, 0, axis)

    def apply_d_p(self, values, axis: int = 0) -> NDArray[np.float64]:
        """Differentiate a primary-subgrid field; result lives on dual points."""
        w = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
        n = self.n_p
        if w.shape[0] != n:
            raise DomainError(f"expected {n} primary values, got {w.shape[0]}")
        n_v = n - 1
        out = np.empty((n_v,) + w.shape[1:])
        m = n_v - 6
        out[3:n_v - 3] = (_ST[0] * w[2:2 + m] + _ST[1] * w[3:3 + m]
                          + _ST[2] * w[4:4 + m] + _ST[3] * w[5:5 + m])
        out[:3] = np.tensordot(_DP_TOP, w[:5], axes=(1, 0))
        out[-3:] = np.tensordot(_DP_BOT, w[-5:], axes=(1, 0))
        out /= self.dx
        return np.moveaxis(out, 0, axis)

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


def build_sbp_1d(n_p: int, dx: float) -> SbpOperatorSet1D:
    """Build the bounded staggered SBP operator set.

    Args:
        n_p: primary-subgrid point count, at least 9.
        dx: grid spacing, positive.

    Raises:
        DomainError: on size or spacing violations.
    """
    if n_p < MIN_POINTS_BOUNDED:
        raise DomainError(f"n_p must be >= {MIN_POINTS_BOUNDED}, got {n_p}")
    dx = float(dx)
    if not dx > 0:
        raise DomainError(f"dx must be positive, got {dx}")
    a_p = np.ones(n_p)
    a_p[:4] = [float(c) for c in AP_CLOSURE]
    a_p[-4:] = a_p[3::-1]
    a_v = np.ones(n_p - 1)
    a_v[:3] = [float(c) for c in AV_CLOSURE]
    a_v[-3:] = a_v[2::-1]
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

    @property
    def a_weight(self) -> float:
        """Uniform diagonal norm entry (primary and dual alike)."""
        return self.dx

    def apply_d_p(self, values, axis: int = 0) -> NDArray[np.float64]:
        """Derivative of the primary field at dual points."""
        w = np.asarray(values, dtype=float)
        out = (_ST[0] * np.roll(w, 1, axis) + _ST[1] * w
               + _ST[2] * np.roll(w, -1, axis) + _ST[3] * np.roll(w, -2, axis))
        out /= self.dx
        return out

    def apply_d_v(self, values, axis: int = 0) -> NDArray[np.float64]:
        """Derivative of the dual field at primary points."""
        w = np.asarray(values, dtype=float)
        out = (_ST[0] * np.roll(w, 2, axis) + _ST[1] * np.roll(w, 1, axis)
               + _ST[2] * w + _ST[3] * np.roll(w, -1, axis))
        out /= self.dx
        return out

    def dense_d_p(self) -> NDArray[np.float64]:
        mat = np.zeros((self.n, self.n))
        for j in range(self.n):
            for k, off in enumerate((-1, 0, 1, 2)):
                mat[j, (j + off) % self.n] += _ST[k]
        return mat / self.dx

    def dense_d_v(self) -> NDArray[np.float64]:
        mat = np.zeros((self.n, self.n))
        for i in range(self.n):
            for k, off in enumerate((-2, -1, 0, 1)):
                mat[i, (i + off) % self.n] += _ST[k]
        return mat / self.dx


def build_periodic_1d(n: int, dx: float) -> PeriodicOperatorSet1D:
    """Build the periodic staggered operator set (n >= 4, dx > 0)."""
    if n < MIN_POINTS_PERIODIC:
        raise DomainError(f"n must be >= {MIN_POINTS_PERIODIC}, got {n}")
    dx = float(dx)
    if not dx > 0:
        raise DomainError(f"dx must be positive, got {dx}")
    return PeriodicOperatorSet1D(n=n, dx=dx)


# ---------------------------------------------------------------------------
# structure certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SbpStructureReport:
    """Certificate of the summation-by-parts structure and row accuracy."""

    structure_residual: float       # max |Q - boundary dyads|, float path
    exact: bool | None              # rational-arithmetic check (None if n/a)
    q_first_row: NDArray[np.float64]
    dv_row_degrees: list[int]       # measured polynomial exactness per row
    dp_row_degrees: list[int]
    proj_degrees: tuple[int, int]

    @property
    def ok(self) -> bool:
        return self.structure_residual <= 1e-14 and (self.exact is not False)


def _row_degree(row_coeffs, col_coords, target_x, derivative: bool, max_deg: int = 6,
                rtol: float = 1e-9) -> int:
    """Largest k such that the row reproduces d/dx x^k (or x^k) at target_x."""
    deg = -1
    for k in range(max_deg + 1):
        approx = sum(c * x**k for c, x in zip(row_coeffs, col_coords))
        if derivative:
            want = 0.0 if k == 0 else k * target_x ** (k - 1)
        else:
            want = 1.0 if k == 0 else target_x**k
        scale = max(1.0, max(abs(x) ** k for x in col_coords))
        if abs(approx - want) > rtol * scale:
            break
        deg = k
    return deg


def structure_report(d_p, d_v, a_p, a_v, proj_left, proj_right, dx: float = 1.0,
                     exact: bool | None = None) -> SbpStructureReport:
    """Certificate from materialized matrices (usable on perturbed inputs).

    Checks that q := diag(a_p) d_v + (diag(a_v) d_p)^T equals the two-dyad
    boundary form, and measures each row's polynomial exactness degree on the
    physical grid coordinates.
    """
    d_p = np.asarray(d_p, float)
    d_v = np.asarray(d_v, float)
    a_p = np.asarray(a_p, float)
    a_v = np.asarray(a_v, float)
    n = d_v.shape[0]
    q = a_p[:, None] * d_v + (a_v[:, None] * d_p).T
    target = np.zeros_like(q)
    target[0] = -np.asarray(proj_left, float)
    target[-1] = np.asarray(proj_right, float)
    scale = max(np.abs(q).max(), 1.0)
    residual = float(np.abs(q - target).max() / scale)

    xp = dx * np.arange(n)
    xv = dx * (np.arange(n - 1) + 0.5)
    dv_deg = [_row_degree(d_v[i], xv, xp[i], derivative=True) for i in range(n)]
    dp_deg = [_row_degree(d_p[j], xp, xv[j], derivative=True) for j in range(n - 1)]
    pl_deg = _row_degree(np.asarray(proj_left, float), xv, xp[0], derivative=False)
    pr_deg = _row_degree(np.asarray(proj_right, float), xv, xp[-1], derivative=False)
    return SbpStructureReport(structure_residual=residual, exact=exact,
                              q_first_row=q[0].copy(),
                              dv_row_degrees=dv_deg, dp_row_degrees=dp_deg,
                              proj_degrees=(pl_deg, pr_deg))


def verify_sbp_structure(ops: SbpOperatorSet1D) -> SbpStructureReport:
    """Full certificate for a built operator set, including the exact check."""
    dv = ops.exact_d_v()
    dp = ops.exact_d_p()
    ap = ops.exact_a_p()
    av = ops.exact_a_v()
    n = ops.n_p
    exact_ok = True
    for i in range(n):
        for j in range(n - 1):
            q = ap[i] * dv[i][j] + av[j] * dp[j][i]
            want = F(0)
            if i == 0:
                want = -(PROJECTION[j] if j < 3 else F(0))
            elif i == n - 1:
                want = PROJECTION[n - 2 - j] if j >= n - 4 else F(0)
            if q != want:
                exact_ok = False
    return structure_report(ops.dense_d_p(), ops.dense_d_v(), ops.a_p, ops.a_v,
                            ops.proj_left, ops.proj_right, dx=ops.dx, exact=exact_ok)
