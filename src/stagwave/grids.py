"""Staggered 1D subgrids, 2D blocks, and the checks on a stack of blocks.

A 1D staggered grid carries a primary subgrid and a dual subgrid shifted by
half a spacing. Two alignments occur:

* ``both_ends_primary`` -- primary points include both interval endpoints
  (n_p points, n_p - 1 dual midpoints); used in the vertical direction where
  free-surface rows and interface rows must sit on the primary subgrid.
* ``periodic_p_start_u_end`` -- primary and dual subgrids both have n points
  over a length of n*dx; the grid starts on a primary point and ends on a
  dual point so periodic wraparound is seamless. Used horizontally.

A 2D block is the tensor product of a periodic x-grid and a bounded y-grid
(no other pair). A stack is a bottom-first sequence of blocks, each
consecutive pair sharing a horizontal interface row, the coarser one below.

Coordinates are stored as exact rationals so that widths, interface
positions, and spacing ratios can be compared without tolerance.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

import numpy as np

from .errors import DomainError, MisalignmentError
from .exact import to_fraction

Alignment = Literal["both_ends_primary", "periodic_p_start_u_end"]

BOTH_ENDS_PRIMARY: Alignment = "both_ends_primary"
PERIODIC: Alignment = "periodic_p_start_u_end"

#: smallest bounded grid: the two 4-point boundary closures must not overlap
#: and at least one pure interior row must remain
MIN_POINTS_BOUNDED = 9
MIN_POINTS_PERIODIC = 4


@dataclass(frozen=True)
class StaggeredGrid1D:
    """One uniform 1D staggered pair (primary + dual subgrid)."""

    x_left: Fraction
    x_right: Fraction
    n_p: int
    dx: Fraction
    alignment: Alignment

    @property
    def n_dual(self) -> int:
        return self.n_p - 1 if self.alignment == BOTH_ENDS_PRIMARY else self.n_p

    @property
    def length(self) -> Fraction:
        return self.x_right - self.x_left

    def primary_coord(self, i: int) -> Fraction:
        return self.x_left + i * self.dx

    def dual_coord(self, j: int) -> Fraction:
        return self.x_left + (2 * j + 1) * self.dx / 2

    def primary_coords(self) -> np.ndarray:
        return np.array([float(self.primary_coord(i)) for i in range(self.n_p)])

    def dual_coords(self) -> np.ndarray:
        return np.array([float(self.dual_coord(j)) for j in range(self.n_dual)])


def build_grid_1d(x_left, x_right, n_p: int, alignment: Alignment) -> StaggeredGrid1D:
    """Build a uniform staggered grid over (x_left, x_right).

    Args:
        x_left, x_right: interval endpoints (int/float/str/Fraction).
        n_p: number of primary-subgrid points.
        alignment: one of ``both_ends_primary`` or ``periodic_p_start_u_end``.

    Raises:
        DomainError: degenerate interval, or n_p below the alignment minimum.
    """
    xl, xr = to_fraction(x_left), to_fraction(x_right)
    if xr <= xl:
        raise DomainError(f"degenerate interval [{xl}, {xr}]")
    if alignment == BOTH_ENDS_PRIMARY:
        if n_p < MIN_POINTS_BOUNDED:
            raise DomainError(
                f"bounded staggered grid needs at least {MIN_POINTS_BOUNDED} "
                f"primary points (got {n_p}): boundary closures would overlap"
            )
        dx = (xr - xl) / (n_p - 1)
    elif alignment == PERIODIC:
        if n_p < MIN_POINTS_PERIODIC:
            raise DomainError(
                f"periodic staggered grid needs at least {MIN_POINTS_PERIODIC} "
                f"points (got {n_p})"
            )
        dx = (xr - xl) / n_p
    else:
        raise DomainError(f"unknown alignment {alignment!r}")
    return StaggeredGrid1D(xl, xr, n_p, dx, alignment)


@dataclass(frozen=True)
class StaggeredBlock2D:
    """Tensor-product block: periodic x-grid x bounded y-grid.

    Subgrid shapes (rows x columns, stored row-major with x fastest):
      p: (n_y, n_x)        -- pressure
      u: (n_y, n_x)        -- x-velocity, staggered in x only
      v: (n_y-1, n_x)      -- y-velocity, staggered in y only

    Any other pair of grids raises `DomainError`.
    """

    grid_x: StaggeredGrid1D
    grid_y: StaggeredGrid1D

    def __post_init__(self):
        if self.grid_x.alignment != PERIODIC:
            raise DomainError("block x-grid must be periodic")
        if self.grid_y.alignment != BOTH_ENDS_PRIMARY:
            raise DomainError("block y-grid must place primary points on both ends")

    @property
    def p_shape(self) -> tuple[int, int]:
        return (self.grid_y.n_p, self.grid_x.n_p)

    @property
    def u_shape(self) -> tuple[int, int]:
        return (self.grid_y.n_p, self.grid_x.n_dual)

    @property
    def v_shape(self) -> tuple[int, int]:
        return (self.grid_y.n_dual, self.grid_x.n_p)

    def subgrid_coords(self, field: str) -> tuple[np.ndarray, np.ndarray]:
        """1D coordinate arrays (x, y) of the requested subgrid."""
        if field == "p":
            return self.grid_x.primary_coords(), self.grid_y.primary_coords()
        if field == "u":
            return self.grid_x.dual_coords(), self.grid_y.primary_coords()
        if field == "v":
            return self.grid_x.primary_coords(), self.grid_y.dual_coords()
        raise ValueError(f"unknown field {field!r}")


def build_block_2d(x_left, width, n_cols: int, y_bottom, y_top,
                   n_rows: int) -> StaggeredBlock2D:
    """Build a block from its bounding box and primary point counts."""
    xl = to_fraction(x_left)
    gx = build_grid_1d(xl, xl + to_fraction(width), n_cols, PERIODIC)
    gy = build_grid_1d(y_bottom, y_top, n_rows, BOTH_ENDS_PRIMARY)
    return StaggeredBlock2D(gx, gy)


def build_layout(blocks: Sequence[StaggeredBlock2D]) -> tuple[Fraction, ...]:
    """Validate a bottom-first stack of blocks.

    Returns the spacing ratio dx_below : dx_above >= 1 of each interface,
    bottom first; a single block has none.

    Raises:
        DomainError: a pair with mismatched widths, interface rows absent, or
            a lower spacing finer than the upper one.
        MisalignmentError: a pair with shifted origins, or column counts that
            admit no full elemental tiling, so no periodic set of matching
            interface points exists.
    """
    ratios = []
    for bottom, top in zip(blocks, blocks[1:]):
        if top.grid_x.x_left != bottom.grid_x.x_left:
            raise MisalignmentError(
                "blocks with shifted x origins share no matching interface points"
            )
        if top.grid_x.length != bottom.grid_x.length:
            raise DomainError(
                f"block widths differ: {top.grid_x.length} vs {bottom.grid_x.length}"
            )
        if bottom.grid_y.x_right != top.grid_y.x_left:
            raise DomainError("bottom block top row and top block bottom row must coincide")
        ratio = bottom.grid_x.dx / top.grid_x.dx
        if ratio < 1:
            raise DomainError("bottom block must be the coarse side (ratio >= 1)")
        if bottom.grid_x.n_p % ratio.denominator != 0:
            raise MisalignmentError(
                f"no matching interface points: {bottom.grid_x.n_p} coarse columns "
                f"do not tile elemental intervals of ratio {ratio.numerator}:{ratio.denominator}"
            )
        ratios.append(ratio)
    return tuple(ratios)
