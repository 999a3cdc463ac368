from fractions import Fraction

import numpy as np
import pytest

from stagwave.assembly import BlockOperators
from stagwave.errors import DomainError, MisalignmentError
from stagwave.grids import (BOTH_ENDS_PRIMARY, PERIODIC, StaggeredBlock2D,
                            build_block_2d, build_grid_1d, build_layout)
from stagwave.sbp1d import build_periodic_1d, build_sbp_1d


def test_bounded_grid_midpoint_staggering():
    g = build_grid_1d(0, 1, 11, BOTH_ENDS_PRIMARY)
    assert g.dx == Fraction(1, 10)
    assert g.n_dual == 10
    np.testing.assert_allclose(g.dual_coords(), np.arange(10) * 0.1 + 0.05)
    assert g.primary_coord(10) == 1


def test_bounded_grid_minimum_size():
    with pytest.raises(DomainError):
        build_grid_1d(0, 1, 8, BOTH_ENDS_PRIMARY)
    build_grid_1d(0, 1, 9, BOTH_ENDS_PRIMARY)


def test_periodic_grid_spacing_and_first_dual_point():
    g = build_grid_1d(0, "0.96", 120, PERIODIC)
    assert g.dx == Fraction("0.008")
    assert g.n_dual == 120
    assert g.dual_coord(0) == Fraction("0.004")


def test_degenerate_interval_rejected():
    with pytest.raises(DomainError):
        build_grid_1d(1, 1, 12, BOTH_ENDS_PRIMARY)


def test_gap_reconstruction_is_exact():
    g = build_grid_1d("0.1", "0.9", 17, BOTH_ENDS_PRIMARY)
    duals = [g.dual_coord(j) for j in range(g.n_dual)]
    total = sum(b - a for a, b in zip(duals, duals[1:]))
    total += (duals[0] - g.x_left) + (g.x_right - duals[-1])
    assert total == g.length


def test_block_subgrid_shapes_match_staggering():
    block = build_block_2d(0, "0.96", 120, "0.48", "0.96", 61)
    assert block.p_shape == (61, 120)   # (rows, columns)
    assert block.u_shape == (61, 120)
    assert block.v_shape == (60, 120)
    xu, yu = block.subgrid_coords("u")
    assert xu[0] == pytest.approx(0.004)
    xv, yv = block.subgrid_coords("v")
    assert yv[0] == pytest.approx(0.484)


def test_block_requires_bounded_y():
    gx = build_grid_1d(0, 1, 16, PERIODIC)
    gy = build_grid_1d(0, 1, 17, BOTH_ENDS_PRIMARY)
    with pytest.raises(DomainError):
        build_block_2d(0, 1, 16, 0, 1, 8)  # y too small
    with pytest.raises(DomainError):
        StaggeredBlock2D(gx, gx)         # periodic y not allowed
    with pytest.raises(DomainError):
        StaggeredBlock2D(gy, gy)         # bounded x not allowed
    block = StaggeredBlock2D(gx, gy)
    assert block.u_shape == block.p_shape == (17, 16)


def test_layout_requires_periodic_x():
    # only a block's first axis may be bounded: neither a grid block nor a
    # block of operators admits a bounded x axis
    gx = build_grid_1d(0, "0.96", 61, BOTH_ENDS_PRIMARY)
    gy = build_grid_1d(0, "0.48", 31, BOTH_ENDS_PRIMARY)
    with pytest.raises(DomainError):
        StaggeredBlock2D(gx, gy)
    with pytest.raises(DomainError):
        BlockOperators([build_sbp_1d(31, 0.016), build_sbp_1d(61, 0.016)])
    with pytest.raises(DomainError):
        BlockOperators([build_periodic_1d(60, 0.016), build_sbp_1d(31, 0.016)])
    BlockOperators([build_sbp_1d(31, 0.016), build_periodic_1d(60, 0.016)])


def test_layout_accepts_2_to_1():
    bottom = build_block_2d(0, "0.96", 60, 0, "0.48", 31)
    top = build_block_2d(0, "0.96", 120, "0.48", "0.96", 61)
    assert build_layout([bottom, top]) == (2,)
    assert bottom.grid_y.x_right == top.grid_y.x_left == Fraction("0.48")


def test_layout_accepts_6_to_5():
    bottom = build_block_2d(0, "0.96", 100, 0, "0.768", 81)
    top = build_block_2d(0, "0.96", 120, "0.768", "0.96", 25)
    assert build_layout([bottom, top]) == (Fraction(6, 5),)


def test_layout_rejects_width_mismatch():
    bottom = build_block_2d(0, "1.12", 70, 0, "0.48", 31)
    top = build_block_2d(0, "0.96", 120, "0.48", "0.96", 61)
    with pytest.raises(DomainError):
        build_layout([bottom, top])


def test_layout_rejects_shifted_origin():
    bottom = build_block_2d("0.008", "0.96", 60, 0, "0.48", 31)
    top = build_block_2d(0, "0.96", 120, "0.48", "0.96", 61)
    with pytest.raises(MisalignmentError):
        build_layout([bottom, top])


def test_layout_rejects_fine_bottom():
    bottom = build_block_2d(0, "0.96", 120, 0, "0.48", 61)
    top = build_block_2d(0, "0.96", 60, "0.48", "0.96", 31)
    with pytest.raises(DomainError):
        build_layout([bottom, top])


def test_layout_requires_touching_blocks():
    bottom = build_block_2d(0, "0.96", 60, 0, "0.4", 26)
    top = build_block_2d(0, "0.96", 120, "0.48", "0.96", 61)
    with pytest.raises(DomainError):
        build_layout([bottom, top])
