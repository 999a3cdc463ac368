from fractions import Fraction

import numpy as np
import pytest

import stagwave as sw
from stagwave.assembly import (BlockOperators, SatCoefficients, SemiDiscreteSystem,
                               assemble_1d_boundary_system,
                               assemble_1d_interface_system, assemble_2d_block,
                               assemble_interface_system,
                               assemble_single_block_system)
from stagwave.errors import DomainError
from stagwave.grids import build_block_2d
from stagwave.leapfrog import SimState, step_forward
from stagwave.transfer import (ElementalStencilPair, tabulated_elemental_pair,
                               tile_periodic)
from stagwave.verification import (energy_rate_oracle, flatten_fields,
                                   materialize_system, ratio_system,
                                   uniform_standing_system,
                                   with_random_coefficients)

F = Fraction


# ---------------------------------------------------------------------------
# energy conservation
# ---------------------------------------------------------------------------

def test_1d_boundary_system_conserves_energy():
    system = assemble_1d_boundary_system(sw.build_sbp_1d(16, 1 / 15))
    assert energy_rate_oracle(system, n_states=100) <= 1e-12


def test_1d_boundary_unpenalized_leaks_energy(rng):
    coeffs = SatCoefficients(sigma_left=0.0, sigma_right=0.0)
    system = assemble_1d_boundary_system(sw.build_sbp_1d(16, 1 / 15), coeffs)
    prs, vel = system.random_state(rng)
    assert system.energy_rate(prs, vel) >= 1e-3


def test_1d_boundary_zero_pressure_trivial_case(rng):
    ops = sw.build_sbp_1d(16, 1 / 15)
    system = assemble_1d_boundary_system(ops)
    v = rng.standard_normal(15)
    assert np.all(system.velocity_rates([np.zeros(16)])[0] == 0.0)
    np.testing.assert_array_equal(system.pressure_rates([v])[0], -ops.apply_d_v(v))


def test_1d_interface_system_conserves_energy():
    system = assemble_1d_interface_system(sw.build_sbp_1d(17, 1 / 16),
                                          sw.build_sbp_1d(33, 1 / 32))
    assert energy_rate_oracle(system, n_states=100) <= 1e-12


def test_1d_interface_zero_coefficients_leak(rng):
    coeffs = SatCoefficients(sigma_p_minus=0.0, sigma_p_plus=0.0,
                             sigma_v_minus=0.0, sigma_v_plus=0.0)
    system = assemble_1d_interface_system(sw.build_sbp_1d(17, 1 / 16),
                                          sw.build_sbp_1d(17, 1 / 16), coeffs)
    prs, vel = system.random_state(rng)
    assert system.energy_rate(prs, vel) >= 1e-3


def test_2d_single_block_conserves_energy():
    assert energy_rate_oracle(uniform_standing_system(12), n_states=100) <= 1e-12


def test_2d_single_block_zero_penalties_leak(rng):
    coeffs = SatCoefficients(sigma_bottom=0.0, sigma_top=0.0)
    system = assemble_single_block_system(build_block_2d(0, 1, 12, 0, 1, 13),
                                          coeffs=coeffs)
    prs, vel = system.random_state(rng)
    assert system.energy_rate(prs, vel) >= 1e-3


def test_2d_single_block_interior_pressure_rows_skip_penalties(rng):
    system = assemble_single_block_system(build_block_2d(0, 1, 12, 0, 1, 13))
    b = system.blocks[0]
    p = rng.standard_normal(b.block.p_shape)
    p[:, 0] = 0.0
    p[:, -1] = 0.0
    du, dv = system.velocity_rates([p])
    np.testing.assert_array_equal(dv, -b.ops[1].apply_d_p(p, axis=1))


def test_2d_single_block_pressure_rates_sum_both_axes(rng):
    # x is periodic, so D_x u is written into the pressure-shaped u-rate
    # buffer and added to D_y v: bit for bit the sum of the two differences
    system = uniform_standing_system(12)
    x, y = system.blocks[0].ops
    _, (u, v) = system.random_state(rng)
    np.testing.assert_array_equal(
        system.pressure_rates([u, v])[0],
        y.apply_d_v(v, 1, scale=-1.0) + x.apply_d_v(u, 0, scale=-1.0))


@pytest.mark.parametrize("m,n", [(2, 1), (3, 2), (4, 3), (5, 4), (6, 5)])
def test_two_block_conserves_energy(m, n):
    assert energy_rate_oracle(ratio_system(m, n), n_states=100) <= 1e-12


def test_two_block_heterogeneous_conserves_energy(rng):
    system = with_random_coefficients(ratio_system(3, 2), rng)
    assert energy_rate_oracle(system, n_states=100) <= 1e-12


def three_block_stack():
    """Unit width, nine rows per block: 12 coarse columns, then 16 at 4:3,
    then 32 at 2:1, bottom first."""
    blocks, y = [], F(0)
    for cols in (12, 16, 32):
        h = F(8, cols)
        blocks.append(build_block_2d(0, 1, cols, y, y + h, 9))
        y += h
    return assemble_interface_system(blocks)


@pytest.mark.parametrize("hetero", [False, True], ids=["unit", "hetero"])
def test_three_block_stack_conserves_energy(rng, hetero):
    system = three_block_stack()
    if hetero:
        system = with_random_coefficients(system, rng)
    assert energy_rate_oracle(system, n_states=100) <= 1e-12


@pytest.mark.parametrize("n_blocks,n_transfers", [(1, 1), (2, 0), (3, 1), (3, 3)])
def test_stack_needs_one_transfer_per_interface(n_blocks, n_transfers):
    stack = three_block_stack()
    with pytest.raises(DomainError):
        SemiDiscreteSystem(stack.blocks[:n_blocks], stack.transfers[:1] * n_transfers)


def test_two_block_flipped_sign_leaks(rng):
    coeffs = SatCoefficients(sigma_p_minus=0.5)
    system = ratio_system(2, 1, coeffs=coeffs)
    prs, vel = system.random_state(rng)
    assert system.energy_rate(prs, vel) >= 1e-3


def test_two_block_broken_adjoint_relation_leaks(rng):
    base = tabulated_elemental_pair(F(2, 1))
    rows = [dict(r) for r in base.coarse_to_fine]
    rows[1][0] += F(1, 2)   # breaks the norm-compatibility identity everywhere
    broken = ElementalStencilPair(ratio=base.ratio,
                                  coarse_to_fine=tuple(rows),
                                  fine_to_coarse=base.fine_to_coarse)
    transfer = tile_periodic(broken, 6, 12)
    system = ratio_system(2, 1, transfer=transfer)
    prs, vel = system.random_state(rng)
    assert system.energy_rate(prs, vel) >= 1e-3


# ---------------------------------------------------------------------------
# operator accuracy on a block
# ---------------------------------------------------------------------------

def test_d_y_v_exact_on_quadratic():
    b = assemble_2d_block(build_block_2d(0, 1, 12, 0, 1, 13))
    xv, yv = b.block.subgrid_coords("v")
    _, yp = b.block.subgrid_coords("p")
    v = np.ones((12, 1)) * (yv**2)[None, :]
    dv = b.ops[1].apply_d_v(v, axis=1)
    np.testing.assert_allclose(dv, np.ones((12, 1)) * (2 * yp)[None, :],
                               rtol=0, atol=1e-12)


def test_norm_diagonal_sums_to_domain_area():
    b = assemble_2d_block(build_block_2d(0, "0.96", 12, 0, "0.48", 13))
    for w in b.weights:
        assert w.sum() == pytest.approx(0.96 * 0.48, rel=1e-13)


def test_d_x_p_fourth_order_refinement():
    errs = []
    for n in (32, 64):
        b = assemble_2d_block(build_block_2d(0, 1, n, 0, 1, n + 1))
        xs, _ = b.block.subgrid_coords("p")
        xu, _ = b.block.subgrid_coords("u")
        p = np.sin(2 * np.pi * xs)[:, None] * np.ones(n + 1)
        d = b.ops[0].apply_d_p(p, axis=0)
        errs.append(np.abs(d - 2 * np.pi * np.cos(2 * np.pi * xu)[:, None]).max())
    assert 14.0 <= errs[0] / errs[1] <= 18.0


def test_mixed_product_identity_for_q_y():
    b = assemble_2d_block(build_block_2d(0, 1, 6, 0, 1, 9))
    nx, _ = b.block.p_shape
    x_ops, y_ops = b.ops
    a_p2 = np.kron(np.diag(x_ops.a_p), np.diag(y_ops.a_p))
    a_v2 = np.kron(np.diag(x_ops.a_p), np.diag(y_ops.a_v))
    d_y_v = np.kron(np.eye(nx), y_ops.dense_d_v())
    d_y_p = np.kron(np.eye(nx), y_ops.dense_d_p())
    q_big = a_p2 @ d_y_v + (a_v2 @ d_y_p).T
    q_1d = (y_ops.a_p[:, None] * y_ops.dense_d_v()
            + (y_ops.a_v[:, None] * y_ops.dense_d_p()).T)
    q_expected = np.kron(np.diag(x_ops.a_p), q_1d)
    np.testing.assert_allclose(q_big, q_expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("make", [lambda: ratio_system(2, 1),
                                  lambda: SemiDiscreteSystem([BlockOperators(
                                      [sw.build_periodic_1d(12, 0.1),
                                       sw.build_periodic_1d(10, 0.1)])])],
                         ids=["two_block", "periodic"])
def test_composing_the_rate_methods_raises(make, rng):
    # each 2D system's y differences use the other rate method's buffers as
    # scratch, so feeding one method's result to the other must not run
    system = make()
    prs, vel = system.random_state(rng)
    with pytest.raises(DomainError):
        system.pressure_rates(system.velocity_rates(prs))
    with pytest.raises(DomainError):
        system.velocity_rates(system.pressure_rates(vel))


# ---------------------------------------------------------------------------
# matrix-free vs dense, split-grid consistency
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("hetero", [False, True])
def test_matrix_free_equals_dense_two_block(rng, hetero):
    system = ratio_system(2, 1)
    if hetero:
        system = with_random_coefficients(system, rng)
    l_vel, l_prs = materialize_system(system)
    prs, vel = system.random_state(rng)
    dp = flatten_fields(system.pressure_rates(vel))
    dv = flatten_fields(system.velocity_rates(prs))
    dp_dense = l_prs @ flatten_fields(vel)
    dv_dense = l_vel @ flatten_fields(prs)
    assert np.abs(dp - dp_dense).max() <= 1e-14 * np.abs(dp_dense).max()
    assert np.abs(dv - dv_dense).max() <= 1e-14 * np.abs(dv_dense).max()


def _assert_matrix_free_equals_dense(system, rng):
    l_vel, l_prs = materialize_system(system)
    prs, vel = system.random_state(rng)
    dp = flatten_fields(system.pressure_rates(vel))
    dv = flatten_fields(system.velocity_rates(prs))
    assert np.abs(dp - l_prs @ flatten_fields(vel)).max() <= 1e-13
    assert np.abs(dv - l_vel @ flatten_fields(prs)).max() <= 1e-13


def test_matrix_free_equals_dense_single_block(rng):
    _assert_matrix_free_equals_dense(uniform_standing_system(10), rng)


_SYSTEM_KINDS = {
    "1d_boundary": lambda: assemble_1d_boundary_system(sw.build_sbp_1d(16, 1 / 15)),
    "1d_interface": lambda: assemble_1d_interface_system(sw.build_sbp_1d(17, 1 / 16),
                                                         sw.build_sbp_1d(33, 1 / 32)),
    "1d_periodic": lambda: SemiDiscreteSystem([BlockOperators([sw.build_periodic_1d(16, 0.1)])]),
    "2d_periodic": lambda: SemiDiscreteSystem([BlockOperators(
        [sw.build_periodic_1d(12, 0.1), sw.build_periodic_1d(10, 0.1)])]),
    "3_block_stack": three_block_stack,
}


@pytest.mark.parametrize("hetero", [False, True], ids=["unit", "hetero"])
@pytest.mark.parametrize("kind", list(_SYSTEM_KINDS))
def test_matrix_free_equals_dense_on_every_system_kind(rng, kind, hetero):
    system = _SYSTEM_KINDS[kind]()
    if hetero:
        system = with_random_coefficients(system, rng)
    _assert_matrix_free_equals_dense(system, rng)


def test_conforming_split_tracks_single_segment():
    """A 1:1 split with interface penalties is a different (equally accurate)
    discretization near the interface; for smooth data over a short run the
    two solutions stay within truncation-level distance (measured 8.3e-8)."""
    dt = 1e-4
    full = assemble_1d_boundary_system(sw.build_sbp_1d(65, 1 / 64))
    split = assemble_1d_interface_system(sw.build_sbp_1d(33, 1 / 64),
                                         sw.build_sbp_1d(33, 1 / 64))
    x_full = np.arange(65) / 64
    st_full = SimState([np.sin(np.pi * x_full)], [np.zeros(64)])
    st_split = SimState([np.sin(np.pi * np.arange(33) / 64),
                         np.sin(np.pi * (0.5 + np.arange(33) / 64))],
                        [np.zeros(32), np.zeros(32)])
    for _ in range(100):
        step_forward(full, st_full, dt)
        step_forward(split, st_split, dt)
    glued = np.concatenate([
        st_split.pressures[0][:-1],
        [0.5 * (st_split.pressures[0][-1] + st_split.pressures[1][0])],
        st_split.pressures[1][1:]])
    assert np.abs(glued - st_full.pressures[0]).max() <= 2e-7


def _one_to_one_split(top_rows=9):
    bottom = build_block_2d(0, 1, 12, 0, F(2, 3), 9)
    top = build_block_2d(0, 1, 12, F(2, 3), F(4, 3), top_rows)
    return [bottom, top]


def test_conforming_split_glues_into_single_block(rng):
    from stagwave.media import VerticalLinearMedium
    medium = VerticalLinearMedium(y_bottom=0.0, y_top=4 / 3, rho_bottom=2.0,
                                  rho_top=1.0, c_bottom=3.0, c_top=1.5)
    glued = assemble_interface_system(_one_to_one_split(), medium)
    whole = assemble_single_block_system(build_block_2d(0, 1, 12, 0, F(4, 3), 17),
                                         medium)
    assert len(glued.blocks) == 1
    assert glued.blocks[0].block.p_shape == whole.blocks[0].block.p_shape == (12, 17)
    prs, vel = whole.random_state(rng)
    for got, want in zip(glued.pressure_rates(vel), whole.pressure_rates(vel)):
        np.testing.assert_array_equal(got, want)
    for got, want in zip(glued.velocity_rates(prs), whole.velocity_rates(prs)):
        np.testing.assert_array_equal(got, want)


def test_one_to_one_split_on_material_interface_keeps_penalties():
    from stagwave.media import TwoLayerMedium
    medium = TwoLayerMedium(split_y=2 / 3, rho_top=0.5, c_top=1.0,
                            rho_bottom=1.0, c_bottom=2.0)
    system = assemble_interface_system(_one_to_one_split(), medium)
    assert len(system.blocks) == 2
    assert energy_rate_oracle(system, n_states=100) <= 1e-12


def test_glue_is_decided_per_interface(rng):
    """A conforming 1:1 split below a 2:1 interface: the lower pair is glued,
    the upper one keeps its penalties."""
    from stagwave.media import VerticalLinearMedium
    medium = VerticalLinearMedium(y_bottom=0.0, y_top=5 / 3, rho_bottom=2.0,
                                  rho_top=1.0, c_bottom=3.0, c_top=1.5)
    top = build_block_2d(0, 1, 24, F(4, 3), F(5, 3), 9)
    system = assemble_interface_system([*_one_to_one_split(), top], medium)
    merged = build_block_2d(0, 1, 12, 0, F(4, 3), 17)
    pair = assemble_interface_system([merged, top], medium)
    assert len(system.blocks) == 2
    assert system.blocks[0].block == merged
    prs, vel = pair.random_state(rng)
    for got, want in zip(system.pressure_rates(vel), pair.pressure_rates(vel)):
        np.testing.assert_array_equal(got, want)
    for got, want in zip(system.velocity_rates(prs), pair.velocity_rates(prs)):
        np.testing.assert_array_equal(got, want)
    assert energy_rate_oracle(system, n_states=100) <= 1e-12


@pytest.mark.parametrize("n_transfers", [1, 3])
def test_stack_assembly_needs_one_supplied_transfer_per_interface(n_transfers):
    stack = three_block_stack()
    blocks = [b.block for b in stack.blocks]
    with pytest.raises(DomainError):
        assemble_interface_system(blocks, transfers=stack.transfers[:1] * n_transfers)


def test_one_to_one_split_with_different_y_spacings_keeps_two_blocks():
    system = assemble_interface_system(_one_to_one_split(top_rows=11))
    assert len(system.blocks) == 2
    assert system.blocks[0].block.grid_y.dx != system.blocks[1].block.grid_y.dx


def test_locate_pressure_point():
    system = ratio_system(2, 1)
    assert system.locate_pressure_point(0, 0) == (0, 0, 0)
    assert system.locate_pressure_point(F(1, 6), F(7, 6)) == (0, 1, 7)
    # the interface row belongs to both blocks; the top one wins
    bi, _, iy = system.locate_pressure_point(0, F(4, 3))
    assert bi == 1 and iy == 0
    with pytest.raises(DomainError):
        system.locate_pressure_point(F(1, 7), 0)


def test_locate_pressure_point_needs_grid_blocks():
    system = assemble_1d_boundary_system(sw.build_sbp_1d(16, 1 / 15))
    with pytest.raises(DomainError):
        system.locate_pressure_point(0, 0)


def test_two_block_requires_matching_transfer():
    transfer = tile_periodic(tabulated_elemental_pair(F(2, 1)), 12, 24)
    with pytest.raises(DomainError):
        ratio_system(2, 1, transfer=transfer)


def test_constant_medium_reduces_to_scaled_unit_system(rng):
    from stagwave.media import ConstantMedium
    block = build_block_2d(0, 1, 12, 0, 1, 13)
    rho, c = 2.0, 0.5
    het = assemble_single_block_system(block, ConstantMedium(rho=rho, c=c))
    unit = assemble_single_block_system(block)
    prs, vel = unit.random_state(rng)
    dp_h = het.pressure_rates(vel)[0]
    dp_u = unit.pressure_rates(vel)[0]
    np.testing.assert_allclose(dp_h, dp_u * (rho * c * c), rtol=1e-14)
    du_h, dv_h = het.velocity_rates(prs)
    du_u, dv_u = unit.velocity_rates(prs)
    np.testing.assert_allclose(du_h, du_u / rho, rtol=1e-14)
    np.testing.assert_allclose(dv_h, dv_u / rho, rtol=1e-14)
