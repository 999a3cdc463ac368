import math
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
from stagwave.verification import (SCENARIOS, build_scenario, energy_rate_oracle,
                                   materialize_system, ratio_system,
                                   uniform_standing_system, with_random_coefficients)

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
    assert np.all(system.velocity_rates(np.zeros(16)) == 0.0)
    np.testing.assert_array_equal(system.pressure_rates(v), -ops.apply_d_v(v))


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
    p, _ = system.random_state(rng)
    (field,) = system.pressure_fields(p)
    field[0] = 0.0
    field[-1] = 0.0
    dv, du = system.velocity_fields(system.velocity_rates(p))
    np.testing.assert_array_equal(dv, -b.ops[0].apply_d_p(field, axis=0))


def test_2d_single_block_pressure_rates_sum_both_axes(rng):
    # x is periodic, so D_x u is written into the pressure-shaped u-rate
    # buffer and added to D_y v: bit for bit the sum of the two differences
    system = uniform_standing_system(12)
    y, x = system.blocks[0].ops
    _, vel = system.random_state(rng)
    v, u = system.velocity_fields(vel)
    (dp,) = system.pressure_fields(system.pressure_rates(vel))
    np.testing.assert_array_equal(
        dp, y.apply_d_v(v, 0, scale=-1.0) + x.apply_d_v(u, 1, scale=-1.0))


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
    v = (yv**2)[:, None] * np.ones((1, 12))
    dv = b.ops[0].apply_d_v(v, axis=0)
    np.testing.assert_allclose(dv, (2 * yp)[:, None] * np.ones((1, 12)),
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
        p = np.ones((n + 1, 1)) * np.sin(2 * np.pi * xs)
        d = b.ops[1].apply_d_p(p, axis=1)
        errs.append(np.abs(d - 2 * np.pi * np.cos(2 * np.pi * xu)).max())
    assert 14.0 <= errs[0] / errs[1] <= 18.0


def test_mixed_product_identity_for_q_y():
    b = assemble_2d_block(build_block_2d(0, 1, 6, 0, 1, 9))
    _, nx = b.block.p_shape
    y_ops, x_ops = b.ops
    a_p2 = np.kron(np.diag(y_ops.a_p), np.diag(x_ops.a_p))
    a_v2 = np.kron(np.diag(y_ops.a_v), np.diag(x_ops.a_p))
    d_y_v = np.kron(y_ops.dense_d_v(), np.eye(nx))
    d_y_p = np.kron(y_ops.dense_d_p(), np.eye(nx))
    q_big = a_p2 @ d_y_v + (a_v2 @ d_y_p).T
    q_1d = (y_ops.a_p[:, None] * y_ops.dense_d_v()
            + (y_ops.a_v[:, None] * y_ops.dense_d_p()).T)
    q_expected = np.kron(q_1d, np.diag(x_ops.a_p))
    np.testing.assert_allclose(q_big, q_expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("make", [lambda: ratio_system(2, 1),
                                  lambda: SemiDiscreteSystem([BlockOperators(
                                      [sw.build_periodic_1d(12, 0.1),
                                       sw.build_periodic_1d(10, 0.1)])])],
                         ids=["two_block", "periodic"])
def test_composing_the_rate_methods_raises(make, rng):
    # pressure_rates uses the velocity-rate buffers as scratch, so feeding it
    # velocity_rates' result must not run; velocity_rates uses only its own
    # buffers, so -V o P runs on pressure_rates' result with no copy
    system = make()
    p, v = system.random_state(rng)
    with pytest.raises(DomainError):
        system.pressure_rates(system.velocity_rates(p))
    l_vel, l_prs = materialize_system(system)
    vp = system.velocity_rates(system.pressure_rates(v))
    vp_dense = l_vel @ (l_prs @ v)
    assert np.abs(vp - vp_dense).max() <= 1e-14 * np.abs(vp_dense).max()


# ---------------------------------------------------------------------------
# matrix-free vs dense, split-grid consistency
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("hetero", [False, True])
def test_matrix_free_equals_dense_two_block(rng, hetero):
    system = ratio_system(2, 1)
    if hetero:
        system = with_random_coefficients(system, rng)
    l_vel, l_prs = materialize_system(system)
    p, v = system.random_state(rng)
    dp = system.pressure_rates(v)
    dv = system.velocity_rates(p)
    dp_dense = l_prs @ v
    dv_dense = l_vel @ p
    assert np.abs(dp - dp_dense).max() <= 1e-14 * np.abs(dp_dense).max()
    assert np.abs(dv - dv_dense).max() <= 1e-14 * np.abs(dv_dense).max()


def _assert_matrix_free_equals_dense(system, rng):
    l_vel, l_prs = materialize_system(system)
    p, v = system.random_state(rng)
    assert np.abs(system.pressure_rates(v) - l_prs @ v).max() <= 1e-13
    assert np.abs(system.velocity_rates(p) - l_vel @ p).max() <= 1e-13


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


@pytest.mark.parametrize("kind", list(_SYSTEM_KINDS))
def test_block_shapes_are_the_weight_shapes(kind):
    # shapes come from the 1D point counts, without building the weights
    for b in _SYSTEM_KINDS[kind]().blocks:
        assert b.shapes == [w.shape for w in b.weights]


@pytest.mark.parametrize("hetero", [False, True], ids=["unit", "hetero"])
@pytest.mark.parametrize("kind", list(_SYSTEM_KINDS))
def test_scaled_rates_are_the_rates_times_the_scale(rng, kind, hetero):
    # the scale goes into the kernels (their matrix kept for the last scale)
    # and multiplies each penalty weight; alternating it catches a stale cache
    system = _SYSTEM_KINDS[kind]()
    if hetero:
        system = with_random_coefficients(system, rng)
    p, v = system.random_state(rng)
    dp = system.pressure_rates(v).copy()
    dv = system.velocity_rates(p).copy()
    for s in (1e-3, 1.0, 1e-3):
        for got, want in ((system.pressure_rates(v, s), s * dp),
                          (system.velocity_rates(p, s), s * dv)):
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), s


def test_conforming_split_tracks_single_segment():
    """A 1:1 split with interface penalties is a different (equally accurate)
    discretization near the interface; for smooth data over a short run the
    two solutions stay within truncation-level distance (measured 8.3e-8)."""
    dt = 1e-4
    full = assemble_1d_boundary_system(sw.build_sbp_1d(65, 1 / 64))
    split = assemble_1d_interface_system(sw.build_sbp_1d(33, 1 / 64),
                                         sw.build_sbp_1d(33, 1 / 64))
    x_full = np.arange(65) / 64
    st_full = SimState(np.sin(np.pi * x_full), np.zeros(64))
    st_split = SimState(*split.zero_state())
    left, right = split.pressure_fields(st_split.p)
    left[:] = np.sin(np.pi * np.arange(33) / 64)
    right[:] = np.sin(np.pi * (0.5 + np.arange(33) / 64))
    for _ in range(100):
        step_forward(full, st_full, dt)
        step_forward(split, st_split, dt)
    glued = np.concatenate([left[:-1], [0.5 * (left[-1] + right[0])], right[1:]])
    assert np.abs(glued - st_full.p).max() <= 2e-7


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
    assert glued.blocks[0].block.p_shape == whole.blocks[0].block.p_shape == (17, 12)
    p, v = whole.random_state(rng)
    np.testing.assert_array_equal(glued.pressure_rates(v), whole.pressure_rates(v))
    np.testing.assert_array_equal(glued.velocity_rates(p), whole.velocity_rates(p))


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
    p, v = pair.random_state(rng)
    np.testing.assert_array_equal(system.pressure_rates(v), pair.pressure_rates(v))
    np.testing.assert_array_equal(system.velocity_rates(p), pair.velocity_rates(p))
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
    # flat indices into the pressure vector: block 0 is 9 x 6 points, so
    # (ix, iy) of block 0 is 6 iy + ix and block 1 starts at 54
    system = ratio_system(2, 1)
    assert system.locate_pressure_point(0, 0) == 0
    assert system.locate_pressure_point(F(1, 6), F(7, 6)) == 43
    # the interface row belongs to both blocks; the top one wins
    assert system.locate_pressure_point(0, F(4, 3)) == 54
    bottom, top = system.pressure_fields(np.arange(54 + 9 * 12))
    assert bottom[7, 1] == 43 and top[0, 0] == 54
    with pytest.raises(DomainError):
        system.locate_pressure_point(F(1, 7), 0)


def test_fields_are_rows_by_columns():
    # y, the stacking axis, is axis 0: a depth-only medium varies along it
    # alone, and the point (x, y) is the field entry [iy, ix]
    from stagwave.media import VerticalLinearMedium
    medium = VerticalLinearMedium(y_bottom=0.0, y_top=4 / 3, rho_bottom=2.0,
                                  rho_top=1.0, c_bottom=3.0, c_top=1.5)
    system = assemble_interface_system([build_block_2d(0, 1, 12, 0, F(2, 3), 9),
                                        build_block_2d(0, 1, 24, F(2, 3), F(4, 3), 17)],
                                       medium)
    p = np.arange(float(system.zero_state()[0].size))
    for b, field in zip(system.blocks, system.pressure_fields(p)):
        c_p = b.coefficients[0]
        assert field.shape == c_p.shape == b.block.p_shape
        assert np.all(c_p == c_p[:, :1]) and np.ptp(c_p[:, 0]) > 0
        gx, gy = b.block.grid_x, b.block.grid_y
        for iy, ix in ((1, 2), (gy.n_p - 2, gx.n_p - 1)):
            index = system.locate_pressure_point(gx.primary_coord(ix), gy.primary_coord(iy))
            assert p[index] == field[iy, ix]


ENERGY_SYSTEMS = {**{name: lambda name=name: build_scenario(name)[0] for name in SCENARIOS},
                  **{f"{m}:{n}": lambda m=m, n=n: ratio_system(m, n)
                     for m, n in ((2, 1), (3, 2), (6, 5), (7, 6))}}


@pytest.mark.parametrize("make", ENERGY_SYSTEMS.values(), ids=ENERGY_SYSTEMS.keys())
def test_energy_matches_a_per_field_sum(make):
    # the energy is two dots over weight vectors laid out like the state; the
    # reference sums c * w * x^2 field by field from each block's own weights
    system = make()
    p, v = system.random_state(np.random.default_rng(11))
    fields = system.pressure_fields(p) + system.velocity_fields(v)
    weights = ([b.coefficients[0] * b.weights[0] for b in system.blocks]
               + [c * w for b in system.blocks
                  for c, w in zip(b.coefficients[1:], b.weights[1:])])
    want = 0.5 * math.fsum(float((f * f * w).sum()) for f, w in zip(fields, weights))
    assert system.energy(p, v) == pytest.approx(want, rel=1e-14, abs=0)


def test_state_vectors_of_the_wrong_length_are_rejected():
    system = ratio_system(2, 1)
    p, v = system.zero_state()
    for call, vector in ((system.pressure_rates, v[:-1]),
                         (system.velocity_rates, np.append(p, 0.0)),
                         (lambda x: system.energy(x, v), p[:1]),
                         (lambda x: system.energy(p, x), v[:-1]),
                         (lambda x: system.energy(p, v, p_next=x), p[:-1]),
                         (system.pressure_fields, v), (system.velocity_fields, p)):
        with pytest.raises(DomainError, match="expected a vector"):
            call(vector)


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
    p, v = unit.random_state(rng)
    np.testing.assert_allclose(het.pressure_rates(v), unit.pressure_rates(v) * (rho * c * c),
                               rtol=1e-14)
    np.testing.assert_allclose(het.velocity_rates(p), unit.velocity_rates(p) / rho, rtol=1e-14)
