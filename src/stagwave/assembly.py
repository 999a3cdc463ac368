"""Semi-discrete right-hand sides: tensor-product blocks, boundary and
interface penalties, and the one system class that couples them.

A block (`BlockOperators`) is the tensor product of one 1D operator set per
axis, periodic on every axis but the last, which alone may be bounded; its
operators are never formed, the 1D differences are applied along array axes
in place. Fields have one array axis per block axis; a 2D field's flattening
is the column-wise linearization (x-major, y fastest). A system
(`SemiDiscreteSystem`) is a stack of blocks along their last axis, each
consecutive pair coupled through its own transfer pair: a 1D segment, 1D
segments sharing interface points, a 2D block, or 2D blocks refining upward.
Its state is a list of pressure fields, one per block, and a list of velocity
fields per block, then per axis: [V], [VL, VR], [U, V], [U0, V0, U1, V1], ...

All penalty terms appear after multiplying the governing equations by the
inverse norm matrices, at which point the norms of the other axes cancel and
each term reduces to a rank-one update along the penalized axis:

  pressure row at the interface:   sigma/a[row] * (transferred v - own v)
  velocity rows near an end:       sigma * outer(p_row, proj / a_dual)

A bounded last axis is pressure-free at both ends, except where a stack's
blocks meet. There the blocks exchange traces through a norm-compatible
transfer pair across the other axis (a 1x1 identity for one-axis blocks).

With the penalty coefficients at their defaults the discrete energy

  E = 1/2 sum_fields  x^T (C . A) x

is conserved exactly by the spatial operator: its time derivative telescopes
to zero for any state. `energy_rate` evaluates that bilinear form analytically
and is the package's primary conservation oracle.

Material coefficients divide the assembled right-hand side at the very end
(they multiply the time derivatives on the left of the governing system), so
heterogeneous media reuse the identical penalty structure.

Buffer contract: a system allocates one rate buffer per field at
construction, and computes its penalty and energy weights, signs included,
then too. `pressure_rates` and `velocity_rates` write into those buffers and
return them; the caller may scale them in place. A result is valid until the
next call of either rate method, because `pressure_rates` uses each axis's
velocity-rate buffer as scratch and `velocity_rates` uses the pressure-rate
buffer. For the same reason one method's result must not be passed to the
other; wherever that would overwrite the input (every 2D block), the
difference kernel raises `DomainError` instead.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DomainError
from .exact import to_fraction
from .grids import StaggeredBlock2D, build_block_2d, build_layout
from .media import Medium, sample_coefficients
from .sbp1d import SbpOperatorSet1D, build_periodic_1d, build_sbp_1d
from .transfer import TransferPair, transfer_pair_for


@dataclass(frozen=True)
class SatCoefficients:
    """Penalty weights; defaults are the energy-conserving choices."""

    # pressure-free ends: left/right of a 1D segment, bottom/top of a 2D block
    sigma_left: float = -1.0
    sigma_right: float = 1.0
    sigma_bottom: float = -1.0
    sigma_top: float = 1.0
    # interface between stacked blocks
    sigma_p_minus: float = -0.5
    sigma_v_minus: float = -0.5
    sigma_p_plus: float = -0.5
    sigma_v_plus: float = -0.5


#: SatCoefficients fields of the (low, high) ends of a last axis 0 or 1
_END_SIGMAS = (("sigma_left", "sigma_right"), ("sigma_bottom", "sigma_top"))


def _rate_from_terms(terms: list[float]) -> float:
    """|sum of per-field energy-rate terms| / sum of their magnitudes."""
    total = sum(terms)
    scale = sum(abs(t) for t in terms)
    return abs(total) / scale if scale > 0 else 0.0


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------

class BlockOperators:
    """One block: the tensor product of one 1D operator set per axis, with
    the norm weight and the material coefficient of each field. Every axis
    but the last is periodic; only the last may be bounded (`DomainError`).

    Fields are ordered [p, velocity along axis 0, (velocity along axis 1)];
    a velocity lives on the dual points of its own axis and on the primary
    points of the other. `coefficients` holds one array per field, shaped
    like it (unit coefficients when omitted); `block` is the grid block the
    operators were built for, if any.
    """

    def __init__(self, ops, coefficients=None, block: StaggeredBlock2D | None = None):
        self.ops = tuple(ops)
        if any(isinstance(op, SbpOperatorSet1D) for op in self.ops[:-1]):
            raise DomainError("only a block's last axis may be bounded")
        self.ndim = len(self.ops)
        self.block = block
        weights = self.weights
        self.shapes = [w.shape for w in weights]
        if coefficients is None:
            coefficients = [np.ones(shape) for shape in self.shapes]
        self.coefficients = list(coefficients)
        #: c * w per field: the weights of the discrete energy
        self.energy_weights = [c * w for c, w in zip(self.coefficients, weights)]

    @property
    def weights(self) -> list[NDArray[np.float64]]:
        """Norm weights per field: outer products of the 1D norm diagonals
        (built on each access; the system keeps only c * w)."""
        primary = [op.a_p for op in self.ops]
        per_field = [primary] + [primary[:k] + [op.a_v] + primary[k + 1:]
                                 for k, op in enumerate(self.ops)]
        return [functools.reduce(np.multiply.outer, ws) for ws in per_field]


def assemble_2d_block(block: StaggeredBlock2D,
                      medium: Medium | None = None) -> BlockOperators:
    """Build one grid block's operators, x periodic and y bounded, sampling
    the medium if given."""
    gx, gy = block.grid_x, block.grid_y
    coefficients = None
    if medium is not None:
        sampled = sample_coefficients(medium, block)
        coefficients = (sampled.c_p, sampled.c_u, sampled.c_v)
    return BlockOperators((build_periodic_1d(gx.n_p, gx.dx), build_sbp_1d(gy.n_p, gy.dx)),
                          coefficients, block)


# ---------------------------------------------------------------------------
# penalties
# ---------------------------------------------------------------------------

def _add_rank_one(field, rows, trace, weights) -> None:
    """field[rows[j]] += trace * weights[j], one row at a time: 1D updates
    skip the buffered loops numpy runs for a strided 2D block."""
    for row, weight in zip(rows, weights):
        field[row] += trace * weight


def free_surface_velocity_sats(ops: BlockOperators, coeffs: SatCoefficients,
                               low: bool, high: bool):
    """Additive velocity penalties that weakly impose p = 0 on a block's
    pressure-free ends: the two outer ends of its last (stacking) axis,
    when that axis is bounded.

    `low` and `high` select the ends that are not an interface. A last
    axis 0 (a 1D segment) takes sigma_left/sigma_right, a last axis 1
    sigma_bottom/sigma_top. Returns a callable (p, dvel) that adds the
    penalties to the block's velocity rates dvel (one per axis) in place;
    the weights, sign included, are computed here once.
    """
    k = ops.ndim - 1
    axis_ops = ops.ops[k]
    lead = (slice(None),) * k
    sigma_low, sigma_high = (getattr(coeffs, name) for name in _END_SIGMAS[k])
    terms = []   # (trace index, row indices, weights)
    if isinstance(axis_ops, SbpOperatorSet1D):
        if low:
            terms.append((lead + (0,), [lead + (j,) for j in range(3)],
                          sigma_low * axis_ops.proj_left[:3] / axis_ops.a_v[:3]))
        if high:
            terms.append((lead + (-1,), [lead + (j,) for j in range(-3, 0)],
                          sigma_high * axis_ops.proj_right[-3:] / axis_ops.a_v[-3:]))

    def add_terms(p, dvel):
        for trace, rows, weights in terms:
            _add_rank_one(dvel[k], rows, p[trace], weights)

    return add_terms


def interface_sat_terms(bottom: BlockOperators, top: BlockOperators,
                        transfer: TransferPair, coeffs: SatCoefficients):
    """Additive interface penalties coupling a coarse block below to a fine
    block above, across their last axis.

    Returns (add_to_pressure, add_to_velocity): the first consumes the two
    last-axis velocity fields and increments the interface pressure rows,
    the second consumes the two pressure fields and increments the
    last-axis velocity rows near the interface, both in place. Both sides
    exchange restricted/projected traces through the transfer pair, which
    maps across the other axis and is applied from its elemental stencils
    (`GatherPlan`); a one-axis block is read as a single column with a 1x1
    transfer. The penalty weights, sign included, are computed here once.

    Raises:
        DomainError: transfer operator shapes do not match the interface.
    """
    n_coarse, n_fine = (math.prod(b.shapes[0][:-1]) for b in (bottom, top))
    if (transfer.n_coarse, transfer.n_fine) != (n_coarse, n_fine):
        raise DomainError(
            f"transfer pair {transfer.n_fine}x{transfer.n_coarse} does not match "
            f"{n_fine} fine / {n_coarse} coarse columns"
        )
    y_m, y_p = bottom.ops[-1], top.ops[-1]
    proj_m = y_m.proj_right[-3:]
    proj_p = y_p.proj_left[:3]
    lift_m = coeffs.sigma_v_minus * proj_m / y_m.a_v[-3:]
    lift_p = coeffs.sigma_v_plus * proj_p / y_p.a_v[:3]
    tau_m = coeffs.sigma_p_minus / y_m.a_p[-1]
    tau_p = coeffs.sigma_p_plus / y_p.a_p[0]
    f2c, c2f = transfer.f2c_plan.apply, transfer.c2f_plan.apply
    # indices along the last axis, for every column; a one-axis field is read
    # as a single column
    col = (slice(None),) if bottom.ndim == 2 else (None,)
    last3, first3 = col + (slice(-3, None),), col + (slice(0, 3),)
    last, first = col + (-1,), col + (0,)
    rows_m = [col + (j,) for j in range(-3, 0)]
    rows_p = [col + (j,) for j in range(3)]

    def add_to_pressure(v_m, v_p, dp_m, dp_p):
        v_int_m = v_m[last3] @ proj_m
        v_int_p = v_p[first3] @ proj_p
        dp_m[last] += tau_m * (f2c(v_int_p) - v_int_m)
        dp_p[first] += tau_p * (v_int_p - c2f(v_int_m))

    def add_to_velocity(p_m, p_p, dv_m, dv_p):
        p_int_m = p_m[last]
        p_int_p = p_p[first]
        _add_rank_one(dv_m, rows_m, f2c(p_int_p) - p_int_m, lift_m)
        _add_rank_one(dv_p, rows_p, p_int_p - c2f(p_int_m), lift_p)

    return add_to_pressure, add_to_velocity


# ---------------------------------------------------------------------------
# the system
# ---------------------------------------------------------------------------

class SemiDiscreteSystem:
    """Complete spatial operator for a stack of blocks, each consecutive
    pair coupled through its own transfer pair.

    Blocks are ordered bottom-first (left-first for one-axis blocks) and
    stack along their last axis; `transfers[i]` couples block i to block
    i + 1. Pressure fields live at integer time levels, velocity fields at
    half levels; `pressure_rates` consumes velocities and `velocity_rates`
    consumes pressures, which is exactly the split the staggered leapfrog
    needs. The rates are written into buffers the system owns (see the
    module docstring for how long they are valid).

    Raises:
        DomainError: the number of transfer pairs is not one less than the
            number of blocks, or a pair does not match its interface.
    """

    def __init__(self, blocks: list[BlockOperators],
                 transfers: Sequence[TransferPair] = (),
                 coeffs: SatCoefficients | None = None):
        if len(transfers) != len(blocks) - 1:
            raise DomainError(f"a stack of {len(blocks)} blocks needs "
                              f"{len(blocks) - 1} transfer pairs, got {len(transfers)}")
        self.blocks = blocks = list(blocks)
        self.transfers = tuple(transfers)
        self.coeffs = coeffs or SatCoefficients()
        self._dp, self._dvel = self.zero_state()
        # per block: the index of its first velocity field, its velocity-rate
        # buffers and its free-surface penalties
        self._first_vel = [sum(b.ndim for b in blocks[:i]) for i in range(len(blocks))]
        self._block_dvel = [self._dvel[i:i + b.ndim] for i, b in zip(self._first_vel, blocks)]
        self._fs = [free_surface_velocity_sats(b, self.coeffs, low=i == 0,
                                               high=i == len(blocks) - 1)
                    for i, b in enumerate(blocks)]
        # per interface: the lower block's index, the two blocks' last-axis
        # velocities (the ones it couples) and its two penalty callables
        last_vel = [i + b.ndim - 1 for i, b in zip(self._first_vel, blocks)]
        self._interfaces = [
            (i, last_vel[i], last_vel[i + 1],
             *interface_sat_terms(blocks[i], blocks[i + 1], transfer, self.coeffs))
            for i, transfer in enumerate(self.transfers)]
        self._c_p = [b.coefficients[0] for b in blocks]
        self._c_vel = [c for b in blocks for c in b.coefficients[1:]]
        self._cw_p = [b.energy_weights[0] for b in blocks]
        self._cw_vel = [w for b in blocks for w in b.energy_weights[1:]]

    # -- leapfrog protocol ---------------------------------------------------

    def pressure_rates(self, vel):
        """d/dt of the pressure fields given the velocity fields.

        Per block, d_v along the last axis is written; along the periodic x
        axis it is written into the pressure-shaped u-rate buffer and added.
        """
        for b, dp, i, dvel in zip(self.blocks, self._dp, self._first_vel,
                                  self._block_dvel):
            last = b.ndim - 1
            b.ops[last].apply_d_v(vel[i + last], last, dp, -1.0, scratch=dvel[last])
            for k in range(last):
                dp += b.ops[k].apply_d_v(vel[i + k], k, dvel[k], -1.0)
        for i, m, p, add_to_pressure, _ in self._interfaces:
            add_to_pressure(vel[m], vel[p], self._dp[i], self._dp[i + 1])
        for dp, c in zip(self._dp, self._c_p):
            dp /= c
        return self._dp

    def velocity_rates(self, prs):
        """d/dt of the velocity fields given the pressure fields; d_p along
        every axis, with the block's pressure-rate buffer as scratch."""
        for b, p, scratch, dvel, fs in zip(self.blocks, prs, self._dp,
                                           self._block_dvel, self._fs):
            for k, (axis_ops, dv) in enumerate(zip(b.ops, dvel)):
                axis_ops.apply_d_p(p, k, dv, -1.0, scratch=scratch)
            fs(p, dvel)
        for i, m, p, _, add_to_velocity in self._interfaces:
            add_to_velocity(prs[i], prs[i + 1], self._dvel[m], self._dvel[p])
        for dv, c in zip(self._dvel, self._c_vel):
            dv /= c
        return self._dvel

    # -- diagnostics ----------------------------------------------------------

    def energy(self, prs, vel) -> float:
        """The discrete energy 1/2 sum_fields x^T (C . A) x."""
        e = 0.0
        for f, cw in zip([*prs, *vel], self._cw_p + self._cw_vel):
            e += float(np.vdot(f * f, cw))
        return 0.5 * e

    def energy_rate(self, prs, vel) -> float:
        """Relative instantaneous rate of change of the discrete energy."""
        terms = [float(np.vdot(p * dp, cw))
                 for p, dp, cw in zip(prs, self.pressure_rates(vel), self._cw_p)]
        terms += [float(np.vdot(v * dv, cw))
                  for v, dv, cw in zip(vel, self.velocity_rates(prs), self._cw_vel)]
        return _rate_from_terms(terms)

    def _fields(self, make):
        """(pressures, velocities) in state order, each field made by
        make(shape)."""
        return ([make(b.shapes[0]) for b in self.blocks],
                [make(shape) for b in self.blocks for shape in b.shapes[1:]])

    def zero_state(self):
        return self._fields(np.zeros)

    def random_state(self, rng, amplitude=1.0):
        return self._fields(lambda shape: amplitude * rng.standard_normal(shape))

    def locate_pressure_point(self, x, y) -> tuple[int, int, int]:
        """(block index, ix, iy) of the pressure point at exactly (x, y) of
        a grid block."""
        if any(b.block is None for b in self.blocks):
            raise DomainError("pressure points are located on grid blocks only")
        fx, fy = to_fraction(x), to_fraction(y)
        hits = []
        for bi, b in enumerate(self.blocks):
            gx, gy = b.block.grid_x, b.block.grid_y
            qx = (fx - gx.x_left) / gx.dx
            qy = (fy - gy.x_left) / gy.dx
            if qx.denominator == 1 and 0 <= qx < gx.n_p \
                    and qy.denominator == 1 and 0 <= qy <= gy.n_p - 1:
                hits.append((bi, int(qx), int(qy)))
        if not hits:
            raise DomainError(f"({x}, {y}) is not a pressure grid point of any block")
        return hits[-1]  # interface rows belong to both; prefer the top block


def assemble_1d_boundary_system(ops: SbpOperatorSet1D,
                                coeffs: SatCoefficients | None = None) -> SemiDiscreteSystem:
    """One bounded segment, pressure-free at both ends."""
    return SemiDiscreteSystem([BlockOperators([ops])], coeffs=coeffs)


def assemble_1d_interface_system(left: SbpOperatorSet1D, right: SbpOperatorSet1D,
                                 coeffs: SatCoefficients | None = None) -> SemiDiscreteSystem:
    """Two bounded segments sharing a duplicated interface pressure point:
    the outer ends are pressure-free, and the interface penalties exchange
    projected dual values and pressure jumps through the 1x1 identity
    transfer."""
    return SemiDiscreteSystem([BlockOperators([left]), BlockOperators([right])],
                              [transfer_pair_for(1, 1, 1)], coeffs)


def assemble_interface_system(blocks: Sequence[StaggeredBlock2D], medium: Medium | None = None,
                              transfers: Sequence[TransferPair] | None = None,
                              coeffs: SatCoefficients | None = None) -> SemiDiscreteSystem:
    """Assemble the system for a bottom-first stack of grid blocks.

    Each interface's transfer pair is built from its ratio unless supplied.
    Gluing is decided per interface, bottom first. A conforming split is glued
    into the single grid it is: when the ratio is 1:1, both blocks share one y
    spacing, and the medium samples c_p and c_u on the shared row are exactly
    equal from both sides, the two blocks are merged into one (their x grid,
    the y range of both, n_below + n_above - 1 rows), and that interface's
    penalty coefficients and transfer pair have no effect. Every other
    interface, including a 1:1 split on a material interface, keeps its two
    blocks coupled by interface penalties through the transfer pair.

    Raises:
        DomainError: the blocks do not stack (see `build_layout`), the number
            of supplied transfer pairs is not one per interface, or a pair
            does not match its interface.
    """
    ratios = build_layout(blocks)
    transfers = [None] * len(ratios) if transfers is None else transfers
    if len(transfers) != len(ratios):
        raise DomainError(f"{len(ratios)} interfaces need as many transfer pairs, "
                          f"got {len(transfers)}")
    stack, kept = [assemble_2d_block(blocks[0], medium)], []
    for block, ratio, transfer in zip(blocks[1:], ratios, transfers):
        below, above = stack[-1], assemble_2d_block(block, medium)
        if _is_conforming(below, above):
            gx, gy_b, gy_t = block.grid_x, below.block.grid_y, block.grid_y
            stack[-1] = assemble_2d_block(build_block_2d(
                gx.x_left, gx.length, gx.n_p, gy_b.x_left, gy_t.x_right,
                gy_b.n_p + gy_t.n_p - 1), medium)
        else:
            stack.append(above)
            kept.append(transfer or transfer_pair_for(ratio, below.block.grid_x.n_p,
                                                      block.grid_x.n_p))
    return SemiDiscreteSystem(stack, kept, coeffs)


def _is_conforming(below: BlockOperators, above: BlockOperators) -> bool:
    """True when two stacked blocks are one uniform grid with continuous
    material on the shared row (v has no points there)."""
    gb, ga = below.block, above.block
    return (gb.grid_x.dx == ga.grid_x.dx
            and gb.grid_y.dx == ga.grid_y.dx
            and np.array_equal(below.coefficients[0][:, -1], above.coefficients[0][:, 0])
            and np.array_equal(below.coefficients[1][:, -1], above.coefficients[1][:, 0]))


def assemble_single_block_system(block: StaggeredBlock2D, medium: Medium | None = None,
                                 coeffs: SatCoefficients | None = None) -> SemiDiscreteSystem:
    """Assemble a single-block system: x periodic, top and bottom
    pressure-free."""
    return SemiDiscreteSystem([assemble_2d_block(block, medium)], coeffs=coeffs)
