"""Semi-discrete right-hand sides: tensor-product blocks, boundary and
interface penalties, and the one system class that couples them.

A block (`BlockOperators`) is the tensor product of one 1D operator set per
axis, periodic on every axis but the first, which alone may be bounded; its
operators are never formed, the 1D differences are applied along array axes
in place. Fields have one array axis per block axis; a 2D field is
(n_y, n_x), rows of constant y, and its flattening runs along x fastest. A
system (`SemiDiscreteSystem`) is a stack of blocks along their first axis,
each consecutive pair coupled through its own transfer pair: a 1D segment, 1D
segments sharing interface points, a 2D block, or 2D blocks refining upward.
Its state is two flat vectors, each field laid end to end in its flattening:
p holds the pressure field of each block, v the velocity fields per block, then
per axis: [V], [VL, VR], [V, U], [V0, U0, V1, U1], ... Only the system knows
that layout; `pressure_fields` and `velocity_fields` give a vector's fields as
views.

All penalty terms appear after multiplying the governing equations by the
inverse norm matrices, at which point the norms of the other axes cancel and
each term reduces to a rank-one update along the penalized axis:

  pressure row at the interface:   sigma/a[row] * (transferred v - own v)
  velocity rows near an end:       sigma * outer(p_row, proj / a_dual)

A bounded first axis is pressure-free at both ends, except where a stack's
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

Buffer contract: a system allocates its two rate vectors at construction, and
fixes its penalty weights, signs included, as floats, and its energy weights
c . w, as vectors laid out like p and v, then too. The rate methods return
scale * d/dt (scale 1 by default): the scale goes into the difference kernels'
own scalar multiply, and each penalty term multiplies its weights by it where
it adds them, so the leapfrog passes dt and needs no pass of its own. They
write through field views into the rate vectors and return them; the caller
may change them in place. A `pressure_rates` result is valid until the next
`pressure_rates` call; a `velocity_rates` result until the next call of
either: `pressure_rates` forms each periodic axis's term in that axis's
velocity-rate field. `energy` reads its operands and the weights only and
leaves both rate vectors as they are. `velocity_rates` writes only its own
fields, so the operator M = -V o P runs as `velocity_rates(pressure_rates(v))`
with no copy. The other order would overwrite its input on every 2D block;
there the difference kernel raises `DomainError` instead.
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


#: SatCoefficients fields of the (low, high) ends of a 1D or a 2D block, by ndim
_END_SIGMAS = {1: ("sigma_left", "sigma_right"), 2: ("sigma_bottom", "sigma_top")}


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------

class BlockOperators:
    """One block: the tensor product of one 1D operator set per axis, with
    the norm weight and the material coefficient of each field. Every axis
    but the first is periodic; only the first may be bounded (`DomainError`).

    Fields are ordered [p, velocity along axis 0, (velocity along axis 1)];
    a velocity lives on the dual points of its own axis and on the primary
    points of the other. `coefficients` holds one array per field, shaped
    like it (unit coefficients when omitted); `block` is the grid block the
    operators were built for, if any.
    """

    def __init__(self, ops, coefficients=None, block: StaggeredBlock2D | None = None):
        self.ops = tuple(ops)
        if any(isinstance(op, SbpOperatorSet1D) for op in self.ops[1:]):
            raise DomainError("only a block's first axis may be bounded")
        self.ndim = len(self.ops)
        self.block = block
        n_p = [op.a_p.size for op in self.ops]
        self.shapes = [tuple(n_p)] + [tuple(n_p[:k] + [op.a_v.size] + n_p[k + 1:])
                                      for k, op in enumerate(self.ops)]
        if coefficients is None:
            coefficients = [np.ones(shape) for shape in self.shapes]
        self.coefficients = list(coefficients)

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
    """Build one grid block's operators, y bounded along axis 0 and x
    periodic along axis 1, sampling the medium if given."""
    gx, gy = block.grid_x, block.grid_y
    coefficients = None
    if medium is not None:
        sampled = sample_coefficients(medium, block)
        coefficients = (sampled.c_p, sampled.c_v, sampled.c_u)
    return BlockOperators((build_sbp_1d(gy.n_p, gy.dx), build_periodic_1d(gx.n_p, gx.dx)),
                          coefficients, block)


# ---------------------------------------------------------------------------
# penalties
# ---------------------------------------------------------------------------

def _add_rank_one(field, rows, trace, weights, scale) -> None:
    """field[rows[j]] += trace * (scale * weights[j]), one contiguous row (on
    a 1D segment, one point) at a time."""
    for row, weight in zip(rows, weights):
        field[row] += trace * (scale * weight)


def free_surface_velocity_sats(ops: BlockOperators, coeffs: SatCoefficients,
                               low: bool, high: bool):
    """Additive velocity penalties that weakly impose p = 0 on a block's
    pressure-free ends: the two outer ends of its first (stacking) axis,
    when that axis is bounded.

    `low` and `high` select the ends that are not an interface. A 1D segment
    takes sigma_left/sigma_right, a 2D block sigma_bottom/sigma_top. Returns
    a callable (p, dvel, scale=1.0) that adds scale times the penalties to
    the block's velocity rates dvel (one per axis) in place; the weights,
    sign included, are floats fixed here.
    """
    y = ops.ops[0]
    s_low, s_high = (getattr(coeffs, name) for name in _END_SIGMAS[ops.ndim])
    terms = []   # (trace row, penalized rows, their weights)
    if isinstance(y, SbpOperatorSet1D):
        if low:
            terms.append((0, range(3), (s_low * y.proj_left[:3] / y.a_v[:3]).tolist()))
        if high:
            terms.append((-1, range(-3, 0), (s_high * y.proj_right[-3:] / y.a_v[-3:]).tolist()))

    def add_terms(p, dvel, scale=1.0):
        for trace, rows, w in terms:
            _add_rank_one(dvel[0], rows, p[trace], w, scale)

    return add_terms


def interface_sat_terms(bottom: BlockOperators, top: BlockOperators,
                        transfer: TransferPair, coeffs: SatCoefficients):
    """Additive interface penalties coupling a coarse block below to a fine
    block above, across their first axis.

    Returns (add_to_pressure, add_to_velocity): the first consumes the two
    first-axis velocity fields and increments the interface pressure rows,
    the second consumes the two pressure fields and increments the
    first-axis velocity rows near the interface, both in place and both
    scaled by their last argument, `scale` (1 when omitted). Both sides
    exchange restricted/projected traces through the transfer pair, which
    maps across the other axis and is applied from its elemental stencils
    (`GatherPlan`); a one-axis block is read as a single column with a 1x1
    transfer. The penalty weights, sign included, are floats fixed here.

    Raises:
        DomainError: transfer operator shapes do not match the interface.
    """
    n_coarse, n_fine = (math.prod(b.shapes[0][1:]) for b in (bottom, top))
    if (transfer.n_coarse, transfer.n_fine) != (n_coarse, n_fine):
        raise DomainError(
            f"transfer pair {transfer.n_fine}x{transfer.n_coarse} does not match "
            f"{n_fine} fine / {n_coarse} coarse columns"
        )
    y_m, y_p = bottom.ops[0], top.ops[0]
    proj_m = y_m.proj_right[-3:]
    proj_p = y_p.proj_left[:3]
    lift_m = (coeffs.sigma_v_minus * proj_m / y_m.a_v[-3:]).tolist()
    lift_p = (coeffs.sigma_v_plus * proj_p / y_p.a_v[:3]).tolist()
    tau_m = float(coeffs.sigma_p_minus / y_m.a_p[-1])
    tau_p = float(coeffs.sigma_p_plus / y_p.a_p[0])
    f2c, c2f = transfer.f2c_plan.apply, transfer.c2f_plan.apply
    # rows along the first axis; a one-axis field is read as a single column
    col = () if bottom.ndim == 2 else (None,)
    last3, first3 = (slice(-3, None),) + col, (slice(0, 3),) + col
    last, first = (-1,) + col, (0,) + col
    rows_m = [(j,) + col for j in range(-3, 0)]
    rows_p = [(j,) + col for j in range(3)]

    def add_to_pressure(v_m, v_p, dp_m, dp_p, scale=1.0):
        v_int_m = proj_m @ v_m[last3]
        v_int_p = proj_p @ v_p[first3]
        dp_m[last] += (scale * tau_m) * (f2c(v_int_p) - v_int_m)
        dp_p[first] += (scale * tau_p) * (v_int_p - c2f(v_int_m))

    def add_to_velocity(p_m, p_p, dv_m, dv_p, scale=1.0):
        p_int_m = p_m[last]
        p_int_p = p_p[first]
        _add_rank_one(dv_m, rows_m, f2c(p_int_p) - p_int_m, lift_m, scale)
        _add_rank_one(dv_p, rows_p, p_int_p - c2f(p_int_m), lift_p, scale)

    return add_to_pressure, add_to_velocity


# ---------------------------------------------------------------------------
# the system
# ---------------------------------------------------------------------------

def _layout(shapes):
    """(size, [(slice, shape)]) of fields laid end to end in one vector."""
    stops = np.cumsum([0] + [math.prod(shape) for shape in shapes]).tolist()
    return stops[-1], [(slice(a, b), shape) for a, b, shape in zip(stops, stops[1:], shapes)]


def _views(vector, layout):
    """The fields of a vector laid out by `layout`, as views."""
    size, parts = layout
    if np.shape(vector) != (size,):
        raise DomainError(f"expected a vector of {size} values, got shape {np.shape(vector)}")
    return [vector[s].reshape(shape) for s, shape in parts]


class SemiDiscreteSystem:
    """Complete spatial operator for a stack of blocks, each consecutive
    pair coupled through its own transfer pair.

    Blocks are ordered bottom-first (left-first for one-axis blocks) and
    stack along their first axis; `transfers[i]` couples block i to block
    i + 1. Pressures live at integer time levels, velocities at half levels;
    `pressure_rates` consumes the velocity vector and `velocity_rates` the
    pressure vector, which is exactly the split the staggered leapfrog
    needs. The rates are written into vectors the system owns (see the
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
        self._p_layout = _layout([b.shapes[0] for b in blocks])
        self._v_layout = _layout([shape for b in blocks for shape in b.shapes[1:]])
        self._p_rate, self._v_rate = self.zero_state()
        self._dp = self.pressure_fields(self._p_rate)
        self._dvel = self.velocity_fields(self._v_rate)
        # per block: the index of its first velocity field, its velocity-rate
        # fields and its free-surface penalties
        self._first_vel = [sum(b.ndim for b in blocks[:i]) for i in range(len(blocks))]
        self._block_dvel = [self._dvel[i:i + b.ndim] for i, b in zip(self._first_vel, blocks)]
        self._fs = [free_surface_velocity_sats(b, self.coeffs, low=i == 0,
                                               high=i == len(blocks) - 1)
                    for i, b in enumerate(blocks)]
        # per interface: the lower block's index, the two blocks' first-axis
        # velocities (the ones it couples) and its two penalty callables
        self._interfaces = [
            (i, self._first_vel[i], self._first_vel[i + 1],
             *interface_sat_terms(blocks[i], blocks[i + 1], transfer, self.coeffs))
            for i, transfer in enumerate(self.transfers)]
        self._c_p = [b.coefficients[0] for b in blocks]
        self._c_vel = [c for b in blocks for c in b.coefficients[1:]]
        self._cw_p, self._cw_v = self.zero_state()   # c * w: the energy weights
        cw_vel = self.velocity_fields(self._cw_v)
        for b, cw_p, i in zip(blocks, self.pressure_fields(self._cw_p), self._first_vel):
            for c, w, cw in zip(b.coefficients, b.weights, [cw_p, *cw_vel[i:i + b.ndim]]):
                np.multiply(c, w, out=cw)

    # -- leapfrog protocol ---------------------------------------------------

    def pressure_rates(self, v, scale: float = 1.0):
        """scale * d/dt of the pressure vector given the velocity vector.

        Per block, d_v along the first axis is written; along a periodic axis
        it is written into that axis's (pressure-shaped) velocity rate and added.
        """
        vel = self.velocity_fields(v)
        for b, dp, i, dvel in zip(self.blocks, self._dp, self._first_vel,
                                  self._block_dvel):
            b.ops[0].apply_d_v(vel[i], 0, dp, -scale)
            for k in range(1, b.ndim):
                dp += b.ops[k].apply_d_v(vel[i + k], k, dvel[k], -scale)
        for i, lower, upper, add_to_pressure, _ in self._interfaces:
            add_to_pressure(vel[lower], vel[upper], self._dp[i], self._dp[i + 1], scale)
        for dp, c in zip(self._dp, self._c_p):
            dp /= c
        return self._p_rate

    def velocity_rates(self, p, scale: float = 1.0):
        """scale * d/dt of the velocity vector given the pressure vector; per
        block, d_p along each axis into that axis's velocity-rate field."""
        prs = self.pressure_fields(p)
        for b, field, dvel, fs in zip(self.blocks, prs, self._block_dvel, self._fs):
            for k, op in enumerate(b.ops):
                op.apply_d_p(field, k, dvel[k], -scale)
            fs(field, dvel, scale)
        for i, lower, upper, _, add_to_velocity in self._interfaces:
            add_to_velocity(prs[i], prs[i + 1], self._dvel[lower], self._dvel[upper], scale)
        for dv, c in zip(self._dvel, self._c_vel):
            dv /= c
        return self._v_rate

    # -- state vectors --------------------------------------------------------

    def pressure_fields(self, p):
        """The pressure field of each block in the vector p, as views."""
        return _views(p, self._p_layout)

    def velocity_fields(self, v):
        """The velocity fields in the vector v, in state order, as views."""
        return _views(v, self._v_layout)

    def zero_state(self):
        """(p, v), both zero."""
        return np.zeros(self._p_layout[0]), np.zeros(self._v_layout[0])

    def random_state(self, rng, amplitude=1.0):
        """(p, v) drawn from amplitude * N(0, 1), p first."""
        return (amplitude * rng.standard_normal(self._p_layout[0]),
                amplitude * rng.standard_normal(self._v_layout[0]))

    # -- diagnostics ----------------------------------------------------------

    def energy(self, p, v, p_next=None) -> float:
        """The discrete energy 1/2 sum_fields x^T (C . A) x: one pass over
        each vector and its weights, writing nothing. With `p_next`, the
        pressure term is p^T (C . A) p_next: for consecutive pressure levels
        and the velocities between them, the leapfrog's conserved energy.

        The pass is a scalar loop, fast only while the products it forms stay
        normal: with 2% of 349,040 squares underflowing it took three times
        as long. `leapfrog.run` rounds its state so that none underflows.
        """
        q = p if p_next is None else p_next
        want = (self._p_rate.shape, self._p_rate.shape, self._v_rate.shape)
        if tuple(map(np.shape, (p, q, v))) != want:
            raise DomainError(f"expected a vector of {self._p_rate.size} values for p (and "
                              f"p_next) and one of {self._v_rate.size} for v, got "
                              f"{np.shape(p)}, {np.shape(q)} and {np.shape(v)}")
        return 0.5 * float(np.einsum("i,i,i->", p, q, self._cw_p)
                           + np.einsum("i,i,i->", v, v, self._cw_v))

    def energy_rate(self, p, v) -> float:
        """Relative instantaneous rate of change of the discrete energy:
        |sum of the per-field terms x^T (C . A) dx/dt| / sum of their sizes."""
        self.pressure_rates(v)
        terms = [float(np.vdot(x * rate, cw)) for x, rate, cw in
                 zip(self.pressure_fields(p), self._dp, self.pressure_fields(self._cw_p))]
        self.velocity_rates(p)
        terms += [float(np.vdot(x * rate, cw)) for x, rate, cw in
                  zip(self.velocity_fields(v), self._dvel, self.velocity_fields(self._cw_v))]
        scale = sum(abs(t) for t in terms)
        return abs(sum(terms)) / scale if scale > 0 else 0.0

    def locate_pressure_point(self, x, y) -> int:
        """Index in the pressure vector of the point at exactly (x, y) of a
        grid block."""
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
                hits.append(self._p_layout[1][bi][0].start + int(qy) * gx.n_p + int(qx))
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
    material on the shared row: c_p and c_u (v has no points there)."""
    gb, ga = below.block, above.block
    return (gb.grid_x.dx == ga.grid_x.dx
            and gb.grid_y.dx == ga.grid_y.dx
            and np.array_equal(below.coefficients[0][-1], above.coefficients[0][0])
            and np.array_equal(below.coefficients[2][-1], above.coefficients[2][0]))


def assemble_single_block_system(block: StaggeredBlock2D, medium: Medium | None = None,
                                 coeffs: SatCoefficients | None = None) -> SemiDiscreteSystem:
    """Assemble a single-block system: x periodic, top and bottom
    pressure-free."""
    return SemiDiscreteSystem([assemble_2d_block(block, medium)], coeffs=coeffs)
