"""Semi-discrete right-hand sides: block operators, boundary and interface
penalties.

The 2D operators are never formed; tensor structure is exploited by applying
the 1D difference operators along array axes, in place, into rate buffers
each system allocates once. Fields are (n_x, n_y) arrays
whose flattening is the column-wise linearization (x-major, y fastest). All
penalty terms appear after multiplying the governing equations by the inverse
norm matrices, at which point the x-direction norm cancels and each term
reduces to a per-column rank-one update along y:

  pressure row at the interface:   sigma/a_y[row] * (transferred v - own v)
  velocity rows near the surface:  sigma * outer(p_row, proj / a_y_dual)

With the penalty coefficients at their defaults the discrete energy

  E = 1/2 sum_fields  x^T (C . A) x

is conserved exactly by the spatial operator: its time derivative telescopes
to zero for any state. `energy_rate` evaluates that bilinear form analytically
and is the package's primary conservation oracle.

Material coefficients divide the assembled right-hand side at the very end
(they multiply the time derivatives on the left of the governing system), so
heterogeneous media reuse the identical penalty structure.

Every system allocates one rate buffer per field at construction, and the
penalty weights, signs included, are computed then too. `pressure_rates`
and `velocity_rates` write into those buffers and return them; the caller
may scale them in place. A result is valid until the next call of either
rate method, because the 2D systems' differences use the other method's
buffers as scratch. For the same reason one method's result cannot be
passed to the other: the difference kernel raises `DomainError` rather than
overwrite its own input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DomainError
from .exact import to_fraction
from .grids import BlockLayout, StaggeredBlock2D, build_block_2d
from .media import CoefficientDiagonals, Medium, sample_coefficients
from .sbp1d import (PeriodicOperatorSet1D, SbpOperatorSet1D, build_periodic_1d,
                    build_sbp_1d)
from .transfer import TransferPair, transfer_pair_for


@dataclass(frozen=True)
class SatCoefficients:
    """Penalty weights; defaults are the energy-conserving choices."""

    sigma_left: float = -1.0
    sigma_right: float = 1.0
    sigma_bottom: float = -1.0
    sigma_top: float = 1.0
    # 1D interface
    tau_int_minus: float = -0.5
    tau_int_plus: float = -0.5
    sigma_int_minus: float = -0.5
    sigma_int_plus: float = -0.5
    # 2D interface
    sigma_p_minus: float = -0.5
    sigma_v_minus: float = -0.5
    sigma_p_plus: float = -0.5
    sigma_v_plus: float = -0.5


def _rate_from_terms(terms: list[float]) -> float:
    """|sum of per-field energy-rate terms| / sum of their magnitudes."""
    total = sum(terms)
    scale = sum(abs(t) for t in terms)
    return abs(total) / scale if scale > 0 else 0.0


# ---------------------------------------------------------------------------
# 1D systems
# ---------------------------------------------------------------------------

class BoundarySystem1D:
    """1D wave pair on one bounded segment with pressure-free endpoints.

    State: P (n_p,), V (n_p - 1,). The velocity equation carries the two
    penalty terms that weakly impose p = 0 at both ends.
    """

    def __init__(self, ops: SbpOperatorSet1D, coeffs: SatCoefficients | None = None):
        self.ops = ops
        self.coeffs = coeffs or SatCoefficients()
        self._pl = self.coeffs.sigma_left * ops.proj_left[:3] / ops.a_v[:3]
        self._pr = self.coeffs.sigma_right * ops.proj_right[-3:] / ops.a_v[-3:]
        self._dp = np.empty(ops.n_p)
        self._dv = np.empty(ops.n_v)

    def energy(self, prs, vel) -> float:
        p, v = prs[0], vel[0]
        return 0.5 * float((p * self.ops.a_p * p).sum() + (v * self.ops.a_v * v).sum())

    def energy_rate(self, prs, vel) -> float:
        p, v = prs[0], vel[0]
        terms = [float((p * self.ops.a_p * self.pressure_rates(vel)[0]).sum()),
                 float((v * self.ops.a_v * self.velocity_rates(prs)[0]).sum())]
        return _rate_from_terms(terms)

    def random_state(self, rng, amplitude=1.0):
        return [amplitude * rng.standard_normal(self.ops.n_p)], \
               [amplitude * rng.standard_normal(self.ops.n_v)]

    # leapfrog protocol: pressure fields [P], velocity fields [V]
    def pressure_rates(self, vel):
        return [self.ops.apply_d_v(vel[0], 0, self._dp, -1.0)]

    def velocity_rates(self, prs):
        p, dv = prs[0], self.ops.apply_d_p(prs[0], 0, self._dv, -1.0)
        dv[:3] += self._pl * p[0]
        dv[-3:] += self._pr * p[-1]
        return [dv]


def assemble_1d_boundary_system(ops: SbpOperatorSet1D,
                                coeffs: SatCoefficients | None = None) -> BoundarySystem1D:
    return BoundarySystem1D(ops, coeffs)


class PeriodicSystem1D:
    """1D wave pair on a periodic segment; no penalties needed."""

    def __init__(self, ops: PeriodicOperatorSet1D):
        self.ops = ops
        self._dp = np.empty(ops.n)
        self._dv = np.empty(ops.n)

    def pressure_rates(self, vel):
        return [self.ops.apply_d_v(vel[0], 0, self._dp, -1.0)]

    def velocity_rates(self, prs):
        return [self.ops.apply_d_p(prs[0], 0, self._dv, -1.0)]

    def random_state(self, rng, amplitude=1.0):
        return [amplitude * rng.standard_normal(self.ops.n)], \
               [amplitude * rng.standard_normal(self.ops.n)]


class InterfaceSystem1D:
    """Two bounded segments sharing a duplicated interface pressure point.

    Outer endpoints keep the pressure-free penalties; the four interface
    penalties exchange projected dual values and pressure jumps across the
    segment boundary.
    """

    def __init__(self, left: SbpOperatorSet1D, right: SbpOperatorSet1D,
                 coeffs: SatCoefficients | None = None):
        self.left = left
        self.right = right
        self.coeffs = c = coeffs or SatCoefficients()
        self._tau_l = c.tau_int_minus / left.a_p[-1]
        self._tau_r = c.tau_int_plus / right.a_p[0]
        self._outer_l = c.sigma_left * left.proj_left[:3] / left.a_v[:3]
        self._outer_r = c.sigma_right * right.proj_right[-3:] / right.a_v[-3:]
        self._int_l = c.sigma_int_minus * left.proj_right[-3:] / left.a_v[-3:]
        self._int_r = c.sigma_int_plus * right.proj_left[:3] / right.a_v[:3]
        self._dp = [np.empty(left.n_p), np.empty(right.n_p)]
        self._dv = [np.empty(left.n_v), np.empty(right.n_v)]

    def pressure_rates(self, vel):
        vl, vr = vel
        dpl = self.left.apply_d_v(vl, 0, self._dp[0], -1.0)
        dpr = self.right.apply_d_v(vr, 0, self._dp[1], -1.0)
        jump = float(self.right.proj_left[:3] @ vr[:3]) \
            - float(self.left.proj_right[-3:] @ vl[-3:])
        dpl[-1] += self._tau_l * jump
        dpr[0] += self._tau_r * jump
        return self._dp

    def velocity_rates(self, prs):
        pl, pr = prs
        dvl = self.left.apply_d_p(pl, 0, self._dv[0], -1.0)
        dvr = self.right.apply_d_p(pr, 0, self._dv[1], -1.0)
        dvl[:3] += self._outer_l * pl[0]
        dvr[-3:] += self._outer_r * pr[-1]
        jump = pr[0] - pl[-1]
        dvl[-3:] += self._int_l * jump
        dvr[:3] += self._int_r * jump
        return self._dv

    def energy(self, prs, vel) -> float:
        e = 0.0
        for ops, p, v in ((self.left, prs[0], vel[0]), (self.right, prs[1], vel[1])):
            e += 0.5 * float((p * ops.a_p * p).sum() + (v * ops.a_v * v).sum())
        return e

    def energy_rate(self, prs, vel) -> float:
        dps = self.pressure_rates(vel)
        dvs = self.velocity_rates(prs)
        terms = []
        for ops, p, v, dp, dv in ((self.left, prs[0], vel[0], dps[0], dvs[0]),
                                  (self.right, prs[1], vel[1], dps[1], dvs[1])):
            terms.append(float((p * ops.a_p * dp).sum()))
            terms.append(float((v * ops.a_v * dv).sum()))
        return _rate_from_terms(terms)

    def random_state(self, rng, amplitude=1.0):
        return ([amplitude * rng.standard_normal(self.left.n_p),
                 amplitude * rng.standard_normal(self.right.n_p)],
                [amplitude * rng.standard_normal(self.left.n_v),
                 amplitude * rng.standard_normal(self.right.n_v)])


def assemble_1d_interface_system(left: SbpOperatorSet1D, right: SbpOperatorSet1D,
                                 coeffs: SatCoefficients | None = None) -> InterfaceSystem1D:
    return InterfaceSystem1D(left, right, coeffs)


# ---------------------------------------------------------------------------
# 2D blocks
# ---------------------------------------------------------------------------

class BlockOperators2D:
    """One block's tensor-product operators plus material coefficients."""

    def __init__(self, block: StaggeredBlock2D, coeffs: CoefficientDiagonals | None = None):
        self.block = block
        self.x_periodic = block.x_periodic
        dx = float(block.grid_x.dx)
        dy = float(block.grid_y.dx)
        self.x_ops = (build_periodic_1d(block.grid_x.n_p, dx) if self.x_periodic
                      else build_sbp_1d(block.grid_x.n_p, dx))
        self.y_ops = build_sbp_1d(block.grid_y.n_p, dy)
        nx, ny = block.p_shape
        if coeffs is None:
            coeffs = CoefficientDiagonals(c_p=np.ones((nx, ny)),
                                          c_u=np.ones(block.u_shape),
                                          c_v=np.ones(block.v_shape))
        self.coeffs = coeffs
        # norm weights on each subgrid (x weight outer y weight)
        if self.x_periodic:
            ax_p = ax_u = np.full(nx, dx)
        else:
            ax_p = self.x_ops.a_p
            ax_u = self.x_ops.a_v
        self.ax_p, self.ax_u = ax_p, ax_u
        self.w_p = np.outer(ax_p, self.y_ops.a_p)
        self.w_u = np.outer(ax_u, self.y_ops.a_p)
        self.w_v = np.outer(ax_p, self.y_ops.a_v)

    # derivative applications along the tensor axes (new arrays; the system
    # rates apply the same operators into their own buffers)
    def d_x_p(self, p):
        return self.x_ops.apply_d_p(p, axis=0)

    def d_y_v(self, v):
        return self.y_ops.apply_d_v(v, axis=1)

    def d_y_p(self, p):
        return self.y_ops.apply_d_p(p, axis=1)

    def field_energy(self, p, u, v) -> float:
        return 0.5 * float(((p * p) * self.coeffs.c_p * self.w_p).sum()
                           + ((u * u) * self.coeffs.c_u * self.w_u).sum()
                           + ((v * v) * self.coeffs.c_v * self.w_v).sum())


def assemble_2d_block(block: StaggeredBlock2D,
                      medium: Medium | None = None) -> BlockOperators2D:
    """Build one block's operators, sampling the medium if given."""
    coeffs = sample_coefficients(medium, block) if medium is not None else None
    return BlockOperators2D(block, coeffs)


def _add_outer(block, trace, weights) -> None:
    """block += outer(trace, weights), one column at a time: 1D updates skip
    the buffered loops numpy runs for a strided 2D block."""
    for j, weight in enumerate(weights):
        block[:, j] += trace * weight


def free_surface_velocity_sats(ops: BlockOperators2D, coeffs: SatCoefficients,
                               bottom: bool, top: bool):
    """Additive y-velocity penalties for pressure-free horizontal boundaries.

    Returns a callable (p, dv) that adds the penalties near the selected
    edges to dv in place; the weights, sign included, are computed here once.
    """
    y = ops.y_ops
    wl = coeffs.sigma_bottom * y.proj_left[:3] / y.a_v[:3]
    wr = coeffs.sigma_top * y.proj_right[-3:] / y.a_v[-3:]

    def add_terms(p, dv):
        if bottom:
            _add_outer(dv[:, :3], p[:, 0], wl)
        if top:
            _add_outer(dv[:, -3:], p[:, -1], wr)

    return add_terms


def free_surface_x_sats(ops: BlockOperators2D, coeffs: SatCoefficients):
    """Additive x-velocity penalties for pressure-free vertical boundaries.

    Only meaningful for non-periodic x blocks; exercised by property tests.
    """
    if ops.x_periodic:
        raise DomainError("x free-surface penalties require a non-periodic x grid")
    x = ops.x_ops
    wl = (coeffs.sigma_left * x.proj_left[:3] / x.a_v[:3])[:, None]
    wr = (coeffs.sigma_right * x.proj_right[-3:] / x.a_v[-3:])[:, None]

    def add_terms(p, du):
        du[:3, :] += wl * p[0, :]
        du[-3:, :] += wr * p[-1, :]

    return add_terms


def interface_sat_terms(bottom: BlockOperators2D, top: BlockOperators2D,
                        transfer: TransferPair, coeffs: SatCoefficients):
    """Additive interface penalties coupling a coarse block below to a fine
    block above.

    Returns (add_to_pressure, add_to_velocity): the first consumes the two
    velocity fields and increments the interface pressure rows, the second
    consumes the two pressure fields and increments the near-interface
    y-velocity rows, both in place. Both sides exchange restricted/projected
    traces through the transfer pair. The penalty weights, sign included,
    are computed here once.

    Raises:
        DomainError: transfer operator shapes do not match the interface.
    """
    if (transfer.n_coarse, transfer.n_fine) != (bottom.block.p_shape[0],
                                                top.block.p_shape[0]):
        raise DomainError(
            f"transfer pair {transfer.n_fine}x{transfer.n_coarse} does not match "
            f"{top.block.p_shape[0]} fine / {bottom.block.p_shape[0]} coarse columns"
        )
    proj_m = bottom.y_ops.proj_right[-3:]
    proj_p = top.y_ops.proj_left[:3]
    lift_m = coeffs.sigma_v_minus * proj_m / bottom.y_ops.a_v[-3:]
    lift_p = coeffs.sigma_v_plus * proj_p / top.y_ops.a_v[:3]
    tau_m = coeffs.sigma_p_minus / bottom.y_ops.a_p[-1]
    tau_p = coeffs.sigma_p_plus / top.y_ops.a_p[0]
    f2c, c2f = transfer.fine_to_coarse, transfer.coarse_to_fine

    def add_to_pressure(v_m, v_p, dp_m, dp_p):
        v_int_m = v_m[:, -3:] @ proj_m
        v_int_p = v_p[:, :3] @ proj_p
        dp_m[:, -1] += tau_m * (f2c @ v_int_p - v_int_m)
        dp_p[:, 0] += tau_p * (v_int_p - c2f @ v_int_m)

    def add_to_velocity(p_m, p_p, dv_m, dv_p):
        p_int_m = p_m[:, -1]
        p_int_p = p_p[:, 0]
        _add_outer(dv_m[:, -3:], f2c @ p_int_p - p_int_m, lift_m)
        _add_outer(dv_p[:, :3], p_int_p - c2f @ p_int_m, lift_p)

    return add_to_pressure, add_to_velocity


class SemiDiscreteSystem:
    """Complete spatial operator for one block or a coupled two-block stack.

    Blocks are ordered bottom-first. Pressure fields live at integer time
    levels, velocity fields at half levels; `pressure_rates` consumes
    velocities and `velocity_rates` consumes pressures, which is exactly the
    split the staggered leapfrog needs.

    The rates are written into buffers the system owns; a result is valid
    until the next call of either rate method (see the module docstring).
    """

    def __init__(self, blocks: list[BlockOperators2D],
                 transfer: TransferPair | None = None,
                 coeffs: SatCoefficients | None = None):
        if len(blocks) not in (1, 2):
            raise DomainError("system supports one block or a two-block stack")
        if len(blocks) == 2 and transfer is None:
            raise DomainError("two-block system needs a transfer pair")
        self.blocks = list(blocks)
        self.transfer = transfer
        self.coeffs = coeffs or SatCoefficients()
        self._fs = []
        for i, b in enumerate(self.blocks):
            is_bottom = i == 0
            is_top = i == len(self.blocks) - 1
            self._fs.append(free_surface_velocity_sats(
                b, self.coeffs, bottom=is_bottom, top=is_top))
        self._fs_x = [free_surface_x_sats(b, self.coeffs)
                      if not b.x_periodic else None for b in self.blocks]
        if len(self.blocks) == 2:
            self._int_p, self._int_v = interface_sat_terms(
                self.blocks[0], self.blocks[1], transfer, self.coeffs)
        self._dp, self._dvel = self.zero_state()

    # -- leapfrog protocol ---------------------------------------------------

    def pressure_rates(self, vel):
        """d/dt of pressure fields given velocity fields [U0, V0, (U1, V1)]."""
        for b, dp, u, v, du, dv in zip(self.blocks, self._dp, vel[0::2], vel[1::2],
                                       self._dvel[0::2], self._dvel[1::2]):
            b.y_ops.apply_d_v(v, 1, dp, -1.0, scratch=dv)
            b.x_ops.apply_d_v(u, 0, dp, -1.0, add=True, scratch=du)
        if len(self.blocks) == 2:
            self._int_p(vel[1], vel[3], *self._dp)
        for b, dp in zip(self.blocks, self._dp):
            dp /= b.coeffs.c_p
        return self._dp

    def velocity_rates(self, prs):
        """d/dt of velocity fields given pressure fields [P0, (P1)]."""
        dus, dvs = self._dvel[0::2], self._dvel[1::2]
        for b, p, du, dv, fs, fsx, scratch in zip(self.blocks, prs, dus, dvs, self._fs,
                                                  self._fs_x, self._dp):
            b.x_ops.apply_d_p(p, 0, du, -1.0)
            b.y_ops.apply_d_p(p, 1, dv, -1.0, scratch=scratch)
            fs(p, dv)
            if fsx is not None:
                fsx(p, du)
        if len(self.blocks) == 2:
            self._int_v(prs[0], prs[1], dvs[0], dvs[1])
        for b, du, dv in zip(self.blocks, dus, dvs):
            du /= b.coeffs.c_u
            dv /= b.coeffs.c_v
        return self._dvel

    # -- diagnostics ----------------------------------------------------------

    def energy(self, prs, vel) -> float:
        e = 0.0
        for i, b in enumerate(self.blocks):
            e += b.field_energy(prs[i], vel[2 * i], vel[2 * i + 1])
        return e

    def energy_rate(self, prs, vel) -> float:
        """Relative instantaneous rate of change of the discrete energy."""
        terms = [float((p * b.coeffs.c_p * b.w_p * dp).sum())
                 for p, b, dp in zip(prs, self.blocks, self.pressure_rates(vel))]
        dvs = self.velocity_rates(prs)
        for i, b in enumerate(self.blocks):
            terms.append(float((vel[2 * i] * b.coeffs.c_u * b.w_u * dvs[2 * i]).sum()))
            terms.append(float((vel[2 * i + 1] * b.coeffs.c_v * b.w_v * dvs[2 * i + 1]).sum()))
        return _rate_from_terms(terms)

    def zero_state(self):
        prs = [np.zeros(b.block.p_shape) for b in self.blocks]
        vel = []
        for b in self.blocks:
            vel.append(np.zeros(b.block.u_shape))
            vel.append(np.zeros(b.block.v_shape))
        return prs, vel

    def random_state(self, rng, amplitude=1.0):
        prs = [amplitude * rng.standard_normal(b.block.p_shape) for b in self.blocks]
        vel = []
        for b in self.blocks:
            vel.append(amplitude * rng.standard_normal(b.block.u_shape))
            vel.append(amplitude * rng.standard_normal(b.block.v_shape))
        return prs, vel

    def locate_pressure_point(self, x, y) -> tuple[int, int, int]:
        """(block index, ix, iy) of the pressure point at exactly (x, y)."""
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


def assemble_interface_system(layout: BlockLayout, medium: Medium | None = None,
                              transfer: TransferPair | None = None,
                              coeffs: SatCoefficients | None = None) -> SemiDiscreteSystem:
    """Assemble the system for a two-block layout.

    The transfer pair is built from the layout ratio when not supplied, and
    its shape is checked against the interface first. A conforming split is
    then glued into the single grid it is: when the ratio is 1:1, both blocks
    share one y spacing, and the medium samples c_p and c_u on the shared row
    are exactly equal from both sides, the result is
    `assemble_single_block_system` on the merged block (the layout's x grid,
    the y range of both blocks, n_bottom + n_top - 1 rows). Interface penalty
    coefficients and the transfer pair then have no effect. Every other layout,
    including a 1:1 split on a material interface, keeps two blocks coupled
    by interface penalties through the transfer pair.

    Raises:
        DomainError: transfer shape does not match the interface lengths.
    """
    if transfer is None:
        transfer = transfer_pair_for(layout.ratio, layout.n_coarse, layout.n_fine)
    if (transfer.n_coarse, transfer.n_fine) != (layout.n_coarse, layout.n_fine):
        raise DomainError(
            f"transfer pair sized {transfer.n_fine}x{transfer.n_coarse} does not "
            f"match interface with {layout.n_fine} fine / {layout.n_coarse} coarse points"
        )
    bottom, top = (assemble_2d_block(layout.bottom, medium),
                   assemble_2d_block(layout.top, medium))
    if _is_conforming(layout, bottom.coeffs, top.coeffs):
        gx, gy_b, gy_t = layout.top.grid_x, layout.bottom.grid_y, layout.top.grid_y
        merged = build_block_2d(gx.x_left, gx.length, gx.n_p, gy_b.x_left,
                                gy_t.x_right, gy_b.n_p + gy_t.n_p - 1)
        return assemble_single_block_system(merged, medium, coeffs)
    return SemiDiscreteSystem([bottom, top], transfer=transfer, coeffs=coeffs)


def _is_conforming(layout: BlockLayout, below: CoefficientDiagonals,
                   above: CoefficientDiagonals) -> bool:
    """True when a layout is one uniform grid with continuous material on
    the shared row (v has no points there)."""
    return (layout.ratio == 1
            and layout.bottom.grid_y.dx == layout.top.grid_y.dx
            and np.array_equal(below.c_p[:, -1], above.c_p[:, 0])
            and np.array_equal(below.c_u[:, -1], above.c_u[:, 0]))


def assemble_single_block_system(block: StaggeredBlock2D, medium: Medium | None = None,
                                 coeffs: SatCoefficients | None = None) -> SemiDiscreteSystem:
    """Assemble a single-block system: pressure-free top and bottom, with the
    x direction periodic or pressure-free according to the block's grid."""
    return SemiDiscreteSystem([assemble_2d_block(block, medium)], coeffs=coeffs)


class PeriodicSystem2D:
    """Fully periodic 2D block (both directions wrapped); no penalties.

    Exists for time-step limit studies; pressure and both velocities all have
    shape (n_x, n_y).
    """

    def __init__(self, n_x: int, n_y: int, dx: float):
        self.x_ops = build_periodic_1d(n_x, dx)
        self.y_ops = build_periodic_1d(n_y, dx)
        self.shape = (n_x, n_y)
        self._dp = [np.empty(self.shape)]
        self._dvel = [np.empty(self.shape), np.empty(self.shape)]

    def pressure_rates(self, vel):
        u, v = vel
        self.y_ops.apply_d_v(v, 1, self._dp[0], -1.0, scratch=self._dvel[1])
        self.x_ops.apply_d_v(u, 0, self._dp[0], -1.0, add=True, scratch=self._dvel[0])
        return self._dp

    def velocity_rates(self, prs):
        self.x_ops.apply_d_p(prs[0], 0, self._dvel[0], -1.0)
        self.y_ops.apply_d_p(prs[0], 1, self._dvel[1], -1.0, scratch=self._dp[0])
        return self._dvel

    def random_state(self, rng, amplitude=1.0):
        return ([amplitude * rng.standard_normal(self.shape)],
                [amplitude * rng.standard_normal(self.shape),
                 amplitude * rng.standard_normal(self.shape)])
