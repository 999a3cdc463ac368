"""Verification harness: closed-form reference solution, convergence studies,
energy-rate and dense-materialization oracles, long-time stability scenarios,
and cross-grid seismogram agreement.

The standing-mode reference solution on the unit square (periodic in x,
pressure-free at top and bottom)

    p =  sin(4 pi x) sin(4 pi y) cos(4 sqrt(2) pi t)
    u = -(sqrt(2)/2) cos(4 pi x) sin(4 pi y) sin(4 sqrt(2) pi t)
    v = -(sqrt(2)/2) sin(4 pi x) cos(4 pi y) sin(4 sqrt(2) pi t)

solves the unit-coefficient system exactly and drives the mesh-refinement
studies for both the uniform and the two-block discretizations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.typing import NDArray

from .assembly import (BlockOperators, SemiDiscreteSystem, assemble_interface_system,
                       assemble_single_block_system)
from .config import build_run, validate_config
from .errors import DomainError, SizeError
from .grids import build_block_2d
from .leapfrog import SimState, TimeGrid, run
from .sbp1d import SbpOperatorSet1D

SQRT2 = np.sqrt(2.0)

#: p-point count per block above which dense materialization is refused
DENSE_CAP = 64 * 64


# ---------------------------------------------------------------------------
# reference solution
# ---------------------------------------------------------------------------

def standing_p(x, y, t):
    xx, yy = np.meshgrid(x, y, indexing="xy")
    return np.sin(4 * np.pi * xx) * np.sin(4 * np.pi * yy) * np.cos(4 * SQRT2 * np.pi * t)


def standing_u(x, y, t):
    xx, yy = np.meshgrid(x, y, indexing="xy")
    return (-(SQRT2 / 2) * np.cos(4 * np.pi * xx) * np.sin(4 * np.pi * yy)
            * np.sin(4 * SQRT2 * np.pi * t))


def standing_v(x, y, t):
    xx, yy = np.meshgrid(x, y, indexing="xy")
    return (-(SQRT2 / 2) * np.sin(4 * np.pi * xx) * np.cos(4 * np.pi * yy)
            * np.sin(4 * SQRT2 * np.pi * t))


def _standing_state(system: SemiDiscreteSystem, t_p: float, t_vel: float) -> SimState:
    """The standing mode sampled into a state: p of each block at t_p, v and
    u of each block at t_vel (t_p + dt/2 for a consistent staggered start)."""
    state = SimState(*system.zero_state(), t_p=t_p)
    p, vel = system.pressure_fields(state.p), system.velocity_fields(state.v)
    for k, b in enumerate(system.blocks):
        for field, f, t, (x, y) in zip((p[k], *vel[2 * k:2 * k + 2]),
                                       (standing_p, standing_v, standing_u),
                                       (t_p, t_vel, t_vel), b.block.field_coords()):
            field[...] = f(x, y, t)
    return state


def state_error(system: SemiDiscreteSystem, state: SimState, t_p: float,
                t_vel: float) -> float:
    """Error of a state against the standing mode at the given times, in the
    system's energy norm sqrt(2 E(error)). For the unit coefficients that the
    mode solves, that is the norm-weighted l2 error sqrt(sum_f e_f^T A_f e_f).
    """
    error = _standing_state(system, t_p, t_vel)
    error.p -= state.p
    error.v -= state.v
    return float(np.sqrt(2.0 * system.energy(error.p, error.v)))


# ---------------------------------------------------------------------------
# unit-coefficient systems: standing-mode studies and small m:n oracles
# ---------------------------------------------------------------------------

def uniform_standing_system(n: int) -> SemiDiscreteSystem:
    """Unit square, n columns x n rows of cells, unit coefficients."""
    block = build_block_2d(0, 1, n, 0, 1, n + 1)
    return assemble_single_block_system(block)


def two_block_standing_system(n_bottom: int) -> SemiDiscreteSystem:
    """Unit square split at y = 1/2; coarse below, 2:1 refinement above."""
    bottom = build_block_2d(0, 1, n_bottom, 0, Fraction(1, 2), n_bottom // 2 + 1)
    top = build_block_2d(0, 1, 2 * n_bottom, Fraction(1, 2), 1, n_bottom + 1)
    return assemble_interface_system([bottom, top])


def ratio_system(m: int, n: int, transfer=None, coeffs=None) -> SemiDiscreteSystem:
    """Small two-block system at ratio m:n (nine rows per block), unit
    coefficients, on the unit width; `transfer` is the interface's pair
    (built from m:n when omitted), `coeffs` as in `assemble_interface_system`."""
    dx_c, dx_f = Fraction(1, 6 * n), Fraction(1, 6 * m)
    h_b = 8 * dx_c
    bottom = build_block_2d(0, 1, 6 * n, 0, h_b, 9)
    top = build_block_2d(0, 1, 6 * m, h_b, h_b + 8 * dx_f, 9)
    return assemble_interface_system(
        [bottom, top], transfers=None if transfer is None else [transfer], coeffs=coeffs)


# ---------------------------------------------------------------------------
# seismic scenarios: run configs in the schema `stagwave run` reads
# ---------------------------------------------------------------------------

#: smooth depth gradient shared by every scenario but the two-layer one
_GRADIENT = {"kind": "vertical_linear", "y_bottom": 0.0, "y_top": 0.96,
             "rho_bottom": 1.0, "rho_top": 0.5, "c_bottom": 2.0, "c_top": 1.0}


def _square(top, bottom=None, medium=_GRADIENT) -> dict:
    """0.96 m x 0.96 m domain (a single block when `bottom` is None), 6 s at
    dt = 0.0012; Ricker source (5 Hz, 0.25 s delay) five fine spacings in from
    the top-left corner, receiver mirrored at the top-right."""
    return {"layout": {"width": 0.96, "top": top, "bottom": bottom},
            "medium": medium,
            "time": {"dt": 0.0012, "n_steps": 5000},
            "sources": [{"x": 0.04, "y": 0.92, "f0": 5.0, "t0": 0.25}],
            "receivers": [{"x": 0.92, "y": 0.92}]}


_FINE_HALF = {"columns": 120, "dx": 0.008, "height": 0.48}
_COARSE_HALF = {"columns": 60, "dx": 0.016, "height": 0.48}

SCENARIOS = {
    # two homogeneous layers on 2:1 grids (120 x 61 above, 60 x 31 below)
    "two_layer_2to1": _square(
        _FINE_HALF, _COARSE_HALF,
        {"kind": "two_layer_constant", "split_y": 0.48,
         "top": {"rho": 0.5, "c": 1.0}, "bottom": {"rho": 1.0, "c": 2.0}}),
    # smooth gradient on 6:5 grids (120 x 25 above, 100 x 81 below)
    "smooth_gradient_6to5": _square({"columns": 120, "dx": 0.008, "height": 0.192},
                                    {"columns": 100, "dx": 0.0096, "height": 0.768}),
    # the same medium on a single uniform 0.008 m grid
    "uniform_gradient": _square({"columns": 120, "dx": 0.008, "height": 0.96}),
    # that grid split at mid-depth; the assembler glues it back into one block
    "degenerate_split_1to1": _square(_FINE_HALF, _FINE_HALF),
    # the bottom half coarsened to a 2:1 ratio
    "coarsened_split_2to1": _square(_FINE_HALF, _COARSE_HALF),
}


def build_scenario(name: str):
    """(system, first source, first receiver) of a SCENARIOS entry, built by
    the same validation and construction as `stagwave run`."""
    built = build_run(validate_config(SCENARIOS[name]))
    return built.system, built.sources[0], built.receivers[0]


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceReport:
    scenario: str
    sizes: tuple[int, ...]
    errors: tuple[float, ...]
    rates: tuple[float, ...]

    def table(self) -> str:
        lines = [f"{'n':>6} {'error':>12} {'rate':>7}"]
        for i, (n, e) in enumerate(zip(self.sizes, self.errors)):
            rate = f"{self.rates[i - 1]:7.2f}" if i else "      -"
            lines.append(f"{n:>6} {e:>12.4e} {rate}")
        return "\n".join(lines)


def convergence_study(scenario: str, sizes=(16, 32, 64, 128), dt: float = 1e-5,
                      t_final: float = 0.1) -> ConvergenceReport:
    """Mesh-refinement errors and rates against the standing-mode solution.

    Args:
        scenario: 'uniform' or 'two_block' (2:1 split of the unit square).
        sizes: column counts of the (bottom) block, geometrically refined.
        dt: time step, small enough that spatial error dominates.
        t_final: final time at which the weighted error is measured.
    """
    builders = {"uniform": uniform_standing_system,
                "two_block": two_block_standing_system}
    if scenario not in builders:
        raise DomainError(f"unknown convergence scenario {scenario!r}")
    errors = []
    for n in sizes:
        system = builders[scenario](n)
        state = _standing_state(system, 0.0, dt / 2)
        n_steps = int(round(t_final / dt))
        result = run(system, TimeGrid(dt, n_steps), state=state)
        t_end = n_steps * dt
        errors.append(state_error(system, result.final_state, t_end, t_end + dt / 2))
    rates = tuple(float(np.log2(errors[i - 1] / errors[i]))
                  for i in range(1, len(errors)))
    return ConvergenceReport(scenario=scenario, sizes=tuple(sizes),
                             errors=tuple(errors), rates=rates)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def _check_cap(system: SemiDiscreteSystem):
    for b in system.blocks:
        if math.prod(b.shapes[0]) > DENSE_CAP:
            raise SizeError(
                f"block with {b.shapes[0]} pressure points exceeds the "
                f"{DENSE_CAP}-point dense cap"
            )


def with_random_coefficients(system: SemiDiscreteSystem, rng) -> SemiDiscreteSystem:
    """Copy of a system with material diagonals drawn from U(0.5, 2) per block."""
    blocks = [BlockOperators(b.ops, [rng.uniform(0.5, 2.0, shape) for shape in b.shapes],
                             b.block) for b in system.blocks]
    return SemiDiscreteSystem(blocks, system.transfers, system.coeffs)


def energy_rate_oracle(system: SemiDiscreteSystem, n_states: int = 100,
                       seed: int = 0) -> float:
    """Max relative |dE/dt| over random states (zero up to roundoff when the
    penalties are at their energy-conserving values)."""
    _check_cap(system)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_states):
        worst = max(worst, system.energy_rate(*system.random_state(rng)))
    return worst


def _unit(n: int, i: int) -> NDArray[np.float64]:
    e = np.zeros(n)
    e[i] = 1.0
    return e


def _along(mat, axis: int, shape) -> NDArray[np.float64]:
    """`mat` applied along `axis` of a field whose other axes have the
    given point counts: its Kronecker product with identities."""
    return functools.reduce(np.kron, [mat if j == axis else np.eye(n)
                                      for j, n in enumerate(shape)])


def materialize_system(system: SemiDiscreteSystem):
    """Dense (L_vel, L_prs) built independently from Kronecker products.

    L_prs maps the velocity vector to the pressure rates; L_vel maps the
    pressure vector to the velocity rates. Penalty terms are assembled
    from the textbook tensor-product expressions, and the interface
    transfers from each pair's exact tiles rounded once, not from its gather
    plans, providing a second route against the sliced matrix-free
    evaluators. Covers stacks of one- and two-axis blocks, periodic on every
    axis but the first, with one interface per consecutive pair.

    Raises:
        SizeError: any block above the dense cap.
    """
    _check_cap(system)
    blocks = system.blocks
    c = system.coeffs
    sigmas = {1: (c.sigma_left, c.sigma_right), 2: (c.sigma_bottom, c.sigma_top)}
    p_off = np.cumsum([0] + [math.prod(b.shapes[0]) for b in blocks])
    v_off = np.cumsum([0] + [math.prod(shape) for b in blocks for shape in b.shapes[1:]])
    L_prs = np.zeros((p_off[-1], v_off[-1]))
    L_vel = np.zeros((v_off[-1], p_off[-1]))
    p_rows = [slice(p_off[i], p_off[i + 1]) for i in range(len(blocks))]
    v_rows = [slice(v_off[i], v_off[i + 1]) for i in range(len(v_off) - 1)]
    first_v = np.cumsum([0] + [b.ndim for b in blocks])   # first-axis (interface) velocities
    for i, b in enumerate(blocks):
        n_prim = b.shapes[0]
        cp = b.coefficients[0].reshape(-1)[:, None]
        for k, ops in enumerate(b.ops):
            cv = b.coefficients[1 + k].reshape(-1)[:, None]
            L_prs[p_rows[i], v_rows[first_v[i] + k]] = -_along(ops.dense_d_v(), k, n_prim) / cp
            d_vel = -ops.dense_d_p()
            if isinstance(ops, SbpOperatorSet1D):
                # pressure-free outer ends of the stack (a bounded axis is first)
                low, high = sigmas[b.ndim]
                if i == 0:
                    d_vel += low * np.outer(ops.proj_left / ops.a_v, _unit(n_prim[k], 0))
                if i == len(blocks) - 1:
                    d_vel += high * np.outer(ops.proj_right / ops.a_v, _unit(n_prim[k], -1))
            L_vel[v_rows[first_v[i] + k], p_rows[i]] = _along(d_vel, k, n_prim) / cv

    for i, t in enumerate(system.transfers):
        bm, bp = blocks[i], blocks[i + 1]
        ym, yp = bm.ops[0], bp.ops[0]
        ncm, ncp = (int(np.prod(b.shapes[0][1:])) for b in (bm, bp))   # columns
        e_im = _unit(bm.shapes[0][0], -1)             # lower block interface row
        e_ip = _unit(bp.shapes[0][0], 0)              # upper block interface row
        r_m = np.kron(e_im[None, :], np.eye(ncm))     # restrict P- to interface
        r_p = np.kron(e_ip[None, :], np.eye(ncp))
        pr_m = np.kron(ym.proj_right[None, :], np.eye(ncm))   # project V-
        pr_p = np.kron(yp.proj_left[None, :], np.eye(ncp))
        lift_pm = np.kron((e_im / ym.a_p[-1])[:, None], np.eye(ncm))
        lift_pp = np.kron((e_ip / yp.a_p[0])[:, None], np.eye(ncp))
        lift_vm = np.kron((ym.proj_right / ym.a_v)[:, None], np.eye(ncm))
        lift_vp = np.kron((yp.proj_left / yp.a_v)[:, None], np.eye(ncp))
        cpm, cpp = (b.coefficients[0].reshape(-1)[:, None] for b in (bm, bp))
        cvm, cvp = (b.coefficients[1].reshape(-1)[:, None] for b in (bm, bp))
        pm, pp = p_rows[i], p_rows[i + 1]
        vm, vp = v_rows[first_v[i]], v_rows[first_v[i + 1]]
        c2f, f2c = (tile.astype(float) for tile in t.exact_matrices())
        # pressure equations: penalize the projected-velocity jump
        L_prs[pm, vp] += c.sigma_p_minus * lift_pm @ f2c @ pr_p / cpm
        L_prs[pm, vm] += -c.sigma_p_minus * lift_pm @ pr_m / cpm
        L_prs[pp, vp] += c.sigma_p_plus * lift_pp @ pr_p / cpp
        L_prs[pp, vm] += -c.sigma_p_plus * lift_pp @ c2f @ pr_m / cpp
        # velocity equations: penalize the pressure jump
        L_vel[vm, pp] += c.sigma_v_minus * lift_vm @ f2c @ r_p / cvm
        L_vel[vm, pm] += -c.sigma_v_minus * lift_vm @ r_m / cvm
        L_vel[vp, pp] += c.sigma_v_plus * lift_vp @ r_p / cvp
        L_vel[vp, pm] += -c.sigma_v_plus * lift_vp @ c2f @ r_m / cvp

    return L_vel, L_prs


# ---------------------------------------------------------------------------
# long-time stability and two-grid agreement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityResult:
    scenario: str
    verdict: str                      # 'stable' | 'unstable'
    tail_amplitude_ratio: float       # max|p| last 10% / max|p| overall
    energy_drift: float               # relative drift after the source tapers
    energy_slope: float               # fitted relative slope per unit time
    times: NDArray[np.float64]
    trace: NDArray[np.float64]
    energy_times: NDArray[np.float64]
    energy: NDArray[np.float64]


def post_source_drift(energy_times, energy, t_start) -> tuple[float, float]:
    """(relative drift, relative least-squares slope) after t_start.

    Drift compares window medians at the head and tail of the post-source
    record. `leapfrog.run` records the energy the leapfrog conserves, so
    after the source the record has no ripple and both read at roundoff.
    """
    mask = energy_times >= t_start
    e = energy[mask]
    t = energy_times[mask]
    if e.size < 10:
        raise DomainError("post-source window too short")
    k = max(1, e.size // 10)
    ref = float(np.median(e))
    drift = abs(float(np.median(e[-k:])) - float(np.median(e[:k]))) / ref
    slope = float(np.polyfit(t, e / ref, 1)[0])
    return drift, slope


def long_time_stability_run(scenario: str, n_steps: int = 50_000,
                            dt: float = 0.0012) -> StabilityResult:
    """Drive a scenario with its Ricker source and judge long-time stability.

    Stable means the largest pressure magnitude seen in the last tenth of the
    record does not exceed the overall maximum, and the post-source energy
    drift stays within 1e-3 relative. A run too short for the ten energy
    samples (at half levels) that drift needs after the source tapers raises
    `DomainError` before any step.
    """
    spec = validate_config(SCENARIOS[scenario])
    _, _, f0, t0, _ = spec.sources[0]
    t_post = t0 + 6.0 / f0
    shortest = 10 + int(np.count_nonzero(dt * (np.arange(math.ceil(t_post / dt)) + 0.5)
                                         < t_post))
    if n_steps < shortest:
        raise DomainError(f"stability scenario {scenario}: the post-source window "
                          f"needs at least {shortest} steps, got {n_steps}")
    built = build_run(spec)
    result = run(built.system, TimeGrid(dt, n_steps), sources=built.sources[:1],
                 receivers=built.receivers[:1], record_energy=True)
    trace = result.seismograms[0]
    tail = trace[-max(1, len(trace) // 10):]
    amp_ratio = float(np.abs(tail).max() / np.abs(trace).max())
    drift, slope = post_source_drift(result.energy_times, result.energy, t_post)
    verdict = "stable" if (amp_ratio <= 1.0 and drift <= 1e-3) else "unstable"
    return StabilityResult(scenario=scenario, verdict=verdict,
                           tail_amplitude_ratio=amp_ratio, energy_drift=drift,
                           energy_slope=slope, times=result.times, trace=trace,
                           energy_times=result.energy_times, energy=result.energy)


def seismogram_misfit(trace_a, trace_b) -> float:
    """Relative l2 misfit between two equally sampled traces."""
    a = np.asarray(trace_a, float)
    b = np.asarray(trace_b, float)
    if a.shape != b.shape:
        raise DomainError("traces must share the sampling")
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _scenario_trace(name: str, n_steps: int, dt: float) -> NDArray[np.float64]:
    """Receiver trace of a SCENARIOS entry driven by its source."""
    system, source, receiver = build_scenario(name)
    result = run(system, TimeGrid(dt, n_steps), sources=[source], receivers=[receiver])
    return result.seismograms[0]


@functools.lru_cache(maxsize=4)
def _uniform_reference_trace(n_steps: int, dt: float) -> NDArray[np.float64]:
    """The uniform_gradient trace every agreement check compares against,
    computed once per (n_steps, dt) and returned read-only."""
    trace = _scenario_trace("uniform_gradient", n_steps, dt)
    trace.setflags(write=False)
    return trace


def two_grid_agreement(which: str = "6:5", n_steps: int = 5000,
                       dt: float = 0.0012) -> float:
    """Seismogram misfit between a split-grid run and its uniform reference.

    which='6:5' compares the smooth-gradient 6:5 stack against the uniform
    fine grid; which='1:1' the degenerate conforming split; which='2:1' the
    aggressively coarsened bottom block, all against the same uniform grid,
    whose trace is computed once per (n_steps, dt).
    """
    split = {"6:5": "smooth_gradient_6to5", "1:1": "degenerate_split_1to1",
             "2:1": "coarsened_split_2to1"}[which]
    return seismogram_misfit(_scenario_trace(split, n_steps, dt),
                             _uniform_reference_trace(n_steps, dt))
