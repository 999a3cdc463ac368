"""Staggered leapfrog time integration, point sources, receivers, and the
empirical time-step-limit search.

Pressure fields live at integer time levels, velocity fields half a step
ahead. One step advances pressure first (using the mid-interval velocities)
and then the velocities (using the fresh pressure); a backward step reverses
the sub-step order, which makes the integrator exactly time-reversible up to
roundoff.

Sources are collocated on single pressure points and injected as
dt * amplitude * wavelet(t + dt/2) during the pressure update, matching the
half-level sampling of the scheme. The discrete energy is recorded at half
levels with the pressure averaged over the two adjacent integer levels, in
one buffer reused every step.

A step updates the fields in place: the system's rate buffers are scaled by
dt and added to the fields, so stepping allocates no field-sized arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import DomainError


def ricker(t, f0: float, t0: float = 0.0):
    """Ricker wavelet, peak-normalized: (1 - 2 a) exp(-a), a = (pi f0 (t-t0))^2."""
    a = (np.pi * f0 * (np.asarray(t, dtype=float) - t0)) ** 2
    return (1.0 - 2.0 * a) * np.exp(-a)


@dataclass(frozen=True)
class TimeGrid:
    dt: float
    n_steps: int

    def __post_init__(self):
        if not self.dt > 0:
            raise DomainError(f"dt must be positive, got {self.dt}")
        if self.n_steps < 0:
            raise DomainError("n_steps must be nonnegative")


@dataclass(frozen=True)
class SourceSpec:
    """Collocated Ricker point source on a pressure grid point."""

    block: int
    ix: int
    iy: int
    f0: float
    t0: float = 0.0
    amplitude: float = 1.0

    def value(self, t) -> float:
        return self.amplitude * float(ricker(t, self.f0, self.t0))


@dataclass(frozen=True)
class ReceiverSpec:
    """Pressure record location on a grid point."""

    block: int
    ix: int
    iy: int


@dataclass
class SimState:
    """Solution snapshot: pressures at time t_p, velocities at t_p + dt/2."""

    pressures: list[NDArray[np.float64]]
    velocities: list[NDArray[np.float64]]
    t_p: float = 0.0


def step_forward(system, state: SimState, dt: float, sources=()):
    """Advance one step: pressure to t+dt, then velocities to t+3dt/2.

    The rates the system returns are scaled in place (`dp *= dt`) before they
    are added to the fields.
    """
    t_half = state.t_p + 0.5 * dt
    for p, dp in zip(state.pressures, system.pressure_rates(state.velocities)):
        dp *= dt
        p += dp
    for s in sources:
        state.pressures[s.block][s.ix, s.iy] += dt * s.value(t_half)
    for v, dv in zip(state.velocities, system.velocity_rates(state.pressures)):
        dv *= dt
        v += dv
    state.t_p += dt


def step_backward(system, state: SimState, dt: float):
    """Exact inverse of a source-free forward step."""
    for v, dv in zip(state.velocities, system.velocity_rates(state.pressures)):
        dv *= dt
        v -= dv
    for p, dp in zip(state.pressures, system.pressure_rates(state.velocities)):
        dp *= dt
        p -= dp
    state.t_p -= dt


@dataclass
class RunResult:
    times: NDArray[np.float64]                 # integer-level times, n_steps+1
    seismograms: NDArray[np.float64]           # (n_receivers, n_steps+1)
    energy_times: NDArray[np.float64]          # half-level times, n_steps
    energy: NDArray[np.float64] | None
    final_state: SimState
    receivers: tuple[ReceiverSpec, ...] = field(default_factory=tuple)


def run(system, time_grid: TimeGrid, sources=(), receivers=(),
        record_energy: bool = False, state: SimState | None = None) -> RunResult:
    """Integrate the system, recording receiver traces and optionally energy.

    Args:
        system: SemiDiscreteSystem (its rate buffers are scaled in place).
        time_grid: step length and count.
        sources: SourceSpec sequence (pressure injections).
        receivers: ReceiverSpec sequence; traces include the initial sample.
        state: optional initial state; zeros otherwise.

    Returns:
        RunResult with traces at integer levels and energy at half levels.
    """
    dt, n = time_grid.dt, time_grid.n_steps
    if state is None:
        state = SimState(*system.zero_state())
    t_start = state.t_p
    receivers = tuple(receivers)
    traces = np.zeros((len(receivers), n + 1))
    for r_i, r in enumerate(receivers):
        traces[r_i, 0] = state.pressures[r.block][r.ix, r.iy]
    energy = np.zeros(n) if record_energy else None
    p_half = [np.empty_like(p) for p in state.pressures] if record_energy else None
    for it in range(n):
        if record_energy:
            for h, p in zip(p_half, state.pressures):
                np.copyto(h, p)
        step_forward(system, state, dt, sources)
        if record_energy:
            for h, p in zip(p_half, state.pressures):
                h += p
                h *= 0.5
            energy[it] = system.energy(p_half, state.velocities)
        for r_i, r in enumerate(receivers):
            traces[r_i, it + 1] = state.pressures[r.block][r.ix, r.iy]
    times = t_start + dt * np.arange(n + 1)
    energy_times = t_start + dt * (np.arange(n) + 0.5)
    return RunResult(times=times, seismograms=traces, energy_times=energy_times,
                     energy=energy, final_state=state, receivers=receivers)


# ---------------------------------------------------------------------------
# empirical time-step limit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CflSearchResult:
    dt_stable: float
    dt_unstable: float
    dx: float

    @property
    def dt_max(self) -> float:
        return 0.5 * (self.dt_stable + self.dt_unstable)

    @property
    def ratio(self) -> float:
        """Estimated dt_max / dx."""
        return self.dt_max / self.dx


def _is_stable(system, dt: float, n_steps: int, growth_factor: float, seed: int) -> bool:
    rng = np.random.default_rng(seed)
    prs, vel = system.random_state(rng, amplitude=1e-3)
    state = SimState([np.asarray(p) for p in prs], [np.asarray(v) for v in vel])
    norm0 = np.sqrt(sum(float((f * f).sum()) for f in prs + vel))
    limit = growth_factor * norm0
    for it in range(n_steps):
        step_forward(system, state, dt)
        if it % 50 == 49 or it == n_steps - 1:
            norm = np.sqrt(sum(float((f * f).sum())
                               for f in state.pressures + state.velocities))
            if not np.isfinite(norm) or norm > limit:
                return False
    return True


def find_cfl(system, dx: float, c: float = 1.0, *, n_steps: int = 2000,
             growth_factor: float = 10.0, bracket: float = 1e-3,
             lo_ratio: float = 0.2, hi_ratio: float = 1.2,
             seed: int = 1234) -> CflSearchResult:
    """Bisect the largest stable time step of the leapfrog integration.

    A candidate dt is stable when 2000 steps from small random data stay
    within a factor `growth_factor` of the initial norm. The returned bracket
    has width at most `bracket * dx / c`.

    Raises:
        DomainError: the initial bracket does not straddle the limit.
    """
    scale = dx / c
    lo, hi = lo_ratio * scale, hi_ratio * scale
    if not _is_stable(system, lo, n_steps, growth_factor, seed):
        raise DomainError("lower trial step is already unstable; lower lo_ratio")
    if _is_stable(system, hi, n_steps, growth_factor, seed):
        raise DomainError("upper trial step is stable; raise hi_ratio")
    while hi - lo > bracket * scale:
        mid = 0.5 * (lo + hi)
        if _is_stable(system, mid, n_steps, growth_factor, seed):
            lo = mid
        else:
            hi = mid
    return CflSearchResult(dt_stable=lo, dt_unstable=hi, dx=dx)
