"""Staggered leapfrog time integration, point sources, receivers, and the
empirical time-step-limit search.

A state is two flat vectors laid out by the system: the pressures at an
integer time level and the velocities half a step ahead. One step advances
pressure first (using the mid-interval velocities) and then the velocities
(using the fresh pressure); a backward step reverses the sub-step order,
which makes the integrator exactly time-reversible up to roundoff.

Sources and receivers sit on single pressure points, named by their index in
the pressure vector. Sources are injected as dt * amplitude * wavelet(t + dt/2)
during the pressure update, matching the half-level sampling of the scheme.
The energy recorded at half levels is the one the leapfrog conserves exactly
(constant up to roundoff while no source injects): with W = C . A,
E_{n+1/2} = 1/2 (p_n^T W_p p_{n+1} + v_{n+1/2}^T W_v v_{n+1/2}), taken between
the pressure and the velocity half of a step. `run` evaluates it in full, from
a copy of p_n, every 8 steps, and carries it in between by the identity the
scheme conserves, one scalar per source (see `run`).

A step updates the state in place: the system returns each rate vector
already scaled by dt, and it is added to its state vector, so stepping
allocates no field-sized arrays.

Ahead of a wavefront moving into a medium at rest, each step reaches a few
points further and the values there decay until they underflow into
subnormal numbers, on which multiplies, divisions and dot products run about
twice as slow. So `run` (and only `run`) rounds both state vectors every 8
steps, in place, with `x += u; x -= u`. Here u = 2^-200 s, where s is the
power of two at or below the run's scale: the largest of |source amplitude|
and |initial p or v entry|. A value below u in magnitude moves by at most
2^-253 s to a multiple of 2^-253 s, so (for any scale above 2^-769) every
subnormal becomes 0. A larger value moves by one rounding of |x| + u at
most: by no more than 2u = 2^-199 s (about 1e-60 of the scale), and not at
all from 2^54 u on. That is far below the scheme's own roundoff. The unit is
this large so that the squares the energy forms stay normal too: on the
benchmark's 4x-refined 6:5 survey, the smallest nonzero value between
roundings stayed above 2^-463 of the scale, far from 2^-511, the square root
of the smallest normal number. A zero or non-finite scale gives u = 0 and no
rounding.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

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
    """Collocated Ricker point source at an index of the pressure vector."""

    index: int
    f0: float
    t0: float = 0.0
    amplitude: float = 1.0

    def value(self, t) -> float:
        return self.amplitude * float(ricker(t, self.f0, self.t0))


@dataclass(frozen=True)
class ReceiverSpec:
    """Pressure record location: an index of the pressure vector."""

    index: int


@dataclass
class SimState:
    """Solution snapshot: the pressure vector at time t_p, the velocity
    vector at t_p + dt/2."""

    p: NDArray[np.float64]
    v: NDArray[np.float64]
    t_p: float = 0.0


def _advance_pressure(system, state: SimState, dt: float, sources) -> list[float]:
    """The first half of a step: pressure and t_p to t+dt; returns each kick dt s(t+dt/2)."""
    t_half = state.t_p + 0.5 * dt
    state.p += system.pressure_rates(state.v, dt)
    kicks = [dt * s.value(t_half) for s in sources]
    for s, kick in zip(sources, kicks):
        state.p[s.index] += kick
    state.t_p += dt
    return kicks


def step_forward(system, state: SimState, dt: float, sources=()):
    """Advance one step: pressure to t+dt, then velocities to t+3dt/2."""
    _advance_pressure(system, state, dt, sources)
    state.v += system.velocity_rates(state.p, dt)


def step_backward(system, state: SimState, dt: float):
    """Exact inverse of a source-free forward step."""
    state.v -= system.velocity_rates(state.p, dt)
    state.p -= system.pressure_rates(state.v, dt)
    state.t_p -= dt


def _check_index(index, n_p: int) -> None:
    """Refuse a source or receiver index that is not an integer in [0, n_p).
    A bool is refused too: numpy would read True as a mask over every point.
    The bool types are named, since not every numpy version leaves
    `__index__` off `np.bool_`."""
    if isinstance(index, (bool, np.bool_)) or not hasattr(index, "__index__"):
        raise DomainError(f"a source/receiver index must be an integer, got {index!r}")
    if not 0 <= operator.index(index) < n_p:
        raise DomainError(f"a source/receiver index is outside the {n_p} pressure points")


#: run() rounds its state every _FLUSH_INTERVAL steps at u = 2^_FLUSH_EXPONENT
#: times the power of two at or below the run's scale
_FLUSH_INTERVAL = 8
_FLUSH_EXPONENT = -200

#: run() stops when an evaluated energy is further than this share of the
#: largest evaluated |E| from the energy carried to it
_ENERGY_GAP = 1e-12


def _peaks(sources, state: SimState | None) -> list[float]:
    """Each source amplitude and the extremes of each initial vector (None
    stands for a zero state): two reductions per vector, no temporary."""
    peaks = [s.amplitude for s in sources]
    if state is not None:
        peaks += [float(f(x, initial=0.0)) for x in (state.p, state.v) for f in (np.max, np.min)]
    return peaks


def _flush_unit(sources, state: SimState | None) -> float:
    """u = 2^-200 s, s the power of two at or below the run's scale, the
    largest |peak|; 0 when the scale is 0 or a peak is not finite."""
    peaks = _peaks(sources, state)
    scale = max(map(abs, peaks), default=0.0)
    if scale == 0.0 or not all(map(math.isfinite, peaks)):
        return 0.0
    return math.ldexp(1.0, math.frexp(scale)[1] - 1 + _FLUSH_EXPONENT)


def _flush(state: SimState, u: float) -> None:
    """Round p and v in place: below u in magnitude to multiples of
    2^-53 u, which sends every subnormal to 0, and nothing by more than 2u
    (see the module docstring)."""
    for x in (state.p, state.v):
        x += u
        x -= u


@dataclass
class RunResult:
    times: NDArray[np.float64]                 # integer-level times, n_steps+1
    seismograms: NDArray[np.float64]           # (n_receivers, n_steps+1)
    energy_times: NDArray[np.float64]          # half-level times, n_steps
    energy: NDArray[np.float64] | None
    final_state: SimState


def run(system, time_grid: TimeGrid, sources=(), receivers=(),
        record_energy: bool = False, state: SimState | None = None) -> RunResult:
    """Integrate the system, recording receiver traces and optionally energy.

    Args:
        system: SemiDiscreteSystem (its rate buffers are overwritten).
        time_grid: step length and count.
        sources: SourceSpec sequence (pressure injections).
        receivers: ReceiverSpec sequence; traces include the initial sample.
        state: optional initial state; zeros otherwise.

    Every 8 steps the state is rounded at u = 2^-200 times the run's scale
    (the largest |source amplitude| and |initial p or v entry|, rounded down
    to a power of two), so no subnormal builds up ahead of the wavefront and
    no square the energy forms underflows. No value moves by more than
    2^-199 of the scale; for a scale below 2^-769 some subnormals survive.
    `step_forward` does not round.

    Step n's energy E_{n+1/2} (see the module docstring) less each source's
    share 1/2 W_p[i] p_n[i] k_n, k_n = dt s(t_n + dt/2) the step's kick (E
    alone can dip below 0 at a stable dt), is a form positive definite exactly
    when dt is stable. The run checks it on every step and stops at the first
    step where it is below 0 or not finite. E is evaluated in full on the
    first step and on the first step after each rounding; in between it is
    carried by the identity the leapfrog conserves,
    E_{n+3/2} = E_{n+1/2} + 1/2 sum_sources W_p[i] p_{n+1}[i] (k_n + k_{n+1}).
    At each evaluation the run stops when the evaluated and the carried E
    differ by more than 1e-12 of the largest |E| evaluated so far: at an
    unstable dt the state outgrows the energy it conserves and the roundoff
    shows. The identity holds only for the conserving penalty coefficients
    (`system.conserves_energy`); for any others E is evaluated on every step
    and the gap is not checked. The record, with `record_energy`, holds E at
    t_n + dt/2; with it or without it the run does the same work. A short run
    at an unstable dt can still return: its form need not read negative yet.
    A non-finite start is refused before step 1.

    Returns:
        RunResult with traces at integer levels and energy at half levels.

    Raises:
        DomainError: a source or receiver index is not an integer (a bool
            is refused) or is outside the pressure vector, the initial state
            or a source amplitude is not finite, the energy less the sources'
            shares is negative or not finite, an evaluated energy is too far
            from the carried one, or a trace or the final state is not finite.
    """
    dt, n = time_grid.dt, time_grid.n_steps
    if not all(map(math.isfinite, _peaks(sources, state))):
        raise DomainError("non-finite initial state or source amplitude")
    u = _flush_unit(sources, state)
    if state is None:
        state = SimState(*system.zero_state())
    for x in (*sources, *receivers):
        _check_index(x.index, state.p.size)
    t_start = state.t_p
    at = np.array([r.index for r in receivers], dtype=np.intp)
    traces = np.zeros((len(at), n + 1))
    traces[:, 0] = state.p[at]
    energy, p_prev = np.zeros(n), np.empty_like(state.p)
    at_sources = [s.index for s in sources]
    shares = [0.5 * system.cw_p[i] for i in at_sources]   # 1/2 W_p[i] per source
    every_step = not system.conserves_energy
    e = peak = 0.0
    kicks = []
    for it in range(n):
        p_n = [state.p[i] for i in at_sources]
        evaluate = every_step or it % _FLUSH_INTERVAL == 0
        if evaluate:
            np.copyto(p_prev, state.p)
        last, kicks = kicks, _advance_pressure(system, state, dt, sources)
        e += sum(w * p * (k0 + k1) for w, p, k0, k1 in zip(shares, p_n, last, kicks))
        if evaluate:
            carried, e = e, system.energy(p_prev, state.v, p_next=state.p)
            peak = max(peak, abs(e))
            if it and not every_step and abs(e - carried) > _ENERGY_GAP * peak:
                raise DomainError(f"energy evaluated at step {it + 1} differs from the carried "
                                  f"one by {abs(e - carried):.3g}, above {_ENERGY_GAP} of its peak "
                                  f"{peak:.3g}; dt = {dt} is unstable")
        energy[it] = e
        form = e - sum(w * p * k for w, p, k in zip(shares, p_n, kicks))
        if not 0 <= form < math.inf:
            raise DomainError(f"source-free energy {form:.3g} at step {it + 1} is negative "
                              f"or not finite; dt = {dt} is unstable")
        state.v += system.velocity_rates(state.p, dt)
        traces[:, it + 1] = state.p[at]
        if u and (it + 1) % _FLUSH_INTERVAL == 0:
            _flush(state, u)
    if not all(np.isfinite(a).all() for a in (traces, state.p, state.v)):
        raise DomainError(f"non-finite solution after {n} steps; dt = {dt} may be unstable")
    times = t_start + dt * np.arange(n + 1)
    energy_times = t_start + dt * (np.arange(n) + 0.5)
    return RunResult(times=times, seismograms=traces, energy_times=energy_times,
                     energy=energy if record_energy else None, final_state=state)


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


#: find_cfl's search: trial steps per candidate dt, the norm growth that
#: marks a candidate unstable, the final bracket width and the initial
#: bracket (all in units of dx, for unit wave speed), and the seed of the
#: random initial data
_CFL_STEPS = 2000
_CFL_GROWTH = 10.0
_CFL_BRACKET = 1e-3
_CFL_LO_RATIO = 0.2
_CFL_HI_RATIO = 1.2
_CFL_SEED = 1234


def _is_stable(system, dt: float) -> bool:
    rng = np.random.default_rng(_CFL_SEED)
    state = SimState(*system.random_state(rng, amplitude=1e-3))
    limit = _CFL_GROWTH * np.sqrt(state.p @ state.p + state.v @ state.v)
    for it in range(_CFL_STEPS):
        step_forward(system, state, dt)
        if it % 50 == 49 or it == _CFL_STEPS - 1:
            norm = np.sqrt(state.p @ state.p + state.v @ state.v)
            if not np.isfinite(norm) or norm > limit:
                return False
    return True


def find_cfl(system, dx: float) -> CflSearchResult:
    """Bisect the largest stable time step of the leapfrog integration.

    A candidate dt is stable when 2000 steps from small random data stay
    within a factor 10 of the initial norm. The search starts from the
    bracket [0.2 dx, 1.2 dx] and returns one of width at most 1e-3 dx.

    Raises:
        DomainError: the initial bracket does not straddle the limit.
    """
    lo, hi = _CFL_LO_RATIO * dx, _CFL_HI_RATIO * dx
    if not _is_stable(system, lo):
        raise DomainError(f"the lower trial step {_CFL_LO_RATIO} dx is already unstable")
    if _is_stable(system, hi):
        raise DomainError(f"the upper trial step {_CFL_HI_RATIO} dx is stable")
    while hi - lo > _CFL_BRACKET * dx:
        mid = 0.5 * (lo + hi)
        if _is_stable(system, mid):
            lo = mid
        else:
            hi = mid
    return CflSearchResult(dt_stable=lo, dt_unstable=hi, dx=dx)
