import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import stagwave as sw
from stagwave.config import build_run, validate_config
from stagwave.leapfrog import (ReceiverSpec, SimState, SourceSpec, TimeGrid,
                               _advance_pressure, _flush, _flush_unit, find_cfl,
                               ricker, run, step_backward, step_forward)
from stagwave.assembly import (BlockOperators, SatCoefficients, SemiDiscreteSystem,
                               assemble_1d_boundary_system)
from stagwave.verification import (_standing_state, build_scenario, ratio_system,
                                   state_error, uniform_standing_system)


def test_ricker_peak_and_decay():
    assert ricker(0.25, 5.0, 0.25) == 1.0
    assert abs(ricker(0.25 + 10.0, 5.0, 0.25)) < 1e-300
    assert abs(ricker(0.25 - 10.0, 5.0, 0.25)) < 1e-300


def test_ricker_zero_crossing():
    f0, t0 = 5.0, 0.25
    t_zero = t0 + 1.0 / (np.pi * f0 * np.sqrt(2.0))
    assert abs(ricker(t_zero, f0, t0)) <= 1e-15


def test_zero_state_zero_source_stays_zero():
    system = uniform_standing_system(12)
    result = run(system, TimeGrid(1e-3, 20))
    assert np.all(result.seismograms == 0) if result.seismograms.size else True
    assert np.all(result.final_state.p == 0)
    assert np.all(result.final_state.v == 0)


def _source_run(amplitude, n_steps=50):
    system = uniform_standing_system(12)
    src = SourceSpec(system.locate_pressure_point(0.25, 0.25), f0=20.0,
                     t0=0.05, amplitude=amplitude)
    rec = ReceiverSpec(system.locate_pressure_point(0.75, 0.75))
    return run(system, TimeGrid(1e-3, n_steps), sources=[src], receivers=[rec])


def test_linearity_power_of_two_is_exact():
    base = _source_run(1.0).seismograms
    doubled = _source_run(2.0).seismograms
    np.testing.assert_array_equal(doubled, 2.0 * base)


def test_linearity_general_scaling():
    base = _source_run(1.0).seismograms
    scaled = _source_run(3.0).seismograms
    np.testing.assert_allclose(scaled, 3.0 * base, rtol=1e-12, atol=1e-300)


def test_zero_amplitude_source_gives_zero_traces():
    assert np.all(_source_run(0.0).seismograms == 0.0)


def test_time_reversibility(rng):
    system = uniform_standing_system(16)
    p, v = system.random_state(rng)
    state = SimState(p.copy(), v.copy())
    for _ in range(200):
        step_forward(system, state, 1e-4)
    for _ in range(200):
        step_backward(system, state, 1e-4)
    err = max(np.abs(state.p - p).max(), np.abs(state.v - v).max())
    scale = max(np.abs(p).max(), np.abs(v).max())
    assert err <= 1e-10 * scale


def test_standing_mode_short_run_error():
    # measured 3.9e-5 at n=64, dt=1e-4, 100 steps: O(dx^3) + O(dt^2) envelope
    system = uniform_standing_system(64)
    dt = 1e-4
    state = _standing_state(system, 0.0, dt / 2)
    result = run(system, TimeGrid(dt, 100), state=state)
    err = state_error(system, result.final_state, 0.01, 0.01 + dt / 2)
    assert err <= 1e-4


def test_trace_and_energy_sampling_counts():
    system = uniform_standing_system(12)
    rec = ReceiverSpec(system.locate_pressure_point(0.5, 0.5))
    result = run(system, TimeGrid(1e-3, 17), receivers=[rec], record_energy=True)
    assert result.seismograms.shape == (1, 18)
    assert result.energy.shape == (17,)
    assert result.energy_times[0] == pytest.approx(0.5e-3)


def test_energy_record_is_constant_without_sources():
    # the record is the energy the leapfrog conserves exactly, so it holds
    # to roundoff at any stable dt
    system = uniform_standing_system(16)
    for dt, steps in ((1e-4, 2000), (5e-5, 4000)):
        state = _standing_state(system, 0.0, dt / 2)
        result = run(system, TimeGrid(dt, steps), state=state, record_energy=True)
        e = result.energy
        assert np.abs(e - e[0]).max() <= 1e-12 * e[0], dt


def _assert_no_field_sized_arrays(rng, call):
    """Run call(system, state, source) 20 times after 3 warm-up calls on both
    shipped interfaces, 2:1 and 6:5, and hold its transient memory below the
    smallest pressure field."""
    for name in ("two_layer_2to1", "smooth_gradient_6to5"):
        system, source, _ = build_scenario(name)
        state = SimState(*system.random_state(rng))
        for _ in range(3):
            call(system, state, source)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for _ in range(20):
                call(system, state, source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < min(f.nbytes for f in system.pressure_fields(state.p)), name


def test_step_allocates_no_field_sized_arrays(rng):
    # the rates are written into buffers the system owns and the fields are
    # updated in place
    _assert_no_field_sized_arrays(
        rng, lambda system, state, source: step_forward(system, state, 1e-3, [source]))


def test_energy_allocates_no_field_sized_arrays(rng):
    # each weighted sum of squares is one pass that writes no vector
    _assert_no_field_sized_arrays(
        rng, lambda system, state, source: system.energy(state.p, state.v))


def test_energy_leaves_the_rate_vectors_unchanged(rng):
    system, _, _ = build_scenario("two_layer_2to1")
    p, v = system.random_state(rng)
    dp = system.pressure_rates(v)
    dv = system.velocity_rates(p)
    want = dp.copy(), dv.copy()
    system.energy(p, v)
    np.testing.assert_array_equal(dp, want[0])
    np.testing.assert_array_equal(dv, want[1])


def test_flush_allocates_no_field_sized_arrays(rng):
    # the scale is two reductions per vector, the rounding two in-place passes
    _assert_no_field_sized_arrays(
        rng, lambda system, state, source: _flush(state, _flush_unit([source], state)))


TINY = np.finfo(float).tiny


def _subnormals(state):
    return sum(int(np.count_nonzero((x != 0) & (np.abs(x) < TINY))) for x in (state.p, state.v))


def _survey_slice():
    """configs/smooth_gradient_6to5.yaml refined 4x with dt scaled alike, as
    the benchmark's survey_6to5 is, but 120 fine columns wide: a Ricker shot
    10 rows above the interface of a medium at rest."""
    y_if = Fraction("0.768")
    raw = {"layout": {"x_left": 0.0, "width": 0.24, "y_bottom": 0.0,
                      "top": {"columns": 120, "dx": 0.002, "height": 0.192},
                      "bottom": {"columns": 100, "dx": 0.0024, "height": float(y_if)}},
           "medium": {"kind": "vertical_linear", "y_bottom": 0.0, "y_top": 0.96,
                      "rho_bottom": 1.0, "rho_top": 0.5, "c_bottom": 2.0, "c_top": 1.0},
           "time": {"dt": 0.0003, "n_steps": 96},
           "sources": [{"x": 0.06, "y": float(y_if + Fraction("0.02")),
                        "f0": 25.0, "t0": 0.04}],
           "receivers": [{"x": float(Fraction("0.002") * k), "y": float(y_if + Fraction("0.06"))}
                         for k in (10, 30, 60)]}
    spec = validate_config(raw)
    built = build_run(spec)
    return built.system, spec.time_grid, built.sources, built.receivers


def _unrounded_run(system, time_grid, sources, receivers):
    """run()'s traces and half-level energies from a bare step_forward loop:
    E_{n+1/2} = 1/2 (p_n^T W_p p_{n+1} + |v_{n+1/2}|_W^2), with v_{n+1/2}
    the velocities the step starts from."""
    state = SimState(*system.zero_state())
    at = [r.index for r in receivers]
    traces, energy = [state.p[at]], []
    for _ in range(time_grid.n_steps):
        p_old, v_old = state.p.copy(), state.v.copy()
        step_forward(system, state, time_grid.dt, sources)
        energy.append(system.energy(p_old, v_old, p_next=state.p))
        traces.append(state.p[at])
    return state, np.array(traces).T, np.array(energy)


def test_run_keeps_subnormals_out_of_a_wave_entering_a_medium_at_rest():
    # 96 steps end on the 12th rounding; ahead of the front the bare loop has
    # decayed into subnormals by then (2,613 of them), the run holds none,
    # and the rounding is invisible in the outputs
    system, grid, sources, receivers = _survey_slice()
    assert grid.n_steps % 8 == 0 and grid.n_steps > 8
    bare, traces, energy = _unrounded_run(system, grid, sources, receivers)
    assert _subnormals(bare) > 0
    result = run(system, grid, sources, receivers, record_energy=True)
    assert _subnormals(result.final_state) == 0
    assert np.abs(result.seismograms - traces).max() <= 1e-13 * np.abs(traces).max()
    assert np.abs(result.energy - energy).max() <= 1e-13 * np.abs(energy).max()


@pytest.mark.parametrize("n_steps", [96, 100])
def test_run_keeps_every_energy_square_normal(n_steps):
    # the energy sums c * w * x^2 in one scalar pass, which an underflowing
    # square slows; 96 steps end on a rounding, 100 steps four steps after it
    system, grid, sources, receivers = _survey_slice()
    state = run(system, TimeGrid(grid.dt, n_steps), sources, receivers).final_state
    for x, cw in ((state.p, system.cw_p), (state.v, system.cw_v)):
        nonzero = x != 0
        assert np.count_nonzero(nonzero) > 0
        assert np.all((x * x * cw)[nonzero] >= TINY)


def test_flush_unit_follows_the_run_scale():
    state = SimState(np.array([0.0, -3.0, 1.0]), np.array([2.5, 0.0]))
    assert _flush_unit([], state) == 2.0 ** -199
    assert _flush_unit([SourceSpec(0, f0=1.0, amplitude=-5.0)], state) == 2.0 ** -198
    assert _flush_unit([SourceSpec(0, f0=1.0, amplitude=-5.0)], None) == 2.0 ** -198
    zero = SimState(np.zeros(3), np.zeros(2))
    assert _flush_unit([], zero) == _flush_unit([], None) == 0.0
    assert _flush_unit([SourceSpec(0, f0=1.0, amplitude=2.0 ** -900)], zero) == 0.0
    for bad in (np.nan, np.inf, -np.inf):
        assert _flush_unit([], SimState(np.array([1.0, bad]), np.zeros(2))) == 0.0
        assert _flush_unit([SourceSpec(0, f0=1.0, amplitude=bad)], None) == 0.0


def test_flush_bound():
    # below u a value becomes a multiple of 2^-53 u, which no subnormal is;
    # above it, one rounding of |x| + u moves it by at most 2u (reached by
    # ties at an odd multiple of ulp(x) = 2u), and from 2^54 u on not at all;
    # for run()'s unit at scale 1 (2^-200) and for a far smaller one
    rng = np.random.default_rng(7)
    x = rng.choice([-1.0, 1.0], 20000) * 2.0 ** rng.uniform(-1074, 0, 20000)
    for u in (2.0 ** -600, 2.0 ** -200):
        ties = u * (2.0 ** 53 + 2.0 * np.arange(1, 40, 2))
        xu = np.concatenate([ties, -ties, x, [0.0, TINY, -TINY / 3]])
        state = SimState(xu.copy(), np.zeros(1))
        _flush(state, u)
        shift = np.abs(state.p - xu)
        small, large = np.abs(xu) < u, np.abs(xu) >= 2.0 ** 54 * u
        assert np.all(shift[:2 * ties.size] == 2 * u)
        assert np.all(shift <= 2 * u)
        assert np.all(shift[small] <= 2.0 ** -53 * u)
        assert np.all(np.fmod(state.p[small], 2.0 ** -53 * u) == 0)
        assert np.all(state.p[large] == xu[large])
        assert _subnormals(state) == 0


def test_rounding_is_relative_to_the_run_scale():
    # at amplitude 2^-900 every value lies far below 2^-600: a fixed rounding
    # unit would zero the run, the scaled one leaves it linear
    base = _source_run(1.0).seismograms
    tiny = _source_run(2.0 ** -900).seismograms
    assert np.abs(tiny).max() > 0
    assert np.abs(tiny - 2.0 ** -900 * base).max() <= 1e-12 * 2.0 ** -900 * np.abs(base).max()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_run_from_a_non_finite_state_raises(bad):
    system = uniform_standing_system(12)
    state = SimState(*system.zero_state())
    state.p[5] = bad
    with np.errstate(invalid="ignore"), pytest.raises(sw.DomainError, match="non-finite"):
        run(system, TimeGrid(1e-3, 20), state=state)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_run_refuses_a_non_finite_source_amplitude_before_the_first_step(bad):
    system = uniform_standing_system(12)
    source = SourceSpec(system.locate_pressure_point(0.25, 0.25), f0=20.0, amplitude=bad)
    with pytest.raises(sw.DomainError, match="non-finite initial state or source"):
        run(system, TimeGrid(1e-3, 20), sources=[source])


def test_the_energy_record_changes_no_output():
    # the run evaluates, carries and checks the energy alike with the record
    # and without it: traces and final state are the same bytes either way
    system, grid, sources, receivers = _survey_slice()
    plain = run(system, grid, sources, receivers)
    recorded = run(system, grid, sources, receivers, record_energy=True)
    assert plain.energy is None and recorded.energy.shape == (grid.n_steps,)
    assert plain.seismograms.tobytes() == recorded.seismograms.tobytes()
    for a, b in ((plain.final_state.p, recorded.final_state.p),
                 (plain.final_state.v, recorded.final_state.v)):
        assert a.tobytes() == b.tobytes()
    assert plain.final_state.t_p == recorded.final_state.t_p


def _evaluated_every_step(system, time_grid, sources):
    """run()'s energy record evaluated in full on every step, from a copy of
    p_n, with run()'s rounding every 8 steps."""
    state = SimState(*system.zero_state())
    u = _flush_unit(sources, None)
    energy = []
    for it in range(time_grid.n_steps):
        p_old = state.p.copy()
        _advance_pressure(system, state, time_grid.dt, sources)
        energy.append(system.energy(p_old, state.v, p_next=state.p))
        state.v += system.velocity_rates(state.p, time_grid.dt)
        if (it + 1) % 8 == 0:
            _flush(state, u)
    return np.array(energy)


def test_the_record_is_evaluated_every_8_steps_and_carried_in_between():
    # the first step and the first after each rounding are evaluated in full,
    # the same bytes as an evaluation on every step; in between the record
    # carries the energy the source injects, to roundoff
    system, grid, sources, receivers = _survey_slice()
    want = _evaluated_every_step(system, grid, sources)
    got = run(system, grid, sources, receivers, record_energy=True).energy
    evaluated = np.arange(grid.n_steps) % 8 == 0
    assert got[evaluated].tobytes() == want[evaluated].tobytes()
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_coefficients_that_do_not_conserve_are_evaluated_on_every_step():
    # a flipped interface penalty breaks the identity the carry rests on: the
    # record is evaluated on every step and no gap stops the run, while the
    # gap check, were it applied, would stop it at the first reevaluation
    system = ratio_system(2, 1, coeffs=SatCoefficients(sigma_p_minus=0.5))
    assert not system.conserves_energy
    sources = [SourceSpec(system.locate_pressure_point(0.5, 1), f0=2.0, t0=0.5)]
    grid = TimeGrid(0.01, 64)
    got = run(system, grid, sources, record_energy=True).energy
    assert got.tobytes() == _evaluated_every_step(system, grid, sources).tobytes()
    system.conserves_energy = True
    with pytest.raises(sw.DomainError, match="energy evaluated at step 9 differs from the carried"):
        run(system, grid, sources)


@pytest.mark.parametrize("where", ["source", "receiver"])
@pytest.mark.parametrize("index", ["-1", "n_p"])
def test_run_rejects_an_index_outside_the_pressure_vector(where, index):
    # a negative index would wrap to the end, one past the end would raise a
    # bare IndexError; both are refused before the first step
    system = uniform_standing_system(12)
    at = -1 if index == "-1" else system.zero_state()[0].size
    specs = {"sources": [SourceSpec(at, f0=20.0)]} if where == "source" else \
        {"receivers": [ReceiverSpec(at)]}
    with pytest.raises(sw.DomainError, match="outside"):
        run(system, TimeGrid(1e-3, 5), **specs)


@pytest.mark.parametrize("where", ["source", "receiver"])
@pytest.mark.parametrize("index", [True, np.True_, 1.5], ids=["True", "np.True_", "1.5"])
def test_run_rejects_an_index_that_is_not_an_integer(where, index):
    # True would pass a range check as the int 1, and numpy would read it as
    # a mask over every pressure point; 1.5 would raise a bare IndexError
    specs = {"sources": [SourceSpec(index, f0=20.0)]} if where == "source" else \
        {"receivers": [ReceiverSpec(index)]}
    with pytest.raises(sw.DomainError, match="must be an integer"):
        run(uniform_standing_system(12), TimeGrid(1e-3, 5), **specs)


@pytest.mark.parametrize("where", ["source", "receiver"])
def test_run_accepts_a_numpy_integer_index(where):
    system = uniform_standing_system(12)

    def shot(at):
        src, rec = (at, 3) if where == "source" else (3, at)
        return run(system, TimeGrid(1e-3, 5), sources=[SourceSpec(src, f0=20.0)],
                   receivers=[ReceiverSpec(rec)])

    plain, numpy_int = shot(3), shot(np.int64(3))
    np.testing.assert_array_equal(numpy_int.seismograms, plain.seismograms)
    np.testing.assert_array_equal(numpy_int.final_state.p, plain.final_state.p)


def test_find_cfl_periodic_1d():
    n = 32
    system = SemiDiscreteSystem([BlockOperators([sw.build_periodic_1d(n, 1.0 / n)])])
    res = find_cfl(system, 1.0 / n)
    assert res.ratio == pytest.approx(6.0 / 7.0, abs=0.005)
    assert res.dt_unstable - res.dt_stable <= 1e-3 / n


def test_find_cfl_boundary_1d():
    n = 32
    system = assemble_1d_boundary_system(sw.build_sbp_1d(n + 1, 1.0 / n))
    res = find_cfl(system, 1.0 / n)
    assert res.ratio == pytest.approx(0.635, abs=0.01)


def test_time_grid_validation():
    with pytest.raises(sw.DomainError):
        TimeGrid(0.0, 10)
    with pytest.raises(sw.DomainError):
        TimeGrid(1e-3, -1)
