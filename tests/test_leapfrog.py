import tracemalloc

import numpy as np
import pytest

import stagwave as sw
from stagwave.leapfrog import (ReceiverSpec, SimState, SourceSpec, TimeGrid,
                               find_cfl, ricker, run, step_backward,
                               step_forward)
from stagwave.assembly import (BlockOperators, SemiDiscreteSystem,
                               assemble_1d_boundary_system)
from stagwave.verification import (_standing_state, build_scenario, state_error,
                                   uniform_standing_system)


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
    assert all(np.all(p == 0) for p in result.final_state.pressures)
    assert all(np.all(v == 0) for v in result.final_state.velocities)


def _source_run(amplitude, n_steps=50):
    system = uniform_standing_system(12)
    src = SourceSpec(*system.locate_pressure_point(0.25, 0.25), f0=20.0,
                     t0=0.05, amplitude=amplitude)
    rec = ReceiverSpec(*system.locate_pressure_point(0.75, 0.75))
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
    prs, vel = system.random_state(rng)
    ref_p = [p.copy() for p in prs]
    ref_v = [v.copy() for v in vel]
    state = SimState(prs, vel)
    for _ in range(200):
        step_forward(system, state, 1e-4)
    for _ in range(200):
        step_backward(system, state, 1e-4)
    err = max(np.abs(a - b).max() for a, b in
              zip(state.pressures + state.velocities, ref_p + ref_v))
    scale = max(np.abs(a).max() for a in ref_p + ref_v)
    assert err <= 1e-10 * scale


def test_standing_mode_short_run_error():
    # measured 3.9e-5 at n=64, dt=1e-4, 100 steps: O(dx^3) + O(dt^2) envelope
    system = uniform_standing_system(64)
    dt = 1e-4
    state = _standing_state(system, dt)
    result = run(system, TimeGrid(dt, 100), state=state)
    err = state_error(system, result.final_state, 0.01, 0.01 + dt / 2)
    assert err <= 1e-4


def test_trace_and_energy_sampling_counts():
    system = uniform_standing_system(12)
    rec = ReceiverSpec(*system.locate_pressure_point(0.5, 0.5))
    result = run(system, TimeGrid(1e-3, 17), receivers=[rec], record_energy=True)
    assert result.seismograms.shape == (1, 18)
    assert result.energy.shape == (17,)
    assert result.energy_times[0] == pytest.approx(0.5e-3)


def test_energy_record_is_bounded_sampling_ripple():
    # the half-level record oscillates at O(omega dt) and shows no growth;
    # halving dt must shrink the ripple accordingly
    system = uniform_standing_system(16)
    devs = []
    for dt, steps in ((1e-4, 2000), (5e-5, 4000)):
        state = _standing_state(system, dt)
        result = run(system, TimeGrid(dt, steps), state=state, record_energy=True)
        e = result.energy
        devs.append(np.abs(e - e.mean()).max() / e.mean())
    assert devs[0] <= 5e-3
    assert devs[1] <= 0.7 * devs[0]


def test_step_allocates_no_field_sized_arrays(rng):
    # the rates are written into buffers the system owns and the fields are
    # updated in place, so a step's transient memory stays below one field
    system, source, _ = build_scenario("two_layer_2to1")
    state = SimState(*system.random_state(rng))
    for _ in range(3):
        step_forward(system, state, 1e-3, [source])
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(20):
            step_forward(system, state, 1e-3, [source])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < min(p.nbytes for p in state.pressures)


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
