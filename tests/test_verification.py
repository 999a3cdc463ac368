from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from stagwave.assembly import (SatCoefficients, assemble_interface_system,
                               assemble_single_block_system)
from stagwave.config import build_run, parse_config, validate_config
from stagwave.errors import DomainError, SizeError
from stagwave.grids import build_block_2d
from stagwave.verification import (SCENARIOS, _standing_state, build_scenario,
                                   convergence_study, energy_rate_oracle,
                                   long_time_stability_run, materialize_system,
                                   post_source_drift, seismogram_misfit,
                                   standing_p, standing_u, standing_v, state_error,
                                   uniform_standing_system)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_standing_solution_satisfies_the_wave_system():
    # finite-difference residual of the governing equations, interior points
    x = np.linspace(0.05, 0.95, 13)
    y = np.linspace(0.05, 0.95, 11)
    t, eps = 0.123, 1e-6

    def ddt(f):
        return (f(x, y, t + eps) - f(x, y, t - eps)) / (2 * eps)

    def ddx(f):
        return (f(x + eps, y, t) - f(x - eps, y, t)) / (2 * eps)

    def ddy(f):
        return (f(x, y + eps, t) - f(x, y - eps, t)) / (2 * eps)

    r1 = ddt(standing_p) + ddx(standing_u) + ddy(standing_v)
    r2 = ddt(standing_u) + ddx(standing_p)
    r3 = ddt(standing_v) + ddy(standing_p)
    for r in (r1, r2, r3):
        assert np.abs(r).max() <= 1e-4


def test_standing_solution_boundary_conditions():
    x = np.linspace(0, 1, 9)
    assert np.abs(standing_p(x, np.array([0.0, 1.0]), 0.37)).max() <= 1e-12
    np.testing.assert_allclose(standing_p(np.array([0.0]), x, 0.2),
                               standing_p(np.array([1.0]), x, 0.2), atol=1e-12)


def test_state_error_is_zero_on_the_mode_and_root_three_for_unit_errors():
    # the error norm is the system's energy norm, on unit coefficients the
    # norm-weighted l2 norm: each of the three fields' weights sums to the
    # area of the unit square
    system = uniform_standing_system(12)
    t_p, t_vel = 0.013, 0.0135
    state = _standing_state(system, t_p, t_vel)
    assert state_error(system, state, t_p, t_vel) == 0.0
    state.p += 1.0
    state.v += 1.0
    assert state_error(system, state, t_p, t_vel) == pytest.approx(np.sqrt(3.0), rel=1e-13)


@pytest.mark.slow
def test_convergence_rate_on_short_ladder():
    report = convergence_study("uniform", sizes=(16, 32), dt=1e-5, t_final=0.05)
    assert 3.0 <= report.rates[0] <= 4.0


@pytest.mark.slow
def test_temporal_error_subdominant_under_dt_halving():
    e1 = convergence_study("uniform", sizes=(64,), dt=1e-5, t_final=0.05).errors[0]
    e2 = convergence_study("uniform", sizes=(64,), dt=5e-6, t_final=0.05).errors[0]
    assert abs(e1 - e2) / e1 < 0.05


def test_energy_oracle_detects_flipped_boundary_sign(rng):
    block = build_block_2d(0, 1, 12, 0, 1, 13)
    bad = assemble_single_block_system(block, coeffs=SatCoefficients(sigma_top=-1.0))
    assert energy_rate_oracle(bad, n_states=20) >= 1e-3


def test_dense_cap_enforced():
    system = assemble_single_block_system(build_block_2d(0, 1, 65, 0, 1, 66))
    with pytest.raises(SizeError):
        materialize_system(system)
    with pytest.raises(SizeError):
        energy_rate_oracle(system, n_states=1)


@pytest.mark.parametrize("ratio,n_coarse", [((1, 1), 16), ((2, 1), 16), ((3, 2), 16),
                                            ((6, 5), 20), ((7, 6), 24), ((5, 3), 18)],
                         ids=["single_block", "2:1", "3:2", "6:5", "7:6_derived", "5:3_derived"])
def test_interface_does_not_lower_the_stable_step(ratio, n_coarse):
    # leapfrog is stable up to dt_max = 2 / sqrt(lambda_max) of -L_prs L_vel
    # (the nonzero spectrum of -L_vel L_prs); on the unit square split at
    # y = 1/2 every ratio keeps the single block's free-surface limit,
    # dt_max = 0.5105315 of the fine spacing
    m, n = ratio
    n_fine = n_coarse * m // n
    if ratio == (1, 1):
        system = uniform_standing_system(n_fine)
    else:
        system = assemble_interface_system([
            build_block_2d(0, 1, n_coarse, 0, Fraction(1, 2), n_coarse // 2 + 1),
            build_block_2d(0, 1, n_fine, Fraction(1, 2), 1, n_fine // 2 + 1)])
        assert len(system.blocks) == 2
    l_vel, l_prs = materialize_system(system)
    lam = np.linalg.eigvals(-l_prs @ l_vel).real.max()
    assert 2 / np.sqrt(lam) * n_fine == pytest.approx(0.5105315, rel=1e-6)


def test_post_source_drift_flat_and_trending():
    t = np.linspace(0, 10, 2001)
    flat = np.ones_like(t) + 1e-5 * np.sin(40 * t)
    drift, slope = post_source_drift(t, flat, 1.0)
    assert drift <= 1e-4
    assert abs(slope) <= 1e-4
    growing = np.exp(0.01 * t)
    drift, slope = post_source_drift(t, growing, 1.0)
    assert drift >= 5e-2
    assert slope > 0


def test_seismogram_misfit_basics():
    a = np.sin(np.linspace(0, 6, 100))
    assert seismogram_misfit(a, a) == 0.0
    assert seismogram_misfit(1.1 * a, a) == pytest.approx(0.1, rel=1e-12)
    with pytest.raises(DomainError):
        seismogram_misfit(a[:50], a)


@pytest.mark.slow
def test_two_layer_scenario_short_run_is_stable():
    res = long_time_stability_run("two_layer_2to1", n_steps=5000)
    assert res.verdict == "stable"
    assert res.energy_drift <= 1e-3
    # no monotone growth trend: the fitted relative slope is zero within noise
    window = res.energy_times[-1] - (0.25 + 6.0 / 5.0)
    assert abs(res.energy_slope) * window <= 1e-3


def test_stability_run_reads_its_source_through_the_config_defaults(monkeypatch):
    # a source without t0 starts at t0 = 0: 6/f0 = 1.2 s at dt = 0.0012
    # needs 1,000 steps before it and ten energy samples after it
    from stagwave import verification
    scenario = dict(SCENARIOS["two_layer_2to1"])
    scenario["sources"] = [{"x": 0.04, "y": 0.92, "f0": 5.0}]
    monkeypatch.setitem(verification.SCENARIOS, "no_t0", scenario)
    with pytest.raises(DomainError, match="no_t0: .* at least 1010 steps, got 100"):
        long_time_stability_run("no_t0", n_steps=100)


@pytest.mark.slow
def test_coarsened_split_agreement_degrades_gracefully():
    from stagwave.verification import two_grid_agreement
    misfit = two_grid_agreement("2:1")   # measured 0.0096
    assert misfit <= 0.1


@pytest.mark.parametrize("name", ["two_layer_2to1", "smooth_gradient_6to5"])
def test_shipped_config_builds_its_scenario(name, rng):
    shipped_spec = parse_config(CONFIGS / f"{name}.yaml")
    scenario_spec = validate_config(SCENARIOS[name])
    shipped, scenario = build_run(shipped_spec), build_run(scenario_spec)
    assert shipped.sources == scenario.sources
    assert shipped.receivers == scenario.receivers
    assert shipped_spec.time_grid == scenario_spec.time_grid
    assert build_scenario(name)[1:] == (scenario.sources[0], scenario.receivers[0])
    a, b = shipped.system, scenario.system
    assert [blk.block.p_shape for blk in a.blocks] == [blk.block.p_shape for blk in b.blocks]
    p, v = a.random_state(rng)
    assert np.array_equal(a.pressure_rates(v), b.pressure_rates(v))
    assert np.array_equal(a.velocity_rates(p), b.velocity_rates(p))


def test_two_grid_agreement_builds_the_uniform_reference_once(monkeypatch):
    from stagwave import verification
    built = []

    def counting_build(name):
        built.append(name)
        return build_scenario(name)

    monkeypatch.setattr(verification, "build_scenario", counting_build)
    verification._uniform_reference_trace.cache_clear()
    for which in ("6:5", "2:1"):
        assert verification.two_grid_agreement(which, n_steps=20) >= 0.0
    assert built.count("uniform_gradient") == 1
    assert built.count("smooth_gradient_6to5") == built.count("coarsened_split_2to1") == 1
