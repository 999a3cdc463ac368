from pathlib import Path

import numpy as np
import pytest

from stagwave.assembly import SatCoefficients, assemble_single_block_system
from stagwave.config import RunConfig, build_run, parse_config
from stagwave.errors import DomainError, SizeError
from stagwave.grids import build_block_2d
from stagwave.verification import (SCENARIOS, build_scenario,
                                   convergence_study, energy_rate_oracle,
                                   long_time_stability_run, materialize_system,
                                   post_source_drift, seismogram_misfit,
                                   standing_p, standing_u, standing_v,
                                   uniform_standing_system, weighted_l2_error)

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


def test_weighted_l2_error_zero_and_constant():
    system = uniform_standing_system(12)
    b = system.blocks[0]
    zeros = [np.zeros(b.block.p_shape), np.zeros(b.block.u_shape),
             np.zeros(b.block.v_shape)]
    ones = [z + 1.0 for z in zeros]
    weights = b.weights
    assert weighted_l2_error(zeros, zeros, weights) == 0.0
    # unit error on every node of three fields over the unit square
    assert weighted_l2_error(ones, zeros, weights) == pytest.approx(np.sqrt(3.0),
                                                                    rel=1e-13)


def test_weighted_l2_error_scales_linearly(rng):
    system = uniform_standing_system(12)
    b = system.blocks[0]
    weights = b.weights
    noise = [rng.standard_normal(b.block.p_shape),
             rng.standard_normal(b.block.u_shape),
             rng.standard_normal(b.block.v_shape)]
    zeros = [np.zeros_like(f) for f in noise]
    e1 = weighted_l2_error([1e-3 * f for f in noise], zeros, weights)
    e2 = weighted_l2_error([2e-3 * f for f in noise], zeros, weights)
    assert e2 == pytest.approx(2 * e1, rel=1e-12)


def test_weighted_l2_error_shape_mismatch():
    with pytest.raises(DomainError):
        weighted_l2_error([np.zeros(3)], [np.zeros(4)], [np.ones(3)])


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


@pytest.mark.slow
def test_coarsened_split_agreement_degrades_gracefully():
    from stagwave.verification import two_grid_agreement
    misfit = two_grid_agreement("2:1")   # measured 0.0096
    assert misfit <= 0.1


@pytest.mark.parametrize("name", ["two_layer_2to1", "smooth_gradient_6to5"])
def test_shipped_config_builds_its_scenario(name, rng):
    shipped = build_run(parse_config(CONFIGS / f"{name}.yaml"))
    scenario = build_run(RunConfig(raw=SCENARIOS[name]))
    assert shipped.sources == scenario.sources
    assert shipped.receivers == scenario.receivers
    assert shipped.time_grid == scenario.time_grid
    assert build_scenario(name)[1:] == (scenario.sources[0], scenario.receivers[0])
    a, b = shipped.system, scenario.system
    assert [blk.block.p_shape for blk in a.blocks] == [blk.block.p_shape for blk in b.blocks]
    prs, vel = a.random_state(rng)
    for x, y in zip(a.pressure_rates(vel), b.pressure_rates(vel), strict=True):
        assert np.array_equal(x, y)
    for x, y in zip(a.velocity_rates(prs), b.velocity_rates(prs), strict=True):
        assert np.array_equal(x, y)


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
