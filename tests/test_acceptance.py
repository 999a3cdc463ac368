"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria and tolerances are fixed here; the heavy stability scenarios carry
the `slow` marker (still run by default).
"""

import time
from fractions import Fraction

import numpy as np
import pytest

import stagwave as sw
from stagwave.assembly import (SatCoefficients, assemble_1d_boundary_system,
                               assemble_1d_interface_system)
from stagwave.cli import _cfl_search, main
from stagwave.transfer import (ElementalStencilPair, certify_pair,
                               tabulated_elemental_pair, tile_periodic)
from stagwave.verification import (convergence_study, energy_rate_oracle,
                                   long_time_stability_run,
                                   ratio_system as _two_block,
                                   two_grid_agreement, uniform_standing_system,
                                   with_random_coefficients)

F = Fraction
SHIPPED_RATIOS = (F(2, 1), F(3, 2), F(4, 3), F(5, 4), F(6, 5))


def _report(criterion: str, ok: bool, detail: str):
    print(f"[acceptance] {'PASS' if ok else 'FAIL'}  {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_sbp_structure_certificate():
    t0 = time.time()
    ops = sw.build_sbp_1d(9, 1.0)
    report = sw.verify_sbp_structure(ops)
    q_row_ok = (np.array_equal(report.q_first_row[:3], [-15 / 8, 5 / 4, -3 / 8])
                and np.all(report.q_first_row[3:] == 0.0))
    ok = (report.exact is True and report.structure_residual <= 1e-14 and q_row_ok
          and time.time() - t0 < 1.0)
    _report("1 SBP structure", ok,
            f"exact={report.exact}, residual={report.structure_residual:.2e}, "
            f"first row {report.q_first_row[:3]}, {time.time() - t0:.2f}s")


def test_criterion_2_polynomial_exactness():
    t0 = time.time()
    ops = sw.build_sbp_1d(12, 1.0)
    dv, dp = ops.exact_d_v(), ops.exact_d_p()
    xp = [F(i) for i in range(12)]
    xv = [F(2 * j + 1, 2) for j in range(11)]
    exact = True
    for k in range(3):
        exact &= all(sum(c * x**k for c, x in zip(row, xv))
                     == (k * xp[i] ** (k - 1) if k else 0)
                     for i, row in enumerate(dv))
        exact &= all(sum(c * x**k for c, x in zip(row, xp))
                     == (k * xv[j] ** (k - 1) if k else 0)
                     for j, row in enumerate(dp))
    for k in (3, 4):
        exact &= all(sum(c * x**k for c, x in zip(dv[i], xv)) == k * xp[i] ** (k - 1)
                     for i in range(4, 8))
        exact &= all(sum(c * x**k for c, x in zip(dp[j], xp)) == k * xv[j] ** (k - 1)
                     for j in range(3, 8))
    proj = list(ops.proj_left[:3])
    pts = [0.5, 1.5, 2.5]
    exact &= sum(proj) == 1.0
    exact &= sum(c * x for c, x in zip(proj, pts)) == 0.0
    exact &= sum(c * x * x for c, x in zip(proj, pts)) == 0.0
    details = []
    for ratio in SHIPPED_RATIOS:
        elem = tabulated_elemental_pair(ratio)
        cert = certify_pair(tile_periodic(elem, elem.n * 4, elem.m * 4))
        exact &= cert.ok and cert.adjoint_residual == 0.0
        details.append(f"{ratio.numerator}:{ratio.denominator} deg {cert.exactness_degree}")
    ok = exact and time.time() - t0 < 5.0
    _report("2 polynomial exactness", ok,
            f"difference/projection rows exact; transfer {', '.join(details)}; "
            f"{time.time() - t0:.2f}s")


def test_criterion_3_energy_rate_oracle(rng):
    t0 = time.time()
    rates = {}
    rates["1d-boundary"] = energy_rate_oracle(
        assemble_1d_boundary_system(sw.build_sbp_1d(33, 1 / 32)), n_states=100)
    rates["1d-interface"] = energy_rate_oracle(
        assemble_1d_interface_system(sw.build_sbp_1d(17, 1 / 16),
                                     sw.build_sbp_1d(33, 1 / 32)), n_states=100)
    rates["2d-single"] = energy_rate_oracle(uniform_standing_system(16), n_states=100)
    for ratio in SHIPPED_RATIOS:
        rates[f"2d-{ratio.numerator}:{ratio.denominator}"] = energy_rate_oracle(
            _two_block(ratio.numerator, ratio.denominator), n_states=100)
    rates["2d-heterogeneous"] = energy_rate_oracle(
        with_random_coefficients(_two_block(2, 1), rng), n_states=100)
    conserving = all(r <= 1e-12 for r in rates.values())

    controls = {}
    bad = assemble_1d_boundary_system(sw.build_sbp_1d(33, 1 / 32),
                                      SatCoefficients(sigma_left=1.0))
    prs, vel = bad.random_state(np.random.default_rng(1))
    controls["flipped-1d"] = bad.energy_rate(prs, vel)
    bad2d = _two_block(2, 1, coeffs=SatCoefficients(sigma_p_minus=0.5))
    prs, vel = bad2d.random_state(np.random.default_rng(2))
    controls["flipped-2d"] = bad2d.energy_rate(prs, vel)
    base = tabulated_elemental_pair(F(2, 1))
    rows = [dict(r) for r in base.coarse_to_fine]
    rows[1][0] += F(1, 2)
    broken = ElementalStencilPair(F(2, 1), tuple(rows), base.fine_to_coarse)
    badt = _two_block(2, 1, transfer=tile_periodic(broken, 6, 12))
    prs, vel = badt.random_state(np.random.default_rng(3))
    controls["broken-adjoint"] = badt.energy_rate(prs, vel)
    detecting = all(r >= 1e-3 for r in controls.values())

    ok = conserving and detecting and time.time() - t0 < 60.0
    worst = max(rates, key=rates.get)
    _report("3 energy-rate oracle", ok,
            f"max conserving rate {rates[worst]:.2e} ({worst}); controls "
            + ", ".join(f"{k}={v:.1e}" for k, v in controls.items())
            + f"; {time.time() - t0:.1f}s")


@pytest.mark.slow
def test_criterion_4_convergence():
    t0 = time.time()
    uniform = convergence_study("uniform", sizes=(16, 32, 64, 128),
                                dt=1e-5, t_final=0.1)
    split = convergence_study("two_block", sizes=(16, 32, 64, 128),
                              dt=1e-5, t_final=0.1)
    in_range = all(3.0 <= r <= 4.0 for r in uniform.rates + split.rates)
    agree = all(abs(a - b) <= 0.1 for a, b in zip(uniform.rates, split.rates))
    ok = in_range and agree
    _report("4 convergence", ok,
            "uniform rates " + ", ".join(f"{r:.2f}" for r in uniform.rates)
            + "; two-block rates " + ", ".join(f"{r:.2f}" for r in split.rates)
            + f"; {time.time() - t0:.0f}s")


def test_criterion_5_time_step_limits():
    t0 = time.time()
    targets = {"1d-periodic": (6 / 7, 0.005), "1d-sat": (0.635, 0.01),
               "2d-periodic": (0.6061, 0.01), "2d-sat": (0.5105, 0.01)}
    measured = {name: _cfl_search(name).ratio for name in targets}
    ok = all(abs(measured[k] - t) <= tol for k, (t, tol) in targets.items())
    _report("5 time-step limits", ok and time.time() - t0 < 300,
            ", ".join(f"{k}={v:.4f}" for k, v in measured.items())
            + f"; {time.time() - t0:.0f}s")


@pytest.mark.slow
def test_criterion_6_long_time_stability():
    t0 = time.time()
    details = []
    ok = True
    for scenario in ("two_layer_2to1", "smooth_gradient_6to5"):
        res = long_time_stability_run(scenario, n_steps=50_000, dt=0.0012)
        ok &= res.verdict == "stable"
        details.append(f"{scenario}: {res.verdict} (tail {res.tail_amplitude_ratio:.3f}, "
                       f"drift {res.energy_drift:.1e})")
    _report("6 long-time stability", ok, "; ".join(details) + f"; {time.time() - t0:.0f}s")


@pytest.mark.slow
def test_criterion_7a_two_grid_agreement():
    t0 = time.time()
    misfit = two_grid_agreement("6:5", n_steps=5000, dt=0.0012)
    _report("7a two-grid agreement (6:5 vs uniform)", misfit <= 0.05,
            f"misfit {misfit:.4f} (<= 0.05); {time.time() - t0:.0f}s")


@pytest.mark.slow
def test_criterion_7b_degenerate_interface():
    t0 = time.time()
    misfit = two_grid_agreement("1:1", n_steps=5000, dt=0.0012)
    _report("7b degenerate 1:1 interface vs single grid", misfit <= 1e-8,
            f"misfit {misfit:.3e} (<= 1e-8); {time.time() - t0:.0f}s")


def test_criterion_8_determinism(tmp_path):
    t0 = time.time()
    from conftest import TINY_CONFIG
    cfg = tmp_path / "run.yaml"
    cfg.write_text(TINY_CONFIG)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    same = all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
               for f in ("seismogram.csv", "energy.csv", "config.yaml",
                         "manifest.json"))
    _report("8 determinism", same,
            f"byte-identical outputs across two runs; {time.time() - t0:.1f}s")
