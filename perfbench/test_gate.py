"""Negative controls for the benchmark's correctness gate, and the exact
counts the traced run reports.

Run from the root of the repository:  python3 -m pytest perfbench
"""

from __future__ import annotations

import sys

import pytest

from run import SRC, WORK, declared_units, run_repetition, step_cost, summarize
from tracing import Tracer, layer_metrics
from workloads import DEFAULT_SEED, make_config

WORKLOAD = "derived_7to6"   # the cheapest workload, about 2 s a repetition


def _repetition(name: str, *, trace: bool = False, control: str | None = None) -> dict:
    config = make_config(WORKLOAD, DEFAULT_SEED)
    return run_repetition(WORKLOAD, DEFAULT_SEED, config, WORK / "test" / name,
                          trace=trace, timeout=120, control=control)


@pytest.fixture(scope="module")
def clean():
    return _repetition("clean")


def test_clean_repetition_passes_the_gate(clean):
    assert clean["ok"], clean["reasons"]
    assert set(clean["metrics"]) == set(declared_units(trace=False))
    assert all(v > 0 for v in clean["metrics"].values())


@pytest.mark.parametrize("control, reason", [
    ("flip_penalty", "energy rate"),
    ("perturb_trace", "seismogram misfit"),
])
def test_control_is_counted_failed_and_not_timed(clean, control, reason):
    bad = _repetition(control, control=control)
    assert not bad["ok"]
    assert any(reason in r for r in bad["reasons"]), bad["reasons"]
    assert "metrics" not in bad

    config = make_config(WORKLOAD, DEFAULT_SEED)
    summary = summarize([clean, bad], config, trace=False)
    assert (summary["correct"], summary["attempted"], summary["failed"]) == (False, 2, 1)
    assert summary["metrics"]["step_ms"]["value"] == clean["metrics"]["step_ms"]


def test_traced_counts_repeat_exactly():
    runs = [_repetition(f"traced{i}", trace=True) for i in range(2)]
    for r in runs:
        assert r["ok"], r["reasons"]
        assert r["absent"] == []
        layers = r["layers"]
        # two blocks, each with one x and one y difference per field update
        assert layers["sbp1d.calls"] == 8
        assert layers["assembly.interface_calls"] == 2
        assert layers["leapfrog.source_calls"] == 1
    solves = [r["layers"]["transfer.derive_solves"] for r in runs]
    assert solves[0] == solves[1] > 0
    computed = (set(runs[0]["layers"]) | set(step_cost(make_config(WORKLOAD, DEFAULT_SEED)))
                | {"cli.bytes_written", "trace.overhead_s", "trace.overhead_share"})
    assert computed == set(declared_units(trace=True))


def test_hook_without_target_is_absent_not_fatal():
    sys.path.insert(0, str(SRC))
    import stagwave.assembly  # noqa: F401 - the hooks look targets up in sys.modules

    tracer = Tracer()
    tracer.hook_function("assembly.interface", "stagwave.assembly:no_such_function",
                         wrap_result=True)
    tracer.hook_method("assembly.pressure_rates", "stagwave.assembly:NoSuchClass.rates")
    assert tracer.absent == ["stagwave.assembly:no_such_function",
                             "stagwave.assembly:NoSuchClass.rates"]
    metrics = layer_metrics(tracer, n_steps=10)
    assert metrics["assembly.interface_us"] == 0.0
    assert metrics["assembly.pressure_rates_us"] == 0.0
