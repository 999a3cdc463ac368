"""One benchmark repetition, run in a fresh process by run.py.

Usage: python3 perfbench/rep.py SPEC.json

SPEC names the source tree, the config to run, the output directory, the
workload and seed, whether to trace, an optional negative control, and where
to write the result. The repetition calls `stagwave.cli.main(["run", ...])`
exactly as a user would. Untraced, it only stamps the phase boundaries: entry
to and exit from `cli.main` and `leapfrog.run`. Traced, it also spans the
public functions of every layer (see tracing.py). After the run, untimed, it
applies the correctness gate (gate.py) and writes one JSON result.

Negative controls, used by the tests to show the gate rejects a wrong run:
  flip_penalty   assemble with SatCoefficients(sigma_p_minus=0.5), a penalty
                 sign that breaks energy conservation;
  perturb_trace  scale the seismograms by 1 + 1e-6 before comparing them
                 with the reference.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import gate
from tracing import Tracer, install, layer_metrics, replace_everywhere
from workloads import DEFAULT_SEED

CONTROLS = ("flip_penalty", "perturb_trace")


def _gate(spec: dict, system, n_receivers: int) -> list[str]:
    out = Path(spec["out"])
    reasons = gate.non_finite_outputs(out)
    reasons += gate.energy_rate_failures(system, spec["seed"])
    reasons += gate.drift_failures(out, spec["config"]["sources"])
    if spec["seed"] == DEFAULT_SEED:
        traces = gate.read_seismograms(out, n_receivers)
        if spec["control"] == "perturb_trace":
            traces = traces * (1.0 + 1e-6)
        reasons += gate.reference_failures(traces, spec["workload"])
    return reasons


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    result: dict = {"ok": False, "reasons": []}
    try:
        if spec["control"] not in (None, *CONTROLS):
            raise ValueError(f"unknown control {spec['control']!r}")
        sys.path.insert(0, spec["src"])
        import stagwave.cli
        import stagwave.config
        import stagwave.leapfrog

        stamps: dict[str, float] = {}
        built = []
        run_sim, build_run = stagwave.leapfrog.run, stagwave.config.build_run

        def timed_run(*args, **kwargs):
            stamps["step_start"] = time.monotonic()
            try:
                return run_sim(*args, **kwargs)
            finally:
                stamps["step_end"] = time.monotonic()

        def capturing_build(*args, **kwargs):
            built.append(build_run(*args, **kwargs))
            return built[-1]

        replace_everywhere(run_sim, timed_run)
        replace_everywhere(build_run, capturing_build)
        if spec["control"] == "flip_penalty":
            stagwave.assembly.SatCoefficients = functools.partial(
                stagwave.assembly.SatCoefficients, sigma_p_minus=0.5)
        tracer = None
        if spec["trace"]:
            tracer = Tracer()
            install(tracer)

        stamps["main_start"] = time.monotonic()
        code = stagwave.cli.main(["run", spec["config_path"], "--out", spec["out"],
                                  "--force"])
        stamps["main_end"] = time.monotonic()
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["stamps"] = stamps
        if tracer is not None:
            tracer.enabled = False
            result["layers"] = layer_metrics(tracer, spec["config"]["time"]["n_steps"])
            result["absent"] = tracer.absent
            Path(spec["spans"]).write_text(json.dumps(tracer.dump()))
        if code != 0:
            result["reasons"] = [f"stagwave run exited with code {code}"]
        else:
            result["reasons"] = _gate(spec, built[-1].system, len(built[-1].receivers))
    except Exception:  # noqa: BLE001 - any crash fails this repetition, with its traceback
        result["reasons"].append("repetition raised:\n" + traceback.format_exc())
    result["ok"] = not result["reasons"]
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
