"""Correctness gate applied to every repetition, outside the timed region.

A repetition fails when any check below reports a reason:

* every number in every CSV and snapshot the run wrote is finite;
* `energy_rate` of the assembled system is at most 1e-12 on a few seeded
  random states (the certificate that the operator conserves energy);
* where the run goes on for at least ten source periods after the sources
  taper (t0 + 6/f0), the energy drift there is at most 1e-3, as in acceptance
  criterion 6 (a shorter window compares medians taken at different phases of
  the leapfrog energy's O(dt^2) ripple, which says nothing about drift);
* for the default seed, every seismogram matches the stored reference to a
  relative l2 misfit of 1e-9, which admits reordered floating-point sums and
  rejects a changed scheme.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

RATE_LIMIT = 1e-12
RATE_STATES = 3
DRIFT_LIMIT = 1e-3
TRACE_LIMIT = 1e-9
REFERENCE = Path(__file__).with_name("reference.npz")


def read_seismograms(out_dir: Path, n_receivers: int) -> np.ndarray:
    """(n_receivers, n_samples) pressure traces from the run's CSV files."""
    names = (["seismogram.csv"] if n_receivers == 1
             else [f"seismogram_{i}.csv" for i in range(n_receivers)])
    return np.array([np.loadtxt(out_dir / name, delimiter=",", skiprows=1, ndmin=2)[:, 1]
                     for name in names])


def non_finite_outputs(out_dir: Path) -> list[str]:
    bad = []
    for path in sorted(out_dir.iterdir()):
        if path.suffix == ".csv":
            values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        elif path.suffix == ".bin":
            values = np.fromfile(path, dtype="<f8")
        else:
            continue
        if not np.all(np.isfinite(values)):
            bad.append(f"non-finite values in {path.name}")
    return bad


def energy_rate_failures(system, seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    worst = max(system.energy_rate(*system.random_state(rng)) for _ in range(RATE_STATES))
    return [] if worst <= RATE_LIMIT else [f"energy rate {worst:.3e} > {RATE_LIMIT:g}"]


def post_source_drift(times, energy, t_start) -> float:
    """Relative drift between the medians of the first and last tenth of the
    record after t_start."""
    e = energy[times >= t_start]
    k = max(1, e.size // 10)
    return abs(float(np.median(e[-k:])) - float(np.median(e[:k]))) / float(np.median(e))


def drift_failures(out_dir: Path, sources: list[dict]) -> list[str]:
    energy_csv = out_dir / "energy.csv"
    if not energy_csv.exists():
        return []
    table = np.loadtxt(energy_csv, delimiter=",", skiprows=1, ndmin=2)
    t_post = max(float(s.get("t0", 0.0)) + 6.0 / float(s["f0"]) for s in sources)
    period = 1.0 / min(float(s["f0"]) for s in sources)
    if table[-1, 1] - t_post < 10 * period:
        return []
    drift = post_source_drift(table[:, 1], table[:, 2], t_post)
    if drift <= DRIFT_LIMIT:
        return []
    return [f"post-source energy drift {drift:.3e} > {DRIFT_LIMIT:g}"]


def trace_misfits(traces: np.ndarray, reference: np.ndarray, stride: int) -> np.ndarray:
    """Relative l2 misfit of each trace, sampled every `stride` steps.

    A trace far from the source holds only the stencil's tiny precursor,
    whose last digits legitimately depend on summation order, so each trace
    is scaled by at least 1e-6 of the largest reference trace norm.
    """
    got = traces[:, ::stride]
    if got.shape != reference.shape:
        return np.full(len(reference), np.inf)
    norms = np.linalg.norm(reference, axis=1)
    scale = np.maximum(norms, max(1e-6 * norms.max(), np.finfo(float).tiny))
    return np.linalg.norm(got - reference, axis=1) / scale


def reference_failures(traces: np.ndarray, workload: str) -> list[str]:
    with np.load(REFERENCE) as ref:
        if workload not in ref.files:
            return [f"no reference traces for {workload}"]
        reference = ref[workload]
        stride = int(ref["stride"])
    misfit = trace_misfits(traces, reference, stride)
    worst = float(misfit.max())
    return [] if worst <= TRACE_LIMIT else [
        f"seismogram misfit {worst:.3e} > {TRACE_LIMIT:g} against the reference"]
