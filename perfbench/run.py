"""stagwave benchmark: the cost of `stagwave run` on three workloads.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload shot_2to1 --seed 1 --seconds 40 --trace 0

Workloads (configs generated from --seed by workloads.py):
  shot_2to1     the shipped 2:1 two-layer config at full length (5000 steps,
                9,180 pressure points): the step is bound by numpy call overhead.
  survey_6to5   the shipped 6:5 gradient config refined 4x (174,960 pressure
                points, 300 steps), a line of 60 receivers, energy and
                snapshot: the step is bound by bytes moved, and output
                writing is heavy.
  derived_7to6  a 7:6 layout with no tabulated transfer pair (400 steps):
                set-up derives the pair by exact solves and dominates the run.

Each repetition runs in a fresh process (rep.py), so every one pays the
import and set-up a user pays. Repetitions repeat until --seconds have
passed, with at least four. BLAS and OpenMP are pinned to one thread: the
plain single-threaded baseline, and on a small shared machine extra BLAS
threads only add jitter.

--trace 0 reports the end-to-end metrics, as medians over the repetitions
that pass the correctness gate (gate.py):
  wall_s         cli.main("run") from parsing the config to manifest.json;
  setup_s        process start to the first time step (imports included);
  step_ms        stepping time / n_steps;
  updates_per_s  (pressure + u + v points) * n_steps / stepping time;
  peak_rss_mb    peak resident memory of the run process, in MiB.
--trace 1 alternates traced and untraced repetitions and reports the
per-layer metrics of tracing.py (medians over traced repetitions), counts
per time step, the computed flops and bytes of one step, the bytes written,
the number of spans, and the tracing overhead: the median, over pairs of a
traced repetition and the untraced one after it, of their wall-time
difference.

A repetition that raises, writes non-finite output or fails the gate is
counted in "failed" and is not timed. The last line of standard output is
the JSON result; the line before it records the environment. Everything a
run leaves behind, including the spans of the last traced repetition, is
under perfbench/_work/.

The gate's negative controls run with `python3 -m pytest perfbench`;
make_reference.py regenerates the gate's reference seismograms.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import yaml

from workloads import DEFAULT_SEED, WORKLOADS, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
MIN_REPS = 4
HARD_LIMIT_S = 150.0
BLAS_THREADS = 1


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def grid_sizes(config: dict) -> dict:
    """Points per field and interface widths, from the config's layout."""
    layout = config["layout"]
    blocks = [layout["top"]] + ([layout["bottom"]] if layout.get("bottom") else [])
    sizes = {"p": 0, "u": 0, "v": 0}
    for block in blocks:
        cols = block["columns"]
        rows = int(Fraction(str(block["height"])) / Fraction(str(block["dx"]))) + 1
        sizes["p"] += cols * rows
        sizes["u"] += cols * rows          # periodic x: as many u columns as p
        sizes["v"] += cols * (rows - 1)
    sizes["n_fine"] = layout["top"]["columns"]
    sizes["n_coarse"] = layout["bottom"]["columns"] if layout.get("bottom") else 0
    return sizes


def step_cost(config: dict) -> dict[str, float]:
    """Computed (not measured) flops and compulsory bytes of one time step.

    Flops per point: pressure 21 (two 8-flop differences, sum, negation,
    material division, update), u and v 12 each (difference, negation,
    division, update); four dense interface matvecs of 2 * n_fine * n_coarse;
    with energy on, 6 per pressure point and 4 per velocity point. Bytes:
    each field read and written once and its material coefficient read
    (24 B per point), the two transfer matrices read twice (32 B per entry),
    and, with energy on, the previous pressure, the fields, coefficients and
    norm weights read again (40 B per pressure point, 24 B per velocity point).
    """
    s = grid_sizes(config)
    energy = config["outputs"].get("energy", True)
    dense = s["n_fine"] * s["n_coarse"]
    flops = 21 * s["p"] + 12 * (s["u"] + s["v"]) + 8 * dense
    nbytes = 24 * (s["p"] + s["u"] + s["v"]) + 32 * dense
    if energy:
        flops += 6 * s["p"] + 4 * (s["u"] + s["v"])
        nbytes += 40 * s["p"] + 24 * (s["u"] + s["v"])
    return {"step.flops": float(flops), "step.bytes": float(nbytes)}


def environment(seed: int) -> dict:
    import numpy

    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True,
                                 timeout=10, check=True).stdout.strip()
            return int(out)
        except (OSError, subprocess.SubprocessError, ValueError):
            return None

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
            "l3_bytes": getconf("LEVEL3_CACHE_SIZE"), "seed": seed}


def run_repetition(workload: str, seed: int, config: dict, rep_dir: Path, *,
                   trace: bool, timeout: float,
                   control: str | None = None) -> dict:
    """Run one repetition in a fresh process; return its record."""
    if rep_dir.exists():
        shutil.rmtree(rep_dir)
    rep_dir.mkdir(parents=True)
    config_path = rep_dir / "config.yaml"
    config_path.write_text(yaml.safe_dump(config, sort_keys=False))
    spec = {"src": str(SRC), "config": config, "config_path": str(config_path),
            "out": str(rep_dir / "out"), "workload": workload, "seed": seed,
            "trace": trace, "control": control, "result": str(rep_dir / "result.json"),
            "spans": str(rep_dir / "spans.json")}
    (rep_dir / "spec.json").write_text(json.dumps(spec))
    threads = str(BLAS_THREADS)
    env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "rep.py"), str(rep_dir / "spec.json")],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "trace": trace, "reasons": [f"timed out after {timeout:.0f} s"]}
    finished = time.monotonic()
    result_path = rep_dir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        return {"ok": False, "trace": trace,
                "reasons": [f"rep.py exited with {proc.returncode}: {proc.stderr[-2000:]}"]}
    record = json.loads(result_path.read_text())
    record["trace"] = trace
    record["duration_s"] = finished - spawned
    if record["ok"]:
        stamps = record["stamps"]
        n_steps = config["time"]["n_steps"]
        stepping = stamps["step_end"] - stamps["step_start"]
        sizes = grid_sizes(config)
        record["metrics"] = {
            "wall_s": stamps["main_end"] - stamps["main_start"],
            "setup_s": stamps["step_start"] - spawned,
            "step_ms": 1e3 * stepping / n_steps,
            "updates_per_s": (sizes["p"] + sizes["u"] + sizes["v"]) * n_steps / stepping,
            "peak_rss_mb": record["peak_rss_kb"] / 1024.0,
        }
        record["bytes_written"] = sum(
            f.stat().st_size for f in (rep_dir / "out").iterdir() if f.is_file())
    return record


def measure(workload: str, seed: int, config: dict, seconds: float, trace: bool,
            work: Path) -> list[dict]:
    """Repeat until `seconds` have passed (at least MIN_REPS repetitions).

    A repetition starts only if the slowest one so far would still end in
    time. With `trace`, repetitions alternate traced and untraced."""
    records: list[dict] = []
    start = time.monotonic()
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        if len(records) >= MIN_REPS and elapsed + longest > seconds:
            break
        if elapsed + longest > HARD_LIMIT_S:
            break
        traced = trace and len(records) % 2 == 0
        rep_start = time.monotonic()
        records.append(run_repetition(
            workload, seed, config, work / ("traced" if traced else "untraced"),
            trace=traced, timeout=max(5.0, HARD_LIMIT_S - elapsed)))
        longest = max(longest, time.monotonic() - rep_start)
    return records


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def summarize(records: list[dict], config: dict, trace: bool) -> dict:
    """The result object: failed repetitions count but are never timed."""
    good = [r for r in records if r["ok"]]
    if not trace:
        values = {name: _median([r["metrics"][name] for r in good])
                  for name in good[0]["metrics"]} if good else {}
    else:
        traced = [r for r in good if r["trace"]]
        values = {name: _median([r["layers"][name] for r in traced])
                  for name in (traced[0]["layers"] if traced else ())}
        values.update(step_cost(config))
        values["cli.bytes_written"] = _median([float(r["bytes_written"]) for r in traced])
        # traced minus untraced wall time, paired with the repetition run
        # right after it, so that drift in machine speed cancels
        pairs = [(t["metrics"]["wall_s"], u["metrics"]["wall_s"])
                 for t, u in zip(records[::2], records[1::2]) if t["ok"] and u["ok"]]
        values["trace.overhead_s"] = _median([t - u for t, u in pairs])
        values["trace.overhead_share"] = _median([(t - u) / u for t, u in pairs])
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in declared_units(trace).items()}
    failed = len(records) - len(good)
    return {"correct": failed == 0 and bool(good), "attempted": len(records),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stagwave" / "__init__.py").is_file():
        print(f"error: no stagwave sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC / "stagwave", quiet=1)
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)

    config = make_config(args.workload, args.seed)
    records = measure(args.workload, args.seed, config, args.seconds, bool(args.trace), work)
    summary = summarize(records, config, bool(args.trace))
    env = environment(args.seed)
    absent = sorted({a for r in records for a in r.get("absent", [])})
    (work / "results.json").write_text(json.dumps(
        {"workload": args.workload, "env": env, "absent_hooks": absent,
         "repetitions": records, "summary": summary}, indent=1))

    for r in records:
        if not r["ok"]:
            print("failed repetition: " + "; ".join(r["reasons"]), file=sys.stderr)
    if absent:
        print("hooks without a target (reported as 0): " + ", ".join(absent))
    n = sum(1 for r in records if r["ok"] and r["trace"] == bool(args.trace))
    for name, m in summary["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']} (median of {n})")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
