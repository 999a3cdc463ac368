"""Regenerate reference.npz, the seismograms the gate compares against.

Usage, from the root of the repository:

    python3 perfbench/make_reference.py

Runs every workload once at the default seed through `stagwave run` and
stores its traces, every STRIDE-th sample. Regenerate only when a change to
the scheme's numbers is intended; the gate exists to catch the other kind.
"""

from __future__ import annotations

import shutil
import sys

import numpy as np
import yaml

import gate
from run import SRC, WORK
from workloads import DEFAULT_SEED, WORKLOADS, make_config

STRIDE = 5


def main() -> int:
    sys.path.insert(0, str(SRC))
    from stagwave import cli

    arrays = {}
    for name in WORKLOADS:
        config = make_config(name, DEFAULT_SEED)
        work = WORK / "reference" / name
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        (work / "config.yaml").write_text(yaml.safe_dump(config, sort_keys=False))
        code = cli.main(["run", str(work / "config.yaml"), "--out", str(work / "out")])
        if code != 0:
            print(f"{name}: stagwave run exited with {code}", file=sys.stderr)
            return 1
        traces = gate.read_seismograms(work / "out", len(config["receivers"]))
        arrays[name] = traces[:, ::STRIDE]
        print(f"{name}: {traces.shape[0]} traces of {traces.shape[1]} samples")
    np.savez_compressed(gate.REFERENCE, stride=STRIDE, **arrays)
    return 0


if __name__ == "__main__":
    sys.exit(main())
