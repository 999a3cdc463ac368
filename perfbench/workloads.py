"""Benchmark workloads: run configs generated from a seed.

Each workload is a `stagwave run` config. The seed only moves the source and
the receivers between grid points, so every seed costs the same work. Points
are placed by grid index and written as short decimals, which the config
parser reads exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction

DEFAULT_SEED = 1


def _coord(index: int, dx: str, origin: str = "0") -> float:
    return float(Fraction(origin) + index * Fraction(dx))


def _shot_2to1(rng: random.Random) -> dict:
    # configs/two_layer_2to1.yaml at full length, one shot and one receiver
    # a few rows below the surface at y = 0.96 (top block dx = 0.008).
    return {
        "layout": {"x_left": 0.0, "width": 0.96, "y_bottom": 0.0,
                   "top": {"columns": 120, "dx": 0.008, "height": 0.48},
                   "bottom": {"columns": 60, "dx": 0.016, "height": 0.48}},
        "medium": {"kind": "two_layer_constant", "split_y": 0.48,
                   "top": {"rho": 0.5, "c": 1.0}, "bottom": {"rho": 1.0, "c": 2.0}},
        "time": {"dt": 0.0012, "n_steps": 5000},
        "sources": [{"x": _coord(rng.randint(3, 30), "0.008"),
                     "y": _coord(120 - rng.randint(3, 8), "0.008"),
                     "wavelet": "ricker", "f0": 5.0, "t0": 0.25, "amplitude": 1.0}],
        "receivers": [{"x": _coord(rng.randint(90, 117), "0.008"),
                       "y": _coord(120 - rng.randint(3, 8), "0.008")}],
        "outputs": {"seismogram": True, "energy": True},
        "seed": 1,
    }


def _survey_6to5(rng: random.Random) -> dict:
    # configs/smooth_gradient_6to5.yaml refined 4x in x and y, with dt scaled
    # by the same factor (same Courant number). The source sits 8-12 fine
    # rows above the interface at y = 0.768 and fires at once, so the wave
    # crosses the interface in the first third of the run. A line of 60
    # receivers spans the width 30-34 rows above the interface, where the
    # wave arrives within the run (the surface is 96 rows up, too far for
    # 300 steps).
    offset = rng.randint(0, 7)
    row = rng.randint(30, 34)
    return {
        "layout": {"x_left": 0.0, "width": 0.96, "y_bottom": 0.0,
                   "top": {"columns": 480, "dx": 0.002, "height": 0.192},
                   "bottom": {"columns": 400, "dx": 0.0024, "height": 0.768}},
        "medium": {"kind": "vertical_linear", "y_bottom": 0.0, "y_top": 0.96,
                   "rho_bottom": 1.0, "rho_top": 0.5, "c_bottom": 2.0, "c_top": 1.0},
        "time": {"dt": 0.0003, "n_steps": 300},
        "sources": [{"x": _coord(rng.randint(0, 479), "0.002"),
                     "y": _coord(rng.randint(8, 12), "0.002", "0.768"),
                     "wavelet": "ricker", "f0": 25.0, "t0": 0.04, "amplitude": 1.0}],
        "receivers": [{"x": _coord(offset + 8 * j, "0.002"),
                       "y": _coord(row, "0.002", "0.768")} for j in range(60)],
        "outputs": {"seismogram": True, "energy": True, "snapshot": True},
        "seed": 1,
    }


def _derived_7to6(rng: random.Random) -> dict:
    # 7:6 has no tabulated transfer pair, so set-up derives one by exact
    # constrained solves, which costs more than the 400 steps.
    return {
        "layout": {"x_left": 0.0, "width": 0.84, "y_bottom": 0.0,
                   "top": {"columns": 140, "dx": 0.006, "height": 0.24},
                   "bottom": {"columns": 120, "dx": 0.007, "height": 0.56}},
        "medium": {"kind": "vertical_linear", "y_bottom": 0.0, "y_top": 0.8,
                   "rho_bottom": 1.0, "rho_top": 0.5, "c_bottom": 2.0, "c_top": 1.0},
        "time": {"dt": 0.0012, "n_steps": 400},
        "sources": [{"x": _coord(rng.randint(3, 30), "0.006"),
                     "y": _coord(40 - rng.randint(3, 8), "0.006", "0.56"),
                     "wavelet": "ricker", "f0": 20.0, "t0": 0.05, "amplitude": 1.0}],
        "receivers": [{"x": _coord(rng.randint(40, 135), "0.006"),
                       "y": _coord(40 - rng.randint(2, 6), "0.006", "0.56")}
                      for _ in range(3)],
        "outputs": {"seismogram": True, "energy": True},
        "seed": 1,
    }


WORKLOADS = {
    "shot_2to1": _shot_2to1,
    "survey_6to5": _survey_6to5,
    "derived_7to6": _derived_7to6,
}


def make_config(name: str, seed: int) -> dict:
    """The run config of workload `name` for `seed` (same seed, same config)."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
