"""Run configuration: YAML schema, validation, and system construction.

A run config is a single YAML document:

    layout:
      x_left: 0.0
      width: 0.96
      top:    {columns: 120, dx: 0.008, height: 0.48}
      bottom: {columns: 60,  dx: 0.016, height: 0.48}   # optional
      y_bottom: 0.0
    medium:
      kind: two_layer_constant        # constant | two_layer_constant |
      top:    {rho: 0.5, c: 1.0}      # vertical_linear | gridded
      bottom: {rho: 1.0, c: 2.0}
    time: {dt: 0.0012, n_steps: 5000}
    sources:
      - {x: 0.04, y: 0.92, wavelet: ricker, f0: 5.0, t0: 0.25, amplitude: 1.0}
    receivers:
      - {x: 0.92, y: 0.92}
    outputs: {seismogram: true, energy: true, snapshot: false}
    seed: 1234

All cross-references are resolved before any computation; validation failures
raise ConfigError and produce no output files. Everything is deterministic
given the config (the seed covers randomized verification helpers only).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .assembly import SemiDiscreteSystem, assemble_interface_system, \
    assemble_single_block_system
from .errors import ConfigError
from .exact import to_fraction
from .grids import build_block_2d, build_layout
from .leapfrog import ReceiverSpec, SourceSpec, TimeGrid
from .media import (ConstantMedium, TwoLayerMedium, VerticalLinearMedium,
                    load_gridded_model)

_MEDIUM_KINDS = ("constant", "two_layer_constant", "vertical_linear", "gridded")


@dataclass(frozen=True)
class RunConfig:
    """Validated, normalized run description (raw dict retained for output)."""

    raw: dict = field(repr=False)

    @property
    def seed(self) -> int:
        return int(self.raw.get("seed", 0))

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.raw, sort_keys=True)


def _require(mapping, key, where, types=None):
    if key not in mapping:
        raise ConfigError(f"{where}: missing key {key!r}")
    value = mapping[key]
    if types is not None and not isinstance(value, types):
        raise ConfigError(f"{where}.{key}: expected {types}, got {type(value).__name__}")
    return value


def _positive(value, where):
    if not isinstance(value, (int, float)) or not value > 0:
        raise ConfigError(f"{where}: must be a positive number, got {value!r}")
    return value


def _block_cfg(cfg, where):
    cols = _require(cfg, "columns", where, int)
    dx = _positive(_require(cfg, "dx", where), f"{where}.dx")
    height = _positive(_require(cfg, "height", where), f"{where}.height")
    if cols < 4:
        raise ConfigError(f"{where}.columns: need at least 4, got {cols}")
    return cols, dx, height


def parse_config(source) -> RunConfig:
    """Parse and validate a YAML config from a path, file object, or string."""
    if isinstance(source, (str, Path)) and "\n" not in str(source):
        text = Path(source).read_text()
    elif hasattr(source, "read"):
        text = source.read()
    else:
        text = str(source)
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    validate_config(raw)
    return RunConfig(raw=raw)


def _block_names(layout: dict) -> tuple[str, ...]:
    """The layout's blocks, bottom first: a bottom block is optional."""
    return ("bottom", "top") if layout.get("bottom") is not None else ("top",)


def validate_config(raw: dict) -> None:
    layout = _require(raw, "layout", "config", dict)
    width = to_fraction(_positive(_require(layout, "width", "layout"), "layout.width"))
    spacings = []
    for name in _block_names(layout):
        cols, dx, _ = _block_cfg(_require(layout, name, "layout", dict), f"layout.{name}")
        if to_fraction(dx) * cols != width:
            raise ConfigError(f"layout.{name}: block width (columns*dx) must equal "
                              "layout.width")
        spacings.append(to_fraction(dx))
    if spacings[0] < spacings[-1]:
        raise ConfigError("layout.bottom must be the coarse side (dx >= top dx)")

    medium = _require(raw, "medium", "config", dict)
    kind = _require(medium, "kind", "medium", str)
    if kind not in _MEDIUM_KINDS:
        raise ConfigError(f"medium.kind: unknown kind {kind!r}; one of {_MEDIUM_KINDS}")
    if kind == "constant":
        _positive(_require(medium, "rho", "medium"), "medium.rho")
        _positive(_require(medium, "c", "medium"), "medium.c")
    elif kind == "two_layer_constant":
        _require(medium, "split_y", "medium")
        for side in ("top", "bottom"):
            s = _require(medium, side, "medium", dict)
            _positive(_require(s, "rho", f"medium.{side}"), f"medium.{side}.rho")
            _positive(_require(s, "c", f"medium.{side}"), f"medium.{side}.c")
    elif kind == "vertical_linear":
        _require(medium, "y_bottom", "medium")
        _require(medium, "y_top", "medium")
        for key in ("rho_top", "rho_bottom", "c_top", "c_bottom"):
            _positive(_require(medium, key, "medium"), f"medium.{key}")
    elif kind == "gridded":
        for key in ("rho_file", "c_file"):
            path = _require(medium, key, "medium", str)
            if not Path(path).is_file():
                raise FileNotFoundError(f"medium.{key}: no such file {path!r}")
        _require(medium, "rows", "medium", int)
        _require(medium, "cols", "medium", int)
        _positive(_require(medium, "spacing", "medium"), "medium.spacing")
        if medium.get("dtype", "float32") not in ("float32", "float64"):
            raise ConfigError("medium.dtype: float32 or float64")

    time_cfg = _require(raw, "time", "config", dict)
    _positive(_require(time_cfg, "dt", "time"), "time.dt")
    n_steps = _require(time_cfg, "n_steps", "time", int)
    if n_steps < 1:
        raise ConfigError("time.n_steps: must be at least 1")

    for name, required in (("sources", True), ("receivers", True)):
        entries = _require(raw, name, "config", list)
        if required and not entries:
            raise ConfigError(f"{name}: need at least one entry")
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise ConfigError(f"{name}[{i}]: expected a mapping")
            _require(entry, "x", f"{name}[{i}]")
            _require(entry, "y", f"{name}[{i}]")
            if name == "sources":
                _positive(_require(entry, "f0", f"sources[{i}]"), f"sources[{i}].f0")
                if entry.get("wavelet", "ricker") != "ricker":
                    raise ConfigError(f"sources[{i}].wavelet: only 'ricker' is available")

    outputs = raw.get("outputs", {})
    if not isinstance(outputs, dict):
        raise ConfigError("outputs: expected a mapping")
    for key in outputs:
        if key not in ("seismogram", "energy", "snapshot"):
            raise ConfigError(f"outputs.{key}: unknown output switch")
    if "seed" in raw and not isinstance(raw["seed"], int):
        raise ConfigError("seed: must be an integer")


@dataclass
class BuiltRun:
    system: SemiDiscreteSystem
    time_grid: TimeGrid
    sources: list[SourceSpec]
    receivers: list[ReceiverSpec]
    outputs: dict


def build_run(config: RunConfig) -> BuiltRun:
    """Construct the system and instrumentation described by a config."""
    raw = copy.deepcopy(config.raw)
    layout_cfg = raw["layout"]
    x_left = to_fraction(layout_cfg.get("x_left", 0))
    width = to_fraction(layout_cfg["width"])
    y_low = to_fraction(layout_cfg.get("y_bottom", 0))

    medium = _build_medium(raw["medium"])

    blocks = []
    for name in _block_names(layout_cfg):
        cfg = layout_cfg[name]
        dx, height = to_fraction(cfg["dx"]), to_fraction(cfg["height"])
        if (height / dx).denominator != 1:
            raise ConfigError(f"layout.{name}.height must be a whole multiple of its dx")
        blocks.append(build_block_2d(x_left, width, cfg["columns"], y_low, y_low + height,
                                     int(height / dx) + 1))
        y_low += height
    if len(blocks) == 2:
        system = assemble_interface_system(build_layout(blocks[1], blocks[0]), medium)
    else:
        system = assemble_single_block_system(blocks[0], medium)

    time_cfg = raw["time"]
    time_grid = TimeGrid(dt=float(time_cfg["dt"]), n_steps=int(time_cfg["n_steps"]))
    sources = [
        SourceSpec(*system.locate_pressure_point(s["x"], s["y"]), f0=float(s["f0"]),
                   t0=float(s.get("t0", 0.0)), amplitude=float(s.get("amplitude", 1.0)))
        for s in raw["sources"]
    ]
    receivers = [ReceiverSpec(*system.locate_pressure_point(r["x"], r["y"]))
                 for r in raw["receivers"]]
    outputs = {"seismogram": True, "energy": True, "snapshot": False}
    outputs.update(raw.get("outputs", {}))
    return BuiltRun(system=system, time_grid=time_grid, sources=sources,
                    receivers=receivers, outputs=outputs)


def _build_medium(cfg: dict):
    kind = cfg["kind"]
    if kind == "constant":
        return ConstantMedium(rho=float(cfg["rho"]), c=float(cfg["c"]))
    if kind == "two_layer_constant":
        split = cfg.get("split_y")
        if split is None:
            raise ConfigError("medium.split_y required for two_layer_constant")
        return TwoLayerMedium(split_y=float(split),
                              rho_top=float(cfg["top"]["rho"]), c_top=float(cfg["top"]["c"]),
                              rho_bottom=float(cfg["bottom"]["rho"]),
                              c_bottom=float(cfg["bottom"]["c"]))
    if kind == "vertical_linear":
        if "y_bottom" not in cfg or "y_top" not in cfg:
            raise ConfigError("medium.y_bottom and medium.y_top required")
        return VerticalLinearMedium(
            y_bottom=float(cfg["y_bottom"]), y_top=float(cfg["y_top"]),
            rho_bottom=float(cfg["rho_bottom"]), rho_top=float(cfg["rho_top"]),
            c_bottom=float(cfg["c_bottom"]), c_top=float(cfg["c_top"]))
    if kind == "gridded":
        return load_gridded_model(
            cfg["rho_file"], cfg["c_file"], rows=int(cfg["rows"]), cols=int(cfg["cols"]),
            spacing=float(cfg["spacing"]),
            origin=tuple(cfg.get("origin", (0.0, 0.0))),
            dtype=cfg.get("dtype", "float32"))
    raise ConfigError(f"unknown medium kind {kind!r}")
