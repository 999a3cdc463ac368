"""Run configuration: YAML schema, one reader of it, and system construction.

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

`parse_config` reads one YAML file. `validate_config`, the only reader of the
raw mapping, checks every value, then builds the grid blocks and loads the
medium, all before the system is assembled or anything is written, and returns
one `RunSpec`. A bool is never a number, and an output switch must be a bool.
The integer seed is copied into the written config and changes nothing; a run
is deterministic given the config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .assembly import SemiDiscreteSystem, assemble_interface_system
from .errors import ConfigError
from .exact import to_fraction
from .grids import StaggeredBlock2D, build_block_2d
from .leapfrog import ReceiverSpec, SourceSpec, TimeGrid
from .media import (ConstantMedium, Medium, TwoLayerMedium, VerticalLinearMedium,
                    load_gridded_model)

_MEDIUM_KINDS = ("constant", "two_layer_constant", "vertical_linear", "gridded")
_OUTPUTS = {"seismogram": True, "energy": True, "snapshot": False}
_NUMBER = (int, float)


@dataclass(frozen=True)
class RunSpec:
    """A run config, read and checked: its grid blocks and medium built, and
    its raw mapping kept for the written copy."""

    blocks: tuple[StaggeredBlock2D, ...]   # bottom first
    medium: Medium
    time_grid: TimeGrid
    sources: tuple[tuple, ...]             # (x, y, f0, t0, amplitude)
    receivers: tuple[tuple, ...]           # (x, y)
    outputs: dict[str, bool]
    raw: dict = field(repr=False, compare=False)

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.raw, sort_keys=True)


def _get(mapping, key, where, types, default=None, positive=False):
    """mapping[key], checked to be one of `types` (a bool only where bool is
    named, a float only when finite) and, if `positive`, > 0; a missing key
    takes `default`, and without one it is an error."""
    if key not in mapping:
        if default is None:
            raise ConfigError(f"{where}: missing key {key!r}")
        return default
    value = mapping[key]
    if (not isinstance(value, types) or (isinstance(value, bool) and bool not in types)
            or (isinstance(value, float) and not math.isfinite(value))):
        names = " or ".join(t.__name__ for t in types)
        raise ConfigError(f"{where}.{key}: expected {names}, got {value!r}")
    if positive and not value > 0:
        raise ConfigError(f"{where}.{key}: must be positive, got {value!r}")
    return value


def parse_config(path) -> RunSpec:
    """Read one YAML config file and validate it."""
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"not valid YAML: {exc}") from exc
    return validate_config(raw)


def _read_blocks(raw: dict) -> tuple[tuple, ...]:
    """The `build_block_2d` arguments of each block, bottom first."""
    layout = _get(raw, "layout", "config", (dict,))
    x_left = to_fraction(_get(layout, "x_left", "layout", _NUMBER, 0))
    width = to_fraction(_get(layout, "width", "layout", _NUMBER, positive=True))
    y_low = to_fraction(_get(layout, "y_bottom", "layout", _NUMBER, 0))
    names = ("bottom", "top") if layout.get("bottom") is not None else ("top",)
    boxes, spacings = [], []
    for name in names:
        cfg, where = _get(layout, name, "layout", (dict,)), f"layout.{name}"
        cols = _get(cfg, "columns", where, (int,))
        dx = to_fraction(_get(cfg, "dx", where, _NUMBER, positive=True))
        height = to_fraction(_get(cfg, "height", where, _NUMBER, positive=True))
        if cols < 4:
            raise ConfigError(f"{where}.columns: need at least 4, got {cols}")
        if dx * cols != width:
            raise ConfigError(f"{where}: block width (columns*dx) must equal layout.width")
        if (height / dx).denominator != 1:
            raise ConfigError(f"{where}.height must be a whole multiple of its dx")
        boxes.append((x_left, width, cols, y_low, y_low + height, int(height / dx) + 1))
        spacings.append(dx)
        y_low += height
    if spacings[0] < spacings[-1]:
        raise ConfigError("layout.bottom must be the coarse side (dx >= top dx)")
    return tuple(boxes)


def _read_medium(raw: dict) -> Medium:
    """The medium, made once all of its values are checked."""
    medium = _get(raw, "medium", "config", (dict,))
    kind = _get(medium, "kind", "medium", (str,))

    def num(key, cfg=medium, where="medium", positive=True):
        return float(_get(cfg, key, where, _NUMBER, positive=positive))

    if kind == "constant":
        return ConstantMedium(rho=num("rho"), c=num("c"))
    if kind == "two_layer_constant":
        top, bottom = (_get(medium, side, "medium", (dict,)) for side in ("top", "bottom"))
        return TwoLayerMedium(split_y=num("split_y", positive=False),
                              rho_top=num("rho", top, "medium.top"),
                              c_top=num("c", top, "medium.top"),
                              rho_bottom=num("rho", bottom, "medium.bottom"),
                              c_bottom=num("c", bottom, "medium.bottom"))
    if kind == "vertical_linear":
        y_bottom, y_top = num("y_bottom", positive=False), num("y_top", positive=False)
        if y_bottom == y_top:
            raise ConfigError("medium.y_top: must differ from medium.y_bottom")
        return VerticalLinearMedium(y_bottom=y_bottom, y_top=y_top,
                                    **{key: num(key) for key in ("rho_bottom", "rho_top",
                                                                 "c_bottom", "c_top")})
    if kind == "gridded":
        files = [_get(medium, key, "medium", (str,)) for key in ("rho_file", "c_file")]
        for key, path in zip(("rho_file", "c_file"), files):
            if not Path(path).is_file():
                raise FileNotFoundError(f"medium.{key}: no such file {path!r}")
        origin = dict(enumerate(_get(medium, "origin", "medium", (list,), [0.0, 0.0])))
        if len(origin) != 2:
            raise ConfigError("medium.origin: expected [x, y]")
        dtype = _get(medium, "dtype", "medium", (str,), "float32")
        if dtype not in ("float32", "float64"):
            raise ConfigError("medium.dtype: float32 or float64")
        return load_gridded_model(
            *files, rows=_get(medium, "rows", "medium", (int,), positive=True),
            cols=_get(medium, "cols", "medium", (int,), positive=True),
            spacing=num("spacing"), dtype=dtype,
            origin=tuple(num(i, origin, "medium.origin", False) for i in (0, 1)))
    raise ConfigError(f"medium.kind: unknown kind {kind!r}; one of {_MEDIUM_KINDS}")


def validate_config(raw) -> RunSpec:
    """Check every value of a run config, then load its medium and build its
    blocks. A bad value raises ConfigError, a missing model file
    FileNotFoundError, and a model or block the library rejects its error."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    boxes = _read_blocks(raw)

    time_cfg = _get(raw, "time", "config", (dict,))
    dt = _get(time_cfg, "dt", "time", _NUMBER, positive=True)
    n_steps = _get(time_cfg, "n_steps", "time", (int,), positive=True)

    points = {"sources": [], "receivers": []}
    for name, parsed in points.items():
        entries = _get(raw, name, "config", (list,))
        if not entries:
            raise ConfigError(f"{name}: need at least one entry")
        for i, entry in enumerate(entries):
            where = f"{name}[{i}]"
            if not isinstance(entry, dict):
                raise ConfigError(f"{where}: expected a mapping")
            point = (_get(entry, "x", where, _NUMBER), _get(entry, "y", where, _NUMBER))
            if name == "sources":
                if _get(entry, "wavelet", where, (str,), "ricker") != "ricker":
                    raise ConfigError(f"{where}.wavelet: only 'ricker' is available")
                point += (float(_get(entry, "f0", where, _NUMBER, positive=True)),
                          float(_get(entry, "t0", where, _NUMBER, 0.0)),
                          float(_get(entry, "amplitude", where, _NUMBER, 1.0)))
            parsed.append(point)

    outputs = _get(raw, "outputs", "config", (dict,), {})
    for key in outputs:
        if key not in _OUTPUTS:
            raise ConfigError(f"outputs.{key}: unknown output switch")
    outputs = {key: _get(outputs, key, "outputs", (bool,), default)
               for key, default in _OUTPUTS.items()}
    _get(raw, "seed", "config", (int,), 0)   # only copied into the written config
    medium = _read_medium(raw)
    return RunSpec(blocks=tuple(build_block_2d(*box) for box in boxes), medium=medium,
                   time_grid=TimeGrid(dt=float(dt), n_steps=n_steps),
                   sources=tuple(points["sources"]), receivers=tuple(points["receivers"]),
                   outputs=outputs, raw=raw)


@dataclass
class BuiltRun:
    """What building a run adds to its spec."""

    system: SemiDiscreteSystem
    sources: list[SourceSpec]
    receivers: list[ReceiverSpec]


def build_run(spec: RunSpec) -> BuiltRun:
    """Assemble the system of a run spec and locate its sources and receivers."""
    system = assemble_interface_system(spec.blocks, spec.medium)
    sources = [SourceSpec(system.locate_pressure_point(x, y), f0=f0, t0=t0, amplitude=a)
               for x, y, f0, t0, a in spec.sources]
    receivers = [ReceiverSpec(system.locate_pressure_point(x, y)) for x, y in spec.receivers]
    return BuiltRun(system=system, sources=sources, receivers=receivers)
