"""In-memory spans around the public functions of each stagwave layer.

Hooks are installed from outside the program: each target function is
replaced, in every loaded stagwave module that holds it, by a wrapper that
records a span (name, start, end, parent) and counts the call. A layer's self
time is its span duration minus the time its child spans cover. Targets that
a refactor removed are listed in `absent` instead of failing the run.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

_perf = time.perf_counter


def replace_everywhere(original, replacement) -> None:
    """Rebind every stagwave module attribute that is `original`, so the
    replacement also takes effect where a module imported the name."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "stagwave" or name.startswith("stagwave.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _lookup(path: str):
    """(owner, attribute name, object) for 'module:attr' or 'module:Class.attr'."""
    module_name, _, qual = path.partition(":")
    owner = sys.modules.get(module_name)
    parts = qual.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    target = getattr(owner, parts[-1], None) if owner is not None else None
    return owner, parts[-1], target


class Tracer:
    """Spans and per-name aggregates for one process."""

    def __init__(self):
        self.enabled = True
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.feasible = 0
        self.absent: list[str] = []
        self._stack: list[list] = []   # [span index, start, child time]

    def wrap(self, name: str, fn):
        """A callable that runs `fn` inside a span called `name`."""
        span_id = self._ids.setdefault(name, len(self._ids))
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), _perf(), 0.0]
            spans.append(None)
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                duration = end - frame[1]
                spans[frame[0]] = (span_id, frame[1], end, parent)
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration

        return traced

    def hook_function(self, name: str, path: str, wrap_result: bool = False) -> None:
        """Span every call of a module-level function.

        With `wrap_result`, the function is a factory: the callables it
        returns (alone or in a tuple) are spanned instead of the call itself.
        """
        _, _, original = _lookup(path)
        if not callable(original):
            self.absent.append(path)
            return
        if wrap_result:
            def factory(*args, **kwargs):
                made = original(*args, **kwargs)
                if isinstance(made, tuple):
                    return tuple(self.wrap(name, f) for f in made)
                return self.wrap(name, made)
            replacement = factory
        else:
            replacement = self.wrap(name, original)
        replace_everywhere(original, replacement)

    def hook_method(self, name: str, path: str) -> None:
        """Span every call of a class attribute ('module:Class.method')."""
        owner, attr, original = _lookup(path)
        if not isinstance(owner, type) or not callable(original):
            self.absent.append(path)
            return
        setattr(owner, attr, self.wrap(name, original))

    def count_feasible(self, path: str) -> None:
        """Count calls of `path` that return something other than None."""
        _, _, original = _lookup(path)
        if not callable(original):
            self.absent.append(path)
            return

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            if self.enabled and result is not None:
                self.feasible += 1
            return result

        replace_everywhere(original, counted)

    def dump(self) -> dict:
        """Spans as columns, ready for JSON."""
        return {"names": list(self._ids),
                "columns": ["name", "start", "end", "parent"],
                "spans": self.spans}


# (span name, target, kind). Kinds: "fn" spans a module function, "method" a
# class attribute, "factory" the callables a function returns, "feasible"
# counts non-None results (wrapped before its span so both apply).
HOOKS = [
    ("cli.run", "stagwave.cli:cmd_run", "fn"),
    ("config.parse", "stagwave.config:parse_config", "fn"),
    ("config.build_run", "stagwave.config:build_run", "fn"),
    ("grids.build", "stagwave.grids:build_block_2d", "fn"),
    ("grids.build", "stagwave.grids:build_layout", "fn"),
    ("media.sample", "stagwave.media:sample_coefficients", "fn"),
    ("transfer.pair", "stagwave.transfer:transfer_pair_for", "fn"),
    ("transfer.derive", "stagwave.transfer:derive_elemental_pair", "fn"),
    ("transfer.solve", "stagwave.exact:solve_min_norm", "feasible"),
    ("transfer.solve", "stagwave.exact:solve_min_norm", "fn"),
    ("transfer.tile", "stagwave.transfer:tile_periodic", "fn"),
    ("assembly.build", "stagwave.assembly:assemble_interface_system", "fn"),
    ("assembly.build", "stagwave.assembly:assemble_single_block_system", "fn"),
    ("assembly.interface", "stagwave.assembly:interface_sat_terms", "factory"),
    ("assembly.free_surface", "stagwave.assembly:free_surface_velocity_sats", "factory"),
    ("assembly.pressure_rates", "stagwave.assembly:SemiDiscreteSystem.pressure_rates",
     "method"),
    ("assembly.velocity_rates", "stagwave.assembly:SemiDiscreteSystem.velocity_rates",
     "method"),
    ("assembly.energy", "stagwave.assembly:SemiDiscreteSystem.energy", "method"),
    ("sbp1d.apply", "stagwave.sbp1d:SbpOperatorSet1D.apply_d_p", "method"),
    ("sbp1d.apply", "stagwave.sbp1d:SbpOperatorSet1D.apply_d_v", "method"),
    ("sbp1d.apply", "stagwave.sbp1d:PeriodicOperatorSet1D.apply_d_p", "method"),
    ("sbp1d.apply", "stagwave.sbp1d:PeriodicOperatorSet1D.apply_d_v", "method"),
    ("leapfrog.source", "stagwave.leapfrog:SourceSpec.value", "method"),
    ("leapfrog.step", "stagwave.leapfrog:step_forward", "fn"),
    ("leapfrog.run", "stagwave.leapfrog:run", "fn"),
]


def install(tracer: Tracer) -> None:
    for name, path, kind in HOOKS:
        if kind == "method":
            tracer.hook_method(name, path)
        elif kind == "feasible":
            tracer.count_feasible(path)
        else:
            tracer.hook_function(name, path, wrap_result=kind == "factory")


def layer_metrics(tracer: Tracer, n_steps: int) -> dict[str, float]:
    """Per-layer figures: set-up layers in seconds per run, stepping layers
    in microseconds (self or total, as named) and calls per time step."""
    total, self_t, calls = tracer.total, tracer.self_time, tracer.calls
    per_step_us = 1e6 / n_steps
    solves = calls.get("transfer.solve", 0)
    energy_calls = calls.get("assembly.energy", 0)
    return {
        "config.parse_s": total.get("config.parse", 0.0),
        "grids.build_s": total.get("grids.build", 0.0),
        "media.sample_s": total.get("media.sample", 0.0),
        "transfer.derive_s": total.get("transfer.derive", 0.0),
        "transfer.derive_solves": float(solves),
        "transfer.derive_feasible_ratio": tracer.feasible / solves if solves else 0.0,
        "transfer.tile_s": total.get("transfer.tile", 0.0),
        "assembly.build_s": self_t.get("assembly.build", 0.0),
        "sbp1d.apply_us": total.get("sbp1d.apply", 0.0) * per_step_us,
        "sbp1d.calls": calls.get("sbp1d.apply", 0) / n_steps,
        "assembly.pressure_rates_us": self_t.get("assembly.pressure_rates", 0.0) * per_step_us,
        "assembly.velocity_rates_us": self_t.get("assembly.velocity_rates", 0.0) * per_step_us,
        "assembly.interface_us": total.get("assembly.interface", 0.0) * per_step_us,
        "assembly.interface_calls": calls.get("assembly.interface", 0) / n_steps,
        "assembly.free_surface_us": total.get("assembly.free_surface", 0.0) * per_step_us,
        "assembly.free_surface_calls": calls.get("assembly.free_surface", 0) / n_steps,
        "assembly.energy_us": (total.get("assembly.energy", 0.0) * 1e6 / energy_calls
                               if energy_calls else 0.0),
        "leapfrog.source_us": total.get("leapfrog.source", 0.0) * per_step_us,
        "leapfrog.source_calls": calls.get("leapfrog.source", 0) / n_steps,
        "leapfrog.step_self_us": self_t.get("leapfrog.step", 0.0) * per_step_us,
        "leapfrog.run_self_us": self_t.get("leapfrog.run", 0.0) * per_step_us,
        "cli.write_s": self_t.get("cli.run", 0.0),
        "trace.spans": float(len(tracer.spans)),
    }
