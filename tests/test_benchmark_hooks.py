"""The benchmark's tracer hooks stagwave functions by name; a refactor that
renames one would only show up as an `absent` hook in a traced benchmark run.
This test reads the hook table from perfbench/tracing.py without changing it
and checks that every target still exists."""

import runpy
from pathlib import Path

import stagwave.cli  # noqa: F401 - loads every module the hooks name

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_benchmark_hook_target_is_callable():
    tracing = runpy.run_path(str(TRACING))
    missing = []
    for _, path, kind in tracing["HOOKS"]:
        owner, _, target = tracing["_lookup"](path)
        if not callable(target) or (kind == "method" and not isinstance(owner, type)):
            missing.append(path)
    assert tracing["HOOKS"]
    assert missing == []
