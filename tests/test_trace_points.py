"""Every wrap point of the benchmark's tracer names an attribute that exists.

`bench/tracing.py` replaces each `(module, attribute)` of `wrap_points()`
with a timing wrapper via `getattr`; a program change that drops one of
those names breaks every traced benchmark run.  The tracer is read and
executed here from its source text, so no bytecode is written next to it.
"""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         module.__dict__)
    return module


def test_every_wrap_point_resolves():
    points = _load_tracing().wrap_points()
    assert points
    missing = [(module, attr) for module, attr, _ in points
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
