"""Every wrap point of the benchmark's tracer names an attribute that exists.

`bench/tracing.py` replaces each `(module, attribute)` of `wrap_points()`
with a timing wrapper via `getattr`, and `SSBMatrix.__post_init__` on the
class; a program change that drops one of those names breaks every
traced benchmark run, so the whole `install()` is run here too.  The
tracer is read and executed here from its source text, so no bytecode is
written next to it.
"""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

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


# Runs one command plain, then with the whole tracer installed (every wrap
# point plus the `SSBMatrix.__post_init__` span), and prints both outputs
# and the traced span counts as JSON.
INSTALL_CHILD = r"""
import contextlib, io, json, sys, types
path, argv = sys.argv[1], sys.argv[2:]
tracing = types.ModuleType("bench_tracing")
tracing.__file__ = path
with open(path, encoding="utf-8") as source:
    exec(compile(source.read(), path, "exec"), tracing.__dict__)
import ssbchoice.cli as cli
runs = []
for traced in (False, True):
    if traced:
        tracer = tracing.Tracer(0)
        tracer.install()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    runs.append([code, out.getvalue()])
calls = {name: stat[0] for name, stat in tracer.summary()["stats"].items()}
print(json.dumps({"runs": runs, "calls": calls}))
"""


@pytest.mark.parametrize("argv, head, spans", [
    (["budget", "fixtures/table1.ballots", "fixtures/table1.proposals"],
     "Maximal lottery:\n", ["ssb.validate", "solver.maximal_lottery"]),
    (["check-axioms", "--swf", "pairwise-utilitarian", "--agents", "2", "--samples", "20"],
     "Axiom checks for pairwise-utilitarian (seed 0):\n  PASS IIA over 169^2",
     ["axioms.weak_orders", "axioms.profiles_over", "axioms.check_anonymity",
      "axioms.unanimity_case", "axioms.exhaustive_iia"]),
], ids=["budget", "check-axioms"])
def test_the_installed_tracer_runs_a_command(argv, head, spans):
    root = TRACING.parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-B", "-c", INSTALL_CHILD, str(TRACING), *argv],
                          capture_output=True, text=True, cwd=root, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    (plain_code, plain_out), (traced_code, traced_out) = result["runs"]
    assert plain_code == traced_code == 0
    assert traced_out == plain_out and plain_out.startswith(head)
    assert all(result["calls"].get(span, 0) >= 1 for span in spans), result["calls"]
