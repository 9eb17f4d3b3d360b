"""Run one ssbchoice CLI command in this fresh interpreter and report on it.

Usage: python3 bench/child.py '<json spec>'   (PYTHONPATH must reach src/)

The spec holds "argv", "op" (the command's id), "trace" (bool) and
"spans" (where a traced command writes its raw spans).  The program is
imported before anything else, so the time to the READY stamp is what a
CLI user pays on every command: interpreter start plus `import
ssbchoice.cli`.  The command itself is timed around `main(argv)`, with
its stdout captured.  So that run.py can scale that time to a reference
machine speed, the process also times `yardstick()`, a fixed loop of the
benchmark's own: in full right before and right after the command, and
as a short slice on a timer signal every SAMPLE_EVERY_S while it runs.
The slices' time is taken out of the command's time.  One JSON object
goes to the real stdout.
"""

import time

import ssbchoice.cli

READY_NS = time.monotonic_ns()

import contextlib  # noqa: E402  (after the timed import on purpose)
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

YARD_ROUNDS = 6000  # a full yardstick: about 15-30 ms
SAMPLE_ROUNDS = 300  # a slice taken while the command runs: about 1 ms
SAMPLE_EVERY_S = 0.04


def yardstick(rounds: int) -> int:
    """Fixed pure-Python work like the program's own: Fractions, tuples, a dict."""
    total, table = Fraction(0), {}
    for i in range(1, rounds + 1):
        total += Fraction(i % 13, i % 11 + 1)
        table[i % 101, i % 7] = total.numerator % 97
    return len(table)


def timed_yardstick(rounds: int) -> int:
    start = time.perf_counter_ns()
    yardstick(rounds)
    return time.perf_counter_ns() - start


def run(spec: dict) -> dict:
    yard_before = timed_yardstick(YARD_ROUNDS)
    slices: list[int] = []
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer(spec["op"])
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    signal.signal(signal.SIGALRM, lambda *_: slices.append(timed_yardstick(SAMPLE_ROUNDS)))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        start = time.perf_counter_ns()
        try:
            code = ssbchoice.cli.main(spec["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # reported as a failed command, not raised
            error = repr(exc)
        op_ns = time.perf_counter_ns() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    yard_after = timed_yardstick(YARD_ROUNDS)
    result = {
        "ready_ns": READY_NS,
        "op_ns": op_ns - sum(slices),
        "code": code,
        "error": error,
        "stdout": out.getvalue(),
        "stderr": err.getvalue()[-2000:],
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        # every timing as if of a full yardstick: before, after, then the slices
        "yard_ms": [yard_before / 1e6, yard_after / 1e6] +
                   [ns / 1e6 * YARD_ROUNDS / SAMPLE_ROUNDS for ns in slices],
        "slices_ms": sum(slices) / 1e6,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write(spec["spans"])
    return result


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    sys.stdout.write(json.dumps({"ready_ns": READY_NS} if spec.get("warmup") else run(spec)))
