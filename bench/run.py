"""ssbchoice benchmark: seeded CLI workloads, checked by an exact oracle.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is this file's parent directory.
Load is a closed loop with one client: each CLI command runs in a fresh
`python3 bench/child.py` process, started only after the previous one has
ended.  Inputs are generated from the seed before the loop and written
under `.bench_work/`.  Commands run in steps (whole cycles of the
workload's command pattern, or single commands in wide-arena), at least
one step, while the next step would likely end within S seconds.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 every command runs twice, untraced then traced, and the last
line holds the per-layer metrics plus the tracing overhead.  The line
before it is a report with input properties, every command's timing and
stdout sha256, the tail percentile used, and (traced) layer shares.

Every time is scaled to a reference machine speed.  The shared host this
was tuned on changes speed by up to 2x in phases from under a second to
minutes long, so raw times measure the host as much as the program.
Each child times a fixed loop of the benchmark's own (child.yardstick)
before, after and, in short slices, during its command; a command's
time, and its traced span times, are multiplied by REF_YARD_MS over the
mean of those timings, and its set-up time by REF_YARD_MS over the
first, which is the nearest to it.  The report keeps the raw times
beside the scaled ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import workloads

ROOT = Path(__file__).resolve().parent.parent
CHILD_TIMEOUT_S = 60
TAIL_BEYOND = 10  # the tail percentile leaves at least this many commands above it
# Yardstick time at the reference speed: its time in the fast phase of
# the 2-core host this was tuned on, so scaled times read as ms there.
REF_YARD_MS = 15.0

# per-layer time metrics: metric name -> span name (self time, ms per command)
SPAN_METRICS = {
    "cli.self_ms": "cli.main",
    "ballots.parse_ballots_ms": "ballots.parse_ballots",
    "ballots.parse_proposals_ms": "ballots.parse_proposals",
    "ballots.budget_allocation_ms": "ballots.budget_allocation",
    "ballots.render_ms": "ballots.render",
    "aggregate.utilitarian_ms": "aggregate.utilitarian",
    "ssb.to_matrix_ms": "ssb.to_matrix",
    "ssb.normalize_ms": "ssb.normalize",
    "ssb.restrict_ms": "ssb.restrict",
    "ssb.evaluate_ms": "ssb.evaluate",
    "ssb.validate_ms": "ssb.validate",
    "solver.maximal_set_ms": "solver.maximal_set",
    "solver.maximal_lottery_ms": "solver.maximal_lottery",
    "axioms.exhaustive_iia_ms": "axioms.exhaustive_iia",
    "axioms.audit_richness_ms": "axioms.audit_richness",
    "axioms.check_anonymity_ms": "axioms.check_anonymity",
    "axioms.check_pareto_ms": "axioms.check_pareto",
    "axioms.pc_inclusion_ms": "axioms.pc_inclusion_check",
}
LAYERS = ("ballots", "aggregate", "ssb", "solver", "axioms")


class Unrunnable(Exception):
    """The checkout lacks the program or its fixtures; no result is printed."""


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # identical stdout, hence sha256, across runs
    return env


def spawn(spec: dict, env: dict) -> dict:
    """One child process, waited for; adds its set-up time in ns."""
    spawn_ns = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), json.dumps(spec)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr[-1000:]}")
    result = json.loads(proc.stdout)
    result["setup_ns"] = result["ready_ns"] - spawn_ns
    return result


def run_command(command, op: int, traced: bool, env: dict, work: Path) -> dict:
    spec = {"argv": command.argv, "op": op, "trace": traced,
            "spans": str(work / f"spans-{op}.jsonl")}
    record = {"op": op, "label": command.label, "traced": traced}
    try:
        result = spawn(spec, env)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        record.update(ok=False, errors=[f"child failed: {exc}"])
        return record
    errors = [f"exception: {result['error']}"] if result["error"] else \
        oracle.check(command, result["code"], result["stdout"])
    yard_ms = result["yard_ms"]
    scale = REF_YARD_MS / statistics.mean(yard_ms)
    record.update(
        ok=not errors,
        errors=errors[:3],
        code=result["code"],
        op_ms=result["op_ns"] / 1e6 * scale,
        setup_s=result["setup_ns"] / 1e9 * REF_YARD_MS / yard_ms[0],
        raw_op_ms=result["op_ns"] / 1e6,
        raw_setup_s=result["setup_ns"] / 1e9,
        yard_ms=yard_ms,
        slices_ms=result["slices_ms"],
        rss_mib=result["maxrss_kib"] / 1024,
        sha256=hashlib.sha256(result["stdout"].encode("utf-8")).hexdigest(),
    )
    if traced:
        trace = result["trace"]
        for stat in trace["stats"].values():  # [calls, total_ns, self_ns]
            stat[1:] = [ns * scale for ns in stat[1:]]
        record["trace"] = trace
    return record


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND values above it, and which one."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(records: list[dict]) -> tuple[dict, dict]:
    timed = [r for r in records if "op_ms" in r]
    ok = [r for r in timed if r["ok"]]
    times = [r["op_ms"] for r in timed]
    tail_ms, tail_pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in timed), "s"),
        "op_ms_p50": (statistics.median(times), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "ops_per_s": (len(ok) / (sum(times) / 1000), "1/s"),
        "success_frac": ((len(records) - sum(not r["ok"] for r in records)) / len(records),
                         "ratio"),
        "peak_rss_mib": (max(r["rss_mib"] for r in timed), "MiB"),
    }
    return metrics, {"tail_percentile": tail_pct, "tail_commands": len(times)}


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    runs = [r["trace"] for r in traced if "trace" in r]
    n = max(len(runs), 1)

    def stat(name: str, field: int) -> int:
        return sum(t["stats"].get(name, [0, 0, 0])[field] for t in runs)

    def counter(name: str) -> int:
        return sum(t["counters"].get(name, 0) for t in runs)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    names = {name for t in runs for name in t["stats"]}
    metrics = {m: (stat(span, 2) / 1e6 / n, "ms") for m, span in SPAN_METRICS.items()}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (
            sum(stat(s, 2) for s in names if s.startswith(layer + ".")) / 1e6 / n, "ms")
    agents = counter("aggregate.agents")
    patterns = counter("solver.enum_patterns")
    checks = counter("axioms.iia_checks")
    metrics.update({
        "ballots.bytes_in": (counter("ballots.bytes_in") / n, "count"),
        "ballots.agents": (counter("ballots.agents") / n, "count"),
        "aggregate.agents_per_s": (
            ratio(agents, stat("aggregate.utilitarian", 1) / 1e9), "1/s"),
        "aggregate.distinct_ratio": (ratio(counter("aggregate.distinct"), agents), "ratio"),
        "ssb.calls": (sum(stat(s, 0) for s in names if s.startswith("ssb.")) / n, "count"),
        "solver.enum_patterns": (patterns / n, "count"),
        "solver.enum_yield": (ratio(counter("solver.enum_vertices"), patterns), "ratio"),
        "solver.support_size": (
            ratio(counter("solver.support_total"), counter("solver.lotteries")), "count"),
        "solver.lottery_bits": (
            max((t["counters"].get("solver.lottery_bits", 0) for t in runs), default=0),
            "bits"),
        "axioms.iia_checks": (checks / n, "count"),
        "axioms.iia_vacuous_ratio": (ratio(counter("axioms.iia_vacuous"), checks), "ratio"),
        "trace.spans": (sum(t["spans"] for t in runs) / n, "count"),
    })
    plain_p50 = statistics.median(r["op_ms"] for r in plain if "op_ms" in r)
    traced_p50 = statistics.median(r["op_ms"] for r in traced if "op_ms" in r)
    metrics["trace.overhead_ms"] = (traced_p50 - plain_p50, "ms")
    metrics["trace.overhead_frac"] = ((traced_p50 - plain_p50) / plain_p50, "ratio")
    layer_ms = {"cli": metrics["cli.self_ms"][0]}
    layer_ms.update({layer: metrics[f"{layer}.self_ms"][0] for layer in LAYERS})
    total = sum(layer_ms.values())
    spans = {name: {"calls": stat(name, 0) / n, "total_ms": stat(name, 1) / 1e6 / n,
                    "self_ms": stat(name, 2) / 1e6 / n} for name in sorted(names)}
    details = {
        "layer_self_share": {k: ratio(v, total) for k, v in layer_ms.items()},
        "spans_per_command": spans,
        "spans_dropped": sum(t["dropped"] for t in runs),
        "untraced_op_ms_p50": plain_p50,
        "traced_op_ms_p50": traced_p50,
    }
    return metrics, details


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    if not (ROOT / "src" / "ssbchoice" / "cli.py").is_file() or \
            not (ROOT / "fixtures" / "table1.ballots").is_file():
        raise Unrunnable(f"no ssbchoice sources or fixtures under {ROOT}")
    os.chdir(ROOT)
    work = Path(".bench_work") / f"{workload}-s{seed}-t{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    commands = workloads.build(workload, seed, work)
    step = workloads.STEP[workload]
    env = child_env()
    spawn({"warmup": True}, env)  # compiles bytecode; not part of any metric

    records: list[dict] = []
    traced: list[dict] = []
    done = 0
    start = time.monotonic()
    while done + step <= len(commands):
        elapsed = time.monotonic() - start
        if done and elapsed * (done + step) / done > seconds:
            break  # the next step would likely end after the deadline
        for op in range(done, done + step):
            records.append(run_command(commands[op], op, False, env, work))
            if trace:
                traced.append(run_command(commands[op], op, True, env, work))
        done += step
    wall = time.monotonic() - start

    if trace:
        metrics, details = per_layer(records, traced)
    else:
        metrics, details = end_to_end(records)
    all_records = records + traced
    for record in traced:
        record.pop("trace", None)  # aggregated into details
    run = commands[:done]
    agents = sum(c.n for c in run)
    report = {
        "workload": workload,
        "why": workloads.WHY[workload],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "wall_s": wall,
        "commands_run": done,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit_id(),
        "inputs": {
            "m": sorted({c.m for c in run}),
            "n": sorted({c.n for c in run}),
            "distinct_ratio": sum(c.distinct for c in run) / agents if agents else None,
            "bytes_in": sum(c.bytes_in for c in run),
        },
        **details,
        "commands": all_records,
    }
    failed = sum(not r["ok"] for r in all_records)
    result = {
        "correct": failed == 0,
        "attempted": len(all_records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except Unrunnable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
