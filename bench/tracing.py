"""Spans around every call into a layer's public functions, from outside.

`install()` replaces module attributes of an imported ssbchoice with
timing wrappers; no program file changes.  A call is wrapped where one
layer calls another (for example `ssbchoice.cli.utilitarian` or
`ssbchoice.aggregate.normalize`), so calls inside one layer stay
unwrapped.  `SSBMatrix.__post_init__` is wrapped on the class, as
`ssb.validate`, because every layer constructs matrices.

Each span records its op id, its own id, its parent's id, a name and
start/end times.  Aggregates (calls, inclusive and self time, counters)
are exact; raw spans are kept in memory up to `SPAN_CAP` per process and
written when the command ends.  A layer's self time is its spans'
durations minus the time covered by their child spans; the time hooks
spend computing counters is excluded from every span.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

SPAN_CAP = 2_000

_CLI_RENDER = ("render_matrix", "format_fraction", "format_percent", "fraction_pair")
_AXIOMS_PUBLIC = (
    "check_iia", "exhaustive_iia", "check_anonymity", "check_pareto",
    "audit_richness", "pc_inclusion_check", "profiles_over", "weak_orders",
    "dichotomous_relations", "random_pc_profile", "unanimity_case",
    "intensity_flip_fixture", "pc_domain", "pc_transitive_domain",
    "dichotomous_domain", "pairwise_utilitarian_swf", "approval_swf",
    "relative_utilitarian_swf", "dictatorial_swf", "constant_swf",
)
_SSB_PUBLIC = (
    "to_matrix", "normalize", "restrict", "evaluate", "compare", "pc_extension",
    "separable", "is_pc", "is_dichotomous", "approved_set", "cycle_witness",
)
_AGGREGATE_PUBLIC = (
    "utilitarian", "approval_aggregate", "relative_utilitarian_vnm", "pareto_relation",
)


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _parse_ballots_hook(c, args, kwargs, result):
    c["ballots.bytes_in"] += len(args[0].encode("utf-8"))
    c["ballots.agents"] += result.n


def _parse_proposals_hook(c, args, kwargs, result):
    c["ballots.bytes_in"] += len(args[0].encode("utf-8"))


def _utilitarian_hook(c, args, kwargs, result):
    agents = args[0].agents
    c["aggregate.agents"] += len(agents)
    c["aggregate.distinct"] += len(set(agents))


def _maximal_lottery_hook(c, args, kwargs, result):
    probs = result.lottery.probs
    c["solver.lotteries"] += 1
    c["solver.support_total"] += sum(1 for x in probs if x)
    c["solver.lottery_bits"] = max(c["solver.lottery_bits"], max(map(_bits, probs)))


def _maximal_set_hook(c, args, kwargs, result):
    phi = args[0]
    names = args[1] if len(args) > 1 else kwargs.get("names")
    c["solver.enum_patterns"] += 3 ** len(phi.universe.subset(names))
    c["solver.enum_vertices"] += len(result[0])


def _exhaustive_iia_hook(c, args, kwargs, result):
    c["axioms.iia_checks"] += result.checked
    c["axioms.iia_vacuous"] += result.vacuous


HOOKS = {
    "ballots.parse_ballots": _parse_ballots_hook,
    "ballots.parse_proposals": _parse_proposals_hook,
    "aggregate.utilitarian": _utilitarian_hook,
    "solver.maximal_lottery": _maximal_lottery_hook,
    "solver.maximal_set": _maximal_set_hook,
    "axioms.exhaustive_iia": _exhaustive_iia_hook,
}


def wrap_points():
    """(module, attribute, span name) for every cross-layer call site."""
    points = [("ssbchoice.cli", "main", "cli.main")]
    for attr in ("parse_ballots", "parse_proposals", "budget_allocation"):
        points.append(("ssbchoice.cli", attr, f"ballots.{attr}"))
    points += [("ssbchoice.cli", attr, "ballots.render") for attr in _CLI_RENDER]
    points += [
        ("ssbchoice.cli", "utilitarian", "aggregate.utilitarian"),
        ("ssbchoice.cli", "maximal_lottery", "solver.maximal_lottery"),
        ("ssbchoice.cli", "maximal_set", "solver.maximal_set"),
        ("ssbchoice.cli", "evaluate", "ssb.evaluate"),
        ("ssbchoice.cli", "cycle_witness", "ssb.cycle_witness"),
    ]
    points += [("ssbchoice.axioms", a, f"axioms.{a}") for a in _AXIOMS_PUBLIC]
    for module in ("ssbchoice.aggregate", "ssbchoice.solver", "ssbchoice.axioms"):
        mod = importlib.import_module(module)
        points += [(module, a, f"ssb.{a}") for a in _SSB_PUBLIC if hasattr(mod, a)]
    points += [("ssbchoice.axioms", a, f"aggregate.{a}") for a in _AGGREGATE_PUBLIC]
    return points


class Tracer:
    """In-memory spans and per-name aggregates for one command."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.names: list[str] = []
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.dropped = 0
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_id = 0

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        stat = self.stats.setdefault(name, [0, 0, 0])
        hook = HOOKS.get(name)
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, 0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat[0] += 1
                stat[1] += end - start
                stat[2] += end - start - frame[1]
                if parent is not None:
                    parent[1] += end - start
                if len(spans) < SPAN_CAP:
                    spans.append((frame[0], parent[0] if parent else 0, index, start, end))
                else:
                    self.dropped += 1
            if hook is not None:
                hook(self.counters, args, kwargs, result)
                if parent is not None:
                    parent[1] += clock() - end
            return result

        return traced

    def install(self) -> None:
        for module, attr, name in wrap_points():
            mod = importlib.import_module(module)
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
        ssb = importlib.import_module("ssbchoice.ssb")
        ssb.SSBMatrix.__post_init__ = self.wrap("ssb.validate", ssb.SSBMatrix.__post_init__)

    def summary(self) -> dict:
        return {
            "stats": {name: stat for name, stat in self.stats.items() if stat[0]},
            "counters": self.counters,
            "spans": len(self.spans) + self.dropped,
            "dropped": self.dropped,
        }

    def write(self, path) -> None:
        """Raw spans as JSON lines: a header, then [id, parent, name, start, end]."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"op": self.op_id, "dropped": self.dropped}) + "\n")
            for span_id, parent, index, start, end in self.spans:
                out.write(json.dumps([span_id, parent, self.names[index], start, end]) + "\n")
