"""Seeded inputs and command lists for the four benchmark workloads.

BENCHMARK.json lists committee-budget and axiom-lab; wide-arena and
mass-election run the same way by hand (README.md says why).

Every workload is a list of `Command`s built from one `random.Random(seed)`
before any timing.  Generated ballot and proposal files are written under
the run's work directory and passed to the CLI by path, as a user would.
Each command also carries the structured form of its input (`expect`), so
the oracle can recompute the answer without parsing the CLI's own files.

Why each workload exists is in `WHY` (also in BENCHMARK.json); sizes are
part of each workload's definition, and the repetition pattern of each
cycle is chosen so that the median command falls inside one size class
and the tail inside the heaviest one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WHY = {
    "committee-budget": "budget on m=4-6 committee elections; maximal_set "
    "enumeration dominates (ROADMAP item 2)",
    "mass-election": "maximal-lottery on 2001 voters with 12% distinct ballots; "
    "parse and utilitarian dominate (item 3)",
    "wide-arena": "maximal-lottery on m=24-32 with 11 distinct voters; the exact "
    "simplex dominates (item 4, item 3 bypass)",
    "axiom-lab": "check-axioms and audit-domain over thousands of tiny cached "
    "profiles; axioms and ssb dominate (items 3, 5)",
}

# Per cycle: one command per entry, in this order.  A run repeats whole
# cycles.  The committee cycle holds more lighter commands than m=6 ones,
# so its median falls inside m=5, and six m=6 commands, so from two cycles
# on the tail (the 11th slowest command) falls inside m=6.  The mass cycle
# holds eleven m=12 commands, so its tail falls inside m=12 from one cycle.
COMMITTEE_CYCLE = ("table1", 4) + (5, 6) * 6 + (5,)
MASS_CYCLE = (10,) + (12,) * 11
WIDE_CYCLE = (24, 28, 28, 28, 32)
# Cycles generated per run; a run ends when they run out.  Enough for a
# program several times faster than this one, except in axiom-lab, whose
# tail stays inside utilitarian-2 only with two to four cycles.
CYCLES = {"committee-budget": 16, "mass-election": 8, "wide-arena": 40, "axiom-lab": 4}


@dataclass
class Command:
    """One CLI invocation plus what the oracle needs to judge it."""

    label: str
    argv: list[str]
    kind: str  # "budget", "table1", "lottery" or "axioms"
    expect: dict = field(default_factory=dict)
    m: int = 0
    n: int = 0
    distinct: int = 0
    bytes_in: int = 0


def names(m: int) -> list[str]:
    return [f"c{i}" for i in range(m)]


# ---------------------------------------------------------------------------
# ballots: structured form (for the oracle) and text form (for the CLI)
#
# ("order", tiers)   tiers: tuple of tuples of alternative indices, best first
# ("approve", set)   frozenset of approved indices
# ("util", values)   tuple of Fractions, one per alternative
# ("edges", pairs)   tuple of (a, b): a strictly above b


def random_weak_order(rng: random.Random, m: int, tie_p: float = 0.3):
    order = list(range(m))
    rng.shuffle(order)
    tiers, tier = [], [order[0]]
    for a in order[1:]:
        if rng.random() < tie_p:
            tier.append(a)
        else:
            tiers.append(tuple(sorted(tier)))
            tier = [a]
    tiers.append(tuple(sorted(tier)))
    return ("order", tuple(tiers))


def random_approval(rng: random.Random, m: int):
    k = rng.randint(1, m - 1)
    return ("approve", frozenset(rng.sample(range(m), k)))


def random_utility(rng: random.Random, m: int):
    return ("util", tuple(Fraction(rng.randint(0, 40), rng.randint(1, 9))
                          for _ in range(m)))


def random_edges(rng: random.Random, m: int, density: float = 0.5):
    pairs = []
    for a in range(m):
        for b in range(a + 1, m):
            if rng.random() < density:
                pairs.append((a, b) if rng.random() < 0.5 else (b, a))
    return ("edges", tuple(pairs))


def ballot_text(ballot, alts: list[str]) -> str:
    kind, data = ballot
    if kind == "order":
        return " > ".join(" = ".join(alts[a] for a in tier) for tier in data)
    if kind == "approve":
        return "approve {" + ", ".join(alts[a] for a in sorted(data)) + "}"
    if kind == "util":
        return "util " + ", ".join(f"{alts[a]}={v}" for a, v in enumerate(data))
    return "edges " + ", ".join(f"{alts[a]}>{alts[b]}" for a, b in data)


def ballots_file(groups, alts: list[str]) -> str:
    lines = ["universe: " + ", ".join(alts)]
    lines += [f"{count}: {ballot_text(ballot, alts)}" for count, ballot in groups]
    return "\n".join(lines) + "\n"


def composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """`parts` positive integers summing to `total`."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _write(path: Path, text: str) -> int:
    path.write_text(text, encoding="utf-8")
    return len(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# workloads


def committee_budget(rng: random.Random, work: Path) -> list[Command]:
    table1 = Command(
        "budget table1",
        ["budget", "fixtures/table1.ballots", "fixtures/table1.proposals"],
        "table1", m=4, n=100, distinct=4,
    )
    table1.bytes_in = sum(len(Path(p).read_bytes()) for p in table1.argv[1:])
    commands = []
    for cycle in range(CYCLES["committee-budget"]):
        for slot, size in enumerate(COMMITTEE_CYCLE):
            if size == "table1":
                commands.append(table1)
                continue
            m, alts = size, names(size)
            factions = [
                random_approval(rng, m) if rng.random() < 0.25
                else random_weak_order(rng, m)
                for _ in range(12)
            ]
            groups = list(zip(composition(rng, 101, 12), factions))
            departments = [f"dept{i}" for i in range(rng.randint(3, 5))]
            columns = []
            for _ in range(m):
                weights = [rng.randint(1, 9) for _ in departments]
                columns.append([Fraction(w, sum(weights)) for w in weights])
            shares = [[columns[j][i] for j in range(m)] for i in range(len(departments))]
            proposals = "alternatives: " + ", ".join(alts) + "\n" + "".join(
                f"{dept}: " + " ".join(str(x) for x in row) + "\n"
                for dept, row in zip(departments, shares)
            )
            stem = work / f"cb-{cycle}-{slot}"
            size_in = _write(stem.with_suffix(".ballots"), ballots_file(groups, alts))
            size_in += _write(stem.with_suffix(".proposals"), proposals)
            commands.append(Command(
                f"budget m={m}",
                ["budget", str(stem.with_suffix(".ballots")),
                 str(stem.with_suffix(".proposals"))],
                "budget",
                {"m": m, "groups": groups, "departments": departments,
                 "shares": shares},
                m=m, n=101, distinct=len(set(factions)), bytes_in=size_in,
            ))
    return commands


def mass_election(rng: random.Random, work: Path) -> list[Command]:
    commands = []
    for cycle in range(CYCLES["mass-election"]):
        for slot, m in enumerate(MASS_CYCLE):
            alts = names(m)
            seen, factions, singles = set(), [], []
            while len(factions) < 40:
                ballot = random_weak_order(rng, m)
                if ballot not in seen:
                    seen.add(ballot)
                    factions.append(ballot)
            while len(singles) < 201:
                ballot = random_weak_order(rng, m, tie_p=0.15)
                if ballot not in seen:
                    seen.add(ballot)
                    singles.append(ballot)
            # each faction's voters arrive as 1-3 separate groups, shuffled in
            groups = [(1, b) for b in singles]
            for count, ballot in zip(composition(rng, 1800, 40), factions):
                pieces = min(count, rng.randint(1, 3))
                groups += [(c, ballot) for c in composition(rng, count, pieces)] \
                    if pieces > 1 else [(count, ballot)]
            rng.shuffle(groups)
            path = work / f"me-{cycle}-{slot}.ballots"
            size_in = _write(path, ballots_file(groups, alts))
            commands.append(Command(
                f"maximal-lottery m={m}",
                ["maximal-lottery", "--json", str(path)],
                "lottery", {"m": m, "groups": groups},
                m=m, n=2001, distinct=len(seen), bytes_in=size_in,
            ))
    return commands


def wide_arena(rng: random.Random, work: Path) -> list[Command]:
    commands = []
    for cycle in range(CYCLES["wide-arena"]):
        for slot, m in enumerate(WIDE_CYCLE):
            alts = names(m)
            ballots = [random_utility(rng, m) for _ in range(5)]
            ballots += [random_edges(rng, m) for _ in range(6)]
            groups = [(1, b) for b in ballots]
            path = work / f"wa-{cycle}-{slot}.ballots"
            size_in = _write(path, ballots_file(groups, alts))
            commands.append(Command(
                f"maximal-lottery m={m}",
                ["maximal-lottery", "--json", str(path)],
                "lottery", {"m": m, "groups": groups},
                m=m, n=11, distinct=len(set(ballots)), bytes_in=size_in,
            ))
    return commands


# Expected verdicts, from the paper's results rather than from the program:
# pairwise utilitarianism and approval satisfy IIA, anonymity and Pareto;
# the dictatorial rule fails anonymity and strict Pareto; summing
# rescaled vNM utilities fails IIA on the intensity-flip profiles.  The
# three closed-world domains at m=4 satisfy every richness condition the
# CLI audits for them.
_RULE_PASSES = ("PASS IIA over", "PASS anonymity over", "PASS Pareto optimality over")
_DOMAIN_PASSES = ("PASS R1 ", "PASS R2 ", "PASS R3 ", "PASS R4 ",
                  "PASS pairwise-comparison inclusion")
AXIOM_COMMANDS = {
    "utilitarian-2": (["check-axioms", "--swf", "pairwise-utilitarian", "--agents", "2"],
                      _RULE_PASSES),
    "utilitarian-3": (["check-axioms", "--swf", "pairwise-utilitarian", "--agents", "3"],
                      _RULE_PASSES),
    "approval": (["check-axioms", "--swf", "approval"],
                 ("PASS IIA exhaustive over", "PASS Pareto optimality")),
    "dictatorial": (["check-axioms", "--swf", "dictatorial"],
                    ("PASS IIA over", "FAIL anonymity over", "FAIL Pareto optimality over")),
    "relative-utilitarian": (["check-axioms", "--swf", "relative-utilitarian"],
                             ("FAIL IIA on the intensity-flip fixture",)),
    "pc": (["audit-domain", "--domain", "pc", "--alternatives", "4"], _DOMAIN_PASSES),
    "pc-transitive": (["audit-domain", "--domain", "pc-transitive", "--alternatives", "4"],
                      _DOMAIN_PASSES),
    "dichotomous": (["audit-domain", "--domain", "dichotomous", "--alternatives", "4"],
                    ("PASS R1 ", "PASS R2 ", "PASS R3 ", "PASS R5 ",
                     "PASS pairwise-comparison inclusion")),
}
# Five commands are faster and two slower than utilitarian-2, so seven
# copies of it (each with its own CLI seed) hold the median, away from
# the faster neighbours, and, with two to four cycles, the tail; from five
# cycles on the tail would move up to utilitarian-3.
AXIOM_CYCLE = ("utilitarian-2", "utilitarian-3", "utilitarian-2", "approval",
               "utilitarian-2", "dictatorial", "utilitarian-2", "relative-utilitarian",
               "utilitarian-2", "pc", "utilitarian-2", "pc-transitive",
               "utilitarian-2", "dichotomous")


def axiom_lab(rng: random.Random, work: Path) -> list[Command]:
    commands = []
    for _ in range(CYCLES["axiom-lab"]):
        for key in AXIOM_CYCLE:
            argv, lines = AXIOM_COMMANDS[key]
            code = 1 if any(line.startswith("FAIL") for line in lines) else 0
            commands.append(Command(
                f"{argv[0]} {key}",
                argv + ["--seed", str(rng.randrange(10**6))],
                "axioms", {"exit": code, "lines": lines},
                m=4 if argv[0] == "audit-domain" else 3,
            ))
    return commands


# Commands a run adds at a time: whole cycles where the shape of a cycle
# matters, single commands in wide-arena, whose sizes overlap in time so
# that any number of commands gives a smooth median.
STEP = {
    "committee-budget": len(COMMITTEE_CYCLE),
    "mass-election": len(MASS_CYCLE),
    "wide-arena": 1,
    "axiom-lab": len(AXIOM_CYCLE),
}

BUILDERS = {
    "committee-budget": committee_budget,
    "mass-election": mass_election,
    "wide-arena": wide_arena,
    "axiom-lab": axiom_lab,
}


def build(workload: str, seed: int, work: Path) -> list[Command]:
    work.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](random.Random(f"{workload}/{seed}"), work)
