"""Command-line entry points.

Exit status: 0 on success (or every requested check passing), 1 when a
check or audit reports FAIL, 2 on malformed input, 3 on a defect in the
program, never in the input: an exact internal check that fails, or any
other unexpected exception, reported as one `internal error:` line.
"""

from __future__ import annotations

import errno
import gc
import math
import os
import random
import stat
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import axioms
from .aggregate import utilitarian
from .ballots import (  # budget_allocation and format_percent: names bench/tracing.py wraps
    MAX_INPUT_BYTES,
    ParseError,
    allocation_ratios,
    budget_allocation,
    format_fraction,
    format_percent,
    format_ratio,
    fraction_pair,
    parse_ballots,
    parse_matrices,
    parse_proposals,
    ratio_pair,
    ratio_percent,
    render_matrix,
)
from .model import Universe
from .solver import SolverDefect, maximal_lottery, maximal_set, unique_optimum
from .ssb import cycle_witness, evaluate

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_DEFECT = 3

# audit-domain's largest job: members times the restriction sets that R4
# and R5 audit.  The largest generated domain, pc at m=5, needs
# 59 049 x 30 = 1 771 470.
AUDIT_WORK_LIMIT = 2_000_000

# 5 utility and 6 edge ballots took up to 7.5 s to solve at 48, 17 s at 64
MAX_SOLVE_ALTERNATIVES = 48
# cycle-witness compares all pairs of m + C(m, 2) * sum_{d=2..D} phi(d) lotteries
MAX_GRID_LOTTERIES = 1500
# check-axioms work grows linearly in --samples, and in --agents only above 6:
# up to 6 agents the anonymity check relabels each profile all n! ways, so 6 is
# the slowest count within the limit.  At m=6 and 500 samples, 6 agents took
# 8.9-9.3 s and 37 MiB, 50 agents 2.6-2.8 s and 54 MiB; 2000 agents at m=3
# took 60 s when the limit was chosen
MAX_AXIOM_AGENTS = 50
MAX_AXIOM_SAMPLES = 500
# the IIA sweep compares every pair of its pool: larger pools are sampled to this
MAX_AXIOM_POOL = 400


class _Option(NamedTuple):
    """One `--flag value` option of a subcommand, as argparse is given it."""

    flag: str
    type: Callable[[str], object] = str
    default: object = None
    choices: tuple[str, ...] | None = None
    metavar: str | None = None
    help: str | None = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


_SEED = _Option("--seed", int, 0, metavar="S",
                help="seed for sampled checks (recorded in reports)")
_MAX_ENUM = _Option("--max-enum", int, 0, metavar="M", help=(
    "also list the maximal set's vertices when there are at most M "
    "alternatives (exponential; 0..10, default 0: never)"))

# Every subcommand's arguments, in help order: name -> (help, positionals,
# options).  Every subcommand also takes the switch --json.
_ARGUMENTS = {
    "aggregate": ("print the collective matrix of a ballot file", ("ballots",), ()),
    "maximal-lottery": ("solve for a collectively maximal lottery", ("ballots",),
                        (_MAX_ENUM,)),
    "budget": ("maximal lottery mapped through a proposal matrix",
               ("ballots", "proposals"), (_MAX_ENUM,)),
    "check-axioms": ("run axiom checks against an aggregation rule", (), (
        _SEED,
        _Option("--swf", default="pairwise-utilitarian",
                choices=("pairwise-utilitarian", "approval", "relative-utilitarian",
                         "dictatorial", "constant")),
        _Option("--alternatives", int, 3, metavar="M"),
        _Option("--agents", int, 2, metavar="N"),
        _Option("--samples", int, 200, metavar="K"),
    )),
    "audit-domain": ("audit richness conditions of a preference domain", (), (
        _SEED,
        _Option("--domain", default="pc",
                choices=("pc", "pc-transitive", "dichotomous")),
        _Option("--alternatives", int, 4, metavar="M"),
        _Option("--file", help="matrix file defining the domain members"),
        _Option("--conditions", help="comma-separated subset of R1,R2,R3,R4,R5"),
        _Option("--member-limit", int, 2000,
                help="exhaustive below this domain size, sampled above"),
    )),
    "cycle-witness": ("search grid lotteries for a collective preference cycle",
                      ("ballots",), (_Option("--max-denominator", int, 5),)),
}


def _read_canonical(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would return for argv, or None to leave argv to it.

    Reads only the subcommand as the first token followed by its own exact
    flags with their values, --json and its positionals in order.  Anything
    else (help, an abbreviated flag, --flag=value, a token or value starting
    with "-", a failed int() or choice, a wrong positional count) is left to
    argparse, which accepts or rejects it with its own texts.
    """
    if not argv or argv[0] not in _ARGUMENTS:
        return None
    _, positionals, options = _ARGUMENTS[argv[0]]
    flags = {o.flag: o for o in options}
    values = {"command": argv[0], "json": False, **{o.dest: o.default for o in options}}
    given = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            given.append(token)
        elif token == "--json":
            values["json"] = True
        elif token in flags:
            option = flags[token]
            text = next(tokens, "-")  # a flag with no value left declines too
            if text.startswith("-"):
                return None
            try:
                value = option.type(text)
            except ValueError:
                return None
            if option.choices is not None and value not in option.choices:
                return None
            values[option.dest] = value
        else:
            return None
    if len(given) != len(positionals):
        return None
    values.update(zip(positionals, given))
    return SimpleNamespace(**values)


def _build_parser():
    """The argparse parser, built from `_ARGUMENTS`, for what `_read_canonical`
    leaves to it: help, usage and errors."""
    import argparse  # here, so a command line _read_canonical reads never loads it

    parser = argparse.ArgumentParser(
        prog="ssbchoice",
        description="Exact social choice: pairwise aggregation, maximal "
        "lotteries, budget mapping, and axiom audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, positionals, options) in _ARGUMENTS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        for o in options:
            p.add_argument(o.flag, type=o.type, default=o.default, choices=o.choices,
                           metavar=o.metavar, help=o.help)
        for dest in positionals:
            p.add_argument(dest)
    return parser


def _check_range(flag: str, value: int, lo: int, hi: int | None = None) -> None:
    """Reject a size flag outside [lo, hi] before anything is enumerated."""
    if value < lo or (hi is not None and value > hi):
        bound = f"at least {lo}" if hi is None else f"between {lo} and {hi}"
        raise ValueError(f"{flag} must be {bound}, got {value}")


def _read(path: str) -> str:
    """An input file's UTF-8 text without a leading byte-order mark; a file
    of more than `MAX_INPUT_BYTES` is refused.

    The file is read with `os.read`, through no file object.  A file whose
    size is known is refused before a byte is read.  A pipe or device
    reports size 0, so it is read on to one byte past the bound; asking for
    size + 1 bytes first spares a small file a bound-sized buffer.  The
    bytes are decoded in one call, with no newline translation:
    `splitlines` ends a line at CR LF and at a lone CR as at LF.  The mark
    is dropped by hand: decoding as "utf-8-sig" would import that codec on
    the first read, 0.3-1 ms on a shared 2-core host.  Only a path that
    fails to open is opened again as a `Path`, which names it as `open`
    does ("" as ".", "a//b" as "a/b") and reads "file/" as "file": a
    `Path` for every file cost a budget command about 5% in a fresh
    process.  `os.open` opens a directory, which is refused under the name
    a `Path` gives it, with the error `open` raises.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        fd = os.open(str(Path(path)), os.O_RDONLY)
    try:
        info = os.fstat(fd)
        if stat.S_ISDIR(info.st_mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(Path(path)))
        size = info.st_size
        if size <= MAX_INPUT_BYTES:
            # os.read may return fewer bytes than asked, so read on to the
            # end; past size + 1 bytes, to one byte past the bound
            chunks = []
            size, want = 0, size + 1
            while size <= MAX_INPUT_BYTES and (chunk := os.read(fd, want - size)):
                chunks.append(chunk)
                size += len(chunk)
                if size == want:
                    want = MAX_INPUT_BYTES + 1
            data = b"".join(chunks)
    finally:
        os.close(fd)
    if size > MAX_INPUT_BYTES:
        raise ValueError(f"{path} has more than {MAX_INPUT_BYTES} bytes, the most "
                         "an input file may hold")
    return data.decode("utf-8").removeprefix("\ufeff")


def _load_profile(path: str):
    return parse_ballots(_read(path))


def _grid_size(m: int, max_denominator: int, limit: int) -> int:
    """len(lottery_grid) on m alternatives, or a count above limit."""
    size = m
    for d in range(2, max_denominator + 1):
        if size > limit or m < 2:
            break
        size += math.comb(m, 2) * sum(math.gcd(k, d) == 1 for k in range(1, d))
    return size


def _print_json(payload) -> None:
    """Print a `--json` report as one line; `json` is loaded for it alone."""
    import json
    print(json.dumps(payload))


def _lottery_json(lottery):
    d, nums = lottery.scaled
    return {name: ratio_pair(x, d) for name, x in zip(lottery.universe.names, nums)}


def _lottery_lines(lottery, indent="  ") -> list[str]:
    d, nums = lottery.scaled
    return [f"{indent}{name}: {format_ratio(x, d)} ({ratio_percent(x, d)}%)"
            for name, x in zip(lottery.universe.names, nums)]


# The report commands below build their whole text, formatting included,
# before one print, so an error leaves stdout empty.


def _cmd_aggregate(args) -> int:
    profile = _load_profile(args.ballots)
    matrix = utilitarian(profile)
    agents = format_fraction(profile.n)  # a count over the digit limit is refused here
    if args.json:
        _print_json({
            "alternatives": list(matrix.universe.names),
            "matrix": [[fraction_pair(x) for x in row] for row in matrix.entries],
            "agents": profile.n,
        })
    else:
        noun = "agent" if profile.n == 1 else "agents"
        print(f"Collective matrix ({agents} {noun}, sum of normalized "
              f"agent matrices):\n{render_matrix(matrix)}", end="")
    return EXIT_OK


def _cmd_solve(args) -> int:
    """`maximal-lottery`; `budget` is the same report plus the lottery's allocation."""
    _check_range("--max-enum", args.max_enum, 0, 10)
    profile = _load_profile(args.ballots)
    budget = args.command == "budget"
    if budget:
        proposals = parse_proposals(_read(args.proposals))
    m = len(profile.universe)
    if m > MAX_SOLVE_ALTERNATIVES:
        raise ValueError(f"{args.ballots} has {m} alternatives; "
                         f"solving commands accept at most {MAX_SOLVE_ALTERNATIVES}")
    matrix = utilitarian(profile)
    certificate = maximal_lottery(matrix)
    unique = unique_optimum(matrix, certificate)
    face = None
    if m <= args.max_enum:
        face, enumerated = maximal_set(matrix, max_enum=args.max_enum)
        if enumerated != unique:
            raise SolverDefect(f"uniqueness test says {unique}, "
                               f"the enumerated maximal set says {enumerated}")
    if budget:
        allocation = tuple(zip(proposals.departments,
                               allocation_ratios(proposals, certificate.lottery)))
    names = matrix.universe.names
    scale, slacks = certificate.scaled
    if args.json:
        payload = {
            "lottery": _lottery_json(certificate.lottery),
            "slacks": {n: ratio_pair(s, scale) for n, s in zip(names, slacks)},
            "unique": unique,
        }
        if face is not None:
            payload["maximal_set"] = [_lottery_json(v) for v in face]
        if budget:
            payload["allocation"] = {dept: ratio_pair(*x) for dept, x in allocation}
            payload["allocation_percent"] = {dept: ratio_percent(*x)
                                             for dept, x in allocation}
        _print_json(payload)
        return EXIT_OK
    lines = ["Maximal lottery:", *_lottery_lines(certificate.lottery),
             "Slacks against pure outcomes (all exact, all >= 0):"]
    lines += [f"  vs {name}: {format_ratio(slack, scale)}"
              for name, slack in zip(names, slacks)]
    if unique:
        lines.append("This is the unique maximal lottery.")
    elif face is None:
        lines.append("Not unique: reported lottery is the solver's deterministic pick.")
    else:
        lines.append(f"Not unique: the maximal set has {len(face)} vertices; "
                     "reported lottery is the solver's deterministic pick.")
    if budget:
        lines.append("Budget allocation:")
        lines += [f"  {dept}: {format_ratio(*share)} ({ratio_percent(*share)}%)"
                  for dept, share in allocation]
    print("\n".join(lines))
    return EXIT_OK


def _profile_pool(relations, n: int, rng: random.Random, seed: int,
                  table: axioms.ValueTable):
    """All n-agent profiles over `relations` when few enough, else a seeded
    sample; each from the command's `table`."""
    if len(relations) ** n <= MAX_AXIOM_POOL:
        return axioms.profiles_over(relations, n, table.universe, table), "exhaustive"
    pool = [table.profile(tuple(rng.choice(relations) for _ in range(n)))
            for _ in range(MAX_AXIOM_POOL)]
    return pool, f"sampled({MAX_AXIOM_POOL}, seed={seed})"


def _cmd_check_axioms(args) -> int:
    _check_range("--alternatives", args.alternatives, 2, 6)
    _check_range("--agents", args.agents, 1, MAX_AXIOM_AGENTS)
    _check_range("--samples", args.samples, 1, MAX_AXIOM_SAMPLES)
    universe = Universe(tuple(chr(ord("a") + i) for i in range(args.alternatives)))
    rng = random.Random(args.seed)
    checks = []  # (label, passed, detail)
    # one object per weak order, profile and lottery, for every phase
    table = axioms.ValueTable(universe)

    if args.swf == "relative-utilitarian":
        handle = axioms.relative_utilitarian_swf()
        before, after, pair = axioms.intensity_flip_fixture()
        verdict = axioms.check_iia(handle, before, after, pair)
        checks.append((
            f"IIA on the intensity-flip fixture, restriction {pair}",
            verdict.passed,
            "hypothesis held and collective preferences changed"
            if not verdict.passed else "no violation",
        ))
    elif args.swf == "approval":
        handle = axioms.approval_swf()
        relations = axioms.dichotomous_relations(universe)
        pool, mode = _profile_pool(relations, args.agents, rng, args.seed, table)
        report = axioms.exhaustive_iia(handle, pool)
        checks.append((
            f"IIA {mode} over {len(pool)}^2 dichotomous profile pairs",
            report.passed,
            f"{report.checked} checks, {report.vacuous} vacuous, "
            f"{len(report.violations)} violations",
        ))
        pairs = axioms.pareto_pairs(universe, samples=20, seed=args.seed)
        for profile in pool[: args.samples]:
            pareto = axioms.check_pareto(handle, profile, pairs=pairs)
            if not pareto.passed:
                checks.append(("Pareto optimality", False, "counterexample found"))
                break
        else:
            checks.append(("Pareto optimality (sampled profiles)", True, "no violation"))
    else:
        handle = {"pairwise-utilitarian": axioms.pairwise_utilitarian_swf,
                  "dictatorial": axioms.dictatorial_swf,
                  "constant": axioms.constant_swf}[args.swf]()
        orders = axioms.weak_orders(universe, table)
        pool, mode = _profile_pool(orders, args.agents, rng, args.seed, table)
        report = axioms.exhaustive_iia(handle, pool)
        detail = (f"{report.checked} checks, {report.vacuous} vacuous, "
                  f"{len(report.violations)} violations")
        if report.violations:
            i, j, x = report.violations[0]
            detail += f"; first witness: profiles #{i}/#{j} restricted to {x}"
        checks.append((
            f"IIA over {len(pool)}^2 weak-order profile pairs ({mode})",
            report.passed,
            detail,
        ))
        anon_fail = None
        checked: set = set()  # the check is deterministic: a repeat would pass again
        for _ in range(args.samples):
            profile = axioms.random_pc_profile(rng, universe, max(2, args.agents),
                                               table=table)
            if profile in checked:
                continue
            checked.add(profile)
            verdict = axioms.check_anonymity(handle, profile, seed=args.seed, table=table)
            if not verdict.passed:
                anon_fail = verdict
                break
        checks.append((
            f"anonymity over {args.samples} sampled profiles (seed {args.seed})",
            anon_fail is None,
            "no violation" if anon_fail is None
            else f"witness permutation {anon_fail.witness}",
        ))
        pareto_fail = None
        for _ in range(args.samples):
            strict = rng.random() < 0.5
            profile, p, q = axioms.unanimity_case(
                rng, universe, max(2, args.agents), strict, table)
            verdict = axioms.check_pareto(handle, profile, pairs=[(p, q)])
            if not verdict.passed:
                pareto_fail = verdict
                break
        checks.append((
            f"Pareto optimality over {args.samples} unanimity cases (seed {args.seed})",
            pareto_fail is None,
            "no violation" if pareto_fail is None else "counterexample found",
        ))

    failed = [c for c in checks if not c[1]]
    if args.json:
        _print_json({
            "swf": args.swf,
            "seed": args.seed,
            "checks": [
                {"name": name, "passed": passed, "detail": detail}
                for name, passed, detail in checks
            ],
        })
    else:
        print(f"Axiom checks for {args.swf} (seed {args.seed}):")
        for name, passed, detail in checks:
            print(f"  {'PASS' if passed else 'FAIL'} {name}: {detail}")
    return EXIT_FAIL if failed else EXIT_OK


def _cmd_audit_domain(args) -> int:
    _check_range("--member-limit", args.member_limit, 1)
    if args.file:
        members = parse_matrices(_read(args.file))
        if not members:
            raise ParseError("matrix file defines no matrices", 1)
        domain = axioms.DomainDescription.of(
            members[0].universe, members, name=args.file
        )
    else:
        _check_range("--alternatives", args.alternatives, 1, 5)
        universe = Universe(tuple(chr(ord("a") + i) for i in range(args.alternatives)))
        builder = {
            "pc": axioms.pc_domain,
            "pc-transitive": axioms.pc_transitive_domain,
            "dichotomous": axioms.dichotomous_domain,
        }[args.domain]
        domain = builder(universe)
    m = len(domain.universe)
    work = len(domain) * axioms.audit_set_count(m)
    if work > AUDIT_WORK_LIMIT:
        raise ValueError(
            f"the audit would check {work} (member, restriction set) pairs "
            f"({len(domain)} members, {m} alternatives), more than "
            f"the limit of {AUDIT_WORK_LIMIT}"
        )
    if args.conditions is not None:
        conditions = tuple(
            axioms.RichnessCondition.parse(tok)
            for tok in map(str.strip, args.conditions.split(",")) if tok
        )
        if not conditions:
            raise ValueError(f"--conditions names no condition: {args.conditions!r}")
    elif args.domain == "dichotomous" and not args.file:
        conditions = axioms.DICHOTOMOUS_CONDITIONS
    else:
        conditions = axioms.DEFAULT_CONDITIONS
    report = axioms.audit_richness(
        domain, conditions, member_limit=args.member_limit, seed=args.seed
    )
    inclusion = axioms.pc_inclusion_check(domain)
    if args.json:
        _print_json({
            "domain": domain.name,
            "members": len(domain),
            "seed": args.seed,
            "conditions": [
                {
                    "condition": r.condition.value,
                    "name": r.condition.name.lower(),
                    "passed": r.passed,
                    "mode": r.mode,
                    "witness": r.witness,
                }
                for r in report.results
            ],
            "pc_inclusion": {"all_pc": inclusion.all_pc, "message": inclusion.message},
        })
    else:
        print(f"Richness audit of domain '{domain.name}' "
              f"({len(domain)} members):")
        for r in report.results:
            line = (f"  {'PASS' if r.passed else 'FAIL'} {r.condition.value} "
                    f"({r.condition.name.lower()}) [{r.mode}]")
            if r.witness:
                line += f": {r.witness}"
            print(line)
        print(f"  {'PASS' if inclusion.all_pc else 'NOTE'} pairwise-comparison "
              f"inclusion: {inclusion.message}")
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_cycle_witness(args) -> int:
    _check_range("--max-denominator", args.max_denominator, 1)
    profile = _load_profile(args.ballots)
    m = len(profile.universe)
    if _grid_size(m, args.max_denominator, MAX_GRID_LOTTERIES) > MAX_GRID_LOTTERIES:
        raise ValueError(f"the grid of {m} alternatives at --max-denominator "
                         f"{args.max_denominator} holds more than "
                         f"{MAX_GRID_LOTTERIES} lotteries")
    matrix = utilitarian(profile)
    witness = cycle_witness(matrix, max_denominator=args.max_denominator)
    if witness is not None:
        p, q, r = witness
        values = [evaluate(matrix, x, y) for x, y in ((p, q), (q, r), (r, p))]
    if args.json:
        _print_json({"found": False} if witness is None else {
            "found": True,
            "cycle": [_lottery_json(x) for x in witness],
            "values": [fraction_pair(v) for v in values],
        })
        return EXIT_OK
    if witness is None:
        lines = [f"none found on grid (two-support lotteries, denominators "
                 f"<= {args.max_denominator})"]
    else:
        lines = ["Cycle found: p beats q beats r beats p"]
        for label, lottery in zip("pqr", witness):
            lines += [f" {label}:", *_lottery_lines(lottery, indent="   ")]
        lines.append(f" values: {', '.join(map(format_fraction, values))}")
    print("\n".join(lines))
    return EXIT_OK


_COMMANDS = {
    "aggregate": _cmd_aggregate,
    "maximal-lottery": _cmd_solve,
    "budget": _cmd_solve,
    "check-axioms": _cmd_check_axioms,
    "audit-domain": _cmd_audit_domain,
    "cycle-witness": _cmd_cycle_witness,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_canonical(argv) or _build_parser().parse_args(argv)
    # A command builds no reference cycles, so a cyclic-collector pass inside
    # it frees nothing and costs time: one young pass took 0.2-0.3 ms on a
    # shared 2-core host, a fifth of a small `budget` command, and whether
    # one fell inside the command depended on how many objects the imports
    # happened to allocate.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (MemoryError, RecursionError) as exc:
        print(f"error: input too large to process ({type(exc).__name__})", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a defect in the program, whatever its type
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_DEFECT
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
