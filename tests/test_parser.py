"""The command-line parser: its help and error texts, pinned verbatim, and
the argument paths into it.

Each text lists all six subcommands wherever argparse lists them.
argparse wraps to the terminal width, which COLUMNS=80 fixes; the texts
are those of Python 3.11's argparse.  A well-formed command line is
read without argparse, from the same argument table; a differential test
holds that reader to argparse's namespaces and refusals.
"""

import contextlib
import io
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ssbchoice import cli
from ssbchoice.cli import main

from conftest import FIXTURES
from test_golden import BUDGET_TABLE1

COMMANDS = ("aggregate", "maximal-lottery", "budget", "check-axioms",
            "audit-domain", "cycle-witness")

USAGE = """\
usage: ssbchoice [-h]
                 {aggregate,maximal-lottery,budget,check-axioms,audit-domain,cycle-witness}
                 ...
"""

HELP = USAGE + """
Exact social choice: pairwise aggregation, maximal lotteries, budget mapping,
and axiom audits.

positional arguments:
  {aggregate,maximal-lottery,budget,check-axioms,audit-domain,cycle-witness}
    aggregate           print the collective matrix of a ballot file
    maximal-lottery     solve for a collectively maximal lottery
    budget              maximal lottery mapped through a proposal matrix
    check-axioms        run axiom checks against an aggregation rule
    audit-domain        audit richness conditions of a preference domain
    cycle-witness       search grid lotteries for a collective preference
                        cycle

options:
  -h, --help            show this help message and exit
"""

AGGREGATE_HELP = """\
usage: ssbchoice aggregate [-h] [--json] ballots

positional arguments:
  ballots

options:
  -h, --help  show this help message and exit
  --json      machine-readable output
"""

MAX_ENUM_HELP = """\
options:
  -h, --help    show this help message and exit
  --json        machine-readable output
  --max-enum M  also list the maximal set's vertices when there are at most M
                alternatives (exponential; 0..10, default 0: never)
"""

MAXIMAL_LOTTERY_HELP = """\
usage: ssbchoice maximal-lottery [-h] [--json] [--max-enum M] ballots

positional arguments:
  ballots

""" + MAX_ENUM_HELP

BUDGET_USAGE = """\
usage: ssbchoice budget [-h] [--json] [--max-enum M] ballots proposals
"""

BUDGET_HELP = BUDGET_USAGE + """
positional arguments:
  ballots
  proposals

""" + MAX_ENUM_HELP

CHECK_AXIOMS_USAGE = """\
usage: ssbchoice check-axioms [-h] [--json] [--seed S]
                              [--swf {pairwise-utilitarian,approval,relative-utilitarian,dictatorial,constant}]
                              [--alternatives M] [--agents N] [--samples K]
"""

CHECK_AXIOMS_HELP = CHECK_AXIOMS_USAGE + """
options:
  -h, --help            show this help message and exit
  --json                machine-readable output
  --seed S              seed for sampled checks (recorded in reports)
  --swf {pairwise-utilitarian,approval,relative-utilitarian,dictatorial,constant}
  --alternatives M
  --agents N
  --samples K
"""

AUDIT_DOMAIN_HELP = """\
usage: ssbchoice audit-domain [-h] [--json] [--seed S]
                              [--domain {pc,pc-transitive,dichotomous}]
                              [--alternatives M] [--file FILE]
                              [--conditions CONDITIONS]
                              [--member-limit MEMBER_LIMIT]

options:
  -h, --help            show this help message and exit
  --json                machine-readable output
  --seed S              seed for sampled checks (recorded in reports)
  --domain {pc,pc-transitive,dichotomous}
  --alternatives M
  --file FILE           matrix file defining the domain members
  --conditions CONDITIONS
                        comma-separated subset of R1,R2,R3,R4,R5
  --member-limit MEMBER_LIMIT
                        exhaustive below this domain size, sampled above
"""

CYCLE_WITNESS_HELP = """\
usage: ssbchoice cycle-witness [-h] [--json]
                               [--max-denominator MAX_DENOMINATOR]
                               ballots

positional arguments:
  ballots

options:
  -h, --help            show this help message and exit
  --json                machine-readable output
  --max-denominator MAX_DENOMINATOR
"""

# (argv, exit code, stdout, stderr)
TEXTS = [
    (["-h"], 0, HELP, ""),
    (["aggregate", "-h"], 0, AGGREGATE_HELP, ""),
    (["maximal-lottery", "-h"], 0, MAXIMAL_LOTTERY_HELP, ""),
    (["budget", "-h"], 0, BUDGET_HELP, ""),
    (["check-axioms", "-h"], 0, CHECK_AXIOMS_HELP, ""),
    (["audit-domain", "-h"], 0, AUDIT_DOMAIN_HELP, ""),
    (["cycle-witness", "-h"], 0, CYCLE_WITNESS_HELP, ""),
    ([], 2, "", USAGE + "ssbchoice: error: the following arguments are required: "
     "command\n"),
    (["bogus"], 2, "", USAGE + "ssbchoice: error: argument command: invalid choice: "
     "'bogus' (choose from 'aggregate', 'maximal-lottery', 'budget', 'check-axioms', "
     "'audit-domain', 'cycle-witness')\n"),
    (["check-axioms", "--swf", "nope"], 2, "", CHECK_AXIOMS_USAGE +
     "ssbchoice check-axioms: error: argument --swf: invalid choice: 'nope' (choose "
     "from 'pairwise-utilitarian', 'approval', 'relative-utilitarian', 'dictatorial', "
     "'constant')\n"),
    (["check-axioms", "--agents", "x"], 2, "", CHECK_AXIOMS_USAGE +
     "ssbchoice check-axioms: error: argument --agents: invalid int value: 'x'\n"),
    (["aggregate", "x.ballots", "--seed", "1"], 2, "", USAGE +
     "ssbchoice: error: unrecognized arguments: --seed 1\n"),
    (["budget", "x.ballots"], 2, "", BUDGET_USAGE +
     "ssbchoice budget: error: the following arguments are required: proposals\n"),
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse's texts differ between Python versions")
@pytest.mark.parametrize("argv, code, out, err", TEXTS,
                         ids=[" ".join(t[0]) or "no-arguments" for t in TEXTS])
def test_help_and_error_texts_are_pinned(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    captured = capsys.readouterr()
    assert captured.out == out
    assert captured.err == err


def test_argv_defaults_to_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["ssbchoice", "budget",
                                      str(FIXTURES / "table1.ballots"),
                                      str(FIXTURES / "table1.proposals")])
    assert main() == 0
    assert capsys.readouterr().out == BUDGET_TABLE1


TABLE1 = [str(FIXTURES / "table1.ballots"), str(FIXTURES / "table1.proposals")]


def run_python(*args: str) -> subprocess.CompletedProcess:
    """`python args` in a fresh interpreter that imports this checkout's package."""
    src = str(FIXTURES.parent / "src")
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=60)


def test_module_runs_as_a_script():
    proc = run_python("-m", "ssbchoice.cli", "budget", *TABLE1)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, BUDGET_TABLE1, "")


def test_well_formed_command_imports_no_argparse():
    # nor what only argparse's fallback, the frozen error or --json use
    proc = run_python("-c", f"""
import sys
from ssbchoice.cli import main
main({["budget", *TABLE1]!r})
main(["check-axioms", "--agents", "2"])
print(sorted({{"argparse", "gettext", "locale", "dataclasses", "inspect", "json"}}
             & set(sys.modules)))
""")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith(BUDGET_TABLE1 + "Axiom checks for pairwise-utilitarian")
    assert proc.stdout.endswith("\n[]\n")


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse's texts differ between Python versions")
def test_help_in_a_fresh_process_still_comes_from_argparse():
    proc = run_python("-m", "ssbchoice.cli", "budget", "-h")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, BUDGET_HELP, "")


# --- the canonical reader against argparse

FLAGS = sorted({"--json", "-h", "--help"} | {
    o.flag for _, _, options in cli._ARGUMENTS.values() for o in options})
DASHED = ["-1", "-", "--", "-x", "--json", "-h"]
VALUES = ["0", "3", "12", "+2", "1_0", " 4", "07", "x", "", "a b",
          "pairwise-utilitarian", "approval", "constant", "pc", "dichotomous",
          "R1,R2", "x.ballots", "budget", *DASHED]
WORDS = ["x.ballots", "y.proposals", "budget", "", "a b", "+2"]


@st.composite
def command_lines(draw) -> list[str]:
    """A well-formed argv, often with one or two faults: an abbreviated,
    foreign or repeated flag, --flag=value, a value such as "-1", "+2",
    "1_0" or an invalid choice, "-h", "--", "-", or a positional too many
    or too few."""
    command = draw(st.sampled_from(COMMANDS))
    _, positionals, options = cli._ARGUMENTS[command]
    chosen = draw(st.lists(st.sampled_from(options), max_size=4)) if options else []
    pieces = [[o.flag, draw(st.sampled_from(o.choices) if o.choices
                            else st.integers(0, 20).map(str) if o.type is int
                            else st.sampled_from(WORDS))]
              for o in chosen]
    if draw(st.booleans()):
        pieces.append(["--json"])
    for word in draw(st.lists(st.sampled_from(WORDS), min_size=len(positionals),
                              max_size=len(positionals))):
        pieces.insert(draw(st.integers(0, len(pieces))), [word])
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(["value", "abbreviate", "equals", "token",
                                      "positional", "foreign", "command"]))
        flagged = [piece for piece in pieces if len(piece) == 2]
        if fault == "value" and flagged:
            value = st.sampled_from(VALUES) | st.sampled_from(DASHED)
            draw(st.sampled_from(flagged))[1] = draw(value)
        elif fault == "abbreviate" and flagged:
            piece = draw(st.sampled_from(flagged))
            piece[0] = piece[0][:draw(st.integers(3, max(3, len(piece[0]) - 1)))]
        elif fault == "equals" and flagged:
            piece = draw(st.sampled_from(flagged))
            piece[:] = ["=".join(piece)]
        elif fault == "token":
            pieces.insert(draw(st.integers(0, len(pieces))),
                          [draw(st.sampled_from(["-h", "--help", "--", "-", "--js"]))])
        elif fault == "positional":
            if pieces and draw(st.booleans()):
                pieces.pop(draw(st.integers(0, len(pieces) - 1)))
            else:
                pieces.insert(draw(st.integers(0, len(pieces))),
                              [draw(st.sampled_from(VALUES))])
        elif fault == "foreign":
            pieces.insert(draw(st.integers(0, len(pieces))),
                          [draw(st.sampled_from(FLAGS)), draw(st.sampled_from(VALUES))])
        elif fault == "command":
            command = draw(st.sampled_from(["bogus", "budg", "-h", "--json"]))
    return [command] + [token for piece in pieces for token in piece]


def argparse_reading(argv: list[str]) -> dict | None:
    """vars() of argparse's namespace for argv, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


@settings(max_examples=600, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=command_lines())
def test_canonical_reader_agrees_with_argparse(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    read = cli._read_canonical(argv)
    parsed = argparse_reading(argv)
    if parsed is None:
        assert read is None
    else:
        assert read is None or vars(read) == parsed


@pytest.mark.parametrize("argv", [
    ["budget", "x.ballots", "y.proposals"],
    ["budget", "x.ballots", "--max-enum", "4", "y.proposals", "--json"],
    ["maximal-lottery", "--json", "x.ballots"],
    ["aggregate", "x.ballots"],
    ["cycle-witness", "--max-denominator", "+7", "x.ballots"],
    ["check-axioms", "--swf", "approval", "--agents", "3", "--seed", "1_0"],
    ["check-axioms", "--seed", "1", "--seed", "2"],
    ["audit-domain", "--domain", "pc", "--alternatives", "4", "--seed", "5"],
    ["audit-domain", "--file", "m.txt", "--conditions", "R1,R4", "--member-limit", "9"],
], ids=" ".join)
def test_canonical_forms_are_read_without_argparse(argv):
    read = cli._read_canonical(argv)
    assert read is not None and vars(read) == argparse_reading(argv)
