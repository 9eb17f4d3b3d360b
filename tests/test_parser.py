"""The command-line parser: its help and error texts, pinned verbatim, and
the argument paths into it.

The parser gives arguments only to the subcommand the command line names,
so these texts pin that the others still appear wherever argparse lists
them.  argparse wraps to the terminal width, which COLUMNS=80 fixes; the
texts are those of Python 3.11's argparse.
"""

import argparse
import os
import subprocess
import sys

import pytest

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


def test_module_runs_as_a_script():
    src = str(FIXTURES.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-m", "ssbchoice.cli", "budget",
         str(FIXTURES / "table1.ballots"), str(FIXTURES / "table1.proposals")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, BUDGET_TABLE1, "")


def test_only_the_named_subcommand_gets_arguments():
    parser = cli._build_parser(["budget", "x", "y"])
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert tuple(sub.choices) == COMMANDS
    actions = {name: [a.dest for a in p._actions] for name, p in sub.choices.items()}
    assert actions.pop("budget") == ["help", "json", "max_enum", "ballots", "proposals"]
    assert actions == {name: [] for name in COMMANDS if name != "budget"}
