"""Full stdout and exit code of a few cheap CLI commands, pinned verbatim.

Any change to the number representation, the solver's pick or the
formatters that alters a single byte of these outputs fails here.
"""

import json

import pytest

from ssbchoice.cli import main

from conftest import FIXTURES

TABLE1 = FIXTURES / "table1.ballots"
PROPOSALS = FIXTURES / "table1.proposals"

AGGREGATE_TABLE1 = """\
Collective matrix (100 agents, sum of normalized agent matrices):
alternatives: A, B, C, D
  0  40 -10  80
-40   0  10 -10
 10 -10   0  80
-80  10 -80   0
"""

# one voter: the count takes the singular noun
AGGREGATE_CHAIN3 = """\
Collective matrix (1 agent, sum of normalized agent matrices):
alternatives: a, b, c
 0  1 1
-1  0 1
-1 -1 0
"""

MAXIMAL_LOTTERY_CONDORCET_JSON = (
    '{"lottery": {"a": ["1", "3"], "b": ["1", "3"], "c": ["1", "3"]}, '
    '"slacks": {"a": ["0", "1"], "b": ["0", "1"], "c": ["0", "1"]}, '
    '"unique": true}\n'
)

BUDGET_TABLE1 = """\
Maximal lottery:
  A: 1/6 (16.7%)
  B: 1/6 (16.7%)
  C: 2/3 (66.7%)
  D: 0 (0.0%)
Slacks against pure outcomes (all exact, all >= 0):
  vs A: 0
  vs B: 0
  vs C: 0
  vs D: 65
This is the unique maximal lottery.
Budget allocation:
  Education: 1/4 (25.0%)
  Transportation: 4/15 (26.7%)
  Health: 3/10 (30.0%)
  Military: 11/60 (18.3%)
"""

BUDGET_TABLE1_JSON = (
    '{"lottery": {"A": ["1", "6"], "B": ["1", "6"], "C": ["2", "3"], '
    '"D": ["0", "1"]}, '
    '"slacks": {"A": ["0", "1"], "B": ["0", "1"], "C": ["0", "1"], '
    '"D": ["65", "1"]}, '
    '"unique": true, '
    '"allocation": {"Education": ["1", "4"], "Transportation": ["4", "15"], '
    '"Health": ["3", "10"], "Military": ["11", "60"]}, '
    '"allocation_percent": {"Education": "25.0", "Transportation": "26.7", '
    '"Health": "30.0", "Military": "18.3"}}\n'
)

CYCLE_WITNESS_CHAIN4_JSON = (
    '{"found": true, "cycle": ['
    '{"a": ["0", "1"], "b": ["1", "1"], "c": ["0", "1"], "d": ["0", "1"]}, '
    '{"a": ["2", "5"], "b": ["0", "1"], "c": ["3", "5"], "d": ["0", "1"]}, '
    '{"a": ["3", "5"], "b": ["0", "1"], "c": ["0", "1"], "d": ["2", "5"]}], '
    '"values": [["1", "5"], ["1", "25"], ["1", "5"]]}\n'
)

CHECK_AXIOMS_PAIRWISE = """\
Axiom checks for pairwise-utilitarian (seed 0):
  PASS IIA over 169^2 weak-order profile pairs (exhaustive): 199927 checks, \
103632 vacuous, 0 violations
  PASS anonymity over 200 sampled profiles (seed 0): no violation
  PASS Pareto optimality over 200 unanimity cases (seed 0): no violation
"""

CHECK_AXIOMS_APPROVAL = """\
Axiom checks for approval (seed 3):
  PASS IIA exhaustive over 49^2 dichotomous profile pairs: 16807 checks, \
8688 vacuous, 0 violations
  PASS Pareto optimality (sampled profiles): no violation
"""

CHECK_AXIOMS_DICTATORIAL = """\
Axiom checks for dictatorial (seed 5):
  PASS IIA over 169^2 weak-order profile pairs (exhaustive): 199927 checks, \
103632 vacuous, 0 violations
  FAIL anonymity over 200 sampled profiles (seed 5): witness permutation (1, 0)
  FAIL Pareto optimality over 200 unanimity cases (seed 5): counterexample found
"""

CHECK_AXIOMS_PAIRWISE_3 = """\
Axiom checks for pairwise-utilitarian (seed 7):
  PASS IIA over 400^2 weak-order profile pairs (sampled(400, seed=7)): \
1120000 checks, 616756 vacuous, 0 violations
  PASS anonymity over 200 sampled profiles (seed 7): no violation
  PASS Pareto optimality over 200 unanimity cases (seed 7): no violation
"""

CHECK_AXIOMS_PAIRWISE_JSON = (
    '{"swf": "pairwise-utilitarian", "seed": 11, "checks": ['
    '{"name": "IIA over 169^2 weak-order profile pairs (exhaustive)", '
    '"passed": true, "detail": "199927 checks, 103632 vacuous, 0 violations"}, '
    '{"name": "anonymity over 200 sampled profiles (seed 11)", '
    '"passed": true, "detail": "no violation"}, '
    '{"name": "Pareto optimality over 200 unanimity cases (seed 11)", '
    '"passed": true, "detail": "no violation"}]}\n'
)

# four and five alternatives: the sampled pools restrict to blocks of three
# to five alternatives; captured before IIA blocks were read flat
CHECK_AXIOMS_PAIRWISE_4_ALTERNATIVES = """\
Axiom checks for pairwise-utilitarian (seed 13):
  PASS IIA over 400^2 weak-order profile pairs (sampled(400, seed=13)): \
2400000 checks, 1618540 vacuous, 0 violations
  PASS anonymity over 200 sampled profiles (seed 13): no violation
  PASS Pareto optimality over 200 unanimity cases (seed 13): no violation
"""

CHECK_AXIOMS_PAIRWISE_5_ALTERNATIVES = """\
Axiom checks for pairwise-utilitarian (seed 13):
  PASS IIA over 400^2 weak-order profile pairs (sampled(400, seed=13)): \
4960000 checks, 3893326 vacuous, 0 violations
  PASS anonymity over 200 sampled profiles (seed 13): no violation
  PASS Pareto optimality over 200 unanimity cases (seed 13): no violation
"""

CHECK_AXIOMS_DICTATORIAL_4_ALTERNATIVES_JSON = (
    '{"swf": "dictatorial", "seed": 13, "checks": ['
    '{"name": "IIA over 400^2 weak-order profile pairs (sampled(400, seed=13))", '
    '"passed": true, "detail": "2400000 checks, 1618540 vacuous, 0 violations"}, '
    '{"name": "anonymity over 200 sampled profiles (seed 13)", '
    '"passed": false, "detail": "witness permutation (1, 0)"}, '
    '{"name": "Pareto optimality over 200 unanimity cases (seed 13)", '
    '"passed": false, "detail": "counterexample found"}]}\n'
)

AUDIT_PC_TRANSITIVE_3 = """\
Richness audit of domain 'pc-transitive' (13 members):
  PASS R1 (neutrality) [exhaustive]
  PASS R2 (full_indifference) [exhaustive]
  PASS R3 (inversion) [exhaustive]
  PASS R4 (bottom_extension) [exhaustive]
  PASS pairwise-comparison inclusion: domain lies inside the \
pairwise-comparison class
"""

AUDIT_PC_4 = """\
Richness audit of domain 'pc' (729 members):
  PASS R1 (neutrality) [exhaustive]
  PASS R2 (full_indifference) [exhaustive]
  PASS R3 (inversion) [exhaustive]
  PASS R4 (bottom_extension) [exhaustive]
  PASS pairwise-comparison inclusion: domain lies inside the \
pairwise-comparison class
"""

AUDIT_DICHOTOMOUS_4 = """\
Richness audit of domain 'dichotomous' (15 members):
  PASS R1 (neutrality) [exhaustive]
  PASS R2 (full_indifference) [exhaustive]
  PASS R3 (inversion) [exhaustive]
  PASS R5 (dichotomous_patterns) [exhaustive]
  PASS pairwise-comparison inclusion: domain lies inside the \
pairwise-comparison class
"""

AUDIT_PC_4_SAMPLED_R4 = """\
Richness audit of domain 'pc' (729 members):
  PASS R1 (neutrality) [exhaustive]
  PASS R2 (full_indifference) [exhaustive]
  PASS R4 (bottom_extension) [sampled(50 of 729, seed=2)]
  PASS pairwise-comparison inclusion: domain lies inside the \
pairwise-comparison class
"""

# {path} is the matrix file's path, which names the domain
AUDIT_ZERO_FILE_4 = """\
Richness audit of domain '{path}' (1 members):
  PASS R1 (neutrality) [exhaustive]
  PASS R2 (full_indifference) [exhaustive]
  PASS R3 (inversion) [exhaustive]
  FAIL R4 (bottom_extension) [exhaustive]: no member matches a member on \
('a',) while ranking ('a',) above a fresh alternative
  PASS pairwise-comparison inclusion: domain lies inside the \
pairwise-comparison class
"""

# a chain, the same chain doubled, and a non-PC (graded) member
SCALED_AND_GRADED = """\
alternatives: a, b, c
0 1 1
-1 0 1
-1 -1 0

0 2 2
-2 0 2
-2 -2 0

0 1 2
-1 0 1
-2 -1 0
"""

# "<path>" stands for the file's path
AUDIT_SCALED_AND_GRADED = """\
Richness audit of domain '<path>' (2 members):
  FAIL R1 (neutrality) [exhaustive]: relabeling {'a': 'b', 'b': 'a', 'c': 'c'} \
(the transposition generator) of a member leaves the domain
  FAIL R2 (full_indifference) [exhaustive]: zero matrix (complete indifference) \
missing
  FAIL R3 (inversion) [exhaustive]: inverse of a member is missing
  FAIL R4 (bottom_extension) [exhaustive]: no member matches a member on \
('c',) while ranking ('c',) above a fresh alternative
  NOTE pairwise-comparison inclusion: domain leaves the pairwise-comparison \
class; if it is rich, no anonymous aggregation rule satisfies Pareto \
optimality and independence of irrelevant alternatives on it
"""

AUDIT_SCALED_AND_GRADED_JSON = (
    '{"domain": "<path>", "members": 2, "seed": 0, "conditions": ['
    '{"condition": "R1", "name": "neutrality", "passed": false, '
    '"mode": "exhaustive", "witness": "relabeling {\'a\': \'b\', \'b\': \'a\', '
    '\'c\': \'c\'} (the transposition generator) of a member leaves the '
    'domain"}, '
    '{"condition": "R2", "name": "full_indifference", "passed": false, '
    '"mode": "exhaustive", "witness": "zero matrix (complete indifference) '
    'missing"}, '
    '{"condition": "R3", "name": "inversion", "passed": false, '
    '"mode": "exhaustive", "witness": "inverse of a member is missing"}, '
    '{"condition": "R4", "name": "bottom_extension", "passed": false, '
    '"mode": "exhaustive", "witness": "no member matches a member on '
    '(\'c\',) while ranking (\'c\',) above a fresh alternative"}], '
    '"pc_inclusion": {"all_pc": false, "message": "domain leaves the '
    'pairwise-comparison class; if it is rich, no anonymous aggregation rule '
    'satisfies Pareto optimality and independence of irrelevant alternatives '
    'on it"}}\n'
)

# The eight argv forms the benchmark's axiom-lab workload runs, copied
# from its command table, each at --seed 424242.  The three audit-domain
# outputs do not depend on the seed: pc and dichotomous are pinned above.
AXIOM_LAB_UTILITARIAN_2 = """\
Axiom checks for pairwise-utilitarian (seed 424242):
  PASS IIA over 169^2 weak-order profile pairs (exhaustive): 199927 checks, \
103632 vacuous, 0 violations
  PASS anonymity over 200 sampled profiles (seed 424242): no violation
  PASS Pareto optimality over 200 unanimity cases (seed 424242): no violation
"""

AXIOM_LAB_UTILITARIAN_3 = """\
Axiom checks for pairwise-utilitarian (seed 424242):
  PASS IIA over 400^2 weak-order profile pairs (sampled(400, seed=424242)): \
1120000 checks, 618434 vacuous, 0 violations
  PASS anonymity over 200 sampled profiles (seed 424242): no violation
  PASS Pareto optimality over 200 unanimity cases (seed 424242): no violation
"""

AXIOM_LAB_APPROVAL = """\
Axiom checks for approval (seed 424242):
  PASS IIA exhaustive over 49^2 dichotomous profile pairs: 16807 checks, \
8688 vacuous, 0 violations
  PASS Pareto optimality (sampled profiles): no violation
"""

AXIOM_LAB_DICTATORIAL = """\
Axiom checks for dictatorial (seed 424242):
  PASS IIA over 169^2 weak-order profile pairs (exhaustive): 199927 checks, \
103632 vacuous, 0 violations
  FAIL anonymity over 200 sampled profiles (seed 424242): witness permutation (1, 0)
  FAIL Pareto optimality over 200 unanimity cases (seed 424242): counterexample found
"""

AXIOM_LAB_RELATIVE_UTILITARIAN = """\
Axiom checks for relative-utilitarian (seed 424242):
  FAIL IIA on the intensity-flip fixture, restriction ('a', 'b'): hypothesis \
held and collective preferences changed
"""

AXIOM_LAB_PC_TRANSITIVE_4 = """\
Richness audit of domain 'pc-transitive' (75 members):
  PASS R1 (neutrality) [exhaustive]
  PASS R2 (full_indifference) [exhaustive]
  PASS R3 (inversion) [exhaustive]
  PASS R4 (bottom_extension) [exhaustive]
  PASS pairwise-comparison inclusion: domain lies inside the \
pairwise-comparison class
"""

AXIOM_LAB = {
    "utilitarian-2": (
        ("check-axioms", "--swf", "pairwise-utilitarian", "--agents", "2"),
        AXIOM_LAB_UTILITARIAN_2,
    ),
    "utilitarian-3": (
        ("check-axioms", "--swf", "pairwise-utilitarian", "--agents", "3"),
        AXIOM_LAB_UTILITARIAN_3,
    ),
    "approval": (("check-axioms", "--swf", "approval"), AXIOM_LAB_APPROVAL),
    "dictatorial": (
        ("check-axioms", "--swf", "dictatorial"), AXIOM_LAB_DICTATORIAL, 1,
    ),
    "relative-utilitarian": (
        ("check-axioms", "--swf", "relative-utilitarian"),
        AXIOM_LAB_RELATIVE_UTILITARIAN,
        1,
    ),
    "pc": (("audit-domain", "--domain", "pc", "--alternatives", "4"), AUDIT_PC_4),
    "pc-transitive": (
        ("audit-domain", "--domain", "pc-transitive", "--alternatives", "4"),
        AXIOM_LAB_PC_TRANSITIVE_4,
    ),
    "dichotomous": (
        ("audit-domain", "--domain", "dichotomous", "--alternatives", "4"),
        AUDIT_DICHOTOMOUS_4,
    ),
}

# check-axioms at agent counts and a universe size the cases above do not
# reach (seed 5), captured before profiles, rays and hashes were interned;
# the 8-agent runs sample the anonymity permutations.
AXIOMS_PAIRWISE_UTILITARIAN_1_AGENT = """\
Axiom checks for pairwise-utilitarian (seed 5):
  PASS IIA over 13^2 weak-order profile pairs (exhaustive): 1183 checks, \
486 vacuous, 0 violations
  PASS anonymity over 200 sampled profiles (seed 5): no violation
  PASS Pareto optimality over 200 unanimity cases (seed 5): no violation
"""
AXIOMS_PAIRWISE_UTILITARIAN_1_AGENT_JSON = (
    '{"swf": "pairwise-utilitarian", "seed": 5, '
    '"checks": [{"name": "IIA over 13^2 weak-order profile pairs (exhaustive)", '
    '"passed": true, "detail": "1183 checks, 486 vacuous, 0 violations"}, '
    '{"name": "anonymity over 200 sampled profiles (seed 5)", "passed": true, '
    '"detail": "no violation"}, '
    '{"name": "Pareto optimality over 200 unanimity cases (seed 5)", '
    '"passed": true, "detail": "no violation"}]}\n'
)

AXIOMS_PAIRWISE_UTILITARIAN_6_AGENTS = """\
Axiom checks for pairwise-utilitarian (seed 5):
  PASS IIA over 400^2 weak-order profile pairs (sampled(400, \
seed=5)): 1120000 checks, 637486 vacuous, 0 violations
  PASS anonymity over 20 sampled profiles (seed 5): no violation
  PASS Pareto optimality over 20 unanimity cases (seed 5): no violation
"""
AXIOMS_PAIRWISE_UTILITARIAN_6_AGENTS_JSON = (
    '{"swf": "pairwise-utilitarian", "seed": 5, '
    '"checks": [{"name": "IIA over 400^2 weak-order profile pairs (sampled(400, '
    'seed=5))", "passed": true, "detail": "1120000 checks, 637486 vacuous, '
    '0 violations"}, {"name": "anonymity over 20 sampled profiles (seed 5)", '
    '"passed": true, "detail": "no violation"}, '
    '{"name": "Pareto optimality over 20 unanimity cases (seed 5)", '
    '"passed": true, "detail": "no violation"}]}\n'
)

AXIOMS_PAIRWISE_UTILITARIAN_8_AGENTS = """\
Axiom checks for pairwise-utilitarian (seed 5):
  PASS IIA over 400^2 weak-order profile pairs (sampled(400, \
seed=5)): 1120000 checks, 638322 vacuous, 0 violations
  PASS anonymity over 200 sampled profiles (seed 5): no violation
  PASS Pareto optimality over 200 unanimity cases (seed 5): no violation
"""
AXIOMS_PAIRWISE_UTILITARIAN_8_AGENTS_JSON = (
    '{"swf": "pairwise-utilitarian", "seed": 5, '
    '"checks": [{"name": "IIA over 400^2 weak-order profile pairs (sampled(400, '
    'seed=5))", "passed": true, "detail": "1120000 checks, 638322 vacuous, '
    '0 violations"}, {"name": "anonymity over 200 sampled profiles (seed 5)", '
    '"passed": true, "detail": "no violation"}, '
    '{"name": "Pareto optimality over 200 unanimity cases (seed 5)", '
    '"passed": true, "detail": "no violation"}]}\n'
)

AXIOMS_DICTATORIAL_8_AGENTS = """\
Axiom checks for dictatorial (seed 5):
  PASS IIA over 400^2 weak-order profile pairs (sampled(400, \
seed=5)): 1120000 checks, 638322 vacuous, 0 violations
  FAIL anonymity over 200 sampled profiles (seed 5): witness permutation (4, 5, \
2, 7, 0, 1, 3, 6)
  FAIL Pareto optimality over 200 unanimity cases (seed 5): counterexample found
"""
AXIOMS_DICTATORIAL_8_AGENTS_JSON = (
    '{"swf": "dictatorial", "seed": 5, '
    '"checks": [{"name": "IIA over 400^2 weak-order profile pairs (sampled(400, '
    'seed=5))", "passed": true, "detail": "1120000 checks, 638322 vacuous, '
    '0 violations"}, {"name": "anonymity over 200 sampled profiles (seed 5)", '
    '"passed": false, "detail": "witness permutation (4, 5, 2, 7, 0, 1, 3, 6)"}, '
    '{"name": "Pareto optimality over 200 unanimity cases (seed 5)", '
    '"passed": false, "detail": "counterexample found"}]}\n'
)

AXIOMS_APPROVAL_4_ALTERNATIVES = """\
Axiom checks for approval (seed 5):
  PASS IIA exhaustive over 225^2 dichotomous profile pairs: 759375 checks, \
512928 vacuous, 0 violations
  PASS Pareto optimality (sampled profiles): no violation
"""
AXIOMS_APPROVAL_4_ALTERNATIVES_JSON = (
    '{"swf": "approval", "seed": 5, '
    '"checks": [{"name": "IIA exhaustive over 225^2 dichotomous profile pairs", '
    '"passed": true, "detail": "759375 checks, 512928 vacuous, 0 violations"}, '
    '{"name": "Pareto optimality (sampled profiles)", "passed": true, '
    '"detail": "no violation"}]}\n'
)

AXIOMS_CAPTURED = {  # name: (flags, text stdout, --json stdout, exit code)
    "pairwise-utilitarian-1-agent": (
        ("--swf", "pairwise-utilitarian", "--agents", "1"),
        AXIOMS_PAIRWISE_UTILITARIAN_1_AGENT, AXIOMS_PAIRWISE_UTILITARIAN_1_AGENT_JSON, 0,
    ),
    "pairwise-utilitarian-6-agents": (
        ("--swf", "pairwise-utilitarian", "--agents", "6", "--samples", "20"),
        AXIOMS_PAIRWISE_UTILITARIAN_6_AGENTS, AXIOMS_PAIRWISE_UTILITARIAN_6_AGENTS_JSON, 0,
    ),
    "pairwise-utilitarian-8-agents": (
        ("--swf", "pairwise-utilitarian", "--agents", "8"),
        AXIOMS_PAIRWISE_UTILITARIAN_8_AGENTS, AXIOMS_PAIRWISE_UTILITARIAN_8_AGENTS_JSON, 0,
    ),
    "dictatorial-8-agents": (
        ("--swf", "dictatorial", "--agents", "8"),
        AXIOMS_DICTATORIAL_8_AGENTS, AXIOMS_DICTATORIAL_8_AGENTS_JSON, 1,
    ),
    "approval-4-alternatives": (
        ("--swf", "approval", "--alternatives", "4"),
        AXIOMS_APPROVAL_4_ALTERNATIVES, AXIOMS_APPROVAL_4_ALTERNATIVES_JSON, 0,
    ),
}

GOLDEN = {
    "aggregate-table1": (("aggregate", TABLE1), AGGREGATE_TABLE1),
    "aggregate-chain3": (("aggregate", FIXTURES / "chain3.ballots"), AGGREGATE_CHAIN3),
    "maximal-lottery-json-condorcet": (
        ("maximal-lottery", "--json", FIXTURES / "condorcet.ballots"),
        MAXIMAL_LOTTERY_CONDORCET_JSON,
    ),
    "budget-table1": (("budget", TABLE1, PROPOSALS), BUDGET_TABLE1),
    "budget-json-table1": (("budget", "--json", TABLE1, PROPOSALS), BUDGET_TABLE1_JSON),
    "cycle-witness-json-chain4": (
        ("cycle-witness", "--json", FIXTURES / "chain4.ballots"),
        CYCLE_WITNESS_CHAIN4_JSON,
    ),
    "check-axioms-pairwise-utilitarian": (
        ("check-axioms", "--swf", "pairwise-utilitarian", "--seed", "0"),
        CHECK_AXIOMS_PAIRWISE,
    ),
    "check-axioms-approval": (
        ("check-axioms", "--swf", "approval", "--seed", "3"),
        CHECK_AXIOMS_APPROVAL,
    ),
    "check-axioms-dictatorial": (
        ("check-axioms", "--swf", "dictatorial", "--seed", "5"),
        CHECK_AXIOMS_DICTATORIAL,
        1,
    ),
    "check-axioms-pairwise-utilitarian-3-agents": (
        ("check-axioms", "--swf", "pairwise-utilitarian", "--agents", "3",
         "--seed", "7"),
        CHECK_AXIOMS_PAIRWISE_3,
    ),
    "check-axioms-pairwise-utilitarian-json": (
        ("check-axioms", "--json", "--swf", "pairwise-utilitarian", "--seed", "11"),
        CHECK_AXIOMS_PAIRWISE_JSON,
    ),
    "check-axioms-pairwise-utilitarian-4-alternatives": (
        ("check-axioms", "--swf", "pairwise-utilitarian", "--alternatives", "4",
         "--seed", "13"),
        CHECK_AXIOMS_PAIRWISE_4_ALTERNATIVES,
    ),
    "check-axioms-pairwise-utilitarian-5-alternatives": (
        ("check-axioms", "--swf", "pairwise-utilitarian", "--alternatives", "5",
         "--seed", "13"),
        CHECK_AXIOMS_PAIRWISE_5_ALTERNATIVES,
    ),
    "check-axioms-dictatorial-4-alternatives-json": (
        ("check-axioms", "--json", "--swf", "dictatorial", "--alternatives", "4",
         "--seed", "13"),
        CHECK_AXIOMS_DICTATORIAL_4_ALTERNATIVES_JSON,
        1,
    ),
    "audit-domain-pc-transitive-3": (
        ("audit-domain", "--domain", "pc-transitive", "--alternatives", "3"),
        AUDIT_PC_TRANSITIVE_3,
    ),
    "audit-domain-pc-4": (
        ("audit-domain", "--domain", "pc", "--alternatives", "4"),
        AUDIT_PC_4,
    ),
    "audit-domain-pc-4-sampled-r4": (
        ("audit-domain", "--domain", "pc", "--alternatives", "4",
         "--member-limit", "50", "--seed", "2", "--conditions", "R1,R2,R4"),
        AUDIT_PC_4_SAMPLED_R4,
    ),
    "audit-domain-dichotomous-4": (
        ("audit-domain", "--domain", "dichotomous", "--alternatives", "4"),
        AUDIT_DICHOTOMOUS_4,
    ),
    **{f"axiom-lab-{key}": ((*argv, "--seed", "424242"), *rest)
       for key, (argv, *rest) in AXIOM_LAB.items()},
    **{f"check-axioms-{key}{suffix}": (("check-axioms", *json_flag, *flags, "--seed", "5"),
                                       stdout, code)
       for key, (flags, text, json_text, code) in AXIOMS_CAPTURED.items()
       for suffix, json_flag, stdout in (("", (), text), ("-json", ("--json",), json_text))},
}


# each case is (argv, stdout) with exit code 0, or (argv, stdout, exit code)
@pytest.mark.parametrize("case", GOLDEN.values(), ids=GOLDEN.keys())
def test_stdout_and_exit_code_are_pinned(capsys, case):
    argv, expected, *exit_code = case
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == (exit_code[0] if exit_code else 0)
    assert captured.out == expected
    assert captured.err == ""


def test_audit_of_a_zero_matrix_file_is_pinned(capsys, tmp_path):
    path = tmp_path / "zero4.matrices"
    path.write_text("alternatives: a, b, c, d\n" + "0 0 0 0\n" * 4, encoding="utf-8")
    code = main(["audit-domain", "--file", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == AUDIT_ZERO_FILE_4.format(path=path)
    assert captured.err == ""


@pytest.mark.parametrize("flags, expected", [
    ((), AUDIT_SCALED_AND_GRADED),
    (("--json",), AUDIT_SCALED_AND_GRADED_JSON),
], ids=["text", "json"])
def test_audit_of_a_scaled_duplicate_and_a_non_pc_member_is_pinned(
    capsys, tmp_path, flags, expected
):
    path = tmp_path / "scaled.matrices"
    path.write_text(SCALED_AND_GRADED, encoding="utf-8")
    code = main(["audit-domain", "--file", str(path), *flags])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == expected.replace("<path>", str(path))
    assert captured.err == ""


# R5 FAIL witnesses: the first unmet two-tier pattern, on a pair for the zero
# matrix and on the whole set for the two-tier domain on a, b, c that lacks
# the relation approving a and c
ZERO_FILE_4 = "alternatives: a, b, c, d\n" + "0 0 0 0\n" * 4

TWO_TIER_BUT_AC = """\
alternatives: a, b, c
0 0 0
0 0 0
0 0 0

0 1 1
-1 0 0
-1 0 0

0 -1 0
1 0 1
0 -1 0

0 0 -1
0 0 -1
1 1 0

0 0 1
0 0 1
-1 -1 0

0 -1 -1
1 0 0
1 0 0
"""

AUDIT_R5_ZERO_FILE_4 = """\
Richness audit of domain '<path>' (1 members):
  FAIL R5 (dichotomous_patterns) [exhaustive]: pattern approving ('a',) on \
('a', 'b') is not any member's restriction
  PASS pairwise-comparison inclusion: domain lies inside the \
pairwise-comparison class
"""

AUDIT_R5_ZERO_FILE_4_JSON = (
    '{"domain": "<path>", "members": 1, "seed": 0, "conditions": ['
    '{"condition": "R5", "name": "dichotomous_patterns", "passed": false, '
    '"mode": "exhaustive", "witness": "pattern approving (\'a\',) on '
    '(\'a\', \'b\') is not any member\'s restriction"}], '
    '"pc_inclusion": {"all_pc": true, "message": "domain lies inside the '
    'pairwise-comparison class"}}\n'
)

AUDIT_R5_TWO_TIER_BUT_AC = """\
Richness audit of domain '<path>' (6 members):
  FAIL R5 (dichotomous_patterns) [exhaustive]: pattern approving ('a', 'c') \
on ('a', 'b', 'c') is not any member's restriction
  PASS pairwise-comparison inclusion: domain lies inside the \
pairwise-comparison class
"""

AUDIT_R5_TWO_TIER_BUT_AC_JSON = (
    '{"domain": "<path>", "members": 6, "seed": 0, "conditions": ['
    '{"condition": "R5", "name": "dichotomous_patterns", "passed": false, '
    '"mode": "exhaustive", "witness": "pattern approving (\'a\', \'c\') on '
    '(\'a\', \'b\', \'c\') is not any member\'s restriction"}], '
    '"pc_inclusion": {"all_pc": true, "message": "domain lies inside the '
    'pairwise-comparison class"}}\n'
)


@pytest.mark.parametrize("text, flags, expected", [
    (ZERO_FILE_4, (), AUDIT_R5_ZERO_FILE_4),
    (ZERO_FILE_4, ("--json",), AUDIT_R5_ZERO_FILE_4_JSON),
    (TWO_TIER_BUT_AC, (), AUDIT_R5_TWO_TIER_BUT_AC),
    (TWO_TIER_BUT_AC, ("--json",), AUDIT_R5_TWO_TIER_BUT_AC_JSON),
], ids=["zero-text", "zero-json", "two-tier-text", "two-tier-json"])
def test_r5_failure_witness_is_pinned(capsys, tmp_path, text, flags, expected):
    path = tmp_path / "domain.matrices"
    path.write_text(text, encoding="utf-8")
    code = main(["audit-domain", "--file", str(path), "--conditions", "R5", *flags])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == expected.replace("<path>", str(path))
    assert captured.err == ""


# One ballot text holding every ballot spelling the parser accepts.
EVERY_SPELLING = """\
universe: a, b, c, d
# partial orders: the unlisted alternatives share the bottom tier
3: a > b
1: c
# ties inside a strict order
2: b = c > a > d
1: d > a = b = c
# approval ballots, empty and not
2: approve {}
1: approve {a, b}
# utilities and raw edges
1: util a=1, b=1/2, d=-1/3
1: edges a>b, b>c, c>a
"""

AGGREGATE_EVERY_SPELLING = """\
Collective matrix (12 agents, sum of normalized agent matrices):
alternatives: a, b, c, d
    0  19/8  3/4    6
-19/8     0 35/8 45/8
 -3/4 -35/8    0  9/4
   -6 -45/8 -9/4    0
"""

AGGREGATE_EVERY_SPELLING_JSON = (
    '{"alternatives": ["a", "b", "c", "d"], "matrix": '
    '[[["0", "1"], ["19", "8"], ["3", "4"], ["6", "1"]], '
    '[["-19", "8"], ["0", "1"], ["35", "8"], ["45", "8"]], '
    '[["-3", "4"], ["-35", "8"], ["0", "1"], ["9", "4"]], '
    '[["-6", "1"], ["-45", "8"], ["-9", "4"], ["0", "1"]]], "agents": 12}\n'
)


@pytest.mark.parametrize("flags, expected", [
    ((), AGGREGATE_EVERY_SPELLING),
    (("--json",), AGGREGATE_EVERY_SPELLING_JSON),
], ids=["text", "json"])
def test_aggregate_of_every_ballot_spelling_is_pinned(capsys, tmp_path, flags, expected):
    path = tmp_path / "spellings.ballots"
    path.write_text(EVERY_SPELLING, encoding="utf-8")
    code = main(["aggregate", *flags, str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == expected
    assert captured.err == ""


# (ballot line after "universe: a, b, c, d", the error line), each exit code 2
BAD_WEAK_ORDERS = {
    "twice-within-a-tier": (
        "1: a = b = a", "error: line 2, column 12: alternative 'a' listed twice\n"),
    "twice-across-tiers": (
        "1: a > b = c > b", "error: line 2, column 16: alternative 'b' listed twice\n"),
    "unknown-name": ("1: a > e", "error: line 2, column 8: unknown alternative 'e'\n"),
    "empty-tier": ("1: a > > b", "error: line 2, column 8: missing alternative name\n"),
    "trailing-separator": (
        "1: a > b >", "error: line 2, column 11: missing alternative name\n"),
}


@pytest.mark.parametrize("line, expected", BAD_WEAK_ORDERS.values(),
                         ids=BAD_WEAK_ORDERS.keys())
def test_weak_order_ballot_errors_are_pinned(capsys, tmp_path, line, expected):
    path = tmp_path / "bad.ballots"
    path.write_text(f"universe: a, b, c, d\n{line}\n", encoding="utf-8")
    code = main(["aggregate", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == expected


# check-axioms for every --swf at --agents 2 and 3 and seeds 0-3 (three
# alternatives), in text and --json, as printed before anonymity was
# checked once per distinct sampled profile: each case is its exit code
# and its checks as (passed, name, detail).  The weak-order rules share
# their IIA line; at three agents the pool is sampled from the seed.
IIA_SAMPLED_VACUOUS = {0: 617768, 1: 618172, 2: 617920, 3: 618336}
ANONYMITY_WITNESS = {  # per rule and agent count; None: no violation
    ("pairwise-utilitarian", 2): None, ("pairwise-utilitarian", 3): None,
    ("constant", 2): None, ("constant", 3): None,
    ("dictatorial", 2): (1, 0), ("dictatorial", 3): (1, 0, 2),
}


def _axiom_checks(swf, agents, seed):
    if swf == "approval":
        pairs, checks, vacuous = {2: (49, 16807, 8688), 3: (343, 823543, 455514)}[agents]
        return 0, [
            (True, f"IIA exhaustive over {pairs}^2 dichotomous profile pairs",
             f"{checks} checks, {vacuous} vacuous, 0 violations"),
            (True, "Pareto optimality (sampled profiles)", "no violation"),
        ]
    if swf == "relative-utilitarian":
        return 1, [(False, "IIA on the intensity-flip fixture, restriction ('a', 'b')",
                    "hypothesis held and collective preferences changed")]
    if agents == 2:
        iia = (True, "IIA over 169^2 weak-order profile pairs (exhaustive)",
               "199927 checks, 103632 vacuous, 0 violations")
    else:
        iia = (True, f"IIA over 400^2 weak-order profile pairs (sampled(400, seed={seed}))",
               f"1120000 checks, {IIA_SAMPLED_VACUOUS[seed]} vacuous, 0 violations")
    witness = ANONYMITY_WITNESS[swf, agents]
    pareto = swf == "pairwise-utilitarian"
    return int(witness is not None or not pareto), [
        iia,
        (witness is None, f"anonymity over 200 sampled profiles (seed {seed})",
         "no violation" if witness is None else f"witness permutation {witness}"),
        (pareto, f"Pareto optimality over 200 unanimity cases (seed {seed})",
         "no violation" if pareto else "counterexample found"),
    ]


AXIOM_CASES = [(swf, agents, seed, json_flag)
               for swf in ("pairwise-utilitarian", "approval", "relative-utilitarian",
                           "dictatorial", "constant")
               for agents in (2, 3) for seed in range(4) for json_flag in (False, True)]


@pytest.mark.parametrize(
    "swf, agents, seed, json_flag", AXIOM_CASES,
    ids=[f"{swf}-{agents}-seed{seed}-{'json' if j else 'text'}"
         for swf, agents, seed, j in AXIOM_CASES])
def test_check_axioms_per_rule_agents_and_seed_is_pinned(capsys, swf, agents, seed,
                                                         json_flag):
    exit_code, checks = _axiom_checks(swf, agents, seed)
    if json_flag:
        expected = json.dumps({"swf": swf, "seed": seed, "checks": [
            {"name": name, "passed": passed, "detail": detail}
            for passed, name, detail in checks]}) + "\n"
    else:
        expected = f"Axiom checks for {swf} (seed {seed}):\n" + "".join(
            f"  {'PASS' if passed else 'FAIL'} {name}: {detail}\n"
            for passed, name, detail in checks)
    argv = ["check-axioms", "--swf", swf, "--agents", str(agents), "--seed", str(seed)]
    code = main(argv + ["--json"] * json_flag)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (exit_code, expected, "")
