"""Tests of the benchmark's own oracle and generators.

    python3 -m pytest -q bench/test_bench.py
"""

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracle
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ssbchoice.cli import main  # noqa: E402

TABLE1 = workloads.Command(
    "budget table1",
    ["budget", str(ROOT / "fixtures/table1.ballots"), str(ROOT / "fixtures/table1.proposals")],
    "table1",
)


def cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def cycle_matrix():
    # a > b > c > a, one voter per rotation: the unique optimum is uniform
    groups = [(1, ("order", ((0,), (1,), (2,)))),
              (1, ("order", ((1,), (2,), (0,)))),
              (1, ("order", ((2,), (0,), (1,))))]
    return oracle.collective(3, groups)


def test_table1_output_is_accepted():
    code, out = cli(TABLE1.argv)
    assert oracle.check(TABLE1, code, out) == []


def test_perturbed_table1_lottery_is_rejected():
    code, out = cli(TABLE1.argv)
    wrong = out.replace("C: 2/3 (66.7%)", "C: 7/12 (58.3%)").replace(
        "D: 0 (0.0%)", "D: 1/12 (8.3%)")
    assert wrong != out
    errors = oracle.check(TABLE1, code, wrong)
    assert any("slack" in e for e in errors)
    assert "table1 lottery is not (1/6, 1/6, 2/3, 0)" in errors


def test_wrong_exit_code_is_rejected():
    code, out = cli(TABLE1.argv)
    assert oracle.check(TABLE1, 2, out) == ["exit code 2, expected 0"]


@pytest.mark.parametrize("workload", ["committee-budget", "mass-election", "wide-arena"])
def test_generated_outputs_pass_and_perturbed_lottery_fails(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    command = next(c for c in workloads.build(workload, 5, tmp_path) if c.kind != "table1")
    if workload == "mass-election":  # keep the test fast: first 200 groups only
        command.expect["groups"] = command.expect["groups"][:200]
        text = workloads.ballots_file(command.expect["groups"],
                                      workloads.names(command.expect["m"]))
        Path(command.argv[-1]).write_text(text, encoding="utf-8")
    code, out = cli(command.argv)
    assert oracle.check(command, code, out) == []
    if command.kind == "lottery":
        payload = json.loads(out)
        names = list(payload["lottery"])
        probs = [Fraction(int(n), int(d)) for n, d in payload["lottery"].values()]
        top = max(range(len(probs)), key=probs.__getitem__)
        other = (top + 1) % len(probs)
        shift = probs[top] / 2
        probs[top] -= shift
        probs[other] += shift
        payload["lottery"] = {n: [str(p.numerator), str(p.denominator)]
                              for n, p in zip(names, probs)}
        wrong = json.dumps(payload)
    else:
        parsed = oracle.parse_budget_text(out)
        name, value, pct = parsed["allocation"][0]
        wrong = out.replace(f"  {name}: {value} ({pct}%)",
                            f"  {name}: {value + Fraction(1, 1000)} ({pct}%)")
    assert wrong != out
    assert oracle.check(command, code, wrong) != []


def test_uniqueness_decisions():
    phi = cycle_matrix()
    third = [Fraction(1, 3)] * 3
    assert oracle.check_solution(phi, "abc", third, [0, 0, 0], True) == []
    assert oracle.check_solution(phi, "abc", third, [0, 0, 0], False) == [
        "uniqueness claim False is wrong"]
    zero = [[Fraction(0)] * 3 for _ in range(3)]
    assert not oracle.is_unique_optimum(zero, [Fraction(1), Fraction(0), Fraction(0)])
    # a beats b, both tie c: the optimal face is the segment [a, c]
    phi = oracle.collective(3, [(1, ("edges", ((0, 1),)))])
    assert not oracle.is_unique_optimum(phi, [Fraction(1), Fraction(0), Fraction(0)])
    # a Condorcet winner is the unique optimum even though b and c tie
    phi = oracle.collective(3, [(1, ("order", ((0,), (1, 2))))])
    assert oracle.is_unique_optimum(phi, [Fraction(1), Fraction(0), Fraction(0)])


def test_utility_ballots_are_normalized_by_their_largest_gap():
    phi = oracle.ballot_matrix(3, ("util", (Fraction(4), Fraction(1), Fraction(0))))
    assert phi[0][1] == Fraction(3, 4) and phi[2][0] == -1
    assert oracle.ballot_matrix(2, ("util", (Fraction(1), Fraction(1)))) == [[0, 0], [0, 0]]


def test_percent_rounds_half_up():
    assert oracle.percent(Fraction(1, 6)) == "16.7"
    assert oracle.percent(Fraction(1, 2000)) == "0.1"
    assert oracle.percent(Fraction(11, 60)) == "18.3"


def test_axiom_lines_must_match():
    lines = ("PASS IIA over", "FAIL anonymity over")
    out = "Axiom checks:\n  PASS IIA over 9^2 pairs: ok\n  FAIL anonymity over 5: x\n"
    assert oracle.check_axiom_lines(lines, out) == []
    assert oracle.check_axiom_lines(lines, out.replace("FAIL", "PASS")) != []


def test_inputs_depend_only_on_the_seed(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    first = workloads.build("wide-arena", 9, tmp_path / "a")
    second = workloads.build("wide-arena", 9, tmp_path / "b")
    assert [c.expect for c in first] == [c.expect for c in second]
    assert first[0].expect != workloads.build("wide-arena", 10, tmp_path / "c")[0].expect


def test_mass_election_shares_about_twelve_percent_of_ballots(tmp_path):
    command = workloads.mass_election(random.Random(3), tmp_path)[0]
    assert sum(count for count, _ in command.expect["groups"]) == 2001
    assert command.distinct / command.n == pytest.approx(0.12, abs=0.005)


def test_command_times_are_scaled_to_the_reference_speed(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    record = run.run_command(TABLE1, 0, False, run.child_env(), tmp_path)
    assert record["ok"], record["errors"]
    yard_ms = record["yard_ms"]
    assert len(yard_ms) >= 2 and min(yard_ms) > 0
    assert record["op_ms"] == pytest.approx(
        record["raw_op_ms"] * run.REF_YARD_MS * len(yard_ms) / sum(yard_ms))
    assert record["setup_s"] == pytest.approx(
        record["raw_setup_s"] * run.REF_YARD_MS / yard_ms[0])
