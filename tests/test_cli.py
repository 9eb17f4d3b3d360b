import gc
import json
import random
import re
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from ssbchoice import Profile, SolverDefect, Universe, ballots, cli, solver
from ssbchoice.cli import main
from ssbchoice.ssb import lottery_grid

from conftest import FIXTURES


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAggregate:
    def test_delegate_matrix(self, capsys):
        code, out, _ = run(capsys, "aggregate", FIXTURES / "table1.ballots")
        assert code == 0
        assert "100 agents" in out
        assert "40" in out and "-80" in out

    def test_json_margins(self, capsys):
        code, out, _ = run(capsys, "aggregate", FIXTURES / "table1.ballots", "--json")
        payload = json.loads(out)
        assert payload["alternatives"] == ["A", "B", "C", "D"]
        assert payload["matrix"][0][1] == ["40", "1"]
        assert payload["matrix"][0][2] == ["-10", "1"]

    def test_zero_matrix_for_indifference(self, capsys):
        code, out, _ = run(
            capsys, "aggregate", FIXTURES / "empty-indifference.ballots", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert all(cell == ["0", "1"] for row in payload["matrix"] for cell in row)

    def test_huge_count_is_aggregated_once(self, capsys, tmp_path, monkeypatch):
        # expanding 10**10 agents would exhaust memory: fail fast instead
        monkeypatch.setattr(Profile, "agents", property(lambda _: pytest.fail("expanded")))
        path = tmp_path / "huge.ballots"
        path.write_text("universe: a, b\n10000000000: a > b\n1: b > a\n",
                        encoding="utf-8")
        code, out, _ = run(capsys, "aggregate", path, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["agents"] == 10000000001
        assert payload["matrix"][0][1] == ["9999999999", "1"]
        start = time.perf_counter()
        code, out, _ = run(capsys, "maximal-lottery", path, "--json")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert json.loads(out)["lottery"] == {"a": ["1", "1"], "b": ["0", "1"]}


class TestMaximalLottery:
    def test_condorcet_json(self, capsys):
        code, out, _ = run(
            capsys, "maximal-lottery", FIXTURES / "condorcet.ballots", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["lottery"] == {"a": ["1", "3"], "b": ["1", "3"], "c": ["1", "3"]}
        assert payload["unique"] is True

    def test_human_output_mentions_uniqueness(self, capsys):
        code, out, _ = run(capsys, "maximal-lottery", FIXTURES / "table1.ballots")
        assert code == 0
        assert "unique maximal lottery" in out
        assert "C: 2/3" in out

    def test_tie_is_not_unique_without_enumeration(self, capsys):
        path = FIXTURES / "empty-indifference.ballots"
        code, out, _ = run(capsys, "maximal-lottery", path)
        assert code == 0
        assert any(line.startswith("Not unique:") for line in out.splitlines())
        code, out, _ = run(capsys, "maximal-lottery", path, "--json")
        payload = json.loads(out)
        assert payload["unique"] is False
        assert "maximal_set" not in payload

    def test_max_enum_lists_the_maximal_set(self, capsys):
        for name, vertices in (("empty-indifference", 3), ("condorcet", 1)):
            code, out, _ = run(capsys, "maximal-lottery", FIXTURES / f"{name}.ballots",
                               "--json", "--max-enum", 8)
            payload = json.loads(out)
            assert len(payload["maximal_set"]) == vertices
            assert payload["unique"] is (vertices == 1)

    def test_nine_alternatives_decide_uniqueness(self, capsys, tmp_path):
        names = [f"x{i}" for i in range(9)]
        path = tmp_path / "nine.ballots"
        path.write_text("universe: " + ", ".join(names) + "\n"
                        + "".join(f"1: {' > '.join(names[i:] + names[:i])}\n"
                                  for i in range(3)),
                        encoding="utf-8")
        code, out, _ = run(capsys, "maximal-lottery", path, "--json")
        assert code == 0
        assert isinstance(json.loads(out)["unique"], bool)


class TestBudget:
    def test_delegate_allocation(self, capsys):
        code, out, _ = run(
            capsys, "budget", FIXTURES / "table1.ballots", FIXTURES / "table1.proposals"
        )
        assert code == 0
        for needle in ("Education: 1/4 (25.0%)", "Transportation: 4/15 (26.7%)",
                       "Health: 3/10 (30.0%)", "Military: 11/60 (18.3%)"):
            assert needle in out

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "budget", FIXTURES / "table1.ballots",
            FIXTURES / "table1.proposals", "--json",
        )
        payload = json.loads(out)
        assert payload["allocation"]["Military"] == ["11", "60"]
        assert payload["allocation_percent"]["Transportation"] == "26.7"
        assert payload["lottery"]["C"] == ["2", "3"]

    @staticmethod
    def seeded_ballots(seed):
        """A few weak-order ballot lines over A-D; seed 1 has no unique lottery."""
        rng = random.Random(seed)
        lines = ["universe: A, B, C, D"]
        for _ in range(rng.randint(1, 4)):
            names = list("ABCD")
            rng.shuffle(names)
            order = names[0] + "".join(rng.choice([" > ", " = "]) + n for n in names[1:])
            lines.append(f"{rng.randint(1, 3)}: {order}")
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("flags", [[], ["--max-enum", 4]], ids=["", "max-enum"])
    @pytest.mark.parametrize("source", ["table1", 0, 1, 2, 3, 4])
    def test_budget_is_maximal_lottery_plus_allocation(self, capsys, tmp_path,
                                                       source, flags):
        ballots_path = FIXTURES / "table1.ballots"
        if source != "table1":
            ballots_path = tmp_path / f"seed{source}.ballots"
            ballots_path.write_text(self.seeded_ballots(source), encoding="utf-8")
        proposals = FIXTURES / "table1.proposals"
        code, solved, _ = run(capsys, "maximal-lottery", ballots_path, *flags)
        assert code == 0
        code, budget, _ = run(capsys, "budget", ballots_path, proposals, *flags)
        assert code == 0
        assert budget.startswith(solved)
        allocation = budget[len(solved):].splitlines()
        assert allocation[0] == "Budget allocation:"
        assert [line.split(":")[0] for line in allocation[1:]] == [
            "  Education", "  Transportation", "  Health", "  Military"]

        code, solved, _ = run(capsys, "maximal-lottery", ballots_path, *flags, "--json")
        assert code == 0
        code, budget, _ = run(capsys, "budget", ballots_path, proposals, *flags, "--json")
        assert code == 0
        solved, budget = json.loads(solved), json.loads(budget)
        assert list(budget)[-2:] == ["allocation", "allocation_percent"]
        del budget["allocation"], budget["allocation_percent"]
        assert list(budget) == list(solved) and budget == solved

    @pytest.mark.parametrize("ballots_name, bland_runs", [("chain3", 0), ("table1", 1)],
                             ids=["condorcet-winner", "no-winner"])
    def test_one_solve_and_one_uniqueness_test(self, capsys, tmp_path, monkeypatch,
                                               ballots_name, bland_runs):
        # the bench's spans and solver counters wrap these two names
        calls = {"maximal_lottery": 0, "unique_optimum": 0, "_optimal_strategy": 0}
        for module, name in ((cli, "maximal_lottery"), (cli, "unique_optimum"),
                             (solver, "_optimal_strategy")):
            def counted(*args, _name=name, _wrapped=getattr(module, name)):
                calls[_name] += 1
                return _wrapped(*args)
            monkeypatch.setattr(module, name, counted)
        proposals = FIXTURES / "table1.proposals"
        if ballots_name == "chain3":
            proposals = tmp_path / "chain3.proposals"
            proposals.write_text("alternatives: a, b, c\nX: 50% 0% 100%\n"
                                 "Y: 50% 100% 0%\n", encoding="utf-8")
        code, out, _ = run(capsys, "budget", FIXTURES / f"{ballots_name}.ballots", proposals)
        assert code == 0 and "Budget allocation:" in out
        assert calls == {"maximal_lottery": 1, "unique_optimum": 1,
                         "_optimal_strategy": bland_runs}


class TestCheckAxioms:
    def test_pairwise_utilitarian_passes(self, capsys):
        code, out, _ = run(
            capsys, "check-axioms", "--alternatives", 3, "--samples", 25
        )
        assert code == 0
        assert "FAIL" not in out
        assert "IIA" in out and "anonymity" in out and "Pareto" in out

    def test_relative_utilitarian_fails(self, capsys):
        code, out, _ = run(capsys, "check-axioms", "--swf", "relative-utilitarian")
        assert code == 1
        assert "FAIL" in out

    def test_dictatorial_fails_anonymity(self, capsys):
        code, out, _ = run(
            capsys, "check-axioms", "--swf", "dictatorial", "--samples", 20
        )
        assert code == 1
        assert "anonymity" in out

    def test_constant_fails_pareto(self, capsys):
        code, out, _ = run(
            capsys, "check-axioms", "--swf", "constant", "--samples", 20
        )
        assert code == 1

    def test_approval_passes_small(self, capsys):
        code, out, _ = run(
            capsys, "check-axioms", "--swf", "approval",
            "--alternatives", 3, "--samples", 10,
        )
        assert code == 0

    def test_approval_pool_is_sampled_above_the_limit(self, capsys):
        # 7 dichotomous relations on 3 alternatives give 7^4 = 2401 profiles
        code, out, _ = run(
            capsys, "check-axioms", "--swf", "approval", "--agents", 4,
            "--samples", 5, "--seed", 3,
        )
        assert code == 0
        assert ("PASS IIA sampled(400, seed=3) over 400^2 dichotomous profile "
                "pairs: 1120000 checks") in out

    @pytest.mark.parametrize("swf, alternatives, seed", [
        ("pairwise-utilitarian", 3, 4),
        ("dictatorial", 2, 3),  # a profile repeats before the first failing one
    ])
    def test_anonymity_is_checked_once_per_distinct_profile(self, capsys, monkeypatch,
                                                            swf, alternatives, seed):
        # every sample is still drawn, in order, up to a failing one
        sampled, checked = [], []
        draw, check = cli.axioms.random_pc_profile, cli.axioms.check_anonymity

        def recording_draw(*args, **kwargs):
            sampled.append(draw(*args, **kwargs))
            return sampled[-1]

        def recording_check(handle, profile, **kwargs):
            checked.append(profile)
            return check(handle, profile, **kwargs)

        monkeypatch.setattr(cli.axioms, "random_pc_profile", recording_draw)
        monkeypatch.setattr(cli.axioms, "check_anonymity", recording_check)
        run(capsys, "check-axioms", "--swf", swf, "--alternatives", alternatives,
            "--seed", seed)
        assert checked == list(dict.fromkeys(sampled))
        if swf == "dictatorial":
            assert not check(cli.axioms.dictatorial_swf(), checked[-1]).passed
            assert 1 < len(checked) < len(sampled) < 200
        else:
            assert len(checked) < len(sampled) == 200

    def test_anonymity_relabelings_are_drawn_with_the_seed(self, capsys):
        # above 6 agents each profile is relabeled by 24 permutations drawn with
        # --seed; the dictatorial rule fails at the first that moves agent 0
        for seed in (1, 2, 3):
            code, out, _ = run(capsys, "check-axioms", "--swf", "dictatorial", "--agents", 8,
                               "--samples", 20, "--seed", seed)
            rng = random.Random(seed)
            drawn = [tuple(rng.sample(range(8), 8)) for _ in range(24)]
            first = next(pi for pi in drawn if pi[0] != 0)
            assert code == 1
            assert f"FAIL anonymity over 20 sampled profiles (seed {seed}): " \
                f"witness permutation {first}\n" in out

    @pytest.mark.parametrize("seed", [0, 11])
    def test_two_agents_build_only_the_pool(self, capsys, monkeypatch, seed):
        # the 169 pool profiles are every two-agent profile over the 13 weak
        # orders, so the samples, the relabelings and the unanimity cases
        # all come from the command's value table
        builds = []
        set_runs = Profile._set_runs

        def counting(self, universe, runs):
            builds.append(universe)
            return set_runs(self, universe, runs)

        monkeypatch.setattr(Profile, "_set_runs", counting)
        code, out, _ = run(capsys, "check-axioms", "--swf", "pairwise-utilitarian",
                           "--agents", 2, "--seed", seed)
        assert code == 0 and "169^2" in out
        assert len(builds) == 169

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "check-axioms", "--alternatives", 3, "--samples", 10, "--json"
        )
        payload = json.loads(out)
        assert payload["swf"] == "pairwise-utilitarian"
        assert all(check["passed"] for check in payload["checks"])


class TestAuditDomain:
    def test_pc_domain_passes(self, capsys):
        code, out, _ = run(capsys, "audit-domain", "--alternatives", 3)
        assert code == 0
        for tag in ("R1", "R2", "R3", "R4"):
            assert f"PASS {tag}" in out

    def test_dichotomous_includes_r5(self, capsys):
        code, out, _ = run(
            capsys, "audit-domain", "--domain", "dichotomous", "--alternatives", 4
        )
        assert code == 0
        assert "PASS R5" in out

    def test_condition_subset(self, capsys):
        code, out, _ = run(
            capsys, "audit-domain", "--alternatives", 3, "--conditions", "R2,R3"
        )
        assert code == 0
        assert "R1" not in out

    def test_domain_file_failing_r2(self, capsys, tmp_path):
        from ssbchoice import pc_extension, render_matrix, weak_order, Universe

        u = Universe(("a", "b"))
        member = pc_extension(weak_order(u, ["a", "b"]))
        path = tmp_path / "domain.matrices"
        path.write_text(render_matrix(member), encoding="utf-8")
        code, out, _ = run(capsys, "audit-domain", "--file", path,
                           "--conditions", "R2")
        assert code == 1
        assert "FAIL R2" in out

    @pytest.mark.parametrize("conditions, tags", [
        ("R2, R3", ["R2", "R3"]),
        (" r1 ,R4", ["R1", "R4"]),
    ])
    def test_conditions_with_spaces(self, capsys, conditions, tags):
        code, out, err = run(capsys, "audit-domain", "--alternatives", 3,
                             "--conditions", conditions)
        assert code == 0
        assert err == ""
        assert [line.split()[1] for line in out.splitlines()[1:-1]] == tags

    @pytest.mark.parametrize("conditions", [",", " , ", ""])
    def test_conditions_naming_nothing_exit_2(self, capsys, conditions):
        code, out, err = run(capsys, "audit-domain", "--alternatives", 3,
                             "--conditions", conditions)
        assert code == 2
        assert out == ""
        assert err == f"error: --conditions names no condition: {conditions!r}\n"

    @staticmethod
    def zero_matrix_file(tmp_path, m):
        names = [f"x{i}" for i in range(m)]
        path = tmp_path / f"zero{m}.matrices"
        path.write_text(f"alternatives: {', '.join(names)}\n"
                        + (" ".join("0" * m) + "\n") * m, encoding="utf-8")
        return path

    def test_nine_alternative_zero_matrix_is_fast(self, capsys, tmp_path):
        path = self.zero_matrix_file(tmp_path, 9)
        start = time.perf_counter()
        code, out, err = run(capsys, "audit-domain", "--file", path)
        assert time.perf_counter() - start < 0.5
        assert code == 1
        assert err == ""
        assert out == (
            f"Richness audit of domain '{path}' (1 members):\n"
            "  PASS R1 (neutrality) [exhaustive]\n"
            "  PASS R2 (full_indifference) [exhaustive]\n"
            "  PASS R3 (inversion) [exhaustive]\n"
            "  FAIL R4 (bottom_extension) [exhaustive]: no member matches a member "
            "on ('x0',) while ranking ('x0',) above a fresh alternative\n"
            "  PASS pairwise-comparison inclusion: domain lies inside the "
            "pairwise-comparison class\n"
        )

    def test_work_bound_exits_2_before_auditing(self, capsys, tmp_path):
        # one member, but C(100,1) + ... + C(100,4) ~ 4.1 million restriction sets
        path = self.zero_matrix_file(tmp_path, 100)
        start = time.perf_counter()
        code, out, err = run(capsys, "audit-domain", "--file", path)
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert out == ""
        assert err == (
            "error: the audit would check 4087975 (member, restriction set) pairs "
            f"(1 members, 100 alternatives), more than the limit of "
            f"{cli.AUDIT_WORK_LIMIT}\n"
        )

    def test_json_records_seed_and_modes(self, capsys):
        code, out, _ = run(
            capsys, "audit-domain", "--alternatives", 4,
            "--member-limit", 100, "--seed", 9, "--json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["seed"] == 9
        modes = {c["condition"]: c["mode"] for c in payload["conditions"]}
        assert modes["R1"] == modes["R2"] == "exhaustive"
        assert modes["R3"] == "exhaustive"
        assert modes["R4"].startswith("sampled(100")
        assert payload["pc_inclusion"]["all_pc"] is True


class TestCycleWitness:
    def test_chain4_finds_cycle(self, capsys):
        code, out, _ = run(capsys, "cycle-witness", FIXTURES / "chain4.ballots")
        assert code == 0
        assert "Cycle found" in out

    def test_chain3_reports_none(self, capsys):
        code, out, _ = run(capsys, "cycle-witness", FIXTURES / "chain3.ballots")
        assert code == 0
        assert "none found on grid" in out

    def test_json_cycle_values_positive(self, capsys):
        code, out, _ = run(
            capsys, "cycle-witness", FIXTURES / "chain4.ballots", "--json"
        )
        payload = json.loads(out)
        assert payload["found"] is True
        assert all(int(num) > 0 for num, _ in payload["values"])


class TestErrorHandling:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "aggregate", "/nonexistent.ballots")
        assert code == 2
        assert "error:" in err

    def test_malformed_ballots(self, capsys, tmp_path):
        path = tmp_path / "bad.ballots"
        path.write_text("universe: a, b\n1: a > zz\n", encoding="utf-8")
        code, _, err = run(capsys, "aggregate", path)
        assert code == 2
        assert "unknown alternative" in err

    def test_huge_exponent_is_rejected_fast(self, capsys, tmp_path):
        path = tmp_path / "huge.ballots"
        path.write_text("universe: a, b\n1: util a=1e1000000, b=0\n", encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run(capsys, "aggregate", path)
        assert time.perf_counter() - start < 0.1
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: line 2, column 11: decimal exponent exceeds 1000 in magnitude"
        ]

    def test_huge_declaration_is_rejected_fast(self, capsys, tmp_path):
        path = tmp_path / "wide.ballots"
        names = ", ".join(f"n{i}" for i in range(100_000))
        path.write_text(f"universe: {names}\n1: n0 > n1\n", encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run(capsys, "aggregate", path)
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: line 1, column ")
        assert err.rstrip().endswith("declaration names more than 256 alternatives")

    def test_mismatched_proposals(self, capsys, tmp_path):
        path = tmp_path / "bad.proposals"
        path.write_text("alternatives: X, Y\nrow: 50% 50%\nrow2: 50% 50%\n",
                        encoding="utf-8")
        code, _, err = run(
            capsys, "budget", FIXTURES / "table1.ballots", path
        )
        assert code == 2

    def test_duplicate_departments_exit_2(self, capsys, tmp_path):
        # a JSON allocation keyed by department would keep only one of them
        path = tmp_path / "twice.proposals"
        path.write_text("alternatives: A, B, C, D\nroads: 50% 50% 50% 50%\n"
                        "roads: 50% 50% 50% 50%\n", encoding="utf-8")
        code, out, err = run(capsys, "budget", FIXTURES / "table1.ballots", path, "--json")
        assert (code, out) == (2, "")
        assert err == "error: line 3, column 1: duplicate department 'roads'\n"

    def test_negative_share_exit_2(self, capsys, tmp_path):
        ballots = tmp_path / "one.ballots"
        ballots.write_text("universe: A, B, C, D\n1: A > B > C > D\n", encoding="utf-8")
        path = tmp_path / "negative.proposals"
        path.write_text("alternatives: A, B, C, D\nEducation: 120% 30% 20% 10%\n"
                        "Health: -20% 70% 80% 90%\n", encoding="utf-8")
        code, out, err = run(capsys, "budget", ballots, path)
        assert (code, out) == (2, "")
        assert err == "error: line 3, column 9: 'Health' has negative share -1/5 in column 'A'\n"

    @pytest.mark.parametrize("argv", [
        ["aggregate", FIXTURES / "table1.ballots", "--seed", 1],
        ["cycle-witness", FIXTURES / "chain3.ballots", "--max-enum", 3],
        ["check-axioms", "--max-enum", 3],
        ["maximal-lottery", FIXTURES / "table1.ballots", "--seed", 1],
        ["maximal-lottery", FIXTURES / "table1.ballots", "--jobs", 2],
    ])
    def test_flags_only_on_commands_that_read_them(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(capsys, *argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["check-axioms", "--alternatives", 1], "--alternatives must be between 2 and 6, got 1"),
        (["check-axioms", "--alternatives", 9], "--alternatives must be between 2 and 6, got 9"),
        (["check-axioms", "--agents", 0], "--agents must be between 1 and 50, got 0"),
        (["check-axioms", "--samples", 0], "--samples must be between 1 and 500, got 0"),
        (["audit-domain", "--alternatives", 6], "--alternatives must be between 1 and 5, got 6"),
        (["audit-domain", "--member-limit", 0], "--member-limit must be at least 1, got 0"),
        (["maximal-lottery", FIXTURES / "table1.ballots", "--max-enum", 11],
         "--max-enum must be between 0 and 10, got 11"),
        (["budget", FIXTURES / "table1.ballots", FIXTURES / "table1.proposals",
          "--max-enum", 11], "--max-enum must be between 0 and 10, got 11"),
        (["cycle-witness", FIXTURES / "chain3.ballots", "--max-denominator", 0],
         "--max-denominator must be at least 1, got 0"),
        (["check-axioms", "--agents", 10**10],
         "--agents must be between 1 and 50, got 10000000000"),
        (["check-axioms", "--swf", "approval", "--samples", 10**10],
         "--samples must be between 1 and 500, got 10000000000"),
    ])
    def test_size_limits_exit_2(self, capsys, argv, message):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("module, name", [
        (cli, "AUDIT_WORK_LIMIT"),
        (cli, "MAX_SOLVE_ALTERNATIVES"),
        (cli, "MAX_GRID_LOTTERIES"),
        (cli, "MAX_AXIOM_AGENTS"),
        (cli, "MAX_AXIOM_SAMPLES"),
        (ballots, "MAX_ALTERNATIVES"),
        (ballots, "MAX_EXPONENT"),
        (ballots, "MAX_INPUT_BYTES"),
    ])
    def test_readme_lists_every_bound(self, module, name):
        readme = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
        limits = readme[readme.index("Size limits"):readme.index("Exit codes:")]
        # the value, digit groups optionally spaced, then the qualified name
        digits = str(getattr(module, name))
        groups = [digits[max(0, k - 3):k] for k in range(len(digits), 0, -3)][::-1]
        qualified = f"{module.__name__.rsplit('.', 1)[1]}.{name}"
        pattern = r"(?<!\d)" + " ?".join(groups) + rf"\s+\(`{re.escape(qualified)}`"
        assert re.search(pattern, limits)

    @staticmethod
    def linear_order_file(tmp_path, m):
        path = tmp_path / f"order{m}.ballots"
        names = [f"n{i}" for i in range(m)]
        path.write_text(f"universe: {', '.join(names)}\n1: {' > '.join(names)}\n",
                        encoding="utf-8")
        return path

    @pytest.mark.parametrize("command", ["maximal-lottery", "budget"])
    def test_solving_commands_cap_alternatives(self, capsys, tmp_path, command):
        cap = cli.MAX_SOLVE_ALTERNATIVES
        proposals = [FIXTURES / "table1.proposals"] if command == "budget" else []
        path = self.linear_order_file(tmp_path, cap + 1)
        start = time.perf_counter()
        code, out, err = run(capsys, command, path, *proposals)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err == (f"error: {path} has {cap + 1} alternatives; solving "
                       f"commands accept at most {cap}\n")

    def test_solve_at_the_cap(self, capsys, tmp_path):
        path = self.linear_order_file(tmp_path, cli.MAX_SOLVE_ALTERNATIVES)
        code, out, _ = run(capsys, "maximal-lottery", path, "--json")
        assert code == 0
        assert json.loads(out)["lottery"]["n0"] == ["1", "1"]

    @pytest.mark.parametrize("m, flags", [(3, ["--max-denominator", 150]), (60, [])])
    def test_cycle_witness_grid_is_bounded(self, capsys, tmp_path, m, flags):
        path = self.linear_order_file(tmp_path, m)
        start = time.perf_counter()
        code, out, err = run(capsys, "cycle-witness", path, *flags)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        denominator = flags[1] if flags else 5
        assert err == (f"error: the grid of {m} alternatives at --max-denominator "
                       f"{denominator} holds more than 1500 lotteries\n")

    def test_grid_size_counts_the_grid(self):
        for m in range(1, 5):
            universe = Universe(tuple("abcd"[:m]))
            for denominator in range(1, 9):
                assert cli._grid_size(m, denominator, 10**6) == len(
                    lottery_grid(universe, denominator))
        assert cli._grid_size(3, 40, cli.MAX_GRID_LOTTERIES) == 1470
        assert cli._grid_size(3, 41, cli.MAX_GRID_LOTTERIES) > cli.MAX_GRID_LOTTERIES

    @pytest.mark.parametrize("exc", [MemoryError, RecursionError])
    def test_resource_errors_exit_2(self, capsys, monkeypatch, exc):
        def exhausted(args):
            raise exc()

        monkeypatch.setitem(cli._COMMANDS, "aggregate", exhausted)
        code, out, err = run(capsys, "aggregate", FIXTURES / "table1.ballots")
        assert code == 2
        assert out == ""
        assert err == f"error: input too large to process ({exc.__name__})\n"

    @pytest.mark.parametrize("exc", [TypeError, IndexError, KeyError])
    def test_unexpected_exceptions_exit_3(self, capsys, monkeypatch, exc):
        # exit 1 is a FAIL verdict, so a defect of any type must not end there;
        # a KeyError is one too: the parsers reject unknown names before any
        # lookup (str(KeyError) quotes its text)
        def broken(profile):
            raise exc("broken on purpose")

        monkeypatch.setattr(cli, "utilitarian", broken)
        code, out, err = run(capsys, "aggregate", FIXTURES / "table1.ballots")
        text = "'broken on purpose'" if exc is KeyError else "broken on purpose"
        assert (code, out, err) == (3, "", f"internal error: {text}\n")

    def test_solver_defect_exits_3(self, capsys, monkeypatch):
        def broken(matrix):
            raise SolverDefect("game LP unbounded")

        monkeypatch.setattr(cli, "maximal_lottery", broken)
        code, out, err = run(capsys, "maximal-lottery", FIXTURES / "table1.ballots")
        assert code == 3
        assert out == ""
        assert err == "internal error: game LP unbounded\n"

    def test_non_optimal_strategy_exits_3(self, capsys, monkeypatch):
        # a feasible but non-optimal pure strategy has a negative slack: the
        # defect is the solver's, never the input's
        monkeypatch.setattr(solver, "_optimal_strategy",
                            lambda payoff: (1, [1] + [0] * (len(payoff) - 1)))
        code, out, err = run(capsys, "maximal-lottery", FIXTURES / "condorcet.ballots")
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("internal error: negative slack in certificate: ")

    def test_allocation_not_summing_to_one_exits_3(self, capsys, monkeypatch):
        # columns that do not sum to 1 cannot come from parse_proposals
        third = Fraction(1, 3)
        proposals = SimpleNamespace(departments=("X",), alternatives=("A", "B", "C", "D"),
                                    shares=((third,) * 4,), scaled=((3, (1,) * 4),))
        monkeypatch.setattr(cli, "parse_proposals", lambda text: proposals)
        code, _, err = run(capsys, "budget", FIXTURES / "table1.ballots",
                           FIXTURES / "table1.proposals")
        assert code == 3
        assert err.startswith("internal error: allocation sums to 1/3")


class TestByteOrderMark:
    """A file saved with a UTF-8 byte-order mark reads as it does without one."""

    @pytest.mark.parametrize("argv, text", [
        (["aggregate"], (FIXTURES / "table1.ballots").read_text(encoding="utf-8")),
        (["budget", FIXTURES / "table1.ballots"],
         (FIXTURES / "table1.proposals").read_text(encoding="utf-8")),
        (["audit-domain", "--conditions", "R2,R3", "--file"],
         "alternatives: a, b\n0 1\n-1 0\n0 -1\n1 0\n0 0\n0 0\n"),
    ], ids=["ballots", "proposals", "matrices"])
    def test_each_file_kind(self, capsys, tmp_path, argv, text):
        path = tmp_path / "input"
        path.write_text(text, encoding="utf-8")
        plain = run(capsys, *argv, path)
        assert plain[0] == 0 and plain[2] == ""
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert run(capsys, *argv, path) == plain


class TestCollector:
    """`main` pauses the cyclic garbage collector while a command runs."""

    @pytest.mark.parametrize("argv", [
        ["aggregate", FIXTURES / "table1.ballots"],
        ["budget", FIXTURES / "table1.ballots", FIXTURES / "table1.proposals",
         "--max-enum", 4],
        ["maximal-lottery", FIXTURES / "empty-indifference.ballots", "--max-enum", 3,
         "--json"],
        ["cycle-witness", FIXTURES / "chain4.ballots"],
        ["check-axioms", "--swf", "dictatorial", "--samples", 20],
        ["check-axioms", "--swf", "approval"],
        ["audit-domain", "--alternatives", 3],
        ["aggregate", FIXTURES / "missing.ballots"],
    ], ids=["aggregate", "budget", "maximal-lottery", "cycle-witness",
            "check-axioms dictatorial", "check-axioms approval", "audit-domain",
            "missing file"])
    def test_commands_leave_no_reference_cycles(self, capsys, argv):
        # what pausing rests on: no garbage a command makes needs the collector
        gc.collect()
        gc.disable()
        try:
            main([str(a) for a in argv])
        finally:
            gc.enable()
        assert gc.collect() == 0
        capsys.readouterr()

    def test_paused_during_the_command_and_resumed_after(self, capsys, monkeypatch):
        seen = []

        def command(args):
            seen.append(gc.isenabled())
            raise TypeError("broken on purpose")

        monkeypatch.setitem(cli._COMMANDS, "aggregate", command)
        assert gc.isenabled()
        code, _, _ = run(capsys, "aggregate", FIXTURES / "table1.ballots")
        assert (code, seen) == (3, [False])
        assert gc.isenabled()
