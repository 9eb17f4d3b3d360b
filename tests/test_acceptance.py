"""Acceptance suite: one test per criterion, exact comparisons throughout.

Each test prints a PASS/FAIL line (visible with `pytest -s`); names mirror
the criteria so `pytest -v` reads as the acceptance report.  All numeric
comparisons are exact rational equality; runtime budgets are asserted.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from ssbchoice import (
    Comparison,
    FeasiblePolytope,
    Lottery,
    Universe,
    choose,
    compare,
    cycle_witness,
    evaluate,
    format_percent,
    is_maximal,
    majority_margins,
    maximal_lottery,
    maximal_set,
    mix,
    budget_allocation,
    parse_ballots,
    parse_proposals,
    pareto_relation,
    pc_extension,
    restrict,
    utilitarian,
    weak_order,
)
from ssbchoice.aggregate import ParetoDominance
from ssbchoice.axioms import (
    approval_swf,
    check_iia,
    check_pareto,
    dichotomous_relations,
    exhaustive_iia,
    intensity_flip_fixture,
    pairwise_utilitarian_swf,
    profiles_over,
    random_lottery,
    random_pc_profile,
    random_relation,
    random_ssb_matrix,
    relative_utilitarian_swf,
    unanimity_case,
    weak_orders,
)

from conftest import lottery_on, permuted, read_fixture

SEED = 20260810


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    elapsed = time.monotonic() - start
    within = elapsed < budget_seconds
    print(f"{'PASS' if within else 'FAIL'} criterion {number}: {label} "
          f"({elapsed:.2f}s of {budget_seconds:.0f}s budget)")
    assert within, f"criterion {number} blew its {budget_seconds}s runtime budget"


def test_criterion_1_delegate_table_reproduction():
    with criterion(1, "delegate-table reproduction, exact", 1.0):
        profile = parse_ballots(read_fixture("table1.ballots"))
        margins = majority_margins(profile)
        for (x, y), expected in {
            ("A", "B"): 40, ("A", "C"): -10, ("A", "D"): 80,
            ("B", "C"): 10, ("B", "D"): -10, ("C", "D"): 80,
        }.items():
            assert margins[x, y] == expected

        cert = maximal_lottery(margins)
        assert cert.lottery.probs == (
            Fraction(1, 6), Fraction(1, 6), Fraction(2, 3), Fraction(0),
        )

        proposals = parse_proposals(read_fixture("table1.proposals"))
        allocation = budget_allocation(proposals, cert.lottery)
        assert allocation == (
            Fraction(1, 4), Fraction(4, 15), Fraction(3, 10), Fraction(11, 60),
        )
        assert [format_percent(x) for x in allocation] == [
            "25.0", "26.7", "30.0", "18.3",
        ]


def test_criterion_2_condorcet_reproduction():
    with criterion(2, "majority-cycle profile, exact unique solution", 1.0):
        profile = parse_ballots(read_fixture("condorcet.ballots"))
        margins = majority_margins(profile)
        assert [[int(x) for x in row] for row in margins.entries] == [
            [0, 1, -1], [-1, 0, 1], [1, -1, 0],
        ]
        vertices, unique = maximal_set(margins)
        assert unique
        assert vertices[0].probs == (Fraction(1, 3),) * 3
        assert maximal_lottery(margins).lottery == vertices[0]


def test_criterion_3_mixed_outcome_cycle():
    with criterion(3, "transitive base ranking with cyclic mixed outcomes", 5.0):
        universe = Universe(("a", "b", "c", "d"))
        phi = pc_extension(weak_order(universe, ["a", "b", "c", "d"]))
        p = universe.pure("c")
        q = Lottery.of(universe, {"a": Fraction(2, 5), "d": Fraction(3, 5)})
        r = Lottery.of(universe, {"b": Fraction(3, 5), "d": Fraction(2, 5)})
        assert evaluate(phi, p, q) == Fraction(1, 5)
        assert evaluate(phi, q, r) == Fraction(1, 25)
        assert evaluate(phi, r, p) == Fraction(1, 5)

        witness = cycle_witness(phi)
        assert witness is not None
        wp, wq, wr = witness
        assert evaluate(phi, wp, wq) > 0
        assert evaluate(phi, wq, wr) > 0
        assert evaluate(phi, wr, wp) > 0


def test_criterion_4_independence_fixtures():
    with criterion(4, "intensity rule breaks IIA; retraction leaves choice", 5.0):
        before, after, pair = intensity_flip_fixture()
        verdict = check_iia(relative_utilitarian_swf(), before, after, pair)
        assert not verdict.vacuous
        assert not verdict.passed

        profile = parse_ballots(read_fixture("table1.ballots"))
        margins = majority_margins(profile)
        full = maximal_lottery(margins).lottery
        assert full["D"] == 0
        shrunk = choose(
            margins, FeasiblePolytope.delta(margins.universe, ["A", "B", "C"])
        )
        assert shrunk == full


def test_criterion_5_exhaustive_iia_sweep():
    with criterion(5, "pairwise utilitarianism passes IIA exhaustively "
                      "(2 agents, 3 alternatives, all restrictions)", 60.0):
        universe = Universe(("a", "b", "c"))
        orders = weak_orders(universe)
        assert len(orders) == 13
        profiles = profiles_over(orders, 2, universe)
        assert len(profiles) == 169
        report = exhaustive_iia(pairwise_utilitarian_swf(), profiles)
        assert report.checked == 169 * 169 * 7
        assert report.vacuous < report.checked
        assert report.passed, report.violations[:3]
        print(f"  checked {report.checked} hypothesis/restriction triples, "
              f"{report.vacuous} vacuous, 0 violations")


def _suite_skew_symmetry(rng, count):
    universe = Universe(("a", "b", "c", "d"))
    for _ in range(count):
        phi = random_ssb_matrix(rng, universe)
        p, q = random_lottery(rng, universe), random_lottery(rng, universe)
        assert evaluate(phi, p, q) == -evaluate(phi, q, p)


def _suite_bilinearity(rng, count):
    universe = Universe(("a", "b", "c", "d"))
    for _ in range(count):
        phi = random_ssb_matrix(rng, universe)
        p, q, r = (random_lottery(rng, universe) for _ in range(3))
        lam = Fraction(rng.randint(0, 12), 12)
        blend = mix(p, r, lam)
        expected = lam * evaluate(phi, p, q) + (1 - lam) * evaluate(phi, r, q)
        assert evaluate(phi, blend, q) == expected
        expected = lam * evaluate(phi, q, p) + (1 - lam) * evaluate(phi, q, r)
        assert evaluate(phi, q, blend) == expected


def _suite_pc_oracle(rng, count):
    universe = Universe(("a", "b", "c", "d"))
    for _ in range(count):
        relation = random_relation(rng, universe)
        phi = pc_extension(relation)
        p, q = random_lottery(rng, universe), random_lottery(rng, universe)
        direct = sum(
            (p.probs[a] * q.probs[b] - q.probs[a] * p.probs[b]
             for a, b in relation.strict),
            Fraction(0),
        )
        assert evaluate(phi, p, q) == direct


def _suite_game_value_zero(rng, count):
    for _ in range(count):
        m = rng.randint(2, 5)
        universe = Universe(tuple(chr(ord("a") + i) for i in range(m)))
        phi = random_ssb_matrix(rng, universe, max_abs=3)
        cert = maximal_lottery(phi)  # internally asserts shifted value == 1/K
        assert min(cert.slack) == 0  # the symmetric game's value is exactly 0


def _support(p):
    return {n for n, x in zip(p.universe.names, p.probs) if x}


def _suite_certificate_nonnegative(rng, count):
    for _ in range(count):
        m = rng.randint(2, 5)
        universe = Universe(tuple(chr(ord("a") + i) for i in range(m)))
        phi = random_ssb_matrix(rng, universe, max_abs=3)
        sub = restrict(phi, rng.sample(universe.names, rng.randint(1, m)))
        cert = maximal_lottery(sub)
        assert all(s >= 0 for s in cert.slack)
        assert is_maximal(sub, cert.lottery)


def _suite_contraction(rng, count):
    universe = Universe(("a", "b", "c", "d"))
    names = list(universe.names)
    hits = 0
    for _ in range(count):
        phi = random_ssb_matrix(rng, universe, max_abs=2)
        big = sorted(rng.sample(names, rng.randint(2, 4)), key=names.index)
        small = restrict(phi, rng.sample(big, rng.randint(1, len(big))))
        vertices, _ = maximal_set(restrict(phi, big))
        for v in vertices:
            if _support(v) <= set(small.universe):
                hits += 1
                assert is_maximal(small, lottery_on(small.universe, v))
    return hits


def _suite_expansion(rng, count):
    universe = Universe(("a", "b", "c", "d"))
    names = list(universe.names)
    hits = 0
    for _ in range(count):
        phi = random_ssb_matrix(rng, universe, max_abs=2)
        first = rng.sample(names, rng.randint(1, 4))
        second = restrict(phi, rng.sample(names, rng.randint(1, 4)))
        p = maximal_lottery(restrict(phi, first)).lottery
        if not _support(p) <= set(second.universe):
            continue
        if not is_maximal(second, lottery_on(second.universe, p)):
            continue
        hits += 1
        union = restrict(phi, set(first) | set(second.universe))
        assert is_maximal(union, lottery_on(union.universe, p))
    return hits


def _suite_pareto(rng, count):
    universe = Universe(("a", "b", "c", "d"))
    strict_hits = weak_hits = 0
    for i in range(count):
        n = rng.randint(2, 5)
        kind = i % 3
        if kind == 0:
            profile, p, q = unanimity_case(rng, universe, n, strict=True)
        elif kind == 1:
            profile, p, q = unanimity_case(rng, universe, n, strict=False)
        else:
            profile = random_pc_profile(rng, universe, n, transitive=False)
            p, q = random_lottery(rng, universe), random_lottery(rng, universe)
        dominance = pareto_relation(profile, p, q)
        outcome = compare(majority_margins(profile), p, q)
        if dominance is ParetoDominance.STRICT_DOMINANCE:
            strict_hits += 1
            assert outcome is Comparison.PREFERRED
        elif dominance is ParetoDominance.WEAK_ONLY:
            weak_hits += 1
            assert outcome is Comparison.INDIFFERENT
    return strict_hits, weak_hits


def _suite_anonymity(rng, count):
    universe = Universe(("a", "b", "c", "d"))
    for _ in range(count):
        n = rng.randint(2, 6)
        profile = random_pc_profile(rng, universe, n, transitive=False)
        pi = list(range(n))
        rng.shuffle(pi)
        assert utilitarian(permuted(profile, pi)).entries \
            == utilitarian(profile).entries


def test_criterion_6_property_suites():
    with criterion(6, "randomized property suites, >= 1000 instances each, "
                      "exact comparisons", 120.0):
        rng = random.Random(SEED)
        _suite_skew_symmetry(rng, 1000)
        print("  skew-symmetry: 1000 instances, 0 violations")
        _suite_bilinearity(rng, 1000)
        print("  bilinearity (both arguments): 1000 instances, 0 violations")
        _suite_pc_oracle(rng, 1000)
        print("  pairwise-comparison oracle equivalence: 1000 instances, "
              "0 violations")
        _suite_game_value_zero(rng, 1000)
        print("  game value exactly zero: 1000 solves, 0 violations")
        _suite_certificate_nonnegative(rng, 1000)
        print("  certificate slacks nonnegative: 1000 solves, 0 violations")
        hits = _suite_contraction(rng, 1000)
        assert hits >= 100, f"contraction suite nearly vacuous ({hits} hits)"
        print(f"  contraction on sub-simplices: 1000 instances, "
              f"{hits} non-vacuous, 0 violations")
        hits = _suite_expansion(rng, 1000)
        assert hits >= 100, f"expansion suite nearly vacuous ({hits} hits)"
        print(f"  expansion to merged simplices: 1000 instances, "
              f"{hits} non-vacuous, 0 violations")
        strict_hits, weak_hits = _suite_pareto(rng, 10000)
        assert strict_hits >= 1000 and weak_hits >= 1000
        print(f"  Pareto optimality of pairwise utilitarianism: 10000 draws, "
              f"{strict_hits} strict / {weak_hits} indifferent, 0 violations")
        _suite_anonymity(rng, 1000)
        print("  anonymity of pairwise utilitarianism: 1000 instances, "
              "0 violations")


def test_criterion_7_approval_characterization():
    with criterion(7, "approval rule: exhaustive IIA + Pareto on dichotomous "
                      "profiles, score-order ranking", 60.0):
        universe = Universe(("a", "b", "c", "d"))
        relations = dichotomous_relations(universe)
        assert len(relations) == 15
        profiles = profiles_over(relations, 2, universe)
        assert len(profiles) == 225

        handle = approval_swf()
        report = exhaustive_iia(handle, profiles)
        assert report.checked == 225 * 225 * 15
        assert report.passed, report.violations[:3]
        print(f"  IIA: {report.checked} checks, {report.vacuous} vacuous, "
              "0 violations")

        pure = [universe.pure(n) for n in universe.names]
        halves = [
            mix(pure[i], pure[j], Fraction(1, 2))
            for i in range(4) for j in range(i + 1, 4)
        ]
        points = pure + halves
        pairs = [(p, q) for p in points for q in points]
        strict_total = 0
        for profile in profiles:
            verdict = check_pareto(handle, profile, pairs=pairs)
            assert verdict.passed, verdict.counterexample
            strict_total += verdict.strict_cases
        assert strict_total > 0
        print(f"  Pareto: {len(profiles)} profiles x {len(pairs)} lottery pairs, "
              "0 violations")

        from ssbchoice import approval_aggregate

        for profile in profiles:
            scores, matrix = approval_aggregate(profile)
            for x in universe.names:
                for y in universe.names:
                    got = compare(matrix, universe.pure(x), universe.pure(y))
                    want = (
                        Comparison.PREFERRED if scores[x] > scores[y]
                        else Comparison.DISPREFERRED if scores[x] < scores[y]
                        else Comparison.INDIFFERENT
                    )
                    assert got is want
        print("  pure-outcome ranking equals approval-score order on all "
              "225 profiles")
