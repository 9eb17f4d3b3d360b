import itertools
import math
import random
from fractions import Fraction

import pytest

from ssbchoice import (
    BaseRelation,
    Comparison,
    ParetoDominance,
    Profile,
    SSBMatrix,
    Universe,
    UtilityVector,
    approval_aggregate,
    compare,
    evaluate,
    majority_margins,
    mix,
    normalize,
    pareto_relation,
    pc_extension,
    relative_utilitarian_vnm,
    separable,
    to_matrix,
    utilitarian,
    weak_order,
)
from ssbchoice.axioms import (
    random_fraction,
    random_pc_profile,
    random_relation,
    random_ssb_matrix,
    random_weak_order,
)
from conftest import permuted
from test_ssb import ReferenceSSBMatrix, scaled

ABC = Universe(("a", "b", "c"))


def plus(phi, psi):
    """The entrywise sum of two matrices, built through the constructor."""
    return SSBMatrix(phi.universe, [[x + y for x, y in zip(r, s)]
                                    for r, s in zip(phi.entries, psi.entries)])


def entry_types(matrix):
    # tuple equality alone would take 1 == Fraction(1)
    return [list(map(type, row)) for row in matrix.entries]


class TestMajorityMargins:
    def test_delegate_profile(self, table1_margins):
        expect = {
            ("A", "B"): 40, ("A", "C"): -10, ("A", "D"): 80,
            ("B", "C"): 10, ("B", "D"): -10, ("C", "D"): 80,
        }
        for (x, y), margin in expect.items():
            assert table1_margins[x, y] == margin
            assert table1_margins[y, x] == -margin

    def test_all_indifferent(self):
        profile = Profile(ABC, (weak_order(ABC, [ABC.names]),) * 3)
        assert majority_margins(profile) == SSBMatrix.zero(ABC)

    def test_condorcet_cycle(self, condorcet_matrix):
        assert condorcet_matrix.entries == SSBMatrix(
            ABC, [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]
        ).entries

    def test_rejects_non_relation_agents(self):
        profile = Profile(ABC, (UtilityVector.of(ABC, {"a": 1}),))
        with pytest.raises(TypeError):
            majority_margins(profile)

    def test_equals_sum_of_pc_matrices(self):
        rng = random.Random(13)
        u = Universe(("a", "b", "c", "d"))
        for _ in range(150):
            agents = tuple(random_relation(rng, u) for _ in range(rng.randint(1, 5)))
            profile = Profile(u, agents)
            total = SSBMatrix.zero(u)
            for agent in agents:
                total = plus(total, pc_extension(agent))
            assert majority_margins(profile).entries == total.entries


def _mixed_agent(rng, universe):
    kind = rng.randrange(5)
    if kind == 0:
        return random_weak_order(rng, universe)
    if kind == 1:
        return random_relation(rng, universe)
    if kind == 2:
        return UtilityVector(universe, tuple(random_fraction(rng) for _ in universe))
    if kind == 3:
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        return scaled(random_ssb_matrix(rng, universe), scale)
    return weak_order(universe, [universe.names])


def _mixed_profiles(seed, count=60):
    rng = random.Random(seed)
    for _ in range(count):
        u = Universe(tuple("abcde"[: rng.randint(2, 5)]))
        runs = [
            (_mixed_agent(rng, u), rng.randint(1, 5)) for _ in range(rng.randint(1, 6))
        ]
        yield Profile.from_runs(u, runs)


def _brute_force_sum(profile):
    total = SSBMatrix.zero(profile.universe)
    for agent in profile.agents:
        total = plus(total, normalize(to_matrix(agent)))
    return total


def _canonical(x):
    return x.numerator if x.denominator == 1 else x


def reference_utilitarian(profile):
    """`utilitarian` as it was before the integer form: each non-relation
    agent normalized (`separable` for a vNM agent, then divided by its
    largest entry) and its positive part summed in ints and Fractions,
    entry by entry."""
    m = len(profile.universe)
    grid = [[0] * m for _ in range(m)]
    for agent, count in profile.runs:
        if isinstance(agent, BaseRelation):
            for a, b in agent.strict:
                grid[a][b] += count
            continue
        if isinstance(agent, UtilityVector):
            rows = ReferenceSSBMatrix(profile.universe, tuple(
                tuple(ua - ub for ub in agent.values) for ua in agent.values)).entries
        else:
            rows = ReferenceSSBMatrix(profile.universe, agent.entries).entries
        top = max(map(max, rows))
        if top not in (0, 1):
            rows = tuple(tuple(_canonical(Fraction(x, top)) for x in row) for row in rows)
        for target, row in zip(grid, rows):
            for b, x in enumerate(row):
                if x > 0:
                    target[b] += count * x
    return ReferenceSSBMatrix(
        profile.universe,
        tuple(tuple(grid[a][b] - grid[b][a] for b in range(m)) for a in range(m)),
    )


def _exponent_fraction(rng):
    """A utility with an exponent-sized denominator, like `417e-953`."""
    return Fraction(rng.randint(0, 999), 10 ** rng.randint(1, 60))


def _reference_agent(rng, universe):
    """A weak order, an approval, an `edges` relation, a vNM agent (small,
    exponent-sized or constant utilities), an SSB matrix or indifference."""
    kind = rng.randrange(8)
    if kind == 0:
        return random_weak_order(rng, universe)
    if kind == 1:
        return random_relation(rng, universe)
    if kind == 7:
        approved = rng.sample(universe.names, rng.randint(1, len(universe)))
        return weak_order(universe, [approved])
    if kind == 2:
        return UtilityVector(universe, tuple(random_fraction(rng) for _ in universe))
    if kind == 3:
        return UtilityVector(universe, tuple(_exponent_fraction(rng) for _ in universe))
    if kind == 4:
        return UtilityVector(universe, (random_fraction(rng),) * len(universe))
    if kind == 5:
        scale = rng.choice([1, Fraction(rng.randint(1, 9), rng.randint(1, 4))])
        return scaled(random_ssb_matrix(rng, universe), scale)
    return weak_order(universe, [universe.names])


class TestAgainstTheReferenceRule:
    def test_value_and_entry_types(self):
        rng = random.Random(26)
        scales = set()
        for _ in range(1200):
            u = Universe(tuple("abcde"[: rng.randint(1, 5)]))
            runs = [(_reference_agent(rng, u), rng.randint(1, 5))
                    for _ in range(rng.randint(1, 6))]
            profile = Profile.from_runs(u, runs)
            got, want = utilitarian(profile), reference_utilitarian(profile)
            assert got.entries == want.entries
            assert entry_types(got) == entry_types(want)
            assert hash(got) == hash(want)
            scales.add(got.scaled[0] == 1)
        assert scales == {True, False}


def pair_loop_utilitarian(profile):
    """`utilitarian` as it was while every weak order held its strict pairs:
    each base relation's pairs added one by one into the skew grid, any
    other agent's positive part scaled into it over a rising denominator.
    Reading `strict` derives a tier-form relation's pairs and keeps them,
    so the tier-form sum must run first."""
    m = len(profile.universe)
    grid = [[0] * m for _ in range(m)]
    denominator = 1
    for agent, count in profile.runs:
        if isinstance(agent, BaseRelation):
            weight = count * denominator
            for a, b in agent.strict:
                grid[a][b] += weight
                grid[b][a] -= weight
            continue
        rows = to_matrix(agent).scaled[1]
        top = max(map(max, rows))
        if top:
            common = math.lcm(denominator, top)
            if common != denominator:
                grid = [[x * (common // denominator) for x in row] for row in grid]
                denominator = common
            weight = count * (common // top)
            for a, (target, row) in enumerate(zip(grid, rows)):
                for b, x in enumerate(row):
                    if x > 0:
                        x *= weight
                        target[b] += x
                        grid[b][a] -= x
    return SSBMatrix.from_scaled(profile.universe, denominator, grid)


def _tier_form_agent(rng, universe):
    """A partial weak order, approve-none or approve-all (tier form), an
    `edges` relation (pair form), or a vNM agent whose denominators raise
    the running one; sparse at large m, as ballots are.  Returns the agent
    and, for a weak order, whether its ballot listed every name (None for
    any other agent)."""
    m = len(universe)
    kind = rng.randrange(6)
    if kind <= 1:
        listed = rng.sample(universe.names, rng.randint(1, min(m, 6)))
        tiers = [[]]
        for name in listed:
            tiers[-1].append(name)
            if rng.random() < 0.6:
                tiers.append([])
        return weak_order(universe, tiers), len(listed) == m
    if kind == 2:
        if rng.random() < 0.5:
            return weak_order(universe, []), False
        return weak_order(universe, [universe.names]), True
    if kind == 3:
        pairs = set()
        for _ in range(rng.randint(0, min(m * (m - 1) // 2, 8))):
            a, b = rng.sample(range(m), 2) if m > 1 else (0, 0)
            if a != b and (b, a) not in pairs:
                pairs.add((a, b))
        return BaseRelation(universe, pairs), None
    values = {name: Fraction(rng.randint(-9, 9), rng.randint(1, 40))
              for name in rng.sample(universe.names, min(m, 4))}
    return UtilityVector.of(universe, values), None


def _tier_form_runs(rng, universe):
    """1 to 12 runs of `_tier_form_agent`s, as (agent, listed every name,
    multiplicity)."""
    return [(*_tier_form_agent(rng, universe), rng.choice([1, 1, 2, 7, 10**12]))
            for _ in range(rng.randint(1, 12))]


def _committee_runs(rng, universe):
    """A committee-budget election as the benchmark writes it, in the form
    of `_tier_form_runs`: 12 factions over 101 voters, one in four an
    approval of 1 to m - 1 names, the others weak orders that list every
    name, each name tied with the one before it with probability 0.3."""
    cuts = sorted(rng.sample(range(1, 101), 11))
    runs = []
    for count in [b - a for a, b in zip([0, *cuts], [*cuts, 101])]:
        names = list(universe.names)
        if rng.random() < 0.25:
            approved = rng.sample(names, rng.randint(1, len(names) - 1))
            runs.append((weak_order(universe, [approved]), False, count))
            continue
        rng.shuffle(names)
        tiers = [[names[0]]]
        for name in names[1:]:
            if rng.random() < 0.3:
                tiers[-1].append(name)
            else:
                tiers.append([name])
        runs.append((weak_order(universe, tiers), True, count))
    return runs


_SUM_INPUTS = ([(_tier_form_runs, m) for m in [*range(1, 9), 256]]
               + [(_committee_runs, m) for m in (4, 5, 6)])


class TestTierFormSum:
    """The tier-form sum against the pair loop it replaced."""

    @pytest.mark.parametrize("draw, m", _SUM_INPUTS, ids=[
        f"{m}" if draw is _tier_form_runs else f"committee-{m}" for draw, m in _SUM_INPUTS])
    def test_matches_the_pair_loop(self, draw, m):
        rng = random.Random(33 + m)
        universe = Universe(tuple(f"x{i}" for i in range(m)))
        derived = 0
        listed = set()  # whether a tier-form order's ballot listed every name
        for _ in range(8 if m == 256 else 150):
            built = draw(rng, universe)
            for agent, full, _ in built:
                if full is not None and rng.random() < 0.3:
                    agent.strict  # pairs derived and kept change nothing
                    derived += 1
            profile = Profile.from_runs(universe, [(agent, count) for agent, _, count in built])
            fresh = [(agent, full) for agent, full, _ in built
                     if full is not None and "strict" not in vars(agent)]
            got = utilitarian(profile)
            # the sum adds those orders by their tiers and derives no pairs
            assert not any("strict" in vars(agent) for agent, _ in fresh)
            listed.update(full for _, full in fresh)
            want = pair_loop_utilitarian(profile)
            assert got.scaled == want.scaled
            assert got == want
        # orders that list every name and orders that leave names out were
        # both summed by their tiers
        assert derived and listed == {True, False}


class TestAggregationKernel:
    """The rule against an agent-by-agent sum of SSBMatrix objects."""

    def test_utilitarian_matches_brute_force(self):
        for profile in _mixed_profiles(41):
            assert utilitarian(profile).entries == _brute_force_sum(profile).entries

    def test_relation_runs_around_denominator_raises_are_pinned(self):
        # the vNM agent raises the running denominator to 3 and the scaled
        # matrix to 15, rescaling a grid whose two triangles are both
        # written; the 120 run orders put relation runs before, between and
        # after those raises
        runs = [
            (weak_order(ABC, ["a", "b", "c"]), 2),
            (UtilityVector(ABC, (0, Fraction(1, 3), 1)), 1),
            (weak_order(ABC, ["c", "a", "b"]), 3),
            (scaled(SSBMatrix(ABC, [[0, 5, -2], [-5, 0, 1], [2, -1, 0]]),
                    Fraction(1, 7)), 2),
            (BaseRelation(ABC, frozenset({(1, 2), (2, 0)})), 1),
        ]
        for order in itertools.permutations(runs):
            profile = Profile.from_runs(ABC, order)
            got = utilitarian(profile).scaled
            assert got == _brute_force_sum(profile).scaled
            assert got == (15, ((0, 100, -57), (-100, 0, -4), (57, 4, 0)))

    def test_majority_margins_is_utilitarian_on_relations(self):
        rng = random.Random(43)
        u = Universe(("a", "b", "c", "d"))
        for _ in range(40):
            runs = [(random_relation(rng, u), rng.randint(1, 5)) for _ in range(4)]
            profile = Profile.from_runs(u, runs)
            assert majority_margins(profile).entries == utilitarian(profile).entries


class TestUtilitarian:
    def test_condorcet(self, condorcet_profile, condorcet_matrix):
        assert utilitarian(condorcet_profile).entries == condorcet_matrix.entries

    def test_single_agent_identity(self):
        agent = weak_order(ABC, ["a", "b", "c"])
        profile = Profile(ABC, (agent,))
        assert utilitarian(profile).entries == normalize(pc_extension(agent)).entries

    def test_opposed_agents_cancel(self):
        profile = Profile(ABC, (weak_order(ABC, ["a", "b", "c"]),
                                weak_order(ABC, ["c", "b", "a"])))
        assert utilitarian(profile) == SSBMatrix.zero(ABC)

    def test_normalizes_before_summing(self):
        # a scaled matrix must not act as a hidden weight
        loud = scaled(pc_extension(weak_order(ABC, ["a", "b", "c"])), 100)
        quiet = pc_extension(weak_order(ABC, ["c", "b", "a"]))
        profile = Profile(ABC, (loud, quiet))
        assert utilitarian(profile) == SSBMatrix.zero(ABC)

    def test_equals_majority_margins(self):
        rng = random.Random(19)
        u = Universe(("a", "b", "c", "d"))
        for _ in range(100):
            profile = random_pc_profile(rng, u, rng.randint(1, 4), transitive=False)
            assert utilitarian(profile).entries == majority_margins(profile).entries


class TestRelativeUtilitarian:
    def test_prefers_first_alternative(self):
        profile = Profile(ABC, (
            UtilityVector.of(ABC, {"a": 1, "b": 0, "c": 0}),
            UtilityVector.of(ABC, {"a": Fraction(1, 3), "b": 1, "c": 0}),
        ))
        out = relative_utilitarian_vnm(profile)
        assert out["a", "b"] == Fraction(4, 3) - 1
        assert compare(out, ABC.pure("a"), ABC.pure("b")) is Comparison.PREFERRED

    def test_intensity_shift_flips_pair(self):
        profile = Profile(ABC, (
            UtilityVector.of(ABC, {"a": 1, "b": Fraction(1, 2), "c": 0}),
            UtilityVector.of(ABC, {"a": Fraction(1, 3), "b": 1, "c": 0}),
        ))
        out = relative_utilitarian_vnm(profile)
        assert compare(out, ABC.pure("b"), ABC.pure("a")) is Comparison.PREFERRED

    def test_single_agent_normalized(self):
        u = UtilityVector.of(ABC, {"a": 6, "b": 2, "c": 2})
        profile = Profile(ABC, (u,))
        # rescaled to [0, 1], the agent's utilities are (1, 0, 0)
        out = relative_utilitarian_vnm(profile)
        assert out == separable(UtilityVector(ABC, (1, 0, 0)))

    def test_constant_agents_contribute_zero(self):
        profile = Profile(ABC, (UtilityVector.of(ABC, {}),))
        assert relative_utilitarian_vnm(profile) == SSBMatrix.zero(ABC)

    @staticmethod
    def rescaled_sum(profile):
        """Reference: separable of the sum of each non-constant agent's
        utilities rescaled to [0, 1]."""
        total = [Fraction(0)] * len(profile.universe)
        for agent in profile.agents:
            lo, hi = min(agent.values), max(agent.values)
            if lo != hi:
                total = [t + (v - lo) / (hi - lo) for t, v in zip(total, agent.values)]
        return separable(UtilityVector(profile.universe, tuple(total)))

    def test_equals_utilitarian(self):
        # the sum of the agents' utilities rescaled to [0, 1] is the sum of
        # their normalized matrices, in entries and in entry types
        rng = random.Random(37)
        for _ in range(1000):
            u = Universe(tuple("abcdef"[: rng.randint(2, 6)]))
            pool = [UtilityVector(u, (Fraction(1, 3),) * len(u))] + [
                UtilityVector(u, tuple(random_fraction(rng) for _ in u.names))
                for _ in range(3)
            ]
            profile = Profile(u, tuple(rng.choice(pool) for _ in range(rng.randint(1, 5))))
            got = relative_utilitarian_vnm(profile)
            for want in (utilitarian(profile), self.rescaled_sum(profile)):
                assert got.entries == want.entries
                assert entry_types(got) == entry_types(want)


class TestApprovalAggregate:
    def test_counts_approvals(self):
        profile = Profile(ABC, (
            weak_order(ABC, [["a", "b"]]),
            weak_order(ABC, [["a"]]),
            weak_order(ABC, [["c"]]),
        ))
        scores, matrix = approval_aggregate(profile)
        assert scores.values == (2, 1, 1)
        assert matrix.entries == (
            (0, 1, 1),
            (-1, 0, 0),
            (-1, 0, 0),
        )

    def test_nobody_approves_anything(self):
        profile = Profile(ABC, (weak_order(ABC, [ABC.names]),) * 2)
        scores, matrix = approval_aggregate(profile)
        assert matrix == SSBMatrix.zero(ABC) and scores.values == (0, 0, 0)

    def test_single_approver(self):
        profile = Profile(ABC, (weak_order(ABC, [["a"]]),))
        scores, matrix = approval_aggregate(profile)
        assert scores.values == (1, 0, 0)
        assert compare(matrix, ABC.pure("a"), ABC.pure("b")) is Comparison.PREFERRED
        assert compare(matrix, ABC.pure("b"), ABC.pure("c")) is Comparison.INDIFFERENT

    def test_rejects_non_dichotomous(self):
        profile = Profile(ABC, (weak_order(ABC, ["a", "b", "c"]),))
        with pytest.raises(ValueError):
            approval_aggregate(profile)

    def test_matrix_is_separable_and_majoritarian(self):
        rng = random.Random(29)
        u = Universe(("a", "b", "c", "d"))
        subsets = [(), ("a",), ("a", "b"), ("b", "d"), ("c",), ("a", "b", "c")]
        for _ in range(100):
            agents = tuple(
                weak_order(u, [list(rng.choice(subsets))] if rng.random() < 0.9
                           else [list(u.names)])
                for _ in range(rng.randint(1, 5))
            )
            profile = Profile(u, agents)
            scores, matrix = approval_aggregate(profile)
            assert matrix == separable(scores)
            margins = majority_margins(profile)
            for x in u.names:
                for y in u.names:
                    assert (matrix[x, y] > 0) == (margins[x, y] > 0)
            summed = utilitarian(profile)
            assert summed.entries == matrix.entries
            assert entry_types(summed) == entry_types(matrix)


class TestParetoRelation:
    def test_proposal_c_dominates_mixture(self, table1_profile):
        u = table1_profile.universe
        q = mix(u.pure("A"), u.pure("D"), Fraction(1, 2))
        assert pareto_relation(table1_profile, u.pure("C"), q) \
            is ParetoDominance.STRICT_DOMINANCE

    def test_identical_lotteries_weak_only(self, table1_profile):
        p = table1_profile.universe.pure("B")
        assert pareto_relation(table1_profile, p, p) is ParetoDominance.WEAK_ONLY

    def test_condorcet_disagreement(self, condorcet_profile):
        # the second agent ranks b above a, so no dominance either way
        assert pareto_relation(
            condorcet_profile, ABC.pure("a"), ABC.pure("b")
        ) is ParetoDominance.NONE

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_base_relations_match_their_pc_matrices(self, m):
        # reference: the sign of p' PC q through each relation's PC matrix
        from ssbchoice.axioms import random_lottery

        rng = random.Random(50 + m)
        u = Universe("abcde"[:m])
        pure = [u.pure(n) for n in u.names]
        seen = set()
        for _ in range(200):
            agents = [random_relation(rng, u) for _ in range(rng.randint(1, 2))]
            if rng.random() < 0.3:
                agents.insert(rng.randint(0, len(agents)), weak_order(u, [u.names]))
            p, q = (rng.choice(pure) if rng.random() < 0.4 else random_lottery(rng, u)
                    for _ in range(2))
            values = [evaluate(pc_extension(r), p, q) for r in agents]
            if any(v < 0 for v in values):
                expected = ParetoDominance.NONE
            elif any(v > 0 for v in values):
                expected = ParetoDominance.STRICT_DOMINANCE
            else:
                expected = ParetoDominance.WEAK_ONLY
            assert pareto_relation(Profile(u, agents), p, q) is expected
            seen.add(expected)
        assert seen == set(ParetoDominance)

    def test_partition_of_agents(self):
        rng = random.Random(37)
        u = Universe(("a", "b", "c", "d"))
        from ssbchoice.axioms import random_lottery

        for _ in range(150):
            profile = random_pc_profile(rng, u, 4, transitive=False)
            p, q = random_lottery(rng, u), random_lottery(rng, u)
            prefers_p = prefers_q = indifferent = 0
            for agent in profile.agents:
                value = evaluate(to_matrix(agent), p, q)
                if value > 0:
                    prefers_p += 1
                elif value < 0:
                    prefers_q += 1
                else:
                    indifferent += 1
            assert prefers_p + prefers_q + indifferent == profile.n


class TestSymmetryProperties:
    def test_anonymity_under_agent_permutation(self):
        rng = random.Random(41)
        u = Universe(("a", "b", "c", "d"))
        for _ in range(100):
            profile = random_pc_profile(rng, u, 5)
            pi = list(range(5))
            rng.shuffle(pi)
            assert majority_margins(permuted(profile, pi)).entries \
                == majority_margins(profile).entries
            assert utilitarian(permuted(profile, pi)).entries \
                == utilitarian(profile).entries

    def test_neutrality_under_relabeling(self):
        rng = random.Random(43)
        u = Universe(("a", "b", "c", "d"))
        for _ in range(100):
            profile = random_pc_profile(rng, u, 3)
            names = list(u.names)
            rng.shuffle(names)
            mapping = dict(zip(u.names, names))
            relabeled = Profile(u, tuple(a.relabel(mapping) for a in profile.agents))
            assert majority_margins(relabeled).entries \
                == majority_margins(profile).relabel(mapping).entries

    def test_majority_rule_on_pure_outcomes(self):
        rng = random.Random(47)
        u = Universe(("a", "b", "c", "d"))
        for _ in range(100):
            profile = random_pc_profile(rng, u, rng.randint(1, 7))
            margins = majority_margins(profile)
            for x in u.names:
                for y in u.names:
                    xy, yx = (u.index(x), u.index(y)), (u.index(y), u.index(x))
                    ahead = sum(1 for a in profile.agents if xy in a.strict)
                    behind = sum(1 for a in profile.agents if yx in a.strict)
                    got = compare(margins, u.pure(x), u.pure(y))
                    if ahead > behind:
                        assert got is Comparison.PREFERRED
                    elif ahead < behind:
                        assert got is Comparison.DISPREFERRED
                    else:
                        assert got is Comparison.INDIFFERENT
