import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from ssbchoice import (
    BaseRelation,
    FeasiblePolytope,
    Lottery,
    Profile,
    Universe,
    UniverseMismatchError,
    UtilityVector,
    approved_set,
    is_dichotomous,
    mix,
    parse_ballots,
    utilitarian,
    weak_order,
)
from ssbchoice.axioms import _ordered_partitions
from ssbchoice.model import ranked_order
from ssbchoice.ssb import _over_common_denominator

ABC = Universe(("a", "b", "c"))


class TestUniverse:
    def test_index_bijection(self):
        u = Universe(("x", "y", "z"))
        assert [u.index(n) for n in u.names] == [0, 1, 2]
        assert u.names[u.index("y")] == "y"

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError):
            Universe(("a", "a"))
        with pytest.raises(ValueError):
            Universe(())
        with pytest.raises(ValueError):
            Universe(("a", ""))

    def test_subset_preserves_order(self):
        u = Universe(("a", "b", "c", "d"))
        assert u.subset(["d", "b"]) == ("b", "d")
        with pytest.raises(KeyError):
            u.subset(["b", "nope"])
        with pytest.raises(ValueError):
            u.subset([])


class TestLottery:
    def test_validation(self):
        with pytest.raises(ValueError):
            Lottery(ABC, (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
        with pytest.raises(ValueError):
            Lottery(ABC, (Fraction(3, 2), Fraction(-1, 2), Fraction(0)))
        with pytest.raises(ValueError):
            Lottery(ABC, (Fraction(1),))

    def test_error_messages(self):
        with pytest.raises(ValueError) as info:
            Lottery(ABC, (Fraction(3, 2), Fraction(-1, 2), Fraction(0)))
        assert str(info.value) == (
            "negative probability in "
            "(Fraction(3, 2), Fraction(-1, 2), Fraction(0, 1))"
        )
        with pytest.raises(ValueError) as info:
            Lottery(ABC, (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
        assert str(info.value) == "probabilities sum to 3/2, not 1"
        with pytest.raises(ValueError) as info:
            Lottery(ABC, (Fraction(1, 2), Fraction(1, 4), 0))
        assert str(info.value) == "probabilities sum to 3/4, not 1"

    def test_integer_form(self):
        rng = random.Random(5)
        for _ in range(50):
            weights = [rng.randint(0, 6) for _ in range(3)]
            weights[rng.randrange(3)] += 1
            probs = tuple(Fraction(w, sum(weights)) for w in weights)
            p = Lottery(ABC, probs)
            d, nums = _over_common_denominator(probs)
            assert p.scaled == (d, tuple(nums))
            assert all(Fraction(x, d) == y for x, y in zip(nums, probs))

    def test_integer_form_is_not_part_of_the_value(self):
        p = Lottery.of(ABC, {"a": Fraction(1, 3), "c": Fraction(2, 3)})
        q = Lottery(ABC, (Fraction(1, 3), 0, "2/3"))
        assert p == q and hash(p) == hash(q)
        assert "scaled" not in repr(p)

    def test_support(self):
        p = Lottery.of(ABC, {"a": Fraction(1, 3), "c": Fraction(2, 3)})
        assert p.support() == ("a", "c")
        assert p["b"] == 0

    def test_pure(self):
        p = ABC.pure("b")
        assert p.probs == (Fraction(0), Fraction(1), Fraction(0))
        assert p.support() == ("b",)


class TestMix:
    def test_exact_mixture(self):
        p = ABC.pure("a")
        q = ABC.pure("b")
        half = mix(p, q, Fraction(1, 2))
        assert half.probs == (Fraction(1, 2), Fraction(1, 2), Fraction(0))

    def test_idempotent_and_boundary(self):
        p = Lottery.of(ABC, {"a": Fraction(1, 7), "b": Fraction(6, 7)})
        q = ABC.pure("c")
        assert mix(p, p, Fraction(3, 8)) == p
        assert mix(p, q, 1) == p
        assert mix(p, q, 0) == q

    def test_never_rounds(self):
        rng = random.Random(7)
        for _ in range(300):
            weights = [rng.randint(0, 9) for _ in range(3)]
            if not any(weights):
                weights[0] = 1
            total = sum(weights)
            p = Lottery(ABC, tuple(Fraction(w, total) for w in weights))
            lam = Fraction(rng.randint(0, 12), 12)
            q = mix(p, ABC.pure("a"), lam)
            assert sum(q.probs) == 1

    def test_errors(self):
        other = Universe(("a", "b", "x"))
        with pytest.raises(UniverseMismatchError):
            mix(ABC.pure("a"), other.pure("a"), Fraction(1, 2))
        with pytest.raises(ValueError):
            mix(ABC.pure("a"), ABC.pure("b"), Fraction(3, 2))


class TestBaseRelation:
    def test_asymmetry_enforced(self):
        with pytest.raises(ValueError):
            BaseRelation(ABC, frozenset({(0, 1), (1, 0)}))
        with pytest.raises(ValueError):
            BaseRelation(ABC, frozenset({(1, 1)}))

    def test_intransitive_cycles_are_legal(self):
        cycle = BaseRelation(ABC, frozenset({(0, 1), (1, 2), (2, 0)}))
        assert cycle.prefers("a", "b") and cycle.prefers("c", "a")
        assert cycle.tiers() is None

    def test_indifference_is_complement(self):
        r = weak_order(ABC, [["a", "b"], ["c"]])
        assert r.indifferent("a", "b")
        assert not r.indifferent("a", "c")

    def test_inverse(self):
        r = weak_order(ABC, ["a", "b", "c"])
        assert r.inverse().prefers("c", "a")
        assert r.inverse().inverse() == r

    def test_random_relations_keep_invariants(self):
        rng = random.Random(3)
        for _ in range(200):
            strict = set()
            for a in range(3):
                for b in range(a + 1, 3):
                    roll = rng.randrange(3)
                    if roll == 1:
                        strict.add((a, b))
                    elif roll == 2:
                        strict.add((b, a))
            r = BaseRelation(ABC, frozenset(strict))
            for a, b in r.strict:
                assert (b, a) not in r.strict and a != b


class TestWeakOrder:
    def test_strict_chain(self):
        r = weak_order(ABC, ["a", "b", "c"])
        assert r.strict == frozenset({(0, 1), (0, 2), (1, 2)})
        assert r.tiers() == (("a",), ("b",), ("c",))

    def test_single_tier_is_indifference(self):
        r = weak_order(ABC, [["a", "b", "c"]])
        assert r.strict == frozenset()

    def test_two_tier(self):
        r = weak_order(ABC, [["a", "b"], ["c"]])
        assert r.strict == frozenset({(0, 2), (1, 2)})

    def test_unlisted_fall_to_bottom(self):
        u = Universe(("a", "b", "c", "d"))
        r = weak_order(u, ["a"])
        assert r.tiers() == (("a",), ("b", "c", "d"))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            weak_order(ABC, [["a"], ["a", "b"]])


# The bodies of `weak_order` and `BaseRelation.tiers` from before both
# built their pairs through `ranked_order`, kept as references.
def reference_weak_order(universe, tiers):
    norm = []
    seen = set()
    for tier in tiers:
        names = [tier] if isinstance(tier, str) else list(tier)
        idx = tuple(universe.index(n) for n in names)
        for i in idx:
            if i in seen:
                raise ValueError(
                    f"alternative {universe.names[i]!r} appears in two tiers"
                )
            seen.add(i)
        if idx:
            norm.append(idx)
    rest = tuple(i for i in range(len(universe)) if i not in seen)
    if rest:
        norm.append(rest)
    strict = set()
    for hi, tier in enumerate(norm):
        for low_tier in norm[hi + 1 :]:
            strict.update((a, b) for a in tier for b in low_tier)
    return BaseRelation(universe, frozenset(strict))


def reference_tiers(relation):
    m = len(relation.universe)
    dominated = [0] * m
    for a, b in relation.strict:
        dominated[a] += 1
    order = sorted(range(m), key=lambda i: (-dominated[i], i))
    tiers = []
    for i in order:
        if tiers and dominated[tiers[-1][0]] == dominated[i]:
            tiers[-1].append(i)
        else:
            tiers.append([i])
    rebuilt = set()
    for hi, tier in enumerate(tiers):
        for low_tier in tiers[hi + 1 :]:
            rebuilt.update((a, b) for a in tier for b in low_tier)
    if rebuilt != set(relation.strict):
        return None
    return tuple(
        tuple(relation.universe.names[i] for i in sorted(tier)) for tier in tiers
    )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the exception type and text are the outcome
        return type(exc), str(exc)


def _all_relations(universe):
    """Every asymmetric relation over the universe: 3^(m choose 2) of them."""
    pairs = list(itertools.combinations(range(len(universe)), 2))
    for signs in itertools.product((-1, 0, 1), repeat=len(pairs)):
        yield BaseRelation(universe, frozenset(
            (a, b) if s > 0 else (b, a) for (a, b), s in zip(pairs, signs) if s))


class TestOneWeakOrderBuilder:
    def test_ranked_order_is_the_rank_comparison(self):
        r = ranked_order(ABC, [2, 0, 2])
        assert r.strict == frozenset({(1, 0), (1, 2)})
        assert r.tiers() == (("b",), ("a", "c"))

    @pytest.mark.parametrize("m", range(1, 6))
    def test_weak_order_matches_the_reference_on_every_ordered_partition(self, m):
        u = Universe(tuple("abcde"[:m]))
        partitions = list(_ordered_partitions(u.names))
        for tiers in partitions:
            assert weak_order(u, tiers) == reference_weak_order(u, tiers)
            # dropping the last tier leaves it to the shared bottom tier
            assert weak_order(u, tiers[:-1]) == reference_weak_order(u, tiers[:-1])

    def test_weak_order_matches_the_reference_on_hostile_tier_lists(self):
        u = Universe(("a", "b", "c", "d", "e"))
        pool = [*u.names, "x", "y"]
        rng = random.Random(20261018)
        errors = set()
        for _ in range(5000):
            tiers = []
            for _ in range(rng.randrange(7)):
                tier = rng.sample(pool, rng.randrange(4)) + rng.choices(pool, k=rng.randrange(2))
                tiers.append(tier[0] if len(tier) == 1 and rng.random() < 0.5 else tier)
            got = _outcome(weak_order, u, tiers)
            assert got == _outcome(reference_weak_order, u, tiers), tiers
            if isinstance(got, tuple):
                errors.add(got[0])
        assert errors == {KeyError, ValueError}

    def test_tiers_and_dichotomy_match_the_reference_on_every_relation(self):
        count = 0
        for m in range(1, 5):
            for r in _all_relations(Universe(tuple("abcd"[:m]))):
                count += 1
                expected = reference_tiers(r)
                assert r.tiers() == expected
                assert is_dichotomous(r) == (expected is not None and len(expected) <= 2)
                if expected is None or len(expected) > 2:
                    with pytest.raises(ValueError, match="not dichotomous"):
                        approved_set(r)
                else:
                    top = expected[0] if len(expected) == 2 else ()
                    assert approved_set(r) == frozenset(top)
        assert count == 760


class TestProfile:
    def test_universe_consistency(self):
        other = Universe(("a", "b", "x"))
        with pytest.raises(UniverseMismatchError):
            Profile(ABC, (weak_order(other, ["a"]),))

    def test_permuted(self):
        r1 = weak_order(ABC, ["a", "b", "c"])
        r2 = weak_order(ABC, ["c", "b", "a"])
        profile = Profile(ABC, (r1, r2))
        assert profile.permuted([1, 0]).agents == (r2, r1)
        with pytest.raises(ValueError):
            profile.permuted([0, 0])

    def test_needs_agents(self):
        with pytest.raises(ValueError):
            Profile(ABC, ())


class TestProfileRuns:
    R1 = weak_order(ABC, ["a", "b", "c"])
    R2 = weak_order(ABC, ["c", "b", "a"])

    def test_agents_form_equals_runs_form(self):
        r1, r2 = self.R1, self.R2
        expanded = Profile(ABC, (r1, r1, r2, r1))
        compressed = Profile.from_runs(ABC, [(r1, 2), (r2, 1), (r1, 1)])
        assert expanded == compressed
        assert hash(expanded) == hash(compressed)
        assert expanded.runs == ((r1, 2), (r2, 1), (r1, 1))
        assert compressed.agents == (r1, r1, r2, r1)

    def test_adjacent_equal_runs_merge(self):
        r1, r2 = self.R1, self.R2
        copy = weak_order(ABC, ["a", "b", "c"])
        assert copy is not r1
        profile = Profile.from_runs(ABC, [(r1, 2), (copy, 3), (r2, 1), (r1, 4)])
        assert profile.runs == ((r1, 5), (r2, 1), (r1, 4))
        assert profile != Profile.from_runs(ABC, [(r1, 9), (r2, 1)])

    @pytest.mark.parametrize("count", [0, -2, True, 1.0, Fraction(1)])
    def test_multiplicity_must_be_a_positive_int(self, count):
        with pytest.raises(ValueError, match="multiplicity"):
            Profile.from_runs(ABC, [(self.R1, count)])

    def test_runs_checked_against_the_universe(self):
        other = Universe(("a", "b", "x"))
        with pytest.raises(UniverseMismatchError):
            Profile.from_runs(ABC, [(self.R1, 1), (weak_order(other, ["a"]), 2)])
        with pytest.raises(ValueError):
            Profile.from_runs(ABC, [])

    def test_n_and_permuted(self):
        r1, r2 = self.R1, self.R2
        profile = Profile.from_runs(ABC, [(r1, 2), (r2, 1)])
        assert profile.n == 3
        moved = profile.permuted([2, 0, 1])
        assert moved.agents == (r2, r1, r1)
        assert moved.runs == ((r2, 1), (r1, 2))
        assert profile.permuted([1, 0, 2]) == profile
        with pytest.raises(ValueError):
            profile.permuted([0, 1])

    def test_huge_count_is_one_run(self, monkeypatch):
        # expanding 10**10 agents would exhaust memory: fail fast instead
        monkeypatch.setattr(Profile, "agents", property(lambda _: pytest.fail("expanded")))
        text = "universe: a, b\n10000000000: a > b\n1: b > a\n"
        tracemalloc.start()
        try:
            profile = parse_ballots(text)
            margins = utilitarian(profile)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert profile.n == 10**10 + 1
        assert len(profile.runs) == 2
        assert margins["a", "b"] == 10**10 - 1
        assert peak < 2**20


class TestFeasiblePolytope:
    def test_dedupes_vertices(self):
        f = FeasiblePolytope(ABC, (ABC.pure("a"), ABC.pure("a"), ABC.pure("b")))
        assert len(f.vertices) == 2

    def test_delta_vertex_monotonicity(self):
        small = FeasiblePolytope.delta(ABC, ["a", "b"])
        big = FeasiblePolytope.delta(ABC)
        assert set(small.vertices) <= set(big.vertices)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FeasiblePolytope(ABC, ())


class TestUtilityVector:
    def test_dichotomous_detection(self):
        assert UtilityVector.of(ABC, {"a": 1, "b": 1}).is_dichotomous()
        assert UtilityVector.of(ABC, {"a": 2, "b": 1, "c": 0}).is_dichotomous() is False
        assert UtilityVector.of(ABC, {}).is_constant()

    def test_expected_value(self):
        u = UtilityVector.of(ABC, {"a": 1, "b": Fraction(1, 3)})
        p = Lottery.of(ABC, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
        assert u.expected(p) == Fraction(2, 3)
