import copy
import dataclasses
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from ssbchoice import (
    BaseRelation,
    FeasiblePolytope,
    Lottery,
    Profile,
    SSBMatrix,
    Universe,
    UniverseMismatchError,
    UtilityVector,
    approved_set,
    evaluate,
    is_dichotomous,
    is_maximal,
    maximal_lottery,
    mix,
    parse_ballots,
    restrict,
    separable,
    unique_optimum,
    utilitarian,
    weak_order,
)
from ssbchoice.axioms import _ordered_partitions
from ssbchoice.model import frac, ranked_order
from ssbchoice.ssb import _over_common_denominator

from conftest import rank_tiers

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


CYCLE = SSBMatrix(ABC, [[0, 1, -1], [-1, 0, 1], [1, -1, 0]])
A_OVER_B = weak_order(ABC, ["a", "b"])
PURE_A = Lottery.of(ABC, {"a": 1})
UTILITY_A = UtilityVector.of(ABC, {"a": 1})
UNKNOWN_X = (KeyError, "unknown alternative 'x'")
NOT_A_PERMUTATION = (ValueError, "mapping is not a permutation of the universe")
EMPTY_SUBSET = (ValueError, "subset of alternatives must be non-empty")

# Every way a name, subset, renaming or assignment can fail to resolve, with
# the exception type and text each raised before `Universe` resolved them all.
RESOLUTION_FAILURES = {
    "Lottery.of": (lambda: Lottery.of(ABC, {"a": 1, "x": 0, "e": 0}),
                   (KeyError, "unknown alternatives ['e', 'x']")),
    "UtilityVector.of": (lambda: UtilityVector.of(ABC, {"z": 1, "b": 0}),
                         (KeyError, "unknown alternatives ['z']")),
    "Universe.pure": (lambda: ABC.pure("x"), UNKNOWN_X),
    "Lottery[]": (lambda: PURE_A["x"], UNKNOWN_X),
    "UtilityVector[]": (lambda: UTILITY_A["x"], UNKNOWN_X),
    "SSBMatrix[] row": (lambda: CYCLE["x", "a"], UNKNOWN_X),
    "SSBMatrix[] column": (lambda: CYCLE["a", "x"], UNKNOWN_X),
    "weak_order": (lambda: weak_order(ABC, [["a", "x"]]), UNKNOWN_X),
    "BaseRelation.relabel unknown name": (
        lambda: A_OVER_B.relabel({"a": "b", "x": "a"}), UNKNOWN_X),
    "BaseRelation.relabel unknown image": (
        lambda: A_OVER_B.relabel({"a": "x", "b": "b", "c": "c"}), UNKNOWN_X),
    "BaseRelation.relabel partial": (
        lambda: A_OVER_B.relabel({"a": "b", "b": "a"}), NOT_A_PERMUTATION),
    "BaseRelation.relabel not onto": (
        lambda: A_OVER_B.relabel({"a": "b", "b": "b", "c": "c"}), NOT_A_PERMUTATION),
    "SSBMatrix.relabel unknown name": (lambda: CYCLE.relabel({"x": "a"}), UNKNOWN_X),
    "SSBMatrix.relabel unknown image": (
        lambda: CYCLE.relabel({"a": "b", "b": "x"}), UNKNOWN_X),
    "SSBMatrix.relabel partial": (lambda: CYCLE.relabel({"a": "a"}), NOT_A_PERMUTATION),
    "SSBMatrix.relabel not onto": (
        lambda: CYCLE.relabel({"a": "c", "b": "c", "c": "a"}), NOT_A_PERMUTATION),
    "restrict unknown": (lambda: restrict(CYCLE, ["b", "x", "y"]),
                         (KeyError, "unknown alternatives ['x', 'y']")),
    "restrict empty": (lambda: restrict(CYCLE, []), EMPTY_SUBSET),
    # the solver asks about a subset through `restrict`, whose rows above
    # name its errors; a lottery of the whole universe is no lottery of it
    "is_maximal other universe": (
        lambda: is_maximal(restrict(CYCLE, ["b", "c"]), PURE_A),
        (UniverseMismatchError, "universe mismatch: ('b', 'c') vs ('a', 'b', 'c')")),
    "unique_optimum other universe": (
        lambda: unique_optimum(restrict(CYCLE, ["c", "a"]), maximal_lottery(CYCLE)),
        (UniverseMismatchError, "universe mismatch: ('a', 'c') vs ('a', 'b', 'c')")),
    "FeasiblePolytope.delta unknown": (lambda: FeasiblePolytope.delta(ABC, ["a", "x"]),
                                       (KeyError, "unknown alternatives ['x']")),
    "FeasiblePolytope.delta empty": (lambda: FeasiblePolytope.delta(ABC, []), EMPTY_SUBSET),
}


class TestResolution:
    @pytest.mark.parametrize("case", RESOLUTION_FAILURES)
    def test_failure_type_and_text(self, case):
        call, (kind, text) = RESOLUTION_FAILURES[case]
        with pytest.raises(Exception) as info:
            call()
        assert type(info.value) is kind
        assert info.value.args == (text,)

    def test_a_bare_string_is_one_name(self):
        u = Universe(("alpha", "beta", "c"))
        phi = SSBMatrix(u, [[0, 1, 2], [-1, 0, 3], [-2, -3, 0]])
        assert restrict(phi, "beta") == SSBMatrix.zero(Universe(("beta",)))
        assert FeasiblePolytope.delta(u, "beta").vertices == (u.pure("beta"),)
        with pytest.raises(KeyError, match="unknown alternatives \\['ab'\\]"):
            restrict(SSBMatrix.zero(ABC), "ab")

    @pytest.mark.parametrize("lookup, key", [
        # a position used to pass through unchecked: -1 read c's 1 by tuple
        # wrap-around
        (lambda: Lottery.of(ABC, {"c": 1})[-1], -1),
        (lambda: UTILITY_A[0], 0),
        (lambda: CYCLE["a", 0], 0),
        (lambda: weak_order(ABC, [["a", 1]]), 1),
        (lambda: ABC.pure(0), 0),
    ], ids=["Lottery[-1]", "UtilityVector[0]", "SSBMatrix['a', 0]",
            "weak_order([['a', 1]])", "Universe.pure(0)"])
    def test_lookups_take_names_only(self, lookup, key):
        with pytest.raises(KeyError) as info:
            lookup()
        assert info.value.args == (f"unknown alternative {key}",)

    def test_unknown_keys_of_mixed_types_are_named(self):
        # sorting the unknowns themselves raised TypeError between str and int
        with pytest.raises(KeyError) as info:
            restrict(CYCLE, ["a", 0, "x"])
        assert info.value.args == ("unknown alternatives [0, 'x']",)
        with pytest.raises(KeyError) as info:
            Lottery.of(ABC, {"a": 1, "1": 0, 1: 0})
        assert info.value.args == ("unknown alternatives [1, '1']",)

    def test_universe_resolvers(self):
        u = Universe(("x", "y", "z"))
        assert u.positions(["z", "x", "z"]) == [0, 2]
        assert u.positions(None) == [0, 1, 2]
        assert u.permutation({"x": "y", "y": "z", "z": "x"}) == [1, 2, 0]
        assert u.assignment({"y": "1/2"}) == (0, Fraction(1, 2), 0)


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

    def test_spellings_of_one_value_are_equal(self):
        p = Lottery.of(ABC, {"a": Fraction(1, 3), "c": Fraction(2, 3)})
        q = Lottery(ABC, (Fraction(1, 3), 0, "2/3"))
        r = Lottery.from_scaled(ABC, 9, (3, 0, 6))
        assert p == q == r and hash(p) == hash(q) == hash(r)
        assert "scaled" not in repr(p)

    def test_omitted_names_get_zero(self):
        p = Lottery.of(ABC, {"a": Fraction(1, 3), "c": Fraction(2, 3)})
        assert p.scaled == (3, (1, 0, 2))
        assert p["b"] == 0

    def test_pure(self):
        p = ABC.pure("b")
        assert p.probs == (Fraction(0), Fraction(1), Fraction(0))
        assert p.scaled == (1, (0, 1, 0))


@dataclasses.dataclass(frozen=True)
class ReferenceLottery:
    """`Lottery` as a dataclass over its Fractions, the definition it had
    before it stored its integer form as its value: the reference for
    equality, hashing, repr, frozen assignment and every error."""

    universe: Universe
    probs: tuple[Fraction, ...]
    scaled: tuple[int, tuple[int, ...]] = dataclasses.field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        probs = tuple(frac(p) for p in self.probs)
        object.__setattr__(self, "probs", probs)
        if len(probs) != len(self.universe):
            raise ValueError(
                f"lottery has {len(probs)} entries for {len(self.universe)} alternatives"
            )
        d, nums = _over_common_denominator(probs)
        if any(x < 0 for x in nums):
            raise ValueError(f"negative probability in {probs}")
        total = sum(nums)
        if total != d:
            raise ValueError(f"probabilities sum to {Fraction(total, d)}, not 1")
        object.__setattr__(self, "scaled", (d, tuple(nums)))


def _outcome(build):
    """What a construction gives: its value, or its error's type and text."""
    try:
        return build()
    except Exception as exc:
        return type(exc), str(exc)


def _seeded_probs(rng: random.Random, m: int) -> tuple:
    """Probabilities spelled as Fractions, ints and strings, a share of them
    invalid: negative, not summing to 1, a bool or float, or a wrong count."""
    weights = [rng.randint(0, 6) for _ in range(m)]
    weights[rng.randrange(m)] += 1
    total = max(1, sum(weights) + rng.choice([0, 0, 0, 1, -1]))
    probs = [Fraction(w, total) for w in weights]
    if rng.random() < 0.1:
        probs[0] = -probs[0]
    spelled = [rng.choice([p, str(p), p.numerator if p.denominator == 1 else p])
               for p in probs]
    roll = rng.random()
    if roll < 0.05:
        spelled[-1] = rng.choice([True, 0.5, None, "x"])
    elif roll < 0.1:
        spelled = spelled[: rng.randrange(m)] if rng.random() < 0.5 else spelled + [0]
    return tuple(spelled)


class TestLotteryMatchesTheReference:
    def _pair(self, universe, probs):
        return (_outcome(lambda: Lottery(universe, probs)),
                _outcome(lambda: ReferenceLottery(universe, probs)))

    def test_values_and_errors(self):
        rng = random.Random(18)
        built, errors = [], set()
        for _ in range(600):
            universe = Universe("abcde"[: rng.randint(1, 5)])
            new, ref = self._pair(universe, _seeded_probs(rng, len(universe)))
            if isinstance(ref, tuple):
                assert new == ref
                errors.add((ref[0], ref[1][:12]))
                continue
            assert new.universe == ref.universe
            assert new.probs == ref.probs
            assert all(type(x) is Fraction for x in new.probs)
            assert new.scaled == ref.scaled
            assert hash(new) == hash(ref)
            assert repr(new) == repr(ref).replace("ReferenceLottery(", "Lottery(", 1)
            built.append((new, ref))
        assert len(built) > 200
        assert {kind for kind, _ in errors} == {TypeError, ValueError}
        assert len(errors) >= 6, errors
        for (p, p_ref), (q, q_ref) in zip(built, built[1:] + built[:1]):
            assert (p == q) is (p_ref == q_ref)
            assert (p != q) is (p_ref != q_ref)
        p, p_ref = built[0]
        assert p.__eq__(p.probs) is p_ref.__eq__(p_ref.probs) is NotImplemented
        renamed = Universe(n.upper() for n in p.universe.names)
        assert Lottery(renamed, p.probs) != p
        assert ReferenceLottery(renamed, p.probs) != p_ref

    def test_non_iterable_and_foreign_universe_errors(self):
        for universe, probs in [(ABC, 5), (None, (1, 0, 0)), (ABC, (1, 0)),
                                (ABC, ("1/2", "1/2", "x")), (ABC, (0.5, 0.5, 0))]:
            new, ref = self._pair(universe, probs)
            assert isinstance(new, tuple) and new == ref

    def test_frozen(self):
        p, ref = Lottery(ABC, (1, 0, 0)), ReferenceLottery(ABC, (1, 0, 0))
        for name in ("universe", "probs", "scaled", "_probs", "other"):
            for act in (lambda x: setattr(x, name, 1), lambda x: delattr(x, name)):
                new_error, ref_error = _outcome(lambda: act(p)), _outcome(lambda: act(ref))
                assert new_error == ref_error
                assert new_error[0] is dataclasses.FrozenInstanceError
        assert p == Lottery(ABC, (1, 0, 0))

    def test_unreduced_integer_forms(self):
        rng = random.Random(8)
        forms = [(8, (2, 6, 0)), (3, (0, 3, 0)), (12, (4, 4, 4))]
        for _ in range(200):
            nums = [rng.randint(0, 9) for _ in range(3)]
            nums[rng.randrange(3)] += 1
            g = rng.randint(1, 6)
            forms.append((g * sum(nums), tuple(g * x for x in nums)))
        for d, nums in forms:
            p = Lottery.from_scaled(ABC, d, nums)
            ref = ReferenceLottery(ABC, tuple(Fraction(x, d) for x in nums))
            assert p.scaled == ref.scaled
            assert p.probs == ref.probs
            assert p == Lottery(ABC, ref.probs)
            assert hash(p) == hash(ref)
            assert repr(p) == repr(ref).replace("ReferenceLottery(", "Lottery(", 1)
        assert Lottery.from_scaled(ABC, 8, (2, 6, 0)).scaled == (4, (1, 3, 0))

    @pytest.mark.parametrize("d, nums, error", [
        (True, (1, 0, 0), TypeError),
        (1, (True, False, False), TypeError),
        (2, (1, Fraction(1), 0), TypeError),
        (2, (1.0, 1, 0), TypeError),
        (2.0, (1, 1, 0), TypeError),
        (2, ("1", 1, 0), TypeError),
        (0, (0, 0, 0), ValueError),
        (-4, (-1, -3, 0), ValueError),
        (2, (1, 1), ValueError),
        (2, (1, 1, 0, 0), ValueError),
        (2, (3, -1, 0), ValueError),
        (4, (1, 1, 1), ValueError),
    ])
    def test_integer_path_rejections(self, d, nums, error):
        with pytest.raises(error):
            Lottery.from_scaled(ABC, d, nums)

    def test_integer_path_error_texts(self):
        def text(d, nums):
            return _outcome(lambda: Lottery.from_scaled(ABC, d, nums))

        assert text(True, (1, 0, 0)) == (
            TypeError, "lottery integer form must be ints, got (True, (1, 0, 0))")
        assert text(0, (0, 0, 0)) == (
            ValueError, "lottery denominator must be positive, got 0")
        assert text(2, (1, 1)) == (ValueError, "lottery has 2 entries for 3 alternatives")
        # the checks the Fraction path shares keep its texts
        assert text(4, (6, -2, 0)) == _outcome(
            lambda: ReferenceLottery(ABC, (Fraction(6, 4), Fraction(-2, 4), 0)))
        assert text(4, (1, 1, 1)) == (ValueError, "probabilities sum to 3/4, not 1")

    def test_copy_and_pickle_keep_the_value(self):
        p = Lottery.from_scaled(ABC, 6, (2, 4, 0))
        for clone in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert clone == p and clone.scaled == (3, (1, 2, 0))
            assert clone.probs == (Fraction(1, 3), Fraction(2, 3), 0)


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
        assert cycle.strict == {(0, 1), (1, 2), (2, 0)}
        assert cycle.tiers() is None

    def test_indifference_is_complement(self):
        # indifference is the absence of both orientations
        r = weak_order(ABC, [["a", "b"], ["c"]])
        assert (0, 1) not in r.strict and (1, 0) not in r.strict
        assert (0, 2) in r.strict

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
        with pytest.raises(ValueError, match="^alternative 'a' appears in two tiers$"):
            weak_order(ABC, [["a"], ["a", "b"]])
        with pytest.raises(ValueError, match="^alternative 'a' listed twice in one tier$"):
            weak_order(ABC, [["b"], ["a", "c", "a"]])


# The bodies of `weak_order` and `BaseRelation.tiers` from before both
# built their pairs through `ranked_order`, kept as references; a name
# repeated inside one tier now has its own message.
def reference_weak_order(universe, tiers):
    norm = []
    seen = set()
    for tier in tiers:
        names = [tier] if isinstance(tier, str) else list(tier)
        idx = tuple(universe.index(n) for n in names)
        for at, i in enumerate(idx):
            if i in idx[:at]:
                raise ValueError(f"alternative {universe.names[i]!r} listed twice in one tier")
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
        r = ranked_order(ABC, rank_tiers([2, 0, 2]))
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

    def test_n(self):
        r1, r2 = self.R1, self.R2
        assert Profile.from_runs(ABC, [(r1, 2), (r2, 1)]).n == 3
        assert Profile.from_runs(ABC, [(r1, 2), (r2, 1), (r1, 4)]).n == 7

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


class TestStoredHash:
    """`Universe`, `BaseRelation` and `Profile` store their hash on first use."""

    def test_hash_is_the_field_tuple_hash(self):
        order = weak_order(ABC, ["a", ["b", "c"]])
        profile = Profile(ABC, (order, order, A_OVER_B))
        for value, fields in ((Universe(("a", "b", "c")), (ABC.names,)),
                              (order, (ABC, order.strict)),
                              (profile, (ABC, profile.runs))):
            assert "_hash" not in vars(value)
            assert hash(value) == hash(fields) == hash(value)
            assert vars(value)["_hash"] == hash(fields)

    def test_stored_hash_is_no_part_of_the_value(self):
        hashed, bare = (weak_order(ABC, ["a", ["b", "c"]]) for _ in range(2))
        hash(hashed)
        assert hashed == bare and repr(hashed) == repr(bare)
        for clone in (copy.copy(hashed), copy.deepcopy(hashed),
                      pickle.loads(pickle.dumps(hashed))):
            assert clone == hashed and "_hash" not in vars(clone)

    def test_pickled_hash_is_recomputed_in_another_process(self):
        # dump under one string-hash seed and load under another: a stored
        # hash copied with the instance dict, as pickling would without
        # `__reduce__`, keeps the first seed's value, so the loaded object
        # equals a fresh one yet misses it as a dict key
        dump = _run_hash_seed_child("1", "dump", "")
        loaded = json.loads(_run_hash_seed_child("2", "load", dump))
        rebuilt, naive = loaded
        assert rebuilt == [[True, True, True]] * 3
        assert naive == [[True, False, False]] * 3


HASH_SEED_CHILD = """
import copyreg, io, json, pickle, sys
from ssbchoice import BaseRelation, Profile, Universe, weak_order

def values():
    universe = Universe(("a", "b", "c"))
    order = weak_order(universe, ["a", ["b", "c"]])
    return [universe, order, Profile(universe, (order, weak_order(universe, ["c"])))]

class DictCopying(pickle.Pickler):
    def reducer_override(self, obj):
        if type(obj) in (Universe, BaseRelation, Profile):
            return copyreg.__newobj__, (type(obj),), dict(vars(obj))
        return NotImplemented

if sys.argv[1] == "dump":
    objs = values()
    for obj in objs:
        hash(obj)
    naive = io.BytesIO()
    DictCopying(naive).dump(objs)
    print(json.dumps([pickle.dumps(objs).hex(), naive.getvalue().hex()]))
else:
    fresh = values()
    print(json.dumps([
        [[a == b, hash(a) == hash(b), {b: 1}.get(a) == 1] for a, b in zip(loaded, fresh)]
        for loaded in (pickle.loads(bytes.fromhex(x)) for x in json.loads(sys.stdin.read()))
    ]))
"""


def _run_hash_seed_child(seed: str, mode: str, stdin: str) -> str:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", HASH_SEED_CHILD, mode], input=stdin,
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


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
    def test_expected_value(self):
        # the expected utility difference is the separable matrix's value
        u = UtilityVector.of(ABC, {"a": 1, "b": Fraction(1, 3)})
        p = Lottery.of(ABC, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
        assert evaluate(separable(u), p, ABC.pure("c")) == Fraction(2, 3)

    @pytest.mark.parametrize("values", [
        (1, "1/2", Fraction(2, 3)),
        [Fraction(1), Fraction(0), Fraction(-5, 2)],
        (Fraction(1), Fraction(0), Fraction(-5, 2)),
        (Fraction(1), 0, Fraction(-5, 2)),
        ("0.25", "3", "-1e2"),
    ])
    def test_values_are_coerced_as_frac_coerces_them(self, values):
        u = UtilityVector(ABC, values)
        assert type(u.values) is tuple
        assert u.values == tuple(frac(v) for v in values)
        assert [type(v) for v in u.values] == [Fraction] * 3

    def test_a_tuple_of_fractions_is_kept(self):
        values = (Fraction(1, 3), Fraction(0), Fraction(7))
        assert UtilityVector(ABC, values).values is values

    @pytest.mark.parametrize("values", [
        (True, 0, 1),
        (Fraction(1), False, Fraction(0)),
        (1.5, 0, 0),
        (Fraction(1), None, Fraction(0)),
        (Fraction(1), Fraction(2)),
        (1, 2, 3, 4),
        (),
    ])
    def test_errors_are_frac_and_length_errors(self, values):
        def reference():
            coerced = tuple(frac(v) for v in values)
            if len(coerced) != 3:
                raise ValueError(f"{len(coerced)} utilities for 3 alternatives")

        got = _outcome(lambda: UtilityVector(ABC, values))
        assert got == _outcome(reference)
        assert got[0] in (TypeError, ValueError)
