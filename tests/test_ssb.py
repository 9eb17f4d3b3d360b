import copy
import dataclasses
import math
import pickle
import random
from fractions import Fraction

import pytest

from ssbchoice import (
    BaseRelation,
    Comparison,
    Lottery,
    SSBMatrix,
    Universe,
    UtilityVector,
    compare,
    cycle_witness,
    evaluate,
    is_dichotomous,
    lottery_grid,
    mix,
    normalize,
    pc_extension,
    restrict,
    separable,
    weak_order,
)
from ssbchoice.axioms import random_lottery, random_relation, random_ssb_matrix
from ssbchoice.model import frac
from ssbchoice.ssb import _entry, _pc_rows

ABC = Universe(("a", "b", "c"))
ABCD = Universe(("a", "b", "c", "d"))


def scaled(phi, factor):
    """phi times an exact factor, built through the constructor."""
    f = Fraction(factor)
    return SSBMatrix(phi.universe, [[f * x for x in row] for row in phi.entries])


def assert_canonical(phi):
    """Every entry is an int when integral and a Fraction otherwise."""
    for row in phi.entries:
        for x in row:
            integral = Fraction(x).denominator == 1
            assert type(x) is (int if integral else Fraction), (x, type(x))


class TestEntryRepresentation:
    def test_constructor_coerces_each_literal(self):
        phi = SSBMatrix(ABC, [
            [0, Fraction(4, 2), "1/2"],
            [-2, 0, "3"],
            ["-0.5", -3, 0],
        ])
        assert_canonical(phi)
        assert phi.entries == (
            (0, 2, Fraction(1, 2)), (-2, 0, 3), (Fraction(-1, 2), -3, 0)
        )
        assert type(phi["a", "b"]) is int and type(phi["b", "c"]) is int
        assert type(phi["a", "c"]) is Fraction
        decimal = SSBMatrix(Universe(("x", "y")), [[0, "0.5"], ["-1/2", 0]])
        assert decimal.entries == ((0, Fraction(1, 2)), (Fraction(-1, 2), 0))
        assert_canonical(decimal)

    def test_equal_values_hash_equal_across_types(self):
        ints = SSBMatrix(ABC, [[0, 1, 2], [-1, 0, 0], [-2, 0, 0]])
        fracs = SSBMatrix(ABC, [
            [Fraction(0), Fraction(1), Fraction(2)],
            [Fraction(-1), Fraction(0), Fraction(0)],
            [Fraction(-2), Fraction(0), Fraction(0)],
        ])
        assert ints == fracs and hash(ints) == hash(fracs)
        assert fracs in frozenset([ints])
        assert_canonical(fracs)

    def test_bool_and_float_rejected(self):
        for bad in (True, 0.5, 1.0):
            with pytest.raises(TypeError):
                SSBMatrix(Universe(("x", "y")), [[0, bad], [0, 0]])

    def test_constructors_build_ints(self, chain4_matrix):
        assert_canonical(chain4_matrix)
        assert all(type(x) is int for row in chain4_matrix.entries for x in row)
        zero = SSBMatrix.zero(ABCD)
        assert zero.entries == ((0,) * 4,) * 4
        assert all(type(x) is int for row in zero.entries for x in row)
        relabeled = chain4_matrix.relabel({"a": "d", "b": "c", "c": "b", "d": "a"})
        assert relabeled.entries == scaled(chain4_matrix, -1).entries
        for phi in (relabeled, scaled(chain4_matrix, -1), restrict(chain4_matrix, ["b", "d"])):
            assert all(type(x) is int for row in phi.entries for x in row)

    def test_normalize_margins_with_maximum_two(self):
        margins = SSBMatrix(ABC, [[0, 2, 1], [-2, 0, -1], [-1, 1, 0]])
        n = normalize(margins)
        top = max(map(max, n.entries))
        assert top == 1 and type(top) is int
        assert n["a", "c"] == Fraction(1, 2) and type(n["a", "c"]) is Fraction
        assert_canonical(n)

    def test_scaling_collapses_integral_results(self):
        phi = SSBMatrix(ABC, [[0, 2, 1], [-2, 0, -1], [-1, 1, 0]])
        half = scaled(phi, Fraction(1, 2))
        assert_canonical(half)
        assert half["a", "b"] == 1 and type(half["a", "b"]) is int
        assert type(half["a", "c"]) is Fraction
        back = scaled(half, 2)
        assert back == phi
        assert all(type(x) is int for row in back.entries for x in row)
        assert_canonical(scaled(phi, Fraction(4, 2)))
        assert_canonical(scaled(half, -1))
        assert_canonical(restrict(half, ["a", "c"]))
        assert_canonical(half.relabel({"a": "b", "b": "c", "c": "a"}))

    def test_entry_is_the_canonical_fraction(self):
        # `_entry` builds a Fraction only for a non-integral quotient
        for x in range(-60, 61):
            for d in range(1, 13):
                want = Fraction(x, d)
                want = want.numerator if want.denominator == 1 else want
                got = _entry(x, d)
                assert got == want and type(got) is type(want), (x, d)


def test_skew_symmetry_enforced():
    with pytest.raises(ValueError):
        SSBMatrix(ABC, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        SSBMatrix(ABC, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])


class TestEvaluate:
    def test_chain4_mixed_outcomes(self, chain4_matrix):
        p = ABCD.pure("c")
        q = Lottery.of(ABCD, {"a": Fraction(2, 5), "d": Fraction(3, 5)})
        r = Lottery.of(ABCD, {"b": Fraction(3, 5), "d": Fraction(2, 5)})
        assert evaluate(chain4_matrix, p, q) == Fraction(1, 5)
        assert evaluate(chain4_matrix, q, r) == Fraction(1, 25)
        assert evaluate(chain4_matrix, r, p) == Fraction(1, 5)

    def test_margin_matrix_mixture(self, table1_margins):
        u = table1_margins.universe
        p = mix(u.pure("A"), u.pure("C"), Fraction(1, 2))
        assert evaluate(table1_margins, p, u.pure("B")) == 15

    def test_self_evaluation_zero(self):
        rng = random.Random(11)
        for _ in range(100):
            phi = random_ssb_matrix(rng, ABCD)
            p = random_lottery(rng, ABCD)
            assert evaluate(phi, p, p) == 0


    def test_matches_double_sum_on_general_matrices(self):
        # non-PC rational matrices and separable ones, with zero rows and
        # columns and pure lotteries, against the plain sum over all (a, b)
        rng = random.Random(41)
        for trial in range(300):
            if trial % 2:
                phi = random_ssb_matrix(rng, ABCD)
            else:
                phi = separable(UtilityVector(ABCD, tuple(
                    Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)
                )))
            if trial % 3 == 0:
                dead = rng.randrange(4)
                phi = SSBMatrix(ABCD, [
                    [0 if dead in (a, b) else phi.entries[a][b] for b in range(4)]
                    for a in range(4)
                ])
            pick = lambda: (ABCD.pure(rng.choice(ABCD.names)) if rng.random() < 0.3
                            else random_lottery(rng, ABCD))
            p, q = pick(), pick()
            direct = sum(
                (p.probs[a] * phi.entries[a][b] * q.probs[b]
                 for a in range(4) for b in range(4)),
                Fraction(0),
            )
            value = evaluate(phi, p, q)
            assert value == direct
            assert type(value) is Fraction


class TestCompare:
    def test_pure_margin(self, table1_margins):
        u = table1_margins.universe
        assert table1_margins["A", "B"] == 40
        assert compare(table1_margins, u.pure("A"), u.pure("B")) is Comparison.PREFERRED

    def test_self_indifferent(self, table1_margins):
        p = table1_margins.universe.pure("D")
        assert compare(table1_margins, p, p) is Comparison.INDIFFERENT

    def test_mixture_against_pure(self, table1_margins):
        u = table1_margins.universe
        q = mix(u.pure("A"), u.pure("D"), Fraction(1, 2))
        assert compare(table1_margins, u.pure("C"), q) is Comparison.PREFERRED

    def test_is_the_sign_of_evaluate(self):
        # int matrices (integer margins and PC matrices) and matrices with
        # Fraction entries, against lotteries built from Fractions and from
        # integer forms, pure ones and a lottery against itself
        rng = random.Random(17)
        sign = {1: Comparison.PREFERRED, 0: Comparison.INDIFFERENT,
                -1: Comparison.DISPREFERRED}
        seen = set()
        for trial in range(600):
            kind = trial % 3
            if kind == 0:
                phi = random_ssb_matrix(rng, ABCD)
            elif kind == 1:
                phi = pc_extension(random_relation(rng, ABCD))
            else:
                upper = [[rng.randint(-3, 3) * (a < b) for b in range(4)] for a in range(4)]
                phi = SSBMatrix(
                    ABCD, [[upper[a][b] - upper[b][a] for b in range(4)] for a in range(4)])
            has_fractions = any(type(x) is Fraction for row in phi.entries for x in row)
            pick = rng.random()
            if pick < 0.2:
                p = q = random_lottery(rng, ABCD)
            else:
                p = random_lottery(rng, ABCD)
                q = (ABCD.pure(rng.choice(ABCD.names)) if pick < 0.4 else
                     Lottery(ABCD, [Fraction(w, 6) for w in (1, 2, 0, 3)]) if pick < 0.5
                     else random_lottery(rng, ABCD))
            value = evaluate(phi, p, q)
            outcome = compare(phi, p, q)
            assert outcome is sign[(value > 0) - (value < 0)], (phi, p, q)
            seen.add((has_fractions, outcome))
        assert len(seen) == 6


class TestPCExtension:
    def test_chain3(self, chain3_matrix):
        assert chain3_matrix.entries == SSBMatrix(
            ABC, [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]]
        ).entries

    def test_complete_indifference(self):
        assert pc_extension(weak_order(ABC, [ABC.names])) == SSBMatrix.zero(ABC)

    def test_chain4_upper_triangular(self, chain4_matrix):
        for i in range(4):
            for j in range(4):
                expected = 0 if i == j else (1 if i < j else -1)
                assert chain4_matrix.entries[i][j] == expected

    def test_built_once_per_relation(self):
        # each call builds the matrix afresh; equal relations give equal
        # matrices and the relation keeps nothing of the build: only its
        # tiers and the strict pairs derived from them on first read
        relation = weak_order(ABCD, [["b"], ["a", "d"]])
        first = pc_extension(relation)
        assert pc_extension(relation) == first
        assert pc_extension(relation) is not first
        fresh = weak_order(ABCD, [["b"], ["a", "d"]])
        assert pc_extension(fresh) == first
        assert set(vars(relation)) <= {"universe", "_tiers", "strict"}

    def test_stored_matrix_is_not_part_of_the_value(self):
        # a relation's value is its universe and strict pairs only, so
        # building its matrix changes neither equality, hash nor repr
        built = weak_order(ABC, ["a", ["b", "c"]])
        pc_extension(built)
        bare = weak_order(ABC, ["a", ["b", "c"]])
        assert built == bare
        assert hash(built) == hash(bare)
        assert repr(built) == repr(bare)
        assert "_pc_matrix" not in repr(built)
        assert BaseRelation._FIELDS == ("universe", "strict")

    def test_matches_direct_double_sum(self):
        rng = random.Random(23)
        for _ in range(200):
            relation = random_relation(rng, ABCD)
            phi = pc_extension(relation)
            p = random_lottery(rng, ABCD)
            q = random_lottery(rng, ABCD)
            direct = sum(
                (p.probs[a] * q.probs[b] - q.probs[a] * p.probs[b]
                 for a, b in relation.strict),
                Fraction(0),
            )
            assert evaluate(phi, p, q) == direct


class TestNormalize:
    def test_margin_matrix_scales_by_max(self, table1_margins):
        n = normalize(table1_margins)
        assert n["A", "D"] == 1  # the 80 entry
        assert n["A", "B"] == Fraction(40, 80)

    def test_pc_matrix_fixed(self, chain3_matrix):
        assert normalize(chain3_matrix) == chain3_matrix

    def test_zero_fixed(self):
        z = SSBMatrix.zero(ABC)
        assert normalize(z) == z

    def test_compare_invariant(self, table1_margins):
        rng = random.Random(5)
        u = table1_margins.universe
        n = normalize(table1_margins)
        for _ in range(100):
            p = random_lottery(rng, u)
            q = random_lottery(rng, u)
            assert compare(n, p, q) is compare(table1_margins, p, q)


class TestRestrict:
    def test_margin_pair(self, table1_margins):
        sub = restrict(table1_margins, ["A", "B"])
        assert sub.entries == ((0, 40), (-40, 0))

    def test_full_is_identity(self, table1_margins):
        assert restrict(table1_margins, table1_margins.universe.names) == table1_margins

    def test_chain4_restricts_to_chain3(self, chain4_matrix, chain3_matrix):
        assert restrict(chain4_matrix, ["a", "b", "c"]).entries == chain3_matrix.entries

    def test_agrees_with_parent_on_sublotteries(self, table1_margins):
        rng = random.Random(9)
        sub = restrict(table1_margins, ["A", "B", "C"])
        for _ in range(50):
            p_small = random_lottery(rng, sub.universe)
            q_small = random_lottery(rng, sub.universe)
            lift = lambda s: Lottery.of(
                table1_margins.universe,
                dict(zip(sub.universe.names, s.probs)),
            )
            assert evaluate(sub, p_small, q_small) == evaluate(
                table1_margins, lift(p_small), lift(q_small)
            )

    def test_empty_rejected(self, table1_margins):
        with pytest.raises(ValueError):
            restrict(table1_margins, [])


class TestPredicates:
    def test_chain3_pc_but_not_separable(self, chain3_matrix):
        assert _pc_rows(chain3_matrix.entries)
        # a separable matrix has phi(a, c) = phi(a, b) + phi(b, c)
        assert chain3_matrix["a", "c"] != chain3_matrix["a", "b"] + chain3_matrix["b", "c"]

    def test_two_tier_separable(self):
        # a two-tier order's PC matrix is `separable` of its 0/1 approval
        # vector, and of that vector shifted by any constant
        phi = pc_extension(weak_order(ABC, [["a", "b"], ["c"]]))
        assert phi == separable(UtilityVector(ABC, (1, 1, 0)))
        assert phi == separable(UtilityVector(ABC, (0, 0, -1)))

    def test_zero_matrix_satisfies_everything(self):
        zero = SSBMatrix.zero(ABC)
        indifferent = weak_order(ABC, [ABC.names])
        assert pc_extension(indifferent) == zero
        assert is_dichotomous(indifferent)
        assert separable(UtilityVector(ABC, (0, 0, 0))) == zero

    def test_dichotomous_is_two_tiers(self):
        assert is_dichotomous(weak_order(ABC, [["a", "b"], ["c"]]))
        assert not is_dichotomous(weak_order(ABC, ["a", "b", "c"]))
        cyclic = BaseRelation(ABC, frozenset({(0, 1), (1, 2), (2, 0)}))
        assert not is_dichotomous(cyclic)

    def test_separable_evaluates_by_expectation(self):
        rng = random.Random(31)
        for _ in range(150):
            u = UtilityVector(
                ABCD, tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                            for _ in range(4))
            )
            phi = separable(u)
            p = random_lottery(rng, ABCD)
            q = random_lottery(rng, ABCD)
            expected = lambda r: sum(x * w for x, w in zip(u.values, r.probs))
            assert evaluate(phi, p, q) == expected(p) - expected(q)


class TestCycleWitness:
    def test_chain4_has_cycle(self, chain4_matrix):
        witness = cycle_witness(chain4_matrix)
        assert witness is not None
        p, q, r = witness
        assert evaluate(chain4_matrix, p, q) > 0
        assert evaluate(chain4_matrix, q, r) > 0
        assert evaluate(chain4_matrix, r, p) > 0

    def test_grid_contains_reference_cycle(self, chain4_matrix):
        grid = {lot.probs for lot in lottery_grid(ABCD)}
        p = ABCD.pure("c")
        q = Lottery.of(ABCD, {"a": Fraction(2, 5), "d": Fraction(3, 5)})
        r = Lottery.of(ABCD, {"b": Fraction(3, 5), "d": Fraction(2, 5)})
        assert {p.probs, q.probs, r.probs} <= grid

    def test_chain3_has_none(self, chain3_matrix):
        assert cycle_witness(chain3_matrix) is None

    def test_zero_has_none(self):
        assert cycle_witness(SSBMatrix.zero(ABCD)) is None

    @staticmethod
    def _first_cycle_by_triple_loop(phi, max_denominator):
        """The first (i, j, l) in lexicographic order with i > j > l > i."""
        grid = lottery_grid(phi.universe, max_denominator)
        k = len(grid)
        beats = [[evaluate(phi, grid[i], grid[j]) > 0 for j in range(k)]
                 for i in range(k)]
        for i in range(k):
            for j in range(k):
                if beats[i][j]:
                    for l in range(k):
                        if beats[j][l] and beats[l][i]:
                            return grid[i], grid[j], grid[l]
        return None

    def test_matches_triple_loop_oracle(self, chain3_matrix, chain4_matrix):
        rng = random.Random(41)
        cases = [(chain3_matrix, 5), (chain4_matrix, 4)]
        cases += [(random_ssb_matrix(rng, ABC), 4) for _ in range(8)]
        cases += [(random_ssb_matrix(rng, ABCD), 3) for _ in range(8)]
        cases += [(pc_extension(random_relation(rng, ABCD)), 3) for _ in range(8)]
        found = 0
        for phi, d in cases:
            witness = cycle_witness(phi, max_denominator=d)
            assert witness == self._first_cycle_by_triple_loop(phi, d)
            found += witness is not None
        assert 0 < found < len(cases)


class TestSymmetrySpotCheck:
    def test_consequent_holds_exactly(self):
        # construct instances satisfying both antecedent indifferences:
        # q ~ (p+r)/2 and lam*p + (1-lam)*r ~ (p+q)/2, then verify
        # lam*r + (1-lam)*p ~ (r+q)/2.
        rng = random.Random(17)
        confirmed = 0
        trials = 0
        while confirmed < 300 and trials < 20000:
            trials += 1
            phi = random_ssb_matrix(rng, ABCD)
            p = random_lottery(rng, ABCD)
            r = random_lottery(rng, ABCD)
            mid = mix(p, r, Fraction(1, 2))
            s = random_lottery(rng, ABCD)
            t = random_lottery(rng, ABCD)
            vs, vt = evaluate(phi, s, mid), evaluate(phi, t, mid)
            if vs == 0:
                q = s
            elif vt == 0 or (vs > 0) == (vt > 0):
                continue
            else:
                q = mix(s, t, vt / (vt - vs))
            assert evaluate(phi, q, mid) == 0
            half_pq = mix(p, q, Fraction(1, 2))
            fp = evaluate(phi, p, half_pq)
            fr = evaluate(phi, r, half_pq)
            if fp == fr:
                continue
            lam = fr / (fr - fp)
            if not 0 <= lam <= 1:
                continue
            assert evaluate(phi, mix(p, r, lam), half_pq) == 0
            consequent = evaluate(phi, mix(r, p, lam), mix(r, q, Fraction(1, 2)))
            assert consequent == 0
            confirmed += 1
        assert confirmed >= 300


def test_normalize_is_scale_free(table1_margins):
    # `normalize(a) == normalize(b)` decides whether a and b are one relation
    assert normalize(table1_margins) == normalize(scaled(table1_margins, Fraction(7, 3)))
    assert normalize(table1_margins) != normalize(scaled(table1_margins, -1))


# -- the matrix as a dataclass over its canonical entries --


def _reference_entry(value):
    if type(value) is int:
        return value
    value = frac(value)
    return value.numerator if value.denominator == 1 else value


@dataclasses.dataclass(frozen=True)
class ReferenceSSBMatrix:
    """`SSBMatrix` as a dataclass over its canonical entries, the definition
    it had before it stored its integer form as its value: the reference
    for equality, hashing, repr, pickling, frozen assignment, entry types
    and every constructor error."""

    universe: Universe
    entries: tuple

    def __post_init__(self):
        m = len(self.universe)
        rows = tuple(
            tuple([x if type(x) is int else _reference_entry(x) for x in row])
            for row in self.entries
        )
        object.__setattr__(self, "entries", rows)
        if len(rows) != m or any(len(r) != m for r in rows):
            raise ValueError(f"matrix shape is not {m}x{m}")
        for i, row in enumerate(rows):
            for j in range(i, m):
                a, b = row[j], rows[j][i]
                if a.numerator != -b.numerator or a.denominator != b.denominator:
                    raise ValueError(
                        f"not skew-symmetric at ({i},{j}): {a} vs {b}"
                    )


def _outcome(build):
    """What a construction gives: its value, or its error's type and text."""
    try:
        return build()
    except Exception as exc:
        return type(exc), str(exc)


def _seeded_entries(rng: random.Random, m: int) -> list:
    """Skew-symmetric entries spelled as ints, Fractions and strings, over
    denominator 1 or a random one (up to exponent size), a share of them
    invalid: a bool, float or non-number, a wrong shape, or not skew."""
    scale = rng.choice([1, 1, 2, 6, 35, 10 ** rng.randint(2, 40)])
    grid = [[Fraction(0)] * m for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            x = Fraction(rng.randint(-9, 9), rng.choice([1, scale]))
            grid[a][b], grid[b][a] = x, -x
    spelled = [[rng.choice([x, str(x), x.numerator if x.denominator == 1 else x])
                for x in row] for row in grid]
    roll = rng.random()
    a, b = rng.randrange(m), rng.randrange(m)
    if roll < 0.04:
        spelled[a][b] = rng.choice([True, False, 0.5, 1.0, None, "x"])
    elif roll < 0.08:
        if rng.random() < 0.5:
            del spelled[a][b]
        else:
            spelled.append([0] * m)
    elif roll < 0.12:
        spelled[a][b] = Fraction(spelled[a][b]) + rng.choice([1, Fraction(1, 3)])
    return spelled


def _as_reference(matrix):
    return repr(matrix).replace("SSBMatrix(", "ReferenceSSBMatrix(", 1)


class TestSSBMatrixMatchesTheReference:
    def test_values_and_errors(self):
        rng = random.Random(26)
        built, errors, scales = [], set(), set()
        for _ in range(1200):
            universe = Universe("abcde"[: rng.randint(1, 5)])
            entries = _seeded_entries(rng, len(universe))
            new = _outcome(lambda: SSBMatrix(universe, entries))
            ref = _outcome(lambda: ReferenceSSBMatrix(universe, entries))
            if isinstance(ref, tuple):
                assert new == ref
                errors.add((ref[0], ref[1][:12]))
                continue
            assert new.universe == ref.universe
            assert new.entries == ref.entries
            assert [list(map(type, r)) for r in new.entries] \
                == [list(map(type, r)) for r in ref.entries]
            d, rows = new.scaled
            assert d > 0 and math.gcd(d, *(x for r in rows for x in r)) == 1
            assert rows == tuple(tuple(x * d for x in r) for r in ref.entries)
            assert hash(new) == hash(ref)
            assert _as_reference(new) == repr(ref)
            for clone in (copy.copy(new), copy.deepcopy(new), pickle.loads(pickle.dumps(new))):
                assert clone == new and clone.scaled == new.scaled
                assert hash(clone) == hash(new) and repr(clone) == repr(new)
            scales.add(d == 1)
            built.append((new, ref))
        assert len(built) > 1000 and scales == {True, False}
        assert {kind for kind, _ in errors} == {TypeError, ValueError}
        assert len(errors) >= 5, errors
        for (p, p_ref), (q, q_ref) in zip(built, built[1:] + built[:1]):
            assert (p == q) is (p_ref == q_ref)
            assert (p != q) is (p_ref != q_ref)
            assert (hash(p) == hash(q)) is (hash(p_ref) == hash(q_ref))
        p, p_ref = built[0]
        assert p.__eq__(p.entries) is p_ref.__eq__(p_ref.entries) is NotImplemented
        renamed = Universe(n.upper() for n in p.universe.names)
        assert SSBMatrix(renamed, p.entries) != p
        assert ReferenceSSBMatrix(renamed, p_ref.entries) != p_ref

    def test_integer_forms_not_in_lowest_terms(self):
        rng = random.Random(27)
        for _ in range(300):
            phi = random_ssb_matrix(rng, ABCD)
            d, rows = phi.scaled
            g = rng.randint(1, 12)
            new = SSBMatrix.from_scaled(ABCD, g * d, [[g * x for x in r] for r in rows])
            ref = ReferenceSSBMatrix(ABCD, phi.entries)
            assert new == phi and new.scaled == (d, rows)
            assert new.entries == ref.entries and hash(new) == hash(ref)
            assert _as_reference(new) == repr(ref)

    def test_from_scaled_rejections(self):
        def text(d, rows):
            return _outcome(lambda: SSBMatrix.from_scaled(Universe("xy"), d, rows))

        assert text(2, [[0, 1], [-1, 0]]) == SSBMatrix(Universe("xy"), [[0, "1/2"], ["-1/2", 0]])
        for d, rows in [(2.0, [[0, 1], [-1, 0]]), (0, [[0, 1], [-1, 0]]),
                        (True, [[0, 1], [-1, 0]]), (2, [[0, Fraction(1)], [-1, 0]]),
                        (2, [[0, True], [-1, 0]])]:
            assert text(d, rows)[0] is TypeError
        assert text(2, [[0, 1]]) == (ValueError, "matrix shape is not 2x2")
        assert text(2, [[0, 1], [1, 0]]) == _outcome(
            lambda: ReferenceSSBMatrix(Universe("xy"), [[0, Fraction(1, 2)], [Fraction(1, 2), 0]]))

    def test_frozen(self):
        phi = SSBMatrix(ABC, [[0, "1/2", 1], ["-1/2", 0, 0], [-1, 0, 0]])
        ref = ReferenceSSBMatrix(ABC, phi.entries)
        for name in ("universe", "entries", "scaled", "_entries", "other"):
            for act in (lambda x: setattr(x, name, 1), lambda x: delattr(x, name)):
                new_error, ref_error = _outcome(lambda: act(phi)), _outcome(lambda: act(ref))
                assert new_error == ref_error
                assert new_error[0] is dataclasses.FrozenInstanceError
        assert phi == SSBMatrix(ABC, ref.entries)
