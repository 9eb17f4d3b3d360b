import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ssbchoice import (
    BaseRelation,
    Lottery,
    Profile,
    SSBMatrix,
    Universe,
    UniverseMismatchError,
    UtilityVector,
    compare,
    normalize,
    pc_extension,
    restrict,
    separable,
    to_matrix,
    utilitarian,
    weak_order,
)
from ssbchoice import axioms
from ssbchoice.ssb import _ray
from ssbchoice.axioms import (
    DomainDescription,
    AnonymityVerdict,
    IIAVerdict,
    _audit_sets,
    _signature_tables,
    RichnessCondition,
    SWFHandle,
    ValueTable,
    approval_swf,
    audit_richness,
    audit_set_count,
    check_anonymity,
    check_iia,
    check_pareto,
    constant_swf,
    dichotomous_domain,
    dichotomous_relations,
    dictatorial_swf,
    exhaustive_iia,
    intensity_flip_fixture,
    pairwise_utilitarian_swf,
    pareto_pairs,
    pc_domain,
    pc_inclusion_check,
    pc_matrices,
    pc_transitive_domain,
    profiles_over,
    random_lottery,
    random_pc_profile,
    random_ssb_matrix,
    random_weak_order,
    relative_utilitarian_swf,
    restriction_sets,
    unanimity_case,
    weak_orders,
)
from conftest import permuted
from test_ssb import scaled

ABC = Universe(("a", "b", "c"))
ABCD = Universe(("a", "b", "c", "d"))


def flatten(rows):
    return tuple(itertools.chain.from_iterable(rows))


def nested_sign_patterns(m):
    """`axioms._sign_patterns` as it was while members were stored as rows:
    the entry rows of every sign pattern, in entry order."""
    grids = [()]
    for a in range(m):
        tails = list(itertools.product((-1, 0, 1), repeat=m - a - 1))
        heads = [tuple([-row[a] for row in rows]) + (0,) for rows in grids]
        grids = [rows + (head + tail,) for rows, head in zip(grids, heads) for tail in tails]
    return grids


def two_list_sign_patterns(m):
    """`axioms._sign_patterns` as it was before it wrote the last row in
    place: every level, the last included, built as a new list of members
    from a list of heads."""
    grids = [()]
    for a in range(m):
        tails = list(itertools.product((-1, 0, 1), repeat=m - a - 1))
        heads = [tuple([-g[i] for i in range(a, a * m, m)]) + (0,) for g in grids]
        grids = [g + head + tail for g, head in zip(grids, heads) for tail in tails]
    return grids


class TestEnumerations:
    def test_weak_order_counts(self):
        assert len(weak_orders(ABC)) == 13
        assert len(weak_orders(ABCD)) == 75

    def test_weak_orders_distinct(self):
        orders = weak_orders(ABCD)
        assert len({o.strict for o in orders}) == len(orders)

    def test_dichotomous_count(self):
        relations = dichotomous_relations(ABCD)
        assert len(relations) == 15
        assert len({r.strict for r in relations}) == 15

    @pytest.mark.parametrize("m", range(1, 6))
    def test_sign_patterns_are_the_nested_rows_flattened(self, m):
        flat = axioms._sign_patterns(m)
        assert flat == [flatten(rows) for rows in nested_sign_patterns(m)]
        assert all(len(grid) == m * m for grid in flat)

    @pytest.mark.parametrize("m", range(1, 6))
    def test_sign_patterns_in_place_last_row_keeps_members_and_order(self, m):
        assert axioms._sign_patterns(m) == two_list_sign_patterns(m)

    def test_pc_matrix_counts(self):
        assert len(pc_matrices(ABC)) == 27
        assert len(pc_matrices(ABCD)) == 729

    @pytest.mark.parametrize("m", range(1, 6))
    def test_pc_domain_holds_the_pc_matrices_in_entry_order(self, m):
        universe = Universe("abcde"[:m])
        members = pc_matrices(universe)
        assert members == sorted(members, key=lambda matrix: matrix.entries)
        assert pc_domain(universe) == DomainDescription.of(universe, members, "pc")

    def test_profiles_over(self):
        orders = weak_orders(ABC)
        profiles = profiles_over(orders, 2, ABC)
        assert len(profiles) == 169

    @pytest.mark.parametrize("m", range(1, 6))
    def test_weak_orders_come_from_the_table(self, m):
        # in the order of the tier-by-tier builder, and each the table's object
        universe = Universe("abcde"[:m])
        table = ValueTable(universe)
        orders = weak_orders(universe, table)
        assert orders == [weak_order(universe, tiers)
                          for tiers in axioms._ordered_partitions(universe.names)]
        assert len(table._orders) == len(orders)
        assert {id(order) for order in orders} == {id(order) for order in table._orders.values()}
        assert all(a is b for a, b in zip(weak_orders(universe, table), orders))
        assert weak_orders(universe) == orders

    def test_profiles_over_come_from_the_table(self):
        orders = weak_orders(ABC)
        table = ValueTable(ABC)
        pool = profiles_over(orders, 2, ABC, table)
        assert pool == profiles_over(orders, 2, ABC)
        assert len(table._profiles) == len(pool) == 169
        assert all(table._profiles[tuple(p.agents)] is p for p in pool)
        assert all(a is b for a, b in zip(profiles_over(orders, 2, ABC, table), pool))

    def test_restriction_sets(self):
        assert len(restriction_sets(ABC)) == 7
        assert len(restriction_sets(ABCD, min_size=2)) == 11


def borda(profile):
    """Borda scores as an SSB matrix: a rule that violates IIA."""
    m = len(profile.universe)
    score = [0] * m
    for agent in profile.agents:
        for a, _ in agent.strict:
            score[a] += 1
    return SSBMatrix(profile.universe, tuple(
        tuple(score[a] - score[b] for b in range(m)) for a in range(m)))


def relation_signature(matrix, names):
    """Canonical form of the preferences induced on the sub-simplex over `names`:
    two matrices induce identical preferences there iff these are equal."""
    return normalize(restrict(matrix, names)).entries


def _signature(entries, idx):
    """The signature of nested entry rows on the alternatives at ascending
    positions idx: the ray of the restricted rows.  `axioms` read domain
    members this way before they were stored flat; it stays the reference
    for `_signature_tables` and for the flat signature."""
    return _ray(tuple([tuple([entries[a][b] for b in idx]) for a in idx]))


def signature(matrix, names):
    """The reference `_signature` of a whole matrix on `names`."""
    return _signature(matrix.entries, matrix.universe.positions(names))


def signs_match_on(m1, m2, names, rng, trials=50):
    """Cross-check of signature equality by sampling comparison signs."""
    a = restrict(m1, names)
    b = restrict(m2, names)
    for _ in range(trials):
        p = random_lottery(rng, a.universe)
        q = random_lottery(rng, a.universe)
        if compare(a, p, q) is not compare(b, p, q):
            return False
    return True


def reference_check_iia(f, r1, r2, names):
    """`check_iia`'s body from before it was decided by `exhaustive_iia`."""
    if r1.universe != r2.universe or r1.n != r2.n:
        raise ValueError("profiles must share universe and agent count")
    x = r1.universe.subset(names)
    for a1, a2 in zip(r1.agents, r2.agents):
        if relation_signature(to_matrix(a1), x) != relation_signature(to_matrix(a2), x):
            return IIAVerdict(passed=True, vacuous=True, restriction=x)
    hold = relation_signature(f(r1), x) == relation_signature(f(r2), x)
    return IIAVerdict(passed=hold, vacuous=False, restriction=x)


class TestCheckIIA:
    def test_constant_swf_always_passes(self):
        f = constant_swf()
        r1 = Profile(ABC, (weak_order(ABC, ["a", "b", "c"]),))
        r2 = Profile(ABC, (weak_order(ABC, ["c", "b", "a"]),))
        for x in restriction_sets(ABC):
            assert check_iia(f, r1, r2, x).passed

    def test_intensity_fixture_fails(self):
        before, after, pair = intensity_flip_fixture()
        verdict = check_iia(relative_utilitarian_swf(), before, after, pair)
        assert not verdict.passed
        assert not verdict.vacuous

    def test_vacuous_when_hypothesis_fails(self):
        f = pairwise_utilitarian_swf()
        r1 = Profile(ABC, (weak_order(ABC, ["a", "b", "c"]),))
        r2 = Profile(ABC, (weak_order(ABC, ["b", "a", "c"]),))
        verdict = check_iia(f, r1, r2, ("a", "b"))
        assert verdict.passed and verdict.vacuous

    def test_shape_mismatch(self):
        f = pairwise_utilitarian_swf()
        r1 = Profile(ABC, (weak_order(ABC, ["a"]),))
        r2 = Profile(ABC, (weak_order(ABC, ["a"]),) * 2)
        with pytest.raises(ValueError):
            check_iia(f, r1, r2, ("a", "b"))

    def test_decided_as_the_pre_delegation_body_decided(self):
        orders = weak_orders(ABC)
        rng = random.Random(41)
        utilities = [UtilityVector(ABC, tuple(Fraction(rng.randint(0, 2)) for _ in ABC))
                     for _ in range(4)]
        outcomes = set()
        for make_swf, pool in [(pairwise_utilitarian_swf, orders[:5]),
                               (dictatorial_swf, orders[:5]),
                               (lambda: SWFHandle("borda", borda), orders[:5]),
                               (relative_utilitarian_swf, utilities)]:
            f = make_swf()
            for _ in range(60):
                n = rng.randint(1, 3)
                r1, r2 = (Profile(ABC, tuple(rng.choice(pool) for _ in range(n)))
                          for _ in range(2))
                for x in restriction_sets(ABC):
                    verdict = check_iia(f, r1, r2, x)
                    assert verdict == reference_check_iia(f, r1, r2, x)
                    outcomes.add((verdict.passed, verdict.vacuous))
        assert outcomes == {(True, True), (True, False), (False, False)}

    def test_refuses_profiles_over_different_universes(self):
        f = pairwise_utilitarian_swf()
        r1 = Profile(ABC, (weak_order(ABC, ["a", "b", "c"]),))
        xyz = Universe(("x", "y", "z"))
        r2 = Profile(xyz, (weak_order(xyz, ["x", "y", "z"]),))
        ab = Universe(("a", "b"))
        r3 = Profile(ab, (weak_order(ab, ["a", "b"]),))
        for other in (r2, r3):
            with pytest.raises(ValueError, match="share universe and agent count"):
                check_iia(f, r1, other, ("a",))
            with pytest.raises(UniverseMismatchError):
                exhaustive_iia(f, [r1, other])
            with pytest.raises(UniverseMismatchError):
                exhaustive_iia(f, [other, r1], [("a", "b")])

    def test_signature_crosscheck_by_sign_sampling(self):
        rng = random.Random(5)
        for _ in range(40):
            m1 = pc_extension(random_pc_profile(rng, ABCD, 1).agents[0])
            m2 = pc_extension(random_pc_profile(rng, ABCD, 1).agents[0])
            for x in [("a", "b"), ("a", "b", "c"), ABCD.names]:
                same_sig = signature(m1, x) == signature(m2, x)
                if same_sig:
                    assert signs_match_on(m1, m2, x, rng)


class TestExhaustiveIIA:
    def test_pairwise_utilitarian_clean_on_triples(self):
        orders = weak_orders(ABC)[:6]
        profiles = profiles_over(orders, 2, ABC)
        report = exhaustive_iia(pairwise_utilitarian_swf(), profiles)
        assert report.passed
        assert report.checked == len(profiles) ** 2 * 7

    def test_relative_utilitarian_violations_found(self):
        before, after, _ = intensity_flip_fixture()
        report = exhaustive_iia(relative_utilitarian_swf(), [before, after])
        assert not report.passed
        assert any(x == ("a", "b") for _, _, x in report.violations)

    @pytest.mark.parametrize("pool, make_swf", [
        ("weak-orders", pairwise_utilitarian_swf),
        ("weak-orders", dictatorial_swf),
        ("weak-orders", constant_swf),
        ("intensity-flip", relative_utilitarian_swf),
        ("random-utilities", relative_utilitarian_swf),
        ("dichotomous", approval_swf),
    ])
    def test_matches_pairwise_check_iia_oracle(self, pool, make_swf):
        if pool == "weak-orders":
            profiles = profiles_over(weak_orders(ABC)[:6], 2, ABC)
        elif pool == "intensity-flip":
            before, after, _ = intensity_flip_fixture()
            profiles = [before, after, before, after, before, after]
        elif pool == "random-utilities":
            # profile 4 violates with profile 2 on (b, c) before profile 3
            # on (a, b): the report is ordered by profile, then subset
            rng = random.Random(7)
            profiles = [
                Profile(ABC, tuple(
                    UtilityVector(ABC, tuple(Fraction(rng.randint(0, 3)) for _ in ABC))
                    for _ in range(2)
                ))
                for _ in range(8)
            ]
        else:
            profiles = profiles_over(dichotomous_relations(ABC), 2, ABC)
        f = make_swf()
        checked = vacuous = 0
        violations = []
        for i, r1 in enumerate(profiles):
            for j, r2 in enumerate(profiles):
                for x in restriction_sets(ABC):
                    verdict = check_iia(f, r1, r2, x)
                    checked += 1
                    vacuous += verdict.vacuous
                    if not verdict.passed:
                        violations.append((i, j, x))
        assert bool(violations) == (make_swf is relative_utilitarian_swf)
        for cap in (5, len(violations) + 1):
            report = exhaustive_iia(f, profiles, max_violations=cap)
            assert report.checked == checked
            assert report.vacuous == vacuous
            assert report.violations == tuple(violations[:cap])

    def test_skipped_one_alternative_sets_match_the_full_sweep(self):
        # Borda scores violate IIA: the full check_iia sweep, one-alternative
        # sets included, must match the report pair by pair
        for seed in range(3):
            rng = random.Random(seed)
            profiles = [random_pc_profile(rng, ABCD, 2) for _ in range(14)]
            f = SWFHandle("borda", borda)
            checked = vacuous = 0
            violations = []
            for i, r1 in enumerate(profiles):
                for j, r2 in enumerate(profiles):
                    for x in restriction_sets(ABCD):
                        verdict = check_iia(f, r1, r2, x)
                        checked += 1
                        vacuous += verdict.vacuous
                        if not verdict.passed:
                            violations.append((i, j, x))
            assert violations
            report = exhaustive_iia(f, profiles, max_violations=len(violations))
            assert (report.checked, report.vacuous) == (checked, vacuous)
            assert report.violations == tuple(violations)

    @pytest.mark.parametrize("pool, make_swf, fractions", [
        ("weak-orders-2", pairwise_utilitarian_swf, True),
        ("weak-orders-3", pairwise_utilitarian_swf, True),
        ("weak-orders-2", dictatorial_swf, False),
        ("weak-orders-2", constant_swf, False),
        ("weak-orders-2", lambda: SWFHandle("borda", borda), True),
        ("weak-orders-3", lambda: SWFHandle("borda", borda), True),
        ("relations", lambda: SWFHandle("borda", borda), True),
        ("dichotomous", approval_swf, True),
        ("utilities", relative_utilitarian_swf, True),
        ("matrices", pairwise_utilitarian_swf, True),
    ])
    def test_signature_tables_match_the_reference(self, monkeypatch, pool, make_swf,
                                                  fractions):
        # one ray per distinct restricted block gives the signatures, entry
        # types included, and the report of the per-block reference
        for seed in range(3):
            rng = random.Random(seed)
            universe = ABCD if seed else ABC
            if pool.startswith("weak-orders"):
                n = int(pool[-1])
                profiles = [random_pc_profile(rng, universe, n) for _ in range(30)]
            elif pool == "relations":
                profiles = [random_pc_profile(rng, universe, 2, transitive=False)
                            for _ in range(30)]
            elif pool == "dichotomous":
                relations = dichotomous_relations(universe)
                profiles = [Profile(universe, (rng.choice(relations), rng.choice(relations)))
                            for _ in range(30)]
            elif pool == "utilities":
                profiles = [Profile(universe, tuple(
                    UtilityVector(universe, tuple(
                        Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in universe))
                    for _ in range(2))) for _ in range(30)]
            else:
                profiles = [Profile(universe, tuple(
                    random_ssb_matrix(rng, universe) for _ in range(2))) for _ in range(30)]
            subsets = [x for x in restriction_sets(universe) if len(x) > 1]
            got = _signature_tables(make_swf(), profiles, subsets)
            want = _reference_signature_tables(make_swf(), profiles, subsets)
            assert got == want
            assert [type(x) for x in _leaves(got)] == [type(x) for x in _leaves(want)]
            # the outputs' signatures hold Fraction entries where the rule's do
            assert any(type(x) is Fraction for x in _leaves(got[1])) == fractions
            report = exhaustive_iia(make_swf(), profiles, max_violations=10**6)
            with monkeypatch.context() as patched:
                patched.setattr(axioms, "_signature_tables", _reference_signature_tables)
                assert exhaustive_iia(make_swf(), profiles, max_violations=10**6) == report

    def test_profiles_must_share_agent_count(self):
        one = Profile(ABC, (weak_order(ABC, ["a"]),))
        with pytest.raises(ValueError):
            exhaustive_iia(pairwise_utilitarian_swf(), [one, Profile(ABC, one.agents * 2)])

    def test_sampled_four_alternative_profiles_clean(self):
        # 75^2 two-agent weak-order profiles is too many to sweep in CI;
        # a seeded sample of profiles is swept exhaustively instead
        rng = random.Random(2026)
        orders = weak_orders(ABCD)
        profiles = [
            Profile(ABCD, (rng.choice(orders), rng.choice(orders)))
            for _ in range(120)
        ]
        report = exhaustive_iia(pairwise_utilitarian_swf(), profiles)
        assert report.passed
        assert report.checked == 120 * 120 * len(restriction_sets(ABCD))


def _reference_signature_tables(f, profiles, subsets):
    """`axioms._signature_tables` as it was before restricted blocks shared
    their rays: every agent's and output's block is divided afresh."""
    positions = [profiles[0].universe.positions(x) for x in subsets]
    known: dict = {}

    def signatures(agent):
        sig = known.get(agent)
        if sig is None:
            entries = to_matrix(agent).entries
            sig = known[agent] = tuple(_signature(entries, idx) for idx in positions)
        return sig

    hyp = []
    con = []
    for profile in profiles:
        hyp.append(tuple(zip(*(signatures(a) for a in profile.agents))))
        con.append(signatures(f(profile)))
    return hyp, con


def _leaves(value):
    """The non-tuple values inside nested tuples and lists, in order."""
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


class TestCheckAnonymity:
    def test_majority_margins_anonymous(self):
        rng = random.Random(7)
        f = pairwise_utilitarian_swf()
        for _ in range(25):
            profile = random_pc_profile(rng, ABCD, rng.randint(1, 5))
            assert check_anonymity(f, profile).passed

    def test_dictator_detected(self):
        f = dictatorial_swf()
        profile = Profile(ABC, (
            weak_order(ABC, ["a", "b", "c"]),
            weak_order(ABC, ["c", "b", "a"]),
        ))
        verdict = check_anonymity(f, profile)
        assert not verdict.passed
        assert verdict.witness is not None

    def test_single_agent_vacuous(self):
        f = dictatorial_swf()
        profile = Profile(ABC, (weak_order(ABC, ["a", "b", "c"]),))
        assert check_anonymity(f, profile).passed

    @pytest.mark.parametrize("n, relabelings", [(1, 0), (2, 1), (3, 5), (4, 23)])
    def test_identity_is_not_relabeled(self, n, relabelings):
        class CountingMemo(dict):
            lookups = 0

            def get(self, key, default=None):
                self.lookups += 1
                return super().get(key, default)

        f = SWFHandle("pairwise-utilitarian", utilitarian, CountingMemo())
        profile = Profile(ABC, tuple(weak_orders(ABC)[:n]))
        assert check_anonymity(f, profile).passed
        # one lookup for the profile itself, one per relabeled profile
        assert f._cache.lookups == 1 + relabelings

    def test_witness_is_the_first_failing_permutation(self):
        a, b = weak_orders(ABC)[:2]
        for agents in [(a, a, b), (a, b, b, a), (b, a, a, a)]:
            profile = Profile(ABC, agents)
            witness = next(pi for pi in itertools.permutations(range(len(agents)))
                           if agents[pi[0]] != agents[0])
            verdict = check_anonymity(dictatorial_swf(), profile)
            assert verdict.witness == witness
            sampled = check_anonymity(dictatorial_swf(), profile, permutation_limit=1,
                                      samples=30, seed=3)
            rng = random.Random(3)
            draws = [tuple(rng.sample(range(len(agents)), len(agents))) for _ in range(30)]
            assert sampled.witness == next(pi for pi in draws if agents[pi[0]] != agents[0])

    def test_large_profiles_sampled(self):
        rng = random.Random(9)
        f = pairwise_utilitarian_swf()
        profile = random_pc_profile(rng, ABC, 8)
        verdict = check_anonymity(f, profile, permutation_limit=6, samples=10)
        assert verdict.passed and verdict.mode.startswith("sampled")

    def test_repeated_agent_sequences_are_checked_once(self):
        a, b, c = weak_orders(ABC)[:3]
        agents = (a, b, a, c, b, a)
        calls = []

        def recording(profile):
            calls.append(profile.agents)
            return utilitarian(profile)

        assert check_anonymity(SWFHandle("recording", recording), Profile(ABC, agents)).passed
        sequences = {tuple(agents[i] for i in pi) for pi in itertools.permutations(range(6))}
        # the profile itself, then each other sequence once: 6! / (3! 2! 1!) - 1
        assert calls[0] == agents
        assert len(calls[1:]) == len(set(calls[1:])) == len(sequences) - 1 == 59
        assert set(calls[1:]) == sequences - {agents}

    def test_relabeled_profiles_are_not_memoized(self):
        f = pairwise_utilitarian_swf()
        profile = Profile(ABCD, tuple(
            weak_order(ABCD, list(order))
            for order in ("abcd", "bcda", "cdab", "dabc")
        ))
        assert check_anonymity(f, profile).passed
        assert list(f._cache) == [profile]


def reference_check_anonymity(f, profile, permutation_limit=6, samples=24, seed=0):
    """`check_anonymity` as it was while each relabeling was built afresh
    (`conftest.permuted`) instead of looked up in a value table."""
    base = f(profile)
    if profile.n <= permutation_limit:
        perms = itertools.islice(itertools.permutations(range(profile.n)), 1, None)
        mode = "exhaustive"
    else:
        rng = random.Random(seed)
        pool = list(range(profile.n))
        perms = [tuple(rng.sample(pool, profile.n)) for _ in range(samples)]
        mode = f"sampled({samples}, seed={seed})"
    seen = None
    if profile.n >= 3:
        first: dict = {}
        label = [first.setdefault(agent, len(first)) for agent in profile.agents]
        if len(first) < profile.n:
            seen = {tuple(label)}
    for pi in perms:
        if seen is not None:
            sequence = tuple([label[i] for i in pi])
            if sequence in seen:
                continue
            seen.add(sequence)
        relabeled = permuted(profile, pi)
        if (f._cache.get(relabeled) or f.fn(relabeled)).entries != base.entries:
            return AnonymityVerdict(passed=False, witness=pi, mode=mode)
    return AnonymityVerdict(passed=True, witness=None, mode=mode)


class TestCheckAnonymityAgainstTheReference:
    @pytest.mark.parametrize("make", [pairwise_utilitarian_swf, dictatorial_swf,
                                      constant_swf])
    def test_same_verdict_with_and_without_a_value_table(self, make):
        f, ref = make(), make()
        table = ValueTable(ABC)
        # a pool in the table and the memo, as check-axioms has before sampling
        for profile in profiles_over(weak_orders(ABC, table), 2, ABC, table):
            f(profile)
        rng = random.Random(61)
        verdicts = set()
        for n in range(1, 9):
            for _ in range(12):
                # few distinct orders at large n, so that agents repeat
                orders = rng.sample(list(table._orders.values()), rng.randint(1, 4))
                agents = tuple(rng.choice(orders) for _ in range(n))
                profile = Profile(ABC, agents)
                seed = rng.randrange(100)
                want = reference_check_anonymity(ref, profile, seed=seed)
                assert check_anonymity(f, profile, seed=seed) == want
                assert check_anonymity(f, profile, seed=seed, table=table) == want
                shared = table.profile(agents)
                assert check_anonymity(f, shared, seed=seed, table=table) == want
                verdicts.add((want.passed, want.mode.split("(")[0]))
        want_passed = make is not dictatorial_swf
        assert (want_passed, "exhaustive") in verdicts and (want_passed, "sampled") in verdicts
        # the memo is read, not filled: it holds the pool and the checked profiles
        assert len(f._cache) <= 169 + 8 * 12


class TestCheckPareto:
    def test_delegate_pair(self, table1_profile):
        from ssbchoice import mix

        u = table1_profile.universe
        q = mix(u.pure("A"), u.pure("D"), Fraction(1, 2))
        verdict = check_pareto(
            pairwise_utilitarian_swf(), table1_profile, pairs=[(u.pure("C"), q)]
        )
        assert verdict.passed and verdict.strict_cases == 1

    def test_zero_weight_rule_fails(self):
        strict_agent = weak_order(ABC, ["a", "b", "c"])
        indifferent = weak_order(ABC, [ABC.names])
        profile = Profile(ABC, (strict_agent, indifferent))
        # weights (0, 1): the second agent's normalized matrix
        muted = SWFHandle("zero-weight-on-1", lambda r: normalize(to_matrix(r.agents[1])))
        verdict = check_pareto(muted, profile, pareto_pairs(ABC, samples=50))
        assert not verdict.passed
        p, q, dominance, outcome = verdict.counterexample
        assert dominance.value == "strict"

    def test_all_indifferent_profile(self):
        profile = Profile(ABC, (weak_order(ABC, [ABC.names]),) * 3)
        verdict = check_pareto(constant_swf(), profile, pareto_pairs(ABC, samples=50))
        assert verdict.passed and verdict.strict_cases == 0

    def test_pareto_pairs_are_pure_pairs_then_seeded_samples(self):
        pairs = pareto_pairs(ABC, samples=30, seed=4)
        pure = [ABC.pure(n) for n in ABC.names]
        assert pairs[:9] == [(p, q) for p in pure for q in pure]
        assert len(pairs) == 9 + 30
        assert pairs == pareto_pairs(ABC, samples=30, seed=4)
        assert pairs != pareto_pairs(ABC, samples=30, seed=5)

    def test_unanimity_cases_have_expected_structure(self):
        from ssbchoice import ParetoDominance, pareto_relation

        rng = random.Random(11)
        for _ in range(120):
            profile, p, q = unanimity_case(rng, ABCD, 3, strict=True)
            assert pareto_relation(profile, p, q) is ParetoDominance.STRICT_DOMINANCE
            profile, p, q = unanimity_case(rng, ABCD, 3, strict=False)
            assert pareto_relation(profile, p, q) is ParetoDominance.WEAK_ONLY


class TestRichness:
    @pytest.mark.parametrize("m", range(1, 8))
    def test_audit_set_count_counts_the_audited_sets(self, m):
        universe = Universe(tuple("abcdefg"[:m]))
        assert audit_set_count(m) == len(_audit_sets(universe, m))

    def test_full_pc_domain_is_rich(self):
        report = audit_richness(pc_domain(ABCD))
        assert report.passed
        assert all(r.mode == "exhaustive" for r in report.results)

    def test_missing_inverses_fail_r3(self):
        members = pc_matrices(ABCD)
        chain = pc_extension(weak_order(ABCD, ["a", "b", "c", "d"]))
        trimmed = [m for m in members if m != scaled(chain, -1)]
        domain = DomainDescription.of(ABCD, trimmed, "pc-minus-inverse")
        report = audit_richness(domain, [RichnessCondition.INVERSION])
        assert not report.passed
        assert report.results[0].witness is not None

    def test_missing_zero_fails_r2(self):
        members = [m for m in pc_matrices(ABC) if m != SSBMatrix.zero(ABC)]
        domain = DomainDescription.of(ABC, members, "pc-minus-zero")
        report = audit_richness(domain, [RichnessCondition.FULL_INDIFFERENCE])
        assert not report.passed

    def test_members_over_another_universe_are_refused(self):
        ab = Universe(("a", "b"))
        with pytest.raises(UniverseMismatchError):
            DomainDescription.of(ab, [SSBMatrix.zero(ABC)])
        with pytest.raises(UniverseMismatchError):
            DomainDescription.of(ABC, [SSBMatrix.zero(ABC), SSBMatrix.zero(ab)])

    def test_transitive_pc_domain_satisfies_r1_to_r4(self):
        report = audit_richness(pc_transitive_domain(ABCD))
        assert report.passed

    def test_dichotomous_domain_satisfies_r5(self):
        report = audit_richness(
            dichotomous_domain(ABCD),
            [RichnessCondition.DICHOTOMOUS_PATTERNS],
        )
        assert report.passed

    def test_crippled_dichotomous_domain_fails_r5(self):
        relations = [
            r for r in dichotomous_relations(ABCD)
            if len(r.strict) == 0 or (0, 1) not in r.strict
        ]
        domain = DomainDescription.of(
            ABCD, (pc_extension(r) for r in relations), "no-a-over-b"
        )
        report = audit_richness(domain, [RichnessCondition.DICHOTOMOUS_PATTERNS])
        assert not report.passed

    def test_sampled_mode_reported(self):
        domain = pc_domain(ABCD)
        report = audit_richness(domain, member_limit=100, seed=3)
        assert report.passed
        modes = {r.condition.value: r.mode for r in report.results}
        assert modes["R1"] == modes["R2"] == "exhaustive"
        assert modes["R3"] == "exhaustive"
        assert modes["R4"].startswith("sampled(100")

    @pytest.mark.parametrize("seed", range(8))
    def test_missing_inverse_found_whatever_the_sample(self, seed):
        chain = pc_extension(weak_order(ABC, ["a", "b", "c"]))
        members = [m for m in pc_matrices(ABC) if m != scaled(chain, -1)]
        report = audit_richness(
            DomainDescription.of(ABC, members), [RichnessCondition.INVERSION],
            member_limit=3, seed=seed,
        )
        (r3,) = report.results
        assert not r3.passed and r3.mode == "exhaustive"

    def test_five_alternative_pc_domain_is_rich(self):
        domain = pc_domain(Universe(("a", "b", "c", "d", "e")))
        assert len(domain.matrices) == 3 ** 10
        report = audit_richness(domain, member_limit=150, seed=5)
        assert report.passed

    def test_members_are_counted_and_looked_up_up_to_scale(self):
        chain = pc_extension(weak_order(ABC, ["a", "b", "c"]))
        graded = separable(UtilityVector.of(ABC, {"a": 2, "b": 1, "c": 0}))
        domain = DomainDescription.of(
            ABC, [chain, scaled(chain, 3), graded, scaled(graded, Fraction(1, 2))]
        )
        assert len(domain.matrices) == 2
        assert scaled(chain, Fraction(2, 7)) in domain
        assert scaled(graded, 5) in domain
        assert normalize(graded) in domain
        assert scaled(chain, -1) not in domain
        assert SSBMatrix.zero(ABC) not in domain

    def test_condition_parse(self):
        assert RichnessCondition.parse("r3") is RichnessCondition.INVERSION
        with pytest.raises(ValueError):
            RichnessCondition.parse("R9")


def r1_oracle(domain):
    """Every one of the m! relabelings of every member is in the domain."""
    names = domain.universe.names
    return all(
        member.relabel(dict(zip(names, perm))) in domain
        for member in domain.matrices
        for perm in itertools.permutations(names)
    )


def r4_oracle(domain):
    """(passed, sorted index of the first failing member, its failing xs): some
    member must have the same restriction on xs and a positive column at an
    outside alternative."""
    names = domain.universe.names
    subsets = [
        xs
        for size in range(1, min(4, len(names) - 1) + 1)
        for xs in itertools.combinations(names, size)
    ]
    by_restriction = {}  # (xs, normalized restriction) -> members
    for candidate in domain.matrices:
        for xs in subsets:
            key = (xs, normalize(restrict(candidate, xs)).entries)
            by_restriction.setdefault(key, []).append(candidate)
    for index, member in enumerate(domain.matrices):
        for xs in subsets:
            outside = [a for a in names if a not in xs]
            candidates = by_restriction[xs, normalize(restrict(member, xs)).entries]
            if not any(
                all(c[x, a] > 0 for x in xs) for c in candidates for a in outside
            ):
                return False, index, xs
    return True, None, None


def r4_witness(xs):
    return (f"no member matches a member on {xs} while ranking {xs} above a "
            "fresh alternative")


def r5_oracle(domain):
    """(passed, witness): the first two-tier pattern, in (size, xs, r,
    approved) order, that is no member's normalized restriction to xs."""
    names = domain.universe.names
    for size in range(1, min(4, len(names)) + 1):
        for xs in itertools.combinations(names, size):
            realized = {normalize(restrict(m, xs)).entries for m in domain.matrices}
            sub = Universe(xs)
            for r in range(size + 1):
                for approved in itertools.combinations(xs, r):
                    pattern = pc_extension(weak_order(sub, [approved or xs]))
                    if pattern.entries not in realized:
                        return False, (f"pattern approving {approved or '(nothing)'} "
                                       f"on {xs} is not any member's restriction")
    return True, None


def two_pass_r4(domain, scope):
    """R4 in two passes, the reference for sampled scopes: per restriction set
    xs, first the signatures on xs of every member that ranks xs above one
    common outside alternative, then the scoped member's signature looked
    up among them; the witness of the first failing (member, xs) or None."""
    names = domain.universe.names
    subsets = [
        xs
        for size in range(1, min(4, len(names) - 1) + 1)
        for xs in itertools.combinations(names, size)
    ]
    for member in scope:
        for xs in subsets:
            outside = [a for a in names if a not in xs]
            extendable = {
                relation_signature(c, xs) for c in domain.matrices
                if any(all(c[x, a] > 0 for x in xs) for a in outside)
            }
            if relation_signature(member, xs) not in extendable:
                return r4_witness(xs)
    return None


def generator_mappings(universe):
    names = universe.names
    return {
        "transposition": dict(zip(names, names[1:2] + names[:1] + names[2:])),
        "cycle": dict(zip(names, names[1:] + names[:1])),
    }


def assert_matches_oracles(domain):
    report = audit_richness(
        domain,
        [RichnessCondition.NEUTRALITY, RichnessCondition.BOTTOM_EXTENSION],
    )
    r1, r4 = report.results
    assert r1.passed == r1_oracle(domain)
    if not r1.passed:  # the witness names a generator that leaves the domain
        assert r1.witness in [
            f"relabeling {mapping} (the {label} generator) of a member leaves "
            "the domain"
            for label, mapping in generator_mappings(domain.universe).items()
            if any(m.relabel(mapping) not in domain for m in domain.matrices)
        ]
    passed, index, xs = r4_oracle(domain)
    assert r4.passed == passed
    assert r4.witness == (None if passed else r4_witness(xs))
    return r1, r4, index, xs


def assert_sampled_r4_matches(domain, seed):
    """R4 on seeded samples of 1, half and all but one of the members agrees
    with the two-pass reference on the same sample."""
    members = domain.matrices
    n = len(members)
    for limit in sorted({k for k in (1, n // 2, n - 1) if 0 < k < n}):
        (r4,) = audit_richness(
            domain, [RichnessCondition.BOTTOM_EXTENSION],
            member_limit=limit, seed=seed,
        ).results
        scope = random.Random(seed).sample(members, limit)
        assert r4.mode == f"sampled({limit} of {n}, seed={seed})"
        assert r4.witness == two_pass_r4(domain, scope)


def random_subdomain(seed):
    rng = random.Random(seed)
    members = pc_matrices(ABC)
    return DomainDescription.of(ABC, rng.sample(members, rng.randint(1, len(members))))


def chain_orbit(universe):
    return {
        pc_extension(weak_order(universe, list(order)))
        for order in itertools.permutations(universe.names)
    }


class TestRichnessAgainstOracles:
    @pytest.mark.parametrize("build", [pc_domain, pc_transitive_domain,
                                       dichotomous_domain])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_generated_domains(self, build, m):
        universe = Universe("abcd"[:m])
        r1, r4, *_ = assert_matches_oracles(build(universe))
        assert r1.passed
        assert r4.passed == (build is not dichotomous_domain or m <= 2)

    def test_member_removed(self):
        chain = pc_extension(weak_order(ABC, ["a", "b", "c"]))
        members = [m for m in pc_matrices(ABC) if m != chain]
        r1, *_ = assert_matches_oracles(DomainDescription.of(ABC, members))
        assert not r1.passed

    def test_orbit_removed(self):
        orbit = chain_orbit(ABC)
        members = [m for m in pc_matrices(ABC) if m not in orbit]
        r1, r4, *_ = assert_matches_oracles(DomainDescription.of(ABC, members))
        assert r1.passed and not r4.passed

    @pytest.mark.parametrize("orders, failing", [
        # closed under the transposition (a b), not under the cycle
        ((["a", "b", "c"], ["b", "a", "c"]), "cycle"),
        # closed under the cycle (a b c), not under the transposition
        ((["a", "b", "c"], ["b", "c", "a"], ["c", "a", "b"]), "transposition"),
    ])
    def test_one_generator_orbit_removed(self, orders, failing):
        removed = {pc_extension(weak_order(ABC, order)) for order in orders}
        members = [m for m in pc_matrices(ABC) if m not in removed]
        r1, *_ = assert_matches_oracles(DomainDescription.of(ABC, members))
        assert not r1.passed and f"the {failing} generator" in r1.witness

    def test_inverse_removed(self):
        chain = pc_extension(weak_order(ABCD, ["a", "b", "c", "d"]))
        members = [m for m in pc_matrices(ABCD) if m != scaled(chain, -1)]
        r1, *_ = assert_matches_oracles(DomainDescription.of(ABCD, members))
        assert not r1.passed

    def test_non_pc_member_added(self):
        graded = separable(UtilityVector.of(ABC, {"a": 2, "b": 1, "c": 0}))
        domain = DomainDescription.of(ABC, [*pc_matrices(ABC), graded])
        r1, r4, *_ = assert_matches_oracles(domain)
        assert not r1.passed and r4.passed

    def test_r4_fails_at_a_later_restriction_set(self):
        # nothing ranks both a and b above c, so the first member passes
        # every singleton and fails on (a, b)
        members = [
            m for m in pc_matrices(ABC) if not (m["a", "c"] > 0 and m["b", "c"] > 0)
        ]
        _, r4, index, xs = assert_matches_oracles(DomainDescription.of(ABC, members))
        assert not r4.passed and (index, xs) == (0, ("a", "b"))

    def test_r4_fails_at_a_later_member(self):
        # the third sorted member is the first to fail, on (b, c); a scan by
        # restriction set first would stop on (a, b) at a later member
        _, r4, index, xs = assert_matches_oracles(random_subdomain(0))
        assert not r4.passed and (index, xs) == (2, ("b", "c"))

    @pytest.mark.parametrize("seed", range(1, 12))
    def test_random_subdomains(self, seed):
        assert_matches_oracles(random_subdomain(seed))

    @pytest.mark.parametrize("seed", range(40))
    def test_sampled_scopes(self, seed):
        assert_sampled_r4_matches(random_subdomain(seed), seed)

    @pytest.mark.parametrize("build", [pc_transitive_domain, dichotomous_domain])
    @pytest.mark.parametrize("seed", range(3))
    def test_sampled_scopes_of_generated_domains(self, build, seed):
        assert_sampled_r4_matches(build(ABCD), seed)

    @pytest.mark.parametrize("build, universe, seeds", [
        (pc_domain, ABC, range(40)),
        (pc_domain, ABCD, range(8)),
        (dichotomous_domain, ABCD, range(40)),
    ], ids=["pc-3", "pc-4", "dichotomous-4"])
    def test_r5_matches_oracle_on_subdomains(self, build, universe, seeds):
        full = build(universe).matrices
        outcomes = set()
        for seed in seeds:
            rng = random.Random(seed)
            members = rng.sample(full, rng.randint(1, len(full)))
            domain = DomainDescription.of(universe, members)
            (r5,) = audit_richness(
                domain, [RichnessCondition.DICHOTOMOUS_PATTERNS]).results
            assert (r5.passed, r5.witness) == r5_oracle(domain)
            outcomes.add(r5.passed)
        assert False in outcomes


class TestRelationSignature:
    """The reference `_signature` of nested rows, which `_signature_tables`
    is checked against, against the normalized restriction it stands for."""

    @pytest.mark.parametrize("kind", ["random", "separable", "scaled", "pc"])
    def test_equals_normalized_restriction(self, kind):
        rng = random.Random(17)
        for _ in range(25):
            if kind == "random":
                matrix = random_ssb_matrix(rng, ABCD)
            elif kind == "separable":
                matrix = separable(UtilityVector(ABCD, tuple(
                    Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in ABCD
                )))
            elif kind == "scaled":
                matrix = scaled(random_ssb_matrix(rng, ABCD),
                                Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            else:
                matrix = scaled(pc_extension(random_pc_profile(
                    rng, ABCD, 1, transitive=False).agents[0]), rng.randint(1, 3))
            for x in restriction_sets(ABCD):
                assert signature(matrix, x) \
                    == normalize(restrict(matrix, x)).entries

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_normalized_restriction_with_entry_types(self, data):
        m = data.draw(st.integers(min_value=1, max_value=5))
        universe = Universe(tuple(chr(ord("a") + i) for i in range(m)))
        values = st.fractions(min_value=-6, max_value=6, max_denominator=7)
        grid = [[0] * m for _ in range(m)]
        for a in range(m):
            for b in range(a + 1, m):
                x = data.draw(values)
                grid[a][b], grid[b][a] = x, -x
        matrix = SSBMatrix(universe, tuple(map(tuple, grid)))
        names = data.draw(st.sets(st.sampled_from(universe.names), min_size=1))
        got = signature(matrix, names)
        want = normalize(restrict(matrix, names)).entries
        assert got == want
        assert [[type(x) for x in row] for row in got] \
            == [[type(x) for x in row] for row in want]


def flat_signature(matrix, names):
    """`axioms._signature` of a whole matrix's flat entries on `names`, read
    through the block getter R4 and R5 use."""
    get = axioms._block_getter(matrix.universe.positions(names), len(matrix.universe))
    return axioms._signature(get(flatten(matrix.entries)))


class TestFlatSignature:
    """The flat signature R4 and R5 read, against the normalized restriction
    it stands for, flattened to one row."""

    @pytest.mark.parametrize("kind", ["random", "separable", "scaled", "pc"])
    def test_equals_normalized_restriction(self, kind):
        rng = random.Random(17)
        rays = 0
        for _ in range(25):
            if kind == "random":
                matrix = random_ssb_matrix(rng, ABCD)
            elif kind == "separable":
                matrix = separable(UtilityVector(ABCD, tuple(
                    Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in ABCD
                )))
            elif kind == "scaled":
                matrix = scaled(random_ssb_matrix(rng, ABCD),
                                Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            else:
                matrix = scaled(pc_extension(random_pc_profile(
                    rng, ABCD, 1, transitive=False).agents[0]), rng.randint(1, 3))
            for x in restriction_sets(ABCD):
                got = flat_signature(matrix, x)
                want = (flatten(normalize(restrict(matrix, x)).entries),)
                assert got == want
                assert [type(v) for v in got[0]] == [type(v) for v in want[0]]
                rays += any(type(v) is Fraction for v in got[0])
        # random and separable matrices have Fraction rays; PC and integer
        # scalings of them do not
        assert (rays > 0) == (kind in ("random", "separable", "scaled"))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_normalized_restriction_with_entry_types(self, data):
        m = data.draw(st.integers(min_value=1, max_value=5))
        universe = Universe(tuple(chr(ord("a") + i) for i in range(m)))
        values = st.fractions(min_value=-6, max_value=6, max_denominator=7)
        grid = [[0] * m for _ in range(m)]
        for a in range(m):
            for b in range(a + 1, m):
                x = data.draw(values)
                grid[a][b], grid[b][a] = x, -x
        matrix = SSBMatrix(universe, tuple(map(tuple, grid)))
        names = data.draw(st.sets(st.sampled_from(universe.names), min_size=1))
        got = flat_signature(matrix, names)
        want = (flatten(normalize(restrict(matrix, names)).entries),)
        assert got == want
        assert [type(x) for x in got[0]] == [type(x) for x in want[0]]


class TestPCInclusion:
    def test_full_pc_domain_inside(self):
        assert pc_inclusion_check(pc_domain(ABC)).all_pc
        assert pc_inclusion_check(pc_domain(ABCD)).all_pc

    def test_graded_matrix_flagged(self):
        graded = separable(UtilityVector.of(ABC, {"a": 2, "b": 1, "c": 0}))
        domain = DomainDescription.of(ABC, [*pc_matrices(ABC), graded], "graded")
        report = pc_inclusion_check(domain)
        assert not report.all_pc
        assert report.witness is not None

    def test_witness_is_the_smallest_non_pc_member(self):
        up = separable(UtilityVector.of(ABC, {"a": 2, "b": 1, "c": 0}))
        down = separable(UtilityVector.of(ABC, {"a": 0, "b": 1, "c": 2}))
        domain = DomainDescription.of(ABC, [up, *pc_matrices(ABC), down])
        report = pc_inclusion_check(domain)
        assert not report.all_pc
        assert report.witness == normalize(down)
        assert report.witness.entries[0] == (0, Fraction(-1, 2), -1)

    def test_chain_orbit_inside(self, chain3_matrix):
        mappings = [
            dict(zip(ABC.names, perm))
            for perm in [("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b"),
                         ("a", "c", "b"), ("b", "a", "c"), ("c", "b", "a")]
        ]
        orbit = [chain3_matrix.relabel(m) for m in mappings]
        assert pc_inclusion_check(DomainDescription.of(ABC, orbit, "orbit")).all_pc


class TestSWFHandleCache:
    def test_deterministic_and_memoized(self):
        calls = []

        def counting(profile):
            calls.append(1)
            return SSBMatrix.zero(profile.universe)

        handle = SWFHandle("counting", counting)
        profile = Profile(ABC, (weak_order(ABC, ["a", "b", "c"]),))
        same = Profile(ABC, (weak_order(ABC, ["a", "b", "c"]),))
        assert handle(profile).entries == handle(same).entries
        assert len(calls) == 1

    def test_approval_handle_matches_direct(self):
        from ssbchoice import approval_aggregate

        profile = Profile(ABCD, (
            weak_order(ABCD, [["a", "b"]]),
            weak_order(ABCD, [["c"]]),
        ))
        assert approval_swf()(profile).entries \
            == approval_aggregate(profile)[1].entries


# The name-level generators that `random_weak_order` and `unanimity_case`
# replaced, kept as the reference that pins every seeded instance.


def _reference_random_weak_order(rng, universe):
    labels = {n: rng.randrange(len(universe)) for n in universe.names}
    tiers = [
        [n for n in universe.names if labels[n] == level]
        for level in sorted(set(labels.values()))
    ]
    return weak_order(universe, tiers)


def _reference_unanimity_case(rng, universe, n, strict):
    names = list(universe.names)
    x, y = rng.sample(names, 2)
    others = [a for a in names if a not in (x, y)]

    def tying_order():
        rest = (_reference_random_weak_order(rng, Universe(tuple(others)))
                if others else None)
        tiers = [list(t) for t in rest.tiers()] if rest is not None else []
        slot = rng.randint(0, len(tiers))
        tiers.insert(slot, [x, y])
        return weak_order(universe, tiers)

    agents = [tying_order() for _ in range(n)]
    if strict:
        winner = rng.randrange(n)
        tiers = [list(t) for t in agents[winner].tiers()]
        joint = next(i for i, t in enumerate(tiers) if x in t)
        tiers[joint] = [a for a in tiers[joint] if a != x]
        tiers.insert(joint, [x])
        agents[winner] = weak_order(universe, tiers)
        share = Fraction(rng.randint(1, 3), 4)
        p = Lottery.of(universe, {x: share, y: 1 - share})
        q = Lottery.of(universe, {x: share - Fraction(1, 4),
                                  y: 1 - share + Fraction(1, 4)})
    else:
        p = random_lottery(rng, universe)
        delta = min(p[x], p[y], Fraction(1, 5))
        moved = dict(zip(universe.names, p.probs))
        moved[x] = p[x] + delta
        moved[y] = p[y] - delta
        q = Lottery.of(universe, moved)
    return Profile(universe, tuple(agents)), p, q


class TestSeededInstancesPinned:
    UNIVERSES = [Universe(tuple(chr(ord("a") + i) for i in range(m)))
                 for m in range(2, 7)]

    def test_random_weak_order(self):
        for universe in self.UNIVERSES:
            for seed in range(60):
                rng, ref = random.Random(seed), random.Random(seed)
                for _ in range(3):
                    assert random_weak_order(rng, universe) \
                        == _reference_random_weak_order(ref, universe)
                assert rng.random() == ref.random()

    @pytest.mark.parametrize("strict", [False, True])
    def test_unanimity_case(self, strict):
        for universe in self.UNIVERSES:
            for n in (1, 2, 3, 5):
                for seed in range(60):
                    rng, ref = random.Random(seed), random.Random(seed)
                    profile, p, q = unanimity_case(rng, universe, n, strict)
                    want_profile, want_p, want_q = _reference_unanimity_case(
                        ref, universe, n, strict)
                    assert profile.agents == want_profile.agents
                    assert (p, q) == (want_p, want_q)
                    assert rng.random() == ref.random()


def _fresh_ranked(universe, rank):
    """The weak order of a rank vector, built as a new object."""
    m = len(rank)
    return BaseRelation(universe, frozenset(
        (a, b) for a in range(m) for b in range(m) if rank[a] < rank[b]))


class TestValueTable:
    def test_equal_rank_patterns_share_one_object(self):
        table = ValueTable(ABCD)
        first = table.order([0, 0, 2, 1])
        assert table.order([3, 3, 9, 5]) is first
        assert table.order([1, 1, 3, 2]) is first
        assert table.order([0, 1, 2, 1]) is not first
        assert len(table._orders) == 2

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_every_rank_vector_yields_its_weak_order(self, m):
        universe = Universe(tuple(chr(ord("a") + i) for i in range(m)))
        table = ValueTable(universe)
        for rank in itertools.product(range(m), repeat=m):
            want = _fresh_ranked(universe, rank)
            assert ValueTable(universe).order(rank) == want
            assert table.order(rank) == want
        # one entry per weak order: the rank vectors cover them all
        assert len(table._orders) == len(weak_orders(universe))

    def test_one_entry_per_distinct_drawn_order(self):
        for seed in range(20):
            rng, ref = random.Random(seed), random.Random(seed)
            table = ValueTable(ABCD)
            drawn = [random_weak_order(rng, ABCD, table) for _ in range(30)]
            ranks = {tuple(ref.randrange(4) for _ in range(4)) for _ in range(30)}
            assert len(table._orders) == len(set(drawn)) <= len(ranks)
            for a in drawn:
                for b in drawn:
                    assert (a is b) == (a == b)

    def test_shared_table_changes_no_draw(self):
        for seed in range(30):
            rng, ref = random.Random(seed), random.Random(seed)
            table = ValueTable(ABCD)
            for _ in range(4):
                n = rng.randint(1, 4)
                assert n == ref.randint(1, 4)
                profile = random_pc_profile(rng, ABCD, n, table=table)
                assert profile == random_pc_profile(ref, ABCD, n)
                strict = rng.random() < 0.5
                assert strict == (ref.random() < 0.5)
                case = unanimity_case(rng, ABCD, n, strict, table)
                assert case == unanimity_case(ref, ABCD, n, strict)
                # every agent drawn is the table's object for its order
                entries = {id(order) for order in table._orders.values()}
                assert all(id(agent) in entries
                           for agent, _ in profile.runs + case[0].runs)
            assert rng.random() == ref.random()

    def test_shared_table_interns_profiles_and_lotteries(self):
        # test_shared_table_changes_no_draw with intransitive draws as well:
        # equal agent tuples give one Profile object, and the draws and the
        # instances are those of fresh calls
        for seed in range(30):
            rng, ref = random.Random(seed), random.Random(seed)
            # every lottery unanimity_case builds from its integer form is
            # the table's object
            table = ValueTable(ABC)
            drawn = []
            for _ in range(6):
                n = rng.randint(1, 3)
                assert n == ref.randint(1, 3)
                transitive = rng.random() < 0.8
                assert transitive == (ref.random() < 0.8)
                profile = random_pc_profile(rng, ABC, n, transitive, table)
                assert profile == random_pc_profile(ref, ABC, n, transitive)
                strict = rng.random() < 0.5
                assert strict == (ref.random() < 0.5)
                case = unanimity_case(rng, ABC, n, strict, table)
                assert case == unanimity_case(ref, ABC, n, strict)
                drawn += [profile, case[0]]
                for p in (profile, case[0]):
                    assert table._profiles[tuple(p.agents)] is p
                shared = {id(lottery) for lottery in table._lotteries.values()}
                assert id(case[2]) in shared and (id(case[1]) in shared) == strict
            assert rng.random() == ref.random()
            for a in drawn:
                for b in drawn:
                    assert (a is b) == (a == b)
            assert len(table._profiles) == len(set(drawn))

    def test_table_serves_one_universe(self):
        # each of the six functions that take a table refuses one over
        # another universe before it draws or builds anything
        table = ValueTable(ABC)
        table.order([0, 1, 2])
        xyz = Universe(("x", "y", "z"))
        profile = Profile(xyz, (weak_order(xyz, ["x", "y", "z"]),) * 2)
        rng = random.Random(0)
        calls = [
            lambda: weak_orders(xyz, table),
            lambda: random_weak_order(rng, xyz, table),
            lambda: random_pc_profile(rng, xyz, 2, table=table),
            lambda: unanimity_case(rng, xyz, 2, False, table),
            lambda: profiles_over(profile.agents, 2, xyz, table),
            lambda: check_anonymity(pairwise_utilitarian_swf(), profile, table=table),
        ]
        for call in calls:
            with pytest.raises(UniverseMismatchError):
                call()
        assert rng.random() == random.Random(0).random()
        assert len(table._orders) == 1 and not table._profiles
        # an equal universe, though another object, is the table's own
        assert weak_orders(Universe(("a", "b", "c")), table) == weak_orders(ABC)
