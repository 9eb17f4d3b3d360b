import random
from fractions import Fraction

import pytest

from ssbchoice import (
    Profile,
    SSBMatrix,
    Universe,
    UtilityVector,
    WeightVector,
    affine_utilitarian,
    pc_extension,
    separable,
    weak_order,
)
from ssbchoice.axioms import (
    DomainDescription,
    RichnessCondition,
    SWFHandle,
    approval_swf,
    audit_richness,
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
    pc_domain,
    pc_inclusion_check,
    pc_matrices,
    pc_transitive_domain,
    profiles_over,
    random_pc_profile,
    relation_signature,
    relative_utilitarian_swf,
    restriction_sets,
    signs_match_on,
    unanimity_case,
    weak_orders,
)

ABC = Universe(("a", "b", "c"))
ABCD = Universe(("a", "b", "c", "d"))


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

    def test_pc_matrix_counts(self):
        assert len(pc_matrices(ABC)) == 27
        assert len(pc_matrices(ABCD)) == 729

    def test_profiles_over(self):
        orders = weak_orders(ABC)
        profiles = profiles_over(orders, 2, ABC)
        assert len(profiles) == 169

    def test_restriction_sets(self):
        assert len(restriction_sets(ABC)) == 7
        assert len(restriction_sets(ABCD, min_size=2)) == 11


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

    def test_signature_crosscheck_by_sign_sampling(self):
        rng = random.Random(5)
        for _ in range(40):
            m1 = pc_extension(random_pc_profile(rng, ABCD, 1).agents[0])
            m2 = pc_extension(random_pc_profile(rng, ABCD, 1).agents[0])
            for x in [("a", "b"), ("a", "b", "c"), ABCD.names]:
                same_sig = relation_signature(m1, x) == relation_signature(m2, x)
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

    def test_large_profiles_sampled(self):
        rng = random.Random(9)
        f = pairwise_utilitarian_swf()
        profile = random_pc_profile(rng, ABC, 8)
        verdict = check_anonymity(f, profile, permutation_limit=6, samples=10)
        assert verdict.passed and verdict.mode.startswith("sampled")


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
        muted = SWFHandle(
            "zero-weight-on-1",
            lambda r: affine_utilitarian(r, WeightVector((0, 1))),
        )
        verdict = check_pareto(muted, profile, samples=50)
        assert not verdict.passed
        p, q, dominance, outcome = verdict.counterexample
        assert dominance.value == "strict"

    def test_all_indifferent_profile(self):
        profile = Profile(ABC, (weak_order(ABC, [ABC.names]),) * 3)
        verdict = check_pareto(constant_swf(), profile, samples=50)
        assert verdict.passed and verdict.strict_cases == 0

    def test_unanimity_cases_have_expected_structure(self):
        from ssbchoice import ParetoDominance, pareto_relation

        rng = random.Random(11)
        for _ in range(120):
            profile, p, q = unanimity_case(rng, ABCD, 3, strict=True)
            assert pareto_relation(profile, p, q) is ParetoDominance.STRICT_DOMINANCE
            profile, p, q = unanimity_case(rng, ABCD, 3, strict=False)
            assert pareto_relation(profile, p, q) is ParetoDominance.WEAK_ONLY


class TestRichness:
    def test_full_pc_domain_is_rich(self):
        report = audit_richness(pc_domain(ABCD))
        assert report.passed
        assert all(r.mode == "exhaustive" for r in report.results)

    def test_missing_inverses_fail_r3(self):
        members = pc_matrices(ABCD)
        chain = pc_extension(weak_order(ABCD, ["a", "b", "c", "d"]))
        trimmed = [m for m in members if m != -chain]
        domain = DomainDescription.of(ABCD, trimmed, "pc-minus-inverse")
        report = audit_richness(domain, [RichnessCondition.INVERSION])
        assert not report.passed
        assert report.results[0].witness is not None

    def test_missing_zero_fails_r2(self):
        members = [m for m in pc_matrices(ABC) if not m.is_zero()]
        domain = DomainDescription.of(ABC, members, "pc-minus-zero")
        report = audit_richness(domain, [RichnessCondition.FULL_INDIFFERENCE])
        assert not report.passed

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
            if len(r.strict) == 0 or not r.prefers("a", "b")
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
        assert all(r.mode.startswith("sampled(100") for r in report.results)

    def test_five_alternative_pc_domain_is_rich(self):
        domain = pc_domain(Universe(("a", "b", "c", "d", "e")))
        assert len(domain.matrices) == 3 ** 10
        report = audit_richness(domain, member_limit=150, seed=5)
        assert report.passed

    def test_condition_parse(self):
        assert RichnessCondition.parse("r3") is RichnessCondition.INVERSION
        with pytest.raises(ValueError):
            RichnessCondition.parse("R9")


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
