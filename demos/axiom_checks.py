"""Black-box axiom audits of aggregation rules.

Two rules go under the microscope: pairwise utilitarianism (sums the
agents' normalized comparison matrices) and a dictatorship.  The same
sum is also applied to vNM agents, whose normalized matrices are their
utilities rescaled to the unit interval; there independence fails,
because vNM utilities are not a pairwise-comparison domain.
Independence of irrelevant alternatives, anonymity, and Pareto
optimality are checked by exhaustive enumeration at desk scale.
"""

import random

from ssbchoice import Profile, Universe, weak_order
from ssbchoice.axioms import (
    check_anonymity,
    check_iia,
    dictatorial_swf,
    exhaustive_iia,
    intensity_flip_fixture,
    pairwise_utilitarian_swf,
    profiles_over,
    random_pc_profile,
    relative_utilitarian_swf,
    weak_orders,
)


def main():
    universe = Universe(("a", "b", "c"))

    print("1. Pairwise utilitarianism vs independence of irrelevant "
          "alternatives.")
    orders = weak_orders(universe)
    profiles = profiles_over(orders, 2, universe)
    report = exhaustive_iia(pairwise_utilitarian_swf(), profiles)
    print(f"   Swept all {len(profiles)}^2 ordered pairs of two-agent "
          f"weak-order profiles and every restriction set:")
    print(f"   {report.checked} checks, {report.vacuous} vacuous, "
          f"{len(report.violations)} violations.")

    print("\n2. Summing rescaled utilities is NOT independent.")
    before, after, pair = intensity_flip_fixture()
    print("   Agent 1: utilities (1, 0, 0) -> (1, 1/2, 0); agent 2 fixed at "
          "(1/3, 1, 0).")
    print("   Nobody's ranking of a vs b moved, but the collective "
          "preference on {a, b} flips:")
    verdict = check_iia(relative_utilitarian_swf(), before, after, pair)
    print(f"   independence verdict: {'PASS' if verdict.passed else 'FAIL'} "
          f"(vacuous={verdict.vacuous})")

    print("\n3. A dictatorship is not anonymous.")
    profile = Profile(universe, (
        weak_order(universe, ["a", "b", "c"]),
        weak_order(universe, ["c", "b", "a"]),
    ))
    verdict = check_anonymity(dictatorial_swf(), profile)
    print(f"   anonymity verdict: {'PASS' if verdict.passed else 'FAIL'}, "
          f"witness permutation: {verdict.witness}")

    print("\n4. Pairwise utilitarianism is anonymous on random profiles.")
    rng = random.Random(1)
    clean = all(
        check_anonymity(pairwise_utilitarian_swf(),
                        random_pc_profile(rng, universe, 4)).passed
        for _ in range(50)
    )
    print(f"   50 random four-agent profiles, all permutations: "
          f"{'no violations' if clean else 'VIOLATION'}")


if __name__ == "__main__":
    main()
