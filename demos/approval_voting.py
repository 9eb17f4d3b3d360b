"""Two-tier ballots make summing equivalent to approval voting.

When every agent just approves a subset of alternatives, ranking by
approval count is exactly what the matrix-summing rule produces, majority
comparisons become transitive, and the rule stays independent of
irrelevant alternatives.  A closed-world audit confirms the domain's
closure properties.
"""

from ssbchoice import (
    Profile,
    Universe,
    approval_aggregate,
    format_fraction,
    render_matrix,
    weak_order,
)
from ssbchoice.axioms import (
    DICHOTOMOUS_CONDITIONS,
    approval_swf,
    audit_richness,
    dichotomous_domain,
    dichotomous_relations,
    exhaustive_iia,
    pc_inclusion_check,
    profiles_over,
)


def main():
    universe = Universe(("a", "b", "c", "d"))
    ballots = [("a", "b"), ("a",), ("c",), ("a", "c")]
    agents = tuple(weak_order(universe, [list(t)]) for t in ballots)
    profile = Profile(universe, agents)

    print("Approval ballots:")
    for i, approved in enumerate(ballots, 1):
        print(f"  agent {i} approves {{{', '.join(approved)}}}")

    scores, matrix = approval_aggregate(profile)
    print("\nApproval scores: " + ", ".join(
        f"{n}={format_fraction(s)}" for n, s in zip(universe.names, scores.values)
    ))
    print("Collective matrix (utility differences of the scores):")
    print(render_matrix(matrix))

    print("Independence holds exhaustively on this domain:")
    relations = dichotomous_relations(universe)
    profiles = profiles_over(relations, 2, universe)
    report = exhaustive_iia(approval_swf(), profiles)
    print(f"  {len(profiles)}^2 profile pairs x 15 restriction sets: "
          f"{report.checked} checks, {len(report.violations)} violations")

    print("\nClosed-world audit of the two-tier domain:")
    domain = dichotomous_domain(universe)
    for result in audit_richness(domain, DICHOTOMOUS_CONDITIONS).results:
        print(f"  {result.condition.value} ({result.condition.name.lower()}): "
              f"{'PASS' if result.passed else 'FAIL'}")
    print("  " + pc_inclusion_check(domain).message)


if __name__ == "__main__":
    main()
