"""Dividing a budget between departments by aggregating ranked ballots.

A 100-member body must split a budget across four departments.  Each of
four parties has tabled a complete proposal (a column of shares), and
every delegate ranks the proposals.  Head-to-head, the majorities are
cyclic, so no proposal is stable on its own; allowing mixtures of
proposals fixes this: the majority-margin bilinear form always has a
maximal mixture, computed here exactly.
"""

from pathlib import Path

from ssbchoice import (
    FeasiblePolytope,
    budget_allocation,
    choose,
    compare,
    evaluate,
    format_fraction,
    format_percent,
    majority_margins,
    maximal_lottery,
    mix,
    parse_ballots,
    parse_proposals,
    render_matrix,
    unique_optimum,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def main():
    profile = parse_ballots((FIXTURES / "table1.ballots").read_text())
    proposals = parse_proposals((FIXTURES / "table1.proposals").read_text())
    universe = profile.universe

    print(f"{profile.n} delegates ranked proposals {', '.join(universe.names)}.")
    margins = majority_margins(profile)
    print("\nPairwise majority margins (positive: row beats column):")
    print(render_matrix(margins))

    a, b, c = universe.pure("A"), universe.pure("B"), universe.pure("C")
    print("The pure majorities are cyclic:")
    print(f"  A vs B: {format_fraction(evaluate(margins, a, b))}")
    print(f"  B vs C: {format_fraction(evaluate(margins, b, c))}")
    print(f"  C vs A: {format_fraction(evaluate(margins, c, a))}")

    half_ac = mix(a, c, "1/2")
    print("\nMixtures are compared by the same bilinear form, e.g. a "
          "50/50 blend of A and C against pure B:")
    print(f"  value {format_fraction(evaluate(margins, half_ac, b))} -> "
          f"{compare(margins, half_ac, b).value}")

    cert = maximal_lottery(margins)
    unique = unique_optimum(margins, cert)
    print("\nThe maximal mixture (beats or ties everything feasible):")
    for name, prob in zip(universe.names, cert.lottery.probs):
        print(f"  {name}: {format_fraction(prob)} ({format_percent(prob)}%)")
    print(f"  unique: {unique}; slacks vs pure proposals: "
          + ", ".join(format_fraction(s) for s in cert.slack))

    allocation = budget_allocation(proposals, cert.lottery)
    print("\nMapped through the proposal columns, the budget becomes:")
    for dept, share in zip(proposals.departments, allocation):
        print(f"  {dept:15s} {format_percent(share):>5s}%  "
              f"(exactly {format_fraction(share)})")

    shrunk = choose(margins, FeasiblePolytope.delta(universe, ["A", "B", "C"]))
    print("\nConsistency under retraction: with proposal D withdrawn, the "
          "choice over {A, B, C} is")
    print("  " + ", ".join(
        f"{n}: {format_fraction(p)}" for n, p in zip(universe.names, shrunk.probs)
    ))
    print(f"  identical to the full solution: {shrunk == cert.lottery}")


if __name__ == "__main__":
    main()
