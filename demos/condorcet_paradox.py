"""The classic three-agent majority cycle, resolved by a maximal mixture.

Three agents rank three alternatives in rotating order, so every pure
alternative loses to another by majority.  Summing the agents' pairwise
comparison matrices gives a collective bilinear form whose unique maximal
element is the uniform mixture.
"""

from ssbchoice import (
    Profile,
    Universe,
    evaluate,
    format_fraction,
    majority_margins,
    maximal_lottery,
    pc_extension,
    render_matrix,
    unique_optimum,
    weak_order,
)


def main():
    universe = Universe(("a", "b", "c"))
    rankings = [["a", "b", "c"], ["b", "c", "a"], ["c", "a", "b"]]
    agents = tuple(weak_order(universe, r) for r in rankings)
    profile = Profile(universe, agents)

    print("Agent rankings:")
    for i, ranking in enumerate(rankings, 1):
        print(f"  agent {i}: {' > '.join(ranking)}")

    print("\nEach agent's pairwise-comparison matrix:")
    for i, agent in enumerate(agents, 1):
        print(f"agent {i}:")
        print(render_matrix(pc_extension(agent)))

    margins = majority_margins(profile)
    print("Summed (majority margins):")
    print(render_matrix(margins))
    print("a beats b, b beats c, c beats a: no pure alternative is stable.")

    cert = maximal_lottery(margins)
    best = cert.lottery
    print(f"\nMaximal mixture (unique: {unique_optimum(margins, cert)}): "
          + ", ".join(f"{n}: {format_fraction(p)}"
                      for n, p in zip(universe.names, best.probs)))
    print("It ties every pure alternative exactly:")
    for name in universe.names:
        value = evaluate(margins, best, universe.pure(name))
        print(f"  vs {name}: {format_fraction(value)}")


if __name__ == "__main__":
    main()
