from pathlib import Path

import pytest

from ssbchoice import (
    BaseRelation,
    Lottery,
    Profile,
    Universe,
    majority_margins,
    parse_ballots,
    parse_proposals,
    pc_extension,
    weak_order,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def permuted(profile: Profile, permutation) -> Profile:
    """The profile with agents renamed by the permutation (R composed with
    pi), built afresh: the relabeling the anonymity tests compare against."""
    if sorted(permutation) != list(range(profile.n)):
        raise ValueError("not a permutation of the agent set")
    agents = profile.agents
    return Profile(profile.universe, tuple(agents[i] for i in permutation))


def lottery_on(universe: Universe, p: Lottery) -> Lottery:
    """p as a lottery of another universe that holds p's support, with 0 on
    the alternatives p's universe lacks: the lottery of a restricted matrix
    padded to the whole universe, or the other way round."""
    return Lottery.of(universe, {n: x for n, x in zip(p.universe.names, p.probs) if x})


def rank_tiers(rank) -> list[list[int]]:
    """The tiers of positions of a rank vector, best first: the weak order in
    which a beats b iff rank[a] < rank[b], as `ranked_order` takes it."""
    return [[a for a, r in enumerate(rank) if r == level] for level in sorted(set(rank))]


def rank_pairs(universe: Universe, rank) -> BaseRelation:
    """The same weak order built from its strict pairs, found by comparing
    every pair of ranks (as `ranked_order` did before it took tiers)."""
    return BaseRelation(universe, {(a, b) for a, ra in enumerate(rank)
                                   for b, rb in enumerate(rank) if ra < rb})


def read_fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def table1_profile():
    return parse_ballots(read_fixture("table1.ballots"))


@pytest.fixture(scope="session")
def table1_margins(table1_profile):
    return majority_margins(table1_profile)


@pytest.fixture(scope="session")
def table1_proposals():
    return parse_proposals(read_fixture("table1.proposals"))


@pytest.fixture(scope="session")
def condorcet_profile():
    return parse_ballots(read_fixture("condorcet.ballots"))


@pytest.fixture(scope="session")
def condorcet_matrix(condorcet_profile):
    return majority_margins(condorcet_profile)


@pytest.fixture(scope="session")
def chain3_matrix():
    universe = Universe(("a", "b", "c"))
    return pc_extension(weak_order(universe, ["a", "b", "c"]))


@pytest.fixture(scope="session")
def chain4_matrix():
    universe = Universe(("a", "b", "c", "d"))
    return pc_extension(weak_order(universe, ["a", "b", "c", "d"]))
