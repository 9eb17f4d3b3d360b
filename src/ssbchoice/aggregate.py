"""Social welfare functions over preference profiles.

The central rule is pairwise utilitarianism: normalize each agent's SSB
matrix and add them, every agent counting once.  On pairwise-comparison
agents this is exactly the matrix of pairwise majority margins, whose
sign structure is the collective preference; it is the unique anonymous
Arrovian rule on pairwise-comparison domains.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction

from .model import (
    BaseRelation,
    Lottery,
    Profile,
    UtilityVector,
    same_universe,
)
from .ssb import (
    SSBMatrix,
    approved_set,
    evaluate,
    is_dichotomous,
    to_matrix,
)


def utilitarian(profile: Profile) -> SSBMatrix:
    """The sum of the agents' normalized SSB matrices (the anonymous rule).

    Normalizing before summing is part of the rule's definition: skipping
    it would let an agent's chosen scale act as a hidden weight.

    Each run of equal agents is added once, times its multiplicity, into
    one skew-symmetric grid of ints over a running denominator.  A
    skew-symmetric matrix is its positive part P minus P's transpose, so
    each positive entry c at (a, b) adds c at (a, b) and -c at (b, a).  A
    base relation's normalized P is 1 on `strict`; any other agent's is
    R+ / max R for the integer rows R of its matrix.

    A weak order that leaves names unlisted leaves its listed-above-
    unlisted part on the diagonal (`BaseRelation._add_to`), 0 in a
    skew-symmetric sum, so it is rescaled with the grid; the last pass adds
    each diagonal entry R_a to row a and takes it from column a.
    """
    m = len(profile.universe)
    grid = [[0] * m for _ in range(m)]
    denominator = 1
    spilled = False  # whether the diagonal holds part of the sum
    for agent, count in profile.runs:
        if isinstance(agent, BaseRelation):
            if agent._add_to(grid, count * denominator):
                spilled = True
            continue
        rows = to_matrix(agent).scaled[1]
        top = max(map(max, rows))
        if top:
            common = math.lcm(denominator, top)
            if common != denominator:
                grid = [[x * (common // denominator) for x in row] for row in grid]
                denominator = common
            weight = count * (common // top)
            for a, (target, row) in enumerate(zip(grid, rows)):
                for b, x in enumerate(row):
                    if x > 0:
                        x *= weight
                        target[b] += x
                        grid[b][a] -= x
    if spilled:
        for a, row in enumerate(grid):
            total = row[a]
            if total:
                row[a] = 0
                for b, target in enumerate(grid):
                    row[b] += total
                    target[a] -= total
    return SSBMatrix.from_scaled(profile.universe, denominator, grid)


def majority_margins(profile: Profile) -> SSBMatrix:
    """Entry (a, b) is the number of agents with a above b minus the reverse.

    Agents must be given as base relations; the result equals the sum of
    their pairwise-comparison matrices.
    """
    for agent, _ in profile.runs:
        if not isinstance(agent, BaseRelation):
            raise TypeError(
                "majority margins need BaseRelation agents, got "
                f"{type(agent).__name__}"
            )
    return utilitarian(profile)


def relative_utilitarian_vnm(profile: Profile) -> SSBMatrix:
    """Sum of agents' utilities rescaled to the unit interval.

    This is `utilitarian` on vNM agents: an agent's normalized matrix is
    `separable` of its utilities rescaled to [0, 1], zero for a constant
    agent.  Independence of irrelevant alternatives fails for this same
    sum, as the axiom lab demonstrates, because vNM utilities are not a
    pairwise-comparison domain: their intensities move the sum.
    """
    for agent, _ in profile.runs:
        if not isinstance(agent, UtilityVector):
            raise TypeError(
                f"vNM rule needs UtilityVector agents, got {type(agent).__name__}"
            )
    return utilitarian(profile)


def approval_aggregate(profile: Profile) -> tuple[UtilityVector, SSBMatrix]:
    """Approval scores and their separable SSB matrix, for dichotomous agents.

    Each agent must be a two-tier weak order (or fully indifferent); the
    score of an alternative is the number of agents whose top tier
    contains it.  The matrix is `utilitarian`'s sum: a dichotomous
    agent's PC matrix is `separable` of its 0/1 approval vector, so the
    sum is `separable` of the scores.
    """
    scores = [Fraction(0)] * len(profile.universe)
    for agent, count in profile.runs:
        if not isinstance(agent, BaseRelation) or not is_dichotomous(agent):
            raise ValueError("approval aggregation needs dichotomous agents")
        for name in approved_set(agent):
            scores[profile.universe.index(name)] += count
    u = UtilityVector(profile.universe, tuple(scores))
    return u, utilitarian(profile)


class ParetoDominance(enum.Enum):
    STRICT_DOMINANCE = "strict"
    WEAK_ONLY = "weak-only"
    NONE = "none"


def pareto_relation(profile: Profile, p: Lottery, q: Lottery) -> ParetoDominance:
    """Classify unanimity: does p Pareto-dominate q?

    STRICT_DOMINANCE: every agent weakly prefers p, at least one strictly.
    WEAK_ONLY: every agent is exactly indifferent.
    NONE: some agent strictly prefers q.

    A base relation's p' PC q is the sum of p_a q_b - p_b q_a over its
    strict pairs (a, b), signed here in the lotteries' integer forms.
    """
    same_universe(profile, p, q)
    p_nums, q_nums = p.scaled[1], q.scaled[1]
    some_strict = False
    for agent, _ in profile.runs:
        if isinstance(agent, BaseRelation):
            value = sum(
                p_nums[a] * q_nums[b] - p_nums[b] * q_nums[a] for a, b in agent.strict
            )
        else:
            value = evaluate(to_matrix(agent), p, q)
        if value < 0:
            return ParetoDominance.NONE
        if value > 0:
            some_strict = True
    return ParetoDominance.STRICT_DOMINANCE if some_strict else ParetoDominance.WEAK_ONLY
