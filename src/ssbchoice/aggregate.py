"""Social welfare functions over preference profiles.

The central rule is affine utilitarianism: normalize each agent's SSB
matrix and add them with per-agent weights.  With unit weights on
pairwise-comparison agents this is exactly the matrix of pairwise
majority margins, whose sign structure is the collective preference.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .model import (
    BaseRelation,
    Lottery,
    Profile,
    UtilityVector,
    frac,
    same_universe,
)
from .ssb import (
    SSBMatrix,
    approved_set,
    evaluate,
    is_dichotomous,
    normalize,
    separable,
    to_matrix,
)


@dataclass(frozen=True)
class WeightVector:
    """One exact weight per agent."""

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(frac(w) for w in self.weights))

    @classmethod
    def unit(cls, n: int) -> "WeightVector":
        return cls(tuple(Fraction(1) for _ in range(n)))

    def __len__(self) -> int:
        return len(self.weights)


def majority_margins(profile: Profile) -> SSBMatrix:
    """Entry (a, b) is the number of agents with a above b minus the reverse.

    Agents must be given as base relations; the result equals the sum of
    their pairwise-comparison matrices.
    """
    m = len(profile.universe)
    grid = [[Fraction(0)] * m for _ in range(m)]
    for agent in profile.agents:
        if not isinstance(agent, BaseRelation):
            raise TypeError(
                "majority margins need BaseRelation agents, got "
                f"{type(agent).__name__}"
            )
        for a, b in agent.strict:
            grid[a][b] += 1
            grid[b][a] -= 1
    return SSBMatrix(profile.universe, tuple(tuple(row) for row in grid))


def affine_utilitarian(profile: Profile, weights: WeightVector) -> SSBMatrix:
    """The weighted sum of the agents' normalized SSB matrices.

    Normalizing before weighting is part of the rule's definition:
    skipping it would let an agent's chosen scale act as a hidden weight.
    """
    if len(weights) != profile.n:
        raise ValueError(f"{len(weights)} weights for {profile.n} agents")
    m = len(profile.universe)
    grid = [[Fraction(0)] * m for _ in range(m)]
    for agent, w in zip(profile.agents, weights.weights):
        phi = normalize(to_matrix(agent))
        for a in range(m):
            row = phi.entries[a]
            target = grid[a]
            for b in range(m):
                if row[b]:
                    target[b] += w * row[b]
    return SSBMatrix(profile.universe, tuple(tuple(row) for row in grid))


def utilitarian(profile: Profile) -> SSBMatrix:
    """Affine utilitarianism with unit weights (the anonymous rule)."""
    return affine_utilitarian(profile, WeightVector.unit(profile.n))


def relative_utilitarian_vnm(profile: Profile) -> SSBMatrix:
    """Sum of agents' utilities rescaled to the unit interval.

    Included as a negative fixture: this rule violates independence of
    irrelevant alternatives even on vNM profiles, which the axiom lab
    demonstrates.  Constant (fully indifferent) agents contribute zero.
    """
    total = [Fraction(0)] * len(profile.universe)
    for agent in profile.agents:
        if not isinstance(agent, UtilityVector):
            raise TypeError(
                f"vNM rule needs UtilityVector agents, got {type(agent).__name__}"
            )
        if agent.is_constant():
            continue
        lo, hi = min(agent.values), max(agent.values)
        span = hi - lo
        for i, v in enumerate(agent.values):
            total[i] += (v - lo) / span
    return separable(UtilityVector(profile.universe, tuple(total)))


def approval_aggregate(profile: Profile) -> tuple[UtilityVector, SSBMatrix]:
    """Approval scores and their separable SSB matrix, for dichotomous agents.

    Each agent must be a two-tier weak order (or fully indifferent); the
    score of an alternative is the number of agents whose top tier
    contains it.  The matrix equals unit-weight affine utilitarianism on
    the agents' vNM representations.
    """
    scores = [Fraction(0)] * len(profile.universe)
    for agent in profile.agents:
        if not isinstance(agent, BaseRelation) or not is_dichotomous(agent):
            raise ValueError("approval aggregation needs dichotomous agents")
        for name in approved_set(agent):
            scores[profile.universe.index(name)] += 1
    u = UtilityVector(profile.universe, tuple(scores))
    return u, separable(u)


class ParetoDominance(enum.Enum):
    STRICT_DOMINANCE = "strict"
    WEAK_ONLY = "weak-only"
    NONE = "none"


def pareto_relation(profile: Profile, p: Lottery, q: Lottery) -> ParetoDominance:
    """Classify unanimity: does p Pareto-dominate q?

    STRICT_DOMINANCE: every agent weakly prefers p, at least one strictly.
    WEAK_ONLY: every agent is exactly indifferent.
    NONE: some agent strictly prefers q.
    """
    same_universe(profile, p, q)
    some_strict = False
    for agent in profile.agents:
        value = evaluate(to_matrix(agent), p, q)
        if value < 0:
            return ParetoDominance.NONE
        if value > 0:
            some_strict = True
    return ParetoDominance.STRICT_DOMINANCE if some_strict else ParetoDominance.WEAK_ONLY
