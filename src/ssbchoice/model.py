"""Exact-rational domain types: alternatives, lotteries, relations, profiles.

Every number in this package is an exact rational: an SSB matrix entry
is an `int` when its value is integral (see `ssb.SSBMatrix`), and every
other value, each probability and utility included, is a
`fractions.Fraction`.  No value ever passes through a float.

Values are immutable after construction and safe to share between
threads: every field is set by the constructor and none is written
later.  A lottery's integer form (`Lottery.scaled`) is derived from its
probabilities at construction and takes no part in equality, hashing or
repr.  There is no global cache.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Union[int, str, Fraction]


def frac(value: Rational) -> Fraction:
    """Coerce an int, Fraction, or string like "2/5" or "0.4" to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


class UniverseMismatchError(ValueError):
    """Two values that must share a universe of alternatives do not."""


def _over_common_denominator(values: Sequence[int | Fraction]) -> tuple[int, list[int]]:
    """(d, nums) with values == nums / d, d the least common denominator."""
    d = math.lcm(*(x.denominator for x in values))
    return d, [x.numerator * (d // x.denominator) for x in values]


def same_universe(*objects) -> None:
    first = objects[0].universe
    for other in objects[1:]:
        if other.universe is not first and other.universe != first:
            raise UniverseMismatchError(
                f"universe mismatch: {first.names} vs {other.universe.names}"
            )


@dataclass(frozen=True)
class Universe:
    """An ordered finite set of named alternatives."""

    names: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise ValueError("universe must contain at least one alternative")
        if any(not isinstance(n, str) or not n for n in names):
            raise ValueError("alternative names must be non-empty strings")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate alternative names in {names}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown alternative {name!r}") from None

    def pure(self, name: str) -> "Lottery":
        """The one-point lottery on `name`."""
        i = self.index(name)
        probs = tuple(
            Fraction(1) if j == i else Fraction(0) for j in range(len(self.names))
        )
        return Lottery(self, probs)

    def subset(self, names: Iterable[str] | None) -> tuple[str, ...]:
        """Validate a subset of alternatives, preserving universe order."""
        if names is None:
            return self.names
        chosen = set(names)
        unknown = chosen - set(self.names)
        if unknown:
            raise KeyError(f"unknown alternatives {sorted(unknown)}")
        if not chosen:
            raise ValueError("subset of alternatives must be non-empty")
        return tuple(n for n in self.names if n in chosen)


@dataclass(frozen=True)
class Lottery:
    """An exact probability vector over a universe of alternatives.

    `scaled` is the integer form `(d, nums)` with probs == nums / d and d
    the least common denominator; it is computed once, at construction,
    and the checks run on it in ints.
    """

    universe: Universe
    probs: tuple[Fraction, ...]
    scaled: tuple[int, tuple[int, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        probs = tuple(frac(p) for p in self.probs)
        object.__setattr__(self, "probs", probs)
        if len(probs) != len(self.universe):
            raise ValueError(
                f"lottery has {len(probs)} entries for {len(self.universe)} alternatives"
            )
        d, nums = _over_common_denominator(probs)
        if any(x < 0 for x in nums):
            raise ValueError(f"negative probability in {probs}")
        total = sum(nums)
        if total != d:
            raise ValueError(f"probabilities sum to {Fraction(total, d)}, not 1")
        object.__setattr__(self, "scaled", (d, tuple(nums)))

    @classmethod
    def of(cls, universe: Universe, assignment: dict[str, Rational]) -> "Lottery":
        """Build a lottery from a name -> probability mapping; omitted names get 0."""
        unknown = set(assignment) - set(universe.names)
        if unknown:
            raise KeyError(f"unknown alternatives {sorted(unknown)}")
        probs = tuple(frac(assignment.get(n, 0)) for n in universe.names)
        return cls(universe, probs)

    def __getitem__(self, key: str | int) -> Fraction:
        if isinstance(key, str):
            key = self.universe.index(key)
        return self.probs[key]

    def support(self) -> tuple[str, ...]:
        return tuple(n for n, p in zip(self.universe.names, self.probs) if p > 0)


def mix(p: Lottery, q: Lottery, lam: Rational) -> Lottery:
    """The convex combination lam*p + (1-lam)*q, computed exactly."""
    same_universe(p, q)
    lam = frac(lam)
    if not 0 <= lam <= 1:
        raise ValueError(f"mixing weight {lam} outside [0, 1]")
    probs = tuple(lam * a + (1 - lam) * b for a, b in zip(p.probs, q.probs))
    return Lottery(p.universe, probs)


@dataclass(frozen=True)
class BaseRelation:
    """An asymmetric strict-preference relation over pure outcomes.

    `strict` holds ordered index pairs (a, b) meaning "a is strictly
    preferred to b".  Indifference is the absence of both orientations.
    Transitivity is not required; arbitrary tournaments with ties are legal.
    The pairs are the whole value: `ssb.pc_extension` builds the relation's
    pairwise-comparison matrix from them afresh on each call.
    """

    universe: Universe
    strict: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "strict", frozenset(self.strict))
        m = len(self.universe)
        for a, b in self.strict:
            if not (0 <= a < m and 0 <= b < m):
                raise ValueError(f"pair ({a}, {b}) outside universe of size {m}")
            if a == b:
                raise ValueError(f"reflexive pair ({a}, {a}) in strict relation")
            if (b, a) in self.strict:
                raise ValueError(
                    f"asymmetry violated: both ({a},{b}) and ({b},{a}) present"
                )

    def _pair(self, a: str | int, b: str | int) -> tuple[int, int]:
        if isinstance(a, str):
            a = self.universe.index(a)
        if isinstance(b, str):
            b = self.universe.index(b)
        return a, b

    def prefers(self, a: str | int, b: str | int) -> bool:
        return self._pair(a, b) in self.strict

    def indifferent(self, a: str | int, b: str | int) -> bool:
        a, b = self._pair(a, b)
        return (a, b) not in self.strict and (b, a) not in self.strict

    def inverse(self) -> "BaseRelation":
        return BaseRelation(self.universe, frozenset((b, a) for a, b in self.strict))

    def relabel(self, mapping: dict[str, str]) -> "BaseRelation":
        """Rename alternatives by a permutation of the universe."""
        perm = {self.universe.index(k): self.universe.index(v) for k, v in mapping.items()}
        if sorted(perm) != list(range(len(self.universe))) or sorted(
            perm.values()
        ) != list(range(len(self.universe))):
            raise ValueError("mapping is not a permutation of the universe")
        return BaseRelation(
            self.universe, frozenset((perm[a], perm[b]) for a, b in self.strict)
        )

    def tiers(self) -> tuple[tuple[str, ...], ...] | None:
        """Indifference tiers if this relation is a weak order, else None.

        A weak order is recovered by ranking each alternative at minus its
        dominated count and checking that `_ranked_pairs` (`ranked_order`'s
        pairs) for those ranks reproduce `strict`; a tier is one rank.
        """
        m = len(self.universe)
        dominated = [0] * m
        for a, b in self.strict:
            dominated[a] += 1
        if _ranked_pairs([-d for d in dominated]) != self.strict:
            return None
        names = self.universe.names
        order = sorted(range(m), key=lambda i: (-dominated[i], i))
        return tuple(tuple(names[i] for i in tier)
                     for _, tier in itertools.groupby(order, dominated.__getitem__))


def _ranked_pairs(rank: Sequence[int]) -> frozenset[tuple[int, int]]:
    """The pairs (a, b) with rank[a] < rank[b]: `ranked_order`'s strict pairs."""
    return frozenset([(a, b) for a, ra in enumerate(rank)
                      for b, rb in enumerate(rank) if ra < rb])


def ranked_order(universe: Universe, rank: Sequence[int]) -> BaseRelation:
    """The weak order in which a beats b iff rank[a] < rank[b]: the one
    builder of a weak order's strict pairs, called by `weak_order`, the
    ballot parser and `axioms._ranked`; `BaseRelation.tiers` compares
    against its pair set `_ranked_pairs` without building a relation."""
    return BaseRelation(universe, _ranked_pairs(rank))


def weak_order(
    universe: Universe, tiers: Sequence[Sequence[str] | str]
) -> BaseRelation:
    """Build the weak order with the given indifference tiers, best first.

    A tier may be a single name or a sequence of names.  Alternatives not
    listed in any tier form a shared bottom indifference tier, so partial
    ballots stay total.  The tiers become ranks for `ranked_order`; a
    tier's unknown name raises `KeyError` before a repeat in it is checked.
    """
    m = len(universe)
    rank = [m] * m  # the bottom tier: at most m non-empty tiers take levels 0..m-1
    level = 0
    for tier in tiers:
        idx = [universe.index(n) for n in ([tier] if isinstance(tier, str) else tier)]
        for i in idx:
            if rank[i] < m:
                raise ValueError(
                    f"alternative {universe.names[i]!r} appears in two tiers"
                )
            rank[i] = level
        level += bool(idx)
    return ranked_order(universe, rank)


@dataclass(frozen=True)
class UtilityVector:
    """An exact vNM utility assignment; one value per alternative."""

    universe: Universe
    values: tuple[Fraction, ...]

    def __post_init__(self):
        values = tuple(frac(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if len(values) != len(self.universe):
            raise ValueError(
                f"{len(values)} utilities for {len(self.universe)} alternatives"
            )

    @classmethod
    def of(cls, universe: Universe, assignment: dict[str, Rational]) -> "UtilityVector":
        unknown = set(assignment) - set(universe.names)
        if unknown:
            raise KeyError(f"unknown alternatives {sorted(unknown)}")
        return cls(universe, tuple(frac(assignment.get(n, 0)) for n in universe.names))

    def __getitem__(self, key: str | int) -> Fraction:
        if isinstance(key, str):
            key = self.universe.index(key)
        return self.values[key]

    def is_dichotomous(self) -> bool:
        return len(set(self.values)) <= 2

    def is_constant(self) -> bool:
        return len(set(self.values)) == 1

    def expected(self, p: Lottery) -> Fraction:
        same_universe(self, p)
        return sum((u * w for u, w in zip(self.values, p.probs)), Fraction(0))


@dataclass(frozen=True)
class Profile:
    """An ordered list of agents' preferences over a shared universe.

    Each agent is a BaseRelation (PC agent), a UtilityVector (vNM agent)
    or an SSBMatrix.  The list is stored once, as `runs`: ordered
    `(agent, multiplicity)` pairs in which adjacent equal agents are
    merged, so a profile of n identical voters costs one run, not n
    slots.  `agents` expands the runs back into the ordered list, and
    equality and hashing come from `(universe, runs)`, which is
    canonical for that list.
    """

    universe: Universe
    runs: tuple[tuple[object, int], ...]

    def __init__(self, universe: Universe, agents: Iterable):
        self._set_runs(universe, ((agent, 1) for agent in agents))

    @classmethod
    def from_runs(
        cls, universe: Universe, runs: Iterable[tuple[object, int]]
    ) -> "Profile":
        """The profile whose agents are each `agent` repeated `multiplicity` times."""
        profile = cls.__new__(cls)
        profile._set_runs(universe, runs)
        return profile

    def _set_runs(self, universe: Universe, runs: Iterable[tuple[object, int]]) -> None:
        merged: list[list] = []
        for agent, count in runs:
            if isinstance(count, bool) or not isinstance(count, int) or count <= 0:
                raise ValueError(
                    f"agent multiplicity must be a positive integer, got {count!r}"
                )
            if merged and (merged[-1][0] is agent or merged[-1][0] == agent):
                merged[-1][1] += count
                continue
            agent_universe = getattr(agent, "universe", None)
            if agent_universe is not universe and agent_universe != universe:
                raise UniverseMismatchError(
                    "agent universe differs from profile universe"
                )
            merged.append([agent, count])
        if not merged:
            raise ValueError("profile needs at least one agent")
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "runs", tuple((agent, count) for agent, count in merged))

    @property
    def agents(self) -> tuple:
        """Every agent in order, each run expanded to its multiplicity."""
        return tuple(agent for agent, count in self.runs for _ in range(count))

    @property
    def n(self) -> int:
        return sum(count for _, count in self.runs)

    def permuted(self, permutation: Sequence[int]) -> "Profile":
        """The profile with agents renamed by the permutation (R composed with pi)."""
        if sorted(permutation) != list(range(self.n)):
            raise ValueError("not a permutation of the agent set")
        agents = self.agents
        return Profile(self.universe, tuple(agents[i] for i in permutation))


@dataclass(frozen=True)
class FeasiblePolytope:
    """The convex hull of finitely many vertex lotteries."""

    universe: Universe
    vertices: tuple[Lottery, ...]

    def __post_init__(self):
        vertices = tuple(self.vertices)
        if not vertices:
            raise ValueError("feasible set needs at least one vertex")
        for v in vertices:
            if v.universe != self.universe:
                raise UniverseMismatchError("vertex universe differs from polytope")
        # canonicalize: drop exact duplicates, keeping first occurrences
        seen: set = set()
        unique = []
        for v in vertices:
            if v.probs not in seen:
                seen.add(v.probs)
                unique.append(v)
        object.__setattr__(self, "vertices", tuple(unique))

    @classmethod
    def delta(cls, universe: Universe, names: Iterable[str] | None = None):
        """The sub-simplex of lotteries supported on the given alternatives."""
        chosen = universe.subset(names)
        return cls(universe, tuple(universe.pure(n) for n in chosen))
