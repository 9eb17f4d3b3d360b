"""Exact-rational domain types: alternatives, lotteries, relations, profiles.

Every number in this package is an exact rational, and no value ever
passes through a float.  A lottery and an SSB matrix are stored in one
integer form each, `scaled`: integers over one positive denominator
(`_IntegerForm`).  The pipeline computes on that form, and
`fractions.Fraction` appears where a value is read out (`Lottery.probs`,
`SSBMatrix.entries`, whose integral entries are `int`s) and for every
other value, each utility included.

`Universe` is where names become positions, for every layer: a name
(`index`), a subset (`positions`, `subset`), a renaming (`permutation`),
a name -> value mapping (`assignment`) and a sparse lottery in integer
form (`lottery`) each resolve there, with one set of errors.  Lookups take
names only: a position, even a valid one, is an unknown alternative.

Values are immutable after construction and safe to share between
threads: every field is set by the constructor and none is written
later.  Two kinds of derived value are stored after construction, on
first use, and are no part of the value: the Fractions of a lottery or
an SSB matrix, and the hash of a `Universe`, `BaseRelation` or
`Profile`.  A lottery's value is its integer form (`Lottery.scaled`,
probabilities over their least common denominator), which equality
compares; its `probs` are derived from it on first read and kept (a
racing read builds an equal tuple), and hashing and repr read them, as
an SSB matrix's do its `entries`.  Every value class derives from
`_FrozenValue`, which gives equality, hashing, repr and the frozen error
from the class's field names.  A stored hash is the hash of the tuple of
those fields, and pickling rebuilds the object rather than copying it,
since a string's hash differs between processes.  There is no global cache: a
caller that wants equal values shared keeps its own table: one `check-axioms`
command takes its IIA pool, samples, relabelings and unanimity lotteries from
one `axioms.ValueTable` of weak orders, profiles and lotteries.
"""

from __future__ import annotations

import itertools
import math
import operator
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


def _frozen(text: str) -> AttributeError:
    """The error a frozen dataclass raises, imported only when it is raised,
    so that no command loads its module (and `inspect` with it)."""
    from dataclasses import FrozenInstanceError
    return FrozenInstanceError(text)


class _FrozenValue:
    """A frozen value whose fields are the attributes `_FIELDS` names.

    Equality (same class and equal fields), hash (of the tuple of fields)
    and repr (`Class(field=value, ...)`) are those of a frozen dataclass
    over the same fields.  They read the fields through `_field_values`,
    one `operator.attrgetter` per class; with one field it returns that
    field bare, so such a class defines its own hash (`Universe`).
    Setting or deleting any attribute raises `FrozenInstanceError`
    (`_frozen`).  Each class writes its own `__init__`, which stores the
    fields with `object.__setattr__`.
    """

    __slots__ = ()
    _FIELDS: tuple[str, ...]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_FIELDS" in cls.__dict__:
            cls._field_values = operator.attrgetter(*cls._FIELDS)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field_values(self) == self._field_values(other)

    def __hash__(self) -> int:
        return hash(self._field_values(self))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._FIELDS])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise _frozen(f"cannot delete field {name!r}")


class Universe(_FrozenValue):
    """An ordered finite set of named alternatives."""

    _FIELDS = ("names",)
    _hash = None  # hash((names,)), stored on first use; not a field

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

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.names,))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        return Universe, (self.names,)

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

    def _check_known(self, keys: Iterable) -> None:
        """Raise KeyError naming every key that is no alternative's name, sorted
        by text (then type name), so keys of mixed types are named too."""
        unknown = set(keys).difference(self._index)
        if unknown:
            names = sorted(unknown, key=lambda k: (str(k), type(k).__name__))
            raise KeyError(f"unknown alternatives {names}")

    def positions(self, names: Iterable[str] | str | None) -> list[int]:
        """The ascending positions of a non-empty subset of alternatives, every
        position for None; a bare string is one name."""
        if names is None:
            return list(range(len(self.names)))
        chosen = {names} if isinstance(names, str) else set(names)
        self._check_known(chosen)
        if not chosen:
            raise ValueError("subset of alternatives must be non-empty")
        return sorted([self._index[n] for n in chosen])

    def subset(self, names: Iterable[str] | str | None) -> tuple[str, ...]:
        """Validate a subset of alternatives, preserving universe order."""
        return tuple([self.names[i] for i in self.positions(names)])

    def permutation(self, mapping: dict[str, str]) -> list[int]:
        """A renaming of the alternatives as positions: image[a] is the position
        of mapping[names[a]]; raises unless it is a permutation of the universe."""
        image = {self.index(k): self.index(v) for k, v in mapping.items()}
        every = list(range(len(self.names)))
        if sorted(image) != every or sorted(image.values()) != every:
            raise ValueError("mapping is not a permutation of the universe")
        return [image[a] for a in every]

    def assignment(self, values: dict[str, Rational]) -> tuple[Fraction, ...]:
        """One exact value per alternative from a name -> value mapping;
        omitted names get 0."""
        self._check_known(values)
        return tuple([frac(values.get(n, 0)) for n in self.names])

    def lottery(self, d: int, entries: Iterable[tuple[int, int]]) -> "Lottery":
        """The lottery with the given (position, numerator) entries over the
        denominator d, 0 elsewhere."""
        nums = [0] * len(self.names)
        for i, x in entries:
            nums[i] = x
        return Lottery.from_scaled(self, d, nums)

    def pure(self, name: str) -> "Lottery":
        """The one-point lottery on `name`."""
        nums = [0] * len(self.names)
        nums[self.index(name)] = 1
        return Lottery.from_scaled(self, 1, nums)


class _IntegerForm(_FrozenValue):
    """A frozen value over a universe stored as its integer form `scaled`,
    (d, integers) with d > 0 in lowest terms, which equality compares.
    `__post_init__` checks and stores it, for both constructors.  Its
    fields, which hash and repr read, are the universe and the derived
    Fractions; pickling rebuilds through `from_scaled`."""

    __slots__ = ()

    @classmethod
    def from_scaled(cls, universe: Universe, d: int, nums):
        """The value nums / d; (d, nums) need not be in lowest terms."""
        value = cls.__new__(cls)
        value.__post_init__(universe, d, nums)
        return value

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.scaled == other.scaled and self.universe == other.universe

    __hash__ = _FrozenValue.__hash__  # a class that defines __eq__ loses its inherited hash

    def __reduce__(self):
        return self.from_scaled, (self.universe, *self.scaled)


class Lottery(_IntegerForm):
    """An exact probability vector over a universe of alternatives.

    Its integer form (`_IntegerForm`) is `scaled = (d, nums)`: probs ==
    nums / d, with d the least common denominator.  `probs`, the
    Fractions, is derived on first read and kept; hash and repr read it.
    """

    __slots__ = ("universe", "scaled", "_probs")
    _FIELDS = ("universe", "probs")

    def __init__(self, universe: Universe, probs: Iterable[Rational]):
        probs = tuple([frac(p) for p in probs])
        d, nums = _over_common_denominator(probs)
        self.__post_init__(universe, d, nums, probs)

    def __post_init__(self, universe, d, nums, probs=None) -> None:
        """Check (d, nums) in ints, reduce it, and store it with `probs`, the
        Fractions if the caller has them (None defers them to first read)."""
        nums = tuple(nums)
        if len(nums) != len(universe):
            raise ValueError(
                f"lottery has {len(nums)} entries for {len(universe)} alternatives"
            )
        if type(d) is not int or any(type(x) is not int for x in nums):
            raise TypeError(f"lottery integer form must be ints, got {(d, nums)!r}")
        if d <= 0:
            raise ValueError(f"lottery denominator must be positive, got {d}")
        if min(nums) < 0:
            raise ValueError(
                f"negative probability in {tuple(Fraction(x, d) for x in nums)}"
            )
        total = sum(nums)
        if total != d:
            raise ValueError(f"probabilities sum to {Fraction(total, d)}, not 1")
        g = math.gcd(d, *nums)
        if g != 1:
            d, nums = d // g, tuple([x // g for x in nums])
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "scaled", (d, nums))
        object.__setattr__(self, "_probs", probs)

    @property
    def probs(self) -> tuple[Fraction, ...]:
        probs = self._probs
        if probs is None:
            d, nums = self.scaled
            probs = tuple([Fraction(x, d) for x in nums])
            object.__setattr__(self, "_probs", probs)
        return probs

    @classmethod
    def of(cls, universe: Universe, assignment: dict[str, Rational]) -> "Lottery":
        """Build a lottery from a name -> probability mapping; omitted names get 0."""
        return cls(universe, universe.assignment(assignment))

    def __getitem__(self, name: str) -> Fraction:
        return self.probs[self.universe.index(name)]

    def support(self) -> tuple[str, ...]:
        return tuple(n for n, x in zip(self.universe.names, self.scaled[1]) if x)


def mix(p: Lottery, q: Lottery, lam: Rational) -> Lottery:
    """The convex combination lam*p + (1-lam)*q, computed exactly."""
    same_universe(p, q)
    lam = frac(lam)
    if not 0 <= lam <= 1:
        raise ValueError(f"mixing weight {lam} outside [0, 1]")
    probs = tuple(lam * a + (1 - lam) * b for a, b in zip(p.probs, q.probs))
    return Lottery(p.universe, probs)


class BaseRelation(_FrozenValue):
    """An asymmetric strict-preference relation over pure outcomes.

    `strict` holds ordered index pairs (a, b) meaning "a is strictly
    preferred to b".  Indifference is the absence of both orientations.
    Transitivity is not required; arbitrary tournaments with ties are legal.
    The pairs are the whole value: `ssb.pc_extension` builds the relation's
    pairwise-comparison matrix from them afresh on each call.
    """

    _FIELDS = ("universe", "strict")
    _hash = None  # as Universe's

    def __init__(self, universe: Universe, strict: Iterable[tuple[int, int]]):
        strict = frozenset(strict)
        m = len(universe)
        for a, b in strict:
            if not (0 <= a < m and 0 <= b < m):
                raise ValueError(f"pair ({a}, {b}) outside universe of size {m}")
            if a == b:
                raise ValueError(f"reflexive pair ({a}, {a}) in strict relation")
            if (b, a) in strict:
                raise ValueError(
                    f"asymmetry violated: both ({a},{b}) and ({b},{a}) present"
                )
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "strict", strict)

    def __eq__(self, other):
        # the base's equality, with the fields read inline: relations are
        # compared on every run merge and memo lookup of the axiom lab, and
        # this is about 1.7 times as fast as the base's `attrgetter` calls
        # (Python 3.11)
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.universe, self.strict) == (other.universe, other.strict)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.universe, self.strict))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        return BaseRelation, (self.universe, self.strict)

    def relabel(self, mapping: dict[str, str]) -> "BaseRelation":
        """Rename alternatives by a permutation of the universe."""
        image = self.universe.permutation(mapping)
        return BaseRelation(
            self.universe, frozenset((image[a], image[b]) for a, b in self.strict)
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
    ballot parser and `axioms.ValueTable.order`; `BaseRelation.tiers` compares
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
                where = ("listed twice in one tier" if rank[i] == level
                         else "appears in two tiers")
                raise ValueError(f"alternative {universe.names[i]!r} {where}")
            rank[i] = level
        level += bool(idx)
    return ranked_order(universe, rank)


class UtilityVector(_FrozenValue):
    """An exact vNM utility assignment; one value per alternative."""

    _FIELDS = ("universe", "values")

    def __init__(self, universe: Universe, values: Iterable[Rational]):
        # a tuple of Fractions, which `frac` would return unchanged, is kept
        if type(values) is not tuple or {*map(type, values)} != {Fraction}:
            values = tuple([frac(v) for v in values])
        if len(values) != len(universe):
            raise ValueError(f"{len(values)} utilities for {len(universe)} alternatives")
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "values", values)

    @classmethod
    def of(cls, universe: Universe, assignment: dict[str, Rational]) -> "UtilityVector":
        return cls(universe, universe.assignment(assignment))

    @property
    def scaled(self) -> tuple[int, list[int]]:
        """(d, nums) with values == nums / d, d the least common denominator."""
        return _over_common_denominator(self.values)

    def __getitem__(self, name: str) -> Fraction:
        return self.values[self.universe.index(name)]


class Profile(_FrozenValue):
    """An ordered list of agents' preferences over a shared universe.

    Each agent is a BaseRelation (PC agent), a UtilityVector (vNM agent)
    or an SSBMatrix.  The list is stored once, as `runs`: ordered
    `(agent, multiplicity)` pairs in which adjacent equal agents are
    merged, so a profile of n identical voters costs one run, not n
    slots.  `agents` expands the runs back into the ordered list, and
    equality and hashing come from `(universe, runs)`, which is
    canonical for that list.
    """

    _FIELDS = ("universe", "runs")
    _hash = None  # as Universe's

    def __init__(self, universe: Universe, agents: Iterable):
        self._set_runs(universe, zip(agents, itertools.repeat(1)))

    @classmethod
    def from_runs(
        cls, universe: Universe, runs: Iterable[tuple[object, int]]
    ) -> "Profile":
        """The profile whose agents are each `agent` repeated `multiplicity` times."""
        profile = cls.__new__(cls)
        profile._set_runs(universe, runs)
        return profile

    def _set_runs(self, universe: Universe, runs: Iterable[tuple[object, int]]) -> None:
        agents: list = []
        counts: list[int] = []
        for agent, count in runs:
            if count <= 0 if type(count) is int else (
                    isinstance(count, bool) or not isinstance(count, int) or count <= 0):
                raise ValueError(
                    f"agent multiplicity must be a positive integer, got {count!r}"
                )
            if agents and (agents[-1] is agent or agents[-1] == agent):
                counts[-1] += count
                continue
            agent_universe = getattr(agent, "universe", None)
            if agent_universe is not universe and agent_universe != universe:
                raise UniverseMismatchError(
                    "agent universe differs from profile universe"
                )
            agents.append(agent)
            counts.append(count)
        if not agents:
            raise ValueError("profile needs at least one agent")
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "runs", tuple(zip(agents, counts)))

    def __eq__(self, other):
        # as BaseRelation's: profiles are compared on every memo hit
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.universe, self.runs) == (other.universe, other.runs)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.universe, self.runs))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        return Profile.from_runs, (self.universe, self.runs)

    @property
    def agents(self) -> tuple:
        """Every agent in order, each run expanded to its multiplicity."""
        return tuple(agent for agent, count in self.runs for _ in range(count))

    @property
    def n(self) -> int:
        return sum(count for _, count in self.runs)


class FeasiblePolytope(_FrozenValue):
    """The convex hull of finitely many vertex lotteries."""

    _FIELDS = ("universe", "vertices")

    def __init__(self, universe: Universe, vertices: Iterable[Lottery]):
        vertices = tuple(vertices)
        if not vertices:
            raise ValueError("feasible set needs at least one vertex")
        for v in vertices:
            if v.universe != universe:
                raise UniverseMismatchError("vertex universe differs from polytope")
        # canonicalize: drop exact duplicates, keeping first occurrences
        seen: set = set()
        unique = []
        for v in vertices:
            if v.scaled not in seen:
                seen.add(v.scaled)
                unique.append(v)
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "vertices", tuple(unique))

    @classmethod
    def delta(cls, universe: Universe, names: Iterable[str] | None = None):
        """The sub-simplex of lotteries supported on the given alternatives."""
        return cls(universe, tuple(universe.pure(n) for n in universe.subset(names)))
