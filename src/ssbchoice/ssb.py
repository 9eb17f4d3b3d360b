"""Skew-symmetric bilinear utility matrices and the pairwise-comparison extension.

An SSBMatrix holds one exact rational value per ordered pair of
alternatives, stored as one integer form: integer rows over one positive
denominator d (d == 1 for pairwise-comparison matrices and integer
margins).  Aggregation, evaluation and the solver read those rows, and
`Fraction`s appear where a value is read out (`entries`, `evaluate`).
A lottery p is strictly preferred to q exactly when the bilinear form
p' M q is positive.  Preferences over pure outcomes extend to lotteries
through `pc_extension`: the resulting matrix has entries in {-1, 0, 1}
and prefers the lottery that is more likely to return the better
alternative in an independent draw.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable

from .model import (
    BaseRelation,
    Lottery,
    Universe,
    UtilityVector,
    _IntegerForm,
    _over_common_denominator,
    frac,
    same_universe,
)


def _entry(x, d) -> int | Fraction:
    """The exact rational x / d in canonical form: an int when integral, else
    a lowest-terms Fraction (d > 0), with no Fraction built for an int."""
    q, r = divmod(x, d)
    return Fraction(x, d) if r else q


class Comparison(enum.Enum):
    PREFERRED = "preferred"
    INDIFFERENT = "indifferent"
    DISPREFERRED = "dispreferred"


class SSBMatrix(_IntegerForm):
    """A skew-symmetric exact-rational matrix indexed by a universe.

    Its value is its integer form `scaled = (d, rows)`: the entries are
    rows / d, d > 0 and gcd(d, every entry of rows) == 1.  The constructor
    takes ints, Fractions or strings like "2/5" (bools and floats are
    rejected); computed matrices are built with `from_scaled`.  `entries`,
    an `int` when integral and a lowest-terms `Fraction` otherwise, is
    derived on first read and kept; when d == 1 it is rows itself.
    """

    __slots__ = ("universe", "scaled", "_entries")
    _FIELDS = ("universe", "entries")

    def __init__(self, universe: Universe, entries):
        entries = [[x if type(x) is int else frac(x) for x in row] for row in entries]
        d, flat = _over_common_denominator([x for row in entries for x in row])
        nums = iter(flat)
        self.__post_init__(universe, d, [list(itertools.islice(nums, len(row)))
                                         for row in entries])

    def __post_init__(self, universe, d, rows) -> None:
        """Check rows / d in ints, reduce it and store it.

        The checks read one flat list of the entries, each in one pass
        that runs in C: shape, int types and d > 0, skew-symmetry (the
        flat list against the negated flat transpose) and the gcd."""
        rows = tuple(map(tuple, rows))
        m = len(universe)
        if len(rows) != m or {*map(len, rows)} != {m}:
            raise ValueError(f"matrix shape is not {m}x{m}")
        flat = list(itertools.chain(*rows))
        if type(d) is not int or d <= 0 or not {*map(type, flat)} <= {int}:
            raise TypeError(f"matrix integer form must be ints over d > 0, got d={d!r}")
        if list(map(operator.neg, itertools.chain(*zip(*rows)))) != flat:
            i, j = next((i, j) for i in range(m) for j in range(i, m)
                        if rows[i][j] != -rows[j][i])
            raise ValueError(f"not skew-symmetric at ({i},{j}): "
                             f"{_entry(rows[i][j], d)} vs {_entry(rows[j][i], d)}")
        g = math.gcd(d, *flat)
        if g != 1:
            d, rows = d // g, tuple([tuple([x // g for x in row]) for row in rows])
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "scaled", (d, rows))
        object.__setattr__(self, "_entries", rows if d == 1 else None)

    @property
    def entries(self) -> tuple[tuple[int | Fraction, ...], ...]:
        entries = self._entries
        if entries is None:
            d, rows = self.scaled
            entries = tuple([tuple([_entry(x, d) for x in row]) for row in rows])
            object.__setattr__(self, "_entries", entries)
        return entries

    @classmethod
    def zero(cls, universe: Universe) -> "SSBMatrix":
        m = len(universe)
        return cls.from_scaled(universe, 1, ((0,) * m,) * m)

    def __getitem__(self, key: tuple[str, str]) -> int | Fraction:
        a, b = key
        return self.entries[self.universe.index(a)][self.universe.index(b)]

    def relabel(self, mapping: dict[str, str]) -> "SSBMatrix":
        """Permute alternatives: entry (pi(a), pi(b)) of the result is entry (a, b)."""
        image = self.universe.permutation(mapping)
        source = sorted(range(len(image)), key=image.__getitem__)  # source[pi(a)] = a
        d, rows = self.scaled
        return SSBMatrix.from_scaled(
            self.universe, d, [[rows[a][b] for b in source] for a in source]
        )


def _scaled_form(phi: SSBMatrix, p: Lottery, q: Lottery) -> int:
    """p' phi q times phi's and both lotteries' denominators, which are
    positive, so it has the form's sign.

    phi, p and q enter through their integer forms (`SSBMatrix.scaled`,
    `Lottery.scaled`).  Each row is summed over q's
    nonzero entries, skipping zero matrix entries, and multiplied by p's
    entry once; rows where p's entry is 0 are skipped.
    """
    same_universe(phi, p, q)
    p_nums = p.scaled[1]
    q_support = [(b, qb) for b, qb in enumerate(q.scaled[1]) if qb]
    total = 0
    for row, pa in zip(phi.scaled[1], p_nums):
        if not pa:
            continue
        row_value = 0
        for b, qb in q_support:
            x = row[b]
            if x:
                row_value += qb * x
        total += pa * row_value
    return total


def evaluate(phi: SSBMatrix, p: Lottery, q: Lottery) -> Fraction:
    """The exact bilinear form p' phi q; positive sign means p beats q.

    Computed in the integer forms (see `_scaled_form`), so it is summed in
    ints and divided once at the end.
    """
    return Fraction(_scaled_form(phi, p, q), phi.scaled[0] * p.scaled[0] * q.scaled[0])


def compare(phi: SSBMatrix, p: Lottery, q: Lottery) -> Comparison:
    """How p' phi q compares with 0: the sign of `_scaled_form`, which is
    `evaluate`'s value before its division, so no Fraction is built."""
    value = _scaled_form(phi, p, q)
    if value > 0:
        return Comparison.PREFERRED
    if value < 0:
        return Comparison.DISPREFERRED
    return Comparison.INDIFFERENT


def pc_extension(relation: BaseRelation) -> SSBMatrix:
    """The pairwise-comparison matrix: +1 where a beats b, -1 mirrored, 0 on ties.

    A pure function of the relation: each call builds a fresh matrix and
    writes nothing on the relation.
    """
    m = len(relation.universe)
    grid = [[0] * m for _ in range(m)]
    for a, b in relation.strict:
        grid[a][b] = 1
        grid[b][a] = -1
    return SSBMatrix.from_scaled(relation.universe, 1, grid)


def separable(u: UtilityVector) -> SSBMatrix:
    """The SSB matrix of a vNM agent: entry (a, b) is u(a) - u(b)."""
    d, nums = u.scaled
    return SSBMatrix.from_scaled(u.universe, d, [[ua - ub for ub in nums] for ua in nums])


def to_matrix(agent) -> SSBMatrix:
    """The SSB matrix representing one profile entry of any supported kind."""
    if isinstance(agent, SSBMatrix):
        return agent
    if isinstance(agent, BaseRelation):
        return pc_extension(agent)
    if isinstance(agent, UtilityVector):
        return separable(agent)
    raise TypeError(f"cannot interpret {type(agent).__name__} as preferences")


def normalize(phi: SSBMatrix) -> SSBMatrix:
    """Scale so the largest entry is exactly 1; the zero matrix stays fixed.

    Two matrices represent the same preference relation iff they are
    positive multiples of one another, so this is a canonical form:
    `normalize(a) == normalize(b)` decides relation equality.
    """
    d, rows = phi.scaled
    top = max(map(max, rows))
    return phi if top in (0, d) else SSBMatrix.from_scaled(phi.universe, top, rows)


def _ray(rows):
    """Skew-symmetric rows divided by their largest entry, in canonical
    entry form; `rows` itself when that entry is 0 (all zero) or 1."""
    top = max(map(max, rows))
    if top == 0 or top == 1:
        return rows
    return tuple(tuple(_entry(x, top) for x in row) for row in rows)


def restrict(phi: SSBMatrix, names: Iterable[str]) -> SSBMatrix:
    """The submatrix over a subset of alternatives, in universe order.

    Entry values are preserved absolutely, not re-normalized: for
    pairwise-comparison preferences the restriction pins the matrix
    itself, not just its ray, which is what makes summing matrices
    commute with restriction.
    """
    idx = phi.universe.positions(names)
    d, rows = phi.scaled
    return SSBMatrix.from_scaled(Universe(phi.universe.names[a] for a in idx), d,
                                 [[rows[a][b] for b in idx] for a in idx])


def _pc_rows(rows) -> bool:
    """Whether every entry of the rows lies in {-1, 0, 1}."""
    return set().union(*rows) <= {-1, 0, 1}


def is_dichotomous(relation: BaseRelation) -> bool:
    """Whether the relation is a two-tier weak order (or complete indifference)."""
    tiers = relation.tiers()
    return tiers is not None and len(tiers) <= 2


def approved_set(relation: BaseRelation) -> frozenset[str]:
    """Top tier of a dichotomous relation; empty for complete indifference."""
    tiers = relation.tiers()
    if tiers is None or len(tiers) > 2:
        raise ValueError("relation is not dichotomous")
    if len(tiers) <= 1:
        return frozenset()
    return frozenset(tiers[0])


def lottery_grid(universe: Universe, max_denominator: int = 5) -> list[Lottery]:
    """Pure outcomes plus all two-support lotteries with small denominators.

    Deterministic order: pure outcomes in universe order, then index pairs
    (i < j) lexicographically with the weight on i ascending.
    """
    weights = sorted(
        {
            Fraction(k, d)
            for d in range(2, max_denominator + 1)
            for k in range(1, d)
        }
    )
    grid = [universe.pure(n) for n in universe.names]
    m = len(universe)
    for i in range(m):
        for j in range(i + 1, m):
            for t in weights:
                nums = [0] * m
                nums[i], nums[j] = t.numerator, t.denominator - t.numerator
                grid.append(Lottery.from_scaled(universe, t.denominator, nums))
    return grid


def cycle_witness(
    phi: SSBMatrix, max_denominator: int = 5
) -> tuple[Lottery, Lottery, Lottery] | None:
    """A strict preference cycle p > q > r > p among grid lotteries, if any.

    Searches ordered triples over `lottery_grid` (pure outcomes plus
    two-support lotteries with denominators up to `max_denominator`) and
    returns the first cycle (i, j, l) in lexicographic order of grid
    positions.  A returned witness always verifies exactly; None means no
    cycle exists on this grid.

    The sign of p' phi q is the sign of the integer form of p dotted with
    phi's integer rows times the integer form of q, since every
    denominator is positive; each product phi q is formed once.  `beats`
    is kept as one int bitset per lottery (`out[i]`: the lotteries i
    beats) plus its transpose (`into[i]`: those beating i), and the first
    l closing a cycle through i beats j is the lowest set bit of
    `out[j] & into[i]`.
    """
    grid = lottery_grid(phi.universe, max_denominator)
    k = len(grid)
    rows = phi.scaled[1]
    forms = [lottery.scaled[1] for lottery in grid]
    images = [
        [sum(map(operator.mul, row, nums)) for row in rows] for nums in forms
    ]
    bit = [1 << i for i in range(k)]
    out = [0] * k
    into = [0] * k
    for i in range(k):
        p = forms[i]
        for j in range(i + 1, k):
            value = sum(map(operator.mul, p, images[j]))
            if value > 0:
                out[i] |= bit[j]
                into[j] |= bit[i]
            elif value < 0:
                out[j] |= bit[i]
                into[i] |= bit[j]
    for i in range(k):
        row = out[i]
        while row:
            low = row & -row
            j = low.bit_length() - 1
            common = out[j] & into[i]
            if common:
                l = (common & -common).bit_length() - 1
                return grid[i], grid[j], grid[l]
            row ^= low
    return None
