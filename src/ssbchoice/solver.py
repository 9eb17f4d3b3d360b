"""Maximal lotteries: exact zero-sum-game solving over rational matrices.

A lottery p is maximal on a set of alternatives X when p' phi e_b >= 0
for every b in X, i.e. p is an optimal strategy of the symmetric zero-sum
game whose payoff matrix is phi restricted to X.  Existence follows from
the Minimax Theorem; everything here certifies it constructively and
exactly.

The game LP "maximize v subject to p' phi >= v 1, sum p = 1, p >= 0" is
solved through its classical standard-form reduction: shift the payoff
matrix by a constant K large enough to make every entry positive (the
shift moves the game value from 0 to K and leaves optimal strategies
untouched), then

    maximize sum(y)  subject to  (phi + K) y <= 1,  y >= 0.

The all-slack basis is feasible, so plain primal simplex with Bland's
anti-cycling rule terminates; the optimum has sum(y) = 1/K, and
p = K y satisfies (phi p)_a <= 0 for every row a (substitute sum(y) into
(phi + K) y <= 1), hence p' phi >= 0 componentwise by skew-symmetry:
one solve yields the maximal lottery and its certificate.

The simplex runs only when no alternative of the arena is a strict
Condorcet winner.  Maximal lotteries are Condorcet-consistent: if row c
is > 0 off the diagonal, the pure lottery on c is the only maximal
lottery, and its certificate (row c as the slacks) is exact as read.
`maximal_lottery` returns it at once and `unique_optimum` answers it
without a linear system.  Since that optimum is unique, every correct
solver returns it, so the output is byte-identical to the simplex's.

Every solve reads phi's integer form (`SSBMatrix.scaled`, rows R over
one denominator D): R = D phi is a positive multiple of phi, so it has
the same optimal strategies, the same optimal face and the same sign on
every slack, and a slack's Fraction is divided by D once, when it is
built.  The simplex plays the game R with K = 1 + max |R|, which is
max |phi| + 1/D in phi's units.  Bland's path does not depend on the
shift K > 0: x -> x / (1 + (K' - K) sum x) maps the shifted feasible
region for K onto the one for K', divides every variable and slack by
one positive factor and keeps sum x increasing, so the two tableaux
have the same bases, signs of reduced costs and ratio-test ties.  All
elimination, in the simplex and in the linear systems of
`unique_optimum` and `maximal_set`, is one fraction-free integer pivot
(Bareiss, Math. Comp. 22, 1968), and a solution leaves it in integer
form (d, nums): lotteries are built from that form, and slacks are
computed on it.  `choose`, whose payoff is computed, puts it over one
denominator before its solve.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .model import FeasiblePolytope, Lottery, same_universe
from .ssb import SSBMatrix, _over_common_denominator, evaluate


@dataclass(frozen=True)
class MaximalityCertificate:
    """A lottery together with its exact slacks against every opposing vertex.

    slack[j] = evaluate(phi, lottery, vertex_j) and every slack is >= 0
    (`maximal_lottery` checks it); for sub-simplex problems the opposing
    vertices are the pure outcomes of the arena in universe order.
    """

    lottery: Lottery
    slack: tuple[Fraction, ...]


class SolverDefect(RuntimeError):
    """Internal contradiction in an exact result the program guarantees.

    Raised, for example, when the game LP has no optimum or a budget
    allocation does not sum to exactly 1; never caused by the input.
    """


def _pivot(rows: list, r: int, c: int, d: int) -> int:
    """One Bareiss step on p = rows[r][c] under divisor d; returns p, the next d.

    Each row stands for its rational row times a factor.  Every other row
    becomes (v*p - f*pv) // d, an exact division (its entries are minors of
    the starting matrix); the pivot row stays.  Rows are replaced, never
    changed in place, so systems may share starting rows.
    """
    pivot_row = rows[r]
    p = pivot_row[c]
    for i, row in enumerate(rows):
        if i != r:
            f = row[c]
            rows[i] = [(v * p - f * pv) // d for v, pv in zip(row, pivot_row)]
    return p


def _optimal_strategy(payoff: Sequence[Sequence[int]]) -> tuple[int, list[int]]:
    """An optimal strategy of the symmetric game with skew-symmetric integer
    payoff, in integer form (d, nums): the strategy is nums / d, with d > 0.

    Primal simplex from the all-slack basis with Bland's rule: the lowest
    column with negative reduced cost enters.
    """
    k = len(payoff)
    shift = 1 + max(abs(x) for row in payoff for x in row)
    rows = [[x + shift for x in row] + [int(j == i) for j in range(k)] + [1]
            for i, row in enumerate(payoff)]
    rows.append([-1] * k + [0] * (k + 1))  # objective: reduced costs, value
    basis = list(range(k, 2 * k))
    d = 1
    while True:
        entering = next((j for j in range(2 * k) if rows[-1][j] < 0), None)
        if entering is None:
            break
        # the minimum ratio rhs/coeff over positive coefficients leaves, by
        # cross-multiplying (row factors stay positive), ties to the lower
        # basic index
        leaving = -1
        for i, row in enumerate(rows[:k]):
            coeff = row[entering]
            if coeff > 0 and (leaving < 0 or (row[-1] * rows[leaving][entering], basis[i])
                              < (rows[leaving][-1] * coeff, basis[leaving])):
                leaving = i
        if leaving < 0:
            raise SolverDefect("unbounded game LP; payoff shift must be wrong")
        d = _pivot(rows, leaving, entering, d)
        basis[leaving] = entering

    # every pivot is positive, so d > 0; the value rows[-1][-1] / d must be
    # 1 / shift
    if rows[-1][-1] * shift != d:
        raise SolverDefect(f"shifted game value {Fraction(rows[-1][-1], d)} != "
                           f"1/{shift}; zero-sum symmetry broken")
    nums = [0] * k
    for i, var in enumerate(basis):
        if var < k:  # a pivoted row holds d in its basic column
            nums[var] = shift * rows[i][-1]
    return d, nums


def _arena(phi: SSBMatrix, names: Iterable[str] | None):
    """The arena's names, their ascending universe positions, and phi's
    integer rows (`phi.scaled`) among them."""
    idx = phi.universe.positions(names)
    arena = tuple([phi.universe.names[a] for a in idx])
    rows = phi.scaled[1]
    return arena, idx, [[rows[a][b] for b in idx] for a in idx]


def _slacks(sub, d: int, nums: Sequence[int]) -> tuple[Fraction, ...]:
    """(p' R)_b / d for each b of the arena, p = nums and integer rows R
    (`sub`) given on it: the slacks of nums / d0 against R / D when d is
    d0 * D."""
    support = [(x, row) for x, row in zip(nums, sub) if x]
    return tuple([Fraction(sum([x * row[b] for x, row in support]), d)
                  for b in range(len(sub))])


def maximal_lottery(
    phi: SSBMatrix, names: Iterable[str] | None = None
) -> MaximalityCertificate:
    """One maximal lottery on the given alternatives, with exact certificate.

    If one alternative c of the arena is a strict Condorcet winner (every
    other entry of its row is > 0), the pure lottery on c is returned with
    row c as its slacks, and no simplex runs: any maximal q has
    (q' phi)_c = sum_a q_a phi[a][c] >= 0 with phi[a][c] < 0 for a != c,
    so q is pure on c, the only maximal lottery.  Bland's simplex, being
    correct, returns that same lottery, so the shortcut changes no output.

    Otherwise (a weak winner, whose row is >= 0 with a zero; a tie; a
    cycle) Bland's simplex runs, and ties among several maximal lotteries
    resolve to its first optimal basic solution under a fixed pivot order,
    so the output is deterministic; `unique_optimum` says whether it is
    the only one, and `maximal_set` lists the vertices of the whole
    optimal face.
    """
    _, idx, sub = _arena(phi, names)
    scale = phi.scaled[0]
    for c, row in enumerate(sub):
        if min(row[:c] + row[c + 1:], default=1) > 0:
            return MaximalityCertificate(phi.universe.lottery(1, [(idx[c], 1)]),
                                         tuple([Fraction(x, scale) for x in row]))
    d, nums = _optimal_strategy(sub)
    slack = _slacks(sub, d * scale, nums)
    if min(slack) < 0:
        raise SolverDefect(f"negative slack in certificate: {slack}")
    return MaximalityCertificate(phi.universe.lottery(d, zip(idx, nums)), slack)


def is_maximal(phi: SSBMatrix, p: Lottery, names: Iterable[str] | None = None) -> bool:
    """Whether p beats-or-ties every pure outcome of the arena.

    By bilinearity this is equivalent to beating-or-tying every lottery
    on the arena, so it is a complete maximality test.
    """
    same_universe(phi, p)
    arena, idx, sub = _arena(phi, names)
    if not set(p.support()) <= set(arena):
        raise ValueError(f"support {p.support()} outside arena {arena}")
    d, nums = p.scaled
    return all(s >= 0 for s in _slacks(sub, d * phi.scaled[0], [nums[i] for i in idx]))


def _solve_unique(rows: list, n: int) -> tuple[int, list[int]] | None:
    """The unique solution of integer rows [coefficients..., rhs] in n
    unknowns, in integer form (d, nums) with d > 0, or None; Gauss-Jordan by
    `_pivot`, after which every pivot row holds the last divisor d in its
    pivot column."""
    rows, d = list(rows), 1
    for col in range(n):
        pivot_at = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if pivot_at is None:
            return None  # underdetermined: column col has no pivot
        rows[col], rows[pivot_at] = rows[pivot_at], rows[col]
        d = _pivot(rows, col, col, d)
    if any(row[-1] for row in rows[n:]):
        return None  # inconsistent
    sign = 1 if d > 0 else -1
    return sign * d, [sign * row[-1] for row in rows[:n]]


def unique_optimum(
    phi: SSBMatrix,
    certificate: MaximalityCertificate,
    names: Iterable[str] | None = None,
) -> bool:
    """Whether the certificate's lottery is the only maximal lottery on the arena.

    Exact, polynomial, and in agreement with `maximal_set`'s flag.  By
    Tucker's theorem on skew-symmetric systems, some maximal lottery p* is
    strictly complementary: p*_a + (p*' phi)_a > 0 for every a.  Two facts
    follow, with p the certificate's lottery:

    - If p is the only maximal lottery, it is p*.  So an alternative with
      p_a = 0 and zero slack (a degenerate one) proves another maximal
      lottery exists.
    - If no alternative is degenerate, p is strictly complementary.  Two
      maximal lotteries p, q satisfy p' phi q = 0, so every maximal q is 0
      where p's slack is positive and has zero slack on p's support S:
      every maximal lottery solves  q_a = 0 off S,  (q' phi)_b = 0 on S,
      sum q = 1.  Near p, whose inequalities are all strict, that system
      describes the maximal set, so the set is one point iff the system
      has rank |S|.

    One linear system over the support, and no enumeration of the face.
    A pure certificate, such as `maximal_lottery` gives for a strict
    Condorcet winner, needs no system: on a one-point support S = {c} it
    is q_c = 1, of full rank, so the answer is "no degenerate
    alternative".  Its check reads row c of phi's `entries`, which holds
    its slacks, as it is (for an integer matrix, its integer row).
    """
    same_universe(phi, certificate.lottery)
    d, nums = certificate.lottery.scaled
    if d == 1:
        c = nums.index(1)
        idx = phi.universe.positions(names)
        if c not in idx or tuple([phi.entries[c][b] for b in idx]) != certificate.slack:
            raise ValueError("certificate does not belong to phi on arena "
                             f"{tuple([phi.universe.names[a] for a in idx])}")
        return certificate.slack.count(0) == 1  # c's own slack is the one zero
    arena, idx, sub = _arena(phi, names)
    k = len(arena)
    p = [nums[i] for i in idx]
    slack = _slacks(sub, d * phi.scaled[0], p)
    if sum(p) != d or slack != certificate.slack:
        raise ValueError(f"certificate does not belong to phi on arena {arena}")
    if any(x == 0 and s == 0 for x, s in zip(p, slack)):
        return False
    support = [a for a in range(k) if p[a]]
    rows = [[sub[a][b] for a in support] + [0] for b in support]
    rows.append([1] * (len(support) + 1))
    point = _solve_unique(rows, len(support))
    if point is not None and [x * d for x in point[1]] != [p[a] * point[0] for a in support]:
        raise SolverDefect("the face system's only solution is not the certificate")
    return point is not None


def maximal_set(
    phi: SSBMatrix, names: Iterable[str] | None = None, max_enum: int = 8
) -> tuple[list[Lottery], bool]:
    """All vertices of the polytope of maximal lotteries, plus a uniqueness flag.

    The maximal lotteries on X form the polytope
        P = {p in Delta_X : (p' phi)_b >= 0 for all b in X},
    and every maximal p has (p' phi)_b = 0 on its own support (a positive
    probability on a strictly-positive slack would contradict p' phi p = 0).
    So at every vertex, each alternative contributes "p_a = 0", "(p' phi)_a
    = 0", or both, to an active set of full rank.  Enumerating the three
    choices per alternative, solving each square-able system exactly and
    keeping feasible unique solutions therefore finds every vertex.

    Exponential in |X|, hence the enumeration bound (default 8).
    """
    universe = phi.universe
    arena, idx, sub = _arena(phi, names)
    k = len(arena)
    if k > max_enum:
        raise ValueError(f"|X| = {k} exceeds enumeration bound {max_enum}")
    # integer rows [coefficients..., rhs], built once for all 3^k patterns
    zero_rows = [[int(j == a) for j in range(k)] + [0] for a in range(k)]
    tight_rows = [[r[b] for r in sub] + [0] for b in range(k)]
    sum_row = [1] * (k + 1)

    found: dict[tuple[Fraction, ...], tuple[int, list[int]]] = {}
    for pattern in itertools.product((0, 1, 2), repeat=k):
        rows = [sum_row]
        for a, choice in enumerate(pattern):
            if choice != 1:  # 0 = coordinate zero, 2 = both
                rows.append(zero_rows[a])
            if choice != 0:  # 1 = tight column, 2 = both
                rows.append(tight_rows[a])
        point = _solve_unique(rows, k)
        if point is None or min(point[1]) < 0:
            continue
        if min(_slacks(sub, *point)) < 0:  # phi's scale changes no sign
            continue
        d, nums = point
        found[tuple([Fraction(x, d) for x in nums])] = point
    # every vertex is 0 off the ascending arena, so sorting arena points
    # orders the vertices as sorting their full vectors would
    vertices = [universe.lottery(d, zip(idx, nums))
                for _, (d, nums) in sorted(found.items())]
    if not vertices:
        raise SolverDefect("empty maximal set; existence guarantee violated")
    return vertices, len(vertices) == 1


def choose(phi: SSBMatrix, feasible: FeasiblePolytope) -> Lottery:
    """A maximal lottery within an arbitrary feasible polytope.

    Plays the symmetric game between the polytope's vertices (payoff
    entry (i, j) is evaluate(phi, v_i, v_j)), then mixes the vertices by
    the optimal weights.  The result beats-or-ties every vertex and, by
    convexity, every point of the polytope.  With affinely dependent
    vertices the particular preimage is whatever the weights give;
    maximality in the simplex is what matters and is checked exactly.
    """
    same_universe(phi, feasible)
    verts = feasible.vertices
    k = len(verts)
    _, flat = _over_common_denominator([evaluate(phi, vi, vj) for vi in verts for vj in verts])
    d, nums = _optimal_strategy([flat[i * k:(i + 1) * k] for i in range(k)])
    probs = [Fraction(0)] * len(phi.universe)
    for v, w in zip(verts, nums):
        if w:
            for i, x in enumerate(v.probs):
                probs[i] += Fraction(w, d) * x
    result = Lottery(phi.universe, tuple(probs))
    for j, v in enumerate(verts):
        if evaluate(phi, result, v) < 0:
            raise SolverDefect(f"chosen lottery loses to vertex {j}")
    return result
