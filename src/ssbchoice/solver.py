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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .model import FeasiblePolytope, Lottery, same_universe
from .ssb import SSBMatrix, evaluate, restrict


@dataclass(frozen=True)
class MaximalityCertificate:
    """A lottery together with its exact slacks against every opposing vertex.

    slack[j] = evaluate(phi, lottery, vertex_j) and every slack is >= 0;
    for sub-simplex problems the opposing vertices are the pure outcomes
    of the arena in universe order.
    """

    lottery: Lottery
    slack: tuple[Fraction, ...]

    def __post_init__(self):
        if any(s < 0 for s in self.slack):
            raise ValueError(f"negative slack in certificate: {self.slack}")


class SolverDefect(RuntimeError):
    """Internal contradiction in an exact result the program guarantees.

    Raised, for example, when the game LP has no optimum or a budget
    allocation does not sum to exactly 1; never caused by the input.
    """


def _simplex_max(
    a_rows: list[list[Fraction]], b: list[Fraction], c: list[Fraction]
) -> tuple[Fraction, list[Fraction]]:
    """Maximize c.x subject to A x <= b, x >= 0, for b >= 0, exactly.

    Primal tableau simplex from the all-slack basis with Bland's rule
    (entering: lowest-index variable with positive reduced profit;
    leaving: lowest-index basic variable among minimum ratios), which
    guarantees termination.  Returns (optimal value, x).
    """
    m, n = len(a_rows), len(c)
    if any(bi < 0 for bi in b):
        raise SolverDefect("standard-form simplex needs b >= 0")
    # columns: n structural variables then m slacks; last entry is the RHS
    tableau = [
        [Fraction(x) for x in a_rows[i]]
        + [Fraction(1) if k == i else Fraction(0) for k in range(m)]
        + [b[i]]
        for i in range(m)
    ]
    # objective row holds z_j - c_j; slack costs are zero
    obj = [-cj for cj in c] + [Fraction(0)] * (m + 1)
    basis = list(range(n, n + m))

    while True:
        entering = next((j for j in range(n + m) if obj[j] < 0), None)
        if entering is None:
            break
        best: tuple[Fraction, int] | None = None
        pivot_row = -1
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                key = (ratio, basis[i])
                if best is None or key < best:
                    best = key
                    pivot_row = i
        if pivot_row < 0:
            raise SolverDefect("unbounded game LP; payoff shift must be wrong")
        _pivot(tableau, obj, basis, pivot_row, entering)

    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tableau[i][-1]
    return obj[-1], x


def _pivot(tableau, obj, basis, row: int, col: int) -> None:
    pivot = tableau[row][col]
    tableau[row] = [v / pivot for v in tableau[row]]
    pivot_values = tableau[row]
    for i in range(len(tableau)):
        if i != row and tableau[i][col]:
            factor = tableau[i][col]
            tableau[i] = [v - factor * pv for v, pv in zip(tableau[i], pivot_values)]
    if obj[col]:
        factor = obj[col]
        for j in range(len(obj)):
            obj[j] -= factor * pivot_values[j]
    basis[row] = col


def _optimal_strategy(payoff: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    """An optimal strategy of the symmetric game with skew-symmetric payoff."""
    k = len(payoff)
    shift = 1 + max(abs(x) for row in payoff for x in row)
    a_rows = [[x + shift for x in row] for row in payoff]
    ones = [Fraction(1)] * k
    value, y = _simplex_max(a_rows, ones, ones)
    if value != Fraction(1, shift):
        raise SolverDefect(
            f"shifted game value {value} != 1/{shift}; zero-sum symmetry broken"
        )
    return [shift * yj for yj in y]


def maximal_lottery(
    phi: SSBMatrix, names: Iterable[str] | None = None
) -> MaximalityCertificate:
    """One maximal lottery on the given alternatives, with exact certificate.

    Ties among several maximal lotteries resolve to the simplex's first
    optimal basic solution under a fixed pivot order, so the output is
    deterministic; `unique_optimum` says whether it is the only one, and
    `maximal_set` lists the vertices of the whole optimal face.
    """
    universe = phi.universe
    arena = universe.subset(names)
    sub = restrict(phi, arena)
    weights = _optimal_strategy(sub.entries)
    probs = [Fraction(0)] * len(universe)
    for name, w in zip(arena, weights):
        probs[universe.index(name)] = w
    lottery = Lottery(universe, tuple(probs))
    slack = tuple(evaluate(phi, lottery, universe.pure(b)) for b in arena)
    return MaximalityCertificate(lottery, slack)


def is_maximal(phi: SSBMatrix, p: Lottery, names: Iterable[str] | None = None) -> bool:
    """Whether p beats-or-ties every pure outcome of the arena.

    By bilinearity this is equivalent to beating-or-tying every lottery
    on the arena, so it is a complete maximality test.
    """
    same_universe(phi, p)
    arena = phi.universe.subset(names)
    if not set(p.support()) <= set(arena):
        raise ValueError(f"support {p.support()} outside arena {arena}")
    return all(evaluate(phi, p, phi.universe.pure(b)) >= 0 for b in arena)


def _solve_unique(
    equations: list[tuple[tuple[Fraction, ...], Fraction]], n: int
) -> list[Fraction] | None:
    """Unique solution of a linear system, or None if inconsistent/underdetermined."""
    rows = [list(coeffs) + [rhs] for coeffs, rhs in equations]
    pivots: list[tuple[int, int]] = []
    rank_row = 0
    for col in range(n):
        pivot_at = next(
            (r for r in range(rank_row, len(rows)) if rows[r][col] != 0), None
        )
        if pivot_at is None:
            continue
        rows[rank_row], rows[pivot_at] = rows[pivot_at], rows[rank_row]
        pivot_row = rows[rank_row]
        inv = Fraction(1) / pivot_row[col]
        rows[rank_row] = pivot_row = [v * inv for v in pivot_row]
        for r in range(len(rows)):
            if r != rank_row and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [v - factor * pv for v, pv in zip(rows[r], pivot_row)]
        pivots.append((rank_row, col))
        rank_row += 1
    for r in range(rank_row, len(rows)):
        if rows[r][-1] != 0:
            return None  # inconsistent
    if rank_row < n:
        return None  # underdetermined
    solution = [Fraction(0)] * n
    for row, col in pivots:
        solution[col] = rows[row][-1]
    return solution


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
    """
    same_universe(phi, certificate.lottery)
    universe = phi.universe
    arena = universe.subset(names)
    k = len(arena)
    idx = [universe.index(n) for n in arena]
    sub = [[phi.entries[a][b] for b in idx] for a in idx]
    p = [certificate.lottery.probs[i] for i in idx]
    slack = tuple(sum((p[a] * sub[a][b] for a in range(k)), Fraction(0)) for b in range(k))
    if sum(p) != 1 or slack != certificate.slack:
        raise ValueError(f"certificate does not belong to phi on arena {arena}")
    if any(x == 0 and s == 0 for x, s in zip(p, slack)):
        return False
    support = [a for a in range(k) if p[a]]
    equations = [(tuple(sub[a][b] for a in support), Fraction(0)) for b in support]
    equations.append((tuple(Fraction(1) for _ in support), Fraction(1)))
    point = _solve_unique(equations, len(support))
    if point is not None and point != [p[a] for a in support]:
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
    arena = universe.subset(names)
    k = len(arena)
    if k > max_enum:
        raise ValueError(f"|X| = {k} exceeds enumeration bound {max_enum}")
    idx = [universe.index(n) for n in arena]
    sub = [[phi.entries[a][b] for b in idx] for a in idx]

    zero_rows = [
        tuple(Fraction(1) if j == i else Fraction(0) for j in range(k))
        for i in range(k)
    ]
    tight_rows = [tuple(sub[a][b] for a in range(k)) for b in range(k)]
    sum_row = (tuple(Fraction(1) for _ in range(k)), Fraction(1))

    found: dict[tuple[Fraction, ...], Lottery] = {}
    for pattern in itertools.product((0, 1, 2), repeat=k):
        equations = [sum_row]
        for a, choice in enumerate(pattern):
            if choice != 1:  # 0 = coordinate zero, 2 = both
                equations.append((zero_rows[a], Fraction(0)))
            if choice != 0:  # 1 = tight column, 2 = both
                equations.append((tight_rows[a], Fraction(0)))
        point = _solve_unique(equations, k)
        if point is None or any(x < 0 for x in point):
            continue
        if any(
            sum(point[a] * sub[a][b] for a in range(k)) < 0 for b in range(k)
        ):
            continue
        probs = [Fraction(0)] * len(universe)
        for name, x in zip(arena, point):
            probs[universe.index(name)] = x
        key = tuple(probs)
        if key not in found:
            found[key] = Lottery(universe, key)
    vertices = [found[key] for key in sorted(found)]
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
    payoff = [[evaluate(phi, vi, vj) for vj in verts] for vi in verts]
    weights = _optimal_strategy(payoff)
    probs = [Fraction(0)] * len(phi.universe)
    for v, w in zip(verts, weights):
        if w:
            for i, x in enumerate(v.probs):
                probs[i] += w * x
    result = Lottery(phi.universe, tuple(probs))
    for j, v in enumerate(verts):
        if evaluate(phi, result, v) < 0:
            raise SolverDefect(f"chosen lottery loses to vertex {j}")
    return result
