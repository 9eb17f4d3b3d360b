import itertools
import random
from fractions import Fraction

import pytest

from ssbchoice import (
    FeasiblePolytope,
    Lottery,
    MaximalityCertificate,
    Profile,
    SSBMatrix,
    Universe,
    choose,
    evaluate,
    is_maximal,
    majority_margins,
    maximal_lottery,
    maximal_set,
    mix,
    solver,
    unique_optimum,
    weak_order,
)
from ssbchoice.aggregate import approval_aggregate
from ssbchoice.axioms import random_lottery, random_ssb_matrix
from ssbchoice.model import _over_common_denominator, ranked_order

ABC = Universe(("a", "b", "c"))


# -- independent oracle helpers (kept free of the solver's own code paths) --

def oracle_slacks(phi, p):
    """Straight matrix-vector product p' phi, one entry per alternative."""
    m = len(phi.universe)
    return [
        sum(p.probs[a] * phi.entries[a][b] for a in range(m))
        for b in range(m)
    ]


def oracle_is_maximal(phi, p):
    return all(s >= 0 for s in oracle_slacks(phi, p))


def solve_square(rows, rhs):
    """Exact Gaussian elimination; None if singular/inconsistent.

    Accepts overdetermined systems: extra rows must be consistent.
    """
    n = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, len(aug)) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(len(aug)):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [v - f * pv for v, pv in zip(aug[r], aug[col])]
    for r in range(n, len(aug)):
        if aug[r][-1] != 0:
            return None
    return [aug[i][-1] for i in range(n)]


def in_convex_hull(point, vertices):
    """Exact membership test via small barycentric systems (m <= 4)."""
    dims = len(point)
    for size in range(1, min(len(vertices), dims + 1) + 1):
        for subset in itertools.combinations(vertices, size):
            rows = [[v[i] for v in subset] for i in range(dims)]
            rows.append([Fraction(1)] * size)
            rhs = [Fraction(x) for x in point] + [Fraction(1)]
            coeffs = solve_square(rows, rhs)
            if coeffs is None or any(c < 0 for c in coeffs):
                continue
            return True
    return False


def grid_lotteries(universe, denominator):
    m = len(universe)
    out = []
    for combo in itertools.product(range(denominator + 1), repeat=m):
        if sum(combo) == denominator:
            out.append(
                Lottery(universe, tuple(Fraction(k, denominator) for k in combo))
            )
    return out


class TestMaximalLottery:
    def test_delegate_profile(self, table1_margins):
        cert = maximal_lottery(table1_margins)
        assert cert.lottery.probs == (
            Fraction(1, 6), Fraction(1, 6), Fraction(2, 3), Fraction(0),
        )
        assert cert.slack == (0, 0, 0, 65)

    def test_condorcet(self, condorcet_matrix):
        cert = maximal_lottery(condorcet_matrix)
        assert cert.lottery.probs == (Fraction(1, 3),) * 3

    def test_dominant_row_gives_pure_winner(self):
        phi = SSBMatrix(ABC, [[0, 2, 1], [-2, 0, -3], [-1, 3, 0]])
        cert = maximal_lottery(phi)
        assert cert.lottery == ABC.pure("a")

    def test_subset_arena(self, table1_margins):
        cert = maximal_lottery(table1_margins, ["A", "B"])
        # A beats B 40 head-to-head
        assert cert.lottery == table1_margins.universe.pure("A")
        assert set(cert.lottery.support()) <= {"A", "B"}

    def test_zero_matrix(self):
        cert = maximal_lottery(SSBMatrix.zero(ABC))
        assert sum(cert.lottery.probs) == 1
        assert all(s == 0 for s in cert.slack)

    def test_single_alternative(self):
        solo = Universe(("solo",))
        cert = maximal_lottery(SSBMatrix.zero(solo))
        assert cert.lottery == solo.pure("solo")
        assert maximal_set(SSBMatrix.zero(solo)) == ([solo.pure("solo")], True)

    def test_dozen_alternatives_with_ties(self):
        rng = random.Random(1)
        u = Universe(tuple(f"x{i}" for i in range(12)))
        phi = random_ssb_matrix(rng, u, max_abs=9)
        cert = maximal_lottery(phi)
        assert min(cert.slack) == 0 and all(s >= 0 for s in cert.slack)
        rows = [[0] * 12 for _ in range(12)]
        rows[0][1], rows[1][0] = 1, -1
        lopsided = SSBMatrix(u, rows)
        assert maximal_lottery(lopsided).lottery.support() == ("x0",)


def integer_matrix(rng, m, zero_rate, values):
    rows = [[0] * m for _ in range(m)]
    for i, j in itertools.combinations(range(m), 2):
        rows[i][j] = 0 if rng.random() < zero_rate else rng.choice(values)
        rows[j][i] = -rows[i][j]
    return SSBMatrix(Universe(tuple(f"x{i}" for i in range(m))), rows)


def fraction_shift_bland(payoff):
    """The simplex as it was on rational payoffs: Bland's rule on
    [(phi + K) | I | 1] with K = 1 + max |phi|, a Fraction for a Fraction
    matrix, each row scaled to integers by its own least common
    denominator."""
    k = len(payoff)
    shift = 1 + max(abs(x) for row in payoff for x in row)
    rows = []
    for i, row in enumerate(payoff):
        scale, nums = _over_common_denominator([Fraction(x + shift) for x in row])
        rows.append(nums + [scale * (j == i) for j in range(k)] + [scale])
    rows.append([-1] * k + [0] * (k + 1))
    basis = list(range(k, 2 * k))
    d = 1
    while True:
        entering = next((j for j in range(2 * k) if rows[-1][j] < 0), None)
        if entering is None:
            break
        leaving = -1
        for i, row in enumerate(rows[:k]):
            coeff = row[entering]
            if coeff > 0 and (leaving < 0 or (row[-1] * rows[leaving][entering], basis[i])
                              < (rows[leaving][-1] * coeff, basis[leaving])):
                leaving = i
        d = solver._pivot(rows, leaving, entering, d)
        basis[leaving] = entering
    shift = Fraction(shift)
    nums = [0] * k
    for i, var in enumerate(basis):
        if var < k:
            nums[var] = shift.numerator * rows[i][-1]
    return shift.denominator * d, nums


def rational_matrix(rng, m):
    """A skew matrix with 30% zeros and small entries over a random common
    denominator (an integer matrix in a third of the cases), so that many
    games have several optimal strategies."""
    scale = rng.choice((1, rng.randint(2, 12), 10 ** rng.randint(3, 30) + 7))
    rows = [[Fraction(0)] * m for _ in range(m)]
    for i, j in itertools.combinations(range(m), 2):
        if rng.random() >= 0.3:
            x = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), 1 if scale == 1 else rng.choice((1, 2, 3)))
            rows[i][j] = x / scale if rng.random() < 0.8 else x
            rows[j][i] = -rows[i][j]
    return SSBMatrix(Universe(tuple(f"x{i}" for i in range(m))), rows)


class TestDeterministicPick:
    """Where many lotteries are maximal, the simplex's pick is pinned.

    The picks below are those of the Fraction-tableau simplex that the
    fraction-free one replaced; Bland's rule makes the same pivots on
    rows scaled by positive factors, and on the integer rows of phi's
    integer form with their own shift, so they must not move.
    """

    def test_pick_matches_the_fraction_shift_simplex(self):
        rng = random.Random(2604)
        kinds = {"integral": 0, "rational": 0, "non-unique": 0}
        for _ in range(1200):
            phi = rational_matrix(rng, rng.randint(2, 7))
            d, nums = solver._optimal_strategy(phi.scaled[1])
            ref_d, ref_nums = fraction_shift_bland(phi.entries)
            assert (phi.universe.lottery(d, enumerate(nums))
                    == phi.universe.lottery(ref_d, enumerate(ref_nums)))
            cert = bland_maximal_lottery(phi)
            kinds["integral" if phi.scaled[0] == 1 else "rational"] += 1
            kinds["non-unique"] += not unique_optimum(phi, cert)
        assert min(kinds.values()) >= 200, kinds

    @pytest.mark.parametrize("rows, pick", [
        ([["0"] * 3] * 3, ["1", "0", "0"]),
        ([["0"] * 5] * 5, ["1", "0", "0", "0", "0"]),
        ([["0", "0", "1", "-1"], ["0", "0", "-1", "1"],
          ["-1", "1", "0", "0"], ["1", "-1", "0", "0"]],
         ["1/2", "1/2", "0", "0"]),
        ([["0", "1", "0", "0", "-3/2"], ["-1", "0", "0", "0", "0"],
          ["0", "0", "0", "-3/2", "-1"], ["0", "0", "3/2", "0", "-1"],
          ["3/2", "0", "1", "1", "0"]],
         ["0", "3/5", "0", "0", "2/5"]),
        ([["0", "1/2", "-2", "-1", "0", "0"], ["-1/2", "0", "1", "0", "0", "0"],
          ["2", "-1", "0", "1/2", "0", "2"], ["1", "0", "-1/2", "0", "2", "0"],
          ["0", "0", "0", "-2", "0", "0"], ["0", "0", "-2", "0", "0", "0"]],
         ["0", "1/3", "0", "2/3", "0", "0"]),
        ([["0", "0", "-3/2", "0", "0", "0"], ["0", "0", "0", "0", "-1", "0"],
          ["3/2", "0", "0", "-2", "-3/2", "-3/2"], ["0", "0", "2", "0", "-3/2", "0"],
          ["0", "1", "3/2", "3/2", "0", "0"], ["0", "0", "3/2", "0", "0", "0"]],
         ["1/2", "0", "0", "0", "1/2", "0"]),
        ([["0", "1/2", "-2", "0"], ["-1/2", "0", "0", "0"],
          ["2", "0", "0", "1/2"], ["0", "0", "-1/2", "0"]],
         ["0", "4/5", "1/5", "0"]),
        # on the next two, a tie in the ratio test broken towards the
        # higher basic index picks another lottery
        ([["0", "0", "0", "-1", "-1", "0"], ["0", "0", "-1", "0", "0", "0"],
          ["0", "1", "0", "0", "1", "0"], ["1", "0", "0", "0", "1", "-1"],
          ["1", "0", "-1", "-1", "0", "0"], ["0", "0", "0", "1", "0", "0"]],
         ["0", "0", "1", "0", "0", "0"]),
        ([["0", "-3", "1", "-2", "-3", "-2"], ["3", "0", "3", "-2", "3", "-4"],
          ["-1", "-3", "0", "-1", "4", "0"], ["2", "2", "1", "0", "2", "0"],
          ["3", "-3", "-4", "-2", "0", "2"], ["2", "4", "0", "0", "-2", "0"]],
         ["0", "0", "0", "1", "0", "0"]),
        # weak winners (a row >= 0 with a zero): Bland's simplex, not the
        # strict-winner shortcut, picks among the maximal lotteries
        ([["0", "0", "1"], ["0", "0", "1"], ["-1", "-1", "0"]], ["1", "0", "0"]),
        ([["0", "1", "0"], ["-1", "0", "2"], ["0", "-2", "0"]], ["1", "0", "0"]),
    ])
    def test_pick_on_non_unique_instances(self, rows, pick):
        u = Universe(tuple("abcdef"[: len(rows)]))
        phi = SSBMatrix(u, rows)
        cert = maximal_lottery(phi)
        assert cert.lottery.probs == tuple(Fraction(x) for x in pick)
        assert not unique_optimum(phi, cert)


# -- the solver as it was before the strict-Condorcet-winner shortcut --

BLAND = solver._optimal_strategy


def bland_maximal_lottery(phi, names=None):
    """`maximal_lottery` with Bland's simplex on every arena."""
    _, idx, sub = solver._arena(phi, names)
    d, nums = BLAND(sub)
    slack = solver._slacks(sub, d * phi.scaled[0], nums)
    assert min(slack) >= 0
    return MaximalityCertificate(phi.universe.lottery(d, zip(idx, nums)), slack)


def face_system_unique_optimum(phi, certificate, names=None):
    """`unique_optimum` with the face system for every certificate, pure
    ones included."""
    arena, idx, sub = solver._arena(phi, names)
    d, nums = certificate.lottery.scaled
    p = [nums[i] for i in idx]
    slack = solver._slacks(sub, d * phi.scaled[0], p)
    if sum(p) != d or slack != certificate.slack:
        raise ValueError(f"certificate does not belong to phi on arena {arena}")
    if any(x == 0 and s == 0 for x, s in zip(p, slack)):
        return False
    support = [a for a in range(len(arena)) if p[a]]
    rows = [_over_common_denominator([sub[a][b] for a in support])[1] + [0]
            for b in support]
    rows.append([1] * (len(support) + 1))
    return solver._solve_unique(rows, len(support)) is not None


def weak_order_margins(rng, u):
    n = rng.randint(1, 7)
    return majority_margins(Profile(u, [
        ranked_order(u, [rng.randrange(len(u)) for _ in u.names]) for _ in range(n)]))


def approval_margins(rng, u):
    n = rng.randint(1, 7)
    return approval_aggregate(Profile(u, [
        ranked_order(u, [rng.randrange(2) for _ in u.names]) for _ in range(n)]))[1]


def fraction_matrix(rng, u):
    return random_ssb_matrix(rng, u, max_abs=rng.choice((1, 4)))


class TestCondorcetShortcut:
    """A strict Condorcet winner's pure certificate, and the pure-certificate
    uniqueness answer, against the Bland-only solver and the face system."""

    KINDS = {
        "weak-order margins": weak_order_margins,
        "approval margins": approval_margins,
        "integers, 20% zeros": lambda rng, u: integer_matrix(rng, len(u), 0.2, range(-3, 4)),
        "Fraction entries": fraction_matrix,
    }

    def test_agrees_with_bland_and_the_face_system(self, monkeypatch):
        calls = []
        monkeypatch.setattr(solver, "_optimal_strategy",
                            lambda sub: calls.append(1) or BLAND(sub))
        rng = random.Random(2007)
        paths = {(kind, path): 0 for kind in self.KINDS for path in ("shortcut", "bland")}
        for i in range(2000):
            kind = list(self.KINDS)[i % len(self.KINDS)]
            u = Universe(tuple(f"x{a}" for a in range(rng.randint(1, 8))))
            phi = self.KINDS[kind](rng, u)
            names = None
            if rng.random() < 0.3:
                names = rng.sample(u.names, rng.randint(1, len(u)))
            before = len(calls)
            cert = maximal_lottery(phi, names)
            paths[kind, "bland" if len(calls) > before else "shortcut"] += 1
            want = bland_maximal_lottery(phi, names)
            assert cert.lottery == want.lottery
            assert cert.slack == want.slack
            assert [type(x) for x in cert.slack] == [type(x) for x in want.slack]
            assert (unique_optimum(phi, cert, names)
                    == face_system_unique_optimum(phi, want, names))
        assert min(paths.values()) > 0, paths

    def test_altered_slack_of_a_pure_certificate_rejected(self, chain3_matrix):
        cert = maximal_lottery(chain3_matrix)
        assert cert.lottery.scaled == (1, (1, 0, 0))
        for b in range(len(cert.slack)):
            slack = list(cert.slack)
            slack[b] += 1
            with pytest.raises(ValueError, match="does not belong"):
                unique_optimum(chain3_matrix, MaximalityCertificate(cert.lottery, tuple(slack)))

    def test_pure_certificate_of_another_arena_rejected(self, table1_margins):
        for names, outside in ((["A", "B"], ["B", "C"]), (["C", "D"], ["A", "B", "D"])):
            cert = maximal_lottery(table1_margins, names)
            assert cert.lottery.scaled[0] == 1
            assert unique_optimum(table1_margins, cert, names)
            with pytest.raises(ValueError, match="does not belong"):
                unique_optimum(table1_margins, cert)
            with pytest.raises(ValueError, match="does not belong"):
                unique_optimum(table1_margins, cert, outside)  # winner outside

    def test_pure_certificate_of_another_matrix_rejected(self, chain3_matrix):
        cert = maximal_lottery(chain3_matrix)
        doubled = SSBMatrix(chain3_matrix.universe,
                            [[2 * x for x in row] for row in chain3_matrix.entries])
        with pytest.raises(ValueError, match="does not belong"):
            unique_optimum(doubled, cert)


class TestAgainstHighs:
    """The exact solve against SciPy's HiGHS on the same shifted game LP."""

    @pytest.mark.parametrize("m, seed", [(5, 1), (12, 2), (25, 3), (40, 4), (60, 5)])
    def test_value_and_support(self, m, seed):
        np = pytest.importorskip("numpy")
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = random.Random(seed)
        instances = [
            integer_matrix(rng, m, 0.3, range(-4, 5)),
            integer_matrix(rng, m, 0.0, (-5, -3, -1, 1, 3, 5)),
        ]
        compared = 0
        for phi in instances:
            cert = maximal_lottery(phi)
            shift = 1 + max(abs(x) for row in phi.entries for x in row)
            a = np.array(phi.entries, dtype=float) + shift
            res = linprog(-np.ones(m), A_ub=a, b_ub=np.ones(m), method="highs")
            assert res.status == 0
            assert -res.fun == pytest.approx(1 / shift, rel=1e-9)
            if unique_optimum(phi, cert):
                p = shift * res.x
                assert {a for a in range(m) if p[a] > 1e-9} == {
                    a for a in range(m) if cert.lottery.probs[a]
                }
                assert max(abs(p - [float(x) for x in cert.lottery.probs])) < 1e-9
                compared += 1
        # the odd tournament is unique by the theorem tested below
        assert compared >= 1


class TestOddLinearOrders:
    """Laffond, Laslier and Le Breton (J. Econ. Theory 72, 1997): the
    margins of an odd number of linear orders are odd, and a symmetric
    game with odd off-diagonal payoffs has a unique optimal strategy."""

    @pytest.mark.parametrize("m", [2, 3, 5, 8, 13, 21, 30])
    def test_unique(self, m):
        rng = random.Random(m)
        u = Universe(tuple(f"x{i}" for i in range(m)))
        for n in (1, 3, 7, 11):
            orders = []
            for _ in range(n):
                names = list(u.names)
                rng.shuffle(names)
                orders.append(weak_order(u, names))
            phi = majority_margins(Profile(u, tuple(orders)))
            assert all(x % 2 for i, row in enumerate(phi.entries)
                       for j, x in enumerate(row) if i != j)
            assert unique_optimum(phi, maximal_lottery(phi))


class TestIsMaximal:
    def test_delegate_solution_with_derived_slacks(self, table1_margins):
        p = Lottery(
            table1_margins.universe,
            (Fraction(1, 6), Fraction(1, 6), Fraction(2, 3), Fraction(0)),
        )
        assert is_maximal(table1_margins, p)
        assert oracle_slacks(table1_margins, p) == [0, 0, 0, 65]

    def test_pure_d_not_maximal(self, table1_margins):
        u = table1_margins.universe
        assert table1_margins["D", "A"] == -80
        assert not is_maximal(table1_margins, u.pure("D"))

    def test_zero_matrix_everything_maximal(self):
        rng = random.Random(3)
        zero = SSBMatrix.zero(ABC)
        for _ in range(30):
            assert is_maximal(zero, random_lottery(rng, ABC))

    def test_support_outside_arena_rejected(self, table1_margins):
        u = table1_margins.universe
        with pytest.raises(ValueError):
            is_maximal(table1_margins, u.pure("D"), ["A", "B", "C"])


class TestMaximalSet:
    def test_delegate_profile_unique(self, table1_margins):
        vertices, unique = maximal_set(table1_margins)
        assert unique
        assert vertices[0].probs == (
            Fraction(1, 6), Fraction(1, 6), Fraction(2, 3), Fraction(0),
        )

    def test_condorcet_unique(self, condorcet_matrix):
        vertices, unique = maximal_set(condorcet_matrix)
        assert unique and vertices[0].probs == (Fraction(1, 3),) * 3

    def test_zero_matrix_pair(self):
        vertices, unique = maximal_set(SSBMatrix.zero(ABC), ["a", "b"])
        assert not unique
        assert {v.probs for v in vertices} == {
            ABC.pure("a").probs, ABC.pure("b").probs,
        }

    def test_degenerate_tied_block(self):
        # a and b tie each other while columns c and d force p_a = p_b (and
        # symmetrically p_c = p_d): both vertices sit strictly inside faces
        # whose support systems alone are underdetermined, so plain
        # support enumeration would miss them.
        u = Universe(("a", "b", "c", "d"))
        phi = SSBMatrix(u, [
            [0, 0, 1, -1],
            [0, 0, -1, 1],
            [-1, 1, 0, 0],
            [1, -1, 0, 0],
        ])
        vertices, unique = maximal_set(phi)
        assert not unique
        half = Fraction(1, 2)
        assert {v.probs for v in vertices} == {
            (half, half, Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(0), half, half),
        }

    def test_enumeration_bound(self):
        u = Universe(tuple("abcdefghi"))
        with pytest.raises(ValueError):
            maximal_set(SSBMatrix.zero(u))
        vertices, unique = maximal_set(SSBMatrix.zero(u), max_enum=9)
        assert len(vertices) == 9 and not unique

    def test_contains_simplex_solution(self):
        rng = random.Random(59)
        u = Universe(("a", "b", "c", "d"))
        for _ in range(60):
            phi = random_ssb_matrix(rng, u, max_abs=3)
            cert = maximal_lottery(phi)
            vertices, _ = maximal_set(phi)
            assert in_convex_hull(cert.lottery.probs, [v.probs for v in vertices])


class TestUniqueOptimum:
    """The polynomial test must agree with the enumerated maximal set."""

    @staticmethod
    def agrees(phi, names=None):
        cert = maximal_lottery(phi, names)
        _, enumerated = maximal_set(phi, names)
        assert unique_optimum(phi, cert, names) == enumerated
        return enumerated

    def test_fixtures(self, table1_margins, condorcet_matrix):
        tied_block = SSBMatrix(Universe(("a", "b", "c", "d")), [
            [0, 0, 1, -1],
            [0, 0, -1, 1],
            [-1, 1, 0, 0],
            [1, -1, 0, 0],
        ])
        assert not self.agrees(SSBMatrix.zero(ABC), ["a", "b"])
        assert not self.agrees(tied_block)
        assert self.agrees(SSBMatrix.zero(Universe(("solo",))))
        assert self.agrees(table1_margins)
        assert self.agrees(condorcet_matrix)

    def test_random_integer_matrices(self):
        # extra zero entries (ties) make about 60% of these maximal sets
        # faces rather than points
        rng = random.Random(73)
        sizes = [rng.randint(2, 5) for _ in range(60)] + [6, 6, 6]
        unique_count = 0
        for m in sizes:
            u = Universe(tuple("abcdef"[:m]))
            rows = [[0] * m for _ in range(m)]
            for i, j in itertools.combinations(range(m), 2):
                rows[i][j] = 0 if rng.random() < 0.2 else rng.randint(-3, 3)
                rows[j][i] = -rows[i][j]
            unique_count += self.agrees(SSBMatrix(u, rows))
        assert 0 < unique_count < len(sizes)

    def test_interior_point_of_a_face(self):
        # no degenerate alternative, so only the rank test can say "not unique"
        zero = SSBMatrix.zero(ABC)
        half = Lottery(ABC, (Fraction(1, 2), Fraction(1, 2), Fraction(0)))
        cert = MaximalityCertificate(half, (Fraction(0), Fraction(0)))
        assert not unique_optimum(zero, cert, ["a", "b"])

    def test_certificate_of_another_arena_rejected(self, table1_margins):
        cert = maximal_lottery(table1_margins, ["A", "B"])
        with pytest.raises(ValueError):
            unique_optimum(table1_margins, cert)


def assert_exact(values):
    for x in values:
        assert type(x) in (int, Fraction), (x, type(x))


class TestNoFloat:
    """Integer entries must never turn a solver division into a float."""

    def test_integer_margins_give_exact_results(self):
        rng = random.Random(79)
        for m in [2, 3, 4, 5] * 6 + [6, 6]:
            u = Universe(tuple("abcdef"[:m]))
            rows = [[0] * m for _ in range(m)]
            for i, j in itertools.combinations(range(m), 2):
                rows[i][j] = 0 if rng.random() < 0.2 else rng.randint(-9, 9)
                rows[j][i] = -rows[i][j]
            phi = SSBMatrix(u, rows)
            cert = maximal_lottery(phi)
            assert_exact(cert.lottery.probs)
            assert_exact(cert.slack)
            vertices, _ = maximal_set(phi)
            for v in vertices:
                assert_exact(v.probs)
            verts = tuple(random_lottery(rng, u) for _ in range(rng.randint(1, 4)))
            chosen = choose(phi, FeasiblePolytope(u, verts + (u.pure("a"),)))
            assert_exact(chosen.probs)


class TestAgainstBruteForce:
    def test_small_matrices_match_grid_oracle(self):
        rng = random.Random(61)
        for _ in range(40):
            m = rng.randint(2, 3)
            u = Universe(tuple("abc"[:m]))
            grid = [
                [0] * m for _ in range(m)
            ]
            for i in range(m):
                for j in range(i + 1, m):
                    grid[i][j] = rng.randint(-2, 2)
                    grid[j][i] = -grid[i][j]
            phi = SSBMatrix(u, grid)
            vertices, unique = maximal_set(phi)
            hull = [v.probs for v in vertices]
            # every reported vertex is maximal by the independent test
            for v in vertices:
                assert oracle_is_maximal(phi, v)
            # every grid-maximal lottery lies in the hull of the vertices
            for p in grid_lotteries(u, 6):
                if oracle_is_maximal(phi, p):
                    assert in_convex_hull(p.probs, hull)
            # the one-shot solver agrees
            cert = maximal_lottery(phi)
            assert oracle_is_maximal(phi, cert.lottery)
            if unique:
                assert cert.lottery == vertices[0]


class TestChoose:
    def test_triple_polytope_matches_full_solution(self, table1_margins):
        u = table1_margins.universe
        full = maximal_lottery(table1_margins).lottery
        chosen = choose(table1_margins, FeasiblePolytope.delta(u, ["A", "B", "C"]))
        assert chosen == full

    def test_singleton(self, table1_margins):
        u = table1_margins.universe
        p = mix(u.pure("A"), u.pure("D"), Fraction(2, 7))
        assert choose(table1_margins, FeasiblePolytope(u, (p,))) == p

    def test_two_point_dominance(self, table1_margins):
        u = table1_margins.universe
        p, q = u.pure("A"), u.pure("B")
        assert evaluate(table1_margins, p, q) > 0
        assert choose(table1_margins, FeasiblePolytope(u, (p, q))) == p

    def test_result_beats_every_vertex(self):
        rng = random.Random(67)
        u = Universe(("a", "b", "c", "d"))
        for _ in range(60):
            phi = random_ssb_matrix(rng, u, max_abs=3)
            verts = tuple(random_lottery(rng, u) for _ in range(rng.randint(1, 5)))
            feasible = FeasiblePolytope(u, verts)
            result = choose(phi, feasible)
            for v in feasible.vertices:
                assert evaluate(phi, result, v) >= 0

    def test_consistent_with_arena_solver(self):
        rng = random.Random(71)
        u = Universe(("a", "b", "c"))
        for _ in range(60):
            phi = random_ssb_matrix(rng, u, max_abs=3)
            via_polytope = choose(phi, FeasiblePolytope.delta(u))
            via_arena = maximal_lottery(phi).lottery
            assert is_maximal(phi, via_polytope)
            assert is_maximal(phi, via_arena)
