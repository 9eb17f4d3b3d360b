"""Algebraic identities under generated inputs (exact, no tolerances)."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ssbchoice import (
    Lottery,
    SSBMatrix,
    Universe,
    compare,
    evaluate,
    mix,
    normalize,
    restrict,
)

UNIVERSES = st.integers(min_value=2, max_value=5).map(
    lambda m: Universe(tuple(chr(ord("a") + i) for i in range(m)))
)

fractions = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
)
unit_fractions = st.fractions(
    min_value=Fraction(0), max_value=Fraction(1), max_denominator=8
)


@st.composite
def lottery_pairs(draw, count=2):
    universe = draw(UNIVERSES)
    lotteries = []
    for _ in range(count):
        weights = draw(
            st.lists(
                st.integers(min_value=0, max_value=9),
                min_size=len(universe), max_size=len(universe),
            ).filter(lambda w: any(w))
        )
        total = sum(weights)
        lotteries.append(
            Lottery(universe, tuple(Fraction(w, total) for w in weights))
        )
    return universe, lotteries


@st.composite
def matrix_and_lotteries(draw, count=2):
    universe, lotteries = draw(lottery_pairs(count))
    m = len(universe)
    grid = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            grid[i][j] = draw(fractions)
            grid[j][i] = -grid[i][j]
    return SSBMatrix(universe, tuple(map(tuple, grid))), lotteries


@settings(max_examples=80, deadline=None)
@given(lottery_pairs(count=2), unit_fractions)
def test_mix_is_exact_and_sums_to_one(pair, lam):
    _, (p, q) = pair
    blended = mix(p, q, lam)
    assert sum(blended.probs) == 1
    assert all(
        x == lam * a + (1 - lam) * b
        for x, a, b in zip(blended.probs, p.probs, q.probs)
    )


@settings(max_examples=80, deadline=None)
@given(matrix_and_lotteries(count=2))
def test_evaluate_is_skew_symmetric(case):
    phi, (p, q) = case
    assert evaluate(phi, p, q) == -evaluate(phi, q, p)
    assert evaluate(phi, p, p) == 0


@settings(max_examples=80, deadline=None)
@given(matrix_and_lotteries(count=3), unit_fractions)
def test_evaluate_is_bilinear(case, lam):
    phi, (p, q, r) = case
    left = evaluate(phi, mix(p, r, lam), q)
    assert left == lam * evaluate(phi, p, q) + (1 - lam) * evaluate(phi, r, q)
    right = evaluate(phi, q, mix(p, r, lam))
    assert right == lam * evaluate(phi, q, p) + (1 - lam) * evaluate(phi, q, r)


@settings(max_examples=80, deadline=None)
@given(matrix_and_lotteries(count=2))
def test_normalize_preserves_comparisons(case):
    phi, (p, q) = case
    assert compare(normalize(phi), p, q) is compare(phi, p, q)
    if phi != SSBMatrix.zero(phi.universe):
        assert max(map(max, normalize(phi).entries)) == 1


@settings(max_examples=80, deadline=None)
@given(matrix_and_lotteries(count=2), st.data())
def test_restrict_agrees_on_common_support(case, data):
    phi, _ = case
    universe = phi.universe
    size = data.draw(st.integers(min_value=1, max_value=len(universe)))
    chosen = universe.names[:size]
    sub = restrict(phi, chosen)
    weights = data.draw(
        st.lists(st.integers(min_value=0, max_value=5),
                 min_size=size, max_size=size).filter(lambda w: any(w))
    )
    total = sum(weights)
    p_small = Lottery(sub.universe, tuple(Fraction(w, total) for w in weights))
    p_big = Lottery.of(universe, dict(zip(chosen, p_small.probs)))
    for name in chosen:
        assert evaluate(sub, p_small, sub.universe.pure(name)) == evaluate(
            phi, p_big, universe.pure(name)
        )
