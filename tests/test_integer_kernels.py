"""The integer kernels of the budget path against the Fraction bodies they replaced.

Each reference below is the earlier `Fraction` implementation, kept here
as an oracle: the kernel must give the same value, or raise the same error
type with the same text.
"""

import random
import sys
from fractions import Fraction

import pytest

from ssbchoice import Universe, budget_allocation, cli, parse_ballots, utilitarian
from ssbchoice.axioms import random_lottery, random_ssb_matrix
from ssbchoice.ballots import (
    _EXPONENT_RE,
    MAX_EXPONENT,
    ParseError,
    ProposalMatrix,
    _parse_rational,
    format_fraction,
    format_percent,
    fraction_pair,
)
from ssbchoice.solver import SolverDefect, _slack_nums, maximal_lottery


# -- references: the Fraction bodies ------------------------------------------

def ref_format_fraction(value):
    return str(Fraction(value))


def ref_fraction_pair(value):
    value = Fraction(value)
    return [str(value.numerator), str(value.denominator)]


def ref_format_percent(value):
    scaled = Fraction(value) * 1000
    sign = "-" if scaled < 0 else ""
    units = abs(scaled)
    tenths = int(units + Fraction(1, 2))
    return f"{sign}{tenths // 10}.{tenths % 10}"


def ref_parse_rational(token, lineno, column):
    exponent = _EXPONENT_RE.search(token)
    if exponent:
        digits = (exponent.group(1) or "").replace("_", "")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            raise ParseError(
                f"decimal exponent exceeds {MAX_EXPONENT} in magnitude", lineno, column
            )
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"invalid rational {token!r}", lineno, column) from None


def ref_check_shares(departments, alternatives, shares):
    for department, row in zip(departments, shares):
        for name, x in zip(alternatives, row):
            if x < 0:
                raise ValueError(f"{department!r} has negative share {x} in column {name!r}")
    for j, name in enumerate(alternatives):
        total = sum(row[j] for row in shares)
        if total != 1:
            raise ValueError(f"column {name!r} sums to {total}, must be exactly 1")


def ref_budget_allocation(proposals, lottery):
    allocation = tuple(
        sum((share * prob for share, prob in zip(row, lottery.probs)), Fraction(0))
        for row in proposals.shares
    )
    if sum(allocation) != 1:
        raise SolverDefect(f"allocation sums to {sum(allocation)}, not 1")
    return allocation


def ref_slacks(sub, p):
    support = [(x, row) for x, row in zip(p, sub) if x]
    return tuple(sum((x * row[b] for x, row in support), Fraction(0))
                 for b in range(len(sub)))


def outcome(fn, *args):
    """The value fn returns, or the type and text of what it raises."""
    try:
        return "value", fn(*args)
    except Exception as exc:  # compared, not swallowed
        return "error", type(exc), str(exc)


def assert_same(kernel, reference, *args):
    got, want = outcome(kernel, *args), outcome(reference, *args)
    assert got == want, args
    if got[0] == "value":  # equal values of one type: no int where a Fraction was
        assert type(got[1]) is type(want[1])


# -- formatting ------------------------------------------------------------------

def _format_values():
    rng = random.Random(20)
    values = [Fraction(1, 2000), Fraction(-1, 2000), Fraction(-1, 3000),
              Fraction(3, 2000), Fraction(-3, 2000), Fraction(1, 400),
              Fraction(-1, 400), Fraction(1999, 2000), Fraction(-7, 3), Fraction(0)]
    values += [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**5))
               for _ in range(300)]
    values += [Fraction(rng.randint(-5, 5) * 2 + 1, 2000 * rng.randint(1, 9))
               for _ in range(100)]
    values += [0, 1, -1, 7, -12, 10**30]
    values += ["1/3", "-0.25", "2.5e-3", " 7 ", "-1/2000", "abc", ""]
    values += [True, False, 0.125, -0.0005, 1e-3, 2.5, float("nan"), float("inf")]
    values += [None, 1j, [1]]
    return values


@pytest.mark.parametrize("kernel, reference", [
    (format_percent, ref_format_percent),
    (format_fraction, ref_format_fraction),
    (fraction_pair, ref_fraction_pair),
], ids=["format_percent", "format_fraction", "fraction_pair"])
def test_formatters_match_fraction_bodies(kernel, reference):
    for value in _format_values():
        assert_same(kernel, reference, value)


def test_percent_halves_and_negative_zero():
    assert format_percent(Fraction(1, 2000)) == "0.1"
    assert format_percent(Fraction(-1, 2000)) == "-0.1"
    assert format_percent(Fraction(-1, 3000)) == "-0.0"


# -- rationals -------------------------------------------------------------------

def _rational_tokens():
    limit = sys.get_int_max_str_digits() or 4300
    long = ["1" * n for n in (limit, limit + 1, 5000)]
    tokens = ["007", "0/5", "00/0010", "1/0", "0/0", "+1", "-1/2", "1_000", "1/2_0",
              "٣/٤", "１２", "3/１２", "²", "1e3", "1E-3", "2.5", "1e1001", "1/e3",
              "1/", "/2", "1/2/3", "", "%", "abc", "0x10", " 5", "5 "]
    tokens += long
    tokens += ["1/" + digits for digits in long]
    tokens += [digits + "/7" for digits in long]
    tokens += [digits + "/" + digits for digits in long]
    rng = random.Random(21)
    tokens += [f"{rng.randint(0, 10**9)}/{rng.randint(0, 10**4)}" for _ in range(200)]
    return tokens


def test_parse_rational_matches_fraction_body():
    for token in _rational_tokens():
        assert_same(_parse_rational, ref_parse_rational, token, 4, 9)


def test_over_long_literal_is_a_parse_error():
    digits = "1" * ((sys.get_int_max_str_digits() or 4300) + 1)
    for token in (digits, "1/" + digits, digits + "/1"):
        with pytest.raises(ParseError, match="invalid rational"):
            _parse_rational(token, 1, 1)


# -- proposals and allocation ----------------------------------------------------

def _random_column(rng, rows):
    weights = [rng.randint(0, 9) for _ in range(rows)]
    if not any(weights):
        weights[0] = 1
    return [Fraction(w, sum(weights)) for w in weights]


def _random_proposals(rng, universe):
    rows = rng.randint(1, 5)
    columns = [_random_column(rng, rows) for _ in universe.names]
    shares = tuple(tuple(column[i] for column in columns) for i in range(rows))
    return ProposalMatrix(tuple(f"d{i}" for i in range(rows)), universe.names, shares)


def test_share_checks_match_fraction_body():
    rng = random.Random(22)
    for _ in range(300):
        rows, m = rng.randint(1, 4), rng.randint(1, 4)
        shares = tuple(tuple(Fraction(rng.randint(-1, 6), rng.randint(1, 6)) for _ in range(m))
                       for _ in range(rows))
        args = (tuple(f"d{i}" for i in range(rows)), tuple(f"c{j}" for j in range(m)), shares)
        want = outcome(ref_check_shares, *args)
        got = outcome(ProposalMatrix, *args)
        if want[0] == "value":
            assert got[0] == "value"
        else:
            assert got[0] == "error" and issubclass(got[1], ValueError)
            assert got[2] == want[2]


@pytest.mark.parametrize("share", [0.5, "1/2", None])
def test_inexact_shares_are_refused(share):
    with pytest.raises(TypeError, match="shares must be ints or Fractions"):
        ProposalMatrix(("x", "y"), ("A",), ((share,), (Fraction(1, 2),)))


def test_bool_shares_are_refused():
    # as Lottery, SSBMatrix and UtilityVector refuse them: a bool is no share
    with pytest.raises(TypeError, match="shares must be ints or Fractions"):
        ProposalMatrix(("d",), ("a", "b"), ((True, True),))
    with pytest.raises(TypeError, match="shares must be ints or Fractions"):
        ProposalMatrix(("x", "y"), ("A",), ((False,), (1,)))


def test_budget_allocation_matches_fraction_body():
    rng = random.Random(23)
    for _ in range(200):
        universe = Universe([f"c{j}" for j in range(rng.randint(1, 6))])
        proposals = _random_proposals(rng, universe)
        for lottery in (random_lottery(rng, universe), random_lottery(rng, universe, 1000)):
            assert_same(budget_allocation, ref_budget_allocation, proposals, lottery)


# -- solver slacks ---------------------------------------------------------------

def _util_matrix(rng, universe):
    lines = [f"{rng.randint(1, 5)}: util " + ", ".join(
        f"{name}={rng.randint(-6, 6)}/{rng.randint(1, 9)}" for name in universe.names)
        for _ in range(rng.randint(1, 4))]
    return utilitarian(parse_ballots(
        "universe: " + ", ".join(universe.names) + "\n" + "\n".join(lines) + "\n"))


def test_slacks_match_fraction_body():
    rng = random.Random(24)
    for trial in range(150):
        universe = Universe([f"c{j}" for j in range(rng.randint(1, 6))])
        phi = (random_ssb_matrix(rng, universe) if trial % 2
               else _util_matrix(rng, universe))
        lottery = random_lottery(rng, universe, rng.choice((1, 8, 1000)))
        d, nums = lottery.scaled
        want = ref_slacks(phi.entries, lottery.probs)
        scale, rows = phi.scaled
        assert [Fraction(x, d * scale) for x in _slack_nums(rows, nums)] == list(want)
        # an integer form need not be in lowest terms
        assert _slack_nums(rows, [3 * x for x in nums]) == [3 * x for x in _slack_nums(rows, nums)]
        assert all(type(s) is int for s in _slack_nums(rows, nums))



# -- no Fraction on the solve-and-report path ----------------------------------

def _committee_ballots(rng, m):
    """Twelve seeded weak-order and approval ballots over m alternatives."""
    names = [f"c{j}" for j in range(m)]
    lines = ["universe: " + ", ".join(names)]
    for _ in range(12):
        order = rng.sample(names, m)
        if rng.random() < 0.25:
            body = "approve {" + ", ".join(order[:rng.randint(1, m - 1)]) + "}"
        else:
            body = order[0] + "".join(rng.choice((" > ", " = ", " > ")) + x for x in order[1:])
        lines.append(f"{rng.randint(1, 20)}: {body}")
    return "\n".join(lines) + "\n"


def _support_three_input():
    """The first seeded m=6 committee ballot text whose maximal lottery has
    support 3, so `maximal_lottery` runs Bland's simplex."""
    for seed in range(200):
        text = _committee_ballots(random.Random(seed), 6)
        lottery = maximal_lottery(utilitarian(parse_ballots(text))).lottery
        if sum(map(bool, lottery.scaled[1])) == 3:
            return text
    raise AssertionError("no seed below 200 gives support 3")


@pytest.mark.parametrize("command", ["budget", "maximal-lottery"])
@pytest.mark.parametrize("fixture", ["table1", "support-3"])
def test_the_solve_and_report_build_no_fraction(tmp_path, monkeypatch, capsys, command, fixture):
    if fixture == "table1":
        ballots, proposals = "fixtures/table1.ballots", "fixtures/table1.proposals"
    else:
        ballots, proposals = tmp_path / "m6.ballots", tmp_path / "m6.proposals"
        ballots.write_text(_support_three_input(), encoding="utf-8")
        columns = ["25%", "1/3", "1/2", "10%", "0", "1"]
        proposals.write_text(
            "alternatives: " + ", ".join(f"c{j}" for j in range(6)) + "\n"
            + "x: " + " ".join(columns) + "\n"
            + "y: " + " ".join(["3/4", "2/3", "50%", "9/10", "1", "0"]) + "\n",
            encoding="utf-8")
    argv = [command, str(ballots)] + ([str(proposals)] if command == "budget" else [])
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    assert cli.main(argv) == 0
    monkeypatch.undo()
    out = capsys.readouterr().out
    assert out.startswith("Maximal lottery:\n") and ("Budget allocation:" in out) is (
        command == "budget")
    assert built == []
