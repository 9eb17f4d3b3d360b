from fractions import Fraction

import pytest

from ssbchoice import (
    BaseRelation,
    Lottery,
    ParseError,
    Universe,
    UtilityVector,
    budget_allocation,
    format_fraction,
    format_percent,
    fraction_pair,
    mix,
    parse_ballots,
    parse_matrices,
    parse_proposals,
    render_matrix,
)
from ssbchoice.ballots import MAX_ALTERNATIVES, MAX_EXPONENT


class TestParseBallots:
    def test_delegate_profile(self, table1_profile, table1_margins):
        assert table1_profile.n == 100
        assert table1_margins["A", "B"] == 40

    def test_indifference_line(self):
        profile = parse_ballots("universe: a, b, c\n1: a = b = c\n")
        assert profile.n == 1
        assert profile.agents[0].strict == frozenset()

    def test_approval_line(self):
        profile = parse_ballots("universe: a, b, c\n2: approve {a, b}\n")
        assert profile.n == 2
        agent = profile.agents[0]
        assert agent.tiers() == (("a", "b"), ("c",))

    def test_approve_everything_or_nothing(self):
        profile = parse_ballots(
            "universe: a, b\n1: approve {}\n1: approve {a, b}\n"
        )
        assert all(a.strict == frozenset() for a in profile.agents)

    def test_util_line_exact(self):
        profile = parse_ballots(
            "universe: a, b, c\n1: util a=1, b=1/3, c=0\n"
        )
        agent = profile.agents[0]
        assert isinstance(agent, UtilityVector)
        assert agent.values == (1, Fraction(1, 3), 0)

    def test_util_defaults_to_zero(self):
        profile = parse_ballots("universe: a, b, c\n1: util b=0.4\n")
        assert profile.agents[0].values == (0, Fraction(2, 5), 0)

    @pytest.mark.parametrize("body, column", [
        ("util a=0, a=1", 14),
        ("util a=0/3, b=1, a=0", 21),
    ])
    def test_util_name_given_zero_then_again_is_a_duplicate(self, body, column):
        # an unnamed position holds the parser's shared zero; a parsed zero
        # is another object, so naming a position twice is caught either way
        with pytest.raises(ParseError) as err:
            parse_ballots("universe: a, b, c\n1: " + body + "\n")
        assert (err.value.message, err.value.line, err.value.column) \
            == ("duplicate utility for 'a'", 2, column)

    def test_edges_allow_cycles(self):
        profile = parse_ballots(
            "universe: a, b, c\n1: edges a>b, b>c, c>a\n"
        )
        agent = profile.agents[0]
        assert isinstance(agent, BaseRelation)
        assert agent.strict == {(0, 1), (1, 2), (2, 0)} and agent.tiers() is None

    def test_partial_weak_order_bottoms_out(self):
        profile = parse_ballots("universe: a, b, c, d\n1: b > a\n")
        assert profile.agents[0].tiers() == (("b",), ("a",), ("c", "d"))

    def test_comments_and_blanks(self):
        text = "# heading\n\nuniverse: a, b  # trailing\n1: a > b\n"
        assert parse_ballots(text).n == 1

    @pytest.mark.parametrize("text, tiers", [
        ("universe: utility, b, c\n3: utility > b > c\n",
         (("utility",), ("b",), ("c",))),
        ("universe: approver, b, edgeworth\n2: approver > b = edgeworth\n",
         (("approver",), ("b", "edgeworth"))),
        ("universe: edges2, util_a\n1: edges2 = util_a\n", (("edges2", "util_a"),)),
        ("universe: approved, b\n1: approved\n", (("approved",), ("b",))),
    ])
    def test_keyword_prefixed_names_are_weak_orders(self, text, tiers):
        agent = parse_ballots(text).agents[0]
        assert isinstance(agent, BaseRelation)
        assert agent.tiers() == tiers

    def test_keywords_are_whole_tokens(self):
        profile = parse_ballots(
            "universe: a, b\n1: approve{a}\n1: util\ta=1\n1: edges b>a\n1: edges\n"
        )
        approve, util, edges, empty = profile.agents
        assert approve.tiers() == (("a",), ("b",))
        assert util.values == (1, 0)
        assert edges.strict == {(1, 0)}
        assert empty.strict == frozenset()

    def test_a_name_equal_to_a_keyword_reads_as_the_keyword(self):
        # documented ambiguity: `util > b` starts a utility ballot
        with pytest.raises(ParseError, match="name=value"):
            parse_ballots("universe: util, b\n1: util > b\n")


class TestParseErrors:
    def test_unknown_alternative_with_location(self):
        with pytest.raises(ParseError) as err:
            parse_ballots("universe: a, b\n1: a > z\n")
        assert err.value.line == 2
        assert err.value.column == 8
        assert "z" in str(err.value)

    def test_zero_count(self):
        with pytest.raises(ParseError, match="positive"):
            parse_ballots("universe: a, b\n0: a > b\n")

    def test_malformed_count(self):
        with pytest.raises(ParseError, match="count"):
            parse_ballots("universe: a, b\nmany: a > b\n")

    def test_duplicate_in_weak_order(self):
        with pytest.raises(ParseError, match="twice"):
            parse_ballots("universe: a, b\n1: a > a\n")

    def test_conflicting_edges(self):
        with pytest.raises(ParseError, match="orientation"):
            parse_ballots("universe: a, b\n1: edges a>b, b>a\n")

    def test_missing_universe(self):
        with pytest.raises(ParseError, match="universe"):
            parse_ballots("1: a > b\n")

    def test_no_ballots(self):
        with pytest.raises(ParseError, match="ballot"):
            parse_ballots("universe: a, b\n")

    def test_duplicate_universe_name(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_ballots("universe: a, a\n1: a > a\n")

    def test_rational_exponent_is_bounded(self):
        big = "1e" + str(MAX_EXPONENT + 1)
        with pytest.raises(ParseError, match="exponent") as err:
            parse_ballots(f"universe: a, b\n1: util a={big}\n")
        assert (err.value.line, err.value.column) == (2, 11)
        with pytest.raises(ParseError, match="exponent"):
            parse_proposals(f"alternatives: X\nrow: {big}%\n")
        with pytest.raises(ParseError, match="exponent"):
            parse_matrices(f"alternatives: X\n-{big}\n")
        huge = ("1e1000000", "1e-1000000", "1E+0_100_000", "1e99999999999999999999")
        for literal in huge:
            with pytest.raises(ParseError, match="exponent"):
                parse_ballots(f"universe: a, b\n1: util a={literal}\n")
        edge = parse_ballots(
            f"universe: a, b\n1: util a=1e-{MAX_EXPONENT}, b=2e000{MAX_EXPONENT}\n"
        )
        top = 10**MAX_EXPONENT
        assert edge.agents[0].values == (Fraction(1, top), 2 * top)

    @pytest.mark.parametrize("body, message, column", [
        ("approve{", "expected 'approve { names }'", 4),
        ("approve {a", "expected 'approve { names }'", 4),
        ("approve }", "expected 'approve { names }'", 4),
        ("approve {a}}", "unknown alternative 'a}'", 13),
        ("approve { a, a }", "duplicate alternative in approval set", 4),
        ("approve {x}", "unknown alternative 'x'", 13),
    ])
    def test_approve_errors(self, body, message, column):
        with pytest.raises(ParseError) as err:
            parse_ballots("universe: a, b, c\n2: " + body + "\n")
        assert (err.value.message, err.value.line, err.value.column) == (message, 2, column)

    @pytest.mark.parametrize("body, approved", [
        ("approve{}", ()),
        ("approve {a}", ("a",)),
        ("approve\x1f{ b }", ("b",)),
        ("approve\u3000{b,c }", ("b", "c")),
    ])
    def test_approve_braces_after_any_whitespace(self, body, approved):
        agent = parse_ballots("universe: a, b, c\n2: " + body + "\n").runs[0][0]
        expected = {(a, b) for a in range(3) for b in range(3)
                    if "abc"[a] in approved and "abc"[b] not in approved}
        assert agent.strict == expected

    def test_alternatives_are_capped(self):
        names = [f"x{i}" for i in range(MAX_ALTERNATIVES + 1)]
        at_cap = parse_ballots(
            "universe: " + ", ".join(names[:-1]) + "\n1: x0 > x1\n"
        )
        assert len(at_cap.universe) == MAX_ALTERNATIVES
        over = ", ".join(names)
        with pytest.raises(ParseError, match=f"more than {MAX_ALTERNATIVES}") as err:
            parse_ballots(f"universe: {over}\n1: x0 > x1\n")
        assert (err.value.line, err.value.column) == (1, over.index(names[-1]) + 11)
        with pytest.raises(ParseError, match="alternatives"):
            parse_proposals(f"alternatives: {over}\nrow: 1\n")
        with pytest.raises(ParseError, match="alternatives"):
            parse_matrices(f"alternatives: {over}\n0\n")
        # a duplicate within the cap is still reported as a duplicate
        with pytest.raises(ParseError, match="duplicate alternative 'x3'"):
            parse_ballots("universe: " + ", ".join(names[:5] + ["x3"]) + "\n1: x0\n")


class TestFormatting:
    def test_fraction_lowest_terms(self):
        assert format_fraction(Fraction(40, 80)) == "1/2"
        assert format_fraction(Fraction(-6, 4)) == "-3/2"
        assert format_fraction(Fraction(80, 1)) == "80"
        assert fraction_pair(Fraction(2, 4)) == ["1", "2"]

    def test_percent_one_decimal(self):
        assert format_percent(Fraction(1, 4)) == "25.0"
        assert format_percent(Fraction(4, 15)) == "26.7"
        assert format_percent(Fraction(3, 10)) == "30.0"
        assert format_percent(Fraction(11, 60)) == "18.3"

    def test_percent_rounds_half_up(self):
        assert format_percent(Fraction(1, 400)) == "0.3"   # 0.25 rounds up
        assert format_percent(Fraction(3, 2000)) == "0.2"  # 0.15 rounds up
        assert format_percent(Fraction(0)) == "0.0"
        assert format_percent(Fraction(1)) == "100.0"


class TestProposals:
    def test_parse_delegate_proposals(self, table1_proposals):
        assert table1_proposals.departments == (
            "Education", "Transportation", "Health", "Military",
        )
        assert tuple(row[0] for row in table1_proposals.shares) == (
            Fraction(2, 5), Fraction(3, 10), Fraction(1, 5), Fraction(1, 10),
        )

    def test_column_sum_enforced(self):
        bad = "alternatives: A, B\nx: 50% 50%\ny: 40% 50%\n"
        with pytest.raises(ParseError, match="sums to"):
            parse_proposals(bad)

    def test_negative_share_rejected(self):
        bad = "alternatives: A, B\nx: 120% 50%\ny: -20% 50%\n"
        with pytest.raises(ParseError, match="'y' has negative share -1/5 in column 'A'"):
            parse_proposals(bad)

    @pytest.mark.parametrize("text, message, where", [
        ("alternatives: A, B\nx: 120% 50%\ny:  20%  -50%\nz: 0 0\n",
         "'y' has negative share -1/2 in column 'B'", (3, 10)),
        ("# shares\nalternatives: A,  B\nx: 1 1/2\ny: 0 1/3\n",
         "column 'B' sums to 5/6, must be exactly 1", (2, 19)),
        ("alternatives: A, B\n", "column 'A' sums to 0, must be exactly 1", (1, 15)),
    ])
    def test_share_errors_point_at_the_share(self, text, message, where):
        with pytest.raises(ParseError) as err:
            parse_proposals(text)
        assert (err.value.message, err.value.line, err.value.column) == (message, *where)

    @pytest.mark.parametrize("text, message, column", [
        ("alternatives: A, B\nroads: 50% 50%\n  roads: 50% 50%\n",
         "duplicate department 'roads'", 3),
        ("alternatives: A, B\nroads: 50% 50%\n : 50% 50%\n", "empty department name", 2),
    ])
    def test_department_names_are_distinct_and_nonempty(self, text, message, column):
        with pytest.raises(ParseError, match=message) as err:
            parse_proposals(text)
        assert (err.value.line, err.value.column) == (3, column)

    def test_share_formats(self):
        text = "alternatives: A, B\nrow1: 2/5 0.5\nrow2: 60% 1/2\n"
        proposals = parse_proposals(text)
        assert proposals.shares[0] == (Fraction(2, 5), Fraction(1, 2))
        assert proposals.shares[1] == (Fraction(3, 5), Fraction(1, 2))


class TestBudgetAllocation:
    def test_delegate_solution(self, table1_proposals, table1_margins):
        lottery = Lottery(
            table1_margins.universe,
            (Fraction(1, 6), Fraction(1, 6), Fraction(2, 3), 0),
        )
        allocation = budget_allocation(table1_proposals, lottery)
        assert allocation == (
            Fraction(1, 4), Fraction(4, 15), Fraction(3, 10), Fraction(11, 60),
        )
        assert [format_percent(x) for x in allocation] == [
            "25.0", "26.7", "30.0", "18.3",
        ]

    def test_pure_proposal_returns_column(self, table1_proposals, table1_margins):
        u = table1_margins.universe
        assert budget_allocation(table1_proposals, u.pure("A")) \
            == tuple(row[0] for row in table1_proposals.shares)

    def test_half_half_mixture(self, table1_proposals, table1_margins):
        u = table1_margins.universe
        blend = mix(u.pure("A"), u.pure("B"), Fraction(1, 2))
        assert budget_allocation(table1_proposals, blend) == (
            Fraction(35, 100), Fraction(20, 100),
            Fraction(30, 100), Fraction(15, 100),
        )

    def test_shape_mismatch(self, table1_proposals):
        abc = Universe(("A", "B", "C"))
        with pytest.raises(ValueError):
            budget_allocation(table1_proposals, abc.pure("A"))

    def test_sums_to_one(self, table1_proposals, table1_margins):
        import random

        from ssbchoice.axioms import random_lottery

        rng = random.Random(3)
        for _ in range(100):
            lottery = random_lottery(rng, table1_margins.universe)
            assert sum(budget_allocation(table1_proposals, lottery)) == 1


class TestMatrixText:
    def test_render_parse_round_trip(self, table1_margins, condorcet_matrix):
        for matrix in (table1_margins, condorcet_matrix):
            [back] = parse_matrices(render_matrix(matrix))
            assert back == matrix

    def test_multiple_blocks(self, condorcet_matrix, chain3_matrix):
        text = render_matrix(condorcet_matrix) + "\n" + "\n".join(
            render_matrix(chain3_matrix).splitlines()[1:]
        )
        parsed = parse_matrices(text)
        assert parsed == [condorcet_matrix, chain3_matrix]

    def test_rejects_non_skew(self):
        with pytest.raises(ParseError):
            parse_matrices("alternatives: a, b\n0 1\n1 0\n")

    def test_rejects_truncated(self):
        with pytest.raises(ParseError, match="incomplete"):
            parse_matrices("alternatives: a, b\n0 1\n")
