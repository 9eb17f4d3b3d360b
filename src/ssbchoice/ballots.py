"""Ballot and proposal file parsing, plus exact text rendering.

Ballot files declare a universe and then one line per ballot group:

    universe: A, B, C, D
    25: A > B > C > D          # weak order, ">" between tiers, "=" within
    1: a = b = c               # complete indifference
    2: approve {a, b}          # dichotomous ballot
    1: util a=1, b=1/3, c=0    # vNM utilities (rationals, never floats)
    1: edges a>b, c>a          # arbitrary strict pairs, cycles allowed

Counts are positive integers.  A line is stored once, as one run of
that many identical agents, so a count costs the same at any size.
Alternatives a weak order leaves out drop to a shared bottom tier; `util`
values omitted default to 0.  A keyword counts only as a whole token, so
`utility > b` is a weak order.  `#` starts a comment anywhere.

Proposal files map each alternative to a column of exact shares:

    alternatives: A, B, C, D
    Education: 40% 30% 20% 10%

Shares must be non-negative and each column must sum to exactly 1
(shares may be given as `40%`, `2/5`, or `0.4`; all parse exactly), and
department names must be non-empty and distinct.  A negative share is
reported at the share, a column's wrong sum at its name in the
declaration.

The budget path computes in ints: shares are checked on each row over its
least common denominator, the allocation is one exact quotient per
department from the lottery's integer form, and percents round in ints.

Every rational literal, in ballots, proposals and matrix files, may carry
a decimal exponent (`1e3`) of at most `MAX_EXPONENT` in magnitude: an
exponent sets the size of the exact integer it builds.  A declaration
names at most `MAX_ALTERNATIVES` alternatives, since every collective
matrix holds one entry per ordered pair of them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from .model import (
    BaseRelation,
    Lottery,
    Profile,
    Universe,
    UtilityVector,
    _over_common_denominator,
    ranked_order,
)
from .solver import SolverDefect
from .ssb import SSBMatrix

_NAME_RE = re.compile(r"^[^\s>={},:#]+$")
_DECLARATION_KEYWORDS = ("universe", "alternatives")
# a ballot keyword only as a whole token: `utility > b` is a weak order
_BALLOT_KEYWORD_RE = re.compile(r"approve(?=[\s{]|$)|(?:util|edges)(?=\s|$)")
MAX_EXPONENT = 1000
MAX_ALTERNATIVES = 256
_EXPONENT_RE = re.compile(r"[eE][-+]?[0_]*(\d[\d_]*)?")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        self.message = message
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


def _significant_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # tabs become single spaces so column numbers stay aligned
        body = raw.split("#", 1)[0].replace("\t", " ")
        if body.strip():
            yield lineno, body


def _parts(text: str, sep: str, base: int):
    """Split on a single-character separator, yielding (piece, 1-based column)."""
    offset = 0
    for piece in text.split(sep):
        yield piece.strip(), base + offset + (len(piece) - len(piece.lstrip())) + 1
        offset += len(piece) + 1


def _parse_declaration(line: str, lineno: int) -> tuple[Universe, list[int]]:
    """The universe a declaration line names, and each name's column."""
    keyword, sep, rest = line.partition(":")
    if not sep or keyword.strip().lower() not in _DECLARATION_KEYWORDS:
        raise ParseError(
            "expected a declaration line like 'universe: a, b, c'", lineno
        )
    base = len(line) - len(rest)
    names: list[str] = []
    columns: list[int] = []
    seen: set[str] = set()
    for token, column in _parts(rest.replace(",", " "), " ", base):
        if not token:
            continue
        if not _NAME_RE.match(token):
            raise ParseError(f"invalid alternative name {token!r}", lineno, column)
        if token in seen:
            raise ParseError(f"duplicate alternative {token!r}", lineno, column)
        if len(names) == MAX_ALTERNATIVES:
            raise ParseError(
                f"declaration names more than {MAX_ALTERNATIVES} alternatives",
                lineno,
                column,
            )
        seen.add(token)
        names.append(token)
        columns.append(column)
    if not names:
        raise ParseError("declaration names no alternatives", lineno)
    return Universe(tuple(names)), columns


def _declared(text: str, what: str):
    """The universe a text's first significant line declares, the (line, column)
    of each name there, and the significant lines after it."""
    lines = _significant_lines(text)
    for lineno, line in lines:
        universe, columns = _parse_declaration(line, lineno)
        return universe, [(lineno, column) for column in columns], lines
    raise ParseError(f"no {what} declaration found", 1)


def _name_index(universe: Universe, token: str, lineno: int, column: int) -> int:
    """The position of the alternative `token` names; a ParseError if none."""
    if not token:
        raise ParseError("missing alternative name", lineno, column)
    if token not in universe:
        raise ParseError(f"unknown alternative {token!r}", lineno, column)
    return universe.index(token)


def _parse_rational(token: str, lineno: int, column: int) -> Fraction:
    numerator, slash, denominator = token.partition("/")
    # ASCII `digits` or `digits/digits`, the common case, skips the exponent
    # search and Fraction's string parse; int() raises ValueError on a
    # literal over the int-string digit limit, as Fraction(token) does
    plain = (numerator.isascii() and numerator.isdigit()
             and (not slash or denominator.isascii() and denominator.isdigit()))
    if not plain:
        exponent = _EXPONENT_RE.search(token)
        if exponent:
            digits = (exponent.group(1) or "").replace("_", "")
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
                raise ParseError(
                    f"decimal exponent exceeds {MAX_EXPONENT} in magnitude", lineno, column
                )
    try:
        if plain:
            return Fraction(int(numerator), int(denominator) if slash else 1)
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"invalid rational {token!r}", lineno, column) from None


def _parse_ballot_body(universe: Universe, body: str, base: int, lineno: int):
    stripped = body.strip()
    pad = base + (len(body) - len(body.lstrip()))
    match = _BALLOT_KEYWORD_RE.match(stripped)
    keyword = match.group() if match else None
    if keyword == "approve":
        # `stripped` ends in non-space, so the braces close it exactly when its
        # last character is "}"
        rest = stripped[7:].lstrip()
        if not (rest.startswith("{") and rest.endswith("}")):
            raise ParseError("expected 'approve { names }'", lineno, pad + 1)
        inner_base = pad + len(stripped) - len(rest) + 1
        approved = [
            _name_index(universe, token, lineno, column)
            for token, column in _parts(rest[1:-1].replace(",", " "), " ", inner_base)
            if token
        ]
        chosen = set(approved)
        if len(chosen) != len(approved):
            raise ParseError("duplicate alternative in approval set", lineno, pad + 1)
        # approved names rank 0, the rest 1: approving none or all ties everything
        return ranked_order(universe, [int(i not in chosen) for i in range(len(universe))])
    if keyword == "util":
        # one value per position, written as each name is checked; unnamed ones are 0
        values: list[Fraction | None] = [None] * len(universe)
        inner = body[body.index("util") + 4 :]
        inner_base = base + body.index("util") + 4
        for item, item_col in _parts(inner, ",", inner_base):
            if not item:
                raise ParseError("empty utility assignment", lineno, item_col)
            pieces = list(_parts(item, "=", item_col - 1))
            if len(pieces) != 2:
                raise ParseError(
                    f"expected 'name=value', got {item!r}", lineno, item_col
                )
            (name, name_col), (value, value_col) = pieces
            i = _name_index(universe, name, lineno, name_col)
            if values[i] is not None:
                raise ParseError(f"duplicate utility for {name!r}", lineno, name_col)
            values[i] = _parse_rational(value, lineno, value_col)
        return UtilityVector(
            universe, tuple(Fraction(0) if v is None else v for v in values)
        )
    if keyword == "edges":
        inner = body[body.index("edges") + 5 :]
        inner_base = base + body.index("edges") + 5
        strict: set[tuple[int, int]] = set()
        for item, item_col in _parts(inner, ",", inner_base):
            if not item:
                continue
            pieces = list(_parts(item, ">", item_col - 1))
            if len(pieces) != 2:
                raise ParseError(f"expected 'a>b', got {item!r}", lineno, item_col)
            (a, a_col), (b, b_col) = pieces
            pair = (_name_index(universe, a, lineno, a_col),
                    _name_index(universe, b, lineno, b_col))
            if pair[0] == pair[1]:
                raise ParseError(f"self-edge on {a!r}", lineno, a_col)
            if (pair[1], pair[0]) in strict:
                raise ParseError(
                    f"both orientations of {a!r}/{b!r} present", lineno, a_col
                )
            strict.add(pair)
        return BaseRelation(universe, frozenset(strict))
    # weak order: tiers separated by ">", ties by "="; each name gets its
    # tier's rank, and names in no tier keep rank m, the bottom tier
    m = len(universe)
    rank = [m] * m
    for level, (tier_text, tier_col) in enumerate(_parts(body, ">", base)):
        for token, column in _parts(tier_text, "=", tier_col - 1):
            i = _name_index(universe, token, lineno, column)
            if rank[i] < m:
                raise ParseError(f"alternative {token!r} listed twice", lineno, column)
            rank[i] = level
    return ranked_order(universe, rank)


def parse_ballots(text: str) -> Profile:
    """Parse ballot text into a profile: one run per ballot line, in file order."""
    universe, _, lines = _declared(text, "universe")
    runs: list = []
    for lineno, line in lines:
        count_text, sep, body = line.partition(":")
        if not sep:
            raise ParseError("expected 'count: ballot'", lineno)
        try:
            count = int(count_text.strip())
        except ValueError:
            raise ParseError(
                f"invalid ballot count {count_text.strip()!r}", lineno
            ) from None
        if count <= 0:
            raise ParseError(f"ballot count must be positive, got {count}", lineno)
        agent = _parse_ballot_body(universe, body, len(count_text) + 1, lineno)
        runs.append((agent, count))
    if not runs:
        raise ParseError("no ballots found", 1)
    return Profile.from_runs(universe, runs)


def _lowest_terms(value) -> tuple[int, int]:
    """(numerator, denominator) of an int or Fraction as it stands, of any
    other value (str, bool, float...) through Fraction(value)."""
    if type(value) is not int and type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator, value.denominator


def format_fraction(value: Fraction) -> str:
    """Lowest terms, positive denominator; integers render without '/1'."""
    n, d = _lowest_terms(value)
    return f"{n}/{d}" if d != 1 else str(n)


def fraction_pair(value: Fraction) -> list[str]:
    n, d = _lowest_terms(value)
    return [str(n), str(d)]


def format_percent(value: Fraction) -> str:
    """One decimal place, round half up, computed in ints."""
    n, d = _lowest_terms(value)
    # tenths of a percent: floor(1000 |n| / d + 1/2), so halves round up
    tenths = (2000 * abs(n) + d) // (2 * d)
    return f"{'-' if n < 0 else ''}{tenths // 10}.{tenths % 10}"


class ShareError(ValueError):
    """A share check of `ProposalMatrix` that failed, with the position of the
    share it names (`row` None for a column's sum)."""

    def __init__(self, message: str, row: int | None, column: int):
        super().__init__(message)
        self.row = row
        self.column = column


@dataclass(frozen=True)
class ProposalMatrix:
    """Column-stochastic shares: one column per alternative, one row per item;
    every share is non-negative and every column sums to exactly 1.

    `scaled` holds each row over its least common denominator, `(D, nums)`
    with row == nums / D; the checks run on it in ints.
    """

    departments: tuple[str, ...]
    alternatives: tuple[str, ...]
    shares: tuple[tuple[Fraction, ...], ...]
    scaled: tuple[tuple[int, tuple[int, ...]], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.shares) != len(self.departments):
            raise ValueError("one share row per department required")
        scaled = []
        for i, (department, row) in enumerate(zip(self.departments, self.shares)):
            if len(row) != len(self.alternatives):
                raise ValueError("every row needs one share per alternative")
            if not all(isinstance(x, (int, Fraction)) for x in row):
                raise TypeError(f"shares must be ints or Fractions, got {row!r}")
            d, nums = _over_common_denominator(row)
            for j, x in enumerate(nums):
                if x < 0:
                    raise ShareError(f"{department!r} has negative share "
                                     f"{Fraction(x, d)} in column {self.alternatives[j]!r}",
                                     i, j)
            scaled.append((d, tuple(nums)))
        # column j sums to sum_i nums_ij / D_i: compare over the rows' common D
        common = math.lcm(*[d for d, _ in scaled])
        factors = [common // d for d, _ in scaled]
        for j, name in enumerate(self.alternatives):
            total = sum([f * nums[j] for f, (_, nums) in zip(factors, scaled)])
            if total != common:
                raise ShareError(f"column {name!r} sums to {Fraction(total, common)}, "
                                 "must be exactly 1", None, j)
        object.__setattr__(self, "scaled", tuple(scaled))


def _parse_share(token: str, lineno: int, column: int) -> Fraction:
    if token.endswith("%"):
        return _parse_rational(token[:-1], lineno, column) / 100
    return _parse_rational(token, lineno, column)


def parse_proposals(text: str) -> ProposalMatrix:
    """Parse proposal text; a share check that fails is reported at the share,
    or, for a column's sum, at its alternative's name in the declaration."""
    universe, name_at, lines = _declared(text, "alternatives")
    departments: list[str] = []
    seen: set[str] = set()
    rows: list[tuple[Fraction, ...]] = []
    share_at: list[list[tuple[int, int]]] = []
    for lineno, line in lines:
        name, sep, rest = line.partition(":")
        if not sep:
            raise ParseError("expected 'department: shares'", lineno)
        base = len(line) - len(rest)
        tokens = [(token, column) for token, column in _parts(rest, " ", base) if token]
        values = [_parse_share(token, lineno, column) for token, column in tokens]
        if len(values) != len(universe):
            raise ParseError(
                f"{len(values)} shares for {len(universe)} alternatives", lineno
            )
        department, column = name.strip(), len(name) - len(name.lstrip()) + 1
        if not department:
            raise ParseError("empty department name", lineno, column)
        if department in seen:
            raise ParseError(f"duplicate department {department!r}", lineno, column)
        seen.add(department)
        departments.append(department)
        rows.append(tuple(values))
        share_at.append([(lineno, column) for _, column in tokens])
    try:
        return ProposalMatrix(tuple(departments), universe.names, tuple(rows))
    except ShareError as exc:
        where = name_at if exc.row is None else share_at[exc.row]
        raise ParseError(str(exc), *where[exc.column]) from None


def budget_allocation(proposals: ProposalMatrix, lottery: Lottery) -> tuple[Fraction, ...]:
    """The share vector P @ p; exact, and sums to exactly 1."""
    if proposals.alternatives != lottery.universe.names:
        raise ValueError(
            f"proposal alternatives {proposals.alternatives} do not match "
            f"ballot universe {lottery.universe.names}"
        )
    # row i over D_i times p over d: share i is (a_i . nums) / (D_i d)
    d, nums = lottery.scaled
    dots = [(row_d, sum([a * x for a, x in zip(row, nums)]))
            for row_d, row in proposals.scaled]
    allocation = tuple([Fraction(dot, row_d * d) for row_d, dot in dots])
    common = math.lcm(*[row_d for row_d, _ in dots])
    if sum([dot * (common // row_d) for row_d, dot in dots]) != common * d:
        raise SolverDefect(f"allocation sums to {sum(allocation)}, not 1")
    return allocation


def render_matrix(matrix: SSBMatrix) -> str:
    """Matrix text block: declaration line, then one row of rationals per line."""
    cells = [[format_fraction(x) for x in row] for row in matrix.entries]
    widths = [
        max(len(cells[i][j]) for i in range(len(cells)))
        for j in range(len(cells))
    ]
    lines = ["alternatives: " + ", ".join(matrix.universe.names)]
    for row in cells:
        lines.append(" ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def parse_matrices(text: str) -> list[SSBMatrix]:
    """Parse one or more matrix blocks sharing a single declaration line."""
    universe, _, lines = _declared(text, "alternatives")
    rows: list[tuple[Fraction, ...]] = []
    matrices: list[SSBMatrix] = []
    for lineno, line in lines:
        values = [
            _parse_rational(token, lineno, column)
            for token, column in _parts(line, " ", 0)
            if token
        ]
        if len(values) != len(universe):
            raise ParseError(
                f"{len(values)} entries for {len(universe)} alternatives", lineno
            )
        rows.append(tuple(values))
        if len(rows) == len(universe):
            try:
                matrices.append(SSBMatrix(universe, tuple(rows)))
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
            rows = []
    if rows:
        raise ParseError("incomplete matrix block at end of input", 1)
    return matrices
