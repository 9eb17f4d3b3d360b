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
`utility > b` is a weak order.  `#` starts a comment anywhere.  Each
distinct ballot body is parsed once, at its first line, and the lines
that repeat it share that agent; a body that fails raises at its first
line.

Proposal files map each alternative to a column of exact shares:

    alternatives: A, B, C, D
    Education: 40% 30% 20% 10%

Shares must be non-negative and each column must sum to exactly 1
(shares may be given as `40%`, `2/5`, or `0.4`; all parse exactly), and
department names must be non-empty and distinct.  A negative share is
reported at the share, a column's wrong sum at its name in the
declaration.

The budget path computes in ints: shares are checked on each row over its
least common denominator, the allocation is one (numerator, denominator)
pair per department from the lottery's integer form
(`allocation_ratios`), and a pair is printed in lowest terms with one
gcd (`format_ratio`, `ratio_pair`) and as a percent rounded in ints
(`ratio_percent`); the `Fraction` formatters and `budget_allocation`
wrap these.

Every rational literal, in ballots, proposals and matrix files, may carry
a decimal exponent (`1e3`) of at most `MAX_EXPONENT` in magnitude: an
exponent sets the size of the exact integer it builds.  A declaration
names at most `MAX_ALTERNATIVES` alternatives, since every collective
matrix holds one entry per ordered pair of them.  The CLI refuses an input
file of more than `MAX_INPUT_BYTES` bytes: before reading it when its size
is known, and one byte past the bound when it is a pipe or device.

The formatters refuse to print a number of more digits than Python
converts to text (`sys.get_int_max_str_digits()`), with one error that
names that limit.

The readers split lines with `str.split` and keep no positions: the column
of a `ParseError` is computed from its line only when it is raised
(`_column`), so every error still names its line and column.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from fractions import Fraction
from .model import (
    BaseRelation,
    Lottery,
    Profile,
    Universe,
    UtilityVector,
    _FrozenValue,
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
MAX_INPUT_BYTES = 4_000_000
_EXPONENT_RE = re.compile(r"[eE][-+]?[0_]*(\d[\d_]*)?")
_ZERO = Fraction(0)  # every unnamed utility: one object, not one per position


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


def _column(text: str, base: int, *path: tuple[str, int]) -> int:
    """The 1-based column of a piece of `text`, which starts after column
    `base`: each (sep, k) step of `path` takes the k-th piece of the text
    split on sep, stripped, as the text of the next step.  The column is
    where the last piece starts past its leading whitespace.  Readers split
    without columns and call this only to raise a ParseError."""
    for sep, k in path:
        pieces = text.split(sep)
        piece = pieces[k]
        base += sum(map(len, pieces[:k])) + k + len(piece) - len(piece.lstrip())
        text = piece.strip()
    return base + 1


def _token_column(text: str, base: int, j: int) -> int:
    """The column of the j-th non-empty piece of `text` split on spaces."""
    k = [k for k, piece in enumerate(text.split(" ")) if piece.strip()][j]
    return _column(text, base, (" ", k))


def _declaration_names(line: str) -> tuple[str, int]:
    """A declaration line's names with commas as spaces, and the column
    after which that text starts."""
    rest = line.partition(":")[2]
    return rest.replace(",", " "), len(line) - len(rest)


def _parse_declaration(line: str, lineno: int) -> Universe:
    """The universe a declaration line names."""
    keyword, sep, _ = line.partition(":")
    if not sep or keyword.strip().lower() not in _DECLARATION_KEYWORDS:
        raise ParseError(
            "expected a declaration line like 'universe: a, b, c'", lineno
        )
    text, base = _declaration_names(line)
    names: list[str] = []
    seen: set[str] = set()
    for piece in text.split(" "):
        token = piece.strip()
        if not token:
            continue
        if not _NAME_RE.match(token):
            message = f"invalid alternative name {token!r}"
        elif token in seen:
            message = f"duplicate alternative {token!r}"
        elif len(names) == MAX_ALTERNATIVES:
            message = f"declaration names more than {MAX_ALTERNATIVES} alternatives"
        else:
            seen.add(token)
            names.append(token)
            continue
        raise ParseError(message, lineno, _token_column(text, base, len(names)))
    if not names:
        raise ParseError("declaration names no alternatives", lineno)
    return Universe(tuple(names))


def _declared(text: str, what: str):
    """The universe a text's first significant line declares, that line's
    (number, text), and the significant lines after it."""
    lines = _significant_lines(text)
    for lineno, line in lines:
        return _parse_declaration(line, lineno), (lineno, line), lines
    raise ParseError(f"no {what} declaration found", 1)


def _unknown(token: str, lineno: int, column: int) -> ParseError:
    """The error for a token that names no alternative."""
    if not token:
        return ParseError("missing alternative name", lineno, column)
    return ParseError(f"unknown alternative {token!r}", lineno, column)


def _ratio(token: str, lineno: int, column: int, suffix: str = "") -> tuple[int, int]:
    """A rational literal as (numerator, denominator), the denominator
    positive; a plain `digits/digits` is not reduced.  An invalid literal
    is named as written, `token` followed by the `suffix` that the caller
    took off it."""
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
        if not plain:
            value = Fraction(token)
            return value.numerator, value.denominator
        d = int(denominator) if slash else 1
        if d:
            return int(numerator), d
    except (ValueError, ZeroDivisionError):
        pass
    raise ParseError(f"invalid rational {token + suffix!r}", lineno, column)


def _parse_rational(token: str, lineno: int, column: int) -> Fraction:
    return Fraction(*_ratio(token, lineno, column))


def _parse_row(text: str, base: int, lineno: int, parse) -> list:
    """Each non-empty piece of `text` split on spaces, read by `parse`; `text`
    starts after column `base`."""
    values = []
    for piece in text.split(" "):
        token = piece.strip()
        if token:
            try:
                values.append(parse(token, lineno, 0))  # column placed on error
            except ParseError as exc:
                column = _token_column(text, base, len(values))
                raise ParseError(exc.message, lineno, column) from None
    return values


def _parse_ballot_body(universe: Universe, body: str, base: int, lineno: int):
    """The agent a ballot body describes; `body` starts after column `base`."""
    index = universe._index  # name -> position: one dict lookup per name
    stripped = body.strip()
    match = _BALLOT_KEYWORD_RE.match(stripped)
    keyword = match.group() if match else None
    if keyword == "approve":
        # `stripped` ends in non-space, so the braces close it exactly when its
        # last character is "}"
        rest = stripped[7:].lstrip()
        pad = base + len(body) - len(body.lstrip()) + 1
        if not (rest.startswith("{") and rest.endswith("}")):
            raise ParseError("expected 'approve { names }'", lineno, pad)
        inner = rest[1:-1].replace(",", " ")
        approved: list[int] = []
        for piece in inner.split(" "):
            token = piece.strip()
            if token:
                i = index.get(token)
                if i is None:
                    raise _unknown(token, lineno, _token_column(
                        inner, pad + len(stripped) - len(rest), len(approved)))
                approved.append(i)
        if len(set(approved)) != len(approved):
            raise ParseError("duplicate alternative in approval set", lineno, pad)
        # one tier above the rest: approving none or all ties everything
        return ranked_order(universe, [approved])
    if keyword == "util":
        # one value per position, written as each name is checked; unnamed ones
        # stay `_ZERO`, which no parsed value is, so a named position is one
        # holding another object
        values = [_ZERO] * len(universe)
        at = body.index("util") + 4
        inner = body[at:]
        for k, item in enumerate(inner.split(",")):
            item = item.strip()
            name, _, value = item.partition("=")
            name = name.strip()
            i = index.get(name)
            if i is None or values[i] is not _ZERO or item.count("=") != 1:
                column = _column(inner, base + at, (",", k))
                if not item:
                    raise ParseError("empty utility assignment", lineno, column)
                if item.count("=") != 1:
                    raise ParseError(f"expected 'name=value', got {item!r}", lineno, column)
                column = _column(item, column - 1, ("=", 0))
                if i is None:
                    raise _unknown(name, lineno, column)
                raise ParseError(f"duplicate utility for {name!r}", lineno, column)
            try:
                values[i] = _parse_rational(value.strip(), lineno, 0)
            except ParseError as exc:
                column = _column(inner, base + at, (",", k), ("=", 1))
                raise ParseError(exc.message, lineno, column) from None
        return UtilityVector(universe, tuple(values))
    if keyword == "edges":
        at = body.index("edges") + 5
        inner = body[at:]
        strict: set[tuple[int, int]] = set()
        for k, item in enumerate(inner.split(",")):
            item = item.strip()
            if not item:
                continue
            a, _, b = item.partition(">")
            a, b = a.strip(), b.strip()
            pair = (index.get(a), index.get(b))
            if (None in pair or pair[0] == pair[1] or (pair[1], pair[0]) in strict
                    or item.count(">") != 1):
                column = _column(inner, base + at, (",", k))
                if item.count(">") != 1:
                    raise ParseError(f"expected 'a>b', got {item!r}", lineno, column)
                a_col = _column(item, column - 1, (">", 0))
                if pair[0] is None:
                    raise _unknown(a, lineno, a_col)
                if pair[1] is None:
                    raise _unknown(b, lineno, _column(item, column - 1, (">", 1)))
                message = (f"self-edge on {a!r}" if pair[0] == pair[1]
                           else f"both orientations of {a!r}/{b!r} present")
                raise ParseError(message, lineno, a_col)
            strict.add(pair)
        return BaseRelation(universe, frozenset(strict))
    # weak order: tiers separated by ">", ties by "="; names in no tier form
    # the bottom tier
    tiers = []
    seen: set[int] = set()
    for level, tier in enumerate(body.split(">")):
        positions = []
        for k, piece in enumerate(tier.split("=")):
            token = piece.strip()
            i = index.get(token)
            if i is None or i in seen:
                column = _column(body, base, (">", level), ("=", k))
                if i is None:
                    raise _unknown(token, lineno, column)
                raise ParseError(f"alternative {token!r} listed twice", lineno, column)
            seen.add(i)
            positions.append(i)
        tiers.append(positions)
    return ranked_order(universe, tiers)


def parse_ballots(text: str) -> Profile:
    """Parse ballot text into a profile: one run per ballot line, in file
    order.  Each distinct body is parsed once, at its first line, and its
    runs share the agent."""
    universe, _, lines = _declared(text, "universe")
    agents: dict[str, object] = {}
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
        agent = agents.get(body)
        if agent is None:
            agent = agents[body] = _parse_ballot_body(
                universe, body, len(count_text) + 1, lineno)
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


def _digits(n: int) -> str:
    """str(n); a ValueError naming the limit if n has more digits than
    Python converts (`sys.get_int_max_str_digits()`)."""
    try:
        return str(n)
    except ValueError:
        raise ValueError(f"a number to print has more than {sys.get_int_max_str_digits()} "
                         "digits, Python's limit for converting an int to text") from None


def format_ratio(n: int, d: int) -> str:
    """n / d (d > 0) in lowest terms; an integer renders without '/1'."""
    g = math.gcd(n, d)
    return f"{_digits(n // g)}/{_digits(d // g)}" if d != g else _digits(n // g)


def ratio_pair(n: int, d: int) -> list[str]:
    """n / d (d > 0) in lowest terms as [numerator, denominator] text."""
    g = math.gcd(n, d)
    return [_digits(n // g), _digits(d // g)]


def ratio_percent(n: int, d: int) -> str:
    """n / d (d > 0) as a percent, one decimal place, round half up, in ints."""
    # tenths of a percent: floor(1000 |n| / d + 1/2), so halves round up
    tenths = (2000 * abs(n) + d) // (2 * d)
    return f"{'-' if n < 0 else ''}{_digits(tenths // 10)}.{tenths % 10}"


def format_fraction(value: Fraction) -> str:
    """Lowest terms, positive denominator; integers render without '/1'."""
    return format_ratio(*_lowest_terms(value))


def fraction_pair(value: Fraction) -> list[str]:
    return ratio_pair(*_lowest_terms(value))


def format_percent(value: Fraction) -> str:
    """One decimal place, round half up, computed in ints."""
    return ratio_percent(*_lowest_terms(value))


class ShareError(ValueError):
    """A share check of `ProposalMatrix` that failed, with the position of the
    share it names (`row` None for a column's sum)."""

    def __init__(self, message: str, row: int | None, column: int):
        super().__init__(message)
        self.row = row
        self.column = column


class ProposalMatrix(_FrozenValue):
    """Column-stochastic shares: one column per alternative, one row per item;
    every share is non-negative and every column sums to exactly 1.

    `scaled` holds each row over its least common denominator, `(D, nums)`
    with row == nums / D; the checks run on it in ints.  The parser builds
    from it (`_from_scaled`), and `shares` are then derived on first read.
    """

    _FIELDS = ("departments", "alternatives", "shares")

    def __init__(self, departments: tuple[str, ...], alternatives: tuple[str, ...],
                 shares: tuple[tuple[Fraction, ...], ...]):
        if len(shares) != len(departments):
            raise ValueError("one share row per department required")
        scaled = []
        for row in shares:
            if len(row) != len(alternatives):
                raise ValueError("every row needs one share per alternative")
            if any(x.__class__ is bool or not isinstance(x, (int, Fraction)) for x in row):
                raise TypeError(f"shares must be ints or Fractions, got {row!r}")
            scaled.append(_over_common_denominator(row))
        self._set_scaled(departments, alternatives, scaled)
        object.__setattr__(self, "shares", shares)

    @classmethod
    def _from_scaled(cls, departments, alternatives, scaled) -> "ProposalMatrix":
        """Row i is nums / D for scaled[i] = (D, nums), D > 0 not always least."""
        proposals = cls.__new__(cls)
        proposals._set_scaled(departments, alternatives, scaled)
        return proposals

    def _set_scaled(self, departments, alternatives, scaled) -> None:
        """Check the rows in ints, reduce each, and store them."""
        rows = []
        for i, (d, nums) in enumerate(scaled):
            for j, x in enumerate(nums):
                if x < 0:
                    raise ShareError(f"{departments[i]!r} has negative share "
                                     f"{Fraction(x, d)} in column {alternatives[j]!r}",
                                     i, j)
            g = math.gcd(d, *nums)
            rows.append((d // g, tuple([x // g for x in nums])))
        # column j sums to sum_i nums_ij / D_i: compare over the rows' common D
        common = math.lcm(*[d for d, _ in rows])
        factors = [common // d for d, _ in rows]
        for j, name in enumerate(alternatives):
            total = sum([f * nums[j] for f, (_, nums) in zip(factors, rows)])
            if total != common:
                raise ShareError(f"column {name!r} sums to {Fraction(total, common)}, "
                                 "must be exactly 1", None, j)
        vars(self).update(departments=departments, alternatives=alternatives,
                          scaled=tuple(rows))

    # a field, derived where the parser gave rows only
    shares = functools.cached_property(lambda self: tuple(
        [tuple([Fraction(x, d) for x in nums]) for d, nums in self.scaled]))


def _parse_share(token: str, lineno: int, column: int) -> tuple[int, int]:
    """A share as (numerator, denominator): `40%` is (40, 100)."""
    if token.endswith("%"):
        n, d = _ratio(token[:-1], lineno, column, "%")
        return n, d * 100
    return _ratio(token, lineno, column)


def parse_proposals(text: str) -> ProposalMatrix:
    """Parse proposal text; a share check that fails is reported at the share,
    or, for a column's sum, at its alternative's name in the declaration.
    Each row is read into ints over its shares' common denominator."""
    universe, declaration, lines = _declared(text, "alternatives")
    departments: list[str] = []
    seen: set[str] = set()
    rows: list[tuple[int, list[int]]] = []
    row_at: list[tuple[int, str, int]] = []  # (line, shares text, its base column)
    for lineno, line in lines:
        name, sep, rest = line.partition(":")
        if not sep:
            raise ParseError("expected 'department: shares'", lineno)
        values = _parse_row(rest, len(name) + 1, lineno, _parse_share)
        if len(values) != len(universe):
            raise ParseError(
                f"{len(values)} shares for {len(universe)} alternatives", lineno
            )
        department = name.strip()
        if not department or department in seen:
            message = (f"duplicate department {department!r}" if department
                       else "empty department name")
            raise ParseError(message, lineno, len(name) - len(name.lstrip()) + 1)
        seen.add(department)
        departments.append(department)
        d = math.lcm(*[den for _, den in values])
        rows.append((d, [n * (d // den) for n, den in values]))
        row_at.append((lineno, rest, len(name) + 1))
    try:
        return ProposalMatrix._from_scaled(tuple(departments), universe.names, rows)
    except ShareError as exc:
        lineno, text, base = (row_at[exc.row] if exc.row is not None
                              else (declaration[0], *_declaration_names(declaration[1])))
        raise ParseError(str(exc), lineno, _token_column(text, base, exc.column)) from None


def allocation_ratios(proposals: ProposalMatrix, lottery: Lottery) -> list[tuple[int, int]]:
    """The share vector P @ p as one (numerator, denominator) pair per
    department, the denominator positive (not always least); exact, and
    sums to exactly 1."""
    if proposals.alternatives != lottery.universe.names:
        raise ValueError(
            f"proposal alternatives {proposals.alternatives} do not match "
            f"ballot universe {lottery.universe.names}"
        )
    # row i over D_i times p over d: share i is (a_i . nums) / (D_i d)
    d, nums = lottery.scaled
    ratios = [(sum([a * x for a, x in zip(row, nums)]), row_d * d)
              for row_d, row in proposals.scaled]
    common = math.lcm(*[den for _, den in ratios])
    total = sum([n * (common // den) for n, den in ratios])
    if total != common:
        raise SolverDefect(f"allocation sums to {Fraction(total, common)}, not 1")
    return ratios


def budget_allocation(proposals: ProposalMatrix, lottery: Lottery) -> tuple[Fraction, ...]:
    """The share vector P @ p; exact, and sums to exactly 1."""
    return tuple([Fraction(n, den) for n, den in allocation_ratios(proposals, lottery)])


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
        values = _parse_row(line, 0, lineno, _parse_rational)
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
