"""The column-free input readers against the column-computing ones they replaced.

The reference below is the ballot, proposal and matrix parser as it was
when `_parts` yielded a column for every piece of every line, kept here
as an oracle the way `ReferenceLottery` is kept: on every seeded hostile
text the package's parser must give an equal result, or a `ParseError`
with the same message, line and column.  `cli._read` is held to
`Path.read_text` the same way: the same lines, or the same error.
"""

import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

from ssbchoice import ballots, cli
from ssbchoice.ballots import (
    _BALLOT_KEYWORD_RE,
    _DECLARATION_KEYWORDS,
    _NAME_RE,
    MAX_ALTERNATIVES,
    ParseError,
    ProposalMatrix,
    ShareError,
    _parse_rational,
    _parse_share,
    _significant_lines,
    parse_ballots,
    parse_matrices,
    parse_proposals,
)
from ssbchoice.model import BaseRelation, Profile, Universe, UtilityVector
from ssbchoice.ssb import SSBMatrix

from conftest import rank_pairs


# -- reference: the parser with a column for every piece ----------------------

def ref_parts(text, sep, base):
    """Split on a single-character separator, yielding (piece, 1-based column)."""
    offset = 0
    for piece in text.split(sep):
        yield piece.strip(), base + offset + (len(piece) - len(piece.lstrip())) + 1
        offset += len(piece) + 1


def ref_parse_declaration(line, lineno):
    keyword, sep, rest = line.partition(":")
    if not sep or keyword.strip().lower() not in _DECLARATION_KEYWORDS:
        raise ParseError("expected a declaration line like 'universe: a, b, c'", lineno)
    base = len(line) - len(rest)
    names, columns, seen = [], [], set()
    for token, column in ref_parts(rest.replace(",", " "), " ", base):
        if not token:
            continue
        if not _NAME_RE.match(token):
            raise ParseError(f"invalid alternative name {token!r}", lineno, column)
        if token in seen:
            raise ParseError(f"duplicate alternative {token!r}", lineno, column)
        if len(names) == MAX_ALTERNATIVES:
            raise ParseError(f"declaration names more than {MAX_ALTERNATIVES} alternatives",
                             lineno, column)
        seen.add(token)
        names.append(token)
        columns.append(column)
    if not names:
        raise ParseError("declaration names no alternatives", lineno)
    return Universe(tuple(names)), columns


def ref_declared(text, what):
    lines = _significant_lines(text)
    for lineno, line in lines:
        universe, columns = ref_parse_declaration(line, lineno)
        return universe, [(lineno, column) for column in columns], lines
    raise ParseError(f"no {what} declaration found", 1)


def ref_name_index(universe, token, lineno, column):
    if not token:
        raise ParseError("missing alternative name", lineno, column)
    if token not in universe:
        raise ParseError(f"unknown alternative {token!r}", lineno, column)
    return universe.index(token)


def ref_parse_ballot_body(universe, body, base, lineno):
    stripped = body.strip()
    pad = base + (len(body) - len(body.lstrip()))
    match = _BALLOT_KEYWORD_RE.match(stripped)
    keyword = match.group() if match else None
    if keyword == "approve":
        rest = stripped[7:].lstrip()
        if not (rest.startswith("{") and rest.endswith("}")):
            raise ParseError("expected 'approve { names }'", lineno, pad + 1)
        inner_base = pad + len(stripped) - len(rest) + 1
        approved = [
            ref_name_index(universe, token, lineno, column)
            for token, column in ref_parts(rest[1:-1].replace(",", " "), " ", inner_base)
            if token
        ]
        chosen = set(approved)
        if len(chosen) != len(approved):
            raise ParseError("duplicate alternative in approval set", lineno, pad + 1)
        return rank_pairs(universe, [int(i not in chosen) for i in range(len(universe))])
    if keyword == "util":
        values = [None] * len(universe)
        inner = body[body.index("util") + 4:]
        inner_base = base + body.index("util") + 4
        for item, item_col in ref_parts(inner, ",", inner_base):
            if not item:
                raise ParseError("empty utility assignment", lineno, item_col)
            pieces = list(ref_parts(item, "=", item_col - 1))
            if len(pieces) != 2:
                raise ParseError(f"expected 'name=value', got {item!r}", lineno, item_col)
            (name, name_col), (value, value_col) = pieces
            i = ref_name_index(universe, name, lineno, name_col)
            if values[i] is not None:
                raise ParseError(f"duplicate utility for {name!r}", lineno, name_col)
            values[i] = _parse_rational(value, lineno, value_col)
        return UtilityVector(universe, tuple(Fraction(0) if v is None else v for v in values))
    if keyword == "edges":
        inner = body[body.index("edges") + 5:]
        inner_base = base + body.index("edges") + 5
        strict = set()
        for item, item_col in ref_parts(inner, ",", inner_base):
            if not item:
                continue
            pieces = list(ref_parts(item, ">", item_col - 1))
            if len(pieces) != 2:
                raise ParseError(f"expected 'a>b', got {item!r}", lineno, item_col)
            (a, a_col), (b, b_col) = pieces
            pair = (ref_name_index(universe, a, lineno, a_col),
                    ref_name_index(universe, b, lineno, b_col))
            if pair[0] == pair[1]:
                raise ParseError(f"self-edge on {a!r}", lineno, a_col)
            if (pair[1], pair[0]) in strict:
                raise ParseError(f"both orientations of {a!r}/{b!r} present", lineno, a_col)
            strict.add(pair)
        return BaseRelation(universe, frozenset(strict))
    m = len(universe)
    rank = [m] * m
    for level, (tier_text, tier_col) in enumerate(ref_parts(body, ">", base)):
        for token, column in ref_parts(tier_text, "=", tier_col - 1):
            i = ref_name_index(universe, token, lineno, column)
            if rank[i] < m:
                raise ParseError(f"alternative {token!r} listed twice", lineno, column)
            rank[i] = level
    return rank_pairs(universe, rank)


def ref_parse_ballots(text):
    universe, _, lines = ref_declared(text, "universe")
    runs = []
    for lineno, line in lines:
        count_text, sep, body = line.partition(":")
        if not sep:
            raise ParseError("expected 'count: ballot'", lineno)
        try:
            count = int(count_text.strip())
        except ValueError:
            raise ParseError(f"invalid ballot count {count_text.strip()!r}", lineno) from None
        if count <= 0:
            raise ParseError(f"ballot count must be positive, got {count}", lineno)
        runs.append((ref_parse_ballot_body(universe, body, len(count_text) + 1, lineno), count))
    if not runs:
        raise ParseError("no ballots found", 1)
    return Profile.from_runs(universe, runs)


def ref_parse_proposals(text):
    universe, name_at, lines = ref_declared(text, "alternatives")
    departments, seen, rows, share_at = [], set(), [], []
    for lineno, line in lines:
        name, sep, rest = line.partition(":")
        if not sep:
            raise ParseError("expected 'department: shares'", lineno)
        base = len(line) - len(rest)
        tokens = [(token, column) for token, column in ref_parts(rest, " ", base) if token]
        values = [Fraction(*_parse_share(token, lineno, column)) for token, column in tokens]
        if len(values) != len(universe):
            raise ParseError(f"{len(values)} shares for {len(universe)} alternatives", lineno)
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


def ref_parse_matrices(text):
    universe, _, lines = ref_declared(text, "alternatives")
    rows, matrices = [], []
    for lineno, line in lines:
        values = [_parse_rational(token, lineno, column)
                  for token, column in ref_parts(line, " ", 0) if token]
        if len(values) != len(universe):
            raise ParseError(f"{len(values)} entries for {len(universe)} alternatives", lineno)
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


def outcome(parse, text):
    """A parse's value, or its error as (type, message, line, column)."""
    try:
        return "ok", parse(text)
    except ParseError as exc:
        return "ParseError", exc.message, exc.line, exc.column
    except Exception as exc:  # the same unexpected error on both sides, or a defect
        return type(exc).__name__, str(exc)


# -- seeded hostile texts --------------------------------------------------------

NAMES = ["a", "b", "c", "d", "utility", "approver", "x1"]
SPACE = ["", " ", "  ", "\t", " \t ", "\u00a0", "\u3000"]
JUNK = ["", " ", ",", ">", "=", "{", "}", "#", ":", "zz", "a", "util", "approve",
        "edges", "1/0", "1e1001", "\t", ">>", "==", ",,", "a>a", "-"]


def pad(rng, text):
    return rng.choice(SPACE) + text + rng.choice(SPACE)


def spoil(rng, text, p=0.15):
    """With probability p, one random edit: insert, delete or replace a piece."""
    if not text or rng.random() >= p:
        return text
    i = rng.randrange(len(text) + 1)
    piece = rng.choice(JUNK)
    kind = rng.randrange(3)
    if kind == 0:
        return text[:i] + piece + text[i:]
    if kind == 1:
        return text[:i] + text[i + rng.randint(1, 3):]
    return text[:i] + piece + text[i + 1:]


def rational(rng):
    if rng.random() < 0.9:
        return rng.choice([str(rng.randint(0, 9)), f"{rng.randint(-3, 9)}/{rng.randint(1, 7)}",
                           "0.25", "1e3", "-2", "1_000", "2.5e-2", "٣"])
    return rng.choice([f"{rng.randint(0, 9)}/0", "3/ 4", "x", "1e1001", "", "7%"])


def declaration(rng, keyword="universe"):
    names = rng.sample(NAMES, rng.randint(1, 5))
    if rng.random() < 0.03:
        names.append(rng.choice(names))  # a duplicate
    if rng.random() < 0.03:
        names.append(rng.choice(["a>b", "c=d", "{", "#x"]))
    seps = [rng.choice([",", ", ", " ", "\t", " ,", ",,"]) for _ in names]
    text = pad(rng, rng.choice([keyword, keyword.upper()] if rng.random() < 0.95
                               else ["universe", "alternatives", "univers"]))
    text += rng.choice([":", ": ", ":\t", ""] if rng.random() < 0.03 else [":", ": ", ":\t"])
    text += "".join(pad(rng, n) + s for n, s in zip(names, seps))
    return text, [n for n in dict.fromkeys(names) if _NAME_RE.match(n)]


def ballot_body(rng, names):
    pool = names + ["zz", ""] if rng.random() < 0.05 else names or ["a"]
    kind = rng.randrange(5)
    if kind == 0:  # weak order
        picked = rng.sample(pool, rng.randint(1, len(pool)))
        if rng.random() < 0.05:
            picked.append(rng.choice(picked))
        text = ""
        for k, name in enumerate(picked):
            text += pad(rng, name)
            if k < len(picked) - 1:
                text += rng.choice([">", ">", "=", ">", "=", "> >", "=>"] if rng.random() < 0.1
                                   else [">", "="])
        return text
    if kind == 1:  # approval
        inner = rng.choice([",", ", ", " "]).join(
            pad(rng, n) for n in rng.sample(pool, rng.randint(0, len(pool))))
        braces = ("{", "}") if rng.random() < 0.9 else rng.choice([("", "}"), ("{", ""),
                                                                    ("{", "} x")])
        return "approve" + rng.choice(["", " ", "\t"]) + braces[0] + inner + braces[1]
    if kind == 2:  # utilities
        items = [pad(rng, n) + rng.choice(["=", " = "] if rng.random() < 0.95 else ["==", ""])
                 + pad(rng, rational(rng)) for n in rng.sample(pool, rng.randint(1, len(pool)))]
        if rng.random() < 0.05:
            items.append(items[0])
        return "util" + rng.choice([" ", "  ", "\t"]) + rng.choice([",", ", "]).join(items) + \
            ("" if rng.random() < 0.9 else rng.choice([",", ", "]))
    if kind == 3:  # edges
        items = [pad(rng, a) + (">" if rng.random() < 0.95 else rng.choice([">>", ""])) +
                 pad(rng, b) for a, b in (rng.sample(pool, 2) if len(pool) > 1 else pool * 2
                                          for _ in range(rng.randint(0, 4)))]
        return "edges" + rng.choice([" ", "\t"]) + rng.choice([",", ", ", ",,"]).join(items)
    return rng.choice(["utility > a", "approver", "util", "edges", "approve{a}",
                       "a = b > c", "approve {}", "util a=1", "edges a>b, b>a"])


def count(rng):
    if rng.random() < 0.95:
        return rng.choice(["1", "2", "25", " 3 ", "1_0", "10" * 20, "\t4"])
    return rng.choice(["0", "-1", "x", ""])


def ballot_text(rng):
    decl, names = declaration(rng)
    lines = ["# a comment"] if rng.random() < 0.2 else []
    lines.append(decl)
    bodies = [ballot_body(rng, names) for _ in range(rng.randint(1, 4))]
    for _ in range(rng.randint(0, 8)):
        line = count(rng) + rng.choice([":", ": ", ":\t", ""] if rng.random() < 0.05
                                        else [":", ": ", ":\t"])
        line += spoil(rng, rng.choice(bodies), 0.05)
        if rng.random() < 0.15:
            line += rng.choice(["  # note", "#", "\t# x: y"])
        lines.append(line)
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "   ", "\t", "# only a comment"]))
    return "\n".join(lines) + rng.choice(["", "\n"])


def repeated_then_failing(rng):
    """Bodies repeated under varying counts, then one of them spoiled."""
    decl, names = declaration(rng)
    names = names or ["a"]
    body = ballot_body(rng, names)
    lines = [decl] + [f"{rng.randint(1, 999)}:{body}" for _ in range(rng.randint(2, 6))]
    lines.append(f"{rng.randint(1, 999)}:" + spoil(rng, spoil(rng, body)))
    lines += [f"7:{body}"] * rng.randint(0, 2)
    return "\n".join(lines) + "\n"


def share(rng):
    return rng.choice([f"{rng.randint(0, 100)}%", f"{rng.randint(0, 4)}/{rng.randint(1, 4)}",
                       f"0.{rng.randint(0, 9)}", "-10%", "-1/4", "1", "0", "50 %", "x%",
                       "1/0", "25.5%", "1e-1"])


def proposal_text(rng):
    decl, names = declaration(rng, "alternatives")
    m = max(1, len(names))
    lines = [decl]
    departments = rng.sample(["Health", "Roads", "Parks", "Schools"], rng.randint(1, 4))
    if rng.random() < 0.05:
        departments.append(rng.choice(departments + ["", "  "]))
    # a valid column-stochastic matrix in %, as the base the edits spoil
    columns = []
    for _ in range(m):
        cuts = sorted(rng.randint(0, 100) for _ in range(len(departments) - 1))
        columns.append([b - a for a, b in zip([0] + cuts, cuts + [100])])
    for i, department in enumerate(departments):
        shares = [f"{columns[j][i]}%" for j in range(m)]
        if rng.random() < 0.15:
            shares[rng.randrange(m)] = share(rng)
        if rng.random() < 0.03:
            shares.append(share(rng))
        line = pad(rng, department) + rng.choice([":", ": ", ":\t"]) + \
            rng.choice([" ", "  ", "\t"]).join(pad(rng, s) for s in shares)
        lines.append(spoil(rng, line, 0.05))
    return "\n".join(lines) + "\n"


def matrix_text(rng):
    decl, names = declaration(rng, "alternatives")
    m = max(1, len(names))
    lines = [decl]
    for _ in range(rng.randint(0, 3)):
        upper = {(a, b): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for a in range(m) for b in range(a + 1, m)}
        for a in range(m):
            row = [Fraction(0) if a == b else upper[a, b] if a < b else -upper[b, a]
                   for b in range(m)]
            cells = [str(x) for x in row]
            if rng.random() < 0.05:
                cells[rng.randrange(m)] = rational(rng)
            line = rng.choice([" ", "  ", "\t"]).join(pad(rng, c) for c in cells)
            lines.append(spoil(rng, line, 0.03))
    if rng.random() < 0.1:
        lines.append("0 " * m)  # the start of an incomplete block
    return "\n".join(lines) + "\n"


def fixed_cases():
    """Hand-written texts for each error the generators may reach rarely."""
    u = "universe: a, b, c\n"
    return [
        u + "1: utility > b\n", u + "1:\tutil a=1/3,\tb = 2\n", u + "1: util a=1, , b=2\n",
        u + "1: util a=1=2\n", u + "1: util =3\n", u + "1: util a=1, a=2\n",
        u + "1: util zz=1\n", u + "1: util a=1/0\n", u + "1: util a=1e1001\n",
        u + "1: edges a>b, b>a\n", u + "1: edges a>a\n", u + "1: edges a>>b\n",
        u + "1: edges , a>b,\n", u + "1: edges zz>a\n", u + "1: edges a> \n",
        u + "1: approve {a, a}\n", u + "1: approve a, b\n", u + "1:  approve\t{ a ,zz}\n",
        u + "1: a > > b\n", u + "1: a = = b\n", u + "1: a >\n", u + "1:  a = b = a\n",
        u + "0: a\n", u + "x: a\n", u + ": a\n", u + "a > b\n", u,
        "universe:\n", "universe: a, a\n", "universe: a>b\n", "nothing: a\n", "",
        "# only\n\n", "universe: " + ", ".join(f"n{i}" for i in range(MAX_ALTERNATIVES + 1)),
        u + "\n".join(["3: a > b"] * 5 + ["4:  a > zz"]),
        u + "\n".join(["3: a > b", "41: a > b", "3: c"] * 3 + ["9: c = c"]),
    ]


def fixed_proposals():
    a = "alternatives: A, B\n"
    return [
        a + "X: 50% 50%\nY: 50% 50%\n", a + "X: 100% 100%\n", a + "X: 1/2 1/2\nY: 0.5 0.5\n",
        a + "X: -10% 50%\nY: 110% 50%\n", a + "X: 50%\n", a + ": 100% 100%\n",
        a + "X: 100% 100%\nX: 0 0\n", a + "X 100% 100%\n", a + "X: 1/0 1\n",
        a + "  X\t:\t40%  60%\n  Y : 60%\t40%\n", a + "X: 40% 50%\nY: 60% 40%\n",
        "alternatives:\tA,B ,  C\nX: 30% 30% 30%\nY: 70% 70% 60%\n",
    ]


def fixed_matrices():
    a = "alternatives: a, b\n"
    return [a + "0 1\n-1 0\n", a + "0 1\n", a + "0 1\n1 0\n", a + "0 1 2\n", a + "0 x\n-1 0\n",
            a + "0\t1/2\n -1/2   0\n0 1\n-1 0\n", a + "0 1e1001\n", a]


@pytest.mark.parametrize("seed", range(8))
def test_ballots_match_the_column_reference(seed):
    rng = random.Random(seed)
    texts = [ballot_text(rng) for _ in range(400)] + [repeated_then_failing(rng)
                                                       for _ in range(100)]
    if seed == 0:
        texts += fixed_cases()
    errors = 0
    for text in texts:
        got, want = outcome(parse_ballots, text), outcome(ref_parse_ballots, text)
        assert got == want, text
        errors += got[0] != "ok"
    # the generators reach both sides of the parser
    assert 0.2 * len(texts) < errors < 0.9 * len(texts)


@pytest.mark.parametrize("seed", range(4))
def test_proposals_match_the_column_reference(seed):
    rng = random.Random(100 + seed)
    texts = [proposal_text(rng) for _ in range(400)]
    if seed == 0:
        texts += fixed_proposals()
    errors = 0
    for text in texts:
        got, want = outcome(parse_proposals, text), outcome(ref_parse_proposals, text)
        assert got == want, text
        errors += got[0] != "ok"
    assert 0.2 * len(texts) < errors < 0.9 * len(texts)


@pytest.mark.parametrize("seed", range(4))
def test_matrices_match_the_column_reference(seed):
    rng = random.Random(200 + seed)
    texts = [matrix_text(rng) for _ in range(300)]
    if seed == 0:
        texts += fixed_matrices()
    errors = 0
    for text in texts:
        got, want = outcome(parse_matrices, text), outcome(ref_parse_matrices, text)
        assert got == want, text
        errors += got[0] != "ok"
    assert 0.2 * len(texts) < errors < 0.9 * len(texts)


# -- parse once -----------------------------------------------------------------

def test_each_distinct_body_is_parsed_once(monkeypatch):
    bodies = [" a > b = c", " approve {b}", " util a=1/3, c=2"]
    text = "universe: a, b, c\n" + "".join(
        f"{k % 7 + 1}:{bodies[k % 3]}\n" for k in range(10_000))
    calls = []
    body_parser = ballots._parse_ballot_body

    def counting(*args):
        calls.append(args[1])
        return body_parser(*args)

    monkeypatch.setattr(ballots, "_parse_ballot_body", counting)
    profile = parse_ballots(text)
    assert calls == bodies
    assert len(profile.runs) == 10_000
    assert len({id(agent) for agent, _ in profile.runs}) == 3
    monkeypatch.undo()
    assert profile == ref_parse_ballots(text)


# -- reading a file ------------------------------------------------------------

def reference_read(path):
    return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")


def read_outcome(read, path):
    try:
        return "ok", read(path).splitlines()
    except Exception as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("data", [
    b"universe: a\n1: a\n", b"universe: a\r\n1: a\r\n", b"universe: a\r1: a\r",
    b"universe: a\r\n\r1: a\n\r\n\n", b"x\r\r\ny\n\rz", b"a\xc2\x85b\xe2\x80\xa8c\n",
    b"\xef\xbb\xbfuniverse: a\r\n1: a", b"\xef\xbb\xbf\xef\xbb\xbfx", b"", b"\xef\xbb\xbf",
    b"a\rb\n", b"trailing\r", b"\x0b\x0c\x1c\x1d\x1e\xe2\x80\xa9",
    b"\xff", b"ok\n\xc3", b"x" * 5000 + b"\xe2\x28\xa1",
])
def test_read_matches_read_text(tmp_path, data):
    path = tmp_path / "input"
    path.write_bytes(data)
    assert read_outcome(cli._read, str(path)) == read_outcome(reference_read, str(path))


def test_short_reads_are_read_on(tmp_path, monkeypatch):
    # `os.read` may return fewer bytes than asked (after a signal, or from a
    # network file system): a file is read to its end, a pipe to the bound
    data = b"universe: a, b\n" + b"1: a > b\n" * 40
    path = tmp_path / "input"
    path.write_bytes(data)
    read = os.read
    monkeypatch.setattr(os, "read", lambda fd, size: read(fd, min(size, 7)))
    assert cli._read(str(path)) == data.decode("utf-8")
    monkeypatch.setattr(cli, "MAX_INPUT_BYTES", 100)
    for size in (100, 101):
        r, w = os.pipe()
        with os.fdopen(w, "wb") as pipe:
            pipe.write(data[:size])
        try:
            if size == 100:
                assert cli._read(f"/dev/fd/{r}") == data[:100].decode("utf-8")
            else:
                with pytest.raises(ValueError, match="more than 100 bytes"):
                    cli._read(f"/dev/fd/{r}")
        finally:
            os.close(r)


def test_read_errors_match_read_text(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    (tmp_path / "f").write_text("universe: a\n", encoding="utf-8")
    paths = ["", "missing", "d", "d/", "d//", "a//b", "missing/", "f/", "f/.", "./f",
             "f//", str(tmp_path / "d") + "/", str(tmp_path) + "//f"]
    for path in paths:
        assert read_outcome(cli._read, path) == read_outcome(reference_read, path), path
