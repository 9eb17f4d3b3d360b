"""Independent exact checks of every CLI output the benchmark produces.

Nothing here imports ssbchoice.  The collective matrix is recomputed from
the structured ballots the generator kept (see workloads.py): +1/-1 per
strict pair of a weak order, an approval split or an edge list, and
(u_a - u_b) / (max u - min u) for a utility ballot, each times its count.
A printed lottery is then accepted only if it is a distribution whose
printed slacks equal p' phi e_b exactly, are all >= 0 and vanish on the
support.  A printed uniqueness claim is decided by `is_unique_optimum`.

`check(command, exit_code, stdout)` returns a list of error strings; an
empty list means the output is correct.
"""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction

MAX_RAY_SUBSETS = 200_000

# The 100-delegate example of the source paper (fixtures/table1.*), pinned.
TABLE1_GROUPS = [
    (25, ("order", ((0,), (1,), (2,), (3,)))),
    (20, ("order", ((1,), (0,), (2,), (3,)))),
    (45, ("order", ((2,), (0,), (3,), (1,)))),
    (10, ("order", ((3,), (1,), (2,), (0,)))),
]
TABLE1_SHARES = [[Fraction(x, 100) for x in row] for row in
                 ((40, 30, 20, 10), (30, 10, 30, 30), (20, 40, 30, 20), (10, 20, 20, 40))]
TABLE1_DEPARTMENTS = ["Education", "Transportation", "Health", "Military"]
TABLE1_LOTTERY = [Fraction(1, 6), Fraction(1, 6), Fraction(2, 3), Fraction(0)]
TABLE1_PERCENTS = ["25.0", "26.7", "30.0", "18.3"]


# ---------------------------------------------------------------------------
# the collective matrix


def ballot_matrix(m: int, ballot) -> list[list[Fraction]]:
    kind, data = ballot
    phi = [[Fraction(0)] * m for _ in range(m)]
    if kind == "util":
        gap = max(data) - min(data)
        if gap:
            for a in range(m):
                for b in range(m):
                    phi[a][b] = (data[a] - data[b]) / gap
        return phi
    if kind == "order":
        pairs = [(a, b) for i, upper in enumerate(data) for lower in data[i + 1:]
                 for a in upper for b in lower]
    elif kind == "approve":
        pairs = [(a, b) for a in data for b in range(m) if b not in data]
    else:
        pairs = data
    for a, b in pairs:
        phi[a][b] += 1
        phi[b][a] -= 1
    return phi


def collective(m: int, groups) -> list[list[Fraction]]:
    total = [[Fraction(0)] * m for _ in range(m)]
    for count, ballot in groups:
        phi = ballot_matrix(m, ballot)
        for a in range(m):
            for b in range(m):
                total[a][b] += count * phi[a][b]
    return total


def slacks(phi, p) -> list[Fraction]:
    """(p' phi)_b for every alternative b."""
    m = len(p)
    return [sum((p[a] * phi[a][b] for a in range(m)), Fraction(0)) for b in range(m)]


# ---------------------------------------------------------------------------
# exact linear algebra for the uniqueness test


def _rref(rows: list[list[Fraction]], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        at = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if at is None:
            continue
        rows[r], rows[at] = rows[at], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    reduced, pivots = _rref(rows, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, c in zip(reduced, pivots):
            v[c] = -row[free]
        basis.append(v)
    return basis


def is_unique_optimum(phi, p) -> bool:
    """Whether p is the only maximal lottery of phi; p must be maximal.

    With S the support of p and T the alternatives where p' phi is 0,
    every maximal q satisfies q_b = 0 off T, (q' phi)_a = 0 on S and
    sum q = 1 (skew-symmetry gives p' phi q = 0 for two optima).  So
    another optimum exists iff some nonzero direction d with those
    equalities keeps the constraints active at p satisfied:
    d_b >= 0 and (d' phi)_b >= 0 for b in T \\ S.  That cone is decided
    by its lineality space, then by its extreme rays (each fixed by
    k - 1 independent tight rows, k = dimension of the equality space).
    """
    m = len(p)
    s = slacks(phi, p)
    support = [a for a in range(m) if p[a]]
    tight = [b for b in range(m) if s[b] == 0]
    col = {b: i for i, b in enumerate(tight)}
    width = len(tight)
    equalities = [[Fraction(1)] * width]
    equalities += [[phi[b][a] for b in tight] for a in support]
    basis = nullspace(equalities, width)
    k = len(basis)
    if k == 0:
        return True
    active = [b for b in tight if not p[b]]
    rows = [[v[col[b]] for v in basis] for b in active]
    rows += [[sum((v[col[c]] * phi[c][b] for c in tight), Fraction(0)) for v in basis]
             for b in active]
    if len(_rref(rows, k)[1]) < k:
        return False  # a whole line of directions keeps every active row at 0
    for count, chosen in enumerate(itertools.combinations(rows, k - 1)):
        if count >= MAX_RAY_SUBSETS:
            raise ValueError("uniqueness undecided: too many candidate rays")
        ray = nullspace(list(chosen), k)
        if len(ray) != 1:
            continue
        values = [sum((r * x for r, x in zip(row, ray[0])), Fraction(0)) for row in rows]
        if all(v >= 0 for v in values) or all(v <= 0 for v in values):
            return False
    return True


# ---------------------------------------------------------------------------
# output checks


def percent(x: Fraction) -> str:
    tenths = (2000 * x + 1) // 2  # round half up to one decimal
    return f"{tenths // 10}.{tenths % 10}"


def check_solution(phi, names, probs, slack_values, unique, face=None) -> list[str]:
    errors = []
    if any(x < 0 for x in probs) or sum(probs) != 1:
        errors.append(f"lottery is not a distribution: {probs}")
        return errors
    expected = slacks(phi, probs)
    for name, got, want, prob in zip(names, slack_values, expected, probs):
        if got != want:
            errors.append(f"slack vs {name} printed {got}, is {want}")
        if want < 0:
            errors.append(f"lottery loses to {name} by {-want}")
        if prob and want:
            errors.append(f"slack vs supported {name} is {want}, not 0")
    if errors or unique is None:
        return errors
    if unique != is_unique_optimum(phi, probs):
        errors.append(f"uniqueness claim {unique} is wrong")
    if face is not None:
        if unique != (len(face) == 1):
            errors.append(f"unique={unique} but the maximal set has {len(face)} vertices")
        if len(set(map(tuple, face))) != len(face):
            errors.append("maximal set repeats a vertex")
        for vertex in face:
            if any(x < 0 for x in vertex) or sum(vertex) != 1 or \
                    any(v < 0 for v in slacks(phi, vertex)):
                errors.append(f"maximal-set vertex {vertex} is not maximal")
        if unique and list(face[0]) != list(probs):
            errors.append("unique vertex differs from the reported lottery")
    return errors


_ENTRY = re.compile(r"^  (\S+): (\S+) \((-?[0-9]+\.[0-9])%\)$")
_SLACK = re.compile(r"^  vs (\S+): (\S+)$")


def parse_budget_text(stdout: str) -> dict:
    """The sections of `ssbchoice budget` text output.

    Lines it does not know are skipped; the callers' checks on names and
    departments catch a missing or malformed entry.
    """
    section, out = None, {"lottery": [], "slack": [], "allocation": [], "unique": None}
    for line in stdout.splitlines():
        if line == "Maximal lottery:":
            section = "lottery"
        elif line.startswith("Slacks against pure outcomes"):
            section = "slack"
        elif line == "Budget allocation:":
            section = "allocation"
        elif line == "This is the unique maximal lottery.":
            out["unique"] = True
        elif line.startswith("Not unique:"):
            out["unique"] = False
        elif line.startswith("Uniqueness not determined"):
            out["unique"] = None
        elif section == "slack" and _SLACK.match(line):
            name, value = _SLACK.match(line).groups()
            out["slack"].append((name, Fraction(value)))
        elif section in ("lottery", "allocation") and _ENTRY.match(line):
            name, value, pct = _ENTRY.match(line).groups()
            out[section].append((name, Fraction(value), pct))
    return out


def check_budget(names, groups, departments, shares, stdout) -> list[str]:
    parsed = parse_budget_text(stdout)
    if [n for n, _, _ in parsed["lottery"]] != names or \
            [n for n, _ in parsed["slack"]] != names:
        return [f"lottery or slack names differ from {names}"]
    probs = [x for _, x, _ in parsed["lottery"]]
    errors = [f"{n}: printed {pct}%, is {percent(x)}%"
              for n, x, pct in parsed["lottery"] if pct != percent(x)]
    errors += check_solution(collective(len(names), groups), names, probs,
                             [x for _, x in parsed["slack"]], parsed["unique"])
    if [d for d, _, _ in parsed["allocation"]] != list(departments):
        return errors + ["allocation departments differ"]
    for (dept, value, pct), row in zip(parsed["allocation"], shares):
        want = sum((s * x for s, x in zip(row, probs)), Fraction(0))
        if value != want:
            errors.append(f"allocation {dept} printed {value}, is {want}")
        if pct != percent(want):
            errors.append(f"allocation {dept} printed {pct}%, is {percent(want)}%")
    return errors


def _pair(value) -> Fraction:
    num, den = value
    return Fraction(int(num), int(den))


def check_lottery_json(m, groups, stdout) -> list[str]:
    payload = json.loads(stdout)
    names = [f"c{i}" for i in range(m)]
    if list(payload["lottery"]) != names or list(payload["slacks"]) != names:
        return [f"lottery or slack names differ from {names}"]
    probs = [_pair(v) for v in payload["lottery"].values()]
    slack_values = [_pair(v) for v in payload["slacks"].values()]
    face = payload.get("maximal_set")
    if face is not None:
        face = [[_pair(v[n]) for n in names] for v in face]
    return check_solution(collective(m, groups), names, probs, slack_values,
                          payload["unique"], face)


def check_axiom_lines(expected_lines, stdout) -> list[str]:
    verdicts = [line[2:] for line in stdout.splitlines()
                if line[2:6] in ("PASS", "FAIL", "NOTE")]
    if len(verdicts) != len(expected_lines) or not all(
            v.startswith(e) for v, e in zip(verdicts, expected_lines)):
        return [f"verdict lines {verdicts} do not match {list(expected_lines)}"]
    return []


def check(command, exit_code, stdout: str) -> list[str]:
    """Errors in one command's result; [] when exit code and output are right."""
    expected_code = command.expect.get("exit", 0)
    if exit_code != expected_code:
        return [f"exit code {exit_code}, expected {expected_code}"]
    try:
        if command.kind == "table1":
            errors = check_budget(["A", "B", "C", "D"], TABLE1_GROUPS, TABLE1_DEPARTMENTS,
                                  TABLE1_SHARES, stdout)
            parsed = parse_budget_text(stdout)
            if [x for _, x, _ in parsed["lottery"]] != TABLE1_LOTTERY:
                errors.append("table1 lottery is not (1/6, 1/6, 2/3, 0)")
            if [p for _, _, p in parsed["allocation"]] != TABLE1_PERCENTS:
                errors.append("table1 allocation is not 25.0/26.7/30.0/18.3%")
            if parsed["unique"] is not True:
                errors.append("table1 lottery not reported unique")
            return errors
        e = command.expect
        if command.kind == "budget":
            return check_budget([f"c{i}" for i in range(e["m"])], e["groups"],
                                e["departments"], e["shares"], stdout)
        if command.kind == "lottery":
            return check_lottery_json(e["m"], e["groups"], stdout)
        return check_axiom_lines(e["lines"], stdout)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return [f"unreadable output: {exc!r}"]
