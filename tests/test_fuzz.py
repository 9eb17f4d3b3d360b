"""Hostile inputs for every CLI command, each run in its own child process.

Hypothesis writes random and adversarial ballot, proposal and matrix texts
(huge counts, long declarations, large exponents, malformed lines, bytes
that are not UTF-8) and flag values (zero, negative, far past every bound,
not a number).  Each example runs `ssbchoice.cli` in a fresh interpreter
under an address-space cap set in the child only, and must exit 0, 1 or
2 within the wall-time budget; exit 2 must print exactly one `error:`
line, and no run may print a traceback.
"""

import os
import random
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ssbchoice.ballots import MAX_INPUT_BYTES

from conftest import FIXTURES

SRC = Path(__file__).resolve().parent.parent / "src"
MEMORY_CAP = 1 << 30  # bytes of address space for each child
WALL_BUDGET = 10.0  # seconds per example
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
FUZZ = settings(max_examples=8, deadline=None, derandomize=True)


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_cli(argv, files=()):
    """Run the CLI on argv, in which "{k}" names the k-th of `files` (texts or
    bytes) written to a temporary directory; returns (code, stdout, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, content in enumerate(files):
            path = Path(tmp) / f"input{k}"
            if isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_text(content, encoding="utf-8")
            paths.append(str(path))
        argv = [str(a).format(*paths) for a in argv]
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "ssbchoice.cli", *argv],
            capture_output=True, text=True, errors="replace", env=CHILD_ENV,
            preexec_fn=_cap_memory, timeout=WALL_BUDGET,
        )
        elapsed = time.perf_counter() - start
    assert elapsed < WALL_BUDGET, (argv, elapsed)
    assert proc.returncode in (0, 1, 2), (argv, proc.returncode, proc.stderr)
    assert "Traceback" not in proc.stderr, (argv, proc.stderr)
    if proc.returncode == 2:
        errors = [line for line in proc.stderr.splitlines() if "error:" in line]
        assert len(errors) == 1, (argv, proc.stderr)
    return proc.returncode, proc.stdout, proc.stderr


# -- text pieces ------------------------------------------------------------
# Well-formed texts with adversarial sizes (huge counts, declarations near
# the 256-name bound, exponents at the 1000 bound), of which `hostile`
# then spoils some with one edit.

count = st.one_of(st.integers(1, 5), st.integers(10**9, 10**40)).map(str)
rational = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=12).map(str),
    st.sampled_from(["1e1000", "-1e1000", "1e-1000", "0.25", "1_000", "-0"]),
)
junk = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)
spoiler = st.one_of(
    st.sampled_from(["{", "}", ">", "=", ",", ":", "#", "-", "0", "\x00", "\t", "zz",
                     "x>y", "3/0", "1e1001", "2e999999999", "nan", "inf", "approve",
                     "util", "edges", "universe:", "\n"]),
    junk,
)


def declaration(draw, keyword, names=None):
    """A declaration line and its names: `names`, a few short ones, or
    hundreds, up to 300."""
    if names is None or draw(st.integers(0, 4)) == 4:
        if draw(st.integers(0, 4)) == 4:
            names = [f"n{i}" for i in range(draw(st.integers(200, 300)))]
        else:
            names = list("abcdef"[:draw(st.integers(1, 6))])
    return f"{keyword}: " + ", ".join(names), names


def ballot_text(draw):
    head, names = declaration(draw, draw(st.sampled_from(["universe", "alternatives"])))
    name = st.sampled_from(names)
    body = st.one_of(
        st.lists(st.tuples(st.sampled_from([" > ", " = "]), name), min_size=1,
                 max_size=8, unique_by=lambda p: p[1])
        .map(lambda pairs: "".join(s + n for s, n in pairs)[3:]),
        st.lists(name, max_size=6, unique=True)
        .map(lambda ns: "approve {" + ", ".join(ns) + "}"),
        st.lists(st.tuples(name, rational), max_size=6, unique_by=lambda p: p[0])
        .map(lambda ps: "util " + ", ".join(f"{n}={v}" for n, v in ps)),
        st.lists(st.tuples(name, name), max_size=6)
        .map(lambda ps: "edges " + ", ".join(f"{a}>{b}" for a, b in ps if a != b)),
    )
    lines = draw(st.lists(st.tuples(count, body).map(": ".join), min_size=1, max_size=5))
    return "\n".join([head, *lines]) + "\n"


def proposal_text(draw, names):
    """Columns over `names` (now and then others) that sum to exactly 1."""
    head, names = declaration(draw, "alternatives", names)
    k = draw(st.integers(1, 4))
    unit = st.fractions(min_value=0, max_value=1, max_denominator=20)
    columns = []
    for _ in names:
        cuts = sorted(draw(st.lists(unit, min_size=k - 1, max_size=k - 1)))
        columns.append([b - a for a, b in zip([0, *cuts], [*cuts, 1])])
    rows = [
        f"D{i}: " + " ".join(
            f"{x * 100}%" if (x * 100).denominator == 1 else str(x) for x in shares)
        for i, shares in enumerate(zip(*columns))
    ]
    return "\n".join([head, *rows]) + "\n"


def matrix_text(draw):
    """One to three skew-symmetric blocks, of at most six columns."""
    head, names = declaration(draw, "alternatives")
    m = min(len(names), 6)
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        upper = {(a, b): draw(rational) for a in range(m) for b in range(a + 1, m)}
        lines += [
            " ".join("0" if a == b else upper[a, b] if a < b else "-" + upper[b, a]
                     for b in range(m)).replace("--", "")
            for a in range(m)
        ]
    return "\n".join([head, *lines]) + "\n"


def hostile(draw, text, *args):
    """A well-formed text, or one spoiled by a single edit: a hostile token
    inserted anywhere, a line of junk, or bytes that are not UTF-8."""
    edit = draw(st.sampled_from(["none", "none", "token", "line", "bytes"]))
    if edit == "bytes":
        return draw(st.binary(max_size=60)) + b"\xff\xfe"
    text = text(draw, *args)
    if edit == "token":
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(spoiler) + text[at:]
    if edit == "line":
        lines = text.splitlines()
        lines.insert(draw(st.integers(0, len(lines))), draw(junk))
        return "\n".join(lines) + "\n"
    return text


def flag_value(cheap):
    """A cheap in-range value, or one that no bound admits."""
    return st.one_of(
        st.sampled_from(cheap),
        st.integers(-10**15, 0),
        st.integers(10**3, 10**15),
        st.sampled_from(["", "1e3", "0x10", "3.5", "--json"]),
    ).map(str)


# -- the tests --------------------------------------------------------------


@FUZZ
@given(st.data())
def test_ballot_commands(data):
    ballots = hostile(data.draw, ballot_text)
    command = data.draw(st.sampled_from(["aggregate", "maximal-lottery", "cycle-witness"]))
    json_flag = data.draw(st.sampled_from([[], ["--json"]]))
    run_cli([command, "{0}", *json_flag], [ballots])


@FUZZ
@given(st.data())
def test_budget(data):
    ballots, names = data.draw(st.sampled_from([("table1.ballots", list("ABCD")),
                                                ("condorcet.ballots", list("abc"))]))
    proposals = hostile(data.draw, proposal_text, names)
    run_cli(["budget", FIXTURES / ballots, "{0}"], [proposals])


@FUZZ
@given(st.data())
def test_audit_domain_file(data):
    matrices = hostile(data.draw, matrix_text)
    conditions = data.draw(st.sampled_from(["R1,R2,R3,R4,R5", "R5", " r2 , r4", "R9"]))
    run_cli(["audit-domain", "--file", "{0}", "--conditions", conditions], [matrices])


@FUZZ
@given(st.data())
def test_flag_values(data):
    command, flags = data.draw(st.sampled_from([
        ("check-axioms", {"--alternatives": ["2", "3"], "--agents": ["1", "3"],
                          "--samples": ["1", "5"], "--seed": ["0", "-7"]}),
        ("audit-domain", {"--alternatives": ["1", "3"], "--member-limit": ["1", "10"],
                          "--seed": ["2"]}),
        ("cycle-witness", {"--max-denominator": ["1", "6"]}),
        ("maximal-lottery", {"--max-enum": ["0", "4"]}),
    ]))
    argv = [command]
    if command in ("cycle-witness", "maximal-lottery"):
        argv.append(FIXTURES / "condorcet.ballots")
    for flag in data.draw(st.lists(st.sampled_from(sorted(flags)), min_size=1,
                                   max_size=3, unique=True)):
        argv += [flag, data.draw(flag_value(flags[flag]))]
    run_cli(argv)


# -- the byte bound on every input file ----------------------------------------

COUNT_READS = """
import sys
from ssbchoice import cli

reads = []


class Counted:
    # the file `cli._read` opens, with each read counted
    def __init__(self, file):
        self.file = file

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()

    def fileno(self):
        return self.file.fileno()

    def read(self, *args):
        reads.append(args)
        return self.file.read(*args)


cli.open = lambda *args, **kwargs: Counted(open(*args, **kwargs))
code = cli.main(sys.argv[1:])
print(code, len(reads))
"""


def over_bound(path):
    return f"error: {path} has more than {MAX_INPUT_BYTES} bytes, the most an input file may hold\n"


def test_a_file_over_the_byte_bound_is_refused_unread(tmp_path):
    path = tmp_path / "over.ballots"
    with open(path, "wb") as file:
        file.truncate(MAX_INPUT_BYTES + 1)  # sparse: no bytes need writing

    def counted_run(*argv):
        return subprocess.run([sys.executable, "-c", COUNT_READS, *argv], capture_output=True,
                              text=True, env=CHILD_ENV, preexec_fn=_cap_memory, timeout=WALL_BUDGET)

    # the count sees the one read of a file within the bound
    within = counted_run("aggregate", "--json", str(FIXTURES / "condorcet.ballots"))
    assert within.stdout.splitlines()[-1] == "0 1"
    start = time.perf_counter()
    proc = counted_run("maximal-lottery", str(path))
    assert time.perf_counter() - start < 1.0
    assert proc.stdout == "2 0\n"
    assert proc.stderr == over_bound(path)


def test_a_device_with_no_size_is_read_only_to_the_bound():
    # /dev/zero reports size 0 and never ends: reading stops one byte past the bound
    code, _, err = run_cli(["maximal-lottery", "/dev/zero"])
    assert (code, err) == (2, over_bound("/dev/zero"))


def test_a_pipe_within_the_bound_reads_as_the_file():
    path = FIXTURES / "condorcet.ballots"
    piped = subprocess.run([sys.executable, "-m", "ssbchoice.cli", "maximal-lottery", "/dev/stdin"],
                           input=path.read_bytes(), capture_output=True, env=CHILD_ENV,
                           preexec_fn=_cap_memory, timeout=WALL_BUDGET)
    code, out, _ = run_cli(["maximal-lottery", path])
    assert (piped.returncode, piped.stdout.decode("utf-8"), piped.stderr) == (code, out, b"")
    assert code == 0


def test_a_file_at_the_byte_bound_completes():
    # three weak orders in turn, each parsed once however often it repeats
    head = "universe: a, b, c, d\n"
    cycle = "1: a > b > c\n2: d = c > a\n3: b\n"
    text = head + cycle * ((MAX_INPUT_BYTES - len(head)) // len(cycle))
    text += "#" * (MAX_INPUT_BYTES - len(text) - 1) + "\n"
    assert len(text.encode("utf-8")) == MAX_INPUT_BYTES
    code, out, _ = run_cli(["maximal-lottery", "{0}"], [text])
    assert code == 0
    assert out.startswith("Maximal lottery:\n")


def _exponent_utility_ballots(seed: int = 0, n: int = 130) -> str:
    """n distinct vNM ballots at m=3 with utilities like `417e-953`: their
    normalized sum has entries of more digits than Python prints."""
    rng = random.Random(seed)
    lines = ["universe: a, b, c"]
    for _ in range(n):
        a, b, c = (f"{rng.randint(1, 999)}e-{rng.randint(900, 1000)}" for _ in range(3))
        lines.append(f"1: util a={a}, b={b}, c={c}")
    return "\n".join(lines) + "\n"


# two counts of 4 300 nines: each is a readable literal, their sum is not
_HUGE_COUNTS = f"universe: a, b\n{'9' * 4300}: a > b\n{'9' * 4300}: b > a\n"


@pytest.mark.parametrize("argv, text", [
    *[(argv, _exponent_utility_ballots()) for argv in (
        ["aggregate"], ["aggregate", "--json"], ["maximal-lottery"],
        ["maximal-lottery", "--json"])],
    (["aggregate"], _HUGE_COUNTS), (["aggregate", "--json"], _HUGE_COUNTS),
])
def test_a_number_over_the_digit_limit_is_refused_with_empty_stdout(tmp_path, argv, text):
    path = tmp_path / "input.ballots"
    path.write_text(text, encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "ssbchoice.cli", *argv, str(path)],
                          capture_output=True, text=True, env=CHILD_ENV,
                          preexec_fn=_cap_memory, timeout=WALL_BUDGET)
    limit = sys.get_int_max_str_digits()
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (f"error: a number to print has more than {limit} digits, "
                           "Python's limit for converting an int to text\n")
