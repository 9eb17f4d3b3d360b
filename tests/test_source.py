"""Checks on the package source itself."""

import ast
import inspect
from collections import Counter
from pathlib import Path

import pytest

import ssbchoice.axioms
import ssbchoice.ballots
import ssbchoice.solver
from ssbchoice.model import _FrozenValue

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "ssbchoice").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_runtime_assert(path):
    # `python -O` strips assert statements, so no invariant may rest on one
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []


_REGEX_CALLS = {"match", "search", "fullmatch", "sub", "split", "findall", "compile"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_regex_compiled_inside_a_function(path):
    # `re.match(r"...", s)` in a function body compiles its pattern on the
    # first call of every process, inside a command's run time; patterns
    # belong in module-level constants
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    calls = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(function):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"
                    and node.func.attr in _REGEX_CALLS):
                patterns = node.args[:1] + [k.value for k in node.keywords if k.arg == "pattern"]
                if any(isinstance(x, ast.Constant) for x in patterns):
                    calls.append((node.lineno, node.func.attr))
    assert calls == []


def test_cli_reads_no_private_name_through_a_module():
    # the commands reach the other modules through their public names: a
    # read such as `axioms._x` would tie a command to a helper's body
    tree = ast.parse((ROOT / "src" / "ssbchoice" / "cli.py").read_text(encoding="utf-8"))
    modules = {path.stem for path in SOURCES}
    bound = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module in (None, "ssbchoice")
             for alias in node.names if alias.name in modules}
    reads = sorted(f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in bound and node.attr.startswith("_"))
    assert "axioms" in bound and reads == []


# Public names that no command, demo or benchmark reaches, each kept for the
# tests that use it as an oracle or a seeded generator
SURFACE_ALLOWED = {
    "restrict": "the restriction oracle of the axiom, ssb and property suites",
    "is_maximal": "the maximality oracle of the acceptance and solver suites",
    "random_ssb_matrix": "the seeded generator of arbitrary SSB matrices",
    "pc_matrices": "every PC matrix in entry order, for the aggregate and axiom suites",
    "SSBMatrix.relabel": "the neutrality oracle for collective matrices",
    "BaseRelation.relabel": "the neutrality oracle for agents",
}


def _references(node) -> Counter:
    """How often each identifier is read below node: names, attributes and
    import aliases."""
    seen = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            seen[n.id] += 1
        elif isinstance(n, ast.Attribute):
            seen[n.attr] += 1
        elif isinstance(n, ast.alias):
            seen[n.name.rpartition(".")[2]] += 1
    return seen


def _public_definitions(tree):
    """(qualified name, node) for each public module-level function or class
    and each public non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


# Module-level private names that no command, demo or benchmark reaches, each
# kept for the tests that use it as an oracle
PRIVATE_ALLOWED: dict[str, str] = {}


def _private_definitions(tree):
    """(name, node) for each private module-level function or class."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
                and not node.name.startswith("__")):
            yield node.name, node


def _reads_and_definitions(definitions):
    """How often each identifier is read in the program modules (not
    `__init__`, which only re-exports), the demos and the benchmark, and the
    program modules' `definitions(tree)`."""
    program = [path for path in SOURCES if path.name != "__init__.py"]
    readers = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    reads = Counter()
    found = []
    for path in program + readers:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        reads += _references(tree)
        if path in program:
            found += definitions(tree)
    return reads, found


def test_every_private_name_is_reached():
    # A private helper that only its own body (recursion) or the tests read
    # is dead program code, unless it is listed as a test oracle
    reads, definitions = _reads_and_definitions(_private_definitions)
    unreached = {name for name, node in definitions
                 if reads[name] == _references(node)[name]}
    assert sorted(unreached - PRIVATE_ALLOWED.keys()) == []
    assert sorted(PRIVATE_ALLOWED.keys() - unreached) == []


def test_every_public_name_is_reached():
    # The surface is what the commands, demos and benchmark use; `__init__`
    # only re-exports.  A method counts as reached when an attribute of its
    # name is read anywhere: the scan knows no types.
    reads, definitions = _reads_and_definitions(_public_definitions)
    unreached = set()
    for name, node in definitions:
        short = name.rpartition(".")[2]
        if reads[short] == _references(node)[short]:
            unreached.add(name)
    assert sorted(unreached - SURFACE_ALLOWED.keys()) == []
    # an entry that is reached, or defined no more, leaves the list
    assert sorted(SURFACE_ALLOWED.keys() - unreached) == []


# Constructor parameters that are no field of the value, by class: a
# handle's memo (None), and a profile's agents, stored as their runs
NOT_FIELDS = {"SWFHandle": {"_cache": None}, "Profile": {"agents": "runs"}}


def test_every_constructor_parameter_is_a_field():
    # equality, hashing and repr read `_FIELDS` alone, so a value a
    # hand-written constructor takes but `_FIELDS` leaves out would drop
    # out of them without an error
    classes, pending = [], [_FrozenValue]
    while pending:
        cls = pending.pop()
        pending += cls.__subclasses__()
        if "_FIELDS" in vars(cls):
            classes.append(cls)
        else:
            assert cls.__subclasses__(), f"{cls.__name__} names no fields"
    for cls in classes:
        renamed = NOT_FIELDS.get(cls.__name__, {})
        params = list(inspect.signature(cls.__init__).parameters)[1:]
        fields = tuple(renamed.get(p, p) for p in params if renamed.get(p, p) is not None)
        assert cls._FIELDS == fields, cls.__name__
    assert len(classes) == 18
    assert {"Lottery", "SSBMatrix", *NOT_FIELDS} <= {cls.__name__ for cls in classes}
