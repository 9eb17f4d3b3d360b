"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "ssbchoice").glob("*.py"))


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
