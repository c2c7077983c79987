"""The test suite's own layout: where shared helpers come from, that every
test the library's docstrings cite exists, and that the library needs
nothing outside the standard library and imports no module it can do without."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def parsed(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_test_module_imports_another():
    """Shared helpers come from `reference`, `conftest` or `dispatch_corpus`,
    never from a `test_*` module, at module level or inside a function."""
    offenders = [
        (path.name, name)
        for path in sorted(TESTS.glob("*.py"))
        for name in imported_modules(parsed(path))
        if name.split(".")[0].startswith("test_")
    ]
    assert offenders == []


def test_tests_cited_under_src_exist():
    defined = {
        node.name
        for path in TESTS.glob("*.py")
        for node in ast.walk(parsed(path))
        if isinstance(node, ast.FunctionDef)
    }
    missing = [
        (path.relative_to(SRC).as_posix(), name)
        for path in sorted(SRC.rglob("*.py"))
        for name in re.findall(r"\btest_\w+", path.read_text(encoding="utf-8"))
        if name not in defined
    ]
    assert missing == []


def test_library_imports_only_the_standard_library():
    """Every import under `src/` is relative or names a standard-library
    module, and `pyproject.toml` declares no runtime dependency."""
    outside = [
        (path.relative_to(SRC).as_posix(), name)
        for path in sorted(SRC.rglob("*.py"))
        for name in imported_modules(parsed(path))
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []
    pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]$", pyproject, re.MULTILINE)


def test_library_does_not_import_dataclasses():
    """The record types are `NamedTuple`s and plain classes: `dataclasses`
    imports `inspect` and builds each class's methods with `exec` when its
    module loads, a cost that every fresh `twobytwo` process would pay."""
    users = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if "dataclasses" in {name.split(".")[0] for name in imported_modules(parsed(path))}
    ]
    assert users == []


def test_fresh_import_loads_neither_dataclasses_nor_inspect():
    program = (
        "import sys, twobytwo.cli, twobytwo.verify, twobytwo.render\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", program],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
