"""Static checks of the package source: no unused imports, no unused
private module-level names or attributes, no exception class that is
never raised, a ``cli`` docstring that lists exactly the exit codes
the module defines, no exit code that ``cli`` defines but never
returns, no module but ``cli`` that touches the garbage collector, and
no ``assert`` statement.
Only the stdlib ``ast`` module reads the code; nothing is imported or run.
"""

from __future__ import annotations

import ast
import builtins
import re
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dspaths"
MODULES = sorted(PACKAGE.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}


def loaded_names(tree: ast.AST) -> Counter[str]:
    """Names the code reads, bare or as attributes, with their counts."""
    names: Counter[str] = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def imported_names(tree: ast.Module) -> set[str]:
    """Names that the module's import statements bind, ``__future__``
    features aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {a.asname or a.name for a in node.names}
    return names


def private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Module-level functions, classes and assignments named ``_x``."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    return {n: node for n, node in names.items() if n[0] == "_" and n[:2] != "__"}


def unreferenced(trees: list[ast.Module]) -> set[str]:
    """Private names that no code reads outside their own definition, so
    a function that only calls itself counts as unused."""
    used = sum(map(loaded_names, trees), Counter())
    return {
        n
        for tree in trees
        for n, node in private_definitions(tree).items()
        if used[n] == loaded_names(node)[n]
    }


def stored_private_attributes(trees: list[ast.Module]) -> set[str]:
    """Attributes named ``_x`` that the code assigns on ``self``."""
    return {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr[0] == "_"
        and node.attr[:2] != "__"
    }


def read_attributes(trees: list[ast.Module]) -> set[str]:
    """Attribute names that the code reads, on any object."""
    return {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def exception_classes(trees: list[ast.Module]) -> set[str]:
    """Classes that derive, directly or through each other, from a
    builtin exception."""
    bases = {
        node.name: {_name(base) for base in node.bases}
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }

    def is_exception(name: str | None) -> bool:
        builtin = getattr(builtins, name or "", None)
        return isinstance(builtin, type) and issubclass(builtin, BaseException)

    found: set[str] = set()
    while True:
        more = {
            c for c, names in bases.items()
            if any(n in found or is_exception(n) for n in names)
        }
        if more == found:
            return found
        found = more


def raised_names(trees: list[ast.Module]) -> set[str]:
    """Names that some ``raise`` statement raises, called or bare."""
    return {
        _name(node.exc)
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
    }


def documented_exit_codes(tree: ast.Module) -> set[tuple[str, int | None]]:
    """(name, code) for each ``EXIT_X`` that the module docstring names,
    as "N ``EXIT_X``", or with code None where no number precedes it."""
    doc = ast.get_docstring(tree) or ""
    return {
        (name, int(code) if code else None)
        for code, name in re.findall(r"(?:(\d+)\s+)?``(EXIT_\w+)``", doc)
    }


def defined_exit_codes(tree: ast.Module) -> set[tuple[str, int]]:
    """(name, code) for each module-level ``EXIT_X = N``."""
    return {
        (target.id, node.value.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.startswith("EXIT_")
    }


def returned_names(tree: ast.Module) -> set[str]:
    """Names that some ``return`` statement reads, anywhere in its value."""
    return {
        node.id
        for ret in ast.walk(tree)
        if isinstance(ret, ast.Return) and ret.value is not None
        for node in ast.walk(ret.value)
        if isinstance(node, ast.Name)
    }


def gc_uses(tree: ast.Module) -> set[int]:
    """Lines that import the ``gc`` module or read a name ``gc``."""
    return {
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "gc"
        or isinstance(node, ast.Name) and node.id == "gc"
    }


def assert_lines(tree: ast.Module) -> set[int]:
    """Lines that hold an ``assert`` statement."""
    return {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)}


# The package's __init__ imports to re-export, so its names are used by
# importing them.
@pytest.mark.parametrize("name", sorted(set(TREES) - {"__init__.py"}))
def test_no_unused_imports(name):
    tree = TREES[name]
    assert imported_names(tree) - set(loaded_names(tree)) == set()


def test_private_names_referenced():
    assert unreferenced(list(TREES.values())) == set()


def test_checks_catch_leftovers():
    tree = ast.parse(
        "import math\nfrom typing import Iterator, Sequence\n"
        "def _compositions(n): return _compositions(n - 1) if n else ()\n"
        "def f(x: Sequence[int]) -> None: pass\n"
    )
    assert imported_names(tree) - set(loaded_names(tree)) == {"math", "Iterator"}
    assert unreferenced([tree]) == {"_compositions"}


def test_private_attributes_read():
    trees = list(TREES.values())
    assert stored_private_attributes(trees) - read_attributes(trees) == set()


def test_attribute_check_catches_leftovers():
    tree = ast.parse(
        "class Tables:\n"
        "    def __init__(self, charges):\n"
        "        self._charges, self._prefix = charges, [{0: None}]\n"
        "        self.public = None\n"
        "    def charge(self, aid):\n"
        "        return self._charges[aid]\n"
    )
    trees = [tree]
    assert stored_private_attributes(trees) == {"_charges", "_prefix"}
    assert stored_private_attributes(trees) - read_attributes(trees) == {"_prefix"}


def test_exception_classes_raised():
    trees = list(TREES.values())
    assert exception_classes(trees) - raised_names(trees) == set()


def test_exception_check_catches_leftovers():
    tree = ast.parse(
        "class BuildError(RuntimeError): pass\n"
        "class ParseError(ValueError): pass\n"
        "class LineError(ParseError): pass\n"
        "class Helper: pass\n"
        "def f(x):\n"
        "    if x: raise ParseError('bad')\n"
        "    raise ValueError\n"
    )
    classes = exception_classes([tree])
    assert classes == {"BuildError", "ParseError", "LineError"}
    assert classes - raised_names([tree]) == {"BuildError", "LineError"}


def test_cli_docstring_lists_its_exit_codes():
    tree = TREES["cli.py"]
    assert defined_exit_codes(tree)
    assert documented_exit_codes(tree) == defined_exit_codes(tree)


def test_exit_code_check_catches_leftovers():
    tree = ast.parse(
        '"""Exit codes: 0 ``EXIT_YES`` yes, 3 ``EXIT_HEDGED`` hedged no,\n'
        '``EXIT_NO`` no."""\n'
        "EXIT_YES = 0\nEXIT_NO = 1\nEXIT_TOO_LARGE = 4\n"
    )
    documented, defined = documented_exit_codes(tree), defined_exit_codes(tree)
    assert documented - defined == {("EXIT_HEDGED", 3), ("EXIT_NO", None)}
    assert defined - documented == {("EXIT_NO", 1), ("EXIT_TOO_LARGE", 4)}


def test_cli_returns_every_exit_code():
    tree = TREES["cli.py"]
    defined = {name for name, _ in defined_exit_codes(tree)}
    assert defined - returned_names(tree) == set()


def test_returned_exit_code_check_catches_leftovers():
    tree = ast.parse(
        "EXIT_YES = 0\nEXIT_NO = 1\nEXIT_HEDGED = 3\nEXIT_TOO_LARGE = 4\n"
        "def run(ok, big):\n"
        "    if big:\n"
        "        code = EXIT_TOO_LARGE\n"
        "        return code\n"
        "    return EXIT_YES if ok else EXIT_NO\n"
    )
    defined = {name for name, _ in defined_exit_codes(tree)}
    assert defined - returned_names(tree) == {"EXIT_HEDGED", "EXIT_TOO_LARGE"}


def test_only_cli_touches_the_collector():
    # run_cli owns the process, so it alone may pause the collector; the
    # library functions keep no global side effect.
    assert {name for name, tree in TREES.items() if gc_uses(tree)} == {"cli.py"}


def test_collector_check_catches_leftovers():
    tree = ast.parse(
        "import gc as collector\nfrom gc import disable\nimport heapq\n"
        "def build(g):\n    gc.freeze()\n    return g.gc\n"
    )
    assert gc_uses(tree) == {1, 2, 5}


def test_no_asserts():
    # solve's verify_certificate is the one runtime self-check, and
    # python -O runs the same code as python.
    assert {name: assert_lines(tree) for name, tree in TREES.items()} == {
        name: set() for name in TREES
    }


def test_assert_check_catches_leftovers():
    tree = ast.parse(
        "def reconstruct(path):\n"
        "    if not path:\n"
        "        raise AssertionError('empty')\n"
        "    assert path[0] == 1, 'starts at s'\n"
        "    return [p for p in path if p]\n"
    )
    assert assert_lines(tree) == {4}
