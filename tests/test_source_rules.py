"""Rules on the source text itself, checked on each file's syntax tree."""

import ast
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TEST_FILES = [*sorted((ROOT / "tests").glob("*.py")),
              ROOT / "bench" / "test_bench.py"]
MODULES = sorted((ROOT / "src" / "semilab").glob("*.py"))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


@cache
def parsed(path):
    """The file's lines and its syntax tree, parsed once per file."""
    text = path.read_text()
    return text.splitlines(), ast.parse(text, str(path))


def test_no_duplicate_test_names():
    # a later "def test_x" in the same scope silently replaces the earlier
    # one, so that test never runs and the count still matches
    bad = []
    for path in TEST_FILES:
        for scope in ast.walk(parsed(path)[1]):
            if not isinstance(scope, (ast.Module, ast.ClassDef, *DEFS)):
                continue
            seen = {}
            for node in scope.body:
                if isinstance(node, DEFS) and node.name.startswith("test_"):
                    if node.name in seen:
                        bad.append(f"{path}:{node.lineno} redefines "
                                   f"{node.name} from line {seen[node.name]}")
                    seen.setdefault(node.name, node.lineno)
    assert bad == []


def test_no_private_names_across_modules():
    # a module under src/semilab imports no underscore name from a sibling
    # module: each keeps its internals to itself
    bad = [f"{path}:{node.lineno} imports {alias.name}"
           for path in MODULES
           for node in ast.walk(parsed(path)[1])
           if isinstance(node, ast.ImportFrom) and node.level >= 1
           for alias in node.names if alias.name.startswith("_")]
    assert bad == []


def test_no_unused_imports():
    # every name a module under src/semilab imports is used in that module,
    # unless the alias's own line says "# noqa: F401"; __init__.py
    # re-exports and from __future__ are exempt (alias.lineno needs
    # Python 3.10)
    bad = []
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        lines, tree = parsed(path)
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        bad += [f"{path}:{alias.lineno} imports {alias.name} and never uses it"
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and not (isinstance(node, ast.ImportFrom)
                         and node.module == "__future__")
                for alias in node.names
                if (alias.asname or alias.name.split(".")[0]) not in used
                and "# noqa: F401" not in lines[alias.lineno - 1]]
    assert bad == []
