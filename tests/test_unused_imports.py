"""Every name a module of ``srs`` imports is used in that module.

No linter ships with the project, so this reads each module's syntax tree.
``__init__.py`` is left out, as it imports names to export them.  An
annotation written as a string counts as a use of the names in it.
"""

import ast
from pathlib import Path

import srs

SOURCES = Path(srs.__file__).resolve().parent

# re-exports that code outside ``srs`` imports from the module
RE_EXPORTS = {
    # srsbench/tests/test_srsbench.py::test_tracing_srs_counts_and_restores
    ("completion", "normalize"),
}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name bound by an import, with its line."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            yield from (arg.annotation for arg in every if arg is not None and arg.annotation)
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    """The names the module reads, those in string annotations included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    return used


def _unused(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = _used(tree)
    return sorted((name, line) for name, line in _imported(tree).items() if name not in used)


def test_no_module_imports_a_name_it_does_not_use():
    """The only unused imports are the listed re-exports, and each of them
    is still there."""
    found: dict[tuple[str, str], int] = {}
    for path in sorted(SOURCES.glob("*.py")):
        if path.name != "__init__.py":
            for name, line in _unused(path.read_text(encoding="utf-8")):
                found[path.stem, name] = line
    assert set(found) == RE_EXPORTS, found


def test_the_check_reads_uses_and_string_annotations():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from a import B, C, D as E, F\n"
        "def f(x: 'B') -> None:\n"
        "    return os.path.join(C)\n"
    )
    assert _unused(source) == [("E", 3), ("F", 3)]
