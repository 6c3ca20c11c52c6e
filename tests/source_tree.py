"""One reader of the syntax trees of the modules under ``src/srs/``, for the
tests that guard the package's structure."""

import ast
from collections.abc import Iterator
from pathlib import Path

import srs

SRC = Path(srs.__file__).resolve().parent


def sources() -> dict[str, str]:
    """The source of every module of ``srs``, subpackages included, by its
    dotted name under ``srs`` ("critical", or "sub.module" in a subpackage)."""
    return {
        ".".join(path.relative_to(SRC).with_suffix("").parts): path.read_text(encoding="utf-8")
        for path in sorted(SRC.rglob("*.py"))
    }


def owned_nodes(source: str) -> Iterator[tuple[str, ast.AST]]:
    """Every node of the source in order, with the name of the innermost
    function around it: "<lambda>" in a lambda, "<module>" outside every
    function.  A function's decorators and defaults count as inside it."""

    def visit(node: ast.AST, owner: str) -> Iterator[tuple[str, ast.AST]]:
        for child in ast.iter_child_nodes(node):
            yield owner, child
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield from visit(child, getattr(child, "name", "<lambda>"))
            else:
                yield from visit(child, owner)

    return visit(ast.parse(source), "<module>")


def named(node: ast.AST) -> str | None:
    """The name a variable or an attribute node reads or writes; None for
    any other node."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def users(source: str, name: str) -> set[str]:
    """The innermost functions that name ``name``, as a variable or an
    attribute (a definition or an import alone names nothing)."""
    return {owner for owner, node in owned_nodes(source) if named(node) == name}


def imports(source: str, name: str) -> bool:
    """Whether the source imports a name ``name``, alone or at the end of a
    dotted path."""
    return any(
        isinstance(node, (ast.Import, ast.ImportFrom))
        and any(alias.name.rpartition(".")[2] == name for alias in node.names)
        for node in ast.walk(ast.parse(source))
    )
