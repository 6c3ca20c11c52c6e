"""Only ``rewrite._descent`` keeps ``_scan``'s stack of automaton states.

``_scan`` reads on from the last state of a stack that stays right only if
it is cut or restarted after each step exactly as ``_descent`` does it.
This reads the syntax tree of every module under ``src/srs/`` and lists the
functions that name ``_scan`` and the modules that import it.
"""

import ast
from pathlib import Path

import srs

SRC = Path(srs.__file__).resolve().parent


def _users(source: str) -> set[str]:
    """The innermost functions that name ``_scan``, as a variable or an
    attribute; "<module>" for a use outside every function."""
    found = set()

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", "<lambda>"))
                continue
            if (isinstance(child, ast.Name) and child.id == "_scan") or (
                isinstance(child, ast.Attribute) and child.attr == "_scan"
            ):
                found.add(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def _imports(source: str) -> bool:
    """Whether the module imports a name ``_scan``."""
    return any(
        isinstance(node, (ast.Import, ast.ImportFrom))
        and any(alias.name.rpartition(".")[2] == "_scan" for alias in node.names)
        for node in ast.walk(ast.parse(source))
    )


def test_only_the_descent_calls_the_scan():
    users, importers = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        users |= {f"{path.stem}.{owner}" for owner in _users(source)}
        if _imports(source):
            importers.add(path.stem)
    assert users == {"rewrite._descent"}
    assert importers == set()


def test_the_check_finds_every_use_and_import():
    source = (
        "from .rewrite import _scan, normal_form\n"
        "import srs.rewrite._scan\n"
        "def _scan(word): ...\n"
        "def descend(word):\n"
        "    def inner():\n"
        "        return rewrite._scan(word)\n"
        "    scan = _scan\n"
        "    name = '_scan'\n"
        "table = {'scan': _scan}\n"
        "later = lambda: _scan(())\n"
    )
    assert _users(source) == {"inner", "descend", "<module>", "<lambda>"}
    assert _imports(source)
    assert not _imports("from .rewrite import _descent\nimport srs.rewrite\n")
