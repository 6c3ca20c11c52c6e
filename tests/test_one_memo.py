"""A convergent presentation keeps one memo of normal forms: its table of
classes, which only ``critical._classes`` names in ``p._cache``.  No module
under ``src/srs/`` calls ``rewrite.normal_form``, which keeps nothing, and
only the package's ``__init__`` imports it, to export it.  This reads the
syntax tree of every module under ``src/srs/``.
"""

import ast
from pathlib import Path

import srs

SRC = Path(srs.__file__).resolve().parent


def _owners(source: str) -> tuple[set[str], set[str]]:
    """The innermost functions that name the key ``"classes"`` and those
    that call a ``normal_form``, as a function or an attribute; "<module>"
    for a use outside every function."""
    keys, calls = set(), set()

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", "<lambda>"))
                continue
            if isinstance(child, ast.Constant) and child.value == "classes":
                keys.add(owner)
            if isinstance(child, ast.Call) and (
                getattr(child.func, "id", None) == "normal_form"
                or getattr(child.func, "attr", None) == "normal_form"
            ):
                calls.add(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return keys, calls


def _imports_normal_form(source: str) -> bool:
    return any(
        isinstance(node, (ast.Import, ast.ImportFrom))
        and any(alias.name.rpartition(".")[2] == "normal_form" for alias in node.names)
        for node in ast.walk(ast.parse(source))
    )


def test_only_the_reader_keeps_normal_forms():
    keys, calls, importers = set(), set(), set()
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        found_keys, found_calls = _owners(source)
        keys |= {f"{path.stem}.{owner}" for owner in found_keys}
        calls |= {f"{path.stem}.{owner}" for owner in found_calls}
        if _imports_normal_form(source):
            importers.add(path.stem)
    assert keys == {"critical._classes"}
    assert calls == set()
    assert importers == {"__init__"}


def test_the_check_finds_every_key_call_and_import():
    source = (
        "from .rewrite import _reduce, normal_form\n"
        "def words_equal(u, v, p):\n"
        "    table = p._cache.get('classes')\n"
        "    def inner():\n"
        "        return rewrite.normal_form(p, u)\n"
        "    return normal_form(p, v)\n"
        "KEY = 'classes'\n"
        "later = lambda p: p._cache['classes']\n"
        "name = 'normal_form'\n"
        "def classes(p): 'the classes'\n"
    )
    assert _owners(source) == ({"words_equal", "<module>", "<lambda>"}, {"inner", "words_equal"})
    assert _imports_normal_form(source)
    assert not _imports_normal_form("from .rewrite import _reduce\nimport srs.rewrite\n")
    assert _owners("table.form(w)\nnormal_forms = {}\n") == (set(), set())
