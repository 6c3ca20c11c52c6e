"""Every ``Presentation`` the library builds passes ``__post_init__``.

Completion reduces against ``IndexAutomaton`` values, so nothing needs a
presentation built without its checks.  This reads the syntax tree of every
module under ``src/srs/`` and lists the lines that name ``_unchecked`` or
call ``__new__`` on, or for, ``Presentation``.
"""

import ast
from pathlib import Path

import srs

SRC = Path(srs.__file__).resolve().parent


def _bypasses(source: str) -> list[int]:
    """The lines that name ``_unchecked`` (as a variable, an attribute, a
    definition or an import) or call ``Presentation.__new__`` or
    ``X.__new__(Presentation)``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.alias)):
            name = node.name.rpartition(".")[2]
        if name == "_unchecked":
            found.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__new__"
            and any(
                isinstance(part, ast.Name) and part.id == "Presentation"
                for part in (node.func.value, *node.args[:1])
            )
        ):
            found.append(node.lineno)
    return sorted(found)


def test_no_module_builds_a_presentation_without_its_checks():
    found = {
        path.relative_to(SRC).as_posix(): lines
        for path in sorted(SRC.rglob("*.py"))
        if (lines := _bypasses(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_the_check_finds_every_bypass():
    source = (
        "def _unchecked(cls): ...\n"
        "p = Presentation._unchecked(g, r, o)\n"
        "name = '_unchecked'\n"
        "make = _unchecked\n"
        "q = Presentation.__new__(Presentation)\n"
        "q = object.__new__(Presentation)\n"
        "path = Path.__new__(Path)\n"
        "r = Presentation(g, r, o)\n"
        "from .presentation import _unchecked\n"
    )
    assert _bypasses(source) == [1, 2, 4, 5, 6, 9]
