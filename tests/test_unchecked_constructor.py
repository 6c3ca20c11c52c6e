"""Only completion builds a ``Presentation`` without its checks.

``Presentation._unchecked`` skips ``__post_init__`` for rule sets that
completion makes from rules already validated; every other presentation,
those the tests and the benchmark build included, goes through the one
validating constructor.  This reads the syntax tree of every module of the
repository and lists where the name is read.
"""

import ast
from pathlib import Path

import srs

ROOT = Path(srs.__file__).resolve().parent.parent.parent


def _readers(source: str) -> list[int]:
    """The lines that read an attribute ``_unchecked``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "_unchecked"
    )


def test_only_completion_calls_the_unchecked_constructor():
    found = {
        path.relative_to(ROOT).as_posix()
        for folder in ("src", "tests", "srsbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if _readers(path.read_text(encoding="utf-8"))
    }
    assert found == {"src/srs/completion.py"}


def test_the_check_reads_attribute_uses_only():
    source = (
        "def _unchecked(cls): ...\n"
        "p = Presentation._unchecked(g, r, o)\n"
        "name = '_unchecked'\n"
        "make = q._unchecked\n"
    )
    assert _readers(source) == [2, 4]
