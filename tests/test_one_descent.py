"""Only ``rewrite._descent`` keeps ``_scan``'s stack of automaton states.

``_scan`` reads on from the last state of a stack that stays right only if
it is cut or restarted after each step exactly as ``_descent`` does it.
This reads the syntax tree of every module under ``src/srs/`` and lists the
functions that name ``_scan`` and the modules that import it.
"""

from source_tree import imports, sources, users


def test_only_the_descent_calls_the_scan():
    found = {
        f"{module}.{owner}" for module, source in sources().items() for owner in users(source, "_scan")
    }
    assert found == {"rewrite._descent"}
    assert [module for module, source in sources().items() if imports(source, "_scan")] == []


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
    assert users(source, "_scan") == {"inner", "descend", "<module>", "<lambda>"}
    assert imports(source, "_scan")
    assert not imports("from .rewrite import _descent\nimport srs.rewrite\n", "_scan")
