"""The modules under ``src/srs/`` form layers, and each imports only the
layers below its own:

    errors < presentation < rewrite < track < critical
           < completion, abelian < transport < cli

``completion`` and ``abelian`` share a layer, so neither imports the other.
The package's ``__init__`` re-exports the layers and is none of them; no
module imports it.  Every import sits at module level.  This reads the
syntax tree of every module, function bodies included.
"""

import ast

from source_tree import named, owned_nodes, sources

SOURCES = {name: source for name, source in sources().items() if name != "__init__"}
MODULES = set(SOURCES)
LAYERS = (
    ("errors",),
    ("presentation",),
    ("rewrite",),
    ("track",),
    ("critical",),
    ("completion", "abelian"),
    ("transport",),
    ("cli",),
)
RANK = {name: rank for rank, names in enumerate(LAYERS) for name in names}


def _imports(source: str) -> list[tuple[str, bool]]:
    """Every module the source imports, in order, as ``(absolute dotted
    name, inside a function)``.  A relative import names a module of
    ``srs``; ``from . import x`` names the module ``srs.x`` when there is
    one, else the package ``srs``, which holds the name."""
    found = []
    for owner, node in owned_nodes(source):
        in_function = owner != "<module>"
        if isinstance(node, ast.Import):
            found.extend((alias.name, in_function) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = f"srs.{node.module}" if node.level and node.module else node.module or "srs"
            if module == "srs":
                found.extend(
                    (f"srs.{alias.name}" if alias.name in MODULES else "srs", in_function)
                    for alias in node.names
                )
            else:
                found.append((module, in_function))
    return found


def _violations(module: str, source: str) -> list[str]:
    """The imports of ``srs`` modules that do not lie in a layer below
    ``module``'s, as ``"<module> imports <layer>"``."""
    out = []
    for name, _ in _imports(source):
        if name != "srs" and not name.startswith("srs."):
            continue
        target = name.split(".")[1] if "." in name else "__init__"
        if target not in RANK or RANK[target] >= RANK[module]:
            out.append(f"{module} imports {target}")
    return out


def test_every_module_has_a_layer():
    assert MODULES == set(RANK)


def test_each_module_imports_only_lower_layers():
    assert [v for module, source in SOURCES.items() for v in _violations(module, source)] == []


def test_no_module_imports_inside_a_function():
    assert [
        f"{module} imports {name}"
        for module, source in SOURCES.items()
        for name, in_function in _imports(source)
        if in_function
    ] == []


def test_the_check_finds_every_import():
    source = (
        "import re\n"
        "from . import abelian, Path\n"
        "from .rewrite import normalize\n"
        "import srs.track\n"
        "from srs.critical import is_convergent\n"
        "from srs import cli\n"
        "class Outer:\n"
        "    from .errors import FuelError\n"
        "def words_equal(u, v, p):\n"
        "    from .critical import _require_convergent\n"
        "    import json\n"
        "    class Inner:\n"
        "        from . import transport\n"
        "    return lambda: None\n"
    )
    assert _imports(source) == [
        ("re", False),
        ("srs.abelian", False),
        ("srs", False),
        ("srs.rewrite", False),
        ("srs.track", False),
        ("srs.critical", False),
        ("srs.cli", False),
        ("srs.errors", False),
        ("srs.critical", True),
        ("json", True),
        ("srs.transport", True),
    ]
    assert _violations("rewrite", source) == [
        "rewrite imports abelian",
        "rewrite imports __init__",
        "rewrite imports rewrite",
        "rewrite imports track",
        "rewrite imports critical",
        "rewrite imports cli",
        "rewrite imports critical",
        "rewrite imports transport",
    ]
    assert _violations("abelian", "from .completion import knuth_bendix\n") == ["abelian imports completion"]
    assert _violations("cli", source) == ["cli imports __init__", "cli imports cli"]


PASS = {"critical_branchings", "generating_confluence"}


def _pass_users(source: str) -> set[str]:
    """The names of ``PASS`` that the source uses, as a variable or an
    attribute (a definition or an import alone uses none)."""
    return {named(node) for _, node in owned_nodes(source)} & PASS


def test_only_critical_runs_the_pass_over_the_branchings():
    """``critical.is_locally_confluent`` is the one pass that lists the
    critical branchings and completes each; every other module, the CLI
    included, reads its report."""
    users = {module: names for module, source in sources().items() if (names := _pass_users(source))}
    assert users == {"critical": PASS}


def test_the_check_finds_every_use_of_the_pass():
    source = (
        "from .critical import critical_branchings, generating_confluence\n"
        "def generating_confluence(b, p): ...\n"
        "outcomes = [critical.generating_confluence(b, p) for b in items]\n"
        "listing = critical_branchings\n"
        "name = 'critical_branchings'\n"
    )
    assert _pass_users(source) == PASS
    assert _pass_users(source.split("\n", 2)[2]) == PASS
    assert _pass_users("from .critical import critical_branchings\ndef generating_confluence(): ...\n") == set()
