"""Each value a presentation keeps sits in ``p._cache`` under a string key
that one function reads and writes.  The table of classes is the one memo
of normal forms: ``critical.normal_form`` is its public reader, and only
``critical`` and ``abelian`` name ``_classes``.  This reads the syntax tree
of every module under ``src/srs/``.
"""

import ast

from source_tree import imports, named, owned_nodes, sources, users

OWNERS = {
    "convergence": {"critical.is_convergent"},
    "classes": {"critical._classes"},
    "basis": {"abelian._basis"},
    "rule_images": {"transport._rule_image"},
}


def _cache_keys(source: str) -> set[tuple[str | None, str]]:
    """``(key, function)`` for every use of a ``_cache``: the key is the
    string literal it is subscripted or called with, None for any other use;
    the function is the innermost one around the use."""
    nodes = list(owned_nodes(source))
    keyed, found = set(), set()
    for owner, node in nodes:
        if isinstance(node, ast.Subscript):
            target, key = node.value, node.slice
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.args:
            target, key = node.func.value, node.args[0]
        else:
            continue
        if named(target) == "_cache":
            keyed.add(target)
            literal = isinstance(key, ast.Constant) and isinstance(key.value, str)
            found.add((key.value if literal else None, owner))
    return found | {(None, owner) for owner, node in nodes if named(node) == "_cache" and node not in keyed}


def test_only_the_reader_keeps_normal_forms():
    modules = sources()
    owners: dict[str | None, set[str]] = {}
    for module, source in modules.items():
        for key, owner in _cache_keys(source):
            owners.setdefault(key, set()).add(f"{module}.{owner}")
    assert owners == OWNERS
    assert {module for module, source in modules.items() if users(source, "_classes")} == {"critical", "abelian"}
    assert [module for module, source in modules.items() if imports(source, "_classes")] == ["abelian"]


def test_the_check_finds_every_key_call_and_import():
    source = (
        "from .critical import _classes\n"
        "def _classes(p):\n"
        "    table = p._cache.get('classes')\n"
        "    table = p._cache['classes'] = make(p)\n"
        "def words_equal(u, v, p):\n"
        "    return p._cache['classes'].form(u) == critical._classes(p).form(v)\n"
        "def _rule_image(dst, lhs, rhs):\n"
        "    path = dst._cache.get((lhs, rhs))\n"
        "    dst._cache[lhs, rhs] = path\n"
        "later = lambda p: p._cache.setdefault('basis', {})\n"
        "everything = p._cache\n"
        "KEY, name = 'classes', '_cache'\n"
    )
    assert _cache_keys(source) == {
        ("classes", "_classes"),
        ("classes", "words_equal"),
        (None, "_rule_image"),
        ("basis", "<lambda>"),
        (None, "<module>"),
    }
    assert users(source, "_classes") == {"words_equal"}
    assert imports(source, "_classes")
    assert _cache_keys("table.get('classes')\ncache = {}\ncache['classes'] = 0\n") == set()
