"""What the tools derive from a presentation (its convergence certificate,
its basis, its rule images, its normal forms) is kept on the presentation,
so a dropped presentation is collected with all of it, and no module-level
cache is keyed on a presentation."""

import gc
import importlib
import pkgutil
import weakref
from pathlib import Path as FilePath

import srs
from srs import (
    Presentation,
    basis_loops,
    decompose_loop,
    is_convergent,
    parse_presentation,
    parse_translation_map,
    transported_generators,
    verify_certificate,
)
from srs.track import whisker

INPUTS = FilePath(__file__).resolve().parent.parent / "srsbench" / "inputs"


def _session() -> list[weakref.ref]:
    """Check, decompose, replay and transport over the sorting pair, and
    return weak references to the two presentations."""
    sigma = parse_presentation((INPUTS / "sorting.pres").read_text(encoding="utf-8"))
    upsilon = parse_presentation((INPUTS / "sorting_d.pres").read_text(encoding="utf-8"))
    m = parse_translation_map((INPUTS / "sorting_d.map").read_text(encoding="utf-8"), sigma, upsilon)
    assert is_convergent(sigma).ok and is_convergent(upsilon).ok
    # a whiskered basis loop, built with no call to the cached ``normal_path``
    loop = whisker(("c",), basis_loops(sigma)[0].loop, ("b", "a"))
    assert verify_certificate(loop, decompose_loop(loop, sigma), sigma).ok
    basis = tuple(bl.loop for bl in basis_loops(upsilon))
    family = transported_generators(sigma, upsilon, m, basis)
    assert len(family) == len(sigma.rules) + len(basis)
    # each holds its certificate, its basis and rule images
    assert all({"convergence", "basis"} < set(p._cache) for p in (sigma, upsilon))
    return [weakref.ref(sigma), weakref.ref(upsilon)]


def test_a_dropped_presentation_is_collected_with_what_was_derived_from_it():
    refs = _session()
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_only_normal_path_and_the_parser_are_module_level_caches():
    found = set()
    for info in pkgutil.iter_modules(srs.__path__, "srs."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            members = vars(obj).values() if isinstance(obj, type) else (obj,)
            for member in members:
                if hasattr(member, "cache_info") and member.__module__ == module.__name__:
                    found.add(f"{info.name}.{member.__qualname__}")
    assert found == {"srs.rewrite.normal_path", "srs.cli._build_parser"}
    # no lookup hashes a presentation, so the dataclass hash is not memoized
    assert "_hash" not in vars(Presentation)

