"""Transport of generating loops between presentations of the same monoid.

A user-supplied translation map sends each generator of one presentation
to a word of the other, in both directions.  Once verified (rule images
congruent, round trips congruent to the identity), paths can be pushed
through the translation; comparison loops measure how far a word or a
path is from its double translation.  Transporting a generating family
along these loops yields a generating family on the other side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import TranslationError
from .presentation import Presentation, Rule, Word, format_word, parse_word, ParseError
from .rewrite import Move, Path, normal_form, normalize
from .track import compose, free_reduce, invert, shift_moves
from .critical import is_convergent


@dataclass(frozen=True)
class TranslationMap:
    """Generator-wise translations in both directions between two alphabets."""

    forward: tuple[tuple[str, Word], ...]
    backward: tuple[tuple[str, Word], ...]

    @cached_property
    def forward_map(self) -> dict[str, Word]:
        return dict(self.forward)

    @cached_property
    def backward_map(self) -> dict[str, Word]:
        return dict(self.backward)

    def inverse(self) -> "TranslationMap":
        return TranslationMap(self.backward, self.forward)


def translate_word(w: Word, mapping: dict[str, Word]) -> Word:
    out: list[str] = []
    for g in w:
        image = mapping.get(g)
        if image is None:
            raise TranslationError(f"no translation for generator {g!r}")
        out.extend(image)
    return tuple(out)


def parse_translation_map(
    text: str, sigma: Presentation, upsilon: Presentation
) -> TranslationMap:
    """Parse ``forward: a -> b c`` / ``backward: b -> a`` lines and check
    that every generator of both alphabets is covered."""
    forward: dict[str, Word] = {}
    backward: dict[str, Word] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, body = line.partition(":")
        head = head.strip()
        if head not in ("forward", "backward") or "->" not in body:
            raise ParseError("expected 'forward: <gen> -> <word>'", lineno)
        name_text, _, image_text = body.partition("->")
        name = name_text.strip()
        if head == "forward":
            if name not in sigma.generator_index:
                raise ParseError(f"unknown source generator {name!r}", lineno)
            entries, image = forward, parse_word(image_text, upsilon)
        else:
            if name not in upsilon.generator_index:
                raise ParseError(f"unknown target generator {name!r}", lineno)
            entries, image = backward, parse_word(image_text, sigma)
        if name in entries:
            raise ParseError(f"duplicate {head} entry for {name!r}", lineno)
        entries[name] = image
    missing = [g for g in sigma.generators if g not in forward]
    missing += [g for g in upsilon.generators if g not in backward]
    if missing:
        raise TranslationError(f"map does not cover generator(s) {', '.join(missing)}")
    return TranslationMap(tuple(forward.items()), tuple(backward.items()))


@dataclass(frozen=True)
class TranslationReport:
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def check_translation(
    sigma: Presentation, upsilon: Presentation, m: TranslationMap
) -> TranslationReport:
    """Verify the two translation invariants by normal-form comparison:
    every rule's sides translate to congruent words, and every generator's
    round trip is congruent to the generator itself."""
    for p, name in ((sigma, "source"), (upsilon, "target")):
        if not is_convergent(p).ok:
            raise TranslationError(f"{name} presentation is not convergent")
    fwd, bwd = m.forward_map, m.backward_map
    directions = ((sigma, upsilon, fwd, bwd), (upsilon, sigma, bwd, fwd))
    failures: list[str] = []
    for src, dst, there, _ in directions:
        for rule in src.rules:
            lhs, rhs = translate_word(rule.lhs, there), translate_word(rule.rhs, there)
            if normal_form(dst, lhs) != normal_form(dst, rhs):
                failures.append(f"rule {rule.rule_id}: translated sides differ")
    for src, _, there, back in directions:
        for g in src.generators:
            round_trip = translate_word(translate_word((g,), there), back)
            if normal_form(src, round_trip) != normal_form(src, (g,)):
                failures.append(f"generator {g}: round trip is not the identity")
    return TranslationReport(tuple(failures))


def _rule_image(dst: Presentation, lhs_image: Word, rhs_image: Word) -> Path:
    """Canonical path between two congruent words, such as the images of a
    rule's sides: down to the common normal form and back up."""
    path = dst._cache.get((lhs_image, rhs_image))
    if path is None:
        down, up = normalize(lhs_image, dst)[1], normalize(rhs_image, dst)[1]
        path = dst._cache[lhs_image, rhs_image] = compose(down, invert(up))
    return path


def functor_image(
    f: Path, m: TranslationMap, src: Presentation, dst: Presentation
) -> Path:
    """Push a path through the translation: words translate letterwise and
    each rule application maps to the canonical path between its translated
    sides, in the translated context.  Composition, whiskering and closure
    are preserved.  The segments' moves are collected into one path, so the
    cost grows linearly with the length of ``f``; each call builds the
    segment of a rule and sign once."""
    fwd = m.forward_map
    base = translate_word(f.base, fwd)  # a generator with no image raises here
    # the image length of each letter of the word the moves have reached
    widths = [len(fwd[g]) for g in f.base]
    moves: list[Move] = []
    segments: dict[tuple[Word, Word, int], tuple[Move, ...]] = {}
    for rule, pos, sign in f.moves:
        segment = segments.get((rule.lhs, rule.rhs, sign))
        if segment is None:
            image = _rule_image(dst, translate_word(rule.lhs, fwd), translate_word(rule.rhs, fwd))
            segment = segments[rule.lhs, rule.rhs, sign] = (image if sign > 0 else invert(image)).moves
        moves += shift_moves(segment, sum(widths[:pos]))
        factor, replacement = (rule.lhs, rule.rhs) if sign > 0 else (rule.rhs, rule.lhs)
        widths[pos : pos + len(factor)] = [len(fwd[g]) for g in replacement]
    # each segment is a checked _rule_image whiskered by the translated context
    return Path._derived(base, moves, translate_word(f.target, fwd))


def comparison_path(
    w: Word, m: TranslationMap, sigma: Presentation, upsilon: Presentation
) -> Path:
    """Canonical path from a word to its double translation, built letter by
    letter through the normal form each generator shares with its round
    trip, in one pass; each call builds the round trip and segment of a
    generator once."""
    moves: list[Move] = []
    target: list[str] = []
    segments: dict[str, tuple[Word, tuple[Move, ...]]] = {}
    for g in w:
        entry = segments.get(g)
        if entry is None:
            g_image = translate_word(translate_word((g,), m.forward_map), m.backward_map)
            entry = segments[g] = g_image, _rule_image(sigma, (g,), g_image).moves
        g_image, segment = entry
        moves += shift_moves(segment, len(target))
        target += g_image
    # each segment is a checked _rule_image whiskered by the translated context
    return Path._derived(w, moves, tuple(target))


def comparison_loop(
    f: Path, m: TranslationMap, sigma: Presentation, upsilon: Presentation
) -> Path:
    """The closed path at f's base comparing f with its double translation:
    f, then the target's comparison path, then the translated path in
    reverse, then back along the base's comparison path; free-reduced."""
    gf = functor_image(functor_image(f, m, sigma, upsilon), m.inverse(), upsilon, sigma)
    loop = compose(
        compose(compose(f, comparison_path(f.target, m, sigma, upsilon)), invert(gf)),
        invert(comparison_path(f.base, m, sigma, upsilon)),
    )
    return free_reduce(loop)


def rule_comparison_loop(
    rule: Rule, m: TranslationMap, sigma: Presentation, upsilon: Presentation
) -> Path:
    """Comparison loop of a single rule application at its left-hand side."""
    f = Path.from_moves(rule.lhs, [(rule, 0, 1)])
    return comparison_loop(f, m, sigma, upsilon)


def transported_generators(
    sigma: Presentation,
    upsilon: Presentation,
    m: TranslationMap,
    basis_upsilon: tuple[Path, ...],
) -> tuple[tuple[str, Path], ...]:
    """A generating family for loop classes over ``sigma``: one comparison
    loop per rule of ``sigma`` plus the backward images of a generating
    family over ``upsilon``.  The output has exactly
    ``len(sigma.rules) + len(basis_upsilon)`` labelled loops."""
    report = check_translation(sigma, upsilon, m)
    if not report.ok:
        raise TranslationError("; ".join(report.failures))
    out: list[tuple[str, Path]] = []
    for rule in sigma.rules:
        out.append(
            (f"cmp_{rule.rule_id}", rule_comparison_loop(rule, m, sigma, upsilon))
        )
    back = m.inverse()
    for k, loop in enumerate(basis_upsilon, start=1):
        out.append((f"img_{k}", functor_image(loop, back, upsilon, sigma)))
    return tuple(out)


def format_translation_map(
    m: TranslationMap, sigma: Presentation, upsilon: Presentation
) -> str:
    lines = [
        f"forward: {name} -> {format_word(image, upsilon)}"
        for name, image in m.forward
    ]
    lines += [
        f"backward: {name} -> {format_word(image, sigma)}"
        for name, image in m.backward
    ]
    return "\n".join(lines) + "\n"
