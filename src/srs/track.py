"""Algebra of rewriting paths: composition, inversion, whiskering,
cancellation of inverse step pairs, exchange of disjoint steps, and
conjugation of loops.

Paths are zigzags (steps carry a sign), so every path is invertible; a
path and its inverse cancel under free reduction.  Equality of paths is
syntactic only; loops are compared through their footprint (see the
abelian module).
"""

from __future__ import annotations

import re
from collections.abc import Iterable

from .errors import BoundaryError, DisjointnessError, ParseError
from .presentation import Presentation, Word, format_word, parse_word
from .rewrite import Move, Path

_STEP_RE = re.compile(r"([+-])([A-Za-z0-9_]+)@(\d+)\Z")


def compose(p: Path, q: Path) -> Path:
    """Concatenation p then q; empty paths are units, composition associative."""
    if p.target != q.base:
        raise BoundaryError(
            f"cannot compose: first path ends at {''.join(p.target) or 'ε'}, "
            f"second starts at {''.join(q.base) or 'ε'}"
        )
    return Path._derived(p.base, p.moves + q.moves, q.target)  # checked paths, joint matched


def invert(p: Path) -> Path:
    """Reverse the move order and flip all signs."""
    # the inverse of a checked path is checked
    return Path._derived(p.target, [(r, pos, -sign) for r, pos, sign in reversed(p.moves)], p.base)


def shift_moves(moves: tuple[Move, ...], offset: int) -> list[Move]:
    """The moves with every position moved right by ``offset``: the moves
    of a path whiskered on the left by a word of that length."""
    return [(rule, pos + offset, sign) for rule, pos, sign in moves]


def whisker(u: Word, p: Path, v: Word) -> Path:
    """Embed a path in the context u·(-)·v, shifting move positions by |u|."""
    # a checked path stays checked in any context
    return Path._derived(u + p.base + v, shift_moves(p.moves, len(u)), u + p.target + v)


def free_reduce(p: Path) -> Path:
    """Delete adjacent move pairs that are exact mutual inverses (same rule,
    same position, opposite signs) until none remain.  Endpoints are kept."""
    # a move and its inverse return to the word they left; endpoints stay
    return Path._derived(p.base, _free_reduced(p.moves), p.target)


def _free_reduced(moves: Iterable[Move]) -> list[Move]:
    """The moves of ``free_reduce``, read once with a stack."""
    stack: list[Move] = []
    for move in moves:
        rule, pos, sign = move
        if stack and stack[-1] == (rule, pos, -sign):
            stack.pop()
        else:
            stack.append(move)
    return stack


def _sizes(move: Move) -> tuple[int, int]:
    """Lengths of the factor a move replaces and of the factor it writes."""
    rule, _, sign = move
    return (len(rule.lhs), len(rule.rhs)) if sign > 0 else (len(rule.rhs), len(rule.lhs))


def exchange_swap(p: Path, i: int) -> Path:
    """Swap moves i and i+1 when they act on disjoint factors.

    The two moves are re-based on each other's residuals; the endpoints of
    the path are unchanged.  Swapping twice restores the original unless
    move i replaces an empty factor, move i+1 writes an empty one, and
    move i+1's factor ends where move i's begins.  On ``r2: a -> ε``, both
    ``ba: -r2@2 +r2@1`` and ``ba: -r2@1 +r2@2`` swap to
    ``ba: +r2@1 -r2@1``, which swaps back to the second only.
    """
    if not 0 <= i < len(p.moves) - 1:
        raise DisjointnessError(f"no adjacent pair at index {i}")
    first, second = p.moves[i], p.moves[i + 1]
    (rule1, a, sign1), (rule2, b, sign2) = first, second
    matched1, written1 = _sizes(first)
    matched2, written2 = _sizes(second)
    if b + matched2 <= a:
        # second acts left of the zone first rewrote
        swapped = (second, (rule1, a + written2 - matched2, sign1))
    elif b >= a + written1:
        # second acts right of it; undo the length shift
        swapped = ((rule2, b - (written1 - matched1), sign2), first)
    else:
        raise DisjointnessError(
            f"steps {i} and {i + 1} act on overlapping factors"
        )
    # each move acts on a factor the other leaves intact; endpoints stay
    return Path._derived(p.base, p.moves[:i] + swapped + p.moves[i + 2 :], p.target)


def conjugate(f: Path, g: Path) -> Path:
    """Transport a loop f along g: the loop g ⁎ f ⁎ g⁻, closed at g's base.

    Requires target(g) = base(f) and f closed; the result is free-reduced.
    """
    if not f.is_closed:
        raise BoundaryError("conjugation is defined for closed paths only")
    if g.target != f.base:
        raise BoundaryError("conjugator must end at the loop's base")
    return free_reduce(compose(g, compose(f, invert(g))))


# ---------------------------------------------------------------------------
# textual path syntax: `<word>: +rule@pos -rule@pos ...`


def format_path(p: Path, pres: Presentation) -> str:
    moves = [f"{'+' if sign > 0 else '-'}{rule.rule_id}@{pos}" for rule, pos, sign in p.moves]
    return " ".join([f"{format_word(p.base, pres)}:", *moves])


def parse_path(text: str, pres: Presentation) -> Path:
    """Parse the path syntax; each step is validated against the running
    word as it is read, so the first fault in the text is the one reported."""
    s = text.strip()
    if ":" in s:
        word_text, _, step_text = s.partition(":")
    else:
        parts = s.split(None, 1)
        word_text = parts[0] if parts else ""
        step_text = parts[1] if len(parts) > 1 else ""
    base = parse_word(word_text, pres)

    def moves():
        for token in step_text.split():
            m = _STEP_RE.match(token)
            if not m:
                raise ParseError(f"bad step {token!r}, expected ±<rule>@<pos>")
            sign_text, rule_id, pos_text = m.groups()
            rule = pres.rule_by_id.get(rule_id)
            if rule is None:
                raise ParseError(f"unknown rule {rule_id!r}")
            yield rule, int(pos_text), 1 if sign_text == "+" else -1

    return Path.from_moves(base, moves())
