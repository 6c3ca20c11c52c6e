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

from .errors import BoundaryError, DisjointnessError, ParseError
from .presentation import Presentation, Word, format_word, parse_word
from .rewrite import Path, RewriteStep

_STEP_RE = re.compile(r"([+-])([A-Za-z0-9_]+)@(\d+)\Z")


def target(p: Path) -> Word:
    return p.target


def compose(p: Path, q: Path) -> Path:
    """Concatenation p then q; empty paths are units, composition associative."""
    if p.target != q.base:
        raise BoundaryError(
            f"cannot compose: first path ends at {''.join(p.target) or 'ε'}, "
            f"second starts at {''.join(q.base) or 'ε'}"
        )
    return Path(p.base, p.steps + q.steps)


def invert(p: Path) -> Path:
    """Reverse the step order and flip all signs."""
    return Path(
        p.target,
        tuple(RewriteStep(s.target, s.rule, s.pos, -s.sign) for s in reversed(p.steps)),
    )


def whisker(u: Word, p: Path, v: Word) -> Path:
    """Embed a path in the context u·(-)·v, shifting step positions by |u|;
    each step starts at the previous one's target, so the two share a word."""
    base = current = u + p.base + v
    steps: list[RewriteStep] = []
    for step in p.steps:
        steps.append(RewriteStep(current, step.rule, step.pos + len(u), step.sign))
        current = steps[-1].target
    return Path(base, tuple(steps))


def free_reduce(p: Path) -> Path:
    """Delete adjacent step pairs that are exact mutual inverses (same rule,
    same position, opposite signs) until none remain.  Endpoints are kept."""
    stack: list[RewriteStep] = []
    for step in p.steps:
        if (
            stack
            and stack[-1].rule == step.rule
            and stack[-1].pos == step.pos
            and stack[-1].sign == -step.sign
        ):
            stack.pop()
        else:
            stack.append(step)
    return Path(p.base, tuple(stack))


def _span(step: RewriteStep) -> tuple[int, int]:
    return step.pos, step.pos + len(step.matched)


def exchange_swap(p: Path, i: int) -> Path:
    """Swap steps i and i+1 when they act on disjoint factors.

    The two steps are re-based on each other's residuals; the endpoints of
    the path are unchanged, and swapping twice restores the original.
    """
    if not 0 <= i < len(p.steps) - 1:
        raise DisjointnessError(f"no adjacent pair at index {i}")
    first, second = p.steps[i], p.steps[i + 1]
    a, _ = _span(first)
    shift1 = len(first.replacement) - len(first.matched)
    b, b_end = _span(second)
    if b_end <= a:
        # second acts left of the zone first rewrote
        new_first = RewriteStep(first.source, second.rule, b, second.sign)
        shift2 = len(second.replacement) - len(second.matched)
        new_second = RewriteStep(new_first.target, first.rule, a + shift2, first.sign)
    elif b >= a + len(first.replacement):
        # second acts right of it; undo the length shift
        new_first = RewriteStep(first.source, second.rule, b - shift1, second.sign)
        new_second = RewriteStep(new_first.target, first.rule, a, first.sign)
    else:
        raise DisjointnessError(
            f"steps {i} and {i + 1} act on overlapping factors"
        )
    return Path(p.base, p.steps[:i] + (new_first, new_second) + p.steps[i + 2 :])


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


def format_step(step: RewriteStep) -> str:
    sign = "+" if step.sign > 0 else "-"
    return f"{sign}{step.rule.rule_id}@{step.pos}"


def format_path(p: Path, pres: Presentation) -> str:
    head = f"{format_word(p.base, pres)}:"
    if not p.steps:
        return head
    return head + " " + " ".join(format_step(s) for s in p.steps)


def parse_path(text: str, pres: Presentation) -> Path:
    """Parse the path syntax; each step is validated against the running word."""
    s = text.strip()
    if ":" in s:
        word_text, _, step_text = s.partition(":")
    else:
        parts = s.split(None, 1)
        word_text = parts[0] if parts else ""
        step_text = parts[1] if len(parts) > 1 else ""
    base = parse_word(word_text, pres)
    current = base
    steps: list[RewriteStep] = []
    for token in step_text.split():
        m = _STEP_RE.match(token)
        if not m:
            raise ParseError(f"bad step {token!r}, expected ±<rule>@<pos>")
        sign_text, rule_id, pos_text = m.groups()
        rule = pres.rule_by_id.get(rule_id)
        if rule is None:
            raise ParseError(f"unknown rule {rule_id!r}")
        step = RewriteStep(current, rule, int(pos_text), 1 if sign_text == "+" else -1)
        steps.append(step)
        current = step.target
    return Path(base, tuple(steps))
