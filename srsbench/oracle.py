"""Independent reference computations used to check every benchmark op.

Nothing here imports ``srs``: presentations are read from the committed
files with a minimal reader, and words are tuples of generator names.
Rules are ``(rule_id, lhs, rhs)`` triples in file order, so "lowest rule
index" means "earliest in the file".
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Rules:
    """Generators, precedence and rules of a presentation file."""

    generators: tuple[str, ...]
    precedence: tuple[str, ...]
    rules: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...]
    comments: tuple[str, ...] = ()

    @property
    def max_lhs(self) -> int:
        return max(len(lhs) for _, lhs, _ in self.rules)


def read_rules(text: str) -> Rules:
    """Read the presentation file format (generators, order, rules)."""
    generators: tuple[str, ...] = ()
    precedence: tuple[str, ...] = ()
    rules = []
    comments = []
    for raw in text.splitlines():
        line, _, comment = raw.partition("#")
        if comment.strip():
            comments.append(comment.strip())
        line = line.strip()
        if line.startswith("generators:"):
            generators = tuple(line[len("generators:"):].split())
        elif line.startswith("order:"):
            tokens = line[len("order:"):].replace("<", " ").split()
            precedence = tuple(t.partition("=")[0] for t in tokens[1:])
        elif line and line != "rules:":
            rule_id, _, body = line.partition(":")
            lhs, _, rhs = body.partition("->")
            rules.append((rule_id.strip(), tuple(lhs.split()), tuple(rhs.split())))
    return Rules(generators, precedence or generators, tuple(rules), tuple(comments))


def leftmost_reduction(word: tuple[str, ...], rs: Rules) -> tuple[tuple[str, ...], list[tuple[str, int]]]:
    """Normal form and steps ``(rule_id, pos)`` of the leftmost-position,
    lowest-rule-index strategy.

    After a step at ``pos`` no redex can start before ``pos - max_lhs + 1``,
    so the scan resumes there instead of at 0; the step sequence is the
    same as rescanning from the start.
    """
    current = list(word)
    steps: list[tuple[str, int]] = []
    start = 0
    back = rs.max_lhs - 1
    while True:
        for pos in range(start, len(current)):
            hit = next(
                (r for r in rs.rules if tuple(current[pos : pos + len(r[1])]) == r[1]),
                None,
            )
            if hit is not None:
                rule_id, lhs, rhs = hit
                current[pos : pos + len(lhs)] = rhs
                steps.append((rule_id, pos))
                start = max(0, pos - back)
                break
        else:
            return tuple(current), steps


def rightmost_reduction(word: tuple[str, ...], rs: Rules) -> list[tuple[str, int]]:
    """Steps of the rightmost-position, highest-rule-index strategy."""
    current = list(word)
    steps: list[tuple[str, int]] = []
    while True:
        hit = None
        for pos in range(len(current) - 1, -1, -1):
            for rule in reversed(rs.rules):
                if tuple(current[pos : pos + len(rule[1])]) == rule[1]:
                    hit = (rule, pos)
                    break
            if hit:
                break
        if hit is None:
            return steps
        (rule_id, lhs, rhs), pos = hit
        current[pos : pos + len(lhs)] = rhs
        steps.append((rule_id, pos))


def format_word(word: tuple[str, ...], rs: Rules) -> str:
    if not word:
        return "ε"
    sep = "" if all(len(g) == 1 for g in rs.generators) else " "
    return sep.join(word)


def format_reduction(word: tuple[str, ...], steps: list[tuple[str, int]], rs: Rules) -> str:
    """The path syntax ``<word>: +rule@pos ...`` for a positive path."""
    head = f"{format_word(word, rs)}:"
    return " ".join([head] + [f"+{rule_id}@{pos}" for rule_id, pos in steps])


def count_irreducible(rs: Rules, limit: int) -> int:
    """Number of words containing no left-hand side, counted level by level
    (irreducible words are closed under prefixes).  Stops above ``limit``."""
    lhss = [lhs for _, lhs, _ in rs.rules]

    def reducible_suffix(w: tuple[str, ...]) -> bool:
        return any(w[len(w) - len(lhs):] == lhs for lhs in lhss if len(lhs) <= len(w))

    total = 0
    level: list[tuple[str, ...]] = [()]
    while level and total <= limit:
        total += len(level)
        level = [w + (g,) for w in level for g in rs.generators if not reducible_suffix(w + (g,))]
    return total


class NormalForms:
    """Memoized leftmost normal forms over one presentation."""

    def __init__(self, rs: Rules):
        self.rs = rs
        self._memo: dict[tuple[str, ...], tuple[str, ...]] = {}

    def __call__(self, word: tuple[str, ...]) -> tuple[str, ...]:
        nf = self._memo.get(word)
        if nf is None:
            nf = leftmost_reduction(word, self.rs)[0]
            self._memo[word] = nf
        return nf


# A step is (source word, position, length of the matched side, rule id, sign).
Step = tuple[tuple[str, ...], int, int, str, int]


def add_into(acc: dict, other: dict, scale: int = 1) -> dict:
    for key, value in other.items():
        total = acc.get(key, 0) + scale * value
        if total:
            acc[key] = total
        else:
            acc.pop(key, None)
    return acc


def footprint(steps: list[Step], nf: NormalForms) -> dict:
    """Signed count of (left context class, rule id, right context class)."""
    out: dict = {}
    for source, pos, matched, rule_id, sign in steps:
        key = (nf(source[:pos]), rule_id, nf(source[pos + matched:]))
        add_into(out, {key: sign})
    return out


def act(ctx: tuple[tuple[str, ...], tuple[str, ...]], fp: dict, nf: NormalForms) -> dict:
    """Footprint of a loop placed in the context ``left·(-)·right``."""
    left, right = ctx
    out: dict = {}
    for (l, rule_id, r), coeff in fp.items():
        add_into(out, {(nf(left + l), rule_id, nf(r + right)): coeff})
    return out
