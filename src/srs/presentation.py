"""Monoid presentations: alphabet, oriented rules, and reduction orders.

A presentation is an alphabet of named generators together with a family of
oriented rewriting rules over words in those generators and a reduction
order (shortlex or weighted shortlex) used to certify termination.  All
values here are immutable after construction and safe to share between
threads; a presentation's caches fill on first use.

The line-oriented file format (``#`` starts a comment)::

    generators: <name> <name> ...
    order: shortlex <name> < <name> < ...   |   weights <name>=<int> ...
    rules:
     <id>: <name> <name> ... -> <name> ...

An empty right-hand side denotes the unit.  An indented line in the rules
section is always a rule, so a rule id may be a section name.
``parse_presentation`` and ``print_presentation`` round-trip exactly on
valid presentations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from functools import cached_property

from .errors import ParseError

Word = tuple[str, ...]

EMPTY: Word = ()

LESS, EQUAL, GREATER = -1, 0, 1

_NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")


@dataclass(frozen=True)
class OrderSpec:
    """A reduction order: shortlex or weighted shortlex over a precedence.

    ``precedence`` lists the generators from smallest to largest; for the
    weighted kind, ``weights`` assigns a positive weight to generators
    (unlisted generators weigh 1).
    """

    kind: str
    precedence: tuple[str, ...]
    weights: tuple[tuple[str, int], ...] | None = None

    def __post_init__(self):
        if self.kind not in ("shortlex", "weighted-shortlex"):
            raise ValueError(f"unknown order kind {self.kind!r}")
        if len(set(self.precedence)) != len(self.precedence):
            raise ValueError("precedence lists a generator twice")
        if self.weights is not None:
            for name, w in self.weights:
                if w <= 0:
                    raise ValueError(f"weight of {name!r} must be positive")
            if len({n for n, _ in self.weights}) != len(self.weights):
                raise ValueError("duplicate weight entry")

    @cached_property
    def rank(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.precedence)}

    @cached_property
    def weight(self) -> dict[str, int]:
        table = dict(self.weights or ())
        return {name: table.get(name, 1) for name in self.precedence}


@dataclass(frozen=True)
class Rule:
    """An oriented rewriting rule ``lhs -> rhs`` with a stable id."""

    rule_id: str
    lhs: Word
    rhs: Word

    def __post_init__(self):
        if not _NAME_RE.match(self.rule_id):
            raise ValueError(f"bad rule id {self.rule_id!r}")
        if not self.lhs:
            raise ValueError(f"rule {self.rule_id}: empty left-hand side")
        if self.lhs == self.rhs:
            raise ValueError(f"rule {self.rule_id}: sides are equal")


@dataclass(frozen=True, eq=False)
class IndexAutomaton:
    """Sims' index automaton of a rule list: the matcher of its left-hand
    sides, which carries its rules.  Every redex scan reads one, through
    ``rewrite._scan`` (the leftmost-lowest redex) or ``rewrite._matches``
    (every occurrence); a rule index is a place in ``rules``.

    A state is a prefix of a left-hand side (state 0 the empty one), numbered
    as the trie of left-hand sides creates them.  ``delta[s][g]`` is the
    longest suffix of ``s g`` that is a state: the trie edge where there is
    one, else the failure state's transition (Aho and Corasick), so each row
    covers the alphabet and a scan reads each letter once.  After a word read
    from state 0, every left-hand side that is a suffix of the word is a
    suffix of the state.  A letter outside the alphabet leads to state 0.

    ``longest[s]`` is the length of the longest left-hand side that is a
    suffix of ``s`` (0 if none) and ``lowest[s]`` the lowest index among its
    rules.  ``ends[s]`` lists, ascending, the rules whose left-hand side is
    ``s`` itself (several when left-hand sides repeat); ``out[s]`` is the
    next state below ``s`` on its failure chain whose ``ends`` is not empty,
    or 0.  ``depth`` is the length of the longest left-hand side.
    """

    rules: tuple[Rule, ...]
    delta: tuple[dict[str, int], ...]
    longest: tuple[int, ...]
    lowest: tuple[int, ...]
    ends: tuple[tuple[int, ...], ...]
    out: tuple[int, ...]
    depth: int

    @classmethod
    def of(cls, generators: tuple[str, ...], rules: tuple[Rule, ...]) -> IndexAutomaton:
        """The automaton of ``rules``, whose rows cover ``generators``."""
        goto: list[dict[str, int]] = [{}]
        ends: list[list[int]] = [[]]
        for index, rule in enumerate(rules):
            node = 0
            for g in rule.lhs:
                child = goto[node].get(g)
                if child is None:
                    child = goto[node][g] = len(goto)
                    goto.append({})
                    ends.append([])
                node = child
            ends[node].append(index)
        # one breadth-first pass: a state's failure state is shorter, so its
        # row, longest match and output link are known when the state is
        # read; the root's failure state is itself, read with the row that
        # sends every letter back to it
        size = len(goto)
        delta = [dict.fromkeys(generators, 0)] * size
        longest, lowest, out, fail, length = ([0] * size for _ in range(5))
        order = [0]
        for node in order:
            f = fail[node]
            delta[node] = {**delta[f], **goto[node]}
            out[node] = f if ends[f] else out[f]
            if ends[node]:
                longest[node], lowest[node] = length[node], ends[node][0]
            else:
                longest[node], lowest[node] = longest[f], lowest[f]
            for g, child in goto[node].items():
                fail[child] = delta[f][g] if node else 0
                length[child] = length[node] + 1
                order.append(child)
        tables = tuple(delta), tuple(longest), tuple(lowest), tuple(map(tuple, ends)), tuple(out)
        return cls(rules, *tables, max(length))


def _check_generators(names: tuple[str, ...], error: type[Exception]) -> None:
    """Raise ``error`` for the first bad name, else for a repeated one: a
    ValueError from the constructor, a ParseError from the parser."""
    for name in names:
        if not _NAME_RE.match(name):
            raise error(f"bad generator name {name!r}")
    if len(set(names)) != len(names):
        dupe = next(n for i, n in enumerate(names) if n in names[:i])
        raise error(f"duplicate generator {dupe!r}")


@dataclass(frozen=True)
class Presentation:
    """Alphabet, rules and reduction order, the unit of work for every tool;
    immutable and thread-safe but for the cached properties it fills."""

    generators: tuple[str, ...]
    rules: tuple[Rule, ...]
    order: OrderSpec

    def __post_init__(self):
        _check_generators(self.generators, ValueError)
        alphabet = set(self.generators)
        if set(self.order.precedence) != alphabet:
            raise ValueError("order precedence must cover exactly the alphabet")
        ids: set[str] = set()
        for rule in self.rules:
            if rule.rule_id in ids:
                raise ValueError(f"duplicate rule id {rule.rule_id!r}")
            ids.add(rule.rule_id)
            for g in rule.lhs + rule.rhs:
                if g not in alphabet:
                    raise ValueError(f"rule {rule.rule_id}: unknown generator {g!r}")

    def __getstate__(self) -> dict:
        # a pickle holds the three fields; every cached property is derived
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def generator_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.generators)}

    @cached_property
    def rule_by_id(self) -> dict[str, Rule]:
        return {rule.rule_id: rule for rule in self.rules}

    @cached_property
    def index_automaton(self) -> IndexAutomaton:
        return IndexAutomaton.of(self.generators, self.rules)

    @cached_property
    def _normal_forms(self) -> dict[Word, Word]:
        # word -> normal form (default fuel), filled by ``rewrite.normal_form``;
        # a word holds only strings, so the collector does not track it
        return {}

    @cached_property
    def _cache(self) -> dict:
        # derived values: "convergence", "basis", rule images by pair of words
        return {}

    @cached_property
    def single_letter_names(self) -> bool:
        return all(len(g) == 1 for g in self.generators)


def _weight(order: OrderSpec, w: Word) -> int:
    """The first key of ``compare_words``: the length of ``w``, or its total
    weight under weighted shortlex.  No rule that the order orients makes a
    word heavier."""
    if order.kind == "shortlex":
        return len(w)
    weight = order.weight
    return sum(weight[g] for g in w)


def compare_words(order: OrderSpec, u: Word, v: Word) -> int:
    """Total order on words: returns LESS, EQUAL or GREATER.

    Shortlex compares length first (total weight for the weighted kind),
    then lexicographically by precedence.  Compatible with concatenation
    on both sides, which is what makes rule orientation a termination
    certificate.
    """
    rank = order.rank
    try:
        ku, kv = _weight(order, u), _weight(order, v)
        if ku != kv:
            return LESS if ku < kv else GREATER
        for a, b in zip(u, v):
            if a != b:
                return LESS if rank[a] < rank[b] else GREATER
    except KeyError as exc:
        raise ValueError(f"word uses undeclared generator {exc.args[0]!r}") from None
    # equal first keys and no differing letter: every letter weighs at least
    # 1, so neither word is a proper prefix of the other, and u == v
    return EQUAL


# ---------------------------------------------------------------------------
# words


def format_word(w: Word, p: Presentation) -> str:
    """Display a word; the empty word prints as the unit symbol."""
    if not w:
        return "ε"
    if p.single_letter_names:
        return "".join(w)
    return " ".join(w)


def parse_word(text: str, p: Presentation) -> Word:
    """Parse a word: whitespace-separated generator tokens, or, when a token
    is not itself a generator name, its longest-match split into names.
    ``ε`` (or an empty string) is the unit."""
    s = text.strip()
    if s in ("", "ε"):
        return EMPTY
    out: list[str] = []
    for token in s.split():
        if token == "ε":
            continue
        out.extend(_split_token(token, p))
    return tuple(out)


def _split_token(token: str, p: Presentation) -> list[str]:
    index = p.generator_index
    if token in index:
        return [token]
    lengths = sorted({len(g) for g in p.generators}, reverse=True)
    size = len(token)
    # take[i]: the longest name at i whose rest splits (backtracking where a
    # longer one dead-ends), or 0 when the suffix from i does not split
    take = [0] * (size + 1)
    for i in range(size - 1, -1, -1):
        for n in lengths:
            if i + n <= size and token[i : i + n] in index and (i + n == size or take[i + n]):
                take[i] = n
                break
    if not take[0]:
        raise ParseError(f"cannot read {token!r} as a word over the alphabet")
    parts, i = [], 0
    while i < size:
        parts.append(token[i : i + take[i]])
        i += take[i]
    return parts


# ---------------------------------------------------------------------------
# file format

def parse_presentation(text: str) -> Presentation:
    """Parse the presentation file format; raises ParseError with position."""
    generators: list[str] | None = None
    order_line: tuple[int, str] | None = None
    rule_lines: list[tuple[int, str]] = []
    in_rules = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if in_rules and raw[0].isspace():
            # indented, as printed: a rule even when its id names a section
            rule_lines.append((lineno, line))
        elif line.startswith("generators:"):
            if generators is not None:
                raise ParseError("duplicate generators section", lineno)
            generators = line[len("generators:"):].split()
            in_rules = False
        elif line.startswith("order:"):
            if order_line is not None:
                raise ParseError("duplicate order section", lineno)
            order_line = (lineno, line[len("order:"):].strip())
            in_rules = False
        elif line == "rules:" or line.startswith("rules:"):
            tail = line[len("rules:"):].strip()
            if tail:
                raise ParseError("rules must start on the following lines", lineno)
            in_rules = True
        elif in_rules:
            rule_lines.append((lineno, line))
        else:
            raise ParseError(f"unexpected line {line!r}", lineno)

    names = tuple(generators or ())
    _check_generators(names, ParseError)

    order = _parse_order(order_line, names)
    rules = _parse_rules(rule_lines, names)
    try:
        return Presentation(names, rules, order)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _parse_order(order_line: tuple[int, str] | None, names: tuple[str, ...]) -> OrderSpec:
    if order_line is None:
        return OrderSpec("shortlex", names)
    lineno, rest = order_line
    tokens = rest.split()
    if not tokens:
        raise ParseError("empty order specification", lineno)
    kind, args = tokens[0], tokens[1:]
    if kind == "shortlex":
        precedence = tuple(" ".join(args).replace("<", " ").split())
        order_kind = "shortlex"
        weights = None
    elif kind == "weights":
        precedence_list: list[str] = []
        weight_list: list[tuple[str, int]] = []
        for tok in args:
            if "=" not in tok:
                raise ParseError(f"expected name=weight, got {tok!r}", lineno)
            name, _, value = tok.partition("=")
            if not value.isdigit() or int(value) <= 0:
                raise ParseError(f"weight of {name!r} must be a positive integer", lineno)
            precedence_list.append(name)
            weight_list.append((name, int(value)))
        precedence = tuple(precedence_list)
        weights = tuple(weight_list)
        order_kind = "weighted-shortlex"
    else:
        raise ParseError(f"unknown order kind {kind!r}", lineno)
    for name in precedence:
        if name not in names:
            raise ParseError(f"order mentions unknown generator {name!r}", lineno)
    if set(precedence) != set(names):
        missing = sorted(set(names) - set(precedence))
        raise ParseError(f"order does not cover generator(s) {', '.join(missing)}", lineno)
    try:
        return OrderSpec(order_kind, precedence, weights)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None


def _parse_rules(rule_lines: list[tuple[int, str]], names: tuple[str, ...]) -> tuple[Rule, ...]:
    alphabet = set(names)
    rules: list[Rule] = []
    seen: set[str] = set()
    for lineno, line in rule_lines:
        if ":" not in line:
            raise ParseError("expected '<id>: <lhs> -> <rhs>'", lineno)
        rule_id, _, body = line.partition(":")
        rule_id = rule_id.strip()
        if rule_id in seen:
            raise ParseError(f"duplicate rule id {rule_id!r}", lineno)
        seen.add(rule_id)
        if "->" not in body:
            raise ParseError("rule is missing '->'", lineno)
        lhs_text, _, rhs_text = body.partition("->")
        lhs = tuple(lhs_text.split())
        rhs = tuple(t for t in rhs_text.split() if t != "ε")
        for g in lhs + rhs:
            if g not in alphabet:
                raise ParseError(f"unknown generator {g!r}", lineno)
        try:
            rules.append(Rule(rule_id, lhs, rhs))
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
    return tuple(rules)


def print_presentation(p: Presentation) -> str:
    """Canonical form: single spaces, declaration order, one rule per line."""
    lines = ["generators: " + " ".join(p.generators) if p.generators else "generators:"]
    if p.order.kind == "shortlex":
        lines.append(("order: shortlex " + " < ".join(p.order.precedence)).rstrip())
    else:
        weight = p.order.weight
        parts = " ".join(f"{name}={weight[name]}" for name in p.order.precedence)
        lines.append(("order: weights " + parts).rstrip())
    lines.append("rules:")
    for rule in p.rules:
        lines.append(f" {rule.rule_id}: {' '.join(rule.lhs)} -> {' '.join(rule.rhs)}".rstrip())
    return "\n".join(lines) + "\n"
