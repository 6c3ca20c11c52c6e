"""One-step rewriting, normalization, and termination by order.

The deterministic normalization strategy used everywhere is: leftmost
position first, then lowest rule index.  Fixing the strategy makes every
downstream certificate (confluence bases, decompositions, transported
generators) reproducible.

Every redex scan reads an ``IndexAutomaton``: the trie of a rule list's
left-hand sides completed with failure transitions, which carries the
rules.  ``Presentation.index_automaton`` builds one per presentation, and
completion one per rule set it reduces against.  A scan reads each letter
once, and the state after a letter names the left-hand sides that end
there.  ``_matches`` reads every occurrence off the output links.
``_scan`` finds the leftmost-lowest redex, from state 0 or from a state
stored at an earlier position; because the strategy picks the leftmost
*start* while the automaton reports matches by their *end*, once it has
found a redex it reads on at most as far as the longest left-hand side
reaches from its start before it commits.  ``_descent`` alone keeps a stack
of those states along a word its caller edits in place, for ``_reduce``
(every normal form, normal path, certificate conjugator and completion
reduction) and the chains of peak elimination in ``abelian._peak_entries``.

A path is its base word plus a tuple of moves, ``(rule, pos, sign)``
triples: every word along it follows from those, so a stored path holds
two words (its base and its target) however many steps it has.  A move
applies where the factor it replaces occurs at its position;
``RewriteStep`` and ``Path.from_moves`` check that in ``_apply``.  Every path
from outside is replayed, and every derived path is replayed under test:
``Path.from_moves``, ``Path(base, steps)`` and ``parse_path`` replay, and
``Path._derived`` stores moves known to apply, its callers naming the
lemma.  ``Path.walk`` replays the moves for consumers of each source word;
``Path.steps`` builds ``RewriteStep`` values afresh on each read and is
kept for callers that want whole words.  The repr shows the moves.

Paths are built only where their moves are read.  ``normal_form`` reads
and fills the presentation's table (``_normal_forms``), which keeps every
word it was asked for with its normal form, and builds no path.
``normal_path`` caches whole paths, keyed on the presentation; no library
code calls it, and the benchmark's tracer reads its ``cache_info()``.  The
word problem, which needs convergence, is ``critical.words_equal``.
"""

from __future__ import annotations

from collections.abc import Container, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import FuelError, MatchError
from .presentation import GREATER, IndexAutomaton, OrderSpec, Presentation, Rule, Word, compare_words

DEFAULT_FUEL = 10**6


@dataclass(frozen=True)
class Redex:
    """An occurrence of a rule's left-hand side in a word."""

    rule: Rule
    pos: int

    @property
    def rule_id(self) -> str:
        return self.rule.rule_id


Move = tuple[Rule, int, int]
"""A signed, positioned rule application without its word: (rule, pos, sign)."""


def _apply(word: list[str], rule: Rule, pos: int, sign: int) -> None:
    """Apply the move ``(rule, pos, sign)`` to ``word`` in place.

    A move applies when its sign is +1 or -1 and the factor it replaces (the
    lhs for +1, the rhs for -1) occurs at ``pos``; otherwise this raises
    ValueError for the sign, MatchError for the rest.  ``RewriteStep`` and
    ``Path.from_moves`` check every move here.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    factor, replacement = (rule.lhs, rule.rhs) if sign > 0 else (rule.rhs, rule.lhs)
    end = pos + len(factor)
    if pos < 0:
        raise MatchError(f"negative position {pos}")
    if pos > len(word) or tuple(word[pos:end]) != factor:
        raise MatchError(
            f"{'lhs' if sign > 0 else 'rhs'} of rule {rule.rule_id} does not occur at "
            f"position {pos} of {''.join(word) or 'ε'!r}"
        )
    word[pos:end] = replacement


@dataclass(frozen=True, slots=True)
class RewriteStep:
    """A signed, positioned rule application with its own source word.

    Sign +1 replaces the lhs by the rhs at ``pos``; sign -1 replaces the
    rhs by the lhs.  The match is checked at construction, so a step value
    is always applicable, and the target word is computed then, once; it
    takes no part in equality, hashing or the repr.
    """

    source: Word
    rule: Rule
    pos: int
    sign: int
    target: Word = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        word = list(self.source)
        _apply(word, self.rule, self.pos, self.sign)
        object.__setattr__(self, "target", tuple(word))

    @property
    def matched(self) -> Word:
        return self.rule.lhs if self.sign > 0 else self.rule.rhs

    @property
    def replacement(self) -> Word:
        return self.rule.rhs if self.sign > 0 else self.rule.lhs


def apply_step(step: RewriteStep) -> Word:
    """The target word of a step."""
    return step.target


@dataclass(frozen=True, slots=True, init=False)
class Path:
    """A base word and the moves ``(rule, pos, sign)`` applied from it.

    Every path from outside is replayed (``Path.from_moves``, and
    ``Path(base, steps)``, which checks that each ``RewriteStep`` starts
    where the previous one ended); every derived path is replayed under
    test.  The target takes no part in equality, hashing or the repr, which
    are those of ``(base, moves)``.  The empty path at a word is the
    identity.  See the track module for the algebra on paths.
    """

    base: Word
    moves: tuple[Move, ...]
    target: Word = field(init=False, repr=False, compare=False)

    def __init__(self, base: Word, steps: Iterable[RewriteStep] = ()):
        current = base
        moves: list[Move] = []
        for step in steps:
            if step.source != current:
                raise ValueError(
                    f"step {step.rule.rule_id}@{step.pos} starts at "
                    f"{''.join(step.source) or 'ε'}, expected {''.join(current) or 'ε'}"
                )
            moves.append((step.rule, step.pos, step.sign))
            current = step.target
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "moves", tuple(moves))
        object.__setattr__(self, "target", current)

    @classmethod
    def from_moves(cls, base: Word, moves: Iterable[Move]) -> Path:
        """The path from ``base`` along ``moves``, checked by replaying them
        in order; a move that does not match raises MatchError."""
        word = list(base)
        checked: list[Move] = []
        for move in moves:
            _apply(word, *move)
            checked.append(move)
        return _stored(base, tuple(checked), tuple(word))

    @classmethod
    def _derived(cls, base: Word, moves: Iterable[Move], target: Word) -> Path:
        """The path along ``moves``, known to apply from ``base`` to ``target``; no replay."""
        return _stored(base, tuple(moves), target)

    @property
    def steps(self) -> tuple[RewriteStep, ...]:
        """The moves as ``RewriteStep``s, each starting at the previous
        one's target, built afresh on each read: the library reads moves
        only, so the paths it builds and caches hold no word per step."""
        steps: list[RewriteStep] = []
        current = self.base
        for move in self.moves:
            steps.append(RewriteStep(current, *move))
            current = steps[-1].target
        return tuple(steps)

    def walk(self) -> Iterator[tuple[Word, Rule, int, int]]:
        """Each move as ``(source, rule, pos, sign)``, with the word it
        starts at, in order."""
        word = list(self.base)
        for rule, pos, sign in self.moves:
            yield tuple(word), rule, pos, sign
            # the moves apply: the path was replayed or derived from replayed ones
            if sign > 0:
                word[pos : pos + len(rule.lhs)] = rule.rhs
            else:
                word[pos : pos + len(rule.rhs)] = rule.lhs

    @property
    def is_closed(self) -> bool:
        return self.base == self.target

    def __len__(self) -> int:
        return len(self.moves)


def _stored(base: Word, moves: tuple[Move, ...], target: Word) -> Path:
    """The path with these fields, stored as given: where ``from_moves`` and
    ``_derived`` end."""
    path = Path.__new__(Path)
    object.__setattr__(path, "base", base)
    object.__setattr__(path, "moves", moves)
    object.__setattr__(path, "target", target)
    return path


def _scan(
    word: Sequence[str], index: IndexAutomaton, states: list[int], base: int
) -> tuple[int, int] | None:
    """The leftmost redex of ``word`` at or after ``base`` that ends after
    the letters read so far, as ``(position, rule index)``, lowest rule
    index first; None when none does.

    ``states[i]`` is the automaton's state after ``word[base:base + i]``;
    the scan reads on from the last of them and appends the state after each
    letter it reads.  At each end it takes the redex starting earliest there
    (the longest left-hand side, its lowest rule); once a redex starts at
    ``s`` it reads on only up to ``s + depth``, since no redex starting at
    or before ``s`` ends later.
    """
    delta, longest, lowest = index.delta, index.longest, index.lowest
    depth = index.depth
    state = states[-1]
    end = base + len(states) - 1
    limit = best_pos = len(word)
    best_rule = -1
    while end < limit:
        try:
            state = delta[state][word[end]]
        except KeyError:  # a letter outside the alphabet
            state = 0
        end += 1
        states.append(state)
        n = longest[state]
        if n and end - n <= best_pos:
            if end - n < best_pos:
                best_pos, best_rule = end - n, lowest[state]
                if best_pos + depth < limit:
                    limit = best_pos + depth
            elif lowest[state] < best_rule:
                best_rule = lowest[state]
    return None if best_rule < 0 else (best_pos, best_rule)


def _matches(w: Sequence[str], index: IndexAutomaton) -> Iterator[tuple[int, int]]:
    """Every left-hand-side occurrence in ``w`` as ``(position, rule index)``,
    by end, read off the state there and its output links."""
    delta, longest, ends, out = index.delta, index.longest, index.ends, index.out
    state = 0
    for end, letter in enumerate(w, 1):
        state = delta[state].get(letter, 0)
        node = state if ends[state] else out[state]
        while node:
            for rule in ends[node]:
                yield end - longest[node], rule
            node = out[node]


def find_redexes(w: Word, p: Presentation) -> tuple[Redex, ...]:
    """All rule occurrences in ``w``, sorted by position then rule index;
    empty exactly when ``w`` is a normal form."""
    found = sorted(_matches(w, p.index_automaton))
    return tuple(Redex(p.rules[rule], pos) for pos, rule in found)


def _descent(word: list[str], index: IndexAutomaton, base: int = 0) -> Iterator[tuple[int, int]]:
    """The leftmost-lowest redexes of ``word`` at or after ``base``, as
    ``(position, rule index)``: the caller applies each to ``word`` in place
    before it asks for the next.  No redex of the word as given may start
    before ``base``.

    The descent alone keeps ``_scan``'s stack of states.  After a step at
    ``pos`` it drops the states past ``pos``: no redex started left of
    ``pos`` and the step kept the prefix before it, so the stored states
    still hold and no redex ends at or before ``pos``.  A redex of the new
    word that starts left of ``pos`` reaches past it, so it starts at
    ``pos - depth + 1`` or later; when that lies left of a base above 0, the
    stack starts afresh there, from state 0.  The redexes are those of a
    full rescan after every step, while a step costs a scan from ``pos`` on.
    """
    window = index.depth - 1
    states = [0]
    while (found := _scan(word, index, states, base)) is not None:
        yield found
        pos = found[0]
        if base and pos - window < base:
            base, states = max(0, pos - window), [0]
        else:
            del states[pos - base + 1 :]


def _reduce(
    w: Word, index: IndexAutomaton, fuel: int = DEFAULT_FUEL, until: Container[Word] = ()
) -> tuple[Word, list[Move]]:
    """The normal form of ``w`` under the leftmost-lowest strategy and the
    moves that reach it; ``normalize`` without building the path.  With
    ``until``, the descent stops at its first word in ``until``, ``w``
    included, and returns that word and the moves to it."""
    rules = index.rules
    word = list(w)
    moves: list[Move] = []
    if until and w in until:
        return w, moves
    for pos, rule_index in _descent(word, index):
        if len(moves) >= fuel:
            raise _out_of_fuel(w, fuel)
        rule = rules[rule_index]
        word[pos : pos + len(rule.lhs)] = rule.rhs
        moves.append((rule, pos, 1))
        if until and tuple(word) in until:
            break
    return tuple(word), moves


def _out_of_fuel(w: Word, fuel: int) -> FuelError:
    """The error of a descent from ``w`` longer than ``fuel`` steps."""
    return FuelError(f"no normal form within {fuel} steps from {''.join(w) or 'ε'!r}")


def normalize(w: Word, p: Presentation, fuel: int = DEFAULT_FUEL) -> tuple[Word, Path]:
    """Reduce ``w`` to a normal form with the leftmost-lowest strategy.

    Returns the normal form and the canonical reduction path.  ``fuel``
    bounds the number of steps; exceeding it raises FuelError rather than
    truncating silently (relevant only when termination was not certified).
    """
    target, moves = _reduce(w, p.index_automaton, fuel)
    # _reduce applied each move to its word as it found it
    return target, Path._derived(w, moves, target)


@lru_cache(maxsize=None)
def normal_path(p: Presentation, w: Word) -> Path:
    """Cached canonical reduction path of ``w`` (default fuel)."""
    return normalize(w, p)[1]


def normal_form(p: Presentation, w: Word) -> Word:
    """The normal form of ``w`` (default fuel), kept in the presentation's
    table of words; no path is built."""
    table = p._normal_forms
    nf = table.get(w)
    if nf is None:
        nf = table[w] = _reduce(w, p.index_automaton)[0]
    return nf


@dataclass(frozen=True)
class TerminationCertificate:
    """Records the order used and any rules it fails to orient."""

    order: "OrderSpec"
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_termination(p: Presentation) -> TerminationCertificate:
    """Certify termination via the presentation's reduction order.

    Succeeds exactly when every rule decreases under the order; since the
    order is total, well-founded and compatible with concatenation on both
    sides, this certifies that no infinite reduction sequence exists.  The
    violations are the rules with lhs <= rhs, in rule order.
    """
    violations = tuple(
        rule.rule_id for rule in p.rules if compare_words(p.order, rule.lhs, rule.rhs) != GREATER
    )
    return TerminationCertificate(p.order, violations)
