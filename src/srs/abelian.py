"""Identities among relations: the footprint invariant, the basis of
generating-confluence loops, and the decomposition of closed paths over
that basis.

Two computable representations are used side by side:

* the *footprint* of a path: the signed count of its rule applications,
  keyed by rule and by the classes (normal forms) of the left and right
  contexts.  It is additive under composition, negated by inversion,
  context-equivariant under whiskering, and invariant under exchange, free
  reduction and conjugation — so it is a well-defined invariant of loop
  classes;

* the *basis representation* of a loop: an integer combination of basis
  loops with context coefficients, produced constructively by peak
  elimination against the canonical normalization strategy.

Equal basis representations mean equal loop classes; distinct footprints
mean distinct classes.  Every decomposition certificate can be replayed:
its footprint must equal the footprint of the decomposed loop, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FuelError
from .presentation import Presentation, Rule, Word
from .rewrite import (
    DEFAULT_FUEL,
    Move,
    Path,
    RewriteStep,
    _descent,
    _out_of_fuel,
    _reduce,
    normal_form,
)
from .critical import GeneratingConfluence, _require_convergent

# footprint: (left class, rule id, right class) -> nonzero integer
Footprint = dict[tuple[Word, str, Word], int]
# basis representation: ((left class, right class), basis id) -> nonzero integer
PiElement = dict[tuple[tuple[Word, Word], str], int]

def _bump(acc: dict, key, value: int):
    total = acc.get(key, 0) + value
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


def _accumulate(acc: dict, other: dict, scale: int = 1):
    for key, value in other.items():
        _bump(acc, key, scale * value)


# ---------------------------------------------------------------------------
# footprint


def footprint(f: Path, p: Presentation) -> Footprint:
    """Signed sum, over the steps of ``f``, of (left class, rule, right class).

    Defined for any path; only closed paths represent loop classes.
    """
    _require_convergent(p)
    out: Footprint = {}
    for source, rule, pos, sign in f.walk():
        matched = len(rule.lhs if sign > 0 else rule.rhs)
        left = normal_form(p, source[:pos])
        right = normal_form(p, source[pos + matched :])
        _bump(out, (left, rule.rule_id, right), sign)
    return out


def act_footprint(ctx: tuple[Word, Word], fp: Footprint, p: Presentation) -> Footprint:
    """Context action on footprints: wrap every key in (left, right)."""
    left, right = ctx
    out: Footprint = {}
    for (l, rule_id, r), coeff in fp.items():
        _bump(out, (normal_form(p, left + l), rule_id, normal_form(p, r + right)), coeff)
    return out


# ---------------------------------------------------------------------------
# the basis of generating-confluence loops


@dataclass(frozen=True)
class BasisLoop:
    """A generating confluence together with its boundary loop and an id."""

    basis_id: str
    confluence: GeneratingConfluence

    @property
    def loop(self) -> Path:
        return self.confluence.loop


class _BasisIndex:
    """Per-presentation basis, read from the generating confluences of the
    local-confluence certificate: loops in canonical order, and each loop's
    branching oriented from both of its redexes.

    ``by_pair[(overlap, redex_a, redex_b)]`` is ``(sign, basis id,
    completion of redex_a's side, completion of redex_b's side)`` for both
    orders of a branching's redex pair: the sign is -1 in the branching's
    own order, whose loop runs down redex_a's side and back up redex_b's,
    and +1 in the other.  It is kept in ``p._cache`` and holds no reference
    to ``p``, so a dropped presentation is freed without the collector.
    """

    def __init__(self, confluences: tuple[GeneratingConfluence, ...]):
        loops = []
        by_pair = {}
        for n, conf in enumerate(confluences, start=1):
            loop = BasisLoop(f"b{n}", conf)
            loops.append(loop)
            overlap, (first, second) = conf.branching.overlap, conf.branching.redexes
            c1, c2 = conf.completion1, conf.completion2
            by_pair[(overlap, first, second)] = (-1, loop.basis_id, c1, c2)
            by_pair[(overlap, second, first)] = (1, loop.basis_id, c2, c1)
        self.loops: tuple[BasisLoop, ...] = tuple(loops)
        self.by_pair = by_pair
        self.by_id = {loop.basis_id: loop for loop in loops}
        self._footprints: dict[str, Footprint] = {}

    def loop_footprint(self, basis_id: str, p: Presentation) -> Footprint:
        cached = self._footprints.get(basis_id)
        if cached is None:
            cached = footprint(self.by_id[basis_id].loop, p)
            self._footprints[basis_id] = cached
        return cached


def _basis(p: Presentation) -> _BasisIndex:
    index = p._cache.get("basis")
    if index is None:
        # convergent, so every outcome is a generating confluence
        outcomes = _require_convergent(p).local_confluence.outcomes
        index = p._cache["basis"] = _BasisIndex(outcomes)
    return index


def basis_loops(p: Presentation) -> tuple[BasisLoop, ...]:
    """One boundary loop per critical branching, in canonical order.  These
    loops generate every closed path's class in a convergent presentation."""
    return _basis(p).loops


# ---------------------------------------------------------------------------
# peak elimination

# raw contribution: (sign, left context word, right context word,
#                    word the whiskered basis loop is closed at, basis id)
_RawEntry = tuple[int, Word, Word, Word, str]


def _negate_entries(entries: tuple[_RawEntry, ...]) -> tuple[_RawEntry, ...]:
    return tuple(
        (-sign, left, right, base, bid)
        for sign, left, right, base, bid in reversed(entries)
    )


def _peak_entries(
    steps: list[tuple[Word, Rule, int]],
    p: Presentation,
    index: _BasisIndex,
    fuel: int,
) -> list[tuple[_RawEntry, ...]]:
    """For each positive step ``(source, rule, pos)``, the entries of the
    loop comparing it against the canonical normalization of its source,
    by peak elimination on one explicit stack.

    A frame is a positive step.  Its first visit finds the canonical first
    step b of its source, and then one of three cases holds: the step equals
    b (no entries), is disjoint from b (children: the two residual steps
    across the square, entries ``A + neg(B)``), or overlaps b in a critical
    branching (the signed basis entry, and children: the whiskered steps of
    the two completions, entries ``(basis entry,) + C1...Cn +
    neg(Dm)...neg(D1)``).  Its second visit, after its children's, joins
    their entries in that order, so the entries are those of the recursion
    that visits the children in order.  Every child's source is a proper
    reduct of its parent's, so no frame waits on itself.  One memo, keyed by
    ``(source, rule id, pos)``, serves every step.  ``fuel`` bounds the
    frames expanded; running out raises FuelError.

    In the disjoint case b's residual B is the first step of its source,
    and so has no entries, whenever b starts ``maxlhs`` or more positions
    left of the step: that frame is not visited, and the frame's one child,
    the same step after b, has the frame's entries.  The first visit
    follows such far-disjoint frames as one chain, each link an expanded
    frame with its own scan, up to the first link that is not far disjoint
    or is already in the memo; the entries of that link are stored under
    every key of the chain.  The frames expanded, the scans and the point
    where fuel runs out are those of visiting each link as a frame.

    A chain descends on one word edited in place, along ``rewrite._descent``
    from the frame's start hint.  Each child carries a position no redex of
    its source starts before, so the scan for its b begins there.  A child's
    source keeps the prefix of its parent's source before ``b_pos``, which
    holds no redex, so a redex starting at ``q < b_pos`` must reach past a
    rewritten letter and starts at most ``maxlhs - 1`` positions left of
    it, where ``maxlhs`` is ``p.index_automaton.depth``.  That gives ``b_pos - maxlhs + 1`` after
    the step b or inside a whiskered completion (rewritten from ``b_pos``
    on), and ``min(b_pos, pos - maxlhs + 1)`` after the frame's own step
    (rewritten from ``pos`` on, prefix up to ``pos`` kept), each at least 0.
    The hint changes no result, so the memo key leaves it out.
    """
    automaton = p.index_automaton
    rules, window = automaton.rules, automaton.depth - 1
    memo: dict[tuple[Word, str, int], tuple[_RawEntry, ...]] = {}
    expanded = 0
    # a frame is (memo key, rule, start hint) on its first visit and
    # (chain keys, (head entries, child keys, positive children)) on its second
    stack: list = [((source, rule.rule_id, pos), rule, 0) for source, rule, pos in reversed(steps)]
    while stack:
        frame = stack.pop()
        if len(frame) == 2:
            chain, (head, kids, split) = frame
            entries = list(head)
            for kid in kids[:split]:
                entries.extend(memo[kid])
            for kid in reversed(kids[split:]):
                entries.extend(_negate_entries(memo[kid]))
            memo.update(dict.fromkeys(chain, tuple(entries)))
            continue
        key, rule, start = frame
        chain = []
        _, rule_id, pos = key
        word = list(key[0])
        descent = _descent(word, automaton, start)
        while key not in memo:
            expanded += 1
            if expanded > fuel:
                raise FuelError(f"peak elimination did not finish within {fuel} frames")
            chain.append(key)
            b_pos, b_index = next(descent)
            b_rule = rules[b_index]
            m_b = len(b_rule.lhs)
            if pos - b_pos <= window:  # b is the step, overlaps it or is near disjoint
                break
            # far disjoint: the same step after b is the only child
            word[b_pos : b_pos + m_b] = b_rule.rhs
            pos += len(b_rule.rhs) - m_b
            key = (tuple(word), rule_id, pos)
        else:
            # the chain meets a memoized step (an empty chain: the frame's own)
            memo.update(dict.fromkeys(chain, memo[key]))
            continue

        if b_pos == pos and b_rule.rule_id == rule_id:
            memo.update(dict.fromkeys(chain, ()))
            continue

        source = key[0]
        m_s = len(rule.lhs)
        if b_pos + m_b <= pos:
            # near disjoint, pos - b_pos < maxlhs: a redex starting at or before
            # b_pos can reach past the given step, so b may not stay first after
            # it; compare via the two residual steps across the square
            head: tuple[_RawEntry, ...] = ()
            target_b = source[:b_pos] + b_rule.rhs + source[b_pos + m_b :]
            target_s = source[:pos] + rule.rhs + source[pos + m_s :]
            after_b = (target_b, rule_id, pos + len(b_rule.rhs) - m_b)
            children = [
                (after_b, rule, max(0, b_pos - window)),
                ((target_s, b_rule.rule_id, b_pos), b_rule, min(b_pos, max(0, pos - window))),
            ]
            split = 1
        else:
            # overlapping: the minimal overlap is a critical branching
            ov_end = max(b_pos + m_b, pos + m_s)
            overlap = source[b_pos:ov_end]
            left_ctx, right_ctx = source[:b_pos], source[ov_end:]
            beta_sign, basis_id, completion_b, completion_s = index.by_pair[
                (overlap, (b_rule.rule_id, 0), (rule_id, pos - b_pos))
            ]
            head = ((beta_sign, left_ctx, right_ctx, source, basis_id),)
            hint = max(0, b_pos - window)
            children = [
                ((left_ctx + w + right_ctx, step_rule.rule_id, b_pos + q), step_rule, hint)
                for path in (completion_b, completion_s)
                for w, step_rule, q, _ in path.walk()
            ]
            split = len(completion_b)
        stack.append((chain, (head, [child[0] for child in children], split)))
        stack.extend(reversed(children))
    return [memo[(source, rule.rule_id, pos)] for source, rule, pos in steps]


def _pi(entries, p: Presentation) -> PiElement:
    """The element of signed entries ``(sign, left, right, ..., basis id)``:
    each adds its sign at the classes of its contexts and its basis id."""
    pi: PiElement = {}
    for sign, left, right, *_, basis_id in entries:
        _bump(pi, ((normal_form(p, left), normal_form(p, right)), basis_id), sign)
    return pi


def decompose_step(s: RewriteStep, p: Presentation, *, fuel: int = DEFAULT_FUEL) -> PiElement:
    """Basis representation of a positive step's normalization loop: the
    class of (canonical path of the source)⁻ ⁎ step ⁎ (canonical path of
    the target).  ``fuel`` bounds the peak-elimination frames expanded;
    running out raises FuelError."""
    _require_convergent(p)
    if s.sign <= 0:
        raise ValueError("decompose_step expects a positive step")
    (entries,) = _peak_entries([(s.source, s.rule, s.pos)], p, _basis(p), fuel)
    return _pi(entries, p)


# ---------------------------------------------------------------------------
# decomposition certificates


@dataclass(frozen=True)
class CertificateEntry:
    """One conjugated, whiskered basis loop in a decomposition product."""

    sign: int
    left: Word
    right: Word
    conjugator: Path
    basis_id: str


@dataclass(frozen=True)
class DecompositionCertificate:
    loop: Path
    entries: tuple[CertificateEntry, ...]
    pi: PiElement


def decompose_loop(
    f: Path, p: Presentation, *, fuel: int = DEFAULT_FUEL
) -> DecompositionCertificate:
    """Express a closed path over the generating-confluence basis.

    The certificate's element is the signed sum of the per-step classes;
    each entry records the whisker context, the basis loop, and a
    conjugator from the loop's base to the word the contribution lives at.
    Its footprint always replays to the footprint of ``f``.  ``fuel``
    bounds the peak-elimination frames expanded over all steps; running out
    raises FuelError.

    An entry's conjugator runs down the normal path of ``f.base`` (its head)
    and back up the normal path of the entry's base, both cut at the first
    word of the base's path that lies on the head: the free reduction of
    the two cancels their common suffix, and that suffix starts at this
    word, since two leftmost-lowest paths from one word coincide and a
    positive move and its target determine its source.  The bases descend
    into one table per call, of the head's words and of the words earlier
    bases passed through, each with the moves from it to the head: a base
    descends in place only until it meets the table and takes the rest of
    its path from there.  The whole path's length counts against the
    default fuel, as ``normalize``'s would.
    """
    _require_convergent(p)
    if not f.is_closed:
        raise ValueError("decompose_loop expects a closed path")
    words = [source for source, _, _, _ in f.walk()] + [f.target]
    # an inverse step is the positive step from its target, negated
    steps = [
        (words[i] if sign > 0 else words[i + 1], rule, pos)
        for i, (rule, pos, sign) in enumerate(f.moves)
    ]
    raw: list[_RawEntry] = []
    for (_, _, sign), entries in zip(f.moves, _peak_entries(steps, p, _basis(p), fuel)):
        raw.extend(entries if sign > 0 else _negate_entries(entries))
    automaton = p.index_automaton
    normal, head = _reduce(f.base, automaton, DEFAULT_FUEL)
    # word -> (moves, k, j): moves[k:] lead from the word to the j-th word of head;
    # the words come from walking _reduce's moves, each applied where found
    known: dict[Word, tuple[list[Move], int, int]] = {normal: ([], 0, len(head))}
    for j, (word, *_) in enumerate(Path._derived(f.base, head, normal).walk()):
        known[word] = ([], 0, j)
    conjugators: dict[Word, Path] = {}

    def conjugator(base: Word) -> Path:
        path = conjugators.get(base)
        if path is None:
            meeting, own = _reduce(base, automaton, DEFAULT_FUEL, known)
            moves, k, j = known[meeting]
            down = own + moves[k:]
            if len(down) + len(head) - j > DEFAULT_FUEL:
                raise _out_of_fuel(base, DEFAULT_FUEL)
            for i, (word, *_) in enumerate(Path._derived(base, own, meeting).walk()):
                known[word] = (down, i, j)
            back = [(rule, pos, -sign) for rule, pos, sign in reversed(down)]
            path = conjugators[base] = Path._derived(f.base, head[:j] + back, base)
        return path

    entries = tuple(
        CertificateEntry(sign, left, right, conjugator(base), bid)
        for sign, left, right, base, bid in raw
    )
    return DecompositionCertificate(f, entries, _pi(raw, p))


def pi_footprint(x: PiElement, p: Presentation) -> Footprint:
    """Linear extension of the footprint to basis representations: each
    basis term contributes its loop's footprint under the term's context."""
    index = _basis(p)  # requires convergence
    out: Footprint = {}
    for (ctx, basis_id), coeff in x.items():
        loop = index.by_id.get(basis_id)
        if loop is None:
            raise ValueError(f"unknown basis id {basis_id!r}")
        acted = act_footprint(ctx, index.loop_footprint(basis_id, p), p)
        _accumulate(out, acted, coeff)
    return out


def context_act(ctx: tuple[Word, Word], x: PiElement, p: Presentation) -> PiElement:
    """Context action on basis representations, normalized componentwise."""
    _require_convergent(p)
    left, right = ctx
    out: PiElement = {}
    for ((l, r), basis_id), coeff in x.items():
        new_ctx = (normal_form(p, left + l), normal_form(p, r + right))
        _bump(out, (new_ctx, basis_id), coeff)
    return out


@dataclass(frozen=True)
class CertificateReport:
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems


def verify_certificate(
    f: Path, cert: DecompositionCertificate, p: Presentation
) -> CertificateReport:
    """Replay a certificate: its summarized element must match its entry
    list, and its footprint must equal the loop's footprint exactly."""
    _require_convergent(p)
    problems: list[str] = []
    summary = _pi(((e.sign, e.left, e.right, e.basis_id) for e in cert.entries), p)
    if summary != cert.pi:
        problems.append("entry list does not sum to the stated element")
    if pi_footprint(cert.pi, p) != footprint(f, p):
        problems.append("footprint of the element differs from the loop's footprint")
    return CertificateReport(tuple(problems))
