"""Shared fixtures: standard presentations, independent oracles, and seeded
random generators for words, paths and closed loops."""

from __future__ import annotations

import itertools
import random
from collections import deque

from srs import (
    DEFAULT_FUEL,
    DEFAULT_RULE_FUEL,
    CompletionEvent,
    CriticalBranching,
    FuelError,
    NotTerminatingError,
    Path,
    Presentation,
    Redex,
    RewriteStep,
    Rule,
    TranslationMap,
    Word,
    apply_step,
    basis_loops,
    check_termination,
    compose,
    conjugate,
    critical_branchings,
    find_redexes,
    free_reduce,
    invert,
    normalize,
    parse_presentation,
    translate_word,
    whisker,
)
from srs.abelian import CertificateEntry, DecompositionCertificate
from srs.completion import _orient
from srs.rewrite import _scan
from srs.critical import CONTAINMENT, PROPER, BranchingFailure

AS_TEXT = "generators: a\norder: shortlex a\nrules:\n r: a a -> a\n"

TWO_TEXT = (
    "generators: a b\norder: shortlex a < b\nrules:\n"
    " r1: a b -> a\n r2: b a -> b\n"
)

FOUR_TEXT = (
    "generators: a b\norder: shortlex a < b\nrules:\n"
    " r1: a b -> a\n r2: b a -> b\n r3: a a -> a\n r4: b b -> b\n"
)


def as_presentation() -> Presentation:
    return parse_presentation(AS_TEXT)


def two_rule_presentation() -> Presentation:
    return parse_presentation(TWO_TEXT)


def four_rule_presentation() -> Presentation:
    return parse_presentation(FOUR_TEXT)


def w(text: str) -> Word:
    """Shorthand: a word from single-letter generator names."""
    return tuple(text)


# ---------------------------------------------------------------------------
# independent oracles


def find_redexes_oracle(w: Word, p: Presentation) -> tuple[Redex, ...]:
    """Every rule tried at every position by slice comparison: the scan the
    trie matcher replaced, kept as its reference."""
    out: list[Redex] = []
    for pos in range(len(w)):
        for rule in p.rules:
            if w[pos : pos + len(rule.lhs)] == rule.lhs:
                out.append(Redex(rule, pos))
    return tuple(out)


def scanned_redex(w: Word, p: Presentation, start: int = 0) -> Redex | None:
    """The redex that one ``rewrite._scan`` from state 0 at ``start`` finds:
    the leftmost at or after ``start``, lowest rule index first."""
    found = _scan(w, p.index_automaton, [0], start)
    return None if found is None else Redex(p.rules[found[1]], found[0])


def normalize_oracle(w: Word, p: Presentation, fuel: int = DEFAULT_FUEL) -> tuple[Word, Path]:
    """Leftmost-lowest normalization that rescans the whole word after every
    step: the reference for the incremental ``normalize``."""
    steps: list[RewriteStep] = []
    current = w
    remaining = fuel
    while True:
        redexes = find_redexes_oracle(current, p)
        if not redexes:
            break
        if remaining <= 0:
            raise FuelError(
                f"no normal form within {fuel} steps from {''.join(w) or 'ε'!r}"
            )
        remaining -= 1
        first = redexes[0]
        step = RewriteStep(current, first.rule, first.pos, 1)
        steps.append(step)
        current = apply_step(step)
    return current, Path(w, tuple(steps))


def apply_step_oracle(step: RewriteStep) -> Word:
    """The target word of a step, by slicing its source: the rewrite every
    caller did for itself before steps carried their target."""
    n = len(step.matched)
    return step.source[: step.pos] + step.replacement + step.source[step.pos + n :]


def path_target_oracle(p: Path) -> Word:
    """The target of a path by re-applying every step, checking each joint:
    the walk ``Path`` construction did before it read the steps' targets."""
    current = p.base
    for step in p.steps:
        if step.source != current:
            raise ValueError(
                f"step {step.rule.rule_id}@{step.pos} starts at "
                f"{''.join(step.source) or 'ε'}, expected {''.join(current) or 'ε'}"
            )
        current = apply_step_oracle(step)
    return current


def invert_oracle(p: Path) -> Path:
    """Reverse the step order and flip all signs, rewriting step by step."""
    steps: list[RewriteStep] = []
    current = p.target
    for step in reversed(p.steps):
        inv = RewriteStep(current, step.rule, step.pos, -step.sign)
        steps.append(inv)
        current = apply_step_oracle(inv)
    return Path(p.target, tuple(steps))


def whisker_oracle(u: Word, p: Path, v: Word) -> Path:
    """Embed a path in the context u·(-)·v, wrapping each step's own source."""
    steps = tuple(
        RewriteStep(u + step.source + v, step.rule, step.pos + len(u), step.sign)
        for step in p.steps
    )
    return Path(u + p.base + v, steps)


def functor_image_oracle(
    f: Path, m: TranslationMap, src: Presentation, dst: Presentation
) -> Path:
    """Push a path through a translation by composing one whiskered segment
    at a time, each composite checked again from its base."""
    fwd = m.forward_map
    image = Path(translate_word(f.base, fwd))
    for step in f.steps:
        left = translate_word(step.source[: step.pos], fwd)
        right = translate_word(step.source[step.pos + len(step.matched) :], fwd)
        lhs_image = translate_word(step.rule.lhs, fwd)
        rhs_image = translate_word(step.rule.rhs, fwd)
        segment = compose(
            normalize(lhs_image, dst)[1], invert_oracle(normalize(rhs_image, dst)[1])
        )
        if step.sign < 0:
            segment = invert_oracle(segment)
        image = compose(image, whisker_oracle(left, segment, right))
    return image


def comparison_path_oracle(
    w: Word, m: TranslationMap, sigma: Presentation, upsilon: Presentation
) -> Path:
    """Path from a word to its double translation, composed letter by letter,
    translating each prefix again."""

    def round_trip(word: Word) -> Word:
        return translate_word(translate_word(word, m.forward_map), m.backward_map)

    path = Path(w)
    for idx, g in enumerate(w):
        prefix_image = round_trip(w[:idx])
        lam = compose(
            normalize((g,), sigma)[1], invert_oracle(normalize(round_trip((g,)), sigma)[1])
        )
        path = compose(path, whisker_oracle(prefix_image, lam, w[idx + 1 :]))
    return path


def free_reduce_oracle(p: Path) -> Path:
    """Cancel adjacent mutually inverse steps with a stack of RewriteSteps:
    the free reduction that ran on stored steps before paths were moves."""
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


def exchange_swap_oracle(p: Path, i: int) -> Path:
    """Swap steps i and i+1 by re-basing RewriteSteps on each other's
    residuals: the exchange that ran on stored steps before paths were
    moves.  Raises ValueError where the steps overlap."""
    first, second = p.steps[i], p.steps[i + 1]
    a, b = first.pos, second.pos
    shift1 = len(first.replacement) - len(first.matched)
    if b + len(second.matched) <= a:
        new_first = RewriteStep(first.source, second.rule, b, second.sign)
        shift2 = len(second.replacement) - len(second.matched)
        new_second = RewriteStep(new_first.target, first.rule, a + shift2, first.sign)
    elif b >= a + len(first.replacement):
        new_first = RewriteStep(first.source, second.rule, b - shift1, second.sign)
        new_second = RewriteStep(new_first.target, first.rule, a, first.sign)
    else:
        raise ValueError("overlapping steps")
    return Path(p.base, p.steps[:i] + (new_first, new_second) + p.steps[i + 2 :])


def footprint_oracle(f: Path, p: Presentation) -> dict:
    """Footprint from each stored step's own source word, with normal forms
    from ``normalize_oracle``."""
    out: dict = {}
    for step in f.steps:
        left = normalize_oracle(step.source[: step.pos], p)[0]
        right = normalize_oracle(step.source[step.pos + len(step.matched) :], p)[0]
        key = (left, step.rule.rule_id, right)
        out[key] = out.get(key, 0) + step.sign
        if not out[key]:
            del out[key]
    return out


def first_split_pair_oracle(
    words: list[Word], classes_p: dict, classes_q: dict
) -> tuple[Word, Word] | None:
    """Compare every pair of words in order: the first pair that one
    partition joins and the other separates, or None."""
    for i, u in enumerate(words):
        for v in words[i + 1 :]:
            if (classes_p[u] == classes_p[v]) != (classes_q[u] == classes_q[v]):
                return u, v
    return None


def branching_key(overlap: Word, redex_a: tuple[str, int], redex_b: tuple[str, int]):
    """Identity of a branching: its overlap and its unordered pair of
    (rule id, position) redexes."""
    return overlap, tuple(sorted([(redex_a[1], redex_a[0]), (redex_b[1], redex_b[0])]))


def critical_branchings_oracle(p: Presentation) -> tuple[CriticalBranching, ...]:
    """Every overlap of every rule pair collected in a dict keyed by
    ``branching_key`` (first insertion kept), then sorted by (rule1 index,
    rule2 index, offset): the enumeration the in-order walk replaced."""
    found: dict[object, CriticalBranching] = {}
    position = {rule.rule_id: i for i, rule in enumerate(p.rules)}
    for i, r1 in enumerate(p.rules):
        for j, r2 in enumerate(p.rules):
            l1, l2 = r1.lhs, r2.lhs
            for off in range(1, len(l1)):
                k = len(l1) - off
                if k < len(l2) and l1[off:] == l2[:k]:
                    overlap = l1 + l2[k:]
                    key = branching_key(overlap, (r1.rule_id, 0), (r2.rule_id, off))
                    found.setdefault(key, CriticalBranching(r1, r2, off, overlap, PROPER))
            if len(l2) <= len(l1):
                for off in range(len(l1) - len(l2) + 1):
                    if l1[off : off + len(l2)] == l2 and not (i == j and off == 0):
                        key = branching_key(l1, (r1.rule_id, 0), (r2.rule_id, off))
                        found.setdefault(key, CriticalBranching(r1, r2, off, l1, CONTAINMENT))
    return tuple(
        sorted(
            found.values(),
            key=lambda b: (
                position[b.rule1.rule_id],
                position[b.rule2.rule_id],
                b.offset,
            ),
        )
    )


def knuth_bendix_oracle(
    p: Presentation, fuel: int = DEFAULT_RULE_FUEL
) -> tuple[Presentation, tuple[CompletionEvent, ...]]:
    """Completion that lists and sorts every critical branching of the rule
    set after each added rule (``critical_branchings_oracle``) and then
    walks the list: the loop the lazy in-order walk replaced.  Every rule
    set is a validated ``Presentation``."""

    def with_rules(p: Presentation, rules: list[Rule]) -> Presentation:
        return Presentation(p.generators, tuple(rules), p.order)

    if not check_termination(p).ok:
        raise NotTerminatingError("completion requires a terminating presentation")

    rules: list[Rule] = list(p.rules)
    trace: list[CompletionEvent] = []
    used_ids = {r.rule_id for r in rules}
    counter = itertools.count(1)
    added = 0

    def fresh_id() -> str:
        while True:
            cand = f"kb{next(counter)}"
            if cand not in used_ids:
                used_ids.add(cand)
                return cand

    def add_rule(u: Word, v: Word, overlap: Word | None):
        nonlocal added
        lhs, rhs = _orient(p, u, v)
        added += 1
        if added > fuel:
            raise FuelError(f"completion did not finish within {fuel} added rules")
        rule = Rule(fresh_id(), lhs, rhs)
        rules.append(rule)
        trace.append(CompletionEvent("add", rule.rule_id, lhs, rhs, overlap))

    def simplify():
        changed = True
        while changed:
            changed = False
            current = with_rules(p, rules)
            for idx, rule in enumerate(rules):
                if all(r.rule_id == rule.rule_id for r in find_redexes(rule.lhs, current)):
                    continue
                q = with_rules(p, rules[:idx] + rules[idx + 1 :])
                u, _ = normalize(rule.lhs, q)
                del rules[idx]
                trace.append(CompletionEvent("remove", rule.rule_id, rule.lhs, rule.rhs))
                v, _ = normalize(rule.rhs, q)
                if u != v:
                    add_rule(u, v, None)
                changed = True
                break
            if changed:
                continue
            for idx, rule in enumerate(rules):
                rhs, _ = normalize(rule.rhs, current)
                if rhs != rule.rhs:
                    rules[idx] = Rule(rule.rule_id, rule.lhs, rhs)
                    trace.append(CompletionEvent("simplify", rule.rule_id, rule.lhs, rhs))
                    changed = True
                    break

    simplify()
    while True:
        current = with_rules(p, rules)
        pending = None
        for b in critical_branchings_oracle(current):
            left = RewriteStep(b.overlap, b.rule1, 0, 1).target
            right = RewriteStep(b.overlap, b.rule2, b.offset, 1).target
            nf_left, _ = normalize(left, current)
            nf_right, _ = normalize(right, current)
            if nf_left != nf_right:
                pending = (nf_left, nf_right, b.overlap)
                break
        if pending is None:
            return current, tuple(trace)
        add_rule(pending[0], pending[1], pending[2])
        simplify()


def conjugator_oracle(p: Presentation, loop_base: Word, base: Word) -> Path:
    """A certificate entry's conjugator from the loop's base to ``base``:
    the normal path of the loop's base composed with the inverse normal
    path of ``base``, free-reduced, as ``decompose_loop`` built it before
    it replayed each conjugator once."""
    return free_reduce(compose(normalize(loop_base, p)[1], invert(normalize(base, p)[1])))


def generating_confluence_loop_oracle(b: CriticalBranching, p: Presentation) -> Path:
    """A generating confluence's boundary loop as four path-algebra calls,
    each replaying its result: (step1 ⁎ completion1) ⁎ (step2 ⁎
    completion2)⁻, free-reduced."""
    step1 = Path(b.overlap, (RewriteStep(b.overlap, b.rule1, 0, 1),))
    step2 = Path(b.overlap, (RewriteStep(b.overlap, b.rule2, b.offset, 1),))
    completion1 = normalize(step1.target, p)[1]
    completion2 = normalize(step2.target, p)[1]
    return free_reduce(compose(compose(step1, completion1), invert(compose(step2, completion2))))


def local_confluence_failures_oracle(p: Presentation) -> tuple[BranchingFailure, ...]:
    """The unjoinable critical branchings, found by normalizing the two
    targets of each, left then right, and comparing the normal forms."""
    failures = []
    for b in critical_branchings(p):
        left, right = (normalize(target, p)[0] for target in b.targets)
        if left != right:
            failures.append(BranchingFailure(b, left, right))
    return tuple(failures)


def _negate_entries(entries):
    return tuple(
        (-sign, left, right, base, bid) for sign, left, right, base, bid in reversed(entries)
    )


def _bump(acc: dict, key, value: int):
    total = acc.get(key, 0) + value
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


def _accumulate(acc: dict, other: dict, scale: int = 1):
    for key, value in other.items():
        _bump(acc, key, scale * value)


def e_class_oracle(source: Word, rule: Rule, pos: int, p: Presentation, memo: dict):
    """Peak elimination by recursion: the class, as a basis element and as
    raw entries ``(sign, left, right, base, basis id)``, of the loop
    comparing the step (source, rule, pos, +) against the canonical
    normalization of its source.  Each call sums its own element from its
    children's, and scans each source from position 0."""
    key = (source, rule.rule_id, pos)
    cached = memo.get(key)
    if cached is not None:
        return cached
    first = find_redexes_oracle(source, p)[0]
    b_rule, b_pos = first.rule, first.pos
    if (b_rule.rule_id, b_pos) == (rule.rule_id, pos):
        memo[key] = ({}, ())
        return memo[key]
    m_b, m_s = len(b_rule.lhs), len(rule.lhs)
    if b_pos + m_b <= pos:
        target_b = RewriteStep(source, b_rule, b_pos, 1).target
        target_s = RewriteStep(source, rule, pos, 1).target
        shift = len(b_rule.rhs) - m_b
        pi_s, entries_s = e_class_oracle(target_b, rule, pos + shift, p, memo)
        pi_b, entries_b = e_class_oracle(target_s, b_rule, b_pos, p, memo)
        pi = dict(pi_s)
        _accumulate(pi, pi_b, -1)
        memo[key] = (pi, entries_s + _negate_entries(entries_b))
        return memo[key]
    ov_end = max(b_pos + m_b, pos + m_s)
    overlap = source[b_pos:ov_end]
    left_ctx, right_ctx = source[:b_pos], source[ov_end:]
    lookup = branching_key(overlap, (b_rule.rule_id, 0), (rule.rule_id, pos - b_pos))
    basis_loop = next(
        bl
        for bl in basis_loops(p)
        if branching_key(bl.confluence.branching.overlap, *bl.confluence.branching.redexes)
        == lookup
    )
    conf = basis_loop.confluence
    branching = conf.branching
    if ((b_rule.rule_id, 0), (rule.rule_id, pos - b_pos)) == branching.redexes:
        beta_sign, completion_b, completion_s = -1, conf.completion1, conf.completion2
    else:
        beta_sign, completion_b, completion_s = 1, conf.completion2, conf.completion1
    pi: dict = {}
    ctx_class = (normalize(left_ctx, p)[0], normalize(right_ctx, p)[0])
    _bump(pi, (ctx_class, basis_loop.basis_id), beta_sign)
    entries = [(beta_sign, left_ctx, right_ctx, source, basis_loop.basis_id)]
    for path, sign in ((completion_b, 1), (completion_s, -1)):
        collected = [
            e_class_oracle(left_ctx + step.source + right_ctx, step.rule, b_pos + step.pos, p, memo)
            for step in path.steps
        ]
        if sign > 0:
            for sub_pi, sub_entries in collected:
                _accumulate(pi, sub_pi, 1)
                entries.extend(sub_entries)
        else:
            for sub_pi, sub_entries in reversed(collected):
                _accumulate(pi, sub_pi, -1)
                entries.extend(_negate_entries(sub_entries))
    memo[key] = (pi, tuple(entries))
    return memo[key]


def decompose_step_oracle(s: RewriteStep, p: Presentation) -> dict:
    """``decompose_step`` by the recursive peak elimination."""
    return dict(e_class_oracle(s.source, s.rule, s.pos, p, {})[0])


def decompose_loop_oracle(f: Path, p: Presentation) -> DecompositionCertificate:
    """``decompose_loop`` by the recursive peak elimination, each step's
    element added in, with the conjugators of ``conjugator_oracle``."""
    memo: dict = {}
    pi: dict = {}
    raw = []
    for step in f.steps:
        word = step.source if step.sign > 0 else step.target
        sub_pi, sub_entries = e_class_oracle(word, step.rule, step.pos, p, memo)
        _accumulate(pi, sub_pi, step.sign)
        raw.extend(sub_entries if step.sign > 0 else _negate_entries(sub_entries))
    entries = tuple(
        CertificateEntry(sign, left, right, conjugator_oracle(p, f.base, base), bid)
        for sign, left, right, base, bid in raw
    )
    return DecompositionCertificate(f, entries, pi)


def reachable_normal_forms(p: Presentation, start: Word) -> set[Word]:
    """Breadth-first forward reduction; the set of all normal forms reachable
    from ``start``.  Independent of the deterministic strategy."""
    seen = {start}
    queue = deque([start])
    out: set[Word] = set()
    while queue:
        word = queue.popleft()
        redexes = find_redexes(word, p)
        if not redexes:
            out.add(word)
            continue
        for redex in redexes:
            nxt = apply_step(RewriteStep(word, redex.rule, redex.pos, 1))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return out


def congruence_classes_oracle(p: Presentation, bound: int) -> dict[Word, frozenset[Word]]:
    """Connected components of the rewriting graph (both directions) on all
    words of length <= bound, by breadth-first search."""
    words = [
        tuple(combo)
        for n in range(bound + 1)
        for combo in itertools.product(p.generators, repeat=n)
    ]
    index = {word: i for i, word in enumerate(words)}
    component = [None] * len(words)
    classes: dict[Word, frozenset[Word]] = {}
    for seed_word in words:
        if component[index[seed_word]] is not None:
            continue
        members = []
        queue = deque([seed_word])
        component[index[seed_word]] = seed_word
        while queue:
            word = queue.popleft()
            members.append(word)
            neighbours = []
            for rule in p.rules:
                n = len(rule.lhs)
                for pos in range(len(word) - n + 1):
                    if word[pos : pos + n] == rule.lhs:
                        neighbours.append(word[:pos] + rule.rhs + word[pos + n :])
                m = len(rule.rhs)
                for pos in range(len(word) - m + 1):
                    if word[pos : pos + m] == rule.rhs:
                        neighbours.append(word[:pos] + rule.lhs + word[pos + m :])
            for nxt in neighbours:
                if len(nxt) <= bound and component[index[nxt]] is None:
                    component[index[nxt]] = seed_word
                    queue.append(nxt)
        frozen = frozenset(members)
        for member in members:
            classes[member] = frozen
    return classes


def alt_normal_path(p: Presentation, word: Word) -> Path:
    """A second deterministic normalizer: rightmost position, highest rule
    index.  Used to build two-strategy zigzag loops."""
    steps = []
    current = word
    while True:
        redexes = find_redexes(current, p)
        if not redexes:
            break
        last = redexes[-1]
        step = RewriteStep(current, last.rule, last.pos, 1)
        steps.append(step)
        current = apply_step(step)
    return Path(word, tuple(steps))


# ---------------------------------------------------------------------------
# random generation


def random_word(rng: random.Random, p: Presentation, max_len: int, min_len: int = 0) -> Word:
    n = rng.randint(min_len, max_len)
    return tuple(rng.choice(p.generators) for _ in range(n))


def random_forward_path(rng: random.Random, p: Presentation, word: Word, max_steps: int) -> Path:
    steps = []
    current = word
    for _ in range(rng.randint(0, max_steps)):
        redexes = find_redexes(current, p)
        if not redexes:
            break
        redex = rng.choice(redexes)
        step = RewriteStep(current, redex.rule, redex.pos, 1)
        steps.append(step)
        current = apply_step(step)
    return Path(word, tuple(steps))


def random_mixed_path(
    rng: random.Random,
    p: Presentation,
    word: Word,
    max_steps: int,
    max_len: int = 12,
) -> Path:
    """A zigzag: each step is a random redex (forward) or a random rule
    inversion (backward), keeping the word length bounded."""
    steps = []
    current = word
    for _ in range(rng.randint(0, max_steps)):
        options: list[RewriteStep] = []
        for redex in find_redexes(current, p):
            options.append(RewriteStep(current, redex.rule, redex.pos, 1))
        for rule in p.rules:
            if len(current) - len(rule.rhs) + len(rule.lhs) > max_len:
                continue
            m = len(rule.rhs)
            for pos in range(len(current) - m + 1):
                if current[pos : pos + m] == rule.rhs:
                    options.append(RewriteStep(current, rule, pos, -1))
        if not options:
            break
        step = rng.choice(options)
        steps.append(step)
        current = apply_step(step)
    return Path(word, tuple(steps))


def return_path(p: Presentation, source: Word, destination: Word) -> Path:
    """Canonical zigzag from source to destination through their common
    normal form (they must be congruent)."""
    down = normalize(source, p)[1]
    up = normalize(destination, p)[1]
    assert down.target == up.target, "words are not congruent"
    return compose(down, invert(up))


def random_loop(
    rng: random.Random,
    p: Presentation,
    basis: tuple[Path, ...],
    max_len: int = 8,
    depth: int = 2,
) -> Path:
    """A random closed path: two-strategy zigzags, mixed zigzag excursions,
    whiskered basis loops, conjugates, inverses and composites thereof."""
    kind = rng.choice(
        ["zigzag", "excursion", "whisker", "conjugate", "inverse", "compose"]
        if depth > 0
        else ["zigzag", "excursion", "whisker"]
    )
    if kind == "zigzag":
        word = random_word(rng, p, max_len)
        return compose(normalize(word, p)[1], invert(alt_normal_path(p, word)))
    if kind == "excursion":
        word = random_word(rng, p, max_len)
        out = random_mixed_path(rng, p, word, 6)
        return compose(out, return_path(p, out.target, word))
    if kind == "whisker":
        if not basis:
            return Path(random_word(rng, p, max_len))
        loop = rng.choice(basis)
        left = random_word(rng, p, 2)
        right = random_word(rng, p, 2)
        return whisker(left, loop, right)
    if kind == "inverse":
        return invert(random_loop(rng, p, basis, max_len, depth - 1))
    if kind == "compose":
        first = random_loop(rng, p, basis, max_len, depth - 1)
        second_source = random_loop(rng, p, basis, max_len, depth - 1)
        second = move_loop(p, second_source, first.base)
        return compose(first, second)
    # conjugate
    inner = random_loop(rng, p, basis, max_len, depth - 1)
    out = random_mixed_path(rng, p, inner.base, 4)
    conjugator = invert(out)
    return conjugate(inner, conjugator)


def move_loop(p: Presentation, loop: Path, base: Word) -> Path:
    """Conjugate a loop to sit at another base in the same congruence class;
    falls back to the empty loop when the classes differ."""
    down_new = normalize(base, p)[1]
    down_old = normalize(loop.base, p)[1]
    if down_new.target != down_old.target:
        return Path(base)
    g = compose(down_new, invert(down_old))
    return compose(g, compose(loop, invert(g)))


def random_terminating_presentation(rng: random.Random) -> Presentation:
    """A random shortlex-oriented presentation: alphabet of 1-2 letters, up
    to 3 rules with lhs length up to 3."""
    from srs import GREATER, OrderSpec, Rule, compare_words

    alphabet = tuple("ab"[: rng.randint(1, 2)])
    order = OrderSpec("shortlex", alphabet)
    rules = []
    for k in range(rng.randint(1, 3)):
        for _ in range(40):
            lhs = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
            rhs = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 3)))
            if lhs == rhs or not lhs:
                continue
            if compare_words(order, lhs, rhs) is not GREATER:
                lhs, rhs = rhs, lhs
            if not lhs:
                continue
            rules.append(Rule(f"r{k + 1}", lhs, rhs))
            break
    return Presentation(alphabet, tuple(rules), order)


def random_ordered_presentation(rng: random.Random) -> Presentation:
    """A random presentation over 1-3 letters with 1-5 rules, each oriented
    from the larger of two words of up to 4 letters, under shortlex or
    weighted shortlex (weights 1-3) over a random precedence."""
    from srs import GREATER, OrderSpec, compare_words

    alphabet = tuple("abc"[: rng.randint(1, 3)])
    precedence = tuple(rng.sample(alphabet, len(alphabet)))
    if rng.random() < 0.5:
        order = OrderSpec("shortlex", precedence)
    else:
        weights = tuple((g, rng.randint(1, 3)) for g in alphabet)
        order = OrderSpec("weighted-shortlex", precedence, weights)
    count = rng.randint(1, 5)
    rules: list[Rule] = []
    while len(rules) < count:
        u, v = (tuple(rng.choices(alphabet, k=rng.randint(0, 4))) for _ in range(2))
        if u == v:
            continue
        if compare_words(order, u, v) is not GREATER:
            u, v = v, u
        rules.append(Rule(f"r{len(rules) + 1}", u, v))
    return Presentation(alphabet, tuple(rules), order)
