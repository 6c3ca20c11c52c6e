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
from functools import lru_cache

from .errors import FuelError, NotConvergentError
from .presentation import Presentation, Rule, Word
from .rewrite import (
    Path,
    RewriteStep,
    first_redex,
    normal_form,
    normal_path,
)
from .critical import (
    branching_key,
    critical_branchings,
    generating_confluence,
    is_convergent,
)

# footprint: (left class, rule id, right class) -> nonzero integer
Footprint = dict[tuple[Word, str, Word], int]
# basis representation: ((left class, right class), basis id) -> nonzero integer
PiElement = dict[tuple[tuple[Word, Word], str], int]

_MAX_DEPTH = 600  # peak-elimination depth limit, below the interpreter's own


def _bump(acc: dict, key, value: int):
    total = acc.get(key, 0) + value
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


def _accumulate(acc: dict, other: dict, scale: int = 1):
    for key, value in other.items():
        _bump(acc, key, scale * value)


def _require_convergent(p: Presentation):
    if not is_convergent(p).ok:
        raise NotConvergentError(
            "this computation needs a convergent presentation; run completion first"
        )


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
    confluence: object  # GeneratingConfluence

    @property
    def loop(self) -> Path:
        return self.confluence.loop


class _BasisIndex:
    """Per-presentation basis: loops in canonical order, looked up by the
    overlap word and its unordered redex pair."""

    def __init__(self, p: Presentation):
        loops = []
        by_key = {}
        for n, branching in enumerate(critical_branchings(p), start=1):
            conf = generating_confluence(branching, p)
            loop = BasisLoop(f"b{n}", conf)
            loops.append(loop)
            by_key[branching_key(branching.overlap, *branching.redexes)] = loop
        self.loops: tuple[BasisLoop, ...] = tuple(loops)
        self.by_key = by_key
        self.by_id = {loop.basis_id: loop for loop in loops}
        self._footprints: dict[str, Footprint] = {}
        self.presentation = p

    def loop_footprint(self, basis_id: str) -> Footprint:
        cached = self._footprints.get(basis_id)
        if cached is None:
            cached = footprint(self.by_id[basis_id].loop, self.presentation)
            self._footprints[basis_id] = cached
        return cached


@lru_cache(maxsize=None)
def _basis(p: Presentation) -> _BasisIndex:
    _require_convergent(p)
    return _BasisIndex(p)


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


def _e_class(
    source: Word,
    rule: Rule,
    pos: int,
    p: Presentation,
    index: _BasisIndex,
    memo: dict,
    depth: int,
    start: int = 0,
) -> tuple[PiElement, tuple[_RawEntry, ...]]:
    """Class of the loop comparing the step (source, rule, pos, +) against
    the canonical normalization of its source, by Noetherian recursion.

    Case split on the canonical first step b of the source: the given step
    equals b (class zero), is disjoint from b (difference of the two
    residuals' classes), or overlaps b in a critical branching (one signed
    basis term plus the classes of the whiskered completions' steps).

    ``start`` is a position no redex of ``source`` starts before, so the
    scan for b begins there.  Each recursive call passes one: its source
    keeps the prefix of this source before ``b_pos``, which holds no redex,
    so a redex starting at ``q < b_pos`` must reach past a rewritten letter
    and starts at most ``maxlhs - 1`` positions left of it, where ``maxlhs``
    is ``p.index_automaton.depth``.  That gives
    ``b_pos - maxlhs + 1`` after the step b or inside a whiskered completion
    (rewritten from ``b_pos`` on), and ``min(b_pos, pos - maxlhs + 1)``
    after the given step (rewritten from ``pos`` on, prefix up to ``pos``
    kept), each at least 0.  The hint changes no result, so the memo key
    leaves it out.
    """
    key = (source, rule.rule_id, pos)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if depth > _MAX_DEPTH:
        raise FuelError(f"peak elimination exceeded its depth limit of {_MAX_DEPTH}")

    first = first_redex(source, p, start)
    b_rule, b_pos = first.rule, first.pos
    if (b_rule.rule_id, b_pos) == (rule.rule_id, pos):
        result: tuple[PiElement, tuple[_RawEntry, ...]] = ({}, ())
        memo[key] = result
        return result

    m_b, m_s = len(b_rule.lhs), len(rule.lhs)
    window = p.index_automaton.depth - 1
    if b_pos + m_b <= pos:
        # disjoint: compare via the two residual steps across the square
        target_b = RewriteStep(source, b_rule, b_pos, 1).target
        target_s = RewriteStep(source, rule, pos, 1).target
        shift = len(b_rule.rhs) - m_b
        pi_s, entries_s = _e_class(
            target_b, rule, pos + shift, p, index, memo, depth + 1, max(0, b_pos - window)
        )
        pi_b, entries_b = _e_class(
            target_s, b_rule, b_pos, p, index, memo, depth + 1,
            min(b_pos, max(0, pos - window)),
        )
        pi: PiElement = dict(pi_s)
        _accumulate(pi, pi_b, -1)
        result = (pi, entries_s + _negate_entries(entries_b))
        memo[key] = result
        return result

    # overlapping: the minimal overlap is a critical branching
    ov_end = max(b_pos + m_b, pos + m_s)
    overlap = source[b_pos:ov_end]
    left_ctx, right_ctx = source[:b_pos], source[ov_end:]
    lookup = branching_key(overlap, (b_rule.rule_id, 0), (rule.rule_id, pos - b_pos))
    basis_loop = index.by_key.get(lookup)
    if basis_loop is None:  # pragma: no cover - would be an enumeration bug
        raise RuntimeError(f"no critical branching indexed for overlap {overlap}")
    conf = basis_loop.confluence
    branching = conf.branching
    c1 = (branching.rule1.rule_id, 0)
    local_b = (b_rule.rule_id, 0)
    local_s = (rule.rule_id, pos - b_pos)

    completion_b, completion_s = conf.completion1, conf.completion2
    if local_b == c1 and local_s == (branching.rule2.rule_id, branching.offset):
        beta_sign = -1
    elif local_s == c1 and local_b == (branching.rule2.rule_id, branching.offset):
        beta_sign = 1
        completion_b, completion_s = conf.completion2, conf.completion1
    else:  # pragma: no cover - inconsistent index
        raise RuntimeError("branching lookup does not match the step pair")

    pi = {}
    ctx_class = (normal_form(p, left_ctx), normal_form(p, right_ctx))
    _bump(pi, (ctx_class, basis_loop.basis_id), beta_sign)
    entries: list[_RawEntry] = [
        (beta_sign, left_ctx, right_ctx, source, basis_loop.basis_id)
    ]
    hint = max(0, b_pos - window)
    for path, sign in ((completion_b, 1), (completion_s, -1)):
        collected: list[tuple[PiElement, tuple[_RawEntry, ...]]] = []
        for step_source, step_rule, step_pos, _ in path.walk():
            collected.append(
                _e_class(
                    left_ctx + step_source + right_ctx, step_rule, b_pos + step_pos,
                    p, index, memo, depth + 1, hint,
                )
            )
        if sign > 0:
            for sub_pi, sub_entries in collected:
                _accumulate(pi, sub_pi, 1)
                entries.extend(sub_entries)
        else:
            for sub_pi, sub_entries in reversed(collected):
                _accumulate(pi, sub_pi, -1)
                entries.extend(_negate_entries(sub_entries))
    result = (pi, tuple(entries))
    memo[key] = result
    return result


def decompose_step(s: RewriteStep, p: Presentation) -> PiElement:
    """Basis representation of a positive step's normalization loop: the
    class of (canonical path of the source)⁻ ⁎ step ⁎ (canonical path of
    the target)."""
    _require_convergent(p)
    if s.sign <= 0:
        raise ValueError("decompose_step expects a positive step")
    pi, _ = _e_class(s.source, s.rule, s.pos, p, _basis(p), {}, 0)
    return dict(pi)


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


def decompose_loop(f: Path, p: Presentation) -> DecompositionCertificate:
    """Express a closed path over the generating-confluence basis.

    The certificate's element is the signed sum of the per-step classes;
    each entry records the whisker context, the basis loop, and a
    conjugator from the loop's base to the word the contribution lives at.
    Its footprint always replays to the footprint of ``f``.
    """
    _require_convergent(p)
    if not f.is_closed:
        raise ValueError("decompose_loop expects a closed path")
    index = _basis(p)
    memo: dict = {}
    pi: PiElement = {}
    raw: list[_RawEntry] = []
    for source, rule, pos, sign in f.walk():
        # an inverse step is the positive step from its target, negated
        word = source if sign > 0 else RewriteStep(source, rule, pos, sign).target
        sub_pi, sub_entries = _e_class(word, rule, pos, p, index, memo, 0)
        _accumulate(pi, sub_pi, sign)
        raw.extend(sub_entries if sign > 0 else _negate_entries(sub_entries))
    head = normal_path(p, f.base).moves
    conjugators: dict[Word, Path] = {}

    def conjugator(base: Word) -> Path:
        # the free reduction of (normal path of f.base) ⁎ (normal path of
        # base)⁻: both paths are positive, so it cancels exactly the common
        # suffix of their moves, and one replay builds what is left
        path = conjugators.get(base)
        if path is None:
            tail = normal_path(p, base).moves
            k = 0
            while k < min(len(head), len(tail)) and head[-1 - k] == tail[-1 - k]:
                k += 1
            back = [(rule, pos, -sign) for rule, pos, sign in reversed(tail[: len(tail) - k])]
            path = conjugators[base] = Path.from_moves(f.base, head[: len(head) - k] + tuple(back))
        return path

    entries = tuple(
        CertificateEntry(sign, left, right, conjugator(base), bid)
        for sign, left, right, base, bid in raw
    )
    return DecompositionCertificate(f, entries, pi)


def pi_footprint(x: PiElement, p: Presentation) -> Footprint:
    """Linear extension of the footprint to basis representations: each
    basis term contributes its loop's footprint under the term's context."""
    _require_convergent(p)
    index = _basis(p)
    out: Footprint = {}
    for (ctx, basis_id), coeff in x.items():
        loop = index.by_id.get(basis_id)
        if loop is None:
            raise ValueError(f"unknown basis id {basis_id!r}")
        acted = act_footprint(ctx, index.loop_footprint(basis_id), p)
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
    summary: PiElement = {}
    for entry in cert.entries:
        ctx = (normal_form(p, entry.left), normal_form(p, entry.right))
        _bump(summary, (ctx, entry.basis_id), entry.sign)
    if summary != cert.pi:
        problems.append("entry list does not sum to the stated element")
    if pi_footprint(cert.pi, p) != footprint(f, p):
        problems.append("footprint of the element differs from the loop's footprint")
    return CertificateReport(tuple(problems))
