"""The three benchmark workloads: seeded inputs, the timed op, and its check.

Each workload is built from the ``srs`` package object it is given, so a
fresh import yields a fresh library session.  ``make_pass(k)`` draws the
inputs of pass ``k`` from the seed and ``k``; ``run`` is the timed op; ``check``
verifies its output against the independent references in ``oracle`` and
returns the text that goes into the run's output digest.

Inputs are stratified (fixed counts per presentation, fixed lengths, every
letter equally often) so that every seed asks for the same amount of work.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import random
from pathlib import Path

from . import oracle

INPUTS = Path(__file__).resolve().parent / "inputs"


class CheckFailed(Exception):
    """An op's output disagrees with the independent reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def spread_lengths(count: int, lo: int, hi: int) -> list[int]:
    """``count`` lengths evenly spaced from ``lo`` to ``hi``.  Only the
    letters are drawn from the seed: op cost grows steeply with length, and
    drawn lengths would make the percentiles differ between seeds."""
    return [lo + round(i * (hi - lo) / (count - 1)) for i in range(count)]


def balanced_word(rng: random.Random, generators: tuple[str, ...], length: int) -> tuple[str, ...]:
    """A random arrangement of ``length`` letters using every generator
    equally often (the first ones once more when it does not divide)."""
    letters = [generators[i % len(generators)] for i in range(length)]
    rng.shuffle(letters)
    return tuple(letters)


def call_cli(cli, argv: list[str]) -> str:
    """Run ``srs.cli.main`` in process and return what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    if status != 0:
        raise RuntimeError(f"srs {argv[0]} exited with status {status}")
    return out.getvalue()


class Normalize:
    """``srs normalize <file> <word> --format json`` on seeded words.

    Completed Coxeter S4 and S5 and completed A5 get words of 40-300
    letters; the sorting system, whose step count grows quadratically, gets
    20-60 letters; ``a a -> a`` gets a^600 and a^1200.  No op reuses
    another's work, so this measures cold redex scans.
    """

    name = "normalize"
    SETS = (
        ("s4.pres", 28, 40, 300),
        ("s5.pres", 30, 40, 300),
        ("a5_completed.pres", 30, 40, 300),
        ("sorting.pres", 30, 20, 60),
    )
    LONG = (("as.pres", 600), ("as.pres", 1200))

    def __init__(self, srs, seed: int, scratch: Path):
        self.cli = srs.cli
        self.seed = seed
        files = {f for f, *_ in self.SETS} | {f for f, _ in self.LONG}
        self.rules = {f: oracle.read_rules((INPUTS / f).read_text(encoding="utf-8")) for f in files}

    def make_pass(self, k: int) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:{k}")
        ops = []
        for f, count, lo, hi in self.SETS:
            generators = self.rules[f].generators
            for length in spread_lengths(count, lo, hi):
                ops.append((f, balanced_word(rng, generators, length)))
        ops += [(f, ("a",) * n) for f, n in self.LONG]
        rng.shuffle(ops)
        return ops

    def run(self, op) -> str:
        f, word = op
        return call_cli(self.cli, ["normalize", str(INPUTS / f), " ".join(word), "--format", "json"])

    def check(self, op, output: str) -> str:
        f, word = op
        rs = self.rules[f]
        doc = json.loads(output)
        nf, steps = oracle.leftmost_reduction(word, rs)
        expect(doc["normal_form"] == oracle.format_word(nf, rs), f"{f}: wrong normal form")
        expect(doc["path"] == oracle.format_reduction(word, steps, rs), f"{f}: wrong path")
        return output


def orient(rs: oracle.Rules, precedence: tuple[str, ...]) -> str:
    """The presentation text of ``rs`` under shortlex with ``precedence``,
    each rule oriented from the larger side to the smaller."""
    rank = {g: i for i, g in enumerate(precedence)}

    def key(w):
        return len(w), [rank[g] for g in w]

    lines = ["generators: " + " ".join(rs.generators), "order: shortlex " + " < ".join(precedence), "rules:"]
    for rule_id, lhs, rhs in rs.rules:
        if key(lhs) < key(rhs):
            lhs, rhs = rhs, lhs
        lines.append(f" {rule_id}: {' '.join(lhs)} -> {' '.join(rhs)}".rstrip())
    return "\n".join(lines) + "\n"


class Complete:
    """``srs complete <file> --format json`` on finite Coxeter groups.

    Every pass completes each of A3, B3, H3, A4, B4 and D4 under every
    generator precedence once, plus A1 x I2(m) under every precedence with a
    seeded m in 3..8: 96 completions, in seeded order.  The precedence alone
    moves a completion from about 1 ms to about 1 s, so covering all of them
    keeps the mix the same for every seed.
    """

    name = "complete"
    TYPES = ("A3", "B3", "H3", "A4", "B4", "D4")
    DIHEDRAL = range(3, 9)

    def __init__(self, srs, seed: int, scratch: Path):
        self.cli = srs.cli
        self.seed = seed
        self.scratch = scratch
        self.base: dict[str, oracle.Rules] = {}
        self.group_order: dict[str, int] = {}
        for path in sorted((INPUTS / "coxeter").glob("*.pres")):
            rs = oracle.read_rules(path.read_text(encoding="utf-8"))
            self.base[path.stem] = rs
            self.group_order[path.stem] = next(
                int(c.partition(":")[2]) for c in rs.comments if c.startswith("group order:")
            )

    def make_pass(self, k: int) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:{k}")
        draws = [
            (name, precedence)
            for name in self.TYPES
            for precedence in itertools.permutations(self.base[name].generators)
        ]
        draws += [
            (f"A1xI2_{rng.choice(self.DIHEDRAL)}", precedence)
            for precedence in itertools.permutations(("s1", "s2", "s3"))
        ]
        rng.shuffle(draws)
        folder = self.scratch / f"complete-{k}"
        folder.mkdir(parents=True, exist_ok=True)
        ops = []
        for i, (name, precedence) in enumerate(draws):
            path = folder / f"{i:03d}-{name}.pres"
            path.write_text(orient(self.base[name], precedence), encoding="utf-8")
            ops.append((name, precedence, path))
        return ops

    def run(self, op) -> str:
        return call_cli(self.cli, ["complete", str(op[2]), "--format", "json"])

    def check(self, op, output: str) -> str:
        name, precedence, _ = op
        completed = oracle.read_rules(json.loads(output)["presentation"])
        expect(completed.precedence == precedence, f"{name}: order changed")
        order = self.group_order[name]
        count = oracle.count_irreducible(completed, 4 * order)
        expect(count == order, f"{name} {' < '.join(precedence)}: {count} irreducible words, group order {order}")
        return output


class Loops:
    """Loop decomposition, certificate replay and transport in one library
    session, over the sorting system and completed A5.

    Per pass and presentation: 30 two-strategy zigzags (leftmost against
    rightmost normalization) of 8-30-letter words, 10 basis loops whiskered
    by 4-20 letters and 10 conjugated ones, 100 ops in all; the basis loops
    are spread over the basis sorted by length.  Each op decomposes the loop,
    replays the certificate, and builds the comparison loop and the double
    functor image through a verified translation: to ``sorting_d.pres``
    (an extra ``d -> a b``) and to A5 on two generators (``B -> b b``).
    """

    name = "loops"
    PAIRS = (
        ("sorting.pres", "sorting_d.pres", "sorting_d.map"),
        ("a5_completed.pres", "a5_ab.pres", "a5_ab.map"),
    )
    ZIGZAGS, WHISKERED, CONJUGATED = 30, 10, 10
    CANDIDATES = 8

    def __init__(self, srs, seed: int, scratch: Path):
        self.srs = srs
        self.seed = seed
        self.sessions = []
        for sigma_file, upsilon_file, map_file in self.PAIRS:
            sigma_text = (INPUTS / sigma_file).read_text(encoding="utf-8")
            sigma = srs.parse_presentation(sigma_text)
            upsilon = srs.parse_presentation((INPUTS / upsilon_file).read_text(encoding="utf-8"))
            m = srs.parse_translation_map((INPUTS / map_file).read_text(encoding="utf-8"), sigma, upsilon)
            report = srs.check_translation(sigma, upsilon, m)
            if not report.ok:
                raise RuntimeError(f"translation {map_file} rejected: {report.failures}")
            rs = oracle.read_rules(sigma_text)
            basis = {bl.basis_id: bl.loop for bl in srs.basis_loops(sigma)}
            self.sessions.append(
                {
                    "name": sigma_file,
                    "sigma": sigma,
                    "upsilon": upsilon,
                    "map": m,
                    "basis": basis,
                    "by_size": sorted(basis.values(), key=len),
                    "rules": rs,
                    "basis_fp": {},
                }
            )

    # -- inputs ---------------------------------------------------------------

    def _path(self, session, base, moves):
        """The srs path from ``base`` along ``(rule_id, pos, sign)`` moves."""
        srs, p = self.srs, session["sigma"]
        steps, current = [], base
        for rule_id, pos, sign in moves:
            step = srs.RewriteStep(current, p.rule_by_id[rule_id], pos, sign)
            steps.append(step)
            current = srs.apply_step(step)
        return srs.Path(base, tuple(steps))

    def _zigzag(self, rng, session, length):
        """Of ``CANDIDATES`` random words of this length, the one whose
        zigzag size is closest to the typical size for the length.  The cost
        of a sorting-system loop grows about quadratically with its size, so
        plain draws would make passes differ widely in work."""
        rs = session["rules"]
        target = typical_zigzag_size(rs, length)
        candidates = []
        for _ in range(self.CANDIDATES):
            word = balanced_word(rng, rs.generators, length)
            down, other = zigzag_moves(word, rs)
            candidates.append((abs(len(down) + len(other) - target), word, down, other))
        _, word, down, other = min(candidates, key=lambda c: c[0])
        moves = [(r, pos, 1) for r, pos in down] + [(r, pos, -1) for r, pos in reversed(other)]
        return self._path(session, word, moves)

    def _whiskered(self, rng, session, band: float, whiskers: int):
        """A basis loop from the ``band`` quantile of the basis sorted by
        loop length, with ``whiskers`` letters split at random between the
        two sides."""
        generators = session["sigma"].generators
        loop = session["by_size"][int(band * len(session["by_size"]))]
        letters = balanced_word(rng, generators, whiskers)
        left = rng.randint(0, whiskers)
        return self.srs.whisker(letters[:left], loop, letters[left:])

    def _expansion(self, rng, session, word, count):
        """Moves of ``count`` random inverse steps (rhs -> lhs) from ``word``.
        Only rules with short left-hand sides are inverted, so that A5's
        ten-letter rules do not blow the conjugated loops up."""
        rules = session["rules"].rules
        moves, current = [], list(word)
        for _ in range(count):
            options = [
                (rule_id, pos, lhs, rhs)
                for rule_id, lhs, rhs in rules
                if len(lhs) <= 4
                for pos in range(len(current) - len(rhs) + 1)
                if tuple(current[pos : pos + len(rhs)]) == rhs
            ]
            if not options:
                break
            rule_id, pos, lhs, rhs = rng.choice(options)
            current[pos : pos + len(rhs)] = lhs
            moves.append((rule_id, pos, -1))
        return moves

    def make_pass(self, k: int) -> list:
        # The loops of a pass are the same for every seed; the seed draws
        # their order.  A loop's cost varies steeply with its shape, and
        # drawing the loops from the seed made the median op differ by a
        # quarter between seeds.
        rng = random.Random(f"{self.name}:{k}")
        srs = self.srs
        ops = []
        for index, session in enumerate(self.sessions):
            for length in spread_lengths(self.ZIGZAGS, 8, 30):
                ops.append((index, self._zigzag(rng, session, length)))
            for i, whiskers in enumerate(spread_lengths(self.WHISKERED, 4, 20)):
                band = (i + 0.5) / self.WHISKERED
                ops.append((index, self._whiskered(rng, session, band, whiskers)))
            for i, whiskers in enumerate(spread_lengths(self.CONJUGATED, 0, 8)):
                inner = self._whiskered(rng, session, (i + 0.5) / self.CONJUGATED, whiskers)
                moves = self._expansion(rng, session, inner.base, 1 + i % 4)
                ops.append((index, srs.conjugate(inner, srs.invert(self._path(session, inner.base, moves)))))
        random.Random(f"{self.name}:{self.seed}:{k}").shuffle(ops)
        return ops

    # -- op and check ---------------------------------------------------------

    def run(self, op):
        srs = self.srs
        session = self.sessions[op[0]]
        loop, sigma, upsilon, m = op[1], session["sigma"], session["upsilon"], session["map"]
        cert = srs.decompose_loop(loop, sigma)
        verified = srs.verify_certificate(loop, cert, sigma).ok
        lam = srs.comparison_loop(loop, m, sigma, upsilon)
        gf = srs.functor_image(srs.functor_image(loop, m, sigma, upsilon), m.inverse(), upsilon, sigma)
        return cert, verified, lam, gf

    def check(self, op, output) -> str:
        session = self.sessions[op[0]]
        loop = op[1]
        cert, verified, lam, gf = output
        # A fresh memo per check keeps the process's memory the library's.
        nf = oracle.NormalForms(session["rules"])
        expect(verified, f"{session['name']}: verify_certificate rejected the certificate")
        fp = oracle.footprint(steps_of(loop), nf)
        replay: dict = {}
        for entry in cert.entries:
            acted = oracle.act((entry.left, entry.right), self._basis_footprint(session, entry.basis_id, nf), nf)
            oracle.add_into(replay, acted, entry.sign)
        expect(replay == fp, f"{session['name']}: certificate does not replay to the loop's footprint")
        split = oracle.add_into(oracle.footprint(steps_of(lam), nf), oracle.footprint(steps_of(gf), nf))
        expect(split == fp, f"{session['name']}: footprint(loop) != footprint(lambda) + footprint(GF(loop))")
        entries = " ".join(
            f"{e.sign:+d}({' '.join(e.left)}|{' '.join(e.right)}){e.basis_id}[{describe(e.conjugator)}]"
            for e in cert.entries
        )
        pi = sorted((ctx, basis_id, coeff) for (ctx, basis_id), coeff in cert.pi.items())
        return "\n".join([describe(loop), entries, repr(pi), describe(lam), describe(gf)])

    def _basis_footprint(self, session, basis_id: str, nf: oracle.NormalForms) -> dict:
        cached = session["basis_fp"].get(basis_id)
        if cached is None:
            cached = oracle.footprint(steps_of(session["basis"][basis_id]), nf)
            session["basis_fp"][basis_id] = cached
        return cached


def zigzag_moves(word, rs: oracle.Rules):
    """Leftmost and rightmost reduction steps of ``word``."""
    return oracle.leftmost_reduction(word, rs)[1], oracle.rightmost_reduction(word, rs)


@functools.lru_cache(maxsize=None)
def typical_zigzag_size(rs: oracle.Rules, length: int, draws: int = 31) -> int:
    """Median zigzag size of ``draws`` words of this length drawn from a
    fixed seed, so that the target is the same for every run."""
    rng = random.Random(f"typical:{length}")
    sizes = sorted(
        sum(map(len, zigzag_moves(balanced_word(rng, rs.generators, length), rs))) for _ in range(draws)
    )
    return sizes[draws // 2]


def steps_of(path) -> list[oracle.Step]:
    return [(s.source, s.pos, len(s.matched), s.rule.rule_id, s.sign) for s in path.steps]


def describe(path) -> str:
    moves = " ".join(f"{'+' if s.sign > 0 else '-'}{s.rule.rule_id}@{s.pos}" for s in path.steps)
    return f"{' '.join(path.base)}: {moves}"


WORKLOADS = {w.name: w for w in (Normalize, Complete, Loops)}
