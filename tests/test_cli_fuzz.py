"""The command line on random presentation text and random argv, run in
process: every run ends with status 0, 1 or 2, no traceback reaches
stderr, and status 2 comes with an ``srs:`` diagnostic or, for a usage
error, argparse's ``usage:`` line.

The commands that take ``--fuel`` always get a small one, so that
``normalize`` and ``critical-pairs`` with ``--assume-terminating`` on a
non-terminating system stop there: the default fuel of a million steps is
slow, not wrong.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from srs.cli import main

PROPERTY = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])

NAMES = ["a", "b", "c", "ab", "x_1"]

words = st.lists(st.sampled_from(NAMES + ["ε", "z", "a-b"]), max_size=4).map(" ".join)


def _rule(rule_id, lhs, rhs):
    return f" {rule_id}: {lhs} -> {rhs}"


structured_line = st.one_of(
    st.lists(st.sampled_from(NAMES + ["a-"]), max_size=4).map(lambda g: "generators: " + " ".join(g)),
    st.permutations(NAMES[:3]).map(lambda g: "order: shortlex " + " < ".join(g)),
    st.lists(st.tuples(st.sampled_from(NAMES), st.integers(-1, 3)), max_size=3).map(
        lambda ws: "order: weights " + " ".join(f"{g}={n}" for g, n in ws)
    ),
    st.just("rules:"),
    st.builds(_rule, st.sampled_from(["r1", "r2", "r3", "rules", "r-1", ""]), words, words),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)

presentations = st.one_of(
    st.lists(structured_line, max_size=8).map("\n".join),
    st.builds(
        lambda gens, rules: f"generators: {' '.join(gens)}\nrules:\n" + "\n".join(rules) + "\n",
        st.lists(st.sampled_from(NAMES[:3]), min_size=1, max_size=3, unique=True),
        st.lists(st.builds(_rule, st.sampled_from(["r1", "r2", "r3", "r4"]), words, words), max_size=4),
    ),
)

maps = st.lists(
    st.builds(
        lambda head, name, image: f"{head}: {name} -> {image}",
        st.sampled_from(["forward", "backward", "sideways"]),
        st.sampled_from(NAMES),
        words,
    ),
    max_size=5,
).map("\n".join)

moves = st.lists(
    st.builds(
        lambda sign, rule_id, pos: f"{sign}{rule_id}@{pos}",
        st.sampled_from("+-"),
        st.sampled_from(["r1", "r2", "r3", "kb1"]),
        st.integers(0, 4),
    ),
    max_size=4,
).map(" ".join)
paths = st.builds(lambda base, steps: f"{base}: {steps}", words, moves)

FILES = ["sigma.pres", "upsilon.pres", "map.txt", "missing.pres"]
files = st.sampled_from(FILES)
small_fuel = st.integers(-1, 12).map(lambda n: ["--fuel", str(n)])
fuel_and_assumption = st.tuples(small_fuel, st.sampled_from([[], ["--assume-terminating"]])).map(
    lambda t: t[0] + t[1]
)
formats = st.sampled_from([[], ["--format", "json"], ["--format", "text"]])

commands = st.one_of(
    st.tuples(st.just(["check"]), files.map(lambda f: [f]),
              st.one_of(st.just([]), st.integers(-2, 6).map(lambda n: ["--max-len", str(n)]))),
    st.tuples(st.just(["normalize"]), st.tuples(files, words).map(list), fuel_and_assumption),
    st.tuples(st.just(["equal"]), st.tuples(files, words, words).map(list), st.just([])),
    st.tuples(st.just(["critical-pairs"]), files.map(lambda f: [f]), fuel_and_assumption),
    st.tuples(st.just(["complete"]), files.map(lambda f: [f]), small_fuel),
    st.tuples(st.just(["pi-basis"]), files.map(lambda f: [f]), st.just([])),
    st.tuples(st.sampled_from([["decompose"], ["footprint"]]), st.tuples(files, paths).map(list), st.just([])),
    st.tuples(st.just(["transport"]), st.tuples(files, files, files).map(list), st.just([])),
    st.tuples(st.lists(st.text("-abcfx0 ", max_size=6), max_size=4), st.just([]), st.just([])),
)


@PROPERTY
@given(presentations, presentations, maps, commands, formats)
def test_every_run_ends_in_a_status_and_a_diagnostic(sigma, upsilon, map_text, command, fmt):
    head, positional, options = command
    with tempfile.TemporaryDirectory() as directory:
        for name, text in zip(FILES, (sigma, upsilon, map_text)):
            with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
                handle.write(text)
        argv = head + [os.path.join(directory, a) if a in FILES else a for a in positional]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv + options + fmt)
    stderr = err.getvalue()
    assert status in (0, 1, 2), (argv, status)
    assert "Traceback" not in stderr, (argv, stderr)
    if status == 2:
        assert stderr.startswith(("srs:", "usage:")), (argv, stderr)
