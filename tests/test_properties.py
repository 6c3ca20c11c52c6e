"""Properties over random inputs: the file format round-trips on random
presentations, ``normal_form`` agrees with ``normalize`` where it answers,
``normalize`` is idempotent and reaches the only normal form on completed
systems, and every random loop decomposes into a certificate that replays."""

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from srs import (
    FuelError,
    NotConvergentError,
    OrderSpec,
    Presentation,
    Rule,
    basis_loops,
    decompose_loop,
    is_convergent,
    knuth_bendix,
    normal_form,
    normalize,
    parse_presentation,
    print_presentation,
    verify_certificate,
)
from helpers import (
    as_presentation,
    four_rule_presentation,
    random_loop,
    random_terminating_presentation,
    random_word,
    reachable_normal_forms,
)

PROPERTY = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# section names too: a rule printed as `` rules: a -> b`` is still a rule
NAMES = st.sampled_from(("generators", "order", "rules")) | st.from_regex(
    r"[A-Za-z0-9_]{1,6}", fullmatch=True
)


@st.composite
def presentations(draw):
    """Any valid presentation: generator and rule names from the whole name
    alphabet, shortlex or weighted orders, rules in either orientation and
    with empty right-hand sides."""
    generators = tuple(draw(st.lists(NAMES, unique=True, max_size=4)))
    precedence = tuple(draw(st.permutations(generators)))
    if draw(st.booleans()):
        order = OrderSpec("shortlex", precedence)
    else:
        weights = tuple((g, draw(st.integers(1, 9))) for g in precedence)
        order = OrderSpec("weighted-shortlex", precedence, weights)
    rules = []
    if generators:
        word = st.lists(st.sampled_from(generators), max_size=4).map(tuple)
        for rule_id in draw(st.lists(NAMES, unique=True, max_size=5)):
            lhs = draw(word.filter(bool))
            rules.append(Rule(rule_id, lhs, draw(word.filter(lambda v, lhs=lhs: v != lhs))))
    return Presentation(generators, tuple(rules), order)


@PROPERTY
@given(presentations())
def test_print_parse_round_trip(p):
    text = print_presentation(p)
    assert parse_presentation(text) == p
    assert print_presentation(parse_presentation(text)) == text


def test_a_rule_may_be_named_like_a_section():
    for rule_id in ("generators", "order", "rules"):
        p = Presentation(("a",), (Rule(rule_id, ("a", "a"), ("a",)),), OrderSpec("shortlex", ("a",)))
        assert parse_presentation(print_presentation(p)) == p


arbitrary_or_terminating = presentations() | st.integers(0, 2**32 - 1).map(
    lambda seed: random_terminating_presentation(random.Random(seed))
)


@PROPERTY
@given(arbitrary_or_terminating, st.data())
def test_the_table_of_normal_forms_agrees_with_normalize(p, data):
    """On a convergent presentation ``normal_form`` reads the word
    ``normalize`` reaches, before and after the table's rows are filled; on
    any other it raises NotConvergentError and builds no table."""
    word = tuple(data.draw(st.lists(st.sampled_from(p.generators), max_size=8))) if p.generators else ()
    if is_convergent(p).ok:
        assert normal_form(word, p) == normalize(word, p)[0] == normal_form(word, p)
    else:
        with pytest.raises(NotConvergentError):
            normal_form(word, p)
        assert "classes" not in p._cache


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_normalize_is_idempotent_and_reaches_the_only_normal_form(seed):
    rng = random.Random(seed)
    try:
        q, _ = knuth_bendix(random_terminating_presentation(rng), fuel=12)
    except FuelError:
        assume(False)
    for _ in range(4):
        w = random_word(rng, q, 12)
        nf, path = normalize(w, q)
        assert path.base == w and path.target == nf
        again, empty = normalize(nf, q)
        assert again == nf and len(empty) == 0
        assert reachable_normal_forms(q, w) == {nf}


CONVERGENT = (as_presentation, four_rule_presentation)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CONVERGENT), st.integers(0, 2**32 - 1))
def test_every_random_loop_decomposes_into_a_certificate_that_replays(make, seed):
    p = make()
    basis = tuple(bl.loop for bl in basis_loops(p))
    rng = random.Random(seed)
    loop = random_loop(rng, p, basis)
    assert verify_certificate(loop, decompose_loop(loop, p), p).ok


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_loops_on_completed_systems_decompose(seed):
    rng = random.Random(seed)
    try:
        q, _ = knuth_bendix(random_terminating_presentation(rng), fuel=12)
    except FuelError:
        assume(False)
    basis = tuple(bl.loop for bl in basis_loops(q))
    loop = random_loop(rng, q, basis, max_len=6, depth=1)
    assert verify_certificate(loop, decompose_loop(loop, q), q).ok
