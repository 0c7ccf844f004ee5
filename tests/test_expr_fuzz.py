"""Expression-level differential fuzzer: random hairpin expressions, built
into couple NFAs by the CLI's route, checked against the brute-force
oracle in both reduce modes."""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from hairpinlang.construction import effective_automaton, two_sided_dta
from hairpinlang.couple_nfa import enumerate_gamma_language, membership_dp, membership_test
from hairpinlang.expr import (
    EMPTY,
    EPSILON,
    Concat,
    HLeft,
    HPrime,
    HRight,
    HSum,
    Reg,
    Star,
    Sum,
    Sym,
    iter_words,
    parse_map,
)
from hairpinlang.oracle import hairpin_enum

# an involution, a rotation, a swap and a non-injective fold, all on a, b, c
MAPS = [parse_map(m) for m in ("a:a,b:c,c:b", "a:b,b:c,c:a", "a:b,b:a,c:c", "a:a,b:a,c:b")]
LEAVES = st.sampled_from([Sym("a"), Sym("b"), Sym("c"), EPSILON, EMPTY])


def regexes(depth=3):
    """Regexes over a, b, c with ε and ∅, at most depth operators deep."""
    if depth == 0:
        return LEAVES
    sub = regexes(depth - 1)
    return st.one_of(
        LEAVES, st.builds(Sum, sub, sub), st.builds(Concat, sub, sub), st.builds(Star, sub)
    )


REGEXES = regexes()


def completions(ops, ks):
    return st.builds(lambda op, k, r: op(k, "H", r), st.sampled_from(ops), ks, REGEXES)


ZERO_K = completions([HRight, HLeft], st.just(0))
PARTS = st.one_of(st.builds(Reg, REGEXES), completions([HRight, HLeft, HPrime], st.integers(1, 2)))


@st.composite
def hairpin_exprs(draw):
    """(expression, registry): a single k = 0 completion, or a sum of one
    to three regexes and Hr/Hl/Hp completions with k = 1..2."""
    registry = {"H": draw(st.sampled_from(MAPS))}
    if draw(st.integers(0, 9)) == 0:
        return draw(ZERO_K), registry
    return functools.reduce(HSum, draw(st.lists(PARTS, min_size=1, max_size=3))), registry


WORDS = list(iter_words(("a", "b", "c"), 4))


@settings(deadline=None, max_examples=200)
@given(hairpin_exprs())
def test_automata_of_random_expressions_match_the_oracle(case):
    e, registry = case
    want = hairpin_enum(e, 6, registry).words
    build = effective_automaton if getattr(e, "k", None) == 0 else two_sided_dta
    for reduce in (True, False):
        a = build(e, registry, reduce)
        assert enumerate_gamma_language(a, 6).words == want
        assert [w for w in WORDS if membership_dp(a, w)] == [
            w for w in WORDS if membership_test(a, w)
        ]
