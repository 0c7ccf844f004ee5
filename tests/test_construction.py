import random

import pytest

from corpus import (
    REG_INV,
    REGEX_CORPUS,
    corpus_expressions,
    k0_expressions,
    random_regex,
)
from hairpinlang.construction import (
    effective_automaton,
    regex_dta,
    two_sided_dta,
)
from hairpinlang.couple_nfa import (
    enumerate_gamma_language,
    membership_dp,
    to_text,
)
from hairpinlang.derivation import (
    bounds,
    derived_terms,
    left_pd,
    right_pd,
    two_sided_pd,
)
from hairpinlang.expr import (
    ExprError,
    HRight,
    Reg,
    all_couples,
    as_hairpin,
    canonicalize,
    expr_str,
    infer_alphabet,
    metrics,
    parse,
    regex_str,
)
from hairpinlang.oracle import enum_regex, hairpin_enum

STEM_LOOP_TEXT = """\
alphabet a b c
state 0 initial label=Hr[1,H](a*bc)
state 1 final label=%e
state 2 label=Hr[1,H](%e)
state 3 label=Hr[1,H](c)
trans 0 a a 0
trans 0 b c 1
trans 0 b c 3
trans 3 c b 2
"""


def by_label(a):
    return {a.label(q): q for q in a.states}


def trans_by_label(a):
    ids = {q: a.label(q) for q in a.states}
    return {(ids[src], (x, y), ids[dst]) for src, (x, y), dst in a.transitions}


def test_regex_dta_golden():
    d = regex_dta(parse("a*bc", REG_INV).re)
    assert [d.label(q) for q in d.states] == ["a*bc", "%e", "c"]
    assert d.initial == frozenset({"0"})
    assert d.final == frozenset({"1"})
    assert trans_by_label(d) == {
        ("a*bc", ("a", ""), "a*bc"),
        ("a*bc", ("b", ""), "c"),
        ("c", ("c", ""), "%e"),
    }


def test_regex_dta_matches_oracle():
    rng = random.Random(79)
    for _ in range(40):
        f = random_regex(rng, ("a", "b"), rng.randint(1, 6))
        d = regex_dta(f)
        assert enumerate_gamma_language(d, 7).words == enum_regex(f, 7).words


def test_regex_dta_state_count_within_width():
    rng = random.Random(83)
    for _ in range(40):
        f = random_regex(rng, ("a", "b"), rng.randint(1, 6))
        assert len(regex_dta(f, reduce=False).states) <= metrics(f).n + 1


def test_regex_dta_rejects_completions():
    with pytest.raises(ExprError, match="pure regular expression"):
        regex_dta(parse("Hr[1,H](ab)", REG_INV))


def test_two_sided_dta_figure_golden():
    a = two_sided_dta(parse("Hr[1,H](a*bc)", REG_INV), REG_INV)
    assert to_text(a) == STEM_LOOP_TEXT


def test_two_sided_dta_language_golden():
    a = two_sided_dta(parse("Hr[1,H](a*bc)", REG_INV), REG_INV)
    got = enumerate_gamma_language(a, 6)
    assert got.words == {"bc", "abca", "aabcaa"}
    assert membership_dp(a, "a" * 3 + "bc" + "a" * 3)
    assert not membership_dp(a, "abcaa")


def test_two_sided_dta_pure_regex():
    a = two_sided_dta(parse("ab", REG_INV), REG_INV)
    assert len(a.states) == 4
    assert trans_by_label(a) == {
        ("ab", ("a", "b"), "%e"),
        ("ab", ("a", ""), "b"),
        ("ab", ("", "b"), "a"),
        ("a", ("a", ""), "%e"),
        ("a", ("", "a"), "%e"),
        ("b", ("b", ""), "%e"),
        ("b", ("", "b"), "%e"),
    }
    assert enumerate_gamma_language(a, 2).words == {"ab"}


def test_two_sided_dta_rejects_k0():
    with pytest.raises(ExprError, match="use effective_automaton"):
        two_sided_dta(parse("Hr[0,H](ab)", REG_INV), REG_INV)
    with pytest.raises(ExprError, match="use effective_automaton"):
        two_sided_dta(parse("Hr[0,H](ab)+cc", REG_INV), REG_INV)


def test_two_sided_dta_matches_oracle_on_corpus():
    for e, reg in corpus_expressions():
        a = two_sided_dta(e, reg)
        got = enumerate_gamma_language(a, 7)
        want = hairpin_enum(e, 7, reg)
        assert got.words == want.words, expr_str(e)


def test_two_sided_dta_state_bound_on_corpus():
    for e, reg in corpus_expressions():
        a = two_sided_dta(e, reg, reduce=False)
        assert len(a.states) <= bounds(e).state_bound, expr_str(e)


def test_effective_automaton_structure_golden():
    a = effective_automaton(parse("Hr[0,H](a*bc)", REG_INV), REG_INV)
    assert len(a.states) == 6
    labels = [a.label(q) for q in a.states]
    assert labels[0] == "Hr[0,H](a*bc)"
    assert set(labels) == {
        "Hr[0,H](a*bc)",
        "%e",
        "c",
        "a*bc",
        "Hr[0,H](%e)",
        "Hr[0,H](c)",
    }
    assert {a.label(q) for q in a.final} == {"%e", "Hr[0,H](%e)"}
    assert {a.label(q) for q in a.initial} == {"Hr[0,H](a*bc)"}
    assert trans_by_label(a) == {
        ("Hr[0,H](a*bc)", ("a", "a"), "Hr[0,H](a*bc)"),
        ("Hr[0,H](a*bc)", ("a", ""), "a*bc"),
        ("Hr[0,H](a*bc)", ("b", "c"), "Hr[0,H](c)"),
        ("Hr[0,H](a*bc)", ("b", ""), "c"),
        ("Hr[0,H](c)", ("c", "b"), "Hr[0,H](%e)"),
        ("Hr[0,H](c)", ("c", ""), "%e"),
        ("a*bc", ("a", ""), "a*bc"),
        ("a*bc", ("b", ""), "c"),
        ("c", ("c", ""), "%e"),
    }


def test_effective_automaton_language():
    a = effective_automaton(parse("Hr[0,H](a*bc)", REG_INV), REG_INV)
    got = enumerate_gamma_language(a, 4)
    assert got.words == {"bc", "abc", "aabc", "bcc", "abca", "bcbc"}
    for w in ["aabcaa", "abcca", "abcbca", "aaabc"]:
        assert membership_dp(a, w)
    assert not membership_dp(a, "ab")


def test_effective_automaton_leftward():
    a = effective_automaton(parse("Hl[0,H](a*bc)", REG_INV), REG_INV)
    assert len(a.states) == 5
    assert {a.label(q) for q in a.final} == {"a*", "Hl[0,H](a*)"}
    assert trans_by_label(a) == {
        ("Hl[0,H](a*bc)", ("", "c"), "a*b"),
        ("Hl[0,H](a*bc)", ("b", "c"), "Hl[0,H](a*b)"),
        ("Hl[0,H](a*b)", ("", "b"), "a*"),
        ("Hl[0,H](a*b)", ("c", "b"), "Hl[0,H](a*)"),
        ("Hl[0,H](a*)", ("", "a"), "a*"),
        ("Hl[0,H](a*)", ("a", "a"), "Hl[0,H](a*)"),
        ("a*b", ("", "b"), "a*"),
        ("a*", ("", "a"), "a*"),
    }
    got = enumerate_gamma_language(a, 8)
    assert got.words == hairpin_enum(parse("Hl[0,H](a*bc)", REG_INV), 8, REG_INV).words


def test_effective_automaton_raw_mode_state_count():
    a = effective_automaton(parse("Hr[0,H](a*bc)", REG_INV), REG_INV, reduce=False)
    assert len(a.states) == 7
    got = enumerate_gamma_language(a, 7)
    want = hairpin_enum(parse("Hr[0,H](a*bc)", REG_INV), 7, REG_INV)
    assert got.words == want.words


def test_effective_automaton_rejects_other_shapes():
    with pytest.raises(ExprError, match="k = 0"):
        effective_automaton(parse("ab", REG_INV), REG_INV)
    with pytest.raises(ExprError, match="k = 0"):
        effective_automaton(parse("Hr[1,H](ab)", REG_INV), REG_INV)
    with pytest.raises(ExprError, match="k = 0"):
        effective_automaton(parse("Hr[0,H](ab)+cc", REG_INV), REG_INV)
    with pytest.raises(ExprError, match="k = 0"):
        effective_automaton(parse("Hp[1,H](ab)", REG_INV), REG_INV)
    with pytest.raises(ExprError, match="not registered"):
        effective_automaton(parse("Hr[0,H](ab)", REG_INV), {})


def test_effective_automaton_matches_oracle_on_corpus():
    for e, reg in k0_expressions():
        a = effective_automaton(e, reg)
        got = enumerate_gamma_language(a, 7)
        want = hairpin_enum(e, 7, reg)
        assert got.words == want.words, expr_str(e)


def test_effective_automaton_state_bound_on_corpus():
    for e, reg in k0_expressions():
        a = effective_automaton(e, reg, reduce=False)
        n = metrics(e).n
        assert len(a.states) <= 2 * n + 1, expr_str(e)


def test_initial_label_prints_the_expression():
    e = parse("Hr[2,H](abcb)", REG_INV)
    a = two_sided_dta(e, REG_INV)
    first = next(iter(a.initial))
    assert a.label(first) == "Hr[2,H](abcb)"
    raw = two_sided_dta(e, REG_INV, reduce=False)
    assert raw.label(next(iter(raw.initial))) == "Hr[2,H](abcb)"


# The builders take their transitions from the derived-term closure. The
# references below rebuild each transition set from the per-symbol
# derivatives instead: every state is derived by every symbol or couple.


def test_two_sided_dta_transitions_match_per_couple_derivatives():
    for reduce in (True, False):
        for e, reg in corpus_expressions():
            start = canonicalize(as_hairpin(e)) if reduce else as_hairpin(e)
            alphabet = infer_alphabet(start, reg)
            dt = derived_terms(start, "two_sided", reg, alphabet, reduce)
            want = {
                (expr_str(s), c, expr_str(t))
                for s in {start, *dt.terms}
                for c in all_couples(alphabet)
                for t in two_sided_pd(s, c, reg, reduce)
            }
            assert trans_by_label(two_sided_dta(e, reg, reduce)) == want, expr_str(e)


def test_two_sided_derived_terms_are_the_transition_targets():
    # hairpin verify-bounds counts the derived terms this way
    cases = corpus_expressions() + [(parse(t), {}) for t in REGEX_CORPUS]
    for reduce in (True, False):
        for e, reg in cases:
            dt = derived_terms(e, "two_sided", reg, infer_alphabet(e, reg), reduce)
            targets = {t for _, _, t in two_sided_dta(e, reg, reduce).transitions}
            assert len(dt.terms) == len(targets), expr_str(e)


def test_regex_dta_transitions_match_per_symbol_derivatives():
    rng = random.Random(89)
    regexes = [parse(t).re for t in REGEX_CORPUS]
    regexes += [random_regex(rng, ("a", "b", "c"), rng.randint(1, 6)) for _ in range(40)]
    for reduce in (True, False):
        for f in regexes:
            g = canonicalize(f) if reduce else f
            alphabet = infer_alphabet(g)
            dt = derived_terms(g, "left", alphabet=alphabet, reduce=reduce)
            want = {
                (regex_str(s), (a, ""), regex_str(t))
                for s in {g, *dt.terms}
                for a in alphabet
                for t in left_pd(s, a, reduce)
            }
            assert trans_by_label(regex_dta(f, reduce)) == want, regex_str(f)


def effective_reference(root, reg, reduce):
    """The stem and drop rules of the effective automaton, per symbol: a
    wrapped state reads (x, H(x)) into a wrapped derivative, and it or a
    bare derived term reads a one-sided couple into a bare derivative."""
    h = reg[root.h]
    rightward = isinstance(root, HRight)
    pd = left_pd if rightward else right_pd
    alphabet = infer_alphabet(root, reg)
    side = "left" if rightward else "right"
    derived = derived_terms(root.inner, side, alphabet=alphabet, reduce=reduce).terms

    def wrap(r):
        return expr_str(type(root)(0, root.h, r))

    want = set()
    for r in {root.inner, *derived}:
        for x in alphabet:
            drop = (x, "") if rightward else ("", x)
            for t in pd(r, x, reduce):
                want.add((wrap(r), drop, expr_str(Reg(t))))
                if r in derived:
                    want.add((expr_str(Reg(r)), drop, expr_str(Reg(t))))
            if x in h.alphabet:
                stem_end = x if rightward else h.image(x)
                for t in pd(r, stem_end, reduce):
                    want.add((wrap(r), (x, h.image(x)), wrap(t)))
    return want


def test_effective_automaton_transitions_match_stem_and_drop_rules():
    for reduce in (True, False):
        for e, reg in k0_expressions():
            root = canonicalize(as_hairpin(e)) if reduce else as_hairpin(e)
            want = effective_reference(root, reg, reduce)
            assert trans_by_label(effective_automaton(e, reg, reduce)) == want, expr_str(e)
