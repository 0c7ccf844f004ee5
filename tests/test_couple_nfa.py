import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from corpus import REG_INV, random_couple_nfa
from hairpinlang.couple_nfa import (
    AutomatonError,
    CoupleNfa,
    enumerate_gamma_language,
    from_text,
    im,
    is_in_right_language,
    membership_dp,
    membership_test,
    to_dot,
    to_text,
)
from hairpinlang.expr import iter_words, parse
from hairpinlang.grammar import generate_upto, nfa_to_grammar
from hairpinlang.oracle import hairpin_enum, residual

ANBN = CoupleNfa(
    alphabet=("a", "b"),
    states=("0",),
    initial=frozenset({"0"}),
    final=frozenset({"0"}),
    transitions=frozenset({("0", ("a", "b"), "0")}),
)

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


def test_im_goldens():
    assert im([]) == ""
    assert im([("a", "b")]) == "ab"
    assert im([("a", "b"), ("a", "")]) == "aab"
    assert im([("", "b"), ("c", "c")]) == "ccb"
    assert im([("a", "b")] * 2500 + [("c", "")] * 2500) == "a" * 2500 + "c" * 2500 + "b" * 2500


couples = st.tuples(
    st.sampled_from(["a", "b", ""]), st.sampled_from(["a", "b", ""])
).filter(lambda c: c != ("", ""))


@given(st.lists(couples, max_size=8))
def test_im_length_adds_up(word):
    assert len(im(word)) == sum(len(x) + len(y) for x, y in word)


@given(st.lists(couples, max_size=6), st.lists(couples, max_size=6))
def test_im_nests_rather_than_concatenates(u, v):
    xs = "".join(x for x, _ in u)
    ys = "".join(y for _, y in reversed(u))
    assert im(u + v) == xs + im(v) + ys


def test_anbn_membership():
    for n in range(5):
        assert membership_test(ANBN, "a" * n + "b" * n)
    for w in ["a", "b", "ab" * 2, "aab", "abb", "ba"]:
        assert not membership_test(ANBN, w)


def test_anbn_enumeration():
    got = enumerate_gamma_language(ANBN, 8)
    assert got.words == {"a" * n + "b" * n for n in range(5)}


def test_membership_dp_handles_long_words():
    assert membership_dp(ANBN, "a" * 20 + "b" * 20)
    assert not membership_dp(ANBN, "a" * 20 + "b" * 19)
    # past the recursion limit
    assert membership_dp(ANBN, "a" * 5000 + "b" * 5000)
    assert not membership_dp(ANBN, "a" * 5000 + "b" * 4999)
    a = from_text(STEM_LOOP_TEXT)  # Hr[1,H](a*bc)
    assert membership_dp(a, "a" * 4999 + "bc" + "a" * 4999)
    assert not membership_dp(a, "a" * 4999 + "bc" + "a" * 4998)
    assert not membership_dp(a, "a" * 4999 + "bc" + "a" * 2499 + "b" + "a" * 2499)


def test_stem_loop_automaton_language():
    a = from_text(STEM_LOOP_TEXT)
    want = hairpin_enum(parse("Hr[1,H](a*bc)", REG_INV), 8, REG_INV)
    assert enumerate_gamma_language(a, 8).words == want.words
    assert membership_test(a, "abca")
    assert membership_test(a, "bc")
    assert not membership_test(a, "abc")
    assert not membership_test(a, "abcaa")


def test_right_language_is_per_state():
    a = from_text(STEM_LOOP_TEXT)
    assert is_in_right_language(a, "abca", "0")
    assert is_in_right_language(a, "", "1")
    assert not is_in_right_language(a, "a", "1")
    # the state labelled Hr[1,H](%e) is a sink with no closing stem, and
    # the state before it only reaches that sink
    assert not any(
        is_in_right_language(a, w, "2") for w in iter_words(("a", "b", "c"), 3)
    )
    assert not any(
        is_in_right_language(a, w, "3") for w in iter_words(("a", "b", "c"), 4)
    )


def started_at(a, q):
    """``a`` with ``q`` as its only initial state."""
    return CoupleNfa(a.alphabet, a.states, frozenset({q}), a.final, a.transitions, a.labels)


def test_right_language_unknown_state():
    with pytest.raises(AutomatonError, match="unknown state"):
        is_in_right_language(ANBN, "ab", "9")


def test_language_is_union_over_initial_states():
    rng = random.Random(41)
    for _ in range(25):
        a = random_couple_nfa(rng, ("a", "b"))
        whole = enumerate_gamma_language(a, 6).words
        parts = set()
        for q in a.initial:
            solo = started_at(a, q)
            parts |= enumerate_gamma_language(solo, 6).words
        assert whole == parts


def test_transitions_nest_into_right_languages():
    rng = random.Random(43)
    for _ in range(15):
        a = random_couple_nfa(rng, ("a", "b"))
        langs = {
            q: enumerate_gamma_language(started_at(a, q), 6)
            for q in a.states
        }
        for src, (x, y), dst in a.transitions:
            grow = len(x) + len(y)
            for w in langs[dst].restrict(6 - grow).words:
                assert x + w + y in langs[src]


def test_transition_targets_sit_inside_residuals():
    rng = random.Random(47)
    for _ in range(15):
        a = random_couple_nfa(rng, ("a", "b"))
        for src, (x, y), dst in a.transitions:
            if not x or not y:
                continue
            src_lang = enumerate_gamma_language(started_at(a, src), 8)
            dst_lang = enumerate_gamma_language(started_at(a, dst), 6)
            assert dst_lang.words <= residual(src_lang, x, y).words


def test_membership_algorithms_agree():
    rng = random.Random(53)
    for _ in range(25):
        a = random_couple_nfa(rng, ("a", "b"))
        in_lang = enumerate_gamma_language(a, 5).words
        for w in iter_words(("a", "b"), 5):
            naive = membership_test(a, w)
            assert naive == membership_dp(a, w)
            assert naive == (w in in_lang)


SEVERAL_LETTERS = CoupleNfa(
    ("ab", "c"),
    ("0", "1"),
    frozenset({"0"}),
    frozenset({"1"}),
    frozenset({
        ("0", ("ab", "c"), "0"),
        ("0", ("", "ab"), "1"),
        ("1", ("c", ""), "1"),
    }),
)


def test_membership_dp_reads_labels_of_several_letters():
    a = SEVERAL_LETTERS
    words = list(iter_words(("a", "b", "c"), 7))
    members = [w for w in words if membership_test(a, w)]
    assert "abcabc" in members and "abcab" not in members
    assert [w for w in words if membership_dp(a, w)] == members


# s reaches m by three couples of one shape, two of them with the same y,
# and reaches t1 and t2 by one couple; the two-letter labels out of t1
# and t2 fit only in the last two to four letters of a word
FOLDS = CoupleNfa(
    ("a", "b", "c", "ab", "ba"),
    ("s", "m", "t1", "t2", "f"),
    frozenset({"s"}),
    frozenset({"m", "f"}),
    frozenset({
        ("s", ("a", "a"), "s"),
        ("s", ("b", ""), "s"),
        ("s", ("a", "b"), "m"),
        ("s", ("c", "b"), "m"),
        ("s", ("b", "a"), "m"),
        ("s", ("c", "c"), "t1"),
        ("s", ("c", "c"), "t2"),
        ("t1", ("ab", "ba"), "f"),
        ("t2", ("", "ab"), "f"),
    }),
)


def test_membership_dp_folds_couples_and_stops_at_the_end():
    a = FOLDS
    words = list(iter_words(("a", "b", "c"), 7))
    members = [w for w in words if membership_test(a, w)]
    assert {"ab", "acba", "bba", "cabbac", "bcabc", "acabca"} <= set(members)
    # In cabac and cbc, t1's (ab, ba) and t2's (~, ab) overlap the middle
    # aba and b: their hits go to level n+1. The ring holds 1 + max|xy|
    # levels, so levels d+1..d+max|xy| have distinct slots, and a level
    # past n shares its slot with none of d+1..n: it is never read.
    assert "cabac" not in members and "cbc" not in members
    assert [w for w in words if membership_dp(a, w)] == members


one_sided = st.sampled_from([("a", ""), ("", "a"), ("b", ""), ("", "b")])


@st.composite
def couple_nfas(draw):
    """Couple NFAs over a, b (c is in the alphabet but on no label) with
    one or more initial states, a cycle of one-sided labels, and a final
    state that no transition reaches."""
    n = draw(st.integers(1, 5))
    state = st.integers(0, n - 1).map(str)
    transitions = set(draw(st.lists(st.tuples(state, couples, state), max_size=8)))
    ring = draw(st.lists(state, min_size=1, max_size=3))
    transitions |= {(q, draw(one_sided), r) for q, r in zip(ring, ring[1:] + ring[:1])}
    transitions.add(("u", draw(couples), draw(state)))
    return CoupleNfa(
        ("a", "b", "c"),
        tuple(str(i) for i in range(n)) + ("u",),
        frozenset(draw(st.lists(state, min_size=1, max_size=n))),
        frozenset(draw(st.lists(state, max_size=n))) | {"u"},
        frozenset(transitions),
    )


def renamed_in_reverse(a):
    """a with every state renamed and the declaration order reversed, so
    that sets of transitions iterate in another order."""
    name = {q: f"r{i}" for i, q in enumerate(a.states)}
    return CoupleNfa(
        a.alphabet,
        tuple(name[q] for q in reversed(a.states)),
        frozenset(name[q] for q in a.initial),
        frozenset(name[q] for q in a.final),
        frozenset((name[src], c, name[dst]) for src, c, dst in a.transitions),
    )


@given(couple_nfas(), st.text("abc", max_size=7))
def test_membership_dp_matches_the_reference(a, w):
    want = membership_test(a, w)
    assert membership_dp(a, w) == want
    assert membership_dp(renamed_in_reverse(a), w) == want


def reference_words(a, n):
    return {w for w in iter_words(("a", "b", "c"), n) if membership_test(a, w)}


@given(couple_nfas(), st.integers(0, 6))
def test_enumeration_matches_the_reference(a, n):
    want = reference_words(a, n)
    assert enumerate_gamma_language(a, n).words == want
    assert enumerate_gamma_language(renamed_in_reverse(a), n).words == want
    assert generate_upto(nfa_to_grammar(a), n).words == want


def test_enumeration_reads_labels_of_several_letters():
    # abccabc runs 0 -(ab,c)-> 0 -(~,ab)-> 1 -(c,~)-> 1: three labels
    # read seven letters
    want = reference_words(SEVERAL_LETTERS, 7)
    assert "abccabc" in want
    assert enumerate_gamma_language(SEVERAL_LETTERS, 7).words == want


def test_text_round_trip_on_figures():
    a = from_text(STEM_LOOP_TEXT)
    assert from_text(to_text(a)) == a
    assert from_text(to_text(ANBN)) == ANBN


def test_text_round_trip_on_random_automata():
    rng = random.Random(59)
    for _ in range(40):
        a = random_couple_nfa(rng, ("a", "b"))
        assert from_text(to_text(a)) == a


def test_text_escapes_spaces_in_labels():
    a = CoupleNfa(ANBN.alphabet, ANBN.states, ANBN.initial, ANBN.final, ANBN.transitions,
                  labels=(("0", "loop state"),))
    dump = to_text(a)
    assert "loop\\ state" in dump
    assert from_text(dump) == a


def test_to_text_refuses_symbols_it_cannot_read_back():
    # the alphabet line "ab c" would read back as a, b, c
    with pytest.raises(AutomatonError, match="'ab' is not one character"):
        to_text(SEVERAL_LETTERS)


def test_alphabet_tokens_may_run_together():
    a = from_text("alphabet ab\nstate 0 initial final\n")
    assert a.alphabet == ("a", "b")


def test_from_text_tolerates_comments_and_blank_lines():
    a = from_text("# loop\n\nalphabet a b\nstate 0 initial final\ntrans 0 a b 0\n")
    assert a == ANBN


def test_from_text_errors():
    with pytest.raises(AutomatonError, match="unknown directive"):
        from_text("alphabet a\nedge 0 a a 0\n")
    with pytest.raises(AutomatonError, match="needs an identifier"):
        from_text("alphabet a\nstate\n")
    with pytest.raises(AutomatonError, match="unknown flag"):
        from_text("alphabet a\nstate 0 sticky\n")
    with pytest.raises(AutomatonError, match="trans needs"):
        from_text("alphabet a\nstate 0\ntrans 0 a a\n")


def test_validation_errors():
    with pytest.raises(AutomatonError, match="duplicate state"):
        CoupleNfa(("a",), ("0", "0"), frozenset(), frozenset(), frozenset())
    with pytest.raises(AutomatonError, match="undeclared state"):
        CoupleNfa(("a",), ("0",), frozenset({"1"}), frozenset(), frozenset())
    with pytest.raises(AutomatonError, match="endpoint"):
        CoupleNfa(
            ("a",),
            ("0",),
            frozenset(),
            frozenset(),
            frozenset({("0", ("a", "a"), "1")}),
        )
    with pytest.raises(AutomatonError, match="bad transition label"):
        CoupleNfa(
            ("a",),
            ("0",),
            frozenset(),
            frozenset(),
            frozenset({("0", ("", ""), "0")}),
        )
    with pytest.raises(AutomatonError, match="bad transition label"):
        CoupleNfa(
            ("a",),
            ("0",),
            frozenset(),
            frozenset(),
            frozenset({("0", ("z", "a"), "0")}),
        )
    with pytest.raises(AutomatonError, match="label for undeclared"):
        CoupleNfa(
            ("a",), ("0",), frozenset(), frozenset(), frozenset(), (("1", "x"),)
        )


def test_empty_automaton():
    a = CoupleNfa(("a",), (), frozenset(), frozenset(), frozenset())
    assert enumerate_gamma_language(a, 4).words == set()
    assert not membership_test(a, "")


def test_epsilon_only_automaton():
    a = CoupleNfa(("a",), ("0",), frozenset({"0"}), frozenset({"0"}), frozenset())
    assert enumerate_gamma_language(a, 4).words == {""}
    assert membership_test(a, "")
    assert not membership_test(a, "a")


def test_dot_output_shape():
    a = from_text(STEM_LOOP_TEXT)
    dot = to_dot(a)
    assert dot.startswith("digraph")
    assert "doublecircle" in dot
    assert "(b,c)" in dot
    assert "__start0" in dot
    one_sided = CoupleNfa(
        ("a",),
        ("0", "1"),
        frozenset({"0"}),
        frozenset({"1"}),
        frozenset({("0", ("a", ""), "1")}),
    )
    assert "(a,~)" in to_dot(one_sided)


def test_enumeration_cap_guard():
    with pytest.raises(AutomatonError, match="cap"):
        enumerate_gamma_language(ANBN, 99)
