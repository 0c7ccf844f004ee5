import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from corpus import H_FOLD, H_INV, H_ROT, H_SWAP, REG_INV, random_regex
from hairpinlang.expr import (
    EMPTY,
    EPSILON,
    AntiMorphism,
    Completion,
    Concat,
    Empty,
    Epsilon,
    ExprError,
    ExprMetrics,
    HLeft,
    HPrime,
    HRight,
    HSum,
    ParseError,
    Reg,
    Star,
    Sum,
    Sym,
    all_couples,
    canonicalize,
    expr_str,
    h_word,
    hairpin_names,
    has_zero_k,
    infer_alphabet,
    metrics,
    nullable,
    parse,
    parse_map,
    parse_map_file,
    regex_str,
    symbols_of,
)
from hairpinlang.oracle import enum_regex


def test_parse_hairpin_golden():
    e = parse("Hr[1,H](a*bc)", REG_INV)
    want = HRight(1, "H", Concat(Concat(Star(Sym("a")), Sym("b")), Sym("c")))
    assert e == want


def test_parse_sum_of_regexes_stays_regular():
    e = parse("a+%e", REG_INV)
    assert e == Reg(Sum(Sym("a"), EPSILON))


def test_parse_left_associative():
    assert parse("abc", REG_INV) == Reg(
        Concat(Concat(Sym("a"), Sym("b")), Sym("c"))
    )
    assert parse("a+b+c", REG_INV) == Reg(
        Sum(Sum(Sym("a"), Sym("b")), Sym("c"))
    )


def test_parse_precedence():
    assert parse("a+bc*", REG_INV) == Reg(
        Sum(Sym("a"), Concat(Sym("b"), Star(Sym("c"))))
    )
    assert parse("(a+b)c", REG_INV) == Reg(
        Concat(Sum(Sym("a"), Sym("b")), Sym("c"))
    )
    assert parse("a**", REG_INV) == Reg(Star(Star(Sym("a"))))


def test_parse_empty_markers():
    assert parse("%e", REG_INV) == Reg(EPSILON)
    assert parse("%0", REG_INV) == Reg(EMPTY)


def test_parse_hairpin_sum_builds_hsum():
    e = parse("Hr[1,H](ab)+Hl[1,H](bc)", REG_INV)
    assert isinstance(e, HSum)
    assert isinstance(e.left, HRight)
    assert isinstance(e.right, HLeft)


def test_parse_mixed_sum_builds_hsum():
    e = parse("Hr[1,H](ab)+cc", REG_INV)
    assert isinstance(e, HSum)
    assert isinstance(e.right, Reg)


def test_hprime_k_zero_rejected():
    with pytest.raises(ParseError, match="HPrime requires k >= 1"):
        parse("Hp[0,H](a)", REG_INV)
    with pytest.raises(ExprError):
        HPrime(0, "H", Sym("a"))


def test_parse_error_positions():
    with pytest.raises(ParseError) as info:
        parse("a+", REG_INV)
    assert info.value.pos == 2
    with pytest.raises(ParseError) as info:
        parse("(ab", REG_INV)
    assert "expected ')'" in str(info.value)


def test_unknown_map_name_rejected():
    with pytest.raises(ParseError, match="unknown anti-morphism"):
        parse("Hr[1,X](a)", REG_INV)


def test_symbol_outside_map_alphabet_rejected():
    with pytest.raises(ParseError, match="outside the alphabet"):
        parse("Hr[1,H](ab)", {"H": AntiMorphism.from_mapping("H", {"a": "a"})})


def test_hairpin_argument_must_be_regular():
    # the argument slot is a concatenation, so a nested operator cannot fit
    with pytest.raises(ParseError):
        parse("Hr[1,H](Hl[1,H](a))", REG_INV)


def test_star_on_hairpin_rejected():
    with pytest.raises(ParseError, match="'\\*' applies to regular"):
        parse("(Hr[1,H](ab))*", REG_INV)


def test_concat_of_hairpin_rejected():
    with pytest.raises(ParseError):
        parse("a(Hr[1,H](ab))", REG_INV)


def test_print_parse_round_trip_on_fixed_expressions():
    texts = [
        "a",
        "%e",
        "%0",
        "a+b+c",
        "a(b+c)a",
        "a**",
        "(a+b)*",
        "a+(b+c)",
        "a(bc)",
        "Hr[1,H](a*bc)",
        "Hp[2,H](abcb)",
        "Hr[1,H]((a+b))",
        "Hr[1,H](ab)+Hl[1,H](bc)",
        "Hr[1,H](ab)+cc",
    ]
    for text in texts:
        e = parse(text, REG_INV)
        assert parse(expr_str(e), REG_INV) == e


def test_print_parse_round_trip_on_random_regexes():
    rng = random.Random(7)
    for _ in range(200):
        f = random_regex(rng, ("a", "b", "c"), rng.randint(1, 7))
        assert parse(regex_str(f), REG_INV) == Reg(f)


def test_h_word_examples():
    assert h_word(H_INV, "ab") == "ca"
    assert h_word(H_INV, "") == ""
    assert h_word(H_INV, "abc") == "bca"


@given(st.text(alphabet="abc"), st.text(alphabet="abc"))
def test_h_word_reverses_concatenation(u, v):
    assert h_word(H_INV, u + v) == h_word(H_INV, v) + h_word(H_INV, u)
    assert h_word(H_ROT, u + v) == h_word(H_ROT, v) + h_word(H_ROT, u)


@given(st.text(alphabet="abc", max_size=12))
def test_involution_restores_words(w):
    assert h_word(H_INV, h_word(H_INV, w)) == w


def test_involution_flags():
    assert H_INV.is_involution
    assert H_SWAP.is_involution
    assert not H_ROT.is_involution
    assert not H_FOLD.is_involution


def test_preimages():
    assert H_FOLD.preimages("a") == ("a", "b")
    assert H_FOLD.preimages("b") == ()
    assert H_ROT.preimages("c") == ("b",)


def test_image_outside_alphabet():
    with pytest.raises(ExprError, match="outside the alphabet"):
        H_SWAP.image("z")


def test_map_image_must_stay_inside_domain():
    with pytest.raises(ExprError, match="outside its own alphabet"):
        parse_map("a:b")


def test_map_parse_errors():
    with pytest.raises(ExprError, match="expected 'x:y'"):
        parse_map("ab")
    with pytest.raises(ExprError, match="maps a symbol twice"):
        parse_map("a:a,a:a")


def test_map_file_format():
    text = "# involution\na -> a\nb -> c  # stem pair\nc -> b\n\n"
    h = parse_map_file(text)
    assert h.alphabet == ("a", "b", "c")
    assert h.image("b") == "c"
    with pytest.raises(ExprError, match="expected 'x -> y'"):
        parse_map_file("a => b")


def test_nullable():
    assert nullable(parse("a*", REG_INV))
    assert not nullable(parse("Hr[1,H](a*)", REG_INV))
    assert nullable(parse("Hr[0,H](a*)", REG_INV))
    assert not nullable(parse("Hr[0,H](ab)", REG_INV))
    assert not nullable(parse("Hp[1,H](a*)", REG_INV))
    assert nullable(parse("Hr[1,H](ab)+%e", REG_INV))
    assert not nullable(parse("%0", REG_INV))
    assert nullable(parse("%e", REG_INV))


def test_metrics():
    ms = metrics(parse("Hr[1,H](a*bc)", REG_INV))
    assert (ms.n, ms.h, ms.m, ms.index) == (3, 1, 4, 1)
    assert metrics(parse("a*bc", REG_INV)).index == 0
    both = HSum(HRight(1, "H", Sym("a")), HLeft(3, "H", Sym("b")))
    assert metrics(both).index == 3
    assert metrics(both).n == 2


def test_completion_family_shares_one_shape():
    for cls, op, mode in ((HRight, "Hr", "right"), (HLeft, "Hl", "left"), (HPrime, "Hp", "prime")):
        e = cls(2, "H", Sym("a"))
        assert isinstance(e, Completion)
        assert (e.op, e.mode) == (op, mode)
        assert expr_str(e) == f"{op}[2,H](a)"
        assert repr(e) == f"{cls.__name__}(k=2, h='H', inner=Sym(ch='a'))"
        assert e == cls(2, "H", Sym("a")) and hash(e) == hash(cls(2, "H", Sym("a")))
    assert HRight(1, "H", Sym("a")) != HLeft(1, "H", Sym("a"))
    with pytest.raises(ExprError, match="HLeft requires k >= 0"):
        HLeft(-1, "H", Sym("a"))
    with pytest.raises(ExprError, match="HRight requires a regular expression, got Reg"):
        HRight(1, "H", Reg(Sym("a")))


def test_walk_answers_on_deep_spines():
    # Built in a loop, not parsed: a walk that recursed once per level
    # would exceed the interpreter's recursion limit here.
    spine = Sym("a")
    for i in range(5000):
        spine = Concat(spine, Star(Sym("b")) if i % 10 == 0 else Sym("c"))
    e = HRight(2, "H", spine)
    assert metrics(e) == ExprMetrics(5001, 500, 5501, 2)
    assert symbols_of(e) == {"a", "b", "c"}
    assert not has_zero_k(e)
    assert has_zero_k(HSum(Reg(spine), HLeft(0, "H", spine)))
    assert hairpin_names(e) == {"H"}
    assert infer_alphabet(e, {"H": parse_map("a:a,b:c,c:b,d:d")}) == ("a", "b", "c", "d")


def test_canonicalize_reduced():
    target = parse("a*bc", REG_INV).re
    assert canonicalize(Concat(EPSILON, target)) == target
    assert canonicalize(Concat(EMPTY, Sym("b"))) == EMPTY
    assert canonicalize(Sum(EMPTY, Sym("b"))) == Sym("b")
    assert canonicalize(Concat(Sym("b"), EPSILON)) == Sym("b")


def test_canonicalize_raw_is_identity():
    e = Concat(EPSILON, parse("a*bc", REG_INV).re)
    assert canonicalize(e, "raw") == e


def test_canonicalize_idempotent_and_language_preserving():
    rng = random.Random(11)
    for _ in range(60):
        f = random_regex(rng, ("a", "b"), rng.randint(1, 6))
        g = canonicalize(f)
        assert canonicalize(g) == g
        assert enum_regex(f, 6).words == enum_regex(g, 6).words


def test_canonicalize_never_grows_width():
    rng = random.Random(13)
    for _ in range(60):
        f = random_regex(rng, ("a", "b"), rng.randint(1, 6))
        assert metrics(canonicalize(f)).n <= metrics(f).n


def test_couple_alphabet_order():
    assert all_couples(("a", "b")) == (
        ("a", "a"),
        ("a", "b"),
        ("a", ""),
        ("b", "a"),
        ("b", "b"),
        ("b", ""),
        ("", "a"),
        ("", "b"),
    )


def test_infer_alphabet_unions_map_domain():
    e = parse("Hr[1,H](ab)", REG_INV)
    assert infer_alphabet(e, REG_INV) == ("a", "b", "c")
    assert infer_alphabet(parse("ab", REG_INV)) == ("a", "b")
