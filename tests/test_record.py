"""Value semantics of every Record class: constructor, equality, hash,
immutability, repr, pickling and deep copies."""

import copy
import pickle

import pytest

from hairpinlang.couple_nfa import CoupleNfa
from hairpinlang.derivation import Bounds, DerivedTerms
from hairpinlang.expr import (
    EMPTY,
    EPSILON,
    AntiMorphism,
    Concat,
    Empty,
    Epsilon,
    ExprMetrics,
    HLeft,
    HPrime,
    HRight,
    HSum,
    Record,
    Reg,
    Star,
    Sum,
    Sym,
    parse,
    parse_map,
)
from hairpinlang.grammar import LinearGrammar
from hairpinlang.oracle import LangSet

A, B = Sym("a"), Sym("b")
AB = Concat(A, B)
H = parse_map("a:a,b:c,c:b")

# (class, field values in declaration order), one per concrete class
SAMPLES = [
    (Empty, ()),
    (Epsilon, ()),
    (Sym, ("a",)),
    (Sum, (A, B)),
    (Concat, (A, B)),
    (Star, (AB,)),
    (Reg, (AB,)),
    (HRight, (1, "H", Star(A))),
    (HLeft, (0, "H", AB)),
    (HPrime, (2, "H", EPSILON)),
    (HSum, (Reg(A), HRight(1, "H", B))),
    (AntiMorphism, ("H", (("a", "b"), ("b", "a")))),
    (ExprMetrics, (3, 1, 4, 2)),
    (DerivedTerms, ((Reg(B),), "two_sided", Reg(AB), ((Reg(AB), ("a", ""), Reg(B)),))),
    (Bounds, (3, 3, 80, 81)),
    (CoupleNfa, (("a", "b"), ("0", "1"), frozenset({"0"}), frozenset({"1"}),
                 frozenset({("0", ("a", "b"), "1")}), (("0", "start"),))),
    (LinearGrammar, (("a", "b"), ("S", "A"), "S", frozenset({("A", "a", "A", "b")}),
                     frozenset({"A"}), frozenset({"A"}))),
    (LangSet, (frozenset({"", "ab"}), 2)),
]


def concrete_records():
    found, todo = set(), [Record]
    while todo:
        subclasses = todo.pop().__subclasses__()
        todo += subclasses
        found.update(c for c in subclasses if not c.__subclasses__())
    return found


def test_the_samples_cover_every_concrete_record():
    assert {cls for cls, _ in SAMPLES} == concrete_records()


@pytest.mark.parametrize("cls, values", SAMPLES, ids=[c.__name__ for c, _ in SAMPLES])
def test_record_semantics(cls, values):
    x = cls(*values)
    same = cls(*values)
    assert x == same and x is not same and not x != same
    assert hash(x) == hash(same) == hash(values)
    assert x != values
    for clone in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        assert type(clone) is cls
        assert clone == x and hash(clone) == hash(x) and repr(clone) == repr(x)
    for field in x._fields:
        with pytest.raises(AttributeError):
            setattr(x, field, None)
        with pytest.raises(AttributeError):
            delattr(x, field)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x == same


def test_keyword_construction_and_defaults():
    a = CoupleNfa(alphabet=("a",), states=("0",), initial=frozenset({"0"}),
                  final=frozenset(), transitions=frozenset())
    assert a.labels == ()
    assert a == CoupleNfa(("a",), ("0",), frozenset({"0"}), frozenset(), frozenset(), ())
    assert Sum(right=B, left=A) == Sum(A, B)
    with pytest.raises(TypeError):
        Sum(A)


def test_equality_needs_the_same_class():
    assert Sum(A, B) != Concat(A, B)
    assert HRight(1, "H", A) != HLeft(1, "H", A)
    assert EMPTY != EPSILON
    assert Empty() == EMPTY and hash(Empty()) == hash(())


def test_post_init_checks_run_on_every_construction():
    with pytest.raises(ValueError):
        Sym("ab")
    with pytest.raises(ValueError):
        HPrime(0, "H", A)
    with pytest.raises(ValueError):
        HSum(A, B)


def test_private_slots_stay_out_of_equality_and_survive_copies():
    assert H._fields == ("name", "table")
    for clone in (pickle.loads(pickle.dumps(H)), copy.deepcopy(H)):
        assert clone.word("ab") == H.word("ab") == "ca"


def test_repr_goldens():
    assert repr(parse("Hr[1,H](a*b)+ab", {"H": H})) == (
        "HSum(left=HRight(k=1, h='H', inner=Concat(left=Star(inner=Sym(ch='a')), "
        "right=Sym(ch='b'))), right=Reg(re=Concat(left=Sym(ch='a'), right=Sym(ch='b'))))"
    )
    a = CoupleNfa(("a", "b"), ("0",), frozenset({"0"}), frozenset({"0"}),
                  frozenset({("0", ("a", "b"), "0")}))
    assert repr(a) == (
        "CoupleNfa(alphabet=('a', 'b'), states=('0',), initial=frozenset({'0'}), "
        "final=frozenset({'0'}), transitions=frozenset({('0', ('a', 'b'), '0')}), labels=())"
    )
