"""The benchmark's decider agrees with the brute-force oracle.

Run with ``PYTHONPATH=src python3 -m pytest bench/test_bench_decider.py``.
One small instance of every family the workloads generate is decided on
every word up to length 6 and compared with ``oracle.hairpin_enum``.
"""

import itertools
import random

import pytest

from decider import decide
from inputs import Spec, Term, motif_term
from hairpinlang.expr import parse, parse_map
from hairpinlang.oracle import hairpin_enum


def _motif(op, k, width, map_name, seed=0):
    return motif_term(random.Random(f"{op}{k}{width}{map_name}{seed}"), op, k, width, map_name)


FAMILIES = [
    Spec((_motif("Hr", 1, 2, "wc"),), "wc"),
    Spec((_motif("Hl", 2, 2, "wc"),), "wc"),
    Spec((_motif("Hp", 3, 1, "wc"),), "wc"),
    Spec((_motif("Hr", 3, 1, "wc"),), "wc"),
    Spec((_motif("Hr", 0, 2, "wc"),), "wc"),
    Spec((_motif("Hl", 0, 2, "wc"),), "wc"),
    Spec((_motif("Hr", 1, 2, "wc"), _motif("Hl", 2, 2, "wc")), "wc"),
    Spec((_motif("Hr", 1, 2, "abc"),), "abc"),
    Spec((_motif("Hl", 2, 2, "abc"),), "abc"),
    Spec((_motif("Hp", 1, 2, "abc"),), "abc"),
    Spec((_motif("Hr", 1, 2, "abc"), _motif("Hp", 1, 2, "abc")), "abc"),
    Spec((_motif("Hr", 1, 2, "oct"), _motif("Hp", 1, 2, "oct")), "oct"),
    Spec((Term("Hr", 1, "word", ("abbc",)),), "abc"),
    Spec((Term("Hr", 2, "starsum", ("ab", 2, "c", "b")),), "abc"),
]


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.text)
def test_decider_matches_oracle(spec):
    bound = 6
    reg = {"H": parse_map(spec.map_spec)}
    expected = hairpin_enum(parse(spec.text, reg), bound, reg).words
    assert expected, "the instance should have words below the bound"
    for n in range(bound + 1):
        for letters in itertools.product(spec.alphabet, repeat=n):
            w = "".join(letters)
            assert decide(spec, w) == (w in expected), w
