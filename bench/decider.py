"""Membership in hairpin completions, decided from the set definitions.

This module shares no code with ``hairpinlang``: the regular part of each
term is a Python ``re`` pattern written by the input generator from the
same template as the expression text, and the completions are decided by
splitting the word the way their definitions say.

* ``Hr[k,H](L)``: w = u·H(α) with u = α·β·γ·H(β) in L and |β| = k;
* ``Hl[k,H](L)``: w = α·u with u = β·γ·H(β)·H(α) in L and |β| = k;
* ``Hp[k,H](L)``: w in L with w = β·γ·H(β) and |β| = k >= 1;
* a sum holds when one of its terms does.
"""

from __future__ import annotations

import re
from functools import lru_cache


@lru_cache(maxsize=None)
def _compiled(pattern: str) -> re.Pattern:
    return re.compile(pattern)


def image(h: dict, w: str) -> str:
    """H(w): map every letter, then reverse."""
    return "".join(h[c] for c in reversed(w))


def preimage(h: dict, s: str) -> str:
    """One α with H(α) = s; the maps used here are bijections."""
    inverse = {dst: src for src, dst in h.items()}
    return "".join(inverse[c] for c in reversed(s))


def _mirror_prefix(h: dict, w: str) -> int:
    """Largest L with H(w[:L]) = w[n-L:]. The valid completion lengths
    are then exactly 0..L, because H(w[:l]) = w[n-l:] says
    h(w[i]) = w[n-1-i] for every i < l."""
    n = len(w)
    length = 0
    while length < n and h.get(w[length]) == w[n - 1 - length]:
        length += 1
    return length


def decide_term(op: str, k: int, pattern: str, h: dict, w: str) -> bool:
    rx = _compiled(pattern)
    n = len(w)
    if op == "Hp":
        return n >= 2 * k and w[n - k:] == image(h, w[:k]) and bool(rx.fullmatch(w))
    for ell in range(_mirror_prefix(h, w) + 1):
        m = n - ell  # |u|
        if m < ell + 2 * k:
            break
        if op == "Hr":
            u = w[:m]
            stem_ok = u[m - k:] == image(h, u[ell:ell + k])
        elif op == "Hl":
            u = w[ell:]
            stem_ok = u[m - ell - k:m - ell] == image(h, u[:k])
        else:
            raise ValueError(f"unknown completion {op!r}")
        if stem_ok and rx.fullmatch(u):
            return True
    return False


def decide(spec, w: str) -> bool:
    """Is w in the language of the generated expression ``spec``?"""
    h = spec.h
    return any(decide_term(t.op, t.k, t.pattern, h, w) for t in spec.terms)
