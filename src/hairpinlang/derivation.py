"""Partial derivatives, derived-term fixpoints, and cardinality bounds.

The one-sided derivatives are Antimirov's: a set of terms whose languages
union to the residual by one symbol, taken on the left or on the right.
One rule set serves both sides; it reads a concatenation from the side it
derives on. The two-sided derivative acts on couple symbols (x, y),
consuming x on the left and y on the right in one step; on hairpin
operators it follows the completion-specific rules (the couple must read a
stem symbol and its image, otherwise the derivative is empty).

Term sets are ordered, duplicate-free tuples. A literal empty-set member
never survives: it cannot contribute to any residual, so it is dropped
before any wrapper is applied. Reduced mode (the default) canonicalizes
every member; raw mode keeps the terms exactly as the rules build them,
which is the regime the cardinality bounds are stated for.

derived_terms keeps every step its closure takes. Those steps are the
transitions of the derived-term automaton (Antimirov), so the builders in
construction take them from the closure and derive nothing again.
"""

from __future__ import annotations

from collections import deque

from .expr import (
    Concat,
    Couple,
    Empty,
    Epsilon,
    ExprError,
    HLeft,
    HPrime,
    HRight,
    HSum,
    Record,
    Reg,
    Registry,
    RegexAst,
    Star,
    Sum,
    Sym,
    all_couples,
    as_hairpin,
    canonicalize,
    expr_key,
    infer_alphabet,
    metrics,
    nullable,
    pure_regex_of,
    regex_key,
)


def _finish_regex(terms, reduce: bool) -> tuple[RegexAst, ...]:
    if reduce:
        terms = (canonicalize(t) for t in terms)
    out = {t for t in terms if not isinstance(t, Empty)}
    return tuple(sorted(out, key=regex_key))


def _attach(terms, g: RegexAst, left: bool):
    # S·G when deriving on the left, G·S on the right. _pd yields no
    # empty-set member; the wrapper itself is not simplified here (reduced
    # mode handles that afterwards).
    return [Concat(t, g) if left else Concat(g, t) for t in terms]


def _pd(f: RegexAst, a: str, left: bool) -> list[RegexAst]:
    # Antimirov's rules, reading a Concat from the side being derived on.
    if isinstance(f, Sym):
        return [Epsilon()] if f.ch == a else []
    if isinstance(f, Sum):
        return _pd(f.left, a, left) + _pd(f.right, a, left)
    if isinstance(f, Concat):
        near, far = (f.left, f.right) if left else (f.right, f.left)
        out = _attach(_pd(near, a, left), far, left)
        if nullable(near):
            out += _pd(far, a, left)
        return out
    if isinstance(f, Star):
        return _attach(_pd(f.inner, a, left), f, left)
    return []


def left_pd(f: RegexAst, a: str, reduce: bool = True) -> tuple[RegexAst, ...]:
    """Antimirov left partial derivative: terms whose languages union to
    a^{-1}(L(f))."""
    return _finish_regex(_pd(f, a, True), reduce)


def right_pd(f: RegexAst, a: str, reduce: bool = True) -> tuple[RegexAst, ...]:
    """Mirror of left_pd: terms whose languages union to (L(f))a^{-1}."""
    return _finish_regex(_pd(f, a, False), reduce)


def word_pd(
    f: RegexAst, w: str, side: str, reduce: bool = True
) -> tuple[RegexAst, ...]:
    """Iterated symbol derivative. The word is consumed symbol by symbol
    left to right on both sides; for the right side that means the first
    symbol of w is the first one stripped off the end of the language."""
    if side not in ("left", "right"):
        raise ExprError(f"unknown side {side!r}")
    pd = left_pd if side == "left" else right_pd
    terms: tuple[RegexAst, ...] = _finish_regex([f], reduce)
    for a in w:
        step: set[RegexAst] = set()
        for t in terms:
            step.update(pd(t, a, reduce))
        terms = tuple(sorted(step, key=regex_key))
    return terms


def two_sided_pd(
    e,
    c: Couple,
    registry: Registry | None = None,
    reduce: bool = True,
) -> tuple:
    """Two-sided partial derivative of a hairpin expression by the couple
    (x, y): x is consumed on the left and y on the right in a single step.

    On a plain regex the couple composes the one-sided derivatives (left
    first, then right on every term). On a completion operator the result
    is empty unless both components are alphabet symbols with y = H(x);
    the surviving cases peel one stem layer, lowering the prime index by
    one until it vanishes at k = 1. Requires every operator to have k >= 1.
    """
    x, y = c
    if (x, y) == ("", ""):
        raise ExprError("the couple (epsilon, epsilon) is not a symbol")
    e = as_hairpin(e)

    if isinstance(e, Reg):
        return _reg_two_sided(e.re, x, y, reduce)

    if isinstance(e, HSum):
        out = set(two_sided_pd(e.left, c, registry, reduce))
        out.update(two_sided_pd(e.right, c, registry, reduce))
        return tuple(sorted(out, key=expr_key))

    if e.k == 0:
        raise ExprError(
            "two-sided derivatives are undefined for k = 0 completions; "
            "use the effective-automaton construction instead"
        )
    if registry is None or e.h not in registry:
        raise ExprError(f"anti-morphism {e.h!r} is not registered")
    h = registry[e.h]
    if not x or not y or x not in h.alphabet or y != h.image(x):
        return ()

    inner_xy = _reg_two_sided(e.inner, x, y, reduce)
    if e.k == 1:
        out = set(inner_xy)
    else:
        out = {HPrime(e.k - 1, e.h, t.re) for t in inner_xy}
    if e.mode == "right":
        out.update(HRight(e.k, e.h, t) for t in left_pd(e.inner, x, reduce))
    elif e.mode == "left":
        out.update(HLeft(e.k, e.h, t) for t in right_pd(e.inner, y, reduce))
    return tuple(sorted(out, key=expr_key))


def _reg_two_sided(f: RegexAst, x: str, y: str, reduce: bool):
    if not x:
        terms = right_pd(f, y, reduce)
    elif not y:
        terms = left_pd(f, x, reduce)
    else:
        step: set[RegexAst] = set()
        for t in left_pd(f, x, reduce):
            step.update(right_pd(t, y, reduce))
        terms = tuple(step)
    return tuple(sorted((Reg(t) for t in terms), key=expr_key))


class DerivedTerms(Record):
    """A derived-term closure. ``edges`` holds every step the closure took,
    as (term, symbol or couple, derived term), the source's own steps
    included: they are the transitions of the derived-term automaton."""

    __slots__ = ("terms", "side", "source", "edges")


def derived_terms(
    e,
    side: str,
    registry: Registry | None = None,
    alphabet: tuple[str, ...] | None = None,
    reduce: bool = True,
) -> DerivedTerms:
    """Closure of the one-step derivatives of e under further derivation,
    by breadth-first worklist; every term, the source included, is derived
    once by every step. The source expression belongs to the terms only
    when some derivative chain comes back to it.

    Sides left/right need a pure regex and step over the alphabet; side
    two_sided steps over the whole couple alphabet (one-sided couples
    included, though they only fire on regex terms).
    """
    if alphabet is None:
        alphabet = infer_alphabet(e, registry)

    if side in ("left", "right"):
        f = pure_regex_of(e)
        if f is None:
            raise ExprError(f"{side} derived terms require a pure regex")
        start = canonicalize(f) if reduce else f
        pd = left_pd if side == "left" else right_pd
        symbols, key, args = alphabet, regex_key, (reduce,)
    elif side == "two_sided":
        start = canonicalize(as_hairpin(e)) if reduce else as_hairpin(e)
        pd = two_sided_pd
        symbols, key, args = all_couples(alphabet), expr_key, (registry, reduce)
    else:
        raise ExprError(f"unknown side {side!r}")

    seen: dict = {}
    edges = []
    queue = deque([start])
    while queue:
        t = queue.popleft()
        for a in symbols:
            for t2 in pd(t, a, *args):
                edges.append((t, a, t2))
                if t2 not in seen:
                    seen[t2] = None
                    if t2 != start:
                        queue.append(t2)
    return DerivedTerms(tuple(sorted(seen, key=key)), side, e, tuple(edges))


def phi(k: int) -> int:
    """Size of the two-sided derived-term set of a single star under the
    recurrence phi(k+1) = phi(k) + 2k(k+1), with phi(0) = 0, phi(1) = 1."""
    if k < 0:
        raise ExprError("phi is defined for k >= 0")
    value = 0 if k == 0 else 1
    for i in range(1, k):
        value += 2 * i * (i + 1)
    return value


class Bounds(Record):
    __slots__ = ("left_bound", "right_bound", "two_sided_bound", "state_bound")


def bounds(e) -> Bounds:
    """Worst-case derived-term counts from the expression's size alone:
    width n for each one-sided set, a cubic in m = n + star count for the
    two-sided set (scaled by the completion index when there is one), and
    one more than that for automaton states. The cubic assumes n > 0; at
    n = 0 the value is clamped to 0."""
    ms = metrics(e)
    m = ms.m
    cubic = 2 * m * (m + 1) * (m + 2) // 3 - 3
    if ms.index == 0:
        two_sided = cubic
    else:
        two_sided = ms.index * cubic + ms.n
    two_sided = max(two_sided, 0)
    return Bounds(ms.n, ms.n, two_sided, two_sided + 1)
