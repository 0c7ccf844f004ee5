"""Builders for the three derivative-based recognizers.

regex_dta embeds the classic derived term automaton into the couple world
(labels (a, ε) only). two_sided_dta closes an expression under two-sided
derivatives. effective_automaton handles the k = 0 completions, which the
two-sided derivative rules do not cover: it is a restricted construction
with its own transition shape, built from the one-sided derived terms of
the underlying regex, and is deliberately kept as a separate code path (it
is not the k = 0 instance of the general one).

Every transition comes from a step of the derived-term closure
(DerivedTerms.edges): the closure derives each state by every symbol or
couple once, and no builder derives again.

States are numbered in construction order; the printed expression each
state stands for is kept as its display label.
"""

from __future__ import annotations

from .couple_nfa import CoupleNfa
from .derivation import derived_terms
from .expr import (
    Completion,
    ExprError,
    Reg,
    Registry,
    RegexAst,
    as_hairpin,
    canonicalize,
    expr_key,
    expr_str,
    has_zero_k,
    infer_alphabet,
    nullable,
    pure_regex_of,
    regex_str,
)


def _assemble(alphabet, exprs, initial_expr, finals, trans, printer) -> CoupleNfa:
    ids = {e: str(i) for i, e in enumerate(exprs)}
    return CoupleNfa(
        alphabet=tuple(alphabet),
        states=tuple(ids[e] for e in exprs),
        initial=frozenset({ids[initial_expr]}),
        final=frozenset(ids[e] for e in finals),
        transitions=frozenset((ids[s], c, ids[t]) for s, c, t in trans),
        labels=tuple((ids[e], printer(e)) for e in exprs),
    )


def regex_dta(f: RegexAst, reduce: bool = True) -> CoupleNfa:
    """Derived term automaton of a plain regex, with couple labels (a, ε).

    States are the expression and its left derived terms (at most width+1
    of them); a state is final when nullable. The automaton's image
    language is L(f)."""
    g = pure_regex_of(f)
    if g is None:
        raise ExprError("regex_dta requires a pure regular expression")
    if reduce:
        g = canonicalize(g)
    alphabet = infer_alphabet(g)
    dt = derived_terms(g, "left", alphabet=alphabet, reduce=reduce)
    exprs = [g] + [t for t in dt.terms if t != g]
    trans = [(r, (a, ""), t) for r, a, t in dt.edges]
    finals = [e for e in exprs if nullable(e)]
    return _assemble(alphabet, exprs, g, finals, trans, regex_str)


def two_sided_dta(
    e, registry: Registry | None = None, reduce: bool = True
) -> CoupleNfa:
    """Two-sided derived term automaton: states are the expression plus
    its two-sided derived terms, transitions run over every couple symbol
    (one-sided couples fire on regex-valued states only), finals are the
    nullable states. Rejects k = 0 completions."""
    start = as_hairpin(e)
    if has_zero_k(start):
        raise ExprError(
            "k = 0 completions have no two-sided derivatives; "
            "use effective_automaton"
        )
    if reduce:
        start = canonicalize(start)
    alphabet = infer_alphabet(start, registry)
    dt = derived_terms(start, "two_sided", registry, alphabet, reduce)
    exprs = [start] + [t for t in dt.terms if t != start]
    finals = [e2 for e2 in exprs if nullable(e2)]
    return _assemble(alphabet, exprs, start, finals, dt.edges, expr_str)


def effective_automaton(
    e, registry: Registry | None = None, reduce: bool = True
) -> CoupleNfa:
    """Recognizer for a k = 0 completion of a regular language.

    For the right completion the states are the wrapped and bare left
    derived terms of the inner regex; a wrapped state reads (x, H(x))
    into wrapped derivatives while the stem is still being matched, or
    gives up on the stem with (x, ε) into the bare copy, which then
    behaves like the ordinary derived term automaton. The left completion
    mirrors this with right derivatives and (ε, y) couples. At most
    2·width + 1 states."""
    root = as_hairpin(e)
    if reduce:
        root = canonicalize(root)
    if not isinstance(root, Completion) or root.k != 0:
        raise ExprError(
            "effective_automaton requires a single k = 0 right or left completion"
        )
    if registry is None or root.h not in registry:
        raise ExprError(f"anti-morphism {root.h!r} is not registered")
    h = registry[root.h]
    rightward = root.mode == "right"
    alphabet = infer_alphabet(root, registry)
    op = type(root)

    dt = derived_terms(
        root.inner, "left" if rightward else "right", alphabet=alphabet, reduce=reduce
    )
    derived = set(dt.terms)

    exprs = [root]
    seen = {root}
    for state in sorted(
        {op(0, root.h, t) for t in derived} | {Reg(t) for t in derived},
        key=expr_key,
    ):
        if state not in seen:
            seen.add(state)
            exprs.append(state)

    # The couples (x, H(x)) that keep matching the stem, by the symbol a
    # the closure step reads: x = a on the right, H(x) = a on the left.
    if rightward:
        stem = {a: [(a, h.image(a))] for a in h.alphabet}
    else:
        stem = {a: [(x, a) for x in h.preimages(a)] for a in h.alphabet}

    trans = []
    for r, a, t in dt.edges:
        w = op(0, root.h, r)
        # a one-sided read stops matching the stem
        drop = (a, "") if rightward else ("", a)
        trans.append((w, drop, Reg(t)))
        if r in derived:
            trans.append((Reg(r), drop, Reg(t)))
        for c in stem.get(a, ()):
            trans.append((w, c, op(0, root.h, t)))

    finals = [e2 for e2 in exprs if nullable(e2)]
    return _assemble(alphabet, exprs, root, finals, trans, expr_str)
