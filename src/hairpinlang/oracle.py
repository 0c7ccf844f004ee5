"""Brute-force bounded enumeration of languages.

Everything here works on LangSet values: finite word sets that are exact
up to a stated length bound. Regular languages are enumerated structurally,
hairpin completions by their set definitions (split every word every way),
and two-sided residuals by direct filtering. The rest of the package is
validated against these functions, so they favor obviousness over speed.
"""

from __future__ import annotations

import itertools

from .expr import (
    AntiMorphism,
    Concat,
    Empty,
    Epsilon,
    HSum,
    Record,
    Reg,
    RegexAst,
    Registry,
    Star,
    Sum,
    Sym,
    as_hairpin,
)

CAP = 16


class OracleError(ValueError):
    pass


class LangSet(Record):
    """Words of a language up to a length bound.

    The contract is exactness: ``words`` holds every member of length at
    most ``bound`` and nothing longer. A bound of -1 means the set covers
    nothing, not even the empty word.
    """

    __slots__ = ("words", "bound")

    def __post_init__(self):
        for w in self.words:
            if len(w) > self.bound:
                raise OracleError(
                    f"word {w!r} exceeds the bound {self.bound} of its LangSet"
                )

    def __contains__(self, w: str) -> bool:
        return w in self.words

    def __iter__(self):
        return iter(sorted(self.words, key=lambda w: (len(w), w)))

    def restrict(self, n: int) -> LangSet:
        """The same language cut to a (usually smaller) bound."""
        if n >= self.bound:
            return LangSet(self.words, self.bound)
        return LangSet(frozenset(w for w in self.words if len(w) <= n), n)

    def union(self, other: LangSet) -> LangSet:
        """Union, exact only up to the smaller of the two bounds."""
        bound = min(self.bound, other.bound)
        words = frozenset(w for w in self.words | other.words if len(w) <= bound)
        return LangSet(words, bound)


def check_max_len(max_len: int, error: type[Exception]) -> None:
    """Reject an enumeration bound outside 0..CAP, raising the caller's
    own error type."""
    if max_len > CAP:
        raise error(f"max_len {max_len} exceeds the enumeration cap {CAP}")
    if max_len < 0:
        raise error("max_len must be non-negative")


def enum_regex(f: RegexAst, max_len: int) -> LangSet:
    """All words of L(f) of length at most max_len."""
    check_max_len(max_len, OracleError)
    return LangSet(frozenset(_enum(f, max_len)), max_len)


def _enum(f: RegexAst, n: int) -> set[str]:
    if isinstance(f, Empty):
        return set()
    if isinstance(f, Epsilon):
        return {""}
    if isinstance(f, Sym):
        return {f.ch} if n >= 1 else set()
    if isinstance(f, Sum):
        return _enum(f.left, n) | _enum(f.right, n)
    if isinstance(f, Concat):
        left = _enum(f.left, n)
        right = _enum(f.right, n)
        return {u + v for u in left for v in right if len(u) + len(v) <= n}
    if isinstance(f, Star):
        base = _enum(f.inner, n) - {""}
        acc = {""}
        frontier = {""}
        while frontier:
            step = {
                w + u for w in frontier for u in base if len(w) + len(u) <= n
            } - acc
            acc |= step
            frontier = step
        return acc
    raise OracleError(f"not a regex: {f!r}")


def complete(
    l: LangSet,
    h: AntiMorphism,
    k: int,
    mode: str,
    l2: LangSet | None = None,
) -> LangSet:
    """Hairpin completion of an enumerated language, by the set definitions.

    right: for u = α·β·γ·H(β) in l with |β| = k, add H(α) on the right.
    left: for u = β·γ·H(β)·H(α) in l, add α on the left (every α whose
    image is the present suffix counts; a non-injective map yields several).
    prime: keep only the u = β·γ·H(β) already of that shape; needs k >= 1.
    pair: right completion of l joined with left completion of l2.

    A completion of u is never shorter than u, so sources up to l.bound
    determine all outputs up to l.bound; longer outputs are discarded.
    """
    if k < 0:
        raise OracleError("completion requires k >= 0")
    if mode == "pair":
        if l2 is None:
            raise OracleError("pair mode requires a second language")
        return complete(l, h, k, "right").union(complete(l2, h, k, "left"))
    if l2 is not None:
        raise OracleError(f"mode {mode!r} takes a single language")
    if mode == "right":
        out = set()
        for u in l.words:
            for i in range(len(u) - 2 * k + 1):
                alpha, beta, delta = u[:i], u[i : i + k], u[i + k :]
                if k and delta[len(delta) - k :] != h.word(beta):
                    continue
                w = u + h.word(alpha)
                if len(w) <= l.bound:
                    out.add(w)
        return LangSet(frozenset(out), l.bound)
    if mode == "left":
        out = set()
        for u in l.words:
            beta = u[:k]
            for j in range(2 * k, len(u) + 1):
                if k and u[j - k : j] != h.word(beta):
                    continue
                for alpha in _preimage_words(h, u[j:]):
                    w = alpha + u
                    if len(w) <= l.bound:
                        out.add(w)
        return LangSet(frozenset(out), l.bound)
    if mode == "prime":
        if k < 1:
            raise OracleError("prime completion requires k >= 1")
        kept = frozenset(
            u for u in l.words if len(u) >= 2 * k and u.endswith(h.word(u[:k]))
        )
        return LangSet(kept, l.bound)
    raise OracleError(f"unknown completion mode {mode!r}")


def _preimage_words(h: AntiMorphism, s: str):
    """All α with h.word(α) = s. The i-th symbol of α (from the left) must
    map to the i-th symbol of s from the right."""
    pools = [h.preimages(c) for c in reversed(s)]
    if any(not p for p in pools):
        return
    for combo in itertools.product(*pools):
        yield "".join(combo)


def residual(l: LangSet, u: str, v: str) -> LangSet:
    """Two-sided residual {w : u·w·v in l}, with the bound shrunk by
    |u| + |v| (floored at -1: no coverage left)."""
    bound = max(l.bound - len(u) - len(v), -1)
    words = frozenset(
        w[len(u) : len(w) - len(v)]
        for w in l.words
        if len(w) >= len(u) + len(v) and w.startswith(u) and w.endswith(v)
    )
    return LangSet(frozenset(w for w in words if len(w) <= bound), bound)


def hairpin_enum(
    e, max_len: int, registry: Registry | None = None
) -> LangSet:
    """All words of L(e) of length at most max_len, for a hairpin
    expression: enumerate the regex parts, then apply the completion
    operators set-wise."""
    check_max_len(max_len, OracleError)
    e = as_hairpin(e)
    if isinstance(e, Reg):
        return enum_regex(e.re, max_len)
    if isinstance(e, HSum):
        return hairpin_enum(e.left, max_len, registry).union(
            hairpin_enum(e.right, max_len, registry)
        )
    if registry is None or e.h not in registry:
        raise OracleError(f"anti-morphism {e.h!r} is not registered")
    h = registry[e.h]
    return complete(enum_regex(e.inner, max_len), h, e.k, e.mode)
