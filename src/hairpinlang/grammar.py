"""Linear context-free grammars and their equivalence with couple NFAs.

A linear grammar here allows exactly two production shapes: A -> x B y
with (x, y) a couple symbol (so at least one side is a real terminal),
and A -> ε. Unit productions from the axiom (S -> B) fall outside that
format but arise naturally when reading a grammar off an automaton with
several initial states; they are carried in a separate axiom_links field
and folded back into the initial state set on the way to an automaton.

Both conversion directions preserve the generated language, which makes
the grammar class and the automaton class interchangeable descriptions
of the linear languages; generate_upto is the bounded witness for that.
"""

from __future__ import annotations

from .couple_nfa import CoupleNfa, enumerate_gamma_language
from .expr import Record
from .oracle import LangSet, check_max_len


class GrammarError(ValueError):
    pass


class LinearGrammar(Record):
    # productions: (A, x, B, y), ~ y as ""; eps_productions: A with A -> ε;
    # axiom_links: B with S -> B, S the axiom
    __slots__ = ("terminals", "nonterminals", "axiom", "productions", "eps_productions",
                 "axiom_links")

    def __post_init__(self):
        declared = set(self.nonterminals)
        if len(declared) != len(self.nonterminals):
            raise GrammarError("duplicate nonterminal")
        if self.axiom not in declared:
            raise GrammarError(f"axiom {self.axiom!r} is not a declared nonterminal")
        sigma = set(self.terminals) | {""}
        for a, x, b, y in self.productions:
            if a not in declared or b not in declared:
                raise GrammarError(f"production {a!r}->{x}{b!r}{y} uses undeclared nonterminal")
            if x not in sigma or y not in sigma or (x, y) == ("", ""):
                raise GrammarError(f"production label ({x!r},{y!r}) is not a couple symbol")
        for a in self.eps_productions | self.axiom_links:
            if a not in declared:
                raise GrammarError(f"undeclared nonterminal {a!r}")


def nfa_to_grammar(a: CoupleNfa) -> LinearGrammar:
    """Read a grammar off an automaton: one nonterminal per state plus a
    fresh axiom S linked to the initial states; state transitions become
    linear productions and final states become ε-productions."""
    name = {q: f"A_{q}" for q in a.states}
    axiom = "S"
    while axiom in name.values():
        axiom += "_"
    productions = frozenset(
        (name[src], x, name[dst], y) for src, (x, y), dst in a.transitions
    )
    return LinearGrammar(
        terminals=a.alphabet,
        nonterminals=(axiom,) + tuple(name[q] for q in a.states),
        axiom=axiom,
        productions=productions,
        eps_productions=frozenset(name[q] for q in a.final),
        axiom_links=frozenset(name[q] for q in a.initial),
    )


def grammar_to_nfa(g: LinearGrammar) -> CoupleNfa:
    """Read an automaton off a grammar: nonterminals become states, the
    axiom and its unit-linked nonterminals start, ε-producers accept."""
    return CoupleNfa(
        alphabet=g.terminals,
        states=g.nonterminals,
        initial=frozenset({g.axiom}) | g.axiom_links,
        final=g.eps_productions,
        transitions=frozenset((a, (x, y), b) for a, x, b, y in g.productions),
    )


def generate_upto(g: LinearGrammar, max_len: int) -> LangSet:
    """All terminal words of length at most max_len derivable from the
    axiom: the image language of the grammar's automaton, enumerated by
    the same budgeted length-indexed dynamic programming."""
    check_max_len(max_len, GrammarError)
    return enumerate_gamma_language(grammar_to_nfa(g), max_len)


def to_text(g: LinearGrammar) -> str:
    """Line-oriented dump; from_text() reads it back."""
    lines = [f"axiom {g.axiom}"]
    for b in sorted(g.axiom_links):
        lines.append(f"unit {g.axiom} {b}")
    for a, x, b, y in sorted(g.productions):
        lines.append(f"prod {a} {x or '~'} {b} {y or '~'}")
    for a in sorted(g.eps_productions):
        lines.append(f"prod {a} ~")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> LinearGrammar:
    axiom = None
    axiom_links: set[str] = set()
    productions: set[tuple[str, str, str, str]] = set()
    eps_productions: set[str] = set()
    nonterminals: list[str] = []

    def declare(v: str):
        if v not in nonterminals:
            nonterminals.append(v)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kind = fields[0]
        if kind == "axiom":
            if len(fields) != 2:
                raise GrammarError(f"line {lineno}: axiom needs one name")
            axiom = fields[1]
            declare(axiom)
        elif kind == "unit":
            if len(fields) != 3:
                raise GrammarError(f"line {lineno}: unit needs axiom and target")
            if fields[1] != axiom:
                raise GrammarError(f"line {lineno}: unit productions start at the axiom")
            declare(fields[2])
            axiom_links.add(fields[2])
        elif kind == "prod":
            if len(fields) == 3 and fields[2] == "~":
                declare(fields[1])
                eps_productions.add(fields[1])
            elif len(fields) == 5:
                _, a, x, b, y = fields
                declare(a)
                declare(b)
                productions.add((a, "" if x == "~" else x, b, "" if y == "~" else y))
            else:
                raise GrammarError(f"line {lineno}: bad production {raw!r}")
        else:
            raise GrammarError(f"line {lineno}: unknown directive {kind!r}")
    if axiom is None:
        raise GrammarError("missing axiom line")
    terminals = sorted(
        {x for _, x, _, _ in productions if x} | {y for _, _, _, y in productions if y}
    )
    return LinearGrammar(
        terminals=tuple(terminals),
        nonterminals=tuple(nonterminals),
        axiom=axiom,
        productions=frozenset(productions),
        eps_productions=frozenset(eps_productions),
        axiom_links=frozenset(axiom_links),
    )
