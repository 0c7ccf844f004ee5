"""Command-line front end.

Subcommands: parse, derive, dta, effective, member, enum, grammar,
verify-bounds. Exit status is 0 on success, 1 when a membership query
answers false or a bound check fails (so shells can branch on it), and
2 on usage, parse, or I/O errors and on input too large to process.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import couple_nfa as cnfa
from . import grammar as gram
from .construction import effective_automaton, two_sided_dta
from .derivation import bounds, derived_terms, two_sided_pd
from .expr import (
    Completion,
    ExprError,
    expr_str,
    has_zero_k,
    infer_alphabet,
    metrics,
    nullable,
    parse,
    parse_map,
    parse_map_file,
    pure_regex_of,
)
from .oracle import OracleError


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hairpin",
        description="Two-sided derivatives, couple NFAs, and linear grammars "
        "for regular and hairpin expressions.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, word=False, couple=False):
        p.add_argument("--expr", help="expression text")
        p.add_argument("--map", dest="map_spec", help='anti-morphism, e.g. "a:a,b:c,c:b"')
        p.add_argument("--map-file", help="anti-morphism file, one 'x -> y' per line")
        p.add_argument("--max-len", type=int, default=8, help="enumeration bound (default 8)")
        p.add_argument("--reduce", choices=("on", "off"), default="on",
                       help="canonicalize derivative terms (default on)")
        if word:
            p.add_argument("--word", required=True, help='word to test; "" for the empty word')
        if couple:
            p.add_argument("--couple", required=True, help='couple symbol, e.g. "(b,c)" or "(a,~)"')

    def output(p):
        p.add_argument("--format", choices=("text", "dot"), default="text")
        p.add_argument("--out", help="write to a file instead of standard output")

    common(sub.add_parser("parse", help="parse and show metrics"))
    common(sub.add_parser("derive", help="one two-sided derivative step"), couple=True)
    p = sub.add_parser("dta", help="two-sided derived term automaton")
    common(p)
    output(p)
    p = sub.add_parser("effective", help="recognizer for a k = 0 completion")
    common(p)
    output(p)
    p = sub.add_parser("member", help="membership of a word")
    common(p, word=True)
    p.add_argument("--algo", choices=("dp", "naive"), default="dp",
                   help="dp = bit-parallel sweep, naive = the recursive reference algorithm")
    common(sub.add_parser("enum", help="enumerate the language up to --max-len"))
    p = sub.add_parser("grammar", help="convert between automata and linear grammars")
    common(p)
    p.add_argument("--nfa", help="read an automaton text file and emit its grammar")
    p.add_argument("--grammar", dest="grammar_file",
                   help="read a grammar text file and emit its automaton")
    output(p)
    common(sub.add_parser("verify-bounds", help="derived-term counts vs. theoretical bounds"))
    return top


def _registry(args) -> dict:
    if args.map_spec and args.map_file:
        raise ExprError("--map and --map-file are mutually exclusive")
    if args.map_spec:
        return {"H": parse_map(args.map_spec)}
    if args.map_file:
        with open(args.map_file, encoding="utf-8") as fh:
            return {"H": parse_map_file(fh.read())}
    return {}


def _expr(args, registry):
    if not args.expr:
        raise ExprError("--expr is required for this command")
    return parse(args.expr, registry)


def _couple(text: str):
    inner = text.strip()
    if inner.startswith("(") and inner.endswith(")"):
        inner = inner[1:-1]
    parts = [p.strip() for p in inner.split(",")]
    if len(parts) != 2:
        raise ExprError(f"bad couple {text!r}, expected \"(x,y)\"")
    x, y = ("" if p in ("~", "") else p for p in parts)
    if (x, y) == ("", ""):
        raise ExprError("the couple (~,~) is not a symbol")
    return (x, y)


def _automaton(e, registry, reduce: bool):
    """Route an expression to the construction that recognizes it."""
    if has_zero_k(e):
        if isinstance(e, Completion):
            return effective_automaton(e, registry, reduce)
        raise ExprError("k = 0 completions are supported only as the whole expression")
    return two_sided_dta(e, registry, reduce)


def _emit(text: str, args):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _automaton_text(a, args) -> str:
    if getattr(args, "format", "text") == "dot":
        return cnfa.to_dot(a)
    return cnfa.to_text(a)


def cmd_parse(args) -> int:
    registry = _registry(args)
    e = _expr(args, registry)
    ms = metrics(e)
    print(f"expr: {expr_str(e)}")
    print(f"kind: {'regex' if pure_regex_of(e) is not None else 'hairpin'}")
    print(f"width: {ms.n}")
    print(f"stars: {ms.h}")
    print(f"size: {ms.m}")
    print(f"index: {ms.index}")
    print(f"nullable: {'true' if nullable(e) else 'false'}")
    print("alphabet: " + " ".join(infer_alphabet(e, registry)))
    return 0


def cmd_derive(args) -> int:
    registry = _registry(args)
    e = _expr(args, registry)
    c = _couple(args.couple)
    for term in two_sided_pd(e, c, registry, args.reduce == "on"):
        print(expr_str(term))
    return 0


def cmd_dta(args) -> int:
    registry = _registry(args)
    e = _expr(args, registry)
    a = two_sided_dta(e, registry, args.reduce == "on")
    _emit(_automaton_text(a, args), args)
    return 0


def cmd_effective(args) -> int:
    registry = _registry(args)
    e = _expr(args, registry)
    a = effective_automaton(e, registry, args.reduce == "on")
    _emit(_automaton_text(a, args), args)
    return 0


def cmd_member(args) -> int:
    registry = _registry(args)
    e = _expr(args, registry)
    a = _automaton(e, registry, args.reduce == "on")
    test = cnfa.membership_test if args.algo == "naive" else cnfa.membership_dp
    verdict = test(a, args.word)
    print("true" if verdict else "false")
    return 0 if verdict else 1


def cmd_enum(args) -> int:
    registry = _registry(args)
    e = _expr(args, registry)
    a = _automaton(e, registry, args.reduce == "on")
    words = cnfa.enumerate_gamma_language(a, args.max_len)
    for w in sorted(words.words, key=lambda w: (len(w), w)):
        print(w or "~")
    return 0


def cmd_grammar(args) -> int:
    chosen = [opt for opt in (args.expr, args.nfa, args.grammar_file) if opt]
    if len(chosen) != 1:
        raise ExprError("give exactly one of --expr, --nfa, --grammar")
    if args.grammar_file:
        with open(args.grammar_file, encoding="utf-8") as fh:
            g = gram.from_text(fh.read())
        _emit(_automaton_text(gram.grammar_to_nfa(g), args), args)
        return 0
    if args.nfa:
        with open(args.nfa, encoding="utf-8") as fh:
            a = cnfa.from_text(fh.read())
    else:
        registry = _registry(args)
        e = _expr(args, registry)
        a = _automaton(e, registry, args.reduce == "on")
    _emit(gram.to_text(gram.nfa_to_grammar(a)), args)
    return 0


def cmd_verify_bounds(args) -> int:
    registry = _registry(args)
    e = _expr(args, registry)
    b = bounds(e)
    alphabet = infer_alphabet(e, registry)
    ok = True

    def report(name: str, actual: int, bound: int):
        nonlocal ok
        good = actual <= bound
        ok = ok and good
        print(f"{name}: {actual} <= {bound} {'ok' if good else 'VIOLATION'}")

    f = pure_regex_of(e)
    if f is not None:
        dl = derived_terms(f, "left", alphabet=alphabet, reduce=False)
        dr = derived_terms(f, "right", alphabet=alphabet, reduce=False)
        report("left derived terms", len(dl.terms), b.left_bound)
        report("right derived terms", len(dr.terms), b.right_bound)
    if has_zero_k(e):
        a = effective_automaton(e, registry, reduce=False)
        n = metrics(e).n
        report("effective automaton states", len(a.states), 2 * n + 1)
    else:
        dt = derived_terms(e, "two_sided", registry, alphabet, reduce=False)
        report("two-sided derived terms", len(dt.terms), b.two_sided_bound)
        a = two_sided_dta(e, registry, reduce=False)
        report("automaton states", len(a.states), b.state_bound)
    return 0 if ok else 1


_COMMANDS = {
    "parse": cmd_parse,
    "derive": cmd_derive,
    "dta": cmd_dta,
    "effective": cmd_effective,
    "member": cmd_member,
    "enum": cmd_enum,
    "grammar": cmd_grammar,
    "verify-bounds": cmd_verify_bounds,
}


def run(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (ExprError, OracleError, cnfa.AutomatonError, gram.GrammarError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:  # last resort: some layers still recurse per level
        print("error: input too deeply nested or too long", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
