"""Command-line front end.

Subcommands: parse, derive, dta, effective, member, enum, grammar,
verify-bounds. Each takes --expr (optional for grammar) and --map or
--map-file; all but parse and verify-bounds take --reduce, since
verify-bounds always counts without simplification; --max-len is enum's
alone; dta, effective and grammar take --format and --out. A flag that
a subcommand does not read is a usage error: grammar reads --format only
with --grammar and --reduce only with --expr. Exit status is 0 on
success, 1 when a membership query answers false or a bound check fails
(so shells can branch on it), and 2 on usage, parse, or I/O errors and
on input too large to process.
"""

from __future__ import annotations

import argparse
import sys

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

    def command(name, help, expr=True, reduce=True, output=False):
        p = sub.add_parser(name, help=help)
        p.add_argument("--expr", required=expr, help="expression text")
        p.add_argument("--map", dest="map_spec", help='anti-morphism, e.g. "a:a,b:c,c:b"')
        p.add_argument("--map-file", help="anti-morphism file, one 'x -> y' per line")
        if reduce:
            p.add_argument("--reduce", choices=("on", "off"), default="on",
                           help="canonicalize derivative terms (default on)")
        if output:
            p.add_argument("--format", choices=("text", "dot"), default="text")
            p.add_argument("--out", help="write to a file instead of standard output")
        return p

    command("parse", "parse and show metrics", reduce=False)
    command("derive", "one two-sided derivative step").add_argument(
        "--couple", required=True, help='couple symbol, e.g. "(b,c)" or "(a,~)"')
    command("dta", "two-sided derived term automaton", output=True)
    command("effective", "recognizer for a k = 0 completion", output=True)
    p = command("member", "membership of a word")
    p.add_argument("--word", required=True, help='word to test; "" for the empty word')
    p.add_argument("--algo", choices=("dp", "naive"), default="dp",
                   help="dp = bit-parallel sweep, naive = the recursive reference algorithm")
    command("enum", "enumerate the language up to --max-len").add_argument(
        "--max-len", type=int, default=8, help="enumeration bound (default 8)")
    p = command("grammar", "convert between automata and linear grammars",
                expr=False, output=True)
    p.add_argument("--nfa", help="read an automaton text file and emit its grammar")
    p.add_argument("--grammar", dest="grammar_file",
                   help="read a grammar text file and emit its automaton")
    p.set_defaults(format=None, reduce=None)  # so that cmd_grammar sees them given
    command("verify-bounds", "derived-term counts vs. theoretical bounds", reduce=False)
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


def _automaton(args, registry):
    """Parse --expr and route it to the construction that recognizes it."""
    e = parse(args.expr, registry)
    reduce = args.reduce != "off"
    if has_zero_k(e):
        if isinstance(e, Completion):
            return effective_automaton(e, registry, reduce)
        raise ExprError("k = 0 completions are supported only as the whole expression")
    return two_sided_dta(e, registry, reduce)


def _emit(text: str, args):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_automaton(a, args):
    _emit(cnfa.to_dot(a) if args.format == "dot" else cnfa.to_text(a), args)


def cmd_parse(args, registry) -> int:
    e = parse(args.expr, registry)
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


def cmd_derive(args, registry) -> int:
    e = parse(args.expr, registry)
    for term in two_sided_pd(e, _couple(args.couple), registry, args.reduce == "on"):
        print(expr_str(term))
    return 0


def cmd_build(args, registry, build) -> int:
    """dta and effective: print the automaton that build makes."""
    _emit_automaton(build(parse(args.expr, registry), registry, args.reduce == "on"), args)
    return 0


def cmd_member(args, registry) -> int:
    a = _automaton(args, registry)
    test = cnfa.membership_test if args.algo == "naive" else cnfa.membership_dp
    verdict = test(a, args.word)
    print("true" if verdict else "false")
    return 0 if verdict else 1


def cmd_enum(args, registry) -> int:
    words = cnfa.enumerate_gamma_language(_automaton(args, registry), args.max_len)
    for w in sorted(words.words, key=lambda w: (len(w), w)):
        print(w or "~")
    return 0


def cmd_grammar(args, registry) -> int:
    chosen = [opt for opt in (args.expr, args.nfa, args.grammar_file) if opt]
    if len(chosen) != 1:
        raise ExprError("give exactly one of --expr, --nfa, --grammar")
    if args.format and not args.grammar_file:
        raise ExprError("--format is read only with --grammar")
    if args.reduce and not args.expr:
        raise ExprError("--reduce is read only with --expr")
    if args.grammar_file:
        with open(args.grammar_file, encoding="utf-8") as fh:
            g = gram.from_text(fh.read())
        _emit_automaton(gram.grammar_to_nfa(g), args)
        return 0
    if args.nfa:
        with open(args.nfa, encoding="utf-8") as fh:
            a = cnfa.from_text(fh.read())
    else:
        a = _automaton(args, registry)
    _emit(gram.to_text(gram.nfa_to_grammar(a)), args)
    return 0


def cmd_verify_bounds(args, registry) -> int:
    e = parse(args.expr, registry)
    b = bounds(e)
    ok = True

    def report(name: str, actual: int, bound: int):
        nonlocal ok
        good = actual <= bound
        ok = ok and good
        print(f"{name}: {actual} <= {bound} {'ok' if good else 'VIOLATION'}")

    f = pure_regex_of(e)
    if f is not None:
        alphabet = infer_alphabet(e, registry)
        dl = derived_terms(f, "left", alphabet=alphabet, reduce=False)
        dr = derived_terms(f, "right", alphabet=alphabet, reduce=False)
        report("left derived terms", len(dl.terms), b.left_bound)
        report("right derived terms", len(dr.terms), b.right_bound)
    if has_zero_k(e):
        a = effective_automaton(e, registry, reduce=False)
        n = metrics(e).n
        report("effective automaton states", len(a.states), 2 * n + 1)
    else:
        a = two_sided_dta(e, registry, reduce=False)
        # The closure keeps a term only as the target of a step it records,
        # so the derived terms are exactly the distinct transition targets.
        report("two-sided derived terms", len({t for _, _, t in a.transitions}),
               b.two_sided_bound)
        report("automaton states", len(a.states), b.state_bound)
    return 0 if ok else 1


# The lambdas look their builder up when called, so a wrapped one is used.
_COMMANDS = {
    "parse": cmd_parse,
    "derive": cmd_derive,
    "dta": lambda args, registry: cmd_build(args, registry, two_sided_dta),
    "effective": lambda args, registry: cmd_build(args, registry, effective_automaton),
    "member": cmd_member,
    "enum": cmd_enum,
    "grammar": cmd_grammar,
    "verify-bounds": cmd_verify_bounds,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args, _registry(args))
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
