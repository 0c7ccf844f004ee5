"""Couple NFAs: automata whose labels consume a symbol on each side.

A transition label is a couple (x, y), never (ε, ε); reading it wraps the
word generated by the rest of the run as x·w·y. The language of interest
is the image language: every accepted label sequence is flattened through
im() and the automaton stands for that set of plain words. Such automata
recognize exactly the linear context-free languages.

Membership is decided two ways: a faithful transcription of the recursive
algorithm (try every transition whose components match the ends of the
word), and an iterative bit-parallel sweep over the consumed length that
is polynomial. The sweep folds the couples of one (source, target, |x|,
|y|) move into one mask per level, built the first time a live state
needs it, so it costs O(|w|·moves) big-int operations. Both are exposed
so tests can attest they agree.

Bounded enumeration lists each state's words one length at a time, up
to a budget: the bound minus the fewest letters a run reads, from the
outside in, before it reaches that state. States no run reaches within
the bound list no words at all.
"""

from __future__ import annotations

import re
from collections.abc import Sequence

from .expr import Couple, Record
from .oracle import LangSet, check_max_len


class AutomatonError(ValueError):
    pass


class CoupleNfa(Record, labels=()):
    """An NFA over a couple alphabet.

    ``states`` are identifier strings in display order; ``labels`` may map
    an identifier to a human-readable label (constructions use the printed
    expression each state stands for). Transitions form a relation: triples
    (source, (x, y), target) with "" standing for ε on either side.
    """

    __slots__ = ("alphabet", "states", "initial", "final", "transitions", "labels")

    def __post_init__(self):
        declared = set(self.states)
        if len(declared) != len(self.states):
            raise AutomatonError("duplicate state identifier")
        for q in self.initial | self.final:
            if q not in declared:
                raise AutomatonError(f"undeclared state {q!r} in initial/final set")
        sigma = set(self.alphabet) | {""}
        for src, (x, y), dst in self.transitions:
            if src not in declared or dst not in declared:
                raise AutomatonError(f"transition endpoint {src!r}->{dst!r} undeclared")
            if x not in sigma or y not in sigma or (x, y) == ("", ""):
                raise AutomatonError(f"bad transition label ({x!r},{y!r})")
        for q, _ in self.labels:
            if q not in declared:
                raise AutomatonError(f"label for undeclared state {q!r}")

    def label(self, q: str) -> str:
        for state, text in self.labels:
            if state == q:
                return text
        return q


def im(word: Sequence[Couple]) -> str:
    """Flatten a couple-symbol sequence: im(ε) = ε and
    im((x,y)·w) = x·im(w)·y, so the left components read forward and the
    right components backward."""
    return "".join(x for x, _ in word) + "".join(y for _, y in reversed(word))


def is_in_right_language(a: CoupleNfa, w: str, q: str) -> bool:
    """Does state q generate w? Recursive: ε needs q final; otherwise some
    transition (q,(α,β),q') must supply a matching prefix α and suffix β,
    with q' generating the middle. Terminates since every label consumes
    at least one symbol."""
    if q not in a.states:
        raise AutomatonError(f"unknown state {q!r}")
    if w == "":
        return q in a.final
    for src, (x, y), dst in a.transitions:
        if src != q:
            continue
        if len(w) < len(x) + len(y):
            continue
        if not (w.startswith(x) and w.endswith(y)):
            continue
        if is_in_right_language(a, w[len(x) : len(w) - len(y)], dst):
            return True
    return False


def membership_test(a: CoupleNfa, w: str) -> bool:
    """Word in the image language? Disjunction of is_in_right_language
    over the initial states."""
    return any(is_in_right_language(a, w, q) for q in sorted(a.initial))


def membership_dp(a: CoupleNfa, w: str) -> bool:
    """Same answer as membership_test, by a sweep over the consumed length
    d = 0..|w|. At level d each live state holds a bitset of the offsets i
    it reaches with w[:i] and the last d-i letters read. The couples of one
    (source, target, |x|, |y|) move share a target level and a shift, so
    they fold into P[y] = OR of pos[x] per right component y. At level d,
    sh[y] = pos[y] >> (n-d-|y|) marks where y ends at |w|-d+i, and a move's
    mask OR_y(P[y] & sh[y]) is built the first time a live state needs it.
    A hit moves bit i to bit i+|x| of level d+|x|+|y|. Labels read letters,
    so transition order does not matter. O(|w|·moves) big-int operations on
    ⌈|w|/64⌉ words, O(|Q|·|w|) bits."""
    n = len(w)
    index = {q: i for i, q in enumerate(a.states)}
    # pos[s] has bit p set where s occurs at w[p:]; "" occurs everywhere
    labels = {s for _, couple, _ in a.transitions for s in couple}
    pos = {s: int("".join("1" if w.startswith(s, p) else "0" for p in range(n, -1, -1)), 2)
           for s in labels}
    # one move per (source, target, |x|, |y|): {index of y: OR of pos[x]}
    fold: dict[tuple[int, int, int, int], dict[int, int]] = {}
    ys: dict[str, int] = {}
    for src, (x, y), dst in a.transitions:
        ors = fold.setdefault((index[src], index[dst], len(x), len(y)), {})
        k = ys.setdefault(y, len(ys))
        ors[k] = ors.get(k, 0) | pos[x]
    top = max(map(len, ys), default=0)
    # padded by top bits, so that n-d-|y| < 0 still shifts right
    padded = [(pos[y] << top, n + top - len(y)) for y in ys]
    mask_ids: dict[tuple[tuple[int, int], ...], int] = {}
    moves: list[list[tuple[int, int, int, int]]] = [[] for _ in a.states]
    for (src, dst, lx, ly), ors in fold.items():
        k = mask_ids.setdefault(tuple(ors.items()), len(mask_ids))
        moves[src].append((k, lx, lx + ly, dst))
    mask_parts = list(mask_ids)
    span = 1 + max((lx + ly for _, _, lx, ly in fold), default=0)
    ring: list[dict[int, int]] = [{} for _ in range(span)]
    ring[0] = {index[q]: 1 for q in a.initial}
    for d in range(n):
        sh = [p >> (s - d) for p, s in padded]
        masks: list[int | None] = [None] * len(mask_parts)
        for q, reach in ring[d % span].items():
            for k, lx, grow, dst in moves[q]:
                mask = masks[k]
                if mask is None:
                    mask = 0
                    for y, p in mask_parts[k]:
                        mask |= p & sh[y]
                    masks[k] = mask
                hit = reach & mask
                if hit:
                    # if x and y overlap, d+grow > n; levels d+1..d+span-1
                    # have distinct slots, so that level's slot is none of
                    # d+1..n's and is never read
                    nxt = ring[(d + grow) % span]
                    nxt[dst] = nxt.get(dst, 0) | hit << lx
        ring[d % span] = {}
    return any(ring[n % span].get(index[q]) for q in a.final)


def enumerate_gamma_language(a: CoupleNfa, max_len: int) -> LangSet:
    """All image-language words of length at most max_len.

    Length-indexed dynamic programming: the words of length n generated by
    a state are built from strictly shorter words of the successor states
    (every label adds at least one symbol), so one pass per length is
    exact even when one-sided labels form cycles.

    Budgeted: depth[q] is the fewest letters a run from an initial state
    reads before it reaches q (shortest paths with weight |x|+|y|, states
    bucketed by length). A length-n word of q sits inside an initial
    state's word with at least depth[q] more letters, so q only lists
    n <= max_len - depth[q], and unreachable states list nothing. Since
    depth[dst] <= depth[q] + |x| + |y|, every entry read is one built."""
    check_max_len(max_len, AutomatonError)
    by_src: dict[str, list[tuple[str, str, str]]] = {q: [] for q in a.states}
    for src, (x, y), dst in a.transitions:
        by_src[src].append((x, y, dst))
    depth: dict[str, int] = {}
    buckets: list[set[str]] = [set(a.initial)] + [set() for _ in range(max_len)]
    for d, bucket in enumerate(buckets):
        for q in bucket - depth.keys():
            depth[q] = d
            for x, y, dst in by_src[q]:
                if d + len(x) + len(y) <= max_len:
                    buckets[d + len(x) + len(y)].add(dst)
    # gen[n][q] = words of length exactly n generated from q
    gen: list[dict[str, set[str]]] = []
    for n in range(max_len + 1):
        level: dict[str, set[str]] = {}
        for q, d in depth.items():
            if d + n > max_len:
                continue
            words = set()
            if n == 0:
                if q in a.final:
                    words.add("")
            else:
                for x, y, dst in by_src[q]:
                    grow = len(x) + len(y)
                    if grow > n:
                        continue
                    for mid in gen[n - grow][dst]:
                        words.add(x + mid + y)
            level[q] = words
        gen.append(level)
    out = set()
    for q in a.initial:
        for level in gen:
            out.update(level[q])
    return LangSet(frozenset(out), max_len)


# ---------------------------------------------------------------------------
# Serialization


_TOKEN = re.compile(r"(?:\\.|\S)+")


def _split(line: str) -> list[str]:
    """Split on whitespace, keeping backslash-escaped characters inside
    their token."""
    return _TOKEN.findall(line)


def _esc(text: str) -> str:
    return text.replace("\\", "\\\\").replace(" ", "\\ ")


def _unesc(text: str) -> str:
    return re.sub(r"\\(.)", r"\1", text, flags=re.S)


def to_text(a: CoupleNfa) -> str:
    """Line-oriented dump; from_text() reads it back. The alphabet line
    runs its symbols together, so every symbol must be one character."""
    for s in a.alphabet:
        if len(s) != 1:
            raise AutomatonError(f"symbol {s!r} is not one character, which the text format needs")
    names = dict(a.labels)
    lines = ["alphabet " + " ".join(a.alphabet)]
    for q in a.states:
        parts = ["state", _esc(q)]
        if q in a.initial:
            parts.append("initial")
        if q in a.final:
            parts.append("final")
        if names.get(q, q) != q:
            parts.append("label=" + _esc(names[q]))
        lines.append(" ".join(parts))
    for src, (x, y), dst in sorted(a.transitions):
        lines.append(f"trans {_esc(src)} {x or '~'} {y or '~'} {_esc(dst)}")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> CoupleNfa:
    alphabet: list[str] = []
    states: list[str] = []
    initial: set[str] = set()
    final: set[str] = set()
    transitions: set[tuple[str, Couple, str]] = set()
    labels: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = _split(line)
        kind = fields[0]
        if kind == "alphabet":
            for tok in fields[1:]:
                # a run-together token like "abc" means three symbols
                alphabet.extend(tok)
        elif kind == "state":
            if len(fields) < 2:
                raise AutomatonError(f"line {lineno}: state needs an identifier")
            q = _unesc(fields[1])
            states.append(q)
            for flag in fields[2:]:
                if flag == "initial":
                    initial.add(q)
                elif flag == "final":
                    final.add(q)
                elif flag.startswith("label="):
                    labels.append((q, _unesc(flag[len("label=") :])))
                else:
                    raise AutomatonError(f"line {lineno}: unknown flag {flag!r}")
        elif kind == "trans":
            if len(fields) != 5:
                raise AutomatonError(f"line {lineno}: trans needs src x y dst")
            _, src, x, y, dst = fields
            transitions.add((
                _unesc(src),
                (("" if x == "~" else x), ("" if y == "~" else y)),
                _unesc(dst),
            ))
        else:
            raise AutomatonError(f"line {lineno}: unknown directive {kind!r}")
    return CoupleNfa(
        tuple(alphabet),
        tuple(states),
        frozenset(initial),
        frozenset(final),
        frozenset(transitions),
        tuple(labels),
    )


def _gvquote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(a: CoupleNfa) -> str:
    """GraphViz rendering: double circles for finals, a point-shaped
    arrow source per initial state, ε printed as ~."""
    ids = {q: f"n{i}" for i, q in enumerate(a.states)}
    names = dict(a.labels)
    lines = ["digraph couple_nfa {", "  rankdir=LR;"]
    for i, q in enumerate(sorted(a.initial)):
        lines.append(f"  __start{i} [shape=point, label=\"\"];")
    for q in a.states:
        shape = "doublecircle" if q in a.final else "circle"
        lines.append(f"  {ids[q]} [shape={shape}, label={_gvquote(names.get(q, q))}];")
    for i, q in enumerate(sorted(a.initial)):
        lines.append(f"  __start{i} -> {ids[q]};")
    for src, (x, y), dst in sorted(a.transitions):
        lab = f"({x or '~'},{y or '~'})"
        lines.append(f"  {ids[src]} -> {ids[dst]} [label={_gvquote(lab)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
