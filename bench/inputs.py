"""Seeded inputs for the benchmark workloads.

Every expression is written from a template together with the Python
``re`` pattern of its regular part, so the decider never goes through
``hairpinlang.expr``. The shape and size of an operation follow from its
index; the workload seed only picks letters and word contents.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import lru_cache

from decider import decide, image, preimage

MAPS = {
    "wc": "a:t,t:a,c:g,g:c",  # Watson-Crick
    "abc": "a:a,b:c,c:b",
    "oct": "a:b,b:a,c:d,d:c,e:f,f:e,g:h,h:g",
}


@lru_cache(maxsize=None)
def map_dict(spec: str) -> dict:
    """The letter map of a spec like "a:t,t:a"; shared, never mutated."""
    return dict(pair.split(":") for pair in spec.split(","))


@dataclass(frozen=True)
class Term:
    """One completion Op[k,H](F). ``family`` and ``parts`` tell the word
    sampler how words of F look:

    * ``motif``: parts = (alphabet, motif, tail), F = (Σ)* M (tail)*;
    * ``word``: parts = (word,), F = {word};
    * ``starsum``: parts = (piece, copies, last, final), F = (p+…+p+last)* final.
    """

    op: str
    k: int
    family: str
    parts: tuple

    @property
    def regex(self) -> str:
        if self.family == "motif":
            alphabet, motif, tail = self.parts
            return f"({'+'.join(alphabet)})*{motif}({'+'.join(tail)})*"
        if self.family == "word":
            return self.parts[0]
        piece, copies, last, final = self.parts
        return "(" + "+".join([piece] * copies + [last]) + f")*{final}"

    @property
    def pattern(self) -> str:
        if self.family == "motif":
            alphabet, motif, tail = self.parts
            return f"[{alphabet}]*{motif}[{tail}]*"
        if self.family == "word":
            return self.parts[0]
        # One branch per distinct word, and the piece never starts with
        # `last`: the branch is then fixed by the next letter, and `re`
        # cannot backtrack exponentially.
        piece, _copies, last, final = self.parts
        return f"(?:{piece}|{last})*{final}"

    @property
    def text(self) -> str:
        return f"{self.op}[{self.k},H]({self.regex})"


@dataclass(frozen=True)
class Spec:
    """A generated expression: a sum of completions under one map."""

    terms: tuple
    map_name: str

    @property
    def text(self) -> str:
        return "+".join(t.text for t in self.terms)

    @property
    def map_spec(self) -> str:
        return MAPS[self.map_name]

    @property
    def h(self) -> dict:
        return map_dict(MAPS[self.map_name])

    @property
    def alphabet(self) -> str:
        return "".join(sorted(self.h))

    @property
    def zero_k(self) -> bool:
        return len(self.terms) == 1 and self.terms[0].k == 0


def _word(rng: random.Random, letters: str, n: int) -> str:
    return "".join(rng.choice(letters) for _ in range(n))


def motif_term(rng, op: str, k: int, width: int, map_name: str) -> Term:
    """Op[k,H]((Σ)* M (x+H(x))*): the tail is one letter pair of the map,
    M a random motif with a letter outside the tail, so that M cannot
    occur inside the tail and one letter can push a word out of F."""
    alphabet = "".join(sorted(map_dict(MAPS[map_name])))
    tail = "".join(sorted({alphabet[0], map_dict(MAPS[map_name])[alphabet[0]]}))
    while True:
        motif = _word(rng, alphabet, width)
        if set(motif) - set(tail):
            return Term(op, k, "motif", (alphabet, motif, tail))


# ---------------------------------------------------------------------------
# Words of F, members and near-misses of a completion


def _sample_base(term: Term, rng, size: int, ell: int) -> str:
    """A word of F of roughly ``size`` letters. For the motif family the
    stem and α sit in the random prefix and H(β)·H(α) in the tail (Hr),
    or β in the prefix and H(β)·H(α) in the tail (Hl), so that forcing
    the stem keeps the word in F and the motif stays in the inner word."""
    if term.family == "motif":
        alphabet, motif, tail = term.parts
        k = term.k
        rest = max(size - len(motif), 0)
        if term.op == "Hl":
            tail_len = max(rest // 3, ell + k + 2)
            x_len = max(rest - tail_len, k + 1)
        else:
            tail_len = max(rest // 3, k)
            x_len = max(rest - tail_len, ell + k + 1)
        return _word(rng, alphabet, x_len) + motif + _word(rng, tail, tail_len)
    if term.family == "word":
        return term.parts[0]
    piece, _copies, last, final = term.parts
    out = []
    while sum(map(len, out)) < size - 1:
        out.append(rng.choice((piece, last)))
    return "".join(out) + final


def _complete(term: Term, h: dict, u: str, ell: int):
    """The completion word built from u ∈ F with |α| = ell, or None when
    the stem condition fails at that split."""
    k, m = term.k, len(u)
    if m < ell + 2 * k:
        return None
    if term.op == "Hr":
        return u + image(h, u[:ell]) if u[m - k:] == image(h, u[ell:ell + k]) else None
    if term.op == "Hl":
        ok = u[m - ell - k:m - ell] == image(h, u[:k])
        return preimage(h, u[m - ell:]) + u if ok else None
    return u if ell == 0 and u[m - k:] == image(h, u[:k]) else None


def _force_stem(term: Term, h: dict, u: str, ell: int) -> str:
    """u rewritten so that the stem condition holds at split ell."""
    k, m = term.k, len(u)
    if k == 0 or m < ell + 2 * k:
        return u
    if term.op == "Hr":
        return u[:ell] + preimage(h, u[m - k:]) + u[ell + k:]
    if term.op == "Hl":
        return preimage(h, u[m - ell - k:m - ell]) + u[k:]
    return preimage(h, u[m - k:]) + u[k:]


def _inner(term: Term, m: int, ell: int) -> range:
    """Positions of u strictly between α·β and H(β)·H(α) (or their left
    and prime counterparts): a mutation there keeps the ends matching."""
    k = term.k
    if term.op == "Hr":
        return range(ell + k, m - k)
    if term.op == "Hl":
        return range(k, m - ell - k)
    return range(k, m - k)


def member(term: Term, h: dict, rng, size: int, frac: float, tries: int = 200):
    """(u, ell, w): a member w = α·β·γ·H(β)·H(α) (or its left or prime
    variant) of about ``size`` letters, |α| close to frac·size."""
    rx = re.compile(term.pattern)
    for _ in range(tries):
        target = 0 if term.op == "Hp" else round(frac * size)
        u = _sample_base(term, rng, size - target, target)
        forced = _force_stem(term, h, u, target)
        if rx.fullmatch(forced) and _complete(term, h, forced, target) is not None:
            return forced, target, _complete(term, h, forced, target)
        splits = [0] if term.op == "Hp" else sorted(range(len(u) + 1), key=lambda e: abs(e - target))
        for ell in splits:
            w = _complete(term, h, u, ell)
            if w is not None:
                return u, ell, w
    raise RuntimeError(f"no member found for {term.text}")


def near_miss(spec: Spec, term: Term, rng, size: int, frac: float, where: float) -> str:
    """A member of ``term`` whose inner word u is mutated out of F at one
    letter near the fraction ``where`` of u, keeping α and the stem: the
    ends still match through α. Checked to be outside the whole sum."""
    h = spec.h
    rx = re.compile(term.pattern)
    letters = spec.alphabet
    for _ in range(50):
        u, ell, _w = member(term, h, rng, size, frac)
        m = len(u)
        centre = round(where * (m - 1))
        # A single-word F can leave no inner word; then mutate α itself,
        # whose mirror image is rebuilt, so the ends still match.
        positions = _inner(term, m, ell) or (range(ell) if term.op == "Hr" else range(m - ell, m))
        for p in sorted(positions, key=lambda p: abs(p - centre)):
            for c in rng.sample(letters, len(letters)):
                if c == u[p]:
                    continue
                u2 = u[:p] + c + u[p + 1:]
                if rx.fullmatch(u2):
                    continue
                w = _complete(term, h, u2, ell)
                if w is not None and not decide(spec, w):
                    return w
    raise RuntimeError(f"no near-miss found for {spec.text}")


# ---------------------------------------------------------------------------
# Workload plans


def _spread(lo: float, hi: float, i: int, n: int) -> float:
    """The i-th of n values spread evenly over [lo, hi]."""
    return lo + (hi - lo) * i / (n - 1) if n > 1 else lo


def rng_for(seed: int, *keys) -> random.Random:
    return random.Random("/".join(map(str, (seed,) + keys)))


# build: 25 shapes per round. Motif widths 4..16 under the Watson-Crick
# map, Hr/Hl/Hp with k = 1..3, plus k = 0 completions, the width family,
# the star-sum family, sums of two completions and an 8-letter map.
BUILD_MOTIF_WIDTHS = [round(_spread(4, 16, i, 12)) for i in range(12)]


def build_shape(slot: int):
    if slot < 12:
        op = ("Hr", "Hl", "Hp")[slot % 3]
        k = 1 + (slot // 3) % 3
        return ("motif", op, k, BUILD_MOTIF_WIDTHS[slot], "wc")
    slot -= 12
    if slot < 2:
        return ("motif", ("Hr", "Hl")[slot], 0, (8, 16)[slot], "wc")
    slot -= 2
    if slot < 4:
        return ("word", 10 + 3 * slot)
    slot -= 4
    if slot < 3:
        return ("starsum", 3 * (slot + 1))
    slot -= 3
    if slot < 2:
        return ("sum", (5, 8)[slot])
    slot -= 2
    return ("motif", "Hr", 1, (3, 5)[slot], "oct")


BUILD_SLOTS = 25


def _build_spec(shape, rng) -> Spec:
    kind = shape[0]
    if kind == "motif":
        _, op, k, width, map_name = shape
        return Spec((motif_term(rng, op, k, width, map_name),), map_name)
    if kind == "word":
        w = _word(rng, "abc", shape[1])
        return Spec((Term("Hr", 1, "word", (w + "bc",)),), "abc")
    if kind == "starsum":
        # random letters can empty the completion; draw until it has words
        while True:
            piece, last, final = _word(rng, "abc", 2), rng.choice("abc"), rng.choice("abc")
            if piece[0] == last:
                continue
            term = Term("Hr", 2, "starsum", (piece, shape[1], last, final))
            try:
                member(term, map_dict(MAPS["abc"]), random.Random(0), 12, 0.2, tries=20)
                return Spec((term,), "abc")
            except RuntimeError:
                pass
    width = shape[1]
    return Spec(
        (motif_term(rng, "Hr", 1, width, "wc"), motif_term(rng, "Hl", 2, width, "wc")), "wc"
    )


def unique_rounds(seed: int, workload: str, slots: int, make):
    """Yield rounds (lists of specs) forever; no expression text repeats
    within a run. ``make(slot, rng)`` draws one spec."""
    seen = set()
    r = 0
    while True:
        out = []
        for slot in range(slots):
            rng = rng_for(seed, workload, r, slot)
            for _ in range(1000):
                spec = make(slot, rng)
                if spec.text not in seen:
                    break
            else:
                raise RuntimeError(f"{workload} slot {slot}: no unused expression left")
            seen.add(spec.text)
            out.append(spec)
        yield out
        r += 1


def build_rounds(seed: int):
    return unique_rounds(seed, "build", BUILD_SLOTS, lambda s, rng: _build_spec(build_shape(s), rng))


def check_words(spec: Spec, rng, count: int = 2):
    """Short members and near-misses for checking a built automaton:
    (word, expected answer) pairs."""
    out = []
    for i in range(count):
        term = spec.terms[i % len(spec.terms)]
        size = 12 + 6 * i
        _u, _ell, w = member(term, spec.h, rng, size, 0.2)
        out.append((w, True))
        out.append((near_miss(spec, term, rng, size, 0.2, 0.8), False))
    return out


# member: four automata, built by every process during its set-up, and
# rounds of twelve words split over the processes. A third of the words
# are members and two thirds near-misses: near-misses explore every cell
# and their cost grows smoothly with length, so the median falls among
# them and not in the gap between cheap and dear answers.
MEMBER_SLOTS = 12
MEMBER_MIN, MEMBER_MAX = 150, 900


def member_specs():
    """An Hr and an Hl of the motif family, a sum of two completions and
    one k = 0 completion. The automata are the same for every seed: their
    size would otherwise move every operation of a run together, and the
    seed picks the words."""
    wc = ("acgt", "at")
    return [
        Spec((Term("Hr", 2, "motif", (wc[0], "gcta", wc[1])),), "wc"),
        Spec((Term("Hl", 2, "motif", (wc[0], "tgca", wc[1])),), "wc"),
        Spec((Term("Hr", 1, "motif", (wc[0], "cga", wc[1])),
              Term("Hl", 1, "motif", (wc[0], "agc", wc[1]))), "wc"),
        Spec((Term("Hr", 0, "motif", (wc[0], "ctag", wc[1])),), "wc"),
    ]


# (automaton, expected answer, length index) per slot; the twelve lengths
# are spread evenly over MEMBER_MIN..MEMBER_MAX. The sum's member gets the
# shortest word because its cost depends most on transition order.
MEMBER_PLAN = (
    (0, True, 5), (1, True, 3), (2, True, 0), (3, True, 10),
    (0, False, 8), (1, False, 1), (2, False, 6), (3, False, 11),
    (0, False, 4), (1, False, 9), (2, False, 2), (3, False, 7),
)


def member_shape(slot: int):
    """(automaton index, term index, expected answer, word length, |α|
    fraction) of a slot."""
    idx, truth, li = MEMBER_PLAN[slot]
    length = round(_spread(MEMBER_MIN, MEMBER_MAX, li, MEMBER_SLOTS))
    return idx, slot // 4 % 2, truth, length, 0.1 + 0.1 * (slot % 3)


def member_round(seed: int, proc: int, procs: int, r: int, specs):
    """The share of process ``proc`` in round r: [(automaton index, word,
    expected answer)]. The share rotates with r, so every slot runs under
    every PYTHONHASHSEED in turn."""
    out = []
    for slot in range(MEMBER_SLOTS):
        if slot % procs != (proc + r) % procs:
            continue
        idx, t, truth, length, frac = member_shape(slot)
        spec = specs[idx]
        term = spec.terms[t % len(spec.terms)]
        rng = rng_for(seed, "member", r, slot)
        if truth:
            w = member(term, spec.h, rng, length, frac)[2]
        else:
            w = near_miss(spec, term, rng, length, frac, 0.85)
        out.append((idx, w, truth))
    return out


# enum: six prebuilt automata, enumerated at eight (automaton, bound)
# pairs through both paths per round. The pairs put one operation at
# about 10, 20, 30, 45, 60, 105, 185 and 280 ms, so the operation times
# form one continuous spread. The automata are fixed: how many words a
# motif admits moves every enumeration of a run together, and says
# nothing about the program.
def enum_plan(proc: int):
    """[(spec, bounds)], one per automaton built during set-up. Only the
    star-sum's number of copies differs between processes."""
    return [
        (Spec((Term("Hr", 2, "starsum", ("ab", 2 + proc, "c", "b")),), "abc"), (16,)),
        (Spec((Term("Hr", 2, "motif", ("acgt", "gact", "at")),), "wc"), (7, 8)),
        (Spec((Term("Hl", 1, "motif", ("acgt", "cgt", "at")),), "wc"), (7, 8)),
        (Spec((Term("Hp", 1, "motif", ("abcdefgh", "ecg", "ab")),), "oct"), (5,)),
        (Spec((Term("Hl", 2, "motif", ("abc", "bca", "a")),), "abc"), (9,)),
        (Spec((Term("Hr", 1, "motif", ("abc", "cab", "a")),
               Term("Hp", 1, "motif", ("abc", "bcb", "a"))), "abc"), (10,)),
    ]


# cli: one invocation of each subcommand per round, on small inputs.
CLI_COMMANDS = ("parse", "derive", "dta", "effective", "member", "enum", "grammar", "verify-bounds")
CLI_ENUM_LEN = 6


def _cli_spec(slot: int, rng) -> Spec:
    cmd = CLI_COMMANDS[slot]
    if cmd == "effective":
        return Spec((motif_term(rng, ("Hr", "Hl")[slot % 2], 0, 5, "abc"),), "abc")
    op = ("Hr", "Hl", "Hp")[slot % 3]
    return Spec((motif_term(rng, op, 1 + slot % 2, 5, "abc"),), "abc")


def cli_rounds(seed: int):
    return unique_rounds(seed, "cli", len(CLI_COMMANDS), _cli_spec)
