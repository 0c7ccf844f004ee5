"""Regular and hairpin expression ASTs, anti-morphisms, parsing and printing.

Expressions come in two layers. The regular layer is the classic six-way
AST (empty set, empty word, symbol, sum, concatenation, star). The hairpin
layer wraps regular expressions in completion operators:

* ``Hr[k,H](F)`` extends words of F on the right when they end in a
  k-symbol stem image,
* ``Hl[k,H](F)`` mirrors that on the left,
* ``Hp[k,H](F)`` filters F down to the words that already carry a
  k-symbol stem (no extension),

and sums of hairpin expressions. Each operator names an anti-morphism,
resolved against a registry, so several maps can coexist in one session.

The three operators are one family: ``Completion(k, h, inner)`` holds the
fields and checks, and ``HRight``/``HLeft``/``HPrime`` only set constants
(printed name, the side ``mode`` a completion extends, least k, sort rank),
so other layers read ``mode`` instead of testing classes. What an
expression contains (symbols, map names, k, metrics) is read off one
iterative walk over both layers.

Concrete syntax (whitespace between tokens is ignored)::

    expr    := term ('+' term)*
    term    := hairpin | cat
    hairpin := ('Hr'|'Hl'|'Hp') '[' integer ',' name ']' '(' cat ')'
    cat     := factor+
    factor  := base '*'*
    base    := symbol | '%e' | '%0' | '(' expr ')'

Symbols are single ASCII letters or digits; '%e' is the empty word, '%0'
the empty set. Concatenation and '+' are left-associative; '*' binds
tightest.

Every value class of the package is a ``Record``: immutable, its fields
named in ``__slots__`` (private slots start with ``_``). ``exec`` writes
each subclass its own ``__init__`` (positional or keyword, defaults as
class keywords, then ``__post_init__``), ``__eq__`` (same class, equal
fields) and ``__hash__`` (of the field tuple, as a frozen dataclass), so no
hot method loops over fields and no import of ``dataclasses`` is paid.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Mapping


class ExprError(ValueError):
    """Malformed expression, anti-morphism, or operator misuse."""


class ParseError(ExprError):
    """Syntax error; carries the 0-based position in the input text."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"at position {pos}: {message}")
        self.pos = pos


class Record:
    """Base of the immutable value classes (see the module docstring).
    Copies and pickles are rebuilt through the constructor."""

    __slots__ = ()

    def __init_subclass__(cls, **defaults):
        own = tuple(f for f in cls.__dict__.get("__slots__", ()) if not f.startswith("_"))
        cls._fields = fields = getattr(cls, "_fields", ()) + own
        params = "".join(f", {f}=_d_{f}" if f in defaults else f", {f}" for f in fields)
        body = "".join(f"\n    _set(self, {f!r}, {f})" for f in fields)
        body += "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
        mine, theirs = ("".join(f"{x}.{f}," for f in fields) for x in ("self", "other"))
        ns = {"_set": object.__setattr__, **{f"_d_{f}": v for f, v in defaults.items()}}
        exec(f"def __init__(self{params}):{body or ' pass'}\n"
             f"def __eq__(self, other):\n    return ({mine}) == ({theirs}) "
             "if other.__class__ is self.__class__ else NotImplemented\n"
             f"def __hash__(self):\n    return hash(({mine}))\n", ns)
        cls.__init__, cls.__eq__, cls.__hash__ = ns["__init__"], ns["__eq__"], ns["__hash__"]

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


# ---------------------------------------------------------------------------
# Anti-morphisms


class AntiMorphism(Record):
    """A named total symbol map on a finite alphabet, applied to words in
    reverse: the image of a word maps every symbol and flips the order, so
    images of concatenations swap sides.

    The map's domain is the alphabet; its image must stay inside the
    domain. Involutivity (applying twice is the identity) is a checkable
    property, not a requirement.
    """

    __slots__ = ("name", "table", "_map")

    def __post_init__(self):
        mapping = dict(self.table)
        if not mapping:
            raise ExprError(f"anti-morphism {self.name!r} has an empty table")
        if len(mapping) != len(self.table):
            raise ExprError(f"anti-morphism {self.name!r} maps a symbol twice")
        for src, dst in self.table:
            if len(src) != 1 or not src.isalnum():
                raise ExprError(f"bad symbol {src!r} in anti-morphism {self.name!r}")
            if dst not in mapping:
                raise ExprError(
                    f"anti-morphism {self.name!r} maps {src!r} to {dst!r}, "
                    "which is outside its own alphabet"
                )
        object.__setattr__(self, "_map", mapping)

    @classmethod
    def from_mapping(cls, name: str, mapping: Mapping[str, str]) -> AntiMorphism:
        return cls(name, tuple(sorted(mapping.items())))

    @property
    def alphabet(self) -> tuple[str, ...]:
        return tuple(sorted(self._map))

    @property
    def is_involution(self) -> bool:
        return all(self._map[dst] == src for src, dst in self.table)

    def image(self, symbol: str) -> str:
        try:
            return self._map[symbol]
        except KeyError:
            raise ExprError(
                f"symbol {symbol!r} is outside the alphabet of anti-morphism "
                f"{self.name!r}"
            ) from None

    def preimages(self, symbol: str) -> tuple[str, ...]:
        """All domain symbols mapping onto ``symbol`` (empty if none)."""
        return tuple(src for src, dst in self.table if dst == symbol)

    def word(self, w: str) -> str:
        """Image of a word: symbol-wise map, then reverse."""
        return "".join(self.image(c) for c in reversed(w))


def h_word(h: AntiMorphism, w: str) -> str:
    """Apply the anti-morphism ``h`` to the word ``w``."""
    return h.word(w)


def parse_map(spec: str, name: str = "H") -> AntiMorphism:
    """Parse an inline map like ``"a:a,b:c,c:b"``."""
    pairs = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if chunk.count(":") != 1:
            raise ExprError(f"bad map entry {chunk!r}, expected 'x:y'")
        src, dst = (part.strip() for part in chunk.split(":"))
        pairs.append((src, dst))
    return AntiMorphism(name, tuple(pairs))


def parse_map_file(text: str, name: str = "H") -> AntiMorphism:
    """Parse a map file: one ``x -> y`` per line, ``#`` starts a comment."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split("->")
        if len(parts) != 2:
            raise ExprError(f"map file line {lineno}: expected 'x -> y', got {raw!r}")
        pairs.append((parts[0].strip(), parts[1].strip()))
    return AntiMorphism(name, tuple(pairs))


# Type aliases are strings: annotations are never evaluated at run time.
Registry = "Mapping[str, AntiMorphism]"

# A couple symbol (x, y) with "" standing for the empty word on either side;
# ("", "") is excluded from every couple alphabet.
Couple = "tuple[str, str]"


def all_couples(alphabet: tuple[str, ...]) -> tuple[Couple, ...]:
    """The couple alphabet over ``alphabet``, in (left, right) lexicographic
    order with the empty component ordered last on each side."""
    parts = list(alphabet) + [""]
    return tuple(
        (x, y) for x in parts for y in parts if (x, y) != ("", "")
    )


# ---------------------------------------------------------------------------
# Regular expression AST


class Empty(Record):
    __slots__ = ()


class Epsilon(Record):
    __slots__ = ()


class Sym(Record):
    __slots__ = ("ch",)

    def __post_init__(self):
        if len(self.ch) != 1 or not self.ch.isalnum():
            raise ExprError(f"bad symbol {self.ch!r}")


class Sum(Record):
    __slots__ = ("left", "right")


class Concat(Record):
    __slots__ = ("left", "right")


class Star(Record):
    __slots__ = ("inner",)


RegexAst = "Empty | Epsilon | Sym | Sum | Concat | Star"

EMPTY = Empty()
EPSILON = Epsilon()

_REGEX_TYPES = (Empty, Epsilon, Sym, Sum, Concat, Star)


# ---------------------------------------------------------------------------
# Hairpin expression AST


def _check_regex(node, ctx: str):
    if not isinstance(node, _REGEX_TYPES):
        raise ExprError(f"{ctx} requires a regular expression, got {type(node).__name__}")


class Reg(Record):
    __slots__ = ("re",)

    def __post_init__(self):
        _check_regex(self.re, "Reg")


class Completion(Record):
    """A completion operator: stem length k, anti-morphism name h and the
    regex it completes. Subclasses set only the class constants ``op``,
    ``mode``, ``min_k`` and ``rank``."""

    __slots__ = ("k", "h", "inner")

    def __post_init__(self):
        if self.k < self.min_k:
            raise ExprError(f"{type(self).__name__} requires k >= {self.min_k}")
        _check_regex(self.inner, type(self).__name__)


class HRight(Completion):
    __slots__ = ()
    op, mode, min_k, rank = "Hr", "right", 0, 1


class HLeft(Completion):
    __slots__ = ()
    op, mode, min_k, rank = "Hl", "left", 0, 2


class HPrime(Completion):
    __slots__ = ()
    op, mode, min_k, rank = "Hp", "prime", 1, 3


class HSum(Record):
    __slots__ = ("left", "right")

    def __post_init__(self):
        for side in (self.left, self.right):
            if not isinstance(side, _HAIRPIN_TYPES):
                raise ExprError(f"HSum requires hairpin expressions, got {type(side).__name__}")


HairpinExpr = "Reg | Completion | HSum"

_HAIRPIN_TYPES = (Reg, Completion, HSum)


def as_hairpin(e) -> HairpinExpr:
    """Lift a bare regex AST into the hairpin layer; pass hairpin nodes through."""
    if isinstance(e, _REGEX_TYPES):
        return Reg(e)
    if isinstance(e, _HAIRPIN_TYPES):
        return e
    raise ExprError(f"not an expression: {e!r}")


def pure_regex_of(e) -> RegexAst | None:
    """The underlying regex if ``e`` has no hairpin operator, else None."""
    if isinstance(e, _REGEX_TYPES):
        return e
    if isinstance(e, Reg):
        return e.re
    return None


def _nodes(e) -> Iterator:
    """Every node of ``e``, hairpin and regex layers alike, walked with an
    explicit stack so that depth costs no Python frames."""
    stack = [e if isinstance(e, _REGEX_TYPES) else as_hairpin(e)]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (Sum, Concat, HSum)):
            stack += (node.right, node.left)
        elif isinstance(node, (Star, Completion)):
            stack.append(node.inner)
        elif isinstance(node, Reg):
            stack.append(node.re)


def has_zero_k(e) -> bool:
    """True if any completion operator in ``e`` has k = 0 (routes the
    expression to the effective-automaton pipeline)."""
    return any(isinstance(n, Completion) and n.k == 0 for n in _nodes(e))


def hairpin_names(e) -> frozenset[str]:
    """Anti-morphism names referenced by ``e``."""
    return frozenset(n.h for n in _nodes(e) if isinstance(n, Completion))


def symbols_of(e) -> frozenset[str]:
    """Symbols occurring in ``e`` (regex or hairpin expression)."""
    return frozenset(n.ch for n in _nodes(e) if isinstance(n, Sym))


def infer_alphabet(e, registry: Registry | None = None) -> tuple[str, ...]:
    """Working alphabet for ``e``: its symbols plus the domains of every
    anti-morphism it references."""
    syms = set(symbols_of(e))
    if registry:
        for name in hairpin_names(e):
            if name in registry:
                syms.update(registry[name].alphabet)
    return tuple(sorted(syms))


# ---------------------------------------------------------------------------
# Total order on expressions (the dedup/sort key used everywhere downstream)


def regex_key(r: RegexAst):
    if isinstance(r, Empty):
        return (0,)
    if isinstance(r, Epsilon):
        return (1,)
    if isinstance(r, Sym):
        return (2, r.ch)
    if isinstance(r, Sum):
        return (3, regex_key(r.left), regex_key(r.right))
    if isinstance(r, Concat):
        return (4, regex_key(r.left), regex_key(r.right))
    if isinstance(r, Star):
        return (5, regex_key(r.inner))
    raise ExprError(f"not a regex: {r!r}")


def expr_key(e: HairpinExpr):
    e = as_hairpin(e)
    if isinstance(e, Reg):
        return (0, regex_key(e.re))
    if isinstance(e, Completion):
        return (e.rank, e.k, e.h, regex_key(e.inner))
    return (4, expr_key(e.left), expr_key(e.right))


# ---------------------------------------------------------------------------
# Nullability, metrics, canonicalization


def nullable(e) -> bool:
    """True iff the empty word belongs to the denoted language, decided
    structurally. Completion operators with k >= 1 (and every Hp) are never
    nullable; k = 0 completions are nullable exactly when the inner regex is.
    """
    if isinstance(e, _REGEX_TYPES):
        if isinstance(e, (Empty, Sym)):
            return False
        if isinstance(e, (Epsilon, Star)):
            return True
        if isinstance(e, Sum):
            return nullable(e.left) or nullable(e.right)
        return nullable(e.left) and nullable(e.right)
    e = as_hairpin(e)
    if isinstance(e, Reg):
        return nullable(e.re)
    if isinstance(e, HSum):
        return nullable(e.left) or nullable(e.right)
    return e.k == 0 and nullable(e.inner)


class ExprMetrics(Record):
    __slots__ = ("n", "h", "m", "index")


def metrics(e) -> ExprMetrics:
    """Width (symbol occurrences), star count, their sum, and the maximal
    completion depth k appearing in ``e`` (0 for a pure regex)."""
    n = h = index = 0
    for node in _nodes(e):
        if isinstance(node, Sym):
            n += 1
        elif isinstance(node, Star):
            h += 1
        elif isinstance(node, Completion):
            index = max(index, node.k)
    return ExprMetrics(n, h, n + h, index)


def _canon_regex(r: RegexAst) -> RegexAst:
    if isinstance(r, Sum):
        left = _canon_regex(r.left)
        right = _canon_regex(r.right)
        if isinstance(left, Empty):
            return right
        if isinstance(right, Empty):
            return left
        return Sum(left, right)
    if isinstance(r, Concat):
        left = _canon_regex(r.left)
        right = _canon_regex(r.right)
        if isinstance(left, Empty) or isinstance(right, Empty):
            return EMPTY
        if isinstance(left, Epsilon):
            return right
        if isinstance(right, Epsilon):
            return left
        return Concat(left, right)
    if isinstance(r, Star):
        return Star(_canon_regex(r.inner))
    return r


def canonicalize(e, mode: str = "reduced"):
    """Rewrite to the fixpoint of the unit/absorption rules (eps.E -> E,
    E.eps -> E, 0.E -> 0, E.0 -> 0, 0+E -> E, E+0 -> E) applied bottom-up
    in the regex parts; ``mode="raw"`` is the identity. The input's layer
    (bare regex vs hairpin) is preserved.
    """
    if mode == "raw":
        return e
    if mode != "reduced":
        raise ExprError(f"unknown canonicalize mode {mode!r}")
    if isinstance(e, _REGEX_TYPES):
        return _canon_regex(e)
    e2 = as_hairpin(e)
    if isinstance(e2, Reg):
        return Reg(_canon_regex(e2.re))
    if isinstance(e2, HSum):
        return HSum(canonicalize(e2.left), canonicalize(e2.right))
    return type(e2)(e2.k, e2.h, _canon_regex(e2.inner))


# ---------------------------------------------------------------------------
# Printing


def regex_str(r: RegexAst) -> str:
    return _print_regex(r, 0)


def _print_regex(r: RegexAst, ctx: int) -> str:
    # ctx 0: sum position, 1: concatenation item, 2: star base
    if isinstance(r, Empty):
        return "%0"
    if isinstance(r, Epsilon):
        return "%e"
    if isinstance(r, Sym):
        return r.ch
    if isinstance(r, Star):
        return _print_regex(r.inner, 2) + "*"
    if isinstance(r, Concat):
        s = _print_regex(r.left, 1) + _print_regex(r.right, 2)
        return f"({s})" if ctx > 1 else s
    s = _print_regex(r.left, 0) + "+" + _print_regex(r.right, 1)
    return f"({s})" if ctx > 0 else s


def expr_str(e) -> str:
    """Printed form; reparsing a printed parser output yields the same AST."""
    if isinstance(e, _REGEX_TYPES):
        return regex_str(e)
    e = as_hairpin(e)
    if isinstance(e, Reg):
        return regex_str(e.re)
    if isinstance(e, HSum):
        left = expr_str(e.left)
        right = expr_str(e.right)
        if isinstance(e.right, HSum) or (
            isinstance(e.right, Reg) and isinstance(e.right.re, Sum)
        ):
            right = f"({right})"
        return f"{left}+{right}"
    arg = regex_str(e.inner)
    if isinstance(e.inner, Sum):
        arg = f"({arg})"
    return f"{e.op}[{e.k},{e.h}]({arg})"


# ---------------------------------------------------------------------------
# Parsing


_HAIRPIN_OPS = {op.op: op for op in (HRight, HLeft, HPrime)}


class _Parser:
    def __init__(self, text: str, registry: Registry | None):
        self.text = text
        self.pos = 0
        self.registry = registry or {}

    def fail(self, message: str, pos: int | None = None):
        raise ParseError(message, self.pos if pos is None else pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            got = self.peek() or "end of input"
            self.fail(f"expected {ch!r}, got {got!r}")
        self.pos += 1

    def at_hairpin(self) -> bool:
        self.skip_ws()
        return self.text[self.pos : self.pos + 3] in ("Hr[", "Hl[", "Hp[")

    def at_factor(self) -> bool:
        c = self.peek()
        return bool(c) and (c.isalnum() or c in "%(")

    def parse(self) -> HairpinExpr:
        e = self.expr()
        if self.peek():
            self.fail(f"unexpected character {self.peek()!r}")
        return e

    def expr(self) -> HairpinExpr:
        acc = self.term()
        while self.peek() == "+":
            self.pos += 1
            acc = self._plus(acc, self.term())
        return acc

    @staticmethod
    def _plus(a: HairpinExpr, b: HairpinExpr) -> HairpinExpr:
        if isinstance(a, Reg) and isinstance(b, Reg):
            return Reg(Sum(a.re, b.re))
        return HSum(a, b)

    def term(self) -> HairpinExpr:
        if self.at_hairpin():
            return self.hairpin()
        return self.cat()

    def hairpin(self) -> HairpinExpr:
        op_pos = self.pos
        op = _HAIRPIN_OPS[self.text[self.pos : self.pos + 2]]
        self.pos += 2
        self.expect("[")
        k_pos = self.pos
        k = self.integer()
        self.expect(",")
        name = self.ident()
        self.expect("]")
        self.expect("(")
        arg_pos = self.pos
        arg = self.cat()
        self.expect(")")
        if not isinstance(arg, Reg):
            self.fail("hairpin operator applied to a non-regular subexpression", arg_pos)
        if k < op.min_k:
            self.fail(f"{op.__name__} requires k >= {op.min_k}", k_pos)
        if name not in self.registry:
            self.fail(f"unknown anti-morphism name {name!r}", op_pos)
        h = self.registry[name]
        outside = sorted(symbols_of(arg.re) - set(h.alphabet))
        if outside:
            self.fail(
                f"symbol {outside[0]!r} is outside the alphabet of anti-morphism {name!r}",
                arg_pos,
            )
        return op(k, name, arg.re)

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.fail("expected an integer")
        return int(self.text[start : self.pos])

    def ident(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if self.pos == start:
            self.fail("expected an anti-morphism name")
        return self.text[start : self.pos]

    def cat(self) -> HairpinExpr:
        factors = [self.factor()]
        while self.at_factor():
            factors.append(self.factor())
        if len(factors) == 1:
            return factors[0]
        for f in factors:
            if not isinstance(f, Reg):
                self.fail("hairpin sub-expressions cannot be concatenated")
        acc = factors[0].re
        for f in factors[1:]:
            acc = Concat(acc, f.re)
        return Reg(acc)

    def factor(self) -> HairpinExpr:
        node = self.base()
        while self.peek() == "*":
            if not isinstance(node, Reg):
                self.fail("'*' applies to regular expressions only")
            self.pos += 1
            node = Reg(Star(node.re))
        return node

    def base(self) -> HairpinExpr:
        c = self.peek()
        if c == "%":
            self.pos += 1
            tag = self.text[self.pos : self.pos + 1]
            if tag == "e":
                self.pos += 1
                return Reg(EPSILON)
            if tag == "0":
                self.pos += 1
                return Reg(EMPTY)
            self.fail("expected 'e' or '0' after '%'")
        if c == "(":
            self.pos += 1
            e = self.expr()
            self.expect(")")
            return e
        if c.isalnum():
            self.pos += 1
            return Reg(Sym(c))
        got = c or "end of input"
        self.fail(f"unexpected {got!r}")


def parse(text: str, registry: Registry | None = None) -> HairpinExpr:
    """Parse the concrete syntax into a hairpin expression.

    Pure regexes come back as ``Reg`` nodes. Every hairpin operator's name
    must resolve in ``registry`` and its argument's symbols must lie in that
    map's alphabet.
    """
    return _Parser(text, registry).parse()


def iter_words(alphabet: tuple[str, ...], max_len: int) -> Iterator[str]:
    """All words over ``alphabet`` of length 0..max_len, shortest first."""
    for length in range(max_len + 1):
        for tup in itertools.product(alphabet, repeat=length):
            yield "".join(tup)
