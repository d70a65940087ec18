"""Propositional formulas over the monoidal t-norm signature.

AST nodes cover the primitive connectives (strong conjunction &, lattice
conjunction /\\, implication ->, falsum 0) together with the derived ones
(negation ~, lattice disjunction \\/, equivalence <->, verum 1), the unary
projection D and integer powers.

Concrete syntax (loosest to tightest binding):

    formula := iff
    iff     := imp ("<->" imp)*          left associative
    imp     := or ["->" imp]             right associative
    or      := and ("\\/" and)*
    and     := strong ("/\\" strong)*
    strong  := unary ("&" unary)*
    unary   := ("~" | "D") unary | postfix
    postfix := atom ["^" nat]
    atom    := ident | "0" | "1" | "(" formula ")"

Identifiers match [A-Za-z_][A-Za-z0-9_]* with "D" reserved for the
projection operator.  The Unicode aliases ¬ ∧ ∨ → ↔ Δ ⊥ ⊤ are accepted on
input but never produced by the printer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Formula:
    """Base class for AST nodes; instances are immutable and hashable."""

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True)
class Var(Formula):
    name: str


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Strong(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Min(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Imp(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Neg(Formula):
    arg: Formula


@dataclass(frozen=True)
class Or(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Iff(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Delta(Formula):
    arg: Formula


@dataclass(frozen=True)
class Power(Formula):
    arg: Formula
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"power exponent must be >= 0, got {self.n}")


class ParseError(ValueError):
    """Syntax error carrying the offending position and the expected tokens."""

    def __init__(self, message: str, pos: int, expected: set[str] | None = None):
        self.pos = pos
        self.expected = frozenset(expected or ())
        if self.expected:
            message += " (expected one of: %s)" % ", ".join(sorted(self.expected))
        super().__init__(f"{message} at position {pos}")


_ALIASES = {
    "¬": "~", "∧": "/\\", "∨": "\\/", "→": "->", "↔": "<->",
    "Δ": "D", "⊥": "0", "⊤": "1",
}

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<iff><->)
      | (?P<imp>->)
      | (?P<or>\\/)
      | (?P<and>/\\)
      | (?P<num>\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct>[&~^()])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Lex into (kind, text, position) triples; kind is one of
    iff/imp/or/and/num/ident/delta/&/~/^/(/)."""
    for alias, ascii_form in _ALIASES.items():
        text = text.replace(alias, " %s " % ascii_form)
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        val = m.group()
        if kind == "punct":
            kind = val
        elif kind == "ident" and val == "D":
            kind = "delta"
        tokens.append((kind, val, m.start()))
    return tokens


class _Parser:
    """Recursive-descent parser following the module grammar."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def here(self) -> int:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][2]
        return len(self.text)

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: set[str]):
        kind = self.peek()
        what = "end of input" if kind is None else f"{self.tokens[self.pos][1]!r}"
        raise ParseError(f"unexpected {what}", self.here(), expected)

    def expect(self, kind: str):
        if self.peek() != kind:
            self.fail({kind})
        return self.take()

    def formula(self) -> Formula:
        f = self.imp()
        while self.peek() == "iff":
            self.take()
            f = Iff(f, self.imp())
        return f

    def imp(self) -> Formula:
        f = self.disj()
        if self.peek() == "imp":
            self.take()
            return Imp(f, self.imp())
        return f

    def disj(self) -> Formula:
        f = self.conj()
        while self.peek() == "or":
            self.take()
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.strong()
        while self.peek() == "and":
            self.take()
            f = Min(f, self.strong())
        return f

    def strong(self) -> Formula:
        f = self.unary()
        while self.peek() == "&":
            self.take()
            f = Strong(f, self.unary())
        return f

    def unary(self) -> Formula:
        if self.peek() == "~":
            self.take()
            return Neg(self.unary())
        if self.peek() == "delta":
            self.take()
            return Delta(self.unary())
        return self.postfix()

    def postfix(self) -> Formula:
        f = self.atom()
        if self.peek() == "^":
            self.take()
            if self.peek() != "num":
                self.fail({"<nat>"})
            _, val, _ = self.take()
            f = Power(f, int(val))
        return f

    def atom(self) -> Formula:
        kind = self.peek()
        if kind == "ident":
            return Var(self.take()[1])
        if kind == "num":
            _, val, pos = self.take()
            if val == "0":
                return Bot()
            if val == "1":
                return Top()
            raise ParseError(f"numeral {val!r} is not a formula", pos, {"0", "1"})
        if kind == "(":
            self.take()
            f = self.formula()
            self.expect(")")
            return f
        self.fail({"<ident>", "0", "1", "(", "~", "D"})


def parse(text: str) -> Formula:
    """Parse concrete syntax into an AST; raises ParseError on bad input."""
    p = _Parser(text)
    f = p.formula()
    if p.peek() is not None:
        p.fail({"<end of input>"})
    return f


# binding strength used by the printer; tighter binds have larger values
_IFF, _IMP, _OR, _AND, _STRONG, _UNARY, _POSTFIX, _ATOM = range(8)

_LEVEL = {
    Iff: _IFF, Imp: _IMP, Or: _OR, Min: _AND, Strong: _STRONG,
    Neg: _UNARY, Delta: _UNARY, Power: _POSTFIX,
    Var: _ATOM, Bot: _ATOM, Top: _ATOM,
}

_BINARY = {Iff: "<->", Imp: "->", Or: "\\/", Min: "/\\", Strong: "&"}


def render(f: Formula) -> str:
    """Print to concrete syntax; parse(render(f)) is structurally f."""
    return _render(f, _IFF)


def _render(f: Formula, context: int) -> str:
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Bot):
        return "0"
    if isinstance(f, Top):
        return "1"
    level = _LEVEL[type(f)]
    if isinstance(f, (Neg, Delta)):
        arg = f.arg
        if isinstance(arg, (Var, Bot, Top, Neg, Delta)):
            inner = _render(arg, _UNARY)
            # "D" would fuse with a following identifier into one token
            s = ("D " if isinstance(f, Delta) else "~") + inner
        else:
            s = ("D" if isinstance(f, Delta) else "~") + "(" + _render(arg, _IFF) + ")"
    elif isinstance(f, Power):
        base = f.arg
        if isinstance(base, (Var, Bot, Top)):
            s = f"{_render(base, _ATOM)}^{f.n}"
        else:
            s = f"({_render(base, _IFF)})^{f.n}"
    else:
        op = _BINARY[type(f)]
        if isinstance(f, Imp):
            # right associative: the left argument must sit one level down
            s = f"{_render(f.lhs, _OR)} {op} {_render(f.rhs, _IMP)}"
        else:
            s = f"{_render(f.lhs, level)} {op} {_render(f.rhs, level + 1)}"
    if level < context:
        return "(" + s + ")"
    return s


def variables(f: Formula) -> list[str]:
    """Variable names in first-occurrence order, without duplicates."""
    seen: dict[str, None] = {}

    def walk(g: Formula):
        if isinstance(g, Var):
            seen.setdefault(g.name)
        elif isinstance(g, (Neg, Delta)):
            walk(g.arg)
        elif isinstance(g, Power):
            walk(g.arg)
        elif isinstance(g, (Strong, Min, Imp, Or, Iff)):
            walk(g.lhs)
            walk(g.rhs)

    walk(f)
    return list(seen)


@dataclass(frozen=True)
class Compiled:
    """A formula as a hash-consed node array in post-order.

    Each node is a triple (op, a, b).  op is one of the primitives "var",
    "0", "1", "&", "/\\", "\\/", "->", "~" and "D"; for "var", a indexes
    names, otherwise a and b index earlier nodes (0 where unused).  Equal
    subformulas share one node, and the root is the last node.
    """

    names: tuple[str, ...]
    nodes: tuple[tuple[str, int, int], ...]


_PRIMITIVE = {**_BINARY, Neg: "~", Delta: "D"}


def _children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, (Strong, Min, Imp, Or, Iff)):
        return (f.lhs, f.rhs)
    if isinstance(f, (Neg, Delta, Power)):
        return (f.arg,)
    if isinstance(f, (Var, Bot, Top)):
        return ()
    raise TypeError(f"not a formula: {f!r}")


def compile(f: Formula) -> Compiled:
    """Lower f to primitive nodes with an explicit stack (no recursion).

    a <-> b becomes (a -> b) & (b -> a) over the shared nodes of a and b,
    x^n becomes a product of n copies of x and x^0 becomes 1.  names
    lists the variables in first-occurrence order, as variables() does,
    including those that occur only under a zeroth power.
    """
    names: dict[str, int] = {}
    # (op, a, b) -> node id; insertion order is the node array
    ids: dict[tuple[str, int, int], int] = {}

    def node(op: str, a: int = 0, b: int = 0) -> int:
        return ids.setdefault((op, a, b), len(ids))

    done: list[int] = []  # node ids of the finished subformulas
    # ready: False on the way down, True once the children are done, None
    # under a zeroth power, where only the variable order is recorded
    stack: list[tuple[Formula, bool | None]] = [(f, False)]
    while stack:
        g, ready = stack.pop()
        if isinstance(g, Var):
            i = names.setdefault(g.name, len(names))
            if ready is not None:
                done.append(node("var", i))
        elif ready is None:
            stack.extend((c, None) for c in reversed(_children(g)))
        elif isinstance(g, Bot):
            done.append(node("0"))
        elif isinstance(g, Top):
            done.append(node("1"))
        elif isinstance(g, Power) and g.n == 0:
            done.append(node("1"))
            stack.append((g.arg, None))
        elif not ready:
            stack.append((g, True))
            stack.extend((c, False) for c in reversed(_children(g)))
        elif isinstance(g, Power):
            # by squaring: & is associative and commutative, and shared
            # squares keep x^n at O(log n) nodes
            x, n, acc = done.pop(), g.n, None
            while n:
                if n & 1:
                    acc = x if acc is None else node("&", acc, x)
                n >>= 1
                if n:
                    x = node("&", x, x)
            done.append(acc)
        elif isinstance(g, (Neg, Delta)):
            done.append(node(_PRIMITIVE[type(g)], done.pop()))
        else:
            b = done.pop()
            a = done.pop()
            if isinstance(g, Iff):
                done.append(node("&", node("->", a, b), node("->", b, a)))
            else:
                done.append(node(_PRIMITIVE[type(g)], a, b))
    return Compiled(tuple(names), tuple(ids))


def expand_derived(f: Formula) -> Formula:
    """Rewrite to the primitive fragment {Var, Bot, Strong, Min, Imp}.

    Negation becomes arg -> 0, verum becomes 0 -> 0, disjunction becomes
    ((a -> b) -> b) /\\ ((b -> a) -> a), equivalence becomes
    (a -> b) & (b -> a) and powers unfold into repeated strong conjunction.
    The projection D has no abbreviation here and is rejected.
    """
    if isinstance(f, (Var, Bot)):
        return f
    if isinstance(f, Top):
        return Imp(Bot(), Bot())
    if isinstance(f, Strong):
        return Strong(expand_derived(f.lhs), expand_derived(f.rhs))
    if isinstance(f, Min):
        return Min(expand_derived(f.lhs), expand_derived(f.rhs))
    if isinstance(f, Imp):
        return Imp(expand_derived(f.lhs), expand_derived(f.rhs))
    if isinstance(f, Neg):
        return Imp(expand_derived(f.arg), Bot())
    if isinstance(f, Or):
        a = expand_derived(f.lhs)
        b = expand_derived(f.rhs)
        return Min(Imp(Imp(a, b), b), Imp(Imp(b, a), a))
    if isinstance(f, Iff):
        a = expand_derived(f.lhs)
        b = expand_derived(f.rhs)
        return Strong(Imp(a, b), Imp(b, a))
    if isinstance(f, Power):
        if f.n == 0:
            return Imp(Bot(), Bot())
        a = expand_derived(f.arg)
        out: Formula = a
        for _ in range(f.n - 1):
            out = Strong(out, a)
        return out
    if isinstance(f, Delta):
        raise ValueError("the projection operator has no expansion in the base signature")
    raise TypeError(f"not a formula: {f!r}")
