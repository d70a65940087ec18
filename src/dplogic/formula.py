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

from collections.abc import Iterator
from operator import attrgetter

_setattr = object.__setattr__


class Record:
    """Immutable value type over the fields named in ``__slots__``.

    A subclass names its fields in ``__slots__`` (a tuple; a subclass
    without ``__slots__`` adds none) and may give trailing defaults in
    ``_defaults``.  Instances are built by position or keyword and then
    checked or normalised by ``__post_init__``; they equal only instances
    of the same class with equal fields, hash like the tuple of their
    fields, print as ``Name(field=value, ...)`` and refuse assignment.
    That is what ``@dataclass(frozen=True)`` gives, without compiling
    code for every class at import time.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = cls._fields + cls.__dict__.get("__slots__", ())
        cls.__match_args__ = fields
        # the field values: a tuple, or the bare value of a single field; a
        # class without fields reads its own __slots__, the empty tuple
        cls._key = attrgetter(*fields or ("__slots__",))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            _setattr(self, name, value)
        self.__post_init__()

    # ==, hash and repr walk nested records on an explicit stack, so a
    # formula of any depth compares, hashes and prints

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            for x, y in zip(a._values(), b._values()):
                if x is y:
                    continue
                if x.__class__ is y.__class__ and _walks(x, "__eq__"):
                    pairs.append((x, y))
                elif not x == y:
                    return False
        return True

    def __hash__(self):
        # the hash of the tuple of the fields, a nested record standing in
        # by its own hash: children are hashed before their parents
        values = self._values()
        if not any(_walks(v, "__hash__") for v in values):
            return hash(values)
        hashes: dict[int, int] = {}
        todo = [self]
        while todo:
            record = todo[-1]
            values = record._values()
            nested = [v for v in values if _walks(v, "__hash__") and id(v) not in hashes]
            if nested:
                todo += nested
                continue
            todo.pop()
            hashes[id(record)] = hash(tuple(
                _Hashed(hashes[id(v)]) if _walks(v, "__hash__") else v for v in values))
        return hashes[id(self)]

    def _values(self) -> tuple:
        # the field values as a tuple, however many fields there are
        key = self._key(self)
        return (key,) if len(self._fields) == 1 else key

    def _bind(self, args: tuple, kwargs: dict) -> list:
        fields, name = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments "
                            f"but {len(args)} were given")
        values = list(args)
        for field in fields[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in self._defaults:
                values.append(self._defaults[field])
            else:
                raise TypeError(f"{name}() missing argument {field!r}")
        if kwargs:
            raise TypeError(f"{name}() got an unexpected or repeated "
                            f"argument {next(iter(kwargs))!r}")
        return values

    def __post_init__(self) -> None:
        pass

    def __repr__(self) -> str:
        out: list[str] = []
        todo: list = [self]
        while todo:
            item = todo.pop()
            if type(item) is _Text:
                out.append(item)
            elif _walks(item, "__repr__"):
                todo.append(_Text(")"))
                for n in range(len(item._fields) - 1, -1, -1):
                    name = item._fields[n]
                    todo.append(getattr(item, name))
                    todo.append(_Text(f"{', ' if n else ''}{name}="))
                todo.append(_Text(f"{type(item).__qualname__}("))
            else:
                out.append(repr(item))
        return "".join(out)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through __init__: slots have no __dict__
        # to restore and assignment is refused
        return type(self), tuple(getattr(self, name) for name in self._fields)


def _walks(value, method: str) -> bool:
    # a record whose method is Record's own, walked rather than called
    return isinstance(value, Record) and getattr(type(value), method) is getattr(Record, method)


class _Hashed:
    """Stands in for a record whose hash is known: hashes as it does."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __hash__(self) -> int:
        return self.value


class _Text(str):
    """Literal text of a repr, as opposed to a field value."""

    __slots__ = ()


class Formula(Record):
    """Base class for AST nodes; instances are immutable and hashable."""

    __slots__ = ()

    def __str__(self) -> str:
        return render(self)


class Var(Formula):
    __slots__ = ("name",)

    def __post_init__(self):
        name = self.name  # one token to the lexer, so render(Var) parses back
        if not (isinstance(name, str) and name.isascii() and name.isidentifier()) or name == "D":
            raise ValueError(f"variable name must be an ASCII identifier other than D: {name!r}")


class Bot(Formula):
    __slots__ = ()


class Top(Formula):
    __slots__ = ()


class Strong(Formula):
    __slots__ = ("lhs", "rhs")


class Min(Formula):
    __slots__ = ("lhs", "rhs")


class Imp(Formula):
    __slots__ = ("lhs", "rhs")


class Neg(Formula):
    __slots__ = ("arg",)


class Or(Formula):
    __slots__ = ("lhs", "rhs")


class Iff(Formula):
    __slots__ = ("lhs", "rhs")


class Delta(Formula):
    __slots__ = ("arg",)


class Power(Formula):
    __slots__ = ("arg", "n")

    def __post_init__(self):
        if type(self.n) is not int:
            raise ValueError(f"power exponent must be an int, got {self.n!r}")
        if self.n < 0:
            raise ValueError(f"power exponent must be >= 0, got {self.n}")
        if self.n > MAX_POWER:
            raise ValueError("power exponent must be at most 2^64")


class ParseError(ValueError):
    """Syntax error carrying the offending position and the expected tokens."""

    def __init__(self, message: str, pos: int, expected: set[str] | None = None):
        self.pos = pos
        self.expected = frozenset(expected or ())
        if self.expected:
            message += " (expected one of: %s)" % ", ".join(sorted(self.expected))
        super().__init__(f"{message} at position {pos}")


# each Unicode alias as the (kind, text) token it stands for
_ALIASES = {
    "¬": ("~", "~"), "∧": ("and", "/\\"), "∨": ("or", "\\/"), "→": ("imp", "->"),
    "↔": ("iff", "<->"), "Δ": ("delta", "D"), "⊥": ("num", "0"), "⊤": ("num", "1"),
}

_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_IDENT_PART = _IDENT_START | frozenset("0123456789")
_PUNCT = frozenset("&~^()")
_ARROWS = (("<->", "iff"), ("->", "imp"), ("\\/", "or"), ("/\\", "and"))


def _tokenize(text: str) -> Iterator[tuple[str | None, str, int]]:
    """Lex into (kind, text, position) triples, each yielded as it is
    scanned, then (None, "", len(text)); kind is one of
    iff/imp/or/and/num/ident/delta/&/~/^/(/).

    White space and numerals are Unicode's (str.isspace, str.isdecimal),
    identifiers are ASCII: [A-Za-z_][A-Za-z0-9_]*.  An alias is its
    token, at its own position.
    """
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        start = i
        i += 1
        if c.isspace():
            continue
        if c in _IDENT_START:
            while i < n and text[i] in _IDENT_PART:
                i += 1
            word = text[start:i]
            yield "delta" if word == "D" else "ident", word, start
        elif c.isdecimal():
            while i < n and text[i].isdecimal():
                i += 1
            yield "num", text[start:i], start
        elif c in _PUNCT:
            yield c, c, start
        elif c in _ALIASES:
            yield _ALIASES[c] + (start,)
        else:
            for arrow, kind in _ARROWS:
                if text.startswith(arrow, start):
                    yield kind, arrow, start
                    i = start + len(arrow)
                    break
            else:
                raise ParseError(f"unexpected character {c!r}", start)
    yield None, "", n


# binding strength; tighter binds have larger values
_IFF, _IMP, _OR, _AND, _STRONG, _UNARY, _POSTFIX, _ATOM = range(8)

# the deepest formula parse() builds, in levels of the AST.  parse,
# compile, render, ==, hash and repr use explicit stacks, and evaluate and
# the sweeps in algebra run compile's straight-line code, so they answer
# every formula within it.  Input deeper than this is refused before it
# reaches any of them.
MAX_DEPTH = 1000

# the largest power exponent: x^n = x^(m-1) for n >= m-1 on an m-element
# MTL-chain, so a larger one changes no value on any algebra here
MAX_POWER = 2**64

# infix token kinds: (node class, binding strength); -> alone is right
# associative
_INFIX = {"iff": (Iff, _IFF), "imp": (Imp, _IMP), "or": (Or, _OR),
          "and": (Min, _AND), "&": (Strong, _STRONG)}

_PREFIX = {"~": Neg, "delta": Delta}

_OPEN = -1  # binding strength that marks an open parenthesis


def parse(text: str) -> Formula:
    """Parse concrete syntax into an AST; raises ParseError on bad input.

    Operator-precedence parsing on explicit stacks, so nesting costs no
    recursion; a formula nested deeper than MAX_DEPTH levels is refused.
    Tokens are read as the grammar needs them, so the text is scanned only
    up to the first token it cannot accept, and the error names that token.
    """
    take = _tokenize(text).__next__
    # operators waiting for their right operand, innermost last: infix ones
    # (their left operands are on `lefts`), prefix ones and open
    # parentheses, as (node class, binding strength, position)
    pending: list[tuple[type | None, int, int]] = []
    lefts: list[tuple[Formula, int]] = []  # (operand, its depth)

    def fail(kind: str | None, val: str, pos: int, expected: set[str]):
        what = "end of input" if kind is None else repr(val)
        raise ParseError(f"unexpected {what}", pos, expected)

    def deeper(depth: int, pos: int) -> int:
        if depth > MAX_DEPTH:
            raise ParseError(f"formula nested deeper than {MAX_DEPTH} levels", pos)
        return depth

    def fold(f: Formula, depth: int, level: int) -> tuple[Formula, int]:
        # apply the pending infix operators that bind tighter than level,
        # or as tightly unless level is the right-associative ->
        while pending and (pending[-1][1] > level or pending[-1][1] == level != _IMP):
            cls, _, pos = pending.pop()
            left, left_depth = lefts.pop()
            f, depth = cls(left, f), deeper(max(left_depth, depth) + 1, pos)
        return f, depth

    while True:
        kind, val, pos = take()
        while kind in _PREFIX or kind == "(":
            pending.append((_PREFIX.get(kind), _UNARY if kind in _PREFIX else _OPEN, pos))
            kind, val, pos = take()
        if kind == "ident":
            f = Var(val)
        elif kind == "num":
            if val not in ("0", "1"):
                raise ParseError(f"numeral {val!r} is not a formula", pos, {"0", "1"})
            f = Top() if val == "1" else Bot()
        else:
            fail(kind, val, pos, {"<ident>", "0", "1", "(", "~", "D"})
        depth = 1
        # an atom or a closed parenthesis takes one power, then the prefix
        # operators in front of it
        while True:
            kind, val, pos = take()
            if kind == "^":
                kind, val, n_pos = take()
                if kind != "num":
                    fail(kind, val, n_pos, {"<nat>"})
                # refused by its length first: int() is quadratic in digits
                digits = "".join([str(int(c)) for c in val]).lstrip("0") or "0"
                if len(digits) > len(str(MAX_POWER)) or int(digits) > MAX_POWER:
                    raise ParseError("power exponent must be at most 2^64", n_pos)
                f, depth = Power(f, int(digits)), deeper(depth + 1, pos)
                kind, val, pos = take()
            while pending and pending[-1][1] == _UNARY:
                cls, _, op_pos = pending.pop()
                f, depth = cls(f), deeper(depth + 1, op_pos)
            if kind != ")":
                break
            f, depth = fold(f, depth, _IFF)
            if not pending:
                break
            pending.pop()
        if kind in _INFIX:
            cls, level = _INFIX[kind]
            f, depth = fold(f, depth, level)
            pending.append((cls, level, pos))
            lefts.append((f, depth))
            continue
        f, depth = fold(f, depth, _IFF)
        if pending or kind is not None:
            fail(kind, val, pos, {")"} if pending else {"<end of input>"})
        return f


_LEVEL = {
    Iff: _IFF, Imp: _IMP, Or: _OR, Min: _AND, Strong: _STRONG,
    Neg: _UNARY, Delta: _UNARY, Power: _POSTFIX,
    Var: _ATOM, Bot: _ATOM, Top: _ATOM,
}

_BINARY = {Iff: "<->", Imp: "->", Or: "\\/", Min: "/\\", Strong: "&"}


def render(f: Formula) -> str:
    """Print to concrete syntax; parse(render(f)) is structurally f.

    Works on an explicit stack of pending text and (subformula, context)
    pairs, so any depth prints; a subformula binding looser than its
    context is parenthesized.
    """
    out: list[str] = []
    stack: list = [(f, _IFF)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        g, context = item
        if isinstance(g, Var):
            out.append(g.name)
            continue
        if isinstance(g, (Bot, Top)):
            out.append("0" if isinstance(g, Bot) else "1")
            continue
        level = _LEVEL[type(g)]
        if isinstance(g, (Neg, Delta)):
            op = "D" if isinstance(g, Delta) else "~"
            if isinstance(g.arg, (Var, Bot, Top, Neg, Delta)):
                # "D" would fuse with a following identifier into one token
                parts = ["D " if op == "D" else "~", (g.arg, _UNARY)]
            else:
                parts = [op + "(", (g.arg, _IFF), ")"]
        elif isinstance(g, Power):
            if isinstance(g.arg, (Var, Bot, Top)):
                parts = [(g.arg, _ATOM), f"^{g.n}"]
            else:
                parts = ["(", (g.arg, _IFF), f")^{g.n}"]
        elif isinstance(g, Imp):
            # right associative: the left argument must sit one level down
            parts = [(g.lhs, _OR), " -> ", (g.rhs, _IMP)]
        else:
            parts = [(g.lhs, level), f" {_BINARY[type(g)]} ", (g.rhs, level + 1)]
        if level < context:
            parts = ["(", *parts, ")"]
        stack.extend(reversed(parts))
    return "".join(out)


class Compiled(Record):
    """A formula as straight-line code over an array of value slots.

    Slot 0 holds the bottom, slot 1 the top and slots 2..k+1 the k
    variables of names, in first-occurrence order (also those that occur
    only under a zeroth power).  code[i] = (op, a, b) fills slot k+2+i
    with op applied to the earlier slots a and b; op is one of the
    primitives "&", "->", "/\\" and "\\/".  root is the formula's slot.
    ~x is x -> 0 and D x is x & x, its value on every DP algebra; delta
    records whether D occurs anywhere, under a zeroth power too.  Equal
    operations share one slot, so ~x and x -> 0 are one, as are D x,
    x & x and x^2.
    """

    __slots__ = ("names", "code", "root", "delta")
    names: tuple[str, ...]
    code: tuple[tuple[str, int, int], ...]
    root: int
    delta: bool


def _children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, (Strong, Min, Imp, Or, Iff)):
        return (f.lhs, f.rhs)
    if isinstance(f, (Neg, Delta, Power)):
        return (f.arg,)
    if isinstance(f, (Var, Bot, Top)):
        return ()
    raise TypeError(f"not a formula: {f!r}")


def compile(f: Formula) -> Compiled:
    """Lower f to slot code in one pass over an explicit stack.

    a <-> b becomes (a -> b) & (b -> a) over the shared slots of a and b,
    x^n becomes a product of n copies of x and x^0 becomes 1.
    """
    names: dict[str, int] = {}  # name -> its slot
    # (op, a, b) -> ~j for the j-th operation: k, and so the operations'
    # slots, are known only at the end; insertion order is the code
    ids: dict[tuple[str, int, int], int] = {}

    def node(op: str, a: int, b: int) -> int:
        return ids.setdefault((op, a, b), ~len(ids))

    delta = False
    done: list[int] = []  # slots or ids of the finished subformulas
    # ready: False on the way down, True once the children are done, None
    # under a zeroth power, where only the variables and D are recorded
    stack: list[tuple[Formula, bool | None]] = [(f, False)]
    while stack:
        g, ready = stack.pop()
        if isinstance(g, Var):
            i = names.setdefault(g.name, 2 + len(names))
            if ready is not None:
                done.append(i)
        elif ready:
            if isinstance(g, Power):
                # by squaring: & is associative and commutative, and shared
                # squares keep x^n at O(log n) operations
                x, n, acc = done.pop(), g.n, None
                while n:
                    if n & 1:
                        acc = x if acc is None else node("&", acc, x)
                    n >>= 1
                    if n:
                        x = node("&", x, x)
                done.append(acc)
            elif isinstance(g, Neg):
                done.append(node("->", done.pop(), 0))
            elif isinstance(g, Delta):
                x = done.pop()
                done.append(node("&", x, x))
                delta = True
            else:
                b = done.pop()
                a = done.pop()
                if isinstance(g, Iff):
                    done.append(node("&", node("->", a, b), node("->", b, a)))
                else:
                    done.append(node(_BINARY[type(g)], a, b))
        elif ready is None:
            delta = delta or isinstance(g, Delta)
            stack.extend([(c, None) for c in _children(g)[::-1]])
        elif isinstance(g, (Bot, Top)):
            done.append(1 if isinstance(g, Top) else 0)
        elif isinstance(g, Power) and g.n == 0:
            done.append(1)
            stack.append((g.arg, None))
        else:
            stack.append((g, True))
            stack.extend([(c, False) for c in _children(g)[::-1]])
    # the j-th operation, id ~j, fills slot k+2+j = k+1-~j
    last = len(names) + 1
    code = tuple([(op, a if a >= 0 else last - a, b if b >= 0 else last - b)
                  for op, a, b in ids])
    root = done.pop()
    return Compiled(tuple(names), code, root if root >= 0 else last - root, delta)


def variables(f: Formula) -> list[str]:
    """Variable names in first-occurrence order, without duplicates, also
    those that occur only under a zeroth power."""
    return list(compile(f).names)
