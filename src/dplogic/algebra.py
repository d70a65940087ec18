"""Finite chain and product algebras for drastic-product many-valued logic.

Elements of a chain of size n are the ranks 0..n-1 with 0 the bottom and
n-1 the top, so no floating point is involved anywhere.  A drastic-product
chain multiplies any two non-top elements to 0 and otherwise behaves as
min; its residuum collapses every strict comparison below the top to the
coatom.  General finite MTL-chains are given by an explicit product table
and get their residuum computed.  Finite products of drastic-product
chains act pointwise on rank tuples.

All algebra values are immutable and evaluation sweeps are pure, so
everything here is safe to share between threads.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterable, Mapping
from functools import reduce

from .formula import (
    Bot, Compiled, Delta, Formula, Iff, Imp, Min, Neg, Or, Power, Record, Strong,
    Top, Var, _children, compile, parse,
)
from .formula import variables  # noqa: F401  (callers read algebra.variables)

DEFAULT_CAP = 10**7

SIMPLICITY_SIZE_CAP = 64


class CapExceeded(RuntimeError):
    """A sweep would evaluate more points than the configured cap allows."""


class EvaluationError(ValueError):
    """Unbound variable, or the projection D applied outside a DP algebra."""


class DPChain(Record):
    """The n-element drastic-product chain (n >= 2)."""

    __slots__ = ("size",)
    size: int

    def __post_init__(self):
        if self.size < 2:
            raise ValueError(f"chain needs at least 2 elements, got {self.size}")

    @property
    def bot(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return self.size - 1

    @property
    def coatom(self) -> int:
        # for the two-element chain the coatom is the bottom
        return self.size - 2

    supports_delta = True

    def elements(self) -> range:
        return range(self.size)

    def prod(self, x: int, y: int) -> int:
        if x < self.top and y < self.top:
            return 0
        return min(x, y)

    def imp(self, x: int, y: int) -> int:
        if x <= y:
            return self.top
        if x < self.top:
            return self.coatom
        return y

    def meet(self, x: int, y: int) -> int:
        return min(x, y)

    def join(self, x: int, y: int) -> int:
        return max(x, y)

    def neg(self, x: int) -> int:
        return self.imp(x, 0)

    def delta(self, x: int) -> int:
        return self.prod(x, x)


class FiniteMTLChain:
    """A finite MTL-chain given by its monoidal product table.

    The table must be commutative, associative, monotone in each argument
    and have the top element as unit; this is validated at construction.
    The residuum table is derived as x => y = max{z : x*z <= y}.
    """

    supports_delta = False

    def __init__(self, product: Iterable[Iterable[int]]):
        table = tuple(tuple(row) for row in product)
        n = len(table)
        if n < 2:
            raise ValueError("chain needs at least 2 elements")
        top = n - 1
        for row in table:
            if len(row) != n:
                raise ValueError("product table must be square")
            for v in row:
                if not 0 <= v <= top:
                    raise ValueError(f"table entry {v} outside 0..{top}")
        for x in range(n):
            if table[x][top] != x or table[top][x] != x:
                raise ValueError("top element must be the monoidal unit")
            if table[x][0] != 0 or table[0][x] != 0:
                raise ValueError("bottom element must be absorbing")
            for y in range(n):
                if table[x][y] != table[y][x]:
                    raise ValueError(f"table not commutative at ({x},{y})")
                if y + 1 < n and table[x][y] > table[x][y + 1]:
                    raise ValueError(f"table not monotone at ({x},{y})")
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if table[table[x][y]][z] != table[x][table[y][z]]:
                        raise ValueError(f"table not associative at ({x},{y},{z})")
        self.size = n
        self.product_table = table
        self.residuum_table = tuple(
            tuple(max(z for z in range(n) if table[x][z] <= y) for y in range(n))
            for x in range(n)
        )

    @property
    def bot(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return self.size - 1

    @property
    def coatom(self) -> int:
        return self.size - 2

    def elements(self) -> range:
        return range(self.size)

    def prod(self, x: int, y: int) -> int:
        return self.product_table[x][y]

    def imp(self, x: int, y: int) -> int:
        return self.residuum_table[x][y]

    def meet(self, x: int, y: int) -> int:
        return min(x, y)

    def join(self, x: int, y: int) -> int:
        return max(x, y)

    def neg(self, x: int) -> int:
        return self.residuum_table[x][0]

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteMTLChain) and self.product_table == other.product_table

    def __hash__(self) -> int:
        return hash(self.product_table)

    def __repr__(self) -> str:
        return f"FiniteMTLChain({[list(r) for r in self.product_table]})"


class ProductAlgebra:
    """A finite DP-algebra in decomposed form: a direct product of chains.

    Elements are tuples of ranks, one per factor; every operation acts
    pointwise.
    """

    supports_delta = True

    def __init__(self, factors: Iterable[DPChain | int]):
        fs = tuple(f if isinstance(f, DPChain) else DPChain(f) for f in factors)
        if not fs:
            raise ValueError("a product algebra needs at least one factor")
        self.factors = fs

    @property
    def size(self) -> int:
        out = 1
        for f in self.factors:
            out *= f.size
        return out

    @property
    def bot(self) -> tuple[int, ...]:
        return tuple(0 for _ in self.factors)

    @property
    def top(self) -> tuple[int, ...]:
        return tuple(f.top for f in self.factors)

    def elements(self) -> Iterable[tuple[int, ...]]:
        return itertools.product(*[f.elements() for f in self.factors])

    def prod(self, x, y):
        return tuple(f.prod(a, b) for f, a, b in zip(self.factors, x, y))

    def imp(self, x, y):
        return tuple(f.imp(a, b) for f, a, b in zip(self.factors, x, y))

    def meet(self, x, y):
        return tuple(map(min, x, y))

    def join(self, x, y):
        return tuple(map(max, x, y))

    def neg(self, x):
        return self.imp(x, self.bot)

    def delta(self, x):
        return self.prod(x, x)

    def __eq__(self, other) -> bool:
        return isinstance(other, ProductAlgebra) and self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __repr__(self) -> str:
        return f"ProductAlgebra({[f.size for f in self.factors]})"


Algebra = DPChain | FiniteMTLChain | ProductAlgebra

# a valuation is a plain mapping from variable names to algebra elements
Valuation = Mapping[str, object]


def evaluate(f: Formula, algebra: Algebra, valuation: Valuation):
    """Value of f in the algebra under the valuation.

    /\\ and \\/ are lattice meet and join, & the monoidal product, -> the
    residuum and 0 the bottom; ~, <-> and powers evaluate through their
    defining abbreviations.  D requires a DP algebra, where it acts as
    squaring.
    """
    if isinstance(f, Var):
        try:
            return valuation[f.name]
        except KeyError:
            raise EvaluationError(f"unbound variable {f.name!r}") from None
    if isinstance(f, Bot):
        return algebra.bot
    if isinstance(f, Top):
        return algebra.top
    if isinstance(f, Strong):
        return algebra.prod(evaluate(f.lhs, algebra, valuation),
                            evaluate(f.rhs, algebra, valuation))
    if isinstance(f, Min):
        return algebra.meet(evaluate(f.lhs, algebra, valuation),
                            evaluate(f.rhs, algebra, valuation))
    if isinstance(f, Imp):
        return algebra.imp(evaluate(f.lhs, algebra, valuation),
                           evaluate(f.rhs, algebra, valuation))
    if isinstance(f, Neg):
        return algebra.imp(evaluate(f.arg, algebra, valuation), algebra.bot)
    if isinstance(f, Or):
        return algebra.join(evaluate(f.lhs, algebra, valuation),
                            evaluate(f.rhs, algebra, valuation))
    if isinstance(f, Iff):
        a = evaluate(f.lhs, algebra, valuation)
        b = evaluate(f.rhs, algebra, valuation)
        return algebra.prod(algebra.imp(a, b), algebra.imp(b, a))
    if isinstance(f, Delta):
        if not algebra.supports_delta:
            raise EvaluationError("D is only defined on DP algebras")
        return algebra.delta(evaluate(f.arg, algebra, valuation))
    if isinstance(f, Power):
        x = evaluate(f.arg, algebra, valuation)
        out = algebra.top
        for _ in range(f.n):
            out = algebra.prod(out, x)
        return out
    raise TypeError(f"not a formula: {f!r}")


class Verdict(Record):
    """Outcome of a validity sweep; carries a countermodel on failure."""

    __slots__ = ("ok", "algebra", "valuation", "value")
    _defaults = {"algebra": None, "valuation": None, "value": None}
    ok: bool
    algebra: Algebra | None
    valuation: dict | None
    value: object | None

    def __bool__(self) -> bool:
        return self.ok


def _lower(program: Compiled) -> tuple[list[tuple[str, int, int, int]], int]:
    """Three-address code (op, a, b, out) over a value array, and the slot
    of the root.

    Slot 0 holds the bottom, slot 1 the top, slots 2..k+1 the k variables
    and each later slot one operation node; op is "&", "->", "/\\" or
    "\\/", with ~x as x -> 0 and D x as x & x.
    """
    k = len(program.names)
    slot: list[int] = []
    code: list[tuple[str, int, int, int]] = []
    for op, a, b in program.nodes:
        if op == "var":
            slot.append(2 + a)
        elif op in ("0", "1"):
            slot.append(int(op))
        else:
            out = 2 + k + len(code)
            if op == "~":
                code.append(("->", slot[a], 0, out))
            elif op == "D":
                code.append(("&", slot[a], slot[a], out))
            else:
                code.append((op, slot[a], slot[b], out))
            slot.append(out)
    return code, slot[-1]


def _mentions_delta(f: Formula) -> bool:
    # under a zeroth power too, where compile drops it but evaluate does not
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Delta):
            return True
        stack.extend(_children(g))
    return False


def holds(f: Formula, algebra: Algebra, cap: int = DEFAULT_CAP) -> Verdict:
    """Sweep all valuations; true iff f evaluates to top on every one.

    Valuations come in itertools.product order over the variables in
    first-occurrence order; the first one whose value is not the top is
    returned as the countermodel.  Each point is one loop over the
    compiled formula with the algebra's operations, as evaluate would
    compute it.
    """
    program = compile(f)
    names = program.names
    universe = list(algebra.elements())
    points = len(universe) ** len(names)
    if points > cap:
        raise CapExceeded(f"{points} valuations exceed the cap of {cap}")
    if not algebra.supports_delta and _mentions_delta(f):
        raise EvaluationError("D is only defined on DP algebras")
    ops = {"&": algebra.prod, "->": algebra.imp,
           "/\\": algebra.meet, "\\/": algebra.join}
    code, root = _lower(program)
    code = [(ops[op], a, b, out) for op, a, b, out in code]
    top = algebra.top
    v = [algebra.bot, top] + [None] * (len(names) + len(code))
    for combo in itertools.product(universe, repeat=len(names)):
        v[2:2 + len(names)] = combo
        for fn, a, b, out in code:
            v[out] = fn(v[a], v[b])
        if v[root] != top:
            return Verdict(False, algebra, dict(zip(names, combo)), v[root])
    return Verdict(True)


def is_dp_chain(chain: DPChain | FiniteMTLChain) -> bool:
    """True iff every element below the top squares to 0.

    A finite chain always has a coatom, so this is exactly the
    drastic-product condition; when it holds the product and residuum
    tables agree with the DPChain operations entry by entry.
    """
    return all(chain.prod(x, x) == 0 for x in range(chain.top))


_AXIOM_FORMULAS = {
    "dp": "x \\/ ~(x^2)",
    "wnm": "~(x & y) \\/ ((x /\\ y) -> (x & y))",
    "rdp": "(x -> ~x) \\/ ~~x",
}

_SCHEMA_RE = re.compile(r"^(skmtl|ncontract)\((\d+)\)$")


def axiom_instance(name: str) -> Formula | tuple[Formula, Formula]:
    """The named axiom as a formula, or a pair (lhs, rhs) for an equation.

    Accepted names: dp, wnm, rdp, skmtl(k) for k >= 2, ncontract(n) for
    n >= 1.  skmtl(k) is the weakened excluded middle x \\/ ~(x^(k-1));
    ncontract(n) is the equation x^n = x^(n-1).
    """
    if name in _AXIOM_FORMULAS:
        return parse(_AXIOM_FORMULAS[name])
    m = _SCHEMA_RE.match(name.replace(" ", ""))
    if m is None:
        raise ValueError(f"unknown axiom {name!r}")
    k = int(m.group(2))
    if m.group(1) == "skmtl":
        if k < 2:
            raise ValueError("skmtl(k) needs k >= 2")
        return Or(Var("x"), Neg(Power(Var("x"), k - 1)))
    if k < 1:
        raise ValueError("ncontract(n) needs n >= 1")
    return (Power(Var("x"), k), Power(Var("x"), k - 1))


def satisfies_axiom(algebra: Algebra, name: str, cap: int = DEFAULT_CAP) -> bool:
    """Brute-force the named axiom schema over all valuations.

    An equation lhs = rhs is checked as lhs <-> rhs, which is top on an
    MTL-chain, and pointwise on a product of chains, iff lhs = rhs.
    """
    inst = axiom_instance(name)
    if not isinstance(inst, Formula):
        inst = Iff(*inst)
    return holds(inst, algebra, cap).ok


# the five projection axioms; they pin D down as the top-detector
DELTA_AXIOM_TEXTS = (
    "D x \\/ ~D x",
    "D x -> x",
    "D x -> D D x",
    "D(x -> y) -> (D x -> D y)",
    "D(x \\/ y) -> (D x \\/ D y)",
)


def delta_axioms() -> tuple[Formula, ...]:
    return tuple(parse(t) for t in DELTA_AXIOM_TEXTS)


def enumerate_mtl_chains(n: int) -> list[FiniteMTLChain]:
    """All MTL-chain product tables on the n-element chain, 2 <= n <= 5.

    Backtracks over the upper triangle of the table (entries between
    nonextremal elements; rows for 0 and top are forced), pruning by
    monotonicity and by associativity of the decided entries.  Tables are
    produced in lexicographic order of the free entries.
    """
    if not 2 <= n <= 5:
        raise ValueError(f"chain enumeration is capped at size 5, got {n}")
    top = n - 1
    free = [(x, y) for x in range(1, top) for y in range(x, top)]
    table = [[None] * n for x in range(n)]
    for x in range(n):
        table[x][0] = table[0][x] = 0
        table[x][top] = table[top][x] = x

    def assoc_ok() -> bool:
        # check every triple whose five lookups are all decided
        for a in range(n):
            for b in range(n):
                ab = table[a][b]
                if ab is None:
                    continue
                for c in range(n):
                    bc = table[b][c]
                    if bc is None:
                        continue
                    left = table[ab][c]
                    right = table[a][bc]
                    if left is not None and right is not None and left != right:
                        return False
        return True

    out: list[FiniteMTLChain] = []

    def fill(i: int):
        if i == len(free):
            out.append(FiniteMTLChain([row[:] for row in table]))
            return
        x, y = free[i]
        lower = 0
        if y - 1 >= 1:
            prev = table[x][y - 1]
            if prev is not None:
                lower = max(lower, prev)
        if x - 1 >= 1:
            prev = table[x - 1][y]
            if prev is not None:
                lower = max(lower, prev)
        for v in range(lower, min(x, y) + 1):
            table[x][y] = table[y][x] = v
            if assoc_ok():
                fill(i + 1)
        table[x][y] = table[y][x] = None

    fill(0)
    return out


def principal_filter(algebra: Algebra, a) -> frozenset:
    """The smallest filter containing a: the upset of a's stabilized power."""
    p = a
    while True:
        q = algebra.prod(p, a)
        if q == p:
            break
        p = q
    if isinstance(algebra, ProductAlgebra):
        return frozenset(x for x in algebra.elements() if algebra.meet(x, p) == p)
    return frozenset(x for x in algebra.elements() if x >= p)


def is_simple(algebra: Algebra) -> bool:
    """True iff the only filters are {top} and the whole universe.

    Filters correspond to congruences, and every nontrivial filter
    contains a principal one, so it suffices that each element below the
    top generates the improper filter.
    """
    universe = list(algebra.elements())
    if len(universe) > SIMPLICITY_SIZE_CAP:
        raise CapExceeded(f"simplicity check capped at {SIMPLICITY_SIZE_CAP} elements")
    full = len(universe)
    for a in universe:
        if a == algebra.top:
            continue
        if len(principal_filter(algebra, a)) != full:
            return False
    return True


def delta_of(algebra: DPChain | ProductAlgebra, x):
    """The projection D on a DP algebra: the square of x."""
    if not algebra.supports_delta:
        raise EvaluationError("D is only defined on DP algebras")
    return algebra.prod(x, x)


def discriminator(algebra: DPChain, x, y, z):
    """(D(x <-> y) /\\ z) \\/ (~D(x <-> y) /\\ x).

    On a DP-chain this is the ternary discriminator: z when x = y and x
    otherwise.
    """
    eq = algebra.prod(algebra.imp(x, y), algebra.imp(y, x))
    d = delta_of(algebra, eq)
    return algebra.join(algebra.meet(d, z), algebra.meet(algebra.neg(d), x))


def find_embedding(b: DPChain, a: DPChain) -> tuple[int, ...] | None:
    """The canonical DP-chain embedding of b into a, or None if b is bigger.

    Ranks below the coatom map identically, the coatom to the coatom and
    the top to the top; preserving 0, coatom, top and order is enough to
    preserve all operations.
    """
    if b.size > a.size:
        return None
    if b.size == 2:
        return (0, a.top)
    return tuple(range(b.size - 2)) + (a.coatom, a.top)


def _closure(algebra: Algebra, seed: Iterable) -> set:
    elems = {algebra.bot, algebra.top} | set(seed)
    while True:
        new = set()
        for x in elems:
            for y in elems:
                for op in (algebra.prod, algebra.imp, algebra.meet, algebra.join):
                    z = op(x, y)
                    if z not in elems:
                        new.add(z)
        if not new:
            return elems
        elems |= new


def _tabulate(algebra: Algebra) -> tuple[list, dict, list[list[int]]]:
    """Number the elements and tabulate *, =>, meet and join on the numbers.

    tables[t][x * n + y] is the number of the t-th operation applied to
    elements x and y.
    """
    elems = list(algebra.elements())
    index = {e: i for i, e in enumerate(elems)}
    if not isinstance(algebra, ProductAlgebra):
        tables = [[index[op(x, y)] for x in elems for y in elems]
                  for op in (algebra.prod, algebra.imp, algebra.meet, algebra.join)]
        return elems, index, tables
    # a tuple's number is its mixed-radix value, so the product's tables
    # are the factors' tables composed one factor at a time
    tables, n = [[0]] * 4, 1
    for f in algebra.factors:
        s = f.size
        factor_tables = _tabulate(f)[2]
        tables = [[tab[x * n + y] * s + ftab[a * s + b]
                   for x in range(n) for a in range(s)
                   for y in range(n) for b in range(s)]
                  for tab, ftab in zip(tables, factor_tables)]
        n *= s
    return elems, index, tables


def _derivation(algebra: Algebra, index: dict, tables: list[list[int]],
                gens: Iterable = ()) -> tuple[list[int], list[int], list[tuple]]:
    """Generators, derivation order and a straight-line program over numbers.

    The closure of 0, top and `gens` grows semi-naively: each element in
    turn is combined, in both orders, with every element before it.  When
    it stops growing, the first element outside it becomes a generator,
    the greedy choice.  Returns the generators chosen, every element in
    the order it was reached, and the program: a step (t, x, y, z) for
    each element z reached as op_t(x, y), operands first.
    """
    n = len(index)
    closed = [False] * n
    known = [index[e] for e in (algebra.bot, algebra.top, *gens)]
    for i in known:
        closed[i] = True
    found: list[int] = []
    program: list[tuple[int, int, int, int]] = []
    done = 0
    outside = iter(range(n))
    while True:
        while done < len(known):
            z = known[done]
            done += 1
            for w in known[:done]:
                for x, y in ((z, w), (w, z)):
                    row = x * n + y
                    for t, table in enumerate(tables):
                        v = table[row]
                        if not closed[v]:
                            closed[v] = True
                            known.append(v)
                            program.append((t, x, y, v))
        i = next((i for i in outside if not closed[i]), None)
        if i is None:
            return found, known, program
        found.append(i)
        closed[i] = True
        known.append(i)


def generating_set(algebra: Algebra) -> list:
    """A small generating set found greedily (constants are always free)."""
    elems, index, tables = _tabulate(algebra)
    return [elems[i] for i in _derivation(algebra, index, tables)[0]]


class _OnDemand(dict):
    """An algebra's operations on element numbers, evaluated on first use.

    Elements are numbered as they are met; key (t * m + a) * m + b holds
    the number of op_t(a, b), where m bounds the numbers.  Only the pairs
    asked for are ever evaluated.
    """

    def __init__(self, algebra: Algebra, m: int):
        super().__init__()
        self.ops = (algebra.prod, algebra.imp, algebra.meet, algebra.join)
        self.m = m
        self.values: list = []
        self.numbers: dict = {}

    def number(self, v) -> int:
        i = self.numbers.get(v)
        if i is None:
            i = self.numbers[v] = len(self.values)
            self.values.append(v)
        return i

    def __missing__(self, key: int) -> int:
        t, ab = divmod(key, self.m * self.m)
        a, b = divmod(ab, self.m)
        c = self[key] = self.number(self.ops[t](self.values[a], self.values[b]))
        return c


def enumerate_homomorphisms(src: Algebra, dst: Algebra,
                            cap: int = DEFAULT_CAP) -> list[dict]:
    """All maps src -> dst preserving *, =>, meet, join, 0 and top.

    A homomorphism is fixed by its values on a generating set, so the
    search assigns targets to the generators of src, runs the program that
    derives every other element of src on those targets in dst, and
    verifies the resulting map on every pair and operation, pairs of
    early-derived elements first.  It works on element numbers: src's
    operations are tabulated once, dst's are evaluated on demand and
    remembered by operand pair, so a large dst costs only the operations
    the search asks for.  The cap applies to the number of generator
    assignments tried and is checked before any dst operation runs.
    """
    gens = generating_set(src)
    tries = dst.size ** len(gens)
    if tries > cap:
        raise CapExceeded(f"{tries} generator assignments exceed the cap of {cap}")
    elems, index, tables = _tabulate(src)
    _, order, program = _derivation(src, index, tables, gens)
    n, m = len(elems), dst.size
    dst_ops = _OnDemand(dst, m)
    # dst_ops[t * m * m + a * m + b] is op_t on dst's elements a and b
    steps = [(t * m * m, x, y, z) for t, x, y, z in program]
    # pairs of early-derived elements first and the constants 0 and top
    # (order[:2]), which every candidate maps alike, last: wrong candidates
    # fail sooner
    order = order[2:] + order[:2]
    checks = [(t * m * m, x, y, table[x * n + y])
              for p, z in enumerate(order) for w in order[:p + 1]
              for x, y in ((z, w), (w, z)) for t, table in enumerate(tables)]
    h = [0] * n
    h[index[src.bot]] = dst_ops.number(dst.bot)
    h[index[src.top]] = dst_ops.number(dst.top)
    g = [index[x] for x in gens]
    found = []
    # without generators the one candidate needs no element of dst listed
    images = [dst_ops.number(v) for v in dst.elements()] if gens else []
    for choice in itertools.product(images, repeat=len(gens)):
        for x, a in zip(g, choice):
            h[x] = a
        for k, x, y, z in steps:
            h[z] = dst_ops[k + h[x] * m + h[y]]
        for k, x, y, z in checks:
            if dst_ops[k + h[x] * m + h[y]] != h[z]:
                break
        else:
            found.append({e: dst_ops.values[h[i]] for i, e in enumerate(elems)})
    return found


def _exact_points(v: list, k: int, size: int):
    """Write each exact valuation of k variables on the size-chain into
    v[2:2+k], in lexicographic order, and yield after each one.

    Exact means that the values generate the whole chain: any values on
    the 2-chain; the coatom among them on the 3-chain; every rank strictly
    between 0 and the coatom among them on a longer chain (the coatom is
    then a negation).  Prefixes that leave too few variables for the ranks
    still missing are cut, so no inexact valuation is ever visited.
    """
    need = size - 3 if size > 3 else size - 2  # ranks 1..need must occur
    uses = [0] * size

    def fill(i: int, missing: int):
        room = k - 1 - i  # variables after this one
        for x in range(size):
            left = missing - (0 < x <= need and not uses[x])
            if left > room:
                continue
            v[2 + i] = x
            if room:
                uses[x] += 1
                yield from fill(i + 1, left)
                uses[x] -= 1
            else:
                yield

    if k:
        yield from fill(0, need)
    elif not need:
        yield


def is_theorem(f: Formula, cap: int = DEFAULT_CAP) -> Verdict:
    """Decide DP theoremhood on the exact valuations of C_2, ..., C_{k+3}.

    The subalgebra generated by k elements of any DP-chain consists of the
    generators plus at most 0, the coatom and the top, so it is a DP-chain
    of at most k+3 elements, and every refuting valuation is the image,
    under an order-preserving embedding, of an exact refuting valuation
    (one whose values generate their chain) on that smaller chain.  A
    formula in k variables is therefore valid on all DP-chains iff no
    exact valuation on a chain of size 2..k+3 refutes it.  The exact
    valuations on C_s are counted by the multiplicity of the (s-1)-chain
    in the dual of the free k-generated algebra, so the sweep visits the
    dual's instance count of points at most (4, 18, 94, 582, 4294 and
    37 398 for k = 1..6, against (k+3)^k); that count is what the cap
    bounds, and it is checked before the first evaluation.

    Chains are swept smallest first and valuations in lexicographic
    order.  Embeddings preserve that order, so the first refutation found
    is the lexicographically first countermodel on the smallest refuting
    chain.  Each point runs one loop over the compiled node array with
    the chain's operation tables.
    """
    from .duality import free_coefficient  # duality imports this module

    program = compile(f)
    k = len(program.names)
    sizes = range(2, k + 4)
    points = sum(free_coefficient(k, s - 1) for s in sizes)
    if points > cap:
        raise CapExceeded(f"{points} valuations exceed the cap of {cap}")
    code, root = _lower(program)
    for size in sizes:
        chain = DPChain(size)
        top = chain.top
        tables = {op: tuple(tuple(fn(x, y) for y in chain.elements())
                            for x in chain.elements())
                  for op, fn in (("&", chain.prod), ("->", chain.imp),
                                 ("/\\", chain.meet), ("\\/", chain.join))}
        ops = [(tables[op], a, b, out) for op, a, b, out in code]
        v = [0, top] + [0] * (k + len(ops))
        for _ in _exact_points(v, k, size):
            for table, a, b, out in ops:
                v[out] = table[v[a]][v[b]]
            if v[root] != top:
                return Verdict(False, chain, dict(zip(program.names, v[2:2 + k])),
                               v[root])
    return Verdict(True)


def is_theorem_in_variety(f: Formula, n: int, cap: int = DEFAULT_CAP) -> Verdict:
    """Validity in the subvariety generated by the n-element DP-chain."""
    if n < 2:
        raise ValueError(f"variety index must be >= 2, got {n}")
    return holds(f, DPChain(n), cap)


def separating_formula(n: int) -> Formula:
    """Pairwise-equivalence disjunction over n+1 variables.

    Valid in the variety of the n-element chain by pigeonhole, refuted on
    the (n+1)-element chain by any injective valuation.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    xs = [Var(f"x{i}") for i in range(1, n + 2)]
    disjuncts = [Iff(xs[i], xs[j]) for i in range(n + 1) for j in range(i + 1, n + 1)]
    return reduce(Or, disjuncts)


def subvariety_index(algebra: ProductAlgebra | DPChain) -> int:
    """Maximum factor cardinality: the variety generated is that chain's."""
    if isinstance(algebra, DPChain):
        return algebra.size
    return max(f.size for f in algebra.factors)


class FreeAlgebraTable(Record):
    """Term functions of the free algebra, tabulated pointwise."""

    __slots__ = ("generators", "chain_size", "functions")
    generators: int
    chain_size: int
    functions: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.functions)


def free_algebra_bruteforce(k: int) -> FreeAlgebraTable:
    """Close the k projections under pointwise operations on the (k+3)-chain.

    Term functions in k variables separate exactly on the (k+3)-element
    chain, so the closure of the projections and the constants inside
    C^(C^k) is the free k-generated algebra.  Only k <= 1 is allowed; k=2
    already has more than 10^9 elements.
    """
    if not 0 <= k <= 1:
        raise ValueError(f"free-algebra brute force is only feasible for k <= 1, got {k}")
    chain = DPChain(k + 3)
    points = list(itertools.product(chain.elements(), repeat=k))
    bottom = tuple(0 for _ in points)
    unit = tuple(chain.top for _ in points)
    seed = {bottom, unit}
    for i in range(k):
        seed.add(tuple(p[i] for p in points))
    elems = set(seed)
    frontier = list(seed)
    while frontier:
        fresh = []
        for x in list(elems):
            for y in frontier:
                for op in (chain.prod, chain.imp, chain.meet, chain.join):
                    for z in (tuple(map(op, x, y)), tuple(map(op, y, x))):
                        if z not in elems:
                            elems.add(z)
                            fresh.append(z)
        frontier = fresh
    return FreeAlgebraTable(k, chain.size, tuple(sorted(elems)))


def element_name(chain_size: int, rank: int) -> str:
    """Symbolic name of a rank: "0", "1", "c" or "r<k>"."""
    if rank == 0:
        return "0"
    if rank == chain_size - 1:
        return "1"
    if rank == chain_size - 2:
        return "c"
    return f"r{rank}"


def algebra_to_json(algebra: Algebra) -> dict:
    if isinstance(algebra, DPChain):
        return {"type": "dp_chain", "size": algebra.size}
    if isinstance(algebra, FiniteMTLChain):
        return {"type": "mtl_chain", "size": algebra.size,
                "product": [list(row) for row in algebra.product_table]}
    if isinstance(algebra, ProductAlgebra):
        return {"type": "product", "factors": [f.size for f in algebra.factors]}
    raise TypeError(f"not an algebra: {algebra!r}")


def algebra_from_json(data: Mapping) -> Algebra:
    kind = data.get("type")
    if kind == "dp_chain":
        return DPChain(data["size"])
    if kind == "mtl_chain":
        return FiniteMTLChain(data["product"])
    if kind == "product":
        return ProductAlgebra(data["factors"])
    raise ValueError(f"unknown algebra encoding {kind!r}")


def witness_to_json(verdict: Verdict) -> dict | None:
    """Encode a countermodel: algebra, valuation ranks and names, value."""
    if verdict.ok or verdict.algebra is None:
        return None
    algebra = verdict.algebra

    def describe(elem):
        if isinstance(algebra, ProductAlgebra):
            return {"rank": list(elem),
                    "name": [element_name(f.size, r)
                             for f, r in zip(algebra.factors, elem)]}
        return {"rank": elem, "name": element_name(algebra.size, elem)}

    return {
        "algebra": algebra_to_json(algebra),
        "valuation": {name: describe(elem)
                      for name, elem in sorted(verdict.valuation.items())},
        "value": describe(verdict.value),
    }
