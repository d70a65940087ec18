"""Finite MTL-chains and product algebras for drastic-product many-valued
logic, with the sweeps, axiom checks and homomorphism search over them.

Elements of a chain of size n are the ranks 0..n-1 with 0 the bottom and
n-1 the top, so no floating point is involved anywhere.  A drastic-product
chain (decide.DPChain) multiplies any two non-top elements to 0 and
otherwise behaves as min; its residuum collapses every strict comparison
below the top to the coatom.  General finite MTL-chains are given by an
explicit product table and get their residuum computed.  Finite products
of drastic-product chains act pointwise on rank tuples.  The decision
procedure lives in decide, which `dp thm` loads without this module; its
names are read here too.

All algebra values are immutable, and sweeps and searches are pure and
keep nothing between calls, so everything here is safe to share between
threads.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping
from functools import reduce

from . import decide
from .decide import DPChain, Verdict, _Chain, _check_cap, _operations
from .decide import (  # noqa: F401  (callers read them here too)
    CapExceeded, algebra_to_json, element_name, find_embedding, is_theorem,
    is_theorem_in_variety, witness_to_json,
)
from .formula import Formula, Iff, Neg, Or, Power, Record, Var, compile, parse
from .formula import variables  # noqa: F401  (callers read algebra.variables)

SIMPLICITY_SIZE_CAP = 64


class EvaluationError(ValueError):
    """Unbound variable, or the projection D applied outside a DP algebra."""


class FiniteMTLChain(_Chain, Record):
    """A finite MTL-chain given by its monoidal product table.

    The table must be commutative, associative, monotone in each argument
    and have the top element as unit; this is validated at construction.
    The residuum table is derived as x => y = max{z : x*z <= y}.
    """

    __slots__ = ("size", "product_table", "residuum_table")
    size: int
    product_table: tuple[tuple[int, ...], ...]
    residuum_table: tuple[tuple[int, ...], ...]
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
        residuum = tuple(
            tuple(max(z for z in range(n) if table[x][z] <= y) for y in range(n))
            for x in range(n))
        super().__init__(n, table, residuum)

    def prod(self, x: int, y: int) -> int:
        return self.product_table[x][y]

    def imp(self, x: int, y: int) -> int:
        return self.residuum_table[x][y]

    def __repr__(self) -> str:
        return f"FiniteMTLChain({[list(r) for r in self.product_table]})"

    def __reduce__(self):
        # __init__ takes the product table alone and derives the rest
        return type(self), (self.product_table,)

    def _json(self) -> dict:
        return {"type": "mtl_chain", "size": self.size,
                "product": [list(row) for row in self.product_table]}


class ProductAlgebra(Record):
    """A finite DP-algebra in decomposed form: a direct product of chains.

    Elements are tuples of ranks, one per factor; every operation acts
    pointwise.  Factors may be given as DPChains or as their sizes.
    """

    __slots__ = ("factors",)
    factors: tuple[DPChain, ...]
    supports_delta = True

    def __post_init__(self):
        fs = tuple(f if isinstance(f, DPChain) else DPChain(f) for f in self.factors)
        if not fs:
            raise ValueError("a product algebra needs at least one factor")
        object.__setattr__(self, "factors", fs)

    @property
    def size(self) -> int:
        return math.prod(f.size for f in self.factors)

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

    def _json(self) -> dict:
        return {"type": "product", "factors": [f.size for f in self.factors]}


Algebra = DPChain | FiniteMTLChain | ProductAlgebra

# a valuation is a plain mapping from variable names to algebra elements
Valuation = Mapping[str, object]


def _bound(f: Formula, algebra: Algebra) -> tuple[tuple[str, ...], list, int]:
    """f compiled with each op bound to the algebra's operation: the
    variable names, the code (fn, a, b, out) and the root's slot."""
    program = compile(f)
    if program.delta and not algebra.supports_delta:
        raise EvaluationError("D is only defined on DP algebras")
    ops = _operations(algebra)
    names = program.names
    code = [(ops[op], a, b, out)
            for out, (op, a, b) in enumerate(program.code, 2 + len(names))]
    return names, code, program.root


def evaluate(f: Formula, algebra: Algebra, valuation: Valuation):
    """Value of f in the algebra under the valuation.

    /\\ and \\/ are lattice meet and join, & the monoidal product, -> the
    residuum and 0 the bottom; ~, <-> and powers evaluate through their
    defining abbreviations.  D requires a DP algebra, where it acts as
    squaring.  Each call compiles f (formula.compile) and runs its slot
    code once; holds compiles f once for all the points it sweeps.
    """
    names, code, root = _bound(f, algebra)
    v = [algebra.bot, algebra.top]
    for name in names:
        try:
            v.append(valuation[name])
        except KeyError:
            raise EvaluationError(f"unbound variable {name!r}") from None
    v += [None] * len(code)
    for fn, a, b, out in code:
        v[out] = fn(v[a], v[b])
    return v[root]


def holds(f: Formula, algebra: Algebra) -> Verdict:
    """Sweep all valuations; true iff f evaluates to top on every one.

    Valuations come in itertools.product order over the variables in
    first-occurrence order; the first one whose value is not the top is
    returned as the countermodel.  Each point is evaluate's run of the
    slot code.  The |A|^k points are counted against decide.DEFAULT_CAP before
    any element of the algebra A is listed.
    """
    names, code, root = _bound(f, algebra)
    k = len(names)
    _check_cap(algebra.size ** k, decide.DEFAULT_CAP, "valuations")
    top = algebra.top
    v = [algebra.bot, top] + [None] * (k + len(code))
    # without variables the one point needs no element listed
    for combo in itertools.product(algebra.elements() if k else (), repeat=k):
        v[2:2 + k] = combo
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

def axiom_instance(name: str) -> Formula | tuple[Formula, Formula]:
    """The named axiom as a formula, or a pair (lhs, rhs) for an equation.

    Accepted names: dp, wnm, rdp, skmtl(k) for k >= 2, ncontract(n) for
    n >= 1.  skmtl(k) is the weakened excluded middle x \\/ ~(x^(k-1));
    ncontract(n) is the equation x^n = x^(n-1).
    """
    if name in _AXIOM_FORMULAS:
        return parse(_AXIOM_FORMULAS[name])
    import re  # only the schemas need it; `dp` does not load it otherwise
    m = re.match(r"^(skmtl|ncontract)\((\d+)\)$", name.replace(" ", ""))
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


def satisfies_axiom(algebra: Algebra, name: str) -> bool:
    """Brute-force the named axiom schema over all valuations.

    An equation lhs = rhs is checked as lhs <-> rhs, which is top on an
    MTL-chain, and pointwise on a product of chains, iff lhs = rhs.
    """
    inst = axiom_instance(name)
    if not isinstance(inst, Formula):
        inst = Iff(*inst)
    return holds(inst, algebra).ok


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
    """All MTL-chain product tables on the n-element chain, 2 <= n <= 5
    (ValueError below 2, CapExceeded above 5).

    Backtracks over the upper triangle of the table (entries between
    nonextremal elements; rows for 0 and top are forced), each entry
    running from the larger of its left and upper neighbours to the
    smaller of its arguments, so every table built is commutative and
    monotone.  FiniteMTLChain keeps the associative ones.  Tables are
    produced in lexicographic order of the free entries.
    """
    if n < 2:
        raise ValueError(f"a chain needs at least 2 elements, got {n}")
    _check_cap(n, 5, "elements of the MTL-chains to enumerate")
    top = n - 1
    free = [(x, y) for x in range(1, top) for y in range(x, top)]
    # 0 absorbs and the top is the unit; free entries are overwritten
    table = [[0] * n] + [[0] * top + [x] for x in range(1, top)] + [list(range(n))]
    out: list[FiniteMTLChain] = []

    def fill(i: int):
        if i == len(free):
            try:
                out.append(FiniteMTLChain(table))
            except ValueError:  # not associative
                pass
            return
        x, y = free[i]
        for v in range(max(table[x][y - 1], table[x - 1][y]), min(x, y) + 1):
            table[x][y] = table[y][x] = v
            fill(i + 1)

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
    return frozenset(x for x in algebra.elements() if algebra.meet(x, p) == p)


def is_simple(algebra: Algebra) -> bool:
    """True iff the only filters are {top} and the whole universe.

    Filters correspond to congruences, and every nontrivial filter
    contains a principal one, so it suffices that each element below the
    top generates the improper filter.
    """
    _check_cap(algebra.size, SIMPLICITY_SIZE_CAP, "elements to check for simplicity")
    full = algebra.size
    for a in algebra.elements():
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


def _tabulate(algebra: Algebra) -> tuple[list, dict, list[list[int]]]:
    """Number the elements and tabulate *, =>, meet and join on the numbers.

    tables[t][x * n + y] is the number of the t-th operation applied to
    elements x and y.  The tables hold 4 n^2 entries; when that exceeds
    decide.DEFAULT_CAP, CapExceeded is raised before any is built.
    """
    _check_cap(4 * algebra.size ** 2, decide.DEFAULT_CAP, "table entries")
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


def _derivation(algebra: Algebra, index: dict,
                tables: list[list[int]]) -> tuple[list[int], list[tuple]]:
    """Generators and a straight-line program over element numbers.

    The closure of 0 and top grows semi-naively: each element in turn is
    combined, in both orders, with every element before it.  When it stops
    growing, the first element outside it becomes a generator, the greedy
    choice.  Returns the generators chosen and the program: a step
    (t, x, y, z) for each element z reached as op_t(x, y), operands first.
    """
    n = len(index)
    closed = [False] * n
    known = [index[algebra.bot], index[algebra.top]]
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
            return found, program
        found.append(i)
        closed[i] = True
        known.append(i)


def generating_set(algebra: Algebra) -> list:
    """A small generating set found greedily (constants are always free);
    CapExceeded when tabulating the algebra exceeds the default cap."""
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


def _search(source: tuple, dst: Algebra) -> list[tuple]:
    # the homomorphisms into dst from a source of n elements, as image
    # tuples in element number order, in the order of their generator
    # images; tables are the source's as _tabulate gives them, bot and top
    # number its constants, g its generators, and program derives the rest
    n, tables, bot, top, g, program = source
    m = dst.size
    mm = m * m
    dst_ops = _OnDemand(dst, m)
    # dst_ops[t * m * m + a * m + b] is op_t on dst's elements a and b
    steps = [(t * mm, x, y, z) for t, x, y, z in program]
    ops = [(t * mm, table) for t, table in enumerate(tables)]
    h = [0] * n
    h[bot] = dst_ops.number(dst.bot)
    h[top] = dst_ops.number(dst.top)
    values = dst_ops.values
    found = []
    # without generators the one candidate needs no element of dst listed
    images = [dst_ops.number(v) for v in dst.elements()] if g else []
    for choice in itertools.product(images, repeat=len(g)):
        for x, a in zip(g, choice):
            h[x] = a
        for k, x, y, z in steps:
            h[z] = dst_ops[k + h[x] * m + h[y]]
        # h is a homomorphism iff op_t(h[x], h[y]) == h[op_t(x, y)] on
        # every table entry, compared a row of a table at a time
        if all([dst_ops[k + a * m + b] for b in h]
               == [h[z] for z in table[x * n:x * n + n]]
               for x, a in enumerate(h) for k, table in ops):
            found.append(tuple([values[i] for i in h]))
    return found


def enumerate_homomorphisms(src: Algebra, dst: Algebra) -> list[dict]:
    """All maps src -> dst preserving *, =>, meet, join, 0 and top.

    A homomorphism is fixed by its values on a generating set, so the
    search assigns targets to the generators of src, runs the program that
    derives every other element of src on those targets in dst, and
    accepts the resulting map h when op(h(x), h(y)) = h(op(x, y)) for
    every entry of src's operation tables.  It works on element numbers:
    src's operations are tabulated once, dst's are evaluated on demand and
    remembered by operand pair, so a large dst costs only the operations
    the search asks for.

    A map into a ProductAlgebra is a homomorphism iff each coordinate is,
    so the search runs once per distinct factor, and the maps are the
    combinations of the factors' homomorphisms, sorted by generator images
    as a search over the whole product would list them.  Nothing is kept
    between calls.

    decide.DEFAULT_CAP applies to the 4 |src|^2 entries of src's tables, checked
    before they are built, and to the |dst|^g assignments of dst's
    elements to the g generators, checked before any dst operation runs.
    """
    elems, index, tables = _tabulate(src)
    g, program = _derivation(src, index, tables)
    _check_cap(dst.size ** len(g), decide.DEFAULT_CAP, "generator assignments")
    source = (len(elems), tables, index[src.bot], index[src.top], g, program)
    if not isinstance(dst, ProductAlgebra):
        return [dict(zip(elems, h)) for h in _search(source, dst)]
    homs = {f: _search(source, f) for f in set(dst.factors)}
    # each map as a list of images, an image being a tuple over the factors
    maps = [list(zip(*coords))
            for coords in itertools.product(*[homs[f] for f in dst.factors])]
    maps.sort(key=lambda h: [h[x] for x in g])
    return [dict(zip(elems, h)) for h in maps]


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

