"""Finite chain and product algebras for drastic-product many-valued logic.

Elements of a chain of size n are the ranks 0..n-1 with 0 the bottom and
n-1 the top, so no floating point is involved anywhere.  A drastic-product
chain multiplies any two non-top elements to 0 and otherwise behaves as
min; its residuum collapses every strict comparison below the top to the
coatom.  General finite MTL-chains are given by an explicit product table
and get their residuum computed.  Finite products of drastic-product
chains act pointwise on rank tuples.

All algebra values are immutable, and sweeps and searches are pure and
keep nothing between calls, so everything here is safe to share between
threads.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping
from functools import reduce

from .formula import (
    Compiled, Formula, Iff, Neg, Or, Power, Record, Var, compile, parse,
)
from .formula import variables  # noqa: F401  (callers read algebra.variables)

DEFAULT_CAP = 10**7

SIMPLICITY_SIZE_CAP = 64


class CapExceeded(RuntimeError):
    """A call would build more than one of its caps allows (_check_cap)."""


class EvaluationError(ValueError):
    """Unbound variable, or the projection D applied outside a DP algebra."""


def _count_text(n: int) -> str:
    """A count for a CapExceeded message: in full up to 20 digits, else
    bounded, as "at least" its first four digits in e-notation."""
    if n < 10**20:
        return str(n)
    e = int(math.log10(n))  # the float may land one off near a power of ten
    e += (10 ** (e + 1) <= n) - (10 ** e > n)
    lead = str(n // 10 ** (e - 3))
    return f"at least {lead[0]}.{lead[1:]}e{e}"


def _check_cap(count, cap: int, what: str) -> None:
    """Refuse a count past its cap, as "<count> <what> exceed the cap of
    <cap>".  The count (points, table entries, bits, ...) is computed
    without expanding what it counts.  A float one, a sum of bits with each
    factor past 2**64 counted as 2**64 to keep it finite, prints its
    integer part."""
    if count > cap:
        raise CapExceeded(f"{_count_text(int(count))} {what} exceed the cap of {cap}")


class _Chain:
    """What every finite chain shares: ranks 0..size-1 ordered as numbers,
    with min and max as the lattice operations and ~x = x -> 0."""

    __slots__ = ()
    bot = 0

    @property
    def top(self) -> int:
        return self.size - 1

    @property
    def coatom(self) -> int:
        # for the two-element chain the coatom is the bottom
        return self.size - 2

    def elements(self) -> range:
        return range(self.size)

    def meet(self, x: int, y: int) -> int:
        return min(x, y)

    def join(self, x: int, y: int) -> int:
        return max(x, y)

    def neg(self, x: int) -> int:
        return self.imp(x, 0)


class DPChain(_Chain, Record):
    """The n-element drastic-product chain (n >= 2)."""

    __slots__ = ("size",)
    size: int
    supports_delta = True

    def __post_init__(self):
        if self.size < 2:
            raise ValueError(f"chain needs at least 2 elements, got {self.size}")

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


Algebra = DPChain | FiniteMTLChain | ProductAlgebra

# a valuation is a plain mapping from variable names to algebra elements
Valuation = Mapping[str, object]


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


def _operations(algebra: Algebra) -> dict:
    # the slot code's operations, bound to the algebra's
    return {"&": algebra.prod, "->": algebra.imp, "/\\": algebra.meet, "\\/": algebra.join}


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
    slot code.  The |A|^k points are counted against DEFAULT_CAP before
    any element of the algebra A is listed.
    """
    names, code, root = _bound(f, algebra)
    k = len(names)
    _check_cap(algebra.size ** k, DEFAULT_CAP, "valuations")
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


def _tabulate(algebra: Algebra) -> tuple[list, dict, list[list[int]]]:
    """Number the elements and tabulate *, =>, meet and join on the numbers.

    tables[t][x * n + y] is the number of the t-th operation applied to
    elements x and y.  The tables hold 4 n^2 entries; when that exceeds
    DEFAULT_CAP, CapExceeded is raised before any is built.
    """
    _check_cap(4 * algebra.size ** 2, DEFAULT_CAP, "table entries")
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

    DEFAULT_CAP applies to the 4 |src|^2 entries of src's tables, checked
    before they are built, and to the |dst|^g assignments of dst's
    elements to the g generators, checked before any dst operation runs.
    """
    elems, index, tables = _tabulate(src)
    g, program = _derivation(src, index, tables)
    _check_cap(dst.size ** len(g), DEFAULT_CAP, "generator assignments")
    source = (len(elems), tables, index[src.bot], index[src.top], g, program)
    if not isinstance(dst, ProductAlgebra):
        return [dict(zip(elems, h)) for h in _search(source, dst)]
    homs = {f: _search(source, f) for f in set(dst.factors)}
    # each map as a list of images, an image being a tuple over the factors
    maps = [list(zip(*coords))
            for coords in itertools.product(*[homs[f] for f in dst.factors])]
    maps.sort(key=lambda h: [h[x] for x in g])
    return [dict(zip(elems, h)) for h in maps]


# a column of n points is an n-byte string, one byte (lane) per point;
# ranks stay below 128, which leaves bit 7 of a lane as _Lanes' guard
_LANE = tuple(bytes((x,)) for x in range(128))

# what the columns of one block may take together, in bytes
_BLOCK_BYTES = 1 << 20


class _Prefixes:
    """The prefix tree of the exact valuations of k variables on the
    size-chain, each rank x written as the byte image[x].

    Exact means that the values generate the whole chain: any values on
    the 2-chain; the coatom among them on the 3-chain; every rank strictly
    between 0 and the coatom among them on a longer chain (the coatom is
    then a negation).  A node is a prefix of length i with the set of
    ranks 1..need it still misses (bit r set while rank r has not
    occurred).  Prefixes that leave too few variables for the ranks still
    missing are cut, so no inexact valuation is ever built.
    """

    def __init__(self, k: int, size: int, image: bytes = bytes(range(128))):
        self.k, self.size, self.image = k, size, image
        self.need = size - 3 if size > 3 else size - 2  # ranks 1..need must occur
        self.root = ((1 << self.need) - 1) << 1  # at the root, all are missing
        self._counts: dict = {}
        self._fans: dict = {}
        self._memo: dict = {}
        self._held = 0  # bytes in _memo, which is emptied when they pass _BLOCK_BYTES

    def count(self, i: int, m: int) -> int:
        """Completions of a prefix of length i that misses m ranks; how
        many are missing matters, not which."""
        got = self._counts.get((i, m))
        if got is None:
            room = self.k - i
            if not room:
                got = int(not m)
            else:
                got = (((self.size - m) * self.count(i + 1, m) if m < room else 0)
                       + (m * self.count(i + 1, m - 1) if m else 0))
            self._counts[i, m] = got
        return got

    def fan(self, i: int, missing: int) -> tuple[bytes, list[int], list[int]]:
        """The children of a node of length i: their values, and per child
        the ranks it misses and its completions."""
        got = self._fans.get((i, missing))
        if got is None:
            xs, lefts = [], []
            for x in range(self.size):
                left = missing & ~(1 << x)
                if left.bit_count() < self.k - i:
                    xs.append(self.image[x])
                    lefts.append(left)
            got = self._fans[i, missing] = (
                bytes(xs), lefts, [self.count(i + 1, left.bit_count()) for left in lefts])
        return got

    def suffix(self, i: int, missing: int) -> tuple[bytes, ...]:
        """Columns i..k-1 of the subtree below a node of length i."""
        cols = self._memo.get((i, missing))
        if cols is None:
            parts: list[list[bytes]] = [[] for _ in range(self.k - i)]
            for x, left, c in zip(*self.fan(i, missing)):
                parts[0].append(_LANE[x] * c)
                for part, col in zip(parts[1:], self.suffix(i + 1, left)):
                    part.append(col)
            cols = tuple(map(b"".join, parts))
            if self._held > _BLOCK_BYTES:
                self._memo.clear()
                self._held = 0
            self._memo[i, missing] = cols
            self._held += sum(map(len, cols))
        return cols


def _exact_blocks(tree: _Prefixes, limit: int,
                  found: Iterable[tuple[bytes, int]] | None = None):
    """The exact valuations of the tree, in lexicographic order and each
    rank x written as the byte tree.image[x], as blocks of byte columns;
    with found, only the points below its nodes, (prefix, missing) pairs
    in that order.

    Yields (n, columns): n points, and per variable an n-byte column whose
    p-th byte is its value at the block's p-th point.  A block is a run of
    whole subtrees of the prefix tree.  The first holds one point and each
    later one at most four times as many as the one before, up to `limit`
    points, so a refutation met early costs little.  A subtree's columns
    are joined from its children's and remembered by (variable index,
    ranks still missing) up to _BLOCK_BYTES, so memory stays bounded
    however many points the chain has.
    """
    target = 1

    def subtrees(i: int, missing: int, prefix: bytes):
        # the largest subtrees that fit in the block being filled
        if tree.count(i, missing.bit_count()) <= target:
            yield prefix, missing
        else:
            xs, lefts, _ = tree.fan(i, missing)
            for x, left in zip(xs, lefts):
                yield from subtrees(i + 1, left, prefix + _LANE[x])

    block: list = []
    n = 0
    for node, missing in [(b"", tree.root)] if found is None else found:
        for prefix, missing in subtrees(len(node), missing, node):
            i = len(prefix)
            c = tree.count(i, missing.bit_count())
            if n + c > target:
                yield n, _join(block)
                block, n = [], 0
                target = min(4 * target, limit)
            block.append([_LANE[x] * c for x in prefix] + list(tree.suffix(i, missing)))
            n += c
    yield n, _join(block)


def _join(block: list[list[bytes]]) -> list[bytes]:
    # the subtrees' columns, variable by variable
    return [b"".join(col) for col in zip(*block)]


# How far _surviving looks.  Chains of more than _SMALL exact points are
# tested in runs that share their passes; a run holds at most _RUN points,
# or as many as all chains before it, so a refutation leaves little shared
# work behind.
# A run starts at the shortest prefix length that gives it _JUMP prefixes.
# Its first pass takes at most _FIRST_PASS prefixes and each later pass at
# most four times as many, while their children fit in a block.  The
# survivors of a pass are tested a level deeper while they cover at most
# _FEW points, or while the prefixes the run has tested stay within a
# quarter of the points it has pruned plus 1/_SLACK of its points; the
# rest is swept.
_SMALL = 64
_RUN = 1 << 14
_JUMP = 32
_FIRST_PASS = 64
_FEW = 2048
_SLACK = 1024


def _surviving(trees: list[_Prefixes], points: list[int], limit: int, keep):
    """The nodes of the trees that keep leaves, as (tree, prefix,
    missing): chain by chain, each chain's in lexicographic order.
    points[j] is the number of leaves of trees[j].

    keep(i, n, columns) gets n prefixes of length i, as i columns of n
    bytes, and returns n bytes, 0 for a prefix none of whose completions
    needs a sweep.  Nothing below a prefix it rules out is built.  Before
    each pass (tree, None, None) names the chain of its first prefix: the
    chains before it are done.
    """
    k = trees[0].k
    width = fanout = tested = pruned = slack = 0
    ahead = None

    def grow(i: int, rows: bytes, owners: list, misses: list[int], live: Iterable[int]):
        # the children of the prefixes rows[r] (i bytes each), r in live
        heads, tails, kids, lefts, counts = [], [], [], [], []
        for r in live:
            tree = owners[r]
            xs, more, cs = tree.fan(i, misses[r])
            heads.append((rows[r * i:r * i + i] + b"\0") * len(xs))
            tails.append(xs)
            kids += [tree] * len(xs)
            lefts += more
            counts += cs
        out = bytearray(b"".join(heads))
        out[i::i + 1] = b"".join(tails)
        return i + 1, bytes(out), kids, lefts, counts

    def walk(i: int, rows: bytes, owners: list, misses: list[int], counts: list[int]):
        nonlocal width, ahead, tested, pruned
        start = 0
        while start < len(misses):
            if owners[start] is not ahead:
                ahead = owners[start]
                yield ahead, None, None
            n = len(misses) - start
            if n > 2 * width:
                n = width
            part = rows[start * i:(start + n) * i]
            live = list(itertools.compress(range(start, start + n),
                                           keep(i, n, [part[j::i] for j in range(i)])))
            width = min(4 * width, max(1, limit // fanout))
            points = sum(counts[r] for r in live)
            tested += n
            pruned += sum(counts[start:start + n]) - points
            start += n
            if i < k and (points <= _FEW
                          or tested + len(live) * fanout <= slack + pruned // 4):
                yield from walk(*grow(i, rows, owners, misses, live))
            else:
                for r in live:
                    yield owners[r], rows[r * i:r * i + i], misses[r]

    runs: list[tuple[list, list[int]]] = []  # chains and their points
    before = 0  # points in the chains before the last run
    for tree, n in zip(trees, points):
        if not n:
            continue
        held = sum(runs[-1][1]) if runs else 0
        if min(n, held) > _SMALL and held + n <= max(_RUN, before):
            runs[-1][0].append(tree)
            runs[-1][1].append(n)
        else:
            before += held
            runs.append(([tree], [n]))
    for run, counts in runs:
        level = (0, b"", run, [t.root for t in run], counts)
        while level[0] + 1 < k and len(level[3]) < _JUMP:
            level = grow(*level[:4], range(len(level[3])))
        width, fanout, tested, pruned = _FIRST_PASS, run[-1].size, 0, 0
        slack = sum(counts) // _SLACK
        yield from walk(*level)


class _Lanes:
    """A formula's slot code on byte lanes of C_last, on points or on the
    intervals that prefixes leave.

    Bound slot 2s holds a lower bound of slot s and 2s+1 an upper bound.
    A prefix of length i leaves variables i..k-1 free, at [0, top].  Every
    operation is monotone in both arguments except ->, which is antitone
    in its antecedent, so x -> y lies between hi(x) -> lo(y) and
    lo(x) -> hi(y).  Only the bounds that the root's lower bound reads are
    computed, and bounds that no assigned variable reaches are folded to
    constants once per prefix length, by the chain's own operations.  On
    whole points (i = k) each slot has one value, kept as its lower bound.
    """

    def __init__(self, program: Compiled, last: int):
        chain = DPChain(last)
        self.top, self.k = chain.top, len(program.names)
        self.ops = _operations(chain)
        first = 2 + self.k
        self.slots = 2 * (first + len(program.code))
        self.root = 2 * program.root
        read = [False] * self.slots
        read[self.root] = True
        steps = []
        for out in range(first + len(program.code) - 1, first - 1, -1):
            op, a, b = program.code[out - first]
            flip = op == "->"
            for hi in (1, 0):
                if read[2 * out + hi]:
                    x, y = 2 * a + (hi ^ flip), 2 * b + hi
                    read[x] = read[y] = True
                    steps.append((op, x, y, 2 * out + hi))
        self.steps = steps[::-1]
        self.points = [(op, 2 * a, 2 * b, 2 * out)
                       for out, (op, a, b) in enumerate(program.code, first)]
        self.folded: dict = {}

    def _fold(self, i: int):
        # for prefixes of length i: the constant of every bound slot that
        # no assigned variable reaches, the constants the lane steps read,
        # the lane steps, and whether the root varies
        got = self.folded.get(i)
        if got is None:
            w = [0] * self.slots
            w[2] = w[3] = self.top
            for j in range(2 + i, 2 + self.k):
                w[2 * j + 1] = self.top
            varying = set(range(4, 4 + 2 * i))
            code = []
            for step in self.points if i == self.k else self.steps:
                op, x, y, out = step
                if x in varying or y in varying:
                    varying.add(out)
                    code.append(step)
                else:
                    w[out] = self.ops[op](w[x], w[y])
            spread = {z for _, x, y, _ in code for z in (x, y)} - varying
            got = self.folded[i] = w, sorted(spread), code, self.root in varying
        return got

    def lower(self, i: int, n: int, cols: list[bytes]) -> tuple[int, int]:
        """The root's lower bound on n lanes, where cols are the columns
        of variables 0..i-1, as elements of C_last, and the lanes where it
        is below the top, marked by bit 7.  Lane p is byte p of an int;
        ranks stay below 128, so bit 7 is a guard that no borrow crosses,
        and every operation is chosen lane by lane from comparisons."""
        w, spread, code, varies = self._fold(i)
        ones = int.from_bytes(b"\1" * n, "little")
        h, top, coatom = 0x80 * ones, self.top * ones, (self.top - 1) * ones

        def atmost(x: int, y: int) -> int:
            # 0xff in the lanes where x <= y, else 0
            return ((((y | h) - x) & h) >> 7) * 255

        v = w[:]
        for z in spread:
            v[z] = w[z] * ones
        for j, col in enumerate(cols, 2):
            v[2 * j] = v[2 * j + 1] = int.from_bytes(col, "little")
        for op, x, y, out in code:
            a, b = v[x], v[y]
            if op == "&":  # min(a, b) where either is the top, else 0
                v[out] = (b & atmost(top, a)) | (a & atmost(top, b))
            elif op == "->":  # the top where a <= b, else b if a is the top, else the coatom
                got = coatom ^ ((coatom ^ b) & atmost(top, a))
                v[out] = got ^ ((got ^ top) & atmost(a, b))
            else:  # a where a <= b for the meet, b for the join
                v[out] = (b if op == "/\\" else a) ^ ((a ^ b) & atmost(a, b))
        root = v[self.root] if varies else w[self.root] * ones
        return root, ((coatom | h) - root) & h


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
    chain.  The sweep is column-wise, after both halves of Lamport's
    *Multiple byte processing with full-word instructions* (1975): a
    block of points holds each value as one byte (lane) of a column, read
    as a little-endian integer, and each DP-chain operation, decided by
    comparisons, is a few full-word steps on all lanes at once, with bit 7
    of each lane as its guard (_Lanes.lower).  Chains above 128 elements
    (k >= 126) do not fit a lane and raise CapExceeded whatever the cap.

    Prefixes of valuations are tested before their columns are built.
    Every operation is monotone in each argument, except -> in its
    antecedent, where it is antitone, so the slot code run on intervals,
    each unassigned variable at [0, top], bounds every completion of a
    prefix (_Lanes).  A prefix whose root has the top as its lower bound
    holds at every completion: its subtree is dropped unbuilt, and only
    the surviving subtrees are swept (_surviving says how deep the bounds
    look).  No prefix that could refute is dropped, so the countermodel is
    the one above, and the cap still counts every exact valuation.
    """
    program = compile(f)
    return _exact_sweep(program, len(program.names) + 3, cap)


def is_theorem_in_variety(f: Formula, n: int, cap: int = DEFAULT_CAP) -> Verdict:
    """Validity in V_n, the subvariety generated by the n-element DP-chain.

    C_n generates V_n and its subalgebras are the C_s with s <= n, so by
    is_theorem's argument f is valid in V_n iff no exact valuation on
    C_2, ..., C_min(n, k+3) refutes it.  The same sweep decides it, with
    the same countermodel (the lexicographically first on the smallest
    refuting chain) and the same cap on exact points; for n >= k+3 the
    verdict is is_theorem's.
    """
    if n < 2:
        raise ValueError(f"variety index must be >= 2, got {n}")
    program = compile(f)
    return _exact_sweep(program, min(n, len(program.names) + 3), cap)


def _exact_sweep(program: Compiled, last: int, cap: int) -> Verdict:
    # the exact valuations of C_2, ..., C_last, column-wise and bounded,
    # as is_theorem describes
    from .duality import free_coefficient  # duality imports this module

    k = len(program.names)
    # the lane limit first: it refuses a wide formula whatever the cap,
    # without summing its huge point count
    _check_cap(last, len(_LANE), f"elements of the chain for {k} variables")
    sizes = range(2, last + 1)
    # the exact points of C_s number the (s-1)-chains of the free dual
    points = [free_coefficient(k, s - 1) for s in sizes]
    _check_cap(sum(points), cap, "valuations")
    # every chain runs on C_last's lanes, its ranks mapped by find_embedding
    lanes = _Lanes(program, last)
    trees = [_Prefixes(k, s, bytes(find_embedding(DPChain(s), DPChain(last)))) for s in sizes]
    # the block size that keeps every column of a block within the budget
    limit = max(1, _BLOCK_BYTES // (2 + k + len(program.code)))

    def keep(i: int, n: int, cols: list[bytes]) -> bytes:
        return lanes.lower(i, n, cols)[1].to_bytes(n, "little")

    found = _surviving(trees, points, limit, keep)
    for tree, group in itertools.groupby(found, key=lambda node: node[0]):
        nodes = (node[1:] for node in group if node[1] is not None)
        for n, cols in _exact_blocks(tree, limit, nodes):
            if not n:
                continue
            values, refuted = lanes.lower(k, n, cols)
            if refuted:
                # the first refuting lane: its bit 7 is refuted's lowest
                p = (refuted & -refuted).bit_length() // 8 - 1
                rank = tree.image.index
                return Verdict(False, DPChain(tree.size),
                               {name: rank(col[p]) for name, col in zip(program.names, cols)},
                               rank((values >> 8 * p) & 255))
    return Verdict(True)


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
