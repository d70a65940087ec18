"""The workloads: seeded `dp` requests of fixed composition.

A run's request list is one block; the run repeats the list in rounds
until its time is up, so each request is timed many times.  Every block
has the same mix of populations (requests of similar cost), shuffled by
the seed.
Populations are sized so that the median and the tail percentile each
fall inside one population, not on a boundary between two; README.md
tabulates the input properties.

The theorems whose sweeps set the median are fixed formula skeletons that
the seed disguises (`disguise`): a theorem's sweep cost depends on its
shape alone, so the seed changes the text of every request but not the
cost of the population the median falls in.

Only requests that the seed commit answers correctly within the deadline
are in the timed mix.  Known defects live in `known_defects()` and are run
by `run.py --defects`.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import Callable

from oracle import (Request, expected, ms_power, ms_product, ms_text, node_count,
                    render, var, variables)


def var_names(rng: random.Random, k: int) -> list[str]:
    """k distinct variable names such as `q`, `t7`."""
    names: set[str] = set()
    while len(names) < k:
        names.add(rng.choice(string.ascii_lowercase)
                  + rng.choice(("", "", str(rng.randrange(10)))))
    out = sorted(names)
    rng.shuffle(out)
    return out


def random_formula(rng: random.Random, names: list[str], leaves: int,
                   ops: tuple[str, ...] = ("&", "/\\", "\\/", "->"),
                   negate: float = 0.2) -> tuple:
    """A random formula whose leaves use every name at least once."""
    items = [var(n) for n in names]
    items += [var(rng.choice(names)) for _ in range(leaves - len(names))]
    rng.shuffle(items)
    while len(items) > 1:
        i = rng.randrange(len(items) - 1)
        node = (rng.choice(ops), items[i], items[i + 1])
        if rng.random() < negate:
            node = ("~", node)
        items[i:i + 2] = [node]
    return items[0]


def disjunction(parts: list[tuple], rng: random.Random) -> tuple:
    """Join the parts with \\/ in a random tree shape."""
    parts = list(parts)
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        parts[i:i + 2] = [("\\/", parts[i], parts[i + 1])]
    return parts[0]


def separating(names: list[str], rng: random.Random) -> tuple:
    """\\/_{i<j} (x_i <-> x_j), renamed, with pairs and sides permuted.

    With m variables it holds on every chain with fewer than m elements
    (two variables coincide) and fails on the m-chain under any
    injective valuation, so its smallest countermodel has size m.
    """
    pairs = [(a, b) if rng.random() < 0.5 else (b, a)
             for i, a in enumerate(names) for b in names[i + 1:]]
    rng.shuffle(pairs)
    return disjunction([("<->", var(a), var(b)) for a, b in pairs], rng)


# theorem schemas of DP logic: prelinearity, the characteristic axiom,
# weakening, K, and the five delta axioms
SCHEMAS: tuple[Callable[[tuple, tuple], tuple], ...] = (
    lambda a, b: ("\\/", ("->", a, b), ("->", b, a)),
    lambda a, b: ("\\/", a, ("~", ("^", a, 2))),
    lambda a, b: ("->", ("&", a, b), a),
    lambda a, b: ("->", a, ("->", b, a)),
    lambda a, b: ("\\/", ("D", a), ("~", ("D", a))),
    lambda a, b: ("->", ("D", a), a),
    lambda a, b: ("->", ("D", a), ("D", ("D", a))),
    lambda a, b: ("->", ("D", ("->", a, b)), ("->", ("D", a), ("D", b))),
    lambda a, b: ("->", ("D", ("\\/", a, b)), ("\\/", ("D", a), ("D", b))),
)


def schema_instance(rng: random.Random, k: int, nodes: range,
                    schemas: tuple[Callable, ...] = SCHEMAS) -> tuple:
    """A substitution instance of a theorem schema in exactly k variables,
    with a total node count inside `nodes` (the sweep cost is
    (k+3)^k points times the node count)."""
    names = var_names(rng, k)
    while True:
        schema = rng.choice(schemas)
        split = rng.randrange(1, k)
        a = random_formula(rng, names[:split + 1], rng.randrange(2, 9))
        b = random_formula(rng, names[split:], rng.randrange(2, 9))
        f = schema(a, b)
        if len(variables(f)) == k and node_count(f) in nodes:
            return f


COMMUTATIVE = ("&", "/\\", "\\/", "<->")


def disguise(f: tuple, rng: random.Random) -> tuple:
    """f with its variables renamed by a seeded bijection and the operands
    of commutative connectives swapped at random.  A full sweep visits the
    same points and nodes, so a theorem keeps its cost."""
    names = variables(f)
    fresh = dict(zip(names, var_names(rng, len(names))))

    def walk(g: tuple) -> tuple:
        op = g[0]
        if op == "v":
            return var(fresh[g[1]])
        if op in ("0", "1"):
            return g
        if op == "^":
            return ("^", walk(g[1]), g[2])
        if op in ("~", "D"):
            return (op, walk(g[1]))
        a, b = walk(g[1]), walk(g[2])
        return (op, b, a) if op in COMMUTATIVE and rng.random() < 0.5 else (op, a, b)

    return walk(f)


def skeleton(schema: int, variant: int) -> tuple:
    """A fixed 5-variable theorem of 21-23 nodes: the same for every seed."""
    return schema_instance(random.Random(f"skeleton/s{schema}/{variant}"), 5,
                           range(21, 24), (SCHEMAS[schema],))


# (schema, variant) of the theorems behind decide's median: prelinearity,
# the characteristic axiom and the delta axiom D(A) -> A,
# picked among a few variants each so that their sweeps cost the same
# within 3 % at the seed commit.  Costs that differ would put the median
# on a step between two of them, where one slow run moves it.
MEDIAN_SKELETONS = ((0, 1), (1, 4), (5, 3))


def thm(f: tuple, population: str, *, variety: int | None = None) -> Request:
    argv = ["thm", "--json", render(f)]
    if variety is not None:
        argv[1:1] = ["--variety", str(variety)]
    return Request(tuple(argv), 0, ("theorem", variety), population)


def refute(f: tuple, min_size: int, population: str) -> Request:
    return Request(("thm", "--json", render(f)), 1,
                   ("refute", f, min_size), population)


def thm_valid_block(rng: random.Random) -> list[Request]:
    # the separating formula of five variables holds inside the variety
    # of the 4-chain
    return [thm(disguise(skeleton(*sk), rng), "thm5") for sk in MEDIAN_SKELETONS] \
        + [thm(separating(var_names(rng, 5), rng), "cheap", variety=4)]


def thm_refute_block(rng: random.Random) -> list[Request]:
    # a lattice term a is 0 or top on the Boolean 2-chain and is the
    # coatom on the 3-chain when every variable is: a \/ ~a is refuted on
    # 3.  With a = b \/ z and z the last variable to occur, the sweep of
    # the (k+3)-chain is refuted at its second valuation, whatever b is.
    names = var_names(rng, rng.choice((5, 6)))
    a = ("\\/", random_formula(rng, names[:-1], len(names) - 1, ("/\\", "\\/"), 0),
         var(names[-1]))
    early = [refute(("\\/", a, ("~", a)), 3, "cheap"),
             refute(separating(var_names(rng, 5), rng), 5, "cheap")]
    # every injective valuation, and only those, refutes a separating
    # formula, so each of these costs the same whatever its shape
    return early + [refute(separating(var_names(rng, 6), rng), 6, "minimise6")
                    for _ in range(3)]


def _random_multiset(rng: random.Random, lengths: int, max_len: int,
                     max_mult: int) -> dict[int, int]:
    return {l: rng.randrange(1, max_mult + 1)
            for l in rng.sample(range(1, max_len + 1), lengths)}


def dual_block(rng: random.Random) -> list[Request]:
    def multiset_op(op, *operands, result):
        return Request(("dual", op) + tuple(operands), 0,
                       ("multiset", result), "arith")

    c = _random_multiset(rng, 6, 9, 5000)
    d = _random_multiset(rng, 5, 9, 5000)
    while True:
        # `dp dual power` caps its result at 10^6 chain instances
        base = _random_multiset(rng, 3, 4, 3)
        k = rng.randrange(4, 7)
        if sum(ms_power(base, k).values()) <= 10**6:
            break
    # hom counts of about 120 000 decimal digits each
    homcounts = []
    for _ in range(3):
        hc = {3: rng.randrange(17000, 18000), 6: rng.randrange(11500, 12500)}
        hd = {3: rng.randrange(5500, 6500), 4: rng.randrange(2800, 3200)}
        homcounts.append(Request(("dual", "homcount", ms_text(hc), ms_text(hd)), 0,
                                 ("homcount", hc, hd), "homcount"))
    free_k = rng.randrange(3, 7)
    n_chains, cls = rng.choice(((5, "mtl"), (5, "dp"), (4, "wnm")))
    inv = _random_multiset(rng, 3, 6, 4)
    arith = [
        multiset_op("product", ms_text(c), ms_text(d), result=ms_product(c, d)),
        multiset_op("coproduct", ms_text(c), ms_text(d),
                    result={l: c.get(l, 0) + d.get(l, 0) for l in c.keys() | d.keys()}),
        multiset_op("power", ms_text(base), str(k), result=ms_power(base, k)),
        Request(("dual", "inverse", ms_text(inv)), 0, ("inverse", inv), "arith"),
        Request(("free", str(free_k), "--json"), 0, ("free", free_k), "arith"),
        Request(("chains", str(n_chains), "--class", cls, "--json"), 0,
                ("chains", n_chains, cls, expected()["chains"][cls][str(n_chains)]),
                "arith"),
    ]
    check = Request(("check", "duality", "--json"), 0,
                    ("suite", "duality", expected()["suites"]["duality"]), "check")
    # the product first: set-up times it
    return arith[:1] + rng.sample(arith[1:], 1) + homcounts + [check, check]


# 1 Mbit printed in decimal, 3 s at the seed commit: too slow to repeat
# within a run, so only the traced replay runs it
FREE_7 = Request(("free", "7", "--json"), 0, ("free", 7), "free7")


def cli_block(rng: random.Random) -> list[Request]:
    x, y = var_names(rng, 2)
    one = render(random_formula(rng, [x], 2))
    two = render(random_formula(rng, [x, y], 3))
    c = _random_multiset(rng, 2, 4, 3)
    d = _random_multiset(rng, 2, 4, 3)
    k = rng.randrange(0, 3)
    cls = rng.choice(("mtl", "dp"))
    error = ("error",)

    def ok(*argv, expect, stdin=None):
        return Request(tuple(argv), 0, expect, "tiny", stdin)

    def bad(code, *argv, stdin=None):
        return Request(tuple(argv), code, error, "tiny", stdin)

    return [
        thm(("\\/", ("->", var(x), var(y)), ("->", var(y), var(x))), "tiny"),
        Request(("thm", "--json", f"{x} \\/ ~{x}"), 1, ("refute", ("\\/", var(x), ("~", var(x))), 3), "tiny"),
        thm(("\\/", var(x), ("~", var(x))), "tiny", variety=2),
        Request(("thm", "--json", "-"), 0, ("theorem", None), "tiny",
                stdin=f"{x} \\/ ~({x}^2)\n"),
        ok("free", str(k), "--json", expect=("free", k)),
        ok("dual", "product", ms_text(c), ms_text(d), expect=("multiset", ms_product(c, d))),
        ok("dual", "homcount", ms_text(c), ms_text(d), expect=("homcount", c, d)),
        ok("dual", "inverse", ms_text(c), expect=("inverse", c)),
        ok("chains", "3", "--class", cls, "--json",
           expect=("chains", 3, cls, expected()["chains"][cls]["3"])),
        bad(2, "thm", rng.choice((f"{one} \\/", f"({two}", f"{x} & & {y}", f"{x} $ {y}"))),
        bad(2, "thm", "-", stdin=f"{two} ->\n"),
        bad(3, "thm", "--cap", "10", two),
        bad(2, "dual", "product", "{a}", ms_text(d)),
        bad(2, "free", rng.choice(("x", "-k"))),
        bad(2, "thm", "--variety", "1", one),
        Request(("check", "axioms", "--json"), 0,
                ("suite", "axioms", expected()["suites"]["axioms"]), "suite"),
        Request(("check", "free", "--json"), 0,
                ("suite", "free", expected()["suites"]["free"]), "suite"),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    block: Callable[[random.Random], list[Request]]
    # the highest percentile with at least 10 timed runs beyond it (README.md)
    tail_pct: int
    # runs per round of a request, by population (default 1): the requests
    # that set the median run more often, so that their best run is taken
    # from about as many runs as the few costly ones behind the tail
    repeats: tuple[tuple[str, int], ...] = ()
    # requests the traced replay runs before the request list
    trace_extra: tuple[Request, ...] = ()

    def setup_request(self, seed: int) -> Request:
        """The request whose cold run times set-up: always the first kind
        in the block."""
        return self.block(random.Random(f"{self.name}/{seed}/setup"))[0]

    def requests(self, seed: int) -> list[Request]:
        """The run's request list, one block in seeded order; the same seed
        always gives the same list."""
        rng = random.Random(f"{self.name}/{seed}")
        block = self.block(rng)
        rng.shuffle(block)
        return block

    def runs_per_round(self, req: Request) -> int:
        return dict(self.repeats).get(req.population, 1)


def decide_block(rng: random.Random) -> list[Request]:
    """Theorems (full sweeps) and non-theorems (early exit, then minimising)."""
    return thm_valid_block(rng) + thm_refute_block(rng)


def dual_cli_block(rng: random.Random) -> list[Request]:
    """Duality and big-integer requests amid tiny start-up-bound ones."""
    return dual_block(rng) + cli_block(rng)


WORKLOADS = {w.name: w for w in (
    Workload("decide", decide_block, 67, repeats=(("thm5", 2),)),
    Workload("dual-cli", dual_cli_block, 95, trace_extra=(FREE_7,)),
)}


# Requests the seed commit gets wrong: each is a failure, never part of
# a timed mix.  Deadline overruns are killed at the run's deadline.
def known_defects() -> list[tuple[str, Request]]:
    seven = schema_instance(random.Random("defects"), 7, range(16, 22))
    return [
        ("nested negation overflows the parser's recursion",
         Request(("thm", "--json", "~" * 5000 + "(x -> x)"), 0, ("theorem", None),
                 "defect")),
        ("nested parentheses overflow the parser's recursion",
         Request(("thm", "--json", "(" * 3000 + "x" + ")" * 3000), 1,
                 ("refute", var("x"), 2), "defect")),
        ("a 7-variable theorem sweeps 10^7 points",
         thm(seven, "defect")),
        ("free 8 --mode closed converts a 12.6-Mbit integer to decimal",
         Request(("free", "8", "--mode", "closed", "--json"), 0, ("free", 8), "defect")),
    ]
