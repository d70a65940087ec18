"""The free algebra on k <= 1 generators by brute force: the test oracle.

The closure of the projections and the constants under the pointwise
operations, on the chain where k-variable term functions separate.  The
package computes free algebras through the dual and checks them by the
universal property; this independent construction stays with the tests.
"""

import itertools

from dplogic.algebra import DPChain
from dplogic.formula import Record


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
    already has more than 10^9 elements.  A function is a column, as in
    is_theorem: one byte lane per point of C^k.  Each round applies every
    operation, in both orders, to every element paired with every new one
    at once: the pairs' columns lie side by side in one long column, whose
    lanes x * size + y go through the operation's 256-byte table, tabulated
    from the chain's own operations.
    """
    if not 0 <= k <= 1:
        raise ValueError(f"free-algebra brute force is only feasible for k <= 1, got {k}")
    chain = DPChain(k + 3)
    s = chain.size
    points = list(itertools.product(chain.elements(), repeat=k))
    n = len(points)
    seed = {bytes([0] * n), bytes([chain.top] * n)}
    for i in range(k):
        seed.add(bytes(p[i] for p in points))
    tables = [bytes(op(x, y) for x in range(s) for y in range(s)).ljust(256, b"\0")
              for op in (chain.prod, chain.imp, chain.meet, chain.join)]
    elems = set(seed)
    frontier = list(seed)
    while frontier:
        known = list(elems)
        width = n * len(known) * len(frontier)
        x = int.from_bytes(b"".join(e * len(frontier) for e in known), "little")
        y = int.from_bytes(b"".join(frontier) * len(known), "little")
        fresh: set = set()
        for lanes in (x * s + y, y * s + x):
            lanes = lanes.to_bytes(width, "little")
            for table in tables:
                out = lanes.translate(table)
                fresh.update(out[i:i + n] for i in range(0, width, n))
        fresh -= elems
        elems |= fresh
        frontier = list(fresh)
    return FreeAlgebraTable(k, s, tuple(sorted(map(tuple, elems))))
