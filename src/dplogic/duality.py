"""The dual category of finite DP-algebras: multisets of finite chains.

An object is a finite multiset of nonempty finite chains, stored
canonically as (length, multiplicity) pairs with strictly increasing
lengths.  A morphism assigns to each source chain a target chain and a
monotone surjection onto it whose top fiber is the singleton source
maximum (no constraint when the target chain has one element).  Products
in this category compute coproducts of algebras, which is what makes
free-algebra duals a simple power computation.

Multiplicities are exact Python integers throughout; nothing here is
floating point and all values are immutable.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping
from functools import cache

from .algebra import ProductAlgebra, _check_cap
from .formula import ParseError, Record

POWER_INSTANCE_CAP = 10**6

# bits an answer and the binomials it is built from may have; past them
# the binomials or the decimal digits of a count take seconds
COUNT_BITS_CAP = 2**20
INVERSE_BITS_CAP = 2**18
PRODUCT_BITS_CAP = 2**25

ENUM_INSTANCE_CAP = 8

ENUM_LENGTH_CAP = 8

# the 2^16 morphisms of eight 5-chains into {2,3} take about 2 s (Python 3.11)
ENUM_MORPHISM_CAP = 2**16

FREE_CARDINALITY_CAP = 8


class MultisetObj(Record):
    """A finite multiset of finite chains, keyed by chain length."""

    __slots__ = ("chains",)
    _defaults = {"chains": ()}
    chains: tuple[tuple[int, int], ...]

    def __post_init__(self):
        merged: dict[int, int] = {}
        for length, mult in self.chains:
            if length < 1:
                raise ValueError(f"chain length must be >= 1, got {length}")
            if mult < 0:
                raise ValueError(f"multiplicity must be >= 0, got {mult}")
            if mult:
                merged[length] = merged.get(length, 0) + mult
        object.__setattr__(self, "chains",
                           tuple(sorted(merged.items())))

    @classmethod
    def from_lengths(cls, lengths: Iterable[int]) -> "MultisetObj":
        return cls(tuple((l, 1) for l in lengths))

    @classmethod
    def from_counts(cls, counts: Mapping[int, int]) -> "MultisetObj":
        return cls(tuple(counts.items()))

    def lengths(self) -> list[int]:
        """All chain instances, expanded in increasing order of length."""
        return [l for l, m in self.chains for _ in range(m)]

    def instance_count(self) -> int:
        return sum(m for _, m in self.chains)

    def __bool__(self) -> bool:
        return bool(self.chains)

    def __str__(self) -> str:
        if not self.chains:
            return "{}"
        if self.instance_count() <= 12:
            return "{" + ",".join(str(l) for l in self.lengths()) + "}"
        return "{" + ",".join(f"{l}:{m}" for l, m in self.chains) + "}"


# the chains slot's own setter, which Record's refusal of assignment
# does not reach
_set_chains = MultisetObj.chains.__set__


def _canonical(chains: tuple[tuple[int, int], ...]) -> MultisetObj:
    # chains already canonical (lengths >= 1 strictly increasing, each with
    # a positive multiplicity), stored without a second check and sort
    out = object.__new__(MultisetObj)
    _set_chains(out, chains)
    return out


EMPTY = MultisetObj()

TERMINAL = MultisetObj.from_lengths([1])

# dual of the free one-generated algebra: two Booleans, a 3-chain, a 4-chain
FREE_ONE_DUAL = MultisetObj.from_lengths([1, 1, 2, 3])


def coproduct(c: MultisetObj, d: MultisetObj) -> MultisetObj:
    """Disjoint union; dually, the direct product of the algebras."""
    return MultisetObj(c.chains + d.chains)


def top_lift(c: MultisetObj) -> MultisetObj:
    """Add a fresh maximum to every chain: each length grows by one."""
    return MultisetObj(tuple((l + 1, m) for l, m in c.chains))


@cache
def _pair_bits(a: int, b: int) -> int:
    # {a} x {b} for 3 <= a <= b has a - 1 multiplicities C(a+b-4-d, a-2) C(a-2, d),
    # each below C(a+b-4, a-2) 2^(a-2) < (e (a+b-4) / (a-2))^(a-2) 2^(a-2)
    a, b = min(a, b), max(a, b)
    return 0 if a <= 2 else (a - 1) * (a - 2) * math.ceil(
        math.log2(a + b - 4) - math.log2(a - 2) + 2.443)


@cache
def _singleton_product(a: int, b: int) -> tuple[tuple[int, int], ...]:
    # product of two single chains; commutative, so normalize the order
    if a > b:
        a, b = b, a
    if a <= 2:
        return ((b, 1),)
    # the closed form that product describes, shortest length first
    return tuple((a + b - 2 - d,
                  math.comb(a + b - 4 - d, d) * math.comb(a + b - 4 - 2 * d, a - 2 - d))
                 for d in range(a - 2, -1, -1))


def product(c: MultisetObj, d: MultisetObj) -> MultisetObj:
    """Categorical product: distribute over the multiset, then multiply
    single chains.

    {a} x {1} = {a}, {a} x {2} = {a} for a >= 2, and for 3 <= a <= b,
    solving the recursion that lifts the three products of predecessors,
    {a} x {b} has C(a+b-4-d, d) C(a+b-4-2d, a-2-d) chains of length
    a+b-2-d for d = 0..a-2.  Anything times the empty object is empty.
    Past PRODUCT_BITS_CAP bits of multiplicities, counted for each pair of
    chains before it is built, CapExceeded refuses the product.
    """
    merged: dict[int, int] = {}
    get = merged.get
    bits = 0
    for la, ma in c.chains:
        for lb, mb in d.chains:
            bits += _pair_bits(la, lb)
            _check_cap(bits, PRODUCT_BITS_CAP, "bits of product multiplicities")
            m = ma * mb
            for l, k in _singleton_product(la, lb):
                merged[l] = get(l, 0) + m * k
    # canonical operands give positive counts
    return _canonical(tuple(sorted(merged.items())))


def power(c: MultisetObj, k: int) -> MultisetObj:
    """k-fold product of c with itself; power(c, 0) is the terminal {1}.

    A step that leaves the result unchanged ({}, {1} or {2} as c) leaves
    every later one so and ends the loop; any other c at least doubles
    the instance count per step, so POWER_INSTANCE_CAP ends it within about 20 steps."""
    if k < 0:
        raise ValueError(f"power wants a nonnegative exponent, got {k}")
    out = TERMINAL
    for _ in range(k):
        out, last = product(out, c), out
        if out == last:
            break
        _check_cap(out.instance_count(), POWER_INSTANCE_CAP, "chain instances of a power")
    return out


def mc_inverse(c: MultisetObj) -> ProductAlgebra:
    """The algebra dual to c: a product of chains of sizes length + 1,
    refused past INVERSE_BITS_CAP bits of elements."""
    if not c:
        raise ValueError("the empty multiset dualizes the trivial algebra, "
                         "which has no product-of-chains form")
    _check_cap(sum(min(m, 2**64) * math.log2(l + 1) for l, m in c.chains),
               INVERSE_BITS_CAP, "bits of element count")
    return ProductAlgebra(l + 1 for l in c.lengths())


def height(c: MultisetObj) -> int:
    """Maximum chain length; undefined for the empty multiset."""
    if not c:
        raise ValueError("the empty multiset has no height")
    return max(l for l, _ in c.chains)


def surjection_count(a: int, b: int) -> int:
    """Monotone surjections from an a-chain onto a b-chain with the top
    fiber pinned to the maximum (no pin when b = 1)."""
    if b == 1:
        return 1
    if a < b:
        return 0
    return math.comb(a - 2, b - 2)


def monotone_surjections(a: int, b: int) -> list[tuple[int, ...]]:
    """All maps counted by surjection_count, as rank arrays."""
    if b == 1:
        return [(0,) * a]
    if a < b:
        return []
    out = []
    # block boundaries; the top block is always the bare source maximum
    for inner in itertools.combinations(range(1, a - 1), b - 2):
        cuts = inner + (a - 1,)
        mapping = []
        value = 0
        for rank in range(a):
            if value < len(cuts) and rank == cuts[value]:
                value += 1
            mapping.append(value)
        out.append(tuple(mapping))
    return out


class MCMorphism(Record):
    """A family of component surjections, one per source chain instance.

    components[i] = (j, map) sends the i-th source instance (in canonical
    expanded order) onto the j-th target instance via the given rank map.
    """

    __slots__ = ("source", "target", "components")
    source: MultisetObj
    target: MultisetObj
    components: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self):
        src = self.source.lengths()
        tgt = self.target.lengths()
        if len(self.components) != len(src):
            raise ValueError("one component per source chain instance required")
        for a, (j, mapping) in zip(src, self.components):
            if not 0 <= j < len(tgt):
                raise ValueError(f"target index {j} out of range")
            b = tgt[j]
            if len(mapping) != a:
                raise ValueError("component map must cover every source rank")
            if any(not 0 <= v < b for v in mapping):
                raise ValueError("component map value out of target range")
            if any(x > y for x, y in zip(mapping, mapping[1:])):
                raise ValueError("component map must be order preserving")
            if set(mapping) != set(range(b)):
                raise ValueError("component map must be surjective")
            if b > 1 and mapping.count(b - 1) != 1:
                raise ValueError("top fiber must be the source maximum alone")


def morphism_count(c: MultisetObj, d: MultisetObj) -> int:
    """|Hom(c, d)|: each source instance independently picks a target
    instance and one of the admissible surjections onto it, refused past
    COUNT_BITS_CAP bits of binomials and answer, each counted unbuilt."""
    if c and (not d or c.chains[0][0] < d.chains[0][0]):
        return 0  # the shortest source chain has no target
    bits, total = 0, 1
    for a, m in c.chains:
        choices = 0
        for b, mb in d.chains:
            if b > a:
                break
            # surjection_count(a, b) = C(a-2, k) < (e (a-2) / k)^k
            k = min(b - 2, a - b)
            if k > 0:
                bits += min(k, 2**64) * (math.log2(a - 2) - math.log2(k) + 1.443)
                _check_cap(bits, COUNT_BITS_CAP, "bits of hom count")
            choices += mb * surjection_count(a, b)
        bits += min(m, 2**64) * math.log2(choices)  # choices >= 1: the shortest target fits
        _check_cap(bits, COUNT_BITS_CAP, "bits of hom count")
        total *= choices ** m
    return total


def enumerate_morphisms(c: MultisetObj, d: MultisetObj) -> list[MCMorphism]:
    """All morphisms c -> d, literally as indexed families, refused past
    ENUM_MORPHISM_CAP by morphism_count before any is built."""
    _check_cap(max(c.instance_count(), d.instance_count()), ENUM_INSTANCE_CAP,
               "chain instances of an object")
    _check_cap(max((l for l, _ in c.chains + d.chains), default=0), ENUM_LENGTH_CAP,
               "elements of the longest chain")
    _check_cap(morphism_count(c, d), ENUM_MORPHISM_CAP, "morphisms")
    tgt = d.lengths()
    per_instance = []
    for a in c.lengths():
        choices = [(j, mapping)
                   for j, b in enumerate(tgt)
                   for mapping in monotone_surjections(a, b)]
        per_instance.append(choices)
    return [MCMorphism(c, d, family)
            for family in itertools.product(*per_instance)]


def free_dual(k: int) -> MultisetObj:
    """Dual of the free k-generated algebra: the k-th power of {1,1,2,3}."""
    return power(FREE_ONE_DUAL, k)


def free_coefficient(k: int, h: int) -> int:
    """Multiplicity of the h-chain in the dual of the free k-generated
    algebra, by the closed form; 0 whenever h > k + 2."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    if h < 1:
        raise ValueError(f"need h >= 1, got {h}")
    if h == 1:
        return 2 ** k
    if h == 2:
        return 3 ** k - 2 ** k
    if h > k + 2:
        return 0
    return sum((-1) ** i * math.comb(h - 2, i) * (h + 1 - i) ** k
               for i in range(h - 1))


def free_dual_closed_form(k: int) -> MultisetObj:
    """free_dual computed from the closed-form coefficients alone."""
    return MultisetObj.from_counts(
        {h: free_coefficient(k, h) for h in range(1, k + 3)})


def free_dual_recurrence(k: int) -> MultisetObj:
    """free_dual computed by stepping the coefficient recurrence from k=0.

    One power of the base multiset sends a_1 to 2a_1, a_2 to a_1 + 3a_2,
    a_3 to a_1 + a_2 + 4a_3 and a_h to (h-2)a_{h-1} + (h+1)a_h above.
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    coeff = {1: 1}
    for _ in range(k):
        nxt = {1: 2 * coeff.get(1, 0),
               2: coeff.get(1, 0) + 3 * coeff.get(2, 0),
               3: coeff.get(1, 0) + coeff.get(2, 0) + 4 * coeff.get(3, 0)}
        for h in range(4, max(coeff) + 2):
            nxt[h] = (h - 2) * coeff.get(h - 1, 0) + (h + 1) * coeff.get(h, 0)
        coeff = {h: m for h, m in nxt.items() if m}
    return MultisetObj.from_counts(coeff)


def free_cardinality(k: int) -> int:
    """Number of elements of the free k-generated algebra, exactly."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    _check_cap(k, FREE_CARDINALITY_CAP, "generators")
    return math.prod((h + 1) ** free_coefficient(k, h) for h in range(1, k + 3))


def kx3_identity_check(k: int) -> bool:
    """Does {k} x {3} come out as (k-1) copies of {k+1} plus (k-2) of {k}?"""
    if not 2 <= k <= 20:
        raise ValueError(f"identity check wants 2 <= k <= 20, got {k}")
    lhs = product(MultisetObj.from_lengths([k]), MultisetObj.from_lengths([3]))
    rhs = MultisetObj.from_counts({k + 1: k - 1, k: k - 2})
    return lhs == rhs


def multiset_to_json(c: MultisetObj) -> dict:
    return {"chains": [{"len": l, "mult": m} for l, m in c.chains]}


def multiset_from_json(data) -> MultisetObj:
    """Read back what multiset_to_json writes; any other shape, or a length
    or multiplicity that is not an integer, is a ParseError."""
    chains = data.get("chains") if isinstance(data, dict) else None
    if not isinstance(chains, list) or data.keys() != {"chains"}:
        raise ParseError('a JSON multiset is {"chains": [...]}', 0)
    for e in chains:
        if not (isinstance(e, dict) and e.keys() == {"len", "mult"}
                and type(e["len"]) is int and type(e["mult"]) is int):
            raise ParseError('each JSON chain is {"len": <integer>, '
                             '"mult": <integer>}', 0)
    return MultisetObj(tuple((e["len"], e["mult"]) for e in chains))


def multiset_from_text(text: str) -> MultisetObj:
    """Parse "{1,3,2,1}" or "{1:4,2:5}" (or "{}" for the empty object)."""
    body = text.strip()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1]
    body = body.strip()
    if not body:
        return EMPTY
    pairs = []
    for part in body.split(","):
        part = part.strip()
        if ":" in part:
            l, m = part.split(":", 1)
            pairs.append((int(l), int(m)))
        else:
            pairs.append((int(part), 1))
    return MultisetObj(tuple(pairs))
