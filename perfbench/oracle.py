"""Answers the benchmark knows without running dplogic.

Formulas are built here as tuples, rendered to `dp` syntax, and evaluated
by a DP-chain evaluator written from the definitions in PAPER.md: on the
n-element chain 0 < ... < n-1, `x & y` is 0 unless one argument is the
top, else min(x, y); `x -> y` is the top if x <= y, the coatom n-2 if
top > x > y, and y if x is the top.  Multiset answers come from the
paper's three-rule product recursion, the hom-count closed form and the
free-dual coefficient recurrence.  Big integers are compared through
residues modulo two primes, so no check converts a huge integer to
decimal.

`check(request, code, out, err)` returns None for a correct response and
a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cache

# formula tuples: ("v", name), ("0",), ("1",), (op, lhs, rhs) for the
# binary connectives &, /\, \/, ->, <->, and ("~", arg), ("D", arg),
# ("^", arg, n)

PRIMES = (2**61 - 1, 10**9 + 7)

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


def var(name: str) -> tuple:
    return ("v", name)


def render(f: tuple) -> str:
    """Fully parenthesised `dp` syntax."""
    op = f[0]
    if op == "v":
        return f[1]
    if op in ("0", "1"):
        return op
    if op in ("~", "D"):
        return f"{op}({render(f[1])})"
    if op == "^":
        return f"({render(f[1])})^{f[2]}"
    return f"({render(f[1])} {op} {render(f[2])})"


def variables(f: tuple) -> list[str]:
    """Variable names in first-occurrence order."""
    seen: dict[str, None] = {}
    stack = [f]
    while stack:
        g = stack.pop()
        if g[0] == "v":
            seen.setdefault(g[1])
        elif g[0] == "^":
            stack.append(g[1])
        else:
            stack.extend(reversed(g[1:]))
    return list(seen)


def node_count(f: tuple) -> int:
    if f[0] == "v" or f[0] in ("0", "1"):
        return 1
    if f[0] == "^":
        return 1 + node_count(f[1])
    return 1 + sum(node_count(g) for g in f[1:])


def dp_value(f: tuple, n: int, val: dict) -> int:
    """Value of f on the n-element DP-chain under the valuation."""
    top = n - 1
    op = f[0]
    if op == "v":
        return val[f[1]]
    if op == "0":
        return 0
    if op == "1":
        return top

    def prod(x, y):
        return min(x, y) if x == top or y == top else 0

    def imp(x, y):
        if x <= y:
            return top
        return y if x == top else n - 2

    if op == "~":
        return imp(dp_value(f[1], n, val), 0)
    if op == "D":
        x = dp_value(f[1], n, val)
        return prod(x, x)
    if op == "^":
        x = dp_value(f[1], n, val)
        out = top
        for _ in range(f[2]):
            out = prod(out, x)
        return out
    a = dp_value(f[1], n, val)
    b = dp_value(f[2], n, val)
    if op == "&":
        return prod(a, b)
    if op == "/\\":
        return min(a, b)
    if op == "\\/":
        return max(a, b)
    if op == "->":
        return imp(a, b)
    if op == "<->":
        return prod(imp(a, b), imp(b, a))
    raise ValueError(f"not a formula tuple: {f!r}")


# --- the multiset category -------------------------------------------------

def ms_text(counts: dict[int, int]) -> str:
    """`dp` input syntax for a multiset given as {length: multiplicity}."""
    return "{" + ",".join(f"{l}:{m}" for l, m in sorted(counts.items()) if m) + "}"


def ms_parse(text: str) -> dict[int, int]:
    """Parse `dp`'s printed multiset: "{3,4,4}", "{1:4,2:5}" or "{}"."""
    body = text.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ValueError(f"not a multiset: {text[:40]!r}")
    out: dict[int, int] = {}
    for part in filter(None, body[1:-1].split(",")):
        l, _, m = part.partition(":")
        out[int(l)] = out.get(int(l), 0) + (int(m) if m else 1)
    return out


@cache
def singleton_product(a: int, b: int) -> tuple:
    """{a} x {b}: {a} x {1} = {a}, {a} x {2} = {a} for a >= 2, and for
    a, b >= 3 the three products of predecessors, each lifted by one."""
    a, b = min(a, b), max(a, b)
    if a <= 2:
        return ((b, 1),)
    merged: dict[int, int] = {}
    for part in (singleton_product(a, b - 1), singleton_product(a - 1, b - 1),
                 singleton_product(a - 1, b)):
        for l, m in part:
            merged[l + 1] = merged.get(l + 1, 0) + m
    return tuple(sorted(merged.items()))


def ms_product(c: dict, d: dict) -> dict[int, int]:
    out: dict[int, int] = {}
    for la, ma in c.items():
        for lb, mb in d.items():
            for l, m in singleton_product(la, lb):
                out[l] = out.get(l, 0) + ma * mb * m
    return out


def ms_power(c: dict, k: int) -> dict[int, int]:
    out = {1: 1}
    for _ in range(k):
        out = ms_product(out, c)
    return out


def surjections(a: int, b: int) -> int:
    """s(a, b) = C(a-2, b-2) for a >= b >= 2; one map onto the 1-chain."""
    if b == 1:
        return 1
    return math.comb(a - 2, b - 2) if a >= b else 0


def homcount_residues(c: dict, d: dict) -> tuple[int, ...]:
    """|Hom(c, d)| = prod_a (sum_b m_b s(a, b))^(m_a), modulo each prime."""
    out = []
    for p in PRIMES:
        r = 1
        for a, ma in c.items():
            r = r * pow(sum(mb * surjections(a, b) for b, mb in d.items()), ma, p) % p
        out.append(r)
    return tuple(out)


def free_coefficients(k: int) -> dict[int, int]:
    """Multiplicities of the free k-generated algebra's dual, by stepping
    a_1 -> 2a_1, a_2 -> a_1 + 3a_2, a_3 -> a_1 + a_2 + 4a_3 and
    a_h -> (h-2)a_{h-1} + (h+1)a_h from {1: 1}."""
    a = {1: 1}
    for _ in range(k):
        nxt = {1: 2 * a.get(1, 0), 2: a.get(1, 0) + 3 * a.get(2, 0),
               3: a.get(1, 0) + a.get(2, 0) + 4 * a.get(3, 0)}
        for h in range(4, max(a) + 2):
            nxt[h] = (h - 2) * a.get(h - 1, 0) + (h + 1) * a.get(h, 0)
        a = {h: m for h, m in nxt.items() if m}
    return a


def cardinality_residues(coefficients: dict[int, int]) -> tuple[int, ...]:
    """The free algebra is the product of (h+1)-chains, a_h of each."""
    return tuple(math.prod(pow(h + 1, m, p) for h, m in coefficients.items()) % p
                 for p in PRIMES)


def decimal_residues(digits: str) -> tuple[int, ...]:
    """Residues of a decimal string, read in 4000-digit chunks."""
    if not digits.isdigit():
        raise ValueError(f"not a decimal integer: {digits[:40]!r}")
    out = []
    for p in PRIMES:
        r = 0
        for i in range(0, len(digits), 4000):
            chunk = digits[i:i + 4000]
            r = (r * pow(10, len(chunk), p) + int(chunk)) % p
        out.append(r)
    return tuple(out)


@cache
def expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


# --- MTL-chain tables ------------------------------------------------------

def is_mtl_table(t: list[list[int]]) -> bool:
    """Commutative, associative, monotone, integral, 0 absorbing."""
    n = len(t)
    r = range(n)
    return (all(t[x][y] == t[y][x] for x in r for y in r)
            and all(t[n - 1][x] == x and t[0][x] == 0 for x in r)
            and all(t[x][y] <= t[x][y + 1] for x in r for y in range(n - 1))
            and all(t[t[x][y]][z] == t[x][t[y][z]] for x in r for y in r for z in r))


def is_dp_table(t: list[list[int]]) -> bool:
    return all(t[x][x] == 0 for x in range(len(t) - 1))


def is_wnm_table(t: list[list[int]]) -> bool:
    """~(x & y) \\/ ((x /\\ y) -> (x & y)) is the top everywhere, with the
    residuum x -> y = max{z : x * z <= y} read off the table."""
    n = len(t)

    def imp(x, y):
        return max(z for z in range(n) if t[x][z] <= y)

    return all(max(imp(t[x][y], 0), imp(min(x, y), t[x][y])) == n - 1
               for x in range(n) for y in range(n))


# --- requests and their checks ---------------------------------------------

@dataclass(frozen=True)
class Request:
    """One `dp` invocation, its expected exit code and how to check it.

    `expect` is a tuple naming the check and its data (see `check`);
    `population` groups requests of similar cost within a workload.
    """

    argv: tuple[str, ...]
    exit_code: int
    expect: tuple
    population: str
    stdin: str | None = None


def check(req: Request, code: int, out: str, err: str) -> str | None:
    """None when the response is correct, else why it is not."""
    if "Traceback" in err:
        return "traceback on stderr: " + err.strip().splitlines()[-1][:120]
    if code != req.exit_code:
        return f"exit code {code}, expected {req.exit_code}"
    try:
        return _check_output(req.expect, out, err)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"


def _check_output(expect: tuple, out: str, err: str) -> str | None:
    kind = expect[0]
    if kind == "error":
        # an exit 2 or 3 must explain itself on stderr
        return None if err.startswith("error:") or "usage:" in err else \
            f"no diagnostic on stderr: {err[:80]!r}"
    if kind == "theorem":
        variety = expect[1]
        payload = json.loads(out)
        if payload["status"] != "theorem":
            return f"status {payload['status']}, expected theorem"
        if payload.get("variety") != variety:
            return f"variety {payload.get('variety')}, expected {variety}"
        return None
    if kind == "refute":
        return _check_refutation(expect[1], expect[2], json.loads(out))
    if kind == "free":
        return _check_free(expect[1], out)
    if kind == "homcount":
        got = decimal_residues(out.strip())
        want = homcount_residues(expect[1], expect[2])
        return None if got == want else f"hom count residues {got}, expected {want}"
    if kind == "multiset":
        got = ms_parse(out)
        return None if got == expect[1] else f"multiset {out.strip()[:60]}, expected {ms_text(expect[1])}"
    if kind == "inverse":
        sizes = sorted(l + 1 for l, m in expect[1].items() for _ in range(m))
        want = f"product of chain sizes {sizes} ({math.prod(sizes)} elements)"
        return None if out.strip() == want else f"got {out.strip()[:80]!r}, expected {want[:80]!r}"
    if kind == "chains":
        return _check_chains(expect[1], expect[2], expect[3], json.loads(out))
    if kind == "suite":
        payload = json.loads(out)
        bad = [c["name"] for c in payload["checks"] if not c["ok"]]
        if not payload["ok"] or bad or len(payload["checks"]) != expect[2]:
            return (f"suite {expect[1]}: ok={payload['ok']}, failed rows {bad}, "
                    f"{len(payload['checks'])} rows, expected {expect[2]}")
        return None
    raise ValueError(f"unknown check {kind!r}")


def _check_refutation(f: tuple, min_size: int, payload: dict) -> str | None:
    if payload["status"] != "non_theorem":
        return f"status {payload['status']}, expected non_theorem"
    witness = payload["witness"]
    size = witness["algebra"]["size"]
    if witness["algebra"]["type"] != "dp_chain" or size != min_size:
        return f"countermodel on {witness['algebra']}, expected the {min_size}-chain"
    val = {name: info["rank"] for name, info in witness["valuation"].items()}
    if sorted(val) != sorted(variables(f)):
        return f"valuation binds {sorted(val)}, expected {sorted(variables(f))}"
    value = dp_value(f, size, val)
    if value == size - 1:
        return "reported countermodel evaluates to the top"
    if value != witness["value"]["rank"]:
        return f"countermodel value {witness['value']['rank']}, oracle says {value}"
    return None


def _check_free(k: int, out: str) -> str | None:
    payload = json.loads(out)
    coefficients = {int(h): m for h, m in payload["coefficients"].items()}
    want = free_coefficients(k)
    if coefficients != want:
        return f"free {k}: coefficients {coefficients}, expected {want}"
    pinned = expected()["free"][str(k)]
    if "cardinality" in pinned and payload["cardinality"] != pinned["cardinality"]:
        return f"free {k}: cardinality {payload['cardinality']}, pinned {pinned['cardinality']}"
    digits = payload["cardinality"]
    if len(digits) != pinned["digits"]:
        return f"free {k}: {len(digits)} digits, pinned {pinned['digits']}"
    if list(decimal_residues(digits)) != pinned["residues"]:
        return f"free {k}: cardinality residues differ from the pinned digest"
    return None


def _check_chains(n: int, cls: str, count: int, payload: dict) -> str | None:
    tables = [c["product"] for c in payload["chains"]]
    if payload["count"] != count or len(tables) != count:
        return f"chains {n} --class {cls}: {payload['count']} chains, expected {count}"
    if len({json.dumps(t) for t in tables}) != count:
        return "duplicate chain tables"
    for t in tables:
        if len(t) != n or not is_mtl_table(t):
            return f"not an MTL-chain table of size {n}: {t}"
        if cls == "dp" and not is_dp_table(t):
            return f"not a DP-chain table: {t}"
        if cls == "wnm" and not is_wnm_table(t):
            return f"not a WNM-chain table: {t}"
    return None
