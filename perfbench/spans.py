"""In-process replay of `dp` requests with timing spans around each layer.

`install` replaces the public functions of dplogic's modules with timing
wrappers (module attributes, plus the names other modules bound at import:
`cli.parse`, `algebra.parse`, `suites.SUITES`); `uninstall` puts the
originals back.  `evaluate` is left alone because it runs once per
valuation.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    layer: str
    request: int
    parent: int | None
    start: int
    end: int = 0
    # time the tracer spent counting after a child returned; it is not the
    # layer's work, so it is taken out of this span's self time
    bookkeeping: int = 0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.request = -1
        self.last_generating_set = 0
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, layer: str, on_exit=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = Span(name, layer, self.request, stack[-1] if stack else None, clock())
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if on_exit is not None:
                on_exit(self, span, args, result)
                if span.parent is not None:
                    spans[span.parent].bookkeeping += clock() - span.end
            return result

        return wrapper

    def _set(self, obj, attr: str, value) -> None:
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        from dplogic import algebra, cli, duality, formula, suites

        def wrap(module, attr, layer, on_exit=None, also=()):
            wrapped = self.wrap(getattr(module, attr),
                                f"{module.__name__.split('.')[-1]}.{attr}",
                                layer, on_exit)
            for obj in (module,) + also:
                self._set(obj, attr, wrapped)
            return wrapped

        wrap(cli, "main", "cli")
        wrap(formula, "parse", "formula.parse", _count_nodes, also=(cli, algebra))
        wrap(formula, "render", "formula.render")
        wrap(algebra, "holds", "algebra.holds", _count_sweep)
        for attr in ("is_theorem", "is_theorem_in_variety"):
            wrap(algebra, attr, "algebra.decide")
        wrap(algebra, "generating_set", "algebra.homs", _count_generators)
        wrap(algebra, "enumerate_homomorphisms", "algebra.homs", _count_homs)
        for attr in ("enumerate_mtl_chains", "satisfies_axiom", "is_simple"):
            wrap(algebra, attr, "algebra.chains")
        wrap(duality, "free_cardinality", "duality.cardinality", _count_bits)
        for attr in ("free_dual", "free_dual_closed_form", "free_dual_recurrence"):
            wrap(duality, attr, "duality.routes")
        for attr in ("product", "power", "coproduct", "mc_inverse"):
            wrap(duality, attr, "duality.product")
        for attr in ("morphism_count", "enumerate_morphisms"):
            wrap(duality, attr, "duality.homcount")
        table = {}
        for key in suites.SUITES:
            table[key] = wrap(suites, f"{key}_suite", f"suites.{key}")
        self._set(suites, "SUITES", table)

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, value = self._saved.pop()
            setattr(obj, attr, value)


def _count_nodes(tracer, span, args, result) -> None:
    nodes, stack = 0, [result]
    while stack:
        node = stack.pop()
        nodes += 1
        stack.extend(getattr(node, a) for a in ("lhs", "rhs", "arg") if hasattr(node, a))
    span.counts["nodes"] = nodes


def _count_sweep(tracer, span, args, verdict) -> None:
    """Points swept: all of them when f holds, else up to and including
    the counterexample, whose lexicographic index the valuation gives."""
    from dplogic import algebra
    f, alg = args[0], args[1]
    names = algebra.variables(f)
    universe = list(alg.elements())
    if verdict.ok:
        points = len(universe) ** len(names)
    else:
        rank = {e: i for i, e in enumerate(universe)}
        index = 0
        for name in names:
            index = index * len(universe) + rank[verdict.valuation[name]]
        points = index + 1
    span.counts["points"] = points
    # is_theorem sweeps the (k+3)-chain first; sweeps of smaller chains
    # below it only look for the minimal countermodel
    parent = tracer.spans[span.parent] if span.parent is not None else None
    k = len(names)
    if (parent is not None and parent.name == "algebra.is_theorem"
            and isinstance(alg, algebra.DPChain) and alg.size < (k + 3 if k else 2)):
        span.counts["minimize"] = 1


def _count_generators(tracer, span, args, result) -> None:
    tracer.last_generating_set = len(result)


def _count_homs(tracer, span, args, result) -> None:
    span.counts["tries"] = len(list(args[1].elements())) ** tracer.last_generating_set
    span.counts["found"] = len(result)


def _count_bits(tracer, span, args, result) -> None:
    span.counts["bits"] = result.bit_length()


def call(main, argv, stdin: str | None) -> tuple[float, int, str, str]:
    """Run `main(argv)` with captured streams: (seconds, code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = main(list(argv))
            except Exception as exc:  # the subprocess would print a traceback
                code = 1
                print(f"Traceback (in-process): {type(exc).__name__}: {exc}",
                      file=sys.stderr)
            seconds = time.perf_counter() - start
    finally:
        sys.stdin = saved_stdin
    return seconds, code, out.getvalue(), err.getvalue()


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus its children's and the tracer's own time."""
    own = [s.end - s.start - s.bookkeeping for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own
