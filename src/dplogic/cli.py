"""Command-line front end: the `dp` tool.

Exit codes: 0 for theorems and successful commands, 1 for non-theorems,
failed check suites and disagreeing free-algebra routes, 2 for usage or
parse errors, 3 when a computation would exceed its cap.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import algebra as alg
from . import duality as du
from .formula import ParseError, parse

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        import json  # only --json output and JSON operands need it
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _read_formula(text: str):
    if text == "-":
        text = sys.stdin.read()
    return parse(text)


def _witness_text(verdict: alg.Verdict) -> str:
    data = alg.witness_to_json(verdict)
    algebra = verdict.algebra
    if isinstance(algebra, alg.DPChain):
        where = f"the {algebra.size}-element chain"
    else:
        where = f"{data['algebra']}"
    parts = [f"{name} = {info['name']} (rank {info['rank']})"
             for name, info in data["valuation"].items()]
    value = data["value"]
    binding = "; ".join(parts) if parts else "empty valuation"
    return (f"countermodel on {where}: {binding}; "
            f"value {value['name']} (rank {value['rank']})")


def cmd_thm(args) -> int:
    f = _read_formula(args.formula)
    if args.variety is not None:
        verdict = alg.is_theorem_in_variety(f, args.variety, args.cap)
    else:
        verdict = alg.is_theorem(f, args.cap)
    payload = {"status": "theorem" if verdict.ok else "non_theorem",
               "formula": str(f)}
    if args.variety is not None:
        payload["variety"] = args.variety
    if verdict.ok:
        _emit(args, payload, f"theorem: {f}")
        return EXIT_OK
    payload["witness"] = alg.witness_to_json(verdict)
    _emit(args, payload, f"non-theorem: {f}\n  {_witness_text(verdict)}")
    return EXIT_FAIL


def _route_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_FAIL


def cmd_free(args) -> int:
    k = args.k
    payload: dict = {"status": "ok", "k": k, "mode": args.mode}
    lines = []
    dual = None
    if args.mode in ("closed", "all"):
        dual = du.free_dual_closed_form(k)
    if args.mode in ("power", "all"):
        by_power = du.free_dual(k)
        if dual is not None and by_power != dual:
            return _route_error("closed form and power disagree")
        dual = by_power
    if args.mode == "all" and dual != du.free_dual_recurrence(k):
        return _route_error("recurrence disagrees")
    payload["dual"] = du.multiset_to_json(dual)
    payload["coefficients"] = {str(l): m for l, m in dual.chains}
    cardinality = du.free_cardinality(k)
    payload["cardinality"] = str(cardinality)
    lines.append(f"free algebra on {k} generator(s): dual {dual}")
    lines.append(f"cardinality {cardinality}")
    if args.mode in ("oracle", "all"):
        if k <= 1:
            oracle = alg.free_algebra_bruteforce(k).count
            payload["oracle_count"] = oracle
            lines.append(f"brute-force term count {oracle}")
            if oracle != cardinality:
                return _route_error("brute force disagrees with cardinality")
        else:
            lines.append("brute-force oracle skipped (needs k <= 1)")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _multiset_arg(text: str) -> du.MultisetObj:
    text = text.strip()
    if text.startswith("{\"") or "chains" in text:
        import json
        return du.multiset_from_json(json.loads(text))
    try:
        return du.multiset_from_text(text)
    except ValueError as exc:
        raise ParseError(str(exc), 0, frozenset()) from None


def cmd_dual(args) -> int:
    op = args.op
    if op in ("product", "coproduct", "homcount"):
        if len(args.operands) != 2:
            raise ParseError(f"{op} takes two multisets", 0, frozenset())
        c = _multiset_arg(args.operands[0])
        d = _multiset_arg(args.operands[1])
        if op == "product":
            out = du.product(c, d)
            payload = {"status": "ok", "result": du.multiset_to_json(out)}
            _emit(args, payload, str(out))
        elif op == "coproduct":
            out = du.coproduct(c, d)
            payload = {"status": "ok", "result": du.multiset_to_json(out)}
            _emit(args, payload, str(out))
        else:
            count = du.morphism_count(c, d)
            payload = {"status": "ok", "count": count}
            _emit(args, payload, str(count))
        return EXIT_OK
    if op == "power":
        if len(args.operands) != 2:
            raise ParseError("power takes a multiset and an exponent", 0, frozenset())
        c = _multiset_arg(args.operands[0])
        k = int(args.operands[1])
        out = du.power(c, k)
        payload = {"status": "ok", "result": du.multiset_to_json(out)}
        _emit(args, payload, str(out))
        return EXIT_OK
    if op == "inverse":
        if len(args.operands) != 1:
            raise ParseError("inverse takes one multiset", 0, frozenset())
        c = _multiset_arg(args.operands[0])
        algebra = du.mc_inverse(c)
        sizes = [f.size for f in algebra.factors]
        payload = {"status": "ok", "algebra": alg.algebra_to_json(algebra),
                   "size": algebra.size}
        _emit(args, payload,
              f"product of chain sizes {sizes} ({algebra.size} elements)")
        return EXIT_OK
    raise ParseError(f"unknown dual operation {op!r}", 0, frozenset())


def cmd_chains(args) -> int:
    chains = alg.enumerate_mtl_chains(args.n)
    if args.cls == "wnm":
        chains = [c for c in chains if alg.satisfies_axiom(c, "wnm")]
    elif args.cls == "rdp":
        from . import suites  # loads random; only check and rdp need it
        chains = [c for c in chains if suites.rdp_class(c)]
    elif args.cls == "dp":
        chains = [c for c in chains if alg.is_dp_chain(c)]
    payload = {"status": "ok", "size": args.n, "class": args.cls,
               "count": len(chains),
               "chains": [alg.algebra_to_json(c) for c in chains]}
    lines = [f"{len(chains)} chain(s) of size {args.n} in class {args.cls}"]
    for c in chains:
        lines.append("  " + " / ".join(" ".join(str(v) for v in row)
                                       for row in c.product_table))
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_check(args) -> int:
    from . import suites
    rows = suites.run_suite(args.suite)
    ok = all(r[1] for r in rows)
    payload = {"status": "ok" if ok else "error",
               "suite": args.suite,
               "ok": ok,
               "checks": [{"name": n, "ok": o, "detail": d} for n, o, d in rows]}
    lines = []
    for name, good, detail in rows:
        mark = "ok  " if good else "FAIL"
        lines.append(f"{mark} {name}" + (f" ({detail})" if detail else ""))
    lines.append(f"{'all checks passed' if ok else 'SUITE FAILED'}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if ok else EXIT_FAIL


def _terminal_columns() -> int:
    """shutil.get_terminal_size().columns: $COLUMNS if it is a positive
    integer, else the width of the terminal on stdout, else 80."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
        except (AttributeError, ValueError, OSError):
            columns = 0
    return columns or 80


class _Formatter(argparse.HelpFormatter):
    """argparse's help formatter, with its default width taken the way
    shutil takes it but without importing shutil (and the compression
    modules shutil loads) each time a parser is built."""

    def __init__(self, prog, indent_increment=2, max_help_position=24,
                 width=None, **kwargs):
        if width is None:
            width = _terminal_columns() - 2
        super().__init__(prog, indent_increment, max_help_position, width, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dp", formatter_class=_Formatter,
        description="theoremhood, axiom analysis and duality for "
                    "drastic-product logic")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False, formatter_class=_Formatter)
    common.add_argument("--json", action="store_true",
                        help="machine-readable output")
    common.add_argument("--cap", type=int, default=alg.DEFAULT_CAP,
                        help="maximum evaluated points per sweep")
    shared = {"parents": [common], "formatter_class": _Formatter}

    p = sub.add_parser("thm", **shared,
                       help="decide theoremhood (use - to read stdin)")
    p.add_argument("formula")
    p.add_argument("--variety", type=int, default=None, metavar="N",
                   help="restrict to the variety of the N-element chain")
    p.set_defaults(handler=cmd_thm)

    p = sub.add_parser("free", **shared,
                       help="free finitely generated algebra report")
    p.add_argument("k", type=int)
    p.add_argument("--mode", choices=("closed", "power", "oracle", "all"),
                   default="all")
    p.set_defaults(handler=cmd_free)

    p = sub.add_parser("dual", **shared,
                       help="multiset-of-chains computations")
    p.add_argument("op", choices=("product", "coproduct", "power",
                                  "homcount", "inverse"))
    p.add_argument("operands", nargs="+",
                   help="multisets like '{1,3,2,1}' or '{1:4,2:5}', "
                        "JSON, or an integer exponent for power")
    p.set_defaults(handler=cmd_dual)

    p = sub.add_parser("chains", **shared,
                       help="enumerate MTL-chain product tables")
    p.add_argument("n", type=int)
    p.add_argument("--class", dest="cls",
                   choices=("mtl", "wnm", "rdp", "dp"), default="mtl")
    p.set_defaults(handler=cmd_chains)

    p = sub.add_parser("check", **shared,
                       help="run the self-check suites")
    p.add_argument("suite", choices=("axioms", "duality", "free", "all"))
    p.set_defaults(handler=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    # free-algebra cardinalities overflow the interpreter's default
    # int-to-str conversion guard from k = 6 on
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader (e.g. `head`) closed the pipe early; not our error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except alg.CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, alg.EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
