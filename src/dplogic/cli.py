"""Command-line front end: the `dp` tool.

Exit codes: 0 for theorems and successful commands, 1 for non-theorems
and failed check suites, 2 for usage or parse errors, 3 when a
computation would exceed its cap, 120 when the output cannot be written.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import decide
from .formula import ParseError, parse

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_OUTPUT = 120  # Python's own code for a final flush that fails


def _json_text(value) -> str:
    """json.dumps(value, sort_keys=True), by the C encoder json.dumps runs;
    _json loads for --json only, and the json package would load re."""
    from _json import encode_basestring_ascii, make_encoder
    return "".join(make_encoder(None, None, encode_basestring_ascii, None,
                                ": ", ", ", True, False, True)(value, 0))


def _emit(args, payload: dict, human) -> None:
    # print converts an int human itself, so only when the text is asked for
    print(_json_text(payload) if args.json else human)


def _read_formula(text: str):
    if text == "-":
        try:
            text = sys.stdin.read()
        except (AttributeError, OSError):  # stdin is None if closed at start
            raise ValueError("cannot read standard input") from None
    return parse(text)


def _witness_text(witness: dict) -> str:
    # dp thm refutes on DP-chains only
    binding = "; ".join(f"{name} = {info['name']} (rank {info['rank']})"
                        for name, info in witness["valuation"].items())
    value = witness["value"]
    return (f"countermodel on the {witness['algebra']['size']}-element chain: "
            f"{binding or 'empty valuation'}; value {value['name']} (rank {value['rank']})")


def cmd_thm(args) -> int:
    # every formula has an exact point, so a cap below 1 refuses them all
    if args.cap < 1:
        raise ValueError("--cap must be at least 1")
    f = _read_formula(args.formula)
    if args.variety is not None:
        verdict = decide.is_theorem_in_variety(f, args.variety, args.cap)
    else:
        verdict = decide.is_theorem(f, args.cap)
    payload = {"status": "theorem" if verdict.ok else "non_theorem",
               "formula": str(f)}
    if args.variety is not None:
        payload["variety"] = args.variety
    if verdict.ok:
        _emit(args, payload, f"theorem: {f}")
        return EXIT_OK
    witness = payload["witness"] = decide.witness_to_json(verdict)
    _emit(args, payload, f"non-theorem: {f}\n  {_witness_text(witness)}")
    return EXIT_FAIL


def cmd_free(args) -> int:
    from . import duality as du

    k = args.k
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    # the power route's instance cap refuses a k above the caps within a
    # few products, before free_cardinality's big-integer work
    dual = du.free_dual(k)
    # the digits, built once: converting takes time quadratic in their count
    digits = str(du.free_cardinality(k))
    payload = {"status": "ok", "k": k, "cardinality": digits,
               "dual": du.multiset_to_json(dual),
               "coefficients": {str(l): m for l, m in dual.chains}}
    _emit(args, payload, f"free algebra on {k} generator(s): dual {dual}\n"
                         f"cardinality {digits}")
    return EXIT_OK


def _multiset_arg(text: str) -> du.MultisetObj:
    from . import duality as du

    text = text.strip()
    if text.startswith("{\"") or "chains" in text:
        import json
        try:
            return du.multiset_from_json(json.loads(text))
        except RecursionError:  # json's decoder recurses once per level of nesting
            raise ParseError("JSON operand nested too deeply", 0) from None
    try:
        return du.multiset_from_text(text)
    except ValueError as exc:
        raise ParseError(str(exc), 0, frozenset()) from None


# each dual op, in the order usage lists them: the duality function that
# answers it, looked up when called, the operands it takes and their parsers
_PAIR = (_multiset_arg, _multiset_arg)
_DUAL = {"product": ("product", "two multisets", _PAIR),
         "coproduct": ("coproduct", "two multisets", _PAIR),
         "power": ("power", "a multiset and an exponent", (_multiset_arg, int)),
         "homcount": ("morphism_count", "two multisets", _PAIR),
         "inverse": ("mc_inverse", "one multiset", (_multiset_arg,))}


def cmd_dual(args) -> int:
    from . import duality as du

    op, words = args.op, args.operands
    name, takes, parsers = _DUAL[op]
    if len(words) != len(parsers):
        raise ParseError(f"{op} takes {takes}", 0, frozenset())
    out = getattr(du, name)(*(parse(w) for parse, w in zip(parsers, words)))
    if isinstance(out, du.MultisetObj):
        _emit(args, {"status": "ok", "result": du.multiset_to_json(out)}, str(out))
    elif isinstance(out, int):
        _emit(args, {"status": "ok", "count": out}, out)
    else:  # the product of chains mc_inverse builds
        size = out.size
        _emit(args, {"status": "ok", "algebra": decide.algebra_to_json(out), "size": size},
              f"product of chain sizes {[f.size for f in out.factors]} ({size} elements)")
    return EXIT_OK


def cmd_chains(args) -> int:
    from . import algebra as alg

    chains = alg.enumerate_mtl_chains(args.n)
    if args.cls == "wnm":
        chains = [c for c in chains if alg.satisfies_axiom(c, "wnm")]
    elif args.cls == "rdp":
        from . import suites  # only check and rdp need it
        chains = [c for c in chains if suites.rdp_class(c)]
    elif args.cls == "dp":
        chains = [c for c in chains if alg.is_dp_chain(c)]
    payload = {"status": "ok", "size": args.n, "class": args.cls,
               "count": len(chains),
               "chains": [decide.algebra_to_json(c) for c in chains]}
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


# Each subcommand's handler, help and arguments after the common ones,
# every argument as argparse's add_argument takes it.  The table is the
# one description of the command line: _parse_canonical reads the usual
# command lines from it without argparse, and build_parser builds the
# argparse parser that handles every other one (help, usage errors,
# abbreviated options) from it.  _parse_canonical knows the keywords used
# here: action="store_true", type, choices, default, dest and nargs="+".
_COMMON = (
    ("--json", {"action": "store_true", "help": "machine-readable output"}),
)

_COMMANDS = {
    "thm": (cmd_thm, "decide theoremhood (use - to read stdin)", (
        ("formula", {}),
        ("--variety", {"type": int, "default": None, "metavar": "N",
                       "help": "restrict to the variety of the N-element chain"}),
        ("--cap", {"type": int, "default": decide.DEFAULT_CAP,
                   "help": "maximum evaluated points per sweep"}),
    )),
    "free": (cmd_free, "free finitely generated algebra report", (
        ("k", {"type": int}),
    )),
    "dual": (cmd_dual, "multiset-of-chains computations", (
        ("op", {"choices": tuple(_DUAL)}),
        ("operands", {"nargs": "+",
                      "help": "multisets like '{1,3,2,1}' or '{1:4,2:5}', "
                              "JSON, or an integer exponent for power"}),
    )),
    "chains": (cmd_chains, "enumerate MTL-chain product tables", (
        ("n", {"type": int}),
        ("--class", {"dest": "cls", "choices": ("mtl", "wnm", "rdp", "dp"),
                     "default": "mtl"}),
    )),
    "check": (cmd_check, "run the self-check suites", (
        ("suite", {"choices": ("axioms", "duality", "free", "all")}),
    )),
}


def _value(spec: dict, text: str):
    """text converted and checked as argparse does; ValueError if it fails."""
    value = spec.get("type", str)(text)
    choices = spec.get("choices")
    if choices is not None and value not in choices:
        raise ValueError(f"{value!r} is not among {choices}")
    return value


def _parse_canonical(argv: list[str]) -> dict:
    """The values argparse gives a canonical command line.

    Canonical means: a subcommand, then its positionals in one run, with
    its options before or after them, each spelled out in full as --json,
    --opt value or --opt=value, every value converting and among the
    choices.  Any other command line (help, abbreviations, "--", a word
    starting with "-" other than "-" itself, a wrong count, a bad value)
    raises ValueError and is left to argparse, which reports every usage
    error.
    """
    if not argv or argv[0] not in _COMMANDS:
        raise ValueError("no subcommand first")
    handler, _, arguments = _COMMANDS[argv[0]]
    values = {"command": argv[0], "handler": handler}
    options, positionals = {}, []
    for name, spec in _COMMON + arguments:
        if name.startswith("--"):
            dest = spec.get("dest", name[2:])
            options[name] = dest, spec
            values[dest] = spec.get("default", False if "action" in spec else None)
        else:
            positionals.append((name, spec))
    words: list = []
    ended = False  # an option has followed the positionals
    rest = iter(argv[1:])
    for word in rest:
        if word[:1] != "-" or word == "-":
            if ended:
                raise ValueError("positionals split by an option")
            words.append(word)
            continue
        ended = bool(words)
        name, eq, text = word.partition("=")
        if name not in options:
            raise ValueError(f"{name} is not an option spelled out")
        dest, spec = options[name]
        if "action" in spec:  # the --json switch
            if eq:
                raise ValueError(f"{name} takes no value")
            values[dest] = True
            continue
        if not eq:
            text = next(rest, None)
            if text is None or text[:1] == "-":
                raise ValueError(f"{name} without a value")
        values[dest] = _value(spec, text)
    if positionals[-1][1].get("nargs") == "+":
        # the last positional takes the remaining words, at least one
        n = len(positionals) - 1
        words[n:] = [words[n:]] if len(words) > n else []
    if len(words) != len(positionals):
        raise ValueError("wrong number of positionals")
    for (name, spec), word in zip(positionals, words):
        values[name] = ([_value(spec, w) for w in word] if isinstance(word, list)
                        else _value(spec, word))
    return values


def build_parser(argv: list[str]):
    """The argparse parser for argv, built from _COMMANDS, and the words it
    parses: the subcommand's own parser and the words after it when argv
    starts with a subcommand, else dp's, which names the subcommands."""
    import argparse
    if argv and argv[0] in _COMMANDS:
        handler, _, arguments = _COMMANDS[argv[0]]
        parser = argparse.ArgumentParser(prog=f"dp {argv[0]}")
        for name, spec in _COMMON + arguments:
            parser.add_argument(name, **spec)
        parser.set_defaults(command=argv[0], handler=handler)
        return parser, argv[1:]
    parser = argparse.ArgumentParser(
        prog="dp",
        description="theoremhood, axiom analysis and duality for "
                    "drastic-product logic")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, _) in _COMMANDS.items():
        sub.add_parser(command, help=summary)
    return parser, argv


def main(argv: list[str] | None = None) -> int:
    # free-algebra cardinalities overflow the interpreter's default
    # int-to-str conversion guard from k = 6 on
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = SimpleNamespace(**_parse_canonical(argv))
    except ValueError:
        parser, words = build_parser(argv)
        try:
            args = parser.parse_args(words)
        except SystemExit as exc:
            # argparse exits 2 on usage errors and 0 on --help
            return EXIT_USAGE if exc.code else EXIT_OK
    try:
        code = args.handler(args)
        if sys.stdout is None:  # closed when dp started: print wrote nothing
            raise OSError("standard output is closed")
        sys.stdout.flush()
        return code
    except OSError as exc:
        # the output failed (stdin's errors are ValueErrors by now); what is
        # left of it goes to devnull, so that the flushes at exit pass
        if sys.stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return EXIT_OK  # the reader (e.g. `head`) closed the pipe early
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    except decide.CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:  # ParseError and EvaluationError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    """The process entry point of `dp` and `python -m dplogic`: exits with
    main's code without tearing the interpreter down.

    The registered atexit callbacks run and stdout and stderr are flushed,
    as at a normal exit; os._exit then skips module clean-up and the final
    garbage collection, which cost more than a small request's own work.
    If a flush fails, sys.exit reports it as a normal exit would.  An
    exception escaping main leaves with its traceback before any of this.
    """
    code = main()
    import atexit  # only the process exit needs it
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        sys.exit(code)
    os._exit(code)
