"""Hostile command lines drawn from cli._COMMANDS, each run as a real `dp`
process: every one ends in a known exit code, never in a traceback, a
stall or a flood of stderr."""

import os
import random
import re
import subprocess
import sys

import pytest

import dplogic
from dplogic import cli

SRC = os.path.dirname(os.path.dirname(os.path.abspath(dplogic.__file__)))

EXIT_CODES = {0, 1, 2, 3, 120}

# the one stderr line of a cap (exit 3), its count bounded as _count_text prints
# it; thm's --cap, at least 1, is printed as given
CAP_LINE = re.compile(r"error: (\d{1,20}|at least \d\.\d{3}e\d+) \S.* exceed the cap of \d+\n")

NINES = "9" * 400

# hostile values by the kind of word an argument takes
_INTS = [NINES, "-" + NINES, "10000000000", "-1", "0", "٣", "3.5", "0x10", "", "x",
         "1_000", " 7 ", "ⅷ"]
_FORMULAS = ["~" * 5000 + "x", "(" * 3000 + "x" + ")" * 3000,
             " \\/ ".join(f"v{i}" for i in range(300)), "D" * 3000 + "x",
             f"x^{NINES}", "α -> β", "x ∧ y", "((((", ")", "x" * 5000, "",
             " & ".join(["x"] * 1500), "x -> -> y", "0 -> 1", "-"]
_WORDS = ["ＴＨＭ", "é" * 1000, "", "-", "--", "--json=1", "PRODUCT", "‮"]
_MULTISETS = [f"{{{NINES}}}", f"{{3:{NINES}}}", "{3:100000000}", "{100000}",
              "{-1}", "{3:-1}", "{1:0}", "{٣}", "{1:2:3}", "{,}", "[3]", "{}",
              "{" + ",".join(["7"] * 5000) + "}", f"{{4:{NINES}}}",
              '{"chains": [', '{"chains": [{"len": 1e400, "mult": 1}]}',
              '{"chains": [{"len": 3, "mult": ' + NINES + '}]}',
              '{"chains": [{"len": ' + NINES + ', "mult": 2}]}', "{" * 5000]
# a word that every argument of its kind accepts
_SANE = {"formula": "x -> x", "k": "1", "n": "3", "operands": "{3}"}


def _hostile(rng, name, spec):
    """A hostile value for the argument `name` as _COMMANDS describes it."""
    if "choices" in spec:
        return rng.choice(_WORDS + [w.upper() for w in spec["choices"]])
    if spec.get("type") is int:
        return rng.choice(_INTS)
    return rng.choice(_FORMULAS if name == "formula" else _MULTISETS + _INTS)


def _generated(seed=22, per_argument=4):
    """Command lines with one argument hostile and the others sane, for
    every argument of every subcommand; a formula read from stdin gets a
    hostile text there."""
    rng = random.Random(seed)
    cases = []
    for command, (_, _, arguments) in cli._COMMANDS.items():
        for name, spec in arguments:
            for _ in range(per_argument):
                argv = [command]
                if rng.random() < 0.5:
                    argv.append("--json")
                for other, other_spec in arguments:
                    if other == name:
                        words = [_hostile(rng, name, spec)
                                 for _ in range(rng.choice((1, 2, 3)) if "nargs" in spec else 1)]
                    elif other.startswith("--"):
                        continue
                    elif "choices" in other_spec:
                        words = [rng.choice(other_spec["choices"])]
                    else:
                        words = [_SANE[other]] * (2 if "nargs" in other_spec else 1)
                    if other.startswith("--"):
                        argv += [other, words[0]] if rng.random() < 0.5 else [f"{other}={words[0]}"]
                    else:
                        argv += words
                stdin = rng.choice(_FORMULAS) if "-" in argv[1:] else ""
                cases.append((argv, stdin))
    return cases


# the stalls and output errors the generated cases are there to catch,
# each with the code it must end in; a mode names a standard stream that
# is full or closed
_FIXED = [
    ("homcount-bits", ["dual", "homcount", "{3:99999999999}", "{3:2}"], None, 3),
    ("homcount-binomial", ["dual", "homcount", "{1000000000}", "{500000000}"], None, 3),
    ("inverse-factors", ["dual", "inverse", "{3:100000000}"], None, 3),
    ("product-binomials", ["dual", "product", "{100000}", "{100000}"], None, 3),
    ("power-binomials", ["dual", "power", "{100000}", "2"], None, 3),
    # binomials or single-chain products each below their cap, past it together
    ("homcount-binomials-together",
     ["dual", "homcount", "{1000000}", "{%s}" % ",".join(map(str, range(2, 3002)))], None, 3),
    ("product-pairs-together",
     ["dual", "product", "{%s}" % ",".join(map(str, range(40, 60))),
      "{%s}" % ",".join(str(2**60 + i) for i in range(20))], None, 3),
    ("stdout-full", ["thm", "x -> x"], "stdout-full", 120),
    ("stdout-closed", ["thm", "x -> x"], "stdout-closed", 120),
    ("stdin-closed", ["thm", "-"], "stdin-closed", 2),
    # refused before its digits are converted: an exponent past 2^64
    ("exponent-digits", ["thm", "-"], None, 2),
]

# what a fixed case reads on stdin, where it reads more than nothing
_FIXED_STDIN = {"exponent-digits": "x^" + "9" * 200_000}


def _limits(close):
    """Run in the child before dp: caps its memory and CPU time, and closes
    the file descriptor close if it is not None."""
    def setup():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        resource.setrlimit(resource.RLIMIT_CPU, (10, 10))
        if close is not None:
            os.close(close)
    return setup


def run_hostile(argv, stdin="", mode=None):
    """`python -S -m dplogic ARGV` under limits, with stdin as its input and
    the stream that mode names full or closed: its exit code and stderr."""
    close = {"stdout-closed": 1, "stdin-closed": 0}.get(mode)
    full = os.open("/dev/full", os.O_WRONLY) if mode == "stdout-full" else None
    try:
        done = subprocess.run(
            [sys.executable, "-S", "-m", "dplogic", *argv], env={"PYTHONPATH": SRC},
            input=None if close == 0 else stdin, stderr=subprocess.PIPE,
            stdout=subprocess.DEVNULL if full is None else full,
            preexec_fn=_limits(close), timeout=10, text=True, encoding="utf-8",
            errors="replace")
    finally:
        if full is not None:
            os.close(full)
    return done.returncode, done.stderr


@pytest.mark.parametrize("argv, stdin, mode, want", [
    pytest.param(argv, _FIXED_STDIN.get(name, ""), mode, want, id=name)
    for name, argv, mode, want in _FIXED] + [
    pytest.param(argv, stdin, None, None, id=f"{argv[0]}-{i}")
    for i, (argv, stdin) in enumerate(_generated())])
def test_hostile_command_lines_end_cleanly(argv, stdin, mode, want):
    code, err = run_hostile(argv, stdin, mode)
    assert code in EXIT_CODES, (argv, err[-2000:])
    if want is not None:
        assert code == want, (argv, err)
    assert "Traceback" not in err, (argv, err[-2000:])
    # a usage line and one message, which may quote one word back
    assert len(err) <= 2048 + max(map(len, argv)), (argv, len(err))
    if code == 3:
        assert CAP_LINE.fullmatch(err), (argv, err)
    if code == 120:
        assert err.startswith("error: cannot write the output: ")
