"""Exit codes, JSON schemas and human output of the `dp` command."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dplogic
from dplogic import MultisetObj, cli
from dplogic.duality import multiset_from_json


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_thm_theorem_exits_zero(capsys):
    code, out, _ = run(capsys, "thm", "x \\/ ~(x^2)")
    assert code == 0
    assert "theorem" in out


def test_thm_nontheorem_reports_minimal_witness(capsys):
    code, payload, _ = run_json(capsys, "thm", "x \\/ ~x")
    assert code == 1
    assert payload["status"] == "non_theorem"
    witness = payload["witness"]
    assert witness["algebra"] == {"type": "dp_chain", "size": 3}
    assert witness["valuation"]["x"] == {"rank": 1, "name": "c"}
    assert witness["value"]["name"] == "c"


def test_thm_variety_two_is_boolean(capsys):
    code, payload, _ = run_json(capsys, "thm", "--variety", "2", "x \\/ ~x")
    assert code == 0
    assert payload["status"] == "theorem"
    assert payload["variety"] == 2


def test_thm_variety_sweeps_only_the_chains_it_needs(capsys):
    # one variable in V_(10^9) is decided on C_2, C_3 and C_4, and the
    # countermodel is on the smallest refuting chain
    code, payload, _ = run_json(capsys, "thm", "--variety", str(10**9), "x \\/ ~x")
    assert code == 1
    assert payload["witness"]["algebra"] == {"type": "dp_chain", "size": 3}


def test_thm_parse_error_exits_two(capsys):
    code, _, err = run(capsys, "thm", "x \\/ ")
    assert code == 2
    assert "expected" in err


def test_thm_cap_exceeded_exits_three(capsys):
    code, _, err = run(capsys, "thm", "--cap", "10", "x & y -> y & x")
    assert code == 3
    assert "cap" in err


def test_thm_cap_is_checked_before_a_refutation_is_met(capsys):
    # C_2's first point already refutes x \/ y, but the 18 exact points
    # are counted, and refused, before any is evaluated
    code, out, err = run(capsys, "thm", "--cap", "10", "x \\/ y")
    assert (code, out, err) == (3, "", "error: 18 valuations exceed the cap of 10\n")


def test_thm_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("x -> x\n"))
    code, payload, _ = run_json(capsys, "thm", "-")
    assert code == 0
    assert payload["status"] == "theorem"


def test_thm_decides_eight_variables_under_the_default_cap(capsys):
    prelinear = " & ".join(f"((x{i} -> x{i + 1}) \\/ (x{i + 1} -> x{i}))"
                           for i in (1, 3, 5, 7))
    code, payload, _ = run_json(capsys, "thm", prelinear)
    assert code == 0
    assert payload["status"] == "theorem"
    # valid on every chain up to 7 elements, refuted by the injective
    # valuation on the 8-element chain
    code, payload, _ = run_json(capsys, "thm", str(dplogic.separating_formula(7)))
    assert code == 1
    assert payload["status"] == "non_theorem"
    witness = payload["witness"]
    assert witness["algebra"] == {"type": "dp_chain", "size": 8}
    assert {name: v["rank"] for name, v in witness["valuation"].items()} == {
        f"x{i}": i - 1 for i in range(1, 9)}
    assert witness["value"] == {"rank": 6, "name": "c"}


def test_free_one_generator(capsys):
    code, payload, _ = run_json(capsys, "free", "1")
    assert code == 0
    assert payload["cardinality"] == "48"
    assert multiset_from_json(payload["dual"]) == MultisetObj.from_lengths(
        [1, 1, 2, 3])


def test_free_zero(capsys):
    code, payload, _ = run_json(capsys, "free", "0")
    assert code == 0
    assert payload["cardinality"] == "2"
    assert multiset_from_json(payload["dual"]) == MultisetObj.from_lengths([1])


def test_free_oracle_mode(capsys):
    # no brute-force mode: dp check free checks the free algebra by its
    # universal property
    code, out, err = run(capsys, "free", "1", "--mode", "oracle")
    assert (code, out) == (2, "")
    assert err.startswith("usage: dp free ")
    assert "unrecognized arguments: --mode oracle" in err


@pytest.mark.parametrize("mode", ["closed", "power", "all"])
def test_free_has_no_modes(capsys, mode):
    # dp free answers by the power route alone; the routes' agreement is
    # checked by dp check free and the tests
    code, out, err = run(capsys, "free", "3", "--mode", mode)
    assert (code, out) == (2, "")
    assert err.startswith("usage: dp free ")
    assert err.endswith(f"dp free: error: unrecognized arguments: --mode {mode}\n")


def test_free_two_cross_checks_modes(capsys):
    code, payload, _ = run_json(capsys, "free", "2")
    assert code == 0
    assert payload["coefficients"] == {"1": 4, "2": 5, "3": 7, "4": 2}
    assert payload["cardinality"] == "1592524800"


def test_free_cap_exits_three(capsys):
    code, _, err = run(capsys, "free", "13")
    assert code == 3
    assert "cap" in err.lower()


@pytest.mark.parametrize("route", ["closed", "power", "all"])
def test_free_far_above_the_caps_exits_three_at_once(capsys, monkeypatch, route):
    # the closed form's sums for k = 3000 would run for minutes; each route
    # refuses k first, with the message it gives k = 13
    if route == "closed":
        # free_cardinality's own cap, with the power route out of the way
        from dplogic import duality as du
        monkeypatch.setattr(du, "free_dual", lambda k: du.FREE_ONE_DUAL)
    argv = (("dual", "power", "{1,1,2,3}") if route == "power" else ("free",))
    want = run(capsys, *argv, "13")
    assert want[0] == 3 and want[1] == ""
    assert run(capsys, *argv, "3000") == want


def test_free_refuses_a_negative_k_alike_in_every_mode(capsys):
    assert run(capsys, "free", "-1") == (2, "", "error: need k >= 0, got -1\n")


def test_free_six_renders_huge_cardinality(capsys):
    # the value has ~29k digits, past the interpreter's default
    # int-to-str conversion guard
    from dplogic import free_cardinality
    code, payload, _ = run_json(capsys, "free", "6")
    assert code == 0
    assert len(payload["cardinality"]) > 4300
    assert int(payload["cardinality"]) == free_cardinality(6)


def test_dual_product(capsys):
    code, payload, _ = run_json(capsys, "dual", "product", "{3}", "{3}")
    assert code == 0
    assert multiset_from_json(payload["result"]) == MultisetObj.from_lengths(
        [3, 4, 4])


def test_dual_product_of_long_chains_answers_without_recursion(capsys):
    # lengths far past what a recursion over them could reach
    assert run(capsys, "dual", "product", "{3}", "{500}") == (0, "{500:498,501:499}\n", "")
    code, out, err = run(capsys, "dual", "power", "{300}", "2")
    assert code == 3 and out == ""
    assert err == "error: power result exceeds the cap of 1000000 chain instances\n"


def test_dual_product_accepts_json_operands(capsys):
    blob = json.dumps({"chains": [{"len": 3, "mult": 1}]})
    code, payload, _ = run_json(capsys, "dual", "product", blob, "{3}")
    assert code == 0
    assert multiset_from_json(payload["result"]) == MultisetObj.from_lengths(
        [3, 4, 4])


def test_dual_coproduct(capsys):
    code, payload, _ = run_json(capsys, "dual", "coproduct", "{1,3}", "{2,3}")
    assert code == 0
    assert multiset_from_json(payload["result"]) == MultisetObj.from_lengths(
        [1, 2, 3, 3])


def test_dual_power(capsys):
    code, payload, _ = run_json(capsys, "dual", "power", "{1,3,2,1}", "2")
    assert code == 0
    assert multiset_from_json(payload["result"]) == MultisetObj.from_counts(
        {1: 4, 2: 5, 3: 7, 4: 2})


def test_dual_homcount(capsys):
    code, payload, _ = run_json(capsys, "dual", "homcount", "{3}", "{2}")
    assert code == 0
    assert payload["count"] == 1


def test_dual_inverse(capsys):
    code, payload, _ = run_json(capsys, "dual", "inverse", "{1,3,2,1}")
    assert code == 0
    assert payload["algebra"] == {"type": "product", "factors": [2, 2, 3, 4]}
    assert payload["size"] == 48
    code, out, _ = run(capsys, "dual", "inverse", "{1,3,2,1}")
    assert "[2, 2, 3, 4]" in out


def test_dual_inverse_empty_is_an_error(capsys):
    code, _, err = run(capsys, "dual", "inverse", "{}")
    assert code == 2
    assert "trivial" in err


def test_chains_counts(capsys):
    code, payload, _ = run_json(capsys, "chains", "3", "--class", "mtl")
    assert code == 0
    assert payload["count"] == 2
    code, payload, _ = run_json(capsys, "chains", "3", "--class", "dp")
    assert payload["count"] == 1
    code, payload, _ = run_json(capsys, "chains", "4", "--class", "rdp")
    assert payload["count"] == 3
    # the RDP class at size 4 properly contains the single DP chain
    from dplogic import FiniteMTLChain, is_dp_chain
    tables = [FiniteMTLChain(c["product"]) for c in payload["chains"]]
    assert sum(not is_dp_chain(c) for c in tables) >= 1


def test_chains_size_cap(capsys):
    code, _, err = run(capsys, "chains", "6")
    assert code == 2
    assert "5" in err


def test_chains_below_two_elements_say_so(capsys):
    for n in ("1", "0", "-3"):
        assert run(capsys, "chains", n) == (
            2, "", f"error: a chain needs at least 2 elements, got {n}\n")


def test_check_suites_pass(capsys):
    code, payload, _ = run_json(capsys, "check", "free")
    assert code == 0
    assert payload["ok"] is True
    assert all(row["ok"] for row in payload["checks"])


def test_check_all_pass(capsys):
    code, out, _ = run(capsys, "check", "all")
    assert code == 0
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "bogus")[0] == 2
    assert run(capsys, "dual", "bogus", "{1}")[0] == 2
    assert run(capsys, "dual", "product", "{1}")[0] == 2
    assert run(capsys, "free", "not_a_number")[0] == 2


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def run_dp(*argv, timeout=60):
    """`python -S -m dplogic ARGV` in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dplogic.__file__)))
    return subprocess.run([sys.executable, "-S", "-m", "dplogic", *argv],
                          env={"PYTHONPATH": src}, capture_output=True, text=True,
                          timeout=timeout)


# residues of a long numeral against its value stand in for str(value),
# which for ~125 000 digits costs about as much as the dp run itself
_PRIMES = (2**61 - 1, 10**9 + 7)


def assert_numeral(digits: str, value: int):
    """digits is value in decimal, by digit count and residues modulo two
    primes, read in 4000-digit chunks."""
    assert digits.isdigit() and digits[0] != "0"
    assert 10 ** (len(digits) - 1) <= value < 10 ** len(digits)
    for p in _PRIMES:
        r = 0
        for i in range(0, len(digits), 4000):
            chunk = digits[i:i + 4000]
            r = (r * pow(10, len(chunk), p) + int(chunk)) % p
        assert r == value % p


def test_dp_prints_big_numbers_exactly():
    # a hom count the size of the benchmark's (about 125 000 digits) and
    # the free cardinality at k = 6, as the dp command prints them
    from dplogic import free_cardinality
    from dplogic.duality import morphism_count, multiset_from_text
    c, d = "{3:17996,6:12403}", "{3:6011,4:3058}"
    done = run_dp("dual", "homcount", c, d)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.endswith("\n")
    count = morphism_count(multiset_from_text(c), multiset_from_text(d))
    assert_numeral(done.stdout[:-1], count)
    assert len(done.stdout) > 120_000
    done = run_dp("free", "6", "--json")
    assert (done.returncode, done.stderr) == (0, "")
    assert_numeral(json.loads(done.stdout)["cardinality"], free_cardinality(6))


def test_dp_power_of_a_fixed_base_answers_a_huge_exponent_at_once():
    for base, want in (("{1}", "{1}"), ("{2}", "{2}"), ("{}", "{}")):
        done = run_dp("dual", "power", base, str(10**12), timeout=10)
        assert (done.returncode, done.stdout, done.stderr) == (0, want + "\n", "")
    done = run_dp("dual", "power", "{3}", str(10**12))
    assert done.returncode == 3
    assert done.stderr == "error: power result exceeds the cap of 1000000 chain instances\n"


class _CountedDigits(int):
    """An int that counts its conversions to decimal."""

    conversions = 0

    def __str__(self):
        _CountedDigits.conversions += 1
        return int.__str__(self)

    def __format__(self, spec):
        _CountedDigits.conversions += 1
        return int.__format__(self, spec)


@pytest.mark.parametrize("json_out", [False, True], ids=["text", "json"])
def test_big_numbers_are_converted_to_decimal_once(capsys, monkeypatch, json_out):
    from dplogic import duality as du
    flag = ("--json",) if json_out else ()
    monkeypatch.setattr(du, "free_cardinality", lambda k: _CountedDigits(123456789))
    _CountedDigits.conversions = 0
    code, out, _ = run(capsys, "free", "3", *flag)
    assert code == 0 and "123456789" in out
    assert _CountedDigits.conversions == 1
    monkeypatch.setattr(du, "morphism_count", lambda c, d: _CountedDigits(987654321))
    _CountedDigits.conversions = 0
    code, out, _ = run(capsys, "dual", "homcount", "{3}", "{2}", *flag)
    assert code == 0 and "987654321" in out
    # the JSON writer converts through int.__repr__, which the subclass
    # does not see, so under --json no conversion is left to count
    assert _CountedDigits.conversions == (0 if json_out else 1)


@pytest.mark.parametrize("argv", [["free", "3"], ["dual", "power", "{1}", "2"],
                                  ["chains", "3"], ["check", "free"]])
def test_cap_is_a_usage_error_outside_thm(capsys, argv):
    # thm's --cap is tested by test_thm_cap_exceeded_exits_three
    for cap in (["--cap", "5"], ["--cap=5"]):
        code, out, err = run(capsys, *argv, *cap)
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --cap" in err


@pytest.mark.parametrize("argv, unknown", [(["free", "3", "--cap", "5"], "--cap 5"),
                                           (["thm", "--bogus", "x"], "--bogus")])
def test_unknown_options_get_the_subcommand_usage(capsys, argv, unknown):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert lines[0].startswith(f"usage: dp {argv[0]} [-h]")
    assert lines[-1] == f"dp {argv[0]}: error: unrecognized arguments: {unknown}"


def test_check_all_json_matches_the_golden_output():
    # every row and detail of every suite, byte for byte
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "check_all.json")
    done = run_dp("check", "all", "--json")
    assert (done.returncode, done.stderr) == (0, "")
    with open(golden, encoding="utf-8", newline="") as f:
        assert done.stdout == f.read()


def test_too_deep_formulas_exit_two_without_a_traceback():
    for text in ("~" * 1000 + "x", "~" * 5000 + "(x -> x)",
                 " & ".join(["x"] * 1500)):
        done = run_dp("thm", text)
        assert done.returncode == 2
        assert done.stderr.startswith("error: formula nested deeper than")
        assert "Traceback" not in done.stderr


def test_deep_formulas_within_the_limit_are_answered(capsys):
    deepest = "~" * 999 + "x"
    code, out, _ = run(capsys, "thm", deepest)
    assert code == 1
    assert out.startswith(f"non-theorem: {deepest}\n")
    code, out, _ = run(capsys, "thm", "--variety", "3", "~" * 998 + "(x -> x)")
    assert code == 0
    code, payload, _ = run_json(capsys, "thm", "(" * 3000 + "x" + ")" * 3000)
    assert code == 1
    assert payload["formula"] == "x"
    assert payload["witness"]["algebra"] == {"type": "dp_chain", "size": 2}


@pytest.mark.parametrize("operand", [
    '{"chains": 5}',
    '{"chains": [{"l": 3}]}',
    '["chains"]',
    '{"chains": [{"len": "3", "mult": 1}]}',
    '{"chains": [{"len": 3.5, "mult": 1}]}',
    '{"chains": [{"len": true, "mult": 1}]}',
    '{"chains": [{"len": 3, "mult": null}]}',
    '{"chains": [[3, 1]]}',
    '{"chains": [], "extra": 1}',
    '{"chains": [',
])
def test_malformed_json_multisets_exit_two_without_a_traceback(operand):
    done = run_dp("dual", "product", operand, "{1}")
    assert done.returncode == 2
    assert done.stderr.startswith("error: ")
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


def _argparse_values(parser, argv):
    """argparse's values for argv, or None where it exits (help, errors)."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return vars(parser.parse_args(argv))
    except SystemExit:
        return None


_WORDS = ["x", "x -> x", "-", "--", "-1", "-h", "--help", "3", " 4 ", "٣", "3.0",
          "1_0", "", "{3}", "{1,3}", "=", "all", "closed", "dp", "rdp", "free",
          "product", "power", "inverse", "bogus", "--json", "--js", "--json=1",
          "--cap", "--cap=7", "--cap=", "--ca=7", "--variety", "--variety=2",
          "--variety=-2", "--mode", "--mode=all", "--mode=none", "--mo=all",
          "--class", "--class=wnm", "--cls=dp", "-x", "- x", "-2"]


def _random_argv(rng, command):
    """A command line for command: its positionals, options inserted
    anywhere, and often one word replaced by, or added from, _WORDS."""
    words, options = [], []
    for name, spec in cli._COMMON + cli._COMMANDS[command][2]:
        values = (list(spec.get("choices", ())) or (["2", "12", " 5", "٣", "x"]
                  if spec.get("type") is int else ["x", "x -> x", "-", "{3}", "2"]))
        if not name.startswith("--"):
            words += [rng.choice(values)
                      for _ in range(rng.choice((1, 2)) if "nargs" in spec else 1)]
        elif rng.random() < 0.5:
            options.append([name] if "action" in spec else
                           rng.choice(([name, rng.choice(values)],
                                       [f"{name}={rng.choice(values)}"])))
    for option in options:
        at = rng.randrange(len(words) + 1)
        words[at:at] = option
    if rng.random() < 0.5:
        at = rng.randrange(len(words) + 1)
        words[at:at + rng.randrange(2)] = [rng.choice(_WORDS)]
    return [command] + words


def test_canonical_parser_agrees_with_argparse():
    # wherever the table parser accepts a command line, argparse built from
    # the same table accepts it with equal values
    parser = cli.build_parser()
    rng = random.Random(6)
    accepted = 0
    for _ in range(6000):
        command = rng.choice(list(cli._COMMANDS) + ["bogus"])
        if command in cli._COMMANDS:
            argv = _random_argv(rng, command)
        else:
            argv = [command] + [rng.choice(_WORDS) for _ in range(rng.randrange(4))]
        try:
            ours = cli._parse_canonical(argv)
        except ValueError:
            continue
        accepted += 1
        assert _argparse_values(parser, argv) == ours, argv
    assert accepted > 1500
    # the command lines the benchmark and the README use are canonical
    for argv in (["thm", "--json", "x \\/ ~x"], ["thm", "--variety", "2", "x"],
                 ["thm", "x", "--cap=10"], ["thm", "-"], ["free", "3", "--json"],
                 ["dual", "power", "{1,3}", "2"],
                 ["dual", "product", "{3}", "{3}", "--json"],
                 ["chains", "4", "--class", "wnm", "--json"], ["check", "all"]):
        assert cli._parse_canonical(argv) == _argparse_values(parser, argv), argv


_JSON_LEAVES = (st.none() | st.booleans() | st.integers()
                | st.integers(min_value=-10**1000, max_value=10**1000)
                | st.text(st.characters(), max_size=12))


@settings(max_examples=300, deadline=None)
@given(st.recursive(_JSON_LEAVES, lambda inner: (
    st.lists(inner, max_size=4)
    | st.dictionaries(st.text(st.characters(), max_size=6), inner, max_size=4)),
    max_leaves=20))
def test_json_writer_matches_json_dumps(payload):
    assert cli._json_text(payload) == json.dumps(payload, sort_keys=True)


def test_import_footprint():
    # start-up cost is the modules loaded: none of these may be on the
    # import path of `dp`, and the usual requests (canonical command lines,
    # --json among them) load no more of them: argparse, re and json load
    # only for help, usage errors, JSON operands and axiom schemas; the C
    # module _json only for --json output, random only for check axioms
    probe = ("import sys, dplogic.cli\n"
             "heavy = ('dataclasses', 'typing', 'inspect', 'ast', 'dis', "
             "'tokenize', 'shutil', 'random', 'json', 'dplogic.suites', "
             "'re', 'argparse', 'enum', 'gettext', 'locale', '_json')\n"
             "print('loaded:', *[m for m in heavy if m in sys.modules])\n"
             "for argv in (['thm', 'x'], ['dual', 'product', '{3}', '{1,2}'], "
             "['dual', 'homcount', '{3}', '{2}']):\n"
             "    dplogic.cli.main(argv)\n"
             "print('loaded:', *[m for m in heavy if m in sys.modules])\n"
             "for argv in (['thm', '--json', 'x \\\\/ ~x'], "
             "['free', '3', '--json'], ['chains', '3', '--json']):\n"
             "    dplogic.cli.main(argv)\n"
             "print('loaded:', *[m for m in heavy if m in sys.modules])\n"
             "dplogic.cli.main(['check', 'duality'])\n"
             "print('loaded:', *[m for m in heavy if m in sys.modules])\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(dplogic.__file__)))
    done = subprocess.run([sys.executable, "-S", "-c", probe], env={"PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    loaded = [line for line in done.stdout.splitlines() if line.startswith("loaded:")]
    assert done.returncode == 0, done.stderr
    assert loaded == ["loaded:", "loaded:", "loaded: _json",
                      "loaded: dplogic.suites _json"]
