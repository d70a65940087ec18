"""Exit codes, JSON schemas and human output of the `dp` command."""

import argparse
import io
import json
import os
import subprocess
import sys

import pytest

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


def test_thm_parse_error_exits_two(capsys):
    code, _, err = run(capsys, "thm", "x \\/ ")
    assert code == 2
    assert "expected" in err


def test_thm_cap_exceeded_exits_three(capsys):
    code, _, err = run(capsys, "thm", "--cap", "10", "x & y -> y & x")
    assert code == 3
    assert "cap" in err


def test_thm_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("x -> x\n"))
    code, payload, _ = run_json(capsys, "thm", "-")
    assert code == 0
    assert payload["status"] == "theorem"


def test_free_one_generator(capsys):
    code, payload, _ = run_json(capsys, "free", "1")
    assert code == 0
    assert payload["cardinality"] == "48"
    assert multiset_from_json(payload["dual"]) == MultisetObj.from_lengths(
        [1, 1, 2, 3])
    assert payload["oracle_count"] == 48


def test_free_zero(capsys):
    code, payload, _ = run_json(capsys, "free", "0")
    assert code == 0
    assert payload["cardinality"] == "2"
    assert multiset_from_json(payload["dual"]) == MultisetObj.from_lengths([1])


def test_free_two_cross_checks_modes(capsys):
    code, payload, _ = run_json(capsys, "free", "2", "--mode", "all")
    assert code == 0
    assert payload["coefficients"] == {"1": 4, "2": 5, "3": 7, "4": 2}
    assert payload["cardinality"] == "1592524800"


def test_free_route_disagreement_exits_one(capsys, monkeypatch):
    from dplogic import duality
    monkeypatch.setattr(duality, "free_dual_recurrence",
                        lambda k: MultisetObj.from_lengths([1]))
    code, out, err = run(capsys, "free", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "recurrence disagrees" in err


def test_free_cap_exits_three(capsys):
    code, _, err = run(capsys, "free", "13")
    assert code == 3
    assert "cap" in err.lower()


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


def run_dp(*argv):
    """`python -S -m dplogic ARGV` in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dplogic.__file__)))
    return subprocess.run([sys.executable, "-S", "-m", "dplogic", *argv],
                          env={"PYTHONPATH": src}, capture_output=True, text=True,
                          timeout=60)


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


def _all_help(parser):
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    return ([parser.format_help(), parser.format_usage()]
            + [p.format_help() for p in subparsers.choices.values()])


def test_help_matches_argparse_at_every_width(monkeypatch):
    for columns in [None, "", "abc", "0", "-4"] + [str(w) for w in range(1, 161)]:
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        ours = _all_help(cli.build_parser())
        with monkeypatch.context() as m:
            m.setattr(cli, "_Formatter", argparse.HelpFormatter)
            assert _all_help(cli.build_parser()) == ours, columns


def test_import_footprint():
    # start-up cost is the modules loaded: none of these may be on the
    # import path of `dp`, and a `thm` request loads no more of them
    probe = ("import sys, dplogic.cli\n"
             "heavy = ('dataclasses', 'typing', 'inspect', 'ast', 'dis', "
             "'tokenize', 'shutil', 'random', 'json', 'dplogic.suites')\n"
             "print(*[m for m in heavy if m in sys.modules])\n"
             "dplogic.cli.main(['thm', 'x'])\n"
             "print(*[m for m in heavy if m in sys.modules])\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(dplogic.__file__)))
    done = subprocess.run([sys.executable, "-S", "-c", probe], env={"PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    lines = done.stdout.splitlines()
    assert done.returncode == 0, done.stderr
    assert lines[0] == ""
    assert lines[-1] == ""
