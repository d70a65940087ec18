"""The benchmark's own checks: its oracle, its failure accounting, its tracer.

    python3 -m pytest perfbench -q
"""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from oracle import Request, check  # noqa: E402
from workloads import (MEDIAN_SKELETONS, WORKLOADS, cli_block, disguise,  # noqa: E402
                       separating, skeleton, var_names)


def theorem_request():
    return Request(("thm", "--json", "x \\/ ~(x^2)"), 0, ("theorem", None), "t")


def refute_request():
    f = ("\\/", ("v", "x"), ("~", ("v", "x")))
    return Request(("thm", "--json", "(x \\/ ~(x))"), 1, ("refute", f, 3), "t")


def witness(size, rank, value):
    return json.dumps({"status": "non_theorem", "formula": "x \\/ ~x", "witness": {
        "algebra": {"type": "dp_chain", "size": size},
        "valuation": {"x": {"rank": rank, "name": "?"}},
        "value": {"rank": value, "name": "?"}}})


def test_correct_responses_pass():
    assert check(theorem_request(), 0, '{"status": "theorem", "formula": "x"}', "") is None
    assert check(refute_request(), 1, witness(3, 1, 1), "") is None


def test_flipped_verdict_is_a_failure():
    assert check(theorem_request(), 0, '{"status": "non_theorem", "formula": "x"}', "")
    assert check(refute_request(), 1, '{"status": "theorem", "formula": "x"}', "")


def test_wrong_countermodel_is_a_failure():
    assert "3-chain" in check(refute_request(), 1, witness(4, 2, 2), "")
    # x = top satisfies x \/ ~x, so this is no countermodel
    assert "top" in check(refute_request(), 1, witness(3, 2, 2), "")
    assert "oracle" in check(refute_request(), 1, witness(3, 1, 0), "")


def test_wrong_exit_code_is_a_failure():
    assert "exit code" in check(theorem_request(), 1, '{"status": "theorem"}', "")
    error = Request(("thm", "x \\/"), 2, ("error",), "t")
    assert check(error, 2, "", "error: expected a formula") is None
    assert "exit code" in check(error, 1, "", "error: expected a formula")


def test_traceback_is_a_failure():
    err = "Traceback (most recent call last):\nRecursionError: too deep\n"
    assert "traceback" in check(theorem_request(), 0, '{"status": "theorem"}', err)


def test_deadline_overrun_is_a_failure(tmp_path):
    req = Request(("thm", "--json", oracle.render(separating(var_names(random.Random(0), 6),
                                                              random.Random(0)))),
                  1, ("refute", None, 6), "t")
    outcome = run.run_request(req, run.child_env(str(tmp_path)), deadline=0.05)
    assert not outcome.ok and "deadline" in outcome.error
    assert outcome.seconds < 5


def test_dp_chain_operations_follow_the_definitions():
    x, y = ("v", "x"), ("v", "y")
    # on the 5-chain: 4 is the top, 3 the coatom
    assert oracle.dp_value(("&", x, y), 5, {"x": 2, "y": 4}) == 2
    assert oracle.dp_value(("&", x, y), 5, {"x": 2, "y": 3}) == 0
    assert oracle.dp_value(("->", x, y), 5, {"x": 2, "y": 1}) == 3
    assert oracle.dp_value(("->", x, y), 5, {"x": 4, "y": 1}) == 1
    assert oracle.dp_value(("->", x, y), 5, {"x": 1, "y": 1}) == 4


def test_multiset_answers_match_the_readme():
    three = {3: 1}
    assert oracle.ms_product(three, three) == {3: 1, 4: 2}
    assert oracle.homcount_residues({3: 1, 4: 2}, three) == (4, 4)
    assert oracle.free_coefficients(1) == {1: 2, 2: 1, 3: 1}
    assert oracle.free_coefficients(2) == {1: 4, 2: 5, 3: 7, 4: 2}
    assert oracle.ms_power({1: 2, 2: 1, 3: 1}, 3) == oracle.free_coefficients(3)


def test_pinned_free_values_match_the_recurrence():
    pinned = oracle.expected()["free"]
    assert pinned["1"]["cardinality"] == "48"
    assert pinned["2"]["cardinality"] == "1592524800"
    for k, entry in pinned.items():
        assert list(oracle.cardinality_residues(oracle.free_coefficients(int(k)))) \
            == entry["residues"]
        if "cardinality" in entry:
            assert len(entry["cardinality"]) == entry["digits"]
            assert list(oracle.decimal_residues(entry["cardinality"])) == entry["residues"]


def test_workloads_are_seeded():
    for w in WORKLOADS.values():
        assert w.requests(3) == w.requests(3)
        assert w.requests(3) != w.requests(4)


def test_disguise_keeps_a_theorem_and_its_shape():
    rng = random.Random(5)
    for schema, variant in MEDIAN_SKELETONS:
        f = skeleton(schema, variant)
        g = disguise(f, rng)
        names = oracle.variables(g)
        assert g != f and len(names) == 5
        assert oracle.node_count(g) == oracle.node_count(f)
        for _ in range(200):
            val = {name: rng.randrange(8) for name in names}
            assert oracle.dp_value(g, 8, val) == 7


def test_excluded_middle_is_refuted_at_the_second_valuation():
    for seed in range(5):
        early = [req.expect[1] for req in WORKLOADS["decide"].requests(seed)
                 if req.expect[0] == "refute" and req.expect[2] == 3]
        assert len(early) == 1
        names = oracle.variables(early[0])
        top = len(names) + 2
        val = dict.fromkeys(names, 0)
        assert oracle.dp_value(early[0], top + 1, val) == top
        val[names[-1]] = 1
        assert oracle.dp_value(early[0], top + 1, val) != top


def test_cli_block_is_answered_correctly_in_process():
    from dplogic import cli
    for req in cli_block(random.Random(7)):
        _, code, out, err = spans.call(cli.main, req.argv, req.stdin)
        assert check(req, code, out, err) is None, req.argv


def test_tracer_marks_minimisation_and_restores_the_module():
    from dplogic import algebra, cli
    original = algebra.holds
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, code, _, _ = spans.call(cli.main, ["thm", "--json", "x \\/ ~x"], None)
    finally:
        tracer.uninstall()
    assert algebra.holds is original and code == 1
    sweeps = [s for s in tracer.spans if s.layer == "algebra.holds"]
    # the 4-chain refutes at x = 1, then the 2-chain holds, the 3-chain refutes
    assert [s.counts["points"] for s in sweeps] == [2, 2, 2]
    assert [bool(s.counts.get("minimize")) for s in sweeps] == [False, True, True]
    own = spans.self_times(tracer.spans)
    assert all(t >= 0 for t in own)
