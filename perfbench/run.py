"""dplogic benchmark: seeded `dp` workloads, timed end to end, traced per layer.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 50 --trace 0

Run from the repository root.  With `--trace 0` the requests run one at a
time as `dp` subprocesses (a closed loop with one client) and the run
reports latency, throughput, peak memory and cold set-up time.  With
`--trace 1` the same requests are replayed in-process through `cli.main`,
once plain and once with timing wrappers on every layer, and the run
reports per-layer self times and counts.  `--defects` runs the requests
the program is known to get wrong.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

sys.path.insert(0, HERE)
from oracle import Request, check  # noqa: E402
from workloads import WORKLOADS, known_defects  # noqa: E402

# above every request's worst case at the seed commit (free 7, 3 s),
# below the known stalls
DEADLINE_S = 15.0
INTERP_REPEATS = 7

@dataclass
class Outcome:
    seconds: float
    code: int
    out: str
    err: str
    maxrss_kb: int
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def child_env(pycache: str) -> dict:
    # an explicit environment: no site hooks (-S), bytecode written to a
    # cache the benchmark owns, stable hashing
    return {"PYTHONPATH": SRC, "PYTHONPYCACHEPREFIX": pycache,
            "PYTHONHASHSEED": "0", "PYTHONIOENCODING": "utf-8"}


def spawn(argv: list[str], env: dict, stdin: str | None = None,
          deadline: float = DEADLINE_S) -> tuple[float, int, str, str, int, bool]:
    """Run one child to exit: (seconds, code, out, err, maxrss_kb, killed).

    The child is killed at the deadline; its resource usage comes from
    wait4, so every child is reaped here."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-S"] + argv, cwd=ROOT, env=env,
                            stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if stdin is not None:
        proc.stdin.write(stdin.encode())
        proc.stdin.close()
    fds = (proc.stdout.fileno(), proc.stderr.fileno())
    chunks = {fd: [] for fd in fds}
    killed = False
    with selectors.DefaultSelector() as sel:
        for fd in chunks:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            left = start + deadline - time.perf_counter()
            if left <= 0 and not killed:
                proc.kill()
                killed = True
            for key, _ in sel.select(timeout=max(left, 0) if not killed else None):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    out, err = (b"".join(chunks[fd]).decode("utf-8", "replace") for fd in fds)
    return seconds, proc.returncode, out, err, usage.ru_maxrss, killed


def run_request(req: Request, env: dict, deadline: float = DEADLINE_S) -> Outcome:
    seconds, code, out, err, rss, killed = spawn(
        ["-m", "dplogic"] + list(req.argv), env, req.stdin, deadline)
    outcome = Outcome(seconds, code, out, err, rss)
    if killed:
        outcome.error = f"deadline of {deadline:g} s exceeded"
    return outcome


def verify(req: Request, outcome: Outcome) -> Outcome:
    """Check the response against the oracle (outside any timed region)."""
    if outcome.error is None:
        outcome.error = check(req, outcome.code, outcome.out, outcome.err)
    return outcome


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def metadata(workload: str, seed: int) -> dict:
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "dplogic"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    digest.update(name.encode() + fh.read())
    commit = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"workload": workload, "seed": seed, "python": platform.python_version(),
            "nproc": os.cpu_count(), "commit": commit or "unknown",
            "src_sha256": digest.hexdigest()[:16]}


# --- end-to-end run ----------------------------------------------------------

def cold_run(first: Request, i: int) -> Outcome:
    """The set-up request with a fresh, empty bytecode cache."""
    cache = fresh_dir(os.path.join(BUILD, f"pycache-cold-{i % 2}"))
    return verify(first, run_request(first, child_env(cache)))


def run_timed(workload, seed: int, seconds: float, env: dict):
    """Rounds over the workload's request list until `seconds` have passed.

    A round runs the set-up request cold once, then makes passes over the
    list: every request runs in the first pass, and a request whose
    population repeats runs in as many passes as it repeats.  The run
    stops after the round that ends nearest to `seconds`.  Returns the
    cold outcomes and (request, outcomes) pairs."""
    first = workload.setup_request(seed)
    done = [(req, []) for req in workload.requests(seed)]
    passes = max(workload.runs_per_round(req) for req, _ in done)
    cold = []
    start = time.perf_counter()
    rounds = 0
    while True:
        cold.append(cold_run(first, len(cold)))
        for p in range(passes):
            for req, outcomes in done:
                if p < workload.runs_per_round(req):
                    outcomes.append(run_request(req, env))
        rounds += 1
        spent = time.perf_counter() - start
        if spent + spent / rounds / 2 >= seconds:
            break
    for req, outcomes in done:
        for outcome in outcomes:
            verify(req, outcome)
    return cold, done


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    workload = WORKLOADS[name]
    first = workload.setup_request(seed)
    # warm the timed run's bytecode cache, outside the timed region
    env = child_env(fresh_dir(os.path.join(BUILD, "pycache")))
    warm = [verify(first, run_request(first, env))]
    setup_outcomes, done = run_timed(workload, seed, seconds, env)
    setup_outcomes = warm + setup_outcomes
    # a request's latency is the best of its rounds: other tenants of the
    # machine only ever add time, and they come and go
    best = [min(o.seconds for o in outcomes) * 1000
            if all(o.ok for o in outcomes) else math.inf
            for _, outcomes in done]
    tail = workload.tail_pct
    correct = sum(b < math.inf for b in best)
    ranked = sorted(zip(best, (len(o) for _, o in done)))
    beyond = sum(n for _, n in ranked[math.ceil(tail / 100 * len(best)):])
    runs = [o for _, outcomes in done for o in outcomes]
    report_failures([(req, o) for req, outcomes in done for o in outcomes]
                    + [(first, o) for o in setup_outcomes])
    print(f"# {len(best)} requests, {len(runs)} timed runs in {len(setup_outcomes) - 1} rounds; "
          f"tail = p{tail} with {beyond} timed runs beyond it")
    finite = [b for b in best if b < math.inf]
    return {
        "attempted": len(runs) + len(setup_outcomes),
        "failed": sum(not o.ok for o in runs + setup_outcomes),
        "metrics": {
            "setup_s": (statistics.median(o.seconds for o in setup_outcomes[1:]), "s"),
            "latency_p50_ms": (percentile(best, 50), "ms"),
            "latency_tail_ms": (percentile(best, tail), "ms"),
            "throughput_rps": (correct / sum(finite) * 1000 if finite else 0.0, "1/s"),
            "peak_rss_mb": (max(o.maxrss_kb for o in runs) / 1024, "MB"),
        },
    }


def report_failures(done) -> None:
    for req, outcome in done:
        if not outcome.ok:
            print(f"# FAILED {' '.join(req.argv)[:100]}: {outcome.error}")


# --- traced run --------------------------------------------------------------

def trace_requests(name: str, seed: int) -> list[Request]:
    return list(WORKLOADS[name].trace_extra) + WORKLOADS[name].requests(seed)


def median_wall(argv: list[str], env: dict) -> float:
    walls = []
    for _ in range(INTERP_REPEATS):
        seconds, code, _, err, _, killed = spawn(argv, env)
        if code or killed:
            raise RuntimeError(f"{argv} failed: {err.strip()[-200:]}")
        walls.append(seconds * 1000)
    return statistics.median(walls)


def traced(name: str, seed: int, trace_path: str) -> dict:
    import spans as tracing
    requests = trace_requests(name, seed)
    cache = fresh_dir(os.path.join(BUILD, "pycache-trace"))
    env = child_env(cache)
    interp_ms = median_wall(["-c", "pass"], env)
    import_ms = median_wall(["-c", "import dplogic"], env) - interp_ms

    sys.path.insert(0, SRC)
    sys.dont_write_bytecode = True
    from dplogic import cli

    # each request runs as a subprocess, in-process, and in-process traced,
    # back to back, so drift in machine speed hits all three alike
    sub, plain, traced_run = [], [], []
    tracer = tracing.Tracer()
    for i, req in enumerate(requests):
        sub.append(verify(req, run_request(req, env)))
        for with_spans, results in ((False, plain), (True, traced_run)):
            if with_spans:
                tracer.request = i
                tracer.install()
            try:
                seconds, code, out, err = tracing.call(cli.main, req.argv, req.stdin)
            finally:
                tracer.uninstall()
            results.append(Outcome(seconds, code, out, err, 0, check(req, code, out, err)))

    spans, own = tracer.spans, tracing.self_times(tracer.spans)
    with open(trace_path, "w") as fh:
        json.dump([{"name": s.name, "request": s.request, "parent": s.parent,
                    "start_ns": s.start, "end_ns": s.end, "self_ns": t, **s.counts}
                   for s, t in zip(spans, own)], fh)

    def ms(layer):
        return sum(t for s, t in zip(spans, own) if s.layer == layer) / 1e6

    def total(key):
        return sum(s.counts.get(key, 0) for s in spans)

    holds_ms = ms("algebra.holds")
    points = total("points")
    minimize = [(t, s) for s, t in zip(spans, own) if s.counts.get("minimize")]
    tries = total("tries")
    sub_wall = sum(o.seconds for o in sub)
    plain_wall = sum(o.seconds for o in plain)
    traced_wall = sum(o.seconds for o in traced_run)

    in_process = sum(own) / 1e6
    print(f"# traced replay: {len(requests)} requests, {in_process:.1f} ms in process; self time by layer:")
    for layer in sorted({s.layer for s in spans}):
        print(f"#   {layer:22s} {ms(layer):10.1f} ms  {100 * ms(layer) / in_process:5.1f} %")
    results = sub + plain + traced_run
    report_failures(list(zip(requests * 3, results)))
    return {
        "attempted": len(results),
        "failed": sum(not o.ok for o in results),
        "metrics": {
            "cli.interp_ms": (interp_ms, "ms"),
            "cli.import_ms": (import_ms, "ms"),
            "cli.self_ms": (ms("cli"), "ms"),
            "cli.output_bytes": (sum(len(o.out.encode()) for o in traced_run), "bytes"),
            "cli.startup_share": ((sub_wall - plain_wall) / sub_wall, "ratio"),
            "formula.parse_ms": (ms("formula.parse"), "ms"),
            "formula.render_ms": (ms("formula.render"), "ms"),
            "formula.ast_nodes": (total("nodes"), "count"),
            "algebra.holds_ms": (holds_ms, "ms"),
            "algebra.holds_calls": (sum(s.layer == "algebra.holds" for s in spans), "count"),
            "algebra.sweep_points": (points, "count"),
            "algebra.points_per_s": (points / holds_ms * 1000 if holds_ms else 0.0, "1/s"),
            "algebra.minimize_ms": (sum(t for t, _ in minimize) / 1e6, "ms"),
            "algebra.minimize_points": (sum(s.counts["points"] for _, s in minimize), "count"),
            "algebra.homs_ms": (ms("algebra.homs"), "ms"),
            "algebra.hom_tries": (tries, "count"),
            "algebra.hom_yield": (total("found") / tries if tries else 0.0, "ratio"),
            "algebra.chains_ms": (ms("algebra.chains"), "ms"),
            "duality.cardinality_ms": (ms("duality.cardinality"), "ms"),
            "duality.cardinality_bits": (total("bits"), "bits"),
            "duality.routes_ms": (ms("duality.routes"), "ms"),
            "duality.product_ms": (ms("duality.product"), "ms"),
            "duality.product_calls": (sum(s.name == "duality.product" for s in spans), "count"),
            "duality.homcount_ms": (ms("duality.homcount"), "ms"),
            "suites.axioms_ms": (ms("suites.axioms"), "ms"),
            "suites.duality_ms": (ms("suites.duality"), "ms"),
            "suites.free_ms": (ms("suites.free"), "ms"),
            "trace.overhead_ratio": (traced_wall / plain_wall, "ratio"),
        },
    }


# --- known defects -----------------------------------------------------------

def defects() -> int:
    env = child_env(fresh_dir(os.path.join(BUILD, "pycache-defects")))
    still = 0
    for what, req in known_defects():
        outcome = verify(req, run_request(req, env))
        still += not outcome.ok
        state = f"FAILS ({outcome.error})" if not outcome.ok else "fixed"
        print(f"{state[:110]:110s} {outcome.seconds:7.2f} s  {what}")
    print(json.dumps({"known_defects": len(known_defects()), "still_failing": still}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--defects", action="store_true",
                        help="run the known-defect requests instead")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "dplogic", "__init__.py")):
        print(f"error: no dplogic sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    os.makedirs(BUILD, exist_ok=True)
    if args.defects:
        return defects()
    if args.workload is None:
        parser.error("--workload is required")
    meta = metadata(args.workload, args.seed)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    if args.trace:
        result = traced(args.workload, args.seed, os.path.join(BUILD, f"spans-{tag}.json"))
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    result["correct"] = result["failed"] == 0
    with open(os.path.join(BUILD, f"result-{tag}.json"), "w") as fh:
        json.dump({**meta, **result}, fh, indent=1)
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for key, metric in result["metrics"].items():
        print(f"# {key:26s} {metric['value']:14.4f} {metric['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
