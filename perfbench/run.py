"""The repository's benchmark: two workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload protocol_full --seed 1 --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  Human-readable lines and one
``record:`` line with the run's provenance come first; the last line of
standard output is the JSON result.  Every output is checked; the exit
code is 0 only when all of them are correct and none failed.
See README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import selftest  # noqa: E402
from layers import UNITS, overhead_pct, parse_prometheus, protocol_layers, serve_layers  # noqa: E402
from serve import Client, Op, Server  # noqa: E402
from stats import LATENCY_WINDOW, latency_summary, nearest_rank, windowed_rate  # noqa: E402

perf_counter = time.perf_counter

WORKLOADS = ("protocol_full", "serve_distinct")

END_TO_END_UNITS = {
    "setup_s": "s",
    "runs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "capacity_rps": "1/s",
    "peak_rss_mb": "MiB",
}

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5

#: Share of ``--seconds`` given to the open phase of a serve run.
OPEN_SHARE = 0.6

#: serve_distinct server flags; every server also gets its own journal.
SERVE_FLAGS = ["--mode", "processes", "--workers", "1"]

#: Open-loop rate (req/s): about 40% of the capacity_rps measured at the
#: commit that added this benchmark (18-26 req/s on a shared 2-vCPU host
#: whose speed varied up to 2x between runs).  At 60% the queue behind
#: the one worker amplified the host's slow stretches, and latency
#: spread more than capacity.
OPEN_RATE = 7.0

#: Closed-loop requests in flight per connection in the saturate phase.
INFLIGHT = 2

#: CPUs the run may use.  The load generator and every process under
#: test start on the first; a serve run moves the server's workers to the
#: last.  Request and response then hop between the generator and the
#: server on one CPU: on a shared host a hop between CPUs waits for the
#: other vCPU to be scheduled, which cut the capacity of a cache-hit
#: serve workload threefold in busy stretches.
CPUS = sorted(os.sched_getaffinity(0))

#: A run whose open-loop sends slipped more than this at p95 says so.
GENERATOR_LAG_LIMIT_MS = 2.0

#: In-process re-runs per serve phase (rounds and messages must match).
RERUN_SAMPLE = 3


# --------------------------------------------------------------------- #
# Provenance                                                            #
# --------------------------------------------------------------------- #


def source_identity(root: str) -> Dict:
    """git sha when the checkout is a repository, and a digest of src/."""
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16]}


def program_env(root: str) -> Dict[str, str]:
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"))


# --------------------------------------------------------------------- #
# protocol_full                                                         #
# --------------------------------------------------------------------- #


def run_protocol_full(root: str, seed: int, seconds: float, traced: bool) -> Dict:
    command = [
        sys.executable, os.path.join(HERE, "protocol_full.py"),
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced)),
    ]
    setups = []
    repeats = 1 if traced else SETUP_REPEATS
    for attempt in range(repeats):
        started = perf_counter()
        child = subprocess.Popen(
            command, cwd=root, env=program_env(root), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        ready = child.stdout.readline().strip()
        setups.append(perf_counter() - started)
        if ready != "READY":
            child.kill()
            child.wait()
            raise RuntimeError(f"protocol_full child did not start: {ready!r}")
        if attempt < repeats - 1:
            child.communicate("exit\n", timeout=60)
    try:
        output, _ = child.communicate("go\n", timeout=seconds + 100)
    finally:
        if child.poll() is None:  # timed out or interrupted
            child.kill()
            child.wait()
    if child.returncode != 0:
        raise RuntimeError(f"protocol_full child exited with {child.returncode}")
    report = json.loads(output.strip().splitlines()[-1])

    result = {
        "attempted": report["attempted"],
        "failed": report["failed"],
        "problems": report["problems"],
        "record": {"passes": len(report["passes"]), "runs_per_pass": len(report["run_list"])},
    }
    if traced:
        layers, problems = protocol_layers(report)
        result["metrics"] = layers
        result["problems"] += problems
        return result
    failed_runs = set(report["failed_runs"])
    per_pass = len(report["run_list"])
    latencies_ms = [
        math.inf if index in failed_runs else 1000.0 * (build + call)
        for p in report["passes"]
        for index, (build, call) in enumerate(p["runs"])
    ]
    summary = latency_summary(latencies_ms, per_pass)
    runs_per_s = per_pass / statistics.median(p["wall_s"] for p in report["passes"])
    result["metrics"] = {
        "setup_s": statistics.median(setups),
        "runs_per_s": runs_per_s,
        "latency_p50_ms": summary["p50_ms"],
        "latency_p95_ms": summary["p95_ms"],
        "capacity_rps": runs_per_s,
        "peak_rss_mb": report["peak_rss_mb"],
    }
    result["record"].update(
        setup_samples_s=setups, latency_samples=summary["samples"],
        supported_percentile=summary["supported_percentile"],
    )
    return result


# --------------------------------------------------------------------- #
# serve_distinct                                                        #
# --------------------------------------------------------------------- #


def _check_phase(ops, phase: str, memo: Dict):
    """Counts for one phase and the ops that succeeded; checks every answer."""
    from checks import check_response
    from workloads import request_vector

    reasons: Dict[str, int] = {}
    problems: List[str] = []
    ok = []
    for op in ops:
        response = op.response
        if op.dropped or response is None:  # a late answer does not count
            reason = "dropped"
        elif response.get("request_id") != op.payload["request_id"]:
            reason = "wrong_request_id"
        elif response.get("verdict") == "ERROR":
            reason = response.get("error_code") or "ERROR"
        else:
            # Equal computations get equal answers: check each pair once.
            key = (
                json.dumps({k: v for k, v in op.payload.items()
                            if k not in ("request_id", "idempotency_key")}, sort_keys=True),
                json.dumps({k: v for k, v in response.items()
                            if k not in ("request_id", "cached", "elapsed_sec")}, sort_keys=True),
            )
            if key not in memo:
                memo[key] = check_response(op.payload["kind"], request_vector(op.payload), response)
            reason = "wrong_answer" if memo[key] else None
            if memo[key] and len(problems) < 5:
                problems.append(f"{op.payload['request_id']}: {'; '.join(memo[key])}")
        if reason is None:
            ok.append(op)
        else:
            reasons[reason] = reasons.get(reason, 0) + 1
    counts = {"phase": phase, "attempted": len(ops), "succeeded": len(ok),
              "failed": len(ops) - len(ok), "failed_by_reason": reasons}
    return counts, ok, problems


def _rerun_sample(ok_ops, seed: int, label: str) -> List[str]:
    """Re-run a seeded sample in-process; rounds and messages must match."""
    from repro import Network
    from repro.service import RealizationRequest, run_request
    from workloads import sample_indices

    problems = []
    for index in sample_indices(seed, len(ok_ops), RERUN_SAMPLE, label):
        op = ok_ops[index]
        request = RealizationRequest.from_dict(op.payload)
        local = run_request(request, Network(request.size, request.config())).to_dict()
        for field in ("verdict", "num_edges", "rounds", "simulated_rounds",
                      "charged_rounds", "messages", "words"):
            if local[field] != op.response[field]:
                problems.append(
                    f"{op.payload['request_id']}: served {field}={op.response[field]}, "
                    f"in-process {local[field]}"
                )
    return problems


def _capacity(ok_ops, window: int) -> float:
    """Successful responses per second over a closed-loop phase."""
    return windowed_rate([op.recv for op in ok_ops], window)


def run_serve(root: str, tmp: str, seed: int, seconds: float, traced: bool) -> Dict:
    from workloads import DistinctStream

    stream = DistinctStream(seed)
    journals: List[str] = []
    phases: List = []  # (phase, ops), checked and counted after the run

    def start(trace_out=None) -> Server:
        journals.append(os.path.join(tmp, f"journal-{len(journals)}.wal"))
        flags = SERVE_FLAGS + ["--journal", journals[-1]]
        if trace_out is not None:
            flags += ["--trace-out", trace_out, "--trace-format", "jsonl"]
        server = Server(root, flags, stream.warmup())
        server.pin_descendants({CPUS[-1]})
        return server

    def open_phase(client) -> List[Op]:
        windows = max(1, round(OPEN_RATE * seconds * OPEN_SHARE / LATENCY_WINDOW))
        ops: List[Op] = []
        while len(ops) < windows * LATENCY_WINDOW:
            ops.extend(Op(payload, "open") for payload in stream.cycle())
        del ops[windows * LATENCY_WINDOW:]
        client.open_loop(ops, OPEN_RATE)
        phases.append(("open", ops))
        return ops

    def saturate(client, phase: str) -> List[Op]:
        end = perf_counter() + seconds * (1 - OPEN_SHARE)

        def cycles():
            while perf_counter() < end:
                yield stream.cycle()

        ops = client.closed_loop(cycles(), INFLIGHT, phase)
        phases.append((phase, ops))
        return ops

    setups = []
    if traced:
        # Untraced capacity on a server of its own, for the tracing overhead.
        server = start()
        client = Client(server.port)
        try:
            untraced_ops = saturate(client, "saturate_untraced")
        finally:
            client.close()
            server.stop()
        trace_path = os.path.join(tmp, "trace.jsonl")
        server = start(trace_path)
    else:
        for _ in range(SETUP_REPEATS - 1):
            probe = start()
            setups.append(probe.setup_s)
            probe.stop()
        server = start()
        setups.append(server.setup_s)

    scrape = {}
    try:
        client = Client(server.port)
        try:
            open_ops = open_phase(client)
            saturate_ops = saturate(client, "saturate")
            if traced:
                scrape["metrics"] = parse_prometheus(client.ask({"kind": "metrics"})["text"])
                scrape["stats"] = client.ask({"kind": "stats"})["executor"]
                scrape["journal_bytes"] = os.path.getsize(journals[-1])
            peak_rss_mb = server.peak_rss_mb()
        finally:
            client.close()
    finally:
        exit_code = server.stop()

    record: Dict = {"open_rate_rps": OPEN_RATE, "inflight_per_connection": INFLIGHT,
                    "connections": Client.connections, "server_exit_code": exit_code,
                    "phases": []}
    problems: List[str] = [] if exit_code == 0 else [f"server exited with code {exit_code}"]
    memo: Dict = {}
    ok: Dict[str, List[Op]] = {}
    for phase, ops in phases:
        counts, ok[phase], found = _check_phase(ops, phase, memo)
        record["phases"].append(counts)
        problems += found + _rerun_sample(ok[phase], seed, f"serve_distinct/{phase}")
    attempted = sum(c["attempted"] for c in record["phases"])
    failed = sum(c["failed"] for c in record["phases"])

    lag_ms = [1000.0 * (op.sent - op.due) for op in open_ops]
    record["generator_lag_ms_p95"] = nearest_rank(sorted(lag_ms), 95.0)
    record["generator_behind"] = record["generator_lag_ms_p95"] > GENERATOR_LAG_LIMIT_MS
    capacity = _capacity(ok["saturate"], stream.cycle_length)

    if traced:
        with open(trace_path) as handle:
            roots = [json.loads(line) for line in handle if line.strip()]
        layers, found = serve_layers(
            ok["open"] + ok["saturate"], roots, scrape["metrics"], scrape["stats"],
            scrape["journal_bytes"], lag_ms,
        )
        untraced = _capacity(ok["saturate_untraced"], stream.cycle_length)
        layers["obs.tracing_overhead_pct"] = overhead_pct(untraced, capacity)
        record["traces"] = len(roots)
        return {"attempted": attempted, "failed": failed, "problems": problems + found,
                "metrics": layers, "record": record}

    answered = {id(op) for op in ok["open"]}
    summary = latency_summary(
        [1000.0 * (op.recv - op.due) if id(op) in answered else math.inf for op in open_ops],
        LATENCY_WINDOW,
    )
    record.update(setup_samples_s=setups, latency_samples=summary["samples"],
                  latency_windows=summary["windows"],
                  supported_percentile=summary["supported_percentile"])
    metrics = {
        "setup_s": statistics.median(setups),
        "runs_per_s": capacity,
        "latency_p50_ms": summary["p50_ms"],
        "latency_p95_ms": summary["p95_ms"],
        "capacity_rps": capacity,
        "peak_rss_mb": peak_rss_mb,
    }
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics, "record": record}


# --------------------------------------------------------------------- #
# Entry point                                                           #
# --------------------------------------------------------------------- #


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    # SIGTERM unwinds like an error, so servers and children are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.sched_setaffinity(0, {CPUS[0]})  # inherited by every process started
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(f"perfbench: no program under test (src/repro) in {root}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    sys.setrecursionlimit(200_000)

    if not selftest.passes():
        print("perfbench: harness self-tests failed", file=sys.stderr)
        return 3

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "traced": bool(args.trace), **source_identity(root),
        "python": platform.python_version(), "nproc": len(CPUS),
        "loadavg_start": os.getloadavg(),
    }
    tmp = os.path.join(root, ".perfbench_run", str(os.getpid()))
    os.makedirs(tmp)
    try:
        if args.workload == "protocol_full":
            result = run_protocol_full(root, args.seed, args.seconds, bool(args.trace))
        else:
            result = run_serve(root, tmp, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass  # another run still uses it
    record["loadavg_end"] = os.getloadavg()
    record.update(result["record"])

    units = UNITS if args.trace else END_TO_END_UNITS
    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and not result["problems"]
    record["failed_share"] = failed / attempted
    print(f"{args.workload} seed={args.seed} traced={bool(args.trace)} correct={correct}")
    for name, unit in units.items():
        print(f"  {name:<40} {result['metrics'][name]:>14.6g} {unit}")
    print(f"  {'failed_share':<40} {failed / attempted:>14.6g} share ({failed}/{attempted})")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
