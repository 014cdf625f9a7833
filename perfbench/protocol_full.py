"""The ``protocol_full`` process under test: realizer runs with no service layer.

Started by ``run.py`` with ``PYTHONPATH`` at the program's ``src``.  It
imports the library, builds its run list, prints ``READY`` and waits for
one line on stdin: ``go`` runs the workload, anything else exits (the
set-up probes).  The result is one JSON line on stdout.

The timed loop repeats whole passes of the run list until ``--seconds``
have passed.  With ``--trace 1`` passes alternate between traced and
untraced: a traced pass wraps ``Network.deliver`` and the outermost
``Scheduler.run`` from here and installs a round observer, which splits
each run into network build, engine (``ncc``), scheduler and primitives
(``primitives``) and realizer-local work (``core``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.setrecursionlimit(200_000)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro import NCCConfig, Network  # noqa: E402
from repro import core  # noqa: E402
from repro.primitives.protocol import Scheduler  # noqa: E402

import workloads  # noqa: E402

perf_counter = time.perf_counter


class LayerClock:
    """Wall time spent inside the engine and scheduler, timed from outside."""

    def __init__(self) -> None:
        self.deliver_s = 0.0
        self.scheduler_s = 0.0
        self.scheduler_runs = 0
        self.phase_s = {"validate": 0.0, "deliver": 0.0}
        self._depth = 0

    def __call__(self, round_no, phase_seconds, queue_depth, defer_backlog) -> None:
        """Round observer: accumulate the engine's per-phase seconds."""
        for phase, seconds in phase_seconds.items():
            self.phase_s[phase] = self.phase_s.get(phase, 0.0) + seconds

    def install(self):
        """Wrap the two entry points; returns a function that unwraps them."""
        deliver, run = Network.deliver, Scheduler.run
        clock = self

        def timed_deliver(net, plan):
            started = perf_counter()
            try:
                return deliver(net, plan)
            finally:
                clock.deliver_s += perf_counter() - started

        def timed_run(scheduler, *gens):
            if clock._depth:  # nested runs are inside the outer one's time
                return run(scheduler, *gens)
            clock._depth = 1
            started = perf_counter()
            try:
                return run(scheduler, *gens)
            finally:
                clock._depth = 0
                clock.scheduler_s += perf_counter() - started
                clock.scheduler_runs += 1

        Network.deliver, Scheduler.run = timed_deliver, timed_run

        def restore() -> None:
            Network.deliver, Scheduler.run = deliver, run

        return restore


def run_pass(run_list, clock=None):
    """One pass: (wall_s, [(build_s, call_s, result or exception, nodes)])."""
    outcomes = []
    started = perf_counter()
    for realizer, vector, net_seed in run_list:
        fn = getattr(core, realizer)
        t0 = perf_counter()
        net = Network(len(vector), NCCConfig(seed=net_seed))
        t1 = perf_counter()
        demands = dict(zip(net.node_ids, vector))
        if clock is not None:
            net.set_round_observer(clock)
        t2 = perf_counter()
        try:
            result = fn(net, demands)
        except Exception as exc:  # counted as a failed run, never retried
            result = exc
        t3 = perf_counter()
        outcomes.append((t1 - t0, t3 - t2, result, net.node_ids))
    return perf_counter() - started, outcomes


def fingerprint(result) -> int:
    if isinstance(result, Exception):
        return hash(repr(result))
    return hash((result.edges, result.stats))


def vm_hwm_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    run_list = workloads.protocol_run_list(args.seed)
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    passes = []  # (traced, wall_s, outcomes, clock)
    deadline = perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 0
        clock = LayerClock() if traced else None
        restore = clock.install() if traced else None
        try:
            wall, outcomes = run_pass(run_list, clock)
        finally:
            if restore is not None:
                restore()
        if passes:  # later passes are only compared with the first
            outcomes = [(b, c, fingerprint(r), None) for b, c, r, _ in outcomes]
        passes.append((traced, wall, outcomes, clock))
        enough = len(passes) >= (2 if args.trace else 1)
        if enough and perf_counter() >= deadline:
            break
    peak_rss_mb = vm_hwm_mb()

    from checks import check_library_result  # networkx stays out of peak RSS

    first = passes[0][2]
    problems = []
    failed_runs = []
    for index, (realizer, vector, _) in enumerate(run_list):
        _, _, result, nodes = first[index]
        if isinstance(result, Exception):
            found = [f"raised {result!r}"]
        else:
            found = check_library_result(realizer, vector, list(nodes), result)
        expected = fingerprint(result)
        if any(p[2][index][2] != expected for p in passes[1:]):
            found.append("a later pass gave a different result")
        if found:
            failed_runs.append(index)
            problems.append(f"{realizer} #{index}: {'; '.join(found)}")

    out = {
        "attempted": len(passes) * len(run_list),
        "failed": len(failed_runs) * len(passes),
        "failed_runs": failed_runs,
        "problems": problems,
        "peak_rss_mb": peak_rss_mb,
        "passes": [
            {
                "traced": traced,
                "wall_s": wall,
                "runs": [[build, call] for build, call, _, _ in outcomes],
                "layers": None if clock is None else {
                    "deliver_s": clock.deliver_s,
                    "scheduler_s": clock.scheduler_s,
                    "scheduler_runs": clock.scheduler_runs,
                    "phase_s": clock.phase_s,
                },
            }
            for traced, wall, outcomes, clock in passes
        ],
        "run_list": [realizer for realizer, _, _ in run_list],
        "stats": [
            None if isinstance(r, Exception) else {
                "rounds": r.stats.rounds,
                "simulated_rounds": r.stats.simulated_rounds,
                "charged_rounds": r.stats.charged_rounds,
                "messages": r.stats.messages,
                "words": r.stats.words,
                "max_round_load": r.stats.max_round_load,
            }
            for _, _, r, _ in first
        ],
    }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
