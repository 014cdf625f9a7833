"""Per-layer metrics for the traced run, named by the program's modules.

Seconds are per realizer run (a library call on ``protocol_full``, an
executed request on serve); counts are exact totals for one pass of the
run list or for the open phase's executed requests.  A layer that the
workload does not reach, or that cannot be split from outside on it,
reads 0 (see README.md).
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Optional, Tuple

from stats import ledger, mean, nearest_rank

#: Service kind -> the realizer it runs.
REALIZER_OF_KIND = {
    "degree_implicit": "realize_degree_sequence",
    "degree_explicit": "realize_degree_sequence_explicit",
    "tree": "realize_tree",
    "connectivity": "realize_connectivity_ncc0",
    "approximate": "approximate_degree_realization",
}

#: Every per-layer metric: name -> unit (the ``per_layer`` list).
UNITS = {
    "ncc.deliver_s": "s",
    "ncc.phase_validate_s": "s",
    "ncc.phase_deliver_s": "s",
    "ncc.share": "ratio",
    "ncc.rounds": "count",
    "ncc.simulated_rounds": "count",
    "ncc.charged_rounds": "count",
    "ncc.messages": "count",
    "ncc.words": "count",
    "ncc.max_round_load": "count",
    "ncc.msgs_per_simulated_round": "msgs/round",
    "ncc.network_build_s": "s",
    "primitives.self_s": "s",
    "primitives.share": "ratio",
    "primitives.scheduler_runs": "count",
    "core.self_s": "s",
    **{f"core.run_s.{name}": "s" for name in REALIZER_OF_KIND.values()},
    "server.transport_ms_mean": "ms",
    "server.admission_rejected": "count",
    "client.generator_lag_ms_p95": "ms",
    "executor.queue_wait_ms_mean": "ms",
    "executor.execution_ms_mean": "ms",
    "executor.dispatch_ms_mean": "ms",
    "executor.cache_hit_ratio": "ratio",
    "executor.coalesced_hits": "count",
    "executor.retries": "count",
    "executor.worker_crashes": "count",
    "executor.worker_timeouts": "count",
    "executor.degraded_handled": "count",
    "pool.lease_ms_mean": "ms",
    "registry.scenario_cache_hit_ratio": "ratio",
    "journal.records": "count",
    "journal.fsync_s": "s",
    "journal.bytes_per_request": "B",
    "obs.tracing_overhead_pct": "%",
    "ledger.unaccounted_pct": "%",
}

COUNT_FIELDS = ("rounds", "simulated_rounds", "charged_rounds", "messages", "words")


def blank() -> Dict[str, float]:
    return {name: 0.0 for name in UNITS}


def overhead_pct(untraced_rate: float, traced_rate: float) -> float:
    """Throughput lost to tracing, as a share of the untraced rate."""
    return 100.0 * (untraced_rate - traced_rate) / untraced_rate


def _add_counts(out: Dict[str, float], stats: Iterable[Dict]) -> None:
    stats = list(stats)
    for field in COUNT_FIELDS:
        out[f"ncc.{field}"] = sum(s[field] for s in stats)
    out["ncc.msgs_per_simulated_round"] = out["ncc.messages"] / max(1, out["ncc.simulated_rounds"])


def protocol_layers(child: Dict) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics from a traced ``protocol_full`` child's report."""
    out = blank()
    problems: List[str] = []
    traced = [p for p in child["passes"] if p["traced"]]
    plain = [p for p in child["passes"] if not p["traced"]]
    runs = len(child["run_list"])
    walls, layer_sums = [], {"ncc": [], "primitives": [], "core": [], "build": []}
    run_times: Dict[str, List[float]] = {}
    for p in traced:
        build = sum(b for b, _ in p["runs"])
        call = sum(c for _, c in p["runs"])
        layers = p["layers"]
        walls.append(p["wall_s"])
        layer_sums["build"].append(build)
        layer_sums["ncc"].append(layers["deliver_s"])
        layer_sums["primitives"].append(layers["scheduler_s"] - layers["deliver_s"])
        layer_sums["core"].append(call - layers["scheduler_s"])
        for realizer, (_, c) in zip(child["run_list"], p["runs"]):
            run_times.setdefault(realizer, []).append(c)
        out["ncc.phase_validate_s"] += layers["phase_s"].get("validate", 0.0)
        out["ncc.phase_deliver_s"] += layers["phase_s"].get("deliver", 0.0)
    per_run = len(traced) * runs
    out["ncc.phase_validate_s"] /= per_run
    out["ncc.phase_deliver_s"] /= per_run
    wall = sum(walls)
    out["ncc.deliver_s"] = sum(layer_sums["ncc"]) / per_run
    out["ncc.network_build_s"] = sum(layer_sums["build"]) / per_run
    out["primitives.self_s"] = sum(layer_sums["primitives"]) / per_run
    out["core.self_s"] = sum(layer_sums["core"]) / per_run
    out["ncc.share"] = sum(layer_sums["ncc"]) / wall
    out["primitives.share"] = sum(layer_sums["primitives"]) / wall
    out["primitives.scheduler_runs"] = traced[0]["layers"]["scheduler_runs"]
    for realizer, times in run_times.items():
        out[f"core.run_s.{realizer}"] = statistics.median(times)
    stats = [s for s in child["stats"] if s is not None]
    _add_counts(out, stats)
    out["ncc.max_round_load"] = max((s["max_round_load"] for s in stats), default=0)
    unaccounted, ok = ledger(wall, {k: sum(v) for k, v in layer_sums.items()})
    out["ledger.unaccounted_pct"] = unaccounted
    if not ok:
        problems.append(f"layer ledger misses the traced wall time by {unaccounted:.2f}%")
    traced_rate = per_run / wall
    plain_rate = len(plain) * runs / sum(p["wall_s"] for p in plain)
    out["obs.tracing_overhead_pct"] = overhead_pct(plain_rate, traced_rate)
    return out, problems


def parse_prometheus(text: str) -> Dict[str, float]:
    """``series{labels} -> value`` from a Prometheus text exposition."""
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            series, value = line.rsplit(" ", 1)
            out[series] = float(value)
    return out


def _hist_mean_ms(metrics: Dict[str, float], name: str) -> float:
    count = metrics.get(f"{name}_count", 0.0)
    return 1000.0 * metrics.get(f"{name}_sum", 0.0) / count if count else 0.0


def _child(span: Dict, name: str) -> Optional[Dict]:
    for child in span.get("children", ()):
        if child["name"] == name:
            return child
    return None


def serve_layers(
    ops, roots: List[Dict], metrics: Dict[str, float], stats: Dict,
    journal_bytes: int, lag_ms: List[float],
) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics for a traced serve run.

    ``ops`` are the client's answered requests; ``roots`` the server's
    ``request`` span trees (the tracer keeps the latest 4,096).  Each
    matched request's client latency splits into transport (latency
    minus the request span), executor (request span minus the realizer
    run and the pool lease), pool, realizer-local work and engine.
    """
    out = blank()
    problems: List[str] = []
    by_id = {root["tags"].get("request_id"): root for root in roots if root["name"] == "request"}
    sums = {"server": 0.0, "executor": 0.0, "pool": 0.0, "primitives": 0.0, "ncc": 0.0}
    validate = deliver = wall = 0.0
    transport, dispatch, leases = [], [], []
    run_times: Dict[str, List[float]] = {}
    max_load = 0
    executed = 0
    for op in ops:
        root = by_id.get(op.payload["request_id"])
        if root is None or op.response is None:
            continue
        latency = op.recv - op.sent
        request = root["duration_ms"] / 1000.0
        wall += latency
        transport.append(latency - request)
        sums["server"] += latency - request
        worker = _child(root, "worker")
        inner = worker if worker is not None else root
        covered = sum(c["duration_ms"] for c in inner.get("children", ())) / 1000.0
        # Dispatch: the request span minus the worker span in processes
        # mode; without a worker, minus what its children cover.
        dispatch.append(request - (worker["duration_ms"] / 1000.0 if worker else covered))
        lease = _child(inner, "pool.lease")
        lease_s = lease["duration_ms"] / 1000.0 if lease is not None else 0.0
        if lease is not None:
            leases.append(lease["duration_ms"])
        run = _child(inner, "run")
        run_s = run["duration_ms"] / 1000.0 if run is not None else 0.0
        sums["pool"] += lease_s
        sums["executor"] += request - lease_s - run_s
        if run is None:
            continue
        executed += 1
        rounds = _child(run, "rounds")
        tags = rounds["tags"] if rounds is not None else {}
        engine = tags.get("validate_s", 0.0) + tags.get("deliver_s", 0.0)
        validate += tags.get("validate_s", 0.0)
        deliver += tags.get("deliver_s", 0.0)
        max_load = max(max_load, tags.get("max_queue_depth", 0))
        sums["ncc"] += engine
        sums["primitives"] += run_s - engine
        run_times.setdefault(REALIZER_OF_KIND[op.payload["kind"]], []).append(run_s)
    if not wall:
        return out, ["no traced request matched a client request"]
    if executed:
        out["ncc.deliver_s"] = sums["ncc"] / executed
        out["ncc.phase_validate_s"] = validate / executed
        out["ncc.phase_deliver_s"] = deliver / executed
        out["primitives.self_s"] = sums["primitives"] / executed
    out["ncc.share"] = sums["ncc"] / wall
    out["primitives.share"] = sums["primitives"] / wall
    out["ncc.max_round_load"] = max_load
    for realizer, times in run_times.items():
        out[f"core.run_s.{realizer}"] = statistics.median(times)
    open_executed = [
        op.response for op in ops
        if op.phase == "open" and op.response is not None
        and op.response.get("verdict") != "ERROR" and not op.response.get("cached")
    ]
    _add_counts(out, open_executed)
    out["server.transport_ms_mean"] = 1000.0 * mean(transport)
    out["server.admission_rejected"] = metrics.get("repro_server_rejected_total", 0.0)
    out["client.generator_lag_ms_p95"] = nearest_rank(sorted(lag_ms), 95.0) if lag_ms else 0.0
    out["executor.queue_wait_ms_mean"] = _hist_mean_ms(metrics, "repro_request_queue_wait_seconds")
    out["executor.execution_ms_mean"] = _hist_mean_ms(metrics, "repro_request_execution_seconds")
    out["executor.dispatch_ms_mean"] = 1000.0 * mean(dispatch)
    requests = metrics.get("repro_requests_total", 0.0)
    out["executor.cache_hit_ratio"] = (
        metrics.get("repro_response_cache_hits_total", 0.0) / requests if requests else 0.0
    )
    for name in ("coalesced_hits", "retries", "worker_crashes", "worker_timeouts", "degraded_handled"):
        out[f"executor.{name}"] = metrics.get(f"repro_{name}_total", 0.0)
    out["pool.lease_ms_mean"] = mean(leases)
    hits, misses = stats.get("scenario_cache_hits", 0), stats.get("scenario_cache_misses", 0)
    out["registry.scenario_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    admitted = metrics.get("repro_journal_admitted_total", 0.0)
    out["journal.records"] = admitted + metrics.get("repro_journal_completed_total", 0.0) + (
        metrics.get("repro_journal_rejected_total", 0.0)
    )
    out["journal.fsync_s"] = metrics.get("repro_journal_fsync_seconds_sum", 0.0)
    out["journal.bytes_per_request"] = journal_bytes / admitted if admitted else 0.0
    # Transport and executor are remainders, so the serve ledger balances
    # by construction; what can go wrong is a child span outlasting its
    # parent, which shows as a negative layer.
    unaccounted, ok = ledger(wall, sums)
    out["ledger.unaccounted_pct"] = unaccounted
    negative = [layer for layer, value in sums.items() if value < -0.01 * wall]
    if negative or not ok:
        problems.append(f"serve ledger inconsistent: negative layers {negative}")
    return out, problems
