"""Distributed degree realization — Algorithm 3 (Theorem 11, Lemma 10).

The parallel Havel–Hakimi: in each phase the nodes

1. sort themselves into a path by non-increasing residual degree
   (inactive, i.e. already-satisfied, nodes sink to the bottom),
2. learn the maximum degree ``δ`` (broadcast from the sorted head) and
   the count ``N`` of maximum-degree nodes plus the active count (one
   combined aggregation),
3. form ``q = max(1, ⌊N/(δ+1)⌋)`` star groups over the top ``q(δ+1)``
   positions — each group head multicasts its ID to the ``δ`` positions
   after it (range multicast over structure 𝓛, all groups in parallel),
   satisfies itself (degree := NIL) and leaves the computation, while
   members record the implicit edge and decrement their degree.

A member whose degree would go negative announces ``UNREALIZABLE``
(strict mode — the sequence is not graphic, exactly as in sequential
Havel–Hakimi) or resets to zero and keeps absorbing edges (envelope
mode — §4.3, Theorem 13).

Lemma 10 bounds the number of phases by ``O(min{√m, Δ})``; each phase is
``O(log³ n)`` rounds (sort-dominated), giving Theorem 11's
``Õ(min{√m, Δ})``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.ncc.errors import ProtocolError
from repro.ncc.network import Network
from repro.core.result import (
    RealizationResult,
    overlay_degrees,
    overlay_edges,
    record_edge,
)
from repro.primitives.bbst import build_indexed_path
from repro.primitives.broadcast import global_aggregate, global_broadcast
from repro.primitives.protocol import Proto, fresh_ns, ns_state, run_protocol
from repro.primitives.range_multicast import range_multicast
from repro.primitives.sorting import distributed_sort


def degree_realization_protocol(
    net: Network,
    degrees: Dict[int, int],
    mode: str = "strict",
    sort_fidelity: str = "full",
    members: Optional[Sequence[int]] = None,
    path_ns: Optional[str] = None,
    head: Optional[int] = None,
    ns: Optional[str] = None,
) -> Proto:
    """Protocol: Algorithm 3 over the whole network or a sub-path.

    Parameters
    ----------
    degrees:
        ``{node_id: required_degree}`` — each entry is that node's local
        input.
    mode:
        ``"strict"`` (Theorem 11: announce UNREALIZABLE on non-graphic
        input) or ``"envelope"`` (Theorem 13: clamp and over-satisfy).
    sort_fidelity:
        Passed to :func:`~repro.primitives.sorting.distributed_sort`.
    members / path_ns / head:
        Restrict to a sub-network whose current undirected path lives in
        ``path_ns`` (used by Algorithm 6's phase 1).

    Returns ``{"realized": bool, "violators": [...], "phases": int}``.
    """
    if ns is None:
        ns = fresh_ns("dr")
    scope = list(members) if members is not None else list(net.node_ids)
    bound = net.n  # degrees < n in any simple realization

    for v in scope:
        demand = degrees[v]
        if demand < 0:
            raise ProtocolError(f"negative degree request at node {v}")
        state = ns_state(net, v, ns)
        if mode == "envelope":
            demand = min(demand, len(scope) - 1)
        state["deg"] = demand
        state["active"] = True
        state["violated"] = False

    current_path_ns, current_head = path_ns, head
    phases = 0
    violators: List[int] = []
    guard = 2 * len(scope) + 8

    while True:
        phases += 1
        if phases > guard:
            raise ProtocolError("Algorithm 3 exceeded its phase guard")

        # --- Step 1: sort by non-increasing residual degree. ------------
        def sort_key(v: int) -> int:
            state = ns_state(net, v, ns)
            return (bound - state["deg"]) if state["active"] else bound + 1

        with net.phase("sort"):
            if members is None and current_path_ns is None:
                srt_ns, order = yield from distributed_sort(
                    net, sort_key, fidelity=sort_fidelity
                )
            else:
                srt_ns, order = yield from distributed_sort(
                    net,
                    sort_key,
                    fidelity=sort_fidelity,
                    members=scope,
                    path_ns=current_path_ns,
                    head=current_head,
                )
        current_path_ns, current_head = srt_ns, order[0]
        with net.phase("index"):
            root = yield from build_indexed_path(net, srt_ns, order, order[0])

        # --- Step 2: broadcast δ; aggregate N and the active count. -----
        root_state = ns_state(net, root, ns)
        delta = root_state["deg"] if root_state["active"] else 0
        yield from global_broadcast(
            net, srt_ns, order, root, leader=root, value=(delta,), key="delta"
        )
        if delta == 0:
            break

        # One combined aggregation: encode (count of degree-δ actives,
        # count of actives) in a single word.
        enc = len(scope) + 1

        def pair_value(v: int) -> int:
            state = ns_state(net, v, ns)
            is_active = 1 if state["active"] else 0
            is_max = 1 if (state["active"] and state["deg"] == delta) else 0
            return is_max * enc + is_active

        total = yield from global_aggregate(
            net, srt_ns, order, root, leader=root,
            value_of=pair_value, combine=lambda a, b: a + b,
        )
        n_max, n_active = total // enc, total % enc
        yield from global_broadcast(
            net, srt_ns, order, root, leader=root,
            value=(n_max, n_active), key="counts",
        )

        # --- Step 3: group formation (local) + parallel multicast. ------
        q = max(1, n_max // (delta + 1))
        requests = []
        head_nodes = []
        overflow = False
        for alpha in range(q):
            head_pos = alpha * (delta + 1)
            lo, hi = head_pos + 1, head_pos + delta
            if hi > n_active - 1:
                overflow = True
                if mode == "strict":
                    break
                hi = n_active - 1  # envelope: take every remaining active
            head_node = order[head_pos]
            head_nodes.append(head_node)
            if hi >= lo:
                requests.append((head_node, lo, hi, ((head_node,), ())))

        if overflow and mode == "strict":
            # The head cannot find enough partners: certifies
            # non-graphicality (as in sequential Havel-Hakimi).
            violators = [order[0]]
            ns_state(net, order[0], ns)["violated"] = True
            yield from global_broadcast(
                net, srt_ns, order, root, leader=root, value=(1,), key="verdict"
            )
            return {"realized": False, "violators": violators, "phases": phases}

        if requests:
            with net.phase("stars"):
                yield from range_multicast(net, srt_ns, requests, key="star")
        for head_node in head_nodes:
            state = ns_state(net, head_node, ns)
            state["active"] = False
            state["deg"] = 0

        phase_violation = 0
        for v in order:
            token = ns_state(net, v, srt_ns).pop("star", None)
            if token is None:
                continue
            head_id = token[0][0]
            record_edge(net, v, head_id)
            state = ns_state(net, v, ns)
            state["deg"] -= 1
            if state["deg"] < 0:
                state["deg"] = 0
                if mode == "strict":
                    state["violated"] = True
                    violators.append(v)
                    phase_violation = 1

        # --- Step 4: violation check ("broadcasts UNREALIZABLE"). -------
        if mode == "strict":
            flag = yield from global_aggregate(
                net, srt_ns, order, root, leader=root,
                value_of=lambda v: 1 if ns_state(net, v, ns)["violated"] else 0,
                combine=max,
            )
            if flag:
                yield from global_broadcast(
                    net, srt_ns, order, root, leader=root, value=(1,), key="verdict"
                )
                return {
                    "realized": False,
                    "violators": sorted(violators),
                    "phases": phases,
                }

    return {"realized": True, "violators": [], "phases": phases}


def realize_degree_sequence(
    net: Network,
    degrees: Dict[int, int],
    mode: str = "strict",
    sort_fidelity: str = "full",
) -> RealizationResult:
    """Run Algorithm 3 on ``net`` and return a structured result.

    ``mode="strict"`` reproduces Theorem 11 (implicit realization of
    graphic sequences, UNREALIZABLE announcement otherwise);
    ``mode="envelope"`` reproduces Theorem 13's upper-envelope variant.
    """
    outcome = run_protocol(
        net,
        degree_realization_protocol(
            net, degrees, mode=mode, sort_fidelity=sort_fidelity
        ),
    )
    return RealizationResult(
        realized=outcome["realized"],
        announced_unrealizable_by=tuple(outcome["violators"]),
        edges=tuple(overlay_edges(net)),
        realized_degrees=overlay_degrees(net),
        phases=outcome["phases"],
        explicit=False,
        stats=net.stats(),
    )
