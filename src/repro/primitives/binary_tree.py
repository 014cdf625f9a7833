"""Warm-up balanced binary tree (Section 3.1.1, Figure 1).

The simple recursive construction: on every active path, the head ``r``
adopts its neighbour ``a`` as left child and ``a``'s other neighbour ``b``
as right child, removes itself, and the remaining path splits into the
odd-position path (headed by ``a``) and the even-position path (headed by
``b``).  Paths halve every level, so the recursion — run in parallel on
all active paths — terminates in ``O(log n)`` rounds and yields a binary
tree of height ``O(log n)``.  Unlike the BBST of :mod:`~repro.primitives.bbst`,
the result is *not* a search tree over path positions.

Local state in namespace ``ns``: ``pred``/``succ`` (current-path pointers,
rewired as levels progress), ``parent``, ``left``, ``right``, ``done``.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.ncc.errors import ProtocolError
from repro.ncc.message import msg
from repro.ncc.network import Network
from repro.primitives.path_ops import build_undirected_path
from repro.primitives.protocol import Proto, fresh_ns, ns_state, take_one


def build_warmup_binary_tree(net: Network, ns: Optional[str] = None) -> Proto:
    """Protocol: build the Figure-1 balanced binary tree on the Gk path.

    Returns the root's node ID.  Tree pointers land in namespace ``ns``
    (freshly generated when omitted): ``parent``, ``left``, ``right``.
    """
    if ns is None:
        ns = fresh_ns("wbt")
    head = yield from build_undirected_path(net, ns)
    if head is None:
        return None

    for v in net.node_ids:
        state = ns_state(net, v, ns)
        state.setdefault("parent", None)
        state.setdefault("left", None)
        state.setdefault("right", None)
        state["done"] = False

    root = head
    ns_state(net, root, ns)["is_head"] = True
    max_levels = math.ceil(math.log2(max(2, net.n))) + 2

    # Nodes only ever retire, so each level filters the previous level's
    # active list (node order) instead of rescanning every node.
    active = list(net.node_ids)
    for _level in range(max_levels):
        active = [v for v in active if not ns_state(net, v, ns)["done"]]
        if not active:
            break

        # Round A: grand-neighbour learning on every active path.
        sends = []
        for v in active:
            state = ns_state(net, v, ns)
            pred, succ = state["pred"], state["succ"]
            if pred is not None and succ is not None:
                sends.append((v, succ, msg(f"{ns}:gp", ids=(pred,))))
                sends.append((v, pred, msg(f"{ns}:gs", ids=(succ,))))
            elif pred is not None:
                sends.append((v, pred, msg(f"{ns}:gs", data=(0,))))
            elif succ is not None:
                sends.append((v, succ, msg(f"{ns}:gp", data=(0,))))
        inboxes = yield sends

        for v in active:
            state = ns_state(net, v, ns)
            gp_msg = take_one(inboxes, v, f"{ns}:gp")
            gs_msg = take_one(inboxes, v, f"{ns}:gs")
            state["gpred"] = gp_msg.ids[0] if gp_msg and gp_msg.ids else None
            state["gsucc"] = gs_msg.ids[0] if gs_msg and gs_msg.ids else None

        # Round B: heads adopt and retire; everyone rewires to grand-links.
        sends = []
        for v in active:
            state = ns_state(net, v, ns)
            if not state.get("is_head"):
                continue
            a, b = state["succ"], state.get("gsucc")
            if a is None:
                state["done"] = True  # singleton path: leaf (or lone root)
                continue
            state["left"] = a
            sends.append((v, a, msg(f"{ns}:adopt", data=("L",))))
            if b is not None:
                state["right"] = b
                sends.append((v, b, msg(f"{ns}:adopt", data=("R",))))
            state["done"] = True
        inboxes = yield sends

        for v in active:
            state = ns_state(net, v, ns)
            if state["done"]:
                continue
            adopt = take_one(inboxes, v, f"{ns}:adopt")
            # Rewire to the interleaved sub-path.
            state["pred"] = state.pop("gpred", None)
            state["succ"] = state.pop("gsucc", None)
            if adopt is not None:
                if state["parent"] is not None:
                    raise ProtocolError(f"node {v} adopted twice")
                state["parent"] = adopt.src
                state["pred"] = None  # adopted nodes head their sub-paths
                state["is_head"] = True

    leftovers = [v for v in active if not ns_state(net, v, ns)["done"]]
    if leftovers:
        raise ProtocolError(f"warm-up tree did not converge: {leftovers[:5]}")
    return root


def tree_children(net: Network, ns: str, v: int) -> List[int]:
    """Children of ``v`` in the tree namespace (validation helper)."""
    state = ns_state(net, v, ns)
    return [c for c in (state.get("left"), state.get("right")) if c is not None]


def tree_height(net: Network, ns: str, root: int) -> int:
    """Height of the tree under ``root`` (validation helper)."""
    depth = {root: 0}
    stack = [root]
    best = 0
    while stack:
        v = stack.pop()
        for c in tree_children(net, ns, v):
            depth[c] = depth[v] + 1
            best = max(best, depth[c])
            stack.append(c)
    return best


def tree_nodes(net: Network, ns: str, root: int) -> List[int]:
    """All nodes reachable from ``root`` via child pointers."""
    out = []
    stack = [root]
    seen = set()
    while stack:
        v = stack.pop()
        if v in seen:
            raise ProtocolError(f"cycle in tree namespace {ns!r} at {v}")
        seen.add(v)
        out.append(v)
        stack.extend(tree_children(net, ns, v))
    return out
