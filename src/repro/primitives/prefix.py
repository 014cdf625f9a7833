"""Distributed prefix sums over a BBST (used by Algorithms 4 and 5).

Two tree passes, exactly as the paper sketches ("reminiscent of computing
inorder traversal numbers"): a bottom-up convergecast of subtree value
sums, then a top-down pass handing each node the sum of all values at
strictly smaller positions.  ``O(height) = O(log n)`` rounds.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.ncc.errors import ProtocolError
from repro.ncc.message import msg
from repro.ncc.network import Network
from repro.primitives.protocol import Proto, arrivals, ns_state


def prefix_sums(
    net: Network,
    ns: str,
    members: Sequence[int],
    root: int,
    value_of: Callable[[int], int],
    key: str = "prefix",
) -> Proto:
    """Protocol: every node learns ``sum(value of nodes before it)``.

    "Before" means smaller inorder position on the ``ns`` path.  The
    node's own value is excluded.  Results land in ``state[key]``;
    returns the grand total at the root.
    """
    up_tag, down_tag = f"{ns}:psum", f"{ns}:pacc"
    rank = {v: i for i, v in enumerate(members)}

    # Pass 1: subtree value sums (convergecast).
    pending = {}
    ready = []
    for v in members:
        state = ns_state(net, v, ns)
        state["val"] = value_of(v)
        state["lsum"] = 0
        state["rsum"] = 0
        kids = [c for c in (state.get("left"), state.get("right")) if c is not None]
        pending[v] = len(kids)
        if not kids:
            state["vsum"] = state["val"]
            ready.append(v)

    done = 0
    while done < len(members):
        sends = []
        for v in ready:
            state = ns_state(net, v, ns)
            parent = state.get("parent")
            done += 1
            if parent is not None:
                sends.append((v, parent, msg(up_tag, data=(state["vsum"],))))
        ready = []
        if done >= len(members) and not sends:
            break
        inboxes = yield sends
        for v, reports in arrivals(inboxes, up_tag, rank):
            state = ns_state(net, v, ns)
            for report in reports:
                if state.get("left") == report.src:
                    state["lsum"] = report.data[0]
                else:
                    state["rsum"] = report.data[0]
                pending[v] -= 1
                if pending[v] == 0:
                    state["vsum"] = state["val"] + state["lsum"] + state["rsum"]
                    ready.append(v)

    # Pass 2: accumulate downward.
    root_state = ns_state(net, root, ns)
    total = root_state["vsum"]

    def settle(v: int, acc: int) -> None:
        state = ns_state(net, v, ns)
        state[key] = acc + state["lsum"]

    settle(root, 0)
    frontier = [(root, 0)]
    while frontier:
        sends = []
        for v, acc in frontier:
            state = ns_state(net, v, ns)
            left, right = state.get("left"), state.get("right")
            if left is not None:
                sends.append((v, left, msg(down_tag, data=(acc,))))
            if right is not None:
                right_acc = acc + state["lsum"] + state["val"]
                sends.append((v, right, msg(down_tag, data=(right_acc,))))
        if not sends:
            break
        inboxes = yield sends
        frontier = []
        for v, accepted in arrivals(inboxes, down_tag, rank):
            if len(accepted) > 1:
                raise ProtocolError(
                    f"node {v} expected at most one {down_tag!r}, got {len(accepted)}"
                )
            acc = accepted[0].data[0]
            settle(v, acc)
            frontier.append((v, acc))
    return total
