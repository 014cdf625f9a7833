"""Overlay extraction: node memory -> networkx graph, awareness audits.

The paper's definitions (Problem Statements, §1): an overlay edge is
*constructed* when at least one endpoint knows it, and *explicit* when
both do.  These functions audit node memory directly, so tests verify
what nodes actually recorded — not what the orchestrator wishes they had.
"""

from __future__ import annotations

from typing import List, Tuple

import networkx as nx

from repro.core.result import NBRS_KEY
from repro.ncc.network import Network

Edge = Tuple[int, int]


def overlay_graph(net: Network) -> nx.Graph:
    """The realized overlay as a networkx graph (nodes = all node IDs)."""
    graph = nx.Graph()
    graph.add_nodes_from(net.node_ids)
    for v in net.node_ids:
        for u in net.mem[v].get(NBRS_KEY, ()):
            graph.add_edge(v, u)
    return graph


def check_implicit(net: Network) -> bool:
    """Every recorded edge is held by at least one endpoint (trivially
    true by construction) *and* the holder actually knows the other
    endpoint's ID — the NCC awareness requirement."""
    for v in net.node_ids:
        for u in net.mem[v].get(NBRS_KEY, ()):
            if u == v:
                return False
            if not net.knows(v, u):
                return False
    return True


def check_explicit(net: Network) -> bool:
    """Every edge is recorded by *both* endpoints, and both know both IDs."""
    if not check_implicit(net):
        return False
    for v in net.node_ids:
        for u in net.mem[v].get(NBRS_KEY, ()):
            if v not in net.mem[u].get(NBRS_KEY, set()):
                return False
    return True


def holders_of(net: Network, edge: Edge) -> List[int]:
    """Which endpoints recorded this edge (diagnostic)."""
    u, v = edge
    out = []
    if v in net.mem[u].get(NBRS_KEY, set()):
        out.append(u)
    if u in net.mem[v].get(NBRS_KEY, set()):
        out.append(v)
    return out
