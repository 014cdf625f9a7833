"""Graph-theoretic checks on realized overlays.

Independent of the simulator: pure functions over edge lists / networkx
graphs, used as the final arbiter in tests and benches.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

import networkx as nx
from networkx.algorithms.connectivity import local_edge_connectivity

Edge = Tuple[int, int]


def check_simple(edges: Sequence[Edge]) -> bool:
    """No self-loops, no duplicate edges (in either orientation)."""
    seen = set()
    for u, v in edges:
        if u == v:
            return False
        key = (min(u, v), max(u, v))
        if key in seen:
            return False
        seen.add(key)
    return True


def check_degree_match(
    edges: Sequence[Edge], demanded: Dict[int, int], nodes: Iterable[int]
) -> bool:
    """Realized degree equals the demanded degree for every node."""
    degree = {v: 0 for v in nodes}
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return all(degree.get(v, 0) == d for v, d in demanded.items())


def check_tree(edges: Sequence[Edge], nodes: Sequence[int]) -> bool:
    """The edge set forms a spanning tree of ``nodes``."""
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    return nx.is_tree(graph)


def diameter_of(edges: Sequence[Edge], nodes: Sequence[int]) -> Optional[int]:
    """Diameter of the overlay, or ``None`` if disconnected."""
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    if len(nodes) <= 1:
        return 0
    if not nx.is_connected(graph):
        return None
    return nx.diameter(graph)


def check_connectivity_thresholds(
    edges: Sequence[Edge], rho: Dict[int, int], nodes: Sequence[int]
) -> bool:
    """``Conn(u, v) >= min(rho(u), rho(v))`` for every pair (max-flow).

    Uses the hub shortcut when possible is deliberately avoided — this
    is the *independent* check, so it computes real local edge
    connectivity for every demanded pair.
    """
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    node_list = list(nodes)
    for i, u in enumerate(node_list):
        for v in node_list[i + 1 :]:
            need = min(rho.get(u, 0), rho.get(v, 0))
            if need <= 0:
                continue
            if local_edge_connectivity(graph, u, v) < need:
                return False
    return True


def edge_connectivity_matrix(
    edges: Sequence[Edge], nodes: Sequence[int]
) -> Dict[Tuple[int, int], int]:
    """All-pairs local edge connectivity (small n diagnostics)."""
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    out: Dict[Tuple[int, int], int] = {}
    node_list = list(nodes)
    for i, u in enumerate(node_list):
        for v in node_list[i + 1 :]:
            out[(u, v)] = local_edge_connectivity(graph, u, v)
    return out
