"""Output checks: every answer the benchmark times is checked against its input.

Library results (``protocol_full``) are checked as overlays with
:mod:`repro.validation.graph_checks`; served responses carry only a
verdict and counts, so they are checked against the sequential oracles
and the counts those verdicts imply.  Each check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import networkx as nx

from repro.sequential.erdos_gallai import is_graphic
from repro.sequential.trees import is_tree_realizable
from repro.validation.graph_checks import (
    check_connectivity_thresholds,
    check_degree_match,
    check_simple,
    check_tree,
)

#: ``check_connectivity_thresholds`` runs one max-flow per node pair
#: (about 30 s at n = 128), so it is applied to the pairs among this
#: many highest-demand nodes; a Gomory-Hu tree covers every pair.
THRESHOLD_SAMPLE_NODES = 6

DEGREE_REALIZERS = ("realize_degree_sequence", "realize_degree_sequence_explicit")


def _all_pairs_thresholds(edges, rho: Dict[int, int], nodes: Sequence[int]) -> bool:
    """Conn(u, v) >= min(rho(u), rho(v)) for all pairs, via a Gomory-Hu tree."""
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges, capacity=1)
    if not nx.is_connected(graph):
        return all(r == 0 for r in rho.values())
    tree = nx.gomory_hu_tree(graph)
    for source in nodes:
        # Min edge weight on the tree path from source = Conn(source, v).
        best = {source: math.inf}
        stack = [source]
        while stack:
            u = stack.pop()
            for v, attrs in tree[u].items():
                if v not in best:
                    best[v] = min(best[u], attrs["weight"])
                    stack.append(v)
        for v in nodes:
            if v != source and best[v] < min(rho[source], rho[v]):
                return False
    return True


def check_library_result(realizer: str, vector: Sequence[int], nodes, result) -> List[str]:
    """Problems with one realizer call's result on ``vector``."""
    demanded = dict(zip(nodes, vector))
    edges = result.edges
    problems = []
    if not check_simple(edges):
        problems.append("overlay is not simple")
    if realizer in DEGREE_REALIZERS:
        if result.realized != is_graphic(vector):
            problems.append(f"verdict realized={result.realized} disagrees with Erdos-Gallai")
        if result.realized and not check_degree_match(edges, demanded, nodes):
            problems.append("realized degrees differ from the input")
        if not result.realized and not result.announced_unrealizable_by:
            problems.append("UNREALIZABLE without an announcing node")
        if realizer.endswith("_explicit") and result.explicit != result.realized:
            problems.append("explicit conversion did not run")
    elif realizer == "realize_tree":
        if result.realized != is_tree_realizable(vector):
            problems.append(f"verdict realized={result.realized} disagrees with Harary")
        if result.realized and not (
            check_tree(edges, nodes) and check_degree_match(edges, demanded, nodes)
        ):
            problems.append("overlay is not a spanning tree with the input degrees")
    elif realizer == "realize_connectivity_ncc0":
        lower = math.ceil(sum(vector) / 2)
        if not lower <= len(edges) <= 2 * lower:
            problems.append(f"{len(edges)} edges outside [{lower}, {2 * lower}]")
        top = sorted(nodes, key=lambda v: -demanded[v])[:THRESHOLD_SAMPLE_NODES]
        if not check_connectivity_thresholds(edges, demanded, top):
            problems.append("high-demand pair below its connectivity threshold")
        elif not _all_pairs_thresholds(edges, demanded, nodes):
            problems.append("some pair below its connectivity threshold")
    elif realizer == "approximate_degree_realization":
        realized = {v: 0 for v in nodes}
        for u, v in edges:
            realized[u] += 1
            realized[v] += 1
        if realized != result.realized_degrees:
            problems.append("reported degrees differ from the overlay")
        if any(realized[v] > d for v, d in demanded.items()):
            problems.append("a node got more edges than it asked for")
    else:
        problems.append(f"no check for realizer {realizer!r}")
    return problems


def check_response(kind: str, vector: Sequence[int], response: dict) -> List[str]:
    """Problems with one served response to a request on ``vector``."""
    verdict = response.get("verdict")
    edges = response.get("num_edges")
    total = sum(vector)
    if kind in ("degree_implicit", "degree_explicit"):
        expected = "REALIZED" if is_graphic(vector) else "UNREALIZABLE"
        if verdict != expected:
            return [f"verdict {verdict} but Erdos-Gallai says {expected}"]
        if verdict == "REALIZED" and edges * 2 != total:
            return [f"num_edges {edges} != sum(d)/2 = {total / 2}"]
        if kind == "degree_explicit" and response["detail"].get("explicit") != (verdict == "REALIZED"):
            return ["explicit conversion did not run"]
    elif kind == "tree":
        expected = "REALIZED" if is_tree_realizable(vector) else "UNREALIZABLE"
        if verdict != expected:
            return [f"verdict {verdict} but Harary says {expected}"]
        if verdict == "REALIZED" and edges != len(vector) - 1:
            return [f"tree with {edges} edges on {len(vector)} nodes"]
    elif kind == "connectivity":
        lower = math.ceil(total / 2)
        if verdict != "REALIZED":
            return [f"verdict {verdict} for a connectivity request"]
        if response["detail"].get("lower_bound_edges") != lower:
            return ["lower_bound_edges differs from ceil(sum(rho)/2)"]
        if not lower <= edges <= 2 * lower:
            return [f"{edges} edges outside [{lower}, {2 * lower}]"]
    elif kind == "approximate":
        if verdict != "APPROXIMATED":
            return [f"verdict {verdict} for an approximate request"]
        # Realized degrees never exceed demand, so the L1 error is exact.
        if response["detail"].get("l1_error") != total - 2 * edges:
            return ["l1_error differs from sum(d) - 2 * num_edges"]
    else:
        return [f"no check for kind {kind!r}"]
    return []
