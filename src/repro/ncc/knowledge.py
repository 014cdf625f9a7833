"""Initial knowledge graphs for NCC0.

In NCC0 each node starts knowing the IDs of its out-neighbours in a
directed *initial knowledge graph* ``Gk``.  The paper fixes ``Gk`` to a
directed path for concreteness ("Typically, Gk will be a low-degree
graph"), which is what :func:`path_knowledge` builds; the other generators
exist for experiments on alternative starting topologies.

A knowledge graph is represented as ``dict[int, set[int]]`` mapping a node
ID to the set of IDs it initially knows (not including itself; knowing
yourself is implicit).
"""

from __future__ import annotations

import random
from typing import Dict, Sequence, Set

KnowledgeGraph = Dict[int, Set[int]]


def path_knowledge(ids: Sequence[int]) -> KnowledgeGraph:
    """Directed path ``ids[0] -> ids[1] -> ... -> ids[n-1]``.

    Node ``ids[i]`` knows ``ids[i+1]`` — the paper's ``Gk``.  The path
    order is the order of ``ids``, i.e. simulator index order, which is an
    arbitrary order as far as the protocols are concerned.
    """
    known: KnowledgeGraph = {node_id: set() for node_id in ids}
    for left, right in zip(ids, ids[1:]):
        known[left].add(right)
    return known


def cycle_knowledge(ids: Sequence[int]) -> KnowledgeGraph:
    """Directed cycle: like the path, plus ``ids[-1] -> ids[0]``."""
    known = path_knowledge(ids)
    if len(ids) > 1:
        known[ids[-1]].add(ids[0])
    return known


def complete_knowledge(ids: Sequence[int]) -> KnowledgeGraph:
    """Every node knows every other node: the NCC1 initial state."""
    all_ids = set(ids)
    return {node_id: all_ids - {node_id} for node_id in ids}


def random_tree_knowledge(ids: Sequence[int], seed: int = 0) -> KnowledgeGraph:
    """A random rooted tree: each non-root knows its parent.

    Used by ablation experiments on alternative low-degree ``Gk``.
    """
    known: KnowledgeGraph = {node_id: set() for node_id in ids}
    rng = random.Random(seed)
    for i in range(1, len(ids)):
        parent = ids[rng.randrange(i)]
        known[ids[i]].add(parent)
    return known


def knowledge_for_variant(ids: Sequence[int], variant) -> KnowledgeGraph:
    """Default knowledge graph for a config variant (path vs complete)."""
    from repro.ncc.config import Variant

    if variant == Variant.NCC1:
        return complete_knowledge(ids)
    return path_knowledge(ids)
