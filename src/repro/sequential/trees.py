"""Sequential tree realization baselines (Section 5's classical substrate).

A degree sequence is realizable by a tree iff every degree is positive and
``sum(d) == 2(n-1)`` (Harary [19]; the paper's Algorithm 4 pseudocode has a
typo — ``2(n-2)`` — which we correct here and in the distributed code).

Two canonical constructions:

* :func:`max_diameter_tree` — the caterpillar built by Algorithm 4's
  strategy: all non-leaves on a spine, leaves appended by prefix sums.
  This maximizes diameter.
* :func:`greedy_tree` — the greedy tree ``T_G`` of Smith–Székely–Wang
  [30], built by Algorithm 5's strategy: highest degrees as close to the
  root as possible.  Lemma 15 proves it minimizes diameter.

:func:`min_tree_diameter_bruteforce` enumerates *all* trees with the given
degree sequence via Prüfer sequences (tiny ``n`` only) and is the oracle
against which Theorem 16's optimality claim is tested.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

Edge = Tuple[int, int]


def is_tree_realizable(degrees: Sequence[int]) -> bool:
    """Harary's condition: all degrees >= 1 and sum == 2(n-1).

    ``n == 1`` is the trivial single-vertex tree with degree 0.
    """
    n = len(degrees)
    if n == 0:
        return False
    if n == 1:
        return degrees[0] == 0
    return all(d >= 1 for d in degrees) and sum(degrees) == 2 * (n - 1)


def _sorted_order(degrees: Sequence[int]) -> List[int]:
    """Vertex indices sorted by degree, non-increasing (ties by index)."""
    return sorted(range(len(degrees)), key=lambda i: (-degrees[i], i))


def max_diameter_tree(degrees: Sequence[int]) -> Optional[List[Edge]]:
    """Caterpillar realization (Algorithm 4's strategy), or ``None``.

    Non-leaves form a spine in non-increasing degree order; the spine is
    extended by one leaf; remaining leaves attach to spine vertices by the
    prefix-sum schedule ``p_i = 2 + sum_{j<i}(d_j - 2)``.
    """
    n = len(degrees)
    if not is_tree_realizable(degrees):
        return None
    if n == 1:
        return []
    order = _sorted_order(degrees)
    d = [degrees[v] for v in order]
    k = sum(1 for x in d if x > 1)

    edges: List[Edge] = []
    if k == 0:
        # Only possible for n == 2: a single edge.
        edges.append((order[0], order[1]))
        return _canon(edges)

    # Spine: x_1 - x_2 - ... - x_k - x_{k+1}  (x_{k+1} is a leaf).
    for i in range(k):
        edges.append((order[i], order[i + 1]))

    # Leaves by prefix sums: x_i (1-based) gets leaves at positions
    # k + p_i + I ... k + p_i + d_i - 2 (1-based), I = 0 for i=1 else 1.
    prefix = 0  # sum_{j<i} (d_j - 2)
    for i in range(1, k + 1):
        di = d[i - 1]
        p_i = 2 + prefix
        lead = 0 if i == 1 else 1
        # Positions (1-based) of leaves assigned to x_i.
        start = k + p_i + lead
        stop = k + p_i + di - 2  # inclusive
        for pos in range(start, stop + 1):
            edges.append((order[i - 1], order[pos - 1]))
        prefix += di - 2
    return _canon(edges)


def greedy_tree(degrees: Sequence[int]) -> Optional[List[Edge]]:
    """Greedy tree ``T_G`` (Algorithm 5's strategy), or ``None``.

    Sort non-increasing; the root adopts the next ``d_1`` vertices, then
    each subsequent vertex adopts the next ``d_i - 1`` parentless
    vertices, via prefix sums ``p_i = 2 + sum_{j<i}(d_j - 1)``.
    """
    n = len(degrees)
    if not is_tree_realizable(degrees):
        return None
    if n == 1:
        return []
    order = _sorted_order(degrees)
    d = [degrees[v] for v in order]

    edges: List[Edge] = []
    prefix = 0  # sum_{j<i} (d_j - 1)
    for i in range(1, n + 1):
        di = d[i - 1]
        p_i = 2 + prefix
        lead = 0 if i == 1 else 1
        # Children at positions p_i + I ... p_i + d_i - 1 (1-based).
        start = p_i + lead
        stop = p_i + di - 1  # inclusive
        for pos in range(start, stop + 1):
            if pos > n:
                break
            edges.append((order[i - 1], order[pos - 1]))
        prefix += di - 1
        if len(edges) >= n - 1:
            break
    return _canon(edges[: n - 1])


def tree_diameter(edges: Sequence[Edge], n: int) -> int:
    """Diameter of a tree given as an edge list (double BFS)."""
    if n <= 1:
        return 0
    adjacency: Dict[int, List[int]] = {i: [] for i in range(n)}
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)

    def bfs_far(start: int) -> Tuple[int, int]:
        dist = {start: 0}
        queue = deque([start])
        far, far_d = start, 0
        while queue:
            x = queue.popleft()
            for y in adjacency[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    if dist[y] > far_d:
                        far, far_d = y, dist[y]
                    queue.append(y)
        return far, far_d

    a, _ = bfs_far(0)
    _, diameter = bfs_far(a)
    return diameter


def min_tree_diameter_bruteforce(degrees: Sequence[int]) -> Optional[int]:
    """Minimum diameter over *all* trees realizing ``degrees``.

    Enumerates Prüfer sequences in which vertex ``i`` appears exactly
    ``d_i - 1`` times.  Exponential; intended for ``n <= 9`` oracle use.
    """
    n = len(degrees)
    if not is_tree_realizable(degrees):
        return None
    if n <= 2:
        return n - 1
    symbols: List[int] = []
    for i, d in enumerate(degrees):
        symbols.extend([i] * (d - 1))
    if len(symbols) != n - 2:
        return None

    best: Optional[int] = None
    for seq in set(itertools.permutations(symbols)):
        edges = _prufer_to_tree(list(seq), n)
        diameter = tree_diameter(edges, n)
        if best is None or diameter < best:
            best = diameter
    return best


def _prufer_to_tree(seq: List[int], n: int) -> List[Edge]:
    """Decode a Prüfer sequence into a labeled tree on ``0..n-1``."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges: List[Edge] = []
    # Min-leaf selection with a simple pointer + set (n is tiny here).
    import heapq

    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def _canon(edges: List[Edge]) -> List[Edge]:
    """Normalize edge orientation to (small, large)."""
    return [(min(u, v), max(u, v)) for u, v in edges]
