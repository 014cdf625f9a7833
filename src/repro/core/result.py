"""Result types shared by the realization algorithms.

Every distributed realization returns a structured result carrying the
verdict, the overlay (as recorded in node memory — implicit edges are
known to at least one endpoint, explicit edges to both), and the round /
message statistics for the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.ncc.metrics import RoundStats

Edge = Tuple[int, int]

#: Node-memory key under which realizations record adjacency.
NBRS_KEY = "nbrs"


@dataclass(frozen=True)
class RealizationResult:
    """Outcome of a degree-sequence realization (Theorems 11–13).

    Attributes
    ----------
    realized:
        True iff the protocol produced a realization (for envelope mode,
        always True for admissible inputs).
    announced_unrealizable_by:
        Node IDs that output ``UNREALIZABLE`` (the paper requires at
        least one on non-graphic inputs in strict mode).
    edges:
        The realized overlay's edge set (union of node adjacency).
    realized_degrees:
        ``{node: degree}`` in the realized overlay.
    phases:
        Number of while-loop phases Algorithm 3 executed.
    explicit:
        Whether the run was asked to (and did) make every edge known to
        both endpoints.
    stats:
        Network meter snapshot at completion.
    """

    realized: bool
    announced_unrealizable_by: Tuple[int, ...]
    edges: Tuple[Edge, ...]
    realized_degrees: Dict[int, int]
    phases: int
    explicit: bool
    stats: RoundStats

    @property
    def num_edges(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class TreeResult:
    """Outcome of a tree realization (Theorems 14 / 16)."""

    realized: bool
    announced_unrealizable_by: Tuple[int, ...]
    edges: Tuple[Edge, ...]
    realized_degrees: Dict[int, int]
    diameter: Optional[int]
    stats: RoundStats

    @property
    def num_edges(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class ConnectivityResult:
    """Outcome of a connectivity-threshold realization (Theorems 17 / 18)."""

    edges: Tuple[Edge, ...]
    hub: Optional[int]  # the max-rho node w (NCC1 variant)
    explicit: bool
    lower_bound_edges: int
    stats: RoundStats

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def approximation_ratio(self) -> float:
        """|E| / lower bound — Theorems 17/18 guarantee <= 2."""
        return self.num_edges / max(1, self.lower_bound_edges)


def record_edge(net, holder: int, other: int) -> None:
    """Store an (implicit) overlay edge in ``holder``'s neighbour list."""
    net.mem[holder].setdefault(NBRS_KEY, set()).add(other)


def overlay_edges(net) -> List[Edge]:
    """The overlay's edge set: union over every node's neighbour list."""
    seen: Set[Edge] = set()
    for v in net.node_ids:
        for u in net.mem[v].get(NBRS_KEY, ()):
            seen.add((min(u, v), max(u, v)))
    return sorted(seen)


def overlay_degrees(net) -> Dict[int, int]:
    """Realized degree of every node in the overlay."""
    degree = {v: 0 for v in net.node_ids}
    for u, v in overlay_edges(net):
        degree[u] += 1
        degree[v] += 1
    return degree


def explicitness_holds(net) -> bool:
    """True iff every recorded edge is known to *both* endpoints."""
    for v in net.node_ids:
        for u in net.mem[v].get(NBRS_KEY, ()):
            if v not in net.mem[u].get(NBRS_KEY, set()):
                return False
    return True
