"""Seeded inputs for the two workloads.

Everything here is a pure function of the workload seed: the same seed
gives the same run list and the same request streams.  The mixes are
fixed templates and the seed only varies instances within them, so two
seeds ask the program for about the same amount of work.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Sequence, Tuple

from repro import workloads as W
from repro.service.registry import default_registry

# --------------------------------------------------------------------- #
# protocol_full: in-process realizer runs at sort_fidelity="full"       #
# --------------------------------------------------------------------- #

#: One pass of the run list: (realizer, vector generator, n).  Each kind
#: appears with a structured and a seeded input; the non-graphic and
#: non-tree inputs exercise the UNREALIZABLE paths.
PROTOCOL_TEMPLATE: Tuple[Tuple[str, Callable[[int, int], List[int]], int], ...] = (
    ("realize_degree_sequence", lambda n, s: W.regular_sequence(n, 4), 128),
    ("realize_degree_sequence", lambda n, s: W.power_law_sequence(n, seed=s), 128),
    ("realize_degree_sequence_explicit", lambda n, s: W.regular_sequence(n, 3), 128),
    ("realize_degree_sequence_explicit",
     lambda n, s: W.near_graphic_perturbation(
         W.random_graphic_sequence(n, 0.02, seed=s), bumps=1, seed=s), 128),
    ("realize_tree", lambda n, s: W.random_tree_sequence(n, seed=s), 256),
    ("realize_tree", lambda n, s: W.caterpillar_sequence(n), 192),
    ("realize_tree", lambda n, s: _broken_tree(n, s), 128),
    ("realize_connectivity_ncc0", lambda n, s: W.power_law_rho(n, 8, seed=s), 128),
    ("realize_connectivity_ncc0", lambda n, s: W.bimodal_rho(n, 6, 2), 192),
    ("approximate_degree_realization", lambda n, s: W.regular_sequence(n, 4), 256),
    ("approximate_degree_realization",
     lambda n, s: W.power_law_sequence(n, seed=s), 128),
)

def _broken_tree(n: int, seed: int) -> List[int]:
    """A tree degree sequence with one extra stub pair: not tree-realizable."""
    degrees = W.random_tree_sequence(n, seed=seed)
    degrees[0] += 1
    degrees[-1] += 1
    return degrees


def protocol_run_list(seed: int) -> List[Tuple[str, Tuple[int, ...], int]]:
    """One pass: ``(realizer, vector, network seed)`` per run, in order."""
    rng = random.Random(f"protocol_full/{seed}")
    runs = []
    for realizer, build, n in PROTOCOL_TEMPLATE:
        instance_seed = rng.randrange(1 << 30)
        runs.append((realizer, tuple(build(n, instance_seed)), rng.randrange(1 << 30)))
    return runs


# --------------------------------------------------------------------- #
# Serve request streams                                                  #
# --------------------------------------------------------------------- #

#: Inline vector generators, by name, for requests that ship ``degrees``.
INLINE = {
    "random_graphic": lambda n, s: W.random_graphic_sequence(n, 0.05, seed=s),
    "power_law": lambda n, s: W.power_law_sequence(n, seed=s),
    "tree_random": lambda n, s: W.random_tree_sequence(n, seed=s),
    "rho_power_law": lambda n, s: W.power_law_rho(n, 8, seed=s),
}

#: serve_distinct mix, one cycle: (kind, "scenario:<name>" | "inline:<name>", n).
#: Five charged kinds at n in 64..256, 4 of 16 inline.  Each costs a few
#: tens of ms, so the open phase fits a 200-request latency window.
DISTINCT_CYCLE = (
    ("degree_implicit", "scenario:power_law", 64),
    ("degree_implicit", "scenario:star_like", 96),
    ("degree_implicit", "scenario:regular", 64),
    ("degree_implicit", "inline:random_graphic", 64),
    ("degree_explicit", "scenario:power_law", 64),
    ("degree_explicit", "scenario:star_like", 64),
    ("tree", "scenario:tree_random", 256),
    ("tree", "scenario:tree_caterpillar", 128),
    ("tree", "scenario:tree_balanced", 256),
    ("tree", "inline:tree_random", 128),
    ("connectivity", "scenario:rho_bimodal", 128),
    ("connectivity", "scenario:rho_power_law", 256),
    ("connectivity", "inline:rho_power_law", 128),
    ("approximate", "scenario:power_law", 64),
    ("approximate", "scenario:regular", 64),
    ("approximate", "inline:power_law", 64),
)


def make_request(kind: str, source: str, n: int, seed: int, tag: str) -> Dict:
    """The wire payload of one request (unique ``request_id`` ``tag``)."""
    how, name = source.split(":")
    payload: Dict = {"kind": kind, "request_id": tag, "seed": seed}
    if how == "inline":
        payload["degrees"] = INLINE[name](n, seed)
    else:
        payload["scenario"] = name
        payload["n"] = n
    return payload


_REGISTRY = default_registry()


def request_vector(payload: Dict) -> Tuple[int, ...]:
    """The workload vector a request runs on (materialized client-side)."""
    if "degrees" in payload:
        return tuple(payload["degrees"])
    return _REGISTRY.materialize(payload["scenario"], payload["n"], seed=payload["seed"])


class DistinctStream:
    """Unique serve_distinct requests, in whole shuffled template cycles.

    Every request has its own seed and ``idempotency_key``; ``cycle()``
    returns the next cycle, so phases drawn from one stream are disjoint.
    """

    cycle_length = len(DISTINCT_CYCLE)

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(f"serve_distinct/{seed}")
        self._next_seed = self._rng.randrange(1 << 20) * 1_000_000
        self._count = 0

    def request(self, kind: str, source: str, n: int) -> Dict:
        self._count += 1
        self._next_seed += 1
        tag = f"d{self._count}"
        payload = make_request(kind, source, n, self._next_seed, tag)
        payload["idempotency_key"] = f"k-{self._next_seed}"
        return payload

    def cycle(self) -> List[Dict]:
        order = list(DISTINCT_CYCLE)
        self._rng.shuffle(order)
        return [self.request(*entry) for entry in order]

    def warmup(self) -> Dict:
        return self.request("tree", "scenario:tree_random", 64)


def sample_indices(seed: int, count: int, k: int, label: str) -> Sequence[int]:
    """A seeded sample of ``k`` indices out of ``count`` (for re-runs)."""
    return sorted(random.Random(f"{label}/{seed}").sample(range(count), min(k, count)))
