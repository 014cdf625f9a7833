"""Degree-sequence generators.

All generators return plain ``list[int]`` sequences (callers zip them
onto node IDs).  Every "graphic" generator guarantees graphicality either
by construction (degree sequences of actual graphs) or by explicit
Erdős–Gallai repair, so strict-mode realization tests can rely on the
verdict.
"""

from __future__ import annotations

import random
from typing import List

from repro.sequential.erdos_gallai import is_graphic


def regular_sequence(n: int, degree: int) -> List[int]:
    """The d-regular sequence (graphic iff n > d and n*d even).

    The Δ-regime workload for Theorem 11 and Theorem 20's second family.
    """
    if degree >= n or (n * degree) % 2 != 0:
        raise ValueError(f"({n}, {degree})-regular is not graphic")
    return [degree] * n


def random_graphic_sequence(n: int, p: float, seed: int = 0) -> List[int]:
    """Degree sequence of a G(n, p) draw — graphic by construction."""
    rng = random.Random(seed)
    deg = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                deg[i] += 1
                deg[j] += 1
    return deg


def power_law_sequence(
    n: int, exponent: float = 2.5, d_min: int = 1, seed: int = 0
) -> List[int]:
    """A heavy-tailed sequence with Erdős–Gallai repair.

    Draws from a truncated discrete power law, then decrements the
    largest entries until graphic (sum parity first, then EG).
    """
    rng = random.Random(seed)
    degrees = []
    d_max = max(d_min + 1, n - 1)
    weights = [d ** (-exponent) for d in range(d_min, d_max + 1)]
    total_weight = sum(weights)
    for _ in range(n):
        r = rng.random() * total_weight
        acc = 0.0
        value = d_min
        for d, w in zip(range(d_min, d_max + 1), weights):
            acc += w
            if r <= acc:
                value = d
                break
        degrees.append(value)
    return repair_to_graphic(degrees)


def concentrated_sequence(n: int, k: int, seed: int = 0) -> List[int]:
    """All degree mass on the first ``k`` nodes (√m-regime workload).

    The first ``k`` nodes get degree ≈ k (mutually realizable as a dense
    subgraph); the rest get zero.  With ``k ≈ √m`` this is Theorem 20's
    ``D*`` family.
    """
    if k > n:
        raise ValueError("k cannot exceed n")
    head = k - 1 if (k * (k - 1)) % 2 == 0 else k - 2
    head = max(0, head)
    degrees = [head] * k + [0] * (n - k)
    return repair_to_graphic(degrees)


def sqrt_m_family(n: int, m: int) -> List[int]:
    """Theorem 20's ``D*``: ``k = ⌊√m⌋`` nodes sharing ``2m`` degree mass.

    Realized as a near-clique on the first k nodes (so it is graphic);
    the actual edge count is ``k(k-1)/2 ≈ m``.
    """
    import math

    k = max(2, int(math.isqrt(m)))
    k = min(k, n)
    return concentrated_sequence(n, k)


def star_like_sequence(n: int, hubs: int = 1) -> List[int]:
    """``hubs`` high-degree centers, the rest leaves (Δ ≈ n regime)."""
    if hubs < 1 or hubs >= n:
        raise ValueError("need 1 <= hubs < n")
    spokes = n - hubs
    degrees = [spokes] * hubs + [hubs] * spokes
    return repair_to_graphic(degrees)


def near_graphic_perturbation(
    base: List[int], bumps: int, seed: int = 0
) -> List[int]:
    """Perturb a graphic sequence into a (usually) non-graphic one.

    Adds +1 to ``bumps`` random entries — the Theorem 13 envelope
    workload.  No repair: the result may or may not be graphic; tests
    check with the Erdős–Gallai oracle.
    """
    rng = random.Random(seed)
    out = list(base)
    n = len(out)
    for _ in range(bumps):
        i = rng.randrange(n)
        out[i] = min(n - 1, out[i] + 1)
    return out


def repair_to_graphic(degrees: List[int]) -> List[int]:
    """Decrement offending entries until the sequence is graphic.

    Clamps to ``[0, n-1]``, fixes parity, then walks the largest entries
    down while Erdős–Gallai rejects.  Terminates because the all-zero
    sequence is graphic.
    """
    n = len(degrees)
    out = [min(max(0, d), n - 1) for d in degrees]
    if sum(out) % 2 != 0:
        i = out.index(max(out))
        if out[i] > 0:
            out[i] -= 1
        else:
            return out  # all zeros already
    guard = sum(out) + 1
    while not is_graphic(out) and guard > 0:
        i = out.index(max(out))
        out[i] = max(0, out[i] - 2)
        guard -= 1
    return out
