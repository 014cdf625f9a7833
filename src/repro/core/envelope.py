"""Upper-envelope realization of non-graphic sequences (§4.3, Theorem 13).

The one-line change to Algorithm 3 ("if a degree goes negative, reset it
to 0") turns the strict realizer into an envelope realizer: every node
ends with at least its requested degree, and the realized degree total is
at most twice the requested total, because a reset node re-enters the
sorted order at the bottom and is used as a partner at most ``d_i`` more
times.

This module wraps :mod:`repro.core.degree_realization` in envelope mode
and adds the discrepancy accounting that Theorem 13 is stated in terms
of; the explicit variant chains the Theorem 12 conversion (the theorem
promises an *explicit* realization).
"""

from __future__ import annotations

from typing import Dict

from repro.ncc.network import Network
from repro.core.degree_realization import realize_degree_sequence
from repro.core.explicit import realize_degree_sequence_explicit
from repro.core.result import RealizationResult


def realize_envelope(
    net: Network,
    degrees: Dict[int, int],
    explicit: bool = True,
    sort_fidelity: str = "full",
) -> RealizationResult:
    """Theorem 13: realize an upper envelope of a possibly non-graphic D.

    Guarantees (validated by the test suite on admissible inputs, i.e.
    ``d_i <= n-1``): realized degree ``d'_i >= d_i`` for every node, and
    ``sum d' <= 2 sum d``.
    """
    if explicit:
        return realize_degree_sequence_explicit(
            net, degrees, mode="envelope", sort_fidelity=sort_fidelity
        )
    return realize_degree_sequence(
        net, degrees, mode="envelope", sort_fidelity=sort_fidelity
    )


def envelope_discrepancy(
    requested: Dict[int, int], result: RealizationResult
) -> int:
    """Total over-provisioning ``sum(d'_i - d_i)`` (Theorem 13's ε)."""
    return sum(
        max(0, result.realized_degrees.get(v, 0) - d) for v, d in requested.items()
    )


def envelope_holds(requested: Dict[int, int], result: RealizationResult) -> bool:
    """Check Theorem 13's two guarantees on a result."""
    n = len(requested)
    for v, d in requested.items():
        if result.realized_degrees.get(v, 0) < min(d, n - 1):
            return False
    total_requested = sum(min(d, n - 1) for d in requested.values())
    total_realized = sum(result.realized_degrees.values())
    return total_realized <= 2 * total_requested
