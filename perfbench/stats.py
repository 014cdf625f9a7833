"""Summary arithmetic shared by the workloads: percentiles, failures, ledger.

Pure functions over plain numbers, so ``selftest.py`` can pin each rule
down without running the program under test.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: beyond it; fewer would make the tail one or two unlucky requests.
TAIL_SAMPLES = 10

#: Candidate percentiles for :func:`highest_supported_percentile`.
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Open-loop latencies are summarised per window of this many requests:
#: the fewest that leave ten samples beyond p95.
LATENCY_WINDOW = 200

#: A percentile that lands on a failed operation is infinitely late.
#: JSON has no infinity, so such a value is written as this many ms.
INFINITELY_LATE_MS = 1e12

#: How far the traced layer self-times may miss the traced wall time.
LEDGER_TOLERANCE_PCT = 3.0


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 < q <= 100) of an ascending sequence."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[_rank(len(ordered), q) - 1]


def _rank(count: int, q: float) -> int:
    # Rounded first so that 99.9% of 10,000 is rank 9,990, not 9,991.
    return max(1, math.ceil(round(q * count / 100.0, 9)))


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly past the ``q``-th rank."""
    return count - _rank(count, q)


def highest_supported_percentile(count: int) -> Optional[float]:
    """The highest of :data:`PERCENTILES` with >= TAIL_SAMPLES beyond it."""
    best = None
    for q in PERCENTILES:
        if samples_beyond(count, q) >= TAIL_SAMPLES:
            best = q
    return best


def latency_summary(latencies_ms: Sequence[float], window: int) -> Dict[str, float]:
    """p50/p95 (ms): nearest-rank within each window of ``window``
    consecutive operations, then the median over the windows.

    Failed operations are passed in as ``math.inf``: infinitely late.
    Windows keep a slow stretch of the host from setting the whole
    run's tail; a partial last window is dropped.
    """
    count = len(latencies_ms) - len(latencies_ms) % window
    if not count:
        raise ValueError(f"fewer than {window} latencies")
    windows = [sorted(latencies_ms[i:i + window]) for i in range(0, count, window)]
    out = {
        "samples": count,
        "windows": len(windows),
        "p50_ms": statistics.median(nearest_rank(w, 50.0) for w in windows),
        "p95_ms": statistics.median(nearest_rank(w, 95.0) for w in windows),
        "supported_percentile": highest_supported_percentile(window),
    }
    for key in ("p50_ms", "p95_ms"):
        if math.isinf(out[key]):
            out[key] = INFINITELY_LATE_MS
    return out


def windowed_rate(completions: Sequence[float], window: int) -> float:
    """Completions per second: the median over consecutive windows of
    ``window`` completion times (seconds, any order)."""
    times = sorted(completions)
    rates = [
        window / (times[i + window] - times[i])
        for i in range(0, len(times) - window, window)
    ]
    if not rates:
        raise ValueError(f"fewer than {window + 1} completions")
    return statistics.median(rates)


def ledger(wall_s: float, layers: Dict[str, float]) -> Tuple[float, bool]:
    """Unaccounted share (%) of ``wall_s`` and whether it is within bounds.

    ``layers`` maps each layer to its self time; the self times of a
    complete ledger add up to the wall time they were carved from.
    """
    if wall_s <= 0:
        raise ValueError("ledger needs a positive wall time")
    unaccounted_pct = 100.0 * (wall_s - sum(layers.values())) / wall_s
    return unaccounted_pct, abs(unaccounted_pct) <= LEDGER_TOLERANCE_PCT


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0
