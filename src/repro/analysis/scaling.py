"""Scaling fits: turning (n, rounds) series into reproduction evidence.

The paper's claims are asymptotic; the reproduction evidence we report is

* a **log-log power-law fit**: ``rounds ≈ c * x^alpha`` — for an
  O(polylog) protocol the fitted ``alpha`` against ``n`` stays near 0
  versus any power of n; for an O(√m) protocol the fit against m gives
  ``alpha ≈ 0.5``;
* **bound-normalised ratios**: ``rounds / bound(x)`` — flat or falling
  curves mean the bound's shape is right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares fit of ``y ≈ c * x^alpha`` on log-log axes."""

    alpha: float
    constant: float
    r_squared: float

    def predict(self, x: float) -> float:
        return self.constant * (x**self.alpha)


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> ScalingFit:
    """Fit ``y = c * x^alpha`` by linear regression in log space."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two (x, y) points")
    log_x = np.log(np.asarray(xs, dtype=float))
    log_y = np.log(np.maximum(1e-12, np.asarray(ys, dtype=float)))
    alpha, intercept = np.polyfit(log_x, log_y, 1)
    predicted = alpha * log_x + intercept
    ss_res = float(np.sum((log_y - predicted) ** 2))
    ss_tot = float(np.sum((log_y - log_y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return ScalingFit(alpha=float(alpha), constant=float(math.exp(intercept)), r_squared=r_squared)


def fit_polylog_ratio(
    ns: Sequence[int], rounds: Sequence[int], power: int
) -> List[float]:
    """``rounds / log2(n)^power`` series — flat for Õ(log^power) protocols."""
    out = []
    for n, r in zip(ns, rounds):
        out.append(r / max(1.0, math.log2(max(2, n)) ** power))
    return out


def bound_ratios(
    xs: Sequence[float],
    rounds: Sequence[int],
    bound: Callable[[float], float],
) -> List[float]:
    """``rounds_i / bound(x_i)`` for an arbitrary bound function."""
    return [r / max(1.0, bound(x)) for x, r in zip(xs, rounds)]


def is_flat_or_decreasing(series: Sequence[float], slack: float = 1.35) -> bool:
    """Heuristic evidence check: no sustained growth beyond ``slack``.

    Compares the mean of the last two entries against the mean of the
    first two — generous enough to absorb small-n noise, tight enough to
    catch a wrong exponent (which grows without bound).
    """
    if len(series) < 3:
        return True
    first = sum(series[:2]) / 2
    last = sum(series[-2:]) / 2
    return last <= slack * max(first, 1e-9)
