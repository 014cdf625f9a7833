"""Retry and circuit-breaker policies for the batch executor.

Two small, independently testable pieces that ``BatchExecutor`` composes
with its hung-worker watchdog:

* :class:`RetryPolicy` — how many attempts a pool-breaking request gets
  and how long to back off between them.  Delays are jittered
  exponential backoff, but *deterministic*: a pure function of
  ``(seed, attempt)``, so chaos tests and reruns see identical timing
  decisions (the same design as :mod:`repro.service.faults`).
* :class:`CircuitBreaker` — after repeated consecutive pool breaks
  (crashes, watchdog kills), stop feeding the process pool and let the
  executor degrade to in-parent sequential execution; probe the pool
  again after a cooldown (classic closed → open → half-open cycle).
  The clock is injectable so the state machine is testable without
  sleeping.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict

from repro.service.faults import hash_unit


class RetryPolicy:
    """Jittered exponential backoff with a deterministic jitter.

    ``max_attempts`` counts *total* attempts including the first (so the
    default 2 preserves the executor's historical single blind retry).
    ``delay_sec(k)`` is the pause before attempt ``k``: zero for the
    first attempt, then ``base_delay_ms * multiplier**(k-2)`` clamped to
    ``max_delay_ms`` and jittered by ±``jitter`` (fraction).  The jitter
    coin is ``hash_unit(f"{seed}:{k}")`` — two policies with the same
    seed back off identically, different seeds decorrelate.
    """

    def __init__(
        self,
        max_attempts: int = 2,
        base_delay_ms: float = 10.0,
        multiplier: float = 2.0,
        max_delay_ms: float = 1000.0,
        jitter: float = 0.5,
        seed: int = 0,
    ) -> None:
        if isinstance(max_attempts, bool) or not isinstance(max_attempts, int):
            raise ValueError(f"max_attempts must be an int, got {max_attempts!r}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if base_delay_ms < 0 or max_delay_ms < 0:
            raise ValueError("delays must be >= 0")
        if multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {multiplier}")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {jitter}")
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValueError(f"seed must be an int, got {seed!r}")
        self.max_attempts = max_attempts
        self.base_delay_ms = float(base_delay_ms)
        self.multiplier = float(multiplier)
        self.max_delay_ms = float(max_delay_ms)
        self.jitter = float(jitter)
        self.seed = seed

    def delay_sec(self, attempt: int) -> float:
        """Backoff (seconds) before attempt number ``attempt`` (1-based)."""
        if attempt <= 1:
            return 0.0
        base = self.base_delay_ms * (self.multiplier ** (attempt - 2))
        base = min(base, self.max_delay_ms)
        coin = hash_unit(f"{self.seed}:{attempt}")
        jittered = base * (1.0 - self.jitter + 2.0 * self.jitter * coin)
        return min(jittered, self.max_delay_ms) / 1000.0

    def schedule(self, attempts: int) -> list:
        """The full seeded backoff schedule (seconds) for ``attempts``
        tries — what a supervisor logs up front so an operator can see
        the worst-case respawn timeline before it happens."""
        return [self.delay_sec(attempt) for attempt in range(1, attempts + 1)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RetryPolicy(max_attempts={self.max_attempts}, "
            f"base_delay_ms={self.base_delay_ms}, seed={self.seed})"
        )


class CircuitBreaker:
    """Closed → open → half-open breaker over consecutive pool breaks.

    ``record_failure()`` on every pool break, ``record_success()`` on
    every completed pool job.  ``failure_threshold`` consecutive
    failures open the breaker: ``allow()`` answers False (callers
    degrade) until ``cooldown_sec`` elapses, then exactly one probe is
    let through (half-open); its success closes the breaker, its
    failure reopens it and restarts the cooldown.  Thread-safe; the
    clock is injectable for tests.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown_sec: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if isinstance(failure_threshold, bool) or not isinstance(
            failure_threshold, int
        ):
            raise ValueError(
                f"failure_threshold must be an int, got {failure_threshold!r}"
            )
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown_sec < 0:
            raise ValueError(f"cooldown_sec must be >= 0, got {cooldown_sec}")
        self.failure_threshold = failure_threshold
        self.cooldown_sec = float(cooldown_sec)
        self.clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_inflight = False
        self.opens = 0
        self.failures_total = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """May the caller dispatch to the pool right now?

        In half-open exactly one caller gets True (the probe) until that
        probe resolves via record_success/record_failure.
        """
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if self._state == self.OPEN:
                if self.clock() - self._opened_at >= self.cooldown_sec:
                    self._state = self.HALF_OPEN
                    self._probe_inflight = True
                    return True
                return False
            # HALF_OPEN: one probe at a time.
            if self._probe_inflight:
                return False
            self._probe_inflight = True
            return True

    def record_failure(self) -> None:
        """A pool break happened (crash or watchdog kill)."""
        with self._lock:
            self.failures_total += 1
            self._consecutive_failures += 1
            if self._state == self.HALF_OPEN:
                self._state = self.OPEN
                self._opened_at = self.clock()
                self._probe_inflight = False
                self.opens += 1
            elif (
                self._state == self.CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._state = self.OPEN
                self._opened_at = self.clock()
                self.opens += 1

    def record_success(self) -> None:
        """A pool job completed normally."""
        with self._lock:
            self._consecutive_failures = 0
            if self._state == self.HALF_OPEN:
                self._state = self.CLOSED
                self._probe_inflight = False

    def snapshot(self) -> Dict[str, object]:
        """Counters for ``BatchExecutor.stats()`` / the serve stats kind."""
        with self._lock:
            return {
                "state": self._state,
                "opens": self.opens,
                "failures_total": self.failures_total,
                "consecutive_failures": self._consecutive_failures,
                "failure_threshold": self.failure_threshold,
                "cooldown_sec": self.cooldown_sec,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CircuitBreaker(state={self.state!r}, opens={self.opens})"
