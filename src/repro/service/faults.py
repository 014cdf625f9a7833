"""Deterministic fault injection for the service stack.

Chaos testing only works if the chaos is *reproducible*: a failure seen
once in CI must be re-runnable locally, bit for bit.  This module
replaces the old fork-only ``_CRASH_REQUEST_IDS`` module-global seam in
``executor.py`` with a seeded, serializable :class:`FaultPlan` that

* travels to worker processes under **both** fork and spawn start
  methods (via the ``REPRO_FAULT_PLAN`` environment variable, re-read by
  every pool worker's initializer), and
* decides probabilistic fires with a pure hash of
  ``(seed, rule index, action, request_id)`` — no shared RNG state, so
  every process, thread, and rerun reaches the same verdict for the
  same request.

Supported actions (each applied at its natural choke point):

==============  =====================================================
``crash``       worker ``os._exit(70)`` before running the request
``hang``        worker sleeps (default effectively forever) — watchdog prey
``slow``        worker sleeps ``delay_ms`` then runs normally
``wire_error``  worker returns a malformed wire tuple (decode fails in
                the parent, exercising the transport-error envelope)
``writer_error``  socket server treats the next write of a matching
                response as a broken pipe (``_emit_loop``)
``server_kill``  the *server* process SIGKILLs itself right after the
                matching request's ``admitted`` journal record lands —
                the supervisor/restart drill (requires a journal)
``fsync_error``  the journal's next fsync barrier for a matching record
                fails (counted, durability degrades, service continues)
==============  =====================================================

Nothing here runs in production paths unless a plan is installed: the
hot-path cost is one module-global ``is None`` check.

Rules with ``max_fires`` count fires **per process** by default, which
is wrong for exactly the two new actions: a ``server_kill`` rule must
not re-fire in the respawned server (the supervisor would kill-loop to
its restart bound), and spawn-mode pool children re-parsing
``REPRO_FAULT_PLAN`` used to get fresh counters and double-fire
one-shot rules.  A plan may therefore carry a ``state_path``: a shared
append-only file recording every fire (one rule index per line), making
``max_fires`` a *cross-process* bound that survives respawns and
re-parses.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

ACTIONS = (
    "crash",
    "hang",
    "slow",
    "wire_error",
    "writer_error",
    "server_kill",
    "fsync_error",
)


def hash_unit(token: str) -> float:
    """Map ``token`` to a deterministic uniform coin in [0, 1).

    sha256 rather than ``crc32``: CRC is *linear*, so tokens differing
    by a fixed character XOR (e.g. seed 3 vs seed 4) yield perfectly
    correlated high bits — adjacent seeds would flip the same requests.
    A cryptographic hash has no such structure, and is still a pure
    function of the token (stable across processes and start methods,
    unlike Python's salted ``hash`` or shared ``random.Random`` state).
    """
    digest = hashlib.sha256(token.encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64

ENV_VAR = "REPRO_FAULT_PLAN"

# Sleep used for "hang" when no delay_ms is given: far beyond any
# deadline or watchdog bound, short enough that a leaked process exits
# on its own eventually even if SIGKILL never arrives.
HANG_SLEEP_SEC = 3600.0


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: fire ``action`` for matching requests.

    ``request_ids`` empty means "match every request"; ``probability``
    below 1.0 makes the (deterministic) coin decide; ``max_fires`` caps
    how many times the rule fires per process.
    """

    action: str
    request_ids: Tuple[str, ...] = ()
    probability: float = 1.0
    delay_ms: int = 0
    max_fires: Optional[int] = None

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r} (expected one of {ACTIONS})"
            )
        object.__setattr__(self, "request_ids", tuple(str(r) for r in self.request_ids))
        if isinstance(self.probability, bool) or not isinstance(
            self.probability, (int, float)
        ):
            raise ValueError(f"probability must be a number, got {self.probability!r}")
        if not 0.0 <= float(self.probability) <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if isinstance(self.delay_ms, bool) or not isinstance(self.delay_ms, int):
            raise ValueError(f"delay_ms must be an int, got {self.delay_ms!r}")
        if self.delay_ms < 0:
            raise ValueError(f"delay_ms must be >= 0, got {self.delay_ms}")
        if self.max_fires is not None:
            if isinstance(self.max_fires, bool) or not isinstance(self.max_fires, int):
                raise ValueError(f"max_fires must be an int, got {self.max_fires!r}")
            if self.max_fires < 1:
                raise ValueError(f"max_fires must be >= 1, got {self.max_fires}")

    def sleep_sec(self) -> float:
        """Sleep duration for hang/slow rules."""
        if self.delay_ms:
            return self.delay_ms / 1000.0
        return HANG_SLEEP_SEC if self.action == "hang" else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "action": self.action,
            "request_ids": list(self.request_ids),
            "probability": self.probability,
            "delay_ms": self.delay_ms,
            "max_fires": self.max_fires,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultRule":
        if not isinstance(payload, dict):
            raise ValueError(f"fault rule must be an object, got {payload!r}")
        known = {"action", "request_ids", "probability", "delay_ms", "max_fires"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown fault rule fields: {sorted(unknown)}")
        if "action" not in payload:
            raise ValueError("fault rule missing 'action'")
        return cls(
            action=payload["action"],
            request_ids=tuple(payload.get("request_ids") or ()),
            probability=payload.get("probability", 1.0),
            delay_ms=payload.get("delay_ms", 0),
            max_fires=payload.get("max_fires"),
        )


class FaultPlan:
    """A seeded set of :class:`FaultRule` with per-process fire counters.

    :meth:`match` is the single decision point: given an action and a
    request id it returns the first rule that fires (or None).  The
    probabilistic coin is
    ``hash_unit(f"{seed}:{i}:{action}:{request_id}")`` — stable across
    processes and start methods.  Fire counters (for ``max_fires``) are
    per plan instance, hence per process: each pool worker parses its
    own plan from the environment.  With ``state_path`` set, fires are
    additionally recorded in (and counted from) a shared append-only
    file, so the cap holds across processes, respawns and env
    re-parses — a one-shot ``crash`` rule fires once *globally* instead
    of once per spawned child, and a ``server_kill`` rule cannot
    kill-loop the supervisor.
    """

    def __init__(
        self,
        rules: Sequence[FaultRule],
        seed: int = 0,
        state_path: Optional[str] = None,
    ) -> None:
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValueError(f"seed must be an int, got {seed!r}")
        if state_path is not None and not isinstance(state_path, str):
            raise ValueError(f"state_path must be a string, got {state_path!r}")
        self.seed = seed
        self.state_path = state_path
        self._fired: Dict[int, int] = {}
        self._lock = threading.Lock()

    def _shared_count(self, index: int) -> int:
        """Fires recorded for rule ``index`` in the shared state file."""
        assert self.state_path is not None
        try:
            with open(self.state_path, "r", encoding="ascii") as fh:
                wanted = str(index)
                return sum(1 for line in fh if line.strip() == wanted)
        except FileNotFoundError:
            return 0

    def _record_shared_fire(self, index: int) -> None:
        assert self.state_path is not None
        # O_APPEND: concurrent writers interleave whole lines.  Two
        # processes racing through the read-then-append window can
        # overfire by one — the deterministic choke points the tests use
        # are single-threaded, so the simplicity wins.
        with open(self.state_path, "a", encoding="ascii") as fh:
            fh.write(f"{index}\n")

    def _coin(self, index: int, rule: FaultRule, request_id: str) -> bool:
        token = f"{self.seed}:{index}:{rule.action}:{request_id}"
        return hash_unit(token) < float(rule.probability)

    def match(self, action: str, request_id: str) -> Optional[FaultRule]:
        """First rule firing for (action, request_id), or None."""
        for index, rule in enumerate(self.rules):
            if rule.action != action:
                continue
            if rule.request_ids and request_id not in rule.request_ids:
                continue
            if rule.probability < 1.0 and not self._coin(index, rule, request_id):
                continue
            with self._lock:
                fired = self._fired.get(index, 0)
                if rule.max_fires is not None:
                    if self.state_path is not None:
                        fired = max(fired, self._shared_count(index))
                    if fired >= rule.max_fires:
                        continue
                    if self.state_path is not None:
                        self._record_shared_fire(index)
                self._fired[index] = self._fired.get(index, 0) + 1
            return rule
        return None

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "seed": self.seed,
            "rules": [rule.to_dict() for rule in self.rules],
        }
        if self.state_path is not None:
            out["state_path"] = self.state_path
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise ValueError(f"fault plan must be an object, got {payload!r}")
        unknown = set(payload) - {"seed", "rules", "state_path"}
        if unknown:
            raise ValueError(f"unknown fault plan fields: {sorted(unknown)}")
        rules = payload.get("rules", [])
        if not isinstance(rules, (list, tuple)):
            raise ValueError(f"fault plan rules must be a list, got {rules!r}")
        return cls(
            rules=[FaultRule.from_dict(rule) for rule in rules],
            seed=payload.get("seed", 0),
            state_path=payload.get("state_path"),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan(seed={self.seed}, rules={len(self.rules)})"


# ---------------------------------------------------------------------- #
# Process-wide installation                                              #
# ---------------------------------------------------------------------- #

# _UNSET: env not consulted yet.  None: consulted, no plan.  FaultPlan:
# active.  A module global (not threading.local): faults must be visible
# to the executor's callback threads and the asyncio server alike.
_UNSET = object()
_active: object = _UNSET
_lock = threading.Lock()


def install(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` process-wide (None disables injection)."""
    global _active
    with _lock:
        _active = plan


def clear() -> None:
    """Drop any installed plan *and* the env-parse cache (test hygiene)."""
    global _active
    with _lock:
        _active = _UNSET


def plan_from_env(environ=os.environ) -> Optional[FaultPlan]:
    """Parse ``REPRO_FAULT_PLAN`` from ``environ`` (None if unset/empty)."""
    raw = environ.get(ENV_VAR, "").strip()
    if not raw:
        return None
    return FaultPlan.from_json(raw)


def active() -> Optional[FaultPlan]:
    """The process's current plan, lazily sourced from the environment.

    First call with nothing installed consults ``REPRO_FAULT_PLAN`` and
    caches the result (including the no-plan case) — the hot path stays
    a single global read.  A malformed env plan raises loudly rather
    than silently running without chaos.
    """
    global _active
    plan = _active
    if plan is _UNSET:
        with _lock:
            if _active is _UNSET:
                _active = plan_from_env()
            plan = _active
    return plan  # type: ignore[return-value]


def ensure_worker_plan() -> None:
    """Pool-worker initializer hook: (re)load the plan for this process.

    Under spawn the child starts clean, so the env var is the only
    channel; under fork a parent-installed plan is inherited but its
    fire counters are shared-by-copy — re-parsing from the environment
    (when set) gives every worker fresh counters.  With no env var set,
    an inherited (fork) install is kept.

    Fresh counters per process are exactly what one-shot rules must
    *not* get (a ``max_fires=1`` rule would re-fire in every spawned
    child): plans that need the cap to hold across processes carry a
    ``state_path``, whose shared fire log survives this re-parse.
    """
    env_plan = plan_from_env()
    if env_plan is not None:
        install(env_plan)
    elif active() is None:
        install(None)
