"""serve_distinct: server processes and the one-process load generator.

A :class:`Server` is ``python -m repro serve --port 0`` started with the
workload's flags; its set-up time runs from spawn to the answer of one
warm-up request.  :class:`Client` drives at most two connections from
one asyncio loop in two phases:

``open``
    requests sent on a precomputed, evenly spaced schedule whatever the
    server does; latency runs from each request's due time, so a stall
    also delays the requests queued behind it.
``saturate``
    a closed loop holding a fixed number of requests in flight per
    connection, in whole template cycles, for capacity.

Every request gets exactly one outcome: a response, or ``dropped`` when
its connection closes or the phase times out.  Nothing is retried.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Dict, Iterator, List, Optional

perf_counter = time.perf_counter

#: Longest wait for a server to bind and answer its warm-up request.
STARTUP_TIMEOUT_S = 30.0
#: Longest wait for the last responses of a phase.
PHASE_GRACE_S = 30.0
#: Longest wait for a drained server to exit before it is killed.
SHUTDOWN_TIMEOUT_S = 20.0


class Op:
    """One request and what became of it.

    The request is encoded when the op is made and the answer is parsed
    when first read, so the load generator does no JSON work on the
    clock.
    """

    __slots__ = ("payload", "line", "phase", "due", "sent", "recv", "answer", "_response", "dropped")

    def __init__(self, payload: Dict, phase: str) -> None:
        self.payload = payload
        self.line = (json.dumps(payload) + "\n").encode()
        self.phase = phase
        self.due: Optional[float] = None
        self.sent: Optional[float] = None
        self.recv: Optional[float] = None
        self.answer: Optional[bytes] = None
        self._response: Optional[Dict] = None
        self.dropped = False

    @property
    def response(self) -> Optional[Dict]:
        if self._response is None and self.answer is not None:
            self._response = json.loads(self.answer)
        return self._response

    @property
    def done(self) -> bool:
        return self.answer is not None or self.dropped


def _descendants(pid: int) -> List[int]:
    parents: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        parents.setdefault(int(fields[1]), []).append(int(entry))
    out, stack = [], [pid]
    while stack:
        for child in parents.get(stack.pop(), ()):
            out.append(child)
            stack.append(child)
    return out


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Server:
    """One ``repro serve --port 0`` process and its stderr."""

    def __init__(self, root: str, flags: List[str], warmup: Dict) -> None:
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.lines: List[str] = []
        self._bound = threading.Event()
        self.port = 0
        self.started = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *flags],
            cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self._reader = threading.Thread(target=self._drain_stderr, daemon=True)
        self._reader.start()
        try:
            if not self._bound.wait(STARTUP_TIMEOUT_S) or not self.port:
                raise RuntimeError("server did not bind: " + " | ".join(self.lines[-5:]))
            response = self._warm_up(warmup)
        except BaseException:
            self.stop()
            raise
        self.setup_s = perf_counter() - self.started
        if response.get("verdict") == "ERROR":
            self.stop()
            raise RuntimeError(f"warm-up request failed: {response}")

    def _drain_stderr(self) -> None:
        for line in self.proc.stderr:
            self.lines.append(line.rstrip())
            if "listening on" in line and not self.port:
                self.port = int(line.strip().rsplit(":", 1)[1])
                self._bound.set()
        self._bound.set()  # exited before binding

    def _warm_up(self, payload: Dict) -> Dict:
        import socket

        with socket.create_connection(("127.0.0.1", self.port), timeout=STARTUP_TIMEOUT_S) as sock:
            sock.sendall((json.dumps(payload) + "\n").encode())
            with sock.makefile("rb") as stream:
                line = stream.readline()
        if not line:
            raise RuntimeError("server closed the warm-up connection")
        return json.loads(line)

    def pin_descendants(self, cpus) -> None:
        """Move every process the server started (its workers) to ``cpus``."""
        for pid in _descendants(self.proc.pid):
            try:
                os.sched_setaffinity(pid, cpus)
            except OSError:
                pass  # exited meanwhile

    def peak_rss_mb(self) -> float:
        """VmHWM of the server plus every process it started, in MiB."""
        pids = [self.proc.pid, *_descendants(self.proc.pid)]
        return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0

    def stop(self) -> int:
        """Drain with SIGTERM (kill after a timeout); returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(SHUTDOWN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                for pid in _descendants(self.proc.pid):
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
                self.proc.kill()
                self.proc.wait()
        self._reader.join(SHUTDOWN_TIMEOUT_S)
        return self.proc.returncode


class _Connection:
    """One client connection: in-order responses matched to pending ops."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: "deque[Op]" = deque()
        self.on_response = None

    def send(self, op: Op) -> None:
        op.sent = perf_counter()
        self.pending.append(op)
        self.writer.write(op.line)

    async def read_loop(self) -> None:
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                now = perf_counter()
                if not self.pending:
                    raise RuntimeError(f"unsolicited response: {line!r}")
                op = self.pending.popleft()
                op.recv = now
                op.answer = line
                if self.on_response is not None:
                    self.on_response(self, op)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            while self.pending:  # the connection is gone: counted, not retried
                self.pending.popleft().dropped = True


class Client:
    """Two connections, one event loop, one process."""

    connections = 2

    def __init__(self, port: int) -> None:
        self.port = port
        self.loop = asyncio.new_event_loop()
        self.conns: List[_Connection] = []
        self._readers: List[asyncio.Task] = []
        self.loop.run_until_complete(self._connect())

    async def _connect(self) -> None:
        for _ in range(self.connections):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", self.port, limit=1 << 24
            )
            conn = _Connection(reader, writer)
            self.conns.append(conn)
            self._readers.append(asyncio.ensure_future(conn.read_loop()))

    async def _settle(self, ops: List[Op]) -> None:
        limit = perf_counter() + PHASE_GRACE_S
        while not all(op.done for op in ops):
            if perf_counter() > limit:
                for op in ops:
                    if not op.done:
                        op.dropped = True
                return
            await asyncio.sleep(0.002)

    def open_loop(self, ops: List[Op], rate: float) -> None:
        """Send ``ops`` at ``rate`` per second, alternating connections."""

        async def run() -> None:
            start = perf_counter() + 0.05
            for index, op in enumerate(ops):
                op.due = start + index / rate
                delay = op.due - perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                self.conns[index % len(self.conns)].send(op)
            await self._settle(ops)

        self._run(run())

    def closed_loop(self, batches: Iterator[List[Dict]], inflight: int, phase: str) -> List[Op]:
        """Keep ``inflight`` requests outstanding per connection, issuing
        whole payload batches from ``batches`` until it is exhausted."""
        ops: List[Op] = []
        queue: "deque[Op]" = deque()
        exhausted = False

        def issue(conn: _Connection) -> None:
            nonlocal exhausted
            if not queue and not exhausted:
                batch = next(batches, None)
                if batch is None:
                    exhausted = True
                else:
                    queue.extend(Op(payload, phase) for payload in batch)
            if queue:
                op = queue.popleft()
                ops.append(op)
                op.due = perf_counter()
                conn.send(op)

        async def run() -> None:
            for conn in self.conns:
                conn.on_response = lambda answered_on, _op: issue(answered_on)
                for _ in range(inflight):
                    issue(conn)
            # Each response issues the next request, so the loop is done
            # once the batches are exhausted and nothing is queued.
            while (queue or not exhausted) and not all(r.done() for r in self._readers):
                await asyncio.sleep(0.01)
            await self._settle(ops)
            for conn in self.conns:
                conn.on_response = None

        self._run(run())
        return ops

    def _run(self, phase) -> None:
        # The generator's own garbage collections would show up as server
        # latency; its ops hold no reference cycles.
        gc.disable()
        try:
            self.loop.run_until_complete(phase)
        finally:
            gc.enable()

    def ask(self, payload: Dict) -> Dict:
        """One inline request (``metrics``/``stats``) on the first connection."""
        op = Op(payload, "scrape")
        self.conns[0].send(op)
        self.loop.run_until_complete(self._settle([op]))
        if op.response is None:
            raise RuntimeError(f"no answer to {payload}")
        return op.response

    def close(self) -> None:
        for conn in self.conns:
            conn.writer.close()
        self.loop.run_until_complete(asyncio.gather(*self._readers, return_exceptions=True))
        self.loop.close()
