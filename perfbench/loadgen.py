"""The load generator: one process, a few connections, pipelined frames.

Requests are written with :mod:`repro.net.protocol` directly (no client
library in between), so the open loop can keep sending on schedule while
earlier requests are still in flight.  One reader task per connection
decodes replies with :class:`~repro.net.protocol.FrameDecoder` and matches
them to requests by frame id.

Every timestamp is ``time.perf_counter()`` in this process.  An
:class:`Op` records when it was due, when it was written and when its
reply arrived; latency is measured from the due time, so a generator
that falls behind charges its own lateness to the system under test and
reports it (:attr:`PhaseResult.lateness_max_s`).  Event-loop timers wake
up to a millisecond after they are due (``epoll`` waits in whole
milliseconds), so open-loop latencies include about half a millisecond
of the generator's own lateness; the traced run reports its median.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.net import protocol

#: Seconds a phase waits for outstanding replies before counting them failed.
REPLY_TIMEOUT = 30.0


@dataclass
class Op:
    """One request: a probe (``search`` frame) or an append."""

    kind: str
    """``"probe"`` or ``"append"``."""
    frame: protocol.Frame
    records: Sequence = ()
    """Appended records (appends only), for the oracle."""
    due: float = math.nan
    sent: float = math.nan
    done: float = math.nan
    reply: Optional[protocol.Frame] = None

    @property
    def ok(self) -> bool:
        return self.reply is not None and self.reply.kind == protocol.RESULT

    @property
    def latency(self) -> float:
        return self.done - self.due


class Connection:
    """One TCP connection: pipelined writes, one reader task."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.decoder = protocol.FrameDecoder()
        self.pending: Dict[int, asyncio.Future] = {}
        self.ops: Dict[int, Op] = {}
        self._reader_task: Optional[asyncio.Task] = None

    @classmethod
    async def open(cls, host: str, port: int, tenant: str) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        connection = cls(reader, writer)
        connection._reader_task = asyncio.ensure_future(connection._read())
        hello = Op("hello", protocol.hello_frame(0, tenant))
        await connection.call(hello)
        if not hello.ok:
            raise RuntimeError(f"handshake refused: {hello.reply}")
        return connection

    def send(self, op: Op) -> asyncio.Future:
        """Write ``op``'s frame now; the future resolves on its reply."""
        future = asyncio.get_running_loop().create_future()
        self.pending[op.frame.request_id] = future
        self.ops[op.frame.request_id] = op
        self.writer.write(protocol.encode_frame(op.frame))
        op.sent = time.perf_counter()
        if math.isnan(op.due):
            op.due = op.sent
        return future

    async def call(self, op: Op, timeout: float = REPLY_TIMEOUT) -> Op:
        await asyncio.wait_for(self.send(op), timeout)
        return op

    async def _read(self) -> None:
        while True:
            data = await self.reader.read(65536)
            if not data:
                break
            now = time.perf_counter()
            for frame in self.decoder.feed(data):
                op = self.ops.pop(frame.request_id, None)
                future = self.pending.pop(frame.request_id, None)
                if op is None:
                    continue
                op.done = now
                op.reply = frame
                if future is not None and not future.done():
                    future.set_result(op)
        for future in self.pending.values():
            if not future.done():
                future.set_exception(ConnectionError("server hung up"))

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass


@dataclass
class PhaseResult:
    """What one load phase observed."""

    ops: List[Op]
    elapsed_s: float
    lateness_max_s: float = 0.0

    def latencies(self, kind: str) -> List[float]:
        """Ascending latencies of ``kind`` ops; a failed op counts as the
        whole reply timeout, so it misses every latency limit below it."""
        return sorted(op.latency if op.ok else REPLY_TIMEOUT
                      for op in self.ops if op.kind == kind)


async def _settle(futures: Sequence[asyncio.Future]) -> None:
    """Wait for replies; whatever has not arrived by the timeout fails."""
    if futures:
        await asyncio.wait(futures, timeout=REPLY_TIMEOUT)


async def open_loop(
    connections: Sequence[Connection], ops: List[Op], rate: float
) -> PhaseResult:
    """Send ``ops`` at ``rate`` per second, round-robin over connections,
    regardless of replies; each op's latency counts from its due time."""
    futures = []
    lateness = 0.0
    start = time.perf_counter() + 0.01
    for i, op in enumerate(ops):
        op.due = start + i / rate
        delay = op.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        futures.append(connections[i % len(connections)].send(op))
        lateness = max(lateness, op.sent - op.due)
    await _settle(futures)
    return PhaseResult(ops, time.perf_counter() - start, lateness)


async def closed_loop(
    connections: Sequence[Connection], ops: List[Op], depth: int = 1
) -> PhaseResult:
    """Keep ``depth`` requests outstanding per connection until ``ops``
    are done; each worker sends its next request when its last returns."""
    queue = iter(ops)

    async def worker(connection: Connection) -> None:
        for op in queue:
            try:
                await connection.call(op)
            except (asyncio.TimeoutError, ConnectionError):
                return

    start = time.perf_counter()
    await asyncio.gather(*(
        worker(connection)
        for connection in connections for _ in range(depth)
    ))
    return PhaseResult(ops, time.perf_counter() - start)


async def status(connection: Connection, request_id: int) -> Dict:
    """The server's ``status`` frame payload."""
    op = await connection.call(Op("status", protocol.status_frame(request_id)))
    return op.reply.payload["status"] if op.ok else {}


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        return math.nan
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_quantile(n: int, candidates=(0.99, 0.95, 0.9, 0.5)) -> float:
    """The highest candidate percentile with at least ten samples beyond it."""
    for q in candidates:
        if n * (1.0 - q) >= 10:
            return q
    return candidates[-1]
