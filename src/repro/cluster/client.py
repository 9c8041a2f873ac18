"""Closed-loop client sessions driving operation streams.

Each session is attached to one server (paper Section III: "each user
session is attached to one of the server nodes") and keeps a fixed
number of operations in flight; a completion immediately triggers the
next operation.  Per-operation latencies and completions land in
:class:`~repro.cluster.stats.ClusterStats`.

Requests are resilient: every operation carries a globally unique
idempotency token (``op_id``), is retransmitted with exponential
backoff + jitter when no reply arrives within the
:class:`~repro.cluster.faults.RetryPolicy` timeout, and is recorded as
a failed :class:`OpRecord` (``ok=False``) when attempts are exhausted
or the server reports ``insert_failed`` -- the concurrency slot is
always released.  Workers deduplicate ``op_id``s, so retransmitted or
fault-duplicated inserts apply exactly once.

There is one wire path: pending inserts travel in
``client_insert_batch`` messages and pending queries in
``client_query_batch`` messages, each buffer flushed when it holds
``batch_size`` ops or after ``batch_linger`` seconds, whichever is
first.  ``batch_size=1`` flushes every op at once as a batch of one,
and a retransmit is the op alone in a one-row batch.  Batching changes
only the wire framing: every operation keeps its own ``op_id``, timer,
and :class:`OpRecord`.

:meth:`ClientSession._ship` is where insert rows become arrays (the
``o``/``c``/``v`` columns of :class:`~repro.cluster.wire.ClientInsertBatch`);
every later hop gathers from them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from ..workloads.streams import Operation
from .faults import RetryPolicy
from .simclock import Timer
from .stats import ClusterStats, InsertRecord, OpRecord
from .transport import Entity, Message, Transport
from .wire import ClientInsertBatch, ClientQueryBatch, QueryDone, f64, i64

__all__ = ["ClientSession", "query_batch", "query_record"]


def query_batch(op_ids, queries, reply_to, ctx=None) -> ClientQueryBatch:
    """The ``client_query_batch`` of ``queries``: their columns, built once."""
    nan = float("nan")
    x = [(op, *q.box.lo.tolist(), *q.box.hi.tolist()) for op, q in zip(op_ids, queries)]
    g = [(q.coverage, nan if q.max_staleness is None else q.max_staleness) for q in queries]
    return ClientQueryBatch(i64(x), f64(g), queries, reply_to, ctx)


def query_record(
    done: QueryDone, submit_time: float, now: float, attempts: int = 1
) -> OpRecord:
    """The :class:`OpRecord` of one answered query."""
    return OpRecord(
        "query",
        submit_time,
        now,
        coverage=done.coverage,
        shards_searched=done.searched,
        result_count=done.agg.count,
        achieved=done.achieved,
        attempts=attempts,
        staleness=done.staleness,
        source=done.source,
    )


@dataclass(eq=False)  # identity semantics: one object per in-flight op
class _PendingOp:
    op: Operation
    op_id: int
    submit_time: float
    attempts: int = 1
    span: object = None  # root obs span, None when tracing is off
    timer: Optional[Timer] = None  # the one live timeout of this op


class ClientSession(Entity):
    """A client submitting a stream of operations to one server."""

    def __init__(
        self,
        client_id: int,
        transport: Transport,
        server: Entity,
        stats: ClusterStats,
        concurrency: int = 8,
        retry: Optional[RetryPolicy] = None,
        seed: Optional[int] = None,
        batch_size: int = 1,
        batch_linger: float = 2e-3,
    ):
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.client_id = client_id
        self.name = f"client-{client_id}"
        self.transport = transport
        self.server = server
        self.stats = stats
        self.concurrency = concurrency
        self.retry = retry if retry is not None else RetryPolicy()
        self._rng = np.random.default_rng(
            client_id if seed is None else seed
        )
        #: ops handed over and not yet issued; an issued op lives in its
        #: ``_PendingOp`` until it completes, then nowhere in the session
        self._ops: deque[Operation] = deque()
        self._outstanding = 0
        self._pending: dict[int, _PendingOp] = {}
        self._op_seq = 0
        self.batch_size = batch_size
        self.batch_linger = batch_linger
        #: ops waiting for their first flush, per op kind
        self._buffers: dict[str, list[_PendingOp]] = {"insert": [], "query": []}
        self.batches_sent = 0
        self.query_batches_sent = 0
        self.completed = 0
        self.retries = 0
        self.timeouts = 0
        self.on_done: Optional[Callable[[], None]] = None
        #: called on each completed op (used by tests / oracles)
        self.on_complete: Optional[Callable[[OpRecord], None]] = None

    @property
    def done(self) -> bool:
        return not self._ops and self._outstanding == 0

    def run_stream(self, ops: Iterable[Operation]) -> None:
        """Load a stream and start issuing operations."""
        self._ops.extend(ops)
        while self._outstanding < self.concurrency and self._ops:
            self._issue(self._ops.popleft())

    # -- issuing ----------------------------------------------------------

    def _issue(self, op: Operation) -> None:
        self._outstanding += 1
        self._op_seq += 1
        op_id = (self.client_id << 24) | self._op_seq
        pending = _PendingOp(op, op_id, self.transport.clock.now)
        if self.transport.obs is not None:
            pending.span = self.transport.obs.start_span(
                "client.insert" if op.is_insert else "client.query",
                self.name,
                op_id=op_id,
            )
        self._pending[op_id] = pending
        buffer = self._buffers[op.kind]
        buffer.append(pending)
        self._arm_timer(op_id, self.retry.timeout)
        if len(buffer) >= self.batch_size:
            self._flush(buffer)
        elif len(buffer) == 1:
            # first op of a new batch: the batch waits at most one linger
            def linger_fire() -> None:
                if buffer and buffer[0] is pending:
                    self._flush(buffer)

            self.transport.clock.after(self.batch_linger, linger_fire)

    def _flush(self, buffer: list[_PendingOp]) -> None:
        """Ship every buffered op as one batch message."""
        batch = buffer[:]
        buffer.clear()
        self._ship(batch)

    def _ship(self, batch: list[_PendingOp]) -> None:
        """One ``client_insert_batch`` / ``client_query_batch`` message
        carrying ``batch`` (ops of one kind)."""
        ctx = [p.span.ctx if p.span is not None else None for p in batch]
        if batch[0].op.is_insert:
            self.batches_sent += 1
            kind = "client_insert_batch"
            payload = ClientInsertBatch(
                i64([p.op_id for p in batch]),
                i64([p.op.coords for p in batch]),
                f64([p.op.measure for p in batch]),
                self,
                ctx,
            )
        else:
            self.query_batches_sent += 1
            kind = "client_query_batch"
            payload = query_batch(
                [p.op_id for p in batch], [p.op.query for p in batch], self, ctx
            )
        self.transport.send(self.server, Message(kind, payload, sender=self))

    def _retransmit(self, pending: _PendingOp) -> None:
        """Resend a timed-out op alone, as a batch of one."""
        buffer = self._buffers[pending.op.kind]
        if pending in buffer:
            # its timeout beat the linger: it has not been sent yet, so
            # its first transmission is the flush of its batch
            self._flush(buffer)
        else:
            self._ship([pending])

    # -- timeouts / retries ------------------------------------------------

    def _arm_timer(self, op_id: int, delay: float) -> None:
        pending = self._pending.get(op_id)
        if pending is None:
            return
        attempt = pending.attempts

        def fire() -> None:
            cur = self._pending.get(op_id)
            if cur is None or cur.attempts != attempt:
                return  # completed or already retried
            self.timeouts += 1
            if cur.attempts >= self.retry.max_attempts:
                self._give_up(op_id)
                return
            cur.attempts += 1
            self.retries += 1
            backoff = self.retry.backoff(cur.attempts - 1, self._rng)
            self.transport.clock.after(
                backoff,
                lambda: self._retransmit(cur) if op_id in self._pending else None,
            )
            self._arm_timer(op_id, backoff + self.retry.timeout)

        # a re-arm comes from the predecessor's own fire(): nothing to cancel
        pending.timer = self.transport.clock.after(delay, fire)

    def _take(self, op_id: int) -> Optional[_PendingOp]:
        """Remove a finished op's record; its timeout dies with it."""
        pending = self._pending.pop(op_id, None)
        if pending is not None:
            pending.timer.cancel()
        return pending

    def _finish_span(self, pending: _PendingOp, ok: bool) -> None:
        if pending.span is not None and self.transport.obs is not None:
            self.transport.obs.finish_span(
                pending.span, ok=ok, attempts=pending.attempts
            )

    def _give_up(self, op_id: int) -> None:
        pending = self._take(op_id)
        if pending is None:
            return
        self._finish_span(pending, ok=False)
        op = pending.op
        rec = OpRecord(
            op.kind,
            pending.submit_time,
            self.transport.clock.now,
            coverage=(
                op.query.coverage if not op.is_insert else float("nan")
            ),
            ok=False,
            achieved=0.0,
            attempts=pending.attempts,
        )
        self._complete(rec)

    # -- completions -------------------------------------------------------

    def receive(self, msg: Message) -> None:
        now = self.transport.clock.now
        if msg.kind == "insert_done_batch":
            for op_id in msg.payload.o.tolist():
                pending = self._take(op_id)
                if pending is None:
                    continue  # duplicated or post-timeout reply
                self._finish_span(pending, ok=True)
                self._complete(
                    InsertRecord(pending.submit_time, now, pending.attempts)
                )
            return
        if msg.kind == "insert_failed":
            pending = self._take(msg.payload.op_id)
            if pending is None:
                return
            self._finish_span(pending, ok=False)
            rec = OpRecord(
                "insert",
                pending.submit_time,
                now,
                ok=False,
                achieved=0.0,
                attempts=pending.attempts,
            )
        elif msg.kind == "query_done":
            pending = self._take(msg.payload.op_id)
            if pending is None:
                return
            self._finish_span(pending, ok=True)
            rec = query_record(msg.payload, pending.submit_time, now, pending.attempts)
        else:
            raise ValueError(f"client: unknown message {msg.kind!r}")
        self._complete(rec)

    def _complete(self, rec: OpRecord) -> None:
        self.stats.record_op(rec)
        if self.on_complete is not None:
            self.on_complete(rec)
        self.completed += 1
        self._outstanding -= 1
        if self._ops:
            self._issue(self._ops.popleft())
        elif self._outstanding == 0 and self.on_done is not None:
            self.on_done()
