"""Multiprocess runtime: one OS process per worker, one frame format.

The parent process runs servers, clients, manager, Zookeeper and the
asyncio loop; each worker is forked into its own process hosting the
*real* :class:`~repro.cluster.worker.Worker` class -- the same code
path the sim executes -- behind a :class:`WorkerProxy` entity on the
parent side.

Every frame on a worker pipe, in both directions over an ``AF_UNIX``
stream socketpair, is ``u32le length | body``, and every body is one of
the kinds declared in :mod:`repro.cluster.wire` that
:data:`~repro.runtime.frames.PIPE_KINDS` names, encoded by
:func:`~repro.runtime.frames.encode` and read by
:func:`~repro.runtime.frames.decode`: the data plane (``insert_batch``,
``bulk_insert``, ``query_batch`` and their replies -- a single op is a
batch of one), ``install_shard`` at bootstrap, and ``barrier`` with its
``barrier_ack``.  Nothing on the pipe is pickled, which the codec spy
counters assert.  A frame's envelope carries the destination entity
name, resolved in the parent's registry on the way up and against peer
stubs on the way down.

Each request the proxy writes is answered by exactly one reply, and the
proxies' ``inflight`` counts are what the drive loop waits for.
:meth:`MPRuntime.barrier` is one more such request per proxy, driven
like any other until every child has acked it.  Shutdown is EOF:
:meth:`MPRuntime.close` half-closes each pipe and the child exits on it.

The parent side of every pipe is wrapped in asyncio streams
(``open_connection(sock=...)``), so parent writes buffer instead of
blocking and reads interleave with timers on the one drive loop: a
frame read from a child is delivered as a message is anywhere else, by
a timer on the parent's clock.  The child keeps a blocking socket and
waits in ``select`` for the next frame or its own clock's next
deadline, whichever is first.  A child whose pipe closes while the
runtime is open is an error :meth:`MPRuntime.drive` and
:meth:`MPRuntime.barrier` raise, not a silence.

v1 scope (documented in docs/runtime.md): children run ingest and
query serving only -- no heartbeats/failover, no replication, no
migration or split, no rollup tier, no obs spans.  A child's Zookeeper
is its own, read by nobody else: the parent publishes each shard when
it installs it.  The cluster facade disables the manager's scan loop on
this backend accordingly.
"""

from __future__ import annotations

import asyncio
import select
import socket
import struct
import time
from multiprocessing import get_context
from typing import Optional

from ..cluster.image import ShardInfo
from ..cluster.transport import Message
from ..cluster.wire import Barrier, BarrierAck, InstallShard, f64, i64
from ..cluster.worker import Worker
from ..cluster.zookeeper import Zookeeper
from ..olap.records import RecordBatch
from . import frames
from .asyncio_rt import AsyncioRuntime, WallClock

__all__ = ["MPRuntime", "WorkerProxy"]

_LEN = struct.Struct("<I")


def _pack(blob: bytes) -> bytes:
    return _LEN.pack(len(blob)) + blob


class _Peer:
    """A named stub standing in for a parent-side entity inside a child.

    Replies addressed to it are encoded as frames routed by name; its
    ``receive`` must never run in the child."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def receive(self, msg) -> None:  # pragma: no cover - defensive
        raise RuntimeError(f"peer stub {self.name!r} cannot receive in a child")

    def __deepcopy__(self, memo: dict) -> "_Peer":
        return self


class WorkerProxy:
    """The parent-side face of a forked worker process.

    Quacks like :class:`~repro.cluster.worker.Worker` for the callers
    the parent keeps -- the server routes messages at it, the cluster
    facade reads its gauges and installs bootstrap shards -- and turns
    every request into a frame on the child's pipe.
    """

    def __init__(self, runtime: "MPRuntime", worker_id: int, zk):
        self.worker_id = worker_id
        self.name = f"worker-{worker_id}"
        self._rt = runtime
        self._zk = zk
        #: requests written minus replies read back; the runtime's idle
        #: detector sums this across proxies
        self.inflight = 0
        #: mirror of the child's counters: ``install_shard`` adds to it,
        #: and every ``barrier_ack`` replaces it
        self.stats = {"items": 0, "shards": {}, "dedup_hits": 0, "cpu_time": 0.0}
        #: the last barrier the child acked
        self.barrier_token = 0
        self.crashed = False

    # -- Worker facade used by the cluster/manager wiring ------------------

    def total_items(self) -> int:
        return self.stats["items"]

    @property
    def shards(self) -> dict:
        return self.stats["shards"]

    @property
    def dedup_hits(self) -> int:
        return self.stats["dedup_hits"]

    @property
    def pool(self):
        return self  # .backlog below

    @property
    def backlog(self) -> float:
        return 0.0

    def publish_stats(self) -> None:
        self._zk.set(
            f"/stats/workers/{self.worker_id}",
            {
                "items": self.total_items(),
                "shards": dict(self.stats["shards"]),
                "backlog": 0.0,
            },
        )

    def start_heartbeat(self, period, ttl=None) -> None:
        pass  # liveness/failover out of mp v1 scope

    def start_checkpoints(self, period, store) -> None:
        pass

    def install_shard(self, shard_id: int, store) -> None:
        """Bootstrap: publish the shard parent-side (so server images
        build synchronously, as with in-process workers), count its rows
        and ship them to the child, which rebuilds the store from them.
        Pipe FIFO ordering guarantees the child installs it before any
        later frame touches it."""
        rows = len(store)
        self._zk.set(
            f"/shards/{shard_id}",
            ShardInfo(shard_id, store.bounding_key(), self.worker_id, rows).to_wire(),
        )
        self.stats["shards"][shard_id] = rows
        self.stats["items"] += rows
        batch = store.items()
        payload = InstallShard(i64([shard_id]), batch.coords, batch.measures)
        self._rt.proxy_write(self, frames.encode("install_shard", payload))

    # -- transport endpoint -------------------------------------------------

    def receive(self, msg) -> None:
        if msg.kind == "barrier_ack":
            token, items, dedup_hits = msg.payload.m.tolist()
            self.stats.update(
                items=items,
                shards=dict(msg.payload.s.tolist()),
                dedup_hits=dedup_hits,
                cpu_time=float(msg.payload.g[0]),
            )
            self.barrier_token = token
            return
        if msg.kind not in frames.REQUEST_KINDS:
            raise RuntimeError(
                f"message kind {msg.kind!r} is not supported by the mp "
                f"runtime data plane (worker {self.worker_id})"
            )
        self.inflight += 1
        self._rt.proxy_write(self, frames.encode(msg.kind, msg.payload, route=self.name))

    def __deepcopy__(self, memo: dict) -> "WorkerProxy":
        return self


class MPRuntime(AsyncioRuntime):
    kind = "mp"

    def __init__(self, latency=None, seed: int = 0, time_scale: float = 1.0):
        super().__init__(latency=latency, seed=seed, time_scale=time_scale)
        self._ctx = get_context("fork")
        self._procs: dict[int, object] = {}
        self._proxies: dict[int, WorkerProxy] = {}
        self._socks: dict[int, socket.socket] = {}
        self._writers: dict[int, object] = {}
        self._outbuf: dict[int, list[bytes]] = {}
        self._reader_tasks: list = []
        self._barrier_token = 0

    # -- worker lifecycle ---------------------------------------------------

    def spawn_worker(
        self, worker_id: int, zk, schema, tree_config, threads, cost, store_cls
    ) -> WorkerProxy:
        parent_sock, child_sock = socket.socketpair()
        proc = self._ctx.Process(
            target=_child_main,
            args=(
                child_sock, worker_id, schema, tree_config, threads, cost,
                store_cls, self.clock.time_scale,
            ),
            daemon=True,
            name=f"volap-worker-{worker_id}",
        )
        proc.start()
        child_sock.close()
        self._procs[worker_id] = proc
        self._socks[worker_id] = parent_sock
        self._outbuf[worker_id] = []
        proxy = self._proxies[worker_id] = WorkerProxy(self, worker_id, zk)
        self.register(proxy)
        return proxy

    def proxy_write(self, proxy: WorkerProxy, blob: bytes) -> None:
        """Queue a frame for a child; before the loop has wrapped the
        socket (bootstrap runs ahead of the first drive) it buffers,
        afterwards it goes straight to the stream writer."""
        writer = self._writers.get(proxy.worker_id)
        if writer is None:
            self._outbuf[proxy.worker_id].append(_pack(blob))
        else:
            writer.write(_pack(blob))

    async def _start_backend_io(self) -> None:
        for wid, sock in list(self._socks.items()):
            if wid in self._writers:
                continue
            reader, writer = await asyncio.open_connection(sock=sock)
            self._writers[wid] = writer
            for chunk in self._outbuf.pop(wid, []):
                writer.write(chunk)
            self._reader_tasks.append(
                self.loop.create_task(self._proxy_reader(wid, reader))
            )

    async def _proxy_reader(self, wid: int, reader) -> None:
        proxy = self._proxies[wid]
        try:
            while True:
                head = await reader.readexactly(_LEN.size)
                blob = await reader.readexactly(_LEN.unpack(head)[0])
                kind, payload, route = frames.decode(blob, self.lookup)
                if kind in frames.REPLY_KINDS:
                    proxy.inflight -= 1
                # a timer like any delivery; arming it wakes a sleeping drive
                self.transport.deliver(
                    self.lookup(route), Message(kind, payload), 0.0
                )
        except (asyncio.IncompleteReadError, ConnectionError) as exc:
            # EOF, or the reset / broken pipe of a write the child never read
            if self._closed:
                return  # the exit close() asked for
            proc = self._procs[wid]
            proc.join(timeout=1.0)  # the pipe closes just before the exit
            raise RuntimeError(
                f"{proxy.name} (pid {proc.pid}) exited with code "
                f"{proc.exitcode} and {proxy.inflight} requests in flight "
                f"on the mp runtime"
            ) from exc

    # -- idle/sync ----------------------------------------------------------

    def _check_workers(self) -> None:
        """Raise what a reader raised: a reader ends only with its
        worker's pipe, and until :meth:`close` that is a dead child."""
        for task in self._reader_tasks:
            if task.done():
                task.result()

    def _pending_io(self) -> int:
        self._check_workers()
        return sum(p.inflight for p in self._proxies.values())

    def barrier(self) -> None:
        """Flush every child: one ``barrier`` request per proxy, then
        drive until each child has acked it with its current counters."""
        self._barrier_token += 1
        token, proxies = self._barrier_token, self._proxies.values()
        for p in proxies:
            p.receive(Message("barrier", Barrier(i64([token]), p)))
        self.drive(lambda: all(p.barrier_token == token for p in proxies), desc="barrier")

    # -- teardown -----------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True  # from here a reader's EOF is no error
        try:
            self._run(self._shutdown())
        finally:
            self.loop.close()

    async def _shutdown(self) -> None:
        """Half-close every pipe -- a child exits on EOF -- then close
        what the loop opened on them: nothing is left for the collector
        to warn about."""
        await self._start_backend_io()  # a never-driven runtime has raw sockets
        for writer in self._writers.values():
            writer.write_eof()  # after what is buffered; to a dead child: a no-op
        # a reader ends when its child has exited, and reads on until
        # then: a child blocked on an unread reply never sees the EOF
        try:
            await asyncio.wait_for(
                asyncio.gather(*self._reader_tasks, return_exceptions=True), 5.0
            )
        except asyncio.TimeoutError:
            pass  # cancelled with the wait; their children are terminated
        for proc in self._procs.values():
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.terminate()
                proc.join()
        for writer in self._writers.values():
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass  # reset by a child that died with data unread


# -------------------------------------------------------------------------
# child process
# -------------------------------------------------------------------------


class _ChildTransport:
    """The worker-side transport: every outbound message becomes a
    frame on the parent pipe, routed by destination name."""

    def __init__(self, clock, sock: socket.socket):
        self.clock = clock
        self._sock = sock
        self.messages_sent = 0
        self.bytes_sent = 0
        self.faults = None
        self.obs = None

    def send(self, dst, msg) -> None:
        blob = frames.encode(msg.kind, msg.payload, route=dst.name)
        self.messages_sent += 1
        self.bytes_sent += len(blob)
        self._sock.sendall(_pack(blob))

    send_local = send


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None  # parent hung up
        buf.extend(chunk)
    return bytes(buf)


def _child_main(
    sock: socket.socket,
    worker_id: int,
    schema,
    tree_config,
    threads: int,
    cost,
    store_cls,
    time_scale: float,
) -> None:
    """Host one real Worker: blocking frame loop + local wall clock.

    The socket stays blocking, so a reply waits for the parent to read
    for as long as that takes; only the wait for the next frame is
    bounded, by the clock's next deadline."""
    clock = WallClock(time_scale)
    clock.start()
    transport = _ChildTransport(clock, sock)
    worker = Worker(
        worker_id, clock, transport, Zookeeper(clock), schema,
        tree_config=tree_config, threads=threads, cost=cost,
        store_cls=store_cls,
    )
    peers: dict[str, _Peer] = {}

    def resolve(name: str) -> _Peer:
        peer = peers.get(name)
        if peer is None:
            peer = peers[name] = _Peer(name)
        return peer

    while True:
        clock.fire_due()
        nd = clock.next_deadline()
        timeout = None if nd is None else max(0.0, (nd - clock.now) * time_scale)
        if not select.select([sock], [], [], timeout)[0]:
            continue  # a timer came due first
        head = _recv_exact(sock, _LEN.size)
        if head is None:
            break  # EOF: the parent half-closed the pipe, or died
        blob = _recv_exact(sock, _LEN.unpack(head)[0])
        if blob is None:
            break
        kind, payload, _route = frames.decode(blob, resolve)
        if kind == "install_shard":
            rows = RecordBatch(payload.c, payload.v)
            store = store_cls.from_batch(schema, rows, tree_config)
            worker.install_shard(int(payload.m[0]), store)
        elif kind == "barrier":
            clock.fire_due()  # drain completions before reporting
            ack = BarrierAck(
                i64([payload.m[0], worker.total_items(), worker.dedup_hits]),
                i64([(sid, len(s)) for sid, s in worker.shards.items()]).reshape(-1, 2),
                f64([time.process_time()]),
            )
            transport.send(payload.reply_to, Message("barrier_ack", ack))
        else:
            worker.receive(Message(kind, payload))
            clock.fire_due()  # pool completions emit the reply frames
    try:
        sock.close()
    except OSError:
        pass
