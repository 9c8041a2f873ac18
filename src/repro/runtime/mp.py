"""Multiprocess runtime: one OS process per worker, frames on the wire.

The parent process runs servers, clients, manager, Zookeeper and the
asyncio loop; each worker is forked into its own process hosting the
*real* :class:`~repro.cluster.worker.Worker` class -- the same code
path the sim executes -- behind a :class:`WorkerProxy` entity on the
parent side.  The data plane (``insert_batch``, ``bulk_insert``,
``query_batch`` and their replies -- a single op is a batch of one)
crosses the worker pipe exclusively as column frames
(:mod:`repro.runtime.frames`): zero pickling per row, the property the
codec spy counters assert.

Wire protocol, both directions, over an ``AF_UNIX`` stream socketpair:
``u32le length | body``.  A body starting with ``0xFF`` is a control
frame -- pickled ``(kind, payload)``, used for the low-rate management
plane (shard installation at bootstrap, forwarded Zookeeper writes,
barrier/stats sync, shutdown).  Anything else is a column frame whose
envelope carries the destination entity name, resolved in the parent's
registry on the way up and against peer stubs on the way down.

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
migration or split, no rollup tier, no obs spans.  The cluster facade
disables the manager's scan loop on this backend accordingly.
"""

from __future__ import annotations

import asyncio
import pickle
import select
import socket
import struct
import time
from multiprocessing import get_context
from typing import Optional

from . import frames
from .asyncio_rt import AsyncioRuntime, WallClock

__all__ = ["MPRuntime", "WorkerProxy"]

_LEN = struct.Struct("<I")
_CONTROL = 0xFF


def _pack(blob: bytes) -> bytes:
    return _LEN.pack(len(blob)) + blob


def _control_blob(kind: str, payload) -> bytes:
    return bytes([_CONTROL]) + pickle.dumps((kind, payload), protocol=4)


def _zk_apply(zk, payload) -> None:
    """Replay a child's forwarded zookeeper write on the parent's tree."""
    op, path, data = payload
    if op == "set":
        zk.set(path, data)
    elif op == "delete":
        zk.delete(path)


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
    every data-plane message into a column frame on the child's pipe.
    """

    def __init__(self, runtime: "MPRuntime", worker_id: int, zk):
        self.worker_id = worker_id
        self.name = f"worker-{worker_id}"
        self._rt = runtime
        self._zk = zk
        #: data-plane requests written minus replies read back; the
        #: runtime's idle detector sums this across proxies
        self.inflight = 0
        #: barrier-refreshed mirror of the child's counters
        self.stats = {
            "items": 0, "shards": {}, "dedup_hits": 0,
            "inserts_done": 0, "queries_done": 0, "cpu_time": 0.0,
        }
        self._barrier_acked: set[int] = set()
        #: bounding keys of installed shards (wire form), for gauges
        self._shard_meta: dict[int, int] = {}
        self.crashed = False
        self.peers = None  # assigned by the facade; unused by the proxy

    # -- Worker facade used by the cluster/manager wiring ------------------

    def total_items(self) -> int:
        return int(self.stats["items"])

    @property
    def shards(self) -> dict:
        return self._shard_meta

    @property
    def dedup_hits(self) -> int:
        return int(self.stats["dedup_hits"])

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
        build synchronously, as with in-process workers) and ship the
        rows to the child, which rebuilds the store from the batch.
        Pipe FIFO ordering guarantees the child installs it before any
        later data frame touches it."""
        from ..cluster.image import ShardInfo
        from ..olap.colframe import encode_batch

        self._zk.set(
            f"/shards/{shard_id}",
            ShardInfo(
                shard_id, store.bounding_key(), self.worker_id, len(store)
            ).to_wire(),
        )
        self._shard_meta[shard_id] = len(store)
        self.stats["shards"][shard_id] = len(store)
        blob = encode_batch(store.items(), compress=False)
        frames.note_control_pickle()
        self._rt.proxy_write(
            self, _pack(_control_blob("install_shard", (shard_id, blob)))
        )

    # -- transport endpoint -------------------------------------------------

    def receive(self, msg) -> None:
        if msg.kind not in frames.REQUEST_KINDS:
            raise RuntimeError(
                f"message kind {msg.kind!r} is not supported by the mp "
                f"runtime data plane (worker {self.worker_id})"
            )
        blob = frames.encode(msg.kind, msg.payload, route=self.name)
        self.inflight += 1
        self._rt.proxy_write(self, _pack(blob))

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
        self._spawn_args: Optional[tuple] = None

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

    def proxy_write(self, proxy: WorkerProxy, data: bytes) -> None:
        """Queue bytes for a child; before the loop has wrapped the
        socket (bootstrap runs ahead of the first drive) they buffer,
        afterwards they go straight to the stream writer."""
        writer = self._writers.get(proxy.worker_id)
        if writer is None:
            self._outbuf[proxy.worker_id].append(data)
        else:
            writer.write(data)

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
        from ..cluster.transport import Message

        proxy = self._proxies[wid]
        try:
            while True:
                head = await reader.readexactly(_LEN.size)
                blob = await reader.readexactly(_LEN.unpack(head)[0])
                if blob[:1] == bytes([_CONTROL]):
                    kind, payload = pickle.loads(blob[1:])
                    frames.note_control_pickle()
                    if kind == "zk_set":
                        # every proxy shares the one parent zookeeper
                        _zk_apply(proxy._zk, payload)
                    elif kind == "barrier_ack":
                        token, stats = payload
                        proxy.stats.update(stats)
                        proxy._shard_meta = dict(stats.get("shards", {}))
                        proxy._barrier_acked.add(token)
                    continue
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
        """Flush every child: send a barrier control frame and drive the
        loop until each child has answered with its current counters."""
        if self._proxies:
            self._barrier_token += 1
            self._run(self._barrier(self._barrier_token))

    async def _barrier(self, token: int) -> None:
        await self._start_backend_io()
        proxies = self._proxies.values()
        blob = _control_blob("barrier", token)
        frames.note_control_pickle()
        for p in proxies:
            self.proxy_write(p, _pack(blob))
        deadline = time.monotonic() + 60.0
        while any(token not in p._barrier_acked for p in proxies):
            self._check_workers()
            if time.monotonic() > deadline:
                raise RuntimeError("mp barrier timed out")
            await asyncio.sleep(0.001)

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
        """Stop the children, then close what the loop opened on their
        pipes: nothing is left for the collector to warn about."""
        await self._start_backend_io()  # a never-driven runtime has raw sockets
        stop = _pack(_control_blob("shutdown", None))
        for writer in self._writers.values():
            writer.write(stop)  # to a dead child: dropped by the transport
        # a reader ends when its child has exited, and reads on until
        # then: a child blocked on an unread reply never sees the frame
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


class _ForwardingZk:
    """A child-local Zookeeper whose writes are mirrored to the parent.

    Reads are served locally (the child only reads back its own
    writes); every ``set``/``delete`` also crosses the pipe as a
    control frame so parent-side images and gauges see worker state."""

    name = "zookeeper"

    def __init__(self, clock, sock: socket.socket):
        from ..cluster.zookeeper import Zookeeper

        self._local = Zookeeper(clock)
        self._sock = sock

    def set(self, path: str, data) -> int:
        ver = self._local.set(path, data)
        self._sock.sendall(_pack(_control_blob("zk_set", ("set", path, data))))
        return ver

    def set_ephemeral(self, path: str, data, ttl: float) -> int:
        return self.set(path, data)  # ttl semantics unused in mp v1

    def get(self, path: str):
        return self._local.get(path)

    def delete(self, path: str) -> bool:
        ok = self._local.delete(path)
        self._sock.sendall(
            _pack(_control_blob("zk_set", ("delete", path, None)))
        )
        return ok

    def watch(self, prefix: str, callback) -> None:
        self._local.watch(prefix, callback)

    def __getattr__(self, item):
        return getattr(self._local, item)


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
    from ..cluster.transport import Message
    from ..cluster.worker import Worker
    from ..olap.colframe import decode_batch

    clock = WallClock(time_scale)
    clock.start()
    transport = _ChildTransport(clock, sock)
    zk = _ForwardingZk(clock, sock)
    worker = Worker(
        worker_id, clock, transport, zk, schema,
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
            break
        blob = _recv_exact(sock, _LEN.unpack(head)[0])
        if blob is None:
            break
        if blob[:1] == bytes([_CONTROL]):
            kind, payload = pickle.loads(blob[1:])
            if kind == "shutdown":
                break
            if kind == "install_shard":
                sid, batch_blob = payload
                store = store_cls.from_batch(
                    schema, decode_batch(batch_blob), tree_config
                )
                worker.install_shard(sid, store)
            elif kind == "barrier":
                clock.fire_due()  # drain completions before reporting
                stats = {
                    "items": worker.total_items(),
                    "shards": {
                        sid: len(s) for sid, s in worker.shards.items()
                    },
                    "dedup_hits": worker.dedup_hits,
                    "inserts_done": worker.inserts_done,
                    "queries_done": worker.queries_done,
                    "cpu_time": time.process_time(),
                }
                sock.sendall(
                    _pack(_control_blob("barrier_ack", (payload, stats)))
                )
            continue
        kind, msg_payload, _route = frames.decode(blob, resolve)
        worker.receive(Message(kind, msg_payload))
        clock.fire_due()  # pool completions emit the reply frames
    try:
        sock.close()
    except OSError:
        pass
