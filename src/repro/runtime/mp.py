"""Multiprocess runtime: one OS process per worker, one frame format.

The parent process runs servers, clients, manager, Zookeeper and the
drive loop; each worker is forked into its own process hosting the
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

Both ends of a pipe run the same loop model, a timer heap plus a wait
in ``select``.  The parent's socket is non-blocking: a frame for a
child is queued on that pipe and sent as far as the pipe takes it, and
the drive loop's wait (:meth:`MPRuntime._wait`) polls every pipe, sends
the rest once there is room and reads what a child wrote.  A frame read
from a child is delivered as a message is anywhere else, by a timer on
the parent's clock.  The child keeps a blocking socket and waits in
``select`` for the next frame or its own clock's next deadline,
whichever is first; both ends cut frames with :func:`_cut_frames`.  A
child whose pipe closes while the runtime is open is an error
:meth:`MPRuntime.drive` and :meth:`MPRuntime.barrier` raise, not a
silence.

v1 scope (documented in docs/runtime.md): children run ingest and
query serving only -- no heartbeats/failover, no replication, no
migration or split, no rollup tier, no obs spans.  A child's Zookeeper
is its own, read by nobody else: the parent publishes each shard when
it installs it.  The cluster facade disables the manager's scan loop on
this backend accordingly.
"""

from __future__ import annotations

import select
import selectors
import socket
import struct
import time
from multiprocessing import get_context

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
#: most bytes one ``recv`` takes off a pipe
_CHUNK = 1 << 16


def _pack(blob: bytes) -> bytes:
    return _LEN.pack(len(blob)) + blob


def _cut_frames(buf: bytearray) -> list[bytes]:
    """Remove the whole frames at the head of ``buf`` and return their
    bodies; a frame not yet read in full stays behind."""
    bodies, at = [], 0
    while len(buf) - at >= _LEN.size:
        end = at + _LEN.size + _LEN.unpack_from(buf, at)[0]
        if end > len(buf):
            break
        bodies.append(bytes(buf[at + _LEN.size : end]))
        at = end
    del buf[:at]
    return bodies


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

    def __init__(self, runtime: "MPRuntime", worker_id: int, zk, sock: socket.socket):
        self.worker_id = worker_id
        self.name = f"worker-{worker_id}"
        self._rt = runtime
        self._zk = zk
        #: the parent's end of the child's pipe (non-blocking), the bytes
        #: queued for the child, the part of a frame read from it so far,
        #: and what the runtime's selector watches the socket for
        self.sock = sock
        self.out = bytearray()
        self.inp = bytearray()
        self.events = selectors.EVENT_READ
        #: requests written minus replies read back; the runtime's idle
        #: detector sums this across proxies
        self.inflight = 0
        #: mirror of the child's counters: ``install_shard`` adds to it,
        #: and every ``barrier_ack`` replaces it
        self.stats = {"items": 0, "shards": {}, "dedup_hits": 0, "cpu_time": 0.0}
        #: the last barrier the child acked
        self.barrier_token = 0

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
        self._sel = selectors.DefaultSelector()
        self._procs: dict[int, object] = {}
        self._proxies: dict[int, WorkerProxy] = {}
        self._barrier_token = 0
        self._closed = False

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
        parent_sock.setblocking(False)
        self._procs[worker_id] = proc
        proxy = self._proxies[worker_id] = WorkerProxy(self, worker_id, zk, parent_sock)
        self._sel.register(parent_sock, proxy.events, proxy)
        self.register(proxy)
        return proxy

    # -- the pipes ----------------------------------------------------------

    def proxy_write(self, proxy: WorkerProxy, blob: bytes) -> None:
        """Queue a frame for a child and send what its pipe takes now;
        the drive loop's wait sends the rest as the child reads."""
        proxy.out += _pack(blob)
        self._flush(proxy)

    def _flush(self, proxy: WorkerProxy) -> None:
        """Send what the pipe takes now, half-close it once empty after
        :meth:`close`, and watch it for room only while bytes remain."""
        try:
            del proxy.out[: proxy.sock.send(proxy.out)]
        except BlockingIOError:
            pass  # the pipe is full: the child has not read yet
        except ConnectionError:
            proxy.out.clear()  # a dead child; the EOF on its read side says so
        if self._closed and not proxy.out:
            proxy.sock.shutdown(socket.SHUT_WR)  # the child exits on EOF
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if proxy.out else 0)
        if events != proxy.events:
            proxy.events = events
            self._sel.modify(proxy.sock, events, proxy)

    def _wait(self, seconds: float) -> None:
        """Wait up to ``seconds`` for a worker pipe to be readable, or
        writable while frames are queued for it, and serve what is."""
        for key, events in self._sel.select(seconds):
            if events & selectors.EVENT_WRITE:
                self._flush(key.data)
            if events & selectors.EVENT_READ:
                self._read(key.data)

    def _read(self, proxy: WorkerProxy) -> None:
        """Deliver every whole frame the child has sent, as a message is
        delivered anywhere else: by a timer on the parent's clock."""
        try:
            chunk = proxy.sock.recv(_CHUNK)
        except BlockingIOError:
            return
        except ConnectionError:
            chunk = b""  # reset by a child that died with bytes unread
        if not chunk:
            if self._closed:  # the exit close() asked for
                self._sel.unregister(proxy.sock)
                return
            proc = self._procs[proxy.worker_id]
            proc.join(timeout=1.0)  # the pipe closes just before the exit
            raise RuntimeError(
                f"{proxy.name} (pid {proc.pid}) exited with code "
                f"{proc.exitcode} and {proxy.inflight} requests in flight "
                f"on the mp runtime"
            )
        proxy.inp += chunk
        for blob in _cut_frames(proxy.inp):
            kind, payload, route = frames.decode(blob, self.lookup)
            if kind in frames.REPLY_KINDS:
                proxy.inflight -= 1
            self.transport.deliver(self.lookup(route), Message(kind, payload), 0.0)

    # -- idle/sync ----------------------------------------------------------

    def _inflight(self) -> int:
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
        """Write out what is queued and half-close each pipe once its
        buffer is empty -- a child exits on EOF -- reading on until
        every child has hung up (a child blocked on an unread reply
        never sees the EOF), then reap the children."""
        if self._closed:
            return
        self._closed = True  # from here a child's EOF is no error
        for proxy in self._proxies.values():
            self._flush(proxy)
        give_up = time.monotonic() + 5.0
        while self._sel.get_map() and time.monotonic() < give_up:
            self._wait(max(give_up - time.monotonic(), 0.0))
        for proc in self._procs.values():
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.terminate()
                proc.join()
        for proxy in self._proxies.values():
            proxy.sock.close()
        self._sel.close()


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
    """Host one real Worker: a local wall clock and a ``select`` loop.

    The loop is the parent's in small: fire what is due, then wait in
    ``select`` for the pipe or the clock's next deadline, whichever is
    first, and cut the frames read with the parent's helper.  The
    socket stays blocking, so a reply waits in ``sendall`` for the
    parent to read for as long as that takes."""
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

    buf = bytearray()
    while True:
        clock.fire_due()
        nd = clock.next_deadline()
        timeout = None if nd is None else max(0.0, (nd - clock.now) * time_scale)
        if not select.select([sock], [], [], timeout)[0]:
            continue  # a timer came due first
        chunk = sock.recv(_CHUNK)
        if not chunk:
            break  # EOF: the parent half-closed the pipe, or died
        buf += chunk
        for blob in _cut_frames(buf):
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
