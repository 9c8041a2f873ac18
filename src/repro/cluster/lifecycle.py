"""Shard-operation lifecycle: one state machine for every reorganisation.

The paper's load balancer (Section III-E) keeps the system serving
inserts and queries *while* shards split, migrate, and restore.  Doing
that safely means a lot of bookkeeping -- which shard is busy, which op
owns it, when to give up, what to unwind -- and before this module that
bookkeeping was spread over parallel dicts and ad-hoc timer closures in
the manager.  Here it is one explicit machine:

::

    PLANNED --> TRANSFERRING --> INSTALLING --> CUTOVER --> DONE
        \\            |               |             |
         \\           v               v             v
          +------> ABORTED  /  TIMED_OUT  (terminal failures)

* ``PLANNED``: the op was admitted (shard not busy, in-flight budget
  available), its give-up timer is armed and its ``manager.<kind>``
  obs span is open.
* ``TRANSFERRING``: the request message left the manager; the owning
  worker is splitting / serializing / streaming the shard while its
  insertion queue absorbs new items.
* ``INSTALLING`` / ``CUTOVER``: worker-side phases (deserialize at the
  destination; mapping-table / Zookeeper update and queue hand-off) --
  tracked by :class:`~repro.cluster.transfer.ShardTransfer` and surfaced
  here so both sides speak the same state names.
* ``DONE`` / ``ABORTED`` / ``TIMED_OUT``: terminal.  ``ABORTED`` covers
  explicit failure acks (``split_failed`` / ``migrate_failed``);
  ``TIMED_OUT`` is the give-up timer, which also triggers the unwind
  side effects (``migrate_abort`` to the frozen source, restore
  re-issue) through the machine's ``on_timeout`` hook.

The machine owns epochs, timeouts, kind-matched completion (a stale
``split_done`` can never release a shard that is busy with a restore),
three separate in-flight budgets (``max_inflight`` for
splits+migrations, ``max_inflight_restores`` for failover restores and
replica promotions, ``max_inflight_replications`` for replica
placement), span open/close, and
per-transition counters (``volap_lifecycle_transitions_total``).
Everything is deterministic and driven by the simulation clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = [
    "PLANNED",
    "TRANSFERRING",
    "INSTALLING",
    "CUTOVER",
    "DONE",
    "ABORTED",
    "TIMED_OUT",
    "TERMINAL_STATES",
    "OP_KINDS",
    "ShardOp",
    "ShardOpMachine",
]

#: lifecycle states (module constants, not an Enum, so they compare and
#: serialize as plain strings on the wire and in metrics labels)
PLANNED = "planned"
TRANSFERRING = "transferring"
INSTALLING = "installing"
CUTOVER = "cutover"
DONE = "done"
ABORTED = "aborted"
TIMED_OUT = "timed_out"

TERMINAL_STATES = frozenset({DONE, ABORTED, TIMED_OUT})

#: legal transitions (documented in docs/protocols.md); anything else
#: is a programming error and raises
_TRANSITIONS = {
    PLANNED: {TRANSFERRING, ABORTED, TIMED_OUT},
    TRANSFERRING: {INSTALLING, CUTOVER, DONE, ABORTED, TIMED_OUT},
    INSTALLING: {CUTOVER, DONE, ABORTED, TIMED_OUT},
    CUTOVER: {DONE, ABORTED, TIMED_OUT},
}

#: which budget each op kind draws from.  Replica placement
#: ("replicate") has its own pool so seeding K replicas per shard never
#: starves splits or failover restores; promotion ("promote") shares the
#: restore pool because both are the failover path -- a mass failure
#: must not run more heal operations at once than the restore budget
#: allows, whichever mechanism each shard uses.
_BUDGET = {
    "split": "balance",
    "migrate": "balance",
    "restore": "restore",
    "replicate": "replica",
    "promote": "restore",
    # residency ops (spill / rehydrate) get their own pool: memory
    # pressure relief must never be starved by -- or starve -- balance
    # migrations or failover restores
    "spill": "residency",
    "rehydrate": "residency",
}

#: the seven shard-op kinds; each is requested by a ``<kind>_shard``
#: message and answered by ``<kind>_done`` / ``<kind>_failed``
OP_KINDS = tuple(_BUDGET)


@dataclass
class ShardOp:
    """One in-flight shard reorganisation (split / migrate / restore)."""

    kind: str
    shard_id: int
    epoch: int
    started_at: float
    state: str = PLANNED
    #: source worker id (migrations: where the frozen shard lives)
    src: Optional[int] = None
    #: destination worker id (migrations / restores)
    dst: Optional[int] = None
    #: open ``manager.<kind>`` obs span, or ``None`` when tracing is off
    span: object = None
    #: (virtual time, state) rows, ``PLANNED`` first
    history: list = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


class ShardOpMachine:
    """Owns every in-flight shard op for one manager.

    The manager *decides* (policy) and *speaks the protocol* (messages);
    this machine tracks everything in between: admission against the
    per-kind budgets, the one-op-per-shard busy invariant, the give-up
    timer, kind-matched release, and obs span lifecycles.
    """

    def __init__(
        self,
        clock,
        transport,
        registry=None,
        entity_name: str = "manager",
    ):
        self.clock = clock
        self.transport = transport
        #: MetricsRegistry fed ``volap_lifecycle_transitions_total``
        #: rows; ``None`` disables the counters
        self.registry = registry
        self.entity_name = entity_name
        #: shard id -> its single active op (the busy map)
        self.ops: dict[int, ShardOp] = {}
        #: in-flight budgets, set by the owner (manager) from its policy
        self.max_inflight = 4
        self.max_inflight_restores = 8
        self.max_inflight_replications = 8
        self.max_inflight_residency = 8
        #: give-up timer duration (virtual seconds)
        self.op_timeout = 10.0
        #: called with the op after a timeout is recorded, for protocol
        #: side effects (abort message, restore re-issue)
        self.on_timeout: Optional[Callable[[ShardOp], None]] = None
        self._epoch = 0
        self._inflight = {
            "balance": 0, "restore": 0, "replica": 0, "residency": 0,
        }
        self.started = dict.fromkeys(OP_KINDS, 0)
        self.timed_out = 0
        #: every op ever admitted, in admission order (terminal ops
        #: stay here for the invariant tests; the busy map does not)
        self.log: list[ShardOp] = []

    # -- introspection -----------------------------------------------------

    def busy(self, shard_id: int) -> bool:
        return shard_id in self.ops

    def active(self, shard_id: int) -> Optional[ShardOp]:
        return self.ops.get(shard_id)

    def busy_shards(self) -> frozenset:
        return frozenset(self.ops)

    @property
    def balance_inflight(self) -> int:
        """Splits + migrations currently in flight."""
        return self._inflight["balance"]

    @property
    def restore_inflight(self) -> int:
        return self._inflight["restore"]

    @property
    def replica_inflight(self) -> int:
        return self._inflight["replica"]

    @property
    def residency_inflight(self) -> int:
        """Spills + rehydrates currently in flight."""
        return self._inflight["residency"]

    def quiescent(self) -> bool:
        return not self.ops

    # -- admission ---------------------------------------------------------

    def admit(
        self,
        kind: str,
        shard_id: int,
        src: Optional[int] = None,
        dst: Optional[int] = None,
    ) -> Optional[ShardOp]:
        """Open an op: busy check, budget check, timer, span.

        Returns ``None`` (and changes nothing) when the shard already
        has an active op or the kind's in-flight budget is exhausted.
        The caller sends the protocol message and should then call
        :meth:`dispatched`.
        """
        if shard_id in self.ops:
            return None
        pool = _BUDGET[kind]
        limit = {
            "balance": self.max_inflight,
            "restore": self.max_inflight_restores,
            "replica": self.max_inflight_replications,
            "residency": self.max_inflight_residency,
        }[pool]
        if self._inflight[pool] >= limit:
            return None
        self._epoch += 1
        op = ShardOp(
            kind=kind,
            shard_id=shard_id,
            epoch=self._epoch,
            started_at=self.clock.now,
            src=src,
            dst=dst,
        )
        self.ops[shard_id] = op
        self._record(op, PLANNED)
        # the give-up timer is armed before any message is sent, exactly
        # as the old inline closures did (scheduling order matters for
        # deterministic replays)
        self.clock.after(self.op_timeout, lambda: self._fire_timeout(op))
        self._inflight[pool] += 1
        self.started[kind] += 1
        if self.transport.obs is not None:
            op.span = self.transport.obs.start_span(
                f"manager.{kind}", self.entity_name, shard=shard_id
            )
        return op

    def dispatched(self, shard_id: int) -> None:
        """The request message left the manager -> ``TRANSFERRING``."""
        op = self.ops.get(shard_id)
        if op is not None and op.state == PLANNED:
            self._transition(op, TRANSFERRING)

    def advance(self, shard_id: int, state: str) -> None:
        """Record a worker-reported intermediate phase (``INSTALLING``
        or ``CUTOVER``) on the active op; no-op if none is active."""
        op = self.ops.get(shard_id)
        if op is not None and state in _TRANSITIONS.get(op.state, ()):
            self._transition(op, state)

    # -- completion --------------------------------------------------------

    def complete(
        self, shard_id: int, kind: str, ok: bool = True, **span_tags
    ) -> bool:
        """Kind-matched release of the shard's active op.

        Returns ``True`` iff an op of exactly ``kind`` was active: a
        stale or duplicated ``*_done`` whose op already timed out -- or
        whose shard is now busy with a *different* kind of op -- is
        ignored, releasing nothing and closing no span.
        """
        op = self.ops.get(shard_id)
        if op is None or op.kind != kind:
            return False
        del self.ops[shard_id]
        self._inflight[_BUDGET[kind]] -= 1
        self._transition(op, DONE if ok else ABORTED)
        if op.span is not None and self.transport.obs is not None:
            self.transport.obs.finish_span(op.span, ok=ok, **span_tags)
        return True

    def _fire_timeout(self, op: ShardOp) -> None:
        if self.ops.get(op.shard_id) is not op:
            return  # completed (or superseded) in time
        del self.ops[op.shard_id]
        self._transition(op, TIMED_OUT)
        if op.span is not None and self.transport.obs is not None:
            self.transport.obs.finish_span(op.span, ok=False, timeout=True)
        self.timed_out += 1
        self._inflight[_BUDGET[op.kind]] -= 1
        if self.on_timeout is not None:
            self.on_timeout(op)

    # -- transition recording ----------------------------------------------

    def _record(self, op: ShardOp, state: str) -> None:
        op.state = state
        op.history.append((self.clock.now, state))
        if state == PLANNED:
            self.log.append(op)
        if self.registry is not None:
            self.registry.counter(
                "volap_lifecycle_transitions_total", kind=op.kind, state=state
            ).inc()

    def _transition(self, op: ShardOp, state: str) -> None:
        allowed = _TRANSITIONS.get(op.state, frozenset())
        if state not in allowed:
            raise ValueError(
                f"illegal lifecycle transition {op.state!r} -> {state!r} "
                f"for {op.kind} of shard {op.shard_id}"
            )
        self._record(op, state)
