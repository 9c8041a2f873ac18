"""Asynchronous message transport (the ZeroMQ stand-in).

Models what matters to the experiments: delivery latency (base network
round-trip contribution plus bandwidth-proportional cost for large
payloads such as serialised shards) with optional jitter.  Delivery
order between a pair of entities follows scheduled delivery times, as
with ZeroMQ over TCP when messages are comparably sized.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .simclock import SimClock

__all__ = ["LatencyModel", "Message", "Transport", "Entity"]


@dataclass(frozen=True)
class LatencyModel:
    """Per-message delay: ``base + size/bandwidth + U(0, jitter)``.

    Defaults approximate same-AZ EC2: ~200 microseconds one-way, 10
    Gbit/s effective bandwidth.
    """

    base: float = 200e-6
    bandwidth: float = 1.25e9  # bytes/second (10 Gbit/s)
    jitter: float = 50e-6

    def delay(self, size: int, rng: np.random.Generator) -> float:
        d = self.base + size / self.bandwidth
        if self.jitter > 0:
            d += float(rng.uniform(0.0, self.jitter))
        return d


@dataclass
class Message:
    """An envelope routed between entities."""

    kind: str
    payload: Any = None
    sender: Optional["Entity"] = None
    #: wire size in bytes, set by :meth:`Transport.send` from the
    #: payload's declaration (:func:`repro.runtime.frames.wire_size`)
    size: Optional[int] = None
    #: optional SpanContext (see obs/spans.py) so the receiver can
    #: parent its span under the sender's; ``None`` when tracing is off
    ctx: Any = None

    def clone(self) -> "Message":
        """A defensive copy for fault-duplicated deliveries.

        The payload is deep-copied so a receiver mutating the first
        delivery cannot corrupt the duplicate, while :class:`Entity`
        references inside the payload (reply-to handles, sinks) pass
        through by identity -- a duplicate must still route its reply
        to the *same* entity, not a ghost copy of it.
        """
        return Message(
            self.kind,
            copy.deepcopy(self.payload),
            sender=self.sender,
            size=self.size,
            ctx=self.ctx,
        )


class Entity:
    """Anything that can receive messages in the simulation."""

    name: str = "entity"

    def receive(self, msg: Message) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def __deepcopy__(self, memo: dict) -> "Entity":
        # entities are identities, not values: deep-copying a message
        # payload must never fork a live worker/server/client
        return self


#: :mod:`repro.runtime.frames`, imported by the first sizing: the frames
#: codec sits above this module in the layering
_frames = None


def _wire_size(msg: Message, dst: Entity) -> int:
    """Actual serialized frame length of ``msg``, by
    :func:`repro.runtime.frames.wire_size` (looked up on its module at
    each call, so a wrapper set on it there is the one called)."""
    global _frames
    if _frames is None:
        from ..runtime import frames

        _frames = frames
    return _frames.wire_size(msg.kind, msg.payload, getattr(dst, "name", "") or "")


class Transport:
    """Delivers messages between entities with simulated latency."""

    def __init__(
        self,
        clock: SimClock,
        latency: Optional[LatencyModel] = None,
        seed: int = 0,
    ):
        self.clock = clock
        self.latency = latency if latency is not None else LatencyModel()
        self.rng = np.random.default_rng(seed)
        self.messages_sent = 0
        self.bytes_sent = 0
        #: optional FaultInjector (see faults.py); ``None`` keeps the
        #: delivery path byte-identical to the fault-free transport
        self.faults = None
        #: optional Observability facade (see obs/); ``None`` keeps the
        #: send path byte-identical to the uninstrumented transport
        self.obs = None

    def send(self, dst: Entity, msg: Message) -> None:
        """Schedule delivery of ``msg`` to ``dst``."""
        if msg.size is None:
            msg.size = _wire_size(msg, dst)
        self.messages_sent += 1
        self.bytes_sent += msg.size
        if self.obs is not None:
            self.obs.on_message(msg)
        delay = self.latency.delay(msg.size, self.rng)
        if self.faults is not None:
            for i, extra in enumerate(self.faults.plan_delivery(msg, dst)):
                # the first copy delivers the original; every duplicate
                # gets a defensive clone so a receiver mutating one
                # delivery cannot corrupt the others
                delivered = msg if i == 0 else msg.clone()
                self.deliver(dst, delivered, delay + extra)
            return
        self.deliver(dst, msg, delay)

    def send_local(self, dst: Entity, msg: Message) -> None:
        """Same-process delivery (inter-thread ZeroMQ): negligible delay."""
        if msg.size is None:
            msg.size = _wire_size(msg, dst)
        self.messages_sent += 1
        self.bytes_sent += msg.size
        if self.obs is not None:
            self.obs.on_message(msg)
        self.deliver(dst, msg, 1e-6)

    def deliver(self, dst: Entity, msg: Message, delay: float) -> None:
        """Hand ``msg`` to ``dst`` after ``delay``: a callback on the
        clock, whichever clock that is.  No runtime overrides this; a
        message leaves the process where its destination does, in
        ``WorkerProxy.receive`` on ``mp``, and a frame read back from a
        child comes in through here."""
        self.clock.after(delay, lambda: dst.receive(msg))
