"""Discrete-event simulation kernel: virtual clock, events, service pools.

The paper's evaluation runs on 20+ EC2 nodes with multi-threaded C++
workers.  This reproduction executes the *same data-structure and
protocol code* inside a discrete-event simulation: every entity
(server, worker, Zookeeper, manager, client) handles events in virtual
time, real index operations run at their virtual timestamps (event
order == causal order), and their measured work counters are converted
into virtual service times.  See DESIGN.md section 2 for why this
substitution preserves the experiments' shapes.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional

__all__ = ["Timer", "TimerQueue", "SimClock", "ServicePool"]


class Timer:
    """A cancellable handle for a scheduled callback.

    Every clock implementation (sim or wall-clock, see
    :mod:`repro.runtime`) returns one of these from ``at``/``after``/
    ``every``; ``cancel()`` prevents any future firing.  Cancelled
    entries are skipped where they sit and reclaimed in bulk
    (:class:`TimerQueue`), so cancellation never perturbs the ordering
    of the remaining events.
    """

    __slots__ = ("when", "fn", "cancelled", "_queue")

    def __init__(self, when: float, fn: Callable[[], None]):
        self.when = when
        self.fn = fn
        self.cancelled = False
        #: the queue whose heap holds this timer; None before and after
        self._queue: Optional["TimerQueue"] = None

    def cancel(self) -> None:
        self.cancelled = True
        self.fn = None  # drop references early
        queue, self._queue = self._queue, None
        if queue is not None:  # still queued: not fired, not yet cancelled
            queue._note_cancelled()


class TimerQueue:
    """The scheduling half of a clock: push, skip cancelled, reclaim.

    A heap of ``(when, seq, Timer)``; ``(when, seq)`` is a total order,
    so neither skipping a cancelled entry nor rebuilding the heap
    without the cancelled ones can change the order live timers fire
    in.  Cancelled entries are dropped when they reach the head or,
    all at once, as soon as they outnumber the live ones: the heap
    never holds more than twice the live timers plus one.  The clocks
    (:class:`SimClock`, :class:`~repro.runtime.asyncio_rt.WallClock`)
    add what ``now`` means and when to fire.
    """

    now: float

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Timer]] = []
        self._seq = itertools.count()
        self._dead = 0  # cancelled entries still in the heap
        self._events_processed = 0

    def at(self, when: float, fn: Callable[[], None]) -> Timer:
        """Schedule ``fn`` to run at absolute model time ``when``."""
        timer = Timer(when, fn)
        timer._queue = self
        heapq.heappush(self._heap, (when, next(self._seq), timer))
        return timer

    def after(self, delay: float, fn: Callable[[], None]) -> Timer:
        """Schedule ``fn`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("negative delay")
        return self.at(self.now + delay, fn)

    def every(
        self,
        period: float,
        fn: Callable[[], None],
        *,
        start: Optional[float] = None,
        until: Optional[float] = None,
    ) -> Timer:
        """Run ``fn`` periodically (first firing at ``start`` or now+period)."""
        if period <= 0:
            raise ValueError("period must be positive")
        first = start if start is not None else self.now + period
        handle = Timer(first, None)

        def tick() -> None:
            if handle.cancelled:
                return
            if until is not None and self.now > until:
                return
            fn()
            handle.when = self.now + period
            self.at(handle.when, tick)

        handle.fn = tick
        self.at(max(first, self.now), tick)
        return handle

    def _note_cancelled(self) -> None:
        self._dead += 1
        if self._dead * 2 > len(self._heap):
            # in place: a firing callback may cancel while a loop reads us
            self._heap[:] = [e for e in self._heap if not e[2].cancelled]
            heapq.heapify(self._heap)
            self._dead = 0

    def next_deadline(self) -> Optional[float]:
        """When the earliest live timer is due; None when there is none."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._dead -= 1
        return heap[0][0] if heap else None

    def _fire_next(self) -> None:
        """Run the head, which :meth:`next_deadline` just showed live."""
        timer = heapq.heappop(self._heap)[2]
        timer._queue = None
        self._events_processed += 1
        timer.fn()

    @property
    def pending(self) -> int:
        """Entries in the heap: the live timers and the cancelled ones
        not yet reclaimed, which never outnumber them by more than one."""
        return len(self._heap)

    @property
    def events_processed(self) -> int:
        """Timers fired; a cancelled timer never counts."""
        return self._events_processed


class SimClock(TimerQueue):
    """A virtual clock: time jumps to each scheduled callback in turn."""

    def __init__(self) -> None:
        super().__init__()
        self.now: float = 0.0

    def at(self, when: float, fn: Callable[[], None]) -> Timer:
        if when < self.now:
            raise ValueError(f"cannot schedule in the past ({when} < {self.now})")
        return super().at(when, fn)

    def make_pool(self, threads: int) -> "ServicePool":
        """Build the service-station model matching this clock kind."""
        return ServicePool(self, threads)

    def step(self) -> bool:
        """Process one event; False when nothing is scheduled."""
        when = self.next_deadline()
        if when is None:
            return False
        self.now = when
        self._fire_next()
        return True

    def run_until(self, t: float, max_events: Optional[int] = None) -> None:
        """Process events up to virtual time ``t`` (inclusive)."""
        n = 0
        while True:
            when = self.next_deadline()
            if when is None or when > t:
                break
            self.now = when
            self._fire_next()
            n += 1
            if max_events is not None and n >= max_events:
                raise RuntimeError(
                    f"exceeded {max_events} events before reaching t={t}"
                )
        self.now = max(self.now, t)

    def run(self, max_events: int = 50_000_000) -> None:
        """Drain every scheduled event."""
        n = 0
        while self.step():
            n += 1
            if n >= max_events:
                raise RuntimeError(f"exceeded {max_events} events")


class ServicePool:
    """Models ``k`` worker threads executing jobs with given durations.

    Jobs submitted at virtual time ``t`` start on the thread that frees
    up earliest (``max(t, earliest_free)``) and complete after their
    service time -- an M/G/k service station.  This is how a multi-core
    node's thread pool is represented (paper Section III-A: workers and
    servers execute up to ``k`` parallel threads).
    """

    def __init__(self, clock: SimClock, threads: int):
        if threads < 1:
            raise ValueError("need at least one thread")
        self.clock = clock
        self.threads = threads
        self._free: list[float] = [0.0] * threads
        heapq.heapify(self._free)
        self.busy_time = 0.0
        self.jobs = 0

    def submit(
        self, service_time: float, done: Callable[[], None]
    ) -> float:
        """Enqueue a job; ``done`` fires at completion.  Returns finish time."""
        if service_time < 0:
            raise ValueError("negative service time")
        earliest = heapq.heappop(self._free)
        start = max(self.clock.now, earliest)
        finish = start + service_time
        heapq.heappush(self._free, finish)
        self.busy_time += service_time
        self.jobs += 1
        self.clock.at(finish, done)
        return finish

    def utilization(self, horizon: float) -> float:
        """Fraction of thread-time spent busy over ``horizon`` seconds."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time / (horizon * self.threads))

    @property
    def backlog(self) -> float:
        """Seconds until the most loaded thread frees up."""
        return max(0.0, max(self._free) - self.clock.now)
