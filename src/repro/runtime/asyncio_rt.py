"""Wall-clock runtime: every entity in one process, on one timer heap.

The entities are unchanged -- they still call ``clock.after`` and
``transport.send`` -- but here the clock is real (scaled) time.  A
delivery is what it is on the sim, a timer on the one heap
(:meth:`Transport.deliver <repro.cluster.transport.Transport.deliver>`),
and :meth:`AsyncioRuntime.drive` is the one loop that fires it: the
handler runs inside ``fire_due``.  Between two turns the loop waits
until the next deadline -- in ``time.sleep`` here, in a ``select`` on
the worker pipes on ``mp`` -- so both sides of a pipe run the same
loop model, a timer heap plus a wait.  No asyncio event loop is
involved; the backend keeps the name ``asyncio`` because the benchmark
and CI select it by that name.  Real index work happens inline in
the handlers (the :class:`ImmediatePool` fires completions on the next
tick instead of charging modeled service time), so throughput measured
on this backend is the hardware's, not the model's.

``time_scale`` maps model seconds to real seconds: periodic timers
(heartbeats, zk sync, stats) and retry timeouts defined in model
seconds run ``time_scale`` times compressed, which is how the chaos
suite finishes in CI wall-clock budgets.  Latency-model delays ride
the same scaling.  Nothing is encoded on this backend: a handler is
given the objects the sender built (the column-frame wire format of
:mod:`repro.runtime.frames` only runs on ``mp``).
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from ..cluster.simclock import Timer, TimerQueue
from ..cluster.transport import Transport
from .base import Runtime

__all__ = ["WallClock", "ImmediatePool", "AsyncioRuntime"]

#: default hard real-time cap for one drive() call, seconds
DRIVE_REAL_LIMIT = 300.0
#: longest real sleep of the drive loop, seconds: how often a predicate
#: that watches wall time (the benchmark's window end and host-speed
#: probe) is read again while no timer is due
PRED_POLL = 0.05


class WallClock(TimerQueue):
    """Model time backed by the monotonic clock, paused between drives.

    Model ``now`` advances only while the runtime is driving (mirroring
    the sim, where time stands still between ``run_until`` calls), at
    ``1 / time_scale`` model seconds per real second.  Timers live in
    the :class:`~repro.cluster.simclock.TimerQueue` this shares with
    :class:`~repro.cluster.simclock.SimClock` -- earliest deadline, FIFO
    among equals, cancelled entries skipped and reclaimed -- and the
    drive loop fires the due ones.
    """

    def __init__(self, time_scale: float = 1.0):
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        super().__init__()
        self.time_scale = time_scale
        self._frozen = 0.0
        self._anchor: Optional[float] = None  # real time when running

    # -- model time --------------------------------------------------------

    @property
    def now(self) -> float:
        if self._anchor is None:
            return self._frozen
        return self._frozen + (time.monotonic() - self._anchor) / self.time_scale

    def start(self) -> None:
        if self._anchor is None:
            self._anchor = time.monotonic()

    def stop(self) -> None:
        if self._anchor is not None:
            self._frozen = self.now
            self._anchor = None

    # -- scheduling (the entity-facing facade) -----------------------------

    def at(self, when: float, fn: Callable[[], None]) -> Timer:
        # unlike the sim, "the past" can happen by a few real
        # microseconds between computing a deadline and scheduling it;
        # clamp instead of raising
        return super().at(max(when, self.now), fn)

    def make_pool(self, threads: int) -> "ImmediatePool":
        return ImmediatePool(self, threads)

    # -- drive-loop internals ----------------------------------------------

    def fire_due(self) -> int:
        """Run the timers that are due now; returns the count.

        Only those due when the call began: message handlers run in
        here, and a closed loop always has one more due by the time the
        last returns, so a round that chased them would never get back
        to the drive loop's predicate and limits."""
        now = self.now
        fired = 0
        while True:
            when = self.next_deadline()
            if when is None or when > now:
                return fired
            self._fire_next()
            fired += 1


class ImmediatePool:
    """The wall-clock stand-in for :class:`ServicePool`.

    On a real runtime the index work has already burned real CPU inline
    in the handler, so ``submit`` fires the completion on the next tick
    instead of delaying by the modeled service time.  The modeled
    ``busy_time`` is still accumulated -- it is what utilization gauges
    and cost-driven balancing read, and keeping it comparable across
    backends is exactly the sim-vs-real calibration hook.
    """

    def __init__(self, clock: WallClock, threads: int):
        if threads < 1:
            raise ValueError("need at least one thread")
        self.clock = clock
        self.threads = threads
        self.busy_time = 0.0
        self.jobs = 0

    def submit(self, service_time: float, done: Callable[[], None]) -> float:
        if service_time < 0:
            raise ValueError("negative service time")
        self.busy_time += service_time
        self.jobs += 1
        self.clock.after(0.0, done)
        return self.clock.now

    def utilization(self, horizon: float) -> float:
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time / (horizon * self.threads))

    @property
    def backlog(self) -> float:
        return 0.0  # completions never queue behind modeled service time


class AsyncioRuntime(Runtime):
    # the name the benchmark, CI and $VOLAP_RUNTIME select this backend by
    kind = "asyncio"

    def __init__(self, latency=None, seed: int = 0, time_scale: float = 1.0):
        super().__init__()
        self.clock = WallClock(time_scale)
        self.transport = Transport(self.clock, latency, seed)

    # -- drive -------------------------------------------------------------

    def drive(
        self,
        pred: Callable[[], bool],
        *,
        horizon: Optional[float] = None,
        desc: str = "drive",
        idle_break: bool = True,
        stop_at: Optional[float] = None,
        real_limit: float = DRIVE_REAL_LIMIT,
    ) -> None:
        clock = self.clock
        deadline_real = time.monotonic() + real_limit
        clock.start()
        try:
            while True:
                try:
                    fired = clock.fire_due()
                except Exception as exc:  # the timers behind it stay queued
                    raise RuntimeError(
                        f"{desc}: entity handler failed on the "
                        f"{self.kind} runtime"
                    ) from exc
                if pred():
                    return
                now = clock.now
                if horizon is not None and now > horizon:
                    raise RuntimeError(f"{desc} did not finish before horizon")
                if stop_at is not None and now >= stop_at:
                    return
                if time.monotonic() > deadline_real:
                    raise RuntimeError(
                        f"{desc}: exceeded {real_limit:.0f}s real-time limit "
                        f"on the {self.kind} runtime"
                    )
                if fired:
                    self._wait(0.0)  # mp: read and write the pipes, then go on
                    continue
                wait = PRED_POLL
                nd = clock.next_deadline()
                if nd is not None:
                    wait = min(wait, (nd - now) * clock.time_scale)
                elif idle_break and self._inflight() == 0:
                    return  # the wall-clock analog of "heap empty"
                if stop_at is not None:
                    wait = min(wait, (stop_at - now) * clock.time_scale)
                self._wait(max(wait, 0.0))
        finally:
            clock.stop()

    def run_until(self, t: float) -> None:
        if t <= self.clock.now:
            return
        self.drive(
            lambda: False, idle_break=False, stop_at=t, desc=f"run_until({t})"
        )

    # -- backend hooks -----------------------------------------------------

    def _wait(self, seconds: float) -> None:
        """Let ``seconds`` of real time pass between two turns of the
        drive loop; mp waits on its worker pipes instead."""
        if seconds > 0:  # sleep(0) is a syscall and a timer-slack nap
            time.sleep(seconds)

    def _inflight(self) -> int:
        """Requests out at worker processes, which an idle break must
        wait for; mp overrides this.  None here."""
        return 0
