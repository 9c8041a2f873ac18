"""Tests for the discrete-event kernel."""

import pytest

from repro.cluster.simclock import ServicePool, SimClock

from .conftest import timer_program


class TestSimClock:
    def test_events_run_in_time_order(self):
        clock = SimClock()
        log = []
        clock.at(2.0, lambda: log.append("b"))
        clock.at(1.0, lambda: log.append("a"))
        clock.at(3.0, lambda: log.append("c"))
        clock.run()
        assert log == ["a", "b", "c"]
        assert clock.now == 3.0

    def test_fifo_for_simultaneous_events(self):
        clock = SimClock()
        log = []
        for i in range(5):
            clock.at(1.0, lambda i=i: log.append(i))
        clock.run()
        assert log == [0, 1, 2, 3, 4]

    def test_after_relative(self):
        clock = SimClock()
        out = []
        clock.after(0.5, lambda: out.append(clock.now))
        clock.run()
        assert out == [0.5]

    def test_cannot_schedule_past(self):
        clock = SimClock()
        clock.at(1.0, lambda: None)
        clock.run()
        with pytest.raises(ValueError):
            clock.at(0.5, lambda: None)
        with pytest.raises(ValueError):
            clock.after(-1, lambda: None)

    def test_run_until_stops(self):
        clock = SimClock()
        log = []
        clock.at(1.0, lambda: log.append(1))
        clock.at(2.0, lambda: log.append(2))
        clock.run_until(1.5)
        assert log == [1]
        assert clock.now == 1.5
        clock.run_until(3.0)
        assert log == [1, 2]

    def test_nested_scheduling(self):
        clock = SimClock()
        log = []

        def outer():
            log.append(("outer", clock.now))
            clock.after(1.0, lambda: log.append(("inner", clock.now)))

        clock.at(1.0, outer)
        clock.run()
        assert log == [("outer", 1.0), ("inner", 2.0)]

    def test_every_fires_periodically(self):
        clock = SimClock()
        ticks = []
        clock.every(1.0, lambda: ticks.append(clock.now), until=5.0)
        clock.run_until(10.0)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_every_rejects_bad_period(self):
        with pytest.raises(ValueError):
            SimClock().every(0, lambda: None)


class TestReclaim:
    """Cancelled timers are reclaimed; live ones fire as if they were not.
    (``tests/test_runtime_seam.py::TestTimers`` runs the part that does
    not need virtual time on the wall clock too.)"""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_order_as_a_clock_that_never_reclaims(self, seed):
        clock, ref = SimClock(), SimClock()
        ref._note_cancelled = lambda: None  # cancelled entries stay queued
        fired, queued = timer_program(clock, clock.run, seed, reschedule=True)
        want, ref_queued = timer_program(ref, ref.run, seed, reschedule=True)
        assert fired == want and len(fired) > 100
        assert queued < ref_queued == 500  # it did reclaim on the way
        assert clock.now == ref.now
        # a cancelled timer is not an event; the reference pops them too
        assert clock.events_processed == ref.events_processed == len(fired)

    def test_pending_counts_live_and_unreclaimed(self):
        clock = SimClock()
        timers = [clock.after(1.0 + i, lambda: None) for i in range(10)]
        for t in timers[:5]:
            t.cancel()
        assert clock.pending == 10  # cancelled do not outnumber live yet
        timers[5].cancel()
        assert clock.pending == 4
        clock.run()
        assert clock.events_processed == 4 and clock.pending == 0


class TestServicePool:
    def test_single_thread_serialises(self):
        clock = SimClock()
        pool = ServicePool(clock, 1)
        finishes = []
        clock.at(0.0, lambda: finishes.append(pool.submit(1.0, lambda: None)))
        clock.at(0.0, lambda: finishes.append(pool.submit(1.0, lambda: None)))
        clock.run()
        assert finishes == [1.0, 2.0]

    def test_parallel_threads(self):
        clock = SimClock()
        pool = ServicePool(clock, 4)
        finishes = []
        def submit_all():
            for _ in range(4):
                finishes.append(pool.submit(1.0, lambda: None))
        clock.at(0.0, submit_all)
        clock.run()
        assert finishes == [1.0] * 4

    def test_mgk_queueing(self):
        """5 unit jobs on 2 threads: last finishes at ceil(5/2) = 3."""
        clock = SimClock()
        pool = ServicePool(clock, 2)
        finishes = []
        def submit_all():
            for _ in range(5):
                finishes.append(pool.submit(1.0, lambda: None))
        clock.at(0.0, submit_all)
        clock.run()
        assert max(finishes) == 3.0

    def test_idle_gap_not_counted(self):
        clock = SimClock()
        pool = ServicePool(clock, 1)
        done = []
        clock.at(5.0, lambda: pool.submit(1.0, lambda: done.append(clock.now)))
        clock.run()
        assert done == [6.0]

    def test_utilization(self):
        clock = SimClock()
        pool = ServicePool(clock, 2)
        clock.at(0.0, lambda: pool.submit(1.0, lambda: None))
        clock.run()
        assert pool.utilization(1.0) == pytest.approx(0.5)

    def test_rejects_bad_args(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            ServicePool(clock, 0)
        pool = ServicePool(clock, 1)
        with pytest.raises(ValueError):
            pool.submit(-1.0, lambda: None)

    def test_backlog(self):
        clock = SimClock()
        pool = ServicePool(clock, 1)
        def submit():
            pool.submit(2.0, lambda: None)
            assert pool.backlog == pytest.approx(2.0)
        clock.at(0.0, submit)
        clock.run()
        assert pool.backlog == 0.0
