"""Execution runtimes: one entity code path, three clocks.

The cluster entities (client, server, worker, manager, zookeeper) are
non-blocking callback state machines that touch the outside world only
through the clock facade (``now``/``at``/``after``/``every``/
``make_pool``) and the transport facade (``send``/``send_local``).
A :class:`Runtime` bundles one implementation of each plus an entity
registry and the drive loop:

``sim``
    The discrete-event simulation (virtual time, modeled service
    times).  Bit-identical to the pre-runtime code path.
``asyncio``
    Wall-clock execution of every entity in one process; timers are
    real (scaled) delays and a message hop is one of them, handing over
    the payload objects themselves.  The drive loop fires what is due
    and sleeps until the next deadline; no asyncio event loop runs (the
    name is the one the benchmark and CI select the backend by).
``mp``
    The same drive loop plus one OS process per worker, whose wait is
    a ``select`` on the worker pipes, as each child's is.  Every frame on
    a worker pipe -- the data plane, bootstrap shards and the barrier --
    is a payload declaration of :mod:`repro.cluster.wire` whose array
    fields cross as colframe column buffers, encoded and decoded by the
    one generic codec in :mod:`repro.runtime.frames` with zero
    pickling.  A barrier is a request and reply like any other, and a
    child exits when its pipe reaches EOF.

See docs/runtime.md for the seam diagram and modeling scope.
"""

from .base import Runtime, make_runtime

__all__ = ["Runtime", "make_runtime"]
