"""The Runtime interface: clock + transport + entity registry + drive.

``make_runtime("sim" | "asyncio" | "mp")`` is the single construction
seam; :class:`~repro.cluster.cluster.VOLAPCluster` asks it for the
clock and transport its entities are wired to and never branches on
the backend again.
"""

from __future__ import annotations

from typing import Callable, Optional

__all__ = ["Runtime", "make_runtime", "RUNTIME_KINDS"]

RUNTIME_KINDS = ("sim", "asyncio", "mp")


class Runtime:
    """One execution backend: a clock, a transport, and a drive loop."""

    kind: str = "abstract"

    def __init__(self) -> None:
        #: name -> entity; how cross-process/stream frames resolve the
        #: reply-to and routing names they carry
        self.entities: dict[str, object] = {}
        self.clock = None
        self.transport = None

    # -- registry ----------------------------------------------------------

    def register(self, entity) -> None:
        """Record an entity under its ``name`` for route resolution."""
        name = getattr(entity, "name", None)
        if name:
            self.entities[name] = entity

    def lookup(self, name: str):
        entity = self.entities.get(name)
        if entity is None:
            raise KeyError(f"no entity registered as {name!r}")
        return entity

    # -- drive -------------------------------------------------------------

    def drive(
        self,
        pred: Callable[[], bool],
        *,
        horizon: Optional[float] = None,
        desc: str = "drive",
    ) -> None:
        """Advance the runtime until ``pred()`` holds.

        Stops early when the runtime goes idle (nothing scheduled, no
        in-flight work); raises when the model-time ``horizon`` passes
        before ``pred`` holds.
        """
        raise NotImplementedError

    def run_until(self, t: float) -> None:
        """Advance model time to ``t``."""
        raise NotImplementedError

    def run_for(self, dt: float) -> None:
        self.run_until(self.clock.now + dt)

    # -- lifecycle ---------------------------------------------------------

    def barrier(self) -> None:
        """Wait until every remote worker has drained its inbox (a
        no-op on backends without remote workers)."""

    def close(self) -> None:
        """Release backend resources (processes, sockets)."""

    def codec_stats(self) -> dict:
        """Wire-codec counters (see :func:`repro.runtime.frames.codec_stats`)."""
        from . import frames

        return frames.codec_stats()


def make_runtime(
    kind: str = "sim",
    *,
    latency=None,
    seed: int = 0,
    time_scale: float = 1.0,
) -> Runtime:
    """Build a runtime backend by name.

    ``time_scale`` maps model seconds to real seconds on the wall-clock
    backends (0.05 runs modeled periods 20x compressed); the sim
    ignores it.
    """
    if kind == "sim":
        from .sim import SimRuntime

        return SimRuntime(latency=latency, seed=seed)
    if kind == "asyncio":
        from .asyncio_rt import AsyncioRuntime

        return AsyncioRuntime(latency=latency, seed=seed, time_scale=time_scale)
    if kind == "mp":
        from .mp import MPRuntime

        return MPRuntime(latency=latency, seed=seed, time_scale=time_scale)
    raise ValueError(f"unknown runtime {kind!r}; expected one of {RUNTIME_KINDS}")
