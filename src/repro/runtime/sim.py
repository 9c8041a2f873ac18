"""The discrete-event runtime: the classic simulation behind the seam.

Construction and behavior are bit-identical to the pre-runtime wiring
(`SimClock` + `Transport`); the drive loop reproduces the exact
``clock.step()`` loops the cluster facade used to inline.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..cluster.simclock import SimClock
from ..cluster.transport import Transport
from .base import Runtime

__all__ = ["SimRuntime"]

#: events one drive may fire before it is taken for a runaway
DRIVE_GUARD = 50_000_000


class SimRuntime(Runtime):
    kind = "sim"

    def __init__(self, latency=None, seed: int = 0):
        super().__init__()
        self.clock = SimClock()
        self.transport = Transport(self.clock, latency, seed=seed)

    def drive(
        self,
        pred: Callable[[], bool],
        *,
        horizon: Optional[float] = None,
        desc: str = "drive",
    ) -> None:
        n = 0
        while not pred():
            if not self.clock.step():
                break
            if horizon is not None and self.clock.now > horizon:
                raise RuntimeError(f"{desc} did not finish before horizon")
            n += 1
            if n > DRIVE_GUARD:  # pragma: no cover - runaway guard
                raise RuntimeError(f"{desc} did not converge")

    def run_until(self, t: float) -> None:
        self.clock.run_until(t)
