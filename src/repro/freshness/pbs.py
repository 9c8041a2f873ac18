"""Probabilistically Bounded Staleness analysis (paper Section IV-F, Fig 10).

The paper estimates "the number of possibly missed inserts in an
aggregate query result relative to elapsed time" with a simulation
driven by the insert/query latency distributions observed on the real
system.  We reproduce that simulation.

Why inserts are missed at all
-----------------------------
Workers always serve current data, so a query only misses an insert in
two ways:

1. **In-flight race** (dominates below ~0.25 s): the insert, issued at
   ``t1``, has not finished executing on its worker when the query
   reads that shard.  By Little's law the expected number of in-flight
   inserts is ``rate x mean_latency`` -- with the paper's ~50k
   inserts/s this is the ~80 missed inserts their Fig 10a shows at
   elapsed time 0, and it decays to zero once the elapsed time exceeds
   the insert latency tail (~0.25 s).
2. **Routing staleness** (rare tail, bounded by the sync period): the
   insert *expanded* a shard's bounding box, a query on a different
   server probes exactly the expanded region, and that server's local
   image has not yet received the expansion through Zookeeper.  Only
   box-expanding inserts can be missed this way, most queries reach the
   right shard through its old box anyway, and the window closes at
   ``sync_period + notify`` -- which is why the paper observed full
   consistency "always under 3 seconds".

A missed insert only affects the query if the item lies in the query
region, hence the multiplication by coverage (Fig 10b's per-coverage
curves).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = ["LatencyDistribution", "PBSSimulator", "PBSResult"]

#: shape of the parametric latency lognormal (sigma of its log)
LOGNORMAL_SIGMA = 1.2


class LatencyDistribution:
    """Sampler over an empirical or parametric latency distribution."""

    def __init__(
        self,
        samples: Optional[Sequence[float]] = None,
        *,
        lognormal_mean: float = 1.6e-3,
        cap: float = 0.25,
    ):
        """Use measured ``samples`` when given (e.g. the latencies a
        cluster run recorded), else a lognormal (sigma :data:`LOGNORMAL_SIGMA`) with the given mean,
        capped at ``cap`` (queueing latencies have finite support)."""
        if samples is not None:
            arr = np.asarray(list(samples), dtype=np.float64)
            if arr.size == 0 or (arr < 0).any():
                raise ValueError("need non-empty, non-negative samples")
            self._samples = arr
            self._mu = None
        else:
            self._samples = None
            # parameterise so that E[X] = lognormal_mean
            self._mu = float(np.log(lognormal_mean) - LOGNORMAL_SIGMA**2 / 2)
            self._cap = cap

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self._samples is not None:
            return rng.choice(self._samples, size=n, replace=True)
        return np.minimum(
            rng.lognormal(self._mu, LOGNORMAL_SIGMA, size=n), self._cap
        )

    def mean(self, rng: Optional[np.random.Generator] = None) -> float:
        if self._samples is not None:
            return float(self._samples.mean())
        rng = rng if rng is not None else np.random.default_rng(0)
        return float(self.sample(200_000, rng).mean())


@dataclass
class PBSResult:
    """Curves of the Fig 10 experiments."""

    elapsed: np.ndarray
    mean_missed: np.ndarray
    coverage: float

    def time_to_fresh(self, threshold: float = 0.5) -> float:
        """Smallest elapsed time with mean missed inserts <= threshold."""
        below = np.where(self.mean_missed <= threshold)[0]
        return float(self.elapsed[below[0]]) if below.size else float("inf")


class PBSSimulator:
    """Monte-Carlo estimator of missed inserts vs elapsed time."""

    def __init__(
        self,
        insert_rate: float,
        insert_latency: Optional[LatencyDistribution] = None,
        sync_period: float = 3.0,
        notify_latency: float = 1e-3,
        expansion_miss_prob: float = 1e-6,
        seed: int = 0,
    ):
        """``expansion_miss_prob`` is the probability that an insert both
        expands its shard's bounding box *and* a cross-server query
        probing the expansion region would be routed past the shard --
        the rare tail bounded by the sync period."""
        if insert_rate <= 0:
            raise ValueError("insert_rate must be positive")
        self.insert_rate = insert_rate
        self.latency = (
            insert_latency if insert_latency is not None else LatencyDistribution()
        )
        self.sync_period = sync_period
        self.notify_latency = notify_latency
        self.expansion_miss_prob = expansion_miss_prob
        self.rng = np.random.default_rng(seed)

    # -- core sampling ------------------------------------------------------

    def _sample_missed(self, elapsed: float, coverage: float, trials: int) -> np.ndarray:
        """#missed inserts for a query at ``t1 + elapsed``, per trial.

        We simulate the window of inserts issued before the reference
        time ``t1`` that could still be invisible at ``t2 = t1 + elapsed``:
        an insert issued ``a`` seconds before ``t1`` is missed by the
        in-flight race iff its latency exceeds ``a + elapsed``, or (with
        tiny probability) by routing staleness iff its sync visibility
        point lies beyond ``t2``.
        """
        horizon = max(self.sync_period + self.notify_latency, 0.5)
        out = np.zeros(trials, dtype=np.int64)

        # -- in-flight race: only inserts younger than the latency support
        # can still be in flight, so restrict the candidate window to
        # ages in [0, lat_max - elapsed) instead of the whole horizon.
        lat_max = float(self.latency.sample(4096, self.rng).max()) * 1.05
        race_window = max(0.0, lat_max - elapsed)
        if race_window > 0:
            n_race = self.rng.poisson(
                self.insert_rate * race_window, size=trials
            )
            total = int(n_race.sum())
            if total:
                ages = self.rng.uniform(0.0, race_window, size=total)
                lat = self.latency.sample(total, self.rng)
                missed = lat > (ages + elapsed)
                if coverage < 1.0:
                    missed &= self.rng.random(total) < coverage
                bounds = np.concatenate(([0], np.cumsum(n_race)))
                out += np.add.reduceat(
                    np.concatenate((missed.astype(np.int64), [0])),
                    bounds[:-1],
                ) * (n_race > 0)

        # -- routing-staleness tail: box-expanding inserts are a thinned
        # Poisson stream (rate x expansion_miss_prob over the horizon),
        # visible only after their next sync tick plus notification.
        if self.expansion_miss_prob > 0:
            n_exp = self.rng.poisson(
                self.insert_rate * self.expansion_miss_prob * horizon,
                size=trials,
            )
            total = int(n_exp.sum())
            if total:
                ages = self.rng.uniform(0.0, horizon, size=total)
                lat = self.latency.sample(total, self.rng)
                sync_in = self.rng.uniform(0.0, self.sync_period, size=total)
                visible = lat + sync_in + self.notify_latency
                missed = visible > (ages + elapsed)
                if coverage < 1.0:
                    missed &= self.rng.random(total) < coverage
                bounds = np.concatenate(([0], np.cumsum(n_exp)))
                out += np.add.reduceat(
                    np.concatenate((missed.astype(np.int64), [0])),
                    bounds[:-1],
                ) * (n_exp > 0)
        return out

    # -- Fig 10a ----------------------------------------------------------

    def missed_curve(
        self,
        elapsed_times: Sequence[float],
        coverage: float = 1.0,
        trials: int = 200,
    ) -> PBSResult:
        """Average missed inserts for each elapsed time (Fig 10a)."""
        elapsed_times = np.asarray(list(elapsed_times), dtype=np.float64)
        means = np.array(
            [
                self._sample_missed(e, coverage, trials).mean()
                for e in elapsed_times
            ]
        )
        return PBSResult(elapsed_times, means, coverage)

    # -- Fig 10b -------------------------------------------------------------

    def missed_pmf(
        self,
        elapsed: float,
        coverage: float = 1.0,
        k_max: int = 4,
        trials: int = 2000,
    ) -> np.ndarray:
        """P(missed == k) for k in 1..k_max (Fig 10b)."""
        counts = self._sample_missed(elapsed, coverage, trials)
        return np.array(
            [float(np.mean(counts == k)) for k in range(1, k_max + 1)]
        )

    def prob_inconsistent(
        self, elapsed: float, coverage: float = 1.0, trials: int = 2000
    ) -> float:
        """P(at least one missed insert) at the given elapsed time."""
        return float(np.mean(self._sample_missed(elapsed, coverage, trials) > 0))
