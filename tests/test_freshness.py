"""Tests for the PBS freshness simulator (paper Fig 10)."""

import numpy as np
import pytest

from repro.freshness import LatencyDistribution, PBSResult, PBSSimulator


class TestLatencyDistribution:
    def test_empirical_sampling(self):
        dist = LatencyDistribution(samples=[0.001, 0.002, 0.003])
        rng = np.random.default_rng(0)
        s = dist.sample(1000, rng)
        assert set(np.round(s, 6)) <= {0.001, 0.002, 0.003}
        assert dist.mean() == pytest.approx(0.002)

    def test_lognormal_mean_calibrated(self):
        dist = LatencyDistribution(lognormal_mean=2e-3, cap=10.0)
        assert dist.mean() == pytest.approx(2e-3, rel=0.1)

    def test_lognormal_respects_cap(self):
        dist = LatencyDistribution(cap=0.1)
        rng = np.random.default_rng(1)
        assert dist.sample(10_000, rng).max() <= 0.1

    def test_rejects_bad_samples(self):
        with pytest.raises(ValueError):
            LatencyDistribution(samples=[])
        with pytest.raises(ValueError):
            LatencyDistribution(samples=[-1.0])


class TestPBSSimulator:
    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            PBSSimulator(insert_rate=0)

    def test_missed_at_zero_matches_littles_law(self):
        """E[missed at e=0] ~ rate x mean insert latency."""
        sim = PBSSimulator(insert_rate=50_000, seed=2, expansion_miss_prob=0.0)
        res = sim.missed_curve([0.0], trials=60)
        expected = 50_000 * sim.latency.mean()
        assert res.mean_missed[0] == pytest.approx(expected, rel=0.25)

    def test_missed_decays_with_elapsed_time(self):
        """Paper Fig 10a: missed inserts drop to ~zero by 0.25 s."""
        sim = PBSSimulator(insert_rate=50_000, seed=3)
        res = sim.missed_curve([0.0, 0.05, 0.25, 1.0], trials=60)
        m = res.mean_missed
        assert m[0] > 20
        assert m[1] < m[0] / 10
        assert m[2] < 1.0
        assert m[3] < 1.0

    def test_consistency_within_sync_period(self):
        """Paper: consistency always observed in under 3 seconds."""
        sim = PBSSimulator(insert_rate=50_000, sync_period=3.0, seed=4)
        assert sim.prob_inconsistent(3.1, trials=300) == 0.0

    def test_coverage_scales_missed(self):
        sim = PBSSimulator(insert_rate=50_000, seed=5, expansion_miss_prob=0.0)
        full = sim.missed_curve([0.0], coverage=1.0, trials=80).mean_missed[0]
        sim2 = PBSSimulator(insert_rate=50_000, seed=5, expansion_miss_prob=0.0)
        quarter = sim2.missed_curve([0.0], coverage=0.25, trials=80).mean_missed[0]
        assert quarter == pytest.approx(full * 0.25, rel=0.3)

    def test_pmf_sums_below_one(self):
        sim = PBSSimulator(insert_rate=50_000, seed=6)
        pmf = sim.missed_pmf(0.25, coverage=0.5, trials=300)
        assert len(pmf) == 4
        assert (pmf >= 0).all()
        assert pmf.sum() <= 1.0

    def test_pmf_decreasing_in_elapsed(self):
        """Paper Fig 10b: probabilities shrink as elapsed time grows."""
        sim = PBSSimulator(insert_rate=50_000, seed=7)
        early = sim.missed_pmf(0.01, coverage=1.0, trials=400).sum()
        late = sim.missed_pmf(2.0, coverage=1.0, trials=400).sum()
        assert late <= early

    def test_empirical_latencies_accepted(self):
        dist = LatencyDistribution(samples=np.full(100, 0.002))
        sim = PBSSimulator(
            insert_rate=10_000, insert_latency=dist, seed=8,
            expansion_miss_prob=0.0,
        )
        res = sim.missed_curve([0.0, 0.002, 0.01], trials=60)
        # all latencies exactly 2ms: nothing can be missed past e=2ms
        assert res.mean_missed[0] > 0
        assert res.mean_missed[2] == 0.0

    def test_time_to_fresh(self):
        res = PBSResult(
            np.array([0.0, 0.1, 0.2]), np.array([10.0, 0.4, 0.0]), 1.0
        )
        assert res.time_to_fresh() == 0.1
        res2 = PBSResult(np.array([0.0]), np.array([10.0]), 1.0)
        assert res2.time_to_fresh() == float("inf")


@pytest.mark.sim_only
class TestPBSAgainstMeasuredStaleness:
    """Validate the PBS model against replica staleness the cluster
    actually measured (PR 6 satellite): feed the per-row tee-to-apply
    delays of a replicated run into :class:`LatencyDistribution` and
    check the simulator's predictions against an independent,
    event-stepped measurement of the replication backlog."""

    def test_prediction_matches_measured_backlog(self):
        from repro.cluster import BalancerPolicy, ClusterConfig, VOLAPCluster
        from repro.core import TreeConfig
        from repro.workloads.streams import Operation

        from .conftest import make_schema, random_batch

        schema = make_schema()
        cfg = ClusterConfig(
            num_workers=3,
            num_servers=1,
            tree_config=TreeConfig(leaf_capacity=32, fanout=8),
            balancer=BalancerPolicy(
                max_shard_items=100_000, scan_period=0.1, op_timeout=2.0
            ),
            heartbeat_period=0.1,
            checkpoint_period=0.4,
            replication_factor=1,
            seed=3,
        )
        cluster = VOLAPCluster(schema, cfg)
        cluster.bootstrap(random_batch(schema, 1200, seed=3), shards_per_worker=2)
        cluster.run_for(2.0)  # replicas of every shard seeded + settled

        extra = random_batch(schema, 500, seed=47)
        sess = cluster.session(0, concurrency=8)
        sess.run_stream(
            [
                Operation(
                    "insert",
                    coords=extra.coords[i],
                    measure=float(extra.measures[i]),
                )
                for i in range(len(extra))
            ]
        )

        def inflight() -> int:
            ws = cluster.workers.values()
            return sum(w.replication.rows_teed for w in ws) - sum(
                w.replication.rows_applied for w in ws
            )

        # event-stepped time integral of the replication backlog: the
        # number of acked-but-not-yet-replica-visible rows at any instant
        t_start = cluster.clock.now
        integral, horizon = 0.0, t_start + 60.0
        while cluster.clock.now < horizon:
            val = inflight()
            t_prev = cluster.clock.now
            if not cluster.clock.step():
                break
            integral += val * (cluster.clock.now - t_prev)
            if sess.done and inflight() == 0:
                break
        assert sess.done and inflight() == 0
        window = cluster.clock.now - t_start
        measured_backlog = integral / window

        lags = [
            s for w in cluster.workers.values() for s in w.replication.apply_lags
        ]
        assert len(lags) == len(extra)  # every acked row streamed once
        rate = sum(w.replication.rows_teed for w in cluster.workers.values()) / window

        # the PBS simulator, driven by the measured staleness samples,
        # must reproduce the measured backlog (Little's law) ...
        sim = PBSSimulator(
            insert_rate=rate,
            insert_latency=LatencyDistribution(samples=lags),
            expansion_miss_prob=0.0,
            seed=9,
        )
        predicted = sim.missed_curve([0.0], trials=200).mean_missed[0]
        assert measured_backlog > 0
        assert predicted == pytest.approx(measured_backlog, rel=0.25)
        # ... and predict full freshness past the measured staleness tail
        tail = max(lags) * 1.05
        assert sim.missed_curve([tail], trials=200).mean_missed[0] == 0.0
        assert sim.prob_inconsistent(tail, trials=200) == 0.0
