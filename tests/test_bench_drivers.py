"""Smoke tests for the experiment drivers at miniature scale.

The full-size runs (and their shape assertions) live in ``benchmarks/``;
here we verify the drivers execute end to end, return well-formed data,
and the CLI renders them.
"""

import pytest

from repro.bench import (
    run_cached_aggregates_ablation,
    run_fig10,
    run_fig4,
    run_fig5,
    run_fig8,
    run_fig9,
    run_id_expansion_ablation,
    run_insert_policy_ablation,
    run_split_ablation,
    run_sync_period_ablation,
)


def test_fig4_driver_tiny():
    res = run_fig4(sizes=(1000,), queries_per_bin=2, repeats=1)
    assert set(res.series) == {
        f"{t} {b}"
        for t in ("hilbert_pdc", "pdc", "flat")
        for b in ("low", "medium", "high")
    }
    for pts in res.series.values():
        assert len(pts) == 1
        assert pts[0][1] > 0


def test_fig5_driver_tiny():
    rows = run_fig5(dims=(4,), n_items=400, n_queries=4)
    assert len(rows) == 4  # four tree variants
    for r in rows:
        assert r.insert_latency > 0
        assert r.query_latency > 0
        assert r.query_nodes >= 1


def test_fig8_driver_tiny():
    cells = run_fig8(
        workers=2, items_per_worker=800, mixes=(0, 100), ops_per_cell=40
    )
    mixes = {c.insert_pct for c in cells}
    assert mixes == {0, 100}
    pure = [c for c in cells if c.insert_pct == 100]
    assert len(pure) == 1
    assert pure[0].insert_throughput > 0


def test_fig9_driver_tiny():
    points, shards = run_fig9(workers=2, items_per_worker=800, n_queries=20)
    assert shards >= 2
    assert len(points) >= 10
    for p in points:
        assert 0.0 <= p.coverage <= 1.0
        assert p.latency > 0
        assert 0 <= p.shards_searched <= shards


def test_fig10_driver_tiny():
    res = run_fig10(coverages=(1.0,), trials=20, pmf_elapsed=(0.25,))
    assert 1.0 in res.curves
    assert (1.0, 0.25) in res.pmfs
    assert res.curves[1.0].mean_missed[0] >= 0


def test_ablation_drivers_tiny():
    a = run_insert_policy_ablation(n_items=500, n_queries=4)
    assert set(a) == {"least_overlap", "least_enlargement"}
    b = run_id_expansion_ablation(n_items=500, n_queries=4)
    assert set(b) == {"expanded", "raw"}
    c = run_split_ablation(n_items=500, n_queries=4)
    assert set(c) == {"least_overlap", "middle"}
    d = run_cached_aggregates_ablation(n_items=800)
    assert d["cached"]["items_scanned"] == 0
    assert d["uncached"]["items_scanned"] == 800


def test_sync_ablation_driver_tiny():
    out = run_sync_period_ablation(sync_periods=(0.5, 2.0), trials=30)
    assert set(out) == {0.5, 2.0}
    assert all(v >= 0 for v in out.values())


def test_cli_help_and_dispatch(capsys):
    from repro.bench.__main__ import TARGETS, main

    assert set(TARGETS) >= {
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "headline",
        "ablations",
    }
    with pytest.raises(SystemExit):
        main(["not-a-target"])
