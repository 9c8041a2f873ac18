"""Paper Figure 6: real-time load balancing during elastic scale-up.

Two empty workers join at each load phase; the min/max items-per-worker
band must close as the balancer migrates shards to them, with the
cumulative migration counter stepping up at each phase.

A second test replays the scale-up moment under each pluggable
balancer policy (threshold / memory-pressure; see
docs/protocols.md, "Shard lifecycle") and writes the per-policy
worker-size gaps and maintenance-op counts to ``BENCH_balance.json``.
``BENCH_QUICK=1`` shrinks the comparison run for CI smoke.
"""

import json
import os
from pathlib import Path

from repro.bench import render_series, render_table, run_fig6_fig7, run_policy_comparison

from conftest import run_once

PARAMS = dict(
    start_workers=4,
    end_workers=12,
    step=2,
    items_per_worker=5000,
    bench_inserts=300,
    bench_queries_per_bin=45,
)

QUICK = bool(os.environ.get("BENCH_QUICK"))

POLICY_PARAMS = dict(
    workers=3 if QUICK else 4,
    new_workers=1 if QUICK else 2,
    items_per_worker=1500 if QUICK else 4000,
    settle=12.0 if QUICK else 25.0,
)


def _get_result(benchmark, shared_cache):
    key = ("fig6_fig7", tuple(sorted(PARAMS.items())))
    if key not in shared_cache:
        shared_cache[key] = run_once(benchmark, run_fig6_fig7, **PARAMS)
    else:
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    return shared_cache[key]


def test_fig6_load_balance(benchmark, shared_cache):
    result = _get_result(benchmark, shared_cache)
    series = {
        "worker size band + migrations": [
            (round(t, 1), lo, hi, mig)
            for t, lo, hi, mig in result.balance_series[::4]
        ]
    }
    print()
    print(
        render_series(
            "Fig 6: (time s, min items/worker, max items/worker, "
            "cumulative migrations)",
            series,
        )
    )
    print(f"splits={result.splits} migrations={result.migrations}")

    assert result.migrations > 0, "scale-up must trigger migrations"
    rows = result.balance_series
    # When new workers join, the min drops to zero...
    assert any(lo == 0 for _, lo, hi, _ in rows)
    # ...and load balancing closes the band again: after the final
    # rebalance the gap is far smaller than the peak gap.
    final_t = rows[-1][0]
    peak_gap = max(hi - lo for _, lo, hi, _ in rows)
    tail = [r for r in rows if r[0] >= final_t - 5.0]
    tail_gap = min(hi - lo for _, lo, hi, _ in tail)
    assert tail_gap < peak_gap / 2, (
        f"balancer failed to close the band: tail gap {tail_gap}, "
        f"peak gap {peak_gap}"
    )
    # The migration counter is non-decreasing and steps past each phase.
    migs = [m for *_, m in rows]
    assert migs == sorted(migs)
    assert migs[-1] == result.migrations


def test_balancer_policy_comparison(benchmark):
    rows = run_once(benchmark, run_policy_comparison, **POLICY_PARAMS)

    print()
    print(
        render_table(
            "Balancer policies on the Fig 6 scale-up moment",
            ["policy", "peak gap", "final gap", "splits", "migrations"],
            [
                (r.policy, r.peak_gap, r.final_gap, r.splits, r.migrations)
                for r in rows
            ],
        )
    )

    by_name = {r.policy: r for r in rows}
    assert set(by_name) == {"threshold", "memory_pressure"}
    for r in rows:
        # every policy must react to the empty joiners and close the band
        assert r.migrations > 0, f"{r.policy} never migrated"
        assert r.final_gap < r.peak_gap, (
            f"{r.policy} left the band open: "
            f"final {r.final_gap} vs peak {r.peak_gap}"
        )

    result = {
        "params": POLICY_PARAMS,
        "quick": QUICK,
        "policies": {
            r.policy: {
                "peak_gap": r.peak_gap,
                "final_gap": r.final_gap,
                "splits": r.splits,
                "migrations": r.migrations,
                "moves": r.moves,
            }
            for r in rows
        },
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_balance.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"policy comparison: {json.dumps(result['policies'])}")
