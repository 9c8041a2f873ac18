"""Smoke test of the e2e benchmark (``pytest benchmarks/e2e``; tier-1's
``testpaths`` does not collect it).  Runs the real command at ``--smoke``
size -- 20 k rows, 2 s windows -- so it checks the contract the driver
relies on: metric names, correctness gate, repeatable counts."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: per-layer counts that repeat exactly on one seed at smoke size: work
#: counts driven by the ops alone.  Rows driven by wall-clock timers
#: (messages, checkpoints, syncs, timer fires, linger-flushed batches)
#: and every ``_s`` / ``_ms`` row move with time; on the mixed workloads
#: the query side also moves with how far ingest got when a query ran,
#: and at full size a manager split re-keys and re-inserts rows.
_READS = [
    "core.query_calls", "core.nodes_visited", "core.leaves_visited", "core.items_scanned",
    "core.agg_hits", "cluster.image.search_calls", "cluster.image.shards_per_query",
    "cluster.manager.splits", "cluster.manager.migrations",
]
_WRITES = ["hilbert.keys_rows", "core.insert_rows", "cluster.image.route_insert_calls"]
EXACT = {
    "ingest": _WRITES,
    "query_point": _READS,
    "query_scan": _READS,
    "mixed": _WRITES + ["cluster.image.search_calls"],
    "mixed_mp": _WRITES + ["cluster.image.search_calls"],
}


def bench(*args: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "3", *args],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else {}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_window_run_prints_the_declared_metrics_and_no_errors(workload):
    code, result = bench("--workload", workload, "--trace", "0")
    assert code == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(NAME.fullmatch(n) for n in result["metrics"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_their_counts(workload):
    code_a, a = bench("--workload", workload, "--trace", "1")
    code_b, b = bench("--workload", workload, "--trace", "1")
    assert code_a == code_b == 0
    assert list(a["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) for n in a["metrics"])
    assert a["failed"] == b["failed"] == 0
    for name in EXACT[workload]:
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"], name
    assert a["metrics"]["runtime.frames.data_pickled"]["value"] == 0
    assert a["metrics"]["cluster.manager.migrations"]["value"] == 0  # README, "No migrations"
    if workload.startswith("query_"):
        assert a["metrics"]["cluster.manager.splits"]["value"] == 0


def test_a_corrupted_oracle_fails_the_run():
    code, result = bench("--workload", "query_point", "--trace", "0", "--corrupt-oracle")
    assert code != 0 and not result["correct"] and result["failed"] > 0
