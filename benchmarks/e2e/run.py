"""VOLAP end-to-end benchmark: five closed-loop workloads on the real
runtimes, wall-clock metrics, an oracle check and a per-layer trace.

    python3 benchmarks/e2e/run.py                       # every workload, both runs
    python3 benchmarks/e2e/run.py --workload mixed --seed 7 --seconds 15 --trace 0
    python3 benchmarks/e2e/run.py --workload mixed --trace 1
    python3 benchmarks/e2e/run.py --repeat 2 --record   # spread table + history line

``--trace 0`` measures the end-to-end metrics over an untraced timed
window; ``--trace 1`` replays a fixed op count twice (untraced, then
traced) and prints the per-layer table.  Either way the last line of
standard output is one JSON object ``{correct, attempted, failed,
metrics}`` and the exit code is non-zero when an answer was wrong.
See README.md beside this file for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy as np

    import harness
    import trace as tracing
    from workloads import FULL, SCAN_CLASSES, SEED, SMOKE, WORKLOADS, Dataset
except ImportError as exc:  # e.g. a checkout without src/: nothing to measure
    print(f"e2e bench: cannot import the program under test: {exc}", file=sys.stderr)
    sys.exit(2)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
#: hard real-time limit of one run (the contract allows 180 s)
RUN_LIMIT_S = 170


def percentile(values, p: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), p))


def tail_percentile(n: int) -> int | None:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100.0 >= 10:
            return p
    return None


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kb / 1024.0


def latencies_ms(drivers, kind: str, t0: float, t1: float, classes=None) -> list[float]:
    out = []
    for d in drivers:
        if d.spec.kind != kind:
            continue
        for i, (rec, at) in enumerate(zip(d.records, d.done_at)):
            if t0 <= at < t1 and (classes is None or d.stream.classes[i] in classes):
                out.append(rec.latency * 1e3)
    return out


def client_view(loop, t0: float, t1: float) -> dict[str, float]:
    """What the clients saw inside ``[t0, t1)``, per op class."""
    drivers, seconds = loop.drivers, t1 - t0
    view: dict[str, float] = {}
    acks = latencies_ms(drivers, "insert", t0, t1)
    queries = latencies_ms(drivers, "query", t0, t1)
    view["insert_rows_per_s"] = len(acks) / seconds
    view["query_per_s"] = len(queries) / seconds
    for name, lat in (
        ("insert_ack", acks),
        ("query", queries),
        ("point", latencies_ms(drivers, "query", t0, t1, ("point",))),
        ("scan", latencies_ms(drivers, "query", t0, t1, SCAN_CLASSES)),
    ):
        view[f"{name}_samples"] = len(lat)
        view[f"{name}_p50_ms"] = percentile(lat, 50) if lat else 0.0
        view[f"{name}_mean_ms"] = statistics.fmean(lat) if lat else 0.0
        tail = tail_percentile(len(lat))
        view[f"{name}_tail_pct"] = tail or 0
        view[f"{name}_tail_ms"] = percentile(lat, tail) if tail else 0.0
        view[f"{name}_p99_ms"] = percentile(lat, 99) if lat else 0.0
    return view


def latency_class(spec) -> str:
    """The op class whose p50 is the workload's ``latency_p50_ms``: the
    scan where there is one (on the mixed workloads the point query's
    p50 is ``cluster.client.point_p50_ms``), else the point query, else
    the insert ack."""
    classes = {c for s in spec.sessions for c in s.classes}
    if classes & set(SCAN_CLASSES):
        return "scan"
    return "point" if classes else "insert_ack"


def set_up(dataset, spec, times: int):
    """Build + bootstrap ``times`` clusters, keep the last; returns it
    with the seconds each took (``setup_s`` is their median)."""
    took, cluster = [], None
    for _ in range(times):
        if cluster is not None:
            cluster.close()
        t = time.perf_counter()
        cluster = harness.make_cluster(dataset, spec)
        took.append(time.perf_counter() - t)
    return cluster, took


def run_window(spec, seed: int, seconds: float, sizes, corrupt: bool = False):
    """The untraced run: end-to-end metrics over a timed window."""
    t = time.perf_counter()
    dataset = Dataset(seed, sizes)
    generate_s = time.perf_counter() - t
    if corrupt:
        dataset.corrupt()
    cluster, setups = set_up(dataset, spec, sizes.setups)
    try:
        loop = harness.ClosedLoop(cluster, dataset, spec)
        t0, t1 = loop.run_window(sizes.warmup_s, seconds)
        verdict = harness.judge(loop)
        splits = cluster.stats.splits
    finally:
        cluster.close()
    view = client_view(loop, t0, t1)
    speed = loop.host.factor(t0, t1)
    raw = {
        "throughput_per_s": view["insert_rows_per_s" if spec.writes else "query_per_s"],
        "latency_p50_ms": view[f"{latency_class(spec)}_p50_ms"],
    }
    metrics = {
        "setup_s": statistics.median(setups),
        # at reference host speed: what the window measured, divided
        # (rates) or multiplied (times) by how fast the host then was
        "throughput_per_s": raw["throughput_per_s"] / speed,
        "latency_p50_ms": raw["latency_p50_ms"] * speed,
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {
        "host_speed": speed,
        **{f"raw_{k}": v for k, v in raw.items()},
        **view,
        "generate_s": generate_s,
        "setups_s": setups,
        "splits_in_run": splits,
        "error_share": verdict.failed / verdict.attempted,
    }
    return metrics, extra, verdict


def run_traced(spec, seed: int, sizes, label: str):
    """Replay a fixed op count untraced, then traced on a fresh
    cluster; returns the per-layer metrics."""
    t = time.perf_counter()
    dataset = Dataset(seed, sizes)
    generate_s = time.perf_counter() - t

    cluster = harness.make_cluster(dataset, spec)
    try:
        plain = harness.ClosedLoop(cluster, dataset, spec)
        t0 = time.perf_counter()
        plain_wall = plain.run_fixed()
        view = client_view(plain, t0, t0 + plain_wall)
        verdict = harness.judge(plain)
    finally:
        cluster.close()

    tracer = tracing.Tracer()
    tracer.install(cluster.config.store_cls, OUT if spec.runtime == "mp" else None, label)
    try:
        tracer.active = True  # from the set-up on: bootstrap's from_batch counts
        set_up_at = time.perf_counter()
        cluster = harness.make_cluster(dataset, spec)
        try:
            loop = harness.ClosedLoop(cluster, dataset, spec)
            before = counters(cluster)
            cpu0, t0 = time.process_time(), time.perf_counter()
            wall = loop.run_fixed()
            tracer.active = False
            t1, cpu = time.perf_counter(), time.process_time() - cpu0
            after = counters(cluster)
            traced_verdict = harness.judge(loop)
        finally:
            cluster.close()
    finally:
        tracer.uninstall()
    verdict.attempted += traced_verdict.attempted
    verdict.failed += traced_verdict.failed
    verdict.notes += traced_verdict.notes

    tracer.dump(OUT / f"{label}.parent.spans.json")
    processes = {"parent": tracer.spans}
    for path in sorted(OUT.glob(f"{label}.worker*.spans.json")):
        processes[path.name.split(".")[-3]] = tracing.load_spans(path)
    folded = tracing.fold(processes, t0, t1)
    m = tracing.layer_metrics(folded)
    m["core.from_batch_self_s"] += tracing.fold(processes, set_up_at, t0)["self_s"].get(
        "core.from_batch", 0.0
    )
    budget = path_budget(processes, t0, t1, loop)
    (OUT / f"{label}.budget.json").write_text(json.dumps(budget, indent=1))
    delta = {k: after[k] - before[k] for k in after}
    child_cpu = [v for k, v in delta.items() if k.startswith("child_cpu.")]
    idle = wall - cpu
    sessions = [d.session for d in loop.drivers]
    inserts = sum(d.session.completed for d in loop.drivers if d.spec.kind == "insert")
    batches = sum(s.batches_sent for s in sessions)
    m.update(
        {
            "core.agg_hit_share": ratio(m["core.agg_hits"], m["core.nodes_visited"]),
            "cluster.image.shards_per_query": ratio(
                m["cluster.image.shards_found"], m["cluster.image.search_calls"]
            ),
            "runtime.frames.data_pickled": delta["data_pickled"],
            "runtime.frames.control_pickled": delta["control_pickled"],
            "cluster.server.insert_retries": delta["insert_retries"],
            "cluster.server.degraded_queries": delta["degraded_queries"],
            "cluster.worker.dedup_hits": delta["dedup_hits"],
            "cluster.worker.backlog_max": after["backlog"],
            "cluster.manager.splits": delta["splits"],
            "cluster.manager.migrations": delta["migrations"],
            "cluster.manager.op_stall_max_ms": folded["stall_max_s"] * 1e3,
            "cluster.client.insert_rows_per_s": view["insert_rows_per_s"],
            "cluster.client.query_per_s": view["query_per_s"],
            "cluster.client.insert_ack_p50_ms": view["insert_ack_p50_ms"],
            "cluster.client.insert_ack_p99_ms": view["insert_ack_p99_ms"],
            "cluster.client.point_p50_ms": view["point_p50_ms"],
            "cluster.client.scan_p50_ms": view["scan_p50_ms"],
            "cluster.client.query_p99_ms": view["query_p99_ms"],
            "cluster.client.retries": sum(s.retries for s in sessions),
            "cluster.client.timeouts": sum(s.timeouts for s in sessions),
            "cluster.client.batches_sent": batches,
            "cluster.client.rows_per_batch": ratio(inserts, batches),
            "runtime.drive_idle_s": idle,
            "runtime.handler_max_ms": folded["root_max_s"] * 1e3,
            "runtime.mp.parent_cpu_s": cpu,
            "runtime.mp.child_cpu_s": sum(child_cpu),
            "runtime.mp.child_cpu_max_s": max(child_cpu, default=0.0),
            "trace.replay_wall_s": wall,
            "trace.residual_share": (wall - idle - folded["root_s"]["parent"]) / wall,
            "trace.overhead_share": (wall - plain_wall) / plain_wall,
            "bench.generate_s": generate_s,
            "bench.host_speed": loop.host.factor(t0, t1),
            "bench.error_share": verdict.failed / verdict.attempted,
        }
    )
    return m, {"missing_layers": tracer.missing, "budget_ms_per_op": budget}, verdict


def path_budget(processes, t0: float, t1: float, loop) -> dict:
    """Per path (insert batch / point query / scan query): the mean
    client latency of the traced replay and the mean self milliseconds
    each layer spent per op; ``wait`` is the latency no layer was busy."""
    paths = [
        "point" if cls == "point" else "scan"
        for d in loop.drivers
        if d.spec.kind == "query"
        for cls in d.stream.classes[: len(d.records)]
    ]
    sums = tracing.budget(processes, t0, t1, paths or ["point"])
    view = client_view(loop, t0, t1)
    ops = {
        "insert": sum(d.session.batches_sent for d in loop.drivers),
        "point": paths.count("point"),
        "scan": paths.count("scan"),
    }
    out = {}
    for path, n in ops.items():
        if not n:
            continue
        row = {layer: 1e3 * s / n for layer, s in sorted(sums.get(path, {}).items())}
        busy = sum(row.values())
        row = {k: round(v, 4) for k, v in row.items()}
        row["ops"] = n
        latency = "insert_ack" if path == "insert" else path
        row["client_latency_mean"] = round(view[f"{latency}_mean_ms"], 4)
        row["wait"] = round(row["client_latency_mean"] - busy, 4)
        out[path] = row
    return out


def counters(cluster) -> dict:
    """Cumulative counters the cluster itself keeps (``cluster.metrics``,
    ``cluster.stats``, the codec spies, the barrier's per-child CPU)."""
    gauges = cluster.metrics.snapshot()["gauges"]
    codec = cluster.runtime.codec_stats()

    def gauge(name: str) -> float:
        return gauges.get(name, {}).get("total", 0.0)

    return {
        "data_pickled": codec["data_pickled"],
        "control_pickled": codec["control_pickled"],
        "insert_retries": gauge("volap_server_insert_retries"),
        "degraded_queries": gauge("volap_server_degraded_queries"),
        "dedup_hits": gauge("volap_worker_dedup_hits"),
        "backlog": gauge("volap_worker_backlog"),
        "splits": cluster.stats.splits,
        "migrations": cluster.stats.migrations,
        **{
            f"child_cpu.{wid}": float(w.stats["cpu_time"])
            for wid, w in cluster.workers.items()
            if cluster.runtime.kind == "mp"
        },
    }


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# -- output ------------------------------------------------------------------


def emit(workload: str, kind: str, metrics: dict, extra: dict, verdict) -> dict:
    """Print the table and return the contract's result object, holding
    exactly the BENCHMARK.json metrics of this kind of run."""
    names = [m["name"] for m in SPEC[kind]]
    unknown = sorted(set(names) - set(metrics))
    if unknown:
        raise SystemExit(f"BENCHMARK.json names metrics this run did not measure: {unknown}")
    print(f"== {workload} ({kind}) ==")
    for name in names:
        print(f"  {name:44s} {metrics[name]:>16.6g} {UNITS[name]}")
    for name in sorted(set(metrics) - set(names)):
        print(f"  ({name:42s} {metrics[name]:>16.6g})")
    for name, value in extra.items():
        print(f"  [{name} = {value}]")
    for note in verdict.notes:
        print(f"  WRONG: {note}")
    return {
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": UNITS[n]} for n in names},
    }


def _out_of_time(signum, frame):
    raise TimeoutError(f"run exceeded its {RUN_LIMIT_S} s real-time limit")


def run_one(workload: str, seed: int, seconds: float, traced: bool, sizes, corrupt=False) -> dict:
    """One run under a hard real-time limit; the ``finally`` blocks on
    the way out close the cluster, so no mp child outlives a failure."""
    spec = WORKLOADS[workload]
    signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(RUN_LIMIT_S)
    try:
        if traced:
            label = f"{workload}-s{seed}"
            for stale in OUT.glob(f"{label}.*"):
                stale.unlink()
            metrics, extra, verdict = run_traced(spec, seed, sizes, label)
            return emit(workload, "per_layer", metrics, extra, verdict)
        metrics, extra, verdict = run_window(spec, seed, seconds, sizes, corrupt)
        return emit(workload, "end_to_end", metrics, extra, verdict)
    finally:
        signal.alarm(0)


def git(*args: str) -> str:
    try:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def spawn(workload: str, args, traced: bool) -> dict:
    """One run in a fresh process -- ``ru_maxrss`` and the tracer's
    patches are per process -- echoing its table; returns its result."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(int(traced)),
    ] + (["--smoke"] if args.smoke else []) + (["--corrupt-oracle"] if args.corrupt_oracle else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_LIMIT_S + 10)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{workload}: run printed no result\n{proc.stderr}")
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def repeat(workloads, args) -> bool:
    """Run ``--repeat`` sets and print, per workload and end-to-end
    metric, (max - min) / median; False when one exceeds its bound.
    ``setup_s`` is shown but, as in the driver, not held to its bound
    here: its bound limits how far its median may drift between PRs."""
    values: dict[tuple[str, str], list[float]] = {}
    correct = True
    for _ in range(args.repeat):
        for w in workloads:
            result = spawn(w, args, traced=False)
            correct = correct and result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault((w, name), []).append(m["value"])
    print(f"== spread over {args.repeat} sets: (max - min) / median ==")
    within = True
    for (w, name), vs in values.items():
        spread = (max(vs) - min(vs)) / statistics.median(vs)
        bound = BOUNDS[name]
        gated = name != "setup_s"
        flag = "" if spread <= bound else "  EXCEEDS BOUND" if gated else "  (not gated)"
        within = within and (spread <= bound or not gated)
        shown = "  ".join(f"{v:.6g}" for v in vs)
        print(f"  {w:12s} {name:20s} {shown:>28s}  spread {spread:6.3f}  bound {bound}{flag}")
    if args.record:
        line = {
            "sha": git("rev-parse", "HEAD") or "unknown",
            "dirty": bool(git("status", "--porcelain", "--", "src", "benchmarks/e2e")),
            "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                     "python": platform.python_version()},
            "seed": args.seed,
            "seconds": args.seconds,
            "metrics": {
                w: {n: statistics.median(values[(w, n)]) for (ww, n) in values if ww == w}
                for w in workloads
            },
        }
        with open(HERE / "history.jsonl", "a") as fh:
            fh.write(json.dumps(line) + "\n")
    return within and correct


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=SEED)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true", help="20 k rows, 2 s windows")
    ap.add_argument("--repeat", type=int, metavar="K", help="K sets; print each metric's spread")
    ap.add_argument("--record", action="store_true", help="with --repeat: append history.jsonl")
    ap.add_argument("--corrupt-oracle", action="store_true", help="must make the run fail")
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = 2.0 if args.smoke else float(SPEC["run_seconds"])
    workloads = [args.workload] if args.workload else [w["name"] for w in SPEC["workloads"]]

    if args.repeat:
        return 0 if repeat(workloads, args) else 1
    if args.workload and args.trace is not None:  # the driver's form: one run, in process
        result = run_one(
            args.workload, args.seed, args.seconds, bool(args.trace),
            SMOKE if args.smoke else FULL, args.corrupt_oracle,
        )
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    results = {
        f"{w}:trace{int(traced)}": spawn(w, args, traced)
        for w in workloads
        for traced in ((False, True) if args.trace is None else (bool(args.trace),))
    }
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
