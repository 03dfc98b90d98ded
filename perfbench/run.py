"""Run one workload of the PPR stack benchmark and print its metrics.

Usage (from the repository root, no install needed)::

    python3 perfbench/run.py --workload serve-sharded --seed 1 --seconds 10 --trace 0

The run builds the workload's stack ``SETUP_REPEATS`` times (``setup_s``
is the median), then times whole rounds of the workload until
``--seconds`` of wall time are used, checks the sampled answers and
prints one JSON object as its last line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, reports the per-layer metrics of the traced
ones (medians over rounds), their overhead against the untraced ones,
and writes every span to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]


def _pin_and_cap_threads() -> tuple[int, int]:
    """Pin the run to one CPU (the last it may use) and cap numeric thread
    pools at the CPUs it may then use; must run before numpy is imported.

    All load is one thread, and a pinned thread is never migrated: on a
    shared 2-CPU machine that halves the run-to-run spread of the timings.
    """
    cpu = -1
    if hasattr(os, "sched_setaffinity"):
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    ncpu = len(os.sched_getaffinity(0)) if cpu >= 0 else os.cpu_count() or 1
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMBA_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, ncpu))
        except ValueError:
            current = ncpu
        os.environ[var] = str(max(1, min(current, ncpu)))
    # The benchmark fixes its own graph sizes.
    os.environ["REPRO_SCALE"] = "1"
    return cpu, ncpu


PINNED_CPU, NCPU = _pin_and_cap_threads()
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no src/repro under {ROOT}; run it from a repository checkout")
sys.path.insert(0, str(ROOT / "src"))  # the checkout's code, never an installed copy

import numpy as np  # noqa: E402

from oracle import CheckFailed  # noqa: E402
from tracing import Patches, Tracer  # noqa: E402
from workloads import WORKLOADS, rss_peak_mb  # noqa: E402

SETUP_REPEATS = 2
MAX_ROUNDS_PER_SECOND = 16  # bounds serve-chaos's pre-generated fault plan

END_TO_END_UNITS = {
    "setup_s": "s",
    "requests_per_s": "req/s",
    "request_p50_ms": "ms",
    "request_p99_ms": "ms",
    "wire_kb_per_query": "KB",
    "index_mb": "MB",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "setup.graph_s": "s",
    "setup.index_s": "s",
    "setup.deploy_s": "s",
    "serving.serve_self_ms": "ms",
    "serving.flush_self_ms": "ms",
    "serving.flushes": "count",
    "serving.unique_per_flush": "count",
    "serving.cache_hit_ratio": "ratio",
    "serving.queue_wait_modeled_ms": "ms",
    "sharding.router_self_ms": "ms",
    "sharding.shard_self_ms": "ms",
    "sharding.replica_ms": "ms",
    "sharding.cache_hit_ratio": "ratio",
    "sharding.load_imbalance": "ratio",
    "sharding.wire_bytes": "bytes",
    "sharding.attempts": "count",
    "sharding.retries": "count",
    "sharding.hedges": "count",
    "sharding.useful_attempt_ratio": "ratio",
    "faults.injected.crash": "count",
    "faults.injected.kill_worker": "count",
    "faults.injected.latency": "count",
    "faults.injected.drop": "count",
    "faults.injected.truncate": "count",
    "core.query_many_ms": "ms",
    "core.query_many_sparse_ms": "ms",
    "core.query_many_topk_ms": "ms",
    "core.spgemm_scaled_ms": "ms",
    "core.sparse_add_ms": "ms",
    "core.assemble_columns_ms": "ms",
    "core.topk_rows_ms": "ms",
    "core.topk_rows_sparse_ms": "ms",
    "core.nnz_per_row": "count",
    "distributed.query_many_ms": "ms",
    "distributed.wire_bytes": "bytes",
    "distributed.messages": "count",
    "updates.rebuild_ms": "ms",
    "updates.redeploy_ms": "ms",
    "updates.rebuild_fraction": "ratio",
    "updates.invalidated_rows": "count",
    "update_p50_ms": "ms",
    "vectors_per_s": "PPV/s",
    "topk_per_s": "query/s",
    "trace.overhead_pct": "%",
}


def _delta(c0: dict, c1: dict, key: str) -> float:
    return float(c1.get(key, 0)) - float(c0.get(key, 0))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: dict, c0: dict, c1: dict, info: dict) -> dict[str, float]:
    """Per-layer figures of one traced round (times are ms per round)."""

    def own(name: str) -> float:
        return spans.get(name, (0.0, 0.0, 0))[1] * 1e3

    def total(name: str) -> float:
        return spans.get(name, (0.0, 0.0, 0))[0] * 1e3

    d = lambda key: _delta(c0, c1, key)  # noqa: E731
    shard_q = np.subtract(c1.get("shard_queries", [0]), c0.get("shard_queries", [0]))
    out = {
        "serving.serve_self_ms": own("serving.serve"),
        "serving.flush_self_ms": own("serving.flush"),
        "serving.flushes": d("flushes"),
        "serving.unique_per_flush": _ratio(d("unique"), d("flushes")),
        "serving.cache_hit_ratio": _ratio(d("service_hits"), d("requests")),
        "serving.queue_wait_modeled_ms": _ratio(d("modeled_latency_s"), d("requests")) * 1e3,
        "sharding.router_self_ms": own("sharding.router"),
        "sharding.shard_self_ms": own("sharding.shard"),
        "sharding.replica_ms": total("sharding.replica"),
        "sharding.cache_hit_ratio": _ratio(d("shard_hits"), d("shard_lookups")),
        "sharding.load_imbalance": _ratio(float(shard_q.max()), float(shard_q.mean())),
        "sharding.wire_bytes": d("wire_bytes") if "shard_queries" in c1 else 0.0,
        "sharding.attempts": d("attempts"),
        "sharding.retries": d("retries"),
        "sharding.hedges": d("hedges"),
        "sharding.useful_attempt_ratio": _ratio(d("served_batches"), d("attempts")),
        "core.query_many_ms": total("core.query_many"),
        "core.query_many_sparse_ms": total("core.query_many_sparse"),
        "core.query_many_topk_ms": total("core.query_many_topk"),
        "core.nnz_per_row": _ratio(d("nnz"), d("requests")) if "nnz" in c1
        else info.get("nnz_per_row", 0.0),
        "distributed.query_many_ms": total("distributed.query_many"),
        "distributed.wire_bytes": d("wire_bytes") if "messages" in c1 else 0.0,
        "distributed.messages": d("messages"),
        "updates.rebuild_ms": total("updates.rebuild"),
        "updates.redeploy_ms": own("updates.apply"),
        "updates.rebuild_fraction": _ratio(d("rebuild_fraction"), d("updates")),
        "updates.invalidated_rows": _ratio(d("invalidated"), d("updates")),
    }
    for kind in ("crash", "kill_worker", "latency", "drop", "truncate"):
        out[f"faults.injected.{kind}"] = d(f"injected.{kind}")
    for stage in ("spgemm_scaled", "sparse_add", "assemble_columns", "topk_rows",
                  "topk_rows_sparse"):
        out[f"core.{stage}_ms"] = own(f"core.{stage}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed)
    wl.max_rounds = int(MAX_ROUNDS_PER_SECOND * args.seconds) + 16

    setups = [wl.build() for _ in range(SETUP_REPEATS)]

    tracer = Tracer()
    rounds, layer_rows, plain, traced_secs, plain_secs = [], [], [], [], []
    start = perf_counter()
    r = 0
    while r < wl.max_rounds:
        traced = bool(args.trace) and r % 2 == 1
        patches = Patches()
        if traced:
            wl.trace(tracer, patches)
            first_span = len(tracer.spans)
            root = tracer.open("round")
        c0 = wl.counters()
        rnd = wl.run_round(r)
        c1 = wl.counters()
        if traced:
            tracer.close(root)
            patches.undo()
            layer_rows.append((tracer.self_times(first_span), c0, c1))
            traced_secs.append(rnd.seconds)
        else:
            plain.append((c0, c1, rnd))
            plain_secs.append(rnd.seconds)
        rounds.append(rnd)
        r += 1
        if perf_counter() - start >= args.seconds and (not args.trace or len(layer_rows) >= 1):
            break

    try:
        info = wl.verify()
        correct = True
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        info, correct = {}, False

    attempted = sum(x.requests + x.updates for x in rounds)
    failed = sum(x.failed for x in rounds)
    requests = sum(x.requests for x in rounds)
    if args.trace:
        metrics = {f"setup.{k}_s": float(np.median([b[k] for b in setups]))
                   for k in setups[0]}
        rows = [layer_metrics(s, c0, c1, info) for s, c0, c1 in layer_rows]
        for key in rows[0]:
            metrics[key] = float(np.median([row[key] for row in rows]))
        metrics.update(_untraced_rates(plain))
        metrics["trace.overhead_pct"] = (
            100.0 * (np.median(traced_secs) / np.median(plain_secs) - 1.0)
        )
        units = PER_LAYER_UNITS
        out_dir = ROOT / "perfbench" / "out"
        tracer.dump(out_dir / f"trace-{args.workload}-{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed,
                     "rounds": len(rounds), "traced_rounds": len(layer_rows)})
    else:
        # Each timing is the median over the run's rounds of that round's
        # figure, so a burst of outside load moves one round, not the run.
        metrics = {
            "setup_s": float(np.median([sum(b.values()) for b in setups])),
            "requests_per_s": float(np.median([x.requests / x.seconds for x in rounds])),
            "request_p50_ms": float(np.median([np.percentile(x.latencies, 50)
                                               for x in rounds])) * 1e3,
            "request_p99_ms": float(np.median([np.percentile(x.latencies, 99)
                                               for x in rounds])) * 1e3,
            "wire_kb_per_query": wl.wire_kb_per_query(plain[0][0], plain[-1][1]),
            "index_mb": wl.index_mb(),
            "peak_rss_mb": rss_peak_mb(),
        }
        units = END_TO_END_UNITS

    from repro.bench import kernel_backend_info

    print(json.dumps({
        "info": {
            "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
            "requests": requests, "setup_repeats": SETUP_REPEATS,
            "setup_each_s": [sum(b.values()) for b in setups], "pinned_cpu": PINNED_CPU,
            "threads_cap": NCPU,
            "checks": info, **kernel_backend_info(),
        }
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }))
    return 0


def _untraced_rates(plain: list) -> dict[str, float]:
    """The figures the end-to-end set leaves out, from untraced rounds:
    sparse-PPV and top-k throughput (batch-sparse), update latency
    (cluster-updates); 0 where a workload has no such operation."""
    def summed(key: str) -> float:
        return sum(_delta(c0, c1, key) for c0, c1, _ in plain)

    asked = summed("requests") if "sparse_s" in plain[0][1] else 0.0
    updates = [t for _, _, rnd in plain for t in rnd.update_seconds]
    return {
        "vectors_per_s": _ratio(asked, summed("sparse_s")),
        "topk_per_s": _ratio(asked, summed("topk_s")),
        "update_p50_ms": float(np.median(updates)) * 1e3 if updates else 0.0,
    }


if __name__ == "__main__":
    sys.exit(main())
