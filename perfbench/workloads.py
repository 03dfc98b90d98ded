"""The four workloads: inputs from a seed, timed rounds, checks, metrics.

Every workload follows the same life cycle, driven by ``run.py``:

``build()``
    one full set-up — graph, partition and index build, deployment and
    warm-up — returning its phase times.  ``run.py`` builds several
    times and keeps the last stack, so ``setup_s`` is a median.
``run_round(r)``
    one round of the same operations, built from ``(seed, r)`` alone;
    ``run.py`` times rounds until the run's seconds are used.
``trace(tracer, patches)``
    wraps the layers' public calls for a traced round.
``counters()``
    cumulative per-layer counters; ``run.py`` takes per-round deltas.
``verify()``
    checks the sampled answers (``oracle.py``) and the workload's own
    contracts; raises :class:`oracle.CheckFailed`.
``end_to_end(rounds)``
    the user-visible metrics of the timed rounds.

All load comes from this one thread.  Time is wall time
(``time.perf_counter``) unless a name carries ``_modeled``: the serving
stack's ``SimulatedClock`` only orders batches and faults, and no figure
adds the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

import repro.core.flat_index as flat_index_mod
import repro.core.hgpa as hgpa_mod
import repro.core.sparse_ops as sparse_ops_mod
import repro.distributed.hgpa_runtime as hgpa_runtime_mod
from repro import datasets
from repro.core.gpa import build_gpa_index
from repro.core.hgpa import build_hgpa_index
from repro.core.updates import EdgeUpdate, UpdateReceipt
from repro.distributed import DistributedHGPA
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.serving import PPVCache, PPVService, SimulatedClock, as_mutable_backend
from repro.sharding import RetryPolicy, ShardRouter, owner_map_from_partition

from oracle import (
    CheckFailed,
    ExactPPV,
    check_against_exact,
    check_bitwise,
    check_topk,
    gap_bound,
)
from tracing import Patches, Tracer

ALPHA = 0.15
TOL = 1e-4
ZIPF_EXPONENT = 1.2
ARRIVAL_RATE = 10_000.0  # requests per simulated second
WINDOW_S = 0.005  # PPVService batch window (simulated seconds)
MAX_BATCH = 256
MB = float(1 << 20)


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """The generator of one input stream of one run: same seed, same inputs."""
    return np.random.default_rng([seed, *stream])


def zipf_nodes(rng: np.random.Generator, perm: np.ndarray, size: int) -> np.ndarray:
    """``size`` request nodes, rank ``r`` drawn with weight ``r^-1.2``;
    ``perm`` maps ranks to node ids so the hot set is scattered."""
    ranks = np.arange(1, perm.size + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    cdf = np.cumsum(ranks)
    cdf /= cdf[-1]
    return perm[np.minimum(np.searchsorted(cdf, rng.random(size)), perm.size - 1)]


def poisson_arrivals(rng: np.random.Generator, size: int, start: float) -> np.ndarray:
    """``size`` arrivals of a Poisson process of rate ``ARRIVAL_RATE``
    conditioned on falling in ``[start, start + size / rate)`` — sorted
    uniforms — so round ``r`` occupies a fixed slot of simulated time."""
    span = size / ARRIVAL_RATE
    return start + np.sort(rng.uniform(0.0, span, size))


@dataclass
class Round:
    """What one timed round did: ``requests`` reads (``failed`` of them
    not answered fresh) and ``updates`` writes in ``seconds`` of wall
    time, with each read's wall latency."""

    requests: int
    failed: int
    seconds: float
    latencies: np.ndarray
    update_seconds: tuple[float, ...] = ()

    @property
    def updates(self) -> int:
        return len(self.update_seconds)


class RequestClock:
    """Wall latency of every request, timed from outside the service.

    Wraps the service's public ``submit``/``poll``/``flush`` (and
    ``apply_update``) on the instance.  A request's latency runs from
    the start of its ``submit`` call to the return of the call during
    which its batch was flushed; every flush resolves the whole queue,
    so one counter read per call finds them.
    """

    def __init__(self, service: PPVService, patches: Patches) -> None:
        self.service = service
        self.latencies: list[float] = []
        self.update_seconds: list[float] = []
        self.receipts: list[Any] = []
        self._pending: list[float] = []
        self._batches = service.stats.batches
        patches.replace(service, "submit", self._wrap_submit)
        for name in ("poll", "flush"):
            patches.replace(service, name, self._wrap_call)
        patches.replace(service, "apply_update", self._wrap_update)

    def _settle(self, now: float) -> None:
        if self.service.stats.batches != self._batches:
            self._batches = self.service.stats.batches
            self.latencies.extend(now - t for t in self._pending)
            self._pending.clear()

    def _wrap_submit(self, fn: Any) -> Any:
        def submit(u: int) -> Any:
            t0 = perf_counter()
            ticket = fn(u)
            t1 = perf_counter()
            self._settle(t1)
            if ticket.done:
                self.latencies.append(t1 - t0)
            else:
                self._pending.append(t0)
            return ticket

        return submit

    def _wrap_call(self, fn: Any) -> Any:
        def call(*args: Any) -> Any:
            out = fn(*args)
            self._settle(perf_counter())
            return out

        return call

    def _wrap_update(self, fn: Any) -> Any:
        def apply_update(update: EdgeUpdate) -> Any:
            t0 = perf_counter()
            receipt = fn(update)
            self.update_seconds.append(perf_counter() - t0)
            self.receipts.append(receipt)
            return receipt

        return apply_update

    def take(self) -> np.ndarray:
        """Latencies recorded since the last call (all resolved)."""
        if self._pending:
            raise CheckFailed("requests left unresolved after a round")
        out = np.asarray(self.latencies)
        self.latencies = []
        return out


def rss_peak_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    """Shared life cycle; subclasses fill in the stack and the rounds."""

    name = ""
    round_requests = 0
    max_rounds = 64  # run.py sets it from --seconds

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self.patches = Patches()  # request clock wrappers, kept all run
        self.samples: list[Any] = []

    # Implemented by subclasses.
    def build(self) -> dict[str, float]:
        raise NotImplementedError

    def run_round(self, r: int) -> Round:
        raise NotImplementedError

    def trace(self, tracer: Tracer, patches: Patches) -> None:
        raise NotImplementedError

    def counters(self) -> dict[str, Any]:
        raise NotImplementedError

    def verify(self) -> dict[str, float]:
        raise NotImplementedError

    def wire_kb_per_query(self, c0: dict[str, Any], c1: dict[str, Any]) -> float:
        """Metered KB per deduplicated backend query between two counter
        snapshots."""
        queries = max(1, c1["unique"] - c0["unique"])
        return (c1["wire_bytes"] - c0["wire_bytes"]) / queries / 1024.0

    def index_mb(self) -> float:
        raise NotImplementedError

    def release(self) -> None:
        """Drop the previous stack before the next build, so two stacks
        never share memory."""
        self.patches.undo()
        self.samples = []
        for attr in ("graph", "index", "index0", "router", "service", "runtime",
                     "timer", "injector"):
            vars(self).pop(attr, None)


# ----------------------------------------------------------------------
# serve-sharded and serve-chaos
# ----------------------------------------------------------------------
class ServeSharded(Workload):
    """Zipf single-node requests through PPVService over a ShardRouter."""

    name = "serve-sharded"
    round_requests = 2048  # one PPVService.serve chunk
    dataset = "web"
    parts = 8
    shards = 4
    replicas = 2
    cache_rows = 64  # per-shard LRU capacity, in dense rows
    samples_per_round = 2

    def build(self) -> dict[str, float]:
        self.release()
        t0 = perf_counter()
        graph = datasets.spec(self.dataset).build()
        t1 = perf_counter()
        index = build_gpa_index(graph, self.parts, tol=TOL)
        t2 = perf_counter()
        n = graph.num_nodes
        clock = SimulatedClock()
        router = ShardRouter(
            [[index] * self.replicas for _ in range(self.shards)],
            policy="owner",
            owner_map=owner_map_from_partition(index.partition, self.shards),
            cache_bytes=self.cache_rows * n * 8,
            clock=clock,
            resilience=self.policy(),
        )
        self.attach_faults(router)
        service = PPVService(
            router, window=WINDOW_S, max_batch=MAX_BATCH, clock=clock,
            degrade=router.resilience is not None,
        )
        index.query_many(np.arange(8))  # builds the lazy stacked ops
        t3 = perf_counter()
        self.graph, self.index, self.router, self.service = graph, index, router, service
        self.timer = RequestClock(service, self.patches)
        self.perm = rng_for(self.seed, 0).permutation(n)
        return {"graph": t1 - t0, "index": t2 - t1, "deploy": t3 - t2}

    def policy(self) -> RetryPolicy | None:
        return None

    def attach_faults(self, router: ShardRouter) -> None:
        pass

    def round_inputs(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        rng = rng_for(self.seed, 1, r)
        size = self.round_requests
        nodes = zipf_nodes(rng, self.perm, size)
        return nodes, poisson_arrivals(rng, size, r * size / ARRIVAL_RATE)

    def run_round(self, r: int) -> Round:
        nodes, arrivals = self.round_inputs(r)
        shed0 = self.service.stats.shed + self.service.stats.degraded
        t0 = perf_counter()
        out = self.service.serve(nodes, arrivals)
        seconds = perf_counter() - t0
        failed = self.service.stats.shed + self.service.stats.degraded - shed0
        pick = rng_for(self.seed, 2, r).choice(nodes.size, self.samples_per_round,
                                                replace=False)
        for i in pick.tolist():
            self.samples.append((int(nodes[i]), out[i].copy()))
        del out
        return Round(nodes.size, failed, seconds, self.timer.take())

    def trace(self, tracer: Tracer, patches: Patches) -> None:
        wrap = tracer.wrap
        service, router = self.service, self.router
        patches.replace(service, "serve", lambda f: wrap("serving.serve", f))
        patches.replace(service, "_flush", lambda f: wrap("serving.flush", f))
        patches.replace(router, "query_many", lambda f: wrap("sharding.router", f))
        for shard in router.shards:
            for name in ("query_many_submit", "query_many_finish"):
                patches.replace(shard, name, lambda f: wrap("sharding.shard", f))
            for replica in shard.replicas:
                patches.replace(replica, "query_many",
                                lambda f: wrap("sharding.replica", f))
        patches.replace(self.index, "query_many", lambda f: wrap("core.query_many", f))

    def counters(self) -> dict[str, float]:
        stats = self.router.stats()
        res = stats.resilience
        served = sum(r.served_batches for s in self.router.shards for r in s.replicas)
        svc = self.service.stats
        return {
            "requests": svc.requests,
            "flushes": svc.batches,
            "unique": svc.batched_queries,
            "service_hits": svc.cache_hits,
            "modeled_latency_s": svc.total_latency_seconds,
            "shard_hits": stats.cache.hits if stats.cache else 0,
            "shard_lookups": (stats.cache.hits + stats.cache.misses) if stats.cache else 0,
            "shard_queries": list(stats.queries_by_shard),
            "wire_bytes": self.router.meter.total_bytes,
            "served_batches": served,
            "attempts": res.attempts if self.router.resilience else served,
            "retries": res.retries,
            "hedges": res.hedges,
        }

    def verify(self) -> dict[str, float]:
        nodes = np.asarray([u for u, _ in self.samples])
        rows = np.vstack([row for _, row in self.samples])
        src, dst = self.graph.edge_arrays()
        exact = ExactPPV(self.graph.num_nodes, src, dst, ALPHA).solve(nodes)
        gap = check_against_exact(
            f"{self.name}: served rows vs exact solve", nodes, rows, exact,
            gap_bound(ALPHA, TOL, self.index.prune),
        )
        # Sharded (under chaos: fault-handled) rows against the engine's
        # own batch answer, which is what a fault-free router returns.
        want, _ = self.index.query_many(nodes, collect_stats=False)
        check_bitwise(f"{self.name}: served rows vs GPAIndex.query_many", rows, want)
        return {"max_gap": gap, "checked_rows": float(nodes.size),
                "nnz_per_row": float(np.count_nonzero(rows) / nodes.size)}

    def index_mb(self) -> float:
        return self.index.total_bytes() / MB


class ServeChaos(ServeSharded):
    """The serve-sharded stack with retries/hedging and a seeded fault plan."""

    name = "serve-chaos"

    def policy(self) -> RetryPolicy | None:
        return RetryPolicy(
            max_attempts=4,
            backoff_seconds=0.002,
            timeout_seconds=0.1,
            hedge_after_seconds=0.01,
            degrade=True,
            seed=self.seed,
        )

    def plan(self) -> FaultPlan:
        """One crash, two worker deaths, one straggler window, one dropped
        and one truncated payload in every round's slot of simulated
        time.  Crash windows end inside their slot, so at most one
        replica of a shard is ever down: the plan keeps quorum."""
        rng = rng_for(self.seed, 4)
        span = self.round_requests / ARRIVAL_RATE
        events = []
        for r in range(self.max_rounds):
            base = r * span

            def at(lo: float, hi: float) -> float:
                return base + float(rng.uniform(lo, hi)) * span

            def target() -> tuple[int, int]:
                return int(rng.integers(self.shards)), int(rng.integers(self.replicas))

            s, p = target()
            events.append(FaultEvent(at(0.05, 0.5), "crash", shard=s, replica=p,
                                     duration=0.3 * span))
            for _ in range(2):
                s, p = target()
                events.append(FaultEvent(at(0.0, 0.8), "kill_worker", shard=s, replica=p))
            s, p = target()
            events.append(FaultEvent(at(0.0, 0.5), "latency", shard=s, replica=p,
                                     duration=0.4 * span,
                                     delay=float(rng.uniform(0.02, 0.04))))
            for kind in ("drop", "truncate"):
                events.append(FaultEvent(at(0.0, 0.9), kind,
                                         shard=int(rng.integers(self.shards))))
        plan = FaultPlan(tuple(events), seed=self.seed)
        if not plan.keeps_quorum(self.shards, self.replicas):
            raise CheckFailed("serve-chaos: generated fault plan loses quorum")
        return plan

    def attach_faults(self, router: ShardRouter) -> None:
        self.injector = FaultInjector(self.plan()).attach(router)
        # Straggler windows are not counted by the injector; count the
        # probes that report injected latency from outside.
        self.latency_hits = 0
        for shard in router.shards:
            for replica in shard.replicas:
                replica.fault_hook = _CountingProbe(replica.fault_hook, self)

    def counters(self) -> dict[str, float]:
        out = super().counters()
        for kind in ("crash", "kill_worker", "drop", "truncate"):
            out[f"injected.{kind}"] = self.injector.injected.get(kind, 0)
        out["injected.latency"] = self.latency_hits
        return out

    def verify(self) -> dict[str, float]:
        out = super().verify()
        c = self.counters()
        fired = {k: c[f"injected.{k}"] for k in
                 ("crash", "kill_worker", "latency", "drop", "truncate")}
        quiet = [k for k, v in fired.items() if v <= 0]
        if quiet:
            raise CheckFailed(f"serve-chaos: fault kinds never fired: {quiet}")
        if c["retries"] <= 0 or c["hedges"] <= 0:
            raise CheckFailed(
                f"serve-chaos: resilience idle (retries={c['retries']}, "
                f"hedges={c['hedges']})"
            )
        return out


class _CountingProbe:
    """A replica fault hook that counts straggler-latency injections."""

    def __init__(self, inner: Any, owner: ServeChaos) -> None:
        self._inner, self._owner = inner, owner

    def before_serve(self, now: float) -> None:
        self._inner.before_serve(now)

    def latency(self, now: float) -> float:
        delay = self._inner.latency(now)
        if delay > 0.0:
            self._owner.latency_hits += 1
        return delay


# ----------------------------------------------------------------------
# batch-sparse
# ----------------------------------------------------------------------
class BatchSparse(Workload):
    """Every node of pld, sparse PPVs and top-20, on a pruned HGPA index."""

    name = "batch-sparse"
    dataset = "pld"
    prune = 2e-3  # the HGPA_ad regime at this graph size
    batch = 256
    k = 20
    samples_per_round = 4

    def build(self) -> dict[str, float]:
        self.release()
        t0 = perf_counter()
        graph = datasets.spec(self.dataset).build()
        t1 = perf_counter()
        index = build_hgpa_index(
            graph, max_levels=datasets.spec(self.dataset).hgpa_levels,
            tol=TOL, prune=self.prune,
        )
        t2 = perf_counter()
        # Warm-up: one sparse pass stacks every level's lazy ops.
        index.query_many_sparse(np.arange(graph.num_nodes), collect_stats=False)
        t3 = perf_counter()
        self.graph, self.index = graph, index
        self.round_requests = graph.num_nodes
        self.sparse_s = self.topk_s = 0.0
        self.answer_bytes = self.nnz = self.asked = 0
        return {"graph": t1 - t0, "index": t2 - t1, "deploy": t3 - t2}

    def run_round(self, r: int) -> Round:
        """A request asks one node for its full sparse PPV and its top-20;
        its latency is its batch's two calls."""
        order = rng_for(self.seed, 1, r).permutation(self.graph.num_nodes)
        pick = set(rng_for(self.seed, 2, r).choice(order.size, self.samples_per_round,
                                                    replace=False).tolist())
        lat = []
        t_round = perf_counter()
        for lo in range(0, order.size, self.batch):
            chunk = order[lo:lo + self.batch]
            t0 = perf_counter()
            rows, _ = self.index.query_many_sparse(chunk, collect_stats=False)
            t1 = perf_counter()
            ids, scores, _ = self.index.query_many_topk(chunk, self.k)
            t2 = perf_counter()
            self.sparse_s += t1 - t0
            self.topk_s += t2 - t1
            lat.extend([t2 - t0] * chunk.size)
            self.nnz += rows.nnz
            self.asked += chunk.size
            self.answer_bytes += 16 * chunk.size + 12 * rows.nnz + 16 * ids.size
            for i in range(lo, lo + chunk.size):
                if i in pick:
                    j = i - lo
                    self.samples.append((int(chunk[j]), rows[j].toarray()[0],
                                         ids[j].copy(), scores[j].copy()))
        seconds = perf_counter() - t_round
        return Round(order.size, 0, seconds, np.asarray(lat))

    def trace(self, tracer: Tracer, patches: Patches) -> None:
        wrap = tracer.wrap
        idx = self.index
        for name, label in (("query_many", "core.query_many"),
                            ("query_many_sparse", "core.query_many_sparse"),
                            ("query_many_topk", "core.query_many_topk")):
            patches.replace(idx, name, lambda f, label=label: wrap(label, f))
        trace_stages(tracer, patches)

    def counters(self) -> dict[str, float]:
        return {"requests": self.asked, "sparse_s": self.sparse_s,
                "topk_s": self.topk_s, "nnz": self.nnz,
                "answer_bytes": self.answer_bytes}

    def verify(self) -> dict[str, float]:
        nodes = np.asarray([s[0] for s in self.samples])
        sparse_rows = np.vstack([s[1] for s in self.samples])
        ids = np.vstack([s[2] for s in self.samples])
        scores = np.vstack([s[3] for s in self.samples])
        src, dst = self.graph.edge_arrays()
        exact = ExactPPV(self.graph.num_nodes, src, dst, ALPHA).solve(nodes)
        gap = check_against_exact(
            "batch-sparse: sparse rows vs exact solve", nodes, sparse_rows, exact,
            gap_bound(ALPHA, TOL, self.prune),
        )
        dense, _ = self.index.query_many(nodes, collect_stats=False)
        check_bitwise("batch-sparse: query_many_sparse vs query_many", sparse_rows, dense)
        check_topk("batch-sparse: query_many_topk vs full rows", ids, scores, dense, self.k)
        return {"max_gap": gap, "checked_rows": float(nodes.size)}

    def wire_kb_per_query(self, c0: dict[str, Any], c1: dict[str, Any]) -> float:
        # No wire here: the wire-format size of the answers themselves
        # (16 + 12 nnz bytes per sparse row, 16 per top-k entry).
        asked = max(1, c1["requests"] - c0["requests"])
        return (c1["answer_bytes"] - c0["answer_bytes"]) / asked / 1024.0

    def index_mb(self) -> float:
        return self.index.total_bytes() / MB


def trace_stages(tracer: Tracer, patches: Patches) -> None:
    """Wrap the engine's stage functions where their callers look them up
    (they are imported by name into ``core.hgpa`` and ``core.flat_index``)."""
    sites = {
        "spgemm_scaled": (hgpa_mod, flat_index_mod),
        "sparse_add": (hgpa_mod, flat_index_mod, sparse_ops_mod),
        "assemble_columns": (sparse_ops_mod,),
        "topk_rows": (flat_index_mod,),
        "topk_rows_sparse": (flat_index_mod,),
    }
    for fn, modules in sites.items():
        for mod in modules:
            patches.replace(mod, fn, lambda f, fn=fn: tracer.wrap(f"core.{fn}", f))


# ----------------------------------------------------------------------
# cluster-updates
# ----------------------------------------------------------------------
def warm_nodes(index: Any) -> np.ndarray:
    """One non-hub node per subgraph of an HGPA index's hierarchy."""
    hierarchy = index.hierarchy
    picks = set()
    for sg in hierarchy.subgraphs:
        for u in sg.nodes.tolist():
            if not hierarchy.is_hub(u):
                picks.add(u)
                break
    return np.asarray(sorted(picks), dtype=np.int64)


class ClusterUpdates(Workload):
    """DistributedHGPA behind a cached PPVService, reads with live updates."""

    name = "cluster-updates"
    round_requests = 1024  # plus one edge update in the middle
    dataset = "web"
    machines = 8
    cache_rows = 256
    samples_per_half = 2

    def build(self) -> dict[str, float]:
        self.release()
        t0 = perf_counter()
        graph = datasets.spec(self.dataset).build()
        t1 = perf_counter()
        index = build_hgpa_index(
            graph, max_levels=datasets.spec(self.dataset).hgpa_levels, tol=TOL
        )
        t2 = perf_counter()
        runtime = DistributedHGPA(index, self.machines)
        n = graph.num_nodes
        clock = SimulatedClock()
        # PPVService(runtime) cannot apply updates: as_backend hides the
        # runtime's apply_update, so the runtime is wrapped explicitly.
        service = PPVService(
            as_mutable_backend(runtime), window=WINDOW_S, max_batch=MAX_BATCH,
            cache=PPVCache(self.cache_rows * n * 8), clock=clock,
        )
        # Warm-up: one non-hub node of every hierarchy subgraph — their
        # chains reach every subgraph, which stacks each machine's lazy
        # per-level ops.
        runtime.query_many(warm_nodes(index), collect_stats=False)
        t3 = perf_counter()
        self.graph, self.index0, self.runtime, self.service = graph, index, runtime, service
        self.timer = RequestClock(service, self.patches)
        self.perm = rng_for(self.seed, 0).permutation(n)
        src, dst = graph.edge_arrays()
        self.edges = [(src, dst)]  # edge set after each update, own copy
        adjacency = sp.csr_matrix((np.ones(src.size), (src, dst)), shape=(n, n))
        _, labels = connected_components(adjacency, connection="strong")
        self.giant = labels == np.argmax(np.bincount(labels))
        self.inserted: list[tuple[int, int]] = []
        self.present = set(zip(src.tolist(), dst.tolist()))
        return {"graph": t1 - t0, "index": t2 - t1, "deploy": t3 - t2}

    def next_update(self, r: int) -> EdgeUpdate:
        """Even rounds insert a seeded new edge, odd rounds delete it again,
        so the graph stays near the original and rounds stay alike.

        Both endpoints are non-hub nodes of one leaf community of the
        hierarchy, inside the graph's largest strongly connected
        component.  The insert needs no hub promotion, so every update
        rebuilds one root-to-leaf chain (about 15% of the stored vectors),
        and nearly every node reaches the edge, so every update
        invalidates nearly every cached row: update cost and its effect
        on the cache do not hinge on which edge the seed drew.
        """
        if r % 2:
            u, v = self.inserted[-1]
            return EdgeUpdate.delete(u, v)
        rng = rng_for(self.seed, 3, r)
        hierarchy = self.index0.hierarchy
        leaves = [sg for sg in hierarchy.subgraphs if not sg.children]
        while True:
            leaf = leaves[int(rng.integers(len(leaves)))]
            members = [x for x in leaf.nodes.tolist()
                       if self.giant[x] and not hierarchy.is_hub(x)]
            if len(members) < 2:
                continue
            u, v = (int(x) for x in rng.choice(members, 2, replace=False))
            if (u, v) not in self.present:
                self.inserted.append((u, v))
                return EdgeUpdate.insert(u, v)

    def run_round(self, r: int) -> Round:
        rng = rng_for(self.seed, 1, r)
        size = self.round_requests
        nodes = zipf_nodes(rng, self.perm, size)
        arrivals = poisson_arrivals(rng, size, r * size / ARRIVAL_RATE)
        half = size // 2
        update = self.next_update(r)
        events: list[tuple[float, Any]] = list(zip(arrivals[:half].tolist(), nodes[:half].tolist()))
        events.append((float(arrivals[half]), update))
        events.extend(zip(arrivals[half:].tolist(), nodes[half:].tolist()))
        epoch0 = self.service.epoch
        t0 = perf_counter()
        outcomes = self.service.replay(events)
        seconds = perf_counter() - t0
        self._track_edges(update)
        tickets = [o for o in outcomes if not isinstance(o, UpdateReceipt)]
        failed = sum(1 for t in tickets if t.status != "ok")
        pick = rng_for(self.seed, 2, r)
        state = len(self.edges) - 1
        for lo, hi, st, epoch in ((0, half, state - 1, epoch0),
                                  (half, size, state, epoch0 + 1)):
            for i in pick.choice(np.arange(lo, hi), self.samples_per_half,
                                 replace=False).tolist():
                t = tickets[i]
                if t.epoch != epoch:
                    raise CheckFailed(
                        f"cluster-updates: request answered at epoch {t.epoch}, "
                        f"expected {epoch}"
                    )
                self.samples.append((t.node, np.array(t.result), st))
        return Round(size, failed, seconds, self.timer.take(),
                     tuple(self.timer.update_seconds[-1:]))

    def _track_edges(self, update: EdgeUpdate) -> None:
        src, dst = self.edges[-1]
        if update.op == "insert":
            self.present.add((update.u, update.v))
            self.edges.append((np.append(src, update.u), np.append(dst, update.v)))
        else:
            self.present.discard((update.u, update.v))
            hit = np.nonzero((src == update.u) & (dst == update.v))[0]
            keep = np.ones(src.size, dtype=bool)
            keep[hit[-1]] = False
            self.edges.append((src[keep], dst[keep]))

    def trace(self, tracer: Tracer, patches: Patches) -> None:
        wrap = tracer.wrap
        service, runtime = self.service, self.runtime
        patches.replace(service, "replay", lambda f: wrap("serving.serve", f))
        patches.replace(service, "_flush", lambda f: wrap("serving.flush", f))
        patches.replace(runtime, "query_many", lambda f: wrap("distributed.query_many", f))
        patches.replace(runtime, "apply_update", lambda f: wrap("updates.apply", f))
        patches.replace(hgpa_runtime_mod, "apply_edge_update",
                        lambda f: wrap("updates.rebuild", f))

    def counters(self) -> dict[str, float]:
        svc = self.service.stats
        meter = self.runtime.coordinator.meter
        cache = self.service.cache.stats
        return {
            "requests": svc.requests,
            "flushes": svc.batches,
            "unique": svc.batched_queries,
            "service_hits": svc.cache_hits,
            "modeled_latency_s": svc.total_latency_seconds,
            "wire_bytes": meter.total_bytes,
            "messages": meter.total_messages,
            "invalidated": cache.invalidations,
            "updates": len(self.timer.receipts),
            "rebuild_fraction": sum(r.stats.rebuild_fraction for r in self.timer.receipts),
        }

    def verify(self) -> dict[str, float]:
        bound = gap_bound(ALPHA, TOL, self.index0.prune)
        worst = 0.0
        by_state: dict[int, list[tuple[int, np.ndarray]]] = {}
        for node, row, state in self.samples:
            by_state.setdefault(state, []).append((node, row))
        for state, items in sorted(by_state.items()):
            src, dst = self.edges[state]
            nodes = np.asarray([u for u, _ in items])
            rows = np.vstack([row for _, row in items])
            exact = ExactPPV(self.graph.num_nodes, src, dst, ALPHA).solve(nodes)
            worst = max(worst, check_against_exact(
                f"cluster-updates: rows after {state} update(s) vs exact solve",
                nodes, rows, exact, bound,
            ))
        if any(not r.changed for r in self.timer.receipts):
            raise CheckFailed("cluster-updates: an edge update changed nothing")
        rows = np.vstack([row for _, row, _ in self.samples])
        return {"max_gap": worst, "checked_rows": float(len(self.samples)),
                "nnz_per_row": float(np.count_nonzero(rows) / len(self.samples))}

    def index_mb(self) -> float:
        return self.runtime.total_stored_bytes() / MB


WORKLOADS = {
    cls.name: cls for cls in (ServeSharded, BatchSparse, ClusterUpdates, ServeChaos)
}
