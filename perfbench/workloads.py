"""The four benchmark workloads, driven through the public ``repro`` API.

Each workload has four steps:

* ``make_inputs(seed)`` builds the graph and, from the seed, the traffic
  of each *part*: one independent realisation of the workload's query or
  arrival stream. It also computes the reference answers. It is not
  timed. The graph is the same ``webgraph`` instance for every seed, so
  the seed moves the traffic and not the dataset.
* ``setup(inputs, graph, tracer)`` goes from the in-memory graph to an
  open service ready to serve, with one span per preprocessing phase.
  Nothing is memoised across setups: each one builds its own
  ``GraphAssets``.
* ``serve_part(inputs, part, deployment, tracer)`` serves one part on a
  cold service and returns what the program gave back (``Served``). It
  makes only the program's calls, so it is what a serve's wall time
  covers.
* ``assess(inputs, part, deployment, served)`` turns that into the part's
  simulated outcome and checks it, outside the timed serve. The outcome
  must be bit-identical every time the same part is served.

``combine`` pools the parts of a run into the end-to-end simulated
metrics: percentiles over the pooled samples, and the worst-window p95 as
the median over parts. Pooling several realisations is what keeps a run's
figures steady from one seed to the next.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from itertools import chain
from statistics import median
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import ChaosEvent, GraphAssets, GraphService
from repro.bench.adaptive import SUBMIT_BATCH
from repro.bench.chaos import (
    CHAOS_CACHE_BYTES,
    CHAOS_CHURN,
    CHAOS_SERVER,
    FAIL_AT,
    JOIN_AT,
    RECOVER_AT,
    failover_topology,
)
from repro.bench.experiments import scheme_config
from repro.bench.operator_mix import operator_mix_workload
from repro.bench.slo import SLO_ADMISSION, slo_workload
from repro.core import QueryIdAllocator, query_ids_from
from repro.datasets import load_dataset
from repro.graph.csr import CSRGraph
from repro.graph.updates import GraphUpdate
from repro.workloads import (
    churn_stream,
    hotspot_workload,
    merge_arrivals,
    poisson_arrivals,
)

from oracle import Oracle

#: Landmark and embedding parameters (the paper's defaults).
NUM_LANDMARKS, MIN_SEPARATION, DIM = 96, 3, 10

#: Seed of the dataset instance every run serves (the one the
#: repository's own benchmarks use).
GRAPH_SEED = 1

#: Open-loop latency limit on p99, measured from each arrival's due time.
SLO_LIMIT_S = 500e-6

#: Serve windows for the worst-window p95: at most this many, and at least
#: this many queries in each, so >= 10 samples lie beyond every p95.
MAX_WINDOWS, MIN_WINDOW_QUERIES = 8, 200


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, the same rule as ``WorkloadReport``."""
    if not sorted_values:
        return 0.0
    rank = int(round(q / 100 * (len(sorted_values) - 1)))
    return sorted_values[min(len(sorted_values) - 1, max(0, rank))]


@dataclass
class PartResult:
    """Simulated outcome of serving one part."""

    queries: int
    completed: int
    operations: int
    failed_ops: int
    #: Headline latency of every answered query (seconds).
    latencies: List[float]
    worst_window_p95: float
    #: Simulated seconds the headline serve took.
    makespan: float
    layer: Dict[str, float]
    digest: str
    wrong: List[str] = field(default_factory=list)
    #: Conservation laws that did not hold.
    problems: List[str] = field(default_factory=list)
    #: Open loop on a rate ladder: the offered rate, and the queries that
    #: missed the latency limit or were refused.
    rate: float = 0.0
    misses: int = 0


@dataclass
class Served:
    """What one serve of a part returned."""

    report: object
    #: Simulated time the serve started at.
    origin: float = 0.0
    #: ``session.serve``'s admission stats (open loop only).
    stats: object = None


@dataclass
class Deployment:
    graph: object
    assets: Optional[GraphAssets]
    config: object
    service: Optional[GraphService]


def _digest(records, extra) -> str:
    h = hashlib.sha256()
    for r in sorted(records, key=lambda r: r.query_id):
        h.update(repr((
            r.query_id, r.processor, r.stolen, r.routed_via, r.decision_time,
            r.enqueued_at, r.started_at, r.finished_at, r.stats.result,
            r.stats.cache_hits, r.stats.bytes_fetched,
        )).encode())
    h.update(repr(extra).encode())
    return h.hexdigest()


def _check_answers(records, answers: Dict[int, object]) -> List[str]:
    wrong = []
    for r in records:
        expected = answers.get(r.query_id)
        if r.stats.result != expected:
            wrong.append(f"query {r.query_id} ({r.operator}): "
                         f"{r.stats.result!r} != reference {expected!r}")
    return wrong


def _worst_window_p95(report, latency) -> float:
    """Worst p95 of ``latency(record)`` over the report's serve windows."""
    count = max(1, min(MAX_WINDOWS, len(report.records) // MIN_WINDOW_QUERIES))
    worst = 0.0
    for window in report.windows(count):
        values = sorted(latency(r) for r in window.records)
        if values:
            worst = max(worst, percentile(values, 95))
    return worst


def _layer_counters(service, report, waits) -> Dict[str, float]:
    """Simulated per-layer counters of one served report. ``waits`` are
    the admission waits: router submit time minus the due time."""
    records = report.records
    n = max(1, len(records))
    caches = [p.cache.stats for p in service.processors]
    queue_waits = sorted(r.started_at - r.enqueued_at for r in records)
    waits = sorted(waits)
    topology = service.topology.snapshot() if service.topology else {}
    admission = report.admission
    return {
        "sim.events_per_query": service.env.events_processed / n,
        "routing.decision_us": 1e6 * sum(r.decision_time for r in records) / n,
        "routing.stolen_frac": report.stolen_count() / n,
        "routing.load_imbalance": report.load_imbalance(),
        "processor.queue_wait_p99_us": 1e6 * percentile(queue_waits, 99),
        "processor.max_utilization": max(service.processor_utilizations()),
        "cache.hit_rate": report.cache_hit_rate(),
        "cache.evictions": sum(c.evictions for c in caches),
        "cache.invalidations": sum(c.invalidations for c in caches),
        "gather.storage_requests_per_query":
            sum(r.stats.storage_requests for r in records) / n,
        "storage.bytes_per_query":
            sum(s["bytes_served"] for s in service.server_stats()) / n,
        "storage.max_utilization": max(service.storage_utilizations()),
        "storage.request_imbalance": report.storage_request_imbalance(),
        "operators.nodes_per_query":
            sum(r.stats.nodes_touched for r in records) / n,
        "admission.wait_p50_us": 1e6 * percentile(waits, 50),
        "admission.wait_p99_us": 1e6 * percentile(waits, 99),
        "admission.shed": admission.shed if admission else 0,
        "admission.rejected": admission.rejected if admission else 0,
        "updates.applied": service.updates.updates_applied,
        "updates.bytes_written": service.updates.bytes_written,
        "updates.write_failures": int(topology.get("write_failures", 0)),
        "topology.repair_rounds": int(topology.get("repair_rounds", 0)),
        "topology.repair_bytes": int(topology.get("repair_bytes", 0)),
        "topology.storage_retries": int(topology.get("storage_retries", 0)),
    }


def _due_latency(records, due: Dict[int, float], origin: float):
    """Per query id: completion time minus the arrival's due time."""
    return {r.query_id: r.finished_at - (origin + due[r.query_id])
            for r in records}


def _csr_ctx(graph):
    """What the ``repro.bench`` workload generators read from a context."""
    csr = CSRGraph.from_graph(graph, direction="both")
    return SimpleNamespace(graph=graph, assets=SimpleNamespace(csr_both=csr))


def _embedding_pairs(graph, csr, seed: int, num_pairs: int = 300):
    """Fig 12(a)'s node pairs: same-hotspot pairs, topped up at random."""
    queries = hotspot_workload(graph, num_hotspots=50, seed=seed, csr=csr)
    nodes = [q.node for q in queries]
    pairs = [
        (nodes[i], nodes[i + 1]) for i in range(0, len(nodes) - 1, 2)
        if nodes[i] != nodes[i + 1]
    ]
    rng = np.random.default_rng(seed)
    while len(pairs) < num_pairs:
        a, b = rng.choice(csr.node_ids, size=2, replace=False)
        pairs.append((int(a), int(b)))
    return pairs[:num_pairs]


class Workload:
    """Common setup phases and pooling; subclasses pick the graph, the
    config and the traffic."""

    name = ""
    scale = 1.0
    #: Routing preprocessing the service needs: None, "lmds" or "simplex".
    embed_method: Optional[str] = "lmds"
    #: Independent traffic realisations per run.
    parts = 3
    #: Setups a run starts with, one before each part's first serve
    #: (``setup_s`` is the median of every setup of the run).
    setup_reps = 3
    #: Whether every serve needs a setup of its own (the graph changes).
    setup_per_serve = False

    def config(self, inputs):
        raise NotImplementedError

    def make_inputs(self, seed: int) -> SimpleNamespace:
        graph = load_dataset("webgraph", scale=self.scale, seed=GRAPH_SEED)
        inputs = SimpleNamespace(seed=seed, graph=graph)
        ctx = _csr_ctx(graph)
        self.prepare(inputs, ctx)
        inputs.parts = [
            self.make_part(inputs, ctx, seed * self.parts + index, index)
            for index in range(self.parts)
        ]
        queries = chain.from_iterable(self.queries_of(p) for p in inputs.parts)
        inputs.answers = Oracle(graph).answers(queries)
        return inputs

    def prepare(self, inputs, ctx) -> None:
        """Traffic shared by every part (none by default)."""

    def make_part(self, inputs, ctx, seed: int, index: int):
        """The traffic of part ``index``, drawn from ``seed``."""
        raise NotImplementedError

    def queries_of(self, part):
        return part

    def fresh_graph(self, inputs):
        """The graph one setup starts from (made before setup is timed)."""
        return inputs.graph

    def setup(self, inputs, graph, tracer) -> Deployment:
        with tracer.span("setup"):
            config = self.config(inputs)
            with tracer.span("graph.csr"):
                assets = GraphAssets(graph)
                assets.csr_out, assets.csr_in
            with tracer.span("graph.records"):
                assets.record_sizes
                assets.owner_array(config.num_storage_servers)
            if self.embed_method is not None:
                with tracer.span("landmarks.bfs"):
                    assets.landmark_distances(NUM_LANDMARKS, MIN_SEPARATION)
                with tracer.span("landmarks.index"):
                    assets.landmark_index(config.num_processors,
                                          NUM_LANDMARKS, MIN_SEPARATION)
                with tracer.span("embedding.embed"):
                    assets.embedding(DIM, NUM_LANDMARKS, MIN_SEPARATION,
                                     self.embed_method)
            deployment = Deployment(graph, assets, config, None)
            self.open_service(inputs, deployment, tracer)
        return deployment

    def open_service(self, inputs, deployment, tracer) -> GraphService:
        del inputs
        with tracer.span("service.open"):
            deployment.service = GraphService.open(
                deployment.graph, deployment.config, assets=deployment.assets)
        return deployment.service

    def redeploy(self, inputs, deployment, tracer) -> Deployment:
        """A cold deployment for the next serve. The graph is static, so a
        fresh service over the same assets is enough."""
        self.open_service(inputs, deployment, tracer)
        return deployment

    def embedding_error(self, inputs, deployment) -> float:
        if self.embed_method is None:
            return 0.0
        assets = deployment.assets
        embedding = assets.embedding(DIM, NUM_LANDMARKS, MIN_SEPARATION,
                                     self.embed_method)
        pairs = _embedding_pairs(inputs.graph, assets.csr_both, inputs.seed)
        return float(embedding.relative_errors(assets.csr_both, pairs,
                                               max_hops=10).mean())

    def serve_part(self, inputs, part, deployment, tracer) -> Served:
        raise NotImplementedError

    def assess(self, inputs, part, deployment, served) -> PartResult:
        raise NotImplementedError

    def combine(self, parts: List[PartResult]) -> Dict[str, float]:
        """End-to-end simulated metrics of a run's parts."""
        latencies = sorted(chain.from_iterable(p.latencies for p in parts))
        return {
            "sim_throughput_qps": (sum(p.completed for p in parts)
                                   / sum(p.makespan for p in parts)),
            "sim_p50_us": 1e6 * percentile(latencies, 50),
            "sim_p99_us": 1e6 * percentile(latencies, 99),
            "sim_worst_window_p95_us":
                1e6 * median(p.worst_window_p95 for p in parts),
            "answered_frac": 1.0 - (sum(p.failed_ops for p in parts)
                                    / sum(p.operations for p in parts)),
        }


class _ClosedLoop(Workload):
    """Closed-loop serve of a query list; latency is response time."""

    def serve_part(self, inputs, part, deployment, tracer) -> Served:
        service = deployment.service
        with service:
            with service.session() as session:
                session.stream(part)
                session.drain()
                with tracer.span("metrics.report"):
                    report = session.report()
        return Served(report)

    def assess(self, inputs, part, deployment, served) -> PartResult:
        report = served.report
        layer = _layer_counters(deployment.service, report, [0.0])
        records = report.records
        problems = []
        if len(records) != len(part):
            problems.append(f"{len(records)} of {len(part)} closed-loop "
                            "queries completed")
        return PartResult(
            queries=len(part), completed=len(records), operations=len(part),
            failed_ops=len(part) - len(records),
            latencies=[r.response_time for r in records],
            worst_window_p95=_worst_window_p95(
                report, lambda r: r.response_time),
            makespan=report.makespan, layer=layer,
            digest=_digest(records, report.makespan),
            wrong=_check_answers(records, inputs.answers), problems=problems,
        )


class MixClosed(_ClosedLoop):
    name = "mix_closed"

    #: ~1/8 of the 4.1 MiB record-form graph: locality decides hits.
    CACHE_BYTES = 512 << 10

    def config(self, inputs):
        return replace(
            scheme_config("adaptive", cache_capacity_bytes=self.CACHE_BYTES),
            submit_batch=SUBMIT_BATCH,
        )

    def make_part(self, inputs, ctx, seed: int, index: int):
        # Disjoint query ids across parts: one reference-answer map.
        with query_ids_from(QueryIdAllocator(start=1 + 1_000_000 * seed)):
            return operator_mix_workload(ctx, seed=seed)


class Preprocess(_ClosedLoop):
    name = "preprocess"
    scale = 0.15
    embed_method = "simplex"
    parts = 6

    #: About 1/8 of the scale-0.15 graph, so the embedding decides hits.
    CACHE_BYTES = 64 << 10

    def config(self, inputs):
        return scheme_config("embed", embed_method="simplex",
                             cache_capacity_bytes=self.CACHE_BYTES)

    def make_part(self, inputs, ctx, seed: int, index: int):
        with query_ids_from(QueryIdAllocator(start=1 + 1_000_000 * seed)):
            return hotspot_workload(
                ctx.graph, num_hotspots=100, queries_per_hotspot=10,
                radius=2, hops=2, seed=seed, csr=ctx.assets.csr_both,
            )


class SloOpen(Workload):
    name = "slo_open"

    #: Offered rates (qps): 0.5-1.5x the calibrated 154,247 qps capacity,
    #: frozen so that a capacity change cannot move its own load points.
    LADDER = (77_124.0, 115_685.0, 138_822.0, 154_247.0, 185_096.0,
              231_370.0)
    #: The rate whose latencies are the headline p50/p99. Its rung comes
    #: first in every realisation, so part 0 (the traced one) is served
    #: at it.
    HEADLINE = LADDER[4]
    ORDER = (HEADLINE,) + LADDER[:4] + LADDER[5:]
    #: Poisson realisations of the whole ladder; each rung of each is a
    #: part of its own.
    REALISATIONS = 3
    parts = REALISATIONS * len(LADDER)

    def config(self, inputs):
        return scheme_config("adaptive")

    def prepare(self, inputs, ctx) -> None:
        inputs.tenants = slo_workload(ctx)

    def make_part(self, inputs, ctx, seed: int, index: int):
        """One Poisson arrival realisation of the two tenants at one rate."""
        rate = self.ORDER[index % len(self.ORDER)]
        interactive, analytics = inputs.tenants
        total = len(interactive) + len(analytics)
        return rate, list(merge_arrivals(
            poisson_arrivals(interactive,
                             rate=rate * len(interactive) / total,
                             tenant="interactive", seed=2 * seed),
            poisson_arrivals(analytics, rate=rate * len(analytics) / total,
                             tenant="analytics", seed=2 * seed + 1),
        ))

    def queries_of(self, part):
        return [arrival.query for arrival in part[1]]

    def serve_part(self, inputs, part, deployment, tracer) -> Served:
        _rate, arrivals = part
        service = deployment.service
        with service:
            with service.session() as session:
                origin = service.env.now
                stats = session.serve(arrivals, admission=SLO_ADMISSION)
                with tracer.span("metrics.report"):
                    report = session.report()
        return Served(report, origin, stats)

    def assess(self, inputs, part, deployment, served) -> PartResult:
        rate, arrivals = part
        report, origin, stats = served.report, served.origin, served.stats
        records = report.records
        due = {a.query.query_id: a.at for a in arrivals}
        latency = _due_latency(records, due, origin)
        layer = _layer_counters(deployment.service, report, [
            r.enqueued_at - (origin + due[r.query_id]) for r in records
        ])
        lost = len(arrivals) - len(records)
        problems = []
        if stats.offered != len(arrivals) or (
            lost != stats.shed + stats.rejected
        ):
            problems.append(
                f"{rate:.0f} qps: offered {stats.offered} of "
                f"{len(arrivals)} arrivals, completed {len(records)}, "
                f"shed {stats.shed}, rejected {stats.rejected}")
        return PartResult(
            queries=len(arrivals), completed=len(records),
            operations=len(arrivals), failed_ops=lost,
            latencies=list(latency.values()),
            worst_window_p95=_worst_window_p95(
                report, lambda r: latency[r.query_id]),
            makespan=report.makespan, layer=layer,
            digest=_digest(records, (stats.shed, stats.rejected)),
            wrong=_check_answers(records, inputs.answers), problems=problems,
            rate=rate,
            misses=lost + sum(1 for v in latency.values() if v > SLO_LIMIT_S),
        )

    def combine(self, parts: List[PartResult]) -> Dict[str, float]:
        metrics = super().combine(
            [p for p in parts if p.rate == self.HEADLINE])
        metrics["answered_frac"] = 1.0 - (
            sum(p.failed_ops for p in parts)
            / sum(p.operations for p in parts))
        fracs = []
        for rate in self.LADDER:
            rung = [p for p in parts if p.rate == rate]
            fracs.append(sum(p.misses for p in rung)
                         / sum(p.operations for p in rung))
        metrics["sim_throughput_qps"] = slo_max_rate(self.LADDER, fracs)
        return metrics


def slo_max_rate(ladder: Sequence[float], miss_fracs: Sequence[float],
                 limit: float = 0.01) -> float:
    """Highest offered rate whose p99 meets the limit, failures counted
    as misses: the p99 holds while at most 1% of the offered queries miss.

    Interpolated linearly between the last rung that meets it and the
    first that does not, so the estimate moves smoothly with capacity
    instead of jumping a whole rung. 0 if the lowest rung already misses;
    the top rung if none does.
    """
    for rung, frac in enumerate(miss_fracs):
        if frac > limit:
            if rung == 0:
                return 0.0
            lo, hi = ladder[rung - 1], ladder[rung]
            f_lo = miss_fracs[rung - 1]
            return lo + (hi - lo) * (limit - f_lo) / (frac - f_lo)
    return float(ladder[-1])


class ChaosChurn(Workload):
    name = "chaos_churn"
    embed_method = None
    #: The outage's effect on the tail varies between arrival draws; four
    #: realisations keep a run's p99 steady.
    parts = 4
    #: Every serve sets up again on a fresh copy, so the parts and the
    #: repeated serve bring the run to five setups.
    setup_reps = 1
    setup_per_serve = True

    #: Fixed offered rate (operations/s), 0.7x the calibrated capacity.
    RATE = 16_365.0
    #: Churn rounds of fig_chaos's stream: 6 give 960 queries per part.
    ROUNDS = 6

    def config(self, inputs):
        return scheme_config(
            "hash", cache_capacity_bytes=CHAOS_CACHE_BYTES, steal=False,
            topology=failover_topology(inputs.outage_s),
        )

    def prepare(self, inputs, ctx) -> None:
        # fig_chaos's churn stream, fixed: the seed draws the arrivals.
        with query_ids_from(QueryIdAllocator(start=8_000_000)):
            inputs.items = list(churn_stream(
                inputs.graph.copy(), csr=ctx.assets.csr_both,
                **dict(CHAOS_CHURN, rounds=self.ROUNDS),
            ))
        inputs.num_updates = sum(
            1 for item in inputs.items if isinstance(item, GraphUpdate))
        inputs.num_queries = len(inputs.items) - inputs.num_updates
        span_s = len(inputs.items) / self.RATE
        inputs.outage_s = (RECOVER_AT - FAIL_AT) * span_s
        inputs.schedule = [
            ChaosEvent(at=FAIL_AT * span_s, action="fail_server",
                       target=CHAOS_SERVER),
            ChaosEvent(at=RECOVER_AT * span_s, action="recover_server",
                       target=CHAOS_SERVER),
            ChaosEvent(at=JOIN_AT * span_s, action="add_processor"),
        ]

    def make_part(self, inputs, ctx, seed: int, index: int):
        return list(poisson_arrivals(inputs.items, rate=self.RATE,
                                     tenant="clients", seed=seed))

    def queries_of(self, part):
        # Live updates change the answers: there is no static reference.
        return []

    def fresh_graph(self, inputs):
        # Updates mutate the graph, so every deployment gets its own copy.
        return inputs.graph.copy()

    def open_service(self, inputs, deployment, tracer) -> GraphService:
        service = super().open_service(inputs, deployment, tracer)
        service.topology.schedule(inputs.schedule)
        return service

    def serve_part(self, inputs, part, deployment, tracer) -> Served:
        service = deployment.service
        with service:
            with service.session() as session:
                origin = service.env.now
                session.serve(part)
                with tracer.span("metrics.report"):
                    report = session.report()
        return Served(report, origin)

    def assess(self, inputs, part, deployment, served) -> PartResult:
        report, origin = served.report, served.origin
        records = report.records
        due = {a.query.query_id: a.at for a in part
               if not isinstance(a.query, GraphUpdate)}
        latency = _due_latency(records, due, origin)
        layer = _layer_counters(deployment.service, report, [
            r.enqueued_at - (origin + due[r.query_id]) for r in records
        ])
        applied = int(layer["updates.applied"])
        lost = inputs.num_queries - len(records)
        problems = []
        if lost:
            problems.append(f"{lost} of {inputs.num_queries} queries "
                            "never completed")
        if applied != inputs.num_updates:
            problems.append(f"{applied} of {inputs.num_updates} updates "
                            "applied")
        return PartResult(
            queries=inputs.num_queries, completed=len(records),
            operations=inputs.num_queries + inputs.num_updates,
            failed_ops=(lost + inputs.num_updates - applied
                        + int(layer["updates.write_failures"])),
            latencies=list(latency.values()),
            worst_window_p95=_worst_window_p95(
                report, lambda r: latency[r.query_id]),
            makespan=report.makespan, layer=layer,
            digest=_digest(records, sorted(layer.items())),
            problems=problems,
        )


WORKLOADS = {w.name: w for w in (MixClosed(), SloOpen(), ChaosChurn(),
                                 Preprocess())}
