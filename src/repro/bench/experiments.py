"""Core experiments: Tables 1-3 and Figures 7-10 of the paper.

Each function runs one experiment, prints its table and writes a JSON
artifact under ``bench_results/``. Absolute numbers differ from the paper
(the substrate is a calibrated simulator over scaled-down graph analogues);
the *shapes* — orderings, scaling behaviour, crossover points — are the
reproduction targets, and EXPERIMENTS.md records both sides.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..baselines import PowerGraphSystem, SedgeSystem
from ..core import ClusterConfig, GRoutingCluster, WorkloadReport
from ..costs import DEFAULT_COSTS, ETHERNET_COSTS
from ..datasets import dataset_info
from ..embedding import (
    GraphEmbedding,
    batch_nelder_mead,
    embed_landmarks,
    lmds_triangulate,
)
from ..embedding.embedder import _node_objective_factory
from ..landmarks import (
    UNREACHABLE,
    LandmarkDistances,
    LandmarkIndex,
    select_landmarks,
)
from .harness import ExperimentContext, Timer, emit, get_context

#: The five routing schemes of Figures 8/9/14/15/16.
SCHEMES = ("no_cache", "next_ready", "hash", "landmark", "embed")

#: §4.1 "Parameter Setting" defaults, adapted to the scaled-down graphs.
PAPER_DEFAULTS = dict(
    num_processors=7,
    num_storage_servers=4,
    cache_capacity_bytes=16 << 20,
    num_landmarks=96,
    min_separation=3,
    dim=10,
    load_factor=20.0,
    alpha=0.5,
    embed_method="lmds",  # routing-equivalent to simplex; see Table 2 bench
)


def scheme_config(routing: str, **overrides) -> ClusterConfig:
    params = dict(PAPER_DEFAULTS)
    params.update(overrides)
    return ClusterConfig(routing=routing, **params)


def run_scheme(
    ctx: ExperimentContext,
    routing: str,
    queries=None,
    landmark_index=None,
    embedding=None,
    **overrides,
) -> WorkloadReport:
    """One cold-cache cluster run of ``routing`` on the context's workload."""
    if queries is None:
        queries = ctx.workload()
    cluster = GRoutingCluster(
        ctx.graph,
        scheme_config(routing, **overrides),
        assets=ctx.assets,
        landmark_index=landmark_index,
        embedding=embedding,
    )
    return cluster.run(queries)


# -- Table 1 -----------------------------------------------------------------
def table1_datasets(scale: Optional[float] = None) -> List[List[object]]:
    """Table 1: the four dataset analogues and their sizes."""
    rows = []
    for name in ("webgraph", "friendster", "memetracker", "freebase"):
        ctx = get_context(name, scale=scale)
        info = dataset_info(name, ctx.graph)
        rows.append([
            info.name, info.num_nodes, info.num_edges,
            round(info.record_bytes / (1 << 20), 2),
        ])
    emit("Table 1: graph datasets (synthetic analogues)",
         ["dataset", "nodes", "edges", "size (MiB, record form)"],
         rows, "table1_datasets")
    return rows


# -- Figure 7 ----------------------------------------------------------------
def fig7_system_comparison(
    datasets: Sequence[str] = ("webgraph", "memetracker", "freebase"),
) -> List[List[object]]:
    """Fig 7: throughput of SEDGE, PowerGraph, gRouting-E, gRouting.

    Coupled systems get 12 servers; gRouting uses 1 router + 7 processors +
    4 storage servers (the paper's split).
    """
    rows = []
    for dataset in datasets:
        ctx = get_context(dataset)
        queries = ctx.workload()
        sedge = SedgeSystem(ctx.assets, num_servers=12).run(queries)
        powergraph = PowerGraphSystem(ctx.assets, num_servers=12).run(queries)
        grouting_e = run_scheme(ctx, "embed", costs=ETHERNET_COSTS)
        grouting = run_scheme(ctx, "embed", costs=DEFAULT_COSTS)
        rows.append([
            dataset,
            round(sedge.throughput(), 1),
            round(powergraph.throughput(), 1),
            round(grouting_e.throughput(), 1),
            round(grouting.throughput(), 1),
            round(grouting.throughput() / max(sedge.throughput(), 1e-9), 1),
        ])
    emit("Fig 7: system throughput comparison (queries/second)",
         ["dataset", "SEDGE/Giraph", "PowerGraph", "gRouting-E (ethernet)",
          "gRouting (infiniband)", "gRouting/SEDGE"],
         rows, "fig7_system_comparison")
    return rows


# -- Figure 8 ----------------------------------------------------------------
def fig8a_processor_scaling(
    processor_counts: Sequence[int] = (1, 2, 3, 4, 5, 6, 7),
) -> List[List[object]]:
    """Fig 8(a): throughput vs number of query processors, WebGraph."""
    ctx = get_context("webgraph")
    rows = []
    for count in processor_counts:
        row: List[object] = [count]
        for scheme in SCHEMES:
            report = run_scheme(ctx, scheme, num_processors=count)
            row.append(round(report.throughput(), 1))
        rows.append(row)
    emit("Fig 8(a): throughput vs query processors (queries/second)",
         ["processors", *SCHEMES], rows, "fig8a_processor_scaling")
    return rows


def fig8b_cache_hits(
    processor_counts: Sequence[int] = (1, 2, 3, 4, 5, 6, 7),
) -> List[List[object]]:
    """Fig 8(b): total cache hits (Eq. 8) vs number of query processors."""
    ctx = get_context("webgraph")
    rows = []
    total_accesses = None
    for count in processor_counts:
        row: List[object] = [count]
        for scheme in SCHEMES[1:]:  # no_cache has no hits by definition
            report = run_scheme(ctx, scheme, num_processors=count)
            row.append(report.total_cache_hits())
            total_accesses = (
                report.total_cache_hits() + report.total_cache_misses()
            )
        rows.append(row)
    emit(
        "Fig 8(b): cache hits vs query processors "
        f"(hits + misses = {total_accesses} per run)",
        ["processors", *SCHEMES[1:]], rows, "fig8b_cache_hits",
    )
    return rows


def fig8c_storage_scaling(
    storage_counts: Sequence[int] = (1, 2, 3, 4, 5, 6, 7),
) -> List[List[object]]:
    """Fig 8(c): throughput vs storage servers (4 query processors)."""
    ctx = get_context("webgraph")
    rows = []
    for count in storage_counts:
        row: List[object] = [count]
        for scheme in SCHEMES:
            report = run_scheme(ctx, scheme, num_processors=4,
                                num_storage_servers=count)
            row.append(round(report.throughput(), 1))
        rows.append(row)
    emit("Fig 8(c): throughput vs storage servers (queries/second)",
         ["storage servers", *SCHEMES], rows, "fig8c_storage_scaling")
    return rows


# -- Figure 9 ----------------------------------------------------------------
def fig9_cache_capacity(
    capacities: Sequence[int] = (8 << 10, 32 << 10, 128 << 10, 512 << 10,
                                 2 << 20, 8 << 20),
) -> Dict[str, List[List[object]]]:
    """Fig 9: response time and hits vs per-processor cache capacity.

    Also derives Fig 9(c): the smallest capacity at which each scheme beats
    the no-cache response time (the break-even point).
    """
    ctx = get_context("webgraph")
    no_cache = run_scheme(ctx, "no_cache")
    baseline_ms = no_cache.mean_response_time() * 1e3

    response_rows, hit_rows = [], []
    break_even: Dict[str, Optional[int]] = {s: None for s in SCHEMES[1:]}
    for capacity in capacities:
        resp_row: List[object] = [capacity >> 10]
        hits_row: List[object] = [capacity >> 10]
        for scheme in SCHEMES[1:]:
            report = run_scheme(ctx, scheme, cache_capacity_bytes=capacity)
            ms = report.mean_response_time() * 1e3
            resp_row.append(round(ms, 4))
            hits_row.append(report.total_cache_hits())
            if ms <= baseline_ms and break_even[scheme] is None:
                break_even[scheme] = capacity >> 10
        response_rows.append(resp_row)
        hit_rows.append(hits_row)

    emit(
        f"Fig 9(a): response time vs cache capacity "
        f"(no-cache = {baseline_ms:.4f} ms)",
        ["capacity (KiB)", *SCHEMES[1:]], response_rows, "fig9a_response",
    )
    emit("Fig 9(b): cache hits vs cache capacity",
         ["capacity (KiB)", *SCHEMES[1:]], hit_rows, "fig9b_hits")
    be_rows = [[s, be if be is not None else "> max swept"]
               for s, be in break_even.items()]
    emit("Fig 9(c): min cache capacity to reach no-cache response (KiB)",
         ["scheme", "capacity (KiB)"], be_rows, "fig9c_break_even")
    return {"response": response_rows, "hits": hit_rows, "break_even": be_rows}


# -- Tables 2 and 3 ------------------------------------------------------------
def table2_preprocessing(sample_nodes: int = 512) -> List[List[object]]:
    """Table 2: preprocessing wall-clock times of our implementations.

    Reported per unit like the paper: per-landmark BFS time, total landmark
    embedding time, and per-node embedding time (both the paper's Simplex
    Downhill and the vectorised batch + LMDS fast paths).
    """
    ctx = get_context("webgraph")
    csr = ctx.assets.csr_both
    with Timer() as t_select:
        landmarks = select_landmarks(csr, 96, 3)
    with Timer() as t_bfs:
        distances = LandmarkDistances.compute(csr, landmarks)
    with Timer() as t_embed_landmarks:
        landmark_coords = embed_landmarks(distances.pair_matrix(), 10)
    with Timer() as t_lmds:
        GraphEmbedding.embed(csr, dim=10, landmark_distances=distances,
                             method="lmds")
    # Simplex on a sample: per-node cost scales linearly (vectorised batch).
    sample_csr_nodes = min(sample_nodes, csr.num_nodes)
    sub_matrix = distances.matrix[:, :sample_csr_nodes]
    sub = LandmarkDistances(distances.landmarks, sub_matrix)
    with Timer() as t_simplex:
        coords0 = lmds_triangulate(landmark_coords, sub.matrix)
        dists = sub.matrix.T.astype(np.float64)
        valid = (dists != UNREACHABLE) & (dists > 0)
        objective = _node_objective_factory(landmark_coords, dists, valid)
        batch_nelder_mead(objective, coords0, max_iter=120)

    rows = [
        ["select 96 landmarks", f"{t_select.elapsed:.3f} s total"],
        ["landmark BFS", f"{t_bfs.elapsed / len(landmarks) * 1e3:.2f} ms/landmark"],
        ["embed landmarks (simplex)", f"{t_embed_landmarks.elapsed:.2f} s total"],
        ["embed nodes (batch simplex)",
         f"{t_simplex.elapsed / sample_csr_nodes * 1e3:.3f} ms/node"],
        ["embed nodes (LMDS fast path)",
         f"{t_lmds.elapsed / csr.num_nodes * 1e6:.2f} us/node"],
    ]
    emit("Table 2: preprocessing times (wall clock, this implementation)",
         ["phase", "time"], rows, "table2_preprocessing")
    return rows


def table3_storage() -> List[List[object]]:
    """Table 3: router-side preprocessing storage vs the graph itself."""
    ctx = get_context("webgraph")
    index = ctx.assets.landmark_index(7, 96, 3)
    embedding = ctx.assets.embedding(dim=10, num_landmarks=96,
                                     min_separation=3, method="lmds")
    graph_bytes = ctx.assets.total_graph_bytes()
    rows = [
        ["landmark d(u,p) table", round(index.storage_bytes() / (1 << 20), 3)],
        ["embedding coordinates",
         round(embedding.storage_bytes() / (1 << 20), 3)],
        ["original graph (records)", round(graph_bytes / (1 << 20), 3)],
    ]
    emit("Table 3: preprocessing storage (MiB)",
         ["structure", "size (MiB)"], rows, "table3_storage")
    return rows


# -- Figure 10 ----------------------------------------------------------------
def fig10_graph_updates(
    fractions: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0),
) -> List[List[object]]:
    """Fig 10: robustness when preprocessing saw only part of the graph.

    Preprocess landmark tables and the embedding on a random q% induced
    subgraph; index the remaining nodes incrementally (neighbor relaxation
    + LMDS placement, never re-running BFS); query the FULL graph.
    """
    ctx = get_context("webgraph")
    queries = ctx.workload()
    graph = ctx.graph
    all_nodes = np.array(sorted(graph.nodes()), dtype=np.int64)
    rng = np.random.default_rng(11)
    hash_ms = run_scheme(ctx, "hash").mean_response_time() * 1e3

    rows = []
    for fraction in fractions:
        if fraction >= 1.0:
            index = ctx.assets.landmark_index(7, 96, 3)
            embedding = ctx.assets.embedding(dim=10, num_landmarks=96,
                                             min_separation=3, method="lmds")
        else:
            keep = rng.choice(all_nodes, size=int(len(all_nodes) * fraction),
                              replace=False)
            subgraph = graph.subgraph(keep.tolist())
            index = LandmarkIndex.build(subgraph, num_processors=7,
                                        num_landmarks=96, min_separation=3)
            from ..graph.csr import CSRGraph

            sub_csr = CSRGraph.from_graph(subgraph, direction="both")
            sub_landmarks = [
                sub_csr.index_of(nid) for nid in index.landmark_node_ids
            ]
            distances = LandmarkDistances.compute(sub_csr, sub_landmarks)
            embedding = GraphEmbedding.embed(
                sub_csr, dim=10, landmark_distances=distances, method="lmds"
            )
            # Incremental indexing of the unseen nodes, in id order.
            missing = [int(n) for n in all_nodes if not index.knows(int(n))]
            vectors = []
            for node in missing:
                index.add_node(node, list(graph.neighbors(node)))
                vectors.append(index.landmark_vector(node))
            embedding.add_nodes_lmds(missing, np.array(vectors))
        landmark_report = run_scheme(ctx, "landmark", queries=queries,
                                     landmark_index=index)
        embed_report = run_scheme(ctx, "embed", queries=queries,
                                  embedding=embedding)
        rows.append([
            int(fraction * 100),
            round(embed_report.mean_response_time() * 1e3, 4),
            round(landmark_report.mean_response_time() * 1e3, 4),
            round(hash_ms, 4),
        ])
    emit("Fig 10: response time (ms) vs % of graph seen at preprocessing",
         ["% preprocessed", "embed", "landmark", "hash (reference)"],
         rows, "fig10_graph_updates")
    return rows
