"""One benchmark run: setups, timed serves, the traced serve and checks."""

from __future__ import annotations

import cProfile
import ctypes
import gc
import hashlib
import json
import pstats
from pathlib import Path
from statistics import median

import repro
from repro.embedding import GraphEmbedding

from layers import REPORTED_LAYERS, group_profile
from spans import Tracer
from workloads import DIM, MIN_SEPARATION, NUM_LANDMARKS, WORKLOADS

#: The ``src`` directory the profiled ``repro`` package was imported from.
SRC = Path(repro.__file__).resolve().parent.parent

#: Layers whose repro-function call counts per query are reported.
CALL_COUNT_LAYERS = ("sim", "routing", "cache", "gather")

#: Per-layer metrics taken from spans (median over the untraced ones).
SPAN_METRICS = {
    "graph.csr_s": "graph.csr",
    "graph.records_s": "graph.records",
    "landmarks.bfs_s": "landmarks.bfs",
    "landmarks.index_s": "landmarks.index",
    "embedding.embed_s": "embedding.embed",
    "service.open_s": "service.open",
    "metrics.report_s": "metrics.report",
}


def reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark (Linux), after
    handing the memory freed so far back to the kernel, so that the mark
    starts from what is live and not from what input generation left."""
    gc.collect()
    ctypes.CDLL(None).malloc_trim(0)
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mib() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def fingerprint(workload, deployment) -> str:
    """Digest of everything setup computed that routing reads."""
    assets = deployment.assets
    config = deployment.config
    h = hashlib.sha256(assets.record_sizes.tobytes())
    h.update(assets.owner_array(config.num_storage_servers).tobytes())
    if workload.embed_method is not None:
        h.update(assets.landmark_distances(NUM_LANDMARKS, MIN_SEPARATION)
                 .matrix.tobytes())
        h.update(assets.embedding(DIM, NUM_LANDMARKS, MIN_SEPARATION,
                                  workload.embed_method).coords.tobytes())
    return h.hexdigest()


def objective_calls(workload, deployment, problems) -> int:
    """Nelder-Mead objective evaluations of one embedding, counted by a
    profiled rebuild that must reproduce the setup's coordinates."""
    if workload.embed_method is None:
        return 0
    assets = deployment.assets
    profile = cProfile.Profile()
    profile.enable()
    try:
        rebuilt = GraphEmbedding.embed(
            assets.csr_both, dim=DIM, method=workload.embed_method,
            landmark_distances=assets.landmark_distances(NUM_LANDMARKS,
                                                         MIN_SEPARATION),
        )
    finally:
        profile.disable()
    built = assets.embedding(DIM, NUM_LANDMARKS, MIN_SEPARATION,
                             workload.embed_method)
    if rebuilt.coords.tobytes() != built.coords.tobytes():
        problems.append("a profiled rebuild of the embedding differs")
    return sum(
        cc for (filename, _line, func), (cc, *_rest)
        in pstats.Stats(profile).stats.items()
        if func == "objective" and "embedding" in Path(filename).parts
    )


class Run:
    """The state of one run: inputs, spans and every serve so far."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.tracer = Tracer()
        self.inputs = workload.make_inputs(seed)
        self.deployment = None
        #: Whether the current deployment's service has served already.
        self.used = False
        self.fingerprints = set()
        #: (part index, result, serve wall seconds) per serve.
        self.serves = []
        #: Checks outside the serves that failed.
        self.failures = []

    def setup(self) -> None:
        if self.deployment is not None:
            self.deployment.service.close()
            self.deployment = None
        gc.collect()
        graph = self.workload.fresh_graph(self.inputs)
        self.deployment = self.workload.setup(self.inputs, graph, self.tracer)
        self.used = False
        self.fingerprints.add(fingerprint(self.workload, self.deployment))

    def serve(self, index: int, profile=None):
        """Serve part ``index`` on a cold deployment; returns wall seconds.

        The span (and the profile) covers only the program's calls; the
        outcome is assessed and checked after it ends.
        """
        workload, part = self.workload, self.inputs.parts[index]
        if self.used:
            if workload.setup_per_serve:
                self.setup()
            else:
                self.deployment = workload.redeploy(
                    self.inputs, self.deployment, self.tracer)
        self.used = True
        gc.collect()
        name = "serve" if profile is None else "serve.profiled"
        with self.tracer.span(name) as span:
            if profile is not None:
                profile.enable()
            try:
                served = workload.serve_part(
                    self.inputs, part, self.deployment, self.tracer)
            finally:
                if profile is not None:
                    profile.disable()
        result = workload.assess(self.inputs, part, self.deployment, served)
        self.serves.append((index, result, span.duration))
        return span.duration

    def serve_until(self, seconds: float, parts: int) -> None:
        """Serve parts 0..parts-1 in turn, at least once each and until
        ``seconds`` of serving have been measured."""
        while (len(self.serves) < parts
               or sum(wall for _i, _r, wall in self.serves) < seconds):
            self.serve(len(self.serves) % parts)

    def serve_repeat(self) -> None:
        """Serve part 0 again unless some part was served twice already,
        so that every run checks that a repeated serve is bit-identical."""
        indices = [index for index, _result, _wall in self.serves]
        if len(set(indices)) == len(indices):
            self.serve(0)

    def problems(self):
        problems = list(self.failures)
        digests = {}
        for index, result, _wall in self.serves:
            problems += result.wrong + result.problems
            digests.setdefault(index, set()).add(result.digest)
        for index, seen in sorted(digests.items()):
            if len(seen) != 1:
                problems.append(f"part {index}: simulated results differ "
                                f"between serves ({len(seen)} variants)")
        if len(self.fingerprints) != 1:
            problems.append("setups built different routing artifacts")
        return problems

    def first_results(self):
        firsts = {}
        for index, result, _wall in self.serves:
            firsts.setdefault(index, result)
        return [firsts[index] for index in sorted(firsts)]


def end_to_end(run: Run, seconds: float):
    workload = run.workload
    reset_peak_rss()
    parts = len(run.inputs.parts)
    # Setups and serves alternate, so both sample the whole run and a slow
    # spell of the host does not land on one kind of measurement only.
    for index in range(workload.setup_reps):
        run.setup()
        if index < parts:
            run.serve(index)
    run.serve_until(seconds, parts)
    run.serve_repeat()
    metrics = workload.combine(run.first_results())
    metrics["setup_s"] = run.tracer.median("setup")
    metrics["wall_qps"] = (
        sum(result.completed for _index, result, _wall in run.serves)
        / sum(wall for _index, _result, wall in run.serves))
    metrics["peak_rss_mib"] = peak_rss_mib()
    return metrics


def per_layer(run: Run, seconds: float, out_dir: Path, name: str):
    """Spans from one setup and untraced serves of part 0, then one more
    serve of part 0 under cProfile."""
    workload, tracer = run.workload, run.tracer
    run.setup()
    run.serve_until(seconds, 1)
    untraced = [wall for _index, _result, wall in run.serves]
    metrics = {key: tracer.median(span) for key, span in SPAN_METRICS.items()}
    profile = cProfile.Profile()
    profiled_s = run.serve(0, profile=profile)
    result = run.serves[0][1]
    stats = pstats.Stats(profile).stats

    metrics.update(result.layer)
    grouped = group_profile(stats, SRC)
    total = sum(tt for (_cc, _nc, tt, _ct, _callers) in stats.values())
    for layer in REPORTED_LAYERS:
        metrics[f"{layer}.self_s"] = grouped.get(layer, {}).get("self_s", 0.0)
    metrics["other.self_s"] = total - sum(
        metrics[f"{layer}.self_s"] for layer in REPORTED_LAYERS)
    for layer in CALL_COUNT_LAYERS:
        calls = grouped.get(layer, {}).get("calls", 0)
        metrics[f"{layer}.calls_per_query"] = calls / result.queries
    metrics["embedding.objective_calls"] = objective_calls(
        workload, run.deployment, run.failures)
    metrics["embedding.rel_error"] = workload.embedding_error(
        run.inputs, run.deployment)
    metrics["trace.overhead_frac"] = profiled_s / median(untraced) - 1.0
    tracer.write(out_dir / f"{name}-seed{run.inputs.seed}-spans.json")
    return metrics


def run(args, definition, out_dir: Path) -> int:
    bench = Run(WORKLOADS[args.workload], args.seed)
    if args.trace:
        metrics = per_layer(bench, args.seconds, out_dir, args.workload)
        wanted = definition["per_layer"]
    else:
        metrics = end_to_end(bench, args.seconds)
        wanted = definition["end_to_end"]
    names = {m["name"] for m in wanted}
    if set(metrics) != names:
        raise SystemExit(
            "perfbench: metrics do not match BENCHMARK.json: missing "
            f"{sorted(names - set(metrics))}, extra "
            f"{sorted(set(metrics) - names)}")

    problems = bench.problems()
    first = bench.serves[0][1]
    samples = sum(len(r.latencies) for r in bench.first_results())
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(bench.tracer.durations('setup'))} setups, "
          f"{len(bench.serves)} serves of {len(bench.inputs.parts)} parts, "
          f"{first.queries} queries and {first.operations} operations "
          f"offered per serve, {samples} latency samples")
    print("  serve wall s: " + " ".join(
        f"{wall:.3f}" for _index, _result, wall in bench.serves))
    for m in wanted:
        print(f"  {m['name']:<36} {metrics[m['name']]:>16.6g} {m['unit']}")
    for problem in problems[:20]:
        print(f"  WRONG: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(result.operations for _i, result, _w in bench.serves),
        "failed": len(problems),
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 1 if problems else 0
