"""Reference answers for the six built-in query operators.

Each answer is computed from the plain :class:`~repro.graph.digraph.Graph`
adjacency, with no cluster, cache, storage tier or simulator involved, so
it depends only on the graph and the query. Randomised operators (walks,
PPR, sampling) seed their generator per query exactly as the operators
document, which is what makes their answers independent of routing and
timing. Only static graphs have reference answers: under live updates an
answer depends on which updates landed before the query ran.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List

import numpy as np

from repro.core.queries import (
    KSourceReachabilityQuery,
    NeighborAggregationQuery,
    NeighborhoodSampleQuery,
    PersonalizedPageRankQuery,
    Query,
    RandomWalkQuery,
    ReachabilityQuery,
)
from repro.graph.digraph import Graph


class Oracle:
    """Answers queries over one static graph."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self._both: Dict[int, List[int]] = {}

    def _neighbors(self, node: int) -> List[int]:
        """Bi-directed neighbours in the graph's own adjacency order."""
        row = self._both.get(node)
        if row is None:
            row = list(self.graph.neighbors(node))
            self._both[node] = row
        return row

    def _within(self, source: int, hops: int, step) -> Dict[int, int]:
        """Nodes within ``hops`` steps of ``source`` with their distance."""
        dist = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            if dist[node] == hops:
                continue
            for nxt in step(node):
                if nxt not in dist:
                    dist[nxt] = dist[node] + 1
                    queue.append(nxt)
        return dist

    def _reaches(self, source: int, target: int, hops: int) -> bool:
        return target in self._within(
            source, hops, self.graph.out_neighbors
        )

    def answer(self, query: Query):
        graph = self.graph
        if isinstance(query, NeighborAggregationQuery):
            return len(self._within(query.node, query.hops,
                                    self._neighbors)) - 1
        if isinstance(query, ReachabilityQuery):
            if not graph.has_node(query.target):
                return False
            return self._reaches(query.node, query.target, query.hops)
        if isinstance(query, KSourceReachabilityQuery):
            if not graph.has_node(query.target):
                return 0
            return sum(
                1 for source in query.all_sources()
                if graph.has_node(source)
                and self._reaches(source, query.target, query.hops)
            )
        if isinstance(query, RandomWalkQuery):
            return query.steps
        if isinstance(query, PersonalizedPageRankQuery):
            return self._ppr_support(query)
        if isinstance(query, NeighborhoodSampleQuery):
            return self._sample_size(query)
        raise TypeError(f"no reference answer for {type(query).__name__}")

    def _ppr_support(self, query: PersonalizedPageRankQuery) -> int:
        rng = np.random.default_rng((query.seed, query.node))
        visited = set()
        for _walk in range(query.walks):
            current = query.node
            for _step in range(query.steps):
                row = self._neighbors(current)
                if not row or rng.random() < query.restart_prob:
                    current = query.node
                else:
                    current = row[rng.integers(0, len(row))]
                    visited.add(current)
        return len(visited)

    def _sample_size(self, query: NeighborhoodSampleQuery) -> int:
        rng = np.random.default_rng((query.seed, query.node))
        sampled = {query.node}
        frontier = [query.node]
        total = 0
        for fanout in query.fanouts:
            picks = set()
            for node in frontier:
                row = self._neighbors(node)
                if len(row) <= fanout:
                    picks.update(row)
                else:
                    chosen = rng.choice(np.asarray(row), size=fanout,
                                        replace=False)
                    picks.update(int(v) for v in chosen)
            if not picks:
                break
            total += len(picks - sampled)
            sampled |= picks
            frontier = sorted(picks)
        return total

    def answers(self, queries: Iterable[Query]) -> Dict[int, object]:
        """Reference answer per query id."""
        answers: Dict[int, object] = {}
        for query in queries:
            if query.query_id not in answers:
                answers[query.query_id] = self.answer(query)
        return answers
