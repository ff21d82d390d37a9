"""Property-based tests (hypothesis) on core data structures & invariants."""

import string

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import ProcessorCache
from repro.embedding import batch_nelder_mead, nelder_mead
from repro.graph import CSRGraph, Graph, bfs_distances
from repro.storage import AdjacencyRecord, LogStructuredStore, murmur3_32

# ---------------------------------------------------------------------------
# Cache invariants
# ---------------------------------------------------------------------------

cache_ops = st.lists(
    st.tuples(
        st.sampled_from(["get", "put"]),
        st.integers(min_value=0, max_value=30),  # key
        st.integers(min_value=0, max_value=64),  # size (for put)
    ),
    max_size=200,
)


class TestCacheProperties:
    @settings(max_examples=50, deadline=None)
    @given(ops=cache_ops, capacity=st.integers(min_value=0, max_value=256))
    def test_never_exceeds_capacity(self, ops, capacity):
        cache = ProcessorCache(capacity)
        for op, key, size in ops:
            if op == "get":
                cache.get(key)
            else:
                cache.put(key, size)
            assert cache.size_bytes <= capacity

    @settings(max_examples=50, deadline=None)
    @given(ops=cache_ops)
    def test_stats_balance(self, ops):
        cache = ProcessorCache(128)
        gets = 0
        for op, key, size in ops:
            if op == "get":
                cache.get(key)
                gets += 1
            else:
                cache.put(key, size)
        assert cache.stats.hits + cache.stats.misses == gets

    @settings(max_examples=30, deadline=None)
    @given(ops=cache_ops, policy=st.sampled_from(["lru", "fifo", "lfu"]))
    def test_size_bytes_matches_entries(self, ops, policy):
        cache = ProcessorCache(200, policy=policy)
        sizes = {}
        for op, key, size in ops:
            if op == "put":
                cache.put(key, size)
                sizes[key] = size
            else:
                cache.get(key)
        total = sum(sizes[k] for k in sizes if k in cache)
        assert cache.size_bytes == total


# ---------------------------------------------------------------------------
# Record codec round trips
# ---------------------------------------------------------------------------

# The codec canonicalizes empty labels to None (a zero-length label is
# indistinguishable from "no label" on the wire), so strategies use
# non-empty label text.
labels = st.one_of(
    st.none(),
    st.text(alphabet=string.printable, min_size=1, max_size=12),
)
edges = st.lists(
    st.tuples(st.integers(min_value=-(2**40), max_value=2**40), labels),
    max_size=20,
)


class TestRecordProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        node=st.integers(min_value=-(2**40), max_value=2**40),
        out_edges=edges,
        in_edges=edges,
        node_label=labels,
    )
    def test_encode_decode_round_trip(self, node, out_edges, in_edges,
                                      node_label):
        record = AdjacencyRecord(node, out_edges, in_edges, node_label)
        decoded = AdjacencyRecord.decode(record.encode())
        assert decoded == record

    @settings(max_examples=100, deadline=None)
    @given(node=st.integers(min_value=0, max_value=2**30), out_edges=edges,
           in_edges=edges)
    def test_size_bytes_is_exact(self, node, out_edges, in_edges):
        record = AdjacencyRecord(node, out_edges, in_edges)
        assert record.size_bytes() == len(record.encode())


# ---------------------------------------------------------------------------
# MurmurHash3
# ---------------------------------------------------------------------------

class TestMurmurProperties:
    @settings(max_examples=100, deadline=None)
    @given(data=st.binary(max_size=64), seed=st.integers(0, 2**32 - 1))
    def test_range_and_determinism(self, data, seed):
        value = murmur3_32(data, seed)
        assert 0 <= value < 2**32
        assert murmur3_32(data, seed) == value


# ---------------------------------------------------------------------------
# Log-structured store vs a plain dict model
# ---------------------------------------------------------------------------

store_ops = st.lists(
    st.tuples(
        st.sampled_from(["put", "delete", "get"]),
        st.integers(min_value=0, max_value=15),
        st.binary(min_size=0, max_size=40),
    ),
    max_size=150,
)


class TestStoreModelProperties:
    @settings(max_examples=50, deadline=None)
    @given(ops=store_ops)
    def test_matches_dict_model(self, ops):
        store = LogStructuredStore(segment_bytes=128, clean_threshold=0.4)
        model = {}
        for op, key, value in ops:
            if op == "put":
                store.put(key, value)
                model[key] = value
            elif op == "delete" and key in model:
                store.delete(key)
                del model[key]
            else:
                assert (key in store) == (key in model)
                if key in model:
                    assert store.get(key) == model[key]
        assert len(store) == len(model)
        for key, value in model.items():
            assert store.get(key) == value

    @settings(max_examples=30, deadline=None)
    @given(ops=store_ops)
    def test_utilization_bounded(self, ops):
        store = LogStructuredStore(segment_bytes=128, clean_threshold=0.4)
        for op, key, value in ops:
            if op == "put":
                store.put(key, value)
            elif op == "delete" and key in store:
                store.delete(key)
            assert 0.0 <= store.utilization() <= 1.0


# ---------------------------------------------------------------------------
# Graph mutation invariants
# ---------------------------------------------------------------------------

graph_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove"]),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=12),
    ),
    max_size=120,
)


class TestGraphProperties:
    @settings(max_examples=50, deadline=None)
    @given(ops=graph_ops)
    def test_edge_count_and_symmetry(self, ops):
        graph = Graph()
        model = set()
        for op, u, v in ops:
            if op == "add":
                graph.add_edge(u, v)
                model.add((u, v))
            elif (u, v) in model:
                graph.remove_edge(u, v)
                model.remove((u, v))
        assert graph.num_edges == len(model)
        assert set(graph.edges()) == model
        # in/out adjacency stay mirror images.
        for u, v in model:
            assert v in graph.out_neighbors(u)
            assert u in graph.in_neighbors(v)

    # Random interleavings of all four mutation kinds — the invariants the
    # live-update path (repro.core.updates) depends on: edge accounting,
    # in/out adjacency symmetry, and node-label cleanup.
    mutation_ops = st.lists(
        st.tuples(
            st.sampled_from(
                ["add_edge", "remove_edge", "add_node", "remove_node"]
            ),
            st.integers(min_value=0, max_value=10),
            st.integers(min_value=0, max_value=10),
        ),
        max_size=150,
    )

    @settings(max_examples=60, deadline=None)
    @given(ops=mutation_ops)
    def test_mutation_interleavings_preserve_invariants(self, ops):
        graph = Graph()
        nodes = set()
        edges = set()
        labels = {}
        for op, u, v in ops:
            if op == "add_edge":
                graph.add_edge(u, v)
                nodes.update((u, v))
                edges.add((u, v))
            elif op == "remove_edge":
                if (u, v) in edges:
                    graph.remove_edge(u, v)
                    edges.remove((u, v))
            elif op == "add_node":
                graph.add_node(u, label=f"L{v}")
                nodes.add(u)
                labels[u] = f"L{v}"
            else:  # remove_node
                if u in nodes:
                    graph.remove_node(u)
                    nodes.discard(u)
                    edges = {e for e in edges if u not in e}
                    labels.pop(u, None)
        # Node and edge accounting.
        assert graph.num_nodes == len(nodes)
        assert set(graph.nodes()) == nodes
        assert graph.num_edges == len(edges)
        assert set(graph.edges()) == edges
        # In/out adjacency stay exact mirror images, per node.
        for node in nodes:
            out = set(graph.out_neighbors(node))
            assert out == {b for a, b in edges if a == node}
            inn = set(graph.in_neighbors(node))
            assert inn == {a for a, b in edges if b == node}
            for succ in out:
                assert node in graph.in_neighbors(succ)
            assert graph.out_degree(node) == len(out)
            assert graph.in_degree(node) == len(inn)
            assert graph.degree(node) == len(out) + len(inn)
        # Label cleanup: removed nodes leave no label residue behind, and
        # surviving labels match the model.
        assert set(graph._node_labels) <= nodes
        for node in nodes:
            assert graph.node_label(node) == labels.get(node)

    @settings(max_examples=30, deadline=None)
    @given(ops=mutation_ops)
    def test_remove_node_then_readd_is_clean(self, ops):
        # A re-added node must come back bare: no label, no edges.
        graph = Graph()
        present = set()
        for op, u, v in ops:
            if op == "add_edge":
                graph.add_edge(u, v)
                present.update((u, v))
            elif op == "add_node":
                graph.add_node(u, label="tagged")
                present.add(u)
            elif op == "remove_node" and u in present:
                graph.remove_node(u)
                present.discard(u)
                graph.add_node(u)
                present.add(u)
                assert graph.node_label(u) is None
                assert graph.degree(u) == 0

    @settings(max_examples=25, deadline=None)
    @given(
        edge_list=st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 40)),
            min_size=1, max_size=120,
        ),
        source=st.integers(0, 40),
    )
    def test_csr_bfs_matches_python_bfs(self, edge_list, source):
        graph = Graph()
        graph.add_node(source)
        for u, v in edge_list:
            graph.add_edge(u, v)
        csr = CSRGraph.from_graph(graph, direction="both")
        expected = bfs_distances(graph, source, direction="both")
        dist = csr.bfs_distances([csr.index_of(source)])
        for i, nid in enumerate(csr.node_ids):
            assert dist[i] == expected.get(int(nid), -1)


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------

class TestOptimizerProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        target=st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False),
            min_size=2, max_size=4,
        )
    )
    def test_scalar_nm_finds_quadratic_minimum(self, target):
        goal = np.array(target)

        def objective(x):
            return float(((x - goal) ** 2).sum())

        best, value = nelder_mead(objective, np.zeros(len(goal)),
                                  max_iter=800)
        assert value < 1e-3

    @settings(max_examples=15, deadline=None)
    @given(
        seeds=st.integers(min_value=0, max_value=1000),
        n=st.integers(min_value=1, max_value=12),
    )
    def test_batch_nm_solves_random_quadratics(self, seeds, n):
        rng = np.random.default_rng(seeds)
        goals = rng.uniform(-3, 3, size=(n, 3))

        def batch(points, rows):
            return ((points - goals[rows]) ** 2).sum(axis=1)

        _best, values = batch_nelder_mead(batch, np.zeros((n, 3)),
                                          max_iter=500)
        assert values.max() < 1e-3
