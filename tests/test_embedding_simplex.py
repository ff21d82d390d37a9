"""Nelder-Mead tests: scalar vs known optima, batch vs scalar, and the
batch solver against a frozen full-batch reference loop."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.embedding import (
    GraphEmbedding,
    batch_nelder_mead,
    embedder,
    nelder_mead,
)
from repro.embedding.simplex import ALPHA, GAMMA, RHO, SIGMA
from repro.graph import CSRGraph, community_graph


def sphere(x):
    return float((x**2).sum())


def rosenbrock(x):
    return float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)


class TestScalarNelderMead:
    def test_minimizes_sphere(self):
        best, value = nelder_mead(sphere, np.array([3.0, -2.0]), max_iter=400)
        assert value < 1e-6
        assert np.allclose(best, 0, atol=1e-3)

    def test_minimizes_shifted_quadratic(self):
        target = np.array([1.5, -0.5, 2.0])

        def f(x):
            return float(((x - target) ** 2).sum())

        best, value = nelder_mead(f, np.zeros(3), max_iter=600)
        assert np.allclose(best, target, atol=1e-3)

    def test_rosenbrock_reaches_valley(self):
        best, value = nelder_mead(
            rosenbrock, np.array([-1.0, 1.0]), max_iter=2000, xtol=1e-10,
            ftol=1e-14,
        )
        assert value < 1e-3

    def test_starting_at_optimum_stays(self):
        best, value = nelder_mead(sphere, np.zeros(2), max_iter=100)
        assert value < 1e-9

    def test_one_dimensional(self):
        best, value = nelder_mead(lambda x: float((x[0] - 4) ** 2), np.array([0.0]))
        assert abs(best[0] - 4) < 1e-3

    def test_agrees_with_scipy(self):
        scipy = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(3)
        anchor = rng.normal(size=(5, 3))
        target = rng.uniform(1, 4, size=5)

        def f(x):
            d = np.sqrt(((anchor - x) ** 2).sum(axis=1))
            return float((np.abs(d - target) / target).sum())

        ours, ours_val = nelder_mead(f, np.zeros(3), max_iter=1500, xtol=1e-9,
                                     ftol=1e-12)
        theirs = scipy.minimize(f, np.zeros(3), method="Nelder-Mead",
                                options={"maxiter": 1500, "xatol": 1e-9,
                                         "fatol": 1e-12})
        assert ours_val <= theirs.fun * 1.25 + 1e-6


class TestBatchNelderMead:
    def test_matches_scalar_on_independent_spheres(self):
        rng = np.random.default_rng(0)
        starts = rng.normal(size=(50, 4)) * 3
        targets = rng.normal(size=(50, 4))

        def batch_f(points, rows):
            return ((points - targets[rows]) ** 2).sum(axis=1)

        best, values = batch_nelder_mead(batch_f, starts, max_iter=400)
        assert values.max() < 1e-4
        assert np.allclose(best, targets, atol=1e-2)

    def test_rows_are_independent(self):
        # Problem i minimizes (x - i)^2: solutions must not leak across rows.
        n = 20
        targets = np.arange(n, dtype=np.float64)[:, None]

        def batch_f(points, rows):
            return ((points - targets[rows]) ** 2).sum(axis=1)

        best, values = batch_nelder_mead(
            batch_f, np.zeros((n, 1)), max_iter=300
        )
        assert np.allclose(best[:, 0], np.arange(n), atol=1e-2)

    def test_single_problem_matches_scalar(self):
        def batch_f(points, _rows):
            return (points**2).sum(axis=1)

        best_batch, val_batch = batch_nelder_mead(
            batch_f, np.array([[2.0, 2.0]]), max_iter=300
        )
        best_scalar, val_scalar = nelder_mead(
            sphere, np.array([2.0, 2.0]), max_iter=300
        )
        assert val_batch[0] == pytest.approx(val_scalar, abs=1e-6)

    def test_early_stop_when_converged(self):
        def batch_f(points, _rows):
            return (points**2).sum(axis=1)

        # Start at the optimum: convergence should be immediate and cheap.
        best, values = batch_nelder_mead(
            batch_f, np.zeros((5, 3)), max_iter=10_000
        )
        assert values.max() < 1e-8

    def test_handles_asymmetric_objectives(self):
        # Mix of quadratic bowls with different curvatures per row.
        scales = np.array([1.0, 10.0, 100.0])[:, None]

        def batch_f(points, rows):
            return (scales[rows] * points**2).sum(axis=1)

        best, values = batch_nelder_mead(
            batch_f, np.full((3, 2), 5.0), max_iter=500
        )
        assert values.max() < 1e-4


def full_batch_nelder_mead(func, x0, max_iter=150, ftol=1e-9, xtol=1e-6,
                           step=0.5):
    """Reference: the original full-batch loop, which evaluates every
    candidate on every row (converged rows included) and keeps the rows
    each branch selected. Frozen here; only the ``func(points, rows)``
    call signature was adapted."""
    x0 = np.asarray(x0, dtype=np.float64)
    n, dim = x0.shape
    simplex = np.repeat(x0[:, None, :], dim + 1, axis=1)
    for i in range(dim):
        delta = np.where(
            x0[:, i] == 0, step, step * np.maximum(np.abs(x0[:, i]), 1.0)
        )
        simplex[:, i + 1, i] += delta
    rows = np.arange(n)
    values = np.stack(
        [func(simplex[:, v, :], rows) for v in range(dim + 1)], axis=1
    )

    for _ in range(max_iter):
        order = np.argsort(values, axis=1, kind="stable")
        values = np.take_along_axis(values, order, axis=1)
        simplex = np.take_along_axis(simplex, order[:, :, None], axis=1)

        value_spread = np.abs(values[:, -1] - values[:, 0])
        x_spread = np.abs(simplex - simplex[:, 0:1, :]).max(axis=(1, 2))
        active = (value_spread > ftol) | (x_spread > xtol)
        if not active.any():
            break

        centroid = simplex[:, :-1, :].mean(axis=1)
        worst = simplex[:, -1, :]
        reflected = centroid + ALPHA * (centroid - worst)
        f_reflected = func(reflected, rows)

        new_point = simplex[:, -1, :].copy()
        new_value = values[:, -1].copy()

        better_than_best = f_reflected < values[:, 0]
        middle = (~better_than_best) & (f_reflected < values[:, -2])

        expanded = centroid + GAMMA * (reflected - centroid)
        f_expanded = func(expanded, rows)
        take_expanded = better_than_best & (f_expanded < f_reflected)
        take_reflected = (better_than_best & ~take_expanded) | middle

        needs_contract = ~(better_than_best | middle)
        outside = needs_contract & (f_reflected < values[:, -1])
        contract_base = np.where(outside[:, None], reflected, worst)
        contracted = centroid + RHO * (contract_base - centroid)
        f_contracted = func(contracted, rows)
        take_contracted = needs_contract & (
            f_contracted < np.minimum(f_reflected, values[:, -1])
        )
        needs_shrink = needs_contract & ~take_contracted

        for mask, point, value in (
            (take_expanded, expanded, f_expanded),
            (take_reflected, reflected, f_reflected),
            (take_contracted, contracted, f_contracted),
        ):
            use = mask & active
            new_point[use] = point[use]
            new_value[use] = value[use]

        replace = active & ~needs_shrink
        simplex[replace, -1, :] = new_point[replace]
        values[replace, -1] = new_value[replace]

        shrink = active & needs_shrink
        if shrink.any():
            best = simplex[shrink, 0:1, :]
            simplex[shrink, 1:, :] = best + SIGMA * (
                simplex[shrink, 1:, :] - best
            )
            for v in range(1, dim + 1):
                values[shrink, v] = func(simplex[:, v, :], rows)[shrink]

    order = np.argsort(values, axis=1, kind="stable")
    best_idx = order[:, 0]
    return simplex[rows, best_idx, :], values[rows, best_idx]


def mixed_problems(seed, n, dim):
    """A batch mixing four kinds of rows: ordinary scaled bowls, bowls
    centred on their start point, zero-weight rows whose objective is the
    constant 0 (they shrink every iteration until ``xtol``), and floored
    bowls whose values tie often, so ties in the branch comparisons
    decide their path."""
    rng = np.random.default_rng(seed)
    # 0 bowl, 1 at optimum, 2 constant, 3 floored bowl
    kind = rng.integers(0, 4, size=n)
    x0 = rng.uniform(-3.0, 3.0, size=(n, dim))
    x0[rng.random((n, dim)) < 0.2] = 0.0  # the zero-coordinate start step
    centres = np.where(
        (kind == 1)[:, None], x0, rng.uniform(-3.0, 3.0, size=(n, dim))
    )
    scales = rng.uniform(0.1, 10.0, size=(n, dim))
    weight = (kind != 2).astype(np.float64)
    floored = kind == 3

    def objective(points, rows):
        assert points.shape == (len(rows), dim)
        value = weight[rows] * (
            scales[rows] * (points - centres[rows]) ** 2
        ).sum(axis=1)
        return np.where(floored[rows], np.floor(value), value)

    return objective, x0


def counting(objective):
    """Wrap a batch objective; the list records ``len(rows)`` per call."""
    sizes = []

    def counted(points, rows):
        sizes.append(len(rows))
        return objective(points, rows)

    return counted, sizes


class TestAgainstFullBatchReference:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=150),
        dim=st.integers(min_value=1, max_value=30),
        max_iter=st.integers(min_value=0, max_value=150),
        step=st.sampled_from([0.5, 2.0, 1e-7]),
    )
    @example(seed=0, n=1, dim=1, max_iter=150, step=0.5)
    @example(seed=1, n=1, dim=30, max_iter=150, step=0.5)
    @example(seed=2, n=137, dim=10, max_iter=120, step=0.5)
    def test_byte_equal_to_reference(self, seed, n, dim, max_iter, step):
        objective, x0 = mixed_problems(seed, n, dim)
        points, values = batch_nelder_mead(
            objective, x0, max_iter=max_iter, step=step
        )
        ref_points, ref_values = full_batch_nelder_mead(
            objective, x0, max_iter=max_iter, step=step
        )
        assert points.tobytes() == ref_points.tobytes()
        assert values.tobytes() == ref_values.tobytes()

    def test_embedding_byte_equal_to_reference(self, monkeypatch):
        # More nodes than one chunk, and not a multiple of it.
        graph = community_graph(100, 13, seed=3)
        csr = CSRGraph.from_graph(graph, direction="both")
        assert csr.num_nodes % embedder._CHUNK != 0
        assert csr.num_nodes > embedder._CHUNK
        embedding = GraphEmbedding.embed(csr, dim=4, num_landmarks=24)
        monkeypatch.setattr(embedder, "_CHUNK", 4096)
        monkeypatch.setattr(
            embedder, "batch_nelder_mead", full_batch_nelder_mead
        )
        reference = GraphEmbedding.embed(csr, dim=4, num_landmarks=24)
        assert embedding.coords.tobytes() == reference.coords.tobytes()


class TestBatchWork:
    def test_converged_batch_evaluates_nothing_after_start(self):
        n, dim = 64, 5
        x0 = np.random.default_rng(4).uniform(-3.0, 3.0, size=(n, dim))

        def at_optimum(points, rows):
            return ((points - x0[rows]) ** 2).sum(axis=1)

        counted, sizes = counting(at_optimum)
        # A start step below xtol: every simplex has converged at once.
        best, values = batch_nelder_mead(counted, x0, max_iter=100,
                                         step=1e-7)
        assert sizes[: dim + 1] == [n] * (dim + 1)
        assert sum(sizes[dim + 1:]) == 0
        assert best.tobytes() == x0.tobytes()
        assert not values.any()

    def test_mixed_batch_evaluates_fewer_rows_than_full_batch(self):
        n, dim, max_iter = 300, 10, 120
        objective, x0 = mixed_problems(7, n, dim)
        counted, sizes = counting(objective)
        batch_nelder_mead(counted, x0, max_iter=max_iter)
        ref_counted, ref_sizes = counting(objective)
        full_batch_nelder_mead(ref_counted, x0, max_iter=max_iter)
        # The full-batch loop pays three whole-batch calls per iteration.
        assert sum(ref_sizes) >= 3 * n * max_iter
        assert sum(sizes) < 3 * n * max_iter
