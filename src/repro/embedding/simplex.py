"""Simplex Downhill (Nelder–Mead) minimizers.

The paper embeds the graph by minimizing relative distance error "by many
off-the-shelf techniques, e.g., the Simplex Downhill algorithm that we apply
in this work" (§3.4.2). Two implementations live here:

* :func:`nelder_mead` — the textbook scalar algorithm, used for landmark
  placement (few points) and for embedding single new nodes on updates;
* :func:`batch_nelder_mead` — a vectorised variant that advances one
  independent simplex *per problem* simultaneously with numpy, so embedding
  every node of a 10^4–10^5-node graph takes seconds rather than hours.
  Its objective takes ``(points, rows)`` — the points to evaluate and the
  problems they belong to — so each step evaluates only the problems that
  need that point: converged problems are frozen and drop out of the
  batch, and expansion, contraction and shrink points are evaluated only
  for the problems that take those branches.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

# Standard Nelder–Mead coefficients.
ALPHA = 1.0  # reflection
GAMMA = 2.0  # expansion
RHO = 0.5  # contraction
SIGMA = 0.5  # shrink


def _initial_simplex(x0: np.ndarray, step: float) -> np.ndarray:
    """Axis-aligned start simplex around ``x0`` — shape ``(D+1, D)``."""
    dim = x0.shape[0]
    simplex = np.tile(x0, (dim + 1, 1))
    for i in range(dim):
        delta = step if x0[i] == 0 else step * max(abs(x0[i]), 1.0)
        simplex[i + 1, i] += delta
    return simplex


def nelder_mead(
    func: Callable[[np.ndarray], float],
    x0: np.ndarray,
    max_iter: int = 200,
    xtol: float = 1e-6,
    ftol: float = 1e-9,
    step: float = 0.5,
) -> Tuple[np.ndarray, float]:
    """Minimize ``func`` from ``x0``; returns ``(best_x, best_f)``."""
    x0 = np.asarray(x0, dtype=np.float64)
    simplex = _initial_simplex(x0, step)
    values = np.array([func(x) for x in simplex])

    for _ in range(max_iter):
        order = np.argsort(values, kind="stable")
        simplex, values = simplex[order], values[order]
        if (
            np.abs(values[-1] - values[0]) <= ftol
            and np.abs(simplex[1:] - simplex[0]).max() <= xtol
        ):
            break

        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]
        reflected = centroid + ALPHA * (centroid - worst)
        f_reflected = func(reflected)

        if f_reflected < values[0]:
            expanded = centroid + GAMMA * (reflected - centroid)
            f_expanded = func(expanded)
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
        else:
            if f_reflected < values[-1]:
                contracted = centroid + RHO * (reflected - centroid)
            else:
                contracted = centroid + RHO * (worst - centroid)
            f_contracted = func(contracted)
            if f_contracted < min(f_reflected, values[-1]):
                simplex[-1], values[-1] = contracted, f_contracted
            else:  # shrink toward the best vertex
                simplex[1:] = simplex[0] + SIGMA * (simplex[1:] - simplex[0])
                values[1:] = np.array([func(x) for x in simplex[1:]])

    best = int(np.argmin(values))
    return simplex[best], float(values[best])


def batch_nelder_mead(
    func: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x0: np.ndarray,
    max_iter: int = 150,
    ftol: float = 1e-9,
    xtol: float = 1e-6,
    step: float = 0.5,
) -> Tuple[np.ndarray, np.ndarray]:
    """Minimize N independent D-dimensional problems simultaneously.

    ``func(points, rows)`` maps a ``(K, D)`` array of points to ``(K,)``
    objective values, where ``points[k]`` belongs to problem ``rows[k]``
    (an index into ``x0``; indices may repeat); ``x0`` is ``(N, D)``.
    Every problem runs the standard Nelder–Mead update independently, so
    the solver only hands ``func`` the points a problem actually needs:

    * a problem whose simplex has converged is frozen and never evaluated
      again (convergence is sticky — a frozen simplex cannot change);
    * every live problem evaluates its reflection; only those whose
      reflection beat their best vertex evaluate the expansion, only those
      reaching the contraction branch evaluate the contraction, and only
      those that shrink re-evaluate their moved vertices.

    A problem's arithmetic touches only its own rows, so when ``func``
    evaluates each point on its own, the result does not depend on which
    other problems share the batch or when they converge. Returns
    ``(best_points (N, D), best_values (N,))``.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    n, dim = x0.shape
    # simplex: (K, D+1, D); values: (K, D+1) for the K live problems `rows`.
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
    best_points = np.empty((n, dim))
    best_values = np.empty(n)

    for _ in range(max_iter):
        # Sort each simplex by value (indexing with two arrays moves whole
        # D-vectors; take_along_axis on the 3-D array was ~4x slower).
        sort = (np.arange(rows.size)[:, None],
                np.argsort(values, axis=1, kind="stable"))
        values, simplex = values[sort], simplex[sort]

        value_spread = np.abs(values[:, -1] - values[:, 0])
        x_spread = np.abs(simplex - simplex[:, 0:1, :]).max(axis=(1, 2))
        # A problem is done only when both values and positions collapsed;
        # checking values alone stalls on simplices straddling an optimum.
        active = (value_spread > ftol) | (x_spread > xtol)
        if not active.all():
            done = ~active
            best_points[rows[done]] = simplex[done, 0, :]
            best_values[rows[done]] = values[done, 0]
            rows, simplex, values = rows[active], simplex[active], values[active]
        if rows.size == 0:
            break

        centroid = simplex[:, :-1, :].mean(axis=1)  # (K, D)
        worst = simplex[:, -1, :]
        reflected = centroid + ALPHA * (centroid - worst)
        f_reflected = func(reflected, rows)
        # Reflection is the default replacement; the branches overwrite it.
        new_point = reflected.copy()
        new_value = f_reflected.copy()
        replace = np.ones(rows.size, dtype=bool)

        better_than_best = f_reflected < values[:, 0]
        middle = (~better_than_best) & (f_reflected < values[:, -2])

        # Expansion, only where reflection beat the best vertex.
        expand = np.flatnonzero(better_than_best)
        if expand.size:
            expanded = centroid[expand] + GAMMA * (
                reflected[expand] - centroid[expand]
            )
            f_expanded = func(expanded, rows[expand])
            take = f_expanded < f_reflected[expand]
            new_point[expand[take]] = expanded[take]
            new_value[expand[take]] = f_expanded[take]

        # Contraction for the rows neither better than best nor middle.
        contract = np.flatnonzero(~(better_than_best | middle))
        if contract.size:
            f_worst = values[contract, -1]
            outside = f_reflected[contract] < f_worst
            contract_base = np.where(
                outside[:, None], reflected[contract], worst[contract]
            )
            contracted = centroid[contract] + RHO * (
                contract_base - centroid[contract]
            )
            f_contracted = func(contracted, rows[contract])
            take = f_contracted < np.minimum(f_reflected[contract], f_worst)
            new_point[contract[take]] = contracted[take]
            new_value[contract[take]] = f_contracted[take]
            replace[contract[~take]] = False

        simplex[replace, -1, :] = new_point[replace]
        values[replace, -1] = new_value[replace]

        shrink = np.flatnonzero(~replace)
        if shrink.size:  # toward the best vertex
            best = simplex[shrink, 0:1, :]
            simplex[shrink, 1:, :] = best + SIGMA * (
                simplex[shrink, 1:, :] - best
            )
            for v in range(1, dim + 1):
                values[shrink, v] = func(simplex[shrink, v, :], rows[shrink])

    order = np.argsort(values, axis=1, kind="stable")
    best_idx = order[:, 0]
    live = np.arange(rows.size)
    best_points[rows] = simplex[live, best_idx, :]
    best_values[rows] = values[live, best_idx]
    return best_points, best_values
