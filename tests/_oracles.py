"""Independent reference computations used to cross-check the library.

Nothing here imports solver internals: the linear program, the finite
differences, and the derivative-free minimizer only see public evaluation
functions, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog, minimize

from rangebounds import DualPoint, MomentSpec, phi


def random_spec(rng: np.random.Generator, n: int | None = None) -> MomentSpec:
    """A moment spec with means in (-3, 3) and deviations in (0.2, 2.5)."""
    if n is None:
        n = int(rng.integers(3, 9))
    mu = tuple(float(v) for v in rng.uniform(-3.0, 3.0, n))
    sigma = tuple(float(v) for v in rng.uniform(0.2, 2.5, n))
    return MomentSpec(mu=mu, sigma=sigma)


def u_by_linprog(x: float, y: float, points: int = 2001) -> float:
    """sup E[|Z - 1| + |Z + 1|] over laws with mean x, sd y, by a grid LP.

    The maximizing law has at most three atoms, all within the chosen
    window, so restricting to a fine grid loses O(grid spacing).
    """
    theta = math.hypot(x, y)
    halfwidth = abs(x) + y + theta + 3.0
    z = np.linspace(-halfwidth, halfwidth, points)
    objective = -(np.abs(z - 1.0) + np.abs(z + 1.0))
    constraints = np.vstack([np.ones_like(z), z, z * z])
    targets = [1.0, x, x * x + y * y]
    result = linprog(
        objective,
        A_eq=constraints,
        b_eq=targets,
        bounds=(0.0, None),
        method="highs",
    )
    if result.status != 0:
        raise RuntimeError(f"reference LP failed: {result.message}")
    return -float(result.fun)


def fd_gradient(f, x: float, y: float, h: float = 1e-6) -> tuple[float, float]:
    """Central finite-difference gradient of a scalar function of (x, y)."""
    gx = (f(x + h, y) - f(x - h, y)) / (2.0 * h)
    gy = (f(x, y + h) - f(x, y - h)) / (2.0 * h)
    return gx, gy


def phi_by_nelder_mead(spec: MomentSpec) -> tuple[float, float, float]:
    """(value, c, lambda) minimizing phi, via derivative-free search.

    lambda is parametrized as exp(t) to keep it positive.
    """
    mu = np.asarray(spec.mu)
    sigma = np.asarray(spec.sigma)
    c_init = float(mu.mean())
    lam_init = max(float(np.hypot(mu - c_init, sigma).max()) / 2.0, 1e-3)

    def f(v: np.ndarray) -> float:
        return phi(DualPoint(c=float(v[0]), lam=math.exp(float(v[1]))), spec)

    result = minimize(
        f,
        np.array([c_init, math.log(lam_init)]),
        method="Nelder-Mead",
        options={"xatol": 1e-13, "fatol": 1e-15, "maxiter": 6000, "maxfev": 6000},
    )
    return float(result.fun), float(result.x[0]), math.exp(float(result.x[1]))


def perturb_coupling_by_search(q: np.ndarray) -> np.ndarray | None:
    """A different zero-diagonal matrix with the marginals of ``q``, or None.

    Exhaustive recursive search, for small n only: from each start row it
    tries every cycle of cells alternating between mass-receiving cells (any
    off-diagonal position) and mass-giving cells (positive entries) that
    touches each row and column at most once, and shifts the smallest giving
    mass around the first cycle whose result keeps the marginals to 1e-12.
    ``None`` means no such cycle exists.
    """
    q = np.asarray(q, dtype=float)
    n = q.shape[0]

    def search(start_row: int) -> list[tuple[str, int, int]] | None:
        path: list[tuple[str, int, int]] = []
        used_rows = {start_row}
        used_cols: set[int] = set()

        def from_row(i: int) -> list[tuple[str, int, int]] | None:
            for j in range(n):
                if j == i or j in used_cols:
                    continue
                used_cols.add(j)
                path.append(("plus", i, j))
                found = from_col(j)
                if found is not None:
                    return found
                path.pop()
                used_cols.remove(j)
            return None

        def from_col(j: int) -> list[tuple[str, int, int]] | None:
            for i in range(n):
                if i == j or q[i, j] <= 0.0:
                    continue
                if i == start_row:
                    if len(path) >= 3:
                        return path + [("minus", i, j)]
                    continue
                if i in used_rows:
                    continue
                used_rows.add(i)
                path.append(("minus", i, j))
                found = from_row(i)
                if found is not None:
                    return found
                path.pop()
                used_rows.remove(i)
            return None

        return from_row(start_row)

    for start in range(n):
        # A cycle leaves its start row through a giving cell, so a row
        # without one starts none; searching it would only cost time.
        if not np.any(q[start] > 0.0):
            continue
        cycle = search(start)
        if cycle is None:
            continue
        eps = min(q[i, j] for kind, i, j in cycle if kind == "minus")
        out = np.array(q)
        for kind, i, j in cycle:
            out[i, j] += eps if kind == "plus" else -eps
        out[np.abs(out) < 1e-16] = 0.0
        if (
            out.min() >= 0.0
            and not np.any(np.diag(out))
            and np.max(np.abs(out.sum(axis=1) - q.sum(axis=1))) <= 1e-12
            and np.max(np.abs(out.sum(axis=0) - q.sum(axis=0))) <= 1e-12
        ):
            return out
    return None
