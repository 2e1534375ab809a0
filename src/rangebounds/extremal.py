"""Constructions attaining the bounds: marginals, couplings, joint laws.

At the optimal (c, lambda) each coordinate's worst-case marginal is a law on
at most three points x_i^- < c - lambda < x_i^0 < c + lambda < x_i^+ with
probabilities (p_i^-, p_i^0, p_i^+) determined by the coordinate's region.
At the optimum the masses satisfy sum_i p_i^+ = sum_i p_i^- = 1 and
sum_i p_i^0 = n - 2, so a joint law attaining the bound is specified by a
probability matrix Q with row marginals p^+, column marginals p^-, and zero
diagonal: the outcome at cell (i, j) puts coordinate i at its upper point,
coordinate j at its lower point, and every other coordinate at its middle
point.  Such a matrix exists if and only if max_i (p_i^+ + p_i^-) <= 1,
which always holds at the optimum.

The module also decides when the closed-form comparison bound is tight
(`ag_tightness`), builds the distribution attaining the expected-maximum
bound (`bnt_extremal_max`), and constructs the correlated pair with constant
coordinate gap (`extremal_pair_given_correlation`).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InfeasibleCouplingError, ValidationError
from .objective import REGION_NAMES, DualPoint, MassTable, MomentSpec, mass_table
from .solver import (
    DEFAULT_TOL,
    BoundReport,
    bnt_max_bound,
    gamma2_bound,
    rho_bound,
    scaled_deviations,
)

__all__ = [
    "ThreePointDist",
    "ProbabilityMatrix",
    "JointDiscreteDistribution",
    "AttainingJoint",
    "univariate_extremal",
    "extremal_marginals",
    "zero_trace_coupling",
    "perturb_coupling",
    "build_extremal_joint",
    "extremal_components",
    "ExtremalComponents",
    "ag_tightness",
    "bnt_extremal_max",
    "extremal_pair_given_correlation",
    "PairSampler",
]

_EPS = float(np.finfo(float).eps)
_MASS_EPS = 1e-14


def _clamp_probability(p: float, context: str) -> float:
    if p < -1e-12:
        raise ValidationError(f"negative probability {p!r} in {context}")
    return 0.0 if p < 0.0 else p


@dataclass(frozen=True)
class ThreePointDist:
    """A univariate law on at most three points, tied to a generating (c, lambda).

    Unused support slots are filled by the convention (c - 2 lambda, c,
    c + 2 lambda) and carry probability exactly 0.0; ``region`` records which
    branch of the extremal table produced the law.
    """

    x_minus: float
    x_zero: float
    x_plus: float
    p_minus: float
    p_zero: float
    p_plus: float
    region: str
    c: float
    lam: float

    def __post_init__(self) -> None:
        total = self.p_minus + self.p_zero + self.p_plus
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"probabilities sum to {total!r}, not 1")
        if min(self.p_minus, self.p_zero, self.p_plus) < 0.0:
            raise ValidationError("probabilities must be nonnegative")
        slack = 1e-9 * (1.0 + abs(self.c) + self.lam)
        ordered = (
            self.x_minus < self.c - self.lam + slack
            and self.c - self.lam < self.x_zero + slack
            and self.x_zero < self.c + self.lam + slack
            and self.c + self.lam < self.x_plus + slack
        )
        if not ordered:
            raise ValidationError(
                "support must satisfy x- < c - lambda < x0 < c + lambda < x+"
            )

    def mean(self) -> float:
        return math.fsum(
            (self.x_minus * self.p_minus, self.x_zero * self.p_zero, self.x_plus * self.p_plus)
        )

    def variance(self) -> float:
        m = self.mean()
        return math.fsum(
            (
                self.p_minus * (self.x_minus - m) ** 2,
                self.p_zero * (self.x_zero - m) ** 2,
                self.p_plus * (self.x_plus - m) ** 2,
            )
        )

    def support(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(values, probabilities) with zero-probability fill points dropped."""
        pairs = [
            (x, p)
            for x, p in (
                (self.x_minus, self.p_minus),
                (self.x_zero, self.p_zero),
                (self.x_plus, self.p_plus),
            )
            if p != 0.0
        ]
        return tuple(x for x, _ in pairs), tuple(p for _, p in pairs)


@dataclass(frozen=True, eq=False)
class ProbabilityMatrix:
    """An n x n nonnegative matrix with total mass 1; marginals are derived.

    Couplings with zero diagonal carry exact 0.0 entries there, asserted by
    producers rather than the type itself.
    """

    q: np.ndarray

    def __post_init__(self) -> None:
        q = np.array(self.q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValidationError(f"q must be a square matrix, got shape {q.shape}")
        if q.shape[0] < 2:
            raise ValidationError("q must be at least 2 x 2")
        if q.min() < -1e-15:
            raise ValidationError(f"negative entry {q.min()!r} in probability matrix")
        q[q < 0.0] = 0.0
        total = float(q.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"total mass {total!r} differs from 1")
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @property
    def row_marginals(self) -> np.ndarray:
        return self.q.sum(axis=1)

    @property
    def col_marginals(self) -> np.ndarray:
        return self.q.sum(axis=0)

    @property
    def trace(self) -> float:
        return float(np.trace(self.q))

    def is_zero_trace(self) -> bool:
        return bool(np.all(np.diag(self.q) == 0.0))

    def to_json_dict(self) -> dict:
        return {"q": self.q.tolist()}

    @classmethod
    def from_json_dict(cls, data: object) -> "ProbabilityMatrix":
        if not isinstance(data, dict) or "q" not in data:
            raise ValidationError("probability matrix JSON must contain key 'q'")
        return cls(q=np.asarray(data["q"], dtype=float))


@dataclass(frozen=True)
class JointDiscreteDistribution:
    """A finite-support joint law: n-dimensional support vectors with masses."""

    support: tuple[tuple[float, ...], ...]
    prob: tuple[float, ...]

    def __post_init__(self) -> None:
        support = tuple(tuple(map(float, vec)) for vec in self.support)
        prob = tuple(map(float, self.prob))
        if len(support) == 0:
            raise ValidationError("support must be non-empty")
        if len(support) != len(prob):
            raise ValidationError("support and prob lengths differ")
        dims = {len(vec) for vec in support}
        if len(dims) != 1:
            raise ValidationError("support vectors must share one dimension")
        if min(prob) < 0.0:
            raise ValidationError("probabilities must be nonnegative")
        total = math.fsum(prob)
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"probabilities sum to {total!r}, not 1")
        if len(set(support)) != len(support):
            raise ValidationError("duplicate support vectors")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "prob", prob)

    @property
    def dim(self) -> int:
        return len(self.support[0])

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.support, dtype=float), np.asarray(self.prob, dtype=float)

    def atom_ranges(self) -> np.ndarray:
        """max - min of every atom."""
        support = self.arrays()[0]
        return support.max(axis=1) - support.min(axis=1)

    def to_json_dict(self) -> dict:
        return {"support": [list(vec) for vec in self.support], "prob": list(self.prob)}

    @classmethod
    def from_json_dict(cls, data: object) -> "JointDiscreteDistribution":
        if not isinstance(data, dict) or "support" not in data or "prob" not in data:
            raise ValidationError("joint JSON must contain 'support' and 'prob'")
        return cls(support=tuple(tuple(v) for v in data["support"]), prob=tuple(data["prob"]))


def _three_point_laws(table: MassTable) -> tuple[ThreePointDist, ...]:
    points = table.points().T.tolist()
    masses = table.p.T.tolist()
    return tuple(
        ThreePointDist(*x, *p, region=REGION_NAMES[k], c=table.c, lam=table.lam)
        for x, p, k in zip(points, masses, table.region.tolist())
    )


def univariate_extremal(mu: float, sigma: float, c: float, lam: float) -> ThreePointDist:
    """The unique maximizer of E[|X - c - lambda| + |X - c + lambda|] given moments.

    One row of the mass table, so it is selected by the same region
    conditions as the partition bookkeeping; its objective value equals
    lambda * U((mu - c)/lambda, sigma/lambda).
    """
    mu, sigma, c, lam = float(mu), float(sigma), float(c), float(lam)
    if sigma <= 0.0:
        raise ValidationError("sigma must be positive")
    if lam <= 0.0:
        raise ValidationError("lambda must be positive")
    return _three_point_laws(mass_table((mu,), (sigma,), c, lam))[0]


def extremal_marginals(
    spec: MomentSpec, p: DualPoint
) -> tuple[tuple[ThreePointDist, ...], tuple[float, ...], tuple[float, ...]]:
    """Per-coordinate extremal laws at ``p`` plus the upper/lower mass vectors.

    At the optimal point the masses satisfy sum p_i^+ = sum p_i^- = 1; a
    violation beyond 1e-6 means ``p`` is not the optimum and is rejected.
    """
    table = mass_table(spec.mu, spec.sigma, p.c, p.lam)
    p_minus = tuple(table.p[0].tolist())
    p_plus = tuple(table.p[2].tolist())
    err_plus = abs(math.fsum(p_plus) - 1.0)
    err_minus = abs(math.fsum(p_minus) - 1.0)
    if max(err_plus, err_minus) > 1e-6:
        raise ValidationError(
            "upper/lower masses must each sum to 1 at the optimum "
            f"(off by {err_plus:.3e} and {err_minus:.3e}); "
            f"(c={p.c!r}, lambda={p.lam!r}) does not minimize the objective"
        )
    return _three_point_laws(table), p_plus, p_minus


def _validate_marginal_vector(v: Sequence[float], name: str) -> list[float]:
    vals = [float(x) for x in v]
    if any(x < -1e-12 for x in vals):
        raise ValidationError(f"{name} has a negative entry")
    vals = [max(x, 0.0) for x in vals]
    total = math.fsum(vals)
    if abs(total - 1.0) > 1e-8:
        raise ValidationError(f"{name} sums to {total!r}, not 1")
    return vals


def _heap(values: list[float]) -> list[tuple[float, int]]:
    heap = [(-v, l) for l, v in enumerate(values)]
    heapq.heapify(heap)
    return heap


def _top(heap: list[tuple[float, int]], values: list[float], count: int) -> list[int]:
    """The first ``count`` indices by decreasing value, ties by increasing index.

    ``heap`` holds (-value, index) entries and is updated lazily: an entry
    whose value is no longer ``values[index]`` is stale and dropped here.
    """
    found: list[tuple[float, int]] = []
    while heap and len(found) < count:
        entry = heapq.heappop(heap)
        if entry[0] == -values[entry[1]] and entry not in found:
            found.append(entry)
    for entry in found:
        heapq.heappush(heap, entry)
    return [index for _, index in found]


def _coupling_by_greedy(p: list[float], q: list[float]) -> np.ndarray:
    """Largest-remaining-sum greedy with a capped transfer, stall-free.

    Serving the index with the largest p_l + q_l first and capping every
    transfer so that max_l (p_l + q_l) never exceeds the remaining total mass
    keeps the feasibility condition invariant; when some index reaches
    equality the remaining matrix is forced entirely into its row and column,
    which also reproduces the unique solution of the equality case.  Each
    pass zeroes a marginal entry or triggers the forced branch, so the loop
    ends within about 2n steps.  A pass changes two entries, so heaps find
    the largest p_l + q_l, p_i and q_j in O(log n) each; ties go to the
    lowest index.

    Mass within ``tol`` of zero, or of the remaining total m, counts as
    exactly there.  ``tol`` is 1e-14, about 45 ulps of the total mass 1, or
    n ulps of m when that is larger: m sums n rounded masses that the
    solver balances only to its residual, so the tail masses of a star with
    n = 200 sum to 1 + 1.3e-14.
    """
    n = len(p)
    out = np.zeros((n, n), dtype=float)
    pt = list(p)
    qt = list(q)
    sums = [a + b for a, b in zip(pt, qt)]
    by_p, by_q, by_sum = _heap(pt), _heap(qt), _heap(sums)
    for _ in range(4 * n + 8):
        m = math.fsum(pt)
        if m <= _MASS_EPS:
            break
        tol = max(_MASS_EPS, n * _EPS * m)
        k = _top(by_sum, sums, 1)[0]
        if sums[k] >= m - tol:
            for i in range(n):
                if i != k and pt[i] > 0.0:
                    out[i, k] += pt[i]
                    pt[i] = 0.0
            for j in range(n):
                if j != k and qt[j] > 0.0:
                    out[k, j] += qt[j]
                    qt[j] = 0.0
            pt[k] = qt[k] = 0.0
            break
        if pt[k] >= qt[k]:
            row = k
            col = next(j for j in _top(by_q, qt, 2) if j != k)
        else:
            col = k
            row = next(i for i in _top(by_p, pt, 2) if i != k)
        others = [l for l in _top(by_sum, sums, 3) if l != row and l != col]
        cap = m - (sums[others[0]] if others else 0.0)
        delta = min(pt[row], qt[col], cap)
        out[row, col] += delta
        pt[row] -= delta
        qt[col] -= delta
        # A cap an ulp short of an entry leaves float residue there, which
        # the forced branch would otherwise turn into a cell of its own.
        if pt[row] <= tol:
            pt[row] = 0.0
        if qt[col] <= tol:
            qt[col] = 0.0
        heapq.heappush(by_p, (-pt[row], row))
        heapq.heappush(by_q, (-qt[col], col))
        for l in (row, col):
            sums[l] = pt[l] + qt[l]
            heapq.heappush(by_sum, (-sums[l], l))
    return out


def _check_coupling(
    matrix: np.ndarray, p: Sequence[float], q: Sequence[float], tol: float = 1e-12
) -> bool:
    if matrix.min() < 0.0:
        return False
    if np.any(np.diag(matrix) != 0.0):
        return False
    if np.max(np.abs(matrix.sum(axis=1) - np.asarray(p))) > tol:
        return False
    if np.max(np.abs(matrix.sum(axis=0) - np.asarray(q))) > tol:
        return False
    return True


def zero_trace_coupling(p: Sequence[float], q: Sequence[float]) -> ProbabilityMatrix:
    """A probability matrix with marginals (p, q) and exactly zero diagonal.

    Exists if and only if max_i (p_i + q_i) <= 1.  At equality for index k
    the solution is unique: column k carries p_i (i != k) and row k carries
    q_j (j != k).  The greedy construction covers both cases; its marginals
    are checked to 1e-12 and a miss raises ``InfeasibleCouplingError``.
    """
    pv = _validate_marginal_vector(p, "p")
    qv = _validate_marginal_vector(q, "q")
    if len(pv) != len(qv):
        raise ValidationError("p and q must have equal length")
    if len(pv) < 2:
        raise ValidationError("need at least two indices")
    worst = max(pi + qi for pi, qi in zip(pv, qv))
    if worst > 1.0 + 1e-12:
        k = max(range(len(pv)), key=lambda i: pv[i] + qv[i])
        raise InfeasibleCouplingError(
            "no zero-diagonal coupling exists: requires max_i (p_i + q_i) <= 1 "
            f"but index {k} has p+q = {worst!r}"
        )
    matrix = _coupling_by_greedy(pv, qv)
    if not _check_coupling(matrix, pv, qv):
        raise InfeasibleCouplingError("the greedy coupling failed the marginal check")
    return ProbabilityMatrix(q=matrix)


def _strong_components(succ: list[list[int]]) -> list[int]:
    """Strongly connected component label of every node, by Tarjan (1972).

    Iterative, so the depth of the search is bounded by memory rather than
    by the interpreter's recursion limit.  A visited node still without a
    label is exactly a node on Tarjan's stack.
    """
    size = len(succ)
    index = [-1] * size
    low = [0] * size
    label = [-1] * size
    stack: list[int] = []
    counter = labels = 0
    for root in range(size):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if label[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        label[w] = labels
                        if w == v:
                            break
                    labels += 1
    return label


def _path(adj: list[list[int]], src: int, dst: int) -> list[int]:
    """Nodes of a shortest path src, ..., dst, by breadth-first search."""
    parent = {src: src}
    queue = deque([src])
    while dst not in parent:
        v = queue.popleft()
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                queue.append(w)
    path = [dst]
    while path[-1] != src:
        path.append(parent[path[-1]])
    return path[::-1]


def _positive_cycle(positive: np.ndarray) -> list[int] | None:
    """A cycle of positive cells in the row-column graph, or None for a forest.

    Nodes are rows 0..n-1 and columns n..2n-1, one undirected edge per
    positive cell; union-find meets the first cell that closes a cycle, and
    the cycle is that cell plus the forest path between its ends.  Returned
    as nodes starting at a row, alternating row and column.
    """
    n = positive.shape[0]
    root = list(range(2 * n))
    forest: list[list[int]] = [[] for _ in range(2 * n)]

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for i, j in np.argwhere(positive).tolist():
        a, b = find(i), find(n + j)
        if a == b:
            return [i] + _path(forest, n + j, i)[:-1]
        root[a] = b
        forest[i].append(n + j)
        forest[n + j].append(i)
    return None


def perturb_coupling(m: ProbabilityMatrix) -> ProbabilityMatrix | None:
    """A different zero-diagonal coupling with the same marginals, or None.

    Another coupling exists exactly when mass can be shifted around a cycle
    of cells that alternately receive mass (any off-diagonal cell) and give
    it (any positive cell) without using one cell both ways.  In the
    exchange digraph of the transportation polytope (Klee & Witzgall, 1968)
    on rows r_i and columns c_j, with r_i -> c_j for every off-diagonal cell
    and c_j -> r_i for every positive cell, such a cycle is a directed cycle
    of length at least 4.  It either uses a one-way edge (a zero cell), which
    then lies inside one strongly connected component, where a shortest
    path back closes it; or it uses only positive cells, which then contain
    an undirected cycle.  The components come from Tarjan's algorithm and
    the positive cycle from union-find, so the whole certificate is O(n**2)
    with no recursion, and ``None`` certifies the coupling is the only one.

    Otherwise the smallest giving mass is shifted around the cycle found.
    """
    if not isinstance(m, ProbabilityMatrix):
        raise ValidationError("perturb_coupling expects a ProbabilityMatrix")
    if not m.is_zero_trace():
        raise ValidationError("input matrix must have an exactly zero diagonal")
    q = m.q
    n = m.n
    positive = q > 0.0
    columns = list(range(n, 2 * n))
    succ = [columns[:i] + columns[i + 1 :] for i in range(n)]
    succ += [np.flatnonzero(positive[:, j]).tolist() for j in range(n)]
    label = np.asarray(_strong_components(succ))
    one_way = ~positive & (label[:n, None] == label[None, n:])
    np.fill_diagonal(one_way, False)
    if one_way.any():
        i, j = np.argwhere(one_way)[0].tolist()
        cycle: list[int] | None = [i] + _path(succ, n + j, i)[:-1]
    else:
        cycle = _positive_cycle(positive)
        if cycle is None:
            return None
    # Cell (rows[t], cols[t]) receives mass and (rows[t + 1], cols[t]) gives.
    rows = cycle[0::2]
    cols = [v - n for v in cycle[1::2]]
    givers = rows[1:] + rows[:1]
    eps = q[givers, cols].min()
    out = np.array(q)
    out[rows, cols] += eps
    out[givers, cols] -= eps
    out[np.abs(out) < 1e-16] = 0.0
    candidate = ProbabilityMatrix(q=out)
    if np.array_equal(out, q) or not _check_coupling(
        out, m.row_marginals, m.col_marginals, tol=1e-12
    ):
        raise ValidationError(
            "shifting mass around the exchange cycle failed the marginal check"
        )
    return candidate


class ExtremalComponents(NamedTuple):
    """Everything produced on the way to an extremal joint distribution."""

    report: BoundReport
    marginals: tuple[ThreePointDist, ...]
    p_plus: tuple[float, ...]
    p_minus: tuple[float, ...]
    coupling: ProbabilityMatrix
    joint: AttainingJoint


def _first_outside(
    values: np.ndarray, candidates: np.ndarray, rows: np.ndarray, cols: np.ndarray, fill: float
) -> np.ndarray:
    """Per atom, ``values`` at the first candidate index that is neither its
    row nor its column, or ``fill`` when every candidate is."""
    out = np.full(rows.shape, fill)
    open_ = np.ones(rows.shape, dtype=bool)
    for k in candidates.tolist():
        take = open_ & (rows != k) & (cols != k)
        out[take] = values[k]
        open_ &= ~take
    return out


@dataclass(frozen=True, eq=False)
class AttainingJoint:
    """The attaining law, stored as its points and its coupling.

    One atom per positive cell (i, j) of ``coupling``, in row-major order,
    with mass q_ij: coordinate i at x_plus[i], coordinate j at x_minus[j],
    every other coordinate k at x_zero[k].  It answers the questions of a
    ``JointDiscreteDistribution`` (``support``, ``prob``, ``arrays()``,
    ``atom_ranges()``, ``to_json_dict()``) with the same values; the
    n-tuples of ``support`` are built only when asked for.
    """

    x_zero: np.ndarray
    x_plus: np.ndarray
    x_minus: np.ndarray
    coupling: ProbabilityMatrix

    def __post_init__(self) -> None:
        n = self.coupling.n
        for name in ("x_zero", "x_plus", "x_minus"):
            values = np.array(getattr(self, name), dtype=float)
            if values.shape != (n,):
                raise ValidationError(f"{name} must hold {n} values, got shape {values.shape}")
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        total = math.fsum(self.prob)
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"probabilities sum to {total!r}, not 1")
        # Two distinct cells put some coordinate at two different kinds of
        # point (top, middle, bottom), so their atoms can coincide only
        # where two of a coordinate's points are equal.
        x0, xp, xm = self.x_zero, self.x_plus, self.x_minus
        if np.any((x0 == xp) | (x0 == xm) | (xp == xm)) and len(set(self.support)) != len(
            self.support
        ):
            raise ValidationError("duplicate support vectors")

    @cached_property
    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column indices of the positive cells, row-major."""
        return np.nonzero(self.coupling.q > 0.0)

    @cached_property
    def prob(self) -> tuple[float, ...]:
        return tuple(self.coupling.q[self.cells].tolist())

    @cached_property
    def support(self) -> tuple[tuple[float, ...], ...]:
        return tuple(map(tuple, self.arrays()[0].tolist()))

    @property
    def dim(self) -> int:
        return self.x_zero.shape[0]

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(support, prob) as a fresh (atoms, n) array and a mass vector."""
        rows, cols = self.cells
        support = np.tile(self.x_zero, (rows.shape[0], 1))
        atoms = np.arange(rows.shape[0])
        support[atoms, rows] = self.x_plus[rows]
        support[atoms, cols] = self.x_minus[cols]
        return support, self.coupling.q[rows, cols]

    def atom_ranges(self) -> np.ndarray:
        """max - min of every atom, in O(1) per atom.

        Outside its row and column an atom equals x_zero, whose extremes
        there are among its three largest and three smallest entries.
        """
        rows, cols = self.cells
        ends = (self.x_plus[rows], self.x_minus[cols])
        order = np.argsort(self.x_zero, kind="stable")
        top = _first_outside(self.x_zero, order[::-1][:3], rows, cols, -math.inf)
        bottom = _first_outside(self.x_zero, order[:3], rows, cols, math.inf)
        return np.maximum(np.maximum(*ends), top) - np.minimum(np.minimum(*ends), bottom)

    def to_json_dict(self) -> dict:
        return {"support": self.arrays()[0].tolist(), "prob": list(self.prob)}


def extremal_components(spec: MomentSpec, tol: float = DEFAULT_TOL) -> ExtremalComponents:
    """Bound, marginals, coupling, and joint for ``spec`` in one pass.

    Works for n = 2 as well: there the same marginal table yields two
    two-point laws and the coupling is the unique anti-diagonal matrix.
    """
    report = rho_bound(spec, tol)
    marginals, p_plus, p_minus = extremal_marginals(spec, report.optimum)
    coupling = zero_trace_coupling(p_plus, p_minus)
    joint = AttainingJoint(
        x_zero=[d.x_zero for d in marginals],
        x_plus=[d.x_plus for d in marginals],
        x_minus=[d.x_minus for d in marginals],
        coupling=coupling,
    )
    return ExtremalComponents(report, marginals, p_plus, p_minus, coupling, joint)


def build_extremal_joint(spec: MomentSpec, tol: float = DEFAULT_TOL) -> AttainingJoint:
    """A joint law with the prescribed moments whose expected range is rho_n."""
    return extremal_components(spec, tol).joint


def ag_tightness(
    spec: MomentSpec,
) -> tuple[bool, bool | None, AttainingJoint | None]:
    """Decide whether rho_n equals the closed-form bound, and build a witness.

    The bound sqrt(2 S), S = sum_i [(mu_i - mu_bar)**2 + sigma_i**2], is
    attained exactly when, for every i,

        (i)  |mu_i - mu_bar| <= sqrt(2) theta_i**2 / sqrt(S),
        (ii) theta_i**2 <= S / 2,

    with theta_i**2 = (mu_i - mu_bar)**2 + sigma_i**2.  When tight, the
    attaining joint takes values mu_bar +/- AG/2 at one coordinate each and
    mu_bar elsewhere.  ``unique`` says whether the witness's coupling is the
    only zero-diagonal one with its tail masses: True when some (ii) holds
    with equality (the coupling is then forced), and otherwise the verdict
    of :func:`perturb_coupling`.  It is None only when the bound is not
    tight.
    """
    mu, sigma = spec.mu, spec.sigma
    mb = spec.mu_bar
    # In units of 2**e the squares cannot overflow, and (i) and (ii) are
    # homogeneous of degree 2, so the verdicts are those of the raw values.
    d, s, e = scaled_deviations(spec)
    theta2 = d * d + s * s
    s_total = math.fsum(theta2.tolist())
    ag_unit = math.sqrt(2.0 * s_total)
    slack = 1e-12 * s_total
    cond_i = bool(np.all(0.5 * np.abs(d) * ag_unit <= theta2 + slack))
    cond_ii = bool(np.all(theta2 <= 0.5 * s_total + slack))
    if not (cond_i and cond_ii):
        return False, None, None
    ag = math.ldexp(ag_unit, e)
    # (mu_bar, AG/4) is then the dual optimum, with every coordinate in I2
    # or on its boundary, and the table there gives the tail masses.
    table = mass_table(mu, sigma, mb, 0.25 * ag)
    tails = table.p[2] + table.p[0]
    coupling = zero_trace_coupling(table.p[2].tolist(), table.p[0].tolist())
    unique = float(tails.max()) >= 1.0 - 1e-12 or perturb_coupling(coupling) is None
    half = 0.5 * ag
    n = spec.n
    joint = AttainingJoint(
        x_zero=np.full(n, mb), x_plus=np.full(n, mb + half), x_minus=np.full(n, mb - half),
        coupling=coupling,
    )
    return True, unique, joint


def bnt_extremal_max(spec: MomentSpec) -> JointDiscreteDistribution:
    """The n-outcome law attaining the expected-maximum bound.

    Outcome j lifts coordinate j to y0 + alpha_j and drops every other
    coordinate i to y0 - alpha_i, with probability (1 - (y0 - mu_j)/alpha_j)/2.
    """
    _, y0 = bnt_max_bound(spec)
    alpha = [math.hypot(m - y0, s) for m, s in zip(spec.mu, spec.sigma)]
    probs = [
        _clamp_probability(0.5 * (1.0 - (y0 - m) / a), "max-attaining law")
        for m, a in zip(spec.mu, alpha)
    ]
    support: list[tuple[float, ...]] = []
    prob: list[float] = []
    base = [y0 - a for a in alpha]
    for j, pj in enumerate(probs):
        if pj <= 0.0:
            continue
        vec = list(base)
        vec[j] = y0 + alpha[j]
        support.append(tuple(vec))
        prob.append(pj)
    return JointDiscreteDistribution(support=tuple(support), prob=tuple(prob))


@dataclass
class PairSampler:
    """Sampler for a correlated pair whose coordinate gap is constant.

    With delta = sigma1**2 + sigma2**2 - 2 rho sigma1 sigma2 > 0 the pair is
    a sign variable S = +/-1 (probability of +1 chosen to fix the means)
    mixed with an independent two-point variable T:

        X1 = [gamma2 (sigma1**2 - rho sigma1 sigma2) S + T] / delta,
        X2 = [gamma2 (rho sigma1 sigma2 - sigma2**2) S + T] / delta,

    so that X1 - X2 = gamma2 * S almost surely while means, variances, and
    correlation all match.  delta = 0 (equal sigmas, rho = 1) degenerates to
    a common shift: X = (mu1 + T, mu2 + T).

    Instances carry a private seeded stream; ``sample(k)`` advances it, while
    ``sample(k, seed=...)`` uses a fresh stream and leaves the instance
    untouched (the reproducible pattern for concurrent use).
    """

    mu1: float
    mu2: float
    sigma1: float
    sigma2: float
    rho: float
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.sigma1 <= 0.0 or self.sigma2 <= 0.0:
            raise ValidationError("sigmas must be positive")
        if abs(self.rho) > 1.0:
            raise ValidationError("correlation must lie in [-1, 1]")
        self.gamma2 = gamma2_bound(self.mu1, self.mu2, self.sigma1, self.sigma2, self.rho)
        self.delta = (
            self.sigma1**2 + self.sigma2**2 - 2.0 * self.rho * self.sigma1 * self.sigma2
        )
        if self.delta > 0.0:
            self.p_plus = 0.5 * (1.0 + (self.mu1 - self.mu2) / self.gamma2)
            cross = self.rho * self.sigma1 * self.sigma2
            self.coef1 = self.gamma2 * (self.sigma1**2 - cross)
            self.coef2 = self.gamma2 * (cross - self.sigma2**2)
            self.t_mean = (
                self.mu1 * self.sigma2**2
                + self.mu2 * self.sigma1**2
                - cross * (self.mu1 + self.mu2)
            )
            t_var = self.delta * (self.sigma1 * self.sigma2) ** 2 * (1.0 - self.rho**2)
            self.t_std = math.sqrt(max(t_var, 0.0))
        self._rng = np.random.default_rng(self.seed)

    def sample(self, n_samples: int, seed: int | None = None) -> np.ndarray:
        """An (n_samples, 2) array of draws."""
        n_samples = int(n_samples)
        if n_samples < 1:
            raise ValidationError("n_samples must be at least 1")
        rng = self._rng if seed is None else np.random.default_rng(seed)
        if self.delta == 0.0:
            t = np.where(rng.random(n_samples) < 0.5, -self.sigma1, self.sigma1)
            return np.column_stack((self.mu1 + t, self.mu2 + t))
        sign = np.where(rng.random(n_samples) < self.p_plus, 1.0, -1.0)
        t = np.where(
            rng.random(n_samples) < 0.5,
            self.t_mean - self.t_std,
            self.t_mean + self.t_std,
        )
        x1 = (self.coef1 * sign + t) / self.delta
        x2 = (self.coef2 * sign + t) / self.delta
        return np.column_stack((x1, x2))

    def as_joint(self) -> JointDiscreteDistribution:
        """The same law as an explicit finite-support object (2-4 atoms)."""
        atoms: dict[tuple[float, float], float] = {}

        def add(x1: float, x2: float, p: float) -> None:
            if p <= 0.0:
                return
            key = (float(x1), float(x2))
            atoms[key] = atoms.get(key, 0.0) + p

        if self.delta == 0.0:
            add(self.mu1 + self.sigma1, self.mu2 + self.sigma1, 0.5)
            add(self.mu1 - self.sigma1, self.mu2 - self.sigma1, 0.5)
        else:
            for sign, ps in ((1.0, self.p_plus), (-1.0, 1.0 - self.p_plus)):
                for t in (self.t_mean - self.t_std, self.t_mean + self.t_std):
                    add(
                        (self.coef1 * sign + t) / self.delta,
                        (self.coef2 * sign + t) / self.delta,
                        0.5 * ps,
                    )
        support = tuple(atoms.keys())
        prob = tuple(atoms[k] for k in support)
        return JointDiscreteDistribution(support=support, prob=prob)


def extremal_pair_given_correlation(
    mu1: float,
    mu2: float,
    sigma1: float,
    sigma2: float,
    rho: float,
    seed: int = 0,
) -> PairSampler:
    """Sampler for the pair attaining the correlation-aware gap bound."""
    return PairSampler(
        mu1=float(mu1),
        mu2=float(mu2),
        sigma1=float(sigma1),
        sigma2=float(sigma2),
        rho=float(rho),
        seed=int(seed),
    )
