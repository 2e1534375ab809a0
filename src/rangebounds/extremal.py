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
which always holds at the optimum, and `zero_trace_coupling` builds one by
cutting a circle: the north-west-corner rule laid out with the columns
shifted just far enough that no row meets its own column.

The module also builds the laws that attain the comparison bounds: the
witness of the closed-form dispersion bound when it is tight
(`ag_tightness`), the distribution attaining the expected-maximum bound
(`bnt_extremal_max`), and the correlated pair with constant coordinate gap
(`extremal_pair_given_correlation`).  Each reads its quantities off the
function in :mod:`rangebounds.solver` that computes its bound (theta_i**2
and S from the dispersion bound's sum, the root and the cancellation-free
legs from the expected-maximum bound, the pair's frame and Var(X1 - X2)
from the gap bound), so every formula is written once, there.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ConvergenceError, InfeasibleCouplingError, ValidationError
from .objective import DualPoint, MassTable, MomentSpec, mass_table
from .solver import (
    BoundReport,
    _ag_bound,
    _bnt_max,
    _dispersion,
    _pair,
    _representable,
    rho_bound,
    scaled_deviations,
)

__all__ = [
    "ProbabilityMatrix",
    "JointDiscreteDistribution",
    "AttainingJoint",
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

#: The one tolerance of the probability contract: how far the exactly
#: rounded sum of a probability vector or matrix may stray from 1.
_MASS_TOL = 1e-12

#: How far :func:`zero_trace_coupling` lets its marginals miss feasibility,
#: up front and in the indices it forces: 3/4 of ``_MASS_TOL``.
_EDGE = 0.75 * _MASS_TOL


def _probabilities(values: Iterable, name: str) -> tuple[list[float], float]:
    """``values`` as floats and their ``math.fsum``, under the one contract.

    Every probability vector or matrix the package accepts (the marginals
    of :func:`zero_trace_coupling`, the cells of a ``ProbabilityMatrix``,
    the masses of a ``JointDiscreteDistribution``) has finite entries, none
    negative, whose ``math.fsum`` lies within ``_MASS_TOL`` of 1; anything
    else raises ``ValidationError``.
    """
    try:
        vals = list(map(float, values))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a vector of numbers") from exc
    if not all(map(math.isfinite, vals)):
        raise ValidationError(f"{name} must be finite")
    if min(vals, default=0.0) < 0.0:
        raise ValidationError(f"{name} must be nonnegative")
    total = math.fsum(vals)
    if abs(total - 1.0) > _MASS_TOL:
        raise ValidationError(f"{name} sums to {total!r}, not 1")
    return vals, total


class ProbabilityMatrix:
    """An n x n matrix under the probability contract, stored as its positive cells.

    Its entries are finite and nonnegative, and their ``math.fsum`` lies
    within 1e-12 of 1, as for every probability vector the package takes.
    ``cells`` holds the rows, columns and values of the positive entries in
    row-major order; the dense read-only ``q`` is formed only when it is
    read.  Couplings with zero diagonal carry no cell there; the type does
    not require it, and ``AttainingJoint`` and ``perturb_coupling`` refuse
    a matrix that has one.
    """

    def __init__(self, q: np.ndarray) -> None:
        try:
            q = np.array(q, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValidationError("q must be a square matrix of numbers") from exc
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValidationError(f"q must be a square matrix, got shape {q.shape}")
        if q.shape[0] < 2:
            raise ValidationError("q must be at least 2 x 2")
        # Zero entries change neither the contract's verdict nor the sum.
        rows, cols = np.nonzero(q)
        values = q[rows, cols]
        _probabilities(values.tolist(), "q")
        q.setflags(write=False)
        self._set(q.shape[0], rows, cols, values)
        self.q = q

    @classmethod
    def _from_cells(
        cls, n: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray
    ) -> "ProbabilityMatrix":
        """The matrix with positive ``values`` at (rows, cols), given row-major."""
        matrix = cls.__new__(cls)
        matrix._set(n, rows, cols, values)
        return matrix

    def _set(self, n: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> None:
        for array in (rows, cols, values):
            array.setflags(write=False)
        self.n = n
        self.cells = (rows, cols, values)

    @cached_property
    def q(self) -> np.ndarray:
        rows, cols, values = self.cells
        q = np.zeros((self.n, self.n))
        q[rows, cols] = values
        q.setflags(write=False)
        return q

    @property
    def row_marginals(self) -> np.ndarray:
        rows, _, values = self.cells
        return np.bincount(rows, values, self.n)

    @property
    def col_marginals(self) -> np.ndarray:
        _, cols, values = self.cells
        return np.bincount(cols, values, self.n)

    @property
    def trace(self) -> float:
        rows, cols, values = self.cells
        return float(values[rows == cols].sum())

    def is_zero_trace(self) -> bool:
        rows, cols, _ = self.cells
        return not np.any(rows == cols)

    def to_json_dict(self) -> dict:
        return {"q": self.q.tolist()}

    @classmethod
    def from_json_dict(cls, data: object) -> "ProbabilityMatrix":
        if not isinstance(data, dict) or "q" not in data:
            raise ValidationError("probability matrix JSON must contain key 'q'")
        return cls(q=data["q"])


@dataclass(frozen=True)
class JointDiscreteDistribution:
    """A finite-support joint law: n-dimensional support vectors with masses.

    The masses meet the probability contract of ``ProbabilityMatrix``.
    """

    support: tuple[tuple[float, ...], ...]
    prob: tuple[float, ...]

    def __post_init__(self) -> None:
        try:
            support = tuple(tuple(map(float, vec)) for vec in self.support)
        except (TypeError, ValueError) as exc:
            raise ValidationError("support must be a sequence of vectors of numbers") from exc
        prob = tuple(_probabilities(self.prob, "prob")[0])
        if len(support) != len(prob):
            raise ValidationError("support and prob lengths differ")
        dims = {len(vec) for vec in support}
        if len(dims) != 1:
            raise ValidationError("support vectors must share one dimension")
        if not all(map(math.isfinite, itertools.chain(*support))):
            raise ValidationError("support must be finite")
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
        return cls(support=data["support"], prob=data["prob"])


def extremal_marginals(spec: MomentSpec, p: DualPoint) -> MassTable:
    """Every coordinate's extremal three-point law at ``p``, as the mass table.

    Coordinate i's law is column i of the table's ``points()`` and ``p``,
    in the region named ``objective.REGION_NAMES[region[i]]``.  At the
    optimum the masses satisfy sum p_i^+ = sum p_i^- = 1; a point whose
    masses miss 1 by more than 1e-6 is not the optimum and is rejected.
    """
    table = mass_table(*spec.arrays(), p.c, p.lam)
    err_plus = abs(math.fsum(table.p[2].tolist()) - 1.0)
    err_minus = abs(math.fsum(table.p[0].tolist()) - 1.0)
    if max(err_plus, err_minus) > 1e-6:
        raise ValidationError(
            "upper/lower masses must each sum to 1 at the optimum "
            f"(off by {err_plus:.3e} and {err_minus:.3e}); "
            f"(c={table.c!r}, lambda={table.lam!r}) does not minimize the objective"
        )
    return table


#: Every finite float is an integer count of 2**-1074, the smallest subnormal.
_UNIT = 1 << 1074


def _units(x: float) -> int:
    """``x`` as an exact count of 2**-1074."""
    num, den = x.as_integer_ratio()
    return num << (1075 - den.bit_length())


def _coupling_on_a_circle(
    p: list[float], q: list[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The north-west-corner rule on a circle, on exact breakpoints.

    With A and B the running sums of p and q, total L, and s = max_i
    (A_{i+1} - B_i), lay row i on [A_i, A_{i+1}) and column j on [B_j + s,
    B_{j+1} + s) mod L; the cells are the overlaps (Peyre & Cuturi,
    "Computational Optimal Transport", 2019, 3.4.2).  The offset s + B_i -
    A_i of column i from row i is at least p_i by the choice of s and at
    most L - q_i because every p_j + q_j <= L, so no cell lies on the
    diagonal, and a zero-length row or column meets nothing.  That gives
    at most |supp p| + |supp q| cells, returned as rows, columns and values
    in row-major order, in one O(n) pass plus the sort.

    The masses are exact integer counts of 2**-1074, so no mass is lost
    beside a larger one and each cell is rounded once.  An index k with the
    largest p_k + q_k (the lowest on ties) within n eps of the larger total
    m, the rounding of a sum of n masses, and within ``_EDGE`` m of it, the
    miss the up-front checks allow, is forced: its row takes the rest
    of every column and its column the rest of every row, each only where
    that side of k holds mass; where both do, the circle yields the exact
    star.  Unequal totals go to a slack index, whose row and column are
    dropped: it holds L - sum p and L - sum q, with L the larger total (or
    the largest p_i + q_i, should that exceed it).  So a row or column
    misses its mass by at most min(n eps, 3/4 1e-12) m, on the forced
    index, or by L less the smaller total.
    """
    n = len(p)
    P, Q = list(map(_units, p)), list(map(_units, q))
    sp, sq = sum(P), sum(Q)
    k = max(range(n), key=lambda i: P[i] + Q[i])
    m = max(sp, sq)
    gap = m - P[k] - Q[k]
    num, den = _EDGE.as_integer_ratio()
    if gap << 52 <= n * m and gap * den <= num * m:
        P[k], Q[k] = (sq - Q[k] if P[k] else 0), (sp - P[k] if Q[k] else 0)
        sp, sq = sum(P), sum(Q)
    total = max(sp, sq, max(map(int.__add__, P, Q)))
    P.append(total - sp)
    Q.append(total - sq)
    # Row t % (n + 1) lies on [rows[t], rows[t + 1]): the circle unrolled twice.
    rows = list(itertools.accumulate(P, initial=0))
    rows += [a + total for a in rows[1:]]
    B = list(itertools.accumulate(Q, initial=0))
    s = max(map(int.__sub__, rows[1 : n + 2], B))
    cols = [b + s for b in B]
    cells = []
    x, t, j = s, bisect.bisect_right(rows, s) - 1, 0
    while x < cols[-1]:
        end = min(rows[t + 1], cols[j + 1])
        i = t % (n + 1)
        if end > x and i < n and j < n:
            cells.append((i, j, end - x))
        x = end
        t += rows[t + 1] == end
        j += cols[j + 1] == end
    cell_rows, cell_cols, units = zip(*sorted(cells))
    return (
        np.array(cell_rows, dtype=np.intp),
        np.array(cell_cols, dtype=np.intp),
        np.array([u / _UNIT for u in units]),
    )


def _marginals_match(
    cells: tuple[np.ndarray, np.ndarray, np.ndarray],
    p: Sequence[float],
    q: Sequence[float],
) -> bool:
    """Whether the row and column sums of ``cells`` are ``p`` and ``q`` to 1e-12."""
    rows, cols, values = cells
    n = len(p)
    return bool(
        np.max(np.abs(np.bincount(rows, values, n) - p)) <= _MASS_TOL
        and np.max(np.abs(np.bincount(cols, values, n) - q)) <= _MASS_TOL
    )


def zero_trace_coupling(p: Sequence[float], q: Sequence[float]) -> ProbabilityMatrix:
    """A probability matrix with marginals (p, q) and exactly zero diagonal.

    p and q each meet the probability contract (finite, nonnegative, their
    ``math.fsum`` within 1e-12 of 1) and share a length n >= 2, or
    ``ValidationError`` is raised.  A coupling exists if and only if the
    totals agree and max_i (p_i + q_i) is at most the total; both are
    checked up front to 3/4 of 1e-12, and a miss raises
    ``InfeasibleCouplingError``.  For n up to 2,000 the construction then
    moves no marginal by more than that (see :func:`_coupling_on_a_circle`)
    and rounds its sums by at most (n + 2) 2**-53 < 2.5e-13, so its check
    of the marginals to 1e-12 fails, with ``InfeasibleCouplingError``, only
    on a fault of this code.

    At equality for index k the solution is unique: column k carries p_i (i
    != k) and row k carries q_j (j != k).  One cut of a circle covers both
    cases, in O(n) exact integer steps with at most |supp p| + |supp q|
    cells, and gives the star at equality bit for bit.
    """
    pv, p_total = _probabilities(p, "p")
    qv, q_total = _probabilities(q, "q")
    if len(pv) != len(qv):
        raise ValidationError("p and q must have equal length")
    if len(pv) < 2:
        raise ValidationError("need at least two indices")
    if abs(p_total - q_total) > _EDGE:
        raise InfeasibleCouplingError(
            f"no coupling exists: p sums to {p_total!r} and q to {q_total!r}"
        )
    worst = max(pi + qi for pi, qi in zip(pv, qv))
    if worst > min(p_total, q_total) + _EDGE:
        k = max(range(len(pv)), key=lambda i: pv[i] + qv[i])
        raise InfeasibleCouplingError(
            "no zero-diagonal coupling exists: requires max_i (p_i + q_i) <= sum p "
            f"but index {k} has p+q = {worst!r}"
        )
    cells = _coupling_on_a_circle(pv, qv)
    if not _marginals_match(cells, pv, qv):
        raise InfeasibleCouplingError("the coupling failed the marginal check")
    return ProbabilityMatrix._from_cells(len(pv), *cells)


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


def _exchange_cycle(positive: np.ndarray) -> list[int] | None:
    """A cycle of cells that exchange mass, or None when there is none.

    Call a row or column massive if it holds a positive cell.  Without a
    zero cell (i, j), i != j, in a massive row and a massive column, a
    cycle can use only positive cells, and :func:`_positive_cycle` finds
    one.  Otherwise take the first such cell.  If some k gives in column j
    and some m != k gives in row i, then (i, j)+, (k, j)-, (k, m)+, (i, m)-
    is a cycle.  Otherwise column j and row i both give only through the
    same k.  A positive cell (l, m) with l != k and m != k then closes
    (i, j)+, (k, j)-, (k, m)+, (l, m)-, (l, k)+, (i, k)-, and it exists
    exactly when the positive cells are not a star, all in row k or column
    k.  In a star at k every such zero cell has i, j != k, and every path
    out of it returns only to row k, so no cycle passes through a zero
    cell; nor through positive cells alone, which in a star are a forest.
    """
    n = positive.shape[0]
    open_ = ~positive & positive.any(axis=1)[:, None] & positive.any(axis=0)
    np.fill_diagonal(open_, False)
    if not open_.any():
        return _positive_cycle(positive)
    i, j = divmod(int(open_.argmax()), n)
    in_column = np.flatnonzero(positive[:, j]).tolist()
    in_row = np.flatnonzero(positive[i]).tolist()
    for k in in_column:
        for m in in_row:
            if m != k:
                return [i, n + j, k, n + m]
    k = in_column[0]
    outside = positive.copy()
    outside[k] = outside[:, k] = False
    if not outside.any():
        return None
    l, m = divmod(int(outside.argmax()), n)
    return [i, n + j, k, n + m, l, n + k]


def perturb_coupling(m: ProbabilityMatrix) -> ProbabilityMatrix | None:
    """A different zero-diagonal coupling with the same marginals, or None.

    Another coupling exists exactly when mass can be shifted around a cycle
    of cells that alternately receive mass (any off-diagonal cell) and give
    it (any positive cell), touching each row and column at most once.  In
    the exchange digraph of the transportation polytope (Klee & Witzgall,
    1968) every row reaches every column but its own, so the search
    reduces to a test on the pattern of positive cells: such a cycle
    exists exactly when

    * the positive cells contain an undirected cycle, found by union-find,
      or
    * some zero cell (i, j), i != j, lies in a row and a column that hold
      positive cells, and the positive cells are not a star: not all in
      row k or column k for one k.

    :func:`_exchange_cycle` proves the rule and builds the cycle, of four
    or six cells in the second case.  The certificate is O(n**2) with no
    search and no recursion, and ``None`` certifies the coupling is the
    only one.

    Otherwise the smallest giving mass is shifted around the cycle found.
    """
    if not isinstance(m, ProbabilityMatrix):
        raise ValidationError("perturb_coupling expects a ProbabilityMatrix")
    if not m.is_zero_trace():
        raise ValidationError("input matrix must have an exactly zero diagonal")
    q = m.q
    n = m.n
    positive = q > 0.0
    cycle = _exchange_cycle(positive)
    if cycle is None:
        return None
    # Cell (rows[t], cols[t]) receives mass and (rows[t + 1], cols[t]) gives.
    rows = cycle[0::2]
    cols = [v - n for v in cycle[1::2]]
    givers = rows[1:] + rows[:1]
    eps = q[givers, cols].min()
    out = np.array(q)
    out[rows, cols] += eps
    # The smallest giver becomes exactly 0, and no other goes below it.
    out[givers, cols] -= eps
    candidate = ProbabilityMatrix._from_cells(n, *np.nonzero(out), out[out != 0.0])
    if np.array_equal(out, q) or not _marginals_match(
        candidate.cells, m.row_marginals, m.col_marginals
    ):
        raise ValidationError(
            "shifting mass around the exchange cycle failed the marginal check"
        )
    return candidate


class ExtremalComponents(NamedTuple):
    """Everything produced on the way to an extremal joint distribution.

    ``table`` is the report's mass table at the optimum and the one
    representation of the marginals: coordinate i's law is column i of
    ``table.points()`` and of ``table.p``, and the coupling's marginals are
    its rows ``p[2]`` (upper tails) and ``p[0]`` (lower tails).
    """

    report: BoundReport
    table: MassTable
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

    One atom per cell (i, j) of ``coupling``, in row-major order, with mass
    q_ij: coordinate i at x_plus[i], coordinate j at x_minus[j], every other
    coordinate k at x_zero[k].  So coordinate i is at x_plus[i] with the
    mass of row i, at x_minus[i] with the mass of column i, and at
    x_zero[i] with the rest, and every question but the n-tuples is
    answered in O(n + cells).  It answers the questions of a
    ``JointDiscreteDistribution`` (``support``, ``prob``, ``arrays()``,
    ``atom_ranges()``, ``to_json_dict()``) with the same values; the
    n-tuples of ``support`` are built only when asked for.  The total mass
    is the coupling's, which checked it.
    """

    x_zero: np.ndarray
    x_plus: np.ndarray
    x_minus: np.ndarray
    coupling: ProbabilityMatrix

    def __post_init__(self) -> None:
        # A diagonal cell would put its coordinate at x_plus and x_minus at
        # once, so the atoms would not have the masses the law claims.
        if not self.coupling.is_zero_trace():
            raise ValidationError("coupling must have zero diagonal")
        n = self.coupling.n
        for name in ("x_zero", "x_plus", "x_minus"):
            values = np.array(getattr(self, name), dtype=float)
            if values.shape != (n,):
                raise ValidationError(f"{name} must hold {n} values, got shape {values.shape}")
            if not np.all(np.isfinite(values)):
                raise ValidationError(f"{name} must be finite")
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        # Two distinct cells put some coordinate at two different kinds of
        # point (top, middle, bottom), so their atoms can coincide only
        # where two of a coordinate's points are equal.  An atom is x_zero
        # with at most two entries changed, and two atoms coincide exactly
        # when they change the same entries to the same values.
        x0, xp, xm = self.x_zero, self.x_plus, self.x_minus
        if np.any((x0 == xp) | (x0 == xm) | (xp == xm)):
            x0, xp, xm = x0.tolist(), xp.tolist(), xm.tolist()
            changes = [
                frozenset((k, v) for k, v in ((i, xp[i]), (j, xm[j])) if v != x0[k])
                for i, j in zip(*(c.tolist() for c in self.cells))
            ]
            if len(set(changes)) != len(changes):
                raise ValidationError("duplicate support vectors")

    @property
    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column indices of the coupling's cells, row-major."""
        return self.coupling.cells[:2]

    @cached_property
    def prob(self) -> tuple[float, ...]:
        return tuple(self.coupling.cells[2].tolist())

    @cached_property
    def support(self) -> tuple[tuple[float, ...], ...]:
        return tuple(map(tuple, self.arrays()[0].tolist()))

    @property
    def dim(self) -> int:
        return self.x_zero.shape[0]

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(support, prob) as a fresh (atoms, n) array and a mass vector."""
        rows, cols, values = self.coupling.cells
        support = np.tile(self.x_zero, (rows.shape[0], 1))
        atoms = np.arange(rows.shape[0])
        support[atoms, rows] = self.x_plus[rows]
        support[atoms, cols] = self.x_minus[cols]
        return support, values.copy()

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


def extremal_components(spec: MomentSpec) -> ExtremalComponents:
    """Bound, marginals, coupling, and joint for ``spec`` in one pass.

    The marginals are the report's mass table, whose tail rows go to
    :func:`zero_trace_coupling` as they are.  Tails that miss its contract
    (each summing to 1 within 1e-12, max_i (p_i^+ + p_i^-) <= 1) were
    formed away from the optimum, and raise :class:`ConvergenceError`
    carrying the report.  Works for n = 2 as well: there the same table
    yields two two-point laws and the coupling is the unique anti-diagonal
    matrix.
    """
    report = rho_bound(spec)
    table = report.table
    try:
        coupling = zero_trace_coupling(table.p[2].tolist(), table.p[0].tolist())
    except ValidationError as exc:
        raise ConvergenceError(
            f"the tails at c={report.optimum.c!r}, lambda={report.optimum.lam!r} "
            f"admit no coupling: {exc}",
            best=report,
        ) from exc
    x_minus, x_zero, x_plus = table.points()
    joint = AttainingJoint(x_zero=x_zero, x_plus=x_plus, x_minus=x_minus, coupling=coupling)
    return ExtremalComponents(report, table, coupling, joint)


def build_extremal_joint(spec: MomentSpec) -> AttainingJoint:
    """A joint law with the prescribed moments whose expected range is rho_n."""
    return extremal_components(spec).joint


def ag_tightness(
    spec: MomentSpec,
) -> tuple[bool, bool | None, AttainingJoint | None]:
    """Decide whether rho_n equals the closed-form bound, and build a witness.

    The bound sqrt(2 S), S = sum_i [(mu_i - mu_bar)**2 + sigma_i**2], is
    attained exactly when, for every i,

        (i)  |mu_i - mu_bar| <= sqrt(2) theta_i**2 / sqrt(S),
        (ii) theta_i**2 <= S / 2,

    with theta_i**2 = (mu_i - mu_bar)**2 + sigma_i**2.  theta_i**2, S and
    AG are the ones :func:`~rangebounds.solver.ag_bound` forms, in the
    spec's unit frame, where the squares cannot overflow; (i) and (ii) are
    homogeneous of degree 2, so the verdicts are those of the raw values.
    When tight, the attaining joint takes values mu_bar +/- AG/2 at one
    coordinate each and mu_bar elsewhere.  Its tail masses are the mass
    table's at the dual optimum (mu_bar, AG/4), formed in the frame at the
    mean of the frame's deviations: there the upper and the lower tail
    masses each sum to 1 to rounding, while at 0 they would differ by the
    deviations' own rounding, of order ulp(mu_bar) over sigma.  ``unique``
    says whether the witness's coupling is the only zero-diagonal one with
    its tail masses, as :func:`perturb_coupling` certifies; where some (ii)
    holds with equality the coupling is the forced star, which it certifies
    unique.  It is None only when the bound is not tight.
    """
    frame = d, s, e = scaled_deviations(spec)
    theta2, total = _dispersion(frame)
    ag_unit = _ag_bound(total, 0)
    slack = 1e-12 * total
    cond_i = bool(np.all(0.5 * np.abs(d) * ag_unit <= theta2 + slack))
    cond_ii = bool(np.all(theta2 <= 0.5 * total + slack))
    if not (cond_i and cond_ii):
        return False, None, None
    table = mass_table(d, s, math.fsum(d.tolist()) / spec.n, 0.25 * ag_unit)
    coupling = zero_trace_coupling(table.p[2].tolist(), table.p[0].tolist())
    unique = perturb_coupling(coupling) is None
    mb, half = spec.mu_bar, 0.5 * _ag_bound(total, e)
    n = spec.n
    joint = AttainingJoint(
        x_zero=np.full(n, mb), x_plus=np.full(n, mb + half), x_minus=np.full(n, mb - half),
        coupling=coupling,
    )
    return True, unique, joint


def bnt_extremal_max(spec: MomentSpec) -> JointDiscreteDistribution:
    """The n-outcome law attaining the expected-maximum bound.

    With y0 the bound's root and d_i = y0 - mu_i, alpha_i = sqrt(d_i**2 +
    sigma_i**2), outcome j lifts coordinate j to mu_j + (d_j + alpha_j) =
    y0 + alpha_j and drops every other coordinate i to mu_i - (alpha_i -
    d_i) = y0 - alpha_i, with probability (alpha_j - d_j) / (2 alpha_j).
    Each coordinate then has its mean and variance, and the masses sum to
    1 at the root.  The legs alpha -/+ d and the root are those of
    :func:`~rangebounds.solver.bnt_max_bound`, formed on the means less the
    largest.  y0 lies within n max sigma of the largest mean, or else many
    sigmas from every mean, so there the root is resolved to the sigmas
    rather than to the spec's offset; a leg that cancels is formed as
    sigma**2 over the other.  An outcome whose mass underflows to 0 is left
    out.
    """
    mu, sigma = spec.arrays()
    _, _, alpha, gap, rise = _bnt_max(mu - mu.max(), sigma)
    prob = gap / (2.0 * alpha)
    outcomes = np.flatnonzero(prob > 0.0)
    support = np.tile(mu - gap, (outcomes.size, 1))
    support[np.arange(outcomes.size), outcomes] = (mu + rise)[outcomes]
    return JointDiscreteDistribution(
        support=tuple(map(tuple, support.tolist())), prob=tuple(prob[outcomes].tolist())
    )


@dataclass
class PairSampler:
    """Sampler for a correlated pair whose coordinate gap is constant.

    With delta = Var(X1 - X2) > 0 the pair is a sign variable S = +/-1
    (probability of +1 chosen to fix the means) mixed with an independent
    two-point variable T, so that X1 - X2 = gamma2 * S almost surely while
    means, variances, and correlation all match.  d, the sigmas and delta
    are those of :func:`~rangebounds.solver.gamma2_bound`, in the pair's
    unit frame of 2**e, and gamma = hypot(d, sqrt(delta)) is its value
    there, so ``gamma2`` is exactly the bound and (gamma - d)(gamma + d) =
    delta holds to rounding.  The four atoms are offsets from the means:

        X1 = mu1 + 2**e (a1 w +/- t) / delta,
        X2 = mu2 + 2**e (a2 w +/- t) / delta,

    with a1 = sigma1 (sigma1 - sigma2) + (1 - rho) sigma1 sigma2 and a2 =
    sigma2 (sigma1 - sigma2) - (1 - rho) sigma1 sigma2, which differ by
    delta, w = gamma - d for S = +1, w = -(gamma + d) for S = -1, and t =
    sigma1 sigma2 sqrt(delta (1 - rho)(1 + rho)) the standard deviation of
    T; P(S = +1) = (gamma + d) / (2 gamma).  None of these forms cancels as
    rho nears 1, and whichever of gamma -/+ d cancels is formed as delta /
    (gamma + |d|), so no atom loses the spread to the means; the smaller
    probability is formed from that term and the other as 1 minus it, so
    the two sum to 1.  delta = 0 (equal sigmas, rho = 1) degenerates to a
    common shift: X = (mu1 + T, mu2 + T) with T = +/-sigma1.

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
        d, s1, s2, delta, e = _pair(self.mu1, self.mu2, self.sigma1, self.sigma2, self.rho)
        self._rng = np.random.default_rng(self.seed)
        gamma = math.hypot(d, math.sqrt(delta))
        self.gamma2 = _representable(gamma, e)
        if delta == 0.0:
            self.atoms = np.add([[self.mu1, self.mu2]], [[self.sigma1], [-self.sigma1]])
            self.probs = (0.5, 0.5)
            return
        big = gamma + abs(d)
        small = delta / big
        up, down = (small, big) if d >= 0.0 else (big, small)
        p_small = small / (2.0 * gamma)
        self.p_plus = 1.0 - p_small if d >= 0.0 else p_small
        p_minus = p_small if d >= 0.0 else 1.0 - p_small
        split = (1.0 - self.rho) * s1 * s2
        t_std = s1 * s2 * math.sqrt(delta * (1.0 - self.rho) * (1.0 + self.rho))
        # Rows (S, T) = (+1, -), (+1, +), (-1, -), (-1, +).
        w = np.array([up, up, -down, -down])
        t = np.array([-t_std, t_std, -t_std, t_std])
        self.atoms = np.column_stack(
            (
                self.mu1 + np.ldexp(((s1 * (s1 - s2) + split) * w + t) / delta, e),
                self.mu2 + np.ldexp(((s2 * (s1 - s2) - split) * w + t) / delta, e),
            )
        )
        self.probs = (0.5 * self.p_plus,) * 2 + (0.5 * p_minus,) * 2

    def sample(self, n_samples: int, seed: int | None = None) -> np.ndarray:
        """An (n_samples, 2) array of draws."""
        n_samples = int(n_samples)
        if n_samples < 1:
            raise ValidationError("n_samples must be at least 1")
        rng = self._rng if seed is None else np.random.default_rng(seed)
        if len(self.probs) == 2:  # the common shift
            return self.atoms[(rng.random(n_samples) < 0.5).astype(int)]
        sign = rng.random(n_samples) >= self.p_plus
        return self.atoms[2 * sign + (rng.random(n_samples) >= 0.5)]

    def as_joint(self) -> JointDiscreteDistribution:
        """The same law as an explicit finite-support object (2-4 atoms)."""
        atoms: dict[tuple[float, float], float] = {}
        for key, p in zip(map(tuple, self.atoms.tolist()), self.probs):
            if p > 0.0:
                atoms[key] = atoms.get(key, 0.0) + p
        return JointDiscreteDistribution(support=tuple(atoms), prob=tuple(atoms.values()))


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
