"""Problem instances and the convex dual objective for expected-range bounds.

The range of a random vector X = (X_1, ..., X_n) is R_n = max_i X_i - min_i
X_i.  When each coordinate's mean mu_i and variance sigma_i**2 are fixed but
the dependence structure is arbitrary, the sharp upper bound on E R_n equals

    rho_n = inf over c real, lambda > 0 of phi_n(c, lambda),

    phi_n(c, lambda) = -(n - 2) * lambda
                       + (lambda / 2) * sum_i U((mu_i - c)/lambda, sigma_i/lambda),

where U(x, y) is the largest possible value of E[|Z - 1| + |Z + 1|] over all
laws with mean x and standard deviation y.  U is convex, continuously
differentiable, and piecewise closed-form with three branches; consequently
phi_n is convex on the half-plane lambda > 0 and the infimum is attained at a
unique point for n >= 3.

At any (c, lambda) the maximizing law of each coordinate sits on at most
three points x^- < x^0 < x^+ with masses p^-, p^0, p^+, and
grad phi_n = (sum p^- - sum p^+, sum p^0 - (n - 2)).  One numpy kernel,
:func:`mass_table`, gives that table for every coordinate, with the
region of each coordinate and the derivative columns d p^0/d lambda,
d(p^- - p^+)/dc and d p^0/dc; it forms the region masks at once and each
column the first time it is read.  ``u_value``, ``u_gradient``, ``phi``,
``phi_gradient`` and ``classify_regions`` are reads of it, as are the
solver and the extremal constructions; ``u_value_array`` / ``phi_array``
stay an independent formulation for cross-checks.

This module also houses the problem container (:class:`MomentSpec`),
candidate optimization points (:class:`DualPoint`) and the branch
bookkeeping (:class:`RegionPartition`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import ValidationError

__all__ = [
    "MomentSpec",
    "DualPoint",
    "RegionPartition",
    "u_value",
    "u_gradient",
    "phi",
    "phi_gradient",
    "classify_regions",
    "u_value_array",
    "phi_array",
]

#: Relative tolerance used to resolve ties on region boundaries.
BOUNDARY_REL_TOL = 1e-12

# The smallest floats at which the region tests on the signed margins of
# ``MassTable.margin`` pass: m_two >= -BOUNDARY_REL_TOL for r, and
# m_one <= BOUNDARY_REL_TOL for the ratio 2|x|/r**2.  Both margins are
# monotone in their argument, so one comparison with each threshold gives
# the same masks bit for bit.
_R_TWO = 1.9999999999990001
_RATIO_ONE = 0.999999999999

#: Region names in the order of the mass table's region codes 0..3.
REGION_NAMES = ("I1", "I2", "I3", "I4")


def _as_float_tuple(values: Iterable[float], name: str) -> tuple[float, ...]:
    try:
        out = tuple(float(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a sequence of numbers") from exc
    if not all(math.isfinite(v) for v in out):
        raise ValidationError(f"{name} must contain only finite values")
    return out


@dataclass(frozen=True)
class MomentSpec:
    """Per-coordinate means and standard deviations of a random vector.

    The dependence between coordinates is deliberately unspecified: every
    bound computed from a ``MomentSpec`` holds for all joint distributions
    with these marginal moments.
    """

    mu: tuple[float, ...]
    sigma: tuple[float, ...]

    def __post_init__(self) -> None:
        mu = _as_float_tuple(self.mu, "mu")
        sigma = _as_float_tuple(self.sigma, "sigma")
        if len(mu) != len(sigma):
            raise ValidationError(
                f"mu and sigma must have equal length, got {len(mu)} and {len(sigma)}"
            )
        if len(mu) < 2:
            raise ValidationError(f"need at least two coordinates, got {len(mu)}")
        if any(s <= 0.0 for s in sigma):
            raise ValidationError("every sigma must be strictly positive")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def n(self) -> int:
        return len(self.mu)

    @property
    def mu_bar(self) -> float:
        """Mean of the means, ``math.fsum(mu) / n``.  Where the sum leaves
        the float range it is summed over mu_i / 2**k, 2**k >= n, which
        stays inside it, and scaled back."""
        try:
            return math.fsum(self.mu) / self.n
        except OverflowError:
            k = (self.n - 1).bit_length()
            return math.ldexp(math.fsum(math.ldexp(m, -k) for m in self.mu) / self.n, k)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The (mu, sigma) pair as read-only float arrays, for vectorized
        evaluation; formed on the first call and the same objects after."""
        return self._arrays

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        out = np.array(self.mu, dtype=float), np.array(self.sigma, dtype=float)
        for values in out:
            values.setflags(write=False)
        return out

    def to_json_dict(self) -> dict:
        return {"mu": list(self.mu), "sigma": list(self.sigma)}

    @classmethod
    def from_json_dict(cls, data: object) -> "MomentSpec":
        if not isinstance(data, dict):
            raise ValidationError("spec must be a JSON object with 'mu' and 'sigma'")
        missing = {"mu", "sigma"} - set(data)
        if missing:
            raise ValidationError(f"spec is missing required keys: {sorted(missing)}")
        return cls(mu=data["mu"], sigma=data["sigma"])


@dataclass(frozen=True)
class DualPoint:
    """A candidate (c, lambda) with lambda > 0.

    ``lam`` is the scale variable; the attribute avoids the ``lambda``
    keyword, while JSON output uses the key ``"lambda"``.
    """

    c: float
    lam: float

    def __post_init__(self) -> None:
        c = float(self.c)
        lam = float(self.lam)
        if not (math.isfinite(c) and math.isfinite(lam)):
            raise ValidationError("DualPoint coordinates must be finite")
        if lam <= 0.0:
            raise ValidationError(f"lambda must be positive, got {lam}")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "lam", lam)

    def to_json_dict(self) -> dict:
        return {"c": self.c, "lambda": self.lam}


@dataclass(frozen=True)
class RegionPartition:
    """Disjoint classification of coordinate indices at a given (c, lambda).

    With xi_i = mu_i - c and theta_i**2 = xi_i**2 + sigma_i**2:

    * ``i1``: theta_i**2 >= 4 lambda**2 (two-point extremal marginal),
    * ``i2``: the strict middle band (interior three-point marginal),
    * ``i3``: theta_i**2 <= 2 lambda xi_i (no mass below c - lambda),
    * ``i4``: theta_i**2 <= -2 lambda xi_i (no mass above c + lambda).

    Indices are 0-based.
    """

    i1: tuple[int, ...]
    i2: tuple[int, ...]
    i3: tuple[int, ...]
    i4: tuple[int, ...]

    def __post_init__(self) -> None:
        groups = [np.fromiter(g, dtype=np.int64) for g in (self.i1, self.i2, self.i3, self.i4)]
        indices = np.sort(np.concatenate(groups))
        if not np.array_equal(indices, np.arange(indices.size)):
            raise ValidationError(
                "region sets must be disjoint and cover 0..n-1 exactly"
            )
        for name, g in zip(("i1", "i2", "i3", "i4"), groups):
            object.__setattr__(self, name, tuple(g.tolist()))

    @property
    def n(self) -> int:
        return len(self.i1) + len(self.i2) + len(self.i3) + len(self.i4)

    def region_of(self, index: int) -> str:
        for name, g in self.to_json_dict().items():
            if index in g:
                return name
        raise ValidationError(f"index {index} outside 0..{self.n - 1}")

    def to_json_dict(self) -> dict:
        groups = (self.i1, self.i2, self.i3, self.i4)
        return {name: list(g) for name, g in zip(REGION_NAMES, groups)}


@dataclass(frozen=True, eq=False)
class MassTable:
    """The extremal three-point law of every coordinate at one (c, lambda).

    Built by :func:`mass_table`, which forms only what every reader needs:
    the scaled coordinates x = (mu - c)/lambda, y = sigma/lambda, |x|,
    r = hypot(x, y), the ratio 2|x|/r**2 and the two region masks.  Every
    other column is formed the first time it is read, from the same
    per-element expressions, and kept, so a reader pays only for the
    columns it reads.  Arrays hold one entry per coordinate; ``z`` and
    ``p`` hold one row per support slot, in the order minus, zero, plus.

    * ``region``: 0..3 for I1..I4 (names in :data:`REGION_NAMES`);
    * ``z``: support points in the scaled coordinate (x - c)/lambda, with
      the fill points -2, 0, 2 in slots that carry no mass;
    * ``p``: the masses p^-, p^0, p^+, whose middle row is ``p_zero``;
    * ``margin``: relative distance to the nearest region boundary;
    * ``dp0_dlam``, ``dgap_dc``, ``dp0_dc``: d p^0/d lambda,
      d(p^- - p^+)/dc and d p^0/dc, whose sums are the second derivatives
      phi_lambda,lambda, phi_cc and phi_c,lambda.

    ``right``, ``r2``, ``t``, ``h`` and ``k3`` are the intermediates that
    several columns share, formed and kept the same way.
    """

    c: float
    lam: float
    x: np.ndarray
    y: np.ndarray
    ax: np.ndarray
    r: np.ndarray
    ratio: np.ndarray
    two: np.ndarray
    one: np.ndarray

    def _pick(self, i1, i2, i34):
        """The I1, I2 or I3/I4 branch of every coordinate."""
        return np.where(self.two, i1, np.where(self.one, i34, i2))

    @cached_property
    def right(self) -> np.ndarray:
        return self.x > 0.0

    @cached_property
    def r2(self) -> np.ndarray:
        return np.minimum(self.r, 2.0) ** 2  # r < 2 wherever the I2 entries are read

    @cached_property
    def t(self) -> np.ndarray:
        return np.hypot(self.ax - 1.0, self.y)

    @cached_property
    def h(self) -> np.ndarray:
        return (self.ax - 1.0) / self.t

    @cached_property
    def k3(self) -> np.ndarray:
        return 0.5 * (self.y / self.t) ** 2 / self.t

    @cached_property
    def region(self) -> np.ndarray:
        return np.where(self.two, 0, np.where(self.one, np.where(self.right, 2, 3), 1))

    @cached_property
    def p_zero(self) -> np.ndarray:
        return self._pick(0.0, 1.0 - 0.25 * self.r2, 0.5 * (1.0 - self.h))

    @cached_property
    def p(self) -> np.ndarray:
        x, g, r2, right = self.x, self.x / self.r, self.r2, self.right
        far = 0.5 * (1.0 + self.h)
        return np.array(
            (
                self._pick(0.5 * (1.0 - g), 0.125 * (r2 - 2.0 * x), np.where(right, 0.0, far)),
                self.p_zero,
                self._pick(0.5 * (1.0 + g), 0.125 * (r2 + 2.0 * x), np.where(right, far, 0.0)),
            )
        )

    @cached_property
    def z(self) -> np.ndarray:
        r, t, right = self.r, self.t, self.right
        return np.array(
            (
                self._pick(-r, -2.0, np.where(right, -2.0, -1.0 - t)),
                self._pick(0.0, 0.0, np.where(right, 1.0 - t, t - 1.0)),
                self._pick(r, 2.0, np.where(right, 1.0 + t, 2.0)),
            )
        )

    @cached_property
    def margin(self) -> np.ndarray:
        # Signed relative margins to the two-point (I1) boundary,
        # (r**2 - 4)/max(r**2, 4), and to the one-sided (I3/I4) boundary,
        # (r**2 - 2|x|)/max(r**2, 2|x|), written so that r is never squared.
        r, ratio = self.r, self.ratio
        m_two = (0.5 * np.minimum(r, 2.0)) ** 2 - (2.0 / np.maximum(r, 2.0)) ** 2
        m_one = 1.0 / np.maximum(ratio, 1.0) - np.minimum(ratio, 1.0)
        return np.minimum(np.abs(m_two), np.abs(m_one))

    @cached_property
    def dp0_dlam(self) -> np.ndarray:
        return self._pick(0.0, 0.5 * self.r2, self.k3) / self.lam

    @cached_property
    def dgap_dc(self) -> np.ndarray:
        k1 = (self.y / self.r) ** 2 / self.r
        return self._pick(k1, 0.5, self.k3) / self.lam

    @cached_property
    def dp0_dc(self) -> np.ndarray:
        k3 = self.k3
        return self._pick(0.0, 0.5 * self.x, np.where(self.right, k3, -k3)) / self.lam

    def rescaled(self, c: float, lam: float) -> "MassTable":
        """The same table at the point (c, lambda) of another unit frame.

        x, y and every column but the three derivatives are free of units,
        so they carry over as already formed; the derivatives, of order
        1/lambda, are formed again if read.
        """
        # A copy of the instance's fields and formed columns, which the
        # dataclass's __init__ would only set again one by one.
        table = object.__new__(MassTable)
        vars(table).update((k, v) for k, v in vars(self).items() if k not in _PER_LAMBDA)
        vars(table).update(c=float(c), lam=float(lam))
        return table

    def points(self) -> np.ndarray:
        """Support points (x^-, x^0, x^+) in the units of the spec."""
        return self.c + self.lam * self.z

    def excess(self) -> np.ndarray:
        """E[(|Z| - 1)^+] under each law, so that U = 2 + 2 * excess."""
        return np.sum(self.p * np.maximum(np.abs(self.z) - 1.0, 0.0), axis=0)

    def phi(self) -> float:
        """phi = 2 lambda + lambda * sum_i excess_i, a sum of nonnegative terms."""
        return self.lam * (2.0 + math.fsum(self.excess()))

    def gradient(self) -> tuple[float, float]:
        """(d phi/dc, d phi/d lambda) = (sum p^- - sum p^+, sum p^0 - (n - 2))."""
        p_minus, p_zero, p_plus = self.p.sum(axis=1)
        return float(p_minus - p_plus), float(p_zero - (self.x.size - 2))

    def partition(self) -> RegionPartition:
        return RegionPartition(
            *(tuple(np.flatnonzero(self.region == k).tolist()) for k in range(4))
        )


#: The columns in units of 1/lambda, which ``MassTable.rescaled`` does not
#: carry over.
_PER_LAMBDA = frozenset(("dp0_dlam", "dgap_dc", "dp0_dc"))


def mass_table(mu, sigma, c: float, lam: float) -> MassTable:
    """Every coordinate's extremal three-point law at (c, lambda).

    Works in the scaled coordinates x = (mu - c)/lambda, y = sigma/lambda,
    r = hypot(x, y), so nothing is squared in the units of the spec.  Per
    region (with s = |x| - 1, t = hypot(s, y) in I3/I4):

    * I1, r**2 >= 4:        z = -r, r with p^-/+ = (1 -/+ x/r)/2;
    * I2, the middle band:  z = -2, 0, 2 with p^-/+ = (r**2 -/+ 2x)/8 and
      p^0 = 1 - r**2/4;
    * I3 (x > 0) / I4 (x < 0), r**2 <= 2|x|: z = +/-(1 - t) with
      p^0 = (1 - s/t)/2 and the far tail z = +/-(1 + t) with the rest.

    Boundary ties within ``BOUNDARY_REL_TOL`` go to I1 first, then to
    I3/I4; the masses are continuous across every boundary, so a tie moves
    only the bookkeeping.  This forms the two region masks, each as one
    comparison of r or of 2|x|/r**2 with the exact threshold of its margin
    test; every column of the returned table, the margins included, is
    formed when it is first read, with ``np.where`` on the masks.  Every
    branch is finite wherever sigma > 0, so the discarded values raise no
    warnings.
    """
    x = (np.asarray(mu, dtype=float) - c) / lam
    y = np.asarray(sigma, dtype=float) / lam
    ax = np.abs(x)
    r = np.hypot(x, y)
    ratio = 2.0 * (ax / r) / r
    two = r >= _R_TWO
    one = ~two & (ratio >= _RATIO_ONE)
    return MassTable(float(c), float(lam), x, y, ax, r, ratio, two, one)


def _require_positive_y(y: float) -> float:
    y = float(y)
    if not math.isfinite(y) or y <= 0.0:
        raise ValidationError(f"y must be a positive real, got {y}")
    return y


def _unit_table(x: float, y: float) -> MassTable:
    """The table of one coordinate with mean |x| and deviation y at (0, 1)."""
    return mass_table((abs(float(x)),), (y,), 0.0, 1.0)


def u_value(x: float, y: float) -> float:
    """Largest E[|Z - 1| + |Z + 1|] over laws with mean x, standard deviation y.

    Three branches, continuous across their boundaries:

    * x**2 + y**2 >= 4:        2 * sqrt(x**2 + y**2)
    * 2|x| < x**2 + y**2 < 4:  2 + (x**2 + y**2) / 2
    * x**2 + y**2 <= 2|x|:     |x| + 1 + sqrt((|x| - 1)**2 + y**2)

    Always exceeds 2, and is at least 2 * max(|x|, 1).  Read off the mass
    table as the expectation under the maximizing law, using
    |z - 1| + |z + 1| = 2 + 2 (|z| - 1)^+ (U is even in x).
    """
    return 2.0 + 2.0 * float(_unit_table(x, _require_positive_y(y)).excess()[0])


def u_gradient(x: float, y: float) -> tuple[float, float]:
    """Gradient (dU/dx, dU/dy) of :func:`u_value`, continuous on y > 0.

    Read off the mass table at |x|: dU/dx = 2 (p^+ - p^-), odd in x, and
    dU/dy = 2y / (z^+ - z^0), since the quadratic majorant of |z - 1| +
    |z + 1| that touches the law's support points has curvature
    1/(z^+ - z^0).  Branch by branch this is (2x, 2y)/r outside the circle
    r = 2, (x, y) inside it, and (x -/+ 1)/t +/- 1, y/t in I3/I4.
    """
    y = _require_positive_y(y)
    table = _unit_table(x, y)
    p_minus, _, p_plus = table.p[:, 0].tolist()
    _, z_zero, z_plus = table.z[:, 0].tolist()
    return math.copysign(2.0 * (p_plus - p_minus), float(x)), 2.0 * y / (z_plus - z_zero)


def phi(p: DualPoint, spec: MomentSpec) -> float:
    """The dual objective phi_n(c, lambda); every value upper-bounds E R_n."""
    return mass_table(*spec.arrays(), p.c, p.lam).phi()


def phi_gradient(p: DualPoint, spec: MomentSpec) -> tuple[float, float]:
    """Gradient (d phi/dc, d phi/d lambda) = (sum p^- - sum p^+, sum p^0 - (n - 2)).

    These sums over the extremal marginal probabilities equal the chain-rule
    forms -(1/2) sum_i U_x and -(n - 2) + (1/2) sum_i [U - x U_x - y U_y]
    at x_i = (mu_i - c)/lambda, y_i = sigma_i/lambda.
    """
    return mass_table(*spec.arrays(), p.c, p.lam).gradient()


def classify_regions(p: DualPoint, spec: MomentSpec) -> RegionPartition:
    """Assign every coordinate to exactly one of I1..I4 at the point ``p``.

    Boundary ties go to I1 first (where the two-point marginal applies), then
    to I3/I4 at their defining equalities; U and its gradient agree across the
    boundaries, so only the extremal-marginal bookkeeping is affected.
    """
    return mass_table(*spec.arrays(), p.c, p.lam).partition()


def u_value_array(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectorized :func:`u_value` for grid evaluation; y must be positive.

    Kept as an independent numpy formulation (rather than a loop over the
    scalar function) so grid-based certificates exercise a second code path.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0):
        raise ValidationError("y must be positive everywhere")
    r2 = x * x + y * y
    ax = np.abs(x)
    outer = 2.0 * np.sqrt(r2)
    middle = 2.0 + 0.5 * r2
    inner = ax + 1.0 + np.hypot(ax - 1.0, y)
    return np.where(r2 >= 4.0, outer, np.where(r2 <= 2.0 * ax, inner, middle))


def phi_array(
    spec: MomentSpec, c: np.ndarray, lam: np.ndarray
) -> np.ndarray:
    """Vectorized phi over broadcastable arrays of c and lambda > 0.

    Accumulates U - 2 >= 0, as phi = lambda (2 + sum_i (U_i - 2)/2), which
    avoids the cancellation between -(n - 2) lambda and the sum of U at
    large n.
    """
    c = np.asarray(c, dtype=float)
    lam = np.asarray(lam, dtype=float)
    mu, sigma = spec.arrays()
    cb, lb = np.broadcast_arrays(c, lam)
    total = np.zeros(cb.shape, dtype=float)
    for m, s in zip(mu, sigma):
        total += u_value_array((m - cb) / lb, s / lb) - 2.0
    return lb * (2.0 + 0.5 * total)
