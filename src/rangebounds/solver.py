"""Minimization of the dual objective and the closed-form comparison bounds.

The tight bound rho_n is the infimum of phi_n over (c, lambda), lambda > 0.
For n >= 3 the minimizer is unique and interior.  The bound is
affine-equivariant, so every solve, and every mass table of the closed
forms, runs in the spec's unit frame (:func:`scaled_deviations`): the means
centred at their mean and, with the sigmas, divided by a power of two of
their spread.  Only the reported point is mapped back.  The solver reads
everything it needs off the per-coordinate mass table
(:func:`~rangebounds.objective.mass_table`): the gradient
(sum p^- - sum p^+, sum p^0 - (n - 2)) and, from the table's derivative
columns, the second derivatives in closed form.

* It first finds the inner root at the start c: the lambda with
  sum_i p_i^0 = n - 2, bracketed between the second-largest t_i and
  sum_i t_i, with t_i = sqrt((mu_i - c)**2 + sigma_i**2) / 2.  It starts at
  its closed form for coordinates in I1 and I2 only, lambda**2 =
  min(sum_i t_i**2 / 2, sum_i t_i**2 - max t_i**2), exact for equal means,
  and reads only p^0 and d p^0/d lambda of each table.  The root is found
  by ``_newton_bisect``, which takes the Newton step while it stays inside
  a certified bracket and bisects otherwise, so a poor start costs a
  bisection, never a wrong root.
* From that table on it takes joint Newton steps on grad phi = 0 in
  (c, lambda), one per table, solved with lambda times the Hessian, which
  is free of units.  The steps stop at float resolution (c relative to the
  spread of the means, lambda relative to itself) or once the gradient
  norm no longer falls at its rounding level, and the table of least
  gradient norm is reported.
* The table that ends an inner root lies on the valley lambda = lambda*(c)
  of g(c) = min over lambda of phi_n(c, lambda), which is convex with its
  minimum inside [min mu_i, max mu_i], and d phi/dc there is the slope of
  g: its sign narrows a certified bracket on c.  A step is refused when
  the Hessian is not positive definite, c would leave the range of the
  means (the bracket, after the first restore), lambda would fall below
  half its value, or 20 tables pass since the last inner root; after the
  first restore, also when the step does not lower the least gradient
  norm.  A
  refused step restores onto the valley, with the inner root at the
  current c when it lies in the middle half of the bracket and at the
  midpoint otherwise, started on the tangent of c -> lambda*(c), and the
  steps go on from there.  Each restore leaves at most 3/4 of the
  bracket, so the search ends, at the latest once the bracket is
  resolved to float resolution.

n = 2 is special (the minimizing set is a segment touching lambda = 0) and
is served by a closed form.

The module also provides every comparison bound: the mean-spread-plus-
variance bound ``ag_bound`` and its weighted-sum generalization, the i.i.d.
range bound ``plackett_iid_bound``, the expected-maximum bound
``bnt_max_bound`` with the range bound ``bnt_range`` built on it, the
equal-means closed form, and the pair bounds ``gamma2_bound`` /
``pair_cov_bounds`` that also account for a known correlation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, ValidationError
from .objective import DualPoint, MassTable, MomentSpec, RegionPartition, mass_table

__all__ = [
    "BoundReport",
    "ag_bound",
    "ag_general_bound",
    "plackett_iid_bound",
    "bnt_max_bound",
    "bnt_range",
    "rho2_closed",
    "equal_means_bound",
    "minimize_phi",
    "rho_bound",
    "gamma2_bound",
    "pair_cov_bounds",
]

#: Gradient norm at the reported optimum above which a solve raises.
_TOL = 1e-10

#: Relative float resolution at which the scalar roots stop.
_EPS = 2.0**-52

#: Ulps in the rounding level of the gradient, below which the joint
#: Newton steps stop once its norm no longer falls.
_FLOOR_ULPS = 4.0

#: Most tables the joint Newton steps read after an inner root before they
#: restore onto a new one.
_MAX_JOINT_STEPS = 20

#: Relative margin below which a coordinate at the optimum is considered to
#: sit on a region boundary, degenerating the partition bookkeeping.
BOUNDARY_FLAG_REL = 1e-9

#: The spec's unit frame, as :func:`scaled_deviations` returns it.
_Frame = tuple[np.ndarray, np.ndarray, int]


@dataclass(frozen=True)
class BoundReport:
    """Full output of a bound computation.

    ``infimum`` is the best possible lower bound max mu_i - min mu_i (the
    expected range can be driven arbitrarily close to it, never below it);
    ``rho`` is the tight upper bound; ``ag`` the closed-form comparison
    bound, so infimum <= rho <= ag always.  ``residual`` is the Euclidean
    norm of the phi gradient at ``optimum``; ``iterations`` counts the mass
    tables whose gradient and Hessian the search read (closed forms report
    0).  ``table`` is the mass table at ``optimum``, which the regions and
    the residual are read off; it is left out of comparisons, of the repr
    and of the JSON.
    """

    rho: float
    optimum: DualPoint
    regions: RegionPartition
    ag: float
    infimum: float
    method: str
    iterations: int
    residual: float
    table: MassTable = field(repr=False, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "rho": self.rho,
            "c": self.optimum.c,
            "lambda": self.optimum.lam,
            "ag": self.ag,
            "infimum": self.infimum,
            "method": self.method,
            "regions": self.regions.to_json_dict(),
            "residual": self.residual,
            "iterations": self.iterations,
        }


def scaled_deviations(spec: MomentSpec) -> _Frame:
    """The spec's unit frame: (mu_i - mu_bar) / 2**e, sigma_i / 2**e, and e.

    This is the one place that knows the spec's offset and scale.  2**e is
    the power of two just above the largest |mu_i - mu_bar| or sigma_i, so
    the frame's values lie below 1, the largest at least 1/2, and their
    squares can neither overflow nor lose the spread to the offset.  The
    bound is affine-equivariant, rho(a mu + b, |a| sigma) = |a| rho(mu,
    sigma), so every solve and every mass table of the closed forms works
    in this frame, and only the reported point is mapped back, as
    c = mu_bar + 2**e c' and lambda = 2**e lambda'.  The centring is the
    one rounding, at most ulp(mu_i) in each deviation and none when the
    means are within a factor of two of mu_bar; division by a power of two
    is exact, so a quantity of degree k computed from the frame, times
    2**(k e), is bit-identical to the same computation on the centred
    values wherever that one does not overflow.
    """
    mu, sigma = spec.arrays()
    dev = mu - spec.mu_bar
    e = math.frexp(max(float(np.abs(dev).max()), float(sigma.max())))[1]
    return np.ldexp(dev, -e), np.ldexp(sigma, -e), e


def _representable(value: float, e: int = 0) -> float:
    """value * 2**e, a bound in the spec's units from its unit frame
    (:func:`scaled_deviations`) when e is the frame's exponent.

    A bound beyond the float range raises ``ValidationError`` here, before
    a report or any table is formed at a point that is not finite.
    """
    if not math.isfinite(value) or math.frexp(value)[1] + e > 1024:
        raise ValidationError("the bound exceeds the float range")
    return math.ldexp(value, e)


def _dispersion(frame: _Frame) -> tuple[np.ndarray, float]:
    """theta_i**2 = (mu_i - mu_bar)**2 + sigma_i**2 and their sum S, both
    over 4**e, from the spec's unit frame (:func:`scaled_deviations`).

    ``np.float_power`` squares with the C library's ``pow``, as Python's
    ``**`` does, so the sum is bit-identical to a scalar loop of ``d**2``.
    """
    dev, sig, _ = frame
    theta2 = np.float_power(dev, 2.0) + sig * sig
    return theta2, math.fsum(theta2.tolist())


def _ag_bound(total: float, e: int) -> float:
    """sqrt(2 S) * 2**e for the sum S / 4**e of :func:`_dispersion`."""
    return _representable(math.sqrt(2.0 * total), e)


def ag_bound(spec: MomentSpec) -> float:
    """Closed-form upper bound sqrt(2 * sum_i [(mu_i - mu_bar)**2 + sigma_i**2])."""
    frame = scaled_deviations(spec)
    return _ag_bound(_dispersion(frame)[1], frame[2])


def ag_general_bound(spec: MomentSpec, coeffs: Sequence[float]) -> float:
    """Upper bound on E sum_i coeffs_i * X_{i:n} for ascending order statistics.

    Equals mu_bar * sum(coeffs) + sqrt(sum (coeffs - mean)**2) *
    sqrt(sum [(mu_i - mu_bar)**2 + sigma_i**2]).  With coefficients
    (-1, 0, ..., 0, 1) this is exactly :func:`ag_bound`.
    """
    cs = np.fromiter(coeffs, dtype=float)
    if cs.size != spec.n:
        raise ValidationError(
            f"need {spec.n} coefficients, got {cs.size}"
        )
    if not np.all(np.isfinite(cs)):
        raise ValidationError("coefficients must be finite")
    c_sum = math.fsum(cs.tolist())
    spread = math.fsum(np.float_power(cs - c_sum / cs.size, 2.0).tolist())
    frame = scaled_deviations(spec)
    total = _dispersion(frame)[1]
    spread_term = _representable(math.sqrt(spread) * math.sqrt(total), frame[2])
    return _representable(spec.mu_bar * c_sum + spread_term)


def plackett_iid_bound(n: int, sigma: float) -> float:
    """Sharp expected-range bound for an i.i.d. sample with variance sigma**2."""
    n = int(n)
    if n < 2:
        raise ValidationError(f"need n >= 2, got {n}")
    sigma = float(sigma)
    if not 0.0 < sigma < math.inf:
        raise ValidationError(f"sigma must be positive and finite, got {sigma}")
    comb = math.comb(2 * n - 2, n - 1)
    # Integer true division is correctly rounded and underflows to 0.0 where
    # the float 1.0 / comb would overflow (n >= 520).
    return n * sigma * math.sqrt((2.0 / (2.0 * n - 1.0)) * (1 - 1 / comb))


def _newton_bisect(
    fdf: Callable[[float], tuple[float, float]],
    lo: float,
    hi: float,
    x0: float | None = None,
) -> tuple[float, int]:
    """Root of a nondecreasing f known to lie in [lo, hi], to float resolution.

    ``fdf(x)`` returns (f(x), f'(x)).  Every evaluation moves one end of the
    bracket to x by the sign of f.  The next point is the Newton step when
    it lands strictly inside the bracket and is at most half the step before
    last, and the bracket's midpoint otherwise (rtsafe, Press et al.,
    Numerical Recipes).  The search starts at ``x0`` when it lies inside
    the bracket.  It stops once a step, Newton or bisection, is below
    relative float resolution, or below 2**-60 of the initial width when
    that holds 0 (for a root at 0), or no longer moves the point, or once
    a Newton step leaves f unchanged: f is then at the rounding level of
    its own evaluation, and further Newton steps of that size fail the
    halving test and fall back to bisecting the whole bracket.  The
    midpoint is formed as 0.5 lo + 0.5 hi, which stays finite at every
    finite bracket.  Returns the last evaluated point, so that a caller's
    record of its final evaluation belongs to the root, and the number of
    evaluations.
    """
    # A floor in the width where the bracket lies away from 0 would stop a
    # root far below the width, such as an inner root in [t_(2), sum t_i],
    # short of its own resolution.
    floor = (hi - lo) * 2.0**-60 if lo <= 0.0 <= hi else 0.0

    def resolution(x: float) -> float:
        return max(_EPS * abs(x), floor)

    x = x0 if x0 is not None and lo < x0 < hi else 0.5 * lo + 0.5 * hi
    step = before = hi - lo
    newton, last = False, None
    evaluations = 0
    while True:
        f, df = fdf(x)
        evaluations += 1
        if f == 0.0 or (newton and f == last):
            break
        if f < 0.0:
            lo = x
        else:
            hi = x
        newton = df > 0.0 and (
            abs(f) <= resolution(x) * df
            or (lo < x - f / df < hi and abs(f) <= 0.5 * abs(before) * df)
        )
        before, step, last = step, (f / df if newton else 0.5 * (hi - lo)), f
        nxt = x - step if newton else lo + step
        if abs(step) <= resolution(x) or nxt == x:
            break
        x = nxt
    return x, evaluations


def _bnt_max(
    mu: np.ndarray, sigma: np.ndarray
) -> tuple[float, float, np.ndarray, np.ndarray, np.ndarray]:
    """E max bound and its root y0 for the means and sigmas given, with
    alpha_i and the two legs alpha_i - d_i and alpha_i + d_i, d_i = y0 - mu_i.

    Whichever leg cancels is formed as sigma_i**2 over the other, so both
    hold to relative precision however far mu_i lies from y0.
    """
    n = mu.size

    def fdf(y: float) -> tuple[float, float]:
        d = y - mu
        alpha = np.hypot(d, sigma)
        slope = np.sum((sigma / alpha) ** 2 / alpha)
        return float(np.sum(d / alpha)) - (n - 2), float(slope)

    span = n * float(sigma.max())
    top = np.partition(mu, n - 2)
    y0, _ = _newton_bisect(fdf, float(top[n - 2]) - span, float(top[n - 1]) + span)
    d = y0 - mu
    alpha = np.hypot(d, sigma)
    far = alpha + np.abs(d)
    near = sigma * (sigma / far)
    gap = np.where(d > 0.0, near, far)
    return y0 + 0.5 * math.fsum(gap.tolist()), y0, alpha, gap, np.where(d > 0.0, far, near)


def bnt_max_bound(spec: MomentSpec) -> tuple[float, float]:
    """Tight bound on E max_i X_i, returned together with its defining root.

    y0 is the unique solution of sum_i (y0 - mu_i)/alpha_i(y0) = n - 2 with
    alpha_i = sqrt((mu_i - y0)**2 + sigma_i**2).  The left side increases
    strictly, with slope sum_i sigma_i**2/alpha_i**3, from -n to n.  It is
    below n - 2 at the second-largest mean minus n max sigma, where the two
    largest terms are each at most -n/sqrt(n**2 + 1) and the other n - 2
    each below 1, and above it at max mu + n max sigma, which brackets the
    root.  The bound is -(n-2)/2 * y0 + (1/2) sum mu_i + (1/2) sum alpha_i,
    whose terms cancel, so it is summed as y0 + (1/2) sum_i (alpha_i - d_i),
    d_i = y0 - mu_i, with alpha_i - d_i formed as sigma_i**2 / (alpha_i +
    d_i) where d_i > 0.
    """
    return _bnt_max(*spec.arrays())[:2]


def bnt_range(spec: MomentSpec) -> float:
    """E max X + E max(-X) from :func:`bnt_max_bound`, an upper bound on
    the expected range that rho_n never exceeds.

    The sum is translation-invariant, so it is formed in the spec's unit
    frame (:func:`scaled_deviations`) and scaled back by 2**e: summed at
    the scale of the means, the two terms cancel to ulp(mu_bar).
    """
    dev, sig, e = scaled_deviations(spec)
    return _representable(_bnt_max(dev, sig)[0] + _bnt_max(-dev, sig)[0], e)


def _pair(
    mu1: float, mu2: float, sigma1: float, sigma2: float, rho: float
) -> tuple[float, float, float, float, int]:
    """A correlated pair in its unit frame: (d, s1, s2, delta, e).

    d = mu1 - mu2, s1, s2 the sigmas and delta = Var(X1 - X2) = (s1 -
    s2)**2 + 2 (1 - rho) s1 s2, all in units of 2**e, the pair's frame
    (:func:`scaled_deviations`).  delta is a sum of nonnegative terms, so
    it holds to relative precision as the pair nears the degenerate law
    rho = 1, s1 = s2, where the form s1**2 + s2**2 - 2 rho s1 s2 cancels.
    """
    if not (sigma1 > 0.0 and sigma2 > 0.0):
        raise ValidationError("sigmas must be positive")
    if not abs(rho) <= 1.0:
        raise ValidationError(f"correlation must lie in [-1, 1], got {rho}")
    dev, sig, e = scaled_deviations(MomentSpec(mu=(mu1, mu2), sigma=(sigma1, sigma2)))
    (u1, u2), (s1, s2) = dev.tolist(), sig.tolist()
    return u1 - u2, s1, s2, (s1 - s2) ** 2 + 2.0 * (1.0 - rho) * s1 * s2, e


def gamma2_bound(
    mu1: float, mu2: float, sigma1: float, sigma2: float, rho: float
) -> float:
    """Sharp bound on E|X1 - X2| when the correlation rho is also known.

    sqrt((mu1 - mu2)**2 + Var(X1 - X2)), formed in the pair's unit frame
    (:func:`_pair`), so it holds to a few ulps at every scale and as rho
    nears 1; at rho = -1 it coincides with the two-coordinate range bound.
    """
    d, _, _, delta, e = _pair(mu1, mu2, sigma1, sigma2, rho)
    return _representable(math.hypot(d, math.sqrt(delta)), e)


def pair_cov_bounds(
    mu1: float, mu2: float, sigma1: float, sigma2: float, rho: float
) -> tuple[float, float, float, float]:
    """Sharp bounds for a correlated pair: E max and Cov[min, max].

    Returns (maxE_low, maxE_high, cov_low, cov_high):

        max(mu1, mu2) <= E max(X1, X2)
                      <= (mu1 + mu2)/2 + gamma2/2,
        rho sigma1 sigma2 <= Cov[min, max]
                          <= (sigma1**2 + sigma2**2 + 2 rho sigma1 sigma2)/4,

    where gamma2 is :func:`gamma2_bound` of the same arguments.  The
    covariance bounds are formed in the pair's unit frame (:func:`_pair`),
    the upper one as Var(X1 - X2) at -rho over 4.  Both upper bounds are
    attained simultaneously by the pair with |X1 - X2| constant.
    """
    g2 = gamma2_bound(mu1, mu2, sigma1, sigma2, rho)
    _, s1, s2, delta, e = _pair(mu1, mu2, sigma1, sigma2, -rho)
    mean = MomentSpec(mu=(mu1, mu2), sigma=(sigma1, sigma2)).mu_bar
    return (
        max(mu1, mu2),
        _representable(mean + 0.5 * g2),
        _representable(rho * s1 * s2, 2 * e),
        _representable(0.25 * delta, 2 * e),
    )


def _infimum(spec: MomentSpec) -> float:
    return max(spec.mu) - min(spec.mu)


def _report(
    spec: MomentSpec, frame: _Frame, table: MassTable, rho: float, method: str, iterations: int
) -> BoundReport:
    """The report at the point of ``table``, a table in the spec's unit
    ``frame`` (:func:`scaled_deviations`).

    The regions and the residual are free of units and read off the frame's
    table; its point is mapped back to the spec's units, once, and the
    reported table is the same table at that point.
    """
    e = frame[2]
    c, lam = spec.mu_bar + math.ldexp(table.c, e), math.ldexp(table.lam, e)
    return BoundReport(
        rho=rho,
        optimum=DualPoint(c=c, lam=lam),
        regions=table.partition(),
        ag=_ag_bound(_dispersion(frame)[1], frame[2]),
        infimum=_infimum(spec),
        method=method,
        iterations=iterations,
        residual=math.hypot(*table.gradient()),
        table=table.rescaled(c, lam),
    )


def rho2_closed(spec: MomentSpec) -> BoundReport:
    """Closed-form tight bound for a pair: sqrt((mu1-mu2)**2 + (sigma1+sigma2)**2).

    The minimizing set of phi_2 is the segment {c0} x (0, lambda0], so the
    reported optimum is its right endpoint: c0 = (sigma1 mu2 + sigma2 mu1) /
    (sigma1 + sigma2) and lambda0 = rho2 min(sigma) / (2 (sigma1 + sigma2)).
    """
    if spec.n != 2:
        raise ValidationError(f"closed form requires n = 2, got n = {spec.n}")
    (m1, m2), (s1, s2) = spec.mu, spec.sigma
    rho = _representable(math.hypot(m1 - m2, s1 + s2))
    frame = dev, sig, e = scaled_deviations(spec)
    (u1, u2), (w1, w2) = dev.tolist(), sig.tolist()
    c0 = (w1 * u2 + w2 * u1) / (w1 + w2)
    lam0 = math.ldexp(rho, -e) * min(w1, w2) / (2.0 * (w1 + w2))
    return _report(spec, frame, mass_table(dev, sig, c0, lam0), rho, "n2-closed-form", 0)


def equal_means_bound(spec: MomentSpec) -> float:
    """Tight bound when all means coincide, to 1e-12 of the largest sigma.

    sqrt(2 sum sigma_i**2) when 2 max sigma_i**2 <= sum sigma_i**2, else
    max sigma_i + sqrt(sum sigma_i**2 - max sigma_i**2).  The sum over the
    other coordinates is formed on its own, in units of the largest sigma,
    so the second form does not cancel when one sigma dominates.  Means
    within 1e-12 of the largest sigma move rho by at most that spread, and
    rho >= max sigma_i, so the form is then exact to 1e-12 relative.
    """
    if max(spec.mu) - min(spec.mu) > 1e-12 * max(spec.sigma):
        raise ValidationError("closed form requires all means equal")
    k = spec.sigma.index(max(spec.sigma))
    scale = spec.sigma[k]
    rest = math.fsum((s / scale) ** 2 for i, s in enumerate(spec.sigma) if i != k)
    if rest >= 1.0:
        return scale * math.sqrt(2.0 * (1.0 + rest))
    return scale * (1.0 + math.sqrt(rest))


def _inner_table(
    mu: np.ndarray, sigma: np.ndarray, c: float, lam0: float | None
) -> MassTable:
    """The mass table at (c, lambda*(c)), lambda* the minimizer of phi(c, .).

    lambda* solves sum_i p_i^0 = n - 2, a nondecreasing function of lambda
    with derivative sum_i d p_i^0/d lambda.  The root lies between the
    second-largest t_i and sum_i t_i: at the left end the two largest-t
    coordinates are in I1 (no middle mass) and every other term is at most
    1, while at the right end Markov's inequality, P(|X_i - c| >= lambda)
    <= E|X_i - c| / lambda <= 2 t_i / lambda, leaves at most 2 of the n
    units of mass outside the middle.

    The search starts at ``lam0``, or without one at the root when no
    coordinate is in I3 or I4.  In I2, p_i^0 = 1 - t_i**2/lambda**2, and in
    I1, p_i^0 = 0, which holds for the largest t_i alone when lambda is
    between the two largest: the root is then lambda**2 = sum_i t_i**2 / 2
    with every coordinate in I2, or sum_i t_i**2 - max t_i**2 with the
    largest in I1, whichever is smaller.  That is exact when all means are
    equal.  The sums are taken in units of max t, which keeps them finite
    at every scale.
    """
    n = mu.size
    t = 0.5 * np.hypot(mu - c, sigma)
    if lam0 is None:
        top = float(t.max())
        total = float(np.sum((t / top) ** 2))
        lam0 = top * math.sqrt(min(0.5 * total, total - 1.0))
    table = None

    def fdf(lam: float) -> tuple[float, float]:
        nonlocal table
        table = mass_table(mu, sigma, c, lam)
        return float(table.p_zero.sum()) - (n - 2), float(table.dp0_dlam.sum())

    _newton_bisect(fdf, float(np.partition(t, n - 2)[n - 2]), float(t.sum()), lam0)
    return table


def _joint_newton(
    mu: np.ndarray, sigma: np.ndarray, lo: float, hi: float, c: float
) -> tuple[MassTable, int]:
    """The table at the minimizer by Newton steps on grad phi = 0 in (c, lambda).

    Starts at the inner root at ``c``, then takes one step per table, with
    the Hessian [[phi_cc, phi_c,lambda], [phi_c,lambda, phi_lambda,lambda]]
    from its derivative columns.  Each of those columns is of order
    1/lambda, so the system is solved with lambda times the Hessian, which
    is free of units and cannot overflow at any scale of the spec.

    A table that ends an inner root is a valley table: there d phi/dc is
    the slope of the convex g(c) = min over lambda of phi(c, lambda), and
    its sign moves one end of a certified bracket [left, right] on c, an
    exact zero both.  A step is refused when the Hessian is not positive
    definite, c would leave [lo, hi], lambda would fall below half its
    value or ``_MAX_JOINT_STEPS`` tables have passed since the last valley
    table; once restored, also when the table it comes from did not lower
    the least gradient norm.  A refused step restores: [lo, hi] becomes
    the bracket, and the next table is the inner root at the current c if
    it lies in the bracket's middle half and at its midpoint otherwise,
    started on the tangent of c -> lambda*(c) at the last valley table.

    Stops once a step is below float resolution in both coordinates (c
    relative to the largest |mu_i| of the frame, lambda relative to
    itself), which includes a step that leaves the point where it is, once
    the gradient norm no longer falls while it is at its rounding level,
    or once a step is refused with the bracket resolved to float
    resolution.  Returns the table of smallest gradient norm and the
    number of tables read.
    """
    scale = max(abs(lo), abs(hi))
    left, right = lo, hi
    table = valley = _inner_table(mu, sigma, c, None)
    best, best_norm = table, math.inf
    restored = False
    steps = since_valley = 0
    while True:
        steps += 1
        since_valley += 1
        g_c, g_lam = table.gradient()
        lam = table.lam
        h_cc = lam * float(table.dgap_dc.sum())
        h_cl = lam * float(table.dp0_dc.sum())
        h_ll = lam * float(table.dp0_dlam.sum())
        norm = math.hypot(g_c, g_lam)
        # The rounding level of the gradient: its sums of n masses, and
        # how far it moves over one float step of c, at the scale of the
        # means, and of lambda.
        floor = _FLOOR_ULPS * _EPS * (
            mu.size + (abs(h_cc) + abs(h_cl)) * (scale / lam) + abs(h_cl) + abs(h_ll)
        )
        if table is valley:
            if g_c <= 0.0:
                left = table.c
            if g_c >= 0.0:
                right = table.c
            # At an inner root sum p^0 = n - 2 > 0, so some d p^0/d lambda
            # is positive, but in I3 and I4 it underflows to 0 where sigma_i
            # is below about 1e-160 of the spread of the means.
            lam_slope = -(h_cl / h_ll) if h_ll > 0.0 else 0.0
        lowered = norm < best_norm
        if lowered:
            best, best_norm = table, norm
        elif best_norm <= floor:
            return best, steps
        det = h_cc * h_ll - h_cl * h_cl
        if (lowered or not restored or table is valley) and h_ll > 0.0 and det > 0.0:
            step_c = lam * ((h_ll * g_c - h_cl * g_lam) / det)
            step_lam = lam * ((h_cc * g_lam - h_cl * g_c) / det)
            c_next, lam_next = table.c - step_c, lam - step_lam
            if lo <= c_next <= hi and lam_next >= 0.5 * lam:
                if abs(step_c) <= _EPS * scale and abs(step_lam) <= _EPS * lam:
                    return best, steps
                if since_valley < _MAX_JOINT_STEPS:
                    table = mass_table(mu, sigma, c_next, lam_next)
                    continue
        # The step is refused: restore onto the valley, inside the bracket.
        if right - left <= 2.0 * _EPS * scale:
            return best, steps
        lo, hi, quarter = left, right, 0.25 * (right - left)
        c = table.c if lo + quarter <= table.c <= hi - quarter else 0.5 * (lo + hi)
        table = valley = _inner_table(mu, sigma, c, valley.lam + lam_slope * (c - valley.c))
        restored, since_valley = True, 0


def minimize_phi(spec: MomentSpec, *, c_start: float | None = None) -> BoundReport:
    """Unique minimizer of phi_n for n >= 3, with gradient norm <= 1e-10.

    The search runs in the spec's unit frame (:func:`scaled_deviations`),
    where c is resolved to the spread of the means rather than to their
    offset.  It starts at ``c_start`` when it lies strictly between the
    smallest and largest mean, and at the midpoint otherwise; any start
    converges to the same optimum, which is how the restart-agreement checks
    exercise uniqueness.  It finds the inner root lambda*(c) at the start,
    then takes joint Newton steps in (c, lambda), and a refused step
    restores onto the inner root inside the bracket on c that the inner
    roots certify (``_joint_newton``).  When the means are equal in the
    unit frame the bracket is the common mean, and the report is the single
    inner root there, started at its closed form, with method
    ``equal-means-closed-form`` and 0 iterations.  ``iterations`` counts
    the tables whose gradient and Hessian were read: the last table of each
    inner root and one per joint step.  rho is phi at the reported point on
    either path.  A reported gradient norm above 1e-10 raises
    :class:`ConvergenceError` carrying the report.
    """
    if spec.n == 2:
        raise ValidationError(
            "n = 2 has a segment of minimizers; use rho2_closed instead"
        )
    frame = mu, sigma, e = scaled_deviations(spec)
    lo, hi = float(mu.min()), float(mu.max())
    if c_start is not None:
        c_start = math.ldexp(c_start - spec.mu_bar, -e)
    # The slope in c is negative at min mu and positive at max mu unless
    # all means are equal, when the bracket is a single point.
    if lo == hi:
        table, iterations = _inner_table(mu, sigma, lo, None), 0
        method = "equal-means-closed-form"
    else:
        start = c_start if c_start is not None and lo < c_start < hi else 0.5 * (lo + hi)
        table, iterations = _joint_newton(mu, sigma, lo, hi, start)
        method = "general-solver"
    if float(table.margin.min()) <= BOUNDARY_FLAG_REL:
        method += "+boundary-degenerate"
    report = _report(spec, frame, table, _representable(table.phi(), e), method, iterations)
    if report.residual <= _TOL:
        return report
    raise ConvergenceError(
        f"gradient norm {report.residual:.3e} above tolerance {_TOL:.3e} "
        f"at c={report.optimum.c!r}, lambda={report.optimum.lam!r}",
        best=report,
    )


def rho_bound(spec: MomentSpec) -> BoundReport:
    """Tight expected-range bound for any spec: :func:`rho2_closed` for
    n = 2, where the general solver's uniqueness assumptions fail, and
    :func:`minimize_phi` otherwise, whose rho is phi at its reported point.
    """
    if spec.n == 2:
        return rho2_closed(spec)
    return minimize_phi(spec)
