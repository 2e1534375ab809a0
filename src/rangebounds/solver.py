"""Minimization of the dual objective and the closed-form comparison bounds.

The tight bound rho_n is the infimum of phi_n over (c, lambda), lambda > 0.
For n >= 3 the minimizer is unique and interior.  The solver reads
everything it needs off the per-coordinate mass table
(:func:`~rangebounds.objective.mass_table`): the gradient
(sum p^- - sum p^+, sum p^0 - (n - 2)) and, from the table's derivative
columns, the second derivatives in closed form.  Two nested roots are found
by one safeguarded Newton iteration, ``_newton_bisect``, which takes the
Newton step while it stays inside a certified bracket and bisects otherwise:

* inner root: for fixed c, the lambda with sum_i p_i^0 = n - 2, bracketed
  between the second-largest t_i and sum_i t_i, with
  t_i = sqrt((mu_i - c)**2 + sigma_i**2) / 2.  The first one starts at its
  closed form for coordinates in I1 and I2 only, lambda**2 =
  min(sum_i t_i**2 / 2, sum_i t_i**2 - max t_i**2), exact for equal means;
  every later one on the tangent lambda + (d lambda/dc)(c - c_prev), with
  d lambda/dc = -phi_c,lambda / phi_lambda,lambda from the previous table,
  which is the lambda component of the 2-D Newton step on grad phi = 0;
* outer root: g(c) = min over lambda of phi_n(c, lambda) is convex with its
  minimum inside [min mu_i, max mu_i]; its slope is d phi/dc at the inner
  root and its curvature phi_cc - phi_c,lambda**2 / phi_lambda,lambda, by
  implicit differentiation.

Both roots stop at float resolution: lambda relative to itself, c relative
to the largest |mu_i|, and either one as soon as a Newton step leaves its
function unchanged.  A start is only a first guess: the bracket is kept, so
a poor one costs a bisection, never a wrong root.  n = 2 is special (the
minimizing set is a segment touching lambda = 0) and is served by a closed
form.

The module also provides every comparison bound: the mean-spread-plus-
variance bound ``ag_bound`` and its weighted-sum generalization, the i.i.d.
range bound ``plackett_iid_bound``, the expected-maximum bound
``bnt_max_bound``, the equal-means closed form, and the pair bounds
``gamma2_bound`` / ``pair_cov_bounds`` that also account for a known
correlation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
    "rho2_closed",
    "equal_means_bound",
    "minimize_phi",
    "rho_bound",
    "gamma2_bound",
    "pair_cov_bounds",
]

#: Default gradient-norm tolerance at the reported optimum.
DEFAULT_TOL = 1e-10

#: Relative float resolution at which the scalar roots stop.
_EPS = 2.0**-52

#: Relative margin below which a coordinate at the optimum is considered to
#: sit on a region boundary, degenerating the partition bookkeeping.
BOUNDARY_FLAG_REL = 1e-9


@dataclass(frozen=True)
class BoundReport:
    """Full output of a bound computation.

    ``infimum`` is the best possible lower bound max mu_i - min mu_i (the
    expected range can be driven arbitrarily close to it, never below it);
    ``rho`` is the tight upper bound; ``ag`` the closed-form comparison
    bound, so infimum <= rho <= ag always.  ``residual`` is the Euclidean
    norm of the phi gradient at ``optimum``; ``iterations`` counts outer
    search steps (closed forms report 0).
    """

    rho: float
    optimum: DualPoint
    regions: RegionPartition
    ag: float
    infimum: float
    method: str
    iterations: int
    residual: float

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


def scaled_deviations(spec: MomentSpec) -> tuple[np.ndarray, np.ndarray, int]:
    """(mu_i - mu_bar) / 2**e, sigma_i / 2**e, and e.

    2**e is the power of two just above the largest of these magnitudes, so
    the scaled values lie below 1 and their squares cannot overflow.
    Division by a power of two is exact: a quantity of degree k computed
    from the scaled values, times 2**(k e), is bit-identical to the same
    computation on the raw values wherever that one does not overflow.
    """
    mu, sigma = spec.arrays()
    dev = mu - spec.mu_bar
    e = math.frexp(max(float(np.abs(dev).max()), float(sigma.max())))[1]
    return np.ldexp(dev, -e), np.ldexp(sigma, -e), e


def _dispersion(spec: MomentSpec) -> tuple[float, int]:
    """S / 4**e and e, S = sum_i [(mu_i - mu_bar)**2 + sigma_i**2].

    ``np.float_power`` squares with the C library's ``pow``, as Python's
    ``**`` does, so the sum is bit-identical to a scalar loop of ``d**2``.
    """
    dev, sig, e = scaled_deviations(spec)
    return math.fsum((np.float_power(dev, 2.0) + sig * sig).tolist()), e


def ag_bound(spec: MomentSpec) -> float:
    """Closed-form upper bound sqrt(2 * sum_i [(mu_i - mu_bar)**2 + sigma_i**2])."""
    total, e = _dispersion(spec)
    return math.ldexp(math.sqrt(2.0 * total), e)


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
    c_sum = math.fsum(cs.tolist())
    spread = math.fsum(np.float_power(cs - c_sum / cs.size, 2.0).tolist())
    total, e = _dispersion(spec)
    return spec.mu_bar * c_sum + math.ldexp(math.sqrt(spread) * math.sqrt(total), e)


def plackett_iid_bound(n: int, sigma: float) -> float:
    """Sharp expected-range bound for an i.i.d. sample with variance sigma**2."""
    n = int(n)
    if n < 2:
        raise ValidationError(f"need n >= 2, got {n}")
    sigma = float(sigma)
    if sigma <= 0.0:
        raise ValidationError("sigma must be positive")
    comb = math.comb(2 * n - 2, n - 1)
    return n * sigma * math.sqrt((2.0 / (2.0 * n - 1.0)) * (1.0 - 1.0 / comb))


def _newton_bisect(
    fdf: Callable[[float], tuple[float, float]],
    lo: float,
    hi: float,
    x0: float | None = None,
    floor: float | None = None,
) -> tuple[float, int]:
    """Root of a nondecreasing f known to lie in [lo, hi], to float resolution.

    ``fdf(x)`` returns (f(x), f'(x)).  Every evaluation moves one end of the
    bracket to x by the sign of f.  The next point is the Newton step when
    it lands strictly inside the bracket and is at most half the step before
    last, and the bracket's midpoint otherwise (rtsafe, Press et al.,
    Numerical Recipes).  The search starts at ``x0`` when it lies inside
    the bracket.  It stops once a step, Newton or bisection, is below
    relative float resolution or ``floor`` (default 2**-60 of the initial
    width, for a root at 0), or no longer moves the point, or once a Newton
    step leaves f unchanged: f is then at the rounding level of its own
    evaluation, and further Newton steps of that size fail the halving test
    and fall back to bisecting the whole bracket.  Returns the last
    evaluated point, so that a caller's record of its final evaluation
    belongs to the root, and the number of evaluations.
    """
    if floor is None:
        floor = (hi - lo) * 2.0**-60

    def resolution(x: float) -> float:
        return max(_EPS * abs(x), floor)

    x = x0 if x0 is not None and lo < x0 < hi else 0.5 * (lo + hi)
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


def bnt_max_bound(spec: MomentSpec) -> tuple[float, float]:
    """Tight bound on E max_i X_i, returned together with its defining root.

    y0 is the unique solution of sum_i (y0 - mu_i)/alpha_i(y0) = n - 2 with
    alpha_i = sqrt((mu_i - y0)**2 + sigma_i**2).  The left side increases
    strictly, with slope sum_i sigma_i**2/alpha_i**3, from -n to n; it is
    below n - 2 at min mu - n max sigma and above it at max mu + n max sigma,
    which brackets the root.  The bound is -(n-2)/2 * y0 + (1/2) sum mu_i +
    (1/2) sum alpha_i, whose terms cancel, so it is summed as y0 + (1/2)
    sum_i (alpha_i - d_i), d_i = y0 - mu_i, with alpha_i - d_i formed as
    sigma_i**2 / (alpha_i + d_i) where d_i > 0.
    """
    mu, sigma = spec.arrays()
    n = spec.n

    def fdf(y: float) -> tuple[float, float]:
        d = y - mu
        alpha = np.hypot(d, sigma)
        slope = np.sum((sigma / alpha) ** 2 / alpha)
        return float(np.sum(d / alpha)) - (n - 2), float(slope)

    span = n * float(sigma.max())
    y0, _ = _newton_bisect(fdf, float(mu.min()) - span, float(mu.max()) + span)
    d = y0 - mu
    alpha = np.hypot(d, sigma)
    gap = np.where(d > 0.0, sigma * (sigma / (alpha + np.abs(d))), alpha - d)
    return y0 + 0.5 * math.fsum(gap.tolist()), y0


def gamma2_bound(
    mu1: float, mu2: float, sigma1: float, sigma2: float, rho: float
) -> float:
    """Sharp bound on E|X1 - X2| when the correlation rho is also known.

    sqrt((mu1 - mu2)**2 + (sigma1 + sigma2)**2 - 2 (1 + rho) sigma1 sigma2);
    at rho = -1 this coincides with the two-coordinate range bound.
    """
    if sigma1 <= 0.0 or sigma2 <= 0.0:
        raise ValidationError("sigmas must be positive")
    if abs(rho) > 1.0:
        raise ValidationError(f"correlation must lie in [-1, 1], got {rho}")
    dmu = mu1 - mu2
    val = dmu * dmu + (sigma1 + sigma2) ** 2 - 2.0 * (1.0 + rho) * sigma1 * sigma2
    return math.sqrt(max(val, 0.0))


def pair_cov_bounds(
    mu1: float, mu2: float, sigma1: float, sigma2: float, rho: float
) -> tuple[float, float, float, float]:
    """Sharp bounds for a correlated pair: E max and Cov[min, max].

    Returns (maxE_low, maxE_high, cov_low, cov_high):

        max(mu1, mu2) <= E max(X1, X2)
                      <= (mu1 + mu2)/2 + gamma2/2,
        rho sigma1 sigma2 <= Cov[min, max]
                          <= (sigma1**2 + sigma2**2 + 2 rho sigma1 sigma2)/4,

    where gamma2 is :func:`gamma2_bound` of the same arguments.  Both upper
    bounds are attained simultaneously by the pair with |X1 - X2| constant.
    """
    g2 = gamma2_bound(mu1, mu2, sigma1, sigma2, rho)
    max_low = max(mu1, mu2)
    max_high = 0.5 * (mu1 + mu2) + 0.5 * g2
    cov_low = rho * sigma1 * sigma2
    cov_high = 0.25 * (sigma1 * sigma1 + sigma2 * sigma2 + 2.0 * rho * sigma1 * sigma2)
    return max_low, max_high, cov_low, cov_high


def _infimum(spec: MomentSpec) -> float:
    return max(spec.mu) - min(spec.mu)


def _report(
    spec: MomentSpec, table: MassTable, rho: float, method: str, iterations: int
) -> BoundReport:
    """The report at the table's point."""
    return BoundReport(
        rho=rho,
        optimum=DualPoint(c=table.c, lam=table.lam),
        regions=table.partition(),
        ag=ag_bound(spec),
        infimum=_infimum(spec),
        method=method,
        iterations=iterations,
        residual=math.hypot(*table.gradient()),
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
    rho = math.hypot(m1 - m2, s1 + s2)
    c0 = (s1 * m2 + s2 * m1) / (s1 + s2)
    lam0 = rho * min(s1, s2) / (2.0 * (s1 + s2))
    table = mass_table(spec.mu, spec.sigma, c0, lam0)
    return _report(spec, table, rho, "n2-closed-form", 0)


def _means_equal(spec: MomentSpec) -> bool:
    """True when the means agree to 1e-12 of the largest sigma.

    Moving the means by at most their spread moves rho by at most that
    spread, and rho >= max sigma_i, so the equal-means closed form is then
    exact to 1e-12 relative, at every scale of the spec.
    """
    return max(spec.mu) - min(spec.mu) <= 1e-12 * max(spec.sigma)


def equal_means_bound(spec: MomentSpec) -> float:
    """Tight bound when all means coincide.

    sqrt(2 sum sigma_i**2) when 2 max sigma_i**2 <= sum sigma_i**2, else
    max sigma_i + sqrt(sum sigma_i**2 - max sigma_i**2).
    """
    if not _means_equal(spec):
        raise ValidationError("closed form requires all means equal")
    scale = max(spec.sigma)
    s2 = [(s / scale) ** 2 for s in spec.sigma]
    total = math.fsum(s2)
    if 2.0 <= total:
        return scale * math.sqrt(2.0 * total)
    return scale * (1.0 + math.sqrt(total - 1.0))


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
        return float(table.p[1].sum()) - (n - 2), float(table.dp0_dlam.sum())

    _newton_bisect(fdf, float(np.partition(t, n - 2)[n - 2]), float(t.sum()), lam0)
    return table


def minimize_phi(
    spec: MomentSpec,
    tol: float = DEFAULT_TOL,
    *,
    c_start: float | None = None,
) -> BoundReport:
    """Unique minimizer of phi_n for n >= 3, with gradient norm <= tol.

    The outer root starts at ``c_start`` when it lies strictly between the
    smallest and largest mean, and at the midpoint otherwise; any start
    converges to the same optimum, which is how the restart-agreement checks
    exercise uniqueness.  ``iterations`` counts the outer steps.
    """
    if float(tol) <= 0.0:
        raise ValidationError("tol must be positive")
    if spec.n == 2:
        raise ValidationError(
            "n = 2 has a segment of minimizers; use rho2_closed instead"
        )
    mu, sigma = spec.arrays()
    lo, hi = float(mu.min()), float(mu.max())
    table = None
    lam_slope = 0.0

    def slope(c: float) -> tuple[float, float]:
        """g'(c) = d phi/dc at the inner root, and g''(c) by implicit differentiation.

        The inner root starts on the tangent of c -> lambda*(c) at the last
        table, d lambda*/dc = -phi_c,lambda / phi_lambda,lambda: the lambda
        component of the 2-D Newton step on grad phi = 0.
        """
        nonlocal table, lam_slope
        start = None if table is None else table.lam + lam_slope * (c - table.c)
        table = _inner_table(mu, sigma, c, start)
        phi_cc = float(table.dgap_dc.sum())
        phi_cl = float(table.dp0_dc.sum())
        phi_ll = float(table.dp0_dlam.sum())
        # phi_cl**2 / phi_ll is formed as phi_cl * (phi_cl / phi_ll): the
        # square overflows at small scales, where every sum is of order
        # 1/scale.
        if phi_ll > 0.0:
            lam_slope = -(phi_cl / phi_ll)
            curvature = phi_cc + phi_cl * lam_slope
        else:
            lam_slope = curvature = 0.0
        return table.gradient()[0], curvature

    # The slope is negative at min mu and positive at max mu unless all
    # means are equal, when the bracket is a single point.
    if lo == hi:
        table, iterations = _inner_table(mu, sigma, lo, None), 0
    else:
        # c is resolved to the float resolution of the means, not of c
        # itself, which near 0 is finer than any mu_i - c can carry.
        _, iterations = _newton_bisect(slope, lo, hi, c_start, _EPS * max(abs(lo), abs(hi)))
    method = "general-solver"
    if float(table.margin.min()) <= BOUNDARY_FLAG_REL:
        method += "+boundary-degenerate"
    report = _report(spec, table, table.phi(), method, iterations)
    if report.residual <= tol:
        return report
    raise ConvergenceError(
        f"gradient norm {report.residual:.3e} above tolerance {tol:.3e} "
        f"at c={report.optimum.c!r}, lambda={report.optimum.lam!r}",
        best=report,
    )


def rho_bound(spec: MomentSpec, tol: float = DEFAULT_TOL) -> BoundReport:
    """Tight expected-range bound for any spec, dispatching on structure.

    n = 2 uses the closed form (the general solver's uniqueness assumptions
    fail there).  Equal means run the solver and are cross-checked against
    the closed form, which then supplies the reported value.
    """
    if spec.n == 2:
        return rho2_closed(spec)
    if _means_equal(spec):
        closed = equal_means_bound(spec)
        solved = minimize_phi(spec, tol)
        if abs(solved.rho - closed) > 1e-8 * closed:
            raise ConvergenceError(
                f"solver value {solved.rho!r} disagrees with the equal-means "
                f"closed form {closed!r}",
                best=solved,
            )
        method = solved.method.replace("general-solver", "equal-means-closed-form")
        return replace(solved, rho=closed, method=method)
    return minimize_phi(spec, tol)
