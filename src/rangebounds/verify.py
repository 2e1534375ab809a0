"""Independent numerical checks for bounds and constructed distributions.

Four kinds of evidence, each computed by a code path separate from the
solver and the constructions it certifies:

* exact finite-support evaluation of moments and expected range
  (:func:`check_moments`, :func:`expected_range`);
* seeded Monte Carlo estimation with standard errors
  (:func:`mc_expected_range`);
* random feasible joints bounding the supremum from below
  (:func:`feasible_probe`) and a grid of dual objective values bounding it
  from above (:func:`dual_grid_check`);
* the vanishing-probability mixture showing the expected range can approach
  max mu_i - min mu_i (:func:`infimum_witness`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ValidationError
from .extremal import AttainingJoint, JointDiscreteDistribution
from .objective import MomentSpec, phi_array
from .solver import rho_bound

__all__ = [
    "MomentCheckReport",
    "check_moments",
    "expected_range",
    "mc_expected_range",
    "feasible_probe",
    "dual_grid_check",
    "infimum_witness",
]


@dataclass(frozen=True)
class MomentCheckReport:
    """Per-coordinate moment deviations of a finite-support joint law.

    ``passed`` is True exactly when every deviation is within the tolerance
    the check was run with.  The JSON key for it is ``"pass"``.
    """

    mean_errors: tuple[float, ...]
    var_errors: tuple[float, ...]
    expected_range: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "mean_errors": list(self.mean_errors),
            "var_errors": list(self.var_errors),
            "expected_range": self.expected_range,
            "pass": self.passed,
        }


def expected_range(joint: JointDiscreteDistribution | AttainingJoint) -> float:
    """E[max_i X_i - min_i X_i], summed exactly over the support."""
    prob = np.asarray(joint.prob, dtype=float)
    return math.fsum((prob * joint.atom_ranges()).tolist())


def _mantissas(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integers m and exponents e with x = m * 2**e exactly and |m| < 2**53."""
    fraction, e = np.frexp(x)
    return np.ldexp(fraction, 53).astype(np.int64), e - 53


def _scaled(num: int, e: int) -> float:
    """num * 2**e correctly rounded, infinite past the float range."""
    try:
        return float(num << e) if e >= 0 else num / (1 << -e)
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _law_moments(joint: AttainingJoint) -> tuple[list[float], list[float]]:
    """Exactly rounded mean and variance of every coordinate, in O(n + cells).

    Coordinate i takes three values: x_plus[i] with the mass R_i of row i
    of the coupling, x_minus[i] with the mass C_i of column i, and x_zero[i]
    with the rest T - R_i - C_i, T the total mass.  The masses are integers
    in units of 2**f and coordinate i's points in units of 2**g_i, so
    mean = sum_k w_k x_k and var = sum_k w_k (x_k - mean)**2 are exact
    integers in units of 2**(f + g_i) and 2**(3 f + 2 g_i), each rounded
    once.  Nothing underflows or overflows on the way, at any scale.
    """
    rows, cols, values = joint.coupling.cells
    m, e = _mantissas(values)
    f = int(e.min())
    weights = [k << s for k, s in zip(m.tolist(), (e - f).tolist())]
    total = sum(weights)
    top = [0] * joint.dim
    bottom = [0] * joint.dim
    for i, j, w in zip(rows.tolist(), cols.tolist(), weights):
        top[i] += w
        bottom[j] += w
    m, e = _mantissas(np.stack((joint.x_minus, joint.x_zero, joint.x_plus)))
    g = e.min(axis=0)
    means = []
    variances = []
    for (a, b, h), (sa, sb, sh), gi, r, c in zip(
        m.T.tolist(), (e - g).T.tolist(), g.tolist(), top, bottom
    ):
        low, middle, high = a << sa, b << sb, h << sh
        rest = total - r - c
        first = c * low + rest * middle + r * high
        # In units of 2**(f + g_i), x - mean is x * 2**-f - first (f < 0).
        second = (
            c * ((low << -f) - first) ** 2
            + rest * ((middle << -f) - first) ** 2
            + r * ((high << -f) - first) ** 2
        )
        means.append(_scaled(first, f + gi))
        variances.append(_scaled(second, 3 * f + 2 * gi))
    return means, variances


def _atom_moments(joint: JointDiscreteDistribution) -> tuple[list[float], list[float]]:
    """Mean and variance of every coordinate as ``math.fsum`` over the atoms.

    The mean sums the products p * x and the variance p * (x - mean)**2,
    formed in numpy.  ``np.float_power`` squares through the C library's
    ``pow``, as Python's ``**`` does, where ``np.square`` would round
    x * x, which differs in about 1 case in 1,000.
    """
    support, prob = joint.arrays()
    weights = prob[:, None]
    terms = weights * support
    means = [math.fsum(terms[:, i].tolist()) for i in range(joint.dim)]
    np.subtract(support, means, out=terms)
    np.float_power(terms, 2.0, out=terms)
    np.multiply(weights, terms, out=terms)
    return means, [math.fsum(terms[:, i].tolist()) for i in range(joint.dim)]


def check_moments(
    joint: JointDiscreteDistribution | AttainingJoint, spec: MomentSpec, tol: float = 1e-10
) -> MomentCheckReport:
    """Exact moment comparison of a finite-support law against a spec.

    An :class:`AttainingJoint`'s means and variances are exactly rounded,
    computed from each coordinate's three points and three masses; those
    of a :class:`JointDiscreteDistribution` are exactly rounded sums of the
    rounded per-atom products.  The errors are ``abs(mean - mu)`` and
    ``abs(var - sigma * sigma)`` in floating point.  ``tol`` is relative to
    each coordinate's own scale: the check passes when every mean error is
    at most tol * (|mu_i| + sigma_i) and every variance error at most
    tol * sigma_i * (|mu_i| + sigma_i).  Both bounds scale with the spec,
    as the rounding of a law's points does, so the check is as strict at
    every offset and scale as at unit scale.
    """
    if joint.dim != spec.n:
        raise ValidationError(
            f"joint has dimension {joint.dim}, spec has {spec.n} coordinates"
        )
    if isinstance(joint, AttainingJoint):
        means, variances = _law_moments(joint)
    else:
        means, variances = _atom_moments(joint)
    mean_errors = [abs(mean_i - m) for mean_i, m in zip(means, spec.mu)]
    var_errors = [abs(var_i - s * s) for var_i, s in zip(variances, spec.sigma)]
    passed = all(
        d_mean <= tol * (abs(m) + s) and d_var <= tol * s * (abs(m) + s)
        for d_mean, d_var, m, s in zip(mean_errors, var_errors, spec.mu, spec.sigma)
    )
    return MomentCheckReport(
        mean_errors=tuple(mean_errors),
        var_errors=tuple(var_errors),
        expected_range=expected_range(joint),
        passed=passed,
    )


def mc_expected_range(
    source: object, n_samples: int, seed: int = 0
) -> tuple[float, float]:
    """Monte Carlo estimate of E R_n with its standard error.

    ``source`` is a :class:`JointDiscreteDistribution`, an
    :class:`AttainingJoint`, or any object with a ``sample(n_samples,
    seed=...)`` method returning an (n, dim) array.  Deterministic for fixed
    (seed, n_samples).
    """
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValidationError("n_samples must be at least 1")
    if isinstance(source, (JointDiscreteDistribution, AttainingJoint)):
        ranges_by_atom = source.atom_ranges()
        prob = np.asarray(source.prob, dtype=float)
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(prob), size=n_samples, p=prob / prob.sum())
        ranges = ranges_by_atom[idx]
    elif hasattr(source, "sample"):
        draws = np.asarray(source.sample(n_samples, seed=seed), dtype=float)
        ranges = draws.max(axis=1) - draws.min(axis=1)
    else:
        raise ValidationError(
            "source must be a finite-support joint law or expose sample()"
        )
    estimate = float(ranges.mean())
    if n_samples == 1:
        return estimate, 0.0
    std_error = float(ranges.std(ddof=1) / math.sqrt(n_samples))
    return estimate, std_error


def _probe_joints(
    spec: MomentSpec, trials: int, seed: int
) -> Iterator[JointDiscreteDistribution]:
    """Random feasible joints matching ``spec`` exactly.

    Each trial draws per-coordinate supports of 2-5 points and a random
    coupling over (a subset of) the product grid, then standardizes each
    coordinate affinely; affine maps preserve feasibility, so the moment
    match is exact up to rounding.  Degenerate draws (a coordinate with
    almost no variance under the coupling) are resampled.
    """
    rng = np.random.default_rng(seed)
    n = spec.n
    mu, sigma = spec.arrays()
    produced = 0
    attempts = 0
    max_attempts = 100 * trials + 100
    while produced < trials:
        attempts += 1
        if attempts > max_attempts:
            raise ValidationError(
                "probe generator kept drawing degenerate coordinates"
            )
        sizes = rng.integers(2, 6, size=n)
        values = [np.sort(rng.normal(0.0, 1.0, size=k)) for k in sizes]
        cells = int(np.prod(sizes))
        if cells <= 64:
            index_grid = np.indices(sizes).reshape(n, -1).T
        else:
            index_grid = np.column_stack(
                [rng.integers(0, k, size=64) for k in sizes]
            )
            index_grid = np.unique(index_grid, axis=0)
        weights = rng.random(len(index_grid)) + 1e-3
        weights /= weights.sum()
        points = np.column_stack(
            [values[i][index_grid[:, i]] for i in range(n)]
        )
        means = weights @ points
        second = weights @ points**2
        var = second - means**2
        if np.any(var < 1e-12):
            continue
        standardized = mu + sigma * (points - means) / np.sqrt(var)
        # Exact-duplicate rows would violate the joint's invariants; merge.
        atoms: dict[tuple[float, ...], float] = {}
        for row, w in zip(standardized, weights):
            key = tuple(float(v) for v in row)
            atoms[key] = atoms.get(key, 0.0) + float(w)
        produced += 1
        yield JointDiscreteDistribution(
            support=tuple(atoms.keys()), prob=tuple(atoms.values())
        )


def feasible_probe(spec: MomentSpec, trials: int, seed: int = 0) -> float:
    """Largest exact expected range among random feasible joints.

    A lower bound for the supremum: every probe law carries the prescribed
    moments, so its expected range can never exceed the tight bound.
    """
    trials = int(trials)
    if trials < 1:
        raise ValidationError("trials must be at least 1")
    return max(expected_range(j) for j in _probe_joints(spec, trials, seed))


def dual_grid_check(spec: MomentSpec, grid: int = 200) -> float:
    """Minimum of the dual objective over a rectangular (c, lambda) grid.

    Every grid value upper-bounds E R_n, so the minimum must stay above the
    reported tight bound (up to rounding); the reported optimum itself is
    appended to the grid axes so resolution cannot hide it.  Grid values are
    computed by the vectorized objective, a code path independent of the
    scalar solver.
    """
    grid = int(grid)
    if grid < 2:
        raise ValidationError("grid resolution must be at least 2")
    report = rho_bound(spec)
    c0, lam0 = report.optimum.c, report.optimum.lam
    mu, sigma = spec.arrays()
    span = float(sigma.max())
    c_axis = np.linspace(mu.min() - span, mu.max() + span, grid)
    t_sum = float(np.sum(0.5 * np.hypot(mu - c0, sigma)))
    lam_hi = 2.0 * t_sum
    lam_axis = np.linspace(lam_hi / (10.0 * grid), lam_hi, grid)
    c_axis = np.append(c_axis, c0)
    lam_axis = np.append(lam_axis, lam0)
    values = phi_array(spec, c_axis[:, None], lam_axis[None, :])
    return float(values.min())


def infimum_witness(
    spec: MomentSpec,
    epsilon: float,
    n_samples: int = 1_000_000,
    seed: int = 0,
    dispersion: np.ndarray | None = None,
) -> float:
    """Empirical E R_n of the mixture witnessing the greatest lower bound.

    The witness equals mu with probability 1 - epsilon and
    mu + Z / sqrt(epsilon) with probability epsilon, where Z has covariance
    ``dispersion`` (default diag(sigma**2), realized as A V with V i.i.d.
    symmetric +/-1 and A the symmetric square root).  Its moments match the
    spec exactly while E R_n approaches max mu_i - min mu_i as epsilon -> 0.
    ``dispersion`` is checked in units of sigma_i sigma_j: it must be
    symmetric, carry sigma**2 on its diagonal and be nonnegative definite,
    each to 1e-10 of those units.
    """
    epsilon = float(epsilon)
    if not (0.0 < epsilon < 1.0):
        raise ValidationError(f"epsilon must lie strictly in (0, 1), got {epsilon}")
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValidationError("n_samples must be at least 1")
    mu, sigma = spec.arrays()
    n = spec.n
    if dispersion is None:
        root = np.diag(sigma)
    else:
        disp = np.asarray(dispersion, dtype=float)
        if disp.shape != (n, n):
            raise ValidationError(f"dispersion must be {n} x {n}, got {disp.shape}")
        unit = disp / sigma[:, None] / sigma[None, :]
        if np.max(np.abs(unit - unit.T)) > 1e-10:
            raise ValidationError("dispersion must be symmetric")
        if np.max(np.abs(np.diag(unit) - 1.0)) > 1e-10:
            raise ValidationError("dispersion diagonal must equal sigma**2")
        if np.linalg.eigvalsh(unit).min() < -1e-10:
            raise ValidationError("dispersion must be nonnegative definite")
        eigvals, eigvecs = np.linalg.eigh(disp)
        root = eigvecs @ np.diag(np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.T
    rng = np.random.default_rng(seed)
    flags = rng.random(n_samples) < epsilon
    k = int(flags.sum())
    base_range = float(mu.max() - mu.min())
    if k == 0:
        return base_range
    v = rng.integers(0, 2, size=(k, n)) * 2.0 - 1.0
    inflated = mu + (v @ root.T) / math.sqrt(epsilon)
    ranges = inflated.max(axis=1) - inflated.min(axis=1)
    total = base_range * (n_samples - k) + float(ranges.sum())
    return total / n_samples
