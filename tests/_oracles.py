"""Independent reference computations used to cross-check the library.

Nothing here imports solver internals: the linear program, the finite
differences, and the derivative-free minimizer only see public evaluation
functions, so agreement is evidence rather than tautology.  The attaining
law's plain forms live here too: the law as explicit n-tuples, the moment
check and expected range as loops over them, the greedy coupling with
linear scans, and the ``extremal``/``verify`` output as ``json.dumps`` of
the full payload.  So do the earlier forms of two hot paths, kept for
bit-for-bit comparison: the mass-table kernel that selected its branches
with ``np.choose``, and the closed-form bounds as scalar loops.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.optimize import linprog, minimize

from rangebounds import (
    AttainingJoint,
    DualPoint,
    ExtremalComponents,
    JointDiscreteDistribution,
    MomentCheckReport,
    MomentSpec,
    extremal_components,
    mc_expected_range,
    perturb_coupling,
    phi,
    zero_trace_coupling,
)
from rangebounds.objective import BOUNDARY_REL_TOL, MassTable


def random_spec(rng: np.random.Generator, n: int | None = None) -> MomentSpec:
    """A moment spec with means in (-3, 3) and deviations in (0.2, 2.5)."""
    if n is None:
        n = int(rng.integers(3, 9))
    mu = tuple(float(v) for v in rng.uniform(-3.0, 3.0, n))
    sigma = tuple(float(v) for v in rng.uniform(0.2, 2.5, n))
    return MomentSpec(mu=mu, sigma=sigma)


def star_spec(seed: int, n: int, a: float = 1.0, b: float = 0.0) -> MomentSpec:
    """Equal means and sigma_0**2 the sum of the other variances, scaled by
    a and shifted by b: the coupling is forced into row and column 0."""
    rng = np.random.default_rng(seed)
    sigma = rng.uniform(0.2, 1.5, size=n)
    mu = float(rng.uniform(-1.0, 1.0))
    sigma[0] = math.sqrt(math.fsum(float(s) * float(s) for s in sigma[1:]))
    return MomentSpec(mu=(a * mu + b,) * n, sigma=tuple(a * float(s) for s in sigma))


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


def coupling_by_scan(p: list[float], q: list[float]) -> np.ndarray:
    """The largest-remaining-sum greedy coupling with linear scans.

    The same float steps as ``extremal._coupling_by_greedy``, with every
    maximum found by ``max`` over all indices (ties to the lowest index)
    instead of by a heap: O(n) per step.
    """
    n = len(p)
    out = np.zeros((n, n), dtype=float)
    pt = list(p)
    qt = list(q)
    for _ in range(4 * n + 8):
        m = math.fsum(pt)
        if m <= 1e-14:
            break
        tol = max(1e-14, n * float(np.finfo(float).eps) * m)
        sums = [pt[l] + qt[l] for l in range(n)]
        k = max(range(n), key=sums.__getitem__)
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
            col = max((j for j in range(n) if j != k), key=qt.__getitem__)
        else:
            col = k
            row = max((i for i in range(n) if i != k), key=pt.__getitem__)
        others = [sums[l] for l in range(n) if l != row and l != col]
        cap = m - max(others, default=0.0)
        delta = min(pt[row], qt[col], cap)
        out[row, col] += delta
        pt[row] -= delta
        qt[col] -= delta
        if pt[row] <= tol:
            pt[row] = 0.0
        if qt[col] <= tol:
            qt[col] = 0.0
    return out


def joint_by_tuples(
    x_zero: list[float], x_plus: list[float], x_minus: list[float], q: np.ndarray
) -> JointDiscreteDistribution:
    """The attaining law as explicit n-tuples: one atom per positive cell
    (i, j), row-major, with coordinate i at x_plus[i], j at x_minus[j] and
    every other k at x_zero[k]."""
    rows, cols = np.nonzero(q > 0.0)
    support = []
    for i, j in zip(rows.tolist(), cols.tolist()):
        vec = list(x_zero)
        vec[i] = x_plus[i]
        vec[j] = x_minus[j]
        support.append(tuple(vec))
    return JointDiscreteDistribution(support=tuple(support), prob=tuple(q[rows, cols].tolist()))


def expected_range_by_loop(joint: JointDiscreteDistribution) -> float:
    """E[max - min] summed atom by atom over the n-tuples."""
    return math.fsum(p * (max(vec) - min(vec)) for vec, p in zip(joint.support, joint.prob))


def check_moments_by_loop(
    joint: JointDiscreteDistribution, spec: MomentSpec, tol: float = 1e-10
) -> MomentCheckReport:
    """The moment check as a Python loop over coordinates and n-tuples."""
    mean_errors = []
    var_errors = []
    for i, (m, s) in enumerate(zip(spec.mu, spec.sigma)):
        mean_i = math.fsum(p * vec[i] for vec, p in zip(joint.support, joint.prob))
        var_i = math.fsum(
            p * (vec[i] - mean_i) ** 2 for vec, p in zip(joint.support, joint.prob)
        )
        mean_errors.append(abs(mean_i - m))
        var_errors.append(abs(var_i - s * s))
    return MomentCheckReport(
        mean_errors=tuple(mean_errors),
        var_errors=tuple(var_errors),
        expected_range=expected_range_by_loop(joint),
        passed=max(max(mean_errors), max(var_errors)) <= tol,
    )


def extremal_tuples(spec: MomentSpec) -> tuple[ExtremalComponents, JointDiscreteDistribution]:
    """``extremal_components`` of ``spec`` and its law rebuilt as n-tuples."""
    parts = extremal_components(spec)
    joint = joint_by_tuples(
        [d.x_zero for d in parts.marginals],
        [d.x_plus for d in parts.marginals],
        [d.x_minus for d in parts.marginals],
        parts.coupling.q,
    )
    return parts, joint


def extremal_stdout(spec: MomentSpec) -> str:
    """What ``rangebounds extremal`` prints, by ``json.dumps(indent=2)`` of
    the full payload with the law as n-tuples."""
    parts, joint = extremal_tuples(spec)
    payload = {
        "mu": list(spec.mu),
        "sigma": list(spec.sigma),
        "rho": parts.report.rho,
        "c": parts.report.optimum.c,
        "lambda": parts.report.optimum.lam,
        "joint": {"support": [list(vec) for vec in joint.support], "prob": list(joint.prob)},
        "coupling": {"q": parts.coupling.q.tolist()},
    }
    return json.dumps(payload, indent=2) + "\n"


def verify_stdout(
    spec: MomentSpec, embedded: JointDiscreteDistribution | None, samples: int, seed: int = 0
) -> str:
    """What ``rangebounds verify`` prints, with every exact check done by
    the loops above on the n-tuple law."""
    parts, joint = extremal_tuples(spec)
    rho = parts.report.rho

    def agrees(law: JointDiscreteDistribution) -> tuple[MomentCheckReport, bool]:
        check = check_moments_by_loop(law, spec)
        ok = check.passed and abs(check.expected_range - rho) <= 1e-9 * (1.0 + rho)
        return check, ok

    check, rebuilt_ok = agrees(joint)
    exact = expected_range_by_loop(joint)
    estimate, std_error = mc_expected_range(joint, samples, seed=seed)
    mc_ok = abs(estimate - exact) <= 4.0 * std_error + 1e-12
    embedded_ok = None if embedded is None else agrees(embedded)[1]
    payload = {
        "rho": rho,
        "expected_range": exact,
        "moment_check": check.to_json_dict(),
        "mc_estimate": estimate,
        "mc_std_error": std_error,
        "embedded_joint_pass": embedded_ok,
        "pass": rebuilt_ok and mc_ok and embedded_ok is not False,
    }
    return json.dumps(payload, indent=2) + "\n"


def mass_table_by_choose(mu, sigma, c: float, lam: float) -> MassTable:
    """The mass table with each output chosen by region code via ``np.choose``."""
    x = (np.asarray(mu, dtype=float) - c) / lam
    y = np.asarray(sigma, dtype=float) / lam
    ax = np.abs(x)
    r = np.hypot(x, y)
    m_two = (0.5 * np.minimum(r, 2.0)) ** 2 - (2.0 / np.maximum(r, 2.0)) ** 2
    ratio = 2.0 * (ax / r) / r
    m_one = 1.0 / np.maximum(ratio, 1.0) - np.minimum(ratio, 1.0)
    region = np.where(
        m_two >= -BOUNDARY_REL_TOL,
        0,
        np.where(m_one <= BOUNDARY_REL_TOL, np.where(x > 0.0, 2, 3), 1),
    )
    g = x / r
    k1 = (y / r) ** 2 / r
    r2 = np.minimum(r, 2.0) ** 2
    t = np.hypot(ax - 1.0, y)
    h = (ax - 1.0) / t
    far = 0.5 * (1.0 + h)
    near = 0.5 * (1.0 - h)
    k3 = 0.5 * (y / t) ** 2 / t
    p = np.stack(
        (
            np.choose(region, (0.5 * (1.0 - g), 0.125 * (r2 - 2.0 * x), 0.0, far)),
            np.choose(region, (0.0, 1.0 - 0.25 * r2, near, near)),
            np.choose(region, (0.5 * (1.0 + g), 0.125 * (r2 + 2.0 * x), far, 0.0)),
        )
    )
    z = np.stack(
        (
            np.choose(region, (-r, -2.0, -2.0, -1.0 - t)),
            np.choose(region, (0.0, 0.0, 1.0 - t, t - 1.0)),
            np.choose(region, (r, 2.0, 1.0 + t, 2.0)),
        )
    )
    return MassTable(
        c=float(c),
        lam=float(lam),
        region=region,
        z=z,
        p=p,
        margin=np.minimum(np.abs(m_two), np.abs(m_one)),
        dp0_dlam=np.choose(region, (0.0, 0.5 * r2, k3, k3)) / lam,
        dgap_dc=np.choose(region, (k1, 0.5, k3, k3)) / lam,
        dp0_dc=np.choose(region, (0.0, 0.5 * x, k3, -k3)) / lam,
    )


def _scaled_deviations_by_loop(spec: MomentSpec) -> tuple[list[float], list[float], int]:
    mb = spec.mu_bar
    dev = [m - mb for m in spec.mu]
    e = math.frexp(max(max(map(abs, dev)), max(spec.sigma)))[1]
    return [math.ldexp(v, -e) for v in dev], [math.ldexp(s, -e) for s in spec.sigma], e


def ag_bound_by_loop(spec: MomentSpec) -> float:
    dev, sig, e = _scaled_deviations_by_loop(spec)
    total = math.fsum(d**2 + s * s for d, s in zip(dev, sig))
    return math.ldexp(math.sqrt(2.0 * total), e)


def ag_general_bound_by_loop(spec: MomentSpec, coeffs) -> float:
    cs = [float(v) for v in coeffs]
    cbar = math.fsum(cs) / len(cs)
    spread = math.fsum((v - cbar) ** 2 for v in cs)
    dev, sig, e = _scaled_deviations_by_loop(spec)
    total = math.fsum(d**2 + s * s for d, s in zip(dev, sig))
    return spec.mu_bar * math.fsum(cs) + math.ldexp(math.sqrt(spread) * math.sqrt(total), e)


def ag_tightness_by_loop(spec: MomentSpec) -> tuple[bool, bool | None, AttainingJoint | None]:
    """``ag_tightness`` with its conditions checked coordinate by coordinate,
    its tail masses from :func:`mass_table_by_choose`, and its uniqueness
    verdict from the certificate on its own coupling alone."""
    mb = spec.mu_bar
    d, s, e = _scaled_deviations_by_loop(spec)
    theta2 = [di * di + si * si for di, si in zip(d, s)]
    s_total = math.fsum(theta2)
    ag_unit = math.sqrt(2.0 * s_total)
    slack = 1e-12 * s_total
    cond_i = all(0.5 * abs(di) * ag_unit <= t2 + slack for di, t2 in zip(d, theta2))
    cond_ii = all(t2 <= 0.5 * s_total + slack for t2 in theta2)
    if not (cond_i and cond_ii):
        return False, None, None
    ag = math.ldexp(ag_unit, e)
    table = mass_table_by_choose(spec.mu, spec.sigma, mb, 0.25 * ag)
    p_plus = table.p[2].tolist()
    p_minus = table.p[0].tolist()
    coupling = zero_trace_coupling(p_plus, p_minus)
    half = 0.5 * ag
    n = spec.n
    joint = AttainingJoint(
        x_zero=np.full(n, mb), x_plus=np.full(n, mb + half), x_minus=np.full(n, mb - half),
        coupling=coupling,
    )
    return True, perturb_coupling(coupling) is None, joint
