"""End-to-end acceptance checks for the published worked cases, the bound
orderings, attainment, duality, uniqueness, and the property suites.

Each test is self-contained and pins its tolerances explicitly.
"""

import math
import time

import numpy as np
import pytest

from _oracles import random_spec
from rangebounds import (
    MomentSpec,
    ProbabilityMatrix,
    ag_bound,
    bnt_max_bound,
    build_extremal_joint,
    check_moments,
    dual_grid_check,
    equal_means_bound,
    expected_range,
    extremal_components,
    extremal_marginals,
    extremal_pair_given_correlation,
    feasible_probe,
    gamma2_bound,
    infimum_witness,
    mc_expected_range,
    minimize_phi,
    pair_cov_bounds,
    perturb_coupling,
    phi,
    phi_array,
    phi_gradient,
    rho_bound,
    u_gradient,
    u_value,
    u_value_array,
    zero_trace_coupling,
)
from rangebounds.objective import DualPoint


def match_atoms(joint, expected, tol):
    """Assert ``joint`` has exactly the expected atoms, up to ``tol``."""
    assert len(joint.support) == len(expected)
    used = [False] * len(expected)
    for vec, mass in zip(joint.support, joint.prob):
        hits = [
            k
            for k, (evec, emass) in enumerate(expected)
            if not used[k]
            and max(abs(a - b) for a, b in zip(vec, evec)) <= tol
            and abs(mass - emass) <= tol
        ]
        assert hits, f"unmatched atom {vec} with mass {mass}"
        used[hits[0]] = True


def test_arithmetic_triple_reproduces_tail_masses_and_unique_joint():
    start = time.perf_counter()
    spec = MomentSpec(mu=(-1.0, 0.0, 1.0), sigma=(1.0, math.sqrt(3.0), math.sqrt(2.0)))
    parts = extremal_components(spec)
    assert parts.report.ag == pytest.approx(4.0, abs=1e-10)
    for got, want in zip(parts.table.p[2].tolist(), (0.0, 3.0 / 8.0, 5.0 / 8.0)):
        assert got == pytest.approx(want, abs=1e-9)
    for got, want in zip(parts.table.p[0].tolist(), (0.5, 3.0 / 8.0, 1.0 / 8.0)):
        assert got == pytest.approx(want, abs=1e-9)
    match_atoms(
        parts.joint,
        [
            ((-2.0, 2.0, 0.0), 2.0 / 8.0),
            ((-2.0, 0.0, 2.0), 2.0 / 8.0),
            ((0.0, -2.0, 2.0), 3.0 / 8.0),
            ((0.0, 2.0, -2.0), 1.0 / 8.0),
        ],
        tol=1e-9,
    )
    assert time.perf_counter() - start < 1.0


def test_asymmetric_triple_reproduces_published_optimum_and_range_law():
    start = time.perf_counter()
    spec = MomentSpec(mu=(-2.0, 0.0, 2.0), sigma=(1.0, 3.0, 1.0))
    parts = extremal_components(spec)
    assert parts.report.optimum.lam == pytest.approx(1.737, abs=1e-3)
    assert parts.report.rho == pytest.approx(6.066, abs=1e-3)
    assert parts.report.ag == pytest.approx(math.sqrt(38.0), abs=1e-3)
    pairs = sorted(
        (max(vec) - min(vec), p) for vec, p in zip(parts.joint.support, parts.joint.prob)
    )
    merged: list[list[float]] = []
    for value, mass in pairs:
        if merged and value - merged[-1][0] <= 1e-9:
            merged[-1][1] += mass
        else:
            merged.append([value, mass])
    assert len(merged) == 2
    assert merged[0][0] == pytest.approx(5.542, abs=1e-3)
    assert merged[0][1] == pytest.approx(0.254, abs=1e-3)
    assert merged[1][0] == pytest.approx(6.245, abs=1e-3)
    assert merged[1][1] == pytest.approx(0.746, abs=1e-3)
    assert time.perf_counter() - start < 1.0


def test_equal_means_closed_form_agrees_with_general_solver_on_both_branches():
    rng = np.random.default_rng(101)
    balanced = dominant = 0
    for trial in range(200):
        n = 3 + trial % 6
        sigma = [float(v) for v in rng.uniform(0.2, 2.5, n)]
        if trial % 2 == 1:
            rest = math.fsum(s * s for s in sigma[1:])
            sigma[0] = math.sqrt(rest) * float(rng.uniform(1.05, 1.6))
        level = float(rng.uniform(-2.0, 2.0))
        spec = MomentSpec(mu=(level,) * n, sigma=tuple(sigma))
        top = max(s * s for s in sigma)
        if 2.0 * top <= math.fsum(s * s for s in sigma):
            balanced += 1
        else:
            dominant += 1
        closed = equal_means_bound(spec)
        solved = minimize_phi(spec)
        assert abs(solved.rho - closed) <= 2.0 * math.ulp(closed)
    assert balanced >= 50 and dominant >= 50
    assert equal_means_bound(
        MomentSpec(mu=(0.0,) * 3, sigma=(1.0,) * 3)
    ) == pytest.approx(math.sqrt(6.0), abs=1e-12)
    assert equal_means_bound(
        MomentSpec(mu=(0.0, 0.0, 0.0), sigma=(1.0, 1.0, 3.0))
    ) == pytest.approx(3.0 + math.sqrt(2.0), abs=1e-12)


def test_balanced_groups_closed_form_and_dispersion_ratio_trend():
    for k in (2, 3, 4):
        spec = MomentSpec(mu=(-2.0,) * k + (2.0,) * k, sigma=(1.0,) * (2 * k))
        expected = 2.0 * 2.0 + 2.0 * 1.0 * math.sqrt(k - 1.0)
        assert rho_bound(spec).rho == pytest.approx(expected, abs=1e-6)
    ratios = []
    for mu in (2.0, 3.0, 4.0, 6.0, 8.0):
        spec = MomentSpec(mu=(-mu, -mu, mu, mu), sigma=(1.0,) * 4)
        report = rho_bound(spec)
        ratios.append(report.rho / report.ag)
    limit = 1.0 / math.sqrt(2.0)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert all(r > limit for r in ratios)
    assert ratios[-1] - limit < ratios[0] - limit


def test_single_outlier_mean_center_satisfies_stationarity_identity():
    spec = MomentSpec(mu=(0.0, 0.0, 0.0, 3.0), sigma=(1.0,) * 4)
    report = rho_bound(spec)
    c0 = report.optimum.c
    lhs = c0 * math.sqrt(3.0) / math.sqrt(c0 * c0 + 1.0)
    rhs = (3.0 - c0) / math.sqrt((3.0 - c0) ** 2 + 1.0)
    assert abs(lhs - rhs) <= 1e-6
    closed = math.sqrt(3.0 * (c0 * c0 + 1.0)) + math.sqrt((3.0 - c0) ** 2 + 1.0)
    assert abs(report.rho - closed) <= 1e-6


def test_bound_ordering_always_and_dispersion_tightness_exactly_when_balanced():
    rng = np.random.default_rng(102)
    specs = [random_spec(rng) for _ in range(600)]
    for _ in range(250):
        n = int(rng.integers(3, 9))
        sigma = [float(v) for v in rng.uniform(0.2, 2.5, n)]
        if rng.random() < 0.5:
            rest = math.fsum(s * s for s in sigma[1:])
            sigma[0] = math.sqrt(rest) * float(rng.uniform(1.05, 1.6))
        specs.append(MomentSpec(mu=(0.3,) * n, sigma=tuple(sigma)))
    for _ in range(150):
        n = int(rng.integers(4, 9))
        mu = tuple(float(v) for v in rng.uniform(-0.1, 0.1, n))
        sigma = tuple(float(v) for v in rng.uniform(1.0, 1.5, n))
        specs.append(MomentSpec(mu=mu, sigma=sigma))
    tight_checked = loose_checked = 0
    for spec in specs:
        report = rho_bound(spec)
        assert report.infimum <= report.rho + 1e-12
        assert report.rho <= report.ag + 1e-12
        mb = spec.mu_bar
        d = [m - mb for m in spec.mu]
        theta2 = [di * di + s * s for di, s in zip(d, spec.sigma)]
        total = math.fsum(theta2)
        ag = math.sqrt(2.0 * total)
        slacks = [(t2 - 0.5 * abs(di) * ag) / total for di, t2 in zip(d, theta2)]
        slacks += [(0.5 * total - t2) / total for t2 in theta2]
        margin = min(slacks)
        if abs(margin) < 3e-4:
            # Near the boundary of the balance conditions the gap between
            # the two bounds is quadratically small in the margin and not
            # distinguishable at the assertion tolerance.
            continue
        is_tight = abs(report.rho - report.ag) <= 1e-8
        if margin >= 0.0:
            assert is_tight, (spec, margin, report.ag - report.rho)
            tight_checked += 1
        else:
            assert not is_tight, (spec, margin, report.ag - report.rho)
            loose_checked += 1
    assert tight_checked >= 100
    assert loose_checked >= 100


def test_extremal_joint_attains_bound_with_exact_moments_and_mc_agreement():
    rng = np.random.default_rng(103)
    for trial in range(500):
        spec = random_spec(rng)
        parts = extremal_components(spec)
        exact = expected_range(parts.joint)
        assert abs(exact - parts.report.rho) <= 1e-9
        assert check_moments(parts.joint, spec, tol=1e-10).passed
        if trial % 25 == 0:
            estimate, se = mc_expected_range(parts.joint, 1_000_000, seed=trial)
            assert abs(estimate - exact) <= 4.0 * se + 1e-12


def test_dual_grid_and_feasible_probe_sandwich_the_bound():
    rng = np.random.default_rng(104)
    for _ in range(50):
        spec = random_spec(rng)
        rho = rho_bound(spec).rho
        assert dual_grid_check(spec) >= rho - 1e-9
        assert feasible_probe(spec, trials=20, seed=7) <= rho + 1e-9


def test_random_restarts_agree_on_the_unique_optimum():
    rng = np.random.default_rng(105)
    for _ in range(100):
        spec = random_spec(rng)
        lo, hi = min(spec.mu), max(spec.mu)
        cs, lams = [], []
        for restart in range(10):
            if restart == 0 or hi - lo <= 1e-9:
                report = minimize_phi(spec)
            else:
                report = minimize_phi(spec, c_start=float(rng.uniform(lo, hi)))
            cs.append(report.optimum.c)
            lams.append(report.optimum.lam)
        assert max(cs) - min(cs) <= 1e-7
        assert max(lams) - min(lams) <= 1e-7


def test_pair_suite_closed_forms_and_covariance_attainment():
    rng = np.random.default_rng(106)
    for _ in range(50):
        m1, m2 = (float(v) for v in rng.uniform(-3, 3, 2))
        s1, s2 = (float(v) for v in rng.uniform(0.2, 2.5, 2))
        spec = MomentSpec(mu=(m1, m2), sigma=(s1, s2))
        rho2 = math.hypot(m1 - m2, s1 + s2)
        report = rho_bound(spec)
        assert report.rho == pytest.approx(rho2, rel=1e-12)
        assert report.method == "n2-closed-form"
        bnt, _ = bnt_max_bound(spec)
        assert bnt == pytest.approx(spec.mu_bar + rho2 / 2.0, abs=1e-9)
        joint = build_extremal_joint(spec)
        assert len(joint.support) == 2
        assert expected_range(joint) == pytest.approx(rho2, abs=1e-12)
        assert check_moments(joint, spec, tol=1e-10).passed
        assert gamma2_bound(m1, m2, s1, s2, -1.0) == pytest.approx(rho2, rel=1e-12)

    m1, m2, s1, s2, corr = 0.3, -0.8, 1.1, 0.6, 0.4
    _, emax_hi, _, cov_hi = pair_cov_bounds(m1, m2, s1, s2, corr)
    sampler = extremal_pair_given_correlation(m1, m2, s1, s2, corr)
    joint = sampler.as_joint()
    emax_exact = math.fsum(p * max(v) for v, p in zip(joint.support, joint.prob))
    emin_exact = math.fsum(p * min(v) for v, p in zip(joint.support, joint.prob))
    cross = math.fsum(p * max(v) * min(v) for v, p in zip(joint.support, joint.prob))
    assert emax_exact == pytest.approx(emax_hi, abs=1e-9)
    assert cross - emax_exact * emin_exact == pytest.approx(cov_hi, abs=1e-9)

    draws = sampler.sample(1_000_000, seed=42)
    top = draws.max(axis=1)
    bottom = draws.min(axis=1)
    n = len(top)
    emax_mc = float(top.mean())
    se_max = float(top.std(ddof=1)) / math.sqrt(n)
    assert abs(emax_mc - emax_hi) <= 4.0 * se_max
    cov_mc = float(np.mean(top * bottom)) - emax_mc * float(bottom.mean())
    influence = (top - top.mean()) * (bottom - bottom.mean())
    se_cov = float(influence.std(ddof=1)) / math.sqrt(n)
    assert abs(cov_mc - cov_hi) <= 4.0 * se_cov


def test_vanishing_dispersion_and_witness_approach_mean_spread():
    spec = MomentSpec(mu=(0.0, 1.0, 3.0), sigma=(1e-4, 1e-4, 1e-4))
    assert rho_bound(spec).rho == pytest.approx(3.0, abs=1e-3)
    unit = MomentSpec(mu=(0.0, 1.0, 3.0), sigma=(1.0, 1.0, 1.0))
    estimate = infimum_witness(unit, 1e-4, n_samples=1_000_000, seed=0)
    assert abs(estimate - 3.0) <= 0.1


def test_property_suites_convexity_gradients_masses_and_couplings():
    rng = np.random.default_rng(107)

    # Midpoint convexity of the scale-free envelope on 10**4 random chords.
    x1, x2 = rng.uniform(-8.0, 8.0, (2, 10_000))
    y1, y2 = rng.uniform(0.05, 6.0, (2, 10_000))
    t = rng.uniform(0.0, 1.0, 10_000)
    mid = u_value_array(t * x1 + (1 - t) * x2, t * y1 + (1 - t) * y2)
    chord = t * u_value_array(x1, y1) + (1 - t) * u_value_array(x2, y2)
    assert np.all(mid <= chord + 1e-12)

    # Same for the dual objective, vectorized per spec.
    for _ in range(5):
        spec = random_spec(rng)
        c1, c2 = rng.uniform(-4.0, 4.0, (2, 2000))
        l1, l2 = rng.uniform(0.05, 5.0, (2, 2000))
        s = rng.uniform(0.0, 1.0, 2000)
        mid = phi_array(spec, s * c1 + (1 - s) * c2, s * l1 + (1 - s) * l2)
        chord = s * phi_array(spec, c1, l1) + (1 - s) * phi_array(spec, c2, l2)
        assert np.all(mid <= chord + 1e-12)

    # Analytic gradients against central differences.
    h = 1e-6
    for _ in range(300):
        x = float(rng.uniform(-6.0, 6.0))
        y = float(rng.uniform(0.1, 5.0))
        gx, gy = u_gradient(x, y)
        fx = (u_value(x + h, y) - u_value(x - h, y)) / (2.0 * h)
        fy = (u_value(x, y + h) - u_value(x, y - h)) / (2.0 * h)
        assert abs(gx - fx) <= 1e-5
        assert abs(gy - fy) <= 1e-5
    for _ in range(100):
        spec = random_spec(rng)
        c = float(rng.uniform(-3.0, 3.0))
        lam = float(rng.uniform(0.2, 4.0))
        dc, dlam = phi_gradient(DualPoint(c=c, lam=lam), spec)
        fc = (
            phi(DualPoint(c=c + h, lam=lam), spec)
            - phi(DualPoint(c=c - h, lam=lam), spec)
        ) / (2.0 * h)
        flam = (
            phi(DualPoint(c=c, lam=lam + h), spec)
            - phi(DualPoint(c=c, lam=lam - h), spec)
        ) / (2.0 * h)
        assert abs(dc - fc) <= 1e-5
        assert abs(dlam - flam) <= 1e-5

    # Tail and middle mass identities at the optimum.
    for _ in range(50):
        spec = random_spec(rng)
        report = rho_bound(spec)
        p_minus, _, p_plus = extremal_marginals(spec, report.optimum).p.tolist()
        assert abs(math.fsum(p_plus) - 1.0) <= 1e-9
        assert abs(math.fsum(p_minus) - 1.0) <= 1e-9
        middles = [1.0 - pp - pm for pp, pm in zip(p_plus, p_minus)]
        assert abs(math.fsum(middles) - (spec.n - 2)) <= 1e-9

    # Coupling validity on random feasible marginals.
    for _ in range(40):
        n = int(rng.integers(3, 9))
        while True:
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(n))
            if float(np.max(p + q)) <= 0.95:
                break
        matrix = zero_trace_coupling(p.tolist(), q.tolist())
        assert matrix.is_zero_trace()
        assert float(matrix.q.min()) >= 0.0
        np.testing.assert_allclose(matrix.row_marginals, p, atol=1e-12)
        np.testing.assert_allclose(matrix.col_marginals, q, atol=1e-12)

    # Uniqueness branches: a forced coupling certifies itself, a cyclic one
    # admits a distinct rebalancing.
    forced = zero_trace_coupling([0.5, 0.3, 0.2], [0.5, 0.25, 0.25])
    assert perturb_coupling(forced) is None
    cyc = np.zeros((3, 3))
    cyc[0, 1] = cyc[1, 2] = cyc[2, 0] = 1.0 / 3.0
    other = perturb_coupling(ProbabilityMatrix(q=cyc))
    assert other is not None and not np.array_equal(other.q, cyc)
