import decimal
import math
import statistics

import numpy as np
import pytest

from _oracles import (
    ag_bound_by_loop,
    ag_general_bound_by_loop,
    ag_tightness_by_loop,
    equal_means_rho_by_mpmath,
    phi_by_nelder_mead,
    random_spec,
    rho_by_nested_roots,
    star_spec,
    ulps_from,
)
from rangebounds import (
    ConvergenceError,
    DualPoint,
    MomentSpec,
    ValidationError,
    ag_bound,
    ag_general_bound,
    ag_tightness,
    bnt_max_bound,
    bnt_range,
    equal_means_bound,
    extremal_pair_given_correlation,
    gamma2_bound,
    minimize_phi,
    pair_cov_bounds,
    phi,
    phi_array,
    plackett_iid_bound,
    rho2_closed,
    rho_bound,
)
from rangebounds import solver
from rangebounds.objective import mass_table


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: gamma2_bound(0.0, 1.0, 0.0, 1.0, 0.0), "sigmas must be positive"),
        (
            lambda: equal_means_bound(MomentSpec(mu=(0.0, 1.0, 2.0), sigma=(1.0, 1.0, 1.0))),
            "all means equal",
        ),
    ],
    ids=["zero-sigma-pair", "unequal-means"],
)
def test_rejects_invalid_input(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


class TestAgBound:
    def test_spot_values(self):
        spec = MomentSpec(
            mu=(-1.0, 0.0, 1.0), sigma=(1.0, math.sqrt(3.0), math.sqrt(2.0))
        )
        assert ag_bound(spec) == pytest.approx(4.0, abs=1e-12)
        spec = MomentSpec(mu=(-2.0, 0.0, 2.0), sigma=(1.0, 3.0, 1.0))
        assert ag_bound(spec) == pytest.approx(math.sqrt(38.0), abs=1e-12)

    def test_general_coefficients_recover_range_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            spec = random_spec(rng)
            coeffs = [0.0] * spec.n
            coeffs[0] = -1.0
            coeffs[-1] = 1.0
            assert ag_general_bound(spec, coeffs) == pytest.approx(
                ag_bound(spec), rel=1e-12
            )

    def test_general_coefficients_length_checked(self):
        spec = MomentSpec(mu=(0.0, 1.0), sigma=(1.0, 1.0))
        with pytest.raises(ValidationError):
            ag_general_bound(spec, (1.0, 0.0, -1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_general_coefficients_must_be_finite(self, bad):
        spec = MomentSpec(mu=(0.0, 1.0, 2.0), sigma=(1.0, 1.0, 1.0))
        with pytest.raises(ValidationError, match="coefficients must be finite"):
            ag_general_bound(spec, (-1.0, bad, 1.0))


class TestPlackettBound:
    def test_spot_values(self):
        assert plackett_iid_bound(2, 1.0) == pytest.approx(2.0 / math.sqrt(3.0))
        assert plackett_iid_bound(3, 1.0) == pytest.approx(math.sqrt(3.0))

    @pytest.mark.parametrize("n", [520, 600, 10_000])
    def test_large_n_where_the_binomial_exceeds_the_float_range(self, n):
        # 1 / C(2n - 2, n - 1) is below 2**-1074, so the bound is the
        # limit n sigma sqrt(2 / (2n - 1)) to rounding.
        limit = n * 0.7 * math.sqrt(2.0 / (2.0 * n - 1.0))
        assert plackett_iid_bound(n, 0.7) == pytest.approx(limit, rel=1e-15)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            plackett_iid_bound(1, 1.0)
        with pytest.raises(ValidationError):
            plackett_iid_bound(3, 0.0)
        for sigma in (math.nan, math.inf):
            with pytest.raises(ValidationError, match="finite"):
                plackett_iid_bound(3, sigma)

    def test_below_dependence_free_bound_for_homogeneous_specs(self):
        # Independence is one admissible dependence, so the i.i.d. bound
        # can never exceed the bound over all joint laws.
        for n in range(2, 9):
            spec = MomentSpec(mu=(1.5,) * n, sigma=(0.7,) * n)
            assert plackett_iid_bound(n, 0.7) <= rho_bound(spec).rho + 1e-12


class TestBntMaxBound:
    def test_homogeneous_four_variables(self):
        spec = MomentSpec(mu=(0.0,) * 4, sigma=(1.0,) * 4)
        value, y0 = bnt_max_bound(spec)
        assert value == pytest.approx(math.sqrt(3.0), abs=1e-10)
        assert y0 == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-10)

    def test_defining_root_is_satisfied(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            spec = random_spec(rng)
            _, y0 = bnt_max_bound(spec)
            lhs = math.fsum(
                (y0 - m) / math.hypot(m - y0, s)
                for m, s in zip(spec.mu, spec.sigma)
            )
            assert lhs == pytest.approx(spec.n - 2, abs=1e-9)

    def test_pair_closed_form(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            spec = random_spec(rng, n=2)
            value, _ = bnt_max_bound(spec)
            rho2 = math.hypot(spec.mu[0] - spec.mu[1], spec.sigma[0] + spec.sigma[1])
            assert value == pytest.approx(spec.mu_bar + rho2 / 2.0, abs=1e-9)

    def test_value_is_accurate_at_its_root(self):
        """The bound's defining sum cancels when the means are offset far
        from their spread; against a 50-digit evaluation of that sum at the
        same y0 it is accurate to 1e-13 relative."""
        rng = np.random.default_rng(15)
        worst = 0.0
        for k in range(300):
            n = (3, 10, 50, 300, 2000)[k % 5]
            a = 10.0 ** rng.uniform(-3.0, 3.0)
            b = a * rng.uniform(-100.0, 100.0)
            mu = a * rng.uniform(-1.0, 1.0, n) + b
            sigma = a * rng.uniform(0.2, 1.5, n)
            spec = MomentSpec(mu=tuple(mu.tolist()), sigma=tuple(sigma.tolist()))
            value, y0 = bnt_max_bound(spec)
            with decimal.localcontext() as context:
                context.prec = 50
                y = decimal.Decimal(y0)
                exact = -(n - 2) * y / 2
                for m, s in zip(map(decimal.Decimal, spec.mu), map(decimal.Decimal, spec.sigma)):
                    exact += (m + ((m - y) ** 2 + s * s).sqrt()) / 2
                worst = max(worst, float(abs(decimal.Decimal(value) - exact) / abs(exact)))
        assert worst <= 1e-13

    def test_max_based_range_bound_dominates_tight_bound(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            spec = random_spec(rng)
            flipped = MomentSpec(mu=tuple(-m for m in spec.mu), sigma=spec.sigma)
            total = bnt_max_bound(spec)[0] + bnt_max_bound(flipped)[0]
            assert rho_bound(spec).rho <= total + 1e-9

    def test_range_in_the_frame_is_never_below_rho(self):
        """E max X + E max(-X) bounds the expected range, so it is at least
        rho.  Summed at the scale of the means the two terms cancel; formed
        in the spec's frame, it keeps the ordering to rounding, on pairs at
        a = 2**k offset by up to 1e8 sigma and at n = 3..8."""
        rng = np.random.default_rng(19)
        for n in [2] * 200 + [3, 4, 5, 6, 7, 8] * 10:
            a = 2.0 ** int(rng.integers(-399, 400))
            b = float(rng.uniform(-1e8, 1e8))
            mu = a * (rng.uniform(-1.0, 1.0, n) + b)
            sigma = a * rng.uniform(0.2, 1.5, n)
            spec = MomentSpec(mu=tuple(mu.tolist()), sigma=tuple(sigma.tolist()))
            rho = rho_bound(spec).rho
            assert bnt_range(spec) >= rho * (1.0 - 4.0 * 2.0**-52)


class TestPairBounds:
    def test_gamma2_spot_value(self):
        assert gamma2_bound(0.0, 3.0, 1.0, 2.0, 0.0) == pytest.approx(math.sqrt(14.0))

    def test_gamma2_at_extreme_negative_correlation_is_pair_bound(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            m1, m2 = rng.uniform(-3, 3, 2)
            s1, s2 = rng.uniform(0.2, 2.5, 2)
            expected = math.hypot(m1 - m2, s1 + s2)
            assert gamma2_bound(m1, m2, s1, s2, -1.0) == pytest.approx(
                expected, rel=1e-12
            )

    def test_gamma2_to_four_ulps(self):
        """Against 50 digits, on pairs near the degenerate law (rho -> 1
        with equal or nearly equal sigmas, where sigma1**2 + sigma2**2 - 2
        rho sigma1 sigma2 cancels) and on ordinary ones."""
        pairs = [
            (m1, m2, 1.0, s2, 1.0 - 10.0**-k)
            for (m1, m2, s2) in ((3.0, 3.0, 1.0), (0.0, 0.5, 1.0 + 1e-9), (0.0, 0.5, 1.0 + 1e-7))
            for k in range(1, 17)
        ]
        rng = np.random.default_rng(17)
        for _ in range(300):
            m1, m2 = rng.uniform(-3, 3, 2)
            s1, s2 = rng.uniform(0.2, 2.5, 2)
            pairs.append((float(m1), float(m2), float(s1), float(s2), float(rng.uniform(-1, 1))))
        with decimal.localcontext() as context:
            context.prec = 50
            for args in pairs:
                m1, m2, s1, s2, rho = map(decimal.Decimal, args)
                exact = ((m1 - m2) ** 2 + s1 * s1 + s2 * s2 - 2 * rho * s1 * s2).sqrt()
                got = gamma2_bound(*args)
                assert abs(decimal.Decimal(got) - exact) <= 4 * decimal.Decimal(math.ulp(got))

    @pytest.mark.parametrize("a", [2.0**400, 2.0**-400, 2.0**-520, 2.0**510])
    def test_pair_bounds_are_equivariant_under_powers_of_two(self, a):
        rng = np.random.default_rng(18)
        for _ in range(50):
            m1, m2 = (float(v) for v in rng.uniform(-3, 3, 2))
            s1, s2 = (float(v) for v in rng.uniform(0.2, 2.5, 2))
            rho = float(rng.uniform(-1, 1))
            scaled = (a * m1, a * m2, a * s1, a * s2, rho)
            assert gamma2_bound(*scaled) == a * gamma2_bound(m1, m2, s1, s2, rho)
            got = pair_cov_bounds(*scaled)
            want = pair_cov_bounds(m1, m2, s1, s2, rho)
            assert got == (a * want[0], a * want[1], a * a * want[2], a * a * want[3])

    def test_gamma2_rejects_bad_correlation(self):
        with pytest.raises(ValidationError):
            gamma2_bound(0.0, 0.0, 1.0, 1.0, 1.5)

    @pytest.mark.parametrize(
        "rho,expected",
        [
            (0.0, (0.0, math.sqrt(2.0) / 2.0, 0.0, 0.5)),
            (1.0, (0.0, 0.0, 1.0, 1.0)),
            (-1.0, (0.0, 1.0, -1.0, 0.0)),
        ],
    )
    def test_cov_bounds_standard_pairs(self, rho, expected):
        result = pair_cov_bounds(0.0, 0.0, 1.0, 1.0, rho)
        assert result == pytest.approx(expected, abs=1e-12)

    def test_cov_bounds_are_ordered(self):
        rng = np.random.default_rng(16)
        for _ in range(40):
            m1, m2 = rng.uniform(-3, 3, 2)
            s1, s2 = rng.uniform(0.2, 2.5, 2)
            rho = float(rng.uniform(-1, 1))
            emax_lo, emax_hi, cov_lo, cov_hi = pair_cov_bounds(m1, m2, s1, s2, rho)
            assert emax_lo <= emax_hi + 1e-12
            assert cov_lo <= cov_hi + 1e-12
            assert emax_lo == max(m1, m2)


class TestPairClosedForm:
    def test_spot_value(self):
        report = rho2_closed(MomentSpec(mu=(0.0, 3.0), sigma=(1.0, 3.0)))
        assert report.rho == pytest.approx(5.0, abs=1e-12)
        assert report.optimum.c == pytest.approx(0.75, abs=1e-12)
        assert report.method == "n2-closed-form"
        assert report.residual <= 1e-12

    def test_both_coordinates_in_two_sided_region(self):
        report = rho2_closed(MomentSpec(mu=(0.0, 3.0), sigma=(1.0, 3.0)))
        assert sorted(report.regions.i1) == [0, 1]

    def test_objective_flat_below_reported_lambda(self):
        """Any lambda in (0, lambda0] is optimal for a pair; the reported
        value is the top of that segment."""
        rng = np.random.default_rng(17)
        for _ in range(20):
            spec = random_spec(rng, n=2)
            report = rho2_closed(spec)
            c0, lam0 = report.optimum.c, report.optimum.lam
            for shrink in (1.0, 0.5, 0.1):
                value = phi(DualPoint(c=c0, lam=lam0 * shrink), spec)
                assert value == pytest.approx(report.rho, abs=1e-10)

    def test_rejects_other_sizes(self):
        with pytest.raises(ValidationError):
            rho2_closed(MomentSpec(mu=(0.0, 1.0, 2.0), sigma=(1.0, 1.0, 1.0)))

    @pytest.mark.parametrize("a", [1e-300, 1e-180, 1e180, 1e300])
    def test_extreme_scales_scale_the_unit_report_exactly(self, a):
        """Products of means and sigmas leave the float range past about
        1e154 and below 1e-162; the report must not.  The power of two
        nearest a keeps the scaled spec exact, so equality is exact."""
        a = math.ldexp(1.0, round(math.log2(a)))
        unit = rho2_closed(MomentSpec(mu=(0.0, 1.3), sigma=(0.7, 1.1)))
        report = rho2_closed(MomentSpec(mu=(0.0, 1.3 * a), sigma=(0.7 * a, 1.1 * a)))
        assert report.rho / a == unit.rho
        assert report.optimum.c / a == unit.optimum.c
        assert report.optimum.lam / a == unit.optimum.lam
        assert report.regions == unit.regions


def _dominated_equal_means_specs() -> list[MomentSpec]:
    """Equal means with one sigma dominant: four fixed specs, and 40 seeded
    ones whose other variances sum to 1e-16 to 1e-12 of the largest, at
    scales 10**-250 to 10**250."""
    fixed = [(1.0, 3e-9, 4e-9, 1e-9), (1.0, 1e-9, 1e-9), (1.0, 1e-6, 1e-6), (1.0, 1e-8, 1e-8)]
    specs = [MomentSpec(mu=(0.0,) * len(sigma), sigma=sigma) for sigma in fixed]
    rng = np.random.default_rng(24)
    for _ in range(40):
        n = int(rng.integers(3, 13))
        others = rng.uniform(0.2, 1.0, n - 1)
        others *= math.sqrt(float(rng.uniform(1e-16, 1e-12)) / float(np.sum(others**2)))
        sigma = np.insert(others, int(rng.integers(0, n)), 1.0)
        a = 10.0 ** float(rng.uniform(-250.0, 250.0))
        level = a * float(rng.uniform(-2.0, 2.0))
        specs.append(MomentSpec(mu=(level,) * n, sigma=tuple((a * sigma).tolist())))
    return specs


class TestEqualMeansBound:
    def test_balanced_branch(self):
        assert equal_means_bound(MomentSpec(mu=(0.0,) * 3, sigma=(1.0,) * 3)) == (
            pytest.approx(math.sqrt(6.0), abs=1e-12)
        )

    def test_dominant_branch(self):
        spec = MomentSpec(mu=(0.0, 0.0, 0.0), sigma=(1.0, 1.0, 3.0))
        assert equal_means_bound(spec) == pytest.approx(3.0 + math.sqrt(2.0), abs=1e-12)

    def test_agrees_with_general_solver(self):
        rng = np.random.default_rng(18)
        for _ in range(15):
            n = int(rng.integers(3, 9))
            sigma = tuple(float(v) for v in rng.uniform(0.2, 2.5, n))
            spec = MomentSpec(mu=(0.7,) * n, sigma=sigma)
            closed = equal_means_bound(spec)
            solved = minimize_phi(spec)
            assert abs(solved.rho - closed) <= 2.0 * math.ulp(closed)

    def test_one_dominant_sigma_does_not_cancel(self):
        """With one sigma dominant, max sigma + sqrt(S - max sigma**2) must
        not form S first: the small squares would round into it."""
        for spec in _dominated_equal_means_specs():
            assert ulps_from(equal_means_bound(spec), equal_means_rho_by_mpmath(spec)) <= 2.0


class TestMinimizePhi:
    def test_meets_gradient_tolerance(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            report = minimize_phi(random_spec(rng))
            assert report.residual <= 1e-10

    def test_rejects_pairs(self):
        with pytest.raises(ValidationError):
            minimize_phi(MomentSpec(mu=(0.0, 1.0), sigma=(1.0, 1.0)))

    def test_rejects_nonpositive_tolerance(self):
        spec = MomentSpec(mu=(0.0, 1.0, 2.0), sigma=(1.0, 1.0, 1.0))
        with pytest.raises(ValidationError):
            minimize_phi(spec, tol=0.0)

    def test_unreachable_tolerance_raises_with_the_best_report(self):
        spec = MomentSpec(mu=(0.0, 1.0, 3.0), sigma=(1.0, 1.0, 1.0))
        with pytest.raises(ConvergenceError) as excinfo:
            minimize_phi(spec, tol=1e-300)
        best = excinfo.value.best
        assert best.residual > 1e-300
        assert best.rho == minimize_phi(spec).rho

    def test_agrees_with_derivative_free_search(self):
        rng = np.random.default_rng(20)
        for _ in range(6):
            spec = random_spec(rng)
            report = minimize_phi(spec)
            value, c, lam = phi_by_nelder_mead(spec)
            assert report.rho == pytest.approx(value, rel=1e-8)
            assert report.optimum.c == pytest.approx(c, abs=2e-5)
            assert report.optimum.lam == pytest.approx(lam, abs=2e-5)

    def test_start_point_does_not_change_answer(self):
        rng = np.random.default_rng(21)
        spec = random_spec(rng)
        base = minimize_phi(spec)
        for _ in range(5):
            start = float(rng.uniform(min(spec.mu), max(spec.mu)))
            restarted = minimize_phi(spec, c_start=start)
            assert restarted.optimum.c == pytest.approx(base.optimum.c, abs=1e-9)
            assert restarted.optimum.lam == pytest.approx(base.optimum.lam, abs=1e-9)


class TestRhoBound:
    def test_dispatches_pairs_to_closed_form(self):
        report = rho_bound(MomentSpec(mu=(0.0, 3.0), sigma=(1.0, 3.0)))
        assert report.method == "n2-closed-form"
        assert report.rho == pytest.approx(5.0, abs=1e-12)

    def test_dispatches_equal_means_to_closed_form(self):
        report = rho_bound(MomentSpec(mu=(2.0, 2.0, 2.0), sigma=(1.0, 1.0, 3.0)))
        assert report.method.startswith("equal-means-closed-form")
        assert report.rho == pytest.approx(3.0 + math.sqrt(2.0), abs=1e-12)

    def test_rho_is_phi_at_the_reported_point(self):
        """Every n >= 3 report is the solver's phi at its own point: on
        general specs and on equal-means ones, at scales 10**-250 to
        10**250."""
        rng = np.random.default_rng(25)
        for k in range(200):
            unit = random_spec(rng)
            mu = unit.mu if k % 2 else (unit.mu[0],) * unit.n
            a = 10.0 ** float(rng.uniform(-250.0, 250.0))
            spec = MomentSpec(mu=tuple(a * m for m in mu), sigma=tuple(a * s for s in unit.sigma))
            report = rho_bound(spec)
            assert report.rho == report.table.phi()

    def test_equal_means_rho_is_the_supremum_to_float_resolution(self):
        """Where one sigma dominates, rho is the supremum to float
        resolution, checked against 50-digit arithmetic."""
        for spec in _dominated_equal_means_specs():
            report = rho_bound(spec)
            assert report.method.startswith("equal-means-closed-form")
            assert ulps_from(report.rho, equal_means_rho_by_mpmath(spec)) <= 2.0

    def test_sits_between_mean_spread_and_dispersion_bound(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            spec = random_spec(rng)
            report = rho_bound(spec)
            assert report.infimum == pytest.approx(max(spec.mu) - min(spec.mu))
            assert report.infimum <= report.rho + 1e-12
            assert report.rho <= report.ag + 1e-12

    def test_tiny_dispersions_approach_mean_spread(self):
        spec = MomentSpec(mu=(0.0, 1.0, 3.0), sigma=(1e-4, 1e-4, 1e-4))
        report = rho_bound(spec)
        assert report.rho == pytest.approx(3.0, abs=1e-3)
        assert report.residual <= 1e-10

    def test_json_dict_lists_documented_keys_in_order(self):
        report = rho_bound(MomentSpec(mu=(0.0, 1.0, 2.0), sigma=(1.0, 1.0, 1.0)))
        assert list(report.to_json_dict()) == [
            "rho",
            "c",
            "lambda",
            "ag",
            "infimum",
            "method",
            "regions",
            "residual",
            "iterations",
        ]


#: Specs whose bound lies beyond the float range, and what computes it.
BEYOND_FLOAT_RANGE = {
    "spread-triple": (MomentSpec(mu=(-1e308, 0.0, 1e308), sigma=(1.0, 1.0, 1.0)), rho_bound),
    "spread-pair": (MomentSpec(mu=(-1e308, 1e308), sigma=(1.0, 1.0)), rho_bound),
    "equal-means": (MomentSpec(mu=(0.0,) * 3, sigma=(1.7e308, 1e308, 1e308)), rho_bound),
    # rho is 1.6e308, but the report's ag = sqrt(2 S) is 6.6e308.
    "ag-beyond-rho": (
        MomentSpec(
            mu=tuple(np.outer(np.linspace(1e306, 8e307, 50), (-1.0, 1.0)).ravel().tolist()),
            sigma=(1.0,) * 100,
        ),
        rho_bound,
    ),
    "bnt-range": (MomentSpec(mu=(-1e308, 0.0, 1e308), sigma=(1.0, 1.0, 1.0)), bnt_range),
    "ag-general": (
        MomentSpec(mu=(-1e308, 0.0, 1e308), sigma=(1.0, 1.0, 1.0)),
        lambda spec: ag_general_bound(spec, (-1.0, 0.0, 1.0)),
    ),
    "gamma2": (
        MomentSpec(mu=(-1e308, 1e308), sigma=(1.0, 1.0)),
        lambda spec: gamma2_bound(*spec.mu, *spec.sigma, 0.0),
    ),
    "pair-sampler": (
        MomentSpec(mu=(-1e308, 1e308), sigma=(1.0, 1.0)),
        lambda spec: extremal_pair_given_correlation(*spec.mu, *spec.sigma, 0.0),
    ),
    "pair-cov": (
        MomentSpec(mu=(0.0, 0.0), sigma=(1e155, 1e155)),
        lambda spec: pair_cov_bounds(*spec.mu, *spec.sigma, 0.5),
    ),
}


@pytest.mark.parametrize("name", sorted(BEYOND_FLOAT_RANGE))
def test_a_bound_beyond_the_float_range_is_an_input_error(name):
    spec, bound = BEYOND_FLOAT_RANGE[name]
    with pytest.raises(ValidationError, match="exceeds the float range"):
        bound(spec)


class TestScale:
    @pytest.mark.parametrize("a", [1.0, 1e-13, 1e-150, 1e-300])
    def test_spread_means_solve_at_every_scale(self, a):
        """Means spread by a are distinct at any scale, so the general solver
        runs and finds sqrt(10) a."""
        report = rho_bound(MomentSpec(mu=(0.0, a, 2.0 * a), sigma=(a, a, a)))
        assert report.method == "general-solver"
        assert report.rho / a == pytest.approx(math.sqrt(10.0), rel=1e-12)

    @pytest.mark.parametrize("a", [1e160, 1e300])
    def test_closed_form_bounds_do_not_overflow(self, a):
        """Squared deviations overflow past about 1.3e154 unless scaled
        first; the dispersion-tight triple stays tight at every scale."""
        unit = MomentSpec(mu=(0.0, 1.0, 2.0), sigma=(1.0, 1.0, 1.0))
        spec = MomentSpec(mu=(0.0, a, 2.0 * a), sigma=(a, a, a))
        report = rho_bound(spec)
        assert report.rho / a == pytest.approx(math.sqrt(10.0), rel=1e-12)
        assert report.ag / a == pytest.approx(ag_bound(unit), rel=1e-12)
        coeffs = (-1.0, 0.0, 1.0)
        assert ag_general_bound(spec, coeffs) / a == pytest.approx(
            ag_general_bound(unit, coeffs), rel=1e-12
        )
        assert ag_tightness(spec)[:2] == ag_tightness(unit)[:2] == (True, False)

    @pytest.mark.parametrize("a", [1.0, 1e-13, 1e-150, 1e-300, 1e300])
    def test_equal_means_take_the_closed_form_at_every_scale(self, a):
        report = rho_bound(MomentSpec(mu=(a, a, a), sigma=(a, a, a)))
        assert report.method.startswith("equal-means-closed-form")
        assert report.rho / a == pytest.approx(math.sqrt(6.0), rel=1e-12)

    def test_ten_thousand_coordinates_in_either_order(self):
        rng = np.random.default_rng(23)
        n = 10_000
        mu = tuple(float(v) for v in rng.uniform(-3.0, 3.0, n))
        sigma = tuple(float(v) for v in rng.uniform(0.2, 2.5, n))
        spec = MomentSpec(mu=mu, sigma=sigma)
        report = rho_bound(spec)
        assert report.residual <= 1e-10
        oracle = float(phi_array(spec, report.optimum.c, report.optimum.lam))
        assert oracle == pytest.approx(report.rho, rel=1e-12)
        reversed_spec = MomentSpec(mu=mu[::-1], sigma=sigma[::-1])
        assert rho_bound(reversed_spec).rho == pytest.approx(report.rho, rel=1e-12)


class TestClosedFormsAgainstLoops:
    """The vectorized closed-form bounds equal their scalar loops bit for bit."""

    def specs(self):
        rng = np.random.default_rng(72)
        for k in range(300):
            a = 10.0 ** rng.uniform(-300.0, 300.0)
            b = a * rng.uniform(-5.0, 5.0)
            n = int(rng.integers(2, 40))
            if k % 3 == 0:
                yield star_spec(k, n, a, b)
                continue
            sigma = rng.uniform(0.2, 2.5, n)
            mu = rng.uniform(-3.0, 3.0, n) if k % 3 == 1 else np.full(n, rng.uniform(-3.0, 3.0))
            yield MomentSpec(mu=tuple((a * mu + b).tolist()), sigma=tuple((a * sigma).tolist()))

    def test_bounds_and_witnesses(self):
        rng = np.random.default_rng(73)
        tight = 0
        for spec in self.specs():
            assert ag_bound(spec) == ag_bound_by_loop(spec)
            coeffs = rng.normal(size=spec.n).tolist()
            assert ag_general_bound(spec, coeffs) == ag_general_bound_by_loop(spec, coeffs)
            got, want = ag_tightness(spec), ag_tightness_by_loop(spec)
            assert got[:2] == want[:2]
            if want[2] is not None:
                tight += 1
                for name in ("x_zero", "x_plus", "x_minus"):
                    assert getattr(got[2], name).tobytes() == getattr(want[2], name).tobytes()
                assert got[2].coupling.q.tobytes() == want[2].coupling.q.tobytes()
        assert tight >= 150

    def test_squares_round_as_the_scalar_power(self):
        # A 1-ulp difference in one square reaches the bound mostly when n
        # is small; np.square rounds differently from ** on about 0.09% of
        # values, and changes the bound on 9 of these specs.
        rng = np.random.default_rng(75)
        for _ in range(20000):
            n = int(rng.integers(2, 4))
            spec = MomentSpec(
                mu=tuple(rng.uniform(-3.0, 3.0, n).tolist()),
                sigma=tuple(rng.uniform(0.01, 0.5, n).tolist()),
            )
            assert ag_bound(spec) == ag_bound_by_loop(spec)


class TestNewtonBisect:
    def test_stops_when_a_newton_step_leaves_f_unchanged(self):
        # f sits on its rounding floor within 1e-13 of the root: a start
        # there must not bisect the whole bracket back down to the root.
        root = 1.0 / 3.0

        def fdf(x):
            return math.copysign(1e-15, x - root), 1.0

        x, evaluations = solver._newton_bisect(fdf, 0.0, 1.0, root - 1e-13)
        assert abs(x - root) <= 1e-13
        assert evaluations <= 3


class TestEvaluationCount:
    """Mass tables per ``rho_bound``: a cost that reads the same on any machine."""

    @pytest.mark.parametrize("a", [1e-250, 1.0, 1e250])
    @pytest.mark.parametrize("n", [3, 16, 50, 1000])
    def test_median_tables_per_solve(self, monkeypatch, n, a):
        calls = 0

        def counting(*args):
            nonlocal calls
            calls += 1
            return mass_table(*args)

        monkeypatch.setattr(solver, "mass_table", counting)
        rng = np.random.default_rng([n, 74])
        general, equal = [], []
        for _ in range(25):
            sigma = a * rng.uniform(0.2, 1.5, n)
            for mu, counts in (
                (rng.uniform(-1.0, 1.0, n), general),
                (np.full(n, rng.uniform(-1.0, 1.0)), equal),
            ):
                calls = 0
                rho_bound(MomentSpec(mu=tuple((a * mu).tolist()), sigma=tuple(sigma.tolist())))
                counts.append(calls)
        assert statistics.median(general) <= 12
        assert statistics.median(equal) <= 3


def record_solve(monkeypatch):
    """Record every mass table the solver forms and, for each inner root,
    the index of its first table and the table it ends on."""
    tables, roots = [], []
    inner = solver._inner_table

    def table(*args):
        tables.append(mass_table(*args))
        return tables[-1]

    def root(*args):
        first = len(tables)
        roots.append((first, inner(*args)))
        return roots[-1][1]

    monkeypatch.setattr(solver, "mass_table", table)
    monkeypatch.setattr(solver, "_inner_table", root)
    return tables, roots


def read_tables(tables, roots):
    """The indices of the tables whose gradient and Hessian the search read:
    every table but those that an inner root formed before its last."""
    inner = {j for first, t in roots for j in range(first, tables.index(t))}
    return [j for j in range(len(tables)) if j not in inner]


class TestColumnsFormed:
    """Which mass-table columns a solve forms: a cost that reads the same on
    any machine.  The tables of an inner root, at the start and after each
    restore, read p^0 and d p^0/d lambda alone; its last table and every
    table of a joint step add p and the two c-derivative columns; only the
    reported table forms z, the margin and the regions."""

    COLUMNS = ("region", "z", "p", "p_zero", "margin", "dp0_dlam", "dgap_dc", "dp0_dc")
    INNER = {"p_zero", "dp0_dlam"}
    FULL = INNER | {"p", "dgap_dc", "dp0_dc"}
    REPORTED = {"z", "margin", "region"}

    def formed(self, monkeypatch, spec, c_start=None):
        """The report, the columns each table formed, the index of the
        reported table, and the indices of the tables read."""
        tables, roots = record_solve(monkeypatch)
        report = minimize_phi(spec, c_start=c_start)
        formed = [{name for name in self.COLUMNS if name in vars(t)} for t in tables]
        [reported] = [k for k, t in enumerate(tables) if t.x is report.table.x]
        return report, formed, reported, read_tables(tables, roots)

    @pytest.mark.parametrize("n", [3, 16, 1000])
    def test_general_solve(self, monkeypatch, n):
        rng = np.random.default_rng([n, 88])
        for _ in range(5):
            spec = random_spec(rng, n)
            c_start = float(rng.uniform(min(spec.mu), max(spec.mu)))
            report, formed, k, read = self.formed(monkeypatch, spec, c_start)
            assert formed[k] == self.FULL | self.REPORTED
            assert all(not f & self.REPORTED for j, f in enumerate(formed) if j != k)
            for j, f in enumerate(formed):
                assert f - self.REPORTED == (self.FULL if j in read else self.INNER)
            assert len(read) == report.iterations

    def test_equal_means_solve(self, monkeypatch):
        spec = MomentSpec(mu=(0.5,) * 6, sigma=(0.3, 0.4, 0.5, 0.6, 0.7, 0.8))
        report, formed, _, _ = self.formed(monkeypatch, spec)
        assert report.iterations == 0
        assert formed[-1] == self.INNER | self.REPORTED | {"p"}
        assert all(f == self.INNER for f in formed[:-1])


class TestJointNewtonFallback:
    """A refused joint step restores onto the valley: the inner root at the
    current c, or at the midpoint of the bracket that the valley tables
    certify, from which the joint steps go on inside that bracket."""

    # (mu, sigma, c_start, whether a step lands where every coordinate is in
    # I1, tables formed: below the 32, 30, 36, 37 and 34 that a restart by
    # nested roots from the start costs after the refusal)
    CASES = [
        # From the sweep-small pool of the benchmark's seed 4242: the second
        # joint step would take lambda below zero.
        (
            (3895.0102427601987, 3891.7276818736636, 3872.0824454480103),
            (7.182204487189472, 5.70633634923562, 7.953478287512134),
            None,
            False,
            18,
        ),
        # A step that would take lambda to 0.3 of itself.
        (
            (0.4743274465755256, -1.2018367626569928, -2.5347205658939833),
            (1.9553161882234067, 0.5014816730700375, 0.50637527740426),
            None,
            False,
            16,
        ),
        # The first step would take c below the smallest mean, and lambda up.
        (
            (
                2.466322991532392, 0.7475764798549092, -0.9253290711443949, -1.7767090737879665,
                1.5000718366550965, -1.7444548377739362, -2.2730479158852877,
            ),
            (
                0.696503837968418, 0.3621086405321079, 2.483807272231222, 1.0695162688422324,
                1.7821626408950286, 0.2954781048805213, 0.8653130597605836,
            ),
            -1.2174119289223306,
            False,
            24,
        ),
        # The steps swing from side to side of the minimizer until one lands
        # where every coordinate is in I1: there d p^0/d lambda = 0, and the
        # Hessian is singular.
        (
            (-1.9022939715683984, -1.059985636761699, 2.1099430418761544),
            (0.20748803265603546, 2.0077507810152366, 1.7350920528947733),
            None,
            True,
            26,
        ),
        # The paper's single-outlier spec.
        ((0.0, 0.0, 0.0, 3.0), (1.0, 1.0, 1.0, 1.0), None, False, 21),
    ]

    @pytest.mark.parametrize(
        "mu, sigma, c_start, singular, formed",
        CASES,
        ids=["lambda-below-zero", "lambda-falls", "c-leaves-bracket", "singular-hessian",
             "single-outlier"],
    )
    def test_refused_step_restores(self, monkeypatch, mu, sigma, c_start, singular, formed):
        spec = MomentSpec(mu=mu, sigma=sigma)
        dev, _, _ = solver.scaled_deviations(spec)
        tables, roots = record_solve(monkeypatch)
        report = minimize_phi(spec, c_start=c_start)
        assert report.residual <= 1e-10
        assert len(tables) == formed
        valleys = [t for _, t in roots]
        assert len(valleys) >= 2
        assert len({t.c for t in valleys}) == len(valleys)
        read = [tables[j] for j in read_tables(tables, roots)]
        assert len(read) == report.iterations
        is_valley = [t in valleys for t in read]
        restore = is_valley.index(True, 1)
        # Before the first restore the steps keep to the range of the means.
        assert all(dev.min() <= t.c <= dev.max() for t in read[:restore])
        assert any(t.two.all() for t in read[:restore]) == singular
        # Every step keeps lambda above half its value and, from the first
        # restore on, c inside the bracket that the valley tables certify.
        lo, hi = float(dev.min()), float(dev.max())
        for j, (a, b) in enumerate(zip(read, read[1:]), 1):
            if is_valley[j - 1]:
                slope = a.gradient()[0]
                lo, hi = (a.c if slope <= 0.0 else lo), (a.c if slope >= 0.0 else hi)
            if not is_valley[j]:
                assert b.lam >= 0.5 * a.lam
                assert j < restore or lo <= b.c <= hi

    @staticmethod
    def restores(spec, tables, roots):
        """Per restore: where its inner root sits ("current" c or bracket
        "midpoint"), how many tables were read since the valley table
        before it, and whether the refused table lowered the least
        gradient norm."""
        valleys = [t for _, t in roots]
        dev, _, _ = solver.scaled_deviations(spec)
        lo, hi = float(dev.min()), float(dev.max())
        best, since, lowered, out = math.inf, 0, False, []
        for j in read_tables(tables, roots):
            t = tables[j]
            if t in valleys:
                if since:
                    midpoint = 0.5 * (lo + hi)
                    where = "current" if t.c == prev.c else "midpoint" if t.c == midpoint else None
                    out.append((where, since, lowered))
                slope = t.gradient()[0]
                lo, hi = (t.c if slope <= 0.0 else lo), (t.c if slope >= 0.0 else hi)
                since = 0
            norm = math.hypot(*t.gradient())
            prev, since, lowered, best = t, since + 1, norm < best, min(best, norm)
        return out

    @pytest.mark.parametrize(
        "mu, sigma, c_start, seen",
        [
            (*CASES[2][:3], lambda out: out[0][0] == "current"),
            (*CASES[0][:3], lambda out: out[0][0] == "midpoint"),
            # After the first restore, a step whose table does not lower the
            # least gradient norm is refused.
            (
                (-0.6654529176563813, -0.1134154153212934, 0.21366309164168928, 0.8926756338564423),
                (0.34948388800678065, 0.3031155823897607, 0.4492272304439603, 0.4867521698429869),
                -0.4118392818461028,
                lambda out: any(since > 1 and not lowered for _, since, lowered in out[1:]),
            ),
            # Twenty tables pass without a stop.
            (
                (0.5384573099012919, -0.06153495720991109, 0.7329120982286133),
                (0.5703298311679712, 0.9293900920869977, 0.9361133922825131),
                0.02576766122901164,
                lambda out: out[0][1] == solver._MAX_JOINT_STEPS,
            ),
        ],
        ids=["at-current-c", "at-midpoint", "norm-not-lowered", "step-cap"],
    )
    def test_each_restore_branch_is_reached(self, monkeypatch, mu, sigma, c_start, seen):
        spec = MomentSpec(mu=mu, sigma=sigma)
        tables, roots = record_solve(monkeypatch)
        assert minimize_phi(spec, c_start=c_start).residual <= 1e-10
        out = self.restores(spec, tables, roots)
        assert None not in (where for where, _, _ in out)
        assert seen(out)

    @pytest.mark.parametrize(
        "sigma, hll",
        [((1e-10, 1e-20, 1e-40), True), ((1e-200, 1e-200, 1e-200), False)],
        ids=["lambda-curvature-positive", "lambda-curvature-underflows"],
    )
    def test_exact_zero_slope_resolves_the_bracket(self, monkeypatch, sigma, hll):
        """With sigma far below the spread, the inner root at the midpoint
        of mu = (0, 1, 3) has d phi/dc exactly 0: the bracket is resolved,
        the step from it is refused, and the solve ends on that table.
        Below about 1e-160 of the spread d p^0/d lambda underflows to 0."""
        tables, roots = record_solve(monkeypatch)
        report = minimize_phi(MomentSpec(mu=(0.0, 1.0, 3.0), sigma=sigma))
        [(_, valley)] = roots
        assert valley.gradient()[0] == 0.0
        assert (float(valley.dp0_dlam.sum()) > 0.0) == hll
        assert report.table.x is valley.x and report.iterations == 1
        assert report.rho == 3.0 and report.residual <= 1e-10

    def test_agrees_with_the_nested_solve_to_rounding(self):
        rng = np.random.default_rng(89)
        for _ in range(40):
            spec = random_spec(rng, int(rng.integers(3, 40)))
            rho = minimize_phi(spec).rho
            assert abs(rho - rho_by_nested_roots(spec)) <= 4 * math.ulp(rho)

    @pytest.mark.parametrize("n, bound", [(3, 10.5), (4, 10.5), (5, 10.7), (8, 13.0)])
    def test_random_starts_agree_with_the_nested_solve(self, monkeypatch, n, bound):
        """From a random start, where refused steps are common, every solve
        lands on the nested roots' rho to rounding, and the mean count of
        tables stays below what restarting from scratch after a refusal
        took (11.2, 11.1, 11.1 and 14.1 on these specs)."""
        rng = np.random.default_rng([n, 92])
        counts = []
        for _ in range(60):
            mu, sigma = rng.uniform(-1.0, 1.0, n), rng.uniform(0.2, 1.5, n)
            c_start = float(rng.uniform(mu.min(), mu.max()))
            spec = MomentSpec(mu=tuple(mu.tolist()), sigma=tuple(sigma.tolist()))
            tables, roots = record_solve(monkeypatch)
            rho = minimize_phi(spec, c_start=c_start).rho
            monkeypatch.undo()
            counts.append(len(tables))
            assert len({t.c for _, t in roots}) == len(roots)
            assert abs(rho - rho_by_nested_roots(spec)) <= 4 * math.ulp(rho)
        assert statistics.mean(counts) < bound
