import decimal
import math
import statistics

import numpy as np
import pytest

from _oracles import (
    ag_bound_by_loop,
    ag_general_bound_by_loop,
    ag_tightness_by_loop,
    phi_by_nelder_mead,
    random_spec,
    star_spec,
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
    equal_means_bound,
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


class TestPlackettBound:
    def test_spot_values(self):
        assert plackett_iid_bound(2, 1.0) == pytest.approx(2.0 / math.sqrt(3.0))
        assert plackett_iid_bound(3, 1.0) == pytest.approx(math.sqrt(3.0))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            plackett_iid_bound(1, 1.0)
        with pytest.raises(ValidationError):
            plackett_iid_bound(3, 0.0)

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
            bnt_range = bnt_max_bound(spec)[0] + bnt_max_bound(flipped)[0]
            assert rho_bound(spec).rho <= bnt_range + 1e-9


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
            assert solved.rho == pytest.approx(closed, rel=1e-8)


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
        assert statistics.median(general) <= 20
        assert statistics.median(equal) <= 3
