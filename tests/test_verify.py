import math

import numpy as np
import pytest

from _oracles import random_spec
from rangebounds import (
    JointDiscreteDistribution,
    MomentSpec,
    ValidationError,
    build_extremal_joint,
    check_moments,
    dual_grid_check,
    expected_range,
    extremal_pair_given_correlation,
    feasible_probe,
    infimum_witness,
    mc_expected_range,
    rho_bound,
)
from rangebounds.verify import _probe_joints


class TestCheckMoments:
    def test_passes_on_exact_construction(self):
        spec = MomentSpec(mu=(0.0, 1.0, 2.0), sigma=(1.0, 0.5, 1.5))
        report = check_moments(build_extremal_joint(spec), spec, tol=1e-10)
        assert report.passed
        assert max(report.mean_errors) <= 1e-10
        assert max(report.var_errors) <= 1e-10

    def test_fails_on_wrong_moments(self):
        joint = JointDiscreteDistribution(
            support=((0.0, 0.0), (1.0, 2.0)), prob=(0.5, 0.5)
        )
        spec = MomentSpec(mu=(0.5, 1.0), sigma=(0.5, 0.5))
        report = check_moments(joint, spec, tol=1e-10)
        assert not report.passed
        assert report.var_errors[1] == pytest.approx(0.75)

    def test_rejects_dimension_mismatch(self):
        joint = JointDiscreteDistribution(
            support=((0.0, 0.0), (1.0, 2.0)), prob=(0.5, 0.5)
        )
        spec = MomentSpec(mu=(0.0, 0.0, 0.0), sigma=(1.0, 1.0, 1.0))
        with pytest.raises(ValidationError):
            check_moments(joint, spec)

    def test_json_dict_uses_pass_key(self):
        spec = MomentSpec(mu=(0.0, 1.0), sigma=(1.0, 1.0))
        report = check_moments(build_extremal_joint(spec), spec)
        data = report.to_json_dict()
        assert set(data) == {"mean_errors", "var_errors", "expected_range", "pass"}


class TestExpectedRange:
    def test_exact_value(self):
        joint = JointDiscreteDistribution(
            support=((0.0, 2.0), (1.0, -1.0)), prob=(0.25, 0.75)
        )
        assert expected_range(joint) == pytest.approx(0.25 * 2.0 + 0.75 * 2.0)


class TestMcExpectedRange:
    def test_deterministic_for_fixed_seed(self):
        spec = MomentSpec(mu=(0.0, 1.0, 2.0), sigma=(1.0, 0.5, 1.5))
        joint = build_extremal_joint(spec)
        a = mc_expected_range(joint, 50_000, seed=3)
        b = mc_expected_range(joint, 50_000, seed=3)
        assert a == b

    def test_estimate_consistent_with_exact_value(self):
        rng = np.random.default_rng(50)
        for _ in range(5):
            spec = random_spec(rng)
            joint = build_extremal_joint(spec)
            exact = expected_range(joint)
            estimate, se = mc_expected_range(joint, 200_000, seed=17)
            assert abs(estimate - exact) <= 4.0 * se + 1e-12

    def test_sampler_source(self):
        sampler = extremal_pair_given_correlation(0.0, 1.0, 1.0, 0.5, -0.2)
        estimate, se = mc_expected_range(sampler, 100_000, seed=2)
        assert estimate == pytest.approx(sampler.gamma2, abs=1e-9)

    def test_single_sample_has_zero_error_bar(self):
        joint = JointDiscreteDistribution(
            support=((0.0, 1.0), (1.0, 0.0)), prob=(0.5, 0.5)
        )
        estimate, se = mc_expected_range(joint, 1, seed=0)
        assert se == 0.0

    def test_rejects_bad_source_and_counts(self):
        with pytest.raises(ValidationError):
            mc_expected_range(object(), 100)
        joint = JointDiscreteDistribution(
            support=((0.0, 1.0), (1.0, 0.0)), prob=(0.5, 0.5)
        )
        with pytest.raises(ValidationError):
            mc_expected_range(joint, 0)


class TestFeasibleProbe:
    def test_never_exceeds_tight_bound(self):
        rng = np.random.default_rng(51)
        for _ in range(8):
            spec = random_spec(rng)
            assert feasible_probe(spec, trials=15, seed=5) <= rho_bound(spec).rho + 1e-9

    def test_probe_joints_feasible_and_above_mean_spread(self):
        """Every generated joint carries the exact moments, so by convexity
        its expected range is at least max mu - min mu."""
        rng = np.random.default_rng(52)
        spec = random_spec(rng, n=4)
        floor = max(spec.mu) - min(spec.mu)
        for joint in _probe_joints(spec, trials=25, seed=9):
            assert check_moments(joint, spec, tol=1e-8).passed
            assert expected_range(joint) >= floor - 1e-9

    def test_deterministic(self):
        spec = MomentSpec(mu=(0.0, 1.0, 2.0), sigma=(1.0, 0.5, 1.5))
        assert feasible_probe(spec, 10, seed=4) == feasible_probe(spec, 10, seed=4)

    def test_rejects_nonpositive_trials(self):
        spec = MomentSpec(mu=(0.0, 1.0), sigma=(1.0, 1.0))
        with pytest.raises(ValidationError):
            feasible_probe(spec, 0)

    def test_degenerate_draws_are_redrawn_then_refused(self, monkeypatch):
        """A draw with a coordinate of no variance is drawn again, and a
        generator that draws nothing else is refused after its budget."""
        real = np.random.default_rng

        class Flat:
            """A generator whose normal draws are all 0."""

            def __init__(self, seed):
                self.rng = real(seed)
                self.integers, self.random = self.rng.integers, self.rng.random

            def normal(self, loc, scale, size):
                return np.zeros(size)

        monkeypatch.setattr(np.random, "default_rng", Flat)
        spec = MomentSpec(mu=(0.0, 1.0), sigma=(1.0, 1.0))
        with pytest.raises(ValidationError, match="degenerate"):
            feasible_probe(spec, 1)


class TestDualGridCheck:
    def test_grid_minimum_stays_above_reported_bound(self):
        rng = np.random.default_rng(53)
        for _ in range(6):
            spec = random_spec(rng)
            assert dual_grid_check(spec, grid=80) >= rho_bound(spec).rho - 1e-9

    def test_rejects_degenerate_grid(self):
        spec = MomentSpec(mu=(0.0, 1.0), sigma=(1.0, 1.0))
        with pytest.raises(ValidationError):
            dual_grid_check(spec, grid=1)


class TestInfimumWitness:
    def test_rejects_epsilon_outside_open_interval(self):
        spec = MomentSpec(mu=(0.0, 1.0, 3.0), sigma=(1.0, 1.0, 1.0))
        for eps in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValidationError):
                infimum_witness(spec, eps, n_samples=10)

    def test_rejects_zero_samples(self):
        spec = MomentSpec(mu=(0.0, 1.0, 3.0), sigma=(1.0, 1.0, 1.0))
        with pytest.raises(ValidationError, match="n_samples"):
            infimum_witness(spec, 0.5, n_samples=0)

    def test_no_inflated_draw_gives_the_mean_spread(self):
        spec = MomentSpec(mu=(0.0, 1.0, 3.0), sigma=(1.0, 1.0, 1.0))
        assert infimum_witness(spec, 1e-12, n_samples=10) == 3.0

    def test_approaches_mean_spread(self):
        spec = MomentSpec(mu=(0.0, 1.0, 3.0), sigma=(1.0, 1.0, 1.0))
        estimate = infimum_witness(spec, 1e-4, n_samples=400_000, seed=1)
        assert estimate == pytest.approx(3.0, abs=0.1)

    def test_equal_means_estimate_near_zero(self):
        spec = MomentSpec(mu=(1.0, 1.0, 1.0), sigma=(1.0, 1.0, 1.0))
        estimate = infimum_witness(spec, 1e-4, n_samples=400_000, seed=2)
        assert estimate == pytest.approx(0.0, abs=0.05)

    def test_deterministic(self):
        spec = MomentSpec(mu=(0.0, 2.0), sigma=(1.0, 1.0))
        a = infimum_witness(spec, 1e-3, n_samples=50_000, seed=7)
        b = infimum_witness(spec, 1e-3, n_samples=50_000, seed=7)
        assert a == b

    def test_accepts_full_dispersion_matrix(self):
        spec = MomentSpec(mu=(0.0, 1.0, 3.0), sigma=(1.0, 1.0, 1.0))
        disp = np.full((3, 3), 0.5)
        np.fill_diagonal(disp, 1.0)
        estimate = infimum_witness(spec, 1e-3, n_samples=100_000, seed=3, dispersion=disp)
        assert estimate == pytest.approx(3.0, abs=0.2)

    def test_rejects_malformed_dispersion(self):
        spec = MomentSpec(mu=(0.0, 1.0), sigma=(1.0, 2.0))
        with pytest.raises(ValidationError, match="symmetric"):
            infimum_witness(
                spec, 1e-3, n_samples=10, dispersion=np.array([[1.0, 0.4], [0.2, 4.0]])
            )
        with pytest.raises(ValidationError, match="diagonal"):
            infimum_witness(
                spec, 1e-3, n_samples=10, dispersion=np.array([[1.0, 0.0], [0.0, 1.0]])
            )
        with pytest.raises(ValidationError, match="definite"):
            infimum_witness(
                spec, 1e-3, n_samples=10, dispersion=np.array([[1.0, 3.0], [3.0, 4.0]])
            )
        with pytest.raises(ValidationError, match="2 x 2"):
            infimum_witness(spec, 1e-3, n_samples=10, dispersion=np.eye(3))

    def test_zero_dispersion_is_rejected_at_small_sigma(self):
        small = MomentSpec(mu=(0.0, 1e-6), sigma=(1e-6, 2e-6))
        with pytest.raises(ValidationError, match="diagonal"):
            infimum_witness(small, 1e-3, n_samples=10, dispersion=np.zeros((2, 2)))

    def test_rounded_dispersion_is_accepted_at_large_sigma(self):
        # The Cholesky round trip of a valid covariance at sigma ~ 1e6: its
        # diagonal is off by rounding far above 1e-10, but not above 1e-10
        # of sigma**2.
        rng = np.random.default_rng(31)
        sigma = 1e6 * rng.uniform(0.5, 2.0, 6)
        corr = np.corrcoef(rng.normal(size=(6, 40)))
        factor = np.linalg.cholesky(corr * np.outer(sigma, sigma))
        disp = factor @ factor.T
        assert np.max(np.abs(np.diag(disp) - sigma**2)) > 1e-10
        large = MomentSpec(mu=tuple(np.arange(6.0) * 1e6), sigma=tuple(sigma.tolist()))
        estimate = infimum_witness(large, 1e-3, n_samples=1000, dispersion=disp)
        assert math.isfinite(estimate)
