import math

import numpy as np
import pytest

from _oracles import random_spec
from rangebounds import (
    JointDiscreteDistribution,
    MomentSpec,
    ProbabilityMatrix,
    ThreePointDist,
    ValidationError,
    ag_bound,
    ag_tightness,
    bnt_extremal_max,
    bnt_max_bound,
    build_extremal_joint,
    check_moments,
    expected_range,
    extremal_components,
    extremal_marginals,
    extremal_pair_given_correlation,
    perturb_coupling,
    rho_bound,
    univariate_extremal,
    zero_trace_coupling,
)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ProbabilityMatrix(q=np.ones((1, 1))), "at least 2 x 2"),
        (lambda: ProbabilityMatrix.from_json_dict({"p": [[0.0, 1.0], [0.0, 0.0]]}), "key 'q'"),
        (lambda: zero_trace_coupling([1.0], [1.0]), "at least two indices"),
        (lambda: perturb_coupling(np.array([[0.0, 1.0], [0.0, 0.0]])), "ProbabilityMatrix"),
        (lambda: extremal_pair_given_correlation(0.0, 1.0, 1.0, 1.0, 0.5).sample(0), "at least 1"),
        (lambda: ThreePointDist(1.0, 0.0, 2.0, 0.5, 0.0, 0.5, "I1", 0.0, 0.5), "support"),
        (
            lambda: JointDiscreteDistribution(support=((0.0,), (1.0,)), prob=(1.5, -0.5)),
            "nonnegative",
        ),
    ],
    ids=[
        "1x1-matrix",
        "matrix-json-without-q",
        "one-index-coupling",
        "perturb-non-matrix",
        "zero-samples",
        "unordered-points",
        "negative-mass",
    ],
)
def test_rejects_invalid_input(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


def joint_mean_and_var(joint, i):
    mean = math.fsum(p * vec[i] for vec, p in zip(joint.support, joint.prob))
    var = math.fsum(p * (vec[i] - mean) ** 2 for vec, p in zip(joint.support, joint.prob))
    return mean, var


class TestUnivariateExtremal:
    @pytest.mark.parametrize(
        "mu,sigma,c,lam,region",
        [
            (3.0, 1.0, 0.0, 0.5, "I1"),
            (0.2, 1.0, 0.0, 1.0, "I2"),
            (1.0, 0.5, 0.0, 1.0, "I3"),
            (-1.0, 0.5, 0.0, 1.0, "I4"),
        ],
    )
    def test_region_dispatch(self, mu, sigma, c, lam, region):
        assert univariate_extremal(mu, sigma, c, lam).region == region

    def test_two_sided_region_has_no_middle_mass(self):
        dist = univariate_extremal(3.0, 1.0, 0.0, 0.5)
        assert dist.p_zero == 0.0
        assert len(dist.support()) == 2

    def test_one_sided_regions_zero_one_tail_exactly(self):
        right = univariate_extremal(1.0, 0.5, 0.0, 1.0)
        assert right.p_minus == 0.0
        left = univariate_extremal(-1.0, 0.5, 0.0, 1.0)
        assert left.p_plus == 0.0

    def test_moments_always_exact(self):
        rng = np.random.default_rng(30)
        for _ in range(300):
            mu = float(rng.uniform(-4.0, 4.0))
            sigma = float(rng.uniform(0.1, 3.0))
            c = float(rng.uniform(-4.0, 4.0))
            lam = float(rng.uniform(0.05, 3.0))
            dist = univariate_extremal(mu, sigma, c, lam)
            assert dist.mean() == pytest.approx(mu, abs=1e-10)
            assert dist.variance() == pytest.approx(sigma * sigma, abs=1e-10)

    def test_support_points_ordered(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            dist = univariate_extremal(
                float(rng.uniform(-2, 2)),
                float(rng.uniform(0.2, 2.0)),
                float(rng.uniform(-1, 1)),
                float(rng.uniform(0.2, 2.0)),
            )
            assert dist.x_minus < dist.x_zero < dist.x_plus

    def test_rejects_bad_scale_parameters(self):
        with pytest.raises(ValidationError):
            univariate_extremal(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValidationError):
            univariate_extremal(0.0, 1.0, 0.0, 0.0)


class TestThreePointDist:
    def test_rejects_mass_not_summing_to_one(self):
        with pytest.raises(ValidationError):
            ThreePointDist(
                x_minus=-1.0,
                x_zero=0.0,
                x_plus=1.0,
                p_minus=0.5,
                p_zero=0.5,
                p_plus=0.5,
                region="I2",
                c=0.0,
                lam=0.5,
            )

    def test_rejects_negative_mass(self):
        with pytest.raises(ValidationError):
            ThreePointDist(
                x_minus=-1.0,
                x_zero=0.0,
                x_plus=1.0,
                p_minus=-0.25,
                p_zero=0.75,
                p_plus=0.5,
                region="I2",
                c=0.0,
                lam=0.5,
            )


class TestExtremalMarginals:
    def test_mass_identities_at_optimum(self):
        """Tail masses sum to one on each side and middles to n - 2."""
        rng = np.random.default_rng(32)
        for _ in range(40):
            spec = random_spec(rng)
            report = rho_bound(spec)
            _, p_plus, p_minus = extremal_marginals(spec, report.optimum)
            assert math.fsum(p_plus) == pytest.approx(1.0, abs=1e-9)
            assert math.fsum(p_minus) == pytest.approx(1.0, abs=1e-9)
            middles = [1.0 - pp - pm for pp, pm in zip(p_plus, p_minus)]
            assert math.fsum(middles) == pytest.approx(spec.n - 2, abs=1e-9)

    def test_rejects_points_far_from_optimal(self):
        from rangebounds import DualPoint

        spec = MomentSpec(mu=(-2.0, 0.0, 2.0), sigma=(1.0, 3.0, 1.0))
        with pytest.raises(ValidationError, match="mass"):
            extremal_marginals(spec, DualPoint(c=50.0, lam=0.01))


class TestBuildExtremalJoint:
    def test_attains_bound_with_exact_moments(self):
        rng = np.random.default_rng(33)
        for _ in range(40):
            spec = random_spec(rng)
            parts = extremal_components(spec)
            er = expected_range(parts.joint)
            assert er == pytest.approx(parts.report.rho, abs=1e-9)
            assert check_moments(parts.joint, spec, tol=1e-10).passed

    def test_support_vectors_distinct_and_mass_normalized(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            joint = build_extremal_joint(random_spec(rng))
            assert len(set(joint.support)) == len(joint.support)
            assert math.fsum(joint.prob) == pytest.approx(1.0, abs=1e-12)

    def test_pair_case_yields_two_atoms(self):
        spec = MomentSpec(mu=(0.0, 3.0), sigma=(1.0, 3.0))
        joint = build_extremal_joint(spec)
        assert len(joint.support) == 2
        assert expected_range(joint) == pytest.approx(5.0, abs=1e-12)
        assert check_moments(joint, spec, tol=1e-10).passed


class TestAgTightness:
    def test_tight_triple_certified_unique(self):
        # All balance inequalities are strict here, so the coupling is not
        # forced; the certificate still finds it to be the only one.
        spec = MomentSpec(
            mu=(-1.0, 0.0, 1.0), sigma=(1.0, math.sqrt(3.0), math.sqrt(2.0))
        )
        tight, unique, joint = ag_tightness(spec)
        assert tight is True
        assert unique is True
        assert len(joint.support) == 4
        assert expected_range(joint) == pytest.approx(ag_bound(spec), abs=1e-12)
        assert check_moments(joint, spec, tol=1e-9).passed

    def test_homogeneous_specs_tight_with_other_couplings(self):
        for n in (3, 4, 6):
            spec = MomentSpec(mu=(0.0,) * n, sigma=(1.0,) * n)
            tight, unique, joint = ag_tightness(spec)
            assert tight is True
            assert unique is False
            assert perturb_coupling(joint.coupling) is not None
            assert expected_range(joint) == pytest.approx(ag_bound(spec), abs=1e-12)

    def test_equal_sigma_pair_tight_and_certified_unique(self):
        # For a pair the gap to the dispersion bound is (sigma1 - sigma2)**2,
        # so equal sigmas give tightness, with the balance condition at
        # equality and hence a forced coupling.
        spec = MomentSpec(mu=(0.0, 1.0), sigma=(1.0, 1.0))
        tight, unique, joint = ag_tightness(spec)
        assert tight is True
        assert unique is True
        assert len(joint.support) == 2

    def test_unequal_sigma_pair_not_tight(self):
        assert ag_tightness(MomentSpec(mu=(0.0, 1.0), sigma=(1.0, 0.5))) == (
            False,
            None,
            None,
        )

    def test_dominant_dispersion_not_tight(self):
        spec = MomentSpec(mu=(0.0, 0.0, 0.0), sigma=(1.0, 1.0, 3.0))
        assert ag_tightness(spec) == (False, None, None)

    def test_matches_solver_verdict(self):
        """Tightness decided from the closed-form conditions must agree with
        a direct comparison of the two bounds."""
        rng = np.random.default_rng(35)
        specs = [random_spec(rng) for _ in range(20)]
        specs += [
            MomentSpec(mu=(0.0,) * 5, sigma=tuple(float(v) for v in rng.uniform(0.5, 1.5, 5)))
            for _ in range(10)
        ]
        for spec in specs:
            tight, _, _ = ag_tightness(spec)
            report = rho_bound(spec)
            gap = report.ag - report.rho
            if tight:
                assert gap == pytest.approx(0.0, abs=1e-8)
            else:
                assert gap > 1e-8


class TestBntExtremalMax:
    def test_attains_max_bound_exactly(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            spec = random_spec(rng)
            value, _ = bnt_max_bound(spec)
            joint = bnt_extremal_max(spec)
            emax = math.fsum(p * max(vec) for vec, p in zip(joint.support, joint.prob))
            assert emax == pytest.approx(value, abs=1e-9)
            assert check_moments(joint, spec, tol=1e-9).passed

    def test_homogeneous_four_variables(self):
        spec = MomentSpec(mu=(0.0,) * 4, sigma=(1.0,) * 4)
        joint = bnt_extremal_max(spec)
        emax = math.fsum(p * max(vec) for vec, p in zip(joint.support, joint.prob))
        assert emax == pytest.approx(math.sqrt(3.0), abs=1e-10)


class TestPairSampler:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            extremal_pair_given_correlation(0.0, 0.0, -1.0, 1.0, 0.0)
        with pytest.raises(ValidationError):
            extremal_pair_given_correlation(0.0, 0.0, 1.0, 1.0, 1.5)

    def test_joint_moments_exact(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            m1, m2 = (float(v) for v in rng.uniform(-3, 3, 2))
            s1, s2 = (float(v) for v in rng.uniform(0.2, 2.5, 2))
            rho = float(rng.uniform(-0.99, 0.99))
            joint = extremal_pair_given_correlation(m1, m2, s1, s2, rho).as_joint()
            mean1, var1 = joint_mean_and_var(joint, 0)
            mean2, var2 = joint_mean_and_var(joint, 1)
            assert mean1 == pytest.approx(m1, abs=1e-9)
            assert mean2 == pytest.approx(m2, abs=1e-9)
            assert var1 == pytest.approx(s1 * s1, abs=1e-9)
            assert var2 == pytest.approx(s2 * s2, abs=1e-9)
            cross = math.fsum(
                p * vec[0] * vec[1] for vec, p in zip(joint.support, joint.prob)
            )
            assert cross - mean1 * mean2 == pytest.approx(rho * s1 * s2, abs=1e-9)

    def test_coordinate_gap_is_constant(self):
        sampler = extremal_pair_given_correlation(0.5, -0.5, 1.0, 2.0, 0.3)
        draws = sampler.sample(5000, seed=9)
        gaps = np.abs(draws[:, 0] - draws[:, 1])
        assert float(np.max(np.abs(gaps - sampler.gamma2))) < 1e-12

    def test_extreme_negative_correlation_recovers_pair_bound_law(self):
        m1, m2, s1, s2 = 0.0, 3.0, 1.0, 3.0
        sampler = extremal_pair_given_correlation(m1, m2, s1, s2, -1.0)
        joint = sampler.as_joint()
        assert len(joint.support) == 2
        rho2 = math.hypot(m1 - m2, s1 + s2)
        assert expected_range(joint) == pytest.approx(rho2, abs=1e-12)

    def test_degenerate_gap_gives_common_shift(self):
        sampler = extremal_pair_given_correlation(0.0, 2.0, 1.5, 1.5, 1.0)
        draws = sampler.sample(1000, seed=3)
        assert float(np.max(np.abs(draws[:, 1] - draws[:, 0] - 2.0))) == 0.0

    def test_degenerate_gap_law_is_a_common_shift(self):
        joint = extremal_pair_given_correlation(0.0, 2.0, 1.5, 1.5, 1.0).as_joint()
        assert joint.support == ((1.5, 3.5), (-1.5, 0.5))
        assert joint.prob == (0.5, 0.5)

    def test_seeded_sampling_is_reproducible(self):
        sampler = extremal_pair_given_correlation(0.0, 1.0, 1.0, 1.0, 0.2)
        a = sampler.sample(200, seed=7)
        b = sampler.sample(200, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_internal_stream_advances(self):
        sampler = extremal_pair_given_correlation(0.0, 1.0, 1.0, 1.0, 0.2)
        a = sampler.sample(200)
        b = sampler.sample(200)
        assert not np.array_equal(a, b)

    def test_sample_moments_within_monte_carlo_error(self):
        sampler = extremal_pair_given_correlation(1.0, -1.0, 0.8, 1.2, -0.4)
        draws = sampler.sample(200_000, seed=11)
        se1 = 0.8 / math.sqrt(200_000)
        se2 = 1.2 / math.sqrt(200_000)
        assert abs(float(draws[:, 0].mean()) - 1.0) < 5 * se1
        assert abs(float(draws[:, 1].mean()) + 1.0) < 5 * se2
