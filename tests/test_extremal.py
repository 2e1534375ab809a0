import dataclasses
import decimal
import math

import numpy as np
import pytest

from _oracles import random_spec, star_spec
from rangebounds import (
    JointDiscreteDistribution,
    MomentSpec,
    ProbabilityMatrix,
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
    zero_trace_coupling,
)
from rangebounds import extremal
from rangebounds.objective import mass_table


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ProbabilityMatrix(q=np.ones((1, 1))), "at least 2 x 2"),
        (lambda: ProbabilityMatrix.from_json_dict({"p": [[0.0, 1.0], [0.0, 0.0]]}), "key 'q'"),
        (lambda: zero_trace_coupling([1.0], [1.0]), "at least two indices"),
        (lambda: perturb_coupling(np.array([[0.0, 1.0], [0.0, 0.0]])), "ProbabilityMatrix"),
        (lambda: extremal_pair_given_correlation(0.0, 1.0, 1.0, 1.0, 0.5).sample(0), "at least 1"),
        (
            lambda: JointDiscreteDistribution(support=((0.0,), (1.0,)), prob=(1.5, -0.5)),
            "nonnegative",
        ),
        (
            lambda: JointDiscreteDistribution(support=((0.0,), (math.nan,)), prob=(0.5, 0.5)),
            "finite",
        ),
        (
            lambda: JointDiscreteDistribution(support=((0.0,), (1.0,)), prob=(math.inf, 0.5)),
            "finite",
        ),
        (lambda: ProbabilityMatrix(q=[[0.0, 1.0], [math.nan, 0.0]]), "finite"),
        (lambda: ProbabilityMatrix(q=[[0.0, math.inf], [0.0, 0.0]]), "finite"),
        (lambda: ProbabilityMatrix.from_json_dict({"q": [[0.0, 1.0], [0.0]]}), "square matrix"),
        (lambda: ProbabilityMatrix.from_json_dict({"q": [[0.0, "a"], [0.0, 0.0]]}), "numbers"),
    ],
    ids=[
        "1x1-matrix",
        "matrix-json-without-q",
        "one-index-coupling",
        "perturb-non-matrix",
        "zero-samples",
        "negative-mass",
        "nan-point",
        "infinite-mass",
        "nan-cell",
        "infinite-cell",
        "ragged-matrix-json",
        "non-numeric-matrix-json",
    ],
)
def test_rejects_invalid_input(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


def joint_mean_and_var(joint, i):
    mean = math.fsum(p * vec[i] for vec, p in zip(joint.support, joint.prob))
    var = math.fsum(p * (vec[i] - mean) ** 2 for vec, p in zip(joint.support, joint.prob))
    return mean, var


class TestExtremalMarginals:
    def test_mass_identities_at_optimum(self):
        """Tail masses sum to one on each side and middles to n - 2."""
        rng = np.random.default_rng(32)
        for _ in range(40):
            spec = random_spec(rng)
            report = rho_bound(spec)
            table = extremal_marginals(spec, report.optimum)
            assert (table.c, table.lam) == (report.optimum.c, report.optimum.lam)
            p_minus, p_zero, p_plus = table.p.tolist()
            assert math.fsum(p_plus) == pytest.approx(1.0, abs=1e-9)
            assert math.fsum(p_minus) == pytest.approx(1.0, abs=1e-9)
            assert math.fsum(p_zero) == pytest.approx(spec.n - 2, abs=1e-9)

    def test_rejects_points_far_from_optimal(self):
        from rangebounds import DualPoint

        spec = MomentSpec(mu=(-2.0, 0.0, 2.0), sigma=(1.0, 3.0, 1.0))
        with pytest.raises(ValidationError, match="mass"):
            extremal_marginals(spec, DualPoint(c=50.0, lam=0.01))

    def test_components_reject_a_table_off_the_optimum(self, monkeypatch):
        """The report's table goes to the coupling as it is; the coupling's
        check that each tail row sums to 1 rejects a table formed away from
        the optimum."""
        spec = MomentSpec(mu=(-2.0, 0.0, 2.0), sigma=(1.0, 3.0, 1.0))
        far = mass_table(*spec.arrays(), 50.0, 0.01)

        def report_with_far_table(spec, tol):
            return dataclasses.replace(rho_bound(spec, tol), table=far)

        monkeypatch.setattr(extremal, "rho_bound", report_with_far_table)
        with pytest.raises(ValidationError, match="^p sums to"):
            extremal_components(spec)


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


class TestComponentsReuseTheReportedTable:
    SPECS = [
        MomentSpec(mu=(0.0, 3.0), sigma=(1.0, 3.0)),
        MomentSpec(mu=(2.0, 2.0, 2.0, 2.0), sigma=(1.0, 0.5, 2.0, 1.5)),
        MomentSpec(mu=(-1.0, 0.3, 2.0, 0.8), sigma=(1.0, 0.5, 2.0, 1.5)),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=["pair", "equal-means", "general"])
    def test_no_table_is_formed_again(self, monkeypatch, spec):
        calls = []
        monkeypatch.setattr(extremal, "mass_table", lambda *args: calls.append(args))
        parts = extremal_components(spec)
        assert calls == []
        assert parts.table is parts.report.table
        monkeypatch.undo()
        point = parts.report.optimum
        fresh = mass_table(spec.mu, spec.sigma, point.c, point.lam)
        coupling = zero_trace_coupling(fresh.p[2].tolist(), fresh.p[0].tolist())
        for got, want in zip(parts.coupling.cells, coupling.cells):
            assert got.tobytes() == want.tobytes()
        for got, want in zip(parts.table.points(), fresh.points()):
            assert got.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("offset", [1e6, 1e8])
    def test_star_witness_far_from_the_origin(self, offset):
        """Star specs moved by 1e6 and 1e8 sigma: the tail masses are formed
        at the frame's own mean deviation, so they sum to 1 to rounding and
        the forced coupling is built.  Formed at 0, they differed by the
        deviations' own rounding: at 1e6, 66 of these summed to 1 +/- up
        to 7.7e-13 and failed the coupling's check."""
        for seed in range(300):
            spec = star_spec(seed, 3 + seed % 18, 1.0, offset)
            tight, unique, joint = ag_tightness(spec)
            assert (tight, unique) == (True, True)
            half = 0.5 * ag_bound(spec)
            assert np.all(joint.x_plus == spec.mu_bar + half)
            assert np.all(joint.x_minus == spec.mu_bar - half)
            assert np.all(joint.x_zero == spec.mu_bar)

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

    def test_root_bracket_starts_below_the_second_largest_mean(self):
        """Two means at 0 and one 1e9 sigma below: bracketed from the lowest
        mean, the root stopped at 2**-60 of a width of 1e9 and missed its
        true value 2.5e-19 by 5e-12, so the law's masses summed to
        1 + 5e-12 and were refused."""
        spec = MomentSpec(mu=(0.0, 0.0, -1e9), sigma=(1.0, 1.0, 1.0))
        with decimal.localcontext() as context:
            context.prec = 50

            def f(y):
                return sum(
                    (y - m) / ((y - m) ** 2 + 1).sqrt() for m in map(decimal.Decimal, spec.mu)
                ) - 1

            lo, hi = decimal.Decimal(-1), decimal.Decimal(1)
            for _ in range(200):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)
            root = float(lo)
        value, y0 = bnt_max_bound(spec)
        assert root == pytest.approx(2.5e-19, rel=1e-9)
        assert abs(y0 - root) <= 1e-17
        joint = bnt_extremal_max(spec)
        # The far outcome's mass, 2.5e-19 at 1e9, carries 2.5e-10 of the
        # bound; formed as (alpha - d) / (2 alpha) it would cancel to 0.
        assert len(joint.prob) == 3
        emax = math.fsum(p * max(vec) for vec, p in zip(joint.support, joint.prob))
        assert emax == value

    def test_law_holds_at_every_spread_of_the_means(self):
        """Means integer multiples of a spread of up to 1e10 sigma: the root
        is resolved to the sigmas, on the means less the largest, so every
        law's masses sum to 1, and its E max meets the bound to the rounding
        of the law's own points.  With the root solved on the means as
        given and masses formed as (1 - d/alpha)/2, 95 of these raised."""
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            spread = 10.0 ** rng.uniform(0.0, 10.0)
            mu = rng.integers(-3, 4, n) * spread
            sigma = rng.uniform(0.5, 2.0, n)
            spec = MomentSpec(mu=tuple(mu.tolist()), sigma=tuple(sigma.tolist()))
            value, _ = bnt_max_bound(spec)
            joint = bnt_extremal_max(spec)
            emax = math.fsum(p * max(vec) for vec, p in zip(joint.support, joint.prob))
            ulp = math.ulp(max(abs(value), *map(abs, spec.mu)))
            worst = max(worst, abs(emax - value) / ulp)
        assert worst <= 4.0

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
        # Means 1e8 sigma apart: the atoms are offsets from the means, so the
        # moments hold to the resolution of floats near 1e8, relative to
        # sigma**2.
        s1, s2 = 1.0, 1.3
        joint = extremal_pair_given_correlation(1e8, 0.0, s1, s2, 0.0).as_joint()
        mean1, var1 = joint_mean_and_var(joint, 0)
        mean2, var2 = joint_mean_and_var(joint, 1)
        assert abs(mean1 - 1e8) <= 1e-7 * s1
        assert abs(mean2) <= 1e-7 * s2
        assert abs(var1 - s1 * s1) <= 1e-6 * s1 * s1
        assert abs(var2 - s2 * s2) <= 1e-6 * s2 * s2

    @pytest.mark.parametrize("k", range(1, 17))
    def test_near_degenerate_pair_with_equal_means_is_a_law(self, k):
        """rho = 1 - 10**-k with equal means and sigmas: the two sign
        probabilities sum to 1 although 1 + rho rounds in the gap bound, and
        the gap stays positive where rho rounds to the float below 1.  With
        sigmas 1e-9 or 1e-7 apart, Var(X1 - X2) and the atoms' coefficients
        hold to relative precision: formed as sigma1**2 + sigma2**2 - 2 rho
        sigma1 sigma2 they cancelled, and the variances were off by up to
        half."""
        rho = 1.0 - 10.0**-k
        for mu, sigma in (((3.0, 3.0), (1.0, 1.0)), ((0.0, 0.5), (1.0, 1.0 + 1e-9)),
                          ((0.0, 0.5), (1.0, 1.0 + 1e-7))):
            joint = extremal_pair_given_correlation(*mu, *sigma, rho).as_joint()
            assert math.fsum(joint.prob) == pytest.approx(1.0, abs=4e-16)
            for i in (0, 1):
                mean, var = joint_mean_and_var(joint, i)
                assert mean == pytest.approx(mu[i], abs=1e-9)
                assert var == pytest.approx(sigma[i] ** 2, abs=1e-9)
            cross = math.fsum(
                p * (vec[0] - mu[0]) * (vec[1] - mu[1]) for vec, p in zip(joint.support, joint.prob)
            )
            assert cross == pytest.approx(rho * sigma[0] * sigma[1], abs=1e-9)

    @pytest.mark.parametrize("a", [2.0**400, 2.0**-400, 2.0**-520, 2.0**510])
    def test_law_is_equivariant_under_powers_of_two(self, a):
        """The law is formed in the pair's unit frame, so scaling the spec by
        a power of two scales its atoms and gap exactly; in the spec's units
        the variances overflow at 2**510 or underflow at 2**-520."""
        rng = np.random.default_rng(38)
        for _ in range(50):
            m1, m2 = (float(v) for v in rng.uniform(-3, 3, 2))
            s1, s2 = (float(v) for v in rng.uniform(0.2, 2.5, 2))
            rho = float(rng.uniform(-1, 1))
            unit = extremal_pair_given_correlation(m1, m2, s1, s2, rho)
            scaled = extremal_pair_given_correlation(a * m1, a * m2, a * s1, a * s2, rho)
            assert scaled.atoms.tobytes() == (a * unit.atoms).tobytes()
            assert scaled.probs == unit.probs
            assert scaled.gamma2 == a * unit.gamma2

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
