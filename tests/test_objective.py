import dataclasses
import fractions
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import (
    fd_gradient,
    mask_thresholds,
    mass_table_by_choose,
    one_by_margin,
    random_spec,
    two_by_margin,
    u_by_linprog,
)
from rangebounds import (
    DualPoint,
    MomentSpec,
    RegionPartition,
    ValidationError,
    classify_regions,
    phi,
    phi_array,
    phi_gradient,
    u_gradient,
    u_value,
    u_value_array,
)
from rangebounds import objective
from rangebounds.objective import mass_table

xs = st.floats(-6.0, 6.0)
ys = st.floats(0.05, 5.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: MomentSpec(mu=("a", 1.0), sigma=(1.0, 1.0)), "sequence of numbers"),
        (lambda: MomentSpec.from_json_dict([0.0, 1.0]), "JSON object"),
        (lambda: DualPoint(c=math.inf, lam=1.0), "finite"),
        (lambda: RegionPartition(i1=(0,), i2=(0,), i3=(), i4=()), "disjoint"),
        (lambda: RegionPartition(i1=(0,), i2=(1,), i3=(), i4=()).region_of(2), "outside"),
    ],
    ids=["non-numeric-mu", "non-object-json", "infinite-c", "overlapping-regions", "index"],
)
def test_rejects_invalid_input(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


class TestMomentSpec:
    def test_basic_fields(self):
        spec = MomentSpec(mu=(0.0, 1.0, 2.0), sigma=(1.0, 2.0, 3.0))
        assert spec.n == 3
        assert spec.mu_bar == pytest.approx(1.0)
        mu, sigma = spec.arrays()
        assert mu.tolist() == [0.0, 1.0, 2.0]
        assert sigma.tolist() == [1.0, 2.0, 3.0]

    def test_arrays_are_formed_once_and_read_only(self):
        spec = MomentSpec(mu=(0.0, 1.0, 2.0), sigma=(1.0, 2.0, 3.0))
        first, again = spec.arrays(), spec.arrays()
        assert all(a is b for a, b in zip(first, again))
        for values in first:
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values[0] = 5.0
        twin = MomentSpec(mu=(0.0, 1.0, 2.0), sigma=(1.0, 2.0, 3.0))
        assert twin == spec and hash(twin) == hash(spec)
        moved = dataclasses.replace(spec, mu=(0.0, 1.0, 4.0))
        assert moved.arrays()[0].tolist() == [0.0, 1.0, 4.0]
        assert spec.arrays()[0].tolist() == [0.0, 1.0, 2.0]

    @pytest.mark.parametrize(
        "mu", [(1e308,) * 3, (1.7e308, 1.7e308, 0.0), (-1.7e308,) * 5 + (1.0,)]
    )
    def test_mean_of_means_whose_sum_leaves_the_float_range(self, mu):
        spec = MomentSpec(mu=mu, sigma=(1.0,) * len(mu))
        exact = float(sum(map(fractions.Fraction, mu)) / len(mu))
        assert spec.mu_bar == pytest.approx(exact, rel=2**-52)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError):
            MomentSpec(mu=(0.0, 1.0), sigma=(1.0,))

    def test_rejects_single_variable(self):
        with pytest.raises(ValidationError):
            MomentSpec(mu=(0.0,), sigma=(1.0,))

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValidationError):
            MomentSpec(mu=(0.0, 1.0), sigma=(1.0, 0.0))
        with pytest.raises(ValidationError):
            MomentSpec(mu=(0.0, 1.0), sigma=(1.0, -2.0))

    def test_rejects_nonfinite_entries(self):
        with pytest.raises(ValidationError):
            MomentSpec(mu=(0.0, math.nan), sigma=(1.0, 1.0))
        with pytest.raises(ValidationError):
            MomentSpec(mu=(0.0, 1.0), sigma=(1.0, math.inf))

    def test_json_round_trip(self):
        spec = MomentSpec(mu=(-1.0, 0.5), sigma=(0.3, 2.0))
        again = MomentSpec.from_json_dict(spec.to_json_dict())
        assert again == spec

    def test_from_json_dict_names_missing_keys(self):
        with pytest.raises(ValidationError, match="sigma"):
            MomentSpec.from_json_dict({"mu": [0, 1]})


class TestDualPoint:
    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValidationError):
            DualPoint(c=0.0, lam=0.0)
        with pytest.raises(ValidationError):
            DualPoint(c=0.0, lam=-1.0)

    def test_json_uses_lambda_key(self):
        assert DualPoint(c=1.0, lam=2.0).to_json_dict() == {"c": 1.0, "lambda": 2.0}


class TestUValue:
    def test_spot_values(self):
        # One point per branch, all with hand-computable closed forms.
        assert u_value(0.0, 2.0) == pytest.approx(4.0, abs=1e-14)
        assert u_value(3.0, 1.0) == pytest.approx(2.0 * math.sqrt(10.0), abs=1e-14)
        assert u_value(0.0, 1.0) == pytest.approx(2.5, abs=1e-14)
        assert u_value(1.0, 0.5) == pytest.approx(2.5, abs=1e-14)

    def test_rejects_nonpositive_y(self):
        with pytest.raises(ValidationError):
            u_value(1.0, 0.0)

    @pytest.mark.parametrize(
        "x,y",
        [
            (0.0, 2.5),
            (1.5, 2.0),
            (-2.0, 1.0),
            (0.0, 0.8),
            (0.3, 0.5),
            (-0.4, 1.1),
            (2.0, 0.3),
            (-3.0, 0.7),
            (1.01, 0.1),
            (4.0, 4.0),
        ],
    )
    def test_matches_linear_program_oracle(self, x, y):
        """The grid LP maximizes the same functional from scratch."""
        reference = u_by_linprog(x, y)
        assert u_value(x, y) == pytest.approx(reference, rel=5e-3)

    @given(xs, ys)
    def test_exceeds_floor(self, x, y):
        assert u_value(x, y) > 2.0
        assert u_value(x, y) >= 2.0 * max(abs(x), 1.0) - 1e-12

    @given(xs, ys)
    def test_even_in_x(self, x, y):
        assert u_value(x, y) == pytest.approx(u_value(-x, y), abs=1e-13)

    @given(xs, xs, ys, ys, st.floats(0.0, 1.0))
    def test_midpoint_convexity(self, x1, x2, y1, y2, t):
        xm = t * x1 + (1.0 - t) * x2
        ym = t * y1 + (1.0 - t) * y2
        chord = t * u_value(x1, y1) + (1.0 - t) * u_value(x2, y2)
        assert u_value(xm, ym) <= chord + 1e-12


class TestUGradient:
    def test_spot_values(self):
        assert u_gradient(0.0, 3.0) == pytest.approx((0.0, 2.0), abs=1e-14)
        assert u_gradient(0.0, 1.0) == pytest.approx((0.0, 1.0), abs=1e-14)
        assert u_gradient(1.0, 0.5) == pytest.approx((1.0, 1.0), abs=1e-14)

    @given(xs, ys)
    def test_matches_finite_differences(self, x, y):
        y = max(y, 0.1)
        gx, gy = u_gradient(x, y)
        rx, ry = fd_gradient(u_value, x, y)
        assert gx == pytest.approx(rx, abs=1e-5)
        assert gy == pytest.approx(ry, abs=1e-5)

    @given(xs, ys)
    def test_first_component_odd_in_x(self, x, y):
        gx, gy = u_gradient(x, y)
        hx, hy = u_gradient(-x, y)
        assert gx == pytest.approx(-hx, abs=1e-13)
        assert gy == pytest.approx(hy, abs=1e-13)


class TestVectorizedEvaluation:
    def test_matches_scalar_on_random_grid(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-5.0, 5.0, size=400)
        y = rng.uniform(0.05, 4.0, size=400)
        vectorized = u_value_array(x, y)
        scalar = np.array([u_value(a, b) for a, b in zip(x, y)])
        np.testing.assert_allclose(vectorized, scalar, rtol=0.0, atol=1e-12)

    def test_rejects_nonpositive_y(self):
        with pytest.raises(ValidationError):
            u_value_array(np.array([0.0]), np.array([0.0]))

    def test_phi_array_matches_scalar_phi(self):
        rng = np.random.default_rng(4)
        spec = random_spec(rng)
        cs = rng.uniform(-4.0, 4.0, size=25)
        lams = rng.uniform(0.1, 5.0, size=25)
        grid = phi_array(spec, cs[:, None], lams[None, :])
        for i in range(25):
            for j in range(0, 25, 6):
                direct = phi(DualPoint(c=float(cs[i]), lam=float(lams[j])), spec)
                assert grid[i, j] == pytest.approx(direct, rel=1e-12)


class TestPhi:
    def test_homogeneous_spot_value(self):
        spec = MomentSpec(mu=(0.0, 0.0, 0.0), sigma=(1.0, 1.0, 1.0))
        assert phi(DualPoint(c=0.0, lam=0.1), spec) == pytest.approx(2.9, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            spec = random_spec(rng)
            c = float(rng.uniform(-3.0, 3.0))
            lam = float(rng.uniform(0.2, 4.0))
            dc, dlam = phi_gradient(DualPoint(c=c, lam=lam), spec)
            h = 1e-6
            fd_c = (
                phi(DualPoint(c=c + h, lam=lam), spec)
                - phi(DualPoint(c=c - h, lam=lam), spec)
            ) / (2.0 * h)
            fd_lam = (
                phi(DualPoint(c=c, lam=lam + h), spec)
                - phi(DualPoint(c=c, lam=lam - h), spec)
            ) / (2.0 * h)
            assert dc == pytest.approx(fd_c, abs=2e-5)
            assert dlam == pytest.approx(fd_lam, abs=2e-5)

    def test_midpoint_convexity_in_c_and_lambda(self):
        rng = np.random.default_rng(6)
        spec = random_spec(rng, n=5)
        for _ in range(200):
            c1, c2 = rng.uniform(-4.0, 4.0, size=2)
            l1, l2 = rng.uniform(0.05, 5.0, size=2)
            mid = phi(DualPoint(c=0.5 * (c1 + c2), lam=0.5 * (l1 + l2)), spec)
            chord = 0.5 * (
                phi(DualPoint(c=c1, lam=l1), spec) + phi(DualPoint(c=c2, lam=l2), spec)
            )
            assert mid <= chord + 1e-12


class TestRegionClassification:
    def test_partition_covers_every_index_once(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            spec = random_spec(rng)
            point = DualPoint(
                c=float(rng.uniform(-3.0, 3.0)), lam=float(rng.uniform(0.1, 4.0))
            )
            regions = classify_regions(point, spec)
            seen = sorted(regions.i1 + regions.i2 + regions.i3 + regions.i4)
            assert seen == list(range(spec.n))

    def test_far_coordinate_lands_in_two_sided_region(self):
        spec = MomentSpec(mu=(0.0, 10.0), sigma=(1.0, 1.0))
        regions = classify_regions(DualPoint(c=0.0, lam=1.0), spec)
        assert 1 in regions.i1

    def test_boundary_tie_prefers_one_sided_region(self):
        # At c=0, lam=1 the first coordinate satisfies the one-sided
        # condition with equality; the tie goes to the one-sided region.
        spec = MomentSpec(
            mu=(-1.0, 0.0, 1.0), sigma=(1.0, math.sqrt(3.0), math.sqrt(2.0))
        )
        regions = classify_regions(DualPoint(c=0.0, lam=1.0), spec)
        assert regions.to_json_dict() == {"I1": [], "I2": [1, 2], "I3": [], "I4": [0]}

    def test_region_of(self):
        spec = MomentSpec(mu=(0.0, 10.0), sigma=(1.0, 1.0))
        regions = classify_regions(DualPoint(c=0.0, lam=1.0), spec)
        assert regions.region_of(1) == "I1"


def _scaled_draw(rng, region):
    """One (x, y) strictly inside ``region`` of the scaled plane."""
    if region == "I1":
        r = rng.uniform(2.1, 6.0)
        angle = rng.uniform(0.05, math.pi - 0.05)
        return r * math.cos(angle), r * math.sin(angle)
    if region == "I2":
        x = rng.uniform(-1.8, 1.8)
        low, high = 2.0 * abs(x) - x * x, 4.0 - x * x
        pad = 0.05 * (high - low)
        return x, math.sqrt(rng.uniform(low + pad, high - pad))
    x = rng.uniform(0.1, 1.9)
    y = math.sqrt((2.0 * x - x * x) * rng.uniform(0.05, 0.95))
    return (x, y) if region == "I3" else (-x, y)


class TestMassTable:
    """The kernel against the separate ``phi_array`` path and its own sums."""

    REGIONS = ("I1", "I2", "I3", "I4")
    # (x, y) exactly on a boundary at c = 0, lambda = 1, with the region the
    # tie resolves to: I1 first, then I3/I4.
    TIES = [
        ((0.0, 2.0), "I1"),
        ((1.2, 1.6), "I1"),
        ((-2.0, 1e-9), "I1"),
        ((2.0, 1e-9), "I1"),
        ((1.0, 1.0), "I3"),
        ((0.5, math.sqrt(0.75)), "I3"),
        ((-1.0, 1.0), "I4"),
        ((-1.5, math.sqrt(0.75)), "I4"),
    ]

    def points(self):
        """Specs mixing all four regions at random (c, lambda), plus the ties."""
        rng = np.random.default_rng(40)
        out = []
        for _ in range(60):
            c = float(rng.uniform(-3.0, 3.0))
            lam = float(rng.uniform(0.2, 3.0))
            regions = [self.REGIONS[k % 4] for k in range(int(rng.integers(4, 9)))]
            xy = [_scaled_draw(rng, region) for region in regions]
            spec = MomentSpec(
                mu=tuple(c + lam * x for x, _ in xy), sigma=tuple(lam * y for _, y in xy)
            )
            out.append((spec, c, lam))
        for c, lam in ((0.0, 1.0), (0.5, 2.0)):
            spec = MomentSpec(
                mu=tuple(c + lam * x for (x, _), _ in self.TIES),
                sigma=tuple(lam * y for (_, y), _ in self.TIES),
            )
            out.append((spec, c, lam))
        return out

    def test_masses_are_a_probability_law_and_ties_resolve_in_order(self):
        """Column i of (points(), p) is coordinate i's law: on nonnegative
        masses summing to 1, with the slot its region leaves empty exactly
        0.0, and on points z^- <= -1 <= z^0 <= 1 <= z^+ in the table's own
        units, whatever the scale of (c, lambda).  Off the ties its moments
        are mu_i and sigma_i**2.  The ties are left out of that check: at
        (+/-2, 1e-9) the small tail mass cancels to 0, so the variance is
        off by all of sigma_i**2, 3.3e-10 of sigma_i (|mu_i - c| + sigma_i
        + lambda)."""
        points = self.points()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k, (spec, c, lam) in enumerate(points):
                table = mass_table(spec.mu, spec.sigma, c, lam)
                assert np.all(table.p >= 0.0)
                np.testing.assert_allclose(table.p.sum(axis=0), 1.0, rtol=0.0, atol=1e-15)
                p_minus, p_zero, p_plus = table.p
                assert np.all(p_zero[table.region == 0] == 0.0)
                assert np.all(p_minus[table.region == 2] == 0.0)
                assert np.all(p_plus[table.region == 3] == 0.0)
                z_minus, z_zero, z_plus = table.z
                assert np.all((z_minus <= -1.0) & (-1.0 <= z_zero))
                assert np.all((z_zero <= 1.0) & (1.0 <= z_plus))
                if k >= len(points) - 2:
                    continue
                mu, sigma = spec.arrays()
                x = table.points()
                mean = np.sum(table.p * x, axis=0)
                var = np.sum(table.p * (x - mean) ** 2, axis=0)
                scale = np.abs(mu - c) + sigma + lam
                assert np.all(np.abs(mean - mu) <= 1e-12 * scale)
                assert np.all(np.abs(var - sigma * sigma) <= 1e-12 * sigma * scale)
            ties = points[-2:]
            for spec, c, lam in ties:
                table = mass_table(spec.mu, spec.sigma, c, lam)
                assert [self.REGIONS[k] for k in table.region] == [r for _, r in self.TIES]
                assert np.all(table.margin <= 1e-12)

    def test_random_points_cover_every_region(self):
        """Each draw lands in the region it was drawn inside, and every
        spec has at least four coordinates, so all four regions occur."""
        for spec, c, lam in self.points()[:-2]:
            region = mass_table(spec.mu, spec.sigma, c, lam).region
            assert region.tolist() == [k % 4 for k in range(spec.n)]

    def test_gradient_and_value_match_phi_array(self):
        h = 1e-6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for spec, c, lam in self.points():
                table = mass_table(spec.mu, spec.sigma, c, lam)
                d_c, d_lam = table.gradient()
                fd_c = (phi_array(spec, c + h, lam) - phi_array(spec, c - h, lam)) / (2 * h)
                fd_lam = (phi_array(spec, c, lam + h) - phi_array(spec, c, lam - h)) / (2 * h)
                value = float(phi_array(spec, c, lam))
                assert d_c == pytest.approx(float(fd_c), abs=2e-5)
                assert d_lam == pytest.approx(float(fd_lam), abs=2e-5)
                assert table.phi() == pytest.approx(value, rel=1e-12)

    def test_derivative_columns_match_differences_of_the_masses(self):
        h = 1e-7
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for spec, c, lam in self.points()[:-2]:
                table = mass_table(spec.mu, spec.sigma, c, lam)
                p_c = [mass_table(spec.mu, spec.sigma, c + s * h, lam).p for s in (1, -1)]
                p_lam = [mass_table(spec.mu, spec.sigma, c, lam + s * h).p for s in (1, -1)]
                gap = [p[0] - p[2] for p in p_c]
                np.testing.assert_allclose(
                    table.dp0_dlam, (p_lam[0][1] - p_lam[1][1]) / (2 * h), rtol=0, atol=1e-6
                )
                np.testing.assert_allclose(
                    table.dgap_dc, (gap[0] - gap[1]) / (2 * h), rtol=0, atol=1e-6
                )
                np.testing.assert_allclose(
                    table.dp0_dc, (p_c[0][1] - p_c[1][1]) / (2 * h), rtol=0, atol=1e-6
                )


class TestMassTableAgainstChoose:
    """The kernel selects its branches with ``np.where`` on three masks and
    forms each column when it is first read; every column must equal, bit
    for bit, the table chosen by region code, whatever order it is read in."""

    ORDERS = (
        ("region", "z", "p", "p_zero", "margin", "dp0_dlam", "dgap_dc", "dp0_dc"),
        ("p_zero", "dp0_dlam", "dgap_dc", "dp0_dc", "p", "margin", "z", "region"),
        ("dp0_dc", "dgap_dc", "margin", "z", "region", "p", "dp0_dlam", "p_zero"),
    )

    def assert_same(self, spec, c, lam):
        old = mass_table_by_choose(spec.mu, spec.sigma, c, lam)
        expected = {**old._asdict(), "p_zero": old.p[1]}
        for order in self.ORDERS:
            new = mass_table(spec.mu, spec.sigma, c, lam)
            assert (new.c, new.lam) == (old.c, old.lam)
            for name in order:
                a, b = getattr(new, name), expected[name]
                assert (a.dtype, a.shape) == (b.dtype, b.shape), name
                assert a.tobytes() == b.tobytes(), name

    def test_every_region_and_tie(self):
        for spec, c, lam in TestMassTable().points():
            self.assert_same(spec, c, lam)

    def test_random_specs_at_every_scale(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            a = 10.0 ** rng.uniform(-300.0, 300.0)
            unit = random_spec(rng, int(rng.integers(3, 40)))
            spec = MomentSpec(mu=tuple(a * m for m in unit.mu), sigma=tuple(a * s for s in unit.sigma))
            c = a * rng.uniform(-3.0, 3.0)
            lam = a * 10.0 ** rng.uniform(-1.5, 1.5)
            self.assert_same(spec, c, lam)


class TestRegionMaskThresholds:
    """The kernel forms its region masks as one comparison each, of r and of
    2|x|/r**2, with a threshold; they must equal the tests on the signed
    margins, which the oracle keeps, at every float."""

    def floats_around(self, threshold, ulps=2_000_000):
        bits = np.float64(threshold).view(np.int64)
        return np.arange(bits - ulps, bits + ulps + 1, dtype=np.int64).view(np.float64)

    def test_thresholds_are_the_smallest_passing_floats(self):
        assert mask_thresholds() == (objective._R_TWO, objective._RATIO_ONE)

    def test_masks_equal_the_margin_tests(self):
        rng = np.random.default_rng(43)
        near = (self.floats_around(objective._R_TWO), self.floats_around(objective._RATIO_ONE))
        wide = (10.0 ** rng.uniform(-300.0, 300.0, 1_000_000) for _ in range(5))
        for values in (*near, np.array([0.0, math.inf, math.nan]), *wide):
            assert np.array_equal(values >= objective._R_TWO, two_by_margin(values))
            assert np.array_equal(values >= objective._RATIO_ONE, one_by_margin(values))

    def test_kernel_masks_near_both_boundaries(self):
        """With x = 0, r is sigma exactly; on the circle r**2 = 2|x| (1 - d),
        the ratio is within rounding of 1/(1 - d)."""
        near_two = self.floats_around(objective._R_TWO, 200_000)
        rng = np.random.default_rng(44)
        d = rng.uniform(-4e-12, 4e-12, 400_000)
        x = rng.uniform(0.05, 1.95, d.size) * rng.choice((-1.0, 1.0), d.size)
        y = np.sqrt(2.0 * np.abs(x) * (1.0 - d) - x * x)
        mu = np.concatenate((np.zeros(near_two.size), x))
        sigma = np.concatenate((near_two, y))
        table = mass_table(mu, sigma, 0.0, 1.0)
        two = two_by_margin(table.r)
        assert np.array_equal(table.two, two)
        assert np.array_equal(table.one, ~two & one_by_margin(table.ratio))
        assert table.two[: near_two.size].sum() == 200_001
        assert 0 < table.one[near_two.size :].sum() < d.size
