"""The structured attaining law and the vectorized checks against their
n-tuple oracles, and the circular coupling against the properties that
define it."""

import math
from fractions import Fraction

import numpy as np
import pytest
from _oracles import (
    check_moments_by_fractions,
    check_moments_by_loop,
    expected_range_by_loop,
    extremal_tuples,
    random_spec,
    star_spec,
)

from rangebounds import (
    AttainingJoint,
    InfeasibleCouplingError,
    JointDiscreteDistribution,
    MomentSpec,
    ProbabilityMatrix,
    ValidationError,
    ag_tightness,
    check_moments,
    expected_range,
    extremal_components,
    mc_expected_range,
    perturb_coupling,
    zero_trace_coupling,
)
from rangebounds.extremal import _UNIT, _marginals_match, _units
from rangebounds.verify import _probe_joints


def scaled(spec: MomentSpec, a: float, b: float) -> MomentSpec:
    return MomentSpec(
        mu=tuple(a * m + b for m in spec.mu), sigma=tuple(a * s for s in spec.sigma)
    )


def law_specs():
    rng = np.random.default_rng(11)
    specs = [MomentSpec(mu=(0.0, 1.0), sigma=(1.0, 2.0))]
    specs += [random_spec(rng) for _ in range(12)]
    specs += [random_spec(rng, n) for n in (20, 60)]
    for a, b in ((1e-300, 0.0), (1e-3, 5e-2), (1e150, -3e151)):
        specs.append(scaled(random_spec(rng), a, b))
    specs.append(MomentSpec(mu=(0.5,) * 6, sigma=(1.0, 2.0, 0.5, 0.5, 1.5, 3.0)))
    return specs


class TestAttainingJoint:
    @pytest.mark.parametrize("spec", law_specs())
    def test_matches_the_tuple_law(self, spec):
        parts, tuples = extremal_tuples(spec)
        law = parts.joint
        assert isinstance(law, AttainingJoint)
        assert law.support == tuples.support
        assert law.prob == tuples.prob
        assert law.dim == tuples.dim
        for mine, theirs in zip(law.arrays(), tuples.arrays()):
            assert np.array_equal(mine, theirs)
        ranges = [max(vec) - min(vec) for vec in tuples.support]
        assert law.atom_ranges().tolist() == ranges
        assert law.to_json_dict() == tuples.to_json_dict()

    def test_pair_has_two_atoms_with_no_middle_coordinate(self):
        law = extremal_components(MomentSpec(mu=(0.0, 3.0), sigma=(1.0, 1.0))).joint
        assert len(law.support) == 2
        assert law.atom_ranges().tolist() == [max(v) - min(v) for v in law.support]

    def test_rejects_coinciding_atoms(self):
        coupling = ProbabilityMatrix(q=[[0.0, 0.0, 0.25], [0.0, 0.0, 0.25], [0.25, 0.25, 0.0]])
        points = {"x_zero": [0.0, 0.0, 0.0], "x_minus": [-1.0, -1.0, -1.0]}
        # Cells (0, 2) and (1, 2) give (0, 0, -1) once x_plus meets x_zero
        # at coordinates 0 and 1; at only one of them every atom differs.
        AttainingJoint(x_plus=[0.0, 1.0, 1.0], coupling=coupling, **points)
        with pytest.raises(ValidationError, match="duplicate"):
            AttainingJoint(x_plus=[0.0, 0.0, 1.0], coupling=coupling, **points)

    def test_rejects_points_of_the_wrong_length(self):
        coupling = zero_trace_coupling([0.5, 0.5], [0.5, 0.5])
        with pytest.raises(ValidationError, match="2 values"):
            AttainingJoint(x_zero=[0.0], x_plus=[1.0, 1.0], x_minus=[-1.0, -1.0], coupling=coupling)

    def test_rejects_points_that_are_not_finite(self):
        # The moment check takes the points apart into integer mantissas.
        coupling = zero_trace_coupling([0.5, 0.5], [0.5, 0.5])
        with pytest.raises(ValidationError, match="x_plus must be finite"):
            AttainingJoint(
                x_zero=[0.0, 0.0], x_plus=[1.0, math.inf], x_minus=[-1.0, -1.0], coupling=coupling
            )

    def test_ag_witness_is_structured(self):
        spec = MomentSpec(mu=(-1.0, 0.0, 1.0), sigma=(1.0, math.sqrt(3.0), math.sqrt(2.0)))
        tight, _, witness = ag_tightness(spec)
        assert tight
        assert isinstance(witness, AttainingJoint)
        assert check_moments(witness, spec, tol=1e-12).passed
        assert expected_range(witness) == pytest.approx(4.0, rel=1e-15)


class TestVectorizedChecks:
    @pytest.mark.parametrize("spec", law_specs())
    def test_moment_check_is_bit_identical_to_the_loop(self, spec):
        # The n-tuple law is checked atom by atom, the structured law
        # exactly; both read the same expected range.
        parts, tuples = extremal_tuples(spec)
        assert check_moments(tuples, spec) == check_moments_by_loop(tuples, spec)
        assert check_moments(parts.joint, spec) == check_moments_by_fractions(tuples, spec)
        for law in (parts.joint, tuples):
            assert expected_range(law) == expected_range_by_loop(tuples)

    def test_probe_laws_are_bit_identical_to_the_loop(self):
        rng = np.random.default_rng(5)
        for trial in range(4):
            spec = random_spec(rng)
            for law in _probe_joints(spec, 5, seed=trial):
                assert check_moments(law, spec) == check_moments_by_loop(law, spec)
                assert expected_range(law) == expected_range_by_loop(law)

    def test_monte_carlo_draws_the_same_atoms(self):
        rng = np.random.default_rng(8)
        for _ in range(3):
            parts, tuples = extremal_tuples(random_spec(rng, 30))
            assert mc_expected_range(parts.joint, 5_000, seed=4) == mc_expected_range(
                tuples, 5_000, seed=4
            )

    def test_generic_law_still_checked(self):
        joint = JointDiscreteDistribution(support=((0.0, 2.0), (2.0, 0.0)), prob=(0.5, 0.5))
        report = check_moments(joint, MomentSpec(mu=(1.0, 1.0), sigma=(1.0, 1.0)))
        assert report.passed and report.expected_range == 2.0


def marginals(rng: np.random.Generator, n: int, kind: str) -> tuple[list[float], list[float]]:
    """Feasible (p, q): random, with max(p + q) exactly 1, or within 1e-13
    below 1 (possible from n = 3 on, as the n = 2 sums add up to 2)."""
    while True:
        if kind == "random" and n == 2:
            t = float(rng.uniform(0.0, 1.0))
            return [t, 1.0 - t], [1.0 - t, t]
        if kind == "random":
            alpha = float(rng.choice([0.05, 0.5, 1.0, 5.0]))
            p = rng.dirichlet(np.full(n, alpha)).tolist()
            q = rng.dirichlet(np.full(n, alpha)).tolist()
            k = max(range(n), key=lambda i: p[i] + q[i])
        else:
            k = int(rng.integers(n))
            t = float(rng.uniform(0.5, 1.0))
            gap = 0.0 if kind == "tight" else 10.0 ** float(rng.uniform(-15.0, -13.0))
            p = (rng.dirichlet(np.ones(n - 1)) * (1.0 - t)).tolist()
            q = (rng.dirichlet(np.ones(n - 1)) * (t + gap)).tolist()
            p.insert(k, t)
            q.insert(k, (1.0 - t) - gap)
        sums = [a + b for a, b in zip(p, q)]
        if max(sums) == sums[k] <= 1.0:
            return p, q


SIZES = (2, 3, 4, 5, 6, 8, 13, 21, 50, 137, 300, 500)


class TestGreedyCoupling:
    @pytest.mark.parametrize("kind", ["random", "tight", "near"])
    def test_random_feasible_marginals_pass_the_check(self, kind):
        rng = np.random.default_rng({"random": 1, "tight": 2, "near": 3}[kind])
        for n in SIZES if kind != "near" else SIZES[1:]:
            for _ in range(12 if n < 100 else 3):
                p, q = marginals(rng, n, kind)
                worst = max(a + b for a, b in zip(p, q))
                if kind == "tight":
                    assert worst == 1.0
                elif kind == "near":
                    assert 1.0 - 1e-13 <= worst < 1.0
                matrix = zero_trace_coupling(p, q)
                assert _marginals_match(matrix.cells, p, q)
                assert matrix.is_zero_trace() and matrix.cells[2].min() > 0.0

    def test_marginals_that_disagree_raise(self):
        # Each vector meets the probability contract, but their totals lie
        # 9e-13 apart, beyond the 3/4 of 1e-12 the construction may move a
        # marginal: that is raised up front, before any cell is formed.
        p = [0.3, 0.3, 0.4 + 9e-13]
        q = [0.4, 0.3, 0.3]
        with pytest.raises(InfeasibleCouplingError, match="^no coupling exists: p sums to"):
            zero_trace_coupling(p, q)
        with pytest.raises(InfeasibleCouplingError, match="^no coupling exists: p sums to"):
            zero_trace_coupling(q, p)
        # A total 1e-10 from 1 breaks the contract itself.
        with pytest.raises(ValidationError, match="^p sums to"):
            zero_trace_coupling([0.3, 0.3, 0.4 + 1e-10], q)
        with pytest.raises(ValidationError, match="^q sums to"):
            zero_trace_coupling(q, [0.3, 0.3, 0.4 + 1e-10])

    def test_a_pair_beyond_the_totals_is_infeasible_up_front(self):
        # Both totals are 1 - 5e-13 and p_0 + q_0 = 1 + 5e-13: within 1e-12
        # of 1, but 1e-12 beyond what any coupling of these marginals can
        # put in row and column 0.
        p = [0.5 + 5e-13, 0.5 - 1e-12, 0.0]
        q = [0.5, 0.0, 0.5 - 5e-13]
        for a, b in ((p, q), (q, p)):
            with pytest.raises(InfeasibleCouplingError, match="index 0"):
                zero_trace_coupling(a, b)

    def test_marginal_check_reads_rows_and_columns(self):
        cells = (np.array([0, 1]), np.array([1, 0]), np.array([0.3, 0.7]))
        assert _marginals_match(cells, [0.3, 0.7], [0.7, 0.3])
        assert not _marginals_match(cells, [0.3, 0.7], [0.3, 0.7])
        assert not _marginals_match(cells, [0.7, 0.3], [0.7, 0.3])

STARS = [
    (seed, n, a, b)
    for seed in range(6)
    for n in (100, 200, 600)
    for a, b in ((1.0, 0.0), (1e-2, 3.0), (7.0, -20.0))
]


@pytest.mark.parametrize("seed,n,a,b", STARS)
def test_star_coupling_is_forced(seed, n, a, b):
    """Tail masses summing to 1 + O(n eps) leave no residue cell."""
    spec = star_spec(seed, n, a, b)
    coupling = extremal_components(spec).coupling
    assert np.count_nonzero(coupling.q) == 2 * (n - 1)
    assert perturb_coupling(coupling) is None
    tight, unique, witness = ag_tightness(spec)
    assert tight and unique is True
    assert np.array_equal(coupling.q > 0.0, witness.coupling.q > 0.0)
    assert np.max(np.abs(coupling.q - witness.coupling.q)) <= 1e-12


def test_no_cell_in_a_row_or_column_without_tail_mass():
    """At n = 10**4 the tail totals differ by their rounding; no cell may
    land in a row whose p+ is 0 or a column whose p- is 0, where it would
    put mass on a fill point.  Such a row or column is a zero-length
    interval of the circle, which meets nothing."""
    rng = np.random.default_rng(7)
    n = 10_000
    mu = rng.uniform(-3.0, 3.0, n)
    sigma = rng.uniform(0.2, 2.5, n)
    parts = extremal_components(MomentSpec(mu=tuple(mu.tolist()), sigma=tuple(sigma.tolist())))
    rows, cols, _ = parts.coupling.cells
    p_minus, _, p_plus = parts.table.p
    assert np.all(p_plus[rows] > 0.0)
    assert np.all(p_minus[cols] > 0.0)


def tied_marginals(rng: np.random.Generator, n: int) -> tuple[list[float], list[float]]:
    """Feasible (p, q) with many equal entries: small integers, normalised."""
    while True:
        p = rng.integers(0, 4, size=n).astype(float)
        q = rng.integers(0, 4, size=n).astype(float)
        if p.sum() > 0.0 and q.sum() > 0.0:
            p, q = (p / p.sum()).tolist(), (q / q.sum()).tolist()
            if max(a + b for a, b in zip(p, q)) <= 1.0:
                return p, q


def assert_sparse_coupling(cells, p: list[float], q: list[float]) -> None:
    """``cells`` couple p and q: each positive, off the diagonal and once in
    row-major order, at most |supp p| + |supp q| of them, none in a row
    with p = 0 or a column with q = 0, and both marginals to 1e-12."""
    rows, cols, values = cells
    assert not np.any(rows == cols) and values.min() > 0.0
    assert np.all(np.diff(rows * len(p) + cols) > 0)
    assert values.size <= np.count_nonzero(p) + np.count_nonzero(q)
    assert np.all(np.take(p, rows) > 0.0) and np.all(np.take(q, cols) > 0.0)
    assert _marginals_match(cells, p, q)


def assert_exact_star(cells, p: list[float], q: list[float]) -> None:
    """``cells`` are the star forced at the index k with the largest exact
    p_k + q_k: column k holds every other p_i and row k every other q_j,
    bit for bit."""
    k = max(range(len(p)), key=lambda i: Fraction(p[i]) + Fraction(q[i]))
    star = sorted(
        [(i, k, p[i]) for i in range(len(p)) if i != k and p[i] > 0.0]
        + [(k, j, q[j]) for j in range(len(q)) if j != k and q[j] > 0.0]
    )
    rows, cols, values = zip(*star)
    assert cells[0].tolist() == list(rows) and cells[1].tolist() == list(cols)
    assert cells[2].tobytes() == np.array(values).tobytes()


class TestCircleCoupling:
    """The circular coupling against the properties that define it."""

    @pytest.mark.parametrize("n", sorted({*SIZES, 10, 64, 1000, 3000}))
    def test_cells_form_a_sparse_zero_diagonal_coupling(self, n):
        rng = np.random.default_rng(n)
        for _ in range(12 if n < 100 else 3 if n < 1000 else 1):
            for kind in ("random", "tight", "near", "ties"):
                if (n, kind) == (2, "near"):
                    continue
                p, q = tied_marginals(rng, n) if kind == "ties" else marginals(rng, n, kind)
                cells = zero_trace_coupling(p, q).cells
                assert_sparse_coupling(cells, p, q)
                if kind == "tight":
                    assert_exact_star(cells, p, q)

    def test_totals_a_rounding_apart_give_positive_cells(self):
        # With the totals 6e-13 apart, the slack index takes the difference
        # and the marginals still match to 1e-12.
        p, q = [0.1 + 3e-13, 0.2 + 3e-13, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1]
        for a, b in ((p, q), (q, p)):
            cells = zero_trace_coupling(a, b).cells
            assert cells[2].min() > 0.0
            assert _marginals_match(cells, a, b)

    def test_a_forced_index_takes_no_cell_on_its_empty_side(self):
        # Index 0 is forced with nothing on one side; what the other indices
        # hold on that side is rounding residue, which it must not take.
        big, residue = [1.0 - 2.0**-52, 2.0**-53, 2.0**-53], [0.0, 0.5, 0.5]
        for p, q in ((residue, big), (big, residue)):
            assert_sparse_coupling(zero_trace_coupling(p, q).cells, p, q)

    def test_a_mass_far_below_the_others_keeps_its_cells(self):
        # Dyadic masses with totals exactly 1: every breakpoint and cell is
        # exact, so each marginal is met bit for bit, 2**-49 included.
        p = [0.25, 2.0**-49, 0.75 - 2.0**-49, 0.0]
        q = [0.375, 0.375, 0.125, 0.125]
        rows, cols, values = zero_trace_coupling(p, q).cells
        assert np.bincount(rows, values, 4).tolist() == p
        assert np.bincount(cols, values, 4).tolist() == q

    def test_units_sum_rounds_as_fsum_over_the_float_range(self):
        rng = np.random.default_rng(13)
        for _ in range(2_000):
            signs = rng.choice([-1.0, 1.0], 50)
            values = (signs * 10.0 ** rng.uniform(-325.0, 300.0, 50)).tolist()
            assert sum(map(_units, values)) / _UNIT == math.fsum(values)


def test_spec_where_the_tail_totals_differ_by_ulps():
    """At n = 10**4 the tail totals here differ by a few ulps; the law is
    still built in one pass and passes the moment check."""
    spec = random_spec(np.random.default_rng(17), 10_000)
    parts = extremal_components(spec)
    p_minus, _, p_plus = parts.table.p
    assert_sparse_coupling(parts.coupling.cells, p_plus.tolist(), p_minus.tolist())
    assert check_moments(parts.joint, spec).passed


@pytest.mark.parametrize("exponent", range(-300, 301, 60))
def test_structured_moments_are_exactly_rounded(exponent):
    """Means and variances of the law against rational arithmetic, to the
    last bit, from a = 1e-300 to a = 1e300 (where the variances overflow)."""
    rng = np.random.default_rng(1000 + exponent)
    for n in (2, 3, 5, 12):
        a = 10.0**exponent
        spec = scaled(random_spec(rng, n), a, a * float(rng.uniform(-10.0, 10.0)))
        parts, tuples = extremal_tuples(spec)
        got = check_moments(parts.joint, spec)
        assert repr(got) == repr(check_moments_by_fractions(tuples, spec))


def test_law_at_n_5000_never_forms_the_dense_coupling(monkeypatch):
    def dense(self):
        raise AssertionError("the dense coupling was formed")

    monkeypatch.setattr(ProbabilityMatrix, "q", property(dense))
    n = 5000
    spec = random_spec(np.random.default_rng(5000), n)
    parts = extremal_components(spec)
    report = check_moments(parts.joint, spec)
    rho = parts.report.rho
    assert len(parts.coupling.cells[2]) <= 2 * n - 1
    assert report.expected_range == expected_range(parts.joint)
    assert abs(report.expected_range - rho) <= 1e-9 * rho
