import math

import numpy as np
import pytest

from _oracles import perturb_coupling_by_search, random_spec
from rangebounds import (
    InfeasibleCouplingError,
    JointDiscreteDistribution,
    MomentSpec,
    ProbabilityMatrix,
    ValidationError,
    extremal_components,
    perturb_coupling,
    zero_trace_coupling,
)


def star_matrix(rng, n, center=0):
    """A zero-diagonal matrix supported on one row and the same column: the
    shape of the forced coupling, which no other coupling shares."""
    q = np.zeros((n, n))
    others = [k for k in range(n) if k != center]
    q[others, center] = rng.uniform(0.1, 1.0, n - 1)
    q[center, others] = rng.uniform(0.1, 1.0, n - 1)
    return ProbabilityMatrix(q=q / q.sum())


def star_spec(rng, n):
    """Equal means with sigma_0**2 the sum of the other variances: the tail
    masses of coordinate 0 sum to 1, which forces the coupling."""
    sigma = rng.uniform(0.2, 1.5, n)
    sigma[0] = math.sqrt(math.fsum(float(s) ** 2 for s in sigma[1:]))
    return MomentSpec(mu=(float(rng.uniform(-1.0, 1.0)),) * n, sigma=tuple(sigma.tolist()))


def assert_valid_perturbation(matrix, other):
    assert float(other.q.min()) >= 0.0
    assert other.is_zero_trace()
    np.testing.assert_allclose(other.row_marginals, matrix.row_marginals, rtol=0, atol=1e-12)
    np.testing.assert_allclose(other.col_marginals, matrix.col_marginals, rtol=0, atol=1e-12)
    assert not np.array_equal(other.q, matrix.q)


def feasible_marginals(rng, n):
    """Random probability vectors with max_i (p_i + q_i) strictly below 1."""
    while True:
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        if np.max(p + q) <= 0.95:
            return p.tolist(), q.tolist()


class TestProbabilityMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            ProbabilityMatrix(q=np.ones((2, 3)) / 6.0)

    def test_rejects_negative_entries(self):
        q = np.array([[0.0, 0.6], [0.5, -0.1]])
        with pytest.raises(ValidationError):
            ProbabilityMatrix(q=q)

    def test_rejects_mass_away_from_one(self):
        with pytest.raises(ValidationError):
            ProbabilityMatrix(q=np.array([[0.0, 0.3], [0.3, 0.0]]))

    def test_entries_read_only(self):
        matrix = ProbabilityMatrix(q=np.array([[0.0, 0.5], [0.5, 0.0]]))
        with pytest.raises(ValueError):
            matrix.q[0, 0] = 1.0

    def test_trace_helpers(self):
        off = ProbabilityMatrix(q=np.array([[0.0, 0.5], [0.5, 0.0]]))
        assert off.is_zero_trace()
        assert off.trace == 0.0
        mixed = ProbabilityMatrix(q=np.array([[0.25, 0.25], [0.25, 0.25]]))
        assert not mixed.is_zero_trace()

    def test_json_round_trip(self):
        matrix = ProbabilityMatrix(q=np.array([[0.0, 0.5], [0.5, 0.0]]))
        again = ProbabilityMatrix.from_json_dict(matrix.to_json_dict())
        np.testing.assert_array_equal(again.q, matrix.q)


class TestJointDiscreteDistribution:
    def test_rejects_empty_support(self):
        with pytest.raises(ValidationError):
            JointDiscreteDistribution(support=(), prob=())

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValidationError):
            JointDiscreteDistribution(support=((0.0, 1.0),), prob=(0.5, 0.5))

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValidationError):
            JointDiscreteDistribution(
                support=((0.0, 1.0), (0.0, 1.0, 2.0)), prob=(0.5, 0.5)
            )

    def test_rejects_duplicate_support_vectors(self):
        with pytest.raises(ValidationError):
            JointDiscreteDistribution(
                support=((0.0, 1.0), (0.0, 1.0)), prob=(0.5, 0.5)
            )

    def test_rejects_unnormalized_mass(self):
        with pytest.raises(ValidationError):
            JointDiscreteDistribution(support=((0.0, 1.0),), prob=(0.7,))

    def test_json_round_trip(self):
        joint = JointDiscreteDistribution(
            support=((0.0, 1.0), (1.0, 0.0)), prob=(0.25, 0.75)
        )
        again = JointDiscreteDistribution.from_json_dict(joint.to_json_dict())
        assert again == joint


class TestZeroTraceCoupling:
    def test_reproduces_marginals_with_zero_diagonal(self):
        rng = np.random.default_rng(40)
        for n in range(3, 9):
            for _ in range(12):
                p, q = feasible_marginals(rng, n)
                matrix = zero_trace_coupling(p, q)
                assert matrix.is_zero_trace()
                assert float(matrix.q.min()) >= 0.0
                np.testing.assert_allclose(matrix.row_marginals, p, atol=1e-12)
                np.testing.assert_allclose(matrix.col_marginals, q, atol=1e-12)

    def test_uniform_marginals_admit_derangement(self):
        matrix = zero_trace_coupling([1 / 3] * 3, [1 / 3] * 3)
        assert matrix.is_zero_trace()
        np.testing.assert_allclose(matrix.row_marginals, [1 / 3] * 3, atol=1e-12)
        np.testing.assert_allclose(matrix.col_marginals, [1 / 3] * 3, atol=1e-12)

    def test_forced_triple_matches_published_matrix(self):
        p = [0.0, 3.0 / 8.0, 5.0 / 8.0]
        q = [1.0 / 2.0, 3.0 / 8.0, 1.0 / 8.0]
        matrix = zero_trace_coupling(p, q)
        expected = np.array(
            [
                [0.0, 0.0, 0.0],
                [0.25, 0.0, 0.125],
                [0.25, 0.375, 0.0],
            ]
        )
        np.testing.assert_allclose(matrix.q, expected, atol=1e-12)

    def test_equality_case_fully_determined(self):
        """When p_k + q_k = 1, every other row is forced into column k and
        row k fills the remaining columns."""
        p = [0.5, 0.3, 0.2]
        q = [0.5, 0.25, 0.25]
        matrix = zero_trace_coupling(p, q)
        expected = np.array(
            [
                [0.0, 0.25, 0.25],
                [0.3, 0.0, 0.0],
                [0.2, 0.0, 0.0],
            ]
        )
        np.testing.assert_allclose(matrix.q, expected, atol=1e-12)
        assert perturb_coupling(matrix) is None

    def test_pair_anti_diagonal(self):
        matrix = zero_trace_coupling([0.3, 0.7], [0.7, 0.3])
        np.testing.assert_allclose(
            matrix.q, np.array([[0.0, 0.3], [0.7, 0.0]]), atol=1e-12
        )

    def test_zero_mass_indices_allowed(self):
        matrix = zero_trace_coupling([0.0, 0.5, 0.5], [0.5, 0.25, 0.25])
        assert matrix.is_zero_trace()
        np.testing.assert_allclose(matrix.row_marginals, [0.0, 0.5, 0.5], atol=1e-12)

    def test_infeasible_marginals_raise_with_witness_index(self):
        with pytest.raises(InfeasibleCouplingError, match="index 0"):
            zero_trace_coupling([0.6, 0.4], [0.6, 0.4])

    def test_rejects_invalid_vectors(self):
        with pytest.raises(ValidationError):
            zero_trace_coupling([0.5, 0.6], [0.5, 0.5])
        with pytest.raises(ValidationError):
            zero_trace_coupling([-0.1, 1.1], [0.5, 0.5])
        with pytest.raises(ValidationError):
            zero_trace_coupling([0.5, 0.5], [1.0])

    def test_deterministic(self):
        rng = np.random.default_rng(41)
        p, q = feasible_marginals(rng, 5)
        np.testing.assert_array_equal(
            zero_trace_coupling(p, q).q, zero_trace_coupling(p, q).q
        )


class TestPerturbCoupling:
    def test_cyclic_coupling_is_not_unique(self):
        q = np.zeros((3, 3))
        q[0, 1] = q[1, 2] = q[2, 0] = 1.0 / 3.0
        matrix = ProbabilityMatrix(q=q)
        other = perturb_coupling(matrix)
        assert other is not None
        assert not np.array_equal(other.q, matrix.q)
        assert other.is_zero_trace()
        np.testing.assert_allclose(
            other.q.sum(axis=1), matrix.q.sum(axis=1), atol=1e-12
        )
        np.testing.assert_allclose(
            other.q.sum(axis=0), matrix.q.sum(axis=0), atol=1e-12
        )

    def test_forced_triple_certified_unique(self):
        q = np.array(
            [
                [0.0, 0.0, 0.0],
                [0.25, 0.0, 0.125],
                [0.25, 0.375, 0.0],
            ]
        )
        assert perturb_coupling(ProbabilityMatrix(q=q)) is None

    def test_pair_coupling_certified_unique(self):
        matrix = ProbabilityMatrix(q=np.array([[0.0, 0.3], [0.7, 0.0]]))
        assert perturb_coupling(matrix) is None

    def test_single_two_sided_coordinate_forces_uniqueness(self):
        """With exactly one coordinate carrying both tails, the coupling's
        support sits in one row plus one column, which admits no
        rebalancing cycle."""
        spec = MomentSpec(mu=(0.0, 0.0, 0.0), sigma=(1.0, 1.0, 3.0))
        parts = extremal_components(spec)
        assert list(parts.report.regions.i1) == [2]
        assert perturb_coupling(parts.coupling) is None

    def test_rejects_nonzero_trace(self):
        matrix = ProbabilityMatrix(q=np.array([[0.25, 0.25], [0.25, 0.25]]))
        with pytest.raises(ValidationError):
            perturb_coupling(matrix)

    def test_agrees_with_exhaustive_search(self):
        """The star test and the exhaustive cycle search agree on whether
        another coupling exists: on every zero-diagonal positivity pattern
        at n = 2-4, on random sparse matrices, on star matrices, and on the
        couplings of star and general specs."""
        rng = np.random.default_rng(97)
        matrices = []
        for n in range(2, 5):
            cells = [(i, j) for i in range(n) for j in range(n) if i != j]
            for pattern in range(1, 1 << len(cells)):
                q = np.zeros((n, n))
                for bit, cell in enumerate(cells):
                    if pattern >> bit & 1:
                        q[cell] = 1.0 + bit
                matrices.append(ProbabilityMatrix(q=q / q.sum()))
        patterns = len(matrices)
        while len(matrices) < patterns + 1000:
            n = int(rng.integers(2, 9))
            q = np.where(rng.random((n, n)) < rng.uniform(0.05, 0.6), rng.random((n, n)), 0.0)
            np.fill_diagonal(q, 0.0)
            if q.sum() > 0.0:
                matrices.append(ProbabilityMatrix(q=q / q.sum()))
        for _ in range(40):
            n = int(rng.integers(2, 9))
            matrices.append(star_matrix(rng, n, center=int(rng.integers(n))))
            matrices.append(extremal_components(star_spec(rng, max(n, 3))).coupling)
            matrices.append(extremal_components(random_spec(rng)).coupling)
        unique = 0
        for matrix in matrices:
            other = perturb_coupling(matrix)
            assert (other is None) == (perturb_coupling_by_search(matrix.q) is None)
            if other is None:
                unique += 1
            else:
                assert_valid_perturbation(matrix, other)
        # Both verdicts are well represented.
        assert 200 < unique < len(matrices) - 200

    def test_large_star_certified_without_recursion(self):
        """A forced coupling at n = 600: the star test reads the verdict off
        the positivity pattern in O(n**2) with no search, so neither the
        recursion limit nor the size stops it."""
        rng = np.random.default_rng(5)
        assert perturb_coupling(star_matrix(rng, 600, center=17)) is None

    def test_large_general_spec_perturbed(self):
        rng = np.random.default_rng(11)
        coupling = extremal_components(random_spec(rng, n=80)).coupling
        other = perturb_coupling(coupling)
        assert other is not None
        assert_valid_perturbation(coupling, other)
