import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import perturb_coupling_by_search, random_spec
from rangebounds import (
    InfeasibleCouplingError,
    JointDiscreteDistribution,
    MomentSpec,
    ProbabilityMatrix,
    RangeBoundsError,
    ValidationError,
    extremal_components,
    perturb_coupling,
    zero_trace_coupling,
)
from rangebounds import extremal


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
        assert mixed.trace == 0.5
        assert mixed.row_marginals.tolist() == mixed.col_marginals.tolist() == [0.5, 0.5]

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


def cyclic_matrix(v):
    """The n x n matrix with v[i] at cell (i, i + 1 mod n): zero diagonal,
    and its entries are exactly those of v."""
    n = len(v)
    q = np.zeros((n, n))
    q[np.arange(n), (np.arange(n) + 1) % n] = v
    return q


def accepts(construct) -> bool:
    """Whether ``construct()`` returns; a ``RangeBoundsError`` means it
    rejected its input, and any other exception fails the test."""
    try:
        construct()
    except RangeBoundsError:
        return False
    return True


def meets_contract(v) -> bool:
    return (
        all(map(math.isfinite, v))
        and min(v) >= 0.0
        and abs(math.fsum(v) - 1.0) <= 1e-12
    )


def probability_vectors(n):
    """Probability vectors of length n: positive weights over their sum."""
    return st.lists(st.integers(1, 1000), min_size=n, max_size=n).map(
        lambda w: [x / sum(w) for x in w]
    )


#: One entry replaced by a value the contract must judge.
BAD_ENTRIES = [math.nan, math.inf, -math.inf, -1e-13, -1e-300, -0.5, -0.0, 0.0]


@st.composite
def judged_vectors(draw, n=None):
    """A probability vector, perhaps with one entry replaced by an odd
    value, or moved by k 1e-13 so that its sum lands on either side of the
    contract's 1e-12."""
    n = n or draw(st.integers(2, 7))
    v = draw(probability_vectors(n))
    i = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(["keep", "replace", "shift"]))
    if kind == "replace":
        bad = draw(st.sampled_from(BAD_ENTRIES))
        if math.isfinite(bad):
            # Another entry takes up the difference, so the sum stays 1.
            v[(i + 1) % n] += v[i] - bad
        v[i] = bad
    elif kind == "shift":
        v[i] += draw(st.integers(-20, 20)) * 1e-13
    return v


class TestProbabilityContract:
    """One rule for every probability vector and matrix: finite entries,
    none negative, ``math.fsum`` within 1e-12 of 1."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["p", "q"])
    def test_non_finite_marginals_raise_validation_error(self, bad, side):
        good = [0.5, 0.25, 0.25]
        p, q = [bad, 0.5, 0.5], list(good)
        if side == "q":
            p, q = q, p
        with pytest.raises(ValidationError, match=f"^{side} must be finite"):
            zero_trace_coupling(p, q)

    @pytest.mark.parametrize("side", ["p", "q"])
    def test_a_sum_off_by_1e_10_is_rejected_up_front(self, side):
        off, good = [0.5 + 1e-10, 0.25, 0.25], [0.25, 0.5, 0.25]
        p, q = (off, good) if side == "p" else (good, off)
        with pytest.raises(ValidationError, match=f"^{side} sums to"):
            zero_trace_coupling(p, q)

    def test_tiny_negatives_are_rejected_not_clamped(self):
        with pytest.raises(ValidationError, match="^p must be nonnegative"):
            zero_trace_coupling([0.5, 0.5, -1e-13], [0.25, 0.25, 0.5])
        with pytest.raises(ValidationError, match="^q must be nonnegative"):
            ProbabilityMatrix(q=[[0.0, 0.5], [0.5, -1e-16]])

    def test_non_numeric_input_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="^p must be a vector of numbers"):
            zero_trace_coupling([[0.5, 0.5]], [0.5, 0.5])
        with pytest.raises(ValidationError, match="^q must be a square matrix of numbers"):
            ProbabilityMatrix(q=[[0.0, 1.0], [0.0]])
        with pytest.raises(ValidationError, match="^support must be a sequence"):
            JointDiscreteDistribution(support=(0.0, 1.0), prob=(0.5, 0.5))

    @pytest.mark.parametrize("n", [3, 60, 2000])
    def test_marginals_at_the_edges_are_met(self, n):
        """Totals 7.4e-13 apart, and a pair p_0 + q_0 forced although it
        falls (n - 1) eps short of the total, pass the checks up front and
        then meet both marginals to 1e-12."""
        rng = np.random.default_rng(n)
        p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        p[0] += 3.7e-13
        q[0] -= 3.7e-13
        gap = (n - 1) * 2.0**-52
        star = [0.5] + [0.5 / (n - 1)] * (n - 1)
        near = [0.5 - gap] + [(0.5 + gap) / (n - 1)] * (n - 1)
        for a, b in ((p.tolist(), q.tolist()), (star, near)):
            for a, b in ((a, b), (b, a)):
                assert extremal._marginals_match(zero_trace_coupling(a, b).cells, a, b)

    def test_perturbation_keeps_a_tiny_mass_bit_for_bit(self):
        """A cell of 2**-60 outside the exchange cycle is carried over as it
        is; the marginals of the perturbation equal the input's exactly.
        (0.25 - 2**-60 rounds to 0.25, so the total is 1 + 2**-60, within
        the contract.)"""
        t = 2.0**-60
        q = np.array(
            [[0, 0.25, 0.25 - t, t], [0.25, 0, 0, 0], [0, 0.25, 0, 0], [0, 0, 0, 0]]
        )
        matrix = ProbabilityMatrix(q=q)
        other = perturb_coupling(matrix)
        assert other is not None
        assert other.q.tolist() == [
            [0.0, 0.5, 0.0, t], [0.0, 0.0, 0.25, 0.0], [0.25, 0.0, 0.0, 0.0], [0.0] * 4
        ]
        assert other.row_marginals.tolist() == matrix.row_marginals.tolist()
        assert other.col_marginals.tolist() == matrix.col_marginals.tolist()

    def test_a_failed_coupling_check_raises(self, monkeypatch):
        """The marginal check guards the construction itself: cells that
        miss a marginal raise rather than return."""
        def misplaced(p, q):
            return np.array([0, 1]), np.array([1, 0]), np.array([0.5, 0.5])

        monkeypatch.setattr(extremal, "_coupling_on_a_circle", misplaced)
        with pytest.raises(InfeasibleCouplingError, match="marginal check"):
            zero_trace_coupling([0.25, 0.75], [0.75, 0.25])

    def test_a_failed_shift_raises(self, monkeypatch):
        """A cycle whose giving cells hold nothing shifts nothing; the check
        after the shift raises rather than return the input as another
        coupling.  The cycle runs through rows 0, 1 and columns 0, 1, which
        are nodes 3 and 4."""
        monkeypatch.setattr(extremal, "_exchange_cycle", lambda positive: [0, 3, 1, 4])
        q = np.zeros((3, 3))
        q[0, 1] = q[1, 2] = q[2, 0] = 1.0 / 3.0
        with pytest.raises(ValidationError, match="failed the marginal check"):
            perturb_coupling(ProbabilityMatrix(q=q))

    @settings(max_examples=400)
    @given(judged_vectors())
    def test_constructors_accept_the_same_vectors(self, v):
        """The coupling's marginals, a matrix's entries and a joint law's
        masses are judged by one rule.  The coupling is asked for marginals
        v and v rotated, whose totals are equal and which always admit a
        zero-diagonal coupling, so only the contract can reject them."""
        n = len(v)
        verdicts = {
            accepts(lambda: zero_trace_coupling(v, v[1:] + v[:1])),
            accepts(lambda: ProbabilityMatrix(q=cyclic_matrix(v))),
            accepts(
                lambda: JointDiscreteDistribution(
                    support=tuple((float(i),) for i in range(n)), prob=v
                )
            ),
        }
        assert verdicts == {meets_contract(v)}

    @settings(max_examples=400)
    @given(st.data())
    def test_only_typed_errors_escape(self, data):
        """Odd marginals, matrices and laws raise ``RangeBoundsError`` or
        nothing; accepted marginals never fail the coupling's own check,
        and every coupling and perturbation meets its marginals."""
        p = data.draw(judged_vectors())
        shape = data.draw(st.sampled_from(["same", "other", "short", "nested"]))
        if shape == "same":
            q = data.draw(judged_vectors(len(p)))
        elif shape == "other":
            q = data.draw(judged_vectors())
        elif shape == "short":
            q = p[:-1]
        else:
            q = [p]
        try:
            matrix = zero_trace_coupling(p, q)
        except InfeasibleCouplingError as exc:
            assert "marginal check" not in str(exc)
        except RangeBoundsError:
            pass
        else:
            assert matrix.is_zero_trace()
            assert extremal._marginals_match(matrix.cells, p, q)
            other = perturb_coupling(matrix)
            if other is not None:
                assert_valid_perturbation(matrix, other)
        for q in (np.array(p), np.array([p, p]), cyclic_matrix(p)[None], [p, p[:-1]]):
            if accepts(lambda: ProbabilityMatrix(q=q)):
                matrix = ProbabilityMatrix(q=q)
                if accepts(lambda: perturb_coupling(matrix)):
                    other = perturb_coupling(matrix)
                    if other is not None:
                        assert_valid_perturbation(matrix, other)
        for support in ((0.0,) * len(p), [[float(i)] for i in range(len(p) + 1)], "ab"):
            accepts(lambda: JointDiscreteDistribution(support=support, prob=p))
        accepts(lambda: perturb_coupling(p))
