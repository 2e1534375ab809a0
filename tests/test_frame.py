"""The unit frame: results are affine-equivariant at every offset and scale.

The bound satisfies rho(a mu + b, |a| sigma) = |a| rho(mu, sigma), and the
attaining law of a translated and scaled spec is the translated and scaled
law.  Every solve runs in the spec's unit frame (``scaled_deviations``), so
the whole pipeline must hold at offsets far beyond the spread of the means.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangebounds import MomentSpec, check_moments, extremal_components, rho_bound

#: Ranges of the offset |b| in units of the scale a, one row each.
OFFSETS = [(1e1, 1e2), (1e2, 1e3), (1e3, 1e4), (1e4, 1e5), (1e5, 1e6), (1e5, 1e8)]


def translated_spec(rng: np.random.Generator, low: float, high: float) -> MomentSpec:
    """A general spec with n in 3..59, scale a in [1e-3, 1e3] and an offset
    |b| / a in [low, high] of random sign."""
    n = int(rng.integers(3, 60))
    a = 10.0 ** rng.uniform(-3.0, 3.0)
    offset = 10.0 ** rng.uniform(math.log10(low), math.log10(high))
    b = a * math.copysign(offset, rng.uniform(-1.0, 1.0))
    mu = a * rng.uniform(-3.0, 3.0, n) + b
    sigma = a * rng.uniform(0.2, 2.5, n)
    return MomentSpec(mu=tuple(mu.tolist()), sigma=tuple(sigma.tolist()))


@pytest.mark.parametrize(
    "row", range(len(OFFSETS)), ids=[f"{lo:.0e}-{hi:.0e}" for lo, hi in OFFSETS]
)
def test_translated_specs_build_a_law_that_passes_its_moment_check(row):
    low, high = OFFSETS[row]
    rng = np.random.default_rng([row, 1405])
    for _ in range(25):
        spec = translated_spec(rng, low, high)
        parts = extremal_components(spec)
        assert check_moments(parts.joint, spec).passed
        assert parts.report.residual <= 1e-10


@st.composite
def stress_specs(draw):
    """(spec, reference, a, order): the reference spec z' in the units of
    the unit draw, and the spec a (z' + b/a) with its coordinates permuted
    by ``order``, built exactly.

    The means of z' lie in (-3, 3), so with |shift| >= 4, fl(m + shift) -
    shift is exact (Fast2Sum): the reference is the translated spec moved
    back exactly, and multiplying by a = 2**k is exact as well.
    """
    n = draw(st.integers(3, 12))
    unit = st.floats(-3.0, 3.0, allow_nan=False)
    mu = draw(st.lists(unit, min_size=n, max_size=n))
    sigma = draw(st.lists(st.floats(0.2, 2.5), min_size=n, max_size=n))
    a = math.ldexp(1.0, draw(st.integers(-498, 498)))
    shift = draw(st.one_of(st.just(0.0), st.floats(4.0, 1e8), st.floats(-1e8, -4.0)))
    shifted = [m + shift for m in mu]
    reference = MomentSpec(mu=tuple(s - shift for s in shifted), sigma=tuple(sigma))
    order = draw(st.permutations(range(n)))
    spec = MomentSpec(
        mu=tuple(a * shifted[i] for i in order), sigma=tuple(a * sigma[i] for i in order)
    )
    return spec, reference, a, order


@settings(max_examples=200)
@given(stress_specs())
def test_stress_specs_are_equivariant(case):
    spec, reference, a, order = case
    want = rho_bound(reference)
    report = rho_bound(spec)
    assert abs(report.rho - a * want.rho) <= 4 * math.ulp(a * want.rho)
    position = {old: new for new, old in enumerate(order)}
    moved = [sorted(position[i] for i in group) for group in want.regions.to_json_dict().values()]
    assert moved == [sorted(group) for group in report.regions.to_json_dict().values()]
    parts = extremal_components(spec)
    assert check_moments(parts.joint, spec).passed
