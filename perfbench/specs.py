"""Seeded spec generator for the benchmark workloads.

Every spec is a * z + b, where z is a unit-scale draw (means in [-1, 1],
standard deviations in [0.2, 1.5]) with one of four structures: general
means, equal means, a pair, or a dispersion-tight star.  Coordinates come
in random order.

Specs come in two sets.

* The loop specs, in blocks of nine, are what the timed loop runs.  They
  are at ordinary scale, a in [1e-3, 1e3] and |b| <= 1e3 a, except in
  attain-verify, where a <= 1 and |b| <= 1e2 a keep the values within the
  absolute 1e-10 moment tolerance of ``verify``.  At the parent commit no
  loop spec makes its operation fail.
* The known-defect specs are the inputs on which the parent commit is
  known to fail: stress specs (a in [1e-150, 1e150], |b| <= 1e8 a,
  ROADMAP item 1) in every workload, attain-verify specs with a in
  [10, 1e3] (verify's absolute moment tolerance, item 1), and
  coupling-unique general specs with n >= 20 (the exhaustive uniqueness
  search, item 5).  Every run runs each of them once, after its timed loop,
  and reports how many failed; they are not part of the loop or its counts.

The scales are stratified rather than drawn independently: within a block
each loop slot owns one ninth of the log10(a) range and one ninth of the
b/a range, in a fixed Latin pairing that rotates from block to block, and
the stress exponents and offsets follow golden-ratio sequences with a
seeded start.  The seed moves every value inside its stratum.

A stress spec is built so that it is exactly a * z' + a * k for a power of
two a, with z' = fl(z + k) - k exact; ``ref`` carries the unit-scale spec
z' so that checks can compare rho(spec) with a * rho(z') with no rounding
in the inputs themselves.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass

import numpy as np

SLOTS = 9
_GOLD = (math.sqrt(5.0) - 1.0) / 2.0
_PLASTIC = 0.7548776662466927

#: Per workload, the nine loop slots: (structure, n range).
LAYOUTS: dict[str, tuple[tuple[str, tuple[int, int]], ...]] = {
    "sweep-small": (
        ("general", (3, 5)),
        ("pair", (2, 2)),
        ("general", (6, 9)),
        ("equal", (3, 8)),
        ("general", (10, 13)),
        ("pair", (2, 2)),
        ("general", (14, 16)),
        ("equal", (9, 16)),
        ("general", (3, 16)),
    ),
    # In the next two, most slots share the middle size, so that the median
    # operation is the middle of one cluster of times rather than the edge
    # between two; every size still runs in every block.
    "solve-large": tuple(("general", (n, n)) for n in (300, 1000, 3000, 1000, 300, 1000, 3000, 1000, 1000)),
    "attain-verify": tuple(("general", (n, n)) for n in (50, 150, 150, 150, 400, 150, 150, 150, 150)),
    # Stars have a unique coupling, so perturb_coupling searches all of it:
    # about 0.01 s at n = 8, 0.1 s at n = 14 and 1 s at n = 20.  General
    # specs stay at n <= 8, where the search ends within about 0.15 s even
    # when it is exhaustive from row 0; from n = 10 on it can take seconds
    # to minutes, so larger general specs are known-defect specs.
    "coupling-unique": (
        ("general", (6, 8)),
        ("star", (8, 8)),
        ("general", (6, 8)),
        ("star", (14, 14)),
        ("general", (6, 8)),
        ("general", (6, 8)),
        ("star", (20, 20)),
        ("general", (6, 8)),
        ("general", (6, 8)),
    ),
}

#: log10(a) range and the bound on |b| / a of the loop specs.
SCALE = (-3.0, 3.0, 1e3)
LOOP_SCALE = {"attain-verify": (-3.0, 0.0, 1e2)}

#: Per workload, the known-defect specs: (defect, structure, n).
DEFECTS: dict[str, tuple[tuple[str, str, int], ...]] = {
    "sweep-small": tuple(
        ("stress", structure, lo) for structure, (lo, _) in LAYOUTS["sweep-small"] * 2
    ),
    # n = 300 only: the stress failures depend on scale, not on n.
    "solve-large": (("stress", "general", 300),) * 3,
    "attain-verify": (("stress", "general", 50),) * 2 + (("verify-tolerance", "general", 50),) * 3,
    "coupling-unique": (("stress", "star", 8), ("stress", "general", 8))
    + tuple(("perturb-search", "general", n) for n in (20, 40, 80, 20, 40, 80)),
}

#: The small sizes used to warm a worker up before timing starts.
WARMUP_SLOT = {
    "sweep-small": ("general", (3, 3)),
    "solve-large": ("general", (3, 3)),
    "attain-verify": ("general", (3, 3)),
    "coupling-unique": ("star", (8, 8)),
}


@dataclass(frozen=True)
class Spec:
    """One generated input: the spec, its provenance, and a stress reference.

    ``defect`` names the known defect a known-defect spec meets; it is
    empty for loop specs.
    """

    mu: tuple[float, ...]
    sigma: tuple[float, ...]
    structure: str
    stress: bool
    a: float
    b: float
    ref_mu: tuple[float, ...] | None = None
    ref_sigma: tuple[float, ...] | None = None
    defect: str = ""

    @property
    def n(self) -> int:
        return len(self.mu)

    def to_json(self) -> str:
        return json.dumps({"mu": list(self.mu), "sigma": list(self.sigma)})


def _unit_draw(rng: np.random.Generator, structure: str, n: int):
    """Means and sigmas of z."""
    sigma = rng.uniform(0.2, 1.5, size=n)
    if structure in ("general", "pair"):
        mu = rng.uniform(-1.0, 1.0, size=n)
    elif structure == "equal":
        mu = np.full(n, rng.uniform(-1.0, 1.0))
    elif structure == "star":
        mu = np.full(n, rng.uniform(-1.0, 1.0))
        sigma[0] = math.sqrt(math.fsum(float(s) * float(s) for s in sigma[1:]))
    else:
        raise ValueError(f"unknown structure {structure!r}")
    return [float(v) for v in mu], [float(v) for v in sigma]


def _ordinary(rng, slot, block, structure, n, scale=SCALE, defect="") -> Spec:
    lo, hi, offset = scale
    pair = (slot + block) % SLOTS
    ia, ib = pair, (5 * pair + 2) % SLOTS
    a = 10.0 ** (lo + (hi - lo) * (ia + rng.random()) / SLOTS)
    b = offset * a * (-1.0 + 2.0 * (ib + rng.random()) / SLOTS)
    mu, sigma = _unit_draw(rng, structure, n)
    return Spec(
        mu=tuple(a * m + b for m in mu),
        sigma=tuple(a * s for s in sigma),
        structure=structure,
        stress=False,
        a=a,
        b=b,
        defect=defect,
    )


def _stress(rng, k, phases, structure, n) -> Spec:
    u_exp, u_off = phases
    exponent = round(-498 + 996 * ((u_exp + k * _GOLD) % 1.0))
    a = math.ldexp(1.0, exponent)
    shift = 1e8 * (-1.0 + 2.0 * ((u_off + k * _PLASTIC) % 1.0))
    mu, sigma = _unit_draw(rng, structure, n)
    shifted = [m + shift for m in mu]
    # Fast2Sum: with |shift| >= |m|, fl(m + shift) - shift is exact, so the
    # reference spec is exactly the stress spec translated and scaled by 1/a.
    ref_mu = tuple(s - shift for s in shifted)
    return Spec(
        mu=tuple(a * s for s in shifted),
        sigma=tuple(a * s for s in sigma),
        structure=structure,
        stress=True,
        a=a,
        b=a * shift,
        ref_mu=ref_mu,
        ref_sigma=tuple(sigma),
        defect="stress",
    )


def _rng(workload: str, seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode()), stream])


def make_blocks(workload: str, seed: int, blocks: int, quick: bool = False) -> list[list[Spec]]:
    """``blocks`` blocks of nine loop specs for ``workload``, determined by ``seed``.

    ``quick`` replaces every slot's size with the smallest size the
    workload uses, for smoke tests.
    """
    layout = LAYOUTS[workload]
    if quick:
        smallest = min(lo for _, (lo, _) in layout)
        layout = tuple((s, (smallest, smallest)) for s, _ in layout)
    scale = LOOP_SCALE.get(workload, SCALE)
    rng = _rng(workload, seed, 0)
    return [
        [_ordinary(rng, slot, block, structure, int(rng.integers(lo, hi + 1)), scale)
         for slot, (structure, (lo, hi)) in enumerate(layout)]
        for block in range(blocks)
    ]


def defect_specs(workload: str, seed: int, quick: bool = False) -> list[Spec]:
    """The known-defect specs of ``workload``, determined by ``seed``.

    ``quick`` caps n at 8, for smoke tests.
    """
    rng = _rng(workload, seed, 2)
    phases = (float(rng.random()), float(rng.random()))
    out = []
    for k, (defect, structure, n) in enumerate(DEFECTS[workload]):
        n = min(n, 8) if quick else n
        if defect == "stress":
            out.append(_stress(rng, k, phases, structure, n))
        elif defect == "verify-tolerance":
            out.append(_ordinary(rng, k, 0, structure, n, (1.0, 3.0, 1e3), defect))
        else:
            out.append(_ordinary(rng, k, 0, structure, n, SCALE, defect))
    return out


def warmup_spec(workload: str, seed: int) -> Spec:
    structure, (n, _) = WARMUP_SLOT[workload]
    return _ordinary(_rng(workload, seed, 1), 0, 0, structure, n)


def cli_specs(seed: int, count: int) -> list[Spec]:
    """Small general specs for the cold command-line calls."""
    rng = np.random.default_rng([seed, 7])
    return [_ordinary(rng, i, 0, "general", int(rng.integers(3, 17))) for i in range(count)]
