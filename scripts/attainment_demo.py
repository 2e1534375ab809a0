"""Solve one spec end to end and show the distribution that attains the bound.

The script minimizes the dual objective, prints the optimum and the
per-coordinate three-point marginals, assembles the zero-trace coupling and
the joint law, checks the moments, and re-estimates the expected range by
Monte Carlo. It then reports whether the dispersion bound is attained and
whether the coupling is certified unique.

Examples:
    python scripts/attainment_demo.py
    python scripts/attainment_demo.py --mu -2 0 2 --sigma 1 3 1 --samples 200000
"""

from __future__ import annotations

import argparse
import math

from rangebounds import (
    MomentSpec,
    ag_tightness,
    check_moments,
    expected_range,
    extremal_components,
    mc_expected_range,
    perturb_coupling,
)

def show_marginals(parts) -> None:
    print("three-point marginals (support / mass / region):")
    for i, dist in enumerate(parts.marginals):
        support = ", ".join(
            f"{x:+.5f}" for x in (dist.x_minus, dist.x_zero, dist.x_plus)
        )
        masses = ", ".join(
            f"{p:.5f}" for p in (dist.p_minus, dist.p_zero, dist.p_plus)
        )
        print(f"  X[{i}]: ({support})  ({masses})  {dist.region}")


def show_joint(parts) -> None:
    print("joint atoms (outcome / probability / range):")
    for vec, p in zip(parts.joint.support, parts.joint.prob):
        outcome = ", ".join(f"{x:+.5f}" for x in vec)
        print(f"  ({outcome})  p={p:.6f}  range={max(vec) - min(vec):.6f}")


def run(config: argparse.Namespace) -> int:
    spec = MomentSpec(mu=config.mu, sigma=config.sigma)
    parts = extremal_components(spec)
    report = parts.report
    print(f"spec: mu={spec.mu} sigma={spec.sigma}")
    print(
        f"optimum: c={report.optimum.c:.8f} lambda={report.optimum.lam:.8f}"
        f" ({report.method}, residual {report.residual:.2e})"
    )
    print(f"rho = {report.rho:.8f}")
    print(f"ag  = {report.ag:.8f}  (gap {report.ag - report.rho:.2e})")
    print(f"infimum floor = {report.infimum:.8f}")
    print()
    show_marginals(parts)
    print()
    print("zero-trace coupling of the tail masses:")
    for row in parts.coupling.q:
        print("  " + "  ".join(f"{v:.6f}" for v in row))
    print()
    show_joint(parts)
    print()

    exact = expected_range(parts.joint)
    moments = check_moments(parts.joint, spec)
    estimate, se = mc_expected_range(parts.joint, config.samples, seed=config.seed)
    print(f"expected range (exact)       = {exact:.10f}")
    print(f"attainment error |E R - rho| = {abs(exact - report.rho):.2e}")
    print(f"moment check: {'pass' if moments.passed else 'FAIL'}")
    print(
        f"monte carlo ({config.samples} draws): {estimate:.6f}"
        f" +- {se:.6f}  (|err| = {abs(estimate - exact):.6f})"
    )
    print()

    tight, unique, _ = ag_tightness(spec)
    print(f"dispersion bound tight: {tight}")
    if tight:
        print(f"coupling unique: {'yes' if unique else 'no'}")
    rebalanced = perturb_coupling(parts.coupling)
    if rebalanced is None:
        print("the zero-trace coupling is the only one for these tail masses")
    else:
        print("an alternate zero-trace coupling exists for these tail masses")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mu", type=float, nargs="+", default=[-1.0, 0.0, 1.0])
    parser.add_argument(
        "--sigma", type=float, nargs="+", default=[1.0, math.sqrt(3.0), math.sqrt(2.0)]
    )
    parser.add_argument("--samples", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.samples < 1:
        parser.error("samples must be positive")
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
