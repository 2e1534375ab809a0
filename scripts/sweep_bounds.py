"""Sweep one-parameter spec families and tabulate the range bounds.

For every point of the chosen family the script reports the tight bound,
the dispersion bound, the max-stability bound assembled from both tails,
the homogeneous comparison value when it applies, and the certified
infimum floor. Output goes to stdout as an aligned table or, with
``--output``, to a CSV file.

Examples:
    python scripts/sweep_bounds.py --family outlier-mean --n 4 --points 13
    python scripts/sweep_bounds.py --family sample-size --output sweep.csv
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from rangebounds import (
    MomentSpec,
    bnt_max_bound,
    plackett_iid_bound,
    rho_bound,
)

FAMILIES = ("outlier-mean", "outlier-scale", "sample-size")


def family_specs(config: argparse.Namespace):
    """Yield (parameter, spec) pairs for the configured family."""
    if config.family == "sample-size":
        for n in range(2, 2 + config.points):
            yield float(n), MomentSpec(mu=(0.0,) * n, sigma=(1.0,) * n)
        return
    grid = np.linspace(0.0, config.max_value, config.points)
    for t in grid:
        if config.family == "outlier-mean":
            mu = (0.0,) * (config.n - 1) + (float(t),)
            sigma = (1.0,) * config.n
        else:
            mu = (0.0,) * config.n
            sigma = (1.0,) * (config.n - 1) + (1.0 + float(t),)
        yield float(t), MomentSpec(mu=mu, sigma=sigma)


def sweep_rows(config: argparse.Namespace) -> list[dict[str, float | None]]:
    rows: list[dict[str, float | None]] = []
    for t, spec in family_specs(config):
        report = rho_bound(spec)
        flipped = MomentSpec(mu=tuple(-m for m in spec.mu), sigma=spec.sigma)
        bnt = bnt_max_bound(spec)[0] + bnt_max_bound(flipped)[0]
        homogeneous = max(spec.mu) == min(spec.mu) and max(spec.sigma) == min(
            spec.sigma
        )
        plackett = plackett_iid_bound(spec.n, spec.sigma[0]) if homogeneous else None
        rows.append(
            {
                "parameter": t,
                "n": float(spec.n),
                "rho": report.rho,
                "ag": report.ag,
                "bnt_range": bnt,
                "plackett": plackett,
                "infimum": report.infimum,
                "ag_gap": report.ag - report.rho,
            }
        )
    return rows


def write_csv(rows: list[dict[str, float | None]], path: str) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def print_table(rows: list[dict[str, float | None]]) -> None:
    names = list(rows[0])
    print("  ".join(f"{name:>10}" for name in names))
    for row in rows:
        cells = []
        for name in names:
            value = row[name]
            cells.append(f"{'':>10}" if value is None else f"{value:>10.5f}")
        print("  ".join(cells))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", choices=FAMILIES, default="outlier-mean")
    parser.add_argument("--n", type=int, default=4, help="spec dimension")
    parser.add_argument("--points", type=int, default=13)
    parser.add_argument("--max-value", type=float, default=6.0)
    parser.add_argument("--output", help="write CSV here instead of printing")
    args = parser.parse_args(argv)
    if args.n < 2:
        parser.error("n must be at least 2")
    if args.points < 2:
        parser.error("need at least 2 sweep points")
    if not args.max_value > 0.0:
        parser.error("max_value must be positive")
    rows = sweep_rows(args)
    if args.output:
        write_csv(rows, args.output)
        print(f"wrote {len(rows)} rows to {args.output}")
    else:
        print_table(rows)
    limit = 1.0 / math.sqrt(2.0)
    tight = sum(1 for row in rows if row["ag_gap"] <= 1e-8)
    print(
        f"# {tight}/{len(rows)} points dispersion-tight;"
        f" rho/ag floor for balanced pairs of groups is {limit:.6f}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
