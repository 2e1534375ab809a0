"""Command-line front end.

Subcommands:

* ``bound``: tight expected-range bound and comparison figures for a spec.
* ``extremal``: the attaining joint distribution and its coupling matrix.
* ``verify``: rebuild the extremal joint and check moments, exact expected
  range, and a seeded Monte Carlo estimate; exit 0 only if all checks pass.
* ``compare``: one line per bound (tight, sum-of-dispersions, max-based,
  homogeneous i.i.d., greatest lower bound).
* ``paper-examples``: rerun the built-in worked examples against their
  published target values.

Specs are JSON objects {"mu": [...], "sigma": [...]} given via ``--input``
as a file path, ``-`` for stdin, or an inline JSON literal.  Exit codes:
0 success, 1 invalid input, 2 numeric non-convergence.  Reports go to
stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConvergenceError, ValidationError
from .extremal import AttainingJoint, JointDiscreteDistribution, extremal_components
from .objective import MomentSpec
from .solver import DEFAULT_TOL, bnt_max_bound, plackett_iid_bound, rho_bound
from .verify import MomentCheckReport, check_moments, mc_expected_range

__all__ = ["CliConfig", "run", "main"]


@dataclass(frozen=True)
class CliConfig:
    """One parsed invocation.

    ``input_source`` is a path, ``-`` for stdin, or an inline JSON object
    (recognized by a leading ``{``); it is None for commands that need no
    input.
    """

    command: str
    input_source: str | None = None
    tol: float = DEFAULT_TOL
    seed: int = 0
    samples: int = 1_000_000
    format: str = "json"

    def __post_init__(self) -> None:
        if self.command not in _COMMANDS:
            raise ValidationError(f"unknown command {self.command!r}")
        if not (self.tol > 0.0):
            raise ValidationError(f"tol must be positive, got {self.tol}")
        if int(self.samples) < 1:
            raise ValidationError(f"samples must be at least 1, got {self.samples}")
        if self.format not in ("json", "csv"):
            raise ValidationError(f"format must be 'json' or 'csv', got {self.format!r}")


def _read_input(source: str | None) -> dict:
    if source is None:
        raise ValidationError("this command requires --input")
    if source.lstrip().startswith("{"):
        text = source
    elif source == "-":
        text = sys.stdin.read()
    else:
        path = Path(source)
        if not path.is_file():
            raise ValidationError(f"input file not found: {source}")
        text = path.read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("input JSON must be an object")
    return data


def _scalar_rows(payload: dict, prefix: str = "") -> list[tuple[str, object]]:
    rows: list[tuple[str, object]] = []
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_scalar_rows(value, prefix=f"{name}."))
        elif isinstance(value, (list, tuple)):
            continue
        else:
            rows.append((name, value))
    return rows


def _emit_csv(payload: dict) -> None:
    lines = ["name,value"]
    for name, value in _scalar_rows(payload):
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif value is None:
            text = ""
        else:
            text = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{name},{text}")
    sys.stdout.write("\n".join(lines) + "\n")


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "csv":
        _emit_csv(payload)
    else:
        # json.dumps uses repr for floats: shortest round-trip, at most 17
        # significant digits, so identical inputs give byte-identical output.
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _spec_from_data(data: dict) -> MomentSpec:
    subset = {key: data[key] for key in ("mu", "sigma") if key in data}
    return MomentSpec.from_json_dict(subset)


def _run_bound(config: CliConfig) -> int:
    spec = MomentSpec.from_json_dict(_read_input(config.input_source))
    report = rho_bound(spec, tol=config.tol)
    _emit(report.to_json_dict(), config.format)
    return 0


def _floatstrs(values: np.ndarray) -> list[str]:
    """Each value as ``json`` writes a float: its repr, or Infinity/NaN."""
    return [repr(v) if math.isfinite(v) else json.dumps(v) for v in values.tolist()]


def _nested(rows: list[list[str]], depth: int) -> str:
    """A list of lists of JSON values, laid out as ``json.dumps(indent=2)``
    lays it out ``depth`` levels deep."""
    outer = "\n" + "  " * (depth + 1)
    inner = "\n" + "  " * (depth + 2)
    items = ("[" + inner + ("," + inner).join(row) + outer + "]" for row in rows)
    return "[" + outer + ("," + outer).join(items) + "\n" + "  " * depth + "]"


def _extremal_json(head: dict, joint: AttainingJoint) -> str:
    """``json.dumps({**head, "joint": ..., "coupling": ...}, indent=2)``.

    The attaining law's atoms are x_zero with two entries replaced, so each
    of the 3n points is formatted once and an atom's line reuses the
    strings; the coupling formats only its nonzero cells.
    """
    x_zero = _floatstrs(joint.x_zero)
    x_plus = _floatstrs(joint.x_plus)
    x_minus = _floatstrs(joint.x_minus)
    atoms = []
    for i, j in zip(*(c.tolist() for c in joint.cells)):
        atom = x_zero.copy()
        atom[i] = x_plus[i]
        atom[j] = x_minus[j]
        atoms.append(atom)
    q = joint.coupling.q
    written = (q != 0.0) | np.signbit(q)
    cells = []
    for row, mask in zip(q, written):
        line = ["0.0"] * len(row)
        for j, text in zip(np.flatnonzero(mask).tolist(), _floatstrs(row[mask])):
            line[j] = text
        cells.append(line)
    prob = ",\n      ".join(_floatstrs(np.asarray(joint.prob)))
    return (
        json.dumps(head, indent=2)[:-2]
        + ',\n  "joint": {\n    "support": '
        + _nested(atoms, 2)
        + ',\n    "prob": [\n      '
        + prob
        + '\n    ]\n  },\n  "coupling": {\n    "q": '
        + _nested(cells, 2)
        + "\n  }\n}"
    )


def _run_extremal(config: CliConfig) -> int:
    if config.format == "csv":
        raise ValidationError(
            "extremal output includes a joint distribution and is JSON-only"
        )
    spec = MomentSpec.from_json_dict(_read_input(config.input_source))
    parts = extremal_components(spec, tol=config.tol)
    head = {
        "mu": list(spec.mu),
        "sigma": list(spec.sigma),
        "rho": parts.report.rho,
        "c": parts.report.optimum.c,
        "lambda": parts.report.optimum.lam,
    }
    sys.stdout.write(_extremal_json(head, parts.joint) + "\n")
    return 0


def _joint_agrees(
    joint: JointDiscreteDistribution | AttainingJoint, spec: MomentSpec, rho: float, tol: float
) -> tuple[MomentCheckReport, bool]:
    check = check_moments(joint, spec, tol=tol)
    gap = abs(check.expected_range - rho)
    ok = check.passed and gap <= 1e-9 * (1.0 + rho)
    return check, ok


def _run_verify(config: CliConfig) -> int:
    data = _read_input(config.input_source)
    embedded = None
    if "joint" in data:
        spec = _spec_from_data(data)
        embedded = JointDiscreteDistribution.from_json_dict(data["joint"])
    else:
        spec = MomentSpec.from_json_dict(data)
    moment_tol = max(config.tol, 1e-10)
    parts = extremal_components(spec, tol=config.tol)
    rho = parts.report.rho
    check, rebuilt_ok = _joint_agrees(parts.joint, spec, rho, moment_tol)
    exact = check.expected_range
    estimate, std_error = mc_expected_range(parts.joint, config.samples, seed=config.seed)
    mc_ok = abs(estimate - exact) <= 4.0 * std_error + 1e-12
    embedded_ok: bool | None = None
    if embedded is not None:
        _, embedded_ok = _joint_agrees(embedded, spec, rho, moment_tol)
    passed = rebuilt_ok and mc_ok and embedded_ok is not False
    payload = {
        "rho": rho,
        "expected_range": exact,
        "moment_check": check.to_json_dict(),
        "mc_estimate": estimate,
        "mc_std_error": std_error,
        "embedded_joint_pass": embedded_ok,
        "pass": passed,
    }
    _emit(payload, config.format)
    return 0 if passed else 1


def _homogeneous(spec: MomentSpec) -> bool:
    return max(spec.mu) == min(spec.mu) and max(spec.sigma) == min(spec.sigma)


def _run_compare(config: CliConfig) -> int:
    spec = MomentSpec.from_json_dict(_read_input(config.input_source))
    report = rho_bound(spec, tol=config.tol)
    flipped = MomentSpec(mu=tuple(-m for m in spec.mu), sigma=spec.sigma)
    bnt_range = bnt_max_bound(spec)[0] + bnt_max_bound(flipped)[0]
    plackett = (
        plackett_iid_bound(spec.n, spec.sigma[0]) if _homogeneous(spec) else None
    )
    payload = {
        "rho": report.rho,
        "ag": report.ag,
        "bnt_range": bnt_range,
        "plackett": plackett,
        "infimum": report.infimum,
    }
    _emit(payload, config.format)
    return 0


def _range_distribution(joint: AttainingJoint) -> list[tuple[float, float]]:
    """Distinct range values with masses, merging values within 1e-9."""
    pairs = sorted(
        (max(vec) - min(vec), p) for vec, p in zip(joint.support, joint.prob)
    )
    merged: list[list[float]] = []
    for value, mass in pairs:
        if merged and value - merged[-1][0] <= 1e-9:
            merged[-1][1] += mass
        else:
            merged.append([value, mass])
    return [(v, m) for v, m in merged]


def _atom_table_error(
    joint: AttainingJoint, expected: list[tuple[tuple[float, ...], float]]
) -> float:
    """Worst coordinate or mass deviation against an expected atom table."""
    if len(joint.support) != len(expected):
        return math.inf
    worst = 0.0
    used = [False] * len(expected)
    for vec, mass in zip(joint.support, joint.prob):
        best_idx = -1
        best_dev = math.inf
        for idx, (evec, _) in enumerate(expected):
            if used[idx]:
                continue
            dev = max(abs(a - b) for a, b in zip(vec, evec))
            if dev < best_dev:
                best_dev = dev
                best_idx = idx
        if best_idx < 0:
            return math.inf
        used[best_idx] = True
        worst = max(worst, best_dev, abs(mass - expected[best_idx][1]))
    return worst


def _case_rows() -> list[dict]:
    rows: list[dict] = []

    def add(case: str, quantity: str, target: float, value: float, tol: float) -> None:
        rows.append(
            {
                "case": case,
                "quantity": quantity,
                "target": target,
                "value": value,
                "tol": tol,
                "pass": abs(value - target) <= tol,
            }
        )

    # Three means in arithmetic progression where the sum-of-dispersions
    # bound is itself tight and the attaining joint is unique.
    spec = MomentSpec(mu=(-1.0, 0.0, 1.0), sigma=(1.0, math.sqrt(3.0), math.sqrt(2.0)))
    parts = extremal_components(spec)
    add("ag-tight-triple", "ag", 4.0, parts.report.ag, 1e-10)
    targets_plus = (0.0, 3.0 / 8.0, 5.0 / 8.0)
    targets_minus = (0.5, 3.0 / 8.0, 1.0 / 8.0)
    add(
        "ag-tight-triple",
        "p-plus-max-error",
        0.0,
        max(abs(a - b) for a, b in zip(parts.p_plus, targets_plus)),
        1e-9,
    )
    add(
        "ag-tight-triple",
        "p-minus-max-error",
        0.0,
        max(abs(a - b) for a, b in zip(parts.p_minus, targets_minus)),
        1e-9,
    )
    atoms = [
        ((-2.0, 2.0, 0.0), 0.25),
        ((-2.0, 0.0, 2.0), 0.25),
        ((0.0, -2.0, 2.0), 0.375),
        ((0.0, 2.0, -2.0), 0.125),
    ]
    add(
        "ag-tight-triple",
        "joint-max-error",
        0.0,
        _atom_table_error(parts.joint, atoms),
        1e-9,
    )

    # A triple with one large central dispersion: the tight bound sits
    # strictly below the sum-of-dispersions bound and the range of the
    # attaining joint takes two distinct values.
    spec = MomentSpec(mu=(-2.0, 0.0, 2.0), sigma=(1.0, 3.0, 1.0))
    parts = extremal_components(spec)
    add("asymmetric-spread-triple", "lambda", 1.737, parts.report.optimum.lam, 1e-3)
    add("asymmetric-spread-triple", "rho", 6.066, parts.report.rho, 1e-3)
    add("asymmetric-spread-triple", "ag", math.sqrt(38.0), parts.report.ag, 1e-3)
    ranges = _range_distribution(parts.joint)
    if len(ranges) == 2:
        (low_val, low_mass), (high_val, high_mass) = ranges
    else:
        low_val = low_mass = high_val = high_mass = math.inf
    add("asymmetric-spread-triple", "range-low", 5.542, low_val, 1e-3)
    add("asymmetric-spread-triple", "prob-low", 0.254, low_mass, 1e-3)
    add("asymmetric-spread-triple", "range-high", 6.245, high_val, 1e-3)
    add("asymmetric-spread-triple", "prob-high", 0.746, high_mass, 1e-3)

    # Equal means, equal dispersions.
    spec = MomentSpec(mu=(0.0, 0.0, 0.0), sigma=(1.0, 1.0, 1.0))
    add("homogeneous-triple", "rho", math.sqrt(6.0), rho_bound(spec).rho, 1e-8)

    # Equal means with one dispersion dominating the rest combined.
    spec = MomentSpec(mu=(0.0, 0.0, 0.0), sigma=(1.0, 1.0, 3.0))
    add(
        "equal-means-big-outlier",
        "rho",
        3.0 + math.sqrt(2.0),
        rho_bound(spec).rho,
        1e-8,
    )

    # Two groups of two with opposite means, unit dispersions.
    spec = MomentSpec(mu=(-2.0, -2.0, 2.0, 2.0), sigma=(1.0, 1.0, 1.0, 1.0))
    add("two-balanced-groups", "rho", 6.0, rho_bound(spec).rho, 1e-6)

    # Three zero means and one outlying mean, unit dispersions: the optimal
    # center must satisfy a one-variable stationarity identity and the bound
    # has a two-term closed form in that center.
    spec = MomentSpec(mu=(0.0, 0.0, 0.0, 3.0), sigma=(1.0, 1.0, 1.0, 1.0))
    report = rho_bound(spec)
    c0 = report.optimum.c
    stationarity = c0 * math.sqrt(3.0) / math.sqrt(c0 * c0 + 1.0) - (3.0 - c0) / math.sqrt(
        (3.0 - c0) ** 2 + 1.0
    )
    form = math.sqrt(3.0 * (c0 * c0 + 1.0)) + math.sqrt((3.0 - c0) ** 2 + 1.0)
    add("single-outlier-mean", "stationarity-residual", 0.0, stationarity, 1e-6)
    add("single-outlier-mean", "rho-form-gap", 0.0, report.rho - form, 1e-6)
    return rows


def _run_paper_examples(config: CliConfig) -> int:
    rows = _case_rows()
    all_pass = all(r["pass"] for r in rows)
    if config.format == "csv":
        payload = {f"{r['case']}.{r['quantity']}": r["value"] for r in rows}
    else:
        payload = {"cases": rows}
    _emit({**payload, "pass": all_pass}, config.format)
    return 0 if all_pass else 1


#: Every command, in the order of ``--help``: its runner and its help line.
_COMMANDS = {
    "bound": (_run_bound, "compute the tight expected-range bound for a moment spec"),
    "extremal": (_run_extremal, "construct the attaining joint distribution"),
    "verify": (_run_verify, "rebuild and numerically check the attaining joint"),
    "compare": (_run_compare, "tabulate the tight bound against comparison bounds"),
    "paper-examples": (_run_paper_examples, "rerun the built-in worked examples against targets"),
}


def run(config: CliConfig) -> int:
    """Execute one configured invocation; returns the process exit code."""
    return _COMMANDS[config.command][0](config)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with status 1, not 2."""

    def error(self, message: str):  # noqa: D401 (argparse hook)
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="rangebounds",
        description="Tight bounds on the expected range of dependent random variables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p.add_argument(
            "--input",
            default=None,
            help="spec as a file path, '-' for stdin, or an inline JSON object",
        )
        p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="solver tolerance")
        p.add_argument("--seed", type=int, default=CliConfig.seed, help="Monte Carlo seed")
        p.add_argument(
            "--samples", type=int, default=CliConfig.samples, help="Monte Carlo sample count"
        )
        p.add_argument(
            "--format", choices=("json", "csv"), default=CliConfig.format, help="output format"
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(_build_parser().parse_args(argv))
    try:
        return run(CliConfig(input_source=args.pop("input"), **args))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"error: failed to converge: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
