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
as a file path, ``-`` for stdin, or an inline JSON literal.  Each command
takes only the flags it reads (``_COMMANDS``); any other flag is a usage
error.  Exit codes: 0 success, 1 invalid input or usage, 2 numeric
non-convergence.  Reports go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import ConvergenceError, ValidationError
from .extremal import AttainingJoint, JointDiscreteDistribution, extremal_components
from .objective import MomentSpec
from .solver import bnt_range, plackett_iid_bound, rho_bound
from .verify import MomentCheckReport, check_moments, mc_expected_range

__all__ = ["main"]


def _read_input(source: str) -> dict:
    if source == "-":
        text, missing = sys.stdin.read(), None
    elif source.lstrip().startswith("{"):
        text, missing = source, None
    else:
        try:
            text, missing = Path(source).read_text(), None
        except OSError:
            # Inline JSON that is not an object, or the path of no file.
            text, missing = source, f"input file not found: {source}"
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(missing or f"input is not valid JSON: {exc}") from exc
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


def _run_bound(args: argparse.Namespace) -> int:
    spec = MomentSpec.from_json_dict(_read_input(args.input))
    report = rho_bound(spec)
    _emit(report.to_json_dict(), args.format)
    return 0


def _floatstrs(values: np.ndarray) -> list[str]:
    """Each value as ``json`` writes a float: its repr, or Infinity/NaN."""
    return [repr(v) if math.isfinite(v) else json.dumps(v) for v in values.tolist()]


class _Line:
    """``sep.join(entries)``, written out with a few entries replaced."""

    def __init__(self, entries: list[str], sep: str) -> None:
        self.text = sep.join(entries)
        self.gap = len(sep)
        self.starts = [0]
        for e in entries:
            self.starts.append(self.starts[-1] + len(e) + self.gap)

    def write(self, pieces: list[str], changes: list[tuple[int, str]]) -> None:
        """Append the line to ``pieces`` with entry k replaced by ``text``
        for every (k, text) of ``changes``, k increasing."""
        pos = 0
        for k, text in changes:
            pieces += (self.text[pos : self.starts[k]], text)
            pos = self.starts[k + 1] - self.gap
        pieces.append(self.text[pos:])


def _extremal_json(head: dict, joint: AttainingJoint) -> str:
    """``json.dumps({**head, "joint": ..., "coupling": ...}, indent=2) + "\\n"``.

    Written from the law's points and the coupling's cells: an atom's line
    is the line of x_zero with two entries replaced, a row of the coupling
    the line of zeros with its cells replaced, and the pieces are joined
    once, so each point and each cell value is formatted once.
    """
    x_zero = _floatstrs(joint.x_zero)
    x_plus = _floatstrs(joint.x_plus)
    x_minus = _floatstrs(joint.x_minus)
    rows, cols, values = joint.coupling.cells
    rows, cols, masses = rows.tolist(), cols.tolist(), _floatstrs(values)
    by_row: list[list[tuple[int, str]]] = [[] for _ in range(joint.dim)]
    for i, j, text in zip(rows, cols, masses):
        by_row[i].append((j, text))
    # The lists of lists sit two levels deep: a row's entries are indented
    # by 8 spaces and its brackets by 6.
    entry = ",\n        "
    between = "\n      ],\n      [\n        "
    pieces = [
        json.dumps(head, indent=2)[:-2],
        ',\n  "joint": {\n    "support": [\n      [\n        ',
    ]
    atom = _Line(x_zero, entry)
    for k, (i, j) in enumerate(zip(rows, cols)):
        if k:
            pieces.append(between)
        atom.write(pieces, sorted(((i, x_plus[i]), (j, x_minus[j]))))
    pieces += (
        '\n      ]\n    ],\n    "prob": [\n      ',
        ",\n      ".join(masses),
        '\n    ]\n  },\n  "coupling": {\n    "q": [\n      [\n        ',
    )
    zeros = _Line(["0.0"] * joint.dim, entry)
    for i, cells in enumerate(by_row):
        if i:
            pieces.append(between)
        zeros.write(pieces, cells)
    pieces.append("\n      ]\n    ]\n  }\n}\n")
    return "".join(pieces)


def _run_extremal(args: argparse.Namespace) -> int:
    spec = MomentSpec.from_json_dict(_read_input(args.input))
    parts = extremal_components(spec)
    head = {
        "mu": list(spec.mu),
        "sigma": list(spec.sigma),
        "rho": parts.report.rho,
        "c": parts.report.optimum.c,
        "lambda": parts.report.optimum.lam,
    }
    sys.stdout.write(_extremal_json(head, parts.joint))
    return 0


#: Ulps of the largest |mu_i| that a law's expected range may stray from rho
#: on top of 1e-9 rho: the law's points are representable only to that
#: resolution.  On 1,500 general specs translated by 1e5 to 1e8 sigma, the
#: exact expected range of the rebuilt law strayed by less than one.
_ATTAIN_ULPS = 8


def _joint_agrees(
    joint: JointDiscreteDistribution | AttainingJoint, spec: MomentSpec, rho: float
) -> tuple[MomentCheckReport, bool]:
    """The moment check of ``joint`` and whether it passes and attains rho."""
    check = check_moments(joint, spec)
    gap = abs(check.expected_range - rho)
    slack = 1e-9 * rho + _ATTAIN_ULPS * math.ulp(max(map(abs, spec.mu)))
    return check, check.passed and gap <= slack


def _run_verify(args: argparse.Namespace) -> int:
    data = _read_input(args.input)
    spec = MomentSpec.from_json_dict(data)
    embedded = None
    if "joint" in data:
        embedded = JointDiscreteDistribution.from_json_dict(data["joint"])
    parts = extremal_components(spec)
    rho = parts.report.rho
    check, rebuilt_ok = _joint_agrees(parts.joint, spec, rho)
    exact = check.expected_range
    estimate, std_error = mc_expected_range(parts.joint, args.samples, seed=args.seed)
    # The floor covers the rounding of the estimate's own mean when every
    # sampled range is the same and the standard error is 0.
    mc_ok = abs(estimate - exact) <= 4.0 * std_error + 1e-12 * exact
    embedded_ok: bool | None = None
    if embedded is not None:
        _, embedded_ok = _joint_agrees(embedded, spec, rho)
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
    _emit(payload, args.format)
    return 0 if passed else 1


def _homogeneous(spec: MomentSpec) -> bool:
    return max(spec.mu) == min(spec.mu) and max(spec.sigma) == min(spec.sigma)


def _run_compare(args: argparse.Namespace) -> int:
    spec = MomentSpec.from_json_dict(_read_input(args.input))
    report = rho_bound(spec)
    plackett = (
        plackett_iid_bound(spec.n, spec.sigma[0]) if _homogeneous(spec) else None
    )
    payload = {
        "rho": report.rho,
        "ag": report.ag,
        "bnt_range": bnt_range(spec),
        "plackett": plackett,
        "infimum": report.infimum,
    }
    _emit(payload, args.format)
    return 0


def _range_distribution(joint: AttainingJoint) -> list[tuple[float, float]]:
    """Distinct range values with masses, merging values within 1e-9."""
    pairs = sorted(zip(joint.atom_ranges().tolist(), joint.prob))
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
    unused = list(expected)
    for vec, mass in zip(joint.support, joint.prob):
        devs = [max(abs(a - b) for a, b in zip(vec, evec)) for evec, _ in unused]
        k = devs.index(min(devs))
        worst = max(worst, devs[k], abs(mass - unused.pop(k)[1]))
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
        max(abs(a - b) for a, b in zip(parts.table.p[2].tolist(), targets_plus)),
        1e-9,
    )
    add(
        "ag-tight-triple",
        "p-minus-max-error",
        0.0,
        max(abs(a - b) for a, b in zip(parts.table.p[0].tolist(), targets_minus)),
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


def _run_paper_examples(args: argparse.Namespace) -> int:
    rows = _case_rows()
    all_pass = all(r["pass"] for r in rows)
    if args.format == "csv":
        payload = {f"{r['case']}.{r['quantity']}": r["value"] for r in rows}
    else:
        payload = {"cases": rows}
    _emit({**payload, "pass": all_pass}, args.format)
    return 0 if all_pass else 1


def _count(text: str) -> int:
    """An argparse ``type``: the text as an int, refused unless at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


# argparse names the type in "invalid int value: ...".
_count.__name__ = "int"


#: Every flag, in the order of ``--help``: its argparse keywords.
_FLAGS = {
    "input": dict(
        required=True, help="spec as a file path, '-' for stdin, or an inline JSON object"
    ),
    "seed": dict(type=int, default=0, help="Monte Carlo seed"),
    "samples": dict(type=_count, default=1_000_000, help="Monte Carlo sample count"),
    "format": dict(choices=("json", "csv"), default="json", help="output format"),
}

#: Every command, in the order of ``--help``: its runner, the flags it reads
#: and its help line.
_COMMANDS = {
    "bound": (_run_bound, ("input", "format"),
              "compute the tight expected-range bound for a moment spec"),
    "extremal": (_run_extremal, ("input",),
                 "construct the attaining joint distribution"),
    "verify": (_run_verify, ("input", "seed", "samples", "format"),
               "rebuild and numerically check the attaining joint"),
    "compare": (_run_compare, ("input", "format"),
                "tabulate the tight bound against comparison bounds"),
    "paper-examples": (_run_paper_examples, ("format",),
                       "rerun the built-in worked examples against targets"),
}


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with status 1, not 2."""

    def error(self, message: str):  # noqa: D401 (argparse hook)
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: parsing leaves it unchanged, and
    an in-process caller of ``main`` pays for the build only once."""
    parser = _Parser(
        prog="rangebounds",
        description="Tight bounds on the expected range of dependent random variables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags, help_line) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one invocation; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"error: failed to converge: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
