"""``verify`` on ``extremal``'s own document and on every other form of it.

A document that is byte for byte what ``extremal`` prints for its spec is
checked without being parsed; any other is parsed in full.  On both paths
``verify`` must print what ``_oracles.verify_stdout`` prints for the law
the document holds, with the exit code that goes with the report.
"""

from __future__ import annotations

import copy
import json
import math

import numpy as np
import pytest
from _oracles import verify_stdout
from test_cli import GOLDEN, run_cli

from rangebounds import (
    ConvergenceError,
    JointDiscreteDistribution,
    MomentSpec,
    check_moments,
    extremal,
    extremal_components,
)
from rangebounds.verify import _check_atom_sums

SAMPLES = 200


def _seeded_specs() -> dict[str, MomentSpec]:
    """104 general specs at scales 1e-3 to 1e3 and offsets up to 100 times
    the scale: 96 with n from 3 to 50 and one each at n = 80, 150, 250 and
    400."""
    rng = np.random.default_rng(26)
    sizes = [3, 4, 5, 6, 8, 10, 12, 16, 20, 25, 32, 50] * 8 + [80, 150, 250, 400]
    specs = {}
    for k, n in enumerate(sizes):
        a = 10.0 ** rng.uniform(-3.0, 3.0)
        b = a * rng.uniform(-100.0, 100.0)
        mu = a * rng.uniform(-1.0, 1.0, n) + b
        sigma = a * rng.uniform(0.2, 1.5, n)
        specs[f"seeded-{k}-n{n}"] = MomentSpec(mu=tuple(mu.tolist()), sigma=tuple(sigma.tolist()))
    return specs


SPECS = {**GOLDEN, **_seeded_specs()}


def _indented(data: dict) -> str:
    return json.dumps(data, indent=2) + "\n"


def _variants(document: str) -> dict[str, str]:
    """The document itself and six others that hold the same spec, each
    in another form or with one value changed."""
    data = json.loads(document)
    assert _indented(data) == document
    moved = copy.deepcopy(data)
    atom = moved["joint"]["support"][0]
    atom[0] = math.nextafter(atom[0], math.inf)
    cell = copy.deepcopy(data)
    row = next(r for r in cell["coupling"]["q"] if any(r))
    j = next(j for j, v in enumerate(row) if v)
    row[j] = math.nextafter(row[j], math.inf)
    return {
        "own": document,
        "compact": json.dumps(data),
        "reordered": _indented(dict(reversed(data.items()))),
        "atom-moved-1-ulp": _indented(moved),
        "coupling-cell-changed": _indented(cell),
        "no-trailing-newline": document[:-1],
        "rho-changed": _indented({**data, "rho": math.nextafter(data["rho"], math.inf)}),
    }


def _verify(capsys, text: str) -> tuple[int, str, str]:
    return run_cli(capsys, "verify", "--input", text, "--samples", str(SAMPLES))


@pytest.mark.parametrize(
    "name",
    [
        # verify's Monte Carlo overflows at 1e300, as the goldens record.
        pytest.param(name, marks=pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning"))
        if name == "scale-1e300"
        else name
        for name in sorted(SPECS)
    ],
)
def test_every_form_of_the_document_prints_the_oracle_report(capsys, monkeypatch, name):
    spec = SPECS[name]
    code, document, _ = run_cli(capsys, "extremal", "--input", json.dumps(spec.to_json_dict()))
    assert code == 0
    with monkeypatch.context() as patch:
        counts = _Counts(patch)
        reports = {"own": _verify(capsys, document)}
    assert counts.tuple_laws == 0
    for variant, text in _variants(document).items():
        if variant != "own":
            reports[variant] = _verify(capsys, text)
        code, out, err = reports[variant]
        assert err == ""
        if name == "scale-1e300":
            # The variances overflow there, which the oracle's loop reports
            # as OverflowError; the full parse is the reference instead.
            continue
        embedded = JointDiscreteDistribution.from_json_dict(json.loads(text)["joint"])
        expected = verify_stdout(spec, embedded, SAMPLES)
        assert out == expected, variant
        assert code == (0 if json.loads(expected)["pass"] else 1), variant
    for variant, report in reports.items():
        if variant != "atom-moved-1-ulp":
            assert report == reports["compact"], variant


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("name", sorted(set(GOLDEN) | set(sorted(SPECS)[::8])))
def test_atom_sums_of_the_rebuilt_law_are_those_of_its_tuple_law(name):
    """Checked as its atoms, the rebuilt law gets the report of the
    n-tuple law that its document reads back as, bit for bit (repr, since
    at 1e300 the variance errors are NaN)."""
    spec = SPECS[name]
    joint = extremal_components(spec).joint
    tuples = JointDiscreteDistribution(support=joint.support, prob=joint.prob)
    assert repr(_check_atom_sums(joint, spec)) == repr(check_moments(tuples, spec))


#: A spec whose solve ends with a gradient norm of 8.7e-9, above 1e-10.
UNCONVERGED = MomentSpec(mu=(-1.203, -0.374, 1.245), sigma=(1e-08, 1.0, 1e-07))
#: A law of the right dimension that is not the spec's.
SOME_LAW = {"support": [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], "prob": [0.5, 0.5]}


def _document(spec: MomentSpec, joint: dict) -> str:
    """A document in ``extremal``'s layout: the spec's head, then ``joint``."""
    return _indented({**spec.to_json_dict(), "rho": 1.0, "joint": joint})


@pytest.mark.parametrize(
    "joint, code, message",
    [
        ({"support": "bad", "prob": [1.0]}, 1, "error: support must be a sequence of vectors of numbers\n"),
        ({"support": SOME_LAW["support"], "prob": [0.5, 0.6]}, 1, "error: prob sums to 1.1, not 1\n"),
        (SOME_LAW, 2, "error: failed to converge: gradient norm"),
    ],
    ids=["malformed-support", "malformed-prob", "well-formed"],
)
def test_unconverged_spec_keeps_the_order_of_errors(capsys, joint, code, message):
    """The head is read and solved before the document is parsed, but an
    embedded law that does not read back is still reported before the
    solve's ConvergenceError."""
    with pytest.raises(ConvergenceError):
        extremal_components(UNCONVERGED)
    got_code, out, err = _verify(capsys, _document(UNCONVERGED, joint))
    assert (got_code, out) == (code, "")
    assert err.startswith(message)


class _Counts:
    """How often ``verify`` solved, decoded JSON and built an n-tuple law."""

    def __init__(self, monkeypatch) -> None:
        self.solves = 0
        self.decoded: list[int] = []
        self.tuple_laws = 0
        solve, loads = extremal.rho_bound, json.loads
        post_init = JointDiscreteDistribution.__post_init__

        def counting_solve(spec):
            self.solves += 1
            return solve(spec)

        def counting_loads(text, *args, **kwargs):
            self.decoded.append(len(text))
            return loads(text, *args, **kwargs)

        def counting_post_init(law):
            self.tuple_laws += 1
            post_init(law)

        monkeypatch.setattr(extremal, "rho_bound", counting_solve)
        monkeypatch.setattr(json, "loads", counting_loads)
        monkeypatch.setattr(JointDiscreteDistribution, "__post_init__", counting_post_init)


def test_own_document_is_neither_parsed_nor_built_as_tuples(capsys, monkeypatch):
    spec = SPECS["seeded-11-n50"]
    _, document, _ = run_cli(capsys, "extremal", "--input", json.dumps(spec.to_json_dict()))
    counts = _Counts(monkeypatch)
    _, out, _ = _verify(capsys, document)
    assert counts.solves == 1
    assert counts.tuple_laws == 0
    # Only the head, the spec and its solve's three numbers, is decoded.
    assert counts.decoded and max(counts.decoded) < len(document) // 20
    assert json.loads(out)["embedded_joint_pass"] is True


@pytest.mark.parametrize(
    "form", ["bare-spec", "compact", "no-trailing-newline", "rho-changed", "unconverged", "malformed"]
)
def test_one_solve_per_verify_on_every_path(capsys, monkeypatch, form):
    spec = SPECS["seeded-11-n50"]
    _, document, _ = run_cli(capsys, "extremal", "--input", json.dumps(spec.to_json_dict()))
    text = {
        "bare-spec": json.dumps(spec.to_json_dict()),
        "unconverged": _document(UNCONVERGED, SOME_LAW),
        "malformed": _document(UNCONVERGED, {"support": "bad", "prob": [1.0]}),
        **_variants(document),
    }[form]
    counts = _Counts(monkeypatch)
    _verify(capsys, text)
    assert counts.solves == 1
