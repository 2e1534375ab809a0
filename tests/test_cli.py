import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from _oracles import extremal_stdout, star_spec, verify_stdout

from rangebounds import ConvergenceError, JointDiscreteDistribution, MomentSpec, ValidationError
from rangebounds.cli import CliConfig, main, run

TRIPLE = '{"mu":[-1,0,1],"sigma":[1,1.7320508,1.4142136]}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigValidation:
    def test_rejects_unknown_command(self):
        with pytest.raises(ValidationError):
            CliConfig(command="solve")

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValidationError):
            CliConfig(command="bound", tol=0.0)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValidationError):
            CliConfig(command="bound", samples=0)

    def test_rejects_unknown_format(self):
        with pytest.raises(ValidationError):
            CliConfig(command="bound", format="yaml")


class TestBoundCommand:
    def test_inline_json_input(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--input", TRIPLE)
        assert code == 0
        data = json.loads(out)
        assert data["rho"] == pytest.approx(4.0, abs=1e-6)
        assert list(data) == [
            "rho",
            "c",
            "lambda",
            "ag",
            "infimum",
            "method",
            "regions",
            "residual",
            "iterations",
        ]

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(TRIPLE)
        code, out, _ = run_cli(capsys, "bound", "--input", str(path))
        assert code == 0
        assert json.loads(out)["rho"] == pytest.approx(4.0, abs=1e-6)

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(TRIPLE))
        code, out, _ = run_cli(capsys, "bound", "--input", "-")
        assert code == 0
        assert json.loads(out)["rho"] == pytest.approx(4.0, abs=1e-6)

    def test_csv_output_has_scalar_rows(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--input", TRIPLE, "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "name,value"
        names = [line.split(",", 1)[0] for line in lines[1:]]
        assert "rho" in names and "lambda" in names
        assert all("regions" not in name for name in names)

    def test_output_byte_stable(self, capsys):
        _, first, _ = run_cli(capsys, "bound", "--input", TRIPLE)
        _, second, _ = run_cli(capsys, "bound", "--input", TRIPLE)
        assert first == second


class TestExtremalCommand:
    def test_emits_joint_and_coupling(self, capsys):
        code, out, _ = run_cli(capsys, "extremal", "--input", TRIPLE)
        assert code == 0
        data = json.loads(out)
        assert list(data) == ["mu", "sigma", "rho", "c", "lambda", "joint", "coupling"]
        masses = data["joint"]["prob"]
        assert sum(masses) == pytest.approx(1.0, abs=1e-12)
        n = len(data["mu"])
        assert all(len(row) == n for row in data["coupling"]["q"])

    def test_csv_format_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "extremal", "--input", TRIPLE, "--format", "csv"
        )
        assert code == 1
        assert "JSON-only" in err


class TestVerifyCommand:
    def test_bare_spec_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--input", TRIPLE, "--samples", "20000"
        )
        assert code == 0
        data = json.loads(out)
        assert data["pass"] is True
        assert data["embedded_joint_pass"] is None
        assert data["moment_check"]["pass"] is True

    def test_extremal_output_round_trips(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "extremal", "--input", TRIPLE)
        assert code == 0
        path = tmp_path / "extremal.json"
        path.write_text(out)
        code, out, _ = run_cli(
            capsys, "verify", "--input", str(path), "--samples", "20000"
        )
        assert code == 0
        data = json.loads(out)
        assert data["pass"] is True
        assert data["embedded_joint_pass"] is True

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--input", TRIPLE, "--samples", "5000", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0] == "name,value"
        assert any(line.startswith("pass,true") for line in out.splitlines())


class TestCompareCommand:
    def test_heterogeneous_spec_leaves_iid_bound_null(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--input", '{"mu":[0,0,0],"sigma":[1,1,3]}'
        )
        assert code == 0
        data = json.loads(out)
        assert list(data) == ["rho", "ag", "bnt_range", "plackett", "infimum"]
        assert data["rho"] == pytest.approx(3.0 + math.sqrt(2.0), abs=1e-5)
        assert data["ag"] == pytest.approx(math.sqrt(22.0), abs=1e-5)
        assert data["plackett"] is None

    def test_homogeneous_spec_reports_iid_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--input", '{"mu":[1,1,1],"sigma":[2,2,2]}'
        )
        assert code == 0
        data = json.loads(out)
        assert data["plackett"] == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-9)


PAPER_EXAMPLES_CSV = """\
name,value
ag-tight-triple.ag,4.0
ag-tight-triple.p-plus-max-error,5.551115123125783e-17
ag-tight-triple.p-minus-max-error,5.551115123125783e-17
ag-tight-triple.joint-max-error,1.1102230246251565e-16
asymmetric-spread-triple.lambda,1.7370468811072135
asymmetric-spread-triple.rho,6.066343071875007
asymmetric-spread-triple.ag,6.164414002968976
asymmetric-spread-triple.range-low,5.542082488233448
asymmetric-spread-triple.prob-low,0.2543080777804665
asymmetric-spread-triple.range-high,6.245135006331151
asymmetric-spread-triple.prob-high,0.7456919222195335
homogeneous-triple.rho,2.449489742783178
equal-means-big-outlier.rho,4.414213562373096
two-balanced-groups.rho,6.0
single-outlier-mean.stationarity-residual,-1.1102230246251565e-16
single-outlier-mean.rho-form-gap,0.0
pass,true
"""


class TestPaperExamplesCommand:
    def test_all_targets_pass(self, capsys):
        code, out, _ = run_cli(capsys, "paper-examples")
        assert code == 0
        data = json.loads(out)
        assert data["pass"] is True
        assert all(case["pass"] for case in data["cases"])
        names = {case["case"] for case in data["cases"]}
        assert names == {
            "ag-tight-triple",
            "asymmetric-spread-triple",
            "homogeneous-triple",
            "equal-means-big-outlier",
            "two-balanced-groups",
            "single-outlier-mean",
        }

    def test_csv_bytes_are_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "paper-examples", "--format", "csv")
        assert code == 0
        assert out == PAPER_EXAMPLES_CSV


class TestErrorHandling:
    def test_missing_input_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "bound")
        assert code == 1
        assert "--input" in err

    def test_malformed_json_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--input", '{"mu": [0, 1], "sigma"')
        assert code == 1
        assert "JSON" in err

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--input", "/nonexistent/spec.json")
        assert code == 1
        assert "not found" in err

    def test_invalid_spec_exits_one(self, capsys):
        code, _, err = run_cli(
            capsys, "bound", "--input", '{"mu":[0,1],"sigma":[1,-1]}'
        )
        assert code == 1
        assert "sigma" in err

    @pytest.mark.parametrize(
        "command, stdin, message",
        [
            ("bound", "[1, 2]", "must be an object"),
            ("verify", '{"mu": [0, 1], "sigma": [1, 1], "joint": {}}', "'support'"),
        ],
    )
    def test_rejected_input_exits_one(self, capsys, monkeypatch, command, stdin, message):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code, out, err = run_cli(capsys, command, "--input", "-")
        assert code == 1
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("module", ["rangebounds", "rangebounds.cli"])
    def test_module_entry_point(self, capsys, module):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        done = subprocess.run(
            [sys.executable, "-m", module, "bound", "--input", TRIPLE],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert run_cli(capsys, "bound", "--input", TRIPLE) == (0, done.stdout, "")

    def test_unknown_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 1

    def test_nonconvergence_exits_two(self, capsys, monkeypatch):
        def explode(spec, tol=1e-10):
            raise ConvergenceError("stalled", best=None)

        monkeypatch.setattr("rangebounds.cli.rho_bound", explode)
        code, _, err = run_cli(capsys, "bound", "--input", TRIPLE)
        assert code == 2
        assert "converge" in err


def _general(n: int, a: float, b: float) -> MomentSpec:
    rng = np.random.default_rng(n)
    mu = rng.uniform(-1.0, 1.0, size=n)
    sigma = rng.uniform(0.2, 1.5, size=n)
    return MomentSpec(mu=tuple((a * mu + b).tolist()), sigma=tuple((a * sigma).tolist()))


GOLDEN = {
    "pair": MomentSpec(mu=(0.0, 1.5), sigma=(1.0, 0.5)),
    "ag-tight-triple": MomentSpec(mu=(-1.0, 0.0, 1.0), sigma=(1.0, math.sqrt(3.0), math.sqrt(2.0))),
    "asymmetric-triple": MomentSpec(mu=(-2.0, 0.0, 2.0), sigma=(1.0, 3.0, 1.0)),
    "equal-means": MomentSpec(mu=(0.5,) * 5, sigma=(1.0, 2.0, 0.5, 0.7, 1.5)),
    "star-8": star_spec(8, 8),
    "general-50-offset": _general(50, 0.3, 30.0),
    "scale-1e-300": _general(7, 1e-300, 0.0),
    "scale-1e300": _general(7, 1e300, 0.0),
}


class TestGoldenOutput:
    """Byte identity with ``json.dumps(indent=2)`` of the n-tuple law."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_extremal_stdout(self, capsys, name):
        spec = GOLDEN[name]
        code, out, _ = run_cli(capsys, "extremal", "--input", json.dumps(spec.to_json_dict()))
        assert code == 0
        assert out == extremal_stdout(spec)

    # At 1e300 the variances overflow, which the scalar loop's ** reports
    # as OverflowError, so there is no oracle output to compare with.
    @pytest.mark.parametrize("name", sorted(set(GOLDEN) - {"scale-1e300"}))
    def test_verify_stdout(self, capsys, name):
        spec = GOLDEN[name]
        text = json.dumps(spec.to_json_dict())
        _, out, _ = run_cli(capsys, "verify", "--input", text, "--samples", "2000")
        assert out == verify_stdout(spec, None, 2000)
        _, document, _ = run_cli(capsys, "extremal", "--input", text)
        _, out, _ = run_cli(capsys, "verify", "--input", document, "--samples", "2000")
        embedded = JointDiscreteDistribution.from_json_dict(json.loads(document)["joint"])
        assert out == verify_stdout(spec, embedded, 2000)


class TestReadme:
    README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

    def test_bound_example_is_current(self, capsys):
        section = self.README.split("### `bound`", 1)[1]
        command = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
        expected = section.split("```json\n", 1)[1].split("```", 1)[0]
        argv = shlex.split(command)
        assert argv[0] == "rangebounds"
        code, out, _ = run_cli(capsys, *argv[1:])
        assert code == 0
        assert out == expected

    def test_coupling_rows_are_top_points(self, capsys):
        spec = GOLDEN["ag-tight-triple"]
        _, out, _ = run_cli(capsys, "extremal", "--input", json.dumps(spec.to_json_dict()))
        data = json.loads(out)
        q = np.array(data["coupling"]["q"])
        assert q.sum(axis=1) == pytest.approx([0.0, 3.0 / 8.0, 5.0 / 8.0], abs=1e-9)
        assert q.sum(axis=0) == pytest.approx([0.5, 3.0 / 8.0, 1.0 / 8.0], abs=1e-9)
        cells = np.argwhere(q > 0.0).tolist()
        atoms = data["joint"]["support"]
        assert len(atoms) == len(cells)
        for (i, j), atom in zip(cells, atoms):
            assert int(np.argmax(atom)) == i
            assert int(np.argmin(atom)) == j
