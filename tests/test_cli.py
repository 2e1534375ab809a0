import dataclasses
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from _oracles import extremal_stdout, star_spec, verify_stdout

from rangebounds import (
    ConvergenceError,
    JointDiscreteDistribution,
    MomentSpec,
    expected_range,
    rho_bound,
)
from rangebounds import cli
from rangebounds.cli import main
from rangebounds.objective import mass_table
from rangebounds.verify import _probe_joints

TRIPLE = '{"mu":[-1,0,1],"sigma":[1,1.7320508,1.4142136]}'


def run_cli(capsys, *argv):
    """``main`` on ``argv``: its exit code, a usage error's included, and
    what it wrote."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: The flags each command reads; any other is a usage error.
READS = {
    "bound": {"input", "format"},
    "extremal": {"input"},
    "verify": {"input", "seed", "samples", "format"},
    "compare": {"input", "format"},
    "paper-examples": {"format"},
}
#: A valid value of each flag.
VALUES = {"input": TRIPLE, "tol": "1e-10", "seed": "3", "samples": "100", "format": "json"}


class TestConfigValidation:
    """Invalid flags are usage errors: exit 1 with the usage line, and no
    report."""

    @pytest.mark.parametrize("command", sorted(READS))
    @pytest.mark.parametrize("flag", sorted(VALUES))
    def test_command_takes_only_the_flags_it_reads(self, capsys, command, flag):
        code, out, _ = run_cli(capsys, command, "--help")
        listed = re.findall(r"^  --(\w+)", out, re.MULTILINE)
        assert (code, sorted(listed)) == (0, sorted(READS[command]))
        if flag not in READS[command]:
            needed = ["--input", TRIPLE] if "input" in READS[command] else []
            code, out, err = run_cli(capsys, command, *needed, f"--{flag}", VALUES[flag])
            assert (code, out) == (1, "")
            assert f"error: unrecognized arguments: --{flag} {VALUES[flag]}\n" in err

    def test_rejects_unknown_command(self, capsys):
        code, out, err = run_cli(capsys, "solve")
        assert (code, out) == (1, "")
        assert "argument command: invalid choice: 'solve'" in err

    def test_rejects_zero_samples(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--input", TRIPLE, "--samples", "0")
        assert (code, out) == (1, "")
        assert err.startswith("usage: rangebounds verify")
        assert "argument --samples: must be positive, got 0" in err

    def test_rejects_unknown_format(self, capsys):
        code, out, err = run_cli(capsys, "bound", "--input", TRIPLE, "--format", "yaml")
        assert (code, out) == (1, "")
        assert "argument --format: invalid choice: 'yaml'" in err

    def test_negative_seed_is_an_input_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--input", TRIPLE, "--seed", "-1")
        assert (code, out, err) == (1, "", "error: seed must be nonnegative, got -1\n")


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
        # The output holds a joint law and is JSON only: extremal takes no
        # --format.
        code, out, err = run_cli(capsys, "extremal", "--input", TRIPLE, "--format", "csv")
        assert (code, out) == (1, "")
        assert err.startswith("usage: rangebounds")
        assert "error: unrecognized arguments: --format csv" in err


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

    def test_wrong_law_at_small_scale_fails(self, capsys, monkeypatch):
        """At scale 1e-12 every error is far below an absolute tolerance: a
        law with the right moments but a shorter expected range, and a Monte
        Carlo estimate 0.1% off, must each fail."""
        spec = _general(7, 1e-12, 0.0)
        probe = next(_probe_joints(spec, 1, seed=0))
        document = json.dumps({**spec.to_json_dict(), "joint": probe.to_json_dict()})
        code, out, _ = run_cli(capsys, "verify", "--input", document, "--samples", "2000")
        data = json.loads(out)
        assert (code, data["moment_check"]["pass"], data["embedded_joint_pass"]) == (1, True, False)

        def off(joint, samples, seed):
            return 1.001 * expected_range(joint), 0.0

        monkeypatch.setattr(cli, "mc_expected_range", off)
        bare = json.dumps(spec.to_json_dict())
        code, out, _ = run_cli(capsys, "verify", "--input", bare, "--samples", "2000")
        assert (code, json.loads(out)["moment_check"]["pass"]) == (1, True)

    def test_moments_are_checked_at_1e_10_of_their_scale(self, capsys):
        """Shifting every atom by 1e-8 of the largest scale moves each mean
        by 1e-8 to 1.4e-8 of its scale and leaves the expected range as it
        is: the law fails."""
        _, out, _ = run_cli(capsys, "extremal", "--input", TRIPLE)
        document = json.loads(out)
        shift = 1e-8 * max(abs(m) + s for m, s in zip(document["mu"], document["sigma"]))
        joint = document["joint"]
        joint["support"] = [[x + shift for x in atom] for atom in joint["support"]]
        text = json.dumps(document)
        code, out, _ = run_cli(capsys, "verify", "--input", text, "--samples", "2000")
        assert (code, json.loads(out)["embedded_joint_pass"]) == (1, False)

    def test_one_dominant_sigma_builds_and_passes(self, capsys):
        """The inner root ends at its own resolution, inside the coupling's
        1e-12 contract, so the law builds and its document verifies."""
        spec = '{"mu":[0,0,0,0],"sigma":[1,3e-9,4e-9,1e-9]}'
        code, document, _ = run_cli(capsys, "extremal", "--input", spec)
        assert code == 0
        code, out, _ = run_cli(capsys, "verify", "--input", document, "--samples", "20000")
        assert (code, json.loads(out)["pass"]) == (0, True)

    def test_rebuilt_law_passes_at_a_large_offset(self, capsys):
        spec = _general(7, 1.0, 1e8)
        text = json.dumps(spec.to_json_dict())
        code, out, _ = run_cli(capsys, "verify", "--input", text, "--samples", "2000")
        assert code == 0
        assert json.loads(out)["pass"] is True

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

    def test_homogeneous_spec_at_n_600_reports_iid_bound(self, capsys):
        # C(1198, 599) exceeds the float range.
        spec = json.dumps({"mu": [0.0] * 600, "sigma": [1.0] * 600})
        code, out, _ = run_cli(capsys, "compare", "--input", spec)
        assert code == 0
        assert json.loads(out)["plackett"] == pytest.approx(600.0 * math.sqrt(2.0 / 1199.0))

    def test_homogeneous_spec_reports_iid_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--input", '{"mu":[1,1,1],"sigma":[2,2,2]}'
        )
        assert code == 0
        data = json.loads(out)
        assert data["plackett"] == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-9)


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


    def test_a_joint_off_its_tables_fails_their_rows(self, capsys, monkeypatch):
        """A joint with the wrong number of atoms or of range values fails
        the rows that compare it with their tables, as an infinite error."""
        table_error = cli._atom_table_error
        monkeypatch.setattr(cli, "_atom_table_error", lambda j, atoms: table_error(j, atoms[1:]))
        monkeypatch.setattr(cli, "_range_distribution", lambda joint: [(6.0, 1.0)])
        code, out, _ = run_cli(capsys, "paper-examples")
        assert code == 1
        failed = {
            (case["case"], case["quantity"]): case["value"]
            for case in json.loads(out)["cases"]
            if not case["pass"]
        }
        assert failed == {
            ("ag-tight-triple", "joint-max-error"): math.inf,
            ("asymmetric-spread-triple", "range-low"): math.inf,
            ("asymmetric-spread-triple", "prob-low"): math.inf,
            ("asymmetric-spread-triple", "range-high"): math.inf,
            ("asymmetric-spread-triple", "prob-high"): math.inf,
        }


class TestErrorHandling:
    def test_missing_input_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "bound")
        assert (code, out) == (1, "")
        assert err.startswith("usage: rangebounds bound")
        assert "error: the following arguments are required: --input" in err

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

    @pytest.mark.parametrize("command", ["bound", "compare", "extremal", "verify"])
    @pytest.mark.parametrize(
        "spec",
        ['{"mu":[-1e308,0,1e308],"sigma":[1,1,1]}', '{"mu":[-1e308,1e308],"sigma":[1,1]}'],
        ids=["triple", "pair"],
    )
    def test_bound_beyond_the_float_range_exits_one(self, capsys, command, spec):
        code, out, err = run_cli(capsys, command, "--input", spec)
        assert (code, out, err) == (1, "", "error: the bound exceeds the float range\n")

    def test_non_finite_embedded_joint_exits_one(self, capsys):
        """json reads the NaN literal, so the embedded law is checked as
        outside input: an error, not a report that it failed."""
        _, document, _ = run_cli(capsys, "extremal", "--input", TRIPLE)
        data = json.loads(document)
        data["joint"]["support"][0][0] = math.nan
        code, out, err = run_cli(capsys, "verify", "--input", json.dumps(data))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "finite" in err

    @pytest.mark.parametrize(
        "source, message",
        [
            ("[1, 2]", "error: input JSON must be an object"),
            ("3", "error: input JSON must be an object"),
            ("no-such-spec.json", "error: input file not found: no-such-spec.json"),
        ],
    )
    def test_inline_input_that_is_not_an_object(self, capsys, source, message):
        code, out, err = run_cli(capsys, "bound", "--input", source)
        assert (code, out, err) == (1, "", message + "\n")

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

    def test_repeated_calls_match_fresh_processes(self, capsys, monkeypatch):
        """The parser is built once per process; calls after the first,
        help and usage errors included, must read as fresh processes do."""
        root = Path(__file__).resolve().parents[1]
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setenv(
            "PYTHONPATH",
            os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p),
        )
        codes = []
        for argv in (
            ["bound", "--input", TRIPLE],
            ["--help"],
            ["compare", "--input", TRIPLE, "--format", "csv"],
            ["bound", "--tol", "tiny"],
            ["verify", "--help"],
        ):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            done = subprocess.run(
                [sys.executable, "-m", "rangebounds", *argv],
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert (code, captured.out, captured.err) == (
                done.returncode, done.stdout, done.stderr
            ), argv
            codes.append(code)
        assert codes == [0, 0, 0, 1, 0]

    def test_unknown_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 1

    def test_means_summing_beyond_the_float_range(self, capsys):
        """Bounds print; the law's points round onto each other, which is
        an input error with its message, not a traceback."""
        spec = '{"mu":[1e308,1e308,1e308],"sigma":[1,1,1]}'
        for command in ("bound", "compare"):
            code, out, err = run_cli(capsys, command, "--input", spec)
            assert (code, err) == (0, "")
            assert json.loads(out)["rho"] == pytest.approx(math.sqrt(6.0), rel=1e-12)
        for command in ("extremal", "verify"):
            code, out, err = run_cli(capsys, command, "--input", spec)
            assert (code, out, err) == (1, "", "error: duplicate support vectors\n")

    def test_tails_that_admit_no_coupling_exit_two(self, capsys, monkeypatch):
        spec = MomentSpec(mu=(-2.0, 0.0, 2.0), sigma=(1.0, 3.0, 1.0))
        far = mass_table(*spec.arrays(), 50.0, 0.01)

        def report_with_far_table(spec):
            return dataclasses.replace(rho_bound(spec), table=far)

        monkeypatch.setattr("rangebounds.extremal.rho_bound", report_with_far_table)
        for command in ("extremal", "verify"):
            code, out, err = run_cli(capsys, command, "--input", json.dumps(spec.to_json_dict()))
            assert (code, out) == (2, "")
            assert err.startswith("error: failed to converge: the tails at c=")

    def test_nonconvergence_exits_two(self, capsys, monkeypatch):
        def explode(spec):
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
