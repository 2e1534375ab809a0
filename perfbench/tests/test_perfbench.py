"""Tests of the benchmark itself: smoke runs, the failure accounting, the generator.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import ops  # noqa: E402
import run  # noqa: E402
import specs  # noqa: E402
import worker  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_prints_every_metric(workload, trace):
    done = _run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--quick"])
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    report = "\n".join(lines[:-1])
    for name in ("ops_per_s", "op_ms.p50", "op_ms.p90", "cli_ms.p50", "setup_s", "peak_rss_mb", "failed_ratio"):
        assert name in report
    # The known-defect specs run once each and stay out of attempted and failed.
    loop, cli = map(int, re.search(r"\(loop (\d+), cold cli (\d+)\)", report).groups())
    assert result["attempted"] == loop + cli
    ran = int(re.search(r"known-defect specs .*: failed \d+ of (\d+)", report).group(1))
    assert ran == len(specs.DEFECTS[workload])


class _Corrupted:
    """A workload whose every result is deliberately damaged before the check."""

    def __init__(self, workload):
        self.base = workload
        self.deadline_s = workload.deadline_s
        self.check = workload.check
        self.counts = workload.counts

    def run(self, inp):
        return self.base.corrupt(self.base.run(inp))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_result_counts_as_failed(workload):
    base = ops.WORKLOADS[workload]
    spec = specs.make_blocks(workload, 5, 1, quick=True)[0][0]
    honest, damaged = [], []
    worker.run_op(base, spec, base.prepare(spec), honest, None)
    worker.run_op(_Corrupted(base), spec, base.prepare(spec), damaged, None)
    assert honest[0]["status"] == "ok", honest[0]["problem"]
    assert damaged[0]["status"] == "wrong"


def test_missed_deadline_counts_as_failed():
    class Hurried(ops.CouplingUnique):
        @staticmethod
        def deadline_s(spec):
            return 1e-6

    spec = next(s for s in specs.make_blocks("coupling-unique", 1, 1)[0] if s.structure == "star")
    records = []
    worker.run_op(Hurried, spec, Hurried.prepare(spec), records, None)
    assert records[0]["status"] == "timeout"


def test_p90_is_reported_only_with_ten_samples_beyond_it():
    line = run.p90_line([float(v) for v in range(150)])
    assert line.startswith("op_ms.p90 ") and "15 beyond" in line
    assert "not reported" in run.p90_line([float(v) for v in range(50)])
    assert "not reported" in run.p90_line([1.0] * 150)


def test_generator_depends_only_on_the_seed():
    first = specs.make_blocks("sweep-small", 11, 3)
    assert first == specs.make_blocks("sweep-small", 11, 3)
    assert first != specs.make_blocks("sweep-small", 12, 3)
    assert specs.defect_specs("sweep-small", 11) == specs.defect_specs("sweep-small", 11)
    assert specs.defect_specs("sweep-small", 11) != specs.defect_specs("sweep-small", 12)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_loop_and_known_defect_specs_are_apart(workload):
    """Loop specs are at ordinary scale; every known-defect spec names its defect."""
    lo, hi, offset = specs.LOOP_SCALE.get(workload, specs.SCALE)
    for block in specs.make_blocks(workload, 3, 4):
        assert len(block) == specs.SLOTS
        for s in block:
            assert not s.stress and s.defect == ""
            assert 10.0**lo <= s.a <= 10.0**hi and abs(s.b) <= offset * s.a
    defects = specs.defect_specs(workload, 3)
    assert [s.defect for s in defects] == [d for d, _, _ in specs.DEFECTS[workload]]
    assert all(s.stress == (s.defect == "stress") for s in defects)


def test_stress_spec_is_an_exact_affine_image_of_its_reference():
    for s in (s for w in WORKLOADS for s in specs.defect_specs(w, 4) if s.stress):
        k = s.b / s.a
        assert all(m / s.a - k == r for m, r in zip(s.mu, s.ref_mu))
        assert all(x / s.a == r for x, r in zip(s.sigma, s.ref_sigma))


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(["--workload", "sweep-small", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
