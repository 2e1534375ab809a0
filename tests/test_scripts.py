"""Smoke tests: each script's documented example runs end to end, small."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        [
            "scripts/sweep_bounds.py",
            "--family", "outlier-mean",
            "--n", "4",
            "--points", "5",
        ],
        ["scripts/sweep_bounds.py", "--family", "sample-size", "--points", "4"],
        ["scripts/attainment_demo.py", "--samples", "2000"],
        [
            "scripts/attainment_demo.py",
            "--mu", "-2", "0", "2",
            "--sigma", "1", "3", "1",
            "--samples", "2000",
        ],
    ],
)
def test_script_example_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
