"""The runtime needs numpy only; scipy is a test dependency."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_import_does_not_load_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, rangebounds; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
