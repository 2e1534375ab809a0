"""The runtime needs numpy only; scipy is a test dependency.  Every name the
package exports is exported by its home module too, and every name the
bench tracer wraps exists in its module."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import rangebounds

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


def test_package_exports_are_exported_by_their_home_modules():
    missing = [
        name
        for name in rangebounds.__all__
        if name != "__version__"
        and name not in importlib.import_module(getattr(rangebounds, name).__module__).__all__
    ]
    assert missing == []


def test_every_name_the_bench_tracer_wraps_exists():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{layer}.{name}"
        for layer, names in tracing.TRACED.items()
        for name in names
        if not hasattr(importlib.import_module(f"rangebounds.{layer}"), name)
    ]
    assert missing == []
