"""Byte-exact CLI goldens: stdout and exit code of fixed invocations.

The files under ``tests/golden/`` hold what each invocation of ``CASES``
printed when they were written.  A change that must leave the CLI's output
bit-identical keeps every one of them passing.  To rewrite them after a
deliberate change of output, run::

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import warnings
from pathlib import Path

import pytest
from test_cli import GOLDEN

from rangebounds.cli import main

DIR = Path(__file__).resolve().parent / "golden"
CODES = DIR / "exit_codes.json"


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for name, spec in sorted(GOLDEN.items()):
        if spec.n > 8:
            continue
        text = json.dumps(spec.to_json_dict())
        for command, extra in (
            ("bound", []),
            ("compare", []),
            ("extremal", []),
            ("verify", ["--samples", "2000"]),
        ):
            cases[f"{command}-{name}"] = [command, "--input", text, *extra]
    cases["paper-examples-json"] = ["paper-examples"]
    cases["paper-examples-csv"] = ["paper-examples", "--format", "csv"]
    return cases


CASES = _cases()


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    # As from a shell: warnings (the overflow of verify's Monte Carlo at
    # 1e300) go to stderr, which no golden pins, and do not stop the run.
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_and_exit_code_are_pinned(case):
    code, out = _run(CASES[case])
    assert out == (DIR / f"{case}.out").read_text()
    assert code == json.loads(CODES.read_text())[case]


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in DIR.glob("*.out")) == sorted(CASES)


def _write() -> None:
    DIR.mkdir(exist_ok=True)
    codes = {}
    for case, argv in sorted(CASES.items()):
        codes[case], out = _run(argv)
        (DIR / f"{case}.out").write_text(out)
    CODES.write_text(json.dumps(codes, indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    _write()
