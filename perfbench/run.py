"""Benchmark entry point: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 10 --trace 0

Run from the root of a checkout that holds ``src/rangebounds``; nothing is
built or installed.  The run

1. starts the one worker that runs the workload's closed loop for
   ``--seconds`` and times its set-up (interpreter start,
   ``import rangebounds``, input generation, warm-up);
2. has the worker, one at a time between operations and evenly over the
   loop, time set-up-only starts of itself and make cold
   ``python -m rangebounds bound`` calls, whose outputs it checks against
   the in-process value;
3. prints a readable report and, as the last stdout line, a JSON object
   with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
   end-to-end metrics with ``--trace 0``, the per-layer metrics with
   ``--trace 1``.

``correct`` is true when no loop operation returned a wrong value and a
deliberately corrupted result was caught by the output check.  Failures of
every kind in the loop and the cold calls (errors, missed deadlines, wrong
values) are counted in ``failed``.  The known-defect specs, on which the
program is known to fail, run after the loop; their failures are reported
on their own line and in ``defects.failed_share``, not in ``failed``.  Exit
status is nonzero, with no JSON, when the program under test is missing or
the run itself breaks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Every run ends well inside the three minutes a run may take.
RUN_LIMIT_S = 170.0


def _declared_units() -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def _env() -> dict:
    """PYTHONPATH with ``src/``, and one BLAS thread: the loop has one caller and no threads."""
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH", "")) if p)
    return env


def _worker_cmd(args) -> list[str]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        cmd.append("--quick")
    return cmd


def _start_worker(args):
    """Start the worker and return it with its set-up time (start to ``ready``)."""
    start = time.perf_counter()
    proc = subprocess.Popen(_worker_cmd(args), stdout=subprocess.PIPE, text=True, env=_env())
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready (said {line!r})")
    return proc, setup


def _finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker overran the run limit")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return out


def p90_line(ops_ms) -> str:
    """``op_ms.p90`` with the count of samples beyond it, or why it is left out.

    The tail is reported only where at least 10 samples lie beyond it.
    """
    beyond = 0
    if len(ops_ms) >= 2:
        p90 = statistics.quantiles(ops_ms, n=10, method="inclusive")[-1]
        beyond = sum(v > p90 for v in ops_ms)
        if beyond >= 10:
            return f"op_ms.p90 {p90:.4f} ms  (samples {len(ops_ms)}, {beyond} beyond)"
    return f"op_ms.p90 not reported: {beyond} of {len(ops_ms)} samples lie beyond it, fewer than 10"


def report_lines(args, res, setups, bound_ms, cli_failed, attempted, failed):
    ops_ms = res["ops_ms"]
    st = res["statuses"]
    lines = [
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  closed loop, one caller",
        f"attempted {attempted} (loop {len(ops_ms)}, cold cli {len(bound_ms)})  failed {failed}  "
        f"failed_ratio {failed / attempted:.4f}",
        f"  loop outcomes: ok {st.get('ok', 0)}  error {st.get('error', 0)}  timeout {st.get('timeout', 0)}  "
        f"wrong {st.get('wrong', 0)}; cold cli failed {cli_failed}",
        f"ops_per_s {res['whole_passed'] / res['whole_wall_s']:.4f} 1/s  (passed {res['whole_passed']} of "
        f"the {res['whole_ops']} operations of whole blocks, over their {res['whole_wall_s']:.3f} s)",
        f"op_ms.p50 {statistics.median(ops_ms):.4f} ms  (samples {len(ops_ms)})",
        p90_line(ops_ms),
        f"cli_ms.p50 {statistics.median(bound_ms):.4f} ms  (samples {len(bound_ms)})",
        f"setup_s {statistics.median(setups):.4f} s  (samples {len(setups)})",
        f"peak_rss_mb {res['peak_rss_mb']:.2f} MB",
        f"counts {json.dumps(res['counts'])}",
    ]
    for problem, count in res["problems"]:
        lines.append(f"  failure x{count}: {problem}")
    defects = res["defects"]
    by_defect = ", ".join(f"{name} {f} of {t}" for name, (f, t) in sorted(defects["by_defect"].items()))
    lines.append(f"known-defect specs (not in attempted/failed): failed {defects['failed']} of "
                 f"{defects['attempted']} ({by_defect})")
    for problem, count in defects["problems"]:
        lines.append(f"  known-defect failure x{count}: {problem}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-small", "solve-large", "attain-verify", "coupling-unique"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: smallest sizes, one set-up, three cli calls")
    args = parser.parse_args(argv)
    if not Path("src/rangebounds/__init__.py").is_file():
        print("error: run from the root of a checkout holding src/rangebounds", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    proc = None
    try:
        proc, setup = _start_worker(args)
        res = json.loads(_finish(proc, deadline).splitlines()[-1])
        setups = [setup, *res["setup_s"]]
        bound_ms, cli_failed = res["cli_bound_ms"], res["cli_failed"]
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()

    attempted = len(res["ops_ms"]) + len(bound_ms)
    failed = len(res["ops_ms"]) - res["passed"] + cli_failed
    for line in report_lines(args, res, setups, bound_ms, cli_failed, attempted, failed):
        print(line)
    if args.trace:
        values = dict(res["layers"])
        interp = statistics.median(res["cli_interp_ms"])
        values["cli.interp_ms"] = interp
        values["cli.import_ms"] = statistics.median(res["cli_import_ms"]) - interp
        print(f"derived (probe calls or span differences): {', '.join(res['derived'])}")
        for name in sorted(values):
            print(f"  {name} {values[name]:.6g}")
    else:
        values = {
            "ops_per_s": res["whole_passed"] / res["whole_wall_s"],
            "op_ms.p50": statistics.median(res["ops_ms"]),
            "cli_ms.p50": statistics.median(bound_ms),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    units = _declared_units()
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    correct = res["loop_wrong"] == 0 and res["negative_control_caught"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
