"""One benchmark worker: set up, run a workload in a closed loop, check outputs.

Run by ``run.py`` from the root of a checkout, never directly by a user:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        [--quick] [--setup-only]

The worker imports ``rangebounds`` (``run.py`` puts ``src/`` on
``PYTHONPATH``), generates its inputs from the seed, warms up on one small
spec, prints ``ready`` and then runs the loop specs, one operation at a
time, until ``--seconds`` have passed.  Each operation is timed on its own
under the workload's deadline; its output is checked after its timing
stops.  Between operations, evenly over the loop, it makes the cold
command-line calls and, untraced, times set-up-only starts of itself.
After the loop it runs each known-defect spec once and counts its
failures apart from the loop's.  The last stdout line is a JSON result for
``run.py``.

With ``--trace 1`` every operation runs twice, untraced and with spans
around every public call, which gives the layer metrics and the tracing
overhead.  Layers the workload does not reach are filled in by a few probe
operations on the workload's own specs (labelled derived).  Spans are
written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import rangebounds as rb

import ops
import specs
import tracing

#: Blocks generated in set-up; a faster program wraps around the pool.
POOL_BLOCKS = {"sweep-small": 400, "solve-large": 12, "attain-verify": 40, "coupling-unique": 100}
#: Cold command-line calls per run.  A call takes 150-250 ms, spread by
#: the load on the machine, so the median needs a couple of dozen.
CLI_CALLS = 20
#: Cold calls in a traced run, which only times their pieces.
TRACED_CLI_CALLS = 10
#: Set-up-only worker starts per untraced run, besides the worker's own start.
SETUP_STARTS = 6
#: Probe operations per missing layer family in a traced run.
PROBES = 3


def run_op(workload, spec, inp, records, keep_first_ok, tracer=None, op_id=None):
    """One timed operation followed by its (untimed, untraced) output check.

    Spans of a traced operation carry ``op_id``, by default its index in
    ``records``.
    """
    problems = []
    raw = None
    if tracer is not None:
        tracer.op = len(records) if op_id is None else op_id
    start = time.perf_counter()
    try:
        raw = ops.call_with_deadline(workload.run, inp, workload.deadline_s(spec))
    except ops.Deadline:
        problems.append(("timeout", f"over the {workload.deadline_s(spec)} s deadline"))
    except Exception as exc:  # the program's failure is recorded, the loop goes on
        problems.append(("status", f"{type(exc).__name__}: {exc}"))
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.op = None
    counts = {}
    if raw is not None:
        try:
            problems.extend(workload.check(spec, raw))
        except Exception as exc:  # output the check cannot even read is a wrong output
            problems.append(("value", f"unreadable output: {type(exc).__name__}: {exc}"))
        counts = workload.counts(raw)
    kinds = {k for k, _ in problems}
    status = ("wrong" if "value" in kinds else "timeout" if "timeout" in kinds
              else "error" if kinds else "ok")
    if status == "ok" and keep_first_ok is not None and not keep_first_ok:
        keep_first_ok.append((spec, raw))
    records.append({
        "ms": elapsed * 1e3, "status": status, "n": spec.n, "structure": spec.structure,
        "defect": spec.defect, "problem": problems[0][1] if problems else None, **counts,
    })


class Spaced:
    """``count`` calls ``fn(k)``, the k-th once k * seconds / count seconds of the loop have passed.

    Machine speed can drift by tens of percent within a run, so side
    measurements are made one at a time between operations, evenly over
    the run, rather than in one burst.
    """

    def __init__(self, fn, count: int, seconds: float) -> None:
        self.fn = fn
        self.count = count
        self.interval = seconds / max(1, count)
        self.done = 0

    def call_if_due(self, elapsed: float) -> None:
        if self.done < self.count and elapsed >= self.done * self.interval:
            self.fn(self.done)
            self.done += 1

    def finish(self) -> None:
        """Make the calls not yet due."""
        while self.done < self.count:
            self.call_if_due(float("inf"))


class ColdCli:
    """Cold ``python -m rangebounds bound`` calls and their output check.

    With ``probes`` each call is preceded by an empty interpreter start and
    a bare ``import rangebounds``.
    """

    def __init__(self, cli_specs, probes: bool) -> None:
        self.specs = cli_specs
        self.probes = probes
        self.bound_ms: list[float] = []
        self.interp_ms: list[float] = []
        self.import_ms: list[float] = []
        self.results: list[tuple[int, str]] = []

    @staticmethod
    def _timed(cmd):
        start = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        return (time.perf_counter() - start) * 1e3, done

    def call(self, k: int) -> None:
        if self.probes:
            self.interp_ms.append(self._timed([sys.executable, "-c", "pass"])[0])
            self.import_ms.append(self._timed([sys.executable, "-c", "import rangebounds"])[0])
        ms, done = self._timed([sys.executable, "-m", "rangebounds", "bound",
                                "--input", self.specs[k].to_json()])
        self.bound_ms.append(ms)
        self.results.append((done.returncode, done.stdout))

    def failures(self) -> int:
        """Check every output against the in-process value; returns failures."""
        failed = 0
        for spec, (code, out) in zip(self.specs, self.results):
            rho = rb.rho_bound(ops.moment_spec(spec)).rho
            try:
                ok = code == 0 and abs(json.loads(out)["rho"] - rho) <= 1e-12 * abs(rho)
            except (ValueError, KeyError):
                ok = False
            failed += not ok
        return failed


class SetupStarts:
    """Set-up-only starts of this worker, timed from start to ``ready``."""

    def __init__(self, argv: list[str]) -> None:
        self.cmd = [sys.executable, str(Path(__file__).resolve()), *argv, "--setup-only"]
        self.seconds: list[float] = []

    def call(self, k: int) -> None:
        start = time.perf_counter()
        proc = subprocess.Popen(self.cmd, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        self.seconds.append(time.perf_counter() - start)
        out, _ = proc.communicate(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up-only worker said {line!r} and exited {proc.returncode}")


def run_loop(workload, blocks, inputs, seconds, records, first_ok, side, tracer=None, untraced=None):
    """Operations in a closed loop until ``seconds`` of loop time have passed.

    The blocks are run in order, slot by slot, wrapping around the pool.

    With a tracer every operation runs twice back to back, untraced (into
    ``untraced``) and traced (into ``records``), alternating which goes
    first, so that the tracing overhead is measured on the same inputs
    under the same machine load.  ``side`` holds the ``Spaced`` side
    measurements, offered a turn after every operation; their time is not
    loop time.
    """
    queue = [(spec, inp) for block, block_inputs in zip(blocks, inputs)
             for spec, inp in zip(block, block_inputs)]
    start = time.perf_counter()
    side_s = 0.0
    done = 0
    while time.perf_counter() - start - side_s < seconds:
        spec, inp = queue[done % len(queue)]
        if tracer is None:
            run_op(workload, spec, inp, records, first_ok)
        elif len(records) % 2:
            run_op(workload, spec, inp, records, first_ok, tracer)
            run_op(workload, spec, inp, untraced, None)
        else:
            run_op(workload, spec, inp, untraced, None)
            run_op(workload, spec, inp, records, first_ok, tracer)
        side_start = time.perf_counter()
        for job in side:
            job.call_if_due(side_start - start - side_s)
        side_s += time.perf_counter() - side_start
        done += 1


def run_defects(workload, defects, tracer=None):
    """Each known-defect spec once, untimed by the loop; returns their records."""
    records = []
    for k, spec in enumerate(defects):
        run_op(workload, spec, workload.prepare(spec), records, None, tracer, f"defect-{k}")
    return records


def run_probes(tracer, workload, blocks, families):
    """Public calls on the workload's own specs for layers its operations skip."""
    candidates = [s for block in blocks for s in block if s.n <= 400][:PROBES]
    stdout_bytes = []
    for i, spec in enumerate(candidates):
        ms = ops.moment_spec(spec)
        for family in families:
            tracer.op = f"probe-{family}-{i}"
            try:
                if family == "bnt":
                    ops.SweepSmall.run(ms)
                elif family == "pipeline":
                    raw = ops.AttainVerify.run(spec.to_json())
                    stdout_bytes.append(ops.AttainVerify.counts(raw)["stdout_bytes"])
                else:
                    parts = rb.extremal_components(ms)
                    rb.ag_tightness(ms)
                    ops.call_with_deadline(rb.perturb_coupling, parts.coupling,
                                           ops.PROBE_PERTURB_DEADLINE_S)
            except (ops.Deadline, Exception):  # a failed probe still leaves its spans
                pass
            finally:
                tracer.op = None
    return stdout_bytes


def traced_run(workload, blocks, inputs, seconds, records, first_ok, name, seed, side, defects):
    """The traced loop, the known-defect pass and the probes; returns layers, derived names, defect records."""
    untraced = []
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_loop(workload, blocks, inputs, seconds, records, first_ok, side, tracer, untraced)
        defect_records = run_defects(workload, defects, tracer)
        natural = set(range(len(records)))
        present = {s[0] for s in tracer.spans}
        families = [f for f, fn in (("bnt", "solver.bnt_max_bound"), ("pipeline", "cli.main"),
                                    ("uniqueness", "extremal.perturb_coupling")) if fn not in present]
        probe_bytes = run_probes(tracer, workload, blocks, families)
    finally:
        tracer.uninstall()
    layers, derived = tracing.layer_metrics(tracer.spans, natural)
    grad_us = []
    for spec, c, lam in tracing.optimum_points(tracer.spans, natural)[:200]:
        point = rb.DualPoint(c=c, lam=lam)
        t0 = time.perf_counter()
        rb.phi_gradient(point, spec)
        grad_us.append((time.perf_counter() - t0) * 1e6)
    layers["objective.phi_gradient_us"] = tracing.median(grad_us)
    own_bytes = [r["stdout_bytes"] for r in records if "stdout_bytes" in r]
    if not own_bytes:
        derived.add("cli.stdout_bytes")
    layers["cli.stdout_bytes"] = tracing.mean(own_bytes or probe_bytes)
    before = sum(r["ms"] for r in untraced)
    after = sum(r["ms"] for r in records)
    layers["trace.overhead_pct"] = 100.0 * (after - before) / before
    layers["defects.failed_share"] = tracing.share(r["status"] != "ok" for r in defect_records)
    out_dir = Path(".perfbench_out")
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{name}-seed{seed}.json")
    return layers, sorted(derived), defect_records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(ops.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = ops.WORKLOADS[args.workload]

    pool = 2 if args.quick else POOL_BLOCKS[args.workload]
    blocks = specs.make_blocks(args.workload, args.seed, pool, quick=args.quick)
    inputs = [[workload.prepare(s) for s in block] for block in blocks]
    defects = specs.defect_specs(args.workload, args.seed, quick=args.quick)
    warm = specs.warmup_spec(args.workload, args.seed)
    workload.run(workload.prepare(warm))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    records: list[dict] = []
    first_ok: list = []
    result = {}
    quick = ["--quick"] if args.quick else []
    calls = 3 if args.quick else TRACED_CLI_CALLS if args.trace else CLI_CALLS
    cli = ColdCli(specs.cli_specs(args.seed, calls), bool(args.trace))
    setups = SetupStarts(["--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--trace", "0", *quick])
    side = [Spaced(cli.call, len(cli.specs), args.seconds),
            Spaced(setups.call, 0 if args.trace else 1 if args.quick else SETUP_STARTS, args.seconds)]
    if args.trace:
        layers, derived, defect_records = traced_run(workload, blocks, inputs, args.seconds, records,
                                                     first_ok, args.workload, args.seed, side, defects)
        result.update(layers=layers, derived=derived)
    else:
        run_loop(workload, blocks, inputs, args.seconds, records, first_ok, side)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        defect_records = run_defects(workload, defects)
    for job in side:
        job.finish()
    cli_failed = cli.failures()

    caught = False
    if first_ok:
        spec, raw = first_ok[0]
        caught = any(k == "value" for k, _ in workload.check(spec, workload.corrupt(raw)))
    statuses = Counter(r["status"] for r in records)
    # ops_per_s counts whole blocks only, which hold every slot once, so the
    # mix of sizes does not depend on where the loop happened to stop.
    whole = records[:len(records) // specs.SLOTS * specs.SLOTS] or records
    result.update(
        ops_ms=[r["ms"] for r in records],
        statuses=dict(statuses),
        loop_wrong=statuses["wrong"],
        passed=statuses["ok"],
        whole_ops=len(whole),
        whole_passed=sum(r["status"] == "ok" for r in whole),
        whole_wall_s=sum(r["ms"] for r in whole) / 1e3,
        peak_rss_mb=peak_rss_mb,
        negative_control_caught=caught,
        counts=summarize_counts(records),
        problems=problem_counts(records),
        defects=summarize_defects(defect_records),
        cli_bound_ms=cli.bound_ms,
        cli_interp_ms=cli.interp_ms,
        cli_import_ms=cli.import_ms,
        cli_failed=cli_failed,
        setup_s=setups.seconds,
    )
    print(json.dumps(result), flush=True)
    return 0


def problem_counts(records):
    return sorted(Counter(r["problem"].split(":")[0][:60] for r in records if r["problem"]).items())


def summarize_defects(records):
    """Failed and run known-defect specs, in total and per defect."""
    by_defect = {}
    for r in records:
        failed, total = by_defect.get(r["defect"], (0, 0))
        by_defect[r["defect"]] = (failed + (r["status"] != "ok"), total + 1)
    return {
        "attempted": len(records),
        "failed": sum(r["status"] != "ok" for r in records),
        "by_defect": by_defect,
        "problems": problem_counts(records),
    }


def summarize_counts(records):
    out = {"n": dict(sorted(Counter(r["n"] for r in records).items()))}
    for key in ("outer_iters", "stdout_bytes", "coupling_nnz", "unique_certified"):
        values = [r[key] for r in records if key in r]
        if values:
            out[key] = sum(values)
    methods = Counter(r["method"] for r in records if "method" in r)
    if methods:
        out["methods"] = dict(methods)
    return out


if __name__ == "__main__":
    raise SystemExit(main())
