"""Spans around the calls into each module's public functions.

The tracer wraps the listed public functions of every ``rangebounds``
module and rebinds each name wherever a module imported it, so calls made
inside the package (``extremal_components`` calling ``rho_bound``, the CLI
calling ``check_moments``) are recorded as child spans.  Spans stay in
memory as ``[name, start, end, parent, op, extra]`` and are written once
the run ends.  Nothing is recorded while no operation is open.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

#: Public functions timed per layer.  Scalar kernels that run once per
#: coordinate (u_value, univariate_extremal, ...) are left out: a span per
#: coordinate would cost more than the work it measures.
TRACED = {
    "objective": ("phi", "phi_gradient", "classify_regions", "phi_array"),
    "solver": ("rho_bound", "minimize_phi", "bnt_max_bound", "equal_means_bound", "rho2_closed", "ag_bound"),
    "extremal": ("extremal_components", "extremal_marginals", "zero_trace_coupling", "ag_tightness", "perturb_coupling"),
    "verify": ("check_moments", "expected_range", "mc_expected_range"),
    "cli": ("main",),
}
LAYERS = tuple(TRACED)


def _extra(name, args, kwargs, result):
    """Machine-independent counts read off a call's arguments and result."""
    if name == "solver.rho_bound":
        return {"iterations": result.iterations, "method": result.method,
                "spec": args[0], "c": result.optimum.c, "lam": result.optimum.lam}
    if name == "extremal.extremal_components":
        return {"atoms": len(result.joint.support),
                "coupling_nnz": int(np.count_nonzero(result.coupling.q))}
    if name == "verify.mc_expected_range":
        return {"samples": int(args[1] if len(args) > 1 else kwargs["n_samples"])}
    if name == "cli.main":
        return {"command": args[0][0]}
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = time.perf_counter()
                span[5] = {"raised": type(exc).__name__}
                raise
            else:
                span[2] = time.perf_counter()
                span[5] = _extra(name, args, kwargs, result)
                return result
            finally:
                self._stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "rangebounds" or k.startswith("rangebounds.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"rangebounds.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(original, f"{layer}.{fname}")
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        rows = [
            {"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3], "op": s[4],
             "extra": {k: v for k, v in (s[5] or {}).items() if k != "spec"}}
            for i, s in enumerate(self.spans)
        ]
        path.write_text(json.dumps({"spans": rows}))


def median(values, default=0.0):
    return statistics.median(values) if values else default


def mean(values, default=0.0):
    return statistics.fmean(values) if values else default


def share(flags, default=0.0):
    """The share of true values among ``flags``."""
    flags = list(flags)
    return sum(flags) / len(flags) if flags else default


def layer_metrics(spans: list[list], natural_ops: set) -> tuple[dict, set]:
    """Per-layer metrics from spans, and the names of the derived ones.

    For each function, spans of the workload's own operations are used when
    there are any; otherwise the probe operations' spans, and the metric is
    derived.  Self times (span minus child spans) are derived as well.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s[3] is not None:
            child_time[s[3]] += s[2] - s[1]
    by_name: dict[str, list[tuple[int, list]]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append((i, s))
    derived: set[str] = set()

    def pick(name, metric):
        rows = by_name.get(name, [])
        own = [r for r in rows if r[1][4] in natural_ops]
        if own:
            return own
        derived.add(metric)
        return rows

    def ms(name, metric):
        return median([(s[2] - s[1]) * 1e3 for _, s in pick(name, metric)])

    def self_ms(name, metric):
        derived.add(metric)
        rows = pick(name, metric)
        return median([(s[2] - s[1] - child_time[i]) * 1e3 for i, s in rows])

    def extras(name, key, metric):
        return [s[5][key] for _, s in pick(name, metric) if s[5] and key in s[5]]

    out = {}
    rho = pick("solver.rho_bound", "solver.rho_bound_ms")
    done = [s for _, s in rho if s[5] and "iterations" in s[5]]
    out["solver.rho_bound_ms"] = median([(s[2] - s[1]) * 1e3 for _, s in rho])
    ops_with_rho = {s[4] for _, s in rho}
    out["solver.calls"] = len(rho) / max(1, len(ops_with_rho))
    out["solver.outer_iters"] = mean([s[5]["iterations"] for s in done])
    iters = sum(s[5]["iterations"] for s in done)
    busy = sum(s[2] - s[1] for s in done if s[5]["iterations"] > 0)
    out["solver.ms_per_outer_iter"] = busy * 1e3 / iters if iters else 0.0
    # Path shares are per returned rho_bound call, so they do not grow with
    # the number of calls that fit in a run.
    methods = [s[5]["method"] for s in done]
    for path in ("general-solver", "equal-means-closed-form", "n2-closed-form"):
        out[f"solver.path.{path}"] = share(m.startswith(path) for m in methods)
    out["solver.path.boundary-degenerate"] = share(m.endswith("+boundary-degenerate") for m in methods)
    out["solver.bnt_ms"] = ms("solver.bnt_max_bound", "solver.bnt_ms")
    out["extremal.components_ms"] = ms("extremal.extremal_components", "extremal.components_ms")
    out["extremal.marginals_ms"] = ms("extremal.extremal_marginals", "extremal.marginals_ms")
    out["extremal.coupling_ms"] = ms("extremal.zero_trace_coupling", "extremal.coupling_ms")
    out["extremal.joint_build_ms"] = self_ms("extremal.extremal_components", "extremal.joint_build_ms")
    out["extremal.atoms"] = mean(extras("extremal.extremal_components", "atoms", "extremal.atoms"))
    out["extremal.coupling_nnz"] = mean(
        extras("extremal.extremal_components", "coupling_nnz", "extremal.coupling_nnz"))
    out["extremal.ag_tightness_ms"] = ms("extremal.ag_tightness", "extremal.ag_tightness_ms")
    out["extremal.perturb_ms"] = ms("extremal.perturb_coupling", "extremal.perturb_ms")
    # Loop operations are chosen to end in time, so the deadline misses are
    # counted over the known-defect specs (and, where a workload has no
    # perturb_coupling of its own, the probes).
    perturb = [s for _, s in by_name.get("extremal.perturb_coupling", []) if s[4] not in natural_ops]
    if not any(isinstance(s[4], str) and s[4].startswith("defect-") for s in perturb):
        derived.add("extremal.perturb_timeouts")
    out["extremal.perturb_timeouts"] = share(
        s[5] is not None and s[5].get("raised") == "Deadline" for s in perturb)
    out["verify.check_moments_ms"] = ms("verify.check_moments", "verify.check_moments_ms")
    out["verify.expected_range_ms"] = ms("verify.expected_range", "verify.expected_range_ms")
    out["verify.mc_ms"] = ms("verify.mc_expected_range", "verify.mc_ms")
    out["verify.mc_samples"] = mean(extras("verify.mc_expected_range", "samples", "verify.mc_samples"))
    cli = pick("cli.main", "cli.extremal_ms")
    for command in ("extremal", "verify"):
        out[f"cli.{command}_ms"] = median(
            [(s[2] - s[1]) * 1e3 for _, s in cli if s[5] and s[5].get("command") == command])
    if "cli.extremal_ms" in derived:
        derived.add("cli.verify_ms")
    out["cli.serialize_ms"] = self_ms("cli.main", "cli.serialize_ms")

    # Self time per layer and operation: span time minus child-span time.
    per_op = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(spans):
        per_op[s[4]][s[0].split(".")[0]] += s[2] - s[1] - child_time[i]
    for layer in LAYERS:
        own = [v[layer] * 1e3 for op, v in per_op.items() if op in natural_ops and layer in v]
        if not own:
            derived.add(f"{layer}.self_ms")
            own = [v[layer] * 1e3 for op, v in per_op.items() if layer in v]
        out[f"{layer}.self_ms"] = median(own)
    return out, derived


def optimum_points(spans: list[list], ops: set) -> list[tuple[object, float, float]]:
    """(spec, c, lambda) of every rho_bound call that returned, for the given ops."""
    return [
        (s[5]["spec"], s[5]["c"], s[5]["lam"])
        for s in spans
        if s[0] == "solver.rho_bound" and s[4] in ops and s[5] and "spec" in s[5]
    ]
