"""The four workloads' operations, their output checks, and deadlines.

An operation receives only a prepared input (a ``MomentSpec`` or a JSON
spec string) and returns its raw results; ``check`` inspects them after the
operation's timing has stopped.  A check returns a list of problems, each
tagged ``"status"`` (the program refused: an error exit or a failed
self-check) or ``"value"`` (the program returned a number or object that is
wrong).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import re
import signal

import numpy as np

import rangebounds as rb
import rangebounds.cli

#: Relative slack of the ordering and oracle checks on a bound.
REL = 1e-9
#: Monte Carlo samples per ``verify`` call in attain-verify.
VERIFY_SAMPLES = 20_000
#: Deadline of each perturb_coupling call made only to fill in a layer.
PROBE_PERTURB_DEADLINE_S = 0.25

_TOP_RHO = re.compile(r'^  "rho": (.+),$', re.MULTILINE)


class Deadline(BaseException):
    """Raised by SIGALRM when an operation overruns its deadline.

    Derives from BaseException so that no handler in the program under test
    can swallow it.
    """


def _on_alarm(signum, frame):
    raise Deadline()


def call_with_deadline(fn, arg, seconds: float):
    """fn(arg), interrupted by ``Deadline`` after ``seconds`` of wall time."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(arg)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``rangebounds.cli.main`` in-process with stdout captured.

    The name is looked up at call time so that a traced run sees its span.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = rangebounds.cli.main(argv)
    return code, out.getvalue()


def moment_spec(spec) -> rb.MomentSpec:
    return rb.MomentSpec(mu=spec.mu, sigma=spec.sigma)


def bound_problems(spec, report) -> list[tuple[str, str]]:
    """Ordering, oracle and (for stress specs) scale-equivariance checks."""
    problems = []
    mu = np.asarray(spec.mu)
    rho = report.rho
    infimum = float(mu.max() - mu.min())
    mean = math.fsum(spec.mu) / spec.n
    ag = math.sqrt(2.0 * math.fsum((m - mean) ** 2 + s * s for m, s in zip(spec.mu, spec.sigma)))
    if not (infimum - REL * ag <= rho <= ag * (1.0 + REL)):
        problems.append(("value", f"rho {rho!r} outside [{infimum!r}, {ag!r}]"))
    c, lam = report.optimum.c, report.optimum.lam
    oracle = float(rb.phi_array(moment_spec(spec), np.array(c), np.array(lam)))
    if not abs(oracle - rho) <= REL * abs(rho):
        problems.append(("value", f"rho {rho!r} but phi_array at the optimum is {oracle!r}"))
    if spec.stress:
        try:
            ref = rb.rho_bound(rb.MomentSpec(mu=spec.ref_mu, sigma=spec.ref_sigma)).rho
        except rb.RangeBoundsError as exc:
            problems.append(("status", f"unit-scale reference failed: {exc}"))
        else:
            if not abs(rho - spec.a * ref) <= REL * spec.a * ref:
                problems.append(("value", f"rho {rho!r} but a * rho(z) is {spec.a * ref!r}"))
    return problems


class SweepSmall:
    """The ``compare`` quantities through the API: rho plus both BNT bounds."""

    name = "sweep-small"

    @staticmethod
    def deadline_s(spec):
        return 5.0

    prepare = staticmethod(moment_spec)

    @staticmethod
    def run(ms):
        report = rb.rho_bound(ms)
        mirror = rb.MomentSpec(mu=tuple(-m for m in ms.mu), sigma=ms.sigma)
        bnt_range = rb.bnt_max_bound(ms)[0] + rb.bnt_max_bound(mirror)[0]
        return report, bnt_range

    @staticmethod
    def check(spec, raw):
        report, bnt_range = raw
        problems = bound_problems(spec, report)
        # E max X + E max(-X) bounds the expected range, so rho cannot exceed it.
        if not report.rho <= bnt_range * (1.0 + REL):
            problems.append(("value", f"rho {report.rho!r} above bnt range {bnt_range!r}"))
        return problems

    @staticmethod
    def counts(raw):
        report = raw[0]
        return {"outer_iters": report.iterations, "method": report.method}

    @staticmethod
    def corrupt(raw):
        report, bnt_range = raw
        return dataclasses.replace(report, rho=report.rho * (1.0 + 1e-6)), bnt_range


class SolveLarge:
    """``rho_bound`` alone on large general specs."""

    name = "solve-large"

    @staticmethod
    def deadline_s(spec):
        return 60.0

    prepare = staticmethod(moment_spec)

    @staticmethod
    def run(ms):
        return rb.rho_bound(ms)

    @staticmethod
    def check(spec, raw):
        return bound_problems(spec, raw)

    @staticmethod
    def counts(raw):
        return {"outer_iters": raw.iterations, "method": raw.method}

    @staticmethod
    def corrupt(raw):
        return dataclasses.replace(raw, rho=raw.rho * (1.0 + 1e-6))


class AttainVerify:
    """The documented flow: ``extremal --input <spec>``, then ``verify`` on its output."""

    name = "attain-verify"

    @staticmethod
    def deadline_s(spec):
        return 60.0


    @staticmethod
    def prepare(spec):
        return spec.to_json()

    @staticmethod
    def run(text):
        code1, document = run_cli(["extremal", "--input", text])
        if code1 != 0:
            return code1, document, None, None
        code2, report = run_cli(
            ["verify", "--input", document, "--samples", str(VERIFY_SAMPLES)]
        )
        return code1, document, code2, report

    @staticmethod
    def check(spec, raw):
        code1, document, code2, report = raw
        if code1 != 0:
            return [("status", f"extremal exited {code1}")]
        problems = []
        if code2 != 0:
            problems.append(("status", f"verify exited {code2}"))
        if not report:
            return problems + [("status", "verify printed no report")]
        data = json.loads(report)
        if data["pass"] is not True:
            problems.append(("status", "verify pass is not true"))
        if data["embedded_joint_pass"] is not True:
            problems.append(("status", "embedded_joint_pass is not true"))
        rho1 = float(_TOP_RHO.search(document).group(1))
        if not abs(rho1 - data["rho"]) <= 1e-12 * abs(rho1):
            problems.append(("value", f"extremal rho {rho1!r} but verify rho {data['rho']!r}"))
        return problems

    @staticmethod
    def counts(raw):
        code1, document, code2, report = raw
        return {"stdout_bytes": len(document.encode()) + len((report or "").encode())}

    @staticmethod
    def corrupt(raw):
        code1, document, code2, report = raw
        data = json.loads(report)
        data["rho"] *= 1.0 + 1e-6
        return code1, document, code2, json.dumps(data)


def perturbation_problems(coupling, perturbed) -> list[tuple[str, str]]:
    q, p = coupling.q, perturbed.q
    problems = []
    if p.min() < 0.0:
        problems.append(("value", "perturbation has a negative cell"))
    if np.any(np.diag(p) != 0.0):
        problems.append(("value", "perturbation has a nonzero diagonal"))
    if np.max(np.abs(p.sum(axis=1) - q.sum(axis=1))) > 1e-12:
        problems.append(("value", "perturbation moves the row marginals"))
    if np.max(np.abs(p.sum(axis=0) - q.sum(axis=0))) > 1e-12:
        problems.append(("value", "perturbation moves the column marginals"))
    if np.array_equal(p, q):
        problems.append(("value", "perturbation equals the input coupling"))
    return problems


class CouplingUnique:
    """Coupling, closed-form tightness, then the uniqueness search."""

    name = "coupling-unique"

    @staticmethod
    def deadline_s(spec):
        """Loop operations end within about 1 s (the n = 20 star).

        A known-defect general spec with n >= 20 either finds its
        perturbation within 0.2 s or meets the exhaustive search and runs
        for seconds to minutes, so 0.5 s tells the two apart.  The n = 8
        stress specs get the same deadline, which their ordinary-scale
        twins meet with room to spare.
        """
        return 0.5 if spec.defect else 10.0

    prepare = staticmethod(moment_spec)

    @staticmethod
    def run(ms):
        parts = rb.extremal_components(ms)
        tight, unique, _ = rb.ag_tightness(ms)
        return parts.coupling, tight, unique, rb.perturb_coupling(parts.coupling)

    @staticmethod
    def check(spec, raw):
        coupling, tight, unique, perturbed = raw
        if spec.structure == "star":
            problems = []
            if unique is not True:
                problems.append(("value", f"star spec: ag_tightness unique is {unique!r}"))
            if perturbed is not None:
                problems.append(("value", "star spec: perturb_coupling found another coupling"))
            return problems
        return [] if perturbed is None else perturbation_problems(coupling, perturbed)

    @staticmethod
    def counts(raw):
        coupling, tight, unique, perturbed = raw
        return {
            "coupling_nnz": int(np.count_nonzero(coupling.q)),
            "unique_certified": int(perturbed is None),
        }

    @staticmethod
    def corrupt(raw):
        coupling, tight, unique, _ = raw
        return coupling, tight, unique, coupling


WORKLOADS = {w.name: w for w in (SweepSmall, SolveLarge, AttainVerify, CouplingUnique)}
