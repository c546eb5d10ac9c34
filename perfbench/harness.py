"""Closed-loop runner, set-up probes and metric assembly.

One process, one client: each operation starts when the previous one has
returned and been checked.  A run goes over the workload's pool in order,
pass after pass, and ends at the pass boundary nearest to its time budget
(after at least one pass), so that every run covers the pool evenly.
"""

from __future__ import annotations

import contextlib
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from spans import SpanRecorder
from workloads import margin_decades

PERFBENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERFBENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(PERFBENCH_DIR, "out")

SETUP_PROBES = 7
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 150
TAIL_BEYOND = 10

IMPORT_STATEMENTS = {
    "import.numpy_s": "import numpy",
    "import.scipy_s": "import scipy.integrate, scipy.special",
    "import.bagdet_s": "import bagdet.cli",
}


class _Discard:
    """stdout replacement for the operations: bagdet's CLI prints a line
    or more per call, which would otherwise mix with the result line."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


@dataclass
class LoopResult:
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    passes: int = 0
    boundary_oracle_ops: int = 0
    margin: float = math.inf
    errors: list = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def run_op(workload, item, recorder: SpanRecorder | None = None):
    """Run and check one operation.

    Returns (latency_s, verdict, error): verdict is None and error the
    exception's repr when the call raised or its output could not be read.
    """
    sid = recorder.begin_op() if recorder is not None else None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(_Discard()):
            output = workload.run_op(item)
    except Exception as exc:  # a raising operation is a failed one
        return time.perf_counter() - t0, None, repr(exc)
    finally:
        if sid is not None:
            recorder.end_op(sid)
    latency = time.perf_counter() - t0
    try:
        return latency, workload.check(item, output), None
    except (OSError, ValueError, KeyError) as exc:   # unreadable output
        return latency, None, repr(exc)


def run_pass(workload, res: LoopResult, recorder=None) -> None:
    """One pass over the workload's pool, each output checked."""
    if recorder is not None:
        recorder.begin_pass()
    for item in workload.items:
        latency, verdict, error = run_op(workload, item, recorder)
        res.attempted += 1
        res.latencies.append(latency)
        if verdict is None or not verdict.ok:
            res.failed += 1
            res.errors.append(error or f"output check failed on {item[0]}")
            continue
        res.boundary_oracle_ops += verdict.boundary_oracle
        res.margin = min(res.margin, margin_decades(verdict.residuals))
    res.passes += 1


def _repeat(budget_s: float, one_pass, between=None) -> None:
    """Call one_pass() at least once, stopping at the pass boundary nearest
    to budget_s of pass time.  between(elapsed_s) runs before each pass,
    outside the clock."""
    elapsed = 0.0
    while True:
        if between is not None:
            between(elapsed)
        t0 = time.perf_counter()
        one_pass()
        pass_s = time.perf_counter() - t0
        elapsed += pass_s
        if elapsed + 0.5 * pass_s >= budget_s:
            return


def closed_loop(workload, budget_s: float, between=None) -> LoopResult:
    res = LoopResult()
    _repeat(budget_s, lambda: run_pass(workload, res), between)
    return res


def end_to_end_run(workload, seed: int, budget_s: float) -> tuple:
    """The untraced run: (loop result, set-up samples).  The SETUP_PROBES
    set-up probes are spread over the run, one at the first pass boundary
    after each SETUP_PROBES-th of the budget, so that they sample the
    machine's fast and slow phases alike (see README.md)."""
    setup = []

    def probe(elapsed):
        if (len(setup) < SETUP_PROBES
                and elapsed >= len(setup) * budget_s / SETUP_PROBES):
            setup.append(setup_seconds(workload.name, seed))

    loop = closed_loop(workload, budget_s, probe)
    while len(setup) < SETUP_PROBES:
        setup.append(setup_seconds(workload.name, seed))
    return loop, setup


def traced_run(workload, budget_s: float, recorder: SpanRecorder) -> tuple:
    """Untraced and traced passes in turn: (untraced, traced) results.
    Alternating them lets both sides sample the same machine phases."""
    untraced, traced = LoopResult(), LoopResult()

    def pair():
        run_pass(workload, untraced)
        recorder.install()
        try:
            run_pass(workload, traced, recorder)
        finally:
            recorder.uninstall()

    _repeat(budget_s, pair)
    return untraced, traced


def tail(latencies) -> tuple:
    """Highest percentile with at least TAIL_BEYOND samples above it:
    (value, percentile, samples beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _wait(proc) -> None:
    try:
        proc.wait(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise


def setup_seconds(workload_name: str, seed: int) -> float:
    """Set-up time of a fresh interpreter: from process start to the moment
    it is ready for its first timed operation (imports, input generation
    and one checked warm-up operation done)."""
    cmd = [sys.executable, os.path.join(PERFBENCH_DIR, "run.py"),
           "--workload", workload_name, "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            env=probe_env(), text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        _wait(proc)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def import_seconds() -> dict:
    """Median time of each statement in IMPORT_STATEMENTS, each timed in a
    fresh interpreter."""
    out = {}
    for metric, statement in IMPORT_STATEMENTS.items():
        code = ("import time; t = time.perf_counter(); " + statement
                + "; print(time.perf_counter() - t)")
        samples = []
        for _ in range(IMPORT_PROBES):
            proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                                  env=probe_env(), capture_output=True,
                                  text=True, timeout=PROBE_TIMEOUT_S,
                                  check=True)
            samples.append(float(proc.stdout.strip()))
        out[metric] = statistics.median(samples)
    return out


def end_to_end_metrics(loop: LoopResult, setup: list) -> tuple:
    """(gated metrics, details).  Throughput and median latency go to the
    details: they follow the machine's fast and slow phases (see
    README.md) too closely to gate on."""
    value, percentile, beyond = tail(loop.latencies)
    metrics = {
        "latency_tail_ms": (1e3 * value, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_ops_ratio": ((loop.attempted - loop.failed) / loop.attempted, "ratio"),
        # no operation passed its check: no residual to report
        "oracle_margin_decades": (loop.margin if math.isfinite(loop.margin)
                                  else 0.0, "decades"),
    }
    details = {"ops_per_s": loop.attempted / loop.busy_s,
               "latency_p50_ms": 1e3 * statistics.median(loop.latencies),
               "tail_percentile": percentile, "tail_samples_beyond": beyond,
               "samples": len(loop.latencies), "passes": loop.passes,
               "busy_s": loop.busy_s, "setup_samples_s": setup}
    return metrics, details


# Per-layer metrics: (span name, statistic).  "ms" is inclusive time,
# "self_ms" excludes child spans; both, like the counts, are per operation.
LAYER_STATS = (
    ("determinant.gamma_log_contour", ("calls", "self_ms", "nodes")),
    ("determinant.bulk_log_term", ("ms",)),
    ("quadrature.j2_over_u_integral", ("ms",)),
    ("determinant.bulk_c2_bessel_oracle", ("ms",)),
    ("determinant.boundary_contour_oracle", ("calls", "ms")),
    ("quadrature.integrate_gauss_legendre", ("calls", "self_ms")),
    ("seeley.d_minus1", ("calls", "self_ms")),
    ("seeley.d_tilde_minus1", ("calls", "raised")),
    ("seeley.c_minus2", ("calls",)),
    ("seeley.decay_root", ("calls",)),
    ("seeley.d_tilde_minus1_contour", ("calls", "self_ms")),
    ("seeley.k_nu_bessel", ("ms",)),
    ("calderon.q_lambda_contour", ("calls", "self_ms")),
    ("calderon.check_ellipticity", ("ms",)),
    ("greens.disk_green", ("calls",)),
    ("greens.boundary_residual", ("ms",)),
    ("greens.pde_residual", ("ms",)),
    ("determinant.residue_check", ("ms",)),
    ("quadrature.integrate_adaptive", ("calls", "self_ms", "nodes")),
    ("determinant.a_squared_integral", ("calls", "ms")),
    ("cli.run", ("self_ms",)),
)

_STAT_SOURCE = {"calls": ("calls", 1.0, "count"), "nodes": ("nodes", 1.0, "count"),
                "raised": ("raised", 1.0, "count"), "ms": ("s", 1e3, "ms"),
                "self_ms": ("self_s", 1e3, "ms")}


def layer_metrics(recorder: SpanRecorder, traced: LoopResult,
                  untraced: LoopResult, imports: dict) -> dict:
    stats = recorder.aggregate()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "nodes": 0, "raised": 0}
    ops = traced.attempted
    metrics = {}
    for span, wanted in LAYER_STATS:
        row = stats.get(span, empty)
        for stat in wanted:
            key, scale, unit = _STAT_SOURCE[stat]
            metrics[f"{span}.{stat}"] = (scale * row[key] / ops, unit)
    for span in ("determinant.bulk_log_term", "quadrature.j2_over_u_integral"):
        metrics[f"{span}.repeat_share"] = (recorder.repeat_share(span), "ratio")
    metrics["determinant.boundary_oracle_coverage"] = (
        traced.boundary_oracle_ops / ops, "ratio")
    for name, seconds in imports.items():
        metrics[name] = (seconds, "s")
    metrics["trace_overhead_ratio"] = (
        (untraced.attempted / untraced.busy_s) / (traced.attempted / traced.busy_s),
        "ratio")
    return metrics
