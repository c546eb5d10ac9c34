"""Tests of the benchmark itself: tiny workloads, seeded inputs, the output
check and the span recorder."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import harness  # noqa: E402
import workloads  # noqa: E402
from bagdet import determinant  # noqa: E402
from bagdet.errors import DomainError  # noqa: E402
from spans import SpanRecorder  # noqa: E402

TINY = {"determinant_oracles": 3, "verify_suite": 2, "sweep_grid": 3}


def _tiny(name, workdir, seed=3, cls=None):
    cls = cls or workloads.WORKLOADS[name]
    return cls(seed, str(workdir), pool_size=TINY[name])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_at_tiny_size(name, tmp_path):
    loop = harness.closed_loop(_tiny(name, tmp_path), 0.0)
    assert loop.attempted == TINY[name]
    assert loop.failed == 0, loop.errors
    metrics, details = harness.end_to_end_metrics(loop, setup=[1.0])
    assert all(value > 0 for value, _ in metrics.values())
    assert details["samples"] == TINY[name]


def test_same_seed_gives_same_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        first = _tiny(name, tmp_path, seed=11).describe()
        assert first == _tiny(name, tmp_path, seed=11).describe()
        assert first != _tiny(name, tmp_path, seed=12).describe()


def test_determinant_pool_splits_evenly_across_the_oracle_sheet(tmp_path):
    cases = workloads.DeterminantOracles(5, str(tmp_path)).describe()
    on_sheet = sum(c.w.real > 0 for c in cases)
    assert on_sheet == len(cases) // 2


class _ShiftedTotal(workloads.DeterminantOracles):
    def run_op(self, item):
        result = super().run_op(item)
        return dataclasses.replace(result, total=result.total + 1e-6)


class _Raising(workloads.DeterminantOracles):
    def run_op(self, item):
        raise DomainError("injected")


@pytest.mark.parametrize("cls", [_ShiftedTotal, _Raising])
def test_perturbed_or_raising_op_counts_as_failed(cls, tmp_path):
    wl = _tiny("determinant_oracles", tmp_path, cls=cls)
    loop = harness.closed_loop(wl, 0.0)
    assert loop.failed == loop.attempted == TINY["determinant_oracles"]


def test_sweep_check_reads_back_every_row(tmp_path):
    wl = _tiny("sweep_grid", tmp_path)
    item = wl.items[1]
    code = wl.run_op(item)
    assert wl.check(item, code).ok
    path = item[3].output_path
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[-1].split(",")
    cells[4] = repr(float(cells[4]) + 1e-6)          # total_re of the last row
    with open(path, "w") as fh:
        fh.write("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    assert not wl.check(item, code).ok


def test_verify_check_requires_passed(tmp_path):
    wl = _tiny("verify_suite", tmp_path)
    item = wl.items[0]
    codes = wl.run_op(item)
    assert wl.check(item, codes).ok
    path = item[1].output_path
    with open(path) as fh:
        payload = json.load(fh)
    payload["passed"] = False
    with open(path, "w") as fh:
        json.dump(payload, fh)
    assert not wl.check(item, codes).ok


def _traced_counts(workdir):
    wl = _tiny("determinant_oracles", workdir)
    recorder = SpanRecorder()
    recorder.install()
    try:
        assert determinant.integrate_adaptive.__wrapped__ is not None
    finally:
        recorder.uninstall()
    assert not hasattr(determinant.integrate_adaptive, "__wrapped__")
    untraced, traced = harness.traced_run(wl, 0.0, recorder)
    assert untraced.attempted == traced.attempted == TINY["determinant_oracles"]
    assert not hasattr(determinant.integrate_adaptive, "__wrapped__")
    metrics = harness.layer_metrics(recorder, traced, untraced, {})
    return recorder, {k: v for k, (v, unit) in metrics.items()
                      if unit in ("count", "ratio") and k != "trace_overhead_ratio"}


def test_traced_counts_repeat_and_self_time_excludes_children(tmp_path):
    recorder, first = _traced_counts(tmp_path)
    _, second = _traced_counts(tmp_path)
    assert first == second
    assert first["determinant.gamma_log_contour.calls"] == 1.0
    assert first["determinant.a_squared_integral.calls"] == 4.0
    assert first["determinant.bulk_log_term.repeat_share"] == pytest.approx(2 / 3)
    stats = recorder.aggregate()
    for name, row in stats.items():
        assert row["self_s"] <= row["s"] + 1e-12, name
    adaptive = stats["quadrature.integrate_adaptive"]
    assert adaptive["calls"] > 0 and adaptive["nodes"] > 0
    assert stats["determinant.a_squared_integral"]["s"] > 0
    recorder.write(str(tmp_path / "spans.csv.gz"))
    assert (tmp_path / "spans.csv.gz").stat().st_size > 0


def test_tail_has_ten_samples_beyond():
    value, percentile, beyond = harness.tail(list(range(1, 101)))
    assert (value, percentile, beyond) == (90, 90.0, 10)


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_metric_names_match_benchmark_json(tmp_path):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    loop = harness.closed_loop(_tiny("sweep_grid", tmp_path), 0.0)
    e2e, _ = harness.end_to_end_metrics(loop, setup=[1.0])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in e2e.items()}
    layers = harness.layer_metrics(SpanRecorder(), loop, loop,
                                   dict.fromkeys(harness.IMPORT_STATEMENTS, 1.0))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in layers.items()}


def test_unreadable_output_counts_as_failed(tmp_path):
    class _NoOutput(workloads.SweepGrid):
        def run_op(self, item):
            return 0                      # claims success, writes nothing

    wl = _tiny("sweep_grid", tmp_path, cls=_NoOutput)
    loop = harness.closed_loop(wl, 0.0)
    assert loop.failed == loop.attempted == TINY["sweep_grid"]
