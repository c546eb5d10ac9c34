"""Benchmark of bagdet: seeded workloads in one single-threaded process.

Run from the root of a source tree:

    python3 perfbench/run.py --workload determinant_oracles --seed 1 \
        --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
gives run details (tail percentile, sample count, passes over the pool).
``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over the inputs, reports the per-layer metrics
and writes the spans to ``perfbench/out/``.
bagdet is imported from ``src/`` next to this directory; without it the
run fails before measuring anything.
"""

import os

# One thread for every numerical library, set before numpy is imported;
# the set-up and import probes inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_bagdet() -> None:
    if not os.path.isfile(os.path.join(SRC, "bagdet", "__init__.py")):
        raise SystemExit(f"error: bagdet sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import bagdet
    if not os.path.abspath(bagdet.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: bagdet imported from {bagdet.__file__}, "
                         f"not from {SRC}")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, run the warm-up operation, print "
                             "'ready' and exit (used to time set-up)")
    return parser.parse_args(argv)


def _metric_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def measure(workload, args) -> tuple:
    """Run the timed phases; returns (result object, details)."""
    import harness
    from spans import SpanRecorder

    if not args.trace:
        loop, setup = harness.end_to_end_run(workload, args.seed, args.seconds)
        metrics, details = harness.end_to_end_metrics(loop, setup)
        loops = [loop]
    else:
        imports = harness.import_seconds()
        recorder = SpanRecorder()
        untraced, traced = harness.traced_run(workload, args.seconds, recorder)
        path = os.path.join(harness.OUT_DIR,
                            f"spans-{workload.name}-seed{args.seed}.csv.gz")
        recorder.write(path)
        metrics = harness.layer_metrics(recorder, traced, untraced, imports)
        details = {"spans": len(recorder), "spans_file": os.path.relpath(path),
                   "traced_ops": traced.attempted,
                   "untraced_ops": untraced.attempted}
        loops = [untraced, traced]
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    details.update(workload=workload.name, seed=args.seed,
                   errors=[e for loop in loops for e in loop.errors][:5])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": _metric_json(metrics)}
    return result, details


def main(argv=None) -> int:
    args = _parse(argv)
    _import_bagdet()
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=harness.OUT_DIR)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        harness.run_op(workload, workload.items[0])   # untimed warm-up
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        result, details = measure(workload, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(details))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
