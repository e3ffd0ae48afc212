"""partgen benchmark: closed-loop workloads over the CLI and public functions.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline|train --seed N \
        --seconds S --trace 0|1

Set-up runs several times and reports its median. Ops then run one after
another until S seconds have passed, and at least until each op's output
can be compared with an earlier op's (see workloads.py). With --trace 0 the last line of standard output
is a JSON object with the end-to-end metrics; with --trace 1 the boundaries
in perfbench/tracing.py are wrapped and the JSON holds the per-layer
metrics. Untraced, a pass of the reference kernel (perfbench/reference.py)
runs after every op, and wall_rel is the mean over ops after the first of
the op's wall time divided by the mean of the passes on either side: the
op's cost in units of the machine's current speed. The lines before the
JSON give the environment and, untraced, every workload-specific figure with
its unit. Scratch files go under .bench_work/ and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("pipeline", "train"))
    parser.add_argument("--seed", type=int, default=0, help="benchmark seed; 0 reproduces PIPELINE_DEFAULTS")
    parser.add_argument("--seconds", type=float, default=10.0, help="how long the op loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _pin_blas_threads() -> None:
    """One BLAS thread; must run before numpy loads.

    The network's matmuls (batch 64, widths 340 and 256) are too small for a
    second BLAS thread to pay: it was slower per training step on 2 cores,
    and it made every timing depend on the noise of both cores.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def _environment() -> dict[str, object]:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or "unknown",
    }


def _high_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n/a (needs 11 samples, have {n})"
    k = n - 10
    return f"p{100 * k // n}={sorted(values)[k - 1]:.6f}"


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not Path("src/partgen/cli.py").is_file():
        print("perfbench: run from a partgen checkout (src/partgen/cli.py not found)", file=sys.stderr)
        return 2
    _pin_blas_threads()
    sys.path.insert(0, str(Path("src").resolve()))
    import reference
    import tracing
    import workloads

    Path(".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=".bench_work")).resolve()
    tracer = tracing.Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install()
        workload = workloads.WORKLOADS[args.workload](work, args.seed)
        setup_times = []
        for rep in range(workload.setup_reps):
            t0 = time.perf_counter()
            workload.setup(rep)
            setup_times.append(time.perf_counter() - t0)

        walls: list[float] = []
        refs: list[float] = []
        ops: list[str] = []
        failures: list[str] = []
        ref_digests: set[str] = set()
        loop_start = time.perf_counter()
        while len(ops) <= workload.draws or time.perf_counter() - loop_start < args.seconds:
            op_id = f"op{len(ops)}"
            if tracer:
                tracer.op = op_id
            t0 = time.perf_counter()
            try:
                workload.op(len(ops))
            except Exception as exc:  # any error is a failed op, reported below
                failures.append(f"{op_id}: {exc}")
                traceback.print_exc(file=sys.stderr)
            walls.append(time.perf_counter() - t0)
            ops.append(op_id)
            if not tracer:
                ref_wall, ref_digest = reference.run()
                refs.append(ref_wall)
                ref_digests.add(ref_digest)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = _environment()
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"ops={len(ops)} setup_reps={len(setup_times)}")
    for failure in failures:
        print(f"failed: {failure}")
    if len(ref_digests) > 1:
        print("failed: the reference kernel's outputs differ between passes")
    print(f"failed_ops: {len(failures)}/{len(ops)}")

    wall_s = statistics.median(walls)
    if tracer:
        metrics, missing = tracing.per_layer_metrics(tracer, ops, walls)
        if missing:
            print("missing boundaries: " + ", ".join(tracer.missing) + "; missing metrics: " + ", ".join(missing))
        spans_path = Path(".bench_work") / f"spans-{args.workload}.jsonl"
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path}")
        result = metrics
    else:
        # Each op after the first against the mean of the reference passes
        # just before and after it. A pass is slower after an op than after
        # another pass, so no pass runs before the first op.
        rels = [wall / ((before + after) / 2) for wall, before, after in zip(walls[1:], refs, refs[1:])]
        print(f"wall_s: median={wall_s:.6f} s {_high_percentile(walls)} n={len(walls)} "
              f"ops: {' '.join(f'{w:.3f}' for w in walls)}")
        print(f"reference_s: median={statistics.median(refs):.6f} s n={len(refs)} "
              f"passes: {' '.join(f'{r:.3f}' for r in refs)}")
        print(f"wall_rel: mean={statistics.mean(rels):.6f} ref median={statistics.median(rels):.6f} "
              f"{_high_percentile(rels)} n={len(rels)} "
              f"ops: {' '.join(f'{r:.3f}' for r in rels)}")
        print(f"setup_s: median={statistics.median(setup_times):.6f} s "
              f"reps: {' '.join(f'{t:.3f}' for t in setup_times)}")
        for name, value, unit in workload.summary(walls):
            print(f"{name}: {value:.6g} {unit}")
        result = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_rel": {"value": statistics.mean(rels), "unit": "ref"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    correct = not failures and len(ref_digests) <= 1
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failures), "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
