#!/usr/bin/env python3
"""Benchmark of the catvrnn reproduction: train -> checkpoint -> sample ->
evaluate, one workload per process, in a closed loop (one caller; each call
waits for the last).

    python3 perfbench/run.py --workload desk --seed 1 --seconds 10 --trace 0

Run it from the repository root; it imports the program from ``src/``.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload once untraced and once with every public function of
``catvrnn.{data,model,training,evaluation,numeric}`` wrapped in spans, checks
that both end with bit-identical parameters, prints a self-time table and
the per-layer metrics, and writes the spans to ``perfbench/out/``. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

import os
import sys
import time

# one process with one BLAS thread: steadier on a shared machine than
# letting OpenBLAS spread over every core, and always <= nproc
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import shutil
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="window of the timed rounds (training, sampling, "
                         "perplexity, BLEU, classifier fit)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink the workload to a few seconds (smoke tests)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


# --- environment ---------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout's own .git, read without running git (which
    would search parent directories)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "git_commit": git_commit(),
    }


# --- measurement ---------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "catvrnn" / "__init__.py").is_file():
        print(f"catvrnn sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    t0 = time.perf_counter()
    import measure
    import_s = time.perf_counter() - t0
    from measure import pl, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 1
    w = workloads.WORKLOADS[args.workload]
    if args.tiny:
        w = workloads.tiny(w)
    scale = "tiny" if args.tiny else "full"

    env = environment()
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    print(f"# workload {w.name} ({scale}) seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: {w.why}")

    OUT.mkdir(exist_ok=True)
    ledger = pl.Ledger()
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        if args.trace:
            metrics, quality, tracer = measure.traced(w, args.seed, workdir, ledger)
            units = measure.LAYER_UNITS
            trace_path = OUT / f"spans-{w.name}-{scale}.jsonl.gz"
            tracer.write(trace_path, {"environment": env, "workload": w.name,
                                      "scale": scale, "seed": args.seed})
            print(f"# {len(tracer.spans)} spans written to "
                  f"{trace_path.relative_to(ROOT)}")
            for name, value in metrics.items():
                print(f"{name:<36} {value:>14.6g} {units[name]}")
        else:
            metrics, raw, quality = measure.end_to_end(
                w, args.seed, args.seconds, workdir, ledger, import_s)
            units = measure.END_TO_END_UNITS
            for name, xs in raw.items():
                print(measure.sample_line(name, units[name], xs))
        measure.check_quality(ledger, OUT, w, args.seed, quality)
    except Exception:
        # the program raised: count the call as failed and report no metrics
        traceback.print_exc()
        ledger.attempted += 1
        ledger.failed += 1
        metrics, units = {}, {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{'error_rate':<22} {ledger.failed / ledger.attempted:>14.6g} "
          f"{'fraction':<9} ({ledger.failed} of {ledger.attempted} operations "
          f"failed)")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
