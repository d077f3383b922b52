"""Run one priorbench benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload flow --seed 7 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. Lines before it, each starting with ``#``, record the
machine and its load, sample counts, failed operations and, for a traced
run, the predicted layer shares and whether they held.
"""

import argparse
import json
import os
import platform
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
EXPECTATIONS = os.path.join(HERE, "expectations.json")


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def machine_record(np):
    """Facts that a timing depends on, recorded with every result."""
    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "loadavg_start": _loadavg(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "priorbench", "__init__.py")):
        print(f"perfbench: no priorbench sources under {SRC}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path[:0] = [SRC, HERE]
    import numpy as np
    import priorbench
    import workloads
    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(priorbench.__file__)) != os.path.join(SRC, "priorbench"):
        print(f"perfbench: imported priorbench from {priorbench.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(EXPECTATIONS) as fh:
        expect = json.load(fh)["workloads"][args.workload]

    machine = machine_record(np)
    print("# machine " + json.dumps(machine), flush=True)
    work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    fid = expect["peak_test_fid"]
    run = workloads.Run(args.workload, args.seed, args.seconds, workloads.FULL, work_dir,
                        fid_expectation=(fid["reference"], fid["tolerance"]))
    try:
        try:
            run.set_up()
        except (priorbench.PriorBenchError, workloads.CheckFailed) as exc:
            print(f"perfbench: set-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        run.measure(trace=bool(args.trace))
        result = run.result(bool(args.trace), import_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.trace:
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
        run.tracer.write_jsonl(path)
        print(f"# spans {len(run.tracer.spans)} written to {os.path.relpath(path, ROOT)}")
        if result["metrics"] is not None:
            checks = workloads.check_predictions(result["metrics"], expect["predicted_shares"])
            print("# predictions " + json.dumps(
                [{"metric": m, "at_least": floor, "measured": round(v, 4),
                  "held": ok} for m, floor, v, ok in checks]))
            for m, floor, v, ok in checks:
                if not ok:
                    print(f"# MISMATCH {m} = {v:.3f}, predicted >= {floor}")
    print("# load " + json.dumps({"loadavg_start": machine["loadavg_start"],
                                  "loadavg_end": _loadavg()}))
    if result["metrics"] is None:
        print("perfbench: no metrics could be computed", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
