"""Step benchmark for hexflow.

    python3 bench/run.py --workload cylinder-wake [--seed 0] [--seconds 40] [--trace 0]

Builds one workload through the public API (see workloads.py), then
repeats rounds of ``hexflow.step`` from the workload's initial state
until the time budget is spent, timing every call and checking the
outputs after every step and round (see checks.py).  The last line of
standard output is one JSON object: correct, attempted, failed and the
metrics.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced rounds with rounds replayed layer by layer inside
spans (see tracing.py) and reports the per-layer metrics.  Results and
spans are also written under .bench_out/ in the checkout.

Load is one process on one thread: BLAS and OpenMP pools are pinned to
one thread before numpy loads.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

SCRIPT_START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
NAMES = ("cylinder-wake", "annulus-convection", "box-conduction")


def process_age() -> float:
    """Seconds since this process started, interpreter start-up included.

    Read from the kernel's process start time; falls back to the time
    since this script began when /proc does not give a sane answer.
    """
    fallback = time.perf_counter() - SCRIPT_START
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return fallback
    return age if fallback <= age < fallback + 60.0 else fallback


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "hexflow" / "__init__.py").is_file():
        print(f"error: no hexflow package under {src}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import hexflow
    if Path(hexflow.__file__).resolve().parent != (src / "hexflow").resolve():
        print(f"error: imported hexflow from {hexflow.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import harness
    out = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        runner, metrics = harness.traced(args, out)
    else:
        runner, metrics = harness.untraced(args, out, process_age)
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": float(v), "unit": unit}
                    for name, (v, unit) in metrics.items()},
    }

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        spans = out.pop("spans")
        with open(OUT_DIR / f"trace-{stem}.json", "w", encoding="utf-8") as fh:
            json.dump({**out, "result": result, "spans": spans}, fh)
    with open(OUT_DIR / f"result-{stem}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({**out, "result": result}, fh, indent=1)

    for key, value in out["info"].items():
        print(f"# {key}: {value}")
    for name, entry in result["metrics"].items():
        print(f"{name:34s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
