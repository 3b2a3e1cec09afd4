"""framedynamo benchmark: one workload per process, every output checked.

    python3 bench/run.py --workload arnold-growth --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/`. The run sets the workload up, then repeats whole workload passes
until `--seconds` have elapsed (at least one pass). With `--trace 0` it
reports the end-to-end metrics; with `--trace 1` it alternates untraced
and traced passes and reports the per-layer metrics, the tracing overhead
being the difference of their median pass times. Every metric is printed
as "name value unit"; the last line is the JSON result. A record of the
run (environment, metrics, gates) and, for traced runs, every span go to
`.bench_out/`. See bench/README.md.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 7
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (name, unit) of the end-to-end metrics
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("err_rel", "ratio"))

# A fresh interpreter times the import plus the workload's set-up.
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.make(sys.argv[3], int(sys.argv[4])).setup()
print(time.perf_counter() - t0)
"""


def cap_blas_threads() -> int:
    """Limit BLAS/OpenMP threads to the usable cores; returns that count."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 0 < int(cur) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    import ctypes
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    try:
        # the ceiling keeps git from searching above the checkout
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(nproc: int, workload) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "nproc": nproc,
            "machine": platform.machine(), "commit": git_commit(),
            "seed": workload.seed, "scenarios": workload.describe()}


def measure_setup(name: str, seed: int) -> float:
    """Median set-up time over fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(BENCH_DIR), str(SRC),
             name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def run_pass(workload, tally: dict) -> float:
    """Solve and check every problem once; returns the pass's wall time."""
    t0 = time.perf_counter()
    for name, solve in workload.problems():
        tally["attempted"] += 1
        try:
            gates = solve()
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            tally["failed"] += 1
            tally["failures"].append(name)
            continue
        tally["gates"].extend((name, g) for g in gates)
        if not all(g.ok for g in gates):
            tally["failed"] += 1
            tally["failures"].append(name)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    nproc = cap_blas_threads()
    if not (SRC / "framedynamo" / "__init__.py").is_file():
        print(f"error: no framedynamo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    workload = workloads.make(args.workload, args.seed)
    workload.setup()

    tally = {"attempted": 0, "failed": 0, "failures": [], "gates": []}
    walls, traced_walls = [], []
    tracer = missing = None
    if args.trace:
        import layers
        from spans import Tracer, traced
        tracer = Tracer()
    start = time.perf_counter()
    while True:
        walls.append(run_pass(workload, tally))
        if tracer is not None:
            with traced(tracer, layers.TARGETS) as missing:
                traced_walls.append(run_pass(workload, tally))
        if time.perf_counter() - start >= args.seconds:
            break

    if missing:
        # a renamed or removed target would read as a per-layer gain
        print(f"error: trace targets not found: {missing}", file=sys.stderr)
        tally["attempted"] += 1
        tally["failed"] += 1
        tally["failures"].append("trace-targets")

    # a gate that could not be measured reads as the largest finite ratio
    err_rel = min(max((g.ratio for _, g in tally["gates"]), default=float("inf")),
                  sys.float_info.max)
    if args.trace:
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        values = layers.layer_metrics(tracer.stats, len(traced_walls), overhead)
        units = {name: unit for name, unit, _ in layers.metric_specs()}
    else:
        values = {"wall_s": statistics.median(walls), "setup_s": setup_s,
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "err_rel": err_rel}
        units = dict(END_TO_END)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    attempted, failed = tally["attempted"], tally["failed"]
    env = environment(nproc, workload)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_frac {failed / attempted:.6g} ratio ({failed}/{attempted})")
    print(f"passes {len(walls)} untraced, {len(traced_walls)} traced")
    worst = {}  # gate name -> (problem, gate) with the highest ratio
    for problem, g in tally["gates"]:
        if g.name not in worst or g.ratio >= worst[g.name][1].ratio:
            worst[g.name] = (problem, g)
    for problem, g in worst.values():
        print(f"gate {problem}/{g.name} measured {g.measured:.6g} "
              f"limit {g.limit:.6g} {'ok' if g.ok else 'FAIL'}")
    print("env " + json.dumps(env))

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "env": env, "metrics": metrics,
              "fail_frac": failed / attempted, "failures": tally["failures"],
              "pass_wall_s": walls, "traced_pass_wall_s": traced_walls,
              "gates": {g.name: {"problem": p, "ratio": g.ratio,
                                 "measured": g.measured, "limit": g.limit,
                                 "ok": g.ok}
                        for p, g in worst.values()}}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}-spans.json.gz",
                     {"workload": args.workload, "seed": args.seed,
                      "traced_passes": len(traced_walls)})

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
