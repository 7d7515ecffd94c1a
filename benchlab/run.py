"""bianchi-lab benchmark: one workload, timed end to end or traced per layer.

    python3 benchlab/run.py --workload slab-solve --seed 1 --seconds 10 \
        --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  A run measures set-up
in fresh interpreters, then runs whole passes of the workload until
``--seconds`` have elapsed (at least one pass).  Each pass starts with
bianchi_lab's lazy index tables cleared, as a fresh CLI invocation does.

The last line of standard output is the result object; the line before
it records the run's settings (``meta``).  With ``--trace 1`` the public
functions are wrapped (see spans.py), the result holds the per-layer
metrics, and the spans are written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pkgutil
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One BLAS/OpenMP thread: steadier timings on a shared 2-core machine, and
# LSMR iteration counts repeat exactly only at a fixed thread count.
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5

SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import pkgutil, numpy, scipy, bianchi_lab
for info in pkgutil.iter_modules(bianchi_lab.__path__):
    __import__("bianchi_lab." + info.name)
bianchi_lab.conventions.load_conventions()
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup():
    """Seconds to import bianchi_lab with numpy and scipy and load the
    conventions artifact, in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)],
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.strip().splitlines()[-1])


def import_package():
    sys.path[:0] = [str(SRC), str(HERE)]
    import bianchi_lab

    if Path(bianchi_lab.__file__).resolve().parent != SRC / "bianchi_lab":
        raise ImportError(f"bianchi_lab came from {bianchi_lab.__file__}, "
                          f"not from {SRC}")
    modules = [importlib.import_module(f"bianchi_lab.{info.name}")
               for info in pkgutil.iter_modules(bianchi_lab.__path__)]
    return bianchi_lab, modules


def clear_lazy_tables(modules):
    for mod in modules:
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) == mod.__name__ and \
                    callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def run_meta(args, bl, tally, walls, setups):
    import numpy
    import scipy

    self_ru = resource.getrusage(resource.RUSAGE_SELF)
    child_ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "conventions_hash": bl.conventions.load_conventions()["hash"],
        "cpu_s": self_ru.ru_utime + self_ru.ru_stime,
        "setup_cpu_s": child_ru.ru_utime + child_ru.ru_stime,
        "passes": len(walls),
        "pass_wall_s": walls,
        "op_wall_s": tally.seconds,
        "setup_samples_s": setups,
    }


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:   # before numpy is first imported
        os.environ[var] = THREADS
    if not (SRC / "bianchi_lab" / "__init__.py").is_file():
        print(f"no bianchi_lab sources under {SRC}; run from the root of a "
              f"checkout", file=sys.stderr)
        return 2

    setups = [measure_setup() for _ in range(SETUP_REPEATS)]
    bl, modules = import_package()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(modules, spans.targets(bl), [bl.verify.SUITES])
    bl.conventions.load_conventions()

    run_pass = workloads.WORKLOADS[args.workload]
    tally = workloads.Tally()
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        clear_lazy_tables(modules)
        t0 = time.perf_counter()
        run_pass(args.seed, tally)
        walls.append(time.perf_counter() - t0)

    for line in tally.failures:
        print(f"FAILED {line}", file=sys.stderr)
    for line in tally.problems:
        print(f"WRONG {line}", file=sys.stderr)

    meta = run_meta(args, bl, tally, walls, setups)
    if tracer is not None:
        tracer.uninstall()
        metrics = spans.per_layer_metrics(tracer, len(walls))
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, meta)
        meta["trace_file"] = str(path.relative_to(ROOT))
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": not tally.problems,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
