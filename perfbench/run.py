"""Run one workload of the benchmark and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload soup-products-sage --seed 1 --seconds 30 --trace 0

Each metric is printed as ``name value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics with telemetry
off; ``--trace 1`` reports the per-layer metrics of a traced run. The
exit code is 1 when an output check fails and 2 when the program under
``src/`` cannot be imported. Workloads and metrics are listed in
``BENCHMARK.json`` and explained in ``perfbench/README.md``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# one BLAS thread, set before numpy loads; the server process inherits it
# and forked cluster workers share it
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# glibc raises its mmap threshold as large blocks are freed, so whether an
# array is mmapped (and page-faulted in afresh) depends on what the process
# allocated before: the same GIS call takes 1.1 s in one run and 2.0 s in
# the next. Pinning the thresholds where glibc's own adjustment ends up in a
# long-running process (mmap 32 MiB, trim twice that) removes the history
# dependence. The server process reads the environment at start; this
# process applies the same values with mallopt.
MMAP_THRESHOLD = 32 * 1024 * 1024
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD
os.environ["MALLOC_MMAP_THRESHOLD_"] = str(MMAP_THRESHOLD)
os.environ["MALLOC_TRIM_THRESHOLD_"] = str(TRIM_THRESHOLD)

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402


def _pin_malloc() -> bool:
    """Apply the pinned thresholds to this process (glibc only)."""
    try:
        libc = ctypes.CDLL(None)
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_mmap_threshold, MMAP_THRESHOLD) and mallopt(m_trim_threshold, TRIM_THRESHOLD))


def _blas_threads() -> int:
    """Threads OpenBLAS reports, or the pinned value when it cannot be asked."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return BLAS_THREADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    malloc_pinned = _pin_malloc()

    try:
        import repro
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        print(f"error: repro imported from {repro.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    from pipeline import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    out = Run(args.workload, args.seed, args.seconds, bool(args.trace)).run()
    threads = _blas_threads()
    out.per_layer["blas.threads"] = (threads, "count")
    chosen = out.per_layer if args.trace else out.metrics
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    if sorted(chosen) != sorted(entry["name"] for entry in declared):
        print("error: reported metrics do not match BENCHMARK.json", file=sys.stderr)
        return 1
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  blas threads {threads}  "
          f"nproc {len(os.sched_getaffinity(0))}  malloc thresholds {'pinned' if malloc_pinned else 'not pinned'}")
    for name, (value, unit) in chosen.items():
        print(f"{name:28s} {value:>16.6g} {unit}")
    print(f"attempted {out.attempted}  failed {out.failed}")
    for problem in out.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }))
    return 1 if out.problems else 0


if __name__ == "__main__":
    sys.exit(main())
