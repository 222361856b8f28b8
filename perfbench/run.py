"""echoforge benchmark: one workload, one seed, one JSON result.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload enhance-10s --seed 1 --seconds 30 --trace 0

Workloads: enhance-10s, tune-generation, corpus-build (see DESIGN.md).
With --trace 0 the run measures the end-to-end metrics with no wrapper
installed, its times scaled to reference speed (refspeed.py); with
--trace 1 it alternates untraced and traced units, checks that both give
bit-identical outputs, and reports the per-layer metrics plus the tracing
overhead. The last line of stdout is the result object;
the line before it is the run record (machine, versions, load, seed).
Exits 2 without a result when the checkout has no echoforge sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def cap_threads(cores: int) -> dict:
    """Cap BLAS/OpenMP pools at the core count (before numpy loads)."""
    caps = {}
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, cores))
        except ValueError:
            wanted = cores
        caps[var] = max(1, min(wanted, cores))
        os.environ[var] = str(caps[var])
    return caps


def load_average() -> float | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def source_key() -> str:
    """Hash of the program and benchmark sources, so stored output digests
    are only compared between runs of the same code."""
    import hashlib

    h = hashlib.sha1()
    for path in sorted(list((SRC / "echoforge").glob("*.py")) + list(HERE.glob("*.py"))):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_repeatable(out_dir: Path, key: str, digest: str) -> str | None:
    """Compare this run's output digest with an earlier run of the same
    workload, seed and sources; remember it if there is none."""
    store = out_dir / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known:
        return None if known[key] == digest else \
            f"outputs differ from an earlier run with the same seed ({key})"
    known[key] = digest
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(store)
    return None


def import_seconds() -> float:
    """Time to import the modules a workload needs, in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); "
            "import numpy, scipy.io.wavfile, scipy.signal, echoforge.corpus, echoforge.tuner; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    return float(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("enhance-10s", "tune-generation", "corpus-build"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "echoforge" / "__init__.py").is_file():
        print(f"perfbench: no echoforge sources under {SRC}", file=sys.stderr)
        return 2

    cores = len(os.sched_getaffinity(0))
    caps = cap_threads(cores)
    loadavg = load_average()
    sys.path[:0] = [str(SRC), str(HERE)]

    import numpy
    import scipy
    import echoforge
    if Path(echoforge.__file__).resolve().parent != SRC / "echoforge":
        print(f"perfbench: imported echoforge from {echoforge.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import logging

    import workloads

    # The tuner logs each rejected candidate; the benchmark counts them itself.
    logging.getLogger("echoforge").setLevel(logging.ERROR)

    out_dir = ROOT / ".perfbench_out"
    work_root = ROOT / ".perfbench_tmp"
    out_dir.mkdir(exist_ok=True)
    work_root.mkdir(exist_ok=True)
    # A fixed path: corpus manifests record source paths, and the output
    # digests compared across runs include the manifests.
    work_dir = work_root / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir()
    settings = workloads.Settings(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        work_dir=str(work_dir), out_dir=str(out_dir), import_seconds=import_seconds,
        jobs=min(2, cores))
    try:
        run = workloads.WORKLOADS[args.workload](settings)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    problem = check_repeatable(out_dir, f"{args.workload}/{args.seed}/{source_key()}",
                               run.digest)
    if problem:
        run.fail(problem)
    if not args.trace:
        run.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for failure in run.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cores": cores, "thread_caps": caps,
        "loadavg_1min": loadavg, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "failures": run.failures, **run.record,
    }
    print(json.dumps({"record": record}))
    units = {"setup_s": "s", "rtf_p50": "s/s", "batch_s_p50": "s",
             "segsnr_gain_db": "dB", "erle_db": "dB", "peak_rss_mb": "MB"}
    units.update(workloads.tracing.PER_LAYER)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in run.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
