"""Benchmark runner for the pillowcase pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload image|search|homology \\
        [--seed N] [--seconds S] [--trace 0|1]

One client in one process runs ops back to back (a closed loop) for
``--seconds`` seconds, checks every answer outside the timed interval, and
prints a report line followed, as the last line, by the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the first half of the time runs untraced and the second half traced, and
the metrics are the per-layer ones of ``tracer.PER_LAYER``, per op, plus
``trace.overhead_ratio`` (traced over untraced ops per second).  The spans
are written to ``.perfbench/trace-<workload>-seed<N>.json``.

BLAS is pinned to one thread here, before numpy is imported, so that the
measurement does not depend on the machine's core count.

Every end-to-end time is scaled to a fixed reference machine speed by the
probe of ``speed.py``, which samples the host's speed while the benchmark
runs; the report line also gives the unscaled times.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here

from speed import SpeedProbe  # noqa: E402  (standard library only)

PROBE = SpeedProbe()
PROBE.start()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
from array import array  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import PER_LAYER, Tracer, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

# End-to-end metrics in the result line; op_p99_ms and error_rate are in
# the report line only (see README.md).
END_TO_END = ("setup_s", "op_p50_ms", "ops_per_s", "peak_rss_mb")


def import_package():
    """Import pillowcase from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "pillowcase" / "__init__.py").is_file():
        raise SystemExit(f"error: no pillowcase package under {src}")
    sys.path.insert(0, str(src))
    import pillowcase
    if Path(pillowcase.__file__).resolve().parent != (src / "pillowcase").resolve():
        raise SystemExit(f"error: imported pillowcase from {pillowcase.__file__}")


def environment() -> dict:
    import numpy as np
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "commit": commit,
        "loadavg_start": os.getloadavg(),
    }


def blas_threads():
    """Thread count OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    libs = sorted({line.split()[-1] for line in
                   Path("/proc/self/maps").read_text().splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return func()
    return None


def child_setup_s(workload: str, seed: int) -> float:
    """Scaled set-up time of a fresh process, measured by that process."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, text=True, capture_output=True, timeout=170, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


class Loop:
    """Closed loop over a workload's ops; answers are checked untimed."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.next_index = 0
        self.attempted = 0
        self.failed = 0

    def run(self, seconds: float):
        """Start times and durations of the ops, the durations without the
        probe's time; stops after ``seconds`` at a whole block of ops."""
        gc.collect()
        starts, durations = array("d"), array("d")  # compact: peak RSS is a metric
        block = self.workload.block
        deadline = time.perf_counter() + seconds
        while not durations or time.perf_counter() < deadline or \
                len(durations) % block:
            i = self.next_index
            self.next_index += 1
            answer, error = None, None
            if self.tracer:
                self.tracer.op_id = i
                self.tracer.enabled = True
            stolen = PROBE.stolen
            start = time.perf_counter()
            try:
                answer = self.workload.op(i)
            except Exception:
                error = traceback.format_exc()
            finally:
                starts.append(start)
                durations.append(time.perf_counter() - start - (PROBE.stolen - stolen))
                if self.tracer:
                    self.tracer.enabled = False
            if error is None:
                try:
                    self.workload.check(i, answer)
                except Exception:
                    error = traceback.format_exc()
            self.attempted += 1
            if error is not None:
                self.failed += 1
                if self.failed <= 3:
                    print(f"op {i} failed:\n{error}", file=sys.stderr)
        return starts, durations


def end_to_end(durations, setups, loop, peak_rss_mb) -> dict:
    """Every end-to-end metric as {name: (value, unit)}."""
    n = len(durations)
    ordered = sorted(durations)
    out = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (statistics.median(ordered) * 1e3, "ms"),
        "ops_per_s": (n / sum(durations), "1/s"),
        "error_rate": (loop.failed / loop.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    if n >= 1000:  # at least ten samples beyond the 99th percentile
        out["op_p99_ms"] = (ordered[math.ceil(0.99 * n) - 1] * 1e3, "ms")
    return out


def scaled(starts, durations) -> array:
    """Op durations scaled to the reference speed."""
    return array("d", (d * PROBE.factor(start, start + d)
                       for start, d in zip(starts, durations)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    args = parser.parse_args(argv)
    if not __debug__:
        raise SystemExit("error: the answer checks use assert; run without -O")

    import_package()
    env = None if args.setup_only else environment()
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    set_up = time.perf_counter()
    setup_raw = set_up - T0 - PROBE.stolen
    setups = [setup_raw * PROBE.factor(T0, set_up)]
    if args.setup_only:
        PROBE.stop()
        print(json.dumps({"setup_s": setups[0]}))
        return 0
    PROBE.stop()  # the probe would compete with the fresh processes
    setups += [child_setup_s(args.workload, args.seed)
               for _ in range(workload.setup_repeats - 1)]
    PROBE.start()

    loop = Loop(workload)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "setup_samples_s": setups, "setup_unscaled_s": setup_raw}
    if args.trace:
        untraced = loop.run(args.seconds / 2)
        PROBE.stop()  # its samples would land in the spans
        tracer = Tracer()
        tracer.install()
        loop.tracer = tracer
        try:
            traced = loop.run(args.seconds / 2)
        finally:
            tracer.uninstall()
        ops = len(traced[1])
        overhead = (ops / sum(traced[1])) / (len(untraced[1]) / sum(untraced[1]))
        values, missing = per_layer_metrics(tracer, ops, overhead)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _, _ in PER_LAYER}
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
        report.update(samples=len(untraced[1]), traced_samples=ops,
                      missing=missing)
        starts, durations = untraced
    else:
        starts, durations = loop.run(args.seconds)
        PROBE.stop()
        report["samples"] = len(durations)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e = end_to_end(scaled(starts, durations), setups, loop, rss)
    unscaled = end_to_end(durations, [setup_raw], loop, rss)
    if not args.trace:
        metrics = {name: {"value": e2e[name][0], "unit": e2e[name][1]}
                   for name in END_TO_END}
    report["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    report["unscaled"] = {k: v for k, (v, _) in unscaled.items()
                          if k in ("setup_s", "op_p50_ms", "ops_per_s", "op_p99_ms")}
    report["probe"] = {"samples": PROBE.samples(),
                       "run_factor": PROBE.factor(T0, time.perf_counter())}
    print(json.dumps(report))
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        PROBE.stop()  # also on an error, or the timer's signal ends the process
