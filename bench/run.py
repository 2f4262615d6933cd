"""Closed-loop benchmark of qbmlab.

One client in one process sends experiment jobs through qbmlab's public
API; the next job goes out only when the previous one has returned and
passed (or failed) its correctness checks.  Jobs are generated from the
seed (see workloads.py); qbmlab receives only the generated inputs.

    python3 bench/run.py --workload evolve_dense --seed 1 --seconds 30 --trace 0

``--trace 0`` measures for ``--seconds`` with nothing wrapped and prints the
end-to-end metrics.  ``--trace 1`` spends the first half of ``--seconds``
untraced and the second half traced, prints the per-layer metrics and the
tracing overhead (difference in jobs per second between the halves), and
writes the spans to ``.bench_work/``.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Run it from the repository root; it imports qbmlab from
``src/`` and exits with code 2, printing no result, when that is missing.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".bench_work")

# One BLAS thread: at these matrix sizes (<= 44 for the dense chains) a
# second OpenBLAS thread on a small shared host made single calls swing by
# an order of magnitude, which swamps the run-to-run comparison.  Results
# taken with another thread count must not be compared with these.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The tail is the highest of these percentiles that leaves at least ten jobs
# beyond it, starting from a per-workload percentile that a 30 s run clears
# with about twice the jobs it needs (collision_steady: 1.5x).  A fixed start
# keeps the percentile, and so the metric, the same from run to run and
# when the program gets faster.
TAIL_LADDER = (99, 98, 95, 90, 75, 50)
TAIL_START = {"evolve_dense": 90, "collision_steady": 75, "kinetic_cli": 98}
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up once in a fresh process and print the set-up time
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def blas_threads():
    """Thread count reported by each OpenBLAS library loaded in this process."""
    import ctypes

    found = {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh
                 if "openblas" in line.rsplit("/", 1)[-1].lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas_name = "unknown"
    threads = blas_threads()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": ",".join(str(n) for n in threads.values())
        or "%s (requested)" % BLAS_THREADS,
    }


def setup_probe(args):
    """Set-up time of one fresh process, as measured by ``--setup-probe``."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("set-up probe failed (exit %d): %s"
                           % (proc.returncode, proc.stderr.strip()[-2000:]))
    return float(proc.stdout.strip().splitlines()[-1])


def tail(latencies, workload):
    """(percentile, latency at it, jobs beyond it)."""
    import numpy as np

    n = len(latencies)
    ladder = [p for p in TAIL_LADDER if p <= TAIL_START[workload]]
    pct = next((p for p in ladder if n * (100 - p) / 100.0 >= 10), ladder[-1])
    value = float(np.percentile(latencies, pct))
    return pct, value, sum(1 for x in latencies if x > value)


def kind_breakdown(loop):
    rows = {}
    for job, lat in zip(loop.jobs, loop.latencies):
        rows.setdefault(job.kind, []).append(lat)
    busy = sum(loop.latencies) or 1.0
    return ["  %-20s n=%-5d time share=%.3f p50=%.6g s"
            % (kind, len(v), sum(v) / busy, statistics.median(v))
            for kind, v in sorted(rows.items())]


def report_failures(label, failures):
    for index, job, problems in failures[:5]:
        print("%s job %d (%s) failed: %s" % (label, index, job.kind, "; ".join(problems)),
              file=sys.stderr)
    if len(failures) > 5:
        print("%s: %d more failed jobs" % (label, len(failures) - 5), file=sys.stderr)


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "qbmlab", "__init__.py")):
        print("qbmlab sources not found under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    start = perf_counter()
    import workloads  # imports numpy, scipy and qbmlab

    if args.workload not in workloads.WORKLOADS:
        print("unknown workload %r; choose from %s"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=WORK_DIR)
    try:
        os.makedirs(os.path.join(workdir, "out"))
        api = workloads.Api()
        jobs = workloads.job_stream(args.workload, args.seed)
        warmup = workloads.warmup_jobs(args.workload, args.seed)
        warmup_failures = [(i, job, problems) for i, job in enumerate(warmup)
                           for problems in [workloads.execute(api, job, workdir)]
                           if problems]
        setup_s = perf_counter() - start
        if args.setup_probe:
            print(repr(setup_s))
            return 0

        if args.trace:
            loops, metrics = run_traced(args, api, jobs, workdir)
        else:
            loop = workloads.closed_loop(api, jobs, args.seconds, workdir)
            loops = [loop]
            metrics = end_to_end(args, loop, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    print("environment: " + " ".join("%s=%s" % kv for kv in env.items()))
    attempted = sum(len(loop.latencies) for loop in loops)
    failures = [f for loop in loops for f in loop.failures]
    print("workload: %s seed=%d seconds=%g trace=%d closed loop, 1 client"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("jobs: attempted=%d failed=%d warmup_failed=%d spec_repeat_share=%.4f"
          % (attempted, len(failures), len(warmup_failures),
             workloads.repeat_share([j for loop in loops for j in loop.jobs])))
    for line in kind_breakdown(loops[-1]):
        print(line)
    for name, (value, unit, note) in metrics.items():
        print("%s = %.6g %s%s" % (name, value, unit, note))
    # reported here and through "failed"/"attempted" rather than as a metric:
    # it is 0 on a correct program, and a zero median has no relative spread
    print("fail_ratio = %.6g ratio  (%d of %d jobs)"
          % (len(failures) / attempted, len(failures), attempted))
    report_failures("warm-up", warmup_failures)
    report_failures("timed", failures)
    print(json.dumps({
        "correct": not failures and not warmup_failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


def end_to_end(args, loop, setup_s):
    probes = [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
    setups = [setup_s] + probes
    lat = loop.latencies
    pct, tail_s, beyond = tail(lat, args.workload)
    return {
        "jobs_per_s": (len(lat) / loop.elapsed, "1/s", ""),
        "job_p50_s": (statistics.median(lat), "s", ""),
        "job_tail_s": (tail_s, "s", "  (p%d of %d jobs, %d beyond)"
                       % (pct, len(lat), beyond)),
        "setup_s": (statistics.median(setups), "s", "  (median of %s)"
                    % ", ".join("%.4g" % s for s in setups)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB", ""),
    }


def run_traced(args, api, jobs, workdir):
    import tracing
    import workloads

    half = args.seconds / 2.0
    plain = workloads.closed_loop(api, jobs, half, workdir)
    tracer = tracing.Tracer()
    traced_api, rebind = tracing.traced_api(tracer)
    with rebind:
        traced = workloads.closed_loop(traced_api, jobs, half, workdir, tracer=tracer,
                                       first_index=len(plain.latencies))
    path = os.path.join(WORK_DIR, "trace-%s-seed%d.json" % (args.workload, args.seed))
    tracer.dump(path)
    print("trace: %d spans from %d jobs written to %s"
          % (len(tracer.spans), len(traced.latencies), os.path.relpath(path, ROOT)))

    metrics = {name: (value, unit, "")
               for name, (value, unit) in tracing.layer_metrics(
                   tracer, len(traced.latencies)).items()}
    untraced_rate = len(plain.latencies) / plain.elapsed
    traced_rate = len(traced.latencies) / traced.elapsed
    metrics["trace.jobs_per_s_untraced"] = (untraced_rate, "1/s", "")
    metrics["trace.jobs_per_s_traced"] = (traced_rate, "1/s", "")
    metrics["trace.overhead_jobs_per_s"] = (untraced_rate - traced_rate, "1/s",
                                            "  (untraced minus traced)")
    print("side by side (s/job): liouvillians.apply_s %.6g, "
          "operators.min_eigenvalue_s %.6g, propagation.self_s %.6g"
          % (metrics["liouvillians.apply_s"][0], metrics["operators.min_eigenvalue_s"][0],
             metrics["propagation.self_s"][0]))
    return [plain, traced], metrics


if __name__ == "__main__":
    sys.exit(main())
