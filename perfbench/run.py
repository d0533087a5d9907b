"""tnq benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload coloring --seed 1 --seconds 20 --trace 0

Run from the root of a tnq checkout; the code under test is ``src/tnq``.

1. Measures set-up: the median over several fresh interpreters of the
   time from spawning ``python3`` to ``import tnq`` done.
2. Writes the workload's inputs for ``--seed`` under ``.perfbench_work/``
   together with the oracle's expected values (``workloads.py``).
3. Starts one workload process (``worker.py``) with the BLAS thread count
   pinned; it drives ``tnq.cli.run`` in a closed loop for ``--seconds``
   and checks every output against the oracle (``oracles.py``).
4. Prints a human-readable summary and, as the last line, one JSON object
   with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
   end-to-end metrics with ``--trace 0``, the per-layer metrics of a
   traced re-run of the same jobs with ``--trace 1`` (``tracer.py``).

A job fails when it exits non-zero or its output disagrees with the
oracle.  ``correct`` is false when any job fails other than in the way
its known, documented defect (``xfail`` in ``workloads.py``) says: with
that exit code, and that error message or a count off by float64
rounding only (``oracles.known_defect``).  Known failures still count in
``failed``.  Exits 2 without a result when tnq cannot be
imported from ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

#: BLAS threads of this process and every process it starts (<= nproc).
BLAS_THREADS = min(1, os.cpu_count() or 1)
BLAS_ENV = {var: str(BLAS_THREADS) for var in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)          # before NumPy is first imported

import tracer  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402

#: End-to-end metric name -> unit.
END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "pass_frac": "frac",
    "peak_rss_mb": "MB",
}

#: Fresh interpreters timed for ``setup_s`` (after one untimed warm-up
#: start that writes the bytecode cache).
SETUP_STARTS = 11

#: Address-space limit of the workload process, a guard for a shared
#: machine: an allocation beyond it fails the job with MemoryError.
WORKER_MEMORY_LIMIT = 3 * 2**30

_PROBE = ("import time; import tnq; "
          "print(time.clock_gettime(time.CLOCK_MONOTONIC)); print(tnq.__file__)")


class BenchError(Exception):
    pass


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def measure_setup(root, env):
    """Median seconds from spawning an interpreter to ``import tnq`` done,
    rescaled to the reference machine speed by probes around each start."""
    src = os.path.realpath(os.path.join(root, "src"))
    times = []
    probe = SpeedProbe()
    for i in range(SETUP_STARTS + 1):
        if i:
            probe.mark(i - 1)
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, "-c", _PROBE], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import tnq failed: {proc.stderr.strip()[-300:]}")
        done, path = proc.stdout.split()
        if not os.path.realpath(path).startswith(src + os.sep):
            raise BenchError(f"tnq imported from {path}, not from {src}")
        if i:
            times.append(float(done) - start)
    probe.mark(SETUP_STARTS)
    return statistics.median(t * f for t, f in
                             zip(times, probe.factors(SETUP_STARTS)))


def tail(times):
    """Highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples); with 10 or fewer samples the
    maximum is returned as the 100th percentile.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(measured, round_size, setup_s, peak_rss_mb):
    """End-to-end metrics of whole rounds of ``round_size`` executions.

    Job times are wall times rescaled to the reference machine speed by
    the worker's speed probe (``speed.SpeedProbe``).  ``jobs_per_s`` is
    the median over rounds of the round's passing jobs per second of its
    summed job time: a median, so that a slow spell of a shared machine
    moves it less than one ratio over the whole run.
    """
    times = [e[1] * e[5] for e in measured]
    passed = sum(1 for e in measured if e[2])
    rates = []
    for r in range(0, len(measured), round_size):
        chunk = measured[r:r + round_size]
        rates.append(sum(1 for e in chunk if e[2])
                     / sum(e[1] * e[5] for e in chunk))
    tail_s, pct, n = tail(times)
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": statistics.median(rates),
        "job_p50_ms": statistics.median(times) * 1e3,
        "job_tail_ms": tail_s * 1e3,
        "pass_frac": passed / len(measured),
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, pct, n


def run_worker(root, env, jobs_path, result_path, seconds, trace, spans_path):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), jobs_path,
           result_path, "--seconds", str(seconds), "--trace", str(trace),
           "--spans", spans_path]

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS,
                           (WORKER_MEMORY_LIMIT, WORKER_MEMORY_LIMIT))

    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True, timeout=seconds + 120,
                          preexec_fn=limit_memory)
    if proc.returncode != 0:
        raise BenchError(f"workload process failed: {proc.stderr.strip()[-600:]}")
    with open(result_path) as fh:
        return json.load(fh)


def check_benchmark_json(root):
    """The metric names and units here must match BENCHMARK.json."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != END_TO_END or layers != tracer.PER_LAYER:
        raise BenchError("metric names or units differ from BENCHMARK.json")


def summarize(workload, seed, jobs, report, verdicts):
    """Human-readable lines: environment, per-group medians, failures."""
    env = report["env"]
    lines = [f"workload {workload} seed {seed}: {len(jobs)} jobs/round, "
             f"{report['rounds']} timed rounds",
             f"env python {env['python']} numpy {env['numpy']} "
             f"blas_threads {env['blas_threads']} "
             f"(OPENBLAS_NUM_THREADS={env['blas_threads_env']}) "
             f"nproc {env['nproc']}"]
    groups = {}
    for k, seconds, *_ in report["measured"]:
        groups.setdefault(jobs[k]["group"], []).append(seconds)
    for group, ts in sorted(groups.items(), key=lambda g: statistics.median(g[1])):
        lines.append(f"  {group:>16}: {len(ts):4d} runs, median "
                     f"{statistics.median(ts) * 1e3:9.2f} ms wall")
    for label, reason, expected in sorted(verdicts):
        tag = "known defect" if expected else "UNEXPECTED"
        lines.append(f"  fail [{tag}] {label}: {reason}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    work = os.path.join(root, ".perfbench_work", args.workload)
    outdir = os.path.join(root, ".perfbench_out")
    try:
        check_benchmark_json(root)
        env = child_env(root)
        started = time.perf_counter()
        setup_s = measure_setup(root, env)
        phases = {"setup_probes_s": time.perf_counter() - started}
        shutil.rmtree(work, ignore_errors=True)
        jobs = workloads.build(args.workload, args.seed, work)
        phases["inputs_s"] = time.perf_counter() - started - sum(phases.values())
        jobs_path = os.path.join(work, "jobs.json")
        with open(jobs_path, "w") as fh:
            json.dump(jobs, fh)
        os.makedirs(outdir, exist_ok=True)
        report = run_worker(
            root, env, jobs_path, os.path.join(work, "result.json"),
            args.seconds, args.trace,
            os.path.join(outdir, f"spans-{args.workload}.tsv"))
        phases.update(report["phases"])
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = report["measured"]
    verdicts = set()
    unexpected = 0
    for k, _, ok, reason, known, _ in report["warmup"] + measured:
        if not ok:
            unexpected += not known
            verdicts.add((jobs[k]["label"], reason, known))
    failed = sum(1 for e in measured if not e[2])
    plain = measured[:len(measured) // 2] if args.trace else measured
    metrics, pct, n = end_to_end(plain, len(jobs), setup_s,
                                  report["peak_rss_mb"])

    for line in summarize(args.workload, args.seed, jobs, report, verdicts):
        print(line)
    print("phases " + " ".join(f"{k} {v:.2f}" for k, v in phases.items()))
    print(f"speed factor (reference / this machine): median "
          f"{statistics.median(e[5] for e in plain):.3f}, range "
          f"{min(e[5] for e in plain):.3f}..{max(e[5] for e in plain):.3f}")
    for name, unit in END_TO_END.items():
        note = f"  (p{pct:.2f} of {n} jobs)" if name == "job_tail_ms" else ""
        print(f"{name} = {metrics[name]:.6g} {unit}{note}")
    print(f"fail_frac = {failed / len(measured):.6g} "
          f"({failed} of {len(measured)} jobs)")

    if args.trace:
        units = tracer.PER_LAYER
        values = report["layers"]
    else:
        units = END_TO_END
        values = metrics
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": len(measured),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
