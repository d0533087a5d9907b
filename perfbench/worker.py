"""The workload process: one closed-loop client driving ``tnq.cli.run``.

Started by ``run.py`` with the BLAS thread count pinned in its
environment and ``src`` on ``PYTHONPATH``.  It reads the job list, runs
one untimed warm-up round (which also pays for the first oracle check of
every job), then repeats timed rounds: each job starts when the previous
one returned, and only the ``cli.run`` call (or library call) is inside
the timed region.  A speed probe (``speed.py``) runs between jobs to
rescale their wall times.  Every execution's outputs are removed before
it runs and checked in full after it.

Usage: worker.py JOBS.json RESULT.json --seconds S --trace 0|1 --spans F
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import sys
import time

import numpy as np

import oracles
from speed import SpeedProbe


def blas_threads():
    """Threads OpenBLAS reports, or None when it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    for path in libs:
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_int
        return fn()
    return None


class Runner:
    """Executes jobs and verifies their outputs."""

    def __init__(self, jobs):
        import tnq
        from tnq import cli, decomp, tensor

        self.tnq = tnq
        self.cli = cli
        self.jobs = jobs
        self.checker = oracles.Checker()
        self.inputs = {}
        for job in jobs:
            call = job.get("call")
            if call:
                with open(call["psi"]) as fh:
                    state = tensor.read_tntx(fh.read())
                self.inputs[job["label"]] = decomp.mps_factor(state)

    def invoke(self, k, out, err):
        """Run job k once; returns (exit code, library call result)."""
        job = self.jobs[k]
        call = job.get("call")
        try:
            if call:
                return 0, self.tnq.decomp.truncate_mps(
                    self.inputs[job["label"]], call["rank"])
            return self.cli.run(job["argv"], out, err), None
        except Exception as exc:      # escapes the CLI's exit-code contract
            return f"uncaught {type(exc).__name__}", None

    def execute(self, k):
        """Run and check job k; returns (seconds, ok, failure reason,
        whether the failure is the job's known defect)."""
        self._clear_outputs(self.jobs[k]["check"])
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        rc, result = self.invoke(k, out, err)
        elapsed = time.perf_counter() - start
        reason = self._verify(k, rc, out.getvalue(), result)
        if reason is None:
            return elapsed, True, None, False
        known = oracles.known_defect(self.jobs[k], rc, out.getvalue(),
                                     err.getvalue())
        if rc != 0 and err.getvalue():
            reason += f" ({err.getvalue().strip()[:160]})"
        return elapsed, False, reason, known

    @staticmethod
    def _clear_outputs(spec):
        """Remove what an earlier execution wrote, so that every check
        reads this execution's own output."""
        if "outdir" in spec:
            shutil.rmtree(spec["outdir"], ignore_errors=True)
        if "out" in spec and os.path.exists(spec["out"]):
            os.remove(spec["out"])

    def _verify(self, k, rc, stdout, result):
        try:
            return self.checker.check(self.jobs[k], rc, stdout, result)
        except (OSError, ValueError, KeyError) as exc:
            return f"unreadable output: {exc}"


def run_rounds(runner, seconds=None, rounds=None, order=None):
    """Closed loop over whole rounds until ``seconds`` or ``rounds`` (or
    over exactly ``order``); returns (executions, rounds done).

    An execution is (job index, wall seconds, ok, failure reason, whether
    the failure is the job's known defect, speed factor of the reference
    machine).
    """
    probe = SpeedProbe()
    executions = []
    start = time.perf_counter()
    done = 0
    while True:
        for k in (order if order is not None else range(len(runner.jobs))):
            probe.maybe(len(executions))
            executions.append((k, *runner.execute(k)))
        done += 1
        if order is not None or (rounds is not None and done >= rounds):
            break
        if rounds is None and time.perf_counter() - start >= seconds:
            break
    probe.maybe(len(executions))
    factors = probe.factors(len(executions))
    return [(*e, f) for e, f in zip(executions, factors)], done


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("jobs")
    ap.add_argument("result")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    started = time.perf_counter()
    with open(args.jobs) as fh:
        jobs = json.load(fh)
    runner = Runner(jobs)
    phases = {"worker_ready_s": time.perf_counter() - started}
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(runner.tnq.__file__).startswith(src + os.sep):
        sys.exit(f"tnq was imported from {runner.tnq.__file__}, not {src}")

    warmup, _ = run_rounds(runner, rounds=1)
    phases["warmup_s"] = time.perf_counter() - started - sum(phases.values())
    report = {"warmup": warmup, "phases": phases}
    if args.trace:
        from tracer import Tracer

        plain, rounds = run_rounds(runner, seconds=args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced, _ = run_rounds(runner, order=[e[0] for e in plain])
        finally:
            tracer.uninstall()
        overhead = (sum(e[1] * e[5] for e in traced)
                    / sum(e[1] * e[5] for e in plain) - 1.0)
        report["measured"] = plain + traced
        report["layers"] = tracer.layer_metrics(len(traced), overhead)
        if args.spans:
            tracer.write(args.spans)
    else:
        measured, rounds = run_rounds(runner, seconds=args.seconds)
        report["measured"] = measured
    report["rounds"] = rounds
    phases["measure_s"] = time.perf_counter() - started - sum(phases.values())
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["env"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
    }
    with open(args.result, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
