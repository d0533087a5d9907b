"""Cross-check the traced per-layer split against cProfile.

    python3 perfbench/crosscheck.py --workload sat [--match d=16]

Runs one round of the workload's jobs for seed ``SEED`` (those whose
label contains ``--match``) three ways in one process: a warm-up, a
traced pass (``tracer.Tracer``) and a pass under ``cProfile``.
cProfile's own time of every function is attributed to the nearest
traced function above it (through the caller graph, split by cumulative
time along each edge), so both passes yield self time per span name.  Prints both rankings, the
share of the layer the workload is built to load, and whether both
methods find that layer larger than any other span.  cProfile charges
every Python call, so Python-heavy spans read larger under it than under
the trace.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import os
import pstats
import shutil
import sys

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import Runner  # noqa: E402

#: Seed of the one round that is cross-checked.
SEED = 1

#: Spans each workload is built to load.
EXPECTED = {
    "coloring": ("network.contract_network",),
    "sat": ("tensor.contract", "tensor.Tensor.init"),
    "state": ("tensor.read_tntx",),
    "channel": ("channels.basis", "channels.read_chx", "channels.write_chx"),
}


def traced_pass(runner, ks):
    t = tracer.Tracer()
    t.install()
    try:
        for k in ks:
            runner.invoke(k, io.StringIO(), io.StringIO())
    finally:
        t.uninstall()
    return t.self_times()


def profiled_pass(runner, ks):
    prof = cProfile.Profile()
    for k in ks:
        prof.runcall(runner.invoke, k, io.StringIO(), io.StringIO())
    stats = pstats.Stats(prof).stats
    traced = {}
    for module, path, name in tracer.TARGETS:
        owner, attr = tracer.resolve(module, path)
        code = getattr(owner, attr).__code__
        traced[(code.co_filename, code.co_firstlineno, code.co_name)] = name

    memo = {}

    def shares(func):
        """Span name -> fraction of func's time charged to it."""
        if func in traced:
            return {traced[func]: 1.0}
        if func in memo:
            return memo[func]
        memo[func] = {"(outside spans)": 1.0}     # breaks recursion cycles
        callers = stats[func][4]
        total = sum(edge[3] for edge in callers.values())
        if not callers or total <= 0:
            return memo[func]
        out = {}
        for caller, edge in callers.items():
            if caller not in stats:
                continue
            for name, frac in shares(caller).items():
                out[name] = out.get(name, 0.0) + frac * edge[3] / total
        memo[func] = out or memo[func]
        return memo[func]

    selfs = {}
    for func, (_, _, tottime, _, _) in stats.items():
        for name, frac in shares(func).items():
            selfs[name] = selfs.get(name, 0.0) + tottime * frac
    selfs.pop("(outside spans)", None)
    return selfs


def ranking(selfs):
    total = sum(selfs.values())
    return sorted(((v, v / total, k) for k, v in selfs.items()), reverse=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--match", default="")
    args = ap.parse_args(argv)

    work = os.path.join(ROOT, ".perfbench_work", f"crosscheck-{args.workload}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        jobs = [j for j in workloads.build(args.workload, SEED, work)
                if args.match in j["label"]]
        runner = Runner(jobs)
        ks = range(len(jobs))
        for k in ks:
            runner.execute(k)
        trace = ranking(traced_pass(runner, ks))
        prof = ranking(profiled_pass(runner, ks))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{args.workload} seed {SEED}, {len(jobs)} jobs"
          + (f" matching {args.match!r}" if args.match else ""))
    print(f"{'span':40} {'trace ms':>9} {'share':>6}   {'cProfile ms':>11} {'share':>6}")
    prof_by = {k: (v, s) for v, s, k in prof}
    for v, s, k in trace[:8]:
        pv, ps = prof_by.get(k, (0.0, 0.0))
        print(f"{k:40} {v * 1e3:9.1f} {s:6.1%}   {pv * 1e3:11.1f} {ps:6.1%}")
    expected = EXPECTED[args.workload]
    dominant = []
    for method, ranked in (("trace", trace), ("cProfile", prof)):
        share = sum(s for _, s, k in ranked if k in expected)
        other = max((s for _, s, k in ranked if k not in expected), default=0)
        dominant.append(share > other)
        print(f"{method}: {'+'.join(expected)} {share:.1%}, largest other "
              f"span {other:.1%}, top span {ranked[0][2]}")
    agree = all(dominant)
    print("both methods find the expected layer dominant: "
          + ("agree" if agree else "DISAGREE"))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
