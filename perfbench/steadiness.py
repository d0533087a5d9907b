"""Steadiness self-check: two sets of runs of the same commit.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2]

With ``--runs 1 --sets 1`` it is a one-command report: every end-to-end
metric of every workload, by name and with its unit.

Runs ``run.py --trace 0`` ``--runs`` times per workload of
BENCHMARK.json and set, each run with its own seed (set s uses seeds
s*1000+1 ...), with the ``run_seconds`` of BENCHMARK.json.  For every
end-to-end metric and workload it reports, per set, the median and the
spread (distance between the first and third quartile of
``statistics.quantiles(n=4)`` as a share of the median), and the drift
of the last set's median against the first set's (positive: worse).

A metric passes when every spread and the drift in either direction
stay within its bound; spreads above a third of the bound are flagged
as thin margins.  Writes all values to
``.perfbench_out/steadiness.json``; exits 1 when anything fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: unexpected failures\n"
                           f"{proc.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def drift(first, last, better):
    """Share by which ``last`` is worse than ``first`` (negative: better)."""
    change = (last - first) / first
    return change if better == "lower" else -change


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    args = ap.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    values = {}
    for w in names:
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = s * 1000 + i + 1
                runs.append(run_once(w, seed, spec["run_seconds"]))
                print(f"{w} set {s} seed {seed}: " + " ".join(
                    f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
            values[(w, s)] = runs

    ok = True
    rows = []
    print(f"\n{'workload':9} {'metric':12} {'unit':5} {'bound':>6} "
          + " ".join(f"{'med' + str(s):>10} {'sprd' + str(s):>6}"
                     for s in range(args.sets))
          + f" {'drift':>7}  verdict")
    for w in names:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [[r[name] for r in values[(w, s)]] for s in range(args.sets)]
            spreads = [spread(v) for v in sets]
            medians = [statistics.median(v) for v in sets]
            d = drift(medians[0], medians[-1], m["better"])
            bad = abs(d) > bound or any(x > bound for x in spreads)
            thin = any(x > bound / 3 for x in spreads)
            verdict = "FAIL" if bad else ("thin" if thin else "ok")
            ok &= not bad
            rows.append({"workload": w, "metric": name, "bound": bound,
                         "medians": medians, "spreads": spreads,
                         "drift": d, "verdict": verdict, "values": sets})
            print(f"{w:9} {name:12} {m['unit']:5} {bound:6.3f} "
                  + " ".join(f"{md:10.4g} {sp:6.3f}"
                             for md, sp in zip(medians, spreads))
                  + f" {d:7.3f}  {verdict}")
    os.makedirs(".perfbench_out", exist_ok=True)
    with open(os.path.join(".perfbench_out", "steadiness.json"), "w") as fh:
        json.dump(rows, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
