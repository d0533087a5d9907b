"""Seed-driven inputs, job lists and oracle expectations for each workload.

Nothing here imports tnq: every expected value is computed from the
generator's own data with the standard library and NumPy, so a defect in
tnq cannot leak into its own oracle.

A job is a JSON-serialisable dict:

    label   human-readable name, unique within the job list
    group   size class the job belongs to (used only for reporting)
    argv    arguments for ``tnq.cli.run`` (absent for library calls)
    call    library call spec (absent for CLI jobs)
    check   oracle spec, interpreted by ``oracles.check``
    xfail   None, or the known, documented defect that makes the job fail
            on the current code: a dict with its ``reason``, the exit
            code ``rc`` it fails with, and what else marks that failure
            (``stderr``: text the error message holds; ``max_rel_err``:
            largest relative error of a count rounded through float64).
            ``oracles.known_defect`` tells whether a failure matches it.

The job list of a workload is one *round*; the worker repeats rounds.
"""

from __future__ import annotations

import os
import random

import numpy as np

WORKLOADS = ("coloring", "sat", "state", "channel")

#: Largest integer a float64 holds exactly; counts above it can round.
FLOAT_EXACT = 2**53

#: Most variables the tnq #SAT tensor engine accepts today.
SAT_VAR_CAP = 26

#: A count computed in float64 is off by at most this share: room for
#: some thousands of roundings of at most 2^-53 each.  A larger error is
#: a different defect.
FLOAT_ROUNDING = 1e-12


def build(workload, seed, workdir):
    """Write the inputs of one round into ``workdir`` and return its jobs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    nrng = np.random.default_rng(rng.getrandbits(64))
    jobs = _BUILDERS[workload](rng, nrng, workdir)
    rng.shuffle(jobs)
    return jobs


def _write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# coloring: prism graphs through the epsilon-tensor network

#: Node counts of one round.  The five 72-node prisms hold the median job
#: and the three 256-node prisms are the tail class; from 112 nodes up
#: the exact count exceeds 2^53.
COLORING_ROUND = (16, 24, 32, 48) + (72,) * 5 + (128, 160, 192) + (256,) * 3


def prism_edges(m):
    """Cycle 0..m-1 joined rung by rung to cycle m..2m-1."""
    edges = []
    for i in range(m):
        j = (i + 1) % m
        edges += [(i, j), (m + i, m + j), (i, m + i)]
    return edges


def prism_colorings(m):
    """Exact proper 3-edge-colorings of the m-rung prism.

    Transfer matrix over the colours (a, b) of the two ring edges that
    enter column i; the rung colour r must differ from both, and the ring
    edges leaving the column take the third colours 3-a-r and 3-b-r.
    """
    states = [(a, b) for a in range(3) for b in range(3)]
    index = {s: k for k, s in enumerate(states)}
    t = [[0] * 9 for _ in range(9)]
    for a, b in states:
        for r in range(3):
            if r != a and r != b:
                t[index[(a, b)]][index[(3 - a - r, 3 - b - r)]] += 1
    acc = [[int(i == j) for j in range(9)] for i in range(9)]
    for _ in range(m):
        acc = [[sum(acc[i][k] * t[k][j] for k in range(9)) for j in range(9)]
               for i in range(9)]
    return sum(acc[i][i] for i in range(9))


def _coloring_jobs(rng, nrng, workdir):
    jobs = []
    for k, n_nodes in enumerate(COLORING_ROUND):
        m = n_nodes // 2
        edges = [(v, u) if rng.random() < 0.5 else (u, v)
                 for u, v in prism_edges(m)]
        rng.shuffle(edges)
        path = _write(workdir, f"prism{k}_{n_nodes}.edges",
                      "".join(f"{u} {v}\n" for u, v in edges))
        count = prism_colorings(m)
        jobs.append({
            "label": f"coloring prism{k} n={n_nodes}",
            "group": f"n={n_nodes}",
            "argv": ["coloring", path],
            "check": {"type": "coloring", "count": str(count)},
            "xfail": ({"reason": "count exceeds 2^53 and is rounded "
                                 "through float64",
                       "rc": 0, "max_rel_err": FLOAT_ROUNDING}
                      if count > FLOAT_EXACT else None),
        })
    return jobs


# ---------------------------------------------------------------------------
# sat: model counting through the open solution-state network

#: Chain CNFs (x_i or x_i+1) by variable count.  The twenty 16-variable
#: chains hold the median job (small tensors, so a slow spell of the
#: machine's memory moves it least); the two 24-variable chains are the
#: tail class.
SAT_CHAINS = (16,) * 20 + (18, 18, 20, 22, 24, 24)

#: Connected random 3-CNFs at clause ratio 2, by variable count.  Their
#: cost is heavy-tailed under the greedy planner: from 10 variables up
#: single instances took seconds and 0.4-3.5 GB, so they stay small.
SAT_RANDOM = (8, 8, 9, 9, 9, 9)

#: Random 3-CNFs at clause ratio 2 built from independent 9..10-variable
#: blocks, so the exact count is a product of small enumerations.  With
#: 27 and 29 variables they exceed the tensor engine's variable cap.
SAT_BLOCKS = ((9, 9, 9), (9, 10, 10))


def fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def random_3cnf(rng, n_vars, n_clauses):
    clauses = []
    for _ in range(n_clauses):
        vs = rng.sample(range(1, n_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses


def count_models(n_vars, clauses):
    """Vectorised enumeration of all 2^n assignments."""
    bits = (np.arange(2**n_vars, dtype=np.int64)[:, None]
            >> np.arange(n_vars, dtype=np.int64)) & 1
    bits = bits.astype(bool)
    ok = np.ones(2**n_vars, dtype=bool)
    for clause in clauses:
        sat = np.zeros(2**n_vars, dtype=bool)
        for lit in clause:
            col = bits[:, abs(lit) - 1]
            sat |= col if lit > 0 else ~col
        ok &= sat
    return int(ok.sum())


def dimacs(n_vars, clauses):
    lines = [f"p cnf {n_vars} {len(clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def _flip_polarities(rng, n_vars, clauses):
    """Negate each variable with probability 1/2; keeps the model count
    and the network's shape, so the contraction plan is the same."""
    sign = [0] + [rng.choice((1, -1)) for _ in range(n_vars)]
    return [[sign[abs(l)] * l for l in c] for c in clauses]


def _relabel(rng, n_vars, clauses):
    """Random variable permutation, polarity flips and clause order."""
    perm = list(range(1, n_vars + 1))
    rng.shuffle(perm)
    out = [[perm[abs(l) - 1] if l > 0 else -perm[abs(l) - 1] for l in c]
           for c in _flip_polarities(rng, n_vars, clauses)]
    rng.shuffle(out)
    return out


def _sat_job(workdir, name, group, n_vars, clauses, count, xfail=None):
    path = _write(workdir, f"{name}.cnf", dimacs(n_vars, clauses))
    return {
        "label": f"sat {name}",
        "group": group,
        "argv": ["sat", "count", path],
        "check": {"type": "sat", "count": str(count)},
        "xfail": xfail,
    }


def _sat_jobs(rng, nrng, workdir):
    jobs = []
    for k, n in enumerate(SAT_CHAINS):
        chain = [[i, i + 1] for i in range(1, n)]
        jobs.append(_sat_job(workdir, f"chain{k}_n{n}", f"chain n={n}", n,
                             _flip_polarities(rng, n, chain),
                             fibonacci(n + 2)))
    for k, n in enumerate(SAT_RANDOM):
        clauses = random_3cnf(rng, n, 2 * n)
        jobs.append(_sat_job(workdir, f"random{k}_n{n}", f"random n={n}", n,
                             clauses, count_models(n, clauses)))
    for k, sizes in enumerate(SAT_BLOCKS):
        n = sum(sizes)
        clauses, count, offset = [], 1, 0
        for size in sizes:
            block = random_3cnf(rng, size, 2 * size)
            count *= count_models(size, block)
            clauses += [[l + offset if l > 0 else l - offset for l in c]
                        for c in block]
            offset += size
        jobs.append(_sat_job(
            workdir, f"blocks{k}_n{n}", f"blocks n={n}", n,
            _relabel(rng, n, clauses), count,
            xfail=({"reason": f"{n} variables exceed the tensor engine's "
                              f"{SAT_VAR_CAP}-variable cap",
                    "rc": 2,
                    "stderr": f"capped at {SAT_VAR_CAP} variables"}
                   if n > SAT_VAR_CAP else None)))
    return jobs


# ---------------------------------------------------------------------------
# state: MPS factorization, invariants and MPS truncation

#: (qubits, truncation rank) of the random states in one round; each gets
#: an mps factor, an invariants and a truncate_mps job.
STATE_ROUND = ((12, 4), (13, 8), (14, 16), (15, 4), (16, 8), (17, 16))

#: 18-qubit states that get ``mps factor --truncate 8``: the tail class,
#: three per round so a run holds at least 11 of them.  The first also
#: gets truncate_mps with rank 8.
STATE_TAIL = 3

#: Extra 14-qubit states that only get ``mps factor --truncate 16``: they
#: put the median job in a block of like jobs.
STATE_MEDIAN = 6


def write_tntx(psi):
    q = psi.ndim
    flat = np.ascontiguousarray(psi).reshape(-1).view(np.float64)
    return (f"tntx 1\nlegs {q}\n{' '.join(map(str, psi.shape))}\n"
            f"{' '.join('d' * q)}\n{' '.join(map(repr, flat.tolist()))}\n")


def _state_file(nrng, workdir, name, q):
    psi = nrng.normal(size=2**q) + 1j * nrng.normal(size=2**q)
    psi = (psi / np.linalg.norm(psi)).reshape((2,) * q)
    npy = os.path.join(workdir, f"{name}.npy")
    np.save(npy, psi)
    return _write(workdir, f"{name}.tntx", write_tntx(psi)), npy


def _factor_job(workdir, name, q, r, path, npy):
    outdir = os.path.join(workdir, f"{name}.mps")
    return {"label": f"state mps factor {name} r={r}", "group": f"q={q}",
            "argv": ["mps", "factor", "--in", path, "--out", outdir,
                     "--truncate", str(r)],
            "check": {"type": "mps_factor", "psi": npy, "rank": r,
                      "outdir": outdir},
            "xfail": None}


def _truncate_job(name, q, r, path, npy):
    return {"label": f"state truncate_mps {name} r={r}", "group": f"q={q}",
            "call": {"fn": "truncate_mps", "psi": path, "rank": r},
            "check": {"type": "truncate_mps", "psi": npy, "rank": r},
            "xfail": None}


def _state_jobs(rng, nrng, workdir):
    jobs = []
    for q, r in STATE_ROUND:
        name = f"psi{q}"
        path, npy = _state_file(nrng, workdir, name, q)
        jobs += [
            _factor_job(workdir, name, q, r, path, npy),
            {"label": f"state invariants {name}", "group": f"q={q}",
             "argv": ["invariants", "--in", path],
             "check": {"type": "invariants", "psi": npy},
             "xfail": None},
            _truncate_job(name, q, r, path, npy),
        ]
    for k in range(STATE_TAIL):
        name = f"psi18_{k}"
        path, npy = _state_file(nrng, workdir, name, 18)
        jobs.append(_factor_job(workdir, name, 18, 8, path, npy))
        if k == 0:
            jobs.append(_truncate_job(name, 18, 8, path, npy))
    for k in range(STATE_MEDIAN):
        name = f"psi14_{k}"
        path, npy = _state_file(nrng, workdir, name, 14)
        jobs.append(_factor_job(workdir, name, 14, 16, path, npy))
    return jobs


# ---------------------------------------------------------------------------
# channel: representation conversion, property checks and fidelity

#: Dimensions of the random channels in one round.  The three d=16
#: channels give the tail class (Kraus -> chi); small d holds the median.
CHANNEL_DIMS = (2, 3, 4, 5, 6, 8, 12, 16, 16, 16)

CHANNEL_TARGETS = ("superop", "choi", "chi", "stinespring")

#: Extra two-operator d=5 channels that only get the Kraus -> superop
#: conversion: they put the median job in a block of like jobs.
CHANNEL_MEDIAN = 10


def random_kraus(nrng, d, k):
    """k Kraus operators cut from a Haar-like random isometry (TP)."""
    g = nrng.normal(size=(k * d, d)) + 1j * nrng.normal(size=(k * d, d))
    q, _ = np.linalg.qr(g)
    return [q[i * d:(i + 1) * d] for i in range(k)]


def write_chx_kraus(ops):
    d_out, d_in = ops[0].shape
    lines = [f"chx 1 kraus {d_in} {d_out} {len(ops)}"]
    for op in ops:
        flat = np.ascontiguousarray(op).reshape(-1).view(np.float64)
        lines.append(" ".join(map(repr, flat.tolist())))
    return "\n".join(lines) + "\n"


def _convert_job(workdir, c, d, target, path, npy):
    out = os.path.join(workdir, f"ch{c}_d{d}.{target}.chx")
    return {
        "label": f"channel{c} convert kraus->{target} d={d}",
        "group": f"d={d}",
        "argv": ["channel", "convert", "--from", "kraus", "--to", target,
                 "--in", path, "--out", out],
        "check": {"type": "channel_convert", "kraus": npy, "rep": target,
                  "out": out},
        "xfail": None,
    }


def _channel_file(nrng, workdir, c, d, k):
    ops = random_kraus(nrng, d, k)
    path = _write(workdir, f"ch{c}_d{d}.chx", write_chx_kraus(ops))
    npy = os.path.join(workdir, f"ch{c}_d{d}.npy")
    np.save(npy, np.stack(ops))
    return path, npy


def _channel_jobs(rng, nrng, workdir):
    jobs = []
    for c, d in enumerate(CHANNEL_DIMS):
        path, npy = _channel_file(nrng, workdir, c, d, rng.randint(1, 4))
        group = f"d={d}"
        jobs += [_convert_job(workdir, c, d, target, path, npy)
                 for target in CHANNEL_TARGETS]
        jobs.append({
            "label": f"channel{c} check d={d}", "group": group,
            "argv": ["channel", "check", "--in", path],
            "check": {"type": "channel_check", "kraus": npy},
            "xfail": None,
        })
        jobs.append({
            "label": f"channel{c} fidelity d={d}", "group": group,
            "argv": ["fidelity", "--in", path],
            "check": {"type": "fidelity", "kraus": npy},
            "xfail": None,
        })
    for c in range(len(CHANNEL_DIMS), len(CHANNEL_DIMS) + CHANNEL_MEDIAN):
        path, npy = _channel_file(nrng, workdir, c, 5, 2)
        jobs.append(_convert_job(workdir, c, 5, "superop", path, npy))
    return jobs


_BUILDERS = {
    "coloring": _coloring_jobs,
    "sat": _sat_jobs,
    "state": _state_jobs,
    "channel": _channel_jobs,
}
