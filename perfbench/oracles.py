"""Independent checks of job outputs.

Each checker reads what the job produced (its exit code, its standard
output, the files it wrote, or the object a library call returned) and
compares it with values computed here from the generator's own data,
using NumPy only.  Files written by tnq are parsed by this module's own
readers, never by tnq's.

``check`` returns None when the output is right, else a short reason.
"""

from __future__ import annotations

import math
import os

import numpy as np

#: Absolute tolerance on unit-scale floating-point results.
ATOL = 1e-9

#: Relative tolerance on values printed with 12 significant digits.
RTOL_PRINTED = 1e-9


def parse_output(stdout):
    """``name = value`` lines into a dict of strings."""
    out = {}
    for line in stdout.splitlines():
        name, sep, value = line.partition(" = ")
        if sep:
            out[name.strip()] = value.strip()
    return out


def _close(printed, exact):
    value = float(printed)
    return abs(value - exact) <= RTOL_PRINTED * max(1.0, abs(exact))


def read_tntx_array(path):
    with open(path) as fh:
        toks = fh.read().split()
    if toks[:3] != ["tntx", "1", "legs"]:
        raise ValueError(f"{path}: not TNTX")
    order = int(toks[3])
    dims = [int(t) for t in toks[4:4 + order]]
    floats = np.array(toks[4 + 2 * order:], dtype=np.float64)
    return floats.view(np.complex128).reshape(dims)


def read_chx_arrays(path):
    """(rep, d_in, d_out, extra, list of matrices) of a CHX v1 file."""
    with open(path) as fh:
        toks = fh.read().split()
    if toks[:2] != ["chx", "1"]:
        raise ValueError(f"{path}: not CHX")
    rep, d_in, d_out = toks[2], int(toks[3]), int(toks[4])
    pos, extra = 5, None
    if rep in ("kraus", "stinespring"):
        extra, pos = int(toks[5]), 6
    shapes = {
        "kraus": [(d_out, d_in)] * (extra or 0),
        "stinespring": [(d_out * (extra or 0), d_in)],
        "superop": [(d_out**2, d_in**2)],
    }.get(rep, [(d_in * d_out, d_in * d_out)])
    floats = np.array(toks[pos:], dtype=np.float64).view(np.complex128)
    if floats.size != sum(a * b for a, b in shapes):
        raise ValueError(f"{path}: wrong entry count")
    mats, at = [], 0
    for a, b in shapes:
        mats.append(floats[at:at + a * b].reshape(a, b))
        at += a * b
    return rep, d_in, d_out, extra, mats


# ---------------------------------------------------------------------------
# counting


#: Check type -> (output name of the count, whether its sign is dropped).
COUNTS = {"coloring": ("K", True), "sat": ("count", False)}


def _printed_count(job, stdout):
    """The count a counting job printed, or None."""
    name, absolute = COUNTS[job["check"]["type"]]
    try:
        got = int(parse_output(stdout).get(name))
    except (TypeError, ValueError):
        return None
    return abs(got) if absolute else got


def _check_count(job, rc, stdout):
    if rc != 0:
        return f"exit code {rc}"
    name = COUNTS[job["check"]["type"]][0]
    got = _printed_count(job, stdout)
    if got is None:
        return f"no integer {name!r} in output"
    want = int(job["check"]["count"])
    return None if got == want else f"{name} = {got}, exact {want}"


def known_defect(job, rc, stdout, stderr):
    """Whether a failed job failed the way its ``xfail`` spec documents:
    with the documented exit code, and either the documented error
    message or a count off by no more than float64 rounding."""
    spec = job["xfail"]
    if spec is None or rc != spec["rc"]:
        return False
    if "stderr" in spec:
        return spec["stderr"] in stderr
    got = _printed_count(job, stdout)
    want = int(job["check"]["count"])
    return got is not None and abs(got - want) <= spec["max_rel_err"] * want


# ---------------------------------------------------------------------------
# states and MPS


class _StateFacts:
    """Exact spectra of a state at every left|right cut."""

    def __init__(self, path):
        self.psi = np.load(path)
        self.q = self.psi.ndim
        flat = self.psi.reshape(-1)
        self.spectra = []
        for k in range(1, self.q):
            m = flat.reshape(2**k, -1)
            gram = m @ m.conj().T if m.shape[0] <= m.shape[1] else m.conj().T @ m
            ev = np.clip(np.linalg.eigvalsh(gram)[::-1], 0.0, None)
            self.spectra.append(ev)      # squared singular values

    def optimal_error2(self, r):
        """Eckart-Young lower bound on ||psi - phi||^2 over states phi of
        Schmidt rank <= r at every cut."""
        return max(float(ev[r:].sum()) for ev in self.spectra)

    def chis(self, r):
        """Bond dimensions a left-to-right truncated SVD sweep yields."""
        chis, left = [], 1
        for k in range(self.q - 1):
            left = min(r, 2 * left, 2 ** (self.q - k - 1))
            chis.append(left)
        return chis


def _mps_state(sites):
    acc = sites[0]
    for site in sites[1:]:
        acc = np.tensordot(acc, site, axes=([acc.ndim - 1], [0]))
    return acc


def _check_mps(facts, sites, r):
    """Shared checks of a truncated left-canonical MPS of ``facts.psi``.

    Returns (reason or None, ||psi - phi||^2).
    """
    chis = facts.chis(r)
    got = [s.shape[-1] for s in sites[:-1]]
    if got != chis:
        return f"bond dimensions {got}, expected {chis}", None
    for k, site in enumerate(sites[:-1]):
        a = site.reshape(-1, site.shape[-1])
        if np.abs(a.conj().T @ a - np.eye(a.shape[1])).max() > ATOL:
            return f"site {k} is not left-canonical", None
    phi = _mps_state(sites)
    if phi.shape != facts.psi.shape:
        return f"MPS state shape {phi.shape}", None
    norm2 = float(np.vdot(phi, phi).real)
    overlap = complex(np.vdot(phi, facts.psi))
    # a truncated SVD sweep is an orthogonal projection of psi
    if abs(overlap - norm2) > ATOL:
        return f"<phi|psi> = {overlap}, |phi|^2 = {norm2}", None
    err2 = float(np.vdot(facts.psi - phi, facts.psi - phi).real)
    if err2 < facts.optimal_error2(r) - ATOL:
        return f"error^2 {err2} beats the Eckart-Young bound", None
    return None, err2


def _check_mps_factor(job, rc, stdout, facts):
    if rc != 0:
        return f"exit code {rc}"
    spec = job["check"]
    r, outdir = spec["rank"], spec["outdir"]
    out = parse_output(stdout)
    chis = facts.chis(r)
    if out.get("sites") != str(facts.q):
        return f"sites = {out.get('sites')}"
    for k, chi in enumerate(chis):
        if out.get(f"chi_{k}") != str(chi):
            return f"chi_{k} = {out.get(f'chi_{k}')}, expected {chi}"
    with open(os.path.join(outdir, "manifest.txt")) as fh:
        if fh.read().split() != ["mps", str(facts.q)]:
            return "bad manifest"
    sites = [read_tntx_array(os.path.join(outdir, f"site_{k}.tntx"))
             for k in range(facts.q)]
    with open(os.path.join(outdir, "sigma_0.txt")) as fh:
        sigma0 = np.array(fh.read().split(), dtype=np.float64)
    exact0 = np.sqrt(facts.spectra[0])
    if sigma0.shape != exact0.shape or np.abs(sigma0 - exact0).max() > ATOL:
        return "sigma_0 differs from the exact spectrum"
    reason, _ = _check_mps(facts, sites, r)
    return reason


def _check_invariants(job, rc, stdout, facts):
    if rc != 0:
        return f"exit code {rc}"
    out = parse_output(stdout)
    half = facts.spectra[facts.q // 2 - 1]
    lam = half / half.sum()
    nz = lam[lam > 1e-300]
    exact = {
        "J1": float(np.vdot(facts.psi, facts.psi).real),
        "J2": float((half**2).sum()),
        "entropy": float(-(nz * np.log(nz)).sum()),
    }
    for name, value in exact.items():
        if name not in out or not _close(out[name], value):
            return f"{name} = {out.get(name)}, exact {value!r}"
    chi = int((half > 1e-24 * half.max()).sum())
    if out.get("chi") != str(chi):
        return f"chi = {out.get('chi')}, exact {chi}"
    return None


def _check_truncate_mps(job, result, facts):
    mps, report = result
    r = job["check"]["rank"]
    sites = [np.asarray(s.data) for s in mps.sites]
    reason, err2 = _check_mps(facts, sites, r)
    if reason:
        return reason
    if abs(float(report.error) - math.sqrt(err2)) > ATOL:
        return f"reported error {report.error}, actual {math.sqrt(err2)}"
    return None


# ---------------------------------------------------------------------------
# channels


def _vec(m):
    return m.T.reshape(-1)


def _choi_from_kraus(ops):
    vs = np.stack([_vec(k) for k in ops], axis=1)
    return vs @ vs.conj().T


def _pauli_stack():
    mats = [np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]
    return np.stack([_vec(np.asarray(m, dtype=complex)) / math.sqrt(2)
                     for m in mats], axis=1)


def _expected_matrix(rep, ops):
    d = ops[0].shape[0]
    choi = _choi_from_kraus(ops)
    if rep == "superop":
        return sum(np.kron(k.conj(), k) for k in ops)
    if rep == "chi":
        b = _pauli_stack() if d == 2 else np.eye(d * d)
        return b.conj().T @ choi @ b
    return choi


def _check_channel_convert(job, rc, stdout, ops):
    if rc != 0:
        return f"exit code {rc}"
    rep = job["check"]["rep"]
    if parse_output(stdout).get("rep") != rep:
        return f"rep = {parse_output(stdout).get('rep')}"
    got_rep, d_in, d_out, extra, mats = read_chx_arrays(job["check"]["out"])
    d = ops[0].shape[0]
    if (got_rep, d_in, d_out) != (rep, d, d):
        return f"header {got_rep} {d_in} {d_out}"
    if rep == "stinespring":
        a = mats[0]
        if np.abs(a.conj().T @ a - np.eye(d)).max() > ATOL:
            return "Stinespring isometry is not trace preserving"
        blocks = [a.reshape(d, extra, d)[:, e, :] for e in range(extra)]
        got, want = _choi_from_kraus(blocks), _choi_from_kraus(ops)
    else:
        got, want = mats[0], _expected_matrix(rep, ops)
    if got.shape != want.shape:
        return f"{rep} matrix shape {got.shape}"
    dev = float(np.abs(got - want).max())
    return None if dev <= ATOL else f"{rep} matrix off by {dev:.3g}"


def _check_channel_check(job, rc, stdout, ops):
    if rc != 0:
        return f"exit code {rc}"
    out = parse_output(stdout)
    d = ops[0].shape[0]
    unital = np.abs(sum(k @ k.conj().T for k in ops) - np.eye(d)).max() <= ATOL
    want = {"CP": "true", "TP": "true", "HP": "true",
            "unital": "true" if unital else "false"}
    for name, value in want.items():
        if out.get(name) != value:
            return f"{name} = {out.get(name)}, expected {value}"
    return None


def _check_fidelity(job, rc, stdout, ops):
    if rc != 0:
        return f"exit code {rc}"
    d = ops[0].shape[0]
    exact = (d + sum(abs(np.trace(k)) ** 2 for k in ops)) / (d * (d + 1))
    got = parse_output(stdout).get("avg_gate_fidelity")
    if got is None or not _close(got, exact):
        return f"avg_gate_fidelity = {got}, exact {exact!r}"
    return None


# ---------------------------------------------------------------------------


class Checker:
    """Checks job outputs, caching the facts each oracle derives from an
    input file so repeated rounds do not recompute them."""

    def __init__(self):
        self._facts = {}

    def _state(self, path):
        if path not in self._facts:
            self._facts[path] = _StateFacts(path)
        return self._facts[path]

    def _kraus(self, path):
        if path not in self._facts:
            self._facts[path] = list(np.load(path))
        return self._facts[path]

    def check(self, job, rc, stdout, result=None):
        spec = job["check"]
        kind = spec["type"]
        if kind in COUNTS:
            return _check_count(job, rc, stdout)
        if kind == "mps_factor":
            return _check_mps_factor(job, rc, stdout, self._state(spec["psi"]))
        if kind == "invariants":
            return _check_invariants(job, rc, stdout, self._state(spec["psi"]))
        if kind == "truncate_mps":
            if rc != 0:
                return f"exit code {rc}"
            return _check_truncate_mps(job, result, self._state(spec["psi"]))
        ops = self._kraus(spec["kraus"])
        if kind == "channel_convert":
            return _check_channel_convert(job, rc, stdout, ops)
        if kind == "channel_check":
            return _check_channel_check(job, rc, stdout, ops)
        if kind == "fidelity":
            return _check_fidelity(job, rc, stdout, ops)
        raise ValueError(f"unknown check type {kind!r}")
