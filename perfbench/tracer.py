"""Traced runs: spans around tnq's public functions, from the outside.

``Tracer.install`` replaces each function in ``TARGETS`` by a wrapper in
every tnq module namespace that holds it (``counting`` imports
``contract_network`` by name, for example), so calls are caught where the
caller looks them up.  Each call becomes a span ``[name, job, parent,
start, end, error, extra]`` kept in memory; ``write`` dumps them as TSV
when the run ends and ``layer_metrics`` reduces them to the per-layer
metrics of ``PER_LAYER``.

Self time is a span's duration minus the durations of its wrapped
children.  ``.ms`` metrics are inclusive times of outermost spans of the
name.  All per-layer values are per job except ``peak_entries`` (largest
contraction result of the run) and ``trace.overhead_frac``.  Span times
are plain wall times, not rescaled by the speed probe.
"""

from __future__ import annotations

import importlib
import time

TNQ_MODULES = ("tnq", "tnq.tensor", "tnq.network", "tnq.gates",
               "tnq.decomp", "tnq.invariants", "tnq.boolean",
               "tnq.channels", "tnq.counting", "tnq.cli")

#: (module, attribute path, span name) of every wrapped function.
TARGETS = (
    ("tnq.tensor", "contract", "tensor.contract"),
    ("tnq.tensor", "Tensor.__init__", "tensor.Tensor.init"),
    ("tnq.tensor", "read_tntx", "tensor.read_tntx"),
    ("tnq.tensor", "write_tntx", "tensor.write_tntx"),
    ("tnq.tensor", "svd", "tensor.svd"),
    ("tnq.network", "contract_network", "network.contract_network"),
    ("tnq.network", "Network.finalize", "network.finalize"),
    ("tnq.counting", "parse_edgelist", "counting.parse_edgelist"),
    ("tnq.counting", "count_colorings_epsilon",
     "counting.count_colorings_epsilon"),
    ("tnq.gates", "epsilon_tensor", "gates.epsilon_tensor"),
    ("tnq.boolean", "parse_dimacs", "boolean.parse_dimacs"),
    ("tnq.boolean", "cnf_state_network", "boolean.cnf_state_network"),
    ("tnq.boolean", "count_sat", "boolean.count_sat"),
    ("tnq.decomp", "mps_factor", "decomp.mps_factor"),
    ("tnq.decomp", "save_mps", "decomp.save_mps"),
    ("tnq.decomp", "truncate_mps", "decomp.truncate_mps"),
    ("tnq.decomp", "schmidt", "decomp.schmidt"),
    ("tnq.invariants", "j2", "invariants.j2"),
    ("tnq.channels", "read_chx", "channels.read_chx"),
    ("tnq.channels", "write_chx", "channels.write_chx"),
    ("tnq.channels", "convert", "channels.convert"),
    ("tnq.channels", "default_basis", "channels.basis"),
    ("tnq.channels", "elementary_basis", "channels.basis"),
    ("tnq.channels", "pauli_basis", "channels.basis"),
    ("tnq.channels", "check", "channels.check"),
    ("tnq.channels", "avg_gate_fidelity", "channels.avg_gate_fidelity"),
    ("tnq.cli", "run", "cli.run"),
)

#: Per-layer metric name -> unit, in report order.
PER_LAYER = {
    "tensor.contract.calls": "calls/job",
    "tensor.contract.ms": "ms/job",
    "tensor.contract.flops": "flop/job",
    "tensor.contract.bytes": "B/job",
    "tensor.contract.peak_entries": "entries",
    "tensor.Tensor.init.calls": "calls/job",
    "tensor.Tensor.init.ms": "ms/job",
    "tensor.read_tntx.ms": "ms/job",
    "tensor.read_tntx.bytes": "B/job",
    "tensor.write_tntx.ms": "ms/job",
    "tensor.write_tntx.bytes": "B/job",
    "tensor.svd.calls": "calls/job",
    "tensor.svd.ms": "ms/job",
    "network.contract_network.ms": "ms/job",
    "network.contract_network.self_ms": "ms/job",
    "network.contract_network.cap_errors": "count/job",
    "network.merges": "count/job",
    "network.finalize.ms": "ms/job",
    "counting.parse_edgelist.ms": "ms/job",
    "counting.count_colorings_epsilon.self_ms": "ms/job",
    "gates.epsilon_tensor.calls": "calls/job",
    "boolean.parse_dimacs.ms": "ms/job",
    "boolean.cnf_state_network.ms": "ms/job",
    "boolean.count_sat.self_ms": "ms/job",
    "decomp.mps_factor.self_ms": "ms/job",
    "decomp.save_mps.self_ms": "ms/job",
    "decomp.truncate_mps.ms": "ms/job",
    "decomp.schmidt.ms": "ms/job",
    "invariants.j2.ms": "ms/job",
    "channels.read_chx.ms": "ms/job",
    "channels.write_chx.ms": "ms/job",
    "channels.chx.bytes": "B/job",
    "channels.convert.self_ms": "ms/job",
    "channels.basis.ms": "ms/job",
    "channels.check.ms": "ms/job",
    "channels.avg_gate_fidelity.ms": "ms/job",
    "cli.run.self_ms": "ms/job",
    "trace.overhead_frac": "frac",
}

# span record fields
NAME, JOB, PARENT, START, END, ERROR, EXTRA = range(7)


def _size(t):
    return t.data.size


def _contract_extra(args, kwargs, result):
    """Entries, flops and bytes of ``tensor.contract(a, la, b, lb)``."""
    a, legs_a, b = args[0], args[1], args[2]
    shared = 1
    for leg in legs_a:
        shared *= a.dims[leg]
    out = _size(result)
    flops = 8 * _size(a) * _size(b) // shared   # complex multiply-add
    return (out, flops, 16 * (_size(a) + _size(b) + out))


def _text_in(args, kwargs, result):
    return (len(args[0]),)


def _text_out(args, kwargs, result):
    return (len(result),)


_EXTRAS = {
    "tensor.contract": _contract_extra,
    "tensor.read_tntx": _text_in,
    "tensor.write_tntx": _text_out,
    "channels.read_chx": _text_in,
    "channels.write_chx": _text_out,
}


def resolve(module, path):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Holds the spans of one traced run; install, run jobs, uninstall."""

    def __init__(self):
        self.spans = []
        self.job = -1
        self._stack = []
        self._patches = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        extra_of = _EXTRAS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not stack:          # a root span starts the next job
                self.job += 1
            rec = [name, self.job, stack[-1] if stack else -1, 0.0, 0.0,
                   None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if extra_of is not None:
                rec[EXTRA] = extra_of(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        modules = [importlib.import_module(m) for m in TNQ_MODULES]
        for module, path, name in TARGETS:
            owner, attr = resolve(module, path)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("index\tjob\tparent\tname\tstart_s\tend_s\terror\textra\n")
            for i, s in enumerate(self.spans):
                extra = ",".join(map(str, s[EXTRA])) if s[EXTRA] else ""
                fh.write(f"{i}\t{s[JOB]}\t{s[PARENT]}\t{s[NAME]}\t"
                         f"{s[START]:.9f}\t{s[END]:.9f}\t{s[ERROR] or ''}\t"
                         f"{extra}\n")

    def self_times(self):
        """Span name -> summed self time in seconds."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out = {}
        for i, s in enumerate(spans):
            out[s[NAME]] = out.get(s[NAME], 0.0) + s[END] - s[START] - child[i]
        return out

    def _has_ancestor(self, i, names):
        parent = self.spans[i][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] in names:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def layer_metrics(self, n_jobs, overhead_frac):
        spans = self.spans
        selfs = self.self_times()
        calls, incl = {}, {}
        flops = nbytes = peak = merges = cap_errors = 0
        text = {"tensor.read_tntx": 0, "tensor.write_tntx": 0,
                "channels.chx": 0}
        for i, s in enumerate(spans):
            name = s[NAME]
            calls[name] = calls.get(name, 0) + 1
            if not self._has_ancestor(i, (name,)):
                incl[name] = incl.get(name, 0.0) + s[END] - s[START]
            if name == "tensor.contract" and s[EXTRA]:
                out, f, b = s[EXTRA]
                peak = max(peak, out)
                flops += f
                nbytes += b
                if self._has_ancestor(i, ("network.contract_network",)):
                    merges += 1
            elif name in ("tensor.read_tntx", "tensor.write_tntx") and s[EXTRA]:
                text[name] += s[EXTRA][0]
            elif name in ("channels.read_chx", "channels.write_chx") and s[EXTRA]:
                text["channels.chx"] += s[EXTRA][0]
            if name == "network.contract_network" and s[ERROR] == "SizeCapError":
                cap_errors += 1

        per = 1.0 / max(n_jobs, 1)
        values = {}
        for metric in PER_LAYER:
            base, _, kind = metric.rpartition(".")
            if kind == "calls":
                values[metric] = calls.get(base, 0) * per
            elif kind == "ms":
                values[metric] = incl.get(base, 0.0) * 1e3 * per
            elif kind == "self_ms":
                values[metric] = selfs.get(base, 0.0) * 1e3 * per
            elif kind == "bytes" and base in text:
                values[metric] = text[base] * per
        values.update({
            "tensor.contract.flops": flops * per,
            "tensor.contract.bytes": nbytes * per,
            "tensor.contract.peak_entries": float(peak),
            "network.contract_network.cap_errors": cap_errors * per,
            "network.merges": merges * per,
            "trace.overhead_frac": overhead_frac,
        })
        missing = set(PER_LAYER) - set(values)
        if missing:
            raise RuntimeError(f"no rule for per-layer metrics {missing}")
        return values
