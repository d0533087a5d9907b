"""Label-declared tensor networks and the greedy contraction planner."""

import importlib.util
import math
import os
import pathlib
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import tnq
from tnq import tensor as tz
from tnq.network import (Network, _plan, contract_network, inner_product,
                         norm_squared)
from tnq.errors import NumericalError, ShapeError, SizeCapError

rng = np.random.default_rng(11)


def rand_c(*shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _ends(net):
    """``(bonds, open_legs)`` read from the leg table: each bond a pair of
    ``(id, leg)`` ends in the order its label first appears, then the
    open legs in declared order; each end's code is on its leg."""
    ids, _, codes, owner, axis, _, n_bond = net._legs
    ends = [(ids[s], leg) for s, leg in zip(owner, axis)]
    assert [codes[s][leg] for s, leg in zip(owner, axis)] == list(
        range(len(ends)))
    return list(zip(ends[:n_bond:2], ends[1:n_bond:2])), ends[n_bond:]


def test_matrix_chain():
    a, b, c = rand_c(2, 3), rand_c(3, 4), rand_c(4, 5)
    net = Network([("a", tz.operator(a), "ij"), ("b", tz.operator(b), "jk"),
                   ("c", tz.operator(c), "kl")], "il")
    out = contract_network(net)
    np.testing.assert_allclose(out.data, a @ b @ c, atol=1e-12)


def test_closed_network_trace():
    m = rand_c(5, 5)
    out = contract_network(Network([(0, tz.operator(m), "ii")]))
    np.testing.assert_allclose(complex(out.data), np.trace(m))


def test_disconnected_components_tensor_product():
    v, w = rand_c(2), rand_c(3)
    net = Network([("v", tz.state(v), "a"), ("w", tz.state(w), "b")], "ab")
    out = contract_network(net)
    np.testing.assert_allclose(out.data, np.multiply.outer(v, w))


def test_open_leg_ordering_respected():
    t = tz.state(rand_c(2, 3))
    out = contract_network(Network([(0, t, "ab")], "ba"))
    np.testing.assert_allclose(out.data, t.data.T)


def test_slots_are_ranked_by_type_name_then_str():
    # by str alone the order would be "1", 10, 5
    t = tz.operator(np.eye(2))
    net = Network([("1", t, "ab"), (5, t, "bc"), (10, t, "ca")])
    assert _plan(net)[0] == [10, 5, "1"]
    assert complex(contract_network(net).data) == 2


def test_einsum_oracle_random_network():
    # three tensors, ring plus open legs, against a direct einsum
    a = tz.Tensor(rand_c(2, 3, 4), (tz.DOWN, tz.DOWN, tz.UP))
    b = tz.Tensor(rand_c(3, 4, 5), (tz.UP, tz.DOWN, tz.DOWN))
    c = tz.Tensor(rand_c(5, 2), (tz.UP, tz.UP))
    net = Network([("a", a, "ijk"), ("b", b, "jlm"), ("c", c, "mn")], "ikln")
    out = contract_network(net)
    oracle = np.einsum("ijk,jlm,mn->ikln", a.data, b.data, c.data)
    np.testing.assert_allclose(out.data, oracle, atol=1e-12)


def test_bond_orientation_mismatch_rejected():
    with pytest.raises(ShapeError):
        Network([(0, tz.state(rand_c(2)), "a"),
                 (1, tz.state(rand_c(2)), "a")])


def test_bond_dimension_mismatch_rejected():
    with pytest.raises(ShapeError):
        Network([(0, tz.state(rand_c(2)), "a"),
                 (1, tz.effect(rand_c(3)), "a")])


def test_leg_used_twice_rejected():
    with pytest.raises(ShapeError):
        Network([(0, tz.state(rand_c(2, 2)), "ab"),
                 (1, tz.effect(rand_c(2)), "a"),
                 (2, tz.effect(rand_c(2)), "a")])


def test_numpy_int_legs_accepted():
    # numpy integers label legs as the Python ints they equal
    net = Network([(0, tz.state([1.0, 2.0]), [np.int64(0)]),
                   (1, tz.effect([3.0, 4.0]), [np.int32(0)]),
                   (2, tz.state([5.0]), [np.uint8(1)])], [1])
    assert _ends(net) == ([((0, 0), (1, 0))], [(2, 0)])
    assert complex(contract_network(net).data[0]) == 55


def test_unlisted_open_leg_rejected():
    with pytest.raises(ShapeError):
        Network([(0, tz.state(rand_c(2, 2)), "ab")], "a")


_LEGS = {0: tz.state(rand_c(2, 2)), 1: tz.effect(rand_c(2)),
         2: tz.effect(rand_c(3)), 3: np.ones(2)}  # 3 is not a Tensor


_FAULTS = {
    "duplicate-id": ([(0, "ab"), (1, "a"), (1, "a")], "b",
                     "duplicate node id 1"),
    "not-a-tensor": ([(0, "ab"), (3, "a")], "b",
                     "node value must be a Tensor"),
    "unequal-dims": ([(0, "ab"), (2, "a")], "b",
                     "bonded legs (0,0)-(2,0) differ in dim"),
    "equal-orients": ([(0, "aa")], "",
                      "bonded legs (0,0)-(0,1) have equal orientation"),
    "label-on-3-legs": ([(0, "ab"), (1, "a"), (2, "a")], "b",
                        "legs (0,0)-(2,0) of hyperindex 'a' differ in dim"),
    "label-on-1-leg": ([(0, "ab"), (1, "a")], "", "label 'b' is on 1 leg(s)"),
    "first-seen-label": ([(1, "x"), (0, "ab")], "ab",
                         "label 'x' is on 1 leg(s)"),
    "open-on-0-legs": ([(0, "ab"), (1, "a")], "bc",
                       "open label 'c' is on 0 leg(s)"),
    "open-on-2-legs": ([(0, "ab"), (2, "b")], "ab",
                       "legs (0,1)-(2,0) of hyperindex 'b' differ in dim"),
    "open-twice": ([(0, "ab")], "aab", "open label 'a' is listed twice"),
    "open-twice-first": ([(0, "ab")], "aca",
                         "open label 'a' is listed twice"),
    "too-few-labels": ([(0, "a")], "a", "node 0 has 1 labels for 2 legs"),
    "too-many-labels": ([(0, "abc")], "abc",
                        "node 0 has 3 labels for 2 legs"),
    "bond-past-order": ([(0, "ab"), (1, "xya")], "bxy",
                        "node 1 has 3 labels for 1 legs"),
    "open-past-order": ([(0, "abc"), (1, "a")], "bc",
                        "node 0 has 3 labels for 2 legs"),
}


@pytest.mark.parametrize("nodes, open_labels, message", _FAULTS.values(),
                         ids=list(_FAULTS))
def test_network_names_each_fault(nodes, open_labels, message):
    with pytest.raises(ShapeError) as info:
        Network([(n, _LEGS[n], labels) for n, labels in nodes], open_labels)
    assert str(info.value) == message


def test_size_cap(monkeypatch):
    # the plan's one over-cap step comes after a trace and a small merge
    # that would run first; the whole plan is checked before any of them
    monkeypatch.setattr(tz, "SIZE_CAP", 2**16)
    big = [tz.state(rand_c(*([2] * 12))) for _ in range(2)]
    free = [[(n, k) for k in range(1, 12)] for n in (0, 1)]
    net = Network([(0, big[0], ["b"] + free[0]),
                   (1, tz.conj(tz.bend_all(big[1])), ["b"] + free[1]),
                   (2, tz.operator(rand_c(2, 2)), "tt"),
                   (3, tz.state(rand_c(2)), "s"),
                   (4, tz.effect(rand_c(2)), "s")],
                  free[0] + free[1])
    calls = []
    for name in ("_dot", "_reduce"):
        monkeypatch.setattr(tz, name, lambda *a, _n=name: calls.append(_n))
    with pytest.raises(SizeCapError, match=r"4194304 entries exceeds cap "
                       r"\(joining 0 \(2(, 2){11}\) with 1 \(2(, 2){11}\)\)"
                       ) as info:
        contract_network(net)
    assert calls == []
    assert info.value.shape == (2,) * 24


def test_size_cap_covers_disconnected_parts(monkeypatch):
    # two parts, each a bonded pair of order-9 states whose merge is
    # exactly at the cap; the no-leg merge joining the parts is over it,
    # and is checked with the rest of the plan before any step runs
    monkeypatch.setattr(tz, "SIZE_CAP", 2**16)
    nodes = [(n, (tz.effect if n % 2 else tz.state)(rand_c(*([2] * 9))),
              [n // 2] + [(n, k) for k in range(1, 9)]) for n in range(4)]
    net = Network(nodes, [(n, k) for n in range(4) for k in range(1, 9)])
    calls = []
    for name in ("_dot", "_reduce"):
        monkeypatch.setattr(tz, name, lambda *a, _n=name: calls.append(_n))
    with pytest.raises(SizeCapError, match=r"4294967296 entries exceeds cap "
                       r"\(joining 0 \(2(, 2){15}\) with 2 \(2(, 2){15}\)\)"
                       ) as info:
        contract_network(net)
    assert calls == []
    assert info.value.shape == (2,) * 32


def test_conjugate_network():
    v = rand_c(3)
    net = tnq.single_node_network(tz.state(v))
    conj_net = net.conjugate()
    out = contract_network(conj_net)
    np.testing.assert_allclose(out.data, v.conj())
    assert out.orients == (tz.UP,)


def test_inner_product_and_norm():
    v = rand_c(2, 2)
    n1 = tnq.single_node_network(tz.state(v))
    n2 = tnq.single_node_network(tz.state(v))
    np.testing.assert_allclose(inner_product(n1, n2), np.vdot(v, v))
    np.testing.assert_allclose(norm_squared(n1), (np.abs(v) ** 2).sum())


def test_greedy_plan_matches_oracle_on_random_trees(subtests=None):
    # random chain of 6 small tensors contracted pairwise
    dims = [2, 3, 2, 4, 3, 2, 2]
    mats = [rand_c(dims[i], dims[i + 1]) for i in range(6)]
    net = Network([(i, tz.operator(m), [i, i + 1])
                   for i, m in enumerate(mats)], [0, 6])
    out = contract_network(net)
    oracle = mats[0]
    for m in mats[1:]:
        oracle = oracle @ m
    np.testing.assert_allclose(out.data, oracle, atol=1e-12)


# ---------------------------------------------------------------------------
# merge-order pin: the full-rescan planner the incremental one replaced

def _ref_key(node_id):
    return (str(type(node_id).__name__), str(node_id))


def _reference_contract(net):
    """Greedy planner that rebuilds every bond group after each merge."""
    tensors = dict(net.nodes)
    where = {(n, leg): (n, leg) for n, t in tensors.items()
             for leg in range(t.order)}

    def groups():
        out = {}
        for a, b in _ends(net)[0]:
            if a in where:
                pair = tuple(sorted((where[a][0], where[b][0]), key=_ref_key))
                out.setdefault(pair, []).append((a, b))
        return out

    def relabel(nodes, new_axis):
        for orig, (n, axis) in list(where.items()):
            if n in nodes:
                if (n, axis) in new_axis:
                    where[orig] = (nodes[0], new_axis[(n, axis)])
                else:
                    del where[orig]

    for (na, nb), blist in list(groups().items()):
        if na == nb:
            t = tensors[na]
            pairs = [(where[a][1], where[b][1]) for a, b in blist]
            gone = {i for p in pairs for i in p}
            tensors[na] = tz.trace_pairs(t, pairs)
            kept = [i for i in range(t.order) if i not in gone]
            relabel((na,), {(na, i): pos for pos, i in enumerate(kept)})
    live = {k: v for k, v in groups().items() if k[0] != k[1]}
    while live:
        best = None
        for (na, nb), blist in live.items():
            shared = 1
            for a, _ in blist:
                shared *= tensors[where[a][0]].dims[where[a][1]]
            cost = ((tensors[na].data.size // shared)
                    * (tensors[nb].data.size // shared))
            k = (cost, _ref_key(na), _ref_key(nb))
            if best is None or k < best[0]:
                best = (k, (na, nb), blist)
        (cost, _, _), (na, nb), blist = best
        if cost > tz.SIZE_CAP:
            raise SizeCapError("planned intermediate exceeds cap")
        ta, tb = tensors[na], tensors.pop(nb)
        legs_a, legs_b = [], []
        for a, b in blist:
            wa, wb = where[a], where[b]
            if wa[0] == nb:
                wa, wb = wb, wa
            legs_a.append(wa[1])
            legs_b.append(wb[1])
        tensors[na] = tz.contract(ta, legs_a, tb, legs_b)
        rest = [(na, i) for i in range(ta.order) if i not in legs_a]
        rest += [(nb, i) for i in range(tb.order) if i not in legs_b]
        relabel((na, nb), {nk: pos for pos, nk in enumerate(rest)})
        live = {k: v for k, v in groups().items() if k[0] != k[1]}
    order = sorted(tensors, key=_ref_key)
    result, offsets = tensors[order[0]], {order[0]: 0}
    for nid in order[1:]:
        offsets[nid] = result.order
        result = tz.tensor_product(result, tensors[nid])
    perm = [offsets[where[leg][0]] + where[leg][1] for leg in _ends(net)[1]]
    return tz.permute_legs(result, perm)


def _recorded(monkeypatch, planner, net):
    """Run ``planner`` on ``net``; return its result and every kernel call."""
    calls = []
    for name in ("contract", "trace_pairs"):
        real = getattr(tz, name)

        def spy(t, *args, _name=name, _real=real):
            calls.append((_name, t.dims, t.orients) + tuple(
                (a.dims, a.orients) if isinstance(a, tz.Tensor)
                else tuple(map(tuple, a)) if _name == "trace_pairs"
                else tuple(a)
                for a in args
            ))
            return _real(t, *args)

        monkeypatch.setattr(tz, name, spy)
    try:
        return planner(net), calls
    finally:
        monkeypatch.undo()


def _prism_network(monkeypatch, m):
    """The epsilon network count_colorings_epsilon builds for a 2m-node prism."""
    edges = []
    for i in range(m):
        edges += [(i, (i + 1) % m), (m + i, m + (i + 1) % m), (i, m + i)]
    return _epsilon_network(monkeypatch, 2 * m, edges)


def _epsilon_network(monkeypatch, n_nodes, edges):
    """The epsilon network count_colorings_epsilon builds for a cubic graph."""
    g = tnq.counting.ColorGraph(n_nodes, tuple(edges))
    captured = []
    monkeypatch.setattr(tnq.counting, "contract_network",
                        lambda net: captured.append(net) or tz.scalar(0))
    tnq.counting.count_colorings_epsilon(g)
    monkeypatch.undo()
    return captured[0]


def _random_multigraph(seed, n_nodes=9, n_bonds=16):
    """Random network with parallel bonds, self-bonds and open legs."""
    r = np.random.default_rng(seed)
    ends = {n: [] for n in range(n_nodes)}  # node -> [(dim, orient, label)]
    bonds = []
    for k in range(n_bonds):
        a = int(r.integers(n_nodes))
        b = a if k % 5 == 0 else int(r.integers(n_nodes))
        if k % 4 == 1 and bonds:
            a, b = bonds[-1]  # parallel to the previous bond
        d = int(r.integers(1, 4))
        o = tz.UP if r.integers(2) else tz.DOWN
        ends[a].append((d, o, ("bond", k)))
        ends[b].append((d, tz.UP if o == tz.DOWN else tz.DOWN, ("bond", k)))
        bonds.append((a, b))
    for n in range(0, n_nodes, 3):
        ends[n].append((2, tz.DOWN, ("open", n)))
    nodes = []
    for n, legs in ends.items():
        perm = r.permutation(len(legs))
        legs = [legs[p] for p in perm]
        shape = [d for d, _, _ in legs]
        nodes.append((f"n{n}", tz.Tensor(
            r.normal(size=shape) + 1j * r.normal(size=shape),
            [o for _, o, _ in legs]), [label for _, _, label in legs]))
    return Network(nodes, [("open", n) for n in range(0, n_nodes, 3)])


def _chained_cnf_network(cnf, closed=False):
    """A CNF's network with COPY spiders for nodes, bonds only: a wire
    with other than two ends is a spider, a chain of 3-leg nodes past 8
    legs (the encoding before hyperindices)."""
    opened = [] if closed else [("var", i) for i in range(1, cnf.n_vars + 1)]
    ends = {w: [w] for w in opened}
    clauses = []
    for j, clause in enumerate(cnf.clauses):
        first = sum(map(len, cnf.clauses[:j]))
        labels = range(first, first + len(clause))
        for lit, label in zip(clause, labels):
            ends.setdefault(("var", abs(lit)), []).append(label)
        clauses.append((("clause", j), clause, labels))
    unused = cnf.n_vars - len({abs(lit) for c in cnf.clauses for lit in c})
    bent, nodes = {}, []
    for w, labels in ends.items():
        labels = labels[::-1]
        if len(labels) == 2:
            bent[labels[0]] = labels[1]
        elif len(labels) <= 8:
            nodes.append((w, tnq.copy_tensor(len(labels), exact=True),
                          labels))
        else:
            head = tnq.copy_tensor(3, exact=True)
            link = [labels[0], *[(w, "c", k)
                                 for k in range(1, len(labels) - 2)],
                    labels[-1]]
            nodes += [((w, "c", k), tz.bend_leg(head, 0) if k else head,
                       [link[k], labels[k + 1], link[k + 1]])
                      for k in range(len(labels) - 2)]
    nodes += [(n, tnq.boolean._clause_effect(
        clause, tuple(k in bent for k in labels)),
        [bent.get(k, k) for k in labels]) for n, clause, labels in clauses]
    if closed and unused:
        nodes.append((("var", "unused"), tz.Tensor._exact(2**unused, ()), ()))
    return Network(nodes, opened)


def _pin_cnfs():
    """``(name, formula, closed)`` of the pin's two formulas."""
    # variable 1 occurs in 10 clauses, so its COPY fan is a 3-leg chain
    clauses = [(1, k) for k in range(2, 12)] + [(-2, 3, -4), (5, -6, 7)]
    yield "cnf", tnq.boolean.CnfFormula(11, tuple(clauses)), False
    # a closed random 3-CNF: 3 distinct variables per clause, random signs
    r = np.random.default_rng(9)
    clauses = [tuple(int(v) * int(r.choice((-1, 1)))
                     for v in r.choice(np.arange(1, 10), 3, replace=False))
               for _ in range(18)]
    yield "closed3cnf", tnq.boolean.CnfFormula(9, tuple(clauses)), True


def _pin_networks(monkeypatch):
    for m in (8, 12, 36):
        yield f"prism{2 * m}", _prism_network(monkeypatch, m)
    # a random cubic graph ties less often than a prism; networkx is
    # optional, and the other pins run without it
    try:
        import networkx as nx
    except ImportError:
        pass
    else:
        edges = nx.random_regular_graph(3, 40, seed=0).edges()
        yield "cubic40", _epsilon_network(monkeypatch, 40, edges)
    for name, cnf, closed in _pin_cnfs():
        yield name, _chained_cnf_network(cnf, closed)
    for seed in range(4):
        yield f"multigraph{seed}", _random_multigraph(seed)


def _bench_sat_networks(seeds=(1, 2)):
    """Closed #SAT networks of the random and blocks formulas of the sat
    benchmark (``perfbench/workloads.py``) at ``seeds``, by job name."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("_bench_workloads",
                                                  path / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    nets = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            jobs = workloads.build("sat", seed, os.path.join(tmp, str(seed)))
            for job in jobs:
                name = job["label"].split()[-1]
                if not name.startswith("chain"):
                    with open(job["argv"][-1]) as fh:
                        cnf = tnq.boolean.parse_dimacs(fh.read())
                    nets.append((f"{name}@{seed}", tnq.boolean.
                                 cnf_state_network(cnf, closed=True)))
    return sorted(nets, key=lambda x: x[0])


def _hyper_pin_networks():
    """Networks with hyperindices: the sat benchmark's random and blocks
    formulas, the pin's formulas in their hyperindex encoding, and a
    circuit whose wire t has 10 legs."""
    yield from _bench_sat_networks()
    for name, cnf, closed in _pin_cnfs():
        yield name, tnq.boolean.cnf_state_network(cnf, closed)
    names = ["AND", "OR", "XOR", "NAND", "NOR", "XOR", "AND", "OR"]
    gates = [{"gate": "XOR", "in": ["a", "b"], "out": "t"}]
    gates += [{"gate": g, "in": ["t", "c" if k % 2 else "b"], "out": f"o{k}"}
              for k, g in enumerate(names)]
    gates.append({"gate": "NOT", "in": ["o3"], "out": "z"})
    yield "circuit", tnq.boolean.network_from_circuit(
        gates, ["a", "b", "c"], ["o0", "o2", "z"], {"t": 1})


def test_plan_is_the_same_on_every_call_and_on_the_conjugate(monkeypatch):
    for name, net in [*_pin_networks(monkeypatch), *_hyper_pin_networks()]:
        plan = _plan(net)
        assert _plan(net) == plan, name
        assert _plan(net.conjugate()) == plan, name


def _replay(net):
    """Run the steps of ``_plan(net)`` through the public kernels.

    Returns the result and the tensor of each merge step.  A one-slot
    step whose repeated keys are pairs, all summed, is the
    ``tz.trace_pairs`` call on those pairs, each by its axes in order;
    any other runs through ``tz._reduce``.  A merge step's contracted
    legs are the last ``k`` axes of ``perm_a`` and the first ``k`` of
    ``perm_b``.
    """
    ids, traces, merges, perm = _plan(net)
    ts = [net.nodes[n] for n in ids]
    for s, sub, out in traces:
        t = ts[s]
        if [k for k in sub if sub.count(k) == 1] == out and max(
                map(sub.count, sub)) <= 2:
            pairs = [(i, sub.index(k, i + 1)) for i, k in enumerate(sub)
                     if k not in out and sub.index(k) == i]
            ts[s] = tz.trace_pairs(t, pairs)
        else:
            data, bound = tz._reduce((t.data, t.bound), sub, out)
            ts[s] = tz.Tensor._trusted(
                data, tuple(t.orients[sub.index(k)] for k in out), bound)
    steps = []
    for a, perm_a, b, perm_b, _, _, _, shape, _ in merges:
        k = (len(perm_a) + len(perm_b) - len(shape)) // 2
        ts[a] = tz.contract(ts[a], perm_a[len(perm_a) - k:], ts[b], perm_b[:k])
        steps.append(ts[a])
    return tz.permute_legs(ts[0], perm), steps


def _same_storage(got, want):
    """Equal dtype and shape, identical ints or identical bits."""
    assert got.dtype == want.dtype and got.shape == want.shape
    if got.dtype == object:
        assert got.tolist() == want.tolist()
    else:
        assert got.tobytes() == want.tobytes()


def _assert_runs_its_plan(net):
    """``contract_network(net)`` equals the replay of its plan at every
    step, in storage and value; returns its result."""
    want, want_steps = _replay(net)
    steps, real = [], tz._dot

    def spy(*args):
        out = real(*args)
        steps.append(out)
        return out

    with mock.patch.object(tz, "_dot", spy):
        out = contract_network(net)
    assert len(steps) == len(want_steps)
    for (data, bound), t in zip(steps, want_steps):
        _same_storage(data, t.data)
        assert bound == t.bound
    _same_storage(out.data, want.data)
    assert out.orients == want.orients and out.bound == want.bound
    return out


def test_merge_order_pinned_to_full_rescan_planner(monkeypatch):
    # the plan replayed through tz.contract makes the reference planner's
    # kernel calls, and contract_network runs exactly that plan
    for name, net in _pin_networks(monkeypatch):
        ref, ref_calls = _recorded(monkeypatch, _reference_contract, net)
        _, calls = _recorded(monkeypatch, _replay, net)
        assert calls == ref_calls, name
        assert len(calls) >= len(net.nodes) - 1, name
        out = _assert_runs_its_plan(net)
        assert out.orients == ref.orients, name
        assert np.array_equal(out.data, ref.data), name


def test_prism128_runs_its_plan_across_the_switch_to_python_ints(
        monkeypatch):
    # the count is 2^64 + 8: early steps run in float64, some only after
    # the rescan of their operands' true largest entries, the last ones on
    # Python ints; each step's storage and bound match the replay
    net = _prism_network(monkeypatch, 64)
    _, _, merges, _ = _plan(net)
    _, steps = _replay(net)
    kinds = [t.data.dtype for t in steps]
    assert kinds[0] == np.float64 and kinds[-1] == object
    bounds = [1] * len(net.nodes)
    rescanned = False
    for (a, _, b, _, _, shared, _, _, _), t in zip(merges, steps):
        assert (t.data.dtype == np.float64) == (t.bound <= 2**53)
        assert max(map(abs, t.data.flat), default=0) <= t.bound
        rescanned |= (t.data.dtype == np.float64
                      and shared * bounds[a] * bounds[b] > 2**53)
        bounds[a] = t.bound
    assert rescanned
    out = _assert_runs_its_plan(net)
    assert abs(out.data.item()) == 2**64 + 8


def _reference_hyper_merges(net):
    """The greedy merge sequence by full rescan, read from the labels:
    each merge ``(a, b, rows, shared, cols, batch)`` of slots ``a < b``.

    A closed label on two legs is a bond, any other on two or more legs
    a hyperindex.  The one-slot steps trace a bond with both legs on one
    node, keep one axis of a hyperindex on several legs of one node and
    sum a closed one that no other node holds.  The candidate pairs are
    the two holders of a bond and the consecutive holders of a
    hyperindex in leg order, each holder replaced by the slot it has
    merged into.  A label both slots hold is a batch axis while a third
    slot or the output holds it, else summed; the key is the result's
    entries, each batch dim counted once, and ties go to the smaller
    pair of slots.  Other parts then fold into slot 0.
    """
    ids = sorted(net.nodes, key=_ref_key)
    slot = {n: s for s, n in enumerate(ids)}
    ends = {}  # label -> [(slot, dim)], in leg order
    for n, labels in net._labels.items():
        for label, d in zip(labels, net.nodes[n].dims):
            ends.setdefault(label, []).append((slot[n], d))
    is_open = set(net._open)
    held = [{} for _ in ids]  # slot -> {label: dim}
    pairs = set()
    for label, legs in ends.items():
        slots = [s for s, _ in legs]
        if label not in is_open and len(set(slots)) == 1 and len(slots) > 1:
            continue  # a trace, or a closed hyperindex summed in its slot
        for s, d in legs:
            held[s][label] = d
        pairs.update(zip(slots, slots[1:]))
    into = list(range(len(ids)))  # the slot each slot has merged into

    def find(s):
        while into[s] != s:
            s = into[s]
        return s

    def holders(label):  # a slot merged away holds nothing
        return (label in is_open) + sum(label in h for h in held)

    size = [math.prod(h.values()) for h in held]
    merges = []
    while True:
        live = sorted({(min(find(a), find(b)), max(find(a), find(b)))
                       for a, b in pairs if find(a) != find(b)})
        if not live:
            break
        best = None
        for a, b in live:
            shared = batch = 1
            for label, d in held[a].items():
                if label in held[b]:
                    if holders(label) > 2:
                        batch *= d
                    else:
                        shared *= d
            rows = size[a] // (shared * batch)
            cols = size[b] // (shared * batch)
            key = (batch * rows * cols, a, b)
            if best is None or key < best[0]:
                best = key, (a, b, rows, shared, cols, batch)
        a, b, rows, shared, cols, batch = step = best[1]
        merges.append(step)
        kept = {label: d for label, d in {**held[a], **held[b]}.items()
                if label not in held[a] or label not in held[b]
                or holders(label) > 2}
        held[a], held[b], into[b] = kept, {}, a
        size[a] = batch * rows * cols
    for s in range(1, len(ids)):
        if find(s) == s:
            merges.append((0, s, size[0], 1, size[s], 1))
            size[0] *= size[s]
    return merges


def test_hyperindex_plans_pinned_to_full_rescan_planner():
    # the merge sequence (slot pair, rows, shared, cols, batch) of the
    # incremental planner is the full rescan's
    for name, net in _hyper_pin_networks():
        assert net._hyper, name
        ids, _, merges, _ = _plan(net)
        assert list(ids) == sorted(net.nodes, key=_ref_key), name
        got = [(a, b, rows, shared, cols, batch)
               for a, _, b, _, rows, shared, cols, _, batch in merges]
        assert got == _reference_hyper_merges(net), name


_FLIP = {tz.UP: tz.DOWN, tz.DOWN: tz.UP}


@st.composite
def _small_networks(draw, exact=False):
    """Network of at most 6 nodes with its einsum oracle string.

    A random spanning tree, each of whose edges is dropped with
    probability 1/4 (so the network may be a forest, whose parts the plan
    joins with no-leg merges), plus up to three extra bonds (parallel
    bonds and self-bonds included), up to three open legs, dims 1-3, random
    orientations and a random leg order on every node.  With ``exact``
    the entries are integers below ``2^bits`` in exact tensors, with
    ``bits`` drawn from 4, 20, 40 and 60, and the oracle's operands are
    the same integers as Python ints; ``bits`` is None otherwise.
    """
    n = draw(st.integers(1, 6))
    tree = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    pairs = [p for p in tree if draw(st.integers(0, 3))]
    node = st.integers(0, n - 1)
    pairs += draw(st.lists(st.tuples(node, node), max_size=3))
    orient = st.sampled_from((tz.UP, tz.DOWN))
    legs = {k: [] for k in range(n)}  # node -> [(dim, orient, label)]
    for label, (a, b) in enumerate(pairs):
        d, o = draw(st.integers(1, 3)), draw(orient)
        legs[a].append((d, o, label))
        legs[b].append((d, _FLIP[o], label))
    n_open = draw(st.integers(0, 3))
    for label in range(len(pairs), len(pairs) + n_open):
        legs[draw(node)].append((draw(st.integers(1, 3)), draw(orient), label))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = draw(st.sampled_from((4, 20, 40, 60))) if exact else None
    nodes, operands, subscripts = [], [], []
    for k in range(n):
        own = draw(st.permutations(legs[k]))
        shape = [d for d, _, _ in own]
        orients = [o for _, o, _ in own]
        if exact:
            ints = r.integers(-2**bits, 2**bits, size=shape)
            t = tz.Tensor._exact(ints, orients)
            operands.append(ints.astype(object))
        else:
            t = tz.Tensor(r.normal(size=shape) + 1j * r.normal(size=shape),
                          orients)
            operands.append(t.data)
        subscripts.append("".join(chr(97 + label) for _, _, label in own))
        nodes.append((k, t, subscripts[-1]))
    out = draw(st.permutations(range(len(pairs), len(pairs) + n_open)))
    out = "".join(chr(97 + label) for label in out)
    spec = ",".join(subscripts) + "->" + out
    return Network(nodes, out), spec, operands, bits


@settings(max_examples=60, deadline=None)
@given(_small_networks())
def test_random_networks_match_einsum(case):
    # the einsum subscripts themselves are the leg labels: each bond joins
    # two legs of one subscript letter, the open legs follow the output
    net, spec, operands, _ = case
    inputs, want = spec.split("->")
    letter = [dict(enumerate(sub)) for sub in inputs.split(",")]
    bonds, open_legs = _ends(net)
    for (na, la), (nb, lb) in bonds:
        assert letter[na][la] == letter[nb][lb]
    assert "".join(letter[n][leg] for n, leg in open_legs) == want
    out = contract_network(net)
    np.testing.assert_allclose(out.data, np.einsum(spec, *operands),
                               rtol=1e-10, atol=1e-10)
    assert out.orients == tuple(net.nodes[n].orients[leg]
                                for n, leg in open_legs)


@settings(max_examples=60, deadline=None)
@given(_small_networks())
def test_labelled_networks_match_einsum(case):
    # any hashables serve as labels: the letters renamed to tuples and
    # ints wire the same legs, in the same order, to the same result
    net, spec, operands, _ = case
    inputs, out = spec.split("->")
    rename = {c: (c, ord(c)) if ord(c) % 2 else ord(c) for c in spec}
    relabelled = Network([(k, net.nodes[k], [rename[c] for c in sub])
                          for k, sub in zip(net.nodes, inputs.split(","))],
                         [rename[c] for c in out])
    assert _ends(relabelled) == _ends(net)
    np.testing.assert_allclose(contract_network(relabelled).data,
                               np.einsum(spec, *operands),
                               rtol=1e-10, atol=1e-10)


@st.composite
def _hyper_networks(draw, exact=False):
    """Network of at most 5 nodes whose labels may be hyperindices, with
    its einsum oracle string.

    Each label has a dim of 1-3 and 1-5 legs on random nodes, several
    on one node included; a closed label has at least two, and exactly
    two make a bond, of opposite orientations.  The network has at most
    10 legs, so no node exceeds 3^10 entries.  Every other leg gets a
    random orientation, and every node a random leg order.  With
    ``exact`` the entries are integers below ``2^bits`` in exact tensors,
    ``bits`` drawn from 4 and 60, and the oracle's operands are the same
    integers as Python ints.
    """
    n = draw(st.integers(1, 5))
    legs = {k: [] for k in range(n)}  # node -> [(dim, orient, label)]
    node, orient = st.integers(0, n - 1), st.sampled_from((tz.UP, tz.DOWN))
    out, budget = [], 10
    for label in range(draw(st.integers(1, 6))):
        d = draw(st.integers(1, 3))
        is_open = draw(st.booleans())
        if budget < 2 - is_open:
            break
        if is_open:
            out.append(label)
        k = draw(st.integers(2 - is_open, min(5, budget)))
        budget -= k
        ori = [draw(orient) for _ in range(k)]
        if k == 2 and label not in out:
            ori[1] = _FLIP[ori[0]]
        for o in ori:
            legs[draw(node)].append((d, o, label))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = draw(st.sampled_from((4, 60))) if exact else None
    nodes, operands, subscripts = [], [], []
    for k in range(n):
        own = draw(st.permutations(legs[k]))
        shape = [d for d, _, _ in own]
        orients = [o for _, o, _ in own]
        if exact:
            ints = r.integers(-2**bits, 2**bits, size=shape)
            t = tz.Tensor._exact(ints, orients)
            operands.append(ints.astype(object))
        else:
            t = tz.Tensor(r.normal(size=shape) + 1j * r.normal(size=shape),
                          orients)
            operands.append(t.data)
        subscripts.append("".join(chr(97 + label) for _, _, label in own))
        nodes.append((k, t, subscripts[-1]))
    out = "".join(chr(97 + label) for label in draw(st.permutations(out)))
    return Network(nodes, out), ",".join(subscripts) + "->" + out, operands


@pytest.mark.parametrize("exact", [False, True])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_hyperindex_networks_match_einsum(exact, data):
    # each executed step has the planned shape; the result has the
    # einsum's entries, and each open leg the orientation of the first
    # leg of its label, in node and leg order
    net, spec, operands = data.draw(_hyper_networks(exact=exact))
    _, _, merges, _ = _plan(net)
    shapes, real = [], tz._dot

    def spy(*args):
        out = real(*args)
        shapes.append(out[0].shape)
        return out

    with mock.patch.object(tz, "_dot", spy):
        out = contract_network(net)
    assert shapes == [m[7] for m in merges]
    want = np.einsum(spec, *operands)
    if exact:
        assert out.exact
        assert out.data.tolist() == np.asarray(want, dtype=object).tolist()
    else:
        np.testing.assert_allclose(out.data, want, rtol=1e-10, atol=1e-10)
    first = {}
    for n, t in net.nodes.items():
        for label, o in zip(net._labels[n], t.orients):
            first.setdefault(label, o)
    assert out.orients == tuple(first[c] for c in spec.split("->")[1])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_random_hyperindex_plans_match_full_rescan(data):
    net, _, _ = data.draw(_hyper_networks())
    got = [(a, b, rows, shared, cols, batch)
           for a, _, b, _, rows, shared, cols, _, batch in _plan(net)[2]]
    assert got == _reference_hyper_merges(net)


def test_hyperindex_merges_keep_a_batch_axis_and_sum_at_the_last_pair():
    # label h on four vectors: three merges, the first two keep h as a
    # batch axis (extent 3, leading the result), the last sums it
    vs = [rand_c(3) for _ in range(4)]
    net = Network([(k, tz.state(v), "h") for k, v in enumerate(vs)])
    _, _, merges, _ = _plan(net)
    assert [m[8] for m in merges] == [3, 3, 1]
    assert [m[5] for m in merges] == [1, 1, 3]
    np.testing.assert_allclose(complex(contract_network(net).data),
                               np.sum(vs[0] * vs[1] * vs[2] * vs[3]))
    # open, h is never summed: the product of the four, entry by entry
    net = Network([(k, tz.state(v), "h") for k, v in enumerate(vs)], "h")
    assert [m[8] for m in _plan(net)[2]] == [3] * 3
    np.testing.assert_allclose(contract_network(net).data,
                               vs[0] * vs[1] * vs[2] * vs[3])


@pytest.mark.parametrize("labels, open_labels, match", [
    (["ab", "a", "a"], "bc", "^open label 'c' is on 0 leg"),
    (["ab", "a"], "", "^label 'b' is on 1 leg"),
    (["ab", "b"], "b", "^label 'a' is on 1 leg"),
    (["ab", "ab"], "c", "^open label 'c' is on 0 leg"),
])
def test_wired_rejects_bad_label_counts(labels, open_labels, match):
    # the counts are checked before orientations, so all-UP legs fail
    # on the count alone; a closed label on three legs or an open one on
    # two is a hyperindex, whose legs may have any orientation
    nodes = [(k, tz.Tensor(np.ones((2,) * len(lb)), tz.UP * len(lb)), lb)
             for k, lb in enumerate(labels)]
    with pytest.raises(ShapeError, match=match):
        Network(nodes, open_labels)


@settings(max_examples=60, deadline=None)
@given(_small_networks(exact=True))
def test_random_exact_networks_match_object_einsum(case):
    # the kernel path chosen by bound, then each path forced: Python ints
    # throughout, and float64 throughout where the entries are small
    # enough for it (below 2^4, so every partial sum stays under 2^37)
    net, spec, operands, bits = case
    want = np.asarray(np.einsum(spec, *operands), dtype=object)
    thresholds = [tz._FLOAT_EXACT, -1] + ([math.inf] if bits == 4 else [])
    for threshold in thresholds:
        with mock.patch.object(tz, "_FLOAT_EXACT", threshold):
            out = contract_network(net)
        assert out.exact
        assert out.dims == want.shape and out.data.tolist() == want.tolist()


@pytest.mark.parametrize("exact", [False, True])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_planned_entries_match_executed_steps(exact, data):
    # the cap check trusts the plan: under any cap, planning fails at the
    # first step whose executed result is larger, and names that size;
    # the no-leg merges that join disconnected parts included
    net, spec, operands, _ = data.draw(_small_networks(exact=exact))
    _, _, merges, _ = _plan(net)
    sizes, real = [], tz._dot

    def spy(*args):
        out = real(*args)
        sizes.append(out[0].size)
        return out

    with mock.patch.object(tz, "_dot", spy):
        out = contract_network(net)
    assert len(sizes) == len(merges)
    for cap in sorted(set(sizes)):
        first = next(n for n in sizes if n >= cap)
        with mock.patch.object(tz, "SIZE_CAP", cap - 1), \
                pytest.raises(SizeCapError, match=f" {first} entries exceeds"):
            _plan(net)
    with mock.patch.object(tz, "SIZE_CAP", max(sizes, default=0)):
        assert _plan(net)[2] == merges
    want = np.einsum(spec, *operands)
    if exact:
        assert out.data.tolist() == np.asarray(want, dtype=object).tolist()
    else:
        np.testing.assert_allclose(out.data, want, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("exact", [False, True])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_execution_matches_plan_replayed_through_contract(exact, data):
    # forests and self-bonds included; exact entries of 4-60 bits take
    # the float64 and the Python-int storage
    net, _, _, _ = data.draw(_small_networks(exact=exact))
    _assert_runs_its_plan(net)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_mixed_exact_and_complex_nodes_fail_before_any_kernel(data):
    net, spec, _, _ = data.draw(_small_networks(exact=True))
    assume(len(net.nodes) > 1)
    ids = sorted(net.nodes)
    flip = data.draw(st.sets(st.sampled_from(ids), min_size=1,
                             max_size=len(ids) - 1))
    inputs, out = spec.split("->")
    mixed = Network([(n, tz.Tensor(t.data.astype(float), t.orients)
                      if n in flip else t, labels) for (n, t), labels
                     in zip(net.nodes.items(), inputs.split(","))], out)
    with pytest.raises(ShapeError) as public:
        tz.contract(net.nodes[ids[0]], (), mixed.nodes[min(flip)], ())
    calls = []
    with mock.patch.object(tz, "_dot", lambda *a: calls.append("_dot")), \
            mock.patch.object(tz, "_reduce",
                              lambda *a: calls.append("_reduce")):
        with pytest.raises(ShapeError) as info:
            contract_network(mixed)
    assert str(info.value) == str(public.value)
    assert "cannot combine an exact integer tensor" in str(info.value)
    assert calls == []


def test_exact_chain_falls_back_to_python_ints_partway(monkeypatch):
    # entries near 2^20: the first merge is proven exact in float64, the
    # later ones are not even after a rescan, so they run on Python ints
    mats = [np.array([[2**20 + k, 3], [5 - k, 2**20 - 1]]) for k in range(5)]
    net = Network([(k, tz.Tensor._exact(m, "du"), [k, k + 1])
                   for k, m in enumerate(mats)], [0, 5])
    storages, real = [], tz._dot

    def spy(*args):
        out = real(*args)
        storages.append(out[0].dtype)
        return out

    monkeypatch.setattr(tz, "_dot", spy)
    out = contract_network(net)
    want = mats[0].astype(object)
    for m in mats[1:]:
        want = want.dot(m.astype(object))
    assert storages[0] == np.float64 and storages[-1] == object
    assert out.data.tolist() == want.tolist()
    assert max(abs(x) for x in want.flat) > 2**80


@np.errstate(over="ignore", invalid="ignore")
def test_overflow_in_an_intermediate_fails_loudly():
    # network steps run on tz._dot, which does not scan: the overflowed
    # intermediate itself passes (tz.contract scans its result)
    a = tz.operator([[1e200]])
    data, _ = tz._dot((a.data, None), [0, 1], (a.data, None), [0, 1],
                      1, 1, 1, (1, 1))
    assert np.isinf(data).all()
    chain = [(k, a, [k, k + 1]) for k in range(4)]
    with pytest.raises(NumericalError, match="overflow"):
        contract_network(Network(chain, [0, 4]))
    # closed with a zero effect: inf * 0 makes NaN, caught the same way
    ends = [("zero", tz.effect([0.0]), [0]), ("one", tz.state([1.0]), [4])]
    with pytest.raises(NumericalError, match="overflow"):
        contract_network(Network(chain + ends))


def test_overflowing_norm_squared_fails_loudly():
    # finite entries whose squared norm overflows: not a returned inf
    big = tz.Tensor(np.full((2, 2), 1e300), "dd")
    with np.errstate(all="ignore"), pytest.raises(NumericalError,
                                                  match="overflow"):
        norm_squared(Network([(0, big, "ab")], "ab"))


def test_empty_network_is_the_empty_product():
    out = contract_network(Network())
    assert out.order == 0 and complex(out.data) == 1
