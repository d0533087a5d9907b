"""Network builder and greedy contraction planner."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import tnq
from tnq import tensor as tz
from tnq.network import (Network, _plan, _wired, contract_network,
                         inner_product, norm_squared)
from tnq.errors import NumericalError, ShapeError, SizeCapError

rng = np.random.default_rng(11)


def rand_c(*shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_matrix_chain():
    a, b, c = rand_c(2, 3), rand_c(3, 4), rand_c(4, 5)
    net = Network()
    net.add_node("a", tz.operator(a))
    net.add_node("b", tz.operator(b))
    net.add_node("c", tz.operator(c))
    net.add_bond(("a", 1), ("b", 0))
    net.add_bond(("b", 1), ("c", 0))
    net.set_open_legs([("a", 0), ("c", 1)])
    net.finalize()
    out = contract_network(net)
    np.testing.assert_allclose(out.data, a @ b @ c, atol=1e-12)


def test_closed_network_trace():
    m = rand_c(5, 5)
    net = Network()
    net.add_node(0, tz.operator(m))
    net.add_bond((0, 0), (0, 1))
    net.finalize()
    out = contract_network(net)
    np.testing.assert_allclose(complex(out.data), np.trace(m))


def test_disconnected_components_tensor_product():
    v, w = rand_c(2), rand_c(3)
    net = Network()
    net.add_node("v", tz.state(v))
    net.add_node("w", tz.state(w))
    net.set_open_legs([("v", 0), ("w", 0)])
    net.finalize()
    out = contract_network(net)
    np.testing.assert_allclose(out.data, np.multiply.outer(v, w))


def test_open_leg_ordering_respected():
    t = tz.state(rand_c(2, 3))
    net = Network()
    net.add_node(0, t)
    net.set_open_legs([(0, 1), (0, 0)])
    net.finalize()
    out = contract_network(net)
    np.testing.assert_allclose(out.data, t.data.T)


def test_einsum_oracle_random_network():
    # three tensors, ring plus open legs, against a direct einsum
    a = tz.Tensor(rand_c(2, 3, 4), (tz.DOWN, tz.DOWN, tz.UP))
    b = tz.Tensor(rand_c(3, 4, 5), (tz.UP, tz.DOWN, tz.DOWN))
    c = tz.Tensor(rand_c(5, 2), (tz.UP, tz.UP))
    net = Network()
    net.add_node("a", a)
    net.add_node("b", b)
    net.add_node("c", c)
    net.add_bond(("a", 1), ("b", 0))
    net.add_bond(("b", 2), ("c", 0))
    net.set_open_legs([("a", 0), ("a", 2), ("b", 1), ("c", 1)])
    net.finalize()
    out = contract_network(net)
    oracle = np.einsum("ijk,jlm,mn->ikln", a.data, b.data, c.data)
    np.testing.assert_allclose(out.data, oracle, atol=1e-12)


def test_bond_orientation_mismatch_rejected():
    net = Network()
    net.add_node(0, tz.state(rand_c(2)))
    net.add_node(1, tz.state(rand_c(2)))
    net.add_bond((0, 0), (1, 0))
    with pytest.raises(ShapeError):
        net.finalize()


def test_bond_dimension_mismatch_rejected():
    net = Network()
    net.add_node(0, tz.state(rand_c(2)))
    net.add_node(1, tz.effect(rand_c(3)))
    net.add_bond((0, 0), (1, 0))
    with pytest.raises(ShapeError):
        net.finalize()


def test_leg_used_twice_rejected():
    net = Network()
    net.add_node(0, tz.state(rand_c(2, 2)))
    net.add_node(1, tz.effect(rand_c(2)))
    net.add_node(2, tz.effect(rand_c(2)))
    net.add_bond((0, 0), (1, 0))
    net.add_bond((0, 0), (2, 0))
    with pytest.raises(ShapeError):
        net.finalize()


def test_unlisted_open_leg_rejected():
    net = Network()
    net.add_node(0, tz.state(rand_c(2, 2)))
    net.set_open_legs([(0, 0)])
    with pytest.raises(ShapeError):
        net.finalize()


@pytest.mark.parametrize("bond, open_leg", [
    (((0,), (1, 0)), (0, 1)),
    (((0, 0), (1, 0, 0)), (0, 1)),
    (((0, "a"), (1, 0)), (0, 1)),
    (((0, 0.0), (1, 0)), (0, 1)),
    (((0, 0), (1, 0)), (0,)),
    (((0, 0), (1, 0)), (0, "a")),
    (((0, 0), (1, 0)), (0, 1.0)),
    (((0, 0), (1, 0)), (0, None)),
    ((0, (1, 0)), (0, 1)),
    ((([0], 0), (1, 0)), (0, 1)),
    (((0, 0), (1, 0)), 5),
    (((0, 0), (1, 0)), ([0], 0)),
])
def test_malformed_leg_rejected(bond, open_leg):
    net = Network()
    net.add_node(0, tz.state(rand_c(2, 2)))
    net.add_node(1, tz.effect(rand_c(2)))
    net.add_bond(*bond)
    net.set_open_legs([open_leg])
    with pytest.raises(ShapeError, match="not a \\(node, int leg\\) pair"):
        net.finalize()


def test_numpy_int_legs_accepted():
    net = Network()
    net.add_node(0, tz.state([1.0, 2.0]))
    net.add_node(1, tz.effect([3.0, 4.0]))
    net.add_node(2, tz.state([5.0]))
    net.add_bond((0, np.int64(0)), (1, np.int32(0)))
    net.set_open_legs([(2, np.uint8(0))])
    assert complex(contract_network(net.finalize()).data[0]) == 55


_LEGS = {0: tz.state(rand_c(2, 2)), 1: tz.effect(rand_c(2)),
         2: tz.effect(rand_c(3))}


@pytest.mark.parametrize("nodes, bonds, open_legs, message", [
    ((0, 1), [((0, 0), (9, 0))], [(0, 1)], "bond references unknown node 9"),
    ((0, 1), [((0, -1), (1, 0))], [(0, 1)], "bond references bad leg -1 of 0"),
    ((0, 1), [((0, 0), (1, 2))], [(0, 1)], "bond references bad leg 2 of 1"),
    ((0, 1, 2), [((0, 0), (1, 0)), ((0, 0), (2, 0))], [(0, 1)],
     "leg (0, 0) used twice"),
    ((0, 1), [((0, 0), (1, 0))], [(0, 0), (0, 1)],
     "leg (0, 0) is bonded and open"),
    ((0, 1), [((0, 0), (1, 0))], [(0, 1), (0, 1)],
     "leg (0, 1) is bonded and open"),
    ((0, 1), [((0, 0), (1, 0))], [(0, 2)], "open leg (0, 2) does not exist"),
    ((0, 1), [((0, 0), (1, 0))], [(0, 1), (7, 0)],
     "open leg (7, 0) does not exist"),
    ((0, 1, 2), [((0, 0), (1, 0))], [(0, 1)], "leg (2, 0) is dangling"),
    ((1, 0), [], [], "leg (1, 0) is dangling"),  # insertion order first
    ((0, 2), [((0, 0), (2, 0))], [(0, 1)],
     "bonded legs (0,0)-(2,0) differ in dim"),
    ((0,), [((0, 0), (0, 1))], [], "bonded legs (0,0)-(0,1) have equal "
     "orientation"),
])
def test_finalize_names_each_fault(nodes, bonds, open_legs, message):
    net = Network()
    for n in nodes:
        net.add_node(n, _LEGS[n])
    for a, b in bonds:
        net.add_bond(a, b)
    net.set_open_legs(open_legs)
    with pytest.raises(ShapeError) as info:
        net.finalize()
    assert str(info.value) == message


def test_size_cap(monkeypatch):
    # the plan's one over-cap step comes after a trace and a small merge
    # that would run first; the whole plan is checked before any of them
    monkeypatch.setattr(tz, "SIZE_CAP", 2**16)
    net = Network()
    big = [tz.state(rand_c(*([2] * 12))) for _ in range(2)]
    net.add_node(0, big[0])
    net.add_node(1, tz.conj(tz.bend_all(big[1])))
    net.add_node(2, tz.operator(rand_c(2, 2)))
    net.add_node(3, tz.state(rand_c(2)))
    net.add_node(4, tz.effect(rand_c(2)))
    net.add_bond((0, 0), (1, 0))
    net.add_bond((2, 0), (2, 1))
    net.add_bond((3, 0), (4, 0))
    open_legs = [(0, k) for k in range(1, 12)] + [(1, k) for k in range(1, 12)]
    net.set_open_legs(open_legs)
    net.finalize()
    calls = []
    for name in ("_dot", "trace_pairs"):
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
    net = Network()
    for part in (0, 2):
        net.add_node(part, tz.state(rand_c(*([2] * 9))))
        net.add_node(part + 1, tz.effect(rand_c(*([2] * 9))))
        net.add_bond((part, 0), (part + 1, 0))
    net.set_open_legs([(n, k) for n in range(4) for k in range(1, 9)])
    net.finalize()
    calls = []
    for name in ("_dot", "trace_pairs"):
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
    net = Network()
    for i, m in enumerate(mats):
        net.add_node(i, tz.operator(m))
    for i in range(5):
        net.add_bond((i, 1), (i + 1, 0))
    net.set_open_legs([(0, 0), (5, 1)])
    net.finalize()
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
        for a, b in net.bonds:
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
    perm = [offsets[where[leg][0]] + where[leg][1] for leg in net.open_legs]
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
    ends = {n: [] for n in range(n_nodes)}  # node -> [(dim, orient, tag)]
    bonds = []
    for k in range(n_bonds):
        a = int(r.integers(n_nodes))
        b = a if k % 5 == 0 else int(r.integers(n_nodes))
        if k % 4 == 1 and bonds:
            a, b = bonds[-1]  # parallel to the previous bond
        d = int(r.integers(1, 4))
        o = tz.UP if r.integers(2) else tz.DOWN
        ends[a].append((d, o, ("bond", k, 0)))
        ends[b].append((d, tz.UP if o == tz.DOWN else tz.DOWN, ("bond", k, 1)))
        bonds.append((a, b))
    for n in range(0, n_nodes, 3):
        ends[n].append((2, tz.DOWN, ("open", n)))
    net = Network()
    leg_of = {}
    for n, legs in ends.items():
        perm = r.permutation(len(legs))
        legs = [legs[p] for p in perm]
        shape = [d for d, _, _ in legs]
        net.add_node(f"n{n}", tz.Tensor(
            r.normal(size=shape) + 1j * r.normal(size=shape),
            [o for _, o, _ in legs]))
        for pos, (_, _, tag) in enumerate(legs):
            leg_of[tag] = (f"n{n}", pos)
    for k in range(n_bonds):
        net.add_bond(leg_of[("bond", k, 0)], leg_of[("bond", k, 1)])
    net.set_open_legs([leg_of[("open", n)] for n in range(0, n_nodes, 3)])
    return net.finalize()


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
    # variable 1 occurs in 10 clauses, so its COPY fan is a 3-leg chain
    clauses = [(1, k) for k in range(2, 12)] + [(-2, 3, -4), (5, -6, 7)]
    cnf = tnq.boolean.CnfFormula(11, tuple(clauses))
    yield "cnf", tnq.boolean.cnf_state_network(cnf)
    # a closed random 3-CNF: 3 distinct variables per clause, random signs
    r = np.random.default_rng(9)
    clauses = [tuple(int(v) * int(r.choice((-1, 1)))
                     for v in r.choice(np.arange(1, 10), 3, replace=False))
               for _ in range(18)]
    cnf = tnq.boolean.CnfFormula(9, tuple(clauses))
    yield "closed3cnf", tnq.boolean.cnf_state_network(cnf, closed=True)
    for seed in range(4):
        yield f"multigraph{seed}", _random_multigraph(seed)


def test_plan_is_the_same_on_every_call_and_on_the_conjugate(monkeypatch):
    for name, net in _pin_networks(monkeypatch):
        plan = _plan(net)
        assert _plan(net) == plan, name
        assert _plan(net.conjugate()) == plan, name


def _replay(net):
    """Run the steps of ``_plan(net)`` through the public kernels.

    Returns the result and the tensor of each merge step; a step's
    contracted legs are the last ``k`` axes of ``perm_a`` and the first
    ``k`` of ``perm_b``.
    """
    ids, traces, merges, perm = _plan(net)
    ts = [net.nodes[n] for n in ids]
    for s, pairs in traces:
        ts[s] = tz.trace_pairs(ts[s], pairs)
    steps = []
    for a, perm_a, b, perm_b, _, _, _, shape in merges:
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
    net, ends, operands, subscripts = Network(), {}, [], []
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
        net.add_node(k, t)
        for pos, (_, _, label) in enumerate(own):
            ends.setdefault(label, []).append((k, pos))
        subscripts.append("".join(chr(97 + label) for _, _, label in own))
    for label in range(len(pairs)):
        net.add_bond(*ends[label])
    out = draw(st.permutations(range(len(pairs), len(pairs) + n_open)))
    net.set_open_legs([ends[label][0] for label in out])
    spec = ",".join(subscripts) + "->" + "".join(chr(97 + lb) for lb in out)
    return net.finalize(), spec, operands, bits


@settings(max_examples=60, deadline=None)
@given(_small_networks())
def test_random_networks_match_einsum(case):
    net, spec, operands, _ = case
    out = contract_network(net)
    np.testing.assert_allclose(out.data, np.einsum(spec, *operands),
                               rtol=1e-10, atol=1e-10)
    assert out.orients == tuple(net.nodes[n].orients[leg]
                                for n, leg in net.open_legs)


@settings(max_examples=60, deadline=None)
@given(_small_networks())
def test_labelled_networks_match_einsum(case):
    # the einsum subscripts themselves, as leg labels, wire the same legs
    net, spec, operands, _ = case
    inputs, out = spec.split("->")
    wired = _wired(zip(net.nodes, net.nodes.values(), inputs.split(",")), out)
    assert sorted(map(sorted, wired.bonds)) == sorted(map(sorted, net.bonds))
    assert wired.open_legs == net.open_legs
    np.testing.assert_allclose(contract_network(wired).data,
                               np.einsum(spec, *operands),
                               rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("labels, open_labels, match", [
    (["ab", "a", "a"], "b", "^label 'a' is on 3 leg"),
    (["ab", "a"], "", "^label 'b' is on 1 leg"),
    (["ab", "ab"], "b", "^open label 'b' is on 2 leg"),
    (["ab", "ab"], "c", "^open label 'c' is on 0 leg"),
])
def test_wired_rejects_bad_label_counts(labels, open_labels, match):
    nodes = [(k, tz.Tensor(np.ones((2,) * len(lb)), tz.UP * len(lb)), lb)
             for k, lb in enumerate(labels)]
    with pytest.raises(ShapeError, match=match):
        _wired(nodes, open_labels)


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
    net, _, _, _ = data.draw(_small_networks(exact=True))
    assume(len(net.nodes) > 1)
    ids = sorted(net.nodes)
    flip = data.draw(st.sets(st.sampled_from(ids), min_size=1,
                             max_size=len(ids) - 1))
    mixed = Network()
    for n, t in net.nodes.items():
        mixed.add_node(n, tz.Tensor(t.data.astype(float), t.orients)
                       if n in flip else t)
    mixed.bonds, mixed.open_legs = list(net.bonds), list(net.open_legs)
    mixed.finalize()
    with pytest.raises(ShapeError) as public:
        tz.contract(net.nodes[ids[0]], (), mixed.nodes[min(flip)], ())
    calls = []
    with mock.patch.object(tz, "_dot", lambda *a: calls.append("_dot")), \
            mock.patch.object(tz, "trace_pairs",
                              lambda *a: calls.append("trace_pairs")):
        with pytest.raises(ShapeError) as info:
            contract_network(mixed)
    assert str(info.value) == str(public.value)
    assert "cannot combine an exact integer tensor" in str(info.value)
    assert calls == []


def test_exact_chain_falls_back_to_python_ints_partway(monkeypatch):
    # entries near 2^20: the first merge is proven exact in float64, the
    # later ones are not even after a rescan, so they run on Python ints
    mats = [np.array([[2**20 + k, 3], [5 - k, 2**20 - 1]]) for k in range(5)]
    net = Network()
    for k, m in enumerate(mats):
        net.add_node(k, tz.Tensor._exact(m, "du"))
    for k in range(4):
        net.add_bond((k, 1), (k + 1, 0))
    net.set_open_legs([(0, 0), (4, 1)])
    storages, real = [], tz._dot

    def spy(*args):
        out = real(*args)
        storages.append(out[0].dtype)
        return out

    monkeypatch.setattr(tz, "_dot", spy)
    out = contract_network(net.finalize())
    want = mats[0].astype(object)
    for m in mats[1:]:
        want = want.dot(m.astype(object))
    assert storages[0] == np.float64 and storages[-1] == object
    assert out.data.tolist() == want.tolist()
    assert max(abs(x) for x in want.flat) > 2**80


def _matrix_chain(entry, n=4):
    net = Network()
    for k in range(n):
        net.add_node(k, tz.operator([[entry]]))
    for k in range(n - 1):
        net.add_bond((k, 1), (k + 1, 0))
    return net


@np.errstate(over="ignore", invalid="ignore")
def test_overflow_in_an_intermediate_fails_loudly():
    # kernels do not scan: the overflowed intermediate itself passes
    a = tz.operator([[1e200]])
    assert np.isinf(tz.contract(a, [1], a, [0]).data).all()
    net = _matrix_chain(1e200)
    net.set_open_legs([(0, 0), (3, 1)])
    with pytest.raises(NumericalError, match="overflow"):
        contract_network(net.finalize())
    # closed with a zero effect: inf * 0 makes NaN, caught the same way
    net = _matrix_chain(1e200)
    net.add_node("zero", tz.effect([0.0]))
    net.add_node("one", tz.state([1.0]))
    net.add_bond((3, 1), ("one", 0))
    net.add_bond(("zero", 0), (0, 0))
    with pytest.raises(NumericalError, match="overflow"):
        contract_network(net.finalize())


def test_empty_network_is_the_empty_product():
    out = contract_network(Network().finalize())
    assert out.order == 0 and complex(out.data) == 1


def test_zero_dim_bond_plans_its_free_dims(monkeypatch):
    # a bond of dim 0 leaves a result of zeros with the free legs' shape,
    # and the cap sees its 12 entries
    net = Network()
    net.add_node(0, tz.Tensor(np.zeros((0, 3)), "du"))
    net.add_node(1, tz.Tensor(np.zeros((0, 4)), "ud"))
    net.add_bond((0, 0), (1, 0))
    net.set_open_legs([(1, 1), (0, 1)])
    net.finalize()
    _, traces, merges, perm = _plan(net)
    assert traces == []
    assert [step[4:] for step in merges] == [(3, 0, 4, (3, 4))]
    assert perm == [1, 0]
    monkeypatch.setattr(tz, "SIZE_CAP", 11)
    with pytest.raises(SizeCapError, match=" 12 entries exceeds cap"):
        _plan(net)
    monkeypatch.setattr(tz, "SIZE_CAP", 12)
    out = contract_network(net)
    assert out.dims == (4, 3) and not out.data.any()


def test_zero_dim_free_legs_give_an_empty_result():
    # both operands of the step are empty: rows = cols = 0, shared = 2
    net = Network()
    net.add_node(0, tz.Tensor(np.zeros((0, 2)), "du"))
    net.add_node(1, tz.Tensor(np.zeros((2, 0)), "du"))
    net.add_bond((0, 1), (1, 0))
    net.set_open_legs([(1, 1), (0, 0)])
    net.finalize()
    assert [step[4:] for step in _plan(net)[2]] == [(0, 2, 0, (0, 0))]
    out = _assert_runs_its_plan(net)
    assert out.dims == (0, 0) and out.orients == ("u", "d")
