"""Tensor-network multigraph with a deterministic greedy contraction planner.

A :class:`Network` holds named tensors (nodes), bonds pairing two legs of
equal dimension and opposite orientation, and an ordered list of open
legs.  Every leg of every node must appear in exactly one bond or exactly
once among the open legs.  Parallel bonds between the same pair of nodes
and bonds joining two legs of a single node (traces) are both allowed.

The planner first traces every self-bond, then repeatedly contracts the
bonded node pair whose result has the fewest entries, breaking ties by the
lexicographically smallest pair of node keys (type name, ``str`` of the
id); the node with the smaller key keeps the result.  Evaluation is fully
deterministic.  The planner keeps an adjacency map from each node to its
neighbours and the bonds joining them (in ``bonds`` order) and a heap of
candidate pairs; a merge bumps the kept node's version, which makes its
old heap entries stale, and pushes fresh entries only for the kept node's
pairs.  A merge therefore costs time in proportion to the degree of the
merged nodes, not to the size of the network.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from . import tensor as tz
from .errors import NumericalError, ShapeError, SizeCapError
from .tensor import Tensor


class Network:
    """Builder for a tensor network; finalize before contracting."""

    def __init__(self):
        self.nodes = {}
        self.bonds = []
        self.open_legs = []
        self._finalized = False

    def _mutable(self):
        if self._finalized:
            raise ShapeError("network already finalized")

    def add_node(self, node_id, t):
        self._mutable()
        if node_id in self.nodes:
            raise ShapeError(f"duplicate node id {node_id!r}")
        if not isinstance(t, Tensor):
            raise ShapeError("node value must be a Tensor")
        self.nodes[node_id] = t
        return node_id

    def add_bond(self, end_a, end_b):
        """Bond two (node, leg) endpoints."""
        self._mutable()
        self.bonds.append((tuple(end_a), tuple(end_b)))

    def set_open_legs(self, legs):
        self._mutable()
        self.open_legs = [tuple(leg) for leg in legs]

    def finalize(self):
        """Validate invariants and freeze the network."""
        self._mutable()
        seen = {}
        for (na, la), (nb, lb) in self.bonds:
            for n, leg in ((na, la), (nb, lb)):
                if n not in self.nodes:
                    raise ShapeError(f"bond references unknown node {n!r}")
                if not (0 <= leg < self.nodes[n].order):
                    raise ShapeError(f"bond references bad leg {leg} of {n!r}")
                if (n, leg) in seen:
                    raise ShapeError(f"leg ({n!r}, {leg}) used twice")
                seen[(n, leg)] = "bond"
            ta, tb = self.nodes[na], self.nodes[nb]
            if ta.dims[la] != tb.dims[lb]:
                raise ShapeError(
                    f"bonded legs ({na!r},{la})-({nb!r},{lb}) differ in dim"
                )
            if ta.orients[la] == tb.orients[lb]:
                raise ShapeError(
                    f"bonded legs ({na!r},{la})-({nb!r},{lb}) have equal orientation"
                )
        for n, leg in self.open_legs:
            if n not in self.nodes or not (0 <= leg < self.nodes[n].order):
                raise ShapeError(f"open leg ({n!r}, {leg}) does not exist")
            if (n, leg) in seen:
                raise ShapeError(f"leg ({n!r}, {leg}) is bonded and open")
            seen[(n, leg)] = "open"
        for n, t in self.nodes.items():
            for leg in range(t.order):
                if (n, leg) not in seen:
                    raise ShapeError(f"leg ({n!r}, {leg}) is dangling")
        self._finalized = True
        return self

    def conjugate(self):
        """New network with every tensor conjugated and all legs bent."""
        out = Network()
        for n, t in self.nodes.items():
            out.add_node(n, tz.dagger(t))
        out.bonds = list(self.bonds)
        out.open_legs = list(self.open_legs)
        if self._finalized:
            out.finalize()
        return out


def _node_key(node_id):
    return (str(type(node_id).__name__), str(node_id))


def contract_network(net):
    """Contract a finalized network to a single tensor.

    The result's legs follow the declared open-leg order verbatim.  A
    network without nodes contracts to the scalar 1 (the empty product).
    The result is exact if the nodes are; a complex result with an inf
    or NaN entry raises :class:`NumericalError`.
    """
    if not net._finalized:
        raise ShapeError("finalize() the network before contracting")
    tensors = dict(net.nodes)
    if not tensors:
        return tz.scalar(1)
    key = {n: _node_key(n) for n in tensors}
    version = dict.fromkeys(tensors, 0)
    # legs[n][axis] is the original (node, leg) at that axis of tensors[n];
    # where inverts it for every leg still present
    legs, where = {}, {}

    def relabel(node, t, own):
        tensors[node], legs[node] = t, own
        for axis, orig in enumerate(own):
            where[orig] = (node, axis)

    for n, t in tensors.items():
        relabel(n, t, [(n, leg) for leg in range(t.order)])

    # adj[a][b] is one list shared by both directions: indices into
    # net.bonds of the bonds joining a and b, in net.bonds order
    adj = {n: {} for n in tensors}
    traces = {}
    for i, (end_a, end_b) in enumerate(net.bonds):
        na, nb = end_a[0], end_b[0]
        if na == nb:
            traces.setdefault(na, []).append((end_a, end_b))
        else:
            adj[na][nb] = adj[nb][na] = adj[na].get(nb, []) + [i]
    dim = [net.nodes[a[0]].dims[a[1]] for a, _ in net.bonds]

    # self-bonds first: they only shrink tensors, and merging a with b
    # contracts every a-b bond, so no merge creates a new one
    for n, pairs in traces.items():
        axis_pairs = [(where[a][1], where[b][1]) for a, b in pairs]
        gone = {axis for p in axis_pairs for axis in p}
        relabel(n, tz.trace_pairs(tensors[n], axis_pairs),
                [o for axis, o in enumerate(legs[n]) if axis not in gone])

    heap, seq = [], itertools.count()

    def push(a, b):
        if key[b] < key[a]:
            a, b = b, a
        shared = 1
        for i in adj[a][b]:
            shared *= dim[i]
        cost = (tensors[a].data.size // shared) * (tensors[b].data.size // shared)
        heapq.heappush(heap, (cost, key[a], key[b], next(seq), a, b,
                              version[a], version[b]))

    for a in adj:
        for b in adj[a]:
            push(a, b)  # each pair twice: whichever copy pops second is stale

    while heap:
        cost, _, _, _, na, nb, va, vb = heapq.heappop(heap)
        if version.get(na) != va or version.get(nb) != vb:
            continue  # superseded by a later push, or a node was merged away
        ta, tb = tensors[na], tensors[nb]
        if cost > tz.SIZE_CAP:
            raise SizeCapError(
                f"planned intermediate with {cost} entries exceeds cap "
                f"(joining {na!r} {ta.dims} with {nb!r} {tb.dims})",
                shape=ta.dims + tb.dims,
            )
        legs_a, legs_b = [], []
        for i in adj[na].pop(nb):
            wa, wb = (where[e] for e in net.bonds[i])
            if wa[0] == nb:
                wa, wb = wb, wa
            legs_a.append(wa[1])
            legs_b.append(wb[1])
        # the node with the smaller key keeps the result; its free legs
        # come first, then those of the dropped node
        relabel(na, tz.contract(ta, legs_a, tb, legs_b),
                [o for axis, o in enumerate(legs[na]) if axis not in legs_a]
                + [o for axis, o in enumerate(legs[nb]) if axis not in legs_b])
        del tensors[nb], legs[nb], version[nb]
        version[na] += 1
        for c, bonds in adj.pop(nb).items():
            if c != na:
                del adj[c][nb]
                adj[na][c] = adj[c][na] = sorted(adj[na].get(c, []) + bonds)
        for c in adj[na]:
            push(na, c)

    # tensor-product disconnected remainders in ascending id order
    order = sorted(tensors, key=key.__getitem__)
    result = tensors[order[0]]
    offsets = {order[0]: 0}
    for nid in order[1:]:
        offsets[nid] = result.order
        result = tz.tensor_product(result, tensors[nid])
    perm = [offsets[where[leg][0]] + where[leg][1] for leg in net.open_legs]
    if sorted(perm) != list(range(result.order)):
        raise ShapeError("open legs do not cover the contraction result")
    # intermediates skip the finiteness scan; an overflow anywhere ends
    # as inf or NaN here (exact kernels pick float64 only under a bound)
    if not result.exact and not np.isfinite(result.data).all():
        raise NumericalError("contraction overflowed: the result has "
                             "inf or NaN entries")
    return tz.permute_legs(result, perm)


def inner_product(a, b):
    """``<a|b>`` for networks with identical open-leg shapes (a conjugated)."""
    ta = contract_network(a)
    tb = contract_network(b)
    if ta.dims != tb.dims:
        raise ShapeError("open-leg shape mismatch in inner_product")
    return complex(np.vdot(ta.data, tb.data))


def norm_squared(net):
    """Squared two-norm of the state a network represents (real, >= 0)."""
    t = contract_network(net)
    return float(np.vdot(t.data, t.data).real)


def single_node_network(t):
    """Convenience: wrap one tensor with all legs open in declared order."""
    net = Network()
    net.add_node(0, t)
    net.set_open_legs([(0, i) for i in range(t.order)])
    return net.finalize()
