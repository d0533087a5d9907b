"""Tensor-network multigraph with a deterministic greedy contraction planner.

A :class:`Network` holds named tensors (nodes), bonds pairing two legs of
equal dimension and opposite orientation, and an ordered list of open
legs.  Every leg of every node must appear in exactly one bond or exactly
once among the open legs.  Parallel bonds between the same pair of nodes
and bonds joining two legs of a single node (traces) are both allowed.
The networks tnq builds are declared by leg labels, as ``np.einsum``
names axes, through :func:`_wired`: a label on two legs is a bond.

Contraction runs in two parts.  The plan reads dims only: it ranks the
nodes once by key (type name, ``str`` of the id; a stable sort, so equal
keys keep insertion order) into integer slots, and follows each slot's
dims and the original legs on its axes as plain ints and lists.  It
traces every self-bond first, then repeatedly merges the bonded slot pair
whose result has the fewest entries, breaking ties by the smaller pair of
slots; the smaller slot keeps the result, its free legs first.  Candidate
pairs sit in a heap of int tuples; a merge bumps the kept slot's version,
which makes its old entries stale, and pushes fresh entries only for the
kept slot's pairs, so a merge costs time in proportion to the degree of
the merged slots, not to the size of the network.  Other parts of a
disconnected network then fold into slot 0 as merges over no legs.  The
plan checks each merge's result against ``SIZE_CAP`` and emits it as
``tz._dot``'s arguments.  Execution refuses mixed exact and complex
nodes, runs the steps on bare arrays and wraps one Tensor at the end.
"""

from __future__ import annotations

import heapq
import math

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
        self.bonds.append((end_a, end_b))

    def set_open_legs(self, legs):
        self._mutable()
        self.open_legs = list(legs)

    def finalize(self):
        """Validate invariants and freeze the network."""
        self._mutable()
        nodes, seen = self.nodes, set()
        self.bonds = [(_end(a), _end(b)) for a, b in self.bonds]
        self.open_legs = [_end(leg) for leg in self.open_legs]
        for (na, la), (nb, lb) in self.bonds:
            for n, leg in ((na, la), (nb, lb)):
                if n not in nodes:
                    raise ShapeError(f"bond references unknown node {n!r}")
                if not (0 <= leg < nodes[n].order):
                    raise ShapeError(f"bond references bad leg {leg} of {n!r}")
                if (n, leg) in seen:
                    raise ShapeError(f"leg ({n!r}, {leg}) used twice")
                seen.add((n, leg))
            ta, tb = nodes[na], nodes[nb]
            if ta.dims[la] != tb.dims[lb]:
                raise ShapeError(
                    f"bonded legs ({na!r},{la})-({nb!r},{lb}) differ in dim"
                )
            if ta.orients[la] == tb.orients[lb]:
                raise ShapeError(
                    f"bonded legs ({na!r},{la})-({nb!r},{lb}) have equal orientation"
                )
        for n, leg in self.open_legs:
            if n not in nodes or not (0 <= leg < nodes[n].order):
                raise ShapeError(f"open leg ({n!r}, {leg}) does not exist")
            if (n, leg) in seen:
                raise ShapeError(f"leg ({n!r}, {leg}) is bonded and open")
            seen.add((n, leg))
        # seen holds distinct existing legs, so a count finds a dangling one
        if len(seen) != sum(t.order for t in nodes.values()):
            n, leg = next((n, leg) for n, t in nodes.items()
                          for leg in range(t.order) if (n, leg) not in seen)
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


def _end(end):
    """A bond end or open leg as a ``(node, leg)`` tuple, or ``ShapeError``."""
    try:
        n, leg = end
        hash(n)
    except (TypeError, ValueError):  # not a pair, or an unhashable node
        leg = None
    if not isinstance(leg, (int, np.integer)):
        raise ShapeError(f"leg {end!r} is not a (node, int leg) pair")
    return n, leg


def _node_key(node_id):
    return (str(type(node_id).__name__), str(node_id))


def _plan(net):
    """Greedy contraction plan of a finalized, non-empty network.

    Reads the nodes' dims only; a merge over ``SIZE_CAP`` raises
    :class:`SizeCapError`.  Returns ``(ids, traces, merges, perm)``:
    ``ids[s]`` is the node in slot ``s``; each trace step ``(s, pairs)``
    is a ``trace_pairs`` call on slot ``s``; each merge step ``(a,
    perm_a, b, perm_b, rows, shared, cols, shape)`` contracts slot ``b``
    into slot ``a`` (``a < b``): it is the ``tz._dot`` call on the slots'
    ``(data, bound)`` pairs.  The last merges fold the other parts of a
    disconnected network into slot 0, in ascending slot order, with no
    legs.  ``perm[k]`` is the axis of open leg ``k`` in slot 0's result.
    """
    ids = sorted(net.nodes, key=_node_key)  # stable: ties keep insertion order
    slot = {n: s for s, n in enumerate(ids)}
    # every original leg is a code: 2i and 2i + 1 are the ends of bond i,
    # then the open legs; labels[s] lists the codes on slot s's axes, and
    # owner/axis say where each code sits now
    ends = [e for bond in net.bonds for e in bond] + net.open_legs
    dim = [net.nodes[n].dims[leg] for n, leg in ends]
    owner, axis = [slot[n] for n, _ in ends], [leg for _, leg in ends]
    labels = [[0] * net.nodes[n].order for n in ids]
    for code, (s, ax) in enumerate(zip(owner, axis)):
        labels[s][ax] = code
    dims = [net.nodes[n].dims for n in ids]
    size = [net.nodes[n].data.size for n in ids]

    def relabel(s, codes):  # returns the codes' old axes
        labels[s], old = codes, []
        dims[s] = tuple([dim[c] for c in codes])
        size[s] = math.prod(dims[s])
        for ax, c in enumerate(codes):
            old.append(axis[c])
            owner[c], axis[c] = s, ax
        return old

    # adj[a][b] is one pair shared by both directions: the bonds joining
    # slots a and b, ascending, and the product of their dims
    adj, traces = [{} for _ in ids], {}
    for i in range(len(net.bonds)):
        a, b = owner[2 * i], owner[2 * i + 1]
        if a == b:
            traces.setdefault(a, []).append(i)
        else:
            bonds, shared = adj[a].get(b, ([], 1))
            adj[a][b] = adj[b][a] = (bonds + [i], shared * dim[2 * i])
    # self-bonds first: they only shrink tensors, and merging a with b
    # contracts every a-b bond, so no merge creates a new one
    trace_steps = []
    for s, bonds in traces.items():
        trace_steps.append((s, [(axis[2 * i], axis[2 * i + 1])
                                for i in bonds]))
        relabel(s, [c for c in labels[s] if c // 2 not in bonds])

    def entry(a, b):  # heap key only: merge() caps the merged dims
        bonds, shared = adj[a][b]
        if shared:
            entries = size[a] // shared * (size[b] // shared)
        else:  # a bond of dim 0: multiply the free dims
            entries = math.prod(dim[c] for c in labels[a] + labels[b]
                                if c // 2 not in bonds)
        return entries, a, b, ver[a], ver[b]

    def merge(a, b, bonds, shared):
        legs_a, legs_b = [], []
        for i in bonds:  # end 2i + (owner[2i] != a) of bond i is on slot a
            legs_a.append(axis[2 * i + (owner[2 * i] != a)])
            legs_b.append(axis[2 * i + (owner[2 * i] == a)])
        # a keeps the result: its free legs first, then those of b
        k, dims_a = len(labels[a]) - len(bonds), dims[a]
        free = relabel(a, [c for c in labels[a] + labels[b]
                           if c // 2 not in bonds])
        if size[a] > tz.SIZE_CAP:
            raise SizeCapError(
                f"planned intermediate with {size[a]} entries exceeds cap "
                f"(joining {ids[a]!r} {dims_a} with {ids[b]!r} {dims[b]})",
                shape=dims_a + dims[b],
            )
        merges.append((a, free[:k] + legs_a, b, legs_b + free[k:],
                       math.prod(dims[a][:k]), shared,
                       math.prod(dims[a][k:]), dims[a]))

    # version -1 marks a slot merged away; a merge bumps the kept slot's
    # version, so older heap entries for either slot are stale
    ver = [0] * len(ids)
    heap = [entry(a, b) for a in range(len(ids)) for b in adj[a] if a < b]
    heapq.heapify(heap)
    merges = []
    while heap:
        _, a, b, va, vb = heapq.heappop(heap)
        if ver[a] != va or ver[b] != vb:
            continue
        merge(a, b, *adj[a].pop(b))
        ver[a], ver[b] = ver[a] + 1, -1
        for c, moved in adj[b].items():
            if c != a:
                del adj[c][b]
                kept = adj[a].get(c)
                adj[a][c] = adj[c][a] = (moved if not kept else (
                    sorted(kept[0] + moved[0]), kept[1] * moved[1]))
        for c in adj[a]:
            heapq.heappush(heap, entry(a, c) if a < c else entry(c, a))
    # a merge keeps its smaller slot, so slot 0 survives: fold the rest in
    for s in range(1, len(ids)):
        if ver[s] >= 0:
            merge(0, s, [], 1)
    perm = [axis[c] for c in range(2 * len(net.bonds), len(ends))]
    return ids, trace_steps, merges, perm


def contract_network(net):
    """Contract a finalized network to a single tensor.

    The result's legs follow the declared open-leg order verbatim.  A
    network without nodes contracts to the scalar 1 (the empty product).
    The result is exact if the nodes are; a complex result with an inf
    or NaN entry raises :class:`NumericalError`.  A plan step over
    ``SIZE_CAP`` raises :class:`SizeCapError` before any step runs.
    """
    if not net._finalized:
        raise ShapeError("finalize() the network before contracting")
    if not net.nodes:
        return tz.scalar(1)
    ids, traces, merges, perm = _plan(net)
    ops = [(net.nodes[n].data, net.nodes[n].bound) for n in ids]
    tz._one_kind([b for _, b in ops])
    for s, pairs in traces:
        t = tz.trace_pairs(net.nodes[ids[s]], pairs)
        ops[s] = t.data, t.bound
    for a, perm_a, b, perm_b, *mat in merges:
        ops[a], ops[b] = tz._dot(ops[a], perm_a, ops[b], perm_b, *mat), None
    data, bound = ops[0]
    # intermediates skip the finiteness scan; an overflow anywhere ends
    # as inf or NaN here (exact kernels pick float64 only under a bound)
    if bound is None and not np.isfinite(data).all():
        raise NumericalError("contraction overflowed: the result has "
                             "inf or NaN entries")
    orients = tuple(net.nodes[n].orients[leg] for n, leg in net.open_legs)
    return Tensor._trusted(data.transpose(perm), orients, bound)


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


def _wired(nodes, open_labels=()):
    """Finalized network declared by leg labels.

    Each node is ``(id, tensor, labels)``; ``labels[k]`` names leg k, as
    an ``np.einsum`` index does.  A label on exactly two legs is a bond
    (a trace when both are legs of one node); bonds follow the first
    appearance of their labels.  Each of ``open_labels`` must be on
    exactly one leg, which becomes an open leg in that order.  Any other
    count raises :class:`ShapeError` naming the label.
    """
    net, ends, opened = Network(), {}, set(open_labels)
    for n, t, labels in nodes:
        net.add_node(n, t)
        for leg, label in enumerate(labels):
            ends.setdefault(label, []).append((n, leg))
    for label in open_labels:
        ends.setdefault(label, [])
    for label, legs in ends.items():
        if len(legs) == 2 and label not in opened:
            net.bonds.append(legs)  # finalize makes each a tuple
        elif len(legs) != 1 or label not in opened:
            kind = "open label" if label in opened else "label"
            raise ShapeError(f"{kind} {label!r} is on {len(legs)} leg(s)")
    net.open_legs = [ends[label][0] for label in open_labels]
    return net.finalize()


def single_node_network(t):
    """Convenience: wrap one tensor with all legs open in declared order."""
    return _wired([(0, t, range(t.order))], range(t.order))
