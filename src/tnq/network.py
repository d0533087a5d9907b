"""Tensor-network multigraph with a deterministic greedy contraction planner.

A :class:`Network` holds named tensors (nodes), bonds pairing two legs of
equal dimension and opposite orientation, and an ordered list of open
legs.  Every leg of every node must appear in exactly one bond or exactly
once among the open legs.  Parallel bonds between the same pair of nodes
and bonds joining two legs of a single node (traces) are both allowed.
The networks tnq builds are declared by leg labels, as ``np.einsum``
names axes, through :func:`_wired`: a label on two legs is a bond.

``finalize`` checks every leg and resolves it to an int code in one
pass: it ranks the nodes by key (type name, ``str`` of the id; a stable
sort, so equal keys keep insertion order) into integer slots, gives the
ends of bond i the codes 2i and 2i + 1 and the open legs the codes after.

Contraction runs in two parts.  The plan reads dims only: it follows
copies of those codes as plain ints and lists, so a network plans the
same every time, and a bond code is bonded across two slots when its
mate, ``code ^ 1``, is on the other one.  It traces every self-bond
first, then repeatedly merges the bonded slot pair whose result has the
fewest entries, breaking ties by the smaller pair of slots; the smaller
slot keeps the result, its free legs first.  Candidate pairs sit in a
heap of int tuples; a merge bumps the kept slot's version, which makes
its old entries stale, and pushes fresh entries only for the kept slot's
pairs, so a merge costs time in proportion to the degree of the merged
slots, not to the size of the network; the loop ends when no bonded pair
is left.  Other parts of a disconnected network then fold into slot 0 as
merges over no legs.  The plan checks each merge's result against
``SIZE_CAP`` and emits it as ``tz._dot``'s arguments.  Execution refuses
mixed exact and complex nodes, runs the steps on bare arrays and wraps
one Tensor at the end.
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
        """Check every leg, resolve it to its plan code, and freeze.

        ``_legs`` is all :func:`_plan` reads: ``(ids, shapes, codes, owner,
        axis, dim, n_bond)``, where ``codes[s][leg]`` is the code on a leg
        of slot ``s`` and ``n_bond`` counts the bond-end codes.  It holds
        the nodes' shapes as they are now, so the nodes must not change
        after ``finalize``.  Of several faults, the first faulty leg in code
        order is named, else the first bad bond, else the first dangling leg.
        """
        self._mutable()
        nodes = self.nodes
        # stable: ties of (type name, str) keep insertion order
        ids = sorted(nodes, key=lambda n: (type(n).__name__, str(n)))
        slot = {n: s for s, n in enumerate(ids)}
        shapes = [nodes[n].data.shape for n in ids]
        orients = [nodes[n].orients for n in ids]
        codes = [[-1] * len(shape) for shape in shapes]
        n_bond = 2 * len(self.bonds)
        legs = [end for a, b in self.bonds for end in (a, b)] + list(
            self.open_legs)
        owner, axis, dim, turn = [], [], [], []
        for code, end in enumerate(legs):
            try:
                n, leg = end
                s = slot.get(n, -1)
            except (TypeError, ValueError):  # not a pair, or unhashable
                leg = None
            if not isinstance(leg, (int, np.integer)):
                raise ShapeError(f"leg {end!r} is not a (node, int leg) pair")
            if s < 0 or not (0 <= leg < len(codes[s])):
                raise ShapeError(
                    f"open leg ({n!r}, {leg}) does not exist" if code >= n_bond
                    else f"bond references unknown node {n!r}" if s < 0
                    else f"bond references bad leg {leg} of {n!r}")
            if codes[s][leg] >= 0:
                raise ShapeError(f"leg ({n!r}, {leg}) " + (
                    "used twice" if code < n_bond else "is bonded and open"))
            codes[s][leg] = code
            if type(end) is not tuple:
                legs[code] = n, leg
            owner.append(s)
            axis.append(leg)
            dim.append(shapes[s][leg])
            turn.append(orients[s][leg])
        # each bond joins legs of equal dim and opposite orientation
        for i in range(0, n_bond, 2):
            if dim[i] != dim[i + 1] or turn[i] == turn[i + 1]:
                (na, la), (nb, lb) = legs[i:i + 2]
                fault = ("differ in dim" if dim[i] != dim[i + 1]
                         else "have equal orientation")
                raise ShapeError(
                    f"bonded legs ({na!r},{la})-({nb!r},{lb}) {fault}")
        if len(owner) != sum(map(len, codes)):
            n, leg = next((n, leg) for n in nodes
                          for leg, c in enumerate(codes[slot[n]]) if c < 0)
            raise ShapeError(f"leg ({n!r}, {leg}) is dangling")
        self.bonds = list(zip(legs[:n_bond:2], legs[1:n_bond:2]))
        self.open_legs = legs[n_bond:]
        self._legs = ids, shapes, codes, owner, axis, dim, n_bond
        self._finalized = True
        return self

    def conjugate(self):
        """New network with every tensor conjugated and all legs bent."""
        out = Network()
        out.nodes = {n: tz.dagger(t) for n, t in self.nodes.items()}
        out.bonds, out.open_legs = list(self.bonds), list(self.open_legs)
        return out.finalize() if self._finalized else out


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
    ids, dims, labels, owner, axis, dim, n_bond = net._legs
    # copies, which the plan moves between slots: labels[s] lists the codes
    # on slot s's axes, and owner/axis say where each code sits now
    labels, owner, axis = [row[:] for row in labels], owner[:], axis[:]
    dims, size = dims[:], list(map(math.prod, dims))
    # adj[a][b] is one list shared by both directions: the product of the
    # dims of the bonds joining slots a and b, and those bonds, ascending
    adj, traces = [{} for _ in ids], {}
    for i in range(n_bond // 2):
        a, b = owner[2 * i], owner[2 * i + 1]
        if a == b:
            traces.setdefault(a, []).append(i)
        elif b in adj[a]:
            adj[a][b][0] *= dim[2 * i]
            adj[a][b][1].append(i)
        else:
            adj[a][b] = adj[b][a] = [dim[2 * i], [i]]
    # self-bonds first: they only shrink tensors, and merging a with b
    # contracts every a-b bond, so no merge creates a new one
    trace_steps = []
    for s, bonds in traces.items():
        trace_steps.append((s, [(axis[2 * i], axis[2 * i + 1])
                                for i in bonds]))
        labels[s] = [c for c in labels[s] if c // 2 not in bonds]
        dims[s] = tuple([dim[c] for c in labels[s]])
        size[s] = math.prod(dims[s])
        for ax, c in enumerate(labels[s]):
            axis[c] = ax

    def free(a, b, bonds):  # entries of a bond of dim 0: the free dims
        return math.prod([dim[c] for c in labels[a] + labels[b]
                          if c // 2 not in bonds])

    def merge(a, b, shared, bonds):
        ends = [2 * i + (owner[2 * i] != a) for i in bonds]  # those on a
        legs_a, legs_b = [axis[c] for c in ends], [axis[c ^ 1] for c in ends]
        # a keeps the result: its free legs first, then those of b; a bond
        # code is on a bond joining a and b if its mate c ^ 1 is on the other
        codes = [c for c in labels[a] if c >= n_bond or owner[c ^ 1] != b]
        k = len(codes)
        codes += [c for c in labels[b] if c >= n_bond or owner[c ^ 1] != a]
        old = [axis[c] for c in codes]
        for ax, c in enumerate(codes):
            owner[c], axis[c] = a, ax
        dims_a, labels[a] = dims[a], codes
        dims[a] = shape = tuple([dim[c] for c in codes])
        rows, cols = math.prod(shape[:k]), math.prod(shape[k:])
        size[a] = rows * cols
        if size[a] > tz.SIZE_CAP:
            raise SizeCapError(
                f"planned intermediate with {size[a]} entries exceeds cap "
                f"(joining {ids[a]!r} {dims_a} with {ids[b]!r} {dims[b]})",
                shape=dims_a + dims[b])
        merges.append((a, old[:k] + legs_a, b, legs_b + old[k:],
                       rows, shared, cols, shape))

    # version -1 marks a slot merged away; a merge bumps the kept slot's
    # version, so older heap entries for either slot are stale
    ver = [0] * len(ids)
    heap = [(size[a] // shared * (size[b] // shared) if shared
             else free(a, b, bonds), a, b, 0, 0)
            for a in range(len(ids)) for b, (shared, bonds) in adj[a].items()
            if a < b]
    heapq.heapify(heap)
    # bonded slot pairs left: after the last, every heap entry is stale
    merges, pairs, pop, push = [], len(heap), heapq.heappop, heapq.heappush
    while pairs:
        _, a, b, va, vb = pop(heap)
        if ver[a] != va or ver[b] != vb:
            continue
        merge(a, b, *adj[a].pop(b))
        va, pairs = va + 1, pairs - 1
        ver[a], ver[b] = va, -1
        for c, moved in adj[b].items():
            if c != a:
                del adj[c][b]
                kept = adj[a].get(c)
                if kept is None:
                    adj[a][c] = adj[c][a] = moved
                else:
                    pairs -= 1
                    kept[0] *= moved[0]
                    kept[1] += moved[1]
                    kept[1].sort()
        # the heap key only orders merges: merge() caps the merged dims
        sa = size[a]
        for c, (shared, bonds) in adj[a].items():
            e = sa // shared * (size[c] // shared) if shared else free(
                a, c, bonds)
            push(heap, (e, a, c, va, ver[c]) if a < c else
                 (e, c, a, ver[c], va))
    # a merge keeps its smaller slot, so slot 0 survives: fold the rest in
    for s in range(1, len(ids)):
        if ver[s] >= 0:
            merge(0, s, 1, [])
    return ids, trace_steps, merges, axis[n_bond:]


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
