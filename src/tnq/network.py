"""Tensor-network multigraph with a deterministic greedy contraction planner.

A :class:`Network` is declared by leg labels, as ``np.einsum`` names
axes: each node is ``(id, tensor, labels)`` and ``labels[k]`` names leg
k.  A label on exactly two legs is a bond between legs of equal dimension
and opposite orientation; parallel bonds and bonds joining two legs of
one node (traces) are both allowed.  An open label on one leg is an open
leg.  A closed label on three or more legs, or an open one on two or
more, is a hyperindex: legs of equal dimension, in any orientation, that
share one index, as a COPY spider joins them (Kourtis et al.,
arXiv:1805.00475); an open one is one leg of the result, with the
orientation of its first leg.  Any other count, a closed label on one
leg or an open one on none, raises ``ShapeError`` naming the label.

Construction checks the labels once and resolves every leg to an int
code: the nodes are ranked by key (type name, ``str`` of the id; a stable
sort, so equal keys keep insertion order) into integer slots, bond i,
numbered by the first appearance of its label, gets the codes 2i and
2i + 1 on its ends, the open legs, in order, get the codes after, each
open hyperindex on its first leg, and the other hyperindex legs the
codes after those.

Contraction runs in two parts.  The plan reads dims only: it follows
copies of those codes as plain ints and lists, so a network plans the
same every time.  A bond code is bonded across two slots when its mate,
``code ^ 1``, is on the other one: so a merge finds the bonds it
contracts among the kept slot's codes, and a bonded slot pair keeps only
the product of its bond dims.  A hyperindex is one code on every slot
that holds it, and its consecutive holders are candidate pairs, k - 1
for k legs.  It traces every self-bond and takes the diagonal of each
hyperindex a slot holds on several legs first, then repeatedly merges
the candidate slot pair whose result has the fewest entries, breaking
ties by the smaller pair of slots; the smaller slot keeps the result,
its free legs first.  A merge keeps a hyperindex both slots hold as a
batch axis, counted once and leading the result, while a third slot or
the output holds it, and sums it in the merge of its last two holders.
Candidate pairs sit in a heap of int tuples; a merge bumps the kept
slot's version, which makes its old entries stale, and pushes fresh
entries only for the kept slot's pairs, so a merge costs time in
proportion to the degree of the merged slots; the loop ends when no
candidate pair is left.  Other parts of a disconnected network then
fold into slot 0 as merges over no legs.  The plan checks each merge's
result against ``SIZE_CAP`` and emits it as ``tz._dot``'s arguments.
Execution refuses mixed exact and complex nodes, runs the steps on bare
arrays and wraps one Tensor at the end.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from . import tensor as tz
from .errors import ShapeError, SizeCapError
from .tensor import Tensor


class Network:
    """Network of ``(id, tensor, labels)`` nodes and its open labels.

    Construction builds the leg table ``_legs`` (see :meth:`finalize`),
    the one per-leg record.  The nodes must not change after
    construction.
    """

    def __init__(self, nodes=(), open_labels=()):
        self.nodes, self._labels = {}, {}
        for n, t, labels in nodes:
            if n in self.nodes:
                raise ShapeError(f"duplicate node id {n!r}")
            if not isinstance(t, Tensor):
                raise ShapeError("node value must be a Tensor")
            labels = tuple(labels)
            if len(labels) != t.order:
                raise ShapeError(f"node {n!r} has {len(labels)} labels for "
                                 f"{t.order} legs")
            self.nodes[n], self._labels[n] = t, labels
        self._open = tuple(open_labels)
        self.finalize()

    def finalize(self):
        """Check the labels and resolve every leg to its plan code; the
        constructor runs it.

        ``_legs`` is the leg table: ``(ids, shapes, codes, owner, axis,
        dim, n_bond)``, where ``ids[s]`` is the node in slot ``s``,
        ``codes[s][leg]`` the code on a leg of it, ``owner[c]`` and
        ``axis[c]`` the slot and leg of code ``c`` and ``n_bond`` counts
        the bond-end codes.  ``_hyper`` lists the codes of each
        hyperindex's legs, its first leg first.  :func:`_plan` reads
        both.
        """
        nodes, opened, is_open = self.nodes, self._open, set(self._open)
        ends = {}
        for n, labels in self._labels.items():
            for leg, label in enumerate(labels):
                ends.setdefault(label, []).append((n, leg))
        if len(is_open) < len(opened):
            label = next(lb for k, lb in enumerate(opened) if lb in opened[:k])
            raise ShapeError(f"open label {label!r} is listed twice")
        for label in opened:
            ends.setdefault(label, [])
        legs, hyper = [], []
        for label, pair in ends.items():
            if len(pair) == 2 and label not in is_open:
                legs += pair
            elif len(pair) != 1 or label not in is_open:
                if len(pair) < 3 - (label in is_open):
                    kind = "open label" if label in is_open else "label"
                    raise ShapeError(f"{kind} {label!r} is on {len(pair)} "
                                     f"leg(s)")
                hyper.append(label)
        n_bond = len(legs)
        legs += [ends[label][0] for label in opened]
        # a hyperindex's legs follow the open legs, except that an open
        # one's first leg is its open leg
        groups = []
        if hyper:
            top = {label: n_bond + k for k, label in enumerate(opened)}
            for label in hyper:
                first = [top[label]] if label in top else []
                start = len(legs)
                legs += ends[label][len(first):]
                groups.append(first + list(range(start, len(legs))))
        # by (type name, str), in two stable sorts; ties keep insertion order
        ids = sorted(nodes, key=str)
        if len({*map(type, ids)}) > 1:
            ids.sort(key=lambda n: type(n).__name__)
        slot = {n: s for s, n in enumerate(ids)}
        shapes = [nodes[n].data.shape for n in ids]
        codes = [[-1] * len(shape) for shape in shapes]
        owner, axis, dim = [], [], []
        for code, (n, leg) in enumerate(legs):
            s = slot[n]
            codes[s][leg] = code
            owner.append(s)
            axis.append(leg)
            dim.append(shapes[s][leg])
        # each bond joins legs of equal dim and opposite orientation
        ori = [nodes[n].orients[leg] for n, leg in legs[:n_bond]]
        for i in range(0, n_bond, 2):
            if dim[i] != dim[i + 1] or ori[i] == ori[i + 1]:
                (na, la), (nb, lb) = legs[i:i + 2]
                fault = ("differ in dim" if dim[i] != dim[i + 1]
                         else "have equal orientation")
                raise ShapeError(
                    f"bonded legs ({na!r},{la})-({nb!r},{lb}) {fault}")
        # each hyperindex joins legs of equal dim, in any orientation
        for label, group in zip(hyper, groups):
            bad = [c for c in group if dim[c] != dim[group[0]]]
            if bad:
                (na, la), (nb, lb) = legs[group[0]], legs[bad[0]]
                raise ShapeError(f"legs ({na!r},{la})-({nb!r},{lb}) of "
                                 f"hyperindex {label!r} differ in dim")
        self._legs = ids, shapes, codes, owner, axis, dim, n_bond
        self._hyper = groups

    def conjugate(self):
        """New network with every tensor conjugated and all legs bent."""
        return Network([(n, tz.dagger(t), self._labels[n])
                        for n, t in self.nodes.items()], self._open)


def _plan(net):
    """Greedy contraction plan of a non-empty network.

    Reads the nodes' dims only, each at least 1, so the dims two slots
    share divide both their sizes; a merge over ``SIZE_CAP`` raises
    :class:`SizeCapError`.  Returns ``(ids, traces, merges, perm)``:
    ``ids[s]`` is the node in slot ``s``; each trace step ``(s, pairs)``
    is a ``trace_pairs`` call on slot ``s``, and ``(s, sub, out)`` the
    ``tz._reduce`` call on a slot that holds a hyperindex on several
    legs (its diagonal, summed if no other slot holds it; the slot's
    traces run in it too); each merge step ``(a, perm_a, b, perm_b, rows,
    shared, cols, shape)`` contracts slot ``b`` into slot ``a`` (``a <
    b``): it is the ``tz._dot`` call on the slots' ``(data, bound)``
    pairs, with the ``batch`` extent appended if the merge keeps a
    hyperindex.  The last merges fold the other parts of a disconnected
    network into slot 0, in ascending slot order, with no legs.
    ``perm[k]`` is the axis of open leg ``k`` in slot 0's result.
    """
    ids, shapes, labels, owner, axis, dim, n_bond = net._legs
    n_top = n_bond + len(net._open)  # codes from n_top on: hyperindex legs
    # copies, which the plan moves between slots: labels[s] lists the codes
    # on slot s's axes, and owner/axis say where each code sits now
    labels, owner, axis = [row[:] for row in labels], owner[:], axis[:]
    size = list(map(math.prod, shapes))
    # adj[a][b] = adj[b][a]: the product of the dims of the bonds joining
    # slots a and b
    adj, traces = [{} for _ in ids], {}
    for i in range(n_bond // 2):
        a, b = owner[2 * i], owner[2 * i + 1]
        if a == b:
            traces.setdefault(a, []).append(i)
        else:
            adj[a][b] = adj[b][a] = adj[a].get(b, 1) * dim[2 * i]
    # a hyperindex is its first code h on every slot holding it: hyp[s]
    # holds the h on slot s, and held[h] counts the holders of h, the
    # output one of them if h is open (owner and axis of h mean nothing
    # while two slots hold it).  Its consecutive holders are candidate
    # pairs, k - 1 for k legs.  alone: the slots holding one on several
    # legs, every sole holder of a closed one among them
    hyp, held, alone = None, {}, set()
    if net._hyper:
        hyp = [set() for _ in ids]
        for group in net._hyper:
            h, slots = group[0], [owner[c] for c in group]
            for c, s in zip(group, slots):
                labels[s][axis[c]] = h
                hyp[s].add(h)
            holders = {*slots}
            held[h] = len(holders) + (h < n_top)
            if len(holders) < len(slots):
                alone.update([s for s in holders if slots.count(s) > 1])
            for a, b in zip(slots, slots[1:]):
                if a != b:
                    adj[a][b] = adj[b][a] = adj[a].get(b, 1)
    # one-slot steps first: they only shrink tensors, and merging a with
    # b contracts every a-b bond, so no merge creates a new trace
    alone = sorted(alone)
    trace_steps = []
    for s, bonds in traces.items():
        if s not in alone:
            trace_steps.append((s, [(axis[2 * i], axis[2 * i + 1])
                                    for i in bonds]))
            labels[s] = [c for c in labels[s] if c // 2 not in bonds]
    for s in alone:
        # a trace's two ends share the key 2i; a hyperindex on several
        # legs keeps one axis, summed if it is closed and no other slot
        # holds it
        sub, kept, seen = [], [], set()
        for c in labels[s]:
            sub.append(c if c >= n_bond else c & -2)
            if c < n_bond:
                if owner[c ^ 1] != s:
                    kept.append(c)
            elif c not in seen:
                seen.add(c)
                if c >= n_top and held[c] == 1:
                    del held[c]
                    hyp[s].discard(c)
                else:
                    kept.append(c)
        trace_steps.append((s, sub, [c if c >= n_bond else c & -2
                                     for c in kept]))
        labels[s] = kept
    for s, *_ in trace_steps:
        size[s] = math.prod([dim[c] for c in labels[s]])
        for ax, c in enumerate(labels[s]):
            axis[c] = ax

    def over_cap(a, b, la):
        old = [tuple([dim[c] for c in x]) for x in (la, labels[b])]
        raise SizeCapError(
            f"planned intermediate with {size[a]} entries exceeds cap "
            f"(joining {ids[a]!r} {old[0]} with {ids[b]!r} {old[1]})",
            shape=old[0] + old[1])

    def merge(a, b, shared):
        # a keeps the result: its free legs first, then b's; the a-b bonds,
        # codes whose mate c ^ 1 is on the other, contract in ascending
        # order (loops: on lists this short they beat comprehensions)
        codes, ends, perm_a, perm_b, shape = [], [], [], [], []
        for c in labels[a]:
            if c < n_bond and owner[c ^ 1] == b:
                ends.append(c)
            else:
                codes.append(c)
                perm_a.append(axis[c])
        ends.sort()
        for c in ends:
            perm_a.append(axis[c])
            perm_b.append(axis[c ^ 1])
        for c in labels[b]:
            if c >= n_bond or owner[c ^ 1] != a:
                codes.append(c)
                perm_b.append(axis[c])
        for ax, c in enumerate(codes):
            owner[c], axis[c] = a, ax
            shape.append(dim[c])
        la, labels[a], shape = labels[a], codes, tuple(shape)
        rows, cols = size[a] // shared, size[b] // shared
        size[a] = rows * cols
        if size[a] > tz.SIZE_CAP:
            over_cap(a, b, la)
        merges.append((a, perm_a, b, perm_b, rows, shared, cols, shape))

    def hmerge(a, b, shared):
        # merge() of slots that may hold hyperindices, found by position:
        # one both hold is a batch axis, leading the result, while the
        # output or a third slot holds it, else summed after the bonds
        ha, lb = hyp[a], labels[b]
        both = ha & hyp[b]
        ha |= hyp[b]
        codes, perm_a, perm_b, batch = [], [], [], 1
        free, free_a, sum_a, sum_b, ends = [], [], [], [], []
        for ax, c in enumerate(labels[a]):
            if c in both:
                held[c] -= 1
                if held[c] > 1:
                    codes.append(c)
                    perm_a.append(ax)
                    perm_b.append(lb.index(c))
                    batch *= dim[c]
                else:
                    del held[c]
                    ha.discard(c)
                    sum_a.append(ax)
                    sum_b.append(lb.index(c))
                    shared *= dim[c]
            elif c < n_bond and owner[c ^ 1] == b:
                ends.append(c)
            else:
                free.append(c)
                free_a.append(ax)
        ends.sort()
        perm_a += free_a + [axis[c] for c in ends] + sum_a
        perm_b += [axis[c ^ 1] for c in ends] + sum_b
        for ax, c in enumerate(lb):
            if c < n_bond and owner[c ^ 1] != a or c >= n_bond and (
                    c not in both):
                free.append(c)
                perm_b.append(ax)
        codes += free
        for ax, c in enumerate(codes):
            owner[c], axis[c] = a, ax
        la, labels[a] = labels[a], codes
        rows = size[a] // (batch * shared)
        cols = size[b] // (batch * shared)
        size[a] = batch * rows * cols
        if size[a] > tz.SIZE_CAP:
            over_cap(a, b, la)
        merges.append((a, perm_a, b, perm_b, rows, shared, cols,
                       tuple([dim[c] for c in codes]))
                      + ((batch,) if batch > 1 else ()))

    def key(a, b, shared):
        # hmerge()'s result entries: a batch dim counts once
        batch = 1
        for h in hyp[a] & hyp[b]:
            shared *= dim[h]
            if held[h] > 2:
                batch *= dim[h]
        return size[a] // shared * (size[b] // shared) * batch

    # version -1 marks a slot merged away; a merge bumps the kept slot's
    # version, so older heap entries for either slot are stale
    # (bond-only networks take merge() and the bond key inline: hmerge()
    # and key() everywhere made the 72-node prism's plan 60% slower)
    ver, hyper = [0] * len(ids), bool(net._hyper)
    join = hmerge if hyper else merge
    heap = [(size[a] // shared * (size[b] // shared), a, b, 0, 0)
            for a in range(len(ids)) for b, shared in adj[a].items() if a < b]
    if hyper:
        heap = [(key(a, b, adj[a][b]), a, b, 0, 0) for _, a, b, _, _ in heap]
    heapq.heapify(heap)
    # candidate slot pairs left: after the last, every heap entry is stale
    merges, pairs, pop, push = [], len(heap), heapq.heappop, heapq.heappush
    while pairs:
        _, a, b, va, vb = pop(heap)
        if ver[a] != va or ver[b] != vb:
            continue
        join(a, b, adj[a].pop(b))
        va, pairs = va + 1, pairs - 1
        ver[a], ver[b] = va, -1
        for c, shared in adj[b].items():
            if c != a:
                del adj[c][b]
                if c in adj[a]:
                    pairs -= 1
                    shared *= adj[a][c]
                adj[a][c] = adj[c][a] = shared
        # the heap key only orders merges: merge() caps the merged dims
        sa = size[a]
        if hyper:
            for c, shared in adj[a].items():
                e = key(a, c, shared)
                push(heap, (e, a, c, va, ver[c]) if a < c else
                     (e, c, a, ver[c], va))
        else:
            for c, shared in adj[a].items():
                e = sa // shared * (size[c] // shared)
                push(heap, (e, a, c, va, ver[c]) if a < c else
                     (e, c, a, ver[c], va))
    # a merge keeps its smaller slot, so slot 0 survives: fold the rest in
    for s in range(1, len(ids)):
        if ver[s] >= 0:
            join(0, s, 1)
    return ids, trace_steps, merges, axis[n_bond:n_top]


def contract_network(net):
    """Contract a network to a single tensor.

    The result's legs follow the declared open-leg order verbatim.  A
    network without nodes contracts to the scalar 1 (the empty product).
    The result is exact if the nodes are; a complex result with an inf
    or NaN entry raises :class:`NumericalError`.  A plan step over
    ``SIZE_CAP`` raises :class:`SizeCapError` before any step runs.
    """
    if not net.nodes:
        return tz.scalar(1)
    ids, traces, merges, perm = _plan(net)
    ops = [(net.nodes[n].data, net.nodes[n].bound) for n in ids]
    tz._one_kind([b for _, b in ops])
    for s, *step in traces:
        if len(step) > 1:
            ops[s] = tz._reduce(ops[s], *step)
        else:
            t = tz.trace_pairs(net.nodes[ids[s]], *step)
            ops[s] = t.data, t.bound
    # a starred target costs bond-only networks 13% of their step loop
    if net._hyper:
        for a, perm_a, b, perm_b, *dims in merges:
            ops[a], ops[b] = tz._dot(ops[a], perm_a, ops[b], perm_b,
                                     *dims), None
    else:
        for a, perm_a, b, perm_b, rows, shared, cols, shape in merges:
            ops[a], ops[b] = tz._dot(ops[a], perm_a, ops[b], perm_b, rows,
                                     shared, cols, shape), None
    data, bound = ops[0]
    # intermediates skip the finiteness scan; an overflow anywhere ends
    # as inf or NaN here (exact kernels pick float64 only under a bound)
    if bound is None:
        tz._finite(data, "contraction")
    _, _, _, owner, axis, _, n_bond = net._legs
    n_top = n_bond + len(perm)
    orients = tuple(net.nodes[ids[s]].orients[leg]
                    for s, leg in zip(owner[n_bond:n_top], axis[n_bond:n_top]))
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
    return tz._finite(float(np.vdot(t.data, t.data).real), "squared norm")


def single_node_network(t):
    """Convenience: wrap one tensor with all legs open in declared order."""
    return Network([(0, t, range(t.order))], range(t.order))
