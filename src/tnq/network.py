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
same every time.  First, one ``tz._reduce`` step per slot with a
self-bond or a hyperindex on several legs takes the diagonal of each
such label, as ``np.einsum`` does of a repeated subscript, and sums it
unless another slot or the output holds it: a trace is a hyperindex
whose two legs sit on one node.  Then the plan repeatedly merges the
candidate slot pair whose result has the fewest entries, breaking ties
by the smaller pair of slots; the smaller slot keeps the result.  One
merge rule serves every label, as spider fusion makes a bond the
two-leg case of a hyperindex: a bond code is bonded across two slots
when its mate, ``code ^ 1``, is on the other one, and a bonded pair
keeps only the product of its bond dims; a hyperindex is one code on
every slot that holds it, whose consecutive holders are candidate
pairs, k - 1 for k legs.  A merge contracts the labels both slots hold,
bonds first, except that a hyperindex a third slot or the output also
holds stays as a batch axis, counted once and leading the result; an
axis is its code's place in the slot's list.  Candidate pairs sit in a
heap of int tuples; a merge bumps the kept slot's version, which makes
its old entries stale, and pushes fresh entries only for the kept
slot's pairs, so a merge costs time in proportion to the degree of the
merged slots.  Other parts of a disconnected network then fold into
slot 0 as merges over no legs.  Each merge step is ``tz._dot``'s
arguments, ``batch`` last (1 for a plain merge), checked by
``tz._check_size``.  Execution refuses mixed exact and complex nodes,
runs the steps on bare arrays and wraps one Tensor at the end.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from . import tensor as tz
from .errors import ShapeError
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
        both; ``_orients``, the open legs' orientations, are those of
        the contracted result.
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
        n_top = len(legs)
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
        # each bond joins legs of equal dim and opposite orientation; the
        # open legs' orientations are the result's
        ori = [nodes[n].orients[leg] for n, leg in legs[:n_top]]
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
        self._hyper, self._orients = groups, tuple(ori[n_bond:])

    def conjugate(self):
        """New network with every tensor conjugated and all legs bent."""
        return Network([(n, tz.dagger(t), self._labels[n])
                        for n, t in self.nodes.items()], self._open)


def _plan(net):
    """Greedy contraction plan of a non-empty network.

    Reads the nodes' dims only, each at least 1, so the dims two slots
    share divide both their sizes; a merge that fails ``tz._check_size``
    raises :class:`SizeCapError`.  Returns ``(ids, traces, merges, perm)``:
    ``ids[s]`` is the node in slot ``s``; each trace step ``(s, sub,
    out)`` is the ``tz._reduce`` call on slot ``s``, which has a
    self-bond or a hyperindex on several legs: in ``sub`` a self-bond's
    two ends share a key, as a hyperindex's legs do, and a key missing
    from ``out`` is summed; each merge step ``(a, perm_a, b, perm_b,
    rows, shared, cols, shape, batch)`` contracts slot ``b`` into slot
    ``a`` (``a < b``): it is the ``tz._dot`` call on the slots' ``(data,
    bound)`` pairs, ``batch`` 1 unless the merge keeps a hyperindex.  The
    last merges fold the other parts of a disconnected network into slot
    0, in ascending slot order, with no legs.  ``perm[k]`` is the axis of
    open leg ``k`` in slot 0's result.
    """
    ids, shapes, labels, owner, axis, dim, n_bond = net._legs
    n_top = n_bond + len(net._open)  # codes from n_top on: hyperindex legs
    # copies, which the plan moves between slots: labels[s] lists the codes
    # on slot s's axes, so a code's axis is its position there, and
    # owner[c] is the slot holding bond end c
    labels, owner = [row[:] for row in labels], owner[:]
    on_a, on_b = [0] * len(dim), [0] * len(dim)
    size = list(map(math.prod, shapes))
    # adj[a][b] = adj[b][a]: the product of the dims of the bonds joining
    # slots a and b.  alone: the slots with a self-bond (a trace) or
    # holding a hyperindex on several legs
    adj, alone = [{} for _ in ids], set()
    for i in range(n_bond // 2):
        a, b = owner[2 * i], owner[2 * i + 1]
        if a == b:
            alone.add(a)
        else:
            adj[a][b] = adj[b][a] = adj[a].get(b, 1) * dim[2 * i]
    # a hyperindex is its first code h on every slot holding it: hyp[s]
    # holds the h on slot s (slots with none share one empty frozenset),
    # and held[h] counts the holders of h, the output one of them if h
    # is open.  Its consecutive holders are candidate pairs, k - 1 for k
    # legs.  The slots holding one on several legs join alone, every sole
    # holder of a closed one among them
    hyp, held = [frozenset()] * len(ids), {}
    for group in net._hyper:
        h, slots = group[0], [owner[c] for c in group]
        for c, s in zip(group, slots):
            labels[s][axis[c]] = h
            hyp[s] = hyp[s] or set()
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
    trace_steps = []
    for s in sorted(alone):
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
        size[s] = math.prod([dim[c] for c in kept])

    def merge(a, b, shared):
        # a keeps the result, the batch axes first, then its free labels,
        # then b's; the labels both hold contract in ascending code order,
        # so bonds before hyperindices.  on_a[c] and on_b[c]: the axes on
        # a and b of contracted label c, a bond by its code on a.  (Loops:
        # on lists this short they beat comprehensions.)
        la, lb, ha, hb = labels[a], labels[b], hyp[a], hyp[b]
        codes, perm_a, perm_b, ends, free_b, batch = [], [], [], [], [], 1
        ax = -1
        for c in la:
            ax += 1
            if c < n_bond:
                if owner[c ^ 1] == b:
                    on_a[c] = ax
                    ends.append(c)
                    continue
            elif c in hb:
                if held[c] > 2:  # a batch axis: perm_b holds only those
                    held[c] -= 1
                    codes.insert(len(perm_b), c)
                    perm_a.insert(len(perm_b), ax)
                    perm_b.append(lb.index(c))
                    batch *= dim[c]
                else:
                    del held[c]
                    on_a[c] = ax
                    ends.append(c)
                    shared *= dim[c]
                continue
            codes.append(c)
            perm_a.append(ax)
        ax = -1
        for c in lb:
            ax += 1
            if c < n_bond:
                if owner[c ^ 1] == a:
                    on_b[c ^ 1] = ax
                    continue
            elif c in ha:
                if c not in held:
                    on_b[c] = ax
                continue
            owner[c] = a
            codes.append(c)
            free_b.append(ax)
        if hb:
            hyp[a] = ha = ha or set()
            ha |= hb
            for c in ends:
                ha.discard(c)
        ends.sort()
        for c in ends:
            perm_a.append(on_a[c])
            perm_b.append(on_b[c])
        perm_b += free_b
        labels[a], shape = codes, []
        for c in codes:
            shape.append(dim[c])
        rows = size[a] // (batch * shared)
        cols = size[b] // (batch * shared)
        size[a] = batch * rows * cols
        if size[a] > tz.SIZE_CAP or len(shape) > tz._MAX_LEGS:
            tz._check_size(f"planned intermediate of {ids[a]!r} and "
                           f"{ids[b]!r}", shape)
        merges.append((a, perm_a, b, perm_b, rows, shared, cols,
                       tuple(shape), batch))

    # each pass pushes a heap entry for every candidate pair (a, c), c >
    # lo: one pass per slot from the last, over its larger neighbours,
    # then one per merge, over all the kept slot's.  The key is the
    # merge's result entries (of a hyperindex both hold, a summed dim
    # drops from both sizes, a batch dim from one); it only orders
    # merges, which merge() caps.  A merge bumps the kept slot's version
    # and sets the other's to -1, so older entries for either are stale
    ver, heap, merges = [0] * len(ids), [], []
    pop, push = heapq.heappop, list.append
    a = lo = len(ids) - 1
    va = 0
    while True:
        sa, ha = size[a], hyp[a]
        for c, shared in adj[a].items():
            if c > lo:
                e = sa // shared * (size[c] // shared)
                if ha:
                    for h in ha & hyp[c]:
                        e //= dim[h] if held[h] > 2 else dim[h] * dim[h]
                push(heap, (e, a, c, va, ver[c]) if a < c else
                     (e, c, a, ver[c], va))
        if lo == a:
            if a:
                a = lo = a - 1
                continue
            # candidate pairs left: after the last, every entry is stale
            heapq.heapify(heap)
            push, lo, pairs = heapq.heappush, -1, len(heap)
        if not pairs:
            break
        _, a, b, va, vb = pop(heap)
        while ver[a] != va or ver[b] != vb:
            _, a, b, va, vb = pop(heap)
        merge(a, b, adj[a].pop(b))
        va += 1
        ver[a], ver[b], pairs = va, -1, pairs - 1
        for c, shared in adj[b].items():
            if c != a:
                del adj[c][b]
                if c in adj[a]:
                    pairs -= 1
                    shared *= adj[a][c]
                adj[a][c] = adj[c][a] = shared
    # a merge keeps its smaller slot, so slot 0 survives: fold the rest in
    for s in range(1, len(ids)):
        if ver[s] >= 0:
            merge(0, s, 1)
    return ids, trace_steps, merges, list(map(labels[0].index,
                                              range(n_bond, n_top)))


def contract_network(net):
    """Contract a network to a single tensor.

    The result's legs follow the declared open-leg order verbatim.  A
    network without nodes contracts to the scalar 1 (the empty product).
    The result is exact if the nodes are; a complex result with an inf
    or NaN entry raises :class:`NumericalError`.  A plan step that fails
    ``tz._check_size`` raises :class:`SizeCapError` before any step runs.
    """
    if not net.nodes:
        return tz.scalar(1)
    ids, traces, merges, perm = _plan(net)
    ops = [(t.data, t.bound) for t in map(net.nodes.__getitem__, ids)]
    tz._one_kind([b for _, b in ops])
    reduce, dot = tz._reduce, tz._dot
    for s, sub, out in traces:
        ops[s] = reduce(ops[s], sub, out)
    for a, perm_a, b, perm_b, rows, shared, cols, shape, batch in merges:
        ops[a], ops[b] = dot(ops[a], perm_a, ops[b], perm_b, rows, shared,
                             cols, shape, batch), None
    data, bound = ops[0]
    # intermediates skip the finiteness scan; an overflow anywhere ends
    # as inf or NaN here (exact kernels pick float64 only under a bound)
    if bound is None:
        tz._finite(data, "contraction")
    return Tensor._trusted(data.transpose(perm), net._orients, bound)


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
