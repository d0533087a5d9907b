"""Counting proper 3-edge-colorings of 3-regular graphs.

One order-3 antisymmetric tensor per node, one wire per edge, contracted
through the network planner.  For planar graphs the magnitude equals the
number of proper colorings; for non-planar graphs the value is a signed
sum (the classic bipartite counterexample contracts to zero even though
colorings exist).  A backtracking enumerator serves as the oracle.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from . import tensor as tz
from .errors import ParseError, ShapeError
from .gates import epsilon_tensor
from .network import Network, contract_network


@dataclass(frozen=True)
class ColorGraph:
    """Undirected multigraph given by an edge list (no self-loops)."""

    n_nodes: int
    edges: tuple

    def __post_init__(self):
        n_nodes = tz._int(self.n_nodes, "node counts", 0)
        edges = tz._ints(self.edges, "edge endpoints", 0, n_nodes - 1)
        object.__setattr__(self, "n_nodes", n_nodes)
        object.__setattr__(self, "edges", edges)
        if any(len(e) != 2 or e[0] == e[1] for e in edges):
            raise ShapeError("an edge must join two nodes (no self-loops)")

    def degrees(self):
        deg = [0] * self.n_nodes
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


def parse_edgelist(text):
    """Parse lines of `u v` node pairs; '#' starts a comment."""
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        parts = body.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ParseError(f"expected two node ids, got {body.strip()!r}",
                             code="malformed", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer token in {body.strip()!r}",
                             code="bad-token", line=lineno)
        if u < 0 or v < 0:
            raise ParseError("negative node id", code="bad-token",
                             line=lineno)
        edges.append((u, v))
    return ColorGraph(max(itertools.chain(*edges), default=-1) + 1, edges)


def _check_cubic(g):
    """Each node's ``(neighbor, edge id)`` pairs, if ``g`` is 3-regular."""
    # a 3-regular graph has 3n/2 edges; checking that first bounds n by
    # the input's size before a per-node list is built
    if 2 * len(tz._tensor(g, "graph", cls=ColorGraph).edges) != 3 * g.n_nodes:
        raise ShapeError(f"graph is not 3-regular ({g.n_nodes} nodes, "
                         f"{len(g.edges)} edges)")
    ends = [[] for _ in range(g.n_nodes)]
    for eid, (u, v) in enumerate(g.edges):
        ends[u].append((v, eid))
        ends[v].append((u, eid))
    bad = [i for i, e in enumerate(ends) if len(e) != 3]
    if bad:
        raise ShapeError(f"graph is not 3-regular (nodes {bad})")
    return ends


@functools.cache
def _bent_epsilons():
    """The exact epsilon with its upper-endpoint legs bent, by is_lower
    flags: a constant table, built once per process."""
    eps = epsilon_tensor(3, exact=True)
    return {lower: functools.reduce(tz.bend_leg, [
                pos for pos, low in enumerate(lower) if not low], eps)
            for lower in itertools.product((False, True), repeat=3)}


def count_colorings_epsilon(g):
    """Signed coloring count by contracting one epsilon per node.

    Legs at each node are ordered by ascending (neighbor, edge id) and
    labelled by edge id; the lower-numbered endpoint of each edge keeps
    a ket leg and the other endpoint a bra leg so the bond orientations
    pair up.  Leg-order changes only flip the overall sign, so the
    magnitude is the invariant quantity.  The tensors are exact integer
    tensors, so the count is exact at any size.
    """
    incidence, bent, nodes = _check_cubic(g), _bent_epsilons(), []
    for node, ends in enumerate(incidence):
        (a, i), (b, j), (c, k) = sorted(ends)
        # no self-loops: a node is an edge's lower endpoint if the
        # neighbour's id is larger
        nodes.append((node, bent[a > node, b > node, c > node], (i, j, k)))
    # .real: an empty network contracts to the complex scalar 1
    return int(contract_network(Network(nodes)).data.real)


def count_colorings_bruteforce(g):
    """Exhaustive proper-coloring count by backtracking over edges."""
    _check_cubic(g)
    edges = g.edges
    if len(edges) > 20:
        raise ShapeError("brute-force oracle capped at 20 edges")
    used = [0] * g.n_nodes  # bitmask of colors already present at a node

    def rec(k):
        if k == len(edges):
            return 1
        u, v = edges[k]
        total = 0
        for c in range(3):
            bit = 1 << c
            if used[u] & bit or used[v] & bit:
                continue
            used[u] |= bit
            used[v] |= bit
            total += rec(k + 1)
            used[u] &= ~bit
            used[v] &= ~bit
        return total

    return rec(0)
