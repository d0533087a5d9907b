"""3-edge-coloring counts by epsilon-tensor contraction."""

import itertools
import warnings

import numpy as np
import pytest

import tnq
from tnq import counting as ct, tensor as tz
from tnq.errors import ParseError, ShapeError

THETA = ct.ColorGraph(2, [(0, 1), (0, 1), (0, 1)])
K4 = ct.ColorGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
PRISM = ct.ColorGraph(6, [(0, 1), (1, 2), (2, 0),
                          (3, 4), (4, 5), (5, 3),
                          (0, 3), (1, 4), (2, 5)])
CUBE = ct.ColorGraph(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                         (4, 5), (5, 6), (6, 7), (7, 4),
                         (0, 4), (1, 5), (2, 6), (3, 7)])
K33 = ct.ColorGraph(6, [(a, b + 3) for a in range(3) for b in range(3)])
PETERSEN = ct.ColorGraph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                              (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
                              (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)])


def test_graph_validation():
    with pytest.raises(ShapeError):
        ct.ColorGraph(2, [(0, 0)])
    with pytest.raises(ShapeError):
        ct.ColorGraph(2, [(0, 5)])
    assert THETA.degrees() == [3, 3]


def test_parse_edgelist():
    g = ct.parse_edgelist("# theta\n0 1\n0 1\n0 1\n")
    assert g.n_nodes == 2 and len(g.edges) == 3
    with pytest.raises(ParseError):
        ct.parse_edgelist("0 1 2\n")
    with pytest.raises(ParseError):
        ct.parse_edgelist("0 x\n")
    with pytest.raises(ParseError, match="negative"):
        ct.parse_edgelist("0 -1\n")


def test_non_cubic_rejected():
    g = ct.ColorGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(ShapeError):
        ct.count_colorings_epsilon(g)


@pytest.mark.parametrize("graph,count", [
    (THETA, 6), (K4, 6), (PRISM, 6), (CUBE, 24), (PETERSEN, 0),
])
def test_epsilon_count_planar_and_petersen(graph, count):
    assert abs(ct.count_colorings_epsilon(graph)) == count


@pytest.mark.parametrize("graph,count", [
    (THETA, 6), (K4, 6), (PRISM, 6), (CUBE, 24), (PETERSEN, 0), (K33, 12),
])
def test_bruteforce_oracle(graph, count):
    assert ct.count_colorings_bruteforce(graph) == count


def test_k33_signed_sum_vanishes():
    # bipartite non-planar counterexample: signed contraction gives 0 even
    # though 12 proper colorings exist
    assert ct.count_colorings_epsilon(K33) == 0
    assert ct.count_colorings_bruteforce(K33) == 12


def test_epsilon_matches_oracle_on_planar_fixtures():
    for g in (THETA, K4, PRISM, CUBE):
        assert (abs(ct.count_colorings_epsilon(g))
                == ct.count_colorings_bruteforce(g))


# ------------------------------------------------------- exact prism counts

def prism(m):
    """The m-rung prism: outer cycle 0..m-1, inner cycle m..2m-1, rungs."""
    edges = []
    for i in range(m):
        edges += [(i, (i + 1) % m), (m + i, m + (i + 1) % m), (i, m + i)]
    return ct.ColorGraph(2 * m, tuple(edges))


def prism_transfer_count(m):
    """Proper 3-edge-colorings of the m-rung prism by a transfer matrix.

    A state is the colour pair (a, b) of the outer and inner ring edges
    entering a rung; the rung takes a colour r unlike both, and the ring
    edges leaving it take the third colours 3-a-r and 3-b-r.
    """
    t = np.zeros((9, 9), dtype=object)
    for a, b, r in itertools.product(range(3), repeat=3):
        if r not in (a, b):
            t[3 * a + b, 3 * (3 - a - r) + 3 - b - r] += 1
    acc = np.identity(9, dtype=object)
    for _ in range(m):
        acc = acc.dot(t)
    return int(np.trace(acc))


def test_transfer_oracle_matches_bruteforce():
    for m in (3, 4, 5, 6):
        assert prism_transfer_count(m) == ct.count_colorings_bruteforce(
            prism(m))


def test_prism_128_count_is_exact():
    # float64 rounds this count to 2^64
    assert abs(ct.count_colorings_epsilon(prism(64))) == 2**64 + 8


@pytest.mark.parametrize("m", [3, 4, 5, 36, 56, 128, 256])
def test_prism_counts_match_transfer_matrix(m):
    assert abs(ct.count_colorings_epsilon(prism(m))) == prism_transfer_count(m)


@pytest.mark.parametrize("n, seed", [(40, 0), (40, 1), (50, 1), (56, 0)])
def test_random_cubic_graphs_match_python_int_path(n, seed, monkeypatch):
    # non-planar, so the value is the signed Penrose sum; the kernels
    # choose float64 by bound, and forcing Python ints must agree
    nx = pytest.importorskip("networkx")
    g = ct.ColorGraph(n, tuple(nx.random_regular_graph(3, n, seed).edges()))
    count = ct.count_colorings_epsilon(g)
    monkeypatch.setattr(tz, "_FLOAT_EXACT", -1)
    assert ct.count_colorings_epsilon(g) == count


def test_empty_graph_counts_one_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = ct.count_colorings_epsilon(ct.ColorGraph(0, ()))
    assert k == 1 and type(k) is int


@pytest.mark.parametrize("count", [ct.count_colorings_epsilon,
                                   ct.count_colorings_bruteforce])
def test_edge_count_checked_before_per_node_lists(count, monkeypatch):
    # one edge to node 3e9: a per-node degree list would take 24 GB
    g = ct.parse_edgelist("0 3000000000\n")

    def no_degrees(self):
        raise AssertionError("degree list built before the edge count check")

    monkeypatch.setattr(ct.ColorGraph, "degrees", no_degrees)
    with pytest.raises(ShapeError, match="not 3-regular"):
        count(g)
