"""Boolean functions, DIMACS, normal forms, quantum images, #SAT, circuits."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tnq
from tnq import boolean as bl, tensor as tz
from tnq.errors import ParseError, ShapeError, SizeCapError
from tnq.gates import _graph_tensor, copy_tensor
from tnq.network import contract_network

rng = np.random.default_rng(29)


def majority3(a, b, c):
    return int(a + b + c >= 2)


# ------------------------------------------------------------------- functions

def test_from_callable_and_evaluate():
    f = bl.BooleanFunction.from_callable(2, lambda a, b: a & b)
    assert f.truth == (0, 0, 0, 1)
    assert f.evaluate([1, 1]) == 1
    assert f.evaluate([1, 0]) == 0
    assert (~f).truth == (1, 1, 1, 0)


def test_truth_vector_validated():
    with pytest.raises(ShapeError):
        bl.BooleanFunction(2, [0, 1, 1])
    with pytest.raises(ShapeError):
        bl.BooleanFunction(1, [0, 2])


def test_cnf_evaluate():
    cnf = bl.CnfFormula(3, [(1, 2), (-1, 3)])
    assert cnf.evaluate([1, 0, 1]) == 1
    assert cnf.evaluate([1, 0, 0]) == 0
    assert cnf.to_function().truth == tuple(
        cnf.evaluate(bits) for bits in itertools.product(range(2), repeat=3)
    )


def test_cnf_literal_range_checked():
    with pytest.raises(ShapeError):
        bl.CnfFormula(2, [(1, 3)])
    with pytest.raises(ShapeError):
        bl.CnfFormula(2, [(0,)])


# ---------------------------------------------------------------------- dimacs

DIMACS = """c example
p cnf 3 2
1 2 0
-1 3 0
"""


def test_parse_dimacs():
    cnf = bl.parse_dimacs(DIMACS)
    assert cnf.n_vars == 3
    assert cnf.clauses == ((1, 2), (-1, 3))


def test_dimacs_round_trip():
    cnf = bl.parse_dimacs(DIMACS)
    back = bl.parse_dimacs(bl.serialize_dimacs(cnf))
    assert back == cnf


@pytest.mark.parametrize("text,code", [
    ("1 2 0\n", "bad-header"),
    ("p cnf x 1\n1 0\n", "bad-header"),
    ("p cnf 2 1\np cnf 2 1\n1 0\n", "bad-header"),
    ("p cnf 2 1\n5 0\n", "literal-range"),
    ("p cnf 2 1\n1 z 0\n", "bad-token"),
    ("p cnf 2 2\n1 0\n", "clause-count"),
    ("p cnf 2 1\n1 2\n", "malformed"),
    ("p cnf -1 1\n1 0\n", "bad-header"),
])
def test_dimacs_error_codes(text, code):
    with pytest.raises(ParseError) as exc:
        bl.parse_dimacs(text)
    assert exc.value.code == code


def test_dimacs_variable_cap_checked_at_the_header(monkeypatch):
    at_cap = f"p cnf {bl.DIMACS_MAX_VARS} 1\n1 0\n"
    assert bl.parse_dimacs(at_cap).n_vars == bl.DIMACS_MAX_VARS
    # refused at the header line, before any clause token is read
    monkeypatch.setattr(bl, "CnfFormula", None)
    with pytest.raises(ParseError, match="over the cap") as exc:
        bl.parse_dimacs(f"p cnf {bl.DIMACS_MAX_VARS + 1} 1\n1 0\n"
                        + "x\n" * 1000)
    assert exc.value.code == "bad-header" and exc.value.line == 1
    # the largest model count still converts to text
    assert len(str(2**bl.DIMACS_MAX_VARS)) < 4300


def test_dimacs_error_line_numbers():
    with pytest.raises(ParseError) as exc:
        bl.parse_dimacs("p cnf 2 1\n1 q 0\n")
    assert exc.value.line == 2


# ----------------------------------------------------------------- normal forms

def test_anf_involution_random():
    for _ in range(20):
        truth = [int(b) for b in rng.integers(0, 2, size=8)]
        f = bl.BooleanFunction(3, truth)
        coeffs = bl.anf(f)
        assert bl.function_from_anf(3, coeffs).truth == f.truth


def test_anf_of_majority():
    # MAJ(x1,x2,x3) = x1x2 xor x1x3 xor x2x3
    f = bl.BooleanFunction.from_callable(3, majority3)
    coeffs = bl.anf(f)
    # masks (x1 msb): 110, 101, 011
    want = [0] * 8
    for mask in (0b110, 0b101, 0b011):
        want[mask] = 1
    assert list(coeffs) == want


def test_anf_of_ghz_indicator():
    # x1 xor x2 xor x3 xor 1: indicator of even parity
    f = bl.BooleanFunction.from_callable(3, lambda a, b, c: 1 - (a ^ b ^ c))
    assert bl.anf(f) == (1, 1, 1, 0, 1, 0, 0, 0)


def test_davio_expansion():
    f = bl.BooleanFunction.from_callable(3, majority3)
    f0, deriv = bl.davio(f, 1)
    for bits in itertools.product(range(2), repeat=3):
        want = f0.evaluate(bits) ^ (bits[0] & deriv.evaluate(bits))
        assert want == f.evaluate(bits)


def test_multilinear_w_indicator():
    # exactly-one-of-three indicator
    f = bl.BooleanFunction.from_callable(
        3, lambda a, b, c: int(a + b + c == 1))
    coeffs = bl.multilinear(f)
    assert coeffs == {(1,): 1, (2,): 1, (3,): 1,
                      (1, 2): -2, (1, 3): -2, (2, 3): -2, (1, 2, 3): 3}


def test_multilinear_all_equal_indicator():
    f = bl.BooleanFunction.from_callable(3, lambda a, b, c: int(a == b == c))
    coeffs = bl.multilinear(f)
    assert coeffs == {(): 1, (1,): -1, (2,): -1, (3,): -1,
                      (1, 2): 1, (1, 3): 1, (2, 3): 1}


def test_multilinear_agrees_pointwise():
    for _ in range(10):
        truth = [int(b) for b in rng.integers(0, 2, size=16)]
        f = bl.BooleanFunction(4, truth)
        coeffs = bl.multilinear(f)
        for bits in itertools.product(range(2), repeat=4):
            assert bl.evaluate_multilinear(coeffs, bits) == f.evaluate(bits)



@st.composite
def _functions(draw):
    """Boolean function of at most 8 variables."""
    n = draw(st.integers(0, 8))
    return bl.BooleanFunction(n, draw(st.lists(st.integers(0, 1),
                                               min_size=2**n, max_size=2**n)))


def _partial_trace_by_einsum(f, k):
    # rho[x, y] = f(x) f(y), summed over x_k = y_k
    n = f.n_vars
    v = np.array(f.truth).reshape((2,) * n)
    xs, ys = list(range(n)), list(range(n, 2 * n))
    ys[k - 1] = xs[k - 1]
    out = xs[:k - 1] + xs[k:] + ys[:k - 1] + ys[k:]
    dim = 2 ** (n - 1)
    return np.einsum(v, xs, v, ys, out).reshape(dim, dim)


@settings(max_examples=60, deadline=None)
@given(_functions())
@example(bl.BooleanFunction(0, [0]))
@example(bl.BooleanFunction(0, [1]))
@example(bl.BooleanFunction(8, [1] * 256))
def test_truth_table_calculus_matches_oracles(f):
    n = f.n_vars
    points = list(itertools.product(range(2), repeat=n))
    ml = bl.multilinear(f)
    assert all(type(c) is int and c != 0 for c in ml.values())
    for bits in points:
        assert bl.evaluate_multilinear(ml, bits) == f.evaluate(bits)
    # ANF = multilinear coefficients mod 2, indexed by monomial mask
    want = [0] * 2**n
    for vars_, c in ml.items():
        want[sum(1 << (n - v) for v in vars_)] = c % 2
    assert bl.anf(f) == tuple(want)
    assert bl.function_from_anf(n, bl.anf(f)) == f
    for i in range(1, n + 1):
        f0, deriv = bl.davio(f, i)
        for bits in points:
            flipped = bits[:i - 1] + (1 - bits[i - 1],) + bits[i:]
            assert f0.evaluate(bits) == f0.evaluate(flipped)
            assert deriv.evaluate(bits) == deriv.evaluate(flipped)
            assert f.evaluate(bits) == (
                f0.evaluate(bits) ^ (bits[i - 1] & deriv.evaluate(bits)))
    for k in range(1, n + 1):
        red = bl.boolean_partial_trace(f, k)
        assert red.orients == (tz.DOWN, tz.UP)
        np.testing.assert_array_equal(red.data, _partial_trace_by_einsum(f, k))


# ------------------------------------------------------------------ states

def test_boolean_state_postselected():
    f = bl.BooleanFunction.from_callable(2, lambda a, b: a & b)
    psi = bl.boolean_state(f, "postselected")
    want = np.zeros((2, 2))
    want[1, 1] = 1
    np.testing.assert_allclose(psi.data, want)


def test_boolean_state_appended():
    f = bl.BooleanFunction.from_callable(2, lambda a, b: a ^ b)
    psi = bl.boolean_state(f, "appended")
    for a, b in itertools.product(range(2), repeat=2):
        assert psi.data[a, b, a ^ b] == 1
        assert psi.data[a, b, 1 - (a ^ b)] == 0


def test_boolean_state_norm_counts_models():
    f = bl.BooleanFunction.from_callable(3, majority3)
    psi = bl.boolean_state(f, "postselected")
    np.testing.assert_allclose(np.vdot(psi.data, psi.data).real, 4)


def test_linear_state_matches_xor_indicator():
    psi = bl.linear_state(1, [1, 1])
    f = bl.BooleanFunction.from_callable(2, lambda a, b: 1 ^ a ^ b)
    np.testing.assert_allclose(
        psi.data, bl.boolean_state(f, "postselected").data)


def test_linear_state_anf_weight_at_most_affine():
    # states of affine indicators have ANF supported on degree <= 1 ...
    # of the parity polynomial: check the indicator really is affine
    psi = bl.linear_state(0, [1, 0, 1])
    truth = [int(x.real) for x in psi.data.reshape(-1)]
    coeffs = bl.anf(bl.BooleanFunction(3, truth))
    for mask, c in enumerate(coeffs):
        if c and bin(mask).count("1") > 1:
            raise AssertionError("affine indicator has a nonlinear term")


def test_polarity_state():
    f = bl.BooleanFunction.from_callable(1, lambda a: a)
    psi = bl.polarity_state(f)
    np.testing.assert_allclose(psi.data, [1, -1])


def test_boolean_density_and_partial_trace():
    f = bl.BooleanFunction.from_callable(2, lambda a, b: a | b)
    rho = bl.boolean_density(f)
    np.testing.assert_allclose(np.trace(rho.data).real, 3)
    red = bl.boolean_partial_trace(f, 2)
    v = np.array(f.truth, dtype=complex).reshape(2, 2)
    oracle = np.einsum("ab,cb->ac", v, v.conj())
    np.testing.assert_allclose(red.data, oracle)


def test_diagonal_map():
    f = bl.BooleanFunction.from_callable(2, lambda a, b: a & b)
    psi = bl.boolean_state(f, "postselected")
    ell = bl.diagonal_map(psi)
    plus = np.ones(4, dtype=complex)
    np.testing.assert_allclose(ell.data @ plus, psi.data.reshape(-1))


def test_spin_to_pseudo_boolean():
    # single ZZ coupling: s1 s2 = (1-2x1)(1-2x2)
    coeffs = bl.spin_to_pseudo_boolean([(1.0, "ZZ")])
    assert coeffs == {(): 1.0, (1,): -2.0, (2,): -2.0, (1, 2): 4.0}
    with pytest.raises(ShapeError):
        bl.spin_to_pseudo_boolean([(1.0, "XZ")])


def test_spin_to_pseudo_boolean_matches_eigenvalues():
    terms = [(0.5, "ZI"), (-1.0, "ZZ"), (2.0, "IZ")]
    coeffs = bl.spin_to_pseudo_boolean(terms)
    for x1, x2 in itertools.product(range(2), repeat=2):
        s1, s2 = 1 - 2 * x1, 1 - 2 * x2
        want = 0.5 * s1 - 1.0 * s1 * s2 + 2.0 * s2
        assert bl.evaluate_multilinear(coeffs, (x1, x2)) == want


_SPIN_TERMS = st.lists(st.tuples(
    st.integers(-8, 8),
    st.lists(st.integers(1, 4), max_size=5)
    | st.text(alphabet="IZ", max_size=4)), max_size=5)


@settings(max_examples=200, deadline=None)
@given(terms=_SPIN_TERMS)
def test_spin_to_pseudo_boolean_matches_direct_evaluation(terms):
    # integer coefficients keep both sides exact; positions repeat, so a
    # key must still be multilinear: strictly ascending positions
    coeffs = bl.spin_to_pseudo_boolean(terms)
    assert all(list(k) == sorted(set(k)) for k in coeffs)
    assert 0 not in coeffs.values()
    for x in itertools.product(range(2), repeat=4):
        want = sum(c * math.prod(1 - 2 * x[p - 1] for p in (
            [i + 1 for i, z in enumerate(spec) if z == "Z"]
            if isinstance(spec, str) else spec)) for c, spec in terms)
        assert sum(c * math.prod(x[p - 1] for p in k)
                   for k, c in coeffs.items()) == want
    assert bl.spin_to_pseudo_boolean([(1.0, [1, 1])]) == {(): 1.0}


def test_stabilizer_form_state():
    f = bl.BooleanFunction(1, [0, 1])
    g = bl.BooleanFunction(1, [0, 0])
    k = bl.BooleanFunction(1, [1, 1])
    psi = bl.stabilizer_form_state(f, g, k)
    np.testing.assert_allclose(psi.data, [1, -1])


# --------------------------------------------------------------------- counting

def rand_3cnf(n_vars, n_clauses):
    clauses = []
    for _ in range(n_clauses):
        vs = rng.choice(n_vars, size=3, replace=False) + 1
        signs = rng.integers(0, 2, size=3) * 2 - 1
        clauses.append(tuple(int(v * s) for v, s in zip(vs, signs)))
    return bl.CnfFormula(n_vars, clauses)


def test_count_sat_small_formula():
    cnf = bl.CnfFormula(3, [(1, 2), (-1, 3)])
    assert bl.count_sat(cnf, engine="enumerate") == 4
    assert bl.count_sat(cnf, engine="tensor") == 4


def test_count_sat_unsatisfiable():
    cnf = bl.CnfFormula(1, [(1,), (-1,)])
    assert bl.count_sat(cnf, engine="tensor") == 0


def test_count_sat_function_input():
    f = bl.BooleanFunction.from_callable(3, majority3)
    assert bl.count_sat(f, engine="tensor") == 4


def test_count_sat_tensor_matches_enumeration():
    for _ in range(10):
        n = int(rng.integers(3, 9))
        cnf = rand_3cnf(n, int(rng.integers(2, 3 * n)))
        assert (bl.count_sat(cnf, engine="tensor")
                == bl.count_sat(cnf, engine="enumerate"))


def test_count_sat_unused_variables_beyond_old_cap():
    # 27 variables in no clause each double the count
    cnf = bl.CnfFormula(30, [(1, 2, 3)])
    assert bl.count_sat(cnf, engine="tensor") == 7 * 2**27


def chain(n):
    # (x_i or x_i+1): strings without two adjacent zeros, F(n + 2) of them
    return bl.CnfFormula(n, [(i, i + 1) for i in range(1, n)])


def test_count_sat_chain_at_exactness_limit():
    assert bl.count_sat(chain(53), engine="tensor") == 139583862445


def test_count_sat_past_float_exactness_is_exact():
    assert bl.count_sat(chain(54), engine="tensor") == 225851433717
    assert bl.count_sat(bl.CnfFormula(54, [(1, 2)]), engine="tensor") \
        == 3 * 2**52


def test_count_sat_80_variable_chain():
    # F(82) > 2^53: the last merges run on Python ints
    assert bl.count_sat(chain(80), engine="tensor") == 61305790721611591


def test_count_sat_unused_variables_are_one_scalar():
    cnf = bl.CnfFormula(bl.DIMACS_MAX_VARS, [(1, -2), (2, 3)])
    net = bl.cnf_state_network(cnf, closed=True)
    # spiders on variables 1 and 3 (one end each), the two clauses and
    # the scalar: variable 2 has two ends, so it is a bond
    assert len(net.nodes) == 2 + 2 + 1
    unused = net.nodes[("var", "unused")]
    assert unused.order == 0 and unused.data == 2**(bl.DIMACS_MAX_VARS - 3)
    assert bl.count_sat(cnf, engine="tensor") \
        == 4 * 2**(bl.DIMACS_MAX_VARS - 3)
    assert bl.count_sat(bl.CnfFormula(5, []), engine="tensor") == 32
    assert bl.count_sat(bl.CnfFormula(0, []), engine="tensor") == 1


def test_count_sat_truth_table_is_exact():
    f = bl.BooleanFunction.from_callable(12, lambda *bits: sum(bits) % 3 == 0)
    assert bl.count_sat(f, engine="tensor") == sum(f.truth)
    assert type(bl.count_sat(f, engine="tensor")) is int


def test_count_sat_independent_blocks_multiply():
    r = np.random.default_rng(5)
    clauses, want = [], 1
    for offset in (0, 9, 18):
        block = []
        for _ in range(18):
            vs = r.choice(9, size=3, replace=False) + 1
            signs = r.integers(0, 2, size=3) * 2 - 1
            block.append(tuple(int(v * s) for v, s in zip(vs, signs)))
        want *= bl.count_sat(bl.CnfFormula(9, block), engine="enumerate")
        clauses += [tuple(l + offset if l > 0 else l - offset for l in c)
                    for c in block]
    assert want > 1
    assert bl.count_sat(bl.CnfFormula(27, clauses), engine="tensor") == want


@pytest.mark.parametrize("clause", [(), (1,), (-2,), (1, -2, 3), (1, 1),
                                    (1, -1), (-3, 2, -3, 1)] + [
    # every sign pattern of the clause table's widths, 0 to 3
    tuple(s * (k + 1) for k, s in enumerate(signs))
    for w in range(4) for signs in itertools.product((1, -1), repeat=w)])
def test_clause_effect_matches_definition(clause):
    w = len(clause)
    # all bras by default, else kets where each bent-leg mask flags
    for bent in [()] + list(itertools.product((False, True), repeat=w)):
        t = bl._clause_effect(clause, bent)
        assert t.orients == tuple(tz.DOWN if b else tz.UP
                                  for b in bent or (False,) * w)
        assert t.bound == 1 and t.data.dtype == np.float64
        for bits in itertools.product(range(2), repeat=w):
            sat = any(b == (lit > 0) for lit, b in zip(clause, bits))
            assert t.data[bits] == int(sat)
        if w <= 3:  # the table is keyed by the signs, not the variables
            far = tuple(lit * 7 + (lit > 0) - (lit < 0) for lit in clause)
            assert bl._clause_effect(far, bent) is t


def test_clause_effect_checks_cap_before_allocating(monkeypatch):
    masks = ((), (True, False, True))
    for bent in masks:
        bl._clause_effect((1, -2, 3), bent)  # the table entries exist
    monkeypatch.setattr(tz, "SIZE_CAP", 2**4)
    assert bl._clause_effect((1, 2, 3, 4)).data.size == 16
    with pytest.raises(SizeCapError):
        bl._clause_effect((1, 2, 3, 4, 5))
    monkeypatch.setattr(tz, "SIZE_CAP", 4)  # checked before the lookup
    for bent in masks:
        with pytest.raises(SizeCapError):
            bl._clause_effect((1, -2, 3), bent)
    monkeypatch.undo()
    with pytest.raises(SizeCapError):
        bl._clause_effect(tuple(range(1, 41)))


@st.composite
def _small_cnfs(draw):
    """CNF of at most 10 variables; variables may go unused, clauses may
    be empty or repeat and complement literals."""
    n = draw(st.integers(0, 10))
    if n == 0:
        clause = st.just(())
    else:
        lit = st.tuples(st.integers(1, n), st.sampled_from((1, -1)))
        clause = st.lists(lit.map(lambda vs: vs[0] * vs[1]), max_size=4)
    return bl.CnfFormula(n, draw(st.lists(clause, max_size=8)))


@settings(max_examples=80, deadline=None)
@given(_small_cnfs())
@example(bl.CnfFormula(0, []))
@example(bl.CnfFormula(0, [()]))
@example(bl.CnfFormula(3, [(2,)]))
@example(bl.CnfFormula(2, [(1, 1), (2, -2)]))
@example(bl.CnfFormula(4, [(1, -2), (), (3, 1, 3)]))
# closed, x1's two ends lie on one clause: a trace
@example(bl.CnfFormula(1, [(1, -1)]))
@example(bl.CnfFormula(2, [(1, 1), (2,)]))
def test_closed_count_matches_open_state_and_enumeration(cnf):
    count = bl.count_sat(cnf, engine="tensor")
    assert count == bl.count_sat(cnf, engine="enumerate")
    closed = contract_network(bl.cnf_state_network(cnf, closed=True))
    assert closed.order == 0
    psi = contract_network(bl.cnf_state_network(cnf))
    assert psi.dims == (2,) * cnf.n_vars
    assert psi.orients == (tz.DOWN,) * cnf.n_vars
    assert complex(closed.data) == psi.data.sum() == count
    for bits in itertools.product(range(2), repeat=cnf.n_vars):
        assert psi.data[bits] == cnf.evaluate(bits)
    if cnf.n_vars or cnf.clauses:  # no nodes: the complex scalar 1
        for t in (closed, psi):
            assert t.bound >= np.abs(t.data).max()


def _assert_fused(net, wires, open_wires=()):
    """No node of ``net`` is a 2-leg COPY, and each wire with two ends is
    a bond or a trace, or an open leg on its one factor leg.

    ``wires[n][k]`` is the wire of leg k of factor ``n``.
    """
    ends = {w: [] for w in open_wires}
    for n, ws in wires.items():
        for k, w in enumerate(ws):
            ends.setdefault(w, []).append((n, k))
    # (id, leg) of each code in the leg table: bond ends in pairs, then
    # the open legs
    ids, _, _, owner, axis, _, n_bond = net._legs
    codes = [(ids[s], leg) for s, leg in zip(owner, axis)]
    bonds = {frozenset(codes[i:i + 2]) for i in range(0, n_bond, 2)}
    for w, legs in ends.items():
        if len(legs) + (w in open_wires) == 2:
            assert w not in net.nodes, w
            if w in open_wires:
                k = list(open_wires).index(w)
                assert codes[n_bond + k] == legs[0]
            else:
                assert frozenset(legs) in bonds, w
    for n, t in net.nodes.items():
        assert t.order != 2 or not np.array_equal(t.data, np.eye(2)), n


@settings(max_examples=60, deadline=None)
@given(_small_cnfs())
@example(bl.CnfFormula(1, [(1, -1)]))
@example(bl.CnfFormula(2, [(1, 1), (2,)]))
@example(bl.CnfFormula(11, [(1, k) for k in range(2, 12)]))  # x1: a chain
def test_cnf_wires_with_two_ends_are_bonds(cnf):
    wires = {("clause", j): [("var", abs(lit)) for lit in c]
             for j, c in enumerate(cnf.clauses)}
    _assert_fused(bl.cnf_state_network(cnf, closed=True), wires)
    _assert_fused(bl.cnf_state_network(cnf), wires,
                  [("var", i) for i in range(1, cnf.n_vars + 1)])


def test_closed_chain_network_has_a_node_per_clause_and_end():
    # 15 clauses, and spiders only on x1 and x16, each in one clause
    net = bl.cnf_state_network(chain(16), closed=True)
    assert len(net.nodes) == 17
    assert {("var", 1), ("var", 16)} < set(net.nodes)


# -------------------------------------------------------------- constant tables

def test_tables_are_shared_and_read_only():
    # x10 is in 9 clauses: a chain of COPY nodes
    cnf = bl.CnfFormula(10, [(1, -2), (2, 3, -4), (-1, 5), (4, 5, -3), (6,),
                             (6, -7, 8, 9)] + [(10, k) for k in range(1, 10)])
    gates = [{"gate": "AND", "in": ["a", "b"], "out": "c"},
             {"gate": "COPY", "in": ["c"], "out": "d", "out2": "e"}]
    gates += [{"gate": "NOT", "in": ["a"], "out": f"n{k}"} for k in range(9)]
    for build in (lambda: bl.cnf_state_network(cnf, closed=True),
                  lambda: bl.cnf_state_network(cnf),
                  lambda: bl.network_from_circuit(gates, ["a", "b"], ["d"],
                                                  {"e": 1})):
        first, second = build(), build()
        assert list(first.nodes) == list(second.nodes)
        for n, t in first.nodes.items():
            assert not t.data.flags.writeable, n
            # a clause of 4 literals is built anew; every other node is
            # one table entry
            if n == ("clause", 5):
                assert second.nodes[n] is not t
            else:
                assert second.nodes[n] is t, n


def _reference_nodes(factors, open_wires, exact=False):
    """``bl._spider_network``'s nodes as built before the constant tables:
    each factor's all-bra tensor is made anew and re-wrapped with its bent
    legs flipped, and every COPY node is made anew."""
    ends = {w: [w] for w in open_wires}
    nodes, first = [], 0
    for n, t, wires in factors:
        labels = range(first, first + len(wires))
        first = labels.stop
        for w, label in zip(wires, labels):
            ends.setdefault(w, []).append(label)
        nodes.append((n, t, labels))
    bent, spiders = {}, []
    for w, labels in ends.items():
        if len(labels) == 2:
            bent[labels[1]] = labels[0]
            continue
        labels = labels[::-1]
        n = len(labels)
        if n <= 8:
            spiders.append((w, copy_tensor(n, exact=exact), labels))
            continue
        head = copy_tensor(3, exact=exact)
        mid = tz.bend_leg(head, 0)
        spiders.append(((w, "c", 0), head,
                        [labels[0], labels[1], (w, "c", 1)]))
        spiders += [((w, "c", k), mid,
                     [(w, "c", k), labels[k + 1], (w, "c", k + 1)])
                    for k in range(1, n - 3)]
        spiders.append(((w, "c", n - 3), mid,
                        [(w, "c", n - 3), *labels[-2:]]))
    for i, (n, t, labels) in enumerate(nodes):
        if not bent.keys().isdisjoint(labels):
            orients = tuple(tz._flip(o) if k in bent else o
                            for k, o in zip(labels, t.orients))
            nodes[i] = (n, tz.Tensor._trusted(t.data, orients, t.bound),
                        [bent.get(k, k) for k in labels])
    return spiders + nodes


def _assert_same_nodes(net, nodes, open_wires):
    assert list(net.nodes) == [n for n, _, _ in nodes]
    assert net._open == tuple(open_wires)
    for n, t, labels in nodes:
        got = net.nodes[n]
        assert net._labels[n] == tuple(labels), n
        assert (got.dims, got.orients, got.bound) == \
            (t.dims, t.orients, t.bound), n
        assert got.data.dtype == t.data.dtype, n
        assert np.array_equal(got.data, t.data), n


def _reference_clause(clause):
    data = np.ones((2,) * len(clause))
    data[tuple(int(lit < 0) for lit in clause)] = 0
    return tz.Tensor._trusted(data, (tz.UP,) * len(clause), 1)


@settings(max_examples=60, deadline=None)
@given(_small_cnfs())
@example(bl.CnfFormula(1, [(1, -1)]))
@example(bl.CnfFormula(11, [(1, k) for k in range(2, 12)]))  # x1: a chain
@example(bl.CnfFormula(7, [(1, -2, 3), (-1, 2, -4), (-3, -4, -5), (2, 5, 6),
                           (-6, 7), (-7,), (1, -3, 5, -6)]))
def test_cnf_network_matches_the_rewrapped_reference(cnf):
    factors = [(("clause", j), _reference_clause(c),
                [("var", abs(lit)) for lit in c])
               for j, c in enumerate(cnf.clauses)]
    opened = [("var", i) for i in range(1, cnf.n_vars + 1)]
    _assert_same_nodes(bl.cnf_state_network(cnf),
                       _reference_nodes(factors, opened, True), opened)
    unused = cnf.n_vars - len({abs(lit) for c in cnf.clauses for lit in c})
    if unused:
        factors.append((("var", "unused"), tz.Tensor._exact(2**unused, ()),
                        ()))
    _assert_same_nodes(bl.cnf_state_network(cnf, closed=True),
                       _reference_nodes(factors, (), True), ())


@st.composite
def _small_circuits(draw):
    """Acyclic circuit: each gate reads wires made before it; any wires
    may be outputs or postselected."""
    wires = [f"a{k}" for k in range(draw(st.integers(0, 3)))]
    inputs, gates = list(wires), []
    names = sorted(bl._GATE_FNS) + ["COPY"]
    for gi in range(draw(st.integers(0, 7))):
        name = draw(st.sampled_from(names if wires else ["CONST0", "CONST1"]))
        arity = 1 if name == "COPY" else bl._GATE_FNS[name][0]
        g = {"gate": name, "out": f"w{gi}",
             "in": [draw(st.sampled_from(wires)) for _ in range(arity)]}
        wires.append(g["out"])
        if name == "COPY":
            g["out2"] = f"v{gi}"
            wires.append(g["out2"])
        gates.append(g)
    made, outputs, post = wires[len(inputs):], [], {}
    if made:
        outputs = draw(st.lists(st.sampled_from(made), unique=True))
    if wires:
        post = draw(st.dictionaries(st.sampled_from(wires), st.integers(0, 1)))
    return gates, inputs, outputs, post


def _reference_gate(name):
    if name == "COPY":
        return tz.bend_all(copy_tensor(3))
    arity, fn = bl._GATE_FNS[name]
    return _graph_tensor(fn(*np.indices((2,) * arity)), [tz.UP] * (arity + 1))


@settings(max_examples=60, deadline=None)
@given(_small_circuits())
@example(([{"gate": "NOT", "in": ["a"], "out": f"y{k}"} for k in range(9)],
          ["a"], ["y0"], {"y1": 0, "a": 1}))  # wire a: a chain
def test_circuit_network_matches_the_rewrapped_reference(circuit):
    gates, inputs, outputs, post = circuit
    factors = [(("gate", gi), _reference_gate(g["gate"]),
                [("wire", w) for w in g["in"] + [g["out"]]
                 + ([g["out2"]] if "out2" in g else [])])
               for gi, g in enumerate(gates)]
    factors += [(("post", w), tz.Tensor(np.eye(2, dtype=complex)[bit],
                                        [tz.UP]), [("wire", w)])
                for w, bit in post.items()]
    opened = [("wire", w) for w in inputs + outputs]
    _assert_same_nodes(bl.network_from_circuit(gates, inputs, outputs, post),
                       _reference_nodes(factors[::-1], opened), opened)


# --------------------------------------------------------------------- circuits

def _circuit_state(gates, inputs, outputs=(), postselect=None):
    """``bl.circuit_state``, once its network passes :func:`_assert_fused`."""
    post = dict(postselect or {})
    wires = {("gate", gi): [("wire", w) for w in g["in"] + [g["out"]]
                            + ([g["out2"]] if "out2" in g else [])]
             for gi, g in enumerate(gates)}
    wires.update({("post", w): [("wire", w)] for w in post})
    _assert_fused(bl.network_from_circuit(gates, inputs, outputs, post),
                  wires, [("wire", w) for w in [*inputs, *outputs]])
    return bl.circuit_state(gates, inputs, outputs, post)


def test_circuit_and_gate_state():
    psi = _circuit_state(
        [{"gate": "AND", "in": ["a", "b"], "out": "c"}],
        inputs=["a", "b"], outputs=["c"])
    want = np.zeros((2, 2, 2))
    for a, b in itertools.product(range(2), repeat=2):
        want[a, b, a & b] = 1
    np.testing.assert_allclose(psi.data, want)


def test_circuit_postselect_w_state():
    # exactly-one-hot on three wires: AND(a,b) = 0 and c = NOR(a,b)
    gates = [
        {"gate": "AND", "in": ["a", "b"], "out": "t"},
        {"gate": "NOR", "in": ["a", "b"], "out": "c"},
    ]
    psi = _circuit_state(gates, inputs=["a", "b", "c"],
                         postselect={"t": 0})
    np.testing.assert_allclose(
        psi.data, tnq.standard_tensor("W", 3).data)


def test_circuit_composition_matches_function():
    # MAJ(a,b,c) = OR(AND(a,b), AND(c, XOR(a,b)))
    gates = [
        {"gate": "AND", "in": ["a", "b"], "out": "p"},
        {"gate": "XOR", "in": ["a", "b"], "out": "q"},
        {"gate": "AND", "in": ["c", "q"], "out": "r"},
        {"gate": "OR", "in": ["p", "r"], "out": "m"},
    ]
    psi = _circuit_state(gates, inputs=["a", "b", "c"], outputs=["m"])
    for a, b, c in itertools.product(range(2), repeat=3):
        assert psi.data[a, b, c, majority3(a, b, c)] == 1
        assert psi.data[a, b, c, 1 - majority3(a, b, c)] == 0


@pytest.mark.parametrize("name", ["COPY", "copy"])
def test_circuit_copy_gate_state(name):
    # COPY a -> b, c: |000> + |111> over (a, b, c)
    gates = [{"gate": name, "in": ["a"], "out": "b", "out2": "c"}]
    psi = _circuit_state(gates, inputs=["a"], outputs=["b", "c"])
    want = np.zeros((2, 2, 2))
    want[0, 0, 0] = want[1, 1, 1] = 1
    np.testing.assert_array_equal(psi.data, want)


def test_circuit_copy_then_and_is_the_identity():
    gates = [{"gate": "COPY", "in": ["a"], "out": "b", "out2": "c"},
             {"gate": "AND", "in": ["b", "c"], "out": "d"}]
    psi = _circuit_state(gates, inputs=["a"], outputs=["d"])
    np.testing.assert_array_equal(psi.data, np.eye(2))


@pytest.mark.parametrize("gates, match", [
    ([{"gate": "mux", "in": ["a"], "out": "y"}], "unknown gate 'MUX'"),
    ([{"gate": "AND", "in": ["a"], "out": "y"}], "gate AND expects 2 inputs"),
    ([{"gate": "COPY", "in": ["a", "a"], "out": "y", "out2": "z"}],
     "gate COPY expects 1 inputs"),
    ([{"gate": "COPY", "in": ["a"], "out": "y"}],
     "COPY gate needs 'out' and 'out2'"),
    ([{"gate": "COPY", "in": ["a"], "out": "y", "out2": "y"}],
     "wire 'y' produced twice"),
    ([{"gate": "NOT", "in": ["a"], "out": "y"},
      {"gate": "NOT", "in": ["a"], "out": "y"}], "wire 'y' produced twice"),
])
def test_circuit_malformed_gate_rejected(gates, match):
    with pytest.raises(ShapeError, match=match):
        bl.network_from_circuit(gates, ["a"], ["y"])


def test_circuit_dangling_wire_rejected():
    with pytest.raises(ShapeError):
        bl.circuit_state([{"gate": "NOT", "in": ["ghost"], "out": "y"}],
                         inputs=[], outputs=["y"])


@pytest.mark.parametrize("inputs, outputs, wire", [
    (["a", "a"], [], "a"),
    (["a"], ["a"], "a"),
    (["a"], ["y", "y"], "y"),
])
def test_circuit_wire_open_twice_rejected(inputs, outputs, wire):
    with pytest.raises(ShapeError, match=f"wire '{wire}' is listed twice"):
        bl.network_from_circuit([{"gate": "NOT", "in": ["a"], "out": "y"}],
                                inputs, outputs)


def test_circuit_cycle_rejected():
    # a 2-cycle, a self-loop, and a 3-cycle fed by a gate not on it
    for gates, inputs in (
        ([{"gate": "NOT", "in": ["a"], "out": "b"},
          {"gate": "NOT", "in": ["b"], "out": "a"}], []),
        ([{"gate": "NOT", "in": ["a"], "out": "a"}], []),
        ([{"gate": "AND", "in": ["x", "c"], "out": "a"},
          {"gate": "NOT", "in": ["a"], "out": "b"},
          {"gate": "NOT", "in": ["b"], "out": "c"},
          {"gate": "NOT", "in": ["y"], "out": "x"}], ["y"]),
    ):
        with pytest.raises(ShapeError, match="cyclic wiring"):
            bl.circuit_state(gates, inputs=inputs, outputs=["a"])


def test_long_chain_listed_backwards_is_acyclic():
    # 1,200 NOT gates, each listed before the gate that drives it: the
    # cycle check follows every driver chain to its end without recursing
    n = 1200
    gates = [{"gate": "NOT", "in": [f"w{k}"], "out": f"w{k + 1}"}
             for k in reversed(range(n))]
    psi = _circuit_state(gates, inputs=["w0"], outputs=[f"w{n}"])
    np.testing.assert_array_equal(psi.data, np.eye(2))


def _circuit_amplitudes(gates, inputs, outputs, postselect):
    # enumeration oracle: drive the inputs, evaluate the gates in order
    table = {g: fn for g, (_, fn) in bl._GATE_FNS.items()}
    want = np.zeros((2,) * (len(inputs) + len(outputs)))
    for bits in itertools.product(range(2), repeat=len(inputs)):
        val = dict(zip(inputs, bits))
        for g in gates:
            val[g["out"]] = table[g["gate"]](*(val[w] for w in g["in"]))
        if all(val[w] == b for w, b in postselect.items()):
            want[bits + tuple(val[w] for w in outputs)] = 1
    return want


def test_circuit_wide_fanout_wire_stays_under_cap():
    # wire a has 26 readers plus its open leg; as a single delta it would
    # hold 2^27 entries, over SIZE_CAP, so it must be a chained spider
    gates = [{"gate": "NOT", "in": ["a"], "out": f"y{k}"} for k in range(26)]
    psi = _circuit_state(gates, inputs=["a"])
    np.testing.assert_array_equal(psi.data, [1, 1])


def test_circuit_xnor_matches_enumeration():
    # XNOR shares the gate table with standard_tensor, so circuits take it
    gates = [{"gate": "XNOR", "in": ["a", "b"], "out": "e"},
             {"gate": "XNOR", "in": ["e", "c"], "out": "z"}]
    psi = _circuit_state(gates, ["a", "b", "c"], ["e", "z"])
    want = _circuit_amplitudes(gates, ["a", "b", "c"], ["e", "z"], {})
    assert want[1, 1, 0, 1, 0] == 1
    np.testing.assert_array_equal(psi.data, want)


def test_circuit_chained_wire_with_postselection_matches_enumeration():
    # wire t: produced once, read by 8 gates, postselected (10 legs)
    names = ["AND", "OR", "XOR", "NAND", "NOR", "XOR", "AND", "OR"]
    gates = [{"gate": "XOR", "in": ["a", "b"], "out": "t"}]
    gates += [{"gate": g, "in": ["t", "c" if k % 2 else "b"], "out": f"o{k}"}
              for k, g in enumerate(names)]
    gates.append({"gate": "NOT", "in": ["o3"], "out": "z"})
    outputs = ["o0", "o2", "z"]
    for post in ({"t": 1}, {"t": 0, "o5": 1}):
        net = bl.network_from_circuit(gates, ["a", "b", "c"], outputs, post)
        assert (("wire", "t"), "c", 0) in net.nodes       # chained
        psi = _circuit_state(gates, ["a", "b", "c"], outputs, post)
        want = _circuit_amplitudes(gates, ["a", "b", "c"], outputs, post)
        assert want.sum() > 0
        np.testing.assert_array_equal(psi.data, want)
