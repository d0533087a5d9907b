"""Input boundaries: the one array reader behind every array argument and
the matrix reader on it, the one tensor reader behind every Tensor
argument, and bounded fuzzing of the text readers, the MPS directory
reader and the CLI."""

import io
import os
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tnq
from tnq import boolean as bl, channels as cx, cli, counting
from tnq import decomp, gates, invariants, network, tensor as tz
from tnq.errors import ParseError, ShapeError, SizeCapError, TnqError

from test_tensor import _traced_peak

rng = np.random.default_rng(91)

CNOT = tz.as_matrix(tnq.standard_tensor("CNOT"))
BELL = np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2          # |Phi+><Phi+|
PROBE = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
KRAUS4 = cx.kraus_channel([np.eye(4)])
ELEM4 = cx.elementary_basis(4, 4).elements
ZZ = np.diag([1, -1, -1, 1])

# (name, entry point taking one matrix argument, a valid value for it);
# each entry returns something np.testing can compare
CASES = [
    ("OperatorBasis", lambda m: cx.OperatorBasis((m,) + ELEM4[1:]).stack(),
     ELEM4[0]),
    ("kraus_channel", lambda m: cx.kraus_channel([m]).data[0], CNOT),
    ("superop_channel", lambda m: cx.superop_channel(m, 2, 2).matrix(), CNOT),
    ("choi_channel", lambda m: cx.choi_channel(m, 2, 2).matrix(), BELL),
    ("chi_channel",
     lambda m: cx.chi_channel(m, cx.pauli_basis()).matrix(), BELL),
    ("stinespring_channel",
     lambda m: cx.stinespring_channel(m, 2).matrix(), CNOT),
    ("apply", lambda m: cx.apply(KRAUS4, m).data, BELL),
    ("entanglement_fidelity",
     lambda m: cx.entanglement_fidelity(KRAUS4, m), BELL),
    ("reshuffle_superop_choi",
     lambda m: cx.reshuffle_superop_choi(m, 2, 2), CNOT),
    ("compose_superops", lambda m: cx.compose_superops([m]).matrix(), CNOT),
    ("reduced_superop s",
     lambda m: cx.reduced_superop(m, 2, 1, [[1]], [[1]]).matrix(), CNOT),
    ("reduced_superop tau0", lambda m: cx.reduced_superop(
        np.eye(16), 1, 4, m, np.eye(4)).matrix(), BELL),
    ("reduced_superop tau1", lambda m: cx.reduced_superop(
        np.eye(16), 1, 4, BELL, m).matrix(), np.eye(4)),
    ("aapt_recover rho_as",
     lambda m: cx.aapt_recover(m, PROBE)[0].matrix(), PROBE),
    ("aapt_recover rho_out",
     lambda m: cx.aapt_recover(PROBE, m)[0].matrix(), BELL),
    ("mixed_concurrence", decomp.mixed_concurrence, BELL),
    ("purity_swap", decomp.purity_swap, BELL),
    ("purify", lambda m: decomp.purify(m).data, BELL),
    ("rotated_copy", lambda m: gates.rotated_copy(m).data, CNOT),
    ("is_stabilizer", lambda m: gates.is_stabilizer(
        tnq.standard_tensor("BELL"), m), ZZ),
    ("evolve_generator u",
     lambda m: gates.evolve_generator(m, ZZ).data, CNOT),
    ("evolve_generator g",
     lambda m: gates.evolve_generator(CNOT, m).data, ZZ),
    ("k1_compose s1", lambda m: invariants.k1_compose(
        m, gates.X, tnq.standard_tensor("BELL")), gates.H),
    ("k1_compose s2", lambda m: invariants.k1_compose(
        gates.X, m, tnq.standard_tensor("BELL")), gates.H),
    ("epsilon_det", invariants.epsilon_det, PROBE),
    ("trace_invariant",
     lambda m: invariants.trace_invariant(m, [1, 0]), PROBE),
    ("symmetrize", lambda m: invariants.symmetrize(
        tnq.standard_tensor("BELL"), [m]).data, CNOT),
]
IDS = [c[0] for c in CASES]


def _as_tensor(m):
    """``m`` as a tensor with its rows and columns split into qubit legs."""
    n = m.shape[0].bit_length() - 1
    return tz.Tensor(m.reshape((2,) * 2 * n), "d" * n + "u" * n)


@pytest.mark.parametrize("name, call, good", CASES, ids=IDS)
def test_matrix_argument_rejects_nonfinite_and_non_matrix(name, call, good):
    call(good)                                   # the valid value passes
    for bad in (np.nan, np.inf, complex(0, -np.inf)):
        m = np.array(good, dtype=complex)
        m[-1, 0] = bad
        with pytest.raises(ShapeError, match="entries must be finite"):
            call(m)
    with pytest.raises(ShapeError, match="must be a matrix"):
        call(np.reshape(good, (1,) + np.shape(good)))
    # no side of dim 0: one of its checks refuses each, before NumPy sees it
    rows, cols = np.shape(good)
    for empty in ((0, 0), (0, cols), (rows, 0)):
        with pytest.raises(ShapeError):
            call(np.zeros(empty))


@pytest.mark.parametrize("name, call, good", CASES, ids=IDS)
def test_tensor_argument_is_read_whole(name, call, good):
    np.testing.assert_array_equal(call(_as_tensor(np.asarray(good))),
                                  call(good))


NOT_GATE = [{"gate": "NOT", "in": ["a"], "out": "b"}]
GHZ3 = tnq.standard_tensor("GHZ", 3)


BELL_T = tnq.standard_tensor("BELL")
CNOT_T = tnq.standard_tensor("CNOT")
QUTRITS = tz.state(np.ones((3, 3)))
ID1 = bl.BooleanFunction(1, [0, 1])
ZERO2 = bl.BooleanFunction(2, [0] * 4)
#: the 7-prism: cubic, with 21 edges, one over the brute-force oracle's cap
PRISM14 = counting.ColorGraph(14, [e for i in range(7) for e in (
    (i, (i + 1) % 7), (7 + i, 7 + (i + 1) % 7), (i, 7 + i))])

#: (id, call): a public call on an argument outside its domain
OUT_OF_RANGE = [
    ("postselect 2",
     lambda: bl.network_from_circuit(NOT_GATE, ["a"], postselect={"b": 2})),
    ("postselect -1",
     lambda: bl.network_from_circuit(NOT_GATE, ["a"], postselect={"b": -1})),
    ("evaluate 2", lambda: bl.BooleanFunction(1, [0, 1]).evaluate((2,))),
    ("evaluate -1", lambda: bl.BooleanFunction(1, [0, 1]).evaluate((-1,))),
    ("cnf too few bits", lambda: bl.CnfFormula(2, [(1, 2)]).evaluate((0,))),
    ("cnf too many bits",
     lambda: bl.CnfFormula(2, [(1, 2)]).evaluate((0, 0, 5))),
    ("cnf bit 2", lambda: bl.CnfFormula(2, [(1, 2)]).evaluate((0, 2))),
    ("max_rank 0", lambda: decomp.mps_factor(GHZ3, max_rank=0)),
    ("max_rank -3", lambda: decomp.mps_factor(GHZ3, max_rank=-3)),
    ("depolarizing 2", lambda: cx.depolarizing_channel(2)),
    ("depolarizing -0.1", lambda: cx.depolarizing_channel(-0.1)),
    ("damping 2", lambda: cx.amplitude_damping_channel(2)),
    ("damping -0.5", lambda: cx.amplitude_damping_channel(-0.5)),
    ("DICKE", lambda: tnq.standard_tensor("DICKE")),
    ("DICKE n", lambda: tnq.standard_tensor("DICKE", 3)),
    ("BELL 1", lambda: tnq.standard_tensor("BELL", 1)),
    ("evaluate 0.7", lambda: bl.BooleanFunction(1, [0, 1]).evaluate((0.7,))),
    ("cnf bit 1.5", lambda: bl.CnfFormula(1, [(1,)]).evaluate((1.5,))),
    ("postselect 1.9",
     lambda: bl.network_from_circuit(NOT_GATE, ["a"], postselect={"b": 1.9})),
    ("evaluate '1'", lambda: bl.BooleanFunction(1, [0, 1]).evaluate(("1",))),
    ("truth 0.5", lambda: bl.BooleanFunction(1, [0.5, 1])),
    ("literal 1.5", lambda: bl.CnfFormula(2, [(1.5, 2)])),
    ("endpoint 0.5", lambda: counting.ColorGraph(4, [(0.5, 1)])),
    ("stabilizer bit 0.5", lambda: gates.boolean_stabilizer(0.5, 0)),
    ("linear coefficient 0.5", lambda: bl.linear_state(0, [0.5])),
    ("linear constant 2", lambda: bl.linear_state(2, [1])),
    ("tensor name 5", lambda: tnq.standard_tensor(5)),
    ("spin position 1.5", lambda: bl.spin_to_pseudo_boolean([(1.0, [1.5])])),
    ("spin position 0", lambda: bl.spin_to_pseudo_boolean([(1.0, [0])])),
    ("tensor leg of dim 0", lambda: tz.Tensor(np.zeros((0, 3)), "du")),
    ("empty state", lambda: tz.state([])),
    ("operator of 0 rows", lambda: tz.operator(np.zeros((0, 2)))),
    ("exact leg of dim 0",
     lambda: tz.Tensor._exact(np.zeros((0, 2), dtype=int), "du")),
    ("permutation with a repeat", lambda: tz.permute_legs(GHZ3, [0, 0, 1])),
    ("bend leg 3 of 3", lambda: tz.bend_leg(GHZ3, 3)),
    ("vectorize a state", lambda: tz.vectorize(GHZ3)),
    ("vectorize convention",
     lambda: tz.vectorize(tz.operator(gates.X), "diag")),
    ("unvectorize an operator",
     lambda: tz.unvectorize(tz.operator(gates.X), 2, 2)),
    ("unvectorize length", lambda: tz.unvectorize(tz.state(np.ones(3)), 2, 2)),
    ("unvectorize convention",
     lambda: tz.unvectorize(tz.state(np.ones(4)), 2, 2, "diag")),
    ("reshuffle a state", lambda: tz.reshuffle(GHZ3, 2, 2)),
    ("svd of a state", lambda: tz.svd(GHZ3)),
    ("equal_up_to_scalar shapes", lambda: tz.equal_up_to_scalar(GHZ3, BELL_T)),
    ("rearrangements -1", lambda: tz.count_rearrangements(-1, 0)),
    ("rearrangements past int64", lambda: tz.count_rearrangements(30, 1)),
    ("inner_product shapes",
     lambda: network.inner_product(
         network.single_node_network(GHZ3),
         network.single_node_network(BELL_T))),
    ("COPY 0 legs", lambda: gates.copy_tensor(0)),
    ("XOR 0 legs", lambda: gates.xor_tensor(0)),
    ("Pauli letter Q", lambda: gates.PauliString("XQ")),
    ("Pauli phase 2", lambda: gates.PauliString("X", 2)),
    ("Pauli lengths",
     lambda: gates.PauliString("X") * gates.PauliString("XX")),
    ("not unitary", lambda: gates.evolve_generator(np.ones((2, 2)), gates.Z)),
    ("schmidt leg 5", lambda: decomp.schmidt(GHZ3, [5])),
    ("truncate_schmidt 0",
     lambda: decomp.truncate_schmidt(decomp.schmidt(GHZ3, [0]), 0)),
    ("mps of a scalar", lambda: decomp.mps_factor(tz.scalar(1))),
    ("mps of an operator", lambda: decomp.mps_factor(tz.operator(gates.X))),
    ("truncate_mps 0",
     lambda: decomp.truncate_mps(decomp.mps_factor(GHZ3), 0)),
    ("negative sigma", lambda: decomp.entropy([-0.6, 0.8])),
    ("zero spectrum", lambda: decomp.entropy([0.0], normalize=True)),
    ("spectrum sum 2", lambda: decomp.entropy([1.0, 1.0])),
    ("concurrence zero state",
     lambda: decomp.concurrence_pure(
         tz.state(np.zeros((2, 2))), normalize=True)),
    ("concurrence unnormalized",
     lambda: decomp.concurrence_pure(tz.state(np.ones((2, 2))))),
    ("concurrence left dim 1",
     lambda: decomp.concurrence_pure(tz.state([[0.6, 0.8]]))),
    ("sym_poly k 2", lambda: decomp.sym_poly([1.0], 2)),
    ("power_sum 0", lambda: decomp.power_sum([1.0], 0)),
    ("d_concurrence k 0", lambda: decomp.d_concurrence([1.0], 0)),
    ("purify not hermitian", lambda: decomp.purify(np.triu(np.ones((2, 2))))),
    ("empty basis", lambda: cx.OperatorBasis(())),
    ("kraus matrix", lambda: KRAUS4.matrix()),
    ("convert to rep", lambda: cx.convert(KRAUS4, "ptm")),
    ("check property", lambda: cx.check(KRAUS4, "unitary")),
    ("compose no superops", lambda: cx.compose_superops([])),
    ("superop 3x3", lambda: cx.compose_superops([np.eye(3)])),
    ("probe 3x3", lambda: cx.aapt_recover(np.eye(3), np.eye(3))),
    ("unravel length 3", lambda: cx.unravel(np.ones(3), [(2, 2)])),
    ("sym_projector n 4", lambda: cx.sym_projector(4, 2)),
    ("sym_projector d 6", lambda: cx.sym_projector(2, 6)),
    ("k1 of 3x3", lambda: invariants.k1(QUTRITS)),
    ("k1_compose of 3x3",
     lambda: invariants.k1_compose(gates.H, gates.X, QUTRITS)),
    ("kempe of 2 qubits", lambda: invariants.kempe(BELL_T)),
    ("trace_invariant perm",
     lambda: invariants.trace_invariant(PROBE, [0, 0])),
    ("symmetrize no group", lambda: invariants.symmetrize(GHZ3, [])),
    ("form of no coefficients", lambda: invariants.BinaryForm(())),
    ("state of degree 0",
     lambda: invariants.state_from_form(invariants.BinaryForm([1]))),
    ("form of a qutrit",
     lambda: invariants.form_from_state(tz.state(np.ones(3)))),
    ("hessian of degree 1",
     lambda: invariants.hessian(invariants.BinaryForm([1, 2]))),
    ("discriminant of degree 2",
     lambda: invariants.cubic_discriminant(
         invariants.BinaryForm([1, 2, 3]))),
    ("davio 0", lambda: bl.davio(ID1, 0)),
    ("state mode", lambda: bl.boolean_state(ID1, "x")),
    ("partial trace 2", lambda: bl.boolean_partial_trace(ID1, 2)),
    ("stabilizer arities", lambda: bl.stabilizer_form_state(ID1, ZERO2, ID1)),
    ("enumerate an int", lambda: bl.count_sat(5, engine="enumerate")),
    ("engine", lambda: bl.count_sat(ID1, "x")),
    ("count an int", lambda: bl.count_sat(5)),
    ("uneven degrees",
     lambda: counting.count_colorings_epsilon(
         counting.ColorGraph(4, [(0, 1)] * 4 + [(2, 3)] * 2))),
    ("brute force 21 edges",
     lambda: counting.count_colorings_bruteforce(PRISM14)),
    # counts and ranks are read as ints: a non-integral one is refused
    ("cnf of 2.5 variables", lambda: bl.CnfFormula(2.5, [(1, 2)])),
    ("cnf of -1 variables", lambda: bl.CnfFormula(-1, [])),
    ("graph of 2.5 nodes", lambda: counting.ColorGraph(2.5, [(0, 1)] * 3)),
    ("graph of -1 nodes", lambda: counting.ColorGraph(-1, [])),
    ("function of 1.5 variables", lambda: bl.BooleanFunction(1.5, [0, 1])),
    ("function of '1' variables", lambda: bl.BooleanFunction("1", [0, 1])),
    ("function of 10^12 variables",
     lambda: bl.BooleanFunction(10**12, [0, 1])),
    ("max_rank 1.5", lambda: decomp.mps_factor(GHZ3, max_rank=1.5)),
    ("truncate to 1.5", lambda: decomp.truncate_mps(
        decomp.mps_factor(GHZ3), 1.5)),
    ("truncate to '2'", lambda: decomp.truncate_mps(
        decomp.mps_factor(GHZ3), "2")),
    # legs, leg counts and dims are read as ints too
    ("contract leg 0.5", lambda: tz.contract(CNOT_T, [0.5], CNOT_T, [2])),
    ("trace leg 0.5", lambda: tz.trace_pairs(CNOT_T, [(0.5, 1)])),
    # a leg list that is not a sequence, and a trace pair of three legs
    ("permute legs 3", lambda: tz.permute_legs(CNOT_T, 3)),
    ("contract legs 0 and 2", lambda: tz.contract(CNOT_T, 0, CNOT_T, 2)),
    ("schmidt legs 0", lambda: decomp.schmidt(GHZ3, 0)),
    ("trace pair of 3 legs", lambda: tz.trace_pairs(CNOT_T, [(0, 2, 1)])),
    ("permute leg 0.5", lambda: tz.permute_legs(CNOT_T, [0.5, 1, 2, 3])),
    ("bend leg 0.5", lambda: tz.bend_leg(CNOT_T, 0.5)),
    ("schmidt leg 0.5", lambda: decomp.schmidt(GHZ3, [0.5])),
    ("COPY of 2.5 legs", lambda: gates.copy_tensor(2.5)),
    ("XOR of 2.5 legs", lambda: gates.xor_tensor(2.5)),
    ("epsilon of order 3.5", lambda: gates.epsilon_tensor(3.5)),
    ("named COPY of 2.5 legs", lambda: tnq.standard_tensor("COPY", 2.5)),
    ("sym_projector d 2.5", lambda: cx.sym_projector(2, 2.5)),
    ("elementary basis of dim 1.5", lambda: cx.elementary_basis(1.5, 2)),
    ("truncate_schmidt 1.5",
     lambda: decomp.truncate_schmidt(decomp.schmidt(GHZ3, [0]), 1.5)),
    ("sym_poly k 1.5", lambda: decomp.sym_poly([0.6, 0.8], 1.5)),
    ("d_concurrence k 1.5", lambda: decomp.d_concurrence([0.6, 0.8], 1.5)),
    # rows of the wrong length, dims of another size: NumPy's ValueError
    ("unravel dims of 3", lambda: cx.unravel(np.ones(8), [(2, 2, 2)])),
    ("edge of 3 nodes", lambda: counting.ColorGraph(3, [(0, 1, 2)])),
    ("state dims of 3 for 4", lambda: tz.state(np.ones(4), (3,))),
    # singular values: numbers, 1-D, finite and nonnegative; a finite alpha
    ("entropy of nan", lambda: decomp.entropy([np.nan])),
    ("power_sum of nan", lambda: decomp.power_sum([np.nan], 1)),
    ("d_concurrence of inf", lambda: decomp.d_concurrence([np.inf, 1.0], 1)),
    ("power_sum of -1", lambda: decomp.power_sum([-1.0], 1)),
    ("power_sum of 'a'", lambda: decomp.power_sum(["a"], 1)),
    ("sym_poly of 2-D", lambda: decomp.sym_poly([[0.6, 0.8]], 1)),
    ("entropy of a scalar", lambda: decomp.entropy(1.0)),
    ("renyi alpha nan", lambda: decomp.renyi([0.6, 0.8], np.nan)),
    ("renyi alpha inf", lambda: decomp.renyi([0.6, 0.8], np.inf)),
    # strings are not numbers, though NumPy reads '0.6' as one; nor is a
    # complex value a singular value
    ("entropy of numeric strings", lambda: decomp.entropy(["0.6", "0.8"])),
    ("entropy of complex values",
     lambda: decomp.entropy(np.array([0.6, 0.8], dtype=complex))),
    # a sequence argument that is not iterable
    ("symmetrize group 5", lambda: invariants.symmetrize(GHZ3, 5)),
    ("compose_superops of 5", lambda: cx.compose_superops(5)),
    ("Pauli letters [[1.0]]", lambda: gates.PauliString([[1.0]])),
    ("Pauli letters 5", lambda: gates.PauliString(5)),
]


@pytest.mark.parametrize("call", [c for _, c in OUT_OF_RANGE],
                         ids=[i for i, _ in OUT_OF_RANGE])
def test_out_of_range_argument_is_a_shape_error(call):
    with pytest.raises(ShapeError):
        call()


def test_integral_values_are_read_as_ints():
    f = bl.BooleanFunction(2, [0, 1, 1.0, np.True_])
    m = decomp.mps_factor(GHZ3, max_rank=2.0)
    cut = decomp.truncate_mps(m, np.int64(1))[0]
    assert [s.dims for s in (m.sites[0], cut.sites[0])] == [(2, 2), (2, 1)]
    assert f.evaluate((True, np.float64(0))) == 1
    assert gates.boolean_stabilizer(np.True_, 0.0)[1] == gates.PauliString("X")
    for got, want in [
        (f.truth, (0, 1, 1, 1)),
        (bl.CnfFormula(2, [[1.0, np.int64(-2)]]).clauses[0], (1, -2)),
        (counting.ColorGraph(2, np.array([[0, 1]])).edges[0], (0, 1)),
        # counts and ranks, as integral floats and NumPy ints
        ((bl.BooleanFunction(1.0, [0, 1]).n_vars,
          bl.CnfFormula(np.int64(2), []).n_vars,
          counting.ColorGraph(2.0, [(0, 1)]).n_nodes), (1, 2, 2)),
    ]:
        assert got == want and {*map(type, got)} == {int}
    # legs, leg counts and orders
    sd = decomp.schmidt(GHZ3, [0.0])
    assert sd.left_legs == (0,) and type(sd.left_legs[0]) is int
    for got, want in [
        (tz.contract(CNOT_T, [0.0], CNOT_T, [2]),
         tz.contract(CNOT_T, [0], CNOT_T, [2])),
        (tz.trace_pairs(CNOT_T, [(0.0, 2)]), tz.trace_pairs(CNOT_T, [(0, 2)])),
        (tz.permute_legs(CNOT_T, [0.0, 1, 2, 3]), CNOT_T),
        (gates.xor_tensor(2.0), gates.xor_tensor(2)),
        (gates.epsilon_tensor(3.0), gates.epsilon_tensor(3)),
    ]:
        assert got == want


F2 = bl.BooleanFunction(2, [0, 1, 1, 1])
SIGMA = [0.6, 0.8]
STINE = np.ones((2, 2)) / 2

#: (id, call, good, low, high, extra): ``call(x)`` passes ``x`` as one
#: integer argument, or as the whole leg list if ``good`` is a list, whose
#: first leg is then the one varied; ``good`` is a valid value, ``[low,
#: high]`` (None: unbounded) its range, and ``extra`` more values to refuse
INT_ARGS = [
    # ranks
    ("truncate_schmidt r", lambda x: decomp.truncate_schmidt(
        decomp.schmidt(GHZ3, [0]), x), 1, 1, None, ()),
    ("mps_factor max_rank",
     lambda x: decomp.mps_factor(GHZ3, max_rank=x), 1, 1, None, ()),
    ("truncate_mps r", lambda x: decomp.truncate_mps(
        decomp.mps_factor(GHZ3), x), 1, 1, None, ()),
    # orders
    ("sym_poly k", lambda x: decomp.sym_poly(SIGMA, x), 1, 0, 2, ()),
    ("power_sum n", lambda x: decomp.power_sum(SIGMA, x), 1, 1, None, ()),
    ("d_concurrence k", lambda x: decomp.d_concurrence(SIGMA, x), 1, 1, 2,
     ()),
    ("epsilon_tensor order", gates.epsilon_tensor, 3, 2, 6, ()),
    # counts and dimensions
    ("copy_tensor n_legs", lambda x: gates.copy_tensor(x, 2), 1, 1, None,
     ()),
    ("copy_tensor d", lambda x: gates.copy_tensor(2, x), 1, 1, None, ()),
    ("xor_tensor n_legs", gates.xor_tensor, 1, 1, None, ()),
    ("dicke_state n", lambda x: gates.dicke_state(x, 1), 1, 0, None, ()),
    ("dicke_state k", lambda x: gates.dicke_state(3, x), 1, 0, 3, ()),
    ("W n", lambda x: tnq.standard_tensor("W", x), 1, 0, None, (2.5,)),
    ("sym_projector n", lambda x: cx.sym_projector(x, 2), 2, 2, 3, ()),
    ("sym_projector d", lambda x: cx.sym_projector(2, x), 1, 1, 5, ()),
    ("elementary_basis d_out",
     lambda x: cx.elementary_basis(x, 2).stack(), 1, 1, None, ()),
    ("elementary_basis d_in",
     lambda x: cx.elementary_basis(2, x).stack(), 1, 1, None, ()),
    ("unvectorize d_out", lambda x: tz.unvectorize(tz.state([1, 2]), x, 2),
     1, 1, None, ()),
    ("unvectorize d_in", lambda x: tz.unvectorize(tz.state([1, 2]), 2, x),
     1, 1, None, ()),
    ("unvectorize both",
     lambda x: tz.unvectorize(tz.state(np.ones(4)), x, x), 2, 1, None,
     (-2,)),
    ("as_matrix n_row_legs", lambda x: tz.as_matrix(GHZ3, x), 1, 0, 3, ()),
    ("count_rearrangements n",
     lambda x: tz.count_rearrangements(x, 1), 1, 0, 18, (10**6,)),
    ("count_rearrangements m",
     lambda x: tz.count_rearrangements(1, x), 1, 0, 18, (10**6,)),
    ("state dims", lambda x: tz.state(np.ones(2), (x, 2)), 1, 1, None, ()),
    ("gate out_dims", lambda x: tz.gate(np.eye(2), (x, 2), (1, 2)), 1, 1,
     None, ()),
    ("gate in_dims", lambda x: tz.gate(np.eye(2), (1, 2), (2, x)), 1, 1,
     None, ()),
    ("unravel dims", lambda x: cx.unravel(np.arange(4.0), [(x, 2), (2, 1)]),
     1, 1, None, ()),
    ("BooleanFunction n_vars",
     lambda x: bl.BooleanFunction(x, [0, 1]), 1, 0, None, ()),
    ("BooleanFunction truth",
     lambda x: bl.BooleanFunction(1, [x, 1]), 0, 0, 1, ()),
    ("CnfFormula n_vars", lambda x: bl.CnfFormula(x, [(1,)]), 1, 0, None,
     ()),
    ("CnfFormula literal", lambda x: bl.CnfFormula(2, [(x, 2)]), 1, -2, 2,
     ()),
    ("ColorGraph n_nodes", lambda x: counting.ColorGraph(x, []), 1, 0, None,
     ()),
    ("ColorGraph endpoint", lambda x: counting.ColorGraph(2, [(x, 0)]), 1,
     0, 1, ()),
    ("evaluate bit", lambda x: ID1.evaluate((x,)), 1, 0, 1, ()),
    ("boolean_stabilizer b0", lambda x: gates.boolean_stabilizer(x, 0), 1,
     0, 1, ()),
    ("spin position",
     lambda x: bl.spin_to_pseudo_boolean([(1.0, [x])]), 1, 1, None, ()),
    # 1-based indices
    ("davio i", lambda x: bl.davio(F2, x), 1, 1, 2, ()),
    ("boolean_partial_trace k",
     lambda x: bl.boolean_partial_trace(F2, x), 1, 1, 2, ()),
    # legs
    ("bend_leg", lambda x: tz.bend_leg(CNOT_T, x), 1, 0, 3, ()),
    ("permute_legs", lambda p: tz.permute_legs(CNOT_T, p), [0, 1, 2, 3], 0,
     3, (3,)),
    ("trace_pairs", lambda x: tz.trace_pairs(CNOT_T, [(x, 2)]), 0, 0, 3,
     ()),
    ("contract legs_a", lambda x: tz.contract(CNOT_T, [x], CNOT_T, [2]), 0,
     0, 3, ()),
    ("contract legs_b", lambda x: tz.contract(CNOT_T, [0], CNOT_T, [x]), 2,
     0, 3, ()),
    ("_split_matrix", lambda p: decomp._split_matrix(GHZ3, p), [1], 0, 2,
     (0,)),
    ("trace_invariant perm",
     lambda p: invariants.trace_invariant(PROBE, p), [0, 1], 0, 1, (3,)),
    # channel dimensions
    ("Channel d_in", lambda x: cx.Channel("choi", (np.eye(2),), x, 2), 1, 1,
     None, ()),
    ("Channel d_out", lambda x: cx.Channel("choi", (np.eye(2),), 2, x), 1,
     1, None, ()),
    ("Channel d_env", lambda x: cx.Channel(
        "stinespring", (STINE,), 2, 1, d_env=x), 2, 1, None, ()),
    ("stinespring_channel d_out",
     lambda x: cx.stinespring_channel(STINE, x), 1, 1, None, ()),
]


def _at(good, x):
    """``good`` with ``x`` in place of its first leg if it is a list."""
    return [x, *good[1:]] if isinstance(good, list) else x


def _as(good, kind):
    """``good`` as ``kind``, leg by leg if it is a list."""
    return [kind(v) for v in good] if isinstance(good, list) else kind(good)


@pytest.mark.parametrize("name, call, good, low, high, extra", INT_ARGS,
                         ids=[r[0] for r in INT_ARGS])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_integer_argument_is_read_as_an_int_in_its_range(
        name, call, good, low, high, extra, data):
    # integral floats, NumPy ints and bools give the same result, pickled
    # (so a float or bool stored in it shows) as the int does
    want = pickle.dumps(call(good))
    kinds = [float, np.int64, np.float64]
    if {*np.ravel(good)} <= {0, 1}:
        kinds.append(bool)
    for kind in kinds:
        assert pickle.dumps(call(_as(good, kind))) == want, kind
    # a value int would change, or one out of range, is a ShapeError: not
    # a TypeError, a ValueError or a result
    outside = st.integers(max_value=low - 1)
    if high is not None:
        outside |= st.integers(min_value=high + 1)
    # (max_rank=None: no cap)
    none = () if name == "mps_factor max_rank" else (None,)
    bad = [_at(good, x) for x in
           (1.5, "2", *none, low - 1, data.draw(outside))]
    if high is not None:
        bad.append(_at(good, high + 1))
    for x in bad + list(extra):
        with pytest.raises(ShapeError):
            call(x)


def test_rotated_copy_reads_a_multileg_gate_whole():
    rc = gates.rotated_copy(tnq.standard_tensor("CNOT"))
    assert rc == gates.rotated_copy(CNOT)
    assert rc.dims == (4, 4, 4)


def test_operator_basis_of_nan_matrices_is_rejected():
    nan = np.full((2, 2), np.nan)
    with pytest.raises(ShapeError, match="finite"):
        cx.OperatorBasis((nan,) * 4)
    with pytest.raises(ShapeError, match="finite"):
        cx.OperatorBasis(cx.pauli_basis().elements[:3] + (nan,))


def test_is_stabilizer_rejects_nonfinite_state():
    with pytest.raises(ShapeError, match="finite"):
        gates.is_stabilizer([1, 0, 0, np.nan], ZZ)
    with pytest.raises(ShapeError):
        gates.is_stabilizer([1, 0, 0], ZZ)


def test_matrix_argument_of_wrong_shape_or_type():
    with pytest.raises(ShapeError, match="must be 4x4, not 2x2"):
        decomp.mixed_concurrence(np.eye(2))
    with pytest.raises(ShapeError, match="must be square"):
        invariants.trace_invariant(np.ones((2, 3)), [0])
    with pytest.raises(ShapeError, match="numeric"):
        decomp.purity_swap([["a", "b"], ["c", "d"]])
    with pytest.raises(ShapeError, match="odd order"):
        decomp.purity_swap(tnq.standard_tensor("GHZ", 3))
    with pytest.raises(ShapeError, match="channel dimensions"):
        cx.stinespring_channel(np.eye(2), 0)


def test_boolean_density_checks_cap_before_allocating(monkeypatch):
    f = bl.BooleanFunction.from_callable(6, lambda *x: 1)
    product_bytes = 16 * 4**6
    monkeypatch.setattr(tz, "SIZE_CAP", 2**10)
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError):
            bl.boolean_density(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < product_bytes
    monkeypatch.setattr(tz, "SIZE_CAP", 2**12)
    assert bl.boolean_density(f).dims == (64, 64)


def _ones(n, kind=tz.state):
    """An n-leg tensor whose legs all have dimension 1."""
    return kind(np.ones(1), (1,) * n)


def _two_parts(n):
    """A network of two unbonded nodes with n open legs between them."""
    k = n // 2
    return network.Network([(0, _ones(k), range(k)),
                            (1, _ones(n - k), range(k, n))], range(n))


#: (id, n -> (function, arguments)): a call whose result has n legs of
#: dimension 1, its operands built before it runs
LEG_LIMIT = [
    ("copy_tensor", lambda n: (gates.copy_tensor, (n, 1))),
    ("state", lambda n: (tz.state, (np.ones(1), (1,) * n))),
    ("gate", lambda n: (tz.gate, (np.ones((1, 1)), (1,) * (n // 2),
                                  (1,) * (n - n // 2)))),
    ("contract", lambda n: (tz.contract, (_ones(n // 2 + 1), [0], _ones(
        n - n // 2 + 1, tz.effect), [0]))),
    ("tensor_product",
     lambda n: (tz.tensor_product, (_ones(n // 2), _ones(n - n // 2)))),
    ("contract_network", lambda n: (network.contract_network,
                                    (_two_parts(n),))),
    ("read_tntx", lambda n: (tz.read_tntx, (
        f"tntx 1\nlegs {n}\n" + "1 " * n + "\n" + "d " * n + "\n1 0\n",))),
]


@pytest.mark.parametrize("build", [b for _, b in LEG_LIMIT],
                         ids=[i for i, _ in LEG_LIMIT])
def test_more_legs_than_numpy_allows_is_a_size_cap_error(monkeypatch, build):
    # NumPy's own limit (64 legs in NumPy 2, 32 in NumPy 1), read at import
    fn, args = build(tz._MAX_LEGS)
    assert fn(*args).dims == (1,) * tz._MAX_LEGS
    fn, args = build(tz._MAX_LEGS + 1)
    for name in ("empty", "zeros"):
        monkeypatch.setattr(np, name, lambda *a, **k: pytest.fail("allocated"))
    for name in ("_dot", "_reduce"):
        monkeypatch.setattr(tz, name, lambda *a: pytest.fail("kernel ran"))
    with pytest.raises(SizeCapError, match=f" with {tz._MAX_LEGS + 1} legs "
                       "and 1 entries exceeds cap"):
        fn(*args)


def _nested(depth):
    """``[[...[1.0]...]]``: a list nested ``depth`` deep."""
    x = [1.0]
    for _ in range(depth - 1):
        x = [x]
    return x


#: values NumPy cannot read as a finite complex array
NOT_ARRAYS = {
    "ragged": [[1.0], [2.0, 3.0]],
    "nested 70 deep": _nested(70),
    "strings": [["a", "b"], ["c", "d"]],
    "10**400": [[10**400]],
    "object": [[object()]],
    # NumPy reads these as numbers, tnq does not
    "numeric strings": [["1", "0"], ["0", "1"]],
    "bytes": b"12",
}

#: (id, call on one array argument, a valid value for it, values that
#: must raise a TnqError): every entry point whose argument tz._array reads
ARRAY_ARGS = [
    ("Tensor", lambda x: tz.Tensor(x, "du"), np.eye(2), NOT_ARRAYS),
    ("Tensor orientations", lambda x: tz.Tensor(np.eye(2), x), "du",
     {**NOT_ARRAYS, "int": 5, "None": None, "array entry": [np.ones(2), "u"]}),
    # an exact tensor holds any int, 10**400 too
    ("Tensor._exact", lambda x: tz.Tensor._exact(x, "du"), [[1, 0], [0, 1]],
     {k: v for k, v in NOT_ARRAYS.items() if k != "10**400"}),
    ("state", tz.state, [0.6, 0.8], NOT_ARRAYS),
    ("effect", tz.effect, [0.6, 0.8], NOT_ARRAYS),
    ("gate", lambda x: tz.gate(x, (2,), (2,)), np.eye(2), NOT_ARRAYS),
    ("operator", tz.operator, np.eye(2), NOT_ARRAYS),
    ("scalar", tz.scalar, 2.5, NOT_ARRAYS),
    ("_matrix", decomp.purity_swap, BELL, NOT_ARRAYS),
    ("unravel", lambda x: cx.unravel(x, [(2, 2)]), np.ones(4), NOT_ARRAYS),
    ("unravel_inverse", lambda x: cx.unravel_inverse(x, [(2, 2)]),
     np.ones(4), NOT_ARRAYS),
    ("is_stabilizer", lambda x: gates.is_stabilizer(x, ZZ), [1, 0, 0, 1],
     NOT_ARRAYS),
    ("BinaryForm", invariants.BinaryForm, [1, 2, 3], NOT_ARRAYS),
]


@pytest.mark.parametrize("name, call, good, bad", ARRAY_ARGS,
                         ids=[a[0] for a in ARRAY_ARGS])
def test_array_numpy_cannot_read_is_a_package_error(name, call, good, bad):
    call(good)
    for x in bad.values():
        with pytest.raises(TnqError):
            call(x)


@pytest.mark.parametrize("call", [
    lambda: tz.Tensor(np.broadcast_to(1.0, (2**16,)), "d"),
    lambda: tz.state(np.broadcast_to(1.0, (2**16,))),
    lambda: tz.operator(np.broadcast_to(1.0, (2**8, 2**8))),
    lambda: decomp.purity_swap(np.broadcast_to(1.0, (2**8, 2**8))),
], ids=["Tensor", "state", "operator", "purity_swap"])
def test_array_argument_is_size_checked_before_any_copy(monkeypatch, call):
    # 2^16 entries held by one float: a complex copy would take 1 MiB
    monkeypatch.setattr(tz, "SIZE_CAP", 2**10)

    def refused():
        with pytest.raises(SizeCapError, match="exceeds cap"):
            call()

    assert _traced_peak(refused) < 64 * 2**10


OP_T = tz.operator(gates.H)
KET = tz.state([0.6, 0.8])

#: (id, call on one Tensor argument, a valid value for it, a Tensor of the
#: wrong leg count or None): every entry point whose argument tz._tensor
#: reads
TENSOR_ARGS = [
    ("as_matrix", tz.as_matrix, CNOT_T, None),
    ("contract a", lambda x: tz.contract(x, [0], CNOT_T, [2]), CNOT_T, None),
    ("contract b", lambda x: tz.contract(CNOT_T, [0], x, [2]), CNOT_T, None),
    ("tensor_product a", lambda x: tz.tensor_product(x, KET), KET, None),
    ("tensor_product b", lambda x: tz.tensor_product(KET, x), KET, None),
    ("trace_pairs", lambda x: tz.trace_pairs(x, [(0, 2)]), CNOT_T, None),
    ("permute_legs", lambda x: tz.permute_legs(x, [1, 0, 2]), GHZ3, None),
    ("bend_leg", lambda x: tz.bend_leg(x, 0), GHZ3, None),
    ("bend_all", tz.bend_all, GHZ3, None),
    ("conj", tz.conj, GHZ3, None),
    ("dagger", tz.dagger, GHZ3, None),
    ("vectorize", tz.vectorize, OP_T, GHZ3),
    ("unvectorize", lambda x: tz.unvectorize(x, 2, 2),
     tz.state(np.ones(4)), BELL_T),
    ("reshuffle", lambda x: tz.reshuffle(x, 2, 1), OP_T, GHZ3),
    ("svd", tz.svd, OP_T, GHZ3),
    ("equal_up_to_scalar a", lambda x: tz.equal_up_to_scalar(x, KET), KET,
     None),
    ("equal_up_to_scalar b", lambda x: tz.equal_up_to_scalar(KET, x), KET,
     None),
    ("allclose a", lambda x: tz.allclose(x, KET), KET, None),
    ("allclose b", lambda x: tz.allclose(KET, x), KET, None),
    ("write_tntx", tz.write_tntx, KET, None),
    ("Network node", lambda x: network.Network([(0, x, "ab")], "ab"),
     BELL_T, None),
    ("single_node_network", network.single_node_network, GHZ3, None),
    ("schmidt", lambda x: decomp.schmidt(x, [0]), GHZ3, None),
    ("schmidt_spectrum", decomp.schmidt_spectrum, GHZ3, None),
    ("concurrence_pure",
     lambda x: decomp.concurrence_pure(x, normalize=True), BELL_T, None),
    ("mps_factor", decomp.mps_factor, GHZ3, None),
    ("MPS site", lambda x: decomp.MPS((x,), ()), KET, BELL_T),
    ("j1", invariants.j1, GHZ3, None),
    ("j2", invariants.j2, GHZ3, None),
    ("k1", invariants.k1, BELL_T, None),
    ("k1_compose",
     lambda x: invariants.k1_compose(gates.H, gates.X, x), BELL_T, None),
    ("kempe", invariants.kempe, GHZ3, None),
    ("form_from_state", invariants.form_from_state, GHZ3, None),
    ("symmetrize", lambda x: invariants.symmetrize(x, [[1, 0, 2]]), GHZ3,
     None),
    ("antisymmetrize", invariants.antisymmetrize, GHZ3, None),
    ("diagonal_map", bl.diagonal_map, GHZ3, None),
]


@pytest.mark.parametrize("name, call, good, wrong", TENSOR_ARGS,
                         ids=[a[0] for a in TENSOR_ARGS])
def test_tensor_argument_is_read_by_the_tensor_rule(name, call, good, wrong):
    call(good)
    for x in ([0.6, 0.8], np.array([0.6, 0.8]), None):
        with pytest.raises(ShapeError, match="must be a Tensor"):
            call(x)
    if wrong is not None:
        with pytest.raises(ShapeError,
                           match=f"has {wrong.order} legs, not "):
            call(wrong)


# ---------------------------------------------------------------- fuzzing

#: Text that starts like each format, so the fuzz gets past the magic line.
_HEADS = st.sampled_from([
    "", "tntx 1\nlegs ", "tntx 1\nlegs 2\n2 2\nd u\n", "chx 1 kraus ",
    "chx 1 chi 2 2\n", "chx 1 stinespring 1 2 ", "chx 1 superop ",
    "p cnf ", "p cnf 3 2\n", "0 1\n0 2\n1 2\n",
])
_TAILS = st.one_of(
    st.text(alphabet="0123456789 -+.#enaifjdupcxklt\n\r\t", max_size=40),
    st.text(max_size=20),
)
_TEXT = st.builds(lambda h, t: h + t, _HEADS, _TAILS)


@settings(max_examples=150, deadline=None)
@given(_TEXT)
def test_text_readers_raise_only_package_errors(text):
    for read in (tz.read_tntx, cx.read_chx, bl.parse_dimacs,
                 counting.parse_edgelist):
        try:
            read(text)
        except TnqError:
            pass


_ARGVS = [
    ["sat", "count", "{f}"],
    ["coloring", "{f}"],
    ["channel", "check", "--in", "{f}"],
    ["channel", "convert", "--from", "kraus", "--to", "chi", "--in", "{f}",
     "--out", "{d}/out.chx"],
    ["mps", "factor", "--in", "{f}", "--out", "{d}/mps"],
    ["invariants", "--in", "{f}"],
    ["fidelity", "--in", "{f}"],
    ["fidelity", "--in", "{d}/id.chx", "--state", "{f}"],
]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "id.chx").write_text(cx.write_chx(cx.kraus_channel([np.eye(2)])))
    return d


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_ARGVS),
       st.one_of(_TEXT.map(lambda s: s.encode("utf-8")),
                 st.binary(max_size=20)))
def test_cli_on_arbitrary_input_returns_an_exit_code(fuzz_dir, argv, raw):
    src = fuzz_dir / "input"
    src.write_bytes(raw)
    argv = [a.format(f=src, d=fuzz_dir) for a in argv]
    code = cli.run(argv, out=io.StringIO(), err=io.StringIO())
    assert code in (0, 1, 2, 3)


#: argv tokens: every command word and option, help flags, unknown flags,
#: the files of ``argv_dir``, and free text that names no other directory
_TOKENS = st.one_of(
    st.sampled_from([
        "sat", "count", "coloring", "channel", "convert", "check", "mps",
        "factor", "invariants", "fidelity", "--from", "--to", "--in",
        "--out", "--basis", "--truncate", "--state", "--oracle", "kraus",
        "choi", "chi", "superop", "stinespring", "pauli", "elem", "-h",
        "--help", "--he", "-x", "--tol", "--", "-", "0", "2"]),
    st.sampled_from(["f.cnf", "theta.txt", "ad.chx", "psi.tntx", "out", "",
                     "f.cnf\x00", "out\x00"]),
    st.text(max_size=8).filter(lambda t: "/" not in t
                               and t not in (".", "..")),
)


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("argv")
    (d / "f.cnf").write_text("p cnf 3 2\n1 2 0\n-1 3 0\n")
    (d / "theta.txt").write_text("0 1\n0 1\n0 1\n")
    (d / "ad.chx").write_text(cx.write_chx(cx.amplitude_damping_channel(.3)))
    (d / "psi.tntx").write_text(tz.write_tntx(tz.state(np.ones(8), (2,) * 3)))
    return d


#: command heads the random tokens follow, so they land in file positions
_HEADS_ARGV = st.sampled_from([
    [], ["sat", "count"], ["coloring"], ["channel", "check", "--in"],
    ["channel", "convert", "--from", "kraus", "--to", "chi", "--in",
     "ad.chx", "--out"],
    ["mps", "factor", "--in", "psi.tntx", "--out"], ["invariants", "--in"],
    ["fidelity", "--in", "ad.chx", "--state"],
])


@settings(max_examples=300, deadline=None)
@given(st.builds(lambda head, tail: head + tail, _HEADS_ARGV,
                 st.lists(_TOKENS, max_size=8)))
def test_cli_on_arbitrary_argv_returns_an_exit_code(argv_dir, argv):
    # relative paths only, so every file a command writes is in argv_dir
    cwd = os.getcwd()
    os.chdir(argv_dir)
    try:
        code = cli.run(argv, out=io.StringIO(), err=io.StringIO())
    except SystemExit as exc:
        pytest.fail(f"SystemExit({exc.code}) escaped run({argv!r})")
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2, 3)


@pytest.fixture(scope="module")
def mps3(tmp_path_factory):
    """A directory to corrupt, and its files as a valid 3-site MPS."""
    d = tmp_path_factory.mktemp("mps3")
    psi = tz.state(rng.normal(size=8) + 0j, (2, 2, 2))
    decomp.save_mps(decomp.mps_factor(psi), d)
    return d, {p.name: p.read_bytes() for p in d.iterdir()}


_MEMBERS = st.sampled_from(["manifest.txt", "site_0.tntx", "site_1.tntx",
                            "site_2.tntx", "sigma_0.txt", "sigma_1.txt"])
_SITE_DIMS = st.lists(st.integers(1, 3), min_size=0, max_size=4)


def _site_text(dims):
    """A well-formed TNTX tensor whose legs may not fit the chain."""
    return tz.write_tntx(tz.Tensor(np.ones(dims), "d" * len(dims))).encode()


@settings(max_examples=100, deadline=None)
@given(_MEMBERS, st.one_of(
    st.binary(max_size=24),                                   # bad bytes
    st.integers(-2, 6).map(lambda n: f"mps {n}\n".encode()),  # bad counts
    _SITE_DIMS.map(_site_text),                               # bad bonds
    st.sampled_from([None, b"\xff", b"mps 3\n\xff", b"1e999 nan -1"]),
))
def test_load_mps_raises_only_package_errors(mps3, member, raw):
    d, files = mps3
    for name, data in files.items():
        (d / name).write_bytes(data)
    if raw is None:
        (d / member).unlink()
    else:
        (d / member).write_bytes(raw)
    try:
        decomp.load_mps(d)
    except TnqError:
        pass


def test_load_mps_non_utf8_manifest_is_a_parse_error(tmp_path):
    (tmp_path / "manifest.txt").write_bytes(b"\xff")
    with pytest.raises(ParseError, match="not UTF-8"):
        decomp.load_mps(tmp_path)
