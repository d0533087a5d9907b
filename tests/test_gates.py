"""Gate/state catalogue, rewrite laws, Pauli strings, stabilizers."""

import itertools
import math

import numpy as np
import pytest

import tnq
from tnq import gates, tensor as tz
from tnq.errors import ShapeError

rng = np.random.default_rng(13)
SQ2 = math.sqrt(2.0)


def rand_unitary(d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ------------------------------------------------------------------ catalogue

def test_single_qubit_gates():
    for name, mat in gates.PAULI.items():
        np.testing.assert_allclose(
            tz.as_matrix(tnq.standard_tensor(name), 1), mat)
    h = tz.as_matrix(tnq.standard_tensor("H"), 1)
    np.testing.assert_allclose(h @ h, np.eye(2), atol=1e-12)


def test_copy_tensor_entries():
    t = tnq.copy_tensor(3)
    want = np.zeros((2, 2, 2))
    want[0, 0, 0] = want[1, 1, 1] = 1
    np.testing.assert_allclose(t.data, want)
    assert t.orients == (tz.DOWN,) * 3


def test_exact_copy_and_epsilon_tensors():
    for n_legs, d in ((1, 2), (3, 2), (4, 3)):
        t = tnq.copy_tensor(n_legs, d, exact=True)
        assert t.exact and t.bound == 1 and t.data.dtype == np.float64
        assert t == tz.Tensor._exact(np.rint(tnq.copy_tensor(n_legs, d)
                                             .data.real).astype(int),
                                     t.orients)
    eps = tnq.epsilon_tensor(3, exact=True)
    assert eps.exact and eps.bound == 1
    assert eps.data[0, 1, 2] == 1 and eps.data[1, 0, 2] == -1


def test_copy_tensor_cap_checked_before_allocating():
    with pytest.raises(tnq.SizeCapError):
        tnq.copy_tensor(17, 3)
    # a leg count this large would make d**n_legs itself slow
    with pytest.raises(tnq.SizeCapError):
        tnq.copy_tensor(10**9, exact=True)


@pytest.mark.parametrize("build", [
    gates.xor_tensor,
    lambda n: gates.dicke_state(n, 1),
    lambda n: tnq.standard_tensor("W", n),
], ids=["XOR", "DICKE", "W"])
def test_state_tables_check_cap_before_allocating(monkeypatch, build):
    monkeypatch.setattr(tz, "SIZE_CAP", 2**10)
    assert build(10).data.size == 2**10
    monkeypatch.setattr(np, "zeros", lambda *a, **k: pytest.fail("allocated"))
    for n in (11, 10**9):
        with pytest.raises(tnq.SizeCapError):
            build(n)


@pytest.mark.parametrize("n", range(1, 11))
def test_weight_tables_match_an_itertools_oracle(n):
    def table(keep):
        data = np.zeros((2,) * n, dtype=complex)
        for idx in itertools.product(range(2), repeat=n):
            data[idx] = keep(sum(idx))
        return data

    built = [(tnq.standard_tensor("XOR", n), table(lambda w: w % 2 == 0)),
             (tnq.standard_tensor("W", n), table(lambda w: w == 1))]
    built += [(tnq.standard_tensor("DICKE", n, k), table(lambda w: w == k))
              for k in range(n + 1)]
    for t, want in built:
        assert t.orients == (tz.DOWN,) * n
        assert t.data.dtype == want.dtype and np.array_equal(t.data, want)
    with pytest.raises(ShapeError, match="DICKE requires"):
        tnq.standard_tensor("DICKE", n, n + 1)


def test_xor_tensor_entries():
    t = tnq.xor_tensor(3)
    for i, j, k in itertools.product(range(2), repeat=3):
        assert t.data[i, j, k] == (1 if i ^ j ^ k == 0 else 0)


def test_epsilon_tensor_signs():
    t = tnq.epsilon_tensor(3)
    assert t.data[0, 1, 2] == 1
    assert t.data[1, 0, 2] == -1
    assert t.data[0, 0, 1] == 0
    # antisymmetry under any transposition
    np.testing.assert_allclose(t.data, -t.data.transpose(1, 0, 2))


def _perm_sign_by_cycles(perm):
    # reference: each cycle of even length flips the sign
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


@pytest.mark.parametrize("n", range(7))
def test_perm_sign_matches_cycle_count(n):
    for perm in itertools.permutations(range(n)):
        assert gates._perm_sign(perm) == _perm_sign_by_cycles(perm)


def test_epsilon_bad_order():
    with pytest.raises(ShapeError):
        tnq.epsilon_tensor(1)


def test_ghz_w_dicke():
    ghz = tnq.standard_tensor("GHZ", 3)
    assert ghz.data[0, 0, 0] == 1 and ghz.data[1, 1, 1] == 1
    assert ghz.data.sum() == 2
    w = tnq.standard_tensor("W", 3)
    assert w.data[1, 0, 0] == w.data[0, 1, 0] == w.data[0, 0, 1] == 1
    assert w.data.sum() == 3
    d22 = tnq.dicke_state(4, 2)
    assert d22.data.sum() == 6  # C(4, 2) strings


def test_bell_states():
    psim = tnq.standard_tensor("BELL", "PSI-", normalized=True)
    np.testing.assert_allclose(
        psim.data, np.array([[0, 1], [-1, 0]]) / SQ2)


EYE3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("name, params, legs, data", [
    ("CUP", (1,), "dd", [[1]]),
    ("CUP", (2,), "dd", [[1, 0], [0, 1]]),
    ("CUP", (3,), "dd", EYE3),
    ("CAP", (1,), "uu", [[1]]),
    ("CAP", (2,), "uu", [[1, 0], [0, 1]]),
    ("CAP", (3,), "uu", EYE3),
    ("GHZ", (1, 2), "d", [1, 1]),
    ("GHZ", (2, 1), "dd", [[1]]),
    ("GHZ", (2, 3), "dd", EYE3),
    ("GHZ", (3, 2), "ddd", [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]),
    ("BELL", ("PHI+",), "dd", [[1, 0], [0, 1]]),
    ("BELL", ("PHI-",), "dd", [[1, 0], [0, -1]]),
    ("BELL", ("PSI+",), "dd", [[0, 1], [1, 0]]),
    ("BELL", ("PSI-",), "dd", [[0, 1], [-1, 0]]),
])
def test_copy_built_tensors_match_literals(name, params, legs, data):
    want = tz.Tensor(data, list(legs))
    t = tnq.standard_tensor(name, *params)
    assert t == want
    # == ignores the sign of a zero; the text shows it
    assert tz.write_tntx(t) == tz.write_tntx(want)


#: Every catalogue name and the most parameters it takes
ARITY = {
    **dict.fromkeys(["I", "X", "Y", "Z", "H", "P", "CNOT", "CZ", "SWAP",
                     "TOFFOLI", "AND", "OR", "NAND", "NOR", "XNOR", "PLUS",
                     "MINUS", "Y+", "Y-"], 0),
    **dict.fromkeys(["XOR", "CUP", "CAP", "EPSILON", "W", "BELL"], 1),
    **dict.fromkeys(["COPY", "GHZ", "DICKE"], 2),
}


def test_arity_table_names_the_whole_catalogue():
    assert set(gates._CATALOGUE) == set(ARITY)


@pytest.mark.parametrize("name", ARITY)
def test_a_parameter_the_name_does_not_take_is_a_shape_error(name):
    params = ("PHI+",) if name == "BELL" else (2,) * ARITY[name]
    tnq.standard_tensor(name, *params)
    with pytest.raises(ShapeError):
        tnq.standard_tensor(name, *params, 9)


def _cnot_by_loop():
    m = np.zeros((4, 4), dtype=complex)
    for q, r in itertools.product(range(2), repeat=2):
        m[(q << 1) | (q ^ r), (q << 1) | r] = 1
    return m


def _toffoli_by_row_swap():
    m = np.eye(8, dtype=complex)
    m[[6, 7]] = m[[7, 6]]
    return m


@pytest.mark.parametrize("name, want, dims", [
    ("CNOT", _cnot_by_loop(), (2, 2)),
    ("SWAP", gates._permutation_matrix([1, 0], 2), (2, 2)),
    ("TOFFOLI", _toffoli_by_row_swap(), (2, 2, 2)),
])
def test_permutation_gates_match_references(name, want, dims):
    t = tnq.standard_tensor(name)
    assert t == tz.gate(want, dims, dims)
    assert tz.write_tntx(t) == tz.write_tntx(tz.gate(want, dims, dims))


def test_normalized_flag():
    ghz = tnq.standard_tensor("GHZ", 3, normalized=True)
    np.testing.assert_allclose(np.vdot(ghz.data, ghz.data), 1.0)


# --------------------------------------------------------------- rewrite laws

def test_cnot_from_copy_xor():
    built = gates.cnot_from_copy_xor()
    want = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    np.testing.assert_allclose(tz.as_matrix(built, 2), want, atol=1e-12)
    np.testing.assert_allclose(
        built.data, tnq.standard_tensor("CNOT").data, atol=1e-12)


def test_cnot_squares_to_identity():
    cn = tz.as_matrix(tnq.standard_tensor("CNOT"), 2)
    np.testing.assert_allclose(cn @ cn, np.eye(4), atol=1e-12)


def test_swap_is_three_cnots():
    cn = tz.as_matrix(tnq.standard_tensor("CNOT"), 2)
    # middle CNOT has control and target exchanged
    ex = np.zeros((4, 4))
    for a, b in itertools.product(range(2), repeat=2):
        ex[((a ^ b) << 1) | b, (a << 1) | b] = 1
    swap = tz.as_matrix(tnq.standard_tensor("SWAP"), 2)
    np.testing.assert_allclose(cn @ ex @ cn, swap, atol=1e-12)


def test_spider_fusion():
    # joining two COPY spiders along one bond yields a bigger COPY spider
    a = tnq.copy_tensor(3)
    b = tz.bend_leg(tnq.copy_tensor(4), 0)
    fused = tz.contract(a, [2], b, [0])
    np.testing.assert_allclose(fused.data, tnq.copy_tensor(5).data)


def test_spider_fusion_all_small_orders():
    for m, n in itertools.product(range(2, 5), repeat=2):
        if m + n - 2 > 5:
            continue
        a = tnq.copy_tensor(m)
        b = tz.bend_leg(tnq.copy_tensor(n), 0)
        fused = tz.contract(a, [m - 1], b, [0])
        np.testing.assert_allclose(fused.data, tnq.copy_tensor(m + n - 2).data)


def test_bialgebra_up_to_scalar():
    # XOR-split after COPY-merge = doubled COPY-split/XOR-merge ladder
    i2 = np.eye(2)
    merge_c = np.zeros((2, 4))
    split_x = np.zeros((4, 2))
    for x in range(2):
        merge_c[x, 3 * x] = 1
    for a, b in itertools.product(range(2), repeat=2):
        split_x[(a << 1) | b, a ^ b] += 1
    swap = tz.as_matrix(tnq.standard_tensor("SWAP"), 2).real
    lhs = split_x @ merge_c
    rhs = (np.kron(merge_c, merge_c)
           @ np.kron(np.kron(i2, swap), i2)
           @ np.kron(split_x, split_x))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_hopf_law():
    # XOR-merge after COPY-split collapses to |0><x| disconnect
    merge_x = np.zeros((2, 4))
    split_c = np.zeros((4, 2))
    for a, b in itertools.product(range(2), repeat=2):
        merge_x[a ^ b, (a << 1) | b] = 1
    for x in range(2):
        split_c[3 * x, x] = 1
    out = merge_x @ split_c
    np.testing.assert_allclose(out, np.array([[1, 1], [0, 0]]))


def test_gate_copies_through_copy_on_control():
    # copying the CNOT control commutes with applying CNOT first
    i2 = np.eye(2)
    cn = tz.as_matrix(tnq.standard_tensor("CNOT"), 2).real
    copy_ctrl = np.zeros((8, 4))
    for q, r in itertools.product(range(2), repeat=2):
        copy_ctrl[(q << 2) | (q << 1) | r, (q << 1) | r] = 1
    cn13 = np.zeros((8, 8))
    for q, m, r in itertools.product(range(2), repeat=3):
        cn13[(q << 2) | (m << 1) | (q ^ r), (q << 2) | (m << 1) | r] = 1
    np.testing.assert_allclose(copy_ctrl @ cn, cn13 @ copy_ctrl, atol=1e-12)


@pytest.mark.parametrize("name", ["AND", "OR", "NAND", "NOR", "XNOR"])
def test_logic_map_tensors_match_gate_table(name):
    fn = gates._GATE_FNS[name][1]
    t = tnq.standard_tensor(name)
    assert t.orients == (tz.DOWN, tz.DOWN, tz.UP)
    for a, b, out in itertools.product(range(2), repeat=3):
        assert t.data[a, b, out] == (fn(a, b) == out)


def test_de_morgan():
    x = gates.X.real
    and_t = tnq.standard_tensor("AND")
    or_t = tnq.standard_tensor("OR")
    conj = np.einsum("abc,ax,by,cz->xyz", and_t.data, x, x, x)
    np.testing.assert_allclose(conj, or_t.data, atol=1e-12)


def test_copy_points():
    # COPY duplicates exactly the basis kets |0>, |1>
    split = tnq.copy_tensor(3)
    for vec, dup in (([1, 0], True), ([0, 1], True), ([1, 1], False)):
        out = tz.contract(tz.bend_leg(split, 2), [2], tz.state(vec), [0])
        expect = np.multiply.outer(np.array(vec), np.array(vec))
        assert np.allclose(out.data, expect) == dup


def test_xor_copies_plus_minus():
    split = tz.bend_leg(tnq.xor_tensor(3), 2)
    for name in ("PLUS", "MINUS"):
        v = tnq.standard_tensor(name)
        out = tz.contract(split, [2], v, [0])
        expect = np.multiply.outer(v.data, v.data) / 1.0
        lam = tz.equal_up_to_scalar(out, tz.state(expect))
        assert lam is not None


def test_rotated_copy_hadamard_is_xor():
    rc = gates.rotated_copy(gates.H)
    xor_split = tz.bend_leg(tnq.xor_tensor(3), 2)
    lam = tz.equal_up_to_scalar(rc, xor_split)
    np.testing.assert_allclose(lam, 1 / SQ2, atol=1e-12)


def test_rotated_copy_random_unitary_copies_rotated_basis():
    u = rand_unitary(2)
    rc = gates.rotated_copy(u)
    for i in range(2):
        v = u.conj().T[:, i]
        out = tz.contract(rc, [2], tz.state(v), [0])
        np.testing.assert_allclose(out.data, np.multiply.outer(v, v),
                                   atol=1e-10)


def test_rotated_copy_rejects_non_unitary():
    with pytest.raises(ShapeError):
        gates.rotated_copy(np.array([[1, 1], [0, 1]]))


def test_and_from_toffoli():
    t = gates.and_from_toffoli()
    want = np.zeros((2, 2, 2))
    for a, b in itertools.product(range(2), repeat=2):
        want[a, b, a & b] = 1
    np.testing.assert_allclose(t.data, want, atol=1e-12)
    assert t.orients == (tz.DOWN,) * 3


def test_hadamard_from_and_state():
    # plugging <-| into the AND output leaves sqrt(2) x bent Hadamard
    and_state = tz.bend_leg(tnq.standard_tensor("AND"), 2)
    minus = tz.effect([1, -1])
    out = tz.contract(and_state, [2], minus, [0])
    h_bent = tz.bend_leg(tnq.standard_tensor("H"), 1)
    lam = tz.equal_up_to_scalar(out, h_bent)
    np.testing.assert_allclose(lam, SQ2, atol=1e-12)


# ------------------------------------------------------------- Pauli strings

def test_pauli_string_multiplication():
    x = gates.PauliString("X")
    y = gates.PauliString("Y")
    z = gates.PauliString("Z")
    assert (x * y).letters == "Z" and (x * y).phase == 1j
    assert (y * x).phase == -1j
    assert (x * x).letters == "I" and (x * x).phase == 1
    np.testing.assert_allclose((x * y).to_matrix(), gates.X @ gates.Y)


def test_pauli_products_match_matrix_products():
    # the product table is read off PAULI; check it back on every pair of
    # letters and phases, exactly (the entries are 0, +-1 and +-i)
    words = [gates.PauliString(c, ph) for c in "IXYZ"
             for ph in gates._PHASES]
    for p, q in itertools.product(words, repeat=2):
        pq = p * q
        assert pq.phase in gates._PHASES and len(pq.letters) == 1
        assert np.array_equal(pq.to_matrix(), p.to_matrix() @ q.to_matrix())


def test_pauli_string_multiqubit():
    a = gates.PauliString("XZ")
    b = gates.PauliString("ZX")
    ab = a * b
    np.testing.assert_allclose(
        ab.to_matrix(),
        np.kron(gates.X, gates.Z) @ np.kron(gates.Z, gates.X))


def test_pauli_string_str_and_neg():
    p = -gates.PauliString("XY", phase=1j)
    assert p.phase == -1j
    assert "XY" in str(p)


def test_bell_stabilizer_group():
    psi = tnq.standard_tensor("BELL", "PHI+", normalized=True)
    group = [gates.PauliString("II"), gates.PauliString("XX"),
             -gates.PauliString("YY"), gates.PauliString("ZZ")]
    for g in group:
        assert gates.is_stabilizer(psi, g)
    assert not gates.is_stabilizer(psi, gates.PauliString("XI"))


def test_ghz_stabilizer_group():
    psi = tnq.standard_tensor("GHZ", 3, normalized=True)
    gens = [gates.PauliString("XXX"), gates.PauliString("ZZI"),
            gates.PauliString("IZZ")]
    group = {}
    frontier = [gates.PauliString("III")]
    for bits in itertools.product(range(2), repeat=3):
        g = gates.PauliString("III")
        for i, b in enumerate(bits):
            if b:
                g = g * gens[i]
        group[(g.letters, g.phase)] = g
    assert len(group) == 8
    for g in group.values():
        assert gates.is_stabilizer(psi, g)


def test_evolve_generator_clifford():
    # HZH = X and PXP^dag = Y
    z = gates.PauliString("Z")
    out = gates.evolve_generator(gates.H, z)
    np.testing.assert_allclose(tz.as_matrix(out, 1), gates.X, atol=1e-12)
    x = gates.PauliString("X")
    out = gates.evolve_generator(gates.P, x)
    np.testing.assert_allclose(tz.as_matrix(out, 1), gates.Y, atol=1e-12)


def test_multileg_gate_tensors_read_as_whole_operators():
    # a gate tensor has its output legs then its input legs; both calls
    # must split them in half, not take the first leg as the rows
    zz = tz.gate(np.kron(gates.Z, gates.Z), (2, 2), (2, 2))
    bell = tnq.standard_tensor("BELL", "PHI+")
    assert gates.is_stabilizer(bell, zz)
    cnot, cz = tnq.standard_tensor("CNOT"), tnq.standard_tensor("CZ")
    zero, one = tz.state([1, 0]), tz.state([0, 1])
    plus, minus = tz.state([1, 1]), tz.state([1, -1])
    assert gates.is_stabilizer(tz.tensor_product(one, plus), cnot)
    assert not gates.is_stabilizer(tz.tensor_product(one, minus), cnot)
    assert gates.is_stabilizer(tz.tensor_product(zero, plus), cz)
    assert not gates.is_stabilizer(tz.tensor_product(one, minus), cz)
    # CNOT: XI -> XX, IZ -> ZZ; CZ: XI -> XZ
    for u, g, want in [(cnot, "XI", "XX"), (cnot, "IZ", "ZZ"),
                       (cz, "XI", "XZ")]:
        out = gates.evolve_generator(u, gates.PauliString(g))
        np.testing.assert_allclose(tz.as_matrix(out),
                                   gates.PauliString(want).to_matrix(),
                                   atol=1e-12)
    np.testing.assert_allclose(
        tz.as_matrix(gates.evolve_generator(cnot, cz)),
        tz.as_matrix(gates.evolve_generator(cnot, tz.as_matrix(cz))))


def test_boolean_stabilizer_all_cases():
    # the four affine-linear 1-bit functions b0 + b1*x and their Z/X images
    for b0, b1 in itertools.product(range(2), repeat=2):
        psi, op = gates.boolean_stabilizer(b0, b1)
        assert gates.is_stabilizer(psi, op)
        c0 = 1 - b1 + b0 * b1
        c1 = b0 + b1 - b0 * b1
        np.testing.assert_allclose(psi.data, [c0, c1])
        # state is the (unnormalized) +1 eigenvector of the returned Pauli
        mat = op.to_matrix()
        np.testing.assert_allclose(mat @ psi.data, psi.data, atol=1e-12)


def _permutation_matrix_by_loop(perm, d):
    # reference: P[src, dst] = 1 where digit k of src is digit perm[k] of dst
    n = len(perm)
    p = np.zeros((d**n, d**n), dtype=complex)
    for idx in itertools.product(range(d), repeat=n):
        src = 0
        dst = 0
        for k in range(n):
            dst = dst * d + idx[k]
        moved = [idx[perm[k]] for k in range(n)]
        for k in range(n):
            src = src * d + moved[k]
        p[src, dst] = 1
    return p


@pytest.mark.parametrize("d", [2, 3])
def test_permutation_matrix_matches_index_loop(d):
    # 3-cycles are not involutions, so this tells perm from its inverse
    for perm in itertools.permutations(range(3)):
        got = gates._permutation_matrix(perm, d)
        np.testing.assert_array_equal(got, _permutation_matrix_by_loop(perm, d))
    cyc = gates._permutation_matrix((1, 2, 0), d)
    assert not np.array_equal(cyc, gates._permutation_matrix((2, 0, 1), d))
