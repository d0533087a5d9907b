"""Core tensor type: construction, contraction, bending, vectorization."""

import ast
import contextlib
import itertools
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tnq
from tnq import channels as cx, tensor as tz
from tnq.errors import NumericalError, ParseError, ShapeError, SizeCapError

rng = np.random.default_rng(7)


def rand_c(*shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# ---------------------------------------------------------------- construction

def test_state_effect_operator_scalar():
    psi = tz.state([1, 0, 0, 1])
    assert psi.dims == (4,)
    assert psi.orients == (tz.DOWN,)
    phi = tz.effect([1, 0])
    assert phi.orients == (tz.UP,)
    m = tz.operator(np.eye(3))
    assert m.orients == (tz.DOWN, tz.UP)
    s = tz.scalar(2.5)
    assert s.order == 0
    assert complex(s.data) == 2.5


def test_multileg_state_shape():
    psi = tz.state(rand_c(2, 3, 4))
    assert psi.dims == (2, 3, 4)
    assert psi.orients == (tz.DOWN,) * 3


def test_gate_constructor():
    u = tz.gate(rand_c(4, 4), (2, 2), (2, 2))
    assert u.dims == (2, 2, 2, 2)
    assert u.orients == (tz.DOWN, tz.DOWN, tz.UP, tz.UP)
    np.testing.assert_allclose(tz.as_matrix(u, 2), u.data.reshape(4, 4))


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        tz.state([1.0, np.nan])
    with pytest.raises(ValueError):
        tz.state([1.0, np.inf * 1j])


def test_constructor_copies_callers_array():
    for a in (np.ones(2, dtype=complex), np.array(3 + 0j)):
        before = a.copy()
        t = tz.Tensor(a, [tz.DOWN] * a.ndim)
        a[...] = 5                  # the caller's array stays writeable
        np.testing.assert_array_equal(t.data, before)
        assert not t.data.flags.writeable
        with pytest.raises(AttributeError, match="immutable"):
            t.data = before


def test_operator_needs_matrix():
    with pytest.raises(ShapeError):
        tz.operator(np.zeros((2, 2, 2)))


# ----------------------------------------------------------------- contraction

def test_matrix_vector_contraction():
    m = rand_c(3, 3)
    v = rand_c(3)
    out = tz.contract(tz.operator(m), [1], tz.state(v), [0])
    np.testing.assert_allclose(out.data, m @ v)
    assert out.orients == (tz.DOWN,)


def test_matrix_matrix_contraction():
    a, b = rand_c(3, 4), rand_c(4, 5)
    out = tz.contract(tz.operator(a), [1], tz.operator(b), [0])
    np.testing.assert_allclose(out.data, a @ b, atol=1e-12)


def test_contraction_requires_opposite_orientation():
    v, w = tz.state(rand_c(3)), tz.state(rand_c(3))
    with pytest.raises(ShapeError):
        tz.contract(v, [0], w, [0])


def test_contraction_requires_equal_dims():
    with pytest.raises(ShapeError):
        tz.contract(tz.effect(rand_c(3)), [0], tz.state(rand_c(4)), [0])


@pytest.mark.parametrize("legs_a, legs_b, match", [
    ([1], [], "equal length"),
    ([2], [0], "out of range"),
    ([-1], [0], "out of range"),
    ([1], [3], "out of range"),
    ([1, 1], [0, 2], "duplicate"),
    ([1, 0], [0, 0], "duplicate"),
    ([0], [0], "dimension mismatch"),
    ([0], [1], "cannot contract two 'd'-oriented legs"),
])
def test_contraction_rejects_bad_pairings(legs_a, legs_b, match):
    a = tz.gate(rand_c(2, 3), (2,), (3,))      # legs 2d, 3u
    b = tz.gate(rand_c(6, 2), (3, 2), (2,))    # legs 3d, 2d, 2u
    with pytest.raises(ShapeError, match=match):
        tz.contract(a, legs_a, b, legs_b)


@pytest.mark.parametrize("pairs, match", [
    ([(0, 1), (1, 3)], "more than one trace pair"),
    ([(1, 1)], "more than one trace pair"),
    ([(0, 4)], "invalid trace pair"),
    ([(-1, 0)], "invalid trace pair"),
    ([(0, 2)], "dimensions differ"),
    ([(0, 3)], "opposite orientations"),
])
def test_trace_pairs_rejects_bad_pairs(pairs, match):
    t = tz.Tensor(rand_c(2, 2, 3, 2), "dudd")
    with pytest.raises(ShapeError, match=match):
        tz.trace_pairs(t, pairs)


def test_contraction_result_over_the_cap(monkeypatch):
    # the cap counts the result's free legs before the kernel runs
    a, b = tz.Tensor(rand_c(2, 5), "du"), tz.Tensor(rand_c(2, 7), "ud")
    monkeypatch.setattr(tz, "SIZE_CAP", 34)
    with pytest.raises(tnq.SizeCapError) as info:
        tz.contract(a, [0], b, [0])
    assert info.value.shape == (5, 7)
    monkeypatch.setattr(tz, "SIZE_CAP", 35)
    assert tz.contract(a, [0], b, [0]).dims == (5, 7)


def test_inner_product_scalar():
    v = rand_c(5)
    out = tz.contract(tz.effect(v.conj()), [0], tz.state(v), [0])
    assert out.order == 0
    np.testing.assert_allclose(complex(out.data), np.vdot(v, v))


def test_multi_leg_contraction():
    a = tz.gate(rand_c(6, 6), (2, 3), (2, 3))
    b = tz.state(rand_c(2, 3))
    out = tz.contract(a, [2, 3], b, [0, 1])
    oracle = np.einsum("ijkl,kl->ij", a.data, b.data)
    np.testing.assert_allclose(out.data, oracle)


def test_tensor_product():
    a, b = tz.state(rand_c(2)), tz.effect(rand_c(3))
    out = tz.tensor_product(a, b)
    assert out.dims == (2, 3)
    assert out.orients == (tz.DOWN, tz.UP)
    np.testing.assert_allclose(out.data, np.multiply.outer(a.data, b.data))


def test_trace_pairs():
    m = rand_c(4, 4)
    out = tz.trace_pairs(tz.operator(m), [(0, 1)])
    np.testing.assert_allclose(complex(out.data), np.trace(m))


@pytest.mark.parametrize("exact", [False, True])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_trace_pairs_matches_einsum(exact, data):
    # orders 1-5, disjoint pairs of opposite orientation; exact entries
    # below 2^bits: 53 bits in float64 storage make the sums' bound pass
    # 2^53, so the traced entries are rescanned, and 60 bits are Python
    # ints from the start
    n = data.draw(st.integers(1, 5))
    legs = data.draw(st.permutations(range(n)))
    k = data.draw(st.integers(0, n // 2))
    pairs = [tuple(legs[2 * p:2 * p + 2]) for p in range(k)]
    dims = [data.draw(st.integers(1, 3)) for _ in range(n)]
    orients = [data.draw(st.sampled_from((tz.UP, tz.DOWN))) for _ in range(n)]
    sub = list(range(n))
    for i, j in pairs:
        dims[j], orients[j], sub[j] = dims[i], tz._flip(orients[i]), i
    kept = [leg for leg in range(n) if sub.count(sub[leg]) == 1]
    inputs = "".join(chr(97 + key) for key in sub)
    spec = inputs + "->" + "".join(chr(97 + leg) for leg in kept)
    r = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if exact:
        bits = data.draw(st.sampled_from((4, 20, 40, 53, 60)))
        t = tz.Tensor._exact(r.integers(-2**bits, 2**bits, size=dims,
                                        dtype=np.int64), orients)
    else:
        t = tz.Tensor(r.normal(size=dims) + 1j * r.normal(size=dims), orients)
    out = tz.trace_pairs(t, pairs)
    assert out.orients == tuple(orients[leg] for leg in kept)
    assert isinstance(out.data, np.ndarray)
    assert out.data.shape == tuple(dims[leg] for leg in kept)
    if not exact:
        assert out.data.dtype == np.complex128 and out.bound is None
        np.testing.assert_allclose(out.data, np.einsum(spec, t.data),
                                   rtol=1e-12)
        return
    ints = np.array([int(x) for x in t.data.flat], dtype=object)
    want = np.asarray(np.einsum(spec, ints.reshape(dims)), dtype=object)
    assert [*map(int, out.data.flat)] == want.reshape(-1).tolist()
    # each entry sums the traced dims' product of entries; a float64
    # operand whose sums could pass 2^53 is rescanned on the traced ones
    terms = math.prod([dims[i] for i, _ in pairs])
    bound = terms * t.bound
    if t.data.dtype == np.float64 and bound > 2**53:
        diagonal = np.einsum(inputs + "->" + "".join(dict.fromkeys(inputs)),
                             t.data)
        bound = terms * int(np.abs(diagonal).max())
    assert out.bound == bound
    assert out.data.dtype == (object if bound > 2**53 else np.float64)


def test_permute_legs():
    t = tz.state(rand_c(2, 3, 4))
    p = tz.permute_legs(t, [2, 0, 1])
    assert p.dims == (4, 2, 3)
    np.testing.assert_allclose(p.data, t.data.transpose(2, 0, 1))


# --------------------------------------------------------------------- bending

def test_bend_flips_orientation_only():
    m = rand_c(3, 3)
    t = tz.operator(m)
    b = tz.bend_leg(t, 1)
    assert b.orients == (tz.DOWN, tz.DOWN)
    np.testing.assert_allclose(b.data, m)


def test_bend_all_is_transpose_orientation():
    t = tz.operator(rand_c(2, 2))
    b = tz.bend_all(t)
    assert b.orients == (tz.UP, tz.DOWN)
    np.testing.assert_allclose(b.data, t.data)


def test_snake_equation():
    # cup then cap on an extra wire is the identity map
    d = 3
    cup = tz.state(np.eye(d))          # legs (d, d)
    cap = tz.effect(np.eye(d))         # legs (u, u)
    v = rand_c(d)
    step1 = tz.tensor_product(tz.state(v), cup)
    out = tz.contract(step1, [0, 1], cap, [0, 1])
    np.testing.assert_allclose(out.data, v)
    assert out.orients == (tz.DOWN,)


def test_ricochet_operator_slides_around_cup():
    # (M x I)|cup> = (I x M^T)|cup>
    d = 3
    m = rand_c(d, d)
    cup = tz.state(np.eye(d))
    lhs = tz.contract(tz.operator(m), [1], cup, [0])
    mt = tz.operator(m.T)
    rhs = tz.permute_legs(tz.contract(mt, [1], cup, [1]), [1, 0])
    np.testing.assert_allclose(lhs.data, rhs.data, atol=1e-12)


def test_double_bend_is_transpose_as_matrix():
    m = rand_c(4, 4)
    b = tz.bend_all(tz.operator(m))
    # reading the bent tensor back as a matrix with swapped leg roles
    back = tz.permute_legs(b, [1, 0])
    np.testing.assert_allclose(back.data, m.T)


# ------------------------------------------------------------- conj and dagger

def test_conj_and_dagger():
    m = rand_c(3, 3)
    t = tz.operator(m)
    np.testing.assert_allclose(tz.conj(t).data, m.conj())
    assert tz.conj(t).orients == t.orients
    d = tz.dagger(t)
    assert d.orients == (tz.UP, tz.DOWN)
    # reading (row, col) = (ket leg, bra leg) recovers the adjoint matrix
    np.testing.assert_allclose(tz.as_matrix(tz.permute_legs(d, [1, 0]), 1),
                               m.conj().T)


def test_conj_of_a_scalar_is_a_scalar_tensor():
    for t in (tz.scalar(2 - 3j), tz.Tensor._exact(4, ())):
        c = tz.dagger(t)
        assert c.order == 0 and c.bound == t.bound
        assert complex(c.data) == complex(t.data).conjugate()


# --------------------------------------------------------------- vectorization

def test_col_vectorization_convention():
    a = rand_c(2, 2)
    v = tz.vectorize(tz.operator(a), "col")
    bell = np.eye(2).reshape(-1)
    np.testing.assert_allclose(v.data, np.kron(np.eye(2), a) @ bell)


def test_row_vectorization_convention():
    a = rand_c(2, 2)
    v = tz.vectorize(tz.operator(a), "row")
    bell = np.eye(2).reshape(-1)
    np.testing.assert_allclose(v.data, np.kron(a, np.eye(2)) @ bell)


def test_unvectorize_round_trip():
    a = rand_c(3, 5)
    for mode in ("col", "row"):
        v = tz.vectorize(tz.operator(a), mode)
        back = tz.unvectorize(v, 3, 5, mode)
        np.testing.assert_allclose(back.data, a)


def test_roth_lemma():
    # vec(ABC) = (C^T (x) A) vec(B), column convention
    a, b, c = rand_c(3, 3), rand_c(3, 3), rand_c(3, 3)
    lhs = tz.vectorize(tz.operator(a @ b @ c), "col").data
    rhs = np.kron(c.T, a) @ tz.vectorize(tz.operator(b), "col").data
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# ------------------------------------------------------------------ reshuffle

def test_reshuffle_identity_gives_bell_projector():
    s = tz.operator(np.eye(4))
    r = tz.reshuffle(s, 2, 2)
    bell = np.eye(2).reshape(-1)
    np.testing.assert_allclose(r.data, np.outer(bell, bell))


def test_reshuffle_involution():
    m = rand_c(9, 9)
    r2 = tz.reshuffle(tz.reshuffle(tz.operator(m), 3, 3), 3, 3)
    np.testing.assert_allclose(r2.data, m)


def test_reshuffle_rectangular():
    # d_in=2, d_out=3 superoperator <-> Choi, involution must still hold
    from tnq import channels
    m = rand_c(9, 4)
    r = channels.reshuffle_superop_choi(m, 2, 3)
    assert r.shape == (6, 6)
    back = channels.reshuffle_superop_choi(r, 2, 3)
    np.testing.assert_allclose(back, m)


def _reshuffled_by_index_formula(m, dx, dy, convention):
    """Entrywise oracle: M[(a,mu),(n,nu)] goes to S[(nu,mu),(n,a)] (col)
    or to R[(a,n),(mu,nu)] (row)."""
    shape = (dy * dy, dx * dx) if convention == "col" else (dx * dx, dy * dy)
    out = np.zeros(shape, dtype=complex)
    for a, mu, n, nu in itertools.product(range(dx), range(dy),
                                          range(dx), range(dy)):
        entry = m[a * dy + mu, n * dy + nu]
        if convention == "col":
            out[nu * dy + mu, n * dx + a] = entry
        else:
            out[a * dx + n, mu * dy + nu] = entry
    return out


@pytest.mark.parametrize("dx, dy", [(2, 3), (3, 2)])
@pytest.mark.parametrize("convention", ["col", "row"])
def test_reshuffle_unequal_factors(dx, dy, convention):
    m = rand_c(dx * dy, dx * dy)
    r = tz.reshuffle(tz.operator(m), dx, dy, convention)
    want = _reshuffled_by_index_formula(m, dx, dy, convention)
    assert r.dims == want.shape
    assert r.orients == (tz.DOWN, tz.UP)
    np.testing.assert_array_equal(r.data, want)
    back = tz.reshuffle(r, dx, dy, convention)
    np.testing.assert_array_equal(back.data, m)


@pytest.mark.parametrize("d_in, d_out", [(2, 3), (3, 2)])
def test_superop_choi_reshuffle_is_col_reshuffle(d_in, d_out):
    lam = rand_c(d_in * d_out, d_in * d_out)
    s = tz.reshuffle(tz.operator(lam), d_in, d_out)
    np.testing.assert_array_equal(
        cx.reshuffle_superop_choi(lam, d_in, d_out), s.data)
    np.testing.assert_array_equal(
        cx.reshuffle_superop_choi(s.data, d_in, d_out), lam)


def test_reshuffle_rejects_unfactorable_shapes():
    with pytest.raises(ShapeError, match="cannot reshuffle a 6x6"):
        tz.reshuffle(tz.operator(np.eye(6)), 2, 2)
    with pytest.raises(ShapeError, match="cannot reshuffle a 4x9"):
        tz.reshuffle(tz.operator(np.ones((4, 9))), 2, 3)   # row-side shape
    with pytest.raises(ShapeError, match="convention"):
        tz.reshuffle(tz.operator(np.eye(4)), 2, 2, "diag")


# ------------------------------------------------------------------------- svd

def test_svd_reconstruction():
    m = rand_c(6, 4)
    res = tz.svd(tz.operator(m))
    u = tz.as_matrix(res.u, 1)
    vh = tz.as_matrix(res.v_dagger, 1)
    np.testing.assert_allclose(u @ np.diag(res.sigma) @ vh, m, atol=1e-12)
    assert np.all(np.diff(res.sigma) <= 1e-15)


def test_svd_rank():
    m = np.outer(rand_c(5), rand_c(5))
    res = tz.svd(tz.operator(m))
    assert res.rank == 1


def _linalg_refs(tree):
    """``np.linalg`` references of a module: the routines passed to a
    ``_linalg`` call, and every other one but ``LinAlgError``."""
    passed = {id(c.args[0]) for c in ast.walk(tree)
              if isinstance(c, ast.Call) and c.args and "_linalg" in
              (getattr(c.func, "id", None), getattr(c.func, "attr", None))}
    routed, other, named = [], [], set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg"):
            named.add(id(node.value))
            if id(node) in passed:
                routed.append(node.attr)
            elif node.attr != "LinAlgError":
                other.append(ast.unparse(node))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""]
            if any("linalg" in n for n in names + [a.name for a in node.names]):
                other.append(ast.unparse(node))
    # a bare np.linalg (an alias, say) is a way around the rule too
    other += [ast.unparse(node) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr == "linalg"
              and id(node) not in named]
    return routed, other


def test_every_linalg_routine_runs_through_the_checked_core():
    # tz._linalg maps non-convergence and a non-finite result to
    # NumericalError; a routine called anywhere else would skip that rule
    routed = []
    for path in sorted(pathlib.Path(tz.__file__).parent.glob("*.py")):
        ok, other = _linalg_refs(ast.parse(path.read_text()))
        assert other == [], path.name
        routed += ok
    assert {"svd", "qr", "eigh", "eigvalsh", "eigvals", "inv"} <= set(routed)
    # the check sees a direct call, an alias and an import
    for code in ("np.linalg.svd(m)", "la = np.linalg",
                 "from numpy.linalg import eigh", "import numpy.linalg"):
        assert _linalg_refs(ast.parse(code))[1], code


# ------------------------------------------------------------------ comparison

def test_equal_up_to_scalar():
    t = tz.state(rand_c(2, 2))
    s = tz.Tensor((3 - 1j) * t.data, t.orients)
    lam = tz.equal_up_to_scalar(s, t)
    np.testing.assert_allclose(lam, 3 - 1j)
    assert tz.equal_up_to_scalar(t, tz.state(rand_c(2, 2))) is None


def test_allclose():
    t = tz.state([1, 2])
    assert tz.allclose(t, tz.state([1, 2 + 1e-12]))
    assert not tz.allclose(t, tz.state([1, 2.1]))


def test_count_rearrangements():
    # (n + m + 1)! wire-bend/exchange reshapes of an (n, m)-valence tensor
    assert tz.count_rearrangements(1, 1) == 6
    assert tz.count_rearrangements(2, 1) == 24
    # 20! fits in an int64, 21! does not
    assert tz.count_rearrangements(10, 9) == math.factorial(20)
    with pytest.raises(OverflowError):
        tz.count_rearrangements(10, 10)


# --------------------------------------------------------------- exact tensors

def exact(values, orients):
    return tz.Tensor._exact(values, orients)


def test_exact_constructor_picks_storage_by_bound():
    # entries within 2^53 are stored as float64, larger ones as Python
    # ints; the bound is the largest absolute entry either way
    t = exact(np.array([[1, -2], [3, 4]], dtype=np.int64), "du")
    assert t.exact and t.data.dtype == np.float64 and t.bound == 4
    assert t.data.tolist() == [[1, -2], [3, 4]]
    assert not t.data.flags.writeable
    edge = exact([2**53, -2**53], "d")
    assert edge.data.dtype == np.float64 and edge.bound == 2**53
    assert exact([2**53 + 1], "d").data.tolist() == [2**53 + 1]
    mixed = exact(np.array([np.int64(2**62), True, 2**80], dtype=object), "d")
    assert mixed.data.dtype == object and mixed.bound == 2**80
    assert {type(x) for x in mixed.data.flat} == {int}
    assert tz.contract(mixed, [0], tz.bend_all(mixed), [0]).data \
        == 2**124 + 1 + 2**160
    # the most negative int64 has no int64 absolute value
    assert exact(np.int64(-2**63), "").bound == 2**63
    assert exact(7, "").data.shape == ()


def test_exact_constructor_validates():
    for bad in ([1.0, 2.0], [1 + 0j], np.array([1, 0.5], dtype=object)):
        with pytest.raises(ShapeError, match="integers"):
            exact(bad, "d")
    with pytest.raises(ShapeError):
        exact([1, 2], "dd")
    with pytest.raises(ShapeError):
        exact([1, 2], "x")
    # a broadcast view: the cap is checked before any entry is read
    with pytest.raises(tnq.SizeCapError):
        exact(np.broadcast_to(np.int8(1), (tz.SIZE_CAP + 1,)), "d")


def test_public_constructors_stay_complex():
    ints = np.array([1, 2], dtype=object)
    for t in (tz.Tensor(ints, "d"), tz.state(ints), tz.effect([1, 2]),
              tz.operator(np.eye(2, dtype=int)), tz.scalar(3),
              tnq.epsilon_tensor(3)):
        assert t.data.dtype == np.complex128 and not t.exact
    assert tnq.epsilon_tensor(3, exact=True).exact


def _kernel_results(a, b):
    """Every tensor kernel applied to operands of one dtype."""
    return {
        "contract": tz.contract(a, [1], b, [0]),
        "contract to 0-d": tz.contract(a, [0, 1], tz.bend_all(a), [0, 1]),
        "trace_pairs": tz.trace_pairs(tz.contract(a, [1], b, [0]), []),
        "trace to 0-d": tz.trace_pairs(tz.contract(a, [1], b, [0]), [(0, 1)]),
        "tensor_product": tz.tensor_product(a, b),
        "0-d tensor_product": tz.tensor_product(
            tz.trace_pairs(a, [(0, 1)]), tz.trace_pairs(a, [(0, 1)])),
        "permute_legs": tz.permute_legs(a, [1, 0]),
        "bend_leg": tz.bend_leg(a, 0),
        "bend_all": tz.bend_all(a),
        "conj": tz.conj(a),
        "dagger": tz.dagger(a),
    }


@pytest.mark.parametrize("make", [exact, tz.Tensor])
def test_kernels_keep_dtype_and_0d(make):
    a = make(np.array([[1, 2], [3, 4]]), "du")
    b = make(np.array([[5, -6], [7, 8]]), "du")
    for name, out in _kernel_results(a, b).items():
        assert isinstance(out.data, np.ndarray), name
        assert out.data.dtype == a.data.dtype, name
        assert not out.data.flags.writeable, name
        if "0-d" in name:
            assert out.data.shape == () and out.orients == (), name
    assert _kernel_results(a, b)["trace to 0-d"].data == 19 + 14  # tr(ab)


def test_exact_kernels_do_not_round():
    big = exact([[2**60 + 1, 3], [5, 2**61]], "du")
    out = tz.contract(big, [1], big, [0])
    want = [[(2**60 + 1) ** 2 + 15, 3 * (2**60 + 1) + 3 * 2**61],
            [5 * (2**60 + 1) + 5 * 2**61, 15 + 2**122]]
    assert out.data.tolist() == want


def test_exact_kernels_carry_bounds():
    a = exact([[1, -2], [3, 4]], "du")
    # each result entry sums (shared dims) products of one entry each
    assert tz.contract(a, [1], a, [0]).bound == 4 * 4 * 2
    assert tz.contract(a, [0, 1], tz.bend_all(a), [0, 1]).bound == 4 * 4 * 4
    assert tz.tensor_product(a, a).bound == 16
    assert tz.trace_pairs(a, [(0, 1)]).bound == 4 * 2
    for t in (tz.permute_legs(a, [1, 0]), tz.bend_leg(a, 0), tz.bend_all(a),
              tz.conj(a), tz.trace_pairs(a, [])):
        assert t.bound == 4 and t.data.dtype == np.float64
    assert tz.operator(np.eye(2)).bound is None


def test_loose_bound_is_rescanned_once():
    # a carried bound past 2^53 over small entries: the rescan keeps the
    # kernel in float64, and the result carries the rescanned bound
    loose = tz.Tensor._trusted(np.array([[1.0, 2.0], [3.0, 4.0]]),
                               (tz.DOWN, tz.UP), 2**40)
    out = tz.contract(loose, [1], loose, [0])
    assert out.data.dtype == np.float64 and out.bound == 4 * 4 * 2
    assert out.data.tolist() == [[7, 10], [15, 22]]
    assert tz.trace_pairs(tz.tensor_product(loose, loose), [(1, 2)]).bound \
        == 4 * 4 * 2


def test_sums_past_float_exactness_fall_back_to_python_ints():
    # 2^27 * 2^27 * 2 terms = 2^55: float64 would round 2^54 + 1 to 2^54
    big = exact([[2**27, 1], [1, 2**27]], "du")
    out = tz.contract(big, [1], big, [0])
    assert out.data.dtype == object and out.bound == 2**55
    assert out.data.tolist() == [[2**54 + 1, 2**28], [2**28, 2**54 + 1]]
    assert tz.trace_pairs(out, [(0, 1)]).data == 2**55 + 2
    square = tz.tensor_product(out, out)
    assert square.data.dtype == object and square.data[0, 0, 0, 0] \
        == (2**54 + 1) ** 2
    # a Python-int operand keeps the kernel in Python ints, even with a
    # bound under 2^53: its float64 partner is read as ints too
    assert tz.contract(out, [1], big, [0]).data.dtype == object
    zero = tz.contract(out, [1], exact([[0, 0], [0, 0]], "du"), [0])
    assert zero.data.dtype == object and zero.bound == 0
    assert {type(x) for x in tz.contract(zero, [1], big, [0]).data.flat} \
        == {int}


@pytest.mark.parametrize("threshold, storage", [(-1, object),
                                                (math.inf, np.float64)])
def test_forced_kernel_paths_give_equal_results(threshold, storage,
                                                monkeypatch):
    a = exact(np.array([[1, 2], [3, 4]]), "du")
    b = exact(np.array([[5, -6], [7, 8]]), "du")
    want = _kernel_results(a, b)
    monkeypatch.setattr(tz, "_FLOAT_EXACT", threshold)
    a, b = exact(a.data.astype(int), "du"), exact(b.data.astype(int), "du")
    for name, out in _kernel_results(a, b).items():
        assert out.data.dtype == storage, name
        assert out == want[name] and out.bound == want[name].bound, name


def test_exact_equality_and_hash_across_storages(monkeypatch):
    f = exact([[1, -2], [3, 4]], "du")
    o = tz.Tensor._trusted(np.array([[1, -2], [3, 4]], dtype=object),
                           (tz.DOWN, tz.UP), 4)
    assert f.data.dtype == np.float64 and o.data.dtype == object
    assert f == o and o == f and hash(f) == hash(o)
    assert o != exact([[1, -2], [3, 5]], "du")
    assert o != tz.operator([[1, -2], [3, 4]])
    # a contraction forced onto Python ints equals its float64 twin
    want = tz.contract(f, [1], f, [0])
    monkeypatch.setattr(tz, "_FLOAT_EXACT", -1)
    got = tz.contract(f, [1], f, [0])
    assert want.data.dtype == np.float64 and got.data.dtype == object
    assert got == want and hash(got) == hash(want)
    assert len({got, want, f, o}) == 2


def test_exact_equality_and_hash_use_values():
    # big ints are distinct objects, so pointer bytes would differ
    a = exact([int("1" + "0" * 30), -1], "d")
    b = exact(np.array([int("1" + "0" * 30), -1], dtype=object), "d")
    assert a.data[0] is not b.data[0]
    assert a == b and hash(a) == hash(b)
    for make in (exact, tz.Tensor):
        m = make([[1, 2], [3, 4]], "du")
        twice = tz.permute_legs(tz.permute_legs(m, [1, 0]), [1, 0])
        assert twice == m and hash(twice) == hash(m)
    assert a != exact([int("1" + "0" * 30), 1], "d")
    assert exact([1, 2], "d") != tz.state([1, 2])
    # a complex zero equals its negative, in either part
    zero = tz.state([0.0, 1])
    for neg in (tz.state([-0.0, 1]), tz.state([complex(-0.0, -0.0), 1])):
        assert neg == zero and hash(neg) == hash(zero)


def test_mixing_exact_and_complex_raises():
    e, c = exact([[1, 0], [0, 1]], "du"), tz.operator(np.eye(2))
    with pytest.raises(ShapeError, match="exact"):
        tz.contract(e, [1], c, [0])
    with pytest.raises(ShapeError, match="exact"):
        tz.contract(c, [1], e, [0])
    with pytest.raises(ShapeError, match="exact"):
        tz.tensor_product(e, c)


def test_pairwise_kernels_fail_loudly_on_overflow():
    # finite inputs whose complex result overflows: not inf or inf+nanj
    # entries, but the NumericalError that contract_network raises
    ket, bra = tz.state([1e200, 1e200]), tz.effect([1e200, 1e200])
    big = tz.operator(np.full((2, 2), 1e308))
    for call in (lambda: tz.contract(ket, [0], bra, [0]),
                 lambda: tz.tensor_product(ket, bra),
                 lambda: tz.trace_pairs(big, [(0, 1)])):
        with np.errstate(all="ignore"), pytest.raises(NumericalError,
                                                      match="overflow"):
            call()


# ------------------------------------------------------------------ tntx files

def test_tntx_round_trip():
    t = tz.Tensor(rand_c(2, 3), (tz.DOWN, tz.UP))
    text = tz.write_tntx(t)
    back = tz.read_tntx(text)
    assert back.orients == t.orients
    np.testing.assert_allclose(back.data, t.data, atol=1e-12)


@pytest.mark.parametrize("dims", [(0,), (0, 2), (3, 0, 2)])
def test_tensor_refuses_a_leg_of_dim_0(dims):
    # no tensor has a leg of dim 0, as no TNTX file has: so every file
    # written reads back, and no kernel or plan meets an empty array
    orients = "d" * len(dims)
    with pytest.raises(ShapeError, match="dimension 0"):
        tz.Tensor(np.zeros(dims), orients)
    with pytest.raises(ShapeError, match="dimension 0"):
        tz.Tensor._exact(np.zeros(dims, dtype=int), orients)


def test_tntx_rejects_garbage():
    with pytest.raises(tnq.ParseError):
        tz.read_tntx("not a tensor\n")


def test_tntx_header_over_cap_rejected_before_allocating():
    with pytest.raises(tnq.SizeCapError) as info:
        tz.read_tntx("tntx 1\nlegs 2\n1000000 1000000\nd d\n")
    assert info.value.shape == (1000000, 1000000)


def _block_by_entry(data):
    # reference: repr of each entry's real and imaginary part, in order
    parts = []
    for z in np.asarray(data).reshape(-1):
        parts.append(repr(float(z.real)))
        parts.append(repr(float(z.imag)))
    return " ".join(parts)


def test_write_tntx_byte_identical_to_per_entry_writer():
    gen = np.random.default_rng(11)
    for dims in [(), (1,), (2, 3), (3, 2, 2)]:
        data = gen.standard_normal(dims) + 1j * gen.standard_normal(dims)
        data = np.asarray(data * 10.0 ** gen.integers(-20, 20, size=dims))
        t = tz.Tensor(data, ["d"] * len(dims))
        want = "tntx 1\nlegs {}\n{}\n{}\n{}\n".format(
            t.order, " ".join(map(str, dims)), " ".join(t.orients),
            _block_by_entry(t.data))
        assert tz.write_tntx(t) == want
    signed = tz.Tensor(np.array([complex(-0.0, 0.0), complex(0.0, -0.0),
                                 complex(1e-310, -2.5)]), ["u"])
    text = tz.write_tntx(signed)
    assert text.splitlines()[-1] == _block_by_entry(signed.data)
    assert "-0.0 0.0 0.0 -0.0" in text
    back = tz.read_tntx(text)
    assert np.signbit(back.data.real[0]) and np.signbit(back.data.imag[1])


@pytest.mark.parametrize("text, code", [
    ("tntx 1\nlegs 1\n2\nd\n1 0 0\n", "bad-header"),    # ends mid-entry
    ("tntx 1\nlegs 1\n2\nd\n1 0 x\n", "bad-token"),     # bad token first
    ("tntx 1\nlegs 1\n2\nd\n1 0 0 0 7\n", "bad-token"),  # trailing token
    ("tntx 1\nlegs x\n", "bad-header"),
    ("tntx 1\nlegs 2\n2\n", "bad-header"),                # ends in dims
    ("tntx 1\nlegs 1\n0\nd\n", "bad-token"),
    ("tntx 1\nlegs 1\n2\nd\n1 0 # 0 0\n", "bad-header"),   # comment in block
    ("tntx 1\nlegs 1\n2\nd\n1 0\r\n0 x\r\n", "bad-token"),  # CRLF lines
    ("tntx 1\nlegs 1\n2\nd\n1 0 # 0\x0c0\n", "bad-header"),  # form feed
    ("tntx 1\nlegs 1\n2\nd\n1 0 # 0\x0c0 x\n", "bad-token"),
    ("tntx 1\nlags 1\n", "bad-header"),
    ("tntx 1\nlegs 1\n2\nx\n", "bad-token"),                 # orientation
])
def test_tntx_parse_error_codes(text, code):
    with pytest.raises(ParseError) as info:
        tz.read_tntx(text)
    assert info.value.code == code


# reader parity: the block reader and the token splitter against copies of
# the per-token reference implementations they replaced

def _tokens_by_line(text):
    for line in text.splitlines():
        for tok in line.split("#", 1)[0].split():
            yield tok


_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


_TOKEN_TEXTS = st.text(alphabet="ab1.# \t\x1f\u3000" + _LINE_BREAKS,
                       max_size=30)


@settings(max_examples=200, deadline=None)
@given(_TOKEN_TEXTS)
def test_tokens_match_line_by_line_reference(text):
    assert list(tz._tokens(text)) == list(_tokens_by_line(text))


_EDGE_TOKENS = ["1_0", "+1.5", " nan", "Infinity", "1e400", "-1e400",
                "1e-400", "\uff11\uff12", "\u0663", "0x10", "1d5", "-0.0",
                ".5", "5.", "_1", "1__0", "1_", "e5", "nan(1)", "iNfInItY",
                "0b1", "1j", "--1", "1e", ""]


@pytest.mark.parametrize("tok", _EDGE_TOKENS)
def test_block_reader_float_parity(tok):
    try:
        want = float(tok)
    except ValueError:
        with pytest.raises(ParseError) as info:
            tz._read_block(iter([tok, "0"]), [1])
        assert info.value.code == "bad-token"
        return
    got = complex(tz._read_block(iter([tok, "0"]), [1])[0]).real
    assert repr(got) == repr(want)


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet="0123456789+-._eEinfatyx \uff11\u0663", min_size=1,
               max_size=8))
def test_block_reader_float_parity_generated(tok):
    test_block_reader_float_parity(tok)


_finite = st.floats(allow_nan=False, allow_infinity=False)


def _bits(data):
    return np.ascontiguousarray(data).view(np.int64)


_TNTX_CASES = st.lists(st.integers(1, 3), max_size=3).flatmap(
    lambda dims: st.tuples(st.just(tuple(dims)),
                           st.lists(_finite, min_size=2 * math.prod(dims),
                                    max_size=2 * math.prod(dims))))


@settings(max_examples=60, deadline=None)
@given(_TNTX_CASES)
@example(((2,), [-0.0, 0.0, 1e-310, -0.0]))
def test_tntx_write_read_is_identity(case):
    dims, parts = case
    data = np.array(parts).view(np.complex128)
    t = tz.Tensor(data.reshape(dims), ["d"] * len(dims))
    back = tz.read_tntx(tz.write_tntx(t))
    assert back.orients == t.orients and back.dims == t.dims
    assert np.array_equal(_bits(back.data), _bits(t.data))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.data())
def test_chx_write_read_is_identity(d_in, d_out, n_ops, data):
    parts = data.draw(st.lists(_finite, min_size=2 * d_in * d_out * n_ops,
                               max_size=2 * d_in * d_out * n_ops))
    ops = np.array(parts).view(np.complex128).reshape(n_ops, d_out, d_in)
    ops[0, 0, 0] = complex(-0.0, -0.0)
    ch = cx.kraus_channel(tuple(ops))
    back = cx.read_chx(cx.write_chx(ch))
    assert len(back.data) == n_ops
    for a, b in zip(back.data, ch.data):
        assert np.array_equal(_bits(a), _bits(b))


@pytest.mark.parametrize("block", [
    "1 0 # comment\n0 2\n", "1 0\r\n0 2\r\n", "1 0 # x\x0c0 2\n",
    "1 0 #\x850 2", "1\u2028 0 0 # y\u2029 2",
])
def test_tntx_comments_end_at_every_line_break(block):
    t = tz.read_tntx("tntx 1\nlegs 1\n2\nd\n" + block)
    assert np.array_equal(t.data, [1, 2j])


# ------------------------------------------------------------ chunked reading
# the reader splits its text a chunk of about tz._CHUNK characters at a
# time and casts tz._PIECE tokens at a time; with both set to a few units,
# tokens, '#' comments, every line break and the block's pieces fall across
# many boundaries, and the parities above must still hold

@contextlib.contextmanager
def _small_chunks(chunk, piece=3):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tz, "_CHUNK", chunk)
        mp.setattr(tz, "_PIECE", piece)
        yield


@settings(max_examples=300, deadline=None)
@given(_TOKEN_TEXTS, st.integers(1, 6))
def test_tokens_match_line_by_line_reference_in_small_chunks(text, chunk):
    with _small_chunks(chunk):
        test_tokens_match_line_by_line_reference.hypothesis.inner_test(text)


@pytest.mark.parametrize("brk", list(_LINE_BREAKS))
def test_comment_ends_at_a_line_break_across_chunks(brk):
    text = "1 #x y" + brk + "2#" + brk + "3"
    for chunk in range(1, len(text) + 1):
        with _small_chunks(chunk):
            assert list(tz._tokens(text)) == ["1", "2", "3"]


@pytest.mark.parametrize("tok", _EDGE_TOKENS)
def test_block_reader_float_parity_in_small_pieces(tok):
    with _small_chunks(1, piece=1):
        test_block_reader_float_parity(tok)


@settings(max_examples=60, deadline=None)
@given(_TNTX_CASES, st.integers(1, 8), st.integers(1, 4))
def test_tntx_write_read_is_identity_in_small_chunks(case, chunk, piece):
    with _small_chunks(chunk, piece):
        test_tntx_write_read_is_identity.hypothesis.inner_test(case)


def test_block_errors_across_pieces():
    head = "tntx 1\nlegs 1\n4\nd\n"
    with _small_chunks(2, piece=3):
        with pytest.raises(ParseError, match="wanted 8 numbers, found 7$"
                           ) as info:
            tz.read_tntx(head + "1 0 0 0 0 0 1\n")
        assert info.value.code == "bad-header"
        # a bad token in the last, short piece still wins
        with pytest.raises(ParseError, match="bad float token") as info:
            tz.read_tntx(head + "1 0 0 0 0 0 x\n")
        assert info.value.code == "bad-token"
        with pytest.raises(ParseError, match="trailing token '9'"):
            tz.read_tntx(head + "1 0 0 0 0 0 1 0 9\n")


def _traced_peak(fn):
    """Peak bytes that tracemalloc sees allocated while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_read_tntx_peak_memory_follows_the_entries():
    # full-precision tokens, as tnq writes them; the peak is the entries'
    # array plus about one chunk of tokens (it was 11.7x the array when the
    # whole text was split at once)
    gen = np.random.default_rng(18)
    data = gen.standard_normal(2**18) + 1j * gen.standard_normal(2**18)
    t = tz.Tensor(data.reshape((2,) * 18), "d" * 18)
    text = tz.write_tntx(t)
    back = []
    peak = _traced_peak(lambda: back.append(tz.read_tntx(text)))
    assert np.array_equal(back[0].data, t.data)
    assert peak <= 2 * data.nbytes


@pytest.mark.parametrize("body_mb", [4, 16])
def test_over_cap_header_fails_before_the_body_is_split(body_mb):
    # 2^27 entries declared; the cap is checked on the header, so no more
    # than the first chunk's tokens ever exist, whatever the body's length
    text = ("tntx 1\nlegs 27\n" + "2 " * 27 + "\n" + "d " * 27 + "\n"
            + "0.25 -0.5\n" * (body_mb * 2**20 // 10))
    one_chunk = _traced_peak(lambda: text[:tz._CHUNK].split())

    def read():
        with pytest.raises(SizeCapError):
            tz.read_tntx(text)

    assert _traced_peak(read) < 1.1 * one_chunk
