"""Polynomial invariants, epsilon contractions, binary-form covariants."""

import functools
import itertools
import math

import numpy as np
import pytest

import tnq
from tnq import invariants as inv, tensor as tz
from tnq.errors import NumericalError, ShapeError
from tnq.gates import _permutation_matrix

rng = np.random.default_rng(23)
SQ2 = math.sqrt(2.0)


def rand_c(*shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def rand_unitary(d):
    q, r = np.linalg.qr(rand_c(d, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def schmidt_state(lam):
    # two-qubit state with Schmidt probabilities (lam, 1 - lam)
    return tz.state(np.diag([math.sqrt(lam), math.sqrt(1 - lam)]))


# ------------------------------------------------------------------- J1/J2/K1

def test_j1_is_norm():
    v = rand_c(2, 2)
    np.testing.assert_allclose(inv.j1(tz.state(v)), (np.abs(v) ** 2).sum())


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 1.0])
def test_j2_k1_general_row(lam):
    psi = schmidt_state(lam)
    np.testing.assert_allclose(inv.j2(psi), 2 * lam * (lam - 1) + 1,
                               atol=1e-10)
    np.testing.assert_allclose(abs(inv.k1(psi)),
                               2 * math.sqrt(lam * (1 - lam)), atol=1e-10)


def test_j2_product_state_row():
    psi = tz.state(np.multiply.outer([0.6, 0.8], [1 / SQ2, 1j / SQ2]))
    np.testing.assert_allclose(inv.j2(psi), 1.0, atol=1e-12)
    np.testing.assert_allclose(abs(inv.k1(psi)), 0.0, atol=1e-12)


def test_j2_and_type_state():
    psi = tz.state(np.array([[1, 1], [1, 0]]) / math.sqrt(3))
    np.testing.assert_allclose(inv.j2(psi), 7 / 9, atol=1e-10)


def test_j2_two_computation_paths_agree():
    # via the reduced density matrix and via the Schmidt spectrum
    from tnq import decomp
    psi = tz.state(rand_c(2, 2) / 2)
    v = psi.data / np.linalg.norm(psi.data)
    psi = tz.state(v)
    sd = decomp.schmidt(psi, [0])
    np.testing.assert_allclose(inv.j2(psi), np.sum(sd.sigma**4), atol=1e-12)


def test_j2_lu_invariance():
    psi = tz.state(rand_c(2, 2))
    v = psi.data / np.linalg.norm(psi.data)
    base = inv.j2(tz.state(v))
    for _ in range(20):
        u1, u2 = rand_unitary(2), rand_unitary(2)
        w = u1 @ v @ u2.T
        np.testing.assert_allclose(inv.j2(tz.state(w)), base, atol=1e-10)


def test_k1_slocc_scaling():
    # K1 picks up det(S1) det(S2) under local invertible maps
    psi = tz.state(rand_c(2, 2))
    s1, s2 = rand_c(2, 2), rand_c(2, 2)
    out = inv.k1_compose(s1, s2, psi)
    want = inv.k1(psi) * np.linalg.det(s1) * np.linalg.det(s2)
    np.testing.assert_allclose(out, want, atol=1e-10)


# ------------------------------------------------------ epsilon and loop nets

def test_epsilon_det_matches_numpy():
    for n in (2, 3, 4):
        m = rand_c(n, n)
        np.testing.assert_allclose(inv.epsilon_det(tz.operator(m)),
                                   np.linalg.det(m), atol=1e-10)


def test_kempe_matches_einsum_oracle():
    v = rand_c(2, 2, 2)
    psi = tz.state(v / np.linalg.norm(v))
    oracle = np.einsum("ijk,ilm,nlo,pjo,pqm,nqk->", psi.data,
                       psi.data.conj(), psi.data, psi.data.conj(),
                       psi.data, psi.data.conj())
    np.testing.assert_allclose(inv.kempe(psi), oracle, atol=1e-10)


def test_kempe_lu_invariant():
    v = rand_c(2, 2, 2)
    psi = tz.state(v / np.linalg.norm(v))
    base = inv.kempe(psi)
    for _ in range(10):
        us = [rand_unitary(2) for _ in range(3)]
        w = np.einsum("ai,bj,ck,ijk->abc", us[0], us[1], us[2], psi.data)
        np.testing.assert_allclose(inv.kempe(tz.state(w)), base, atol=1e-9)


def test_trace_invariants():
    m = rand_c(3, 3)
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    np.testing.assert_allclose(inv.trace_invariant(rho, [0]),
                               np.trace(rho), atol=1e-12)
    np.testing.assert_allclose(inv.trace_invariant(rho, [1, 0]),
                               np.trace(rho @ rho), atol=1e-12)
    np.testing.assert_allclose(inv.trace_invariant(rho, [1, 2, 0]),
                               np.trace(rho @ rho @ rho), atol=1e-12)
    # disjoint cycles multiply
    np.testing.assert_allclose(inv.trace_invariant(rho, [1, 0, 2]),
                               np.trace(rho @ rho) * np.trace(rho),
                               atol=1e-12)


@pytest.mark.parametrize("rho", [np.eye(2) / 2, np.array([[0.5]])])
def test_trace_invariant_of_no_copies_is_one(rho):
    # zero copies are the empty product, whatever rho is
    assert inv.trace_invariant(rho, []) == 1


def test_trace_invariant_equals_the_kronecker_chain_exactly():
    m = rand_c(3, 3)
    for perm in ([0], [1, 0], [1, 2, 0], [1, 0, 2]):
        big = functools.reduce(np.kron, [m] * len(perm))
        want = complex(np.trace(_permutation_matrix(perm, 3) @ big))
        assert inv.trace_invariant(m, perm) == want


def test_trace_invariant_checks_cap_on_every_dimension(monkeypatch):
    # n copies hold d^(2n) entries: a 1x1 state never grows, although 14
    # copies have more legs than the cap has bits
    cycle = list(range(1, 14)) + [0]
    assert inv.trace_invariant(np.array([[0.5]]), cycle) == 0.5**14
    monkeypatch.setattr(tz, "SIZE_CAP", 2**8)
    assert inv.trace_invariant(np.array([[0.5]]), cycle) == 0.5**14
    qubit = np.eye(2) / 2
    assert inv.trace_invariant(qubit, [1, 2, 3, 0]) == pytest.approx(1 / 8)
    with pytest.raises(tnq.SizeCapError, match="^permutation operator with 2 "
                       "legs and 1024 entries exceeds cap: at most "
                       f"{tz._MAX_LEGS} legs and 256 entries$"):
        inv.trace_invariant(qubit, [1, 2, 3, 4, 0])


@pytest.mark.parametrize("n", [33, 100])
def test_trace_invariant_of_a_scalar_past_numpy_axis_limit(n):
    # n copies of a 1x1 state: the permutation operator is 1x1, though
    # 2n axes of dimension 1 would pass NumPy's limit of 64
    perm = list(range(1, n)) + [0]
    assert inv.trace_invariant(np.array([[0.5]]), perm) == 0.5**n


# --------------------------------------------------------------- symmetrizers

def test_symmetrize_leg_permutations():
    t = tz.state(rand_c(2, 2, 2))
    perms = [list(p) for p in itertools.permutations(range(3))]
    s = inv.symmetrize(t, perms)
    for p in perms:
        np.testing.assert_allclose(tz.permute_legs(s, p).data, s.data,
                                   atol=1e-12)


def test_symmetrize_is_projector():
    t = tz.state(rand_c(2, 2))
    perms = [[0, 1], [1, 0]]
    once = inv.symmetrize(t, perms)
    twice = inv.symmetrize(once, perms)
    np.testing.assert_allclose(once.data, twice.data, atol=1e-12)


def test_symmetrize_copy_under_hadamard_group():
    # averaging COPY over {I, H x H x H} gives (COPY + XOR / sqrt 2) / 2
    h3 = np.kron(np.kron(tnq.gates.H, tnq.gates.H), tnq.gates.H)
    copy = tnq.copy_tensor(3)
    s = inv.symmetrize(copy, [np.eye(8), h3])
    want = 0.5 * (copy.data + tnq.xor_tensor(3).data / SQ2)
    np.testing.assert_allclose(s.data, want, atol=1e-12)


def test_antisymmetrize_epsilon_fixed_point():
    eps = tnq.epsilon_tensor(3)
    np.testing.assert_allclose(inv.antisymmetrize(eps).data, eps.data,
                               atol=1e-12)
    # antisymmetrizing a symmetric tensor kills it
    np.testing.assert_allclose(
        inv.antisymmetrize(tnq.copy_tensor(3)).data, 0.0, atol=1e-12)


# ---------------------------------------------------------------- binary forms

def test_form_state_round_trip():
    f = inv.BinaryForm([1, 2j, -0.5, 3])
    psi = inv.state_from_form(f)
    back = inv.form_from_state(psi)
    np.testing.assert_allclose(back.coeffs, f.coeffs, atol=1e-12)
    # Q(x, y) is the state's amplitudes summed against (x|0> + y|1>)^(x 3)
    for x, y in [(1, 0), (0, 1), (0.5, -2j), (1.5 + 1j, 0.25)]:
        v = np.array([x, y])
        want = np.einsum("ijk,i,j,k->", psi.data, v, v, v)
        assert f.evaluate(x, y) == pytest.approx(want, abs=1e-12)


def test_state_from_form_checks_cap_before_allocating(monkeypatch):
    monkeypatch.setattr(tz, "SIZE_CAP", 2**10)
    assert inv.state_from_form(inv.BinaryForm([1] * 11)).data.size == 2**10
    monkeypatch.setattr(np, "zeros", lambda *a, **k: pytest.fail("allocated"))
    with pytest.raises(tnq.SizeCapError):
        inv.state_from_form(inv.BinaryForm([1] * 12))


def _form_from_state_oracle(psi, tol):
    n = psi.order
    coeffs = [None] * (n + 1)
    for idx in itertools.product(range(2), repeat=n):
        k = sum(idx)
        amp = complex(psi.data[idx])
        if coeffs[n - k] is None:
            coeffs[n - k] = amp
        elif abs(coeffs[n - k] - amp) > tol:
            return None
    return tuple(coeffs)


@pytest.mark.parametrize("n", range(1, 11))
def test_weight_forms_match_an_itertools_oracle(n):
    f = inv.BinaryForm(rand_c(n + 1))
    want = np.zeros((2,) * n, dtype=complex)
    for idx in itertools.product(range(2), repeat=n):
        want[idx] = f.coeffs[n - sum(idx)]
    psi = inv.state_from_form(f)
    assert psi.orients == (tz.DOWN,) * n and np.array_equal(psi.data, want)
    # the last amplitude of weight 1 moved by 1e-9: within tol 1e-8 and
    # not within 1e-10 (for n = 1 it is the first, so always accepted)
    bumped = want.copy()
    bumped[(1,) + (0,) * (n - 1)] += 1e-9
    for data in (want, bumped):
        for tol in (1e-8, 1e-10, -1.0):
            t = tz.state(data)
            oracle = _form_from_state_oracle(t, tol)
            if oracle is None:
                with pytest.raises(ShapeError, match="symmetric subspace"):
                    inv.form_from_state(t, tol)
            else:
                assert inv.form_from_state(t, tol).coeffs == oracle


def test_form_from_state_rejects_asymmetric():
    with pytest.raises(ShapeError):
        inv.form_from_state(tz.state(rand_c(2, 2)))


def test_hessian_of_xy_products():
    # H(x^3 + y^3) = 36 x y as a plain polynomial
    f = inv.BinaryForm([1, 0, 0, 1])
    h = inv.hessian(f)
    mono = h.monomial_coeffs()
    np.testing.assert_allclose(mono, [0, 36, 0], atol=1e-12)


def test_hessian_of_nth_power_vanishes():
    # Q = (ax + by)^n  has identically zero Hessian (product/unentangled)
    a, b = 2.0, -1.5
    n = 4
    coeffs = [a**k * b ** (n - k) for k in range(n + 1)]
    h = inv.hessian(inv.BinaryForm(coeffs))
    np.testing.assert_allclose(h.monomial_coeffs(), 0.0, atol=1e-10)


def test_cubic_discriminant_ghz_w():
    ghz = inv.form_from_state(
        tnq.standard_tensor("GHZ", 3, normalized=True))
    np.testing.assert_allclose(inv.cubic_discriminant(ghz), 0.25,
                               atol=1e-12)
    w = inv.form_from_state(tnq.standard_tensor("W", 3))
    assert abs(inv.cubic_discriminant(w)) < 1e-12


def test_cubic_discriminant_ghz_unnormalized():
    ghz = inv.form_from_state(tnq.standard_tensor("GHZ", 3))
    np.testing.assert_allclose(inv.cubic_discriminant(ghz), 1.0, atol=1e-12)


@pytest.mark.parametrize("fn", [inv.j1, inv.j2])
def test_overflowing_invariant_is_numerical_error(fn):
    # finite entries whose J1 overflows to inf and whose J2's Gram
    # product gives NaN (inf - inf): both used to be returned
    big = tz.Tensor(np.full((2, 2), 1e300), "dd")
    with np.errstate(all="ignore"), pytest.raises(NumericalError,
                                                  match="overflow"):
        fn(big)
