"""Channel representations, conversions, fidelities, tomography."""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tnq
from tnq import channels as cx, tensor as tz
from tnq.errors import NumericalError, ParseError, ShapeError, TnqError

rng = np.random.default_rng(31)


def rand_c(*shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def rand_unitary(d):
    q, r = np.linalg.qr(rand_c(d, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_density(d):
    m = rand_c(d, d)
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def rand_cptp(d, n_kraus=None):
    # random isometry column -> Kraus operators (exactly trace preserving)
    k = n_kraus or d
    g = rand_c(d * k, d)
    q, _ = np.linalg.qr(g)
    return cx.kraus_channel([q[i * d:(i + 1) * d, :] for i in range(k)])


# ----------------------------------------------------------------- structure

def test_kraus_channel_shapes():
    ch = cx.amplitude_damping_channel(0.3)
    assert ch.rep == "kraus" and ch.d_in == ch.d_out == 2
    with pytest.raises(ShapeError):
        cx.kraus_channel([])
    with pytest.raises(ShapeError):
        cx.kraus_channel([np.eye(2), np.eye(3)])


def test_unknown_representation_is_rejected_at_construction():
    # convert, apply and the fidelities then dispatch on a known rep only
    with pytest.raises(ShapeError, match="unknown representation 'bogus'"):
        cx.Channel("bogus", (np.eye(4),), 2, 2)


@pytest.mark.parametrize("use", [
    lambda ch: cx.convert(ch, "choi"), lambda ch: cx.apply(ch, np.eye(2)),
    cx.avg_gate_fidelity, cx.write_chx,
])
def test_channel_without_the_fields_its_rep_needs_is_rejected(use):
    # a chi channel with no basis let AttributeError escape from convert,
    # apply and avg_gate_fidelity; a stinespring one with no d_env made
    # write_chx write "chx 1 stinespring 2 2 None"
    with pytest.raises(ShapeError, match="chi channel needs an operator"):
        use(cx.Channel("chi", (np.eye(4),), 2, 2))
    for d_env in (None, 0):
        with pytest.raises(ShapeError, match="channel dimensions"):
            use(cx.Channel("stinespring", (np.eye(2),), 2, 2, d_env=d_env))


@pytest.mark.parametrize("build", [
    lambda: cx.Channel("choi", (np.eye(3),), 2, 2),
    lambda: cx.Channel("superop", ([[1, 0], [0, 1]],), 2, 2),
    lambda: cx.Channel("choi", (np.full((4, 4), np.inf),), 2, 2),
    lambda: cx.superop_channel(np.eye(4), -2, -2),
    lambda: cx.Channel("choi", (np.eye(4),), 2.5, 2),
    lambda: cx.Channel("choi", (np.eye(1),), False, False),
    lambda: cx.Channel("chi", (np.eye(9),), 3, 3, basis=cx.pauli_basis()),
    lambda: cx.Channel("kraus", (np.eye(2),), 3, 3),
    lambda: cx.Channel("kraus", (), 2, 2),
    lambda: cx.Channel("choi", (np.eye(4), np.eye(4)), 2, 2),
    lambda: cx.Channel("stinespring", (np.eye(4),), 2, 2, d_env=3),
], ids=["choi 3x3 for d=2", "superop list 2x2 for d=2", "choi of inf",
        "negative dims", "float dims", "bool dims", "pauli basis for d=3",
        "kraus 2x2 for d=3", "no kraus operators", "two choi matrices",
        "stinespring rows != d_out*d_env"])
def test_bad_channel_is_rejected_when_built(build):
    # each was accepted when built, and some failed later: check let
    # ValueError escape, convert AttributeError, TP passed on inf entries,
    # write_chx wrote files read_chx rejects
    with pytest.raises(ShapeError):
        build()


def test_channel_stores_integral_dims_as_ints():
    # integral dims are read as ints by the one integer rule, so write_chx
    # writes "2" and "1", which read_chx reads back
    for ch in (cx.Channel("choi", (np.eye(2),), 2.0, True),
               cx.Channel("stinespring", (np.eye(2),), np.int64(2), True,
                          d_env=2.0)):
        dims = (ch.d_in, ch.d_out, ch.d_env)
        assert dims[:2] == (2, 1) and type(ch.d_in) is type(ch.d_out) is int
        back = cx.read_chx(cx.write_chx(ch))
        assert (back.rep, back.d_in, back.d_out, back.d_env) == (ch.rep,) + dims
        np.testing.assert_array_equal(back.matrix(), ch.matrix())
    assert type(ch.d_env) is int


_CHX_ENTRIES = st.floats(allow_nan=False, allow_infinity=False)


def _channel_of(rep, mats, d_in, d_out, d_env):
    """A ``rep`` channel with the basis or ``d_env`` its rep needs."""
    return cx.Channel(rep, mats, d_in, d_out,
                      basis=cx.default_basis(d_out, d_in)
                      if rep == "chi" else None,
                      d_env=d_env if rep == "stinespring" else None)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), rep=st.sampled_from(cx.REPS), exact=st.booleans(),
       dims=st.tuples(*[st.integers(1, 3)] * 3))
def test_chx_write_read_is_identity_for_every_rep(data, rep, exact, dims):
    # a channel is either rejected when built or written and read back
    # exactly; matrices of any shape are tried besides the rep's own
    shape = cx._LAYOUT[rep][1](*dims) if exact else data.draw(
        st.tuples(st.integers(1, 9), st.integers(1, 9)))
    n = data.draw(st.integers(1, 3)) if rep == "kraus" else 1
    size = 2 * n * math.prod(shape)
    parts = data.draw(st.lists(_CHX_ENTRIES, min_size=size, max_size=size))
    mats = tuple(np.array(parts).view(complex).reshape((n,) + shape))
    try:
        ch = _channel_of(rep, mats, *dims)
    except ShapeError:
        assert not exact
        return
    back = cx.read_chx(cx.write_chx(ch))
    assert (back.rep, back.d_in, back.d_out, back.d_env) == \
        (ch.rep, ch.d_in, ch.d_out, ch.d_env)
    assert len(back.data) == len(ch.data)
    for a, b in zip(back.data, ch.data):
        np.testing.assert_array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), rep=st.sampled_from(cx.REPS),
       dims=st.tuples(*[st.integers(1, 3)] * 3))
def test_built_channel_operations_raise_only_package_errors(data, rep, dims):
    # any channel that passes construction, CP or not, with entries up to
    # the float range: only TnqError may leave the operations on it
    d_in = dims[0]
    shape = cx._LAYOUT[rep][1](*dims)
    parts = data.draw(st.lists(_CHX_ENTRIES, min_size=2 * math.prod(shape),
                               max_size=2 * math.prod(shape)))
    ch = _channel_of(rep, (np.array(parts).view(complex).reshape(shape),),
                     *dims)
    calls = [functools.partial(cx.convert, ch, target) for target in cx.REPS]
    calls += [functools.partial(cx.check, ch, p)
              for p in ("CP", "TP", "HP", "unital")]
    calls += [functools.partial(cx.apply, ch, np.eye(d_in) / d_in),
              functools.partial(cx.avg_gate_fidelity, ch),
              functools.partial(cx.entanglement_fidelity, ch, np.eye(d_in))]
    with np.errstate(all="ignore"):
        for call in calls:
            try:
                call()
            except TnqError:
                pass


@pytest.mark.parametrize("rep", cx.REPS)
def test_apply_overflow_is_numerical_error(rep):
    # finite entries whose output overflows: not bad input (ShapeError)
    ch = _channel_of(rep, (np.full(cx._LAYOUT[rep][1](2, 2, 1), 1e200),),
                     2, 2, 1)
    with np.errstate(all="ignore"), pytest.raises(NumericalError,
                                                  match="channel output"):
        cx.apply(ch, np.full((2, 2), 1e200))


@pytest.mark.parametrize("bad", [np.nan, -np.inf, complex(0, np.inf)])
def test_channel_constructors_reject_nonfinite_entries(bad):
    m2, m4 = np.eye(2, dtype=complex), np.eye(4, dtype=complex)
    m2[0, 1] = m4[3, 2] = bad
    for build in (lambda: cx.kraus_channel([np.eye(2), m2]),
                  lambda: cx.superop_channel(m4, 2, 2),
                  lambda: cx.choi_channel(m4, 2, 2),
                  lambda: cx.chi_channel(m4, cx.pauli_basis()),
                  lambda: cx.stinespring_channel(m2, 2)):
        with pytest.raises(ShapeError, match="finite"):
            build()


def test_operator_basis_validation():
    with pytest.raises(ShapeError):
        cx.OperatorBasis((np.eye(2),))  # too few elements
    with pytest.raises(ShapeError):
        cx.OperatorBasis(tuple(np.eye(2) for _ in range(4)))  # not orthonormal
    near = list(cx.pauli_basis().elements)
    near[3] = near[3] * (1 + 1e-6)                    # norm off by 2e-6
    with pytest.raises(ShapeError):
        cx.OperatorBasis(tuple(near))
    near = list(cx.pauli_basis().elements)
    near[2] = near[2] + 1e-6 * near[1]                # overlap 1e-6
    with pytest.raises(ShapeError):
        cx.OperatorBasis(tuple(near))
    with pytest.raises(ShapeError):                   # mixed shapes
        cx.OperatorBasis((np.eye(2), np.eye(2), np.eye(4)[:2], np.eye(2)))
    b = cx.pauli_basis()
    assert len(b.elements) == 4
    np.testing.assert_allclose(np.trace(b.elements[0]).real, math.sqrt(2))


def test_operator_basis_owns_one_read_only_stack():
    elems = [e.copy() for e in cx.pauli_basis().elements]
    b = cx.OperatorBasis(tuple(elems))
    assert b.stack() is b.stack()
    assert not b.stack().flags.writeable
    elems[0][0, 0] = 7                  # the caller's array stays its own
    np.testing.assert_allclose(b.elements[0], np.eye(2) / math.sqrt(2))
    with pytest.raises(ValueError):
        b.elements[0][0, 0] = 7


def test_elementary_basis_stack_is_identity():
    b = cx.elementary_basis(3, 2)
    np.testing.assert_allclose(b.stack(), np.eye(6))


# --------------------------------------------------------------- conversions

@pytest.mark.parametrize("d", [2, 3])
def test_conversion_cycle_preserves_action(d):
    ch = rand_cptp(d)
    rhos = [rand_density(d) for _ in range(5)]
    ref = [cx.apply(ch, r).data for r in rhos]
    cur = ch
    for target in ("superop", "choi", "chi", "stinespring", "kraus"):
        cur = cx.convert(cur, target)
        assert cur.rep == target
        for r, want in zip(rhos, ref):
            np.testing.assert_allclose(cx.apply(cur, r).data, want,
                                       atol=1e-9)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_chi_apply_matches_the_double_sum(d):
    # the reference is the chi formula term by term; the einsum sums in
    # another order, so agreement is to a few complex128 roundings
    ch = cx.convert(rand_cptp(d), "chi")
    rho = rand_density(d)
    sig, chi = ch.basis.elements, ch.matrix()
    ref = sum(chi[i, j] * (sig[i] @ rho @ sig[j].conj().T)
              for i in range(d * d) for j in range(d * d))
    np.testing.assert_allclose(cx.apply(ch, rho).data, ref, rtol=0,
                               atol=1e-13)


def test_choi_trace_is_d():
    ch = rand_cptp(3)
    lam = cx.convert(ch, "choi").matrix()
    np.testing.assert_allclose(np.trace(lam).real, 3.0, atol=1e-10)


def test_chi_in_elementary_basis_equals_choi():
    ch = rand_cptp(2)
    lam = cx.convert(ch, "choi").matrix()
    chi = cx.convert(ch, "chi", basis=cx.elementary_basis(2, 2)).matrix()
    np.testing.assert_allclose(chi, lam, atol=1e-10)


def test_chi_pauli_identity_channel():
    # identity channel: chi has a single entry d at (0, 0) in the Pauli basis
    ch = cx.unitary_channel(np.eye(2))
    chi = cx.convert(ch, "chi", basis=cx.pauli_basis()).matrix()
    want = np.zeros((4, 4))
    want[0, 0] = 2
    np.testing.assert_allclose(chi, want, atol=1e-12)


def test_superop_of_unitary_is_conjugate_kron():
    u = rand_unitary(3)
    s = cx.convert(cx.unitary_channel(u), "superop").matrix()
    np.testing.assert_allclose(s, np.kron(u.conj(), u), atol=1e-12)


def test_canonical_kraus_orthogonality():
    # Kraus operators from the Choi eigendecomposition are HS-orthogonal
    ch = cx.convert(rand_cptp(3), "choi")
    ops = cx.convert(ch, "kraus").data
    for i, a in enumerate(ops):
        for j, b in enumerate(ops):
            ip = np.trace(a.conj().T @ b)
            if i != j:
                assert abs(ip) < 1e-9
    total = sum(k.conj().T @ k for k in ops)
    np.testing.assert_allclose(total, np.eye(3), atol=1e-9)


def test_stinespring_isometry():
    a = cx.convert(rand_cptp(2), "stinespring").matrix()
    np.testing.assert_allclose(a.conj().T @ a, np.eye(2), atol=1e-9)


def test_rectangular_channel_conversion():
    # d_in=2, d_out=3 partial isometry channel survives the cycle
    g = rand_c(6, 2)
    q, _ = np.linalg.qr(g)
    ch = cx.kraus_channel([q[0:3, :], q[3:6, :]])
    rho = rand_density(2)
    want = cx.apply(ch, rho).data
    cur = ch
    for target in ("choi", "superop", "choi", "kraus"):
        cur = cx.convert(cur, target)
    np.testing.assert_allclose(cx.apply(cur, rho).data, want, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3),
       st.integers(0, 2**32 - 1))
def test_every_conversion_pair_round_trips_to_choi(d_in, d_out, k, seed):
    # a random CPTP channel: the k blocks of a random isometry, with
    # k * d_out >= d_in so that one exists
    k = max(k, -(-d_in // d_out))
    g = np.random.default_rng(seed).normal(size=(2, k * d_out, d_in))
    q, _ = np.linalg.qr(g[0] + 1j * g[1])
    ch = cx.kraus_channel([q[a * d_out:(a + 1) * d_out] for a in range(k)])
    want = cx.convert(ch, "choi").matrix()
    tol = 1e-9 * np.abs(want).max()
    for x, y in itertools.product(cx.REPS, repeat=2):
        got = cx.convert(cx.convert(cx.convert(ch, x), y), "choi").matrix()
        assert np.abs(got - want).max() <= tol, (x, y)


def test_depolarizing_channel_action():
    rho = rand_density(2)
    out = cx.apply(cx.depolarizing_channel(1.0), rho).data
    np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-12)
    out = cx.apply(cx.depolarizing_channel(0.0), rho).data
    np.testing.assert_allclose(out, rho, atol=1e-12)


# -------------------------------------------------------------------- checks

def test_check_cptp_properties():
    ch = rand_cptp(2)
    for prop in ("CP", "TP", "HP"):
        ok, _ = cx.check(ch, prop)
        assert ok
    ok, _ = cx.check(cx.unitary_channel(rand_unitary(2)), "unital")
    assert ok


def test_check_detects_violations():
    # amplitude damping is not unital
    ok, wit = cx.check(cx.amplitude_damping_channel(0.5), "unital")
    assert not ok and wit > 0.1
    # transpose map: HP and TP but not CP
    t = np.zeros((4, 4), dtype=complex)
    for i, j in itertools.product(range(2), repeat=2):
        t[j * 2 + i, i * 2 + j] = 1
    ch = cx.superop_channel(t, 2, 2)
    ok, wit = cx.check(ch, "CP")
    assert not ok and wit < -0.5
    assert cx.check(ch, "TP")[0]
    assert cx.check(ch, "HP")[0]


def _dented_identity_choi(scale, dent):
    """``scale`` times the qubit identity channel's Choi matrix, with
    ``dent`` subtracted from entry (1, 1): eigenvalues 2 scale, 0, 0 and
    -dent, largest entry ``scale``."""
    lam = scale * cx.convert(cx.kraus_channel([np.eye(2)]), "choi").matrix()
    lam[1, 1] -= dent
    return cx.choi_channel(lam, 2, 2)


@pytest.mark.parametrize("scale, dent", [
    (1, 0.5e-9), (1, 0.9e-9), (1, 1.1e-9), (1, 1.5e-9), (1, 3e-9),
    (3, 2.5e-9), (3, 4e-9), (3, 7e-9), (1e-3, 0.9e-9), (1e-3, 1.1e-9)])
def test_check_and_kraus_conversion_share_one_cp_rule(scale, dent):
    # the tolerance is 1e-9 times max(largest |entry|, 1); the Kraus
    # conversion once scaled it by the largest eigenvalue, 2 scale, so it
    # accepted dents up to 2e-9 (6e-9 at scale 3) that check refuses
    ch = _dented_identity_choi(scale, dent)
    ok, wit = cx.check(ch, "CP")
    assert ok == (dent < 1e-9 * max(scale, 1))
    assert wit == pytest.approx(-dent, rel=1e-6)
    if ok:
        assert len(cx.convert(ch, "kraus").data) == 1
    else:
        with pytest.raises(ShapeError, match="not CP"):
            cx.convert(ch, "kraus")


@given(st.integers(0, 2**32 - 1), st.floats(1, 4), st.floats(0, 3))
@settings(max_examples=40, deadline=None)
def test_check_cp_verdict_is_the_kraus_verdict(seed, top, dent):
    # eigenvalues (top, 1, 0, -dent 1e-9) in a random basis: the largest
    # entry lies below top, so the scales of the old rules differed
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(4, 4)))
    lam = q @ np.diag([top, 1, 0, -dent * 1e-9]) @ q.T
    ch = cx.choi_channel(lam, 2, 2)
    ok, wit = cx.check(ch, "CP")
    tol = 1e-9 * max(np.abs(lam).max(), 1)
    if abs(wit + tol) < 1e-4 * tol:  # within rounding of the threshold
        return
    try:
        cx.convert(ch, "kraus")
    except ShapeError:
        assert not ok
    else:
        assert ok


@pytest.mark.parametrize("prop, entry", [
    ("TP", 1e308), ("unital", 1e308), ("HP", 1e308j)])
def test_check_overflow_is_numerical_error(prop, entry):
    # finite entries whose witness overflows: a failure, not (False, inf)
    ch = cx.Channel("choi", (np.full((4, 4), entry),), 2, 2)
    with np.errstate(all="ignore"), pytest.raises(NumericalError,
                                                  match=f"{prop} witness"):
        cx.check(ch, prop)


# --------------------------------------------------------- composite systems

def test_unravel_round_trip():
    dims = [(2, 2), (3, 3)]
    v = rand_c(36)
    w = cx.unravel(v, dims)
    np.testing.assert_allclose(cx.unravel_inverse(w, dims), v)


def test_unravel_product_vectorization():
    # vec(a (x) b) unravels to vec(a) (x) vec(b)
    a, b = rand_c(2, 2), rand_c(3, 3)
    joint = np.kron(a, b)
    va = joint.T.reshape(-1)  # column-stacking vec
    out = cx.unravel(va, [(2, 2), (3, 3)])
    want = np.kron(a.T.reshape(-1), b.T.reshape(-1))
    np.testing.assert_allclose(out, want)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([1, 2, 3]),
                          st.sampled_from([1, 2, 3])), min_size=1, max_size=4))
def test_unravel_with_sides_of_dimension_1_matches_the_full_reshape(dims):
    # the oracle keeps all 2n axes, where unravel drops those of dim 1
    n = len(dims)
    v = rand_c(math.prod(map(math.prod, dims)))
    sizes = [dx for dx, _ in dims] + [dy for _, dy in dims]
    want = v.reshape(sizes).transpose(
        [a for k in range(n) for a in (k, n + k)]).reshape(-1)
    w = cx.unravel(v, dims)
    np.testing.assert_array_equal(w, want)
    np.testing.assert_array_equal(cx.unravel_inverse(w, dims), v)


def test_many_subsystems_of_dimension_1():
    # one entry on 40 subsystems: no index array with 80 axes is built
    for unravel in (cx.unravel, cx.unravel_inverse):
        assert unravel(np.ones(1), [(1, 1)] * 40).tolist() == [1]
    joint = cx.compose_superops([np.eye(1)] * 40)
    assert (joint.d_in, joint.d_out) == (1, 1)
    np.testing.assert_array_equal(joint.matrix(), np.eye(1))


def test_compose_superops_reads_a_stack_like_a_list():
    sop = cx.convert(cx.amplitude_damping_channel(0.3), "superop").matrix()
    np.testing.assert_array_equal(
        cx.compose_superops(np.stack([sop, sop])).matrix(),
        cx.compose_superops([sop, sop]).matrix())


def test_compose_superops_matches_kron_kraus():
    ch1, ch2 = rand_cptp(2), rand_cptp(2)
    joint = cx.compose_superops([ch1, ch2])
    rho = rand_density(4)
    # oracle: apply the Kraus products
    out = np.zeros((4, 4), dtype=complex)
    for k1 in ch1.data:
        for k2 in ch2.data:
            k = np.kron(k1, k2)
            out += k @ rho @ k.conj().T
    np.testing.assert_allclose(cx.apply(joint, rho).data, out, atol=1e-9)


def test_joint_superops_and_bases_check_cap_before_allocating(monkeypatch):
    monkeypatch.setattr(tz, "SIZE_CAP", 2**10)
    sop = cx.convert(cx.amplitude_damping_channel(0.3), "superop").matrix()
    assert cx.compose_superops([sop, sop]).matrix().shape == (16, 16)
    assert len(cx.elementary_basis(4, 8).elements) == 32
    monkeypatch.setattr(np, "kron", lambda *a: pytest.fail("allocated"))
    monkeypatch.setattr(np, "eye", lambda *a, **k: pytest.fail("allocated"))
    with pytest.raises(tnq.SizeCapError):
        cx.compose_superops([sop] * 3)
    for d_out, d_in in ((8, 8), (4, 9), (10**9, 10**9)):
        with pytest.raises(tnq.SizeCapError):
            cx.elementary_basis(d_out, d_in)


def test_reduced_superop_partial_trace_of_product():
    # tracing out an independent second system leaves the first map intact
    ch1, ch2 = rand_cptp(2), rand_cptp(3)
    joint = cx.compose_superops([ch1, ch2])
    tau0 = rand_density(3)
    red = cx.reduced_superop(joint, 2, 3, tau0, np.eye(3))
    s1 = cx.convert(ch1, "superop").matrix()
    np.testing.assert_allclose(red.matrix(), s1, atol=1e-9)


def rand_kraus(d_in, d_out, k):
    # columns of a random isometry cut into k d_out x d_in operators (TP)
    q, _ = np.linalg.qr(rand_c(k * d_out, d_in))
    return cx.kraus_channel([q[i * d_out:(i + 1) * d_out] for i in range(k)])


def kraus_products(chans):
    """Kraus operators of the product channel: all Kronecker products."""
    return [functools.reduce(np.kron, ks)
            for ks in itertools.product(*(ch.data for ch in chans))]


@pytest.mark.parametrize("shapes", [
    [(2, 3), (3, 2)],            # (d_in, d_out) per site
    [(3, 1), (2, 2), (1, 2)],
])
def test_compose_superops_unequal_dims_matches_kraus_products(shapes):
    chans = [rand_kraus(d_in, d_out, 2) for d_in, d_out in shapes]
    want = cx.kraus_channel(kraus_products(chans))
    for sites in (chans, [cx.convert(ch, "superop").matrix() for ch in chans]):
        joint = cx.compose_superops(sites)
        assert (joint.d_in, joint.d_out) == (want.d_in, want.d_out)
        rho = rand_density(joint.d_in)
        np.testing.assert_allclose(cx.apply(joint, rho).data,
                                   cx.apply(want, rho).data, atol=1e-12)
        np.testing.assert_allclose(
            joint.matrix(), cx.convert(want, "superop").matrix(), atol=1e-12)


@pytest.mark.parametrize("d_x, d_y", [(2, 3), (3, 2)])
def test_reduced_superop_unequal_dims_matches_kraus_oracle(d_x, d_y):
    # a joint channel that is not a product, a state tau0 and an effect tau1
    joint = rand_kraus(d_x * d_y, d_x * d_y, 3)
    tau0, tau1 = rand_density(d_y), rand_c(d_y, d_y)
    red = cx.reduced_superop(joint, d_x, d_y, tau0, tau1)
    rho = rand_density(d_x)
    # oracle: Tr_Y[(I (x) tau1^dag) E(rho (x) tau0)]
    out = sum(k @ np.kron(rho, tau0) @ k.conj().T for k in joint.data)
    out = np.kron(np.eye(d_x), tau1.conj().T) @ out
    want = np.einsum("ayby->ab", out.reshape(d_x, d_y, d_x, d_y))
    np.testing.assert_allclose(cx.apply(red, rho).data, want, atol=1e-12)


def test_reduced_superop_swap_channel():
    # SWAP with Y prepared in tau0 and traced out sends rho -> tau0
    swap = tz.as_matrix(tnq.standard_tensor("SWAP"), 2)
    joint = cx.unitary_channel(swap)
    tau0 = rand_density(2)
    red = cx.reduced_superop(joint, 2, 2, tau0, np.eye(2))
    rho = rand_density(2)
    np.testing.assert_allclose(cx.apply(red, rho).data, tau0, atol=1e-10)


# ----------------------------------------------------------------- fidelities

def normalized_identity_basis(d):
    # orthonormal operator basis whose first element is I/sqrt(d)
    cols = [np.eye(d).reshape(-1) / math.sqrt(d)]
    cols.extend(rand_c(d * d) for _ in range(d * d - 1))
    q, _ = np.linalg.qr(np.column_stack(cols))
    q[:, 0] *= math.sqrt(d) / np.trace(q[:, 0].reshape(d, d).T)
    return cx.OperatorBasis(tuple(q[:, k].reshape(d, d).T
                                  for k in range(d * d)))


@pytest.mark.parametrize("d", [2, 3])
def test_avg_gate_fidelity_all_representations_agree(d):
    ch = rand_cptp(d)
    basis = cx.pauli_basis() if d == 2 else normalized_identity_basis(d)
    vals = []
    for rep in cx.REPS:
        conv = (cx.convert(ch, rep, basis=basis) if rep == "chi"
                else cx.convert(ch, rep))
        vals.append(cx.avg_gate_fidelity(conv))
    for v in vals[1:]:
        np.testing.assert_allclose(v, vals[0], atol=1e-10)


@pytest.mark.parametrize("d", [3, 4])
def test_chi_fidelity_in_the_elementary_basis(d):
    # the default chi basis for d != 2 has no element proportional to I
    ch = rand_cptp(d)
    want = (d + sum(abs(np.trace(k)) ** 2 for k in ch.data)) / (d * (d + 1))
    chi = cx.convert(ch, "chi")
    assert np.array_equal(chi.basis.stack(), np.eye(d * d))
    assert cx.avg_gate_fidelity(chi) == pytest.approx(want, abs=1e-12)


def test_avg_gate_fidelity_reference_points():
    np.testing.assert_allclose(
        cx.avg_gate_fidelity(cx.unitary_channel(np.eye(3))), 1.0,
        atol=1e-12)
    np.testing.assert_allclose(
        cx.avg_gate_fidelity(cx.depolarizing_channel(1.0)), 0.5,
        atol=1e-10)


def test_avg_gate_fidelity_entanglement_fidelity_relation():
    # F_avg = (d F_e(E, I/d) d + d) / (d(d+1)) with F_e at the maximally
    # mixed state: F_avg = (d + d^2 F_e) / (d(d+1))
    for d in (2, 3):
        ch = rand_cptp(d)
        fe = cx.entanglement_fidelity(ch, np.eye(d) / d)
        want = (d + d * d * fe) / (d * (d + 1))
        np.testing.assert_allclose(cx.avg_gate_fidelity(ch), want,
                                   atol=1e-10)


def test_entanglement_fidelity_representations_agree():
    ch = rand_cptp(2)
    rho = rand_density(2)
    vals = [cx.entanglement_fidelity(cx.convert(ch, rep), rho)
            for rep in cx.REPS]
    for v in vals[1:]:
        np.testing.assert_allclose(v, vals[0], atol=1e-10)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_chi_entanglement_fidelity_matches_the_trace_sum(d):
    # the reference is Tr(r sigma_i) chi_ij Tr(r sigma_j^dag) term by term,
    # in a basis with no zero traces and at a non-Hermitian r
    ch = cx.convert(rand_cptp(d), "chi", basis=normalized_identity_basis(d))
    r = rand_c(d, d)
    sig, chi = ch.basis.elements, ch.matrix()
    ref = sum(np.trace(r @ sig[i]) * chi[i, j]
              * np.trace(r @ sig[j].conj().T)
              for i in range(d * d) for j in range(d * d)).real
    assert cx.entanglement_fidelity(ch, r) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("rep", ["kraus", "superop", "choi", "chi",
                                 "stinespring"])
def test_entanglement_fidelity_rejects_wrong_size_state(rep):
    ch = cx.convert(cx.amplitude_damping_channel(0.3), rep)
    for rho in (np.eye(3) / 3, np.ones(4) / 2, np.eye(2)[None]):
        with pytest.raises(ShapeError):
            cx.entanglement_fidelity(ch, rho)


def test_entanglement_fidelity_reference_points():
    rho = rand_density(2)
    fe = cx.entanglement_fidelity(cx.unitary_channel(np.eye(2)), rho)
    np.testing.assert_allclose(fe, 1.0, atol=1e-12)
    fe = cx.entanglement_fidelity(cx.depolarizing_channel(1.0),
                                  np.eye(2) / 2)
    np.testing.assert_allclose(fe, 0.25, atol=1e-12)


# ----------------------------------------------------------------- projectors

@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_sym_projector_traces(d):
    p2 = cx.sym_projector(2, d).data
    np.testing.assert_allclose(np.trace(p2).real, d * (d + 1) / 2,
                               atol=1e-10)
    p3 = cx.sym_projector(3, d).data
    np.testing.assert_allclose(np.trace(p3).real,
                               (d**3 + 3 * d**2 + 2 * d) / 6, atol=1e-10)
    np.testing.assert_allclose(p2 @ p2, p2, atol=1e-10)
    np.testing.assert_allclose(p3 @ p3, p3, atol=1e-10)


def test_sym_projector_fixes_symmetric_vectors():
    d = 3
    v = rand_c(d)
    vv = np.kron(v, v)
    p2 = cx.sym_projector(2, d).data
    np.testing.assert_allclose(p2 @ vv, vv, atol=1e-10)


# ----------------------------------------------------------------------- aapt

def test_aapt_max_entangled_probe():
    d = 2
    ch = rand_cptp(d)
    bell = np.eye(d).reshape(-1) / math.sqrt(d)
    rho_as = np.outer(bell, bell.conj())
    lam_joint = cx.convert(ch, "choi").matrix()
    # (I x E)(rho_as) = Choi / d for the maximally entangled probe
    rho_out = np.zeros((d * d, d * d), dtype=complex)
    for ka in cx.convert(ch, "kraus").data:
        k = np.kron(np.eye(d), ka)
        rho_out += k @ rho_as @ k.conj().T
    rec, cond = cx.aapt_recover(rho_as, rho_out)
    np.testing.assert_allclose(rec.matrix(), lam_joint, atol=1e-10)
    np.testing.assert_allclose(cond, 1.0, atol=1e-10)


def test_aapt_random_full_rank_probe():
    d = 2
    ch = rand_cptp(d)
    psi = rand_c(d * d)
    psi /= np.linalg.norm(psi)
    rho_as = np.outer(psi, psi.conj())
    # make sure the probe is faithful, otherwise re-draw deterministically
    rho_out = np.zeros((d * d, d * d), dtype=complex)
    for ka in cx.convert(ch, "kraus").data:
        k = np.kron(np.eye(d), ka)
        rho_out += k @ rho_as @ k.conj().T
    rec, cond = cx.aapt_recover(rho_as, rho_out)
    want = cx.convert(ch, "choi").matrix()
    np.testing.assert_allclose(rec.matrix(), want, atol=1e-8)
    assert cond >= 1.0


def test_aapt_product_probe_fails():
    d = 2
    rho_a = rand_density(d)
    rho_s = rand_density(d)
    rho_as = np.kron(rho_a, rho_s)
    with pytest.raises(NumericalError):
        cx.aapt_recover(rho_as, rho_as)


# ------------------------------------------------------------------ chx files

@pytest.mark.parametrize("rep", cx.REPS)
def test_chx_round_trip(rep):
    ch = cx.convert(rand_cptp(2), rep)
    text = cx.write_chx(ch)
    back = cx.read_chx(text)
    assert back.rep == rep
    rho = rand_density(2)
    np.testing.assert_allclose(cx.apply(back, rho).data,
                               cx.apply(ch, rho).data, atol=1e-10)


def test_chx_rejects_garbage():
    with pytest.raises(ParseError):
        cx.read_chx("nope 1 kraus 2 2 1\n")
    with pytest.raises(ParseError):
        cx.read_chx("chx 1 wibble 2 2\n")
    with pytest.raises(ParseError):
        cx.read_chx("chx 1 superop 2 2\n1 0 0\n")


@pytest.mark.parametrize("rep", cx.REPS)
def test_write_chx_byte_identical_to_per_entry_writer(rep):
    ch = cx.convert(rand_cptp(3, n_kraus=2), rep)
    if rep == "kraus":
        # a signed zero must survive the writer unchanged
        k0 = ch.data[0].copy()
        k0[0, 0] = complex(-0.0, -0.0)
        ch = cx.kraus_channel((k0,) + ch.data[1:])
    header = f"chx 1 {rep} 3 3"
    if rep == "kraus":
        header += f" {len(ch.data)}"
    elif rep == "stinespring":
        header += f" {ch.d_env}"
    lines = [header]
    for m in ch.data:
        parts = []
        for z in np.asarray(m).reshape(-1):
            parts.append(repr(float(z.real)))
            parts.append(repr(float(z.imag)))
        lines.append(" ".join(parts))
    text = cx.write_chx(ch)
    assert text == "\n".join(lines) + "\n"
    back = cx.read_chx(text)
    for a, b in zip(back.data, ch.data):
        assert a.tobytes() == b.tobytes()
