"""Schmidt/MPS factorization and entanglement measures."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import tnq
from tnq import decomp, tensor as tz
from tnq.errors import NumericalError, ParseError, ShapeError

rng = np.random.default_rng(17)
SQ2 = math.sqrt(2.0)


def rand_state(*dims, normalized=True):
    v = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    if normalized:
        v /= np.linalg.norm(v)
    return tz.state(v)


# --------------------------------------------------------------------- schmidt

def test_schmidt_bell():
    bell = tnq.standard_tensor("BELL", "PHI+", normalized=True)
    sd = decomp.schmidt(bell, [0])
    assert sd.chi == 2
    np.testing.assert_allclose(sd.sigma, [1 / SQ2, 1 / SQ2], atol=1e-12)


def test_schmidt_product_state():
    psi = tz.state(np.multiply.outer([1, 2j], [3, 4.0]))
    sd = decomp.schmidt(psi, [0])
    assert sd.chi == 1


def test_schmidt_reconstruct_round_trip():
    psi = rand_state(2, 3, 4)
    sd = decomp.schmidt(psi, [0, 2])
    back = decomp.schmidt_reconstruct(sd)
    # reconstruction orders legs left then right: (0, 2, 1)
    np.testing.assert_allclose(back.data, psi.data.transpose(0, 2, 1),
                               atol=1e-10)


def test_schmidt_rejects_trivial_bipartition():
    psi = rand_state(2, 2)
    with pytest.raises(ShapeError):
        decomp.schmidt(psi, [])
    with pytest.raises(ShapeError):
        decomp.schmidt(psi, [0, 1])


def test_truncate_schmidt_error_matches_discarded():
    psi = rand_state(4, 4)
    sd = decomp.schmidt(psi, [0])
    trunc, report = decomp.truncate_schmidt(sd, 2)
    assert trunc.chi == 2
    want = math.sqrt(float(np.sum(sd.sigma[2:] ** 2)))
    np.testing.assert_allclose(report.error, want, atol=1e-12)
    # Eckart-Young: the truncation really achieves that error
    approx = decomp.schmidt_reconstruct(trunc)
    np.testing.assert_allclose(
        np.linalg.norm(approx.data - psi.data), want, atol=1e-10)


# ------------------------------------------------------------------------- mps

@pytest.mark.parametrize("n", [2, 3, 4, 5, 1])
def test_mps_round_trip(n):
    psi = rand_state(*([2] * n))
    m = decomp.mps_factor(psi)
    back = decomp.mps_contract(m)
    np.testing.assert_allclose(back.data, psi.data, atol=1e-9)


def test_mps_left_canonical():
    psi = rand_state(2, 2, 2, 2)
    m = decomp.mps_factor(psi)
    for site in m.sites[:-1]:
        a = site.data.reshape(-1, site.dims[-1])
        np.testing.assert_allclose(a.conj().T @ a, np.eye(site.dims[-1]),
                                   atol=1e-10)


def test_mps_ghz_bond_dimension():
    ghz = tnq.standard_tensor("GHZ", 4, normalized=True)
    m = decomp.mps_factor(ghz)
    assert [s.dims[-1] for s in m.sites[:-1]] == [2, 2, 2]
    back = decomp.mps_contract(m)
    np.testing.assert_allclose(back.data, ghz.data, atol=1e-10)


def test_mps_w_bond_dimension():
    w = tnq.standard_tensor("W", 4, normalized=True)
    m = decomp.mps_factor(w)
    assert all(s.dims[-1] == 2 for s in m.sites[:-1])
    back = decomp.mps_contract(m)
    np.testing.assert_allclose(back.data, w.data, atol=1e-10)


def test_mps_product_state_rank_one():
    v = np.multiply.outer(np.multiply.outer([1, 1j], [1, -1]), [0.6, 0.8])
    m = decomp.mps_factor(tz.state(v / np.linalg.norm(v)))
    assert all(s.dims[-1] == 1 for s in m.sites[:-1])


def test_mps_truncation_ghz():
    # cutting GHZ_4 to bond rank 1 discards one sigma = 1/sqrt(2) per cut,
    # but re-factoring makes later cuts trivial: error is 1/sqrt(2)
    ghz = tnq.standard_tensor("GHZ", 4, normalized=True)
    m = decomp.mps_factor(ghz)
    out, report = decomp.truncate_mps(m, 1)
    assert all(s.dims[-1] == 1 for s in out.sites[:-1])
    np.testing.assert_allclose(report.error, 1 / SQ2, atol=1e-10)


def test_mps_truncation_error_eckart_young_single_cut():
    # with only one cut the MPS truncation equals Schmidt truncation
    psi = rand_state(4, 4)
    m = decomp.mps_factor(psi)
    out, report = decomp.truncate_mps(m, 2)
    sd = decomp.schmidt(psi, [0])
    want = math.sqrt(float(np.sum(sd.sigma[2:] ** 2)))
    np.testing.assert_allclose(report.error, want, atol=1e-10)


def test_mps_save_load_round_trip(tmp_path):
    psi = rand_state(2, 2, 2)
    m = decomp.mps_factor(psi)
    decomp.save_mps(m, tmp_path / "mps")
    back = decomp.load_mps(tmp_path / "mps")
    np.testing.assert_allclose(decomp.mps_contract(back).data, psi.data,
                               atol=1e-10)


# -------------------------------------------- MPS sweep against dense oracles

def _dense_sweep(psi, max_rank=None):
    """The sweep mps_factor ran before it split wide matrices through
    their R factor: a direct SVD of each dense remainder."""
    dims = psi.shape
    carry, chi = psi.reshape(1, -1), 1
    sites, sigmas, gaps = [], [], []
    for k in range(len(dims) - 1):
        u, s, vh = np.linalg.svd(carry.reshape(chi * dims[k], -1),
                                 full_matrices=False)
        rank = int(np.sum(s > 1e-12 * s[0])) if s[0] > 0 else 0
        keep = max(rank if max_rank is None else min(rank, max_rank), 1)
        if keep < s.size:
            gaps.append((s[keep - 1] - s[keep]) / s[0])
        sites.append(u[:, :keep].reshape(chi, dims[k], keep))
        sigmas.append(s)
        carry, chi = s[:keep, None] * vh[:keep], keep
    # a one-site chain is the state itself, without a bond leg
    sites.append(carry.reshape((chi,) * bool(sites) + dims[-1:]))
    return sites, sigmas, gaps


def _chain(sites):
    acc = sites[0].reshape(sites[0].shape[-2:]) if sites[0].ndim == 3 \
        else sites[0]
    for site in sites[1:]:
        acc = np.tensordot(acc, site, axes=([acc.ndim - 1], [0]))
    return acc


def _dense_truncate(m, r):
    """truncate_mps as it was: contract, re-factor, difference norm."""
    psi = decomp.mps_contract(m).data
    sites, sigmas, gaps = _dense_sweep(psi, r)
    phi = _chain(sites)
    error = float(np.linalg.norm(psi - phi))
    clamped = all(len(s) <= r for s in m.bond_sigmas)
    discarded = [x for s in sigmas for x in s[r:]]
    return sites, phi, error, clamped, discarded, gaps


def _bonds(m):
    return [s.dims[-1] for s in m.sites[:-1]]


def _named_state(kind, n, seed):
    gen = np.random.default_rng(seed)
    if kind == "random":
        v = gen.normal(size=(2,) * n) + 1j * gen.normal(size=(2,) * n)
    elif kind == "product":
        v = np.ones(1)
        for _ in range(n):
            v = np.multiply.outer(v, gen.normal(size=2) + 1j * gen.normal(size=2))
        v = v.reshape((2,) * n)
    else:
        v = tnq.standard_tensor(kind, n).data
    return tz.state(v / np.linalg.norm(v))


_kinds = st.sampled_from(["random", "product", "GHZ", "W"])


@settings(max_examples=60, deadline=None)
@given(_kinds, st.integers(2, 10), st.integers(0, 2**32 - 1))
def test_mps_factor_sigma_matches_dense_svd(kind, n, seed):
    psi = _named_state(kind, n, seed)
    m = decomp.mps_factor(psi)
    for k, sigma in enumerate(m.bond_sigmas):
        dense = np.linalg.svd(psi.data.reshape(2 ** (k + 1), -1),
                              compute_uv=False)
        assert sigma.size <= dense.size
        np.testing.assert_allclose(sigma, dense[:sigma.size], atol=1e-12)
        assert np.all(dense[sigma.size:] < 1e-12)
        assert _bonds(m)[k] == tz._rank(dense)
    if kind != "random":
        assert max(_bonds(m)) == (1 if kind == "product" else 2)
    np.testing.assert_allclose(decomp.mps_contract(m).data, psi.data,
                               atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_mps_factor_truncated_matches_dense_sweep(n, r, seed):
    psi = _named_state("random", n, seed)
    sites, sigmas, gaps = _dense_sweep(psi.data, r)
    assume(min(gaps, default=1.0) > 1e-6)
    m = decomp.mps_factor(psi, max_rank=r)
    assert _bonds(m) == [a.shape[-1] for a in sites[:-1]]
    for got, want in zip(m.bond_sigmas, sigmas):
        np.testing.assert_allclose(got, want, atol=1e-12)
    np.testing.assert_allclose(decomp.mps_contract(m).data, _chain(sites),
                               atol=1e-10)


def _assert_truncation_matches(m, r, compare_state=True):
    out, report = decomp.truncate_mps(m, r)
    sites, phi, error, clamped, discarded, gaps = _dense_truncate(m, r)
    assert _bonds(out) == [a.shape[-1] for a in sites[:-1]]
    assert report.clamped == clamped
    assert len(report.discarded) == len(discarded)
    np.testing.assert_allclose(report.discarded, discarded, atol=1e-12)
    np.testing.assert_allclose(report.error, error, atol=1e-12)
    for site in out.sites[:-1]:
        a = site.data.reshape(-1, site.dims[-1])
        np.testing.assert_allclose(a.conj().T @ a, np.eye(a.shape[1]),
                                   atol=1e-12)
    if compare_state:
        np.testing.assert_allclose(decomp.mps_contract(out).data, phi,
                                   atol=1e-10)
    return gaps


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["random", "product"]), st.integers(2, 10),
       st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_truncate_mps_matches_dense_refactor(kind, n, r, seed):
    m = decomp.mps_factor(_named_state(kind, n, seed))
    _, _, gaps = _dense_sweep(decomp.mps_contract(m).data, r)
    assume(min(gaps, default=1.0) > 1e-6)
    _assert_truncation_matches(m, r)


@pytest.mark.parametrize("kind", ["GHZ", "W"])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_truncate_mps_degenerate_states_match_dense_refactor(kind, n, r):
    # equal Schmidt values leave the kept vector free, so only the state
    # is not compared where a degenerate pair is cut
    m = decomp.mps_factor(_named_state(kind, n, 0))
    _assert_truncation_matches(m, r, compare_state=r > 1)


@pytest.mark.parametrize("dims", [(1, 2, 1), (3, 1, 2), (2, 5, 1, 3),
                                  (3, 4, 2, 3), (3,)])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_truncate_mps_mixed_dims_match_dense_refactor(dims, r):
    m = decomp.mps_factor(rand_state(*dims))
    gaps = _assert_truncation_matches(m, r)
    assert min(gaps, default=1.0) > 1e-6


def test_truncate_mps_input_need_not_be_canonical():
    gen = np.random.default_rng(5)
    raw = [gen.normal(size=(2, 3)), gen.normal(size=(3, 2, 4)),
           gen.normal(size=(4, 2, 2)), gen.normal(size=(2, 2))]
    orients = [["d", "u"], ["d", "d", "u"], ["d", "d", "u"], ["d", "d"]]
    m = decomp.MPS(sites=tuple(tz.Tensor(a, o) for a, o in zip(raw, orients)),
                   bond_sigmas=(np.ones(3), np.ones(4), np.ones(2)))
    gaps = _assert_truncation_matches(m, 2)
    assert min(gaps) > 1e-6


def test_truncate_mps_rejects_broken_chain():
    m = decomp.mps_factor(rand_state(2, 2, 2))
    a, b, c = m.sites
    short = tz.Tensor(b.data[:1], b.orients)
    with pytest.raises(ShapeError, match="bond 0"):
        decomp.truncate_mps(decomp.MPS((a, short, c), m.bond_sigmas), 1)


def test_mps_checks_its_chain_when_built():
    m = decomp.mps_factor(rand_state(2, 3, 2))
    assert m.site_dims == (2, 3, 2)
    a, b, c = m.sites
    short = tz.Tensor(b.data[:1], b.orients)
    with pytest.raises(ShapeError, match="bond 0"):
        decomp.MPS((a, short, c), m.bond_sigmas)
    with pytest.raises(ShapeError, match="site 1 has 2 legs, not 3"):
        decomp.MPS((a, c, c), m.bond_sigmas)
    with pytest.raises(ShapeError, match="at least one site"):
        decomp.MPS((), ())
    for sigmas in (m.bond_sigmas[:1], m.bond_sigmas + (np.ones(1),)):
        with pytest.raises(ShapeError, match="3 sites need 2 bond spectra"):
            decomp.MPS(m.sites, sigmas)


def test_schmidt_spectrum_matches_schmidt():
    for dims, legs in [((2, 2), [0]), ((2, 3, 2, 2), [1, 3]),
                       ((3, 3, 3), [0])]:
        psi = rand_state(*dims)
        sigma, chi = decomp.schmidt_spectrum(psi, legs)
        sd = decomp.schmidt(psi, legs)
        np.testing.assert_allclose(sigma, sd.sigma, atol=1e-12)
        assert chi == sd.chi
    ghz = tnq.standard_tensor("GHZ", 4, normalized=True)
    sigma, chi = decomp.schmidt_spectrum(ghz)
    assert chi == 2 and sigma.size == 4


def _overflowing_state():
    # finite entries whose 2-norm, and so the largest singular value and
    # the R factor of every cut, overflows float64
    return tz.state(np.full((2,) * 4, 1e308))


@pytest.mark.parametrize("call", [
    decomp.schmidt_spectrum,
    lambda psi: decomp.schmidt(psi, [0, 1]),
    decomp.mps_factor,
], ids=["schmidt_spectrum", "schmidt", "mps_factor"])
def test_overflowing_factorization_is_numerical_error(call):
    # not sigma = [inf, 0, 0, 0] with rank 0, nor a ShapeError that calls
    # the finite input bad
    with pytest.raises(NumericalError, match="overflowed"):
        call(_overflowing_state())


def test_truncate_mps_overflowing_qr_is_numerical_error():
    # the right-canonical sweep's QR of site 1 overflows
    m = decomp.MPS(sites=(tz.Tensor(np.eye(2), "du"),
                          tz.Tensor(np.full((2, 2), 1e308), "dd")),
                   bond_sigmas=(np.ones(2),))
    with np.errstate(all="ignore"), pytest.raises(NumericalError):
        decomp.truncate_mps(m, 1)


def test_truncate_mps_overflowing_carry_is_numerical_error():
    # the QR of site 1 is finite, but its R factor times site 0 (finite
    # 1e200 entries) overflows; this was reported as bad input (ShapeError)
    big = np.full((2, 2), 1e200)
    m = decomp.MPS(sites=(tz.Tensor(big, "du"), tz.Tensor(big, "dd")),
                   bond_sigmas=(np.ones(2),))
    with np.errstate(all="ignore"), pytest.raises(NumericalError):
        decomp.truncate_mps(m, 1)


def test_mps_contract_overflow_is_numerical_error():
    # two finite sites of 1e200 whose bond sum overflows: not inf+nanj
    big = np.full((2, 2), 1e200)
    m = decomp.MPS(sites=(tz.Tensor(big, "du"), tz.Tensor(big, "dd")),
                   bond_sigmas=(np.ones(2),))
    with np.errstate(all="ignore"), pytest.raises(NumericalError,
                                                  match="overflow"):
        decomp.mps_contract(m)


def test_mixed_concurrence_overflow_is_numerical_error():
    # r @ yy @ r* @ yy overflows; NumPy's LinAlgError must not escape
    with np.errstate(all="ignore"), pytest.raises(NumericalError):
        decomp.mixed_concurrence(np.full((4, 4), 1e308))


def test_concurrence_pure_overflowing_norm_is_numerical_error():
    # a product state (concurrence 0) whose squared norm overflows: it
    # used to normalize by sqrt(inf) to zeros and return sqrt(2)
    big = tz.Tensor(np.full((2, 2), 1e300), "dd")
    for normalize in (True, False):
        with np.errstate(all="ignore"), pytest.raises(NumericalError,
                                                      match="overflow"):
            decomp.concurrence_pure(big, normalize=normalize)


def test_schmidt_spectrum_maps_nonconvergence(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(NumericalError):
        decomp.schmidt_spectrum(rand_state(2, 2))


# ------------------------------------------------------- MPS directory errors

def _saved(tmp_path, n=3):
    m = decomp.mps_factor(rand_state(*([2] * n)))
    decomp.save_mps(m, tmp_path / "mps")
    return tmp_path / "mps"


def test_save_mps_over_a_longer_mps(tmp_path):
    d = _saved(tmp_path, n=5)
    (d / "notes.txt").write_text("kept\n")
    (d / "site_07.tntx").write_text("not a member name\n")
    psi = rand_state(2, 2, 2)
    decomp.save_mps(decomp.mps_factor(psi), d)
    assert sorted(p.name for p in d.iterdir()) == [
        "manifest.txt", "notes.txt", "sigma_0.txt", "sigma_1.txt",
        "site_0.tntx", "site_07.tntx", "site_1.tntx", "site_2.tntx"]
    back = decomp.load_mps(d)
    assert len(back.sites) == 3 and len(back.bond_sigmas) == 2
    np.testing.assert_allclose(decomp.mps_contract(back).data, psi.data,
                               atol=1e-10)


def test_interrupted_save_mps_leaves_no_manifest(tmp_path, monkeypatch):
    d = _saved(tmp_path, n=3)
    real, written = tz.write_tntx, []

    def failing(t):
        if written:
            raise OSError("disk full")
        written.append(t)
        return real(t)

    monkeypatch.setattr(tz, "write_tntx", failing)
    with pytest.raises(OSError):
        decomp.save_mps(decomp.mps_factor(rand_state(2, 2, 2, 2)), d)
    assert not (d / "manifest.txt").exists()
    with pytest.raises(ParseError) as info:
        decomp.load_mps(d)
    assert info.value.code == "missing-file"


def test_load_mps_zero_sites(tmp_path):
    d = _saved(tmp_path)
    for manifest in ("mps 0\n", "mps x\n"):
        (d / "manifest.txt").write_text(manifest)
        with pytest.raises(ParseError) as info:
            decomp.load_mps(d)
        assert info.value.code == "bad-header"


def test_load_mps_bad_sigma_token(tmp_path):
    d = _saved(tmp_path)
    (d / "sigma_1.txt").write_text("0.5 zz\n")
    with pytest.raises(ParseError) as info:
        decomp.load_mps(d)
    assert info.value.code == "bad-token"


def test_load_mps_missing_site(tmp_path):
    d = _saved(tmp_path)
    (d / "site_2.tntx").unlink()
    with pytest.raises(ParseError) as info:
        decomp.load_mps(d)
    assert info.value.code == "missing-file"


def test_load_mps_bond_mismatch(tmp_path):
    d = _saved(tmp_path)
    site = tz.read_tntx((d / "site_1.tntx").read_text())
    wider = tz.Tensor(np.ones((site.dims[0] + 1,) + site.dims[1:]),
                      site.orients)
    (d / "site_1.tntx").write_text(tz.write_tntx(wider))
    with pytest.raises(ShapeError, match="bond 0"):
        decomp.load_mps(d)


# -------------------------------------------------------------------- measures

def test_bell_entropy():
    sigma = np.array([1 / SQ2, 1 / SQ2])
    np.testing.assert_allclose(decomp.entropy(sigma), math.log(2),
                               atol=1e-12)


def test_entropy_product_state_zero():
    np.testing.assert_allclose(decomp.entropy([1.0]), 0.0, atol=1e-12)


def test_renyi_limits():
    sigma = np.sqrt([0.7, 0.2, 0.1])
    s1 = decomp.entropy(sigma)
    # alpha -> 1 limit
    for alpha in (1 - 1e-4, 1 + 1e-4):
        assert abs(decomp.renyi(sigma, alpha) - s1) < 1e-3
    # alpha = 2 closed form
    np.testing.assert_allclose(decomp.renyi(sigma, 2),
                               -math.log(0.49 + 0.04 + 0.01), atol=1e-12)
    # alpha = 1 and alpha <= 0 are outside the definition
    with pytest.raises(ShapeError):
        decomp.renyi(sigma, 1)
    with pytest.raises(ShapeError):
        decomp.renyi(sigma, 0)


def test_entropy_normalize_flag():
    sigma = np.array([2.0, 2.0])  # unnormalized spectrum
    np.testing.assert_allclose(decomp.entropy(sigma, normalize=True),
                               math.log(2), atol=1e-12)


def test_concurrence_pure_bell_and_product():
    bell = tnq.standard_tensor("BELL", "PHI+", normalized=True)
    np.testing.assert_allclose(decomp.concurrence_pure(bell), 1.0,
                               atol=1e-12)
    prod = tz.state(np.multiply.outer([1, 0], [0, 1.0]))
    np.testing.assert_allclose(decomp.concurrence_pure(prod), 0.0,
                               atol=1e-12)


def test_concurrence_and_type_state():
    # equal superposition over the zeros of AND: (|00> + |01> + |10>)/sqrt(3)
    v = np.array([[1, 1], [1, 0]]) / math.sqrt(3)
    psi = tz.state(v)
    np.testing.assert_allclose(decomp.concurrence_pure(psi), 2 / 3,
                               atol=1e-10)


def test_mixed_concurrence_werner():
    # Werner state r|Psi-><Psi-| + (1-r) I/4: C = max(0, (3r-1)/2)
    psim = tnq.standard_tensor("BELL", "PSI-", normalized=True)
    proj = np.outer(psim.data.reshape(-1), psim.data.reshape(-1).conj())
    for r, want in ((1.0, 1.0), (1 / 3, 0.0), (0.0, 0.0), (0.8, 0.7)):
        rho = r * proj + (1 - r) * np.eye(4) / 4
        np.testing.assert_allclose(
            decomp.mixed_concurrence(tz.operator(rho)), want, atol=1e-8)


def test_sym_poly_and_power_sum():
    sigma = np.sqrt([0.5, 0.3, 0.2])
    lam = sigma**2
    np.testing.assert_allclose(decomp.sym_poly(sigma, 1), lam.sum(),
                               atol=1e-12)
    np.testing.assert_allclose(
        decomp.sym_poly(sigma, 2),
        lam[0] * lam[1] + lam[0] * lam[2] + lam[1] * lam[2], atol=1e-12)
    np.testing.assert_allclose(decomp.power_sum(sigma, 2), (lam**2).sum(),
                               atol=1e-12)


def test_d_concurrence():
    # maximally entangled spectrum saturates C_k = 1; product state gives 0
    d = 3
    maxent = np.full(d, math.sqrt(1.0 / d))
    for k in (1, 2, 3):
        np.testing.assert_allclose(decomp.d_concurrence(maxent, k), 1.0,
                                   atol=1e-12)
    np.testing.assert_allclose(decomp.d_concurrence([1.0, 0, 0], 2), 0.0,
                               atol=1e-12)


def test_purity_swap_checks_cap_before_allocating(monkeypatch):
    monkeypatch.setattr(tz, "SIZE_CAP", 2**10)
    assert decomp.purity_swap(np.eye(5) / 5) == pytest.approx(0.2)
    monkeypatch.setattr(np, "kron", lambda *a: pytest.fail("allocated"))
    with pytest.raises(tnq.SizeCapError):
        decomp.purity_swap(np.eye(6) / 6)


def test_purity_swap():
    # Tr rho^2 via the doubled-state SWAP trick equals the direct trace
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    np.testing.assert_allclose(decomp.purity_swap(tz.operator(rho)),
                               np.trace(rho @ rho).real, atol=1e-10)


def test_purify_round_trip():
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    psi = decomp.purify(tz.operator(rho))
    red = np.einsum("ij,kj->ik", psi.data, psi.data.conj())
    np.testing.assert_allclose(red, rho, atol=1e-10)


def test_purify_rejects_nonpositive():
    with pytest.raises((NumericalError, ShapeError)):
        decomp.purify(tz.operator(np.diag([1.0, -0.5])))
