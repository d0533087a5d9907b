"""SVD-driven state factorization and entanglement measures.

Schmidt decomposition across arbitrary bipartitions, iterative matrix
product state (MPS) factorization by a left-to-right SVD sweep,
lowest-rank truncation with exact Frobenius error reporting, and the
singular-value-based measures (entropy, Renyi, concurrence and friends).
``MPS(...)`` checks its site chain and spectrum count when built, and
derives ``site_dims`` from the sites.  Density-operator arguments are
read by :func:`tnq.tensor._matrix`, under the one array rule of
:mod:`tnq.tensor`.  An SVD, QR or eigen step that fails or overflows
raises ``NumericalError`` in ``tz._linalg``.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .errors import NumericalError, ParseError, ShapeError
from .gates import Y, _permutation_matrix
from .tensor import DOWN, UP, Tensor


@dataclass(frozen=True)
class SchmidtDecomposition:
    """State = sum_i sigma[i] |u_i>|v_i> across a declared bipartition."""

    u: Tensor            # left legs + bond (up)
    sigma: np.ndarray    # descending, nonnegative
    v_dagger: Tensor     # bond (down) + right legs
    chi: int
    left_legs: tuple
    right_legs: tuple


@dataclass(frozen=True)
class MPS:
    """Site chain, left-canonical as factored; bond_sigmas[k] holds the
    singular values of the cut between sites k and k+1.  Checked when
    built: leg counts and bond dimensions fit, one spectrum per bond."""

    sites: tuple         # of Tensors
    bond_sigmas: tuple   # of ndarrays

    def __post_init__(self):
        n = len(self.sites)
        if n < 1:
            raise ShapeError("an MPS needs at least one site")
        orders = [1] if n == 1 else [2] + [3] * (n - 2) + [2]
        for k, (site, order) in enumerate(zip(self.sites, orders)):
            tz._tensor(site, f"site {k}", order)
        for k in range(n - 1):
            left, right = self.sites[k].dims[-1], self.sites[k + 1].dims[0]
            if left != right:
                raise ShapeError(f"bond {k} has dimension {left} at site {k} "
                                 f"but {right} at site {k + 1}")
        if len(self.bond_sigmas) != n - 1:
            raise ShapeError(f"{n} sites need {n - 1} bond spectra, "
                             f"not {len(self.bond_sigmas)}")

    @property
    def site_dims(self):
        """Physical dimension of each site."""
        return tuple(s.dims[1 if k else 0] for k, s in enumerate(self.sites))


@dataclass(frozen=True)
class TruncationReport:
    error: float
    clamped: bool
    discarded: tuple


def _split_matrix(state, left_legs=None):
    """State as a matrix: left legs (default: the first half) index rows."""
    state = tz._tensor(state, "state")
    if left_legs is None:
        left_legs = range(state.order // 2)
    left_legs = list(tz._legs(left_legs, state.order))
    right_legs = [i for i in range(state.order) if i not in left_legs]
    if not left_legs or not right_legs:
        raise ShapeError("left_legs must be a proper nonempty subset of legs")
    perm = left_legs + right_legs
    arranged = tz.permute_legs(state, perm)
    dl = int(np.prod([state.dims[i] for i in left_legs], dtype=np.int64))
    m = arranged.data.reshape(dl, -1)
    return m, left_legs, right_legs


def schmidt(state, left_legs):
    """Schmidt decomposition of a multi-leg state across left_legs|rest."""
    m, left_legs, right_legs = _split_matrix(state, left_legs)
    res = tz.svd(Tensor._trusted(m, (DOWN, DOWN), state.bound))
    ldims = [state.dims[i] for i in left_legs]
    rdims = [state.dims[i] for i in right_legs]
    u = Tensor._trusted(res.u.data.reshape(ldims + [-1]),
                        (DOWN,) * len(ldims) + (UP,))
    vd = Tensor._trusted(res.v_dagger.data.reshape([-1] + rdims),
                         (DOWN,) * (1 + len(rdims)))
    return SchmidtDecomposition(
        u=u, sigma=res.sigma, v_dagger=vd, chi=res.rank,
        left_legs=tuple(left_legs), right_legs=tuple(right_legs),
    )


def schmidt_reconstruct(sd):
    """Rebuild the state (legs ordered left_legs then right_legs)."""
    ud = sd.u.data
    core = ud * sd.sigma
    data = np.tensordot(core, sd.v_dagger.data, axes=([ud.ndim - 1], [0]))
    return Tensor(data, [DOWN] * data.ndim)


def truncate_schmidt(sd, r):
    """Keep the r largest Schmidt values (Eckart-Young optimal)."""
    r = tz._int(r, "ranks", 1)
    kept = min(r, len(sd.sigma))
    clamped = r > sd.chi
    discarded = sd.sigma[kept:]
    error = float(math.sqrt(float(np.sum(discarded**2))))
    u = Tensor._trusted(sd.u.data[..., :kept], sd.u.orients, sd.u.bound)
    vd = Tensor._trusted(sd.v_dagger.data[:kept], sd.v_dagger.orients,
                         sd.v_dagger.bound)
    out = SchmidtDecomposition(
        u=u, sigma=sd.sigma[:kept], v_dagger=vd,
        chi=min(sd.chi, kept), left_legs=sd.left_legs,
        right_legs=sd.right_legs,
    )
    return out, TruncationReport(error, clamped, tuple(float(x) for x in discarded))


def _split_step(m, max_rank):
    """One cut of a sweep: ``m ~ u @ carry`` with ``u`` left-isometric.

    Returns ``(u, sigma, carry)``.  ``sigma`` is m's full spectrum; ``u``
    keeps the singular vectors above the zero threshold, at most
    ``max_rank`` of them and at least one; ``carry = u^H m`` is the
    projection onto them.  A wide m is decomposed through the square
    factor ``R^T`` of ``m^T = QR``: ``m = R^T Q^T`` and ``Q^T`` has
    orthonormal rows, so ``R^T`` has m's left singular pairs (R-SVD,
    Chan 1982).  A tall m is decomposed directly.
    """
    rows, cols = m.shape
    small = tz._linalg(np.linalg.qr, m.T, mode="r").T if rows < cols else m
    res = tz.svd(Tensor._trusted(small.astype(complex, copy=False),
                                 (DOWN, DOWN)))
    keep = res.rank if max_rank is None else min(res.rank, max_rank)
    u = res.u.data[:, :max(keep, 1)]
    return u, res.sigma, u.conj().T @ m


def _sweep(carry, right, dims, max_rank):
    """Left-canonical MPS by a left-to-right sweep of :func:`_split_step`.

    ``carry`` (1 x rest) holds the state.  If ``right`` is given, its
    entry ``k - 1`` is site k as a (bond, d_k * bond) matrix with
    orthonormal rows, absorbed into the carry before the cut after site
    k.  Each cut's spectrum is recorded with ``min(rows, prod(dims[k+1:]))``
    values, those of the dense cut, zeros included.
    """
    n = len(dims)
    sites, sigmas = [], []
    for k in range(n - 1):
        if right and k:
            carry = carry @ right[k - 1]
        chi_l = carry.shape[0]
        u, sigma, carry = _split_step(carry.reshape(chi_l * dims[k], -1),
                                      max_rank)
        # u is a view of an SVD factor that _linalg has scanned
        site = u.reshape(chi_l, dims[k], -1)
        if k == 0:  # no left bond
            site = site[0]
        sites.append(Tensor._trusted(site, (DOWN,) * (site.ndim - 1) + (UP,)))
        full = min(u.shape[0], math.prod(dims[k + 1:]))
        sigmas.append(np.pad(sigma, (0, full - sigma.size)))
    if right:
        carry = carry @ right[-1]
    sites.append(Tensor(carry.reshape(-1, dims[-1]), [DOWN, DOWN]))
    return MPS(sites=tuple(sites), bond_sigmas=tuple(sigmas))


def mps_factor(state, max_rank=None):
    """Factor an n-leg state into a left-canonical MPS.

    Left-to-right sweep; at each cut the singular values are recorded and
    the state is projected onto the kept left singular vectors, which
    leaves diag(sigma) V^H as the remainder on the right.  Singular values
    below the zero threshold are dropped, so bond dimensions are minimal;
    ``max_rank`` additionally truncates.  The error terms of successive
    projections are orthogonal, so the distance of the factored state
    from the input is the root sum of squares of every dropped singular
    value.
    """
    if max_rank is not None:
        max_rank = tz._int(max_rank, "ranks", 1)
    if tz._tensor(state, "state").order < 1:
        raise ShapeError("state needs at least one leg")
    if any(o != DOWN for o in state.orients):
        raise ShapeError("mps_factor expects an all-ket state")
    if state.order == 1:
        return MPS(sites=(state,), bond_sigmas=())
    return _sweep(state.data.reshape(1, -1), None, state.dims, max_rank)


def mps_contract(m):
    """Contract the site chain back into a single all-ket state tensor."""
    acc = m.sites[0]
    for site in m.sites[1:]:
        acc = tz.contract(acc, [acc.order - 1], site, [0])
    return acc


def _right_canonical(sites):
    """Site matrices (bond, d * bond) of the same state, sites 1..n-1 with
    orthonormal rows, by QR from right to left."""
    mats = [s.data.reshape(s.dims[0] if k else 1, -1)
            for k, s in enumerate(sites)]
    for k in range(len(mats) - 1, 0, -1):
        # mats[k] = R^T Q^T, and Q^T has orthonormal rows
        q, r = tz._linalg(np.linalg.qr, mats[k].T)
        mats[k] = q.T
        prev = mats[k - 1]
        carry = tz._finite(prev.reshape(-1, r.shape[1]) @ r.T, "QR sweep")
        mats[k - 1] = carry.reshape(prev.shape[0], -1)
    return mats


def truncate_mps(m, r):
    """Cap every bond dimension at r.

    The sites are right-canonicalised by QR from right to left, then one
    left-to-right truncating SVD sweep gives the MPS that re-factoring
    the contracted state would, without building the dense state.  The
    reported error is ``sqrt(sum(discarded**2))``: the error terms of the
    sweep's successive projections are orthogonal, so this is the
    Frobenius distance to the input state, free of cancellation.
    """
    r = tz._int(r, "ranks", 1)
    clamped = all(len(s) <= r for s in m.bond_sigmas)
    if len(m.sites) == 1:
        return m, TruncationReport(0.0, clamped, ())
    first, *right = _right_canonical(m.sites)
    out = _sweep(first, right, m.site_dims, r)
    discarded = tuple(float(x) for s in out.bond_sigmas for x in s[r:])
    error = math.sqrt(math.fsum(x * x for x in discarded))
    return out, TruncationReport(error, clamped, discarded)


def schmidt_spectrum(state, left_legs=None):
    """Schmidt coefficients (descending) and Schmidt rank across
    left_legs|rest, computed without singular vectors."""
    m, _, _ = _split_matrix(state, left_legs)
    sigma = tz._linalg(np.linalg.svd, m, compute_uv=False)
    return sigma, tz._rank(sigma)


# ---------------------------------------------------------------------------
# singular-value measures

def _lam(sigma):
    """lam = sigma^2: the one reader of singular values, finite and
    nonnegative reals (no strings) in a 1-D array, or ``ShapeError``."""
    try:
        sigma = np.asarray(sigma).astype(float, casting="same_kind")
    except (TypeError, ValueError, OverflowError):
        raise ShapeError("singular values must be numbers") from None
    # NaN fails both comparisons
    if sigma.ndim != 1 or not ((0 <= sigma) & (sigma < math.inf)).all():
        raise ShapeError("singular values must be finite, nonnegative "
                         "numbers in a 1-D array")
    return sigma**2


def _spectrum(sigma, normalize):
    """Nonzero entries of lam = sigma^2, normalized or checked to sum to 1."""
    lam = _lam(sigma)
    total = lam.sum()
    if normalize:
        if total == 0:
            raise ShapeError("zero spectrum cannot be normalized")
        lam = lam / total
    elif abs(total - 1.0) > 1e-8:
        raise ShapeError(
            f"spectrum sums to {total}, not 1 (pass normalize=True)"
        )
    return lam[lam > 0]


def entropy(sigma, normalize=False):
    """Entanglement entropy -sum lam ln lam with lam = sigma^2."""
    lam = _spectrum(sigma, normalize)
    return float(-np.sum(lam * np.log(lam)))


def renyi(sigma, alpha, normalize=False):
    """Renyi entropy of order alpha (> 0, != 1, finite) of lam = sigma^2."""
    if not 0 < alpha < math.inf or alpha == 1:
        raise ShapeError(f"alpha must be positive, finite and != 1, "
                         f"not {alpha}")
    lam = _spectrum(sigma, normalize)
    # log-sum-exp over alpha * log(lam): lam**alpha underflows to 0
    top = lam.max()
    log_sum = alpha * math.log(top) + math.log(np.sum((lam / top)**alpha))
    return float(log_sum / (1.0 - alpha))


def concurrence_pure(state, left_legs=None, normalize=False):
    """C = sqrt(d/(d-1) (1 - Tr rho_A^2)) for a bipartite pure state."""
    m, _, _ = _split_matrix(state, left_legs)
    nrm2 = tz._finite(float(np.vdot(m, m).real), "squared norm")
    if normalize:
        if nrm2 == 0:
            raise ShapeError("cannot normalize the zero state")
        m = m / math.sqrt(nrm2)
    elif abs(nrm2 - 1.0) > 1e-8:
        raise ShapeError("state is not normalized (pass normalize=True)")
    rho_a = m @ m.conj().T
    d = rho_a.shape[0]
    if d < 2:
        raise ShapeError("left subsystem must have dimension >= 2")
    # rho_a is Hermitian: Tr(rho_a rho_a) = Tr(rho_a^dag rho_a)
    purity = float(np.vdot(rho_a, rho_a).real)
    val = d / (d - 1) * max(0.0, 1.0 - purity)
    return float(math.sqrt(val))


def mixed_concurrence(rho):
    """Two-qubit concurrence max{l1 - l2 - l3 - l4, 0} of the spin-flip
    spectrum."""
    r = tz._matrix(rho, "two-qubit density operator", (4, 4))
    yy = np.kron(Y, Y)
    m = r @ yy @ r.conj() @ yy
    ev = tz._linalg(np.linalg.eigvals, m)
    lam = np.sqrt(np.clip(ev.real, 0.0, None))
    lam = np.sort(lam)[::-1]
    return float(max(lam[0] - lam[1] - lam[2] - lam[3], 0.0))


def sym_poly(sigma, k):
    """k-th elementary symmetric polynomial of the spectrum lam = sigma^2."""
    lam = _lam(sigma)
    k = tz._int(k, "orders", 0, lam.size)
    # coefficients of prod (x + lam_i) are the elementary symmetric polys
    coeffs = np.poly(-lam)
    return float(coeffs[k].real)


def power_sum(sigma, n):
    """Power-sum basis element B_n = sum lam_i^n with lam = sigma^2."""
    lam, n = _lam(sigma), tz._int(n, "orders", 1)
    return float(np.sum(lam**n))


def d_concurrence(sigma, k):
    """C_k = (S_k(lam) / S_k(1/d, ..., 1/d))^(1/k)."""
    d = _lam(sigma).size
    k = tz._int(k, "orders", 1, d)
    ref = sym_poly(np.full(d, math.sqrt(1.0 / d)), k)
    val = sym_poly(sigma, k) / ref
    return float(max(val, 0.0) ** (1.0 / k))


def purity_swap(rho):
    """Purity computed as Tr[(rho x rho) SWAP]."""
    r = tz._matrix(rho, "density operator", "square")
    d = r.shape[0]
    tz._check_size("purity SWAP", (d * d,) * 2)
    both = np.kron(r, r)
    return float(np.trace(both @ _permutation_matrix([1, 0], d)).real)


def purify(rho, tol=tz.DEFAULT_TOL):
    """Pure bipartite state whose left partial trace is rho."""
    r = tz._matrix(rho, "density operator", "square")
    if np.abs(r - r.conj().T).max() > tol:
        raise ShapeError("purify expects a hermitian matrix")
    ev, vec = tz._linalg(np.linalg.eigh, r)
    if ev.min() < -tol:
        raise NumericalError(f"negative eigenvalue {ev.min()} in purify")
    # column i of the eigenvectors scaled by sqrt(ev_i)
    return Tensor(vec * np.sqrt(np.clip(ev, 0.0, None)), [DOWN, DOWN])


# ---------------------------------------------------------------------------
# MPS serialization (TNTX per site plus a manifest)

#: Member files other than the manifest, with their index.
_MEMBER = re.compile(r"site_(0|[1-9][0-9]*)\.tntx|sigma_(0|[1-9][0-9]*)\.txt")


def save_mps(m, dirpath):
    """Write ``site_k.tntx`` and ``sigma_k.txt`` files, then the manifest.

    An existing manifest is removed first and the new one written last,
    so an interrupted save leaves no manifest naming missing or stale
    sites.  Member files of an earlier, longer MPS are removed.
    """
    os.makedirs(dirpath, exist_ok=True)
    manifest = os.path.join(dirpath, "manifest.txt")
    try:
        os.remove(manifest)
    except FileNotFoundError:
        pass
    n = len(m.sites)
    for k, site in enumerate(m.sites):
        with open(os.path.join(dirpath, f"site_{k}.tntx"), "w") as fh:
            fh.write(tz.write_tntx(site))
    for k, s in enumerate(m.bond_sigmas):
        with open(os.path.join(dirpath, f"sigma_{k}.txt"), "w") as fh:
            fh.write(" ".join(repr(float(x)) for x in s) + "\n")
    for name in os.listdir(dirpath):
        match = _MEMBER.fullmatch(name)
        if match and (int(match[1]) >= n if match[1] is not None
                      else int(match[2]) >= n - 1):
            os.remove(os.path.join(dirpath, name))
    with open(manifest, "w") as fh:
        fh.write(f"mps {n}\n")


def _read_member(dirpath, name):
    try:
        with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read MPS file {name}: {exc.strerror}",
                         code="missing-file") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"MPS file {name} is not UTF-8 text: {exc.reason} "
                         f"at byte {exc.start}", code="bad-token") from None


def load_mps(dirpath):
    toks = _read_member(dirpath, "manifest.txt").split()
    if len(toks) != 2 or toks[0] != "mps":
        raise ParseError("bad MPS manifest", code="bad-header")
    try:
        n = int(toks[1])
    except ValueError:
        raise ParseError("bad MPS site count", code="bad-header") from None
    if n < 1:
        raise ParseError("MPS needs at least one site", code="bad-header")
    sites = [tz.read_tntx(_read_member(dirpath, f"site_{k}.tntx"))
             for k in range(n)]
    sigmas = []
    for k in range(n - 1):
        words = _read_member(dirpath, f"sigma_{k}.txt").split()
        try:
            sigmas.append(np.array(words, dtype=np.float64))
        except ValueError:
            raise ParseError(f"bad token in sigma_{k}.txt",
                             code="bad-token") from None
    return MPS(sites=tuple(sites), bond_sigmas=tuple(sigmas))
