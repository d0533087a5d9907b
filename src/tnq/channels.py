"""Quantum channels in five representations with conversions and checks.

Representations: Kraus (operator list), superoperator (column-vec
convention), Choi matrix on input (x) output with Tr L = d, chi (process)
matrix over an orthonormal operator basis, and the Stinespring operator.
Also: structural checks (CP/TP/HP/unital) with witnesses, composite
unravelling, superoperator composition, reduced superoperators,
ancilla-assisted recovery of the Choi matrix, symmetric-subspace
projectors, and closed-form gate/entanglement fidelities per
representation.

Every matrix argument (basis elements, representation matrices, states,
probes) is read by :func:`tnq.tensor._matrix`, under the one array rule
of :mod:`tnq.tensor`.  ``Channel(...)`` checks itself when built
(rep, dims, basis, and each matrix against its rep's shape in
``_LAYOUT``); the constructors and ``read_chx`` only work out the dims.
A computed value that overflows raises ``NumericalError`` in
``tz._finite``, which ``tz._linalg`` runs on every result.

Column-vec layout throughout: vec(rho) stacks columns, so the composite
index is (column, row) with the column index slowest.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tz
from .errors import NumericalError, ParseError, ShapeError
from .gates import PAULI, _permutation_matrix
from .tensor import (DOWN, Tensor, _matrix, _reshuffle, _unravel_order,
                     _unvec, _vec)

# each rep's matrix name and shape as a function of (d_in, d_out, d_env)
_LAYOUT = {
    "kraus": ("Kraus operator", lambda i, o, e: (o, i)),
    "superop": ("superoperator", lambda i, o, e: (o * o, i * i)),
    "choi": ("Choi matrix", lambda i, o, e: (i * o, i * o)),
    "chi": ("chi matrix", lambda i, o, e: (i * o, i * o)),
    "stinespring": ("Stinespring operator", lambda i, o, e: (o * e, i)),
}
REPS = tuple(_LAYOUT)
# a Stinespring operator is a reshaped Kraus list: one formula serves both
_KRAUS = ("kraus", "stinespring")


@dataclass(frozen=True)
class OperatorBasis:
    """Orthonormal operator basis under <A, B> = Tr(A^dag B)."""

    elements: tuple
    _stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        elems = tuple(_matrix(e, "basis element") for e in self.elements)
        if not elems:
            raise ShapeError("empty operator basis")
        shape = elems[0].shape
        d = shape[0] * shape[1]
        if len(elems) != d:
            raise ShapeError(f"basis needs {d} elements, got {len(elems)}")
        if any(e.shape != shape for e in elems):
            raise ShapeError("basis elements must share one shape")
        # one read-only vec-stack, built once; the elements are views of it
        s = np.column_stack([_vec(e) for e in elems])
        s.flags.writeable = False
        object.__setattr__(self, "_stack", s)
        object.__setattr__(self, "elements",
                           tuple(_unvec(c, *shape) for c in s.T))
        # <A, B> = Tr(A^dag B) = vec(A)^dag vec(B)
        if not np.abs(s.conj().T @ s - np.eye(d)).max() <= 1e-10:
            raise ShapeError("basis is not orthonormal under the HS product")

    @property
    def shape(self):
        return self.elements[0].shape

    def stack(self):
        """Read-only matrix with vec(sigma_alpha) as columns."""
        return self._stack


def pauli_basis():
    """{I, X, Y, Z}/sqrt(2): orthonormal, with Tr sigma_0 = sqrt(2)."""
    return OperatorBasis(
        tuple(PAULI[k] / math.sqrt(2.0) for k in "IXYZ")
    )


def elementary_basis(d_out, d_in):
    """Matrix units ordered so their vec-stack is the identity."""
    ((d_out, d_in),) = tz._ints(((d_out, d_in),), "dimensions", 1)
    tz._check_size("elementary basis", (d_out * d_in,) * 2)
    eye = np.eye(d_out * d_in, dtype=complex)
    return OperatorBasis(tuple(_unvec(c, d_out, d_in) for c in eye.T))


def default_basis(d_out, d_in):
    if d_out == d_in == 2:
        return pauli_basis()
    return elementary_basis(d_out, d_in)


@dataclass(frozen=True)
class Channel:
    """One representation of a completely positive map, checked when
    built: each matrix must have its rep's shape in ``_LAYOUT``."""

    rep: str
    data: tuple          # matrices; single-element tuple except for kraus
    d_in: int
    d_out: int
    basis: OperatorBasis | None = None
    d_env: int | None = None

    def __post_init__(self):
        if self.rep not in _LAYOUT:
            raise ShapeError(f"unknown representation {self.rep!r}")
        if self.rep == "chi" and self.basis is None:
            raise ShapeError("a chi channel needs an operator basis")
        # one read of the dims, d_env only where the rep has one
        names = ("d_in", "d_out", "d_env")[:2 + (self.rep == "stinespring")]
        (dims,) = tz._ints(([getattr(self, k) for k in names],),
                           "channel dimensions", 1)
        for name, d in zip(names, dims):
            object.__setattr__(self, name, d)
        if self.rep == "chi" and self.basis.shape != (self.d_out, self.d_in):
            raise ShapeError("chi basis elements must be d_out x d_in")
        data = tuple(self.data)
        if len(data) != 1 and not (data and self.rep == "kraus"):
            raise ShapeError(f"a {self.rep} channel holds {len(data)} "
                             f"matrices")
        name, shape = _LAYOUT[self.rep]
        shape = shape(self.d_in, self.d_out, self.d_env)
        object.__setattr__(self, "data",
                           tuple(_matrix(m, name, shape) for m in data))

    def matrix(self):
        if self.rep == "kraus":
            raise ShapeError("kraus channels hold a list of operators")
        return self.data[0]


def kraus_channel(operators):
    ops = tuple(operators)
    # an empty list fails in Channel
    d_out, d_in = _matrix(ops[0], "Kraus operator").shape if ops else (1, 1)
    return Channel("kraus", ops, d_in, d_out)


def superop_channel(m, d_in, d_out):
    return Channel("superop", (m,), d_in, d_out)


def choi_channel(m, d_in, d_out):
    return Channel("choi", (m,), d_in, d_out)


def chi_channel(m, basis):
    d_out, d_in = basis.shape
    return Channel("chi", (m,), d_in, d_out, basis=basis)


def stinespring_channel(a, d_out):
    rows, d_in = _matrix(a, "Stinespring operator").shape
    d_out = tz._int(d_out, "channel dimensions", 1)
    if rows % d_out != 0:
        raise ShapeError("Stinespring rows must factor as d_out*d_env")
    return Channel("stinespring", (a,), d_in, d_out, d_env=rows // d_out)


def unitary_channel(u):
    return kraus_channel([u])


def depolarizing_channel(p):
    """Qubit depolarizing: rho -> (1-p) rho + p I/2, for p in [0, 4/3]."""
    if not 0 <= p <= 4 / 3:
        raise ShapeError(f"depolarizing p must lie in [0, 4/3], not {p}")
    k0 = math.sqrt(1 - 3 * p / 4)
    kp = math.sqrt(p / 4)
    return kraus_channel(
        [k0 * PAULI["I"], kp * PAULI["X"], kp * PAULI["Y"], kp * PAULI["Z"]]
    )


def amplitude_damping_channel(gamma):
    if not 0 <= gamma <= 1:
        raise ShapeError(f"damping gamma must lie in [0, 1], not {gamma}")
    k0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    return kraus_channel([k0, k1])


# ---------------------------------------------------------------------------
# reshuffling and the representation arrows

def reshuffle_superop_choi(m, d_in, d_out):
    """Choi <-> superoperator: :func:`tnq.tensor.reshuffle` with
    ``(dx, dy) = (d_in, d_out)``.

    Maps L[(m,mu),(n,nu)] to S[(nu,mu),(n,m)] and back; the shape of
    ``m`` decides the direction.
    """
    return _reshuffle(_matrix(m, "Choi or superoperator matrix"),
                      d_in, d_out)


def _kraus_to_choi(ops):
    d = ops[0].shape[0] * ops[0].shape[1]
    lam = np.zeros((d, d), dtype=complex)
    for k in ops:
        v = _vec(k)
        lam += np.outer(v, v.conj())
    return lam


def _sorted_eigh(h):
    """Hermitian eigendecomposition, descending, deterministic phases."""
    ev, vec = tz._linalg(np.linalg.eigh, h)
    order = np.argsort(-ev, kind="stable")
    ev = ev[order]
    vec = vec[:, order]
    for i in range(vec.shape[1]):
        # a unit column: some entry is at least 1/sqrt(d), far above 1e-12
        col = vec[:, i]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        phase = col[nz[0]] / abs(col[nz[0]])
        vec[:, i] = col / phase
    return ev, vec


def _is_cp(wit, lam, tol):
    """The one CP rule: least eigenvalue ``wit`` >= -tol max(|lam|_ij, 1)."""
    return wit >= -tol * max(float(np.abs(lam).max()), 1.0)


def _choi_to_kraus(lam, d_in, d_out, tol=1e-9):
    ev, vec = _sorted_eigh(lam)
    if not _is_cp(ev.min(), lam, tol):
        raise ShapeError(
            f"Choi matrix is not CP (eigenvalue {ev.min()}); "
            "no Kraus decomposition"
        )
    scale = max(np.abs(ev).max(), 1.0)
    ops = []
    for i in range(ev.size):
        if ev[i] <= tz.ZERO_THRESHOLD * scale:
            continue
        ops.append(math.sqrt(float(ev[i])) * _unvec(vec[:, i], d_out, d_in))
    if not ops:
        ops = [np.zeros((d_out, d_in), dtype=complex)]
    return tuple(ops)


def _stinespring_to_kraus(ch):
    """Kraus list of a Kraus or Stinespring channel: the Stinespring
    operator ``A[(i, alpha), j] = K_alpha[i, j]`` is its Kraus list."""
    if ch.rep == "kraus":
        return ch.data
    a3 = ch.matrix().reshape(ch.d_out, ch.d_env, ch.d_in)
    return tuple(a3[:, alpha, :] for alpha in range(ch.d_env))


def convert(ch, target, basis=None):
    """Convert a channel to another representation.

    The Choi matrix is the hub; chi conversions use ``basis`` (default:
    normalized Pauli for qubits, elementary otherwise).
    """
    if target not in REPS:
        raise ShapeError(f"unknown representation {target!r}")
    d_in, d_out = tz._tensor(ch, "channel", cls=Channel).d_in, ch.d_out
    if ch.rep == target and (target != "chi" or basis is None):
        return ch

    # to Choi
    if ch.rep in _KRAUS:
        lam = _kraus_to_choi(_stinespring_to_kraus(ch))
    elif ch.rep == "superop":
        lam = _reshuffle(ch.matrix(), d_in, d_out)
    elif ch.rep == "choi":
        lam = ch.matrix()
    else:  # chi
        b = ch.basis.stack()
        lam = b @ ch.matrix() @ b.conj().T
    lam = tz._finite(lam, "Choi matrix")

    if target == "choi":
        return choi_channel(lam, d_in, d_out)
    if target == "superop":
        return superop_channel(_reshuffle(lam, d_in, d_out), d_in, d_out)
    if target == "chi":
        b = basis or ch.basis or default_basis(d_out, d_in)
        bs = b.stack()
        return chi_channel(tz._finite(bs.conj().T @ lam @ bs, "chi matrix"), b)
    ops = _choi_to_kraus(lam, d_in, d_out)
    if target == "kraus":
        return Channel("kraus", ops, d_in, d_out)
    # A[(i, alpha), j] = K_alpha[i, j], the layout _stinespring_to_kraus reads
    return Channel("stinespring", (np.stack(ops, axis=1).reshape(-1, d_in),),
                   d_in, d_out, d_env=len(ops))


def apply(ch, rho):
    """Evolve a density operator with the representation's own formula."""
    ch = tz._tensor(ch, "channel", cls=Channel)
    r = _matrix(rho, "state", (ch.d_in, ch.d_in))
    if ch.rep in _KRAUS:
        out = sum(k @ r @ k.conj().T for k in _stinespring_to_kraus(ch))
    elif ch.rep == "superop":
        out = _unvec(ch.matrix() @ _vec(r), ch.d_out, ch.d_out)
    elif ch.rep == "choi":
        l4 = ch.matrix().reshape(ch.d_in, ch.d_out, ch.d_in, ch.d_out)
        out = np.einsum("mn,munv->uv", r, l4)
    else:  # chi: sum_ij chi_ij sigma_i rho sigma_j^dag
        s = np.stack(ch.basis.elements)
        out = np.einsum("ij,iab,bc,jdc->ad", ch.matrix(), s, r, s.conj(),
                        optimize=True)
    return tz.operator(tz._finite(out, "channel output"))


def check(ch, prop, tol=1e-9):
    """Structural property check on the Choi matrix.

    Returns (bool, witness): the witness is the offending eigenvalue
    (CP) or deviation norm (TP/HP/unital).
    """
    lam = convert(ch, "choi").matrix()
    d_in, d_out = ch.d_in, ch.d_out
    l4 = lam.reshape(d_in, d_out, d_in, d_out)
    scale = max(float(np.abs(lam).max()), 1.0)
    if prop == "CP":
        wit = float(tz._linalg(np.linalg.eigvalsh, lam).min())
        return _is_cp(wit, lam, tol), wit
    if prop == "HP":
        dev = lam - lam.conj().T
    elif prop == "TP":
        dev = np.einsum("munu->mn", l4) - np.eye(d_in)
    elif prop == "unital":
        dev = np.einsum("mumv->uv", l4) - np.eye(d_out)
    else:
        raise ShapeError(f"unknown property {prop!r}")
    wit = float(tz._finite(np.abs(dev).max(), f"{prop} witness"))
    return wit <= tol * scale, wit


# ---------------------------------------------------------------------------
# composite systems

def _unravel(v, dims, inverse):
    dims = tz._ints(dims, "subsystem dimensions", 1)
    if any(len(pair) != 2 for pair in dims):
        raise ShapeError("subsystem dimensions must be (d_in, d_out) pairs")
    vec = tz._array(v.data if isinstance(v, Tensor) else v, "vector").ravel()
    if vec.size != math.prod(map(math.prod, dims)):
        raise ShapeError(f"vector of length {vec.size} does not match "
                         f"subsystem dimensions {list(dims)}")
    out = vec[_unravel_order(dims, inverse)]
    return Tensor(out, [DOWN]) if isinstance(v, Tensor) else out


def unravel(v, dims):
    """Map a joint-system vectorization to per-subsystem vectorizations.

    ``dims`` lists (d_in_k, d_out_k) per subsystem; the inverse index
    permutation is :func:`unravel_inverse`.
    """
    return _unravel(v, dims, False)


def unravel_inverse(v, dims):
    return _unravel(v, dims, True)


def compose_superops(channels):
    """Joint superoperator of independent per-site maps.

    Conjugates the tensor product of the site superoperators by the
    unravelling permutation so it acts on the joint-system
    vectorization.
    """
    # a list, so a stacked array of superoperators reads like a list
    channels = list(channels) if np.iterable(channels) else ()
    if not channels:
        raise ShapeError("need a nonempty sequence of superoperators")
    sops = []
    dims = []
    for ch in channels:
        if isinstance(ch, Channel):
            ch = convert(ch, "superop")
            sops.append(ch.matrix())
            dims.append((ch.d_in, ch.d_out))
        else:
            m = _matrix(ch, "superoperator")
            dx = int(round(math.sqrt(m.shape[1])))
            dy = int(round(math.sqrt(m.shape[0])))
            if (dy * dy, dx * dx) != m.shape:
                raise ShapeError("superoperator sides must be squares")
            sops.append(m)
            dims.append((dx, dy))
    d_in = math.prod(dx for dx, _ in dims)
    d_out = math.prod(dy for _, dy in dims)
    tz._check_size("joint superoperator", (d_out * d_out, d_in * d_in))
    big = sops[0]
    for s in sops[1:]:
        big = np.kron(big, s)
    # per-site vec indices (nu_k, mu_k) -> joint (nu_1..nu_n, mu_1..mu_n)
    rows = _unravel_order([(dy, dy) for _, dy in dims], inverse=True)
    cols = _unravel_order([(dx, dx) for dx, _ in dims], inverse=True)
    return superop_channel(big[np.ix_(rows, cols)], d_in, d_out)


def reduced_superop(s, d_x, d_y, tau0, tau1):
    """Effective map on subsystem X of a joint superoperator on X (x) Y.

    The Y input is prepared in tau0 and the Y output projected onto
    tau1 (an effect; pass the identity matrix for a partial trace).
    """
    if isinstance(s, Channel):
        s = convert(s, "superop").matrix()
    s = _matrix(s, "joint superoperator", ((d_x * d_y) ** 2,) * 2)
    # joint vec index (n_x, n_y, m_x, m_y) -> (n_x, m_x, n_y, m_y)
    order = _unravel_order([(d_x, d_x), (d_y, d_y)])
    w = s[np.ix_(order, order)].reshape(d_x**2, d_y**2, d_x**2, d_y**2)
    v0 = _vec(_matrix(tau0, "tau0", (d_y, d_y)))
    v1 = _vec(_matrix(tau1, "tau1", (d_y, d_y)))
    out = np.einsum("b,abcd,d->ac", v1.conj(), w, v0)
    return superop_channel(out, d_x, d_x)


# ---------------------------------------------------------------------------
# ancilla-assisted recovery

def aapt_recover(rho_as, rho_out, cond_limit=1e12):
    """Recover the Choi matrix of a channel acting on the S half of a
    bipartite probe state.

    ``rho_as`` is the probe (ancilla (x) system, both dimension d) and
    ``rho_out`` the joint output (I (x) E)(rho_as).  The probe is
    faithful iff its reshuffled matrix is invertible; otherwise a
    :class:`NumericalError` is raised.  Returns (choi_channel,
    condition_number).
    """
    ras = _matrix(rho_as, "probe state", "square")
    d = math.isqrt(ras.shape[0])
    if ras.shape != (d * d, d * d):
        raise ShapeError("probe and output must be d^2 x d^2 with equal d")
    rout = _matrix(rho_out, "joint output", ras.shape)
    s_as = _reshuffle(ras, d, d)
    sv = tz._linalg(np.linalg.svd, s_as, compute_uv=False)
    if sv[-1] <= 0 or sv[0] / sv[-1] > cond_limit:
        raise NumericalError(
            "probe state is not faithful: reshuffled matrix is singular "
            f"(singular values {sv[0]:.3e}..{sv[-1]:.3e})"
        )
    cond = float(sv[0] / sv[-1])
    s_e = _reshuffle(rout, d, d) @ tz._linalg(np.linalg.inv, s_as)
    lam = _reshuffle(s_e, d, d)
    return choi_channel(lam, d, d), cond


# ---------------------------------------------------------------------------
# symmetric projectors and fidelities

def sym_projector(n, d):
    """Projector onto the symmetric subspace of n copies (n in {2, 3})."""
    n = tz._int(n, "sym_projector copy counts", 2, 3)
    d = tz._int(d, "sym_projector dimensions", 1, 5)
    acc = sum(_permutation_matrix(perm, d)
              for perm in itertools.permutations(range(n)))
    return tz.operator(acc / math.factorial(n))


def avg_gate_fidelity(ch):
    """Average gate fidelity, computed from the channel's own
    representation."""
    if tz._tensor(ch, "channel", cls=Channel).d_in != ch.d_out:
        raise ShapeError("average gate fidelity needs d_in = d_out")
    d = ch.d_in
    if ch.rep in _KRAUS:
        val = sum(abs(np.trace(k)) ** 2 for k in _stinespring_to_kraus(ch))
    elif ch.rep == "superop":
        val = np.trace(ch.matrix()).real
    elif ch.rep == "choi":
        vid = _vec(np.eye(d))
        val = (vid.conj() @ ch.matrix() @ vid).real
    else:  # chi
        # sum_k |Tr K_k|^2 = t chi t^dag with t_i = Tr sigma_i, in any basis
        t = _vec(np.eye(d)) @ ch.basis.stack()
        val = (t @ ch.matrix() @ t.conj()).real
    return float(tz._finite((d + np.real(val)) / (d * (d + 1)),
                            "average gate fidelity"))


def entanglement_fidelity(ch, rho):
    """F_e(E, rho), again per-representation."""
    if tz._tensor(ch, "channel", cls=Channel).d_in != ch.d_out:
        raise ShapeError("entanglement fidelity needs d_in = d_out")
    r = _matrix(rho, "state", (ch.d_in, ch.d_in))
    if ch.rep in _KRAUS:
        val = sum(abs(np.trace(r @ k)) ** 2 for k in _stinespring_to_kraus(ch))
    elif ch.rep == "superop":
        val = np.trace(np.kron(r.T, r) @ ch.matrix()).real
    elif ch.rep == "choi":
        v = _vec(r)
        val = (v.conj() @ ch.matrix() @ v).real
    else:  # chi: Tr(rho sigma_i) chi_ij Tr(rho sigma_j^dag)
        b = ch.basis.stack()
        val = ((_vec(r.T) @ b) @ ch.matrix() @ (_vec(r) @ b.conj())).real
    return float(tz._finite(np.real(val), "entanglement fidelity"))


# ---------------------------------------------------------------------------
# CHX v1 text format

def write_chx(ch):
    ch = tz._tensor(ch, "channel", cls=Channel)
    header = f"chx 1 {ch.rep} {ch.d_in} {ch.d_out}"
    if ch.rep == "kraus":
        header += f" {len(ch.data)}"
    elif ch.rep == "stinespring":
        header += f" {ch.d_env}"
    return "\n".join([header] + [tz._block_text(m) for m in ch.data]) + "\n"


def read_chx(text, basis=None):
    toks = tz._tokens(text)
    if tz._need(toks, "magic") != "chx" or tz._need(toks, "version") != "1":
        raise ParseError("not a CHX v1 stream", code="bad-header")
    rep = tz._need(toks, "representation")
    if rep not in REPS:
        raise ParseError(f"unknown representation {rep!r}", code="bad-header")
    d_in = tz._need_int(toks, "d_in", 1)
    d_out = tz._need_int(toks, "d_out", 1)
    n_mats = tz._need_int(toks, "operator count", 1) if rep == "kraus" else 1
    d_env = tz._need_int(toks, "d_env", 1) if rep == "stinespring" else None
    shape = _LAYOUT[rep][1](d_in, d_out, d_env)
    mats = tuple(tz._read_block(toks, shape) for _ in range(n_mats))
    tz._expect_end(toks)
    basis = (basis or default_basis(d_out, d_in)) if rep == "chi" else None
    return Channel(rep, mats, d_in, d_out, basis=basis, d_env=d_env)
