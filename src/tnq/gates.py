"""Catalogue of named tensors (gates, logical tensors, standard states)
plus Pauli-string algebra and stabilizer verification.

Gate entries are returned with output legs down followed by input legs
up, data laid out as the usual matrix.  Logical 3-leg tensors (AND, OR,
NAND, NOR, XNOR) are returned in map form: two down input-kets and one
up output-bra, matching ``(|00>+|01>+|10>)<0| + |11><1|`` for AND.  XOR
is the all-down parity tensor (1 iff an even number of indices are 1),
like COPY.
States are unnormalized by default (binary amplitudes, GHZ = |0..0>+|1..1>);
pass ``normalized=True`` to rescale to unit norm.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .errors import ShapeError
from .tensor import DOWN, UP, Tensor

_SQ2 = math.sqrt(2.0)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / _SQ2
P = np.array([[1, 0], [0, 1j]], dtype=complex)

PAULI = {"I": I2, "X": X, "Y": Y, "Z": Z}


def copy_tensor(n_legs, d=2, exact=False):
    """Generalized Kronecker delta: 1 iff all indices equal (all legs down).

    ``n_legs >= 1`` and ``d >= 1``; with two legs it is the cup, and
    |PHI+> for d = 2.  With ``exact`` the entries are exact integers, for
    exact counting.
    """
    ((n_legs, d),) = tz._ints(((n_legs, d),), "COPY leg counts and dims", 1)
    tz._check_size("COPY", (d,), n_legs)
    data = np.zeros((d,) * n_legs)
    data.reshape(-1)[::sum(d**k for k in range(n_legs))] = 1  # the diagonal
    if exact:
        return Tensor._trusted(data, (DOWN,) * n_legs, 1)
    return Tensor(data, [DOWN] * n_legs)


def _permutation_matrix(perm, d):
    """Operator permuting n tensor factors of dimension d.

    ``P[src, dst] = 1`` where digit k of ``src`` is digit ``perm[k]`` of
    ``dst``: the identity on n factors with its row axes reordered.
    """
    n = len(perm)
    if d**n == 1:  # d = 1: its 2n axes could pass NumPy's limit of 64
        return np.eye(1, dtype=complex)
    eye = np.eye(d**n, dtype=complex).reshape((d,) * (2 * n))
    rows = eye.transpose(list(perm) + list(range(n, 2 * n)))
    return rows.reshape(d**n, d**n)


def _weights(n):
    """Hamming weight of every n-bit index, in int8 of shape (2,) * n:
    2^n bytes, where ``np.indices`` would hold n * 2^n int64 entries."""
    w = np.array(0, dtype=np.int8)
    for _ in range(n):
        w = np.stack((w, w + 1))
    return w


def xor_tensor(n_legs):
    """Parity tensor: 1 iff the index assignment has an even number of 1s."""
    n_legs = tz._int(n_legs, "XOR leg counts", 1)
    tz._check_size("XOR", (2,), n_legs)
    return Tensor(_weights(n_legs) % 2 == 0, [DOWN] * n_legs)


def epsilon_tensor(order, exact=False):
    """Fully antisymmetric Levi-Civita tensor; every leg has dim = order.

    With ``exact`` the entries are exact integers, for exact counting.
    """
    order = tz._int(order, "epsilon orders", 2, 6)
    data = np.zeros((order,) * order, dtype=np.int64)
    for perm in itertools.permutations(range(order)):
        data[perm] = _perm_sign(perm)
    if exact:
        return Tensor._exact(data, [DOWN] * order)
    return Tensor(data, [DOWN] * order)


def _perm_sign(perm):
    """+1 or -1: the parity of the number of inversions of ``perm``."""
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    return -1 if inversions % 2 else 1


#: Named Boolean gates: (arity, fn).  Each fn also maps index arrays
#: elementwise, so ``fn(*np.indices((2,) * arity))`` is its truth array.
_GATE_FNS = {
    "AND": (2, lambda a, b: a & b),
    "OR": (2, lambda a, b: a | b),
    "XOR": (2, lambda a, b: a ^ b),
    "NAND": (2, lambda a, b: 1 - (a & b)),
    "NOR": (2, lambda a, b: 1 - (a | b)),
    "XNOR": (2, lambda a, b: 1 - (a ^ b)),
    "NOT": (1, lambda a: 1 - a),
    "CONST0": (0, lambda: 0),
    "CONST1": (0, lambda: 1),
}


def _graph_tensor(values, orients):
    """Indicator of the graph of a Boolean function: entry ``[x, b]`` is
    1 iff ``values[x] == b``, so the last leg carries the output bit."""
    return Tensor(np.stack([1 - values, values], axis=-1), orients)


def dicke_state(n, k):
    """Equal superposition of all weight-k n-bit strings (unnormalized)."""
    n = tz._int(n, "DICKE qubit counts", 0)
    k = tz._int(k, "DICKE weights", 0, n)
    tz._check_size("DICKE", (2,), n)
    return Tensor(_weights(n) == k, [DOWN] * n)


#: Bell state -> Pauli word P with the state (P (x) I)|PHI+>, whose
#: amplitude matrix is P
_BELL_PAULI = {"PHI+": "I", "PHI-": "Z", "PSI+": "X", "PSI-": "ZX"}


def _normalize(t):
    nrm = math.sqrt(float(np.vdot(t.data, t.data).real))
    if nrm == 0:
        return t
    return Tensor(t.data / nrm, t.orients)


def _permutation_gate(rows):
    """Qubit gate whose matrix is the identity with its rows reordered."""
    dims = (2,) * (len(rows).bit_length() - 1)
    return tz.gate(np.eye(len(rows))[rows], dims, dims)


def _bell(kind="PHI+"):
    """Bell state (P (x) I)|PHI+> for the Pauli word P of ``kind``."""
    word = isinstance(kind, str) and _BELL_PAULI.get(
        kind.upper().replace("Φ", "PHI").replace("Ψ", "PSI"))
    if not word:
        raise ShapeError(f"unknown Bell state {kind!r}")
    p = functools.reduce(np.matmul, map(PAULI.get, word))
    # + 0j turns the -0.0 entries of the product into 0.0
    return Tensor(p @ copy_tensor(2).data + 0j, [DOWN, DOWN])


#: Every named tensor: upper-case name -> builder, whose parameters (and
#: their defaults) are the parameters the name takes.
_CATALOGUE = {
    **{k: functools.partial(tz.operator, m)
       for k, m in {**PAULI, "H": H, "P": P}.items()},
    "CNOT": lambda: _permutation_gate([0, 1, 3, 2]),
    "CZ": lambda: tz.gate(np.diag([1, 1, 1, -1]), (2, 2), (2, 2)),
    "SWAP": lambda: _permutation_gate([0, 2, 1, 3]),
    "TOFFOLI": lambda: _permutation_gate([0, 1, 2, 3, 4, 5, 7, 6]),
    "COPY": lambda n_legs=3, d=2: copy_tensor(n_legs, d),
    "XOR": lambda n_legs=3: xor_tensor(n_legs),
    **{k: functools.partial(_graph_tensor, _GATE_FNS[k][1](
        *np.indices((2, 2))), [DOWN, DOWN, UP])
       for k in ("AND", "OR", "NAND", "NOR", "XNOR")},
    "CUP": lambda d=2: copy_tensor(2, d),
    "CAP": lambda d=2: tz.bend_all(copy_tensor(2, d)),
    "EPSILON": lambda order=3: epsilon_tensor(order),
    "GHZ": lambda n=3, d=2: copy_tensor(n, d),
    "W": lambda n=3: dicke_state(n, 1),
    "DICKE": dicke_state,
    "BELL": _bell,
    "PLUS": lambda: tz.state([1, 1]),
    "MINUS": lambda: tz.state([1, -1]),
    "Y+": lambda: tz.state([1, 1j]),
    "Y-": lambda: tz.state([1, -1j]),
}


def standard_tensor(name, *params, normalized=False):
    """Catalogue constructor for every named tensor used in the toolkit.

    Gate names: I, X, Y, Z, H, P, CNOT, CZ, SWAP, TOFFOLI.
    Logic: COPY(n_legs[, d]), XOR(n_legs), AND, OR, NAND, NOR, XNOR.
    Wire structure: CUP(d), CAP(d), EPSILON(order).
    States: GHZ(n[, d]), W(n), DICKE(n, k), BELL(kind), PLUS, MINUS, Y+, Y-.

    Every name is one entry of ``_CATALOGUE``, whose builder's signature
    is the name's parameter list: a parameter the name does not take, or
    a missing one without a default, raises ``ShapeError``.
    """
    build = _CATALOGUE.get(name.upper()) if isinstance(name, str) else None
    if build is None:
        raise ShapeError(f"unknown tensor name {name!r}")
    sig = inspect.signature(build)
    try:
        sig.bind(*params)
    except TypeError:
        raise ShapeError(f"{name} takes {sig}, not {params}") from None
    t = build(*params)
    return _normalize(t) if normalized else t


def cnot_from_copy_xor():
    """CNOT via the contraction  sum_m COPY^{qm}_i XOR^r_{mj}."""
    copy = copy_tensor(3)                    # legs (q, m, i), all down
    copy = tz.bend_leg(copy, 2)              # i up: acts as the control input
    xor = tz.bend_leg(xor_tensor(3), 1)      # legs (r, m^, j); bend m to bra
    xor = tz.bend_leg(xor, 2)                # j up: target input
    out = tz.contract(copy, [1], xor, [1])   # legs (q, i, r, j)
    return tz.permute_legs(out, [0, 2, 1, 3])


def rotated_copy(u, tol=tz.DEFAULT_TOL):
    """COPY conjugated to copy the basis {U^dag |i>}.

    Returned as a 1-in/2-out map with legs (out, out, in).  With ``u = H``
    it equals the XOR splitting map up to the scalar 1/sqrt(2).
    """
    um = tz._matrix(u, "rotated_copy operator", "square")
    d = um.shape[0]
    if np.abs(um @ um.conj().T - np.eye(d)).max() > tol:
        raise ShapeError("rotated_copy requires a unitary matrix")
    delta = copy_tensor(3, d).data           # delta[i, j, k]
    data = np.einsum("ai,bj,ijk,kc->abc", um.conj().T, um.conj().T, delta, um)
    return Tensor(data, [DOWN, DOWN, UP])


def and_from_toffoli():
    """AND-state prepared by contracting Toffoli with unit states.

    Controls are fed the COPY unit |0>+|1> and the target the XOR unit
    |0>; the result is exactly |000>+|010>+|100>+|111> (scalar 1).
    """
    toff = standard_tensor("TOFFOLI")
    unit = tz.state([1, 1])
    zero = tz.state([1, 0])
    out = tz.contract(toff, [3], unit, [0])
    out = tz.contract(out, [3], unit, [0])
    return tz.contract(out, [3], zero, [0])


# ---------------------------------------------------------------------------
# Pauli strings

_PHASES = (1, -1, 1j, -1j)


def _pauli_product(a, b):
    """``(phase, c)`` with ``PAULI[a] @ PAULI[b] = phase * PAULI[c]``."""
    for c, p in PAULI.items():
        # <PAULI[c], PAULI[a] @ PAULI[b]> / <P, P>, with <P, P> = 2; einsum,
        # as a BLAS call (@) at import adds its set-up to every process's RSS
        z = np.einsum("ij,ik,kj->", p.conj(), PAULI[a], PAULI[b]) / 2
        if z != 0:
            return _PHASES[_PHASES.index(z)], c


_MUL = {(a, b): _pauli_product(a, b)
        for a, b in itertools.product(PAULI, repeat=2)}


@dataclass(frozen=True)
class PauliString:
    """Signed Pauli word: phase in {1, -1, i, -i} times a letter per qubit."""

    letters: str
    phase: complex = 1

    def __post_init__(self):
        if not isinstance(self.letters, str) or {*self.letters} - {*"IXYZ"}:
            raise ShapeError(f"bad Pauli letters {self.letters!r}")
        if self.phase not in _PHASES:
            raise ShapeError(f"phase must be a fourth root of unity")

    def __mul__(self, other):
        if not isinstance(other, PauliString):
            return NotImplemented
        if len(self.letters) != len(other.letters):
            raise ShapeError("Pauli strings act on different qubit counts")
        phase = self.phase * other.phase
        out = []
        for a, b in zip(self.letters, other.letters):
            ph, c = _MUL[(a, b)]
            phase *= ph
            out.append(c)
        return PauliString("".join(out), complex(phase))

    def __neg__(self):
        return PauliString(self.letters, -self.phase)

    def to_matrix(self):
        m = np.array([[self.phase]], dtype=complex)
        for c in self.letters:
            m = np.kron(m, PAULI[c])
        return m

    def __str__(self):
        pre = {1: "+", -1: "-", 1j: "+i", -1j: "-i"}[self.phase]
        return pre + self.letters


def is_stabilizer(psi, op, tol=tz.DEFAULT_TOL):
    """True iff ``op`` fixes the state with eigenvalue exactly +1."""
    m = (op.to_matrix() if isinstance(op, PauliString)
         else tz._matrix(op, "stabilizer operator", "square"))
    psi = psi if isinstance(psi, Tensor) else tz.state(psi)
    vec = tz._matrix(tz.as_matrix(psi, psi.order), "state",
                     (m.shape[0], 1))[:, 0]
    return bool(np.abs(m @ vec - vec).max() <= tol * max(1.0, np.abs(vec).max()))


def evolve_generator(u, g, tol=tz.DEFAULT_TOL):
    """Heisenberg evolution U g U^dag of a stabilizer generator."""
    um = tz._matrix(u, "evolve_generator operator", "square")
    if np.abs(um @ um.conj().T - np.eye(um.shape[0])).max() > tol:
        raise ShapeError("evolve_generator requires a unitary")
    gm = (g.to_matrix() if isinstance(g, PauliString)
          else tz._matrix(g, "generator", um.shape))
    return tz.operator(um @ gm @ um.conj().T)


def boolean_stabilizer(b0, b1):
    """Single-qubit Boolean state and its stabilizer for bits (b0, b1).

    The stabilizer is (-1)^b1 (1-b0) Z + b0 X; the state c0|0> + c1|1>
    uses the multilinear coefficients c0 = 1 - b1 + b0*b1 and
    c1 = b0 + b1 - b0*b1, so +Z fixes |0>, -Z fixes |1>, and X fixes
    |0>+|1>.
    """
    ((b0, b1),) = tz._ints(((b0, b1),), "bits", 0, 1)
    c0 = 1 - b1 + b0 * b1
    c1 = b0 + b1 - b0 * b1
    psi = tz.state([c0, c1])
    if b0:
        stab = PauliString("X")
    else:
        stab = PauliString("Z", phase=(-1) ** b1)
    return psi, stab
