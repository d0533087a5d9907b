"""Polynomial invariants of states under local groups.

Norm-type invariants J1/J2, the two-qubit determinant invariant K1 and
its composition law, determinants via the Levi-Civita tensor, the
three-qubit Kempe invariant, trace invariants from permutation
operators, (anti)symmetrizers, and binary-form covariants (Hessian,
cubic discriminant) for symmetric states.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .errors import ShapeError
from .decomp import _split_matrix
from .gates import _perm_sign, _permutation_matrix, _weights, epsilon_tensor
from .network import Network, contract_network
from .tensor import DOWN, Tensor


def j1(state):
    """Norm invariant sum |alpha|^2."""
    return tz._finite(float(np.vdot(state.data, state.data).real), "J1")


def j2(state, left_legs=None):
    """Purity invariant Tr(rho_A^2) = sum_i lambda_i^2 of the reduced
    spectrum (= sum sigma_i^4)."""
    a, _, _ = _split_matrix(state, left_legs)
    b = a @ a.conj().T
    # b is Hermitian: Tr(b b) = Tr(b^dag b)
    return tz._finite(float(np.vdot(b, b).real), "J2")


def k1(state):
    """Two-qubit determinant invariant 2 det(alpha)."""
    a, _, _ = _split_matrix(state)
    if a.shape != (2, 2):
        raise ShapeError("k1 is defined for two-qubit states")
    return complex(2.0 * (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]))


def k1_compose(s1, s2, psi):
    """K1 of (S1 x S2) psi; equals K1(psi) det(S1) det(S2)."""
    m1 = tz._matrix(s1, "local operator", (2, 2))
    m2 = tz._matrix(s2, "local operator", (2, 2))
    a, _, _ = _split_matrix(psi)
    if a.shape != (2, 2):
        raise ShapeError("k1_compose is defined for two-qubit states")
    out = m1 @ a @ m2.T
    return complex(2.0 * (out[0, 0] * out[1, 1] - out[0, 1] * out[1, 0]))


def epsilon_det(a):
    """Determinant of a square matrix as an epsilon-tensor contraction.

    One epsilon node and one row-effect node per matrix row, evaluated
    through the network planner.
    """
    m = tz._matrix(a, "epsilon_det matrix", "square")
    n = m.shape[0]
    net = Network([("eps", epsilon_tensor(n), range(n))]
                  + [(("row", k), tz.effect(m[k]), [k]) for k in range(n)])
    return complex(contract_network(net).data)


def kempe(psi3):
    """Degree-6 permutation invariant of a three-qubit state.

    Three copies of the state and three conjugates joined in the closed
    6-node loop pattern; invariant under local unitaries.
    """
    if psi3.dims != (2, 2, 2):
        raise ShapeError("kempe expects a three-qubit state")
    ket = tz.state(psi3.data)
    bra = tz.effect(np.conj(psi3.data))
    # psi^{ijk} psibar_{ilm} psi^{nlo} psibar_{pjo} psi^{pqm} psibar_{nqk}
    net = Network((k + 1, bra if k % 2 else ket, labels) for k, labels
                  in enumerate(("ijk", "ilm", "nlo", "pjo", "pqm", "nqk")))
    return complex(contract_network(net).data)


def trace_invariant(rho, perm):
    """Tr(P_sigma rho^(x n)) for a permutation of n tensor copies."""
    r = tz._matrix(rho, "trace_invariant matrix", "square")
    d = r.shape[0]
    # n distinct legs of n copies: a permutation
    (perm,) = tz._ints((perm,), "legs")
    n = len(tz._legs(perm, len(perm)))
    tz._check_size("permutation operator", (d**n,) * 2)
    big = np.eye(1)  # zero copies: the empty product
    for _ in range(n):
        big = np.kron(big, r)
    return complex(np.trace(_permutation_matrix(perm, d) @ big))


def symmetrize(t, group_elements):
    """Group average (1/|G|) sum_g g{t}.

    Elements may be leg permutations (sequences of ints) or matrices /
    operator tensors acting on the flattened state vector.
    """
    if not group_elements:
        raise ShapeError("group must be nonempty")
    acc = np.zeros_like(t.data)
    for g in group_elements:
        if isinstance(g, (list, tuple)) and all(
            isinstance(x, (int, np.integer)) for x in g
        ):
            acc = acc + tz.permute_legs(t, list(g)).data
        else:
            m = tz._matrix(g, "group element", (t.data.size,) * 2)
            acc = acc + (m @ t.data.reshape(-1)).reshape(t.dims)
    return Tensor(acc / len(group_elements), t.orients)


def antisymmetrize(t):
    """Signed average over all leg permutations (sign representation)."""
    n = t.order
    acc = np.zeros_like(t.data)
    for perm in itertools.permutations(range(n)):
        acc = acc + _perm_sign(perm) * tz.permute_legs(t, list(perm)).data
    return Tensor(acc / math.factorial(n), t.orients)


# ---------------------------------------------------------------------------
# binary forms

@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous form Q(x, y) = sum_k C(n, k) a_k x^k y^(n-k).

    Stored as coefficients (a_0, ..., a_n); bijective with the symmetric
    subspace of an n-qubit state via |0> <-> x, |1> <-> y.
    """

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", tuple(complex(c) for c in self.coeffs)
        )
        if len(self.coeffs) < 1:
            raise ShapeError("binary form needs degree >= 0")

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def monomial_coeffs(self):
        """Plain coefficients q_k of x^k y^(n-k)."""
        n = self.degree
        return [math.comb(n, k) * self.coeffs[k] for k in range(n + 1)]

    def evaluate(self, x, y):
        n = self.degree
        return sum(
            q * x**k * y ** (n - k)
            for k, q in enumerate(self.monomial_coeffs())
        )


def state_from_form(f):
    """Symmetric n-qubit state: weight-k strings get amplitude a_{n-k}."""
    n = f.degree
    if n < 1:
        raise ShapeError("need degree >= 1 for a state")
    tz._check_size("symmetric state", (2,), n)
    return Tensor(np.array(f.coeffs, dtype=complex)[n - _weights(n)],
                  [DOWN] * n)


def form_from_state(psi, tol=tz.DEFAULT_TOL):
    """Inverse of state_from_form; the state must be symmetric."""
    n = psi.order
    if psi.dims != (2,) * n:
        raise ShapeError("expected an n-qubit state")
    # in C order, the first index of weight k is 2^k - 1 (its k last bits
    # set); its amplitude is a_{n-k}, which every later one must match
    amps = np.asarray(psi.data, dtype=complex).ravel()
    firsts = [2**k - 1 for k in range(n + 1)]
    off = np.abs(amps - amps[firsts][_weights(n).ravel()]) > tol
    off[firsts] = False
    if off.any():
        raise ShapeError("state is not in the symmetric subspace")
    return BinaryForm(amps[firsts[::-1]])


def hessian(f):
    """Hessian covariant H = Q_xx Q_yy - Q_xy^2 (a form of degree 2n-4)."""
    n = f.degree
    if n < 2:
        raise ShapeError("Hessian needs degree >= 2")
    q = f.monomial_coeffs()

    def d_x(poly, deg):
        return [poly[k + 1] * (k + 1) for k in range(deg)]

    def d_y(poly, deg):
        return [poly[k] * (deg - k) for k in range(deg)]

    qx = d_x(q, n)
    qy = d_y(q, n)
    qxx = d_x(qx, n - 1)
    qyy = d_y(qy, n - 1)
    qxy = d_y(qx, n - 1)

    def mul(p1, p2):
        out = [0j] * (len(p1) + len(p2) - 1)
        for i, a in enumerate(p1):
            for j, b in enumerate(p2):
                out[i + j] += a * b
        return out

    h = [a - b for a, b in zip(mul(qxx, qyy), mul(qxy, qxy))]
    m = 2 * n - 4
    return BinaryForm([h[k] / math.comb(m, k) for k in range(m + 1)])


def cubic_discriminant(f):
    """Discriminant of a binary cubic in the a-coefficient convention."""
    if f.degree != 3:
        raise ShapeError("cubic_discriminant needs a degree-3 form")
    a0, a1, a2, a3 = f.coeffs
    val = (
        a0**2 * a3**2
        - 6 * a0 * a1 * a2 * a3
        + 4 * a0 * a2**3
        - 3 * a1**2 * a2**2
        + 4 * a1**3 * a3
    )
    return val if abs(val.imag) > 1e-14 else float(val.real)
